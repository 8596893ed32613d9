//! Captures build provenance for every benchmark result: the repository's
//! git revision and dirty flag, the compiler version, and the release
//! profile this package is built with.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo = manifest
        .parent()
        .expect("the benchmark lives inside the repository");
    // A missing watched path counts as changed on every build, so watch
    // only what exists (a source export has no `.git`).
    for watched in [
        "../.git/HEAD",
        "../.git/index",
        "../crates",
        "../Cargo.toml",
        "Cargo.toml",
    ] {
        if manifest.join(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
    let (rev, dirty) = git_state(repo);
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_GIT_DIRTY={dirty}");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = format!(
        "{} opt-level={} {}",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default(),
        release_profile(&manifest.join("Cargo.toml")),
    );
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
}

/// `(rev, dirty)` of the git checkout rooted exactly at `repo`, or
/// `("none", "unknown")` when `repo` is not the root of one (a source
/// export, or a directory nested inside some other repository).
fn git_state(repo: &Path) -> (String, &'static str) {
    let git = |args: &[&str]| output(Command::new("git").arg("-C").arg(repo).args(args));
    let top = git(&["rev-parse", "--show-toplevel"]).map(PathBuf::from);
    let is_root = match (top.and_then(|t| t.canonicalize().ok()), repo.canonicalize()) {
        (Some(t), Ok(r)) => t == r,
        _ => false,
    };
    if !is_root {
        return ("none".into(), "unknown");
    }
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let dirty = match git(&[
        "--no-optional-locks",
        "status",
        "--porcelain",
        "--untracked-files=no",
    ]) {
        Some(s) if s.is_empty() => "clean",
        Some(_) => "dirty",
        None => "unknown",
    };
    (rev, dirty)
}

/// The `[profile.release]` settings of a manifest, as `key=value` pairs.
fn release_profile(manifest: &Path) -> String {
    let text = std::fs::read_to_string(manifest).unwrap_or_default();
    text.lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter(|l| l.contains('=') && !l.trim_start().starts_with('#'))
        .map(|l| l.replace([' ', '"'], ""))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Trimmed stdout of a successful command.
fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
