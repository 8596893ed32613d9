//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare BASE_RESULTS CHANGE_RESULTS
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload through the
//! harness's public entry points for `S` seconds, setting it up afresh
//! before each repeat, and reports the end-to-end metrics (medians over
//! repeats). A
//! traced run (`--trace 1`) runs the workload once through the harness
//! and then alternates traced and untraced serial passes for `S` seconds,
//! reporting the per-layer metrics. Both check every output. The last
//! line of standard output is the result object; the line before it is
//! the flat record (provenance and metrics) that `compare` reads. See
//! `README.md` for the workloads and metrics.

mod compare;
mod report;
mod spans;
mod work;

use report::{EndToEnd, Provenance, Traced};
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use work::{Inputs, Kind, Outcome};

/// A run stops starting work this long after it began, and abandons a
/// workload run still going at this point, so it always exits in time.
const HARD_LIMIT: Duration = Duration::from_secs(150);
/// The seed index held out for confirming claims on inputs not used
/// while a change was written.
const HELD_OUT_SEED: u64 = 1_000_003;
/// Scratch root, relative to the working directory.
const SCRATCH: &str = ".perfbench-scratch";

#[derive(Debug)]
struct Cli {
    kind: Kind,
    /// Seed index: the workload seed is `HarnessOpts::seed_at(seed)`, so
    /// index 0 is `DEFAULT_SEED` and index i matches `--seeds` sweep
    /// index i.
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench compare BASE_RESULTS CHANGE_RESULTS",
        names.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut kind = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 120),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Cli {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    if let Err(e) = run(&args, start) {
        eprintln!("perfbench: {e}\n{}", usage());
        std::process::exit(2);
    }
    // Exiting also stops a workload run abandoned at the hard limit.
    std::process::exit(0);
}

/// One set-up: arguments, provenance, a fresh scratch directory and the
/// workload's inputs.
fn setup(args: &[String]) -> Result<(Cli, Provenance, Inputs), String> {
    let cli = parse_cli(args)?;
    let prov = Provenance::collect();
    let scratch =
        PathBuf::from(SCRATCH).join(format!("{}-{}", cli.kind.name(), std::process::id()));
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)
            .map_err(|e| format!("clearing {}: {e}", scratch.display()))?;
    }
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let workload_seed = mi6_bench::HarnessOpts::default().seed_at(cli.seed);
    let inputs = work::make_inputs(cli.kind, workload_seed, prov.nproc, scratch);
    Ok((cli, prov, inputs))
}

fn run(args: &[String], start: Instant) -> Result<(), String> {
    let deadline = start + HARD_LIMIT;
    let (cli, prov, inputs) = setup(args)?;
    let setup_s = start.elapsed().as_secs_f64();
    let inputs = Arc::new(inputs);
    let result = if cli.trace {
        traced_run(&cli, &inputs, deadline)
    } else {
        untraced_run(&cli, args, &inputs, deadline, setup_s)
    };
    let _ = std::fs::remove_dir_all(&inputs.scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    let Some((correct, attempted, failed, metrics, problems)) = result else {
        // A workload run is still going past the hard limit: report it
        // as failed.
        let attempted = inputs.point_count();
        let zeros: Vec<(&str, f64)> = report::catalogue(cli.trace)
            .iter()
            .map(|m| (m.name, 0.0))
            .collect();
        println!(
            "{}",
            report::result_line(false, attempted, attempted, &zeros)
        );
        return Ok(());
    };
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let mut fields: BTreeMap<&'static str, String> = BTreeMap::new();
    fields.insert("workload", report::string(cli.kind.name()));
    fields.insert("trace", u8::from(cli.trace).to_string());
    fields.insert("seed", cli.seed.to_string());
    fields.insert("workload_seed", inputs.opts.seed.to_string());
    fields.insert("held_out_seed", HELD_OUT_SEED.to_string());
    fields.insert(
        "inputs",
        report::string(&format!("{:016x}", inputs.fingerprint)),
    );
    fields.insert("git_rev", report::string(prov.git_rev));
    fields.insert("git_dirty", report::string(prov.git_dirty));
    fields.insert("rustc", report::string(prov.rustc));
    fields.insert("profile", report::string(prov.profile));
    fields.insert("cpu", report::string(&prov.cpu));
    fields.insert("nproc", prov.nproc.to_string());
    fields.insert("threads", inputs.threads.to_string());
    fields.insert("mux", work::MUX.to_string());
    fields.insert("correct", correct.to_string());
    fields.insert("attempted", attempted.to_string());
    fields.insert("failed", failed.to_string());
    eprintln!(
        "{} seed {} (workload seed {:#x}): {attempted} points attempted, {failed} failed \
         (failed_share {}), correct = {correct}",
        cli.kind.name(),
        cli.seed,
        inputs.opts.seed,
        ratio(failed, attempted),
    );
    for (name, value) in &metrics {
        let unit = report::metric(name).map_or("", |m| m.unit);
        eprintln!("  {name:<26} {value:>16.6} {unit}");
    }
    println!("{}", report::record_line(&fields, &metrics));
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(())
}

type RunResult = (bool, usize, usize, Vec<(&'static str, f64)>, Vec<String>);

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Runs one workload run on its own thread, in a fresh directory that is
/// removed afterwards, so that a panic fails only this run (the harness
/// has no panic boundary of its own). `None` = still running at the
/// deadline.
fn isolated<T: Send + 'static>(
    inputs: &Arc<Inputs>,
    deadline: Instant,
    dir: PathBuf,
    f: impl FnOnce(&Inputs, &Path) -> T + Send + 'static,
) -> Option<Result<T, String>> {
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(inputs);
    let handle = std::thread::spawn(move || {
        let out = f(&shared, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = tx.send(out);
    });
    let wait = deadline.saturating_duration_since(Instant::now()) + Duration::from_secs(5);
    match rx.recv_timeout(wait) {
        Ok(out) => {
            let _ = handle.join();
            Some(Ok(out))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let msg = match handle.join() {
                Err(panic) => panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into()),
                Ok(()) => "workload thread ended without a result".into(),
            };
            Some(Err(msg))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => None,
    }
}

/// Failure accounting across a run's workload runs.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one workload run; a run that panicked fails all its points.
    fn account(
        &mut self,
        inputs: &Inputs,
        label: &str,
        r: Result<Outcome, String>,
    ) -> Option<Outcome> {
        let n = inputs.point_count();
        self.attempted += n;
        match r {
            Ok(out) => {
                self.failed += out.failed.min(n);
                self.problems
                    .extend(out.problems.iter().map(|p| format!("{label}: {p}")));
                Some(out)
            }
            Err(e) => {
                self.failed += n;
                self.problems.push(format!("{label}: panicked: {e}"));
                None
            }
        }
    }

    /// Fails a completed run's points after a cross-run check.
    fn reject(&mut self, inputs: &Inputs, problem: String) {
        self.failed = (self.failed + inputs.point_count()).min(self.attempted);
        self.problems.push(problem);
    }

    fn finish(self, metrics: Vec<(&'static str, f64)>) -> RunResult {
        let correct = self.failed == 0 && self.problems.is_empty();
        (correct, self.attempted, self.failed, metrics, self.problems)
    }
}

fn run_dir(inputs: &Inputs, name: &str, i: usize) -> PathBuf {
    inputs.scratch.join(format!("{name}-{i}"))
}

/// Repeats the workload for `--seconds`, setting it up afresh before
/// every repeat after the first (`setup_s` is the median set-up time, the
/// first counted from process start) and resetting the peak-RSS mark, so
/// both are sampled across the whole run like the wall time.
fn untraced_run(
    cli: &Cli,
    args: &[String],
    first: &Arc<Inputs>,
    deadline: Instant,
    first_setup_s: f64,
) -> Option<RunResult> {
    let t0 = Instant::now();
    let budget = Duration::from_secs(cli.seconds);
    let mut tally = Tally::default();
    let mut runs: Vec<Outcome> = Vec::new();
    let mut setups = vec![first_setup_s];
    let mut rss = Vec::new();
    let mut inputs = Arc::clone(first);
    let mut i = 0;
    while i == 0 || (t0.elapsed() < budget && Instant::now() < deadline) {
        if i > 0 {
            let t = Instant::now();
            match setup(args) {
                Ok((_, _, fresh)) => {
                    setups.push(t.elapsed().as_secs_f64());
                    if fresh.fingerprint != first.fingerprint {
                        tally
                            .problems
                            .push(format!("set-up {i}: the seed gave different inputs"));
                    }
                    inputs = Arc::new(fresh);
                }
                Err(e) => {
                    tally.problems.push(format!("set-up {i}: {e}"));
                    break;
                }
            }
        }
        reset_peak_rss();
        let dir = run_dir(&inputs, "run", i);
        let r = isolated(&inputs, deadline, dir, move |inp, dir| {
            work::run_harness(inp, dir, deadline)
        })?;
        rss.push(peak_rss_mb());
        runs.extend(tally.account(&inputs, &format!("run {i}"), r));
        i += 1;
    }
    // Simulated results must repeat exactly from run to run.
    for k in 1..runs.len() {
        if runs[k].points != runs[0].points {
            tally.reject(
                first,
                format!("run {k}: simulated results differ from run 0's"),
            );
        }
    }
    let walls: Vec<f64> = runs.iter().map(|o| o.wall.as_secs_f64()).collect();
    let mips: Vec<f64> = runs
        .iter()
        .map(|o| o.instructions as f64 / o.wall.as_secs_f64() / 1e6)
        .collect();
    let first = runs.first();
    let e = EndToEnd {
        wall_s: median(&walls),
        setup_s: median(&setups),
        sim_mips: median(&mips),
        peak_rss_mb: median(&rss),
        paper_err_pp: first.map_or(0.0, |o| o.paper_err_pp),
        victim_slowdown_pct: first.map_or(0.0, |o| o.victim_slowdown_pct),
    };
    eprintln!(
        "{} runs; walls {walls:.3?} s; set-ups {setups:.4?} s; peak RSS {rss:.1?} MB",
        runs.len()
    );
    Some(tally.finish(report::end_to_end_values(&e)))
}

fn traced_run(cli: &Cli, inputs: &Arc<Inputs>, deadline: Instant) -> Option<RunResult> {
    let mut tally = Tally::default();
    let dir = run_dir(inputs, "run", 0);
    let harness = isolated(inputs, deadline, dir, move |inp, dir| {
        work::run_harness(inp, dir, deadline)
    })?;
    let harness = tally.account(inputs, "harness run", harness);
    let t0 = Instant::now();
    let budget = Duration::from_secs(cli.seconds);
    let mut traced: Vec<(Outcome, Vec<spans::Span>)> = Vec::new();
    let mut untraced: Vec<f64> = Vec::new();
    let mut i = 0;
    while i == 0 || (t0.elapsed() < budget && Instant::now() < deadline) {
        for (on, name) in [(true, "traced"), (false, "untraced")] {
            let label = format!("{name} serial pass {i}");
            let r = isolated(
                inputs,
                deadline,
                run_dir(inputs, name, i),
                move |inp, dir| {
                    let mut t = Tracer::new(on);
                    let out = work::run_serial(inp, dir, &mut t);
                    (out, t.spans().to_vec())
                },
            )?;
            let (r, spans) = match r {
                Ok((out, spans)) => (Ok(out), spans),
                Err(e) => (Err(e), Vec::new()),
            };
            let Some(out) = tally.account(inputs, &label, r) else {
                continue;
            };
            if harness.as_ref().is_some_and(|h| out.points != h.points) {
                tally.reject(
                    inputs,
                    format!("{label}: results differ from the threaded harness run"),
                );
            }
            if on {
                if let Err(e) = report::check_layer_sum(&spans) {
                    tally.problems.push(format!("{label}: {e}"));
                }
                traced.push((out, spans));
            } else {
                untraced.push(out.wall.as_secs_f64());
            }
        }
        i += 1;
    }
    let empty = (Outcome::default(), Vec::new());
    // Report the traced pass with the median wall time, so its layer
    // times add up exactly to its own `trace.wall_s`.
    let mut order: Vec<&(Outcome, Vec<spans::Span>)> = traced.iter().collect();
    order.sort_by_key(|(o, _)| o.wall);
    let (pass, spans) = order
        .get((order.len().max(1) - 1) / 2)
        .copied()
        .unwrap_or(&empty);
    let walls: Vec<f64> = traced.iter().map(|(o, _)| o.wall.as_secs_f64()).collect();
    eprintln!(
        "{} traced and {} untraced serial passes; traced walls {walls:.3?} s",
        traced.len(),
        untraced.len()
    );
    let failed_share = ratio(tally.failed, tally.attempted);
    let t = Traced {
        spans,
        serial: pass,
        harness: harness.as_ref().unwrap_or(&empty.0),
        harness_threads: inputs.threads,
        traced_wall_s: median(&walls),
        untraced_wall_s: median(&untraced),
        failed_share,
    };
    let metrics = report::per_layer_values(&t);
    Some(tally.finish(metrics))
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS, so
/// the next reading covers only what follows. Where the kernel refuses,
/// readings stay cumulative peaks.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_run_fails_its_points_without_aborting() {
        let inputs = Arc::new(work::make_inputs(
            Kind::EnclaveContention,
            1,
            1,
            PathBuf::from(".perfbench-test-unused"),
        ));
        let deadline = Instant::now() + Duration::from_secs(30);
        let dir = inputs.scratch.join("run-0");
        let r = isolated(&inputs, deadline, dir, |_, _| -> Outcome { panic!("boom") });
        let Some(Err(msg)) = r else {
            panic!("expected the panic to be reported");
        };
        assert!(msg.contains("boom"));
        let mut tally = Tally::default();
        assert!(tally.account(&inputs, "run 0", Err(msg)).is_none());
        let (correct, attempted, failed, _, problems) = tally.finish(Vec::new());
        assert!(!correct);
        assert_eq!((attempted, failed), (4, 4));
        assert_eq!(problems.len(), 1);
    }

    #[test]
    fn cli_rejects_bad_input() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_cli(&args(
            "--workload fig13-cold --seed 3 --seconds 5 --trace 1"
        ))
        .is_ok());
        for bad in [
            "",
            "--workload nope",
            "--workload fig13-cold --trace 2",
            "--workload fig13-cold --seed x",
            "--workload fig13-cold --seconds",
            "--workload fig13-cold --extra 1",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }
}
