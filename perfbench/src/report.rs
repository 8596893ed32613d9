//! The metric catalogue (which must equal `BENCHMARK.json`), metric
//! values from workload outcomes, provenance, and output lines.

use crate::spans::{self_time_by_name, Span};
use crate::work::{HarnessLayers, Outcome};
use mi6_core::CpiCategory;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a smaller or a larger value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric. `bound` (end-to-end metrics only) is the share
/// of the parent's median by which the metric may worsen.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_mips", "MIPS", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("paper_err_pp", "pp", Lower, 0.1),
    e2e("victim_slowdown_pct", "%", Lower, 0.1),
];

/// Per-layer metrics, printed by traced runs. The sixteen `cpi.*`
/// entries follow `CpiCategory::ALL`.
pub const PER_LAYER: &[Metric] = &[
    layer("soc.step_s", "s", Lower),
    layer("soc.ns_per_tick", "ns", Lower),
    layer("soc.ns_per_inst", "ns", Lower),
    layer("soc.cycles", "cycles", Lower),
    layer("soc.ticks", "count", Lower),
    layer("soc.skip_share", "share", Higher),
    layer("soc.warm_s", "s", Lower),
    layer("soc.warm_ns_per_cycle", "ns", Lower),
    layer("soc.quiesce_s", "s", Lower),
    layer("soc.build_s", "s", Lower),
    layer("workloads.build_s", "s", Lower),
    layer("snapshot.encode_s", "s", Lower),
    layer("snapshot.restore_s", "s", Lower),
    layer("snapshot.io_s", "s", Lower),
    layer("snapshot.pool_s", "s", Lower),
    layer("snapshot.count", "count", Lower),
    layer("snapshot.bytes", "bytes", Lower),
    layer("snapshot.restores", "count", Lower),
    layer("snapshot.pool_hits", "count", Higher),
    layer("snapshot.pool_misses", "count", Lower),
    layer("grid.point_active_s_p50", "s", Lower),
    layer("grid.point_active_s_max", "s", Lower),
    layer("grid.parallel_efficiency", "share", Higher),
    layer("grid.points", "count", Higher),
    layer("grid.journal_s", "s", Lower),
    layer("grid.journal_lines", "count", Lower),
    layer("grid.journal_bytes", "bytes", Lower),
    layer("bench.merge_s", "s", Lower),
    layer("bench.render_s", "s", Lower),
    layer("core.committed", "count", Higher),
    layer("core.ipc", "inst/cycle", Higher),
    layer("core.branch_mpki", "1/kinst", Lower),
    layer("core.flush_stall_cycles", "cycles", Lower),
    layer("core.traps", "count", Lower),
    layer("cpi.base", "share", Higher),
    layer("cpi.idle", "share", Lower),
    layer("cpi.frontend", "share", Lower),
    layer("cpi.exec", "share", Lower),
    layer("cpi.tlb", "share", Lower),
    layer("cpi.mem_l1", "share", Lower),
    layer("cpi.mem_llc", "share", Lower),
    layer("cpi.mem_dram", "share", Lower),
    layer("cpi.mem_pending", "share", Lower),
    layer("cpi.sb_full", "share", Lower),
    layer("cpi.squash_mispredict", "share", Lower),
    layer("cpi.squash_order", "share", Lower),
    layer("cpi.squash_trap", "share", Lower),
    layer("cpi.flush", "share", Lower),
    layer("cpi.mshr_quota_deny", "share", Lower),
    layer("cpi.arb_deny", "share", Lower),
    layer("mem.l1i_misses", "count", Lower),
    layer("mem.l1d_hits", "count", Higher),
    layer("mem.l1d_misses", "count", Lower),
    layer("mem.l1d_blocked", "count", Lower),
    layer("mem.llc_hits", "count", Higher),
    layer("mem.llc_misses", "count", Lower),
    layer("mem.llc_mpki", "1/kinst", Lower),
    layer("mem.llc_arb_wait_cycles", "cycles", Lower),
    layer("mem.llc_conflicts", "count", Lower),
    layer("mem.dram_reads", "count", Lower),
    layer("mem.dram_writes", "count", Lower),
    layer("trace.wall_s", "s", Lower),
    layer("trace.unattributed_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("failed_share", "share", Lower),
];

/// The metrics a run prints: per-layer when traced, else end-to-end.
pub fn catalogue(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The untraced run's figures.
pub struct EndToEnd {
    pub wall_s: f64,
    pub setup_s: f64,
    pub sim_mips: f64,
    pub peak_rss_mb: f64,
    /// One completed run's outcome (the simulated metrics repeat exactly
    /// across runs, which the caller checks).
    pub paper_err_pp: f64,
    pub victim_slowdown_pct: f64,
}

pub fn end_to_end_values(e: &EndToEnd) -> Vec<(&'static str, f64)> {
    vec![
        ("wall_s", e.wall_s),
        ("setup_s", e.setup_s),
        ("sim_mips", e.sim_mips),
        ("peak_rss_mb", e.peak_rss_mb),
        ("paper_err_pp", e.paper_err_pp),
        ("victim_slowdown_pct", e.victim_slowdown_pct),
    ]
}

/// The traced run's inputs to the per-layer metrics.
pub struct Traced<'a> {
    /// Spans of the traced pass whose wall time is the median.
    pub spans: &'a [Span],
    /// The same pass's outcome.
    pub serial: &'a Outcome,
    /// The harness run made alongside (threaded, pooled).
    pub harness: &'a Outcome,
    pub harness_threads: usize,
    /// Median wall of the traced and of the untraced serial passes.
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub failed_share: f64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 || num == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn per_layer_values(t: &Traced<'_>) -> Vec<(&'static str, f64)> {
    let self_ns = self_time_by_name(t.spans);
    let span_s = |name: &str| secs(self_ns.get(name).copied().unwrap_or(0));
    let root_ns = t
        .spans
        .iter()
        .find(|s| s.parent.is_none())
        .map_or(0, |s| s.end_ns - s.start_ns);
    let step_ns = self_ns.get("soc.step").copied().unwrap_or(0) as f64;
    let warm_ns = self_ns.get("soc.warm").copied().unwrap_or(0) as f64;
    let s = &t.serial.serial;
    let h: &HarnessLayers = &t.harness.layers;
    let sigs: Vec<_> = t.serial.points.iter().flatten().collect();
    let committed: u64 = sigs.iter().map(|p| p.instructions).sum();
    let cycles: u64 = sigs.iter().map(|p| p.cycles).sum();
    let total_slots: u64 = sigs.iter().map(|p| p.cpi.total_slots()).sum();
    let all_committed: u64 = s
        .stats
        .iter()
        .flat_map(|st| &st.core)
        .map(|c| c.committed_instructions)
        .sum();
    let mem = |f: &dyn Fn(&mi6_soc::MachineStats) -> u64| -> f64 {
        s.stats.iter().map(f).sum::<u64>() as f64
    };
    let active_sum: f64 = h.point_active_s.iter().sum();
    let mut v = vec![
        ("soc.step_s", span_s("soc.step")),
        ("soc.ns_per_tick", ratio(step_ns, s.step_ticks as f64)),
        (
            "soc.ns_per_inst",
            ratio(step_ns, s.step_instructions as f64),
        ),
        ("soc.cycles", s.step_cycles as f64),
        ("soc.ticks", s.step_ticks as f64),
        (
            "soc.skip_share",
            1.0 - ratio(s.step_ticks as f64, s.step_cycles as f64),
        ),
        ("soc.warm_s", span_s("soc.warm")),
        (
            "soc.warm_ns_per_cycle",
            ratio(warm_ns, s.warm_cycles as f64),
        ),
        ("soc.quiesce_s", span_s("soc.quiesce")),
        ("soc.build_s", span_s("soc.build")),
        ("workloads.build_s", span_s("workloads.build")),
        ("snapshot.encode_s", span_s("snapshot.encode")),
        ("snapshot.restore_s", span_s("snapshot.restore")),
        ("snapshot.io_s", span_s("snapshot.io")),
        ("snapshot.pool_s", span_s("snapshot.pool")),
        ("snapshot.count", h.snapshot_files as f64),
        ("snapshot.bytes", h.snapshot_bytes as f64),
        ("snapshot.restores", h.restores as f64),
        ("snapshot.pool_hits", h.pool_hits as f64),
        ("snapshot.pool_misses", h.pool_misses as f64),
        (
            "grid.point_active_s_p50",
            percentile(h.point_active_s.clone(), 0.5),
        ),
        (
            "grid.point_active_s_max",
            percentile(h.point_active_s.clone(), 1.0),
        ),
        (
            "grid.parallel_efficiency",
            ratio(
                active_sum,
                t.harness.wall.as_secs_f64() * t.harness_threads as f64,
            ),
        ),
        ("grid.points", h.point_active_s.len() as f64),
        ("grid.journal_s", span_s("grid.journal")),
        ("grid.journal_lines", h.journal_lines as f64),
        ("grid.journal_bytes", h.journal_bytes as f64),
        ("bench.merge_s", span_s("bench.merge")),
        ("bench.render_s", span_s("bench.render")),
        ("core.committed", committed as f64),
        ("core.ipc", ratio(committed as f64, cycles as f64)),
        (
            "core.branch_mpki",
            mi6_bench::mean(sigs.iter().map(|p| p.branch_mpki)),
        ),
        (
            "core.flush_stall_cycles",
            sigs.iter().map(|p| p.flush_stall_cycles).sum::<u64>() as f64,
        ),
        (
            "core.traps",
            sigs.iter().map(|p| p.traps).sum::<u64>() as f64,
        ),
    ];
    for (cat, m) in CpiCategory::ALL.into_iter().zip(&PER_LAYER[34..50]) {
        let slots: u64 = sigs.iter().map(|p| p.cpi.get(cat)).sum();
        v.push((m.name, ratio(slots as f64, total_slots as f64)));
    }
    v.extend([
        (
            "mem.l1i_misses",
            mem(&|st| st.l1i.iter().map(|l| l.misses).sum()),
        ),
        (
            "mem.l1d_hits",
            mem(&|st| st.l1d.iter().map(|l| l.hits).sum()),
        ),
        (
            "mem.l1d_misses",
            mem(&|st| st.l1d.iter().map(|l| l.misses).sum()),
        ),
        (
            "mem.l1d_blocked",
            mem(&|st| st.l1d.iter().map(|l| l.blocked).sum()),
        ),
        ("mem.llc_hits", mem(&|st| st.llc.hits)),
        ("mem.llc_misses", mem(&|st| st.llc.misses)),
        (
            "mem.llc_mpki",
            ratio(mem(&|st| st.llc.misses) * 1000.0, all_committed as f64),
        ),
        ("mem.llc_arb_wait_cycles", mem(&|st| st.llc.arb_wait_cycles)),
        ("mem.llc_conflicts", mem(&|st| st.llc.conflicts)),
        ("mem.dram_reads", mem(&|st| st.dram.0)),
        ("mem.dram_writes", mem(&|st| st.dram.1)),
        ("trace.wall_s", secs(root_ns)),
        ("trace.unattributed_s", span_s("run")),
        (
            "trace.overhead_pct",
            (ratio(t.traced_wall_s, t.untraced_wall_s) - 1.0) * 100.0,
        ),
        ("failed_share", t.failed_share),
    ]);
    v
}

/// Checks that the layer self times plus the unattributed remainder
/// (the root span's own self time) add up exactly to the traced wall
/// time, as they do for any serial, properly nested trace.
pub fn check_layer_sum(spans: &[Span]) -> Result<(), String> {
    let by_name = self_time_by_name(spans);
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let [root] = roots[..] else {
        return Err(format!("trace has {} root spans, expected 1", roots.len()));
    };
    let total: u64 = by_name.values().sum();
    let wall = root.end_ns - root.start_ns;
    if total != wall {
        return Err(format!(
            "layer self times plus unattributed = {total} ns, traced wall = {wall} ns"
        ));
    }
    Ok(())
}

/// Build and host provenance carried by every result.
pub struct Provenance {
    pub git_rev: &'static str,
    pub git_dirty: &'static str,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub cpu: String,
    pub nproc: usize,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            git_rev: env!("PERFBENCH_GIT_REV"),
            git_dirty: env!("PERFBENCH_GIT_DIRTY"),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// A JSON number (non-finite values, which only a failed run produces,
/// print as 0 so the line stays valid JSON; so does -0).
pub fn num(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// A JSON string (the values written here hold no control characters).
pub fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run's record line: provenance, run identity and every metric, as
/// one flat JSON object the compare step reads back.
pub fn record_line(fields: &BTreeMap<&'static str, String>, metrics: &[(&str, f64)]) -> String {
    let mut out = String::from("{\"perfbench\":\"record\"");
    for (k, v) in fields {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    for (name, value) in metrics {
        let _ = write!(out, ",\"m.{name}\":{}", num(*value));
    }
    out.push('}');
    out
}

/// The last line of standard output, in the driver's format.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = metric(name).map_or("", |m| m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Names the benchmark contract accepts: a letter or digit, then at
    /// most 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn catalogue_line(m: &Metric) -> String {
        match m.bound {
            Some(b) => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                m.name,
                m.unit,
                m.better.name()
            ),
            None => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            ),
        }
    }

    #[test]
    fn catalogue_equals_benchmark_json() {
        let lines: Vec<&str> = BENCHMARK_JSON
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .collect();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                lines.contains(&catalogue_line(m).as_str()),
                "{} is not in BENCHMARK.json as catalogued",
                m.name
            );
        }
        let listed = BENCHMARK_JSON.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(!valid_name("_x") && !valid_name("a b") && valid_name("cpi.mem_l1"));
        for (cat, m) in CpiCategory::ALL.into_iter().zip(&PER_LAYER[34..50]) {
            assert_eq!(m.name, format!("cpi.{}", cat.name()));
        }
    }

    #[test]
    fn printed_metric_names_are_the_catalogue() {
        let e = EndToEnd {
            wall_s: 1.0,
            setup_s: 0.1,
            sim_mips: 1.0,
            peak_rss_mb: 1.0,
            paper_err_pp: 1.0,
            victim_slowdown_pct: 1.0,
        };
        let names: Vec<_> = end_to_end_values(&e).into_iter().map(|(n, _)| n).collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);

        let spans = [Span {
            name: "run",
            start_ns: 0,
            end_ns: 10,
            parent: None,
        }];
        let outcome = Outcome::default();
        let traced = Traced {
            spans: &spans,
            serial: &outcome,
            harness: &outcome,
            harness_threads: 1,
            traced_wall_s: 1.0,
            untraced_wall_s: 1.0,
            failed_share: 0.0,
        };
        let names: Vec<_> = per_layer_values(&traced)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let line = result_line(true, 1, 0, &end_to_end_values(&e));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}"));
    }

    #[test]
    fn layer_sum_check_accepts_serial_traces_and_rejects_overlap() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
        };
        let serial = [
            span("run", 0, 100, None),
            span("soc.step", 10, 60, Some(0)),
            span("grid.journal", 60, 70, Some(0)),
        ];
        assert!(check_layer_sum(&serial).is_ok());
        let overlapping = [
            span("run", 0, 100, None),
            span("soc.step", 10, 60, Some(0)),
            span("soc.step", 50, 70, Some(0)),
        ];
        assert!(check_layer_sum(&overlapping).is_err());
    }
}
