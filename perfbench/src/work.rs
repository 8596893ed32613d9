//! The three benchmark workloads.
//!
//! Each workload has two drivers over identical points:
//!
//! - [`run_harness`] runs it the way users do, through the harness's
//!   public entry points (threaded, multiplexed, pooled). End-to-end
//!   metrics come from these runs, with tracing off.
//! - [`run_serial`] drives the same points one at a time through the
//!   layers' public calls (`Workload::build`, `SimBuilder::build`,
//!   `Machine::step_slice` at `SLICE_CYCLES`, the snapshot codec, the
//!   shard journal, merge and render), opening a span around each call.
//!   Per-layer metrics come from this run; its per-point results must
//!   equal the harness run's.

use crate::spans::Tracer;
use mi6_bench::scenario::{self, ScenarioPoint};
use mi6_bench::sharding::{load_shard_dir, merge_shards, open_shard_journal, GridPlan};
use mi6_bench::{
    build_restore_target, figure_points, plan_grid, run_grid_scheduled, GridPoint, GridSchedule,
    HarnessOpts, PointResult, RunRecord, WarmFork, FIGURES, PAPER_FIG10, PAPER_FIG11, PAPER_FIG12,
    PAPER_FIG13, PAPER_FIG5, PAPER_FIG8, SLICE_CYCLES,
};
use mi6_core::CpiStack;
use mi6_grid::ShardSpec;
use mi6_isa::{Assembler, Inst, Reg};
use mi6_soc::{
    kernel, loader, Machine, MachineStats, PoolKey, Program, SimBuilder, SliceOutcome,
    SnapshotPool, Variant,
};
use mi6_workloads::{Workload, WorkloadParams};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instructions per point (thousands) of each workload, and the
/// warm-up of warm-fork-shards. The sizes keep one repeat of a workload
/// between about half a second and three host seconds, so a run holds
/// many repeats; warm-fork-shards keeps its 88 points short, with a
/// warm-up below the shortest point's runtime.
pub const FIG13_KINSTS: u64 = 200;
pub const ENCLAVE_KINSTS: u64 = 300;
pub const SHARDS_KINSTS: u64 = 20;
pub const SHARDS_WARMUP_CYCLES: u64 = 15_000;
/// In-flight machines per worker in harness runs (`--mux`).
pub const MUX: usize = 2;
/// Shards of warm-fork-shards, run in sequence.
const SHARDS: u32 = 2;
/// The harness's quiescence-search caps after a fork-base warm-up
/// (`mi6_bench::runner`), mirrored by the serial driver.
const QUIESCE_PROBE: u64 = 20_000;
const QUIESCE_CAP: u64 = 5_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig13Cold,
    EnclaveContention,
    WarmForkShards,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::Fig13Cold,
        Kind::EnclaveContention,
        Kind::WarmForkShards,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig13Cold => "fig13-cold",
            Kind::EnclaveContention => "enclave-contention",
            Kind::WarmForkShards => "warm-fork-shards",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload's inputs, made in set-up.
#[derive(Debug)]
pub struct Inputs {
    pub kind: Kind,
    /// Base run options; the workload seed reaches the harness only here.
    pub opts: HarnessOpts,
    pub threads: usize,
    /// The grid points (fig13-cold, warm-fork-shards) in plan order.
    pub points: Vec<GridPoint>,
    /// The figure plan (warm-fork-shards only).
    pub plan: Option<GridPlan>,
    /// FNV-1a fingerprint of every generated program: equal seeds must
    /// give equal inputs.
    pub fingerprint: u64,
    /// Scratch directory for snapshots and journals.
    pub scratch: PathBuf,
}

impl Inputs {
    /// Points one run of the workload attempts.
    pub fn point_count(&self) -> usize {
        match self.kind {
            Kind::EnclaveContention => SCENARIO.len(),
            Kind::Fig13Cold | Kind::WarmForkShards => self.points.len(),
        }
    }
}

fn program_params(kinsts: u64, seed: u64) -> WorkloadParams {
    WorkloadParams::evaluation()
        .with_target_kinsts(kinsts)
        .with_seed(seed)
}

/// Builds a workload's inputs from the workload seed: the point set and
/// the programs it runs (generated here once to fingerprint them).
pub fn make_inputs(kind: Kind, seed: u64, threads: usize, scratch: PathBuf) -> Inputs {
    let base = HarnessOpts::default().with_seed(seed);
    let (opts, points, plan, programs) = match kind {
        Kind::Fig13Cold => {
            let opts = base.with_kinsts(FIG13_KINSTS);
            let points = figure_points(13, opts);
            let programs = point_programs(&points);
            (opts, points, None, programs)
        }
        Kind::EnclaveContention => {
            let opts = base.with_kinsts(ENCLAVE_KINSTS).with_timer(0);
            let programs = scenario_programs(&opts)
                .into_iter()
                .flat_map(|(victim, attacker)| [victim, attacker])
                .collect();
            (opts, Vec::new(), None, programs)
        }
        Kind::WarmForkShards => {
            let opts = base.with_kinsts(SHARDS_KINSTS);
            let figures: Vec<u32> = FIGURES.collect();
            let plan = plan_grid(&figures, opts, 1, &Workload::ALL);
            let points = plan.points.clone();
            let programs = point_programs(&points);
            (opts, points, Some(plan), programs)
        }
    };
    let mut bytes = Vec::new();
    for p in &programs {
        bytes.extend(p.name.as_bytes());
        bytes.extend(p.code.iter().flat_map(|w| w.to_le_bytes()));
        for (off, v) in &p.data_init {
            bytes.extend(off.to_le_bytes());
            bytes.extend(v.to_le_bytes());
        }
        bytes.extend(p.data_size.to_le_bytes());
        bytes.extend(p.stack_size.to_le_bytes());
    }
    Inputs {
        kind,
        opts,
        threads,
        points,
        plan,
        fingerprint: mi6_snapshot::fnv1a64(&bytes),
        scratch,
    }
}

/// One program per distinct (workload, size, seed) among `points`.
fn point_programs(points: &[GridPoint]) -> Vec<Program> {
    let mut seen = BTreeMap::new();
    for p in points {
        seen.entry((p.workload.name(), p.opts.kinsts, p.opts.seed))
            .or_insert_with(|| {
                p.workload
                    .build(&program_params(p.opts.kinsts, p.opts.seed))
            });
    }
    seen.into_values().collect()
}

/// The enclave scenario's four points, in `run_enclave_attacker` order.
const SCENARIO: [(Variant, bool); 4] = [
    (Variant::Base, false),
    (Variant::Base, true),
    (Variant::SecureMi6, false),
    (Variant::SecureMi6, true),
];

/// The scenario's (victim, core-1) program pairs, in [`SCENARIO`] order.
/// Mirrors `mi6_bench::scenario`: the attacker runs three times the
/// victim's instructions, and a solo run parks core 1 with a program
/// that exits at once.
fn scenario_programs(opts: &HarnessOpts) -> Vec<(Program, Program)> {
    SCENARIO
        .iter()
        .map(|&(_, contended)| {
            let victim = scenario::victim_program(&program_params(opts.kinsts, opts.seed));
            let other = if contended {
                scenario::ATTACKER.build(&program_params(opts.kinsts.saturating_mul(3), opts.seed))
            } else {
                park_program()
            };
            (victim, other)
        })
        .collect()
}

fn park_program() -> Program {
    let mut asm = Assembler::new(loader::CODE_VA);
    asm.li(Reg::A0, 0);
    asm.li(Reg::A7, kernel::sys::EXIT);
    asm.push(Inst::Ecall);
    Program {
        name: "park".into(),
        code: asm.assemble().expect("park program assembles"),
        data_size: 4096,
        data_init: vec![],
        stack_size: 4096,
    }
}

/// The simulated outcome of one point: everything that must repeat
/// exactly across runs, thread counts and drivers.
#[derive(Clone, Debug, PartialEq)]
pub struct PointSig {
    pub key: String,
    pub cycles: u64,
    pub instructions: u64,
    pub cycles_ticked: u64,
    pub cycles_skipped: u64,
    pub cpi: CpiStack,
    pub commit_width: u64,
    pub branch_mpki: f64,
    pub llc_mpki: f64,
    pub flush_stall_cycles: u64,
    pub traps: u64,
}

impl PointSig {
    fn from_record(key: String, r: &RunRecord) -> PointSig {
        PointSig {
            key,
            cycles: r.cycles,
            instructions: r.instructions,
            cycles_ticked: r.cycles_ticked,
            cycles_skipped: r.cycles_skipped,
            cpi: r.cpi.clone(),
            commit_width: r.commit_width,
            branch_mpki: r.branch_mpki,
            llc_mpki: r.llc_mpki,
            flush_stall_cycles: r.flush_stall_cycles,
            traps: r.traps,
        }
    }

    fn from_scenario(p: &ScenarioPoint) -> PointSig {
        PointSig {
            key: scenario_key(p.variant, p.contended),
            cycles: p.victim_cycles,
            instructions: p.victim_instructions,
            cycles_ticked: p.cycles_ticked,
            cycles_skipped: p.cycles_skipped,
            cpi: p.victim_cpi.clone(),
            commit_width: p.victim_commit_width,
            branch_mpki: 0.0,
            llc_mpki: 0.0,
            flush_stall_cycles: 0,
            traps: 0,
        }
    }

    /// The output checks every point of a `kind` run must pass: the CPI
    /// stack accounts every commit slot of its cycles, and every cycle
    /// of the run was either ticked or idle-skipped. A cold point's run
    /// is all its cycles; a fork-base point's follows a restored prefix
    /// at least as long as the warm-up; a scenario point's cycles are the
    /// victim core's own, within the two-core machine's run.
    pub fn check(&self, kind: Kind) -> Result<(), String> {
        let slots = self.cpi.total_slots();
        if self.commit_width == 0 || self.cpi.cycles == 0 {
            return Err(format!("{}: empty CPI stack", self.key));
        }
        if slots != self.cpi.cycles * self.commit_width {
            return Err(format!(
                "{}: CPI slots {slots} != {} cycles x width {}",
                self.key, self.cpi.cycles, self.commit_width
            ));
        }
        let covered = self.cycles_ticked + self.cycles_skipped;
        let coverage_ok = match kind {
            Kind::Fig13Cold => covered == self.cycles,
            Kind::EnclaveContention => covered >= self.cycles,
            Kind::WarmForkShards => covered + SHARDS_WARMUP_CYCLES <= self.cycles,
        };
        if !coverage_ok {
            return Err(format!(
                "{}: ticked {} + skipped {} cycles do not cover the run of {} cycles",
                self.key, self.cycles_ticked, self.cycles_skipped, self.cycles
            ));
        }
        if self.instructions == 0 {
            return Err(format!("{}: no instructions committed", self.key));
        }
        Ok(())
    }
}

fn scenario_key(variant: Variant, contended: bool) -> String {
    let mode = if contended { "contended" } else { "solo" };
    format!("{}/{mode}", variant.name())
}

/// What one workload run produced, from either driver.
#[derive(Debug, Default)]
pub struct Outcome {
    pub wall: Duration,
    /// Per-point outcomes in point order; `None` = the point did not
    /// complete.
    pub points: Vec<Option<PointSig>>,
    /// Output-check failures (each names its point).
    pub problems: Vec<String>,
    /// Points that failed a check or did not complete.
    pub failed: usize,
    /// Committed instructions summed over completed points.
    pub instructions: u64,
    pub paper_err_pp: f64,
    pub victim_slowdown_pct: f64,
    /// Harness-run counters (see [`HarnessLayers`]).
    pub layers: HarnessLayers,
    /// Serial-run counters (see [`SerialLayers`]).
    pub serial: SerialLayers,
}

/// Layer counters only the harness run sees.
#[derive(Debug, Default)]
pub struct HarnessLayers {
    /// Active host seconds of every completed grid point.
    pub point_active_s: Vec<f64>,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub snapshot_files: u64,
    pub snapshot_bytes: u64,
    pub restores: u64,
    pub journal_lines: u64,
    pub journal_bytes: u64,
}

/// Simulated work the serial driver counts at its call sites.
#[derive(Debug, Default)]
pub struct SerialLayers {
    /// Cycles advanced, ticks and committed instructions inside
    /// `step_slice`, over every point and core.
    pub step_cycles: u64,
    pub step_ticks: u64,
    pub step_instructions: u64,
    /// Cycles advanced by warm-up `run_cycles`.
    pub warm_cycles: u64,
    /// Final machine statistics of every point.
    pub stats: Vec<MachineStats>,
}

impl Outcome {
    fn finish(&mut self, kind: Kind) {
        for sig in self.points.iter().flatten() {
            if let Err(e) = sig.check(kind) {
                self.problems.push(e);
                self.failed += 1;
            }
        }
        self.failed += self.points.iter().filter(|p| p.is_none()).count();
        self.instructions = self.points.iter().flatten().map(|p| p.instructions).sum();
    }
}

fn harness_schedule<'w>(inputs: &Inputs, deadline: Instant) -> GridSchedule<'w> {
    let mut schedule = GridSchedule::new(inputs.threads);
    schedule.mux = MUX;
    schedule.deadline = Some(deadline);
    schedule
}

/// Runs a workload once through the harness's public entry points.
/// `dir` is a fresh directory for this run's snapshots and journals.
pub fn run_harness(inputs: &Inputs, dir: &Path, deadline: Instant) -> Outcome {
    let mut out = Outcome::default();
    match inputs.kind {
        Kind::Fig13Cold => {
            let schedule = harness_schedule(inputs, deadline);
            let t0 = Instant::now();
            let grid = run_grid_scheduled(&inputs.points, &schedule, |_| {});
            out.wall = t0.elapsed();
            let results: Vec<Option<PointResult>> = grid.results;
            grid_fidelity(&mut out, &[13], inputs.opts, &inputs.points, &results);
            harness_points(&mut out, &inputs.points, &results);
            out.finish(inputs.kind);
        }
        Kind::EnclaveContention => {
            let t0 = Instant::now();
            let points = scenario::run_enclave_attacker(&inputs.opts, inputs.threads, None);
            out.wall = t0.elapsed();
            out.points = points
                .iter()
                .map(|p| Some(PointSig::from_scenario(p)))
                .collect();
            scenario_fidelity(&mut out);
            out.finish(inputs.kind);
        }
        Kind::WarmForkShards => {
            run_harness_shards(inputs, dir, deadline, &mut out);
            out.finish(inputs.kind);
        }
    }
    out
}

fn harness_points(out: &mut Outcome, points: &[GridPoint], results: &[Option<PointResult>]) {
    out.points = points
        .iter()
        .zip(results)
        .map(|(p, r)| {
            r.as_ref()
                .map(|r| PointSig::from_record(p.key(), &r.record))
        })
        .collect();
    out.layers.point_active_s = results
        .iter()
        .flatten()
        .map(|r| r.wall_ms as f64 / 1e3)
        .collect();
    out.layers.restores = results
        .iter()
        .flatten()
        .filter(|r| r.warm != "cold")
        .count() as u64;
}

fn warm_fork(dir: &Path) -> WarmFork {
    WarmFork {
        warmup_cycles: SHARDS_WARMUP_CYCLES,
        dir: Some(dir.join("checkpoints")),
        fork_base: true,
    }
}

fn shard_spec(index: u32) -> ShardSpec {
    ShardSpec {
        index,
        total: SHARDS,
    }
}

/// Two shards in sequence over one checkpoint directory, each with its
/// own snapshot pool (as two hosts would have), then merge and render.
fn run_harness_shards(inputs: &Inputs, dir: &Path, deadline: Instant, out: &mut Outcome) {
    let plan = inputs.plan.as_ref().expect("warm-fork-shards has a plan");
    let warm = warm_fork(dir);
    let journals = dir.join("shards");
    let mut computed: BTreeMap<String, PointResult> = BTreeMap::new();
    let t0 = Instant::now();
    for index in 0..SHARDS {
        let spec = shard_spec(index);
        let points = plan.shard_points(spec);
        let mut journal = match open_shard_journal(&journals, spec) {
            Ok(j) => j.journal,
            Err(e) => {
                out.problems
                    .push(format!("opening shard {spec} journal: {e}"));
                continue;
            }
        };
        let pool = Arc::new(SnapshotPool::new());
        let mut schedule = harness_schedule(inputs, deadline);
        schedule.warm = Some(&warm);
        schedule.pool = Some(Arc::clone(&pool));
        let mut append_errors = Vec::new();
        let grid = run_grid_scheduled(&points, &schedule, |r| {
            if let Err(e) = journal.append(&r.to_json()) {
                append_errors.push(format!("journaling {}: {e}", r.point.key()));
            }
        });
        out.problems.extend(append_errors);
        let (hits, misses) = pool.stats();
        out.layers.pool_hits += hits;
        out.layers.pool_misses += misses;
        for r in grid.results.into_iter().flatten() {
            computed.insert(r.point.key(), r);
        }
    }
    let merged = load_shard_dir(&journals)
        .map_err(|e| e.to_string())
        .and_then(|loaded| merge_shards(plan, &loaded).map_err(|e| e.to_string()))
        .map(|(results, _)| plan.render(&results));
    out.wall = t0.elapsed();

    let results: Vec<Option<PointResult>> = plan
        .points
        .iter()
        .map(|p| computed.get(&p.key()).cloned())
        .collect();
    match (merged, results.iter().all(Option::is_some)) {
        (Ok(tables), true) => {
            let direct: Vec<PointResult> = results.iter().flatten().cloned().collect();
            if tables != plan.render(&direct) {
                out.problems
                    .push("merged shard tables differ from the in-process render".into());
            }
        }
        (Err(e), _) => out.problems.push(format!("merging shards: {e}")),
        (Ok(_), false) => {}
    }
    grid_fidelity(
        out,
        &[5, 8, 10, 11, 12, 13],
        inputs.opts,
        &plan.points,
        &results,
    );
    harness_points(out, &plan.points, &results);
    let (files, bytes) = dir_usage(&warm.dir.clone().expect("warm-fork has a directory"));
    out.layers.snapshot_files = files;
    out.layers.snapshot_bytes = bytes;
    let (_, journal_bytes) = dir_usage(&journals);
    out.layers.journal_bytes = journal_bytes;
    out.layers.journal_lines = std::fs::read_dir(&journals)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .map(|s| s.lines().count() as u64)
        .sum();
}

/// (files, bytes) directly under `dir`.
fn dir_usage(dir: &Path) -> (u64, u64) {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

fn paper_table(figure: u32) -> (&'static [(&'static str, f64)], Variant) {
    match figure {
        5 => (PAPER_FIG5, Variant::Flush),
        8 => (PAPER_FIG8, Variant::Part),
        10 => (PAPER_FIG10, Variant::Miss),
        11 => (PAPER_FIG11, Variant::Arb),
        12 => (PAPER_FIG12, Variant::NonSpec),
        13 => (PAPER_FIG13, Variant::Fpma),
        other => panic!("figure {other} has no paper overhead table"),
    }
}

/// `paper_err_pp` over the figures' overhead tables, and
/// `victim_slowdown_pct` as figure 13's mean F+P+M+A overhead over BASE.
/// A pair with a missing point is left out (the point already counts as
/// failed).
fn grid_fidelity(
    out: &mut Outcome,
    figures: &[u32],
    opts: HarnessOpts,
    points: &[GridPoint],
    results: &[Option<PointResult>],
) {
    let cycles: BTreeMap<String, u64> = points
        .iter()
        .zip(results)
        .filter_map(|(p, r)| Some((p.key(), r.as_ref()?.record.cycles)))
        .collect();
    let overhead = |figure: u32, variant: Variant, workload: Workload| -> Option<f64> {
        let opts = figure_points(figure, opts)[0].opts;
        let key = |v| {
            GridPoint {
                variant: v,
                workload,
                opts,
            }
            .key()
        };
        let base = *cycles.get(&key(Variant::Base))? as f64;
        let var = *cycles.get(&key(variant))? as f64;
        Some((var / base - 1.0) * 100.0)
    };
    let mut gaps = Vec::new();
    for &figure in figures {
        let (table, variant) = paper_table(figure);
        for &(name, paper) in table.iter().filter(|(n, _)| *n != "average") {
            let workload = Workload::from_name(name).expect("paper tables name workloads");
            if let Some(measured) = overhead(figure, variant, workload) {
                gaps.push((measured - paper).abs());
            }
        }
    }
    out.paper_err_pp = mi6_bench::mean(gaps);
    out.victim_slowdown_pct = mi6_bench::mean(
        Workload::ALL
            .iter()
            .filter_map(|&w| overhead(13, Variant::Fpma, w)),
    );
}

/// For the enclave scenario both fidelity metrics are the MI6 victim's
/// slowdown from its solo to its contended run: the paper's isolation
/// claim is that the attacker cannot slow an MI6 enclave at all.
fn scenario_fidelity(out: &mut Outcome) {
    let cycles = |key: String| {
        out.points
            .iter()
            .flatten()
            .find(|p| p.key == key)
            .map(|p| p.cycles as f64)
    };
    let solo = cycles(scenario_key(Variant::SecureMi6, false));
    let contended = cycles(scenario_key(Variant::SecureMi6, true));
    if let (Some(solo), Some(contended)) = (solo, contended) {
        out.victim_slowdown_pct = (contended / solo - 1.0) * 100.0;
        out.paper_err_pp = out.victim_slowdown_pct.abs();
    }
}

/// Drives a machine to completion in `SLICE_CYCLES` slices, the way the
/// grid driver does (a blocked slice resumes with a budget that covers
/// the whole idle-skip jump), inside `soc.step` spans.
fn step_to_end(
    t: &mut Tracer,
    machine: &mut Machine,
    cap: u64,
    serial: &mut SerialLayers,
) -> Result<MachineStats, String> {
    let start_cycle = machine.now();
    let start_ticks = machine.ticks();
    let start_insts: u64 = committed(&machine.stats());
    machine.begin_run(cap);
    let mut budget = SLICE_CYCLES;
    let stats = loop {
        match t.time("soc.step", || machine.step_slice(budget)) {
            SliceOutcome::Completed(stats) => break stats,
            SliceOutcome::BudgetExhausted { .. } => budget = SLICE_CYCLES,
            SliceOutcome::Blocked { until_cycle } => {
                budget = SLICE_CYCLES.max(until_cycle.saturating_sub(machine.now()));
            }
            SliceOutcome::TimedOut { at_cycle } => {
                return Err(format!("timed out at cycle {at_cycle}"))
            }
            SliceOutcome::Cancelled { at_cycle } => {
                return Err(format!("cancelled at cycle {at_cycle}"))
            }
        }
    };
    let (cycles, ticks) = (machine.now() - start_cycle, machine.ticks() - start_ticks);
    if ticks > cycles {
        return Err(format!("ticked {ticks} cycles in a run of {cycles}"));
    }
    serial.step_cycles += cycles;
    serial.step_ticks += ticks;
    serial.step_instructions += committed(&stats) - start_insts;
    Ok(stats)
}

fn committed(stats: &MachineStats) -> u64 {
    stats.core.iter().map(|c| c.committed_instructions).sum()
}

/// `RunRecord` of a finished single-workload machine, as the harness
/// reports it.
fn record(workload: Workload, machine: &Machine, stats: &MachineStats, start: u64) -> RunRecord {
    RunRecord {
        name: workload.name(),
        cycles: stats.cycles,
        instructions: stats.core[0].committed_instructions,
        branch_mpki: stats.branch_mpki(),
        llc_mpki: stats.llc_mpki(),
        flush_stall_cycles: stats.core[0].flush_stall_cycles,
        traps: stats.core[0].traps,
        cpi: machine.core(0).cpi.clone(),
        commit_width: machine.core(0).config().commit_width as u64,
        cycles_ticked: machine.ticks(),
        cycles_skipped: (machine.now() - start).saturating_sub(machine.ticks()),
    }
}

/// Builds a cold machine for one point: the program, then the machine.
fn build_cold(t: &mut Tracer, variant: Variant, p: &GridPoint) -> Result<Machine, String> {
    let params = program_params(p.opts.kinsts, p.opts.seed);
    let program = t.time("workloads.build", || p.workload.build(&params));
    t.time("soc.build", || {
        SimBuilder::new(variant)
            .timer_interval(p.opts.timer)
            .workload(0, program)
            .build()
    })
    .map_err(|e| format!("{}: building: {e}", p.key()))
}

/// Runs a workload serially through the layers' public calls, with a
/// span around each call when `t` is enabled. `dir` is a fresh
/// directory for this run's snapshots and journals.
pub fn run_serial(inputs: &Inputs, dir: &Path, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let root = t.enter("run");
    let t0 = Instant::now();
    match inputs.kind {
        Kind::Fig13Cold => {
            let mut results = Vec::new();
            for p in &inputs.points {
                let r = build_cold(t, p.variant, p).and_then(|mut m| {
                    let stats = step_to_end(t, &mut m, p.opts.cycle_cap(), &mut out.serial)?;
                    let rec = record(p.workload, &m, &stats, 0);
                    out.serial.stats.push(stats);
                    Ok(grid_result(p, rec, "cold"))
                });
                results.push(r.map_err(|e| out.problems.push(e)).ok());
            }
            out.wall = t0.elapsed();
            grid_fidelity(&mut out, &[13], inputs.opts, &inputs.points, &results);
            harness_points(&mut out, &inputs.points, &results);
        }
        Kind::EnclaveContention => {
            let programs = t.time("workloads.build", || scenario_programs(&inputs.opts));
            for (&(variant, contended), (victim, other)) in SCENARIO.iter().zip(programs) {
                let r = serial_scenario_point(
                    t,
                    inputs,
                    variant,
                    contended,
                    victim,
                    other,
                    &mut out.serial,
                );
                let r = r.map_err(|e| format!("{}: {e}", scenario_key(variant, contended)));
                out.points.push(r.map_err(|e| out.problems.push(e)).ok());
            }
            out.wall = t0.elapsed();
            scenario_fidelity(&mut out);
        }
        Kind::WarmForkShards => {
            serial_shards(inputs, dir, t, &mut out);
            out.wall = t0.elapsed();
        }
    }
    t.exit(root);
    out.finish(inputs.kind);
    out
}

fn grid_result(p: &GridPoint, record: RunRecord, warm: &str) -> PointResult {
    PointResult {
        point: *p,
        record,
        wall_ms: 0,
        worker: 0,
        warm: warm.to_string(),
        metrics: None,
    }
}

fn serial_scenario_point(
    t: &mut Tracer,
    inputs: &Inputs,
    variant: Variant,
    contended: bool,
    victim: Program,
    other: Program,
    serial: &mut SerialLayers,
) -> Result<PointSig, String> {
    let mut m = t
        .time("soc.build", || {
            SimBuilder::new(variant)
                .cores(2)
                .timer_interval(inputs.opts.timer)
                .workload(0, victim)
                .workload(1, other)
                .build()
        })
        .map_err(|e| format!("building: {e}"))?;
    // The scenario's run cap (`mi6_bench::scenario`).
    let cap = inputs
        .opts
        .kinsts
        .saturating_mul(6_000_000)
        .max(400_000_000);
    let stats = step_to_end(t, &mut m, cap, serial)?;
    let sig = PointSig {
        key: scenario_key(variant, contended),
        cycles: stats.core[0].cycles,
        instructions: stats.core[0].committed_instructions,
        cycles_ticked: m.ticks(),
        cycles_skipped: m.now().saturating_sub(m.ticks()),
        cpi: m.core(0).cpi.clone(),
        commit_width: m.core(0).config().commit_width as u64,
        branch_mpki: 0.0,
        llc_mpki: 0.0,
        flush_stall_cycles: 0,
        traps: 0,
    };
    serial.stats.push(stats);
    Ok(sig)
}

/// warm-fork-shards, serially: per shard, the missing fork-base warm-ups
/// (BASE warm-up, quiescence, encode, write, pool), then every point
/// (restore target, pool or disk read, forked restore, run, journal);
/// then merge and render.
fn serial_shards(inputs: &Inputs, dir: &Path, t: &mut Tracer, out: &mut Outcome) {
    let plan = inputs.plan.as_ref().expect("warm-fork-shards has a plan");
    let warm = warm_fork(dir);
    let ckpt = warm.dir.clone().expect("warm-fork has a directory");
    let journals = dir.join("shards");
    if let Err(e) = std::fs::create_dir_all(&ckpt) {
        out.problems
            .push(format!("creating {}: {e}", ckpt.display()));
        return;
    }
    let warm_tag = format!("forkbase:{SHARDS_WARMUP_CYCLES}");
    let mut computed: BTreeMap<String, PointResult> = BTreeMap::new();
    for index in 0..SHARDS {
        let spec = shard_spec(index);
        let points = plan.shard_points(spec);
        let mut journal = match t.time("grid.journal", || open_shard_journal(&journals, spec)) {
            Ok(j) => j.journal,
            Err(e) => {
                out.problems
                    .push(format!("opening shard {spec} journal: {e}"));
                continue;
            }
        };
        let pool = SnapshotPool::new();
        let mut pending: BTreeMap<String, GridPoint> = BTreeMap::new();
        for p in &points {
            let path = warm.snapshot_path(p).expect("checkpoint dir set");
            if !path.exists() {
                pending.entry(warm.warm_tag(p)).or_insert(*p);
            }
        }
        for (tag, p) in pending {
            if let Err(e) = serial_warmup(t, &warm, &tag, &p, &pool, &mut out.serial) {
                out.problems.push(format!("{}: warm-up: {e}", p.key()));
            }
        }
        for p in &points {
            let r = serial_restored_point(t, &warm, p, &pool, &mut out.serial);
            match r {
                Ok(rec) => {
                    let res = grid_result(p, rec, &warm_tag);
                    if let Err(e) = t.time("grid.journal", || journal.append(&res.to_json())) {
                        out.problems.push(format!("journaling {}: {e}", p.key()));
                    }
                    computed.insert(p.key(), res);
                }
                Err(e) => out.problems.push(format!("{}: {e}", p.key())),
            }
        }
    }
    let merged = t
        .time("bench.merge", || {
            load_shard_dir(&journals)
                .map_err(|e| e.to_string())
                .and_then(|loaded| merge_shards(plan, &loaded).map_err(|e| e.to_string()))
        })
        .map(|(results, _)| t.time("bench.render", || plan.render(&results)));
    if let Err(e) = merged {
        out.problems.push(format!("merging shards: {e}"));
    }
    let results: Vec<Option<PointResult>> = plan
        .points
        .iter()
        .map(|p| computed.get(&p.key()).cloned())
        .collect();
    grid_fidelity(
        out,
        &[5, 8, 10, 11, 12, 13],
        inputs.opts,
        &plan.points,
        &results,
    );
    harness_points(out, &plan.points, &results);
}

/// One fork-base warm-up, as `mi6_bench::runner` simulates it.
fn serial_warmup(
    t: &mut Tracer,
    warm: &WarmFork,
    tag: &str,
    p: &GridPoint,
    pool: &SnapshotPool,
    serial: &mut SerialLayers,
) -> Result<(), String> {
    let mut m = build_cold(t, Variant::Base, p)?;
    let before = m.now();
    t.time("soc.warm", || m.run_cycles(warm.warmup_cycles));
    serial.warm_cycles += m.now() - before;
    if m.all_halted() {
        return Err(format!(
            "warm-up of {} cycles outlasts the run",
            warm.warmup_cycles
        ));
    }
    t.time("soc.quiesce", || {
        if m.run_until_mem_quiescent(QUIESCE_PROBE).is_err() {
            m.drain_to_quiescence(QUIESCE_CAP).map(|_| ())
        } else {
            Ok(())
        }
    })
    .map_err(|e| format!("draining: {e}"))?;
    if m.all_halted() {
        return Err("no work left after the warm-up".into());
    }
    let bytes = t.time("snapshot.encode", || m.snapshot());
    let path = warm.snapshot_path(p).expect("checkpoint dir set");
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    t.time("snapshot.io", || {
        std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path))
    })
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let key = PoolKey {
        config: m.structural_fingerprint(),
        tag: tag.to_string(),
    };
    t.time("snapshot.pool", || pool.insert(key, bytes));
    Ok(())
}

/// One measured point restored from its fork-base warm state.
fn serial_restored_point(
    t: &mut Tracer,
    warm: &WarmFork,
    p: &GridPoint,
    pool: &SnapshotPool,
    serial: &mut SerialLayers,
) -> Result<RunRecord, String> {
    let mut m = t.time("soc.build", || {
        build_restore_target(p.variant, &p.opts, None, None)
    });
    let key = PoolKey {
        config: m.structural_fingerprint(),
        tag: warm.warm_tag(p),
    };
    let blob = match t.time("snapshot.pool", || pool.get(&key)) {
        Some(blob) => blob,
        None => {
            let path = warm.snapshot_path(p).expect("checkpoint dir set");
            let bytes = t
                .time("snapshot.io", || std::fs::read(&path))
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            t.time("snapshot.pool", || pool.insert(key, bytes))
        }
    };
    t.time("snapshot.restore", || m.restore_forked(&blob))
        .map_err(|e| format!("restoring: {e}"))?;
    let start = m.now();
    let stats = step_to_end(t, &mut m, p.opts.cycle_cap(), serial)?;
    let rec = record(p.workload, &m, &stats, start);
    serial.stats.push(stats);
    Ok(rec)
}
