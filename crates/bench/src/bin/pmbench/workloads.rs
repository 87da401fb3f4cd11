//! The four benchmark workloads, each one repetition of what a user
//! runs: the `reproduce --quick` grid, a 16-core sharing sweep, the
//! crash campaign's cells and a KV server under open-loop load.
//!
//! Every call into the simulator goes through the [`Tracer`], and every
//! run's outputs are checked: committed transaction counts, recovery at
//! quiescence and at every crash point, request conservation, and (for
//! the grid at the baseline's seed) the calibration baseline.

use std::collections::BTreeMap;
use std::hint::black_box;

use pmacc::recovery::{check_recovery, recover};
use pmacc::{RunConfig, RunReport, ServeConfig, System};
use pmacc_bench::crashgrid::{CampaignConfig, CellSpec};
use pmacc_bench::grid::{GridResults, Scale};
use pmacc_bench::serve::{gen_arrivals, ServeCampaignConfig};
use pmacc_bench::{figures, report};
use pmacc_cpu::StallKind;
use pmacc_telemetry::{Json, Log2Histogram, MetricsRegistry, ToJson};
use pmacc_types::rng::stream_seed;
use pmacc_types::{Cycle, MachineConfig, SchemeKind};
use pmacc_workloads::{build_shared, WorkloadKind, WorkloadParams};

use crate::span::{Kind, Tracer};

/// The calibration baseline `regress --quick` gates on.
const BASELINE: &str = include_str!("../../../../../baselines/metrics-quick.json");

/// Offered load of the serve workload, as fractions of Optimal's
/// closed-loop capacity.
const LOAD_FRACTIONS: [f64; 4] = [0.5, 0.7, 0.9, 1.1];
/// The rate whose TC latency tail is reported.
const TAIL_FRACTION: f64 = 0.7;
/// A rate counts toward TC's ceiling only with p99 sojourn at or below
/// this many cycles.
const P99_LIMIT: u64 = 10_000;
/// Requests per core in the serve workload.
const SERVE_REQUESTS: usize = 20_000;
/// Stream tag of the arrival schedules (the `serve` campaign's tag).
const ARRIVAL_STREAM: u64 = 0x7365_7276;
/// Evenly spaced crash points per crash-workload cell.
const STRATIFIED_POINTS: u64 = 1024;
/// Failure messages kept per repetition (the count is always exact).
const MAX_MESSAGES: usize = 20;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The quick-scale scheme × workload grid, ending in the report.
    Grid,
    /// sps at 50 % shared lines on 16 cores: coherence-bound.
    Sharing,
    /// Crash, recover and check at about 74k points of 66 cells.
    Crash,
    /// A 2-core hashtable KV server under Poisson arrivals.
    Serve,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Grid,
        Workload::Sharing,
        Workload::Crash,
        Workload::Serve,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Sharing => "sharing",
            Workload::Crash => "crash",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (grid, sharing, crash, serve)"))
    }
}

/// Input size: the benchmark's, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny parameters and two schemes: milliseconds per workload.
    Tiny,
}

/// Correctness checks of one repetition.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// What failed (the first few).
    pub messages: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(what());
            }
        }
    }
}

/// Simulated counters summed over the reports of every `System::run`.
#[derive(Debug, Default)]
struct Sim {
    events: u64,
    wakes_scheduled: u64,
    wakes_coalesced: u64,
    idle_cycles: u64,
    cycles: u64,
    instr: u64,
    core_cycles: u64,
    stalls: [u64; 7],
    l1: [u64; 2],
    l2: [u64; 2],
    llc: [u64; 2],
    snoop_invals: u64,
    interventions: u64,
    shared_fills: u64,
    back_invals: u64,
    tc_inserts: u64,
    tc_probe_hits: u64,
    tc_probes: u64,
    tc_full_rejections: u64,
    tc_overflows: u64,
    tc_high_water: u64,
    nvm_reads: u64,
    nvm_writes: u64,
    nvm_rows: [u64; 2],
    nvm_read_lat: [u64; 2],
    nvm_write_lat: [u64; 2],
    nvm_rejected: u64,
}

impl Sim {
    fn add(&mut self, r: &RunReport) {
        self.events += r.engine.events_processed;
        self.wakes_scheduled += r.engine.wakes_scheduled;
        self.wakes_coalesced += r.engine.wakes_coalesced;
        self.idle_cycles += r.engine.idle_cycles_skipped;
        self.cycles += r.cycles;
        self.instr += instr(r);
        for c in &r.cores {
            self.core_cycles += c.cycles;
            for (s, kind) in self.stalls.iter_mut().zip(StallKind::all()) {
                *s += c.stall(kind);
            }
        }
        let h = &r.hierarchy;
        for (acc, levels) in [(&mut self.l1, &h.l1), (&mut self.l2, &h.l2)] {
            for l in levels {
                acc[0] += l.accesses.hits();
                acc[1] += l.accesses.total();
            }
        }
        self.llc[0] += h.llc.accesses.hits();
        self.llc[1] += h.llc.accesses.total();
        self.snoop_invals += h.coherence.remote_invalidations.value();
        self.interventions += h.coherence.interventions.value();
        self.shared_fills += h.coherence.shared_fills.value();
        self.back_invals += h.coherence.back_invalidations.value();
        for tc in &r.tc {
            self.tc_inserts += tc.inserts.value();
            self.tc_probe_hits += tc.probe_hits.value();
            self.tc_probes += tc.probe_hits.value() + tc.probe_misses.value();
            self.tc_full_rejections += tc.full_rejections.value();
            self.tc_overflows += tc.overflows.value();
            self.tc_high_water = self.tc_high_water.max(tc.high_water.value());
        }
        self.nvm_reads += r.nvm.reads.value();
        self.nvm_writes += r.nvm.writes();
        self.nvm_rows[0] += r.nvm.row_hits.hits();
        self.nvm_rows[1] += r.nvm.row_hits.total();
        self.nvm_read_lat[0] += r.nvm.read_latency.sum();
        self.nvm_read_lat[1] += r.nvm.read_latency.count();
        self.nvm_write_lat[0] += r.nvm.write_latency.sum();
        self.nvm_write_lat[1] += r.nvm.write_latency.count();
        self.nvm_rejected += r.nvm.rejected.value();
    }
}

/// Serve-mode totals over every served run.
#[derive(Debug, Default)]
struct Served {
    completed: u64,
    shed: u64,
    backpressure_events: u64,
    wait: Log2Histogram,
    tc_stall: u64,
    nvm_stall: u64,
    /// TC's sojourn times at [`TAIL_FRACTION`].
    tc_latency: Log2Histogram,
    /// The highest offered rate TC sustained (requests/kcycle/core).
    tc_ceiling: f64,
}

/// What one repetition of a workload did and produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks.
    pub checks: Checks,
    /// Trace ops retired inside `System::run`/`run_until`.
    pub ops: u64,
    /// Mean over matched pairs of TC IPC divided by Optimal IPC.
    pub tc_ipc_norm: f64,
    sim: Sim,
    builds: u64,
    trace_ops: u64,
    systems: u64,
    points: u64,
    violations: u64,
    control_detections: u64,
    served: Served,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Outcome {
    /// Every simulated (deterministic) metric, by name: the per-layer
    /// counts and rates plus `tc_ipc_norm`.
    pub fn exact(&self) -> Vec<(&'static str, f64)> {
        let s = &self.sim;
        let miss = |[hits, total]: [u64; 2]| ratio(total - hits, total);
        let f = |v: u64| v as f64;
        let sv = &self.served;
        let mut out = vec![
            ("tc_ipc_norm", self.tc_ipc_norm),
            ("workloads.builds", f(self.builds)),
            ("workloads.trace_ops", f(self.trace_ops)),
            ("core.systems", f(self.systems)),
            ("engine.events", f(s.events)),
            ("engine.wakes_scheduled", f(s.wakes_scheduled)),
            ("engine.wakes_coalesced", f(s.wakes_coalesced)),
            ("engine.idle_frac", ratio(s.idle_cycles, s.cycles)),
            ("engine.cycles", f(s.cycles)),
            ("cpu.instr", f(s.instr)),
        ];
        let stall_names = [
            "cpu.stall_frac.load",
            "cpu.stall_frac.store-buffer-full",
            "cpu.stall_frac.fence",
            "cpu.stall_frac.txcache-full",
            "cpu.stall_frac.commit-flush",
            "cpu.stall_frac.pin-blocked",
            "cpu.stall_frac.conflict",
        ];
        for (name, stall) in stall_names.into_iter().zip(s.stalls) {
            out.push((name, ratio(stall, s.core_cycles)));
        }
        out.extend([
            ("cache.l1_miss_rate", miss(s.l1)),
            ("cache.l2_miss_rate", miss(s.l2)),
            ("cache.llc_miss_rate", miss(s.llc)),
            ("cache.snoop_invals", f(s.snoop_invals)),
            ("cache.interventions", f(s.interventions)),
            ("cache.shared_fills", f(s.shared_fills)),
            ("cache.back_invals", f(s.back_invals)),
            ("tc.inserts", f(s.tc_inserts)),
            ("tc.probe_hit_rate", ratio(s.tc_probe_hits, s.tc_probes)),
            ("tc.full_rejections", f(s.tc_full_rejections)),
            ("tc.overflows", f(s.tc_overflows)),
            ("tc.high_water", f(s.tc_high_water)),
            ("mem.nvm_reads", f(s.nvm_reads)),
            ("mem.nvm_writes", f(s.nvm_writes)),
            ("mem.nvm_row_hit_rate", ratio(s.nvm_rows[0], s.nvm_rows[1])),
            (
                "mem.nvm_read_lat",
                ratio(s.nvm_read_lat[0], s.nvm_read_lat[1]),
            ),
            (
                "mem.nvm_write_lat",
                ratio(s.nvm_write_lat[0], s.nvm_write_lat[1]),
            ),
            ("mem.rejected", f(s.nvm_rejected)),
            ("recovery.points", f(self.points)),
            ("recovery.violations", f(self.violations)),
            ("recovery.control_detections", f(self.control_detections)),
            ("serve.completed", f(sv.completed)),
            ("serve.shed", f(sv.shed)),
            ("serve.backpressure_events", f(sv.backpressure_events)),
            ("serve.wait_p99_cycles", f(sv.wait.percentile(0.99))),
            (
                "serve.tc_stall_share",
                ratio(sv.tc_stall, sv.tc_stall + sv.nvm_stall),
            ),
            ("serve.tc_p50_cycles", f(sv.tc_latency.percentile(0.5))),
            ("serve.tc_p99_cycles", f(sv.tc_latency.percentile(0.99))),
            ("serve.tc_p999_cycles", f(sv.tc_latency.percentile(0.999))),
            ("serve.tc_samples", f(sv.tc_latency.count())),
            ("serve.tc_ceiling", sv.tc_ceiling),
        ]);
        out
    }
}

/// Runs one repetition of `workload` under `t`.
///
/// # Errors
///
/// Returns a simulation or configuration error, naming the cell. Failed
/// correctness checks are not errors; they are counted in
/// [`Outcome::checks`].
pub fn run(workload: Workload, seed: u64, size: Size, t: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    t.span(Kind::Workload, |t| {
        // Every repetition samples the host's speed at least once.
        t.reference_slice();
        match workload {
            Workload::Grid => grid(t, &mut out, seed, size),
            Workload::Sharing => sharing(t, &mut out, seed, size),
            Workload::Crash => crash(t, &mut out, seed, size),
            Workload::Serve => serve(t, &mut out, seed, size),
        }
    })?;
    Ok(out)
}

fn instr(r: &RunReport) -> u64 {
    r.cores.iter().map(|c| c.ops.value()).sum()
}

/// Generates every core's instance cold, deriving per-core seeds as
/// `System::for_workload` does, so the construction that follows hits
/// the process-wide memo and its span measures construction alone.
fn build_all(
    t: &mut Tracer,
    out: &mut Outcome,
    kind: WorkloadKind,
    params: &WorkloadParams,
    cores: usize,
) {
    for core in 0..cores {
        let mut p = *params;
        p.seed = stream_seed(params.seed, core as u64);
        let w = t.span(Kind::Build, |_| build_shared(kind, &p));
        out.builds += 1;
        out.trace_ops += w.trace.len() as u64;
    }
}

fn new_system(
    t: &mut Tracer,
    out: &mut Outcome,
    machine: MachineConfig,
    kind: WorkloadKind,
    params: &WorkloadParams,
    rc: &RunConfig,
    label: &str,
) -> Result<System, String> {
    out.systems += 1;
    t.span(Kind::New, |_| {
        System::for_workload(machine, kind, params, rc)
    })
    .map_err(|e| format!("{label}: {e}"))
}

/// Runs `sys` closed-loop to completion and checks that every core
/// committed its whole trace.
fn run_closed(
    t: &mut Tracer,
    out: &mut Outcome,
    sys: &mut System,
    params: &WorkloadParams,
    label: &str,
) -> Result<RunReport, String> {
    let report = t
        .span(Kind::Run, |_| sys.run())
        .map_err(|e| format!("{label}: {e}"))?;
    out.ops += instr(&report);
    out.sim.add(&report);
    let want = (report.cores.len() * params.num_ops) as u64;
    let got = report.total_committed();
    out.checks.check(got == want, || {
        format!("{label}: committed {got} of {want} transactions")
    });
    Ok(report)
}

/// Crashes `sys` where it stands, recovers and checks the image. A
/// violation fails the run when the scheme promises consistency and is
/// a control detection otherwise.
fn check_point(
    t: &mut Tracer,
    out: &mut Outcome,
    sys: &System,
    expect_consistent: bool,
    label: &str,
) {
    let state = t.span(Kind::Snapshot, |_| sys.crash_state());
    let recovered = t.span(Kind::Recover, |_| recover(&state));
    // Both images are freed inside the check's span, so their teardown
    // is billed to the recovery layer rather than to benchmark glue.
    let result = t.span(Kind::Check, |_| {
        let r = check_recovery(&state, &recovered);
        drop(recovered);
        drop(state);
        r
    });
    out.points += 1;
    match result {
        Err(e) if expect_consistent => {
            out.violations += 1;
            out.checks
                .check(false, || format!("{label} @ cycle {}: {e}", sys.clock()));
        }
        Err(_) => out.control_detections += 1,
        Ok(()) if expect_consistent => out.checks.check(true, String::new),
        Ok(()) => {}
    }
}

/// Whether the crash campaign expects this cell to recover consistently.
fn consistent(workload: WorkloadKind, scheme: SchemeKind, cores: usize, sharing: u8) -> bool {
    CellSpec {
        workload,
        scheme,
        cores,
        tc_entries: None,
        sharing,
        wear: false,
    }
    .expect_consistent()
}

fn render(t: &mut Tracer, report: &RunReport) {
    t.span(Kind::Report, |_| black_box(report.to_json().to_compact()));
}

fn grid(t: &mut Tracer, out: &mut Outcome, seed: u64, size: Size) -> Result<(), String> {
    let scale = Scale::Quick;
    let (machine, params) = match size {
        Size::Full => (scale.machine(), scale.params(seed)),
        Size::Tiny => (MachineConfig::small(), WorkloadParams::tiny(seed)),
    };
    let rc = RunConfig::default();
    let mut results = BTreeMap::new();
    for kind in WorkloadKind::all() {
        build_all(t, out, kind, &params, machine.cores);
        for scheme in SchemeKind::all() {
            let label = format!("grid {kind}/{scheme}");
            let report = t.span(Kind::Cell, |t| {
                let m = machine.clone().with_scheme(scheme);
                let mut sys = new_system(t, out, m, kind, &params, &rc, &label)?;
                let report = run_closed(t, out, &mut sys, &params, &label)?;
                // Recovery at full grid scale costs a quarter second per
                // cell, more than the cell's simulation, so only the
                // paper's scheme on the write-heaviest workload is checked.
                if (kind, scheme) == (WorkloadKind::Sps, SchemeKind::TxCache) {
                    check_point(t, out, &sys, true, &label);
                }
                Ok::<_, String>(report)
            })?;
            results.insert((kind, scheme), report);
        }
    }
    let grid = GridResults { results, scale };
    out.tc_ipc_norm = grid.mean_normalized(SchemeKind::TxCache, RunReport::ipc);
    let metrics = t.span(Kind::Report, |_| {
        let figs = [
            ("fig6", figures::fig6(&grid)),
            ("fig7", figures::fig7(&grid)),
            ("fig8", figures::fig8(&grid)),
            ("fig9", figures::fig9(&grid)),
            ("fig10", figures::fig10(&grid)),
        ]
        .map(|(name, table)| (name.to_string(), table));
        black_box(report::full_report(scale, seed, Some(&grid), &figs).to_pretty());
        report::key_metrics(&grid)
    });
    if size == Size::Full {
        check_baseline(out, seed, &metrics)?;
    }
    Ok(())
}

/// At the baseline's seed, gates the grid's key metrics on the checked-in
/// calibration baseline, minus `engine/*`: those count simulator effort,
/// which a speed-up may legitimately change.
fn check_baseline(out: &mut Outcome, seed: u64, metrics: &MetricsRegistry) -> Result<(), String> {
    let doc = Json::parse(BASELINE).map_err(|e| format!("baseline: {e}"))?;
    if doc.get("seed").and_then(Json::as_f64) != Some(seed as f64) {
        return Ok(());
    }
    let kept: Vec<(String, Json)> = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("baseline has no `metrics` object")?
        .iter()
        .filter(|(name, _)| !name.starts_with("engine/"))
        .cloned()
        .collect();
    let compared = kept.len();
    let schema = doc.get("schema").cloned().unwrap_or(Json::Null);
    let gated = Json::obj([("schema", schema), ("metrics", Json::Obj(kept))]);
    let diffs = report::compare_to_baseline(metrics, &gated)?;
    out.checks.attempted += (compared - diffs.len()) as u64;
    for d in diffs {
        out.checks.check(false, || format!("grid baseline {d}"));
    }
    Ok(())
}

fn sharing(t: &mut Tracer, out: &mut Outcome, seed: u64, size: Size) -> Result<(), String> {
    let (machine, mut params, schemes) = match size {
        Size::Full => {
            let mut machine = Scale::Quick.machine();
            machine.cores = 16;
            let mut params = Scale::Quick.params(seed);
            params.num_ops = 8_000;
            (machine, params, SchemeKind::all().to_vec())
        }
        Size::Tiny => (
            MachineConfig::small(),
            WorkloadParams::tiny(seed),
            vec![SchemeKind::TxCache, SchemeKind::Optimal],
        ),
    };
    params.sharing = 4;
    let kind = WorkloadKind::Sps;
    build_all(t, out, kind, &params, machine.cores);
    let mut ipc = BTreeMap::new();
    for scheme in schemes {
        let label = format!("sharing {kind}/sh4/{scheme}");
        t.span(Kind::Cell, |t| {
            let m = machine.clone().with_scheme(scheme);
            let mut sys = new_system(t, out, m, kind, &params, &RunConfig::default(), &label)?;
            let report = run_closed(t, out, &mut sys, &params, &label)?;
            let ok = consistent(kind, scheme, machine.cores, params.sharing);
            check_point(t, out, &sys, ok, &label);
            render(t, &report);
            ipc.insert(scheme, report.ipc());
            Ok::<_, String>(())
        })?;
    }
    out.tc_ipc_norm = ipc[&SchemeKind::TxCache] / ipc[&SchemeKind::Optimal];
    Ok(())
}

/// The crash sweep's points for one cell: every distinct durability
/// boundary `b` and `b + 1`, `stratified` evenly spaced points, and one
/// point past quiescence.
fn schedule(
    total: Cycle,
    boundaries: &[(Cycle, pmacc::BoundaryClass)],
    stratified: u64,
) -> Vec<Cycle> {
    let mut points: Vec<Cycle> = boundaries.iter().flat_map(|&(b, _)| [b, b + 1]).collect();
    let horizon = total.max(1);
    points.extend((0..stratified).map(|i| 1 + (horizon - 1) * i / (stratified - 1)));
    points.push(total + 1_000_000);
    points.sort_unstable();
    points.dedup();
    points
}

fn crash(t: &mut Tracer, out: &mut Outcome, seed: u64, size: Size) -> Result<(), String> {
    let mut cfg = CampaignConfig::quick(seed);
    let mut stratified = STRATIFIED_POINTS;
    if size == Size::Tiny {
        cfg.schemes = vec![SchemeKind::TxCache, SchemeKind::Optimal];
        cfg.workloads = vec![WorkloadKind::Sps];
        cfg.core_counts = vec![1];
        cfg.overflow_cell = false;
        cfg.sharing_cells = false;
        cfg.wear_cells = false;
        stratified = 32;
    }
    let learn_rc = RunConfig {
        sample_period: 0,
        record_boundaries: true,
        ..RunConfig::default()
    };
    let walk_rc = RunConfig {
        sample_period: 0,
        ..RunConfig::default()
    };
    // IPC of the plain cells (default TC size, private, no leveling),
    // keyed by (workload, cores, scheme), for the TC/Optimal pairs.
    let mut plain_ipc = BTreeMap::new();
    for spec in cfg.cells() {
        let label = format!("crash {}", spec.label());
        t.span(Kind::Cell, |t| {
            let mut params = cfg.params;
            params.sharing = spec.sharing;
            build_all(t, out, spec.workload, &params, spec.cores);
            let mut learn = new_system(
                t,
                out,
                spec.machine(),
                spec.workload,
                &params,
                &learn_rc,
                &label,
            )?;
            let report = run_closed(t, out, &mut learn, &params, &label)?;
            let points = schedule(report.cycles, learn.boundaries(), stratified);
            drop(learn);
            let mut sys = new_system(
                t,
                out,
                spec.machine(),
                spec.workload,
                &params,
                &walk_rc,
                &label,
            )?;
            for at in points {
                t.span(Kind::Point, |t| {
                    t.span(Kind::RunUntil, |_| sys.run_until(at))
                        .map_err(|e| format!("{label} @ {at}: {e}"))?;
                    check_point(t, out, &sys, spec.expect_consistent(), &label);
                    Ok::<_, String>(())
                })?;
            }
            out.ops += instr(&sys.report());
            render(t, &report);
            if spec.tc_entries.is_none() && spec.sharing == 0 && !spec.wear {
                plain_ipc.insert((spec.workload, spec.cores, spec.scheme), report.ipc());
            }
            Ok::<_, String>(())
        })?;
    }
    let ratios: Vec<f64> = plain_ipc
        .iter()
        .filter(|((_, _, scheme), _)| *scheme == SchemeKind::TxCache)
        .filter_map(|(&(w, c, _), tc)| {
            plain_ipc
                .get(&(w, c, SchemeKind::Optimal))
                .map(|opt| tc / opt)
        })
        .collect();
    out.tc_ipc_norm = ratios.iter().sum::<f64>() / ratios.len() as f64;
    Ok(())
}

fn serve(t: &mut Tracer, out: &mut Outcome, seed: u64, size: Size) -> Result<(), String> {
    let q = ServeCampaignConfig::quick(seed);
    let mut params = q.params;
    let schemes = match size {
        Size::Full => {
            params.num_ops = SERVE_REQUESTS;
            SchemeKind::all().to_vec()
        }
        Size::Tiny => {
            params.num_ops = 200;
            vec![SchemeKind::TxCache, SchemeKind::Optimal]
        }
    };
    let mut machine = MachineConfig::dac17_scaled();
    machine.cores = q.cores;
    let rc = RunConfig {
        warmup_commits: 0,
        sample_period: 0,
        ..RunConfig::default()
    };
    build_all(t, out, q.workload, &params, q.cores);

    // Closed-loop calibration: Optimal's capacity sets the offered
    // rates; TC's run gives the served workload's IPC ratio.
    let mut closed = BTreeMap::new();
    for scheme in [SchemeKind::Optimal, SchemeKind::TxCache] {
        let label = format!("serve closed-loop {scheme}");
        let report = t.span(Kind::Cell, |t| {
            let m = machine.clone().with_scheme(scheme);
            let mut sys = new_system(t, out, m, q.workload, &params, &rc, &label)?;
            let report = run_closed(t, out, &mut sys, &params, &label)?;
            render(t, &report);
            Ok::<_, String>(report)
        })?;
        closed.insert(scheme, report);
    }
    let opt = &closed[&SchemeKind::Optimal];
    let capacity =
        opt.total_committed() as f64 / q.cores as f64 * 1000.0 / opt.cycles.max(1) as f64;
    out.tc_ipc_norm = closed[&SchemeKind::TxCache].ipc() / opt.ipc();

    let base = stream_seed(seed, ARRIVAL_STREAM);
    let offered_requests = (q.cores * params.num_ops) as u64;
    for scheme in schemes {
        for frac in LOAD_FRACTIONS {
            let label = format!("serve {scheme} x{frac}");
            let offered = frac * capacity;
            t.span(Kind::Cell, |t| {
                let m = machine.clone().with_scheme(scheme);
                let mut sys = new_system(t, out, m, q.workload, &params, &rc, &label)?;
                t.span(Kind::ServeSetup, |_| {
                    let n = params.num_ops;
                    let arrivals = (0..q.cores)
                        .map(|c| gen_arrivals(q.arrival, offered, n, stream_seed(base, c as u64)))
                        .collect();
                    let mut sc = ServeConfig::new(arrivals);
                    sc.tc_high = q.tc_high;
                    sc.nvm_write_high = q.nvm_write_high;
                    sc.max_wait = q.max_wait;
                    sys.enable_serve(sc)
                })
                .map_err(|e| format!("{label}: {e}"))?;
                let report = t
                    .span(Kind::Run, |_| sys.run())
                    .map_err(|e| format!("{label}: {e}"))?;
                out.ops += instr(&report);
                out.sim.add(&report);
                let stats = sys
                    .serve_stats()
                    .ok_or_else(|| format!("{label}: serve mode is off"))?;
                let mut latency = Log2Histogram::new();
                let (mut completed, mut shed) = (0, 0);
                let sv = &mut out.served;
                for s in &stats {
                    completed += s.completed;
                    shed += s.shed;
                    sv.backpressure_events += s.backpressure_events;
                    sv.wait.merge(&s.wait);
                    sv.tc_stall += s.tc_stall.sum();
                    sv.nvm_stall += s.nvm_stall.sum();
                    latency.merge(&s.latency);
                }
                sv.completed += completed;
                sv.shed += shed;
                if scheme == SchemeKind::TxCache {
                    let per_core = completed as f64 / q.cores as f64;
                    let achieved = per_core * 1000.0 / report.cycles.max(1) as f64;
                    let p99 = latency.percentile(0.99);
                    if shed == 0 && achieved >= 0.95 * offered && p99 <= P99_LIMIT {
                        sv.tc_ceiling = sv.tc_ceiling.max(offered);
                    }
                    if frac == TAIL_FRACTION {
                        sv.tc_latency = latency;
                    }
                }
                let all = offered_requests;
                out.checks.check(completed + shed == all, || {
                    format!("{label}: {completed} completed + {shed} shed of {all} offered")
                });
                // SP runs that shed requests do not recover consistently
                // at quiescence (TC, NVLLC and eADR runs do), so those
                // runs count as controls; SP runs that shed nothing are
                // checked.
                let sp_shed = scheme == SchemeKind::Sp && shed > 0;
                let ok = !sp_shed && consistent(q.workload, scheme, q.cores, 0);
                check_point(t, out, &sys, ok, &label);
                render(t, &report);
                Ok::<_, String>(())
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_covers_boundaries_stratified_and_quiescent_points() {
        let b = [
            (10, pmacc::BoundaryClass::TxEnd),
            (10, pmacc::BoundaryClass::DrainAck),
            (40, pmacc::BoundaryClass::TxEnd),
        ];
        let s = schedule(100, &b, 4);
        assert_eq!(s, vec![1, 10, 11, 34, 40, 41, 67, 100, 1_000_100]);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("hit").is_err());
    }
}
