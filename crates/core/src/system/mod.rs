//! The full-system simulator: cores, cache hierarchy, transaction caches
//! and memory controllers wired together under one event loop.
//!
//! The simulator is *discrete-event* at cycle resolution. Cores advance
//! through their (scheme-instrumented) traces in batches; loads that reach
//! memory, store drains, transaction-cache drains and write-backs flow
//! through the [`pmacc_mem::MemController`] models, whose completions wake
//! the dependent components. A parallel *functional* model carries 64-bit
//! word values so that crash recovery can be verified, not assumed: the
//! NVM [`Backing`], the STT-RAM transaction caches, the SP log (parsed out
//! of the NVM image) and the NVLLC committed-line image all survive a
//! simulated crash; everything else dies with it. Every image of a run is a
//! copy-on-write overlay on one frozen initial persistent image, which runs
//! of the same workloads share with their oracle table and traces
//! ([`crate::inputs`]); DRAM contents are not modeled, since nothing reads
//! them.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use pmacc_cache::{Hierarchy, Mshr, WriteBackBuffer};
use pmacc_cpu::{CoreStats, StallKind, Trace};
use pmacc_mem::{Backing, MemController};
use pmacc_types::{
    ConfigError, Cycle, FxHashMap, LineAddr, MachineConfig, MemRegion, ReqId, SimError, Word,
    WordAddr, WORDS_PER_LINE,
};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

use crate::inputs::{self, CoreTrace, RunInputs};
use crate::metrics::RunReport;
use crate::recovery::TxRecord;
use crate::scheme::{self, SchemeState, TcWrite};
use crate::txcache::{TcStats, TxCache};
use cores::CoreCtx;
use serve::ServeState;
pub use serve::{ServeConfig, ServeCoreStats};

mod cores;
mod crash;
mod mempath;
mod serve;
mod tx;

/// Abort with [`SimError::Deadlock`] beyond this many cycles.
const MAX_CYCLES: Cycle = 20_000_000_000;

/// Run-level options.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Committed transactions (across all cores) to treat as warm-up:
    /// when reached, every statistic resets so the report covers only the
    /// warmed region. Zero measures from a cold start (the recorded
    /// `EXPERIMENTS.md` configuration). The recovery journal is *not*
    /// reset — crash consistency always covers the whole run.
    pub warmup_commits: u64,
    /// Cycles between time-series samples (transaction-cache occupancy,
    /// memory queue depths, store-buffer fill, per-cause stall
    /// fractions); the most recent samples ride along in
    /// [`RunReport::series`]. Zero disables sampling entirely.
    pub sample_period: Cycle,
    /// Record every durability-boundary cycle (`TX_END` retirement,
    /// drain/flush acknowledgment, COW commit/install) for
    /// [`System::boundaries`]. Observation-only — recording never
    /// perturbs timing — but it costs memory proportional to the number
    /// of durable writes, so it defaults off and is switched on by the
    /// crash-campaign harness, which clusters crash points around these
    /// cycles.
    pub record_boundaries: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_commits: 0,
            sample_period: 32_768,
            record_boundaries: false,
        }
    }
}

/// Which kind of durability boundary a cycle recorded by
/// [`System::boundaries`] marks — the moments where the crash-visible
/// state actually changes, and therefore where atomicity is at risk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BoundaryClass {
    /// A `TX_END` retired: the transaction entered the golden journal
    /// (for the TC scheme its buffered entries flipped to committed; for
    /// NVLLC its lines were tagged committed; for SP its commit marker
    /// flushed).
    TxEnd,
    /// A durable NVM-image update was acknowledged: a transaction-cache
    /// drain ack, an SP log/data flush ack, or an NVM write-back landed.
    DrainAck,
    /// A COW-path boundary: an overflowed transaction's commit record
    /// became durable, or one of its home-location installs landed.
    CowCommit,
}

/// Samples the time series retains before the ring starts dropping the
/// oldest (the report then covers only the tail of the run, and says so
/// via its `dropped` count).
const SERIES_CAPACITY: usize = 1024;

/// Event-engine diagnostics: how hard the skip-ahead scheduler worked
/// for one run. Whole-run totals — deliberately *not* reset by the
/// warm-up boundary, because they describe simulator effort rather than
/// simulated behavior. Rides along in [`RunReport::engine`] so the
/// regression gate can catch event-count blow-ups (a scheduling bug
/// that keeps results identical but doubles the event count is a real
/// performance regression).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped from the queue (includes clock-only wakes).
    pub events_processed: u64,
    /// Wake-ups pushed onto the event queue.
    pub wakes_scheduled: u64,
    /// Wake-up requests absorbed by an already-scheduled earlier wake
    /// for the same component (memory pokes, TC drains) — each one is a
    /// heap operation the dedup markers saved.
    pub wakes_coalesced: u64,
    /// Cycles the clock jumped over without simulating anything: the
    /// sum of the gaps between consecutive events. Idle time the
    /// skip-ahead engine made free.
    pub idle_cycles_skipped: u64,
}

/// Cycle-sampled instrumentation state: the recorder plus the previous
/// per-kind stall totals, so each sample row carries the stall *rate*
/// over its own window rather than a running total.
#[derive(Debug)]
struct Sampler {
    rec: Option<pmacc_telemetry::SeriesRecorder>,
    next: Cycle,
    prev_stalls: [Cycle; StallKind::COUNT],
}

impl Sampler {
    fn new(period: Cycle) -> Self {
        let rec = (period > 0).then(|| {
            let mut channels = vec![
                "tc_occupancy".to_string(),
                "store_buffer".to_string(),
                "nvm_read_queue".to_string(),
                "nvm_write_queue".to_string(),
                "dram_read_queue".to_string(),
                "dram_write_queue".to_string(),
            ];
            channels.extend(StallKind::all().iter().map(|k| format!("stall_frac/{k}")));
            pmacc_telemetry::SeriesRecorder::new(period, SERIES_CAPACITY, channels)
        });
        Sampler {
            rec,
            next: period.max(1),
            prev_stalls: [0; StallKind::COUNT],
        }
    }

    fn freeze(&self) -> pmacc_telemetry::SeriesReport {
        self.rec
            .as_ref()
            .map_or_else(pmacc_telemetry::SeriesReport::empty, |r| r.freeze())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Event {
    CoreStep(usize),
    MemPoke(MemRegion),
    TcDrain(usize),
    /// Clock-only wake-up: advances the clock (and the sampler) to an
    /// exact cycle without touching any component — the skip-ahead
    /// primitive `run_until` uses so a crash snapshot is stamped with the
    /// *requested* cycle rather than whatever event happened to process
    /// last before it.
    Wake,
}

impl Event {
    /// The slot of a deduplicated wake: per memory region, then per core.
    fn slot(self) -> usize {
        match self {
            Event::MemPoke(region) => usize::from(region == MemRegion::Dram),
            Event::TcDrain(c) => 2 + c,
            Event::CoreStep(_) | Event::Wake => unreachable!("{self:?} is not deduplicated"),
        }
    }
}

/// What an outstanding memory request was issued for.
#[derive(Debug, Clone)]
pub(crate) enum Origin {
    /// A demand-load fill, whose waiters the MSHR holds.
    LoadFill,
    /// An eviction, a forced unpin, or a `clwb` by core `flusher`.
    Writeback {
        line: LineAddr,
        words: [Word; WORDS_PER_LINE],
        flusher: Option<usize>,
    },
    /// A write on one of the TC's own paths.
    Tc(TcWrite),
}

/// The simulated machine plus the traces it executes.
///
/// See the crate-level docs for a quickstart; [`System::for_workload`]
/// builds a complete machine for one Table 3 benchmark, [`System::run`]
/// executes to completion and returns the [`RunReport`] behind every
/// figure, and [`System::run_until`] + [`System::crash_state`] drive the
/// crash-recovery experiments.
#[derive(Debug)]
pub struct System {
    cfg: MachineConfig,
    traces: Vec<CoreTrace>,
    pub(crate) cores: Vec<CoreCtx>,
    pub(crate) hier: Hierarchy,
    pub(crate) nvm: MemController,
    dram: MemController,
    /// Durable NVM contents: what the memory controller has written.
    pub(crate) nvm_backing: Backing,
    /// The architectural image of persistent memory: what stores wrote.
    pub(crate) arch_image: Backing,
    /// The running scheme's state, which [`crate::scheme`] dispatches on.
    pub(crate) scheme: SchemeState,
    /// The frozen initial image both images above overlay, and the
    /// oracle's write table; shared by every run of the same workloads.
    inputs: Arc<RunInputs>,
    /// Per line, a bitmap of cores whose in-flight transaction (active or
    /// awaiting commit durability) has written it. Bit `c` is set iff
    /// `line` is in `cores[c].tx_lines`; the conflict check reads this map
    /// instead of scanning every remote core's write-set list.
    tx_writers: FxHashMap<LineAddr, u64>,
    /// Cycle at which measurement started (after warm-up, if any).
    measure_start: Cycle,
    warmup_done: bool,
    pub(crate) journal: Vec<TxRecord>,
    /// The committed image — the initial image with the first `.1`
    /// journal entries replayed — which [`System::crash_state`] catches up
    /// lazily and shares with the snapshots it takes.
    committed: RefCell<(Arc<Backing>, usize)>,
    /// Durability-boundary cycles (empty unless
    /// [`RunConfig::record_boundaries`] is set).
    boundaries: Vec<(Cycle, BoundaryClass)>,
    pub(crate) clock: Cycle,
    events: BinaryHeap<Reverse<(Cycle, u64, Event)>>,
    seq: u64,
    pub(crate) origins: FxHashMap<ReqId, Origin>,
    next_req: u64,
    /// Banked LLC port model: one access per cycle per bank; NVLLC commit
    /// bursts hold a single bank for the full STT-RAM write.
    llc_port_free: [Cycle; 4],
    /// Outstanding demand-load fills, merged across cores (a second core
    /// missing on an in-flight line piggybacks on the first fill).
    mshr: Mshr<usize>,
    /// Write-backs waiting for memory-controller queue room.
    wb_pending: WriteBackBuffer,
    /// Per deduplicated wake ([`Event::slot`]), its live event's cycle.
    wake_at: Vec<Option<Cycle>>,
    /// Open-system service mode ([`System::enable_serve`]); `None` runs
    /// the classic closed loop.
    serve: Option<ServeState>,
    run_cfg: RunConfig,
    sampler: Sampler,
    /// Event-engine effort counters (performance diagnostics).
    pub engine: EngineStats,
    // Cached latencies (cycles).
    lat_l1: Cycle,
    pub(crate) lat_l2: Cycle,
    lat_llc: Cycle,
}

impl System {
    /// Builds a system executing the given *raw* per-core traces (the
    /// scheme's instrumentation is applied here) over the given initial
    /// memory image. Only its persistent words are kept: DRAM contents
    /// are not modeled.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the machine is invalid or has more
    /// cores than traces/striding support.
    pub fn new(
        cfg: MachineConfig,
        raw_traces: Vec<Trace>,
        initial: &[(WordAddr, Word)],
        run_cfg: &RunConfig,
    ) -> Result<Self, SimError> {
        let traces: Vec<Trace> = raw_traces
            .into_iter()
            .enumerate()
            .map(|(c, t)| scheme::instrument(cfg.scheme, c, t))
            .collect();
        System::new_instrumented(cfg, traces, initial, run_cfg)
    }

    /// Like [`System::new`] but the traces are taken as already
    /// instrumented (used by the SP-fencing ablation, which wants the
    /// [`crate::scheme::sp::SpMode::Strict`] variant).
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the machine is invalid or the
    /// trace count does not match the core count.
    pub fn new_instrumented(
        cfg: MachineConfig,
        traces: Vec<Trace>,
        initial: &[(WordAddr, Word)],
        run_cfg: &RunConfig,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if traces.len() != cfg.cores {
            return Err(ConfigError::new(format!(
                "{} traces supplied for {} cores",
                traces.len(),
                cfg.cores
            ))
            .into());
        }
        for t in &traces {
            t.validate()
                .map_err(|e| ConfigError::new(format!("bad trace: {e}")))?;
        }
        let traces: Vec<CoreTrace> = traces.into_iter().map(CoreTrace::Owned).collect();
        let inputs = Arc::new(RunInputs::new(initial.iter().copied(), &traces));
        Ok(System::assemble(cfg, traces, inputs, run_cfg))
    }

    /// A machine at cycle 0 running `traces` over `inputs`; `cfg` is
    /// valid and has one trace per core.
    fn assemble(
        cfg: MachineConfig,
        traces: Vec<CoreTrace>,
        inputs: Arc<RunInputs>,
        run_cfg: &RunConfig,
    ) -> Self {
        let freq = cfg.core.freq;
        let scheme = SchemeState::new(&cfg);
        let (opts, lat_llc) = scheme.llc(&cfg);
        let mut system = System {
            cores: (0..cfg.cores).map(|c| CoreCtx::new(c, &cfg)).collect(),
            hier: Hierarchy::new(cfg.cores, cfg.l1, cfg.l2, cfg.llc, opts),
            nvm: MemController::new(MemRegion::Nvm, cfg.nvm),
            dram: MemController::new(MemRegion::Dram, cfg.dram),
            nvm_backing: inputs.initial.base(),
            arch_image: inputs.initial.base(),
            committed: RefCell::new((Arc::new(inputs.initial.base()), 0)),
            inputs,
            scheme,
            tx_writers: FxHashMap::default(),
            measure_start: 0,
            warmup_done: false,
            journal: Vec::new(),
            boundaries: Vec::new(),
            clock: 0,
            events: BinaryHeap::new(),
            seq: 0,
            origins: FxHashMap::default(),
            next_req: 0,
            llc_port_free: [0; 4],
            mshr: Mshr::new(16),
            wb_pending: WriteBackBuffer::new(4096),
            wake_at: vec![None; 2 + cfg.cores],
            serve: None,
            run_cfg: *run_cfg,
            sampler: Sampler::new(run_cfg.sample_period),
            engine: EngineStats::default(),
            lat_l1: freq.ns_to_cycles(cfg.l1.latency_ns),
            lat_l2: freq.ns_to_cycles(cfg.l2.latency_ns),
            lat_llc,
            traces,
            cfg,
        };
        for c in 0..system.cfg.cores {
            system.push_event(0, Event::CoreStep(c));
        }
        system
    }

    /// Builds a system where every core runs an independent instance of
    /// one Table 3 benchmark (addresses striped per core so instances are
    /// disjoint, as in a rate-style multiprogrammed run).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid machines or more cores
    /// than the striding scheme supports
    /// ([`pmacc_types::layout::MAX_STRIDED_CORES`]). The machine is
    /// validated before any trace is built, so a bad core count is an
    /// error, never an allocation failure.
    pub fn for_workload(
        cfg: MachineConfig,
        kind: WorkloadKind,
        params: &WorkloadParams,
        run_cfg: &RunConfig,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let kinds = vec![kind; cfg.cores];
        System::for_workload_mix(cfg, &kinds, params, run_cfg)
    }

    /// Builds a system where each core runs a *different* benchmark — a
    /// heterogeneous multiprogrammed mix (one workload kind per core,
    /// addresses striped per core as in [`System::for_workload`]).
    ///
    /// Every scheme's run of the same kinds and parameters shares one
    /// frozen initial image and one oracle table, and every non-SP core
    /// fetches the memoized workload trace, strided as it goes.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid workload parameters or
    /// machines, a kind count that does not match the core count, or more
    /// cores than the striding scheme supports.
    pub fn for_workload_mix(
        cfg: MachineConfig,
        kinds: &[WorkloadKind],
        params: &WorkloadParams,
        run_cfg: &RunConfig,
    ) -> Result<Self, SimError> {
        params.validate()?;
        cfg.validate()?;
        if kinds.len() != cfg.cores {
            return Err(ConfigError::new(format!(
                "{} workload kinds supplied for {} cores",
                kinds.len(),
                cfg.cores
            ))
            .into());
        }
        let (traces, inputs) = inputs::prepare(cfg.scheme, kinds, params)?;
        Ok(System::assemble(cfg, traces, inputs, run_cfg))
    }

    /// The machine configuration in use.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The golden journal of committed transactions (oracle for the
    /// recovery checker).
    #[must_use]
    pub fn journal(&self) -> &[TxRecord] {
        &self.journal
    }

    /// The recorded durability-boundary cycles, in the order the
    /// simulator crossed them (non-decreasing). Empty unless the run was
    /// built with [`RunConfig::record_boundaries`] set. Each entry is the
    /// event-processing cycle at which the crash-visible state changed,
    /// so crash points clustered around these cycles probe exactly the
    /// transitions where atomicity is at risk.
    #[must_use]
    pub fn boundaries(&self) -> &[(Cycle, BoundaryClass)] {
        &self.boundaries
    }

    /// The current simulation cycle (the timestamp [`System::crash_state`]
    /// stamps on its snapshot).
    #[must_use]
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    pub(crate) fn push_event(&mut self, at: Cycle, ev: Event) {
        self.seq += 1;
        self.engine.wakes_scheduled += 1;
        self.events.push(Reverse((at, self.seq, ev)));
    }

    /// Schedules the deduplicated wake `ev` (a memory poke or a TC drain)
    /// at `at`, unless the same wake is already due no later.
    pub(crate) fn schedule_wake(&mut self, ev: Event, at: Cycle) {
        let due = &mut self.wake_at[ev.slot()];
        if due.is_none_or(|t| at < t) {
            *due = Some(at);
            self.push_event(at, ev);
        } else {
            self.engine.wakes_coalesced += 1;
        }
    }

    /// Whether `ev` is its deduplicated wake's live event, which it then
    /// consumes: superseded copies die here, or each would re-arm forever.
    fn take_wake(&mut self, ev: Event) -> bool {
        let now = self.clock;
        self.wake_at[ev.slot()].take_if(|t| *t == now).is_some()
    }

    /// Runs until every core finishes its trace; returns the run report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if no progress is possible or the
    /// cycle bound is exceeded.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.run_until(Cycle::MAX)?;
        if !self.cores.iter().all(|c| c.finished) {
            return Err(SimError::Deadlock {
                cycle: self.clock,
                what: "event queue drained with unfinished cores".into(),
            });
        }
        // Samples are otherwise taken only when a later event crosses a
        // sample point, so the windows between the last crossing and the
        // end of the run (the drain tail) would be missing from the
        // series; flush them up to the final cycle.
        let end = self
            .cores
            .iter()
            .map(|c| c.time)
            .max()
            .unwrap_or(self.clock);
        self.flush_samples(end);
        Ok(self.report())
    }

    /// Processes events up to and including `limit` (a crash point), or
    /// until everything quiesces. For a finite `limit` the clock is
    /// guaranteed to land on `limit` exactly (a clock-only wake event is
    /// scheduled there), so [`System::crash_state`] stamps the requested
    /// crash cycle even when no component event falls on it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the cycle bound is exceeded.
    pub fn run_until(&mut self, limit: Cycle) -> Result<(), SimError> {
        if limit < Cycle::MAX && limit >= self.clock && limit <= MAX_CYCLES {
            self.push_event(limit, Event::Wake);
        }
        while let Some(Reverse((t, _, _))) = self.events.peek().copied() {
            if t > limit {
                break;
            }
            if t > MAX_CYCLES {
                return Err(SimError::Deadlock {
                    cycle: t,
                    what: "max cycle bound exceeded".into(),
                });
            }
            let Reverse((t, _, ev)) = self.events.pop().expect("peeked event");
            if t > self.clock {
                // The gap between consecutive events is simulated time
                // that cost nothing to skip over.
                self.engine.idle_cycles_skipped += t - self.clock - 1;
            }
            self.clock = t;
            self.engine.events_processed += 1;
            // Cycle-sampled telemetry: take every sample point the clock
            // just crossed (state is as of the last event before it, so
            // the series is independent of intra-cycle event order).
            self.flush_samples(t);
            match ev {
                Event::CoreStep(c) => self.handle_core_step(c),
                Event::MemPoke(region) if self.take_wake(ev) => self.handle_mem_poke(region),
                Event::TcDrain(c) if self.take_wake(ev) => self.on_tc(|tc, sys| tc.drain(sys, c)),
                Event::MemPoke(_) | Event::TcDrain(_) | Event::Wake => {}
            }
        }
        Ok(())
    }

    /// Takes every sample point at or before `upto` that has not been
    /// taken yet — shared by the event loop (points the clock just
    /// crossed) and the end-of-run drain-tail flush.
    fn flush_samples(&mut self, upto: Cycle) {
        while self.sampler.rec.is_some() && self.sampler.next <= upto {
            let at = self.sampler.next;
            self.take_sample(at);
            self.sampler.next += self.run_cfg.sample_period;
        }
    }

    /// Records one time-series sample row at cycle `at`: aggregate
    /// transaction-cache occupancy, store-buffer fill, per-region memory
    /// queue depths, and the fraction of the elapsed window each stall
    /// kind cost (stall cycles are booked when a stall *ends*, so a long
    /// stall lands in the window its wake-up falls into).
    fn take_sample(&mut self, at: Cycle) {
        let Some(rec) = self.sampler.rec.as_mut() else {
            return;
        };
        let nvm_writes = self.nvm.outstanding_writes();
        let dram_writes = self.dram.outstanding_writes();
        let tc: usize = self.scheme.txcaches().iter().map(TxCache::occupancy).sum();
        let mut values = vec![
            tc as f64,
            self.cores.iter().map(|c| c.sb.len()).sum::<usize>() as f64,
            self.nvm.outstanding().saturating_sub(nvm_writes) as f64,
            nvm_writes as f64,
            self.dram.outstanding().saturating_sub(dram_writes) as f64,
            dram_writes as f64,
        ];
        let window = (self.cores.len() as f64) * (rec.period() as f64);
        for (i, kind) in StallKind::all().iter().enumerate() {
            let cur: u64 = self.cores.iter().map(|c| c.stats.stall(*kind)).sum();
            let delta = cur.saturating_sub(self.sampler.prev_stalls[i]);
            self.sampler.prev_stalls[i] = cur;
            values.push(if window > 0.0 {
                delta as f64 / window
            } else {
                0.0
            });
        }
        rec.record(at, &values);
    }

    /// Builds the end-of-run report.
    #[must_use]
    pub fn report(&self) -> RunReport {
        // One TC entry per core under every scheme: all zero outside TC.
        let mut tc: Vec<TcStats> = self
            .scheme
            .txcaches()
            .iter()
            .map(|t| t.stats.clone())
            .collect();
        tc.resize(self.cores.len(), TcStats::default());
        let mut cores = Vec::with_capacity(self.cores.len());
        for c in &self.cores {
            let mut s = c.stats.clone();
            s.cycles = c.time.saturating_sub(self.measure_start);
            cores.push(s);
        }
        RunReport {
            scheme: self.cfg.scheme,
            cycles: self
                .cores
                .iter()
                .map(|c| c.time)
                .max()
                .unwrap_or(0)
                .saturating_sub(self.measure_start),
            cores,
            hierarchy: self.hier.stats.clone(),
            nvm: self.nvm.stats.clone(),
            dram: self.dram.stats.clone(),
            tc,
            dropped_llc_writes: self.scheme.dropped_llc_writes(),
            residual_nvm_lines: self.residual_nvm_lines(),
            series: self.sampler.freeze(),
            engine: self.engine,
        }
    }

    /// Ends the warm-up region: zeroes every statistic so the report
    /// covers only steady-state execution. Cache/TC/queue *state* and the
    /// recovery journal are untouched.
    pub(super) fn reset_measurement(&mut self) {
        self.warmup_done = true;
        self.measure_start = self.clock;
        for core in &mut self.cores {
            core.stats = CoreStats::new();
        }
        self.hier.stats = pmacc_cache::HierarchyStats::new(self.cfg.cores);
        self.nvm.stats = pmacc_mem::MemStats::new();
        self.dram.stats = pmacc_mem::MemStats::new();
        self.scheme.reset_stats();
        // Stall totals just reset, so the sampler's deltas must restart
        // from zero too (the series itself keeps its pre-warm-up tail).
        self.sampler.prev_stalls = [0; StallKind::COUNT];
    }
}

// The experiment harness fans independent `System` runs out across
// threads (`pmacc_bench::pool`); each cell owns its entire machine, so
// these types must stay `Send`. Compile-time audit — introducing a
// non-`Send` field (`Rc`, `RefCell`-of-shared, raw pointer) breaks the
// build here, not at the distant pool call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<RunConfig>();
    assert_send::<crate::RunReport>();
    assert_send::<crate::recovery::CrashState>();
    assert_send::<crate::TxCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::DurableState;
    use pmacc_cpu::Op;
    use pmacc_types::layout::CORE_STRIDE;
    use pmacc_types::WriteCause;
    use pmacc_types::{layout, SchemeKind};
    use pmacc_workloads::build;

    fn tiny_machine(scheme: SchemeKind) -> MachineConfig {
        MachineConfig::small().with_scheme(scheme)
    }

    fn simple_trace() -> Trace {
        let mut t = Trace::new();
        let base = layout::persistent_heap_base();
        for i in 0..20u64 {
            t.push(Op::TxBegin);
            t.push(Op::Compute(2));
            t.push(Op::store(base.offset(i * 64), i + 1));
            t.push(Op::load(base.offset(i * 64)));
            t.push(Op::TxEnd);
        }
        t
    }

    fn run_simple(scheme: SchemeKind) -> (RunReport, System) {
        let cfg = tiny_machine(scheme);
        let traces = vec![simple_trace(); cfg.cores];
        let mut sys = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        let report = sys.run().unwrap();
        (report, sys)
    }

    #[test]
    fn all_schemes_run_to_completion() {
        for scheme in SchemeKind::all() {
            let (report, sys) = run_simple(scheme);
            assert_eq!(report.total_committed(), 40, "{scheme}: 20 tx x 2 cores");
            assert_eq!(sys.crash_state().scheme, scheme);
            assert!(report.cycles > 0);
            assert!(report.ipc() > 0.0);
            // The report keeps one TC entry per core under every scheme;
            // the gated metrics only sum over them, so check the shape.
            assert_eq!(report.tc.len(), sys.cfg.cores, "{scheme}");
            if scheme != SchemeKind::TxCache {
                let zero = format!("{:?}", TcStats::default());
                assert!(
                    report.tc.iter().all(|t| format!("{t:?}") == zero),
                    "{scheme}: TC stats without a TC"
                );
                assert_eq!(report.dropped_llc_writes, 0, "{scheme}");
            }
        }
    }

    #[test]
    fn sampler_records_a_time_series() {
        let cfg = tiny_machine(SchemeKind::TxCache);
        let traces = vec![simple_trace(); cfg.cores];
        let rc = RunConfig {
            sample_period: 64,
            ..RunConfig::default()
        };
        let mut sys = System::new(cfg, traces, &[], &rc).unwrap();
        let report = sys.run().unwrap();
        let s = &report.series;
        assert_eq!(s.period, 64);
        assert!(
            !s.samples.is_empty(),
            "a multi-hundred-cycle run must sample"
        );
        assert!(s.channels.iter().any(|c| c == "tc_occupancy"));
        assert!(s.channels.iter().any(|c| c == "stall_frac/load"));
        // Sample times are strictly increasing multiples of the period.
        for w in s.samples.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(s.samples.iter().all(|(t, _)| t % 64 == 0));
        // The TC scheme buffers stores, so occupancy must be visible at
        // some point of the run.
        let occ = s.channel("tc_occupancy").unwrap();
        assert!(
            occ.iter().any(|(_, v)| *v > 0.0),
            "TC never occupied: {occ:?}"
        );
    }

    #[test]
    fn sampling_disabled_yields_empty_series() {
        let cfg = tiny_machine(SchemeKind::Optimal);
        let traces = vec![simple_trace(); cfg.cores];
        let rc = RunConfig {
            sample_period: 0,
            ..RunConfig::default()
        };
        let mut sys = System::new(cfg, traces, &[], &rc).unwrap();
        let report = sys.run().unwrap();
        assert_eq!(report.series, pmacc_telemetry::SeriesReport::empty());
    }

    #[test]
    fn sampling_does_not_perturb_results() {
        // Telemetry must be observation-only: the same seed and machine
        // must produce identical timing with and without sampling.
        let run = |period| {
            let cfg = tiny_machine(SchemeKind::TxCache);
            let traces = vec![simple_trace(); cfg.cores];
            let rc = RunConfig {
                sample_period: period,
                ..RunConfig::default()
            };
            let mut sys = System::new(cfg, traces, &[], &rc).unwrap();
            sys.run().unwrap()
        };
        let with = run(128);
        let without = run(0);
        assert_eq!(with.cycles, without.cycles);
        assert_eq!(with.nvm.writes(), without.nvm.writes());
        assert!(!with.series.samples.is_empty());
    }

    #[test]
    fn optimal_is_fastest() {
        let (opt, _) = run_simple(SchemeKind::Optimal);
        let (sp, _) = run_simple(SchemeKind::Sp);
        let (tc, _) = run_simple(SchemeKind::TxCache);
        assert!(sp.cycles > opt.cycles, "SP must be slower than Optimal");
        assert!(
            tc.cycles <= sp.cycles,
            "TC must not be slower than software logging"
        );
    }

    #[test]
    fn tc_scheme_persists_through_the_side_path() {
        let (report, sys) = run_simple(SchemeKind::TxCache);
        assert!(
            report.nvm.writes_with_cause(WriteCause::TxCacheDrain) > 0,
            "committed entries drain to NVM"
        );
        // After quiescing, all committed values are durable.
        let base = layout::persistent_heap_base();
        for i in 0..20u64 {
            assert_eq!(
                sys.nvm_backing.read_word(base.offset(i * 64).word()),
                i + 1,
                "core-0 store {i} durable"
            );
        }
    }

    /// A one-core system running `ops` over an initial image whose heap
    /// line 0 holds `100 + i` in word `i`.
    fn over_initial_line(scheme: SchemeKind, ops: &[Op]) -> System {
        let base = layout::persistent_heap_base();
        let initial: Vec<_> = (0..8u64)
            .map(|i| (base.offset(i * 8).word(), 100 + i))
            .collect();
        let mut cfg = tiny_machine(scheme);
        cfg.cores = 1;
        let trace = ops.iter().copied().collect();
        System::new(cfg, vec![trace], &initial, &RunConfig::default()).unwrap()
    }

    #[test]
    fn write_back_of_a_partly_stored_line_carries_the_initial_words() {
        // One stored word, then clwb writes the whole line back.
        let base = layout::persistent_heap_base();
        let store = Op::store(base.offset(8), 99);
        let flush = Op::Flush { addr: base };
        let mut sys = over_initial_line(
            SchemeKind::Sp,
            &[Op::TxBegin, store, Op::TxEnd, flush, Op::Fence],
        );
        sys.run().unwrap();
        let line = sys.nvm_backing.read_line(base.line());
        assert_eq!(line, [100, 99, 102, 103, 104, 105, 106, 107]);
    }

    #[test]
    fn eadr_crash_mid_transaction_restores_the_initial_line() {
        let base = layout::persistent_heap_base();
        let stores = [
            Op::store(base.offset(8), 99),
            Op::store(base.offset(16), 98),
        ];
        let mut sys = over_initial_line(
            SchemeKind::Eadr,
            &[
                Op::TxBegin,
                stores[0],
                stores[1],
                Op::Compute(100_000),
                Op::TxEnd,
            ],
        );
        sys.run_until(5_000).unwrap();
        let state = sys.crash_state();
        assert!(
            state.in_flight[0].is_some(),
            "the crash lands inside the transaction"
        );
        assert_eq!(
            state.nvm.read_word(base.offset(8).word()),
            99,
            "drained uncommitted store"
        );
        let recovered = crate::recovery::recover(&state);
        let line = recovered.read_line(base.line());
        assert_eq!(line, [100, 101, 102, 103, 104, 105, 106, 107]);
        crate::recovery::check_recovery(&state, &recovered).unwrap();
    }

    #[test]
    fn sp_scheme_writes_log_traffic() {
        let (report, _) = run_simple(SchemeKind::Sp);
        assert!(report.nvm.writes_with_cause(WriteCause::Flush) > 0);
        assert!(
            report.nvm.writes() > 20,
            "log + data flushes generate NVM writes"
        );
    }

    #[test]
    fn deterministic_runs() {
        let (a, _) = run_simple(SchemeKind::TxCache);
        let (b, _) = run_simple(SchemeKind::TxCache);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.nvm.writes(), b.nvm.writes());
    }

    #[test]
    fn workload_system_runs() {
        let cfg = tiny_machine(SchemeKind::TxCache);
        let mut sys = System::for_workload(
            cfg,
            WorkloadKind::Sps,
            &WorkloadParams::tiny(1),
            &RunConfig::default(),
        )
        .unwrap();
        let report = sys.run().unwrap();
        assert_eq!(report.total_committed(), 100, "50 swaps x 2 cores");
    }

    #[test]
    fn fence_waits_for_flush_acks() {
        // store -> clwb -> sfence: the fence cannot retire before the NVM
        // write round-trips (76 ns = 152 cycles at 2 GHz, plus queueing).
        let base = layout::persistent_heap_base();
        let mut with_fence = Trace::new();
        with_fence.push(Op::store(base, 1));
        with_fence.push(Op::Flush { addr: base });
        with_fence.push(Op::Fence);
        let mut without = Trace::new();
        without.push(Op::store(base, 1));

        let run = |t: Trace| {
            let mut cfg = tiny_machine(SchemeKind::Optimal);
            cfg.cores = 1;
            let mut sys = System::new(cfg, vec![t], &[], &RunConfig::default()).unwrap();
            sys.run().unwrap().cycles
        };
        let fenced = run(with_fence);
        let unfenced = run(without);
        assert!(
            fenced >= unfenced + 152,
            "fence must wait out the NVM write ({fenced} vs {unfenced})"
        );
    }

    #[test]
    fn pcommit_waits_out_prior_writes() {
        let base = layout::persistent_heap_base();
        let mut t = Trace::new();
        // Ten flushed lines, then a pcommit: it must wait for all of them.
        for i in 0..10u64 {
            t.push(Op::store(base.offset(i * 64), i));
            t.push(Op::Flush {
                addr: base.offset(i * 64),
            });
        }
        t.push(Op::PCommit);
        let mut cfg = tiny_machine(SchemeKind::Optimal);
        cfg.cores = 1;
        let mut sys = System::new(cfg, vec![t], &[], &RunConfig::default()).unwrap();
        let r = sys.run().unwrap();
        assert!(r.cycles >= 152, "pcommit waited for the writes");
        assert_eq!(r.nvm.writes(), 10);
    }

    #[test]
    fn tiny_write_queue_backpressure_does_not_deadlock() {
        let mut cfg = tiny_machine(SchemeKind::TxCache);
        cfg.nvm.write_queue = 2;
        cfg.nvm.drain_low = 0.4;
        cfg.nvm.drain_high = 0.9;
        let traces = vec![simple_trace(); cfg.cores];
        let mut sys = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        let report = sys.run().unwrap();
        assert_eq!(report.total_committed(), 40);
    }

    #[test]
    fn nvllc_pin_pressure_does_not_deadlock() {
        // A 1-way-ish tiny LLC with transactional stores hammering one
        // set forces the pin-blocked path and its escape hatch.
        let mut cfg = tiny_machine(SchemeKind::NvLlc);
        cfg.cores = 1;
        cfg.llc = pmacc_types::CacheConfig::new(2 * 64 * 2, 2, 10.0); // 2 sets x 2 ways
        cfg.l1 = pmacc_types::CacheConfig::new(2 * 64 * 2, 2, 0.5);
        cfg.l2 = pmacc_types::CacheConfig::new(2 * 64 * 2, 2, 4.5);
        let base = layout::persistent_heap_base();
        let mut t = Trace::new();
        for tx in 0..10u64 {
            t.push(Op::TxBegin);
            for i in 0..6u64 {
                // Same LLC set (stride 2 lines), more lines than ways.
                t.push(Op::store(base.offset((tx * 6 + i) * 2 * 64), i));
            }
            t.push(Op::TxEnd);
        }
        let mut sys = System::new(cfg, vec![t], &[], &RunConfig::default()).unwrap();
        let report = sys.run().unwrap();
        assert_eq!(report.total_committed(), 10);
    }

    #[test]
    fn workload_mix_runs_heterogeneous_cores() {
        let cfg = tiny_machine(SchemeKind::TxCache);
        let mut sys = System::for_workload_mix(
            cfg,
            &[WorkloadKind::Sps, WorkloadKind::Hashtable],
            &WorkloadParams::tiny(9),
            &RunConfig::default(),
        )
        .unwrap();
        let r = sys.run().unwrap();
        assert_eq!(r.total_committed(), 100);
        // The two cores executed different op counts (different kinds).
        assert_ne!(r.cores[0].ops.value(), r.cores[1].ops.value());
    }

    #[test]
    fn mix_rejects_wrong_arity() {
        let cfg = tiny_machine(SchemeKind::Optimal);
        assert!(System::for_workload_mix(
            cfg,
            &[WorkloadKind::Sps],
            &WorkloadParams::tiny(1),
            &RunConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn huge_core_count_is_an_error_not_a_panic() {
        // The machine is validated before any per-core vector is sized,
        // so a core count no allocation can satisfy returns `Err`.
        let mut cfg = tiny_machine(SchemeKind::Optimal);
        cfg.cores = usize::MAX;
        let params = WorkloadParams::tiny(1);
        let rc = RunConfig::default();
        assert!(System::for_workload(cfg.clone(), WorkloadKind::Sps, &params, &rc).is_err());
        assert!(System::for_workload_mix(cfg, &[WorkloadKind::Sps], &params, &rc).is_err());
    }

    #[test]
    fn volatile_traffic_routes_to_dram() {
        // Volatile stores never touch the NVM channel; their evictions
        // and fills go to DRAM.
        let vol = layout::volatile_heap_base();
        let mut t = Trace::new();
        // Enough conflicting lines to force LLC evictions on the small
        // machine (64 KB LLC, 16-way, 64 sets: stride 64 lines).
        for i in 0..200u64 {
            t.push(Op::store(vol.offset(i * 64 * 64), i));
        }
        let mut cfg = tiny_machine(SchemeKind::Optimal);
        cfg.cores = 1;
        let mut sys = System::new(cfg, vec![t], &[], &RunConfig::default()).unwrap();
        let r = sys.run().unwrap();
        assert_eq!(r.nvm.writes(), 0, "no NVM traffic from volatile data");
        assert_eq!(r.nvm.reads.value(), 0);
        assert!(r.dram.writes() > 0, "evictions reach the DRAM channel");
        assert_eq!(r.residual_nvm_lines, 0);
    }

    #[test]
    fn warmup_excludes_cold_misses_from_stats() {
        // A loop over a small set of lines: cold misses on the first
        // pass, warm afterwards. Measuring after warm-up must show a far
        // lower LLC miss rate and fewer counted transactions.
        let base = layout::persistent_heap_base();
        let mut t = Trace::new();
        for round in 0..10u64 {
            t.push(Op::TxBegin);
            for i in 0..32u64 {
                t.push(Op::load(base.offset(i * 64)));
            }
            t.push(Op::store(base.offset(round * 64), round));
            t.push(Op::TxEnd);
        }
        let mut cfg = tiny_machine(SchemeKind::TxCache);
        cfg.cores = 1;
        let run = |warmup: u64| {
            let rc = RunConfig {
                warmup_commits: warmup,
                ..RunConfig::default()
            };
            let mut sys = System::new(cfg.clone(), vec![t.clone()], &[], &rc).unwrap();
            sys.run().unwrap()
        };
        let cold = run(0);
        let warm = run(2);
        assert_eq!(cold.total_committed(), 10);
        assert_eq!(warm.total_committed(), 8, "warm-up txs excluded");
        assert!(warm.cycles < cold.cycles);
        assert!(
            warm.llc_miss_rate() < cold.llc_miss_rate(),
            "warmed miss rate {} must be below cold {}",
            warm.llc_miss_rate(),
            cold.llc_miss_rate()
        );
        // Crash consistency still covers the whole run.
        let rc = RunConfig {
            warmup_commits: 2,
            ..RunConfig::default()
        };
        let mut sys = System::new(cfg.clone(), vec![t.clone()], &[], &rc).unwrap();
        sys.run().unwrap();
        assert_eq!(sys.journal().len(), 10, "journal never resets");
    }

    #[test]
    fn crash_state_snapshots_durable_state() {
        let cfg = tiny_machine(SchemeKind::TxCache);
        let traces = vec![simple_trace(); cfg.cores];
        let mut sys = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        sys.run_until(500).unwrap();
        let state = sys.crash_state();
        assert_eq!(
            state.cycle, 500,
            "the snapshot is stamped with the requested crash cycle"
        );
        assert!(
            matches!(&state.durable, DurableState::TxCache { txcaches, .. } if txcaches.len() == 2)
        );
    }

    #[test]
    fn crash_snapshots_keep_their_committed_image() {
        let mut cfg = tiny_machine(SchemeKind::TxCache);
        cfg.cores = 2;
        let params = WorkloadParams::tiny(7);
        let rc = RunConfig::default();
        let build = || System::for_workload(cfg.clone(), WorkloadKind::Sps, &params, &rc).unwrap();
        let total = build().run().unwrap().cycles;
        // The initial image with the first `n` journal entries replayed.
        let replay = |sys: &System, n: usize| {
            let mut image = sys.inputs.initial.base();
            for rec in &sys.journal[..n] {
                image.extend(rec.writes.iter().copied());
            }
            image
        };
        let mut sys = build();
        sys.run_until(total / 3).unwrap();
        let (t1, n1) = (sys.crash_state(), sys.journal.len());
        let kept = Backing::clone(&t1.committed);
        sys.run_until(2 * total / 3).unwrap();
        let (t2, n2) = (sys.crash_state(), sys.journal.len());
        assert!(0 < n1 && n1 < n2, "commits before and after t1: {n1}, {n2}");
        assert_eq!(
            *t1.committed, kept,
            "catching up never mutates a held image"
        );
        assert_eq!(*t1.committed, replay(&sys, n1));
        assert_eq!(*t2.committed, replay(&sys, n2));
        assert_eq!(t1.committed.base(), sys.inputs.initial);
        assert!(
            Arc::ptr_eq(&t2.committed, &sys.crash_state().committed),
            "with nothing committed since, the next snapshot shares the image"
        );
    }

    #[test]
    fn run_until_lands_exactly_on_the_requested_cycle() {
        // Even cycles that fall between component events — and cycles
        // after the system has quiesced — must stamp exactly.
        let cfg = tiny_machine(SchemeKind::TxCache);
        let traces = vec![simple_trace(); cfg.cores];
        let mut sys = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        for limit in [3, 777, 12_345, 1_000_000] {
            sys.run_until(limit).unwrap();
            assert_eq!(sys.clock(), limit);
            assert_eq!(sys.crash_state().cycle, limit);
        }
    }

    #[test]
    fn per_core_seeds_are_independent_streams() {
        // Core 0 must not replay the base-seed trace verbatim (the old
        // `wrapping_add(core * 0x9E37_79B9)` derivation did exactly that
        // for core 0 and gave adjacent cores correlated streams).
        let mut cfg = tiny_machine(SchemeKind::Optimal);
        cfg.cores = 2;
        let params = WorkloadParams::tiny(42);
        let sys =
            System::for_workload(cfg, WorkloadKind::Sps, &params, &RunConfig::default()).unwrap();
        let base = build(WorkloadKind::Sps, &params);
        let strided_base = inputs::stride_trace(&base.trace, 0);
        assert!(
            !sys.traces[0].ops().eq(strided_base.ops().iter().copied()),
            "core 0 must get its own seed stream, not the base seed"
        );
        // And the two cores run distinct instances: an sps trace is all
        // loads/stores at seed-chosen addresses, so the op sequences must
        // differ beyond the per-core address stride.
        let destride = |t: &CoreTrace| -> Vec<String> {
            t.ops()
                .map(|op| match op {
                    Op::Load { addr } => format!("L{}", addr.raw() % CORE_STRIDE),
                    Op::Store { addr, .. } => format!("S{}", addr.raw() % CORE_STRIDE),
                    other => format!("{other:?}"),
                })
                .collect()
        };
        assert_ne!(
            destride(&sys.traces[0]),
            destride(&sys.traces[1]),
            "cores must run distinct workload instances"
        );
    }

    #[test]
    fn serve_with_immediate_arrivals_matches_the_closed_loop() {
        // Arrivals of zero and disabled watermarks make service mode a
        // strict superset of closed-loop replay: identical timing, every
        // request completes, latency equals each request's completion
        // time.
        let cfg = tiny_machine(SchemeKind::TxCache);
        let traces = vec![simple_trace(); cfg.cores];
        let mut closed =
            System::new(cfg.clone(), traces.clone(), &[], &RunConfig::default()).unwrap();
        let closed_report = closed.run().unwrap();

        let mut open = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        let ntx = open.traces[0].stored().transactions() as usize;
        let mut sc = ServeConfig::new(vec![vec![0; ntx]; 2]);
        sc.tc_high = f64::INFINITY;
        sc.nvm_write_high = f64::INFINITY;
        open.enable_serve(sc).unwrap();
        let open_report = open.run().unwrap();

        assert_eq!(open_report.cycles, closed_report.cycles);
        assert_eq!(
            open_report.total_committed(),
            closed_report.total_committed()
        );
        let stats = open.serve_stats().unwrap();
        assert_eq!(stats.len(), 2);
        for st in &stats {
            assert_eq!(st.completed as usize, ntx);
            assert_eq!(st.shed, 0);
            assert_eq!(st.backpressure_events, 0);
            assert_eq!(st.latency.count(), ntx as u64);
            assert!(st.latency.max() > 0);
        }
    }

    #[test]
    fn serve_spaced_arrivals_idle_the_cores() {
        // Requests arriving far apart stretch the run: the makespan is
        // bounded below by the last arrival, and per-request sojourn
        // times stay short (no queueing).
        let cfg = tiny_machine(SchemeKind::TxCache);
        let traces = vec![simple_trace(); cfg.cores];
        let mut sys = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        let ntx = sys.traces[0].stored().transactions() as usize;
        let spacing = 50_000u64;
        let arrivals: Vec<Cycle> = (0..ntx as u64).map(|k| k * spacing).collect();
        sys.enable_serve(ServeConfig::new(vec![arrivals; 2]))
            .unwrap();
        let report = sys.run().unwrap();
        assert!(
            report.cycles >= (ntx as u64 - 1) * spacing,
            "makespan {} must cover the last arrival",
            report.cycles
        );
        let stats = sys.serve_stats().unwrap();
        for st in &stats {
            assert_eq!(st.completed as usize, ntx);
            assert!(
                st.latency.max() < spacing,
                "an unloaded server must not queue: p_max {}",
                st.latency.max()
            );
        }
    }

    #[test]
    fn serve_deadline_sheds_overloaded_requests() {
        // Everything arrives at cycle 0 with a 1-cycle deadline: the
        // first request per core is admitted instantly, the backlog is
        // shed, and the journal only holds the served transactions.
        let cfg = tiny_machine(SchemeKind::TxCache);
        let traces = vec![simple_trace(); cfg.cores];
        let mut sys = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        let ntx = sys.traces[0].stored().transactions() as usize;
        let mut sc = ServeConfig::new(vec![vec![0; ntx]; 2]);
        sc.max_wait = 1;
        sc.tc_high = f64::INFINITY;
        sc.nvm_write_high = f64::INFINITY;
        sys.enable_serve(sc).unwrap();
        let report = sys.run().unwrap();
        let stats = sys.serve_stats().unwrap();
        let mut served = 0u64;
        for st in &stats {
            assert_eq!(
                st.completed + st.shed,
                ntx as u64,
                "every request accounted"
            );
            assert!(st.shed > 0, "a 1-cycle deadline must shed the backlog");
            served += st.completed;
        }
        assert_eq!(report.total_committed(), served);
        assert_eq!(sys.journal().len() as u64, served);
    }

    #[test]
    fn enable_serve_validates_arrival_shapes() {
        let cfg = tiny_machine(SchemeKind::TxCache);
        let traces = vec![simple_trace(); cfg.cores];
        let mut sys = System::new(cfg.clone(), traces.clone(), &[], &RunConfig::default()).unwrap();
        assert!(
            sys.enable_serve(ServeConfig::new(vec![vec![0; 3]]))
                .is_err(),
            "core count"
        );
        let mut sys = System::new(cfg.clone(), traces.clone(), &[], &RunConfig::default()).unwrap();
        assert!(
            sys.enable_serve(ServeConfig::new(vec![vec![0; 3]; 2]))
                .is_err(),
            "arrival count must match trace transactions"
        );
        let mut sys = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        let ntx = sys.traces[0].stored().transactions() as usize;
        let mut decreasing = vec![10; ntx];
        decreasing[ntx - 1] = 5;
        assert!(
            sys.enable_serve(ServeConfig::new(vec![decreasing.clone(), decreasing]))
                .is_err(),
            "arrivals must be non-decreasing"
        );
    }

    #[test]
    fn series_tail_is_flushed_to_the_final_cycle() {
        // The last sample must land within one period of the final cycle:
        // the drain tail after the last processed event is part of the
        // series, not silently truncated.
        let cfg = tiny_machine(SchemeKind::TxCache);
        let traces = vec![simple_trace(); cfg.cores];
        let rc = RunConfig {
            sample_period: 64,
            ..RunConfig::default()
        };
        let mut sys = System::new(cfg, traces, &[], &rc).unwrap();
        let report = sys.run().unwrap();
        let last = report.series.samples.last().expect("series sampled").0;
        assert!(
            last + 64 > report.cycles,
            "last sample {last} ends more than one period before {}",
            report.cycles
        );
        // Invariants preserved: strictly increasing multiples of the period.
        for w in report.series.samples.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(report.series.samples.iter().all(|(t, _)| t % 64 == 0));
    }
}
