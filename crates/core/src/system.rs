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
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use pmacc_cache::{Access, Eviction, Hierarchy, Level, Mshr, WriteBackBuffer};
use pmacc_cpu::{CoreStats, Op, StallKind, StoreBuffer, Trace, TxRegs};
use pmacc_cpu::{PendingStore, StoreKind};
use pmacc_mem::{Backing, Completion, MemController};
use pmacc_types::{
    AccessKind, Addr, ConfigError, Counter, Cycle, FxHashMap, LineAddr, MachineConfig, MemRegion,
    MemReq, ReqId, SimError, TxId, Word, WordAddr, WriteCause, WORDS_PER_LINE,
};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

use crate::inputs::{self, CoreTrace, RunInputs};
use crate::metrics::RunReport;
use crate::recovery::{CrashState, TxRecord};
use crate::scheme::{self, SchemeState, TcWrite};
use crate::service::{self, ReqTiming, ServeConfig, ServeCore, ServeCoreStats, ServeState};
use crate::txcache::TxCache;

/// Batch limits for one core-step event (fairness between components).
const STEP_OPS: usize = 64;
const STEP_CYCLES: Cycle = 256;
/// Forced unpins start after this many pin-blocked retries.
const PIN_RETRY_LIMIT: u32 = 8;
/// Abort with [`SimError::Deadlock`] beyond this many cycles.
const MAX_CYCLES: Cycle = 20_000_000_000;
/// Retry interval for a demand load that found the read queue or MSHRs full.
const LOAD_RETRY: Cycle = 16;
/// Retry interval when an NVLLC fill finds its LLC set fully pinned (a
/// remote commit is what unpins the set, so the blocked core polls).
const PIN_RETRY: Cycle = 64;
/// Poll interval for a transactional store serialized behind a remote
/// core's conflicting active transaction. The common wake-up is *exact* —
/// [`System`] re-checks every Conflict-blocked core the moment a
/// transaction commit retires — so this interval only paces the
/// deadlock-cycle detector, which has no commit event to ride on.
const CONFLICT_RETRY: Cycle = 64;

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
    prev_stalls: [u64; 7],
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
            prev_stalls: [0; 7],
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
    LoadFill {
        core: usize,
    },
    /// An eviction, a forced unpin, or a `clwb` by core `flusher`.
    Writeback {
        line: LineAddr,
        words: [Word; WORDS_PER_LINE],
        flusher: Option<usize>,
    },
    /// A write on one of the TC's own paths.
    Tc(TcWrite),
}

#[derive(Debug)]
pub(crate) struct CoreCtx {
    idx: usize,
    pub(crate) time: Cycle,
    slot_accum: u32,
    pub(crate) regs: TxRegs,
    sb: StoreBuffer,
    sb_times: VecDeque<Cycle>,
    last_drain: Cycle,
    pending_flushes: usize,
    pub(crate) blocked: Option<StallKind>,
    stall_started: Cycle,
    finished: bool,
    pub(crate) stats: CoreStats,
    // An outstanding demand load: (line, arrival, started, persistent).
    pending_load: Option<(LineAddr, Cycle, Cycle, bool)>,
    // Whether the pending load has been accepted by a memory controller.
    load_inflight: bool,
    // Current-transaction bookkeeping.
    pub(crate) tx_writes: Vec<(WordAddr, Word)>,
    pub(crate) tx_lines: Vec<LineAddr>,
    /// The transaction whose `TX_END` is in progress.
    pub(crate) txend: Option<TxId>,
    pin_retries: u32,
    /// One-shot pass issued by the deadlock-avoidance rule: the next
    /// conflict check on this core is skipped so the lowest-index member
    /// of a mutually blocked cycle can proceed.
    conflict_exempt: bool,
    /// A `pcommit` is waiting for the NVM writes accepted before it (this
    /// durable-count target) to complete.
    pcommit: Option<u64>,
}

impl CoreCtx {
    fn new(core: usize, cfg: &MachineConfig) -> Self {
        CoreCtx {
            idx: 0,
            time: 0,
            slot_accum: 0,
            regs: TxRegs::new(core as u8),
            sb: StoreBuffer::new(cfg.core.store_buffer),
            sb_times: VecDeque::new(),
            last_drain: 0,
            pending_flushes: 0,
            blocked: None,
            stall_started: 0,
            finished: false,
            stats: CoreStats::new(),
            pending_load: None,
            load_inflight: false,
            tx_writes: Vec::new(),
            tx_lines: Vec::new(),
            txend: None,
            pin_retries: 0,
            conflict_exempt: false,
            pcommit: None,
        }
    }

    /// Charges `slots` issue slots at the configured width.
    fn charge(&mut self, slots: u32, width: u32) {
        self.slot_accum += slots;
        self.time += Cycle::from(self.slot_accum / width);
        self.slot_accum %= width;
    }

    /// Pops store-buffer entries that have drained by `self.time`.
    fn drain_sb(&mut self) {
        while let Some(&t) = self.sb_times.front() {
            if t <= self.time {
                self.sb_times.pop_front();
                self.sb.pop();
            } else {
                break;
            }
        }
    }

    pub(crate) fn begin_stall(&mut self, kind: StallKind) {
        self.blocked = Some(kind);
        self.stall_started = self.time;
    }

    pub(crate) fn end_stall(&mut self, now: Cycle) {
        if let Some(kind) = self.blocked.take() {
            let t = now.max(self.stall_started);
            self.stats.add_stall(kind, t - self.stall_started);
            self.time = self.time.max(t);
        }
    }
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
    pub(crate) tcs: Vec<TxCache>,
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
    pub(crate) dropped_llc_writes: Counter,
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
    lat_tc: Cycle,
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
            tcs: (0..cfg.cores).map(|_| TxCache::new(&cfg.txcache)).collect(),
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
            dropped_llc_writes: Counter::new(),
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
            lat_tc: cfg.txcache.latency_cycles(freq),
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

    /// Switches the run into open-system service mode: every transaction
    /// of every core's trace becomes a *request* with the given arrival
    /// cycle. Cores idle until a request arrives, defer admission while
    /// the transaction cache or the NVM write queue is saturated
    /// ([`ServeConfig::tc_high`] / [`ServeConfig::nvm_write_high`]), shed
    /// requests whose queueing delay exceeds [`ServeConfig::max_wait`],
    /// and record per-request latency into the histograms returned by
    /// [`System::serve_stats`].
    ///
    /// Must be called before the first [`System::run`]/
    /// [`System::run_until`] step; intended for runs with
    /// [`RunConfig::warmup_commits`] of zero (a measurement reset would
    /// clear the stall baselines mid-request).
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the arrival vectors do not match
    /// the core count or the per-core transaction counts, or if any
    /// per-core arrival sequence decreases.
    pub fn enable_serve(&mut self, cfg: ServeConfig) -> Result<(), SimError> {
        if cfg.arrivals.len() != self.cfg.cores {
            return Err(ConfigError::new(format!(
                "{} arrival streams supplied for {} cores",
                cfg.arrivals.len(),
                self.cfg.cores
            ))
            .into());
        }
        let mut cores = Vec::with_capacity(self.cfg.cores);
        for (c, arrivals) in cfg.arrivals.into_iter().enumerate() {
            let starts = pmacc_workloads::operation_starts(self.traces[c].stored());
            if arrivals.len() != starts.len() {
                return Err(ConfigError::new(format!(
                    "core {c}: {} arrivals for {} trace transactions",
                    arrivals.len(),
                    starts.len()
                ))
                .into());
            }
            if arrivals.windows(2).any(|w| w[0] > w[1]) {
                return Err(
                    ConfigError::new(format!("core {c}: arrivals must be non-decreasing")).into(),
                );
            }
            cores.push(ServeCore {
                arrivals,
                starts,
                next_req: 0,
                cur: None,
                stats: ServeCoreStats::default(),
            });
        }
        self.serve = Some(ServeState {
            cores,
            tc_high: cfg.tc_high,
            nvm_write_high: cfg.nvm_write_high,
            max_wait: cfg.max_wait,
        });
        Ok(())
    }

    /// The per-core open-system statistics, if the run is in service
    /// mode.
    #[must_use]
    pub fn serve_stats(&self) -> Option<Vec<&ServeCoreStats>> {
        self.serve
            .as_ref()
            .map(|s| s.cores.iter().map(|c| &c.stats).collect())
    }

    /// Whether core `c`'s admission gate sees queue saturation: the
    /// core's transaction cache at or above its high watermark, or the
    /// NVM write queue full / above its fill watermark.
    fn serve_pressure(&self, c: usize) -> bool {
        let Some(s) = self.serve.as_ref() else {
            return false;
        };
        let tc = &self.tcs[c];
        let tc_hot =
            tc.capacity() > 0 && tc.occupancy() as f64 >= s.tc_high * tc.capacity() as f64;
        let wq = self.cfg.nvm.write_queue as f64;
        let nvm_hot = self.nvm.write_queue_len() as f64 >= s.nvm_write_high * wq;
        tc_hot || nvm_hot
    }

    /// The open-system admission gate, consulted at each request boundary
    /// (`TX_BEGIN`). Returns `true` when the core must not start the
    /// transaction this step: it idles until the request's arrival,
    /// defers under queue pressure, or sheds the request entirely
    /// (jumping its trace segment and burning its transaction serial so
    /// later serials stay aligned with the recovery oracle's write
    /// table).
    fn serve_gate(&mut self, c: usize) -> bool {
        // Queue pressure depends only on the TC and the NVM queue, which
        // nothing below touches.
        let pressure = self.serve_pressure(c);
        let Some(s) = self.serve.as_mut() else {
            return false;
        };
        let max_wait = s.max_wait;
        let sc = &mut s.cores[c];
        if sc.cur.is_some() {
            return false;
        }
        let Some(&arrival) = sc.arrivals.get(sc.next_req) else {
            return false;
        };
        let core = &mut self.cores[c];
        let now = core.time;
        if now < arrival {
            // No request yet: the core idles (batching in
            // `handle_core_step` turns a long idle into an event-queue
            // jump, not a spin).
            core.time = arrival;
            return true;
        }
        if max_wait > 0 && now - arrival > max_wait {
            // Admission control: the request waited past its deadline.
            let next = sc.starts.get(sc.next_req + 1).copied();
            core.idx = next.unwrap_or_else(|| self.traces[c].stored().len());
            core.regs.skip();
            sc.stats.shed += 1;
            sc.next_req += 1;
            return true;
        }
        if pressure {
            // Backpressure: hold the request and retry shortly.
            core.time = now + service::SERVE_RETRY;
            sc.stats.backpressure_events += 1;
            sc.stats.backpressure_cycles += service::SERVE_RETRY;
            return true;
        }
        // Admit: timestamp the request and snapshot the stall baselines
        // for completion-time attribution.
        sc.cur = Some(ReqTiming {
            arrival,
            admitted: now,
            stalls: service::stall_snapshot(&core.stats),
        });
        sc.next_req += 1;
        false
    }

    /// Books a completed request's sojourn/wait/service times and its
    /// stall attribution (no-op outside service mode).
    fn serve_complete(&mut self, c: usize) {
        let Some(sc) = self.serve.as_mut().map(|s| &mut s.cores[c]) else {
            return;
        };
        let Some(req) = sc.cur.take() else {
            return;
        };
        let now = self.cores[c].time;
        let end_stalls = service::stall_snapshot(&self.cores[c].stats);
        let st = &mut sc.stats;
        st.completed += 1;
        st.latency.record(now.saturating_sub(req.arrival));
        st.wait.record(req.admitted.saturating_sub(req.arrival));
        st.service.record(now.saturating_sub(req.admitted));
        let (tc, nvm) = service::attribute_stalls(&req.stalls, &end_stalls);
        st.tc_stall.record(tc);
        st.nvm_stall.record(nvm);
    }

    /// Appends a durability-boundary record (no-op unless enabled).
    pub(crate) fn record_boundary(&mut self, class: BoundaryClass) {
        if self.run_cfg.record_boundaries {
            self.boundaries.push((self.clock, class));
        }
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

    fn req_id(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    /// Runs until every core finishes its trace; returns the run report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if no progress is possible or the
    /// cycle bound is exceeded.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.run_until(Cycle::MAX)?;
        if !self.all_finished() {
            return Err(SimError::Deadlock {
                cycle: self.clock,
                what: "event queue drained with unfinished cores".into(),
            });
        }
        // Samples are otherwise taken only when a later event crosses a
        // sample point, so the windows between the last crossing and the
        // end of the run (the drain tail) would be missing from the
        // series; flush them up to the final cycle.
        let end = self.cores.iter().map(|c| c.time).max().unwrap_or(self.clock);
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

    fn all_finished(&self) -> bool {
        self.cores.iter().all(|c| c.finished)
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
        let mut values = vec![
            self.tcs.iter().map(TxCache::occupancy).sum::<usize>() as f64,
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
            values.push(if window > 0.0 { delta as f64 / window } else { 0.0 });
        }
        rec.record(at, &values);
    }

    /// The oracle's write list for one transaction (empty for serials
    /// beyond the trace, which cannot happen in practice).
    fn oracle_writes(&self, core: usize, tx: TxId) -> Vec<(WordAddr, Word)> {
        self.inputs.tx_writes[core]
            .get(tx.serial() as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Builds the end-of-run report.
    #[must_use]
    pub fn report(&self) -> RunReport {
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
            tc: self.tcs.iter().map(|t| t.stats.clone()).collect(),
            dropped_llc_writes: self.dropped_llc_writes.value(),
            residual_nvm_lines: self.residual_nvm_lines(),
            series: self.sampler.freeze(),
            engine: self.engine,
        }
    }

    /// The committed image as of now, caught up from the journal entries
    /// committed since the last call. A snapshot still holding the previous
    /// image keeps it: `make_mut` copies the overlay instead of mutating it.
    fn committed_image(&self) -> Arc<Backing> {
        let (image, applied) = &mut *self.committed.borrow_mut();
        if *applied < self.journal.len() {
            let img = Arc::make_mut(image);
            for rec in &self.journal[*applied..] {
                img.extend(rec.writes.iter().copied());
            }
            *applied = self.journal.len();
        }
        Arc::clone(image)
    }

    /// Snapshots the durable state at the current cycle — what survives a
    /// power failure: the NVM image, the STT-RAM transaction caches, the
    /// NVLLC committed-line image, the COW areas and (under eADR) the
    /// flush-on-failure drain of every dirty cache line plus the per-core
    /// undo logs — together with the committed image the checker compares
    /// against.
    ///
    /// With wear leveling on, the NVM image is stored in *device row*
    /// space (translated through the remapper's current registers) plus
    /// the register snapshot itself — exactly what the hardware keeps —
    /// so recovery genuinely has to reconstruct the remap to read it.
    #[must_use]
    pub fn crash_state(&self) -> CrashState {
        let wear = self.nvm.wear_snapshot();
        let mut logical = self.nvm_backing.clone();
        let durable = self.durable_state(&mut logical);
        let nvm = match &wear {
            Some(snap) => snap.to_device(&logical),
            None => logical,
        };
        CrashState {
            cycle: self.clock,
            cores: self.cfg.cores,
            nvm,
            wear,
            committed: self.committed_image(),
            durable,
            in_flight: (0..self.cores.len())
                .map(|c| {
                    let core = &self.cores[c];
                    let tx = core.regs.current().or(core.txend)?;
                    Some(TxRecord {
                        tx,
                        commit_cycle: self.clock,
                        writes: self.oracle_writes(c, tx),
                    })
                })
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // Core stepping
    // ------------------------------------------------------------------

    fn handle_core_step(&mut self, c: usize) {
        if self.cores[c].finished {
            return;
        }
        if self.cores[c].blocked.is_some() {
            self.retry_blocked(c);
            return;
        }
        if self.cores[c].time > self.clock {
            // Stale wakeup: whoever advanced the core past this event's
            // time also scheduled a fresh wakeup at or after `core.time`
            // (every unblock/batch path does), so this event can die —
            // re-pushing it would make duplicates immortal.
            return;
        }
        let start = self.cores[c].time;
        for _ in 0..STEP_OPS {
            if self.cores[c].blocked.is_some() || self.cores[c].finished {
                return;
            }
            if self.cores[c].time - start > STEP_CYCLES {
                break;
            }
            self.step_one(c);
        }
        if !self.cores[c].finished && self.cores[c].blocked.is_none() {
            let at = self.cores[c].time.max(self.clock + 1);
            self.push_event(at, Event::CoreStep(c));
        }
    }

    fn retry_blocked(&mut self, c: usize) {
        match self.cores[c].blocked {
            Some(StallKind::Load) => {
                // Retry a read enqueue that found the queue full. If the
                // load is already in flight this event is stale: ignore it
                // (the completion wakes the core exactly once).
                if self.cores[c].load_inflight {
                    return;
                }
                if let Some((line, arrival, _started, _p)) = self.cores[c].pending_load {
                    self.issue_load(c, line, arrival);
                }
            }
            Some(StallKind::Fence) => self.try_finish_fence(c),
            Some(StallKind::TxCacheFull) => self.on_tc(|tc, sys| tc.resume(sys, c)),
            Some(StallKind::PinBlocked) => {
                let now = self.clock.max(self.cores[c].time);
                self.cores[c].end_stall(now);
                self.handle_core_step(c);
            }
            Some(StallKind::Conflict) => {
                // Re-derive the contended line from the store being
                // retried (the op index did not advance when the stall
                // began, so it is still the current op).
                let line = match self.traces[c].get(self.cores[c].idx) {
                    Some(Op::Store { addr, .. } | Op::LogStore { addr, .. }) => addr.line(),
                    _ => {
                        debug_assert!(false, "Conflict stall on a non-store op");
                        return;
                    }
                };
                if self.conflicting_core(c, line).is_none() {
                    // The conflicting transaction retired.
                } else if self.conflict_deadlock_break(c, line) {
                    self.cores[c].conflict_exempt = true;
                    self.cores[c].stats.conflict_overrides.inc();
                } else {
                    // Commit retirement wakes conflict-blocked cores
                    // exactly ([`System::finish_txend`]); this periodic
                    // retry only paces the deadlock detector above.
                    let at = self.clock + CONFLICT_RETRY;
                    self.push_event(at, Event::CoreStep(c));
                    return;
                }
                let now = self.clock.max(self.cores[c].time);
                self.cores[c].end_stall(now);
                self.handle_core_step(c);
            }
            _ => {}
        }
    }

    fn step_one(&mut self, c: usize) {
        let Some(op) = self.traces[c].get(self.cores[c].idx) else {
            self.cores[c].finished = true;
            self.cores[c].stats.cycles = self.cores[c].time;
            return;
        };
        let width = self.cfg.core.issue_width;
        self.cores[c].drain_sb();
        match op {
            Op::Compute(n) => {
                self.cores[c].charge(n.max(1), width);
                self.cores[c].stats.ops.add(u64::from(n.max(1)));
                self.cores[c].idx += 1;
            }
            Op::TxBegin => {
                if self.serve_gate(c) {
                    return;
                }
                self.cores[c].regs.begin();
                self.cores[c].tx_writes.clear();
                self.clear_tx_lines(c);
                self.cores[c].charge(1, width);
                self.cores[c].stats.ops.inc();
                self.cores[c].idx += 1;
            }
            Op::TxEnd => self.do_txend(c),
            Op::Load { addr } => self.do_load(c, addr),
            Op::Store { addr, value } => self.do_store(c, addr, value, StoreKind::Data),
            Op::LogStore { addr, meta, value } => {
                // Functional: the record header lands in the word after
                // the base; the store path below handles the base word.
                self.arch_image.write_word(addr.word(), meta);
                self.arch_image
                    .write_word(WordAddr::new(addr.word().raw() + 1), value);
                self.do_store(c, addr, meta, StoreKind::Log)
            }
            Op::Flush { addr } => self.do_flush(c, addr),
            Op::Fence => self.do_fence(c, None),
            // Snapshot: wait for everything the NVM controller has
            // accepted so far (later arrivals from other cores are not
            // our problem).
            Op::PCommit => self.do_fence(c, Some(self.nvm.writes_accepted())),
        }
    }

    fn llc_bank(line: LineAddr) -> usize {
        (line.raw() & 3) as usize
    }

    /// Holds `line`'s LLC bank for `dur` cycles (one per ordinary access;
    /// the full STT-RAM write for NVLLC commit bursts), returning the
    /// wait before the hold could start.
    pub(crate) fn llc_port_hold(&mut self, line: LineAddr, t: Cycle, dur: Cycle) -> Cycle {
        let b = Self::llc_bank(line);
        let wait = self.llc_port_free[b].saturating_sub(t);
        self.llc_port_free[b] = self.llc_port_free[b].max(t) + dur;
        wait
    }

    fn ctrl(&mut self, region: MemRegion) -> &mut MemController {
        match region {
            MemRegion::Nvm => &mut self.nvm,
            MemRegion::Dram => &mut self.dram,
        }
    }

    // ------------------------------------------------------------------
    // Loads
    // ------------------------------------------------------------------

    fn do_load(&mut self, c: usize, addr: Addr) {
        let persistent = addr.is_persistent();
        self.cores[c].stats.ops.inc();
        self.cores[c].stats.loads.inc();

        // Store-to-load forwarding.
        if self.cores[c].sb.forward(addr).is_some() {
            self.cores[c].charge(1, self.cfg.core.issue_width);
            self.record_load_latency(c, 1, persistent);
            self.cores[c].idx += 1;
            return;
        }

        let line = addr.line();
        let t = self.cores[c].time;
        match self.hier.access(c, Access::load(line)) {
            Err(_) => {
                self.pin_blocked(c, line);
            }
            Ok(out) => {
                self.note_invalidations(&out.invalidated);
                self.route_evictions(out.evictions);
                let pre = self.lat_l1 + self.lat_l2;
                let lat = match out.hit {
                    Some(Level::L1) => self.lat_l1,
                    Some(Level::L2) => pre,
                    Some(Level::Llc) | None => {
                        pre + self.llc_port_hold(line, t + pre, 1) + self.lat_llc
                    }
                };
                if out.hit.is_some() {
                    self.finish_load(c, lat, persistent);
                } else if self.probe_side_path(line) {
                    self.finish_load(c, lat + self.lat_tc, persistent);
                } else {
                    // Fill from memory.
                    let arrival = t + lat;
                    self.cores[c].begin_stall(StallKind::Load);
                    self.cores[c].pending_load = Some((line, arrival, t, persistent));
                    self.issue_load(c, line, arrival);
                }
            }
        }
    }

    /// Sends core `c`'s fill of `line` to memory, merged with an outstanding
    /// fill of the line if any, or retries while the queue or MSHRs are full.
    fn issue_load(&mut self, c: usize, line: LineAddr, arrival: Cycle) {
        let region = line.region();
        if self.ctrl(region).can_accept(AccessKind::Read) {
            match self.mshr.allocate(line, c) {
                Ok(true) => {
                    let id = self.req_id();
                    self.origins.insert(id, Origin::LoadFill { core: c });
                    let req = MemReq::read(id, line, Some(c));
                    self.ctrl(region)
                        .enqueue(req, arrival)
                        .expect("checked can_accept");
                    self.cores[c].load_inflight = true;
                    self.poke_ctrl(region);
                    return;
                }
                Ok(false) => {
                    // Secondary miss: the primary's completion wakes us.
                    self.cores[c].load_inflight = true;
                    return;
                }
                Err(_) => {}
            }
        }
        self.push_event(self.clock + LOAD_RETRY, Event::CoreStep(c));
    }

    fn finish_load(&mut self, c: usize, lat: Cycle, persistent: bool) {
        self.cores[c].time += lat.max(1);
        self.record_load_latency(c, lat, persistent);
        self.cores[c].idx += 1;
        self.cores[c].pin_retries = 0;
    }

    fn record_load_latency(&mut self, c: usize, lat: Cycle, persistent: bool) {
        self.cores[c].stats.load_latency.record(lat);
        if persistent {
            self.cores[c].stats.persistent_load_latency.record(lat);
        }
    }

    // ------------------------------------------------------------------
    // Stores
    // ------------------------------------------------------------------

    fn do_store(&mut self, c: usize, addr: Addr, value: Word, kind: StoreKind) {
        let persistent = addr.is_persistent();
        let tx = self.cores[c].regs.current();
        // The transaction of a transactional persistent data store.
        let tx_data = tx.filter(|_| persistent && kind == StoreKind::Data);

        // Cross-core conflict serialization, checked before any other
        // side effect so the retried op is idempotent: a transactional
        // persistent store to a line a remote core's in-flight
        // transaction has written stalls until that transaction's commit
        // is durable, so commit order equals the order conflicting
        // writes reach the persistence domain (§3's program-order rule,
        // lifted across cores). Inert without sharing — striped cores
        // never hold the same line.
        if tx_data.is_some() {
            if self.cores[c].conflict_exempt {
                self.cores[c].conflict_exempt = false;
            } else if self.conflicting_core(c, addr.line()).is_some() {
                self.cores[c].stats.tx_conflicts.inc();
                self.cores[c].begin_stall(StallKind::Conflict);
                let at = self.clock.max(self.cores[c].time) + CONFLICT_RETRY;
                self.push_event(at, Event::CoreStep(c));
                return;
            }
        }

        // The scheme may stall the store, also before any other side
        // effect.
        let Some(acc) = self.store_access(c, addr, tx_data) else {
            return;
        };
        let line = addr.line();
        let outcome = match self.hier.access(c, acc) {
            Err(_) => {
                self.pin_blocked(c, line);
                return;
            }
            Ok(out) => out,
        };
        self.cores[c].pin_retries = 0;
        self.note_invalidations(&outcome.invalidated);
        self.route_evictions(outcome.evictions);

        // Functional: architectural memory state (DRAM contents are not
        // modeled).
        if persistent {
            self.arch_image.write_word(addr.word(), value);
        }

        // Timing: the store retires into the store buffer and drains in
        // the background; its drain cost depends on where it hit.
        let t = self.cores[c].time;
        let cost = match outcome.hit {
            Some(Level::L1) => 1,
            Some(Level::L2) => self.lat_l2,
            hit => {
                let llc = self.lat_l2 + self.llc_port_hold(line, t, 1) + self.lat_llc;
                if hit.is_some() {
                    llc
                } else if self.probe_side_path(line) {
                    llc + self.lat_tc
                } else {
                    llc + self.ctrl(line.region()).read_estimate()
                }
            }
        };
        self.cores[c].drain_sb();
        if !self.cores[c].sb.has_room() {
            // Stall until the oldest entry drains.
            let until = *self.cores[c].sb_times.front().expect("sb entries exist");
            let t0 = self.cores[c].time;
            self.cores[c]
                .stats
                .add_stall(StallKind::StoreBufferFull, until.saturating_sub(t0));
            self.cores[c].time = self.cores[c].time.max(until);
            self.cores[c].drain_sb();
        }
        let drain_at = self.cores[c].last_drain.max(self.cores[c].time) + cost;
        self.cores[c].last_drain = drain_at;
        self.cores[c].sb.push(PendingStore {
            addr,
            value,
            kind,
            tx,
        });
        self.cores[c].sb_times.push_back(drain_at);

        if let Some(tx) = tx_data {
            self.on_tc(|tc, sys| tc.buffer(sys, c, tx, addr.word(), value));
            self.cores[c].tx_writes.push((addr.word(), value));
            // Every scheme tracks the written lines: NVLLC commits them,
            // and the conflict check above reads them on remote cores
            // through the `tx_writers` bitmap (one map lookup instead of
            // a per-core list scan).
            let e = self.tx_writers.entry(line).or_insert(0);
            if *e & (1u64 << c) == 0 {
                *e |= 1u64 << c;
                self.cores[c].tx_lines.push(line);
            }
        }

        self.cores[c].charge(1, self.cfg.core.issue_width);
        self.cores[c].stats.ops.inc();
        self.cores[c].stats.stores.inc();
        self.cores[c].idx += 1;
    }

    /// The lowest-index remote core whose in-flight transaction — active,
    /// or at `TX_END` with its commit not yet durable — has written
    /// `line`. A core's bit in the `tx_writers` mask is set exactly while
    /// that condition holds (set on the first transactional write, cleared
    /// when the commit retires, [`System::finish_txend`]), so the check is
    /// one map lookup regardless of core count or write-set size.
    fn conflicting_core(&self, c: usize, line: LineAddr) -> Option<usize> {
        let writers = self.tx_writers.get(&line).copied().unwrap_or(0) & !(1u64 << c);
        if writers == 0 {
            None
        } else {
            Some(writers.trailing_zeros() as usize)
        }
    }

    /// Deadlock avoidance for conflict serialization: when transactions
    /// block each other in a cycle (each wrote a line the other wants),
    /// none can retire. The lowest-index Conflict-blocked core whose
    /// conflictors are *all* themselves Conflict-blocked gets a one-shot
    /// exemption and proceeds; everyone else keeps waiting, so the cycle
    /// unwinds deterministically one core at a time.
    fn conflict_deadlock_break(&self, c: usize, line: LineAddr) -> bool {
        if (0..c).any(|i| self.cores[i].blocked == Some(StallKind::Conflict)) {
            return false;
        }
        let mut writers = self.tx_writers.get(&line).copied().unwrap_or(0) & !(1u64 << c);
        while writers != 0 {
            let r = writers.trailing_zeros() as usize;
            writers &= writers - 1;
            if self.cores[r].blocked != Some(StallKind::Conflict) {
                return false;
            }
        }
        true
    }

    /// Drops core `c`'s transactional write-set line tracking: clears its
    /// bit from every tracked line's writer mask and empties `tx_lines`.
    fn clear_tx_lines(&mut self, c: usize) {
        let lines = std::mem::take(&mut self.cores[c].tx_lines);
        for line in lines {
            if let Some(e) = self.tx_writers.get_mut(&line) {
                *e &= !(1u64 << c);
                if *e == 0 {
                    self.tx_writers.remove(&line);
                }
            }
        }
    }

    /// Books the TC-side effect of snoop invalidations: a remote core
    /// losing its cache copies of a line must *keep* any transaction-
    /// cache entry for it — the P/V flag lives in the TC, decoupled from
    /// the cache states — so only a counter moves here.
    fn note_invalidations(&mut self, invalidated: &[(usize, LineAddr)]) {
        for &(r, line) in invalidated {
            if self.tcs[r].contains_line(line) {
                self.tcs[r].stats.remote_invalidations.inc();
            }
        }
    }

    fn pin_blocked(&mut self, c: usize, line: LineAddr) {
        self.cores[c].pin_retries += 1;
        if self.cores[c].pin_retries > PIN_RETRY_LIMIT {
            // Escape hatch: forcibly unpin the oldest uncommitted line in
            // the set and persist it out of band (hardware COW).
            if let Some(victim) = self.hier.force_unpin_for(line) {
                let words = self.arch_image.read_line(victim);
                let origin = Origin::Writeback {
                    line: victim,
                    words,
                    flusher: None,
                };
                self.post_write(victim, WriteCause::Cow, origin);
            }
            self.cores[c].pin_retries = 0;
        }
        self.cores[c].begin_stall(StallKind::PinBlocked);
        let at = self.clock.max(self.cores[c].time) + PIN_RETRY;
        self.push_event(at, Event::CoreStep(c));
    }

    // ------------------------------------------------------------------
    // Flush / fence (SP write-order control)
    // ------------------------------------------------------------------

    fn do_flush(&mut self, c: usize, addr: Addr) {
        let line = addr.line();
        self.cores[c].charge(1, self.cfg.core.issue_width);
        self.cores[c].stats.ops.inc();
        let dirty = self.hier.flush_line(c, line);
        if dirty {
            let words = self.arch_image.read_line(line);
            self.cores[c].pending_flushes += 1;
            let origin = Origin::Writeback {
                line,
                words,
                flusher: Some(c),
            };
            self.post_write(line, WriteCause::Flush, origin);
        }
        self.cores[c].idx += 1;
    }

    /// An `sfence`, or with a durable-count target a `pcommit`.
    fn do_fence(&mut self, c: usize, pcommit: Option<u64>) {
        self.cores[c].stats.ops.inc();
        self.cores[c].charge(1, self.cfg.core.issue_width);
        self.cores[c].idx += 1;
        self.cores[c].pcommit = pcommit;
        self.cores[c].begin_stall(StallKind::Fence);
        self.try_finish_fence(c);
    }

    fn try_finish_fence(&mut self, c: usize) {
        let now = self.clock.max(self.cores[c].time);
        // Store buffer must drain.
        if let Some(&back) = self.cores[c].sb_times.back() {
            if back > now {
                self.push_event(back, Event::CoreStep(c));
                return;
            }
        }
        self.cores[c].time = now;
        self.cores[c].drain_sb();
        if self.cores[c].pending_flushes > 0 {
            // A flush-ack completion re-runs this check.
            return;
        }
        if let Some(target) = self.cores[c].pcommit {
            // pcommit: every write the NVM controller had accepted — from
            // any core — must be durable before execution continues.
            if self.nvm.writes_durable() < target {
                // Any NVM completion re-runs this check.
                return;
            }
            self.cores[c].pcommit = None;
        }
        self.cores[c].end_stall(now);
        self.push_event(now, Event::CoreStep(c));
    }

    // ------------------------------------------------------------------
    // Transaction end
    // ------------------------------------------------------------------

    fn do_txend(&mut self, c: usize) {
        if self.cores[c].txend.is_none() {
            let tx = self.cores[c].regs.end();
            self.cores[c].txend = Some(tx);
            self.tx_end(c, tx);
        } else if self.cores[c].blocked.is_none() {
            self.finish_txend(c);
        }
    }

    /// Retires core `c`'s `TX_END` once its scheme made it durable: the
    /// transaction enters the journal and releases the conflict gate.
    pub(crate) fn finish_txend(&mut self, c: usize) {
        let tx = self.cores[c].txend.take().expect("txend in progress");
        self.record_boundary(BoundaryClass::TxEnd);
        self.cores[c].tx_writes.clear();
        self.clear_tx_lines(c);
        // This retirement is exactly when a remote core stalled on one of
        // this transaction's lines may proceed, so wake Conflict-blocked
        // cores now instead of leaving them to the periodic retry
        // (`retry_blocked` re-derives each one's line and re-checks, so a
        // wake against a still-contended line is harmless).
        for r in 0..self.cores.len() {
            if r != c && self.cores[r].blocked == Some(StallKind::Conflict) {
                let at = self.clock.max(self.cores[r].time);
                self.push_event(at, Event::CoreStep(r));
            }
        }
        self.journal.push(TxRecord {
            tx,
            commit_cycle: self.cores[c].time,
            writes: self.oracle_writes(c, tx),
        });
        self.cores[c].stats.tx_committed.inc();
        self.cores[c].charge(1, self.cfg.core.issue_width);
        self.cores[c].stats.ops.inc();
        self.cores[c].idx += 1;
        self.serve_complete(c);
        if !self.warmup_done
            && self.run_cfg.warmup_commits > 0
            && self.journal.len() as u64 >= self.run_cfg.warmup_commits
        {
            self.reset_measurement();
        }
    }

    /// Ends the warm-up region: zeroes every statistic so the report
    /// covers only steady-state execution. Cache/TC/queue *state* and the
    /// recovery journal are untouched.
    fn reset_measurement(&mut self) {
        self.warmup_done = true;
        self.measure_start = self.clock;
        for core in &mut self.cores {
            core.stats = CoreStats::new();
        }
        self.hier.stats = pmacc_cache::HierarchyStats::new(self.cfg.cores);
        self.nvm.stats = pmacc_mem::MemStats::new();
        self.dram.stats = pmacc_mem::MemStats::new();
        for tc in &mut self.tcs {
            tc.stats = crate::txcache::TcStats::default();
        }
        self.dropped_llc_writes = Counter::new();
        // Stall totals just reset, so the sampler's deltas must restart
        // from zero too (the series itself keeps its pre-warm-up tail).
        self.sampler.prev_stalls = [0; 7];
    }

    // ------------------------------------------------------------------
    // Eviction routing and write-backs
    // ------------------------------------------------------------------

    fn route_evictions(&mut self, evictions: Vec<Eviction>) {
        for ev in evictions {
            if !ev.dirty {
                continue;
            }
            let Some(words) = self.evicted_words(ev.line) else {
                continue;
            };
            let origin = Origin::Writeback {
                line: ev.line,
                words,
                flusher: None,
            };
            self.post_write(ev.line, WriteCause::Eviction, origin);
        }
    }

    fn post_write(&mut self, line: LineAddr, cause: WriteCause, origin: Origin) {
        let req = |id| MemReq::write(id, line, None, cause);
        self.issue_write(origin, self.clock, req);
        self.poke_ctrl(line.region());
    }

    /// Registers `origin` under a fresh request id and enqueues the write
    /// `req` builds at cycle `at`, or parks it in `wb_pending` while the
    /// queue is full. The caller then wakes the controller (`poke_ctrl`).
    pub(crate) fn issue_write(
        &mut self,
        origin: Origin,
        at: Cycle,
        req: impl FnOnce(ReqId) -> MemReq,
    ) {
        let id = self.req_id();
        self.origins.insert(id, origin);
        let req = req(id);
        if self.ctrl(req.addr.region()).enqueue(req, at).is_err() {
            self.wb_pending.push(req);
        }
    }

    /// Schedules `region`'s controller to run at its next wake-up.
    pub(crate) fn poke_ctrl(&mut self, region: MemRegion) {
        let wake = self.ctrl(region).next_wake().unwrap_or(self.clock);
        self.schedule_wake(Event::MemPoke(region), wake.max(self.clock));
    }

    fn drain_wb_pending(&mut self) {
        let mut remaining = Vec::new();
        while let Some(req) = self.wb_pending.pop() {
            let region = req.addr.region();
            let now = self.clock;
            if self.ctrl(region).enqueue(req, now).is_err() {
                remaining.push(req);
            }
        }
        for req in remaining {
            self.wb_pending.push(req);
        }
    }

    // ------------------------------------------------------------------
    // Memory completions
    // ------------------------------------------------------------------

    fn handle_mem_poke(&mut self, region: MemRegion) {
        let now = self.clock;
        let completions: Vec<Completion> = self.ctrl(region).advance(now);
        let had_completions = !completions.is_empty();
        for comp in completions {
            self.handle_completion(region, comp);
        }
        self.drain_wb_pending();
        if region == MemRegion::Nvm && had_completions {
            // pcommit waiters poll the controller's write backlog.
            for c in 0..self.cores.len() {
                if self.cores[c].blocked == Some(StallKind::Fence)
                    && self.cores[c].pcommit.is_some()
                {
                    self.try_finish_fence(c);
                }
            }
        }
        if let Some(wake) = self.ctrl(region).next_wake() {
            self.schedule_wake(Event::MemPoke(region), wake.max(self.clock + 1));
        }
    }

    fn handle_completion(&mut self, region: MemRegion, comp: Completion) {
        let Some(origin) = self.origins.remove(&comp.req.id) else {
            return;
        };
        match origin {
            Origin::LoadFill { core } => {
                // Wake the primary and every merged waiter; each records
                // latency from its own issue point.
                let waiters = self
                    .mshr
                    .complete(comp.req.addr)
                    .unwrap_or_else(|| vec![core]);
                for w in waiters {
                    let Some((_, _, started, persistent)) = self.cores[w].pending_load else {
                        continue;
                    };
                    let lat = comp.done_at.saturating_sub(started).max(1);
                    self.record_load_latency(w, lat, persistent);
                    let c = &mut self.cores[w];
                    if let Some(StallKind::Load) = c.blocked {
                        c.blocked = None;
                        c.stats
                            .add_stall(StallKind::Load, comp.done_at.saturating_sub(c.stall_started));
                    }
                    c.pending_load = None;
                    c.load_inflight = false;
                    c.time = c.time.max(comp.done_at);
                    c.idx += 1;
                    let at = c.time;
                    self.push_event(at, Event::CoreStep(w));
                }
            }
            // A DRAM write-back just retires: DRAM contents are not
            // modeled.
            Origin::Writeback {
                line,
                words,
                flusher,
            } => {
                if region == MemRegion::Nvm {
                    self.record_boundary(BoundaryClass::DrainAck);
                    self.nvm_backing.write_line(line, &words);
                }
                if let Some(core) = flusher {
                    self.cores[core].pending_flushes -= 1;
                    if self.cores[core].blocked == Some(StallKind::Fence) {
                        self.cores[core].time = self.cores[core].time.max(comp.done_at);
                        self.try_finish_fence(core);
                    }
                }
            }
            Origin::Tc(write) => self.on_tc(|tc, sys| tc.write_done(sys, write, &comp)),
        }
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
    use pmacc_types::{layout, SchemeKind};
    use pmacc_types::layout::CORE_STRIDE;
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
            assert_eq!(sys.crash_state().scheme(), scheme);
            assert!(report.cycles > 0);
            assert!(report.ipc() > 0.0);
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
        assert!(!s.samples.is_empty(), "a multi-hundred-cycle run must sample");
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
        assert!(occ.iter().any(|(_, v)| *v > 0.0), "TC never occupied: {occ:?}");
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
        let initial: Vec<_> = (0..8u64).map(|i| (base.offset(i * 8).word(), 100 + i)).collect();
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
        let stores = [Op::store(base.offset(8), 99), Op::store(base.offset(16), 98)];
        let mut sys = over_initial_line(
            SchemeKind::Eadr,
            &[Op::TxBegin, stores[0], stores[1], Op::Compute(100_000), Op::TxEnd],
        );
        sys.run_until(5_000).unwrap();
        let state = sys.crash_state();
        assert!(state.in_flight[0].is_some(), "the crash lands inside the transaction");
        assert_eq!(state.nvm.read_word(base.offset(8).word()), 99, "drained uncommitted store");
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
        assert_eq!(r.nvm.writes() , 10);
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
        assert_eq!(*t1.committed, kept, "catching up never mutates a held image");
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
        let mut closed = System::new(cfg.clone(), traces.clone(), &[], &RunConfig::default())
            .unwrap();
        let closed_report = closed.run().unwrap();

        let mut open = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
        let ntx = open.traces[0].stored().transactions() as usize;
        let mut sc = ServeConfig::new(vec![vec![0; ntx]; 2]);
        sc.tc_high = f64::INFINITY;
        sc.nvm_write_high = f64::INFINITY;
        open.enable_serve(sc).unwrap();
        let open_report = open.run().unwrap();

        assert_eq!(open_report.cycles, closed_report.cycles);
        assert_eq!(open_report.total_committed(), closed_report.total_committed());
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
        sys.enable_serve(ServeConfig::new(vec![arrivals; 2])).unwrap();
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
            assert_eq!(st.completed + st.shed, ntx as u64, "every request accounted");
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
        let mut sys = System::new(cfg.clone(), traces.clone(), &[], &RunConfig::default())
            .unwrap();
        assert!(sys.enable_serve(ServeConfig::new(vec![vec![0; 3]])).is_err(), "core count");
        let mut sys = System::new(cfg.clone(), traces.clone(), &[], &RunConfig::default())
            .unwrap();
        assert!(
            sys.enable_serve(ServeConfig::new(vec![vec![0; 3]; 2])).is_err(),
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
