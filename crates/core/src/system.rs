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
//! simulated crash; everything else dies with it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pmacc_cache::{Access, Eviction, Hierarchy, HierarchyOpts, Level, Mshr, WriteBackBuffer};
use pmacc_cpu::{CoreStats, Op, StallKind, StoreBuffer, Trace, TxRegs};
use pmacc_cpu::{PendingStore, StoreKind};
use pmacc_mem::{Backing, Completion, MemController, SchedPolicy};
use pmacc_types::rng::stream_seed;
use pmacc_types::{
    layout, AccessKind, Addr, ConfigError, Counter, Cycle, FxHashMap, LineAddr, MachineConfig,
    MemRegion, MemReq, ReqId, SchemeKind, SimError, TxId, Word, WordAddr, WORDS_PER_LINE,
    WORD_BYTES,
};
use pmacc_workloads::{build_shared, WorkloadKind, WorkloadParams};

use crate::metrics::RunReport;
use crate::recovery::{CowTxShadow, CrashState, TxRecord};
use crate::scheme;
use crate::service::{self, ReqTiming, ServeConfig, ServeCore, ServeCoreStats, ServeState};
use crate::txcache::TxCache;

use pmacc_types::layout::MAX_STRIDED_CORES;

/// Batch limits for one core-step event (fairness between components).
const STEP_OPS: usize = 64;
const STEP_CYCLES: Cycle = 256;
/// Forced unpins start after this many pin-blocked retries.
const PIN_RETRY_LIMIT: u32 = 8;

/// Run-level options.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Abort with [`SimError::Deadlock`] beyond this many cycles.
    pub max_cycles: Cycle,
    /// Retry interval when an NVLLC fill finds its LLC set fully pinned
    /// (a remote commit is what unpins the set, so the blocked core
    /// polls).
    pub pin_retry: Cycle,
    /// Poll interval for a transactional store serialized behind a
    /// remote core's conflicting active transaction. The common wake-up
    /// is *exact* — [`System`] re-checks every Conflict-blocked core the
    /// moment a transaction commit retires — so this interval only
    /// paces the deadlock-cycle detector, which has no commit event to
    /// ride on.
    pub conflict_retry: Cycle,
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
            max_cycles: 20_000_000_000,
            pin_retry: 64,
            conflict_retry: 64,
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
enum Event {
    CoreStep(usize),
    MemPoke(u8), // 0 = NVM, 1 = DRAM
    TcDrain(usize),
    /// Clock-only wake-up: advances the clock (and the sampler) to an
    /// exact cycle without touching any component — the skip-ahead
    /// primitive `run_until` uses so a crash snapshot is stamped with the
    /// *requested* cycle rather than whatever event happened to process
    /// last before it.
    Wake,
}

#[derive(Debug, Clone)]
enum Origin {
    LoadFill {
        core: usize,
    },
    Writeback {
        line: LineAddr,
        words: [Word; WORDS_PER_LINE],
    },
    FlushAck {
        core: usize,
        words: [Word; WORDS_PER_LINE],
        line: LineAddr,
    },
    TcAck {
        core: usize,
        slot: usize,
        line: LineAddr,
        values: [Option<Word>; WORDS_PER_LINE],
        /// Commit order of the owning transaction, so acks of two cores'
        /// writes to one shared word apply in commit order regardless of
        /// NVM completion order.
        seq: u64,
    },
    CowData {
        core: usize,
    },
    CowRecord {
        core: usize,
        tx: TxId,
    },
    CowInstall {
        core: usize,
        tx: TxId,
        word: WordAddr,
        value: Word,
        /// Commit order of the overflowed transaction (see `TcAck::seq`).
        seq: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxEndPhase {
    WaitCowData,
    WaitCowRecord,
}

#[derive(Debug)]
struct CoreCtx {
    idx: usize,
    time: Cycle,
    slot_accum: u32,
    regs: TxRegs,
    sb: StoreBuffer,
    sb_times: VecDeque<Cycle>,
    last_drain: Cycle,
    pending_flushes: usize,
    blocked: Option<StallKind>,
    stall_started: Cycle,
    finished: bool,
    stats: CoreStats,
    // An outstanding demand load: (line, arrival, started, persistent).
    pending_load: Option<(LineAddr, Cycle, Cycle, bool)>,
    // Whether the pending load has been accepted by a memory controller.
    load_inflight: bool,
    // Current-transaction bookkeeping.
    tx_writes: Vec<(WordAddr, Word)>,
    tx_lines: Vec<LineAddr>,
    txend: Option<(TxId, Option<TxEndPhase>)>,
    // Copy-on-write fall-back state (TC overflow).
    cow_active: bool,
    cow_pending: usize,
    cow_cursor: u64,
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
            cow_active: false,
            cow_pending: 0,
            cow_cursor: 0,
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

    fn begin_stall(&mut self, kind: StallKind) {
        self.blocked = Some(kind);
        self.stall_started = self.time;
    }

    fn end_stall(&mut self, now: Cycle) {
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
    traces: Vec<Trace>,
    cores: Vec<CoreCtx>,
    hier: Hierarchy,
    tcs: Vec<TxCache>,
    nvm: MemController,
    dram: MemController,
    nvm_backing: Backing,
    dram_backing: Backing,
    initial_nvm: Backing,
    volatile: FxHashMap<WordAddr, Word>,
    nv_llc_committed: FxHashMap<WordAddr, Word>,
    cow_shadow: Vec<Vec<CowTxShadow>>,
    /// Outstanding home-location installs per overflowed transaction;
    /// its COW-area shadow is freed (truncated) when this reaches zero.
    cow_installs: FxHashMap<(usize, TxId), usize>,
    /// Oracle: per core, per transaction serial, the persistent data
    /// writes the transaction performs — derived statically from the
    /// traces, so it is independent of how far execution got (SP's commit
    /// marker can become durable before its deferred data stores run).
    tx_write_table: Vec<Vec<Vec<(WordAddr, Word)>>>,
    /// Per shared-window word, the highest commit order whose value has
    /// been applied to the durable NVM image. Two cores' committed writes
    /// to a shared word may complete at the NVM out of commit order; this
    /// keeps the functional image ordered by commit without perturbing
    /// timing. Private (striped) words never alias, so they skip the map.
    durable_word_seq: FxHashMap<WordAddr, u64>,
    /// Cached [`layout::shared_pool_base`] word bound for the check above.
    shared_word_base: u64,
    /// Cached [`layout::extended_heap_base`] word bound: words at or above
    /// it are extended-core private images, which never alias either.
    shared_word_end: u64,
    /// Per line, a bitmap of cores whose in-flight transaction (active or
    /// awaiting commit durability) has written it. Bit `c` is set iff
    /// `line` is in `cores[c].tx_lines`; the conflict check reads this map
    /// instead of scanning every remote core's write-set list.
    tx_writers: FxHashMap<LineAddr, u64>,
    /// eADR only: per core, the first-write pre-image of every persistent
    /// word the in-flight transaction has overwritten. Under eADR an
    /// uncommitted store is durable the moment it is written, so rollback
    /// after a crash needs these pre-images; the log is modeled as part
    /// of the residual-energy-protected domain and exported by
    /// [`System::crash_state`]. Cleared at commit; empty for every other
    /// scheme.
    eadr_undo: Vec<FxHashMap<WordAddr, Word>>,
    /// Cycle at which measurement started (after warm-up, if any).
    measure_start: Cycle,
    warmup_done: bool,
    journal: Vec<TxRecord>,
    /// Durability-boundary cycles (empty unless
    /// [`RunConfig::record_boundaries`] is set).
    boundaries: Vec<(Cycle, BoundaryClass)>,
    dropped_llc_writes: Counter,
    clock: Cycle,
    events: BinaryHeap<Reverse<(Cycle, u64, Event)>>,
    seq: u64,
    origins: FxHashMap<ReqId, Origin>,
    next_req: u64,
    /// Banked LLC port model: one access per cycle per bank; NVLLC commit
    /// bursts hold a single bank for the full STT-RAM write.
    llc_port_free: [Cycle; 4],
    /// Outstanding demand-load fills, merged across cores (a second core
    /// missing on an in-flight line piggybacks on the first fill).
    mshr: Mshr<usize>,
    /// Write-backs waiting for memory-controller queue room.
    wb_pending: WriteBackBuffer,
    mem_poke_at: [Option<Cycle>; 2],
    tc_drain_at: Vec<Option<Cycle>>,
    /// Open-system service mode ([`System::enable_serve`]); `None` runs
    /// the classic closed loop.
    serve: Option<ServeState>,
    run_cfg: RunConfig,
    sampler: Sampler,
    /// Event-engine effort counters (performance diagnostics).
    pub engine: EngineStats,
    // Cached latencies (cycles).
    lat_l1: Cycle,
    lat_l2: Cycle,
    lat_llc: Cycle,
    lat_tc: Cycle,
    /// NVLLC commit-flush (STT-RAM write) port occupancy per line.
    lat_llc_write: Cycle,
}

impl System {
    /// Builds a system executing the given *raw* per-core traces (the
    /// scheme's instrumentation is applied here) over the given initial
    /// persistent/volatile memory image.
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
            .iter()
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
        let freq = cfg.core.freq;
        let opts = HierarchyOpts {
            pin_uncommitted_in_llc: cfg.scheme == SchemeKind::NvLlc,
        };
        let mut nvm_backing = Backing::new();
        let mut dram_backing = Backing::new();
        let mut volatile = FxHashMap::default();
        for &(w, v) in initial {
            volatile.insert(w, v);
            if w.is_persistent() {
                nvm_backing.write_word(w, v);
            } else {
                dram_backing.write_word(w, v);
            }
        }
        let tx_write_table = traces.iter().map(tx_writes_of).collect();
        let mut system = System {
            cores: (0..cfg.cores).map(|c| CoreCtx::new(c, &cfg)).collect(),
            hier: Hierarchy::new(cfg.cores, cfg.l1, cfg.l2, cfg.llc, opts),
            tcs: (0..cfg.cores).map(|_| TxCache::new(&cfg.txcache)).collect(),
            nvm: MemController::new(MemRegion::Nvm, cfg.nvm, SchedPolicy::FrFcfs),
            dram: MemController::new(MemRegion::Dram, cfg.dram, SchedPolicy::FrFcfs),
            initial_nvm: nvm_backing.clone(),
            nvm_backing,
            dram_backing,
            volatile,
            nv_llc_committed: FxHashMap::default(),
            cow_shadow: vec![Vec::new(); cfg.cores],
            cow_installs: FxHashMap::default(),
            durable_word_seq: FxHashMap::default(),
            shared_word_base: layout::shared_pool_base().word().raw(),
            shared_word_end: layout::extended_heap_base().word().raw(),
            tx_writers: FxHashMap::default(),
            eadr_undo: vec![FxHashMap::default(); cfg.cores],
            tx_write_table,
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
            mem_poke_at: [None, None],
            tc_drain_at: vec![None; cfg.cores],
            serve: None,
            run_cfg: *run_cfg,
            sampler: Sampler::new(run_cfg.sample_period),
            engine: EngineStats::default(),
            lat_l1: freq.ns_to_cycles(cfg.l1.latency_ns),
            lat_l2: freq.ns_to_cycles(cfg.l2.latency_ns),
            // Kiln's LLC is an STT-RAM array: slower than the SRAM LLC.
            lat_llc: if cfg.scheme == SchemeKind::NvLlc {
                freq.ns_to_cycles(cfg.nvllc.read_ns)
            } else {
                freq.ns_to_cycles(cfg.llc.latency_ns)
            },
            lat_llc_write: freq.ns_to_cycles(cfg.nvllc.write_ns),
            lat_tc: cfg.txcache.latency_cycles(freq),
            traces,
            cfg,
        };
        for c in 0..system.cfg.cores {
            system.push_event(0, Event::CoreStep(c));
        }
        Ok(system)
    }

    /// Builds a system where every core runs an independent instance of
    /// one Table 3 benchmark (addresses striped per core so instances are
    /// disjoint, as in a rate-style multiprogrammed run).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid machines or more cores
    /// than the striding scheme supports
    /// ([`pmacc_types::layout::MAX_STRIDED_CORES`]).
    pub fn for_workload(
        cfg: MachineConfig,
        kind: WorkloadKind,
        params: &WorkloadParams,
        run_cfg: &RunConfig,
    ) -> Result<Self, SimError> {
        let kinds = vec![kind; cfg.cores];
        System::for_workload_mix(cfg, &kinds, params, run_cfg)
    }

    /// Builds a system where each core runs a *different* benchmark — a
    /// heterogeneous multiprogrammed mix (one workload kind per core,
    /// addresses striped per core as in [`System::for_workload`]).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid machines, a kind count
    /// that does not match the core count, or more cores than the
    /// striding scheme supports.
    pub fn for_workload_mix(
        cfg: MachineConfig,
        kinds: &[WorkloadKind],
        params: &WorkloadParams,
        run_cfg: &RunConfig,
    ) -> Result<Self, SimError> {
        if kinds.len() != cfg.cores {
            return Err(ConfigError::new(format!(
                "{} workload kinds supplied for {} cores",
                kinds.len(),
                cfg.cores
            ))
            .into());
        }
        let (traces, initial) = strided_workloads(kinds, params)?;
        System::new(cfg, traces, &initial, run_cfg)
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
            let starts: Vec<usize> = (0..self.traces[c].len())
                .filter(|&i| matches!(self.traces[c].get(i), Some(Op::TxBegin)))
                .collect();
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
            retry: cfg.retry,
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
        let (k, arrival, max_wait) = {
            let Some(s) = self.serve.as_ref() else {
                return false;
            };
            let sc = &s.cores[c];
            if sc.cur.is_some() {
                return false;
            }
            let Some(&arr) = sc.arrivals.get(sc.next_req) else {
                return false;
            };
            (sc.next_req, arr, s.max_wait)
        };
        let now = self.cores[c].time;
        if now < arrival {
            // No request yet: the core idles (batching in
            // `handle_core_step` turns a long idle into an event-queue
            // jump, not a spin).
            self.cores[c].time = arrival;
            return true;
        }
        if max_wait > 0 && now - arrival > max_wait {
            // Admission control: the request waited past its deadline.
            let end = {
                let s = self.serve.as_ref().expect("serve state checked above");
                s.cores[c]
                    .starts
                    .get(k + 1)
                    .copied()
                    .unwrap_or_else(|| self.traces[c].len())
            };
            self.cores[c].idx = end;
            self.cores[c].regs.skip();
            let s = self.serve.as_mut().expect("serve state checked above");
            s.cores[c].stats.shed += 1;
            s.cores[c].next_req += 1;
            return true;
        }
        if self.serve_pressure(c) {
            // Backpressure: hold the request and retry shortly.
            let retry = self.serve.as_ref().expect("serve state checked above").retry;
            self.cores[c].time = now + retry;
            let s = self.serve.as_mut().expect("serve state checked above");
            s.cores[c].stats.backpressure_events += 1;
            s.cores[c].stats.backpressure_cycles += retry;
            return true;
        }
        // Admit: timestamp the request and snapshot the stall baselines
        // for completion-time attribution.
        let stalls = service::stall_snapshot(&self.cores[c].stats);
        let s = self.serve.as_mut().expect("serve state checked above");
        s.cores[c].cur = Some(ReqTiming {
            arrival,
            admitted: now,
            stalls,
        });
        s.cores[c].next_req += 1;
        false
    }

    /// Books a completed request's sojourn/wait/service times and its
    /// stall attribution (no-op outside service mode).
    fn serve_complete(&mut self, c: usize) {
        if self.serve.is_none() {
            return;
        }
        let now = self.cores[c].time;
        let end_stalls = service::stall_snapshot(&self.cores[c].stats);
        let s = self.serve.as_mut().expect("checked above");
        let Some(req) = s.cores[c].cur.take() else {
            return;
        };
        let st = &mut s.cores[c].stats;
        st.completed += 1;
        st.latency.record(now.saturating_sub(req.arrival));
        st.wait.record(req.admitted.saturating_sub(req.arrival));
        st.service.record(now.saturating_sub(req.admitted));
        let (tc, nvm) = service::attribute_stalls(&req.stalls, &end_stalls);
        st.tc_stall.record(tc);
        st.nvm_stall.record(nvm);
    }

    /// Appends a durability-boundary record (no-op unless enabled).
    fn record_boundary(&mut self, class: BoundaryClass) {
        if self.run_cfg.record_boundaries {
            self.boundaries.push((self.clock, class));
        }
    }

    fn push_event(&mut self, at: Cycle, ev: Event) {
        self.seq += 1;
        self.engine.wakes_scheduled += 1;
        self.events.push(Reverse((at, self.seq, ev)));
    }

    fn schedule_mem_poke(&mut self, region: MemRegion, at: Cycle) {
        let i = (region == MemRegion::Dram) as usize;
        if self.mem_poke_at[i].is_none_or(|t| at < t) {
            self.mem_poke_at[i] = Some(at);
            self.push_event(at, Event::MemPoke(i as u8));
        } else {
            self.engine.wakes_coalesced += 1;
        }
    }

    fn schedule_tc_drain(&mut self, c: usize, at: Cycle) {
        if self.tc_drain_at[c].is_none_or(|t| at < t) {
            self.tc_drain_at[c] = Some(at);
            self.push_event(at, Event::TcDrain(c));
        } else {
            self.engine.wakes_coalesced += 1;
        }
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
        if limit < Cycle::MAX && limit >= self.clock && limit <= self.run_cfg.max_cycles {
            self.push_event(limit, Event::Wake);
        }
        while let Some(Reverse((t, _, _))) = self.events.peek().copied() {
            if t > limit {
                break;
            }
            if t > self.run_cfg.max_cycles {
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
                Event::MemPoke(i) => self.handle_mem_poke(i),
                Event::TcDrain(c) => self.handle_tc_drain(c),
                Event::Wake => {}
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
        self.tx_write_table[core]
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
        let residual_nvm_lines = match self.cfg.scheme {
            // Dropped on eviction: the TC path already persisted them.
            SchemeKind::TxCache => 0,
            // Uncommitted (pinned/tagged) lines are not owed to the NVM.
            SchemeKind::NvLlc => self.hier.residual_persistent_dirty_lines(true),
            // eADR caches are ordinary write-back caches in normal
            // operation (the drain only happens at power loss), so their
            // dirty lines are still owed to the NVM like Optimal's.
            SchemeKind::Optimal | SchemeKind::Sp | SchemeKind::Eadr => {
                self.hier.residual_persistent_dirty_lines(false)
            }
        };
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
            residual_nvm_lines,
            series: self.sampler.freeze(),
            engine: self.engine,
        }
    }

    /// Snapshots the durable state at the current cycle — what survives a
    /// power failure: the NVM image, the STT-RAM transaction caches, the
    /// NVLLC committed-line image, the COW areas and (under eADR) the
    /// flush-on-failure drain of every dirty cache line plus the per-core
    /// undo logs — together with the golden journal the checker compares
    /// against.
    ///
    /// With wear leveling on, the NVM image is stored in *device row*
    /// space (translated through the remapper's current registers) plus
    /// the register snapshot itself — exactly what the hardware keeps —
    /// so recovery genuinely has to reconstruct the remap to read it.
    #[must_use]
    pub fn crash_state(&self) -> CrashState {
        let wear = self.nvm.wear_snapshot();
        // eADR: residual energy drains every dirty persistent line in
        // L1/L2/LLC to the NVM at power loss, so the crash image sees
        // them as-if-flushed — committed or not. The memory-controller
        // queues were already inside the ADR domain, so write-backs still
        // in flight (queued, or parked awaiting queue room) drain first,
        // oldest request id to newest — a line evicted twice lands its
        // newest snapshot last — and the cache drain lands newest of all.
        // The whole drain operates on logical line addresses (same path
        // as a write-back), so it composes *before* the wear remap
        // translates the image into device rows.
        let mut logical = self.nvm_backing.clone();
        if self.cfg.scheme == SchemeKind::Eadr {
            let mut pending: Vec<(ReqId, LineAddr, [Word; WORDS_PER_LINE])> = self
                .origins
                .iter()
                .filter_map(|(&id, origin)| match origin {
                    Origin::Writeback { line, words } if line.is_persistent() => {
                        Some((id, *line, *words))
                    }
                    _ => None,
                })
                .collect();
            pending.sort_unstable_by_key(|&(id, _, _)| id);
            for (_, line, words) in pending {
                logical.write_line(line, &words);
            }
            for line in self.hier.dirty_persistent_lines() {
                let words = self.snapshot_volatile(line);
                logical.write_line(line, &words);
            }
        }
        let nvm = match &wear {
            Some(snap) => snap.to_device(&logical),
            None => logical,
        };
        CrashState {
            cycle: self.clock,
            scheme: self.cfg.scheme,
            cores: self.cfg.cores,
            nvm,
            wear,
            initial_nvm: self.initial_nvm.clone(),
            txcaches: self.tcs.iter().map(|t| t.entries_fifo()).collect(),
            nv_llc_committed: self.nv_llc_committed.clone(),
            cow: self.cow_shadow.clone(),
            journal: self.journal.clone(),
            in_flight: (0..self.cores.len())
                .map(|c| {
                    let core = &self.cores[c];
                    let tx = core.regs.current().or(core.txend.map(|(t, _)| t))?;
                    Some(TxRecord {
                        tx,
                        commit_cycle: self.clock,
                        writes: self.oracle_writes(c, tx),
                    })
                })
                .collect(),
            eadr_undo: self
                .eadr_undo
                .iter()
                .map(|m| {
                    let mut v: Vec<(WordAddr, Word)> =
                        m.iter().map(|(&w, &val)| (w, val)).collect();
                    v.sort_unstable_by_key(|&(w, _)| w);
                    v
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
                    let region = line.region();
                    let ctrl = self.ctrl(region);
                    if ctrl.can_accept(AccessKind::Read) {
                        self.issue_load_fill(c, line, arrival);
                    } else {
                        let at = self.clock + 16;
                        self.push_event(at, Event::CoreStep(c));
                    }
                }
            }
            Some(StallKind::Fence) => self.try_finish_fence(c),
            Some(StallKind::TxCacheFull) => self.try_resume_tc(c),
            Some(StallKind::PinBlocked) => {
                self.cores[c].blocked = None;
                let t = self.clock.max(self.cores[c].time);
                let started = self.cores[c].stall_started;
                self.cores[c]
                    .stats
                    .add_stall(StallKind::PinBlocked, t.saturating_sub(started));
                self.cores[c].time = t;
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
                    let at = self.clock + self.run_cfg.conflict_retry;
                    self.push_event(at, Event::CoreStep(c));
                    return;
                }
                self.cores[c].blocked = None;
                let t = self.clock.max(self.cores[c].time);
                let started = self.cores[c].stall_started;
                self.cores[c]
                    .stats
                    .add_stall(StallKind::Conflict, t.saturating_sub(started));
                self.cores[c].time = t;
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
                self.volatile.insert(addr.word(), meta);
                self.volatile
                    .insert(WordAddr::new(addr.word().raw() + 1), value);
                self.do_store(c, addr, meta, StoreKind::Log)
            }
            Op::Flush { addr } => self.do_flush(c, addr),
            Op::Fence => self.do_fence(c),
            Op::PCommit => self.do_pcommit(c),
        }
    }

    fn llc_bank(line: LineAddr) -> usize {
        (line.raw() & 3) as usize
    }

    /// Takes a one-cycle slot on `line`'s LLC bank, returning the wait.
    fn llc_port_take(&mut self, line: LineAddr, t: Cycle) -> Cycle {
        let b = Self::llc_bank(line);
        let wait = self.llc_port_free[b].saturating_sub(t);
        self.llc_port_free[b] = self.llc_port_free[b].max(t) + 1;
        wait
    }

    /// Holds `line`'s LLC bank for `dur` cycles (NVLLC commit bursts),
    /// returning the wait before the hold could start.
    fn llc_port_hold(&mut self, line: LineAddr, t: Cycle, dur: Cycle) -> Cycle {
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
                match out.hit {
                    Some(Level::L1) => {
                        let lat = self.lat_l1;
                        self.finish_load(c, lat, persistent);
                    }
                    Some(Level::L2) => {
                        let lat = self.lat_l1 + self.lat_l2;
                        self.finish_load(c, lat, persistent);
                    }
                    Some(Level::Llc) => {
                        let pre = self.lat_l1 + self.lat_l2;
                        let wait = self.llc_port_take(line, t + pre);
                        let lat = pre + wait + self.lat_llc;
                        self.finish_load(c, lat, persistent);
                    }
                    None => {
                        let pre = self.lat_l1 + self.lat_l2;
                        let wait = self.llc_port_take(line, t + pre);
                        let pre = pre + wait + self.lat_llc;
                        // Under the TC scheme an LLC miss on a persistent
                        // line probes the transaction cache *in parallel*
                        // with the NVM request (§3); a hit serves the fill
                        // at CAM latency without touching the NVM.
                        if self.cfg.scheme == SchemeKind::TxCache && persistent {
                            let hit = self.tc_probe_any(line);
                            if hit {
                                self.finish_load(c, pre + self.lat_tc, persistent);
                                self.cores[c].pin_retries = 0;
                                return;
                            }
                        }
                        // Fill from memory.
                        let arrival = t + pre;
                        self.cores[c].begin_stall(StallKind::Load);
                        self.cores[c].pending_load = Some((line, arrival, t, persistent));
                        let region = line.region();
                        if self.ctrl(region).can_accept(AccessKind::Read) {
                            self.issue_load_fill(c, line, arrival);
                        } else {
                            let at = self.clock + 16;
                            self.push_event(at, Event::CoreStep(c));
                        }
                    }
                }
            }
        }
    }

    /// Broadcasts an LLC-miss probe to every core's transaction cache,
    /// stopping at the first hit (as `iter().any` would). A TC whose
    /// presence filter says the line cannot be buffered skips the CAM
    /// search entirely but still counts the broadcast as a probe miss —
    /// the probe statistics feed both the report and the energy model, so
    /// the filter must be invisible to them.
    fn tc_probe_any(&mut self, line: LineAddr) -> bool {
        for tc in &mut self.tcs {
            if tc.contains_line(line) {
                if tc.probe(line).is_some() {
                    return true;
                }
            } else {
                tc.record_probe_miss();
            }
        }
        false
    }

    fn issue_load_fill(&mut self, c: usize, line: LineAddr, arrival: Cycle) {
        // Merge with an outstanding fill of the same line if one exists.
        match self.mshr.allocate(line, c) {
            Ok(true) => {} // primary miss: fetch below
            Ok(false) => {
                // Secondary miss: the primary's completion wakes us.
                self.cores[c].load_inflight = true;
                return;
            }
            Err(_) => {
                // MSHR full: retry shortly.
                let at = self.clock + 16;
                self.push_event(at, Event::CoreStep(c));
                return;
            }
        }
        let id = self.req_id();
        self.origins.insert(id, Origin::LoadFill { core: c });
        let region = line.region();
        let req = MemReq::read(id, line, Some(c));
        self.ctrl(region)
            .enqueue(req, arrival)
            .expect("checked can_accept");
        self.cores[c].load_inflight = true;
        let wake = self.ctrl(region).next_wake().unwrap_or(arrival);
        self.schedule_mem_poke(region, wake.max(self.clock));
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
        let in_tx = self.cores[c].regs.in_tx();
        let tx = self.cores[c].regs.current();
        let tc_route =
            self.cfg.scheme == SchemeKind::TxCache && persistent && in_tx && kind == StoreKind::Data;

        // Cross-core conflict serialization, checked before any other
        // side effect so the retried op is idempotent: a transactional
        // persistent store to a line a remote core's in-flight
        // transaction has written stalls until that transaction's commit
        // is durable, so commit order equals the order conflicting
        // writes reach the persistence domain (§3's program-order rule,
        // lifted across cores). Inert without sharing — striped cores
        // never hold the same line.
        if persistent && in_tx && kind == StoreKind::Data {
            if self.cores[c].conflict_exempt {
                self.cores[c].conflict_exempt = false;
            } else if self.conflicting_core(c, addr.line()).is_some() {
                self.cores[c].stats.tx_conflicts.inc();
                self.cores[c].begin_stall(StallKind::Conflict);
                let at = self.clock.max(self.cores[c].time) + self.run_cfg.conflict_retry;
                self.push_event(at, Event::CoreStep(c));
                return;
            }
        }

        // The transaction cache may need to stall *before* any other side
        // effect so that the retried op is idempotent.
        if tc_route && !self.cores[c].cow_active {
            if self.tcs[c].overflow_triggered() {
                self.overflow_to_cow(c, tx.expect("in tx"));
            } else if self.tcs[c].is_full() {
                self.cores[c].begin_stall(StallKind::TxCacheFull);
                // An acknowledgment completion wakes the core.
                let at = self.clock + 512;
                self.push_event(at, Event::CoreStep(c));
                return;
            }
        }

        let line = addr.line();
        // NVLLC tags transactional persistent stores so the hierarchy can
        // pin them; the TC scheme needs no tagging (hierarchy unmodified).
        let tag = if self.cfg.scheme == SchemeKind::NvLlc && persistent && in_tx {
            tx
        } else {
            None
        };
        let mut acc = Access::store(line);
        if let Some(t) = tag {
            acc = acc.with_tx(t);
        }
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

        // eADR undo log, first write wins: capture the pre-image of each
        // word the in-flight transaction overwrites *before* the store
        // lands in architectural memory. Under eADR the store below is
        // already durable (the failure drain will persist it), so this
        // pre-image is what rollback restores if the transaction never
        // commits. The conflict gate above serialized cross-core writers
        // of this line, so the pre-image is the latest committed value.
        if self.cfg.scheme == SchemeKind::Eadr && persistent && in_tx && kind == StoreKind::Data {
            let w = addr.word();
            let pre = self.volatile.get(&w).copied().unwrap_or(0);
            self.eadr_undo[c].entry(w).or_insert(pre);
        }

        // Functional: architectural memory state.
        self.volatile.insert(addr.word(), value);

        // Timing: the store retires into the store buffer and drains in
        // the background; its drain cost depends on where it hit.
        let t = self.cores[c].time;
        let cost = match outcome.hit {
            Some(Level::L1) => 1,
            Some(Level::L2) => self.lat_l2,
            Some(Level::Llc) => {
                let w = self.llc_port_take(line, t);
                self.lat_l2 + w + self.lat_llc
            }
            None => {
                let w = self.llc_port_take(line, t);
                let mut fill = self.lat_l2 + w + self.lat_llc;
                let region = line.region();
                if self.cfg.scheme == SchemeKind::TxCache
                    && persistent
                    && self.tc_probe_any(line)
                {
                    // The parallel TC probe serves the fill.
                    fill += self.lat_tc;
                } else {
                    fill += self.ctrl(region).read_estimate();
                }
                fill
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

        // Scheme-specific persistent-store handling.
        if tc_route {
            if self.cores[c].cow_active {
                self.cow_write(c, tx.expect("in tx"), addr.word(), value);
            } else {
                self.tcs[c]
                    .insert(tx.expect("in tx"), addr.word(), value)
                    .expect("fullness checked above");
            }
        }
        if persistent && in_tx && kind == StoreKind::Data {
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
                let words = self.snapshot_volatile(victim);
                self.post_write(
                    victim,
                    pmacc_types::WriteCause::Cow,
                    Origin::Writeback {
                        line: victim,
                        words,
                    },
                );
            }
            self.cores[c].pin_retries = 0;
        }
        self.cores[c].begin_stall(StallKind::PinBlocked);
        let at = self.clock.max(self.cores[c].time) + self.run_cfg.pin_retry;
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
            let words = self.snapshot_volatile(line);
            self.cores[c].pending_flushes += 1;
            self.post_write(
                line,
                pmacc_types::WriteCause::Flush,
                Origin::FlushAck {
                    core: c,
                    words,
                    line,
                },
            );
        }
        self.cores[c].idx += 1;
    }

    fn do_fence(&mut self, c: usize) {
        self.cores[c].stats.ops.inc();
        self.cores[c].charge(1, self.cfg.core.issue_width);
        self.cores[c].idx += 1;
        self.cores[c].begin_stall(StallKind::Fence);
        self.try_finish_fence(c);
    }

    fn do_pcommit(&mut self, c: usize) {
        self.cores[c].stats.ops.inc();
        self.cores[c].charge(1, self.cfg.core.issue_width);
        self.cores[c].idx += 1;
        // Snapshot: wait for everything the controller has accepted so
        // far (later arrivals from other cores are not our problem).
        self.cores[c].pcommit = Some(self.nvm.writes_accepted());
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
            self.cores[c].txend = Some((tx, None));
            match self.cfg.scheme {
                // eADR commits are free: every store is already durable,
                // so TX_END only has to publish the commit (retire the
                // journal entry and release the conflict gate) — same
                // instant-retirement path as Optimal and SP.
                SchemeKind::Optimal | SchemeKind::Sp | SchemeKind::Eadr => self.finish_txend(c),
                SchemeKind::TxCache => {
                    // The commit order is the journal index this
                    // transaction takes: `finish_txend` pushes it within
                    // this same event in the non-COW case. In the COW
                    // case the TC holds no entries for this transaction
                    // (overflow discarded them), so this stamp is a
                    // no-op; the shadow's authoritative order is set when
                    // its commit record persists.
                    let seq = self.journal.len() as u64 + 1;
                    self.tcs[c].commit(tx, seq);
                    let at = self.clock.max(self.cores[c].time);
                    self.schedule_tc_drain(c, at);
                    if self.cores[c].cow_active {
                        self.cores[c].begin_stall(StallKind::TxCacheFull);
                        self.cores[c].txend = Some((tx, Some(TxEndPhase::WaitCowData)));
                        self.try_resume_tc(c);
                    } else {
                        self.finish_txend(c);
                    }
                }
                SchemeKind::NvLlc => {
                    // Blocking commit flush: push the transaction's dirty
                    // lines from L1/L2 into the nonvolatile LLC, occupying
                    // the LLC write port (the §5.2 "bursts of traffic").
                    let lines: Vec<LineAddr> = self.cores[c].tx_lines.clone();
                    let t0 = self.cores[c].time;
                    let mut t = t0;
                    for line in lines {
                        let moved = self.hier.demote_tx_line(c, line, tx);
                        if moved {
                            // Read the private copy (L2 latency) and
                            // initiate the LLC write; the core moves on to
                            // the next line while the STT-RAM write holds
                            // the bank — that hold is what "blocks
                            // subsequent cache and memory requests during
                            // transaction commits" (§5.2).
                            let w = self.llc_port_hold(line, t, self.lat_llc_write);
                            t += w + self.lat_l2 + 1;
                        }
                        self.hier.unpin_line(line);
                    }
                    if t > t0 {
                        self.cores[c].stats.add_stall(StallKind::CommitFlush, t - t0);
                        self.cores[c].time = t;
                    }
                    // Functional: these values are now committed in the
                    // nonvolatile LLC.
                    for &(w, v) in &self.cores[c].tx_writes {
                        self.nv_llc_committed.insert(w, v);
                    }
                    self.finish_txend(c);
                }
            }
        } else if self.cores[c].blocked.is_none() {
            self.finish_txend(c);
        }
    }

    fn finish_txend(&mut self, c: usize) {
        let (tx, _) = self.cores[c].txend.take().expect("txend in progress");
        self.record_boundary(BoundaryClass::TxEnd);
        self.cores[c].tx_writes.clear();
        self.clear_tx_lines(c);
        // The committed transaction's eADR undo pre-images are dead: its
        // stores are now the committed image.
        self.eadr_undo[c].clear();
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
    // Transaction-cache paths (drain, overflow COW)
    // ------------------------------------------------------------------

    fn handle_tc_drain(&mut self, c: usize) {
        if self.tc_drain_at[c] != Some(self.clock) {
            return; // stale or duplicate drain event
        }
        self.tc_drain_at[c] = None;
        // §3: "different write requests of conflicted addresses are issued
        // to the NVM in program order". An overflowed transaction's COW
        // installs are earlier in program order than anything still in
        // the FIFO, so drains wait until the installs are durable.
        if self.cow_installs.keys().any(|(core, _)| *core == c) {
            return; // the last install completion re-arms the drain
        }
        let mut issued = 0;
        let budget = self.cfg.txcache.drain_per_cycle;
        while issued < budget {
            let Some((slot, entry)) = self.tcs[c].next_issue() else {
                return;
            };
            if !self.nvm.can_accept(AccessKind::Write) {
                // Retry after the queue drains a little.
                let at = self.clock + 32;
                self.schedule_tc_drain(c, at);
                return;
            }
            let id = self.req_id();
            self.origins.insert(
                id,
                Origin::TcAck {
                    core: c,
                    slot,
                    line: entry.line,
                    values: entry.values,
                    seq: entry.commit_seq,
                },
            );
            let req = MemReq::write(id, entry.line, Some(c), pmacc_types::WriteCause::TxCacheDrain)
                .with_tx(entry.tx);
            self.nvm.enqueue(req, self.clock).expect("checked can_accept");
            self.tcs[c].mark_issued(slot);
            issued += 1;
        }
        let wake = self.nvm.next_wake().unwrap_or(self.clock);
        self.schedule_mem_poke(MemRegion::Nvm, wake.max(self.clock));
        if self.tcs[c].next_issue().is_some() {
            self.schedule_tc_drain(c, self.clock + 1);
        }
    }

    fn try_resume_tc(&mut self, c: usize) {
        // Two reasons to be TxCacheFull-blocked: a store waiting for a
        // free entry, or a COW'd transaction waiting out its commit.
        match self.cores[c].txend {
            Some((tx, Some(TxEndPhase::WaitCowData))) => {
                if self.cores[c].cow_pending == 0 {
                    // All shadow data durable: persist the commit record.
                    let id = self.req_id();
                    self.origins.insert(id, Origin::CowRecord { core: c, tx });
                    let line = layout::cow_area_base(c)
                        .offset(self.cores[c].cow_cursor * WORD_BYTES)
                        .line();
                    self.cores[c].cow_cursor += 8;
                    let req =
                        MemReq::write(id, line, Some(c), pmacc_types::WriteCause::Cow).with_tx(tx);
                    if self.nvm.enqueue(req, self.clock).is_err() {
                        self.wb_pending.push(req);
                    }
                    let wake = self.nvm.next_wake().unwrap_or(self.clock);
                    self.schedule_mem_poke(MemRegion::Nvm, wake.max(self.clock));
                    self.cores[c].txend = Some((tx, Some(TxEndPhase::WaitCowRecord)));
                }
            }
            Some((_, Some(TxEndPhase::WaitCowRecord))) => {
                // Completion handler finishes the commit.
            }
            _ => {
                // A store stalled on a full FIFO: resume when room exists.
                if !self.tcs[c].is_full() {
                    let now = self.clock.max(self.cores[c].time);
                    self.cores[c].end_stall(now);
                    self.push_event(now, Event::CoreStep(c));
                }
            }
        }
    }

    fn overflow_to_cow(&mut self, c: usize, tx: TxId) {
        self.tcs[c].stats.overflows.inc();
        self.cores[c].cow_active = true;
        // Migrate the transaction's buffered entries to the COW area.
        let entries = self.tcs[c].entries_fifo();
        let mut moved = Vec::new();
        for e in entries {
            if e.tx == tx && e.state == crate::txcache::EntryState::Active {
                for (i, v) in e.values.iter().enumerate() {
                    if let Some(v) = v {
                        moved.push((e.line.word(i), *v));
                    }
                }
            }
        }
        self.tcs[c].discard_active(tx);
        for (w, v) in moved {
            self.cow_write(c, tx, w, v);
        }
    }

    fn cow_write(&mut self, c: usize, tx: TxId, word: WordAddr, value: Word) {
        // Record the shadow copy in *issue* (program) order; NVM writes
        // may complete out of order across banks, but the commit record is
        // only written after every shadow ack, so a committed shadow is
        // always fully durable and must replay in program order.
        if let Some(last) = self.cow_shadow[c].last_mut().filter(|s| s.tx == tx && !s.committed)
        {
            last.records.push((word, value));
        } else {
            self.cow_shadow[c].push(CowTxShadow {
                tx,
                records: vec![(word, value)],
                committed: false,
                commit_seq: 0,
            });
        }
        let id = self.req_id();
        self.origins.insert(id, Origin::CowData { core: c });
        let line = layout::cow_area_base(c)
            .offset(self.cores[c].cow_cursor * WORD_BYTES)
            .line();
        self.cores[c].cow_cursor += 2;
        self.cores[c].cow_pending += 1;
        let req = MemReq::write(id, line, Some(c), pmacc_types::WriteCause::Cow).with_tx(tx);
        if self.nvm.enqueue(req, self.clock.max(self.cores[c].time)).is_err() {
            self.wb_pending.push(req);
        }
        let wake = self.nvm.next_wake().unwrap_or(self.clock);
        self.schedule_mem_poke(MemRegion::Nvm, wake.max(self.clock));
    }

    // ------------------------------------------------------------------
    // Eviction routing and write-backs
    // ------------------------------------------------------------------

    fn snapshot_volatile(&self, line: LineAddr) -> [Word; WORDS_PER_LINE] {
        let mut out = [0; WORDS_PER_LINE];
        for (i, w) in line.words().enumerate() {
            out[i] = self.volatile.get(&w).copied().unwrap_or(0);
        }
        out
    }

    fn snapshot_committed(&self, line: LineAddr) -> [Word; WORDS_PER_LINE] {
        // NVLLC write-backs carry the *committed* version of the line.
        let mut out = [0; WORDS_PER_LINE];
        for (i, w) in line.words().enumerate() {
            out[i] = self
                .nv_llc_committed
                .get(&w)
                .copied()
                .unwrap_or_else(|| self.nvm_backing.read_word(w));
        }
        out
    }

    fn route_evictions(&mut self, evictions: Vec<Eviction>) {
        for ev in evictions {
            if !ev.dirty {
                continue;
            }
            let persistent = ev.line.is_persistent();
            if persistent && self.cfg.scheme == SchemeKind::TxCache {
                // §3: dirty persistent LLC evictions are simply dropped —
                // the transaction cache is the only persistent path.
                self.dropped_llc_writes.inc();
                continue;
            }
            let words = if persistent && self.cfg.scheme == SchemeKind::NvLlc {
                self.snapshot_committed(ev.line)
            } else {
                self.snapshot_volatile(ev.line)
            };
            self.post_write(
                ev.line,
                pmacc_types::WriteCause::Eviction,
                Origin::Writeback { line: ev.line, words },
            );
        }
    }

    fn post_write(&mut self, line: LineAddr, cause: pmacc_types::WriteCause, origin: Origin) {
        let id = self.req_id();
        self.origins.insert(id, origin);
        let req = MemReq::write(id, line, None, cause);
        let region = line.region();
        let arrival = self.clock;
        if self.ctrl(region).enqueue(req, arrival).is_err() {
            self.wb_pending.push(req);
        }
        let wake = self.ctrl(region).next_wake().unwrap_or(arrival);
        self.schedule_mem_poke(region, wake.max(self.clock));
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

    fn handle_mem_poke(&mut self, which: u8) {
        let region = if which == 0 {
            MemRegion::Nvm
        } else {
            MemRegion::Dram
        };
        // Only the event matching the dedup marker is live; duplicates
        // (from markers being re-armed at earlier times) must die here,
        // otherwise each one re-arms itself forever.
        if self.mem_poke_at[which as usize] != Some(self.clock) {
            return;
        }
        self.mem_poke_at[which as usize] = None;
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
            self.schedule_mem_poke(region, wake.max(self.clock + 1));
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
            Origin::Writeback { line, words } => {
                if region == MemRegion::Nvm {
                    self.record_boundary(BoundaryClass::DrainAck);
                }
                self.apply_line(region, line, &words);
            }
            Origin::FlushAck { core, words, line } => {
                if region == MemRegion::Nvm {
                    self.record_boundary(BoundaryClass::DrainAck);
                }
                self.apply_line(region, line, &words);
                self.cores[core].pending_flushes -= 1;
                if self.cores[core].blocked == Some(StallKind::Fence) {
                    self.cores[core].time = self.cores[core].time.max(comp.done_at);
                    self.try_finish_fence(core);
                }
            }
            Origin::TcAck {
                core,
                slot,
                line,
                values,
                seq,
            } => {
                self.record_boundary(BoundaryClass::DrainAck);
                for (i, v) in values.iter().enumerate() {
                    if let Some(v) = v {
                        self.durable_write(line.word(i), *v, seq);
                    }
                }
                self.tcs[core].ack_slot(slot);
                self.schedule_tc_drain(core, self.clock);
                if self.cores[core].blocked == Some(StallKind::TxCacheFull) {
                    self.try_resume_tc(core);
                }
            }
            Origin::CowData { core } => {
                // The shadow copy (already recorded at issue, in program
                // order) is durable now.
                self.cores[core].cow_pending -= 1;
                if self.cores[core].blocked == Some(StallKind::TxCacheFull) {
                    self.cores[core].time = self.cores[core].time.max(comp.done_at);
                    self.try_resume_tc(core);
                }
            }
            Origin::CowRecord { core, tx } => {
                self.record_boundary(BoundaryClass::CowCommit);
                // The journal index this transaction takes: its
                // `finish_txend` runs below, within this same event.
                let seq = self.journal.len() as u64 + 1;
                if let Some(s) = self.cow_shadow[core]
                    .iter_mut()
                    .rev()
                    .find(|s| s.tx == tx)
                {
                    s.committed = true;
                    s.commit_seq = seq;
                }
                // Install the shadow copies in their home locations; the
                // shadow is truncated once every install is durable.
                let records: Vec<(WordAddr, Word)> = self
                    .cow_shadow[core]
                    .iter()
                    .rev()
                    .find(|s| s.tx == tx)
                    .map(|s| s.records.clone())
                    .unwrap_or_default();
                if records.is_empty() {
                    self.cow_shadow[core].retain(|s| s.tx != tx);
                } else {
                    self.cow_installs.insert((core, tx), records.len());
                }
                for (w, v) in records {
                    let id = self.req_id();
                    self.origins.insert(
                        id,
                        Origin::CowInstall {
                            core,
                            tx,
                            word: w,
                            value: v,
                            seq,
                        },
                    );
                    let req =
                        MemReq::write(id, w.line(), Some(core), pmacc_types::WriteCause::Cow);
                    if self.nvm.enqueue(req, self.clock).is_err() {
                        self.wb_pending.push(req);
                    }
                }
                let wake = self.nvm.next_wake().unwrap_or(self.clock);
                self.schedule_mem_poke(MemRegion::Nvm, wake.max(self.clock));
                // The overflowed transaction is durable; finish TX_END.
                self.cores[core].cow_active = false;
                self.cores[core].time = self.cores[core].time.max(comp.done_at);
                self.cores[core].end_stall(comp.done_at);
                self.finish_txend(core);
                let at = self.cores[core].time;
                self.push_event(at, Event::CoreStep(core));
            }
            Origin::CowInstall {
                core,
                tx,
                word,
                value,
                seq,
            } => {
                self.record_boundary(BoundaryClass::CowCommit);
                self.durable_write(word, value, seq);
                if let Some(n) = self.cow_installs.get_mut(&(core, tx)) {
                    *n -= 1;
                    if *n == 0 {
                        // Every home copy is durable: free the COW area
                        // and release the core's drain barrier.
                        self.cow_installs.remove(&(core, tx));
                        self.cow_shadow[core].retain(|s| s.tx != tx);
                        self.schedule_tc_drain(core, self.clock);
                    }
                }
            }
        }
    }

    fn apply_line(&mut self, region: MemRegion, line: LineAddr, words: &[Word; WORDS_PER_LINE]) {
        let backing = match region {
            MemRegion::Nvm => &mut self.nvm_backing,
            MemRegion::Dram => &mut self.dram_backing,
        };
        backing.write_line(line, words);
    }

    /// Applies one committed durable word write in commit order: two
    /// cores' transactions may both write a shared word, and their NVM
    /// completions can land out of commit order across banks, so shared-
    /// window words keep the highest-`seq` value. Private (striped) words
    /// — both below the window and in the extended bank above it — never
    /// alias across cores and skip the sequence map entirely.
    fn durable_write(&mut self, word: WordAddr, value: Word, seq: u64) {
        if (self.shared_word_base..self.shared_word_end).contains(&word.raw()) {
            let e = self.durable_word_seq.entry(word).or_insert(0);
            if *e > seq {
                return;
            }
            *e = seq;
        }
        self.nvm_backing.write_word(word, value);
    }
}

/// Per-transaction persistent data writes of a trace, indexed by serial.
fn tx_writes_of(trace: &Trace) -> Vec<Vec<(WordAddr, Word)>> {
    let mut out = Vec::new();
    let mut current: Option<Vec<(WordAddr, Word)>> = None;
    for op in trace.ops() {
        match *op {
            Op::TxBegin => current = Some(Vec::new()),
            Op::TxEnd => out.push(current.take().unwrap_or_default()),
            Op::Store { addr, value } if addr.is_persistent() => {
                if let Some(cur) = current.as_mut() {
                    cur.push((addr.word(), value));
                }
            }
            _ => {}
        }
    }
    out
}

/// A memory image as (word, value) pairs.
type InitialImage = Vec<(WordAddr, Word)>;

/// The raw (uninstrumented) per-core traces and the initial memory image
/// of a multiprogrammed run: core `c` runs an instance of `kinds[c]`
/// built from its own seed stream and shifted into its private heap
/// slice. This is the one place per-core seeds are derived; the
/// [`System::for_workload`] constructors run its output, and harnesses
/// that pre-instrument traces (e.g. the SP-fencing ablation) start from
/// it.
///
/// # Errors
///
/// Returns a configuration error for more kinds than the striding scheme
/// supports ([`pmacc_types::layout::MAX_STRIDED_CORES`]).
pub fn strided_workloads(
    kinds: &[WorkloadKind],
    params: &WorkloadParams,
) -> Result<(Vec<Trace>, InitialImage), SimError> {
    if kinds.len() > MAX_STRIDED_CORES {
        return Err(ConfigError::new(format!(
            "workload striding supports at most {MAX_STRIDED_CORES} cores"
        ))
        .into());
    }
    let mut traces = Vec::with_capacity(kinds.len());
    let mut initial = Vec::new();
    for (core, kind) in kinds.iter().enumerate() {
        let mut p = *params;
        p.seed = stream_seed(params.seed, core as u64);
        let w = build_shared(*kind, &p);
        traces.push(stride_trace(&w.trace, core));
        initial.extend(w.initial.iter().map(|&(a, v)| (stride_word(a, core), v)));
    }
    Ok((traces, initial))
}

/// Shifts a trace's heap addresses into `core`'s private 1 GiB slice —
/// the transformation [`strided_workloads`] applies so per-core
/// workload instances stay disjoint.
#[must_use]
fn stride_trace(trace: &Trace, core: usize) -> Trace {
    trace
        .ops()
        .iter()
        .map(|op| match *op {
            Op::Load { addr } => Op::Load {
                addr: stride_addr(addr, core),
            },
            Op::Store { addr, value } => Op::Store {
                addr: stride_addr(addr, core),
                value,
            },
            Op::LogStore { addr, meta, value } => Op::LogStore {
                addr: stride_addr(addr, core),
                meta,
                value,
            },
            Op::Flush { addr } => Op::Flush {
                addr: stride_addr(addr, core),
            },
            other => other,
        })
        .collect()
}

fn stride_addr(addr: Addr, core: usize) -> Addr {
    let raw = addr.raw();
    let volatile_heap = layout::volatile_heap_base().raw();
    let nvm = Addr::nvm_base().raw();
    let persistent_heap = layout::persistent_heap_base().raw();
    let shared_pool = layout::shared_pool_base().raw();
    // Only heap addresses stripe; the per-core log/COW scratch areas
    // (between the NVM base and the persistent heap) are already private,
    // and the shared window above the striped heap is shared by design —
    // every core addresses it identically.
    if (volatile_heap..nvm).contains(&raw) {
        Addr::new(raw + layout::volatile_heap_stride(core))
    } else if (persistent_heap..shared_pool).contains(&raw) {
        Addr::new(raw + layout::persistent_heap_stride(core))
    } else {
        addr
    }
}

/// Word-address counterpart of [`stride_trace`], for initial images.
#[must_use]
fn stride_word(w: WordAddr, core: usize) -> WordAddr {
    stride_addr(w.to_addr(), core).word()
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
    use pmacc_types::layout::CORE_STRIDE;
    use pmacc_workloads::build;

    #[test]
    fn striding_keeps_cores_disjoint_and_leaves_scratch_areas() {
        let heap = layout::persistent_heap_base();
        // Heap addresses shift by one stride per core.
        assert_eq!(stride_addr(heap, 0), heap);
        assert_eq!(stride_addr(heap, 2).raw(), heap.raw() + 2 * CORE_STRIDE);
        // Log/COW areas are already per-core and must not shift.
        let log = layout::log_area_base(1);
        assert_eq!(stride_addr(log, 3), log);
        // Volatile heap shifts too.
        let vol = layout::volatile_heap_base();
        assert_eq!(stride_addr(vol, 1).raw(), vol.raw() + CORE_STRIDE);
        // The shared window is shared by design: no shift for any core.
        let shared = layout::shared_pool_base();
        assert_eq!(stride_addr(shared, 0), shared);
        assert_eq!(stride_addr(shared.offset(4096), 3), shared.offset(4096));
        // Word form agrees with the byte form.
        assert_eq!(
            stride_word(heap.word(), 2).to_addr(),
            stride_addr(heap, 2)
        );
    }

    #[test]
    fn stride_trace_rewrites_every_memory_op() {
        let heap = layout::persistent_heap_base();
        let t: Trace = [
            Op::load(heap),
            Op::store(heap.offset(64), 5),
            Op::Flush { addr: heap },
            Op::Compute(2),
            Op::TxBegin,
            Op::TxEnd,
        ]
        .into_iter()
        .collect();
        let s = stride_trace(&t, 1);
        match s.get(0).unwrap() {
            Op::Load { addr } => assert_eq!(addr.raw(), heap.raw() + CORE_STRIDE),
            other => panic!("unexpected {other}"),
        }
        match s.get(1).unwrap() {
            Op::Store { addr, value } => {
                assert_eq!(addr.raw(), heap.raw() + 64 + CORE_STRIDE);
                assert_eq!(value, 5);
            }
            other => panic!("unexpected {other}"),
        }
        assert_eq!(s.get(3).unwrap(), Op::Compute(2));
    }

    #[test]
    fn tx_writes_table_matches_trace() {
        let heap = layout::persistent_heap_base();
        let t: Trace = [
            Op::TxBegin,
            Op::store(heap, 1),
            Op::store(Addr::new(64), 2), // volatile: not in the table
            Op::TxEnd,
            Op::TxBegin,
            Op::TxEnd,
            Op::TxBegin,
            Op::store(heap.offset(8), 3),
            Op::TxEnd,
        ]
        .into_iter()
        .collect();
        let table = tx_writes_of(&t);
        assert_eq!(table.len(), 3);
        assert_eq!(table[0], vec![(heap.word(), 1)]);
        assert!(table[1].is_empty());
        assert_eq!(table[2], vec![(heap.offset(8).word(), 3)]);
    }

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
            let (report, _) = run_simple(scheme);
            assert_eq!(report.total_committed(), 40, "{scheme}: 20 tx x 2 cores");
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
            report.nvm.writes_with_cause(pmacc_types::WriteCause::TxCacheDrain) > 0,
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

    #[test]
    fn sp_scheme_writes_log_traffic() {
        let (report, _) = run_simple(SchemeKind::Sp);
        assert!(report.nvm.writes_with_cause(pmacc_types::WriteCause::Flush) > 0);
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
        assert_eq!(state.txcaches.len(), 2);
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
        let strided_base = stride_trace(&base.trace, 0);
        assert!(
            sys.traces[0] != scheme::instrument(SchemeKind::Optimal, 0, &strided_base),
            "core 0 must get its own seed stream, not the base seed"
        );
        // And the two cores run distinct instances: an sps trace is all
        // loads/stores at seed-chosen addresses, so the op sequences must
        // differ beyond the per-core address stride.
        let destride = |t: &Trace| -> Vec<String> {
            t.ops()
                .iter()
                .map(|op| match *op {
                    Op::Load { addr } => format!("L{}", addr.raw() % CORE_STRIDE),
                    Op::Store { addr, .. } => format!("S{}", addr.raw() % CORE_STRIDE),
                    ref other => format!("{other:?}"),
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
        let ntx = open.traces[0].transactions() as usize;
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
        let ntx = sys.traces[0].transactions() as usize;
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
        let ntx = sys.traces[0].transactions() as usize;
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
        let ntx = sys.traces[0].transactions() as usize;
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
