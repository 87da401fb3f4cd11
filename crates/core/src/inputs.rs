//! A run's prepared inputs: the op stream each core fetches, the frozen
//! persistent initial image, and the oracle's per-transaction write table.
//!
//! In a multiprogrammed run ([`crate::System::for_workload_mix`]) core `c`
//! runs an instance of `kinds[c]`, generated from its own seed stream
//! ([`build_shared`] memoizes it process-wide) and shifted into `c`'s
//! private heap slice. No trace is copied for that shift: a
//! [`CoreTrace::Strided`] core fetches the shared raw trace and strides
//! each op as it is fetched. Only SP materializes its trace, because its
//! instrumentation encodes the strided data address in each log record.
//!
//! The initial image and the write table depend on the kinds and the
//! parameters alone, not on the scheme, so they are memoized as one
//! [`RunInputs`]: every scheme of an experiment grid shares one frozen
//! image per workload. The memo holds an entry weakly while some `System`
//! holds it, and the most recently used entry strongly, so it keeps at
//! most one entry that no live `System` holds.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use pmacc_cpu::{Op, Trace};
use pmacc_mem::Backing;
use pmacc_types::layout::{self, MAX_STRIDED_CORES};
use pmacc_types::rng::stream_seed;
use pmacc_types::{Addr, ConfigError, MachineConfig, SimError, Word, WordAddr};
use pmacc_workloads::{build_shared, WorkloadKind, WorkloadParams, WorkloadTrace};

use crate::scheme;

/// One core's op stream.
#[derive(Debug)]
pub(crate) enum CoreTrace {
    /// A trace the system owns: one given to [`crate::System::new`], or
    /// SP's instrumented trace.
    Owned(Trace),
    /// A shared raw workload trace, shifted into a core's heap slice as
    /// each op is fetched.
    Strided {
        raw: Arc<WorkloadTrace>,
        stride: Stride,
    },
}

impl CoreTrace {
    /// The op the core fetches at `index`, if in range.
    pub(crate) fn get(&self, index: usize) -> Option<Op> {
        match self {
            CoreTrace::Owned(t) => t.get(index),
            CoreTrace::Strided { raw, stride } => raw.trace.get(index).map(|op| stride.op(op)),
        }
    }

    /// Every op the core fetches, in order.
    pub(crate) fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        let stride = match self {
            CoreTrace::Owned(_) => Stride::NONE,
            CoreTrace::Strided { stride, .. } => *stride,
        };
        self.stored().ops().iter().map(move |&op| stride.op(op))
    }

    /// The trace as stored. Striding moves addresses only, so positions,
    /// kinds and counts of its ops are those the core fetches.
    pub(crate) fn stored(&self) -> &Trace {
        match self {
            CoreTrace::Owned(t) => t,
            CoreTrace::Strided { raw, .. } => &raw.trace,
        }
    }
}

/// What every `System` of one run's workloads shares, whatever its scheme.
#[derive(Debug)]
pub(crate) struct RunInputs {
    /// The persistent words of the initial image, frozen in the given
    /// order: a shared-window word several cores' images write keeps the
    /// last writer's value. Every image of a run overlays it.
    pub(crate) initial: Backing,
    /// Oracle: per core, per transaction serial, the persistent data
    /// writes the transaction performs — derived statically from the
    /// traces, so it is independent of how far execution got (SP's commit
    /// marker can become durable before its deferred data stores run).
    /// SP's instrumentation keeps every in-transaction persistent store,
    /// in order, before `TX_END`, so the raw traces give the same table.
    pub(crate) tx_writes: Vec<Vec<Vec<(WordAddr, Word)>>>,
}

impl RunInputs {
    /// Freezes the persistent words of `initial` and tabulates the
    /// transactions of `traces`.
    pub(crate) fn new(
        initial: impl IntoIterator<Item = (WordAddr, Word)>,
        traces: &[CoreTrace],
    ) -> Self {
        RunInputs {
            initial: initial
                .into_iter()
                .filter(|(w, _)| w.is_persistent())
                .collect(),
            tx_writes: traces.iter().map(|t| tx_writes_of(t.ops())).collect(),
        }
    }
}

/// The memo's key: the per-core kinds and the parameters they share.
type Key = (Vec<WorkloadKind>, WorkloadParams);

struct Memo {
    /// Every entry built, held weakly: alive while some `System` (or
    /// `last`) holds it.
    entries: Vec<(Key, Weak<RunInputs>)>,
    /// The most recently used entry, kept for the next run of the same
    /// workloads.
    last: Option<Arc<RunInputs>>,
}

static MEMO: Mutex<Memo> = Mutex::new(Memo {
    entries: Vec::new(),
    last: None,
});

/// The traces and shared inputs of a multiprogrammed run on `cfg`: core
/// `c` fetches its instance of `kinds[c]` strided, or runs it
/// instrumented under SP. The inputs come from the memo; a miss builds
/// them under its lock, so concurrent misses on one key build once.
///
/// # Errors
///
/// Returns a configuration error for more kinds than the striding scheme
/// supports.
pub(crate) fn prepare(
    cfg: &MachineConfig,
    kinds: &[WorkloadKind],
    params: &WorkloadParams,
) -> Result<(Vec<CoreTrace>, Arc<RunInputs>), SimError> {
    let raws = core_workloads(kinds, params)?;
    let traces: Vec<CoreTrace> = raws
        .iter()
        .enumerate()
        .map(|(core, raw)| CoreTrace::Strided {
            raw: Arc::clone(raw),
            stride: Stride::of(core),
        })
        .collect();
    let inputs = memoized(kinds, params, || {
        RunInputs::new(strided_initial(&raws), &traces)
    });
    let instrumented: Option<Vec<CoreTrace>> = traces
        .iter()
        .enumerate()
        .map(|(core, t)| scheme::instrument_ops(cfg, core, t.ops()).map(CoreTrace::Owned))
        .collect();
    Ok((instrumented.unwrap_or(traces), inputs))
}

impl Memo {
    /// The entry for `(kinds, params)`, built by `make` on a miss, and the
    /// entry it displaces as the most recently used one.
    fn lookup(
        &mut self,
        kinds: &[WorkloadKind],
        params: &WorkloadParams,
        make: impl FnOnce() -> RunInputs,
    ) -> (Arc<RunInputs>, Option<Arc<RunInputs>>) {
        self.entries.retain(|(_, e)| e.strong_count() > 0);
        let hit = self
            .entries
            .iter()
            .find(|((k, p), _)| k == kinds && p == params)
            .and_then(|(_, e)| e.upgrade());
        let inputs = hit.unwrap_or_else(|| {
            let built = Arc::new(make());
            let key = (kinds.to_vec(), *params);
            self.entries.push((key, Arc::downgrade(&built)));
            built
        });
        let previous = self.last.replace(Arc::clone(&inputs));
        (inputs, previous)
    }
}

/// The process-wide memo's entry for `(kinds, params)`, built by `make` on
/// a miss.
fn memoized(
    kinds: &[WorkloadKind],
    params: &WorkloadParams,
    make: impl FnOnce() -> RunInputs,
) -> Arc<RunInputs> {
    // `lookup` changes the memo only after `make` returns, so a panic in
    // `make` leaves it consistent.
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    let (inputs, previous) = memo.lookup(kinds, params, make);
    drop(memo);
    // An image no `System` holds any longer is freed outside the lock.
    drop(previous);
    inputs
}

/// Per-transaction persistent data writes of an op stream, by serial.
fn tx_writes_of(ops: impl IntoIterator<Item = Op>) -> Vec<Vec<(WordAddr, Word)>> {
    let mut out = Vec::new();
    let mut current: Option<Vec<(WordAddr, Word)>> = None;
    for op in ops {
        match op {
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

/// Core `c`'s unstrided instance of `kinds[c]`, from its own seed stream:
/// the one place per-core seeds are derived.
fn core_workloads(
    kinds: &[WorkloadKind],
    params: &WorkloadParams,
) -> Result<Vec<Arc<WorkloadTrace>>, SimError> {
    if kinds.len() > MAX_STRIDED_CORES {
        return Err(ConfigError::new(format!(
            "workload striding supports at most {MAX_STRIDED_CORES} cores"
        ))
        .into());
    }
    let instance = |(core, kind): (usize, &WorkloadKind)| {
        let mut p = *params;
        p.seed = stream_seed(params.seed, core as u64);
        build_shared(*kind, &p)
    };
    Ok(kinds.iter().enumerate().map(instance).collect())
}

/// The cores' initial images, each shifted into its core's heap slice,
/// concatenated in core order.
fn strided_initial(raws: &[Arc<WorkloadTrace>]) -> impl Iterator<Item = (WordAddr, Word)> + '_ {
    raws.iter().enumerate().flat_map(|(core, w)| {
        let stride = Stride::of(core);
        w.initial
            .iter()
            .map(move |&(a, v)| (stride.addr(a.to_addr()).word(), v))
    })
}

/// What striding adds to one core's volatile-heap and persistent-heap
/// addresses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stride {
    volatile: u64,
    persistent: u64,
}

impl Stride {
    /// Leaves every address where it is.
    const NONE: Stride = Stride {
        volatile: 0,
        persistent: 0,
    };

    fn of(core: usize) -> Self {
        Stride {
            volatile: layout::volatile_heap_stride(core),
            persistent: layout::persistent_heap_stride(core),
        }
    }

    fn op(self, op: Op) -> Op {
        match op {
            Op::Load { addr } => Op::Load {
                addr: self.addr(addr),
            },
            Op::Store { addr, value } => Op::Store {
                addr: self.addr(addr),
                value,
            },
            Op::LogStore { addr, meta, value } => Op::LogStore {
                addr: self.addr(addr),
                meta,
                value,
            },
            Op::Flush { addr } => Op::Flush {
                addr: self.addr(addr),
            },
            other => other,
        }
    }

    fn addr(self, addr: Addr) -> Addr {
        let raw = addr.raw();
        let volatile_heap = layout::volatile_heap_base().raw();
        let nvm = Addr::nvm_base().raw();
        let persistent_heap = layout::persistent_heap_base().raw();
        let shared_pool = layout::shared_pool_base().raw();
        // Only heap addresses stripe; the per-core log/COW scratch areas
        // (between the NVM base and the persistent heap) are already
        // private, and the shared window above the striped heap is shared
        // by design — every core addresses it identically. Which region
        // an address falls in follows the data, so the offset is selected
        // without branching.
        let volatile = u64::from((volatile_heap..nvm).contains(&raw)) * self.volatile;
        let persistent = u64::from((persistent_heap..shared_pool).contains(&raw)) * self.persistent;
        Addr::new(raw + volatile + persistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::recover;
    use crate::scheme::sp;
    use crate::{RunConfig, System};
    use pmacc_telemetry::ToJson;
    use pmacc_types::layout::CORE_STRIDE;
    use pmacc_types::{Cycle, SchemeKind, SpMode};

    /// Oracle: a copy of `trace` with its heap addresses shifted into
    /// `core`'s private slice, which a strided core must fetch op for op.
    fn stride_trace(trace: &Trace, core: usize) -> Trace {
        let stride = Stride::of(core);
        trace.ops().iter().map(|&op| stride.op(op)).collect()
    }

    /// Oracle: copies of the strided per-core traces and the initial image
    /// of a multiprogrammed run, the inputs of an owned-trace
    /// [`System::new`] run.
    fn strided_workloads(
        kinds: &[WorkloadKind],
        params: &WorkloadParams,
    ) -> (Vec<Trace>, Vec<(WordAddr, Word)>) {
        let raws = core_workloads(kinds, params).unwrap();
        let traces = raws
            .iter()
            .enumerate()
            .map(|(core, w)| stride_trace(&w.trace, core))
            .collect();
        (traces, strided_initial(&raws).collect())
    }

    #[test]
    fn striding_keeps_cores_disjoint_and_leaves_scratch_areas() {
        let heap = layout::persistent_heap_base();
        // Heap addresses shift by one stride per core.
        assert_eq!(Stride::of(0).addr(heap), heap);
        assert_eq!(Stride::of(2).addr(heap).raw(), heap.raw() + 2 * CORE_STRIDE);
        // Log/COW areas are already per-core and must not shift.
        let log = layout::log_area_base(1);
        assert_eq!(Stride::of(3).addr(log), log);
        // Volatile heap shifts too.
        let vol = layout::volatile_heap_base();
        assert_eq!(Stride::of(1).addr(vol).raw(), vol.raw() + CORE_STRIDE);
        // The shared window is shared by design: no shift for any core.
        let shared = layout::shared_pool_base();
        assert_eq!(Stride::of(0).addr(shared), shared);
        assert_eq!(Stride::of(3).addr(shared.offset(4096)), shared.offset(4096));
        // Initial images stride like the traces, core by core.
        let image = Arc::new(WorkloadTrace {
            trace: Trace::new(),
            initial: vec![(heap.word(), 7)],
        });
        let strided: Vec<_> = strided_initial(&[Arc::clone(&image), image]).collect();
        let core1 = Stride::of(1).addr(heap).word();
        assert_eq!(strided, vec![(heap.word(), 7), (core1, 7)]);
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
        let table = tx_writes_of(t.ops().iter().copied());
        assert_eq!(table.len(), 3);
        assert_eq!(table[0], vec![(heap.word(), 1)]);
        assert!(table[1].is_empty());
        assert_eq!(table[2], vec![(heap.offset(8).word(), 3)]);
    }

    #[test]
    fn the_fetch_accessor_returns_stride_trace_ops() {
        let params = WorkloadParams {
            sharing: 4,
            ..WorkloadParams::tiny(5)
        };
        let raw = build_shared(WorkloadKind::Hashtable, &params);
        for core in [0, 1, 3] {
            let strided = stride_trace(&raw.trace, core);
            let fetched = CoreTrace::Strided {
                raw: Arc::clone(&raw),
                stride: Stride::of(core),
            };
            assert_eq!(fetched.ops().collect::<Trace>(), strided);
            for i in 0..=strided.len() {
                assert_eq!(fetched.get(i), strided.get(i), "core {core}, op {i}");
            }
        }
    }

    #[test]
    fn sp_instrumentation_keeps_the_oracle_table() {
        for kind in WorkloadKind::all() {
            for sharing in [0, 4] {
                let params = WorkloadParams {
                    sharing,
                    ..WorkloadParams::tiny(9)
                };
                let strided = stride_trace(&build_shared(kind, &params).trace, 2);
                let table = tx_writes_of(strided.ops().iter().copied());
                assert!(table.iter().any(|tx| !tx.is_empty()), "{kind}");
                for mode in [SpMode::Batched, SpMode::Strict] {
                    let sp = sp::instrument_ops(2, strided.ops().iter().copied(), mode);
                    let sp_table = tx_writes_of(sp.ops().iter().copied());
                    assert_eq!(sp_table, table, "{kind}, sharing {sharing}, {mode:?}");
                }
            }
        }
    }

    #[test]
    fn a_strict_sp_core_fetches_the_strict_instrumentation() {
        let kinds = [WorkloadKind::Sps, WorkloadKind::Hashtable];
        let params = WorkloadParams::tiny(0x1707);
        let mut cfg = MachineConfig::small().with_scheme(SchemeKind::Sp);
        cfg.sp_mode = SpMode::Strict;
        let sys = System::for_workload_mix(cfg, &kinds, &params, &RunConfig::default()).unwrap();
        let (strided, _) = strided_workloads(&kinds, &params);
        for (core, trace) in strided.iter().enumerate() {
            let ops = || trace.ops().iter().copied();
            let strict = sp::instrument_ops(core, ops(), SpMode::Strict);
            assert_eq!(
                sys.traces[core].ops().collect::<Trace>(),
                strict,
                "core {core}"
            );
            let batched = sp::instrument_ops(core, ops(), SpMode::Batched);
            assert_ne!(strict, batched, "core {core}: strict adds fences");
        }
    }

    /// Whether the memo has a live entry for `(kinds, params)`.
    fn memoized_now(kinds: &[WorkloadKind], params: &WorkloadParams) -> bool {
        let memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        memo.entries
            .iter()
            .any(|((k, p), e)| k == kinds && p == params && e.strong_count() > 0)
    }

    #[test]
    fn the_memo_shares_held_entries_and_keeps_one_unheld() {
        let mut memo = Memo {
            entries: Vec::new(),
            last: None,
        };
        let builds = std::cell::Cell::new(0);
        let mut lookup = |kinds: &[WorkloadKind], seed| {
            let make = || {
                builds.set(builds.get() + 1);
                RunInputs::new([], &[])
            };
            memo.lookup(kinds, &WorkloadParams::tiny(seed), make).0
        };
        let kinds = [WorkloadKind::Rbtree, WorkloadKind::Sps];
        let a = lookup(&kinds, 1);
        assert!(
            Arc::ptr_eq(&a, &lookup(&kinds, 1)),
            "a held entry is shared"
        );
        assert_eq!(builds.get(), 1);
        let weak_a = Arc::downgrade(&a);
        drop(a);
        assert!(
            weak_a.upgrade().is_some(),
            "the last entry outlives its holders"
        );
        let b = Arc::downgrade(&lookup(&kinds, 2));
        assert_eq!(builds.get(), 2, "another seed is another key");
        assert!(
            weak_a.upgrade().is_none(),
            "only the last unheld entry is kept"
        );
        let c = lookup(&kinds[..1], 2);
        assert_eq!(builds.get(), 3, "other kinds are another key");
        assert!(b.upgrade().is_none());
        drop(lookup(&kinds, 1));
        assert_eq!(builds.get(), 4, "a forgotten entry is built again");
        assert!(
            Arc::ptr_eq(&c, &lookup(&kinds[..1], 2)),
            "a held entry survives"
        );
        assert_eq!(builds.get(), 4);
    }

    /// Everything a run reports, at a mid-run crash and at its end.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        crash_cycle: Cycle,
        crash_nvm: Backing,
        crash_committed: Backing,
        crash_durable: String,
        crash_journal: Vec<crate::recovery::TxRecord>,
        crash_in_flight: Vec<Option<crate::recovery::TxRecord>>,
        recovered: Backing,
        report: String,
        journal: Vec<crate::recovery::TxRecord>,
    }

    fn outcome(mut sys: System, crash_at: Cycle) -> Outcome {
        sys.run_until(crash_at).unwrap();
        let state = sys.crash_state();
        let recovered = recover(&state);
        let crash_journal = sys.journal().to_vec();
        let report = sys.run().unwrap().to_json().to_compact();
        Outcome {
            crash_cycle: state.cycle,
            crash_nvm: state.nvm,
            crash_committed: Backing::clone(&state.committed),
            crash_durable: format!("{:?}", state.durable),
            crash_journal,
            crash_in_flight: state.in_flight,
            recovered,
            report,
            journal: sys.journal().to_vec(),
        }
    }

    #[test]
    fn memo_hits_misses_and_owned_traces_run_identically() {
        use WorkloadKind::{Hashtable, Sps};
        let shared = WorkloadParams {
            sharing: 4,
            ..WorkloadParams::tiny(0x1704)
        };
        let cases = [
            (vec![Hashtable; 2], WorkloadParams::tiny(0x1703)),
            (vec![Sps; 2], shared),
            (vec![Hashtable, Sps], WorkloadParams::tiny(0x1705)),
        ];
        let another = ([WorkloadKind::Queue], WorkloadParams::tiny(0x1706));
        let rc = RunConfig::default();
        for (kinds, params) in &cases {
            for scheme in SchemeKind::all() {
                let mut cfg = MachineConfig::small().with_scheme(scheme);
                cfg.cores = kinds.len();
                let owned = || {
                    let (traces, initial) = strided_workloads(kinds, params);
                    System::new(cfg.clone(), traces, &initial, &rc).unwrap()
                };
                let cycles = owned().run().unwrap().cycles;
                assert!(cycles > 0);
                let crash_at = cycles / 2;
                let reference = outcome(owned(), crash_at);

                prepare(&MachineConfig::small(), &another.0, &another.1).unwrap();
                assert!(!memoized_now(kinds, params), "{scheme}: expected a miss");
                let miss = System::for_workload_mix(cfg.clone(), kinds, params, &rc).unwrap();
                assert!(memoized_now(kinds, params), "{scheme}: expected a hit");
                let hit = System::for_workload_mix(cfg.clone(), kinds, params, &rc).unwrap();
                let what = format!("{kinds:?} sharing {} {scheme}", params.sharing);
                assert_eq!(outcome(miss, crash_at), reference, "miss: {what}");
                assert_eq!(outcome(hit, crash_at), reference, "hit: {what}");
            }
        }
    }
}
