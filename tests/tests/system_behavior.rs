//! Cross-crate behavioural tests of the full system.

use std::collections::BTreeMap;

use pmacc::{RunConfig, System};
use pmacc_cpu::{Op, Trace};
use pmacc_types::{layout, MachineConfig, SchemeKind, Word, WordAddr, WriteCause};
use pmacc_workloads::{build, WorkloadKind, WorkloadParams};

fn machine(scheme: SchemeKind) -> MachineConfig {
    MachineConfig::small().with_scheme(scheme)
}

fn run(scheme: SchemeKind, kind: WorkloadKind, seed: u64) -> pmacc::RunReport {
    let mut sys = System::for_workload(
        machine(scheme),
        kind,
        &WorkloadParams::tiny(seed),
        &RunConfig::default(),
    )
    .expect("system builds");
    sys.run().expect("runs to completion")
}

#[test]
fn every_scheme_commits_every_transaction() {
    for kind in WorkloadKind::all() {
        for scheme in SchemeKind::all() {
            let r = run(scheme, kind, 21);
            assert_eq!(
                r.total_committed(),
                100,
                "{scheme}/{kind}: 50 ops x 2 cores"
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    for scheme in SchemeKind::all() {
        let a = run(scheme, WorkloadKind::Btree, 5);
        let b = run(scheme, WorkloadKind::Btree, 5);
        assert_eq!(a.cycles, b.cycles, "{scheme} cycles must be reproducible");
        assert_eq!(a.nvm.writes(), b.nvm.writes());
        assert_eq!(a.hierarchy.llc.accesses.total(), b.hierarchy.llc.accesses.total());
    }
}

#[test]
fn optimal_never_pays_persistence_costs() {
    let r = run(SchemeKind::Optimal, WorkloadKind::Rbtree, 9);
    assert_eq!(r.nvm_writes_by(WriteCause::Log), 0);
    assert_eq!(r.nvm_writes_by(WriteCause::Flush), 0);
    assert_eq!(r.nvm_writes_by(WriteCause::TxCacheDrain), 0);
    assert_eq!(r.nvm_writes_by(WriteCause::Cow), 0);
    assert_eq!(r.dropped_llc_writes, 0);
}

#[test]
fn tc_drains_exactly_the_transactional_stores() {
    // Without coalescing, each persistent store inside a transaction
    // produces exactly one transaction-cache drain write.
    let w = build(WorkloadKind::Sps, &WorkloadParams::tiny(2));
    let stores = w.trace.ops().iter().filter(|o| o.is_store()).count() as u64;
    let r = run(SchemeKind::TxCache, WorkloadKind::Sps, 2);
    // Two cores, identical op counts (different seeds give the same
    // number of swap stores: 2 per transaction).
    assert_eq!(
        r.nvm_writes_by(WriteCause::TxCacheDrain)
            + r.nvm.coalesced_writes.value(),
        stores * 2,
        "every buffered store drains exactly once (or coalesces in the WQ)"
    );
    assert_eq!(r.nvm_writes_by(WriteCause::Eviction), 0, "evictions dropped");
}

#[test]
fn scheme_performance_ordering_holds() {
    // The fundamental shape of Figures 6/7: SP is the slowest persistent
    // scheme and TC the fastest; nobody beats Optimal.
    for kind in [WorkloadKind::Sps, WorkloadKind::Btree] {
        let opt = run(SchemeKind::Optimal, kind, 33).cycles;
        let sp = run(SchemeKind::Sp, kind, 33).cycles;
        let tc = run(SchemeKind::TxCache, kind, 33).cycles;
        assert!(opt <= tc, "{kind}: optimal at least as fast as TC");
        assert!(tc < sp, "{kind}: TC must beat software logging");
    }
}

#[test]
fn functional_state_matches_workload_ground_truth() {
    // After a TC run quiesces, the NVM image must hold the workload's
    // final persistent values (striped to core slices).
    let params = WorkloadParams::tiny(8);
    let cfg = machine(SchemeKind::TxCache);
    let mut sys = System::for_workload(cfg, WorkloadKind::Hashtable, &params, &RunConfig::default())
        .unwrap();
    sys.run().unwrap();
    let state = sys.crash_state();
    let recovered = pmacc::recovery::recover(&state);
    // Core 0 runs its own derived stream of the base seed, unstrided
    // addresses — rebuild the same stream for the ground-truth image.
    let mut p0 = params;
    p0.seed = pmacc_types::rng::stream_seed(params.seed, 0);
    let w = build(WorkloadKind::Hashtable, &p0);
    let mut final_image: BTreeMap<WordAddr, Word> = w.initial.iter().copied().collect();
    for op in w.trace.ops() {
        if let Op::Store { addr, value } = op {
            final_image.insert(addr.word(), *value);
        }
    }
    for (word, value) in &final_image {
        if word.is_persistent() {
            assert_eq!(
                recovered.read_word(*word),
                *value,
                "word {word} of core 0's final image"
            );
        }
    }
}

#[test]
fn sp_log_lives_in_its_own_area() {
    let r = run(SchemeKind::Sp, WorkloadKind::Graph, 4);
    assert!(r.nvm_writes_by(WriteCause::Flush) > 0, "log flush traffic exists");
    // And the log area boundaries hold: instrumented traces only touch
    // the owning core's area.
    let raw = build(WorkloadKind::Graph, &WorkloadParams::tiny(4));
    let sp = MachineConfig::small().with_scheme(SchemeKind::Sp);
    let t = pmacc::scheme::instrument(&sp, 1, raw.trace);
    for op in t.ops() {
        if let Op::LogStore { addr, .. } = op {
            let base = layout::log_area_base(1).raw();
            assert!(
                addr.raw() >= base && addr.raw() < base + layout::LOG_AREA_BYTES_PER_CORE,
                "log record outside core 1's area"
            );
        }
    }
}

#[test]
fn raw_trace_api_accepts_custom_programs() {
    // The public System::new path with a hand-built trace.
    let base = layout::persistent_heap_base();
    let mut t = Trace::new();
    t.push(Op::TxBegin);
    t.push(Op::store(base, 1));
    t.push(Op::store(base.offset(8), 2));
    t.push(Op::TxEnd);
    t.push(Op::load(base));
    let cfg = machine(SchemeKind::TxCache);
    let traces = vec![t; cfg.cores];
    let mut sys = System::new(cfg, traces, &[], &RunConfig::default()).unwrap();
    let r = sys.run().unwrap();
    assert_eq!(r.total_committed(), 2);
}

#[test]
fn tiny_txcache_shows_pressure_and_big_one_does_not() {
    // §5.2 / ablation A in miniature: a 2-entry TC must reject or
    // overflow under rbtree inserts; a large one must not.
    let run_with = |entries: u64| {
        let mut cfg = machine(SchemeKind::TxCache);
        cfg.txcache.size_bytes = entries * 64;
        let mut sys = System::for_workload(
            cfg,
            WorkloadKind::Rbtree,
            &WorkloadParams::tiny(6),
            &RunConfig::default(),
        )
        .unwrap();
        let r = sys.run().unwrap();
        (
            r.tc.iter().map(|t| t.full_rejections.value()).sum::<u64>() + r.tc_overflows(),
            r.total_committed(),
        )
    };
    let (tiny_pressure, tiny_committed) = run_with(2);
    let (big_pressure, big_committed) = run_with(256);
    assert!(tiny_pressure > 0, "a 2-entry TC must overflow or stall");
    assert_eq!(big_pressure, 0, "a 16 KB TC absorbs every transaction");
    assert_eq!(tiny_committed, big_committed, "pressure never loses txs");
}
