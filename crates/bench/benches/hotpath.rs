//! Microbenchmarks of the per-access simulation hot path, targeting the
//! data structures the indexed-CAM overhaul rewrote: transaction-cache
//! probe/insert/ack under high occupancy, cache-hierarchy accesses, the
//! memory controller, line-granular backing-store round trips, the
//! in-repo fast hasher against SipHash, one crash point's snapshot,
//! recovery and check, one workload's generation, and the end-to-end
//! cells-per-second figure a grid sweep is built from.
//!
//! Run with `cargo bench -p pmacc-bench --bench hotpath`;
//! `PMACC_BENCH_SAMPLES=1` is the CI smoke mode.

use pmacc_bench::bench_main;
use pmacc_bench::grid::{run_cell, Scale};
use pmacc_bench::harness::Harness;

use pmacc::recovery::{check_recovery, recover};
use pmacc::TxCache;
use pmacc_cache::{Access, Hierarchy, HierarchyOpts};
use pmacc_mem::{Backing, MemController};
use pmacc_types::{
    Addr, CacheConfig, FxHashMap, LineAddr, MemConfig, MemRegion, MemReq, ReqId, SchemeKind,
    TxCacheConfig, TxId, WriteCause,
};
use pmacc_workloads::{build, WorkloadKind};

/// A transaction cache filled to high occupancy (60 of 64 entries) with
/// committed-but-unacked lines, the state a loaded system probes against.
fn high_occupancy_tc() -> (TxCache, Vec<LineAddr>) {
    let cfg = TxCacheConfig::dac17();
    let mut tc = TxCache::new(&cfg);
    let tx = TxId::new(0, 1);
    let mut lines = Vec::new();
    for i in 0..60u64 {
        let w = Addr::nvm_base().offset(i * 64).word();
        tc.insert(tx, w, i).expect("room");
        lines.push(w.line());
    }
    tc.commit(tx, 1);
    (tc, lines)
}

fn bench_txcache_hot(c: &mut Harness) {
    let mut g = c.benchmark_group("tc");
    g.bench_function("probe_hit_high_occupancy", |b| {
        let (mut tc, lines) = high_occupancy_tc();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % lines.len();
            tc.probe(std::hint::black_box(lines[i])).is_some()
        });
    });
    g.bench_function("probe_miss_high_occupancy", |b| {
        // The pre-index worst case: a full window scan finding nothing.
        let (mut tc, _) = high_occupancy_tc();
        let absent = Addr::nvm_base().offset(1 << 20).line();
        b.iter(|| tc.probe(std::hint::black_box(absent)).is_some());
    });
    g.bench_function("contains_line_presence_filter", |b| {
        let (tc, _) = high_occupancy_tc();
        let absent = Addr::nvm_base().offset(1 << 20).line();
        b.iter(|| tc.contains_line(std::hint::black_box(absent)));
    });
    g.bench_function("insert_coalesce_high_occupancy", |b| {
        // Repeated stores to one line of the running transaction, on top
        // of a deep committed backlog: the coalescing CAM search.
        let cfg = TxCacheConfig {
            coalesce: true,
            ..TxCacheConfig::dac17()
        };
        let mut tc = TxCache::new(&cfg);
        let backlog = TxId::new(0, 1);
        for i in 0..48u64 {
            tc.insert(backlog, Addr::nvm_base().offset(i * 64).word(), i)
                .expect("room");
        }
        tc.commit(backlog, 1);
        let tx = TxId::new(0, 2);
        let w = Addr::nvm_base().offset(60 * 64).word();
        tc.insert(tx, w, 0).expect("room");
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            tc.insert(tx, w, v).expect("coalesces");
            tc.occupancy()
        });
    });
    g.bench_function("insert_commit_drain", |b| {
        // A whole 32-line transaction through the empty ring: insert,
        // commit, then issue and acknowledge every entry.
        let cfg = TxCacheConfig::dac17();
        b.iter(|| {
            let mut tc = TxCache::new(&cfg);
            let tx = TxId::new(0, 1);
            for i in 0..32u64 {
                tc.insert(tx, Addr::nvm_base().offset(i * 64).word(), i)
                    .expect("room");
            }
            tc.commit(tx, 1);
            while let Some((slot, _)) = tc.next_issue() {
                tc.mark_issued(slot);
                tc.ack_slot(slot);
            }
            tc.occupancy()
        });
    });
    g.finish();
}

fn bench_memsys(c: &mut Harness) {
    // The memory system beneath the cores: the cache hierarchy and the
    // memory controller.
    let mut g = c.benchmark_group("memsys");
    g.bench_function("hierarchy_access_stream", |b| {
        let mut h = Hierarchy::new(
            1,
            CacheConfig::new(8 * 1024, 4, 0.5),
            CacheConfig::new(64 * 1024, 8, 4.5),
            CacheConfig::new(512 * 1024, 16, 10.0),
            HierarchyOpts::default(),
        );
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 32_768;
            let line = LineAddr::new(Addr::nvm_base().line().raw() + i);
            let out = h.access(0, Access::store(line)).expect("no pinning");
            out.evictions.len()
        });
    });
    g.bench_function("ctrl_enqueue_advance", |b| {
        let mut ctrl = MemController::new(MemRegion::Nvm, MemConfig::nvm_dac17());
        let mut t = 0u64;
        let mut id = 0u64;
        b.iter(|| {
            for k in 0..8u64 {
                id += 1;
                let _ = ctrl.enqueue(
                    MemReq::write(
                        ReqId(id),
                        LineAddr::new(Addr::nvm_base().line().raw() + (id + k) % 4096),
                        WriteCause::Eviction,
                    ),
                    t,
                );
            }
            t += 200;
            ctrl.advance(t).len()
        });
    });
    g.finish();
}

fn bench_backing(c: &mut Harness) {
    let mut g = c.benchmark_group("backing");
    g.bench_function("line_round_trip", |b| {
        let mut backing = Backing::new();
        let base = Addr::nvm_base().line().raw();
        let vals = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            let line = LineAddr::new(base + i);
            backing.write_line(line, &vals);
            backing.read_line(line)[7]
        });
    });
    g.bench_function("word_writes_scattered", |b| {
        let mut backing = Backing::new();
        let base = Addr::nvm_base().word();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            // A stride that hops lines, defeating any single-line cache.
            let w = pmacc_types::WordAddr::new(base.raw() + (i * 13) % 32_768);
            backing.write_word(w, i);
            backing.read_word(w)
        });
    });
    g.finish();
}

fn bench_hasher(c: &mut Harness) {
    let mut g = c.benchmark_group("hash");
    let keys: Vec<LineAddr> = (0..4096u64)
        .map(|i| Addr::nvm_base().line().raw() + i * 7)
        .map(LineAddr::new)
        .collect();
    g.bench_function("fx_map_insert_lookup", |b| {
        b.iter(|| {
            let mut m: FxHashMap<LineAddr, u64> = FxHashMap::default();
            for (i, k) in keys.iter().enumerate() {
                *m.entry(*k).or_insert(0) += i as u64;
            }
            keys.iter().map(|k| m[k]).sum::<u64>()
        });
    });
    g.bench_function("sip_map_insert_lookup", |b| {
        b.iter(|| {
            let mut m: std::collections::HashMap<LineAddr, u64> = Default::default();
            for (i, k) in keys.iter().enumerate() {
                *m.entry(*k).or_insert(0) += i as u64;
            }
            keys.iter().map(|k| m[k]).sum::<u64>()
        });
    });
    g.finish();
}

fn bench_engine(c: &mut Harness) {
    // The skip-ahead event engine end to end: a whole small-machine run,
    // reported per event processed via the engine counters. The serve
    // variant idles between Poisson-ish arrivals, so most of its
    // simulated time is exactly the idle the engine must make free.
    let mut g = c.benchmark_group("engine");
    g.sample_size(3);
    let build = |scheme: SchemeKind| {
        let machine = pmacc_types::MachineConfig::small().with_scheme(scheme);
        let params = pmacc_workloads::WorkloadParams {
            num_ops: 400,
            setup_items: 200,
            key_space: 512,
            insert_ratio: 60,
            seed: 42,
            sharing: 0,
        };
        pmacc::System::for_workload(machine, WorkloadKind::Sps, &params, &Default::default())
            .expect("system builds")
    };
    g.bench_function("small_sps_run_events", |b| {
        b.iter(|| {
            let mut sys = build(SchemeKind::TxCache);
            let r = sys.run().expect("runs");
            (r.engine.events_processed, r.engine.idle_cycles_skipped)
        });
    });
    g.bench_function("small_sps_stepped_1k", |b| {
        // The crash-sweep pattern: many short run_until() slices, each
        // scheduling its own clock-only wake.
        b.iter(|| {
            let mut sys = build(SchemeKind::Sp);
            let mut at = 0u64;
            for _ in 0..1_000 {
                at += 997;
                sys.run_until(at).expect("slice runs");
            }
            let r = sys.run().expect("finishes");
            r.engine.events_processed
        });
    });
    g.finish();
}

fn bench_recovery(c: &mut Harness) {
    // One crash point of a forward crash walk: snapshot, recover and
    // check a tiny TC system stopped mid-run.
    let mut g = c.benchmark_group("recovery");
    g.bench_function("tc_snapshot_recover_check", |b| {
        let machine = pmacc_types::MachineConfig::small().with_scheme(SchemeKind::TxCache);
        let params = pmacc_workloads::WorkloadParams::tiny(42);
        let mut sys =
            pmacc::System::for_workload(machine, WorkloadKind::Sps, &params, &Default::default())
                .expect("system builds");
        sys.run_until(2_000).expect("runs");
        b.iter(|| {
            let state = sys.crash_state();
            let recovered = recover(&state);
            check_recovery(&state, &recovered).is_ok()
        });
    });
    g.finish();
}

fn bench_full_cell(c: &mut Harness) {
    // One whole quick-scale grid cell, the unit the reproduction sweeps
    // ~89 of: the end-to-end number every structural optimization above
    // must move.
    let mut g = c.benchmark_group("cell");
    g.sample_size(3);
    g.bench_function("quick_sps_txcache", |b| {
        b.iter(|| {
            let machine = Scale::Quick.machine().with_scheme(SchemeKind::TxCache);
            let report =
                run_cell(machine, WorkloadKind::Sps, Scale::Quick, 42).expect("cell runs");
            report.cycles
        });
    });
    g.bench_function("quick_sps_sp", |b| {
        b.iter(|| {
            let machine = Scale::Quick.machine().with_scheme(SchemeKind::Sp);
            let report =
                run_cell(machine, WorkloadKind::Sps, Scale::Quick, 42).expect("cell runs");
            report.cycles
        });
    });
    g.finish();
}

fn bench_workloads(c: &mut Harness) {
    // Generation alone, through the uncached `build`: the set-up phase's
    // functional memory is what a grid's `workloads.build_s` measures.
    let params = Scale::Quick.params(42);
    let mut g = c.benchmark_group("workloads");
    g.sample_size(5);
    g.bench_function("build_quick_rbtree", |b| {
        b.iter(|| build(WorkloadKind::Rbtree, &params).trace.len());
    });
    g.finish();
}

bench_main!(
    bench_txcache_hot,
    bench_memsys,
    bench_backing,
    bench_hasher,
    bench_engine,
    bench_recovery,
    bench_workloads,
    bench_full_cell
);
