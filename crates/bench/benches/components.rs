//! Microbenchmarks of the simulator's hot components: transaction-cache
//! CAM operations, cache-hierarchy accesses and the memory controller.

use pmacc_bench::bench_main;
use pmacc_bench::harness::Harness;

use pmacc::TxCache;
use pmacc_cache::{Access, Hierarchy, HierarchyOpts};
use pmacc_mem::MemController;
use pmacc_types::{
    Addr, CacheConfig, LineAddr, MemConfig, MemRegion, MemReq, ReqId, TxCacheConfig, TxId,
    WriteCause,
};

fn bench_txcache(c: &mut Harness) {
    let cfg = TxCacheConfig::dac17();
    c.bench_function("txcache_insert_commit_drain", |b| {
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
    c.bench_function("txcache_probe_miss", |b| {
        let mut tc = TxCache::new(&cfg);
        let tx = TxId::new(0, 1);
        for i in 0..60u64 {
            tc.insert(tx, Addr::nvm_base().offset(i * 64).word(), i)
                .expect("room");
        }
        b.iter(|| tc.probe(LineAddr::new(std::hint::black_box(7))).is_some());
    });
}

fn bench_hierarchy(c: &mut Harness) {
    c.bench_function("hierarchy_access_stream", |b| {
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
}

fn bench_memctrl(c: &mut Harness) {
    c.bench_function("memctrl_enqueue_advance", |b| {
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
                        None,
                        WriteCause::Eviction,
                    ),
                    t,
                );
            }
            t += 200;
            ctrl.advance(t).len()
        });
    });
}

bench_main!(bench_txcache, bench_hierarchy, bench_memctrl);
