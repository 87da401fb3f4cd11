//! Closed-form timing checks: tiny hand-built traces whose latencies can
//! be computed from the Table 2 parameters by hand. These pin the timing
//! model against accidental regressions.
//!
//! At 2 GHz: L1 = 1 cycle, L2 = 9, LLC = 20, TC = 3, NVM read (row miss)
//! = 130, NVM row hit = 64, NVM write = 152.

use pmacc::{RunConfig, System};
use pmacc_cpu::{Op, Trace};
use pmacc_types::{layout, MachineConfig, SchemeKind};

fn one_core(scheme: SchemeKind) -> MachineConfig {
    let mut cfg = MachineConfig::dac17_scaled().with_scheme(scheme);
    cfg.cores = 1;
    cfg
}

fn run(scheme: SchemeKind, t: Trace) -> pmacc::RunReport {
    let mut sys = System::new(one_core(scheme), vec![t], &[], &RunConfig::default()).unwrap();
    sys.run().unwrap()
}

fn load_latency_of(trace: Trace) -> f64 {
    let r = run(SchemeKind::Optimal, trace);
    r.persistent_load_latency()
}

#[test]
fn cold_nvm_load_costs_the_full_walk() {
    // L1 miss + L2 miss + LLC miss + NVM row-miss read:
    // 1 + 9 + 20 + 130 = 160 cycles (plus at most a few bus cycles).
    let mut t = Trace::new();
    t.push(Op::load(layout::persistent_heap_base()));
    let lat = load_latency_of(t);
    assert!(
        (158.0..=168.0).contains(&lat),
        "cold NVM load should be ~160 cycles, got {lat}"
    );
}

#[test]
fn second_load_hits_l1() {
    let base = layout::persistent_heap_base();
    let mut t = Trace::new();
    t.push(Op::load(base));
    t.push(Op::load(base));
    let r = run(SchemeKind::Optimal, t);
    // Mean of ~160 (cold) and 1 (L1 hit).
    let mean = r.persistent_load_latency();
    assert!(
        (75.0..=90.0).contains(&mean),
        "expected ~80.5 mean, got {mean}"
    );
}

#[test]
fn row_buffer_hit_is_cheaper() {
    let base = layout::persistent_heap_base();
    // Same NVM bank and row: lines 0 and 32 (32-bank interleave).
    let mut t = Trace::new();
    t.push(Op::load(base));
    t.push(Op::load(base.offset(32 * 64)));
    let r = run(SchemeKind::Optimal, t);
    // ~160 cold + ~94 row-hit (1+9+20+64) → mean ~127.
    let mean = r.persistent_load_latency();
    assert!(
        (120.0..=135.0).contains(&mean),
        "expected ~127 mean with a row hit, got {mean}"
    );
}

#[test]
fn llc_hit_costs_the_middle_walk() {
    // Evict from L1/L2 but not LLC, then reload: 1 + 9 + 20 = 30 cycles.
    // Scaled machine: L1 8 KB/4-way (32 sets), L2 64 KB/8-way (128 sets).
    // Lines with stride 128 alias in both L1 and L2 sets.
    let base = layout::persistent_heap_base();
    let mut t = Trace::new();
    t.push(Op::load(base));
    for i in 1..=16u64 {
        t.push(Op::load(base.offset(i * 128 * 64)));
    }
    t.push(Op::load(base)); // L1/L2 evicted; LLC keeps it
    let r = run(SchemeKind::Optimal, t);
    let hist = &r.cores[0].persistent_load_latency;
    assert!(hist.max() >= 158, "cold misses present");
    // The reload is the single cheap sample: the low quantile lands in
    // the ~30-cycle bucket, far below any memory access.
    assert!(
        hist.percentile(0.05) <= 63,
        "one load must hit the LLC at ~30 cycles (p5 = {})",
        hist.percentile(0.05)
    );
    let mean = r.persistent_load_latency();
    assert!(mean > 100.0 && mean < 170.0, "mean {mean}");
}

#[test]
fn tc_probe_serves_dropped_lines_fast() {
    // Under the TC scheme: store a line in a transaction, force the LLC
    // to drop it (tiny caches via pressure is hard here, so instead keep
    // it simple: a committed-but-unacked entry answers the probe while
    // the line is still leaving the hierarchy).
    // Build: tx stores line A; evict A from the whole hierarchy with
    // conflicting loads; reload A — the fill must come from the TC at
    // 1 + 9 + 20 + 3 = 33 cycles instead of ~160, IF the entry is still
    // buffered (drain speed dependent). We pin the drain by making the
    // store the last transactional op before a long conflicting-load run
    // that keeps the NVM read queue busy.
    let base = layout::persistent_heap_base();
    let mut cfg = one_core(SchemeKind::TxCache);
    // Slow the drain so the entry is still buffered at reload time.
    cfg.nvm.write_ns = 2_000.0;
    let mut t = Trace::new();
    t.push(Op::TxBegin);
    t.push(Op::store(base, 7));
    t.push(Op::TxEnd);
    // Evict line A from L1/L2/LLC using *volatile* conflicting lines:
    // they alias the same LLC set (stride 2048 lines; the volatile heap
    // base is itself 2048-aligned) but go to the DRAM channel, so the
    // only NVM-region load in the trace is the final reload of A.
    let vol = layout::volatile_heap_base();
    for i in 1..=20u64 {
        t.push(Op::load(vol.offset(i * 2048 * 64)));
    }
    t.push(Op::load(base));
    let mut sys = System::new(cfg, vec![t], &[], &RunConfig::default()).unwrap();
    let r = sys.run().unwrap();
    // The reload is the only persistent load; served by the TC probe it
    // costs L1 + L2 + LLC + TC = 1 + 9 + 20 + 3 = 33 cycles instead of
    // waiting out the 2 µs NVM write backlog.
    let max = r.cores[0].persistent_load_latency.max();
    assert!(
        (30..=60).contains(&max),
        "probe-served reload should cost ~33 cycles, got {max}"
    );
    assert!(
        r.tc.iter().any(|s| s.probe_hits.value() > 0),
        "the reload must probe the transaction cache"
    );
    assert!(r.dropped_llc_writes > 0, "the eviction must have been dropped");
}

#[test]
fn store_buffer_hides_store_latency() {
    // 20 independent persistent stores to distinct lines: the core
    // retires them at ~1 op/cycle (issue-bound), far faster than the
    // NVM writes complete.
    let base = layout::persistent_heap_base();
    let mut t = Trace::new();
    for i in 0..20u64 {
        t.push(Op::store(base.offset(i * 64), i));
    }
    let r = run(SchemeKind::Optimal, t);
    assert!(
        r.cycles < 600,
        "stores must retire through the store buffer, took {} cycles",
        r.cycles
    );
}

#[test]
fn fence_pays_the_nvm_write_round_trip() {
    let base = layout::persistent_heap_base();
    let mut t = Trace::new();
    t.push(Op::store(base, 1));
    t.push(Op::Flush { addr: base });
    t.push(Op::Fence);
    let r = run(SchemeKind::Optimal, t);
    // NVM write = 152 cycles plus queueing/issue overhead.
    assert!(
        r.cycles >= 152 && r.cycles <= 200,
        "fence cost should be one NVM write RTT, got {}",
        r.cycles
    );
}
