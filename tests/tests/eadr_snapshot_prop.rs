//! Flush-on-failure snapshot property: under eADR the crash image *is*
//! the committed image. The platform drains every dirty cache line (and
//! every write-back in flight at the memory controller) on power loss,
//! and recovery rolls back the drained stores of uncommitted in-flight
//! transactions via the per-core undo logs — so the recovered heap must
//! equal initial-NVM + commit-journal replay *exactly*, with none of the
//! in-flight leniency the generic checker grants other schemes. Wear
//! leveling is toggled randomly, exercising the drain ∘ device-row-remap
//! composition and its inverse on the recovery side.

use pmacc::recovery::{check_recovery, recover};
use pmacc::{RunConfig, System};
use pmacc_cpu::{Op, Trace};
use pmacc_mem::Backing;
use pmacc_prop::Config;
use pmacc_types::{layout, MachineConfig, SchemeKind, WearConfig, WordAddr, LINE_BYTES};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

const WORKLOADS: [WorkloadKind; 5] = [
    WorkloadKind::Graph,
    WorkloadKind::Rbtree,
    WorkloadKind::Sps,
    WorkloadKind::Btree,
    WorkloadKind::Hashtable,
];

fn build(kind: WorkloadKind, seed: u64, cores: usize, wear: bool) -> System {
    let mut cfg = MachineConfig::small().with_scheme(SchemeKind::Eadr);
    cfg.cores = cores;
    if wear {
        // Aggressive rotation so the remap is far from the identity by
        // the time we crash (same knobs as the crashgrid wear cells).
        cfg.nvm.wear = WearConfig {
            leveling: true,
            region_lines: 64,
            gap_write_interval: 8,
            cell_write_budget: 100_000_000,
        };
    }
    let params = WorkloadParams {
        num_ops: 30,
        setup_items: 32,
        key_space: 24,
        insert_ratio: 80,
        seed,
        sharing: 0,
    };
    System::for_workload(cfg, kind, &params, &RunConfig::default()).expect("system builds")
}

/// Crash an eADR run at `crash_frac` of its cycle count and demand the
/// recovered heap equal the committed-store image from the journal,
/// word for word.
fn snapshot_case(kind: WorkloadKind, seed: u64, crash_frac: f64, cores: usize, wear: bool) {
    let total = {
        let mut sys = build(kind, seed, cores, wear);
        sys.run().expect("full run").cycles
    };
    let crash_at = ((total as f64) * crash_frac) as u64;
    let mut sys = build(kind, seed, cores, wear);
    sys.run_until(crash_at).expect("partial run");
    let state = sys.crash_state();
    assert_eq!(state.wear.is_some(), wear, "wear snapshot presence");

    let recovered = recover(&state);
    let heap_base = layout::persistent_heap_base().word();

    // Strict committed image: initial image + journal replay in global
    // commit order, rebuilt here rather than taken from the snapshot's
    // committed image. Deliberately *no* in-flight alternative.
    let mut expected = state.committed.base();
    for rec in sys.journal() {
        expected.extend(rec.writes.iter().copied());
    }
    // Compare over every heap word either image holds, so both a lost
    // committed store and a surviving uncommitted store are caught.
    let mut words: Vec<WordAddr> = expected
        .iter()
        .chain(recovered.iter())
        .map(|(w, _)| w)
        .filter(|w| *w >= heap_base)
        .collect();
    words.sort_unstable();
    words.dedup();
    for w in words {
        assert_eq!(
            expected.read_word(w),
            recovered.read_word(w),
            "{kind} seed {seed} crash@{crash_at} cores={cores} wear={wear}: \
             heap word {w:?} diverged from the committed image"
        );
    }

    // With leveling on, the crash image is stored in device-row space;
    // the logical view must round-trip through the remap snapshot.
    if let Some(snap) = &state.wear {
        let logical: Backing = state.logical_nvm();
        let rows = snap.to_device(&logical);
        for (w, v) in rows.iter() {
            assert_eq!(
                state.nvm.read_word(w),
                v,
                "wear remap round-trip lost device row word {w:?}"
            );
        }
    }
}

#[test]
fn eadr_crash_image_is_the_committed_image() {
    // Each case runs two full simulations; override PMACC_PROP_CASES /
    // PMACC_PROP_SEED to soak or replay (the harness prints the replay
    // command for any failing case).
    let config = Config {
        cases: std::env::var("PMACC_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20),
        ..Config::default()
    };
    pmacc_prop::check_with("eadr_crash_image_is_the_committed_image", config, |g| {
        let kind = g.choose(&WORKLOADS);
        let seed = g.gen_range(0u64..1_000);
        let crash_frac = g.f64_range(0.01..1.2);
        let cores = g.choose(&[1usize, 2]);
        let wear = g.gen::<bool>();
        snapshot_case(kind, seed, crash_frac, cores, wear);
    });
}

/// A `clwb` write-back still in flight at the crash sits in the memory
/// controller's queue, inside the ADR domain, so the flush-on-failure
/// drain must land it like an eviction write-back. The flushed line is
/// clean in the caches, so the cache drain cannot cover for it: each of
/// these 40 transactions stores to its own heap line and flushes it after
/// commit, and a crash at any cycle must recover to the committed image.
#[test]
fn eadr_drain_lands_flush_write_backs_in_flight() {
    let heap = layout::persistent_heap_base();
    let mut trace = Trace::new();
    for i in 0..40 {
        let addr = heap.offset(i * LINE_BYTES);
        trace.push(Op::TxBegin);
        trace.push(Op::store(addr, i + 1));
        trace.push(Op::TxEnd);
        trace.push(Op::Flush { addr });
    }
    let mut cfg = MachineConfig::small().with_scheme(SchemeKind::Eadr);
    cfg.cores = 1;
    let build = || {
        System::new(cfg.clone(), vec![trace.clone()], &[], &RunConfig::default())
            .expect("system builds")
    };
    let end = build().run().expect("full run").cycles;
    let failing: Vec<_> = (0..=end)
        .filter_map(|at| {
            let mut sys = build();
            sys.run_until(at).expect("partial run");
            let state = sys.crash_state();
            check_recovery(&state, &recover(&state))
                .err()
                .map(|e| (at, e.to_string()))
        })
        .collect();
    assert!(
        failing.is_empty(),
        "{} of {} crash points fail: {failing:?}",
        failing.len(),
        end + 1
    );
}
