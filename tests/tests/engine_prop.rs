//! Property tests for the skip-ahead event engine: the queue's total
//! order, exact-cycle crash stamping, and the equivalence of one
//! uninterrupted run with arbitrarily chopped-up stepping.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pmacc::{RunConfig, ServeConfig, System};
use pmacc_cpu::{Op, Trace};
use pmacc_prop::Gen;
use pmacc_telemetry::{Json, ToJson};
use pmacc_types::{layout, MachineConfig, SchemeKind};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

/// The engine orders its queue by `(cycle, push sequence)`. Feeding a
/// mirror of that discipline random cycles must pop a *stable* sort:
/// ascending cycle, and FIFO among events pushed for the same cycle —
/// the invariant that makes event handling deterministic and
/// starvation-free regardless of push order.
#[test]
fn event_queue_pops_a_stable_total_order() {
    pmacc_prop::check("event_queue_pops_a_stable_total_order", |g| {
        let n = g.gen_range(1usize..200);
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut pushed = Vec::new();
        for seq in 0..n as u64 {
            // A narrow cycle range forces plenty of same-cycle ties.
            let cycle = g.gen_range(0u64..16);
            let payload = g.gen::<u32>();
            heap.push(Reverse((cycle, seq, payload)));
            pushed.push((cycle, seq, payload));
        }
        let mut expected = pushed.clone();
        expected.sort_by_key(|&(cycle, seq, _)| (cycle, seq));
        let mut popped = Vec::new();
        while let Some(Reverse(e)) = heap.pop() {
            popped.push(e);
        }
        assert_eq!(popped, expected, "pop order must be the stable (cycle, seq) sort");
    });
}

/// How a case runs: each core on its own private workload instance, the
/// two cores sharing half their persistent lines, both cores hammering
/// two shared lines with random transactions, or as a server of requests
/// arriving `spacing` cycles apart whose `max_wait` deadline sheds the
/// backlog. Another core sees a transaction's write set only while the
/// transaction spans a core-step batch, which the workloads' transactions
/// seldom do, so the contended traces are what exercise the conflict gate
/// and its deadlock break (long computes split their transactions).
#[derive(Debug, Clone, Copy)]
enum Mode {
    Private,
    Shared,
    Contended,
    Serve { spacing: u64, max_wait: u64 },
}

/// One input of the engine properties.
#[derive(Debug, Clone, Copy)]
struct Case {
    scheme: SchemeKind,
    kind: WorkloadKind,
    seed: u64,
    mode: Mode,
}

const KINDS: [WorkloadKind; 3] = [
    WorkloadKind::Sps,
    WorkloadKind::Btree,
    WorkloadKind::Hashtable,
];

fn arb_case(g: &mut Gen) -> Case {
    let mode = match g.gen_range(0u32..4) {
        0 => Mode::Private,
        1 => Mode::Shared,
        2 => Mode::Contended,
        _ => Mode::Serve {
            spacing: g.gen_range(1u64..64),
            max_wait: g.gen_range(1u64..500),
        },
    };
    Case {
        scheme: g.choose(&SchemeKind::all()),
        kind: g.choose(&KINDS),
        seed: g.gen_range(0u64..1_000),
        mode,
    }
}

/// One core's trace for [`Mode::Contended`]: short transactions of loads,
/// stores and computes over two lines of the shared window.
fn contended_trace(g: &mut Gen) -> Trace {
    let mut t = Trace::new();
    for _ in 0..g.gen_range(1usize..12) {
        t.push(Op::TxBegin);
        for _ in 0..g.gen_range(1usize..8) {
            let line = g.gen_range(0u64..2);
            let addr = layout::shared_pool_base().offset(line * 64 + g.gen_range(0u64..8) * 8);
            t.push(match g.gen_range(0u32..5) {
                0..=2 => Op::store(addr, g.gen()),
                3 => Op::load(addr),
                _ => Op::Compute(g.gen_range(1u32..2000)),
            });
        }
        t.push(Op::TxEnd);
    }
    t
}

impl Case {
    /// A fresh two-core machine at cycle 0 running this case.
    fn system(&self) -> System {
        let cfg = MachineConfig::small().with_scheme(self.scheme);
        let rc = RunConfig::default();
        if let Mode::Contended = self.mode {
            let mut g = Gen::from_seed(self.seed);
            let traces = (0..cfg.cores).map(|_| contended_trace(&mut g)).collect();
            return System::new(cfg, traces, &[], &rc).expect("system builds");
        }
        let cores = cfg.cores;
        let params = WorkloadParams {
            num_ops: 60,
            setup_items: 40,
            key_space: 64,
            insert_ratio: 60,
            seed: self.seed,
            sharing: if let Mode::Shared = self.mode { 4 } else { 0 },
        };
        let mut sys = System::for_workload(cfg, self.kind, &params, &rc).expect("system builds");
        if let Mode::Serve { spacing, max_wait } = self.mode {
            // One request per operation, each a transaction.
            let arrivals: Vec<u64> = (0..params.num_ops as u64).map(|k| k * spacing).collect();
            let mut sc = ServeConfig::new(vec![arrivals; cores]);
            sc.max_wait = max_wait;
            sys.enable_serve(sc).expect("arrivals match the traces");
        }
        sys
    }
}

/// `run_until(n)` must land the clock on `n` exactly for *any* `n` —
/// the engine schedules a clock-only wake there — so a crash snapshot
/// carries the requested cycle even when the skip-ahead jump would
/// otherwise leap over it.
#[test]
fn run_until_stamps_arbitrary_cycles_exactly() {
    pmacc_prop::check("run_until_stamps_arbitrary_cycles_exactly", |g| {
        let case = arb_case(g);
        let total = case.system().run().expect("full run").cycles;
        let mut sys = case.system();
        // A monotone ladder of random stops, each stamped exactly (the
        // last may land past the quiesce point; the wake still fires).
        let mut at = 0u64;
        for _ in 0..g.gen_range(1usize..6) {
            at += g.gen_range(1u64..total.max(2));
            sys.run_until(at).expect("partial run");
            assert_eq!(
                sys.crash_state().cycle,
                at,
                "{case:?}: clock must land on {at}"
            );
        }
    });
}

/// Drops the top-level `engine` key: the effort counters legitimately
/// differ between one uninterrupted run and a stepped run (every
/// `run_until` stop schedules an extra clock-only wake).
fn strip_engine(j: Json) -> Json {
    match j {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "engine").collect()),
        other => other,
    }
}

/// What a finished run observed: its report without the engine's own
/// effort counters, and in service mode each core's request statistics.
fn outcome(sys: &mut System) -> (String, String) {
    let report = sys.run().expect("run finishes");
    let serve = format!("{:?}", sys.serve_stats());
    (strip_engine(report.to_json()).to_pretty(), serve)
}

/// Chopping a run into arbitrary `run_until` steps must not change any
/// simulated outcome: the final report (minus the engine's own effort
/// counters) and the service-mode statistics are identical to the
/// uninterrupted run's. This is the load-bearing property behind
/// crash-point sweeps — a crash snapshot at cycle `n` observes the same
/// machine the full run passed through.
#[test]
fn stepped_execution_matches_uninterrupted_run() {
    pmacc_prop::check("stepped_execution_matches_uninterrupted_run", |g| {
        let case = arb_case(g);
        let mut batch = case.system();
        let reference = outcome(&mut batch);
        let total = batch.clock();
        let mut sys = case.system();
        let mut at = 0u64;
        while at < total {
            at += g.gen_range(1u64..(total / 3).max(2));
            sys.run_until(at.min(total.saturating_sub(1)))
                .expect("partial run");
        }
        assert_eq!(
            outcome(&mut sys),
            reference,
            "{case:?}: stepped run diverged from batch run"
        );
    });
}
