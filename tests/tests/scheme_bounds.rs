//! eADR brackets the paper's schemes from above: with the whole cache
//! hierarchy transiently persistent, every store is durable the moment
//! it is written — a transaction cache of infinite capacity. On every
//! quick-grid cell that upper bound must hold numerically (eADR IPC ≥
//! TC IPC) and structurally (no transaction-cache pressure, no commit
//! flushes, no drain stalls, no overflows — the counters that exist
//! only because real persistence hardware is finite).

use std::sync::OnceLock;

use pmacc::RunConfig;
use pmacc_bench::figures;
use pmacc_bench::grid::{run_grid_opts, GridResults, Scale};
use pmacc_bench::pool::Options;
use pmacc_cpu::StallKind;
use pmacc_types::SchemeKind;
use pmacc_workloads::WorkloadKind;

const OPTS: Options = Options {
    jobs: 4,
    progress: false,
};

/// The seed-42 quick grid, built once and shared by every test here.
fn quick_grid() -> &'static GridResults {
    static GRID: OnceLock<GridResults> = OnceLock::new();
    GRID.get_or_init(|| {
        run_grid_opts(Scale::Quick, 42, &RunConfig::default(), &OPTS).expect("quick grid runs")
    })
}

#[test]
fn eadr_is_an_upper_bound_on_tc_across_the_quick_grid() {
    let grid = quick_grid();

    for kind in WorkloadKind::all() {
        let eadr = grid.get(kind, SchemeKind::Eadr);
        let tc = grid.get(kind, SchemeKind::TxCache);
        let optimal = grid.get(kind, SchemeKind::Optimal);

        // Numeric upper bound: the TC approximates infinite-capacity
        // buffering, so it may tie eADR (the paper's point) but never
        // beat it.
        assert!(
            eadr.ipc() >= tc.ipc(),
            "{kind}: eADR IPC {} below TC IPC {}",
            eadr.ipc(),
            tc.ipc()
        );
        // eADR adds *nothing* to the native timing path — it must match
        // Optimal exactly, not merely beat TC.
        assert_eq!(
            eadr.cycles, optimal.cycles,
            "{kind}: eADR cycle count diverged from Optimal"
        );
        assert_eq!(
            eadr.total_committed(),
            tc.total_committed(),
            "{kind}: schemes committed different transaction counts"
        );

        // Structural upper bound: every finite-capacity artifact is zero.
        assert_eq!(eadr.tc_overflows(), 0, "{kind}: eADR overflowed a TC");
        for core in &eadr.cores {
            assert_eq!(
                core.stall(StallKind::TxCacheFull),
                0,
                "{kind}: eADR stalled on a full transaction cache"
            );
            assert_eq!(
                core.stall(StallKind::CommitFlush),
                0,
                "{kind}: eADR performed a blocking commit flush"
            );
            assert_eq!(
                core.stall(StallKind::PinBlocked),
                0,
                "{kind}: eADR blocked on a pinned LLC set"
            );
            assert_eq!(
                core.stall(StallKind::Fence),
                0,
                "{kind}: eADR executed ordering fences"
            );
            // Private striped instances: the conflict gate stays live
            // under eADR but must be inert without sharing (no aborts,
            // no serialization stalls).
            assert_eq!(
                core.tx_conflicts.value(),
                0,
                "{kind}: eADR hit cross-core conflicts on disjoint data"
            );
        }
        for tc_stats in &eadr.tc {
            assert_eq!(
                tc_stats.inserts.value(),
                0,
                "{kind}: eADR routed stores into a transaction cache"
            );
        }
    }
}

/// Ablation E's batched row is the default SP configuration, so it must
/// be exactly the grid's SP/sps cell: per-core workload seeds are derived
/// in one place, whichever experiment builds the cell.
#[test]
fn sp_fencing_batched_row_is_the_grid_sp_cell() {
    let grid = quick_grid();
    let ablation = figures::ablation_sp_fencing(Scale::Quick, 42, &OPTS).expect("ablation runs");
    let batched = ablation
        .rows
        .iter()
        .find(|r| r[0].starts_with("batched"))
        .expect("batched row");
    let sp_sps = |fig: pmacc_bench::FigTable| {
        let sp = fig.columns.iter().position(|c| c == "SP").expect("SP column");
        let row = fig.rows.iter().find(|r| r[0] == "sps").expect("sps row");
        row[sp].clone()
    };
    assert_eq!(batched[1], sp_sps(figures::fig6(grid)), "normalized IPC");
    assert_eq!(batched[2], sp_sps(figures::fig7(grid)), "normalized throughput");
    assert_eq!(batched[3], sp_sps(figures::fig9(grid)), "normalized NVM writes");
}
