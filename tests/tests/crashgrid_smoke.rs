//! End-to-end checks of the crash-campaign engine: the quick-scale
//! campaign must be *dense* (≥ 50× more crash points per cell than the
//! legacy fixed spread in [`pmacc_integration::crash_points`]), *clean*
//! (zero violations for every persistent scheme, including the
//! COW-overflow cell, while the `Optimal` control is detected),
//! *deterministic* (byte-identical reports at any worker count) and
//! *sharp* (a deliberately broken recovery is caught and minimized to a
//! named reproducer).

use pmacc_bench::crashgrid::{
    parse_report, run_campaign, CampaignConfig, Mutation, CRASHGRID_SCHEMA,
};
use pmacc_bench::pool::Options;
use pmacc_integration::crash_points;
use pmacc_telemetry::Json;
use pmacc_types::SchemeKind;
use pmacc_workloads::WorkloadKind;

fn opts(jobs: usize) -> Options {
    Options {
        jobs,
        progress: false,
    }
}

#[test]
fn quick_campaign_is_dense_and_consistent_across_all_schemes() {
    let cfg = CampaignConfig::quick(42);
    let report = run_campaign(&cfg, &opts(4)).expect("campaign runs");

    // Every scheme is swept, including the non-persistent control.
    for scheme in SchemeKind::all() {
        assert!(
            report.cells.iter().any(|c| c.spec.scheme == scheme),
            "scheme {scheme} missing from the sweep"
        );
    }
    // The COW-overflow cell (tiny transaction cache) is present and its
    // dense schedule actually clusters around COW commits.
    let overflow = report
        .cells
        .iter()
        .find(|c| c.spec.tc_entries.is_some())
        .expect("overflow cell present");
    assert_eq!(overflow.spec.scheme, SchemeKind::TxCache);
    assert!(
        overflow.coverage.cow_commit > 0,
        "overflow cell must probe COW-commit boundaries, got {:?}",
        overflow.coverage
    );

    for cell in &report.cells {
        // Density floor: ≥ 50× the legacy fixed spread for this run.
        let baseline = crash_points(cell.total_cycles).len();
        assert!(
            cell.points_tested >= 50 * baseline,
            "{}: only {} points vs 50×{baseline} required",
            cell.spec.label(),
            cell.points_tested
        );
        assert_eq!(cell.coverage.total(), cell.points_tested);
        assert!(cell.coverage.quiescent >= 1, "{}", cell.spec.label());
        if cell.expect_consistent {
            assert_eq!(
                cell.violation_count,
                0,
                "{} violated: {:?}",
                cell.spec.label(),
                cell.violations.first()
            );
        }
    }
    // The wear-leveling cells are present (TC and NVLLC across two
    // workloads, plus the eADR drain∘remap cell) and clean: recovery
    // reconstructed the remap table from the crash snapshot at every
    // point — their violations are counted in the per-cell loop above
    // like any expect-consistent cell.
    let wear_cells: Vec<_> = report.cells.iter().filter(|c| c.spec.wear).collect();
    assert_eq!(wear_cells.len(), 5, "wear-leveling cells missing");
    assert!(wear_cells.iter().all(|c| c.expect_consistent));
    assert!(wear_cells.iter().any(|c| c.spec.scheme == SchemeKind::Eadr));

    // The checker has teeth: the Optimal control must trip it somewhere.
    assert!(
        report.control_detections() > 0,
        "Optimal control produced no detections — oracle may be vacuous"
    );
    assert_eq!(report.total_violations(), 0);
    assert!(report.reproducers.is_empty());

    // The emitted document round-trips through the schema validator.
    let doc = Json::parse(&report.to_json().to_pretty()).expect("report is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(CRASHGRID_SCHEMA)
    );
    let summary = parse_report(&doc).expect("report validates");
    assert_eq!(summary.cells, report.cells.len());
    assert_eq!(summary.total_points, report.total_points());
    assert_eq!(summary.total_violations, 0);
}

#[test]
fn crash_snapshots_land_exactly_on_the_requested_cycle() {
    // The campaign's boundary-clustered schedules are only as sharp as
    // the injection point: a snapshot taken even a few cycles past the
    // requested point can skip the vulnerable window entirely. The
    // simulator must stamp `crash_state().cycle` with the requested
    // cycle itself, not the next event after it.
    use pmacc::{RunConfig, System};
    use pmacc_types::MachineConfig;
    use pmacc_workloads::WorkloadParams;

    let machine = MachineConfig::small().with_scheme(SchemeKind::TxCache);
    let mut sys = System::for_workload(
        machine,
        WorkloadKind::Rbtree,
        &WorkloadParams::tiny(42),
        &RunConfig::default(),
    )
    .expect("system builds");
    for point in [37u64, 161, 1_419, 2_692, 10_000] {
        sys.run_until(point).expect("simulation advances");
        assert_eq!(
            sys.crash_state().cycle,
            point,
            "crash snapshot must land exactly on the requested cycle"
        );
    }
}

#[test]
fn report_bytes_are_invariant_to_worker_count() {
    let mut cfg = CampaignConfig::quick(7);
    cfg.schemes = vec![SchemeKind::TxCache, SchemeKind::Sp];
    cfg.workloads = vec![WorkloadKind::Sps];
    cfg.core_counts = vec![1, 2];
    let serial = run_campaign(&cfg, &opts(1)).expect("jobs=1 runs");
    let fanned = run_campaign(&cfg, &opts(4)).expect("jobs=4 runs");
    assert_eq!(
        serial.to_json().to_pretty(),
        fanned.to_json().to_pretty(),
        "report must be byte-identical at --jobs 1 vs --jobs 4"
    );
}

#[test]
fn keep_uncommitted_eadr_mutation_is_caught_and_minimized() {
    // The eADR oracle has teeth: recovery that keeps the drained stores
    // of uncommitted in-flight transactions (skipping undo rollback)
    // must violate atomicity at some mid-transaction crash point, and
    // the minimizer must shrink it to a self-contained reproducer.
    let mut cfg = CampaignConfig::quick(42);
    cfg.schemes = vec![SchemeKind::Eadr];
    cfg.workloads = vec![WorkloadKind::Graph];
    cfg.core_counts = vec![1];
    cfg.overflow_cell = false;
    cfg.mutation = Mutation::KeepUncommittedEadr;
    let report = run_campaign(&cfg, &opts(2)).expect("campaign runs");
    assert!(
        report.total_violations() > 0,
        "skipping eADR undo rollback must violate the oracle"
    );
    let repro = report
        .reproducers
        .first()
        .expect("violating eADR cell is minimized into a reproducer");
    assert_eq!(repro.spec.scheme, SchemeKind::Eadr);
    assert_eq!(repro.mutation, Mutation::KeepUncommittedEadr);
    assert!(repro.replay().is_err(), "reproducer must still fail");
    let mut fixed = repro.clone();
    fixed.mutation = Mutation::None;
    assert!(
        fixed.replay().is_ok(),
        "the same crash point must be consistent with rollback intact"
    );
}

#[test]
fn broken_recovery_is_caught_and_minimized_to_a_named_reproducer() {
    let mut cfg = CampaignConfig::quick(42);
    cfg.schemes = vec![SchemeKind::TxCache];
    cfg.workloads = vec![WorkloadKind::Sps];
    cfg.core_counts = vec![1];
    cfg.overflow_cell = false;
    cfg.mutation = Mutation::DropCommittedTc;
    let report = run_campaign(&cfg, &opts(2)).expect("campaign runs");
    assert!(
        report.total_violations() > 0,
        "a dropped committed TC entry must violate the oracle"
    );
    let repro = report
        .reproducers
        .first()
        .expect("violating cell is minimized into a reproducer");
    assert!(!repro.name.is_empty());
    assert_eq!(repro.mutation, Mutation::DropCommittedTc);
    // Minimization shrank the workload prefix below the campaign's.
    assert!(
        repro.params.num_ops <= cfg.params.num_ops,
        "prefix reduction must not grow the workload"
    );
    // The reproducer is self-contained: replaying it reproduces the
    // failure verbatim, and the same point is clean without the defect.
    assert!(repro.replay().is_err(), "reproducer must still fail");
    let mut fixed = repro.clone();
    fixed.mutation = Mutation::None;
    assert!(
        fixed.replay().is_ok(),
        "the same crash point must be consistent with recovery intact"
    );
}
