//! The crash-campaign driver: dense fault-injection sweeps over the
//! scheme × workload × core-count grid, with failing-point minimization.
//!
//! ```text
//! crashgrid [--quick] [--seed N] [--jobs N] [--json FILE]
//!           [--schemes a,b] [--workloads a,b] [--cores 1,2]
//!           [--mutate M] [--verify FILE]
//! ```
//!
//! Each cell is crashed at hundreds of points — stratified across the
//! run plus PRNG-jittered clusters around every `TX_END`, drain-ack and
//! COW-commit boundary — and every crash is recovered and checked
//! against the transaction-atomicity oracle. Any violation in a
//! persistent-scheme cell is minimized to its earliest failing cycle
//! and a reduced workload prefix, and emitted as a self-contained
//! reproducer in the report.
//!
//! The `Optimal` scheme runs as a control: its violations are counted as
//! detections (proof the oracle has teeth), never gated on. `--mutate`
//! deliberately breaks recovery (see the `crashgrid` module docs) to
//! exercise the minimizer end to end.
//!
//! `--json FILE` writes the `pmacc-crashgrid-v1` report — byte-identical
//! at any `--jobs` count; wall-clock goes to stderr only. `--verify
//! FILE` instead parses an existing report, validates its structure and
//! exits non-zero on any recorded violation — the second half of the CI
//! gate.
//!
//! Exit status: 0 when every expect-consistent cell survived every crash
//! point, 1 otherwise.

use std::process::ExitCode;
use std::time::Instant;

use pmacc_bench::cli::{self, Args};
use pmacc_bench::crashgrid::{parse_report, run_campaign, CampaignConfig, Mutation};
use pmacc_bench::pool::Options;

fn verify_report(path: &str) -> Result<ExitCode, String> {
    let s = parse_report(&cli::read_json(path)?)
        .map_err(|e| format!("{path} failed validation: {e}"))?;
    if s.total_violations > 0 {
        return Err(format!(
            "{path} records {} violation(s) across {} cells",
            s.total_violations, s.cells
        ));
    }
    eprintln!(
        "crashgrid: {path} ok: {} cells, {} crash points, 0 violations \
         ({} control detections)",
        s.cells, s.total_points, s.control_detections
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::run("crashgrid", run)
}

fn run() -> Result<ExitCode, String> {
    let mut seed = 42u64;
    let mut mutation = Mutation::None;
    let (mut schemes, mut workloads, mut cores) = (None, None, None);
    let mut json_path: Option<String> = None;
    let mut verify_path: Option<String> = None;
    let mut opts = Options {
        progress: true,
        ..Options::default()
    };
    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {} // the only campaign scale for now
            "--seed" => seed = args.value("--seed")?,
            "--jobs" => opts.jobs = args.positive("--jobs")?,
            "--json" => json_path = Some(args.value("--json")?),
            "--verify" => verify_path = Some(args.value("--verify")?),
            "--schemes" => schemes = Some(args.list("--schemes")?),
            "--workloads" => workloads = Some(args.list("--workloads")?),
            "--cores" => cores = Some(args.list("--cores")?),
            "--mutate" => mutation = args.value("--mutate")?,
            "--help" | "-h" => {
                let mutations: Vec<&str> = Mutation::NAMES.iter().map(|&(_, n)| n).collect();
                return Ok(cli::help(&format!(
                    "usage: crashgrid [--quick] [--seed N] [--jobs N] [--json FILE] \
                     [--schemes a,b] [--workloads a,b] [--cores 1,2] \
                     [--mutate {}] [--verify FILE]",
                    mutations.join("|")
                )));
            }
            other => return Err(cli::unknown(other)),
        }
    }

    if let Some(path) = &verify_path {
        return verify_report(path);
    }
    let mut cfg = CampaignConfig::quick(seed);
    cfg.mutation = mutation;
    if let Some(v) = schemes {
        cfg.schemes = v;
    }
    if let Some(v) = workloads {
        cfg.workloads = v;
    }
    if let Some(v) = cores {
        cfg.core_counts = v;
    }

    eprintln!(
        "crashgrid: sweeping {} cell(s) (seed {seed}, mutation {mutation}) on {} worker(s) ...",
        cfg.cells().len(),
        opts.jobs
    );
    let started = Instant::now();
    let report = run_campaign(&cfg, &opts).map_err(|e| format!("campaign failed: {e}"))?;
    // Wall-clock goes to stderr only: the JSON report must stay
    // byte-identical across worker counts and machines.
    eprintln!(
        "crashgrid: {} crash points across {} cells in {:.1}s",
        report.total_points(),
        report.cells.len(),
        started.elapsed().as_secs_f64()
    );

    if let Some(path) = &json_path {
        cli::write_json(path, &report.to_json())?;
    }

    let violations = report.total_violations();
    let detections = report.control_detections();
    if detections > 0 {
        eprintln!("crashgrid: {detections} control detection(s) in non-persistent cells (expected)");
    }
    if violations == 0 {
        eprintln!("crashgrid: all persistent-scheme cells consistent at every crash point");
        return Ok(ExitCode::SUCCESS);
    }
    for cell in report.cells.iter().filter(|c| c.expect_consistent) {
        for v in &cell.violations {
            eprintln!(
                "crashgrid: {} crash@{} [{}]: {}",
                cell.spec.label(),
                v.crash_cycle,
                v.class.name(),
                v.error
            );
        }
    }
    for r in &report.reproducers {
        eprintln!(
            "crashgrid: minimized reproducer `{}`: {} ops, crash@{}",
            r.name, r.params.num_ops, r.crash_cycle
        );
    }
    Err(format!("{violations} violation(s); reproducers embedded in the report"))
}
