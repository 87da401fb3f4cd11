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
use std::str::FromStr;
use std::time::Instant;

use pmacc_bench::crashgrid::{parse_report, run_campaign, CampaignConfig, Mutation};
use pmacc_bench::pool::Options;
use pmacc_telemetry::Json;

fn parse_list<T: FromStr>(raw: &str, what: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let items: Result<Vec<T>, String> = raw
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("bad {what} `{}`: {e}", s.trim()))
        })
        .collect();
    match items {
        Ok(v) if v.is_empty() => Err(format!("empty {what} list")),
        other => other,
    }
}

fn verify_report(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("crashgrid: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("crashgrid: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match parse_report(&doc) {
        Ok(s) if s.total_violations == 0 => {
            eprintln!(
                "crashgrid: {path} ok: {} cells, {} crash points, 0 violations \
                 ({} control detections)",
                s.cells, s.total_points, s.control_detections
            );
            ExitCode::SUCCESS
        }
        Ok(s) => {
            eprintln!(
                "crashgrid: {path} records {} violation(s) across {} cells",
                s.total_violations, s.cells
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("crashgrid: {path} failed validation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut json_path: Option<String> = None;
    let mut verify_path: Option<String> = None;
    let mut schemes_arg: Option<String> = None;
    let mut workloads_arg: Option<String> = None;
    let mut cores_arg: Option<String> = None;
    let mut mutation = Mutation::None;
    let mut opts = Options {
        progress: true,
        ..Options::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {} // the only campaign scale for now
            "--seed" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                };
                seed = v;
            }
            "--jobs" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()).filter(|&v| v > 0) else {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                opts.jobs = v;
            }
            "--json" => {
                let Some(p) = args.next() else {
                    eprintln!("--json needs a file path");
                    return ExitCode::FAILURE;
                };
                json_path = Some(p);
            }
            "--verify" => {
                let Some(p) = args.next() else {
                    eprintln!("--verify needs a file path");
                    return ExitCode::FAILURE;
                };
                verify_path = Some(p);
            }
            "--schemes" => {
                let Some(v) = args.next() else {
                    eprintln!("--schemes needs a comma-separated list");
                    return ExitCode::FAILURE;
                };
                schemes_arg = Some(v);
            }
            "--workloads" => {
                let Some(v) = args.next() else {
                    eprintln!("--workloads needs a comma-separated list");
                    return ExitCode::FAILURE;
                };
                workloads_arg = Some(v);
            }
            "--cores" => {
                let Some(v) = args.next() else {
                    eprintln!("--cores needs a comma-separated list");
                    return ExitCode::FAILURE;
                };
                cores_arg = Some(v);
            }
            "--mutate" => {
                let parsed = args.next().map(|v| v.parse());
                match parsed {
                    Some(Ok(m)) => mutation = m,
                    Some(Err(e)) => {
                        eprintln!("crashgrid: {e}");
                        return ExitCode::FAILURE;
                    }
                    None => {
                        eprintln!("--mutate needs a mutation name");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                let mutations: Vec<&str> = Mutation::NAMES.iter().map(|&(_, n)| n).collect();
                eprintln!(
                    "usage: crashgrid [--quick] [--seed N] [--jobs N] [--json FILE] \
                     [--schemes a,b] [--workloads a,b] [--cores 1,2] \
                     [--mutate {}] [--verify FILE]",
                    mutations.join("|")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`; see --help");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &verify_path {
        return verify_report(path);
    }

    let mut cfg = CampaignConfig::quick(seed);
    cfg.mutation = mutation;
    if let Some(raw) = &schemes_arg {
        match parse_list(raw, "scheme") {
            Ok(v) => cfg.schemes = v,
            Err(e) => {
                eprintln!("crashgrid: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(raw) = &workloads_arg {
        match parse_list(raw, "workload") {
            Ok(v) => cfg.workloads = v,
            Err(e) => {
                eprintln!("crashgrid: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(raw) = &cores_arg {
        match parse_list(raw, "core count") {
            Ok(v) => cfg.core_counts = v,
            Err(e) => {
                eprintln!("crashgrid: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "crashgrid: sweeping {} cell(s) (seed {seed}, mutation {mutation}) on {} worker(s) ...",
        cfg.cells().len(),
        opts.jobs
    );
    let started = Instant::now();
    let report = match run_campaign(&cfg, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("crashgrid: campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Wall-clock goes to stderr only: the JSON report must stay
    // byte-identical across worker counts and machines.
    eprintln!(
        "crashgrid: {} crash points across {} cells in {:.1}s",
        report.total_points(),
        report.cells.len(),
        started.elapsed().as_secs_f64()
    );

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json().to_pretty()) {
            eprintln!("crashgrid: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("crashgrid: wrote {path}");
    }

    let violations = report.total_violations();
    let detections = report.control_detections();
    if detections > 0 {
        eprintln!("crashgrid: {detections} control detection(s) in non-persistent cells (expected)");
    }
    if violations == 0 {
        eprintln!("crashgrid: all persistent-scheme cells consistent at every crash point");
        ExitCode::SUCCESS
    } else {
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
        eprintln!("crashgrid: {violations} violation(s); reproducers embedded in the report");
        ExitCode::FAILURE
    }
}
