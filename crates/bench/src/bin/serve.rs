//! The open-system service benchmark driver: rate ramps, latency tails
//! and throughput ceilings per persistence scheme.
//!
//! ```text
//! serve [--quick] [--seed N] [--jobs N] [--json FILE]
//!       [--workload NAME] [--arrival poisson|bursty|diurnal]
//!       [--schemes a,b] [--cores N] [--verify FILE]
//! ```
//!
//! Each scheme is first calibrated closed-loop (its service capacity),
//! then driven as a KV/heap server at a ladder of offered rates under
//! the chosen arrival process. Per-request sojourn/wait/service times
//! land in log2 histograms; the report quotes p50/p99/p99.9 latency, a
//! stall-attributed tail breakdown (transaction-cache drain vs NVM
//! queue pressure), and the per-scheme throughput ceiling.
//!
//! `--json FILE` writes the `pmacc-serve-v1` report — byte-identical at
//! any `--jobs` count; wall-clock goes to stderr only. `--verify FILE`
//! parses an existing report and validates its structure — the second
//! half of the CI gate.
//!
//! Exit status: 0 when the campaign (or verification) succeeds.

use std::process::ExitCode;
use std::time::Instant;

use pmacc_bench::cli::{self, Args};
use pmacc_bench::pool::Options;
use pmacc_bench::serve::{parse_report, run_serve, ServeCampaignConfig};

fn verify_report(path: &str) -> Result<ExitCode, String> {
    let s = parse_report(&cli::read_json(path)?)
        .map_err(|e| format!("{path} failed validation: {e}"))?;
    eprintln!(
        "serve: {path} ok: {} scheme(s), {} rate point(s), {} completed, {} shed",
        s.schemes, s.rate_points, s.total_completed, s.total_shed
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::run("serve", run)
}

fn run() -> Result<ExitCode, String> {
    let mut seed = 42u64;
    let mut json_path: Option<String> = None;
    let mut verify_path: Option<String> = None;
    let mut schemes = None;
    let mut workload = None;
    let mut arrival = None;
    let mut cores = None;
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
            "--workload" => workload = Some(args.value("--workload")?),
            "--arrival" => arrival = Some(args.value("--arrival")?),
            "--cores" => cores = Some(args.positive("--cores")?),
            "--help" | "-h" => {
                return Ok(cli::help(
                    "usage: serve [--quick] [--seed N] [--jobs N] [--json FILE] \
                     [--workload NAME] [--arrival poisson|bursty|diurnal] \
                     [--schemes a,b] [--cores N] [--verify FILE]",
                ));
            }
            other => return Err(cli::unknown(other)),
        }
    }

    if let Some(path) = &verify_path {
        return verify_report(path);
    }

    let mut cfg = ServeCampaignConfig::quick(seed);
    if let Some(v) = schemes {
        cfg.schemes = v;
    }
    if let Some(w) = workload {
        cfg.workload = w;
    }
    if let Some(k) = arrival {
        cfg.arrival = k;
    }
    if let Some(c) = cores {
        cfg.cores = c;
    }

    eprintln!(
        "serve: ramping {} scheme(s) x {} rate(s) ({} arrivals, {} x{} requests, seed {seed}) \
         on {} worker(s) ...",
        cfg.schemes.len(),
        cfg.load_fractions.len(),
        cfg.arrival,
        cfg.cores,
        cfg.params.num_ops,
        opts.jobs
    );
    let started = Instant::now();
    let report = run_serve(&cfg, &opts).map_err(|e| format!("campaign failed: {e}"))?;
    // Wall-clock goes to stderr only: the JSON report must stay
    // byte-identical across worker counts and machines.
    eprintln!(
        "serve: {} rate point(s) in {:.1}s",
        report.curves.iter().map(|c| c.points.len()).sum::<usize>(),
        started.elapsed().as_secs_f64()
    );

    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>6} {:>7}",
        "scheme", "offered", "achieved", "p50", "p99", "p99.9", "tc-tail", "shed", "ceiling"
    );
    for curve in &report.curves {
        for (i, p) in curve.points.iter().enumerate() {
            let total = p.tc_stall.sum() + p.nvm_stall.sum();
            let tc_share = if total == 0 {
                0.0
            } else {
                p.tc_stall.sum() as f64 / total as f64
            };
            let ceiling = if i == 0 {
                format!("{:.3}", curve.ceiling())
            } else {
                String::new()
            };
            println!(
                "{:<8} {:>9.4} {:>9.4} {:>9} {:>8} {:>8} {:>8.0}% {:>6} {:>7}",
                curve.scheme.to_string(),
                p.offered,
                p.achieved,
                p.latency.percentile(0.50),
                p.latency.percentile(0.99),
                p.latency.percentile(0.999),
                tc_share * 100.0,
                p.shed,
                ceiling
            );
        }
    }

    if let Some(path) = &json_path {
        cli::write_json(path, &report.to_json())?;
    }
    Ok(ExitCode::SUCCESS)
}
