//! The calibration regression gate: runs a fresh experiment grid and
//! diffs its key metrics against a checked-in baseline.
//!
//! ```text
//! regress [--quick|--full] [--seed N] [--jobs N]
//!         [--baseline FILE] [--write-baseline] [--json FILE]
//! ```
//!
//! The default baseline is `baselines/metrics-quick.json` (relative to
//! the working directory — CI runs from the repository root). Every
//! baseline entry carries its own relative tolerance; a fresh run whose
//! metrics all land within tolerance exits 0, anything else exits 1 and
//! prints one line per offending metric, by name, to stderr:
//!
//! ```text
//! regress: fig9/tc/mean: expected 0.31, got 0.44 (rel err 0.42 > tol 0.02)
//! ```
//!
//! After an *intentional* calibration change, refresh the baseline with
//! `--write-baseline` (at the scale and seed the gate uses) and commit
//! the result. `--json FILE` writes the fresh run's metrics in the same
//! baseline document format — CI publishes it as `BENCH_pmacc.json` so
//! trends can be tracked across commits.

use std::process::ExitCode;

use pmacc::RunConfig;
use pmacc_bench::cli::{self, Args};
use pmacc_bench::grid::{run_grid_opts, Scale};
use pmacc_bench::pool::Options;
use pmacc_bench::report;
use pmacc_telemetry::Json;

const DEFAULT_BASELINE: &str = "baselines/metrics-quick.json";

fn main() -> ExitCode {
    cli::run("regress", run)
}

fn run() -> Result<ExitCode, String> {
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut baseline_path = DEFAULT_BASELINE.to_string();
    let mut write_baseline = false;
    let mut json_path: Option<String> = None;
    let mut opts = Options {
        progress: true,
        ..Options::default()
    };
    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--write-baseline" => write_baseline = true,
            "--baseline" => baseline_path = args.value("--baseline")?,
            "--json" => json_path = Some(args.value("--json")?),
            "--seed" => seed = args.value("--seed")?,
            "--jobs" => opts.jobs = args.positive("--jobs")?,
            "--help" | "-h" => {
                return Ok(cli::help(
                    "usage: regress [--quick|--full] [--seed N] [--jobs N] \
                     [--baseline FILE] [--write-baseline] [--json FILE]",
                ));
            }
            other => return Err(cli::unknown(other)),
        }
    }

    eprintln!(
        "regress: running the {scale} grid (seed {seed}) on {} worker(s) ...",
        opts.jobs
    );
    let grid = run_grid_opts(scale, seed, &RunConfig::default(), &opts)
        .map_err(|e| format!("grid failed: {e}"))?;
    let metrics = report::key_metrics(&grid);
    let doc = report::baseline_json(&metrics, scale, seed);

    if let Some(path) = &json_path {
        cli::write_json(path, &doc)?;
    }
    if write_baseline {
        cli::write_json(&baseline_path, &doc)?;
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = cli::read_json(&baseline_path)
        .map_err(|e| format!("{e}\nregress: create one with `regress --write-baseline`"))?;
    if baseline.get("scale").and_then(Json::as_str) != Some(scale.to_string().as_str()) {
        return Err(format!(
            "baseline {baseline_path} was recorded at scale {:?}, \
             but this run is {scale}; pass the matching scale flag",
            baseline.get("scale").and_then(Json::as_str).unwrap_or("?")
        ));
    }
    let diffs = report::compare_to_baseline(&metrics, &baseline)?;
    if diffs.is_empty() {
        eprintln!("regress: all baseline metrics within tolerance");
        return Ok(ExitCode::SUCCESS);
    }
    for d in &diffs {
        eprintln!("regress: {d}");
    }
    Err(format!(
        "{} metric(s) out of tolerance vs {baseline_path}; \
         if the calibration change is intentional, refresh with \
         `regress --write-baseline`",
        diffs.len()
    ))
}
