//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [--quick|--full] [--json FILE] [--seed N] [--jobs N]
//!           [--list] [experiment ...]
//! ```
//!
//! With no experiment arguments, everything runs; `--list` prints the
//! experiment names (one per line, the authoritative list — this doc
//! comment deliberately does not repeat it). A mistyped name exits
//! nonzero with a "did you mean" suggestion.
//!
//! Output is markdown on stdout (progress goes to stderr), so
//! `reproduce > results.md` captures a complete report. `--json FILE`
//! additionally writes the machine-readable document assembled by
//! [`pmacc_bench::report::full_report`] — per-cell reports with sampled
//! time series, key metrics, and every rendered table — for plotting
//! tools and the `regress` gate's `BENCH` artifacts.
//!
//! Independent simulation cells fan out over the `pmacc_bench::pool`
//! worker pool: `--jobs N` (or the `PMACC_JOBS` environment variable)
//! bounds the worker count, defaulting to all available cores. Results
//! — including the `--json` document, byte for byte — are identical at
//! any job count for the same seed.

use std::process::ExitCode;

use pmacc::RunConfig;
use pmacc_bench::cli::{self, Args};
use pmacc_bench::figures;
use pmacc_bench::grid::{run_grid_opts, Scale};
use pmacc_bench::pool::Options;
use pmacc_bench::{report, suggest};
use pmacc_types::MachineConfig;

const GRID_EXPERIMENTS: [&str; 9] = [
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig9-breakdown",
    "fig10",
    "stalls",
    "energy",
    "endurance",
];
const ALL_EXPERIMENTS: [&str; 22] = [
    "table2",
    "table3",
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig9-breakdown",
    "fig10",
    "stalls",
    "energy",
    "endurance",
    "recovery",
    "mix",
    "warm",
    "sharing",
    "wear",
    "ablation-size",
    "ablation-overflow",
    "ablation-nvm",
    "ablation-coalesce",
    "ablation-sp-fencing",
];

fn usage() -> String {
    format!(
        "usage: reproduce [--quick|--full] [--json FILE] [--seed N] [--jobs N] \
         [--list] [experiment ...]\n\
         experiments: {}",
        ALL_EXPERIMENTS.join(" ")
    )
}

fn main() -> ExitCode {
    cli::run("reproduce", run)
}

fn run() -> Result<ExitCode, String> {
    let mut scale = Scale::Default;
    let mut seed = 42u64;
    let mut json_path: Option<String> = None;
    let mut opts = Options {
        progress: true,
        ..Options::default()
    };
    let mut wanted: Vec<String> = Vec::new();
    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--list" => {
                for e in ALL_EXPERIMENTS {
                    println!("{e}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--json" => json_path = Some(args.value("--json")?),
            "--seed" => seed = args.value("--seed")?,
            "--jobs" => opts.jobs = args.positive("--jobs")?,
            "--help" | "-h" => return Ok(cli::help(&usage())),
            other if ALL_EXPERIMENTS.contains(&other) => wanted.push(other.to_string()),
            other => {
                let hint = suggest::closest(other, &ALL_EXPERIMENTS)
                    .map(|s| format!("; did you mean `{s}`?"))
                    .unwrap_or_default();
                return Err(format!(
                    "unknown experiment `{other}`{hint}\n\
                     run `reproduce --list` for the experiment names"
                ));
            }
        }
    }
    if wanted.is_empty() {
        wanted = ALL_EXPERIMENTS.iter().map(|s| (*s).to_string()).collect();
    }

    println!("# pmacc reproduction report\n");
    println!(
        "Scale: {scale}; seed: {seed}; machine: Table 2, capacity-scaled for the grid.\n"
    );

    // The grid-derived figures share one grid; run it once if any is
    // requested.
    let needs_grid = wanted.iter().any(|w| GRID_EXPERIMENTS.contains(&w.as_str()));
    let grid = if needs_grid {
        eprintln!(
            "running the {scale} scheme x workload grid on {} worker(s) ...",
            opts.jobs
        );
        Some(
            run_grid_opts(scale, seed, &RunConfig::default(), &opts)
                .map_err(|e| format!("grid failed: {e}"))?,
        )
    } else {
        None
    };

    let grid_ran = || grid.as_ref().expect("grid ran");
    let mut rendered: Vec<(String, pmacc_bench::FigTable)> = Vec::new();
    for w in &wanted {
        eprintln!("rendering {w} ...");
        let table = match w.as_str() {
            "table1" => Ok(figures::table1(&MachineConfig::dac17())),
            "table2" => Ok(figures::table2(&MachineConfig::dac17())),
            "table3" => Ok(figures::table3(scale, seed)),
            "fig6" => Ok(figures::fig6(grid_ran())),
            "fig7" => Ok(figures::fig7(grid_ran())),
            "fig8" => Ok(figures::fig8(grid_ran())),
            "fig9" => Ok(figures::fig9(grid_ran())),
            "fig9-breakdown" => Ok(figures::fig9_breakdown(grid_ran())),
            "fig10" => Ok(figures::fig10(grid_ran())),
            "stalls" => Ok(figures::stalls(grid_ran())),
            "energy" => Ok(figures::energy(grid_ran())),
            "endurance" => Ok(figures::endurance(grid_ran())),
            "recovery" => figures::recovery_table(scale, seed, &opts),
            "mix" => figures::mix(scale, seed, &opts),
            "warm" => figures::warm(scale, seed, &opts),
            "sharing" => figures::sharing(scale, seed, &opts),
            "wear" => figures::wear(scale, seed, &opts),
            "ablation-size" => figures::ablation_txcache_size(scale, seed, &opts),
            "ablation-overflow" => figures::ablation_overflow(scale, seed, &opts),
            "ablation-nvm" => figures::ablation_nvm_latency(scale, seed, &opts),
            "ablation-coalesce" => figures::ablation_coalesce(scale, seed, &opts),
            "ablation-sp-fencing" => figures::ablation_sp_fencing(scale, seed, &opts),
            _ => unreachable!("validated above"),
        };
        let t = table.map_err(|e| format!("{w} failed: {e}"))?;
        print!("{t}");
        rendered.push((w.clone(), t));
    }

    if let Some(path) = &json_path {
        cli::write_json(path, &report::full_report(scale, seed, grid.as_ref(), &rendered))?;
    }
    Ok(ExitCode::SUCCESS)
}
