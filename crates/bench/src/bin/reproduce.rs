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
use pmacc_bench::{report, suggest, FigTable, GridResults};
use pmacc_types::{MachineConfig, SimError};

/// How an experiment renders its table.
#[derive(Clone, Copy)]
enum Runner {
    /// From the one scheme x workload grid every such experiment shares.
    Grid(fn(&GridResults) -> FigTable),
    /// From its own cells at the run's scale and seed.
    Own(fn(Scale, u64, &Options) -> Result<FigTable, SimError>),
}

/// Every experiment, in the default run order.
const EXPERIMENTS: [(&str, Runner); 22] = [
    ("table2", Runner::Own(|_, _, _| Ok(figures::table2(&MachineConfig::dac17())))),
    ("table3", Runner::Own(|scale, seed, _| Ok(figures::table3(scale, seed)))),
    ("table1", Runner::Own(|_, _, _| Ok(figures::table1(&MachineConfig::dac17())))),
    ("fig6", Runner::Grid(figures::fig6)),
    ("fig7", Runner::Grid(figures::fig7)),
    ("fig8", Runner::Grid(figures::fig8)),
    ("fig9", Runner::Grid(figures::fig9)),
    ("fig9-breakdown", Runner::Grid(figures::fig9_breakdown)),
    ("fig10", Runner::Grid(figures::fig10)),
    ("stalls", Runner::Grid(figures::stalls)),
    ("energy", Runner::Grid(figures::energy)),
    ("endurance", Runner::Grid(figures::endurance)),
    ("recovery", Runner::Own(figures::recovery_table)),
    ("mix", Runner::Own(figures::mix)),
    ("warm", Runner::Own(figures::warm)),
    ("sharing", Runner::Own(figures::sharing)),
    ("wear", Runner::Own(figures::wear)),
    ("ablation-size", Runner::Own(figures::ablation_txcache_size)),
    ("ablation-overflow", Runner::Own(figures::ablation_overflow)),
    ("ablation-nvm", Runner::Own(figures::ablation_nvm_latency)),
    ("ablation-coalesce", Runner::Own(figures::ablation_coalesce)),
    ("ablation-sp-fencing", Runner::Own(figures::ablation_sp_fencing)),
];

fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|&(name, _)| name).collect()
}

fn usage() -> String {
    format!(
        "usage: reproduce [--quick|--full] [--json FILE] [--seed N] [--jobs N] \
         [--list] [experiment ...]\n\
         experiments: {}",
        names().join(" ")
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
    let mut wanted: Vec<(&str, Runner)> = Vec::new();
    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--list" => {
                for name in names() {
                    println!("{name}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--json" => json_path = Some(args.value("--json")?),
            "--seed" => seed = args.value("--seed")?,
            "--jobs" => opts.jobs = args.positive("--jobs")?,
            "--help" | "-h" => return Ok(cli::help(&usage())),
            other => match EXPERIMENTS.iter().find(|&&(name, _)| name == other) {
                Some(&experiment) => wanted.push(experiment),
                None => {
                    let hint = suggest::closest(other, &names())
                        .map(|s| format!("; did you mean `{s}`?"))
                        .unwrap_or_default();
                    return Err(format!(
                        "unknown experiment `{other}`{hint}\n\
                         run `reproduce --list` for the experiment names"
                    ));
                }
            },
        }
    }
    if wanted.is_empty() {
        wanted = EXPERIMENTS.to_vec();
    }

    println!("# pmacc reproduction report\n");
    println!(
        "Scale: {scale}; seed: {seed}; machine: Table 2, capacity-scaled for the grid.\n"
    );

    // The grid-derived figures share one grid; run it once if any is
    // requested.
    let needs_grid = wanted.iter().any(|(_, r)| matches!(r, Runner::Grid(_)));
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

    let mut rendered: Vec<(String, FigTable)> = Vec::new();
    for (name, runner) in wanted {
        eprintln!("rendering {name} ...");
        let table = match runner {
            Runner::Grid(render) => Ok(render(grid.as_ref().expect("grid ran"))),
            Runner::Own(render) => render(scale, seed, &opts),
        };
        let t = table.map_err(|e| format!("{name} failed: {e}"))?;
        print!("{t}");
        rendered.push((name.to_string(), t));
    }

    if let Some(path) = &json_path {
        cli::write_json(path, &report::full_report(scale, seed, grid.as_ref(), &rendered))?;
    }
    Ok(ExitCode::SUCCESS)
}
