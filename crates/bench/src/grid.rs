//! The §5 experiment matrix: 4 schemes × 5 workloads on the Table 2
//! machine (capacity-scaled; see `EXPERIMENTS.md`).
//!
//! Every cell is one independent [`System`] run — a (workload, scheme)
//! pair at a [`Scale`] and seed — so the grid fans out over the
//! [`crate::pool`] worker pool through [`sweep`], the keyed fan-out
//! every experiment (grid, ablations, extensions) shares; the worker
//! count comes from [`Options`]. Results are keyed and ordered
//! deterministically regardless of which worker finished first, so the
//! same seed produces the same [`GridResults`] (and the same rendered
//! `results.md`) at any job count.
//!
//! ```no_run
//! use pmacc_bench::grid::{run_grid_opts, Scale};
//! use pmacc_bench::pool::Options;
//! use pmacc::RunConfig;
//!
//! // The whole 20-cell grid on 4 workers, with per-cell progress lines.
//! let grid = run_grid_opts(
//!     Scale::Quick,
//!     42,
//!     &RunConfig::default(),
//!     &Options { jobs: 4, progress: true },
//! )?;
//! println!("TC mean IPC vs Optimal: {:.3}",
//!     grid.mean_normalized(pmacc_types::SchemeKind::TxCache, pmacc::RunReport::ipc));
//! # Ok::<(), pmacc_types::SimError>(())
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use pmacc::{RunConfig, RunReport, System};

use pmacc_types::{MachineConfig, SchemeKind, SimError};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

use crate::pool::{self, Job, Options};

/// How large the simulated runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// ~1k transactions per core: seconds per grid, for smoke runs and
    /// the timing-harness benches.
    Quick,
    /// ~5k transactions per core: a couple of minutes for the full grid.
    #[default]
    Default,
    /// ~20k transactions per core: the numbers recorded in
    /// `EXPERIMENTS.md`.
    Full,
}

impl core::fmt::Display for Scale {
    /// The lower-case name used on the CLI and in JSON reports
    /// (`quick`, `default`, `full`).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        })
    }
}

impl Scale {
    /// Workload parameters at this scale.
    #[must_use]
    pub fn params(self, seed: u64) -> WorkloadParams {
        let mut p = WorkloadParams::evaluation(seed);
        match self {
            Scale::Quick => {
                p.num_ops = 1_000;
                p.setup_items = 60_000;
                p.key_space = 200_000;
            }
            Scale::Default => {
                p.num_ops = 5_000;
            }
            Scale::Full => {}
        }
        p
    }

    /// The machine the grid runs on.
    #[must_use]
    pub fn machine(self) -> MachineConfig {
        MachineConfig::dac17_scaled()
    }
}

/// Results of one grid run, keyed by workload then scheme.
#[derive(Debug)]
pub struct GridResults {
    /// The reports.
    pub results: BTreeMap<(WorkloadKind, SchemeKind), RunReport>,
    /// Scale used.
    pub scale: Scale,
}

impl GridResults {
    /// The report for one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not part of the grid.
    #[must_use]
    pub fn get(&self, kind: WorkloadKind, scheme: SchemeKind) -> &RunReport {
        self.results
            .get(&(kind, scheme))
            .expect("cell was simulated")
    }

    /// A metric for one cell normalized to the Optimal scheme of the same
    /// workload; `f` extracts the metric.
    #[must_use]
    pub fn normalized(
        &self,
        kind: WorkloadKind,
        scheme: SchemeKind,
        f: impl Fn(&RunReport) -> f64,
    ) -> f64 {
        let base = f(self.get(kind, SchemeKind::Optimal));
        if base == 0.0 {
            0.0
        } else {
            f(self.get(kind, scheme)) / base
        }
    }

    /// Arithmetic mean of a normalized metric across all workloads.
    #[must_use]
    pub fn mean_normalized(
        &self,
        scheme: SchemeKind,
        f: impl Fn(&RunReport) -> f64 + Copy,
    ) -> f64 {
        let all = WorkloadKind::all();
        all.iter()
            .map(|k| self.normalized(*k, scheme, f))
            .sum::<f64>()
            / all.len() as f64
    }
}

/// Runs one [`crate::pool`] job per key and collects the results by key —
/// the one fan-out every experiment goes through.
///
/// `label` names each cell in progress lines and panic reports; `cell`
/// computes one key's result. The map is keyed, not positional, and the
/// pool returns jobs in submission order, so the result is identical at
/// any `opts.jobs` — the determinism regression test compares `jobs = 1`
/// against `jobs = 4` bit for bit.
///
/// ```
/// use pmacc_bench::grid::sweep;
/// use pmacc_bench::pool::Options;
///
/// let squares = sweep([3u64, 1, 2], 0, &Options { jobs: 2, progress: false },
///     |k| format!("square {k}"), |&k| Ok::<u64, String>(k * k))?;
/// assert_eq!(squares.into_iter().collect::<Vec<_>>(), [(1, 1), (2, 4), (3, 9)]);
/// # Ok::<(), String>(())
/// ```
///
/// # Errors
///
/// Returns the error of the first failing cell in *key* order (not
/// completion order, which would be racy).
///
/// # Panics
///
/// If a cell panics, the whole sweep fails with a panic naming the
/// offending cell's label and `seed`, so it can be replayed serially
/// (`--jobs 1`) or alone (`simulate --workload W --scheme S`).
pub fn sweep<K, T, E, F>(
    keys: impl IntoIterator<Item = K>,
    seed: u64,
    opts: &Options,
    label: impl Fn(&K) -> String,
    cell: F,
) -> Result<BTreeMap<K, T>, E>
where
    K: Ord + Clone + Send + 'static,
    T: Send + 'static,
    E: Send + 'static,
    F: Fn(&K) -> Result<T, E> + Send + Sync + 'static,
{
    let keys: Vec<K> = keys.into_iter().collect();
    let cell = Arc::new(cell);
    let jobs = keys
        .iter()
        .map(|key| {
            let (key, cell) = (key.clone(), Arc::clone(&cell));
            Job::new(label(&key), move || cell(&key))
        })
        .collect();
    let results = pool::run_jobs(jobs, opts.jobs, opts.progress)
        .unwrap_or_else(|p| panic!("cell {} (seed {seed}) panicked: {}", p.label, p.message));
    let by_key: BTreeMap<K, Result<T, E>> = keys.into_iter().zip(results).collect();
    by_key.into_iter().map(|(key, r)| Ok((key, r?))).collect()
}

/// Runs the full scheme × workload grid: every (workload, scheme) cell
/// is one [`sweep`] job, under `run_cfg` (e.g. a measurement warm-up).
///
/// # Errors
///
/// Returns the first simulation error, in cell key order.
///
/// # Panics
///
/// As [`sweep`]: a panicking cell fails the grid with the offending
/// `workload/scheme` cell and the seed named.
pub fn run_grid_opts(
    scale: Scale,
    seed: u64,
    run_cfg: &RunConfig,
    opts: &Options,
) -> Result<GridResults, SimError> {
    let keys = WorkloadKind::all()
        .into_iter()
        .flat_map(|kind| SchemeKind::all().map(|scheme| (kind, scheme)));
    let run_cfg = *run_cfg;
    let results = sweep(
        keys,
        seed,
        opts,
        |(kind, scheme)| format!("{kind}/{scheme}"),
        move |&(kind, scheme)| {
            let machine = scale.machine().with_scheme(scheme);
            System::for_workload(machine, kind, &scale.params(seed), &run_cfg)?.run()
        },
    )?;
    Ok(GridResults { results, scale })
}

/// Runs one cell of the grid (or an ablation variant of it).
///
/// # Errors
///
/// Returns the simulation error, if any.
pub fn run_cell(
    machine: MachineConfig,
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
) -> Result<RunReport, SimError> {
    System::for_workload(machine, kind, &scale.params(seed), &RunConfig::default())?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_valid_params() {
        for scale in [Scale::Quick, Scale::Default, Scale::Full] {
            let p = scale.params(1);
            assert!(p.num_ops >= 1_000);
            assert!(scale.machine().validate().is_ok());
        }
    }

    #[test]
    fn normalized_is_one_for_optimal() {
        // A tiny synthetic grid with hand-made reports would need a lot of
        // plumbing; instead check the arithmetic on a minimal real run.
        let mut results = BTreeMap::new();
        let mut machine = MachineConfig::small();
        machine.cores = 2;
        for scheme in [SchemeKind::Optimal, SchemeKind::TxCache] {
            let mut p = WorkloadParams::tiny(1);
            p.num_ops = 20;
            let mut sys = pmacc::System::for_workload(
                machine.clone().with_scheme(scheme),
                WorkloadKind::Sps,
                &p,
                &RunConfig::default(),
            )
            .unwrap();
            results.insert((WorkloadKind::Sps, scheme), sys.run().unwrap());
        }
        let grid = GridResults {
            results,
            scale: Scale::Quick,
        };
        let r = grid.normalized(WorkloadKind::Sps, SchemeKind::Optimal, RunReport::ipc);
        assert!((r - 1.0).abs() < 1e-12);
    }
}
