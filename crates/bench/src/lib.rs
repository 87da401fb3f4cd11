#![warn(missing_docs)]
//! Benchmark harness reproducing every table and figure of the DAC'17
//! transaction-cache paper.
//!
//! The [`grid`] module runs the §5 experiment matrix (4 schemes × 5
//! workloads), fanned out over the [`pool`] worker pool (one job per
//! independent cell, `PMACC_JOBS`/`--jobs` workers, bit-identical
//! results at any job count); [`figures`] turns grids into the paper's
//! tables and figures as markdown; [`report`] flattens the same grids
//! into machine-readable JSON and backs the regression gate;
//! [`crashgrid`] runs dense fault-injection campaigns (every scheme ×
//! workload × core-count cell crashed at hundreds of boundary-clustered
//! points, violations minimized into replayable reproducers); the
//! `reproduce`, `regress` and `crashgrid` binaries drive everything,
//! parsing their flags through [`cli`]:
//!
//! ```text
//! cargo run --release -p pmacc-bench --bin reproduce              # all
//! cargo run --release -p pmacc-bench --bin reproduce -- --list    # names
//! cargo run --release -p pmacc-bench --bin reproduce -- fig6      # one
//! cargo run --release -p pmacc-bench --bin reproduce -- --quick \
//!     --json out.json fig6 fig9                                   # + JSON
//! cargo run --release -p pmacc-bench --bin regress -- --quick     # gate
//! cargo run --release -p pmacc-bench --bin crashgrid -- --quick   # faults
//! ```

pub mod cli;
pub mod crashgrid;
pub mod figures;
pub mod grid;
pub mod harness;
pub mod pool;
pub mod report;
pub mod serve;
pub mod suggest;
pub mod table;

pub use crashgrid::{run_campaign, CampaignConfig, CampaignReport, CRASHGRID_SCHEMA};
pub use serve::{run_serve, ServeCampaignConfig, ServeReport, SERVE_SCHEMA};
pub use grid::{GridResults, Scale};
pub use table::FigTable;
