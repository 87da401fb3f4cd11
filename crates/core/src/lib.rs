#![warn(missing_docs)]
//! # pmacc — a persistent memory accelerator
//!
//! A full reproduction of *"Leave the Cache Hierarchy Operation as It Is:
//! A New Persistent Memory Accelerating Approach"* (DAC 2017): a
//! nonvolatile **transaction cache** deployed beside an unmodified cache
//! hierarchy buffers the stores of in-flight transactions and writes them
//! to NVM in FIFO order, giving multi-versioning and write-order control
//! without logging, cache flushes or memory barriers.
//!
//! The crate contains:
//!
//! * [`TxCache`] — the CAM-FIFO transaction cache of §4.1;
//! * [`scheme`] — the five persistence schemes (the four of §5,
//!   `Optimal`, `SP`, `TC` and `NVLLC`, plus the `eADR` upper bound): the
//!   instrumentation, and one file per scheme of hooks and recovery;
//! * [`System`] — the full-system simulator (cores, hierarchy, transaction
//!   caches, NVM/DRAM controllers) that produces the paper's figures;
//! * [`recovery`] — crash snapshots, the recovery entry points and a
//!   transaction-atomicity checker;
//! * [`hwcost`] — the Table 1 hardware-overhead calculator.
//!
//! # Quickstart
//!
//! ```
//! use pmacc::{RunConfig, System};
//! use pmacc_types::{MachineConfig, SchemeKind};
//! use pmacc_workloads::{WorkloadKind, WorkloadParams};
//!
//! let machine = MachineConfig::small().with_scheme(SchemeKind::TxCache);
//! let mut system = System::for_workload(
//!     machine,
//!     WorkloadKind::Hashtable,
//!     &WorkloadParams::tiny(1),
//!     &RunConfig::default(),
//! )?;
//! let report = system.run()?;
//! assert!(report.total_committed() > 0);
//! # Ok::<(), pmacc_types::SimError>(())
//! ```

pub mod energy;
pub mod hwcost;
mod inputs;
mod metrics;
pub mod recovery;
pub mod scheme;
mod system;
mod txcache;

pub use metrics::RunReport;
pub use system::{BoundaryClass, EngineStats, RunConfig, ServeConfig, ServeCoreStats, System};
pub use txcache::{EntryState, TcEntry, TcFullError, TcStats, TxCache};
