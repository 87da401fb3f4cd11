#![warn(missing_docs)]
//! Main-memory substrate for the `pmacc` simulator.
//!
//! Replaces the role DRAMSim2 played in the paper's evaluation: each
//! [`MemController`] models one channel (NVM or DRAM) with
//!
//! * separate read/write queues (8/64 entries in the paper's Table 2),
//! * a *read-first* scheduling policy that drains writes when the write
//!   queue reaches its high watermark (80% in the paper), picking
//!   FR-FCFS within a queue,
//! * bank-level parallelism with open-row buffers, and
//! * per-request completions, which the system layer turns into the NVM
//!   controller's **acknowledgment messages** to the transaction cache.
//!
//! The crate also provides the *functional* [`Backing`] store that records
//! the 64-bit word contents of memory, so crash recovery can be checked
//! rather than assumed.
//!
//! # Example
//!
//! ```
//! use pmacc_mem::MemController;
//! use pmacc_types::{LineAddr, MemConfig, MemRegion, MemReq, ReqId};
//!
//! let mut ctrl = MemController::new(MemRegion::Nvm, MemConfig::nvm_dac17());
//! ctrl.enqueue(MemReq::read(ReqId(1), LineAddr::new(0x8000_0000 / 64)), 0)
//!     .expect("queue has room");
//! // Poke far in the future: the read has certainly completed.
//! let done = ctrl.advance(10_000);
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].req.id, ReqId(1));
//! ```

mod backing;
mod bank;
mod controller;
mod scheduler;
mod stats;
mod wear;

pub use backing::Backing;
pub use bank::{AddressMap, BankId, BankState};
pub use controller::{Completion, EnqueueFullError, MemController};
pub use stats::{MemStats, WEAR_DETAIL_MAX_LINES};
pub use wear::{
    projected_lifetime_runs, projected_lifetime_seconds, WearMap, WearSnapshot, WriteMapping,
};
