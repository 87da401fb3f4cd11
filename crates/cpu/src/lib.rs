#![warn(missing_docs)]
//! CPU substrate for the `pmacc` simulator.
//!
//! Replaces the role MARSSx86/PTLsim played in the paper's evaluation with
//! a *trace-driven* timing model: each core executes a stream of [`Op`]s
//! (compute, loads, stores, transaction markers and — for the SP baseline —
//! `clwb`/`sfence` write-order-control instructions) at the paper's 4-wide
//! issue rate, with a finite [`StoreBuffer`], a bounded load window
//! (memory-level parallelism) and the transaction-mode / next-TxID
//! registers of §4.2.
//!
//! The crate owns per-core *state* and accounting; the system crate
//! (`pmacc`) drives execution because timing depends on the caches, the
//! transaction cache and the memory controllers.
//!
//! # Example
//!
//! ```
//! use pmacc_cpu::{Op, Trace};
//! use pmacc_types::Addr;
//!
//! let mut t = Trace::new();
//! t.push(Op::TxBegin);
//! t.push(Op::store(Addr::nvm_base(), 7));
//! t.push(Op::TxEnd);
//! assert!(t.validate().is_ok());
//! assert_eq!(t.transactions(), 1);
//! ```

mod op;
mod regs;
mod stats;
mod store_buffer;
pub mod text;
mod trace;

pub use op::Op;
pub use regs::TxRegs;
pub use stats::{CoreStats, StallKind};
pub use store_buffer::{StoreBuffer, StoreKind};
pub use trace::{Trace, TraceError};
