//! The trace instruction set.

use core::fmt;

use pmacc_types::{Addr, Word};

/// One operation in a core's trace.
///
/// Workload generators emit `Compute`/`Load`/`Store`/`TxBegin`/`TxEnd`;
/// the SP baseline's instrumentation pass additionally injects `LogStore`,
/// `Flush` (`clwb`) and `Fence` (`sfence`), matching Figure 3(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` ALU operations (consume `n` issue slots, no memory access).
    Compute(u32),
    /// A 64-bit demand load.
    Load {
        /// Address read.
        addr: Addr,
    },
    /// A 64-bit store.
    Store {
        /// Address written.
        addr: Addr,
        /// Value written (functional half).
        value: Word,
    },
    /// A write-ahead-log record append (SP baseline): one 16-byte record
    /// (`meta` word then `value` word) written at `addr`. Timing-wise one
    /// store; attributed separately so Figure 9 can break down traffic.
    LogStore {
        /// Record base address (16-byte aligned in the log area).
        addr: Addr,
        /// Encoded record header (serial + data address).
        meta: Word,
        /// New data value (functional half).
        value: Word,
    },
    /// `clwb`: write the line containing `addr` back to memory, keeping it
    /// cached. Completion is tracked; a later [`Op::Fence`] waits for it.
    Flush {
        /// Address whose line is flushed.
        addr: Addr,
    },
    /// `sfence`: stall until the store buffer has drained and every
    /// outstanding flush has been acknowledged by memory.
    Fence,
    /// `pcommit` (+ trailing `sfence`): stall until every write *accepted
    /// by the NVM memory controller* — from any core — is durable, in
    /// addition to the [`Op::Fence`] conditions. This is the pre-ADR x86
    /// persistence instruction the paper's Figure 3(a) uses.
    PCommit,
    /// `TX_BEGIN`: enter transaction mode (copies the next-TxID register
    /// into the mode register, §4.2).
    TxBegin,
    /// `TX_END`: commit the running transaction and return to normal mode.
    TxEnd,
}

impl Op {
    /// Convenience constructor for a load.
    #[must_use]
    pub fn load(addr: Addr) -> Self {
        Op::Load { addr }
    }

    /// Convenience constructor for a store.
    #[must_use]
    pub fn store(addr: Addr, value: Word) -> Self {
        Op::Store { addr, value }
    }

    /// Issue slots the op consumes.
    #[must_use]
    pub fn issue_slots(self) -> u32 {
        match self {
            Op::Compute(n) => n.max(1),
            _ => 1,
        }
    }

    /// Whether the op touches memory (load/store/log/flush).
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            Op::Load { .. } | Op::Store { .. } | Op::LogStore { .. } | Op::Flush { .. }
        )
    }

    /// Whether the op writes memory through the store path.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Op::Store { .. } | Op::LogStore { .. })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute(n) => write!(f, "compute x{n}"),
            Op::Load { addr } => write!(f, "load {addr}"),
            Op::Store { addr, value } => write!(f, "store {addr} <- {value:#x}"),
            Op::LogStore { addr, meta, value } => {
                write!(f, "log {addr} <- ({meta:#x}, {value:#x})")
            }
            Op::Flush { addr } => write!(f, "clwb {addr}"),
            Op::Fence => f.write_str("sfence"),
            Op::PCommit => f.write_str("pcommit"),
            Op::TxBegin => f.write_str("tx_begin"),
            Op::TxEnd => f.write_str("tx_end"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_slots() {
        assert_eq!(Op::Compute(3).issue_slots(), 3);
        assert_eq!(Op::Compute(0).issue_slots(), 1);
        assert_eq!(Op::Fence.issue_slots(), 1);
    }

    #[test]
    fn classification() {
        let a = Addr::new(64);
        assert!(Op::load(a).is_memory());
        assert!(!Op::load(a).is_store());
        assert!(Op::store(a, 1).is_store());
        assert!(Op::LogStore {
            addr: a,
            meta: 0,
            value: 1
        }
        .is_store());
        assert!(Op::Flush { addr: a }.is_memory());
        assert!(!Op::TxBegin.is_memory());
    }

    #[test]
    fn display() {
        assert_eq!(Op::Fence.to_string(), "sfence");
        assert_eq!(Op::Compute(2).to_string(), "compute x2");
    }
}
