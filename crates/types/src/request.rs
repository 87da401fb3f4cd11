//! Memory requests exchanged between caches, the transaction cache and the
//! memory controllers.

use core::fmt;

use crate::LineAddr;

/// Unique identifier of an in-flight memory request, used to match
/// completions (including the NVM controller's acknowledgment messages to
/// the transaction cache) back to their issuers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Whether a request reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read (cache-line fill or demand load).
    Read,
    /// A write (write-back, drain, log or flush traffic).
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// Why a write reached a memory controller. Figure 9 of the paper breaks
/// NVM write traffic down by scheme; the cause lets the harness attribute
/// every NVM write to the mechanism that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteCause {
    /// Dirty line evicted from the last-level cache (the only NVM write
    /// path in the no-persistence Optimal scheme).
    Eviction,
    /// Committed entry drained from the transaction cache (TC scheme).
    TxCacheDrain,
    /// Software write-ahead-log record (SP scheme).
    Log,
    /// Explicit `clwb` cache-line write-back (SP scheme).
    Flush,
    /// Hardware copy-on-write fall-back traffic (TC overflow path).
    Cow,
    /// Replay traffic generated during crash recovery.
    Recovery,
}

impl WriteCause {
    /// All causes, in display order.
    #[must_use]
    pub fn all() -> [WriteCause; 6] {
        [
            WriteCause::Eviction,
            WriteCause::TxCacheDrain,
            WriteCause::Log,
            WriteCause::Flush,
            WriteCause::Cow,
            WriteCause::Recovery,
        ]
    }
}

impl fmt::Display for WriteCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WriteCause::Eviction => "eviction",
            WriteCause::TxCacheDrain => "tc-drain",
            WriteCause::Log => "log",
            WriteCause::Flush => "flush",
            WriteCause::Cow => "cow",
            WriteCause::Recovery => "recovery",
        };
        f.write_str(s)
    }
}

/// A request submitted to a memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Request identity, echoed in the completion.
    pub id: ReqId,
    /// Line to access.
    pub addr: LineAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Why a write happened (ignored for reads).
    pub cause: Option<WriteCause>,
}

impl MemReq {
    /// Creates a read request.
    #[must_use]
    pub fn read(id: ReqId, addr: LineAddr) -> Self {
        MemReq {
            id,
            addr,
            kind: AccessKind::Read,
            cause: None,
        }
    }

    /// Creates a write request with an attributed cause.
    #[must_use]
    pub fn write(id: ReqId, addr: LineAddr, cause: WriteCause) -> Self {
        MemReq {
            id,
            addr,
            kind: AccessKind::Write,
            cause: Some(cause),
        }
    }

    /// Whether the request is a write.
    #[must_use]
    pub fn is_write(self) -> bool {
        self.kind == AccessKind::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = MemReq::read(ReqId(1), LineAddr::new(5));
        assert!(!r.is_write());
        assert_eq!(r.cause, None);

        let w = MemReq::write(ReqId(2), LineAddr::new(6), WriteCause::TxCacheDrain);
        assert!(w.is_write());
        assert_eq!(w.cause, Some(WriteCause::TxCacheDrain));
    }

    #[test]
    fn cause_display_and_all() {
        let all = WriteCause::all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].to_string(), "eviction");
        assert_eq!(all[1].to_string(), "tc-drain");
    }
}
