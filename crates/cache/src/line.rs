//! A single cache line's metadata.
//!
//! §4.3 of the paper gives each line a one-bit persistent/volatile (P/V)
//! flag. The simulator does not store it: the flag always equals the
//! region of the line's address, so readers ask
//! [`LineAddr::is_persistent`](pmacc_types::LineAddr::is_persistent)
//! instead (the hardware-cost model still prices the bit). For the NVLLC
//! baseline a line remembers the transaction that last dirtied it and
//! whether it is pinned (uncommitted data may not be evicted from a
//! nonvolatile LLC).

use pmacc_types::TxId;

/// Validity/dirtiness of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LineState {
    /// Not present.
    #[default]
    Invalid,
    /// Present, matches the next level.
    Clean,
    /// Present, modified relative to the next level.
    Dirty,
}

impl LineState {
    /// Whether the line holds data.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether the line must be written back on eviction.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        self == LineState::Dirty
    }
}

/// Metadata of one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLine {
    /// Tag bits (line address with the set index removed).
    pub tag: u64,
    /// Validity / dirtiness.
    pub state: LineState,
    /// Transaction that last dirtied the line, if it was a transactional
    /// persistent store (cleared when the transaction commits).
    pub tx: Option<TxId>,
    /// Pinned lines are skipped by replacement (NVLLC uncommitted data).
    pub pinned: bool,
    /// Coherence sharing bit: set when another core may hold a copy.
    ///
    /// Together with [`CacheLine::state`] this encodes MESI:
    /// `Dirty` is **M**odified (never shared — writes invalidate remote
    /// copies first), `Clean && !shared` is **E**xclusive,
    /// `Clean && shared` is **S**hared, `Invalid` is **I**nvalid.
    pub shared: bool,
    /// Directory presence bitmap, meaningful only in the shared LLC: bit
    /// `c` is set iff core `c` holds a private (L1 or L2) copy of this
    /// line. Snoops walk only the set bits instead of every core, and
    /// the bitmap travels with the line on eviction so back-invalidation
    /// is sharer-filtered too. Private-level copies keep this at 0.
    pub sharers: u64,
    /// LRU clock value of the last touch.
    pub last_use: u64,
    /// LRU clock value of the fill (the forced-unpin escape hatch frees
    /// the oldest pinned line first).
    pub filled_at: u64,
}

impl CacheLine {
    /// An invalid line.
    #[must_use]
    pub fn new() -> Self {
        CacheLine::default()
    }

    /// Resets the line to invalid, clearing all flags.
    pub fn invalidate(&mut self) {
        *self = CacheLine::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(!LineState::Invalid.is_valid());
        assert!(LineState::Clean.is_valid());
        assert!(!LineState::Clean.is_dirty());
        assert!(LineState::Dirty.is_dirty());
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut l = CacheLine {
            tag: 5,
            state: LineState::Dirty,
            tx: Some(TxId::new(0, 1)),
            pinned: true,
            shared: true,
            sharers: 0b101,
            last_use: 9,
            filled_at: 3,
        };
        l.invalidate();
        assert!(!l.state.is_valid());
        assert!(!l.pinned);
        assert_eq!(l.tx, None);
        assert!(!l.shared);
        assert_eq!(l.sharers, 0);
    }
}
