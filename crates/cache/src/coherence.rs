//! MESI snooping-bus coherence over the private cache levels.
//!
//! The hierarchy keeps the paper's structure — private L1/L2 per core over
//! one shared inclusive LLC — and layers a bus-snooping MESI protocol on
//! top of the existing line metadata instead of adding new states:
//!
//! | MESI          | encoding (`CacheLine`)        |
//! |---------------|-------------------------------|
//! | **M**odified  | `state == Dirty`              |
//! | **E**xclusive | `state == Clean && !shared`   |
//! | **S**hared    | `state == Clean && shared`    |
//! | **I**nvalid   | `state == Invalid`            |
//!
//! Three bus transactions exist, all initiated from [`Hierarchy::access`]:
//!
//! * **BusRd** — a read that misses the private levels snoops every remote
//!   core ([`snoop_read`]). A remote Modified copy is downgraded to Shared
//!   with its data intervened into the LLC; any remote copy forces the
//!   requester to fill in Shared state.
//! * **BusRdX** — a write that misses the private levels snoops and
//!   *invalidates* every remote copy ([`snoop_invalidate`]), intervening
//!   dirty data into the LLC first, then fills Modified.
//! * **BusUpgr** — a write that hits a Shared private copy invalidates the
//!   remote copies without refetching data, then dirties locally.
//!
//! Because private copies are inclusive in the LLC, a snoop never has to
//! consult memory: a remote Modified line merges into the LLC copy that
//! inclusion guarantees is present.
//!
//! Timing is deliberately *not* modeled per bus transaction: snoop latency
//! is folded into the LLC access latency the requester already pays on the
//! miss path, so coherence costs surface as extra misses (invalidated
//! copies must be refetched) and as the system layer's cross-core conflict
//! stalls — see DESIGN.md "Cache coherence".
//!
//! [`Hierarchy::access`]: crate::hierarchy::Hierarchy::access

use pmacc_types::LineAddr;

use crate::hierarchy::Hierarchy;
use crate::line::{CacheLine, LineState};

/// The four MESI states, derived from a line's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CohState {
    /// Dirty and exclusively owned; must be written back or intervened.
    Modified,
    /// Clean and exclusively owned; may be dirtied without a bus transaction.
    Exclusive,
    /// Clean with possible remote copies; a write requires BusUpgr.
    Shared,
    /// Not present.
    Invalid,
}

impl CohState {
    /// Derives the MESI state from a line's validity/dirtiness and its
    /// sharing bit.
    #[must_use]
    pub fn of(line: &CacheLine) -> Self {
        match line.state {
            LineState::Invalid => CohState::Invalid,
            LineState::Dirty => CohState::Modified,
            LineState::Clean if line.shared => CohState::Shared,
            LineState::Clean => CohState::Exclusive,
        }
    }
}

/// Iterates the remote cores named by a directory bitmap in ascending
/// core order (the same order the historical all-cores walk used), with
/// the requester's own bit masked off.
fn remote_sharers(sharers: u64, requester: usize) -> impl Iterator<Item = usize> {
    let mut mask = sharers & !core_bit(requester);
    core::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let core = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(core)
    })
}

/// Bit `core` of a directory bitmap.
pub(crate) fn core_bit(core: usize) -> u64 {
    1u64 << (core as u32 & 63)
}

/// One bus snoop: who is asking, for which line, and which remote cores
/// the LLC-side directory bitmap names as possible holders (so the walk
/// costs O(sharers) instead of O(cores)).
pub(crate) struct Snoop {
    /// The core whose access put the request on the bus.
    pub requester: usize,
    /// The contended line.
    pub line: LineAddr,
    /// The LLC directory bitmap for `line` (bit per core).
    pub sharers: u64,
}

impl Hierarchy {
    /// Debug check that the directory bitmap over-approximates reality: a
    /// core outside `sharers` must hold no private copy. (The inverse — a
    /// set bit without a copy — is legal only transiently, never here:
    /// the hierarchy clears bits eagerly at every invalidation/eviction
    /// point.)
    #[cfg(debug_assertions)]
    fn assert_directory_covers(&self, snoop: &Snoop) {
        for core in (0..self.l1.len()).filter(|&c| snoop.sharers & core_bit(c) == 0) {
            debug_assert!(
                !self.l1[core].contains(snoop.line) && !self.l2[core].contains(snoop.line),
                "core {core} holds {:?} but its directory bit is clear",
                snoop.line
            );
        }
    }

    /// BusRdX/BusUpgr: invalidates every remote private copy of the
    /// snooped line, intervening dirty data into the LLC (which holds the
    /// line by inclusion whenever a private copy exists).
    ///
    /// Appends `(core, line)` to `invalidated` for each remote core that
    /// lost a copy, so the system layer can check those cores' transaction
    /// caches — a TC entry must survive its cache copy being invalidated
    /// (the P/V flag lives in the TC, not the cache).
    pub(crate) fn snoop_invalidate(
        &mut self,
        snoop: &Snoop,
        upgrade: bool,
        invalidated: &mut Vec<(usize, LineAddr)>,
    ) {
        let &Snoop {
            requester,
            line,
            sharers,
        } = snoop;
        if upgrade {
            self.stats.coherence.bus_upgrades.inc();
        }
        #[cfg(debug_assertions)]
        self.assert_directory_covers(snoop);
        for core in remote_sharers(sharers, requester) {
            let mut dirty = false;
            let mut tx = None;
            let mut had_copy = false;
            for arr in [&mut self.l1[core], &mut self.l2[core]] {
                if let Some(old) = arr.invalidate(line) {
                    had_copy = true;
                    dirty |= old.state.is_dirty();
                    tx = tx.or(old.tx);
                }
            }
            if !had_copy {
                continue;
            }
            self.stats.coherence.remote_invalidations.inc();
            if dirty {
                self.stats.coherence.interventions.inc();
                if line.is_persistent() {
                    self.stats.coherence.dirty_persistent_invalidations.inc();
                }
                let merged = self.llc.merge(line, true, tx, self.opts.pins(line, tx));
                debug_assert!(
                    merged.is_some(),
                    "remote private copy must be in LLC (inclusion)"
                );
            }
            invalidated.push((core, line));
        }
        // Every remote copy is gone: the directory shrinks to at most the
        // requester's own presence bit.
        if let Some(l) = self.llc.peek_mut(line) {
            l.sharers &= core_bit(requester);
        }
    }

    /// BusRd: snoops the remote private copies of the requested line for a
    /// read miss. Remote Modified copies are downgraded to Shared (their
    /// data intervened into the LLC); every surviving remote copy is
    /// marked shared. Returns whether any remote copy exists — if so the
    /// requester must fill in Shared state.
    pub(crate) fn snoop_read(&mut self, snoop: &Snoop) -> bool {
        let &Snoop {
            requester,
            line,
            sharers,
        } = snoop;
        #[cfg(debug_assertions)]
        self.assert_directory_covers(snoop);
        let mut any_copy = false;
        for core in remote_sharers(sharers, requester) {
            let mut intervened = false;
            for arr in [&mut self.l1[core], &mut self.l2[core]] {
                let Some(l) = arr.peek_mut(line) else {
                    continue;
                };
                any_copy = true;
                if l.state.is_dirty() {
                    self.stats.coherence.downgrades.inc();
                    if !intervened {
                        intervened = true;
                        self.stats.coherence.interventions.inc();
                        let pin = self.opts.pins(line, l.tx);
                        let merged = self.llc.merge(line, true, l.tx, pin);
                        debug_assert!(merged.is_some(), "remote M copy must be in LLC (inclusion)");
                    }
                    l.state = LineState::Clean;
                }
                l.shared = true;
            }
        }
        any_copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_sharers_walks_set_bits_in_core_order() {
        let walked: Vec<usize> = remote_sharers(0b1011_0101, 0).collect();
        assert_eq!(walked, vec![2, 4, 5, 7]);
        assert_eq!(
            remote_sharers(0b1011_0101, 2).collect::<Vec<_>>(),
            vec![0, 4, 5, 7]
        );
        assert_eq!(remote_sharers(0, 3).count(), 0);
        assert_eq!(remote_sharers(1 << 63, 0).collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn coh_state_derivation() {
        let mut l = CacheLine::new();
        assert_eq!(CohState::of(&l), CohState::Invalid);
        l.state = LineState::Clean;
        assert_eq!(CohState::of(&l), CohState::Exclusive);
        l.shared = true;
        assert_eq!(CohState::of(&l), CohState::Shared);
        l.state = LineState::Dirty;
        assert_eq!(CohState::of(&l), CohState::Modified);
    }
}
