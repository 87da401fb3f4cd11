//! A set-associative cache array.

use pmacc_types::{CacheConfig, LineAddr, TxId};

use crate::line::{CacheLine, LineState};
use crate::set::CacheSet;

/// Result of inserting a line into an array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Insertion {
    /// The line that was displaced, if a valid line was evicted. The tag
    /// has already been reassembled into a full [`LineAddr`].
    pub evicted: Option<(LineAddr, CacheLine)>,
}

/// A set-associative array of cache-line metadata.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: Vec<CacheSet>,
    set_bits: u32,
    clock: u64,
}

impl CacheArray {
    /// Builds an array from a level configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (validate it first).
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate("cache").expect("valid cache configuration");
        CacheArray {
            sets: (0..cfg.sets()).map(|_| CacheSet::new(cfg.ways)).collect(),
            set_bits: cfg.set_bits(),
            clock: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        line.index_bits(self.set_bits) as usize
    }

    fn addr_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr::new((tag << self.set_bits) | set as u64)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Whether `line` is present (valid).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Looks at a line's metadata without touching LRU state.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&CacheLine> {
        let set = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);
        let way = self.sets[set].find(tag)?;
        Some(self.sets[set].line(way))
    }

    /// Mutable access to a line's metadata without touching LRU state
    /// (coherence actions — snoops, downgrades — are not uses).
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        let set = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);
        let way = self.sets[set].find(tag)?;
        Some(self.sets[set].line_mut(way))
    }

    /// Sets a present line's coherence sharing bit without touching LRU
    /// state. Returns whether the line was present.
    pub fn set_shared(&mut self, line: LineAddr, shared: bool) -> bool {
        match self.peek_mut(line) {
            Some(l) => {
                l.shared = shared;
                true
            }
            None => false,
        }
    }

    /// Looks up a line, updating LRU recency on hit.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);
        let way = self.sets[set].find(tag)?;
        let l = self.sets[set].line_mut(way);
        l.last_use = clock;
        Some(l)
    }

    /// Whether inserting `line` would be blocked because every way of its
    /// set is pinned.
    #[must_use]
    pub fn insert_blocked(&self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);
        self.sets[set].find(tag).is_none() && self.sets[set].all_pinned()
    }

    /// Inserts (or updates) a line.
    ///
    /// Returns the eviction the fill caused, if any. If the line was
    /// already present its flags are merged (dirty wins, pin wins).
    ///
    /// # Panics
    ///
    /// Panics if the target set is entirely pinned; call
    /// [`CacheArray::insert_blocked`] first when pinning is in use.
    pub fn insert(
        &mut self,
        line: LineAddr,
        state: LineState,
        persistent: bool,
        tx: Option<TxId>,
        pinned: bool,
    ) -> Insertion {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);

        if let Some(way) = self.sets[set_idx].find(tag) {
            let l = self.sets[set_idx].line_mut(way);
            if state.is_dirty() {
                l.state = LineState::Dirty;
            }
            l.persistent |= persistent;
            if tx.is_some() {
                l.tx = tx;
            }
            l.pinned |= pinned;
            l.last_use = clock;
            return Insertion { evicted: None };
        }

        let way = self.sets[set_idx]
            .victim()
            .expect("insert into a fully pinned set (check insert_blocked)");
        let old = *self.sets[set_idx].line(way);
        let evicted = if old.state.is_valid() {
            Some((self.addr_of(set_idx, old.tag), old))
        } else {
            None
        };
        let l = self.sets[set_idx].line_mut(way);
        *l = CacheLine {
            tag,
            state,
            persistent,
            tx,
            pinned,
            shared: false,
            sharers: 0,
            last_use: clock,
            filled_at: clock,
        };
        Insertion { evicted }
    }

    /// Merges write-back state into an already-present line *without*
    /// refreshing its replacement recency (absorbing a victim from an inner
    /// level is not a use). Returns whether the line was present.
    pub fn merge(
        &mut self,
        line: LineAddr,
        dirty: bool,
        persistent: bool,
        tx: Option<TxId>,
        pinned: bool,
    ) -> bool {
        let set = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);
        let Some(way) = self.sets[set].find(tag) else {
            return false;
        };
        let l = self.sets[set].line_mut(way);
        if dirty {
            l.state = LineState::Dirty;
        }
        l.persistent |= persistent;
        if tx.is_some() {
            l.tx = tx;
        }
        l.pinned |= pinned;
        true
    }

    /// Invalidates a line, returning its old metadata if present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<CacheLine> {
        let set = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);
        self.sets[set].invalidate(tag)
    }

    /// Marks a present line clean, returning whether it was dirty.
    pub fn clean(&mut self, line: LineAddr) -> Option<bool> {
        let set = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);
        let way = self.sets[set].find(tag)?;
        let l = self.sets[set].line_mut(way);
        let was_dirty = l.state.is_dirty();
        l.state = LineState::Clean;
        Some(was_dirty)
    }

    /// Unpins a present line (clearing its tx tag); returns whether found.
    pub fn unpin(&mut self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        let tag = line.tag_bits(self.set_bits);
        self.sets[set].unpin(tag)
    }

    /// Forcibly unpins the oldest pinned line in `line`'s set, returning
    /// the victim's address (NVLLC overflow escape hatch).
    pub fn force_unpin_in_set_of(&mut self, line: LineAddr) -> Option<LineAddr> {
        let set = self.set_of(line);
        let tag = self.sets[set].force_unpin_oldest()?;
        Some(self.addr_of(set, tag))
    }

    /// Number of valid lines across the array (O(lines); for tests/stats).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(CacheSet::occupancy).sum()
    }

    /// Iterates over all valid lines as `(address, metadata)`.
    pub fn iter_valid(&self) -> impl Iterator<Item = (LineAddr, &CacheLine)> + '_ {
        self.sets.iter().enumerate().flat_map(move |(set, s)| {
            s.iter()
                .filter(|l| l.state.is_valid())
                .map(move |l| (self.addr_of(set, l.tag), l))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_types::CacheConfig;

    fn tiny() -> CacheArray {
        // 2 sets x 2 ways.
        CacheArray::new(&CacheConfig::new(256, 2, 1.0))
    }

    #[test]
    fn insert_lookup_round_trip() {
        let mut a = tiny();
        let line = LineAddr::new(4);
        assert!(!a.contains(line));
        let ins = a.insert(line, LineState::Dirty, true, None, false);
        assert!(ins.evicted.is_none());
        assert!(a.contains(line));
        let l = a.lookup(line).unwrap();
        assert!(l.state.is_dirty());
        assert!(l.persistent);
    }

    #[test]
    fn eviction_reassembles_address() {
        let mut a = tiny();
        // Set 0 holds even line numbers; fill ways with lines 0 and 2,
        // then line 4 evicts the LRU (line 0).
        a.insert(LineAddr::new(0), LineState::Clean, false, None, false);
        a.insert(LineAddr::new(2), LineState::Clean, false, None, false);
        let ins = a.insert(LineAddr::new(4), LineState::Clean, false, None, false);
        let (addr, old) = ins.evicted.unwrap();
        assert_eq!(addr, LineAddr::new(0));
        assert!(old.state.is_valid());
    }

    #[test]
    fn lru_respects_recency() {
        let mut a = tiny();
        a.insert(LineAddr::new(0), LineState::Clean, false, None, false);
        a.insert(LineAddr::new(2), LineState::Clean, false, None, false);
        a.lookup(LineAddr::new(0)); // make line 0 most recent
        let ins = a.insert(LineAddr::new(4), LineState::Clean, false, None, false);
        assert_eq!(ins.evicted.unwrap().0, LineAddr::new(2));
    }

    #[test]
    fn reinsert_merges_flags() {
        let mut a = tiny();
        let line = LineAddr::new(6);
        a.insert(line, LineState::Clean, false, None, false);
        a.insert(line, LineState::Dirty, true, Some(TxId::new(0, 1)), true);
        let l = a.peek(line).unwrap();
        assert!(l.state.is_dirty());
        assert!(l.persistent && l.pinned);
        assert_eq!(l.tx, Some(TxId::new(0, 1)));
        // Re-inserting clean does not clear dirtiness.
        a.insert(line, LineState::Clean, false, None, false);
        assert!(a.peek(line).unwrap().state.is_dirty());
    }

    #[test]
    fn pinned_set_blocks_insert() {
        let mut a = tiny();
        a.insert(LineAddr::new(0), LineState::Dirty, true, None, true);
        a.insert(LineAddr::new(2), LineState::Dirty, true, None, true);
        assert!(a.insert_blocked(LineAddr::new(4)));
        // But inserting an already-present line is never blocked.
        assert!(!a.insert_blocked(LineAddr::new(0)));
        // Unpin frees the set.
        assert!(a.unpin(LineAddr::new(0)));
        assert!(!a.insert_blocked(LineAddr::new(4)));
    }

    #[test]
    fn force_unpin_in_set() {
        let mut a = tiny();
        a.insert(LineAddr::new(0), LineState::Dirty, true, None, true);
        a.insert(LineAddr::new(2), LineState::Dirty, true, None, true);
        let victim = a.force_unpin_in_set_of(LineAddr::new(4)).unwrap();
        assert_eq!(victim, LineAddr::new(0)); // oldest fill
        assert!(!a.insert_blocked(LineAddr::new(4)));
    }

    #[test]
    fn clean_reports_dirtiness() {
        let mut a = tiny();
        let line = LineAddr::new(8);
        a.insert(line, LineState::Dirty, true, None, false);
        assert_eq!(a.clean(line), Some(true));
        assert_eq!(a.clean(line), Some(false));
        assert_eq!(a.clean(LineAddr::new(10)), None);
    }

    #[test]
    fn iter_valid_and_occupancy() {
        let mut a = tiny();
        a.insert(LineAddr::new(0), LineState::Clean, false, None, false);
        a.insert(LineAddr::new(1), LineState::Dirty, true, None, false);
        assert_eq!(a.occupancy(), 2);
        let mut addrs: Vec<_> = a.iter_valid().map(|(l, _)| l).collect();
        addrs.sort();
        assert_eq!(addrs, vec![LineAddr::new(0), LineAddr::new(1)]);
    }
}
