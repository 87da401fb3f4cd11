//! A set-associative cache array, stored as one flat slice of lines.

use pmacc_types::{CacheConfig, LineAddr, TxId};

use crate::line::{CacheLine, LineState};

/// A set-associative array of cache-line metadata: `sets × ways` lines in
/// one allocation, set-major (set `s` is `lines[s * ways..(s + 1) * ways]`).
/// A line's set comes from its address's index bits and its tag from the
/// bits above them, so a flat index and a tag give back the address.
#[derive(Debug, Clone)]
pub struct CacheArray {
    lines: Vec<CacheLine>,
    ways: usize,
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
            lines: vec![CacheLine::new(); cfg.lines() as usize],
            ways: cfg.ways as usize,
            set_bits: cfg.set_bits(),
            clock: 0,
        }
    }

    /// The flat index of `line`'s first way, and the ways of its set.
    fn set_of(&self, line: LineAddr) -> (usize, &[CacheLine]) {
        let base = line.index_bits(self.set_bits) as usize * self.ways;
        (base, &self.lines[base..base + self.ways])
    }

    /// The flat index of the valid way holding `line`, if any.
    fn slot(&self, line: LineAddr) -> Option<usize> {
        let tag = line.tag_bits(self.set_bits);
        let (base, ways) = self.set_of(line);
        let way = ways
            .iter()
            .position(|l| l.state.is_valid() && l.tag == tag)?;
        Some(base + way)
    }

    /// The address of the line held at flat index `slot`.
    fn addr_of(&self, slot: usize) -> LineAddr {
        let set = (slot / self.ways) as u64;
        LineAddr::new((self.lines[slot].tag << self.set_bits) | set)
    }

    /// The flat index a fill of `line`'s set takes: the first invalid
    /// way, else the unpinned way with the least `last_use` (the first of
    /// any tie). `None` when every way is pinned (the NVLLC "set full of
    /// uncommitted data" case).
    fn victim(&self, line: LineAddr) -> Option<usize> {
        let (base, ways) = self.set_of(line);
        let way = ways.iter().position(|l| !l.state.is_valid()).or_else(|| {
            let unpinned = ways.iter().enumerate().filter(|(_, l)| !l.pinned);
            unpinned.min_by_key(|(_, l)| l.last_use).map(|(w, _)| w)
        })?;
        Some(base + way)
    }

    /// Whether `line` is present (valid).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.slot(line).is_some()
    }

    /// Looks at a line's metadata without touching LRU state.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&CacheLine> {
        self.slot(line).map(|i| &self.lines[i])
    }

    /// Mutable access to a line's metadata without touching LRU state
    /// (coherence actions — snoops, downgrades — are not uses).
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        let i = self.slot(line)?;
        Some(&mut self.lines[i])
    }

    /// Sets a present line's coherence sharing bit without touching LRU
    /// state.
    pub fn set_shared(&mut self, line: LineAddr, shared: bool) {
        if let Some(l) = self.peek_mut(line) {
            l.shared = shared;
        }
    }

    /// Looks up a line, updating LRU recency on hit.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        self.clock += 1;
        let clock = self.clock;
        let l = self.peek_mut(line)?;
        l.last_use = clock;
        Some(l)
    }

    /// Whether inserting `line` would be blocked because every way of its
    /// set is pinned.
    #[must_use]
    pub fn insert_blocked(&self, line: LineAddr) -> bool {
        self.slot(line).is_none() && self.victim(line).is_none()
    }

    /// Inserts (or updates) a line, returning the valid line the fill
    /// displaced, with its reassembled address. If the line was already
    /// present its flags are merged as by [`CacheArray::merge`].
    ///
    /// # Panics
    ///
    /// Panics if the target set is entirely pinned; call
    /// [`CacheArray::insert_blocked`] first when pinning is in use.
    pub fn insert(
        &mut self,
        line: LineAddr,
        state: LineState,
        tx: Option<TxId>,
        pinned: bool,
    ) -> Option<(LineAddr, CacheLine)> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(l) = self.merge(line, state.is_dirty(), tx, pinned) {
            l.last_use = clock;
            return None;
        }
        let i = self
            .victim(line)
            .expect("insert into a fully pinned set (check insert_blocked)");
        let old = self.lines[i];
        let evicted = old.state.is_valid().then(|| (self.addr_of(i), old));
        self.lines[i] = CacheLine {
            tag: line.tag_bits(self.set_bits),
            state,
            tx,
            pinned,
            shared: false,
            sharers: 0,
            last_use: clock,
            filled_at: clock,
        };
        evicted
    }

    /// Merges write-back state into an already-present line *without*
    /// refreshing its replacement recency (absorbing a victim from an inner
    /// level is not a use): dirty wins, a transaction tag replaces the old
    /// one, pin wins. Returns the merged line, or `None` if absent.
    pub fn merge(
        &mut self,
        line: LineAddr,
        dirty: bool,
        tx: Option<TxId>,
        pinned: bool,
    ) -> Option<&mut CacheLine> {
        let l = self.peek_mut(line)?;
        if dirty {
            l.state = LineState::Dirty;
        }
        if tx.is_some() {
            l.tx = tx;
        }
        l.pinned |= pinned;
        Some(l)
    }

    /// Invalidates a line, returning its old metadata if present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<CacheLine> {
        let i = self.slot(line)?;
        Some(std::mem::take(&mut self.lines[i]))
    }

    /// Marks a present line clean, returning whether it was dirty.
    pub fn clean(&mut self, line: LineAddr) -> Option<bool> {
        let l = self.peek_mut(line)?;
        Some(std::mem::replace(&mut l.state, LineState::Clean).is_dirty())
    }

    /// Unpins a present line (clearing its tx tag); returns whether found.
    pub fn unpin(&mut self, line: LineAddr) -> bool {
        let Some(l) = self.peek_mut(line) else {
            return false;
        };
        l.pinned = false;
        l.tx = None;
        true
    }

    /// Forcibly unpins the pinned line of `line`'s set with the earliest
    /// fill, returning its address (NVLLC overflow escape hatch).
    pub fn force_unpin_in_set_of(&mut self, line: LineAddr) -> Option<LineAddr> {
        let (base, ways) = self.set_of(line);
        let pinned = ways
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state.is_valid() && l.pinned);
        let i = base + pinned.min_by_key(|(_, l)| l.filled_at)?.0;
        let addr = self.addr_of(i);
        self.unpin(addr);
        Some(addr)
    }

    /// Number of valid lines across the array (O(lines); for tests/stats).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.state.is_valid()).count()
    }

    /// Iterates over all valid lines as `(address, metadata)`, set-major
    /// and way-minor.
    pub fn iter_valid(&self) -> impl Iterator<Item = (LineAddr, &CacheLine)> + '_ {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state.is_valid())
            .map(|(i, l)| (self.addr_of(i), l))
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

    /// One set of 4 ways holding lines 10..=13, filled in that order.
    fn filled_set() -> CacheArray {
        let mut a = CacheArray::new(&CacheConfig::new(256, 4, 1.0));
        for line in 10..=13 {
            assert!(a
                .insert(LineAddr::new(line), LineState::Clean, None, false)
                .is_none());
        }
        a
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn insert_lookup_round_trip() {
        let mut a = tiny();
        let line = LineAddr::new(4);
        assert!(!a.contains(line));
        assert!(a.insert(line, LineState::Dirty, None, false).is_none());
        assert!(a.contains(line));
        let l = a.lookup(line).unwrap();
        assert!(l.state.is_dirty());
        assert!(a.lookup(LineAddr::new(99)).is_none());
    }

    #[test]
    fn eviction_reassembles_address() {
        let mut a = tiny();
        // Set 0 holds even line numbers; fill ways with lines 0 and 2,
        // then line 4 evicts the LRU (line 0).
        a.insert(LineAddr::new(0), LineState::Clean, None, false);
        a.insert(LineAddr::new(2), LineState::Clean, None, false);
        let (addr, old) = a
            .insert(LineAddr::new(4), LineState::Clean, None, false)
            .unwrap();
        assert_eq!(addr, LineAddr::new(0));
        assert!(old.state.is_valid());
    }

    #[test]
    fn lru_respects_recency() {
        let mut a = tiny();
        a.insert(LineAddr::new(0), LineState::Clean, None, false);
        a.insert(LineAddr::new(2), LineState::Clean, None, false);
        a.lookup(LineAddr::new(0)); // make line 0 most recent
        let evicted = a.insert(LineAddr::new(4), LineState::Clean, None, false);
        assert_eq!(evicted.unwrap().0, LineAddr::new(2));
    }

    #[test]
    fn find_and_occupancy() {
        let a = filled_set();
        assert_eq!(a.occupancy(), 4);
        assert!(a.contains(line(11)));
        assert_eq!(a.peek(line(11)).unwrap().tag, 11);
        // Line 11 was the second fill, so it sits in way 1.
        assert_eq!(a.iter_valid().position(|(l, _)| l == line(11)), Some(1));
        assert!(!a.contains(line(99)));
        assert!(a.peek(line(99)).is_none());
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut a = filled_set();
        a.lookup(line(10)); // line 10 most recent
        let evicted = a.insert(line(14), LineState::Clean, None, false);
        assert_eq!(evicted.unwrap().0, line(11)); // line 11 oldest
    }

    #[test]
    fn invalid_way_preferred() {
        // An invalid way beats the LRU way: line 10 (way 0) is the least
        // recently used, but the hole at way 2 takes the fill.
        let mut a = filled_set();
        a.invalidate(line(12)).unwrap();
        assert!(a.insert(line(14), LineState::Clean, None, false).is_none());
        let ways: Vec<_> = a.iter_valid().map(|(l, _)| l).collect();
        assert_eq!(ways, vec![line(10), line(11), line(14), line(13)]);
    }

    #[test]
    fn pinned_lines_skipped_and_all_pinned_detected() {
        let mut a = filled_set();
        for l in 10..=12 {
            a.merge(line(l), false, None, true).unwrap();
        }
        // The three least recent lines are pinned: the newest one goes.
        assert!(!a.insert_blocked(line(14)));
        assert_eq!(
            a.insert(line(14), LineState::Clean, None, false).unwrap().0,
            line(13)
        );
        a.merge(line(14), false, None, true).unwrap();
        assert!(a.insert_blocked(line(15)));
        // Unpinning a line makes it the only candidate.
        assert!(a.unpin(line(12)));
        assert!(!a.unpin(line(99)));
        assert_eq!(
            a.insert(line(15), LineState::Clean, None, false).unwrap().0,
            line(12)
        );
    }

    #[test]
    fn reinsert_merges_flags() {
        let mut a = tiny();
        let line = LineAddr::new(6);
        a.insert(line, LineState::Clean, None, false);
        a.insert(line, LineState::Dirty, Some(TxId::new(0, 1)), true);
        let l = a.peek(line).unwrap();
        assert!(l.state.is_dirty());
        assert!(l.pinned);
        assert_eq!(l.tx, Some(TxId::new(0, 1)));
        // Re-inserting clean does not clear dirtiness.
        a.insert(line, LineState::Clean, None, false);
        assert!(a.peek(line).unwrap().state.is_dirty());
    }

    #[test]
    fn pinned_set_blocks_insert() {
        let mut a = tiny();
        a.insert(LineAddr::new(0), LineState::Dirty, None, true);
        a.insert(LineAddr::new(2), LineState::Dirty, None, true);
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
        a.insert(LineAddr::new(0), LineState::Dirty, None, true);
        a.insert(LineAddr::new(2), LineState::Dirty, None, true);
        let victim = a.force_unpin_in_set_of(LineAddr::new(4)).unwrap();
        assert_eq!(victim, LineAddr::new(0)); // oldest fill
        assert!(!a.insert_blocked(LineAddr::new(4)));
    }

    #[test]
    fn force_unpin_oldest_picks_earliest_fill() {
        // Refill way 0 last, then touch line 11 most recently: the earliest
        // fill (line 11, way 1) goes first, not way 0 or the LRU line.
        let mut a = filled_set();
        a.invalidate(line(10)).unwrap();
        a.insert(line(14), LineState::Clean, None, false);
        a.lookup(line(11));
        for l in [14, 11, 12, 13] {
            a.merge(line(l), false, Some(TxId::new(0, 1)), true)
                .unwrap();
        }
        assert!(a.insert_blocked(line(15)));
        assert_eq!(a.force_unpin_in_set_of(line(15)), Some(line(11)));
        let freed = a.peek(line(11)).unwrap();
        assert!(!freed.pinned && freed.tx.is_none());
        assert_eq!(a.force_unpin_in_set_of(line(15)), Some(line(12)));
        assert!(!a.insert_blocked(line(15)));
    }

    #[test]
    fn invalidate_returns_old_line() {
        let mut a = filled_set();
        let old = a.invalidate(line(13)).unwrap();
        assert_eq!(old.tag, 13);
        assert!(!a.contains(line(13)));
        assert_eq!(a.occupancy(), 3);
        assert!(a.invalidate(line(13)).is_none());
    }

    #[test]
    fn clean_reports_dirtiness() {
        let mut a = tiny();
        let line = LineAddr::new(8);
        a.insert(line, LineState::Dirty, None, false);
        assert_eq!(a.clean(line), Some(true));
        assert_eq!(a.clean(line), Some(false));
        assert_eq!(a.clean(LineAddr::new(10)), None);
    }

    #[test]
    fn iter_valid_and_occupancy() {
        let mut a = tiny();
        a.insert(LineAddr::new(2), LineState::Clean, None, false);
        a.insert(LineAddr::new(1), LineState::Dirty, None, false);
        a.insert(LineAddr::new(0), LineState::Clean, None, false);
        assert_eq!(a.occupancy(), 3);
        // Set-major, way-minor: set 0 (lines 2, 0 in fill order), then set 1.
        let addrs: Vec<_> = a.iter_valid().map(|(l, _)| l).collect();
        assert_eq!(
            addrs,
            vec![LineAddr::new(2), LineAddr::new(0), LineAddr::new(1)]
        );
    }
}
