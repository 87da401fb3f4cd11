//! One associativity set and its LRU replacement.

use crate::line::CacheLine;

/// A single set of `ways` cache lines.
#[derive(Debug, Clone)]
pub struct CacheSet {
    lines: Vec<CacheLine>,
}

impl CacheSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new(ways: u32) -> Self {
        CacheSet {
            lines: vec![CacheLine::new(); ways as usize],
        }
    }

    /// Finds the way holding `tag`, if valid.
    #[must_use]
    pub fn find(&self, tag: u64) -> Option<usize> {
        self.lines
            .iter()
            .position(|l| l.state.is_valid() && l.tag == tag)
    }

    /// Immutable access to a way.
    #[must_use]
    pub fn line(&self, way: usize) -> &CacheLine {
        &self.lines[way]
    }

    /// Mutable access to a way.
    #[must_use]
    pub fn line_mut(&mut self, way: usize) -> &mut CacheLine {
        &mut self.lines[way]
    }

    /// All ways.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> {
        self.lines.iter()
    }

    /// All ways, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut CacheLine> {
        self.lines.iter_mut()
    }

    /// Number of ways.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.lines.len()
    }

    /// Number of valid lines.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.state.is_valid()).count()
    }

    /// Picks a way to fill: an invalid way if any, otherwise the
    /// least-recently-used non-pinned line. Returns `None` when every
    /// valid way is pinned (the NVLLC "set full of uncommitted data"
    /// case).
    #[must_use]
    pub fn victim(&self) -> Option<usize> {
        if let Some(i) = self.lines.iter().position(|l| !l.state.is_valid()) {
            return Some(i);
        }
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.pinned)
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i)
    }

    /// Whether every valid way is pinned.
    #[must_use]
    pub fn all_pinned(&self) -> bool {
        self.victim().is_none()
    }

    /// Unpins the way holding `tag`, returning whether it was found.
    pub fn unpin(&mut self, tag: u64) -> bool {
        if let Some(i) = self.find(tag) {
            self.lines[i].pinned = false;
            self.lines[i].tx = None;
            true
        } else {
            false
        }
    }

    /// Invalidates the way holding `tag`, returning the old line.
    pub fn invalidate(&mut self, tag: u64) -> Option<CacheLine> {
        let i = self.find(tag)?;
        let old = self.lines[i];
        self.lines[i].invalidate();
        Some(old)
    }

    /// Forcibly unpins the oldest pinned line (overflow escape hatch),
    /// returning its tag if one existed.
    pub fn force_unpin_oldest(&mut self) -> Option<u64> {
        let i = self
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state.is_valid() && l.pinned)
            .min_by_key(|(_, l)| l.filled_at)
            .map(|(i, _)| i)?;
        self.lines[i].pinned = false;
        self.lines[i].tx = None;
        Some(self.lines[i].tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineState;

    fn filled_set() -> CacheSet {
        let mut s = CacheSet::new(4);
        for (i, tag) in [10u64, 11, 12, 13].iter().enumerate() {
            let w = s.victim().unwrap();
            let l = s.line_mut(w);
            l.tag = *tag;
            l.state = LineState::Clean;
            l.last_use = i as u64;
            l.filled_at = i as u64;
        }
        s
    }

    #[test]
    fn find_and_occupancy() {
        let s = filled_set();
        assert_eq!(s.occupancy(), 4);
        assert_eq!(s.find(11), Some(1));
        assert_eq!(s.find(99), None);
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut s = filled_set();
        s.line_mut(0).last_use = 100; // tag 10 most recent
        assert_eq!(s.victim(), Some(1)); // tag 11 oldest
    }

    #[test]
    fn invalid_way_preferred() {
        let mut s = filled_set();
        s.line_mut(2).invalidate();
        assert_eq!(s.victim(), Some(2));
    }

    #[test]
    fn pinned_lines_skipped_and_all_pinned_detected() {
        let mut s = filled_set();
        for w in 0..3 {
            s.line_mut(w).pinned = true;
        }
        assert_eq!(s.victim(), Some(3));
        s.line_mut(3).pinned = true;
        assert!(s.all_pinned());
        assert!(s.unpin(12));
        assert_eq!(s.victim(), Some(2));
    }

    #[test]
    fn force_unpin_oldest_picks_earliest_fill() {
        let mut s = filled_set();
        for w in 0..4 {
            s.line_mut(w).pinned = true;
        }
        assert_eq!(s.force_unpin_oldest(), Some(10)); // filled_at == 0
        assert!(!s.all_pinned());
    }

    #[test]
    fn invalidate_returns_old_line() {
        let mut s = filled_set();
        let old = s.invalidate(13).unwrap();
        assert_eq!(old.tag, 13);
        assert_eq!(s.find(13), None);
        assert_eq!(s.occupancy(), 3);
        assert!(s.invalidate(13).is_none());
    }
}
