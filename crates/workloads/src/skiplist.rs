//! A persistent skiplist — an extension structure demonstrating how to
//! adopt the library for new workloads (NV-heaps-style suites commonly
//! include one). Not part of the paper's Table 3 grid.
//!
//! Levels are derived deterministically from the key (a hash), so the
//! structure — and therefore the generated trace — is a pure function of
//! the inserted key set.

use pmacc_types::{Addr, Word, WORD_BYTES};

use crate::{MemSession, WorkloadParams};

/// Maximum tower height (forward pointers per node).
pub const MAX_LEVEL: usize = 4;

const NODE_WORDS: u64 = 8;
const F_KEY: u64 = 0;
const F_VAL: u64 = 1;
const F_LEVEL: u64 = 2;
const F_FWD0: u64 = 3; // forward pointers occupy words 3..3+MAX_LEVEL

fn f(node: Word, field: u64) -> Addr {
    Addr::new(node + field * WORD_BYTES)
}

/// Deterministic tower height for a key: geometric with p = 1/4.
fn level_of(key: Word) -> u64 {
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    let mut level = 1u64;
    while level < MAX_LEVEL as u64 && h & 3 == 0 {
        level += 1;
        h >>= 2;
    }
    level
}

/// A persistent skiplist of 64-bit key-value pairs.
#[derive(Debug, Clone)]
pub struct SkipList {
    /// Head tower (no key; `MAX_LEVEL` forward pointers).
    head: Addr,
}

impl SkipList {
    /// Allocates an empty list (setup phase).
    #[must_use]
    pub fn create(s: &mut MemSession) -> Self {
        let head = s.alloc_p(NODE_WORDS);
        s.write(head.offset(F_LEVEL * WORD_BYTES), MAX_LEVEL as u64);
        for l in 0..MAX_LEVEL as u64 {
            s.write(head.offset((F_FWD0 + l) * WORD_BYTES), 0);
        }
        SkipList { head }
    }

    /// Inserts or updates `key -> value` in one transaction.
    pub fn insert(&self, s: &mut MemSession, key: Word, value: Word) {
        s.tx(|s| {
            // Find the splice points at every level.
            let mut update = [self.head.raw(); MAX_LEVEL];
            let mut cur = self.head.raw();
            for l in (0..MAX_LEVEL as u64).rev() {
                loop {
                    let next = s.read(f(cur, F_FWD0 + l));
                    s.compute(1);
                    if next == 0 || s.read(f(next, F_KEY)) >= key {
                        break;
                    }
                    cur = next;
                }
                update[l as usize] = cur;
            }
            let at = s.read(f(update[0], F_FWD0));
            if at != 0 && s.read(f(at, F_KEY)) == key {
                s.write(f(at, F_VAL), value);
                return;
            }
            // Splice a new tower in.
            let level = level_of(key);
            let node = s.alloc_p(NODE_WORDS).raw();
            s.write(f(node, F_KEY), key);
            s.write(f(node, F_VAL), value);
            s.write(f(node, F_LEVEL), level);
            for l in 0..level {
                let pred = update[l as usize];
                let succ = s.read(f(pred, F_FWD0 + l));
                s.write(f(node, F_FWD0 + l), succ);
                s.write(f(pred, F_FWD0 + l), node);
            }
        });
    }

    /// Looks up `key` in one (read-only) transaction.
    #[must_use]
    pub fn search(&self, s: &mut MemSession, key: Word) -> Option<Word> {
        s.tx(|s| {
            let mut cur = self.head.raw();
            for l in (0..MAX_LEVEL as u64).rev() {
                loop {
                    let next = s.read(f(cur, F_FWD0 + l));
                    s.compute(1);
                    if next == 0 || s.read(f(next, F_KEY)) > key {
                        break;
                    }
                    if s.read(f(next, F_KEY)) == key {
                        return Some(s.read(f(next, F_VAL)));
                    }
                    cur = next;
                }
            }
            None
        })
    }

    /// Runs a random search-or-insert; `insert_ratio` in `[0, 100]`.
    pub fn random_op(&self, s: &mut MemSession, key_space: u64, insert_ratio: u32) {
        let key: Word = s.rng().gen_range(0..key_space);
        let roll: u32 = s.rng().gen_range(0..100);
        if roll < insert_ratio {
            let value: Word = s.rng().gen();
            self.insert(s, key, value);
        } else {
            let _ = self.search(s, key);
        }
    }

    /// Non-recording lookup (verification helper).
    #[must_use]
    pub fn peek_get(&self, s: &MemSession, key: Word) -> Option<Word> {
        let mut cur = s.peek(f(self.head.raw(), F_FWD0));
        while cur != 0 {
            let k = s.peek(f(cur, F_KEY));
            if k == key {
                return Some(s.peek(f(cur, F_VAL)));
            }
            if k > key {
                return None;
            }
            cur = s.peek(f(cur, F_FWD0));
        }
        None
    }

    /// Verifies structural invariants: the level-0 chain is strictly
    /// ascending, every higher-level chain is a subsequence of level 0,
    /// and tower heights match the deterministic level function.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self, s: &MemSession) -> Result<(), String> {
        // Level 0: strictly ascending keys.
        let mut keys = Vec::new();
        let mut cur = s.peek(f(self.head.raw(), F_FWD0));
        let mut prev: Option<Word> = None;
        while cur != 0 {
            let k = s.peek(f(cur, F_KEY));
            if let Some(p) = prev {
                if k <= p {
                    return Err(format!("level-0 not ascending: {p} then {k}"));
                }
            }
            let lv = s.peek(f(cur, F_LEVEL));
            if lv != level_of(k) {
                return Err(format!(
                    "key {k}: stored level {lv} != level_of {}",
                    level_of(k)
                ));
            }
            keys.push(k);
            prev = Some(k);
            cur = s.peek(f(cur, F_FWD0));
        }
        // Higher levels: ascending subsequences of level 0.
        for l in 1..MAX_LEVEL as u64 {
            let mut cur = s.peek(f(self.head.raw(), F_FWD0 + l));
            let mut prev: Option<Word> = None;
            while cur != 0 {
                let k = s.peek(f(cur, F_KEY));
                if let Some(p) = prev {
                    if k <= p {
                        return Err(format!("level-{l} not ascending: {p} then {k}"));
                    }
                }
                if !keys.contains(&k) {
                    return Err(format!("level-{l} key {k} missing from level 0"));
                }
                if s.peek(f(cur, F_LEVEL)) <= l {
                    return Err(format!("key {k} present above its tower height"));
                }
                prev = Some(k);
                cur = s.peek(f(cur, F_FWD0 + l));
            }
        }
        Ok(())
    }

    /// Number of keys (verification helper).
    #[must_use]
    pub fn count(&self, s: &MemSession) -> u64 {
        let mut n = 0;
        let mut cur = s.peek(f(self.head.raw(), F_FWD0));
        while cur != 0 {
            n += 1;
            cur = s.peek(f(cur, F_FWD0));
        }
        n
    }
}

/// The `skiplist` workload: `setup_items` unrecorded inserts, then
/// `num_ops` recorded operations at the configured insert ratio.
pub(crate) fn generate(s: &mut MemSession, p: &WorkloadParams) {
    let sl = SkipList::create(s);
    for _ in 0..p.setup_items {
        sl.random_op(s, p.key_space, 100);
    }
    s.start_recording();
    for _ in 0..p.num_ops {
        sl.random_op(s, p.key_space, p.insert_ratio);
    }
    sl.check_invariants(s).expect("skiplist invariants");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn sorted_inserts_and_lookups() {
        let mut s = MemSession::new(0);
        let sl = SkipList::create(&mut s);
        for k in [5u64, 1, 9, 3, 7, 2, 8] {
            sl.insert(&mut s, k, k * 10);
        }
        sl.check_invariants(&s).unwrap();
        for k in [5u64, 1, 9, 3, 7, 2, 8] {
            assert_eq!(sl.peek_get(&s, k), Some(k * 10));
        }
        assert_eq!(sl.peek_get(&s, 6), None);
        assert_eq!(sl.count(&s), 7);
    }

    #[test]
    fn updates_do_not_duplicate() {
        let mut s = MemSession::new(0);
        let sl = SkipList::create(&mut s);
        sl.insert(&mut s, 4, 1);
        sl.insert(&mut s, 4, 2);
        assert_eq!(sl.count(&s), 1);
        assert_eq!(sl.peek_get(&s, 4), Some(2));
        sl.check_invariants(&s).unwrap();
    }

    #[test]
    fn matches_reference_map() {
        let mut s = MemSession::new(7);
        let sl = SkipList::create(&mut s);
        let mut reference = BTreeMap::new();
        for _ in 0..800 {
            let k: Word = s.rng().gen_range(0..300);
            let v: Word = s.rng().gen();
            sl.insert(&mut s, k, v);
            reference.insert(k, v);
        }
        sl.check_invariants(&s).unwrap();
        assert_eq!(sl.count(&s), reference.len() as u64);
        for (k, v) in reference {
            assert_eq!(sl.peek_get(&s, k), Some(v));
            assert_eq!(sl.search(&mut s, k), Some(v));
        }
    }

    #[test]
    fn towers_use_multiple_levels() {
        let mut s = MemSession::new(0);
        let sl = SkipList::create(&mut s);
        for k in 0..200 {
            sl.insert(&mut s, k, k);
        }
        // With p = 1/4 about a quarter of keys rise above level 1.
        let mut above = 0;
        let mut cur = s.peek(f(sl.head.raw(), F_FWD0 + 1));
        while cur != 0 {
            above += 1;
            cur = s.peek(f(cur, F_FWD0 + 1));
        }
        assert!(above > 10, "expected some tall towers, got {above}");
        sl.check_invariants(&s).unwrap();
    }

    #[test]
    fn searches_are_readonly_transactions() {
        let mut s = MemSession::new(0);
        let sl = SkipList::create(&mut s);
        sl.insert(&mut s, 1, 2);
        s.start_recording();
        assert_eq!(sl.search(&mut s, 1), Some(2));
        assert!(!s.trace().ops().iter().any(|o| o.is_store()));
        assert_eq!(s.trace().transactions(), 1);
    }
}
