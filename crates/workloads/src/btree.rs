//! `btree`: search/insert in a persistent B+tree (Table 3).
//!
//! An order-8 B+tree (up to 7 keys per node). Nodes are 16 words (two
//! cache lines); leaves are chained for ordered scans. Insert transactions
//! shift keys in place and occasionally split, so write-set sizes vary —
//! a good stress for the transaction cache's variable occupancy.

use pmacc_types::{Addr, Word, WORD_BYTES};

use crate::{MemSession, WorkloadParams};

const NODE_WORDS: u64 = 16; // two cache lines
const MAX_KEYS: u64 = 7;
const LEAF_BIT: Word = 1 << 63;

const H_HDR: u64 = 0;
const H_KEY0: u64 = 1; // keys occupy words 1..=7
const H_PTR0: u64 = 8; // children (internal) or values (leaf) words 8..=14
const H_NEXT: u64 = 15; // leaf chain pointer

fn f(node: Word, field: u64) -> Addr {
    Addr::new(node + field * WORD_BYTES)
}

/// A persistent order-8 B+tree of 64-bit key-value pairs.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    root_cell: Addr,
}

impl BPlusTree {
    /// Allocates a tree holding a single empty leaf (setup phase).
    #[must_use]
    pub fn create(s: &mut MemSession) -> Self {
        let root_cell = s.alloc_p(8);
        let leaf = s.alloc_p(NODE_WORDS).raw();
        s.write(f(leaf, H_HDR), LEAF_BIT);
        s.write(f(leaf, H_NEXT), 0);
        s.write(root_cell, leaf);
        BPlusTree { root_cell }
    }

    /// Inserts or updates `key -> value` in one transaction.
    pub fn insert(&self, s: &mut MemSession, key: Word, value: Word) {
        s.tx(|s| {
            let root = s.read(self.root_cell);
            if let Some((sep, right)) = Self::insert_rec(s, root, key, value) {
                let new_root = s.alloc_p(NODE_WORDS).raw();
                s.write(f(new_root, H_HDR), 1);
                s.write(f(new_root, H_KEY0), sep);
                s.write(f(new_root, H_PTR0), root);
                s.write(f(new_root, H_PTR0 + 1), right);
                s.write(self.root_cell, new_root);
            }
        });
    }

    /// Recursive insert; returns `(separator, new right sibling)` when the
    /// node split.
    fn insert_rec(s: &mut MemSession, node: Word, key: Word, value: Word) -> Option<(Word, Word)> {
        let hdr = s.read(f(node, H_HDR));
        let count = hdr & !LEAF_BIT;
        if hdr & LEAF_BIT != 0 {
            return Self::insert_leaf(s, node, count, key, value);
        }
        // Find the child to descend into: first key greater than `key`.
        let mut idx = count;
        for i in 0..count {
            let k = s.read(f(node, H_KEY0 + i));
            s.compute(2);
            if key < k {
                idx = i;
                break;
            }
        }
        let child = s.read(f(node, H_PTR0 + idx));
        let split = Self::insert_rec(s, child, key, value)?;
        Self::insert_into_internal(s, node, count, idx, split)
    }

    fn insert_leaf(
        s: &mut MemSession,
        node: Word,
        count: Word,
        key: Word,
        value: Word,
    ) -> Option<(Word, Word)> {
        // Scan for position (and equality).
        let mut pos = count;
        for i in 0..count {
            let k = s.read(f(node, H_KEY0 + i));
            s.compute(2);
            if k == key {
                s.write(f(node, H_PTR0 + i), value);
                return None;
            }
            if key < k {
                pos = i;
                break;
            }
        }
        if count < MAX_KEYS {
            // Shift right and insert.
            let mut i = count;
            while i > pos {
                let k = s.read(f(node, H_KEY0 + i - 1));
                let v = s.read(f(node, H_PTR0 + i - 1));
                s.write(f(node, H_KEY0 + i), k);
                s.write(f(node, H_PTR0 + i), v);
                i -= 1;
            }
            s.write(f(node, H_KEY0 + pos), key);
            s.write(f(node, H_PTR0 + pos), value);
            s.write(f(node, H_HDR), LEAF_BIT | (count + 1));
            return None;
        }
        // Split: merge the 7 resident pairs with the new one.
        let mut pairs = Vec::with_capacity(8);
        for i in 0..count {
            let k = s.read(f(node, H_KEY0 + i));
            let v = s.read(f(node, H_PTR0 + i));
            pairs.push((k, v));
        }
        let at = pairs.partition_point(|(k, _)| *k < key);
        pairs.insert(at, (key, value));
        let right = s.alloc_p(NODE_WORDS).raw();
        let left_n = 4;
        for (i, (k, v)) in pairs.iter().take(left_n).enumerate() {
            s.write(f(node, H_KEY0 + i as u64), *k);
            s.write(f(node, H_PTR0 + i as u64), *v);
        }
        for (i, (k, v)) in pairs.iter().skip(left_n).enumerate() {
            s.write(f(right, H_KEY0 + i as u64), *k);
            s.write(f(right, H_PTR0 + i as u64), *v);
        }
        let old_next = s.read(f(node, H_NEXT));
        s.write(f(right, H_NEXT), old_next);
        s.write(f(right, H_HDR), LEAF_BIT | (8 - left_n as Word));
        s.write(f(node, H_NEXT), right);
        s.write(f(node, H_HDR), LEAF_BIT | left_n as Word);
        Some((pairs[left_n].0, right))
    }

    fn insert_into_internal(
        s: &mut MemSession,
        node: Word,
        count: Word,
        idx: Word,
        (sep, rnode): (Word, Word),
    ) -> Option<(Word, Word)> {
        if count < MAX_KEYS {
            let mut i = count;
            while i > idx {
                let k = s.read(f(node, H_KEY0 + i - 1));
                s.write(f(node, H_KEY0 + i), k);
                let c = s.read(f(node, H_PTR0 + i));
                s.write(f(node, H_PTR0 + i + 1), c);
                i -= 1;
            }
            s.write(f(node, H_KEY0 + idx), sep);
            s.write(f(node, H_PTR0 + idx + 1), rnode);
            s.write(f(node, H_HDR), count + 1);
            return None;
        }
        // Split internal node: 8 keys, 9 children after insertion.
        let mut keys = Vec::with_capacity(8);
        let mut children = Vec::with_capacity(9);
        for i in 0..count {
            keys.push(s.read(f(node, H_KEY0 + i)));
        }
        for i in 0..=count {
            children.push(s.read(f(node, H_PTR0 + i)));
        }
        keys.insert(idx as usize, sep);
        children.insert(idx as usize + 1, rnode);
        let up = keys[3];
        let right = s.alloc_p(NODE_WORDS).raw();
        // Left keeps keys[0..3] and children[0..4].
        for (i, k) in keys.iter().take(3).enumerate() {
            s.write(f(node, H_KEY0 + i as u64), *k);
        }
        for (i, c) in children.iter().take(4).enumerate() {
            s.write(f(node, H_PTR0 + i as u64), *c);
        }
        s.write(f(node, H_HDR), 3);
        // Right takes keys[4..8] and children[4..9].
        for (i, k) in keys.iter().skip(4).enumerate() {
            s.write(f(right, H_KEY0 + i as u64), *k);
        }
        for (i, c) in children.iter().skip(4).enumerate() {
            s.write(f(right, H_PTR0 + i as u64), *c);
        }
        s.write(f(right, H_HDR), 4);
        Some((up, right))
    }

    /// Looks up `key` in one (read-only) transaction.
    #[must_use]
    pub fn search(&self, s: &mut MemSession, key: Word) -> Option<Word> {
        s.tx(|s| {
            let mut node = s.read(self.root_cell);
            loop {
                let hdr = s.read(f(node, H_HDR));
                let count = hdr & !LEAF_BIT;
                if hdr & LEAF_BIT != 0 {
                    for i in 0..count {
                        let k = s.read(f(node, H_KEY0 + i));
                        s.compute(1);
                        if k == key {
                            return Some(s.read(f(node, H_PTR0 + i)));
                        }
                        if key < k {
                            return None;
                        }
                    }
                    return None;
                }
                let mut idx = count;
                for i in 0..count {
                    let k = s.read(f(node, H_KEY0 + i));
                    s.compute(1);
                    if key < k {
                        idx = i;
                        break;
                    }
                }
                node = s.read(f(node, H_PTR0 + idx));
            }
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
        let mut node = s.peek(self.root_cell);
        loop {
            let hdr = s.peek(f(node, H_HDR));
            let count = hdr & !LEAF_BIT;
            if hdr & LEAF_BIT != 0 {
                for i in 0..count {
                    if s.peek(f(node, H_KEY0 + i)) == key {
                        return Some(s.peek(f(node, H_PTR0 + i)));
                    }
                }
                return None;
            }
            let mut idx = count;
            for i in 0..count {
                if key < s.peek(f(node, H_KEY0 + i)) {
                    idx = i;
                    break;
                }
            }
            node = s.peek(f(node, H_PTR0 + idx));
        }
    }

    /// Verifies structural invariants: sorted keys per node, uniform leaf
    /// depth, a strictly ascending leaf chain, and node fill bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self, s: &MemSession) -> Result<(), String> {
        let root = s.peek(self.root_cell);
        let depth = Self::check_node(s, root, None, None, true)?;
        // Walk the leaf chain: strictly ascending keys end to end.
        let mut node = root;
        for _ in 0..depth {
            node = s.peek(f(node, H_PTR0));
        }
        let mut last: Option<Word> = None;
        while node != 0 {
            let count = s.peek(f(node, H_HDR)) & !LEAF_BIT;
            for i in 0..count {
                let k = s.peek(f(node, H_KEY0 + i));
                if let Some(l) = last {
                    if k <= l {
                        return Err(format!("leaf chain not ascending: {l} then {k}"));
                    }
                }
                last = Some(k);
            }
            node = s.peek(f(node, H_NEXT));
        }
        Ok(())
    }

    /// Returns the leaf depth below `node`.
    fn check_node(
        s: &MemSession,
        node: Word,
        min: Option<Word>,
        max: Option<Word>,
        is_root: bool,
    ) -> Result<u64, String> {
        let hdr = s.peek(f(node, H_HDR));
        let count = hdr & !LEAF_BIT;
        if count > MAX_KEYS {
            return Err(format!("node overfull: {count} keys"));
        }
        if !is_root && count == 0 {
            return Err("non-root node is empty".into());
        }
        let mut prev: Option<Word> = None;
        for i in 0..count {
            let k = s.peek(f(node, H_KEY0 + i));
            if let Some(p) = prev {
                if k <= p {
                    return Err(format!("unsorted node: {p} then {k}"));
                }
            }
            if let Some(m) = min {
                if k < m {
                    return Err(format!("key {k} below subtree bound {m}"));
                }
            }
            if let Some(m) = max {
                if k >= m {
                    return Err(format!("key {k} at or above subtree bound {m}"));
                }
            }
            prev = Some(k);
        }
        if hdr & LEAF_BIT != 0 {
            return Ok(0);
        }
        let mut depth = None;
        for i in 0..=count {
            let child = s.peek(f(node, H_PTR0 + i));
            let lo = if i == 0 {
                min
            } else {
                Some(s.peek(f(node, H_KEY0 + i - 1)))
            };
            let hi = if i == count {
                max
            } else {
                Some(s.peek(f(node, H_KEY0 + i)))
            };
            let d = Self::check_node(s, child, lo, hi, false)?;
            match depth {
                None => depth = Some(d),
                Some(prev_d) if prev_d != d => {
                    return Err(format!("uneven leaf depth: {prev_d} vs {d}"));
                }
                _ => {}
            }
        }
        Ok(depth.expect("internal node has children") + 1)
    }
}

/// The `btree` workload: `setup_items` unrecorded inserts, then
/// `num_ops` recorded operations at the configured insert ratio.
pub(crate) fn generate(s: &mut MemSession, p: &WorkloadParams) {
    let t = BPlusTree::create(s);
    for _ in 0..p.setup_items {
        t.random_op(s, p.key_space, 100);
    }
    s.start_recording();
    for _ in 0..p.num_ops {
        t.random_op(s, p.key_space, p.insert_ratio);
    }
    t.check_invariants(s).expect("btree invariants");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_inserts_split_correctly() {
        let mut s = MemSession::new(0);
        let t = BPlusTree::create(&mut s);
        for k in 0..200 {
            t.insert(&mut s, k, k + 1000);
            t.check_invariants(&s).unwrap();
        }
        for k in 0..200 {
            assert_eq!(t.peek_get(&s, k), Some(k + 1000));
        }
        assert_eq!(t.peek_get(&s, 999), None);
    }

    #[test]
    fn random_inserts_match_reference() {
        let mut s = MemSession::new(4);
        let t = BPlusTree::create(&mut s);
        let mut reference = std::collections::BTreeMap::new();
        for _ in 0..1500 {
            let k: Word = s.rng().gen_range(0..600);
            let v: Word = s.rng().gen();
            t.insert(&mut s, k, v);
            reference.insert(k, v);
        }
        t.check_invariants(&s).unwrap();
        for (k, v) in &reference {
            assert_eq!(t.peek_get(&s, *k), Some(*v));
        }
    }

    #[test]
    fn search_transactions_find_inserted_keys() {
        let mut s = MemSession::new(0);
        let t = BPlusTree::create(&mut s);
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(&mut s, k, k * 2);
        }
        s.start_recording();
        assert_eq!(t.search(&mut s, 9), Some(18));
        assert_eq!(t.search(&mut s, 4), None);
        assert_eq!(s.trace().transactions(), 2);
    }

    #[test]
    fn descending_inserts_work() {
        let mut s = MemSession::new(0);
        let t = BPlusTree::create(&mut s);
        for k in (0..100).rev() {
            t.insert(&mut s, k, k);
        }
        t.check_invariants(&s).unwrap();
        for k in 0..100 {
            assert_eq!(t.peek_get(&s, k), Some(k));
        }
    }

    #[test]
    fn update_in_place_does_not_grow() {
        let mut s = MemSession::new(0);
        let t = BPlusTree::create(&mut s);
        for _ in 0..50 {
            t.insert(&mut s, 42, 1);
        }
        t.insert(&mut s, 42, 2);
        t.check_invariants(&s).unwrap();
        assert_eq!(t.peek_get(&s, 42), Some(2));
    }
}
