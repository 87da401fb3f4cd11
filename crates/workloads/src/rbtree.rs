//! `rbtree`: search/insert in a persistent red-black tree (Table 3).
//!
//! A full CLRS-style red-black tree with parent pointers and rotations,
//! executed on the simulated persistent heap; insert transactions write
//! several nodes (recoloring, rotations), giving the multi-line update
//! pattern persistent-memory papers use this benchmark for.

use pmacc_types::{Addr, Word, WORD_BYTES};

use crate::{MemSession, WorkloadParams};

const NODE_WORDS: u64 = 8; // one cache line per node
const F_KEY: u64 = 0;
const F_VAL: u64 = 1;
const F_L: u64 = 2;
const F_R: u64 = 3;
const F_P: u64 = 4;
const F_C: u64 = 5;
const RED: Word = 1;
const BLACK: Word = 0;

fn f(node: Word, field: u64) -> Addr {
    Addr::new(node + field * WORD_BYTES)
}

/// A persistent red-black tree of 64-bit key-value pairs.
#[derive(Debug, Clone)]
pub struct RbTree {
    root_cell: Addr,
}

impl RbTree {
    /// Allocates an empty tree (setup phase).
    #[must_use]
    pub fn create(s: &mut MemSession) -> Self {
        let root_cell = s.alloc_p(NODE_WORDS);
        s.write(root_cell, 0);
        RbTree { root_cell }
    }

    fn root(&self, s: &mut MemSession) -> Word {
        s.read(self.root_cell)
    }

    fn set_root(&self, s: &mut MemSession, n: Word) {
        s.write(self.root_cell, n);
    }

    /// Inserts or updates `key -> value` in one transaction.
    pub fn insert(&self, s: &mut MemSession, key: Word, value: Word) {
        s.tx(|s| self.insert_inner(s, key, value));
    }

    fn insert_inner(&self, s: &mut MemSession, key: Word, value: Word) {
        let mut parent = 0;
        let mut went_left = false;
        let mut cur = self.root(s);
        while cur != 0 {
            parent = cur;
            let k = s.read(f(cur, F_KEY));
            s.compute(2);
            if key == k {
                s.write(f(cur, F_VAL), value);
                return;
            }
            if key < k {
                cur = s.read(f(cur, F_L));
                went_left = true;
            } else {
                cur = s.read(f(cur, F_R));
                went_left = false;
            }
        }
        let z = s.alloc_p(NODE_WORDS).raw();
        s.write(f(z, F_KEY), key);
        s.write(f(z, F_VAL), value);
        s.write(f(z, F_L), 0);
        s.write(f(z, F_R), 0);
        s.write(f(z, F_P), parent);
        s.write(f(z, F_C), RED);
        if parent == 0 {
            self.set_root(s, z);
        } else if went_left {
            s.write(f(parent, F_L), z);
        } else {
            s.write(f(parent, F_R), z);
        }
        self.fixup(s, z);
    }

    fn fixup(&self, s: &mut MemSession, mut z: Word) {
        loop {
            let p = s.read(f(z, F_P));
            if p == 0 || s.read(f(p, F_C)) != RED {
                break;
            }
            // A red parent is never the root, so the grandparent exists.
            let g = s.read(f(p, F_P));
            let p_is_left = s.read(f(g, F_L)) == p;
            let uncle = if p_is_left {
                s.read(f(g, F_R))
            } else {
                s.read(f(g, F_L))
            };
            s.compute(1);
            if uncle != 0 && s.read(f(uncle, F_C)) == RED {
                s.write(f(p, F_C), BLACK);
                s.write(f(uncle, F_C), BLACK);
                s.write(f(g, F_C), RED);
                z = g;
                continue;
            }
            if p_is_left {
                if s.read(f(p, F_R)) == z {
                    z = p;
                    self.rotate_left(s, z);
                }
                let p2 = s.read(f(z, F_P));
                let g2 = s.read(f(p2, F_P));
                s.write(f(p2, F_C), BLACK);
                s.write(f(g2, F_C), RED);
                self.rotate_right(s, g2);
            } else {
                if s.read(f(p, F_L)) == z {
                    z = p;
                    self.rotate_right(s, z);
                }
                let p2 = s.read(f(z, F_P));
                let g2 = s.read(f(p2, F_P));
                s.write(f(p2, F_C), BLACK);
                s.write(f(g2, F_C), RED);
                self.rotate_left(s, g2);
            }
        }
        let r = self.root(s);
        if r != 0 {
            s.write(f(r, F_C), BLACK);
        }
    }

    fn rotate_left(&self, s: &mut MemSession, x: Word) {
        let y = s.read(f(x, F_R));
        let yl = s.read(f(y, F_L));
        s.write(f(x, F_R), yl);
        if yl != 0 {
            s.write(f(yl, F_P), x);
        }
        let xp = s.read(f(x, F_P));
        s.write(f(y, F_P), xp);
        if xp == 0 {
            self.set_root(s, y);
        } else if s.read(f(xp, F_L)) == x {
            s.write(f(xp, F_L), y);
        } else {
            s.write(f(xp, F_R), y);
        }
        s.write(f(y, F_L), x);
        s.write(f(x, F_P), y);
    }

    fn rotate_right(&self, s: &mut MemSession, x: Word) {
        let y = s.read(f(x, F_L));
        let yr = s.read(f(y, F_R));
        s.write(f(x, F_L), yr);
        if yr != 0 {
            s.write(f(yr, F_P), x);
        }
        let xp = s.read(f(x, F_P));
        s.write(f(y, F_P), xp);
        if xp == 0 {
            self.set_root(s, y);
        } else if s.read(f(xp, F_L)) == x {
            s.write(f(xp, F_L), y);
        } else {
            s.write(f(xp, F_R), y);
        }
        s.write(f(y, F_R), x);
        s.write(f(x, F_P), y);
    }

    /// Looks up `key` in one (read-only) transaction.
    #[must_use]
    pub fn search(&self, s: &mut MemSession, key: Word) -> Option<Word> {
        s.tx(|s| {
            let mut cur = s.read(self.root_cell);
            while cur != 0 {
                let k = s.read(f(cur, F_KEY));
                s.compute(2);
                if key == k {
                    return Some(s.read(f(cur, F_VAL)));
                }
                cur = if key < k {
                    s.read(f(cur, F_L))
                } else {
                    s.read(f(cur, F_R))
                };
            }
            None
        })
    }

    /// Runs a random search-or-insert operation; `insert_ratio` in
    /// `[0, 100]` selects the insert percentage.
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
        let mut cur = s.peek(self.root_cell);
        while cur != 0 {
            let k = s.peek(f(cur, F_KEY));
            if key == k {
                return Some(s.peek(f(cur, F_VAL)));
            }
            cur = if key < k {
                s.peek(f(cur, F_L))
            } else {
                s.peek(f(cur, F_R))
            };
        }
        None
    }

    /// Verifies all red-black invariants: BST ordering, black root, no
    /// red-red edges, equal black heights, consistent parent pointers.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self, s: &MemSession) -> Result<(), String> {
        let root = s.peek(self.root_cell);
        if root == 0 {
            return Ok(());
        }
        if s.peek(f(root, F_C)) != BLACK {
            return Err("root is red".into());
        }
        Self::check_node(s, root, None, None, 0).map(|_| ())
    }

    fn check_node(
        s: &MemSession,
        n: Word,
        min: Option<Word>,
        max: Option<Word>,
        parent: Word,
    ) -> Result<u64, String> {
        if n == 0 {
            return Ok(1);
        }
        let key = s.peek(f(n, F_KEY));
        if let Some(m) = min {
            if key <= m {
                return Err(format!("BST violation: key {key} <= bound {m}"));
            }
        }
        if let Some(m) = max {
            if key >= m {
                return Err(format!("BST violation: key {key} >= bound {m}"));
            }
        }
        if s.peek(f(n, F_P)) != parent {
            return Err(format!("bad parent pointer at key {key}"));
        }
        let color = s.peek(f(n, F_C));
        let (l, r) = (s.peek(f(n, F_L)), s.peek(f(n, F_R)));
        if color == RED {
            for c in [l, r] {
                if c != 0 && s.peek(f(c, F_C)) == RED {
                    return Err(format!("red-red edge at key {key}"));
                }
            }
        }
        let bl = Self::check_node(s, l, min, Some(key), n)?;
        let br = Self::check_node(s, r, Some(key), max, n)?;
        if bl != br {
            return Err(format!("black-height mismatch at key {key}: {bl} vs {br}"));
        }
        Ok(bl + u64::from(color == BLACK))
    }

    /// Number of keys (verification helper).
    #[must_use]
    pub fn count(&self, s: &MemSession) -> u64 {
        fn walk(s: &MemSession, n: Word) -> u64 {
            if n == 0 {
                0
            } else {
                1 + walk(s, s.peek(f(n, F_L))) + walk(s, s.peek(f(n, F_R)))
            }
        }
        walk(s, s.peek(self.root_cell))
    }
}

/// The `rbtree` workload: `setup_items` unrecorded inserts, then
/// `num_ops` recorded operations at the configured insert ratio.
pub(crate) fn generate(s: &mut MemSession, p: &WorkloadParams) {
    let t = RbTree::create(s);
    for _ in 0..p.setup_items {
        t.random_op(s, p.key_space, 100);
    }
    s.start_recording();
    for _ in 0..p.num_ops {
        t.random_op(s, p.key_space, p.insert_ratio);
    }
    t.check_invariants(s).expect("rbtree invariants");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_inserts_stay_balanced() {
        let mut s = MemSession::new(0);
        let t = RbTree::create(&mut s);
        for k in 0..256 {
            t.insert(&mut s, k, k * 10);
            t.check_invariants(&s).unwrap();
        }
        assert_eq!(t.count(&s), 256);
        for k in 0..256 {
            assert_eq!(t.peek_get(&s, k), Some(k * 10));
        }
    }

    #[test]
    fn random_inserts_match_reference() {
        let mut s = MemSession::new(9);
        let t = RbTree::create(&mut s);
        let mut reference = std::collections::BTreeMap::new();
        for _ in 0..1000 {
            let k: Word = s.rng().gen_range(0..400);
            let v: Word = s.rng().gen();
            t.insert(&mut s, k, v);
            reference.insert(k, v);
        }
        t.check_invariants(&s).unwrap();
        assert_eq!(t.count(&s), reference.len() as u64);
        for (k, v) in &reference {
            assert_eq!(t.peek_get(&s, *k), Some(*v));
        }
        assert_eq!(t.peek_get(&s, 40_000), None);
    }

    #[test]
    fn search_is_a_readonly_transaction() {
        use pmacc_cpu::Op;
        let mut s = MemSession::new(0);
        let t = RbTree::create(&mut s);
        t.insert(&mut s, 1, 2);
        s.start_recording();
        assert_eq!(t.search(&mut s, 1), Some(2));
        assert_eq!(s.trace().transactions(), 1);
        assert!(!s
            .trace()
            .ops()
            .iter()
            .any(|o| matches!(o, Op::Store { .. })));
    }

    #[test]
    fn update_in_place() {
        let mut s = MemSession::new(0);
        let t = RbTree::create(&mut s);
        t.insert(&mut s, 5, 1);
        t.insert(&mut s, 5, 2);
        assert_eq!(t.count(&s), 1);
        assert_eq!(t.peek_get(&s, 5), Some(2));
    }

    #[test]
    fn descending_inserts_stay_balanced() {
        let mut s = MemSession::new(0);
        let t = RbTree::create(&mut s);
        for k in (0..128).rev() {
            t.insert(&mut s, k, k);
        }
        t.check_invariants(&s).unwrap();
        assert_eq!(t.count(&s), 128);
    }
}
