//! `hashtable`: search/insert 64-bit key-value pairs in a chained
//! hashtable (Table 3).

use pmacc_types::{Addr, Word, WORD_BYTES};

use crate::{MemSession, WorkloadParams};

const NODE_WORDS: u64 = 8; // one cache line per node
const F_KEY: u64 = 0;
const F_VALUE: u64 = 1;
const F_NEXT: u64 = 2;

/// A persistent chained hashtable with a fixed bucket array.
#[derive(Debug, Clone)]
pub struct HashTable {
    buckets: Addr,
    n_buckets: u64,
}

impl HashTable {
    /// Allocates an empty table with `n_buckets` chains (setup phase).
    ///
    /// # Panics
    ///
    /// Panics unless `n_buckets` is a power of two.
    #[must_use]
    pub fn create(s: &mut MemSession, n_buckets: u64) -> Self {
        assert!(
            n_buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        let buckets = s.alloc_p(n_buckets);
        for i in 0..n_buckets {
            s.write(buckets.offset(i * WORD_BYTES), 0);
        }
        HashTable { buckets, n_buckets }
    }

    fn hash(&self, key: Word) -> u64 {
        // Fibonacci hashing; the two multiplies cost compute ops at use.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & (self.n_buckets - 1)
    }

    fn bucket_slot(&self, key: Word) -> Addr {
        self.buckets.offset(self.hash(key) * WORD_BYTES)
    }

    fn field(node: Word, f: u64) -> Addr {
        Addr::new(node + f * WORD_BYTES)
    }

    /// Inserts or updates `key -> value` in one transaction.
    pub fn insert(&self, s: &mut MemSession, key: Word, value: Word) {
        let slot = self.bucket_slot(key);
        s.tx(|s| {
            s.compute(2); // hash
            let head = s.read(slot);
            let mut cur = head;
            while cur != 0 {
                let k = s.read(Self::field(cur, F_KEY));
                s.compute(2);
                if k == key {
                    s.write(Self::field(cur, F_VALUE), value);
                    return;
                }
                cur = s.read(Self::field(cur, F_NEXT));
            }
            let node = s.alloc_p(NODE_WORDS).raw();
            s.write(Self::field(node, F_KEY), key);
            s.write(Self::field(node, F_VALUE), value);
            s.write(Self::field(node, F_NEXT), head);
            s.write(slot, node);
        });
    }

    /// Looks up `key` in one (read-only) transaction.
    #[must_use]
    pub fn search(&self, s: &mut MemSession, key: Word) -> Option<Word> {
        let slot = self.bucket_slot(key);
        s.tx(|s| {
            s.compute(2);
            let mut cur = s.read(slot);
            while cur != 0 {
                let k = s.read(Self::field(cur, F_KEY));
                s.compute(2);
                if k == key {
                    return Some(s.read(Self::field(cur, F_VALUE)));
                }
                cur = s.read(Self::field(cur, F_NEXT));
            }
            None
        })
    }

    /// Non-recording lookup (verification helper).
    #[must_use]
    pub fn peek(&self, s: &MemSession, key: Word) -> Option<Word> {
        let mut cur = s.peek(self.bucket_slot(key));
        while cur != 0 {
            if s.peek(Self::field(cur, F_KEY)) == key {
                return Some(s.peek(Self::field(cur, F_VALUE)));
            }
            cur = s.peek(Self::field(cur, F_NEXT));
        }
        None
    }

    /// Verifies chain integrity: every node's key hashes to its bucket and
    /// no key appears twice in a chain.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check(&self, s: &MemSession) -> Result<(), String> {
        for b in 0..self.n_buckets {
            let mut cur = s.peek(self.buckets.offset(b * WORD_BYTES));
            let mut seen = std::collections::HashSet::new();
            while cur != 0 {
                let k = s.peek(Self::field(cur, F_KEY));
                if self.hash(k) != b {
                    return Err(format!("key {k:#x} in wrong bucket {b}"));
                }
                if !seen.insert(k) {
                    return Err(format!("duplicate key {k:#x} in bucket {b}"));
                }
                cur = s.peek(Self::field(cur, F_NEXT));
            }
        }
        Ok(())
    }
}

/// The `hashtable` workload: `setup_items` unrecorded random inserts,
/// then `num_ops` recorded inserts or searches at the insert ratio.
pub(crate) fn generate(s: &mut MemSession, p: &WorkloadParams) {
    let buckets = (p.setup_items as u64 / 4).max(16).next_power_of_two();
    let t = HashTable::create(s, buckets);
    for _ in 0..p.setup_items {
        let k = s.rng().gen_range(0..p.key_space);
        let v = s.rng().gen::<Word>();
        t.insert(s, k, v);
    }
    s.start_recording();
    for _ in 0..p.num_ops {
        let k = s.rng().gen_range(0..p.key_space);
        let roll: u32 = s.rng().gen_range(0..100);
        if roll < p.insert_ratio {
            let v = s.rng().gen::<Word>();
            t.insert(s, k, v);
        } else {
            let _ = t.search(s, k);
        }
    }
    t.check(s).expect("hashtable invariants");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_search() {
        let mut s = MemSession::new(0);
        let t = HashTable::create(&mut s, 16);
        s.start_recording();
        t.insert(&mut s, 100, 1);
        t.insert(&mut s, 200, 2);
        assert_eq!(t.search(&mut s, 100), Some(1));
        assert_eq!(t.search(&mut s, 200), Some(2));
        assert_eq!(t.search(&mut s, 300), None);
        t.check(&s).unwrap();
    }

    #[test]
    fn update_overwrites() {
        let mut s = MemSession::new(0);
        let t = HashTable::create(&mut s, 4);
        t.insert(&mut s, 7, 1);
        t.insert(&mut s, 7, 9);
        assert_eq!(t.peek(&s, 7), Some(9));
        t.check(&s).unwrap();
    }

    #[test]
    fn matches_reference_map() {
        let mut s = MemSession::new(3);
        let t = HashTable::create(&mut s, 64);
        let mut reference = std::collections::HashMap::new();
        for _ in 0..500 {
            let k: Word = s.rng().gen_range(0..200);
            let v: Word = s.rng().gen();
            t.insert(&mut s, k, v);
            reference.insert(k, v);
        }
        for (k, v) in &reference {
            assert_eq!(t.peek(&s, *k), Some(*v));
        }
        t.check(&s).unwrap();
    }

    #[test]
    fn collisions_chain() {
        let mut s = MemSession::new(0);
        let t = HashTable::create(&mut s, 1); // everything collides
        for k in 0..20 {
            t.insert(&mut s, k, k + 100);
        }
        for k in 0..20 {
            assert_eq!(t.peek(&s, k), Some(k + 100));
        }
        t.check(&s).unwrap();
    }
}
