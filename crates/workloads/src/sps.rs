//! `sps`: randomly swap elements in a persistent array (Table 3).
//!
//! The most write-intensive benchmark — two loads and two stores per
//! transaction with almost no compute — which is why it is the only
//! workload the paper reports stalling the 4 KB transaction cache
//! (0.67% of execution time, §5.2).

use pmacc_types::{Addr, Word, WORD_BYTES};

use crate::{MemSession, WorkloadParams};

/// A persistent array of 64-bit elements supporting transactional swaps.
#[derive(Debug, Clone)]
pub struct SwapArray {
    base: Addr,
    len: u64,
}

impl SwapArray {
    /// Allocates and initializes an array with `a[i] = i` (setup; run
    /// before [`MemSession::start_recording`]).
    #[must_use]
    pub fn create(s: &mut MemSession, len: u64) -> Self {
        assert!(len >= 2, "need at least two elements to swap");
        let base = s.alloc_p(len);
        for i in 0..len {
            s.write(Self::slot_of(base, i), i);
        }
        SwapArray { base, len }
    }

    fn slot_of(base: Addr, i: u64) -> Addr {
        base.offset(i * WORD_BYTES)
    }

    /// The address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn slot(&self, i: u64) -> Addr {
        assert!(i < self.len, "index {i} out of bounds");
        Self::slot_of(self.base, i)
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Swaps elements `i` and `j` in one transaction.
    pub fn swap(&self, s: &mut MemSession, i: u64, j: u64) {
        let (si, sj) = (self.slot(i), self.slot(j));
        s.tx(|s| {
            // Index arithmetic and bounds checks around each access.
            s.compute(3);
            let a = s.read(si);
            let b = s.read(sj);
            s.compute(2);
            s.write(si, b);
            s.write(sj, a);
        });
    }

    /// Swaps a uniformly random pair of distinct elements.
    pub fn swap_random(&self, s: &mut MemSession) {
        let i = s.rng().gen_range(0..self.len);
        let mut j = s.rng().gen_range(0..self.len);
        if j == i {
            j = (j + 1) % self.len;
        }
        self.swap(s, i, j);
    }

    /// Verifies the array is still a permutation of `0..len`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_permutation(&self, s: &MemSession) -> Result<(), String> {
        let mut seen = vec![false; self.len as usize];
        for i in 0..self.len {
            let v = s.peek(Self::slot_of(self.base, i));
            if v >= self.len {
                return Err(format!("element {i} holds out-of-range value {v}"));
            }
            if seen[v as usize] {
                return Err(format!("value {v} appears twice"));
            }
            seen[v as usize] = true;
        }
        Ok(())
    }

    /// The current contents (verification helper).
    #[must_use]
    pub fn snapshot(&self, s: &MemSession) -> Vec<Word> {
        (0..self.len)
            .map(|i| s.peek(Self::slot_of(self.base, i)))
            .collect()
    }
}

/// The `sps` workload: an array of `setup_items / 6` elements, then
/// `num_ops` recorded random swaps.
pub(crate) fn generate(s: &mut MemSession, p: &WorkloadParams) {
    // A largely cache-resident array keeps the swap rate — and so the
    // store pressure on the transaction cache — high: sps is the workload
    // the paper reports stalling the TC (§5.2). In our shorter runs the
    // stall cliff sits around 1-2 KB instead of the paper's 4 KB (see
    // ablation A).
    let a = SwapArray::create(s, (p.setup_items as u64 / 6).max(2));
    s.start_recording();
    for _ in 0..p.num_ops {
        a.swap_random(s);
    }
    a.check_permutation(s).expect("sps permutation");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_exchanges_values() {
        let mut s = MemSession::new(0);
        let a = SwapArray::create(&mut s, 8);
        s.start_recording();
        a.swap(&mut s, 1, 5);
        assert_eq!(s.peek(a.slot(1)), 5);
        assert_eq!(s.peek(a.slot(5)), 1);
        a.check_permutation(&s).unwrap();
    }

    #[test]
    fn random_swaps_preserve_permutation() {
        let mut s = MemSession::new(7);
        let a = SwapArray::create(&mut s, 64);
        s.start_recording();
        for _ in 0..200 {
            a.swap_random(&mut s);
        }
        a.check_permutation(&s).unwrap();
        assert_eq!(s.trace().transactions(), 200);
    }

    #[test]
    fn each_swap_is_one_transaction_with_two_stores() {
        let mut s = MemSession::new(0);
        let a = SwapArray::create(&mut s, 4);
        s.start_recording();
        a.swap(&mut s, 0, 1);
        let stores = s.trace().ops().iter().filter(|o| o.is_store()).count();
        assert_eq!(stores, 2);
        assert_eq!(s.trace().transactions(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_swap_panics() {
        let mut s = MemSession::new(0);
        let a = SwapArray::create(&mut s, 4);
        a.swap(&mut s, 0, 9);
    }
}
