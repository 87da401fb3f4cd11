//! A bump allocator over a region of the simulated address space.

use pmacc_types::{Addr, WORD_BYTES};

/// A simple bump allocator (the simulated `p_malloc`/`malloc` of Figure 1).
///
/// # Example
///
/// ```
/// use pmacc_workloads::Heap;
/// use pmacc_types::layout;
///
/// let mut h = Heap::new(layout::persistent_heap_base(), 1 << 20);
/// let a = h.alloc_words(8, 8); // one line-aligned node
/// let b = h.alloc_words(8, 8);
/// assert_eq!(b.raw() - a.raw(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct Heap {
    next: u64,
    end: u64,
}

impl Heap {
    /// Creates a heap over `[base, base + size_bytes)`.
    #[must_use]
    pub fn new(base: Addr, size_bytes: u64) -> Self {
        Heap {
            next: base.raw(),
            end: base.raw() + size_bytes,
        }
    }

    /// Allocates `words` 64-bit words aligned to `align_words` words.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted or `align_words` is not a power of
    /// two.
    #[must_use]
    pub fn alloc_words(&mut self, words: u64, align_words: u64) -> Addr {
        assert!(
            align_words.is_power_of_two(),
            "alignment must be a power of two"
        );
        let align = align_words * WORD_BYTES;
        let base = (self.next + align - 1) & !(align - 1);
        let end = base + words * WORD_BYTES;
        assert!(end <= self.end, "simulated heap exhausted");
        self.next = end;
        Addr::new(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_types::layout;

    #[test]
    fn alignment_is_respected() {
        let mut h = Heap::new(layout::persistent_heap_base(), 4096);
        let _ = h.alloc_words(1, 1);
        let a = h.alloc_words(8, 8);
        assert_eq!(a.raw() % 64, 0);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut h = Heap::new(layout::volatile_heap_base(), 4096);
        let a = h.alloc_words(4, 1);
        let b = h.alloc_words(4, 1);
        assert!(b.raw() >= a.raw() + 32);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut h = Heap::new(layout::volatile_heap_base(), 64);
        let _ = h.alloc_words(9, 1);
    }
}
