//! The core's store buffer.
//!
//! Stores retire into this finite FIFO and drain into the L1 in the
//! background (one per cycle in the timing model); the core only stalls
//! when the buffer fills, which is how store cost stays off the critical
//! path for every scheme except where fences force a drain.

use std::collections::VecDeque;

use pmacc_types::{Addr, Cycle};

/// What kind of store a buffered entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// A program data store.
    Data,
    /// An SP write-ahead-log record store.
    Log,
}

/// A finite FIFO of pending stores: each entry is the cycle its store
/// drains into the L1 and the store's address, oldest first.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: VecDeque<(Cycle, Addr)>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates a buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer must have capacity");
        StoreBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether another store fits.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Whether the buffer is fully drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffered store count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffers a store to `addr` that drains at cycle `drain_at`.
    ///
    /// # Panics
    ///
    /// Panics when full — the core must stall instead (check
    /// [`StoreBuffer::has_room`] first).
    pub fn push(&mut self, drain_at: Cycle, addr: Addr) {
        assert!(self.has_room(), "store buffer overflow");
        self.entries.push_back((drain_at, addr));
    }

    /// Removes every store that has drained by cycle `now`.
    pub fn drain(&mut self, now: Cycle) {
        while self.entries.front().is_some_and(|&(t, _)| t <= now) {
            self.entries.pop_front();
        }
    }

    /// The drain cycle of the oldest store, if any.
    #[must_use]
    pub fn oldest(&self) -> Option<Cycle> {
        self.entries.front().map(|&(t, _)| t)
    }

    /// The drain cycle of the youngest store, if any: the buffer is empty
    /// from then on unless more stores arrive.
    #[must_use]
    pub fn youngest(&self) -> Option<Cycle> {
        self.entries.back().map(|&(t, _)| t)
    }

    /// Whether a store to `addr` is buffered (a load that hits the store
    /// buffer is forwarded and needs no cache access).
    #[must_use]
    pub fn holds(&self, addr: Addr) -> bool {
        self.entries.iter().any(|&(_, a)| a == addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(sb: &mut StoreBuffer, drain_at: Cycle, addr: u64) {
        sb.push(drain_at, Addr::new(addr));
    }

    #[test]
    fn fifo_drain_order() {
        let mut sb = StoreBuffer::new(4);
        st(&mut sb, 10, 0);
        st(&mut sb, 20, 8);
        assert_eq!(sb.len(), 2);
        assert_eq!((sb.oldest(), sb.youngest()), (Some(10), Some(20)));
        sb.drain(9);
        assert_eq!(sb.len(), 2, "nothing has drained before cycle 10");
        sb.drain(10);
        assert_eq!((sb.oldest(), sb.youngest()), (Some(20), Some(20)));
        assert!(!sb.holds(Addr::new(0)) && sb.holds(Addr::new(8)));
        sb.drain(25);
        assert!(sb.is_empty());
        assert_eq!((sb.oldest(), sb.youngest()), (None, None));
    }

    #[test]
    fn capacity_enforced() {
        let mut sb = StoreBuffer::new(1);
        st(&mut sb, 1, 0);
        assert!(!sb.has_room());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut sb = StoreBuffer::new(1);
        st(&mut sb, 1, 0);
        st(&mut sb, 2, 8);
    }

    #[test]
    fn forwarding_returns_youngest() {
        let mut sb = StoreBuffer::new(4);
        st(&mut sb, 1, 16);
        st(&mut sb, 2, 16);
        st(&mut sb, 3, 24);
        assert!(sb.holds(Addr::new(16)));
        assert!(sb.holds(Addr::new(24)));
        assert!(!sb.holds(Addr::new(32)));
        // The older store to 16 drains first; the younger one still
        // forwards.
        sb.drain(1);
        assert!(sb.holds(Addr::new(16)));
        sb.drain(2);
        assert!(!sb.holds(Addr::new(16)));
        assert_eq!(sb.youngest(), Some(3));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = StoreBuffer::new(0);
    }
}
