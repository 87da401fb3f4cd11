//! Write-back buffer between the LLC and a memory controller.
//!
//! Dirty LLC evictions land here and retry into the memory controller's
//! write queue, letting the queue-full backpressure of the paper's 64-entry
//! write queue propagate without losing write-backs.

use std::collections::VecDeque;

use pmacc_types::MemReq;

/// A FIFO of pending write-backs.
#[derive(Debug, Clone, Default)]
pub struct WriteBackBuffer {
    entries: VecDeque<MemReq>,
    capacity: usize,
}

impl WriteBackBuffer {
    /// Creates a buffer with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        WriteBackBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether another write-back can be accepted.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Whether the buffer holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buffered write-backs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Buffers a write-back.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (check [`WriteBackBuffer::has_room`]);
    /// the hierarchy must stall fills instead of dropping write-backs.
    pub fn push(&mut self, req: MemReq) {
        assert!(self.has_room(), "write-back buffer overflow");
        self.entries.push_back(req);
    }

    /// The next write-back to try, without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&MemReq> {
        self.entries.front()
    }

    /// Removes and returns the next write-back.
    pub fn pop(&mut self) -> Option<MemReq> {
        self.entries.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_types::{LineAddr, ReqId, WriteCause};

    fn wb(i: u64) -> MemReq {
        MemReq::write(ReqId(i), LineAddr::new(i), WriteCause::Eviction)
    }

    #[test]
    fn fifo_order() {
        let mut b = WriteBackBuffer::new(2);
        b.push(wb(1));
        b.push(wb(2));
        assert!(!b.has_room());
        assert_eq!(b.peek().unwrap().id, ReqId(1));
        assert_eq!(b.pop().unwrap().id, ReqId(1));
        assert_eq!(b.pop().unwrap().id, ReqId(2));
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = WriteBackBuffer::new(1);
        b.push(wb(1));
        b.push(wb(2));
    }
}
