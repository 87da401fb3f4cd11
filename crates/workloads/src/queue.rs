//! A persistent linked-list FIFO queue — the paper's *introduction*
//! scenario: "a program inserts a node in a linked list; software issues
//! the node value update followed by the corresponding pointer updates.
//! However, after being reordered, stores to the pointer can arrive at
//! the NVM before those to the nodes. If the system crashes in the
//! middle, the linked list will be corrupted with dangling pointers."
//!
//! Not part of the Table 3 suite; used by the intro-scenario
//! crash-consistency tests and as an extension example of adopting the
//! library for new structures.

use pmacc_types::{Addr, Word, WORD_BYTES};

use crate::{MemSession, WorkloadParams};

const NODE_WORDS: u64 = 8;
const F_VALUE: u64 = 0;
const F_NEXT: u64 = 1;

// Queue header layout (one line).
const H_HEAD: u64 = 0;
const H_TAIL: u64 = 1;
const H_LEN: u64 = 2;

fn field(node: Word, f: u64) -> Addr {
    Addr::new(node + f * WORD_BYTES)
}

/// A persistent FIFO queue of 64-bit values.
#[derive(Debug, Clone)]
pub struct PersistentQueue {
    header: Addr,
}

impl PersistentQueue {
    /// Allocates an empty queue (setup phase).
    #[must_use]
    pub fn create(s: &mut MemSession) -> Self {
        let header = s.alloc_p(NODE_WORDS);
        s.write(header.offset(H_HEAD * WORD_BYTES), 0);
        s.write(header.offset(H_TAIL * WORD_BYTES), 0);
        s.write(header.offset(H_LEN * WORD_BYTES), 0);
        PersistentQueue { header }
    }

    fn hdr(&self, f: u64) -> Addr {
        self.header.offset(f * WORD_BYTES)
    }

    /// Enqueues `value` in one transaction. The node's fields are written
    /// *before* the tail/head pointers — the exact store order whose
    /// reordering by the cache hierarchy the paper's introduction warns
    /// about.
    pub fn enqueue(&self, s: &mut MemSession, value: Word) {
        s.tx(|s| {
            let node = s.alloc_p(NODE_WORDS).raw();
            s.write(field(node, F_VALUE), value);
            s.write(field(node, F_NEXT), 0);
            s.compute(2);
            let tail = s.read(self.hdr(H_TAIL));
            if tail == 0 {
                s.write(self.hdr(H_HEAD), node);
            } else {
                s.write(field(tail, F_NEXT), node);
            }
            s.write(self.hdr(H_TAIL), node);
            let len = s.read(self.hdr(H_LEN));
            s.write(self.hdr(H_LEN), len + 1);
        });
    }

    /// Dequeues the oldest value in one transaction, or `None` when empty.
    pub fn dequeue(&self, s: &mut MemSession) -> Option<Word> {
        s.tx(|s| {
            let head = s.read(self.hdr(H_HEAD));
            if head == 0 {
                return None;
            }
            let value = s.read(field(head, F_VALUE));
            let next = s.read(field(head, F_NEXT));
            s.compute(2);
            s.write(self.hdr(H_HEAD), next);
            if next == 0 {
                s.write(self.hdr(H_TAIL), 0);
            }
            let len = s.read(self.hdr(H_LEN));
            s.write(self.hdr(H_LEN), len - 1);
            Some(value)
        })
    }

    /// Number of queued values.
    #[must_use]
    pub fn len(&self, s: &MemSession) -> u64 {
        s.peek(self.hdr(H_LEN))
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self, s: &MemSession) -> bool {
        self.len(s) == 0
    }

    /// The queued values, head first (verification helper).
    #[must_use]
    pub fn snapshot(&self, s: &MemSession) -> Vec<Word> {
        let mut out = Vec::new();
        let mut cur = s.peek(self.hdr(H_HEAD));
        while cur != 0 {
            out.push(s.peek(field(cur, F_VALUE)));
            cur = s.peek(field(cur, F_NEXT));
        }
        out
    }

    /// Verifies the chain is consistent with the header: the walk from
    /// `head` ends at `tail`, its length matches `len`, and no pointer
    /// dangles into unwritten memory (value/next both zero on a node that
    /// is referenced = the paper's torn-insert corruption).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check(&self, s: &MemSession) -> Result<(), String> {
        self.check_image(&|a| s.peek(a))
    }

    /// Like [`PersistentQueue::check`], but over any memory image — e.g.
    /// a crash-recovered NVM `Backing`-style view. This is
    /// how the intro-scenario tests detect the paper's dangling-pointer
    /// corruption on real recovered images.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_image(&self, read: &dyn Fn(Addr) -> Word) -> Result<(), String> {
        let head = read(self.hdr(H_HEAD));
        let tail = read(self.hdr(H_TAIL));
        let len = read(self.hdr(H_LEN));
        let mut cur = head;
        let mut last = 0;
        let mut n = 0u64;
        while cur != 0 {
            n += 1;
            if n > len + 1 {
                return Err(format!("chain longer than header length {len}"));
            }
            last = cur;
            cur = read(field(cur, F_NEXT));
        }
        if n != len {
            return Err(format!("header says {len} nodes, chain has {n}"));
        }
        if last != tail {
            return Err(format!("tail {tail:#x} does not end the chain ({last:#x})"));
        }
        Ok(())
    }
}

/// The `queue` workload: `setup_items` unrecorded enqueues, then
/// `num_ops` recorded enqueues or dequeues.
pub(crate) fn generate(s: &mut MemSession, p: &WorkloadParams) {
    let q = PersistentQueue::create(s);
    for i in 0..p.setup_items as u64 {
        q.enqueue(s, i);
    }
    s.start_recording();
    for _ in 0..p.num_ops {
        // A 0.55 enqueue share makes the queue grow slowly on average.
        if s.rng().gen_bool(0.55) {
            let v = s.rng().gen::<Word>();
            q.enqueue(s, v);
        } else {
            let _ = q.dequeue(s);
        }
    }
    q.check(s).expect("queue invariants");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn fifo_order() {
        let mut s = MemSession::new(0);
        let q = PersistentQueue::create(&mut s);
        for v in 1..=5 {
            q.enqueue(&mut s, v);
        }
        q.check(&s).unwrap();
        assert_eq!(q.snapshot(&s), vec![1, 2, 3, 4, 5]);
        assert_eq!(q.dequeue(&mut s), Some(1));
        assert_eq!(q.dequeue(&mut s), Some(2));
        q.check(&s).unwrap();
        assert_eq!(q.len(&s), 3);
    }

    #[test]
    fn drain_to_empty_and_reuse() {
        let mut s = MemSession::new(0);
        let q = PersistentQueue::create(&mut s);
        assert_eq!(q.dequeue(&mut s), None);
        q.enqueue(&mut s, 9);
        assert_eq!(q.dequeue(&mut s), Some(9));
        assert!(q.is_empty(&s));
        q.check(&s).unwrap();
        q.enqueue(&mut s, 10);
        assert_eq!(q.snapshot(&s), vec![10]);
        q.check(&s).unwrap();
    }

    #[test]
    fn matches_reference_deque() {
        let mut s = MemSession::new(3);
        let q = PersistentQueue::create(&mut s);
        let mut reference = VecDeque::new();
        for _ in 0..300 {
            if s.rng().gen_bool(0.6) {
                let v: Word = s.rng().gen();
                q.enqueue(&mut s, v);
                reference.push_back(v);
            } else {
                assert_eq!(q.dequeue(&mut s), reference.pop_front());
            }
        }
        q.check(&s).unwrap();
        assert_eq!(q.snapshot(&s), Vec::from(reference));
    }

    #[test]
    fn each_op_is_one_transaction() {
        let mut s = MemSession::new(0);
        let q = PersistentQueue::create(&mut s);
        s.start_recording();
        q.enqueue(&mut s, 1);
        let _ = q.dequeue(&mut s);
        assert_eq!(s.trace().transactions(), 2);
        s.trace().validate().unwrap();
    }
}
