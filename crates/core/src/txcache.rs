//! The nonvolatile transaction cache (§4.1): a content-addressable FIFO.
//!
//! Entries live in a circular buffer between `tail` (oldest) and `head`
//! (next insert slot) and move through three states, exactly as Figure 4
//! describes:
//!
//! * **available** — free slot;
//! * **active** — buffered store of an in-flight transaction (inserted at
//!   the head);
//! * **committed** — the transaction's `TX_END` arrived; the entry is
//!   issued toward the NVM in FIFO (= program) order and freed when the
//!   NVM controller's acknowledgment message comes back.
//!
//! CAM operations: *commit* matches all entries with a TxID; an
//! *acknowledgment* matches the entry nearest the tail holding the acked
//! line; a *miss probe* from the LLC matches the entry nearest the head
//! (the newest version). The data array is STT-RAM, so the whole structure
//! — including state bits — survives a crash; recovery replays committed
//! entries and discards active ones.
//!
//! # Implementation note: the software model is indexed like the hardware
//!
//! In hardware every one of these operations is a single-cycle
//! content-addressed match. The software model keeps the ring as the
//! order-of-record but mirrors it with three cheap indexes so the
//! per-access cost is O(1) amortized rather than O(window):
//!
//! * a per-line slot list (`line_index`) answering [`TxCache::probe`]
//!   (newest = last element) without walking the ring;
//! * the set of active slots (`active_slots`) so [`TxCache::commit`] and
//!   [`TxCache::discard_active`] touch only the entries they flip;
//! * the current head run of one transaction's active lines (`run_lines`)
//!   answering the coalescing check in [`TxCache::insert`].
//!
//! The indexes are pure caches over the ring: every state transition
//! updates them, and the property suite cross-checks the indexed
//! structure against a naive linear-scan reference model.

use pmacc_types::{
    Counter, FxHashMap, LineAddr, TxCacheConfig, TxId, Word, WordAddr, WORDS_PER_LINE,
};

/// State of one transaction-cache entry (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntryState {
    /// Free slot.
    #[default]
    Available,
    /// Buffered store of an uncommitted transaction.
    Active,
    /// Committed; to be written back to NVM in FIFO order.
    Committed,
}

/// One transaction-cache entry: a line tag plus the buffered word values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcEntry {
    /// Entry state.
    pub state: EntryState,
    /// Owning transaction (meaningful unless available).
    pub tx: TxId,
    /// Tagged cache line.
    pub line: LineAddr,
    /// Buffered 64-bit values within the line (`None` = not written).
    pub values: [Option<Word>; WORDS_PER_LINE],
    /// Whether the entry has been issued toward the NVM controller.
    pub issued: bool,
    /// Global commit order of the owning transaction (the 1-based journal
    /// index stamped at commit time; 0 while the entry is still active).
    /// Recovery replays committed entries of *all* cores in this order, so
    /// cross-core writes to a shared line land in the order the
    /// transactions serialized on the bus.
    pub commit_seq: u64,
}

impl TcEntry {
    fn empty() -> Self {
        TcEntry {
            state: EntryState::Available,
            tx: TxId::new(0, 0),
            line: LineAddr::new(0),
            values: [None; WORDS_PER_LINE],
            issued: false,
            commit_seq: 0,
        }
    }

    /// The buffered word writes, in word order.
    pub(crate) fn writes(self) -> impl Iterator<Item = (WordAddr, Word)> {
        (0..WORDS_PER_LINE).filter_map(move |i| Some((self.line.word(i), self.values[i]?)))
    }
}

/// Counters for one transaction cache.
#[derive(Debug, Clone, Default)]
pub struct TcStats {
    /// Entries inserted (buffered stores).
    pub inserts: Counter,
    /// Inserts absorbed by within-transaction coalescing (ablation D).
    pub coalesced: Counter,
    /// Commit requests served.
    pub commits: Counter,
    /// Acknowledgment messages served.
    pub acks: Counter,
    /// Miss probes from the LLC that hit.
    pub probe_hits: Counter,
    /// Miss probes from the LLC that missed.
    pub probe_misses: Counter,
    /// Insert attempts rejected because the FIFO was full.
    pub full_rejections: Counter,
    /// Transactions diverted to the copy-on-write fall-back path.
    pub overflows: Counter,
    /// Remote snoop invalidations that hit a line this TC currently
    /// buffers: the cache copy died but the entry (and its P/V flag)
    /// survived, which is exactly the decoupling §4 argues for.
    pub remote_invalidations: Counter,
    /// Highest occupancy observed.
    pub high_water: Counter,
}

/// The insert failed because every entry is in use; the caller stalls
/// until an acknowledgment frees the tail (or overflows to the COW path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcFullError;

impl core::fmt::Display for TcFullError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("transaction cache full")
    }
}

impl std::error::Error for TcFullError {}

/// One core's nonvolatile transaction cache.
///
/// # Example
///
/// The full lifecycle of one transaction (Figure 4's state machine):
///
/// ```
/// use pmacc::{EntryState, TxCache};
/// use pmacc_types::{Addr, TxCacheConfig, TxId};
///
/// let mut tc = TxCache::new(&TxCacheConfig::dac17());
/// let tx = TxId::new(0, 0);
///
/// // CPU sends the transaction's stores (head inserts, active state).
/// tc.insert(tx, Addr::nvm_base().word(), 42).expect("room");
/// assert_eq!(tc.active_entries(), 1);
///
/// // TX_END: a commit request flips them to committed via a CAM match,
/// // stamped with the transaction's global commit order.
/// assert_eq!(tc.commit(tx, 1), 1);
///
/// // The FIFO issues committed entries toward the NVM in program order…
/// let (slot, entry) = tc.next_issue().expect("committed entry");
/// assert_eq!(entry.state, EntryState::Committed);
/// tc.mark_issued(slot);
///
/// // …and the NVM controller's acknowledgment frees the entry.
/// tc.ack_slot(slot);
/// assert_eq!(tc.occupancy(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TxCache {
    entries: Vec<TcEntry>,
    /// Next insert slot.
    head: usize,
    /// Oldest in-use slot.
    tail: usize,
    /// Next slot to consider issuing toward the NVM.
    issue_ptr: usize,
    /// In-use (non-available) entries.
    len: usize,
    /// In-use entries still in the active state.
    active_len: usize,
    coalesce: bool,
    overflow_entries: usize,
    /// Per-line CAM index: the in-use slots tagged with each line, oldest
    /// first (insertion order equals window order on a FIFO ring).
    line_index: FxHashMap<LineAddr, Vec<usize>>,
    /// Slots currently in the active state (order is irrelevant; entries
    /// leave the active state only wholesale, per transaction).
    active_slots: Vec<usize>,
    /// The transaction owning the contiguous run of active entries at the
    /// head, if any — the only entries the §4.1 coalescing CAM search can
    /// reach before hitting an older-transaction boundary.
    run_tx: Option<TxId>,
    /// Line → slot for the head run's entries.
    run_lines: FxHashMap<LineAddr, usize>,
    /// Statistics.
    pub stats: TcStats,
}

impl TxCache {
    /// Builds the cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (validate it first).
    #[must_use]
    pub fn new(cfg: &TxCacheConfig) -> Self {
        cfg.validate()
            .expect("valid transaction-cache configuration");
        TxCache {
            entries: vec![TcEntry::empty(); cfg.entries()],
            head: 0,
            tail: 0,
            issue_ptr: 0,
            len: 0,
            active_len: 0,
            coalesce: cfg.coalesce,
            overflow_entries: cfg.overflow_entries(),
            line_index: FxHashMap::default(),
            active_slots: Vec::new(),
            run_tx: None,
            run_lines: FxHashMap::default(),
            stats: TcStats::default(),
        }
    }

    /// Total entry slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// In-use entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// In-use entries still active (uncommitted).
    #[must_use]
    pub fn active_entries(&self) -> usize {
        self.active_len
    }

    /// Slots inside the `[tail, head)` window, including holes left by
    /// out-of-order acknowledgments (a hole is only reusable once the tail
    /// advances past it, as in any hardware FIFO).
    fn window_len(&self) -> usize {
        if self.len == 0 {
            0
        } else if self.tail < self.head {
            self.head - self.tail
        } else {
            self.entries.len() - self.tail + self.head
        }
    }

    /// Whether the FIFO has no insertable slot (the window spans the whole
    /// ring, even if out-of-order acknowledgments left holes inside it).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.window_len() == self.entries.len()
    }

    /// Whether the running transaction has filled the cache to the
    /// overflow threshold with uncommitted entries — the §4.1 condition
    /// for diverting it to the hardware copy-on-write fall-back path.
    #[must_use]
    pub fn overflow_triggered(&self) -> bool {
        self.active_len >= self.overflow_entries
    }

    fn step(&self, i: usize) -> usize {
        (i + 1) % self.entries.len()
    }

    /// Removes `slot` from its line's index list, preserving the list's
    /// age order (probe and ack-by-line depend on it).
    fn unindex(&mut self, line: LineAddr, slot: usize) {
        let slots = self
            .line_index
            .get_mut(&line)
            .expect("freed slot is indexed");
        let pos = slots
            .iter()
            .position(|&s| s == slot)
            .expect("freed slot is in its line's list");
        slots.remove(pos);
        if slots.is_empty() {
            self.line_index.remove(&line);
        }
    }

    /// Clears the head-run coalescing index if it belongs to `tx` (its
    /// entries just left the active state).
    fn end_run(&mut self, tx: TxId) {
        if self.run_tx == Some(tx) {
            self.run_tx = None;
            self.run_lines.clear();
        }
    }

    /// Buffers one 64-bit store of transaction `tx`.
    ///
    /// With coalescing enabled (ablation D), a second store to the same
    /// line by the same active transaction merges into the existing entry.
    ///
    /// # Errors
    ///
    /// Returns [`TcFullError`] when no slot is free; the core stalls until
    /// an acknowledgment frees the tail.
    pub fn insert(&mut self, tx: TxId, word: WordAddr, value: Word) -> Result<(), TcFullError> {
        if self.coalesce {
            // CAM search newest-first among this tx's active entries: only
            // the contiguous head run can match before the search hits an
            // older-transaction boundary, and `run_lines` indexes exactly
            // that run.
            if self.run_tx == Some(tx) {
                if let Some(&slot) = self.run_lines.get(&word.line()) {
                    let e = &mut self.entries[slot];
                    debug_assert!(e.state == EntryState::Active && e.tx == tx);
                    e.values[word.index_in_line()] = Some(value);
                    self.stats.coalesced.inc();
                    return Ok(());
                }
            }
        }
        if self.is_full() {
            self.stats.full_rejections.inc();
            return Err(TcFullError);
        }
        let slot = self.head;
        debug_assert_eq!(self.entries[slot].state, EntryState::Available);
        let mut values = [None; WORDS_PER_LINE];
        values[word.index_in_line()] = Some(value);
        let line = word.line();
        self.entries[slot] = TcEntry {
            state: EntryState::Active,
            tx,
            line,
            values,
            issued: false,
            commit_seq: 0,
        };
        self.head = self.step(slot);
        self.len += 1;
        self.active_len += 1;
        self.line_index.entry(line).or_default().push(slot);
        self.active_slots.push(slot);
        if self.coalesce {
            if self.run_tx != Some(tx) {
                self.run_tx = Some(tx);
                self.run_lines.clear();
            }
            self.run_lines.insert(line, slot);
        }
        self.stats.inserts.inc();
        if self.len as u64 > self.stats.high_water.value() {
            self.stats.high_water = Counter::new();
            self.stats.high_water.add(self.len as u64);
        }
        Ok(())
    }

    /// Serves a commit request: every active entry of `tx` becomes
    /// committed (single CAM operation), stamped with the transaction's
    /// global commit order `seq` (the recovery replay key — see
    /// [`TcEntry::commit_seq`]). Returns how many entries matched.
    pub fn commit(&mut self, tx: TxId, seq: u64) -> usize {
        let mut n = 0;
        let mut i = 0;
        while i < self.active_slots.len() {
            let s = self.active_slots[i];
            debug_assert_eq!(self.entries[s].state, EntryState::Active);
            if self.entries[s].tx == tx {
                self.entries[s].state = EntryState::Committed;
                self.entries[s].commit_seq = seq;
                self.active_slots.swap_remove(i);
                n += 1;
            } else {
                i += 1;
            }
        }
        self.active_len -= n;
        self.end_run(tx);
        self.stats.commits.inc();
        n
    }

    /// Discards every active entry of `tx` (used when a transaction falls
    /// back to the copy-on-write path after overflowing, so its partial
    /// buffered state does not replay at recovery).
    pub fn discard_active(&mut self, tx: TxId) -> usize {
        let mut n = 0;
        let mut i = 0;
        while i < self.active_slots.len() {
            let s = self.active_slots[i];
            debug_assert_eq!(self.entries[s].state, EntryState::Active);
            if self.entries[s].tx == tx {
                self.entries[s].state = EntryState::Available;
                self.active_slots.swap_remove(i);
                self.unindex(self.entries[s].line, s);
                n += 1;
            } else {
                i += 1;
            }
        }
        self.active_len -= n;
        self.len -= n;
        self.end_run(tx);
        self.compact_tail();
        n
    }

    /// The next committed entry to issue toward the NVM, in FIFO order, or
    /// `None` if the entry at the issue pointer is not ready. Returns the
    /// slot index to pass to [`TxCache::mark_issued`].
    #[must_use]
    pub fn next_issue(&self) -> Option<(usize, TcEntry)> {
        // Walk the ring from the issue pointer to the head, skipping
        // entries already issued or freed; stop at the first active entry
        // (FIFO order must not overtake an uncommitted older transaction).
        if !self.in_window(self.issue_ptr) {
            return None;
        }
        let cap = self.entries.len();
        let steps = if self.issue_ptr < self.head {
            self.head - self.issue_ptr
        } else {
            cap - self.issue_ptr + self.head
        };
        let mut i = self.issue_ptr;
        for _ in 0..steps {
            let e = &self.entries[i];
            match e.state {
                EntryState::Committed if !e.issued => return Some((i, *e)),
                EntryState::Active => return None,
                _ => {}
            }
            i = self.step(i);
        }
        None
    }

    /// Marks slot `idx` as issued toward the NVM and advances the issue
    /// pointer past it.
    pub fn mark_issued(&mut self, idx: usize) {
        debug_assert_eq!(self.entries[idx].state, EntryState::Committed);
        self.entries[idx].issued = true;
        self.issue_ptr = self.step(idx);
    }

    /// Serves an acknowledgment for slot `idx`, returning the entry it
    /// frees. The simulator routes acks by request identity, which names
    /// the slot the paper's nearest-tail CAM match would find.
    pub fn ack_slot(&mut self, idx: usize) -> TcEntry {
        let e = &mut self.entries[idx];
        debug_assert!(e.issued && e.state == EntryState::Committed);
        let acked = *e;
        e.state = EntryState::Available;
        e.issued = false;
        let line = e.line;
        self.unindex(line, idx);
        self.len -= 1;
        self.stats.acks.inc();
        self.compact_tail();
        acked
    }

    fn compact_tail(&mut self) {
        // "At each time receiving the acknowledgment message, we check if
        // the cache line entry pointed by the tail is changed into the
        // available state" — advance over freed entries. The loop is
        // bounded by the window span so it also works on a full ring
        // (tail == head).
        let mut remaining = self.window_len();
        while remaining > 0 && self.entries[self.tail].state == EntryState::Available {
            self.tail = self.step(self.tail);
            remaining -= 1;
        }
        if self.len == 0 {
            // Empty ring: normalize pointers.
            self.tail = self.head;
            self.issue_ptr = self.head;
        } else if !self.in_window(self.issue_ptr) {
            self.issue_ptr = self.tail;
        }
    }

    fn in_window(&self, i: usize) -> bool {
        // Whether slot index i lies in [tail, head) on the ring.
        if self.len == 0 {
            return false;
        }
        if self.tail < self.head {
            i >= self.tail && i < self.head
        } else {
            i >= self.tail || i < self.head
        }
    }

    /// LLC miss probe: the in-use entry holding `line` nearest the *head*
    /// (the newest buffered version), per §4.1. Records probe statistics.
    pub fn probe(&mut self, line: LineAddr) -> Option<TcEntry> {
        let hit = self.line_index.get(&line).and_then(|slots| slots.last());
        let Some(&slot) = hit else {
            self.stats.probe_misses.inc();
            return None;
        };
        let e = self.entries[slot];
        debug_assert!(e.state != EntryState::Available && e.line == line);
        self.stats.probe_hits.inc();
        Some(e)
    }

    /// Whether any in-use entry holds `line`, without touching the probe
    /// counters.
    #[must_use]
    pub fn contains_line(&self, line: LineAddr) -> bool {
        self.line_index.contains_key(&line)
    }

    /// The in-use entries in FIFO order (tail to head), as crash recovery
    /// would read them out of the STT-RAM array.
    #[must_use]
    pub fn entries_fifo(&self) -> Vec<TcEntry> {
        let mut out = Vec::with_capacity(self.len);
        let mut i = self.tail;
        for _ in 0..self.entries.len() {
            if out.len() == self.len {
                break;
            }
            let e = self.entries[i];
            if e.state != EntryState::Available {
                out.push(e);
            }
            i = self.step(i);
        }
        debug_assert_eq!(out.len(), self.len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_types::Addr;

    fn cfg(entries: u64) -> TxCacheConfig {
        TxCacheConfig {
            size_bytes: entries * 64,
            ..TxCacheConfig::dac17()
        }
    }

    fn word(i: u64) -> WordAddr {
        Addr::nvm_base().offset(i * 64).word()
    }

    fn tx(n: u64) -> TxId {
        TxId::new(0, n)
    }

    #[test]
    fn insert_commit_issue_ack_cycle() {
        let mut tc = TxCache::new(&cfg(4));
        tc.insert(tx(0), word(1), 10).unwrap();
        tc.insert(tx(0), word(2), 20).unwrap();
        assert_eq!(tc.occupancy(), 2);
        assert_eq!(tc.active_entries(), 2);
        assert!(tc.next_issue().is_none(), "active entries must not issue");

        assert_eq!(tc.commit(tx(0), 1), 2);
        assert_eq!(tc.active_entries(), 0);

        let (i1, e1) = tc.next_issue().unwrap();
        assert_eq!(e1.line, word(1).line());
        tc.mark_issued(i1);
        let (i2, e2) = tc.next_issue().unwrap();
        assert_eq!(e2.line, word(2).line());
        tc.mark_issued(i2);
        assert!(tc.next_issue().is_none());

        tc.ack_slot(i1);
        assert_eq!(tc.occupancy(), 1);
        tc.ack_slot(i2);
        assert_eq!(tc.occupancy(), 0);
        assert_eq!(tc.stats.acks.value(), 2);
    }

    #[test]
    fn fifo_order_is_program_order() {
        let mut tc = TxCache::new(&cfg(8));
        for i in 0..4 {
            tc.insert(tx(0), word(i), i).unwrap();
        }
        tc.commit(tx(0), 1);
        let mut order = Vec::new();
        while let Some((i, e)) = tc.next_issue() {
            order.push(e.line);
            tc.mark_issued(i);
        }
        assert_eq!(order, (0..4).map(|i| word(i).line()).collect::<Vec<_>>());
    }

    #[test]
    fn full_rejection_and_recovery_after_ack() {
        let mut tc = TxCache::new(&cfg(2));
        tc.insert(tx(0), word(0), 0).unwrap();
        tc.insert(tx(0), word(1), 1).unwrap();
        assert_eq!(tc.insert(tx(0), word(2), 2), Err(TcFullError));
        assert_eq!(tc.stats.full_rejections.value(), 1);

        tc.commit(tx(0), 1);
        let (i, _) = tc.next_issue().unwrap();
        tc.mark_issued(i);
        tc.ack_slot(i);
        tc.insert(tx(1), word(2), 2).unwrap();
        assert_eq!(tc.occupancy(), 2);
    }

    #[test]
    fn probe_returns_newest_version() {
        let mut tc = TxCache::new(&cfg(4));
        tc.insert(tx(0), word(5), 1).unwrap();
        tc.commit(tx(0), 1);
        tc.insert(tx(1), word(5), 2).unwrap();
        let hit = tc.probe(word(5).line()).unwrap();
        assert_eq!(hit.values[word(5).index_in_line()], Some(2));
        assert!(tc.probe(word(9).line()).is_none());
        assert_eq!(tc.stats.probe_hits.value(), 1);
        assert_eq!(tc.stats.probe_misses.value(), 1);
    }

    #[test]
    fn coalescing_merges_same_line_writes() {
        let mut c = cfg(4);
        c.coalesce = true;
        let mut tc = TxCache::new(&c);
        let w0 = Addr::nvm_base().word();
        let w1 = Addr::nvm_base().offset(8).word();
        tc.insert(tx(0), w0, 1).unwrap();
        tc.insert(tx(0), w1, 2).unwrap(); // same line, different word
        assert_eq!(tc.occupancy(), 1);
        assert_eq!(tc.stats.coalesced.value(), 1);
        let e = tc.probe(w0.line()).unwrap();
        assert_eq!(e.values[0], Some(1));
        assert_eq!(e.values[1], Some(2));
        // A different transaction does not coalesce into it.
        tc.commit(tx(0), 1);
        tc.insert(tx(1), w0, 9).unwrap();
        assert_eq!(tc.occupancy(), 2);
    }

    #[test]
    fn overflow_trigger_at_threshold() {
        let mut c = cfg(10);
        c.overflow_threshold = 0.9;
        let mut tc = TxCache::new(&c);
        for i in 0..9 {
            assert!(!tc.overflow_triggered());
            tc.insert(tx(0), word(i), i).unwrap();
        }
        assert!(tc.overflow_triggered(), "9 of 10 active entries = 90%");
        // Committed entries do not count toward overflow.
        tc.commit(tx(0), 1);
        assert!(!tc.overflow_triggered());
    }

    #[test]
    fn discard_active_drops_only_that_tx() {
        let mut tc = TxCache::new(&cfg(8));
        tc.insert(tx(0), word(0), 0).unwrap();
        tc.commit(tx(0), 1);
        tc.insert(tx(1), word(1), 1).unwrap();
        tc.insert(tx(1), word(2), 2).unwrap();
        assert_eq!(tc.discard_active(tx(1)), 2);
        assert_eq!(tc.occupancy(), 1);
        let fifo = tc.entries_fifo();
        assert_eq!(fifo.len(), 1);
        assert_eq!(fifo[0].tx, tx(0));
    }

    #[test]
    fn entries_fifo_orders_tail_to_head() {
        let mut tc = TxCache::new(&cfg(4));
        tc.insert(tx(0), word(3), 3).unwrap();
        tc.insert(tx(0), word(7), 7).unwrap();
        let fifo = tc.entries_fifo();
        assert_eq!(fifo[0].line, word(3).line());
        assert_eq!(fifo[1].line, word(7).line());
    }

    #[test]
    fn out_of_order_ack_holes_do_not_free_slots_early() {
        let mut tc = TxCache::new(&cfg(4));
        for i in 0..4 {
            tc.insert(tx(0), word(i), i).unwrap();
        }
        tc.commit(tx(0), 1);
        let slots: Vec<usize> = (0..4)
            .map(|_| {
                let (i, _) = tc.next_issue().unwrap();
                tc.mark_issued(i);
                i
            })
            .collect();
        // Ack a middle entry: the ring is still full for inserts because
        // the hole sits inside the window.
        tc.ack_slot(slots[1]);
        assert_eq!(tc.occupancy(), 3);
        assert!(tc.is_full(), "hole inside the window is not insertable");
        assert_eq!(tc.insert(tx(1), word(9), 9), Err(TcFullError));
        // Acking the tail entry advances the tail over the hole.
        tc.ack_slot(slots[0]);
        assert!(!tc.is_full());
        tc.insert(tx(1), word(9), 9).unwrap();
    }

    #[test]
    fn ring_wraps_correctly() {
        let mut tc = TxCache::new(&cfg(2));
        for round in 0..5u64 {
            tc.insert(tx(round), word(round), round).unwrap();
            tc.commit(tx(round), round + 1);
            let (i, _) = tc.next_issue().unwrap();
            tc.mark_issued(i);
            tc.ack_slot(i);
            assert_eq!(tc.occupancy(), 0);
        }
        assert_eq!(tc.stats.inserts.value(), 5);
        assert_eq!(tc.stats.acks.value(), 5);
    }
}
