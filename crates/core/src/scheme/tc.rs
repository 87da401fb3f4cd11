//! TC: the paper's transaction cache (§3, §4). Transactional persistent
//! stores are also buffered in the core's [`TxCache`], which drains
//! committed entries to the NVM in program order; a transaction that
//! outgrows it falls back to copy-on-write shadows in the core's COW area.
//! A crash keeps both; recovery redoes the committed ones in commit order.

use std::collections::BTreeMap;
use std::ops::Range;

use pmacc_cpu::StallKind;
use pmacc_mem::Backing;
use pmacc_types::{
    layout, AccessKind, Counter, Cycle, FxHashMap, LineAddr, MachineConfig, MemRegion, MemReq,
    TxId, Word, WordAddr, WriteCause, WORDS_PER_LINE, WORD_BYTES,
};

use crate::recovery::{DurableState, RecoveryCost};
use crate::system::{BoundaryClass, Event, Origin, System};
use crate::txcache::{EntryState, TcEntry, TxCache};

/// Durable image of one overflowed (copy-on-write) transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CowTxShadow {
    /// Transaction identity.
    pub tx: TxId,
    /// Shadow copies durable in the COW area.
    pub records: Vec<(WordAddr, Word)>,
    /// Whether the commit record persisted.
    pub committed: bool,
    /// Global commit order (1-based journal index) stamped when the commit
    /// record persisted; 0 while uncommitted. Shares the replay ordering
    /// of [`TcEntry::commit_seq`].
    pub commit_seq: u64,
}

/// Where an overflowed transaction's `TX_END` waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CowCommit {
    Data,
    Record,
}

/// One core's copy-on-write fall-back state.
#[derive(Debug, Clone, Default)]
struct CowCore {
    /// Shadows of overflowed transactions, in issue order.
    shadows: Vec<CowTxShadow>,
    /// Home-location installs outstanding per committed shadow.
    installs: FxHashMap<TxId, usize>,
    /// The running transaction has overflowed.
    active: bool,
    commit: Option<CowCommit>,
    /// Shadow writes issued but not yet durable.
    pending: usize,
    /// Next free word offset in the core's COW area.
    cursor: u64,
}

/// A write on one of the TC's own paths, per core: the FIFO drain of the
/// committed entry in slot `.1`, a shadow copy, a commit record, or the
/// install of a committed shadow's record `.2`.
#[derive(Debug, Clone)]
pub(crate) enum TcWrite {
    Drain(usize, usize),
    CowData(usize),
    CowRecord(usize, TxId),
    CowInstall(usize, TxId, usize),
}

/// TC's runtime state.
#[derive(Debug)]
pub(crate) struct Tc {
    /// Each core's transaction cache (STT-RAM).
    pub(super) caches: Vec<TxCache>,
    /// The LLC-miss probe's latency (cycles).
    probe_lat: Cycle,
    /// Dirty persistent LLC evictions dropped (§3: the transaction cache
    /// is the only persistent path).
    pub(super) dropped_llc_writes: Counter,
    cow: Vec<CowCore>,
    /// Per shared-window word, the highest commit order whose value has
    /// been applied to the durable NVM image. Two cores' committed writes
    /// to a shared word may complete at the NVM out of commit order; this
    /// keeps the functional image ordered by commit without perturbing
    /// timing. Private (striped) words, below the window and in the
    /// extended bank above it, never alias, so they skip the map.
    durable_seq: FxHashMap<WordAddr, u64>,
    shared_words: Range<u64>,
}

impl Tc {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        Tc {
            caches: (0..cfg.cores).map(|_| TxCache::new(&cfg.txcache)).collect(),
            probe_lat: cfg.txcache.latency_cycles(cfg.core.freq),
            dropped_llc_writes: Counter::new(),
            cow: vec![CowCore::default(); cfg.cores],
            durable_seq: FxHashMap::default(),
            shared_words: layout::shared_pool_base().word().raw()
                ..layout::extended_heap_base().word().raw(),
        }
    }

    /// The LLC-miss probe (§3), broadcast to every core's cache in parallel
    /// with the NVM read: a hit serves the fill at CAM latency.
    pub(crate) fn probe(&mut self, line: LineAddr) -> Option<Cycle> {
        let hit = line.is_persistent() && self.caches.iter_mut().any(|tc| tc.probe(line).is_some());
        hit.then_some(self.probe_lat)
    }

    /// Books snoop invalidations: a remote core losing its cache copies of
    /// a line must *keep* any transaction-cache entry for it — the P/V
    /// flag lives in the TC, decoupled from the cache states — so only a
    /// counter moves here.
    pub(crate) fn note_invalidations(&mut self, invalidated: &[(usize, LineAddr)]) {
        for &(r, line) in invalidated {
            if self.caches[r].contains_line(line) {
                self.caches[r].stats.remote_invalidations.inc();
            }
        }
    }

    /// Applies a committed write to the durable NVM image in commit order.
    fn durable_write(&mut self, nvm: &mut Backing, word: WordAddr, value: Word, seq: u64) {
        if self.shared_words.contains(&word.raw()) {
            let e = self.durable_seq.entry(word).or_insert(0);
            if *e > seq {
                return;
            }
            *e = seq;
        }
        nvm.write_word(word, value);
    }

    /// Admits a store of `tx` before its side effects: it needs a free entry
    /// unless `tx` overflowed, as the store reaching the threshold makes it.
    pub(crate) fn admit_store(&mut self, sys: &mut System, c: usize, tx: TxId) -> bool {
        if self.cow[c].active {
            return true;
        }
        if self.caches[c].overflow_triggered() {
            self.overflow(sys, c, tx);
        } else if self.caches[c].is_full() {
            sys.cores[c].begin_stall(StallKind::TxCacheFull);
            // An acknowledgment completion wakes the core.
            sys.push_event(sys.clock + 512, Event::CoreStep(c));
            return false;
        }
        true
    }

    /// Buffers a retired store of `tx`, in the cache or the COW area.
    pub(crate) fn buffer(&mut self, sys: &mut System, c: usize, tx: TxId, w: WordAddr, v: Word) {
        if self.cow[c].active {
            self.cow_write(sys, c, tx, w, v);
        } else {
            self.caches[c]
                .insert(tx, w, v)
                .expect("room checked at admission");
        }
    }

    /// `TX_END`: `tx`'s entries commit and drain, and it is durable at
    /// once, unless it overflowed: then its commit record persists first.
    pub(crate) fn tx_end(&mut self, sys: &mut System, c: usize, tx: TxId) -> bool {
        // The commit order is the journal index `tx` takes: `finish_txend`
        // pushes it within this same event. An overflowed `tx` has no
        // entries left (overflow discarded them); its shadow's order is
        // stamped when its commit record persists.
        let seq = sys.journal.len() as u64 + 1;
        self.caches[c].commit(tx, seq);
        sys.schedule_wake(Event::TcDrain(c), sys.clock.max(sys.cores[c].time));
        if !self.cow[c].active {
            return true;
        }
        sys.cores[c].begin_stall(StallKind::TxCacheFull);
        self.cow[c].commit = Some(CowCommit::Data);
        self.resume(sys, c);
        false
    }

    /// The `TcDrain` event: issues the next committed entry, a line a cycle.
    pub(crate) fn drain(&mut self, sys: &mut System, core: usize) {
        // §3: "different write requests of conflicted addresses are issued
        // to the NVM in program order". An overflowed transaction's COW
        // installs are earlier in program order than anything still in
        // the FIFO, so drains wait until the installs are durable.
        if !self.cow[core].installs.is_empty() {
            return; // the last install completion re-arms the drain
        }
        let Some((slot, entry)) = self.caches[core].next_issue() else {
            return;
        };
        if !sys.nvm.can_accept(AccessKind::Write) {
            // Retry after the queue drains a little.
            sys.schedule_wake(Event::TcDrain(core), sys.clock + 32);
            return;
        }
        let cause = WriteCause::TxCacheDrain;
        let req = |id| MemReq::write(id, entry.line, cause);
        // Never parks: the queue was checked above.
        sys.issue_write(Origin::Tc(TcWrite::Drain(core, slot)), sys.clock, req);
        self.caches[core].mark_issued(slot);
        sys.poke_ctrl(MemRegion::Nvm);
        if self.caches[core].next_issue().is_some() {
            sys.schedule_wake(Event::TcDrain(core), sys.clock + 1);
        }
    }

    /// Retries a `TxCacheFull` stall: a store, or an overflowed `TX_END`.
    pub(crate) fn resume(&mut self, sys: &mut System, c: usize) {
        match self.cow[c].commit {
            Some(CowCommit::Data) if self.cow[c].pending == 0 => {
                // All shadow data durable: persist the commit record.
                let tx = sys.cores[c].txend.expect("TX_END in progress");
                self.cow[c].commit = Some(CowCommit::Record);
                self.cow_put(sys, c, 8, TcWrite::CowRecord(c, tx), sys.clock);
            }
            None if !self.caches[c].is_full() => {
                let now = sys.clock.max(sys.cores[c].time);
                sys.cores[c].end_stall(now);
                sys.push_event(now, Event::CoreStep(c));
            }
            // Completions re-run this check.
            Some(_) | None => {}
        }
    }

    /// Moves `tx`'s buffered entries to the COW area, for good.
    fn overflow(&mut self, sys: &mut System, c: usize, tx: TxId) {
        self.caches[c].stats.overflows.inc();
        self.cow[c].active = true;
        let moved: Vec<(WordAddr, Word)> = self.caches[c]
            .entries_fifo()
            .into_iter()
            .filter(|e| e.tx == tx && e.state == EntryState::Active)
            .flat_map(TcEntry::writes)
            .collect();
        self.caches[c].discard_active(tx);
        for (w, v) in moved {
            self.cow_write(sys, c, tx, w, v);
        }
    }

    fn cow_write(&mut self, sys: &mut System, c: usize, tx: TxId, word: WordAddr, value: Word) {
        // Record the shadow copy in *issue* (program) order; NVM writes
        // may complete out of order across banks, but the commit record is
        // only written after every shadow ack, so a committed shadow is
        // always fully durable and must replay in program order.
        let cow = &mut self.cow[c];
        match cow.shadows.last_mut() {
            Some(last) if last.tx == tx && !last.committed => last.records.push((word, value)),
            _ => cow.shadows.push(CowTxShadow {
                tx,
                records: vec![(word, value)],
                committed: false,
                commit_seq: 0,
            }),
        }
        cow.pending += 1;
        let at = sys.clock.max(sys.cores[c].time);
        self.cow_put(sys, c, 2, TcWrite::CowData(c), at);
    }

    /// Writes `n` words at the cursor of core `c`'s COW area.
    fn cow_put(&mut self, sys: &mut System, c: usize, n: u64, w: TcWrite, at: Cycle) {
        let cow = &mut self.cow[c];
        let line = layout::cow_area_base(c)
            .offset(cow.cursor * WORD_BYTES)
            .line();
        cow.cursor += n;
        let req = |id| MemReq::write(id, line, WriteCause::Cow);
        sys.issue_write(Origin::Tc(w), at, req);
        sys.poke_ctrl(MemRegion::Nvm);
    }

    /// Completes, at cycle `at`, a write issued on one of the TC's own
    /// paths: the core whose overflowed `TX_END` this made durable, if any.
    pub(crate) fn write_done(&mut self, sys: &mut System, w: TcWrite, at: Cycle) -> Option<usize> {
        match w {
            TcWrite::Drain(core, slot) => {
                sys.record_boundary(BoundaryClass::DrainAck);
                // A committed entry stays as issued until this ack frees it.
                let entry = self.caches[core].ack_slot(slot);
                for (w, v) in entry.writes() {
                    self.durable_write(&mut sys.nvm_backing, w, v, entry.commit_seq);
                }
                sys.schedule_wake(Event::TcDrain(core), sys.clock);
                if sys.cores[core].blocked == Some(StallKind::TxCacheFull) {
                    self.resume(sys, core);
                }
            }
            TcWrite::CowData(core) => {
                self.cow[core].pending -= 1;
                if sys.cores[core].blocked == Some(StallKind::TxCacheFull) {
                    sys.cores[core].time = sys.cores[core].time.max(at);
                    self.resume(sys, core);
                }
            }
            TcWrite::CowRecord(core, tx) => {
                sys.record_boundary(BoundaryClass::CowCommit);
                // The journal index `tx` takes: `finish_txend` runs next.
                let seq = sys.journal.len() as u64 + 1;
                let cow = &mut self.cow[core];
                cow.active = false;
                cow.commit = None;
                // The store that triggered the overflow made the shadow.
                let shadow = cow.shadows.iter_mut().rev().find(|s| s.tx == tx);
                let shadow = shadow.expect("an overflowed transaction has a shadow");
                shadow.committed = true;
                shadow.commit_seq = seq;
                // Install the copies at home; the last install frees the shadow.
                cow.installs.insert(tx, shadow.records.len());
                for (i, &(word, _)) in shadow.records.iter().enumerate() {
                    let req = |id| MemReq::write(id, word.line(), WriteCause::Cow);
                    let write = TcWrite::CowInstall(core, tx, i);
                    sys.issue_write(Origin::Tc(write), sys.clock, req);
                }
                // One wake-up for the batch: a wake per install would
                // reorder same-cycle events.
                sys.poke_ctrl(MemRegion::Nvm);
                sys.cores[core].time = sys.cores[core].time.max(at);
                sys.cores[core].end_stall(at);
                return Some(core);
            }
            TcWrite::CowInstall(core, tx, i) => {
                let shadow = self.cow[core].shadows.iter().rev().find(|s| s.tx == tx);
                let shadow = shadow.expect("a shadow outlives its installs");
                let ((word, value), seq) = (shadow.records[i], shadow.commit_seq);
                sys.record_boundary(BoundaryClass::CowCommit);
                self.durable_write(&mut sys.nvm_backing, word, value, seq);
                let cow = &mut self.cow[core];
                if let Some(n) = cow.installs.get_mut(&tx) {
                    *n -= 1;
                    if *n == 0 {
                        // Every home copy is durable: free the COW area
                        // and release the core's drain barrier.
                        cow.installs.remove(&tx);
                        cow.shadows.retain(|s| s.tx != tx);
                        sys.schedule_wake(Event::TcDrain(core), sys.clock);
                    }
                }
            }
        }
        None
    }

    /// What survives a crash: the STT-RAM arrays and the COW shadows.
    pub(crate) fn snapshot(&self) -> DurableState {
        DurableState::TxCache {
            txcaches: self.caches.iter().map(TxCache::entries_fifo).collect(),
            cow: self.cow.iter().map(|k| k.shadows.clone()).collect(),
        }
    }
}

/// TC recovery: redoes the committed entries (FIFO order within a
/// transaction) and committed COW shadows of *all* cores in ascending
/// global commit order, the `commit_seq` each transaction was stamped
/// with at `TX_END`. Per core, commit order is program order; when two
/// cores' committed transactions wrote one shared line, the writes land
/// in the order the transactions serialized. A transaction is entirely in
/// one source: overflowing discards its entries. A shadow record is two
/// words, plus a two-word commit record; with `machine`, every core's
/// whole STT-RAM array is also read out once.
pub(crate) fn recover(
    txcaches: &[Vec<TcEntry>],
    cow: &[Vec<CowTxShadow>],
    nvm: &mut Backing,
    machine: Option<&MachineConfig>,
) -> RecoveryCost {
    let mut cost = RecoveryCost::default();
    let mut by_seq: BTreeMap<u64, Vec<(WordAddr, Word)>> = BTreeMap::new();
    for (entries, shadows) in txcaches.iter().zip(cow) {
        for e in entries.iter().filter(|e| e.state == EntryState::Committed) {
            by_seq.entry(e.commit_seq).or_default().extend(e.writes());
        }
        for s in shadows {
            cost.words_scanned += 2 * s.records.len() as u64 + 2;
            if s.committed {
                let bucket = by_seq.entry(s.commit_seq).or_default();
                bucket.extend(s.records.iter().copied());
            }
        }
    }
    for (w, v) in by_seq.into_values().flatten() {
        nvm.write_word(w, v);
        cost.words_replayed += 1;
    }
    if let Some(m) = machine {
        let array_words = m.txcache.entries() * WORDS_PER_LINE;
        cost.words_scanned += txcaches.len() as u64 * array_words as u64;
    }
    cost
}
