//! Property tests of the transaction-cache (CAM FIFO) state machine.

use pmacc_prop::Gen;

use pmacc::{EntryState, TxCache};
use pmacc_types::{Addr, TxCacheConfig, TxId, WordAddr};

#[derive(Debug, Clone, Copy)]
enum TcOp {
    /// Insert a store for the running transaction at word index `w`.
    Insert(u8),
    /// Commit the running transaction and start the next.
    Commit,
    /// Issue the next committed entry toward the NVM.
    Issue,
    /// Acknowledge the oldest issued-but-unacked entry.
    Ack,
}

fn arb_op(g: &mut Gen) -> TcOp {
    match g.weighted(&[3, 1, 2, 2]) {
        0 => TcOp::Insert(g.gen_range(0u8..32)),
        1 => TcOp::Commit,
        2 => TcOp::Issue,
        _ => TcOp::Ack,
    }
}

fn word(i: u8) -> WordAddr {
    Addr::nvm_base().offset(u64::from(i) * 64).word()
}

#[test]
fn fifo_invariants_hold() {
    pmacc_prop::check("fifo_invariants_hold", |g| {
        let ops = g.vec(1..200, arb_op);
        let entries = g.gen_range(2u64..32);
        let coalesce = g.gen::<bool>();
        let cfg = TxCacheConfig {
            size_bytes: entries * 64,
            coalesce,
            ..TxCacheConfig::dac17()
        };
        let mut tc = TxCache::new(&cfg);
        let mut serial = 0u64;
        let mut tx = TxId::new(0, serial);
        // Issue order bookkeeping: (slot) issued but not acked, FIFO.
        let mut issued: std::collections::VecDeque<usize> = Default::default();
        // Insertion order of committed-and-unissued entries.
        let mut committed_insertion: std::collections::VecDeque<WordAddr> = Default::default();
        let mut active_insertion: Vec<WordAddr> = Vec::new();

        for op in ops {
            match op {
                TcOp::Insert(w) => {
                    let before = tc.occupancy();
                    match tc.insert(tx, word(w), u64::from(w)) {
                        Ok(()) => {
                            assert!(tc.occupancy() >= before);
                            if tc.occupancy() > before {
                                active_insertion.push(word(w));
                            }
                        }
                        Err(_) => {
                            assert!(tc.is_full(), "reject only when full");
                        }
                    }
                }
                TcOp::Commit => {
                    let n = tc.commit(tx, serial + 1);
                    assert_eq!(n, active_insertion.len(), "commit matches all active");
                    committed_insertion.extend(active_insertion.drain(..));
                    serial += 1;
                    tx = TxId::new(0, serial);
                    assert_eq!(tc.active_entries(), 0);
                }
                TcOp::Issue => {
                    if let Some((slot, entry)) = tc.next_issue() {
                        // FIFO: must be the oldest committed unissued entry.
                        let expect = committed_insertion.pop_front().expect("tracked entry");
                        assert_eq!(entry.line, expect.line(), "issue in insertion order");
                        assert_eq!(entry.state, EntryState::Committed);
                        assert!(!entry.issued);
                        tc.mark_issued(slot);
                        issued.push_back(slot);
                    } else {
                        assert!(
                            committed_insertion.is_empty(),
                            "next_issue may only stall behind an active entry"
                        );
                    }
                }
                TcOp::Ack => {
                    if let Some(slot) = issued.pop_front() {
                        let before = tc.occupancy();
                        tc.ack_slot(slot);
                        assert_eq!(tc.occupancy(), before - 1);
                    }
                }
            }
            // Global invariants.
            assert!(tc.occupancy() <= tc.capacity());
            assert!(tc.active_entries() <= tc.occupancy());
            assert_eq!(tc.entries_fifo().len(), tc.occupancy());
        }
    });
}

// ---------------------------------------------------------------------
// Reference model: the pre-index, linear-scan transaction cache.
//
// `TxCache` answers every CAM operation from per-line / per-state slot
// indexes; this naive model is the original O(window) implementation kept
// verbatim (ring walks, newest-first scans). The equivalence property
// below drives both through identical randomized histories — including
// ring wrap, out-of-order acknowledgment holes, interleaved transactions
// and coalescing — and demands identical observable behaviour and
// statistics at every step.
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct NaiveStats {
    inserts: u64,
    coalesced: u64,
    commits: u64,
    acks: u64,
    probe_hits: u64,
    probe_misses: u64,
    full_rejections: u64,
    high_water: u64,
}

struct NaiveTc {
    entries: Vec<pmacc::TcEntry>,
    head: usize,
    tail: usize,
    issue_ptr: usize,
    len: usize,
    active_len: usize,
    coalesce: bool,
    overflow_entries: usize,
    stats: NaiveStats,
}

impl NaiveTc {
    fn new(cfg: &TxCacheConfig) -> Self {
        NaiveTc {
            entries: vec![
                pmacc::TcEntry {
                    state: EntryState::Available,
                    tx: TxId::new(0, 0),
                    line: pmacc_types::LineAddr::new(0),
                    values: [None; pmacc_types::WORDS_PER_LINE],
                    issued: false,
                    commit_seq: 0,
                };
                cfg.entries()
            ],
            head: 0,
            tail: 0,
            issue_ptr: 0,
            len: 0,
            active_len: 0,
            coalesce: cfg.coalesce,
            overflow_entries: cfg.overflow_entries(),
            stats: NaiveStats::default(),
        }
    }

    fn window_len(&self) -> usize {
        if self.len == 0 {
            0
        } else if self.tail < self.head {
            self.head - self.tail
        } else {
            self.entries.len() - self.tail + self.head
        }
    }

    fn is_full(&self) -> bool {
        self.window_len() == self.entries.len()
    }

    fn overflow_triggered(&self) -> bool {
        self.active_len >= self.overflow_entries
    }

    fn step(&self, i: usize) -> usize {
        (i + 1) % self.entries.len()
    }

    fn window_indices(&self) -> Vec<usize> {
        let cap = self.entries.len();
        let n = self.window_len();
        (0..n).map(|k| (self.tail + k) % cap).collect()
    }

    fn insert(&mut self, tx: TxId, word: WordAddr, value: u64) -> Result<(), ()> {
        if self.coalesce {
            let mut i = self.head;
            for _ in 0..self.len {
                i = if i == 0 { self.entries.len() - 1 } else { i - 1 };
                let e = &mut self.entries[i];
                if e.state != EntryState::Active || e.tx != tx {
                    break;
                }
                if e.line == word.line() {
                    e.values[word.index_in_line()] = Some(value);
                    self.stats.coalesced += 1;
                    return Ok(());
                }
            }
        }
        if self.is_full() {
            self.stats.full_rejections += 1;
            return Err(());
        }
        let slot = self.head;
        let mut values = [None; pmacc_types::WORDS_PER_LINE];
        values[word.index_in_line()] = Some(value);
        self.entries[slot] = pmacc::TcEntry {
            state: EntryState::Active,
            tx,
            line: word.line(),
            values,
            issued: false,
            commit_seq: 0,
        };
        self.head = self.step(slot);
        self.len += 1;
        self.active_len += 1;
        self.stats.inserts += 1;
        self.stats.high_water = self.stats.high_water.max(self.len as u64);
        Ok(())
    }

    fn commit(&mut self, tx: TxId, seq: u64) -> usize {
        let mut n = 0;
        for i in self.window_indices() {
            let e = &mut self.entries[i];
            if e.state == EntryState::Active && e.tx == tx {
                e.state = EntryState::Committed;
                e.commit_seq = seq;
                n += 1;
            }
        }
        self.active_len -= n;
        self.stats.commits += 1;
        n
    }

    fn discard_active(&mut self, tx: TxId) -> usize {
        let mut n = 0;
        for i in self.window_indices() {
            let e = &mut self.entries[i];
            if e.state == EntryState::Active && e.tx == tx {
                e.state = EntryState::Available;
                n += 1;
            }
        }
        self.active_len -= n;
        self.len -= n;
        self.compact_tail();
        n
    }

    fn next_issue(&self) -> Option<(usize, pmacc::TcEntry)> {
        let mut saw_ptr = false;
        for i in self.window_indices() {
            if i == self.issue_ptr {
                saw_ptr = true;
            }
            if !saw_ptr {
                continue;
            }
            let e = &self.entries[i];
            match e.state {
                EntryState::Committed if !e.issued => return Some((i, *e)),
                EntryState::Active => return None,
                _ => {}
            }
        }
        None
    }

    fn mark_issued(&mut self, idx: usize) {
        self.entries[idx].issued = true;
        self.issue_ptr = self.step(idx);
    }

    fn ack_slot(&mut self, idx: usize) {
        let e = &mut self.entries[idx];
        e.state = EntryState::Available;
        e.issued = false;
        self.len -= 1;
        self.stats.acks += 1;
        self.compact_tail();
    }

    fn compact_tail(&mut self) {
        let mut remaining = self.window_len();
        while remaining > 0 && self.entries[self.tail].state == EntryState::Available {
            self.tail = self.step(self.tail);
            remaining -= 1;
        }
        if self.len == 0 {
            self.tail = self.head;
            self.issue_ptr = self.head;
        } else if !self.in_window(self.issue_ptr) {
            self.issue_ptr = self.tail;
        }
    }

    fn in_window(&self, i: usize) -> bool {
        if self.len == 0 {
            return false;
        }
        if self.tail < self.head {
            i >= self.tail && i < self.head
        } else {
            i >= self.tail || i < self.head
        }
    }

    fn probe(&mut self, line: pmacc_types::LineAddr) -> Option<pmacc::TcEntry> {
        for i in self.window_indices().into_iter().rev() {
            let e = &self.entries[i];
            if e.state != EntryState::Available && e.line == line {
                self.stats.probe_hits += 1;
                return Some(*e);
            }
        }
        self.stats.probe_misses += 1;
        None
    }

    fn entries_fifo(&self) -> Vec<pmacc::TcEntry> {
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
        out
    }
}

#[derive(Debug, Clone, Copy)]
enum EqOp {
    /// Insert word `w` for concurrent transaction stream 0 or 1.
    Insert(bool, u8),
    /// Commit a stream's transaction and start its next one.
    Commit(bool),
    /// Discard a stream's active entries (COW overflow path).
    Discard(bool),
    /// Issue the next committed entry.
    Issue,
    /// Acknowledge an issued slot picked by index (out-of-order holes).
    AckSlot(u8),
    /// LLC miss probe.
    Probe(u8),
}

fn arb_eq_op(g: &mut Gen) -> EqOp {
    match g.weighted(&[6, 2, 1, 4, 5, 4]) {
        0 => EqOp::Insert(g.gen(), g.gen_range(0u8..24)),
        1 => EqOp::Commit(g.gen()),
        2 => EqOp::Discard(g.gen()),
        3 => EqOp::Issue,
        4 => EqOp::AckSlot(g.gen_range(0u8..8)),
        _ => EqOp::Probe(g.gen_range(0u8..24)),
    }
}

/// The indexed CAM and the naive linear-scan model agree on every
/// observable — return values, FIFO contents, occupancy and statistics —
/// across arbitrary histories with ring wrap and acknowledgment holes.
#[test]
fn indexed_cam_matches_naive_reference() {
    pmacc_prop::check("indexed_cam_matches_naive_reference", |g| {
        let entries = g.gen_range(2u64..12);
        let coalesce = g.gen::<bool>();
        let cfg = TxCacheConfig {
            size_bytes: entries * 64,
            coalesce,
            ..TxCacheConfig::dac17()
        };
        let mut fast = TxCache::new(&cfg);
        let mut naive = NaiveTc::new(&cfg);
        // Two interleaved transaction streams stress the coalescing
        // boundary (a different transaction's entry at the head must stop
        // the newest-first CAM search).
        let mut serials = [0u64, 1];
        let mut next_serial = 2u64;
        let mut issued: Vec<usize> = Vec::new();
        let ops = g.vec(1..300, arb_eq_op);

        for op in ops {
            match op {
                EqOp::Insert(s, w) => {
                    let tx = TxId::new(0, serials[usize::from(s)]);
                    let a = fast.insert(tx, word(w), u64::from(w));
                    let b = naive.insert(tx, word(w), u64::from(w));
                    assert_eq!(a.is_ok(), b.is_ok(), "insert outcome");
                }
                EqOp::Commit(s) => {
                    let tx = TxId::new(0, serials[usize::from(s)]);
                    let seq = tx.serial() + 1;
                    assert_eq!(fast.commit(tx, seq), naive.commit(tx, seq), "commit count");
                    serials[usize::from(s)] = next_serial;
                    next_serial += 1;
                }
                EqOp::Discard(s) => {
                    let tx = TxId::new(0, serials[usize::from(s)]);
                    assert_eq!(fast.discard_active(tx), naive.discard_active(tx));
                    serials[usize::from(s)] = next_serial;
                    next_serial += 1;
                }
                EqOp::Issue => {
                    let a = fast.next_issue();
                    let b = naive.next_issue();
                    assert_eq!(a, b, "next_issue");
                    if let Some((slot, _)) = a {
                        fast.mark_issued(slot);
                        naive.mark_issued(slot);
                        issued.push(slot);
                    }
                }
                EqOp::AckSlot(k) => {
                    if !issued.is_empty() {
                        let slot = issued.remove(usize::from(k) % issued.len());
                        fast.ack_slot(slot);
                        naive.ack_slot(slot);
                    }
                }
                EqOp::Probe(w) => {
                    assert_eq!(fast.probe(word(w).line()), naive.probe(word(w).line()));
                }
            }
            assert_eq!(fast.occupancy(), naive.len, "occupancy");
            assert_eq!(fast.active_entries(), naive.active_len, "active");
            assert_eq!(fast.is_full(), naive.is_full(), "fullness");
            assert_eq!(
                fast.overflow_triggered(),
                naive.overflow_triggered(),
                "overflow trigger"
            );
            assert_eq!(fast.entries_fifo(), naive.entries_fifo(), "FIFO image");
            let s = &fast.stats;
            let got = NaiveStats {
                inserts: s.inserts.value(),
                coalesced: s.coalesced.value(),
                commits: s.commits.value(),
                acks: s.acks.value(),
                probe_hits: s.probe_hits.value(),
                probe_misses: s.probe_misses.value(),
                full_rejections: s.full_rejections.value(),
                high_water: s.high_water.value(),
            };
            assert_eq!(got, naive.stats, "statistics");
        }
    });
}

#[test]
fn probe_always_returns_newest() {
    pmacc_prop::check("probe_always_returns_newest", |g| {
        let writes = g.vec(1..30, |g| (g.gen_range(0u8..8), g.gen_range(0u64..1000)));
        let cfg = TxCacheConfig::dac17();
        let mut tc = TxCache::new(&cfg);
        let tx = TxId::new(0, 0);
        let mut newest = std::collections::HashMap::new();
        for (w, v) in writes {
            if tc.insert(tx, word(w), v).is_ok() {
                newest.insert(word(w).line(), (w, v));
            }
        }
        for (line, (w, v)) in newest {
            let hit = tc.probe(line).expect("line buffered");
            assert_eq!(hit.values[word(w).index_in_line()], Some(v));
        }
    });
}

// ---------------------------------------------------------------------
// Crash-time snapshot fidelity.
//
// The equivalence property above proves the CAM index answers queries
// correctly; it says nothing about what a *power failure* sees. Recovery
// reads the STT-RAM array through `entries_fifo` (that is exactly what
// `System::crash_state` snapshots), so a hole punched mid-ring by an
// out-of-order acknowledgment — especially one straddling a ring wrap —
// must leave a snapshot from which recovery still reconstructs the
// committed-transaction prefix exactly.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum CrashOp {
    /// Buffer a store to heap line `w` (word 0 of the line).
    Insert(u8),
    /// Commit the running transaction, start the next.
    Commit,
    /// Abandon the running transaction (the overflow path discards its
    /// active entries so they cannot replay at recovery).
    Discard,
    /// Issue the next committed entry toward the NVM.
    Issue,
    /// Complete one outstanding NVM write. The pick is random but
    /// redirected to the oldest outstanding write *of that line*: the NVM
    /// controller may reorder across lines (holes), never within one.
    Ack(u8),
}

fn arb_crash_op(g: &mut Gen) -> CrashOp {
    match g.weighted(&[5, 2, 1, 4, 3]) {
        0 => CrashOp::Insert(g.gen_range(0u8..6)),
        1 => CrashOp::Commit,
        2 => CrashOp::Discard,
        3 => CrashOp::Issue,
        _ => CrashOp::Ack(g.gen_range(0u8..8)),
    }
}

/// A persistent-heap word (one per line) so the recovery checker, which
/// only compares the heap region, sees every write.
fn heap_word(i: u8) -> WordAddr {
    pmacc_types::layout::persistent_heap_base()
        .offset(u64::from(i) * 64)
        .word()
}

#[test]
fn crash_snapshot_recovers_through_ring_wrap_holes() {
    use pmacc::recovery::{check_recovery, recover, CrashState, DurableState, TxRecord};
    use std::sync::Arc;
    pmacc_prop::check("crash_snapshot_recovers_through_ring_wrap_holes", |g| {
        // 2–5 entries: a few hundred ops wrap the ring many times over.
        let entries = g.gen_range(2u64..6);
        let cfg = TxCacheConfig {
            size_bytes: entries * 64,
            coalesce: g.gen::<bool>(),
            ..TxCacheConfig::dac17()
        };
        let mut tc = TxCache::new(&cfg);
        let mut nvm = pmacc_mem::Backing::new();
        // The committed image: every committed transaction's writes.
        let mut committed = pmacc_mem::Backing::new();
        let mut serial = 0u64;
        let mut cur_writes: Vec<(WordAddr, u64)> = Vec::new();
        // Outstanding NVM writes in issue (= FIFO) order.
        let mut issued: Vec<(usize, pmacc::TcEntry)> = Vec::new();
        let mut next_value = 1u64;
        let ops = g.vec(1..250, arb_crash_op);

        for (step, op) in ops.into_iter().enumerate() {
            let tx = TxId::new(0, serial);
            match op {
                CrashOp::Insert(w) => {
                    let v = next_value;
                    next_value += 1;
                    if tc.insert(tx, heap_word(w), v).is_ok() {
                        cur_writes.push((heap_word(w), v));
                    }
                }
                CrashOp::Commit => {
                    tc.commit(tx, serial + 1);
                    committed.extend(cur_writes.drain(..));
                    serial += 1;
                }
                CrashOp::Discard => {
                    // Only active entries vanish; committed (issued or
                    // not) entries are untouched, so `issued` stays valid.
                    tc.discard_active(tx);
                    cur_writes.clear();
                    serial += 1;
                }
                CrashOp::Issue => {
                    if let Some((slot, entry)) = tc.next_issue() {
                        tc.mark_issued(slot);
                        issued.push((slot, entry));
                    }
                }
                CrashOp::Ack(k) => {
                    if !issued.is_empty() {
                        let pick = usize::from(k) % issued.len();
                        let line = issued[pick].1.line;
                        // Same-line writes complete in order; cross-line
                        // completions are free to race, punching holes in
                        // the ring.
                        let j = issued
                            .iter()
                            .position(|(_, e)| e.line == line)
                            .expect("picked from issued");
                        let (slot, entry) = issued.remove(j);
                        for (i, v) in entry.values.iter().enumerate() {
                            if let Some(v) = v {
                                nvm.write_word(entry.line.word(i), *v);
                            }
                        }
                        tc.ack_slot(slot);
                    }
                }
            }

            // Power fails here: recovery sees the durable NVM image plus
            // the FIFO read-out of the transaction-cache array.
            let snapshot = tc.entries_fifo();
            assert!(
                snapshot.iter().all(|e| e.state != EntryState::Available),
                "acked entries must never appear in the crash snapshot"
            );
            let in_flight = (!cur_writes.is_empty() || tc.active_entries() > 0).then(|| TxRecord {
                tx: TxId::new(0, serial),
                commit_cycle: step as u64,
                writes: cur_writes.clone(),
            });
            let state = CrashState {
                cycle: step as u64,
                cores: 1,
                nvm: nvm.clone(),
                wear: None,
                committed: Arc::new(committed.clone()),
                durable: DurableState::TxCache {
                    txcaches: vec![snapshot],
                    cow: vec![Vec::new()],
                },
                in_flight: vec![in_flight],
            };
            let recovered = recover(&state);
            check_recovery(&state, &recovered).unwrap_or_else(|e| {
                panic!("crash after step {step} ({op:?}): {e}");
            });
        }
    });
}
