//! The transaction path: `TX_BEGIN`/`TX_END`, the cross-core conflict
//! gate that serializes transactional writes to a shared line, and the
//! pinned-set retry of a fill that found its LLC set fully pinned.

use pmacc_cpu::{Op, StallKind};
use pmacc_types::{Addr, Cycle, LineAddr, TxId, Word, WriteCause};

use super::{BoundaryClass, Event, Origin, System};
use crate::recovery::TxRecord;

/// Forced unpins start after this many pin-blocked retries.
const PIN_RETRY_LIMIT: u32 = 8;
/// Retry interval when an NVLLC fill finds its LLC set fully pinned (a
/// remote commit is what unpins the set, so the blocked core polls).
const PIN_RETRY: Cycle = 64;
/// Poll interval for a transactional store serialized behind a remote
/// core's conflicting active transaction. The common wake-up is *exact* —
/// [`System`] re-checks every Conflict-blocked core the moment a
/// transaction commit retires — so this interval only paces the
/// deadlock-cycle detector, which has no commit event to ride on.
const CONFLICT_RETRY: Cycle = 64;

impl System {
    /// `TX_BEGIN`, once the service-mode admission gate lets it start.
    pub(super) fn do_txbegin(&mut self, c: usize) {
        if self.serve_gate(c) {
            return;
        }
        self.cores[c].regs.begin();
        self.clear_tx_lines(c);
        self.cores[c].retire(self.cfg.core.issue_width);
    }

    /// Cross-core conflict serialization for a transactional persistent
    /// store to `line`, checked before any other side effect so the
    /// retried op is idempotent: a store to a line a remote core's
    /// in-flight transaction has written stalls until that transaction's
    /// commit is durable, so commit order equals the order conflicting
    /// writes reach the persistence domain (§3's program-order rule,
    /// lifted across cores). Inert without sharing — striped cores never
    /// hold the same line. Returns whether the store stalled.
    pub(super) fn conflict_stall(&mut self, c: usize, line: LineAddr) -> bool {
        if std::mem::take(&mut self.cores[c].conflict_exempt)
            || self.conflicting_core(c, line).is_none()
        {
            return false;
        }
        self.cores[c].stats.tx_conflicts.inc();
        self.cores[c].begin_stall(StallKind::Conflict);
        let at = self.clock.max(self.cores[c].time) + CONFLICT_RETRY;
        self.push_event(at, Event::CoreStep(c));
        true
    }

    /// Books core `c`'s transactional store of `value` to `addr`: the
    /// scheme's store hook sees it, and the conflict gate tracks its line
    /// through the `tx_writers` bitmap (one map lookup on remote cores
    /// instead of a per-core list scan); NVLLC commits the tracked lines.
    pub(super) fn track_tx_write(&mut self, c: usize, tx: TxId, addr: Addr, value: Word) {
        self.tx_stored(c, tx, addr.word(), value);
        let e = self.tx_writers.entry(addr.line()).or_insert(0);
        if *e & (1u64 << c) == 0 {
            *e |= 1u64 << c;
            self.cores[c].tx_lines.push(addr.line());
        }
    }

    /// Re-checks core `c`'s Conflict stall; whether its store may proceed.
    pub(super) fn conflict_cleared(&mut self, c: usize) -> bool {
        // Re-derive the contended line from the store being retried (the
        // op index did not advance when the stall began, so it is still
        // the current op).
        let line = match self.traces[c].get(self.cores[c].idx) {
            Some(Op::Store { addr, .. } | Op::LogStore { addr, .. }) => addr.line(),
            _ => {
                debug_assert!(false, "Conflict stall on a non-store op");
                return false;
            }
        };
        if self.conflicting_core(c, line).is_none() {
            // The conflicting transaction retired.
        } else if self.conflict_deadlock_break(c, line) {
            self.cores[c].conflict_exempt = true;
            self.cores[c].stats.conflict_overrides.inc();
        } else {
            // Commit retirement wakes conflict-blocked cores exactly
            // ([`System::finish_txend`]); this periodic retry only paces
            // the deadlock detector above.
            self.push_event(self.clock + CONFLICT_RETRY, Event::CoreStep(c));
            return false;
        }
        true
    }

    /// The lowest-index remote core whose in-flight transaction — active,
    /// or at `TX_END` with its commit not yet durable — has written
    /// `line`. A core's bit in the `tx_writers` mask is set exactly while
    /// that condition holds (set on the first transactional write, cleared
    /// when the commit retires, [`System::finish_txend`]), so the check is
    /// one map lookup regardless of core count or write-set size.
    fn conflicting_core(&self, c: usize, line: LineAddr) -> Option<usize> {
        let writers = self.tx_writers.get(&line).copied().unwrap_or(0) & !(1u64 << c);
        if writers == 0 {
            None
        } else {
            Some(writers.trailing_zeros() as usize)
        }
    }

    /// Deadlock avoidance for conflict serialization: when transactions
    /// block each other in a cycle (each wrote a line the other wants),
    /// none can retire. The lowest-index Conflict-blocked core whose
    /// conflictors are *all* themselves Conflict-blocked gets a one-shot
    /// exemption and proceeds; everyone else keeps waiting, so the cycle
    /// unwinds deterministically one core at a time.
    fn conflict_deadlock_break(&self, c: usize, line: LineAddr) -> bool {
        if (0..c).any(|i| self.cores[i].blocked == Some(StallKind::Conflict)) {
            return false;
        }
        let mut writers = self.tx_writers.get(&line).copied().unwrap_or(0) & !(1u64 << c);
        while writers != 0 {
            let r = writers.trailing_zeros() as usize;
            writers &= writers - 1;
            if self.cores[r].blocked != Some(StallKind::Conflict) {
                return false;
            }
        }
        true
    }

    /// Drops core `c`'s transactional lines: empties `tx_lines` and
    /// clears `c`'s bit from every tracked line's writer mask.
    fn clear_tx_lines(&mut self, c: usize) {
        for line in std::mem::take(&mut self.cores[c].tx_lines) {
            if let Some(e) = self.tx_writers.get_mut(&line) {
                *e &= !(1u64 << c);
                if *e == 0 {
                    self.tx_writers.remove(&line);
                }
            }
        }
    }

    /// Core `c`'s access to `line` found its LLC set fully pinned: retry
    /// later, and past [`PIN_RETRY_LIMIT`] retries force an unpin.
    pub(super) fn pin_blocked(&mut self, c: usize, line: LineAddr) {
        self.cores[c].pin_retries += 1;
        if self.cores[c].pin_retries > PIN_RETRY_LIMIT {
            // Escape hatch: forcibly unpin the oldest uncommitted line in
            // the set and persist it out of band (hardware COW).
            if let Some(victim) = self.hier.force_unpin_for(line) {
                let words = self.arch_image.read_line(victim);
                let origin = Origin::Writeback {
                    line: victim,
                    words,
                    flusher: None,
                };
                self.post_write(victim, WriteCause::Cow, origin);
            }
            self.cores[c].pin_retries = 0;
        }
        self.cores[c].begin_stall(StallKind::PinBlocked);
        let at = self.clock.max(self.cores[c].time) + PIN_RETRY;
        self.push_event(at, Event::CoreStep(c));
    }

    /// `TX_END`: hands the transaction to the scheme's commit hook, and
    /// retires it now if that made it durable; otherwise the scheme's
    /// completion retires it.
    pub(super) fn do_txend(&mut self, c: usize) {
        debug_assert!(self.cores[c].txend.is_none());
        let tx = self.cores[c].regs.end();
        self.cores[c].txend = Some(tx);
        if self.tx_end(c, tx) {
            self.finish_txend(c);
        }
    }

    /// Retires core `c`'s `TX_END` once its scheme made it durable: the
    /// transaction enters the journal and releases the conflict gate.
    pub(super) fn finish_txend(&mut self, c: usize) {
        let tx = self.cores[c].txend.take().expect("txend in progress");
        self.record_boundary(BoundaryClass::TxEnd);
        self.clear_tx_lines(c);
        // This retirement is exactly when a remote core stalled on one of
        // this transaction's lines may proceed, so wake Conflict-blocked
        // cores now instead of leaving them to the periodic retry
        // (`retry_blocked` re-derives each one's line and re-checks, so a
        // wake against a still-contended line is harmless).
        for r in 0..self.cores.len() {
            if r != c && self.cores[r].blocked == Some(StallKind::Conflict) {
                let at = self.clock.max(self.cores[r].time);
                self.push_event(at, Event::CoreStep(r));
            }
        }
        self.journal.push(TxRecord {
            tx,
            commit_cycle: self.cores[c].time,
            writes: self.oracle_writes(c, tx),
        });
        self.cores[c].stats.tx_committed.inc();
        self.cores[c].retire(self.cfg.core.issue_width);
        self.serve_complete(c);
        if !self.warmup_done
            && self.run_cfg.warmup_commits > 0
            && self.journal.len() as u64 >= self.run_cfg.warmup_commits
        {
            self.reset_measurement();
        }
    }
}
