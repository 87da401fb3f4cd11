//! Each core's execution context, and the core-step event that advances
//! a core through its trace: a batch of ops, or the retry of whatever
//! blocked it. The ops themselves run on the memory path
//! ([`super::mempath`]) and the transaction path ([`super::tx`]).
//!
//! The context's fields are `pub(super)`: the engine and its seams read
//! them, and nothing outside the engine does.

use std::collections::VecDeque;

use pmacc_cpu::{CoreStats, Op, StallKind, StoreBuffer, StoreKind, TxRegs};
use pmacc_types::{Cycle, LineAddr, MachineConfig, TxId, WordAddr};

use super::{Event, System};

/// Batch limits for one core-step event (fairness between components).
const STEP_OPS: usize = 64;
const STEP_CYCLES: Cycle = 256;

#[derive(Debug)]
pub(crate) struct CoreCtx {
    pub(super) idx: usize,
    pub(crate) time: Cycle,
    slot_accum: u32,
    pub(crate) regs: TxRegs,
    pub(super) sb: StoreBuffer,
    pub(super) sb_times: VecDeque<Cycle>,
    pub(super) last_drain: Cycle,
    pub(super) pending_flushes: usize,
    pub(crate) blocked: Option<StallKind>,
    stall_started: Cycle,
    pub(super) finished: bool,
    pub(crate) stats: CoreStats,
    // An outstanding demand load: (line, arrival, started).
    pub(super) pending_load: Option<(LineAddr, Cycle, Cycle)>,
    // Whether the pending load has been accepted by a memory controller.
    pub(super) load_inflight: bool,
    /// Lines the current transaction has written, for the conflict gate.
    pub(crate) tx_lines: Vec<LineAddr>,
    /// The transaction whose `TX_END` is in progress.
    pub(crate) txend: Option<TxId>,
    pub(super) pin_retries: u32,
    /// One-shot pass issued by the deadlock-avoidance rule: the next
    /// conflict check on this core is skipped so the lowest-index member
    /// of a mutually blocked cycle can proceed.
    pub(super) conflict_exempt: bool,
    /// A `pcommit` is waiting for the NVM writes accepted before it (this
    /// durable-count target) to complete.
    pub(super) pcommit: Option<u64>,
}

impl CoreCtx {
    pub(super) fn new(core: usize, cfg: &MachineConfig) -> Self {
        CoreCtx {
            idx: 0,
            time: 0,
            slot_accum: 0,
            regs: TxRegs::new(core as u8),
            sb: StoreBuffer::new(cfg.core.store_buffer),
            sb_times: VecDeque::new(),
            last_drain: 0,
            pending_flushes: 0,
            blocked: None,
            stall_started: 0,
            finished: false,
            stats: CoreStats::new(),
            pending_load: None,
            load_inflight: false,
            tx_lines: Vec::new(),
            txend: None,
            pin_retries: 0,
            conflict_exempt: false,
            pcommit: None,
        }
    }

    /// Charges `slots` issue slots at the configured width.
    pub(super) fn charge(&mut self, slots: u32, width: u32) {
        self.slot_accum += slots;
        self.time += Cycle::from(self.slot_accum / width);
        self.slot_accum %= width;
    }

    /// Retires the current op in one issue slot.
    pub(super) fn retire(&mut self, width: u32) {
        self.charge(1, width);
        self.stats.ops.inc();
        self.idx += 1;
    }

    /// Pops store-buffer entries that have drained by `self.time`.
    pub(super) fn drain_sb(&mut self) {
        while let Some(&t) = self.sb_times.front() {
            if t <= self.time {
                self.sb_times.pop_front();
                self.sb.pop();
            } else {
                break;
            }
        }
    }

    pub(crate) fn begin_stall(&mut self, kind: StallKind) {
        self.blocked = Some(kind);
        self.stall_started = self.time;
    }

    pub(crate) fn end_stall(&mut self, now: Cycle) {
        if let Some(kind) = self.blocked.take() {
            let t = now.max(self.stall_started);
            self.stats.add_stall(kind, t - self.stall_started);
            self.time = self.time.max(t);
        }
    }
}

impl System {
    pub(super) fn handle_core_step(&mut self, c: usize) {
        if self.cores[c].finished {
            return;
        }
        if self.cores[c].blocked.is_some() {
            self.retry_blocked(c);
            return;
        }
        if self.cores[c].time > self.clock {
            // Stale wakeup: whoever advanced the core past this event's
            // time also scheduled a fresh wakeup at or after `core.time`
            // (every unblock/batch path does), so this event can die —
            // re-pushing it would make duplicates immortal.
            return;
        }
        let start = self.cores[c].time;
        for _ in 0..STEP_OPS {
            if self.cores[c].blocked.is_some() || self.cores[c].finished {
                return;
            }
            if self.cores[c].time - start > STEP_CYCLES {
                break;
            }
            self.step_one(c);
        }
        if !self.cores[c].finished && self.cores[c].blocked.is_none() {
            let at = self.cores[c].time.max(self.clock + 1);
            self.push_event(at, Event::CoreStep(c));
        }
    }

    fn retry_blocked(&mut self, c: usize) {
        let blocked = self.cores[c].blocked;
        match blocked {
            // Retry a read enqueue that found the queue full. Once the
            // load is in flight this event is stale: its completion wakes
            // the core exactly once.
            Some(StallKind::Load) if !self.cores[c].load_inflight => {
                if let Some((line, arrival, _)) = self.cores[c].pending_load {
                    self.issue_load(c, line, arrival);
                }
            }
            Some(StallKind::Fence) => self.try_finish_fence(c),
            Some(StallKind::TxCacheFull) => self.on_tc(|tc, sys| tc.resume(sys, c)),
            // The re-check schedules the next retry when it fails.
            Some(StallKind::Conflict) if !self.conflict_cleared(c) => {}
            Some(StallKind::PinBlocked | StallKind::Conflict) => {
                let now = self.clock.max(self.cores[c].time);
                self.cores[c].end_stall(now);
                self.handle_core_step(c);
            }
            _ => {}
        }
    }

    fn step_one(&mut self, c: usize) {
        let Some(op) = self.traces[c].get(self.cores[c].idx) else {
            self.cores[c].finished = true;
            self.cores[c].stats.cycles = self.cores[c].time;
            return;
        };
        self.cores[c].drain_sb();
        match op {
            Op::Compute(n) => {
                self.cores[c].charge(n.max(1), self.cfg.core.issue_width);
                self.cores[c].stats.ops.add(u64::from(n.max(1)));
                self.cores[c].idx += 1;
            }
            Op::TxBegin => self.do_txbegin(c),
            Op::TxEnd => self.do_txend(c),
            Op::Load { addr } => self.do_load(c, addr),
            Op::Store { addr, value } => self.do_store(c, addr, value, StoreKind::Data),
            Op::LogStore { addr, meta, value } => {
                // Functional: the record header lands in the word after
                // the base; the store path below handles the base word.
                self.arch_image.write_word(addr.word(), meta);
                self.arch_image
                    .write_word(WordAddr::new(addr.word().raw() + 1), value);
                self.do_store(c, addr, meta, StoreKind::Log)
            }
            Op::Flush { addr } => self.do_flush(c, addr),
            Op::Fence => self.do_fence(c, None),
            // Snapshot: wait for everything the NVM controller has
            // accepted so far (later arrivals from other cores are not
            // our problem).
            Op::PCommit => self.do_fence(c, Some(self.nvm.writes_accepted())),
        }
    }
}
