//! The memory-channel controller: queues, scheduling and timing.

use core::fmt;
use std::collections::{BinaryHeap, VecDeque};
use std::error::Error;

use pmacc_types::{AccessKind, Cycle, Freq, FxHashMap, MemConfig, MemRegion, MemReq, ReqId};

use crate::bank::{AddressMap, BankState};
use crate::scheduler;
use crate::stats::MemStats;
use crate::wear::{WearMap, WearSnapshot};

/// A finished memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The original request.
    pub req: MemReq,
    /// Cycle at which the device finished (data available / write durable).
    pub done_at: Cycle,
}

/// Returned when a request is offered to a full queue; the caller must
/// retry later (this is how write-queue backpressure propagates to the
/// LLC write-back path and the transaction-cache drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnqueueFullError {
    /// Which queue was full.
    pub kind: AccessKind,
}

impl fmt::Display for EnqueueFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory {} queue full", self.kind)
    }
}

impl Error for EnqueueFullError {}

/// Min-heap entry for pending completions.
#[derive(Debug, PartialEq, Eq)]
struct Pending {
    done_at: Cycle,
    seq: u64,
    req: MemReq,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (done_at, seq).
        (other.done_at, other.seq).cmp(&(self.done_at, self.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One memory channel: read/write queues in front of banked storage.
///
/// The controller is *poked*, not ticked: the caller invokes
/// [`MemController::advance`] with the current cycle; the controller issues
/// every request whose issue slot has arrived and returns completions with
/// `done_at <= now`. [`MemController::next_wake`] reports when it next needs
/// to be poked.
#[derive(Debug)]
pub struct MemController {
    region: MemRegion,
    cfg: MemConfig,
    map: AddressMap,
    banks: Vec<BankState>,
    read_q: VecDeque<(Cycle, MemReq)>,
    write_q: VecDeque<(Cycle, MemReq)>,
    /// Requests coalesced onto a queued write, keyed by the queued
    /// request's id; they complete together with it.
    merged: FxHashMap<ReqId, Vec<MemReq>>,
    pending: BinaryHeap<Pending>,
    /// Writes currently in `pending`, maintained incrementally so
    /// [`MemController::outstanding_writes`] (polled per pcommit check)
    /// is O(1) instead of a heap scan.
    pending_writes: usize,
    bus_free: Cycle,
    drain_mode: bool,
    writes_accepted: u64,
    writes_durable: u64,
    seq: u64,
    read_ns: f64,
    write_ns: f64,
    /// Statistics (public so the system layer can fold them into reports).
    pub stats: MemStats,
    freq: Freq,
    /// Start-gap wear-leveling remapper, present when
    /// [`pmacc_types::WearConfig::leveling`] is on. Queues and
    /// coalescing stay in logical line space; translation to device
    /// rows happens at issue time, so with leveling off this field is
    /// `None` and every code path is byte-identical to the unleveled
    /// controller.
    wear: Option<WearMap>,
}

impl MemController {
    /// Creates a controller for one channel.
    #[must_use]
    pub fn new(region: MemRegion, cfg: MemConfig) -> Self {
        let map = AddressMap::new(&cfg);
        MemController {
            region,
            map,
            banks: vec![BankState::new(); cfg.banks() as usize],
            read_q: VecDeque::with_capacity(cfg.read_queue),
            write_q: VecDeque::with_capacity(cfg.write_queue),
            merged: FxHashMap::default(),
            pending: BinaryHeap::new(),
            pending_writes: 0,
            bus_free: 0,
            drain_mode: false,
            writes_accepted: 0,
            writes_durable: 0,
            seq: 0,
            read_ns: cfg.read_ns,
            write_ns: cfg.write_ns,
            stats: MemStats::new(),
            wear: if cfg.wear.leveling {
                Some(WearMap::new(&cfg.wear))
            } else {
                None
            },
            cfg,
            freq: Freq::default(),
        }
    }

    /// The wear remapper's crash-durable registers, when leveling is on.
    /// Recovery uses this to reconstruct the logical image from the
    /// device image a crash leaves behind.
    #[must_use]
    pub fn wear_snapshot(&self) -> Option<WearSnapshot> {
        self.wear.as_ref().map(WearMap::snapshot)
    }

    /// The memory region this channel backs.
    #[must_use]
    pub fn region(&self) -> MemRegion {
        self.region
    }

    /// Whether a request of `kind` can be accepted right now.
    #[must_use]
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read_q.len() < self.cfg.read_queue,
            AccessKind::Write => self.write_q.len() < self.cfg.write_queue,
        }
    }

    /// Current write-queue occupancy (entries).
    #[must_use]
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// Number of requests in queues or in flight.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.read_q.len() + self.write_q.len() + self.pending.len()
    }

    /// Writes accepted but not yet durable (queued or in flight) — what a
    /// `pcommit` must wait out.
    #[must_use]
    pub fn outstanding_writes(&self) -> usize {
        debug_assert_eq!(
            self.pending_writes,
            self.pending.iter().filter(|p| p.req.is_write()).count()
        );
        self.write_q.len() + self.pending_writes
    }

    /// Monotone count of writes accepted so far (including coalesced).
    #[must_use]
    pub fn writes_accepted(&self) -> u64 {
        self.writes_accepted
    }

    /// Monotone count of writes made durable so far (including coalesced).
    #[must_use]
    pub fn writes_durable(&self) -> u64 {
        self.writes_durable
    }

    /// Offers a request to the channel at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueFullError`] when the corresponding queue is full;
    /// the request is *not* accepted and the caller must retry.
    pub fn enqueue(&mut self, req: MemReq, now: Cycle) -> Result<(), EnqueueFullError> {
        // Write-queue coalescing: a write to a line that already has a
        // queued write merges into it (standard DRAMSim2 behaviour); the
        // merged request completes together with the queued one and does
        // not consume a slot or a device write.
        if req.kind == AccessKind::Write {
            if let Some((_, queued)) = self.write_q.iter().find(|(_, q)| q.addr == req.addr) {
                let host = queued.id;
                self.merged.entry(host).or_default().push(req);
                self.stats.coalesced_writes.inc();
                self.writes_accepted += 1;
                return Ok(());
            }
        }
        if !self.can_accept(req.kind) {
            self.stats.rejected.inc();
            return Err(EnqueueFullError { kind: req.kind });
        }
        match req.kind {
            AccessKind::Read => self.read_q.push_back((now, req)),
            AccessKind::Write => {
                self.writes_accepted += 1;
                self.write_q.push_back((now, req));
            }
        }
        self.update_drain_mode();
        Ok(())
    }

    fn update_drain_mode(&mut self) {
        let high = (self.cfg.write_queue as f64 * self.cfg.drain_high) as usize;
        let low = (self.cfg.write_queue as f64 * self.cfg.drain_low) as usize;
        if self.write_q.len() >= high.max(1) {
            self.drain_mode = true;
        } else if self.write_q.len() <= low {
            self.drain_mode = false;
        }
    }

    /// Picks which queue to serve under the paper's policy: read-first,
    /// unless the write queue passed its high watermark (then drain writes
    /// until the low watermark), with idle write draining as a fallback.
    fn choose_kind(&self) -> Option<AccessKind> {
        if self.drain_mode && !self.write_q.is_empty() {
            return Some(AccessKind::Write);
        }
        if !self.read_q.is_empty() {
            return Some(AccessKind::Read);
        }
        if !self.write_q.is_empty() {
            return Some(AccessKind::Write);
        }
        None
    }

    /// Issues requests whose turn has come and returns all completions with
    /// `done_at <= now`, in completion order.
    pub fn advance(&mut self, now: Cycle) -> Vec<Completion> {
        // Issue loop: one request per bus slot while the bus is free.
        while self.bus_free <= now {
            let Some(kind) = self.choose_kind() else { break };
            let issued = self.issue_one(kind, now);
            if !issued {
                break;
            }
        }
        let mut done = Vec::new();
        while let Some(p) = self.pending.peek() {
            if p.done_at > now {
                break;
            }
            let p = self.pending.pop().expect("peeked entry exists");
            if p.req.is_write() {
                self.writes_durable += 1;
                self.pending_writes -= 1;
            }
            done.push(Completion {
                req: p.req,
                done_at: p.done_at,
            });
            // Coalesced writes complete together with their host.
            if let Some(merged) = self.merged.remove(&p.req.id) {
                for req in merged {
                    if req.is_write() {
                        self.writes_durable += 1;
                    }
                    done.push(Completion {
                        req,
                        done_at: p.done_at,
                    });
                }
            }
        }
        done
    }

    /// Issues one request of `kind`; returns false if nothing could issue.
    fn issue_one(&mut self, kind: AccessKind, now: Cycle) -> bool {
        let queue = match kind {
            AccessKind::Read => &self.read_q,
            AccessKind::Write => &self.write_q,
        };
        let Some(idx) = scheduler::pick(queue, &self.banks, &self.map, now) else {
            return false;
        };
        let (arrived, req) = match kind {
            AccessKind::Read => self.read_q.remove(idx).expect("index from pick"),
            AccessKind::Write => self.write_q.remove(idx).expect("index from pick"),
        };
        // With wear leveling on, the device row a request actually hits
        // goes through the start-gap remap; demand writes also advance
        // the gap counter and may trigger a rotation, whose one-line
        // copy is charged to the wear profile (no timing perturbation —
        // the paper's controller hides rotation copies in idle slots).
        let dev = match (&mut self.wear, kind) {
            (Some(w), AccessKind::Write) => {
                let m = w.record_write(req.addr);
                if let Some(target) = m.relocated {
                    self.stats.gap_rotations.inc();
                    self.stats.relocation_writes.inc();
                    self.stats.record_write_line(target);
                }
                m.device
            }
            (Some(w), AccessKind::Read) => w.device_line(req.addr),
            (None, _) => req.addr,
        };
        let bank = self.map.bank(dev);
        let row = self.map.row(dev);
        let row_hit = self.banks[bank].is_row_hit(row);
        self.stats.row_hits.record(row_hit);
        if self.drain_mode && kind == AccessKind::Write {
            self.stats.drain_issues.inc();
        }

        let access_ns = if row_hit {
            self.cfg.row_hit_ns
        } else {
            match kind {
                AccessKind::Read => self.read_ns,
                AccessKind::Write => self.write_ns,
            }
        };
        // Issue as soon as the request has arrived and the bus is free; a
        // busy bank delays completion but does not hold the bus.
        let start = arrived.max(self.bus_free).max(self.banks[bank].ready_at);
        let done_at = start + self.freq.ns_to_cycles(access_ns);
        self.bus_free = start + self.freq.ns_to_cycles(self.cfg.bus_ns);
        self.banks[bank].ready_at = done_at;
        self.banks[bank].open_row = Some(row);

        let latency = done_at.saturating_sub(arrived);
        match kind {
            AccessKind::Read => {
                self.stats.reads.inc();
                self.stats.read_latency.record(latency);
            }
            AccessKind::Write => {
                let cause = req.cause.expect("writes carry a cause");
                self.stats.record_write(cause, latency);
                self.stats.record_write_line(dev);
            }
        }
        self.seq += 1;
        if kind == AccessKind::Write {
            self.pending_writes += 1;
        }
        self.pending.push(Pending {
            done_at,
            seq: self.seq,
            req,
        });
        self.update_drain_mode();
        true
    }

    /// The next cycle at which [`MemController::advance`] would make
    /// progress, or `None` when fully idle.
    #[must_use]
    pub fn next_wake(&self) -> Option<Cycle> {
        let next_completion = self.pending.peek().map(|p| p.done_at);
        let next_issue = if self.choose_kind().is_some() {
            Some(self.bus_free)
        } else {
            None
        };
        match (next_completion, next_issue) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Estimated service latency of a read issued now with empty queues
    /// (used for quick latency walks in tests).
    #[must_use]
    pub fn unloaded_read_cycles(&self) -> Cycle {
        self.freq.ns_to_cycles(self.read_ns)
    }

    /// A cheap occupancy-aware estimate of read service latency, used by
    /// the fluid store-buffer model to cost store-miss fills without a
    /// full round trip through the event queue.
    #[must_use]
    pub fn read_estimate(&self) -> Cycle {
        let bus = self.freq.ns_to_cycles(self.cfg.bus_ns);
        self.unloaded_read_cycles() + (self.read_q.len() as Cycle + self.pending.len() as Cycle) * bus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_types::{LineAddr, ReqId, WriteCause};

    fn nvm_line(i: u64) -> LineAddr {
        LineAddr::new((8 << 30) / 64 + i)
    }

    fn ctrl() -> MemController {
        MemController::new(MemRegion::Nvm, MemConfig::nvm_dac17())
    }

    #[test]
    fn read_completes_with_device_latency() {
        let mut c = ctrl();
        c.enqueue(MemReq::read(ReqId(1), nvm_line(0)), 0).unwrap();
        let done = c.advance(1_000);
        assert_eq!(done.len(), 1);
        // Row miss: 65 ns at 2 GHz = 130 cycles.
        assert_eq!(done[0].done_at, 130);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut c = ctrl();
        c.enqueue(MemReq::read(ReqId(1), nvm_line(0)), 0).unwrap();
        let first = c.advance(10_000)[0].done_at;
        // Same bank, same row.
        c.enqueue(MemReq::read(ReqId(2), nvm_line(32)), 10_000)
            .unwrap();
        let second = c.advance(20_000)[0].done_at - 10_000;
        assert_eq!(first, 130);
        assert_eq!(second, 64); // 32 ns row hit
    }

    #[test]
    fn reads_have_priority_over_writes() {
        let mut c = ctrl();
        c.enqueue(
            MemReq::write(ReqId(1), nvm_line(0), WriteCause::Eviction),
            0,
        )
        .unwrap();
        c.enqueue(MemReq::read(ReqId(2), nvm_line(1)), 0).unwrap();
        let done = c.advance(10_000);
        // Read issues first (read-first policy), so it completes first:
        // different banks, both row misses, read is 130, write issued one
        // bus slot later finishes at 8 + 152.
        assert_eq!(done[0].req.id, ReqId(2));
        assert_eq!(done[0].done_at, 130);
        assert_eq!(done[1].req.id, ReqId(1));
    }

    #[test]
    fn write_queue_backpressure() {
        let mut c = ctrl();
        for i in 0..64 {
            c.enqueue(
                MemReq::write(ReqId(i), nvm_line(i), WriteCause::Eviction),
                0,
            )
            .unwrap();
        }
        let err = c
            .enqueue(
                MemReq::write(ReqId(99), nvm_line(99), WriteCause::Eviction),
                0,
            )
            .unwrap_err();
        assert_eq!(err.kind, AccessKind::Write);
        assert_eq!(c.stats.rejected.value(), 1);
    }

    #[test]
    fn drain_mode_prioritizes_writes_over_reads() {
        let mut c = ctrl();
        // Fill the write queue past the 80% watermark (52 of 64).
        for i in 0..52 {
            c.enqueue(
                MemReq::write(ReqId(i), nvm_line(i), WriteCause::Eviction),
                0,
            )
            .unwrap();
        }
        c.enqueue(MemReq::read(ReqId(100), nvm_line(100)), 0)
            .unwrap();
        // Advance a little: the first issued request must be a write.
        let done = c.advance(200);
        assert!(!done.is_empty());
        assert!(done[0].req.is_write(), "drain mode must issue writes first");
        assert!(c.stats.drain_issues.value() > 0);
    }

    #[test]
    fn drain_mode_exits_at_the_low_watermark() {
        let mut c = ctrl();
        for i in 0..52 {
            c.enqueue(
                MemReq::write(ReqId(i), nvm_line(i), WriteCause::Eviction),
                0,
            )
            .unwrap();
        }
        // Drain down: completions empty the queue; once below the 20%
        // low watermark, a newly arriving read is served before the
        // remaining writes (read-first resumes).
        let mut t = 0;
        while c.write_queue_len() > 8 {
            t += 200;
            let _ = c.advance(t);
        }
        c.enqueue(MemReq::read(ReqId(900), nvm_line(901)), t)
            .unwrap();
        let done = c.advance(t + 400);
        let read_pos = done.iter().position(|d| !d.req.is_write());
        assert!(read_pos.is_some(), "read completes promptly after drain ends");
    }

    #[test]
    fn bank_parallelism_overlaps_requests() {
        let mut c = ctrl();
        // Two reads to different banks overlap: both finish well before
        // 2 * 130 cycles.
        c.enqueue(MemReq::read(ReqId(1), nvm_line(0)), 0).unwrap();
        c.enqueue(MemReq::read(ReqId(2), nvm_line(1)), 0).unwrap();
        let done = c.advance(10_000);
        assert_eq!(done.len(), 2);
        let last = done.iter().map(|d| d.done_at).max().unwrap();
        assert!(last < 200, "expected overlap, got {last}");
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut c = ctrl();
        c.enqueue(MemReq::read(ReqId(1), nvm_line(0)), 0).unwrap();
        // Same bank (0), different row -> serialized behind the first.
        c.enqueue(MemReq::read(ReqId(2), nvm_line(32 * 32)), 0)
            .unwrap();
        let done = c.advance(10_000);
        assert_eq!(done.len(), 2);
        let last = done.iter().map(|d| d.done_at).max().unwrap();
        assert!(last >= 260, "same-bank accesses must serialize, got {last}");
    }

    #[test]
    fn next_wake_reports_progress_points() {
        let mut c = ctrl();
        assert_eq!(c.next_wake(), None);
        c.enqueue(MemReq::read(ReqId(1), nvm_line(0)), 5).unwrap();
        // Nothing issued yet; wake at bus_free (0 -> issue immediately).
        assert!(c.next_wake().is_some());
        let done = c.advance(5);
        assert!(done.is_empty());
        assert_eq!(c.next_wake(), Some(135)); // issued at 5, done 5+130
        let done = c.advance(135);
        assert_eq!(done.len(), 1);
        assert_eq!(c.next_wake(), None);
    }

    #[test]
    fn wear_leveling_spreads_a_hot_line_over_device_rows() {
        use pmacc_types::WearConfig;
        let mut cfg = MemConfig::nvm_dac17();
        cfg.wear = WearConfig {
            leveling: true,
            region_lines: 8,
            gap_write_interval: 2,
            cell_write_budget: 1_000,
        };
        let mut c = MemController::new(MemRegion::Nvm, cfg);
        // Hammer one logical line; without leveling this is one device
        // row taking all 40 writes.
        for i in 0..40u64 {
            c.enqueue(
                MemReq::write(ReqId(i), nvm_line(0), WriteCause::Eviction),
                i * 1_000,
            )
            .unwrap();
            let _ = c.advance((i + 1) * 1_000);
        }
        let _ = c.advance(1_000_000);
        assert_eq!(c.stats.gap_rotations.value(), 20, "rotate every 2 writes");
        assert_eq!(
            c.stats.relocation_writes.value(),
            c.stats.gap_rotations.value()
        );
        assert!(
            c.stats.writes_per_line.len() > 1,
            "the hot line visits several device rows"
        );
        assert!(c.stats.max_writes_per_line() < 40);
        assert!(c.wear_snapshot().is_some());
    }

    #[test]
    fn leveling_off_has_no_wear_state() {
        let c = ctrl();
        assert!(c.wear_snapshot().is_none());
    }

    #[test]
    fn completions_preserve_request_metadata() {
        let mut c = ctrl();
        let req = MemReq::write(ReqId(7), nvm_line(3), WriteCause::TxCacheDrain);
        c.enqueue(req, 0).unwrap();
        let done = c.advance(10_000);
        assert_eq!(done[0].req, req);
        assert_eq!(c.stats.writes_with_cause(WriteCause::TxCacheDrain), 1);
    }
}
