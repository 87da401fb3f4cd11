//! The memory path: loads and stores through the cache hierarchy, the
//! SP write-order ops (`clwb`, `sfence`, `pcommit`), eviction routing,
//! the memory-controller queues and their completions.

use pmacc_cache::{Access, Eviction, Level};
use pmacc_cpu::{PendingStore, StallKind, StoreKind};
use pmacc_mem::{Completion, MemController};
use pmacc_types::{AccessKind, Addr, Cycle, LineAddr, MemRegion, MemReq, ReqId, Word, WriteCause};

use super::{BoundaryClass, Event, Origin, System};

/// Retry interval for a demand load that found the read queue or MSHRs full.
const LOAD_RETRY: Cycle = 16;

impl System {
    /// Holds `line`'s LLC bank for `dur` cycles (one per ordinary access;
    /// the full STT-RAM write for NVLLC commit bursts), returning the
    /// wait before the hold could start.
    pub(crate) fn llc_port_hold(&mut self, line: LineAddr, t: Cycle, dur: Cycle) -> Cycle {
        let b = (line.raw() & 3) as usize;
        let wait = self.llc_port_free[b].saturating_sub(t);
        self.llc_port_free[b] = self.llc_port_free[b].max(t) + dur;
        wait
    }

    fn ctrl(&mut self, region: MemRegion) -> &mut MemController {
        match region {
            MemRegion::Nvm => &mut self.nvm,
            MemRegion::Dram => &mut self.dram,
        }
    }

    fn req_id(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    // ------------------------------------------------------------------
    // Loads
    // ------------------------------------------------------------------

    pub(super) fn do_load(&mut self, c: usize, addr: Addr) {
        let persistent = addr.is_persistent();
        self.cores[c].stats.ops.inc();
        self.cores[c].stats.loads.inc();

        // Store-to-load forwarding.
        if self.cores[c].sb.forward(addr).is_some() {
            self.cores[c].charge(1, self.cfg.core.issue_width);
            self.record_load_latency(c, 1, persistent);
            self.cores[c].idx += 1;
            return;
        }

        let line = addr.line();
        let t = self.cores[c].time;
        match self.hier.access(c, Access::load(line)) {
            Err(_) => {
                self.pin_blocked(c, line);
            }
            Ok(out) => {
                self.note_invalidations(&out.invalidated);
                self.route_evictions(out.evictions);
                let pre = self.lat_l1 + self.lat_l2;
                let lat = match out.hit {
                    Some(Level::L1) => self.lat_l1,
                    Some(Level::L2) => pre,
                    Some(Level::Llc) | None => {
                        pre + self.llc_port_hold(line, t + pre, 1) + self.lat_llc
                    }
                };
                if out.hit.is_some() {
                    self.finish_load(c, lat, persistent);
                } else if let Some(side) = self.probe_side_path(line) {
                    self.finish_load(c, lat + side, persistent);
                } else {
                    // Fill from memory.
                    let arrival = t + lat;
                    self.cores[c].begin_stall(StallKind::Load);
                    self.cores[c].pending_load = Some((line, arrival, t));
                    self.issue_load(c, line, arrival);
                }
            }
        }
    }

    /// Sends core `c`'s fill of `line` to memory, merged with an outstanding
    /// fill of the line if any, or retries while the queue or MSHRs are full.
    pub(super) fn issue_load(&mut self, c: usize, line: LineAddr, arrival: Cycle) {
        let region = line.region();
        if self.ctrl(region).can_accept(AccessKind::Read) {
            match self.mshr.allocate(line, c) {
                Ok(true) => {
                    let id = self.req_id();
                    self.origins.insert(id, Origin::LoadFill);
                    let req = MemReq::read(id, line, Some(c));
                    self.ctrl(region)
                        .enqueue(req, arrival)
                        .expect("checked can_accept");
                    self.cores[c].load_inflight = true;
                    self.poke_ctrl(region);
                    return;
                }
                Ok(false) => {
                    // Secondary miss: the primary's completion wakes us.
                    self.cores[c].load_inflight = true;
                    return;
                }
                Err(_) => {}
            }
        }
        self.push_event(self.clock + LOAD_RETRY, Event::CoreStep(c));
    }

    fn finish_load(&mut self, c: usize, lat: Cycle, persistent: bool) {
        self.cores[c].time += lat.max(1);
        self.record_load_latency(c, lat, persistent);
        self.cores[c].idx += 1;
        self.cores[c].pin_retries = 0;
    }

    fn record_load_latency(&mut self, c: usize, lat: Cycle, persistent: bool) {
        self.cores[c].stats.load_latency.record(lat);
        if persistent {
            self.cores[c].stats.persistent_load_latency.record(lat);
        }
    }

    // ------------------------------------------------------------------
    // Stores
    // ------------------------------------------------------------------

    pub(super) fn do_store(&mut self, c: usize, addr: Addr, value: Word, kind: StoreKind) {
        let persistent = addr.is_persistent();
        let tx = self.cores[c].regs.current();
        // The transaction of a transactional persistent data store.
        let tx_data = tx.filter(|_| persistent && kind == StoreKind::Data);
        if tx_data.is_some() && self.conflict_stall(c, addr.line()) {
            return;
        }

        // The scheme may stall the store, also before any other side
        // effect.
        let Some(acc) = self.store_access(c, addr, tx_data) else {
            return;
        };
        let line = addr.line();
        let outcome = match self.hier.access(c, acc) {
            Err(_) => {
                self.pin_blocked(c, line);
                return;
            }
            Ok(out) => out,
        };
        self.cores[c].pin_retries = 0;
        self.note_invalidations(&outcome.invalidated);
        self.route_evictions(outcome.evictions);

        // Functional: architectural memory state (DRAM contents are not
        // modeled).
        if persistent {
            self.arch_image.write_word(addr.word(), value);
        }

        // Timing: the store retires into the store buffer and drains in
        // the background; its drain cost depends on where it hit.
        let t = self.cores[c].time;
        let cost = match outcome.hit {
            Some(Level::L1) => 1,
            Some(Level::L2) => self.lat_l2,
            hit => {
                let llc = self.lat_l2 + self.llc_port_hold(line, t, 1) + self.lat_llc;
                if hit.is_some() {
                    llc
                } else if let Some(side) = self.probe_side_path(line) {
                    llc + side
                } else {
                    llc + self.ctrl(line.region()).read_estimate()
                }
            }
        };
        self.cores[c].drain_sb();
        if !self.cores[c].sb.has_room() {
            // Stall until the oldest entry drains.
            let until = *self.cores[c].sb_times.front().expect("sb entries exist");
            let t0 = self.cores[c].time;
            self.cores[c]
                .stats
                .add_stall(StallKind::StoreBufferFull, until.saturating_sub(t0));
            self.cores[c].time = self.cores[c].time.max(until);
            self.cores[c].drain_sb();
        }
        let drain_at = self.cores[c].last_drain.max(self.cores[c].time) + cost;
        self.cores[c].last_drain = drain_at;
        self.cores[c].sb.push(PendingStore {
            addr,
            value,
            kind,
            tx,
        });
        self.cores[c].sb_times.push_back(drain_at);
        if let Some(tx) = tx_data {
            self.track_tx_write(c, tx, addr, value);
        }
        self.cores[c].stats.stores.inc();
        self.cores[c].retire(self.cfg.core.issue_width);
    }

    // ------------------------------------------------------------------
    // Flush / fence (SP write-order control)
    // ------------------------------------------------------------------

    pub(super) fn do_flush(&mut self, c: usize, addr: Addr) {
        let line = addr.line();
        let dirty = self.hier.flush_line(c, line);
        if dirty {
            let words = self.arch_image.read_line(line);
            self.cores[c].pending_flushes += 1;
            let origin = Origin::Writeback {
                line,
                words,
                flusher: Some(c),
            };
            self.post_write(line, WriteCause::Flush, origin);
        }
        self.cores[c].retire(self.cfg.core.issue_width);
    }

    /// An `sfence`, or with a durable-count target a `pcommit`.
    pub(super) fn do_fence(&mut self, c: usize, pcommit: Option<u64>) {
        self.cores[c].retire(self.cfg.core.issue_width);
        self.cores[c].pcommit = pcommit;
        self.cores[c].begin_stall(StallKind::Fence);
        self.try_finish_fence(c);
    }

    pub(super) fn try_finish_fence(&mut self, c: usize) {
        let now = self.clock.max(self.cores[c].time);
        // Store buffer must drain.
        if let Some(&back) = self.cores[c].sb_times.back() {
            if back > now {
                self.push_event(back, Event::CoreStep(c));
                return;
            }
        }
        self.cores[c].time = now;
        self.cores[c].drain_sb();
        if self.cores[c].pending_flushes > 0 {
            // A flush-ack completion re-runs this check.
            return;
        }
        if let Some(target) = self.cores[c].pcommit {
            // pcommit: every write the NVM controller had accepted — from
            // any core — must be durable before execution continues.
            if self.nvm.writes_durable() < target {
                // Any NVM completion re-runs this check.
                return;
            }
            self.cores[c].pcommit = None;
        }
        self.cores[c].end_stall(now);
        self.push_event(now, Event::CoreStep(c));
    }

    // ------------------------------------------------------------------
    // Eviction routing and write-backs
    // ------------------------------------------------------------------

    fn route_evictions(&mut self, evictions: Vec<Eviction>) {
        for ev in evictions {
            if !ev.dirty {
                continue;
            }
            let Some(words) = self.evicted_words(ev.line) else {
                continue;
            };
            let origin = Origin::Writeback {
                line: ev.line,
                words,
                flusher: None,
            };
            self.post_write(ev.line, WriteCause::Eviction, origin);
        }
    }

    pub(super) fn post_write(&mut self, line: LineAddr, cause: WriteCause, origin: Origin) {
        let req = |id| MemReq::write(id, line, None, cause);
        self.issue_write(origin, self.clock, req);
        self.poke_ctrl(line.region());
    }

    /// Registers `origin` under a fresh request id and enqueues the write
    /// `req` builds at cycle `at`, or parks it in `wb_pending` while the
    /// queue is full. The caller then wakes the controller (`poke_ctrl`).
    pub(crate) fn issue_write(
        &mut self,
        origin: Origin,
        at: Cycle,
        req: impl FnOnce(ReqId) -> MemReq,
    ) {
        let id = self.req_id();
        self.origins.insert(id, origin);
        let req = req(id);
        if self.ctrl(req.addr.region()).enqueue(req, at).is_err() {
            self.wb_pending.push(req);
        }
    }

    /// Schedules `region`'s controller to run at its next wake-up.
    pub(crate) fn poke_ctrl(&mut self, region: MemRegion) {
        let wake = self.ctrl(region).next_wake().unwrap_or(self.clock);
        self.schedule_wake(Event::MemPoke(region), wake.max(self.clock));
    }

    /// Offers every parked write-back to its controller once, in order;
    /// those still refused stay parked, in the same order.
    fn drain_wb_pending(&mut self) {
        for _ in 0..self.wb_pending.len() {
            let Some(req) = self.wb_pending.pop() else {
                break;
            };
            let now = self.clock;
            if self.ctrl(req.addr.region()).enqueue(req, now).is_err() {
                self.wb_pending.push(req);
            }
        }
    }

    // ------------------------------------------------------------------
    // Memory completions
    // ------------------------------------------------------------------

    pub(super) fn handle_mem_poke(&mut self, region: MemRegion) {
        let now = self.clock;
        let completions: Vec<Completion> = self.ctrl(region).advance(now);
        let had_completions = !completions.is_empty();
        for comp in completions {
            self.handle_completion(region, comp);
        }
        self.drain_wb_pending();
        if region == MemRegion::Nvm && had_completions {
            // pcommit waiters poll the controller's write backlog.
            for c in 0..self.cores.len() {
                if self.cores[c].blocked == Some(StallKind::Fence)
                    && self.cores[c].pcommit.is_some()
                {
                    self.try_finish_fence(c);
                }
            }
        }
        if let Some(wake) = self.ctrl(region).next_wake() {
            self.schedule_wake(Event::MemPoke(region), wake.max(self.clock + 1));
        }
    }

    fn handle_completion(&mut self, region: MemRegion, comp: Completion) {
        let Some(origin) = self.origins.remove(&comp.req.id) else {
            return;
        };
        match origin {
            // Wake every core merged on the fill, the primary included;
            // each records latency from its own issue point.
            Origin::LoadFill => {
                let waiters = self.mshr.complete(comp.req.addr);
                for w in waiters.expect("a fill's MSHR entry lives until it completes") {
                    let Some((line, _, started)) = self.cores[w].pending_load else {
                        continue;
                    };
                    let lat = comp.done_at.saturating_sub(started).max(1);
                    self.record_load_latency(w, lat, line.is_persistent());
                    let c = &mut self.cores[w];
                    if c.blocked == Some(StallKind::Load) {
                        c.end_stall(comp.done_at);
                    }
                    c.pending_load = None;
                    c.load_inflight = false;
                    c.time = c.time.max(comp.done_at);
                    c.idx += 1;
                    let at = c.time;
                    self.push_event(at, Event::CoreStep(w));
                }
            }
            // A DRAM write-back just retires: DRAM contents are not
            // modeled.
            Origin::Writeback {
                line,
                words,
                flusher,
            } => {
                if region == MemRegion::Nvm {
                    self.record_boundary(BoundaryClass::DrainAck);
                    self.nvm_backing.write_line(line, &words);
                }
                if let Some(core) = flusher {
                    self.cores[core].pending_flushes -= 1;
                    if self.cores[core].blocked == Some(StallKind::Fence) {
                        self.cores[core].time = self.cores[core].time.max(comp.done_at);
                        self.try_finish_fence(core);
                    }
                }
            }
            Origin::Tc(write) => {
                // A completion that made an overflowed `TX_END` durable
                // retires it and wakes its core.
                if let Some(c) = self.on_tc(|tc, sys| tc.write_done(sys, write, comp.done_at)) {
                    self.finish_txend(c);
                    self.push_event(self.cores[c].time, Event::CoreStep(c));
                }
            }
        }
    }
}
