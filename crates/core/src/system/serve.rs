//! Open-system service mode: request timestamping, admission control
//! and queue-pressure backpressure for [`System`].
//!
//! The closed-loop simulator replays each core's trace as fast as the
//! machine allows. In service mode every transaction in the trace is one
//! *request* with an externally assigned arrival cycle: a core idles
//! until the next request arrives, defers admission while the scheme's
//! persistence queues are saturated (backpressure), sheds requests whose
//! queueing delay exceeds a deadline (admission control), and records
//! per-request sojourn/wait/service times — plus a stall-cycle
//! attribution split between the transaction-cache drain path and NVM
//! queue pressure — into [`pmacc_telemetry::Log2Histogram`]s.
//!
//! The hooks are engaged with [`System::enable_serve`] and read back with
//! [`System::serve_stats`]; a system without a [`ServeConfig`] behaves
//! exactly as before (closed loop). This file is the only one that reads
//! the service-mode state.

use pmacc_cpu::{CoreStats, StallKind};
use pmacc_telemetry::Log2Histogram;
use pmacc_types::{ConfigError, Cycle, SimError};

use super::System;
use crate::txcache::TxCache;

/// Cycles a deferred request waits before re-testing admission when the
/// transaction cache or the NVM write queue is saturated (the
/// backpressure polling interval).
const SERVE_RETRY: Cycle = 32;

/// Open-system service configuration for one run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-core absolute arrival cycles, one per transaction in that
    /// core's trace, non-decreasing. `arrivals[c][k]` is when request
    /// `k` (the `k`-th transaction of core `c`'s trace) reaches the
    /// server.
    pub arrivals: Vec<Vec<Cycle>>,
    /// Backpressure high watermark on the core's transaction-cache
    /// occupancy, as a fraction of its capacity; new requests are not
    /// admitted at or above it. Values >= 1.0 never trigger on schemes
    /// without a TC (occupancy stays 0).
    pub tc_high: f64,
    /// Backpressure high watermark on the NVM write queue, as a fraction
    /// of its depth.
    pub nvm_write_high: f64,
    /// Admission deadline: a request still waiting for admission this
    /// many cycles after its arrival is shed (its transaction is skipped
    /// and counted in [`ServeCoreStats::shed`]). Zero disables shedding.
    pub max_wait: Cycle,
}

impl ServeConfig {
    /// A configuration with the default watermarks (admit below 75% TC
    /// occupancy and 85% NVM write-queue fill) and no admission deadline.
    #[must_use]
    pub fn new(arrivals: Vec<Vec<Cycle>>) -> Self {
        ServeConfig {
            arrivals,
            tc_high: 0.75,
            nvm_write_high: 0.85,
            max_wait: 0,
        }
    }
}

/// Per-core open-system statistics (all cycle values are absolute
/// durations).
#[derive(Debug, Clone, Default)]
pub struct ServeCoreStats {
    /// Sojourn time per completed request: arrival to `TX_END`
    /// retirement.
    pub latency: Log2Histogram,
    /// Queueing delay per completed request: arrival to admission.
    pub wait: Log2Histogram,
    /// Service time per completed request: admission to `TX_END`
    /// retirement.
    pub service: Log2Histogram,
    /// Per-request stall cycles attributed to the persist path
    /// (transaction-cache full, blocking commit flush, pinned-set
    /// blocking).
    pub tc_stall: Log2Histogram,
    /// Per-request stall cycles attributed to NVM/memory queue pressure
    /// (loads, store-buffer back-ups, fences).
    pub nvm_stall: Log2Histogram,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed by the admission deadline.
    pub shed: u64,
    /// Admission attempts deferred by queue-pressure backpressure.
    pub backpressure_events: u64,
    /// Total cycles requests spent held back by backpressure.
    pub backpressure_cycles: u64,
}

/// Snapshot of a core's per-kind stall totals, in [`StallKind::all`]
/// order.
fn stall_snapshot(stats: &CoreStats) -> [u64; 7] {
    let mut out = [0u64; 7];
    for (slot, kind) in out.iter_mut().zip(StallKind::all()) {
        *slot = stats.stall(kind);
    }
    out
}

/// Splits a completed request's stall-cycle deltas into the persist-path
/// share (`tc`) and the memory-queue share (`nvm`).
fn attribute_stalls(start: &[u64; 7], end: &[u64; 7]) -> (u64, u64) {
    let mut tc = 0u64;
    let mut nvm = 0u64;
    for (i, kind) in StallKind::all().iter().enumerate() {
        let d = end[i].saturating_sub(start[i]);
        match kind {
            StallKind::TxCacheFull
            | StallKind::CommitFlush
            | StallKind::PinBlocked
            | StallKind::Conflict => tc += d,
            StallKind::Load | StallKind::StoreBufferFull | StallKind::Fence => nvm += d,
        }
    }
    (tc, nvm)
}

/// An admitted request in flight on one core.
#[derive(Debug, Clone, Copy)]
struct ReqTiming {
    arrival: Cycle,
    admitted: Cycle,
    stalls: [u64; 7],
}

/// Service-mode state for one core.
#[derive(Debug, Default)]
struct ServeCore {
    /// Index of each request's `TX_BEGIN` in the *instrumented* trace
    /// (shed requests jump from `starts[k]` to `starts[k + 1]`).
    starts: Vec<usize>,
    /// Next request to admit.
    next_req: usize,
    /// The admitted, not yet completed request.
    cur: Option<ReqTiming>,
    /// Accumulated statistics.
    stats: ServeCoreStats,
}

/// Whole-system service-mode state: the configuration as given (its
/// arrivals are each core's request stream) and each core's progress.
#[derive(Debug)]
pub(super) struct ServeState {
    cfg: ServeConfig,
    cores: Vec<ServeCore>,
}

impl System {
    /// Switches the run into open-system service mode: every transaction
    /// of every core's trace becomes a *request* with the given arrival
    /// cycle. Cores idle until a request arrives, defer admission while
    /// the transaction cache or the NVM write queue is saturated
    /// ([`ServeConfig::tc_high`] / [`ServeConfig::nvm_write_high`]), shed
    /// requests whose queueing delay exceeds [`ServeConfig::max_wait`],
    /// and record per-request latency into the histograms returned by
    /// [`System::serve_stats`].
    ///
    /// Must be called before the first [`System::run`]/
    /// [`System::run_until`] step; intended for runs with
    /// [`super::RunConfig::warmup_commits`] of zero (a measurement reset
    /// would clear the stall baselines mid-request).
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the arrival vectors do not match
    /// the core count or the per-core transaction counts, or if any
    /// per-core arrival sequence decreases.
    pub fn enable_serve(&mut self, cfg: ServeConfig) -> Result<(), SimError> {
        if cfg.arrivals.len() != self.cfg.cores {
            return Err(ConfigError::new(format!(
                "{} arrival streams supplied for {} cores",
                cfg.arrivals.len(),
                self.cfg.cores
            ))
            .into());
        }
        let mut cores = Vec::with_capacity(self.cfg.cores);
        for (c, arrivals) in cfg.arrivals.iter().enumerate() {
            let starts = pmacc_workloads::operation_starts(self.traces[c].stored());
            if arrivals.len() != starts.len() {
                return Err(ConfigError::new(format!(
                    "core {c}: {} arrivals for {} trace transactions",
                    arrivals.len(),
                    starts.len()
                ))
                .into());
            }
            if arrivals.windows(2).any(|w| w[0] > w[1]) {
                return Err(
                    ConfigError::new(format!("core {c}: arrivals must be non-decreasing")).into(),
                );
            }
            cores.push(ServeCore {
                starts,
                ..ServeCore::default()
            });
        }
        self.serve = Some(ServeState { cfg, cores });
        Ok(())
    }

    /// The per-core open-system statistics, if the run is in service
    /// mode.
    #[must_use]
    pub fn serve_stats(&self) -> Option<Vec<&ServeCoreStats>> {
        self.serve
            .as_ref()
            .map(|s| s.cores.iter().map(|c| &c.stats).collect())
    }

    /// Whether core `c`'s admission gate sees queue saturation: the
    /// core's transaction cache at or above its high watermark, or the
    /// NVM write queue full / above its fill watermark.
    fn serve_pressure(&self, c: usize) -> bool {
        let Some(s) = self.serve.as_ref() else {
            return false;
        };
        // Without a TC the occupancy stays 0 against the configured size.
        let occupancy = self.scheme.txcaches().get(c).map_or(0, TxCache::occupancy);
        let capacity = self.cfg.txcache.entries() as f64;
        let tc_hot = capacity > 0.0 && occupancy as f64 >= s.cfg.tc_high * capacity;
        let wq = self.cfg.nvm.write_queue as f64;
        let nvm_hot = self.nvm.write_queue_len() as f64 >= s.cfg.nvm_write_high * wq;
        tc_hot || nvm_hot
    }

    /// The open-system admission gate, consulted at each request boundary
    /// (`TX_BEGIN`). Returns `true` when the core must not start the
    /// transaction this step: it idles until the request's arrival,
    /// defers under queue pressure, or sheds the request entirely
    /// (jumping its trace segment and burning its transaction serial so
    /// later serials stay aligned with the recovery oracle's write
    /// table).
    pub(super) fn serve_gate(&mut self, c: usize) -> bool {
        // Queue pressure depends only on the TC and the NVM queue, which
        // nothing below touches.
        let pressure = self.serve_pressure(c);
        let Some(s) = self.serve.as_mut() else {
            return false;
        };
        let sc = &mut s.cores[c];
        if sc.cur.is_some() {
            return false;
        }
        let Some(&arrival) = s.cfg.arrivals[c].get(sc.next_req) else {
            return false;
        };
        let core = &mut self.cores[c];
        let now = core.time;
        if now < arrival {
            // No request yet: the core idles (batching in
            // `handle_core_step` turns a long idle into an event-queue
            // jump, not a spin).
            core.time = arrival;
            return true;
        }
        if s.cfg.max_wait > 0 && now - arrival > s.cfg.max_wait {
            // Admission control: the request waited past its deadline.
            let next = sc.starts.get(sc.next_req + 1).copied();
            core.idx = next.unwrap_or_else(|| self.traces[c].stored().len());
            core.regs.skip();
            sc.stats.shed += 1;
            sc.next_req += 1;
            return true;
        }
        if pressure {
            // Backpressure: hold the request and retry shortly.
            core.time = now + SERVE_RETRY;
            sc.stats.backpressure_events += 1;
            sc.stats.backpressure_cycles += SERVE_RETRY;
            return true;
        }
        // Admit: timestamp the request and snapshot the stall baselines
        // for completion-time attribution.
        sc.cur = Some(ReqTiming {
            arrival,
            admitted: now,
            stalls: stall_snapshot(&core.stats),
        });
        sc.next_req += 1;
        false
    }

    /// Books a completed request's sojourn/wait/service times and its
    /// stall attribution (no-op outside service mode).
    pub(super) fn serve_complete(&mut self, c: usize) {
        let Some(sc) = self.serve.as_mut().map(|s| &mut s.cores[c]) else {
            return;
        };
        let Some(req) = sc.cur.take() else {
            return;
        };
        let now = self.cores[c].time;
        let end_stalls = stall_snapshot(&self.cores[c].stats);
        let st = &mut sc.stats;
        st.completed += 1;
        st.latency.record(now.saturating_sub(req.arrival));
        st.wait.record(req.admitted.saturating_sub(req.arrival));
        st.service.record(now.saturating_sub(req.admitted));
        let (tc, nvm) = attribute_stalls(&req.stalls, &end_stalls);
        st.tc_stall.record(tc);
        st.nvm_stall.record(nvm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_attribution_splits_by_kind() {
        let start = [10, 0, 5, 0, 0, 0, 0];
        let end = [30, 4, 5, 100, 2, 1, 8];
        let (tc, nvm) = attribute_stalls(&start, &end);
        assert_eq!(tc, 100 + 2 + 1 + 8);
        assert_eq!(nvm, 20 + 4);
    }
}
