//! Open-system service hooks: request timestamping, admission control
//! and queue-pressure backpressure for [`crate::System`].
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
//! The hooks are engaged with [`crate::System::enable_serve`] and read
//! back with [`crate::System::serve_stats`]; a system without a
//! [`ServeConfig`] behaves exactly as before (closed loop).

use pmacc_cpu::{CoreStats, StallKind};
use pmacc_telemetry::Log2Histogram;
use pmacc_types::Cycle;

/// Cycles a deferred request waits before re-testing admission when the
/// transaction cache or the NVM write queue is saturated (the
/// backpressure polling interval).
pub(crate) const SERVE_RETRY: Cycle = 32;

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
pub(crate) fn stall_snapshot(stats: &CoreStats) -> [u64; 7] {
    let mut out = [0u64; 7];
    for (slot, kind) in out.iter_mut().zip(StallKind::all()) {
        *slot = stats.stall(kind);
    }
    out
}

/// Splits a completed request's stall-cycle deltas into the persist-path
/// share (`tc`) and the memory-queue share (`nvm`).
pub(crate) fn attribute_stalls(start: &[u64; 7], end: &[u64; 7]) -> (u64, u64) {
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
pub(crate) struct ReqTiming {
    pub arrival: Cycle,
    pub admitted: Cycle,
    pub stalls: [u64; 7],
}

/// Service-mode state for one core.
#[derive(Debug)]
pub(crate) struct ServeCore {
    /// Arrival cycle of each request (one per trace transaction).
    pub arrivals: Vec<Cycle>,
    /// Index of each request's `TX_BEGIN` in the *instrumented* trace
    /// (shed requests jump from `starts[k]` to `starts[k + 1]`).
    pub starts: Vec<usize>,
    /// Next request to admit.
    pub next_req: usize,
    /// The admitted, not yet completed request.
    pub cur: Option<ReqTiming>,
    /// Accumulated statistics.
    pub stats: ServeCoreStats,
}

/// Whole-system service-mode state.
#[derive(Debug)]
pub(crate) struct ServeState {
    pub cores: Vec<ServeCore>,
    pub tc_high: f64,
    pub nvm_write_high: f64,
    pub max_wait: Cycle,
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
