//! Per-core execution statistics.

use core::fmt;

use pmacc_telemetry::{Json, ToJson};
use pmacc_types::{Counter, Cycle, Histogram};

/// Why a core was unable to issue in a given cycle. The breakdown
/// distinguishes the stall sources the paper discusses: SP's fences, the
/// TC's full-buffer stalls (§5.2 reports only `sps` stalling, 0.67% of
/// time) and NVLLC's blocking commit flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Waiting for an outstanding load (window full or trace-serialized).
    Load,
    /// Store buffer full.
    StoreBufferFull,
    /// `sfence` waiting for drains and flush acknowledgements.
    Fence,
    /// Transaction cache full (TC scheme).
    TxCacheFull,
    /// Blocking commit flush in progress (NVLLC scheme).
    CommitFlush,
    /// LLC fill blocked by a fully pinned set (NVLLC scheme).
    PinBlocked,
    /// Transactional persistent store serialized behind a remote core's
    /// active transaction that already wrote the same line.
    Conflict,
}

impl StallKind {
    /// The number of stall kinds.
    pub const COUNT: usize = 7;

    /// All stall kinds, in display order (which is discriminant order).
    #[must_use]
    pub fn all() -> [StallKind; StallKind::COUNT] {
        [
            StallKind::Load,
            StallKind::StoreBufferFull,
            StallKind::Fence,
            StallKind::TxCacheFull,
            StallKind::CommitFlush,
            StallKind::PinBlocked,
            StallKind::Conflict,
        ]
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallKind::Load => "load",
            StallKind::StoreBufferFull => "store-buffer-full",
            StallKind::Fence => "fence",
            StallKind::TxCacheFull => "txcache-full",
            StallKind::CommitFlush => "commit-flush",
            StallKind::PinBlocked => "pin-blocked",
            StallKind::Conflict => "conflict",
        };
        f.write_str(s)
    }
}

/// Counters for one core's execution.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Ops executed (the IPC numerator; includes instrumentation ops so SP
    /// pays for its log instructions, as in Figure 2).
    pub ops: Counter,
    /// Transactions committed (the throughput numerator of Figure 7).
    pub tx_committed: Counter,
    /// Demand loads executed.
    pub loads: Counter,
    /// Stores executed (data + log).
    pub stores: Counter,
    /// Latency of every demand load, in cycles.
    pub load_latency: Histogram,
    /// Latency of loads to the persistent (NVM) region — Figure 10.
    pub persistent_load_latency: Histogram,
    /// Transactional stores that found a remote core's active transaction
    /// holding the same line (each begins a conflict-serialization stall).
    pub tx_conflicts: Counter,
    /// Conflict stalls broken by the deadlock-avoidance rule (the lowest-
    /// index mutually blocked core proceeds).
    pub conflict_overrides: Counter,
    /// Cycles lost to each stall source.
    stall_cycles: [Cycle; StallKind::COUNT],
    /// Total cycles the core was executing (set once at the end of a run).
    pub cycles: Cycle,
}

impl CoreStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        CoreStats::default()
    }

    /// Adds `n` cycles of stall of the given kind.
    pub fn add_stall(&mut self, kind: StallKind, n: Cycle) {
        self.stall_cycles[kind as usize] += n;
    }

    /// Cycles lost to `kind`.
    #[must_use]
    pub fn stall(&self, kind: StallKind) -> Cycle {
        self.stall_cycles[kind as usize]
    }

    /// Cycles lost to each stall kind, in [`StallKind::all`] order.
    #[must_use]
    pub fn stalls(&self) -> [Cycle; StallKind::COUNT] {
        self.stall_cycles
    }

    /// Total stall cycles across all kinds.
    #[must_use]
    pub fn total_stalls(&self) -> Cycle {
        self.stall_cycles.iter().sum()
    }

    /// Instructions per cycle, or 0 when no cycles elapsed.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops.value() as f64 / self.cycles as f64
        }
    }

    /// Committed transactions per cycle, or 0 when no cycles elapsed.
    #[must_use]
    pub fn tx_throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.tx_committed.value() as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles lost to `kind`, or 0 when no cycles elapsed.
    #[must_use]
    pub fn stall_fraction(&self, kind: StallKind) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall(kind) as f64 / self.cycles as f64
        }
    }
}

impl ToJson for CoreStats {
    /// Raw counters plus the derived rates; stall cycles and fractions
    /// are keyed by [`StallKind`] display name.
    fn to_json(&self) -> Json {
        let stalls = Json::Obj(
            StallKind::all()
                .iter()
                .map(|k| (k.to_string(), self.stall(*k).to_json()))
                .collect(),
        );
        let stall_fractions = Json::Obj(
            StallKind::all()
                .iter()
                .map(|k| (k.to_string(), self.stall_fraction(*k).to_json()))
                .collect(),
        );
        Json::obj([
            ("cycles", self.cycles.to_json()),
            ("ops", self.ops.to_json()),
            ("tx_committed", self.tx_committed.to_json()),
            ("loads", self.loads.to_json()),
            ("stores", self.stores.to_json()),
            ("ipc", self.ipc().to_json()),
            ("tx_throughput", self.tx_throughput().to_json()),
            ("load_latency", self.load_latency.to_json()),
            (
                "persistent_load_latency",
                self.persistent_load_latency.to_json(),
            ),
            ("tx_conflicts", self.tx_conflicts.to_json()),
            ("conflict_overrides", self.conflict_overrides.to_json()),
            ("stall_cycles", stalls),
            ("stall_fractions", stall_fractions),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_accounting() {
        let mut s = CoreStats::new();
        s.add_stall(StallKind::Fence, 10);
        s.add_stall(StallKind::Fence, 5);
        s.add_stall(StallKind::Load, 1);
        assert_eq!(s.stall(StallKind::Fence), 15);
        assert_eq!(s.total_stalls(), 16);
        // `stalls()` is indexed by discriminant and read in `all()` order.
        for (i, kind) in StallKind::all().into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
            assert_eq!(s.stalls()[i], s.stall(kind));
        }
    }

    #[test]
    fn rates() {
        let mut s = CoreStats::new();
        s.ops.add(200);
        s.tx_committed.add(4);
        s.cycles = 100;
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.tx_throughput() - 0.04).abs() < 1e-12);
        s.add_stall(StallKind::TxCacheFull, 25);
        assert!((s.stall_fraction(StallKind::TxCacheFull) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_safe() {
        let s = CoreStats::new();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.tx_throughput(), 0.0);
        assert_eq!(s.stall_fraction(StallKind::Load), 0.0);
    }
}
