//! End-of-run reports: everything the paper's figures are computed from.

use core::fmt;

use pmacc_cache::HierarchyStats;
use pmacc_cpu::{CoreStats, StallKind};
use pmacc_mem::MemStats;
use pmacc_telemetry::{Json, Log2Histogram, SeriesReport, ToJson};
use pmacc_types::{Cycle, SchemeKind, WriteCause};

use crate::system::EngineStats;
use crate::txcache::TcStats;

/// The measured outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheme that produced the run.
    pub scheme: SchemeKind,
    /// Wall-clock cycles (the slowest core's finish time).
    pub cycles: Cycle,
    /// Per-core execution statistics (`cycles` filled in per core).
    pub cores: Vec<CoreStats>,
    /// Cache-hierarchy statistics.
    pub hierarchy: HierarchyStats,
    /// NVM channel statistics (Figure 9 source).
    pub nvm: MemStats,
    /// DRAM channel statistics.
    pub dram: MemStats,
    /// Per-core transaction-cache statistics.
    pub tc: Vec<TcStats>,
    /// Dirty persistent LLC evictions dropped by the TC scheme (§3).
    pub dropped_llc_writes: u64,
    /// Dirty persistent lines still cached at the end of the run that the
    /// NVM is owed (zero under the TC scheme, which drops them).
    pub residual_nvm_lines: u64,
    /// Cycle-sampled time series (TC occupancy, queue depths, store-
    /// buffer fill, stall fractions); empty when sampling is disabled
    /// via [`crate::RunConfig::sample_period`].
    pub series: SeriesReport,
    /// Event-engine effort counters (whole-run, not reset at warm-up):
    /// simulator-performance diagnostics, not simulated behavior.
    pub engine: EngineStats,
}

impl RunReport {
    /// Aggregate instructions per cycle: total ops over wall cycles
    /// (Figure 6 numerator; the figures normalize to Optimal).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let ops: u64 = self.cores.iter().map(|c| c.ops.value()).sum();
        ops as f64 / self.cycles as f64
    }

    /// Aggregate transaction throughput (transactions per cycle,
    /// Figure 7 numerator).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.total_committed() as f64 / self.cycles as f64
    }

    /// Committed transactions across all cores.
    #[must_use]
    pub fn total_committed(&self) -> u64 {
        self.cores.iter().map(|c| c.tx_committed.value()).sum()
    }

    /// Shared-LLC miss rate (Figure 8).
    #[must_use]
    pub fn llc_miss_rate(&self) -> f64 {
        self.hierarchy.llc.miss_rate()
    }

    /// Total NVM write traffic (Figure 9): completed device writes plus
    /// the dirty persistent lines still owed at the cut-off (so short
    /// runs do not flatter schemes that merely postpone write-backs).
    #[must_use]
    pub fn nvm_write_traffic(&self) -> u64 {
        self.nvm.writes() + self.residual_nvm_lines
    }

    /// Writes that actually reached the NVM device during the run.
    #[must_use]
    pub fn nvm_completed_writes(&self) -> u64 {
        self.nvm.writes()
    }

    /// NVM writes with one cause (Figure 9 breakdown).
    #[must_use]
    pub fn nvm_writes_by(&self, cause: WriteCause) -> u64 {
        self.nvm.writes_with_cause(cause)
    }

    /// Mean latency of loads to the persistent region (Figure 10).
    #[must_use]
    pub fn persistent_load_latency(&self) -> f64 {
        let mut h = Log2Histogram::new();
        for c in &self.cores {
            h.merge(&c.persistent_load_latency);
        }
        h.mean()
    }

    /// Fraction of core cycles lost to `kind`, averaged over cores
    /// (the §5.2 transaction-cache stall claim uses
    /// [`StallKind::TxCacheFull`]).
    #[must_use]
    pub fn stall_fraction(&self, kind: StallKind) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores
            .iter()
            .map(|c| c.stall_fraction(kind))
            .sum::<f64>()
            / self.cores.len() as f64
    }

    /// Total transaction-cache overflow (COW fall-back) events.
    #[must_use]
    pub fn tc_overflows(&self) -> u64 {
        self.tc.iter().map(|t| t.overflows.value()).sum()
    }
}

impl ToJson for TcStats {
    /// The CAM/FIFO event counters.
    fn to_json(&self) -> Json {
        Json::obj([
            ("inserts", self.inserts.to_json()),
            ("coalesced", self.coalesced.to_json()),
            ("commits", self.commits.to_json()),
            ("acks", self.acks.to_json()),
            ("probe_hits", self.probe_hits.to_json()),
            ("probe_misses", self.probe_misses.to_json()),
            ("full_rejections", self.full_rejections.to_json()),
            ("overflows", self.overflows.to_json()),
            ("remote_invalidations", self.remote_invalidations.to_json()),
            ("high_water", self.high_water.to_json()),
        ])
    }
}

impl ToJson for RunReport {
    /// The full structured report: headline derived metrics first, then
    /// every component's statistics, then the sampled time series. This
    /// is the per-cell payload of `reproduce --json`.
    fn to_json(&self) -> Json {
        let stall_fractions = Json::Obj(
            StallKind::all()
                .iter()
                .map(|k| (k.to_string(), self.stall_fraction(*k).to_json()))
                .collect(),
        );
        Json::obj([
            ("scheme", self.scheme.to_string().to_json()),
            ("cycles", self.cycles.to_json()),
            ("ipc", self.ipc().to_json()),
            ("throughput", self.throughput().to_json()),
            ("tx_committed", self.total_committed().to_json()),
            ("llc_miss_rate", self.llc_miss_rate().to_json()),
            ("nvm_write_traffic", self.nvm_write_traffic().to_json()),
            (
                "nvm_completed_writes",
                self.nvm_completed_writes().to_json(),
            ),
            ("residual_nvm_lines", self.residual_nvm_lines.to_json()),
            ("dropped_llc_writes", self.dropped_llc_writes.to_json()),
            ("tc_overflows", self.tc_overflows().to_json()),
            (
                "persistent_load_latency_mean",
                self.persistent_load_latency().to_json(),
            ),
            ("stall_fractions", stall_fractions),
            ("cores", self.cores.to_json()),
            ("hierarchy", self.hierarchy.to_json()),
            ("nvm", self.nvm.to_json()),
            ("dram", self.dram.to_json()),
            ("tc", self.tc.to_json()),
            ("series", self.series.to_json()),
            ("engine", self.engine.to_json()),
        ])
    }
}

impl ToJson for EngineStats {
    /// The skip-ahead event-engine effort counters.
    fn to_json(&self) -> Json {
        Json::obj([
            ("events_processed", self.events_processed.to_json()),
            ("wakes_scheduled", self.wakes_scheduled.to_json()),
            ("wakes_coalesced", self.wakes_coalesced.to_json()),
            ("idle_cycles_skipped", self.idle_cycles_skipped.to_json()),
        ])
    }
}

impl fmt::Display for RunReport {
    /// A multi-line human-readable summary of the run.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} run: {} cycles, {} committed tx",
            self.scheme,
            self.cycles,
            self.total_committed()
        )?;
        writeln!(
            f,
            "  IPC {:.4}, {:.6} tx/cycle, LLC miss {:.2}%",
            self.ipc(),
            self.throughput(),
            self.llc_miss_rate() * 100.0
        )?;
        writeln!(
            f,
            "  NVM writes {} (+{} owed), persistent load {:.1} cycles",
            self.nvm.writes(),
            self.residual_nvm_lines,
            self.persistent_load_latency()
        )?;
        write!(
            f,
            "  dropped LLC write-backs {}, TC overflows {}",
            self.dropped_llc_writes,
            self.tc_overflows()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> RunReport {
        RunReport {
            scheme: SchemeKind::Optimal,
            cycles: 0,
            cores: Vec::new(),
            hierarchy: HierarchyStats::new(0),
            nvm: MemStats::new(),
            dram: MemStats::new(),
            tc: Vec::new(),
            dropped_llc_writes: 0,
            residual_nvm_lines: 0,
            series: SeriesReport::empty(),
            engine: EngineStats::default(),
        }
    }

    #[test]
    fn zero_cycles_is_safe() {
        let r = empty_report();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.stall_fraction(StallKind::Fence), 0.0);
        assert_eq!(r.persistent_load_latency(), 0.0);
    }

    #[test]
    fn display_summarizes() {
        let mut r = empty_report();
        r.cycles = 10;
        let s = r.to_string();
        assert!(s.contains("optimal run: 10 cycles"));
        assert!(s.contains("IPC"));
        assert!(s.contains("NVM writes"));
    }

    #[test]
    fn json_report_carries_headlines_and_components() {
        let mut r = empty_report();
        r.cycles = 100;
        let mut a = CoreStats::new();
        a.ops.add(50);
        a.cycles = 100;
        r.cores = vec![a];
        let j = r.to_json();
        assert_eq!(j.get("scheme").and_then(Json::as_str), Some("optimal"));
        assert_eq!(j.get("cycles"), Some(&Json::Int(100)));
        assert!((j.get("ipc").and_then(Json::as_f64).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(
            j.get("cores").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(j
            .get("stall_fractions")
            .and_then(|s| s.get("txcache-full"))
            .is_some());
        assert!(j
            .get("nvm")
            .and_then(|n| n.get("writes_by_cause"))
            .is_some());
        assert!(j.get("series").and_then(|s| s.get("samples")).is_some());
        // The document survives a serialize/parse round trip.
        let parsed = Json::parse(&j.to_pretty()).expect("valid JSON");
        assert_eq!(parsed, j);
    }

    #[test]
    fn aggregates_sum_cores() {
        let mut r = empty_report();
        r.cycles = 100;
        let mut a = CoreStats::new();
        a.ops.add(100);
        a.tx_committed.add(2);
        a.cycles = 100;
        let mut b = CoreStats::new();
        b.ops.add(300);
        b.tx_committed.add(4);
        b.cycles = 100;
        r.cores = vec![a, b];
        assert!((r.ipc() - 4.0).abs() < 1e-12);
        assert_eq!(r.total_committed(), 6);
        assert!((r.throughput() - 0.06).abs() < 1e-12);
    }
}
