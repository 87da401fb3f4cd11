//! Per-level and hierarchy-wide cache statistics.

use pmacc_telemetry::{Json, ToJson};
use pmacc_types::{Counter, Ratio};

/// Counters for one cache instance. Figure 8 of the paper (LLC miss rate)
/// is computed from the LLC instance's [`CacheStats::accesses`].
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Hit/total ratio over all accesses.
    pub accesses: Ratio,
    /// Valid lines displaced by fills.
    pub evictions: Counter,
    /// Evicted lines that were dirty.
    pub dirty_evictions: Counter,
    /// Dirty *persistent* evictions (the lines the TC scheme drops).
    pub persistent_dirty_evictions: Counter,
    /// Fills that found every way of the target set pinned (NVLLC).
    pub pin_blocked: Counter,
    /// Pinned lines forcibly unpinned by the overflow escape hatch.
    pub forced_unpins: Counter,
}

impl CacheStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Miss rate in `[0, 1]`.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        self.accesses.complement()
    }
}

impl ToJson for CacheStats {
    /// Access ratio, derived miss rate and the eviction/pin counters.
    fn to_json(&self) -> Json {
        Json::obj([
            ("accesses", self.accesses.to_json()),
            ("miss_rate", self.miss_rate().to_json()),
            ("evictions", self.evictions.to_json()),
            ("dirty_evictions", self.dirty_evictions.to_json()),
            (
                "persistent_dirty_evictions",
                self.persistent_dirty_evictions.to_json(),
            ),
            ("pin_blocked", self.pin_blocked.to_json()),
            ("forced_unpins", self.forced_unpins.to_json()),
        ])
    }
}

/// Coherence-traffic counters for the snooping bus (all zero while cores
/// touch disjoint lines — the protocol is inert without sharing).
#[derive(Debug, Clone, Default)]
pub struct CoherenceStats {
    /// BusUpgr transactions: write hits on Shared lines that had to
    /// invalidate remote copies before dirtying locally.
    pub bus_upgrades: Counter,
    /// Remote private copies invalidated by BusRdX/BusUpgr snoops
    /// (excludes inclusion back-invalidations, counted separately).
    pub remote_invalidations: Counter,
    /// Snoops that found a remote *Modified* copy and had to source the
    /// data from it (dirty intervention into the shared LLC).
    pub interventions: Counter,
    /// Remote Modified copies downgraded to Shared by a remote read.
    pub downgrades: Counter,
    /// Fills that entered the requester's private caches in Shared state
    /// because another core still held the line.
    pub shared_fills: Counter,
    /// Invalidated remote copies that were dirty *persistent* data — the
    /// cases where a TC/NVLLC entry must outlive its cache copy.
    pub dirty_persistent_invalidations: Counter,
    /// Inner copies invalidated to preserve inclusion when the LLC
    /// replaced a line (not snoop traffic, but bus-visible work).
    pub back_invalidations: Counter,
}

impl CoherenceStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        CoherenceStats::default()
    }
}

impl ToJson for CoherenceStats {
    /// All seven traffic counters.
    fn to_json(&self) -> Json {
        Json::obj([
            ("bus_upgrades", self.bus_upgrades.to_json()),
            ("remote_invalidations", self.remote_invalidations.to_json()),
            ("interventions", self.interventions.to_json()),
            ("downgrades", self.downgrades.to_json()),
            ("shared_fills", self.shared_fills.to_json()),
            (
                "dirty_persistent_invalidations",
                self.dirty_persistent_invalidations.to_json(),
            ),
            ("back_invalidations", self.back_invalidations.to_json()),
        ])
    }
}

/// Statistics of the whole hierarchy.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    /// Per-core L1 statistics.
    pub l1: Vec<CacheStats>,
    /// Per-core L2 statistics.
    pub l2: Vec<CacheStats>,
    /// Shared LLC statistics.
    pub llc: CacheStats,
    /// Snooping-bus coherence traffic.
    pub coherence: CoherenceStats,
}

impl HierarchyStats {
    /// Creates zeroed statistics for `cores` cores.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        HierarchyStats {
            l1: vec![CacheStats::new(); cores],
            l2: vec![CacheStats::new(); cores],
            llc: CacheStats::new(),
            coherence: CoherenceStats::new(),
        }
    }
}

impl ToJson for HierarchyStats {
    /// Per-core L1/L2 arrays plus the shared LLC and coherence traffic.
    fn to_json(&self) -> Json {
        Json::obj([
            ("l1", self.l1.to_json()),
            ("l2", self.l2.to_json()),
            ("llc", self.llc.to_json()),
            ("coherence", self.coherence.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate() {
        let mut s = CacheStats::new();
        s.accesses.record(true);
        s.accesses.record(true);
        s.accesses.record(false);
        assert!((s.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_shape() {
        let h = HierarchyStats::new(4);
        assert_eq!(h.l1.len(), 4);
        assert_eq!(h.l2.len(), 4);
    }
}
