//! The three-level inclusive hierarchy: private L1/L2 per core, shared LLC.

use core::fmt;
use std::error::Error;

use pmacc_types::{CacheConfig, LineAddr, TxId};

use crate::array::CacheArray;
use crate::coherence::{core_bit, Snoop};
use crate::line::{CacheLine, LineState};
use crate::stats::HierarchyStats;

/// A cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Private first-level cache.
    L1,
    /// Private second-level cache.
    L2,
    /// Shared last-level cache.
    Llc,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::L1 => f.write_str("L1"),
            Level::L2 => f.write_str("L2"),
            Level::Llc => f.write_str("LLC"),
        }
    }
}

/// Scheme-level knobs that change hierarchy behaviour without changing the
/// cache operation itself (the paper's point is that these are the *only*
/// hooks the baselines need; the TC design needs none of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyOpts {
    /// Pin dirty persistent lines carrying an (uncommitted) transaction tag
    /// when they reach the LLC, and refuse to evict them — the NVLLC/Kiln
    /// baseline's in-LLC multi-versioning.
    pub pin_uncommitted_in_llc: bool,
}

impl HierarchyOpts {
    /// Whether a dirty copy of `line` tagged `tx` pins when it reaches the
    /// LLC: an uncommitted transactional persistent line under NVLLC.
    pub(crate) fn pins(self, line: LineAddr, tx: Option<TxId>) -> bool {
        self.pin_uncommitted_in_llc && line.is_persistent() && tx.is_some()
    }
}

/// One access presented to the hierarchy. Persistence is derived from the
/// address (NVM-region lines are persistent), mirroring the CPU-issued P/V
/// flag of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Line to access.
    pub line: LineAddr,
    /// Whether this is a store.
    pub write: bool,
    /// Transaction tag carried by transactional persistent stores.
    pub tx: Option<TxId>,
}

impl Access {
    /// A demand load.
    #[must_use]
    pub fn load(line: LineAddr) -> Self {
        Access {
            line,
            write: false,
            tx: None,
        }
    }

    /// A store.
    #[must_use]
    pub fn store(line: LineAddr) -> Self {
        Access {
            line,
            write: true,
            tx: None,
        }
    }

    /// Tags the access with a transaction.
    #[must_use]
    pub fn with_tx(mut self, tx: TxId) -> Self {
        self.tx = Some(tx);
        self
    }
}

/// A line leaving the hierarchy through LLC replacement. The system layer
/// routes it: write-back to memory (Optimal/SP), or *drop* when persistent
/// (the TC scheme's §3 "dropped writes"); the line's address says which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether it carried modified data.
    pub dirty: bool,
    /// Transaction tag, if it was dirtied transactionally.
    pub tx: Option<TxId>,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Innermost level that hit, or `None` for a full miss (the fill comes
    /// from memory or — under the TC scheme — from the transaction cache).
    pub hit: Option<Level>,
    /// Lines pushed out of the LLC by this access.
    pub evictions: Vec<Eviction>,
    /// `(core, line)` pairs whose private copies were invalidated by this
    /// access's coherence snoop (BusRdX/BusUpgr). Empty unless another
    /// core held the accessed line; inclusion back-invalidations are *not*
    /// listed here. The system layer uses this to credit transaction-cache
    /// entries that outlive their cache copies.
    pub invalidated: Vec<(usize, LineAddr)>,
}

/// The access could not fill the LLC because every way of the target set
/// is pinned (only possible with [`HierarchyOpts::pin_uncommitted_in_llc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinBlockedError {
    /// The line whose fill was blocked.
    pub line: LineAddr,
}

impl fmt::Display for PinBlockedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LLC set of {} is fully pinned", self.line)
    }
}

impl Error for PinBlockedError {}

/// The paper's cache hierarchy: per-core private L1/L2 and one shared,
/// inclusive, write-back LLC.
#[derive(Debug)]
pub struct Hierarchy {
    pub(crate) l1: Vec<CacheArray>,
    pub(crate) l2: Vec<CacheArray>,
    pub(crate) llc: CacheArray,
    pub(crate) opts: HierarchyOpts,
    /// Statistics, public for the system layer's reports.
    pub stats: HierarchyStats,
}

impl Hierarchy {
    /// Builds the hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics on invalid cache configurations (validate them first).
    #[must_use]
    pub fn new(
        cores: usize,
        l1: CacheConfig,
        l2: CacheConfig,
        llc: CacheConfig,
        opts: HierarchyOpts,
    ) -> Self {
        assert!(
            cores <= 64,
            "the LLC directory bitmap tracks at most 64 cores"
        );
        Hierarchy {
            l1: (0..cores).map(|_| CacheArray::new(&l1)).collect(),
            l2: (0..cores).map(|_| CacheArray::new(&l2)).collect(),
            llc: CacheArray::new(&llc),
            opts,
            stats: HierarchyStats::new(cores),
        }
    }

    /// Number of cores the hierarchy serves.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Performs one access for `core`, updating all levels (write-allocate,
    /// write-back, inclusive fills).
    ///
    /// # Errors
    ///
    /// Returns [`PinBlockedError`] when the fill cannot proceed because the
    /// LLC target set is entirely pinned; the caller should stall and retry
    /// (or use [`Hierarchy::force_unpin_for`] as an overflow escape hatch).
    pub fn access(&mut self, core: usize, acc: Access) -> Result<AccessOutcome, PinBlockedError> {
        let line = acc.line;
        let mut evictions = Vec::new();
        let mut invalidated = Vec::new();
        // The LLC-side directory bitmap of the accessed line names the
        // cores that hold private copies. Inclusion means "no LLC line"
        // implies "no private copies anywhere", i.e. an empty snoop.
        let snoop = Snoop {
            requester: core,
            line,
            sharers: self.llc.peek(line).map_or(0, |l| l.sharers),
        };

        // L1.
        if let Some(was_shared) = self.l1[core].lookup(line).map(|l| l.shared) {
            if acc.write {
                if was_shared {
                    // BusUpgr: a write to a Shared line invalidates remote
                    // copies before dirtying locally (S -> M).
                    self.snoop_invalidate(&snoop, true, &mut invalidated);
                    self.l2[core].set_shared(line, false);
                }
                let l = self.l1[core].merge(line, true, acc.tx, false);
                l.expect("L1 hit just observed").shared = false;
                self.pin_uncommitted_store(acc);
            }
            self.stats.l1[core].accesses.record(true);
            return Ok(AccessOutcome {
                hit: Some(Level::L1),
                evictions,
                invalidated,
            });
        }
        self.stats.l1[core].accesses.record(false);

        // L2.
        let l2_shared = self.l2[core].lookup(line).map(|l| l.shared);
        self.stats.l2[core].accesses.record(l2_shared.is_some());
        let mut hit = l2_shared.map(|_| Level::L2);
        // Whether the L1 (and on a miss, L2) fill must be in Shared state.
        let mut fill_shared = l2_shared.unwrap_or(false);
        if hit.is_some() {
            if acc.write && fill_shared {
                // BusUpgr on the L2 copy (the L1 fill below dirties it).
                self.snoop_invalidate(&snoop, true, &mut invalidated);
                self.l2[core].set_shared(line, false);
                fill_shared = false;
            }
        } else {
            // Private miss: the request goes on the bus, snooping the
            // other cores' private caches before the LLC is consulted.
            if acc.write {
                // BusRdX: invalidate all remote copies, intervening dirty
                // data into the LLC; fill will be Modified/Exclusive.
                self.snoop_invalidate(&snoop, false, &mut invalidated);
            } else {
                // BusRd: downgrade a remote Modified copy, mark survivors
                // shared; remote copies force a Shared fill here.
                fill_shared = self.snoop_read(&snoop);
                if fill_shared {
                    self.stats.coherence.shared_fills.inc();
                }
            }
            // LLC (accessed only on an L2 miss).
            let llc_hit = self.llc.lookup(line).is_some();
            self.stats.llc.accesses.record(llc_hit);
            if llc_hit {
                hit = Some(Level::Llc);
            } else {
                // Fill the LLC from memory (or the transaction cache).
                if self.llc.insert_blocked(line) {
                    self.stats.llc.pin_blocked.inc();
                    return Err(PinBlockedError { line });
                }
                if let Some((eaddr, eline)) = self.llc.insert(line, LineState::Clean, None, false) {
                    evictions.push(self.back_invalidate(eaddr, eline));
                }
            }
            // Fill L2. The core now holds a private copy: set its
            // directory bit in the LLC line (present — just hit or filled).
            let evicted = self.l2[core].insert(line, LineState::Clean, None, false);
            if fill_shared {
                self.l2[core].set_shared(line, true);
            }
            let l = self
                .llc
                .peek_mut(line)
                .expect("LLC holds the line (inclusion)");
            l.sharers |= core_bit(core);
            if let Some((eaddr, eline)) = evicted {
                self.stats.l2[core].evictions.inc();
                self.absorb_l2_victim(core, eaddr, eline);
            }
        }

        // Fill L1 (and apply the store).
        let (state, tx) = if acc.write {
            (LineState::Dirty, acc.tx)
        } else {
            (LineState::Clean, None)
        };
        let evicted = self.l1[core].insert(line, state, tx, false);
        if fill_shared {
            self.l1[core].set_shared(line, true);
        }
        self.pin_uncommitted_store(acc);
        if let Some((eaddr, eline)) = evicted {
            self.stats.l1[core].evictions.inc();
            if eline.state.is_dirty() {
                self.stats.l1[core].dirty_evictions.inc();
                // Inclusion: the victim is present in L2; merge dirtiness.
                let merged = self.l2[core].merge(eaddr, true, eline.tx, false);
                debug_assert!(merged.is_some(), "L1 victim must be in L2");
            }
        }
        Ok(AccessOutcome {
            hit,
            evictions,
            invalidated,
        })
    }

    /// Pins the LLC copy of a line an uncommitted transaction's store just
    /// dirtied in the private caches: by inclusion, evicting the LLC copy
    /// would take the private copy with it (Kiln's no-evict invariant).
    fn pin_uncommitted_store(&mut self, acc: Access) {
        if acc.write && self.opts.pins(acc.line, acc.tx) {
            let l = self.llc.peek_mut(acc.line);
            l.expect("LLC holds the line (inclusion)").pinned = true;
        }
    }

    /// Merges an evicted L2 line into the LLC (present by inclusion),
    /// pinning it if the NVLLC option is on and it is uncommitted
    /// transactional data.
    fn absorb_l2_victim(&mut self, core: usize, eaddr: LineAddr, eline: CacheLine) {
        // Back-invalidate the L1 copy to preserve inclusion, merging its
        // dirtiness and transaction tag. The core no longer holds a
        // private copy: clear its directory bit (before the clean-victim
        // early return — the bit must drop either way).
        let l1_old = self.l1[core].invalidate(eaddr);
        if let Some(l) = self.llc.peek_mut(eaddr) {
            l.sharers &= !core_bit(core);
        }
        let dirty = eline.state.is_dirty() || l1_old.is_some_and(|l| l.state.is_dirty());
        let tx = l1_old.and_then(|l| l.tx).or(eline.tx);
        if !dirty {
            return;
        }
        self.stats.l2[core].dirty_evictions.inc();
        if eaddr.is_persistent() {
            self.stats.l2[core].persistent_dirty_evictions.inc();
        }
        let merged = self.llc.merge(eaddr, true, tx, self.opts.pins(eaddr, tx));
        debug_assert!(merged.is_some(), "L2 victim must be in LLC");
    }

    /// Back-invalidates every inner copy of an LLC victim and produces the
    /// outgoing [`Eviction`] with merged dirtiness. The victim carries its
    /// own directory bitmap, so only the cores that actually hold copies
    /// are walked.
    fn back_invalidate(&mut self, eaddr: LineAddr, eline: CacheLine) -> Eviction {
        let mut dirty = eline.state.is_dirty();
        let mut tx = eline.tx;
        let mut sharers = eline.sharers;
        while sharers != 0 {
            let core = sharers.trailing_zeros() as usize;
            sharers &= sharers - 1;
            for arr in [&mut self.l1[core], &mut self.l2[core]] {
                if let Some(old) = arr.invalidate(eaddr) {
                    dirty |= old.state.is_dirty();
                    tx = old.tx.or(tx);
                    self.stats.coherence.back_invalidations.inc();
                }
            }
        }
        self.stats.llc.evictions.inc();
        if dirty {
            self.stats.llc.dirty_evictions.inc();
            if eaddr.is_persistent() {
                self.stats.llc.persistent_dirty_evictions.inc();
            }
        }
        Eviction {
            line: eaddr,
            dirty,
            tx,
        }
    }

    /// Cleans every cached copy of `line` (a `clwb`), returning whether any
    /// copy was dirty — in which case the caller writes the line back to
    /// memory. The line stays cached, as `clwb` specifies.
    pub fn flush_line(&mut self, core: usize, line: LineAddr) -> bool {
        let mut dirty = false;
        for arr in [&mut self.l1[core], &mut self.l2[core], &mut self.llc] {
            dirty |= arr.clean(line) == Some(true);
        }
        dirty
    }

    /// NVLLC commit flush: pushes a transactional line from L1/L2 down into
    /// the (nonvolatile) LLC, clearing its transaction tag and pin. The
    /// private copies are *invalidated* (flush semantics): the commit
    /// evicts the transaction's lines from the volatile levels, which is
    /// why the paper measures 2.4x persistent-load latency for NVLLC —
    /// post-commit re-reads start at the LLC.
    ///
    /// Returns whether the line was dirty in a private level (i.e. whether
    /// an actual data movement into the LLC occurred, which costs an LLC
    /// write-port slot in the timing model).
    pub fn demote_tx_line(&mut self, core: usize, line: LineAddr) -> bool {
        let mut moved = false;
        for arr in [&mut self.l1[core], &mut self.l2[core]] {
            moved |= arr.invalidate(line).is_some_and(|l| l.state.is_dirty());
        }
        // Inclusion: a dirty private copy had an LLC copy, and nothing has
        // evicted it since.
        let l = self.llc.merge(line, moved, None, false);
        debug_assert!(
            !moved || l.is_some(),
            "dirty private copy of {line} not in the LLC"
        );
        if let Some(l) = l {
            l.sharers &= !core_bit(core);
            l.pinned = false;
            l.tx = None;
        }
        moved
    }

    /// Overflow escape hatch: forcibly unpins the oldest pinned line in the
    /// LLC set that `line` maps to, returning the victim so the caller can
    /// persist it out of band. Counts as a forced unpin.
    pub fn force_unpin_for(&mut self, line: LineAddr) -> Option<LineAddr> {
        let victim = self.llc.force_unpin_in_set_of(line)?;
        self.stats.llc.forced_unpins.inc();
        Some(victim)
    }

    /// The distinct persistent lines that are dirty anywhere in the
    /// hierarchy, sorted — the lines an eADR-style flush-on-failure drain
    /// would push to NVM at power loss, and (counted) the write-backs the
    /// NVM is still *owed* at the end of a run, which makes Figure 9's
    /// traffic comparison independent of where the run was cut off.
    /// `exclude_uncommitted` skips the lines not destined for the NVM until
    /// their transaction commits: private copies with a transaction tag and
    /// pinned (NVLLC) LLC lines.
    #[must_use]
    pub fn dirty_persistent_lines(&self, exclude_uncommitted: bool) -> Vec<LineAddr> {
        let private = (self.l1.iter().chain(&self.l2))
            .flat_map(CacheArray::iter_valid)
            .filter(|(_, l)| !(exclude_uncommitted && l.tx.is_some()));
        let llc = self
            .llc
            .iter_valid()
            .filter(|(_, l)| !(exclude_uncommitted && l.pinned));
        let mut lines: Vec<LineAddr> = private
            .chain(llc)
            .filter(|(addr, l)| l.state.is_dirty() && addr.is_persistent())
            .map(|(addr, _)| addr)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Checks the directory invariant exactly: for every LLC line, bit
    /// `c` of its sharer bitmap is set iff core `c` holds a private (L1
    /// or L2) copy, and no private copy exists without its LLC line
    /// (inclusion). O(all lines); for tests and the property suite.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated line.
    pub fn directory_consistent(&self) -> Result<(), String> {
        let mut actual: std::collections::HashMap<LineAddr, u64> = std::collections::HashMap::new();
        for core in 0..self.l1.len() {
            for arr in [&self.l1[core], &self.l2[core]] {
                for (addr, _) in arr.iter_valid() {
                    *actual.entry(addr).or_insert(0) |= core_bit(core);
                }
            }
        }
        for (addr, bits) in &actual {
            if !self.llc.contains(*addr) {
                return Err(format!(
                    "{addr} cached privately (cores {bits:#b}) but absent from the LLC"
                ));
            }
        }
        for (addr, l) in self.llc.iter_valid() {
            let expected = actual.get(&addr).copied().unwrap_or(0);
            if l.sharers != expected {
                return Err(format!(
                    "{addr}: directory bitmap {:#b} but private copies in {expected:#b}",
                    l.sharers
                ));
            }
        }
        Ok(())
    }

    /// Direct access to the LLC array (tests and recovery inspection).
    #[must_use]
    pub fn llc(&self) -> &CacheArray {
        &self.llc
    }

    /// Direct access to a core's L1 array (tests).
    #[must_use]
    pub fn l1(&self, core: usize) -> &CacheArray {
        &self.l1[core]
    }

    /// Direct access to a core's L2 array (tests).
    #[must_use]
    pub fn l2(&self, core: usize) -> &CacheArray {
        &self.l2[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_types::Addr;

    fn small() -> Hierarchy {
        Hierarchy::new(
            2,
            CacheConfig::new(512, 2, 0.5),       // 4 sets x 2 ways
            CacheConfig::new(2 * 1024, 4, 4.5),  // 8 sets x 4 ways
            CacheConfig::new(8 * 1024, 8, 10.0), // 16 sets x 8 ways
            HierarchyOpts::default(),
        )
    }

    fn nvm_line(i: u64) -> LineAddr {
        LineAddr::new(Addr::nvm_base().line().raw() + i)
    }

    #[test]
    fn miss_then_hits_at_each_level() {
        let mut h = small();
        let line = LineAddr::new(100);
        assert_eq!(h.access(0, Access::load(line)).unwrap().hit, None);
        assert_eq!(
            h.access(0, Access::load(line)).unwrap().hit,
            Some(Level::L1)
        );
        // A different core misses its private levels but hits the LLC.
        assert_eq!(
            h.access(1, Access::load(line)).unwrap().hit,
            Some(Level::Llc)
        );
    }

    #[test]
    fn inclusion_holds_after_fill() {
        let mut h = small();
        let line = LineAddr::new(7);
        h.access(0, Access::store(line)).unwrap();
        assert!(h.l1(0).contains(line));
        assert!(h.l2(0).contains(line));
        assert!(h.llc().contains(line));
    }

    #[test]
    fn store_dirties_only_l1() {
        let mut h = small();
        let line = LineAddr::new(7);
        h.access(0, Access::store(line)).unwrap();
        assert!(h.l1(0).peek(line).unwrap().state.is_dirty());
        assert!(!h.l2(0).peek(line).unwrap().state.is_dirty());
        assert!(!h.llc().peek(line).unwrap().state.is_dirty());
    }

    #[test]
    fn l1_eviction_merges_dirtiness_into_l2() {
        let mut h = small();
        // L1 has 4 sets x 2 ways; lines 0, 4, 8 share set 0.
        h.access(0, Access::store(LineAddr::new(0))).unwrap();
        h.access(0, Access::load(LineAddr::new(4))).unwrap();
        h.access(0, Access::load(LineAddr::new(8))).unwrap(); // evicts line 0 from L1
        assert!(!h.l1(0).contains(LineAddr::new(0)));
        assert!(h.l2(0).peek(LineAddr::new(0)).unwrap().state.is_dirty());
    }

    #[test]
    fn llc_eviction_back_invalidates_and_reports() {
        let mut h = small();
        // LLC: 16 sets x 8 ways. Touch 9 lines in LLC set 0 (stride 16).
        let store0 = Access::store(LineAddr::new(0));
        h.access(0, store0).unwrap();
        let mut evs = Vec::new();
        for i in 1..=8 {
            let out = h.access(0, Access::load(LineAddr::new(16 * i))).unwrap();
            evs.extend(out.evictions);
        }
        assert_eq!(evs.len(), 1, "one LLC eviction expected");
        assert_eq!(evs[0].line, LineAddr::new(0));
        assert!(evs[0].dirty, "dirtiness merged from L1");
        // The line is gone everywhere (inclusion).
        for arr in [h.l1(0), h.l2(0), h.llc()] {
            assert!(!arr.contains(LineAddr::new(0)));
        }
    }

    #[test]
    fn persistent_flag_follows_region() {
        // The P/V flag is the address's region: of two dirty L2 victims
        // (L2 sets repeat every 8 lines), only the NVM one counts as a
        // persistent dirty eviction.
        let mut h = small();
        for base in [nvm_line(0), LineAddr::new(0)] {
            h.access(0, Access::store(base)).unwrap();
            for i in 1..=4 {
                let line = LineAddr::new(base.raw() + 8 * i);
                h.access(0, Access::load(line)).unwrap();
            }
        }
        assert!(nvm_line(0).is_persistent() && !LineAddr::new(0).is_persistent());
        assert_eq!(h.stats.l2[0].dirty_evictions.value(), 2);
        assert_eq!(h.stats.l2[0].persistent_dirty_evictions.value(), 1);
    }

    #[test]
    fn flush_line_cleans_everywhere() {
        let mut h = small();
        let line = nvm_line(1);
        h.access(0, Access::store(line)).unwrap();
        assert!(h.flush_line(0, line));
        assert!(!h.l1(0).peek(line).unwrap().state.is_dirty());
        // Second flush: nothing dirty anymore.
        assert!(!h.flush_line(0, line));
        // Line is still cached (clwb keeps it).
        assert!(h.l1(0).contains(line));
    }

    fn nvllc() -> Hierarchy {
        Hierarchy::new(
            1,
            CacheConfig::new(256, 2, 0.5),   // 2 sets x 2 ways
            CacheConfig::new(512, 2, 4.5),   // 4 sets x 2 ways
            CacheConfig::new(1024, 2, 10.0), // 8 sets x 2 ways
            HierarchyOpts {
                pin_uncommitted_in_llc: true,
            },
        )
    }

    #[test]
    fn uncommitted_lines_pin_in_llc() {
        let mut h = nvllc();
        let tx = TxId::new(0, 1);
        let line = nvm_line(0);
        h.access(0, Access::store(line).with_tx(tx)).unwrap();
        // Push it out of L1 and L2 with conflicting volatile lines.
        // L1 set of `line`: stride 2 lines; L2 stride 4.
        for i in 1..=4 {
            h.access(0, Access::load(nvm_line(4 * i))).unwrap();
        }
        let llc_line = h.llc().peek(line).expect("line reached LLC");
        assert!(llc_line.pinned, "uncommitted dirty persistent line pins");
        assert_eq!(llc_line.tx, Some(tx));
    }

    #[test]
    fn uncommitted_store_pins_its_llc_copy() {
        // Line 0 stays dirty in L1: unpinned, its LLC copy would be the
        // victim of line 16's fill (same set, two ways), and evicting it
        // would back-invalidate the uncommitted private copy.
        let mut h = nvllc();
        let line = nvm_line(0);
        h.access(0, Access::store(line).with_tx(TxId::new(0, 1)))
            .unwrap();
        assert!(h.llc().peek(line).unwrap().pinned);
        h.access(0, Access::load(nvm_line(8))).unwrap();
        let out = h.access(0, Access::load(nvm_line(16))).unwrap();
        let evicted: Vec<LineAddr> = out.evictions.iter().map(|e| e.line).collect();
        assert_eq!(evicted, [nvm_line(8)]);
        assert!(h.l1(0).contains(line));
    }

    #[test]
    fn pinned_set_blocks_fill_and_unpin_unblocks() {
        let mut h = nvllc();
        let tx = TxId::new(0, 1);
        // Pin both ways of LLC set 0 (stride 8). Eviction traffic uses
        // lines ≡ 4 (mod 8): same L1/L2 sets as the victims, but LLC set 4,
        // so it cannot displace the lines being pinned.
        for i in 0..2 {
            let line = nvm_line(8 * i);
            h.access(0, Access::store(line).with_tx(tx)).unwrap();
            for j in 1..=6 {
                h.access(0, Access::load(nvm_line(8 * (i * 6 + j) + 4)))
                    .unwrap();
            }
        }
        // Check both pinned.
        assert!(h.llc().peek(nvm_line(0)).unwrap().pinned);
        assert!(h.llc().peek(nvm_line(8)).unwrap().pinned);
        // A third line in the same set cannot fill.
        let e = h.access(0, Access::load(nvm_line(16))).unwrap_err();
        assert_eq!(e.line, nvm_line(16));
        assert_eq!(h.stats.llc.pin_blocked.value(), 1);
        // Commit one line (it has no private copy left to move): the LLC
        // copy unpins and the fill proceeds.
        assert!(!h.demote_tx_line(0, nvm_line(0)));
        assert!(!h.llc().peek(nvm_line(0)).unwrap().pinned);
        assert!(h.access(0, Access::load(nvm_line(16))).is_ok());
    }

    #[test]
    fn demote_tx_line_moves_data_to_llc() {
        let mut h = nvllc();
        let tx = TxId::new(0, 2);
        let line = nvm_line(1);
        h.access(0, Access::store(line).with_tx(tx)).unwrap();
        assert!(h.demote_tx_line(0, line), "line was dirty in L1");
        assert!(h.llc().peek(line).unwrap().state.is_dirty());
        assert!(!h.llc().peek(line).unwrap().pinned);
        // Flush semantics: the private copies are invalidated, so the next
        // read starts at the LLC (the paper's NVLLC load-latency penalty).
        assert!(!h.l1(0).contains(line));
        assert!(!h.l2(0).contains(line));
        // Second demote: nothing dirty.
        assert!(!h.demote_tx_line(0, line));
    }

    #[test]
    fn force_unpin_escape_hatch() {
        let mut h = nvllc();
        let tx = TxId::new(0, 1);
        for i in 0..2 {
            let line = nvm_line(8 * i);
            h.access(0, Access::store(line).with_tx(tx)).unwrap();
            for j in 1..=6 {
                h.access(0, Access::load(nvm_line(8 * (i * 6 + j) + 4)))
                    .unwrap();
            }
        }
        let victim = h.force_unpin_for(nvm_line(16)).expect("a pinned victim");
        assert!(victim == nvm_line(0) || victim == nvm_line(8));
        assert_eq!(h.stats.llc.forced_unpins.value(), 1);
        assert!(h.access(0, Access::load(nvm_line(16))).is_ok());
    }

    #[test]
    fn directory_tracks_fills_evictions_and_snoops() {
        let mut h = small();
        let line = LineAddr::new(100);
        h.access(0, Access::load(line)).unwrap();
        assert_eq!(h.llc().peek(line).unwrap().sharers, 0b01);
        h.access(1, Access::load(line)).unwrap();
        assert_eq!(h.llc().peek(line).unwrap().sharers, 0b11);
        h.directory_consistent().unwrap();
        // A write from core 0 invalidates core 1's copies (BusUpgr): only
        // the writer's bit survives.
        h.access(0, Access::store(line)).unwrap();
        assert_eq!(h.llc().peek(line).unwrap().sharers, 0b01);
        assert!(!h.l1(1).contains(line) && !h.l2(1).contains(line));
        h.directory_consistent().unwrap();
    }

    #[test]
    fn directory_stays_exact_under_pressure() {
        let mut h = small();
        // Interleave loads/stores from both cores over more lines than
        // any level holds, forcing L1/L2/LLC evictions, then check the
        // exact invariant (bit set iff a private copy exists).
        for i in 0..400u64 {
            let core = (i % 2) as usize;
            let line = LineAddr::new((i * 7) % 192);
            let acc = if i % 3 == 0 {
                Access::store(line)
            } else {
                Access::load(line)
            };
            h.access(core, acc).unwrap();
        }
        h.directory_consistent().unwrap();
    }

    #[test]
    fn demote_clears_directory_bit() {
        let mut h = nvllc();
        let tx = TxId::new(0, 2);
        let line = nvm_line(1);
        h.access(0, Access::store(line).with_tx(tx)).unwrap();
        assert_eq!(h.llc().peek(line).unwrap().sharers, 0b01);
        h.demote_tx_line(0, line);
        assert_eq!(h.llc().peek(line).unwrap().sharers, 0);
        h.directory_consistent().unwrap();
    }

    #[test]
    fn llc_miss_rate_counts_only_l2_misses() {
        let mut h = small();
        let line = LineAddr::new(40);
        h.access(0, Access::load(line)).unwrap(); // LLC access (miss)
        h.access(0, Access::load(line)).unwrap(); // L1 hit, no LLC access
        assert_eq!(h.stats.llc.accesses.total(), 1);
        assert_eq!(h.stats.l1[0].accesses.total(), 2);
    }
}
