//! The machine configuration tree.
//!
//! [`MachineConfig::dac17`] reproduces Table 2 of the paper exactly; every
//! knob can be overridden for sensitivity studies (the ablation benches
//! sweep transaction-cache capacity, overflow threshold and NVM latency).

use core::fmt;
use std::str::FromStr;

use crate::{ConfigError, Freq, LINE_BYTES};

/// Which persistence mechanism the simulated machine uses: the four
/// schemes compared in §5 of the paper, plus the eADR upper bound. Each
/// is named once, in one row of `SCHEMES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchemeKind {
    /// Native execution without any persistence guarantee ("Optimal").
    Optimal,
    /// Software-supported persistence: write-ahead logging with `clwb` +
    /// `sfence` write-order control ("SP").
    Sp,
    /// The paper's contribution: a nonvolatile transaction cache beside the
    /// cache hierarchy.
    TxCache,
    /// Kiln-style baseline: nonvolatile last-level cache with commit-time
    /// flushing and in-LLC multi-versioning ("NVLLC" in the figures).
    NvLlc,
    /// eADR-style flush-on-failure upper bound: the whole cache hierarchy
    /// is transiently persistent (residual energy drains every dirty line
    /// on power loss), so stores are durable the moment they are written —
    /// effectively a transaction cache of infinite capacity. Atomicity
    /// still needs commit-ordered rollback of in-flight transactions.
    Eadr,
}

/// One row per scheme, in the order the paper's figures present them
/// (the eADR upper bound last, so earlier report rows stay as they were):
/// the scheme, its name (printed, and parsed like each alias, in any
/// case), its figure label and its other accepted names.
const SCHEMES: [(SchemeKind, &str, &str, &[&str]); 5] = [
    (SchemeKind::Sp, "sp", "SP", &["log", "software"]),
    (
        SchemeKind::TxCache,
        "tc",
        "TC (this work)",
        &["txcache", "tx-cache"],
    ),
    (SchemeKind::NvLlc, "nvllc", "NVLLC", &["nv-llc", "kiln"]),
    (SchemeKind::Optimal, "optimal", "Optimal", &["opt", "none"]),
    (
        SchemeKind::Eadr,
        "eadr",
        "eADR",
        &["e-adr", "flush-on-failure"],
    ),
];

impl SchemeKind {
    /// All schemes, in figure order.
    #[must_use]
    pub fn all() -> [SchemeKind; SCHEMES.len()] {
        SCHEMES.map(|row| row.0)
    }

    /// The scheme's column label in the figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        SCHEMES[self.row()].2
    }

    /// Whether the scheme guarantees crash consistency for transactions.
    #[must_use]
    pub fn is_persistent(self) -> bool {
        self != SchemeKind::Optimal
    }

    /// The index of the scheme's row in `SCHEMES`.
    fn row(self) -> usize {
        let row = SCHEMES.iter().position(|row| row.0 == self);
        row.expect("every scheme has a row")
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(SCHEMES[self.row()].1)
    }
}

impl FromStr for SchemeKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.to_ascii_lowercase();
        SCHEMES
            .iter()
            .find(|(_, name, _, aliases)| *name == s || aliases.contains(&s.as_str()))
            .map(|row| row.0)
            .ok_or_else(|| ConfigError::new(format!("unknown scheme `{s}`")))
    }
}

/// Fence placement of SP's write-ahead logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpMode {
    /// The Figure 3(a) listing verbatim: `clwb` per log record, one
    /// `sfence` before and one after the `pcommit` (commit marker), and
    /// in-place data stores afterwards with no extra flushing. Every
    /// preset machine uses it.
    Batched,
    /// Pessimistic write-order control, as Figure 2(b) depicts: every log
    /// record is made durable (`clwb` + `sfence`) before execution
    /// proceeds. Commit and the in-place data stores are as in
    /// [`SpMode::Batched`]. Used by the SP-fencing ablation.
    Strict,
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes (per instance).
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in nanoseconds.
    pub latency_ns: f64,
}

impl CacheConfig {
    /// Creates a cache configuration.
    #[must_use]
    pub fn new(size_bytes: u64, ways: u32, latency_ns: f64) -> Self {
        CacheConfig {
            size_bytes,
            ways,
            latency_ns,
        }
    }

    /// Number of cache lines.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.lines() / u64::from(self.ways)
    }

    /// Number of set-index bits.
    ///
    /// # Panics
    ///
    /// Panics if the number of sets is not a power of two (call
    /// [`CacheConfig::validate`] first).
    #[must_use]
    pub fn set_bits(&self) -> u32 {
        let sets = self.sets();
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        sets.trailing_zeros()
    }

    /// Access latency in cycles at `freq`.
    #[must_use]
    pub fn latency_cycles(&self, freq: Freq) -> u64 {
        freq.ns_to_cycles(self.latency_ns)
    }

    /// Checks the geometry is realizable.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache has zero ways, does not divide into an
    /// integral power-of-two number of sets, or has a non-positive latency.
    pub fn validate(&self, name: &str) -> Result<(), ConfigError> {
        if self.ways == 0 {
            return Err(ConfigError::new(format!("{name}: zero ways")));
        }
        if self.size_bytes == 0 || self.size_bytes % (LINE_BYTES * u64::from(self.ways)) != 0 {
            return Err(ConfigError::new(format!(
                "{name}: size {} not divisible into {}-way sets of {}-byte lines",
                self.size_bytes, self.ways, LINE_BYTES
            )));
        }
        if !self.sets().is_power_of_two() {
            return Err(ConfigError::new(format!(
                "{name}: {} sets is not a power of two",
                self.sets()
            )));
        }
        if self.latency_ns <= 0.0 || self.latency_ns.is_nan() {
            return Err(ConfigError::new(format!("{name}: non-positive latency")));
        }
        Ok(())
    }
}

/// NVM endurance model and start-gap wear-leveling knobs.
///
/// Leveling is **off by default** so every existing configuration and
/// checked-in baseline is bit-for-bit unchanged; turning it on inserts a
/// region-based start-gap remapper between line addresses and device
/// rows (see `pmacc-mem`'s `wear` module for the mapping math).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearConfig {
    /// Whether the start-gap remapper is active.
    pub leveling: bool,
    /// Lines per leveling region (the remapper rotates each region's
    /// gap independently; one spare device row per region).
    pub region_lines: u64,
    /// Demand writes to a region between gap rotations (the start-gap
    /// ψ parameter).
    pub gap_write_interval: u64,
    /// Cell lifetime budget in writes — how many times one NVM line can
    /// be rewritten before it is considered worn out. 10^8 is the
    /// conventional STT-RAM/PCM planning figure.
    pub cell_write_budget: u64,
}

impl WearConfig {
    /// Wear modeling only: the per-line write profile and lifetime
    /// projection are recorded, but no remapping happens (the default).
    #[must_use]
    pub fn modeling_only() -> Self {
        WearConfig {
            leveling: false,
            ..WearConfig::start_gap()
        }
    }

    /// Start-gap wear-leveling enabled with simulation-scale defaults:
    /// 256-line regions rotating every 64 demand writes. Real hardware
    /// uses far larger regions and intervals; at the reproduction's run
    /// lengths those would never rotate, so the defaults are scaled the
    /// same way the LLC capacity is (see `EXPERIMENTS.md`).
    #[must_use]
    pub fn start_gap() -> Self {
        WearConfig {
            leveling: true,
            region_lines: 256,
            gap_write_interval: 64,
            cell_write_budget: 100_000_000,
        }
    }

    /// Checks the leveling geometry is usable.
    ///
    /// # Errors
    ///
    /// Returns an error when leveling is enabled with a degenerate
    /// region size or rotation interval, or the write budget is zero.
    pub fn validate(&self, name: &str) -> Result<(), ConfigError> {
        if self.cell_write_budget == 0 {
            return Err(ConfigError::new(format!("{name}: zero cell write budget")));
        }
        if self.leveling {
            if self.region_lines < 2 {
                return Err(ConfigError::new(format!(
                    "{name}: leveling regions need at least 2 lines"
                )));
            }
            if self.gap_write_interval == 0 {
                return Err(ConfigError::new(format!(
                    "{name}: zero gap rotation interval"
                )));
            }
        }
        Ok(())
    }
}

impl Default for WearConfig {
    fn default() -> Self {
        WearConfig::modeling_only()
    }
}

/// Geometry, timing and scheduling of one memory channel (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Read-queue depth (8 in the paper).
    pub read_queue: usize,
    /// Write-queue depth (64 in the paper).
    pub write_queue: usize,
    /// Write-drain high watermark as a fraction of the write queue
    /// (0.8 in the paper: "write drain when the write queue is 80% full").
    pub drain_high: f64,
    /// Write-drain low watermark; draining stops below this fill fraction.
    pub drain_low: f64,
    /// Number of ranks (4 in the paper).
    pub ranks: u32,
    /// Banks per rank (8 in the paper).
    pub banks_per_rank: u32,
    /// Row-buffer-miss read latency in nanoseconds.
    pub read_ns: f64,
    /// Row-buffer-miss write latency in nanoseconds.
    pub write_ns: f64,
    /// Row-buffer-hit latency in nanoseconds (both kinds).
    pub row_hit_ns: f64,
    /// Lines per row buffer (row-buffer locality granularity).
    pub lines_per_row: u64,
    /// Data-bus occupancy per transfer in nanoseconds (serializes the
    /// channel even when banks overlap).
    pub bus_ns: f64,
    /// Endurance model and wear-leveling (off by default; only
    /// meaningful on the NVM channel).
    pub wear: WearConfig,
}

impl MemConfig {
    /// STT-RAM NVM timing from Table 2: 65 ns read, 76 ns write.
    #[must_use]
    pub fn nvm_dac17() -> Self {
        MemConfig {
            read_queue: 8,
            write_queue: 64,
            drain_high: 0.8,
            drain_low: 0.2,
            ranks: 4,
            banks_per_rank: 8,
            read_ns: 65.0,
            write_ns: 76.0,
            // STT-RAM row buffers behave like DRAM's; keep a modest hit
            // discount so row locality matters without dominating.
            row_hit_ns: 32.0,
            lines_per_row: 32, // 2 KiB rows
            bus_ns: 4.0,
            wear: WearConfig::modeling_only(),
        }
    }

    /// PCM timing, for technology-sensitivity studies: the paper's
    /// introduction names phase-change memory among the NVM candidates;
    /// PCM reads a little slower and writes much slower than STT-RAM.
    #[must_use]
    pub fn pcm() -> Self {
        MemConfig {
            read_ns: 85.0,
            write_ns: 350.0,
            row_hit_ns: 40.0,
            ..MemConfig::nvm_dac17()
        }
    }

    /// DDR3 DRAM timing from Table 2 (latencies are typical DDR3-1600).
    #[must_use]
    pub fn dram_dac17() -> Self {
        MemConfig {
            read_queue: 8,
            write_queue: 64,
            drain_high: 0.8,
            drain_low: 0.2,
            ranks: 4,
            banks_per_rank: 8,
            read_ns: 37.5,
            write_ns: 37.5,
            row_hit_ns: 15.0,
            lines_per_row: 32,
            bus_ns: 4.0,
            wear: WearConfig::modeling_only(),
        }
    }

    /// Total number of banks across all ranks.
    #[must_use]
    pub fn banks(&self) -> u32 {
        self.ranks * self.banks_per_rank
    }

    /// Checks queue depths and timings.
    ///
    /// # Errors
    ///
    /// Returns an error on zero-sized queues/banks, non-positive latencies,
    /// or drain watermarks outside `0 < low < high <= 1`.
    pub fn validate(&self, name: &str) -> Result<(), ConfigError> {
        if self.read_queue == 0 || self.write_queue == 0 {
            return Err(ConfigError::new(format!("{name}: zero-length queue")));
        }
        if self.banks() == 0 {
            return Err(ConfigError::new(format!("{name}: zero banks")));
        }
        if !(self.read_ns > 0.0 && self.write_ns > 0.0 && self.row_hit_ns > 0.0) {
            return Err(ConfigError::new(format!("{name}: non-positive latency")));
        }
        if !(self.drain_low > 0.0 && self.drain_low < self.drain_high && self.drain_high <= 1.0) {
            return Err(ConfigError::new(format!(
                "{name}: drain watermarks must satisfy 0 < low < high <= 1"
            )));
        }
        if self.lines_per_row == 0 {
            return Err(ConfigError::new(format!("{name}: zero lines per row")));
        }
        self.wear.validate(name)?;
        Ok(())
    }
}

/// Core pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Clock frequency (2 GHz in the paper).
    pub freq: Freq,
    /// Ops issued per cycle (4 in the paper).
    pub issue_width: u32,
    /// Store-buffer entries; the core stalls when it fills.
    pub store_buffer: usize,
}

impl CoreConfig {
    /// The paper's 2 GHz, 4-issue out-of-order core.
    #[must_use]
    pub fn dac17() -> Self {
        CoreConfig {
            freq: Freq::ghz(2.0),
            issue_width: 4,
            store_buffer: 56,
        }
    }

    /// Checks pipeline parameters are non-degenerate.
    ///
    /// # Errors
    ///
    /// Returns an error if any width or buffer is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.issue_width == 0 {
            return Err(ConfigError::new("core: zero issue width"));
        }
        if self.store_buffer == 0 {
            return Err(ConfigError::new("core: zero store buffer"));
        }
        Ok(())
    }
}

/// Transaction-cache parameters (paper §4.1, Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxCacheConfig {
    /// Capacity per core in bytes (4 KB in the paper; fully associative,
    /// one 64-byte entry per buffered store).
    pub size_bytes: u64,
    /// CAM access latency in nanoseconds (1.5 ns STT-RAM in the paper).
    pub latency_ns: f64,
    /// Occupancy fraction at which the hardware copy-on-write fall-back
    /// path triggers ("once the TC is almost filled, e.g. 90% full").
    pub overflow_threshold: f64,
    /// Whether consecutive writes to the same line within one transaction
    /// coalesce into a single entry (ablation D; the paper keeps one entry
    /// per store, i.e. `false`).
    pub coalesce: bool,
}

impl TxCacheConfig {
    /// The paper's 4 KB, 1.5 ns transaction cache with a 90% overflow
    /// threshold.
    #[must_use]
    pub fn dac17() -> Self {
        TxCacheConfig {
            size_bytes: 4 * 1024,
            latency_ns: 1.5,
            overflow_threshold: 0.9,
            coalesce: false,
        }
    }

    /// Number of entries (64-byte lines).
    #[must_use]
    pub fn entries(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize
    }

    /// Entry count at which the overflow fall-back triggers.
    #[must_use]
    pub fn overflow_entries(&self) -> usize {
        let n = (self.entries() as f64 * self.overflow_threshold).floor() as usize;
        n.clamp(1, self.entries())
    }

    /// Access latency in cycles at `freq`.
    #[must_use]
    pub fn latency_cycles(&self, freq: Freq) -> u64 {
        freq.ns_to_cycles(self.latency_ns)
    }

    /// Checks the transaction cache is non-degenerate.
    ///
    /// # Errors
    ///
    /// Returns an error on zero capacity, a non-line-multiple size, a
    /// non-positive latency or an out-of-range overflow threshold.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.size_bytes == 0 || self.size_bytes % LINE_BYTES != 0 {
            return Err(ConfigError::new(
                "txcache: size must be a positive multiple of the line size",
            ));
        }
        if self.latency_ns <= 0.0 || self.latency_ns.is_nan() {
            return Err(ConfigError::new("txcache: non-positive latency"));
        }
        if !(self.overflow_threshold > 0.0 && self.overflow_threshold <= 1.0) {
            return Err(ConfigError::new(
                "txcache: overflow threshold not in (0, 1]",
            ));
        }
        Ok(())
    }
}

/// Device timing of the NVLLC baseline's STT-RAM last-level cache.
///
/// Kiln replaces the SRAM LLC with an STT-RAM array: reads get somewhat
/// slower and writes substantially slower than the Table 2 SRAM LLC's
/// 10 ns. These defaults follow the STT-RAM cache literature the paper
/// cites (Sun et al., MICRO'11): reads moderately slower than SRAM and
/// writes approaching half the main-memory STT-RAM write latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvLlcConfig {
    /// STT-RAM LLC read latency in nanoseconds.
    pub read_ns: f64,
    /// STT-RAM LLC write (commit-flush) latency in nanoseconds.
    pub write_ns: f64,
}

impl NvLlcConfig {
    /// Default STT-RAM LLC timing.
    #[must_use]
    pub fn dac17() -> Self {
        NvLlcConfig {
            read_ns: 14.0,
            write_ns: 38.0,
        }
    }

    /// Checks timings are positive.
    ///
    /// # Errors
    ///
    /// Returns an error on non-positive latencies.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.read_ns > 0.0 && self.write_ns > 0.0) {
            return Err(ConfigError::new("nvllc: non-positive latency"));
        }
        Ok(())
    }
}

/// The complete simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores (4 in the paper).
    pub cores: usize,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Private L1 data cache (32 KB, 4-way, 0.5 ns).
    pub l1: CacheConfig,
    /// Private L2 cache (256 KB, 8-way, 4.5 ns).
    pub l2: CacheConfig,
    /// Shared last-level cache (64 MB, 16-way, 10 ns).
    pub llc: CacheConfig,
    /// Per-core nonvolatile transaction cache.
    pub txcache: TxCacheConfig,
    /// STT-RAM LLC timing used when `scheme` is [`SchemeKind::NvLlc`].
    pub nvllc: NvLlcConfig,
    /// NVM channel (STT-RAM).
    pub nvm: MemConfig,
    /// DRAM channel (DDR3).
    pub dram: MemConfig,
    /// Persistence scheme under evaluation.
    pub scheme: SchemeKind,
    /// Fence placement of SP's instrumentation, read only when `scheme`
    /// is [`SchemeKind::Sp`] (ablation E).
    pub sp_mode: SpMode,
}

impl MachineConfig {
    /// The paper's Table 2 machine, running the transaction-cache scheme.
    #[must_use]
    pub fn dac17() -> Self {
        MachineConfig {
            cores: 4,
            core: CoreConfig::dac17(),
            l1: CacheConfig::new(32 * 1024, 4, 0.5),
            l2: CacheConfig::new(256 * 1024, 8, 4.5),
            llc: CacheConfig::new(64 * 1024 * 1024, 16, 10.0),
            txcache: TxCacheConfig::dac17(),
            nvllc: NvLlcConfig::dac17(),
            nvm: MemConfig::nvm_dac17(),
            dram: MemConfig::dram_dac17(),
            scheme: SchemeKind::TxCache,
            sp_mode: SpMode::Batched,
        }
    }

    /// The Table 2 machine with cache capacities scaled down 32:1 (2 MB
    /// LLC, 8 KB L1, 64 KB L2) while keeping every latency, associativity
    /// and queue parameter of the paper.
    ///
    /// The paper simulates 0.7 billion instructions per benchmark; the
    /// reproduction harness runs roughly three orders of magnitude fewer,
    /// so the full-size 64 MB LLC would never see capacity pressure and
    /// Figures 8/9 (miss rate, write traffic) would degenerate. Scaling
    /// capacity with the run length preserves the cache-pressure regime
    /// the paper measured; `EXPERIMENTS.md` documents the substitution.
    #[must_use]
    pub fn dac17_scaled() -> Self {
        MachineConfig {
            cores: 4,
            core: CoreConfig::dac17(),
            l1: CacheConfig::new(8 * 1024, 4, 0.5),
            l2: CacheConfig::new(64 * 1024, 8, 4.5),
            llc: CacheConfig::new(2 * 1024 * 1024, 16, 10.0),
            txcache: TxCacheConfig::dac17(),
            nvllc: NvLlcConfig::dac17(),
            nvm: MemConfig::nvm_dac17(),
            dram: MemConfig::dram_dac17(),
            scheme: SchemeKind::TxCache,
            sp_mode: SpMode::Batched,
        }
    }

    /// A scaled-down machine for fast unit/integration tests: same shape,
    /// two cores, small caches (so evictions and overflows actually happen
    /// in short runs).
    #[must_use]
    pub fn small() -> Self {
        MachineConfig {
            cores: 2,
            core: CoreConfig::dac17(),
            l1: CacheConfig::new(4 * 1024, 4, 0.5),
            l2: CacheConfig::new(16 * 1024, 8, 4.5),
            llc: CacheConfig::new(64 * 1024, 16, 10.0),
            txcache: TxCacheConfig {
                size_bytes: 1024,
                ..TxCacheConfig::dac17()
            },
            nvllc: NvLlcConfig::dac17(),
            nvm: MemConfig::nvm_dac17(),
            dram: MemConfig::dram_dac17(),
            scheme: SchemeKind::TxCache,
            sp_mode: SpMode::Batched,
        }
    }

    /// Returns the same machine with a different scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Validates every component.
    ///
    /// # Errors
    ///
    /// Returns the first component-level validation error found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("machine: zero cores"));
        }
        if self.cores > 64 {
            return Err(ConfigError::new("machine: more than 64 cores unsupported"));
        }
        self.core.validate()?;
        self.l1.validate("l1")?;
        self.l2.validate("l2")?;
        self.llc.validate("llc")?;
        self.txcache.validate()?;
        self.nvllc.validate()?;
        self.nvm.validate("nvm")?;
        self.dram.validate("dram")?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::dac17()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac17_matches_table2() {
        let m = MachineConfig::dac17();
        assert!(m.validate().is_ok());
        assert_eq!(m.cores, 4);
        assert_eq!(m.core.issue_width, 4);
        assert_eq!(m.l1.size_bytes, 32 * 1024);
        assert_eq!(m.l1.ways, 4);
        assert_eq!(m.l2.size_bytes, 256 * 1024);
        assert_eq!(m.l2.ways, 8);
        assert_eq!(m.llc.size_bytes, 64 * 1024 * 1024);
        assert_eq!(m.llc.ways, 16);
        assert_eq!(m.txcache.size_bytes, 4096);
        assert_eq!(m.txcache.entries(), 64);
        assert_eq!(m.txcache.overflow_entries(), 57); // 90% of 64
        assert_eq!(m.nvm.read_queue, 8);
        assert_eq!(m.nvm.write_queue, 64);
        assert_eq!(m.nvm.ranks, 4);
        assert_eq!(m.nvm.banks_per_rank, 8);
    }

    #[test]
    fn cache_geometry() {
        let l1 = CacheConfig::new(32 * 1024, 4, 0.5);
        assert_eq!(l1.lines(), 512);
        assert_eq!(l1.sets(), 128);
        assert_eq!(l1.set_bits(), 7);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        assert!(CacheConfig::new(0, 4, 0.5).validate("x").is_err());
        assert!(CacheConfig::new(96 * 64, 4, 0.5).validate("x").is_err()); // 24 sets
        assert!(CacheConfig::new(1024, 0, 0.5).validate("x").is_err());
        assert!(CacheConfig::new(1024, 4, 0.0).validate("x").is_err());
    }

    #[test]
    fn scheme_parse_round_trip() {
        for s in SchemeKind::all() {
            assert_eq!(s.to_string().parse::<SchemeKind>().unwrap(), s);
        }
        assert_eq!("kiln".parse::<SchemeKind>().unwrap(), SchemeKind::NvLlc);
        assert!("bogus".parse::<SchemeKind>().is_err());
    }

    #[test]
    fn scheme_names_labels_and_aliases_are_pinned() {
        let names: Vec<String> = SchemeKind::all().iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["sp", "tc", "nvllc", "optimal", "eadr"]);
        let labels: Vec<&str> = SchemeKind::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["SP", "TC (this work)", "NVLLC", "Optimal", "eADR"]);
        let accepted = [
            ("optimal", SchemeKind::Optimal),
            ("opt", SchemeKind::Optimal),
            ("none", SchemeKind::Optimal),
            ("sp", SchemeKind::Sp),
            ("log", SchemeKind::Sp),
            ("software", SchemeKind::Sp),
            ("tc", SchemeKind::TxCache),
            ("txcache", SchemeKind::TxCache),
            ("tx-cache", SchemeKind::TxCache),
            ("nvllc", SchemeKind::NvLlc),
            ("nv-llc", SchemeKind::NvLlc),
            ("kiln", SchemeKind::NvLlc),
            ("eadr", SchemeKind::Eadr),
            ("e-adr", SchemeKind::Eadr),
            ("flush-on-failure", SchemeKind::Eadr),
            ("Flush-On-Failure", SchemeKind::Eadr),
        ];
        for (name, scheme) in accepted {
            assert_eq!(name.parse::<SchemeKind>().unwrap(), scheme, "{name}");
        }
        let err = "Bogus".parse::<SchemeKind>().unwrap_err();
        assert!(err.to_string().contains("unknown scheme `bogus`"), "{err}");
    }

    #[test]
    fn small_config_is_valid() {
        assert!(MachineConfig::small().validate().is_ok());
    }

    #[test]
    fn txcache_overflow_threshold_bounds() {
        let mut t = TxCacheConfig::dac17();
        t.overflow_threshold = 1.5;
        assert!(t.validate().is_err());
        t.overflow_threshold = 0.01;
        assert!(t.validate().is_ok());
        assert_eq!(t.overflow_entries(), 1); // clamped to at least one entry
    }

    #[test]
    fn pcm_preset_is_valid_and_slower() {
        let pcm = MemConfig::pcm();
        assert!(pcm.validate("pcm").is_ok());
        let stt = MemConfig::nvm_dac17();
        assert!(pcm.write_ns > stt.write_ns * 4.0);
        assert!(pcm.read_ns > stt.read_ns);
        assert_eq!(pcm.read_queue, stt.read_queue, "queues per Table 2");
    }

    #[test]
    fn mem_validation_rejects_bad_watermarks() {
        let mut m = MemConfig::nvm_dac17();
        m.drain_low = 0.9;
        assert!(m.validate("nvm").is_err());
    }

    #[test]
    fn wear_defaults_off_and_validates() {
        let w = WearConfig::default();
        assert!(!w.leveling, "leveling must default off");
        assert!(w.validate("nvm").is_ok());
        let sg = WearConfig::start_gap();
        assert!(sg.leveling);
        assert!(sg.validate("nvm").is_ok());
        let mut bad = sg;
        bad.region_lines = 1;
        assert!(bad.validate("nvm").is_err());
        bad = sg;
        bad.gap_write_interval = 0;
        assert!(bad.validate("nvm").is_err());
        bad = sg;
        bad.cell_write_budget = 0;
        assert!(bad.validate("nvm").is_err());
    }

    #[test]
    fn mem_validation_covers_wear() {
        let mut m = MemConfig::nvm_dac17();
        m.wear = WearConfig::start_gap();
        assert!(m.validate("nvm").is_ok());
        m.wear.region_lines = 0;
        assert!(m.validate("nvm").is_err());
    }

    #[test]
    fn with_scheme_changes_only_scheme() {
        let m = MachineConfig::dac17().with_scheme(SchemeKind::Sp);
        assert_eq!(m.scheme, SchemeKind::Sp);
        assert_eq!(m.cores, 4);
    }
}
