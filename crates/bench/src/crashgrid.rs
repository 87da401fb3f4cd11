//! Systematic fault-injection campaigns with failing-point minimization.
//!
//! The end-to-end crash tests probe a handful of hand-picked crash
//! cycles per workload; this module turns that spot check into a dense,
//! deterministic sweep. For every scheme × workload × core-count cell
//! the campaign:
//!
//! 1. **Learns the timeline.** One run with
//!    [`pmacc::RunConfig::record_boundaries`] set yields every
//!    durability-boundary cycle — `TX_END` retirements, drain/flush
//!    acknowledgments, COW commits/installs — i.e. exactly the moments
//!    where the crash-visible state changes.
//! 2. **Builds a crash schedule.** A stratified deterministic sweep
//!    across the whole run, plus PRNG-jittered points clustered around
//!    each boundary (the jitter stream is seeded per cell from the
//!    campaign seed, so the schedule depends only on the cell, never on
//!    execution order), plus one point past quiescence.
//! 3. **Injects every crash.** A single fresh system is advanced through
//!    the sorted schedule with [`pmacc::System::run_until`]; at each
//!    point the non-consuming [`pmacc::System::crash_state`] snapshot is
//!    recovered ([`pmacc::recovery::recover`]) and checked
//!    ([`pmacc::recovery::check_recovery`]).
//! 4. **Minimizes any violation.** Binary search between the last
//!    passing and first failing tested cycle finds the earliest failing
//!    crash cycle; workload-prefix reduction then re-runs the cell with
//!    halved `num_ops` while the failure still reproduces. The result is
//!    a self-contained [`Reproducer`] (scheme, workload, full generation
//!    parameters, crash cycle, mutation) that
//!    `tests/tests/crash_regressions.rs` replays verbatim.
//!
//! Cells fan out over the [`crate::pool`] worker pool — one job per
//! cell, results in submission order — so the campaign report is
//! byte-identical at any `--jobs` count. Reports serialize through
//! `pmacc-telemetry` under the [`CRASHGRID_SCHEMA`] tag; wall-clock time
//! deliberately goes to stderr, never into the JSON.
//!
//! The [`Mutation`] knob deliberately breaks recovery (each
//! [`Mutation::NAMES`] entry damages one scheme's durable state) to prove
//! the oracle and the minimizer have teeth — the campaign must catch and
//! shrink the injected bug. CI runs the unmutated quick campaign via the
//! `crashgrid` binary and gates on zero violations.

use core::fmt;
use std::collections::BTreeMap;
use std::str::FromStr;

use pmacc::recovery::{check_recovery, recover, CrashState, DurableState};
use pmacc::{BoundaryClass, RunConfig, System};
use pmacc_telemetry::{Json, ToJson};
use pmacc_types::rng::{stream_seed, Rng};
use pmacc_types::{Cycle, MachineConfig, SchemeKind};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

use crate::pool::{run_jobs, Job, JobPanic, Options};

/// Schema tag of the campaign report document.
pub const CRASHGRID_SCHEMA: &str = "pmacc-crashgrid-v1";

/// Entry count of the deliberately tiny transaction cache used by the
/// COW-overflow cell (matches the overflow crash test: 4 entries make
/// rbtree transactions overflow constantly).
pub const OVERFLOW_TC_ENTRIES: u64 = 4;

/// How far (in cycles) jittered points may land from their boundary.
const JITTER_WINDOW: u64 = 96;

/// Minimum crash points per cell: the schedule is padded with extra
/// deterministic points if the boundary clusters and stratified sweep
/// dedup below it.
const MIN_POINTS: usize = 360;

/// Stratified points spread evenly across each cell's run.
const STRATIFIED_POINTS: usize = 256;

/// Per-class boundary budget: at most this many boundaries of each class
/// get a jittered cluster (evenly strided over the timeline).
const BOUNDARY_BUDGET: usize = 40;

/// Violations stored verbatim per cell (the count is always exact).
const MAX_STORED_VIOLATIONS: usize = 4;

/// A deliberate recovery defect, applied to the crash snapshot before
/// recovery runs — mutation testing for the campaign itself: a campaign
/// that cannot catch these cannot be trusted to catch real regressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Recovery behaves as implemented (the CI configuration).
    #[default]
    None,
    /// Drop each core's newest committed transaction-cache entry, as if
    /// recovery's STT-RAM read-out lost it.
    DropCommittedTc,
    /// Clear every COW shadow's commit flag, as if recovery never
    /// replayed the overflow path.
    SkipCowReplay,
    /// Drop every core's eADR undo log, as if recovery kept the drained
    /// stores of uncommitted in-flight transactions instead of rolling
    /// them back.
    KeepUncommittedEadr,
}

impl Mutation {
    /// Every mutation with its command-line name, in declaration order —
    /// the one table [`fmt::Display`], [`FromStr`] and the
    /// `crashgrid --help` list read.
    pub const NAMES: [(Mutation, &'static str); 4] = [
        (Mutation::None, "none"),
        (Mutation::DropCommittedTc, "drop-committed-tc"),
        (Mutation::SkipCowReplay, "skip-cow-replay"),
        (Mutation::KeepUncommittedEadr, "keep-uncommitted-eadr"),
    ];

    /// Applies the defect to a crash snapshot (a no-op on a scheme whose
    /// durable state the defect does not touch).
    pub fn apply(self, state: &mut CrashState) {
        match (self, &mut state.durable) {
            (Mutation::DropCommittedTc, DurableState::TxCache { txcaches, .. }) => {
                for entries in txcaches {
                    if let Some(i) = entries
                        .iter()
                        .rposition(|e| e.state == pmacc::EntryState::Committed)
                    {
                        entries.remove(i);
                    }
                }
            }
            (Mutation::SkipCowReplay, DurableState::TxCache { cow, .. }) => {
                for s in cow.iter_mut().flatten() {
                    s.committed = false;
                }
            }
            (Mutation::KeepUncommittedEadr, DurableState::Eadr { undo }) => {
                for log in undo {
                    log.clear();
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(Mutation::NAMES[*self as usize].1)
    }
}

impl FromStr for Mutation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Mutation::NAMES
            .iter()
            .find(|(_, name)| *name == s)
            .map(|&(m, _)| m)
            .ok_or_else(|| format!("unknown mutation `{s}`"))
    }
}

/// Which generator produced a crash point (for coverage accounting; a
/// cycle hit by several generators is credited to the first, in this
/// order's priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PointClass {
    /// Clustered around a `TX_END` retirement.
    TxEnd,
    /// Clustered around a drain/flush acknowledgment.
    DrainAck,
    /// Clustered around a COW commit/install.
    CowCommit,
    /// Evenly spread across the run.
    Stratified,
    /// Past quiescence (everything drained).
    Quiescent,
}

impl PointClass {
    /// Stable lowercase name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PointClass::TxEnd => "tx_end",
            PointClass::DrainAck => "drain_ack",
            PointClass::CowCommit => "cow_commit",
            PointClass::Stratified => "stratified",
            PointClass::Quiescent => "quiescent",
        }
    }
}

/// One campaign cell: a scheme × workload × core-count combination,
/// optionally with a deliberately tiny transaction cache so the COW
/// overflow path is exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Benchmark run on every core.
    pub workload: WorkloadKind,
    /// Persistence scheme.
    pub scheme: SchemeKind,
    /// Core count (each core runs an independent striped instance).
    pub cores: usize,
    /// Override the transaction-cache entry count (`None` keeps the
    /// small-machine default; `Some(4)` is the overflow-pressure cell).
    pub tc_entries: Option<u64>,
    /// Sharing fraction in eighths (see `WorkloadParams::sharing`):
    /// nonzero makes the cores contend for shared-pool lines, so crashes
    /// land inside cross-core conflict windows and the recovery oracle
    /// must merge all cores' committed state in global commit order.
    pub sharing: u8,
    /// Run with start-gap wear leveling on (an aggressive small-region
    /// configuration, so rotations actually fire at tiny-workload
    /// scale): the crash snapshot then holds the NVM image in *device
    /// row* space plus the remap registers, and recovery must
    /// reconstruct the logical image before any scheme-level redo.
    pub wear: bool,
}

impl CellSpec {
    /// A cell with the default transaction cache, no sharing and no wear
    /// leveling.
    fn plain(workload: WorkloadKind, scheme: SchemeKind, cores: usize) -> Self {
        CellSpec {
            workload,
            scheme,
            cores,
            tc_entries: None,
            sharing: 0,
            wear: false,
        }
    }

    /// The simulated machine for this cell.
    #[must_use]
    pub fn machine(&self) -> MachineConfig {
        let mut m = MachineConfig::small().with_scheme(self.scheme);
        m.cores = self.cores;
        if let Some(entries) = self.tc_entries {
            m.txcache.size_bytes = entries * 64;
        }
        if self.wear {
            // Small regions and a short gap interval so tiny workloads
            // rotate every hot region several times before the crash —
            // otherwise the remap would still be the identity and the
            // cell would prove nothing.
            m.nvm.wear = pmacc_types::WearConfig {
                leveling: true,
                region_lines: 64,
                gap_write_interval: 8,
                cell_write_budget: 100_000_000,
            };
        }
        m
    }

    /// Whether the oracle demands consistency. `Optimal` has no
    /// persistence support, so its violations are *expected* — the cell
    /// runs as a control proving the checker has teeth. `SP` under a
    /// nonzero sharing fraction is likewise a control: its per-core redo
    /// logs carry no cross-log commit order, so recovery of contended
    /// lines is not defined for it.
    #[must_use]
    pub fn expect_consistent(&self) -> bool {
        self.scheme.is_persistent() && !(self.scheme == SchemeKind::Sp && self.sharing > 0)
    }

    /// Stable label: `workload/scheme/cN[/tcE][/shS][/wl]`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/c{}{}",
            self.workload,
            self.scheme,
            self.cores,
            self.variant('/')
        )
    }

    /// The non-default knobs as `{sep}tcE{sep}shS{sep}wl` (each part only
    /// when set) — the suffix of both [`CellSpec::label`] and reproducer
    /// names.
    fn variant(&self, sep: char) -> String {
        let mut s = String::new();
        if let Some(e) = self.tc_entries {
            s.push_str(&format!("{sep}tc{e}"));
        }
        if self.sharing > 0 {
            s.push_str(&format!("{sep}sh{}", self.sharing));
        }
        if self.wear {
            s.push_str(&format!("{sep}wl"));
        }
        s
    }
}

/// Campaign-wide knobs. [`CampaignConfig::quick`] is the CI
/// configuration; the smoke tests shrink `workloads`/`core_counts` for
/// speed.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base seed; each cell derives its own jitter stream from it.
    pub seed: u64,
    /// Schemes swept (all five by default — `Optimal` as a control).
    pub schemes: Vec<SchemeKind>,
    /// Workloads swept.
    pub workloads: Vec<WorkloadKind>,
    /// Core counts swept.
    pub core_counts: Vec<usize>,
    /// Workload generation parameters (the per-core op count doubles as
    /// the minimizer's prefix-reduction knob).
    pub params: WorkloadParams,
    /// Add the tiny-TC overflow cell (TxCache × rbtree) when those axes
    /// are enabled.
    pub overflow_cell: bool,
    /// Add the cross-core conflict cells: TxCache/NVLLC × {sps,
    /// hashtable} × sharing {2, 4} eighths on two cores, plus one eADR
    /// cell and one Optimal control at the highest fraction.
    pub sharing_cells: bool,
    /// Add the wear-leveling cells: TxCache/NVLLC × {sps, hashtable}
    /// plus one eADR cell on two cores with start-gap remapping on,
    /// proving recovery reconstructs the remap table from the crash
    /// snapshot.
    pub wear_cells: bool,
    /// Deliberate recovery defect (mutation testing); [`Mutation::None`]
    /// in CI.
    pub mutation: Mutation,
}

impl CampaignConfig {
    /// The quick-scale campaign CI gates on: every scheme (Optimal as a
    /// control) × every Table 3 workload × {1, 2} cores, tiny workload
    /// parameters, plus the COW-overflow cell.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            seed,
            schemes: SchemeKind::all().to_vec(),
            workloads: WorkloadKind::all().to_vec(),
            core_counts: vec![1, 2],
            params: WorkloadParams::tiny(seed),
            overflow_cell: true,
            sharing_cells: true,
            wear_cells: true,
            mutation: Mutation::None,
        }
    }

    /// The cell list, in deterministic sweep order (workload-major, then
    /// scheme, then core count, with the overflow cell and the sharing
    /// cells appended last).
    #[must_use]
    pub fn cells(&self) -> Vec<CellSpec> {
        use SchemeKind::{Eadr, NvLlc, Optimal, TxCache};
        use WorkloadKind::{Hashtable, Rbtree, Sps};
        let runs = |&(w, s): &(WorkloadKind, SchemeKind)| {
            self.workloads.contains(&w) && self.schemes.contains(&s)
        };
        let contended = || {
            [Sps, Hashtable]
                .into_iter()
                .flat_map(|w| [(w, TxCache), (w, NvLlc)])
        };
        let mut out = Vec::new();
        for &workload in &self.workloads {
            for &scheme in &self.schemes {
                for &cores in &self.core_counts {
                    out.push(CellSpec::plain(workload, scheme, cores));
                }
            }
        }
        if self.overflow_cell && runs(&(Rbtree, TxCache)) {
            let cores = self.core_counts.first().copied().unwrap_or(1);
            out.push(CellSpec {
                tc_entries: Some(OVERFLOW_TC_ENTRIES),
                ..CellSpec::plain(Rbtree, TxCache, cores)
            });
        }
        if self.sharing_cells {
            for (workload, scheme) in contended().filter(runs) {
                for sharing in [2, 4] {
                    let cell = CellSpec::plain(workload, scheme, 2);
                    out.push(CellSpec { sharing, ..cell });
                }
            }
            // One eADR contention cell: crashes inside cross-core
            // conflict windows where the losing core's drained-but-
            // uncommitted stores must roll back to the *winner's*
            // committed values, not the initial image. Then an Optimal
            // control cell.
            for (workload, scheme) in [(Sps, Eadr), (Sps, Optimal)].into_iter().filter(runs) {
                let cell = CellSpec::plain(workload, scheme, 2);
                out.push(CellSpec { sharing: 4, ..cell });
            }
        }
        if self.wear_cells {
            // The last is one eADR wear cell: the flush-on-failure drain
            // happens in logical line space and must compose with the
            // start-gap remap — the snapshot stores the drained image in
            // device rows, so recovery must invert the remap *and* roll
            // back.
            for (workload, scheme) in contended().chain([(Sps, Eadr)]).filter(runs) {
                let cell = CellSpec::plain(workload, scheme, 2);
                out.push(CellSpec { wear: true, ..cell });
            }
        }
        out
    }
}

/// Points tested per generator class (after deduplication).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Evenly spread points.
    pub stratified: usize,
    /// Points clustered around `TX_END` retirements.
    pub tx_end: usize,
    /// Points clustered around drain/flush acknowledgments.
    pub drain_ack: usize,
    /// Points clustered around COW commits/installs.
    pub cow_commit: usize,
    /// Points past quiescence.
    pub quiescent: usize,
}

impl Coverage {
    fn count(&mut self, class: PointClass) {
        match class {
            PointClass::Stratified => self.stratified += 1,
            PointClass::TxEnd => self.tx_end += 1,
            PointClass::DrainAck => self.drain_ack += 1,
            PointClass::CowCommit => self.cow_commit += 1,
            PointClass::Quiescent => self.quiescent += 1,
        }
    }

    /// Total points across classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.stratified + self.tx_end + self.drain_ack + self.cow_commit + self.quiescent
    }
}

impl ToJson for Coverage {
    fn to_json(&self) -> Json {
        Json::obj([
            ("stratified", self.stratified.to_json()),
            ("tx_end", self.tx_end.to_json()),
            ("drain_ack", self.drain_ack.to_json()),
            ("cow_commit", self.cow_commit.to_json()),
            ("quiescent", self.quiescent.to_json()),
        ])
    }
}

/// One oracle violation observed during the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Crash cycle that failed.
    pub crash_cycle: Cycle,
    /// Generator class of the failing point.
    pub class: PointClass,
    /// The checker's description.
    pub error: String,
}

impl ToJson for Violation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("crash_cycle", self.crash_cycle.to_json()),
            ("class", self.class.name().to_json()),
            ("error", self.error.to_json()),
        ])
    }
}

/// Per-cell campaign outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The swept cell.
    pub spec: CellSpec,
    /// Full-run length in cycles (the learning run).
    pub total_cycles: Cycle,
    /// Distinct crash points injected.
    pub points_tested: usize,
    /// Points per generator class.
    pub coverage: Coverage,
    /// Exact violation count (stored [`Violation`]s are capped).
    pub violation_count: usize,
    /// First few violations, verbatim.
    pub violations: Vec<Violation>,
    /// Whether violations count against the campaign (false for the
    /// `Optimal` control, where they are *detections*).
    pub expect_consistent: bool,
}

/// A self-contained failing-case description: everything needed to
/// rebuild the exact system, crash it at the exact cycle and re-check
/// recovery — independent of campaign configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproducer {
    /// Stable name (embeds cell, seed and crash cycle).
    pub name: String,
    /// The failing cell (its `sharing` equals `params.sharing`).
    pub spec: CellSpec,
    /// Full workload generation parameters (already prefix-reduced).
    pub params: WorkloadParams,
    /// Crash cycle to replay.
    pub crash_cycle: Cycle,
    /// Recovery defect in force (`none` for a real-bug reproducer).
    pub mutation: Mutation,
}

impl Reproducer {
    /// Renders the reproducer as a self-contained JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.to_json()),
            ("scheme", self.spec.scheme.to_string().to_json()),
            ("workload", self.spec.workload.to_string().to_json()),
            ("cores", self.spec.cores.to_json()),
            ("tc_entries", self.spec.tc_entries.to_json()),
            ("num_ops", self.params.num_ops.to_json()),
            ("setup_items", self.params.setup_items.to_json()),
            ("key_space", self.params.key_space.to_json()),
            ("insert_ratio", self.params.insert_ratio.to_json()),
            ("seed", self.params.seed.to_json()),
        ];
        // Omitted when zero so reproducers pinned before the sharing knob
        // existed still round-trip byte for byte.
        if self.spec.sharing > 0 {
            fields.push(("sharing", u64::from(self.spec.sharing).to_json()));
        }
        // Same back-compat rule as `sharing`: only emitted when set.
        if self.spec.wear {
            fields.push(("wear", true.to_json()));
        }
        fields.push(("crash_cycle", self.crash_cycle.to_json()));
        fields.push(("mutation", self.mutation.to_string().to_json()));
        Json::obj(fields)
    }

    /// Parses a reproducer previously rendered by [`Reproducer::to_json`]
    /// (the format pinned regression tests embed verbatim).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
            doc.get(key).ok_or_else(|| format!("missing field `{key}`"))
        }
        fn int(doc: &Json, key: &str) -> Result<u64, String> {
            match field(doc, key)? {
                Json::Int(i) if *i >= 0 => Ok(*i as u64),
                other => Err(format!(
                    "field `{key}` is not a non-negative integer: {other}"
                )),
            }
        }
        fn string<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
            field(doc, key)?
                .as_str()
                .ok_or_else(|| format!("field `{key}` is not a string"))
        }
        let tc_entries = match field(doc, "tc_entries")? {
            Json::Null => None,
            // The machine sizes the cache as `entries * 64` bytes.
            Json::Int(i) if *i > 0 && (*i as u64).checked_mul(64).is_some() => Some(*i as u64),
            other => {
                return Err(format!(
                    "field `tc_entries` is not null or a positive entry count whose \
                     byte size fits in 64 bits: {other}"
                ))
            }
        };
        // Absent in reproducers pinned before the sharing knob existed:
        // those cells ran fully private.
        let sharing = match doc.get("sharing") {
            None => 0,
            Some(Json::Int(i)) if (0..=8).contains(i) => *i as u8,
            Some(other) => return Err(format!("field `sharing` is not 0..=8: {other}")),
        };
        Ok(Reproducer {
            name: string(doc, "name")?.to_string(),
            spec: CellSpec {
                workload: string(doc, "workload")?
                    .parse()
                    .map_err(|e| format!("{e}"))?,
                scheme: string(doc, "scheme")?.parse().map_err(|e| format!("{e}"))?,
                cores: int(doc, "cores")? as usize,
                tc_entries,
                sharing,
                // Absent in reproducers pinned before wear leveling existed.
                wear: match doc.get("wear") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(other) => return Err(format!("field `wear` is not a bool: {other}")),
                },
            },
            params: WorkloadParams {
                num_ops: int(doc, "num_ops")? as usize,
                setup_items: int(doc, "setup_items")? as usize,
                key_space: int(doc, "key_space")?,
                insert_ratio: int(doc, "insert_ratio")? as u32,
                seed: int(doc, "seed")?,
                sharing,
            },
            crash_cycle: int(doc, "crash_cycle")?,
            mutation: string(doc, "mutation")?.parse()?,
        })
    }

    /// Replays the case verbatim: build the system, crash at
    /// [`Reproducer::crash_cycle`], apply the mutation, recover, check.
    ///
    /// # Errors
    ///
    /// Returns the checker's description if recovery is (still) broken at
    /// this point, or a build/run error message.
    pub fn replay(&self) -> Result<(), String> {
        let mut sys = build_system(&self.spec, &self.params, false).map_err(|e| e.to_string())?;
        sys.run_until(self.crash_cycle).map_err(|e| e.to_string())?;
        check_point(&sys, self.mutation).map_err(|e| format!("crash@{}: {e}", self.crash_cycle))
    }
}

/// The whole campaign's outcome.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Base seed the campaign ran under.
    pub seed: u64,
    /// Mutation in force.
    pub mutation: Mutation,
    /// Per-cell results, in sweep order.
    pub cells: Vec<CellResult>,
    /// Minimized reproducers, one per violating expect-consistent cell.
    pub reproducers: Vec<Reproducer>,
}

impl CampaignReport {
    /// Total crash points injected across cells.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.cells.iter().map(|c| c.points_tested).sum()
    }

    /// Violations in cells whose scheme promises consistency — the number
    /// CI gates on.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.expect_consistent)
            .map(|c| c.violation_count)
            .sum()
    }

    /// Violations in control cells (`Optimal`): evidence the checker can
    /// tell broken from correct.
    #[must_use]
    pub fn control_detections(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| !c.expect_consistent)
            .map(|c| c.violation_count)
            .sum()
    }

    /// Renders the [`CRASHGRID_SCHEMA`] document. Deterministic: the
    /// same campaign configuration yields the same bytes at any worker
    /// count (wall-clock never enters the document).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("cell", c.spec.label().to_json()),
                    ("workload", c.spec.workload.to_string().to_json()),
                    ("scheme", c.spec.scheme.to_string().to_json()),
                    ("cores", c.spec.cores.to_json()),
                    ("tc_entries", c.spec.tc_entries.to_json()),
                    ("total_cycles", c.total_cycles.to_json()),
                    ("points_tested", c.points_tested.to_json()),
                    ("coverage", c.coverage.to_json()),
                    ("expect_consistent", c.expect_consistent.to_json()),
                    ("violations", c.violation_count.to_json()),
                    ("violation_samples", c.violations.to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("schema", CRASHGRID_SCHEMA.to_json()),
            ("seed", self.seed.to_json()),
            ("mutation", self.mutation.to_string().to_json()),
            ("cells", Json::Arr(cells)),
            ("total_points", self.total_points().to_json()),
            ("total_violations", self.total_violations().to_json()),
            ("control_detections", self.control_detections().to_json()),
            (
                "reproducers",
                Json::Arr(self.reproducers.iter().map(Reproducer::to_json).collect()),
            ),
        ])
    }
}

/// The gate-relevant digest of a parsed campaign report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSummary {
    /// Cells swept.
    pub cells: usize,
    /// Crash points injected.
    pub total_points: usize,
    /// Violations in expect-consistent cells.
    pub total_violations: usize,
    /// Violations detected in control cells.
    pub control_detections: usize,
}

/// Parses and structurally validates a [`CRASHGRID_SCHEMA`] document —
/// what `crashgrid --verify` and the CI gate run against the artifact.
///
/// # Errors
///
/// Returns a description of the first schema mismatch, missing field or
/// type error.
pub fn parse_report(doc: &Json) -> Result<ReportSummary, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != CRASHGRID_SCHEMA {
        return Err(format!("schema `{schema}` is not `{CRASHGRID_SCHEMA}`"));
    }
    let int = |key: &str| -> Result<usize, String> {
        match doc.get(key) {
            Some(Json::Int(i)) if *i >= 0 => Ok(*i as usize),
            _ => Err(format!("missing or ill-typed `{key}`")),
        }
    };
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing `cells` array")?;
    let mut points_sum = 0usize;
    for cell in cells {
        let label = cell
            .get("cell")
            .and_then(Json::as_str)
            .ok_or("cell missing `cell` label")?;
        let pts = match cell.get("points_tested") {
            Some(Json::Int(i)) if *i >= 0 => *i as usize,
            _ => return Err(format!("cell `{label}` missing `points_tested`")),
        };
        let cov = cell
            .get("coverage")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("cell `{label}` missing `coverage`"))?;
        let cov_total: i64 = cov
            .iter()
            .map(|(_, v)| v.as_f64().unwrap_or(0.0) as i64)
            .sum();
        if cov_total as usize != pts {
            return Err(format!(
                "cell `{label}`: coverage classes sum to {cov_total}, points_tested is {pts}"
            ));
        }
        points_sum += pts;
    }
    let total_points = int("total_points")?;
    if points_sum != total_points {
        return Err(format!(
            "cells sum to {points_sum} points, total_points says {total_points}"
        ));
    }
    // Every reproducer embedded in the report must itself parse.
    for r in doc
        .get("reproducers")
        .and_then(Json::as_arr)
        .ok_or("missing `reproducers` array")?
    {
        Reproducer::from_json(r).map_err(|e| format!("bad reproducer: {e}"))?;
    }
    Ok(ReportSummary {
        cells: cells.len(),
        total_points,
        total_violations: int("total_violations")?,
        control_detections: int("control_detections")?,
    })
}

/// Builds the cell's system; `learn` switches boundary recording on (the
/// timeline-learning run) and off (crash-injection runs, which need no
/// boundary log).
fn build_system(
    spec: &CellSpec,
    params: &WorkloadParams,
    learn: bool,
) -> Result<System, pmacc_types::SimError> {
    let rc = RunConfig {
        sample_period: 0,
        record_boundaries: learn,
        ..RunConfig::default()
    };
    let mut params = *params;
    params.sharing = spec.sharing;
    System::for_workload(spec.machine(), spec.workload, &params, &rc)
}

/// Crash-checks `sys` right now: snapshot, mutate, recover, compare.
fn check_point(sys: &System, mutation: Mutation) -> Result<(), String> {
    let mut state = sys.crash_state();
    mutation.apply(&mut state);
    let recovered = recover(&state);
    check_recovery(&state, &recovered).map_err(|e| e.to_string())
}

/// Builds one cell's crash schedule: boundary clusters first (they carry
/// the class credit), then the stratified sweep, the quiescent point and
/// a deterministic PRNG top-up to the configured minimum.
fn build_schedule(
    total: Cycle,
    boundaries: &[(Cycle, BoundaryClass)],
    cell_seed: u64,
) -> BTreeMap<Cycle, PointClass> {
    let mut sched: BTreeMap<Cycle, PointClass> = BTreeMap::new();
    let mut rng = Rng::seed_from_u64(cell_seed);
    let horizon = total.max(1);
    for (boundary_class, point_class) in [
        (BoundaryClass::TxEnd, PointClass::TxEnd),
        (BoundaryClass::DrainAck, PointClass::DrainAck),
        (BoundaryClass::CowCommit, PointClass::CowCommit),
    ] {
        let mut cycles: Vec<Cycle> = boundaries
            .iter()
            .filter(|(_, c)| *c == boundary_class)
            .map(|&(t, _)| t)
            .collect();
        cycles.dedup();
        if cycles.is_empty() {
            continue;
        }
        // Evenly stride the class down to its budget so clusters cover
        // the whole timeline, not just its start.
        let stride = cycles.len().div_ceil(BOUNDARY_BUDGET).max(1);
        for b in cycles.iter().copied().step_by(stride) {
            let jitter_lo = 2 + rng.bounded(JITTER_WINDOW);
            let jitter_hi = 2 + rng.bounded(JITTER_WINDOW);
            for p in [
                b.saturating_sub(1).max(1),
                b,
                b + 1,
                b.saturating_sub(jitter_lo).max(1),
                b + jitter_hi,
            ] {
                sched.entry(p).or_insert(point_class);
            }
        }
    }
    let n = STRATIFIED_POINTS;
    for i in 0..n {
        let p = 1 + (horizon - 1) * i as u64 / (n as u64 - 1);
        sched.entry(p).or_insert(PointClass::Stratified);
    }
    sched
        .entry(total + 1_000_000)
        .or_insert(PointClass::Quiescent);
    // Top up: short runs can dedup below the floor; draw deterministic
    // extra points until it holds (or the timeline is exhausted).
    let mut attempts = 0;
    while sched.len() < MIN_POINTS && attempts < 10_000 {
        attempts += 1;
        let p = 1 + rng.bounded(horizon);
        sched.entry(p).or_insert(PointClass::Stratified);
    }
    sched
}

/// Sweeps one cell: learning run, schedule, injection walk. Returns the
/// result plus the violating `(cycle, last_good)` bracket for the
/// minimizer (tested points are sorted, so the predecessor of the first
/// failure is the tightest known-good bound).
fn sweep_cell(
    spec: &CellSpec,
    cfg: &CampaignConfig,
    cell_seed: u64,
) -> Result<(CellResult, Option<(Cycle, Cycle)>), String> {
    let mut learn = build_system(spec, &cfg.params, true).map_err(|e| e.to_string())?;
    let report = learn.run().map_err(|e| e.to_string())?;
    let total = report.cycles;
    let sched = build_schedule(total, learn.boundaries(), cell_seed);
    drop(learn);

    let mut coverage = Coverage::default();
    for class in sched.values() {
        coverage.count(*class);
    }
    let mut sys = build_system(spec, &cfg.params, false).map_err(|e| e.to_string())?;
    let mut violations = Vec::new();
    let mut violation_count = 0usize;
    let mut first_fail: Option<(Cycle, Cycle)> = None;
    let mut last_good: Cycle = 0;
    for (&crash_at, &class) in &sched {
        sys.run_until(crash_at).map_err(|e| e.to_string())?;
        match check_point(&sys, cfg.mutation) {
            Ok(()) => {
                if first_fail.is_none() {
                    last_good = crash_at;
                }
            }
            Err(error) => {
                violation_count += 1;
                if first_fail.is_none() {
                    first_fail = Some((crash_at, last_good));
                }
                if violations.len() < MAX_STORED_VIOLATIONS {
                    violations.push(Violation {
                        crash_cycle: crash_at,
                        class,
                        error,
                    });
                }
            }
        }
    }
    Ok((
        CellResult {
            spec: *spec,
            total_cycles: total,
            points_tested: sched.len(),
            coverage,
            violation_count,
            violations,
            expect_consistent: spec.expect_consistent(),
        },
        first_fail,
    ))
}

/// Binary-searches the earliest failing crash cycle inside
/// `(last_good, first_fail]`. Each probe is a fresh deterministic run,
/// so the result is exact for the bracket (failure need not be monotone
/// across the whole run; within the bracket the search converges on the
/// first transition).
fn earliest_failing_cycle(
    spec: &CellSpec,
    params: &WorkloadParams,
    mutation: Mutation,
    mut lo: Cycle,
    mut hi: Cycle,
) -> Result<Cycle, String> {
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        let mut sys = build_system(spec, params, false).map_err(|e| e.to_string())?;
        sys.run_until(mid).map_err(|e| e.to_string())?;
        if check_point(&sys, mutation).is_err() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// Re-finds a failure under reduced parameters: quick stratified probe
/// (no boundary learning — cheap), returning the failing bracket if the
/// defect still reproduces.
fn probe_reduced(
    spec: &CellSpec,
    params: &WorkloadParams,
    mutation: Mutation,
) -> Result<Option<(Cycle, Cycle)>, String> {
    let mut full = build_system(spec, params, false).map_err(|e| e.to_string())?;
    let total = full.run().map_err(|e| e.to_string())?.cycles;
    drop(full);
    let mut sys = build_system(spec, params, false).map_err(|e| e.to_string())?;
    let n: u64 = 96;
    let mut last_good = 0;
    for i in 0..=n {
        let p = 1 + (total.max(1) - 1) * i / n;
        sys.run_until(p).map_err(|e| e.to_string())?;
        if check_point(&sys, mutation).is_err() {
            return Ok(Some((p, last_good)));
        }
        last_good = p;
    }
    Ok(None)
}

/// Minimizes one cell's failure: earliest failing cycle in the observed
/// bracket, then workload-prefix reduction (halve `num_ops` while the
/// defect still reproduces, re-tightening the cycle each time).
fn minimize(
    spec: &CellSpec,
    cfg: &CampaignConfig,
    first_fail: Cycle,
    last_good: Cycle,
) -> Result<Reproducer, String> {
    let mut params = cfg.params;
    params.sharing = spec.sharing;
    let mut cycle = earliest_failing_cycle(spec, &params, cfg.mutation, last_good, first_fail)?;
    while params.num_ops > 1 {
        let mut reduced = params;
        reduced.num_ops /= 2;
        match probe_reduced(spec, &reduced, cfg.mutation)? {
            Some((fail, good)) => {
                cycle = earliest_failing_cycle(spec, &reduced, cfg.mutation, good, fail)?;
                params = reduced;
            }
            None => break,
        }
    }
    Ok(Reproducer {
        name: format!(
            "{}-{}-c{}{}-s{}-cy{}",
            spec.scheme,
            spec.workload,
            spec.cores,
            spec.variant('-'),
            params.seed,
            cycle
        ),
        spec: *spec,
        params,
        crash_cycle: cycle,
        mutation: cfg.mutation,
    })
}

/// Runs the whole campaign: cells fan out over the worker pool (one job
/// per cell), violating expect-consistent cells are minimized into
/// reproducers, and everything lands in a deterministic
/// [`CampaignReport`].
///
/// # Errors
///
/// Returns the first cell whose simulation itself failed (deadlock,
/// configuration error, job panic) — *not* oracle violations, which are
/// data, not errors.
pub fn run_campaign(cfg: &CampaignConfig, opts: &Options) -> Result<CampaignReport, String> {
    type CellOutcome = Result<(CellResult, Option<Reproducer>), String>;
    let cells = cfg.cells();
    let jobs: Vec<Job<CellOutcome>> = cells
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let spec = *spec;
            let cfg = cfg.clone();
            let cell_seed = stream_seed(cfg.seed, i as u64);
            Job::new(spec.label(), move || {
                let (result, bracket) = sweep_cell(&spec, &cfg, cell_seed)?;
                let repro = match bracket {
                    Some((fail, good)) if result.expect_consistent => {
                        Some(minimize(&spec, &cfg, fail, good)?)
                    }
                    _ => None,
                };
                Ok((result, repro))
            })
        })
        .collect();
    let outcomes = run_jobs(jobs, opts.jobs, opts.progress).map_err(|p: JobPanic| p.to_string())?;
    let mut report = CampaignReport {
        seed: cfg.seed,
        mutation: cfg.mutation,
        cells: Vec::with_capacity(outcomes.len()),
        reproducers: Vec::new(),
    };
    for outcome in outcomes {
        let (result, repro) = outcome?;
        report.cells.push(result);
        report.reproducers.extend(repro);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_meets_the_density_floor_and_covers_classes() {
        let boundaries = vec![
            (100, BoundaryClass::TxEnd),
            (250, BoundaryClass::DrainAck),
            (400, BoundaryClass::TxEnd),
            (650, BoundaryClass::CowCommit),
        ];
        let sched = build_schedule(1_000_000, &boundaries, 7);
        assert!(sched.len() >= MIN_POINTS, "{} points", sched.len());
        let classes: std::collections::BTreeSet<PointClass> = sched.values().copied().collect();
        for want in [
            PointClass::Stratified,
            PointClass::TxEnd,
            PointClass::DrainAck,
            PointClass::CowCommit,
            PointClass::Quiescent,
        ] {
            assert!(classes.contains(&want), "missing {want:?}");
        }
        // Boundary clusters straddle their boundary cycles.
        assert!(sched.contains_key(&99) && sched.contains_key(&100) && sched.contains_key(&101));
        // Deterministic: same seed, same schedule.
        assert_eq!(sched, build_schedule(1_000_000, &boundaries, 7));
        assert_ne!(sched, build_schedule(1_000_000, &boundaries, 8));
    }

    #[test]
    fn schedule_tops_up_short_timelines() {
        let sched = build_schedule(500, &[], 3);
        // A 500-cycle run cannot dedup 360 points out of existence: the
        // top-up draws until the floor holds or the timeline saturates.
        assert!(sched.len() >= 350, "{} points", sched.len());
    }

    #[test]
    fn mutation_parses_and_displays() {
        for (m, name) in Mutation::NAMES {
            assert_eq!(m.to_string(), name);
            assert_eq!(name.parse::<Mutation>().unwrap(), m);
        }
        assert!("bogus".parse::<Mutation>().is_err());
    }

    #[test]
    fn reproducer_roundtrips_through_json() {
        let spec = CellSpec {
            workload: WorkloadKind::Sps,
            scheme: SchemeKind::TxCache,
            cores: 1,
            tc_entries: Some(4),
            sharing: 0,
            wear: false,
        };
        let r = Reproducer {
            name: "tc-sps-c1-tc4-s42-cy123".into(),
            spec,
            params: WorkloadParams::tiny(42),
            crash_cycle: 123,
            mutation: Mutation::DropCommittedTc,
        };
        let doc = Json::parse(&r.to_json().to_pretty()).unwrap();
        assert_eq!(Reproducer::from_json(&doc).unwrap(), r);
        assert!(Reproducer::from_json(&Json::obj::<String>([])).is_err());
        // The wear flag round-trips, and (like `sharing`) is only
        // serialized when set, so pre-wear pinned reproducers still
        // parse byte for byte.
        let wl = Reproducer {
            spec: CellSpec { wear: true, ..spec },
            ..r.clone()
        };
        let doc = Json::parse(&wl.to_json().to_pretty()).unwrap();
        assert_eq!(Reproducer::from_json(&doc).unwrap(), wl);
        assert!(r.to_json().get("wear").is_none());
        // The eADR scheme tag and its mutation round-trip too.
        let eadr = Reproducer {
            name: "eadr-sps-c1-s42-cy123".into(),
            spec: CellSpec {
                scheme: SchemeKind::Eadr,
                tc_entries: None,
                ..spec
            },
            mutation: Mutation::KeepUncommittedEadr,
            ..r.clone()
        };
        let doc = Json::parse(&eadr.to_json().to_pretty()).unwrap();
        assert_eq!(Reproducer::from_json(&doc).unwrap(), eadr);
        // A sharing cell keeps the spec and the generation parameters in
        // step.
        let mut sh = r.clone();
        sh.spec.sharing = 2;
        sh.params.sharing = 2;
        let doc = Json::parse(&sh.to_json().to_pretty()).unwrap();
        assert_eq!(Reproducer::from_json(&doc).unwrap(), sh);
        // An entry count whose byte size (`entries * 64`) overflows is
        // rejected by name instead of overflowing when the machine is
        // built.
        let mut huge = r.to_json();
        if let Json::Obj(fields) = &mut huge {
            for (k, v) in fields.iter_mut() {
                if k == "tc_entries" {
                    *v = Json::Int(1 << 58);
                }
            }
        }
        let err = Reproducer::from_json(&huge).unwrap_err();
        assert!(err.contains("tc_entries"), "{err}");
    }

    #[test]
    fn cell_list_is_the_cross_product_plus_overflow_and_sharing() {
        let cfg = CampaignConfig::quick(1);
        let cells = cfg.cells();
        // Cross product, the overflow cell, 2 workloads × 2 schemes × 2
        // fractions of sharing cells plus the eADR sharing cell and the
        // Optimal sharing control, and 2 workloads × 2 schemes of
        // wear-leveling cells plus the eADR wear cell.
        assert_eq!(
            cells.len(),
            SchemeKind::all().len() * WorkloadKind::all().len() * 2 + 1 + 9 + 1 + 5
        );
        let overflow = &cells[SchemeKind::all().len() * WorkloadKind::all().len() * 2];
        assert_eq!(overflow.tc_entries, Some(OVERFLOW_TC_ENTRIES));
        assert_eq!(overflow.scheme, SchemeKind::TxCache);
        let sharing: Vec<&CellSpec> = cells.iter().filter(|c| c.sharing > 0).collect();
        assert_eq!(sharing.len(), 10);
        assert!(sharing.iter().all(|c| c.cores == 2));
        assert_eq!(sharing.last().unwrap().scheme, SchemeKind::Optimal);
        assert_eq!(sharing[sharing.len() - 2].scheme, SchemeKind::Eadr);
        let wear: Vec<&CellSpec> = cells.iter().filter(|c| c.wear).collect();
        assert_eq!(wear.len(), 5);
        assert_eq!(wear.last().unwrap().scheme, SchemeKind::Eadr);
        assert!(wear.iter().all(|c| c.expect_consistent()));
        assert!(wear
            .iter()
            .all(|c| c.machine().nvm.wear.leveling && !c.machine().dram.wear.leveling));
        assert!(!CellSpec {
            workload: WorkloadKind::Sps,
            scheme: SchemeKind::Optimal,
            cores: 1,
            tc_entries: None,
            sharing: 0,
            wear: false,
        }
        .expect_consistent());
        // SP under sharing is a control too: no cross-log commit order.
        assert!(!CellSpec {
            workload: WorkloadKind::Sps,
            scheme: SchemeKind::Sp,
            cores: 2,
            tc_entries: None,
            sharing: 2,
            wear: false,
        }
        .expect_consistent());
        assert_eq!(
            CellSpec {
                workload: WorkloadKind::Sps,
                scheme: SchemeKind::TxCache,
                cores: 2,
                tc_entries: Some(4),
                sharing: 2,
                wear: true,
            }
            .label(),
            "sps/tc/c2/tc4/sh2/wl"
        );
    }
}
