//! Workload registry and trace generation (paper Table 3).

use core::fmt;
use std::collections::VecDeque;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

use pmacc_cpu::{Op, Trace};
use pmacc_types::rng::{splitmix64, stream_seed};
use pmacc_types::{layout, Addr, ConfigError, FxHashMap, Word, WordAddr, LINE_BYTES};

use crate::session::MemSession;
use crate::{btree, graph, hashtable, queue, rbtree, skiplist, sps};

/// The five benchmarks of Table 3, plus two extension structures. Each is
/// named once, in its row of `WORKLOADS`.
///
/// The discriminants are fixed because each is the kind's generation
/// stream id, its sharing salt and its row in `WORKLOADS`: reordering the
/// variants would change every trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Insert in an adjacency-list graph.
    Graph = 0,
    /// Search/insert nodes in a red-black tree.
    Rbtree = 1,
    /// Randomly swap elements in an array.
    Sps = 2,
    /// Search/insert nodes in a B+tree.
    Btree = 3,
    /// Search/insert a key-value pair in a hashtable.
    Hashtable = 4,
    /// Enqueue/dequeue on a persistent linked-list FIFO (extension; the
    /// paper's introduction scenario).
    Queue = 5,
    /// Search/insert nodes in a persistent skiplist (extension).
    Skiplist = 6,
}

/// A workload's generation recipe: the unrecorded set-up, then
/// [`MemSession::start_recording`], the recorded operations and the
/// structure's invariant check.
type Generate = fn(&mut MemSession, &WorkloadParams);

/// One row per workload, in discriminant order, Table 3's five first: the
/// kind, its name (printed, and parsed like each alias, in any case), its
/// other accepted names, its description (Table 3's, or the extension's
/// summary) and its generation recipe.
const WORKLOADS: &[(WorkloadKind, &str, &[&str], &str, Generate)] = &[
    (
        WorkloadKind::Graph,
        "graph",
        &[],
        "Insert in an adjacency list graph.",
        graph::generate,
    ),
    (
        WorkloadKind::Rbtree,
        "rbtree",
        &[],
        "Search/Insert nodes in a red-black tree.",
        rbtree::generate,
    ),
    (
        WorkloadKind::Sps,
        "sps",
        &[],
        "Randomly swap elements in an array.",
        sps::generate,
    ),
    (
        WorkloadKind::Btree,
        "btree",
        &[],
        "Search/Insert nodes in a B+tree.",
        btree::generate,
    ),
    (
        WorkloadKind::Hashtable,
        "hashtable",
        &["hash"],
        "Search/Insert a key-value pair in a hashtable.",
        hashtable::generate,
    ),
    (
        WorkloadKind::Queue,
        "queue",
        &["fifo"],
        "Enqueue/dequeue on a persistent FIFO (extension).",
        queue::generate,
    ),
    (
        WorkloadKind::Skiplist,
        "skiplist",
        &[],
        "Search/Insert nodes in a skiplist (extension).",
        skiplist::generate,
    ),
];

impl WorkloadKind {
    /// The Table 3 workloads, in the paper's figure order (the extension
    /// structures are not part of the reproduction grid).
    #[must_use]
    pub fn all() -> [WorkloadKind; 5] {
        core::array::from_fn(|i| WORKLOADS[i].0)
    }

    /// Every buildable workload, including the extension structures.
    #[must_use]
    pub fn extended() -> [WorkloadKind; WORKLOADS.len()] {
        core::array::from_fn(|i| WORKLOADS[i].0)
    }

    /// The Table 3 description (or the extension's summary).
    #[must_use]
    pub fn description(self) -> &'static str {
        WORKLOADS[self as usize].3
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(WORKLOADS[*self as usize].1)
    }
}

impl FromStr for WorkloadKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.to_ascii_lowercase();
        WORKLOADS
            .iter()
            .find(|(_, name, aliases, ..)| *name == s || aliases.contains(&s.as_str()))
            .map(|row| row.0)
            .ok_or_else(|| ConfigError::new(format!("unknown workload `{s}`")))
    }
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadParams {
    /// Number of benchmark operations (each is one transaction).
    pub num_ops: usize,
    /// Initial structure size built before recording starts.
    pub setup_items: usize,
    /// Key space for random keys.
    pub key_space: u64,
    /// Percentage of operations that insert (vs. search), 0..=100.
    /// Ignored by `sps` and `graph`, which are pure-insert/swap.
    pub insert_ratio: u32,
    /// Random seed (deterministic traces).
    pub seed: u64,
    /// Fraction of the instance's persistent-heap cache lines remapped
    /// into a line pool *shared by every core*, in eighths (0 = fully
    /// private, 1 = 12.5%, 2 = 25%, 4 = 50%). The remap runs after
    /// functional generation, so structure invariants hold while the
    /// simulated address streams of different cores collide — which is
    /// what exercises coherence and cross-core transaction conflicts.
    pub sharing: u8,
}

impl WorkloadParams {
    /// Evaluation-scale parameters (used by the figure harness).
    #[must_use]
    pub fn evaluation(seed: u64) -> Self {
        WorkloadParams {
            num_ops: 20_000,
            setup_items: 300_000,
            key_space: 1_000_000,
            // Table 3's "Search/Insert nodes" is modelled as insert
            // operations: every insert begins with the search descent, as
            // in the NV-heaps microbenchmarks.
            insert_ratio: 100,
            seed,
            sharing: 0,
        }
    }

    /// Tiny parameters for fast tests.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        WorkloadParams {
            num_ops: 50,
            setup_items: 100,
            key_space: 500,
            insert_ratio: 50,
            seed,
            sharing: 0,
        }
    }

    /// Checks the parameters a generator can run with: a non-empty key
    /// space, an insert percentage of at most 100 and a sharing fraction
    /// of at most eight eighths.
    ///
    /// # Errors
    ///
    /// Returns a configuration error naming the first bad field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.key_space == 0 {
            return Err(ConfigError::new("workload key space must be at least 1"));
        }
        if self.insert_ratio > 100 {
            return Err(ConfigError::new(format!(
                "insert ratio {} is above 100 %",
                self.insert_ratio
            )));
        }
        if self.sharing > 8 {
            return Err(ConfigError::new(format!(
                "sharing {} is above 8 eighths",
                self.sharing
            )));
        }
        Ok(())
    }
}

/// A generated workload: the trace plus the initial image that seeds a
/// simulation (the trace's stores replayed over it give the final memory).
#[derive(Debug)]
pub struct WorkloadTrace {
    /// The op stream (one per core; cores run independent instances).
    pub trace: Trace,
    /// Memory contents at recording start (seeds NVM/DRAM backing).
    pub initial: Vec<(WordAddr, Word)>,
}

/// Builds the trace for one benchmark instance.
///
/// # Example
///
/// ```
/// use pmacc_workloads::{build, WorkloadKind, WorkloadParams};
/// let w = build(WorkloadKind::Sps, &WorkloadParams::tiny(1));
/// assert_eq!(w.trace.transactions(), 50);
/// ```
#[must_use]
pub fn build(kind: WorkloadKind, params: &WorkloadParams) -> WorkloadTrace {
    let (trace, initial) = generate(kind, params).into_recording();
    trace.validate().expect("generated trace is well formed");
    let w = WorkloadTrace { trace, initial };
    if params.sharing == 0 {
        return w;
    }
    share_lines(kind, params, w)
}

/// Runs one benchmark instance: set-up unrecorded, operations recorded.
fn generate(kind: WorkloadKind, params: &WorkloadParams) -> MemSession {
    // Each workload kind gets its own well-mixed generator stream: the
    // previous `seed ^ (kind as u64) * 0x9E37` derivation only perturbed
    // the low 16 bits, so seed pairs that differed in exactly those bits
    // could make two kinds (or two seeds of one kind) share a stream.
    let mut s = MemSession::new(stream_seed(params.seed, kind as u64));
    (WORKLOADS[kind as usize].4)(&mut s, params);
    s
}

/// Process-wide memo of [`build`] results, capped at this many entries
/// (FIFO eviction): enough to cover every workload an experiment's cells
/// revisit without letting a long multi-experiment run hoard images.
const BUILD_CACHE_CAP: usize = 64;

type BuildKey = (WorkloadKind, WorkloadParams);
type BuildCache = Mutex<(FxHashMap<BuildKey, Arc<WorkloadTrace>>, VecDeque<BuildKey>)>;

static BUILD_CACHE: OnceLock<BuildCache> = OnceLock::new();

/// [`build`], memoized process-wide.
///
/// Generation is a pure function of `(kind, params)` (the determinism
/// the whole harness rests on), so a cache hit returns a bit-identical
/// trace — but skips the functional setup run, which at evaluation
/// scales costs several times the simulation itself. Experiment grids
/// re-simulate the *same* workload under every scheme, NVM timing and
/// ablation arm, so the hit rate across a `reproduce` run is high.
///
/// Concurrent misses on one key may both generate (the lock is dropped
/// while building); the results are identical, so either wins.
#[must_use]
pub fn build_shared(kind: WorkloadKind, params: &WorkloadParams) -> Arc<WorkloadTrace> {
    let cache = BUILD_CACHE.get_or_init(Default::default);
    let key = (kind, *params);
    if let Some(hit) = cache.lock().expect("build cache poisoned").0.get(&key) {
        return Arc::clone(hit);
    }
    let built = Arc::new(build(kind, params));
    let (map, fifo) = &mut *cache.lock().expect("build cache poisoned");
    if let Some(raced) = map.get(&key) {
        return Arc::clone(raced);
    }
    if map.len() >= BUILD_CACHE_CAP {
        if let Some(oldest) = fifo.pop_front() {
            map.remove(&oldest);
        }
    }
    map.insert(key, Arc::clone(&built));
    fifo.push_back(key);
    built
}

/// Applies the sharing knob: remaps the selected fraction of persistent-
/// heap cache lines, in the trace and the initial image alike, into the
/// shared window. Distinct heap lines can land on the same pool slot
/// (that collision is the point of the knob); the initial image keeps
/// their words in first-write order, so the last of them wins. Runs
/// after generation (and after the structure invariant checks), so the
/// remap cannot perturb *what* the workload does — only where its lines
/// live in the simulated address space.
fn share_lines(kind: WorkloadKind, params: &WorkloadParams, mut w: WorkloadTrace) -> WorkloadTrace {
    // The kinds' discriminants seed their generators; offset by 64 to
    // keep the remap hash independent of every generation stream.
    let salt = stream_seed(params.seed, 64 + kind as u64);
    let pool_lines = (params.setup_items as u64 / 4).max(64);
    let remap = |addr: Addr| share_addr(addr, salt, params.sharing, pool_lines);
    w.trace = w
        .trace
        .ops()
        .iter()
        .map(|op| match *op {
            Op::Load { addr } => Op::Load { addr: remap(addr) },
            Op::Store { addr, value } => Op::Store {
                addr: remap(addr),
                value,
            },
            Op::LogStore { addr, meta, value } => Op::LogStore {
                addr: remap(addr),
                meta,
                value,
            },
            Op::Flush { addr } => Op::Flush { addr: remap(addr) },
            other => other,
        })
        .collect();
    for (word, _) in &mut w.initial {
        *word = remap(word.to_addr()).word();
    }
    w.trace.validate().expect("remapped trace is well formed");
    w
}

/// Remaps one address under the sharing knob: a persistent-heap address
/// whose cache line hashes below the sharing fraction moves to a
/// deterministic line of the shared pool (in-line offset preserved);
/// every other address passes through unchanged.
fn share_addr(addr: Addr, salt: u64, sharing: u8, pool_lines: u64) -> Addr {
    let raw = addr.raw();
    let heap = layout::persistent_heap_base().raw();
    let pool = layout::shared_pool_base().raw();
    if raw < heap || raw >= pool {
        return addr;
    }
    let mut state = (raw - raw % LINE_BYTES) ^ salt;
    let h = splitmix64(&mut state);
    // The hash's top three bits are a uniform draw from 0..8, so exactly
    // the configured number of eighths of the heap lines is selected.
    if (h >> 61) >= u64::from(sharing) {
        return addr;
    }
    Addr::new(pool + (h % pool_lines) * LINE_BYTES + raw % LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_cpu::Op;
    use std::collections::BTreeMap;

    #[test]
    fn every_workload_generates_valid_traces() {
        for kind in WorkloadKind::extended() {
            let w = build(kind, &WorkloadParams::tiny(3));
            assert_eq!(
                w.trace.transactions(),
                50,
                "{kind:?} must emit one transaction per op"
            );
            assert!(w.trace.memory_ops() > 0, "{kind:?} touches memory");
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let a = build(WorkloadKind::Rbtree, &WorkloadParams::tiny(7));
        let b = build(WorkloadKind::Rbtree, &WorkloadParams::tiny(7));
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn validate_rejects_an_empty_key_space() {
        let p = WorkloadParams {
            key_space: 0,
            ..WorkloadParams::tiny(1)
        };
        assert!(p.validate().unwrap_err().message().contains("key space"));
        assert!(WorkloadParams::tiny(1).validate().is_ok());
    }

    #[test]
    fn validate_rejects_an_insert_ratio_above_100() {
        let p = WorkloadParams {
            insert_ratio: 101,
            ..WorkloadParams::tiny(1)
        };
        assert!(p.validate().unwrap_err().message().contains("insert ratio"));
        let full = WorkloadParams {
            insert_ratio: 100,
            ..WorkloadParams::tiny(1)
        };
        assert!(full.validate().is_ok());
    }

    #[test]
    fn validate_rejects_sharing_above_eight_eighths() {
        let p = WorkloadParams {
            sharing: 9,
            ..WorkloadParams::tiny(1)
        };
        assert!(p.validate().unwrap_err().message().contains("sharing"));
        let all = WorkloadParams {
            sharing: 8,
            ..WorkloadParams::tiny(1)
        };
        assert!(all.validate().is_ok());
    }

    #[test]
    fn different_seeds_differ() {
        let a = build(WorkloadKind::Sps, &WorkloadParams::tiny(1));
        let b = build(WorkloadKind::Sps, &WorkloadParams::tiny(2));
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn replaying_trace_stores_over_initial_yields_final_image() {
        for kind in WorkloadKind::extended() {
            let (trace, initial, final_image) = generate(kind, &WorkloadParams::tiny(5)).finish();
            let mut mem: FxHashMap<WordAddr, Word> = initial.into_iter().collect();
            for op in trace.ops() {
                if let Op::Store { addr, value } = op {
                    mem.insert(addr.word(), *value);
                }
            }
            assert_eq!(mem, final_image, "{kind:?} trace replay mismatch");
        }
    }

    /// The dense session against the map-backed oracle it replaced (run
    /// beside it in test builds): every read agrees, so the program, and
    /// the trace it records, is the one the map gives; the initial image
    /// holds the same words; the final images match; and the sharing
    /// remap moves the same words as it does over the map's image, with
    /// collisions resolved in the session's first-write order.
    #[test]
    fn dense_session_matches_the_map_oracle() {
        // The harness's quick scale (`Scale::Quick` in pmacc-bench).
        let quick = WorkloadParams {
            num_ops: 1_000,
            setup_items: 60_000,
            key_space: 200_000,
            ..WorkloadParams::evaluation(42)
        };
        let tiny = WorkloadKind::extended()
            .into_iter()
            .flat_map(|k| [1, 5, 42].map(|seed| (k, WorkloadParams::tiny(seed))));
        for (kind, params) in tiny.chain([(WorkloadKind::Rbtree, quick)]) {
            let s = generate(kind, &params);
            let oracle = s.oracle.clone();
            let case = format!("{kind:?} seed {}", params.seed);
            assert_eq!(oracle.read_mismatches, 0, "{case}: reads disagree");
            let (trace, initial, final_image) = s.finish();
            let set = |v: &[(WordAddr, Word)]| v.iter().copied().collect::<BTreeMap<_, _>>();
            assert_eq!(initial.len(), oracle.initial.len(), "{case}");
            assert_eq!(set(&initial), set(&oracle.initial), "{case}: initial image");
            assert_eq!(final_image, oracle.mem, "{case}: final image");
            let addrs = |v: &[(WordAddr, Word)]| {
                let mut a: Vec<WordAddr> = v.iter().map(|&(w, _)| w).collect();
                a.sort_unstable();
                a
            };
            for sharing in [2, 4, 8] {
                let p = WorkloadParams { sharing, ..params };
                let built = build(kind, &p);
                let remap = |initial: &[(WordAddr, Word)]| {
                    let trace = trace.clone();
                    share_lines(
                        kind,
                        &p,
                        WorkloadTrace {
                            trace,
                            initial: initial.to_vec(),
                        },
                    )
                };
                let old = remap(&oracle.initial);
                assert_eq!(built.trace, old.trace, "{case} sharing {sharing}");
                let own = remap(&initial);
                assert_eq!(built.initial, own.initial, "{case} sharing {sharing}");
                assert_eq!(
                    addrs(&built.initial),
                    addrs(&old.initial),
                    "{case} sharing {sharing}: remapped addresses"
                );
            }
        }
    }

    #[test]
    fn sps_is_the_most_write_intense() {
        let p = WorkloadParams::tiny(1);
        let stores = |k| {
            let w = build(k, &p);
            let st = w.trace.ops().iter().filter(|o| o.is_store()).count() as f64;
            st / w.trace.op_count() as f64
        };
        let sps = stores(WorkloadKind::Sps);
        for k in [
            WorkloadKind::Rbtree,
            WorkloadKind::Btree,
            WorkloadKind::Hashtable,
        ] {
            assert!(sps > stores(k), "sps should out-write {k:?}");
        }
    }

    #[test]
    fn sharing_remaps_lines_into_the_shared_window() {
        let mut p = WorkloadParams::tiny(9);
        p.sharing = 4;
        // The hashtable spans enough distinct lines that a 4/8 fraction
        // reliably leaves lines on both sides of the split (tiny sps
        // fits in so few lines that all of them can get remapped).
        let w = build(WorkloadKind::Hashtable, &p);
        assert_eq!(w.trace.transactions(), 50, "remap keeps the tx structure");
        let pool = layout::shared_pool_base().raw();
        let heap = layout::persistent_heap_base().raw();
        let addr_of = |op: &Op| match *op {
            Op::Load { addr } | Op::Store { addr, .. } | Op::Flush { addr } => Some(addr),
            Op::LogStore { addr, .. } => Some(addr),
            _ => None,
        };
        let shared = w
            .trace
            .ops()
            .iter()
            .filter_map(addr_of)
            .filter(|a| a.raw() >= pool)
            .count();
        let private = w
            .trace
            .ops()
            .iter()
            .filter_map(addr_of)
            .filter(|a| (heap..pool).contains(&a.raw()))
            .count();
        assert!(shared > 0, "sharing 4/8 must move some accesses");
        assert!(private > 0, "sharing 4/8 must leave some accesses private");
    }

    #[test]
    fn sharing_is_deterministic() {
        for kind in [WorkloadKind::Sps, WorkloadKind::Hashtable] {
            let mut p = WorkloadParams::tiny(5);
            p.sharing = 2;
            let a = build(kind, &p);
            let b = build(kind, &p);
            assert_eq!(a.trace, b.trace, "{kind:?} remap must be deterministic");
            assert_eq!(a.initial, b.initial, "{kind:?} remap must be deterministic");
        }
    }

    #[test]
    fn share_addr_preserves_offsets_and_ignores_other_regions() {
        let pool = layout::shared_pool_base();
        let vol = pmacc_types::layout::volatile_heap_base();
        // Volatile and already-shared addresses pass through at any fraction.
        assert_eq!(share_addr(vol, 1, 8, 64), vol);
        assert_eq!(share_addr(pool, 1, 8, 64), pool);
        // Fraction 8/8 moves every heap line; the in-line offset survives.
        let a = layout::persistent_heap_base().offset(3 * LINE_BYTES + 17);
        let m = share_addr(a, 1, 8, 64);
        assert!(m.raw() >= pool.raw());
        assert_eq!(m.raw() % LINE_BYTES, 17);
        // Both words of one line land on the same remapped line.
        let m2 = share_addr(a.offset(8), 1, 8, 64);
        assert_eq!(m2.line(), m.line());
        // Fraction 0 never moves anything.
        assert_eq!(share_addr(a, 1, 0, 64), a);
    }

    #[test]
    fn kind_parse_round_trip() {
        for k in WorkloadKind::extended() {
            assert_eq!(k.to_string().parse::<WorkloadKind>().unwrap(), k);
        }
        assert!("nope".parse::<WorkloadKind>().is_err());
    }

    #[test]
    fn workload_names_aliases_and_descriptions_are_pinned() {
        use WorkloadKind::*;
        for (i, row) in WORKLOADS.iter().enumerate() {
            assert_eq!(row.0 as usize, i, "{:?} is not in its row", row.0);
        }
        let pinned: [(WorkloadKind, &str, &[&str], &str); 7] = [
            (Graph, "graph", &[], "Insert in an adjacency list graph."),
            (
                Rbtree,
                "rbtree",
                &[],
                "Search/Insert nodes in a red-black tree.",
            ),
            (Sps, "sps", &[], "Randomly swap elements in an array."),
            (Btree, "btree", &[], "Search/Insert nodes in a B+tree."),
            (
                Hashtable,
                "hashtable",
                &["hash"],
                "Search/Insert a key-value pair in a hashtable.",
            ),
            (
                Queue,
                "queue",
                &["fifo"],
                "Enqueue/dequeue on a persistent FIFO (extension).",
            ),
            (
                Skiplist,
                "skiplist",
                &[],
                "Search/Insert nodes in a skiplist (extension).",
            ),
        ];
        for (i, (kind, name, aliases, description)) in pinned.into_iter().enumerate() {
            assert_eq!(WorkloadKind::extended()[i], kind);
            assert_eq!(kind.to_string(), name);
            assert_eq!(WORKLOADS[kind as usize].2, aliases, "{name}");
            assert_eq!(kind.description(), description, "{name}");
        }
        let table3 = ["graph", "rbtree", "sps", "btree", "hashtable"];
        assert_eq!(WorkloadKind::all().map(|k| k.to_string()), table3);
        let accepted = [
            ("graph", Graph),
            ("RBTree", Rbtree),
            ("sps", Sps),
            ("btree", Btree),
            ("hashtable", Hashtable),
            ("hash", Hashtable),
            ("HashTable", Hashtable),
            ("queue", Queue),
            ("FIFO", Queue),
            ("skiplist", Skiplist),
        ];
        for (name, kind) in accepted {
            assert_eq!(name.parse::<WorkloadKind>().unwrap(), kind, "{name}");
        }
        let err = "Bogus".parse::<WorkloadKind>().unwrap_err();
        assert!(
            err.to_string().contains("unknown workload `bogus`"),
            "{err}"
        );
    }
}
