//! Spans around the benchmark's calls into the simulator's public API.
//!
//! Every instrumented call goes through [`Tracer::span`]. With tracing
//! off, calls whose time feeds an end-to-end metric (workload
//! generation, construction, serve set-up, the engine) are timed with
//! two clock reads and everything else costs one branch. With tracing on,
//! every call also records a [`Span`] — name, interval, parent — in a
//! `Vec` that is written out as Chrome trace-event JSON at exit.
//!
//! The tracer also measures the host's speed. After a timed call, once
//! [`SLICE_EVERY_NS`] have passed since the last one, it runs a
//! [`Kind::Reference`] slice: a fixed kernel that uses none of the
//! repository's code. The host this benchmark runs on is shared, and its
//! speed drifts by tens of percent over seconds to minutes; the slices
//! sample that drift where it happens, so host times can be reported at
//! a fixed nominal speed ([`Tracer::speed`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

use pmacc_telemetry::{Json, ToJson};

/// What an instrumented call is. Each kind belongs to one layer; the
/// layer names are the per-layer metric prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole workload repetition (the root span).
    Workload,
    /// One grid cell, sweep cell or serve run: opens a new trace id.
    Cell,
    /// One crash point (run to the cycle, snapshot, recover, check):
    /// opens a new trace id.
    Point,
    /// `pmacc_workloads::build_shared`.
    Build,
    /// `System::for_workload`.
    New,
    /// `pmacc_bench::serve::gen_arrivals` plus `System::enable_serve`.
    ServeSetup,
    /// `System::run`.
    Run,
    /// `System::run_until`.
    RunUntil,
    /// `System::crash_state`.
    Snapshot,
    /// `pmacc::recovery::recover`.
    Recover,
    /// `pmacc::recovery::check_recovery`.
    Check,
    /// `key_metrics`, `full_report` and JSON rendering of run reports.
    Report,
    /// A host-speed reference slice (benchmark code only).
    Reference,
}

/// Host time between reference slices.
pub const SLICE_EVERY_NS: u64 = 50_000_000;
/// A reference slice's duration on the nominal host, the median
/// measured on a 2-vCPU Xeon virtual machine. Host times are reported at
/// the speed that gives slices this duration.
pub const NOMINAL_SLICE_NS: f64 = 1.5e6;
/// Table entries the reference kernel reads and writes (256 KiB).
const REF_TABLE: usize = 1 << 15;
/// Keys of the reference kernel's hash map, all inserted up front.
const REF_KEYS: u64 = 1 << 12;
/// Kernel iterations per slice.
const REF_STEPS: u64 = 80_000;

impl Kind {
    const ALL: [Kind; 13] = [
        Kind::Workload,
        Kind::Cell,
        Kind::Point,
        Kind::Build,
        Kind::New,
        Kind::ServeSetup,
        Kind::Run,
        Kind::RunUntil,
        Kind::Snapshot,
        Kind::Recover,
        Kind::Check,
        Kind::Report,
        Kind::Reference,
    ];

    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Workload => "bench.workload",
            Kind::Cell => "bench.cell",
            Kind::Point => "bench.point",
            Kind::Build => "workloads.build_shared",
            Kind::New => "core.for_workload",
            Kind::ServeSetup => "serve.setup",
            Kind::Run => "engine.run",
            Kind::RunUntil => "engine.run_until",
            Kind::Snapshot => "recovery.crash_state",
            Kind::Recover => "recovery.recover",
            Kind::Check => "recovery.check_recovery",
            Kind::Report => "telemetry.report",
            Kind::Reference => "bench.reference",
        }
    }

    /// Library calls whose time feeds an end-to-end metric: timed even
    /// untraced, and followed by a reference slice when one is due.
    fn timed_untraced(self) -> bool {
        matches!(
            self,
            Kind::Build | Kind::New | Kind::ServeSetup | Kind::Run | Kind::RunUntil
        )
    }

    fn opens_trace(self) -> bool {
        matches!(self, Kind::Cell | Kind::Point)
    }
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one cell, run or crash point.
    pub trace_id: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times instrumented calls and, when tracing, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_trace: u64,
    total_ns: [u64; Kind::ALL.len()],
    last_slice_ns: u64,
    slices: u64,
    table: Vec<u64>,
    counts: RefMap,
}

/// The reference kernel's map. Its hasher has fixed keys, so the layout
/// is the same in every process.
type RefMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

impl Tracer {
    /// A tracer; `tracing` switches span recording on.
    pub fn new(tracing: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            tracing,
            spans: Vec::new(),
            open: Vec::new(),
            next_trace: 1,
            total_ns: [0; Kind::ALL.len()],
            last_slice_ns: 0,
            slices: 0,
            table: vec![0; REF_TABLE],
            counts: (0..REF_KEYS).map(|k| (k, 0)).collect(),
        }
    }

    /// Runs `f` as one call of `kind`.
    pub fn span<T>(&mut self, kind: Kind, f: impl FnOnce(&mut Self) -> T) -> T {
        let timed = kind.timed_untraced() || matches!(kind, Kind::Workload | Kind::Reference);
        if !self.tracing && !timed {
            return f(self);
        }
        let start = self.now_ns();
        let idx = self.tracing.then(|| {
            let trace_id = if kind.opens_trace() {
                self.next_trace += 1;
                self.next_trace - 1
            } else {
                self.open.last().map_or(0, |&p| self.spans[p].trace_id)
            };
            self.spans.push(Span {
                kind,
                start_ns: start,
                end_ns: start,
                parent: self.open.last().copied(),
                trace_id,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = self.now_ns();
        self.total_ns[kind as usize] += end - start;
        if let Some(i) = idx {
            self.open.pop();
            self.spans[i].end_ns = end;
        }
        if kind.timed_untraced() && end - self.last_slice_ns >= SLICE_EVERY_NS {
            self.reference_slice();
        }
        out
    }

    /// Runs one reference slice: pseudo-random read-modify-writes over a
    /// 256 KiB table and updates of a small hash map. Both are read once
    /// untimed first, so the timed kernel finds them in cache however
    /// much memory the workload touched before it.
    pub fn reference_slice(&mut self) {
        black_box(self.table.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        black_box(self.counts.values().fold(0u64, |a, &v| a.wrapping_add(v)));
        self.span(Kind::Reference, |t| {
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            let mask = REF_TABLE - 1;
            for i in 0..REF_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = x as usize & mask;
                t.table[j] = t.table[j].wrapping_add(i);
                let add = t.table[(x >> 32) as usize & mask];
                let c = t.counts.entry(x & (REF_KEYS - 1)).or_insert(0);
                *c = c.wrapping_add(add);
            }
        });
        self.slices += 1;
        self.last_slice_ns = self.now_ns();
    }

    /// The host's speed relative to the nominal one: nominal slice time
    /// over the mean measured slice time (1 without slices).
    pub fn speed(&self) -> f64 {
        if self.slices == 0 {
            return 1.0;
        }
        NOMINAL_SLICE_NS * self.slices as f64 / self.total_ns[Kind::Reference as usize] as f64
    }

    /// Inclusive seconds spent in calls of `kind` (untraced runs time
    /// only the root, the reference and the calls behind end-to-end
    /// metrics).
    pub fn total_s(&self, kind: Kind) -> f64 {
        self.total_ns[kind as usize] as f64 * 1e-9
    }

    /// The recorded spans (empty unless tracing).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Each span's self time: its duration minus the durations of its
/// direct children. Calls are single-threaded and nest, so the children
/// cover disjoint parts of the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Self seconds summed per kind.
pub fn self_s_by_kind(spans: &[Span]) -> impl Fn(Kind) -> f64 {
    let mut sums = [0u64; Kind::ALL.len()];
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        sums[s.kind as usize] += own;
    }
    move |k| sums[k as usize] as f64 * 1e-9
}

/// Durations in microseconds of every span of `kind`.
pub fn durations_us(spans: &[Span], kind: Kind) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"X"`) event per span, times in microseconds.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let name = s.kind.name();
            let layer = name.split('.').next().unwrap_or(name);
            Json::obj([
                ("name", name.to_json()),
                ("cat", layer.to_json()),
                ("ph", "X".to_json()),
                ("ts", (s.start_ns as f64 * 1e-3).to_json()),
                ("dur", (s.dur_ns() as f64 * 1e-3).to_json()),
                ("pid", 1u64.to_json()),
                ("tid", 1u64.to_json()),
                (
                    "args",
                    Json::obj([
                        ("span_id", i.to_json()),
                        ("parent", s.parent.map_or(Json::Null, |p| p.to_json())),
                        ("trace_id", s.trace_id.to_json()),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // workload [0,100) > cell [10,90) > {run [20,50), point [55,85) > check [60,80)}
        let spans = vec![
            span(Kind::Workload, 0, 100, None),
            span(Kind::Cell, 10, 90, Some(0)),
            span(Kind::Run, 20, 50, Some(1)),
            span(Kind::Point, 55, 85, Some(1)),
            span(Kind::Check, 60, 80, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 10, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let by_kind = self_s_by_kind(&spans);
        assert!((by_kind(Kind::Run) - 30e-9).abs() < 1e-15);
        assert_eq!(by_kind(Kind::Report), 0.0);
        assert_eq!(durations_us(&spans, Kind::Check), vec![0.02]);
    }

    #[test]
    fn tracer_nests_spans_and_assigns_trace_ids() {
        let mut t = Tracer::new(true);
        t.span(Kind::Workload, |t| {
            t.span(Kind::Build, |_| ());
            for _ in 0..2 {
                t.span(Kind::Point, |t| {
                    t.span(Kind::RunUntil, |_| ());
                    t.span(Kind::Check, |_| ());
                });
            }
        });
        let s = t.spans();
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            (s[2].kind, s[3].parent, s[4].parent),
            (Kind::Point, Some(2), Some(2))
        );
        // Root and build share trace 0; each point and its calls get a fresh id.
        assert_eq!(
            s.iter().map(|x| x.trace_id).collect::<Vec<_>>(),
            [0, 0, 1, 1, 1, 2, 2, 2]
        );
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns));
        let own: u64 = self_times_ns(s).iter().sum();
        assert_eq!(own, s[0].end_ns - s[0].start_ns);
        let doc = chrome_trace(s);
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(8)
        );
    }

    #[test]
    fn untraced_tracer_times_only_end_to_end_calls() {
        let mut t = Tracer::new(false);
        let v = t.span(Kind::Run, |t| t.span(Kind::Check, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s(Kind::Check), 0.0);
    }
}
