//! Per-channel statistics.

use pmacc_telemetry::{Json, Log2Histogram, ToJson};
use pmacc_types::{Counter, FxHashMap, LineAddr, Ratio, WriteCause};

/// Largest per-line wear map serialized in full. Above this the report
/// carries only the log2 histogram and summary stats — a long `--full`
/// run touches tens of thousands of lines, and a report is not a trace.
pub const WEAR_DETAIL_MAX_LINES: usize = 512;

/// Counters collected by one memory controller. Figure 9 of the paper is
/// built from [`MemStats::writes`] broken down by [`WriteCause`].
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// Completed read requests.
    pub reads: Counter,
    /// Completed write requests, by cause (indexed via [`WriteCause::all`]).
    pub writes_by_cause: [Counter; 6],
    /// Row-buffer hit ratio across all accesses.
    pub row_hits: Ratio,
    /// Queueing + service latency of reads, in cycles.
    pub read_latency: Log2Histogram,
    /// Queueing + service latency of writes, in cycles.
    pub write_latency: Log2Histogram,
    /// Number of scheduling decisions taken while in write-drain mode.
    pub drain_issues: Counter,
    /// Enqueue attempts rejected because a queue was full.
    pub rejected: Counter,
    /// Writes absorbed by write-queue coalescing (no device write).
    pub coalesced_writes: Counter,
    /// Device writes per line — the endurance/wear profile. NVM cells
    /// wear out with writes, so persistence schemes are also judged by
    /// how hard they hammer hot lines. Updated on every device write, so
    /// it uses the fast seed-free hash map; anything order-sensitive
    /// ([`MemStats::hottest_line`] tie-breaking, report serialization)
    /// sorts explicitly at the boundary instead — the parallel experiment
    /// runner asserts bit-identical reports at any worker count.
    pub writes_per_line: FxHashMap<LineAddr, u64>,
    /// Start-gap rotations the wear-leveling remapper performed.
    pub gap_rotations: Counter,
    /// Device writes spent copying lines during gap rotations (exactly
    /// one per rotation; kept separate so the overhead is visible).
    pub relocation_writes: Counter,
}

impl MemStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        MemStats::default()
    }

    /// Records a completed write of the given cause.
    pub fn record_write(&mut self, cause: WriteCause, latency: u64) {
        let idx = WriteCause::all()
            .iter()
            .position(|c| *c == cause)
            .expect("cause is in WriteCause::all");
        self.writes_by_cause[idx].inc();
        self.write_latency.record(latency);
    }

    /// Records which line a device write hit (endurance accounting).
    pub fn record_write_line(&mut self, line: LineAddr) {
        *self.writes_per_line.entry(line).or_insert(0) += 1;
    }

    /// The most-written line and its write count, if any writes happened.
    /// Ties break toward the highest line address (the behaviour the
    /// ordered-map implementation had), independent of map iteration
    /// order.
    #[must_use]
    pub fn hottest_line(&self) -> Option<(LineAddr, u64)> {
        self.writes_per_line
            .iter()
            .max_by_key(|(l, n)| (**n, **l))
            .map(|(l, n)| (*l, *n))
    }

    /// Mean device writes per written line.
    #[must_use]
    pub fn mean_writes_per_line(&self) -> f64 {
        if self.writes_per_line.is_empty() {
            return 0.0;
        }
        self.writes_per_line.values().sum::<u64>() as f64 / self.writes_per_line.len() as f64
    }

    /// Distinct device lines ever written — the wear footprint.
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        self.writes_per_line.len() as u64
    }

    /// Device writes to the most-written line, or 0 with no writes.
    #[must_use]
    pub fn max_writes_per_line(&self) -> u64 {
        self.writes_per_line.values().copied().max().unwrap_or(0)
    }

    /// The wear distribution: one sample per written line, valued at
    /// that line's device-write count. Order-free (histogram buckets
    /// commute), so building it from the hash map is deterministic.
    #[must_use]
    pub fn wear_histogram(&self) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for &n in self.writes_per_line.values() {
            h.record(n);
        }
        h
    }

    /// The p99 of writes-per-line (log2-bucket approximation).
    #[must_use]
    pub fn p99_writes_per_line(&self) -> u64 {
        self.wear_histogram().percentile(0.99)
    }

    /// Wear imbalance: max over mean writes-per-line. 1.0 is perfectly
    /// level; large values mean a hot line is burning out early. 0.0
    /// when nothing was written.
    #[must_use]
    pub fn wear_imbalance(&self) -> f64 {
        let mean = self.mean_writes_per_line();
        if mean == 0.0 {
            0.0
        } else {
            self.max_writes_per_line() as f64 / mean
        }
    }

    /// Total completed writes across all causes.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes_by_cause.iter().map(|c| c.value()).sum()
    }

    /// Completed writes with the given cause.
    #[must_use]
    pub fn writes_with_cause(&self, cause: WriteCause) -> u64 {
        let idx = WriteCause::all()
            .iter()
            .position(|c| *c == cause)
            .expect("cause is in WriteCause::all");
        self.writes_by_cause[idx].value()
    }
}

impl ToJson for MemStats {
    /// Counters, latencies and the write breakdown keyed by
    /// [`WriteCause`] display name. The per-line endurance map is
    /// summarized (hottest line, max/mean/p99, imbalance, log2
    /// histogram); the full per-line detail is attached only while the
    /// map stays under [`WEAR_DETAIL_MAX_LINES`] — beyond that it is
    /// proportional to the footprint and belongs in a trace, not a
    /// report.
    fn to_json(&self) -> Json {
        let by_cause = Json::Obj(
            WriteCause::all()
                .iter()
                .map(|c| (c.to_string(), self.writes_with_cause(*c).to_json()))
                .collect(),
        );
        let mut endurance = vec![
            ("lines_written", self.writes_per_line.len().to_json()),
            (
                "hottest_line",
                self.hottest_line().map(|(l, _)| l.raw()).to_json(),
            ),
            (
                "hottest_line_writes",
                self.hottest_line().map_or(0, |(_, n)| n).to_json(),
            ),
            ("max_writes_per_line", self.max_writes_per_line().to_json()),
            (
                "mean_writes_per_line",
                self.mean_writes_per_line().to_json(),
            ),
            ("p99_writes_per_line", self.p99_writes_per_line().to_json()),
            ("imbalance", self.wear_imbalance().to_json()),
            ("histogram", self.wear_histogram().to_json()),
            ("gap_rotations", self.gap_rotations.to_json()),
            ("relocation_writes", self.relocation_writes.to_json()),
        ];
        if self.writes_per_line.len() <= WEAR_DETAIL_MAX_LINES {
            let mut lines: Vec<(LineAddr, u64)> =
                self.writes_per_line.iter().map(|(l, n)| (*l, *n)).collect();
            lines.sort_unstable();
            endurance.push((
                "lines",
                Json::Arr(
                    lines
                        .into_iter()
                        .map(|(l, n)| Json::Arr(vec![l.raw().to_json(), n.to_json()]))
                        .collect(),
                ),
            ));
        }
        let endurance = Json::obj(endurance);
        Json::obj([
            ("reads", self.reads.to_json()),
            ("writes", self.writes().to_json()),
            ("writes_by_cause", by_cause),
            ("row_hits", self.row_hits.to_json()),
            ("read_latency", self.read_latency.to_json()),
            ("write_latency", self.write_latency.to_json()),
            ("drain_issues", self.drain_issues.to_json()),
            ("rejected", self.rejected.to_json()),
            ("coalesced_writes", self.coalesced_writes.to_json()),
            ("endurance", endurance),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_breakdown() {
        let mut s = MemStats::new();
        s.record_write(WriteCause::Eviction, 10);
        s.record_write(WriteCause::Log, 12);
        s.record_write(WriteCause::Log, 14);
        assert_eq!(s.writes(), 3);
        assert_eq!(s.writes_with_cause(WriteCause::Log), 2);
        assert_eq!(s.writes_with_cause(WriteCause::Cow), 0);
        assert_eq!(s.write_latency.count(), 3);
    }

    #[test]
    fn endurance_profile() {
        use pmacc_types::LineAddr;
        let mut s = MemStats::new();
        assert_eq!(s.hottest_line(), None);
        s.record_write_line(LineAddr::new(1));
        s.record_write_line(LineAddr::new(1));
        s.record_write_line(LineAddr::new(2));
        assert_eq!(s.hottest_line(), Some((LineAddr::new(1), 2)));
        assert!((s.mean_writes_per_line() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn wear_summary_stats() {
        use pmacc_types::LineAddr;
        let mut s = MemStats::new();
        assert_eq!(s.max_writes_per_line(), 0);
        assert_eq!(s.wear_imbalance(), 0.0);
        for _ in 0..9 {
            s.record_write_line(LineAddr::new(7));
        }
        for l in 0..3 {
            s.record_write_line(LineAddr::new(l));
        }
        assert_eq!(s.max_writes_per_line(), 9);
        assert_eq!(s.wear_histogram().count(), 4, "one sample per line");
        assert_eq!(s.wear_histogram().sum(), 12);
        assert!((s.wear_imbalance() - 3.0).abs() < 1e-12, "max 9 / mean 3");
        assert!(s.p99_writes_per_line() >= 8, "p99 lands in the hot bucket");
    }

    #[test]
    fn endurance_json_detail_is_bounded() {
        use pmacc_types::LineAddr;
        let mut s = MemStats::new();
        for l in 0..WEAR_DETAIL_MAX_LINES as u64 {
            s.record_write_line(LineAddr::new(l));
        }
        let has_lines = |s: &MemStats| match s.to_json() {
            Json::Obj(fields) => fields.iter().any(|(k, v)| {
                k == "endurance" && matches!(v, Json::Obj(e) if e.iter().any(|(k, _)| k == "lines"))
            }),
            _ => false,
        };
        assert!(has_lines(&s), "at the threshold the detail is kept");
        s.record_write_line(LineAddr::new(WEAR_DETAIL_MAX_LINES as u64));
        assert!(!has_lines(&s), "past the threshold the detail is dropped");
    }
}
