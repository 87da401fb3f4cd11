//! A named-metric registry: counters, gauges and log2-bucketed
//! histograms, keyed by string, rendered to JSON in sorted key order.
//!
//! The registry is the bridge between ad-hoc simulator statistics and
//! the regression gate: `pmacc-bench` flattens a grid run's headline
//! numbers into registry gauges, serializes the registry, and `regress`
//! diffs two such documents metric by metric.

use std::collections::BTreeMap;

use crate::json::{Json, ToJson};

/// A histogram with power-of-two buckets (bucket index = bit length of
/// the sample), plus exact sum/count/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; Log2Histogram::BUCKETS],
    sum: u64,
    count: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    const BUCKETS: usize = 65;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; Log2Histogram::BUCKETS],
            sum: 0,
            count: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
        self.sum = self.sum.saturating_add(value);
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// The approximate `q`-quantile (`0.0 < q <= 1.0`) of the recorded
    /// samples, or 0 when empty.
    ///
    /// The rank is resolved to its power-of-two bucket exactly; within
    /// the bucket the value is linearly interpolated over the bucket's
    /// range, then clamped to the recorded maximum. The result is
    /// deterministic (integer bucket walk plus one IEEE-754
    /// interpolation), so reports quoting percentiles stay byte-identical
    /// across runs and worker counts.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                // Bucket `i` holds values with bit length `i`:
                // bucket 0 is exactly {0}, bucket i >= 1 spans
                // [2^(i-1), 2^i - 1].
                if i == 0 {
                    return 0;
                }
                let lo = 1u64 << (i - 1);
                let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                let frac = (target - cum) as f64 / n as f64;
                let v = lo.saturating_add(((hi - lo) as f64 * frac) as u64);
                return v.min(self.max);
            }
            cum += n;
        }
        self.max
    }

    /// Non-empty buckets as `(bit_length, count)` pairs, ascending.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u32, n))
            .collect()
    }
}

impl ToJson for Log2Histogram {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            ("max", self.max.to_json()),
            ("mean", self.mean().to_json()),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(b, n)| Json::Arr(vec![b.to_json(), n.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A registry of named metrics. Keys are free-form strings; slash-
/// separated segments (`"fig6/tc/mean"`) are the workspace convention.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to a counter, creating it at zero first if needed.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Increments a counter by one.
    pub fn counter_inc(&mut self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into a named histogram.
    pub fn histogram_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// A counter's current value (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's current value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if any samples were recorded under `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// A scalar metric by name: the gauge if one is set, else the
    /// counter if one exists (as a float). This is the lookup the
    /// regression gate uses — histograms are not scalar and are never
    /// gated directly.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.gauges
            .get(name)
            .copied()
            .or_else(|| self.counters.get(name).map(|&v| v as f64))
    }

    /// All gauges in sorted key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All counters in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

impl ToJson for MetricsRegistry {
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`, all
    /// keys sorted (`BTreeMap` iteration order), so the rendering is a
    /// deterministic function of the recorded values.
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.counter_inc("runs");
        r.counter_add("runs", 2);
        r.gauge_set("ipc", 0.9);
        r.gauge_set("ipc", 0.95);
        assert_eq!(r.counter("runs"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("ipc"), Some(0.95));
        assert_eq!(r.gauge("missing"), None);
        assert_eq!(r.value("ipc"), Some(0.95));
        assert_eq!(r.value("runs"), Some(3.0), "counters back scalar lookup");
        assert_eq!(r.value("missing"), None);
        assert_eq!(r.counters().collect::<Vec<_>>(), vec![("runs", 3)]);
        assert!(!r.is_empty());
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.sum(), 1034);
        // 0 -> bucket 0, 1 -> 1, {2,3} -> 2, 4 -> 3, 1024 -> 11.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
        assert!((h.mean() - 1034.0 / 6.0).abs() < 1e-12);
        assert_eq!(Log2Histogram::new().mean(), 0.0);
    }

    #[test]
    fn extreme_samples_do_not_panic() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.nonzero_buckets(), vec![(64, 2)]);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.percentile(0.99), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        // The bucket walk is exact; within-bucket interpolation keeps the
        // estimate inside the true value's power-of-two range.
        let p50 = h.percentile(0.50);
        assert!((32..=63).contains(&p50), "p50 of 1..=100 in bucket 6: {p50}");
        let p99 = h.percentile(0.99);
        assert!((64..=100).contains(&p99), "p99 clamped to max: {p99}");
        assert_eq!(h.percentile(1.0), 100, "p100 is the recorded max");
        // Monotone in q.
        assert!(h.percentile(0.1) <= h.percentile(0.5));
        assert!(h.percentile(0.5) <= h.percentile(0.999));
        // A single-value histogram answers that value at any quantile.
        let mut one = Log2Histogram::new();
        one.record(7);
        assert_eq!(one.percentile(0.5), 7);
        assert_eq!(one.percentile(0.999), 7);
        // Extremes stay in range.
        let mut big = Log2Histogram::new();
        big.record(u64::MAX);
        assert_eq!(big.percentile(0.5), u64::MAX);
    }

    #[test]
    fn histogram_zero_bucket() {
        let mut h = Log2Histogram::new();
        h.record(0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn histogram_json_lists_buckets_as_bit_length_count_pairs() {
        let mut h = Log2Histogram::new();
        h.record(3);
        h.record(3);
        let j = h.to_json();
        assert_eq!(j.get("count"), Some(&Json::Int(2)));
        assert_eq!(j.get("sum"), Some(&Json::Int(6)));
        // 3 has bit length 2: one bucket entry [2, 2].
        assert_eq!(
            j.get("buckets"),
            Some(&Json::Arr(vec![Json::Arr(vec![Json::Int(2), Json::Int(2)])]))
        );
    }

    #[test]
    fn merge_adds_counts_and_keeps_extremes() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 200] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 306);
        assert_eq!(a.max(), 200);
        assert_eq!(a.percentile(1.0), 200);
    }

    #[test]
    fn json_rendering_sorts_keys() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("b", 2.0);
        r.gauge_set("a", 1.0);
        r.counter_inc("z");
        r.histogram_record("h", 7);
        let s = r.to_json().to_compact();
        assert!(s.find("\"a\"").unwrap() < s.find("\"b\"").unwrap());
        assert!(s.contains("\"z\":1"));
        assert!(s.contains("\"counters\""));
        assert!(s.contains("\"histograms\""));
    }
}
