//! Small statistics primitives used throughout the simulator.

use core::fmt;

use pmacc_telemetry::{Json, ToJson};

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use pmacc_types::Counter;
/// let mut c = Counter::new();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one event.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// The current count.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl ToJson for Counter {
    /// A bare integer.
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

/// A hit/total ratio (e.g. cache miss rate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Creates an empty ratio.
    #[must_use]
    pub fn new() -> Self {
        Ratio::default()
    }

    /// Records one observation; `hit` selects the numerator.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Numerator (events recorded with `hit == true`).
    #[must_use]
    pub fn hits(self) -> u64 {
        self.hits
    }

    /// Denominator (all recorded events).
    #[must_use]
    pub fn total(self) -> u64 {
        self.total
    }

    /// The fraction of hits, or `0.0` when nothing was recorded.
    #[must_use]
    pub fn fraction(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// The complementary fraction (`1 - fraction`), or `0.0` when empty.
    #[must_use]
    pub fn complement(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            1.0 - self.fraction()
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.2}%)",
            self.hits,
            self.total,
            self.fraction() * 100.0
        )
    }
}

impl ToJson for Ratio {
    /// `{"hits", "total", "fraction"}`.
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", self.hits.to_json()),
            ("total", self.total.to_json()),
            ("fraction", self.fraction().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_ratio() {
        let mut c = Counter::new();
        c.inc();
        c.add(2);
        assert_eq!(c.value(), 3);

        let mut r = Ratio::new();
        r.record(true);
        r.record(false);
        r.record(false);
        assert_eq!(r.hits(), 1);
        assert_eq!(r.total(), 3);
        assert!((r.fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.complement() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(Ratio::new().fraction(), 0.0);
        assert_eq!(Ratio::new().complement(), 0.0);
    }

    #[test]
    fn json_renderings() {
        let mut c = Counter::new();
        c.add(7);
        assert_eq!(c.to_json(), Json::Int(7));

        let mut r = Ratio::new();
        r.record(true);
        r.record(false);
        let j = r.to_json();
        assert_eq!(j.get("hits"), Some(&Json::Int(1)));
        assert_eq!(j.get("fraction").and_then(Json::as_f64), Some(0.5));
    }
}
