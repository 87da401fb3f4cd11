//! Simulated time.

use core::fmt;

/// A point in simulated time, measured in CPU clock cycles.
pub type Cycle = u64;

/// A clock frequency, used to convert device latencies given in nanoseconds
/// (as in the paper's Table 2) into CPU cycles.
///
/// # Example
///
/// ```
/// use pmacc_types::Freq;
/// let f = Freq::ghz(2.0); // the paper's 2 GHz cores
/// assert_eq!(f.ns_to_cycles(0.5), 1);  // L1: 0.5 ns
/// assert_eq!(f.ns_to_cycles(65.0), 130); // NVM read: 65 ns
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Freq {
    ghz: f64,
}

impl Freq {
    /// Creates a frequency from a value in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    #[must_use]
    pub fn ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Freq { ghz }
    }

    /// Converts a latency in nanoseconds to a whole number of cycles,
    /// rounding up (a device cannot respond mid-cycle) with a minimum of 1.
    #[must_use]
    pub fn ns_to_cycles(self, ns: f64) -> Cycle {
        ((ns * self.ghz).ceil() as Cycle).max(1)
    }

    /// Converts a cycle count back to nanoseconds.
    #[must_use]
    pub fn cycles_to_ns(self, cycles: Cycle) -> f64 {
        cycles as f64 / self.ghz
    }
}

impl Default for Freq {
    /// The paper's 2 GHz core clock.
    fn default() -> Self {
        Freq::ghz(2.0)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} GHz", self.ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_latencies() {
        let f = Freq::default();
        assert_eq!(f.ns_to_cycles(0.5), 1); // L1
        assert_eq!(f.ns_to_cycles(1.5), 3); // transaction cache
        assert_eq!(f.ns_to_cycles(4.5), 9); // L2
        assert_eq!(f.ns_to_cycles(10.0), 20); // LLC
        assert_eq!(f.ns_to_cycles(65.0), 130); // NVM read
        assert_eq!(f.ns_to_cycles(76.0), 152); // NVM write
    }

    #[test]
    fn round_trip_is_close() {
        let f = Freq::ghz(2.0);
        let c = f.ns_to_cycles(10.0);
        assert!((f.cycles_to_ns(c) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn minimum_one_cycle() {
        assert_eq!(Freq::ghz(1.0).ns_to_cycles(0.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_panics() {
        let _ = Freq::ghz(0.0);
    }
}
