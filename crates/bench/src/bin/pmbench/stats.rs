//! Order statistics for repeated measurements.

/// The median (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) does, so spreads quoted here match that tool.
/// A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let len = v.len();
    if len == 1 {
        return [v[0]; 3];
    }
    let n = 4i64;
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, len as i64 - 1);
        // Negative when the clamp moved `j` up (two values).
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that still has at
/// least ten of `samples` beyond it, or `None` below twenty samples.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Nearest-rank `q`-quantile of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        // The serve workload's 40,000 TC samples: p99.9 has 40 beyond it.
        assert_eq!(tail_quantile(40_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.999), 999.0);
        assert_eq!(quantile(&v, 1.0), 1000.0);
        assert_eq!(quantile(&[3.0], 0.001), 3.0);
    }
}
