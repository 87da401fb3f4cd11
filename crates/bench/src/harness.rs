//! A minimal, dependency-free timing harness for the `benches/` targets.
//!
//! The workspace's bench targets are declared with `harness = false`, so
//! each is an ordinary binary; this module supplies the `Criterion`-shaped
//! surface they drive (`benchmark_group` / `bench_function` / `iter`)
//! without the external crate. It deliberately measures the simple thing:
//! per sample it times one batch of iterations with [`std::time::Instant`]
//! and reports min / median / max wall-clock time per iteration. The
//! untimed warm-up doubles the batch until one batch lasts at least
//! [`SAMPLE_TARGET`], so a sub-microsecond closure is timed over many
//! calls rather than against the timer's own overhead; a closure that
//! takes longer runs once per sample.
//!
//! Environment knobs:
//!
//! * `PMACC_BENCH_SAMPLES` — samples per benchmark (default 10; each
//!   sample is one batch). When set, it overrides in-code
//!   [`Harness::sample_size`]/[`Group::sample_size`] calls too, so one
//!   variable shrinks or deepens every bench target at once.
//! * `PMACC_JOBS` — worker count for any grid or sweep a bench target
//!   sets up through [`crate::grid`]/[`crate::pool`] (the *timed*
//!   closures themselves are single cells and are unaffected). Set
//!   `PMACC_JOBS=1` when timing, so pool workers never compete with the
//!   measured iteration for cores.
//!
//! # Example
//!
//! ```
//! use pmacc_bench::harness::Harness;
//!
//! let mut h = Harness::new();
//! h.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
//! h.finish();
//! ```

use std::time::{Duration, Instant};

/// The least wall time one sample's batch of iterations should take.
pub const SAMPLE_TARGET: Duration = Duration::from_millis(1);

/// Top-level harness: owns defaults and collects results.
#[derive(Debug)]
pub struct Harness {
    samples: usize,
    env_override: Option<usize>,
    ran: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A harness configured from the environment.
    #[must_use]
    pub fn new() -> Self {
        let env_override = std::env::var("PMACC_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .filter(|&s| s > 0);
        Harness {
            samples: env_override.unwrap_or(10),
            env_override,
            ran: 0,
        }
    }

    /// Sets the number of timed samples per benchmark (a set
    /// `PMACC_BENCH_SAMPLES` wins over this).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples > 0, "at least one sample");
        self.samples = self.env_override.unwrap_or(samples);
        self
    }

    /// A named group of related benchmarks (purely presentational: the
    /// group name prefixes each benchmark id, as criterion did).
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        let samples = self.samples;
        Group {
            harness: self,
            name: name.into(),
            samples,
        }
    }

    /// Times `f` under `id`, printing one summary line.
    pub fn bench_function(&mut self, id: impl AsRef<str>, f: impl FnMut(&mut Bencher)) {
        let samples = self.samples;
        self.run(id.as_ref(), samples, f);
    }

    /// Prints the closing summary. Call once after all benchmarks.
    pub fn finish(&self) {
        println!("\n{} benchmark(s) complete", self.ran);
    }

    fn run(&mut self, id: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
        let batch = warm_up(id, &mut f);
        let mut per_iter: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher::new(batch);
            f(&mut b);
            per_iter.push(b.elapsed / u32::try_from(b.iters).unwrap_or(u32::MAX).max(1));
        }
        per_iter.sort_unstable();
        let min = per_iter[0];
        let max = per_iter[per_iter.len() - 1];
        let median = per_iter[per_iter.len() / 2];
        println!(
            "bench {id:<40} [{} .. {}] median {}  ({samples} samples)",
            fmt_duration(min),
            fmt_duration(max),
            fmt_duration(median),
        );
        self.ran += 1;
    }
}

/// The untimed warm-up pass: populates caches and page tables, and
/// returns the batch size, doubled from one until a batch of calls lasts
/// at least [`SAMPLE_TARGET`].
fn warm_up(id: &str, f: &mut impl FnMut(&mut Bencher)) -> u64 {
    let mut batch = 1;
    loop {
        let mut b = Bencher::new(batch);
        f(&mut b);
        assert!(b.iters > 0, "benchmark `{id}` never called Bencher::iter");
        if b.elapsed >= SAMPLE_TARGET {
            return batch;
        }
        batch *= 2;
    }
}

/// A group of benchmarks sharing a name prefix and sample count.
#[derive(Debug)]
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Sets the number of timed samples for benchmarks in this group (a
    /// set `PMACC_BENCH_SAMPLES` wins over this).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples > 0, "at least one sample");
        self.samples = self.harness.env_override.unwrap_or(samples);
        self
    }

    /// Times `f` under `group/id`.
    pub fn bench_function(&mut self, id: impl AsRef<str>, f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, id.as_ref());
        let samples = self.samples;
        self.harness.run(&full, samples, f);
    }

    /// Ends the group (purely cosmetic, kept for criterion parity).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; [`Bencher::iter`] times the hot
/// code.
#[derive(Debug)]
pub struct Bencher {
    batch: u64,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    fn new(batch: u64) -> Self {
        Bencher {
            batch,
            iters: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Times one batch of invocations of `f`, keeping each result opaque
    /// to the optimizer.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.batch {
            std::hint::black_box(f());
        }
        self.elapsed += start.elapsed();
        self.iters += self.batch;
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Declares the `main` of a `harness = false` bench target: runs each
/// listed `fn(&mut Harness)` in order (the replacement for
/// `criterion_group!`/`criterion_main!`).
#[macro_export]
macro_rules! bench_main {
    ($($bench_fn:path),+ $(,)?) => {
        fn main() {
            let mut harness = $crate::harness::Harness::new();
            $($bench_fn(&mut harness);)+
            harness.finish();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut b = Bencher::new(1);
        for _ in 0..3 {
            b.iter(|| 1 + 1);
        }
        assert_eq!(b.iters, 3);
        let mut b = Bencher::new(5);
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!((b.iters, calls), (5, 5));
    }

    #[test]
    fn warm_up_batches_short_closures_to_the_sample_target() {
        let mut f = |b: &mut Bencher| b.iter(|| std::hint::black_box(2) * 2);
        let batch = warm_up("short", &mut f);
        assert!(batch > 1, "a nanosecond closure needs a batch");
        let mut b = Bencher::new(batch);
        f(&mut b);
        assert_eq!(b.iters, batch);
        // A closure slower than the target runs once per sample.
        let mut slow = |b: &mut Bencher| b.iter(|| std::thread::sleep(SAMPLE_TARGET));
        assert_eq!(warm_up("slow", &mut slow), 1);
    }

    #[test]
    fn harness_runs_groups_and_functions() {
        let mut h = Harness::new();
        h.sample_size(2);
        h.bench_function("plain", |b| b.iter(|| 2 * 2));
        let mut g = h.benchmark_group("grp");
        g.sample_size(2);
        g.bench_function("inner", |b| b.iter(|| 3 * 3));
        g.finish();
        assert_eq!(h.ran, 2);
    }

    #[test]
    #[should_panic(expected = "never called Bencher::iter")]
    fn empty_benchmark_is_rejected() {
        let mut h = Harness::new();
        h.bench_function("noop", |_| {});
    }

    #[test]
    fn durations_format_across_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.000 s");
    }
}
