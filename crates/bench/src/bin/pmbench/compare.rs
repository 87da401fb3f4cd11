//! `pmbench compare A.json… -- B.json…`: parent runs against change
//! runs, per workload and end-to-end metric.
//!
//! Each file is one `pmbench --json` result. The verdict follows the
//! small-sandbox rule: a gain needs at least ten pairs, a win in nine
//! tenths of them and a median difference larger than the parent's own
//! interquartile distance; a metric whose parent spread exceeds its
//! bound is unresolved unless every change run beats every parent run.
//! Bounds and directions come from `BENCHMARK.json`, read at run time
//! (`--benchmark FILE`, by default from the current directory).
//!
//! Simulated metrics repeat exactly for a seed, so their bounds apply
//! only between different seeds: between files of the same seed, any
//! difference in one is a change to the modelled design and fails the
//! comparison.

use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

use pmacc_telemetry::Json;

use crate::stats::{median, quartiles};

/// Fewest pairs a gain may rest on.
const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

/// How the change compares with the parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the gain rule.
    Improved,
    /// Not worse by more than the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// An end-to-end metric's direction and regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Names the first malformed entry.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without `name`")?;
            let higher_better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => {
                    return Err(format!(
                        "`{name}`: `better` is neither \"higher\" nor \"lower\""
                    ))
                }
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{name}` has no numeric `bound`"))?;
            Ok(Bound {
                name: name.to_string(),
                higher_better,
                bound,
            })
        })
        .collect()
}

/// The verdict on parent values `a` and change values `b` (paired in
/// order), with the share of pairs the change won (ties count for
/// neither side).
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(a: &[f64], b: &[f64], higher_better: bool, bound: f64) -> (Verdict, f64) {
    let sign = if higher_better { 1.0 } else { -1.0 };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * (*y - *x) > 0.0)
        .count();
    let win_share = wins as f64 / pairs as f64;
    let (ma, mb) = (median(a), median(b));
    let [q1, _, q3] = quartiles(a);
    let gain = sign * (mb - ma) / ma.abs();
    let best_a = a.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let worst_b = b.iter().map(|y| sign * y).fold(f64::INFINITY, f64::min);
    let v = if pairs >= MIN_PAIRS
        && win_share >= WIN_SHARE
        && gain > 0.0
        && (mb - ma).abs() > q3 - q1
    {
        Verdict::Improved
    } else if (q3 - q1) / ma.abs() > bound && worst_b <= best_a {
        Verdict::Unresolved
    } else if -gain > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (v, win_share)
}

/// One workload's result in a `--json` file.
struct FileResult {
    seed: u64,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, f64>,
}

/// Untraced results of the files, by workload, one entry per file.
fn load(paths: &[String]) -> Result<BTreeMap<String, Vec<FileResult>>, String> {
    let mut out: BTreeMap<String, Vec<FileResult>> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: no `seed`"))? as u64;
        let results = doc
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no `results`"))?;
        for r in results
            .iter()
            .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
        {
            let workload = r
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: result without `workload`"))?;
            let values = |key: &str, inner: Option<&str>| -> BTreeMap<String, f64> {
                r.get(key)
                    .and_then(Json::as_obj)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(k, v)| {
                        inner
                            .map_or(Some(v), |i| v.get(i))
                            .and_then(Json::as_f64)
                            .map(|x| (k.clone(), x))
                    })
                    .collect()
            };
            out.entry(workload.to_string())
                .or_default()
                .push(FileResult {
                    seed,
                    metrics: values("metrics", Some("value")),
                    exact: values("exact", None),
                });
        }
    }
    Ok(out)
}

/// Every simulated metric that differs between a parent and a change
/// result of the same seed, as printable lines.
fn exact_changes(workload: &str, ra: &[FileResult], rb: &[FileResult]) -> Vec<String> {
    let mut out = Vec::new();
    for x in ra {
        for y in rb.iter().filter(|y| y.seed == x.seed) {
            for (name, va) in &x.exact {
                match y.exact.get(name) {
                    Some(vb) if vb == va => {}
                    other => out.push(format!(
                        "{workload:<8} EXACT CHANGE (seed {}) {name}: {va} -> {}",
                        x.seed,
                        other.map_or("missing".to_string(), f64::to_string)
                    )),
                }
            }
        }
    }
    out
}

/// Runs the `compare` subcommand.
///
/// # Errors
///
/// Returns usage and file errors.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    const USAGE: &str =
        "usage: pmbench compare [--benchmark BENCHMARK.json] PARENT.json... -- CHANGE.json...";
    let (benchmark, args) = match args {
        [flag, file, rest @ ..] if flag == "--benchmark" => (file.as_str(), rest),
        _ => ("BENCHMARK.json", args),
    };
    let split = args.iter().position(|a| a == "--").ok_or(USAGE)?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err(USAGE.to_string());
    }
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let text = std::fs::read_to_string(benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
    let bounds = bounds(&text)?;
    let mut regressed = false;
    let mut exact_changed = false;
    println!(
        "{:<8} {:<13} {:>34} {:>34} {:>8} {:>5} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
    );
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else { continue };
        for m in &bounds {
            let series = |rs: &[FileResult]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (sa, sb) = (series(ra), series(rb));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (v, wins) = verdict(&sa, &sb, m.higher_better, m.bound);
            regressed |= v == Verdict::Regressed;
            let show = |s: &[f64]| {
                let [q1, q2, q3] = quartiles(s);
                format!("{q2:.5} [{q1:.5}, {q3:.5}]")
            };
            let change = (median(&sb) - median(&sa)) / median(&sa).abs() * 100.0;
            println!(
                "{workload:<8} {:<13} {:>34} {:>34} {change:>+7.2}% {:>4.0}% {v} (bound {}%, {} pairs)",
                m.name,
                show(&sa),
                show(&sb),
                wins * 100.0,
                m.bound * 100.0,
                sa.len().min(sb.len())
            );
        }
        for line in exact_changes(workload, ra, rb) {
            println!("{line}");
            exact_changed = true;
        }
    }
    Ok(if regressed || exact_changed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The repository's `BENCHMARK.json`, read when the tests run.
#[cfg(test)]
pub fn repo_benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn verdicts_on_synthetic_series() {
        // Lower is better; parent 10.0..10.9 (spread ~4.5 %), bound 10 %.
        let parent = series(10.0, 0.1);
        // Clearly faster in every pair.
        assert_eq!(
            verdict(&parent, &series(8.0, 0.1), false, 0.10),
            (Verdict::Improved, 1.0)
        );
        // The same numbers again: no change.
        assert_eq!(verdict(&parent, &parent, false, 0.10).0, Verdict::Unchanged);
        // 20 % slower: a regression.
        assert_eq!(
            verdict(&parent, &series(12.0, 0.12), false, 0.10),
            (Verdict::Regressed, 0.0)
        );
        // 5 % slower: within the bound.
        assert_eq!(
            verdict(&parent, &series(10.5, 0.1), false, 0.10).0,
            Verdict::Unchanged
        );
        // Higher is better: the same 20 % drop is a regression.
        assert_eq!(
            verdict(&parent, &series(8.0, 0.1), true, 0.10).0,
            Verdict::Regressed
        );
        // Faster, but fewer than ten pairs cannot claim a gain.
        assert_eq!(
            verdict(&parent[..5], &series(8.0, 0.1)[..5], false, 0.10).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_the_change_dominates() {
        let noisy = series(5.0, 1.0); // 5..14: spread ~50 % of the median
        assert_eq!(
            verdict(&noisy, &series(5.5, 1.0), false, 0.10).0,
            Verdict::Unresolved
        );
        // Every change run beats every parent run: resolved as a gain.
        assert_eq!(
            verdict(&noisy, &series(0.5, 0.1), false, 0.10).0,
            Verdict::Improved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let a = series(1.0, 0.0);
        let (v, wins) = verdict(&a, &a, true, 0.05);
        assert_eq!((v, wins), (Verdict::Unchanged, 0.0));
    }

    #[test]
    fn same_seed_exact_differences_are_reported() {
        let result = |seed: u64, ipc: f64| FileResult {
            seed,
            metrics: BTreeMap::new(),
            exact: BTreeMap::from([("tc_ipc_norm".to_string(), ipc)]),
        };
        let parent = [result(42, 0.93), result(7, 0.91)];
        // Equal values, or a difference only across seeds: nothing.
        assert!(exact_changes("grid", &parent, &[result(42, 0.93)]).is_empty());
        assert!(exact_changes("grid", &parent[..1], &[result(7, 0.85)]).is_empty());
        // A 1 % drop at one seed is a change, whatever the metric's bound.
        let lines = exact_changes("grid", &parent, &[result(42, 0.93), result(7, 0.9009)]);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("seed 7") && lines[0].contains("tc_ipc_norm"));
        let mut gone = result(42, 0.0);
        gone.exact.clear();
        assert!(exact_changes("grid", &parent, &[gone])[0].ends_with("missing"));
    }

    #[test]
    fn bounds_parse_and_reject_bad_entries() {
        let b = bounds(&repo_benchmark_json()).unwrap();
        assert!(b.iter().any(|m| m.name == "setup_s" && !m.higher_better));
        assert!(
            bounds(r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 0.1}]}"#).is_err()
        );
        assert!(bounds(r#"{"end_to_end": [{"name": "x", "better": "lower"}]}"#).is_err());
        assert!(bounds("{}").is_err());
    }
}
