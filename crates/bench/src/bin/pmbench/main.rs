//! `pmbench`: host time, set-up time, memory and the paper's metrics on
//! four workloads, end to end and layer by layer.
//!
//! ```text
//! pmbench [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//!         [--json FILE] [--trace-out DIR]
//! pmbench compare [--benchmark BENCHMARK.json] PARENT.json... -- CHANGE.json...
//! ```
//!
//! Workloads are `grid`, `sharing`, `crash` and `serve` (all four by
//! default); the seed defaults to 42. Each repetition of a workload runs
//! in a fresh child process (this binary re-executed, one child at a
//! time), so the process-wide workload-generation memo starts cold and
//! peak RSS is per repetition. Repetitions continue until `--seconds`
//! have passed, and at least three run. Medians of the host times are
//! reported; simulated metrics must repeat exactly.
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and the end-to-end `metrics`;
//! with `--trace 1` repetitions alternate traced and untraced, and the
//! metrics are the per-layer ones, including the tracing overhead.
//! `--trace-out DIR` writes one traced repetition's spans per workload
//! as Chrome trace-event JSON to `DIR/<workload>.trace.json`. The exit
//! status is non-zero when a correctness check fails. See `README.md`.

mod compare;
mod metrics;
mod span;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use pmacc_telemetry::{Json, ToJson};

use metrics::{Rep, Summary};
use workloads::{Size, Workload};

/// Repetitions a run makes however short `--seconds` is.
const MIN_REPS: usize = 3;
/// The paper's TC IPC relative to Optimal (§5), the model's only
/// reference value.
const PAPER_TC_IPC_NORM: f64 = 0.985;

const USAGE: &str = "usage: pmbench [--workload grid|sharing|crash|serve]... [--seed N] \
                     [--seconds S] [--trace 0|1] [--json FILE] [--trace-out DIR]\n       \
                     pmbench compare [--benchmark BENCHMARK.json] PARENT.json... -- CHANGE.json...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("--child") => child(&args[1..]),
        _ => Opts::parse(&args).and_then(|o| bench(&o)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("pmbench: {e}");
        ExitCode::from(2)
    })
}

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    trace_out: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workloads: Vec::new(),
            seed: 42,
            seconds: 0.0,
            trace: false,
            json: None,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{a} needs a value\n{USAGE}"))
            };
            match a.as_str() {
                "--workload" => o.workloads.push(Workload::parse(value()?)?),
                "--seed" => o.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
                "--seconds" => {
                    o.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a non-negative number")?;
                }
                "--trace" => o.trace = parse_flag(value()?)?,
                "--json" => o.json = Some(value()?.clone()),
                "--trace-out" => o.trace_out = Some(value()?.clone()),
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
            }
        }
        if o.trace_out.is_some() && !o.trace {
            return Err("--trace-out needs --trace 1".to_string());
        }
        if o.workloads.is_empty() {
            o.workloads = Workload::ALL.to_vec();
        }
        Ok(o)
    }
}

fn parse_flag(v: &str) -> Result<bool, String> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--trace takes 0 or 1, not `{other}`")),
    }
}

/// The child side: one repetition, reported as one JSON line.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let [workload, seed, traced, trace_out @ ..] = args else {
        return Err("--child WORKLOAD SEED TRACE [TRACE_FILE]".to_string());
    };
    let workload = Workload::parse(workload)?;
    let seed = seed.parse().map_err(|_| "child seed")?;
    let (rep, tracer) = Rep::measure(workload, seed, Size::Full, parse_flag(traced)?)?;
    if let [path] = trace_out {
        std::fs::write(path, span::chrome_trace(tracer.spans()).to_compact())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", rep.to_json().to_compact());
    Ok(ExitCode::SUCCESS)
}

/// Runs one repetition in a fresh child process and waits for it.
fn spawn_rep(
    workload: Workload,
    seed: u64,
    traced: bool,
    trace_file: Option<&str>,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating pmbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        workload.name(),
        &seed.to_string(),
        if traced { "1" } else { "0" },
    ]);
    cmd.args(trace_file);
    let out = cmd
        .output()
        .map_err(|e| format!("starting a repetition: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!(
            "{} repetition exited with {}",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("repetition printed nothing")?;
    Rep::from_json(&Json::parse(line).map_err(|e| format!("repetition output: {e}"))?)
}

/// Repetitions of one workload until `seconds` have passed (at least
/// [`MIN_REPS`]); with tracing, traced and untraced alternate, traced
/// first.
fn repeat(workload: Workload, o: &Opts) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let traced = o.trace && reps.len() % 2 == 0;
        let trace_file = (traced && reps.is_empty())
            .then(|| {
                o.trace_out
                    .as_ref()
                    .map(|dir| format!("{dir}/{}.trace.json", workload.name()))
            })
            .flatten();
        reps.push(spawn_rep(workload, o.seed, traced, trace_file.as_deref())?);
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if reps.len() >= MIN_REPS && elapsed + per_rep > o.seconds {
            return Ok(reps);
        }
    }
}

fn bench(o: &Opts) -> Result<ExitCode, String> {
    let mut results = Vec::new();
    let mut all_correct = true;
    for &w in &o.workloads {
        let reps = repeat(w, o)?;
        let s = metrics::summarize(&reps);
        print_summary(w, &s, reps.len());
        let values = s.per_layer.as_deref().unwrap_or(&s.end_to_end);
        let line = Json::obj([
            ("correct", (s.failed == 0).to_json()),
            ("attempted", s.attempted.to_json()),
            ("failed", s.failed.to_json()),
            ("metrics", metrics::metrics_json(values)),
        ]);
        println!("{}", line.to_compact());
        all_correct &= s.failed == 0;
        results.push(result_json(w, o.trace, &s, &reps));
    }
    if let Some(path) = &o.json {
        let doc = Json::obj([
            ("schema", "pmbench-v1".to_json()),
            ("seed", o.seed.to_json()),
            ("results", Json::Arr(results)),
        ]);
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload's entry in the `--json` document, as `compare` reads it.
fn result_json(w: Workload, trace: bool, s: &Summary, reps: &[Rep]) -> Json {
    let mut j = Json::obj([
        ("workload", w.name().to_json()),
        ("trace", trace.to_json()),
        ("repetitions", reps.len().to_json()),
        ("attempted", s.attempted.to_json()),
        ("failed", s.failed.to_json()),
        ("metrics", metrics::metrics_json(&s.end_to_end)),
        (
            "exact",
            Json::obj(s.exact.iter().map(|(k, v)| (k.clone(), v.to_json()))),
        ),
    ]);
    if let Some(layers) = &s.per_layer {
        j.set("per_layer", metrics::metrics_json(layers));
    }
    j.set("reps", Json::Arr(reps.iter().map(Rep::to_json).collect()));
    j
}

fn print_summary(w: Workload, s: &Summary, reps: usize) {
    eprintln!(
        "== {} ({reps} repetitions): {} of {} checks failed",
        w.name(),
        s.failed,
        s.attempted
    );
    for m in &s.messages {
        eprintln!("   FAILED {m}");
    }
    for &(name, v) in s.end_to_end.iter().chain(s.per_layer.iter().flatten()) {
        let unit = metrics::unit(name);
        eprint!("   {name:<34} {v:>16.6} {unit}");
        if name == "tc_ipc_norm" && w == Workload::Grid {
            eprint!(
                "  (paper {PAPER_TC_IPC_NORM}, error {:+.4})",
                v - PAPER_TC_IPC_NORM
            );
        }
        eprintln!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    fn names(list: &[(&str, &str)]) -> Vec<String> {
        list.iter().map(|(n, _)| n.to_string()).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = Json::parse(&compare::repo_benchmark_json()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        let mut all = names(&END_TO_END);
        all.extend(names(&PER_LAYER));
        for name in &all {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name `{name}`"
            );
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names repeat");
    }

    /// Each workload path at tiny size: one untraced and one traced
    /// repetition, every metric present and finite, no failed check.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for w in Workload::ALL {
            let (untraced, _) = Rep::measure(w, 7, Size::Tiny, false).unwrap();
            let (traced, tracer) = Rep::measure(w, 7, Size::Tiny, true).unwrap();
            assert!(!tracer.spans().is_empty());
            let reps = [traced, untraced];
            // The child protocol round-trips.
            for r in &reps {
                assert_eq!(
                    &Rep::from_json(&Json::parse(&r.to_json().to_compact()).unwrap()).unwrap(),
                    r
                );
            }
            let s = metrics::summarize(&reps);
            assert_eq!(s.failed, 0, "{}: {:?}", w.name(), s.messages);
            assert!(s.attempted > 2, "{}", w.name());
            let per_layer = s.per_layer.unwrap();
            assert_eq!(
                s.end_to_end
                    .iter()
                    .map(|(n, _)| n.to_string())
                    .collect::<Vec<_>>(),
                names(&END_TO_END)
            );
            assert_eq!(
                per_layer
                    .iter()
                    .map(|(n, _)| n.to_string())
                    .collect::<Vec<_>>(),
                names(&PER_LAYER)
            );
            for (name, v) in s.end_to_end.iter().chain(&per_layer) {
                assert!(v.is_finite(), "{}: {name} = {v}", w.name());
            }
            for (name, v) in &s.end_to_end {
                assert!(*v > 0.0, "{}: {name} = {v}", w.name());
            }
        }
    }
}
