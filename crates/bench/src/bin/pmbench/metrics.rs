//! One repetition's measurements, and the metrics a run reports from
//! its repetitions.

use pmacc_telemetry::{Json, ToJson};

use crate::span::{self, Kind, Tracer};
use crate::stats::{median, quantile, tail_quantile};
use crate::workloads::{self, Size, Workload};

/// End-to-end metrics (`--trace 0`), with units. `BENCHMARK.json` lists
/// the same names, with their bounds and directions.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("peak_rss_mib", "MiB"),
    ("tc_ipc_norm", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units, layer by layer.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("workloads.trace_ops", "count"),
    ("core.new_s", "s"),
    ("core.systems", "count"),
    ("engine.run_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.wakes_scheduled", "count"),
    ("engine.wakes_coalesced", "count"),
    ("engine.idle_frac", "fraction"),
    ("engine.cycles", "cycles"),
    ("cpu.instr", "count"),
    ("cpu.stall_frac.load", "fraction"),
    ("cpu.stall_frac.store-buffer-full", "fraction"),
    ("cpu.stall_frac.fence", "fraction"),
    ("cpu.stall_frac.txcache-full", "fraction"),
    ("cpu.stall_frac.commit-flush", "fraction"),
    ("cpu.stall_frac.pin-blocked", "fraction"),
    ("cpu.stall_frac.conflict", "fraction"),
    ("cache.l1_miss_rate", "fraction"),
    ("cache.l2_miss_rate", "fraction"),
    ("cache.llc_miss_rate", "fraction"),
    ("cache.snoop_invals", "count"),
    ("cache.interventions", "count"),
    ("cache.shared_fills", "count"),
    ("cache.back_invals", "count"),
    ("tc.inserts", "count"),
    ("tc.probe_hit_rate", "fraction"),
    ("tc.full_rejections", "count"),
    ("tc.overflows", "count"),
    ("tc.high_water", "entries"),
    ("mem.nvm_reads", "count"),
    ("mem.nvm_writes", "count"),
    ("mem.nvm_row_hit_rate", "fraction"),
    ("mem.nvm_read_lat", "cycles"),
    ("mem.nvm_write_lat", "cycles"),
    ("mem.rejected", "count"),
    ("recovery.snapshot_s", "s"),
    ("recovery.recover_s", "s"),
    ("recovery.check_s", "s"),
    ("recovery.check_us_p50", "us"),
    ("recovery.check_us_tail", "us"),
    ("recovery.points", "count"),
    ("recovery.violations", "count"),
    ("recovery.control_detections", "count"),
    ("serve.setup_s", "s"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.backpressure_events", "count"),
    ("serve.wait_p99_cycles", "cycles"),
    ("serve.tc_stall_share", "fraction"),
    ("serve.tc_p50_cycles", "cycles"),
    ("serve.tc_p99_cycles", "cycles"),
    ("serve.tc_p999_cycles", "cycles"),
    ("serve.tc_samples", "count"),
    ("serve.tc_ceiling", "req/kcycle"),
    ("telemetry.report_s", "s"),
    ("bench.self_s", "s"),
    ("bench.host_speed", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
];

/// The measurements of one repetition of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Whether spans were recorded.
    pub traced: bool,
    /// The host's speed relative to the nominal one ([`Tracer::speed`]);
    /// the host times below are as measured, and are multiplied by it
    /// when reported.
    pub speed: f64,
    /// Host seconds for the whole repetition, reference slices excluded.
    pub wall_s: f64,
    /// Host seconds in workload generation, construction and serve set-up.
    pub setup_s: f64,
    /// Host seconds inside `System::run`/`run_until`.
    pub engine_s: f64,
    /// Trace ops retired in those calls.
    pub ops: u64,
    /// Peak resident set of the process, MiB.
    pub rss_mib: f64,
    /// Correctness checks run.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// What failed (the first few).
    pub messages: Vec<String>,
    /// Simulated metrics: identical for every repetition of one seed.
    pub exact: Vec<(String, f64)>,
    /// Per-layer host self times (traced repetitions only).
    pub host: Vec<(String, f64)>,
}

impl Rep {
    /// Runs one repetition in this process; returns it with its tracer.
    ///
    /// # Errors
    ///
    /// Returns a simulation error or an unreadable peak-RSS figure.
    pub fn measure(
        workload: Workload,
        seed: u64,
        size: Size,
        traced: bool,
    ) -> Result<(Rep, Tracer), String> {
        let mut t = Tracer::new(traced);
        let out = workloads::run(workload, seed, size, &mut t)?;
        let host = if traced {
            host_layers(t.spans())
        } else {
            Vec::new()
        };
        let rep = Rep {
            traced,
            speed: t.speed(),
            wall_s: t.total_s(Kind::Workload) - t.total_s(Kind::Reference),
            setup_s: t.total_s(Kind::Build) + t.total_s(Kind::New) + t.total_s(Kind::ServeSetup),
            engine_s: t.total_s(Kind::Run) + t.total_s(Kind::RunUntil),
            ops: out.ops,
            rss_mib: peak_rss_mib()?,
            attempted: out.checks.attempted,
            failed: out.checks.failed,
            messages: out.checks.messages.clone(),
            exact: out
                .exact()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            host,
        };
        Ok((rep, t))
    }

    /// Retired trace ops per microsecond of engine time at nominal
    /// speed.
    pub fn sim_mips(&self) -> f64 {
        self.ops as f64 / (self.engine_s * self.speed) / 1e6
    }

    /// The repetition as one JSON object (the child-to-parent protocol).
    pub fn to_json(&self) -> Json {
        let pairs =
            |v: &[(String, f64)]| Json::obj(v.iter().map(|(k, x)| (k.clone(), x.to_json())));
        Json::obj([
            ("traced", self.traced.to_json()),
            ("speed", self.speed.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("setup_s", self.setup_s.to_json()),
            ("engine_s", self.engine_s.to_json()),
            ("ops", self.ops.to_json()),
            ("rss_mib", self.rss_mib.to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            (
                "messages",
                Json::Arr(self.messages.iter().map(|m| m.to_json()).collect()),
            ),
            ("exact", pairs(&self.exact)),
            ("host", pairs(&self.host)),
        ])
    }

    /// Parses [`Rep::to_json`]'s output.
    ///
    /// # Errors
    ///
    /// Names the first missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<Rep, String> {
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repetition lacks `{k}`"))
        };
        let pairs = |k: &str| -> Result<Vec<(String, f64)>, String> {
            doc.get(k)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("repetition lacks `{k}`"))?
                .iter()
                .map(|(name, v)| {
                    v.as_f64()
                        .map(|x| (name.clone(), x))
                        .ok_or_else(|| format!("`{k}.{name}` is not a number"))
                })
                .collect()
        };
        Ok(Rep {
            traced: doc.get("traced") == Some(&Json::Bool(true)),
            speed: num("speed")?,
            wall_s: num("wall_s")?,
            setup_s: num("setup_s")?,
            engine_s: num("engine_s")?,
            ops: num("ops")? as u64,
            rss_mib: num("rss_mib")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            messages: doc
                .get("messages")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|m| m.as_str().map(str::to_string))
                .collect(),
            exact: pairs("exact")?,
            host: pairs("host")?,
        })
    }

    fn exact(&self, name: &str) -> f64 {
        lookup(&self.exact, name)
    }
}

fn lookup(pairs: &[(String, f64)], name: &str) -> f64 {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// Per-layer host seconds from a traced repetition's spans: each
/// layer's self time, plus the recovery check's per-point latency.
fn host_layers(spans: &[span::Span]) -> Vec<(String, f64)> {
    let own = span::self_s_by_kind(spans);
    let checks = span::durations_us(spans, Kind::Check);
    let tail = |q: f64| {
        if checks.is_empty() {
            0.0
        } else {
            quantile(&checks, q)
        }
    };
    [
        ("workloads.build_s", own(Kind::Build)),
        ("core.new_s", own(Kind::New)),
        ("serve.setup_s", own(Kind::ServeSetup)),
        ("engine.run_s", own(Kind::Run) + own(Kind::RunUntil)),
        ("recovery.snapshot_s", own(Kind::Snapshot)),
        ("recovery.recover_s", own(Kind::Recover)),
        ("recovery.check_s", own(Kind::Check)),
        ("recovery.check_us_p50", tail(0.5)),
        (
            "recovery.check_us_tail",
            tail(tail_quantile(checks.len()).unwrap_or(1.0)),
        ),
        ("telemetry.report_s", own(Kind::Report)),
        (
            "bench.self_s",
            own(Kind::Workload) + own(Kind::Cell) + own(Kind::Point),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What a run of several repetitions reports.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Checks run, including the cross-repetition determinism checks.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// What failed (the first few per repetition).
    pub messages: Vec<String>,
    /// End-to-end metrics from the untraced repetitions, by name.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics, when any repetition was traced.
    pub per_layer: Option<Vec<(&'static str, f64)>>,
    /// The simulated metrics of the first repetition.
    pub exact: Vec<(String, f64)>,
}

/// Combines repetitions of one workload and seed: medians of host
/// times, and the simulated metrics, which must not differ between
/// repetitions.
///
/// # Panics
///
/// Panics without an untraced repetition.
pub fn summarize(reps: &[Rep]) -> Summary {
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    assert!(!untraced.is_empty(), "a run needs an untraced repetition");
    let med =
        |rs: &[&Rep], f: &dyn Fn(&Rep) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let first = &reps[0];
    let mut attempted = 0;
    let mut failed = 0;
    let mut messages = Vec::new();
    for r in reps {
        attempted += r.attempted;
        failed += r.failed;
        messages.extend(r.messages.iter().cloned());
    }
    for (i, r) in reps.iter().enumerate().skip(1) {
        attempted += 1;
        if r.exact != first.exact {
            failed += 1;
            messages.push(format!(
                "repetition {i}: simulated metrics differ from repetition 0 (same seed)"
            ));
        }
    }
    // Host times at nominal speed (see `Tracer::speed`).
    let wall = |r: &Rep| r.wall_s * r.speed;
    let host = |r: &Rep, name: &str| lookup(&r.host, name) * r.speed;
    let end_to_end = vec![
        ("wall_s", med(&untraced, &wall)),
        ("setup_s", med(&untraced, &|r| r.setup_s * r.speed)),
        ("sim_mips", med(&untraced, &Rep::sim_mips)),
        ("peak_rss_mib", med(&untraced, &|r| r.rss_mib)),
        ("tc_ipc_norm", first.exact("tc_ipc_norm")),
    ];
    let per_layer = (!traced.is_empty()).then(|| {
        let traced_wall = med(&traced, &wall);
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let v = match name {
                    "engine.ns_per_event" => med(&traced, &|r| {
                        host(r, "engine.run_s") * 1e9 / r.exact("engine.events")
                    }),
                    "bench.host_speed" => med(&reps.iter().collect::<Vec<_>>(), &|r| r.speed),
                    "trace.wall_s" => traced_wall,
                    "trace.overhead" => traced_wall / med(&untraced, &wall) - 1.0,
                    _ if traced[0].host.iter().any(|(k, _)| k == name) => {
                        med(&traced, &|r| host(r, name))
                    }
                    _ => first.exact(name),
                };
                (name, v)
            })
            .collect()
    });
    Summary {
        attempted,
        failed,
        messages,
        end_to_end,
        per_layer,
        exact: first.exact.clone(),
    }
}

/// A metric's unit, from [`END_TO_END`] or [`PER_LAYER`].
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Metrics with their units as the `metrics` object of the result line.
pub fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    Json::obj(values.iter().map(|&(name, v)| {
        (
            name,
            Json::obj([("value", v.to_json()), ("unit", unit(name).to_json())]),
        )
    }))
}
