//! A configurable single-run simulator CLI: pick a scheme, workload,
//! machine and knobs, run it, and get the full measurement report —
//! optionally with a mid-run crash plus recovery check.
//!
//! ```text
//! simulate [--scheme tc|sp|nvllc|optimal|eadr] [--workload NAME]
//!          [--machine dac17|scaled|small] [--ops N] [--setup N]
//!          [--keys N] [--insert-ratio PCT] [--seed N]
//!          [--tc-size BYTES] [--tc-coalesce] [--nvm-write-ns NS]
//!          [--crash-at FRACTION] [--warmup COMMITS] [--dump-trace FILE]
//! ```

use std::process::ExitCode;

use pmacc::energy::{energy_of, EnergyParams};
use pmacc::recovery::{check_recovery, recover, recovery_cost};
use pmacc::{RunConfig, System};
use pmacc_bench::cli::{self, Args};
use pmacc_cpu::StallKind;
use pmacc_types::{ConfigError, MachineConfig, SchemeKind, WriteCause};
use pmacc_workloads::{build, WorkloadKind, WorkloadParams};

const USAGE: &str = "usage: simulate [--scheme S] [--workload W] [--machine M] \
                     [--ops N] [--setup N] [--keys N] [--insert-ratio PCT] \
                     [--seed N] [--tc-size BYTES] [--tc-coalesce] \
                     [--nvm-write-ns NS] [--crash-at FRAC] [--warmup N] \
                     [--dump-trace FILE]";

fn main() -> ExitCode {
    cli::run("simulate", run)
}

fn run() -> Result<ExitCode, String> {
    let mut scheme = SchemeKind::TxCache;
    let mut workload = WorkloadKind::Hashtable;
    let mut machine = MachineConfig::dac17_scaled();
    let mut params = WorkloadParams::evaluation(42);
    params.num_ops = 2_000;
    let mut crash_at: Option<f64> = None;
    let mut dump_trace: Option<String> = None;
    let mut warmup = 0u64;
    let mut tc_size = None;
    let mut tc_coalesce = false;
    let mut nvm_write_ns = None;

    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scheme" => scheme = args.value("--scheme")?,
            "--workload" => workload = args.value("--workload")?,
            "--machine" => {
                machine = match args.value::<String>("--machine")?.as_str() {
                    "dac17" => MachineConfig::dac17(),
                    "scaled" => MachineConfig::dac17_scaled(),
                    "small" => MachineConfig::small(),
                    other => return Err(format!("unknown machine `{other}`")),
                };
            }
            "--ops" => params.num_ops = args.value("--ops")?,
            "--setup" => params.setup_items = args.value("--setup")?,
            "--keys" => params.key_space = args.value("--keys")?,
            "--insert-ratio" => params.insert_ratio = args.value("--insert-ratio")?,
            "--seed" => params.seed = args.value("--seed")?,
            "--tc-size" => tc_size = Some(args.value("--tc-size")?),
            "--tc-coalesce" => tc_coalesce = true,
            "--nvm-write-ns" => nvm_write_ns = Some(args.value("--nvm-write-ns")?),
            "--crash-at" => crash_at = Some(args.value("--crash-at")?),
            "--dump-trace" => dump_trace = Some(args.value("--dump-trace")?),
            "--warmup" => warmup = args.value("--warmup")?,
            "--help" | "-h" => return Ok(cli::help(USAGE)),
            other => return Err(cli::unknown(other)),
        }
    }
    machine.scheme = scheme;
    if let Some(size) = tc_size {
        machine.txcache.size_bytes = size;
    }
    machine.txcache.coalesce = tc_coalesce;
    if let Some(ns) = nvm_write_ns {
        machine.nvm.write_ns = ns;
    }

    params.validate().map_err(|e| e.to_string())?;
    if let Some(frac) = crash_at.filter(|f| !(0.0..=1.0).contains(f)) {
        let e = ConfigError::new(format!("--crash-at must be a fraction in [0, 1], got {frac}"));
        return Err(e.to_string());
    }
    if let Some(path) = &dump_trace {
        let w = build(workload, &params);
        std::fs::write(path, pmacc_cpu::text::to_text(&w.trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("trace written to {path}");
    }

    let build_system = || {
        let rc = RunConfig {
            warmup_commits: warmup,
            ..RunConfig::default()
        };
        System::for_workload(machine.clone(), workload, &params, &rc)
    };

    let report = build_system()
        .and_then(|mut sys| sys.run())
        .map_err(|e| e.to_string())?;

    println!("scheme {scheme} workload {workload} cores {}", machine.cores);
    println!("cycles             {}", report.cycles);
    println!("committed tx       {}", report.total_committed());
    println!("IPC                {:.4}", report.ipc());
    println!("tx/cycle           {:.6}", report.throughput());
    println!("LLC miss rate      {:.2}%", report.llc_miss_rate() * 100.0);
    println!("persistent load    {:.1} cycles", report.persistent_load_latency());
    println!("NVM write traffic  {}", report.nvm_write_traffic());
    for cause in WriteCause::all() {
        let n = report.nvm_writes_by(cause);
        if n > 0 {
            println!("    {cause:<10} {n}");
        }
    }
    println!("dropped LLC writes {}", report.dropped_llc_writes);
    println!("residual owed      {}", report.residual_nvm_lines);
    for kind in StallKind::all() {
        let f = report.stall_fraction(kind);
        if f > 0.0 {
            println!("stall {kind:<18} {:.4}%", f * 100.0);
        }
    }
    let e = energy_of(&report, &EnergyParams::dac17());
    println!(
        "energy             {:.1} µJ (memory share {:.0}%)",
        e.total_nj() / 1000.0,
        e.memory_fraction() * 100.0
    );

    if let Some(frac) = crash_at {
        let crash_cycle = (report.cycles as f64 * frac) as u64;
        let mut sys = build_system().map_err(|e| e.to_string())?;
        sys.run_until(crash_cycle).map_err(|e| e.to_string())?;
        let state = sys.crash_state();
        let cost = recovery_cost(&state, &machine);
        let recovered = recover(&state);
        println!("--- crash at cycle {crash_cycle} ({:.0}% of the run) ---", frac * 100.0);
        println!("committed at crash {}", sys.journal().len());
        println!(
            "recovery: scanned {} words, replayed {} words, ~{:.1} µs",
            cost.words_scanned,
            cost.words_replayed,
            cost.estimated_ns as f64 / 1000.0
        );
        match check_recovery(&state, &recovered) {
            Ok(()) => println!("recovery CONSISTENT (transaction-atomic)"),
            Err(e) => println!("recovery INCONSISTENT: {e}"),
        }
    }
    Ok(ExitCode::SUCCESS)
}
