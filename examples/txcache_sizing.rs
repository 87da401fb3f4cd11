//! Size the transaction cache for a workload — the §3 claim that "the
//! capacity of the transaction cache can be flexibly configured based on
//! the transaction sizes of the processor's target applications".
//!
//! Sweeps the per-core TC capacity on the write-heavy `sps` benchmark and
//! reports where stalls and copy-on-write overflows disappear. Every
//! sweep point is an independent simulation, so the sweep fans out over
//! the `pmacc_bench::pool` worker pool through `pmacc_bench::grid::sweep`
//! (`PMACC_JOBS` bounds the worker count); results are keyed by size, so
//! they print in size order regardless of completion order.
//!
//! ```text
//! cargo run --release -p pmacc-bench --example txcache_sizing
//! ```

use std::error::Error;

use pmacc::{RunConfig, System};
use pmacc_bench::grid::sweep;
use pmacc_bench::pool::Options;
use pmacc_cpu::StallKind;
use pmacc_types::{MachineConfig, SchemeKind};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

fn main() -> Result<(), Box<dyn Error>> {
    let mut params = WorkloadParams::evaluation(3);
    params.num_ops = 2_000;

    let sizes = [256u64, 512, 1024, 2048, 4096, 8192];
    let reports = sweep(
        sizes,
        params.seed,
        &Options::default(),
        |size| format!("tc {size} B/sps"),
        move |&size| {
            let mut machine = MachineConfig::dac17_scaled().with_scheme(SchemeKind::TxCache);
            machine.txcache.size_bytes = size;
            System::for_workload(machine, WorkloadKind::Sps, &params, &RunConfig::default())?.run()
        },
    )?;

    println!(
        "{:>8} | {:>9} | {:>11} | {:>9} | {:>12}",
        "TC size", "IPC", "full stalls", "overflows", "drain writes"
    );
    for (size, r) in &reports {
        println!(
            "{:>6} B | {:>9.4} | {:>10.4}% | {:>9} | {:>12}",
            size,
            r.ipc(),
            r.stall_fraction(StallKind::TxCacheFull) * 100.0,
            r.tc_overflows(),
            r.nvm_writes_by(pmacc_types::WriteCause::TxCacheDrain),
        );
    }
    println!("\nThe paper's 4 KB/core point leaves the CPU essentially stall-free (§5.2).");
    Ok(())
}
