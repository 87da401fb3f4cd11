//! Bring your own data structure: record a trace from a custom persistent
//! structure (the extension queue and skiplist), run it on the simulated
//! machine under the transaction cache, crash it, and verify recovery.
//!
//! This is the workflow for evaluating how *your* persistent structure
//! behaves on the paper's accelerator.
//!
//! ```text
//! cargo run --release -p pmacc --example custom_structure
//! ```

use std::error::Error;

use pmacc::recovery::{check_recovery, recover};
use pmacc::{RunConfig, System};
use pmacc_types::{MachineConfig, SchemeKind};
use pmacc_workloads::{MemSession, PersistentQueue, SkipList};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Execute the structures functionally while recording a trace.
    let mut session = MemSession::new(2024);
    let queue = PersistentQueue::create(&mut session);
    let index = SkipList::create(&mut session);
    session.start_recording();

    // A tiny producer/indexer program: enqueue work items, index every
    // third one by key, retire the oldest items as we go.
    for item in 0..300u64 {
        queue.enqueue(&mut session, item);
        if item % 3 == 0 {
            index.insert(&mut session, item, item * 7);
        }
        if item % 5 == 4 {
            let _ = queue.dequeue(&mut session);
        }
    }
    queue.check(&session).map_err(Box::<dyn Error>::from)?;
    index.check_invariants(&session).map_err(Box::<dyn Error>::from)?;

    let (trace, initial, _) = session.finish();
    println!(
        "recorded {} ops in {} transactions (write-set p99: {} stores)",
        trace.op_count(),
        trace.transactions(),
        {
            let mut s = trace.tx_store_counts();
            s.sort_unstable();
            s[(s.len() * 99 / 100).min(s.len() - 1)]
        }
    );

    // 2. Run it on the transaction-cache machine (one core).
    let mut machine = MachineConfig::dac17_scaled().with_scheme(SchemeKind::TxCache);
    machine.cores = 1;
    let mut system = System::new(
        machine.clone(),
        vec![trace.clone()],
        &initial,
        &RunConfig::default(),
    )?;
    let report = system.run()?;
    println!(
        "ran in {} cycles: IPC {:.3}, {} NVM writes, {} dropped LLC write-backs",
        report.cycles,
        report.ipc(),
        report.nvm_write_traffic(),
        report.dropped_llc_writes
    );

    // 3. Crash at one third of the run and verify the recovered image.
    let crash_at = report.cycles / 3;
    let mut system = System::new(machine, vec![trace], &initial, &RunConfig::default())?;
    system.run_until(crash_at)?;
    let state = system.crash_state();
    let recovered = recover(&state);
    check_recovery(&state, &recovered).map_err(Box::<dyn Error>::from)?;
    queue
        .check_image(&|a| recovered.read_word(a.word()))
        .map_err(Box::<dyn Error>::from)?;
    println!(
        "crashed at cycle {crash_at} with {} committed transactions: \
         recovery is transaction-atomic and the queue is intact",
        system.journal().len()
    );
    Ok(())
}
