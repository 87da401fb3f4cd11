//! Pins the shape of the machine-readable run report.
//!
//! External consumers — plotting scripts, the `regress` gate's
//! baselines, anything parsing `reproduce --json` — key into the
//! document by path. This snapshot walks every object key reachable
//! from a real (tiny) run's [`pmacc::RunReport`] JSON and compares the
//! sorted path list against a checked-in expectation, so renaming or
//! dropping a field is a deliberate, reviewed act: update `EXPECTED`
//! here *and* bump the consumers.
//!
//! Arrays are traversed through their first element (spelled `[]` in a
//! path); keys that vary per run (none today) must not be added.

use pmacc::{RunConfig, System};
use pmacc_telemetry::{Json, ToJson};
use pmacc_types::MachineConfig;
use pmacc_workloads::{WorkloadKind, WorkloadParams};

/// Every object key reachable from `j`, depth-first, as `a.b[].c`
/// paths.
fn key_paths(j: &Json, prefix: &str, out: &mut Vec<String>) {
    match j {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.push(path.clone());
                key_paths(v, &path, out);
            }
        }
        Json::Arr(items) => {
            if let Some(first) = items.first() {
                key_paths(first, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

fn tiny_report_json() -> Json {
    let mut machine = MachineConfig::small();
    machine.cores = 2;
    let mut params = WorkloadParams::tiny(7);
    params.num_ops = 200;
    let run_cfg = RunConfig {
        // Small enough that even this tiny run records samples, so the
        // series schema is exercised.
        sample_period: 64,
        ..RunConfig::default()
    };
    let mut sys = System::for_workload(machine, WorkloadKind::Sps, &params, &run_cfg)
        .expect("tiny system builds");
    sys.run().expect("tiny run completes").to_json()
}

/// The full sorted key-path inventory of a `RunReport` document. When a
/// change here is intentional, regenerate by running this test and
/// copying the printed inventory.
const EXPECTED: &str = "\
cores
cores[].conflict_overrides
cores[].cycles
cores[].ipc
cores[].load_latency
cores[].load_latency.buckets
cores[].load_latency.count
cores[].load_latency.max
cores[].load_latency.mean
cores[].load_latency.sum
cores[].loads
cores[].ops
cores[].persistent_load_latency
cores[].persistent_load_latency.buckets
cores[].persistent_load_latency.count
cores[].persistent_load_latency.max
cores[].persistent_load_latency.mean
cores[].persistent_load_latency.sum
cores[].stall_cycles
cores[].stall_cycles.commit-flush
cores[].stall_cycles.conflict
cores[].stall_cycles.fence
cores[].stall_cycles.load
cores[].stall_cycles.pin-blocked
cores[].stall_cycles.store-buffer-full
cores[].stall_cycles.txcache-full
cores[].stall_fractions
cores[].stall_fractions.commit-flush
cores[].stall_fractions.conflict
cores[].stall_fractions.fence
cores[].stall_fractions.load
cores[].stall_fractions.pin-blocked
cores[].stall_fractions.store-buffer-full
cores[].stall_fractions.txcache-full
cores[].stores
cores[].tx_committed
cores[].tx_conflicts
cores[].tx_throughput
cycles
dram
dram.coalesced_writes
dram.drain_issues
dram.endurance
dram.endurance.gap_rotations
dram.endurance.histogram
dram.endurance.histogram.buckets
dram.endurance.histogram.count
dram.endurance.histogram.max
dram.endurance.histogram.mean
dram.endurance.histogram.sum
dram.endurance.hottest_line
dram.endurance.hottest_line_writes
dram.endurance.imbalance
dram.endurance.lines
dram.endurance.lines_written
dram.endurance.max_writes_per_line
dram.endurance.mean_writes_per_line
dram.endurance.p99_writes_per_line
dram.endurance.relocation_writes
dram.read_latency
dram.read_latency.buckets
dram.read_latency.count
dram.read_latency.max
dram.read_latency.mean
dram.read_latency.sum
dram.reads
dram.rejected
dram.row_hits
dram.row_hits.fraction
dram.row_hits.hits
dram.row_hits.total
dram.write_latency
dram.write_latency.buckets
dram.write_latency.count
dram.write_latency.max
dram.write_latency.mean
dram.write_latency.sum
dram.writes
dram.writes_by_cause
dram.writes_by_cause.cow
dram.writes_by_cause.eviction
dram.writes_by_cause.flush
dram.writes_by_cause.log
dram.writes_by_cause.recovery
dram.writes_by_cause.tc-drain
dropped_llc_writes
engine
engine.events_processed
engine.idle_cycles_skipped
engine.wakes_coalesced
engine.wakes_scheduled
hierarchy
hierarchy.coherence
hierarchy.coherence.back_invalidations
hierarchy.coherence.bus_upgrades
hierarchy.coherence.dirty_persistent_invalidations
hierarchy.coherence.downgrades
hierarchy.coherence.interventions
hierarchy.coherence.remote_invalidations
hierarchy.coherence.shared_fills
hierarchy.l1
hierarchy.l1[].accesses
hierarchy.l1[].accesses.fraction
hierarchy.l1[].accesses.hits
hierarchy.l1[].accesses.total
hierarchy.l1[].dirty_evictions
hierarchy.l1[].evictions
hierarchy.l1[].forced_unpins
hierarchy.l1[].miss_rate
hierarchy.l1[].persistent_dirty_evictions
hierarchy.l1[].pin_blocked
hierarchy.l2
hierarchy.l2[].accesses
hierarchy.l2[].accesses.fraction
hierarchy.l2[].accesses.hits
hierarchy.l2[].accesses.total
hierarchy.l2[].dirty_evictions
hierarchy.l2[].evictions
hierarchy.l2[].forced_unpins
hierarchy.l2[].miss_rate
hierarchy.l2[].persistent_dirty_evictions
hierarchy.l2[].pin_blocked
hierarchy.llc
hierarchy.llc.accesses
hierarchy.llc.accesses.fraction
hierarchy.llc.accesses.hits
hierarchy.llc.accesses.total
hierarchy.llc.dirty_evictions
hierarchy.llc.evictions
hierarchy.llc.forced_unpins
hierarchy.llc.miss_rate
hierarchy.llc.persistent_dirty_evictions
hierarchy.llc.pin_blocked
ipc
llc_miss_rate
nvm
nvm.coalesced_writes
nvm.drain_issues
nvm.endurance
nvm.endurance.gap_rotations
nvm.endurance.histogram
nvm.endurance.histogram.buckets
nvm.endurance.histogram.count
nvm.endurance.histogram.max
nvm.endurance.histogram.mean
nvm.endurance.histogram.sum
nvm.endurance.hottest_line
nvm.endurance.hottest_line_writes
nvm.endurance.imbalance
nvm.endurance.lines
nvm.endurance.lines_written
nvm.endurance.max_writes_per_line
nvm.endurance.mean_writes_per_line
nvm.endurance.p99_writes_per_line
nvm.endurance.relocation_writes
nvm.read_latency
nvm.read_latency.buckets
nvm.read_latency.count
nvm.read_latency.max
nvm.read_latency.mean
nvm.read_latency.sum
nvm.reads
nvm.rejected
nvm.row_hits
nvm.row_hits.fraction
nvm.row_hits.hits
nvm.row_hits.total
nvm.write_latency
nvm.write_latency.buckets
nvm.write_latency.count
nvm.write_latency.max
nvm.write_latency.mean
nvm.write_latency.sum
nvm.writes
nvm.writes_by_cause
nvm.writes_by_cause.cow
nvm.writes_by_cause.eviction
nvm.writes_by_cause.flush
nvm.writes_by_cause.log
nvm.writes_by_cause.recovery
nvm.writes_by_cause.tc-drain
nvm_completed_writes
nvm_write_traffic
persistent_load_latency_mean
residual_nvm_lines
scheme
series
series.channels
series.dropped
series.period
series.samples
stall_fractions
stall_fractions.commit-flush
stall_fractions.conflict
stall_fractions.fence
stall_fractions.load
stall_fractions.pin-blocked
stall_fractions.store-buffer-full
stall_fractions.txcache-full
tc
tc[].acks
tc[].coalesced
tc[].commits
tc[].full_rejections
tc[].high_water
tc[].inserts
tc[].overflows
tc[].probe_hits
tc[].probe_misses
tc[].remote_invalidations
tc_overflows
throughput
tx_committed";

#[test]
fn run_report_schema_is_stable() {
    let mut paths = Vec::new();
    key_paths(&tiny_report_json(), "", &mut paths);
    paths.sort();
    paths.dedup();
    let actual = paths.join("\n");
    assert_eq!(
        actual, EXPECTED,
        "RunReport JSON schema changed; if intentional, replace EXPECTED with:\n{actual}\n"
    );
}

#[test]
fn headline_metrics_are_numbers() {
    let j = tiny_report_json();
    for key in ["ipc", "throughput", "llc_miss_rate", "persistent_load_latency_mean"] {
        let v = j.get(key).and_then(Json::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "`{key}` should be a finite number, got {:?}",
            j.get(key)
        );
    }
    assert!(
        !j.get("series")
            .and_then(|s| s.get("samples"))
            .and_then(Json::as_arr)
            .expect("series.samples is an array")
            .is_empty(),
        "a 64-cycle sample period must record samples"
    );
}
