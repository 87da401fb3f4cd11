//! The parallel experiment runner must be *invisible* in the results:
//! the same seed has to produce a bit-identical grid at any worker
//! count, and a panicking cell must fail the whole batch with the
//! offending cell named rather than tearing down a worker thread.
//!
//! This is the regression gate for `pmacc_bench::pool` and the keyed
//! `pmacc_bench::grid::sweep` over it — every (workload, scheme) cell
//! owns its entire simulated machine, so the only way parallelism can
//! change results is a shared-state bug.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pmacc::RunConfig;
use pmacc_bench::grid::{run_grid_opts, sweep, Scale};
use pmacc_bench::pool::{run_jobs, Job, Options};
use pmacc_bench::report;
use pmacc_types::SimError;

/// Every digit of every statistic, not just the headline metrics: the
/// `Debug` rendering covers all public fields of every report.
fn fingerprint(grid: &pmacc_bench::GridResults) -> String {
    format!("{:?}", grid.results)
}

#[test]
fn quick_grid_is_bit_identical_at_jobs_1_and_jobs_4() {
    let serial = run_grid_opts(
        Scale::Quick,
        42,
        &RunConfig::default(),
        &Options {
            jobs: 1,
            progress: false,
        },
    )
    .expect("serial grid runs");
    let parallel = run_grid_opts(
        Scale::Quick,
        42,
        &RunConfig::default(),
        &Options {
            jobs: 4,
            progress: false,
        },
    )
    .expect("parallel grid runs");
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "a 4-worker grid diverged from the serial baseline at the same seed"
    );
    // The machine-readable document must be byte-identical too — it is
    // what the regression gate and external plotting consume, so any
    // worker-count dependence (map ordering, float formatting) would
    // poison checked-in baselines.
    let json_serial = report::full_report(Scale::Quick, 42, Some(&serial), &[]).to_pretty();
    let json_parallel = report::full_report(Scale::Quick, 42, Some(&parallel), &[]).to_pretty();
    assert_eq!(
        json_serial, json_parallel,
        "reproduce --json output depends on the worker count"
    );
}

#[test]
fn pool_preserves_submission_order_with_unequal_job_durations() {
    // The first-submitted jobs sleep longest, so with 4 workers the
    // completion order is roughly the reverse of submission order; the
    // returned Vec must still be in submission order.
    let jobs: Vec<Job<usize>> = (0..8)
        .map(|i| {
            Job::new(format!("sleepy {i}"), move || {
                std::thread::sleep(std::time::Duration::from_millis((8 - i) as u64 * 15));
                i
            })
        })
        .collect();
    let out = run_jobs(jobs, 4, false).expect("no panics");
    assert_eq!(out, (0..8).collect::<Vec<_>>());

    // The same shape through `sweep`: keyed results are identical at
    // jobs 1 and jobs 4.
    let keyed = |jobs| {
        sweep(
            (0..8u64).rev(),
            42,
            &Options { jobs, progress: false },
            |i| format!("sleepy {i}"),
            |&i| {
                std::thread::sleep(Duration::from_millis((8 - i) * 15));
                Ok::<u64, SimError>(i * i)
            },
        )
        .expect("no errors")
    };
    let serial = keyed(1);
    assert_eq!(serial, keyed(4));
    let expect: Vec<(u64, u64)> = (0..8).map(|i| (i, i * i)).collect();
    assert_eq!(serial.into_iter().collect::<Vec<_>>(), expect);
}

#[test]
fn pool_panic_names_the_offending_cell() {
    let jobs: Vec<Job<Result<u64, SimError>>> = vec![
        Job::new("rbtree/tc", || Ok(1)),
        Job::new("sps/nvllc seed 42", || {
            panic!("deadlock at cycle 1234")
        }),
        Job::new("btree/sp", || Ok(3)),
    ];
    let err = run_jobs(jobs, 4, false).expect_err("the panic must surface");
    assert_eq!(err.label, "sps/nvllc seed 42");
    assert!(
        err.message.contains("deadlock at cycle 1234"),
        "panic payload lost: {}",
        err.message
    );

    // Through `sweep`, the panic is re-raised naming the label and seed.
    let payload = catch_unwind(AssertUnwindSafe(|| {
        sweep(
            ["rbtree/tc", "sps/nvllc", "btree/sp"],
            42,
            &Options { jobs: 4, progress: false },
            |k| (*k).to_string(),
            |&k| {
                assert!(k != "sps/nvllc", "deadlock at cycle 1234");
                Ok::<u64, SimError>(1)
            },
        )
    }))
    .expect_err("the panic must surface");
    let message = payload.downcast_ref::<String>().expect("string payload");
    assert!(message.contains("sps/nvllc"), "label lost: {message}");
    assert!(message.contains("seed 42"), "seed lost: {message}");
    assert!(message.contains("deadlock at cycle 1234"), "payload lost: {message}");
}

#[test]
fn pool_panic_does_not_lose_the_batch_silently() {
    // A panicking cell in the middle must not let the caller observe a
    // truncated-but-Ok result vector.
    let jobs: Vec<Job<u8>> = (0..8)
        .map(|i| {
            Job::new(format!("cell {i}"), move || {
                assert!(i != 3, "cell 3 is broken");
                i
            })
        })
        .collect();
    assert!(run_jobs(jobs, 2, false).is_err());

    // A failing `sweep` returns the first error in *key* order, even
    // when a later key fails first in wall-clock time: cell 1 fails only
    // after cell 6 has failed.
    let six_failed = Arc::new((Mutex::new(false), Condvar::new()));
    let err = sweep(
        0..8u64,
        42,
        &Options { jobs: 4, progress: false },
        |i| format!("cell {i}"),
        move |&i| {
            let (failed, cv) = &*six_failed;
            match i {
                1 => {
                    let guard = failed.lock().expect("flag lock");
                    drop(cv.wait_while(guard, |f| !*f).expect("flag lock"));
                    Err(format!("cell {i} failed late"))
                }
                6 => {
                    *failed.lock().expect("flag lock") = true;
                    cv.notify_all();
                    Err(format!("cell {i} failed early"))
                }
                _ => Ok(i),
            }
        },
    )
    .expect_err("a failing cell must surface");
    assert_eq!(err, "cell 1 failed late");
}
