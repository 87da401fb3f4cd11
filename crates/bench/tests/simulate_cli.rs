//! The `simulate` binary's configuration checks: a value no run can use
//! exits 1 with an "invalid configuration" message before anything is
//! simulated, and a valid crash fraction runs the crash and the recovery
//! check.

use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--machine", "small", "--workload", "queue", "--ops", "20", "--setup", "20"])
        .args(args)
        .output()
        .expect("simulate runs")
}

/// `simulate ARGS` exits 1 before the run, naming the bad setting.
fn assert_rejected(args: &[&str], reason: &str) {
    let out = simulate(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains("invalid configuration") && stderr.contains(reason),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
}

#[test]
fn crash_fractions_outside_zero_to_one_are_rejected_before_the_run() {
    for frac in ["1.5", "-1", "NaN", "inf"] {
        assert_rejected(&["--crash-at", frac], "--crash-at");
    }
}

#[test]
fn an_empty_key_space_is_rejected_before_the_run() {
    assert_rejected(&["--keys", "0"], "key space");
}

#[test]
fn a_valid_crash_fraction_runs_the_recovery_check() {
    for frac in ["0", "0.5", "1"] {
        let out = simulate(&["--crash-at", frac]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "--crash-at {frac}: {stdout}");
        assert!(stdout.contains("committed at crash"), "{stdout}");
        assert!(
            stdout.contains("recovery CONSISTENT (transaction-atomic)"),
            "--crash-at {frac}: {stdout}"
        );
    }
}
