#!/usr/bin/env bash
# Tier-1 verification in one command, fully offline.
#
# The workspace has zero external dependencies, so every step below must
# succeed without registry or network access; --offline makes any
# accidental reintroduction of an external crate fail loudly here.
#
# Knobs (all optional):
#   PMACC_PROP_CASES=N   property-test cases per property (default 64)
#   PMACC_FUZZ_CASES=N   crash-recovery fuzz cases (default 24)
set -euo pipefail
cd "$(dirname "$0")"

# gate NAME BASELINE CMD...: runs `CMD --jobs 1 --json A` and
# `CMD --jobs 4 --json B`, requires A and B to be byte-identical (the
# worker pool must be invisible in the results), then requires B to match
# the checked-in BASELINE bit for bit.
gate() {
    local name="$1" baseline="$2"
    shift 2
    local one four
    one="$(mktemp)"
    four="$(mktemp)"
    "$@" --jobs 1 --json "$one" > /dev/null
    "$@" --jobs 4 --json "$four" > /dev/null
    cmp "$one" "$four" \
        || { echo "$name report differs between --jobs 1 and --jobs 4" >&2; exit 1; }
    cmp "$four" "$baseline" \
        || { echo "$name report drifted from $baseline" >&2; exit 1; }
    rm -f "$one" "$four"
}

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo clippy --all-targets --offline -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

# Smoke-run the component microbench suite at one sample per benchmark:
# this is a bit-rot gate (the targets must build and their setup code
# must still hold), not a measurement — real numbers come from
# `cargo bench -p pmacc-bench --bench hotpath` on an idle machine.
echo "==> microbench smoke run (PMACC_BENCH_SAMPLES=1)"
PMACC_BENCH_SAMPLES=1 PMACC_JOBS=1 cargo bench --offline -q -p pmacc-bench \
    --bench hotpath > /dev/null
PMACC_BENCH_SAMPLES=1 PMACC_JOBS=1 cargo bench --offline -q -p pmacc-bench \
    --bench components > /dev/null

# Calibration regression gate: a fresh quick-scale grid's key metrics
# (normalized figure means, per-cell IPC, stall fractions, NVM writes by
# cause) must match baselines/metrics-quick.json within each metric's
# relative tolerance. The same run's metrics are published as
# BENCH_pmacc.json for cross-commit trend tracking. A PR that changes
# calibration *on purpose* refreshes the baseline
# (`regress --write-baseline`, commit the result) — or sets
# PMACC_SKIP_REGRESS=1 while iterating.
if [[ "${PMACC_SKIP_REGRESS:-0}" == "1" ]]; then
    echo "==> regress skipped (PMACC_SKIP_REGRESS=1)"
else
    echo "==> regress --quick (calibration gate, 4 workers)"
    PMACC_JOBS=4 cargo run --release --offline -q -p pmacc-bench --bin regress -- \
        --quick --json BENCH_pmacc.json
fi

# Crash-campaign gate: a quick-scale fault-injection sweep (every scheme
# × workload × {1,2} cores plus the COW-overflow cell, hundreds of
# boundary-clustered crash points per cell) must record zero oracle
# violations in persistent-scheme cells; the report is then re-read with
# --verify to prove the artifact itself parses and validates. Opt out
# with PMACC_SKIP_CRASHGRID=1 while iterating on recovery code.
if [[ "${PMACC_SKIP_CRASHGRID:-0}" == "1" ]]; then
    echo "==> crashgrid skipped (PMACC_SKIP_CRASHGRID=1)"
else
    echo "==> crashgrid --quick (crash-consistency campaign, 4 workers)"
    crashgrid_json="$(mktemp)"
    cargo run --release --offline -q -p pmacc-bench --bin crashgrid -- \
        --quick --jobs 4 --json "$crashgrid_json"
    cargo run --release --offline -q -p pmacc-bench --bin crashgrid -- \
        --verify "$crashgrid_json"
    rm -f "$crashgrid_json"
fi

# Service-benchmark gate: the quick-scale open-system campaign (every
# scheme calibrated closed-loop, then rate-ramped into saturation as a
# KV server under Poisson arrivals) must emit a byte-identical
# pmacc-serve-v1 report at --jobs 1 and --jobs 4, and that report must
# match the checked-in baselines/serve-quick.json bit for bit. A PR
# that changes timing or the campaign shape on purpose regenerates the
# baseline (`serve --quick --json baselines/serve-quick.json`, commit
# the result) — or sets PMACC_SKIP_SERVE=1 while iterating.
if [[ "${PMACC_SKIP_SERVE:-0}" == "1" ]]; then
    echo "==> serve skipped (PMACC_SKIP_SERVE=1)"
else
    echo "==> serve --quick (open-system service benchmark, jobs 1 vs 4)"
    gate serve baselines/serve-quick.json \
        cargo run --release --offline -q -p pmacc-bench --bin serve -- --quick
    cargo run --release --offline -q -p pmacc-bench --bin serve -- \
        --verify baselines/serve-quick.json
fi

# Sharing-sweep gate: the quick-scale cross-core sharing experiment
# (workload × sharing-fraction × scheme, MESI coherence traffic and
# conflict counters, plus the 16-core directory-stress cells that keep
# the LLC sharer-bitmap honest at high core counts) must emit a
# byte-identical JSON report at --jobs 1 and --jobs 4, and that report
# must match the checked-in baselines/sharing-quick.json bit for bit —
# which also pins the coherence layer inert at fraction 0 (those rows
# reproduce the private per-scheme numbers exactly). A PR that changes coherence or timing on
# purpose regenerates the baseline (`reproduce --quick sharing --json
# baselines/sharing-quick.json`, commit the result) — or sets
# PMACC_SKIP_SHARING=1 while iterating.
if [[ "${PMACC_SKIP_SHARING:-0}" == "1" ]]; then
    echo "==> sharing skipped (PMACC_SKIP_SHARING=1)"
else
    echo "==> reproduce --quick sharing (coherence sweep, jobs 1 vs 4)"
    gate sharing baselines/sharing-quick.json \
        cargo run --release --offline -q -p pmacc-bench --bin reproduce -- --quick sharing
fi

# Wear-sweep gate: the quick-scale endurance experiment (workload ×
# scheme × wear-leveling on/off, per-line wear histograms, start-gap
# rotation counters and both lifetime projections) must emit a
# byte-identical JSON report at --jobs 1 and --jobs 4, and that report
# must match the checked-in baselines/wear-quick.json bit for bit —
# which also pins the leveling-off rows to the unremapped memory path
# (those rows must reproduce the plain per-scheme wear profile
# exactly). A PR that changes wear modeling or timing on purpose
# regenerates the baseline (`reproduce --quick wear --json
# baselines/wear-quick.json`, commit the result) — or sets
# PMACC_SKIP_WEAR=1 while iterating.
if [[ "${PMACC_SKIP_WEAR:-0}" == "1" ]]; then
    echo "==> wear skipped (PMACC_SKIP_WEAR=1)"
else
    echo "==> reproduce --quick wear (endurance sweep, jobs 1 vs 4)"
    gate wear baselines/wear-quick.json \
        cargo run --release --offline -q -p pmacc-bench --bin reproduce -- --quick wear
fi

echo "==> ci.sh: all green"
