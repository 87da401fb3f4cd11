//! The crash checker against its full-image oracle. [`check_recovery`]
//! diffs only the lines the committed and recovered images wrote since
//! the frozen initial image; [`oracle_check`] is the full-image merge
//! checker it replaced: it replays the journal over the initial image and
//! walks every heap word of both images. The two must return identical
//! `Result`s — the same mismatches in the same order, the same first-16
//! truncation and the same total — on random images and at every point
//! of tiny forward crash walks. Replayable via `PMACC_PROP_SEED`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pmacc::recovery::{check_recovery, recover, CrashState, DurableState, RecoveryError, TxRecord};
use pmacc::{RunConfig, System};
use pmacc_bench::crashgrid::{CellSpec, Mutation};
use pmacc_mem::Backing;
use pmacc_prop::Gen;
use pmacc_types::{layout, Cycle, SchemeKind, TxId, Word, WordAddr};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

/// The full-image checker: `initial` with `journal` replayed is the
/// expected image; every heap word either image holds is compared by one
/// merge of their sorted word streams; then each in-flight transaction
/// may explain its mismatches, all of its heap words or none.
fn oracle_check(
    initial: &Backing,
    journal: &[TxRecord],
    in_flight: &[Option<TxRecord>],
    recovered: &Backing,
) -> Result<(), RecoveryError> {
    let heap_base = layout::persistent_heap_base().word();
    let mut expected = initial.clone();
    for rec in journal {
        expected.extend(rec.writes.iter().copied());
    }
    let mut mismatches: Vec<(WordAddr, Word, Word)> = Vec::new();
    let mut want = expected.iter().filter(|&(w, _)| w >= heap_base).peekable();
    let mut got = recovered.iter().filter(|&(w, _)| w >= heap_base).peekable();
    loop {
        let w = match (want.peek(), got.peek()) {
            (Some(&(a, _)), Some(&(b, _))) => a.min(b),
            (Some(&(w, _)), None) | (None, Some(&(w, _))) => w,
            (None, None) => break,
        };
        let e = want.next_if(|&(x, _)| x == w).map_or(0, |(_, v)| v);
        let r = got.next_if(|&(x, _)| x == w).map_or(0, |(_, v)| v);
        if e != r {
            mismatches.push((w, e, r));
        }
    }
    drop(want);
    if !mismatches.is_empty() {
        let mut with_in_flight = expected;
        for rec in in_flight.iter().flatten() {
            with_in_flight.extend(rec.writes.iter().copied());
        }
        for rec in in_flight.iter().flatten() {
            let words: BTreeSet<WordAddr> = rec
                .writes
                .iter()
                .map(|&(w, _)| w)
                .filter(|w| *w >= heap_base)
                .collect();
            if words
                .iter()
                .all(|&w| recovered.read_word(w) == with_in_flight.read_word(w))
            {
                mismatches.retain(|(w, _, _)| !words.contains(w));
            }
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        let total = mismatches.len();
        mismatches.truncate(16);
        Err(RecoveryError { mismatches, total })
    }
}

/// Heap lines the random images address: few, so writes collide.
const HEAP_LINES: u64 = 6;

/// A heap word in the first [`HEAP_LINES`] lines.
fn heap_word(g: &mut Gen) -> WordAddr {
    let i = g.gen_range(0..HEAP_LINES * 8);
    layout::persistent_heap_base().offset(i * 8).word()
}

/// A word of core 0's log area, below the heap: scheme-private scratch.
fn log_word(g: &mut Gen) -> WordAddr {
    layout::log_area_base(0)
        .offset(g.gen_range(0..32u64) * 8)
        .word()
}

/// Small values, zero included: a written zero is still a written word.
fn value(g: &mut Gen) -> Word {
    g.gen_range(0..4u64)
}

fn writes(g: &mut Gen, max: usize) -> Vec<(WordAddr, Word)> {
    g.vec(0..max, |g| (heap_word(g), value(g)))
}

fn record(tx: u64, writes: Vec<(WordAddr, Word)>) -> TxRecord {
    TxRecord {
        tx: TxId::new(0, tx),
        commit_cycle: tx,
        writes,
    }
}

#[test]
fn overlay_checker_matches_the_full_image_oracle_on_random_images() {
    pmacc_prop::check(
        "overlay_checker_matches_the_full_image_oracle_on_random_images",
        |g| {
            let mut init = writes(g, 30);
            init.extend(g.vec(0..4, |g| (log_word(g), value(g))));
            let initial: Backing = init.into_iter().collect();
            let journal: Vec<TxRecord> = (0..g.gen_range(0..6u64))
                .map(|t| record(t, writes(g, 8)))
                .collect();
            let in_flight: Vec<Option<TxRecord>> = (0..g.gen_range(1..4usize))
                .map(|c| {
                    g.gen_bool(0.6)
                        .then(|| record(100 + c as u64, writes(g, 6)))
                })
                .collect();
            // A recovered image near the committed one: a prefix of the
            // journal, whole or partial in-flight transactions, stray heap
            // writes (sometimes enough to pass the first-16 truncation) and
            // log-area noise.
            let mut recovered = initial.clone();
            let replayed = g.gen_range(0..journal.len() + 1);
            let replayed = if g.gen_bool(0.5) {
                journal.len()
            } else {
                replayed
            };
            for rec in &journal[..replayed] {
                recovered.extend(rec.writes.iter().copied());
            }
            for rec in in_flight.iter().flatten() {
                if g.gen_bool(0.5) {
                    let n = g.gen_range(0..rec.writes.len() + 1);
                    let n = if g.gen_bool(0.5) { rec.writes.len() } else { n };
                    recovered.extend(rec.writes[..n].iter().copied());
                }
            }
            if g.gen_bool(0.3) {
                let stray = writes(g, 40);
                recovered.extend(stray);
            }
            let noise = g.vec(0..8, |g| (log_word(g), value(g)));
            recovered.extend(noise);

            let mut committed = initial.base();
            for rec in &journal {
                committed.extend(rec.writes.iter().copied());
            }
            let state = CrashState {
                scheme: SchemeKind::Optimal,
                cycle: 0,
                cores: in_flight.len(),
                nvm: Backing::new(),
                wear: None,
                committed: Arc::new(committed),
                durable: DurableState::NvmOnly,
                in_flight,
            };
            let want = oracle_check(&initial, &journal, &state.in_flight, &recovered);
            assert_eq!(check_recovery(&state, &recovered), want, "shared base");
            // The same words frozen into a base of their own: the diff then
            // walks both images whole.
            let frozen: Backing = recovered.iter().collect();
            assert_eq!(check_recovery(&state, &frozen), want, "distinct bases");
        },
    );
}

/// The crash points of one forward walk: every distinct boundary cycle
/// of a learning run and the cycle after it, evenly spaced points and
/// the quiescent point.
fn walk_points(spec: &CellSpec, params: &WorkloadParams) -> BTreeSet<Cycle> {
    let rc = RunConfig {
        record_boundaries: true,
        ..RunConfig::default()
    };
    let mut learn = System::for_workload(spec.machine(), spec.workload, params, &rc).unwrap();
    let total = learn.run().unwrap().cycles;
    let mut points: BTreeSet<Cycle> = learn
        .boundaries()
        .iter()
        .flat_map(|&(t, _)| [t, t + 1])
        .collect();
    points.extend((1..=64).map(|i| total * i / 64));
    points.insert(total + 1_000);
    points
}

#[test]
fn overlay_checker_matches_the_full_image_oracle_on_forward_walks() {
    let cell = |workload, scheme, sharing, wear| CellSpec {
        workload,
        scheme,
        cores: if sharing > 0 || wear { 2 } else { 1 },
        tc_entries: None,
        sharing,
        wear,
    };
    let mut cells = Vec::new();
    for workload in [WorkloadKind::Sps, WorkloadKind::Btree] {
        cells.extend(SchemeKind::all().map(|s| cell(workload, s, 0, false)));
    }
    cells.push(cell(WorkloadKind::Sps, SchemeKind::TxCache, 4, false));
    cells.push(cell(WorkloadKind::Sps, SchemeKind::TxCache, 0, true));
    let mut failures: BTreeMap<SchemeKind, usize> = BTreeMap::new();
    for spec in &cells {
        let params = WorkloadParams {
            sharing: spec.sharing,
            ..WorkloadParams::tiny(0x18)
        };
        let rc = RunConfig::default();
        let mut sys = System::for_workload(spec.machine(), spec.workload, &params, &rc).unwrap();
        for at in walk_points(spec, &params) {
            sys.run_until(at).unwrap();
            // The defects the crashgrid self-tests inject give failing
            // results to compare too.
            for (mutation, name) in Mutation::NAMES {
                let mut state = sys.crash_state();
                mutation.apply(&mut state);
                let recovered = recover(&state);
                let initial = state.committed.base();
                let want = oracle_check(&initial, sys.journal(), &state.in_flight, &recovered);
                let got = check_recovery(&state, &recovered);
                assert_eq!(got, want, "{} @ {at} mutation {name}", spec.label());
                *failures.entry(spec.scheme).or_default() += usize::from(got.is_err());
            }
        }
    }
    for scheme in [SchemeKind::Optimal, SchemeKind::TxCache, SchemeKind::Eadr] {
        assert!(failures[&scheme] > 0, "{scheme}: no failing check compared");
    }
}
