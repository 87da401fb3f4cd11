//! Crash injection, recovery and the atomicity checker.
//!
//! A simulated crash keeps only what the hardware keeps: the NVM image,
//! the STT-RAM transaction caches (data *and* state bits, Table 1), the
//! NVLLC's committed lines, the durable COW areas and — under eADR —
//! the flush-on-failure drain of every dirty cache line plus the per-core
//! undo logs. Everything beside the NVM image is one [`DurableState`]
//! variant, so a crash image holds only its own scheme's state; each
//! scheme's file in [`crate::scheme`] rebuilds a consistent image from it.
//! [`check_recovery`] verifies the result equals replaying exactly the
//! transactions that committed before the crash — all-or-nothing, in
//! program order.

use core::fmt;
use std::collections::BTreeSet;
use std::sync::Arc;

use pmacc_mem::{Backing, WearSnapshot};
use pmacc_types::{layout, Cycle, FxHashMap, SchemeKind, TxId, Word, WordAddr};

pub use crate::scheme::{CowTxShadow, DurableState};

/// One committed transaction in the golden journal (oracle only — real
/// recovery never reads this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRecord {
    /// Transaction identity.
    pub tx: TxId,
    /// Cycle at which `TX_END` completed (the durability point).
    pub commit_cycle: Cycle,
    /// Persistent writes, in program order.
    pub writes: Vec<(WordAddr, Word)>,
}

/// Everything that survives a power failure, plus the checking oracle.
#[derive(Debug, Clone)]
pub struct CrashState {
    /// The scheme that was running.
    pub scheme: SchemeKind,
    /// Crash cycle.
    pub cycle: Cycle,
    /// Core count.
    pub cores: usize,
    /// Durable NVM image at the crash. With wear leveling off this is
    /// in logical line space; with leveling on it is in *device row*
    /// space — exactly what the cells physically hold — and
    /// [`CrashState::logical_nvm`] must invert the remap before any
    /// scheme-level recovery.
    pub nvm: Backing,
    /// The wear remapper's nonvolatile registers (per-region start/gap),
    /// captured at the crash; `None` when leveling is off. Real
    /// start-gap hardware keeps these registers in NVM for precisely
    /// this reason: without them the device image is unreadable.
    pub wear: Option<WearSnapshot>,
    /// The committed image (oracle): the NVM image at simulation start
    /// with every transaction that committed before the crash replayed in
    /// global commit order. It overlays the frozen initial image, which
    /// `committed.base()` returns, and is shared with the system that
    /// took the snapshot rather than copied.
    pub committed: Arc<Backing>,
    /// The running scheme's durable state beside the NVM image.
    pub durable: DurableState,
    /// Per-core transaction in flight at the crash (oracle): its identity
    /// and the persistent writes it had issued so far. A scheme may
    /// legitimately recover such a transaction completely — its commit
    /// became durable but `TX_END` had not retired — or not at all;
    /// recovering it partially is an atomicity violation.
    pub in_flight: Vec<Option<TxRecord>>,
}

impl CrashState {
    /// The durable NVM image in *logical* line space: reconstructs the
    /// remap from the wear snapshot's registers and inverts it, or
    /// returns the image as-is when leveling was off. This is the first
    /// step of every recovery procedure under wear leveling.
    #[must_use]
    pub fn logical_nvm(&self) -> Backing {
        match &self.wear {
            Some(snap) => snap.to_logical(&self.nvm),
            None => self.nvm.clone(),
        }
    }
}

/// Runs the scheme's recovery procedure, returning the recovered NVM image.
///
/// # Example
///
/// ```
/// use pmacc::recovery::{check_recovery, recover};
/// use pmacc::{RunConfig, System};
/// use pmacc_types::{MachineConfig, SchemeKind};
/// use pmacc_workloads::{WorkloadKind, WorkloadParams};
///
/// let mut sys = System::for_workload(
///     MachineConfig::small().with_scheme(SchemeKind::TxCache),
///     WorkloadKind::Sps,
///     &WorkloadParams::tiny(1),
///     &RunConfig::default(),
/// )?;
/// sys.run_until(2_000)?; // power fails mid-run
/// let state = sys.crash_state();
/// let recovered = recover(&state);
/// check_recovery(&state, &recovered).expect("transaction-atomic");
/// # Ok::<(), pmacc_types::SimError>(())
/// ```
#[must_use]
pub fn recover(state: &CrashState) -> Backing {
    let mut nvm = state.logical_nvm();
    state.durable.recover(state.cores, &mut nvm, None);
    nvm
}

/// The work a scheme's recovery procedure performs after a crash —
/// quantifying the paper's §3 recovery discussion ("we can recover the
/// data using the buffered writes in the TC").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryCost {
    /// Durable words the procedure had to *scan* (log walk, TC array
    /// read-out, LLC tag walk).
    pub words_scanned: u64,
    /// NVM word writes the procedure performs to redo committed state.
    pub words_replayed: u64,
    /// Estimated wall time in nanoseconds (scans at NVM/STT-RAM read
    /// latency per line, replays at NVM write latency per line).
    pub estimated_ns: u64,
}

/// Estimates the recovery cost for `state` on `machine` without mutating
/// anything (run [`recover`] for the actual image).
#[must_use]
pub fn recovery_cost(state: &CrashState, machine: &pmacc_types::MachineConfig) -> RecoveryCost {
    use pmacc_types::WORDS_PER_LINE;
    // The walk reads logical addresses, so under wear leveling the image
    // is un-remapped first (the cost of that register-driven translation
    // is not charged — it is pure address arithmetic, not device traffic).
    let mut cost = state
        .durable
        .recover(state.cores, &mut state.logical_nvm(), Some(machine));
    let lines_scanned = cost.words_scanned.div_ceil(WORDS_PER_LINE as u64);
    let lines_replayed = cost.words_replayed.div_ceil(WORDS_PER_LINE as u64);
    cost.estimated_ns = (lines_scanned as f64 * machine.nvm.read_ns
        + lines_replayed as f64 * machine.nvm.write_ns) as u64;
    cost
}

/// A recovered image failed the atomicity/durability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryError {
    /// Words whose recovered value differs from the committed-replay
    /// expectation, as `(address, expected, recovered)` — first few only.
    pub mismatches: Vec<(WordAddr, Word, Word)>,
    /// Total number of mismatching words.
    pub total: usize,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} recovered words mismatch; first: ", self.total)?;
        for (w, e, g) in self.mismatches.iter().take(3) {
            write!(f, "[{w}: expected {e:#x}, got {g:#x}] ")?;
        }
        Ok(())
    }
}

impl std::error::Error for RecoveryError {}

/// Checks that `recovered` equals replaying, over the initial image,
/// every transaction that committed before the crash — all-or-nothing and
/// in program order — optionally plus each core's single *in-flight*
/// transaction, also all-or-nothing (its commit may have become durable
/// without `TX_END` retiring; accepting it is a legitimate outcome).
/// Only the persistent *heap* is compared (log and COW areas are
/// scheme-private scratch space).
///
/// # Errors
///
/// Returns a [`RecoveryError`] describing the mismatching words.
pub fn check_recovery(state: &CrashState, recovered: &Backing) -> Result<(), RecoveryError> {
    let heap_base = layout::persistent_heap_base().word();
    // Every heap word either image holds is compared, so stray uncommitted
    // writes are caught; a word only an in-flight transaction wrote reads
    // zero on both sides, so it cannot mismatch. The bound is applied
    // inside the diff: below it, scheme logs differ wholesale.
    let mut mismatches = state.committed.diff(recovered, heap_base);
    // Try to explain mismatches with in-flight transactions, one whole
    // transaction at a time: accept one only if *all* its heap words
    // match the committed image with the in-flight writes applied.
    if !mismatches.is_empty() {
        let mut in_flight: FxHashMap<WordAddr, Word> = FxHashMap::default();
        for rec in state.in_flight.iter().flatten() {
            in_flight.extend(rec.writes.iter().copied());
        }
        let with_in_flight = |w: WordAddr| {
            in_flight
                .get(&w)
                .copied()
                .unwrap_or_else(|| state.committed.read_word(w))
        };
        for rec in state.in_flight.iter().flatten() {
            let words: BTreeSet<WordAddr> = rec
                .writes
                .iter()
                .map(|&(w, _)| w)
                .filter(|w| *w >= heap_base)
                .collect();
            if words
                .iter()
                .all(|&w| recovered.read_word(w) == with_in_flight(w))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::sp;
    use crate::txcache::{EntryState, TcEntry};
    use pmacc_types::Addr;

    fn heap_word(i: u64) -> WordAddr {
        layout::persistent_heap_base().offset(i * 8).word()
    }

    fn base_state(scheme: SchemeKind, durable: DurableState) -> CrashState {
        CrashState {
            scheme,
            cycle: 100,
            cores: 1,
            nvm: Backing::new(),
            wear: None,
            committed: Arc::new(Backing::new()),
            durable,
            in_flight: vec![None],
        }
    }

    /// Commits `writes` into the expected image, as a journal entry would.
    fn commit(st: &mut CrashState, writes: &[(WordAddr, Word)]) {
        Arc::make_mut(&mut st.committed).extend(writes.iter().copied());
    }

    fn tc_state(txcache: Vec<TcEntry>, cow: Vec<CowTxShadow>) -> CrashState {
        base_state(
            SchemeKind::TxCache,
            DurableState::TxCache {
                txcaches: vec![txcache],
                cow: vec![cow],
            },
        )
    }

    /// A committed transaction-cache entry for transaction 0 holding
    /// `values` in the first words of heap line 0.
    fn committed_entry(values: &[Word]) -> TcEntry {
        let mut e = TcEntry {
            state: EntryState::Committed,
            tx: TxId::new(0, 0),
            line: heap_word(0).line(),
            values: [None; 8],
            issued: false,
            commit_seq: 1,
        };
        for (slot, &v) in e.values.iter_mut().zip(values) {
            *slot = Some(v);
        }
        e
    }

    fn eadr_state(undo: &[(WordAddr, Word)]) -> CrashState {
        base_state(
            SchemeKind::Eadr,
            DurableState::Eadr {
                undo: vec![undo.iter().copied().collect()],
            },
        )
    }

    #[test]
    fn optimal_recovery_is_identity() {
        let mut st = base_state(SchemeKind::Optimal, DurableState::NvmOnly);
        st.nvm.write_word(heap_word(0), 42);
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(0)), 42);
    }

    #[test]
    fn tc_recovery_replays_committed_discards_active() {
        let committed = committed_entry(&[7]);
        let mut active = committed;
        active.state = EntryState::Active;
        active.tx = TxId::new(0, 1);
        active.values[0] = Some(99);
        active.line = heap_word(8).line();
        active.commit_seq = 0;
        let mut st = tc_state(vec![committed, active], Vec::new());
        commit(&mut st, &[(heap_word(0), 7)]);
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(0)), 7);
        assert_eq!(rec.read_word(heap_word(8)), 0, "active entry discarded");
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn tc_recovery_redoes_committed_cow() {
        let mut st = tc_state(
            Vec::new(),
            vec![
                CowTxShadow {
                    tx: TxId::new(0, 0),
                    records: vec![(heap_word(1), 5)],
                    committed: true,
                    commit_seq: 1,
                },
                CowTxShadow {
                    tx: TxId::new(0, 1),
                    records: vec![(heap_word(2), 6)],
                    committed: false,
                    commit_seq: 0,
                },
            ],
        );
        commit(&mut st, &[(heap_word(1), 5)]);
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(1)), 5);
        assert_eq!(rec.read_word(heap_word(2)), 0);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn nvllc_recovery_overlays_committed_lines() {
        let mut st = base_state(
            SchemeKind::NvLlc,
            DurableState::NvLlc {
                committed: [(heap_word(3), 11)].into_iter().collect(),
            },
        );
        commit(&mut st, &[(heap_word(3), 11)]);
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(3)), 11);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn eadr_recovery_rolls_back_uncommitted_drained_stores() {
        // The undo log holds the first-write pre-images.
        let mut st = eadr_state(&[(heap_word(0), 7), (heap_word(1), 0)]);
        // A committed transaction wrote word 0 = 7 (drained to NVM), then
        // an in-flight one overwrote it with 99 and wrote word 1 = 55;
        // the flush-on-failure drain persisted both uncommitted stores.
        commit(&mut st, &[(heap_word(0), 7)]);
        st.in_flight[0] = Some(TxRecord {
            tx: TxId::new(0, 1),
            commit_cycle: 100,
            writes: vec![(heap_word(0), 99), (heap_word(1), 55)],
        });
        st.nvm.write_word(heap_word(0), 99);
        st.nvm.write_word(heap_word(1), 55);
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(0)), 7, "rolled back to committed");
        assert_eq!(rec.read_word(heap_word(1)), 0, "rolled back to initial");
        check_recovery(&st, &rec).unwrap();
        // Skipping rollback when the crash fell *after* the transaction's
        // last store is legitimate: the image is the whole in-flight
        // transaction applied, which the checker's all-or-nothing
        // acceptance allows.
        let mut mutated = st.clone();
        mutated.durable = eadr_state(&[]).durable;
        let rec = recover(&mutated);
        check_recovery(&mutated, &rec).unwrap();
        // But at a mid-transaction crash only a prefix of the write set
        // has drained (word 1 was never stored), so skipping rollback
        // leaves a torn image the checker must reject — this is what the
        // crashgrid `keep-uncommitted-eadr` mutation exercises end to end.
        let mut partial = st.clone();
        partial.durable = eadr_state(&[(heap_word(0), 7)]).durable;
        partial.nvm.write_word(heap_word(1), 0);
        let rec = recover(&partial);
        check_recovery(&partial, &rec).unwrap();
        partial.durable = eadr_state(&[]).durable;
        let rec = recover(&partial);
        check_recovery(&partial, &rec).unwrap_err();
    }

    #[test]
    fn checker_catches_lost_committed_write() {
        let mut st = base_state(SchemeKind::Optimal, DurableState::NvmOnly);
        commit(&mut st, &[(heap_word(0), 9)]);
        // Nor did an earlier committed value of word 5 survive.
        commit(&mut st, &[(heap_word(5), 77)]);
        let rec = recover(&st); // NVM never got the write
        let err = check_recovery(&st, &rec).unwrap_err();
        assert_eq!(err.total, 2);
        assert_eq!(
            err.mismatches,
            vec![(heap_word(0), 9, 0), (heap_word(5), 77, 0)]
        );
    }

    #[test]
    fn checker_catches_torn_transaction() {
        let mut st = base_state(SchemeKind::Optimal, DurableState::NvmOnly);
        // Uncommitted write leaked to NVM (no journal entry).
        st.nvm.write_word(heap_word(4), 123);
        let rec = recover(&st);
        let err = check_recovery(&st, &rec).unwrap_err();
        assert_eq!(err.total, 1);
    }

    #[test]
    fn checker_accepts_whole_in_flight_and_rejects_partial() {
        let mut st = base_state(SchemeKind::Optimal, DurableState::NvmOnly);
        let writes = vec![(heap_word(0), 1), (heap_word(9), 2)];
        st.in_flight[0] = Some(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 100,
            writes: writes.clone(),
        });
        check_recovery(&st, &writes.iter().copied().collect()).unwrap();
        check_recovery(&st, &Backing::new()).unwrap();
        let err = check_recovery(&st, &writes[..1].iter().copied().collect()).unwrap_err();
        assert_eq!(err.mismatches, vec![(heap_word(0), 0, 1)]);
    }

    #[test]
    fn checker_ignores_log_area_noise() {
        let mut st = base_state(SchemeKind::Optimal, DurableState::NvmOnly);
        // Scratch words below the heap are scheme-private, in the
        // recovered image and in the committed one alike.
        st.nvm.write_word(Addr::nvm_base().word(), 0xDEAD);
        commit(&mut st, &[(Addr::nvm_base().offset(8).word(), 0xBEEF)]);
        let rec = recover(&st);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn recovery_cost_reflects_scheme_mechanisms() {
        use pmacc_types::MachineConfig;
        let machine = MachineConfig::small();
        // Optimal recovers nothing.
        let opt = base_state(SchemeKind::Optimal, DurableState::NvmOnly);
        assert_eq!(recovery_cost(&opt, &machine), RecoveryCost::default());
        // TC scans its array and replays committed words.
        let c = recovery_cost(
            &tc_state(vec![committed_entry(&[1, 2])], Vec::new()),
            &machine,
        );
        assert_eq!(c.words_replayed, 2);
        assert!(c.words_scanned >= machine.txcache.entries() as u64 * 8);
        assert!(c.estimated_ns > 0);
        // NVLLC only walks tags.
        let nv = base_state(
            SchemeKind::NvLlc,
            DurableState::NvLlc {
                committed: FxHashMap::default(),
            },
        );
        let c = recovery_cost(&nv, &machine);
        assert_eq!(c.words_replayed, 0);
        assert_eq!(c.words_scanned, machine.llc.lines());
        // SP walks its log: one committed transaction (two records and a
        // marker) and one uncommitted record. Every record and marker
        // scans two words; only the committed records replay.
        let mut sp = base_state(SchemeKind::Sp, DurableState::Sp);
        let log = [
            (sp::encode_record(0, heap_word(0).to_addr()), 5),
            (sp::encode_record(0, heap_word(1).to_addr()), 6),
            (sp::encode_commit(0), 0),
            (sp::encode_record(1, heap_word(2).to_addr()), 7),
        ];
        let log_base = layout::log_area_base(0);
        for (i, (meta, value)) in log.into_iter().enumerate() {
            let at = log_base.offset(i as u64 * 16);
            sp.nvm.write_word(at.word(), meta);
            sp.nvm.write_word(at.offset(8).word(), value);
        }
        commit(&mut sp, &[(heap_word(0), 5), (heap_word(1), 6)]);
        let c = recovery_cost(&sp, &machine);
        assert_eq!((c.words_scanned, c.words_replayed), (2 * 4, 2));
        assert_eq!(
            c.estimated_ns,
            (machine.nvm.read_ns + machine.nvm.write_ns) as u64,
            "one line scanned, one line replayed"
        );
        let rec = recover(&sp);
        assert_eq!(rec.read_word(heap_word(2)), 0, "uncommitted record dropped");
        check_recovery(&sp, &rec).unwrap();
        // eADR walks each undo record (address + pre-image) and writes
        // every pre-image back.
        let undo = [(heap_word(0), 7), (heap_word(1), 0), (heap_word(2), 3)];
        let c = recovery_cost(&eadr_state(&undo), &machine);
        assert_eq!((c.words_scanned, c.words_replayed), (2 * 3, 3));
    }

    #[test]
    fn recovery_inverts_the_wear_remap() {
        use pmacc_mem::WearMap;
        use pmacc_types::WearConfig;
        let mut st = base_state(SchemeKind::Optimal, DurableState::NvmOnly);
        // Rotate a small region through a full start-gap cycle so the
        // mapping is a genuine shift (every line on a different row).
        let mut m = WearMap::new(&WearConfig {
            leveling: true,
            region_lines: 8,
            gap_write_interval: 1,
            cell_write_budget: 1_000,
        });
        for i in 0..9 {
            m.record_write(heap_word(i).line());
        }
        let snap = m.snapshot();
        // The logical image the crash should recover to...
        let mut logical = Backing::new();
        logical.write_word(heap_word(0), 42);
        commit(&mut st, &[(heap_word(0), 42)]);
        // ...is durably stored on device rows.
        st.nvm = snap.to_device(&logical);
        st.wear = Some(snap);
        assert_ne!(
            st.nvm.read_word(heap_word(0)),
            42,
            "the device image really is remapped"
        );
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(0)), 42);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn later_commits_overwrite_earlier_ones_in_expectation() {
        let mut st = base_state(SchemeKind::Optimal, DurableState::NvmOnly);
        commit(&mut st, &[(heap_word(0), 1)]);
        commit(&mut st, &[(heap_word(0), 2)]);
        st.nvm.write_word(heap_word(0), 2);
        let rec = recover(&st);
        check_recovery(&st, &rec).unwrap();
    }
}
