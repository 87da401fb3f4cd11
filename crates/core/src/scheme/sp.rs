//! SP: software-supported persistence by write-ahead (redo) logging.
//!
//! Follows the paper's Figure 3(a): inside a transaction every persistent
//! store first appends a `log(address, new value)` record, each record is
//! written back with `clwb`; at commit an `sfence` orders the log, a
//! commit marker is logged and persisted (`pcommit`+`sfence` in the
//! figure), and only then do the actual data stores execute. The data
//! lines are never flushed: they persist via normal write-back, and the
//! log is never truncated.
//!
//! The log is real simulated memory: records live in the per-core log
//! area of [`pmacc_types::layout`] and recovery *parses the NVM image*,
//! not a side channel.
//!
//! ## Record encoding (one record = two 64-bit words)
//!
//! ```text
//! word 0:  [63]=0  [62..40]=tx serial  [39..0]=data byte address
//! word 1:  new value
//! commit:  [63]=1  [62..40]=0          [39..0]=tx serial   (one word)
//! ```
//!
//! A zero word terminates the scan (the log area is zero-initialized and
//! the cursor only moves forward).

use pmacc_cpu::{Op, Trace};
use pmacc_mem::Backing;
use pmacc_types::{layout, Addr, FxHashSet, Word, WordAddr, WORD_BYTES};

use crate::recovery::RecoveryCost;

const COMMIT_BIT: Word = 1 << 63;
const ADDR_MASK: Word = (1 << 40) - 1;
const SERIAL_SHIFT: u32 = 40;

/// Encodes a record's first word.
#[must_use]
pub fn encode_record(serial: u64, data_addr: Addr) -> Word {
    debug_assert!(data_addr.raw() <= ADDR_MASK, "address exceeds encoding");
    debug_assert!(serial < (1 << 23), "serial exceeds encoding");
    (serial << SERIAL_SHIFT) | data_addr.raw()
}

/// Encodes a commit marker.
#[must_use]
pub fn encode_commit(serial: u64) -> Word {
    COMMIT_BIT | serial
}

/// One parsed log element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogElem {
    /// A `(serial, address, new value)` redo record.
    Record {
        /// Transaction serial (per core).
        serial: u64,
        /// Data word the record redoes.
        addr: WordAddr,
        /// Value to apply.
        value: Word,
    },
    /// A commit marker for `serial`.
    Commit {
        /// Transaction serial (per core).
        serial: u64,
    },
}

/// Parses a core's log area out of an NVM word image. `read` is called
/// with word addresses and must return the durable value (zero when never
/// written).
#[must_use]
pub fn parse_log(core: usize, read: &dyn Fn(WordAddr) -> Word) -> Vec<LogElem> {
    let base = layout::log_area_base(core);
    let words = layout::LOG_AREA_BYTES_PER_CORE / WORD_BYTES;
    let mut out = Vec::new();
    let mut i = 0;
    while i < words {
        let w0 = read(base.offset(i * WORD_BYTES).word());
        if w0 == 0 {
            break;
        }
        if w0 & COMMIT_BIT != 0 {
            out.push(LogElem::Commit {
                serial: w0 & !COMMIT_BIT,
            });
            i += 2; // markers are padded to record size
        } else {
            let value = read(base.offset((i + 1) * WORD_BYTES).word());
            out.push(LogElem::Record {
                serial: w0 >> SERIAL_SHIFT,
                addr: Addr::new(w0 & ADDR_MASK).word(),
                value,
            });
            i += 2;
        }
    }
    out
}

/// SP recovery: parses each core's log out of the NVM image and redoes the
/// committed records in log order. Records and commit markers are 2 words.
pub(crate) fn recover(cores: usize, nvm: &mut Backing) -> RecoveryCost {
    let mut cost = RecoveryCost::default();
    for core in 0..cores {
        let elems = parse_log(core, &|w| nvm.read_word(w));
        cost.words_scanned += 2 * elems.len() as u64;
        let committed: FxHashSet<u64> = elems
            .iter()
            .filter_map(|e| match e {
                LogElem::Commit { serial } => Some(*serial),
                LogElem::Record { .. } => None,
            })
            .collect();
        for e in &elems {
            if let LogElem::Record {
                serial,
                addr,
                value,
            } = e
            {
                if committed.contains(serial) {
                    nvm.write_word(*addr, *value);
                    cost.words_replayed += 1;
                }
            }
        }
    }
    cost
}

/// Fence placement for the SP instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpMode {
    /// The Figure 3(a) listing verbatim: `clwb` per log record, one
    /// `sfence` before and one after the `pcommit` (commit marker), and
    /// in-place data stores afterwards with no extra flushing. This is
    /// the default SP configuration.
    #[default]
    Batched,
    /// Pessimistic write-order control, as Figure 2(b) depicts: every log
    /// record is made durable (`clwb` + `sfence`) before execution
    /// proceeds. Commit and the in-place data stores are as in
    /// [`SpMode::Batched`]. Used by the SP-fencing ablation.
    Strict,
}

/// Rewrites a raw transactional trace into the SP form with the given
/// fence placement.
#[must_use]
pub fn instrument_with(core: usize, trace: &Trace, mode: SpMode) -> Trace {
    instrument_ops(core, trace.ops().iter().copied(), mode)
}

/// [`instrument_with`] over a stream of raw ops.
pub(crate) fn instrument_ops(
    core: usize,
    ops: impl IntoIterator<Item = Op>,
    mode: SpMode,
) -> Trace {
    let mut out = Trace::new();
    let log_base = layout::log_area_base(core);
    let mut cursor: u64 = 0; // word offset into the log area
    let mut serial: u64 = 0;
    let mut in_tx = false;
    // Deferred data stores of the running transaction.
    let mut pending: Vec<(Addr, Word)> = Vec::new();

    // One op per 16-byte record: append + clwb. Records stay two-word
    // aligned (the commit marker pads), so a record never straddles lines.
    let log_store = |out: &mut Trace, cursor: &mut u64, meta: Word, value: Word| {
        let addr = log_base.offset(*cursor * WORD_BYTES);
        out.push(Op::LogStore { addr, meta, value });
        out.push(Op::Flush { addr });
        *cursor += 2;
    };

    for op in ops {
        match op {
            Op::TxBegin => {
                in_tx = true;
                pending.clear();
                out.push(Op::TxBegin);
            }
            Op::Store { addr, value } if in_tx && addr.is_persistent() => {
                // log(address, new value) + clwb, Figure 3(a).
                log_store(&mut out, &mut cursor, encode_record(serial, addr), value);
                if mode == SpMode::Strict {
                    // Figure 2(b): the record is ordered (durable) before
                    // execution proceeds.
                    out.push(Op::Fence);
                }
                pending.push((addr, value));
            }
            Op::TxEnd => {
                if pending.is_empty() {
                    // Read-only (or volatile-only) transaction: nothing to
                    // persist, so no logging or fencing is needed.
                    out.push(Op::TxEnd);
                    serial += 1;
                    in_tx = false;
                    continue;
                }
                // sfence: log records durable before the commit marker.
                out.push(Op::Fence);
                // pcommit: persist the commit marker (padded to keep
                // records two-word aligned) and drain the NVM controller.
                log_store(&mut out, &mut cursor, encode_commit(serial), 0);
                out.push(Op::PCommit);
                // In-place data stores now that the transaction is
                // durable; Figure 3(a) ends here. The data lines persist
                // via normal write-back in both modes.
                for (addr, value) in pending.drain(..) {
                    out.push(Op::Store { addr, value });
                }
                out.push(Op::TxEnd);
                serial += 1;
                in_tx = false;
            }
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_mem::Backing;

    fn raw_tx() -> Trace {
        let mut t = Trace::new();
        t.push(Op::TxBegin);
        t.push(Op::store(Addr::nvm_base().offset(1 << 20), 7));
        t.push(Op::store(Addr::nvm_base().offset((1 << 20) + 8), 9));
        t.push(Op::TxEnd);
        t
    }

    /// The log words an instrumented trace stores, as an NVM image.
    fn log_image(t: &Trace) -> Backing {
        let mut nvm = Backing::new();
        for op in t.ops() {
            if let Op::LogStore { addr, meta, value } = *op {
                nvm.write_word(addr.word(), meta);
                nvm.write_word(WordAddr::new(addr.word().raw() + 1), value);
            }
        }
        nvm
    }

    #[test]
    fn instrumented_trace_is_valid_and_larger() {
        let t = instrument_with(0, &raw_tx(), SpMode::Batched);
        t.validate().unwrap();
        assert!(t.len() > raw_tx().len() * 2);
        assert_eq!(t.transactions(), 1);
        // Figure 3(a): sfence before the commit marker, pcommit after it.
        let fences = t.ops().iter().filter(|o| **o == Op::Fence).count();
        let pcommits = t.ops().iter().filter(|o| **o == Op::PCommit).count();
        assert_eq!((fences, pcommits), (1, 1));
        // Strict mode adds one fence per record (two stores here).
        let st = instrument_with(0, &raw_tx(), SpMode::Strict);
        let fences_s = st.ops().iter().filter(|o| **o == Op::Fence).count();
        assert_eq!(fences_s, 1 + 2);
    }

    #[test]
    fn data_stores_follow_the_commit_marker() {
        let t = instrument_with(0, &raw_tx(), SpMode::Batched);
        let marker_pos = t
            .ops()
            .iter()
            .position(|o| matches!(o, Op::LogStore { meta, .. } if meta & COMMIT_BIT != 0))
            .expect("commit marker present");
        let first_data = t
            .ops()
            .iter()
            .position(|o| matches!(o, Op::Store { .. }))
            .expect("data stores present");
        assert!(first_data > marker_pos, "redo logging defers data stores");
    }

    #[test]
    fn volatile_stores_pass_through_untouched() {
        let mut raw = Trace::new();
        raw.push(Op::TxBegin);
        raw.push(Op::store(Addr::new(64), 1)); // DRAM region
        raw.push(Op::TxEnd);
        let t = instrument_with(0, &raw, SpMode::Batched);
        assert!(t
            .ops()
            .iter()
            .any(|o| matches!(o, Op::Store { addr, .. } if !addr.is_persistent())));
        assert!(
            !t.ops().iter().any(|o| matches!(o, Op::LogStore { .. })),
            "volatile-only transactions log nothing"
        );
        assert!(
            !t.ops().iter().any(|o| matches!(o, Op::Fence)),
            "volatile-only transactions fence nothing"
        );
    }

    #[test]
    fn log_replay_reconstructs_transaction_writes() {
        // Execute the instrumented trace's log stores into a fake NVM and
        // parse it back.
        let t = instrument_with(2, &raw_tx(), SpMode::Batched);
        let nvm = log_image(&t);
        let elems = parse_log(2, &|w| nvm.read_word(w));
        assert_eq!(elems.len(), 3); // two records + one commit
        assert_eq!(
            elems[0],
            LogElem::Record {
                serial: 0,
                addr: Addr::nvm_base().offset(1 << 20).word(),
                value: 7
            }
        );
        assert_eq!(elems[2], LogElem::Commit { serial: 0 });
    }

    #[test]
    fn golden_instrumentation_sequence() {
        // The exact Figure 3(a) shape for a one-store transaction:
        //   tx_begin, log+clwb, sfence, marker+clwb, pcommit, store, tx_end
        let mut raw = Trace::new();
        raw.push(Op::TxBegin);
        let data = Addr::nvm_base().offset(1 << 20);
        raw.push(Op::store(data, 7));
        raw.push(Op::TxEnd);
        let t = instrument_with(0, &raw, SpMode::Batched);
        let log0 = layout::log_area_base(0);
        let expected = vec![
            Op::TxBegin,
            Op::LogStore {
                addr: log0,
                meta: encode_record(0, data),
                value: 7,
            },
            Op::Flush { addr: log0 },
            Op::Fence,
            Op::LogStore {
                addr: log0.offset(16),
                meta: encode_commit(0),
                value: 0,
            },
            Op::Flush {
                addr: log0.offset(16),
            },
            Op::PCommit,
            Op::store(data, 7),
            Op::TxEnd,
        ];
        assert_eq!(t.ops(), expected.as_slice());
    }

    /// [`recover`] as it was with the committed serials in a `Vec`: the
    /// oracle for the set-based one.
    fn recover_linear(cores: usize, nvm: &mut Backing) -> RecoveryCost {
        let mut cost = RecoveryCost::default();
        for core in 0..cores {
            let elems = parse_log(core, &|w| nvm.read_word(w));
            cost.words_scanned += 2 * elems.len() as u64;
            let committed: Vec<u64> = elems
                .iter()
                .filter_map(|e| match e {
                    LogElem::Commit { serial } => Some(*serial),
                    LogElem::Record { .. } => None,
                })
                .collect();
            for e in &elems {
                if let LogElem::Record {
                    serial,
                    addr,
                    value,
                } = e
                {
                    if committed.contains(serial) {
                        nvm.write_word(*addr, *value);
                        cost.words_replayed += 1;
                    }
                }
            }
        }
        cost
    }

    #[test]
    fn recover_matches_the_linear_scan_on_random_logs() {
        let mut rng = pmacc_types::Rng::seed_from_u64(19);
        let data = layout::persistent_heap_base();
        for case in 0..200 {
            let cores = rng.gen_range(1..4usize);
            let mut nvm = Backing::new();
            for core in 0..cores {
                let log = layout::log_area_base(core);
                let mut at = 0;
                let mut put = |nvm: &mut Backing, w0: Word, w1: Word| {
                    nvm.write_word(log.offset(at * WORD_BYTES).word(), w0);
                    nvm.write_word(log.offset((at + 1) * WORD_BYTES).word(), w1);
                    at += 2;
                };
                // Serials drawn from a small range repeat, commit out of
                // order or never; the tail after the last commit is the
                // uncommitted one a crash leaves.
                let serials = rng.gen_range(1..12u64);
                for _ in 0..rng.gen_range(0..60u32) {
                    let serial = rng.gen_range(0..serials);
                    if rng.gen_bool(0.2) {
                        put(&mut nvm, encode_commit(serial), 0);
                    } else {
                        let addr = data.offset(8 * rng.gen_range(0..64u64));
                        put(&mut nvm, encode_record(serial, addr), rng.gen());
                    }
                }
                // A data word the logs also redo, present before recovery.
                nvm.write_word(data.word(), case);
            }
            let mut oracle = nvm.clone();
            let cost = recover(cores, &mut nvm);
            let want = recover_linear(cores, &mut oracle);
            assert_eq!(nvm, oracle, "case {case}: recovered image");
            assert_eq!(cost, want, "case {case}: cost");
        }
    }

    #[test]
    fn parse_stops_at_zero() {
        let elems = parse_log(0, &|_| 0);
        assert!(elems.is_empty());
    }

    #[test]
    fn serials_increment_across_transactions() {
        let mut raw = raw_tx();
        let more = raw_tx();
        raw.extend_ops(more.ops().iter().copied());
        let t = instrument_with(1, &raw, SpMode::Batched);
        let nvm = log_image(&t);
        let elems = parse_log(1, &|w| nvm.read_word(w));
        let commits: Vec<u64> = elems
            .iter()
            .filter_map(|e| match e {
                LogElem::Commit { serial } => Some(*serial),
                _ => None,
            })
            .collect();
        assert_eq!(commits, vec![0, 1]);
    }
}
