//! eADR: flush-on-failure caches, the TC's infinite-capacity upper bound.
//! Timing is Optimal's, since residual energy drains every dirty line to
//! the NVM at power loss. Uncommitted stores persist too, so each core
//! logs the pre-image of every heap word its transaction overwrites (in
//! the residual-energy domain), and recovery rolls them back.

use std::collections::BTreeMap;

use pmacc_mem::Backing;
use pmacc_types::{LineAddr, ReqId, Word, WordAddr, WORDS_PER_LINE};

use crate::recovery::{DurableState, RecoveryCost};
use crate::system::{Origin, System};

/// eADR's runtime state: the per-core undo logs.
#[derive(Debug)]
pub(crate) struct Eadr(Vec<BTreeMap<WordAddr, Word>>);

impl Eadr {
    pub(crate) fn new(cores: usize) -> Self {
        Eadr(vec![BTreeMap::new(); cores])
    }

    /// Logs the pre-image of a word core `c`'s transaction is about to
    /// overwrite; the first write wins. The store is durable already (the
    /// failure drain persists it), so this is what rollback restores if
    /// the transaction never commits; the conflict gate serialized
    /// cross-core writers of the line, so it is the latest committed value.
    pub(crate) fn log_pre_image(&mut self, c: usize, word: WordAddr, arch: &Backing) {
        self.0[c]
            .entry(word)
            .or_insert_with(|| arch.read_word(word));
    }

    /// `TX_END` is free: every store is durable already, so the
    /// transaction retires at once and its pre-images die.
    pub(crate) fn tx_end(&mut self, c: usize) -> bool {
        self.0[c].clear();
        true
    }

    /// The flush-on-failure drain, applied to the logical NVM image. The
    /// memory-controller queues were already inside the ADR domain, so
    /// write-backs still in flight — evictions and `clwb`s, queued or
    /// parked awaiting queue room — land first, oldest request id to
    /// newest (a line written back twice lands its newest snapshot last).
    /// Then every dirty persistent line in L1/L2/LLC lands, newest of all.
    /// The drain works on logical lines, as a write-back does, so it
    /// composes before the wear remap translates the image into device
    /// rows.
    pub(crate) fn snapshot(&self, sys: &System, logical: &mut Backing) -> DurableState {
        let in_flight: BTreeMap<ReqId, (LineAddr, &[Word; WORDS_PER_LINE])> = sys
            .origins
            .iter()
            .filter_map(|(&id, origin)| match origin {
                Origin::Writeback { line, words, .. } if line.is_persistent() => {
                    Some((id, (*line, words)))
                }
                _ => None,
            })
            .collect();
        for (line, words) in in_flight.into_values() {
            logical.write_line(line, words);
        }
        for line in sys.hier.dirty_persistent_lines(false) {
            logical.write_line(line, &sys.arch_image.read_line(line));
        }
        DurableState::Eadr {
            undo: self.0.clone(),
        }
    }
}

/// eADR recovery: the drain persisted the stores of the transactions in
/// flight too, and each core's undo log (address + pre-image per record)
/// rolls its transaction back to exactly the committed image.
pub(crate) fn recover(undo: &[BTreeMap<WordAddr, Word>], nvm: &mut Backing) -> RecoveryCost {
    let mut cost = RecoveryCost::default();
    for log in undo {
        cost.words_scanned += 2 * log.len() as u64;
        cost.words_replayed += log.len() as u64;
        nvm.extend(log.iter().map(|(&w, &v)| (w, v)));
    }
    cost
}
