//! Crash snapshots: what a power failure at the current cycle leaves
//! behind, the committed image the checker compares it against, and the
//! durability-boundary cycles crash points cluster around.

use std::sync::Arc;

use pmacc_mem::Backing;
use pmacc_types::{TxId, Word, WordAddr};

use super::{BoundaryClass, System};
use crate::recovery::{CrashState, TxRecord};

impl System {
    /// Appends a durability-boundary record (no-op unless enabled).
    pub(crate) fn record_boundary(&mut self, class: BoundaryClass) {
        if self.run_cfg.record_boundaries {
            self.boundaries.push((self.clock, class));
        }
    }

    /// The oracle's write list for one transaction (empty for serials
    /// beyond the trace, which cannot happen in practice).
    pub(super) fn oracle_writes(&self, core: usize, tx: TxId) -> Vec<(WordAddr, Word)> {
        self.inputs.tx_writes[core]
            .get(tx.serial() as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// The committed image as of now, caught up from the journal entries
    /// committed since the last call. A snapshot still holding the previous
    /// image keeps it: `make_mut` copies the overlay instead of mutating it.
    fn committed_image(&self) -> Arc<Backing> {
        let (image, applied) = &mut *self.committed.borrow_mut();
        if *applied < self.journal.len() {
            let img = Arc::make_mut(image);
            for rec in &self.journal[*applied..] {
                img.extend(rec.writes.iter().copied());
            }
            *applied = self.journal.len();
        }
        Arc::clone(image)
    }

    /// Snapshots the durable state at the current cycle — what survives a
    /// power failure: the NVM image, the STT-RAM transaction caches, the
    /// NVLLC committed-line image, the COW areas and (under eADR) the
    /// flush-on-failure drain of every dirty cache line plus the per-core
    /// undo logs — together with the committed image the checker compares
    /// against.
    ///
    /// With wear leveling on, the NVM image is stored in *device row*
    /// space (translated through the remapper's current registers) plus
    /// the register snapshot itself — exactly what the hardware keeps —
    /// so recovery genuinely has to reconstruct the remap to read it.
    #[must_use]
    pub fn crash_state(&self) -> CrashState {
        let wear = self.nvm.wear_snapshot();
        let mut logical = self.nvm_backing.clone();
        let durable = self.durable_state(&mut logical);
        let nvm = match &wear {
            Some(snap) => snap.to_device(&logical),
            None => logical,
        };
        CrashState {
            scheme: self.cfg.scheme,
            cycle: self.clock,
            cores: self.cfg.cores,
            nvm,
            wear,
            committed: self.committed_image(),
            durable,
            in_flight: (0..self.cores.len())
                .map(|c| {
                    let core = &self.cores[c];
                    let tx = core.regs.current().or(core.txend)?;
                    Some(TxRecord {
                        tx,
                        commit_cycle: self.clock,
                        writes: self.oracle_writes(c, tx),
                    })
                })
                .collect(),
        }
    }
}
