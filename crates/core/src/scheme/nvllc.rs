//! NVLLC: the Kiln-style nonvolatile last-level cache (§5.1), an STT-RAM
//! array inside the persistence domain that pins uncommitted lines. A
//! crash keeps its committed lines; recovery overlays them on the NVM.

use pmacc_cpu::StallKind;
use pmacc_mem::Backing;
use pmacc_types::{Cycle, FxHashMap, LineAddr, MachineConfig, Word, WordAddr, WORDS_PER_LINE};

use crate::recovery::{DurableState, RecoveryCost};
use crate::System;

/// NVLLC's runtime state: the committed words, each core's write set of
/// its running transaction, and the port occupancy of one line's commit
/// flush (the STT-RAM write).
#[derive(Debug)]
pub(crate) struct NvLlc {
    committed: FxHashMap<WordAddr, Word>,
    write_sets: Vec<Vec<(WordAddr, Word)>>,
    write_lat: Cycle,
}

impl NvLlc {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let write_lat = cfg.core.freq.ns_to_cycles(cfg.nvllc.write_ns);
        NvLlc {
            committed: FxHashMap::default(),
            write_sets: vec![Vec::new(); cfg.cores],
            write_lat,
        }
    }

    /// Adds a transactional store of core `c` to its write set.
    pub(crate) fn record(&mut self, c: usize, word: WordAddr, value: Word) {
        self.write_sets[c].push((word, value));
    }

    /// `TX_END`: commits the transaction's write set in the LLC with a
    /// blocking flush of its dirty lines from L1/L2, which occupies the
    /// LLC write port (the §5.2 "bursts of traffic"); it is then durable.
    pub(crate) fn tx_end(&mut self, sys: &mut System, c: usize) -> bool {
        self.committed.extend(self.write_sets[c].drain(..));
        let lines: Vec<LineAddr> = sys.cores[c].tx_lines.clone();
        let t0 = sys.cores[c].time;
        let mut t = t0;
        for line in lines {
            if sys.hier.demote_tx_line(c, line) {
                // Read the private copy (L2 latency) and initiate the LLC
                // write; the core moves on to the next line while the
                // STT-RAM write holds the bank — that hold is what "blocks
                // subsequent cache and memory requests during transaction
                // commits" (§5.2).
                let w = sys.llc_port_hold(line, t, self.write_lat);
                t += w + sys.lat_l2 + 1;
            }
        }
        if t > t0 {
            sys.cores[c].stats.add_stall(StallKind::CommitFlush, t - t0);
            sys.cores[c].time = t;
        }
        true
    }

    /// What an evicted persistent line writes back: its committed version.
    pub(crate) fn committed_line(&self, line: LineAddr, nvm: &Backing) -> [Word; WORDS_PER_LINE] {
        std::array::from_fn(|i| {
            let w = line.word(i);
            let durable = || nvm.read_word(w);
            self.committed.get(&w).copied().unwrap_or_else(durable)
        })
    }

    /// What survives a crash: the committed lines.
    pub(crate) fn snapshot(&self) -> DurableState {
        DurableState::NvLlc {
            committed: self.committed.clone(),
        }
    }
}

/// NVLLC recovery: overlays the committed lines. It walks the tag array
/// (with `machine`, every LLC line) to discard uncommitted lines; no data
/// moves, so nothing counts as replayed.
pub(crate) fn recover(
    committed: &FxHashMap<WordAddr, Word>,
    nvm: &mut Backing,
    machine: Option<&MachineConfig>,
) -> RecoveryCost {
    nvm.extend(committed.iter().map(|(&w, &v)| (w, v)));
    RecoveryCost {
        words_scanned: machine.map_or(0, |m| m.llc.lines()),
        ..RecoveryCost::default()
    }
}
