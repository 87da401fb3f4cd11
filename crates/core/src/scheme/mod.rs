//! The four persistence schemes compared in §5 of the paper, plus the
//! eADR flush-on-failure upper bound.
//!
//! A scheme is two things:
//!
//! 1. **Trace instrumentation** — what extra instructions software must
//!    execute. Only `SP` instruments anything (write-ahead logging with
//!    `clwb`/`sfence` write-order control, Figure 3a); the others' support
//!    (none / transaction cache / nonvolatile LLC / residual-energy cache
//!    drain) is in hardware.
//! 2. **Hooks** — how the machine routes stores, commits, LLC misses and
//!    evictions, what survives a crash ([`DurableState`]), and how
//!    recovery rebuilds a consistent image from it. Each scheme keeps its
//!    state, hooks and recovery in one file (`sp`, `tc`, `nvllc`, `eadr`;
//!    `Optimal` has none: it runs as the stateless `SchemeState::Plain`);
//!    this module holds one `match` per hook.

mod eadr;
mod nvllc;
pub mod sp;
mod tc;

use std::collections::BTreeMap;

use pmacc_cache::{Access, HierarchyOpts};
use pmacc_cpu::{Op, Trace};
use pmacc_mem::Backing;
use pmacc_types::{
    Addr, Counter, Cycle, FxHashMap, LineAddr, MachineConfig, SchemeKind, TxId, Word, WordAddr,
    WORDS_PER_LINE,
};

use crate::recovery::RecoveryCost;
use crate::txcache::{TcEntry, TcStats, TxCache};
use crate::System;
pub use tc::CowTxShadow;
pub(crate) use tc::TcWrite;

/// Applies the machine's scheme's software instrumentation to a core's
/// trace. Hardware schemes return the trace unchanged, without copying it.
///
/// # Example
///
/// ```
/// use pmacc::scheme::instrument;
/// use pmacc_cpu::{Op, Trace};
/// use pmacc_types::{Addr, MachineConfig, SchemeKind};
///
/// let mut t = Trace::new();
/// t.push(Op::TxBegin);
/// t.push(Op::store(Addr::nvm_base(), 1));
/// t.push(Op::TxEnd);
///
/// // Hardware schemes leave the trace alone.
/// let tc = MachineConfig::small().with_scheme(SchemeKind::TxCache);
/// assert_eq!(instrument(&tc, 0, t.clone()), t);
/// // Software logging makes it much longer.
/// let sp = MachineConfig::small().with_scheme(SchemeKind::Sp);
/// assert!(instrument(&sp, 0, t.clone()).len() > t.len());
/// ```
#[must_use]
pub fn instrument(cfg: &MachineConfig, core: usize, trace: Trace) -> Trace {
    instrument_ops(cfg, core, trace.ops().iter().copied()).unwrap_or(trace)
}

/// The machine's instrumentation of a core's raw op stream: the one place
/// that decides which schemes instrument. `None` means the scheme runs
/// the raw trace as it is.
pub(crate) fn instrument_ops(
    cfg: &MachineConfig,
    core: usize,
    ops: impl IntoIterator<Item = Op>,
) -> Option<Trace> {
    match cfg.scheme {
        SchemeKind::Sp => Some(sp::instrument_ops(core, ops, cfg.sp_mode)),
        _ => None,
    }
}

/// What the running scheme keeps durable beside the NVM image — one
/// variant per kind of payload, so a crash image can only hold the state
/// its own scheme persists (an eADR undo log inside a TC image is
/// unrepresentable).
#[derive(Debug, Clone)]
pub enum DurableState {
    /// Nothing beside the NVM image (Optimal).
    NvmOnly,
    /// Software logging: the write-ahead logs live in the NVM image
    /// itself, so nothing else survives.
    Sp,
    /// The transaction cache.
    TxCache {
        /// Per-core transaction-cache contents (STT-RAM), FIFO order.
        txcaches: Vec<Vec<TcEntry>>,
        /// Per-core COW-area shadows of overflowed transactions.
        cow: Vec<Vec<CowTxShadow>>,
    },
    /// The nonvolatile LLC.
    NvLlc {
        /// Committed-line image (word granularity).
        committed: FxHashMap<WordAddr, Word>,
    },
    /// Flush-on-failure caches.
    Eadr {
        /// Per-core undo log: the first-write pre-image of every heap
        /// word the in-flight transaction has overwritten. Durable with
        /// the drained caches: uncommitted stores *do* persist under
        /// eADR, so rollback needs these pre-images.
        undo: Vec<BTreeMap<WordAddr, Word>>,
    },
}

impl DurableState {
    /// Redoes or rolls back `nvm` (the logical image), counting the words
    /// scanned (with `machine`, all of them) and replayed.
    pub(crate) fn recover(
        &self,
        cores: usize,
        nvm: &mut Backing,
        machine: Option<&MachineConfig>,
    ) -> RecoveryCost {
        match self {
            DurableState::NvmOnly => RecoveryCost::default(),
            DurableState::Sp => sp::recover(cores, nvm),
            DurableState::TxCache { txcaches, cow } => tc::recover(txcaches, cow, nvm, machine),
            DurableState::NvLlc { committed } => nvllc::recover(committed, nvm, machine),
            DurableState::Eadr { undo } => eadr::recover(undo, nvm),
        }
    }
}

/// The running scheme's runtime state: no run carries another scheme's.
#[derive(Debug, Default)]
pub(crate) enum SchemeState {
    /// No state and no hooks (Optimal).
    #[default]
    Plain,
    Sp,
    TxCache(tc::Tc),
    NvLlc(nvllc::NvLlc),
    Eadr(eadr::Eadr),
}

impl SchemeState {
    /// The state `cfg`'s scheme starts a run with.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        match cfg.scheme {
            SchemeKind::Optimal => SchemeState::Plain,
            SchemeKind::Sp => SchemeState::Sp,
            SchemeKind::TxCache => SchemeState::TxCache(tc::Tc::new(cfg)),
            SchemeKind::NvLlc => SchemeState::NvLlc(nvllc::NvLlc::new(cfg)),
            SchemeKind::Eadr => SchemeState::Eadr(eadr::Eadr::new(cfg.cores)),
        }
    }

    /// The LLC's pinning option and hit latency: NVLLC's STT-RAM array
    /// pins uncommitted lines and is slower to hit than the SRAM LLC.
    pub(crate) fn llc(&self, cfg: &MachineConfig) -> (HierarchyOpts, Cycle) {
        let (pin, ns) = match self {
            SchemeState::NvLlc(_) => (true, cfg.nvllc.read_ns),
            _ => (false, cfg.llc.latency_ns),
        };
        let opts = HierarchyOpts {
            pin_uncommitted_in_llc: pin,
        };
        (opts, cfg.core.freq.ns_to_cycles(ns))
    }

    /// Each core's transaction cache, for the sampler, the service-mode
    /// gate and the report; none outside TC.
    pub(crate) fn txcaches(&self) -> &[TxCache] {
        match self {
            SchemeState::TxCache(tc) => &tc.caches,
            _ => &[],
        }
    }

    /// Dirty persistent LLC evictions the scheme dropped.
    pub(crate) fn dropped_llc_writes(&self) -> u64 {
        match self {
            SchemeState::TxCache(tc) => tc.dropped_llc_writes.value(),
            _ => 0,
        }
    }

    /// Zeroes the scheme's statistics at the end of warm-up.
    pub(crate) fn reset_stats(&mut self) {
        if let SchemeState::TxCache(tc) = self {
            for cache in &mut tc.caches {
                cache.stats = TcStats::default();
            }
            tc.dropped_llc_writes = Counter::new();
        }
    }
}

impl System {
    /// Runs `hook` on the scheme's state taken out of the machine, so it can
    /// drive the machine too. Hooks never nest, so none sees the stand-in.
    fn detached<R>(&mut self, hook: impl FnOnce(&mut SchemeState, &mut System) -> R) -> R {
        let mut scheme = std::mem::take(&mut self.scheme);
        let out = hook(&mut scheme, self);
        self.scheme = scheme;
        out
    }

    /// Runs a TC-only path on the TC's state; a no-op (returning the
    /// default) under other schemes.
    pub(crate) fn on_tc<R: Default>(
        &mut self,
        path: impl FnOnce(&mut tc::Tc, &mut System) -> R,
    ) -> R {
        self.detached(|scheme, sys| match scheme {
            SchemeState::TxCache(tc) => path(tc, sys),
            _ => R::default(),
        })
    }

    /// Store hook, before any side effect: core `c`'s hierarchy access, or
    /// `None` when it stalls. `tx` is set for transactional data stores.
    pub(crate) fn store_access(
        &mut self,
        c: usize,
        addr: Addr,
        tx: Option<TxId>,
    ) -> Option<Access> {
        let acc = Access::store(addr.line());
        match (&mut self.scheme, tx) {
            (SchemeState::TxCache(_), Some(tx)) => self
                .on_tc(|tc, sys| tc.admit_store(sys, c, tx))
                .then_some(acc),
            // NVLLC tags persistent stores in a transaction for pinning.
            (SchemeState::NvLlc(_), _) => match self.cores[c].regs.current() {
                Some(tx) if addr.is_persistent() => Some(acc.with_tx(tx)),
                _ => Some(acc),
            },
            (SchemeState::Eadr(eadr), Some(_)) => {
                eadr.log_pre_image(c, addr.word(), &self.arch_image);
                Some(acc)
            }
            _ => Some(acc),
        }
    }

    /// Store hook, after the access: core `c`'s transaction `tx` stored
    /// `value` to `word`.
    pub(crate) fn tx_stored(&mut self, c: usize, tx: TxId, word: WordAddr, value: Word) {
        match &mut self.scheme {
            SchemeState::TxCache(_) => self.on_tc(|tc, sys| tc.buffer(sys, c, tx, word, value)),
            SchemeState::NvLlc(nvllc) => nvllc.record(c, word, value),
            _ => {}
        }
    }

    /// LLC-miss hook: the latency of a side path that serves the fill of
    /// `line`, if one does.
    pub(crate) fn probe_side_path(&mut self, line: LineAddr) -> Option<Cycle> {
        match &mut self.scheme {
            SchemeState::TxCache(tc) => tc.probe(line),
            _ => None,
        }
    }

    /// Snoop hook: each `(core, line)` lost its private copies of `line`.
    pub(crate) fn note_invalidations(&mut self, invalidated: &[(usize, LineAddr)]) {
        if let SchemeState::TxCache(tc) = &mut self.scheme {
            tc.note_invalidations(invalidated);
        }
    }

    /// `TX_END` hook: whether `tx` is durable at once, so the engine
    /// retires it now ([`System::finish_txend`]); otherwise the scheme's
    /// own completions retire it later.
    pub(crate) fn tx_end(&mut self, c: usize, tx: TxId) -> bool {
        self.detached(|scheme, sys| match scheme {
            SchemeState::TxCache(tc) => tc.tx_end(sys, c, tx),
            SchemeState::NvLlc(nvllc) => nvllc.tx_end(sys, c),
            SchemeState::Eadr(eadr) => eadr.tx_end(c),
            SchemeState::Plain | SchemeState::Sp => true,
        })
    }

    /// Eviction hook: what a dirty evicted line writes back, if anything.
    pub(crate) fn evicted_words(&mut self, line: LineAddr) -> Option<[Word; WORDS_PER_LINE]> {
        match &mut self.scheme {
            // §3: the transaction cache is the only persistent path.
            SchemeState::TxCache(tc) if line.is_persistent() => {
                tc.dropped_llc_writes.inc();
                None
            }
            SchemeState::NvLlc(nvllc) if line.is_persistent() => {
                Some(nvllc.committed_line(line, &self.nvm_backing))
            }
            _ => Some(self.arch_image.read_line(line)),
        }
    }

    /// Report hook: dirty persistent lines still owed to the NVM.
    pub(crate) fn residual_nvm_lines(&self) -> u64 {
        match self.scheme {
            // TC dropped them on eviction: its own path persists them.
            SchemeState::TxCache(_) => 0,
            // Uncommitted (pinned) lines are not owed to the NVM.
            SchemeState::NvLlc(_) => self.hier.dirty_persistent_lines(true).len() as u64,
            // eADR caches are ordinary write-back caches until power is
            // lost, so their dirty lines are owed to the NVM like Optimal's.
            _ => self.hier.dirty_persistent_lines(false).len() as u64,
        }
    }

    /// Crash hook: the durable state beside `logical`, the NVM image in
    /// logical line space, after any drain the scheme applies to it.
    pub(crate) fn durable_state(&self, logical: &mut Backing) -> DurableState {
        match &self.scheme {
            SchemeState::Plain => DurableState::NvmOnly,
            SchemeState::Sp => DurableState::Sp,
            SchemeState::TxCache(tc) => tc.snapshot(),
            SchemeState::NvLlc(nvllc) => nvllc.snapshot(),
            SchemeState::Eadr(eadr) => eadr.snapshot(self, logical),
        }
    }
}
