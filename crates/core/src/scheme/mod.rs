//! The four persistence schemes compared in §5 of the paper, plus the
//! eADR flush-on-failure upper bound.
//!
//! A scheme is two things:
//!
//! 1. **Trace instrumentation** — what extra instructions software must
//!    execute. Only `SP` instruments anything (write-ahead logging with
//!    `clwb`/`sfence` write-order control, Figure 3a); `Optimal`, `TC`,
//!    `NVLLC` and `eADR` run the raw trace, because their persistence
//!    support (none / transaction cache / nonvolatile LLC / residual-energy
//!    cache drain) is in hardware.
//! 2. **Runtime behaviour** — how the system layer routes stores, commits,
//!    LLC misses and LLC evictions. That half lives in [`crate::System`]:
//!    one enum variant per scheme holds that scheme's runtime state, and
//!    every routing decision matches on it. A crash turns the variant into
//!    the matching [`crate::recovery::DurableState`], which
//!    [`crate::recovery::recover`] walks.

pub mod sp;

use pmacc_cpu::Trace;
use pmacc_types::SchemeKind;

/// Applies the scheme's software instrumentation to a core's trace.
/// Hardware schemes return the trace unchanged, without copying it.
///
/// # Example
///
/// ```
/// use pmacc::scheme::instrument;
/// use pmacc_cpu::{Op, Trace};
/// use pmacc_types::{Addr, SchemeKind};
///
/// let mut t = Trace::new();
/// t.push(Op::TxBegin);
/// t.push(Op::store(Addr::nvm_base(), 1));
/// t.push(Op::TxEnd);
///
/// // Hardware schemes leave the trace alone.
/// assert_eq!(instrument(SchemeKind::TxCache, 0, t.clone()), t);
/// // Software logging makes it much longer.
/// assert!(instrument(SchemeKind::Sp, 0, t.clone()).len() > t.len());
/// ```
#[must_use]
pub fn instrument(scheme: SchemeKind, core: usize, trace: Trace) -> Trace {
    match scheme {
        SchemeKind::Sp => sp::instrument(core, &trace),
        SchemeKind::Optimal | SchemeKind::TxCache | SchemeKind::NvLlc | SchemeKind::Eadr => trace,
    }
}
