#![warn(missing_docs)]
//! Cache-hierarchy substrate for the `pmacc` simulator.
//!
//! Models the paper's three-level hierarchy (private L1 and L2 per core, a
//! shared inclusive LLC) as *state*: each level is one flat array of line
//! metadata (`sets × ways`, set-major) with pin-aware LRU replacement,
//! transaction tags and a MESI sharing bit kept coherent by a snooping-bus
//! layer (see the `coherence` module docs for the state encoding and the
//! BusRd/BusRdX/BusUpgr flows). A line keeps no state its address already
//! holds: its set comes from the address's index bits, and its
//! persistent/volatile (P/V) flag from the address's region
//! ([`LineAddr::is_persistent`](pmacc_types::LineAddr::is_persistent)).
//! Timing is layered on top by the system crate (`pmacc`), which walks the
//! hierarchy and adds the per-level latencies of Table 2.
//!
//! Two properties the paper relies on are first-class here:
//!
//! * **The hierarchy is left as-is.** Scheme-specific behaviour (dropping
//!   persistent LLC evictions under the transaction cache, or pinning
//!   uncommitted lines under the NVLLC/Kiln baseline) is expressed through
//!   a small [`HierarchyOpts`] hook rather than new cache states.
//! * **Inclusion.** L1 ⊆ L2 ⊆ LLC; evicting from an outer level
//!   back-invalidates inner copies and merges their dirtiness, so a line's
//!   final write-back carries every store performed to it.
//!
//! # Example
//!
//! ```
//! use pmacc_cache::{Access, Hierarchy, HierarchyOpts, Level};
//! use pmacc_types::{CacheConfig, LineAddr};
//!
//! let mut h = Hierarchy::new(
//!     1,
//!     CacheConfig::new(4 * 1024, 4, 0.5),
//!     CacheConfig::new(16 * 1024, 8, 4.5),
//!     CacheConfig::new(64 * 1024, 16, 10.0),
//!     HierarchyOpts::default(),
//! );
//! let line = LineAddr::new(0x100);
//! let miss = h.access(0, Access::load(line)).expect("not blocked");
//! assert_eq!(miss.hit, None); // cold miss
//! let hit = h.access(0, Access::load(line)).expect("not blocked");
//! assert_eq!(hit.hit, Some(Level::L1));
//! ```

mod array;
mod coherence;
mod hierarchy;
mod line;
mod mshr;
mod stats;
mod wbuf;

pub use array::CacheArray;
pub use coherence::CohState;
pub use hierarchy::{
    Access, AccessOutcome, Eviction, Hierarchy, HierarchyOpts, Level, PinBlockedError,
};
pub use line::{CacheLine, LineState};
pub use mshr::{Mshr, MshrFullError};
pub use stats::{CacheStats, CoherenceStats, HierarchyStats};
pub use wbuf::WriteBackBuffer;
