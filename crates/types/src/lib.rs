#![warn(missing_docs)]
//! Common types for the `pmacc` persistent-memory simulator.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: physical [`Addr`]esses and cache-[`LineAddr`]esses, simulated
//! [`Cycle`] time, transaction identity ([`TxId`]), memory [`MemReq`]uests,
//! the [`MachineConfig`] tree describing the simulated machine, and small
//! statistics helpers ([`Counter`], [`Ratio`]).
//!
//! # Example
//!
//! ```
//! use pmacc_types::{Addr, MachineConfig, MemRegion, SchemeKind};
//!
//! let cfg = MachineConfig::dac17(); // the paper's Table 2 machine
//! assert_eq!(cfg.cores, 4);
//! assert_eq!(cfg.scheme, SchemeKind::TxCache);
//!
//! let a = Addr::nvm_base();
//! assert_eq!(a.region(), MemRegion::Nvm);
//! ```

mod addr;
mod config;
mod cycle;
mod error;
pub mod hash;
pub mod layout;
mod request;
pub mod rng;
mod stats;
mod txid;
mod value;

pub use addr::{
    Addr, LineAddr, MemRegion, WordAddr, ADDR_SPACE_BYTES, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES,
};
pub use config::{
    CacheConfig, CoreConfig, MachineConfig, MemConfig, NvLlcConfig, SchemeKind, SpMode,
    TxCacheConfig, WearConfig,
};
pub use cycle::{Cycle, Freq};
pub use error::{ConfigError, SimError};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use request::{AccessKind, MemReq, ReqId, WriteCause};
pub use rng::Rng;
pub use stats::{Counter, Ratio};
pub use txid::TxId;
pub use value::Word;
