//! Fixed carve-up of the simulated physical address space.
//!
//! Both the workload heap and the persistence schemes must agree on where
//! things live, so the layout is defined once here:
//!
//! ```text
//! DRAM  [0,          8 GiB)   volatile heap (from VOLATILE_HEAP_BASE);
//!                             cores 0-5 stride 1 GiB apart, cores 6-63
//!                             stride 32 MiB apart above them
//! NVM   [8 GiB,      +1 GiB)  per-core SP write-ahead-log areas
//!       [9 GiB,      +1 GiB)  per-core hardware copy-on-write areas
//!       [10 GiB,     16 GiB)  persistent heap, strided per core
//!                             (CORE_STRIDE apart, BASE_STRIDED_CORES
//!                             cores)
//!       [16 GiB,     24 GiB)  shared persistent window (lines contended
//!                             across cores under the sharing knob)
//!       [24 GiB,     82 GiB)  extended per-core heap images for cores
//!                             6..MAX_STRIDED_CORES (1 GiB apart)
//! ```
//!
//! The shared window's position is anchored on the first
//! [`BASE_STRIDED_CORES`] cores so that growing the core count never
//! moves any address a smaller machine would have used: cores beyond the
//! base range take their persistent image from the extended bank *above*
//! the shared window instead.

use crate::addr::Addr;

/// Start of the volatile heap in DRAM (leaves page zero unused).
#[must_use]
pub fn volatile_heap_base() -> Addr {
    Addr::new(1 << 20)
}

/// Bytes of log area reserved per core (16 MiB each).
pub const LOG_AREA_BYTES_PER_CORE: u64 = 16 << 20;

/// Start of `core`'s SP write-ahead-log area.
///
/// # Panics
///
/// Panics if `core >= 64` (the configured machine limit).
#[must_use]
pub fn log_area_base(core: usize) -> Addr {
    assert!(core < 64, "core index out of range");
    Addr::nvm_base().offset(core as u64 * LOG_AREA_BYTES_PER_CORE)
}

/// Bytes of copy-on-write area reserved per core (16 MiB each).
pub const COW_AREA_BYTES_PER_CORE: u64 = 16 << 20;

/// Start of `core`'s hardware copy-on-write fall-back area (TC overflow).
///
/// # Panics
///
/// Panics if `core >= 64`.
#[must_use]
pub fn cow_area_base(core: usize) -> Addr {
    assert!(core < 64, "core index out of range");
    Addr::nvm_base().offset((1 << 30) + core as u64 * COW_AREA_BYTES_PER_CORE)
}

/// Start of the persistent workload heap.
#[must_use]
pub fn persistent_heap_base() -> Addr {
    Addr::nvm_base().offset(2 << 30)
}

/// Per-core stride applied to persistent-heap and volatile-heap addresses
/// so that cores touch disjoint lines (1 GiB apart for the first
/// [`BASE_STRIDED_CORES`] cores).
pub const CORE_STRIDE: u64 = 1 << 30;

/// Cores whose heap images use the dense 1 GiB-per-core layout below the
/// shared window. The shared window's position is derived from this
/// count and must never move, so it is a layout constant independent of
/// [`MAX_STRIDED_CORES`].
pub const BASE_STRIDED_CORES: usize = 6;

/// Number of cores the striding scheme can keep disjoint. Cores
/// `BASE_STRIDED_CORES..` take 1 GiB persistent images from the extended
/// bank above the shared window ([`extended_heap_base`]) and narrower
/// [`EXT_VOLATILE_STRIDE`] volatile slices.
pub const MAX_STRIDED_CORES: usize = 64;

/// Volatile-heap stride for cores `BASE_STRIDED_CORES..` (32 MiB each):
/// the remaining DRAM below the NVM base, divided across the extended
/// cores. Workload volatile footprints are far below this.
pub const EXT_VOLATILE_STRIDE: u64 = 32 << 20;

/// Bytes of the shared persistent window
/// (`[shared_pool_base, extended_heap_base)`).
pub const SHARED_POOL_BYTES: u64 = 8 << 30;

/// Start of the shared persistent window.
///
/// Addresses in `[shared_pool_base, extended_heap_base)` are *not*
/// strided per core: every core sees the same physical lines, so stores
/// here are the one place two cores can genuinely contend for a
/// persistent line. The workload sharing knob remaps a fraction of each
/// core's persistent-heap lines into this window.
#[must_use]
pub fn shared_pool_base() -> Addr {
    persistent_heap_base().offset(BASE_STRIDED_CORES as u64 * CORE_STRIDE)
}

/// End of the shared persistent window and start of the extended
/// per-core heap bank (cores `BASE_STRIDED_CORES..MAX_STRIDED_CORES`).
#[must_use]
pub fn extended_heap_base() -> Addr {
    shared_pool_base().offset(SHARED_POOL_BYTES)
}

/// Byte offset added to a persistent-heap address to relocate it into
/// `core`'s private image.
///
/// # Panics
///
/// Panics if `core >= MAX_STRIDED_CORES`.
#[must_use]
pub fn persistent_heap_stride(core: usize) -> u64 {
    assert!(core < MAX_STRIDED_CORES, "core index out of striding range");
    if core < BASE_STRIDED_CORES {
        core as u64 * CORE_STRIDE
    } else {
        (extended_heap_base().raw() - persistent_heap_base().raw())
            + (core - BASE_STRIDED_CORES) as u64 * CORE_STRIDE
    }
}

/// Byte offset added to a volatile-heap address to relocate it into
/// `core`'s private image.
///
/// # Panics
///
/// Panics if `core >= MAX_STRIDED_CORES`.
#[must_use]
pub fn volatile_heap_stride(core: usize) -> u64 {
    assert!(core < MAX_STRIDED_CORES, "core index out of striding range");
    if core < BASE_STRIDED_CORES {
        core as u64 * CORE_STRIDE
    } else {
        BASE_STRIDED_CORES as u64 * CORE_STRIDE
            + (core - BASE_STRIDED_CORES) as u64 * EXT_VOLATILE_STRIDE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MemRegion;

    #[test]
    fn regions_are_consistent() {
        assert_eq!(volatile_heap_base().region(), MemRegion::Dram);
        assert_eq!(log_area_base(0).region(), MemRegion::Nvm);
        assert_eq!(cow_area_base(63).region(), MemRegion::Nvm);
        assert_eq!(persistent_heap_base().region(), MemRegion::Nvm);
    }

    #[test]
    fn areas_do_not_overlap() {
        // Last byte of the last log area is below the first COW area.
        let log_end = log_area_base(63).raw() + LOG_AREA_BYTES_PER_CORE;
        assert!(log_end <= cow_area_base(0).raw());
        let cow_end = cow_area_base(63).raw() + COW_AREA_BYTES_PER_CORE;
        assert!(cow_end <= persistent_heap_base().raw());
        // The last dense heap image ends exactly where the shared
        // window begins, and the shared window ends exactly where the
        // extended bank begins.
        let heap_end = persistent_heap_base().raw() + BASE_STRIDED_CORES as u64 * CORE_STRIDE;
        assert_eq!(heap_end, shared_pool_base().raw());
        assert_eq!(
            shared_pool_base().raw() + SHARED_POOL_BYTES,
            extended_heap_base().raw()
        );
        assert_eq!(shared_pool_base().region(), MemRegion::Nvm);
    }

    #[test]
    fn extended_strides_stay_disjoint_and_in_region() {
        // Dense cores keep the historical offsets exactly.
        for core in 0..BASE_STRIDED_CORES {
            assert_eq!(persistent_heap_stride(core), core as u64 * CORE_STRIDE);
            assert_eq!(volatile_heap_stride(core), core as u64 * CORE_STRIDE);
        }
        // Extended cores land above the shared window, 1 GiB apart.
        let first = persistent_heap_base().raw() + persistent_heap_stride(BASE_STRIDED_CORES);
        assert_eq!(first, extended_heap_base().raw());
        assert_eq!(
            persistent_heap_stride(7) - persistent_heap_stride(6),
            CORE_STRIDE
        );
        // The last extended image never reaches back into the shared
        // window and stays in the NVM region.
        let last = persistent_heap_base()
            .offset(persistent_heap_stride(MAX_STRIDED_CORES - 1) + CORE_STRIDE - 1);
        assert_eq!(last.region(), MemRegion::Nvm);
        assert!(last.raw() >= extended_heap_base().raw());
        // Extended volatile slices are 32 MiB apart and stay in DRAM.
        assert_eq!(
            volatile_heap_stride(7) - volatile_heap_stride(6),
            EXT_VOLATILE_STRIDE
        );
        let vlast = volatile_heap_base()
            .offset(volatile_heap_stride(MAX_STRIDED_CORES - 1) + EXT_VOLATILE_STRIDE - 1);
        assert_eq!(vlast.region(), MemRegion::Dram);
    }

    #[test]
    fn per_core_areas_are_disjoint() {
        assert_eq!(
            log_area_base(1).raw() - log_area_base(0).raw(),
            LOG_AREA_BYTES_PER_CORE
        );
        assert_eq!(
            cow_area_base(2).raw() - cow_area_base(1).raw(),
            COW_AREA_BYTES_PER_CORE
        );
    }
}
