//! The Table 1 hardware-overhead calculator.
//!
//! Computes the storage added by the persistent memory accelerator for a
//! given machine configuration, reproducing the paper's accounting: with a
//! 4 KB transaction cache and one line per transaction there are at most
//! 64 in-flight transactions per core, so TxID fields need 16 bits; each
//! data-array line adds 7 bits (TxID + state) and each existing cache line
//! adds 1 bit (P/V).

use core::fmt;

use pmacc_types::MachineConfig;

/// Storage technology of an overhead component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Pipeline flip-flops.
    FlipFlops,
    /// SRAM bits added to existing cache arrays.
    Sram,
    /// STT-RAM bits in the transaction cache.
    SttRam,
}

impl fmt::Display for StorageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StorageKind::FlipFlops => "flip-flops",
            StorageKind::Sram => "SRAM",
            StorageKind::SttRam => "STTRAM",
        };
        f.write_str(s)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverheadRow {
    /// Component name.
    pub component: &'static str,
    /// Storage technology.
    pub kind: StorageKind,
    /// Size description (bits per instance).
    pub bits_per_instance: u64,
    /// Number of instances across the machine.
    pub instances: u64,
}

impl OverheadRow {
    /// Total bits across the machine.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.bits_per_instance * self.instances
    }
}

/// The full hardware-overhead accounting for a machine.
#[derive(Debug, Clone)]
pub struct HwOverhead {
    /// Table rows in the paper's order.
    pub rows: Vec<OverheadRow>,
    /// Transaction-cache data capacity per core, in bytes.
    pub tc_bytes_per_core: u64,
    /// Cores.
    pub cores: u64,
}

impl HwOverhead {
    /// Computes the overhead for `cfg`.
    #[must_use]
    pub fn for_machine(cfg: &MachineConfig) -> Self {
        let cores = cfg.cores as u64;
        let tc_entries = cfg.txcache.entries() as u64;
        // TxID must number every in-flight transaction; the paper uses 16
        // bits for the 4 KB / 64-entry case.
        let txid_bits = 16;
        let hierarchy_lines = cores * (cfg.l1.lines() + cfg.l2.lines()) + cfg.llc.lines();
        let rows = vec![
            OverheadRow {
                component: "CPU TxID/Mode register",
                kind: StorageKind::FlipFlops,
                bits_per_instance: txid_bits,
                instances: cores,
            },
            OverheadRow {
                component: "CPU Next TxID register",
                kind: StorageKind::FlipFlops,
                bits_per_instance: txid_bits,
                instances: cores,
            },
            OverheadRow {
                component: "Cache P/V flag",
                kind: StorageKind::Sram,
                bits_per_instance: 1,
                instances: hierarchy_lines,
            },
            OverheadRow {
                component: "TxID in TC data array",
                kind: StorageKind::SttRam,
                bits_per_instance: txid_bits,
                instances: cores * tc_entries,
            },
            OverheadRow {
                component: "State in TC data array",
                kind: StorageKind::SttRam,
                bits_per_instance: 1,
                instances: cores * tc_entries,
            },
            OverheadRow {
                component: "TC head/tail pointers",
                kind: StorageKind::FlipFlops,
                bits_per_instance: 2 * u64::from(64 - (tc_entries.max(2) - 1).leading_zeros()),
                instances: cores,
            },
            OverheadRow {
                component: "TC data array",
                kind: StorageKind::SttRam,
                bits_per_instance: cfg.txcache.size_bytes * 8,
                instances: cores,
            },
        ];
        HwOverhead {
            rows,
            tc_bytes_per_core: cfg.txcache.size_bytes,
            cores,
        }
    }

    /// Extra bits added per cache line of the existing hierarchy (the
    /// paper: 1 P/V bit, "much small compared to a cache line with 64
    /// bytes").
    #[must_use]
    pub fn bits_per_hierarchy_line(&self) -> u64 {
        1
    }

    /// Extra metadata bits per transaction-cache line (the paper: 7 bits,
    /// TxID + state — with the 16-bit registers the paper's Table 1 lists
    /// 16 + 1 = 17; the text's "7 bits" counts a 6-bit TxID).
    #[must_use]
    pub fn bits_per_tc_line(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| {
                matches!(
                    r.component,
                    "TxID in TC data array" | "State in TC data array"
                )
            })
            .map(|r| r.bits_per_instance)
            .sum()
    }

    /// Total added transaction-cache capacity across the machine, bytes.
    #[must_use]
    pub fn total_tc_bytes(&self) -> u64 {
        self.tc_bytes_per_core * self.cores
    }

    /// Fraction of the LLC capacity the transaction caches add.
    #[must_use]
    pub fn tc_vs_llc(&self, cfg: &MachineConfig) -> f64 {
        self.total_tc_bytes() as f64 / cfg.llc.size_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac17_matches_table1() {
        let cfg = MachineConfig::dac17();
        let hw = HwOverhead::for_machine(&cfg);
        // 4 cores x 4 KB = 16 KB of transaction cache, vs a 64 MB LLC.
        assert_eq!(hw.total_tc_bytes(), 16 * 1024);
        assert!(hw.tc_vs_llc(&cfg) < 0.001, "TC is tiny next to the LLC");
        // 16-bit TxID registers per core.
        let reg = &hw.rows[0];
        assert_eq!(reg.bits_per_instance, 16);
        assert_eq!(reg.total_bits(), 64);
        // One P/V bit per hierarchy line.
        assert_eq!(hw.bits_per_hierarchy_line(), 1);
        // TxID + state per TC line.
        assert_eq!(hw.bits_per_tc_line(), 17);
    }

    #[test]
    fn pv_bits_count_every_line() {
        let cfg = MachineConfig::dac17();
        let hw = HwOverhead::for_machine(&cfg);
        let pv = hw
            .rows
            .iter()
            .find(|r| r.component == "Cache P/V flag")
            .unwrap();
        // 4x(512 + 4096) + 1M lines.
        let expected = 4 * (512 + 4096) + (64 * 1024 * 1024 / 64);
        assert_eq!(pv.instances, expected);
    }

    #[test]
    fn rows_have_positive_sizes() {
        let hw = HwOverhead::for_machine(&MachineConfig::small());
        for r in &hw.rows {
            assert!(r.total_bits() > 0, "{} has zero size", r.component);
        }
    }
}
