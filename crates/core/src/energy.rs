//! Energy accounting — a common extension of the paper's evaluation.
//!
//! NVM writes are the expensive operation in persistent-memory systems
//! (STT-RAM write energy is several times its read energy), so the write
//! traffic differences of Figure 9 translate directly into energy. This
//! module prices a [`RunReport`]'s event counts with per-access energy
//! constants from the STT-RAM/DRAM literature the paper builds on.

use crate::metrics::RunReport;

/// Per-access energy constants in picojoules (64-byte transfer for the
/// memory devices, one access for the SRAM/STT-RAM arrays).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// L1 access.
    pub l1_pj: f64,
    /// L2 access.
    pub l2_pj: f64,
    /// LLC access.
    pub llc_pj: f64,
    /// Transaction-cache CAM operation (insert/commit match/probe/ack).
    pub tc_pj: f64,
    /// DRAM line read or write.
    pub dram_pj: f64,
    /// NVM (STT-RAM) line read.
    pub nvm_read_pj: f64,
    /// NVM (STT-RAM) line write — the dominant term.
    pub nvm_write_pj: f64,
}

impl EnergyParams {
    /// Literature-typical constants (22 nm SRAM caches, DDR3 DRAM,
    /// STT-RAM main memory with ~4x write/read energy).
    #[must_use]
    pub fn dac17() -> Self {
        EnergyParams {
            l1_pj: 20.0,
            l2_pj: 60.0,
            llc_pj: 250.0,
            tc_pj: 35.0,
            dram_pj: 1_100.0,
            nvm_read_pj: 1_300.0,
            nvm_write_pj: 5_200.0,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::dac17()
    }
}

/// Energy consumed by one run, broken down by component (nanojoules).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Cache hierarchy (L1 + L2 + LLC accesses).
    pub caches_nj: f64,
    /// Transaction-cache CAM operations.
    pub txcache_nj: f64,
    /// DRAM reads and writes.
    pub dram_nj: f64,
    /// NVM reads.
    pub nvm_read_nj: f64,
    /// NVM writes (including the residual owed write-backs).
    pub nvm_write_nj: f64,
}

impl EnergyReport {
    /// Total energy in nanojoules.
    #[must_use]
    pub fn total_nj(&self) -> f64 {
        self.caches_nj + self.txcache_nj + self.dram_nj + self.nvm_read_nj + self.nvm_write_nj
    }

    /// The memory-system share (DRAM + NVM) of the total.
    #[must_use]
    pub fn memory_fraction(&self) -> f64 {
        let t = self.total_nj();
        if t == 0.0 {
            0.0
        } else {
            (self.dram_nj + self.nvm_read_nj + self.nvm_write_nj) / t
        }
    }
}

/// Prices a run's event counts.
///
/// # Example
///
/// ```
/// use pmacc::{energy, RunConfig, System};
/// use pmacc_types::MachineConfig;
/// use pmacc_workloads::{WorkloadKind, WorkloadParams};
///
/// let mut sys = System::for_workload(
///     MachineConfig::small(),
///     WorkloadKind::Sps,
///     &WorkloadParams::tiny(1),
///     &RunConfig::default(),
/// )?;
/// let report = sys.run()?;
/// let e = energy::energy_of(&report, &energy::EnergyParams::dac17());
/// assert!(e.total_nj() > 0.0);
/// # Ok::<(), pmacc_types::SimError>(())
/// ```
#[must_use]
pub fn energy_of(report: &RunReport, params: &EnergyParams) -> EnergyReport {
    let l1: u64 = report.hierarchy.l1.iter().map(|s| s.accesses.total()).sum();
    let l2: u64 = report.hierarchy.l2.iter().map(|s| s.accesses.total()).sum();
    let llc = report.hierarchy.llc.accesses.total();
    let tc_ops: u64 = report
        .tc
        .iter()
        .map(|s| {
            s.inserts.value()
                + s.commits.value()
                + s.acks.value()
                + s.probe_hits.value()
                + s.probe_misses.value()
        })
        .sum();
    let dram_ops = report.dram.reads.value() + report.dram.writes();
    let nvm_reads = report.nvm.reads.value();
    // Residual owed write-backs are priced like the writes they become;
    // TC drains and COW traffic are already in the completed counts.
    let nvm_writes = report.nvm_write_traffic();

    EnergyReport {
        caches_nj: (l1 as f64 * params.l1_pj
            + l2 as f64 * params.l2_pj
            + llc as f64 * params.llc_pj)
            / 1_000.0,
        txcache_nj: tc_ops as f64 * params.tc_pj / 1_000.0,
        dram_nj: dram_ops as f64 * params.dram_pj / 1_000.0,
        nvm_read_nj: nvm_reads as f64 * params.nvm_read_pj / 1_000.0,
        nvm_write_nj: nvm_writes as f64 * params.nvm_write_pj / 1_000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunConfig, System};
    use pmacc_types::{MachineConfig, SchemeKind};
    use pmacc_workloads::{WorkloadKind, WorkloadParams};

    fn run(scheme: SchemeKind) -> RunReport {
        let mut sys = System::for_workload(
            MachineConfig::small().with_scheme(scheme),
            WorkloadKind::Sps,
            &WorkloadParams::tiny(1),
            &RunConfig::default(),
        )
        .unwrap();
        sys.run().unwrap()
    }

    #[test]
    fn sp_burns_more_nvm_write_energy_than_optimal() {
        let p = EnergyParams::dac17();
        let sp = energy_of(&run(SchemeKind::Sp), &p);
        let opt = energy_of(&run(SchemeKind::Optimal), &p);
        assert!(sp.nvm_write_nj > opt.nvm_write_nj);
        assert!(sp.total_nj() > opt.total_nj());
    }

    #[test]
    fn only_tc_scheme_spends_txcache_energy() {
        let p = EnergyParams::dac17();
        assert!(energy_of(&run(SchemeKind::TxCache), &p).txcache_nj > 0.0);
        assert_eq!(energy_of(&run(SchemeKind::Optimal), &p).txcache_nj, 0.0);
    }

    #[test]
    fn totals_add_up() {
        let p = EnergyParams::dac17();
        let e = energy_of(&run(SchemeKind::TxCache), &p);
        let sum = e.caches_nj + e.txcache_nj + e.dram_nj + e.nvm_read_nj + e.nvm_write_nj;
        assert!((e.total_nj() - sum).abs() < 1e-9);
        assert!(e.memory_fraction() > 0.0 && e.memory_fraction() <= 1.0);
    }
}
