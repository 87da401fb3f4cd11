//! The memory controller's FR-FCFS request picker.

use std::collections::VecDeque;

use pmacc_types::MemReq;

use crate::bank::{AddressMap, BankState};

/// First-ready, first-come-first-served (the standard DRAMSim2-style
/// policy, the only one the paper's unmodified controller uses): picks
/// the oldest request that hits an open row buffer *and* whose bank is
/// idle, else the oldest request on an idle bank, else the queue head.
/// `queue` holds the controller's `(arrival_cycle, request)` pairs —
/// passing it by reference keeps the per-issue hot path free of clones.
/// Returns `None` if the queue is empty.
#[must_use]
pub(crate) fn pick(
    queue: &VecDeque<(u64, MemReq)>,
    banks: &[BankState],
    map: &AddressMap,
    now: u64,
) -> Option<usize> {
    if queue.is_empty() {
        return None;
    }
    // Oldest row-hit request on a ready bank wins.
    for (i, (_, req)) in queue.iter().enumerate() {
        let b = map.bank(req.addr);
        if banks[b].ready_at <= now && banks[b].is_row_hit(map.row(req.addr)) {
            return Some(i);
        }
    }
    // Otherwise oldest request on a ready bank.
    for (i, (_, req)) in queue.iter().enumerate() {
        let b = map.bank(req.addr);
        if banks[b].ready_at <= now {
            return Some(i);
        }
    }
    Some(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmacc_types::{LineAddr, MemConfig, ReqId, WriteCause};

    fn setup() -> (AddressMap, Vec<BankState>) {
        let cfg = MemConfig::nvm_dac17();
        let map = AddressMap::new(&cfg);
        let banks = vec![BankState::new(); map.banks()];
        (map, banks)
    }

    fn write(id: u64, line: u64) -> (u64, MemReq) {
        (
            0,
            MemReq::write(ReqId(id), LineAddr::new(line), WriteCause::Eviction),
        )
    }

    #[test]
    fn fr_fcfs_prefers_row_hit() {
        let (map, mut banks) = setup();
        // Open the row of line 1 (bank 1, row 0).
        let b = map.bank(LineAddr::new(1));
        banks[b].open_row = Some(map.row(LineAddr::new(1)));
        let mut q = VecDeque::new();
        q.push_back(write(1, 0)); // bank 0, closed row
        q.push_back(write(2, 1)); // bank 1, row hit
        assert_eq!(pick(&q, &banks, &map, 0), Some(1));
    }

    #[test]
    fn fr_fcfs_skips_busy_banks() {
        let (map, mut banks) = setup();
        banks[0].ready_at = 100; // bank of line 0 is busy
        let mut q = VecDeque::new();
        q.push_back(write(1, 0));
        q.push_back(write(2, 1));
        assert_eq!(pick(&q, &banks, &map, 0), Some(1));
    }

    #[test]
    fn fr_fcfs_falls_back_to_head_when_all_busy() {
        let (map, mut banks) = setup();
        for b in &mut banks {
            b.ready_at = 100;
        }
        let mut q = VecDeque::new();
        q.push_back(write(1, 0));
        q.push_back(write(2, 1));
        assert_eq!(pick(&q, &banks, &map, 0), Some(0));
    }

    #[test]
    fn empty_queue_yields_none() {
        let (map, banks) = setup();
        let q = VecDeque::new();
        assert_eq!(pick(&q, &banks, &map, 0), None);
    }
}
