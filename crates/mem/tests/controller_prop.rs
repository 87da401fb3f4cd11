//! Property tests of the memory controller: request conservation, fences
//! of the drain policy, and timing monotonicity.

use std::collections::HashSet;

use pmacc_mem::MemController;
use pmacc_types::{Addr, LineAddr, MemConfig, MemReq, ReqId, WriteCause};

fn line(i: u64) -> LineAddr {
    LineAddr::new(Addr::nvm_base().line().raw() + i)
}

/// Every accepted request completes exactly once, after its arrival,
/// and completions never travel back in time.
#[test]
fn conservation_and_monotonic_time() {
    pmacc_prop::check("conservation_and_monotonic_time", |g| {
        let reqs = g.vec(1..150, |g| {
            (
                g.gen_range(0u64..64),
                g.gen::<bool>(),
                g.gen_range(0u64..50),
            )
        });
        let mut ctrl = MemController::new(MemConfig::nvm_dac17());
        let mut now = 0u64;
        let mut accepted: HashSet<u64> = HashSet::new();
        let mut arrivals: std::collections::HashMap<u64, u64> = Default::default();
        let mut completed: HashSet<u64> = HashSet::new();
        let mut next_id = 0u64;
        let mut last_seen = 0u64;

        for (line_no, is_write, gap) in reqs {
            now += gap;
            next_id += 1;
            let req = if is_write {
                MemReq::write(ReqId(next_id), line(line_no), WriteCause::Eviction)
            } else {
                MemReq::read(ReqId(next_id), line(line_no))
            };
            if ctrl.enqueue(req, now).is_ok() {
                accepted.insert(next_id);
                arrivals.insert(next_id, now);
            }
            for c in ctrl.advance(now) {
                assert!(completed.insert(c.req.id.0), "double completion");
                assert!(c.done_at <= now);
                assert!(c.done_at >= last_seen, "completions out of order");
                assert!(c.done_at >= arrivals[&c.req.id.0], "completed before arrival");
                last_seen = c.done_at;
            }
        }
        // Drain everything.
        let mut guard = 0;
        while ctrl.outstanding() > 0 {
            now = ctrl.next_wake().unwrap_or(now + 1).max(now + 1);
            for c in ctrl.advance(now) {
                assert!(completed.insert(c.req.id.0), "double completion at drain");
            }
            guard += 1;
            assert!(guard < 10_000, "controller failed to quiesce");
        }
        assert_eq!(completed, accepted, "every accepted request completes");
    });
}

/// Writes to a line already queued coalesce and still complete.
#[test]
fn coalesced_writes_complete() {
    pmacc_prop::check("coalesced_writes_complete", |g| {
        let n = g.gen_range(2usize..20);
        let mut ctrl = MemController::new(MemConfig::nvm_dac17());
        for i in 0..n as u64 {
            ctrl.enqueue(MemReq::write(ReqId(i), line(0), WriteCause::Flush), 0)
                .expect("same-line writes coalesce, never overflow");
        }
        let done = ctrl.advance(1_000_000);
        assert_eq!(done.len(), n, "all ids complete");
        // Only one device write happened; the rest were absorbed.
        assert_eq!(ctrl.stats.writes(), 1);
        assert_eq!(ctrl.stats.coalesced_writes.value(), n as u64 - 1);
    });
}
