//! Property tests of the cache hierarchy: inclusion, write-back
//! conservation, pin behaviour, NVLLC commits, and the MESI and directory
//! invariants under random access streams.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use pmacc_cache::{Access, CohState, Hierarchy, HierarchyOpts, PinBlockedError};
use pmacc_types::{Addr, CacheConfig, LineAddr, TxId};

fn hierarchy(pin: bool) -> Hierarchy {
    Hierarchy::new(
        2,
        CacheConfig::new(512, 2, 0.5),
        CacheConfig::new(2 * 1024, 4, 4.5),
        CacheConfig::new(8 * 1024, 8, 10.0),
        HierarchyOpts {
            pin_uncommitted_in_llc: pin,
        },
    )
}

fn nvm_line(i: u64) -> LineAddr {
    LineAddr::new(Addr::nvm_base().line().raw() + i)
}

/// L1 ⊆ L2 ⊆ LLC after any access stream, and a dirtied line is
/// either still cached or was reported exactly once as an eviction.
#[test]
fn inclusion_and_writeback_conservation() {
    pmacc_prop::check("inclusion_and_writeback_conservation", |g| {
        let accesses = g.vec(1..400, |g| {
            (
                g.gen_range(0usize..2),
                g.gen_range(0u64..64),
                g.gen::<bool>(),
            )
        });
        let mut h = hierarchy(false);
        let mut dirtied: HashSet<LineAddr> = HashSet::new();
        let mut evicted_dirty: Vec<LineAddr> = Vec::new();
        for (core, line_no, write) in accesses {
            let line = nvm_line(line_no);
            let acc = if write {
                Access::store(line)
            } else {
                Access::load(line)
            };
            let out = h.access(core, acc).expect("no pinning configured");
            if write {
                dirtied.insert(line);
            }
            for ev in out.evictions {
                if ev.dirty {
                    evicted_dirty.push(ev.line);
                }
            }
        }
        check_inclusion(&h, 2);
        // Conservation: every dirtied line is cached-dirty somewhere or
        // among the dirty evictions (no lost write-backs). A line can be
        // evicted dirty and re-dirtied, so membership (not counts) is
        // checked.
        let resident: HashSet<LineAddr> = h.llc().iter_valid().map(|(l, _)| l).collect();
        for line in dirtied {
            assert!(
                resident.contains(&line) || evicted_dirty.contains(&line),
                "dirty line {line} vanished without a write-back"
            );
        }
    });
}

/// L1 ⊆ L2 ⊆ LLC for every core.
fn check_inclusion(h: &Hierarchy, cores: usize) {
    for core in 0..cores {
        for (line, _) in h.l1(core).iter_valid() {
            assert!(h.l2(core).contains(line), "L1 ⊆ L2 violated at {line}");
            assert!(h.llc().contains(line), "L1 ⊆ LLC violated at {line}");
        }
        for (line, _) in h.l2(core).iter_valid() {
            assert!(h.llc().contains(line), "L2 ⊆ LLC violated at {line}");
        }
    }
}

/// Under NVLLC pinning, pinned lines are never reported as evictions,
/// and unpinning makes a blocked set usable again. The lines are
/// multiples of 16, so they crowd the 16-set LLC's pins into one set and
/// the blocked-set branch runs.
#[test]
fn pinned_lines_never_evict() {
    let blocked = AtomicUsize::new(0);
    pmacc_prop::check("pinned_lines_never_evict", |g| {
        let accesses = g.vec(1..300, |g| (16 * g.gen_range(0u64..32), g.gen::<bool>()));
        let mut h = hierarchy(true);
        let tx = TxId::new(0, 1);
        let mut pinned_candidates: HashSet<LineAddr> = HashSet::new();
        for (line_no, write) in accesses {
            let line = nvm_line(line_no);
            let acc = if write {
                pinned_candidates.insert(line);
                Access::store(line).with_tx(tx)
            } else {
                Access::load(line)
            };
            match h.access(0, acc) {
                Ok(out) => {
                    for ev in out.evictions {
                        assert!(
                            !(ev.dirty && ev.tx == Some(tx)),
                            "uncommitted transactional line {} evicted",
                            ev.line
                        );
                    }
                }
                Err(e) => {
                    // Fully pinned set: unpin one candidate in that set
                    // and verify the fill then proceeds.
                    blocked.fetch_add(1, Ordering::Relaxed);
                    let victim = h
                        .force_unpin_for(e.line)
                        .expect("a pinned victim exists in a blocked set");
                    assert!(pinned_candidates.contains(&victim));
                    assert!(h.access(0, Access::load(e.line)).is_ok());
                }
            }
        }
    });
    assert!(
        blocked.load(Ordering::Relaxed) > 0,
        "no case filled an LLC set with pins"
    );
}

/// The MESI single-writer discipline, checked after every access of a
/// randomized multi-core interleaving:
///
/// * a line with a Modified or Exclusive private copy has exactly one
///   core holding it;
/// * every copy derived as Shared is clean, and the `shared` bit never
///   coexists with dirtiness;
/// * whenever two cores hold the same line, all private copies are
///   Shared;
/// * inclusion (L1 ⊆ L2 ⊆ LLC) survives snoops and back-invalidation;
/// * the LLC directory names exactly the cores holding private copies.
#[test]
fn mesi_coherence_invariants() {
    pmacc_prop::check("mesi_coherence_invariants", |g| {
        const CORES: usize = 3;
        let mut h = Hierarchy::new(
            CORES,
            CacheConfig::new(512, 2, 0.5),
            CacheConfig::new(2 * 1024, 4, 4.5),
            CacheConfig::new(8 * 1024, 8, 10.0),
            HierarchyOpts {
                pin_uncommitted_in_llc: false,
            },
        );
        let accesses = g.vec(1..300, |g| {
            (
                g.gen_range(0usize..CORES),
                g.gen_range(0u64..48),
                g.gen::<bool>(),
            )
        });
        for (core, line_no, write) in accesses {
            let line = nvm_line(line_no);
            let acc = if write {
                Access::store(line)
            } else {
                Access::load(line)
            };
            h.access(core, acc).expect("no pinning configured");
            check_mesi(&h, CORES);
            h.directory_consistent()
                .expect("directory matches the private copies");
        }
    });
}

/// NVLLC commits on two cores: each step is a transactional store, a load
/// or a commit of one core's open transaction through `demote_tx_line`,
/// and a fill blocked by a fully pinned LLC set frees it with
/// `force_unpin_for`. Inclusion and the directory hold after every step,
/// and a commit leaves none of its lines pinned in the LLC.
#[test]
fn pinned_commits_keep_inclusion_and_directory() {
    pmacc_prop::check("pinned_commits_keep_inclusion_and_directory", |g| {
        const CORES: usize = 2;
        let steps = g.vec(1..300, |g| {
            (
                g.gen_range(0usize..CORES),
                g.gen_range(0u8..10),
                g.gen_range(0u64..48),
            )
        });
        // Two-way sets at every level, and an LLC of 16 lines for 48, so
        // pinned lines fill whole LLC sets.
        let mut h = Hierarchy::new(
            CORES,
            CacheConfig::new(256, 2, 0.5),
            CacheConfig::new(512, 2, 4.5),
            CacheConfig::new(1024, 2, 10.0),
            HierarchyOpts {
                pin_uncommitted_in_llc: true,
            },
        );
        let mut serial = [0u64; CORES];
        let mut written: [Vec<LineAddr>; CORES] = Default::default();
        for (core, op, line_no) in steps {
            let line = nvm_line(line_no);
            match op {
                0..=4 => {
                    let tx = TxId::new(core as u8, serial[core]);
                    access_unpinning(&mut h, core, Access::store(line).with_tx(tx));
                    written[core].push(line);
                }
                5..=8 => access_unpinning(&mut h, core, Access::load(line)),
                _ => {
                    for &line in &written[core] {
                        h.demote_tx_line(core, line);
                    }
                    for line in written[core].drain(..) {
                        assert!(
                            h.llc().peek(line).is_none_or(|l| !l.pinned),
                            "{line} still pinned after its commit"
                        );
                    }
                    serial[core] += 1;
                }
            }
            check_inclusion(&h, CORES);
            h.directory_consistent()
                .expect("directory matches the private copies");
        }
    });
}

/// Performs `acc`, forcibly unpinning the blocked LLC set until the fill
/// proceeds.
fn access_unpinning(h: &mut Hierarchy, core: usize, acc: Access) {
    while let Err(PinBlockedError { line }) = h.access(core, acc) {
        h.force_unpin_for(line)
            .expect("a blocked set holds a pinned line");
    }
}

fn check_mesi(h: &Hierarchy, cores: usize) {
    // Per line, the set of holder cores and the strongest private state
    // each holds (a core may hold copies in both L1 and L2; dirtiness in
    // either makes it the Modified owner).
    let mut holders: HashMap<LineAddr, Vec<(usize, CohState)>> = HashMap::new();
    for core in 0..cores {
        let mut strongest: HashMap<LineAddr, CohState> = HashMap::new();
        for arr in [h.l1(core), h.l2(core)] {
            for (line, l) in arr.iter_valid() {
                assert!(
                    !(l.shared && l.state.is_dirty()),
                    "core {core} holds {line} both shared and dirty"
                );
                let s = CohState::of(l);
                if s == CohState::Shared {
                    assert!(!l.state.is_dirty(), "Shared copy of {line} is dirty");
                }
                let e = strongest.entry(line).or_insert(s);
                if s == CohState::Modified {
                    *e = s;
                }
                // Inclusion after back-invalidation: every private copy
                // still has an LLC backing line.
                assert!(
                    h.llc().contains(line),
                    "{line} cached privately but not in LLC"
                );
            }
        }
        for (line, s) in strongest {
            holders.entry(line).or_default().push((core, s));
        }
    }
    for (line, hs) in holders {
        let exclusive = hs
            .iter()
            .filter(|(_, s)| matches!(s, CohState::Modified | CohState::Exclusive))
            .count();
        assert!(
            exclusive <= 1,
            "{line} has {exclusive} Modified/Exclusive owners: {hs:?}"
        );
        if hs.len() > 1 {
            assert!(
                hs.iter().all(|(_, s)| *s == CohState::Shared),
                "{line} held by {} cores but not all Shared: {hs:?}",
                hs.len()
            );
        }
    }
}

/// flush_line is idempotent and never leaves a dirty copy behind.
#[test]
fn flush_line_cleans() {
    pmacc_prop::check("flush_line_cleans", |g| {
        let lines = g.vec(1..100, |g| g.gen_range(0u64..32));
        let mut h = hierarchy(false);
        for line_no in &lines {
            let line = nvm_line(*line_no);
            h.access(0, Access::store(line)).expect("no pinning");
        }
        for line_no in lines {
            let line = nvm_line(line_no);
            h.flush_line(0, line);
            assert!(!h.flush_line(0, line), "second flush finds no dirt");
            for arr in [h.l1(0), h.l2(0), h.llc()] {
                if let Some(l) = arr.peek(line) {
                    assert!(!l.state.is_dirty());
                }
            }
        }
    });
}
