//! Property tests: the coherence invariants hold under arbitrary operation
//! sequences, and dirty data survives any N−1 blade failures.

use proptest::prelude::*;
use ys_cache::{CacheCluster, Health, PageKey, ReadOutcome, Retention};

#[derive(Clone, Copy, Debug)]
enum Op {
    Read { blade: u8, page: u8 },
    Write { blade: u8, page: u8, n_way: u8 },
    Destage { page: u8 },
    Fail { blade: u8 },
    Repair { blade: u8 },
    Drain { blade: u8 },
    Revive { blade: u8 },
    FinishRejoin { blade: u8 },
    AddReplica { page: u8 },
    Invalidate { page: u8 },
    GovernedWrite { blade: u8, page: u8, n_way: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(blade, page)| Op::Read { blade, page }),
        (any::<u8>(), any::<u8>(), 1u8..4).prop_map(|(blade, page, n_way)| Op::Write { blade, page, n_way }),
        any::<u8>().prop_map(|page| Op::Destage { page }),
        any::<u8>().prop_map(|blade| Op::Fail { blade }),
        any::<u8>().prop_map(|blade| Op::Repair { blade }),
        any::<u8>().prop_map(|blade| Op::Drain { blade }),
        any::<u8>().prop_map(|blade| Op::Revive { blade }),
        any::<u8>().prop_map(|blade| Op::FinishRejoin { blade }),
        any::<u8>().prop_map(|page| Op::AddReplica { page }),
        any::<u8>().prop_map(|page| Op::Invalidate { page }),
        (any::<u8>(), any::<u8>(), 1u8..4).prop_map(|(blade, page, n_way)| Op::GovernedWrite { blade, page, n_way }),
    ]
}

/// `dirty_ratio` recomputed from the public page view: dirty owner copies
/// plus pinned replicas on serving blades, over the pooled capacity.
fn reference_dirty_ratio(c: &CacheCluster) -> f64 {
    let capacity = c.pooled_capacity();
    if capacity == 0 {
        return 0.0;
    }
    let undestaged: usize = (0..c.blade_count())
        .filter(|&b| c.blade_up(b))
        .map(|b| c.resident_pages_iter(b).filter(|p| p.dirty || p.replica).count())
        .sum();
    undestaged as f64 / capacity as f64
}

/// Every published ordering of the cluster's hashed tables is strictly
/// ascending by page key: directory walks, residency, dirty lists and the
/// healer's queue must not leak the hash layout into replay.
fn assert_key_ordered(c: &CacheCluster) -> Result<(), TestCaseError> {
    fn ascending(what: &str, keys: &[PageKey]) -> Result<(), TestCaseError> {
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{} not strictly ascending: {:?}", what, keys);
        Ok(())
    }
    ascending("directory().iter()", &c.directory().iter().map(|(k, _)| *k).collect::<Vec<_>>())?;
    let mut sorted = Vec::new();
    c.directory().sorted_keys_into(&mut sorted);
    ascending("directory().sorted_keys_into()", &sorted)?;
    for b in 0..c.blade_count() {
        ascending("resident_pages_iter", &c.resident_pages_iter(b).map(|p| p.key).collect::<Vec<_>>())?;
        ascending("dirty_pages", &c.dirty_pages(b))?;
    }
    ascending("under_target_pages", &c.under_target_pages().iter().map(|&(k, _)| k).collect::<Vec<_>>())?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants hold after every operation in any sequence, including
    /// failures, repairs, drains, rejoins, heal placements, invalidations
    /// and governed writes. After each operation the maintained dirty
    /// ratio equals a scan of the resident pages, and the governor refuses
    /// a write exactly when the cluster is read-only.
    #[test]
    fn invariants_hold_under_arbitrary_ops(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let blades = 5usize;
        let mut c = CacheCluster::new(blades, 8);
        for op in ops {
            match op {
                Op::Read { blade, page } => {
                    let b = blade as usize % blades;
                    let key = PageKey::new(0, (page % 32) as u64);
                    if let Ok(ReadOutcome::Miss) = c.read(b, key) {
                        let _ = c.fill(b, key, Retention::Normal);
                    }
                }
                Op::Write { blade, page, n_way } => {
                    let b = blade as usize % blades;
                    let key = PageKey::new(0, (page % 32) as u64);
                    let _ = c.write(b, key, n_way as usize, Retention::Normal);
                }
                Op::Destage { page } => {
                    let key = PageKey::new(0, (page % 32) as u64);
                    let _ = c.destage(key);
                }
                Op::Fail { blade } => {
                    // Losses are legal for under-replicated writes; the
                    // audit flags them until acknowledged, so acknowledge
                    // here — this property is about protocol bookkeeping,
                    // not the durability budget.
                    for key in c.fail_blade(blade as usize % blades).lost {
                        c.acknowledge_loss(key);
                    }
                }
                Op::Repair { blade } => {
                    c.repair_blade(blade as usize % blades);
                }
                Op::Drain { blade } => {
                    let _ = c.drain_blade(blade as usize % blades);
                }
                Op::Revive { blade } => {
                    let _ = c.revive_blade(blade as usize % blades);
                }
                Op::FinishRejoin { blade } => {
                    c.finish_rejoin(blade as usize % blades);
                }
                Op::AddReplica { page } => {
                    let _ = c.add_replica(PageKey::new(0, (page % 32) as u64));
                }
                Op::Invalidate { page } => {
                    c.invalidate_page(PageKey::new(0, (page % 32) as u64));
                }
                Op::GovernedWrite { blade, page, n_way } => {
                    let b = blade as usize % blades;
                    let key = PageKey::new(0, (page % 32) as u64);
                    let _ = c.governed_write(b, key, n_way as usize, Retention::Normal);
                }
            }
            prop_assert_eq!(c.dirty_ratio(), reference_dirty_ratio(&c), "dirty ratio after {:?}", op);
            assert_key_ordered(&c)?;
            let read_only = c.health() == Health::ReadOnly;
            prop_assert_eq!(
                c.admit_write(0, PageKey::new(0, 0)).is_err(),
                read_only,
                "governor disagrees with health after {:?}",
                op
            );
            // The structured audit names every broken rule at once; report
            // the full list so a failure pinpoints the invariant by name.
            let violations = c.audit_invariants();
            prop_assert!(
                violations.is_empty(),
                "after {op:?}: {}",
                violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
            );
        }
    }

    /// With N-way replication, killing any N−1 blades never loses a dirty
    /// page; versions survive intact.
    #[test]
    fn n_way_survives_any_n_minus_1_failures(
        n_way in 2usize..5,
        kill_order in proptest::collection::vec(any::<u8>(), 1..4),
        page in any::<u8>(),
    ) {
        let blades = 6usize;
        let mut c = CacheCluster::new(blades, 16);
        let key = PageKey::new(1, page as u64);
        let out = c.write(0, key, n_way, Retention::Normal).unwrap();
        prop_assume!(out.replicas.len() == n_way - 1);

        // Kill up to n_way - 1 distinct blades (any blades at all).
        let mut killed = std::collections::HashSet::new();
        for k in kill_order.iter().take(n_way - 1) {
            let b = *k as usize % blades;
            if killed.insert(b) {
                let report = c.fail_blade(b);
                prop_assert!(report.lost.is_empty(), "lost dirty data after {} failures", killed.len());
            }
        }
        let violations = c.audit_invariants();
        prop_assert!(
            violations.is_empty(),
            "{}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
        );
    }

    /// Reads return the latest written version: after a write, any reader
    /// observes the directory version of that write (monotonicity).
    #[test]
    fn versions_are_monotonic(writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..50)) {
        let blades = 4usize;
        let mut c = CacheCluster::new(blades, 64);
        let mut last_version = std::collections::HashMap::new();
        for (blade, page) in writes {
            let b = blade as usize % blades;
            let key = PageKey::new(0, (page % 16) as u64);
            let out = c.write(b, key, 2, Retention::Normal).unwrap();
            if let Some(prev) = last_version.insert(key, out.version) {
                prop_assert!(out.version > prev, "version regressed");
            }
        }
    }
}
