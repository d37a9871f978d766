//! Structured coherence-protocol invariants for [`CacheCluster`].
//!
//! Every rule the cluster must uphold between operations lives here, named,
//! so both the property tests and the `ys-check` bounded model checker can
//! report *which* protocol obligation broke and *where*. The rules encode
//! the paper's claims: a single coherent pooled cache (§2.2), and dirty
//! data that survives any N−1 blade failures when written N-way (§6.1).

use crate::cluster::{BladeState, CacheCluster, Residency};
use crate::directory::PageKey;
use std::fmt;

/// The individual protocol obligations audited by [`audit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// A page's owner never appears in its own sharer list, and the owner,
    /// sharer, and replica sets are pairwise disjoint.
    HolderSetsDisjoint,
    /// The directory owner holds a dirty `Modified` copy at the directory's
    /// current version.
    OwnerDirtyCopy,
    /// Every directory sharer holds a clean `Shared` copy at the current
    /// version.
    SharerCleanCopy,
    /// Every directory replica blade holds a pinned replica at the current
    /// version, and replicas never exist without an owner to protect.
    ReplicaIntegrity,
    /// Every resident page is reflected in the directory with the matching
    /// role (dirty ⇒ owner, clean ⇒ sharer, replica ⇒ replica set).
    ResidencyBacklink,
    /// No blade holds more pages than its configured capacity.
    Capacity,
    /// A failed blade holds nothing, and the directory never points at a
    /// down blade.
    DownBladeConsistency,
    /// A blade's maintained un-destaged count equals its dirty owner
    /// copies plus pinned replicas: the QoS pressure sample
    /// ([`CacheCluster::dirty_ratio`]) reads the count, not the pages.
    UndestagedCount,
    /// An acknowledged (dirty, replicated-as-requested) write was lost —
    /// the owner and every replica failed before destage — and nobody has
    /// acknowledged the loss. Unlike the other rules this one reports an
    /// *unhandled event*, not corrupted bookkeeping: the cluster records it
    /// so the loss can never degrade into a silent stale read.
    DataLoss,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::HolderSetsDisjoint => "holder-sets-disjoint",
            Invariant::OwnerDirtyCopy => "owner-dirty-copy",
            Invariant::SharerCleanCopy => "sharer-clean-copy",
            Invariant::ReplicaIntegrity => "replica-integrity",
            Invariant::ResidencyBacklink => "residency-backlink",
            Invariant::Capacity => "capacity",
            Invariant::DownBladeConsistency => "down-blade-consistency",
            Invariant::UndestagedCount => "undestaged-count",
            Invariant::DataLoss => "data-loss",
        };
        f.write_str(name)
    }
}

/// One broken obligation: which rule, where, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub invariant: Invariant,
    /// The page involved, when the rule is per-page.
    pub key: Option<PageKey>,
    /// The blade involved, when the rule points at one.
    pub blade: Option<usize>,
    pub detail: String,
}

impl Violation {
    fn page(invariant: Invariant, key: PageKey, blade: usize, detail: String) -> Violation {
        Violation { invariant, key: Some(key), blade: Some(blade), detail }
    }

    fn blade(invariant: Invariant, blade: usize, detail: String) -> Violation {
        Violation { invariant, key: None, blade: Some(blade), detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.invariant)?;
        if let Some(k) = self.key {
            write!(f, " page {k:?}")?;
        }
        if let Some(b) = self.blade {
            write!(f, " blade {b}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Audit every invariant and return all violations found (empty = healthy).
pub fn audit(cluster: &CacheCluster) -> Vec<Violation> {
    let mut out = Vec::new();
    audit_directory(cluster, &mut out);
    audit_residency(cluster, &mut out);
    audit_blades(cluster, &mut out);
    audit_losses(cluster, &mut out);
    out
}

/// Unacknowledged data losses: every tombstone is a broken durability
/// promise until something accepts it (see
/// [`CacheCluster::acknowledge_loss`]).
fn audit_losses(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    for (key, version) in cluster.lost_pages() {
        out.push(Violation {
            invariant: Invariant::DataLoss,
            key: Some(key),
            blade: None,
            detail: format!("dirty v{version} lost with its owner and every replica; loss unacknowledged"),
        });
    }
}

/// Directory-side rules: each entry's holder sets against blade contents.
/// Entries are walked in hash order and the findings then put in key
/// order (a stable sort keeps each page's findings in rule order), so the
/// report is the same on every replay and a clean audit sorts nothing.
fn audit_directory(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    let mut found = Vec::new();
    for (key, e) in cluster.directory.iter_unordered() {
        let key = *key;
        if let Some(o) = e.owner {
            if e.sharers.contains(&o) {
                found.push(Violation::page(
                    Invariant::HolderSetsDisjoint,
                    key,
                    o,
                    "owner also listed as sharer".into(),
                ));
            }
            if e.replicas.contains(&o) {
                found.push(Violation::page(
                    Invariant::HolderSetsDisjoint,
                    key,
                    o,
                    "owner also listed as replica".into(),
                ));
            }
        }
        for &s in &e.sharers {
            if e.replicas.contains(&s) {
                found.push(Violation::page(
                    Invariant::HolderSetsDisjoint,
                    key,
                    s,
                    "sharer also listed as replica".into(),
                ));
            }
        }

        if let Some(o) = e.owner {
            match cluster.blades.get(o).and_then(|b| b.lru.get(&key)) {
                Some(m) if matches!(m.residency, Residency::Cached { dirty: true, .. }) => {
                    if m.version != e.version {
                        found.push(Violation::page(
                            Invariant::OwnerDirtyCopy,
                            key,
                            o,
                            format!("owner copy at v{} but directory at v{}", m.version, e.version),
                        ));
                    }
                }
                Some(_) => found.push(Violation::page(
                    Invariant::OwnerDirtyCopy,
                    key,
                    o,
                    "owner's resident copy is not dirty".into(),
                )),
                None => found.push(Violation::page(
                    Invariant::OwnerDirtyCopy,
                    key,
                    o,
                    "directory owner holds no copy".into(),
                )),
            }
        }

        for &s in &e.sharers {
            match cluster.blades.get(s).and_then(|b| b.lru.get(&key)) {
                Some(m) if matches!(m.residency, Residency::Cached { dirty: false, .. }) => {
                    if m.version != e.version {
                        found.push(Violation::page(
                            Invariant::SharerCleanCopy,
                            key,
                            s,
                            format!("sharer copy at v{} but directory at v{}", m.version, e.version),
                        ));
                    }
                }
                Some(_) => found.push(Violation::page(
                    Invariant::SharerCleanCopy,
                    key,
                    s,
                    "sharer's resident copy is not clean".into(),
                )),
                None => found.push(Violation::page(
                    Invariant::SharerCleanCopy,
                    key,
                    s,
                    "directory sharer holds no copy".into(),
                )),
            }
        }

        if !e.replicas.is_empty() && e.owner.is_none() {
            found.push(Violation {
                invariant: Invariant::ReplicaIntegrity,
                key: Some(key),
                blade: None,
                detail: "pinned replicas exist with no owner to protect".into(),
            });
        }
        for &r in &e.replicas {
            match cluster.blades.get(r).and_then(|b| b.lru.get(&key)) {
                Some(m) if matches!(m.residency, Residency::Replica) => {
                    if m.version != e.version {
                        found.push(Violation::page(
                            Invariant::ReplicaIntegrity,
                            key,
                            r,
                            format!("replica at v{} but directory at v{}", m.version, e.version),
                        ));
                    }
                }
                Some(_) => found.push(Violation::page(
                    Invariant::ReplicaIntegrity,
                    key,
                    r,
                    "replica blade's copy is not a pinned replica".into(),
                )),
                None => found.push(Violation::page(
                    Invariant::ReplicaIntegrity,
                    key,
                    r,
                    "directory replica blade holds no copy".into(),
                )),
            }
        }

        for &b in e.owner.iter().chain(&e.sharers).chain(&e.replicas) {
            if !cluster.blade_up(b) {
                found.push(Violation::page(
                    Invariant::DownBladeConsistency,
                    key,
                    b,
                    "directory references a down blade".into(),
                ));
            }
        }
    }
    found.sort_by_key(|v| v.key);
    out.append(&mut found);
}

/// Blade-side rules: every resident page maps back to the directory role
/// that justifies its residency.
fn audit_residency(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    for (b, slot) in cluster.blades.iter().enumerate() {
        // Recency order, then the findings in key order, as for the
        // directory above.
        let mut found = Vec::new();
        for (key, meta) in slot.lru.iter() {
            let entry = cluster.directory.get(key);
            let role_ok = match (meta.residency, entry) {
                (Residency::Cached { dirty: true, .. }, Some(e)) => e.owner == Some(b),
                (Residency::Cached { dirty: false, .. }, Some(e)) => e.sharers.contains(&b),
                (Residency::Replica, Some(e)) => e.replicas.contains(&b),
                (_, None) => false,
            };
            if !role_ok {
                found.push(Violation::page(
                    Invariant::ResidencyBacklink,
                    *key,
                    b,
                    format!("resident as {:?} but directory disagrees", meta.residency),
                ));
            }
        }
        found.sort_by_key(|v| v.key);
        out.append(&mut found);
    }
}

/// Per-blade structural rules: capacity, down-blade state, the
/// un-destaged count. (The recency list and the page table are one
/// structure, so they cannot disagree.)
fn audit_blades(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    for (b, slot) in cluster.blades.iter().enumerate() {
        if slot.lru.len() > slot.capacity_pages {
            out.push(Violation::blade(
                Invariant::Capacity,
                b,
                format!("{} pages resident, capacity {}", slot.lru.len(), slot.capacity_pages),
            ));
        }
        if slot.state == BladeState::Down && !slot.lru.is_empty() {
            out.push(Violation::blade(
                Invariant::DownBladeConsistency,
                b,
                format!("down blade still holds {} pages", slot.lru.len()),
            ));
        }
        let undestaged = slot.lru.iter().filter(|(_, m)| m.undestaged()).count();
        if slot.undestaged != undestaged {
            out.push(Violation::blade(
                Invariant::UndestagedCount,
                b,
                format!("counts {} un-destaged pages but holds {undestaged}", slot.undestaged),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::PageMeta;
    use crate::directory::PageState;
    use crate::lru::Retention;

    fn key(p: u64) -> PageKey {
        PageKey::new(0, p)
    }

    #[test]
    fn healthy_cluster_audits_clean() {
        let mut c = CacheCluster::new(4, 16);
        c.write(0, key(1), 3, Retention::Normal).unwrap();
        c.fill(2, key(9), Retention::High).unwrap();
        c.destage(key(1)).unwrap();
        assert_eq!(audit(&c), vec![]);
    }

    #[test]
    fn corrupted_directory_is_reported_with_names() {
        let mut c = CacheCluster::new(4, 16);
        c.write(0, key(1), 2, Retention::Normal).unwrap();
        // Simulate a protocol bug: directory claims a sharer that holds
        // nothing.
        c.directory.entry(key(1)).sharers.push(3);
        let violations = audit(&c);
        assert!(violations.iter().any(|v| v.invariant == Invariant::SharerCleanCopy
            && v.key == Some(key(1))
            && v.blade == Some(3)));
    }

    #[test]
    fn findings_come_out_in_key_order() {
        let mut c = CacheCluster::new(4, 16);
        let keys = [key(9), key(2), key(14), key(5), key(11), key(0)];
        for &k in &keys {
            c.write(0, k, 2, Retention::Normal).unwrap();
            // A sharer that holds nothing, and a clean copy the directory
            // does not list.
            c.directory.entry(k).sharers.push(3);
            let stray = PageMeta {
                residency: Residency::Cached { state: PageState::Shared, dirty: false },
                retention: Retention::Normal,
                version: 1,
            };
            c.blades[2].lru.insert(k, stray, Retention::Normal);
        }
        let v = audit(&c);
        for rule in [Invariant::SharerCleanCopy, Invariant::ResidencyBacklink] {
            let found: Vec<PageKey> = v.iter().filter(|v| v.invariant == rule).filter_map(|v| v.key).collect();
            assert_eq!(found.len(), keys.len(), "{rule}: {v:?}");
            assert!(found.windows(2).all(|w| w[0] < w[1]), "{rule} out of key order: {found:?}");
        }
    }

    #[test]
    fn stale_replica_version_is_reported() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(5), 2, Retention::Normal).unwrap();
        let replica = w.replicas[0];
        c.blades[replica].lru.get_mut(&key(5)).unwrap().version = 0;
        let violations = audit(&c);
        assert!(violations.iter().any(|v| v.invariant == Invariant::ReplicaIntegrity));
    }

    #[test]
    fn drifted_undestaged_count_is_reported() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(5), 2, Retention::Normal).unwrap();
        let replica = w.replicas[0];
        c.blades[replica].undestaged += 1;
        let violations = audit(&c);
        assert_eq!(
            violations,
            vec![Violation::blade(
                Invariant::UndestagedCount,
                replica,
                "counts 2 un-destaged pages but holds 1".into(),
            )]
        );
    }

    #[test]
    fn violation_display_names_the_invariant() {
        let v = Violation::page(Invariant::OwnerDirtyCopy, key(7), 2, "x".into());
        let text = v.to_string();
        assert!(text.contains("owner-dirty-copy"));
        assert!(text.contains("blade 2"));
    }
}
