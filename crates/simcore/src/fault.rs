//! Failure-injection plans.
//!
//! A [`FaultPlan`] is an ordered schedule of component failures and repairs
//! that an experiment replays in time order, so fault scenarios are
//! part of the deterministic configuration rather than ad-hoc test code.

use crate::time::SimTime;

/// What kind of component fails. `Ord` so plans can track targets in
/// ordered sets (replay-deterministic iteration).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FaultTarget {
    /// A controller blade, by cluster-wide index.
    Blade(usize),
    /// A physical disk, by farm-wide index.
    Disk(usize),
    /// An entire site, by site index.
    Site(usize),
    /// An inter-site link, by (from, to) site indices.
    Link(usize, usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Component stops responding permanently (until an explicit repair).
    Fail,
    /// Component comes back (replacement disk, restored site...).
    Repair,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    pub at: SimTime,
    pub target: FaultTarget,
    pub kind: FaultKind,
}

/// A deterministic fault schedule: a time-sorted list of fault events.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn fail(mut self, at: SimTime, target: FaultTarget) -> FaultPlan {
        self.events.push(FaultEvent { at, target, kind: FaultKind::Fail });
        self
    }

    pub fn repair(mut self, at: SimTime, target: FaultTarget) -> FaultPlan {
        self.events.push(FaultEvent { at, target, kind: FaultKind::Repair });
        self
    }

    /// Events sorted by time (stable for ties, preserving build order).
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Combine two plans into one schedule. Events keep their times; ties
    /// replay `self`'s events before `other`'s (stable [`sorted`]
    /// ordering), so composing a base scenario with an overlay is
    /// deterministic.
    ///
    /// [`sorted`]: FaultPlan::sorted
    pub fn merge(mut self, other: FaultPlan) -> FaultPlan {
        self.events.extend(other.events);
        self
    }

    /// Check the plan is replayable: in time order, every `Repair` of a
    /// target must be preceded by a `Fail` of the same target that has not
    /// already been repaired. Returns the offending events (empty = valid).
    pub fn validate(&self) -> Vec<FaultEvent> {
        let mut down = std::collections::BTreeSet::new();
        let mut bad = Vec::new();
        for ev in self.sorted() {
            match ev.kind {
                FaultKind::Fail => {
                    down.insert(ev.target);
                }
                FaultKind::Repair => {
                    if !down.remove(&ev.target) {
                        bad.push(ev);
                    }
                }
            }
        }
        bad
    }

    /// Number of distinct blades this plan ever fails.
    pub fn failed_blades(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for e in &self.events {
            if e.kind == FaultKind::Fail {
                if let FaultTarget::Blade(b) = e.target {
                    set.insert(b);
                }
            }
        }
        set.len()
    }
}

/// Live availability mask kept by the simulation as the plan replays.
#[derive(Clone, Debug)]
pub struct Availability {
    blades: Vec<bool>,
    disks: Vec<bool>,
    sites: Vec<bool>,
    /// Partitioned inter-site links, stored order-normalized so a repair of
    /// `Link(b, a)` heals a failure of `Link(a, b)`.
    down_links: std::collections::BTreeSet<(usize, usize)>,
}

fn norm_link(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Availability {
    pub fn new(blades: usize, disks: usize, sites: usize) -> Availability {
        Availability {
            blades: vec![true; blades],
            disks: vec![true; disks],
            sites: vec![true; sites],
            down_links: std::collections::BTreeSet::new(),
        }
    }

    pub fn apply(&mut self, ev: &FaultEvent) {
        let up = ev.kind == FaultKind::Repair;
        match ev.target {
            FaultTarget::Blade(i) => self.blades[i] = up,
            FaultTarget::Disk(i) => self.disks[i] = up,
            FaultTarget::Site(i) => self.sites[i] = up,
            FaultTarget::Link(a, b) => {
                if up {
                    self.down_links.remove(&norm_link(a, b));
                } else {
                    self.down_links.insert(norm_link(a, b));
                }
            }
        }
    }

    pub fn blade_up(&self, i: usize) -> bool {
        self.blades.get(i).copied().unwrap_or(false)
    }

    pub fn disk_up(&self, i: usize) -> bool {
        self.disks.get(i).copied().unwrap_or(false)
    }

    pub fn site_up(&self, i: usize) -> bool {
        self.sites.get(i).copied().unwrap_or(false)
    }

    /// True when the inter-site link `a <-> b` is not partitioned. Both
    /// endpoints must also be up for traffic to flow; that check belongs to
    /// the site mask, not the link mask.
    pub fn link_up(&self, a: usize, b: usize) -> bool {
        !self.down_links.contains(&norm_link(a, b))
    }

    /// Currently partitioned links, order-normalized and sorted (the
    /// backing set is ordered, so collection order is already stable).
    pub fn down_links(&self) -> Vec<(usize, usize)> {
        self.down_links.iter().copied().collect()
    }

    pub fn up_blades(&self) -> impl Iterator<Item = usize> + '_ {
        self.blades.iter().enumerate().filter(|(_, &u)| u).map(|(i, _)| i)
    }

    pub fn up_blade_count(&self) -> usize {
        self.blades.iter().filter(|&&u| u).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_time() {
        let p = FaultPlan::new()
            .fail(SimTime(300), FaultTarget::Blade(1))
            .fail(SimTime(100), FaultTarget::Disk(0))
            .repair(SimTime(200), FaultTarget::Disk(0));
        let evs = p.sorted();
        assert_eq!(evs[0].at, SimTime(100));
        assert_eq!(evs[1].at, SimTime(200));
        assert_eq!(evs[2].at, SimTime(300));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn plan_counts_distinct_failed_blades() {
        let p = FaultPlan::new()
            .fail(SimTime(1), FaultTarget::Blade(0))
            .fail(SimTime(2), FaultTarget::Blade(0))
            .fail(SimTime(3), FaultTarget::Blade(2))
            .fail(SimTime(4), FaultTarget::Disk(9));
        assert_eq!(p.failed_blades(), 2);
    }

    #[test]
    fn availability_tracks_fail_and_repair() {
        let mut a = Availability::new(4, 2, 1);
        assert!(a.blade_up(3));
        a.apply(&FaultEvent { at: SimTime(1), target: FaultTarget::Blade(3), kind: FaultKind::Fail });
        assert!(!a.blade_up(3));
        assert_eq!(a.up_blade_count(), 3);
        assert_eq!(a.up_blades().collect::<Vec<_>>(), vec![0, 1, 2]);
        a.apply(&FaultEvent { at: SimTime(2), target: FaultTarget::Blade(3), kind: FaultKind::Repair });
        assert!(a.blade_up(3));
    }

    #[test]
    fn merge_interleaves_and_keeps_tie_order() {
        let base = FaultPlan::new()
            .fail(SimTime(100), FaultTarget::Disk(0))
            .repair(SimTime(300), FaultTarget::Disk(0));
        let overlay = FaultPlan::new()
            .fail(SimTime(100), FaultTarget::Blade(1))
            .fail(SimTime(200), FaultTarget::Disk(5));
        let merged = base.merge(overlay);
        assert_eq!(merged.len(), 4);
        let evs = merged.sorted();
        // Tie at t=100: base's event replays first (stable sort).
        assert_eq!(evs[0].target, FaultTarget::Disk(0));
        assert_eq!(evs[1].target, FaultTarget::Blade(1));
        assert_eq!(evs[2].target, FaultTarget::Disk(5));
        assert_eq!(evs[3].kind, FaultKind::Repair);
        assert!(merged.validate().is_empty());
    }

    #[test]
    fn validate_rejects_repair_without_prior_fail() {
        // Repair of a target never failed.
        let p = FaultPlan::new().repair(SimTime(10), FaultTarget::Disk(3));
        let bad = p.validate();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].target, FaultTarget::Disk(3));

        // Double repair: the second has no outstanding Fail.
        let p = FaultPlan::new()
            .fail(SimTime(1), FaultTarget::Blade(0))
            .repair(SimTime(2), FaultTarget::Blade(0))
            .repair(SimTime(3), FaultTarget::Blade(0));
        assert_eq!(p.validate().len(), 1);

        // Repair scheduled before the fail (time order matters, not
        // build order).
        let p = FaultPlan::new()
            .fail(SimTime(50), FaultTarget::Site(1))
            .repair(SimTime(20), FaultTarget::Site(1));
        assert_eq!(p.validate().len(), 1);

        // A well-formed fail→repair→fail→repair cycle is valid.
        let p = FaultPlan::new()
            .fail(SimTime(1), FaultTarget::Disk(7))
            .repair(SimTime(2), FaultTarget::Disk(7))
            .fail(SimTime(3), FaultTarget::Disk(7))
            .repair(SimTime(4), FaultTarget::Disk(7));
        assert!(p.validate().is_empty());
    }

    #[test]
    fn link_partitions_normalize_endpoint_order() {
        let mut a = Availability::new(1, 1, 3);
        assert!(a.link_up(0, 2));
        a.apply(&FaultEvent { at: SimTime(1), target: FaultTarget::Link(2, 0), kind: FaultKind::Fail });
        assert!(!a.link_up(0, 2));
        assert!(!a.link_up(2, 0));
        assert!(a.link_up(0, 1));
        assert_eq!(a.down_links(), vec![(0, 2)]);
        a.apply(&FaultEvent { at: SimTime(2), target: FaultTarget::Link(0, 2), kind: FaultKind::Repair });
        assert!(a.link_up(2, 0));
        assert!(a.down_links().is_empty());
    }

    #[test]
    fn unknown_indices_read_as_down() {
        let a = Availability::new(1, 1, 1);
        assert!(!a.blade_up(99));
        assert!(!a.disk_up(99));
        assert!(!a.site_up(99));
    }
}
