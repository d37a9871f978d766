//! The coherent pooled cache across controller blades (§2.2, §6.1, §6.3).
//!
//! Protocol: MOSI-flavoured directory coherence at page granularity.
//!
//! * A **read** hits locally, hits remotely (copy supplied from any holder's
//!   cache — "each controller would read/write data from/to the cache of
//!   other controllers"), or misses to disk.
//! * A **write** obtains exclusivity (invalidating other holders), bumps the
//!   page's version, and places **N−1 dirty replicas** on peer blades before
//!   the host is acked; the replicas are pinned until destage (§6.1).
//! * A **blade failure** promotes a surviving replica to owner; data is lost
//!   only when a dirty page's owner *and* all its replicas are gone —
//!   exactly the N−1-failures guarantee the paper claims.

use crate::directory::{DirEntry, Directory, PageKey, PageState};
use crate::lru::{LruList, Retention};
use std::collections::BTreeMap;
use ys_simcore::SpanRecorder;

/// Lifecycle state of one controller blade (§2.1's scale-by-adding-blades
/// plus §6.1's repair-after-failure). Blades move
/// `Up → Draining → Down → Rejoining → Up`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BladeState {
    /// Full participant.
    Up,
    /// Planned shutdown in progress: keeps serving what it holds but
    /// accepts no new data while [`CacheCluster::drain_blade`] evacuates it.
    Draining,
    /// Failed or shut down: holds nothing, serves nothing.
    Down,
    /// Admitted (back) into the cluster and taking new data, but counted
    /// as transitional until the healer converges and promotes it to `Up`.
    Rejoining,
}

impl std::fmt::Display for BladeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BladeState::Up => "up",
            BladeState::Draining => "draining",
            BladeState::Down => "down",
            BladeState::Rejoining => "rejoining",
        })
    }
}

/// Cluster health derived from surviving replica margins (the degraded-mode
/// governor's input). Ordered by severity: `Healthy < Degraded < Critical <
/// ReadOnly`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Health {
    /// Every protected page is at its fault-tolerance target and every
    /// blade is a full participant.
    Healthy,
    /// Redundancy below target somewhere (heal backlog outstanding) or a
    /// blade is mid-drain/rejoin — one more planned step from healthy.
    Degraded,
    /// Some acknowledged write's replica margin is exhausted: a protected
    /// dirty page has zero surviving replicas, so the next owner failure
    /// loses it.
    Critical,
    /// Fewer than two blades can accept data: no write can be protected at
    /// all, so governed writes are refused rather than silently accepted.
    ReadOnly,
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Critical => "critical",
            Health::ReadOnly => "read-only",
        })
    }
}

/// Why a page occupies a blade's cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Residency {
    /// Normal coherent copy (Shared or Modified per directory).
    Cached { state: PageState, dirty: bool },
    /// Pinned dirty replica protecting another blade's write.
    Replica,
}

#[derive(Clone, Debug)]
pub(crate) struct PageMeta {
    pub(crate) residency: Residency,
    pub(crate) retention: Retention,
    pub(crate) version: u64,
}

#[derive(Clone, Debug)]
pub(crate) struct BladeSlot {
    pub(crate) capacity_pages: usize,
    pub(crate) lru: LruList<PageKey>,
    /// Ordered so that blade-failure sweeps (and the FailureReport they
    /// build) visit pages in key order, independent of any hasher seed.
    pub(crate) pages: BTreeMap<PageKey, PageMeta>,
    pub(crate) state: BladeState,
}

impl BladeSlot {
    fn occupancy(&self) -> usize {
        self.pages.len()
    }

    /// Can serve the copies it holds (everything but `Down`).
    pub(crate) fn serving(&self) -> bool {
        self.state != BladeState::Down
    }

    /// Eligible to receive new data (fills, write replicas, heal targets).
    fn accepting(&self) -> bool {
        matches!(self.state, BladeState::Up | BladeState::Rejoining)
    }
}

/// Outcome of a read probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Requesting blade already holds the page.
    LocalHit,
    /// Another blade supplied the page from its cache.
    RemoteHit { from: usize },
    /// Nobody holds it: caller must fetch from disk, then `fill`.
    Miss,
}

/// Outcome of a write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Blades whose copies were invalidated.
    pub invalidated: Vec<usize>,
    /// Peer blades now holding pinned dirty replicas.
    pub replicas: Vec<usize>,
    /// New version of the page.
    pub version: u64,
}

/// Result of a blade failure.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureReport {
    /// Dirty pages whose ownership moved to a surviving replica.
    pub promoted: Vec<PageKey>,
    /// Dirty pages with no surviving replica: data loss.
    pub lost: Vec<PageKey>,
}

/// Result of a planned blade drain ([`CacheCluster::drain_blade`]).
/// Unlike a failure, a drain never loses an acknowledged write: every
/// dirty page is promoted or moved before the blade goes down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Dirty pages whose ownership transferred to an existing replica
    /// (free hand-off; the protection margin shrinks by one until healed).
    pub promoted: Vec<PageKey>,
    /// Dirty pages copied to a fresh owner (no replica existed).
    pub moved: Vec<PageKey>,
    /// Pinned replicas re-placed on another accepting blade.
    pub replicas_moved: Vec<PageKey>,
    /// Pinned replicas dropped for later healing (no eligible peer had
    /// room; the owner still holds the dirty data, so nothing is lost).
    pub replicas_dropped: Vec<PageKey>,
    /// Clean shared copies discarded (disk still holds the data).
    pub clean_dropped: u64,
    /// Whether the blade reached `Down`. `false` means a dirty page had no
    /// eligible peer: the blade stays `Draining` and the caller should free
    /// space (destage) and call [`CacheCluster::drain_blade`] again.
    pub completed: bool,
}

impl DrainReport {
    /// Fold a retried drain pass into an accumulated report.
    pub fn merge(&mut self, other: DrainReport) {
        self.promoted.extend(other.promoted);
        self.moved.extend(other.moved);
        self.replicas_moved.extend(other.replicas_moved);
        self.replicas_dropped.extend(other.replicas_dropped);
        self.clean_dropped += other.clean_dropped;
        self.completed = other.completed;
    }

    /// Dirty pages evacuated (promoted + moved) — the zero-loss workload.
    pub fn evacuated(&self) -> usize {
        self.promoted.len() + self.moved.len()
    }
}

/// Read-only snapshot of one resident page (see
/// [`CacheCluster::resident_pages_iter`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidentPage {
    pub key: PageKey,
    /// Pinned dirty replica protecting another blade's write.
    pub replica: bool,
    /// Dirty owner copy awaiting destage.
    pub dirty: bool,
    pub retention: Retention,
    pub version: u64,
}

/// Aggregate statistics, with a per-blade breakdown for the `ys-obs`
/// observability layer (§6.3's hot-spot claim needs per-blade numbers).
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    pub local_hits: u64,
    pub remote_hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
    pub destages: u64,
    pub replica_placements: u64,
    /// Replicas re-established by the healer ([`CacheCluster::add_replica`]).
    pub heal_placements: u64,
    /// Indexed by blade id; sized by [`CacheCluster::new`].
    pub per_blade: Vec<BladeCacheStats>,
}

/// One blade's share of the cache activity. Hits and misses are attributed
/// to the *requesting* blade; invalidations, evictions, and replica
/// placements to the blade whose slot changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BladeCacheStats {
    pub local_hits: u64,
    pub remote_hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
    pub replicas_hosted: u64,
}

/// Errors surfaced to the orchestrator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheError {
    BladeDown(usize),
    /// Every resident page is dirty/pinned: the write must wait for destage.
    EvictionStall(usize),
    /// Page isn't in the expected state for the operation.
    BadState,
    /// The page's dirty owner and every replica failed before destage: the
    /// acknowledged version is gone and disk holds stale data. Reads refuse
    /// to serve until the loss is acknowledged or the page rewritten —
    /// surfacing the loss explicitly instead of a silent stale miss.
    DataLost(PageKey),
    /// The degraded-mode governor refused the write: fewer than two blades
    /// accept data, so no write can be replica-protected at all.
    ReadOnly,
    /// No accepting peer blade could take the copy (drain evacuation or
    /// heal placement): every candidate is down, draining, or saturated
    /// with dirty data. Transient — destage frees space.
    NoEligiblePeer,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::BladeDown(b) => write!(f, "blade {b} is down"),
            CacheError::EvictionStall(b) => write!(f, "blade {b} cache saturated with dirty data"),
            CacheError::BadState => write!(f, "page in unexpected coherence state"),
            CacheError::DataLost(k) => write!(f, "page {k:?}: acknowledged write lost (owner and all replicas failed)"),
            CacheError::ReadOnly => write!(f, "cluster is read-only: surviving replica margin exhausted"),
            CacheError::NoEligiblePeer => write!(f, "no accepting peer blade can hold the copy"),
        }
    }
}

impl std::error::Error for CacheError {}

/// The pooled, coherent blade-cache cluster.
///
/// ```
/// use ys_cache::{CacheCluster, PageKey, ReadOutcome, Retention};
///
/// let mut pool = CacheCluster::new(4, 1024);
/// let page = PageKey::new(0, 42);
/// // A 3-way protected write: the data survives any 2 blade failures.
/// let w = pool.write(0, page, 3, Retention::Normal).unwrap();
/// assert_eq!(w.replicas.len(), 2);
/// // Any blade can read it — blade 3 is supplied from a peer's cache.
/// assert!(matches!(pool.read(3, page).unwrap(), ReadOutcome::LocalHit | ReadOutcome::RemoteHit { .. }));
/// let report = pool.fail_blade(0);
/// assert!(report.lost.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct CacheCluster {
    pub(crate) blades: Vec<BladeSlot>,
    pub(crate) directory: Directory,
    /// Tombstones for dirty pages whose owner and every replica failed:
    /// page key → the version that was lost. Persist until the loss is
    /// acknowledged or the page is rewritten, so a total loss can never
    /// degrade into a silent miss that refetches stale disk data.
    pub(crate) lost: std::collections::BTreeMap<PageKey, u64>,
    stats: CacheStats,
    trace: SpanRecorder,
}

impl CacheCluster {
    pub fn new(blade_count: usize, capacity_pages_per_blade: usize) -> CacheCluster {
        assert!(blade_count > 0);
        CacheCluster {
            blades: (0..blade_count)
                .map(|_| BladeSlot {
                    capacity_pages: capacity_pages_per_blade,
                    lru: LruList::new(),
                    pages: BTreeMap::new(),
                    state: BladeState::Up,
                })
                .collect(),
            directory: Directory::new(blade_count),
            lost: std::collections::BTreeMap::new(),
            stats: CacheStats {
                per_blade: vec![BladeCacheStats::default(); blade_count],
                ..CacheStats::default()
            },
            trace: SpanRecorder::disabled(),
        }
    }

    pub fn blade_count(&self) -> usize {
        self.blades.len()
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Structured trace of directory transitions (disabled by default).
    /// Orchestrators that own the simulated clock call
    /// `trace_mut().set_now(..)` before driving cache operations.
    pub fn trace(&self) -> &SpanRecorder {
        &self.trace
    }

    pub fn trace_mut(&mut self) -> &mut SpanRecorder {
        &mut self.trace
    }

    /// True while the blade can serve the copies it holds (anything but
    /// `Down`; a draining blade still serves until evacuation completes).
    pub fn blade_up(&self, b: usize) -> bool {
        self.blades.get(b).map(|s| s.serving()).unwrap_or(false)
    }

    /// Lifecycle state of blade `b` (out-of-range reads as `Down`).
    pub fn blade_state(&self, b: usize) -> BladeState {
        self.blades.get(b).map(|s| s.state).unwrap_or(BladeState::Down)
    }

    pub fn occupancy(&self, b: usize) -> usize {
        self.blades[b].occupancy()
    }

    /// Pooled capacity across up blades, in pages (§2.2: "adding additional
    /// controller blades would increase the cache available to all").
    pub fn pooled_capacity(&self) -> usize {
        self.blades.iter().filter(|b| b.serving()).map(|b| b.capacity_pages).sum()
    }

    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    fn ensure_up(&self, b: usize) -> Result<(), CacheError> {
        if self.blade_up(b) {
            Ok(())
        } else {
            Err(CacheError::BladeDown(b))
        }
    }

    /// Make room for one page on `blade`. Dirty and replica pages are
    /// veto'd — they must survive until destage.
    fn make_room(&mut self, blade: usize) -> Result<Vec<PageKey>, CacheError> {
        let mut evicted = Vec::new();
        loop {
            let slot = &mut self.blades[blade];
            if slot.occupancy() < slot.capacity_pages {
                break;
            }
            let victim = {
                let pages = &slot.pages;
                slot.lru.evict_where(|k| match pages.get(k) {
                    Some(m) => !matches!(m.residency, Residency::Cached { dirty: false, .. }),
                    None => true,
                })
            };
            match victim {
                Some(key) => {
                    self.blades[blade].pages.remove(&key);
                    self.detach_holder(key, blade);
                    self.stats.evictions += 1;
                    self.stats.per_blade[blade].evictions += 1;
                    self.trace.instant("cache", "evict", blade as u32, key.page, key.volume as u64);
                    evicted.push(key);
                }
                None => return Err(CacheError::EvictionStall(blade)),
            }
        }
        Ok(evicted)
    }

    /// Remove `blade` from a page's directory holder sets; drop the entry
    /// when nobody holds the page anymore.
    fn detach_holder(&mut self, key: PageKey, blade: usize) {
        let e = self.directory.entry(key);
        e.sharers.retain(|&s| s != blade);
        if e.owner == Some(blade) {
            e.owner = None;
        }
        if !e.is_cached_anywhere() && e.replicas.is_empty() {
            self.directory.remove(&key);
        }
    }

    /// Probe for a read at `blade`. Does not fill on miss — the caller
    /// fetches from disk and then calls [`CacheCluster::fill`], so the
    /// simulator can charge the disk time in between.
    pub fn read(&mut self, blade: usize, key: PageKey) -> Result<ReadOutcome, CacheError> {
        self.ensure_up(blade)?;
        if self.lost.contains_key(&key) {
            return Err(CacheError::DataLost(key));
        }
        if let Some(meta) = self.blades[blade].pages.get(&key) {
            match meta.residency {
                Residency::Cached { .. } => {
                    self.blades[blade].lru.touch(&key);
                    self.stats.local_hits += 1;
                    self.stats.per_blade[blade].local_hits += 1;
                    return Ok(ReadOutcome::LocalHit);
                }
                // A pinned dirty replica carries the current version of the
                // data: serve it locally without disturbing its pin.
                Residency::Replica => {
                    self.stats.local_hits += 1;
                    self.stats.per_blade[blade].local_hits += 1;
                    return Ok(ReadOutcome::LocalHit);
                }
            }
        }
        // Find a remote holder.
        let holder = {
            let up: Vec<bool> = self.blades.iter().map(|b| b.serving()).collect();
            match self.directory.get(&key) {
                Some(e) => e.holders().into_iter().find(|&h| up[h] && h != blade),
                None => None,
            }
        };
        match holder {
            Some(from) => {
                self.install_shared(blade, key, Retention::Normal)?;
                self.stats.remote_hits += 1;
                self.stats.per_blade[blade].remote_hits += 1;
                self.trace.instant("cache", "remote_hit", blade as u32, key.page, from as u64);
                Ok(ReadOutcome::RemoteHit { from })
            }
            None => {
                self.stats.misses += 1;
                self.stats.per_blade[blade].misses += 1;
                self.trace.instant("cache", "miss", blade as u32, key.page, key.volume as u64);
                Ok(ReadOutcome::Miss)
            }
        }
    }

    /// Install a clean Shared copy at `blade` (after a disk fetch or a
    /// remote supply).
    pub fn fill(&mut self, blade: usize, key: PageKey, retention: Retention) -> Result<Vec<PageKey>, CacheError> {
        self.ensure_up(blade)?;
        if self.lost.contains_key(&key) {
            // A disk fetch can only supply the stale pre-loss version.
            return Err(CacheError::DataLost(key));
        }
        self.install_shared(blade, key, retention)
    }

    fn install_shared(&mut self, blade: usize, key: PageKey, retention: Retention) -> Result<Vec<PageKey>, CacheError> {
        if let Some(meta) = self.blades[blade].pages.get(&key) {
            match meta.residency {
                Residency::Cached { .. } => {
                    self.blades[blade].lru.touch(&key);
                    return Ok(vec![]);
                }
                // Never displace a pinned replica: it already holds the data
                // and is protecting an un-destaged write.
                Residency::Replica => return Ok(vec![]),
            }
        }
        let evicted = self.make_room(blade)?;
        let version = self.directory.entry(key).version;
        self.blades[blade].pages.insert(
            key,
            PageMeta { residency: Residency::Cached { state: PageState::Shared, dirty: false }, retention, version },
        );
        self.blades[blade].lru.insert(key, retention);
        let e = self.directory.entry(key);
        if e.owner != Some(blade) && !e.sharers.contains(&blade) {
            e.sharers.push(blade);
        }
        Ok(evicted)
    }

    /// Perform a write at `blade` with `n_way` total dirty copies
    /// (1 = no replication; 2 = classic dual-controller; N = paper §6.1).
    pub fn write(
        &mut self,
        blade: usize,
        key: PageKey,
        n_way: usize,
        retention: Retention,
    ) -> Result<WriteOutcome, CacheError> {
        assert!(n_way >= 1);
        self.ensure_up(blade)?;
        // A fresh write redefines the page's contents: the lost version no
        // longer matters, so the tombstone clears.
        self.lost.remove(&key);

        // Reserve local space FIRST: if the cache is saturated with dirty
        // data we must fail before mutating any remote state, or the
        // directory would point at copies we already dropped.
        if !self.blades[blade].pages.contains_key(&key) {
            self.make_room(blade)?;
        }

        // Invalidate every other holder.
        let holders: Vec<usize> = match self.directory.get(&key) {
            Some(e) => e.holders().into_iter().filter(|&h| h != blade).collect(),
            None => vec![],
        };
        for h in &holders {
            self.blades[*h].pages.remove(&key);
            self.blades[*h].lru.remove(&key);
            self.stats.invalidations += 1;
            self.stats.per_blade[*h].invalidations += 1;
            self.trace.instant("cache", "invalidate", *h as u32, key.page, blade as u64);
        }
        // Drop any stale replicas from a previous write generation.
        let old_replicas: Vec<usize> = self.directory.entry(key).replicas.clone();
        for r in old_replicas {
            if r != blade {
                self.blades[r].pages.remove(&key);
                self.blades[r].lru.remove(&key);
            }
        }

        // Install/refresh the exclusive copy locally (space reserved above).
        let version = {
            let e = self.directory.entry(key);
            e.version += 1;
            e.sharers.clear();
            e.owner = Some(blade);
            e.replicas.clear();
            e.protect = n_way;
            e.version
        };
        self.blades[blade].pages.insert(
            key,
            PageMeta { residency: Residency::Cached { state: PageState::Modified, dirty: true }, retention, version },
        );
        self.blades[blade].lru.insert(key, retention);
        self.trace.instant("cache", "modify", blade as u32, key.page, version);

        // Place N−1 pinned replicas on peer blades, chosen deterministically
        // by page hash so replica load spreads.
        let mut replicas = Vec::new();
        if n_way > 1 {
            let candidates: Vec<usize> = {
                let n = self.blades.len();
                let start = key.home(n);
                (0..n)
                    .map(|i| (start + i) % n)
                    .filter(|&b| b != blade && self.blades[b].accepting())
                    .collect()
            };
            for target in candidates.into_iter().take(n_way - 1) {
                if self.blades[target].occupancy() >= self.blades[target].capacity_pages
                    && self.make_room(target).is_err()
                {
                    // Peer saturated with dirty data; skip it rather than stall.
                    continue;
                }
                self.blades[target].pages.insert(
                    key,
                    PageMeta { residency: Residency::Replica, retention, version },
                );
                self.blades[target].lru.insert(key, Retention::Pinned);
                replicas.push(target);
                self.stats.replica_placements += 1;
                self.stats.per_blade[target].replicas_hosted += 1;
                self.trace.instant("cache", "replica_place", target as u32, key.page, version);
            }
        }
        self.directory.entry(key).replicas = replicas.clone();
        Ok(WriteOutcome { invalidated: holders, replicas, version })
    }

    /// Write-back to disk finished: unpin replicas, clean the owner copy.
    pub fn destage(&mut self, key: PageKey) -> Result<(), CacheError> {
        let (owner, replicas) = match self.directory.get(&key) {
            Some(e) => (e.owner, e.replicas.clone()),
            None => return Err(CacheError::BadState),
        };
        let owner = owner.ok_or(CacheError::BadState)?;
        for r in replicas {
            self.blades[r].pages.remove(&key);
            self.blades[r].lru.remove(&key);
        }
        if let Some(meta) = self.blades[owner].pages.get_mut(&key) {
            meta.residency = Residency::Cached { state: PageState::Shared, dirty: false };
            let retention = meta.retention;
            self.blades[owner].lru.insert(key, retention);
        }
        let e = self.directory.entry(key);
        e.replicas.clear();
        e.owner = None;
        e.protect = 0;
        if !e.sharers.contains(&owner) {
            e.sharers.push(owner);
        }
        self.stats.destages += 1;
        self.trace.instant("cache", "destage", owner as u32, key.page, key.volume as u64);
        Ok(())
    }

    /// Drop every copy and replica of `key` cluster-wide (e.g. after a
    /// volume rollback invalidated the data under it).
    pub fn invalidate_page(&mut self, key: PageKey) {
        // Rollback administratively replaces the data under the page; a
        // pending loss tombstone is moot.
        self.lost.remove(&key);
        let holders: Vec<usize> = match self.directory.get(&key) {
            Some(e) => {
                let mut h = e.holders();
                h.extend(&e.replicas);
                h
            }
            None => return,
        };
        for b in holders {
            self.blades[b].pages.remove(&key);
            self.blades[b].lru.remove(&key);
        }
        self.directory.remove(&key);
    }

    /// Pages currently dirty at `blade` (owner copies awaiting destage).
    /// Fraction of the pooled cache holding un-destaged state: dirty
    /// owner pages plus their protection replicas, over the pooled
    /// capacity of up blades. This is the backpressure signal the QoS
    /// admission controller keys off (`ys-qos`): a high dirty ratio
    /// means writes are outrunning destage and new low-priority work
    /// should be delayed or shed. Returns 0 when no capacity is up.
    pub fn dirty_ratio(&self) -> f64 {
        let capacity = self.pooled_capacity();
        if capacity == 0 {
            return 0.0;
        }
        let undestaged: usize = self
            .blades
            .iter()
            .filter(|b| b.serving())
            .map(|b| {
                b.pages
                    .values()
                    .filter(|m| {
                        matches!(
                            m.residency,
                            Residency::Cached { dirty: true, .. } | Residency::Replica
                        )
                    })
                    .count()
            })
            .sum();
        undestaged as f64 / capacity as f64
    }

    pub fn dirty_pages(&self, blade: usize) -> Vec<PageKey> {
        self.blades[blade]
            .pages
            .iter()
            .filter(|(_, m)| matches!(m.residency, Residency::Cached { dirty: true, .. }))
            .map(|(k, _)| *k)
            .collect()
    }

    /// Fail a blade: every copy it held vanishes. Dirty pages survive iff a
    /// replica lives on an up blade (promoted to owner); otherwise lost.
    pub fn fail_blade(&mut self, blade: usize) -> FailureReport {
        let mut report = FailureReport::default();
        if self.blades[blade].state == BladeState::Down {
            return report;
        }
        self.blades[blade].state = BladeState::Down;
        let held: Vec<(PageKey, PageMeta)> =
            std::mem::take(&mut self.blades[blade].pages).into_iter().collect();
        self.blades[blade].lru = LruList::new();

        for (key, meta) in held {
            let e: &mut DirEntry = self.directory.entry(key);
            e.sharers.retain(|&s| s != blade);
            e.replicas.retain(|&r| r != blade);
            match meta.residency {
                Residency::Cached { dirty: true, .. } => {
                    debug_assert_eq!(e.owner, Some(blade));
                    e.owner = None;
                    // Promote the first surviving replica.
                    if let Some(&survivor) = e.replicas.first() {
                        e.owner = Some(survivor);
                        e.replicas.retain(|&r| r != survivor);
                        let version = e.version;
                        let retention = meta.retention;
                        self.blades[survivor].pages.insert(
                            key,
                            PageMeta {
                                residency: Residency::Cached { state: PageState::Modified, dirty: true },
                                retention,
                                version,
                            },
                        );
                        self.blades[survivor].lru.insert(key, retention);
                        self.trace.instant("cache", "promote", survivor as u32, key.page, blade as u64);
                        report.promoted.push(key);
                    } else {
                        self.trace.instant("cache", "lost", blade as u32, key.page, key.volume as u64);
                        report.lost.push(key);
                        let version = e.version;
                        if !e.is_cached_anywhere() {
                            self.directory.remove(&key);
                        }
                        // Tombstone the loss: reads must surface it
                        // explicitly rather than miss to stale disk data.
                        self.lost.insert(key, version);
                    }
                }
                Residency::Cached { dirty: false, .. } | Residency::Replica => {
                    if e.owner == Some(blade) {
                        e.owner = None;
                    }
                    if !e.is_cached_anywhere() && e.replicas.is_empty() {
                        self.directory.remove(&key);
                    }
                }
            }
        }
        report
    }

    /// Bring a failed blade back, empty.
    pub fn repair_blade(&mut self, blade: usize) {
        self.blades[blade].state = BladeState::Up;
    }

    /// Admit a previously failed blade back into the cluster, empty, in
    /// `Rejoining` state: it accepts new data immediately but is only
    /// promoted to `Up` once the healer converges
    /// ([`CacheCluster::finish_rejoin`]).
    pub fn revive_blade(&mut self, blade: usize) -> Result<(), CacheError> {
        match self.blades.get_mut(blade) {
            Some(slot) if slot.state == BladeState::Down => {
                slot.state = BladeState::Rejoining;
                self.trace.instant("cache", "revive", blade as u32, 0, 0);
                Ok(())
            }
            Some(_) => Err(CacheError::BadState),
            None => Err(CacheError::BladeDown(blade)),
        }
    }

    /// Promote a `Rejoining` blade to full `Up` membership (the healer calls
    /// this once no page is below its fault-tolerance target). Returns
    /// whether a transition happened.
    pub fn finish_rejoin(&mut self, blade: usize) -> bool {
        match self.blades.get_mut(blade) {
            Some(slot) if slot.state == BladeState::Rejoining => {
                slot.state = BladeState::Up;
                self.trace.instant("cache", "rejoin_done", blade as u32, 0, 0);
                true
            }
            _ => false,
        }
    }

    /// Grow the cluster by one brand-new blade (§2.1's scale-by-adding-
    /// blades): it joins in `Rejoining` state, folds into directory home
    /// placement, and starts taking fills and replicas immediately.
    /// Returns the new blade's id.
    pub fn add_blade(&mut self, capacity_pages: usize) -> usize {
        self.blades.push(BladeSlot {
            capacity_pages,
            lru: LruList::new(),
            pages: BTreeMap::new(),
            state: BladeState::Rejoining,
        });
        let id = self.directory.add_blade();
        self.stats.per_blade.push(BladeCacheStats::default());
        self.trace.instant("cache", "add_blade", id as u32, 0, 0);
        id
    }

    /// Planned shutdown: evacuate every copy `blade` holds, with zero loss
    /// of acknowledged writes, then take it `Down`.
    ///
    /// Dirty owner pages hand off to an existing replica (promote) or are
    /// copied to a fresh accepting peer (move); pinned replicas are
    /// re-placed where possible and otherwise recorded for the healer;
    /// clean shared copies are simply dropped (disk has the data). If a
    /// dirty page has no eligible peer the blade stays `Draining` and the
    /// returned report has `completed == false` — the caller should free
    /// space (destage) and call again.
    pub fn drain_blade(&mut self, blade: usize) -> Result<DrainReport, CacheError> {
        if self.blades[blade].state == BladeState::Down {
            return Err(CacheError::BladeDown(blade));
        }
        self.blades[blade].state = BladeState::Draining;
        let mut report = DrainReport::default();
        let keys: Vec<PageKey> = self.blades[blade].pages.keys().copied().collect();
        for key in keys {
            let meta = match self.blades[blade].pages.get(&key) {
                Some(m) => m.clone(),
                None => continue,
            };
            match meta.residency {
                Residency::Cached { dirty: true, .. } => {
                    let promote_to =
                        self.directory.get(&key).and_then(|e| e.replicas.first().copied());
                    if let Some(survivor) = promote_to {
                        // Free hand-off: an up-to-date replica becomes owner
                        // (same transition as fail_blade's promote path).
                        let (version, retention) = {
                            let e = self.directory.entry(key);
                            e.owner = Some(survivor);
                            e.replicas.retain(|&r| r != survivor);
                            (e.version, meta.retention)
                        };
                        self.blades[survivor].pages.insert(
                            key,
                            PageMeta {
                                residency: Residency::Cached { state: PageState::Modified, dirty: true },
                                retention,
                                version,
                            },
                        );
                        self.blades[survivor].lru.insert(key, retention);
                        self.trace.instant("cache", "drain_promote", survivor as u32, key.page, blade as u64);
                        report.promoted.push(key);
                    } else {
                        // No replica: the dirty data must be copied out.
                        let n = self.blades.len();
                        let start = key.home(n);
                        let candidates: Vec<usize> = (0..n)
                            .map(|i| (start + i) % n)
                            .filter(|&b| b != blade && self.blades[b].accepting())
                            .collect();
                        let mut new_owner = None;
                        for target in candidates {
                            // An existing clean sharer copy upgrades in place
                            // (a replica is impossible here: replicas imply
                            // the promote path above).
                            if self.blades[target].pages.contains_key(&key) {
                                new_owner = Some(target);
                                break;
                            }
                            if self.blades[target].occupancy() >= self.blades[target].capacity_pages
                                && self.make_room(target).is_err()
                            {
                                continue;
                            }
                            new_owner = Some(target);
                            break;
                        }
                        let target = match new_owner {
                            Some(t) => t,
                            None => {
                                // Nowhere to put an acknowledged write: stay
                                // Draining rather than lose it.
                                report.completed = false;
                                return Ok(report);
                            }
                        };
                        let (version, retention) = {
                            let e = self.directory.entry(key);
                            e.sharers.retain(|&s| s != target);
                            e.owner = Some(target);
                            (e.version, meta.retention)
                        };
                        self.blades[target].pages.insert(
                            key,
                            PageMeta {
                                residency: Residency::Cached { state: PageState::Modified, dirty: true },
                                retention,
                                version,
                            },
                        );
                        self.blades[target].lru.insert(key, retention);
                        self.trace.instant("cache", "drain_move", target as u32, key.page, blade as u64);
                        report.moved.push(key);
                    }
                    self.blades[blade].pages.remove(&key);
                    self.blades[blade].lru.remove(&key);
                }
                Residency::Cached { dirty: false, .. } => {
                    self.blades[blade].pages.remove(&key);
                    self.blades[blade].lru.remove(&key);
                    self.detach_holder(key, blade);
                    report.clean_dropped += 1;
                }
                Residency::Replica => {
                    self.blades[blade].pages.remove(&key);
                    self.blades[blade].lru.remove(&key);
                    self.directory.entry(key).replicas.retain(|&r| r != blade);
                    // Re-place elsewhere when possible; otherwise the owner
                    // still holds the dirty data and the healer catches up.
                    match self.add_replica(key) {
                        Ok(_) => report.replicas_moved.push(key),
                        Err(_) => report.replicas_dropped.push(key),
                    }
                }
            }
        }
        debug_assert!(self.blades[blade].pages.is_empty());
        self.blades[blade].state = BladeState::Down;
        self.blades[blade].lru = LruList::new();
        report.completed = true;
        self.trace.instant("cache", "drain_done", blade as u32, report.evacuated() as u64, report.clean_dropped);
        Ok(report)
    }

    /// Dirty pages below their fault-tolerance target, with the deficit
    /// (missing replica count) — the healer's work queue. Sorted by key.
    pub fn under_target_pages(&self) -> Vec<(PageKey, usize)> {
        self.directory
            .iter()
            .filter(|(_, e)| e.owner.is_some() && e.protect > 1 + e.replicas.len())
            .map(|(k, e)| (*k, e.protect - 1 - e.replicas.len()))
            .collect()
    }

    /// Re-establish one pinned dirty replica for `key` on an accepting peer
    /// (the healer's unit of work). Returns the blade that took the copy.
    pub fn add_replica(&mut self, key: PageKey) -> Result<usize, CacheError> {
        let owner = match self.directory.get(&key) {
            Some(e) => match e.owner {
                Some(o) => o,
                None => return Err(CacheError::BadState),
            },
            None => return Err(CacheError::BadState),
        };
        let version = match self.directory.get(&key) {
            Some(e) => e.version,
            None => return Err(CacheError::BadState),
        };
        let retention = self.blades[owner]
            .pages
            .get(&key)
            .map(|m| m.retention)
            .unwrap_or(Retention::Normal);
        let n = self.blades.len();
        let start = key.home(n);
        let candidates: Vec<usize> = (0..n)
            .map(|i| (start + i) % n)
            .filter(|&b| {
                b != owner && self.blades[b].accepting() && !self.blades[b].pages.contains_key(&key)
            })
            .collect();
        for target in candidates {
            if self.blades[target].occupancy() >= self.blades[target].capacity_pages
                && self.make_room(target).is_err()
            {
                continue;
            }
            self.blades[target].pages.insert(
                key,
                PageMeta { residency: Residency::Replica, retention, version },
            );
            self.blades[target].lru.insert(key, Retention::Pinned);
            self.directory.entry(key).replicas.push(target);
            self.stats.replica_placements += 1;
            self.stats.heal_placements += 1;
            self.stats.per_blade[target].replicas_hosted += 1;
            self.trace.instant("cache", "replica_heal", target as u32, key.page, version);
            return Ok(target);
        }
        Err(CacheError::NoEligiblePeer)
    }

    /// Cluster health from surviving replica margins — the degraded-mode
    /// governor's input (severity-ordered; see [`Health`]).
    pub fn health(&self) -> Health {
        let accepting = self.blades.iter().filter(|b| b.accepting()).count();
        if accepting < 2 {
            return Health::ReadOnly;
        }
        let mut degraded = self
            .blades
            .iter()
            .any(|b| matches!(b.state, BladeState::Draining | BladeState::Rejoining));
        for (_, e) in self.directory.iter() {
            if e.owner.is_some() && e.protect > 1 + e.replicas.len() {
                if e.replicas.is_empty() && e.protect >= 2 {
                    // An acked protected write with zero surviving replicas:
                    // the next owner failure loses it.
                    return Health::Critical;
                }
                degraded = true;
            }
        }
        if degraded {
            Health::Degraded
        } else {
            Health::Healthy
        }
    }

    /// Write under the degraded-mode governor: refused with an explicit
    /// error (and audit trace event) when the cluster is [`Health::ReadOnly`]
    /// — better to fail the write than to accept data one more failure
    /// would silently lose.
    pub fn governed_write(
        &mut self,
        blade: usize,
        key: PageKey,
        n_way: usize,
        retention: Retention,
    ) -> Result<WriteOutcome, CacheError> {
        if self.health() == Health::ReadOnly {
            self.trace.instant("cache", "write_refused", blade as u32, key.page, key.volume as u64);
            return Err(CacheError::ReadOnly);
        }
        self.write(blade, key, n_way, retention)
    }

    /// Outstanding data-loss tombstones: `(page, lost version)` sorted by
    /// key. Non-empty means an acknowledged write is gone and nothing has
    /// accepted responsibility for it yet.
    pub fn lost_pages(&self) -> Vec<(PageKey, u64)> {
        self.lost.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// True when `key` carries an unacknowledged loss tombstone.
    pub fn is_lost(&self, key: PageKey) -> bool {
        self.lost.contains_key(&key)
    }

    /// Explicitly accept a data loss (operator restored from backup,
    /// application re-created the data, or the loss was recorded upstream).
    /// Clears the tombstone so the page becomes cacheable again; returns
    /// the lost version if one was outstanding.
    pub fn acknowledge_loss(&mut self, key: PageKey) -> Option<u64> {
        self.lost.remove(&key)
    }

    /// Configured page capacity of one blade.
    pub fn capacity_pages(&self, blade: usize) -> usize {
        self.blades[blade].capacity_pages
    }

    /// Read-only view of every page resident at `blade`, in key order: the
    /// blade page table is ordered, so residency streams out without
    /// materializing a `Vec`. External auditors (the `ys-check` model
    /// checker) canonicalize cluster state once per explored transition
    /// through this.
    pub fn resident_pages_iter(&self, blade: usize) -> impl Iterator<Item = ResidentPage> + '_ {
        self.blades[blade].pages.iter().map(|(key, m)| ResidentPage {
            key: *key,
            replica: matches!(m.residency, Residency::Replica),
            dirty: matches!(m.residency, Residency::Cached { dirty: true, .. }),
            retention: m.retention,
            version: m.version,
        })
    }

    /// Recency order (most- to least-recent) of one retention band at
    /// `blade` — the part of blade state that decides future evictions.
    pub fn lru_order_iter(&self, blade: usize, band: Retention) -> impl Iterator<Item = &PageKey> + '_ {
        self.blades[blade].lru.band_iter(band)
    }

    /// Audit every coherence invariant, returning all violations. See
    /// [`crate::invariants`] for the rule catalogue.
    pub fn audit_invariants(&self) -> Vec<crate::invariants::Violation> {
        crate::invariants::audit(self)
    }

    /// Verify the coherence invariants; returns a description of the first
    /// violation. Convenience wrapper over [`CacheCluster::audit_invariants`]
    /// kept for call sites that only need pass/fail.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self.audit_invariants().first() {
            None => Ok(()),
            Some(v) => Err(v.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u64) -> PageKey {
        PageKey::new(0, p)
    }

    #[test]
    fn miss_then_fill_then_local_hit() {
        let mut c = CacheCluster::new(4, 16);
        assert_eq!(c.read(0, key(1)).unwrap(), ReadOutcome::Miss);
        c.fill(0, key(1), Retention::Normal).unwrap();
        assert_eq!(c.read(0, key(1)).unwrap(), ReadOutcome::LocalHit);
        c.check_invariants().unwrap();
    }

    #[test]
    fn remote_hit_supplies_from_peer_cache() {
        let mut c = CacheCluster::new(4, 16);
        c.fill(2, key(9), Retention::Normal).unwrap();
        match c.read(0, key(9)).unwrap() {
            ReadOutcome::RemoteHit { from } => assert_eq!(from, 2),
            other => panic!("expected remote hit, got {other:?}"),
        }
        // Now both hold it; a third blade can be supplied by either.
        assert!(matches!(c.read(3, key(9)).unwrap(), ReadOutcome::RemoteHit { .. }));
        c.check_invariants().unwrap();
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut c = CacheCluster::new(4, 16);
        c.fill(1, key(5), Retention::Normal).unwrap();
        c.fill(2, key(5), Retention::Normal).unwrap();
        let out = c.write(0, key(5), 1, Retention::Normal).unwrap();
        let mut inv = out.invalidated.clone();
        inv.sort_unstable();
        assert_eq!(inv, vec![1, 2]);
        assert_eq!(c.read(1, key(5)).unwrap(), ReadOutcome::RemoteHit { from: 0 });
        c.check_invariants().unwrap();
    }

    #[test]
    fn n_way_write_places_replicas() {
        let mut c = CacheCluster::new(6, 16);
        let out = c.write(0, key(3), 3, Retention::Normal).unwrap();
        assert_eq!(out.replicas.len(), 2);
        assert!(!out.replicas.contains(&0));
        assert_eq!(c.stats().replica_placements, 2);
        c.check_invariants().unwrap();
    }

    #[test]
    fn dirty_ratio_tracks_undestaged_state() {
        let mut c = CacheCluster::new(4, 16);
        assert_eq!(c.dirty_ratio(), 0.0);
        // Clean fills don't count.
        c.fill(0, key(1), Retention::Normal).unwrap();
        assert_eq!(c.dirty_ratio(), 0.0);
        // A 2-way write pins one dirty owner + one replica: 2 / 64 pages.
        c.write(0, key(2), 2, Retention::Normal).unwrap();
        assert!((c.dirty_ratio() - 2.0 / 64.0).abs() < 1e-12, "{}", c.dirty_ratio());
        // Destage cleans both.
        c.destage(key(2)).unwrap();
        assert_eq!(c.dirty_ratio(), 0.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn destage_unpins_replicas_and_cleans_owner() {
        let mut c = CacheCluster::new(4, 16);
        let out = c.write(0, key(3), 3, Retention::Normal).unwrap();
        for &r in &out.replicas {
            assert_eq!(c.occupancy(r), 1);
        }
        c.destage(key(3)).unwrap();
        for &r in &out.replicas {
            assert_eq!(c.occupancy(r), 0, "replica freed after destage");
        }
        assert!(c.dirty_pages(0).is_empty());
        assert_eq!(c.read(0, key(3)).unwrap(), ReadOutcome::LocalHit);
        c.check_invariants().unwrap();
    }

    #[test]
    fn blade_failure_with_replicas_preserves_dirty_data() {
        let mut c = CacheCluster::new(4, 16);
        c.write(0, key(7), 2, Retention::Normal).unwrap();
        let report = c.fail_blade(0);
        assert_eq!(report.promoted, vec![key(7)]);
        assert!(report.lost.is_empty());
        // The promoted copy is readable from the survivor.
        assert!(matches!(c.read(1, key(7)), Ok(ReadOutcome::LocalHit) | Ok(ReadOutcome::RemoteHit { .. })));
        c.check_invariants().unwrap();
    }

    #[test]
    fn blade_failure_without_replicas_loses_dirty_data() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(7), 1, Retention::Normal).unwrap();
        let report = c.fail_blade(0);
        assert_eq!(report.lost, vec![key(7)]);
        assert!(report.promoted.is_empty());
        // The loss is explicit, not a silent miss serving stale disk data.
        assert_eq!(c.read(1, key(7)), Err(CacheError::DataLost(key(7))));
        assert_eq!(c.fill(1, key(7), Retention::Normal), Err(CacheError::DataLost(key(7))));
        let violations = c.audit_invariants();
        assert!(
            violations.iter().any(|v| v.invariant == crate::invariants::Invariant::DataLoss
                && v.key == Some(key(7))),
            "loss must surface in the invariant audit: {violations:?}"
        );
        // Acknowledging the loss restores normal (miss-to-disk) service.
        assert_eq!(c.acknowledge_loss(key(7)), Some(w.version));
        assert_eq!(c.read(1, key(7)).unwrap(), ReadOutcome::Miss);
        c.check_invariants().unwrap();
    }

    #[test]
    fn rewrite_clears_a_loss_tombstone() {
        let mut c = CacheCluster::new(4, 16);
        c.write(0, key(3), 1, Retention::Normal).unwrap();
        c.fail_blade(0);
        assert!(c.is_lost(key(3)));
        // The application redefines the page: the old version is moot.
        c.write(1, key(3), 2, Retention::Normal).unwrap();
        assert!(!c.is_lost(key(3)));
        assert_eq!(c.read(1, key(3)).unwrap(), ReadOutcome::LocalHit);
        c.check_invariants().unwrap();
    }

    #[test]
    fn n_way_survives_n_minus_1_failures() {
        let mut c = CacheCluster::new(5, 16);
        let out = c.write(0, key(11), 3, Retention::Normal).unwrap();
        // Kill owner, then the first promoted replica: 2 failures, N=3.
        let r1 = c.fail_blade(0);
        assert_eq!(r1.promoted.len(), 1);
        let owner1 = out.replicas[0];
        let r2 = c.fail_blade(owner1);
        assert_eq!(r2.promoted.len(), 1, "second replica takes over");
        assert!(r2.lost.is_empty());
        // A third failure exceeds N−1 and loses the page — which the audit
        // must report until the loss is acknowledged.
        let owner2 = out.replicas[1];
        let r3 = c.fail_blade(owner2);
        assert_eq!(r3.lost.len(), 1);
        assert!(c
            .audit_invariants()
            .iter()
            .any(|v| v.invariant == crate::invariants::Invariant::DataLoss));
        c.acknowledge_loss(key(11));
        c.check_invariants().unwrap();
    }

    #[test]
    fn eviction_prefers_clean_pages_and_stalls_when_all_dirty() {
        let mut c = CacheCluster::new(2, 2);
        c.write(0, key(1), 1, Retention::Normal).unwrap();
        c.write(0, key(2), 1, Retention::Normal).unwrap();
        // Cache full of dirty pages: a third write stalls.
        assert_eq!(c.write(0, key(3), 1, Retention::Normal), Err(CacheError::EvictionStall(0)));
        // Destage one; the write now succeeds by evicting the clean page.
        c.destage(key(1)).unwrap();
        c.write(0, key(3), 1, Retention::Normal).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn pooled_capacity_grows_with_blades() {
        let small = CacheCluster::new(2, 100);
        let big = CacheCluster::new(8, 100);
        assert_eq!(small.pooled_capacity(), 200);
        assert_eq!(big.pooled_capacity(), 800);
    }

    #[test]
    fn reads_to_down_blade_fail() {
        let mut c = CacheCluster::new(2, 4);
        c.fail_blade(1);
        assert_eq!(c.read(1, key(1)), Err(CacheError::BladeDown(1)));
        c.repair_blade(1);
        assert!(c.read(1, key(1)).is_ok());
    }

    #[test]
    fn failed_holder_does_not_serve_remote_hits() {
        let mut c = CacheCluster::new(3, 8);
        c.fill(1, key(4), Retention::Normal).unwrap();
        c.fail_blade(1);
        assert_eq!(c.read(0, key(4)).unwrap(), ReadOutcome::Miss, "holder is down; must go to disk");
    }

    #[test]
    fn stats_account_hits_and_misses() {
        let mut c = CacheCluster::new(2, 8);
        c.read(0, key(1)).unwrap(); // miss
        c.fill(0, key(1), Retention::Normal).unwrap();
        c.read(0, key(1)).unwrap(); // local
        c.read(1, key(1)).unwrap(); // remote
        let s = c.stats();
        assert_eq!((s.misses, s.local_hits, s.remote_hits), (1, 1, 1));
    }

    #[test]
    fn drain_evacuates_dirty_pages_with_zero_loss() {
        let mut c = CacheCluster::new(4, 16);
        // One 2-way page (will promote) and one unreplicated page (will move).
        c.write(0, key(7), 2, Retention::Normal).unwrap();
        c.write(0, key(8), 1, Retention::Normal).unwrap();
        c.fill(0, key(9), Retention::Normal).unwrap();
        let report = c.drain_blade(0).unwrap();
        assert!(report.completed);
        assert_eq!(report.promoted, vec![key(7)]);
        assert_eq!(report.moved, vec![key(8)]);
        assert_eq!(report.clean_dropped, 1);
        assert!(c.lost_pages().is_empty(), "drain must never lose an acked write");
        assert_eq!(c.blade_state(0), BladeState::Down);
        assert_eq!(c.occupancy(0), 0);
        // Both dirty pages still readable from their new homes.
        assert!(c.read(1, key(7)).is_ok());
        assert!(c.read(1, key(8)).is_ok());
        c.check_invariants().unwrap();
    }

    #[test]
    fn drain_replaces_hosted_replicas() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(3), 2, Retention::Normal).unwrap();
        let replica_blade = w.replicas[0];
        let report = c.drain_blade(replica_blade).unwrap();
        assert!(report.completed);
        assert_eq!(report.replicas_moved, vec![key(3)]);
        // Protection margin intact: still one replica, on a different blade.
        let e = c.directory().get(&key(3)).unwrap();
        assert_eq!(e.replicas.len(), 1);
        assert_ne!(e.replicas[0], replica_blade);
        c.check_invariants().unwrap();
    }

    #[test]
    fn incomplete_drain_stays_draining_and_retries_after_destage() {
        // 2 blades, tiny caches, peer saturated with dirty data: the dirty
        // page on blade 0 has nowhere to go.
        let mut c = CacheCluster::new(2, 2);
        c.write(1, key(1), 1, Retention::Normal).unwrap();
        c.write(1, key(2), 1, Retention::Normal).unwrap();
        c.write(0, key(3), 1, Retention::Normal).unwrap();
        let report = c.drain_blade(0).unwrap();
        assert!(!report.completed);
        assert_eq!(c.blade_state(0), BladeState::Draining);
        assert!(c.lost_pages().is_empty());
        // Destage frees the peer; the retried drain completes.
        c.destage(key(1)).unwrap();
        let report = c.drain_blade(0).unwrap();
        assert!(report.completed);
        assert_eq!(report.moved, vec![key(3)]);
        assert!(c.lost_pages().is_empty());
        c.check_invariants().unwrap();
    }

    #[test]
    fn revive_and_finish_rejoin_lifecycle() {
        let mut c = CacheCluster::new(3, 8);
        assert_eq!(c.blade_state(1), BladeState::Up);
        assert_eq!(c.revive_blade(1), Err(CacheError::BadState), "can't revive an up blade");
        c.fail_blade(1);
        assert_eq!(c.blade_state(1), BladeState::Down);
        c.revive_blade(1).unwrap();
        assert_eq!(c.blade_state(1), BladeState::Rejoining);
        assert!(c.blade_up(1), "rejoining blades serve");
        assert!(c.finish_rejoin(1));
        assert_eq!(c.blade_state(1), BladeState::Up);
        assert!(!c.finish_rejoin(1), "no-op on an already-up blade");
    }

    #[test]
    fn add_blade_grows_pool_and_takes_heal_replicas() {
        let mut c = CacheCluster::new(2, 8);
        c.write(0, key(5), 2, Retention::Normal).unwrap();
        // Kill the replica holder: page under target, nowhere to heal to.
        c.fail_blade(1);
        assert_eq!(c.under_target_pages(), vec![(key(5), 1)]);
        assert_eq!(c.add_replica(key(5)), Err(CacheError::NoEligiblePeer));
        // A new blade joins and takes the healed replica.
        let b = c.add_blade(8);
        assert_eq!(b, 2);
        assert_eq!(c.blade_count(), 3);
        assert_eq!(c.blade_state(b), BladeState::Rejoining);
        assert_eq!(c.add_replica(key(5)), Ok(b));
        assert!(c.under_target_pages().is_empty());
        assert_eq!(c.stats().heal_placements, 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn health_transitions_and_heal_restores_margin() {
        let mut c = CacheCluster::new(4, 16);
        assert_eq!(c.health(), Health::Healthy);
        let w = c.write(0, key(2), 3, Retention::Normal).unwrap();
        assert_eq!(c.health(), Health::Healthy);
        // Lose one replica: under target but a margin survives → Degraded.
        c.fail_blade(w.replicas[0]);
        assert_eq!(c.health(), Health::Degraded);
        // Lose the other: zero surviving replicas → Critical.
        c.fail_blade(w.replicas[1]);
        assert_eq!(c.health(), Health::Critical);
        // Heal back to target: one revived blade plus the untouched fourth
        // blade give the healer two placement targets.
        c.revive_blade(w.replicas[0]).unwrap();
        c.add_replica(key(2)).unwrap();
        assert_eq!(c.health(), Health::Degraded, "one deficit left + rejoining blade");
        c.add_replica(key(2)).unwrap();
        assert!(c.under_target_pages().is_empty());
        assert_eq!(c.health(), Health::Degraded, "rejoining blade keeps it degraded");
        c.revive_blade(w.replicas[1]).unwrap();
        c.finish_rejoin(w.replicas[0]);
        c.finish_rejoin(w.replicas[1]);
        assert_eq!(c.health(), Health::Healthy);
        // The restored margin is real: the owner can fail with zero loss.
        let report = c.fail_blade(0);
        assert!(report.lost.is_empty());
        assert_eq!(report.promoted, vec![key(2)]);
        c.check_invariants().unwrap();
    }

    #[test]
    fn governor_refuses_writes_when_read_only() {
        let mut c = CacheCluster::new(3, 8);
        c.fail_blade(1);
        assert_eq!(c.health(), Health::Healthy, "nothing was at risk: no deficit");
        c.fail_blade(2);
        assert_eq!(c.health(), Health::ReadOnly);
        assert_eq!(
            c.governed_write(0, key(1), 2, Retention::Normal),
            Err(CacheError::ReadOnly)
        );
        // The ungoverned path still works (policy decision, not a mechanism
        // limitation) and a revive lifts the refusal.
        c.write(0, key(1), 2, Retention::Normal).unwrap();
        c.revive_blade(1).unwrap();
        assert!(c.governed_write(0, key(2), 2, Retention::Normal).is_ok());
        c.check_invariants().unwrap();
    }

    #[test]
    fn destage_clears_protection_target() {
        let mut c = CacheCluster::new(4, 16);
        c.write(0, key(6), 3, Retention::Normal).unwrap();
        assert_eq!(c.directory().get(&key(6)).unwrap().protect, 3);
        c.destage(key(6)).unwrap();
        assert_eq!(c.directory().get(&key(6)).unwrap().protect, 0);
        // A destaged page is not heal work even after failures.
        c.fail_blade(0);
        assert!(c.under_target_pages().is_empty());
        c.check_invariants().unwrap();
    }

    #[test]
    fn rewrite_same_page_refreshes_replicas() {
        let mut c = CacheCluster::new(4, 16);
        let w1 = c.write(0, key(6), 2, Retention::Normal).unwrap();
        let w2 = c.write(0, key(6), 2, Retention::Normal).unwrap();
        assert_eq!(w2.version, w1.version + 1);
        c.check_invariants().unwrap();
        // Still exactly one replica set.
        let e = c.directory().get(&key(6)).unwrap();
        assert_eq!(e.replicas.len(), 1);
        assert_eq!(e.version, w2.version);
    }
}
