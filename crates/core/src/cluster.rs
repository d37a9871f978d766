//! The single-site blade cluster: the integrated data path.
//!
//! This is the machine the paper describes — controller blades pooling a
//! coherent cache over a shared disk farm, load-balanced, with write-back
//! N-way replication and RAID destage. The simulation style is
//! *virtual-time request processing*: every hardware resource (fabric port,
//! blade CPU/memory, disk, FC link) is a FIFO queueing model from the
//! substrate crates, so issuing a request returns its completion instant
//! and contention emerges from the queues.

use crate::config::{ClusterConfig, LoadBalance};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ys_cache::{CacheCluster, CacheError, DrainReport, Health, PageKey, ReadOutcome, Retention};
use ys_raid::{Geometry, IoPlan};
use ys_simcore::stats::{LatencyHisto, RateMeter};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simdisk::{DiskFarm, DiskId, DiskOp, PAGE_TAG_BYTES};
use ys_simdisk::Verification;
use ys_qos::{AdmissionController, Decision, Pressure, ShedReason};
use ys_simnet::{catalog, Fabric, Link, LinkSpec};
use ys_virt::{PhysicalPool, Segment, VirtError, VolumeId, VolumeKind, VolumeManager};

/// Where a page read was served from (for experiment reporting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedFrom {
    LocalCache,
    RemoteCache,
    Disk,
}

/// Completion info for one request.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    pub done: SimTime,
    pub latency: SimDuration,
}

/// One planned read that failed checksum verification: the farm disk it
/// hit and the member-local span that was read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadMismatch {
    pub disk: DiskId,
    pub offset: u64,
    pub bytes: u64,
}

/// Result of scrub-probing one volume page directly against the disks.
#[derive(Clone, Debug)]
pub struct PageVerify {
    /// When the probe's member reads completed.
    pub done: SimTime,
    /// Reads that hit rotten media (empty = page verified clean).
    pub mismatches: Vec<ReadMismatch>,
}

/// Cluster-level error.
#[derive(Clone, Debug)]
pub enum ClusterError {
    Virt(VirtError),
    Cache(CacheError),
    Raid(ys_raid::DataLoss),
    Disk(ys_simdisk::DiskError),
    NoBladesUp,
    /// Admission control refused the request (`ys-qos`).
    QosShed { tenant: u32, reason: ShedReason },
    /// A checksum-verified read hit a latent media error. The data never
    /// propagates — same discipline as `DataLost` tombstones: the caller
    /// sees an explicit error until a scrub repairs (or declares) the page.
    Integrity { disk: DiskId, offset: u64 },
    /// The degraded-mode governor refused the write: the surviving replica
    /// margin is exhausted, so accepting data would risk silent loss on the
    /// next failure (`ys-heal`).
    ReadOnly,
    /// A read or write of zero bytes: there is no page to address.
    EmptyRequest,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Virt(e) => write!(f, "virtualization: {e}"),
            ClusterError::Cache(e) => write!(f, "cache: {e}"),
            ClusterError::Raid(e) => write!(f, "raid: {e}"),
            ClusterError::Disk(e) => write!(f, "disk: {e}"),
            ClusterError::NoBladesUp => write!(f, "no controller blades available"),
            ClusterError::QosShed { tenant, reason } => {
                write!(f, "qos: tenant {tenant} request shed ({reason:?})")
            }
            ClusterError::Integrity { disk, offset } => {
                write!(f, "integrity: checksum mismatch on disk {} at offset {offset}", disk.0)
            }
            ClusterError::ReadOnly => {
                write!(f, "governor: cluster read-only — replica margin exhausted, write refused")
            }
            ClusterError::EmptyRequest => write!(f, "zero-length request"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<VirtError> for ClusterError {
    fn from(e: VirtError) -> Self {
        ClusterError::Virt(e)
    }
}

impl From<ys_raid::DataLoss> for ClusterError {
    fn from(e: ys_raid::DataLoss) -> Self {
        ClusterError::Raid(e)
    }
}

impl From<ys_simdisk::DiskError> for ClusterError {
    fn from(e: ys_simdisk::DiskError) -> Self {
        ClusterError::Disk(e)
    }
}

/// Aggregate measurements.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    pub read_latency: LatencyHisto,
    pub write_latency: LatencyHisto,
    pub read_meter: RateMeter,
    pub write_meter: RateMeter,
    /// Dirty pages lost to blade failures (should be 0 with N-way ≥ failures+1).
    pub dirty_pages_lost: u64,
    /// Dirty pages saved by replica promotion.
    pub dirty_pages_promoted: u64,
    pub reads_from_local_cache: u64,
    pub reads_from_remote_cache: u64,
    pub reads_from_disk: u64,
    /// Readahead I/Os issued (§4 prefetch).
    pub prefetches_issued: u64,
    /// Misses that joined an in-flight prefetch instead of going to disk.
    pub prefetch_hits: u64,
    /// Checksum mismatches surfaced by verified reads (cache fills,
    /// readahead, rebuild sources, scrub probes). Never silent: each one
    /// either errored the request, skipped a prefetch, poisoned a rebuild
    /// target, or fed a scrub repair.
    pub integrity_errors: u64,
    /// Rebuild batches whose survivor reads failed verification; the
    /// affected replacement-disk pages were poisoned rather than silently
    /// reconstructed from rot.
    pub rebuild_mismatches: u64,
    /// Pages a scrub declared unrepairable (explicit `ScrubLoss`).
    pub scrub_losses: u64,
    /// Pages whose media bytes were ciphered on destage (at-rest stage on).
    pub pages_ciphered: u64,
    /// Disk-sourced pages whose media bytes were deciphered and verified
    /// against the expected plaintext on the way back up.
    pub pages_deciphered: u64,
    /// Replicas re-established by the healer (`ys-heal`).
    pub heal_replicas_placed: u64,
    /// Writes refused by the degraded-mode governor at `ReadOnly` health.
    pub writes_refused_readonly: u64,
    /// Governed writes acknowledged with fewer dirty copies than requested
    /// (peers saturated or down — audited, never silent).
    pub writes_downgraded: u64,
    /// Dirty pages evacuated with zero loss by planned blade drains.
    pub pages_evacuated: u64,
}

/// One RAID group inside the cluster: a geometry over a contiguous range
/// of farm disks, with its own thin-provisioning pool and volume catalog.
pub struct RaidGroup {
    pub geo: Geometry,
    /// First farm disk of this group; member `m` is `DiskId(disk_base + m)`.
    pub disk_base: usize,
    pub volumes: VolumeManager,
}

/// The cluster.
///
/// ```
/// use ys_core::{BladeCluster, ClusterConfig};
/// use ys_cache::Retention;
/// use ys_simcore::SimTime;
///
/// let mut cluster = BladeCluster::new(ClusterConfig::default());
/// let vol = cluster.create_volume("scratch", 0, 1 << 40).unwrap(); // 1 TiB DMSD
/// let w = cluster.write(SimTime::ZERO, 0, vol, 0, 65536, 2, Retention::Normal).unwrap();
/// let r = cluster.read(w.done, 1, vol, 0, 65536).unwrap();
/// assert!(r.latency < w.latency * 4); // cache-warm read
/// assert_eq!(cluster.pool_used_extents(), 1); // demand-mapped
/// ```
pub struct BladeCluster {
    cfg: ClusterConfig,
    pub cache: CacheCluster,
    groups: Vec<RaidGroup>,
    pub farm: DiskFarm,
    /// Host-side fabric: ports [0, clients) are clients, [clients, clients+blades) blades.
    host_fabric: Fabric,
    /// Blade-to-blade fabric for coherence and replica traffic.
    cluster_fabric: Fabric,
    /// Per-blade aggregated disk-side FC (2 × 2 Gb/s ports bonded).
    disk_links: Vec<Link>,
    /// Per-blade CPU/memory path: per-I/O overhead + copy bandwidth, FIFO.
    cpus: Vec<Link>,
    rr_next: usize,
    pending: BinaryHeap<Reverse<(u64, u32, u64, u64)>>, // (time, vol, page, version)
    /// In-flight prefetches: (vol, page) → (disk arrival ns, blade).
    /// Ordered: `advance` sweeps this map to land fills, and the landing
    /// order must be the same on every replay of a seed.
    inflight_fills: std::collections::BTreeMap<(u32, u64), (u64, usize)>,
    /// Last sequential position per (client, volume), for readahead.
    seq_cursor: std::collections::BTreeMap<(usize, u32), u64>,
    failed_disks: Vec<bool>,
    /// Multi-tenant admission control + SLO tracking (`ys-qos`).
    qos: AdmissionController,
    pub stats: ClusterStats,
}

impl BladeCluster {
    pub fn new(cfg: ClusterConfig) -> BladeCluster {
        let mut groups = Vec::new();
        let mut disk_base = 0usize;
        for spec in cfg.group_specs() {
            let geo = Geometry::new(spec.level, spec.disks, spec.chunk);
            let usable = geo.usable_capacity(cfg.disk_spec.capacity_bytes);
            let pool = PhysicalPool::new(usable / cfg.extent_bytes, cfg.extent_bytes);
            groups.push(RaidGroup { geo, disk_base, volumes: VolumeManager::new(pool) });
            disk_base += spec.disks;
        }
        let total_disks = disk_base;
        let blade_ports = cfg.clients + cfg.blades;
        let disk_link_spec = LinkSpec::new(
            // two bonded 2 Gb/s FC ports per blade
            ys_simcore::time::Bandwidth::from_gbit_per_sec(4),
            catalog::fibre_channel_2g().propagation,
            catalog::fibre_channel_2g().per_message,
        );
        let cpu_spec = LinkSpec::new(cfg.cost.cache_copy, SimDuration::ZERO, cfg.cost.per_io);
        let blades = cfg.blades;
        let cache_pages = cfg.cache_pages_per_blade;
        BladeCluster {
            cache: CacheCluster::new(blades, cache_pages),
            groups,
            farm: DiskFarm::new(total_disks, cfg.disk_spec),
            host_fabric: Fabric::new(blade_ports, catalog::fibre_channel_2g()),
            cluster_fabric: Fabric::new(cfg.blades, catalog::fibre_channel_2g()),
            disk_links: (0..cfg.blades).map(|_| Link::new(disk_link_spec)).collect(),
            cpus: (0..cfg.blades).map(|_| Link::new(cpu_spec)).collect(),
            rr_next: 0,
            pending: BinaryHeap::new(),
            inflight_fills: std::collections::BTreeMap::new(),
            seq_cursor: std::collections::BTreeMap::new(),
            failed_disks: vec![false; total_disks],
            qos: AdmissionController::new(cfg.qos.clone()),
            stats: ClusterStats::default(),
            cfg,
        }
    }

    /// Split a global volume id into (group index, group-local id).
    fn decode_vol(vol: VolumeId) -> (usize, VolumeId) {
        ((vol.0 >> 24) as usize, VolumeId(vol.0 & 0x00FF_FFFF))
    }

    fn encode_vol(group: usize, local: VolumeId) -> VolumeId {
        debug_assert!(local.0 < (1 << 24) && group < 256);
        VolumeId(((group as u32) << 24) | local.0)
    }

    /// The RAID group a farm disk belongs to: (group index, member index).
    pub fn group_of_disk(&self, disk: DiskId) -> (usize, usize) {
        for (gi, g) in self.groups.iter().enumerate() {
            if disk.0 >= g.disk_base && disk.0 < g.disk_base + g.geo.members {
                return (gi, disk.0 - g.disk_base);
            }
        }
        panic!("disk {disk:?} outside every group");
    }

    pub fn group(&self, g: usize) -> &RaidGroup {
        &self.groups[g]
    }

    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total physical extents in use across every group's pool.
    pub fn pool_used_extents(&self) -> u64 {
        self.groups.iter().map(|g| g.volumes.pool().used_extents()).sum()
    }

    pub fn pool_used_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.volumes.pool().used_bytes()).sum()
    }

    /// UNMAP a range of extents from a volume; returns extents freed.
    pub fn unmap_volume(&mut self, vol: VolumeId, extent_off: u64, extents: u64) -> Result<u64, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let freed = self.groups[gi].volumes.unmap(local, extent_off, extents)?;
        self.scrub_reclaimed_extents(gi);
        Ok(freed)
    }

    /// Point-in-time snapshot of a volume (§7.2).
    pub fn snapshot_volume(&mut self, vol: VolumeId) -> Result<ys_virt::SnapshotId, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        Ok(self.groups[gi].volumes.snapshot(local)?)
    }

    /// Delete a volume, releasing its extents (and its snapshots').
    pub fn delete_volume(&mut self, vol: VolumeId) -> Result<(), ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        self.groups[gi].volumes.delete(local)?;
        self.scrub_reclaimed_extents(gi);
        Ok(())
    }

    /// Grow a volume's virtual size (free for DMSDs, §3).
    pub fn expand_volume(&mut self, vol: VolumeId, new_bytes: u64) -> Result<(), ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let extents = new_bytes.div_ceil(self.cfg.extent_bytes);
        Ok(self.groups[gi].volumes.expand(local, extents)?)
    }

    /// Host-transparently relocate a volume's physical extents within its
    /// group (§3's "performance optimization ... failure recovery" moves),
    /// charging the data copies to disks via `blade`. Returns (extents
    /// moved, completion time).
    pub fn migrate_volume_data(
        &mut self,
        now: SimTime,
        blade: usize,
        vol: VolumeId,
        extent_off: u64,
        extents: u64,
    ) -> Result<(u64, SimTime), ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let failed = self.group_failed(gi);
        let geo = self.groups[gi].geo;
        let eb = self.cfg.extent_bytes;
        let (moved, copies) = self.groups[gi].volumes.relocate(local, extent_off, extents)?;
        let mut done = now;
        for &(old_phys, new_phys, len) in &copies {
            let read = ys_raid::read_plan(&geo, old_phys * eb, len * eb, &failed)?;
            let t = self.charge_plan(gi, blade, now, &read)?;
            let write = ys_raid::write_plan(&geo, new_phys * eb, len * eb, &failed)?;
            done = done.max(self.charge_plan(gi, blade, t, &write)?);
        }
        // Data plane: the media bytes travel with the copy, page by page,
        // before the vacated extents are trimmed below. The cipher nonce is
        // the *logical* page index, so relocated ciphertext stays valid.
        let disk_base = self.groups[gi].disk_base;
        let pb = self.cfg.page_bytes;
        let none_failed = vec![false; geo.members];
        for &(old_phys, new_phys, len) in &copies {
            let mut off = 0;
            while off < len * eb {
                let span = pb.min(len * eb - off);
                if let (Ok(from), Ok(to)) = (
                    ys_raid::read_plan(&geo, old_phys * eb + off, span, &none_failed),
                    ys_raid::read_plan(&geo, new_phys * eb + off, span, &none_failed),
                ) {
                    if let (Some(src), Some(dst)) = (from.reads.first(), to.reads.first()) {
                        if let Some(tag) =
                            self.farm.read_page_tag(DiskId(disk_base + src.member), src.offset)
                        {
                            self.farm.write_page_tag(DiskId(disk_base + dst.member), dst.offset, tag);
                        }
                    }
                }
                off += pb;
            }
        }
        self.scrub_reclaimed_extents(gi);
        Ok((moved, done))
    }

    /// Delete a snapshot; returns extents reclaimed.
    pub fn delete_snapshot(&mut self, vol: VolumeId, snap: ys_virt::SnapshotId) -> Result<u64, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let freed = self.groups[gi].volumes.delete_snapshot(local, snap)?;
        self.scrub_reclaimed_extents(gi);
        Ok(freed)
    }

    /// Roll a volume back to a snapshot (instant recovery, §7.2 / ref \[1\]).
    /// Cached pages of the volume are dropped — they describe overwritten
    /// data. Returns extents reclaimed from the divergence.
    pub fn rollback_volume(&mut self, vol: VolumeId, snap: ys_virt::SnapshotId) -> Result<u64, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let freed = self.groups[gi].volumes.rollback(local, snap)?;
        self.scrub_reclaimed_extents(gi);
        // Invalidate the volume's cached pages everywhere: the mapping
        // underneath them changed.
        let keys: Vec<PageKey> = self
            .cache
            .directory()
            .iter()
            .filter(|(k, _)| k.volume == vol.0)
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            let _ = self.cache.destage(key);
            self.cache.invalidate_page(key);
        }
        Ok(freed)
    }

    /// Charge-back lines aggregated across every group, annotated with
    /// each tenant's QoS class and admission-control counters (§3's
    /// charge-back × the tenant's service contract).
    pub fn chargeback(&self) -> Vec<ys_virt::ChargebackLine> {
        use std::collections::BTreeMap;
        let mut per: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for g in &self.groups {
            for line in g.volumes.chargeback() {
                let e = per.entry(line.tenant).or_default();
                e.0 += line.provisioned_bytes;
                e.1 += line.actual_bytes;
            }
        }
        per.into_iter()
            .map(|(tenant, (p, a))| {
                let mut line = ys_virt::ChargebackLine::usage(tenant, p, a);
                line.qos_class = self.qos.cfg().class_id(tenant);
                if let Some(s) = self.qos.stats(tenant) {
                    line.throttled_requests = s.throttled;
                    line.shed_requests = s.shed;
                }
                line
            })
            .collect()
    }

    /// The QoS admission controller (per-tenant stats, SLO report).
    pub fn qos(&self) -> &AdmissionController {
        &self.qos
    }

    /// Sample backpressure (cache dirty ratio, rebuild activity) and run
    /// admission control for one tenant request of `bytes`.
    fn qos_admit(&mut self, now: SimTime, tenant: u32, bytes: u64) -> Result<SimTime, ClusterError> {
        if !self.qos.enabled() {
            return Ok(now);
        }
        self.qos.set_pressure(Pressure {
            dirty_ratio: self.cache.dirty_ratio(),
            rebuild_active: self.failed_disks.iter().any(|&f| f),
        });
        match self.qos.admit(now, tenant, bytes) {
            Decision::Admit { start } => Ok(start),
            Decision::Shed { reason } => Err(ClusterError::QosShed { tenant, reason }),
        }
    }

    /// [`BladeCluster::read`] on behalf of a QoS tenant: the request
    /// passes admission control (which may delay its start or shed it)
    /// and its completion feeds the tenant's SLO tracking. Latency is
    /// measured from `now`, so queueing imposed by throttling counts.
    pub fn read_as(
        &mut self,
        now: SimTime,
        tenant: u32,
        client: usize,
        vol: VolumeId,
        offset: u64,
        len: u64,
    ) -> Result<Completion, ClusterError> {
        let start = self.qos_admit(now, tenant, len)?;
        let c = self.read(start, client, vol, offset, len)?;
        self.qos.complete(tenant, now, c.done, len);
        Ok(Completion { done: c.done, latency: c.done.since(now) })
    }

    /// [`BladeCluster::write`] on behalf of a QoS tenant (see
    /// [`BladeCluster::read_as`]).
    #[allow(clippy::too_many_arguments)] // the op surface: who, where, what, how protected
    pub fn write_as(
        &mut self,
        now: SimTime,
        tenant: u32,
        client: usize,
        vol: VolumeId,
        offset: u64,
        len: u64,
        copies: usize,
        retention: Retention,
    ) -> Result<Completion, ClusterError> {
        let start = self.qos_admit(now, tenant, len)?;
        let c = self.write(start, client, vol, offset, len, copies, retention)?;
        self.qos.complete(tenant, now, c.done, len);
        Ok(Completion { done: c.done, latency: c.done.since(now) })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Geometry of the primary group.
    pub fn raid_geometry(&self) -> &Geometry {
        &self.groups[0].geo
    }

    /// Create a demand-mapped volume in the primary group.
    pub fn create_volume(&mut self, name: &str, tenant: u32, bytes: u64) -> Result<VolumeId, ClusterError> {
        self.create_volume_in(0, name, tenant, bytes)
    }

    /// Create a demand-mapped volume in a specific RAID group (§4's
    /// per-class placement).
    pub fn create_volume_in(&mut self, group: usize, name: &str, tenant: u32, bytes: u64) -> Result<VolumeId, ClusterError> {
        let extents = bytes.div_ceil(self.cfg.extent_bytes);
        let local = self.groups[group].volumes.create(name, tenant, VolumeKind::DemandMapped, extents)?;
        Ok(Self::encode_vol(group, local))
    }

    /// The group whose RAID level matches `level`, if any.
    pub fn group_for_level(&self, level: ys_raid::RaidLevel) -> Option<usize> {
        self.groups.iter().position(|g| g.geo.level == level)
    }

    fn client_port(&self, client: usize) -> usize {
        debug_assert!(client < self.cfg.clients);
        client
    }

    fn blade_host_port(&self, blade: usize) -> usize {
        self.cfg.clients + blade
    }

    fn up_blades(&self) -> Vec<usize> {
        (0..self.cfg.blades).filter(|&b| self.cache.blade_up(b)).collect()
    }

    /// Pick the serving blade per the configured policy.
    fn pick_blade(&mut self, vol: VolumeId, page: u64) -> Result<usize, ClusterError> {
        let up = self.up_blades();
        if up.is_empty() {
            return Err(ClusterError::NoBladesUp);
        }
        Ok(match self.cfg.load_balance {
            LoadBalance::RoundRobin => {
                self.rr_next = (self.rr_next + 1) % up.len();
                up[self.rr_next]
            }
            LoadBalance::PageAffinity => {
                let key = PageKey::new(vol.0, page);
                up[key.home(up.len())]
            }
            LoadBalance::PinnedByVolume => up[vol.0 as usize % up.len()],
        })
    }

    /// Encryption time for `bytes` (zero when disabled).
    fn crypt_time(&self, bytes: u64, enabled: bool) -> SimDuration {
        if !enabled {
            return SimDuration::ZERO;
        }
        let per_byte = if self.cfg.encryption.hardware_assist {
            self.cfg.cost.hw_crypt_ns_per_byte
        } else {
            self.cfg.cost.sw_crypt_ns_per_byte
        };
        SimDuration::from_nanos((bytes as f64 * per_byte) as u64)
    }

    /// Per-volume cipher key, derived from the cluster master seed (§5.1's
    /// key hierarchy): each volume's key is a keyed hash of its id under
    /// the master key, so disclosing one volume's key reveals nothing
    /// about its neighbours'.
    pub fn volume_key(&self, vol: VolumeId) -> ys_security::Key {
        let master = ys_security::Key::from_seed(self.cfg.master_key_seed);
        ys_security::Key::from_seed(ys_security::keyed_hash(&master, &vol.0.to_be_bytes()))
    }

    /// The deterministic plaintext the data plane expects for `vol`'s page
    /// `page` — the representative bytes a host "wrote" there.
    pub fn plaintext_page_tag(vol: VolumeId, page: u64) -> [u8; PAGE_TAG_BYTES] {
        let mut tag = [0u8; PAGE_TAG_BYTES];
        tag[..4].copy_from_slice(&vol.0.to_be_bytes());
        tag[4..12].copy_from_slice(&page.to_be_bytes());
        tag[12..].copy_from_slice(b"page");
        tag
    }

    /// The bytes that belong on the media for `vol`'s page `page`: the
    /// plaintext tag, ciphered under the per-volume key when at-rest
    /// encryption is on. The page index is the CTR nonce — the
    /// per-(key, nonce) subkey derivation keeps every page's keystream
    /// disjoint under one volume key.
    fn media_page_tag(&self, vol: VolumeId, page: u64) -> [u8; PAGE_TAG_BYTES] {
        let mut tag = Self::plaintext_page_tag(vol, page);
        if self.cfg.encryption.at_rest {
            ys_security::ctr_xor(&self.volume_key(vol), page, 0, &mut tag);
        }
        tag
    }

    /// Stamp the media bytes for `vol`'s page onto its backing disk — the
    /// data-plane half of a destage or scrub rewrite. Timing is charged by
    /// the caller; unmapped pages are a no-op.
    fn stamp_page_tag(&mut self, vol: VolumeId, page: u64) {
        if let Some((disk, offset)) = self.locate_volume_page(vol, page) {
            let tag = self.media_page_tag(vol, page);
            if self.farm.write_page_tag(disk, offset, tag) && self.cfg.encryption.at_rest {
                self.stats.pages_ciphered += 1;
            }
        }
    }

    /// Raw media bytes currently backing `vol`'s page — what a removed
    /// disk would disclose (§5.1's warranty-return scenario). Ciphertext
    /// when at-rest encryption is on; `None` before the first destage.
    pub fn media_tag(&mut self, vol: VolumeId, page: u64) -> Option<[u8; PAGE_TAG_BYTES]> {
        let (disk, offset) = self.locate_volume_page(vol, page)?;
        self.farm.read_page_tag(disk, offset)
    }

    /// Pull the media bytes for `vol`'s page back through the cipher and
    /// check them against the expected plaintext. `Ok(())` when the page
    /// has no data-plane bytes yet (never destaged, or rebuilt media).
    fn check_page_tag(&mut self, vol: VolumeId, page: u64) -> Result<(), ClusterError> {
        let Some((disk, offset)) = self.locate_volume_page(vol, page) else {
            return Ok(());
        };
        let Some(mut tag) = self.farm.read_page_tag(disk, offset) else {
            return Ok(());
        };
        if self.cfg.encryption.at_rest {
            ys_security::ctr_xor(&self.volume_key(vol), page, 0, &mut tag);
            self.stats.pages_deciphered += 1;
        }
        if tag != Self::plaintext_page_tag(vol, page) {
            return Err(ClusterError::Integrity { disk, offset });
        }
        Ok(())
    }

    /// Discard the media bytes of every extent the group's pool reclaimed
    /// since the last drain. Refcount-zero extents go back on the free
    /// list; without this trim a recycled extent resurfaces its previous
    /// life's bytes — a stale-tag integrity false positive at best, and a
    /// §5 disclosure hole (the next tenant reads the previous owner's
    /// media) at worst. Each page's tag lives where [`Self::stamp_page_tag`]
    /// put it: the first data span of the page's read plan.
    fn scrub_reclaimed_extents(&mut self, gi: usize) {
        let freed = self.groups[gi].volumes.take_reclaimed();
        if freed.is_empty() {
            return;
        }
        let geo = self.groups[gi].geo;
        let disk_base = self.groups[gi].disk_base;
        let eb = self.cfg.extent_bytes;
        let pb = self.cfg.page_bytes;
        let none_failed = vec![false; geo.members];
        for e in freed {
            let mut off = 0;
            while off < eb {
                if let Ok(plan) = ys_raid::read_plan(&geo, e * eb + off, pb.min(eb - off), &none_failed) {
                    if let Some(io) = plan.reads.first() {
                        self.farm.clear_page_tag(DiskId(disk_base + io.member), io.offset);
                    }
                }
                off += pb;
            }
        }
    }

    /// Apply every destage whose disk write has completed by `now`, and
    /// land every prefetch whose disk read has arrived.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(Reverse((t, vol, page, version))) = self.pending.peek().copied() {
            if SimTime(t) > now {
                break;
            }
            self.pending.pop();
            self.apply_destage(PageKey::new(vol, page), version);
        }
        if !self.inflight_fills.is_empty() {
            let landed: Vec<((u32, u64), usize)> = self
                .inflight_fills
                .iter()
                .filter(|(_, &(t, _))| SimTime(t) <= now)
                .map(|(&k, &(_, blade))| (k, blade))
                .collect();
            for ((vol, page), blade) in landed {
                self.inflight_fills.remove(&(vol, page));
                if self.cache.blade_up(blade) {
                    let _ = self.cache.fill(blade, PageKey::new(vol, page), Retention::Normal);
                }
            }
        }
    }

    fn apply_destage(&mut self, key: PageKey, version: u64) {
        // Skip if a newer write superseded this destage (its own destage is
        // queued) or the page vanished with a failed blade.
        let current = self.cache.directory().get(&key).map(|e| e.version);
        if current == Some(version) {
            let _ = self.cache.destage(key);
        }
    }

    /// Force the earliest pending destage (used when a cache fills with
    /// dirty data — the write must wait for write-back to free space).
    fn force_one_destage(&mut self, now: SimTime) -> Option<SimTime> {
        let Reverse((t, vol, page, version)) = self.pending.pop()?;
        self.apply_destage(PageKey::new(vol, page), version);
        Some(now.max(SimTime(t)))
    }

    /// Charge the RAID member I/O for `plan` (member indices relative to
    /// `group`) starting at `start`, via blade `blade`'s disk-side link.
    /// Reads: disk first, then FC back to blade. Writes: FC to the shelf,
    /// then disk service.
    fn charge_plan(&mut self, group: usize, blade: usize, start: SimTime, plan: &IoPlan) -> Result<SimTime, ClusterError> {
        let base = self.groups[group].disk_base;
        let mut done = start;
        for io in &plan.reads {
            let disk_done = self.farm.submit(DiskId(base + io.member), start, DiskOp::Read { offset: io.offset, bytes: io.bytes })?;
            let arrival = self.disk_links[blade].transfer(disk_done, io.bytes).arrival;
            done = done.max(arrival);
        }
        // Writes begin after the reads they depend on (RMW ordering).
        let write_start = done;
        for io in &plan.writes {
            let arrival = self.disk_links[blade].transfer(write_start, io.bytes).arrival;
            let disk_done = self.farm.submit(DiskId(base + io.member), arrival, DiskOp::Write { offset: io.offset, bytes: io.bytes })?;
            done = done.max(disk_done);
        }
        Ok(done)
    }

    /// [`BladeCluster::charge_plan`] with checksum verification on every
    /// read. Timing is identical (verification is metadata, not I/O); the
    /// returned list carries any reads that hit rotten media, for the
    /// caller to surface or repair — never to ignore.
    fn charge_plan_verified(
        &mut self,
        group: usize,
        blade: usize,
        start: SimTime,
        plan: &IoPlan,
    ) -> Result<(SimTime, Vec<ReadMismatch>), ClusterError> {
        let base = self.groups[group].disk_base;
        let mut done = start;
        let mut mismatches = Vec::new();
        for io in &plan.reads {
            let id = DiskId(base + io.member);
            let (disk_done, verdict) =
                self.farm.submit_verified(id, start, DiskOp::Read { offset: io.offset, bytes: io.bytes })?;
            if verdict == Verification::ChecksumMismatch {
                mismatches.push(ReadMismatch { disk: id, offset: io.offset, bytes: io.bytes });
            }
            let arrival = self.disk_links[blade].transfer(disk_done, io.bytes).arrival;
            done = done.max(arrival);
        }
        let write_start = done;
        for io in &plan.writes {
            let arrival = self.disk_links[blade].transfer(write_start, io.bytes).arrival;
            let disk_done = self.farm.submit(DiskId(base + io.member), arrival, DiskOp::Write { offset: io.offset, bytes: io.bytes })?;
            done = done.max(disk_done);
        }
        if !mismatches.is_empty() {
            self.stats.integrity_errors += mismatches.len() as u64;
        }
        Ok((done, mismatches))
    }

    /// This group's slice of the global failed-disk mask.
    fn group_failed(&self, group: usize) -> Vec<bool> {
        let g = &self.groups[group];
        self.failed_disks[g.disk_base..g.disk_base + g.geo.members].to_vec()
    }

    /// Translate a volume byte range into (group, RAID-logical byte) pieces
    /// (allocating DMSD extents for writes).
    fn map_segments(&mut self, vol: VolumeId, offset: u64, len: u64, allocate: bool) -> Result<Vec<(u64, u64)>, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let eb = self.cfg.extent_bytes;
        let first_ext = offset / eb;
        let last_ext = (offset + len - 1) / eb;
        if allocate {
            self.groups[gi].volumes.write(local, first_ext, last_ext - first_ext + 1)?;
            // A COW redirect may have released extents; trim anything that
            // reached refcount zero (backstop: also drains frees from any
            // path above) before a stale tag can be stamped over or read.
            self.scrub_reclaimed_extents(gi);
        }
        let segs = self.groups[gi].volumes.read(local, first_ext, last_ext - first_ext + 1)?;
        let mut out = Vec::new();
        for seg in segs {
            if let Segment::Mapped { vstart, pstart, len: elen } = seg {
                // Overlap of [offset, offset+len) with this extent run.
                let seg_vbytes = vstart * eb;
                let seg_end = (vstart + elen) * eb;
                let lo = offset.max(seg_vbytes);
                let hi = (offset + len).min(seg_end);
                if lo < hi {
                    let phys = pstart * eb + (lo - seg_vbytes);
                    out.push((phys, hi - lo));
                }
            }
        }
        Ok(out)
    }

    /// Read `[offset, offset+len)` from `vol` on behalf of `client`.
    pub fn read(
        &mut self,
        now: SimTime,
        client: usize,
        vol: VolumeId,
        offset: u64,
        len: u64,
    ) -> Result<Completion, ClusterError> {
        if len == 0 {
            return Err(ClusterError::EmptyRequest);
        }
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let pb = self.cfg.page_bytes;
        let blade = self.pick_blade(vol, offset / pb)?;
        // Request command to the blade.
        let t0 = self
            .host_fabric
            .send(now, self.client_port(client), self.blade_host_port(blade), 64)
            .arrival;
        let mut data_ready = t0;
        let first_page = offset / pb;
        let last_page = (offset + len - 1) / pb;
        for page in first_page..=last_page {
            let key = PageKey::new(vol.0, page);
            let page_off = page * pb;
            // Overlap of the request with this page.
            let lo = offset.max(page_off);
            let hi = (offset + len).min(page_off + pb);
            let piece = hi - lo;
            // Installing a remote copy may need room on a blade full of
            // dirty pages: back-pressure delays this page, as for writes.
            let (outcome, t) = self.with_backpressure(blade, t0, |c| c.read(blade, key))?;
            let page_done = match outcome {
                ReadOutcome::LocalHit => {
                    self.stats.reads_from_local_cache += 1;
                    self.cpus[blade].transfer(t, piece).arrival
                }
                ReadOutcome::RemoteHit { from } if self.cfg.remote_cache_supply => {
                    self.stats.reads_from_remote_cache += 1;
                    let hop = self.cluster_fabric.send(t, from, blade, pb).arrival;
                    self.cpus[blade].transfer(hop, piece).arrival
                }
                // Ablation: partitioned controllers — the peer's copy is
                // invisible, pay the full disk path.
                ReadOutcome::RemoteHit { .. } => self.read_page_from_disk(blade, vol, page, t, piece)?,
                ReadOutcome::Miss => {
                    // A prefetch may already have this page in flight:
                    // join it rather than re-reading the disks.
                    let filled = if let Some((arrival, _)) = self.inflight_fills.remove(&(key.volume, key.page)) {
                        self.stats.prefetch_hits += 1;
                        self.cpus[blade].transfer(t.max(SimTime(arrival)), piece).arrival
                    } else {
                        self.read_page_from_disk(blade, vol, page, t, piece)?
                    };
                    self.with_backpressure(blade, filled, |c| c.fill(blade, key, Retention::Normal))?;
                    filled
                }
            };
            data_ready = data_ready.max(page_done);
        }
        // Sequential detection → readahead (§4 "storage prefetch").
        if self.cfg.prefetch_pages > 0 {
            let seq = self.seq_cursor.get(&(client, vol.0)) == Some(&offset);
            self.seq_cursor.insert((client, vol.0), offset + len);
            if seq {
                self.issue_readahead(blade, vol, last_page + 1, data_ready)?;
            }
        }
        // In-transit encryption, then the data crosses the host fabric.
        let enc = self.crypt_time(len, self.cfg.encryption.in_transit);
        let arrival = self
            .host_fabric
            .send(data_ready + enc, self.blade_host_port(blade), self.client_port(client), len)
            .arrival;
        let latency = arrival.since(now);
        self.stats.read_latency.record(latency);
        self.stats.read_meter.record(arrival, len);
        Ok(Completion { done: arrival, latency })
    }

    /// Issue background disk reads for the next `prefetch_pages` pages of
    /// `vol` starting at `from_page`; they land in the cache at their disk
    /// arrival time (see [`BladeCluster::advance`]).
    fn issue_readahead(&mut self, blade: usize, vol: VolumeId, from_page: u64, at: SimTime) -> Result<(), ClusterError> {
        for page in from_page..from_page + self.cfg.prefetch_pages as u64 {
            let key = PageKey::new(vol.0, page);
            if self.inflight_fills.contains_key(&(key.volume, key.page)) {
                continue;
            }
            if self.cache.directory().get(&key).map(|e| e.is_cached_anywhere()).unwrap_or(false) {
                continue;
            }
            // Only prefetch mapped data, and only if every read verified: a
            // prefetched page that fails its checksum must never land in
            // cache as if it were good data — the fill is dropped and the
            // later foreground miss surfaces the mismatch explicitly.
            if let Ok(Some(fetched)) = self.fetch_page(blade, vol, page, at) {
                if fetched.mismatches.is_empty() {
                    self.inflight_fills.insert((key.volume, key.page), (fetched.done.nanos(), blade));
                    self.stats.prefetches_issued += 1;
                }
            }
        }
        Ok(())
    }

    /// The one disk-fetch path: read volume page `page` through the RAID
    /// read plan of each mapped piece, charging member reads from `start`
    /// via `blade`'s disk link with checksum verification. `None` for an
    /// unmapped page (nothing is charged); otherwise when the last piece
    /// arrived and every read that hit rotten media.
    fn fetch_page(&mut self, blade: usize, vol: VolumeId, page: u64, start: SimTime) -> Result<Option<PageVerify>, ClusterError> {
        let pb = self.cfg.page_bytes;
        let (gi, _) = Self::decode_vol(vol);
        let failed = self.group_failed(gi);
        let geo = self.groups[gi].geo;
        let pieces = self.map_segments(vol, page * pb, pb, false)?;
        if pieces.is_empty() {
            return Ok(None);
        }
        let mut fetched = PageVerify { done: start, mismatches: Vec::new() };
        for (phys, plen) in pieces {
            let plan = ys_raid::read_plan(&geo, phys, plen, &failed)?;
            let (done, mut mismatches) = self.charge_plan_verified(gi, blade, start, &plan)?;
            fetched.done = fetched.done.max(done);
            fetched.mismatches.append(&mut mismatches);
        }
        Ok(Some(fetched))
    }

    /// Foreground read of one page from disk: fetch it, refuse rot, check
    /// that the media bytes decipher to the expected plaintext, decrypt,
    /// and hand `piece` bytes through the blade CPU.
    fn read_page_from_disk(&mut self, blade: usize, vol: VolumeId, page: u64, start: SimTime, piece: u64) -> Result<SimTime, ClusterError> {
        self.stats.reads_from_disk += 1;
        let mut done = start;
        if let Some(fetched) = self.fetch_page(blade, vol, page, start)? {
            if let Some(m) = fetched.mismatches.first() {
                return Err(ClusterError::Integrity { disk: m.disk, offset: m.offset });
            }
            done = fetched.done;
        }
        self.check_page_tag(vol, page)?;
        let dec = self.crypt_time(self.cfg.page_bytes, self.cfg.encryption.at_rest);
        Ok(self.cpus[blade].transfer(done + dec, piece).arrival)
    }

    /// Run a cache operation that may stall on a blade full of dirty
    /// pages: each stall forces the earliest pending destage and retries at
    /// its completion time. Returns the result and when the operation ran.
    fn with_backpressure<T>(
        &mut self,
        blade: usize,
        mut t: SimTime,
        mut op: impl FnMut(&mut CacheCluster) -> Result<T, CacheError>,
    ) -> Result<(T, SimTime), ClusterError> {
        loop {
            match op(&mut self.cache) {
                Ok(v) => return Ok((v, t)),
                Err(CacheError::EvictionStall(_)) => {
                    t = self.force_one_destage(t).ok_or(ClusterError::Cache(CacheError::EvictionStall(blade)))?;
                }
                Err(e) => return Err(ClusterError::Cache(e)),
            }
        }
    }

    /// Write `[offset, offset+len)` with `copies`-way dirty replication and
    /// the given retention class. Write-back: the host is acked once the
    /// data is replicated in cache; destage to disk happens in background.
    #[allow(clippy::too_many_arguments)] // the op surface: who, where, what, how protected
    pub fn write(
        &mut self,
        now: SimTime,
        client: usize,
        vol: VolumeId,
        offset: u64,
        len: u64,
        copies: usize,
        retention: Retention,
    ) -> Result<Completion, ClusterError> {
        if len == 0 {
            return Err(ClusterError::EmptyRequest);
        }
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let (tgi, _) = Self::decode_vol(vol);
        self.groups[tgi].volumes.trace_mut().set_now(now);
        let pb = self.cfg.page_bytes;
        let blade = self.pick_blade(vol, offset / pb)?;
        // Degraded-mode governor: refuse writes outright when no replica
        // protection is possible, instead of accepting data one more
        // failure would silently lose.
        if self.cfg.health_governor && self.cache.health() == Health::ReadOnly {
            self.stats.writes_refused_readonly += 1;
            self.cache.trace_mut().instant("heal", "write_refused", blade as u32, offset / pb, vol.0 as u64);
            return Err(ClusterError::ReadOnly);
        }
        // Data travels client → blade (with in-transit decryption charge on
        // arrival if transit encryption is on).
        let mut t = self
            .host_fabric
            .send(now, self.client_port(client), self.blade_host_port(blade), len)
            .arrival;
        t += self.crypt_time(len, self.cfg.encryption.in_transit);
        // Ensure DMSD backing exists (allocation is metadata work on the CPU).
        self.map_segments(vol, offset, len, true)?;

        let first_page = offset / pb;
        let last_page = (offset + len - 1) / pb;
        let mut ack = t;
        for page in first_page..=last_page {
            let key = PageKey::new(vol.0, page);
            // Cache write with backpressure on dirty saturation.
            let (outcome, t_cache) = self.with_backpressure(blade, t, |c| c.write(blade, key, copies, retention))?;
            t = t_cache;
            // Governed writes that land below their requested protection
            // level are a policy downgrade: audit it explicitly.
            if self.cfg.health_governor && outcome.replicas.len() + 1 < copies {
                self.stats.writes_downgraded += 1;
                let missing = (copies - 1 - outcome.replicas.len()) as u64;
                self.cache.trace_mut().instant("heal", "write_downgraded", blade as u32, key.page, missing);
            }
            let cpu_done = self.cpus[blade].transfer(t_cache, pb.min(len)).arrival;
            // N-way replication to peer caches before ack (§6.1).
            let mut repl_done = cpu_done;
            for &r in &outcome.replicas {
                let a = self.cluster_fabric.send(t_cache, blade, r, pb).arrival;
                repl_done = repl_done.max(a);
            }
            ack = ack.max(repl_done);
            // Background destage: RAID write of the page at ack time, with
            // at-rest encryption charged on the way down.
            let enc = self.crypt_time(pb, self.cfg.encryption.at_rest);
            let (gi, _) = Self::decode_vol(vol);
            let failed = self.group_failed(gi);
            let geo = self.groups[gi].geo;
            let pieces = self.map_segments(vol, page * pb, pb, false)?;
            let mut destage_done = ack + enc;
            for (phys, plen) in pieces {
                let plan = ys_raid::write_plan(&geo, phys, plen, &failed)?;
                destage_done = destage_done.max(self.charge_plan(gi, blade, ack + enc, &plan)?);
            }
            // Data plane: what lands on the media is the (possibly
            // ciphered) page bytes, not the plaintext.
            self.stamp_page_tag(vol, page);
            self.pending.push(Reverse((destage_done.nanos(), key.volume, key.page, outcome.version)));
        }
        let latency = ack.since(now);
        self.stats.write_latency.record(latency);
        self.stats.write_meter.record(ack, len);
        Ok(Completion { done: ack, latency })
    }

    /// Flush: apply every pending destage and return the time the last one
    /// completes.
    pub fn drain(&mut self) -> SimTime {
        let mut last = SimTime::ZERO;
        while let Some(Reverse((t, vol, page, version))) = self.pending.pop() {
            last = last.max(SimTime(t));
            self.apply_destage(PageKey::new(vol, page), version);
        }
        last
    }

    /// Fail a controller blade (§6). Dirty data survives via replicas; any
    /// page without a surviving replica is lost and counted.
    pub fn fail_blade(&mut self, now: SimTime, blade: usize) -> ys_cache::FailureReport {
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let report = self.cache.fail_blade(blade);
        self.stats.dirty_pages_lost += report.lost.len() as u64;
        self.stats.dirty_pages_promoted += report.promoted.len() as u64;
        // Promoted pages get a fresh destage from their new owner.
        for &key in &report.promoted {
            if let Some(e) = self.cache.directory().get(&key) {
                let version = e.version;
                let owner = e.owner;
                if let Some(owner) = owner {
                    let pb = self.cfg.page_bytes;
                    let (gi, _) = Self::decode_vol(VolumeId(key.volume));
                    let failed = self.group_failed(gi);
                    let geo = self.groups[gi].geo;
                    if let Ok(pieces) = self.map_segments(VolumeId(key.volume), key.page * pb, pb, false) {
                        let mut done = now;
                        for (phys, plen) in pieces {
                            if let Ok(plan) = ys_raid::write_plan(&geo, phys, plen, &failed) {
                                if let Ok(d) = self.charge_plan(gi, owner, now, &plan) {
                                    done = done.max(d);
                                }
                            }
                        }
                        self.pending.push(Reverse((done.nanos(), key.volume, key.page, version)));
                    }
                }
            }
        }
        report
    }

    pub fn repair_blade(&mut self, blade: usize) {
        self.cache.repair_blade(blade);
    }

    /// Planned blade shutdown (`Up → Draining → Down`): evacuate every copy
    /// with zero loss of acknowledged writes, forcing pending destages to
    /// free peer space whenever the drain stalls. Returns the cache-level
    /// report and the time the evacuation copies complete on the blade
    /// fabric.
    pub fn drain_blade(
        &mut self,
        now: SimTime,
        blade: usize,
    ) -> Result<(DrainReport, SimTime), ClusterError> {
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let mut report = DrainReport::default();
        let mut t = now;
        loop {
            let pass = self.cache.drain_blade(blade).map_err(ClusterError::Cache)?;
            let completed = pass.completed;
            report.merge(pass);
            if completed {
                break;
            }
            // A dirty page had no eligible peer: free space by applying the
            // earliest pending destage, then retry the drain.
            t = self
                .force_one_destage(t)
                .ok_or(ClusterError::Cache(CacheError::NoEligiblePeer))?;
        }
        // Charge the evacuation traffic: every moved owner copy and every
        // re-placed replica is one page over the blade-to-blade fabric.
        let pb = self.cfg.page_bytes;
        let mut done = t;
        for &key in &report.moved {
            if let Some(owner) = self.cache.directory().get(&key).and_then(|e| e.owner) {
                done = done.max(self.cluster_fabric.send(t, blade, owner, pb).arrival);
            }
        }
        for &key in &report.replicas_moved {
            // add_replica appends: the re-placed copy is the last replica.
            let dest = self.cache.directory().get(&key).and_then(|e| e.replicas.last().copied());
            if let Some(dest) = dest {
                done = done.max(self.cluster_fabric.send(t, blade, dest, pb).arrival);
            }
        }
        self.stats.pages_evacuated += report.evacuated() as u64;
        Ok((report, done))
    }

    /// Admit a failed/shut-down blade back, empty and `Rejoining`; the
    /// healer promotes it to `Up` once redundancy converges.
    pub fn revive_blade(&mut self, blade: usize) -> Result<(), ClusterError> {
        self.cache.revive_blade(blade).map_err(ClusterError::Cache)
    }

    /// Promote a `Rejoining` blade to `Up` (healer convergence).
    pub fn finish_rejoin(&mut self, blade: usize) -> bool {
        self.cache.finish_rejoin(blade)
    }

    /// Cluster health from surviving replica margins (`ys-heal` governor).
    pub fn health(&self) -> Health {
        self.cache.health()
    }

    /// Dirty pages below their fault-tolerance target — the healer's queue.
    pub fn under_target_pages(&self) -> Vec<(PageKey, usize)> {
        self.cache.under_target_pages()
    }

    /// Re-establish one replica for an under-protected page (the healer's
    /// unit of work): place the copy, charge the owner → target page
    /// transfer on the blade fabric, return `(target, done)`.
    pub fn heal_page(&mut self, now: SimTime, key: PageKey) -> Result<(usize, SimTime), ClusterError> {
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let owner = match self.cache.directory().get(&key).and_then(|e| e.owner) {
            Some(o) => o,
            None => return Err(ClusterError::Cache(CacheError::BadState)),
        };
        let target = self.cache.add_replica(key).map_err(ClusterError::Cache)?;
        self.stats.heal_replicas_placed += 1;
        let done = self.cluster_fabric.send(now, owner, target, self.cfg.page_bytes).arrival;
        Ok((target, done))
    }

    /// Fail a disk; RAID keeps serving in degraded mode.
    pub fn fail_disk(&mut self, disk: DiskId) {
        self.failed_disks[disk.0] = true;
        self.farm.fail(disk);
    }

    /// Replace a failed disk (rebuild is driven by [`crate::rebuild`]).
    pub fn replace_disk(&mut self, disk: DiskId) {
        self.farm.replace(disk);
        // Disk stays logically failed for planning until the rebuild ends.
    }

    /// Mark a rebuilt disk healthy for planning.
    pub fn mark_disk_rebuilt(&mut self, disk: DiskId) {
        self.failed_disks[disk.0] = false;
    }

    pub fn failed_disks(&self) -> &[bool] {
        &self.failed_disks
    }

    /// Per-blade CPU utilization at `until` — the hot-spot metric for E5.
    pub fn blade_utilizations(&self, until: SimTime) -> Vec<f64> {
        self.cpus.iter().map(|c| c.utilization(until)).collect()
    }

    /// Per-blade disk-side FC link utilization at `until`.
    pub fn disk_link_utilizations(&self, until: SimTime) -> Vec<f64> {
        self.disk_links.iter().map(|l| l.utilization(until)).collect()
    }

    /// Per-blade disk-side FC traffic: (messages, bytes).
    pub fn disk_link_traffic(&self) -> Vec<(u64, u64)> {
        self.disk_links.iter().map(|l| (l.messages(), l.bytes())).collect()
    }

    /// Enable structured tracing across the cluster's subsystems: cache
    /// directory transitions, DMSD allocations, and disk-side FC transfers.
    /// `capacity` bounds each subsystem's ring. Purely observational — no
    /// simulated time or random draws change.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.cache.trace_mut().enable(capacity);
        for g in &mut self.groups {
            g.volumes.trace_mut().enable(capacity);
        }
        for (b, l) in self.disk_links.iter_mut().enumerate() {
            l.enable_trace(b as u32, capacity);
        }
    }

    /// Drain every subsystem trace ring, returning the events sorted by
    /// time (ties broken by subsystem/name/lane for determinism) plus the
    /// total number of events dropped to ring overflow.
    pub fn take_trace(&mut self) -> (Vec<ys_simcore::SpanEvent>, u64) {
        let mut events = Vec::new();
        let mut dropped = self.cache.trace().dropped();
        self.cache.trace_mut().take_into(&mut events);
        for g in &mut self.groups {
            dropped += g.volumes.trace().dropped();
            g.volumes.trace_mut().take_into(&mut events);
        }
        for l in &mut self.disk_links {
            dropped += l.trace().dropped();
            l.trace_mut().take_into(&mut events);
        }
        events.sort_by_key(|e| (e.at, e.subsystem, e.name, e.lane));
        (events, dropped)
    }

    /// Charge a plan against the primary group (rebuild driver, services).
    pub fn charge_io_plan(&mut self, blade: usize, start: SimTime, plan: &IoPlan) -> Result<SimTime, ClusterError> {
        self.charge_plan(0, blade, start, plan)
    }

    /// Charge a plan against a specific group, checksum-verified: the
    /// timing of [`BladeCluster::charge_io_plan`], plus any reads that hit
    /// rotten media. The rebuild driver
    /// uses this so a latent error on a survivor can never be silently
    /// baked into a reconstructed disk.
    pub fn charge_io_plan_verified_in(
        &mut self,
        group: usize,
        blade: usize,
        start: SimTime,
        plan: &IoPlan,
    ) -> Result<(SimTime, Vec<ReadMismatch>), ClusterError> {
        self.charge_plan_verified(group, blade, start, plan)
    }

    /// Inject a latent media error on the page of `disk` containing
    /// `offset` (the ys-chaos `CorruptPage` fault). Silent until a
    /// verified read or a scrub covers it. Returns false for out-of-range
    /// targets.
    pub fn corrupt_disk_page(&mut self, disk: DiskId, offset: u64) -> bool {
        if disk.0 >= self.farm.len() {
            return false;
        }
        self.farm.corrupt_page(disk, offset)
    }

    /// Where the first physical data span backing `vol`'s page `page`
    /// lives: the (disk, member offset) a fault injector would hit.
    /// `None` for unmapped pages. Does not alter any state.
    pub fn locate_volume_page(&mut self, vol: VolumeId, page: u64) -> Option<(DiskId, u64)> {
        let pb = self.cfg.page_bytes;
        let (gi, _) = Self::decode_vol(vol);
        let geo = self.groups[gi].geo;
        let healthy = vec![false; geo.members];
        let pieces = self.map_segments(vol, page * pb, pb, false).ok()?;
        let (phys, plen) = *pieces.first()?;
        let plan = ys_raid::read_plan(&geo, phys, plen, &healthy).ok()?;
        let io = plan.reads.first()?;
        Some((DiskId(self.groups[gi].disk_base + io.member), io.offset))
    }

    /// Inject a latent error on the physical data span backing `vol`'s
    /// page `page`, so the rot is visible to any verified read of that
    /// page (unlike a raw [`BladeCluster::corrupt_disk_page`], which may
    /// land on parity or free space). Returns the (disk, member offset)
    /// hit, or `None` when the page is unmapped.
    pub fn corrupt_volume_page(&mut self, vol: VolumeId, page: u64) -> Option<(DiskId, u64)> {
        let (disk, offset) = self.locate_volume_page(vol, page)?;
        self.farm.corrupt_page(disk, offset);
        Some((disk, offset))
    }

    /// Whether `disk`'s page containing `offset` currently fails
    /// verification.
    pub fn disk_page_corrupt(&self, disk: DiskId, offset: u64) -> bool {
        disk.0 < self.farm.len() && self.farm.is_page_corrupt(disk, offset)
    }

    /// Pages across the farm currently failing verification.
    pub fn corrupt_page_count(&self) -> usize {
        self.farm.corrupt_page_count()
    }

    /// Volumes across every group, in (group, id) order — the scrubber's
    /// deterministic walk order.
    pub fn volume_ids(&self) -> Vec<VolumeId> {
        let mut out = Vec::new();
        for (gi, g) in self.groups.iter().enumerate() {
            let mut ids: Vec<u32> = g.volumes.volumes().map(|v| v.id.0).collect();
            ids.sort_unstable();
            out.extend(ids.into_iter().map(|id| Self::encode_vol(gi, VolumeId(id))));
        }
        out
    }

    /// Mapped extent indices of `vol`, ascending — the extents a scrub
    /// pass must cover (holes have no data to verify).
    pub fn mapped_extents(&self, vol: VolumeId) -> Vec<u64> {
        let (gi, local) = Self::decode_vol(vol);
        let Some(v) = self.groups[gi].volumes.volume(local) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for run in v.map.runs() {
            out.extend(run.vstart..run.vend());
        }
        out
    }

    /// Bytes per virtualization extent (the scrub walk granularity above
    /// the page).
    pub fn extent_bytes(&self) -> u64 {
        self.cfg.extent_bytes
    }

    /// Scrub probe: read volume page `page` directly from the disks
    /// through the healthy RAID path and verify checksums, without
    /// touching the cache (a scrub must observe the media, not the
    /// cache). Unmapped pages verify trivially clean.
    pub fn verify_page(
        &mut self,
        now: SimTime,
        blade: usize,
        vol: VolumeId,
        page: u64,
    ) -> Result<PageVerify, ClusterError> {
        Ok(self.fetch_page(blade, vol, page, now)?.unwrap_or(PageVerify { done: now, mismatches: Vec::new() }))
    }

    /// Scrub repair, source 1: reconstruct the rotten span on `disk` from
    /// its RAID group's redundancy and rewrite it (laying down fresh
    /// checksums). Fails with [`ClusterError::Integrity`] if a peer read
    /// is itself rotten (the reconstruction would be garbage) and with
    /// [`ClusterError::Raid`] when the level has no redundancy to spend.
    pub fn repair_disk_span_from_parity(
        &mut self,
        now: SimTime,
        blade: usize,
        disk: DiskId,
        offset: u64,
        bytes: u64,
    ) -> Result<SimTime, ClusterError> {
        let (gi, member) = self.group_of_disk(disk);
        let failed = self.group_failed(gi);
        let geo = self.groups[gi].geo;
        let plan = ys_raid::repair_plan(&geo, member, offset, bytes, &failed)?;
        let (done, mismatches) = self.charge_plan_verified(gi, blade, now, &plan)?;
        if let Some(m) = mismatches.first() {
            return Err(ClusterError::Integrity { disk: m.disk, offset: m.offset });
        }
        Ok(done)
    }

    /// Scrub repair, source 2: if any up blade still caches `page`, its
    /// copy is the current data — rewrite it to disk (fresh checksums
    /// repair the rot). Returns `Ok(None)` when no usable cached copy
    /// exists (not resident, holder down, or tombstoned lost).
    pub fn rewrite_page_from_cache(
        &mut self,
        now: SimTime,
        vol: VolumeId,
        page: u64,
    ) -> Result<Option<SimTime>, ClusterError> {
        let key = PageKey::new(vol.0, page);
        if self.cache.is_lost(key) {
            return Ok(None);
        }
        let holder = self
            .cache
            .directory()
            .get(&key)
            .map(|e| e.holders())
            .unwrap_or_default()
            .into_iter()
            .find(|&b| self.cache.blade_up(b));
        let Some(blade) = holder else {
            return Ok(None);
        };
        Ok(Some(self.scrub_rewrite_page(now, blade, vol, page)?))
    }

    /// Rewrite one volume page to disk from blade `blade` (scrub repair
    /// install path — also used to land a geo-fetched copy). Pure disk
    /// traffic: cache metadata is untouched.
    pub fn scrub_rewrite_page(
        &mut self,
        now: SimTime,
        blade: usize,
        vol: VolumeId,
        page: u64,
    ) -> Result<SimTime, ClusterError> {
        let pb = self.cfg.page_bytes;
        let (gi, _) = Self::decode_vol(vol);
        let failed = self.group_failed(gi);
        let geo = self.groups[gi].geo;
        let pieces = self.map_segments(vol, page * pb, pb, false)?;
        let mut done = now;
        for (phys, plen) in pieces {
            let plan = ys_raid::write_plan(&geo, phys, plen, &failed)?;
            done = done.max(self.charge_plan(gi, blade, now, &plan)?);
        }
        // A repair install rewrites the page's media bytes too, so a
        // scrubbed page reads back byte-identical (still ciphertext when
        // at-rest encryption is on).
        self.stamp_page_tag(vol, page);
        Ok(done)
    }

    /// Copy rot markers from mismatched rebuild source reads onto the
    /// replacement disk: the reconstructed spans came from untrustworthy
    /// bytes, so they must stay detectable instead of reading back as
    /// clean. Returns the number of pages poisoned.
    pub fn poison_rebuilt_spans(&mut self, target: DiskId, mismatches: &[ReadMismatch]) -> u64 {
        let mut poisoned = 0u64;
        for m in mismatches {
            let bad: Vec<u64> = self
                .farm
                .disk(m.disk)
                .corrupt_offsets()
                .filter(|&off| off >= m.offset && off < m.offset + m.bytes)
                .collect();
            for off in bad {
                if self.farm.corrupt_page(target, off) {
                    poisoned += 1;
                }
            }
        }
        self.stats.rebuild_mismatches += u64::from(poisoned > 0);
        poisoned
    }

    /// Run admission control for a background scrub batch as `tenant`
    /// (Scavenger-class in the shipped configs). Pair with
    /// [`BladeCluster::qos_complete_as`] when the batch finishes.
    pub fn qos_admit_as(&mut self, now: SimTime, tenant: u32, bytes: u64) -> Result<SimTime, ClusterError> {
        self.qos_admit(now, tenant, bytes)
    }

    /// Report a scrub batch admitted via [`BladeCluster::qos_admit_as`]
    /// complete, feeding the tenant's SLO ledger.
    pub fn qos_complete_as(&mut self, tenant: u32, issued: SimTime, done: SimTime, bytes: u64) {
        self.qos.complete(tenant, issued, done, bytes);
    }

    /// First up blade, if any — the deterministic default actor for
    /// administrative work like scrubbing.
    pub fn any_up_blade(&self) -> Option<usize> {
        (0..self.cfg.blades).find(|&b| self.cache.blade_up(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncryptionConfig;

    fn small() -> (BladeCluster, VolumeId) {
        let cfg = ClusterConfig::default().with_blades(4).with_disks(8).with_clients(4);
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("t", 0, 1 << 30).unwrap();
        (c, vol)
    }

    #[test]
    fn write_then_read_hits_cache() {
        let (mut c, vol) = small();
        let w = c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 2, Retention::Normal).unwrap();
        assert!(w.latency.nanos() > 0);
        let r = c.read(w.done, 0, vol, 0, 64 * 1024, ).unwrap();
        // Cache hit: far faster than a disk-backed read could be.
        assert!(r.latency < SimDuration::from_millis(2), "cached read took {}", r.latency);
        assert!(c.stats.reads_from_local_cache + c.stats.reads_from_remote_cache >= 1);
        assert_eq!(c.stats.reads_from_disk, 0);
    }

    #[test]
    fn cold_read_goes_to_disk_and_pays_mechanics() {
        let (mut c, vol) = small();
        // Write (allocates + caches), drain destage, then blow the cache by
        // reading a cold region far away... simpler: read unwritten hole —
        // must not go to disk (zero-fill) so write first, fail blades? Use
        // a fresh cluster and read after drop of cache: write, drain, then
        // read from a *different* page that was allocated but evicted is
        // hard to force; instead check that reading written-but-uncached
        // data after cache invalidation works: kill and repair all blades.
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 1, Retention::Normal).unwrap();
        let t = c.drain();
        for b in 0..4 {
            c.fail_blade(t, b);
        }
        for b in 0..4 {
            c.repair_blade(b);
        }
        let r = c.read(t, 0, vol, 0, 64 * 1024).unwrap();
        assert!(c.stats.reads_from_disk >= 1);
        assert!(r.latency > SimDuration::from_millis(2), "disk read took only {}", r.latency);
    }

    #[test]
    fn write_ack_excludes_destage() {
        let (mut c, vol) = small();
        let w = c.write(SimTime::ZERO, 0, vol, 0, 4096, 2, Retention::Normal).unwrap();
        // Write-back ack ≪ disk service time.
        assert!(w.latency < SimDuration::from_millis(2), "write-back ack took {}", w.latency);
        // But the destage does hit disks eventually.
        let last = c.drain();
        assert!(last > w.done);
    }

    #[test]
    fn recycled_extents_carry_no_previous_life_bytes() {
        let (mut c, vol) = small();
        let mb = 1u64 << 20;
        let page = 64 * 1024;
        // Fill extent 0 and destage: its media pages now carry tags.
        let w = c.write(SimTime::ZERO, 0, vol, 0, mb, 1, Retention::Normal).unwrap();
        c.drain();
        let snap = c.snapshot_volume(vol).unwrap();
        // Diverge the whole extent: COW redirects to fresh physicals, and
        // the destage stamps those too.
        let w2 = c.write(w.done, 0, vol, 0, mb, 1, Retention::Normal).unwrap();
        c.drain();
        // Roll back: the diverged physicals return to the pool still warm.
        c.rollback_volume(vol, snap).unwrap();
        // Reuse them for a *different* logical range — one page written,
        // the rest of the extent mapped but never destaged.
        let w3 = c.write(w2.done, 0, vol, 8 * mb, page, 1, Retention::Normal).unwrap();
        // Reading a mapped-but-never-written page of the recycled extent
        // must not trip integrity on the previous life's media bytes...
        let r = c.read(w3.done, 0, vol, 8 * mb + 2 * page, page);
        assert!(r.is_ok(), "stale media bytes on a recycled extent: {:?}", r.err());
        // ...and the §5 disclosure angle: the recycled media discloses
        // nothing at all where the new owner never wrote.
        assert_eq!(c.media_tag(vol, (8 * mb + 2 * page) / page), None);
    }

    #[test]
    fn n_way_replication_latency_grows_with_copies() {
        let cfg = ClusterConfig::default().with_blades(6).with_disks(8);
        let mut lat = Vec::new();
        for copies in [1usize, 2, 4] {
            let mut c = BladeCluster::new(cfg.clone());
            let vol = c.create_volume("t", 0, 1 << 30).unwrap();
            let mut t = SimTime::ZERO;
            let mut total = SimDuration::ZERO;
            for i in 0..50u64 {
                let w = c.write(t, 0, vol, i * 64 * 1024, 64 * 1024, copies, Retention::Normal).unwrap();
                total += w.latency;
                t = w.done;
            }
            lat.push(total);
        }
        assert!(lat[0] < lat[1], "1-way {:?} !< 2-way {:?}", lat[0], lat[1]);
        assert!(lat[1] < lat[2], "2-way {:?} !< 4-way {:?}", lat[1], lat[2]);
    }

    #[test]
    fn blade_failure_with_replication_loses_nothing() {
        let (mut c, vol) = small();
        let mut t = SimTime::ZERO;
        for i in 0..20u64 {
            let w = c.write(t, 0, vol, i * 64 * 1024, 64 * 1024, 2, Retention::Normal).unwrap();
            t = w.done;
        }
        // Fail a blade before destage completes.
        let report = c.fail_blade(t, 0);
        assert!(report.lost.is_empty(), "2-way replication must survive one failure");
        assert_eq!(c.stats.dirty_pages_lost, 0);
    }

    #[test]
    fn blade_failure_without_replication_can_lose_dirty_data() {
        let (mut c, vol) = small();
        // Pin to a known blade via volume pinning for determinism.
        let mut t = SimTime::ZERO;
        for i in 0..20u64 {
            let w = c.write(t, 0, vol, i * 64 * 1024, 64 * 1024, 1, Retention::Normal).unwrap();
            t = w.done;
        }
        let mut lost = 0;
        for b in 0..4 {
            lost += c.fail_blade(t, b).lost.len();
        }
        assert!(lost > 0, "1-way writes die with their blade");
    }

    #[test]
    fn encryption_adds_latency_sw_more_than_hw() {
        let base_cfg = ClusterConfig::default();
        let run = |enc: EncryptionConfig| {
            let mut c = BladeCluster::new(base_cfg.clone().with_encryption(enc));
            let vol = c.create_volume("t", 0, 1 << 30).unwrap();
            let mut t = SimTime::ZERO;
            let mut total = SimDuration::ZERO;
            for i in 0..20u64 {
                let w = c.write(t, 0, vol, i * (1 << 20), 1 << 20, 1, Retention::Normal).unwrap();
                total += w.latency;
                t = w.done;
            }
            total
        };
        let off = run(EncryptionConfig::off());
        let hw = run(EncryptionConfig::full_hw());
        let sw = run(EncryptionConfig::full_sw());
        assert!(off < hw, "hw crypto costs a little");
        assert!(hw < sw, "sw crypto costs much more");
        // Hardware assist is near wire speed: within 15% of off.
        let ratio = hw.as_secs_f64() / off.as_secs_f64();
        assert!(ratio < 1.15, "hw ratio {ratio}");
    }

    #[test]
    fn at_rest_cipher_puts_ciphertext_on_media_and_round_trips() {
        let cfg = ClusterConfig::default()
            .with_blades(4)
            .with_disks(8)
            .with_clients(4)
            .with_encryption(EncryptionConfig::full_hw());
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("sec", 0, 1 << 30).unwrap();
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 1, Retention::Normal).unwrap();
        let t = c.drain();
        // What a removed disk would disclose is ciphertext, and it
        // deciphers back to the expected plaintext under the volume key.
        let media = c.media_tag(vol, 0).expect("destaged page has media bytes");
        let plain = BladeCluster::plaintext_page_tag(vol, 0);
        assert_ne!(media, plain, "at-rest media bytes must not be plaintext");
        let mut dec = media;
        ys_security::ctr_xor(&c.volume_key(vol), 0, 0, &mut dec);
        assert_eq!(dec, plain, "volume key must decipher the media bytes");
        assert!(c.stats.pages_ciphered >= 1);
        // Cold read pulls the ciphertext back through the cipher cleanly.
        for b in 0..4 {
            c.fail_blade(t, b);
            c.repair_blade(b);
        }
        c.read(t, 0, vol, 0, 64 * 1024).expect("decode after cipher");
        assert!(c.stats.pages_deciphered >= 1);
    }

    #[test]
    fn crypt_off_media_bytes_are_plaintext() {
        let (mut c, vol) = small();
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 1, Retention::Normal).unwrap();
        c.drain();
        assert_eq!(c.media_tag(vol, 0), Some(BladeCluster::plaintext_page_tag(vol, 0)));
        assert_eq!(c.stats.pages_ciphered, 0);
    }

    #[test]
    fn tampered_media_bytes_surface_as_integrity_error() {
        let cfg = ClusterConfig::default()
            .with_blades(4)
            .with_disks(8)
            .with_clients(4)
            .with_encryption(EncryptionConfig::full_hw());
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("sec", 0, 1 << 30).unwrap();
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 1, Retention::Normal).unwrap();
        let t = c.drain();
        let (disk, offset) = c.locate_volume_page(vol, 0).unwrap();
        c.farm.write_page_tag(disk, offset, [0xEE; PAGE_TAG_BYTES]);
        for b in 0..4 {
            c.fail_blade(t, b);
            c.repair_blade(b);
        }
        let err = c.read(t, 0, vol, 0, 64 * 1024).unwrap_err();
        assert!(matches!(err, ClusterError::Integrity { .. }), "{err}");
    }

    #[test]
    fn volume_keys_are_separated_by_the_master_hierarchy() {
        let (mut c, v1) = small();
        let v2 = c.create_volume("u", 1, 1 << 30).unwrap();
        assert_ne!(c.volume_key(v1), c.volume_key(v2), "per-volume keys must differ");
        // A different master seed re-keys every volume.
        let other = BladeCluster::new(
            ClusterConfig::default().with_blades(4).with_disks(8).with_master_seed(777),
        );
        assert_ne!(c.volume_key(v1), other.volume_key(v1));
    }

    #[test]
    fn scrub_repair_restores_ciphertext_byte_identical() {
        let cfg = ClusterConfig::default()
            .with_blades(4)
            .with_disks(8)
            .with_clients(4)
            .with_encryption(EncryptionConfig::full_hw());
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("sec", 0, 1 << 30).unwrap();
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 2, Retention::Normal).unwrap();
        let t = c.drain();
        let before = c.media_tag(vol, 0).unwrap();
        // Rot the backing page, then repair from the cached replica.
        c.corrupt_volume_page(vol, 0).unwrap();
        let repaired = c.rewrite_page_from_cache(t, vol, 0).unwrap();
        assert!(repaired.is_some(), "cached replica repairs the rot");
        let after = c.media_tag(vol, 0).unwrap();
        assert_eq!(before, after, "repair must restore the exact ciphertext");
        assert_ne!(after, BladeCluster::plaintext_page_tag(vol, 0));
    }

    #[test]
    fn degraded_raid_reads_still_work() {
        let (mut c, vol) = small();
        c.write(SimTime::ZERO, 0, vol, 0, 256 * 1024, 1, Retention::Normal).unwrap();
        let t = c.drain();
        // Kill a disk, nuke caches, read back.
        c.fail_disk(DiskId(2));
        for b in 0..4 {
            c.fail_blade(t, b);
            c.repair_blade(b);
        }
        let r = c.read(t, 0, vol, 0, 256 * 1024);
        assert!(r.is_ok(), "RAID5 must serve degraded reads: {:?}", r.err().map(|e| e.to_string()));
    }

    #[test]
    fn no_blades_up_errors() {
        let (mut c, vol) = small();
        for b in 0..4 {
            c.fail_blade(SimTime::ZERO, b);
        }
        assert!(matches!(c.read(SimTime::ZERO, 0, vol, 0, 4096), Err(ClusterError::NoBladesUp)));
    }

    #[test]
    fn remote_hit_on_a_dirty_full_blade_applies_backpressure() {
        // Two blades served round-robin (blade 1 first), four pages each,
        // every write un-replicated and issued at t = 0 so no destage has
        // landed yet: both blades end up full of dirty pages.
        let cfg = ClusterConfig::default().with_blades(2).with_disks(8).with_clients(2).with_cache_pages(4);
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("t", 0, 1 << 30).unwrap();
        let pb = c.config().page_bytes;
        for i in 0..4 {
            c.write(SimTime::ZERO, 0, vol, (100 + i) * pb, pb, 1, Retention::Normal).unwrap();
            c.write(SimTime::ZERO, 0, vol, i * pb, pb, 1, Retention::Normal).unwrap();
        }
        // Blade 1 serves a local hit, then blade 0 reads page 100, which
        // only blade 1 holds: installing the remote copy must wait for a
        // destage to free a slot, not fail.
        c.read(SimTime::ZERO, 0, vol, 101 * pb, pb).unwrap();
        let r = c.read(SimTime::ZERO, 0, vol, 100 * pb, pb).unwrap();
        assert_eq!(c.stats.reads_from_remote_cache, 1);
        assert!(r.latency > SimDuration::from_millis(1), "the read waited for a destage: {}", r.latency);
    }

    #[test]
    fn dmsd_allocation_happens_on_write() {
        let (mut c, vol) = small();
        assert_eq!(c.pool_used_extents(), 0);
        c.write(SimTime::ZERO, 0, vol, 0, 4096, 1, Retention::Normal).unwrap();
        assert_eq!(c.pool_used_extents(), 1);
    }

    #[test]
    fn drain_blade_evacuates_and_heal_restores_margin() {
        let (mut c, vol) = small();
        let mut t = SimTime::ZERO;
        for i in 0..12u64 {
            let w = c.write(t, 0, vol, i * 64 * 1024, 64 * 1024, 2, Retention::Normal).unwrap();
            t = w.done;
        }
        // Planned shutdown of a blade: zero loss.
        let (report, done) = c.drain_blade(t, 0).unwrap();
        assert!(report.completed);
        assert!(c.cache.lost_pages().is_empty(), "drain must never lose an acked write");
        assert!(done >= t);
        t = done;
        // Heal whatever the drain left under target, then rejoin the blade.
        c.revive_blade(0).unwrap();
        let mut guard = 0;
        while let Some(&(key, _)) = c.under_target_pages().first() {
            let (_, d) = c.heal_page(t, key).unwrap();
            t = t.max(d);
            guard += 1;
            assert!(guard < 1000, "healer must converge");
        }
        assert!(c.finish_rejoin(0));
        assert_eq!(c.health(), Health::Healthy);
        // The restored margin is real: any single blade failure now loses
        // nothing, including the blades that absorbed the evacuation.
        for b in 0..4 {
            let mut probe = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
            let pvol = probe.create_volume("t", 0, 1 << 30).unwrap();
            let mut pt = SimTime::ZERO;
            for i in 0..12u64 {
                let w = probe.write(pt, 0, pvol, i * 64 * 1024, 64 * 1024, 2, Retention::Normal).unwrap();
                pt = w.done;
            }
            let (_, pd) = probe.drain_blade(pt, 0).unwrap();
            probe.revive_blade(0).unwrap();
            let mut ht = pd;
            while let Some(&(key, _)) = probe.under_target_pages().first() {
                let (_, d) = probe.heal_page(ht, key).unwrap();
                ht = ht.max(d);
            }
            probe.finish_rejoin(0);
            let rep = probe.fail_blade(ht, b);
            assert!(rep.lost.is_empty(), "healed cluster must survive failing blade {b}");
        }
    }

    #[test]
    fn governor_refuses_writes_at_read_only() {
        let cfg = ClusterConfig::default().with_blades(3).with_disks(8).with_health_governor();
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("t", 0, 1 << 30).unwrap();
        let w = c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 2, Retention::Normal).unwrap();
        let mut t = w.done;
        c.fail_blade(t, 1);
        c.fail_blade(t, 2);
        // One accepting blade left: no write can be protected → refused.
        let err = c.write(t, 0, vol, 64 * 1024, 64 * 1024, 2, Retention::Normal);
        assert!(matches!(err, Err(ClusterError::ReadOnly)), "{err:?}");
        assert_eq!(c.stats.writes_refused_readonly, 1);
        // Revive lifts the refusal; the downgrade (1 replica instead of
        // landing on a full peer set) is audited, not silent.
        c.revive_blade(1).unwrap();
        let w2 = c.write(t, 0, vol, 64 * 1024, 64 * 1024, 3, Retention::Normal).unwrap();
        t = w2.done;
        assert_eq!(c.stats.writes_downgraded, 1, "3-way asked, 2 blades accepting");
        let _ = t;
    }

    #[test]
    fn fail_heal_fail_loses_nothing_within_margin() {
        let (mut c, vol) = small();
        let mut t = SimTime::ZERO;
        for i in 0..10u64 {
            let w = c.write(t, 0, vol, i * 64 * 1024, 64 * 1024, 2, Retention::Normal).unwrap();
            t = w.done;
        }
        let r1 = c.fail_blade(t, 0);
        assert!(r1.lost.is_empty());
        // Without healing, failing a promoted owner would lose data. Heal
        // first: every promoted page gets a fresh replica.
        let mut guard = 0;
        while let Some(&(key, _)) = c.under_target_pages().first() {
            let (_, d) = c.heal_page(t, key).unwrap();
            t = t.max(d);
            guard += 1;
            assert!(guard < 1000, "healer must converge");
        }
        // Now fail each survivor in turn (fresh promoted owners included):
        // the healed margin absorbs one more failure with zero loss.
        let victim = r1
            .promoted
            .first()
            .and_then(|k| c.cache.directory().get(k).and_then(|e| e.owner));
        if let Some(victim) = victim {
            let r2 = c.fail_blade(t, victim);
            assert!(r2.lost.is_empty(), "healed margin must absorb the second failure");
        }
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::config::ClusterConfig;

    const KB: u64 = 1 << 10;
    const MB: u64 = 1 << 20;

    fn cold_cluster(prefetch: usize) -> (BladeCluster, VolumeId, SimTime) {
        let cfg = ClusterConfig::default().with_blades(4).with_disks(8).with_prefetch(prefetch);
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("seq", 0, 1 << 30).unwrap();
        // Materialize 16 MiB, then drop every cached copy.
        let mut t = SimTime::ZERO;
        for off in (0..(16 * MB)).step_by(MB as usize) {
            t = c.write(t, 0, vol, off, MB, 1, Retention::Normal).unwrap().done;
        }
        let t = c.drain().max(t);
        for b in 0..4 {
            c.fail_blade(t, b);
            c.repair_blade(b);
        }
        (c, vol, t)
    }

    #[test]
    fn sequential_reads_trigger_readahead_and_join_inflight() {
        let (mut c, vol, mut t) = cold_cluster(8);
        for off in (0..(8 * MB)).step_by((64 * KB) as usize) {
            t = c.read(t, 0, vol, off, 64 * KB).unwrap().done;
        }
        assert!(c.stats.prefetches_issued > 0, "readahead fired");
        assert!(
            c.stats.prefetch_hits + c.stats.reads_from_local_cache > 0,
            "later reads were served by prefetched pages"
        );
    }

    #[test]
    fn prefetch_speeds_up_sequential_streams() {
        let run = |pf: usize| {
            let (mut c, vol, start) = cold_cluster(pf);
            let mut t = start;
            for off in (0..(8 * MB)).step_by((64 * KB) as usize) {
                t = c.read(t, 0, vol, off, 64 * KB).unwrap().done;
            }
            t.since(start)
        };
        let without = run(0);
        let with = run(8);
        assert!(
            with < without,
            "readahead must help sequential streams: with={with} without={without}"
        );
    }

    #[test]
    fn random_reads_do_not_trigger_readahead() {
        let (mut c, vol, mut t) = cold_cluster(8);
        // Jump around: never two adjacent reads.
        for i in [11u64, 3, 7, 1, 13, 5, 9, 2] {
            t = c.read(t, 0, vol, i * MB, 64 * KB).unwrap().done;
        }
        assert_eq!(c.stats.prefetches_issued, 0, "no sequentiality, no readahead");
    }

    #[test]
    fn prefetch_never_reads_holes() {
        let cfg = ClusterConfig::default().with_blades(2).with_disks(8).with_prefetch(4);
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("sparse", 0, 1 << 30).unwrap();
        // Exactly one 1 MiB extent is mapped (pages 0..16).
        let mut t = c.write(SimTime::ZERO, 0, vol, 0, MB, 1, Retention::Normal).unwrap().done;
        t = c.drain().max(t);
        for b in 0..2 {
            c.fail_blade(t, b);
            c.repair_blade(b);
        }
        // Sequential reads at the extent's tail: readahead would walk into
        // the unmapped region beyond page 15 and must skip every hole.
        t = c.read(t, 0, vol, 14 * 64 * KB, 64 * KB).unwrap().done;
        let _ = c.read(t, 0, vol, 15 * 64 * KB, 64 * KB).unwrap();
        assert_eq!(c.stats.prefetches_issued, 0, "hole pages are not prefetched");
    }
}
