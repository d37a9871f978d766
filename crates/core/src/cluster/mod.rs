//! The single-site blade cluster: the integrated data path.
//!
//! This is the machine the paper describes — controller blades pooling a
//! coherent cache over a shared disk farm, load-balanced, with write-back
//! N-way replication and RAID destage. The simulation style is
//! *virtual-time request processing*: every hardware resource (fabric port,
//! blade CPU/memory, disk, FC link) is a FIFO queueing model from the
//! substrate crates, so issuing a request returns its completion instant
//! and contention emerges from the queues.
//!
//! This file holds the data path: routing, QoS entry, `read`/`write`,
//! fetch, readahead, back-pressure, destage, and [`BladeCluster::charge_io_plan`],
//! the one function that charges RAID member I/O to the disks. The other
//! concerns are `impl BladeCluster` blocks of their own:
//!
//! * `volumes` — create, unmap, snapshot, delete, expand, migrate,
//!   rollback, charge-back and pool usage;
//! * `integrity` — volume keys and media tags, page location, corruption
//!   injection, scrub verify/repair/rewrite, rebuild poisoning, and the
//!   reclaimed-extent trim;
//! * `lifecycle` — blade fail/repair/drain/revive/rejoin/heal, health, and
//!   disk fail/replace/rebuilt.

mod integrity;
mod lifecycle;
mod volumes;

#[cfg(test)]
mod tests;

use crate::config::{ClusterConfig, LoadBalance};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ys_cache::{CacheCluster, CacheError, PageKey, ReadOutcome, Retention};
use ys_raid::{Geometry, IoPlan};
use ys_simcore::stats::{LatencyHisto, RateMeter};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simdisk::{DiskFarm, DiskId, DiskOp, Verification};
use ys_qos::{AdmissionController, Decision, Pressure, ShedReason};
use ys_simnet::{catalog, Fabric, Link, LinkSpec};
use ys_virt::{PhysicalPool, Segment, VirtError, VolumeId, VolumeManager};

/// One mapped piece of a volume byte range: `len` bytes at volume byte
/// `vbyte`, backed at RAID-logical byte `phys` of the volume's group.
#[derive(Clone, Copy, Debug)]
struct MappedRun {
    vbyte: u64,
    phys: u64,
    len: u64,
}

/// The parts of `runs` inside volume bytes `[lo, hi)`, as (RAID-logical
/// byte, length) pieces — the same pieces mapping `[lo, hi)` alone yields.
fn clip_runs(runs: &[MappedRun], lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
    runs.iter().filter_map(move |r| {
        let a = lo.max(r.vbyte);
        let b = hi.min(r.vbyte + r.len);
        (a < b).then(|| (r.phys + (a - r.vbyte), b - a))
    })
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
    /// No in-flight prefetch lands before this instant (ns): the earliest
    /// arrival when last computed, lowered by each new prefetch. A fill
    /// joined by a foreground miss can leave it early, never late, so
    /// `advance` may skip its sweep until then.
    fills_due: u64,
    /// Last sequential position per (client, volume), for readahead.
    seq_cursor: std::collections::BTreeMap<(usize, u32), u64>,
    failed_disks: Vec<bool>,
    /// Per-volume cipher keys, keyed by volume id (see
    /// [`BladeCluster::volume_key`]), derived on first use.
    volume_keys: std::collections::BTreeMap<u32, ys_security::Key>,
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
            fills_due: u64::MAX,
            seq_cursor: std::collections::BTreeMap::new(),
            failed_disks: vec![false; total_disks],
            volume_keys: std::collections::BTreeMap::new(),
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
    /// `None` for a disk outside the farm.
    pub fn group_of_disk(&self, disk: DiskId) -> Option<(usize, usize)> {
        self.groups
            .iter()
            .enumerate()
            .find(|(_, g)| disk.0 >= g.disk_base && disk.0 < g.disk_base + g.geo.members)
            .map(|(gi, g)| (gi, disk.0 - g.disk_base))
    }

    pub fn group(&self, g: usize) -> &RaidGroup {
        &self.groups[g]
    }

    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// This group's slice of the global failed-disk mask.
    fn group_failed(&self, group: usize) -> &[bool] {
        let g = &self.groups[group];
        &self.failed_disks[g.disk_base..g.disk_base + g.geo.members]
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Geometry of the primary group.
    pub fn raid_geometry(&self) -> &Geometry {
        &self.groups[0].geo
    }

    /// The QoS admission controller (per-tenant stats, SLO report).
    pub fn qos(&self) -> &AdmissionController {
        &self.qos
    }

    /// Sample backpressure (cache dirty ratio, rebuild activity) and run
    /// admission control for one request of `bytes` by `tenant`: a host
    /// I/O from [`BladeCluster::read_as`]/[`BladeCluster::write_as`], or a
    /// background batch (scrub, heal) run as a Scavenger-class tenant in
    /// the shipped configs. Returns when the request may start. Pair a
    /// background batch with [`BladeCluster::qos_complete_as`].
    pub fn qos_admit_as(&mut self, now: SimTime, tenant: u32, bytes: u64) -> Result<SimTime, ClusterError> {
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
        let start = self.qos_admit_as(now, tenant, len)?;
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
        let start = self.qos_admit_as(now, tenant, len)?;
        let c = self.write(start, client, vol, offset, len, copies, retention)?;
        self.qos.complete(tenant, now, c.done, len);
        Ok(Completion { done: c.done, latency: c.done.since(now) })
    }

    /// Report a scrub batch admitted via [`BladeCluster::qos_admit_as`]
    /// complete, feeding the tenant's SLO ledger.
    pub fn qos_complete_as(&mut self, tenant: u32, issued: SimTime, done: SimTime, bytes: u64) {
        self.qos.complete(tenant, issued, done, bytes);
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

    /// First up blade, if any — the deterministic default actor for
    /// administrative work like scrubbing.
    pub fn any_up_blade(&self) -> Option<usize> {
        (0..self.cfg.blades).find(|&b| self.cache.blade_up(b))
    }

    /// Pick the serving blade per the configured policy.
    fn pick_blade(&mut self, vol: VolumeId, page: u64) -> Result<usize, ClusterError> {
        let up = self.up_blades();
        if up.is_empty() {
            return Err(ClusterError::NoBladesUp);
        }
        let idx = match self.cfg.load_balance {
            LoadBalance::RoundRobin => {
                self.rr_next = (self.rr_next + 1) % up.len();
                self.rr_next
            }
            LoadBalance::PageAffinity => PageKey::new(vol.0, page).home(up.len()),
            LoadBalance::PinnedByVolume => vol.0 as usize % up.len(),
        };
        up.get(idx).copied().ok_or(ClusterError::NoBladesUp)
    }

    /// Encryption time for `bytes` (zero when disabled).
    pub(crate) fn crypt_time(&self, bytes: u64, enabled: bool) -> SimDuration {
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
        if SimTime(self.fills_due) <= now {
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
            self.fills_due = self.inflight_fills.values().map(|&(t, _)| t).min().unwrap_or(u64::MAX);
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

    /// Queue the cache-side completion of `key`'s destage at `done`.
    fn queue_destage(&mut self, done: SimTime, key: PageKey, version: u64) {
        self.pending.push(Reverse((done.nanos(), key.volume, key.page, version)));
    }

    /// Charge the RAID member I/O for `plan` (member indices relative to
    /// `group`) starting at `start`, via blade `blade`'s disk-side link —
    /// the one place a plan reaches the disks. Reads: disk first, then FC
    /// back to the blade, each checksum-verified (verification is
    /// metadata, not I/O, so the timing is that of a plain read). Writes:
    /// FC to the shelf, then disk service. Returns the completion time and
    /// every read that hit rotten media; a caller that surfaces those
    /// counts them in `stats.integrity_errors`.
    pub fn charge_io_plan(
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
            let disk = DiskId(base + io.member);
            let (disk_done, verdict) =
                self.farm.submit_verified(disk, start, DiskOp::Read { offset: io.offset, bytes: io.bytes })?;
            if verdict == Verification::ChecksumMismatch {
                mismatches.push(ReadMismatch { disk, offset: io.offset, bytes: io.bytes });
            }
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
        Ok((done, mismatches))
    }

    /// Back every DMSD extent under `[offset, offset+len)` of `vol`
    /// (demand-map holes, redirect snapshot-shared extents).
    fn allocate_extents(&mut self, vol: VolumeId, offset: u64, len: u64) -> Result<(), ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let eb = self.cfg.extent_bytes;
        let first_ext = offset / eb;
        let last_ext = (offset + len - 1) / eb;
        self.groups[gi].volumes.write(local, first_ext, last_ext - first_ext + 1)?;
        // A COW redirect may have released extents; trim anything that
        // reached refcount zero (backstop: also drains frees from any
        // path above) before a stale tag can be stamped over or read.
        self.scrub_reclaimed_extents(gi);
        Ok(())
    }

    /// The mapped runs of `vol`'s byte range `[offset, offset+len)`, in
    /// volume order; holes are left out.
    fn map_runs(&self, vol: VolumeId, offset: u64, len: u64) -> Result<Vec<MappedRun>, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let eb = self.cfg.extent_bytes;
        let first_ext = offset / eb;
        let last_ext = (offset + len - 1) / eb;
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
                    out.push(MappedRun { vbyte: lo, phys: pstart * eb + (lo - seg_vbytes), len: hi - lo });
                }
            }
        }
        Ok(out)
    }

    /// The (RAID-logical byte, length) pieces backing `vol`'s page `page`;
    /// empty for an unmapped page.
    pub(super) fn page_pieces(&self, vol: VolumeId, page: u64) -> Result<Vec<(u64, u64)>, ClusterError> {
        let pb = self.cfg.page_bytes;
        Ok(self.map_runs(vol, page * pb, pb)?.iter().map(|r| (r.phys, r.len)).collect())
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
                    self.fills_due = self.fills_due.min(fetched.done.nanos());
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
    /// arrived and every read that hit rotten media (each one counted in
    /// `stats.integrity_errors`).
    fn fetch_page(&mut self, blade: usize, vol: VolumeId, page: u64, start: SimTime) -> Result<Option<PageVerify>, ClusterError> {
        let pieces = self.page_pieces(vol, page)?;
        if pieces.is_empty() {
            return Ok(None);
        }
        Ok(Some(self.fetch_pieces(blade, Self::decode_vol(vol).0, &pieces, start)?))
    }

    /// [`BladeCluster::fetch_page`] of an already-mapped page: one RAID
    /// read plan per piece of group `gi`.
    fn fetch_pieces(&mut self, blade: usize, gi: usize, pieces: &[(u64, u64)], start: SimTime) -> Result<PageVerify, ClusterError> {
        let geo = self.groups[gi].geo;
        let mut fetched = PageVerify { done: start, mismatches: Vec::new() };
        for &(phys, plen) in pieces {
            let plan = ys_raid::read_plan(&geo, phys, plen, self.group_failed(gi))?;
            let (done, mut mismatches) = self.charge_io_plan(gi, blade, start, &plan)?;
            self.stats.integrity_errors += mismatches.len() as u64;
            fetched.done = fetched.done.max(done);
            fetched.mismatches.append(&mut mismatches);
        }
        Ok(fetched)
    }

    /// Foreground read of one page from disk: fetch it, refuse rot, check
    /// that the media bytes decipher to the expected plaintext, decrypt,
    /// and hand `piece` bytes through the blade CPU. The page is mapped
    /// once, for both the fetch and the tag check.
    fn read_page_from_disk(&mut self, blade: usize, vol: VolumeId, page: u64, start: SimTime, piece: u64) -> Result<SimTime, ClusterError> {
        self.stats.reads_from_disk += 1;
        let gi = Self::decode_vol(vol).0;
        let pieces = self.page_pieces(vol, page)?;
        let mut done = start;
        if !pieces.is_empty() {
            let fetched = self.fetch_pieces(blade, gi, &pieces, start)?;
            if let Some(m) = fetched.mismatches.first() {
                return Err(ClusterError::Integrity { disk: m.disk, offset: m.offset });
            }
            done = fetched.done;
        }
        let at = self.locate_pieces(gi, &pieces);
        self.check_page_tag_at(vol, page, at)?;
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
        // failure would silently lose. The rule is the cache's.
        if self.cfg.health_governor && self.cache.admit_write(blade, PageKey::new(vol.0, offset / pb)).is_err() {
            self.stats.writes_refused_readonly += 1;
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
        self.allocate_extents(vol, offset, len)?;

        let first_page = offset / pb;
        let last_page = (offset + len - 1) / pb;
        // Map the request's pages once; each page's destage and media tag
        // use its clip of these runs.
        let runs = self.map_runs(vol, first_page * pb, (last_page - first_page + 1) * pb)?;
        let mut pieces: Vec<(u64, u64)> = Vec::new();
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
            pieces.clear();
            pieces.extend(clip_runs(&runs, page * pb, (page + 1) * pb));
            let destage_done = self.destage_pieces(blade, tgi, &pieces, ack + enc)?;
            // Data plane: what lands on the media is the (possibly
            // ciphered) page bytes, not the plaintext.
            let at = self.locate_pieces(tgi, &pieces);
            self.stamp_page_tag_at(vol, page, at);
            self.queue_destage(destage_done, key, outcome.version);
        }
        let latency = ack.since(now);
        self.stats.write_latency.record(latency);
        self.stats.write_meter.record(ack, len);
        Ok(Completion { done: ack, latency })
    }

    /// Charge the RAID write of `vol`'s page `page` from blade `blade`: one
    /// write plan per mapped piece, every piece issued at `start`. Returns
    /// when the last piece lands (`start` for an unmapped page). A
    /// partial-stripe write reads old data and parity first; rot found by
    /// those reads is not acted on here.
    fn destage_page(&mut self, blade: usize, vol: VolumeId, page: u64, start: SimTime) -> Result<SimTime, ClusterError> {
        let pieces = self.page_pieces(vol, page)?;
        self.destage_pieces(blade, Self::decode_vol(vol).0, &pieces, start)
    }

    /// [`BladeCluster::destage_page`] of an already-mapped page: one RAID
    /// write plan per piece of group `gi`.
    fn destage_pieces(&mut self, blade: usize, gi: usize, pieces: &[(u64, u64)], start: SimTime) -> Result<SimTime, ClusterError> {
        let geo = self.groups[gi].geo;
        let mut done = start;
        for &(phys, plen) in pieces {
            let plan = ys_raid::write_plan(&geo, phys, plen, self.group_failed(gi))?;
            done = done.max(self.charge_io_plan(gi, blade, start, &plan)?.0);
        }
        Ok(done)
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
