//! The four workloads and what they share: the cluster snapshot taken at
//! the warm start, per-layer metrics of one `BladeCluster`, its final
//! simulated state for the fingerprint, and the read-back checks.

pub mod cache_hot;
pub mod disk_mix;
pub mod geo_stream;
pub mod repair;

use crate::gen::{Kind, Op};
use crate::host::Probe;
use crate::metrics::Layers;
use crate::record::Recorder;
use crate::spans::{SimTrace, Spans};
use std::time::Instant;
use ys_cache::CacheStats;
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterError};
use ys_simcore::time::SimTime;
use ys_simcore::SpanEvent;
use ys_simdisk::DiskId;
use ys_virt::VolumeId;

/// Ring capacity for the program's span rings in the traced run; rings are
/// drained every [`TRACE_DRAIN_EVERY`] operations.
pub const TRACE_RING: usize = 1 << 15;
pub const TRACE_DRAIN_EVERY: u64 = 256;

/// Sentinel op id for spans that serve no single operation.
pub const NO_OP: u64 = u64::MAX;

/// What one measured phase needs besides the workload itself.
#[derive(Debug)]
pub struct Ctx {
    pub spans: Spans,
    /// Present in the traced run only.
    pub sim: Option<SimTrace>,
    pub rec: Recorder,
    pub probe: Probe,
    /// Operations per host second of each lap, as measured.
    lap_rates: Vec<f64>,
    /// The host's speed (see [`Probe::speed`]) at the end of each lap.
    lap_speeds: Vec<f64>,
    lap_start: Option<Instant>,
    lap_ops: u64,
    done: u64,
}

/// Laps per measured phase; `host.ops_s` is the median lap rate, so a burst
/// of interference from outside the process moves it little.
pub const LAPS: u64 = 50;

impl Ctx {
    pub fn new(traced: bool, ops: u64) -> Ctx {
        Ctx {
            spans: Spans::new(traced),
            sim: traced.then(SimTrace::default),
            rec: Recorder::with_capacity(ops as usize),
            probe: Probe::default(),
            lap_rates: Vec::new(),
            lap_speeds: Vec::new(),
            lap_start: None,
            lap_ops: (ops / LAPS).max(1),
            done: 0,
        }
    }

    /// Start the lap clock (just before the measured phase).
    pub fn start(&mut self) {
        self.lap_start = Some(Instant::now());
    }

    /// One more foreground operation finished. At the end of a lap, probe
    /// the host's speed (outside the lap's own time) to normalise the lap.
    pub fn lap(&mut self) {
        self.done += 1;
        if let (true, Some(start)) = (self.done.is_multiple_of(self.lap_ops), self.lap_start) {
            let secs = start.elapsed().as_secs_f64();
            let speed = self.probe.speed();
            self.lap_rates.push(self.lap_ops as f64 / secs);
            self.lap_speeds.push(speed);
            self.lap_start = Some(Instant::now());
        }
    }

    /// Median lap rate in operations per host second, at the reference
    /// speed (divided by the median probe speed of the run) and as
    /// measured, and the lap count.
    pub fn lap_rate(&self) -> (f64, f64, u64) {
        let raw = median(&self.lap_rates);
        (
            raw / median(&self.lap_speeds),
            raw,
            self.lap_rates.len() as u64,
        )
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A workload after its timed set-up, at the warm start.
pub trait Workload {
    /// Turn on the program's own span rings (traced run only).
    fn enable_tracing(&mut self);
    /// The measured phase: every foreground operation of the run.
    fn measure(&mut self, ctx: &mut Ctx);
    /// Drain write-back (and, for geo, ship the async backlog) so the final
    /// state is settled. Not timed.
    fn settle(&mut self, ctx: &mut Ctx);
    /// Final simulated state, folded into the fingerprint.
    fn final_state(&mut self) -> Vec<u64>;
    /// Per-layer metrics of the measured phase.
    fn layers(&mut self, ctx: &Ctx, l: &mut Layers);
    /// Correctness checks; every returned line is a failure.
    fn verify(&mut self) -> Vec<String>;
}

/// Set up `name` for `ops` measured operations from `seed`.
pub fn setup(name: &str, seed: u64, ops: u64, spans: &mut Spans) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cache-hot" => Box::new(cache_hot::CacheHot::setup(seed, ops, spans)),
        "disk-mix" => Box::new(disk_mix::DiskMix::setup(seed, ops, spans)),
        "geo-stream" => Box::new(geo_stream::GeoStream::setup(seed, ops, spans)),
        "repair-under-load" => Box::new(repair::Repair::setup(seed, ops, spans)),
        _ => return None,
    })
}

/// Measured operations per `--seconds`: each workload's operation budget is
/// `seconds ×` this rate, about one host second of work on a 2-core x86-64
/// box, so the simulated results are a pure function of seed and length.
pub fn ops_per_second(name: &str) -> Option<u64> {
    Some(match name {
        "cache-hot" => 450_000,
        "disk-mix" => 140_000,
        "geo-stream" => 10_000,
        "repair-under-load" => 20_000,
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 4] = ["cache-hot", "disk-mix", "geo-stream", "repair-under-load"];

/// Counters of one cluster at the warm start, so the layer metrics cover
/// the measured phase only.
#[derive(Clone, Debug)]
pub struct ClusterSnap {
    pub at: SimTime,
    stats: ys_core::ClusterStats,
    cache: CacheStats,
    lookups: Vec<u64>,
    extents: u64,
    /// Per disk: (ops, bytes read, bytes written).
    disk_io: Vec<(u64, u64, u64)>,
    disk_busy_s: Vec<f64>,
}

/// Busy seconds of every disk up to the point where its queue is empty.
fn disk_busy_s(c: &BladeCluster, at: SimTime) -> Vec<f64> {
    let farm = &c.farm;
    let until = (0..farm.len())
        .map(|d| farm.disk(DiskId(d)).next_free())
        .fold(at, SimTime::max);
    (0..farm.len())
        .map(|d| farm.disk(DiskId(d)).utilization(until) * until.as_secs_f64())
        .collect()
}

impl ClusterSnap {
    /// Disk I/O since `earlier`, summed over disks: (ops, bytes read, bytes
    /// written). A replaced disk restarts its counters from zero.
    fn disk_io_since(&self, earlier: &ClusterSnap) -> (u64, u64, u64) {
        let delta = |now: u64, then: u64| if now >= then { now - then } else { now };
        self.disk_io
            .iter()
            .zip(&earlier.disk_io)
            .fold((0, 0, 0), |acc, (n, t)| {
                (
                    acc.0 + delta(n.0, t.0),
                    acc.1 + delta(n.1, t.1),
                    acc.2 + delta(n.2, t.2),
                )
            })
    }

    pub fn take(c: &BladeCluster, at: SimTime) -> ClusterSnap {
        let farm = &c.farm;
        ClusterSnap {
            at,
            stats: c.stats.clone(),
            cache: c.cache.stats().clone(),
            lookups: c.cache.directory().shard_lookups().to_vec(),
            extents: c.pool_used_extents(),
            disk_io: (0..farm.len())
                .map(|d| farm.disk(DiskId(d)))
                .map(|d| (d.reads() + d.writes(), d.bytes_read(), d.bytes_written()))
                .collect(),
            disk_busy_s: disk_busy_s(c, at),
        }
    }
}

/// User bytes of the measured phase that a cluster's layer ratios divide by.
#[derive(Clone, Copy, Debug, Default)]
pub struct UserBytes {
    pub written: u64,
    pub writes: u64,
}

/// Per-layer metrics of one cluster over `[s0.at, until]`.
pub fn cluster_layers(
    c: &BladeCluster,
    s0: &ClusterSnap,
    until: SimTime,
    user: UserBytes,
    l: &mut Layers,
) {
    let s1 = ClusterSnap::take(c, until);
    let (a, b) = (&s0.stats, &s1.stats);
    let local = b.reads_from_local_cache - a.reads_from_local_cache;
    let remote = b.reads_from_remote_cache - a.reads_from_remote_cache;
    let disk = b.reads_from_disk - a.reads_from_disk;
    let pf_hits = b.prefetch_hits - a.prefetch_hits;
    let pf_issued = b.prefetches_issued - a.prefetches_issued;
    let served = local + remote + disk + pf_hits;
    l.add_ratio("core.reads_local_frac", local, served);
    l.add_ratio("core.reads_remote_frac", remote, served);
    l.add_ratio("core.reads_disk_frac", disk, served);
    l.add("core.prefetch_issued", pf_issued as f64);
    l.add_ratio("core.prefetch_hit_ratio", pf_hits, pf_issued);
    l.add(
        "core.writes_refused_readonly",
        (b.writes_refused_readonly - a.writes_refused_readonly) as f64,
    );
    l.add(
        "core.writes_downgraded",
        (b.writes_downgraded - a.writes_downgraded) as f64,
    );
    l.add(
        "security.pages_ciphered",
        (b.pages_ciphered - a.pages_ciphered) as f64,
    );
    l.add(
        "security.pages_deciphered",
        (b.pages_deciphered - a.pages_deciphered) as f64,
    );

    // CPU balance through the ys-obs collector (whole simulated history).
    let mut reg = ys_obs::MetricsRegistry::new();
    ys_obs::collect_cluster(&mut reg, c, until);
    let cpu_max = (0..c.config().blades as u32)
        .filter_map(|bl| reg.gauge_value(&ys_obs::MetricKey::scoped("core", bl, "cpu_util")))
        .fold(0.0, f64::max);
    l.max("core.cpu_util_max", cpu_max);
    l.max(
        "core.cpu_imbalance",
        reg.gauge_value(&ys_obs::MetricKey::aggregate("core", "cpu_imbalance"))
            .unwrap_or(0.0),
    );

    let (ca, cb) = (&s0.cache, &s1.cache);
    let hits = (cb.local_hits - ca.local_hits) + (cb.remote_hits - ca.remote_hits);
    l.add_ratio("cache.hit_ratio", hits, hits + cb.misses - ca.misses);
    l.add(
        "cache.invalidations",
        (cb.invalidations - ca.invalidations) as f64,
    );
    l.add(
        "cache.replica_placements",
        (cb.replica_placements - ca.replica_placements) as f64,
    );
    l.add("cache.evictions", (cb.evictions - ca.evictions) as f64);
    l.add("cache.destages", (cb.destages - ca.destages) as f64);
    let shard: Vec<u64> = s1
        .lookups
        .iter()
        .zip(&s0.lookups)
        .map(|(x, y)| x - y)
        .collect();
    let total: u64 = shard.iter().sum();
    l.add("cache.directory_lookups", total as f64);
    if total > 0 {
        let mean = total as f64 / shard.len() as f64;
        l.max(
            "cache.directory_shard_imbalance",
            *shard.iter().max().unwrap_or(&0) as f64 / mean,
        );
    }

    let extents = s1.extents - s0.extents;
    l.add("virt.extents_allocated", extents as f64);
    l.add_ratio("virt.allocs_per_write", extents, user.writes);

    let (ops, read_bytes, write_bytes) = s1.disk_io_since(s0);
    l.add_ratio("raid.disk_write_amp", write_bytes, user.written);
    l.add_ratio(
        "raid.disk_read_amp",
        read_bytes,
        disk * c.config().page_bytes,
    );

    let span = until.since(s0.at).as_secs_f64().max(f64::MIN_POSITIVE);
    let utils: Vec<f64> = s1
        .disk_busy_s
        .iter()
        .zip(&s0.disk_busy_s)
        .map(|(x, y)| ((x - y) / span).min(1.0))
        .collect();
    l.max(
        "simdisk.util_max",
        utils.iter().cloned().fold(0.0, f64::max),
    );
    l.add_ratio_f("simdisk.util_mean", utils.iter().sum(), utils.len() as f64);
    l.add("simdisk.ops", ops as f64);
    l.add_ratio("simdisk.bytes_per_op", read_bytes + write_bytes, ops);
    l.max(
        "simnet.disk_fc_util_max",
        c.disk_link_utilizations(until)
            .into_iter()
            .fold(0.0, f64::max),
    );
}

/// A cluster's final simulated state for the fingerprint.
pub fn cluster_state(c: &BladeCluster, out: &mut Vec<u64>) {
    let s = &c.stats;
    out.extend([
        s.read_latency.count(),
        s.write_latency.count(),
        s.read_meter.bytes(),
        s.write_meter.bytes(),
        s.reads_from_local_cache,
        s.reads_from_remote_cache,
        s.reads_from_disk,
        s.prefetches_issued,
        s.prefetch_hits,
        s.dirty_pages_lost,
        s.dirty_pages_promoted,
        s.integrity_errors,
        s.pages_ciphered,
        s.pages_deciphered,
        s.heal_replicas_placed,
        s.writes_refused_readonly,
        s.writes_downgraded,
        c.pool_used_bytes(),
    ]);
    let cs = c.cache.stats();
    out.extend([
        cs.local_hits,
        cs.remote_hits,
        cs.misses,
        cs.invalidations,
        cs.evictions,
        cs.destages,
        cs.replica_placements,
    ]);
    out.extend(c.cache.directory().shard_lookups().iter().copied());
    for d in 0..c.farm.len() {
        let disk = c.farm.disk(DiskId(d));
        out.extend([
            disk.reads(),
            disk.writes(),
            disk.bytes_read(),
            disk.bytes_written(),
            disk.next_free().nanos(),
        ]);
    }
    for (msgs, bytes) in c.disk_link_traffic() {
        out.extend([msgs, bytes]);
    }
}

/// Read back every page in `pages` of `vol` after the drain: the read must
/// succeed through the public API, and the media bytes must decipher to the
/// page's plaintext. Pages whose media sat on `rebuilt` (a replaced disk the
/// rebuild re-created without the data-plane tag) may carry no tag.
pub fn read_back(
    c: &mut BladeCluster,
    vol: VolumeId,
    pages: impl Iterator<Item = u64>,
    at: SimTime,
    rebuilt: Option<DiskId>,
    failures: &mut Vec<String>,
) {
    let pb = c.config().page_bytes;
    let at_rest = c.config().encryption.at_rest;
    let key = c.volume_key(vol);
    let mut bad = 0u64;
    let mut fail = |what: String| {
        bad += 1;
        if bad <= 3 {
            failures.push(format!("volume {} {what}", vol.0));
        }
    };
    for page in pages {
        if let Err(e) = c.read(at, 0, vol, page * pb, pb) {
            fail(format!("page {page}: read-back failed: {e}"));
            continue;
        }
        let Some((disk, _)) = c.locate_volume_page(vol, page) else {
            fail(format!("page {page}: acknowledged but unmapped"));
            continue;
        };
        match c.media_tag(vol, page) {
            Some(mut tag) => {
                if at_rest {
                    ys_security::ctr_xor(&key, page, 0, &mut tag);
                }
                if tag != BladeCluster::plaintext_page_tag(vol, page) {
                    fail(format!("page {page}: media bytes do not decipher"));
                }
            }
            None if Some(disk) == rebuilt => {}
            None => fail(format!("page {page}: acknowledged but no media bytes")),
        }
    }
    if bad > 3 {
        failures.push(format!("volume {}: {bad} pages failed read-back", vol.0));
    }
}

/// The invariant checks every cluster must pass after the run.
pub fn check_cluster(c: &BladeCluster, site: &str, failures: &mut Vec<String>) {
    if c.stats.dirty_pages_lost != 0 {
        failures.push(format!(
            "{site}: dirty_pages_lost = {}",
            c.stats.dirty_pages_lost
        ));
    }
    if c.stats.integrity_errors != 0 {
        failures.push(format!(
            "{site}: integrity_errors = {}",
            c.stats.integrity_errors
        ));
    }
    for v in c.cache.audit_invariants() {
        failures.push(format!("{site}: cache invariant: {v:?}"));
    }
}

/// Total dirty copies every workload's writes ask for.
pub const COPIES: usize = 2;

/// Issue `op` on `vol` for `client` at `now` (through QoS admission as
/// `tenant` when given) inside a `core.read`/`core.write` span, and record
/// the outcome. Returns the completion of an acknowledged operation; QoS
/// sheds and read-only refusals count as refused, anything else is an error.
#[allow(clippy::too_many_arguments)] // who, what, where and when of one op
pub fn issue(
    ctx: &mut Ctx,
    c: &mut BladeCluster,
    tenant: Option<u32>,
    id: u64,
    client: usize,
    vol: VolumeId,
    now: SimTime,
    op: Op,
) -> Option<SimTime> {
    let (off, len) = (op.offset, op.len);
    let r = match (op.kind, tenant) {
        (Kind::Read, None) => ctx
            .spans
            .call("core.read", id, || c.read(now, client, vol, off, len)),
        (Kind::Read, Some(t)) => ctx
            .spans
            .call("core.read", id, || c.read_as(now, t, client, vol, off, len)),
        (Kind::Write, None) => ctx.spans.call("core.write", id, || {
            c.write(now, client, vol, off, len, COPIES, Retention::Normal)
        }),
        (Kind::Write, Some(t)) => ctx.spans.call("core.write", id, || {
            c.write_as(now, t, client, vol, off, len, COPIES, Retention::Normal)
        }),
    };
    match r {
        Ok(done) => {
            ctx.rec.ok(id, op.kind, now, done.done, len);
            Some(done.done)
        }
        Err(ClusterError::QosShed { .. } | ClusterError::ReadOnly) => {
            ctx.rec.refused(id, now);
            None
        }
        Err(e) => {
            ctx.rec.error(id, now, e);
            None
        }
    }
}

/// In the traced run, drain the program's span rings (`take`) into the
/// aggregate every [`TRACE_DRAIN_EVERY`] operations.
pub fn drain_rings(
    ctx: &mut Ctx,
    op: u64,
    source: &'static str,
    take: impl FnOnce() -> (Vec<SpanEvent>, u64),
) {
    if let Some(sim) = ctx.sim.as_mut() {
        if op.is_multiple_of(TRACE_DRAIN_EVERY) {
            sim.absorb(source, take());
        }
    }
}

pub const PREFILL_DRAIN_EVERY: u64 = 1024;

/// Write pages `0..pages` of `vol` [`COPIES`]-way, one after another from rotating
/// clients, draining write-back every [`PREFILL_DRAIN_EVERY`] pages so the
/// prefill never stalls on a cache full of dirty pages. Returns the warm
/// start: when the last write and its destage are done.
pub fn prefill(c: &mut BladeCluster, vol: VolumeId, pages: u64, spans: &mut Spans) -> SimTime {
    let pb = c.config().page_bytes;
    let clients = c.config().clients as u64;
    let mut t = SimTime::ZERO;
    for p in 0..pages {
        let w = c.write(
            t,
            (p % clients) as usize,
            vol,
            p * pb,
            pb,
            COPIES,
            Retention::Normal,
        );
        t = w.expect("prefill write").done;
        if p % PREFILL_DRAIN_EVERY == PREFILL_DRAIN_EVERY - 1 {
            t = t.max(c.drain());
        }
    }
    t.max(spans.call("core.drain", NO_OP, || c.drain()))
}

/// Bitmap of written pages.
#[derive(Clone, Debug, Default)]
pub struct PageSet {
    bits: Vec<u64>,
}

impl PageSet {
    pub fn insert(&mut self, page: u64) {
        let w = (page / 64) as usize;
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        self.bits[w] |= 1 << (page % 64);
    }

    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| w as u64 * 64 + b)
        })
    }

    pub fn count(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }
}
