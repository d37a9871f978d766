//! The experiment suite: one function per figure/claim in the paper, each
//! returning a [`RunReport`]: the labelled series `ys-report` prints and
//! EXPERIMENTS.md records, the paper-claim checkpoints asserted on those
//! same runs, and the metrics registry and trace the runs produced.
//!
//! Every experiment is deterministic: `(config, seed)` fully determines the
//! output. Sizes are chosen so the whole suite runs in seconds of wall
//! time while exercising thousands-to-millions of simulated operations.

use crate::driver::closed_loop;
use crate::{ablations, scenarios};
use ys_cache::Retention;
use ys_core::{
    deliver_stream_traced, run_service, BladeCluster, BlockTarget, ClusterConfig, EncryptionConfig,
    FastPathConfig, LegacyArray, LegacyConfig, LoadBalance, NetStorage, NetStorageConfig, Rebuilder,
    ServiceJob,
};
use ys_geo::{SiteId, SiteTopology};
use ys_obs::report::{f2, f3};
use ys_obs::{
    collect_cache, collect_cluster, collect_geo, record_trace_drops, Checkpoint, MetricKey, MetricsRegistry,
    RunReport,
};
use ys_pfs::{FilePolicy, GeoMode, GeoPolicy};
use ys_proto::{block, BlockCmd, BlockStatus, Workload};
use ys_security::{InitiatorId, PortZone};
use ys_simcore::stats::{Counter, Series};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simdisk::DiskId;
use ys_simnet::catalog;
use ys_virt::{PhysicalPool, VolumeKind, VolumeManager};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

/// Ring capacity of every traced run (per subsystem ring).
pub const TRACE_CAPACITY: usize = 8192;

/// E1 / Figure 1 — single-stream rate vs striping blade count.
///
/// Paper claim: 4 blades × 2 × 2 Gb/s FC feed a ~10 Gb/s stream through a
/// common PCI-X bus and 10 GbE port. The 4-blade headline run is traced
/// per FC port; tracing never changes the simulated timings.
pub fn e1_striping() -> RunReport {
    let mut rate = Series::new("E1 stream rate (Gb/s) vs blades");
    let mut bus = Series::new("E1 PCI-X bus utilization vs blades");
    let mut reg = MetricsRegistry::new();
    let mut port_util = 0.0;
    let mut events = Vec::new();
    let mut dropped = 0;
    for blades in 1..=8usize {
        let cfg = FastPathConfig { blades, ..FastPathConfig::default() };
        let capacity = if blades == 4 { TRACE_CAPACITY } else { 0 };
        let (r, ev, d) = deliver_stream_traced(&cfg, GB, capacity);
        rate.push(blades as f64, r.gbit_per_sec);
        bus.push(blades as f64, r.bus_utilization);
        reg.gauge(MetricKey::aggregate("fastpath", &format!("gbps_{blades}_blades")), r.gbit_per_sec);
        if blades == 4 {
            reg.gauge(MetricKey::aggregate("fastpath", "bus_util"), r.bus_utilization);
            reg.gauge(MetricKey::aggregate("fastpath", "port_util"), r.port_utilization);
            port_util = r.port_utilization;
            (events, dropped) = (ev, d);
        }
    }
    // Per-blade FC feed straight from the trace: lane 2b+p is blade b port p.
    let ports = FastPathConfig::default().fc_ports_per_blade as u32;
    for b in 0..4u32 {
        let (n, bytes) = events
            .iter()
            .filter(|e| e.lane < 1000 && e.lane / ports == b)
            .fold((0, 0), |(n, bytes), e| (n + 1, bytes + e.a));
        *reg.counter(MetricKey::scoped("fastpath", b, "fc_io")) = Counter::of(n, bytes);
    }
    record_trace_drops(&mut reg, "fastpath", dropped);

    let gbps = |blades: usize| rate.points[blades - 1].1;
    let checkpoints = vec![
        Checkpoint {
            claim: "§2.3/§8: four blades over two FC ports each sustain ~10 Gb/s",
            metric: "fastpath.gbps_4_blades".into(),
            observed: f2(gbps(4)),
            target: "> 9.0".into(),
            pass: gbps(4) > 9.0,
        },
        Checkpoint {
            claim: "§2.3: striping scales — two blades nearly double one",
            metric: "fastpath.gbps_2_blades / gbps_1_blades".into(),
            observed: f2(gbps(2) / gbps(1)),
            target: "> 1.8".into(),
            pass: gbps(2) / gbps(1) > 1.8,
        },
        Checkpoint {
            claim: "§2.3: the 10 GbE port is the saturated stage at 4 blades",
            metric: "fastpath.port_util".into(),
            observed: f3(port_util),
            target: "> 0.9".into(),
            pass: port_util > 0.9,
        },
    ];
    RunReport { series: vec![rate, bus], checkpoints, registry: reg, events, dropped, ..RunReport::default() }
}

/// E2 / Figure 2 — the secure multi-tenant pool: zoning + LUN-mask
/// isolation on real frames, plus the throughput cost of each optional
/// security layer.
pub fn e2_secure_pool() -> RunReport {
    // Isolation: two tenants share one ciphered pool behind a zoned block
    // target. The operator zones one host port per tenant, the disk-side
    // bridge, and a management port; each tenant is granted only its own LUN.
    const IO_SECTORS: u32 = 128; // 64 KiB per frame
    const ATTEMPTS: u64 = 100;
    let mut c = BladeCluster::new(
        ClusterConfig::default()
            .with_blades(4)
            .with_disks(8)
            .with_clients(4)
            .with_encryption(EncryptionConfig::full_hw()),
    );
    let vol_a = c.create_volume("alice", 1, GB).unwrap();
    let vol_b = c.create_volume("bob", 2, GB).unwrap();
    let mut target = BlockTarget::new(2, 8);
    target.mask.set_zone(0, PortZone::HostSide);
    target.mask.set_zone(1, PortZone::HostSide);
    target.mask.set_zone(8, PortZone::DiskSide);
    target.mask.set_zone(9, PortZone::Management);
    let (alice, bob) = (InitiatorId(1), InitiatorId(2));
    target.mask.grant(alice, vol_a);
    target.mask.grant(bob, vol_b);

    // The tenants alternate: each writes its own LUN, then probes the
    // other's — a read, a write, or a frame smuggled onto the trusted
    // disk-side fabric (a breach even for its own LUN).
    let mut t = SimTime::ZERO;
    let mut own_ok = 0u64;
    let mut denied = 0u64;
    for i in 0..ATTEMPTS {
        let (who, port, own, other) = if i % 2 == 0 { (alice, 0, vol_a, vol_b) } else { (bob, 1, vol_b, vol_a) };
        let lba = (i / 2) * IO_SECTORS as u64;
        let w = target.handle(
            &mut c,
            who,
            port,
            port,
            t,
            block::encode(&BlockCmd::Write { lun: own.0, lba, sectors: IO_SECTORS }),
        );
        own_ok += (w.status == BlockStatus::Good) as u64;
        t = w.done;
        let (p, probe) = match (i / 2) % 3 {
            0 => (port, BlockCmd::Read { lun: other.0, lba, sectors: IO_SECTORS }),
            1 => (port, BlockCmd::Write { lun: other.0, lba, sectors: IO_SECTORS }),
            _ => (8, BlockCmd::Read { lun: own.0, lba, sectors: IO_SECTORS }),
        };
        if target.handle(&mut c, who, port, p, t, block::encode(&probe)).status == BlockStatus::AccessDenied {
            denied += 1;
        }
    }
    let mut isolation = Series::new("E2 cross-tenant accesses denied (of 100 attempts)");
    isolation.push(ATTEMPTS as f64, denied as f64);
    let luns_a = target.report_luns(alice);
    let luns_b = target.report_luns(bob);
    let audited = target.audit.violations().count() as u64;

    // §5.1's warranty-return scenario: destage everything, then look at
    // the raw media bytes a removed disk would disclose.
    c.drain();
    let plain = BladeCluster::plaintext_page_tag(vol_a, 0);
    let media = c.media_tag(vol_a, 0).unwrap();
    let mut dec = media;
    ys_security::ctr_xor(&c.volume_key(vol_a), 0, 0, &mut dec);
    let ciphered_at_rest = media != plain && dec == plain;

    let mut reg = MetricsRegistry::new();
    collect_cluster(&mut reg, &c, t);
    reg.gauge(MetricKey::aggregate("security", "own_io_ok"), own_ok as f64);
    reg.gauge(MetricKey::aggregate("security", "cross_tenant_attempts"), ATTEMPTS as f64);
    reg.gauge(MetricKey::aggregate("security", "cross_tenant_denied"), denied as f64);
    reg.gauge(MetricKey::aggregate("security", "denials_audited"), audited as f64);
    reg.gauge(MetricKey::aggregate("security", "pages_ciphered"), c.stats.pages_ciphered as f64);
    let checkpoints = vec![
        Checkpoint {
            claim: "§5: no cross-tenant frame ever succeeds — mask and zones fail closed",
            metric: "security.cross_tenant_denied".into(),
            observed: format!("{denied}/{ATTEMPTS}"),
            target: format!("== {ATTEMPTS}"),
            pass: denied == ATTEMPTS,
        },
        Checkpoint {
            claim: "§5.2: ReportLuns hides the other tenant's volume existence",
            metric: "report_luns(A), report_luns(B)".into(),
            observed: format!("{luns_a:?}, {luns_b:?}"),
            target: "own volume only".into(),
            pass: luns_a == vec![vol_a] && luns_b == vec![vol_b],
        },
        Checkpoint {
            claim: "§5.2: every denial is in the audit trail",
            metric: "security.denials_audited".into(),
            observed: audited.to_string(),
            target: format!("== {}", target.stats.denied),
            pass: audited == target.stats.denied && audited == denied,
        },
        Checkpoint {
            claim: "§5.1: media bytes are ciphertext; only the volume key recovers them",
            metric: "media_tag(vol_a, 0)".into(),
            observed: if ciphered_at_rest { "ciphered, round-trips".into() } else { "PLAINTEXT".to_string() },
            target: "!= plaintext, deciphers back".into(),
            pass: ciphered_at_rest,
        },
    ];

    // Throughput under security layers: multi-tenant 64 KiB mixed I/O.
    let mut tput = Series::new("E2 throughput (MB/s): 0=off 1=mask+auth 2=at-rest(hw) 3=full(hw) 4=full(sw)");
    let configs = [
        EncryptionConfig::off(),
        EncryptionConfig::off(), // mask+auth cost is control-path only
        EncryptionConfig { at_rest: true, in_transit: false, hardware_assist: true },
        EncryptionConfig::full_hw(),
        EncryptionConfig::full_sw(),
    ];
    for (i, enc) in configs.iter().enumerate() {
        let mut c = BladeCluster::new(
            ClusterConfig::default().with_blades(4).with_disks(16).with_clients(8).with_encryption(*enc),
        );
        let v0 = c.create_volume("alice", 1, 4 * GB).unwrap();
        let v1 = c.create_volume("bob", 2, 4 * GB).unwrap();
        let mut wl = Workload::random(512 * MB, 64 * KB, 0.5, 42);
        let r = closed_loop(8, 400, |client, now| {
            let op = wl.next_op();
            let vol = if client % 2 == 0 { v0 } else { v1 };
            let done = if op.write {
                c.write(now, client, vol, op.offset, op.len, 2, Retention::Normal).unwrap().done
            } else {
                c.read(now, client, vol, op.offset, op.len).unwrap().done
            };
            (done, op.len)
        });
        tput.push(i as f64, r.mb_per_sec());
    }
    RunReport { series: vec![isolation, tput], checkpoints, registry: reg, ..RunReport::default() }
}

/// E3 / Figure 3 — the three-site national-lab deployment with per-tier
/// file policies: write latency per tier and async RPO behaviour.
pub fn e3_geo_deploy() -> RunReport {
    let mut ns = NetStorage::new(NetStorageConfig {
        site_cluster: ClusterConfig::default().with_blades(4).with_disks(8).with_clients(4),
        ..NetStorageConfig::default()
    });
    let home = SiteId(0);
    // Tier policies: metro sync, continental sync (min distance), async far, none.
    let tiers: Vec<(&str, FilePolicy)> = vec![
        ("local-only", FilePolicy { geo: GeoPolicy::none(), ..FilePolicy::default() }),
        ("sync-metro", FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() }),
        ("sync-continental", FilePolicy {
            geo: GeoPolicy {
                mode: GeoMode::Synchronous,
                site_copies: 2,
                min_distance_km: 500.0,
                preferred_sites: vec![],
            },
            ..FilePolicy::default()
        }),
        ("async-far", FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() }),
    ];
    let mut lat = Series::new("E3 write latency (ms) per tier: 0=local 1=sync-metro 2=sync-continental 3=async");
    let mut t = SimTime::ZERO;
    for (i, (name, pol)) in tiers.iter().enumerate() {
        let path = format!("/{name}");
        ns.create_file(&path, pol.clone(), home).unwrap();
        let mut total = SimDuration::ZERO;
        let n = 20u64;
        for k in 0..n {
            let w = ns.write_file(t, home, 0, &path, k * 256 * KB, 256 * KB).unwrap();
            total += w.latency;
            t = w.done;
        }
        lat.push(i as f64, total.as_millis_f64() / n as f64);
    }
    // Async backlog drains once shipped.
    let mut backlog = Series::new("E3 async backlog (writes) before/after shipping");
    let before = ns.async_backlog(home, SiteId(1)).0 + ns.async_backlog(home, SiteId(2)).0;
    backlog.push(0.0, before as f64);
    ns.ship_async(t, u64::MAX).unwrap();
    let after = ns.async_backlog(home, SiteId(1)).0 + ns.async_backlog(home, SiteId(2)).0;
    backlog.push(1.0, after as f64);
    let mut reg = MetricsRegistry::new();
    collect_geo(&mut reg, &ns);
    RunReport { series: vec![lat, backlog], registry: reg, ..RunReport::default() }
}

/// E4 — aggregate throughput vs blade count on a shared, unpartitioned
/// volume (§2.1), with the dual-controller legacy array as the baseline.
pub fn e4_scaling() -> RunReport {
    let clients = 32usize;
    let working_set = 128 * MB; // hot set: fits even one blade's cache
    let io = 64 * KB;
    let mut tput = Series::new("E4 aggregate read MB/s vs blades (shared volume, no partitioning)");
    let mut reg = MetricsRegistry::new();
    for blades in [1usize, 2, 4, 8, 12, 16] {
        let mut c = BladeCluster::new(
            ClusterConfig::default().with_blades(blades).with_disks(16).with_clients(clients),
        );
        let vol = c.create_volume("shared", 0, 4 * GB).unwrap();
        // Warm the working set.
        let mut t = SimTime::ZERO;
        for off in (0..working_set).step_by(io as usize) {
            t = c.write(t, 0, vol, off, io, 1, Retention::Normal).unwrap().done;
        }
        let t_warm = c.drain().max(t);
        let mut wl = Workload::random(working_set, io, 0.0, 7);
        let r = closed_loop(clients, 300, |client, now| {
            let op = wl.next_op();
            let done = c.read(t_warm + now.since(SimTime::ZERO), client, vol, op.offset, op.len).unwrap().done;
            (SimTime(done.nanos() - t_warm.nanos()), op.len)
        });
        tput.push(blades as f64, r.mb_per_sec());
        if blades == 16 {
            collect_cluster(&mut reg, &c, t_warm + r.makespan);
        }
    }
    // Legacy baseline: the best a traditional array offers is 2 controllers.
    let mut legacy = Series::new("E4 baseline: legacy dual-controller MB/s (flat)");
    for controllers in [1usize, 2] {
        let mut a = LegacyArray::new(LegacyConfig { controllers, ..LegacyConfig::default() });
        let mut t = SimTime::ZERO;
        for off in (0..working_set).step_by(io as usize) {
            a.write(t, 0, off, io);
            t = SimTime(t.nanos() + 1_000_000);
        }
        let mut wl = Workload::random(working_set, io, 0.0, 7);
        let base = t;
        let r = closed_loop(clients, 300, |_client, now| {
            let op = wl.next_op();
            let lat = a.read(base + now.since(SimTime::ZERO), 0, op.offset, op.len).unwrap();
            (now + lat, op.len)
        });
        legacy.push(controllers as f64, r.mb_per_sec());
    }
    RunReport { series: vec![tput, legacy], registry: reg, ..RunReport::default() }
}

/// E5 — hot-spot behaviour under Zipf skew: the pooled coherent cache with
/// load balancing vs volume-pinned controllers (§2.2, §6.3).
///
/// The comparison runs pre-warm every volume, so their caches hit by
/// construction; the §2.2 hit-ratio claim is measured on a separate cold
/// Zipf run (traced) where the cache has to earn its hits.
pub fn e5_hotspot() -> RunReport {
    let volumes = 8usize;
    let clients = 16usize;
    let io = 64 * KB;
    let per_vol = 64 * MB;
    let mut tput = Series::new("E5 MB/s: 0=pooled(RR) 1=pooled(affinity) 2=pinned-by-volume");
    let mut spread = Series::new("E5 blade utilization max/mean ratio (hot-spot indicator)");
    let mut p99s = Series::new("E5 read p99 (ms)");
    let mut dir_series: Option<Series> = None;
    for (i, lb) in [LoadBalance::RoundRobin, LoadBalance::PageAffinity, LoadBalance::PinnedByVolume]
        .into_iter()
        .enumerate()
    {
        let mut c = BladeCluster::new(
            ClusterConfig::default()
                .with_blades(8)
                .with_disks(16)
                .with_clients(clients)
                .with_load_balance(lb),
        );
        let vols: Vec<_> = (0..volumes).map(|v| c.create_volume(&format!("v{v}"), 0, GB).unwrap()).collect();
        // Warm all volumes.
        let mut t = SimTime::ZERO;
        for &v in &vols {
            for off in (0..per_vol).step_by(io as usize) {
                t = c.write(t, 0, v, off, io, 1, Retention::Normal).unwrap().done;
            }
        }
        let t_warm = c.drain().max(t);
        // Zipf volume popularity: volume 0 is scorching.
        let zipf = ys_simcore::Zipf::new(volumes, 1.1);
        let mut rng = ys_simcore::Rng::new(99);
        let mut off_wl = Workload::random(per_vol, io, 0.0, 5);
        let r = closed_loop(clients, 250, |client, now| {
            let v = vols[zipf.sample(&mut rng)];
            let op = off_wl.next_op();
            let shifted = SimTime(t_warm.nanos() + now.nanos());
            let done = c.read(shifted, client, v, op.offset, op.len).unwrap().done;
            (SimTime(done.nanos() - t_warm.nanos()), op.len)
        });
        tput.push(i as f64, r.mb_per_sec());
        let until = SimTime(t_warm.nanos() + r.makespan.nanos());
        let utils = c.blade_utilizations(until);
        let max = utils.iter().cloned().fold(0.0, f64::max);
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        spread.push(i as f64, if mean > 0.0 { max / mean } else { 0.0 });
        p99s.push(i as f64, c.stats.read_latency.p99().as_millis_f64());
        if i == 0 {
            // Directory-shard load (§2.2: the coherence directory itself is
            // hash-sharded across blades so metadata work scales too).
            let lookups = c.cache.directory().shard_lookups().to_vec();
            let max = *lookups.iter().max().unwrap_or(&0) as f64;
            let mean = lookups.iter().sum::<u64>() as f64 / lookups.len().max(1) as f64;
            let mut dir = Series::new("E5 coherence-directory shard load max/mean (pooled RR)");
            dir.push(0.0, if mean > 0.0 { max / mean } else { 0.0 });
            dir_series = Some(dir);
        }
    }
    let (pooled_imb, pinned_imb) = (spread.points[0].1, spread.points[2].1);
    let mut series = vec![tput, spread, p99s];
    if let Some(d) = dir_series {
        series.push(d);
    }

    // The cold run: Zipf(1.1) over 2 GiB with 30% writes, nothing warmed.
    let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
    c.enable_tracing(TRACE_CAPACITY);
    let vol = c.create_volume("hot", 0, 4 * GB).unwrap();
    let mut wl = Workload::zipf(2 * GB, io, 1.1, 0.3, 42);
    let mut t = SimTime::ZERO;
    for i in 0..2500 {
        let op = wl.next_op();
        let client = i % 8;
        t = if op.write {
            c.write(t, client, vol, op.offset, op.len, 2, Retention::Normal).unwrap().done
        } else {
            c.read(t, client, vol, op.offset, op.len).unwrap().done
        };
    }
    let (events, dropped) = c.take_trace();
    let mut reg = MetricsRegistry::new();
    collect_cache(&mut reg, c.cache.stats());
    record_trace_drops(&mut reg, "cluster", dropped);
    let hit_ratio = reg.gauge_value(&MetricKey::aggregate("cache", "hit_ratio")).unwrap_or(0.0);
    let mut cold = Series::new("E5 cold Zipf(1.1) cache hit ratio (pooled RR, 2500 ops, 30% writes, no pre-warm)");
    cold.push(0.0, hit_ratio);
    series.push(cold);

    reg.gauge(MetricKey::aggregate("core", "cpu_imbalance"), pooled_imb);
    reg.gauge(MetricKey::aggregate("core", "cpu_imbalance_pinned"), pinned_imb);
    let checkpoints = vec![
        Checkpoint {
            claim: "§2.2: hot data concentrates in the pooled cache — skewed reads mostly hit",
            metric: "cache.hit_ratio".into(),
            observed: f3(hit_ratio),
            target: "> 0.5".into(),
            pass: hit_ratio > 0.5,
        },
        Checkpoint {
            claim: "§6.3: load balancing spreads the hot spot the pinned islands concentrate",
            metric: "core.cpu_imbalance (pooled vs pinned)".into(),
            observed: format!("{} vs {}", f2(pooled_imb), f2(pinned_imb)),
            target: "pooled < pinned".into(),
            pass: pooled_imb < pinned_imb,
        },
    ];
    RunReport { series, checkpoints, registry: reg, events, dropped, ..RunReport::default() }
}

/// E6 — DMSD thin provisioning vs fixed partitions (§3).
pub fn e6_dmsd() -> RunReport {
    let extent = MB;
    let pool_extents = 1024 * 1024; // 1 TiB pool
    let volumes = 100usize;
    let provisioned_each = 50 * 1024; // 50 GiB provisioned per volume (5x overcommit)
    let mut rng = ys_simcore::Rng::new(2002);

    let mut m = VolumeManager::new(PhysicalPool::new(pool_extents, extent));
    let mut fixed_demand = 0u64;
    let mut actual_total = 0u64;
    for v in 0..volumes {
        let id = m.create(format!("proj{v}"), v as u32, VolumeKind::DemandMapped, provisioned_each).unwrap();
        // Log-normal utilization, clamped: most projects use a few %, some
        // use a lot.
        let frac = (rng.lognormal(-3.5, 1.0)).min(0.9);
        let used = ((provisioned_each as f64) * frac) as u64;
        if used > 0 {
            m.write(id, 0, used).unwrap();
        }
        actual_total += used;
        fixed_demand += provisioned_each;
    }
    let mut usage = Series::new("E6 pool extents: 0=fixed-provisioning demand 1=DMSD actual 2=pool size");
    usage.push(0.0, fixed_demand as f64);
    usage.push(1.0, m.pool().used_extents() as f64);
    usage.push(2.0, pool_extents as f64);

    // Charge-back accuracy: billed == actually consumed.
    let lines = m.chargeback();
    let billed: u64 = lines.iter().map(|l| l.actual_bytes).sum();
    let consumed = actual_total * extent;
    let billed_ratio = billed as f64 / consumed.max(1) as f64;
    let mut cb = Series::new("E6 chargeback: billed bytes / consumed bytes (must be 1.0)");
    cb.push(0.0, billed_ratio);

    // Space reclamation: unmap half of each volume's data.
    let used_before = m.pool().used_extents();
    let vol_ids: Vec<_> = m.volumes().map(|v| v.id).collect();
    for id in vol_ids {
        let mapped = m.volume(id).unwrap().mapped_extents();
        if mapped > 1 {
            m.unmap(id, 0, mapped / 2).unwrap();
        }
    }
    let mut reclaim = Series::new("E6 pool extents before/after unmapping half");
    reclaim.push(0.0, used_before as f64);
    reclaim.push(1.0, m.pool().used_extents() as f64);
    assert_eq!(actual_total, fixed_demand.min(actual_total)); // sanity

    let mut reg = MetricsRegistry::new();
    let extents = |n: u64| Counter::of(n, n * extent);
    *reg.counter(MetricKey::aggregate("virt", "pool_used_extents")) = extents(used_before);
    *reg.counter(MetricKey::aggregate("virt", "provisioned_extents")) = extents(fixed_demand);
    *reg.counter(MetricKey::aggregate("virt", "billed_bytes")) = Counter::of(lines.len() as u64, billed);
    reg.gauge(MetricKey::aggregate("virt", "pool_used_after_unmap"), m.pool().used_extents() as f64);
    let checkpoints = vec![Checkpoint {
        claim: "§3: charge-back bills exactly the extents each DMSD consumes",
        metric: "virt.billed_bytes / consumed bytes".into(),
        observed: format!("{billed_ratio:.4}"),
        target: "== 1.0".into(),
        pass: billed == consumed && consumed > 0,
    }];
    RunReport { series: vec![usage, cb, reclaim], checkpoints, registry: reg, ..RunReport::default() }
}

/// E7 — N-way write replication: latency cost vs N, and survival of N−1
/// blade failures (§6.1).
///
/// The N = 3 run is traced and feeds the registry.
pub fn e7_nway() -> RunReport {
    let mut lat = Series::new("E7 mean write latency (ms) vs replication N");
    let mut survival = Series::new("E7 dirty pages lost after N-1 blade failures (must be 0)");
    let mut reg = MetricsRegistry::new();
    let (mut events, mut dropped) = (Vec::new(), 0);
    let (mut lost3, mut promoted3) = (0, 0);
    for n in 1..=4usize {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(6).with_disks(12));
        if n == 3 {
            c.enable_tracing(TRACE_CAPACITY);
        }
        let vol = c.create_volume("t", 0, 4 * GB).unwrap();
        let mut t = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        let ops = 100u64;
        for i in 0..ops {
            let w = c.write(t, 0, vol, i * 64 * KB, 64 * KB, n, Retention::Normal).unwrap();
            total += w.latency;
            t = w.done;
        }
        lat.push(n as f64, total.as_millis_f64() / ops as f64);
        // Kill N−1 blades while the cache is still dirty.
        let mut lost = 0usize;
        let mut promoted = 0usize;
        for b in 0..n.saturating_sub(1) {
            let report = c.fail_blade(t, b);
            lost += report.lost.len();
            promoted += report.promoted.len();
        }
        survival.push(n as f64, lost as f64);
        if n == 3 {
            (lost3, promoted3) = (lost, promoted);
            collect_cluster(&mut reg, &c, t);
            (events, dropped) = c.take_trace();
            record_trace_drops(&mut reg, "cluster", dropped);
        }
    }
    // The contrast: N=1 with one failure loses data.
    let mut baseline = Series::new("E7 baseline: N=1 pages lost after 1 failure per blade");
    let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(12));
    let vol = c.create_volume("t", 0, GB).unwrap();
    let mut t = SimTime::ZERO;
    for i in 0..40u64 {
        t = c.write(t, 0, vol, i * 64 * KB, 64 * KB, 1, Retention::Normal).unwrap().done;
    }
    let mut lost = 0;
    for b in 0..4 {
        lost += c.fail_blade(t, b).lost.len();
    }
    baseline.push(1.0, lost as f64);
    reg.gauge(MetricKey::aggregate("core", "dirty_pages_lost_baseline"), lost as f64);

    let lost_any_n: f64 = survival.points.iter().map(|&(_, y)| y).sum();
    let checkpoints = vec![
        Checkpoint {
            claim: "§6.1: 3-way replicated dirty data survives 2 blade failures",
            metric: "core.dirty_pages_lost".into(),
            observed: lost3.to_string(),
            target: "== 0".into(),
            pass: lost3 == 0,
        },
        Checkpoint {
            claim: "§6.1: survivors promote replicas to owners",
            metric: "core.dirty_pages_promoted".into(),
            observed: promoted3.to_string(),
            target: "> 0".into(),
            pass: promoted3 > 0,
        },
        Checkpoint {
            claim: "§6.1 (contrast): unreplicated dirty pages die with their blade",
            metric: "baseline dirty_pages_lost".into(),
            observed: lost.to_string(),
            target: "> 0".into(),
            pass: lost > 0,
        },
        Checkpoint {
            claim: "§6.1: N-way dirty replication survives N−1 blade failures for every N",
            metric: "dirty pages lost, summed over N = 1..4".into(),
            observed: lost_any_n.to_string(),
            target: "== 0".into(),
            pass: lost_any_n == 0.0,
        },
    ];
    let series = vec![lat, survival, baseline];
    RunReport { series, checkpoints, registry: reg, events, dropped, ..RunReport::default() }
}

/// E8 — distributed rebuild: time vs participating blades, and the effect
/// of a controller dying mid-rebuild (§2.4, §6.3).
///
/// The 4-worker run is traced.
pub fn e8_rebuild() -> RunReport {
    let region = 256 * MB;
    let mut times = Series::new("E8 rebuild time (s) vs participating blades");
    let mut reg = MetricsRegistry::new();
    let mut ms = Vec::new();
    let (mut events, mut dropped) = (Vec::new(), 0);
    for workers in [1usize, 2, 4, 8] {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(8).with_disks(8));
        c.fail_disk(DiskId(3));
        let blades: Vec<usize> = (0..workers).collect();
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(3), region, &blades, 64);
        if workers == 4 {
            r.enable_tracing(TRACE_CAPACITY);
        }
        let done = r.run(&mut c).unwrap();
        times.push(workers as f64, done.as_secs_f64());
        ms.push(done.as_millis_f64());
        reg.gauge(MetricKey::aggregate("raid", &format!("rebuild_ms_{workers}_workers")), done.as_millis_f64());
        if workers == 4 {
            (events, dropped) = r.take_trace();
        }
    }
    record_trace_drops(&mut reg, "raid", dropped);
    // Worker failure mid-rebuild: completes anyway, slightly later.
    let mut failover = Series::new("E8 rebuild time (s): 0=4 workers 1=4 workers, one dies midway");
    for kill_one in [false, true] {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(8).with_disks(8));
        c.fail_disk(DiskId(3));
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(3), region, &[0, 1, 2, 3], 32);
        let mut steps = 0;
        while r.step(&mut c).unwrap() {
            steps += 1;
            if kill_one && steps == 8 {
                r.fail_worker(0);
            }
        }
        failover.push(kill_one as u64 as f64, r.finished_at().unwrap().as_secs_f64());
    }

    let (one, two, four) = (ms[0], ms[1], ms[2]);
    let checkpoints = vec![
        Checkpoint {
            claim: "§2.4: a second worker blade speeds the rebuild",
            metric: "raid.rebuild_ms_2_workers".into(),
            observed: f2(two),
            target: format!("< {}", f2(one)),
            pass: two < one,
        },
        Checkpoint {
            claim: "§2.4: beyond the disk bound, more workers never regress",
            metric: "raid.rebuild_ms_4_workers".into(),
            observed: f2(four),
            target: format!("<= {}", f2(two)),
            pass: four <= two,
        },
    ];
    let series = vec![times, failover];
    RunReport { series, checkpoints, registry: reg, events, dropped, ..RunReport::default() }
}

/// E9 — geographic replication modes: write latency vs distance for sync
/// vs async, and the loss window after a site cut (§6.2, §7.2).
///
/// The async loss-window run is traced and feeds the registry.
pub fn e9_georep() -> RunReport {
    let mut sync_lat = Series::new("E9 sync write latency (ms) vs one-way distance (km)");
    let mut async_lat = Series::new("E9 async write latency (ms) vs one-way distance (km)");
    for km in [10.0, 100.0, 500.0, 1000.0, 3000.0, 7000.0] {
        let mut topo = SiteTopology::new(&["a", "b"]);
        topo.connect(SiteId(0), SiteId(1), catalog::oc192(), km);
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
            topology: topo,
            ..NetStorageConfig::default()
        });
        let sp = FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() };
        let ap = FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() };
        ns.create_file("/sync", sp, SiteId(0)).unwrap();
        ns.create_file("/async", ap, SiteId(0)).unwrap();
        let mut t = SimTime::ZERO;
        let (mut stot, mut atot) = (SimDuration::ZERO, SimDuration::ZERO);
        let n = 20u64;
        for i in 0..n {
            let w = ns.write_file(t, SiteId(0), 0, "/sync", i * 64 * KB, 64 * KB).unwrap();
            stot += w.latency;
            t = w.done;
            let w = ns.write_file(t, SiteId(0), 0, "/async", i * 64 * KB, 64 * KB).unwrap();
            atot += w.latency;
            t = w.done;
        }
        sync_lat.push(km, stot.as_millis_f64() / n as f64);
        async_lat.push(km, atot.as_millis_f64() / n as f64);
    }
    let acks = || sync_lat.points.iter().zip(&async_lat.points).map(|(&(_, s), &(_, a))| (s, a));
    let async_first = acks().all(|(s, a)| a < s);
    // The nearest peer is where the WAN round trip is smallest.
    let (sync_near, async_near) = acks().next().unwrap_or_default();

    // Loss window: 100 async writes, ship 50, cut the site.
    let mut loss = Series::new("E9 writes lost at site cut: 0=sync 1=async(half-shipped)");
    let sync_readable = {
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
            ..NetStorageConfig::default()
        });
        let sp = FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() };
        ns.create_file("/s", sp, SiteId(0)).unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..100u64 {
            t = ns.write_file(t, SiteId(0), 0, "/s", i * 4 * KB, 4 * KB).unwrap().done;
        }
        let rep = ns.fail_site(SiteId(0));
        loss.push(0.0, rep.async_writes_lost as f64);
        ns.read_file(t, SiteId(1), 0, "/s", 0, 4 * KB).is_ok()
    };
    let mut reg = MetricsRegistry::new();
    let (unshipped, async_lost, events, dropped) = {
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
            ..NetStorageConfig::default()
        });
        ns.enable_tracing(TRACE_CAPACITY);
        let ap = FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() };
        ns.create_file("/a", ap, SiteId(0)).unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..100u64 {
            t = ns.write_file(t, SiteId(0), 0, "/a", i * 4 * KB, 4 * KB).unwrap().done;
        }
        // Ship roughly half the journal (each record is 4 KiB; two async
        // destinations share the budget round).
        ns.ship_async(t, 50 * 4 * KB).unwrap();
        let unshipped: u64 = (1..ns.clusters.len()).map(|d| ns.async_backlog(SiteId(0), SiteId(d)).0).sum();
        let rep = ns.fail_site(SiteId(0));
        loss.push(1.0, rep.async_writes_lost as f64);
        collect_geo(&mut reg, &ns);
        let (events, dropped) = ns.take_trace();
        (unshipped, rep.async_writes_lost, events, dropped)
    };
    record_trace_drops(&mut reg, "netstorage", dropped);
    reg.gauge(MetricKey::aggregate("geo", "sync_ack_ms"), sync_near);
    reg.gauge(MetricKey::aggregate("geo", "async_ack_ms"), async_near);

    // File-level vs volume-level replication network cost (§7.2: "a key
    // disadvantage of current solutions is that replication is done at a
    // volume level – every byte of data is treated the same"). Ten files,
    // two of which matter; the volume-level baseline ships everything.
    let mut traffic = Series::new("E9 WAN MB shipped: 0=file-level policies 1=volume-level (everything)");
    for (i, volume_level) in [false, true].into_iter().enumerate() {
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
            ..NetStorageConfig::default()
        });
        for f in 0..10 {
            let pol = FilePolicy {
                geo: if volume_level || f < 2 { GeoPolicy::async_(2) } else { GeoPolicy::none() },
                ..FilePolicy::default()
            };
            ns.create_file(&format!("/f{f}"), pol, SiteId(0)).unwrap();
        }
        let mut t = SimTime::ZERO;
        for f in 0..10 {
            for k in 0..8u64 {
                t = ns.write_file(t, SiteId(0), 0, &format!("/f{f}"), k * MB, MB).unwrap().done;
            }
        }
        ns.ship_async(t, u64::MAX).unwrap();
        traffic.push(i as f64, ns.wan_bytes_total() as f64 / 1e6);
    }

    let checkpoints = vec![
        Checkpoint {
            claim: "§7.2: async acks locally, well before the sync mirror's WAN round trip",
            metric: "geo.async_ack_ms < geo.sync_ack_ms".into(),
            observed: format!("{} < {}", f3(async_near), f3(sync_near)),
            target: "async < sync".into(),
            pass: async_first,
        },
        Checkpoint {
            claim: "§7.2: the async journal's unshipped tail is the loss window",
            metric: "disaster.async_writes_lost".into(),
            observed: async_lost.to_string(),
            target: format!("== {unshipped} (unshipped records at the cut)"),
            pass: async_lost == unshipped && unshipped > 0,
        },
        Checkpoint {
            claim: "§7: the synchronous replica serves reads after the home site dies",
            metric: "read(/s)@peer".into(),
            observed: sync_readable.to_string(),
            target: "true".into(),
            pass: sync_readable,
        },
    ];
    RunReport {
        series: vec![sync_lat, async_lat, loss, traffic],
        checkpoints,
        registry: reg,
        events,
        dropped,
        ..RunReport::default()
    }
}

/// E10 — distributed data access: first-reference migration penalty, then
/// local-speed access; automatic replication after write invalidation
/// (§7.1).
pub fn e10_remote_access() -> RunReport {
    let mut ns = NetStorage::new(NetStorageConfig {
        site_cluster: ClusterConfig::default().with_blades(4).with_disks(8).with_clients(4),
        heat_half_life_secs: 10_000.0,
        hot_threshold: 2.0,
        ..NetStorageConfig::default()
    });
    let home = SiteId(0);
    let remote = SiteId(2); // continental
    ns.create_file("/dataset.h5", FilePolicy::default(), home).unwrap();
    let mut t = SimTime::ZERO;
    t = ns.write_file(t, home, 0, "/dataset.h5", 0, 8 * MB).unwrap().done;
    let mut seq = Series::new("E10 read latency (ms) at remote site by access number");
    for i in 0..5 {
        let r = ns.read_file(t, remote, 0, "/dataset.h5", 0, 8 * MB).unwrap();
        seq.push(i as f64, r.latency.as_millis_f64());
        t = r.done;
    }
    // Writes at home invalidate the remote copy; auto-replication pushes it
    // back because the file is hot at both sites.
    let mut auto = Series::new("E10 post-invalidation: 0=first re-read(ms) 1=read after auto-replication(ms)");
    t = ns.write_file(t, home, 0, "/dataset.h5", 0, 8 * MB).unwrap().done;
    // Build heat at both sites.
    for _ in 0..4 {
        let r = ns.read_file(t, remote, 0, "/dataset.h5", 0, 8 * MB).unwrap();
        t = r.done;
        t = ns.write_file(t, home, 0, "/dataset.h5", 0, 8 * MB).unwrap().done;
    }
    let first = ns.read_file(t, remote, 0, "/dataset.h5", 0, 8 * MB).unwrap();
    auto.push(0.0, first.latency.as_millis_f64());
    t = first.done;
    // Invalidate once more, then let auto-replication push proactively.
    t = ns.write_file(t, home, 0, "/dataset.h5", 0, 8 * MB).unwrap().done;
    ns.run_auto_replication(t).unwrap();
    let pushed = ns.read_file(t + SimDuration::from_secs(1), remote, 0, "/dataset.h5", 0, 8 * MB).unwrap();
    auto.push(1.0, pushed.latency.as_millis_f64());
    let mut reg = MetricsRegistry::new();
    collect_geo(&mut reg, &ns);
    RunReport { series: vec![seq, auto], registry: reg, ..RunReport::default() }
}

/// E11 — wire-speed encryption (§5.1, §8.1): streaming throughput with
/// encryption off / hardware / software.
pub fn e11_encryption() -> RunReport {
    let mut tput = Series::new("E11 streaming read MB/s: 0=off 1=at-rest+transit(hw) 2=at-rest+transit(sw)");
    let mut reg = MetricsRegistry::new();
    let mut pages_ciphered = [0u64; 3];
    for (i, enc) in [EncryptionConfig::off(), EncryptionConfig::full_hw(), EncryptionConfig::full_sw()]
        .into_iter()
        .enumerate()
    {
        let mut c = BladeCluster::new(
            ClusterConfig::default().with_blades(4).with_disks(16).with_clients(4).with_encryption(enc),
        );
        let vol = c.create_volume("media", 0, 4 * GB).unwrap();
        let total = 256 * MB;
        let mut t = SimTime::ZERO;
        for off in (0..total).step_by(MB as usize) {
            t = c.write(t, 0, vol, off, MB, 1, Retention::Normal).unwrap().done;
        }
        let start = c.drain().max(t);
        pages_ciphered[i] = c.stats.pages_ciphered;
        // Stream it back from cache through 4 clients.
        let chunk = MB;
        let chunks = total / chunk;
        let r = closed_loop(4, (chunks / 4) as usize, |client, now| {
            let idx = now.nanos() % chunks; // deterministic-ish spread
            let off = idx * chunk % total;
            let shifted = SimTime(start.nanos() + now.nanos());
            let done = c.read(shifted, client, vol, off, chunk).unwrap().done;
            (SimTime(done.nanos() - start.nanos()), chunk)
        });
        tput.push(i as f64, r.mb_per_sec());
        if i == 1 {
            collect_cluster(&mut reg, &c, start + r.makespan);
        }
    }

    let (off, hw, sw) = (tput.points[0].1, tput.points[1].1, tput.points[2].1);
    let (hw_ratio, sw_ratio) = (hw / off, sw / off);
    reg.gauge(MetricKey::aggregate("crypt", "mbps_off"), off);
    reg.gauge(MetricKey::aggregate("crypt", "mbps_hw"), hw);
    reg.gauge(MetricKey::aggregate("crypt", "mbps_sw"), sw);
    reg.gauge(MetricKey::aggregate("crypt", "hw_wire_ratio"), hw_ratio);
    reg.gauge(MetricKey::aggregate("crypt", "sw_wire_ratio"), sw_ratio);
    let pages_written = 256 * MB / (64 * KB);
    let checkpoints = vec![
        Checkpoint {
            claim: "§5.1: hardware-assist encryption runs at wire speed — within 5% of crypt-off",
            metric: "crypt.hw_wire_ratio".into(),
            observed: f3(hw_ratio),
            target: ">= 0.95".into(),
            pass: hw_ratio >= 0.95,
        },
        Checkpoint {
            claim: "§5.1: software crypt measurably degrades the same stream",
            metric: "crypt.sw_wire_ratio".into(),
            observed: f3(sw_ratio),
            target: "< 0.90".into(),
            pass: sw_ratio < 0.90,
        },
        Checkpoint {
            claim: "§5.1: the cipher costs something real in either deployment",
            metric: "crypt.mbps_off > mbps_hw > mbps_sw".into(),
            observed: format!("{} > {} > {}", f2(off), f2(hw), f2(sw)),
            target: "strictly ordered".into(),
            pass: off > hw && hw > sw,
        },
        Checkpoint {
            claim: "§5.1: the ciphered runs actually ciphered every destaged page",
            metric: "cluster.pages_ciphered (hw run)".into(),
            observed: pages_ciphered[1].to_string(),
            target: format!(">= {pages_written} (pages written)"),
            pass: pages_ciphered[1] >= pages_written && pages_ciphered[2] == pages_ciphered[1],
        },
    ];
    RunReport { series: vec![tput], checkpoints, registry: reg, ..RunReport::default() }
}

/// E12 — storage services: PIT-copy duration pinned to one blade vs
/// distributed across the cluster, and its impact on concurrent foreground
/// latency (§2.4: services "go faster and not impede active I/O").
///
/// The service is sliced and interleaved with foreground read batches in
/// virtual time, so both contend for the same disk queues. The cache is
/// deliberately small so foreground reads actually reach the disks.
pub fn e12_services() -> RunReport {
    let mut svc = Series::new("E12 backup-stream duration (s): 0=pinned-1-blade 1=distributed-8");
    let mut fg = Series::new("E12 foreground read p99 (ms): 0=no-service 1=pinned 2=distributed");
    let mut reg = MetricsRegistry::new();

    // 32 disks so the farm's aggregate rate (~1.6 GB/s) comfortably
    // exceeds one blade's 4 Gb/s disk link: a pinned service is then
    // link-bound while a distributed one is disk-bound — the §2.4 contrast.
    let cfg = || {
        ClusterConfig::default()
            .with_blades(8)
            .with_disks(32)
            .with_clients(8)
            .with_cache_pages(128) // 8 MiB/blade: foreground misses hit disk
    };
    let set = 256 * MB;
    let io = 64 * KB;
    let slice_bytes = 64 * MB;
    let total_service = 512 * MB;

    // Cold data set shared by all configs.
    let prepare = |c: &mut BladeCluster| -> (ys_virt::VolumeId, SimTime) {
        let vol = c.create_volume("t", 0, 4 * GB).unwrap();
        let mut t = SimTime::ZERO;
        for off in (0..set).step_by(MB as usize) {
            t = c.write(t, 0, vol, off, MB, 1, Retention::Normal).unwrap().done;
        }
        let base = c.drain().max(t);
        (vol, base)
    };
    let foreground_batch =
        |c: &mut BladeCluster, vol: ys_virt::VolumeId, wl: &mut Workload, base: SimTime, ops: usize| -> SimTime {
            let r = closed_loop(8, ops, |client, now| {
                let op = wl.next_op();
                let shifted = SimTime(base.nanos() + now.nanos());
                let done = c.read(shifted, client, vol, op.offset, op.len).unwrap().done;
                (SimTime(done.nanos() - base.nanos()), op.len)
            });
            base + r.makespan
        };

    // No-service reference.
    {
        let mut c = BladeCluster::new(cfg());
        let (vol, base) = prepare(&mut c);
        let mut wl = Workload::random(set, io, 0.0, 3);
        foreground_batch(&mut c, vol, &mut wl, base, 100);
        fg.push(0.0, c.stats.read_latency.p99().as_millis_f64());
    }
    for (i, blades) in [vec![0usize], (0..8).collect::<Vec<_>>()].into_iter().enumerate() {
        let mut c = BladeCluster::new(cfg());
        let (vol, base) = prepare(&mut c);
        let mut wl = Workload::random(set, io, 0.0, 3);
        // Service and foreground run on independent virtual-time cursors
        // that overlap: both contend for the same disks and blade links.
        let mut svc_t = base;
        let mut fg_t = base;
        let mut pos = 0u64;
        while pos < total_service {
            // A backup stream (§2.4): pure sequential reads shipped off the
            // blade. Pinned to one blade it is that blade's disk-link
            // bound; distributed it runs at farm rate.
            let job = ServiceJob {
                src_offset: GB + pos, // away from the foreground's region
                dst_offset: None,
                bytes: slice_bytes.min(total_service - pos),
                chunk: 16 * MB,
            };
            let res = run_service(&mut c, svc_t, job, &blades).unwrap();
            svc_t = res.finished;
            fg_t = foreground_batch(&mut c, vol, &mut wl, fg_t, 12).max(fg_t);
            pos += job.bytes;
        }
        svc.push(i as f64, svc_t.since(base).as_secs_f64());
        fg.push((i + 1) as f64, c.stats.read_latency.p99().as_millis_f64());
        if i == 1 {
            collect_cluster(&mut reg, &c, svc_t.max(fg_t));
        }
    }
    RunReport { series: vec![svc, fg], registry: reg, ..RunReport::default() }
}

/// An experiment: (id, title, runner).
pub type Experiment = (&'static str, &'static str, fn() -> RunReport);

/// Every experiment `ys-report` runs, in report order: the paper's E1–E12,
/// the A1–A3 ablations, then the fault, scrub and heal campaign scenarios.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("E1", "E1 Figure-1 high-speed striping", e1_striping as fn() -> RunReport),
        ("E2", "E2 Figure-2 secure multi-tenant pool", e2_secure_pool),
        ("E3", "E3 Figure-3 geographic deployment", e3_geo_deploy),
        ("E4", "E4 throughput scaling vs blades", e4_scaling),
        ("E5", "E5 hot-spot: pooled vs pinned", e5_hotspot),
        ("E6", "E6 DMSD thin provisioning", e6_dmsd),
        ("E7", "E7 N-way write replication", e7_nway),
        ("E8", "E8 distributed rebuild", e8_rebuild),
        ("E9", "E9 geo replication modes", e9_georep),
        ("E10", "E10 distributed data access", e10_remote_access),
        ("E11", "E11 wire-speed encryption", e11_encryption),
        ("E12", "E12 storage services offload", e12_services),
        ("A1", "A1 prefetch ablation", ablations::a1_prefetch),
        ("A2", "A2 rebuild batch-size ablation", ablations::a2_rebuild_batch),
        ("A3", "A3 coherent-peer-supply ablation", ablations::a3_remote_supply),
        (
            "noisy-neighbor",
            "noisy-neighbor: ys-qos admission control isolates a premium tenant from a scavenger flood",
            scenarios::noisy_neighbor,
        ),
        (
            "rolling-restart",
            "rolling-restart: ys-heal drains and rejoins every blade under premium load with zero loss, \
             bounded p99 impact, and health returning to Healthy",
            scenarios::rolling_restart,
        ),
        (
            "bitrot-scrub",
            "bitrot-scrub: a background ys-scrub pass repairs latent rot under foreground load inside the \
             Scavenger isolation bound",
            scenarios::bitrot_scrub,
        ),
        (
            "crash-nway",
            "crash-nway: blade crashes at adversarial instants recover clean; a deliberate N-failure shrinks \
             to a replayable counterexample (§6.1)",
            scenarios::crash_nway,
        ),
        (
            "partition-heal",
            "partition-heal: WAN trunks cut mid-geo-ship heal gapless — the async backlog drains with no \
             prefix gap (§7)",
            scenarios::partition_heal,
        ),
    ]
}

/// One cell of the multi-seed confidence sweep: a Zipf read workload on a
/// small cluster, fully determined by `seed`. Pure and single-threaded —
/// `ys-sweep` fans calls to this across worker threads and the result is
/// identical to calling it in a loop.
pub fn seed_run(seed: u64) -> f64 {
    let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8).with_clients(8));
    let vol = c.create_volume("v", 0, GB).unwrap();
    let set = 32 * MB;
    let io = 64 * KB;
    let mut t = SimTime::ZERO;
    for off in (0..set).step_by(io as usize) {
        t = c.write(t, 0, vol, off, io, 1, Retention::Normal).unwrap().done;
    }
    let base = c.drain().max(t);
    let mut wl = Workload::zipf(set, io, 0.9, 0.0, seed);
    let r = closed_loop(8, 150, |client, now| {
        let op = wl.next_op();
        let shifted = SimTime(base.nanos() + now.nanos());
        let done = c.read(shifted, client, vol, op.offset, op.len).unwrap().done;
        (SimTime(done.nanos() - base.nanos()), op.len)
    });
    r.mb_per_sec()
}

/// Multi-seed confidence sweep: per-seed aggregate MB/s for a Zipf read
/// workload, plus mean/min/max — the error bars for E5-style numbers.
///
/// This serial driver maps [`seed_run`] over the seeds in order; the
/// `ys-sweep` crate provides the thread-parallel version and a test that
/// its output is byte-identical to this one.
pub fn seed_sweep(seeds: &[u64]) -> Vec<Series> {
    let results: Vec<f64> = seeds.iter().map(|&s| seed_run(s)).collect();
    summarize_seed_sweep(seeds, &results)
}

/// Fold per-seed results into the sweep's two report series. Split out so
/// the parallel harness can merge shard outputs through the exact same
/// aggregation code path as the serial driver.
pub fn summarize_seed_sweep(seeds: &[u64], results: &[f64]) -> Vec<Series> {
    let mut per_seed = Series::new("seed sweep: MB/s per seed (parallel harness)");
    for (s, &mbps) in seeds.iter().zip(results) {
        per_seed.push(*s as f64, mbps);
    }
    let mean = results.iter().sum::<f64>() / results.len().max(1) as f64;
    let min = results.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = results.iter().cloned().fold(0.0, f64::max);
    let mut summary = Series::new("seed sweep summary: 0=mean 1=min 2=max");
    summary.push(0.0, mean);
    summary.push(1.0, min);
    summary.push(2.0, max);
    vec![per_seed, summary]
}

#[cfg(test)]
mod sweep_tests {
    use super::*;

    #[test]
    fn seed_run_is_deterministic() {
        // `ys-sweep` relies on seed_run being a pure function of its seed.
        assert_eq!(seed_run(42).to_bits(), seed_run(42).to_bits());
    }

    #[test]
    fn seed_variance_is_modest() {
        let seeds = [10u64, 20, 30, 40];
        let out = seed_sweep(&seeds);
        let mean = out[1].points[0].1;
        let min = out[1].points[1].1;
        let max = out[1].points[2].1;
        assert!(min > 0.0);
        assert!(max / min < 1.5, "seed-to-seed spread should be modest: {min}..{max} (mean {mean})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_passes_its_checkpoints() {
        for (id, _, run) in registry() {
            let report = run();
            for c in &report.checkpoints {
                assert!(c.pass, "{id}: {}", c.render());
            }
            assert!(!report.registry.is_empty(), "{id} collected no metrics");
        }
    }

    #[test]
    fn tracing_is_measurement_neutral() {
        // The traced runs are the published runs: a trace must never move a
        // simulated number.
        let cluster = |traced: bool| {
            let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
            if traced {
                c.enable_tracing(TRACE_CAPACITY);
            }
            let vol = c.create_volume("v", 0, GB).unwrap();
            let mut wl = Workload::zipf(256 * MB, 64 * KB, 1.1, 0.3, 42);
            let mut t = SimTime::ZERO;
            let mut done = Vec::new();
            for i in 0..400 {
                let op = wl.next_op();
                t = if op.write {
                    c.write(t, i % 8, vol, op.offset, op.len, 2, Retention::Normal).unwrap().done
                } else {
                    c.read(t, i % 8, vol, op.offset, op.len).unwrap().done
                };
                done.push(t);
            }
            c.fail_disk(DiskId(1));
            let mut r = Rebuilder::new(&mut c, t, DiskId(1), 16 * MB, &[0, 1], 32);
            if traced {
                r.enable_tracing(TRACE_CAPACITY);
            }
            done.push(r.run(&mut c).unwrap());
            done
        };
        assert_eq!(cluster(false), cluster(true));

        let geo = |traced: bool| {
            let mut ns = NetStorage::new(NetStorageConfig {
                site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
                ..NetStorageConfig::default()
            });
            if traced {
                ns.enable_tracing(TRACE_CAPACITY);
            }
            ns.create_file("/a", FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() }, SiteId(0))
                .unwrap();
            let mut t = SimTime::ZERO;
            for i in 0..20u64 {
                t = ns.write_file(t, SiteId(0), 0, "/a", i * MB, MB).unwrap().done;
            }
            (t, ns.ship_async(t, u64::MAX).unwrap())
        };
        assert_eq!(geo(false), geo(true));
    }

    #[test]
    fn e1_trace_is_valid_chrome_json() {
        let report = e1_striping();
        assert!(!report.events.is_empty(), "the traced run produced span events");
        let json = ys_obs::chrome_trace_json(&report.events);
        let v = serde_json::parse_value(&json).expect("valid Chrome trace JSON");
        match v.get("traceEvents") {
            Some(serde_json::Value::Arr(a)) => assert_eq!(a.len(), report.events.len()),
            other => panic!("traceEvents missing: {other:?}"),
        }
    }
}
