//! Micro-benchmarks for the hot kernels: GF(2⁸) parity math, the cipher,
//! the LRU, the extent map, the coherence protocol, one cached
//! `BladeCluster` read, one QoS-tenant write under the health governor
//! over a warm cache, and one 1 MiB write plus cold 1 MiB read. These are the per-operation costs the whole
//! simulator's wall time rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_parity(c: &mut Criterion) {
    let mut g = c.benchmark_group("parity");
    let mut rng = ys_simcore::Rng::new(1);
    let chunk = 64 * 1024usize;
    let data: Vec<Vec<u8>> = (0..8).map(|_| (0..chunk).map(|_| rng.next_u64() as u8).collect()).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    g.throughput(Throughput::Bytes((chunk * 8) as u64));
    g.bench_function("p_xor_8x64k", |b| b.iter(|| black_box(ys_raid::parity::compute_p(&refs))));
    g.bench_function("q_rs_8x64k", |b| b.iter(|| black_box(ys_raid::parity::compute_q(&refs))));
    let p = ys_raid::parity::compute_p(&refs);
    let q = ys_raid::parity::compute_q(&refs);
    let present: Vec<(usize, &[u8])> =
        data.iter().enumerate().filter(|(i, _)| *i != 2 && *i != 5).map(|(i, d)| (i, d.as_slice())).collect();
    g.throughput(Throughput::Bytes((chunk * 2) as u64));
    g.bench_function("recover_two_64k", |b| {
        b.iter(|| black_box(ys_raid::parity::recover_two_data(&present, 2, 5, &p, &q)))
    });
    g.finish();
}

fn bench_cipher(c: &mut Criterion) {
    let mut g = c.benchmark_group("cipher");
    let key = ys_security::Key::from_seed(7);
    for size in [4 * 1024usize, 64 * 1024] {
        let mut buf = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("xtea_ctr", size), &size, |b, _| {
            b.iter(|| {
                ys_security::ctr_xor(&key, 1, 0, &mut buf);
                black_box(buf[0])
            })
        });
    }
    g.finish();
}

fn bench_lru(c: &mut Criterion) {
    use ys_cache::{LruList, Retention};
    c.bench_function("lru_insert_touch_evict", |b| {
        b.iter(|| {
            let mut l: LruList<u64, ()> = LruList::new();
            for k in 0..1000u64 {
                l.insert(k, (), Retention::Normal);
            }
            for k in (0..1000u64).step_by(3) {
                l.touch(&k);
            }
            let mut evicted = 0;
            while l.evict_where(|_, _| false).is_some() {
                evicted += 1;
            }
            black_box(evicted)
        })
    });
}

fn bench_extent_map(c: &mut Criterion) {
    use ys_virt::ExtentMap;
    c.bench_function("extent_map_map_unmap_1k", |b| {
        b.iter(|| {
            let mut m = ExtentMap::new();
            for i in 0..1000u64 {
                m.map(i * 4, i * 4 + 1, 2);
            }
            black_box(m.unmap(0, 4096).len())
        })
    });
    c.bench_function("extent_map_lookup", |b| {
        let mut m = ExtentMap::new();
        for i in 0..10_000u64 {
            m.map(i * 3, i * 3, 2);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 30_000;
            black_box(m.translate(i))
        })
    });
}

fn bench_coherence(c: &mut Criterion) {
    use ys_cache::{CacheCluster, PageKey, Retention};
    c.bench_function("coherence_write_read_cycle", |b| {
        b.iter(|| {
            let mut cc = CacheCluster::new(8, 1024);
            for p in 0..256u64 {
                cc.write((p % 8) as usize, PageKey::new(0, p), 2, Retention::Normal).unwrap();
            }
            for p in 0..256u64 {
                let _ = cc.read(((p + 3) % 8) as usize, PageKey::new(0, p)).unwrap();
                cc.destage(PageKey::new(0, p)).unwrap();
            }
            black_box(cc.stats().remote_hits)
        })
    });
}

fn bench_full_cluster_op(c: &mut Criterion) {
    use ys_cache::Retention;
    use ys_core::{BladeCluster, ClusterConfig};
    use ys_simcore::SimTime;
    c.bench_function("cluster_cached_read_op", |b| {
        let mut cl = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
        let vol = cl.create_volume("v", 0, 1 << 30).unwrap();
        let mut t = cl.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 1, Retention::Normal).unwrap().done;
        b.iter(|| {
            let r = cl.read(t, 0, vol, 0, 64 * 1024).unwrap();
            t = r.done;
            black_box(r.latency)
        })
    });
    // QoS admission samples the cache's dirty ratio and the governor checks
    // for read-only on every such write: both must stay O(blades). The
    // cache is warmed (8 blades x 4096 pages) through the same governed
    // QoS path, so an O(cached pages) walk on it shows here, in the setup
    // as well as in the timed write.
    c.bench_function("cluster_governed_qos_write_op", |b| {
        use ys_qos::{QosClass, QosConfig, TenantSpec};
        const BLADES: usize = 8;
        const PAGES: u64 = BLADES as u64 * 4096;
        const TENANT: u32 = 1;
        let qos = QosConfig::new().with_tenant(TenantSpec::new(TENANT, "fg", QosClass::Premium));
        let cfg = ClusterConfig::default().with_blades(BLADES).with_qos(qos).with_health_governor();
        let pb = cfg.page_bytes;
        let mut cl = BladeCluster::new(cfg);
        let vol = cl.create_volume("v", TENANT, PAGES * pb).unwrap();
        let mut t = SimTime::ZERO;
        for p in 0..PAGES {
            t = cl.write_as(t, TENANT, p as usize % BLADES, vol, p * pb, pb, 2, Retention::Normal).unwrap().done;
            if p % 256 == 255 {
                t = t.max(cl.drain());
            }
        }
        t = t.max(cl.drain());
        let mut p = 0;
        b.iter(|| {
            let w = cl.write_as(t, TENANT, 0, vol, p * pb, pb, 2, Retention::Normal).unwrap();
            t = w.done;
            p = (p + 1) % PAGES;
            black_box(w.latency)
        })
    });
    // geo-stream's per-site operation as a host-cost probe: one 1 MiB write
    // (16 pages, 2-way) and one cold 1 MiB sequential read on a full
    // 4-blade cache, RAID1, hardware crypt at rest and in transit, 8-page
    // readahead. Reads cycle over twice the pooled cache of data written
    // in setup and writes over another such span, so every read pages in
    // from disk and every page installed evicts one.
    c.bench_function("cluster_stream_1mib", |b| {
        use ys_core::EncryptionConfig;
        use ys_raid::RaidLevel;
        const MIB: u64 = 1 << 20;
        let cfg = ClusterConfig::default()
            .with_blades(4)
            .with_disks(16)
            .with_raid(RaidLevel::Raid1 { copies: 2 })
            .with_encryption(EncryptionConfig::full_hw())
            .with_prefetch(8);
        let slots = 2 * (cfg.blades * cfg.cache_pages_per_blade) as u64 * cfg.page_bytes / MIB;
        let mut cl = BladeCluster::new(cfg);
        let vol = cl.create_volume("stream", 0, 2 * slots * MIB).unwrap();
        let mut t = SimTime::ZERO;
        for slot in 0..slots {
            t = cl.write(t, 0, vol, slot * MIB, MIB, 2, Retention::Normal).unwrap().done;
        }
        t = t.max(cl.drain());
        let mut i = 0;
        b.iter(|| {
            let w = cl.write(t, 0, vol, (slots + i % slots) * MIB, MIB, 2, Retention::Normal).unwrap();
            let r = cl.read(w.done, 0, vol, (i % slots) * MIB, MIB).unwrap();
            t = r.done;
            i += 1;
            black_box((w.latency, r.latency))
        })
    });
}

criterion_group!(
    micro,
    bench_parity,
    bench_cipher,
    bench_lru,
    bench_extent_map,
    bench_coherence,
    bench_full_cluster_op
);
criterion_main!(micro);
