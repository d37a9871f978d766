//! Micro-benchmarks for the hot kernels: GF(2⁸) parity math, the cipher,
//! the LRU, the extent map, the coherence protocol, and the event engine.
//! These are the per-operation costs the whole simulator's wall time rests
//! on.

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
            let mut l: LruList<u64> = LruList::new();
            for k in 0..1000u64 {
                l.insert(k, Retention::Normal);
            }
            for k in (0..1000u64).step_by(3) {
                l.touch(&k);
            }
            let mut evicted = 0;
            while l.evict_where(|_| false).is_some() {
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
