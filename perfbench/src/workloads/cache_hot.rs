//! `cache-hot`: closed loop, 32 clients, 8 blades, round-robin pooled
//! cache, crypt off, mirrored disks (so destaging the writes keeps the
//! disks lightly loaded). One volume is prefilled to a quarter of the 2 GiB
//! pooled cache; the load is Zipf(0.99) 64 KiB reads with 5 % 2-way
//! writes. Every read is served from a local or remote cache, so the cache
//! directory, the cluster-fabric hop and per-op `ys-core` bookkeeping do
//! the work while raid and simdisk do almost none.

use super::{
    check_cluster, cluster_layers, cluster_state, drain_rings, issue, prefill, read_back,
    ClusterSnap, Ctx, UserBytes, Workload, NO_OP, TRACE_RING,
};
use crate::driver::ClosedLoop;
use crate::gen::{HotGen, Kind};
use crate::metrics::Layers;
use crate::spans::Spans;
use ys_core::{BladeCluster, ClusterConfig, EncryptionConfig, LoadBalance};
use ys_raid::RaidLevel;
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

const BLADES: usize = 8;
const CLIENTS: usize = 32;
const PAGE: u64 = 64 * 1024;
/// 512 MiB: a quarter of the pooled cache (8 blades × 256 MiB).
const HOT_PAGES: usize = 8192;
const WRITE_FRAC: f64 = 0.05;

pub struct CacheHot {
    c: BladeCluster,
    vol: VolumeId,
    gen: HotGen,
    ops: u64,
    t0: SimTime,
    snap: ClusterSnap,
    writes: u64,
    end: SimTime,
}

impl CacheHot {
    pub fn setup(seed: u64, ops: u64, spans: &mut Spans) -> CacheHot {
        let cfg = ClusterConfig::default()
            .with_blades(BLADES)
            .with_raid(RaidLevel::Raid1 { copies: 2 })
            .with_clients(CLIENTS)
            .with_load_balance(LoadBalance::RoundRobin)
            .with_encryption(EncryptionConfig::off());
        let mut c = BladeCluster::new(cfg);
        let vol = c
            .create_volume("hot", 0, HOT_PAGES as u64 * PAGE)
            .expect("volume fits the pool");
        let t0 = prefill(&mut c, vol, HOT_PAGES as u64, spans);
        let snap = ClusterSnap::take(&c, t0);
        CacheHot {
            gen: HotGen::new(seed, HOT_PAGES, PAGE, WRITE_FRAC),
            c,
            vol,
            ops,
            t0,
            snap,
            writes: 0,
            end: t0,
        }
    }
}

impl Workload for CacheHot {
    fn enable_tracing(&mut self) {
        self.c.enable_tracing(TRACE_RING);
    }

    fn measure(&mut self, ctx: &mut Ctx) {
        let mut lp = ClosedLoop::new(CLIENTS, self.t0);
        for id in 0..self.ops {
            ctx.spans.enter("bench.op", id);
            let (client, now) = lp.next_ready();
            let op = self.gen.next_op();
            let done = issue(ctx, &mut self.c, None, id, client, self.vol, now, op);
            if let (Some(_), Kind::Write) = (done, op.kind) {
                self.writes += 1;
            }
            lp.complete(client, done.unwrap_or(now));
            drain_rings(ctx, id, "cluster", || self.c.take_trace());
            ctx.lap();
            ctx.spans.exit();
        }
        self.end = ctx.rec.last_done();
    }

    fn settle(&mut self, ctx: &mut Ctx) {
        let drained = ctx.spans.call("core.drain", NO_OP, || self.c.drain());
        self.end = self.end.max(drained);
        if let Some(sim) = ctx.sim.as_mut() {
            sim.absorb("cluster", self.c.take_trace());
        }
    }

    fn final_state(&mut self) -> Vec<u64> {
        let mut out = vec![self.end.nanos()];
        cluster_state(&self.c, &mut out);
        out
    }

    fn layers(&mut self, _ctx: &Ctx, l: &mut Layers) {
        let user = UserBytes {
            written: self.writes * PAGE,
            writes: self.writes,
        };
        cluster_layers(&self.c, &self.snap, self.end, user, l);
        // Every write lands inside the prefilled volume.
        l.set(
            "virt.space_amp",
            self.c.pool_used_bytes() as f64 / (HOT_PAGES as u64 * PAGE) as f64,
        );
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        check_cluster(&self.c, "cache-hot", &mut failures);
        // Every page of the volume was written by the prefill.
        read_back(
            &mut self.c,
            self.vol,
            0..HOT_PAGES as u64,
            self.end,
            None,
            &mut failures,
        );
        failures
    }
}
