//! `disk-mix`: closed loop, 32 clients, 4 blades, RAID5 over 16 disks,
//! full hardware-assisted crypt, QoS off. Uniform random 64 KiB ops, 70 %
//! reads and 30 % 2-way writes. Reads hit a prefilled 2 GiB region, 8× the
//! 256 MiB pooled cache; writes span a 16 GiB thin volume, so DMSD
//! first-touch allocation continues through the run. The cache mostly
//! misses: virt mapping, RAID5 read-modify-write, disk seek and queueing,
//! destage back-pressure and crypt do the work, and reads and writes
//! compete for the same spindles.

use super::{
    check_cluster, cluster_layers, cluster_state, drain_rings, issue, prefill, read_back,
    ClusterSnap, Ctx, PageSet, UserBytes, Workload, NO_OP, TRACE_RING,
};
use crate::driver::ClosedLoop;
use crate::gen::{Kind, UniformGen};
use crate::metrics::Layers;
use crate::spans::Spans;
use ys_core::{BladeCluster, ClusterConfig, EncryptionConfig};
use ys_raid::RaidLevel;
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

const BLADES: usize = 4;
const CLIENTS: usize = 32;
const DISKS: usize = 16;
const PAGE: u64 = 64 * 1024;
/// 64 MiB per blade: a 256 MiB pooled cache.
const CACHE_PAGES_PER_BLADE: usize = 1024;
/// 2 GiB read region, 8× the pooled cache.
const READ_PAGES: u64 = 8 * (BLADES * CACHE_PAGES_PER_BLADE) as u64;
/// 16 GiB thin volume the writes span.
const WRITE_PAGES: u64 = 8 * READ_PAGES;
const READ_FRAC: f64 = 0.7;

pub struct DiskMix {
    c: BladeCluster,
    vol: VolumeId,
    gen: UniformGen,
    ops: u64,
    t0: SimTime,
    snap: ClusterSnap,
    written: PageSet,
    writes: u64,
    end: SimTime,
}

impl DiskMix {
    pub fn setup(seed: u64, ops: u64, spans: &mut Spans) -> DiskMix {
        let cfg = ClusterConfig::default()
            .with_blades(BLADES)
            .with_clients(CLIENTS)
            .with_disks(DISKS)
            .with_raid(RaidLevel::Raid5)
            .with_cache_pages(CACHE_PAGES_PER_BLADE)
            .with_encryption(EncryptionConfig::full_hw());
        let mut c = BladeCluster::new(cfg);
        let vol = c
            .create_volume("mix", 0, WRITE_PAGES * PAGE)
            .expect("volume fits the pool");
        let t0 = prefill(&mut c, vol, READ_PAGES, spans);
        let mut written = PageSet::default();
        (0..READ_PAGES).for_each(|p| written.insert(p));
        let snap = ClusterSnap::take(&c, t0);
        let gen = UniformGen::new(seed, READ_PAGES, WRITE_PAGES, PAGE, READ_FRAC);
        DiskMix {
            c,
            vol,
            gen,
            ops,
            t0,
            snap,
            written,
            writes: 0,
            end: t0,
        }
    }
}

impl Workload for DiskMix {
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
                self.written.insert(op.offset / PAGE);
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
        l.set(
            "virt.space_amp",
            self.c.pool_used_bytes() as f64 / (self.written.count() * PAGE) as f64,
        );
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        check_cluster(&self.c, "disk-mix", &mut failures);
        read_back(
            &mut self.c,
            self.vol,
            self.written.iter(),
            self.end,
            None,
            &mut failures,
        );
        failures
    }
}
