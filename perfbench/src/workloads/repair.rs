//! `repair-under-load`: open loop. A Premium foreground tenant issues
//! uniform 64 KiB reads (70 %) and 2-way writes over a prefilled RAID5
//! volume at a fixed simulated rate, timed from each operation's due time.
//! The cluster has 8 blades and the health governor on. A tenth of the way
//! in, one disk fails and a 4-worker `Rebuilder` starts; eight tenths in,
//! after the rebuild, a checkpoint burst lands, a blade fails and a
//! Scavenger-tenant `Healer` re-replicates the writes left one copy short.
//! Both interleave with the foreground in simulated-time order until the
//! rebuild has finished and the heal has converged. The only workload that
//! runs raid rebuild, heal, QoS admission and the governor; it is open loop
//! so that repair interference shows as foreground latency, not as less
//! offered load.

use super::{
    check_cluster, cluster_layers, cluster_state, drain_rings, issue, prefill, read_back,
    ClusterSnap, Ctx, PageSet, UserBytes, Workload, NO_OP, TRACE_RING,
};
use crate::driver::OpenLoop;
use crate::gen::{Kind, Op, UniformGen};
use crate::metrics::Layers;
use crate::record::quantile;
use crate::spans::Spans;
use ys_core::{BladeCluster, ClusterConfig, Rebuilder};
use ys_heal::{HealConfig, Healer};
use ys_qos::{QosClass, QosConfig, TenantSpec};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simdisk::DiskId;
use ys_virt::VolumeId;

const BLADES: usize = 8;
const CLIENTS: usize = 8;
const DISKS: usize = 16;
/// 64 MiB per blade: a 512 MiB pooled cache, the size of the volume.
const CACHE_PAGES_PER_BLADE: usize = 1024;
const PAGE: u64 = 64 * 1024;
/// 512 MiB prefilled volume the foreground reads and writes.
const PAGES: u64 = 8192;
const READ_FRAC: f64 = 0.7;
const FG: u32 = 1;
const HEALER: u32 = 9;
/// Foreground rate: about a third of the ~1000 ops/s at which the healthy
/// cluster's disk queues start to grow without bound in this model (its
/// busiest disk is then about half busy: RAID5 writes queue behind the
/// reads they depend on, which leaves idle gaps), so the rebuild's extra
/// load is absorbed and shows as latency.
const RATE_OPS_S: u64 = 350;
const FAILED_DISK: DiskId = DiskId(5);
const REBUILD_WORKERS: [usize; 4] = [0, 1, 2, 3];
const REBUILD_BATCH_ROWS: u64 = 4;
/// Member bytes rebuilt per budgeted operation: sized so that, at the
/// foreground rate above, the rebuild ends about half way through the
/// budget, well before the blade fails; the heal then runs without the
/// rebuild's back-pressure shedding it.
const REBUILD_BYTES_PER_OP: u64 = 16 * 1024;
const FAILED_BLADE: usize = 7;
/// Pages a checkpoint writes at once, just before the blade fails.
const CHECKPOINT_PAGES: u64 = 128;

fn qos() -> QosConfig {
    QosConfig::new()
        .with_tenant(TenantSpec::new(FG, "foreground", QosClass::Premium).weight(4))
        .with_tenant(
            TenantSpec::new(HEALER, "healer", QosClass::Scavenger)
                .rate_mb_per_sec(50)
                .burst_bytes(1 << 20)
                .inflight_cap(4),
        )
}

/// The healer's pass, stepped one batch at a time between foreground
/// operations with the same shed/stall backoff policy as `Healer::run`.
struct Heal {
    h: Healer,
    next: SimTime,
    backoff: SimDuration,
    backoff_events: u64,
    started: SimTime,
    converged_at: Option<SimTime>,
}

pub struct Repair {
    c: BladeCluster,
    vol: VolumeId,
    gen: UniformGen,
    ops: u64,
    t0: SimTime,
    snap: ClusterSnap,
    written: PageSet,
    writes: u64,
    rebuild: Option<Rebuilder>,
    /// When each rebuild worker is next free (mirrors the rebuilder's own
    /// earliest-worker choice so steps run in simulated-time order).
    workers_free: Vec<SimTime>,
    rebuild_steps: u64,
    disk_failed_at: SimTime,
    heal: Option<Heal>,
    end: SimTime,
}

impl Repair {
    pub fn setup(seed: u64, ops: u64, spans: &mut Spans) -> Repair {
        let cfg = ClusterConfig::default()
            .with_blades(BLADES)
            .with_clients(CLIENTS)
            .with_disks(DISKS)
            .with_cache_pages(CACHE_PAGES_PER_BLADE)
            .with_qos(qos())
            .with_health_governor();
        let mut c = BladeCluster::new(cfg);
        let vol = c
            .create_volume("fg", FG, PAGES * PAGE)
            .expect("volume fits the pool");
        let t0 = prefill(&mut c, vol, PAGES, spans);
        let mut written = PageSet::default();
        (0..PAGES).for_each(|p| written.insert(p));
        let snap = ClusterSnap::take(&c, t0);
        Repair {
            c,
            vol,
            gen: UniformGen::new(seed, PAGES, PAGES, PAGE, READ_FRAC),
            ops,
            t0,
            snap,
            written,
            writes: 0,
            rebuild: None,
            workers_free: Vec::new(),
            rebuild_steps: 0,
            disk_failed_at: t0,
            heal: None,
            end: t0,
        }
    }

    fn repair_done(&self) -> bool {
        self.rebuild.as_ref().is_some_and(|r| r.is_done())
            && self.heal.as_ref().is_some_and(|h| h.converged_at.is_some())
    }

    /// Run every rebuild step and heal batch due by `until`, earliest first.
    fn background(&mut self, until: SimTime, ctx: &mut Ctx) {
        loop {
            let rb = match &self.rebuild {
                Some(r) if !r.is_done() => self
                    .workers_free
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, t)| t),
                _ => None,
            };
            let hl = self
                .heal
                .as_ref()
                .filter(|h| h.converged_at.is_none())
                .map(|h| h.next);
            match (rb, hl) {
                (Some((w, t)), h) if t <= until && h.is_none_or(|h| t <= h) => {
                    self.rebuild_step(w, ctx)
                }
                (_, Some(h)) if h <= until => self.heal_tick(h, ctx),
                _ => return,
            }
        }
    }

    fn rebuild_step(&mut self, worker: usize, ctx: &mut Ctx) {
        let (c, rb) = (&mut self.c, self.rebuild.as_mut().expect("rebuild running"));
        match ctx.spans.call("raid.rebuild_step", NO_OP, || rb.step(c)) {
            // Only the rebuild writes the replacement disk, so its queue end
            // is the step's completion: the worker is free again then.
            Ok(true) => {
                self.rebuild_steps += 1;
                self.workers_free[worker] = self.c.farm.disk(FAILED_DISK).next_free();
            }
            Ok(false) => self.workers_free[worker] = SimTime::FAR_FUTURE,
            Err(e) => {
                ctx.rec.fault(format!("rebuild step failed: {e}"));
                self.workers_free[worker] = SimTime::FAR_FUTURE;
            }
        }
    }

    fn heal_tick(&mut self, now: SimTime, ctx: &mut Ctx) {
        let (c, heal) = (&mut self.c, self.heal.as_mut().expect("heal running"));
        let (sheds, placed) = (heal.h.report().shed_ticks, heal.h.report().replicas_placed);
        let done = match ctx.spans.call("heal.tick", NO_OP, || heal.h.tick(c, now)) {
            Ok(done) => done,
            Err(e) => {
                ctx.rec.fault(format!("heal tick failed: {e}"));
                heal.converged_at = Some(now);
                return;
            }
        };
        let cfg = HealConfig::default();
        if heal.h.report().shed_ticks == sheds && c.under_target_pages().is_empty() {
            // Converged: the healer's own pass confirms it (no work left)
            // and promotes nothing further.
            let _ = heal.h.run(c, done);
            heal.converged_at = Some(done);
        } else if heal.h.report().shed_ticks > sheds || heal.h.report().replicas_placed == placed {
            heal.next = now + heal.backoff;
            heal.backoff = (heal.backoff * 2).min(cfg.max_backoff);
            heal.backoff_events += 1;
        } else {
            heal.backoff = cfg.base_backoff;
            heal.next = done.max(now + SimDuration::from_nanos(1));
        }
    }

    fn foreground(&mut self, id: u64, due: SimTime, op: Op, ctx: &mut Ctx) {
        let client = (id % CLIENTS as u64) as usize;
        let done = issue(ctx, &mut self.c, Some(FG), id, client, self.vol, due, op);
        if let (Some(_), Kind::Write) = (done, op.kind) {
            self.writes += 1;
            self.written.insert(op.offset / PAGE);
        }
    }
}

impl Workload for Repair {
    fn enable_tracing(&mut self) {
        self.c.enable_tracing(TRACE_RING);
    }

    fn measure(&mut self, ctx: &mut Ctx) {
        let mut lp = OpenLoop::new(self.t0, RATE_OPS_S);
        let fail_disk_at = self.ops / 10;
        let fail_blade_at = self.ops * 8 / 10;
        let mut id = 0;
        // Past the budget the load keeps coming until the rebuild has
        // finished and the heal has converged. A repair that never finishes
        // stops at four budgets and fails the checks.
        loop {
            let (i, due) = lp.next_due();
            if (i >= self.ops && self.repair_done()) || i >= 4 * self.ops {
                break;
            }
            ctx.spans.enter("bench.op", id);
            self.background(due, ctx);
            if i == fail_disk_at {
                self.c.fail_disk(FAILED_DISK);
                let region = self.ops * REBUILD_BYTES_PER_OP;
                let rb = Rebuilder::new(
                    &mut self.c,
                    due,
                    FAILED_DISK,
                    region,
                    &REBUILD_WORKERS,
                    REBUILD_BATCH_ROWS,
                );
                self.rebuild = Some(rb);
                self.workers_free = vec![due; REBUILD_WORKERS.len()];
                self.disk_failed_at = due;
            }
            if i == fail_blade_at {
                // A checkpoint lands just before the blade dies, so there
                // are acknowledged writes still dirty for the healer.
                for page in 0..CHECKPOINT_PAGES {
                    let op = Op {
                        kind: Kind::Write,
                        offset: page * PAGE,
                        len: PAGE,
                    };
                    self.foreground(id, due, op, ctx);
                    id += 1;
                }
                self.c.fail_blade(due, FAILED_BLADE);
                let cfg = HealConfig {
                    tenant: Some(HEALER),
                    ..HealConfig::default()
                };
                let backoff = cfg.base_backoff;
                self.heal = Some(Heal {
                    h: Healer::new(cfg),
                    next: due,
                    backoff,
                    backoff_events: 0,
                    started: due,
                    converged_at: None,
                });
            }
            let op = self.gen.next_op();
            self.foreground(id, due, op, ctx);
            drain_rings(ctx, id, "cluster", || self.c.take_trace());
            id += 1;
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
            if let Some(rb) = self.rebuild.as_mut() {
                sim.absorb("rebuild", rb.take_trace());
            }
        }
    }

    fn final_state(&mut self) -> Vec<u64> {
        let mut out = vec![self.end.nanos(), self.rebuild_steps];
        if let Some(rb) = &self.rebuild {
            out.push(rb.finished_at().map_or(u64::MAX, |t| t.nanos()));
        }
        if let Some(h) = &self.heal {
            let r = h.h.report();
            out.extend([
                r.ticks,
                r.shed_ticks,
                r.forced_ticks,
                r.replicas_placed,
                r.retries,
                h.backoff_events,
            ]);
            out.push(h.converged_at.map_or(u64::MAX, |t| t.nanos()));
        }
        for t in [FG, HEALER] {
            if let Some(s) = self.c.qos().stats(t) {
                out.extend([s.admitted, s.throttled, s.shed, s.queued_ns]);
            }
        }
        cluster_state(&self.c, &mut out);
        out
    }

    fn layers(&mut self, ctx: &Ctx, l: &mut Layers) {
        let user = UserBytes {
            written: self.writes * PAGE,
            writes: self.writes,
        };
        cluster_layers(&self.c, &self.snap, self.end, user, l);
        l.set(
            "virt.space_amp",
            self.c.pool_used_bytes() as f64 / (self.written.count() * PAGE) as f64,
        );
        l.add("raid.rebuild_steps", self.rebuild_steps as f64);
        let fg = self.c.qos().stats(FG).unwrap_or_default();
        let sc = self.c.qos().stats(HEALER).unwrap_or_default();
        l.add("qos.fg_admitted", fg.admitted as f64);
        l.add("qos.fg_throttled", fg.throttled as f64);
        l.add("qos.fg_shed", fg.shed as f64);
        l.add("qos.scavenger_shed", sc.shed as f64);
        l.add("qos.scavenger_throttled", sc.throttled as f64);
        if let Some(h) = &self.heal {
            let r = h.h.report();
            l.add("heal.ticks", r.ticks as f64);
            l.add("heal.shed_ticks", r.shed_ticks as f64);
            l.add("heal.forced_ticks", r.forced_ticks as f64);
            l.add("heal.backoff_events", h.backoff_events as f64);
            l.add("heal.replicas_placed", r.replicas_placed as f64);
            l.add("heal.retries", r.retries as f64);
            if let Some(at) = h.converged_at {
                l.extra(
                    "heal.degraded_sim_s",
                    at.since(h.started).as_secs_f64(),
                    "s",
                );
            }
        }
        let rebuilt = self.rebuild.as_ref().and_then(|r| r.finished_at());
        let healed = self.heal.as_ref().and_then(|h| h.converged_at);
        if let (Some(rb), Some(hl)) = (rebuilt, healed) {
            l.extra(
                "sim.repair_s",
                rb.max(hl).since(self.disk_failed_at).as_secs_f64(),
                "s",
            );
            l.extra(
                "raid.rebuild_sim_s",
                rb.since(self.disk_failed_at).as_secs_f64(),
                "s",
            );
        }
        let q = |name: &str, p: f64| {
            let mut d = ctx.spans.durations_of(name);
            quantile(&mut d, p) as f64 / 1e3
        };
        l.extra(
            "raid.rebuild_step_host_us_p50",
            q("raid.rebuild_step", 0.5),
            "us",
        );
        l.extra("heal.tick_host_us_p50", q("heal.tick", 0.5), "us");
        l.extra("heal.tick_host_us_p99", q("heal.tick", 0.99), "us");
        l.extra(
            "qos.fg_p99_ms",
            self.c
                .qos()
                .latency(FG)
                .map_or(0.0, |h| h.p99().as_millis_f64()),
            "ms",
        );
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        check_cluster(&self.c, "repair-under-load", &mut failures);
        match &self.rebuild {
            Some(rb) if rb.is_done() && rb.finished_at().is_some() => {}
            rb => failures.push(format!(
                "the rebuild did not finish (progress {:.3} after {} steps)",
                rb.as_ref().map_or(0.0, |r| r.progress()),
                self.rebuild_steps
            )),
        }
        match &self.heal {
            Some(h) if h.h.report().converged && h.h.report().stalled_pages == 0 => {}
            h => failures.push(format!(
                "the healer did not converge with zero stalled pages: {:?}",
                h.as_ref().map(|h| h.h.report().clone())
            )),
        }
        read_back(
            &mut self.c,
            self.vol,
            self.written.iter(),
            self.end,
            Some(FAILED_DISK),
            &mut failures,
        );
        failures
    }
}
