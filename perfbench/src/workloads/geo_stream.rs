//! `geo-stream`: closed loop on the 3-site national-lab `NetStorage`.
//! Instrument clients at site 0 write files sequentially in 1 MiB ops: a
//! third of the files are synchronously replicated to the nearest site, a
//! third asynchronously to the continental site, a third have no geo
//! policy. Analysis clients at site 2 read finished files sequentially:
//! the first reference migrates over the WAN, later reads are local with
//! readahead. Async shipping runs every few operations. The only workload
//! that runs pfs extents, geo replication and migration, WAN links and §4
//! readahead.

use super::{
    check_cluster, cluster_layers, cluster_state, drain_rings, read_back, ClusterSnap, Ctx,
    UserBytes, Workload, NO_OP, TRACE_RING,
};
use crate::driver::ClosedLoop;
use crate::gen::{FileGen, Kind};
use crate::metrics::Layers;
use crate::spans::Spans;
use std::collections::VecDeque;
use ys_core::{ClusterConfig, EncryptionConfig, GeoStats, NetStorage, NetStorageConfig};
use ys_geo::{SiteId, SiteTopology};
use ys_pfs::{FilePolicy, GeoPolicy, Ino};
use ys_raid::RaidLevel;
use ys_simcore::time::{SimDuration, SimTime};

const STREAM: u64 = 1 << 20;
const WRITERS: usize = 4;
const READERS: usize = 4;
/// Think time after each write (an instrument producing data) and each
/// read (analysis of the block read): a closed loop with think time.
const WRITE_THINK: SimDuration = SimDuration::from_millis(250);
const READ_THINK: SimDuration = SimDuration::from_millis(50);
const WRITE_SITE: SiteId = SiteId(0);
const READ_SITE: SiteId = SiteId(2);
/// Files written during set-up, so analysis clients have work at the start.
const INITIAL_FILES: usize = 16;
const FILE_MIN_OPS: u64 = 8;
const FILE_MAX_OPS: u64 = 24;
/// Ship the async journal every this many operations, this much per pair.
const SHIP_EVERY: u64 = 32;
const SHIP_BUDGET: u64 = 16 << 20;

#[derive(Clone, Copy, Debug)]
struct File {
    ino: Ino,
    ops: u64,
}

#[derive(Clone, Copy, Debug)]
struct Cursor {
    file: usize,
    next: u64,
}

pub struct GeoStream {
    ns: NetStorage,
    files: Vec<File>,
    gen: FileGen,
    /// Finished files no analysis client has read yet.
    unread: VecDeque<usize>,
    /// Finished files, in completion order.
    finished: Vec<usize>,
    writers: Vec<Cursor>,
    readers: Vec<Option<Cursor>>,
    ops: u64,
    t0: SimTime,
    snaps: Vec<ClusterSnap>,
    geo0: GeoStats,
    wan0: u64,
    backlog_max: u64,
    written_bytes: u64,
    end: SimTime,
}

fn policy(n: usize) -> FilePolicy {
    let geo = match n % 3 {
        0 => GeoPolicy::sync(2),
        1 => GeoPolicy {
            preferred_sites: vec![READ_SITE.0],
            ..GeoPolicy::async_(2)
        },
        _ => GeoPolicy::none(),
    };
    FilePolicy {
        geo,
        ..FilePolicy::default()
    }
}

impl GeoStream {
    pub fn setup(seed: u64, ops: u64, spans: &mut Spans) -> GeoStream {
        let site = ClusterConfig::default()
            .with_blades(4)
            .with_disks(16)
            .with_raid(RaidLevel::Raid1 { copies: 2 })
            .with_clients(WRITERS.max(READERS))
            .with_prefetch(8)
            .with_encryption(EncryptionConfig::full_hw());
        let cfg = NetStorageConfig {
            site_cluster: site,
            topology: SiteTopology::national_lab(),
            ..NetStorageConfig::default()
        };
        let mut g = GeoStream {
            ns: NetStorage::new(cfg),
            files: Vec::new(),
            gen: FileGen::new(seed, FILE_MIN_OPS, FILE_MAX_OPS),
            unread: VecDeque::new(),
            finished: Vec::new(),
            writers: Vec::new(),
            readers: vec![None; READERS],
            ops,
            t0: SimTime::ZERO,
            snaps: Vec::new(),
            geo0: GeoStats::default(),
            wan0: 0,
            backlog_max: 0,
            written_bytes: 0,
            end: SimTime::ZERO,
        };
        let mut t = SimTime::ZERO;
        for _ in 0..INITIAL_FILES {
            let f = g.new_file();
            for k in 0..g.files[f].ops {
                let w = g.ns.write_ino(
                    t,
                    WRITE_SITE,
                    f % WRITERS,
                    g.files[f].ino,
                    k * STREAM,
                    STREAM,
                );
                t = w.expect("initial file write").done;
            }
            g.finish(f);
        }
        t = g.ship_all(t);
        let ns = &mut g.ns;
        let drained = spans.call("core.drain", NO_OP, || {
            ns.clusters
                .iter_mut()
                .map(|c| c.drain())
                .fold(t, SimTime::max)
        });
        g.t0 = drained;
        g.writers = (0..WRITERS)
            .map(|_| Cursor {
                file: g.new_file(),
                next: 0,
            })
            .collect();
        g.snaps =
            g.ns.clusters
                .iter()
                .map(|c| ClusterSnap::take(c, g.t0))
                .collect();
        g.geo0 = g.ns.stats.clone();
        g.wan0 = g.ns.wan_bytes_total();
        g
    }

    fn new_file(&mut self) -> usize {
        let n = self.files.len();
        let ino = self
            .ns
            .create_file(&format!("/run{n}"), policy(n), WRITE_SITE)
            .expect("create file");
        self.files.push(File {
            ino,
            ops: self.gen.next_file_ops(),
        });
        n
    }

    fn finish(&mut self, f: usize) {
        self.unread.push_back(f);
        self.finished.push(f);
    }

    /// Ship until every async journal is empty; returns the last delivery.
    fn ship_all(&mut self, mut t: SimTime) -> SimTime {
        while self.backlog() > 0 {
            t = t.max(self.ns.ship_async(t, u64::MAX).expect("ship async backlog"));
        }
        t
    }

    fn backlog(&self) -> u64 {
        let n = self.ns.topology.len();
        (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .map(|(s, d)| self.ns.async_backlog(SiteId(s), SiteId(d)).1)
            .sum()
    }
}

impl Workload for GeoStream {
    fn enable_tracing(&mut self) {
        self.ns.enable_tracing(TRACE_RING);
    }

    fn measure(&mut self, ctx: &mut Ctx) {
        let mut lp = ClosedLoop::new(WRITERS + READERS, self.t0);
        for id in 0..self.ops {
            ctx.spans.enter("bench.op", id);
            let (client, now) = lp.next_ready();
            let done = if client < WRITERS {
                let cur = self.writers[client];
                let ino = self.files[cur.file].ino;
                let ns = &mut self.ns;
                let w = ctx.spans.call("geo.write", id, || {
                    ns.write_ino(now, WRITE_SITE, client, ino, cur.next * STREAM, STREAM)
                });
                let done = match w {
                    Ok(c) => {
                        ctx.rec.ok(id, Kind::Write, now, c.done, STREAM);
                        c.done
                    }
                    Err(e) => {
                        ctx.rec
                            .error(id, now, format!("write at site {}: {e}", WRITE_SITE.0));
                        now
                    }
                };
                self.written_bytes += STREAM;
                self.backlog_max = self.backlog_max.max(self.backlog());
                if cur.next + 1 == self.files[cur.file].ops {
                    self.finish(cur.file);
                    self.writers[client] = Cursor {
                        file: self.new_file(),
                        next: 0,
                    };
                } else {
                    self.writers[client].next += 1;
                }
                done
            } else {
                let r = client - WRITERS;
                let cur = match self.readers[r] {
                    Some(c) => c,
                    None => {
                        let file = match self.unread.pop_front() {
                            Some(f) => f,
                            None => {
                                self.finished[self.gen.pick(self.finished.len() as u64) as usize]
                            }
                        };
                        Cursor { file, next: 0 }
                    }
                };
                let File { ino, ops } = self.files[cur.file];
                let (offset, len) = (cur.next * STREAM, STREAM);
                let ns = &mut self.ns;
                let rd = ctx.spans.call("geo.read", id, || {
                    ns.read_ino(now, READ_SITE, r, ino, offset, len)
                });
                let done = match rd {
                    Ok(c) => {
                        ctx.rec.ok(id, Kind::Read, now, c.done, len);
                        c.done
                    }
                    Err(e) => {
                        ctx.rec
                            .error(id, now, format!("read at site {}: {e}", READ_SITE.0));
                        now
                    }
                };
                let next = cur.next + 1;
                self.readers[r] = (next < ops).then_some(Cursor {
                    file: cur.file,
                    next,
                });
                done
            };
            lp.complete(
                client,
                done + if client < WRITERS {
                    WRITE_THINK
                } else {
                    READ_THINK
                },
            );
            if id % SHIP_EVERY == SHIP_EVERY - 1 {
                let ns = &mut self.ns;
                if let Err(e) = ctx
                    .spans
                    .call("geo.ship", NO_OP, || ns.ship_async(now, SHIP_BUDGET))
                {
                    ctx.rec.fault(format!("async ship failed: {e}"));
                }
            }
            drain_rings(ctx, id, "netstorage", || self.ns.take_trace());
            ctx.lap();
            ctx.spans.exit();
        }
        self.end = ctx.rec.last_done();
    }

    fn settle(&mut self, ctx: &mut Ctx) {
        let shipped = self.ship_all(self.end);
        let ns = &mut self.ns;
        let drained = ctx.spans.call("core.drain", NO_OP, || {
            ns.clusters
                .iter_mut()
                .map(|c| c.drain())
                .fold(shipped, SimTime::max)
        });
        self.end = self.end.max(drained);
        if let Some(sim) = ctx.sim.as_mut() {
            sim.absorb("netstorage", self.ns.take_trace());
        }
    }

    fn final_state(&mut self) -> Vec<u64> {
        let s = &self.ns.stats;
        let mut out = vec![
            self.end.nanos(),
            s.migrations,
            s.sync_replica_writes,
            s.async_writes_enqueued,
            s.async_writes_shipped,
            s.wire_frames_ciphered,
            s.local_read_latency.count(),
            s.remote_first_reference_latency.count(),
            self.ns.wan_bytes_total(),
            self.backlog_max,
        ];
        for c in &self.ns.clusters {
            cluster_state(c, &mut out);
        }
        out
    }

    fn layers(&mut self, ctx: &Ctx, l: &mut Layers) {
        let writes = self.written_bytes / STREAM;
        for (i, (c, snap)) in self.ns.clusters.iter().zip(&self.snaps).enumerate() {
            let user = if i == WRITE_SITE.0 {
                UserBytes {
                    written: self.written_bytes,
                    writes,
                }
            } else {
                UserBytes::default()
            };
            cluster_layers(c, snap, self.end, user, l);
        }
        let (g0, g1) = (&self.geo0, &self.ns.stats);
        l.add("geo.migrations", (g1.migrations - g0.migrations) as f64);
        l.add(
            "geo.sync_replica_writes",
            (g1.sync_replica_writes - g0.sync_replica_writes) as f64,
        );
        l.add(
            "geo.async_enqueued",
            (g1.async_writes_enqueued - g0.async_writes_enqueued) as f64,
        );
        l.add(
            "geo.async_shipped",
            (g1.async_writes_shipped - g0.async_writes_shipped) as f64,
        );
        l.add("geo.async_backlog_max_mb", self.backlog_max as f64 / 1e6);
        l.add(
            "security.wire_frames_ciphered",
            (g1.wire_frames_ciphered - g0.wire_frames_ciphered) as f64,
        );
        l.add_ratio(
            "simnet.wan_bytes_per_user_byte",
            self.ns.wan_bytes_total() - self.wan0,
            self.written_bytes,
        );
        let pool: u64 = self.ns.clusters.iter().map(|c| c.pool_used_bytes()).sum();
        let user: u64 = self
            .files
            .iter()
            .filter_map(|f| self.ns.fs.size_of(f.ino))
            .sum();
        l.add_ratio("virt.space_amp", pool, user);
        l.extra(
            "geo.first_ref_p50_ms",
            g1.remote_first_reference_latency.p50().as_millis_f64(),
            "ms",
        );
        l.extra(
            "geo.local_read_p50_ms",
            g1.local_read_latency.p50().as_millis_f64(),
            "ms",
        );
        let p50_us = |name| {
            let mut d = ctx.spans.durations_of(name);
            crate::record::quantile(&mut d, 0.5) as f64 / 1e3
        };
        l.extra("geo.write_host_us_p50", p50_us("geo.write"), "us");
        l.extra("geo.read_host_us_p50", p50_us("geo.read"), "us");
        l.extra(
            "geo.ship_host_ms",
            ctx.spans.durations_of("geo.ship").iter().sum::<u64>() as f64 / 1e6,
            "ms",
        );
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.backlog() != 0 {
            failures.push(format!(
                "async backlog of {} bytes left after the final ship",
                self.backlog()
            ));
        }
        for (i, c) in self.ns.clusters.iter().enumerate() {
            check_cluster(c, &format!("geo-stream site {i}"), &mut failures);
        }
        let pb = self.ns.clusters[0].config().page_bytes;
        for (n, f) in self.files.iter().enumerate() {
            let size = self.ns.fs.size_of(f.ino).unwrap_or(0);
            if size == 0 {
                continue;
            }
            // Every finished write is held at the writer's site; synchronous
            // and (after the final ship) asynchronous replicas hold it too.
            let mut sites = vec![WRITE_SITE.0];
            match n % 3 {
                0 => sites.push(1),
                1 => sites.push(READ_SITE.0),
                _ => {}
            }
            let extents = self.ns.fs.read(f.ino, 0, size).expect("file extents");
            for site in sites {
                for e in &extents {
                    let pages = e.voff / pb..=(e.voff + e.len - 1) / pb;
                    read_back(
                        &mut self.ns.clusters[site],
                        e.vol,
                        pages,
                        self.end,
                        None,
                        &mut failures,
                    );
                }
            }
        }
        failures
    }
}
