//! Metric definitions (the names, units and directions `BENCHMARK.json`
//! lists) and the per-layer accumulator.

use std::collections::BTreeMap;

/// One metric: name, unit, and whether higher or lower is better.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run. `host.*` and
/// `setup_s` are host time; `sim.*` are simulated time of the modelled
/// machine (unvalidated: the paper publishes no measurements). Latency is
/// reported as mean and p99, not median: the model is deterministic, so
/// many operations take the same uncontended path and a median can read
/// the same on every seed; the median is printed beside them.
pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s", "lower"),
    m("host.ops_s", "1/s", "higher"),
    m("host.peak_rss_mb", "MB", "lower"),
    m("sim.mb_s", "MB/s", "higher"),
    m("sim.read_mean_ms", "ms", "lower"),
    m("sim.read_p99_ms", "ms", "lower"),
    m("sim.write_mean_ms", "ms", "lower"),
    m("sim.write_p99_ms", "ms", "lower"),
];

/// Per-layer metrics, printed by every traced run. The prefix is the
/// crate (layer) the number belongs to; `bench` and `trace` describe the
/// measurement itself. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 56] = [
    m("core.read_host_us_p50", "us", "lower"),
    m("core.read_host_us_p99", "us", "lower"),
    m("core.write_host_us_p50", "us", "lower"),
    m("core.write_host_us_p99", "us", "lower"),
    m("core.drain_host_ms", "ms", "lower"),
    m("core.reads_local_frac", "ratio", "higher"),
    m("core.reads_remote_frac", "ratio", "lower"),
    m("core.reads_disk_frac", "ratio", "lower"),
    m("core.prefetch_issued", "count", "higher"),
    m("core.prefetch_hit_ratio", "ratio", "higher"),
    m("core.cpu_util_max", "ratio", "lower"),
    m("core.cpu_imbalance", "ratio", "lower"),
    m("core.writes_refused_readonly", "count", "lower"),
    m("core.writes_downgraded", "count", "lower"),
    m("cache.hit_ratio", "ratio", "higher"),
    m("cache.directory_lookups", "count", "lower"),
    m("cache.directory_shard_imbalance", "ratio", "lower"),
    m("cache.invalidations", "count", "lower"),
    m("cache.replica_placements", "count", "lower"),
    m("cache.evictions", "count", "lower"),
    m("cache.destages", "count", "lower"),
    m("virt.extents_allocated", "count", "lower"),
    m("virt.allocs_per_write", "ratio", "lower"),
    m("virt.space_amp", "ratio", "lower"),
    m("raid.disk_write_amp", "ratio", "lower"),
    m("raid.disk_read_amp", "ratio", "lower"),
    m("raid.rebuild_steps", "count", "lower"),
    m("simdisk.util_max", "ratio", "lower"),
    m("simdisk.util_mean", "ratio", "lower"),
    m("simdisk.ops", "count", "lower"),
    m("simdisk.bytes_per_op", "B", "higher"),
    m("simnet.disk_fc_util_max", "ratio", "lower"),
    m("simnet.wan_bytes_per_user_byte", "ratio", "lower"),
    m("security.pages_ciphered", "count", "lower"),
    m("security.pages_deciphered", "count", "lower"),
    m("security.wire_frames_ciphered", "count", "lower"),
    m("qos.fg_admitted", "count", "higher"),
    m("qos.fg_throttled", "count", "lower"),
    m("qos.fg_shed", "count", "lower"),
    m("qos.scavenger_shed", "count", "lower"),
    m("qos.scavenger_throttled", "count", "lower"),
    m("geo.migrations", "count", "lower"),
    m("geo.sync_replica_writes", "count", "lower"),
    m("geo.async_enqueued", "count", "lower"),
    m("geo.async_shipped", "count", "higher"),
    m("geo.async_backlog_max_mb", "MB", "lower"),
    m("heal.ticks", "count", "lower"),
    m("heal.shed_ticks", "count", "lower"),
    m("heal.forced_ticks", "count", "lower"),
    m("heal.backoff_events", "count", "lower"),
    m("heal.replicas_placed", "count", "higher"),
    m("heal.retries", "count", "lower"),
    m("trace.events", "count", "lower"),
    m("trace.dropped", "count", "lower"),
    m("trace.overhead", "ratio", "higher"),
    m("bench.harness_share", "ratio", "lower"),
];

#[derive(Clone, Copy, Debug)]
enum Val {
    Sum(f64),
    Ratio(f64, f64),
    Max(f64),
}

/// Per-layer values of one traced run. Sums, ratios and maxima combine
/// correctly over several clusters (the geo workload has three sites).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    vals: BTreeMap<&'static str, Val>,
    /// Workload-specific timings that are not `per_layer` metrics, because
    /// `BENCHMARK.json` needs every per-layer metric on every workload:
    /// (name, value, unit). Printed in the traced run's report only.
    pub extras: Vec<(&'static str, f64, &'static str)>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        let e = self.vals.entry(name).or_insert(Val::Sum(0.0));
        if let Val::Sum(s) = e {
            *s += v;
        }
    }

    pub fn add_ratio(&mut self, name: &'static str, num: u64, den: u64) {
        self.add_ratio_f(name, num as f64, den as f64);
    }

    pub fn add_ratio_f(&mut self, name: &'static str, num: f64, den: f64) {
        let e = self.vals.entry(name).or_insert(Val::Ratio(0.0, 0.0));
        if let Val::Ratio(n, d) = e {
            *n += num;
            *d += den;
        }
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.vals.entry(name).or_insert(Val::Max(f64::MIN));
        if let Val::Max(m) = e {
            *m = m.max(v);
        }
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.vals.insert(name, Val::Sum(v));
    }

    pub fn extra(&mut self, name: &'static str, v: f64, unit: &'static str) {
        self.extras.push((name, v, unit));
    }

    /// The value of `name` (0 when the workload never set it).
    pub fn get(&self, name: &str) -> f64 {
        match self.vals.get(name) {
            Some(Val::Sum(s)) => *s,
            Some(Val::Ratio(_, d)) if *d == 0.0 => 0.0,
            Some(Val::Ratio(n, d)) => n / d,
            Some(Val::Max(m)) => *m,
            None => 0.0,
        }
    }

    /// Names set that no [`PER_LAYER`] entry defines (a programming error
    /// the tests catch).
    pub fn unknown(&self) -> Vec<&'static str> {
        self.vals
            .keys()
            .copied()
            .filter(|k| !PER_LAYER.iter().any(|d| d.name == *k))
            .collect()
    }
}
