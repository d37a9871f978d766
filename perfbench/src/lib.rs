//! `perfbench` — the repository benchmark.
//!
//! One single-threaded run drives one named workload through the public
//! `ys-core` API (`BladeCluster`, `NetStorage`, `Rebuilder`) and
//! `ys_heal::Healer`, checks the results, and reports end-to-end metrics
//! (untraced run) or per-layer metrics (traced run). `sim.*` numbers are
//! simulated time of the modelled machine; `host.*`, `setup_s` and every
//! `*_host_*` number are host time of the simulator. The paper publishes
//! no measurements, so the simulated numbers are unvalidated model outputs.

pub mod driver;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod record;
pub mod spans;
pub mod workloads;

use metrics::{Layers, MetricDef, END_TO_END, PER_LAYER};
use record::{mean_ms, quantile};
use std::time::{Duration, Instant};
use workloads::{median, Ctx, Workload, NO_OP};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Measured foreground operations.
    pub ops: u64,
    /// Timed set-ups in an untraced run; `setup_s` is their median.
    pub setups: usize,
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Reported {
    pub def: MetricDef,
    pub value: f64,
    /// Samples behind the value (operations, set-ups, ...).
    pub samples: u64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub metrics: Vec<Reported>,
    /// Traced run only: per-layer self-time table and workload-specific
    /// timings, as text.
    pub report: String,
    /// Traced run only: the merged Chrome trace.
    pub chrome: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Timed set-ups, the measured phase, settle and the checks.
struct Pass {
    ctx: Ctx,
    /// Each set-up's host seconds and the probe speed just before it.
    setup_s: Vec<f64>,
    setup_speeds: Vec<f64>,
    wall: Duration,
    fingerprint: u64,
    /// Traced pass only.
    layers: Option<Layers>,
    failures: Vec<String>,
}

fn pass(o: &Options, traced: bool, setups: usize) -> Result<Pass, String> {
    let mut ctx = Ctx::new(traced, o.ops);
    let (mut setup_s, mut setup_speeds) = (Vec::new(), Vec::new());
    let mut ready: Option<Box<dyn Workload>> = None;
    for _ in 0..setups.max(1) {
        drop(ready.take());
        setup_speeds.push(ctx.probe.speed());
        let start = Instant::now();
        let w = workloads::setup(&o.workload, o.seed, o.ops, &mut ctx.spans)
            .ok_or_else(|| unknown(&o.workload))?;
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some(w);
    }
    let mut w = ready.expect("at least one set-up ran");
    if traced {
        w.enable_tracing();
    }
    let start = Instant::now();
    ctx.start();
    ctx.spans.enter("bench.measure", NO_OP);
    w.measure(&mut ctx);
    ctx.spans.exit();
    let wall = start.elapsed();
    w.settle(&mut ctx);
    let fingerprint = ctx.rec.fingerprint(&w.final_state());
    // Layer metrics read the state the measured phase left, before the
    // read-back checks add their own reads.
    let layers = traced.then(|| {
        let mut l = Layers::default();
        w.layers(&ctx, &mut l);
        l
    });
    let mut failures = std::mem::take(&mut ctx.rec.errors);
    failures.extend(w.verify());
    Ok(Pass {
        ctx,
        setup_s,
        setup_speeds,
        wall,
        fingerprint,
        layers,
        failures,
    })
}

fn unknown(name: &str) -> String {
    format!(
        "unknown workload '{name}' (expected one of {})",
        workloads::WORKLOADS.join(", ")
    )
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(name: &str) -> MetricDef {
    *END_TO_END
        .iter()
        .find(|d| d.name == name)
        .expect("end-to-end metric is defined")
}

/// Run one workload as `o` says.
pub fn run(o: &Options) -> Result<Outcome, String> {
    if o.trace {
        run_traced(o)
    } else {
        run_untraced(o)
    }
}

fn run_untraced(o: &Options) -> Result<Outcome, String> {
    let Pass {
        mut ctx,
        setup_s,
        setup_speeds,
        fingerprint,
        failures,
        ..
    } = pass(o, false, o.setups)?;
    let (ops_s, raw_ops_s, laps) = ctx.lap_rate();
    let rec = &mut ctx.rec;
    let (reads, writes) = (rec.reads.len() as u64, rec.writes.len() as u64);
    let ms = |v: &mut Vec<u64>, q| quantile(v, q) as f64 / 1e6;
    let values = [
        (
            "setup_s",
            median(&setup_s) * median(&setup_speeds),
            setup_s.len() as u64,
        ),
        ("host.ops_s", ops_s, laps),
        ("host.peak_rss_mb", peak_rss_mb(), 1),
        (
            "sim.mb_s",
            rec.bytes as f64 / 1e6 / rec.sim_span_s(),
            reads + writes,
        ),
        ("sim.read_mean_ms", mean_ms(&rec.reads), reads),
        ("sim.read_p99_ms", ms(&mut rec.reads, 0.99), reads),
        ("sim.write_mean_ms", mean_ms(&rec.writes), writes),
        ("sim.write_p99_ms", ms(&mut rec.writes, 0.99), writes),
    ];
    let mut report =
        format!("host.ops_s as measured {raw_ops_s} (before normalising to the reference speed)\n");
    for (kind, v) in [("read", &mut rec.reads), ("write", &mut rec.writes)] {
        let qs: Vec<String> = [0.5, 0.75, 0.9, 0.95]
            .iter()
            .map(|&q| format!("p{}={}", (q * 100.0) as u32, ms(v, q)))
            .collect();
        report.push_str(&format!(
            "sim.{kind} latency ms {} (n={})\n",
            qs.join(" "),
            v.len()
        ));
    }
    let metrics = values
        .iter()
        .map(|&(n, value, samples)| Reported {
            def: end_to_end(n),
            value,
            samples,
        })
        .collect();
    Ok(Outcome {
        failures,
        attempted: rec.attempted,
        failed: rec.failed,
        fingerprint,
        metrics,
        report,
        chrome: None,
    })
}

/// The traced run: an untraced pass for the `trace.overhead` baseline, then
/// a traced pass of the same seed. Tracing is observational, so both must
/// end with the same fingerprint.
fn run_traced(o: &Options) -> Result<Outcome, String> {
    let plain = pass(o, false, 1)?;
    let mut t = pass(o, true, 1)?;
    let mut layers = t.layers.take().expect("traced pass collects layers");
    let mut failures = plain.failures;
    failures.append(&mut t.failures);
    if t.fingerprint != plain.fingerprint {
        failures.push(format!(
            "traced run diverged: fingerprint {:016x} vs untraced {:016x}",
            t.fingerprint, plain.fingerprint
        ));
    }
    let ctx = &t.ctx;
    let wall_ns = t.wall.as_nanos() as f64;
    let host_quantile = |names: &[&str], q: f64| {
        let mut d = names
            .iter()
            .map(|n| ctx.spans.durations_of(n))
            .find(|d| !d.is_empty())
            .unwrap_or_default();
        quantile(&mut d, q) as f64 / 1e3
    };
    layers.set(
        "core.read_host_us_p50",
        host_quantile(&["core.read", "geo.read"], 0.5),
    );
    layers.set(
        "core.read_host_us_p99",
        host_quantile(&["core.read", "geo.read"], 0.99),
    );
    layers.set(
        "core.write_host_us_p50",
        host_quantile(&["core.write", "geo.write"], 0.5),
    );
    layers.set(
        "core.write_host_us_p99",
        host_quantile(&["core.write", "geo.write"], 0.99),
    );
    // The first drain is the set-up's.
    layers.set(
        "core.drain_host_ms",
        ctx.spans
            .durations_of("core.drain")
            .first()
            .copied()
            .unwrap_or(0) as f64
            / 1e6,
    );
    let sim = ctx.sim.as_ref().expect("traced pass keeps a sim trace");
    layers.set(
        "trace.events",
        (sim.events + ctx.spans.kept.len() as u64 + ctx.spans.dropped) as f64,
    );
    layers.set("trace.dropped", (sim.dropped() + ctx.spans.dropped) as f64);
    layers.set("trace.overhead", ctx.lap_rate().0 / plain.ctx.lap_rate().0);
    let bench_self = ctx.spans.layers.get("bench").map_or(0, |l| l.self_ns) as f64;
    layers.set("bench.harness_share", bench_self / wall_ns);
    if let Some(bad) = layers.unknown().first() {
        failures.push(format!("layer metric '{bad}' is not defined"));
    }

    let mut report = String::new();
    report.push_str(&format!(
        "{:<12} {:>10} {:>12} {:>8}\n",
        "host layer", "calls", "self ms", "share"
    ));
    let total = ctx.spans.total_self_ns().max(1) as f64;
    for (layer, lt) in &ctx.spans.layers {
        report.push_str(&format!(
            "{:<12} {:>10} {:>12.3} {:>8.4}\n",
            layer,
            lt.calls,
            lt.self_ns as f64 / 1e6,
            lt.self_ns as f64 / total
        ));
    }
    report.push_str(&format!(
        "{:<12} {:>10} {:>12}\n",
        "sim layer", "events", "span ms"
    ));
    for (subsystem, (n, busy)) in &sim.by_subsystem {
        report.push_str(&format!(
            "{:<12} {:>10} {:>12.3}\n",
            subsystem,
            n,
            *busy as f64 / 1e6
        ));
    }
    for (source, dropped) in &sim.dropped_by_source {
        report.push_str(&format!("trace ring {source}: {dropped} events dropped\n"));
    }
    report.push_str(&format!(
        "host spans kept {}, dropped {}\n",
        ctx.spans.kept.len(),
        ctx.spans.dropped
    ));
    for (name, v, unit) in &layers.extras {
        report.push_str(&format!("{name} = {v} {unit}\n"));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&def| Reported {
            def,
            value: layers.get(def.name),
            samples: ctx.rec.attempted,
        })
        .collect();
    let chrome = Some(spans::chrome_json(&ctx.spans.kept, &sim.kept));
    Ok(Outcome {
        failures,
        attempted: ctx.rec.attempted,
        failed: ctx.rec.failed,
        fingerprint: t.fingerprint,
        metrics,
        report,
        chrome,
    })
}

/// The last stdout line: `correct`, `attempted`, `failed` and every metric
/// with its unit, each number with all its digits.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.def.name, m.value, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
