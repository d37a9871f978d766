//! Tracing for the traced run: host-time spans the benchmark records around
//! each call into a layer's public function, merged with the simulated-time
//! span rings the program already keeps.
//!
//! Spans are kept in memory and written at the end. A layer's self time is
//! its spans' durations minus the parts their child spans cover; it is
//! accumulated as spans close, so it stays exact when the kept-span buffer
//! is full.

use std::collections::BTreeMap;
use std::time::Instant;
use ys_simcore::SpanEvent;

/// Host spans kept for the Chrome trace; later spans are counted as dropped.
pub const HOST_SPAN_CAP: usize = 200_000;
/// Simulated span events kept for the Chrome trace.
pub const SIM_EVENT_CAP: usize = 200_000;

/// One closed host span.
#[derive(Clone, Copy, Debug)]
pub struct HostSpan {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operation id the span served (`u64::MAX` for none).
    pub op: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    op: u64,
}

/// Per-layer self time and call count.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub self_ns: u64,
    pub calls: u64,
}

/// Host-time span recorder. Disabled, every call is one branch.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    base: Instant,
    next_id: u64,
    stack: Vec<Open>,
    pub kept: Vec<HostSpan>,
    pub dropped: u64,
    /// Self time per layer (the span name's prefix before the first `.`).
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Duration of every closed span, by span name.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            base: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            layers: BTreeMap::new(),
            durations: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span named `layer.what` for operation `op`.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
            op,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let layer = open.name.split('.').next().unwrap_or(open.name);
        let lt = self.layers.entry(layer).or_default();
        lt.self_ns += dur.saturating_sub(open.child_ns);
        lt.calls += 1;
        self.durations.entry(open.name).or_default().push(dur);
        if self.kept.len() < HOST_SPAN_CAP {
            self.kept.push(HostSpan {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                op: open.op,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Run `f` inside a span.
    pub fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }

    /// Durations of spans named `name`, in ns.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.durations.get(name).cloned().unwrap_or_default()
    }

    /// Total self time over every layer.
    pub fn total_self_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }
}

/// Aggregate of the program's simulated-time span rings.
#[derive(Debug, Default)]
pub struct SimTrace {
    pub kept: Vec<SpanEvent>,
    pub events: u64,
    /// Ring-overflow drops, cumulative per source (rings report their own
    /// running total).
    pub dropped_by_source: BTreeMap<&'static str, u64>,
    /// Events and summed simulated span time per subsystem.
    pub by_subsystem: BTreeMap<&'static str, (u64, u64)>,
}

impl SimTrace {
    /// Fold one drained batch from `source` (whose ring reports `dropped`
    /// events lost so far).
    pub fn absorb(&mut self, source: &'static str, batch: (Vec<SpanEvent>, u64)) {
        let (events, dropped) = batch;
        self.dropped_by_source.insert(source, dropped);
        self.events += events.len() as u64;
        for e in &events {
            let s = self.by_subsystem.entry(e.subsystem).or_default();
            s.0 += 1;
            s.1 += e.dur.nanos();
        }
        let room = SIM_EVENT_CAP.saturating_sub(self.kept.len());
        self.kept.extend(events.into_iter().take(room));
    }

    pub fn dropped(&self) -> u64 {
        self.dropped_by_source.values().sum()
    }
}

/// One Chrome `trace_event` document: host spans as process 1 (host µs,
/// `args` carry span id, parent and op id) and the program's simulated
/// spans as process 0 (simulated µs, rendered by `ys_obs`).
pub fn chrome_json(host: &[HostSpan], sim: &[SpanEvent]) -> String {
    let sim_doc = ys_obs::chrome_trace_json(sim);
    let sim_events = sim_doc
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .unwrap_or("");
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(sim_events);
    for (i, s) in host.iter().enumerate() {
        if i > 0 || !sim_events.is_empty() {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = if s.op == u64::MAX {
            "null".to_string()
        } else {
            s.op.to_string()
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":0,\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.start_ns / 1000,
            s.start_ns % 1000,
            (s.end_ns - s.start_ns) / 1000,
            (s.end_ns - s.start_ns) % 1000,
            s.id,
            parent,
            op
        ));
    }
    out.push_str("]}");
    out
}
