//! The benchmark's own checks: seeded generators, short smoke runs of every
//! workload with all correctness checks, same-seed fingerprint identity,
//! and agreement between the metrics printed and `BENCHMARK.json`.

use perfbench::gen::{FileGen, HotGen, UniformGen};
use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::workloads::WORKLOADS;
use perfbench::{result_json, run, Options, Outcome};
use serde_json::Value;

/// Operations per smoke run: enough to reach every phase of the workload
/// (the repair workload fails a disk at a tenth and a blade at eight
/// tenths of its budget).
fn smoke_ops(workload: &str) -> u64 {
    match workload {
        "cache-hot" => 20_000,
        "disk-mix" => 5_000,
        "geo-stream" => 600,
        _ => 4_000,
    }
}

fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
    let o = Options {
        workload: workload.into(),
        seed,
        ops: smoke_ops(workload),
        setups: 1,
        trace,
    };
    run(&o).expect("known workload")
}

#[test]
fn generators_are_a_pure_function_of_the_seed() {
    let hot = |seed| {
        let mut g = HotGen::new(seed, 1024, 4096, 0.05);
        (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
    };
    let uniform = |seed| {
        let mut g = UniformGen::new(seed, 100, 800, 4096, 0.7);
        (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
    };
    let files = |seed| {
        let mut g = FileGen::new(seed, 8, 24);
        (0..200)
            .map(|i| (g.next_file_ops(), g.pick(i + 1)))
            .collect::<Vec<_>>()
    };
    assert_eq!(hot(7), hot(7));
    assert_ne!(hot(7), hot(8));
    assert_eq!(uniform(7), uniform(7));
    assert_ne!(uniform(7), uniform(8));
    assert_eq!(files(7), files(7));
    assert_ne!(files(7), files(8));
}

#[test]
fn every_workload_passes_a_smoke_run() {
    for w in WORKLOADS {
        let out = smoke(w, 3, false);
        assert!(out.correct(), "{w}: {:?}", out.failures);
        assert_eq!(out.failed, 0, "{w}: no operation may fail");
        assert!(
            out.attempted >= smoke_ops(w),
            "{w}: ran {} ops",
            out.attempted
        );
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w}: {} = {}",
                m.def.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_pass_and_match_the_untraced_fingerprint() {
    // The traced run checks traced-vs-untraced fingerprint identity itself.
    for w in WORKLOADS {
        let out = smoke(w, 5, true);
        assert!(out.correct(), "{w}: {:?}", out.failures);
        assert!(out
            .chrome
            .as_deref()
            .is_some_and(|c| c.starts_with("{\"traceEvents\":[")));
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.def.name == name)
                .map(|m| m.value)
        };
        assert!(
            value("trace.events").is_some_and(|v| v > 0.0),
            "{w}: no trace events"
        );
    }
}

#[test]
fn same_seed_runs_give_identical_fingerprints() {
    for w in WORKLOADS {
        let (a, b) = (smoke(w, 11, false), smoke(w, 11, false));
        assert_eq!(a.fingerprint, b.fingerprint, "{w}");
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if x.def.name.starts_with("sim.") {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{w}: {}", x.def.name);
            }
        }
        assert_ne!(
            a.fingerprint,
            smoke(w, 12, false).fingerprint,
            "{w}: the seed must matter"
        );
    }
}

fn listed(section: &str) -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Arr(items)) = doc.get(section) else {
        panic!("{section} is a list")
    };
    items
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    assert_eq!(listed("end_to_end"), defined(&END_TO_END));
    assert_eq!(listed("per_layer"), defined(&PER_LAYER));
    for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let out = smoke("cache-hot", 1, trace);
        let json = serde_json::parse_value(&result_json(&out)).expect("result line parses");
        let Some(Value::Obj(metrics)) = json.get("metrics") else {
            panic!("metrics object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
    }
}
