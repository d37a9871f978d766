//! The `ys-report` CLI body, factored out of `src/bin/ys-report.rs` so the
//! library stays clock-free: the binary injects an elapsed-seconds reader
//! and the wall-clock exemption covers only that thin shim.

use crate::experiments::{registry, Experiment};
use std::io::{self, Write};

/// Exit status when any checkpoint fails (or the trace cannot be written).
pub const EXIT_FAIL: u8 = 1;
/// Exit status for an unknown id or flag.
pub const EXIT_USAGE: u8 = 2;

fn usage(experiments: &[Experiment]) -> String {
    let mut out = String::from(
        "usage: ys-report [ID...] [--trace-out PATH] [--metrics] [--list]\n\
         \n\
         experiments (no ID runs them all):\n",
    );
    for (id, title, _) in experiments {
        out.push_str(&format!("  {id:<16} {title}\n"));
    }
    out
}

/// Run `ys-report` with `args` (argv without the program name): each
/// selected experiment's series and checkpoints go to `out`, usage errors
/// to `err`. `elapsed` is sampled once for the trailing footer; pass
/// `|| 0.0` for byte-stable output. Returns the process exit status.
pub fn run_report(
    out: &mut impl Write,
    err: &mut impl Write,
    args: &[String],
    elapsed: impl Fn() -> f64,
) -> io::Result<u8> {
    let experiments = registry();
    let mut selected = vec![false; experiments.len()];
    let mut trace_out = None;
    let mut metrics = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                write!(out, "{}", usage(&experiments))?;
                return Ok(0);
            }
            "--metrics" => metrics = true,
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    write!(err, "--trace-out needs a path\n{}", usage(&experiments))?;
                    return Ok(EXIT_USAGE);
                }
            },
            id => match experiments.iter().position(|(known, _, _)| known.eq_ignore_ascii_case(id)) {
                Some(i) => selected[i] = true,
                None => {
                    write!(err, "unknown experiment or flag: {id}\n{}", usage(&experiments))?;
                    return Ok(EXIT_USAGE);
                }
            },
        }
    }

    let run_all = !selected.contains(&true);
    let mut failed = false;
    let mut events = Vec::new();
    for ((_, title, run), chosen) in experiments.iter().zip(selected) {
        if !(run_all || chosen) {
            continue;
        }
        let report = run();
        write!(out, "{}", report.render(title))?;
        if metrics {
            writeln!(out, "{}", report.registry.to_json())?;
        }
        failed |= !report.all_pass();
        events.extend(report.events);
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, ys_obs::chrome_trace_json(&events)) {
            writeln!(err, "cannot write {path}: {e}")?;
            return Ok(EXIT_FAIL);
        }
        writeln!(out, "chrome trace: {path} ({} events — load in chrome://tracing)", events.len())?;
    }
    writeln!(out, "(suite completed in {:.1}s)", elapsed())?;
    Ok(if failed { EXIT_FAIL } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> (u8, String, String) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_report(&mut out, &mut err, &args, || 0.0).expect("in-memory writes");
        (code, String::from_utf8(out).expect("utf-8"), String::from_utf8(err).expect("utf-8"))
    }

    #[test]
    fn unknown_ids_and_flags_exit_2_with_usage() {
        for args in [&["E99", "nope"][..], &["E1", "--obs"], &["--trace-out"]] {
            let (code, out, err) = run(args);
            assert_eq!(code, EXIT_USAGE, "{args:?}");
            assert!(out.is_empty(), "{args:?} ran something: {out}");
            assert!(err.contains("usage: ys-report"), "{args:?}: {err}");
        }
    }

    #[test]
    fn selected_ids_run_in_registry_order_and_pass() {
        let (code, out, _) = run(&["e6", "E3"]);
        assert_eq!(code, 0);
        let e3 = out.find("E3 Figure-3").expect("E3 ran");
        let e6 = out.find("E6 DMSD").expect("E6 ran");
        assert!(e3 < e6, "registry order, not argument order");
        assert!(out.contains("[PASS] §3: charge-back bills"));
        assert!(!out.contains("E1 Figure-1"));
    }

    #[test]
    fn metrics_prints_the_registry_as_json() {
        let (code, out, _) = run(&["E6", "--metrics"]);
        assert_eq!(code, 0);
        let json = out.lines().find(|l| l.starts_with('{')).expect("registry JSON line");
        assert!(serde_json::parse_value(json).is_ok(), "valid JSON: {json}");
        assert!(json.contains("pool_used_extents"), "{json}");
    }

    #[test]
    fn trace_out_writes_the_selected_runs_as_chrome_json() {
        let path = std::env::temp_dir().join(format!("ys-report-test-{}.trace.json", std::process::id()));
        let path_arg = path.to_string_lossy().into_owned();
        let (code, out, _) = run(&["E1", "--trace-out", &path_arg]);
        assert_eq!(code, 0);
        assert!(out.contains("chrome trace: "), "{out}");
        let json = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let events = match serde_json::parse_value(&json).expect("valid JSON").get("traceEvents") {
            Some(serde_json::Value::Arr(a)) => a.len(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(events, crate::experiments::e1_striping().events.len());
    }

    #[test]
    fn list_names_every_registry_entry() {
        let (code, out, _) = run(&["--list"]);
        assert_eq!(code, 0);
        for (id, _, _) in registry() {
            assert!(out.contains(&format!("  {id} ")), "{id} missing from --list");
        }
    }
}
