//! Declarative simulation specs: a JSON description of a cluster, a
//! workload, and a fault schedule, so operators can explore configurations
//! without writing Rust (`cargo run -p ys-bench --bin simulate -- spec.json`).
//!
//! [`SimSpec::run`] keeps one operation outstanding: op `i` is issued, from
//! host port `i % clients`, when op `i - 1` completes. `clients` therefore
//! only picks host ports and adds no concurrency. Faults replay by simulated
//! time against that serial clock.

use serde::{DeError, Deserialize, Serialize, Value};
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig, LoadBalance};
use ys_proto::Workload;
use ys_raid::RaidLevel;
use ys_simcore::time::{SimDuration, SimTime};
use ys_simdisk::DiskId;

// The serde shim has no derive macros (no proc-macro stack offline), so the
// spec types implement Deserialize by hand: lowercase enum names,
// snake_case externally tagged fault variants, per-field defaults, unknown
// fields ignored.

/// Read `key` from a JSON object, falling back to `default` when absent.
fn field<T: Deserialize>(v: &Value, key: &str, default: impl FnOnce() -> T) -> Result<T, DeError> {
    match v.get(key) {
        Some(inner) => {
            T::from_value(inner).map_err(|e| DeError::custom(format!("field `{key}`: {e}")))
        }
        None => Ok(default()),
    }
}

/// Read `key` as one of the `names`, falling back to `default` when absent.
fn named<T: Copy>(v: &Value, key: &str, default: T, names: &[(&str, T)]) -> Result<T, DeError> {
    let Some(inner) = v.get(key) else { return Ok(default) };
    let name = inner.as_str().unwrap_or_default();
    match names.iter().find(|(n, _)| *n == name) {
        Some(&(_, value)) => Ok(value),
        None => {
            let expected: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
            Err(DeError::custom(format!("field `{key}`: unknown value {name:?}, expected one of {expected:?}")))
        }
    }
}

const RAID_LEVELS: &[(&str, RaidLevel)] = &[
    ("raid0", RaidLevel::Raid0),
    ("raid1", RaidLevel::Raid1 { copies: 2 }),
    ("raid5", RaidLevel::Raid5),
    ("raid6", RaidLevel::Raid6),
];

const LOAD_BALANCE: &[(&str, LoadBalance)] = &[
    ("round_robin", LoadBalance::RoundRobin),
    ("page_affinity", LoadBalance::PageAffinity),
    ("pinned", LoadBalance::PinnedByVolume),
];

/// Workload pattern by name.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PatternSpec {
    Sequential,
    Random,
    Zipf,
}

const PATTERNS: &[(&str, PatternSpec)] = &[
    ("sequential", PatternSpec::Sequential),
    ("random", PatternSpec::Random),
    ("zipf", PatternSpec::Zipf),
];

/// One scheduled fault, externally tagged:
/// `{"blade_fail": {"at_ms": 10, "blade": 0}}`.
#[derive(Clone, Copy, Debug)]
pub enum FaultSpec {
    BladeFail { at_ms: u64, blade: usize },
    BladeRepair { at_ms: u64, blade: usize },
    DiskFail { at_ms: u64, disk: usize },
}

impl FaultSpec {
    /// Simulated time the fault is due.
    fn at(&self) -> SimTime {
        let (FaultSpec::BladeFail { at_ms, .. }
        | FaultSpec::BladeRepair { at_ms, .. }
        | FaultSpec::DiskFail { at_ms, .. }) = *self;
        SimTime::ZERO + SimDuration::from_millis(at_ms)
    }
}

impl Deserialize for FaultSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = match v {
            Value::Obj(entries) if entries.len() == 1 => entries,
            _ => return Err(DeError::custom("fault must be a single-key tagged object")),
        };
        let (tag, body) = &entries[0];
        let at_ms = field(body, "at_ms", || 0u64)?;
        match tag.as_str() {
            "blade_fail" => Ok(FaultSpec::BladeFail { at_ms, blade: field(body, "blade", || 0)? }),
            "blade_repair" => {
                Ok(FaultSpec::BladeRepair { at_ms, blade: field(body, "blade", || 0)? })
            }
            "disk_fail" => Ok(FaultSpec::DiskFail { at_ms, disk: field(body, "disk", || 0)? }),
            other => Err(DeError::custom(format!("unknown fault kind {other:?}"))),
        }
    }
}

/// The whole scenario. Every field is optional in JSON; absent fields take
/// the defaults in the `Deserialize` impl. Values the cluster or workload
/// could not be built from are rejected there, naming the field.
///
/// `clients` is the number of host ports ops rotate over, not a count of
/// concurrent streams: the runner keeps one operation outstanding (see the
/// module docs).
#[derive(Clone, Debug)]
pub struct SimSpec {
    pub blades: usize,
    pub disks: usize,
    pub clients: usize,
    pub raid: RaidLevel,
    pub cache_mb_per_blade: usize,
    pub prefetch_pages: usize,
    pub write_copies: usize,
    pub load_balance: LoadBalance,
    pub pattern: PatternSpec,
    pub working_set_mb: u64,
    pub io_kb: u64,
    pub write_fraction: f64,
    pub zipf_theta: f64,
    pub ops: usize,
    pub seed: u64,
    pub faults: Vec<FaultSpec>,
}

impl Deserialize for SimSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Obj(_)) {
            return Err(DeError::custom("spec must be a JSON object"));
        }
        let spec = SimSpec {
            blades: field(v, "blades", || 4)?,
            disks: field(v, "disks", || 16)?,
            clients: field(v, "clients", || 8)?,
            raid: named(v, "raid", RaidLevel::Raid5, RAID_LEVELS)?,
            cache_mb_per_blade: field(v, "cache_mb_per_blade", || 256)?,
            prefetch_pages: field(v, "prefetch_pages", || 0)?,
            write_copies: field(v, "write_copies", || 2)?,
            load_balance: named(v, "load_balance", LoadBalance::RoundRobin, LOAD_BALANCE)?,
            pattern: named(v, "pattern", PatternSpec::Random, PATTERNS)?,
            working_set_mb: field(v, "working_set_mb", || 256)?,
            io_kb: field(v, "io_kb", || 64)?,
            write_fraction: field(v, "write_fraction", || 0.3)?,
            zipf_theta: field(v, "zipf_theta", || 0.99)?,
            ops: field(v, "ops", || 2000)?,
            seed: field(v, "seed", || 42)?,
            faults: field(v, "faults", Vec::new)?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The numbers a run produces.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    pub ops_completed: u64,
    pub ops_failed: u64,
    pub availability: f64,
    pub mb_moved: f64,
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub write_p99_ms: f64,
    pub dirty_pages_lost: u64,
    pub cache_local_hits: u64,
    pub cache_remote_hits: u64,
    pub disk_reads: u64,
}

impl Serialize for SimOutcome {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("ops_completed".to_owned(), self.ops_completed.to_value()),
            ("ops_failed".to_owned(), self.ops_failed.to_value()),
            ("availability".to_owned(), self.availability.to_value()),
            ("mb_moved".to_owned(), self.mb_moved.to_value()),
            ("read_p50_ms".to_owned(), self.read_p50_ms.to_value()),
            ("read_p99_ms".to_owned(), self.read_p99_ms.to_value()),
            ("write_p99_ms".to_owned(), self.write_p99_ms.to_value()),
            ("dirty_pages_lost".to_owned(), self.dirty_pages_lost.to_value()),
            ("cache_local_hits".to_owned(), self.cache_local_hits.to_value()),
            ("cache_remote_hits".to_owned(), self.cache_remote_hits.to_value()),
            ("disk_reads".to_owned(), self.disk_reads.to_value()),
        ])
    }
}

impl SimSpec {
    /// Reject the values `BladeCluster::new`, the workload constructors or
    /// the fault replay would panic on.
    fn validate(&self) -> Result<(), DeError> {
        let min_disks = self.raid.min_members();
        // Byte sizes that overflow read as 0, so they fail the checks below.
        let io_bytes = self.io_kb.checked_mul(1 << 10).unwrap_or(0);
        let working_set_bytes = self.working_set_mb.checked_mul(1 << 20).unwrap_or(0);
        let checks = [
            ("blades", self.blades >= 1, "must be at least 1".to_owned()),
            ("clients", self.clients >= 1, "must be at least 1".to_owned()),
            ("disks", self.disks >= min_disks, format!("{:?} needs at least {min_disks} disks", self.raid)),
            ("io_kb", io_bytes >= 1, "must be at least 1 and fit in 64-bit bytes".to_owned()),
            ("write_copies", self.write_copies >= 1, "must be at least 1".to_owned()),
            (
                "working_set_mb",
                working_set_bytes >= io_bytes,
                "must fit in 64-bit bytes and hold at least one `io_kb` I/O".to_owned(),
            ),
            ("write_fraction", (0.0..=1.0).contains(&self.write_fraction), "must lie in [0, 1]".to_owned()),
            ("zipf_theta", self.zipf_theta >= 0.0, "must be non-negative".to_owned()),
        ];
        if let Some((key, _, why)) = checks.into_iter().find(|(_, ok, _)| !ok) {
            return Err(DeError::custom(format!("field `{key}`: {why}")));
        }
        for f in &self.faults {
            let (unit, index, count, at_ms) = match *f {
                FaultSpec::BladeFail { blade, at_ms } | FaultSpec::BladeRepair { blade, at_ms } => {
                    ("blade", blade, self.blades, at_ms)
                }
                FaultSpec::DiskFail { disk, at_ms } => ("disk", disk, self.disks, at_ms),
            };
            if at_ms.checked_mul(1_000_000).is_none() {
                return Err(DeError::custom(format!("field `faults`: at_ms {at_ms} overflows simulated time")));
            }
            if index >= count {
                return Err(DeError::custom(format!(
                    "field `faults`: {unit} {index} does not exist ({count} {unit}s)"
                )));
            }
        }
        Ok(())
    }

    pub fn to_cluster_config(&self) -> ClusterConfig {
        ClusterConfig::default()
            .with_blades(self.blades)
            .with_disks(self.disks)
            .with_clients(self.clients)
            .with_raid(self.raid)
            .with_cache_pages(self.cache_mb_per_blade * 16) // 64 KiB pages
            .with_load_balance(self.load_balance)
            .with_prefetch(self.prefetch_pages)
            .with_write_copies(self.write_copies)
    }

    pub fn to_workload(&self) -> Workload {
        let extent = self.working_set_mb << 20;
        let io = self.io_kb << 10;
        match self.pattern {
            PatternSpec::Sequential => Workload::sequential(extent, io, self.seed),
            PatternSpec::Random => Workload::random(extent, io, self.write_fraction, self.seed),
            PatternSpec::Zipf => Workload::zipf(extent, io, self.zipf_theta, self.write_fraction, self.seed),
        }
    }

    /// Run the scenario to completion.
    pub fn run(&self) -> SimOutcome {
        self.run_on_cluster().0
    }

    /// Run the scenario and also return the cluster the run left behind.
    ///
    /// One operation is outstanding at a time. Before each op, every fault
    /// due at or before the current time is applied; faults replay in
    /// `at_ms` order, ties in file order. A failed op advances the clock by
    /// 1 ms (the client retries after a beat).
    fn run_on_cluster(&self) -> (SimOutcome, BladeCluster) {
        let mut cluster = BladeCluster::new(self.to_cluster_config());
        let vol = cluster
            .create_volume("spec", 0, (self.working_set_mb << 20).max(1 << 30))
            .expect("volume");
        let mut faults = self.faults.clone();
        faults.sort_by_key(FaultSpec::at); // stable: ties keep file order
        let mut faults = faults.into_iter().peekable();
        let mut workload = self.to_workload();
        let (mut completed, mut failed, mut bytes_moved) = (0u64, 0u64, 0u64);
        let mut t = SimTime::ZERO;
        for i in 0..self.ops {
            while let Some(f) = faults.next_if(|f| f.at() <= t) {
                match f {
                    FaultSpec::BladeFail { blade, .. } => {
                        cluster.fail_blade(t, blade);
                    }
                    FaultSpec::BladeRepair { blade, .. } => cluster.repair_blade(blade),
                    FaultSpec::DiskFail { disk, .. } => cluster.fail_disk(DiskId(disk)),
                }
            }
            let op = workload.next_op();
            let client = i % self.clients;
            let outcome = if op.write {
                cluster.write(t, client, vol, op.offset, op.len, self.write_copies, Retention::Normal)
            } else {
                cluster.read(t, client, vol, op.offset, op.len)
            };
            match outcome {
                Ok(c) => {
                    completed += 1;
                    bytes_moved += op.len;
                    t = c.done;
                }
                Err(_) => {
                    failed += 1;
                    t += SimDuration::from_millis(1);
                }
            }
        }
        let total = completed + failed;
        let stats = &cluster.stats;
        let outcome = SimOutcome {
            ops_completed: completed,
            ops_failed: failed,
            availability: if total == 0 { 1.0 } else { completed as f64 / total as f64 },
            mb_moved: bytes_moved as f64 / 1e6,
            read_p50_ms: stats.read_latency.p50().as_millis_f64(),
            read_p99_ms: stats.read_latency.p99().as_millis_f64(),
            write_p99_ms: stats.write_latency.p99().as_millis_f64(),
            dirty_pages_lost: stats.dirty_pages_lost,
            cache_local_hits: stats.reads_from_local_cache,
            cache_remote_hits: stats.reads_from_remote_cache,
            disk_reads: stats.reads_from_disk,
        };
        (outcome, cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> SimSpec {
        serde_json::from_str(json).unwrap_or_else(|e| panic!("{json}: {e}"))
    }

    #[test]
    fn defaults_round_trip_through_json() {
        let spec = parse("{}");
        assert_eq!(spec.blades, 4);
        assert_eq!(spec.raid, RaidLevel::Raid5);
        // Spelling every default out parses to the same spec.
        let explicit = parse(
            r#"{
                "blades": 4, "disks": 16, "clients": 8, "raid": "raid5",
                "cache_mb_per_blade": 256, "prefetch_pages": 0, "write_copies": 2,
                "load_balance": "round_robin", "pattern": "random",
                "working_set_mb": 256, "io_kb": 64, "write_fraction": 0.3,
                "zipf_theta": 0.99, "ops": 2000, "seed": 42, "faults": []
            }"#,
        );
        assert_eq!(format!("{explicit:?}"), format!("{spec:?}"));
    }

    #[test]
    fn malformed_specs_are_rejected_naming_the_field() {
        for (json, key) in [
            (r#"{"faults": [{"disk_fail": {"disk": 99}}]}"#, "faults"),
            (r#"{"faults": [{"blade_fail": {"blade": 9}}]}"#, "faults"),
            (r#"{"faults": [{"blade_repair": {"blade": 4}}]}"#, "faults"),
            (r#"{"faults": [{"disk_repair": {"disk": 0}}]}"#, "faults"),
            (r#"{"faults": [{"disk_fail": {"at_ms": 18446744073709551615}}]}"#, "faults"),
            (r#"{"blades": 0}"#, "blades"),
            (r#"{"clients": 0}"#, "clients"),
            (r#"{"disks": 1}"#, "disks"),
            (r#"{"raid": "raid6", "disks": 3}"#, "disks"),
            (r#"{"raid": "raid7"}"#, "raid"),
            (r#"{"io_kb": 0}"#, "io_kb"),
            (r#"{"write_copies": 0}"#, "write_copies"),
            (r#"{"working_set_mb": 0}"#, "working_set_mb"),
            (r#"{"working_set_mb": 1, "io_kb": 1025}"#, "working_set_mb"),
            (r#"{"working_set_mb": 17592186044417}"#, "working_set_mb"),
            (r#"{"io_kb": 18014398509481985}"#, "io_kb"),
            (r#"{"write_fraction": 1.5}"#, "write_fraction"),
            (r#"{"zipf_theta": -1}"#, "zipf_theta"),
            (r#"{"load_balance": "pinnned"}"#, "load_balance"),
            (r#"{"pattern": "zipfian"}"#, "pattern"),
        ] {
            let err = match serde_json::from_str::<SimSpec>(json) {
                Ok(spec) => panic!("{json} parsed: {spec:?}"),
                Err(e) => e.to_string(),
            };
            assert!(err.contains(&format!("field `{key}`")), "{json}: error {err:?} does not name `{key}`");
        }
    }

    #[test]
    fn spec_runs_and_reports() {
        let spec = parse(
            r#"{
                "blades": 4, "disks": 8, "ops": 300, "working_set_mb": 64,
                "pattern": "zipf", "zipf_theta": 0.9,
                "faults": [{"blade_fail": {"at_ms": 10, "blade": 0}}]
            }"#,
        );
        let out = spec.run();
        assert_eq!(out.ops_completed + out.ops_failed, 300);
        assert_eq!(out.availability, 1.0, "one blade failure never refuses service");
        assert_eq!(out.dirty_pages_lost, 0);
        assert!(out.read_p99_ms > 0.0);
    }

    #[test]
    fn same_spec_same_outcome() {
        let spec = parse(r#"{"ops": 200, "working_set_mb": 32}"#);
        let a = serde_json::to_string(&spec.run()).unwrap();
        let b = serde_json::to_string(&spec.run()).unwrap();
        assert_eq!(a, b, "spec runs are deterministic");
    }

    // §6.3: "if any given portion of the system failed, access to data
    // would continue through remaining portions". Each run below is a
    // 6-blade, 12-disk, 4-client cluster under 64 KiB random I/O over a
    // 64 MiB working set.

    #[test]
    fn no_faults_full_availability() {
        let out = parse(
            r#"{"blades": 6, "disks": 12, "clients": 4, "working_set_mb": 64, "io_kb": 64,
                "write_fraction": 0.5, "seed": 1, "ops": 200, "write_copies": 2}"#,
        )
        .run();
        assert_eq!(out.availability, 1.0);
        assert_eq!(out.ops_completed, 200);
        assert_eq!(out.dirty_pages_lost, 0);
    }

    #[test]
    fn blade_churn_is_absorbed_without_loss() {
        // Blades fail and return staggered through the run.
        let (out, mut cluster) = parse(
            r#"{"blades": 6, "disks": 12, "clients": 4, "working_set_mb": 64, "io_kb": 64,
                "write_fraction": 0.5, "seed": 2, "ops": 300, "write_copies": 2,
                "faults": [
                    {"blade_fail":   {"at_ms": 20,  "blade": 0}},
                    {"blade_repair": {"at_ms": 120, "blade": 0}},
                    {"blade_fail":   {"at_ms": 140, "blade": 1}},
                    {"blade_repair": {"at_ms": 260, "blade": 1}}
                ]}"#,
        )
        .run_on_cluster();
        // All four faults replayed: both failures promoted dirty replicas,
        // and both repairs left every blade up (only a down blade can be
        // revived).
        assert!(cluster.stats.dirty_pages_promoted > 0);
        for b in 0..6 {
            assert!(cluster.revive_blade(b).is_err(), "blade {b} is still down");
        }
        assert_eq!(out.availability, 1.0, "non-overlapping single failures never refuse service");
        assert_eq!(out.dirty_pages_lost, 0, "2-way replication absorbs each single failure");
    }

    #[test]
    fn disk_failure_mid_run_degrades_but_serves() {
        let (out, cluster) = parse(
            r#"{"blades": 6, "disks": 12, "clients": 4, "working_set_mb": 64, "io_kb": 64,
                "write_fraction": 0.3, "seed": 3, "ops": 300, "write_copies": 2,
                "faults": [{"disk_fail": {"at_ms": 30, "disk": 4}}]}"#,
        )
        .run_on_cluster();
        assert_eq!(out.availability, 1.0, "RAID5 serves degraded");
        assert!(cluster.failed_disks()[4]);
    }

    #[test]
    fn total_blade_loss_refuses_service_until_repair() {
        let (out, cluster) = parse(
            r#"{"blades": 6, "disks": 12, "clients": 4, "working_set_mb": 64, "io_kb": 64,
                "write_fraction": 0.0, "seed": 4, "ops": 300, "write_copies": 1,
                "faults": [
                    {"blade_fail":   {"at_ms": 10,  "blade": 0}},
                    {"blade_fail":   {"at_ms": 10,  "blade": 1}},
                    {"blade_fail":   {"at_ms": 10,  "blade": 2}},
                    {"blade_fail":   {"at_ms": 10,  "blade": 3}},
                    {"blade_fail":   {"at_ms": 10,  "blade": 4}},
                    {"blade_fail":   {"at_ms": 10,  "blade": 5}},
                    {"blade_repair": {"at_ms": 200, "blade": 0}}
                ]}"#,
        )
        .run_on_cluster();
        assert!(out.ops_failed > 0, "no blades = no service");
        assert!(out.ops_completed > 0, "service resumes after repair");
        assert!(out.availability < 1.0);
        assert_eq!(cluster.any_up_blade(), Some(0), "only the repaired blade is back");
    }

    #[test]
    fn faults_replay_in_time_order_and_ties_keep_file_order() {
        // A one-blade cluster refuses service exactly while its blade is down.
        let run = |faults: &str| {
            parse(&format!(
                r#"{{"blades": 1, "disks": 12, "clients": 4, "working_set_mb": 64,
                    "write_fraction": 0.0, "seed": 5, "ops": 300, "faults": [{faults}]}}"#
            ))
            .run()
        };
        let fail = |ms: u64| format!(r#"{{"blade_fail": {{"at_ms": {ms}, "blade": 0}}}}"#);
        let repair = |ms: u64| format!(r#"{{"blade_repair": {{"at_ms": {ms}, "blade": 0}}}}"#);
        let in_order = run(&[fail(10), repair(50), fail(80), repair(80)].join(","));
        let shuffled = run(&[repair(50), fail(80), fail(10), repair(80)].join(","));
        let tie_flipped = run(&[fail(10), repair(50), repair(80), fail(80)].join(","));
        // Down from 10 ms to 50 ms, one retry per ms; the fail+repair tie at
        // 80 ms leaves the blade up.
        assert!((35..=40).contains(&in_order.ops_failed), "{in_order:?}");
        assert_eq!(format!("{shuffled:?}"), format!("{in_order:?}"), "listing order is irrelevant");
        // Flipping the tie replays the repair first, so the blade stays
        // down from 80 ms on.
        assert!(tie_flipped.ops_failed > in_order.ops_failed, "{tie_flipped:?}");
    }
}

#[cfg(test)]
mod scenario_file_tests {
    use super::*;

    /// Every checked-in scenario file must parse and run.
    #[test]
    fn shipped_scenario_files_are_valid() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut found = 0;
        for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
            let path = entry.unwrap().path();
            if path.extension().map(|e| e == "json").unwrap_or(false) {
                let text = std::fs::read_to_string(&path).unwrap();
                let spec: SimSpec = serde_json::from_str(&text)
                    .unwrap_or_else(|e| panic!("{path:?} does not parse: {e}"));
                // Shrink ops for test speed; the shape is what we validate.
                let spec = SimSpec { ops: spec.ops.min(300), ..spec };
                let out = spec.run();
                assert_eq!(out.ops_completed + out.ops_failed, spec.ops as u64, "{path:?}");
                found += 1;
            }
        }
        assert!(found >= 2, "scenario files missing");
    }
}
