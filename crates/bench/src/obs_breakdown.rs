//! Tests of the observability breakdown a published run carries: its
//! registry split by subsystem and by blade, as `ys-report --metrics`
//! prints it, and the per-tenant QoS ledger of the noisy-neighbor run.

#[cfg(test)]
mod tests {
    use ys_obs::MetricKey;

    #[test]
    fn breakdown_renders_subsystem_and_blade_tables() {
        // E4 collects its 16-blade run, whole cluster, into the registry.
        let reg = crate::experiments::e4_scaling().registry;
        for subsystem in ["core", "cache", "virt"] {
            assert!(
                reg.iter().any(|(k, _)| k.blade.is_none() && k.subsystem == subsystem),
                "no aggregate {subsystem} metrics"
            );
        }
        assert!(reg.gauge_value(&MetricKey::aggregate("cache", "hit_ratio")).is_some());
        for b in 0..16u32 {
            for (subsystem, name) in [("cache", "local_hits"), ("cache", "misses"), ("core", "cpu_util")] {
                let key = MetricKey::scoped(subsystem, b, name);
                assert!(reg.get(&key).is_some(), "per-blade {} missing", key.dotted());
            }
        }
        let json = reg.to_json();
        assert!(serde_json::parse_value(&json).is_ok(), "valid JSON: {json}");
        assert!(json.contains("\"subsystem\":\"cache\",\"name\":\"hit_ratio\""), "{json}");
        assert!(json.contains("\"subsystem\":\"core\",\"blade\":15,\"name\":\"cpu_util\""), "{json}");
    }

    #[test]
    fn chargeback_table_shows_class_and_shed_counts() {
        let report = crate::scenarios::noisy_neighbor();
        let text = report.render("noisy-neighbor");
        assert!(text.contains("admission ledger"));
        assert!(text.contains("premium"));
        assert!(text.contains("scavenger"));
        // The overdriven hog tenant must show policed requests.
        let hog_row = text.lines().find(|l| l.trim_start().starts_with("hog ")).expect("hog row");
        let cols: Vec<&str> = hog_row.split_whitespace().collect();
        let throttled: u64 = cols[cols.len() - 3].parse().expect("throttled");
        let shed: u64 = cols[cols.len() - 2].parse().expect("shed");
        assert!(throttled + shed > 0, "hog tenant was policed: {hog_row}");
        let chargeback = report
            .checkpoints
            .iter()
            .find(|c| c.claim.contains("charge-back reflects class and policing"))
            .expect("chargeback checkpoint");
        assert!(chargeback.pass, "{}", chargeback.render());
        assert!(chargeback.observed.starts_with("scavenger, "), "{}", chargeback.render());
    }
}
