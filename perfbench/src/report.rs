//! Metric names, units and the result line.
//!
//! Every workload prints every metric of its mode, so the tables below
//! are the single list `BENCHMARK.json` mirrors. An end-to-end metric
//! that a run cannot measure fails the run; a per-layer metric of a
//! layer the workload does not cross reads 0 and is named under
//! `not_measured` in the properties line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("read_p50_us", "us")];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Figures of the untraced phase of the traced run that do not repeat
    // closely enough to gate on, or exist on only some workloads.
    ("throughput_ops_s", "ops/s"),
    ("write_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("read_p99_us", "us"),
    ("write_p99_us", "us"),
    ("image_p50_us", "us"),
    ("derived_write_p50_us", "us"),
    ("derived_write_p99_us", "us"),
    ("txn_p50_us", "us"),
    ("failed_op_share", "ratio"),
    ("wal_bytes_per_write", "bytes"),
    ("recovery_s", "s"),
    // fdb-lang
    ("lang.parse_ns", "ns"),
    ("lang.lower_ns", "ns"),
    ("lang.execute_ns.read", "ns"),
    ("lang.execute_ns.write", "ns"),
    ("lang.execute_ns.derived_write", "ns"),
    ("lang.execute_ns.txn", "ns"),
    ("lang.frontend_share", "ratio"),
    // fdb-exec
    ("exec.cache_hit_ratio", "ratio"),
    ("exec.cache_invalidations_per_kop", "count"),
    ("exec.plan_ns", "ns"),
    ("exec.execute_ns", "ns"),
    ("exec.rows_examined_per_chain", "count"),
    // fdb-core query
    ("core.truth_ns", "ns"),
    // fdb-storage
    ("storage.index_probes_per_op", "count"),
    ("storage.table_scans_per_op", "count"),
    ("storage.ncs_created_per_kop", "count"),
    ("storage.null_substitutions_per_kop", "count"),
    ("storage.undo_bytes_per_txn", "bytes"),
    ("storage.ncs_live", "count"),
    ("storage.null_facts_live", "count"),
    // fdb-core shared (MVCC)
    ("mvcc.pin_ns", "ns"),
    ("mvcc.publishes_per_write", "count"),
    ("mvcc.stale_read_share", "ratio"),
    ("mvcc.unpin_ns", "ns"),
    ("mvcc.detach_ns", "ns"),
    // fdb-core WAL / durability
    ("wal.fsync_ns", "ns"),
    ("wal.fsyncs_per_write", "count"),
    ("wal.checkpoints_per_kwrite", "count"),
    ("commit.group_wait_ns", "ns"),
    ("commit.fsyncs_saved_share", "ratio"),
    // harness
    ("unattributed_share.read", "ratio"),
    ("unattributed_share.image", "ratio"),
    ("unattributed_share.write", "ratio"),
    ("unattributed_share.derived_write", "ratio"),
    ("unattributed_share.txn", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    properties: Vec<(String, String)>,
    problems: Vec<String>,
}

impl Report {
    /// Records a metric; `None` (not measurable in this run) leaves it
    /// unset.
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.values.insert(name, v);
        }
    }

    /// Records an input property; `value` must already be JSON.
    pub fn property(&mut self, key: &str, value: impl ToString) {
        self.properties.push((key.to_owned(), value.to_string()));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The properties line, then the result line. An end-to-end metric
    /// left unset is a failed run.
    pub fn render(mut self, trace: bool) -> (String, String) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut missing = Vec::new();
        for &(name, _) in table {
            if !self.values.contains_key(name) {
                missing.push(name);
            }
        }
        if !trace {
            for name in &missing {
                self.problems
                    .push(format!("end-to-end metric {name} could not be measured"));
            }
        }
        let names: Vec<String> = missing.iter().map(|n| json_str(n)).collect();
        self.property("not_measured", format!("[{}]", names.join(", ")));

        let mut props = String::from("{\"properties\": {");
        for (i, (k, v)) in self.properties.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(props, "{sep}{}: {v}", json_str(k));
        }
        props.push_str("}}");

        let mut metrics = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            );
        }
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        );
        (props, result)
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits (Rust's shortest round-trip
/// form).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Process-wide registry counters, by key.
pub fn counters() -> BTreeMap<&'static str, u64> {
    fdb_obs::registry()
        .counters()
        .into_iter()
        .map(|(k, c)| (k, c.get()))
        .collect()
}

/// Counter increments between two [`counters`] readings.
#[derive(Debug, Default)]
pub struct Deltas(BTreeMap<&'static str, u64>);

impl Deltas {
    pub fn between(
        before: &BTreeMap<&'static str, u64>,
        after: &BTreeMap<&'static str, u64>,
    ) -> Self {
        Deltas(
            after
                .iter()
                .map(|(k, v)| (*k, v.saturating_sub(before.get(k).copied().unwrap_or(0))))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// `key`'s increment per `per` events, scaled by `scale`; `None`
    /// when there were no events.
    pub fn rate(&self, key: &str, per: u64, scale: f64) -> Option<f64> {
        (per > 0).then(|| self.get(key) as f64 * scale / per as f64)
    }
}

/// Peak resident memory of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut r = Report::default();
        for &(name, _) in END_TO_END {
            r.set(name, Some(1.5));
        }
        r.attempted = 10;
        let (_, line) = r.render(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn unmeasured_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", Some(0.25));
        let (props, line) = r.render(false);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(props.contains("\"read_p50_us\""));
    }

    #[test]
    fn unmeasured_layer_reads_zero_and_is_named() {
        let (props, line) = Report::default().render(true);
        assert!(line.starts_with("{\"correct\": true"));
        assert!(line.contains("\"wal.fsync_ns\": {\"value\": 0.0, \"unit\": \"ns\"}"));
        assert!(props.contains("\"wal.fsync_ns\""));
    }

    /// `BENCHMARK.json` at the repository root names exactly these
    /// metrics, with these units.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let count = json.matches("\"unit\"").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }
}
