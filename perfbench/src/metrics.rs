//! The metric names the benchmark prints, with their units, and the JSON result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test below and `run.py`
//! both check that the two agree.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("job_ms_p50", "ms"),
    ("max_jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. `trace.overhead_frac` is missing here: it
/// compares a traced with an untraced run, so `run.py` derives it from the two.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.spawn_ns_per_task", "ns"),
    ("runtime.retire_ns_per_task", "ns"),
    ("runtime.allocs_per_task", "count"),
    ("runtime.tasks_per_solve", "count"),
    ("runtime.ready_wait_us_p50", "us"),
    ("runtime.ready_wait_us_p99", "us"),
    ("engine.accesses_per_task", "count"),
    ("engine.release_edges", "count"),
    ("engine.satisfaction_edges", "count"),
    ("engine.incremental_releases", "count"),
    ("engine.ready_at_registration", "count"),
    ("regions.exact_hits", "count"),
    ("regions.promotions", "count"),
    ("regions.fragmented_updates", "count"),
    ("regions.demotions", "count"),
    ("regions.exact_hit_frac", "fraction"),
    ("kernels.leaf_body_ms_per_solve", "ms"),
    ("kernels.gbytes_per_s_computed", "GB/s"),
    ("kernels.seq_ms", "ms"),
    ("kernels.speedup_vs_seq", "x"),
    ("pool.slot_hit_frac", "fraction"),
    ("pool.steals", "count"),
    ("pool.busy_frac", "fraction"),
    ("pool.idle_ms_per_solve", "ms"),
    ("jobs.latency_ms_p99", "ms"),
    ("jobs.submit_us_p50", "us"),
    ("jobs.start_lag_us_p50", "us"),
    ("jobs.start_lag_us_p99", "us"),
    ("jobs.generator_lag_ms_p99", "ms"),
    ("assist.chunk_frac", "fraction"),
    ("assist.chunks", "count"),
    ("assist.loops", "count"),
    ("assist.loop_ms_p50", "ms"),
    ("admission.blocked", "count"),
    ("admission.submit_us_p99", "us"),
    ("capacity.task_table_slots_max", "count"),
    ("capacity.pending_slots_max", "count"),
];

/// Values for one of the metric lists above, printed in list order.
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set for the end-to-end or the per-layer list.
    pub fn new(traced: bool) -> Self {
        let names = if traced { PER_LAYER } else { END_TO_END };
        Metrics {
            names,
            values: vec![None; names.len()],
        }
    }

    /// Records `value` under `name`, which must be on this set's list.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .names
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not on the list being reported"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[index] = Some(value);
    }

    /// The `"metrics"` object of the result line. Panics if a metric was never set: every run
    /// prints the whole list.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (&(name, unit), value)) in self.names.iter().zip(&self.values).enumerate() {
            let value = value.unwrap_or_else(|| panic!("metric {name} was not measured"));
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// Run metadata: named JSON values, printed as the result's `"meta"` object.
#[derive(Default)]
pub struct Meta(Vec<(String, String)>);

impl Meta {
    /// Records a string value.
    pub fn text(&mut self, key: &str, value: &str) {
        self.0.push((key.to_string(), format!("\"{value}\"")));
    }

    /// Records a value that is already JSON (a number, a boolean, an object).
    pub fn json(&mut self, key: &str, value: impl std::fmt::Display) {
        self.0.push((key.to_string(), value.to_string()));
    }

    /// The `"meta"` object.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values listed in one top-level array of `BENCHMARK.json`.
    fn listed_names(json: &str, array: &str) -> Vec<String> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(
            listed_names(json, "end_to_end"),
            names(END_TO_END) as Vec<String>
        );
        let mut per_layer: Vec<String> = names(PER_LAYER);
        per_layer.push("trace.overhead_frac".to_string());
        assert_eq!(listed_names(json, "per_layer"), per_layer);
    }

    #[test]
    fn every_metric_must_be_set_before_printing() {
        let mut m = Metrics::new(false);
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let json = m.to_json();
        assert!(json.starts_with("{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let unset = std::panic::catch_unwind(|| Metrics::new(true).to_json());
        assert!(unset.is_err());
    }
}
