//! The metric catalogue (kept in step with `BENCHMARK.json` by a test) and
//! the result line every run ends with.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// A per-layer metric, with the end-to-end metric and workload it should
/// move when that layer changes.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 5] = [
    // Every time below is at reference speed: a piece's wall time scaled by
    // a fixed calibration kernel's time around it (see `calib`), so a
    // neighbour's load on a shared host cancels out. Raw wall-time figures
    // are printed beside them.
    // Median of the run's set-ups, so a warm set-up: every one after the
    // first reads files and code already cached. The cold first one is
    // printed beside it.
    EndToEnd { name: "setup_s", unit: "s" },
    // Latency of one unit (an iteration, a step tick, a design), each unit
    // at its fastest over the run's identical blocks.
    EndToEnd { name: "step_p50_ms", unit: "ms" },
    EndToEnd { name: "step_p90_ms", unit: "ms" },
    // Env steps per second on the two search workloads, designs per
    // second on accel_design, over a block made of its fastest pieces.
    EndToEnd { name: "work_per_s", unit: "1/s" },
    EndToEnd { name: "peak_rss_mb", unit: "MB" },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        on,
    }
}

/// Every per-layer metric. A workload that does not exercise a layer
/// reports 0 for it.
#[rustfmt::skip]
pub const LAYERS: [Layer; 24] = [
    layer("core.rollout_ms", "ms", "step_p50_ms, work_per_s", "solo_search"),
    layer("core.loss_backward_ms", "ms", "step_p50_ms, work_per_s", "solo_search"),
    layer("core.optimizer_step_ms", "ms", "step_p50_ms", "solo_search"),
    layer("core.das_sweep_ms", "ms", "step_p50_ms", "solo_search"),
    layer("core.eval_ms", "ms", "work_per_s", "solo_search"),
    layer("core.derive_ms", "ms", "work_per_s", "solo_search"),
    layer("core.checkpoint_io_ms", "ms", "step_p50_ms", "fleet_guarded"),
    layer("core.iteration_self_ms", "ms", "step_p50_ms", "fleet_guarded"),
    layer("tensor.macs_per_iter", "count", "none; flags arithmetic changes", "solo_search"),
    layer("tensor.gmacs_per_s", "GMAC/s", "work_per_s", "solo_search"),
    layer("pool.busy_frac", "frac", "step_p50_ms", "solo_search"),
    layer("drl.ckpt_compression", "ratio", "step_p50_ms", "fleet_guarded"),
    layer("drl.ckpt_bytes_per_iter", "B", "step_p50_ms", "fleet_guarded"),
    layer("fleet.resume_ms", "ms", "work_per_s", "fleet_guarded"),
    layer("fleet.tick_self_ms", "ms", "step_p50_ms", "fleet_guarded"),
    layer("fleet.report_snapshot_ms", "ms", "step_p50_ms", "fleet_guarded"),
    layer("obs.publish_ms", "ms", "step_p50_ms", "fleet_guarded"),
    layer("accel.das_run_ms", "ms", "work_per_s, step_p90_ms", "accel_design"),
    layer("accel.das_chunk_hit_rate", "frac", "work_per_s", "accel_design"),
    layer("accel.beam_run_ms", "ms", "work_per_s", "accel_design"),
    layer("accel.beam_chunk_hit_rate", "frac", "work_per_s", "accel_design"),
    layer("accel.evaluate_ms", "ms", "work_per_s", "accel_design"),
    layer("check.preflight_ms", "ms", "setup_s", "solo_search, fleet_guarded"),
    layer("telemetry.overhead_frac", "frac", "none; reported", "all"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: iterations, sessions or designs.
    pub attempted: u64,
    /// One entry per failed output check.
    pub problems: Vec<String>,
    /// Digest of the deterministic part of the outputs.
    pub digest: u64,
    /// Metric values by name (end-to-end or per-layer, by run mode).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result (sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a check: a false `ok` counts as one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set every per-layer metric not yet measured to 0.
    pub fn zero_unmeasured_layers(&mut self) {
        for l in &LAYERS {
            self.values.entry(l.name).or_insert(0.0);
        }
    }
}

/// Render the result line for `declared` metric names, each with its unit.
/// A declared metric that is missing or not finite is a failure.
pub fn result_line(outcome: &mut Outcome, declared: &[(&'static str, &'static str)]) -> String {
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        let value = match outcome.values.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                outcome.problems.push(format!("metric {name} is {other:?}"));
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed = (outcome.problems.len() as u64).min(outcome.attempted.max(1));
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
        match v {
            Value::Object(fields) => match fields.iter().find(|(k, _)| k == key) {
                Some((_, v)) => v,
                None => panic!("no key {key}"),
            },
            _ => panic!("not an object"),
        }
    }

    fn names(list: &Value) -> Vec<(String, String)> {
        let Value::Array(items) = list else {
            panic!("not a list")
        };
        items
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("bad metric entry"),
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let spec: Value = serde_json::from_str(&text).expect("valid JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into()))
            .collect();
        assert_eq!(names(field(&spec, "end_to_end")), e2e);
        let layers: Vec<(String, String)> = LAYERS
            .iter()
            .map(|m| (m.name.into(), m.unit.into()))
            .collect();
        assert_eq!(names(field(&spec, "per_layer")), layers);
    }

    #[test]
    fn result_line_is_json_with_every_declared_metric() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.set("a", 1.25);
        let line = result_line(&mut outcome, &[("a", "ms"), ("b", "s")]);
        let v: Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(matches!(field(&v, "correct"), Value::Bool(false)));
        assert!(matches!(field(&v, "failed"), Value::Num(n) if *n == 1.0));
        let a = field(field(&v, "metrics"), "a");
        assert!(matches!(field(a, "value"), Value::Num(n) if *n == 1.25));
        assert!(matches!(field(a, "unit"), Value::Str(u) if u == "ms"));
        assert!(outcome.problems[0].contains("metric b"));
    }
}
