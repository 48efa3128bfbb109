//! Metric names, units and the result line the benchmark prints.
//!
//! The end-to-end and per-layer tables here are the single source of
//! the names `BENCHMARK.json` lists; a test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics: reported by every untraced run of every
/// workload. `main_op_ms` and `second_op_ms` name each workload's two
/// repeated operations; the README maps them per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("main_op_ms", "ms"),
    ("second_op_ms", "ms"),
];

/// One per-layer metric of the traced run, tagged with the end-to-end
/// metric it should move and the workload where it does work. It reads
/// 0 on a workload that does not run the layer.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub workload: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        workload,
    }
}

pub const PER_LAYER: &[LayerMetric] = &[
    layer("data.preset_build_s", "s", "setup_s", "search"),
    layer("data.scale_build_s", "s", "setup_s", "neg-1m"),
    layer("data.filter_build_s", "s", "setup_s", "search,neg-1m"),
    layer(
        "linalg.scan_q1_ns_per_row",
        "ns",
        "main_op_ms",
        "serve-http",
    ),
    layer(
        "linalg.scan_q8_ns_per_row",
        "ns",
        "second_op_ms",
        "serve-http",
    ),
    layer("linalg.neg_loss_ns", "ns", "main_op_ms", "neg-1m"),
    layer("linalg.pool_tasks", "count/op", "main_op_ms", "all"),
    layer("linalg.pool_dispatches", "count/op", "main_op_ms", "all"),
    layer("linalg.pool_inline", "count/op", "main_op_ms", "all"),
    layer("sf.certify_us", "us", "second_op_ms", "search"),
    layer("train.sampled_step_ms", "ms", "main_op_ms", "search"),
    layer("train.epoch_ms", "ms", "main_op_ms,second_op_ms", "search"),
    layer("train.eval_ms", "ms", "main_op_ms,second_op_ms", "search"),
    layer("train.runs_per_eras_op", "count/op", "main_op_ms", "search"),
    layer(
        "train.runs_per_autosf_op",
        "count/op",
        "second_op_ms",
        "search",
    ),
    layer("train.init_s", "s", "setup_s", "neg-1m"),
    layer("train.neg_step_ms", "ms", "main_op_ms", "neg-1m"),
    layer("train.neg_block_us", "us", "main_op_ms", "neg-1m"),
    layer(
        "train.neg_step_pool_speedup",
        "ratio",
        "main_op_ms",
        "neg-1m",
    ),
    layer("train.neg_bytes_per_triple", "B", "main_op_ms", "neg-1m"),
    layer("train.neg_gbps", "GB/s", "main_op_ms", "neg-1m"),
    layer("train.candidate_draw_ms", "ms", "second_op_ms", "neg-1m"),
    layer("train.eval_shard_ms", "ms", "second_op_ms", "neg-1m"),
    layer("train.sampled_mrr", "ratio", "quality", "neg-1m"),
    layer("train.snapshot_load_s", "s", "setup_s", "serve-http"),
    layer("ctrl.policy_sample_us", "us", "main_op_ms", "search"),
    layer("ctrl.reinforce_update_us", "us", "main_op_ms", "search"),
    layer("ctrl.kmeans_us", "us", "main_op_ms", "search"),
    layer("core.one_shot_reward_ms", "ms", "main_op_ms", "search"),
    layer("core.eras_search_s", "s", "main_op_ms", "search"),
    layer("core.eras_eval_s", "s", "main_op_ms", "search"),
    layer("core.eras_test_mrr", "ratio", "quality", "search"),
    layer("search.autosf_search_s", "s", "second_op_ms", "search"),
    layer("search.autosf_eval_s", "s", "second_op_ms", "search"),
    layer("search.autosf_test_mrr", "ratio", "quality", "search"),
    layer(
        "search.candidates_trained",
        "count/op",
        "second_op_ms",
        "search",
    ),
    layer(
        "search.candidates_pruned",
        "count/op",
        "second_op_ms",
        "search",
    ),
    layer("search.cache_hits", "count/op", "second_op_ms", "search"),
    layer("search.pruned_ratio", "ratio", "second_op_ms", "search"),
    layer("search.batch_ms", "ms", "second_op_ms", "search"),
    layer("serve.engine_new_s", "s", "setup_s", "serve-http"),
    layer("serve.answer_us", "us", "main_op_ms", "serve-http"),
    layer("serve.answer_batch_ms", "ms", "second_op_ms", "serve-http"),
    layer("serve.http_overhead_us", "us", "main_op_ms", "serve-http"),
    layer("serve.request_self_us", "us", "main_op_ms", "serve-http"),
    layer("serve.parse_us", "us", "main_op_ms", "serve-http"),
    layer("serve.write_us", "us", "main_op_ms", "serve-http"),
    layer("serve.connect_us", "us", "main_op_ms", "serve-http"),
    layer("serve.query_p90_ms", "ms", "main_op_ms", "serve-http"),
    layer("serve.cache_hit_ratio", "ratio", "none", "serve-http"),
    layer("serve.generator_late_ms", "ms", "validity", "serve-http"),
    layer("serve.failed", "count/phase", "failed", "serve-http"),
    layer("serve.shed_total", "count/phase", "failed", "serve-http"),
    layer("serve.read_errors", "count/phase", "failed", "serve-http"),
    layer("obs.trace_overhead_pct", "%", "none", "all"),
    layer("obs.spans_per_op", "count/op", "none", "all"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that are not tied to one operation.
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed check with its reason; the run is then not
    /// correct.
    pub fn error(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.errors.push(why);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The human-readable metric table followed by the one-line JSON
    /// result, which is always the last line of standard output.
    pub fn print(&self, trace: bool) {
        let mut metrics = Vec::new();
        if trace {
            println!(
                "{:<30} {:>14} {:<12} {:<24} workload",
                "layer metric", "value", "unit", "moves"
            );
            for m in PER_LAYER {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                println!(
                    "{:<30} {v:>14.4} {:<12} {:<24} {}",
                    m.name, m.unit, m.moves, m.workload
                );
                metrics.push((m.name, v, m.unit));
            }
        } else {
            for &(name, unit) in END_TO_END {
                match self.values.get(name) {
                    Some(&v) => metrics.push((name, v, unit)),
                    None => eprintln!("metric {name} was not measured"),
                }
            }
        }
        let complete = metrics.len()
            == if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v))
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct() && complete,
            self.attempted,
            self.failed,
            body.join(",")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values, which JSON cannot carry, become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eras_data::json::Json;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_manifest_matches_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::NAN), "0");
    }
}
