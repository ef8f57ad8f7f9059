//! The per-layer metrics a traced run prints, with the end-to-end
//! metric and workload each one should move. `BENCHMARK.json` lists the
//! same names, units and directions (a test keeps the two in step).

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric it should move, `@` the workload.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

pub const LAYERS: &[Layer] = &[
    l(
        "wire.decode_us",
        "us",
        "lower",
        "topk_capacity_rps @ hot_zipf",
    ),
    l(
        "wire.encode_us",
        "us",
        "lower",
        "topk_capacity_rps @ hot_zipf",
    ),
    l(
        "wire.reply_bytes",
        "bytes",
        "lower",
        "topk_capacity_rps @ hot_zipf",
    ),
    l(
        "serve.outside_frac",
        "ratio",
        "lower",
        "topk_p50_ms @ hot_zipf",
    ),
    l(
        "serve.batch_requests",
        "count",
        "higher",
        "topk_capacity_rps @ hot_zipf",
    ),
    l("serve.overloads", "count", "lower", "fail_frac @ all"),
    l("serve.protocol_errors", "count", "lower", "fail_frac @ all"),
    l(
        "sched.run_us",
        "us",
        "lower",
        "topk_capacity_rps @ hot_zipf",
    ),
    l(
        "sched.self_us",
        "us",
        "lower",
        "topk_capacity_rps @ hot_zipf",
    ),
    l(
        "sched.shared_frac",
        "ratio",
        "higher",
        "topk_capacity_rps @ hot_zipf; no change @ cold_tail",
    ),
    l("exec.open_us", "us", "lower", "topk_p50_ms @ hot_zipf"),
    l(
        "exec.resolve_hit_us",
        "us",
        "lower",
        "topk_p50_ms @ hot_zipf",
    ),
    l(
        "exec.resolve_miss_us",
        "us",
        "lower",
        "topk_p99_ms @ cold_tail",
    ),
    l(
        "exec.snapshot_hit_frac",
        "ratio",
        "higher",
        "topk_capacity_rps @ cold_tail",
    ),
    l(
        "exec.memo_hit_frac",
        "ratio",
        "higher",
        "topk_capacity_rps @ cold_tail",
    ),
    l(
        "exec.sql_per_request",
        "count",
        "lower",
        "topk_capacity_rps @ cold_tail",
    ),
    l("exec.pairwise_us", "us", "lower", "topk_p50_ms @ hot_zipf"),
    l("exec.ingest_ms", "ms", "lower", "ingest_p50_ms @ all"),
    l(
        "exec.ingest_changed",
        "count",
        "lower",
        "ingest_p50_ms @ all",
    ),
    l(
        "exec.ingest_new_tuples",
        "count",
        "lower",
        "ingest_p50_ms @ all",
    ),
    l(
        "exec.rewarm_ms",
        "ms",
        "lower",
        "base of exec.ingest_ms @ all",
    ),
    l("exec.epochs_retired", "count", "lower", "rss_peak_mb @ all"),
    l("exec.warm_s", "s", "lower", "setup_s @ all"),
    l("exec.snapshot_save_s", "s", "lower", "setup_s @ all"),
    l("exec.snapshot_load_s", "s", "lower", "setup_s @ all"),
    l("exec.snapshot_bytes", "bytes", "lower", "setup_s @ all"),
    l(
        "peps.top_k_us",
        "us",
        "lower",
        "topk_p50_ms @ hot_zipf; little effect @ cold_tail",
    ),
    l(
        "peps.atoms_per_group",
        "count",
        "lower",
        "topk_p50_ms @ hot_zipf",
    ),
    l(
        "relstore.parse_us",
        "us",
        "lower",
        "topk_p50_ms @ cold_tail",
    ),
    l("relstore.append_ms", "ms", "lower", "ingest_p50_ms @ all"),
    l("relstore.load_s", "s", "lower", "setup_s @ all"),
    l("graph.load_s", "s", "lower", "setup_s @ all"),
    l("dblp.generate_s", "s", "lower", "setup_s @ all"),
    l("dblp.extract_s", "s", "lower", "setup_s @ all"),
    l(
        "graphstore.build_s",
        "s",
        "lower",
        "setup_s @ cold_tail; no change @ hot_zipf",
    ),
    l(
        "graphstore.derive_s",
        "s",
        "lower",
        "setup_s @ cold_tail; no change @ hot_zipf",
    ),
    l(
        "dsl.compile_ms",
        "ms",
        "lower",
        "setup_s @ cold_tail; no change @ hot_zipf",
    ),
    l("client.late_p99_ms", "ms", "lower", "run validity @ all"),
    l(
        "client.trace_overhead_frac",
        "ratio",
        "lower",
        "run validity @ all",
    ),
];

/// The end-to-end metrics: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("topk_p50_ms", "ms"),
    ("topk_p99_ms", "ms"),
    ("topk_capacity_rps", "req/s"),
    ("ingest_p50_ms", "ms"),
    ("rss_peak_mb", "MiB"),
];

pub fn unit_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|l| l.name == name)
        .map(|l| l.unit)
        .or_else(|| END_TO_END.iter().find(|(n, _)| *n == name).map(|(_, u)| *u))
        .unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric this program reports is declared, with the same unit
    /// and direction, in `BENCHMARK.json`.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for layer in LAYERS {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                layer.name, layer.unit, layer.better
            );
            assert!(json.contains(&entry), "missing per-layer entry {entry}");
        }
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "missing end-to-end entry {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            LAYERS.len() + END_TO_END.len()
        );
    }
}
