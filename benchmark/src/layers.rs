//! The catalogue of per-layer metrics: name (`<layer>.<metric>`, layer =
//! module name), unit, which direction is better, and the end-to-end
//! metric it should move. `BENCHMARK.json` lists the same names and
//! units (a test holds the two together); the probes may report nothing
//! that is not listed here and must report everything that is.

pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric(s) a change in this one should show up in;
    /// `-` for context counts and model-accuracy rows.
    pub moves: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
    }
}

pub const CATALOGUE: &[LayerSpec] = &[
    spec("datasets.load_ms", "ms", "lower", "setup_s"),
    spec("graph.vertices", "count", "higher", "-"),
    spec("graph.edges", "count", "higher", "-"),
    spec("partition.multilevel_ms", "ms", "lower", "setup_s"),
    spec("partition.two_level_build_ms", "ms", "lower", "setup_s"),
    spec(
        "partition.dedup_build_ms",
        "ms",
        "lower",
        "setup_s, delta_wall_ms",
    ),
    spec(
        "partition.bufplan_build_ms",
        "ms",
        "lower",
        "setup_s, delta_wall_ms",
    ),
    spec(
        "partition.v_ori_rows",
        "count",
        "lower",
        "train_epoch_sim_ms, infer_sim_ms",
    ),
    spec(
        "partition.v_p2p_rows",
        "count",
        "lower",
        "train_epoch_sim_ms, infer_sim_ms",
    ),
    spec(
        "partition.v_ru_rows",
        "count",
        "lower",
        "train_epoch_sim_ms, infer_sim_ms",
    ),
    spec(
        "partition.replication_factor",
        "ratio",
        "lower",
        "train_epoch_sim_ms, infer_sim_ms",
    ),
    spec("reorg.reorganize_ms", "ms", "lower", "setup_s"),
    spec("reorg.eq4_cost_before_s", "s", "lower", "-"),
    spec("reorg.eq4_cost_after_s", "s", "lower", "train_epoch_sim_ms"),
    spec("cost.eq4_pred_s", "s", "lower", "-"),
    spec("cost.sim_charged_s", "s", "lower", "infer_sim_ms"),
    spec("cost.eq4_rel_err", "ratio", "lower", "-"),
    spec(
        "cache.plan_build_ms",
        "ms",
        "lower",
        "setup_s, delta_wall_ms",
    ),
    spec(
        "cache.resident_rows",
        "count",
        "higher",
        "train_epoch_sim_ms, serve_sim_p50_ms",
    ),
    spec(
        "cache.hit_rate_train",
        "ratio",
        "higher",
        "train_epoch_sim_ms",
    ),
    spec(
        "cache.hit_rate_serve",
        "ratio",
        "higher",
        "serve_sim_p50_ms, serve_sim_p90_ms",
    ),
    spec(
        "verify.plan_passes_ms",
        "ms",
        "lower",
        "setup_s, delta_wall_ms",
    ),
    spec("verify.trace_pass_ms", "ms", "lower", "-"),
    spec("verify.schedule_passes_ms", "ms", "lower", "-"),
    spec("verify.dataflow_pass_ms", "ms", "lower", "-"),
    spec("verify.cone_pass_ms", "ms", "lower", "delta_wall_ms"),
    spec("verify.cache_pass_ms", "ms", "lower", "-"),
    spec("verify.trace_events_per_s", "1/s", "higher", "-"),
    spec("engine.session_new_ms", "ms", "lower", "setup_s"),
    spec("engine.infer_session_new_ms", "ms", "lower", "run_wall_s"),
    spec(
        "engine.train_epoch_wall_p90_ms",
        "ms",
        "lower",
        "train_epoch_wall_ms",
    ),
    spec(
        "engine.train_non_kernel_ms",
        "ms",
        "lower",
        "train_epoch_wall_ms",
    ),
    spec("engine.infer_non_kernel_ms", "ms", "lower", "infer_wall_ms"),
    spec(
        "engine.host_us_per_sim_event",
        "us",
        "lower",
        "train_epoch_wall_ms",
    ),
    spec(
        "engine.serve_active_step_ratio",
        "ratio",
        "lower",
        "serve_wall_ms_per_query, serve_sim_p50_ms",
    ),
    spec(
        "engine.delta_active_step_ratio",
        "ratio",
        "lower",
        "delta_wall_ms, delta_sim_ms",
    ),
    spec(
        "engine.delta_rebuilt_chunks",
        "count",
        "lower",
        "delta_wall_ms",
    ),
    spec(
        "nn.fwd_kernel_ms",
        "ms",
        "lower",
        "train_epoch_wall_ms, infer_wall_ms",
    ),
    spec("nn.bwd_kernel_ms", "ms", "lower", "train_epoch_wall_ms"),
    spec("nn.train_kernel_ms", "ms", "lower", "train_epoch_wall_ms"),
    spec("nn.edges_per_s", "1/s", "higher", "infer_wall_ms"),
    spec("tensor.matmul_ms", "ms", "lower", "train_epoch_wall_ms"),
    spec("tensor.spmm_ms", "ms", "lower", "train_epoch_wall_ms"),
    spec("tensor.softmax_ms", "ms", "lower", "train_epoch_wall_ms"),
    spec(
        "tensor.gather_rows_ms",
        "ms",
        "lower",
        "train_epoch_wall_ms, infer_wall_ms",
    ),
    spec("tensor.matmul_flops", "count", "lower", "-"),
    spec("tensor.spmm_nnz", "count", "lower", "-"),
    spec("tensor.softmax_elems", "count", "lower", "-"),
    spec("tensor.gather_rows_rows", "count", "lower", "-"),
    spec(
        "sim.events_per_epoch",
        "count",
        "lower",
        "train_epoch_wall_ms",
    ),
    spec(
        "sim.h2d_bytes_per_epoch",
        "bytes",
        "lower",
        "train_epoch_sim_ms",
    ),
    spec(
        "sim.d2h_bytes_per_epoch",
        "bytes",
        "lower",
        "train_epoch_sim_ms",
    ),
    spec(
        "sim.d2d_bytes_per_epoch",
        "bytes",
        "lower",
        "train_epoch_sim_ms",
    ),
    spec(
        "sim.reuse_bytes_per_epoch",
        "bytes",
        "higher",
        "train_epoch_sim_ms",
    ),
    spec("sim.time_gpu_s", "s", "lower", "train_epoch_sim_ms"),
    spec("sim.time_h2d_s", "s", "lower", "train_epoch_sim_ms"),
    spec("sim.time_d2d_s", "s", "lower", "train_epoch_sim_ms"),
    spec("sim.time_cpu_s", "s", "lower", "train_epoch_sim_ms"),
    spec("sim.peak_gpu_mb", "MB", "lower", "-"),
    spec("sim.peak_host_mb", "MB", "lower", "peak_rss_mb"),
    spec(
        "stream.overlap_sim_speedup",
        "ratio",
        "higher",
        "train_epoch_sim_ms, infer_sim_ms",
    ),
    spec("stream.staging_mb", "MB", "lower", "-"),
    spec(
        "parallel.par_over_seq_wall",
        "ratio",
        "lower",
        "train_epoch_wall_ms",
    ),
    spec("parallel.threads", "count", "higher", "-"),
    spec(
        "serving.sweeps",
        "count",
        "lower",
        "serve_wall_ms_per_query",
    ),
    spec(
        "serving.mean_batch_size",
        "count",
        "higher",
        "serve_wall_ms_per_query",
    ),
    spec(
        "serving.step_wall_p50_ms",
        "ms",
        "lower",
        "serve_wall_ms_per_query",
    ),
    spec(
        "serving.step_wall_p90_ms",
        "ms",
        "lower",
        "serve_wall_ms_per_query",
    ),
    spec(
        "serving.admit_us",
        "us",
        "lower",
        "serve_wall_ms_per_query, mixed_wall_ms_per_item",
    ),
    spec(
        "serving.mask_build_us",
        "us",
        "lower",
        "serve_wall_ms_per_query, mixed_wall_ms_per_item",
    ),
    spec("serving.rejects", "count", "lower", "failed_share"),
    spec(
        "serving.probe_sweep_sim_ms",
        "ms",
        "lower",
        "serve_sim_p50_ms",
    ),
    spec(
        "serving.p90_at_0.5x_rate_ms",
        "ms",
        "lower",
        "serve_sim_p90_ms",
    ),
    spec(
        "serving.p90_at_1x_rate_ms",
        "ms",
        "lower",
        "serve_sim_p90_ms",
    ),
    spec(
        "serving.p90_at_1.5x_rate_ms",
        "ms",
        "lower",
        "serve_sim_p90_ms",
    ),
    spec(
        "serving.max_rate_under_limit_qps",
        "1/s",
        "higher",
        "serve_sim_p90_ms",
    ),
    spec("serving.mixed_query_sim_p90_ms", "ms", "lower", "-"),
    spec("serving.mixed_update_sim_p50_ms", "ms", "lower", "-"),
    spec(
        "serving.structural_reject_share",
        "ratio",
        "lower",
        "failed_share",
    ),
    spec(
        "delta.stage_us",
        "us",
        "lower",
        "delta_wall_ms, mixed_wall_ms_per_item",
    ),
    spec(
        "delta.commit_us",
        "us",
        "lower",
        "delta_wall_ms, mixed_wall_ms_per_item",
    ),
    spec("delta.apply_wall_ms", "ms", "lower", "delta_wall_ms"),
    spec(
        "delta.dirty_vertices_mean",
        "count",
        "lower",
        "delta_sim_ms",
    ),
    spec("bench.trace_overhead_pct", "pct", "lower", "-"),
    spec("bench.lifecycle_spans", "count", "lower", "-"),
];

pub fn find(name: &str) -> Option<&'static LayerSpec> {
    CATALOGUE.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for (k, s) in CATALOGUE.iter().enumerate() {
            assert!(
                CATALOGUE[..k].iter().all(|t| t.name != s.name),
                "{} twice",
                s.name
            );
            assert!(s.name.len() <= 64 && s.name.contains('.'));
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.len() <= 16);
            assert!(s.better == "lower" || s.better == "higher");
        }
        assert!(CATALOGUE.len() <= 128);
    }

    #[test]
    fn manifest_lists_exactly_the_catalogue() {
        let m = manifest();
        let listed = m.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), CATALOGUE.len());
        for (entry, spec) in listed.iter().zip(CATALOGUE) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap();
            assert_eq!(field("name"), spec.name);
            assert_eq!(field("unit"), spec.unit, "{}", spec.name);
            assert_eq!(field("better"), spec.better, "{}", spec.name);
        }
    }

    #[test]
    fn manifest_names_the_four_workloads_and_the_timed_metrics() {
        let m = manifest();
        let expected: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(names(m.get("workloads").unwrap()), expected);
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_f64),
            Some(workloads::NOMINAL_SECONDS as f64)
        );
        let e2e = names(m.get("end_to_end").unwrap());
        assert_eq!(e2e, crate::lifecycle::END_TO_END);
        for entry in m.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        // Every `moves` target is an end-to-end metric (or failed_share).
        for s in CATALOGUE {
            for target in s.moves.split(", ").filter(|t| *t != "-") {
                assert!(
                    e2e.iter().any(|n| n == target) || target == "failed_share",
                    "{} moves unknown metric {target}",
                    s.name
                );
            }
        }
    }
}
