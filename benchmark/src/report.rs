//! What a run prints and writes: every metric by name with its unit for
//! people, `benchmark/out/<workload>.json` for `compare`, and the one
//! line the driver reads.

use crate::json::Json;
use crate::lifecycle::{Check, Metric, Outcome};
use crate::probes::{self, Layers};
use crate::stats::highest_supported_percentile;
use crate::workloads::Workload;

/// Where a run happened, stamped into every result file.
pub fn stamp(seed: u64, seconds: f64) -> Json {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Json::obj()
        .with("commit", env("HONGTU_BENCH_COMMIT"))
        .with("rustc", env("HONGTU_BENCH_RUSTC"))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("hongtu_threads", hongtu_parallel::configured_threads())
        .with("seed", seed)
        .with("seconds", seconds)
}

fn metric_json(m: &Metric) -> Json {
    let mut j = Json::obj().with("value", m.value).with("unit", m.unit);
    if let Some((n, q1, q3)) = m.samples {
        j.set("n", n);
        j.set("q1", q1);
        j.set("q3", q3);
    }
    j
}

/// The full record of one lifecycle; a traced run adds its probes'
/// checks and the per-layer metrics.
pub fn run_json(w: &Workload, out: &Outcome, stamp: Json, layers: Option<&Layers>) -> Json {
    let mut metrics = Json::obj();
    for m in &out.metrics {
        metrics.set(m.name, metric_json(m));
    }
    metrics.set(
        "failed_share",
        Json::obj()
            .with("value", out.failed_share)
            .with("unit", "ratio"),
    );
    let mut stages = Json::obj();
    for (name, secs) in &out.stage_wall_s {
        stages.set(name, *secs);
    }
    let mut digests = Json::obj();
    for (name, d) in &out.digests {
        digests.set(name, format!("{d:016x}"));
    }
    let all_checks: Vec<&Check> = out
        .checks
        .iter()
        .chain(layers.iter().flat_map(|l| &l.checks))
        .collect();
    let checks = all_checks
        .iter()
        .map(|c| {
            Json::obj()
                .with("name", c.name)
                .with("ok", c.ok)
                .with("detail", c.detail.as_str())
        })
        .collect::<Vec<_>>();
    Json::obj()
        .with("workload", w.name)
        .with("config", w.describe())
        .with("traced", layers.is_some())
        .with("stamp", stamp)
        .with(
            "counts",
            Json::obj()
                .with("setup_reps", w.setup_reps)
                .with("epochs", w.epochs)
                .with("infers", w.infers)
                .with("serve_queries", w.serve_queries)
                .with("mixed_items", w.mixed_items)
                .with("mixed_updates", w.mixed_updates())
                .with("delta_batches", w.delta_batches),
        )
        .with("correct", all_checks.iter().all(|c| c.ok))
        .with("attempted", out.tally.attempted)
        .with("failed", out.tally.failed)
        .with("metrics", metrics)
        .with("stage_wall_s", stages)
        .with("digests", digests)
        .with(
            "loss",
            Json::obj()
                .with("first", out.first_loss as f64)
                .with("last", out.last_loss as f64),
        )
        .with("checks", checks)
        .with("per_layer", layers.map_or(Json::Null, probes::to_json))
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: impl Iterator<Item = (&'static str, f64, &'static str)>,
) -> String {
    let mut m = Json::obj();
    for (name, value, unit) in metrics {
        m.set(name, Json::obj().with("value", value).with("unit", unit));
    }
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", m)
        .render()
}

pub fn print_outcome(w: &Workload, out: &Outcome) {
    println!("== {} — {}", w.name, w.describe());
    println!("   why: {}", w.why);
    for m in &out.metrics {
        match m.samples {
            Some((n, q1, q3)) => println!(
                "{:<28} {:>14.6} {:<5} (n {n}, quartiles {q1:.6} .. {q3:.6})",
                m.name, m.value, m.unit
            ),
            None => println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "{:<28} {:>14.6} ratio ({} failed of {} attempted)",
        "failed_share", out.failed_share, out.tally.failed, out.tally.attempted
    );
    for (stage, stats) in [("serve", &out.facts.serve), ("mixed", &out.facts.mixed)] {
        let n = stats.queries();
        let supported =
            highest_supported_percentile(n, 10).map_or("none".to_string(), |p| format!("p{p}"));
        println!("{stage}: {n} query latencies; highest percentile with >= 10 samples beyond it: {supported}");
    }
    let stages: Vec<String> = out
        .stage_wall_s
        .iter()
        .map(|(n, s)| format!("{n} {s:.3}"))
        .collect();
    println!("stage walls (s): {}", stages.join(" | "));
    println!(
        "loss {} -> {}; digests {}",
        out.first_loss,
        out.last_loss,
        out.digests
            .iter()
            .map(|(n, d)| format!("{n} {d:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for c in &out.checks {
        println!("{c}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_four_keys_on_one_line() {
        let line = driver_line(
            true,
            1000,
            0,
            [("latency_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")].into_iter(),
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn stamp_names_the_environment() {
        let s = stamp(42, 12.0);
        for key in [
            "commit",
            "rustc",
            "nproc",
            "hongtu_threads",
            "seed",
            "seconds",
        ] {
            assert!(s.get(key).is_some(), "stamp lacks {key}");
        }
        assert_eq!(s.get("seed").and_then(Json::as_f64), Some(42.0));
    }
}
