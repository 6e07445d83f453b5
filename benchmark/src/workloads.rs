//! The four lifecycle workloads. Every one runs the same six stages
//! (setup, train, infer, serve, mixed, delta), so every end-to-end
//! metric exists on every workload; they differ in graph, model and
//! plan/comm/exec configuration, i.e. in which layer does the work.

use hongtu_core::{
    CacheOff, CachePolicy, CommMode, DegreeRanked, ExecutionMode, FrequencyRanked, HongTuConfig,
    Mode, OverlapMode,
};
use hongtu_datasets::DatasetKey;
use hongtu_nn::ModelKind;
use std::sync::Arc;

/// `--seconds` at which the stage counts below apply unscaled; equal to
/// `run_seconds` in `BENCHMARK.json`. On the box the baseline was taken
/// on, the timed stages (train … delta) of a workload then last about
/// this long.
pub const NOMINAL_SECONDS: u64 = 15;

pub const HIDDEN: usize = 32;
pub const GPUS: usize = 4;
pub const CHUNKS: usize = 8;
pub const GPU_MEM_MB: usize = 512;
/// Requests one serving sweep may pack.
pub const BATCH_WINDOW: usize = 4;
/// Edits per update request and per structural delta batch.
pub const EDITS_PER_BATCH: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Off,
    Freq,
    Degree,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Queries {
    /// `subset` distinct vertices drawn uniformly.
    Uniform,
    /// A random centre plus its first `subset − 1` neighbours: queries
    /// share cones, so the hot-vertex cache is hit.
    Clustered,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: DatasetKey,
    pub model: ModelKind,
    pub layers: usize,
    pub comm: CommMode,
    pub reorganize: bool,
    pub exec: ExecutionMode,
    pub overlap: OverlapMode,
    pub cache: Cache,
    /// Times set-up (load + `Session::new`) is repeated; not scaled.
    pub setup_reps: usize,
    /// Timed training epochs (one untimed warm-up precedes them).
    pub epochs: usize,
    /// Timed inference epochs (one untimed warm-up precedes them).
    pub infers: usize,
    /// Read-only queries in `serve`.
    pub serve_queries: usize,
    /// Vertices per query.
    pub subset: usize,
    pub queries: Queries,
    /// Offered load of `serve` in queries per *simulated* second. Frozen:
    /// calibrated once at the baseline to 1.25 arrivals per single-query
    /// sweep (0.5 on `opt_gcn_serve`; README has the sweep times and the
    /// reason) and never re-derived, so a change in simulated sweep time
    /// cannot silently change the load.
    pub serve_rate_qps: f64,
    /// Offered load of `mixed`, frozen at 0.4 arrivals per single-query
    /// sweep: an update occupies the queue head alone, so the queue
    /// saturates far earlier than in `serve`, and near saturation the
    /// latency percentiles of a short stream measure its seed.
    pub mixed_rate_qps: f64,
    /// Latency limit on the simulated clock for the rate probe, in
    /// seconds. Frozen: 4 × the baseline full-sweep simulated time.
    pub latency_limit_s: f64,
    /// Items in `mixed` and the share of them that are updates.
    pub mixed_items: usize,
    pub mixed_update_share: f64,
    /// Structural batches in `delta`.
    pub delta_batches: usize,
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "rdt_gat_dense",
            why: "kernel-bound: average degree 77 and GAT edge-softmax put nn/tensor in charge; planning, verify and sim bookkeeping are noise",
            dataset: DatasetKey::Rdt,
            model: ModelKind::Gat,
            layers: 2,
            comm: CommMode::P2pRu,
            reorganize: true,
            exec: ExecutionMode::Sequential,
            overlap: OverlapMode::Off,
            cache: Cache::Off,
            setup_reps: 5,
            epochs: 12,
            infers: 50,
            serve_queries: 160,
            subset: 8,
            queries: Queries::Uniform,
            serve_rate_qps: 12_600.0,
            mixed_rate_qps: 4_000.0,
            latency_limit_s: 0.371e-3,
            mixed_items: 80,
            mixed_update_share: 0.25,
            delta_batches: 30,
        },
        Workload {
            name: "it_gcn_plan",
            why: "planning-bound: Session::new costs several epochs and the kernels are the lightest, so partition, reorg, verify and the engine's gather/charge overhead dominate",
            dataset: DatasetKey::It,
            model: ModelKind::Gcn,
            layers: 2,
            comm: CommMode::P2pRu,
            reorganize: true,
            exec: ExecutionMode::Sequential,
            overlap: OverlapMode::Off,
            cache: Cache::Off,
            setup_reps: 3,
            epochs: 10,
            infers: 40,
            serve_queries: 120,
            subset: 8,
            queries: Queries::Uniform,
            serve_rate_qps: 2_040.0,
            mixed_rate_qps: 650.0,
            latency_limit_s: 2.786e-3,
            mixed_items: 30,
            mixed_update_share: 0.3,
            delta_batches: 8,
        },
        Workload {
            name: "fds_sage_par",
            why: "communication-bound on the other engine family: the overlapped steps, GpuShard fork/join, stream staging and the hot-vertex cache all run only here",
            dataset: DatasetKey::Fds,
            model: ModelKind::Sage,
            layers: 2,
            comm: CommMode::P2pRu,
            reorganize: true,
            exec: ExecutionMode::Parallel,
            overlap: OverlapMode::DoubleBuffer,
            cache: Cache::Freq,
            setup_reps: 3,
            epochs: 9,
            infers: 14,
            serve_queries: 120,
            subset: 8,
            queries: Queries::Uniform,
            serve_rate_qps: 1_380.0,
            mixed_rate_qps: 440.0,
            latency_limit_s: 3.238e-3,
            mixed_items: 16,
            mixed_update_share: 0.3,
            delta_batches: 4,
        },
        Workload {
            name: "opt_gcn_serve",
            why: "front-door-bound: little training, long streams of tiny clustered queries and updates, so serving, cone masks, delta and admission are the work; dedup and Alg. 4 are off, so they predict no change",
            dataset: DatasetKey::Opt,
            model: ModelKind::Gcn,
            layers: 3,
            comm: CommMode::Vanilla,
            reorganize: false,
            exec: ExecutionMode::Sequential,
            overlap: OverlapMode::Off,
            cache: Cache::Degree,
            setup_reps: 5,
            epochs: 60,
            infers: 100,
            serve_queries: 500,
            subset: 4,
            queries: Queries::Clustered,
            serve_rate_qps: 1_830.0,
            mixed_rate_qps: 1_460.0,
            latency_limit_s: 1.650e-3,
            mixed_items: 240,
            mixed_update_share: 0.2,
            delta_batches: 30,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload with its stage counts scaled by
    /// `seconds / NOMINAL_SECONDS`. Counts are a function of the
    /// arguments alone, never of measured time, so a seed and a
    /// `--seconds` value fix the inputs and every simulated number.
    /// `setup_reps` and the frozen rate are not scaled.
    pub fn scaled(&self, seconds: f64) -> Workload {
        let k = seconds / NOMINAL_SECONDS as f64;
        let scale = |n: usize, floor: usize| ((n as f64 * k).round() as usize).max(floor);
        Workload {
            epochs: scale(self.epochs, 2),
            infers: scale(self.infers, 2),
            serve_queries: scale(self.serve_queries, 8),
            mixed_items: scale(self.mixed_items, 8),
            delta_batches: scale(self.delta_batches, 2),
            ..self.clone()
        }
    }

    /// Updates in `mixed`: an exact count at seeded queue positions.
    pub fn mixed_updates(&self) -> usize {
        ((self.mixed_items as f64 * self.mixed_update_share).round() as usize).max(1)
    }

    pub fn cache_policy(&self) -> Arc<dyn CachePolicy> {
        match self.cache {
            Cache::Off => Arc::new(CacheOff),
            Cache::Freq => Arc::new(FrequencyRanked),
            Cache::Degree => Arc::new(DegreeRanked),
        }
    }

    /// The engine configuration of this workload in `mode`.
    pub fn config(&self, mode: Mode) -> HongTuConfig {
        self.config_with(mode, self.exec, self.overlap)
    }

    /// [`Workload::config`] with the executor or overlap mode flipped —
    /// the B side of the `parallel.*` and `stream.*` probes.
    pub fn config_with(
        &self,
        mode: Mode,
        exec: ExecutionMode,
        overlap: OverlapMode,
    ) -> HongTuConfig {
        HongTuConfig::builder()
            .gpus(GPUS)
            .gpu_mem_mb(GPU_MEM_MB)
            .comm(self.comm)
            .reorganize(self.reorganize)
            .exec(exec)
            .overlap(overlap)
            .cache(self.cache_policy())
            .mode(mode)
            .build()
            .expect("workload configurations are valid by construction")
    }

    pub fn describe(&self) -> String {
        format!(
            "{} · {}-{} · {:?}/reorg {} · {:?} · overlap {:?} · cache {:?}",
            self.dataset.abbrev(),
            self.model.name(),
            self.layers,
            self.comm,
            if self.reorganize { "on" } else { "off" },
            self.exec,
            self.overlap,
            self.cache
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_four_final_ones() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "rdt_gat_dense",
                "it_gcn_plan",
                "fds_sage_par",
                "opt_gcn_serve"
            ]
        );
        assert!(by_name("it_gcn_plan").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn nominal_counts_support_a_p90_and_thirty_samples_or_two_seconds() {
        for w in all() {
            assert!(w.serve_queries >= 120, "{}: Q must support a p90", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(w.serve_rate_qps > 0.0 && w.latency_limit_s > 0.0);
        }
    }

    #[test]
    fn scaling_is_a_pure_function_of_seconds() {
        let w = by_name("opt_gcn_serve").unwrap();
        let same = w.scaled(NOMINAL_SECONDS as f64);
        assert_eq!(same.serve_queries, w.serve_queries);
        assert_eq!(same.epochs, w.epochs);
        let smoke = w.scaled(NOMINAL_SECONDS as f64 / 10.0);
        assert_eq!(smoke.serve_queries, w.serve_queries / 10);
        assert_eq!(smoke.mixed_items, w.mixed_items / 10);
        assert_eq!(smoke.delta_batches, w.delta_batches / 10);
        assert_eq!(smoke.epochs, w.epochs / 10);
        assert_eq!(smoke.setup_reps, w.setup_reps);
        assert_eq!(smoke.serve_rate_qps, w.serve_rate_qps);
        let tiny = w.scaled(0.01);
        assert_eq!(
            (
                tiny.epochs,
                tiny.infers,
                tiny.serve_queries,
                tiny.mixed_items,
                tiny.delta_batches
            ),
            (2, 2, 8, 8, 2),
            "floors keep every stage alive"
        );
    }

    #[test]
    fn update_count_is_exact_and_never_zero() {
        let w = by_name("rdt_gat_dense").unwrap();
        assert_eq!(
            w.mixed_updates(),
            (w.mixed_items as f64 * w.mixed_update_share).round() as usize
        );
        assert_eq!(w.scaled(0.01).mixed_updates(), 2);
        let none = Workload {
            mixed_update_share: 0.0,
            ..w
        };
        assert_eq!(none.mixed_updates(), 1);
    }
}
