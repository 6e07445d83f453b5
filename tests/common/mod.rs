//! What the serving and delta certification suites share: the matrix of
//! session configurations they sweep and the ad-hoc dataset they sweep
//! it on.
#![allow(dead_code)]

use hongtu::cache::FrequencyRanked;
use hongtu::core::{CommMode, ExecutionMode, HongTuConfig, OverlapMode, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::sim::MachineConfig;
use hongtu::tensor::{Matrix, SeededRng};
use std::sync::Arc;

/// An ad-hoc random dataset (not from the registry).
pub fn random_dataset(seed: u64, n: usize) -> Dataset {
    let rng = SeededRng::new(seed);
    let g = generators::erdos_renyi(n, 5.0, &mut rng.fork(1));
    let graph = with_self_loops(&g);
    let mut frng = rng.fork(2);
    let features = Matrix::from_fn(n, 6, |_, _| frng.normal() * 0.5);
    let mut lrng = rng.fork(3);
    let labels: Vec<u32> = (0..n).map(|_| lrng.index(3) as u32).collect();
    let splits = Splits::random(n, 0.4, 0.2, &mut rng.fork(4));
    Dataset {
        key: DatasetKey::Rdt,
        graph,
        features,
        labels,
        splits,
        num_classes: 3,
        seed,
    }
}

/// One cell of the certification matrix: every model, communication
/// mode, GPU count, overlap mode, host execution mode, and the hot-vertex
/// cache off or frequency-ranked.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub kind: ModelKind,
    pub comm: CommMode,
    pub gpus: usize,
    pub overlap: OverlapMode,
    pub exec: ExecutionMode,
    pub cache: bool,
}

/// {GCN, GAT, SAGE} × {Vanilla, P2p, P2pRu} × {1, 2, 4} GPUs × {Off,
/// DoubleBuffer} × {Sequential, Parallel} × cache {off, freq}.
pub fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for gpus in [1usize, 2, 4] {
                for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
                    for exec in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
                        for cache in [false, true] {
                            cells.push(Cell {
                                kind,
                                comm,
                                gpus,
                                overlap,
                                exec,
                                cache,
                            });
                        }
                    }
                }
            }
        }
    }
    cells
}

impl Cell {
    fn builder(&self, gpu_memory: usize) -> hongtu::core::HongTuConfigBuilder {
        HongTuConfig::builder()
            .machine(MachineConfig::scaled(self.gpus, gpu_memory))
            .comm(self.comm)
            .reorganize(self.comm != CommMode::Vanilla)
            .overlap(self.overlap)
            .exec(self.exec)
            .infer()
    }

    /// A traced inference session of this cell. With the cache on, the
    /// device is the tightest the session fits plus `slack` bytes: room
    /// for ~40 rows makes the cache admit a strict subset of the hot rows,
    /// so sweeps mix hits, installs and misses; a few KiB more leave a
    /// structural commit's re-pinned staging room to grow.
    pub fn session(&self, ds: &Dataset, slack: usize) -> Session {
        let build = |cfg| Session::new(ds, self.kind, 8, 2, 3, cfg).expect("session");
        let mut s = if self.cache {
            let roomy = build(self.builder(64 << 20).build().expect("config"));
            let bound = roomy.static_memory_bound();
            let tight = bound.gpu.iter().copied().max().expect("gpus") + slack;
            build(
                self.builder(tight)
                    .cache(Arc::new(FrequencyRanked))
                    .build()
                    .expect("config"),
            )
        } else {
            build(self.builder(64 << 20).build().expect("config"))
        };
        s.machine_mut().enable_unbounded_trace();
        s
    }
}
