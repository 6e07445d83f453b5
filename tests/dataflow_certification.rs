//! Dataflow conservation certification, end to end: every supported
//! configuration's synthesized schedule must certify clean under pass 9
//! (`F8xx`) — every aggregation fed exactly its planned contribution
//! multiset, every activation consumed before overwrite, the backward
//! flow the exact transpose of the forward, dedup'd transfers carrying
//! the same per-owner multiset as the vanilla comparator.
//!
//! The non-triviality guards matter as much as the certification: a
//! schedule with no provenance annotations would certify vacuously, so
//! every config also asserts the synthesizer actually emitted tagged
//! supply, aggregation, and (for training) gradient-flush accesses.

use hongtu::core::{CommMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::sim::ContribKind;
use hongtu::tensor::{Matrix, SeededRng};

const KINDS: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage];
const COMMS: [CommMode; 3] = [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu];
const GPUS: [usize; 3] = [1, 2, 4];
const OVERLAPS: [OverlapMode; 2] = [OverlapMode::Off, OverlapMode::DoubleBuffer];

/// An ad-hoc random dataset (not from the registry).
fn random_dataset(seed: u64, n: usize) -> Dataset {
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

fn engine_for(
    ds: &Dataset,
    kind: ModelKind,
    gpus: usize,
    comm: CommMode,
    overlap: OverlapMode,
    memory: MemoryStrategy,
    mode: Mode,
) -> Session {
    let config = HongTuConfig::builder()
        .gpus(gpus)
        .gpu_mem_mb(512)
        .comm(comm)
        .overlap(overlap)
        .memory(memory)
        .mode(mode)
        .reorganize(comm != CommMode::Vanilla)
        .build()
        .expect("valid config");
    Session::new(ds, kind, 8, 2, 4, config).expect("engine")
}

/// The pass-9 gate for one configuration: the synthesized schedule
/// certifies conserved, and the certification was not vacuous.
fn check_config(
    ds: &Dataset,
    kind: ModelKind,
    gpus: usize,
    comm: CommMode,
    overlap: OverlapMode,
    memory: MemoryStrategy,
    mode: Mode,
) {
    let label = format!(
        "{} {comm:?} {gpus}g {overlap:?} {memory:?} {mode:?}",
        kind.name()
    );
    let engine = engine_for(ds, kind, gpus, comm, overlap, memory, mode);

    let report = engine.certify_dataflow().expect("schedule synthesis");
    assert!(report.is_ok(), "{label}: {}", report.render());

    // Vacuity guard: the schedule must actually carry provenance for
    // the flows the pass balances.
    let synth = engine.synthesize_schedule().expect("schedule synthesis");
    let mut aggregates = 0usize;
    let mut supplies = 0usize;
    let mut flushes = 0usize;
    for event in synth.events() {
        for access in &event.accesses {
            match access.prov.map(|p| p.kind) {
                Some(ContribKind::Aggregate) => aggregates += 1,
                Some(ContribKind::HostLoad | ContribKind::Reuse | ContribKind::Fetch) => {
                    supplies += 1
                }
                Some(ContribKind::GradFlush) => flushes += 1,
                _ => {}
            }
        }
    }
    assert!(aggregates > 0, "{label}: no provenance-tagged aggregations");
    assert!(supplies > 0, "{label}: no provenance-tagged supply");
    match mode {
        Mode::Train => assert!(
            flushes > 0,
            "{label}: no provenance-tagged gradient flushes"
        ),
        Mode::Infer => assert_eq!(flushes, 0, "{label}: inference must not flush gradients"),
    }
}

/// {GCN,GAT,SAGE} × {vanilla,p2p,p2pru} × {1,2,4} GPUs, phased executor.
#[test]
fn train_matrix_conserves_phased() {
    let ds = random_dataset(7, 220);
    for kind in KINDS {
        for comm in COMMS {
            for gpus in GPUS {
                check_config(
                    &ds,
                    kind,
                    gpus,
                    comm,
                    OverlapMode::Off,
                    MemoryStrategy::Hybrid,
                    Mode::Train,
                );
            }
        }
    }
}

/// Same matrix under the double-buffered overlap executor (slot-keyed
/// ledgers, reuse handoffs crossing pipeline segments).
#[test]
fn train_matrix_conserves_doublebuffer() {
    let ds = random_dataset(7, 220);
    for kind in KINDS {
        for comm in COMMS {
            for gpus in GPUS {
                check_config(
                    &ds,
                    kind,
                    gpus,
                    comm,
                    OverlapMode::DoubleBuffer,
                    MemoryStrategy::Hybrid,
                    Mode::Train,
                );
            }
        }
    }
}

/// Recompute checkpointing re-opens the forward supply ledgers during
/// the backward pass — the whole comm × gpus × overlap cube must still
/// conserve.
#[test]
fn recompute_matrix_conserves() {
    let ds = random_dataset(11, 220);
    for comm in COMMS {
        for gpus in GPUS {
            for overlap in OVERLAPS {
                check_config(
                    &ds,
                    ModelKind::Gcn,
                    gpus,
                    comm,
                    overlap,
                    MemoryStrategy::Recompute,
                    Mode::Train,
                );
            }
        }
    }
}

/// Forward-only inference: supply and aggregation conserve, and no
/// gradient flow exists to balance.
#[test]
fn infer_matrix_conserves() {
    let ds = random_dataset(19, 220);
    for comm in COMMS {
        for gpus in GPUS {
            for overlap in OVERLAPS {
                check_config(
                    &ds,
                    ModelKind::Gcn,
                    gpus,
                    comm,
                    overlap,
                    MemoryStrategy::Hybrid,
                    Mode::Infer,
                );
            }
        }
    }
}
