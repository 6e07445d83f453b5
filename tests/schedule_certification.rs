//! Static schedule certification, end to end: the symbolic synthesizer
//! must emit event-for-event the schedule the executor then records
//! (the anti-drift equivalence gate), the synthesized schedule must
//! certify clean under passes 6–8 for every supported configuration,
//! and the static peak-memory bound must dominate the simulator's
//! measured peaks.

use hongtu::core::{CommMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::sim::MachineConfig;
use hongtu::tensor::{Adam, Matrix, SeededRng};
use hongtu::verify::DEFAULT_EXPLORE_BUDGET;

const KINDS: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage];
const COMMS: [CommMode; 3] = [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu];
const GPUS: [usize; 3] = [1, 2, 4];

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
    let machine = MachineConfig::scaled(gpus, 512 << 20);
    let mut config = HongTuConfig::full(machine);
    config.comm = comm;
    config.overlap = overlap;
    config.memory = memory;
    config.mode = mode;
    config.reorganize = comm != CommMode::Vanilla;
    Session::new(ds, kind, 8, 2, 4, config).expect("engine")
}

/// The full gate for one configuration: static certification (with
/// exhaustive interleavings where feasible), synthesized-vs-executed
/// event-for-event equivalence, and static-bound-dominates-peak.
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
    let mut engine = engine_for(ds, kind, gpus, comm, overlap, memory, mode);

    // Pass 6–8 certification of the synthesized schedule.
    let explore = engine
        .exhaustive_exploration_feasible()
        .then_some(DEFAULT_EXPLORE_BUDGET);
    let report = engine
        .certify_schedule(explore)
        .expect("schedule synthesis");
    assert!(report.is_ok(), "{label}: {}", report.render());

    // Synthesize *before* executing: both start from the same machine
    // clock, so the traces must agree on timestamps too.
    let bound = engine.static_memory_bound();
    let synth = engine.synthesize_schedule().expect("schedule synthesis");
    engine.machine_mut().enable_unbounded_trace();
    match mode {
        Mode::Train => engine.trainer().epoch().map(|_| ()).expect("epoch"),
        Mode::Infer => engine.infer_epoch().map(|_| ()).expect("epoch"),
    }
    let real = engine.machine().trace().clone();

    assert!(
        !synth.is_empty(),
        "{label}: synthesis produced an empty schedule"
    );
    assert_eq!(
        synth.len(),
        real.len(),
        "{label}: synthesized {} events, executor recorded {}",
        synth.len(),
        real.len()
    );
    for (idx, (s, r)) in synth.events().zip(real.events()).enumerate() {
        assert_eq!(s, r, "{label}: schedules diverge at event {idx}");
    }

    // The static bound must dominate what the simulator measured.
    for i in 0..gpus {
        let peak = engine.machine().gpu_memory(i).peak();
        assert!(
            peak <= bound.gpu[i],
            "{label}: gpu{i} measured peak {peak} exceeds static bound {}",
            bound.gpu[i]
        );
    }
    let host_peak = engine.machine().host_memory().peak();
    assert!(
        host_peak <= bound.host,
        "{label}: host measured peak {host_peak} exceeds static bound {}",
        bound.host
    );
}

/// {GCN,GAT,SAGE} × {vanilla,p2p,p2pru} × {1,2,4} GPUs, phased executor.
#[test]
fn matrix_certifies_and_matches_phased() {
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

/// Same matrix under the double-buffered overlap executor (the staging
/// slots exercise the L6xx lifecycle for real).
#[test]
fn matrix_certifies_and_matches_doublebuffer() {
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

/// Recompute checkpointing changes the backward schedule shape — gate a
/// diagonal of the matrix under it too.
#[test]
fn recompute_configs_certify_and_match() {
    let ds = random_dataset(11, 220);
    for (kind, comm, gpus, overlap) in [
        (
            ModelKind::Gcn,
            CommMode::P2pRu,
            2,
            OverlapMode::DoubleBuffer,
        ),
        (ModelKind::Sage, CommMode::P2p, 4, OverlapMode::Off),
        (
            ModelKind::Gat,
            CommMode::Vanilla,
            1,
            OverlapMode::DoubleBuffer,
        ),
    ] {
        check_config(
            &ds,
            kind,
            gpus,
            comm,
            overlap,
            MemoryStrategy::Recompute,
            Mode::Train,
        );
    }
}

/// Forward-only inference sessions synthesize and certify too.
#[test]
fn inference_configs_certify_and_match() {
    let ds = random_dataset(19, 220);
    for (comm, gpus, overlap) in [
        (CommMode::P2pRu, 2, OverlapMode::DoubleBuffer),
        (CommMode::Vanilla, 4, OverlapMode::Off),
        (CommMode::P2p, 1, OverlapMode::DoubleBuffer),
    ] {
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

/// Synthesis must not perturb the session: a synthesized epoch and the
/// real epoch after it agree, and a *second* synthesis after training
/// matches the *second* epoch (clocks advanced, schedules re-aligned).
#[test]
fn synthesis_is_non_perturbing_across_epochs() {
    let ds = random_dataset(23, 220);
    let mut engine = engine_for(
        &ds,
        ModelKind::Gcn,
        2,
        CommMode::P2pRu,
        OverlapMode::DoubleBuffer,
        MemoryStrategy::Hybrid,
        Mode::Train,
    );
    let mut opt = Adam::new(engine.config().lr);
    let first = engine.synthesize_schedule().expect("synthesis");
    engine.machine_mut().enable_unbounded_trace();
    engine.train_epoch(&mut opt).expect("epoch 1");
    let real1 = engine
        .machine_mut()
        .replace_trace(hongtu::sim::Trace::unbounded());
    assert_eq!(first.len(), real1.len());

    let second = engine.synthesize_schedule().expect("synthesis");
    engine.train_epoch(&mut opt).expect("epoch 2");
    let real2 = engine.machine().trace().clone();
    assert_eq!(second.len(), real2.len());
    for (idx, (s, r)) in second.events().zip(real2.events()).enumerate() {
        assert_eq!(s, r, "epoch 2 diverges at event {idx}");
    }
}
