//! Static schedule certification, end to end: the symbolic synthesizer
//! must emit event-for-event the schedule the executor then records
//! (the anti-drift equivalence gate), `Session::simulate` must report
//! bitwise the time, buckets and peaks of the epoch that follows it, the
//! synthesized schedule must certify clean under passes 6–7 for every
//! supported configuration, and the static peak-memory bound must
//! dominate the simulator's measured peaks.

use hongtu::core::{CommMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::sim::{MachineConfig, SimError, TimeBuckets};
use hongtu::tensor::{Adam, Matrix, SeededRng};

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

/// Runs the session's next epoch of its mode; returns its simulated time
/// and buckets.
fn run_epoch(engine: &mut Session, mode: Mode) -> Result<(f64, TimeBuckets), SimError> {
    match mode {
        Mode::Train => engine.trainer().epoch().map(|r| (r.time, r.buckets)),
        Mode::Infer => engine.infer_epoch().map(|r| (r.time, r.buckets)),
    }
}

/// The full gate for one configuration: static certification (passes
/// 6–7 and 9), synthesized-vs-executed
/// event-for-event equivalence, simulated-vs-executed time, buckets and
/// peaks, and static-bound-dominates-peak.
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

    // Passes 6, 7 and 9 over the synthesized schedule.
    let report = engine.certify_schedule(None).expect("schedule synthesis");
    assert!(report.is_ok(), "{label}: {}", report.render());

    // Synthesize *before* executing: both start from the same machine
    // clock, so the traces must agree on timestamps too.
    let bound = engine.static_memory_bound();
    let synth = engine.synthesize_schedule().expect("schedule synthesis");
    let sim = engine.simulate().expect("simulated epoch");
    engine.machine_mut().enable_unbounded_trace();
    let (time, buckets) = run_epoch(&mut engine, mode).expect("epoch");
    let real = engine.machine().trace().clone();

    // `simulate` reports what the epoch then measures, bit for bit.
    assert_eq!(
        sim.time.to_bits(),
        time.to_bits(),
        "{label}: simulated time"
    );
    assert_eq!(sim.buckets, buckets, "{label}: simulated buckets");
    assert_eq!(
        sim.peak_gpu_bytes,
        engine.machine().max_gpu_peak(),
        "{label}: simulated GPU peak"
    );
    assert_eq!(
        sim.peak_host_bytes,
        engine.machine().host_memory().peak(),
        "{label}: simulated host peak"
    );

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

/// The rest of the model zoo: one cell each, so `simulate` is held to the
/// real epoch for every architecture the paper's model matrix prints.
#[test]
fn model_zoo_certifies_and_matches() {
    let ds = random_dataset(13, 220);
    for (kind, comm, gpus) in [
        (ModelKind::Gin, CommMode::P2pRu, 2),
        (ModelKind::CommNet, CommMode::P2p, 4),
        (ModelKind::Ggnn, CommMode::Vanilla, 2),
    ] {
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

/// A first epoch that runs out of device memory: `simulate` fails with
/// the same typed error, naming the same device and allocation.
#[test]
fn simulate_reports_the_epochs_out_of_memory() {
    let ds = random_dataset(29, 220);
    let mut hits = 0;
    for kb in [16usize, 24, 32, 48, 64, 96, 128] {
        let config = HongTuConfig::builder()
            .machine(MachineConfig::scaled(2, kb << 10))
            .build()
            .expect("config");
        let Ok(mut engine) = Session::new(&ds, ModelKind::Gat, 8, 2, 1, config) else {
            continue;
        };
        let sim = engine.simulate().map(|s| s.time);
        let real = run_epoch(&mut engine, Mode::Train).map(|(t, _)| t);
        if let Err(SimError::OutOfMemory { .. }) = real {
            hits += 1;
        }
        assert_eq!(
            sim.map(f64::to_bits),
            real.map(f64::to_bits),
            "{kb} KB: simulate disagrees with the epoch"
        );
    }
    assert!(hits > 0, "no capacity ran the first epoch out of memory");
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
