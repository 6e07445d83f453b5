//! Certification of the forward-only inference executor behind the
//! Session/Trainer API split: `infer_epoch` must produce
//! logits bitwise identical to the forward half of `train_epoch` across
//! the full {model × comm × gpus × exec × overlap} matrix, run with a
//! strictly smaller memory footprint than training (no optimizer state,
//! no gradient host stores, no checkpoint cache), and its schedules must
//! certify race-free under the happens-before checker — including under
//! `Paranoid`, which re-certifies inside `infer_epoch` itself.
//!
//! The bitwise comparison works because `train_epoch` computes its loss
//! (and therefore its logits, `h^L`) from the *pre-update* weights: one
//! training epoch on a fresh engine leaves `logits()` equal to a pure
//! forward pass over the seed-initialized model, which is exactly what a
//! fresh inference session computes.
//!
//! The RNG seed is `HONGTU_TEST_SEED` when set, 99 otherwise; the worker
//! pool size is `HONGTU_THREADS`, so the parallel assertions certify the
//! inference executor at every pool size.

use hongtu::core::{
    CommMode, ExecutionMode, HongTuConfig, Mode, OverlapMode, Session, ValidationLevel,
};
use hongtu::datasets::dataset::{Dataset, DatasetKey};
use hongtu::datasets::load;
use hongtu::nn::ModelKind;
use hongtu::sim::MachineConfig;
use hongtu::tensor::{Adam, Matrix, SeededRng};
use hongtu::verify::verify_trace;

fn test_seed() -> u64 {
    std::env::var("HONGTU_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(99)
}

fn dataset() -> Dataset {
    load(DatasetKey::Rdt, &mut SeededRng::new(test_seed()))
}

fn config(
    gpus: usize,
    comm: CommMode,
    overlap: OverlapMode,
    exec: ExecutionMode,
    mode: Mode,
) -> HongTuConfig {
    HongTuConfig::builder()
        .machine(MachineConfig::scaled(gpus, 512 << 20))
        .comm(comm)
        .reorganize(comm != CommMode::Vanilla)
        .overlap(overlap)
        .exec(exec)
        .mode(mode)
        .build()
        .expect("valid config")
}

/// Logits of one *training* epoch's forward half (pre-update weights).
fn train_forward_logits(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> Matrix {
    let mut engine = Session::new(ds, kind, 16, 2, 4, cfg).expect("engine");
    engine.trainer().epoch().expect("train epoch");
    engine.logits().clone()
}

/// Logits + sim time of one inference epoch on a fresh `Mode::Infer`
/// session.
fn infer_logits(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> (Matrix, f64) {
    let mut session = Session::new(ds, kind, 16, 2, 4, cfg).expect("session");
    let report = session.infer_epoch().expect("infer epoch");
    assert_eq!(
        report.logits,
        *session.logits(),
        "report logits must alias the session's h^L"
    );
    (report.logits, report.time)
}

/// The inference determinism contract across the full ISSUE matrix:
/// every {exec × overlap} combination of `infer_epoch` reproduces the
/// training forward pass bit for bit, for every model, comm mode and
/// GPU count.
#[test]
fn infer_matches_train_forward_bitwise_across_matrix() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for gpus in [1, 2, 4] {
                let reference = train_forward_logits(
                    &ds,
                    kind,
                    config(
                        gpus,
                        comm,
                        OverlapMode::Off,
                        ExecutionMode::Sequential,
                        Mode::Train,
                    ),
                );
                for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
                    for exec in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
                        let (logits, _) =
                            infer_logits(&ds, kind, config(gpus, comm, overlap, exec, Mode::Infer));
                        assert_eq!(
                            logits,
                            reference,
                            "{} / {comm:?} / {gpus} GPUs / {overlap:?} / {exec:?}: \
                             inference logits diverged from the training forward pass",
                            kind.name()
                        );
                    }
                }
            }
        }
    }
}

/// Inference sessions run strictly below the training run's peaks on
/// both tiers — the GPUs drop the 2× Adam moment state, the host drops
/// the ∇h stores and the hybrid checkpoint cache — and an inference
/// sweep takes strictly less simulated time than a training epoch, for
/// every model, overlap mode and GPU count.
#[test]
fn infer_peak_memory_strictly_below_training() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
            for gpus in [1, 2, 4] {
                let tag = format!("{} / {overlap:?} / {gpus} GPUs", kind.name());
                let (train_time, train_gpu, train_host) = {
                    let cfg = config(
                        gpus,
                        CommMode::P2pRu,
                        overlap,
                        ExecutionMode::Sequential,
                        Mode::Train,
                    );
                    let mut engine = Session::new(&ds, kind, 16, 2, 4, cfg).expect("engine");
                    let time = engine.trainer().epoch().expect("train epoch").time;
                    (
                        time,
                        engine.machine().max_gpu_peak(),
                        engine.machine().host_memory().peak(),
                    )
                };
                let cfg = config(
                    gpus,
                    CommMode::P2pRu,
                    overlap,
                    ExecutionMode::Sequential,
                    Mode::Infer,
                );
                let mut session = Session::new(&ds, kind, 16, 2, 4, cfg).expect("session");
                let report = session.infer_epoch().expect("infer epoch");
                assert!(
                    report.peak_gpu_bytes < train_gpu,
                    "{tag}: inference GPU peak {} !< training {}",
                    report.peak_gpu_bytes,
                    train_gpu
                );
                assert!(
                    report.peak_host_bytes < train_host,
                    "{tag}: inference host peak {} !< training {}",
                    report.peak_host_bytes,
                    train_host
                );
                assert!(
                    report.time < train_time,
                    "{tag}: inference {} s !< training epoch {train_time} s",
                    report.time
                );
                assert!(report.time > 0.0);
                assert!(report.buckets.h2d > 0.0);
                assert!(report.buckets.gpu > 0.0);
            }
        }
    }
}

/// Double buffering overlaps inference too: on a multi-GPU dedup
/// configuration the overlapped forward pass is strictly faster than the
/// additive schedule, without changing a single logit bit (already
/// pinned by the matrix test above).
#[test]
fn overlapped_inference_is_strictly_faster() {
    let ds = dataset();
    let (_, t_off) = infer_logits(
        &ds,
        ModelKind::Gcn,
        config(
            4,
            CommMode::P2pRu,
            OverlapMode::Off,
            ExecutionMode::Sequential,
            Mode::Infer,
        ),
    );
    let (_, t_db) = infer_logits(
        &ds,
        ModelKind::Gcn,
        config(
            4,
            CommMode::P2pRu,
            OverlapMode::DoubleBuffer,
            ExecutionMode::Sequential,
            Mode::Infer,
        ),
    );
    assert!(t_db < t_off, "overlapped {t_db} !< additive {t_off}");
}

fn traced_infer_epoch(
    ds: &Dataset,
    overlap: OverlapMode,
    exec: ExecutionMode,
) -> hongtu::sim::Trace {
    let cfg = config(4, CommMode::P2pRu, overlap, exec, Mode::Infer);
    let mut session = Session::new(ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
    session.machine_mut().enable_unbounded_trace();
    session.infer_epoch().expect("infer epoch");
    session.machine().trace().clone()
}

/// Every inference schedule — additive and overlapped, sequential and
/// parallel — certifies race-free under the happens-before checker, and
/// each parallel trace equals its sequential reference event for event.
#[test]
fn inference_traces_certified_race_free() {
    let ds = dataset();
    for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
        let seq = traced_infer_epoch(&ds, overlap, ExecutionMode::Sequential);
        let report = verify_trace(&seq);
        assert!(
            report.is_ok(),
            "{overlap:?} sequential inference not certified:\n{}",
            report.render()
        );
        let par = traced_infer_epoch(&ds, overlap, ExecutionMode::Parallel);
        let report = verify_trace(&par);
        assert!(
            report.is_ok(),
            "{overlap:?} parallel inference not certified:\n{}",
            report.render()
        );
        assert!(
            seq.events().eq(par.events()),
            "{overlap:?}: parallel inference trace differs from sequential"
        );
    }
}

/// Paranoid validation re-certifies the inference schedule inside
/// `infer_epoch` itself, in both execution modes and all comm modes.
#[test]
fn paranoid_certifies_inference_epochs() {
    let ds = dataset();
    for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
        for exec in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
            let cfg = HongTuConfig::builder()
                .machine(MachineConfig::scaled(4, 512 << 20))
                .comm(comm)
                .reorganize(comm != CommMode::Vanilla)
                .overlap(OverlapMode::DoubleBuffer)
                .exec(exec)
                .validation(ValidationLevel::Paranoid)
                .infer()
                .build()
                .expect("valid config");
            let mut session = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
            session
                .infer_epoch()
                .unwrap_or_else(|e| panic!("{comm:?}/{exec:?}: {e}"));
        }
    }
}

/// Repeated inference epochs on one session are idempotent: same model,
/// same graph, bit-identical logits every time.
#[test]
fn repeated_inference_is_idempotent() {
    let ds = dataset();
    let cfg = config(
        2,
        CommMode::P2pRu,
        OverlapMode::Off,
        ExecutionMode::Sequential,
        Mode::Infer,
    );
    let mut session = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
    let first = session.infer_epoch().expect("epoch 1");
    let second = session.infer_epoch().expect("epoch 2");
    assert_eq!(first.logits, second.logits);
    assert_eq!(session.epochs_run(), 2);
}

/// Training entry points refuse an inference session instead of running
/// against missing gradient/optimizer allocations.
#[test]
#[should_panic(expected = "train_epoch on an inference session")]
fn train_epoch_on_infer_session_panics() {
    let ds = dataset();
    let cfg = config(
        2,
        CommMode::Vanilla,
        OverlapMode::Off,
        ExecutionMode::Sequential,
        Mode::Infer,
    );
    let mut engine = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("engine");
    let _ = engine.train_epoch(&mut Adam::new(0.01));
}

/// One validated session serves both executors: train through the
/// `Trainer`, then run a forward-only epoch on the *same* session — the
/// inference logits must match the logits of the forward pass over the
/// trained (post-update) weights, i.e. a subsequent training epoch's
/// forward half.
#[test]
fn shared_session_trains_then_serves() {
    let ds = dataset();
    let mk = || {
        Session::new(
            &ds,
            ModelKind::Gcn,
            16,
            2,
            4,
            config(
                2,
                CommMode::P2pRu,
                OverlapMode::Off,
                ExecutionMode::Sequential,
                Mode::Train,
            ),
        )
        .expect("session")
    };
    let mut session = mk();
    {
        let mut trainer = session.trainer();
        for _ in 0..2 {
            trainer.epoch().expect("train epoch");
        }
    }
    let served = session.infer_epoch().expect("infer epoch").logits;
    // Reference: 2 training epochs on an identical session, then read the
    // *third* epoch's forward logits (forward over the twice-updated
    // weights).
    let mut reference = mk();
    let mut trainer = reference.trainer();
    for _ in 0..3 {
        trainer.epoch().expect("train epoch");
    }
    assert_eq!(served, *trainer.session().logits());
}
