//! Certification of the parallel epoch executor: the per-GPU worker-thread
//! schedule must be *bitwise* equivalent to the sequential executor —
//! identical losses, accuracies, simulated clocks, and time buckets — and
//! its execution traces must certify race-free under the happens-before
//! checker, for every model × comm mode × GPU count.
//!
//! The RNG seed is `HONGTU_TEST_SEED` when set (the CI matrix runs two
//! seeds), 99 otherwise; the worker pool size is `HONGTU_THREADS` (the CI
//! matrix runs 1, 2, and 8), so these same assertions certify the executor
//! at every pool size including the degenerate single-thread one. Setting
//! `HONGTU_TEST_OVERLAP=doublebuffer` (the CI matrix's overlap dimension)
//! re-runs the whole suite under the double-buffered overlap executor.

use hongtu::core::{CommMode, ExecutionMode, HongTuConfig, MemoryStrategy, OverlapMode, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::datasets::load;
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::sim::{MachineConfig, Trace};
use hongtu::tensor::{Matrix, SeededRng};
use hongtu::verify::{verify_determinism, verify_trace};
use proptest::prelude::*;

fn test_seed() -> u64 {
    std::env::var("HONGTU_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(99)
}

fn dataset() -> Dataset {
    load(DatasetKey::Rdt, &mut SeededRng::new(test_seed()))
}

fn test_overlap() -> OverlapMode {
    match std::env::var("HONGTU_TEST_OVERLAP").as_deref() {
        Ok("doublebuffer") | Ok("db") => OverlapMode::DoubleBuffer,
        _ => OverlapMode::Off,
    }
}

fn config(
    gpus: usize,
    comm: CommMode,
    memory: MemoryStrategy,
    exec: ExecutionMode,
) -> HongTuConfig {
    let mut cfg = HongTuConfig::full(MachineConfig::scaled(gpus, 512 << 20));
    cfg.comm = comm;
    cfg.memory = memory;
    cfg.reorganize = comm != CommMode::Vanilla;
    cfg.exec = exec;
    cfg.overlap = test_overlap();
    cfg
}

/// Per-epoch observables that must match bitwise across executors.
#[derive(Debug, PartialEq)]
struct EpochFacts {
    loss: f32,
    accuracy: f32,
    time: f64,
    val: f32,
    test: f32,
    peak: usize,
}

fn run_epochs(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig, epochs: usize) -> Vec<EpochFacts> {
    let mut engine = Session::new(ds, kind, 16, 2, 4, cfg).expect("engine");
    let mut engine = engine.trainer();
    (0..epochs)
        .map(|_| {
            let r = engine.epoch().expect("epoch");
            EpochFacts {
                loss: r.loss.loss,
                accuracy: r.loss.accuracy,
                time: r.time,
                val: engine.session().accuracy(&ds.splits.val),
                test: engine.session().accuracy(&ds.splits.test),
                peak: engine.session().machine().max_gpu_peak(),
            }
        })
        .collect()
}

/// The headline determinism contract: for every model × comm mode × GPU
/// count, the parallel executor's losses, accuracies, simulated epoch
/// times, and peak memory are bitwise identical to the sequential
/// executor's (f64 equality, no tolerance).
#[test]
fn parallel_matches_sequential_bitwise() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for gpus in [1, 2, 4] {
                let seq = run_epochs(
                    &ds,
                    kind,
                    config(
                        gpus,
                        comm,
                        MemoryStrategy::Recompute,
                        ExecutionMode::Sequential,
                    ),
                    2,
                );
                let par = run_epochs(
                    &ds,
                    kind,
                    config(
                        gpus,
                        comm,
                        MemoryStrategy::Recompute,
                        ExecutionMode::Parallel,
                    ),
                    2,
                );
                assert_eq!(
                    seq,
                    par,
                    "{} / {comm:?} / {gpus} GPUs: parallel diverged from sequential",
                    kind.name()
                );
            }
        }
    }
}

/// Same contract for the hybrid memory strategy (cached-aggregate
/// backward path: no serves, leader-applied checkpoint stores).
#[test]
fn parallel_matches_sequential_bitwise_hybrid() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Sage] {
        let seq = run_epochs(
            &ds,
            kind,
            config(
                4,
                CommMode::P2pRu,
                MemoryStrategy::Hybrid,
                ExecutionMode::Sequential,
            ),
            2,
        );
        let par = run_epochs(
            &ds,
            kind,
            config(
                4,
                CommMode::P2pRu,
                MemoryStrategy::Hybrid,
                ExecutionMode::Parallel,
            ),
            2,
        );
        assert_eq!(seq, par, "{} hybrid: parallel diverged", kind.name());
    }
}

fn traced_epoch(ds: &Dataset, exec: ExecutionMode) -> Trace {
    let cfg = config(4, CommMode::P2pRu, MemoryStrategy::Recompute, exec);
    let mut engine = Session::new(ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("engine");
    engine.machine_mut().enable_unbounded_trace();
    engine.trainer().epoch().expect("epoch");
    engine.machine().trace().clone()
}

/// The parallel executor's event trace certifies clean under the
/// happens-before checker and is *equivalent* to the sequential trace —
/// the worker-thread schedule is a commutable reordering of the reference
/// (here it is in fact identical: shards join in GPU index order).
#[test]
fn parallel_trace_certified_race_free_and_equivalent() {
    let ds = dataset();
    let par = traced_epoch(&ds, ExecutionMode::Parallel);
    let report = verify_trace(&par);
    assert!(
        report.is_ok(),
        "parallel schedule not certified:\n{}",
        report.render()
    );

    let seq = traced_epoch(&ds, ExecutionMode::Sequential);
    assert_eq!(seq.len(), par.len(), "trace length diverged");
    let report = verify_determinism(&seq, &par);
    assert!(
        report.is_ok(),
        "parallel schedule not equivalent to sequential:\n{}",
        report.render()
    );
}

/// An ad-hoc random dataset (not from the registry).
fn random_dataset(seed: u64, n: usize, deg: f64, classes: usize) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let g = generators::erdos_renyi(n, deg, &mut rng.fork(1));
    let graph = with_self_loops(&g);
    let feat_dim = 4 + rng.index(6);
    let mut frng = rng.fork(2);
    let features = Matrix::from_fn(n, feat_dim, |_, _| frng.normal() * 0.5);
    let mut lrng = rng.fork(3);
    let labels: Vec<u32> = (0..n).map(|_| lrng.index(classes) as u32).collect();
    let splits = Splits::random(n, 0.4, 0.2, &mut rng.fork(4));
    Dataset {
        key: DatasetKey::Rdt,
        graph,
        features,
        labels,
        splits,
        num_classes: classes,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Paranoid-mode property: on random datasets, chunkings, and comm
    /// modes, every epoch of the *parallel* executor is schedule-certified
    /// by the in-engine happens-before re-check (`train_epoch` fails with
    /// `InvalidSchedule` on any race), and its losses still match the
    /// sequential executor bitwise.
    #[test]
    fn paranoid_certifies_parallel_epochs_on_random_datasets(
        seed in 0u64..500,
        n in 120usize..300,
        deg in 3.0f64..7.0,
        chunks in 1usize..5,
        comm_sel in 0usize..3,
        gpus_sel in 0usize..3,
    ) {
        let comm = [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu][comm_sel];
        let gpus = [1, 2, 4][gpus_sel];
        let ds = random_dataset(seed, n, deg, 4);
        let mut cfg = config(gpus, comm, MemoryStrategy::Recompute, ExecutionMode::Parallel);
        cfg.validation = hongtu::core::ValidationLevel::Paranoid;
        let mut par = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, cfg)
            .expect("parallel engine");
        let mut par = par.trainer();

        let seq_cfg = config(gpus, comm, MemoryStrategy::Recompute, ExecutionMode::Sequential);
        let mut seq = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, seq_cfg)
            .expect("sequential engine");
        let mut seq = seq.trainer();

        for epoch in 0..2 {
            let p = par.epoch().expect("parallel epoch certifies race-free");
            let s = seq.epoch().expect("sequential epoch");
            prop_assert_eq!(
                p.loss.loss, s.loss.loss,
                "epoch {} loss diverged", epoch
            );
            prop_assert_eq!(p.time, s.time, "epoch {} time diverged", epoch);
        }
    }
}

/// What one GAT session observes over two training epochs, a full
/// inference epoch and a small served subset — everything the
/// once-per-layer projection feeds.
fn gat_facts(ds: &Dataset, exec: ExecutionMode, overlap: OverlapMode) -> Vec<u32> {
    let mut cfg = config(4, CommMode::P2pRu, MemoryStrategy::Recompute, exec);
    cfg.overlap = overlap;
    let mut sess = Session::new(ds, ModelKind::Gat, 16, 2, 4, cfg).expect("session");
    let mut facts = Vec::new();
    {
        let mut trainer = sess.trainer();
        for _ in 0..2 {
            let r = trainer.epoch().expect("epoch");
            facts.extend([r.loss.loss.to_bits(), r.loss.accuracy.to_bits()]);
        }
    }
    let logits = sess.infer_epoch().expect("infer epoch").logits;
    let served = sess.serve(&[3, 1, 250]).expect("serve").logits;
    for m in [logits, served] {
        facts.extend(m.as_slice().iter().map(|v| v.to_bits()));
    }
    facts
}

/// GAT × `ExecutionMode::Parallel` × both overlap modes on a pool of four
/// worker threads, under a wall-clock timeout. GAT's per-layer shared
/// work (the projection `H^l × W`) must run on the leader between
/// operations: computed lazily by whichever per-GPU job gets there first,
/// the initialising worker forks the product onto the pool, helps while
/// it waits, picks up a sibling GPU's job, and that job blocks on the
/// same cell further up the same stack — a deadlock, which this test
/// turns into a failure instead of a hung run. The pool is sized once per
/// process, so the body runs in a child of this binary with
/// `HONGTU_THREADS=4`, whatever the parent's setting.
#[test]
fn gat_parallel_finishes_and_matches_sequential_on_a_four_thread_pool() {
    const CHILD: &str = "HONGTU_GAT_PARALLEL_CHILD";
    if std::env::var_os(CHILD).is_some() {
        assert!(hongtu::parallel::global().num_threads() >= 2);
        let ds = dataset();
        for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
            let seq = gat_facts(&ds, ExecutionMode::Sequential, overlap);
            let par = gat_facts(&ds, ExecutionMode::Parallel, overlap);
            assert!(seq == par, "GAT / {overlap:?}: parallel diverged");
        }
        return;
    }
    let mut child = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "gat_parallel_finishes_and_matches_sequential_on_a_four_thread_pool",
            "--exact",
        ])
        .env("HONGTU_THREADS", "4")
        .env(CHILD, "1")
        .spawn()
        .expect("re-run the test binary");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            break status;
        }
        if std::time::Instant::now() >= deadline {
            child.kill().expect("kill the hung child");
            child.wait().expect("reap the hung child");
            panic!("GAT under ExecutionMode::Parallel did not finish in 300 s: deadlocked");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(status.success(), "child failed: {status}");
}
