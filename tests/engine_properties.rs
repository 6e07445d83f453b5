//! Property-style integration tests: the HongTu engine against the
//! reference full-graph trainer on *randomly generated* datasets — graphs,
//! features, splits, model shapes, chunkings all drawn from a seed.

use hongtu::core::{HongTuConfig, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::graph::generators;
use hongtu::nn::model::whole_graph_chunk;
use hongtu::nn::{GnnModel, ModelKind};
use hongtu::sim::MachineConfig;
use hongtu::tensor::{Adam, Matrix, SeededRng};
use proptest::prelude::*;

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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random datasets, shapes, and chunkings, three epochs of HongTu
    /// training match the reference full-graph trainer loss-for-loss.
    #[test]
    fn engine_equals_reference_on_random_datasets(
        seed in 0u64..500,
        n in 120usize..400,
        deg in 3.0f64..8.0,
        hidden in 4usize..12,
        chunks in 1usize..5,
        kind_sel in 0usize..6,
    ) {
        let kind = [
            ModelKind::Gcn,
            ModelKind::Gat,
            ModelKind::Sage,
            ModelKind::Gin,
            ModelKind::CommNet,
            ModelKind::Ggnn,
        ][kind_sel];
        let ds = random_dataset(seed, n, deg, 4);
        let cfg = HongTuConfig::builder().gpu_mem_mb(512).build().expect("valid config");
        let mut engine = Session::new(&ds, kind, hidden, 2, chunks, cfg)
            .expect("engine");
        let mut engine = engine.trainer();
        let mut rng = SeededRng::new(ds.seed ^ 0x686F6E67);
        let mut reference = GnnModel::new(kind, &ds.model_dims(hidden, 2), &mut rng);
        let chunk = whole_graph_chunk(&ds.graph);
        let mut opt = Adam::new(0.01);
        for epoch in 0..3 {
            let got = engine.epoch().expect("epoch").loss.loss;
            let want = reference
                .train_epoch_reference(&chunk, &ds.features, &ds.labels, &ds.splits.train, &mut opt)
                .loss;
            let tol = 1e-2 * want.abs().max(1.0);
            prop_assert!(
                (got - want).abs() < tol,
                "{} seed {seed} epoch {epoch}: engine {got} vs reference {want}",
                kind.name()
            );
        }
    }

    /// Peak GPU memory never exceeds the budget the engine accepted, for
    /// any random configuration that constructs successfully.
    #[test]
    fn peak_memory_within_budget(
        seed in 0u64..500,
        n in 150usize..400,
        chunks in 1usize..6,
    ) {
        let ds = random_dataset(seed, n, 5.0, 3);
        let budget = 64 << 20;
        let cfg = HongTuConfig::builder()
            .machine(MachineConfig::scaled(4, budget))
            .build()
            .expect("valid config");
        if let Ok(mut e) = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, cfg) {
            if e.trainer().epoch().is_ok() {
                prop_assert!(e.machine().max_gpu_peak() <= budget);
            }
        }
    }
}

/// The engine refuses a corrupted plan at construction: the verifier runs
/// under the default `ValidationLevel::Plan` and surfaces the diagnostic
/// code instead of silently training on wrong data.
#[test]
fn corrupted_plan_is_rejected_with_diagnostic_code() {
    use hongtu::partition::TwoLevelPartition;
    use hongtu::sim::SimError;

    let ds = random_dataset(55, 250, 5.0, 3);
    let mut plan = TwoLevelPartition::build(&ds.graph, 2, 2, ds.seed);
    // Drop one destination vertex: a coverage gap (P002) — that vertex
    // would simply never be aggregated, with no crash.
    let dests = {
        let mut d = plan.chunks[0][0].dests.clone();
        d.remove(d.len() / 2);
        d
    };
    plan.chunks[0][0] = std::sync::Arc::new(hongtu::partition::subgraph::ChunkSubgraph::build(
        &ds.graph, 0, 0, dests,
    ));

    let config = HongTuConfig::builder()
        .gpus(2)
        .reorganize(false) // keep the corruption byte-identical
        .build()
        .expect("valid config");
    let err = match Session::with_plan(&ds, ModelKind::Gcn, 8, 2, plan, config) {
        Err(e) => e,
        Ok(_) => panic!("corrupted plan must be rejected"),
    };
    match err {
        SimError::InvalidPlan { code, message } => {
            assert_eq!(code, "P002", "{message}");
            assert!(message.contains("owned by no chunk"), "{message}");
        }
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
}

/// `Paranoid` keeps the buffer plans alive and re-verifies them each
/// epoch (in debug builds); a healthy engine must train unaffected.
#[test]
fn paranoid_validation_trains_normally() {
    use hongtu::core::ValidationLevel;

    let ds = random_dataset(66, 200, 5.0, 3);
    let config = HongTuConfig::builder()
        .gpus(2)
        .validation(ValidationLevel::Paranoid)
        .build()
        .expect("valid config");
    let mut engine = Session::new(&ds, ModelKind::Gcn, 8, 2, 3, config).expect("engine");
    let mut engine = engine.trainer();
    for _ in 0..2 {
        engine.epoch().expect("paranoid epoch");
    }
}

/// Saved models round-trip through the checkpoint format and keep the
/// engine-trained accuracy.
#[test]
fn trained_model_checkpoint_roundtrip() {
    let ds = random_dataset(77, 200, 5.0, 3);
    let cfg = HongTuConfig::builder().build().expect("valid config");
    let mut engine = Session::new(&ds, ModelKind::Gcn, 8, 2, 2, cfg).unwrap();
    let mut engine = engine.trainer();
    for _ in 0..5 {
        engine.epoch().unwrap();
    }
    let mut buf = Vec::new();
    hongtu::nn::save_model(engine.session().model(), &mut buf).unwrap();
    let restored = hongtu::nn::load_model(buf.as_slice()).unwrap();
    let chunk = whole_graph_chunk(&ds.graph);
    let logits_trained = engine
        .session()
        .model()
        .forward_reference(&chunk, &ds.features)
        .pop()
        .unwrap();
    let logits_restored = restored
        .forward_reference(&chunk, &ds.features)
        .pop()
        .unwrap();
    assert_eq!(logits_trained, logits_restored);
}
