//! End-to-end integration tests: the HongTu engine against the reference
//! full-graph trainer, across models, strategies, and communication modes.

use hongtu::core::{CommMode, HongTuConfig, MemoryStrategy, Session};
use hongtu::datasets::{load, DatasetKey};
use hongtu::nn::model::whole_graph_chunk;
use hongtu::nn::{GnnModel, ModelKind};
use hongtu::sim::MachineConfig;
use hongtu::tensor::{Adam, SeededRng};

fn dataset() -> hongtu::datasets::Dataset {
    load(DatasetKey::Rdt, &mut SeededRng::new(77))
}

fn machine() -> MachineConfig {
    MachineConfig::scaled(4, 512 << 20)
}

/// The paper's core semantics claim (Figure 8): partitioned, offloaded,
/// deduplicated training computes the *same* function as single-device
/// full-graph training — for every model architecture.
#[test]
fn engine_matches_reference_for_every_model() {
    let ds = dataset();
    for kind in [
        ModelKind::Gcn,
        ModelKind::Gat,
        ModelKind::Sage,
        ModelKind::Gin,
    ] {
        let mut engine = Session::new(&ds, kind, 16, 2, 3, HongTuConfig::full(machine())).unwrap();
        let mut engine = engine.trainer();
        let mut rng = SeededRng::new(ds.seed ^ 0x686F6E67);
        let mut reference = GnnModel::new(kind, &ds.model_dims(16, 2), &mut rng);
        let chunk = whole_graph_chunk(&ds.graph);
        let mut opt = Adam::new(0.01);
        for epoch in 0..3 {
            let got = engine.epoch().unwrap().loss.loss;
            let want = reference
                .train_epoch_reference(&chunk, &ds.features, &ds.labels, &ds.splits.train, &mut opt)
                .loss;
            let tol = 5e-3 * want.abs().max(1.0);
            assert!(
                (got - want).abs() < tol,
                "{} epoch {epoch}: engine {got} vs reference {want}",
                kind.name()
            );
        }
    }
}

/// Every (comm mode × memory strategy) combination computes identical
/// training losses; they differ only in simulated cost.
#[test]
fn all_configurations_agree_numerically() {
    let ds = dataset();
    let mut losses = Vec::new();
    let mut times = Vec::new();
    for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
        for memory in [MemoryStrategy::Recompute, MemoryStrategy::Hybrid] {
            let mut cfg = HongTuConfig::full(machine());
            cfg.comm = comm;
            cfg.memory = memory;
            cfg.reorganize = false; // identical plan across configurations
            let mut e = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).unwrap();
            let mut e = e.trainer();
            let r = e.epoch().unwrap();
            losses.push(r.loss.loss);
            times.push(r.time);
        }
    }
    for l in &losses[1..] {
        assert_eq!(
            *l, losses[0],
            "losses diverged across configurations: {losses:?}"
        );
    }
    // Full dedup + hybrid must be the fastest configuration.
    let full = times[5];
    assert!(times.iter().all(|&t| t >= full * 0.999), "times {times:?}");
}

/// Multi-epoch training drives validation accuracy well above chance on
/// the community-labelled proxy.
#[test]
fn long_training_reaches_good_accuracy() {
    let ds = dataset();
    let mut e = Session::new(&ds, ModelKind::Gcn, 32, 2, 4, HongTuConfig::full(machine())).unwrap();
    let mut e = e.trainer();
    for _ in 0..40 {
        e.epoch().unwrap();
    }
    let val = e.session().accuracy(&ds.splits.val);
    assert!(val > 0.8, "validation accuracy {val} (chance = 0.125)");
}

/// Epoch timing is deterministic: the plan is fixed, so every epoch costs
/// exactly the same simulated time (this justifies Table 9's 100-epoch
/// extrapolation).
#[test]
fn epoch_time_is_deterministic() {
    let ds = dataset();
    let mut e = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, HongTuConfig::full(machine())).unwrap();
    let mut e = e.trainer();
    let t1 = e.epoch().unwrap().time;
    let t2 = e.epoch().unwrap().time;
    let t3 = e.epoch().unwrap().time;
    assert!(
        (t1 - t2).abs() < 1e-12 && (t2 - t3).abs() < 1e-12,
        "{t1} {t2} {t3}"
    );
}

/// Two engines constructed identically produce bit-identical training.
#[test]
fn training_is_reproducible_across_engines() {
    let ds = dataset();
    let run = || {
        let mut e = Session::new(
            &ds,
            ModelKind::Sage,
            16,
            2,
            3,
            HongTuConfig::full(machine()),
        )
        .unwrap();
        let mut e = e.trainer();
        (0..4)
            .map(|_| e.epoch().unwrap().loss.loss)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
