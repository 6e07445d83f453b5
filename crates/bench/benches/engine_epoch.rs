//! Wall-clock benchmark of a full HongTu training epoch (real numerics +
//! simulator accounting) on the reddit proxy — the end-to-end hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use hongtu_core::{CommMode, HongTuConfig, Session};
use hongtu_datasets::{load, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_sim::MachineConfig;
use hongtu_tensor::SeededRng;
use std::hint::black_box;

fn bench_epoch(c: &mut Criterion) {
    let ds = load(DatasetKey::Rdt, &mut SeededRng::new(1));
    let machine = MachineConfig::scaled(4, 512 << 20);
    for (name, comm) in [("dedup", CommMode::P2pRu), ("vanilla", CommMode::Vanilla)] {
        let mut cfg = HongTuConfig::full(machine.clone());
        cfg.comm = comm;
        cfg.reorganize = comm != CommMode::Vanilla;
        let mut session = Session::new(&ds, ModelKind::Gcn, 32, 2, 4, cfg).unwrap();
        let mut trainer = session.trainer();
        c.bench_function(format!("hongtu_epoch/rdt-gcn2-{name}"), |b| {
            b.iter(|| black_box(trainer.epoch().unwrap().loss.loss))
        });
    }
    // GAT epoch (recompute path).
    let mut session =
        Session::new(&ds, ModelKind::Gat, 32, 2, 4, HongTuConfig::full(machine)).unwrap();
    let mut trainer = session.trainer();
    c.bench_function("hongtu_epoch/rdt-gat2-dedup", |b| {
        b.iter(|| black_box(trainer.epoch().unwrap().loss.loss))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_epoch
}
criterion_main!(benches);
