//! Quickstart: train a 2-layer GCN with HongTu on a synthetic community
//! graph and watch full-graph training converge while every byte of data
//! movement is accounted against the simulated 4-GPU platform.
//!
//! Run with: `cargo run --example quickstart`

use hongtu::core::{HongTuConfig, Session};
use hongtu::datasets::{load, DatasetKey};
use hongtu::nn::ModelKind;
use hongtu::sim::MachineConfig;
use hongtu::tensor::SeededRng;

fn main() {
    // 1. Load a dataset. `Rdt` is the reddit-like proxy: a dense labelled
    //    community graph with train/val/test splits.
    let mut rng = SeededRng::new(42);
    let dataset = load(DatasetKey::Rdt, &mut rng);
    println!(
        "dataset: {} — {} vertices, {} edges, {} features, {} classes",
        dataset.key.real_name(),
        dataset.num_vertices(),
        dataset.num_edges(),
        dataset.feat_dim(),
        dataset.num_classes,
    );

    // 2. Pick a platform. `scaled` keeps the A100 testbed's bandwidth
    //    ratios but shrinks capacities to match the proxy datasets.
    let machine = MachineConfig::scaled(4, 256 << 20);

    // 3. Build the session: 2-layer GCN, hidden dim 32, 4 chunks per
    //    partition, full HongTu (dedup communication + hybrid caching +
    //    reorganization).
    let mut session = Session::new(
        &dataset,
        ModelKind::Gcn,
        32, // hidden dimension
        2,  // layers
        4,  // chunks per partition
        HongTuConfig::builder()
            .machine(machine)
            .build()
            .expect("valid config"),
    )
    .expect("session construction");

    println!(
        "plan: {} partitions x {} chunks; V_ori = {} rows, H2D reduction {:.0}%",
        session.plans().partition.m,
        session.plans().partition.n,
        session.preprocessing().volumes.v_ori,
        100.0 * session.preprocessing().volumes.h2d_reduction(),
    );

    // 4. Train. Numerics are real; `report.time` is the simulated epoch
    //    time on the modeled hardware. The trainer owns the Adam state, so
    //    one trainer lives across all epochs of the run.
    let mut trainer = session.trainer();
    for epoch in 1..=30 {
        let report = trainer.epoch().expect("epoch");
        if epoch % 5 == 0 {
            println!(
                "epoch {epoch:>3}: loss {:.4}  train-acc {:.3}  sim-time {:.3} ms \
                 (H2D {:.0} KB, D2D {:.0} KB, reused {:.0} KB)",
                report.loss.loss,
                report.loss.accuracy,
                report.time * 1e3,
                report.buckets.bytes_h2d as f64 / 1024.0,
                report.buckets.bytes_d2d as f64 / 1024.0,
                report.buckets.bytes_reuse as f64 / 1024.0,
            );
        }
    }

    // 5. Evaluate on the held-out splits.
    println!(
        "final accuracy: val {:.3}, test {:.3}",
        session.accuracy(&dataset.splits.val),
        session.accuracy(&dataset.splits.test),
    );
    println!(
        "peak GPU memory: {:.1} MB of {:.0} MB",
        session.machine().max_gpu_peak() as f64 / (1 << 20) as f64,
        session.machine().config().gpu_memory as f64 / (1 << 20) as f64,
    );
}
