//! Out-of-GPU-memory training on a web-scale graph.
//!
//! This is the paper's motivating scenario: the graph's training data
//! exceeds aggregate GPU memory, so every in-memory system fails while
//! HongTu streams chunks through the GPUs from CPU memory.
//!
//! Run with: `cargo run --example web_graph_offload`

use hongtu::core::systems::{InMemoryKind, MultiGpuInMemory, SingleGpuFullGraph, Workload};
use hongtu::core::{HongTuConfig, Session};
use hongtu::datasets::{load, DatasetKey};
use hongtu::nn::ModelKind;
use hongtu::sim::MachineConfig;
use hongtu::tensor::SeededRng;

fn main() {
    let mut rng = SeededRng::new(7);
    let dataset = load(DatasetKey::It, &mut rng);
    println!(
        "it-2004 proxy: {} vertices, {} edges (web crawl structure)",
        dataset.num_vertices(),
        dataset.num_edges()
    );

    // A machine whose GPUs cannot hold the training data.
    let machine = MachineConfig::scaled(4, 34 << 20);
    let workload = Workload::new(&dataset, ModelKind::Gcn, 32, 3);

    // In-memory systems: both fail.
    let single = SingleGpuFullGraph::new(MachineConfig::scaled(1, 34 << 20));
    match single.epoch_time(&workload) {
        Err(e) => println!("single-GPU full-graph: {e}"),
        Ok(t) => println!("single-GPU full-graph: {t:.4}s (unexpected!)"),
    }
    let im = MultiGpuInMemory::new(InMemoryKind::HongTuIm, machine.clone(), &dataset, 1);
    match im.epoch_time(&workload) {
        Err(e) => println!("4-GPU in-memory:       {e}"),
        Ok(t) => println!("4-GPU in-memory:       {t:.4}s (unexpected!)"),
    }

    // HongTu: offload vertex data to CPU memory, stream chunks.
    let mut session = Session::new(
        &dataset,
        ModelKind::Gcn,
        32,
        3,
        8, // chunks per partition (paper uses 8 for it-2004 GCN)
        HongTuConfig::full(machine),
    )
    .expect("HongTu fits where in-memory systems do not");

    let pre = session.preprocessing();
    println!(
        "\nHongTu plan: 4 partitions x 8 chunks, V_ori {:.2}|V|, H2D cut {:.0}%",
        pre.volumes.v_ori as f64 / dataset.num_vertices() as f64,
        100.0 * pre.volumes.h2d_reduction()
    );

    let mut trainer = session.trainer();
    for epoch in 1..=5 {
        let r = trainer.epoch().expect("epoch");
        println!(
            "epoch {epoch}: loss {:.4}  sim-time {:.2} ms  peak GPU {:.1} MB",
            r.loss.loss,
            r.time * 1e3,
            trainer.session().machine().max_gpu_peak() as f64 / (1 << 20) as f64,
        );
    }
    println!(
        "\nHongTu trained a graph whose resident footprint ({:.0} MB/GPU in-memory)\n\
         exceeds the {:.0} MB GPU budget, peaking at only {:.1} MB per GPU.",
        im.max_gpu_bytes(&workload) as f64 / (1 << 20) as f64,
        session.machine().config().gpu_memory as f64 / (1 << 20) as f64,
        session.machine().max_gpu_peak() as f64 / (1 << 20) as f64,
    );
}
