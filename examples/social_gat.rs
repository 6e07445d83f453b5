//! Graph attention training on a social-network graph.
//!
//! GAT's AGGREGATE produces O(|E|) intermediates (attention scores and
//! weights), so the hybrid caching strategy does not apply — HongTu falls
//! back to pure recomputation for it (§4.2). This example contrasts the
//! time breakdown of GAT (compute-heavy) against GCN
//! (communication-heavy) on the friendster proxy.
//!
//! Run with: `cargo run --example social_gat`

use hongtu::core::{HongTuConfig, MemoryStrategy, Session};
use hongtu::datasets::{load, DatasetKey};
use hongtu::nn::ModelKind;
use hongtu::sim::MachineConfig;
use hongtu::tensor::SeededRng;

fn run(kind: ModelKind, chunks: usize) {
    let mut rng = SeededRng::new(11);
    let dataset = load(DatasetKey::Fds, &mut rng);
    let machine = MachineConfig::scaled(4, 34 << 20);
    // Hybrid is requested for both; GAT layers decline aggregate caching
    // and the engine recomputes instead.
    let cfg = HongTuConfig::builder()
        .machine(machine)
        .memory(MemoryStrategy::Hybrid)
        .build()
        .expect("valid config");
    let mut session = Session::new(&dataset, kind, 32, 2, chunks, cfg).expect("session");
    let r = session.trainer().epoch().expect("epoch");
    let b = r.buckets;
    let total = b.total_time();
    println!(
        "{:<4} epoch {:>8.2} ms | GPU {:>4.0}%  H2D {:>4.0}%  D2D {:>4.0}%  CPU {:>4.0}% | loss {:.4}",
        kind.name(),
        r.time * 1e3,
        100.0 * (b.gpu + b.reuse) / total,
        100.0 * b.h2d / total,
        100.0 * b.d2d / total,
        100.0 * b.cpu / total,
        r.loss.loss,
    );
}

fn main() {
    println!("friendster proxy, 2 layers, 4 GPUs — component share of epoch time:\n");
    // Paper §7.1: friendster uses 32 chunks for GCN, 64 for GAT (larger
    // intermediate footprint → smaller chunks).
    run(ModelKind::Gcn, 32);
    run(ModelKind::Gat, 64);
    println!();
    println!("GCN is dominated by host-GPU communication; GAT shifts a large share");
    println!("to GPU compute (the paper measures GAT GPU time at ~4.5x GCN's).");
}
