//! Checkpoint workflow: train with HongTu, save the model, reload it in a
//! fresh process-like context, and verify identical inference.
//!
//! Run with: `cargo run --example checkpoint_workflow`

use hongtu::core::{HongTuConfig, Session};
use hongtu::datasets::{load, DatasetKey};
use hongtu::nn::model::whole_graph_chunk;
use hongtu::nn::{load_model_file, loss::masked_accuracy, save_model_file, ModelKind};
use hongtu::sim::MachineConfig;
use hongtu::tensor::SeededRng;

fn main() {
    let dataset = load(DatasetKey::Opt, &mut SeededRng::new(42));
    let machine = MachineConfig::scaled(4, 256 << 20);
    let mut session = Session::new(
        &dataset,
        ModelKind::Sage,
        32,
        2,
        4,
        HongTuConfig::builder()
            .machine(machine)
            .build()
            .expect("valid config"),
    )
    .expect("session");

    println!("training GraphSAGE on the ogbn-products proxy ...");
    let mut trainer = session.trainer();
    for epoch in 1..=100 {
        let r = trainer.epoch().expect("epoch");
        if epoch % 25 == 0 {
            println!("epoch {epoch:>3}: loss {:.4}", r.loss.loss);
        }
    }
    let val = session.accuracy(&dataset.splits.val);
    println!("trained validation accuracy: {val:.3}");

    // Save and reload.
    let path = std::env::temp_dir().join("hongtu_checkpoint_example.htgm");
    save_model_file(session.model(), &path).expect("save");
    println!("saved model to {}", path.display());
    let restored = load_model_file(&path).expect("load");
    println!(
        "restored: {} with dims {:?} ({} parameters)",
        restored.kind.name(),
        restored.dims,
        restored.param_count()
    );

    // Full-neighbor inference with the restored model must match.
    let chunk = whole_graph_chunk(&dataset.graph);
    let logits = restored
        .forward_reference(&chunk, &dataset.features)
        .pop()
        .unwrap();
    let val_restored = masked_accuracy(&logits, &dataset.labels, &dataset.splits.val);
    println!("restored validation accuracy: {val_restored:.3}");
    assert!(
        (val - val_restored).abs() < 1e-6,
        "restored model must match exactly"
    );
    println!("round trip verified: identical inference.");
    std::fs::remove_file(&path).ok();
}
