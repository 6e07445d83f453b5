//! Figure 8: validation-accuracy curves of DGL (full-graph), DistDGL
//! (mini-batch) and HongTu for GCN over 100 epochs on the two labelled
//! datasets, with final (validation, test) accuracy.
//!
//! This experiment runs *real* training: HongTu must match the full-graph
//! reference exactly (same semantics), while mini-batch training follows a
//! different (sampled) trajectory.

use hongtu_bench::{config::ExperimentConfig as C, dataset, header, run, Table};
use hongtu_core::systems::MiniBatchSystem;
use hongtu_datasets::registry::small_keys;
use hongtu_nn::model::whole_graph_chunk;
use hongtu_nn::{loss::masked_accuracy, GnnModel, ModelKind};
use hongtu_tensor::{Adam, SeededRng};

const EPOCHS: usize = 100;
const REPORT_EVERY: usize = 10;

fn main() {
    header(
        "Figure 8: validation accuracy, DGL vs DistDGL vs HongTu (GCN, 100 epochs)",
        "HongTu (SIGMOD 2023), Figure 8",
    );
    for key in small_keys() {
        let ds = dataset(key);
        let layers = 2;
        let hidden = C::hidden(key);
        let chunk = whole_graph_chunk(&ds.graph);

        // --- DGL: reference full-graph training ---
        let mut rng = SeededRng::new(ds.seed ^ 0x686F6E67);
        let mut dgl = GnnModel::new(ModelKind::Gcn, &ds.model_dims(hidden, layers), &mut rng);
        let mut dgl_opt = Adam::new(0.01);
        let mut dgl_curve = Vec::new();

        // --- HongTu: partitioned offloading engine (same seed) ---
        let mut hongtu = run::hongtu_session(&ds, ModelKind::Gcn, layers, 4).expect("session");
        let mut hongtu = hongtu.trainer();
        let mut hongtu_curve = Vec::new();

        // --- DistDGL: sampled mini-batch training ---
        let mb = MiniBatchSystem::new(C::machine(4), C::minibatch_size(), hongtu_bench::SEED);
        let mut mb_rng = SeededRng::new(ds.seed ^ 0xD15D);
        let mut mb_model = GnnModel::new(
            ModelKind::Gcn,
            &ds.model_dims(hidden, layers),
            &mut mb_rng.fork(1),
        );
        let mut mb_opt = Adam::new(0.01);
        let mut mb_curve = Vec::new();

        for epoch in 1..=EPOCHS {
            dgl.train_epoch_reference(
                &chunk,
                &ds.features,
                &ds.labels,
                &ds.splits.train,
                &mut dgl_opt,
            );
            hongtu.epoch().expect("hongtu epoch");
            mb.train_epoch_real(&mut mb_model, &ds, &mut mb_opt, &mut mb_rng);
            if epoch % REPORT_EVERY == 0 {
                let dgl_logits = dgl.forward_reference(&chunk, &ds.features).pop().unwrap();
                let mb_logits = mb_model
                    .forward_reference(&chunk, &ds.features)
                    .pop()
                    .unwrap();
                dgl_curve.push(masked_accuracy(&dgl_logits, &ds.labels, &ds.splits.val));
                hongtu_curve.push(hongtu.session().accuracy(&ds.splits.val));
                mb_curve.push(masked_accuracy(&mb_logits, &ds.labels, &ds.splits.val));
            }
        }

        println!("\n--- {} ({}) ---", key.real_name(), key.abbrev());
        let mut t = Table::new(
            std::iter::once("epoch".to_string())
                .chain((1..=EPOCHS / REPORT_EVERY).map(|i| (i * REPORT_EVERY).to_string()))
                .collect::<Vec<_>>(),
        );
        let fmt = |c: &[f32]| c.iter().map(|a| format!("{:.3}", a)).collect::<Vec<_>>();
        t.row(
            std::iter::once("DGL-FG".to_string())
                .chain(fmt(&dgl_curve))
                .collect(),
        );
        t.row(
            std::iter::once("HongTu".to_string())
                .chain(fmt(&hongtu_curve))
                .collect(),
        );
        t.row(
            std::iter::once("DistDGL".to_string())
                .chain(fmt(&mb_curve))
                .collect(),
        );
        t.print();

        // Final (val, test) accuracies, as in the figure's legend.
        let dgl_logits = dgl.forward_reference(&chunk, &ds.features).pop().unwrap();
        let mb_logits = mb_model
            .forward_reference(&chunk, &ds.features)
            .pop()
            .unwrap();
        println!(
            "final (val, test): DGL-FG ({:.3}, {:.3})  HongTu ({:.3}, {:.3})  DistDGL ({:.3}, {:.3})",
            masked_accuracy(&dgl_logits, &ds.labels, &ds.splits.val),
            masked_accuracy(&dgl_logits, &ds.labels, &ds.splits.test),
            hongtu.session().accuracy(&ds.splits.val),
            hongtu.session().accuracy(&ds.splits.test),
            masked_accuracy(&mb_logits, &ds.labels, &ds.splits.val),
            masked_accuracy(&mb_logits, &ds.labels, &ds.splits.test),
        );
        let gap = dgl_curve
            .iter()
            .zip(&hongtu_curve)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!("max |DGL − HongTu| accuracy gap along the curve: {gap:.4}");
    }
    println!();
    println!("paper shape: HongTu and DGL full-graph curves coincide (training");
    println!("semantics unchanged); mini-batch training follows a different curve");
    println!("and can end above or below full-graph depending on the dataset.");
}
