//! Figures 8–11 of the paper.

use hongtu_bench::{
    config::ExperimentConfig as C, format_bytes, format_seconds, header, Ctx, Table, SEED,
};
use hongtu_core::systems::MiniBatchSystem;
use hongtu_core::{CommMode, Session};
use hongtu_datasets::registry::{large_keys, small_keys};
use hongtu_nn::model::whole_graph_chunk;
use hongtu_nn::{loss::masked_accuracy, GnnModel, ModelKind};
use hongtu_tensor::{Adam, SeededRng};
use std::io::{self, Write};

/// Figure 8, from *real* training on the two labelled datasets: HongTu
/// must match the full-graph reference (same semantics), while mini-batch
/// training follows a different (sampled) trajectory.
pub fn fig8(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    const EPOCHS: usize = 100;
    const REPORT_EVERY: usize = 10;
    header(
        w,
        "Figure 8: validation accuracy, DGL vs DistDGL vs HongTu (GCN, 100 epochs)",
        "HongTu (SIGMOD 2023), Figure 8",
    )?;
    for key in small_keys() {
        let ds = ctx.dataset(key);
        let layers = 2;
        let chunk = whole_graph_chunk(&ds.graph);

        // --- DGL: reference full-graph training ---
        let mut rng = SeededRng::new(ds.seed ^ 0x686F6E67);
        let mut dgl = GnnModel::new(ModelKind::Gcn, &ds.model_dims(C::HIDDEN, layers), &mut rng);
        let mut dgl_opt = Adam::new(0.01);
        let mut dgl_curve = Vec::new();

        // --- HongTu: partitioned offloading engine (same seed) ---
        let mut hongtu = ctx
            .session(key, ModelKind::Gcn, layers, C::hongtu(4))
            .expect("session");
        let mut hongtu = hongtu.trainer();
        let mut hongtu_curve = Vec::new();

        // --- DistDGL: sampled mini-batch training ---
        let mb = MiniBatchSystem::new(C::machine(4), C::MINIBATCH_SIZE, SEED);
        let mut mb_rng = SeededRng::new(ds.seed ^ 0xD15D);
        let mut mb_model = GnnModel::new(
            ModelKind::Gcn,
            &ds.model_dims(C::HIDDEN, layers),
            &mut mb_rng.fork(1),
        );
        let mut mb_opt = Adam::new(0.01);
        let mut mb_curve = Vec::new();

        let logits = |m: &GnnModel| m.forward_reference(&chunk, &ds.features).pop().unwrap();
        for epoch in 1..=EPOCHS {
            dgl.train_epoch_reference(
                &chunk,
                &ds.features,
                &ds.labels,
                &ds.splits.train,
                &mut dgl_opt,
            );
            hongtu.epoch().expect("hongtu epoch");
            mb.train_epoch_real(&mut mb_model, ds, &mut mb_opt, &mut mb_rng);
            if epoch % REPORT_EVERY == 0 {
                dgl_curve.push(masked_accuracy(&logits(&dgl), &ds.labels, &ds.splits.val));
                hongtu_curve.push(hongtu.session().accuracy(&ds.splits.val));
                mb_curve.push(masked_accuracy(
                    &logits(&mb_model),
                    &ds.labels,
                    &ds.splits.val,
                ));
            }
        }

        writeln!(w, "\n--- {} ({}) ---", key.real_name(), key.abbrev())?;
        let mut t = Table::new(
            std::iter::once("epoch".to_string())
                .chain((1..=EPOCHS / REPORT_EVERY).map(|i| (i * REPORT_EVERY).to_string()))
                .collect::<Vec<_>>(),
        );
        for (name, curve) in [
            ("DGL-FG", &dgl_curve),
            ("HongTu", &hongtu_curve),
            ("DistDGL", &mb_curve),
        ] {
            t.row(
                std::iter::once(name.to_string())
                    .chain(curve.iter().map(|a| format!("{a:.3}")))
                    .collect(),
            );
        }
        t.write(w)?;

        // Final (val, test) accuracies, as in the figure's legend.
        let (dgl_logits, mb_logits) = (logits(&dgl), logits(&mb_model));
        writeln!(
            w,
            "final (val, test): DGL-FG ({:.3}, {:.3})  HongTu ({:.3}, {:.3})  DistDGL ({:.3}, {:.3})",
            masked_accuracy(&dgl_logits, &ds.labels, &ds.splits.val),
            masked_accuracy(&dgl_logits, &ds.labels, &ds.splits.test),
            hongtu.session().accuracy(&ds.splits.val),
            hongtu.session().accuracy(&ds.splits.test),
            masked_accuracy(&mb_logits, &ds.labels, &ds.splits.val),
            masked_accuracy(&mb_logits, &ds.labels, &ds.splits.test),
        )?;
        let gap = dgl_curve
            .iter()
            .zip(&hongtu_curve)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        writeln!(
            w,
            "max |DGL − HongTu| accuracy gap along the curve: {gap:.4}"
        )?;
    }
    writeln!(
        w,
        "\npaper shape: HongTu and DGL full-graph curves coincide (training\n\
         semantics unchanged); mini-batch training follows a different curve\n\
         and can end above or below full-graph depending on the dataset."
    )
}

/// Figure 9: inter-GPU dedup (+P2P) and intra-GPU reuse (+RU) enabled one
/// by one over the vanilla baseline, each epoch split into its GPU, H2D,
/// D2D and CPU time.
pub fn fig9(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Figure 9: per-epoch breakdown, Baseline vs +P2P vs +RU",
        "HongTu (SIGMOD 2023), Figure 9 + §7.4/§7.5",
    )?;
    for kind in [ModelKind::Gcn, ModelKind::Gat] {
        for key in large_keys() {
            writeln!(w, "\n--- {} on {} ---", kind.name(), key.abbrev())?;
            // Bucket times are summed over the 4 GPUs; show the per-GPU
            // average so components add up to the (critical-path) total.
            let mut t = Table::new(vec![
                "Layers", "Mode", "total", "GPU/gpu", "H2D/gpu", "D2D/gpu", "CPU/gpu", "speedup",
            ]);
            for layers in [2usize, 3, 4] {
                let mut baseline_time = None;
                for (mode, name) in [
                    (CommMode::Vanilla, "Baseline"),
                    (CommMode::P2p, "+P2P"),
                    (CommMode::P2pRu, "+RU"),
                ] {
                    let r = ctx
                        .simulate(key, kind, layers, C::hongtu(4).comm(mode))
                        .expect("large graphs must fit the offloading engine");
                    let base = *baseline_time.get_or_insert(r.time);
                    let g = 4.0;
                    t.row(vec![
                        layers.to_string(),
                        name.to_string(),
                        format_seconds(r.time),
                        format_seconds((r.buckets.gpu + r.buckets.reuse) / g),
                        format_seconds(r.buckets.h2d / g),
                        format_seconds(r.buckets.d2d / g),
                        format_seconds(r.buckets.cpu / g),
                        format!("{:.2}x", base / r.time),
                    ]);
                }
            }
            t.write(w)?;
        }
    }
    writeln!(
        w,
        "\npaper shape: +P2P and +RU each cut communication; total speedup over\n\
         the baseline is 1.3x-3.4x and stable across layer counts; GCN is\n\
         communication-bound (~58-61% comm) while GAT spends far more GPU time;\n\
         CPU gradient accumulation is 8-30% of the epoch."
    )
}

/// Figure 10: runtime and peak GPU memory of HongTu as the chunk count
/// grows ×1..×4 — the memory-vs-communication knob of §7.5. The paper
/// labels the factor a chunk *size*, but its plots (memory ↓, runtime ↑)
/// follow the chunk *count*, as here.
pub fn fig10(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Figure 10: runtime & peak GPU memory vs chunk-count factor (GCN)",
        "HongTu (SIGMOD 2023), Figure 10",
    )?;
    for key in large_keys() {
        writeln!(w, "\n--- {} ---", key.abbrev())?;
        let mut t = Table::new(vec![
            "factor",
            "chunks/part",
            "epoch time",
            "peak GPU mem",
            "vs x1",
        ]);
        let base_chunks = C::chunks(key, ModelKind::Gcn);
        let mut base: Option<(f64, usize)> = None;
        for factor in 1..=4usize {
            let n = base_chunks * factor;
            let r = Session::with_plan(
                ctx.dataset(key),
                ModelKind::Gcn,
                C::HIDDEN,
                2,
                ctx.plan(key, 4, n),
                C::hongtu(4).build().expect("paper configuration"),
            )
            .and_then(|s| s.simulate())
            .expect("epoch");
            let peak = r.peak_gpu_bytes;
            let (bt, bp) = *base.get_or_insert((r.time, peak));
            t.row(vec![
                format!("x{factor}"),
                n.to_string(),
                format_seconds(r.time),
                format_bytes(peak),
                format!(
                    "time {:.2}x, mem {:.0}%",
                    r.time / bt,
                    100.0 * peak as f64 / bp as f64
                ),
            ]);
        }
        t.write(w)?;
    }
    writeln!(
        w,
        "\npaper shape: at x4 chunks, memory consumption drops 51%-65% while the\n\
         epoch time grows 1.5x-2.2x, linearly or sub-linearly in the factor."
    )
}

/// Figure 11. The 1→2 step is sub-proportional: with fewer GPUs than NUMA
/// sockets the vertex data spans both sockets and PCIe reads pay
/// remote-memory penalties (§7.6).
pub fn fig11(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Figure 11: scaling from 1 to 4 GPUs (normalized speedup)",
        "HongTu (SIGMOD 2023), Figure 11",
    )?;
    for kind in [ModelKind::Gcn, ModelKind::Gat] {
        writeln!(w, "\n--- {} ---", kind.name())?;
        let mut t = Table::new(vec![
            "dataset",
            "1 GPU",
            "2 GPUs",
            "3 GPUs",
            "4 GPUs",
            "speedup@4",
        ]);
        for key in large_keys() {
            let times: Vec<f64> = (1..=4)
                .map(|g| {
                    ctx.simulate(key, kind, 2, C::hongtu(g))
                        .expect("offloading engine must fit at every GPU count")
                        .time
                })
                .collect();
            t.row(vec![
                key.abbrev().to_string(),
                format_seconds(times[0]),
                format!("{} ({:.2}x)", format_seconds(times[1]), times[0] / times[1]),
                format!("{} ({:.2}x)", format_seconds(times[2]), times[0] / times[2]),
                format!("{} ({:.2}x)", format_seconds(times[3]), times[0] / times[3]),
                format!("{:.2}x", times[0] / times[3]),
            ]);
        }
        t.write(w)?;
    }
    writeln!(
        w,
        "\npaper shape: 3.3x-3.7x (GCN) and 3.4x-3.8x (GAT) at 4 GPUs, with the\n\
         1→2 step below 2x because ≤2-GPU configurations lack NUMA-local\n\
         vertex-data placement."
    )
}
