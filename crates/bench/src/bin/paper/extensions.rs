//! Experiments beyond the paper's tables and figures: design ablations,
//! the memory calibration audit, and three extensions.

use hongtu_bench::{
    config::ExperimentConfig as C, format_bytes, format_seconds, header, time_cell, Ctx, Table,
};
use hongtu_core::systems::{CpuSystem, CpuSystemKind, InMemoryKind, SingleGpuFullGraph, Workload};
use hongtu_core::{
    comm_cost, CommMode, CommVolumes, DedupPlan, HongTuConfig, MemoryStrategy, Session,
};
use hongtu_datasets::registry::all_keys;
use hongtu_datasets::DatasetKey;
use hongtu_nn::ModelKind;
use hongtu_partition::{simple::HashPartitioner, TwoLevelPartition};
use std::io::{self, Write};

/// Ablations of HongTu's design choices (DESIGN.md §6), one knob at a
/// time on 2-layer runs; each section's heading names its knob.
pub fn ablation(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(w, "Ablations of HongTu's design choices", "DESIGN.md §6")?;
    let fds = DatasetKey::Fds;
    let epoch = |key, kind, config| ctx.simulate(key, kind, 2, config).expect("epoch").time;

    // ---- 1. memory strategy × model ----
    writeln!(w, "\n[1] intermediate-data strategy (FDS, 2 layers):")?;
    let mut t = Table::new(vec!["model", "strategy", "epoch time", "note"]);
    for kind in [ModelKind::Gcn, ModelKind::Gat] {
        for (strategy, name) in [
            (MemoryStrategy::Hybrid, "hybrid"),
            (MemoryStrategy::Recompute, "recompute"),
        ] {
            let time = epoch(fds, kind, C::hongtu(4).memory(strategy));
            let note = match (kind, strategy) {
                (ModelKind::Gat, MemoryStrategy::Hybrid) => {
                    "GAT declines agg caching; falls back to recompute"
                }
                (ModelKind::Gcn, MemoryStrategy::Hybrid) => {
                    "O(|V|) checkpoint load replaces O(a|V|) reload + O(|E|) recompute"
                }
                _ => "",
            };
            t.row(vec![
                kind.name().to_string(),
                name.to_string(),
                format_seconds(time),
                note.to_string(),
            ]);
        }
    }
    t.write(w)?;

    // ---- 2. reorganization on/off ----
    writeln!(
        w,
        "\n[2] Algorithm 4 reorganization (per-epoch time, GCN-2):"
    )?;
    let mut t = Table::new(vec!["dataset", "reorg off", "reorg on", "gain"]);
    for key in [DatasetKey::Opr, fds] {
        let off = epoch(key, ModelKind::Gcn, C::hongtu(4).reorganize(false));
        let on = epoch(key, ModelKind::Gcn, C::hongtu(4));
        t.row(vec![
            key.abbrev().to_string(),
            format_seconds(off),
            format_seconds(on),
            format!("{:+.1}%", 100.0 * (off - on) / off),
        ]);
    }
    t.write(w)?;

    // ---- 3. partitioner quality → communication volumes ----
    writeln!(
        w,
        "\n[3] level-1 partitioner (OPR, 4x32 chunks, Eq.4 cost):"
    )?;
    let ds = ctx.dataset(DatasetKey::Opr);
    let mut t = Table::new(vec![
        "partitioner",
        "V_ori/|V|",
        "H2D reduction",
        "Eq.4 cost",
        "epoch (dedup)",
        "epoch (vanilla)",
    ]);
    let machine = C::machine(4);
    let norm = ds.num_vertices() as f64;
    let portfolio = ctx.plan(ds.key, 4, 32);
    let hash = TwoLevelPartition::build_with(&ds.graph, 4, 32, &HashPartitioner);
    for (name, plan) in [("portfolio", &portfolio), ("hash", &hash)] {
        let v = CommVolumes::from_plan(&DedupPlan::build(plan));
        let run_with = |comm: CommMode| {
            let config = C::hongtu(4).comm(comm).reorganize(false).build();
            Session::with_plan(
                ds,
                ModelKind::Gcn,
                C::HIDDEN,
                2,
                plan.clone(),
                config.expect("paper configuration"),
            )
            .and_then(|s| s.simulate())
            .expect("epoch")
            .time
        };
        t.row(vec![
            name.to_string(),
            format!("{:.2}", v.v_ori as f64 / norm),
            format!("{:.0}%", 100.0 * v.h2d_reduction()),
            format_seconds(comm_cost(v, &machine, 128)),
            format_seconds(run_with(CommMode::P2pRu)),
            format_seconds(run_with(CommMode::Vanilla)),
        ]);
    }
    t.write(w)?;
    writeln!(
        w,
        "(hash partitioning inflates the neighbor sets and is clearly worse for\n\
         \x20the vanilla transfer scheme; full communication deduplication recovers\n\
         \x20most of the redundancy, making the engine far less partitioner-\n\
         \x20sensitive — dedup acts as a safety net for bad partitions)"
    )?;

    // ---- 4. interconnect sensitivity ----
    writeln!(
        w,
        "\n[4] interconnect (FDS GCN-2): NVLink vs PCIe-only inter-GPU links:"
    )?;
    let mut t = Table::new(vec!["platform", "comm mode", "epoch time"]);
    for (pname, machine) in [
        ("NVLink", C::machine(4)),
        ("PCIe-only", C::machine(4).pcie_only()),
    ] {
        for (mname, comm) in [("vanilla", CommMode::Vanilla), ("dedup", CommMode::P2pRu)] {
            let config = HongTuConfig::builder().machine(machine.clone()).comm(comm);
            t.row(vec![
                pname.to_string(),
                mname.to_string(),
                format_seconds(epoch(fds, ModelKind::Gcn, config)),
            ]);
        }
    }
    t.write(w)?;
    writeln!(
        w,
        "(on PCIe-only platforms inter-GPU sharing buys little, but intra-GPU\n\
         \x20reuse still reduces host traffic — §5.3's interconnect discussion)"
    )?;

    // ---- 5. interleaved vs naive P2P schedule ----
    writeln!(w, "\n[5] inter-GPU schedule (FDS GCN-2):")?;
    let mut t = Table::new(vec!["schedule", "epoch time"]);
    for (name, interleaved) in [("interleaved", true), ("naive", false)] {
        let time = epoch(fds, ModelKind::Gcn, C::hongtu(4).interleaved(interleaved));
        t.row(vec![name.to_string(), format_seconds(time)]);
    }
    t.write(w)?;
    writeln!(
        w,
        "(the interleaved schedule of §6 avoids several GPUs pulling from the\n\
         \x20same source in one time slot)"
    )
}

/// Every system's footprint vs its capacity per (dataset, model, layers),
/// to check the scaled constants in `config.rs` against the OOM cells.
pub fn calibrate(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "calibration: memory footprints vs capacities",
        "internal",
    )?;
    writeln!(
        w,
        "GPU mem {}  | single-CPU {}  | ECS node {}",
        format_bytes(C::GPU_MEM),
        format_bytes(C::cpu_single().node_memory),
        format_bytes(C::cpu_cluster().node_memory),
    )?;
    let mut t = Table::new(vec![
        "dataset",
        "model",
        "L",
        "DGL(1gpu)",
        "Sancus/gpu",
        "IM/gpu",
        "CPU1/node",
        "ECS16/node",
    ]);
    for key in all_keys() {
        let ds = ctx.dataset(key);
        for kind in [ModelKind::Gcn, ModelKind::Gat] {
            for layers in C::layer_sweep(key) {
                let w = Workload::new(ds, kind, C::HIDDEN, layers);
                let dgl = SingleGpuFullGraph::new(C::machine(1)).required_bytes(&w);
                let sancus = ctx.in_memory(InMemoryKind::Sancus, key).max_gpu_bytes(&w);
                let im = ctx.in_memory(InMemoryKind::HongTuIm, key).max_gpu_bytes(&w);
                let cpu1 = CpuSystem::new(CpuSystemKind::SingleNode, C::cpu_single(), ds)
                    .per_node_bytes(&w);
                let ecs =
                    CpuSystem::new(CpuSystemKind::Cluster, C::cpu_cluster(), ds).per_node_bytes(&w);
                let (gpu, cpu) = (C::GPU_MEM, C::cpu_single().node_memory);
                let cells = [(dgl, gpu), (sancus, gpu), (im, gpu), (cpu1, cpu)]
                    .into_iter()
                    .chain([(ecs, C::cpu_cluster().node_memory)])
                    .map(|(need, cap)| {
                        let oom = if need > cap { " !OOM" } else { "" };
                        format!("{}{oom}", format_bytes(need))
                    });
                let labels = [
                    key.abbrev().to_string(),
                    kind.name().to_string(),
                    layers.to_string(),
                ];
                t.row(labels.into_iter().chain(cells).collect());
            }
        }
    }
    t.write(w)
}

/// Extension: every implemented architecture on a small and a large graph.
pub fn models_matrix(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Extension: model zoo under HongTu (2 layers, 4 GPUs)",
        "paper §4.2's model classification, exercised end-to-end",
    )?;
    let mut t = Table::new(vec!["model", "agg cache", "RDT epoch", "FDS epoch", "note"]);
    for kind in [
        ModelKind::Gcn,
        ModelKind::Sage,
        ModelKind::Gin,
        ModelKind::CommNet,
        ModelKind::Ggnn,
        ModelKind::Gat,
    ] {
        let note = match kind {
            ModelKind::Gcn => "weighted-sum aggregate, Linear+ReLU update",
            ModelKind::Sage => "mean aggregate + self projection",
            ModelKind::Gin => "sum aggregate (injective)",
            ModelKind::CommNet => "mean over *other* neighbors",
            ModelKind::Ggnn => "GRU update recomputed from O(|V|) checkpoint",
            ModelKind::Gat => "edge softmax -> falls back to recomputation",
        };
        let epoch = |key| time_cell(&ctx.simulate(key, kind, 2, C::hongtu(4)).map(|s| s.time));
        t.row(vec![
            kind.name().to_string(),
            if kind.supports_agg_cache() {
                "yes"
            } else {
                "no (recompute)"
            }
            .to_string(),
            epoch(DatasetKey::Rdt),
            epoch(DatasetKey::Fds),
            note.to_string(),
        ]);
    }
    t.write(w)?;
    writeln!(
        w,
        "\nevery architecture trains through the same partitioned, deduplicated,\n\
         recomputation-managed pipeline; only GAT declines the aggregate cache\n\
         (its AGGREGATE produces O(|E|) intermediates, §4.2)."
    )
}

/// Extension: §5.3 argues inter-GPU sharing helps exactly when
/// `T_dd ≫ T_hd` while intra-GPU reuse always helps. This sweeps the
/// NVLink bandwidth from PCIe parity to past NVLink 3.0 (ratio ~6.3).
pub fn sweep_interconnect(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Extension: dedup speedup vs inter-GPU bandwidth (FDS, GCN-2)",
        "HongTu (SIGMOD 2023), §5.3 'effectiveness with various interconnects'",
    )?;
    let mut t = Table::new(vec![
        "T_dd / T_hd",
        "baseline",
        "+P2P",
        "+RU",
        "dedup speedup",
    ]);
    for ratio in [1.0f64, 2.0, 4.0, 6.25, 12.5, 25.0] {
        let mut machine = C::machine(4);
        machine.nvlink_bw = machine.pcie_bw * ratio;
        let time = |comm: CommMode| {
            let config = HongTuConfig::builder().machine(machine.clone()).comm(comm);
            ctx.simulate(DatasetKey::Fds, ModelKind::Gcn, 2, config)
                .expect("epoch")
                .time
        };
        let base = time(CommMode::Vanilla);
        let p2p = time(CommMode::P2p);
        let ru = time(CommMode::P2pRu);
        t.row(vec![
            format!("{ratio:.2}x"),
            format_seconds(base),
            format_seconds(p2p),
            format_seconds(ru),
            format!("{:.2}x", base / ru),
        ]);
    }
    t.write(w)?;
    writeln!(
        w,
        "\nshape: at PCIe parity (1x) the gain comes from intra-GPU reuse alone;\n\
         the inter-GPU contribution grows with the link ratio and saturates once\n\
         D2D time vanishes from the critical path — matching §5.3's discussion."
    )
}

/// Extension: §7.1 argues that with unchanged semantics "shorter per-epoch
/// time indicates better time-to-accuracy performance". Both engines train
/// for real; their losses are printed against cumulative simulated time.
pub fn time_to_accuracy(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    const EPOCHS: usize = 30;
    header(
        w,
        "Extension: time-to-accuracy, HongTu vs vanilla offloading (FDS, GCN-2)",
        "HongTu (SIGMOD 2023), §7.1 evaluation-metric argument",
    )?;
    // (cumulative simulated time, loss) after each epoch.
    let curves = [CommMode::P2pRu, CommMode::Vanilla].map(|comm| {
        let mut session = ctx
            .session(DatasetKey::Fds, ModelKind::Gcn, 2, C::hongtu(4).comm(comm))
            .expect("session");
        let mut trainer = session.trainer();
        let mut t = 0.0;
        (0..EPOCHS)
            .map(|_| {
                let r = trainer.epoch().expect("epoch");
                t += r.time;
                (t, r.loss.loss)
            })
            .collect::<Vec<_>>()
    });

    let mut table = Table::new(vec![
        "epoch",
        "loss",
        "HongTu cumul.",
        "Baseline cumul.",
        "lead",
    ]);
    for e in (4..EPOCHS).step_by(5) {
        let (th, lh) = curves[0][e];
        let (tb, lb) = curves[1][e];
        // Reorganization permutes chunk order, so f32 summation order
        // differs slightly; semantics are identical.
        assert!(
            (lh - lb).abs() < 1e-3 * lb.abs().max(1.0),
            "identical semantics must give matching losses ({lh} vs {lb})"
        );
        table.row(vec![
            (e + 1).to_string(),
            format!("{lh:.4}"),
            format_seconds(th),
            format_seconds(tb),
            format!("{:.2}x", tb / th),
        ]);
    }
    table.write(w)?;
    writeln!(
        w,
        "\nboth engines follow the *same* loss trajectory (full-graph semantics\n\
         are unchanged); HongTu simply arrives at each point sooner — the\n\
         per-epoch speedup is exactly the time-to-accuracy speedup."
    )
}
