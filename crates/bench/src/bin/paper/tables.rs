//! Tables 1–9 of the paper.

use hongtu_bench::{
    config::ExperimentConfig as C, format_seconds, header, time_cell, Ctx, Table, SEED,
};
use hongtu_core::systems::{
    CpuSystem, CpuSystemKind, InMemoryKind, Limitation, MiniBatchSystem, NeutronStyle, RocStyle,
    SingleGpuFullGraph, Workload,
};
use hongtu_core::{reorganize_guarded, CommMode, CommVolumes, DedupPlan};
use hongtu_datasets::memory_model::{gb, table1_datasets, MemoryModel};
use hongtu_datasets::registry::{all_keys, large_keys, small_keys};
use hongtu_datasets::DatasetKey;
use hongtu_graph::DegreeStats;
use hongtu_nn::ModelKind;
use hongtu_partition::{multilevel::metis_like, replication_factor};
use hongtu_sim::SimError;
use std::io::{self, Write};

/// A system's epoch time on a dataset, as a table row computes it.
type EpochTime<'a> = &'a dyn Fn(DatasetKey) -> Result<f64, SimError>;

/// Table 1, computed analytically at the paper's full scale.
pub fn table1(_: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 1: memory consumption of 3-layer full-graph GCN training",
        "HongTu (SIGMOD 2023), Table 1",
    )?;
    let mut t = Table::new(vec![
        "Dataset",
        "Model Config",
        "Topology",
        "Vtx Data",
        "Intr Data",
        "paper (topo/vtx/intr)",
    ]);
    for (ps, dims) in table1_datasets() {
        let m = MemoryModel::gcn(ps.vertices, ps.edges, &dims);
        let paper = match ps.name {
            "it-2004" => "12.8 / 177.2 / 108.3 GB",
            "ogbn-paper" => "18.0 / 519.4 / 425.3 GB",
            _ => "28.9 / 293.3 / 179.3 GB",
        };
        t.row(vec![
            ps.name.to_string(),
            dims.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("-"),
            format!("{:.1}GB", gb(m.topology)),
            format!("{:.1}GB", gb(m.vertex_data)),
            format!("{:.1}GB", gb(m.intermediate)),
            paper.to_string(),
        ]);
    }
    t.write(w)?;
    writeln!(
        w,
        "\n(analytic model; see DESIGN.md §Table 1 for the formulas — the paper's\n\
         \x20exact bookkeeping is not published, so agreement is within ~2x per cell\n\
         \x20with the cross-dataset ordering preserved)\n\
         \nextension — the paper's footnote 1 (edge-heavy models): the same\n\
         datasets under GAT, where the |E| x d edge messages dominate:"
    )?;
    let mut t = Table::new(vec!["Dataset", "Intr Data (GAT)", "vs GCN"]);
    for (ps, dims) in table1_datasets() {
        let gcn = MemoryModel::gcn(ps.vertices, ps.edges, &dims);
        let gat = MemoryModel::gat(ps.vertices, ps.edges, &dims);
        t.row(vec![
            ps.name.to_string(),
            format!("{:.1}GB", gb(gat.intermediate)),
            format!("{:.1}x", gat.intermediate as f64 / gcn.intermediate as f64),
        ]);
    }
    t.write(w)
}

/// Table 2 (systems landscape): the capability matrix of the paper's
/// §2.4 — which class of system can run which workload at the scaled
/// device budget, and why the others fail.
pub fn table2(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 2: full-graph system classes and their limitations",
        "HongTu (SIGMOD 2023), Table 2 / §2.4",
    )?;
    writeln!(
        w,
        "workloads: GCN-3 and GAT-3 on the small RDT proxy and the large OPR proxy\n"
    )?;
    let mut t = Table::new(vec![
        "System class",
        "stores VD",
        "stores ID",
        "full-nbr agg",
        "RDT GCN",
        "RDT GAT",
        "OPR GCN",
        "OPR GAT",
    ]);
    let keys = [DatasetKey::Rdt, DatasetKey::Opr];
    let kinds = [ModelKind::Gcn, ModelKind::Gat];
    let layers = 3;
    let limitation_cell = |r: Result<f64, Limitation>| match r {
        Ok(t) => format_seconds(t),
        Err(Limitation::OutOfMemory(_)) => "OOM".into(),
        Err(Limitation::Unsupported(_)) => "unsupported".into(),
    };
    // One row per class: its name, what it stores, and a cell per
    // (dataset, model) workload.
    let mut row = |class: [&str; 4], cell: &dyn Fn(usize, ModelKind) -> String| {
        let cells = (0..keys.len()).flat_map(|d| kinds.map(|kind| cell(d, kind)));
        t.row(class.map(String::from).into_iter().chain(cells).collect());
    };
    let workload = |d: usize, kind| Workload::new(ctx.dataset(keys[d]), kind, C::HIDDEN, layers);
    // In-memory (CAGNET/DGCL/PipeGCN/Sancus class).
    row(
        ["in-memory (Sancus)", "fully", "fully", "yes"],
        &|d, kind| {
            time_cell(
                &ctx.in_memory(InMemoryKind::Sancus, keys[d])
                    .epoch_time(&workload(d, kind)),
            )
        },
    );
    // NeuGraph/NeutronStar class.
    row(
        [
            "streamed VD (NeuGraph)",
            "partially",
            "fully",
            "no (2-D split)",
        ],
        &|d, kind| limitation_cell(NeutronStyle::new(C::machine(4)).epoch_time(&workload(d, kind))),
    );
    // ROC class.
    row(
        ["swapped ID (ROC)", "fully", "partially", "yes"],
        &|d, kind| limitation_cell(RocStyle::new(C::machine(4)).epoch_time(&workload(d, kind))),
    );
    row(["HongTu", "partially", "partially", "yes"], &|d, kind| {
        time_cell(
            &ctx.simulate(keys[d], kind, layers, C::hongtu(4))
                .map(|s| s.time),
        )
    });
    t.write(w)?;
    writeln!(
        w,
        "\npaper shape (Table 2 + Limitation 1): in-memory systems cannot hold the\n\
         large graph at all; NeuGraph-style streaming cannot express GAT's\n\
         full-neighbor softmax and still keeps intermediates resident; ROC-style\n\
         swapping needs resident vertex data; only HongTu stores *both* vertex\n\
         and intermediate data partially while keeping full-neighbor semantics."
    )
}

/// Table 3, on the three large graphs.
pub fn table3(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 3: neighbor replication factor α",
        "HongTu (SIGMOD 2023), Table 3",
    )?;
    let parts = [2usize, 4, 8, 16, 32, 64, 128, 256, 512];
    let mut t = Table::new(
        std::iter::once("Partitions".to_string())
            .chain(parts.iter().map(|p| p.to_string()))
            .collect::<Vec<_>>(),
    );
    // No session here: 27 independent multilevel runs, one thread per
    // dataset.
    let alphas = std::thread::scope(|s| {
        large_keys()
            .map(|key| {
                let g = &ctx.dataset(key).graph;
                s.spawn(move || parts.map(|p| replication_factor(g, &metis_like(g, p, SEED))))
            })
            .map(|worker| worker.join().unwrap())
    });
    for (key, row) in large_keys().into_iter().zip(alphas) {
        t.row(
            std::iter::once(format!("{} ({})", key.real_name(), key.abbrev()))
                .chain(row.iter().map(|a| format!("{a:.2}")))
                .collect(),
        );
    }
    t.write(w)?;
    writeln!(
        w,
        "\npaper: it-2004 1.23→1.85, ogbn-paper (α₂₅₆=10.6, α₅₁₂=12.3),\n\
         \x20      friendster 1.32→18.1 — α grows with partition count and the\n\
         \x20      social graph (FDS) replicates far more than the web graph (IT)."
    )
}

/// Table 4: the proxies' statistics next to the originals they stand in
/// for.
pub fn table4(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 4: dataset description (proxy vs original)",
        "HongTu (SIGMOD 2023), Table 4",
    )?;
    let mut t = Table::new(vec![
        "Dataset",
        "|V|",
        "|E|",
        "#F",
        "#L",
        "avg deg",
        "max in-deg",
        "train frac",
        "original |V|/|E|",
    ]);
    let originals = [
        "0.23M / 114M",
        "2.4M / 62M",
        "41M / 1.2B",
        "111M / 1.6B",
        "65.6M / 2.5B",
    ];
    for (key, orig) in all_keys().into_iter().zip(originals) {
        let ds = ctx.dataset(key);
        let stats = DegreeStats::in_degrees(&ds.graph);
        t.row(vec![
            format!("{} ({})", key.real_name(), key.abbrev()),
            ds.num_vertices().to_string(),
            ds.num_edges().to_string(),
            ds.feat_dim().to_string(),
            ds.num_classes.to_string(),
            format!("{:.1}", stats.mean),
            stats.max.to_string(),
            format!(
                "{:.1}%",
                100.0 * ds.splits.num_train() as f64 / ds.num_vertices() as f64
            ),
            orig.to_string(),
        ]);
    }
    t.write(w)?;
    writeln!(
        w,
        "\nproxies are ~500-1000x smaller with matched structure (degree skew,\n\
         id-locality, community signal) and the paper's train-split fractions."
    )
}

/// Table 5, on the two small datasets. Speedups are over DistGNN, the
/// first row.
pub fn table5(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 5: vs DGL (single GPU) and DistGNN (single CPU node), small graphs",
        "HongTu (SIGMOD 2023), Table 5",
    )?;
    for kind in [ModelKind::Gcn, ModelKind::Gat] {
        writeln!(w, "\n--- {} ---", kind.name())?;
        let mut t = Table::new(vec!["Layers", "System", "RDT", "OPT"]);
        for layers in [2usize, 4, 8] {
            let work = |key| Workload::new(ctx.dataset(key), kind, C::HIDDEN, layers);
            let systems: [(&str, EpochTime); 4] = [
                ("DistGNN", &|key| {
                    let ds = ctx.dataset(key);
                    CpuSystem::new(CpuSystemKind::SingleNode, C::cpu_single(), ds)
                        .epoch_time(&work(key))
                }),
                ("DGL", &|key| {
                    SingleGpuFullGraph::new(C::machine(1)).epoch_time(&work(key))
                }),
                ("HongTu-IM", &|key| {
                    ctx.in_memory(InMemoryKind::HongTuIm, key)
                        .epoch_time(&work(key))
                }),
                ("HongTu", &|key| {
                    ctx.simulate(key, kind, layers, C::hongtu(4))
                        .map(|s| s.time)
                }),
            ];
            let base = small_keys().map(systems[0].1);
            for (i, (name, time)) in systems.iter().enumerate() {
                let cells =
                    small_keys()
                        .into_iter()
                        .zip(&base)
                        .map(|(key, b)| match (time(key), b) {
                            (Ok(v), Ok(b)) if i > 0 => {
                                format!("{} ({:.0}x)", time_cell(&Ok(v)), b / v)
                            }
                            (r, _) => time_cell(&r),
                        });
                t.row(
                    [layers.to_string(), name.to_string()]
                        .into_iter()
                        .chain(cells)
                        .collect(),
                );
            }
        }
        t.write(w)?;
    }
    writeln!(
        w,
        "\npaper shape: GPU systems are >10x faster than the CPU system; HongTu-IM\n\
         ~= DGL; HongTu is 1.3x-3.8x slower than DGL (offloading overhead) but is\n\
         the only system that also handles the large graphs (Table 6)."
    )
}

/// Table 6. Small graphs use 2/4/8 layers, large ones 2/3/4 (the paper's
/// "2/2", "4/3", "8/4" row pairs).
pub fn table6(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 6: vs multi-GPU systems (4 GPUs), GCN on all five graphs",
        "HongTu (SIGMOD 2023), Table 6",
    )?;
    let mut t = Table::new(vec![
        "Layers(sm/lg)",
        "System",
        "RDT",
        "OPT",
        "IT",
        "OPR",
        "FDS",
    ]);
    // DistDGL: 4 sampling/training workers share the epoch.
    let mb = MiniBatchSystem::new(C::machine(4), C::MINIBATCH_SIZE, SEED);
    for depth in 0..3 {
        let layers = |key: DatasetKey| C::layer_sweep(key)[depth];
        let work = |key| Workload::new(ctx.dataset(key), ModelKind::Gcn, C::HIDDEN, layers(key));
        let in_memory = |kind, key| ctx.in_memory(kind, key).epoch_time(&work(key));
        let systems: [(&str, EpochTime); 4] = [
            ("Sancus", &|key| in_memory(InMemoryKind::Sancus, key)),
            ("HongTu-IM", &|key| in_memory(InMemoryKind::HongTuIm, key)),
            ("HongTu", &|key| {
                ctx.simulate(key, ModelKind::Gcn, layers(key), C::hongtu(4))
                    .map(|s| s.time)
            }),
            ("DistDGL", &|key| mb.epoch_time(&work(key)).map(|t| t / 4.0)),
        ];
        let label = format!("{}/{}", layers(DatasetKey::Rdt), layers(DatasetKey::It));
        for (name, time) in systems {
            let cells = all_keys().map(|key| time_cell(&time(key)));
            t.row(
                [label.clone(), name.to_string()]
                    .into_iter()
                    .chain(cells)
                    .collect(),
            );
        }
    }
    t.write(w)?;
    writeln!(
        w,
        "\npaper shape: Sancus and HongTu-IM OOM on all three large graphs; only\n\
         HongTu trains them. DistDGL grows super-linearly with depth (neighbor\n\
         explosion) and OOMs when deep; it wins only on OPR, whose training set\n\
         is ~1.1% of the vertices."
    )
}

/// Table 7, on the three large graphs.
pub fn table7(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 7: vs DistGNN on a 16-node CPU cluster, large graphs",
        "HongTu (SIGMOD 2023), Table 7",
    )?;
    let mut t = Table::new(vec![
        "Layers",
        "Dataset",
        "GCN DistGNN",
        "GCN HongTu",
        "GAT DistGNN",
        "GAT HongTu",
    ]);
    for layers in [2usize, 3, 4] {
        for key in large_keys() {
            let ds = ctx.dataset(key);
            let mut cells = vec![layers.to_string(), key.abbrev().to_string()];
            for kind in [ModelKind::Gcn, ModelKind::Gat] {
                let w = Workload::new(ds, kind, C::HIDDEN, layers);
                let dist =
                    CpuSystem::new(CpuSystemKind::Cluster, C::cpu_cluster(), ds).epoch_time(&w);
                let hongtu = ctx
                    .simulate(key, kind, layers, C::hongtu(4))
                    .map(|s| s.time);
                let speed = match (&dist, &hongtu) {
                    (Ok(d), Ok(h)) => format!("{} ({:.1}x)", time_cell(&hongtu), d / h),
                    _ => time_cell(&hongtu),
                };
                cells.push(time_cell(&dist));
                cells.push(speed);
            }
            t.row(cells);
        }
    }
    t.write(w)?;
    writeln!(
        w,
        "\npaper shape: DistGNN OOMs for 4-layer GCN on OPR and for every GAT\n\
         workload except 2-layer IT; where both run, HongTu is ~7.8x-20.2x\n\
         faster (avg 10.1x GCN / 20.2x GAT), at ~1/4 the per-hour cost."
    )
}

/// Table 8: `V_ori`, `V_ori − V_+p2p` (inter-GPU dedup) and
/// `V_+p2p − V_+ru` (intra-GPU reuse), normalized to |V|.
pub fn table8(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 8: duplicated-access volumes (normalized to |V|)",
        "HongTu (SIGMOD 2023), Table 8 + §7.3 headline",
    )?;
    let mut t = Table::new(vec![
        "Dataset",
        "Chunks",
        "V_ori",
        "V_ori-V_+p2p",
        "V_+p2p-V_+ru",
        "H2D reduction",
    ]);
    for key in large_keys() {
        // Paper: 32/128/128 total chunks for IT/OPR/FDS GCN (m·n).
        let n = C::chunks(key, ModelKind::Gcn);
        let plan = reorganize_guarded(ctx.plan(key, 4, n), &C::machine(4));
        let v = CommVolumes::from_plan(&DedupPlan::build(&plan));
        let norm = ctx.dataset(key).num_vertices() as f64;
        t.row(vec![
            format!("{} ({})", key.real_name(), key.abbrev()),
            format!("{}", 4 * n),
            format!("{:.2}", v.v_ori as f64 / norm),
            format!(
                "{:.2} ({:.1}%)",
                v.inter_gpu() as f64 / norm,
                100.0 * v.inter_gpu() as f64 / v.v_ori as f64
            ),
            format!(
                "{:.2} ({:.1}%)",
                v.intra_gpu() as f64 / norm,
                100.0 * v.intra_gpu() as f64 / v.v_ori as f64
            ),
            format!("{:.0}%", 100.0 * v.h2d_reduction()),
        ]);
    }
    t.write(w)?;
    writeln!(
        w,
        "\npaper: it-2004 (32 chunks): 1.6 / 0.26 (16.2%) / 0.15 (9.2%);\n\
         \x20      ogbn-paper (128):    8.5 / 0.77 (9.0%)  / 4.1 (48.3%);\n\
         \x20      friendster (128):    10.7 / 2.50 (23.3%) / 5.09 (47.6%);\n\
         \x20      total H2D reduction 25%-71%; OPR benefits most from intra-GPU\n\
         \x20      reuse (citation-graph locality)."
    )
}

/// Table 9. Per-epoch simulated time is deterministic for a fixed plan
/// (the integration tests check it across epochs), so the 100-epoch
/// figure is `100 × epoch_time`.
pub fn table9(ctx: &Ctx, w: &mut dyn Write) -> io::Result<()> {
    header(
        w,
        "Table 9: cost of communication deduplication (100-epoch GCN-2)",
        "HongTu (SIGMOD 2023), Table 9",
    )?;
    let mut t = Table::new(vec!["Engine", "IT", "OPR", "FDS"]);
    let mut without = vec!["HongTu w/o CD".to_string()];
    let mut with_cd = vec!["HongTu w/ CD".to_string()];
    let mut prep = vec!["Preprocessing".to_string()];
    for key in large_keys() {
        let vanilla = C::hongtu(4).comm(CommMode::Vanilla);
        let wo = ctx
            .simulate(key, ModelKind::Gcn, 2, vanilla)
            .expect("vanilla epoch");
        let session = ctx
            .session(key, ModelKind::Gcn, 2, C::hongtu(4))
            .expect("session");
        let wc = session.simulate().expect("CD epoch");
        without.push(format_seconds(100.0 * wo.time));
        with_cd.push(format_seconds(100.0 * wc.time));
        prep.push(format!(
            "+{}",
            format_seconds(session.preprocessing().seconds)
        ));
    }
    t.row(without);
    t.row(with_cd);
    t.row(prep);
    t.write(w)?;
    writeln!(
        w,
        "\npaper: 502.8/6260.2/4907.5 s without CD vs 359.6/2513.0/1554.1 s with,\n\
         \x20      preprocessing +4.5/+33.9/+22.7 s (≤1.5% of the 100-epoch run)."
    )
}
