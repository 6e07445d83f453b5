//! Ablations of HongTu's design choices (DESIGN.md §6):
//!
//! 1. intermediate-data strategy: hybrid caching vs pure recomputation,
//!    GCN vs GAT (the §4.2 trade-off);
//! 2. reorganization (Algorithm 4) on/off;
//! 3. level-1 partitioner: portfolio (multilevel/range) vs hash;
//! 4. interconnect: NVLink vs PCIe-only (the §5.3 discussion — inter-GPU
//!    sharing only pays on fast links; intra-GPU reuse always pays).

use hongtu_bench::{
    config::ExperimentConfig as C, dataset, format_seconds, header, run, Table, SEED,
};
use hongtu_core::{
    comm_cost, reorganize, CommMode, CommVolumes, DedupPlan, HongTuConfig, MemoryStrategy,
};
use hongtu_datasets::DatasetKey;
use hongtu_nn::ModelKind;
use hongtu_partition::{simple::HashPartitioner, TwoLevelPartition};

fn main() {
    header("Ablations of HongTu's design choices", "DESIGN.md §6");

    // ---- 1. memory strategy × model ----
    println!("\n[1] intermediate-data strategy (FDS, 2 layers):");
    let ds = dataset(DatasetKey::Fds);
    let mut t = Table::new(vec!["model", "strategy", "epoch time", "note"]);
    for kind in [ModelKind::Gcn, ModelKind::Gat] {
        for (strategy, name) in [
            (MemoryStrategy::Hybrid, "hybrid"),
            (MemoryStrategy::Recompute, "recompute"),
        ] {
            let mut cfg = HongTuConfig::full(C::machine(4));
            cfg.memory = strategy;
            let r = run::hongtu_session_with(&ds, kind, 2, 4, cfg)
                .and_then(|mut s| s.trainer().epoch())
                .expect("epoch");
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
                format_seconds(r.time),
                note.to_string(),
            ]);
        }
    }
    t.print();

    // ---- 2. reorganization on/off ----
    println!("\n[2] Algorithm 4 reorganization (per-epoch time, GCN-2):");
    let mut t = Table::new(vec!["dataset", "reorg off", "reorg on", "gain"]);
    for key in [DatasetKey::Opr, DatasetKey::Fds] {
        let ds = dataset(key);
        let time = |reorg: bool| {
            let mut cfg = HongTuConfig::full(C::machine(4));
            cfg.reorganize = reorg;
            run::hongtu_session_with(&ds, ModelKind::Gcn, 2, 4, cfg)
                .and_then(|mut s| s.trainer().epoch())
                .expect("epoch")
                .time
        };
        let off = time(false);
        let on = time(true);
        t.row(vec![
            key.abbrev().to_string(),
            format_seconds(off),
            format_seconds(on),
            format!("{:+.1}%", 100.0 * (off - on) / off),
        ]);
    }
    t.print();

    // ---- 3. partitioner quality → communication volumes ----
    println!("\n[3] level-1 partitioner (OPR, 4x32 chunks, Eq.4 cost):");
    let ds = dataset(DatasetKey::Opr);
    let mut t = Table::new(vec![
        "partitioner",
        "V_ori/|V|",
        "H2D reduction",
        "Eq.4 cost",
        "epoch (dedup)",
        "epoch (vanilla)",
    ]);
    let cfg = C::machine(4);
    let norm = ds.num_vertices() as f64;
    let portfolio = TwoLevelPartition::build(&ds.graph, 4, 32, SEED);
    let hash = TwoLevelPartition::build_with(&ds.graph, 4, 32, &HashPartitioner);
    for (name, plan) in [("portfolio", &portfolio), ("hash", &hash)] {
        let v = CommVolumes::from_plan(&DedupPlan::build(plan));
        let run_with = |comm: CommMode| {
            let mut config = HongTuConfig::full(cfg.clone());
            config.comm = comm;
            config.reorganize = false;
            hongtu_core::Session::with_plan(
                &ds,
                ModelKind::Gcn,
                C::hidden(ds.key),
                2,
                plan.clone(),
                config,
            )
            .and_then(|mut s| s.trainer().epoch())
            .expect("epoch")
            .time
        };
        t.row(vec![
            name.to_string(),
            format!("{:.2}", v.v_ori as f64 / norm),
            format!("{:.0}%", 100.0 * v.h2d_reduction()),
            format_seconds(comm_cost(v, &cfg, 128)),
            format_seconds(run_with(CommMode::P2pRu)),
            format_seconds(run_with(CommMode::Vanilla)),
        ]);
    }
    t.print();
    println!("(hash partitioning inflates the neighbor sets and is clearly worse for");
    println!(" the vanilla transfer scheme; full communication deduplication recovers");
    println!(" most of the redundancy, making the engine far less partitioner-");
    println!(" sensitive — dedup acts as a safety net for bad partitions)");

    // ---- 4. interconnect sensitivity ----
    println!("\n[4] interconnect (FDS GCN-2): NVLink vs PCIe-only inter-GPU links:");
    let ds = dataset(DatasetKey::Fds);
    let mut t = Table::new(vec!["platform", "comm mode", "epoch time"]);
    for (pname, machine) in [
        ("NVLink", C::machine(4)),
        ("PCIe-only", C::machine(4).pcie_only()),
    ] {
        for (mname, comm) in [("vanilla", CommMode::Vanilla), ("dedup", CommMode::P2pRu)] {
            let mut cfg = HongTuConfig::full(machine.clone());
            cfg.comm = comm;
            cfg.reorganize = comm != CommMode::Vanilla;
            let r = run::hongtu_session_with(&ds, ModelKind::Gcn, 2, 4, cfg)
                .and_then(|mut s| s.trainer().epoch())
                .expect("epoch");
            t.row(vec![
                pname.to_string(),
                mname.to_string(),
                format_seconds(r.time),
            ]);
        }
    }
    t.print();
    println!("(on PCIe-only platforms inter-GPU sharing buys little, but intra-GPU");
    println!(" reuse still reduces host traffic — §5.3's interconnect discussion)");

    // ---- 5. interleaved vs naive P2P schedule ----
    println!("\n[5] inter-GPU schedule (FDS GCN-2):");
    let ds = dataset(DatasetKey::Fds);
    let mut t = Table::new(vec!["schedule", "epoch time"]);
    for (name, interleaved) in [("interleaved", true), ("naive", false)] {
        let mut cfg = HongTuConfig::full(C::machine(4));
        cfg.interleaved = interleaved;
        let r = run::hongtu_session_with(&ds, ModelKind::Gcn, 2, 4, cfg)
            .and_then(|mut s| s.trainer().epoch())
            .expect("epoch");
        t.row(vec![name.to_string(), format_seconds(r.time)]);
    }
    t.print();
    println!("(the interleaved schedule of §6 avoids several GPUs pulling from the");
    println!(" same source in one time slot)");

    // keep the reorganize symbol referenced for doc purposes
    let _ = reorganize;
}
