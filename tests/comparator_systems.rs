//! Cross-crate checks of the comparator systems against the paper's
//! fits/OOM pattern and runtime orderings, at the scaled experiment
//! configuration.

use hongtu::core::systems::{
    CpuSystem, CpuSystemKind, InMemoryKind, MiniBatchSystem, MultiGpuInMemory, SingleGpuFullGraph,
    Workload,
};
use hongtu::core::{HongTuConfig, Session};
use hongtu::datasets::{load, DatasetKey};
use hongtu::nn::ModelKind;
use hongtu::sim::{CpuClusterConfig, MachineConfig};
use hongtu::tensor::SeededRng;

const GPU_MEM: usize = 34 << 20;
const SEED: u64 = 20230246;

fn ds(key: DatasetKey) -> hongtu::datasets::Dataset {
    load(key, &mut SeededRng::new(SEED))
}

fn machine(gpus: usize) -> MachineConfig {
    MachineConfig::scaled(gpus, GPU_MEM)
}

/// Paper Table 6's central claim: in-memory multi-GPU systems hold the
/// small graphs at any depth but none of the large ones; HongTu holds all.
#[test]
fn memory_wall_matches_paper() {
    for key in [DatasetKey::Rdt, DatasetKey::Opt] {
        let d = ds(key);
        let im = MultiGpuInMemory::new(InMemoryKind::HongTuIm, machine(4), &d, 1);
        for layers in [2usize, 4, 8] {
            let w = Workload::new(&d, ModelKind::Gcn, 32, layers);
            assert!(
                im.epoch_time(&w).is_ok(),
                "{key:?} GCN-{layers} should fit in memory"
            );
        }
    }
    for key in [DatasetKey::It, DatasetKey::Opr, DatasetKey::Fds] {
        let d = ds(key);
        let im = MultiGpuInMemory::new(InMemoryKind::HongTuIm, machine(4), &d, 1);
        let sancus = MultiGpuInMemory::new(InMemoryKind::Sancus, machine(4), &d, 1);
        let w = Workload::new(&d, ModelKind::Gcn, 32, 2);
        assert!(im.epoch_time(&w).is_err(), "{key:?} must OOM in-memory");
        assert!(sancus.epoch_time(&w).is_err(), "{key:?} must OOM on Sancus");
        // ...but HongTu trains it.
        let mut engine = Session::new(
            &d,
            ModelKind::Gcn,
            32,
            2,
            32,
            HongTuConfig::full(machine(4)),
        )
        .expect("HongTu engine must fit");
        assert!(engine.trainer().epoch().is_ok(), "{key:?} HongTu epoch");
    }
}

/// Table 5 ordering on small graphs: GPU systems beat the CPU system by
/// an order of magnitude; HongTu pays a bounded offloading overhead over
/// the in-memory variant.
#[test]
fn small_graph_system_ordering() {
    let d = ds(DatasetKey::Rdt);
    let w = Workload::new(&d, ModelKind::Gcn, 32, 2);
    let cpu = CpuSystem::new(
        CpuSystemKind::SingleNode,
        CpuClusterConfig::scaled(1, 1 << 34),
        &d,
    )
    .epoch_time(&w)
    .unwrap();
    let dgl = SingleGpuFullGraph::new(machine(1)).epoch_time(&w).unwrap();
    let im = MultiGpuInMemory::new(InMemoryKind::HongTuIm, machine(4), &d, 1)
        .epoch_time(&w)
        .unwrap();
    let hongtu = Session::new(&d, ModelKind::Gcn, 32, 2, 1, HongTuConfig::full(machine(4)))
        .unwrap()
        .trainer()
        .epoch()
        .unwrap()
        .time;
    assert!(cpu > 10.0 * dgl, "CPU {cpu} vs DGL {dgl}");
    assert!(
        hongtu > im,
        "offloading must cost something: {hongtu} vs {im}"
    );
    assert!(
        hongtu < 10.0 * im,
        "offloading overhead is bounded: {hongtu} vs {im}"
    );
}

/// Table 6's DistDGL behaviour: neighbor explosion makes deep sampled
/// training blow up superlinearly, and the tiny-train-split OPR is where
/// mini-batch wins over full-graph.
#[test]
fn minibatch_explosion_and_opr_win() {
    let it = ds(DatasetKey::It);
    let mb = MiniBatchSystem::new(machine(4), 64, SEED);
    let t2 = mb
        .epoch_time(&Workload::new(&it, ModelKind::Gcn, 32, 2))
        .unwrap();
    let t4 = mb
        .epoch_time(&Workload::new(&it, ModelKind::Gcn, 32, 4))
        .unwrap();
    assert!(t4 > 2.5 * t2, "neighbor explosion: {t2} vs {t4}");

    let opr = ds(DatasetKey::Opr);
    let mb_time = mb
        .epoch_time(&Workload::new(&opr, ModelKind::Gcn, 32, 2))
        .unwrap()
        / 4.0;
    let hongtu = Session::new(
        &opr,
        ModelKind::Gcn,
        32,
        2,
        32,
        HongTuConfig::full(machine(4)),
    )
    .unwrap()
    .trainer()
    .epoch()
    .unwrap()
    .time;
    assert!(
        mb_time < hongtu,
        "DistDGL must win on OPR (1.1% train split): {mb_time} vs {hongtu}"
    );
}

/// Table 7's DistGNN pattern: the 16-node cluster runs GCN on the large
/// graphs (except the deepest OPR config) but cannot hold GAT except on
/// the smallest; HongTu is faster wherever both run.
#[test]
fn distgnn_cluster_pattern() {
    let cluster = CpuClusterConfig::scaled(16, 100 << 20);
    for (key, gcn4_ok) in [
        (DatasetKey::It, true),
        (DatasetKey::Opr, false),
        (DatasetKey::Fds, true),
    ] {
        let d = ds(key);
        let sys = CpuSystem::new(CpuSystemKind::Cluster, cluster.clone(), &d);
        let gcn2 = sys.epoch_time(&Workload::new(&d, ModelKind::Gcn, 32, 2));
        assert!(gcn2.is_ok(), "{key:?} GCN-2 must run on the cluster");
        let gcn4 = sys.epoch_time(&Workload::new(&d, ModelKind::Gcn, 32, 4));
        assert_eq!(gcn4.is_ok(), gcn4_ok, "{key:?} GCN-4 cluster feasibility");
        // GAT on FDS/OPR must OOM; on IT the 2-layer config runs.
        let gat2 = sys.epoch_time(&Workload::new(&d, ModelKind::Gat, 32, 2));
        assert_eq!(
            gat2.is_ok(),
            key == DatasetKey::It,
            "{key:?} GAT-2 cluster feasibility"
        );
        if let Ok(dist) = gcn2 {
            let hongtu = Session::new(
                &d,
                ModelKind::Gcn,
                32,
                2,
                32,
                HongTuConfig::full(machine(4)),
            )
            .unwrap()
            .trainer()
            .epoch()
            .unwrap()
            .time;
            assert!(
                hongtu < dist,
                "{key:?}: HongTu {hongtu} must beat DistGNN {dist}"
            );
        }
    }
}
