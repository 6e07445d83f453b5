//! End-to-end certification of the engine's execution schedule: full
//! `train_epoch` traces across comm modes, memory strategies, models, and
//! GPU counts must certify clean under the happens-before checker — and
//! corrupted versions of those same traces must not.

use hongtu::core::systems::{
    CpuSystem, CpuSystemKind, InMemoryKind, MiniBatchSystem, MultiGpuInMemory, NeutronStyle,
    RocStyle, SingleGpuFullGraph, Workload,
};
use hongtu::core::{CommMode, HongTuConfig, MemoryStrategy, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::sim::{CpuClusterConfig, Device, EventKind, Intent, MachineConfig, ResourceId, Trace};
use hongtu::tensor::{Matrix, SeededRng};
use hongtu::verify::{verify_trace, DiagCode};
use proptest::prelude::*;

/// An ad-hoc random dataset (not from the registry).
fn random_dataset(seed: u64, n: usize, deg: f64, classes: usize) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let g = generators::erdos_renyi(n, deg, &mut rng.fork(1));
    let graph = with_self_loops(&g);
    let feat_dim = 4 + rng.index(6);
    let mut frng = rng.fork(2);
    let features = Matrix::from_fn(n, feat_dim, |_, _| frng.normal() * 0.5);
    let mut lrng = rng.fork(3);
    let labels: Vec<u32> = (0..n).map(|_| lrng.index(classes) as u32).collect();
    let splits = Splits::random(n, 0.4, 0.2, &mut rng.fork(4));
    Dataset {
        key: DatasetKey::Rdt,
        graph,
        features,
        labels,
        splits,
        num_classes: classes,
        seed,
    }
}

/// Trains one epoch under an unbounded trace and returns the recording.
fn traced_epoch(
    ds: &Dataset,
    kind: ModelKind,
    chunks: usize,
    gpus: usize,
    comm: CommMode,
    memory: MemoryStrategy,
) -> Trace {
    let config = HongTuConfig::builder()
        .gpus(gpus)
        .gpu_mem_mb(512)
        .comm(comm)
        .memory(memory)
        .reorganize(comm != CommMode::Vanilla)
        .build()
        .expect("valid config");
    let mut engine = Session::new(ds, kind, 8, 2, chunks, config).expect("engine");
    engine.machine_mut().enable_unbounded_trace();
    engine.trainer().epoch().expect("epoch");
    engine.machine().trace().clone()
}

fn rebuilt(events: Vec<hongtu::sim::Event>) -> Trace {
    let mut t = Trace::unbounded();
    for e in events {
        t.record(e);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any full `train_epoch` schedule — random graph, model, chunking,
    /// GPU count, comm mode, and checkpoint strategy — certifies clean.
    #[test]
    fn train_epoch_schedule_certifies_clean(
        seed in 0u64..500,
        n in 120usize..320,
        deg in 3.0f64..7.0,
        chunks in 1usize..5,
        gpus in 1usize..5,
        kind_sel in 0usize..3,
        comm_sel in 0usize..3,
        mem_sel in 0usize..2,
    ) {
        let kind = [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage][kind_sel];
        let comm = [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu][comm_sel];
        let memory = [MemoryStrategy::Recompute, MemoryStrategy::Hybrid][mem_sel];
        let ds = random_dataset(seed, n, deg, 3);
        let trace = traced_epoch(&ds, kind, chunks, gpus, comm, memory);
        let report = verify_trace(&trace);
        prop_assert!(
            report.is_ok(),
            "{} {:?}/{:?} {gpus}x{chunks}: {}",
            kind.name(),
            comm,
            memory,
            report.render()
        );
    }
}

/// Two identically-seeded engines must emit the same certified schedule,
/// event for event.
#[test]
fn identically_seeded_engines_are_deterministic() {
    let ds = random_dataset(13, 220, 5.0, 3);
    let a = traced_epoch(
        &ds,
        ModelKind::Gcn,
        3,
        3,
        CommMode::P2pRu,
        MemoryStrategy::Hybrid,
    );
    let b = traced_epoch(
        &ds,
        ModelKind::Gcn,
        3,
        3,
        CommMode::P2pRu,
        MemoryStrategy::Hybrid,
    );
    let r = verify_trace(&a);
    assert!(r.is_ok(), "{}", r.render());
    assert!(
        a.events().eq(b.events()),
        "identically seeded traces differ"
    );
}

// ------------------------------ corruptions of a real engine trace ------

/// Stripping every barrier from a real engine trace must trip the
/// checker: chunk batches are no longer separated (S501) and previously
/// ordered cross-device accesses now race.
#[test]
fn engine_trace_without_barriers_is_rejected() {
    let ds = random_dataset(21, 220, 5.0, 3);
    let trace = traced_epoch(
        &ds,
        ModelKind::Gcn,
        3,
        2,
        CommMode::P2pRu,
        MemoryStrategy::Hybrid,
    );
    assert!(verify_trace(&trace).is_ok());
    let stripped = rebuilt(
        trace
            .events()
            .filter(|e| !matches!(e.kind, EventKind::Barrier(_)))
            .cloned()
            .collect(),
    );
    let r = verify_trace(&stripped);
    assert!(r.has(DiagCode::BatchNotBarriered), "{}", r.render());
}

/// Duplicating a buffer load onto another GPU inside the same barrier
/// segment is a write/write race on the merged buffer.
#[test]
fn engine_trace_with_duplicated_load_is_rejected() {
    let ds = random_dataset(34, 220, 5.0, 3);
    let trace = traced_epoch(
        &ds,
        ModelKind::Gcn,
        2,
        2,
        CommMode::P2p,
        MemoryStrategy::Recompute,
    );
    let mut events: Vec<_> = trace.events().cloned().collect();
    let pos = events
        .iter()
        .position(|e| {
            e.accesses.iter().any(|a| {
                a.intent == Intent::Write && matches!(a.resource, ResourceId::DevRep { .. })
            })
        })
        .expect("an annotated buffer load");
    let mut dup = events[pos].clone();
    dup.device = match dup.device {
        Device::Gpu(g) => Device::Gpu((g + 1) % 2),
        Device::Host => Device::Gpu(0),
    };
    events.insert(pos + 1, dup);
    let r = verify_trace(&rebuilt(events));
    assert!(r.has(DiagCode::RaceWriteWrite), "{}", r.render());
}

/// Reordering a buffer load to the end of the epoch leaves its consumers
/// reading a buffer nothing populated.
#[test]
fn engine_trace_with_reordered_load_is_rejected() {
    let ds = random_dataset(34, 220, 5.0, 3);
    let trace = traced_epoch(
        &ds,
        ModelKind::Gcn,
        2,
        2,
        CommMode::Vanilla,
        MemoryStrategy::Recompute,
    );
    let mut events: Vec<_> = trace.events().cloned().collect();
    let pos = events
        .iter()
        .position(|e| {
            e.accesses.iter().any(|a| {
                a.intent == Intent::Write && matches!(a.resource, ResourceId::DevRep { .. })
            })
        })
        .expect("an annotated buffer load");
    let load = events.remove(pos);
    events.push(load);
    let r = verify_trace(&rebuilt(events));
    assert!(
        r.has(DiagCode::ReadUnpopulated) || r.has(DiagCode::StaleGeneration),
        "{}",
        r.render()
    );
}

/// A capacity-bounded recording that evicted events is refused outright.
#[test]
fn pruned_engine_trace_is_refused() {
    let ds = random_dataset(44, 220, 5.0, 3);
    let cfg = HongTuConfig::builder().gpus(2).gpu_mem_mb(512).build();
    let mut engine = Session::new(&ds, ModelKind::Gcn, 8, 2, 3, cfg.unwrap()).unwrap();
    let user = engine.machine_mut().replace_trace(Trace::with_capacity(16));
    drop(user);
    engine.trainer().epoch().unwrap();
    assert!(engine.machine().trace().dropped() > 0);
    let r = verify_trace(engine.machine().trace());
    assert!(r.has(DiagCode::TraceIncomplete), "{}", r.render());
}

// -------------------------- comparator backends' schedules --------------

/// Every comparator backend's epoch schedule certifies clean too: the
/// checker is not special-cased to the HongTu engine's event shapes.
#[test]
fn all_comparator_schedules_certify_clean() {
    let ds = random_dataset(55, 300, 5.0, 3);
    let w = Workload::new(&ds, ModelKind::Gcn, 16, 2);
    let machine = MachineConfig::scaled(4, 2 << 30);

    let traces = vec![
        (
            "single-gpu",
            SingleGpuFullGraph::new(machine.clone())
                .epoch_schedule(&w)
                .expect("single-gpu schedule"),
        ),
        (
            "mini-batch",
            MiniBatchSystem::new(machine.clone(), 1024, 7)
                .epoch_schedule(&w)
                .expect("mini-batch schedule"),
        ),
        (
            "multi-gpu-im",
            MultiGpuInMemory::new(InMemoryKind::HongTuIm, machine.clone(), &ds, 7)
                .epoch_schedule(&w)
                .expect("in-memory schedule"),
        ),
        (
            "cpu-cluster",
            CpuSystem::new(
                CpuSystemKind::Cluster,
                CpuClusterConfig::scaled(4, 8 << 30),
                &ds,
            )
            .epoch_schedule(&w)
            .expect("cpu schedule"),
        ),
        (
            "partial-neutron",
            NeutronStyle::new(machine.clone())
                .epoch_schedule(&w)
                .expect("neutron schedule"),
        ),
        (
            "partial-roc",
            RocStyle::new(machine)
                .epoch_schedule(&w)
                .expect("roc schedule"),
        ),
    ];
    for (name, trace) in traces {
        let r = verify_trace(&trace);
        assert!(r.is_ok(), "{name}: {}", r.render());
    }
}
