//! Failure-injection tests: the system must fail loudly and informatively
//! — never silently — when capacities, shapes, or configurations are
//! wrong.

use hongtu::core::systems::{InMemoryKind, MultiGpuInMemory, Workload};
use hongtu::core::{CommMode, ExecutionMode, HongTuConfig, OverlapMode, ServeMask, Session};
use hongtu::datasets::dataset::{with_self_loops, Splits};
use hongtu::datasets::{load, DatasetKey};
use hongtu::graph::{Csr, Graph};
use hongtu::nn::ModelKind;
use hongtu::sim::{MachineConfig, SimError};
use hongtu::tensor::{Matrix, SeededRng};

fn rdt() -> hongtu::datasets::Dataset {
    load(DatasetKey::Rdt, &mut SeededRng::new(5))
}

/// Construction-time OOM: the engine refuses to build when even the
/// static allocations (host buffers, replicated parameters) do not fit.
#[test]
fn construction_oom_reports_device_and_label() {
    let ds = rdt();
    // GPUs too small even for the model parameters + one chunk.
    let cfg = HongTuConfig::builder()
        .machine(MachineConfig::scaled(4, 4 << 10))
        .build()
        .expect("valid config");
    let err = Session::new(&ds, ModelKind::Gcn, 64, 4, 2, cfg.clone())
        .err()
        .or_else(|| {
            // If construction somehow fits, the first epoch must fail.
            Session::new(&ds, ModelKind::Gcn, 64, 4, 2, cfg)
                .ok()
                .and_then(|mut e| e.trainer().epoch().err())
        })
        .expect("a 4 KB GPU cannot run this workload");
    match err {
        SimError::OutOfMemory {
            device,
            label,
            requested,
            capacity,
            ..
        } => {
            assert!(!device.is_empty() && !label.is_empty());
            assert!(requested > capacity || requested > 0);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

fn in_use(s: &Session) -> Vec<usize> {
    let m = s.machine();
    (0..m.num_gpus())
        .map(|i| m.gpu_memory(i).in_use())
        .collect()
}

/// Mid-epoch OOM: with memory that holds the static data but not the
/// per-batch buffers, the failure surfaces as an error from `train_epoch`,
/// not a panic — and the failed sweep hands back every byte its unwound
/// steps (and, in parallel mode, their sibling GPUs) had allocated, so
/// the session is not left half a megabyte short.
#[test]
fn epoch_oom_is_an_error_not_a_panic() {
    let ds = rdt();
    for exec in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
        // Scan capacities that admit construction: the smallest fail on
        // the sweep's first allocation, larger ones deep inside a batch
        // (GAT with 1 chunk has large per-batch intermediates) — where
        // the unwound steps hold the most.
        let mut hits = 0;
        for mb in [1usize, 2, 3, 4] {
            let cfg = HongTuConfig::builder()
                .machine(MachineConfig::scaled(4, mb << 18))
                .exec(exec)
                .build()
                .expect("valid config");
            let Ok(mut s) = Session::new(&ds, ModelKind::Gat, 32, 2, 1, cfg) else {
                continue;
            };
            let before = in_use(&s);
            match s.trainer().epoch() {
                Err(SimError::OutOfMemory { .. }) => {
                    assert_eq!(in_use(&s), before, "{exec:?}, {mb} units: leaked");
                    hits += 1;
                }
                Ok(_) => {}
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(
            hits > 0,
            "{exec:?}: no capacity exercised the mid-epoch OOM path"
        );
    }
}

/// A serve whose cone does not fit the device fails typed, leaves the
/// device as it found it, and a smaller serve that does fit then runs —
/// bitwise equal to full inference.
#[test]
fn over_budget_serve_fails_clean_and_the_session_keeps_serving() {
    let ds = rdt();
    // One layer, so a single-vertex cone is the one batch that owns it and
    // batches differ in what they need.
    let session = |gpu_memory: usize| {
        let cfg = HongTuConfig::builder()
            .machine(MachineConfig::scaled(2, gpu_memory))
            .comm(CommMode::Vanilla)
            .overlap(OverlapMode::Off)
            .infer()
            .build()
            .expect("config");
        Session::new(&ds, ModelKind::Gcn, 16, 1, 4, cfg).expect("session")
    };
    // Calibrate on a roomy twin: the device bytes a single-vertex serve
    // peaks at are its static allocations plus its cone's footprint.
    let mut roomy = session(64 << 20);
    let base = in_use(&roomy);
    let need = |v: usize| {
        let mask = ServeMask::from_queries(roomy.plans().partition, 1, &[v]);
        let cost = roomy.serve_cone_cost(&mask);
        cost.iter().zip(&base).map(|(c, b)| c + b).max().unwrap()
    };
    let vertices = 0..ds.num_vertices();
    let small = vertices.clone().min_by_key(|&v| need(v)).unwrap();
    let big = vertices.max_by_key(|&v| need(v)).unwrap();
    let (fits, overflows) = (need(small), need(big));
    assert!(fits < overflows, "batches must differ in footprint");
    let full = roomy.infer_epoch().expect("roomy inference").logits;

    let mut tight = session((fits + overflows) / 2);
    let before = in_use(&tight);
    match tight.serve(&[big]) {
        Err(SimError::OutOfMemory { .. }) => {}
        other => panic!("expected OutOfMemory, got {:?}", other.map(|r| r.time)),
    }
    assert_eq!(in_use(&tight), before, "failed serve leaked");
    let served = tight.serve(&[small]).expect("the smaller cone fits");
    assert_eq!(served.logits, full.gather_rows(&[small]));
    assert_eq!(in_use(&tight), before);
}

/// Double-buffered staging that does not fit fails *at construction* —
/// naming the staging-buffer slot and the GPU — on a capacity where the
/// additive executor trains fine. The overlap executor must never start
/// an epoch it cannot finish.
#[test]
fn staging_double_buffer_oom_fails_at_construction() {
    let ds = rdt();
    // Scan capacities upward: the window where the single-buffered
    // schedule fits but the second staging copy does not.
    for kb in [256usize, 320, 384, 448, 512, 640, 768, 1024, 1536, 2048] {
        let off_cfg = HongTuConfig::builder().machine(MachineConfig::scaled(4, kb << 10));
        let db_cfg = off_cfg.clone().overlap(OverlapMode::DoubleBuffer);
        let Ok(mut off) = Session::new(&ds, ModelKind::Gcn, 32, 2, 4, off_cfg.build().unwrap())
        else {
            continue;
        };
        if off.trainer().epoch().is_err() {
            continue;
        }
        match Session::new(&ds, ModelKind::Gcn, 32, 2, 4, db_cfg.build().unwrap()) {
            Err(SimError::OutOfMemory { device, label, .. }) => {
                assert!(device.starts_with("GPU"), "device: {device:?}");
                assert!(label.contains("staging buffer"), "label: {label:?}");
                return;
            }
            Err(other) => panic!("unexpected error {other:?}"),
            // Both fit at this capacity — the window is below it.
            Ok(_) => break,
        }
    }
    panic!("no capacity separated the additive executor from double buffering");
}

/// Comparator OOM errors carry the device context.
#[test]
fn comparator_oom_is_descriptive() {
    let ds = load(DatasetKey::Fds, &mut SeededRng::new(5));
    let im = MultiGpuInMemory::new(
        InMemoryKind::Sancus,
        MachineConfig::scaled(4, 8 << 20),
        &ds,
        1,
    );
    let err = im
        .epoch_time(&Workload::new(&ds, ModelKind::Gcn, 32, 2))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out of memory"), "{msg}");
    assert!(msg.contains("in-memory training data"), "{msg}");
}

/// Invalid machine configurations are rejected before any training runs.
#[test]
#[should_panic(expected = "invalid MachineConfig")]
fn invalid_machine_config_panics_at_construction() {
    let mut cfg = MachineConfig::scaled(4, 1 << 20);
    cfg.pcie_bw = -1.0;
    let _ = hongtu::sim::Machine::new(cfg);
}

/// `--chunks` reaches `Session::new` unchecked: more chunks than a
/// partition has vertices, or none at all, is a typed plan error naming
/// the numbers — not a panic.
#[test]
fn oversized_or_zero_chunk_count_is_a_typed_error() {
    let ds = rdt();
    // RDT has 3000 vertices / 4 partitions = 750 per partition.
    for (n_chunks, needle) in [(1000, "fewer than the 1000 chunks"), (0, "0 chunks")] {
        let cfg = HongTuConfig::builder().build().expect("valid config");
        match Session::new(&ds, ModelKind::Gcn, 8, 2, n_chunks, cfg) {
            Err(SimError::InvalidPlan { code, message }) => {
                assert_eq!(code, "P005");
                assert!(message.contains(needle), "{message}");
                assert!(!message.contains('\n'), "one line: {message}");
            }
            Err(other) => panic!("{n_chunks} chunks: expected InvalidPlan, got {other:?}"),
            Ok(_) => panic!("{n_chunks} chunks: session built"),
        }
    }
    // Likewise `--gpus`: four GPUs cannot each own a vertex of three.
    let tiny = hongtu::datasets::Dataset {
        key: DatasetKey::Rdt,
        graph: with_self_loops(&Graph::from_csr(Csr::empty(3))),
        features: Matrix::zeros(3, 4),
        labels: vec![0; 3],
        splits: Splits::random(3, 0.4, 0.3, &mut SeededRng::new(1)),
        num_classes: 2,
        seed: 1,
    };
    let cfg = HongTuConfig::builder().build().expect("valid config");
    let err = Session::new(&tiny, ModelKind::Gcn, 8, 2, 1, cfg).err();
    assert!(
        matches!(&err, Some(SimError::InvalidPlan { code, message })
            if code == "P005" && message.contains("4 GPUs")),
        "{err:?}"
    );
}

/// A query with no vertices, or naming one the graph does not have, is a
/// typed `InvalidQuery` from `serve` — no panic in the cone arithmetic,
/// nothing swept, nothing left installed — and the session serves the
/// next, well-formed query bitwise as if the bad ones had never come.
#[test]
fn empty_or_out_of_range_serve_is_a_typed_error() {
    let ds = rdt();
    let n = ds.graph.num_vertices();
    let cfg = || {
        HongTuConfig::builder()
            .machine(MachineConfig::scaled(2, 256 << 20))
            .infer()
            .build()
            .expect("config")
    };
    let mut s = Session::new(&ds, ModelKind::Gcn, 8, 2, 4, cfg()).expect("session");
    let epochs = s.epochs_run();
    let empty = s.serve(&[]).unwrap_err();
    assert!(
        matches!(&empty, SimError::InvalidQuery { message } if message.contains("empty")),
        "{empty:?}"
    );
    let beyond = s.serve(&[3, n + 5]).unwrap_err();
    let names_it = format!("vertex {} out of range ({n})", n + 5);
    assert!(
        matches!(&beyond, SimError::InvalidQuery { message } if message.contains(&names_it)),
        "{beyond:?}"
    );
    assert!(
        beyond.to_string().starts_with("invalid query: "),
        "{beyond}"
    );
    assert!(matches!(
        s.query_cone(&[n]),
        Err(SimError::InvalidQuery { .. })
    ));
    assert!(matches!(
        s.certify_serve(&[]),
        Err(SimError::InvalidQuery { .. })
    ));
    assert_eq!(s.epochs_run(), epochs, "a refused query ran a sweep");

    let served = s.serve(&[3, 7]).expect("a well-formed query still serves");
    let full = Session::new(&ds, ModelKind::Gcn, 8, 2, 4, cfg())
        .expect("session")
        .infer_epoch()
        .expect("infer")
        .logits;
    assert_eq!(served.logits, full.gather_rows(&[3, 7]));
}

/// Corrupt checkpoint files fail to load with a format error, and a
/// truncated graph file fails with an I/O error — neither panics.
#[test]
fn corrupt_files_are_graceful() {
    let model_err = hongtu::nn::load_model(&b"garbage-bytes"[..]).unwrap_err();
    assert!(model_err.to_string().contains("model"), "{model_err}");
    let graph_err = hongtu::graph::binfmt::read_graph(&b"also-garbage"[..]).unwrap_err();
    assert!(graph_err.to_string().contains("graph"), "{graph_err}");
}
