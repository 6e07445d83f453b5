//! `Session::apply_staged` is transactional up to the commit: a batch
//! staged against another epoch of the graph, or one whose rebuilt plan
//! the verifier rejects, returns a typed error and leaves the session —
//! logits, partition, dedup plan, staging budget — and the graph epoch
//! exactly as they were. The session keeps serving and keeps accepting
//! well-formed updates afterwards.

use hongtu::core::{CommMode, HongTuConfig, Mode, OverlapMode, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::delta::{Delta, DynamicGraph};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::partition::ChunkSubgraph;
use hongtu::sim::{MachineConfig, SimError};
use hongtu::tensor::{Matrix, SeededRng};

const VERTICES: usize = 600;

/// A sparse random dataset: an edge edit dirties a handful of vertices,
/// so most chunks are left alone by the rebuild.
fn dataset(seed: u64) -> Dataset {
    let rng = SeededRng::new(seed);
    let graph = with_self_loops(&generators::erdos_renyi(VERTICES, 4.0, &mut rng.fork(1)));
    let mut frng = rng.fork(2);
    let mut lrng = rng.fork(3);
    Dataset {
        key: DatasetKey::Rdt,
        graph,
        features: Matrix::from_fn(VERTICES, 6, |_, _| frng.normal() * 0.5),
        labels: (0..VERTICES).map(|_| lrng.index(3) as u32).collect(),
        splits: Splits::random(VERTICES, 0.4, 0.2, &mut rng.fork(4)),
        num_classes: 3,
        seed,
    }
}

fn session(ds: &Dataset) -> Session {
    let cfg = HongTuConfig::builder()
        .machine(MachineConfig::scaled(2, 512 << 20))
        .comm(CommMode::P2pRu)
        .reorganize(true)
        .overlap(OverlapMode::DoubleBuffer)
        .mode(Mode::Infer)
        .build()
        .expect("valid config");
    let mut s = Session::new(ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
    s.infer_epoch().expect("prime layer stores");
    s
}

/// An edge the graph does not have yet, away from the self-loops.
fn absent_edge(dg: &DynamicGraph) -> Delta {
    let n = dg.num_vertices() as u32;
    (0..n)
        .flat_map(|u| [(u, (u + 7) % n), (u, (u + 11) % n)])
        .find(|&(u, v)| u != v && !dg.graph().out_neighbors(u).contains(&v))
        .map(|(src, dst)| Delta::AddEdge { src, dst })
        .expect("the graph is not complete")
}

/// Everything a failed apply must leave alone.
#[derive(Debug, PartialEq)]
struct Snapshot {
    logits: Matrix,
    chunks: Vec<Vec<ChunkSubgraph>>,
    volumes: (usize, usize, usize),
    staging_budget: Vec<usize>,
    graph_epoch: u64,
}

fn snapshot(s: &Session, dg: &DynamicGraph) -> Snapshot {
    let plans = s.plans();
    Snapshot {
        logits: s.logits().clone(),
        chunks: plans.partition.chunks.clone(),
        volumes: (plans.dedup.v_ori(), plans.dedup.v_p2p(), plans.dedup.v_ru()),
        staging_budget: s.staging_budget(),
        graph_epoch: dg.epoch(),
    }
}

/// After a refused apply the session still answers queries from the
/// untouched logits and still commits a well-formed update, landing
/// bitwise on a from-scratch session over the mutated graph.
fn assert_still_usable(s: &mut Session, dg: &mut DynamicGraph, ds: &Dataset) {
    let rows = [0usize, 17, VERTICES - 1];
    let served = s.serve(&rows).expect("serve after refusal");
    assert_eq!(served.logits, s.logits().gather_rows(&rows));
    let patched = s
        .apply_deltas(dg, &[absent_edge(dg)])
        .expect("well-formed update after refusal")
        .logits;
    let rebuilt = session(&dg.to_dataset(ds)).logits().clone();
    assert_eq!(patched, rebuilt);
}

#[test]
fn stale_commit_is_a_typed_error_and_changes_nothing() {
    let ds = dataset(99);
    let mut dg = DynamicGraph::from_dataset(&ds);
    let mut s = session(&ds);
    let stale = dg.stage(&[absent_edge(&dg)]).expect("stage");
    let overtaking = Delta::UpdateFeatures {
        vertex: 3,
        features: vec![0.25; dg.features().cols()],
    };
    s.apply_deltas(&mut dg, &[overtaking])
        .expect("the commit that overtakes the staged batch");

    let before = snapshot(&s, &dg);
    let err = s
        .apply_staged(&mut dg, stale)
        .expect_err("stale batch must be refused");
    assert_eq!(
        err,
        SimError::StaleCommit {
            staged_epoch: 0,
            graph_epoch: 1
        }
    );
    assert_eq!(snapshot(&s, &dg), before);
    assert_still_usable(&mut s, &mut dg, &ds);
}

/// A batch staged on a graph the session was not built from: the chunks
/// rebuilt from it disagree with every chunk left alone, the verifier
/// rejects the plan (pass 1), and the half-built plan is thrown away.
#[test]
fn rejected_rebuilt_plan_is_a_typed_error_and_changes_nothing() {
    let ds = dataset(99);
    let mut s = session(&ds);
    let foreign_ds = dataset(7);
    assert_ne!(foreign_ds.graph, ds.graph);
    let mut foreign = DynamicGraph::from_dataset(&foreign_ds);
    let staged = foreign.stage(&[absent_edge(&foreign)]).expect("stage");

    let before = snapshot(&s, &foreign);
    let err = s
        .apply_staged(&mut foreign, staged)
        .expect_err("a plan rebuilt from a foreign graph must not verify");
    assert!(
        matches!(&err, SimError::InvalidPlan { code, .. } if code.starts_with('P')),
        "{err}"
    );
    assert_eq!(snapshot(&s, &foreign), before);

    let mut dg = DynamicGraph::from_dataset(&ds);
    assert_still_usable(&mut s, &mut dg, &ds);
}
