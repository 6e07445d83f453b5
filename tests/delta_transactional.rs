//! `Session::apply_staged` is transactional up to the commit: a batch
//! staged against another epoch of the graph, one whose rebuilt plan the
//! verifier rejects, or one whose re-pinned staging does not fit the
//! device returns a typed error and leaves the session — logits,
//! partition, dedup plan, staging, hot-vertex cache — and the graph
//! epoch exactly as they were. The session keeps serving and keeps
//! accepting well-formed updates afterwards.

use hongtu::cache::FrequencyRanked;
use hongtu::core::{CommMode, DeltaReport, HongTuConfig, Mode, OverlapMode, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::delta::{Delta, DynamicGraph};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::partition::ChunkSubgraph;
use hongtu::sim::{MachineConfig, SimError};
use hongtu::tensor::{Matrix, SeededRng};
use std::sync::Arc;

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
    session_on(ds, 512 << 20, false)
}

/// A primed session on `gpu_memory`-byte devices, optionally spending
/// the headroom on the hot-vertex cache.
fn session_on(ds: &Dataset, gpu_memory: usize, cache: bool) -> Session {
    let mut cfg = HongTuConfig::builder()
        .machine(MachineConfig::scaled(2, gpu_memory))
        .comm(CommMode::P2pRu)
        .reorganize(true)
        .overlap(OverlapMode::DoubleBuffer)
        .mode(Mode::Infer);
    if cache {
        cfg = cfg.cache(Arc::new(FrequencyRanked));
    }
    let cfg = cfg.build().expect("valid config");
    let mut s = Session::new(ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
    s.infer_epoch().expect("prime layer stores");
    s
}

/// Stages `deltas` against `dg` and commits them through the session.
fn apply(s: &mut Session, dg: &mut DynamicGraph, deltas: &[Delta]) -> DeltaReport {
    let staged = dg.stage(deltas).expect("valid delta batch");
    s.apply_staged(dg, staged).expect("well-formed update")
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
    staging_pinned: bool,
    /// Per GPU: the rows the cache admitted and how many are resident.
    cache: Option<Vec<(Vec<u32>, usize)>>,
    graph_epoch: u64,
}

fn snapshot(s: &Session, dg: &DynamicGraph) -> Snapshot {
    let plans = s.plans();
    Snapshot {
        logits: s.logits().clone(),
        chunks: plans.partition.chunks.clone(),
        volumes: (plans.dedup.v_ori(), plans.dedup.v_p2p(), plans.dedup.v_ru()),
        staging_budget: s.staging_budget(),
        staging_pinned: plans.staging.is_some(),
        cache: s.cache().map(|rt| {
            rt.plan()
                .per_gpu
                .iter()
                .map(|g| (g.vertices.clone(), rt.resident_rows(g.gpu)))
                .collect()
        }),
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
    let edge = absent_edge(dg);
    apply(s, dg, &[edge]);
    let patched = s.logits().clone();
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
    apply(&mut s, &mut dg, &[overtaking]);

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

/// An empty dirty set, or one naming a vertex the graph does not have,
/// is a typed error from both delta-schedule entry points rather than a
/// panic inside cone growth, and a well-formed delta still certifies
/// afterwards.
#[test]
fn malformed_dirty_sets_are_typed_errors_not_panics() {
    let ds = dataset(99);
    let mut dg = DynamicGraph::from_dataset(&ds);
    let mut s = session(&ds);
    for dirty in [&[][..], &[VERTICES][..], &[0, VERTICES + 5][..]] {
        let certified = s.certify_delta(dg.graph(), dirty);
        assert!(
            matches!(certified, Err(SimError::InvalidQuery { .. })),
            "{dirty:?}: {certified:?}"
        );
        let synthesized = s.synthesize_delta_schedule(dg.graph(), dirty);
        assert!(
            matches!(synthesized, Err(SimError::InvalidQuery { .. })),
            "{dirty:?}: {:?}",
            synthesized.map(|t| t.len())
        );
    }

    let staged = dg.stage(&[absent_edge(&dg)]).expect("stage");
    let dirty = staged.dirty().to_vec();
    s.apply_staged(&mut dg, staged).expect("well-formed update");
    let report = s
        .certify_delta(dg.graph(), &dirty)
        .expect("schedule synthesis");
    assert!(report.is_ok(), "{}", report.render());
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
    let kept = s.query_cone(&[0, 17]).expect("query cone");
    let err = s
        .apply_staged(&mut foreign, staged)
        .expect_err("a plan rebuilt from a foreign graph must not verify");
    assert!(
        matches!(&err, SimError::InvalidPlan { code, .. } if code.starts_with('P')),
        "{err}"
    );
    assert_eq!(snapshot(&s, &foreign), before);
    // The refusal put the plans' identity back with the chunks: a cone
    // derived before it is still the session's.
    let served = s
        .serve_cone(&[0, 17], kept)
        .expect("a cone from before a refused commit still serves");
    assert_eq!(served.logits, before.logits.gather_rows(&[0, 17]));

    let mut dg = DynamicGraph::from_dataset(&ds);
    assert_still_usable(&mut s, &mut dg, &ds);
}

/// 200 new in-edges into one destination: its chunk's neighbor set — and
/// with it the worst-case staging footprint — grows by a few KB.
fn fan_in(dg: &DynamicGraph) -> Vec<Delta> {
    let dst = 5;
    (0..dg.num_vertices() as u32)
        .filter(|&u| u != dst && !dg.graph().out_neighbors(u).contains(&dst))
        .take(200)
        .map(|src| Delta::AddEdge { src, dst })
        .collect()
}

/// The smallest device a cache-free session fits before and after
/// committing `batch`, read off a roomy twin.
fn bound_before_and_after(ds: &Dataset, batch: &[Delta]) -> (usize, usize) {
    let worst = |s: &Session| {
        let bound = s.static_memory_bound();
        bound.gpu.iter().copied().max().expect("two GPUs")
    };
    let mut s = session(ds);
    let before = worst(&s);
    apply(&mut s, &mut DynamicGraph::from_dataset(ds), batch);
    let after = worst(&s);
    assert!(after > before, "the batch was meant to grow staging");
    (before, after)
}

/// A structural commit that grows staging on a device the hot-vertex
/// cache has filled: the old cache pins the headroom the *old* staging
/// left, but it is re-derived by the commit anyway — the new staging
/// must be judged with the cache released, and then fits (exactly).
#[test]
fn staging_regrowth_fits_once_the_old_cache_is_released() {
    let ds = dataset(99);
    let mut dg = DynamicGraph::from_dataset(&ds);
    let batch = fan_in(&dg);
    let (_, grown) = bound_before_and_after(&ds, &batch);
    let mut s = session_on(&ds, grown, true);
    let cached = s.cache().expect("the headroom admits a cache");
    assert!(cached.plan().total_rows() > 0);

    apply(&mut s, &mut dg, &batch);
    let patched = s.logits().clone();
    assert!(s.plans().staging.is_some());
    let rebuilt = session(&dg.to_dataset(&ds)).logits().clone();
    assert_eq!(patched, rebuilt);
    s.infer_epoch()
        .expect("the re-pinned session keeps sweeping");
    assert!(s.certify_cache().is_ok());
}

/// The same commit on a device the grown staging genuinely does not
/// fit: a typed `OutOfMemory`, nothing installed, nothing committed.
#[test]
fn staging_regrowth_that_cannot_fit_is_a_typed_error_and_changes_nothing() {
    let ds = dataset(99);
    let mut dg = DynamicGraph::from_dataset(&ds);
    let batch = fan_in(&dg);
    let (fits, grown) = bound_before_and_after(&ds, &batch);
    let mut s = session_on(&ds, (fits + grown) / 2, true);
    assert!(s.cache().is_some(), "the headroom admits a cache");

    let staged = dg.stage(&batch).expect("stage");
    let before = snapshot(&s, &dg);
    let err = s
        .apply_staged(&mut dg, staged)
        .expect_err("the grown staging exceeds the device");
    assert!(
        matches!(&err, SimError::OutOfMemory { label, .. } if label.contains("staging")),
        "{err}"
    );
    assert_eq!(snapshot(&s, &dg), before);
    s.infer_epoch().expect("the refused session keeps sweeping");
    assert_still_usable(&mut s, &mut dg, &ds);
}
