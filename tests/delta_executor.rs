//! Certification of the dynamic-graph delta path:
//! `Session::apply_staged` must leave every host-resident layer store —
//! and hence the logits — bitwise identical to a from-scratch
//! `infer_epoch` on the mutated graph across the full
//! {model × gpus × overlap} matrix (plus all three comm modes), the
//! affected cone must equal a brute-force out-edge BFS oracle row for row
//! on random graphs, the incremental replay schedule must
//! certify clean under the static passes (including Paranoid, which
//! re-certifies inside `apply_staged` itself), and a small delta must
//! cost strictly less than the full-recompute baseline.
//!
//! The bitwise comparison works because the rebuild oracle inherits the
//! dataset seed (`DynamicGraph::to_dataset`), so a fresh session on the
//! mutated graph holds the same initial weights, and per-vertex forward
//! math is independent of chunk membership: each destination aggregates
//! its in-edges in sorted global order whatever batch owns it.

use hongtu::core::{
    CommMode, DeltaReport, HongTuConfig, Mode, OverlapMode, ServeMask, Session, ValidationLevel,
};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey};
use hongtu::datasets::load;
use hongtu::delta::{out_edge_ball, toggle_workload, Delta, DeltaMix, DynamicGraph};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::partition::cone::{self, Seen, VertexIndex};
use hongtu::partition::TwoLevelPartition;
use hongtu::sim::{MachineConfig, SimError, Trace};
use hongtu::tensor::{Matrix, SeededRng};
use hongtu::verify::verify_trace;
use proptest::prelude::*;

mod common;
use common::{cells, random_dataset, Cell};

fn test_seed() -> u64 {
    std::env::var("HONGTU_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(99)
}

fn dataset() -> Dataset {
    load(DatasetKey::Rdt, &mut SeededRng::new(test_seed()))
}

/// Stages `deltas` against `dg` and commits them through the session.
fn apply(s: &mut Session, dg: &mut DynamicGraph, deltas: &[Delta]) -> DeltaReport {
    let staged = dg.stage(deltas).expect("valid delta batch");
    s.apply_staged(dg, staged).expect("apply deltas")
}

fn config(gpus: usize, overlap: OverlapMode, comm: CommMode) -> HongTuConfig {
    HongTuConfig::builder()
        .machine(MachineConfig::scaled(gpus, 512 << 20))
        .comm(comm)
        .reorganize(comm != CommMode::Vanilla)
        .overlap(overlap)
        .mode(Mode::Infer)
        .build()
        .expect("valid config")
}

fn session(ds: &Dataset, kind: ModelKind, gpus: usize, overlap: OverlapMode) -> Session {
    Session::new(ds, kind, 16, 2, 4, config(gpus, overlap, CommMode::P2pRu)).expect("session")
}

/// A small mixed mutation batch: one edge toggle and one feature
/// rewrite, deterministically derived from the base graph.
fn small_batch(dg: &DynamicGraph, seed: u64) -> Vec<Delta> {
    let mut rng = SeededRng::new(seed);
    toggle_workload(
        dg.graph(),
        dg.features().cols(),
        1,
        2,
        DeltaMix::Mixed,
        &mut rng,
    )
    .pop()
    .expect("one batch")
}

/// Incremental `apply_staged` logits are bitwise equal to a
/// from-scratch `infer_epoch` on the mutated graph, across every model,
/// GPU count, and overlap mode. The incremental session runs first so
/// nothing about the rebuild can leak into the patched one.
#[test]
fn incremental_logits_match_rebuild_across_matrix() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for gpus in [1usize, 2, 4] {
            for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
                let mut dg = DynamicGraph::from_dataset(&ds);
                let deltas = small_batch(&dg, test_seed());
                let incremental = {
                    let mut s = session(&ds, kind, gpus, overlap);
                    s.infer_epoch().expect("initial full sweep");
                    let report = apply(&mut s, &mut dg, &deltas);
                    assert_eq!(report.epoch, 1);
                    assert!(report.active_steps <= report.total_steps);
                    s.logits().clone()
                };
                let rebuilt = {
                    let mutated = dg.to_dataset(&ds);
                    let mut s = session(&mutated, kind, gpus, overlap);
                    s.infer_epoch().expect("rebuild sweep").logits
                };
                assert_eq!(
                    incremental,
                    rebuilt,
                    "{} / {gpus} GPUs / {overlap:?}: incremental logits diverged from rebuild",
                    kind.name()
                );
            }
        }
    }
}

/// The comm mode does not perturb the incremental repair: Vanilla, +P2P
/// and +RU all land bitwise on the rebuilt-session logits.
#[test]
fn incremental_logits_match_rebuild_across_comm_modes() {
    let ds = dataset();
    for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
        let mut dg = DynamicGraph::from_dataset(&ds);
        let deltas = small_batch(&dg, test_seed() ^ 0x5eed);
        let incremental = {
            let cfg = config(2, OverlapMode::Off, comm);
            let mut s = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
            s.infer_epoch().expect("initial full sweep");
            apply(&mut s, &mut dg, &deltas);
            s.logits().clone()
        };
        let rebuilt = {
            let mutated = dg.to_dataset(&ds);
            let cfg = config(2, OverlapMode::Off, comm);
            let mut s = Session::new(&mutated, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
            s.infer_epoch().expect("rebuild sweep").logits
        };
        assert_eq!(
            incremental, rebuilt,
            "{comm:?}: incremental logits diverged from rebuild"
        );
    }
}

/// The affected cone *is* the exact vertex-level out-edge ball: the step
/// computing `h^{l+1}` recomputes exactly the rows a mutation
/// transitively invalidated (dirty seeds plus up to `l` out-hops on the
/// mutated graph) — none missing, none extra — a batch is active exactly
/// where some invalid vertex lives, and the grid is upward closed.
#[test]
fn delta_cone_covers_out_edge_ball_oracle() {
    for seed in [3u64, 17, 42] {
        let mut rng = SeededRng::new(seed);
        let g = with_self_loops(&generators::erdos_renyi(
            160 + rng.index(120),
            4.0,
            &mut rng.fork(1),
        ));
        let n = g.num_vertices();
        let features = Matrix::from_fn(n, 4, |_, c| c as f32);
        let mut dg = DynamicGraph::new(g, features);
        let deltas = toggle_workload(dg.graph(), 4, 1, 3, DeltaMix::Mixed, &mut rng.fork(2))
            .pop()
            .expect("one batch");
        let staged = dg.stage(&deltas).expect("valid batch");
        let dirty = staged.dirty().to_vec();
        let mutated = staged.graph().clone();
        dg.commit(staged);

        for (m, chunks) in [(1usize, 4usize), (2, 4), (4, 2)] {
            let plan = TwoLevelPartition::build(&mutated, m, chunks, seed);
            let mut batch_of = vec![0usize; n];
            for c in plan.all_chunks() {
                for &v in &c.dests {
                    batch_of[v as usize] = c.chunk;
                }
            }
            for layers in [1usize, 2, 3] {
                let mask = ServeMask::from_dirty(&plan, &mutated, layers, &dirty);
                let ball = out_edge_ball(&mutated, &dirty, layers.saturating_sub(1));
                let mut rows = 0;
                for (l, invalid) in ball.iter().enumerate().take(layers) {
                    let mut computed = vec![false; n];
                    for c in plan.all_chunks() {
                        for &k in &mask.rows()[l][c.part][c.chunk] {
                            computed[c.dests[k as usize] as usize] = true;
                        }
                    }
                    assert_eq!(
                        &computed, invalid,
                        "seed {seed}, {m}x{chunks}, L={layers}: layer {l} rows differ from the \
                         out-edge ball of {dirty:?}"
                    );
                    for j in 0..mask.batches() {
                        let holds = (0..n).any(|v| invalid[v] && batch_of[v] == j);
                        assert_eq!(mask.active(l, j), holds, "layer {l} batch {j}");
                    }
                    rows += invalid.iter().filter(|&&b| b).count();
                }
                assert_eq!(mask.active_rows(), rows);
                // Upward closure: a batch active at layer l is active
                // at layer l+1.
                for l in 0..layers.saturating_sub(1) {
                    for j in 0..mask.batches() {
                        assert!(!mask.active(l, j) || mask.active(l + 1, j));
                    }
                }
            }
        }
    }
}

/// The incremental replay schedule certifies clean under the static
/// passes — upward cone closure (pass 10), happens-before + lifetimes
/// (6–7) and dataflow conservation (9) — and Paranoid validation re-certifies inside `apply_staged`
/// itself.
#[test]
fn incremental_schedule_certifies_with_paranoid() {
    let ds = dataset();
    let cfg = HongTuConfig::builder()
        .machine(MachineConfig::scaled(2, 512 << 20))
        .comm(CommMode::P2pRu)
        .reorganize(true)
        .overlap(OverlapMode::DoubleBuffer)
        .validation(ValidationLevel::Paranoid)
        .infer()
        .build()
        .expect("valid config");
    let mut session = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
    session.infer_epoch().expect("initial full sweep");

    let mut dg = DynamicGraph::from_dataset(&ds);
    let deltas = small_batch(&dg, test_seed() ^ 0xcafe);
    let staged = dg.stage(&deltas).expect("valid batch");
    let dirty = staged.dirty().to_vec();

    // Paranoid re-runs schedule + dataflow certification inside the
    // epoch wrapper; a clean return IS the certificate.
    let report = session
        .apply_staged(&mut dg, staged)
        .expect("apply under Paranoid");
    assert_eq!(report.dirty_vertices, dirty.len());

    // Certify the replay that just ran, against the rebuilt plans.
    let cert = session
        .certify_delta(dg.graph(), &dirty)
        .expect("schedule synthesis");
    assert!(cert.is_ok(), "{}", cert.render());
}

/// The `count` vertices with the fewest out-edges (usually just their
/// self-loop), ascending: nested prefixes give nested dirty sets, hence
/// nested (upward-closed) cones.
fn quiet_vertices(ds: &Dataset, count: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..ds.graph.num_vertices() as u32).collect();
    order.sort_by_key(|&v| (ds.graph.out_degree(v), v));
    order.truncate(count);
    order
}

/// One feature rewrite per vertex.
fn feature_deltas(ds: &Dataset, vertices: &[u32]) -> Vec<Delta> {
    vertices
        .iter()
        .map(|&v| Delta::UpdateFeatures {
            vertex: v,
            features: vec![0.25; ds.features.cols()],
        })
        .collect()
}

/// What bringing the logits up to date after `deltas` costs on a fresh,
/// primed `kind` session: the commit's cone replay, or — with `full` —
/// a whole inference sweep over the mutated graph on a twin session that
/// made the same commit. Returns the commit's report and the update's
/// logits, sim time and sim events.
fn update_cost(
    ds: &Dataset,
    kind: ModelKind,
    (gpus, chunks): (usize, usize),
    overlap: OverlapMode,
    deltas: &[Delta],
    full: bool,
) -> (DeltaReport, Matrix, f64, usize) {
    let cfg = config(gpus, overlap, CommMode::P2pRu);
    let mut s = Session::new(ds, kind, 16, 2, chunks, cfg).expect("session");
    s.infer_epoch().expect("initial full sweep");
    s.machine_mut().enable_unbounded_trace();
    let mut dg = DynamicGraph::from_dataset(ds);
    let r = apply(&mut s, &mut dg, deltas);
    let (logits, time) = if full {
        s.machine_mut().replace_trace(Trace::unbounded());
        let sweep = s.infer_epoch().expect("full sweep over the mutated graph");
        (sweep.logits, sweep.time)
    } else {
        (s.logits().clone(), r.time)
    };
    let events = s.machine().trace().len();
    (r, logits, time, events)
}

/// A small delta costs strictly less than the full-recompute baseline
/// on perfectly matched sessions, for every model, GPU count and overlap
/// mode: strictly fewer sim events, strictly less simulated time,
/// bitwise-identical logits.
#[test]
fn small_delta_beats_full_recompute() {
    // Pruning needs a graph where one vertex's out-neighborhood does not
    // scatter across every batch, so this test runs on a sparse random
    // dataset with more chunks than the dense Rdt proxy. The smallest
    // possible mutation: rewrite the features of the vertex with the
    // fewest out-edges, so the affected cone stays a small fraction of
    // the sweep.
    let ds = random_dataset(test_seed() ^ 0xbeef, 360);
    let deltas = feature_deltas(&ds, &quiet_vertices(&ds, 1));
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for gpus in [1usize, 2, 4] {
            for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
                let tag = format!("{} / {gpus} GPUs / {overlap:?}", kind.name());
                let cost = |full| update_cost(&ds, kind, (gpus, 6), overlap, &deltas, full);
                let (r, inc_logits, inc_time, inc_events) = cost(false);
                assert!(
                    r.active_steps < r.total_steps,
                    "{tag}: delta cone fills the whole sweep — pick a smaller delta"
                );
                let (_, full_logits, full_time, full_events) = cost(true);
                assert_eq!(inc_logits, full_logits, "{tag}: paths diverged");
                assert!(
                    inc_events < full_events,
                    "{tag}: incremental {inc_events} events !< full {full_events}"
                );
                assert!(
                    inc_time < full_time,
                    "{tag}: incremental {inc_time}s !< full {full_time}s"
                );
            }
        }
    }
}

/// Cost follows the cone: nested dirty sets of 1, 2, 4, 8 and 16 quiet
/// vertices give nested cones, so the replay's active steps, rows, sim
/// events and sim time never decrease as the spread grows. The widest
/// point scatters its seeds over nearly every `(layer, batch)` step, yet
/// what it replays is still its rows: fewer than half the sweep's.
#[test]
fn delta_cost_is_monotone_in_the_spread() {
    let ds = random_dataset(test_seed(), 360);
    let mut previous: Option<(usize, usize, usize, f64)> = None;
    for spread in [1usize, 2, 4, 8, 16] {
        let deltas = feature_deltas(&ds, &quiet_vertices(&ds, spread));
        let (r, _, time, events) = update_cost(
            &ds,
            ModelKind::Gcn,
            (2, 12),
            OverlapMode::Off,
            &deltas,
            false,
        );
        let point = (r.active_steps, r.active_rows, events, time);
        if let Some(p) = previous {
            assert!(
                p.0 <= point.0 && p.1 <= point.1 && p.2 <= point.2 && p.3 <= point.3,
                "spread {spread}: (steps, rows, events, time) fell from {p:?} to {point:?}"
            );
        }
        previous = Some(point);
        if spread == 16 {
            assert!(
                2 * r.active_rows < r.total_rows,
                "spread 16 replayed {}/{} rows ({}/{} steps): not below half the sweep",
                r.active_rows,
                r.total_rows,
                r.active_steps,
                r.total_steps
            );
        }
    }
}

/// Cost tracks the cone, not the graph: one quiet-vertex delta on graphs
/// of 360, 720 and 1440 vertices at a fixed 30-vertex chunk width
/// replays in strictly less sim time than a full sweep at every size,
/// and its sim time grows by a strictly smaller factor than the full
/// sweep's.
#[test]
fn delta_cost_grows_slower_than_the_graph() {
    let mut inc = Vec::new();
    let mut full = Vec::new();
    for n in [360usize, 720, 1440] {
        let ds = random_dataset(test_seed(), n);
        let deltas = feature_deltas(&ds, &quiet_vertices(&ds, 1));
        let cost = |full| {
            update_cost(
                &ds,
                ModelKind::Gcn,
                (2, n / 30),
                OverlapMode::Off,
                &deltas,
                full,
            )
            .2
        };
        let (t_inc, t_full) = (cost(false), cost(true));
        assert!(
            t_inc < t_full,
            "n={n}: incremental {t_inc}s !< full {t_full}s"
        );
        inc.push(t_inc);
        full.push(t_full);
    }
    let (inc_growth, full_growth) = (inc[2] / inc[0], full[2] / full[0]);
    assert!(
        inc_growth < full_growth,
        "incremental grew {inc_growth:.3}x from n=360 to n=1440, the full sweep only \
         {full_growth:.3}x: cost is not tracking the cone"
    );
}

/// Random dirty sets over the whole matrix — {GCN, GAT, SAGE} ×
/// {Vanilla, P2p, P2pRu} × {1, 2, 4} GPUs × {Off, DoubleBuffer} ×
/// {Sequential, Parallel} × cache {off, freq}: a random edge / feature /
/// mixed batch committed through `apply_staged` leaves logits bitwise
/// equal to a rebuild on the mutated graph; the executed trace passes the
/// happens-before checker (pass 5), the synthesized replay schedule of
/// the batch's dirty set passes 6–10, and the cache journal pass 11.
#[test]
fn random_deltas_patch_to_the_rebuild_and_certify_across_the_matrix() {
    let ds = random_dataset(test_seed() ^ 0xde17a, 240);
    for (k, cell) in cells().into_iter().enumerate() {
        let mix = [DeltaMix::Edge, DeltaMix::Feature, DeltaMix::Mixed][k % 3];
        let mut dg = DynamicGraph::from_dataset(&ds);
        let batch = toggle_workload(
            dg.graph(),
            ds.features.cols(),
            1,
            1 + (k / 3) % 4,
            mix,
            &mut SeededRng::new(test_seed() ^ (k as u64) << 8),
        )
        .pop()
        .expect("one batch");

        let mut s = cell.session(&ds, 8 << 10);
        s.infer_epoch().expect("initial full sweep");
        let staged = dg.stage(&batch).expect("valid batch");
        let dirty = staged.dirty().to_vec();
        let report = s.apply_staged(&mut dg, staged).expect("apply");
        assert!(report.active_steps <= report.total_steps, "{cell:?}");
        assert_eq!(report.dirty_vertices, dirty.len(), "{cell:?}");

        let rebuilt = {
            let mutated = dg.to_dataset(&ds);
            let plain = Cell {
                cache: false,
                ..cell
            };
            let mut r = plain.session(&mutated, 0);
            r.infer_epoch().expect("rebuild sweep").logits
        };
        assert_eq!(
            s.logits(),
            &rebuilt,
            "{cell:?}: patched logits diverged from the rebuild after {batch:?}"
        );

        let executed = verify_trace(s.machine().trace());
        assert!(executed.is_ok(), "{cell:?}:\n{}", executed.render());
        let synthesized = s.certify_delta(dg.graph(), &dirty).expect("synthesis");
        assert!(synthesized.is_ok(), "{cell:?}:\n{}", synthesized.render());
        let journal = s.certify_cache();
        assert!(journal.is_ok(), "{cell:?}:\n{}", journal.render());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A delta cone grown along the committed topology's out-edges
    /// (`cone::upward`) computes exactly the rows the chunk scan
    /// (`cone::upward_scan`) finds over the session's patched chunks, at
    /// 1–3 layers, after every commit of a random sequence of structural
    /// and feature batches on a random graph with self-loops — from the
    /// batch's own dirty set and from random seeds.
    #[test]
    fn graph_grown_delta_cones_equal_the_chunk_scan(
        seed in 0u64..500,
        n in 80usize..240,
        gpus in 1usize..4,
        chunks in 2usize..5,
        batches in 1usize..5,
        mix_sel in 0usize..3,
    ) {
        let mix = [DeltaMix::Edge, DeltaMix::Feature, DeltaMix::Mixed][mix_sel];
        let ds = random_dataset(seed, n);
        let cfg = HongTuConfig::builder()
            .machine(MachineConfig::scaled(gpus, 512 << 20))
            .comm(CommMode::P2pRu)
            .infer()
            .build()
            .expect("valid config");
        let mut s = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, cfg).expect("session");
        s.infer_epoch().expect("initial full sweep");
        let mut dg = DynamicGraph::from_dataset(&ds);
        let mut rng = SeededRng::new(seed ^ 0xc0de);
        let workload = toggle_workload(dg.graph(), ds.features.cols(), batches, 3, mix, &mut rng.fork(1));
        let mut seen = Seen::default();
        for batch in &workload {
            let staged = dg.stage(batch).expect("valid batch");
            let dirty = staged.dirty().to_vec();
            s.apply_staged(&mut dg, staged).expect("commit");
            let plan = s.plans().partition;
            let index = VertexIndex::new(plan);
            let count = 1 + rng.index(6);
            for seeds in [dirty.clone(), rng.sample_indices(n, count)] {
                for layers in 1..=3 {
                    prop_assert_eq!(
                        cone::upward(plan, &index, dg.graph(), layers, &seeds, &mut seen),
                        cone::upward_scan(plan, &index, layers, &seeds),
                        "seeds {:?}, {} layers", &seeds, layers
                    );
                }
            }
        }
    }

    /// Random delta sequences converge identically whichever way they
    /// are applied: batch-by-batch incremental repair, all deltas as a
    /// single batch, and a full session rebuild on the final graph all
    /// produce bitwise-equal logits.
    #[test]
    fn delta_sequences_converge_bitwise(
        seed in 0u64..200,
        n in 140usize..280,
        chunks in 2usize..5,
        batches in 1usize..4,
        edits in 1usize..4,
        mix_sel in 0usize..3,
        overlap_sel in 0usize..2,
    ) {
        let mix = [DeltaMix::Edge, DeltaMix::Feature, DeltaMix::Mixed][mix_sel];
        let overlap = [OverlapMode::Off, OverlapMode::DoubleBuffer][overlap_sel];
        let ds = random_dataset(seed, n);
        let cfg = || HongTuConfig::builder()
            .machine(MachineConfig::scaled(2, 512 << 20))
            .comm(CommMode::P2pRu)
            .reorganize(true)
            .overlap(overlap)
            .infer()
            .build()
            .expect("valid config");
        let workload = toggle_workload(
            &ds.graph,
            ds.features.cols(),
            batches,
            edits,
            mix,
            &mut SeededRng::new(seed ^ 0xd17a),
        );

        // Path A: batch-by-batch incremental repair.
        let mut dg_a = DynamicGraph::from_dataset(&ds);
        let one_by_one = {
            let mut s = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, cfg()).expect("session");
            s.infer_epoch().expect("initial full sweep");
            let mut logits = None;
            for b in &workload {
                apply(&mut s, &mut dg_a, b);
                logits = Some(s.logits().clone());
            }
            logits.expect("at least one batch")
        };
        prop_assert_eq!(dg_a.epoch(), workload.len() as u64);

        // Path B: every delta as one batch.
        let mut dg_b = DynamicGraph::from_dataset(&ds);
        let combined: Vec<Delta> = workload.iter().flatten().cloned().collect();
        let as_one = {
            let mut s = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, cfg()).expect("session");
            s.infer_epoch().expect("initial full sweep");
            apply(&mut s, &mut dg_b, &combined);
            s.logits().clone()
        };

        // Path C: full session rebuild on the final graph.
        let rebuilt = {
            let mutated = dg_a.to_dataset(&ds);
            let mut s = Session::new(&mutated, ModelKind::Gcn, 8, 2, chunks, cfg())
                .expect("session");
            s.infer_epoch().expect("rebuild sweep").logits
        };

        prop_assert_eq!(&one_by_one, &as_one, "one-by-one vs single batch diverged");
        prop_assert_eq!(&one_by_one, &rebuilt, "incremental vs rebuild diverged");
    }
}

/// A cone derived before a structural commit describes chunks the commit
/// rebuilt: sweeping it would write rows from the old topology into the
/// layer stores. RDT, GCN, 2 GPUs, P2pRu: derive vertex 10's query cone,
/// commit edges into vertex 10, then serve the old cone — the session
/// refuses it with `StaleCone` and leaves every store as the commit left
/// it, and a cone derived again serves the rebuilt graph's rows.
#[test]
fn a_cone_from_before_a_structural_commit_is_refused() {
    let ds = dataset();
    let cfg = config(2, OverlapMode::Off, CommMode::P2pRu);
    let mut s = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
    s.infer_epoch().expect("initial full sweep");
    let stale = s.query_cone(&[10]).expect("query cone");

    let mut dg = DynamicGraph::from_dataset(&ds);
    let sources: Vec<u32> = (0..ds.num_vertices() as u32)
        .filter(|&u| u != 10 && !dg.graph().in_neighbors(10).contains(&u))
        .take(2)
        .collect();
    let deltas: Vec<Delta> = sources
        .iter()
        .map(|&src| Delta::AddEdge { src, dst: 10 })
        .collect();
    let committed = apply(&mut s, &mut dg, &deltas);
    assert!(committed.rebuilt_chunks > 0, "commit was not structural");

    let before = s.logits().clone();
    match s.serve_cone(&[10], stale) {
        Err(SimError::StaleCone {
            cone_generation,
            plan_generation,
        }) => assert!(cone_generation < plan_generation),
        other => panic!("a stale cone was not refused: {other:?}"),
    }
    assert_eq!(s.logits(), &before, "a refused cone touched the stores");

    let rebuilt = {
        let mutated = dg.to_dataset(&ds);
        let cfg = config(2, OverlapMode::Off, CommMode::P2pRu);
        let mut r = Session::new(&mutated, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
        r.infer_epoch().expect("rebuild sweep").logits
    };
    assert_eq!(before, rebuilt);
    let fresh = s.query_cone(&[10]).expect("query cone");
    let served = s.serve_cone(&[10], fresh).expect("serve a fresh cone");
    assert_eq!(served.logits, rebuilt.gather_rows(&[10]));
    assert_eq!(s.logits(), &rebuilt);
}

/// A cone carries the identity of the plans it was derived from, unique
/// in the process, not a per-session counter: session B refuses a cone
/// session A derived over another graph of the same size — although
/// neither session has committed anything — before anything runs, and
/// still serves its own.
#[test]
fn a_cone_from_another_session_is_refused() {
    let n = 240;
    let (ds_a, ds_b) = (
        random_dataset(test_seed(), n),
        random_dataset(test_seed() ^ 0xb, n),
    );
    assert_ne!(ds_a.graph, ds_b.graph);
    let cfg = || config(2, OverlapMode::Off, CommMode::P2pRu);
    let a = Session::new(&ds_a, ModelKind::Gcn, 8, 2, 3, cfg()).expect("session A");
    let mut b = Session::new(&ds_b, ModelKind::Gcn, 8, 2, 3, cfg()).expect("session B");
    b.infer_epoch().expect("initial full sweep");
    let foreign = a.query_cone(&[10]).expect("A's query cone");

    let before = b.logits().clone();
    match b.serve_cone(&[10], foreign) {
        Err(SimError::StaleCone {
            cone_generation,
            plan_generation,
        }) => assert_ne!(cone_generation, plan_generation),
        other => panic!("a foreign cone was not refused: {other:?}"),
    }
    assert_eq!(b.logits(), &before, "a refused cone touched the stores");
    let own = b.query_cone(&[10]).expect("B's query cone");
    let served = b.serve_cone(&[10], own).expect("serve B's own cone");
    assert_eq!(served.logits, before.gather_rows(&[10]));
}
