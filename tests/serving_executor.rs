//! Certification of the serving path: `Session::serve` must return
//! logits bitwise identical to a full `infer_epoch` restricted to the
//! queried vertices across the full {model × gpus × overlap} matrix,
//! the ≤ L-hop cone mask must equal a brute-force BFS oracle row for row
//! on random graphs, every batch admitted against the session's own staging
//! budget must run within the static memory bound, a served batch's
//! synthesized schedule must certify clean under the static passes —
//! including Paranoid, which re-certifies inside `serve` itself — and a
//! cone packed into runs of batches must rebuild its rows exactly, fit
//! wherever the same cone fit on the session's grid, and (overlap off)
//! cost no more than it did there.
//!
//! The bitwise comparison works because the serve session and the
//! reference inference session are seeded identically by the dataset:
//! two fresh sessions hold the same initial weights, and the pruned
//! sweep computes exactly the same floating-point operations for the
//! rows it keeps.

use hongtu::cache::CacheEvent;
use hongtu::core::{
    CommMode, ExecutionMode, HongTuConfig, Mode, OverlapMode, ServeMask, Session, ValidationLevel,
};
use hongtu::datasets::dataset::{Dataset, DatasetKey};
use hongtu::datasets::load;
use hongtu::delta::{toggle_workload, DeltaMix, DynamicGraph};
use hongtu::graph::{generators, Graph};
use hongtu::nn::ModelKind;
use hongtu::partition::cone::run_ranges;
use hongtu::partition::{ChunkSubgraph, TwoLevelPartition};
use hongtu::serving::AdmissionControl;
use hongtu::sim::{MachineConfig, SimError};
use hongtu::tensor::SeededRng;
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

fn config(gpus: usize, overlap: OverlapMode) -> HongTuConfig {
    HongTuConfig::builder()
        .machine(MachineConfig::scaled(gpus, 512 << 20))
        .comm(CommMode::P2pRu)
        .reorganize(true)
        .overlap(overlap)
        .mode(Mode::Infer)
        .build()
        .expect("valid config")
}

fn session(ds: &Dataset, kind: ModelKind, gpus: usize, overlap: OverlapMode) -> Session {
    Session::new(ds, kind, 16, 2, 4, config(gpus, overlap)).expect("session")
}

/// A query subset clustered in batch 0: the regime where the cone
/// prunes whole steps (at the top layer only batch 0 runs) on top of
/// the rows it prunes inside the steps it keeps.
fn clustered_queries(session: &Session, count: usize, seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = session
        .plans()
        .partition
        .all_chunks()
        .filter(|c| c.chunk == 0)
        .flat_map(|c| c.dests.iter().map(|&v| v as usize))
        .collect();
    pool.sort_unstable();
    let mut rng = SeededRng::new(seed);
    rng.sample_indices(pool.len(), count.min(pool.len()))
        .into_iter()
        .map(|k| pool[k])
        .collect()
}

/// [`clustered_queries`] plus a scattered vertex.
fn mixed_queries(session: &Session, count: usize, seed: u64) -> Vec<usize> {
    let mut q = clustered_queries(session, count, seed);
    q.push(0);
    q.dedup();
    q
}

/// Served logits are bitwise equal to `infer_epoch` restricted to the
/// queried rows, across every model, GPU count and overlap mode. The
/// serve runs first on its own fresh session so nothing about the full
/// sweep can leak into the pruned one.
#[test]
fn served_logits_match_infer_epoch_across_matrix() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for gpus in [1usize, 2, 4] {
            for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
                let (served, vertices) = {
                    let mut s = session(&ds, kind, gpus, overlap);
                    let vertices = mixed_queries(&s, 24, test_seed());
                    let report = s.serve(&vertices).expect("serve");
                    assert_eq!(report.logits.rows(), vertices.len());
                    assert!(report.active_steps <= report.total_steps);
                    (report.logits, vertices)
                };
                let full = {
                    let mut s = session(&ds, kind, gpus, overlap);
                    s.infer_epoch().expect("infer epoch").logits
                };
                assert_eq!(
                    served,
                    full.gather_rows(&vertices),
                    "{} / {gpus} GPUs / {overlap:?}: served logits diverged from infer_epoch",
                    kind.name()
                );
            }
        }
    }
}

/// Brute-force per-layer in-ball of `queries`: `ball[l]` holds the
/// vertices whose `h^l` row the queries' logits transitively read —
/// `ball[L] = Q`, `ball[l] = ball[l+1] ∪ N_in(ball[l+1])`, one plain BFS
/// hop over the graph's in-edges per layer. The step computing `h^{l+1}`
/// must compute every row of `ball[l+1]`.
fn in_ball(g: &Graph, queries: &[usize], layers: usize) -> Vec<Vec<bool>> {
    let mut ball = vec![vec![false; g.num_vertices()]; layers + 1];
    for &q in queries {
        ball[layers][q] = true;
    }
    for l in (0..layers).rev() {
        let mut next = ball[l + 1].clone();
        for v in (0..g.num_vertices()).filter(|&v| ball[l + 1][v]) {
            for &u in g.in_neighbors(v as u32) {
                next[u as usize] = true;
            }
        }
        ball[l] = next;
    }
    ball
}

/// The vertices `mask` computes at layer `l`, as a membership vector.
fn computed_at(plan: &TwoLevelPartition, mask: &ServeMask, l: usize, n: usize) -> Vec<bool> {
    let mut computed = vec![false; n];
    for c in plan.all_chunks() {
        for &k in &mask.rows()[l][c.part][c.chunk] {
            assert!(
                !std::mem::replace(&mut computed[c.dests[k as usize] as usize], true),
                "a row listed twice"
            );
        }
    }
    computed
}

/// The cone mask *is* the exact vertex-level ≤ L-hop dependency ball
/// ([`in_ball`]): the step computing `h^{l+1}` computes exactly the rows
/// the queries transitively need — none missing, none extra — a batch is
/// active exactly where some needed vertex lives, and the grid is
/// downward closed.
#[test]
fn cone_mask_covers_bfs_oracle_on_random_graphs() {
    for seed in [3u64, 17, 42] {
        let mut rng = SeededRng::new(seed);
        let g = generators::erdos_renyi(160 + rng.index(120), 4.0, &mut rng.fork(1));
        let n = g.num_vertices();
        for (m, chunks) in [(1usize, 4usize), (2, 4), (4, 2)] {
            let plan = TwoLevelPartition::build(&g, m, chunks, seed);
            let mut batch_of = vec![0usize; n];
            for c in plan.all_chunks() {
                for &v in &c.dests {
                    batch_of[v as usize] = c.chunk;
                }
            }
            for layers in [1usize, 2, 3] {
                let mut qrng = rng.fork(100 + layers as u64);
                let count = 1 + qrng.index(4);
                let queries = qrng.sample_indices(n, count);
                let mask = ServeMask::from_queries(&plan, layers, &queries);
                assert_eq!(mask.layers(), layers);

                let ball = in_ball(&g, &queries, layers);
                let mut rows = 0;
                for l in 0..layers {
                    assert_eq!(
                        computed_at(&plan, &mask, l, n),
                        ball[l + 1],
                        "seed {seed}, {m}x{chunks}, L={layers}: layer {l} rows differ from the \
                         BFS ball of {queries:?}"
                    );
                    for j in 0..mask.batches() {
                        let holds = (0..n).any(|v| ball[l + 1][v] && batch_of[v] == j);
                        assert_eq!(mask.active(l, j), holds, "layer {l} batch {j}");
                    }
                    rows += ball[l + 1].iter().filter(|&&b| b).count();
                }
                assert_eq!(mask.active_rows(), rows);
                assert_eq!(mask.total_rows(), layers * n);
                // Downward closure: a batch active at layer l+1 is
                // active at layer l.
                for l in 0..layers.saturating_sub(1) {
                    for j in 0..mask.batches() {
                        assert!(!mask.active(l + 1, j) || mask.active(l, j));
                    }
                }
            }
        }
    }
}

/// A served batch's synthesized schedule certifies clean under the
/// static passes (6–7, plus pass-9 dataflow conservation), and
/// Paranoid validation re-certifies inside `serve` itself.
#[test]
fn served_batch_schedule_certifies_with_paranoid() {
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
    let vertices = mixed_queries(&session, 16, test_seed());

    let report = session
        .certify_serve(&vertices)
        .expect("schedule synthesis");
    assert!(report.is_ok(), "{}", report.render());

    // Paranoid re-runs schedule + dataflow certification inside the
    // epoch wrapper; a clean return IS the certificate.
    let served = session.serve(&vertices).expect("serve under Paranoid");
    assert_eq!(served.logits.rows(), vertices.len());
}

/// A query costs its cone, for every model, overlap mode and GPU count,
/// each sweep on its own fresh traced session:
/// - a sweep pruned to a clustered subset of 5 % of the vertices runs
///   strictly fewer sim events in strictly less sim time than the full
///   inference sweep;
/// - a one-query probe of 8 uniformly scattered vertices is strictly
///   cheaper than the full sweep in sim time and events, and computes
///   strictly fewer rows — even on RDT, where 77 in-neighbours a vertex
///   let the cone's bottom layer read most of the graph.
///
/// Both serve the rows of `infer_epoch` bit for bit.
#[test]
fn pruned_sweep_runs_strictly_fewer_events() {
    let ds = dataset();
    let n = ds.graph.num_vertices();
    let probe = SeededRng::new(test_seed() ^ 0x7072_6f62).sample_indices(n, 8);
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
            for gpus in [1usize, 2, 4] {
                let tag = format!("{} / {overlap:?} / {gpus} GPUs", kind.name());
                let traced = || {
                    let mut s = session(&ds, kind, gpus, overlap);
                    s.machine_mut().enable_unbounded_trace();
                    s
                };
                let (infer, infer_events) = {
                    let mut s = traced();
                    let r = s.infer_epoch().expect("infer epoch");
                    (r, s.machine().trace().len())
                };
                let (vertices, served, serve_events) = {
                    let mut s = traced();
                    let vertices = clustered_queries(&s, n / 20, test_seed());
                    let r = s.serve(&vertices).expect("serve");
                    (vertices, r, s.machine().trace().len())
                };
                assert!(served.active_steps < served.total_steps, "{tag}");
                assert_eq!(served.logits, infer.logits.gather_rows(&vertices), "{tag}");
                assert!(
                    serve_events < infer_events,
                    "{tag}: pruned sweep {serve_events} events !< full sweep {infer_events}"
                );
                assert!(
                    served.time < infer.time,
                    "{tag}: pruned sweep {} s !< full sweep {} s",
                    served.time,
                    infer.time
                );

                let (probed, probe_events) = {
                    let mut s = traced();
                    let r = s.serve(&probe).expect("probe");
                    (r, s.machine().trace().len())
                };
                assert_eq!(probed.logits, infer.logits.gather_rows(&probe), "{tag}");
                assert!(
                    probed.time < infer.time
                        && probe_events < infer_events
                        && probed.active_rows < probed.total_rows,
                    "{tag}: probe ({} s, {probe_events} events, {}/{} rows) not strictly \
                     cheaper than the full sweep ({} s, {infer_events} events)",
                    probed.time,
                    probed.active_rows,
                    probed.total_rows,
                    infer.time
                );
            }
        }
    }
}

/// Room for ~40 six-float feature rows.
const ROWS40: usize = 40 * 6 * 4;

/// Random query sets over the whole matrix — {GCN, GAT, SAGE} ×
/// {Vanilla, P2p, P2pRu} × {1, 2, 4} GPUs × {Off, DoubleBuffer} ×
/// {Sequential, Parallel} × cache {off, freq}: the rows a fresh session
/// serves, and the rows a primed (cache-warm) one serves, are bitwise the
/// rows of `infer_epoch`; the executed trace passes the happens-before
/// checker (pass 5), the synthesized serve schedule passes 6–10, and the
/// cache journal pass 11.
#[test]
fn random_queries_serve_infer_rows_and_certify_across_the_matrix() {
    let ds = random_dataset(test_seed() ^ 0x5e7e, 240);
    let n = ds.graph.num_vertices();
    for (k, cell) in cells().into_iter().enumerate() {
        let mut rng = SeededRng::new(test_seed() ^ (k as u64) << 8);
        let cold_query = rng.sample_indices(n, 1 + k % 5);
        let warm_query = rng.sample_indices(n, 1 + (k / 5) % 7);

        let served_cold = {
            let mut s = cell.session(&ds, ROWS40);
            let r = s.serve(&cold_query).expect("serve on a fresh session");
            assert!(r.active_steps <= r.total_steps, "{cell:?}");
            r.logits
        };
        let mut s = cell.session(&ds, ROWS40);
        let full = s.infer_epoch().expect("infer epoch").logits;
        assert_eq!(
            served_cold,
            full.gather_rows(&cold_query),
            "{cell:?}: fresh serve diverged from infer_epoch on {cold_query:?}"
        );
        let served_warm = s.serve(&warm_query).expect("serve on a primed session");
        assert_eq!(
            served_warm.logits,
            full.gather_rows(&warm_query),
            "{cell:?}: primed serve diverged from infer_epoch on {warm_query:?}"
        );
        assert_eq!(
            s.logits(),
            &full,
            "{cell:?}: serve disturbed the logits store"
        );

        let executed = verify_trace(s.machine().trace());
        assert!(executed.is_ok(), "{cell:?}:\n{}", executed.render());
        let synthesized = s.certify_serve(&warm_query).expect("synthesis");
        assert!(synthesized.is_ok(), "{cell:?}:\n{}", synthesized.render());
        assert_eq!(cell.cache, s.cache().is_some(), "{cell:?}");
        let journal = s.certify_cache();
        assert!(journal.is_ok(), "{cell:?}:\n{}", journal.render());
    }
}

/// A cone computes the logits of its seeds and nothing else, so
/// `serve_cone` refuses — before anything runs — to serve a vertex the
/// cone was not grown from, to serve from a delta cone, or to serve an
/// id the graph does not have. Served from a cone of its own seeds, the
/// same vertex reads the full sweep's row.
#[test]
fn serve_cone_refuses_rows_its_cone_never_computed() {
    let ds = dataset();
    let cfg = HongTuConfig::builder()
        .machine(MachineConfig::scaled(2, 512 << 20))
        .comm(CommMode::P2pRu)
        .mode(Mode::Infer)
        .build()
        .expect("valid config");
    let mut s = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg.clone()).expect("session");
    let refused = |s: &mut Session, vertices: &[usize], cone| match s.serve_cone(vertices, cone) {
        Err(SimError::InvalidQuery { message }) => message,
        other => panic!("serve_cone({vertices:?}) was not refused: {other:?}"),
    };
    let other = s.query_cone(&[1]).expect("query cone");
    let why = refused(&mut s, &[2000], other);
    assert!(why.contains("vertex 2000 is not a seed"), "{why}");
    let delta = s.plan_cone(ServeMask::from_dirty(
        s.plans().partition,
        &ds.graph,
        2,
        &[2000],
    ));
    let why = refused(&mut s, &[2000], delta);
    assert!(why.contains("delta cone"), "{why}");
    let mine = s.query_cone(&[2000]).expect("query cone");
    let why = refused(&mut s, &[2000, ds.num_vertices()], mine);
    assert!(why.contains("out of range"), "{why}");
    assert!(
        s.logits().row(2000).iter().all(|&x| x == 0.0),
        "a refused cone ran"
    );

    let served = s
        .serve_cone(&[2000], s.query_cone(&[2000]).expect("query cone"))
        .expect("serve a cone of its own seeds");
    let mut full = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
    let full = full.infer_epoch().expect("full sweep").logits;
    assert_eq!(served.logits, full.gather_rows(&[2000]));
    assert!(served.logits.row(0).iter().any(|&x| x != 0.0));
}

/// A cone lists its layer-0 load sets only when it is derived under a
/// cache policy, so a hot-vertex cache's sweep refuses a cone derived
/// without one — typed, before anything runs — rather than panicking.
#[test]
fn a_cached_sweep_refuses_a_cone_without_load_sets() {
    let ds = random_dataset(test_seed() ^ 0x10ad, 240);
    let cell = |cache| Cell {
        kind: ModelKind::Gcn,
        comm: CommMode::P2pRu,
        gpus: 2,
        overlap: OverlapMode::Off,
        exec: ExecutionMode::Sequential,
        cache,
    };
    let mut cached = cell(true).session(&ds, ROWS40);
    cached.infer_epoch().expect("prime");
    let events = cached.cache().expect("cache admitted").log().events.len();
    let bare = cell(false).session(&ds, ROWS40);
    let cone = bare.query_cone(&[7]).expect("query cone");
    match cached.serve_cone(&[7], cone) {
        Err(SimError::InvalidQuery { message }) => {
            assert!(message.contains("load sets"), "{message}")
        }
        other => panic!("a cone without load sets was served: {other:?}"),
    }
    let after = cached.cache().expect("cache admitted").log().events.len();
    assert_eq!(after, events, "a refused cone ran");
    let cone = cached.query_cone(&[7]).expect("query cone");
    cached
        .serve_cone(&[7], cone)
        .expect("a cone of the session's own");
}

/// The cold-cache corner: a structural commit re-derives the plans and
/// re-admits the hot-vertex cache from scratch, so the replay and the
/// serve right behind it run against an empty resident set. The served
/// rows are still the rebuilt graph's `infer_epoch` rows, and the fresh
/// journal (replay, then serve) certifies.
#[test]
fn serve_right_after_a_structural_commit_certifies_its_cold_cache() {
    let ds = random_dataset(test_seed() ^ 0xc01d, 240);
    let n = ds.graph.num_vertices();
    for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
        for (overlap, exec) in [
            (OverlapMode::Off, ExecutionMode::Sequential),
            (OverlapMode::DoubleBuffer, ExecutionMode::Parallel),
        ] {
            let cell = Cell {
                kind: ModelKind::Gcn,
                comm,
                gpus: 2,
                overlap,
                exec,
                cache: true,
            };
            // A structural commit re-pins staging; leave it room to grow.
            let mut s = cell.session(&ds, 8 << 10);
            s.infer_epoch().expect("prime");
            let warm = s.cache().expect("cache admitted").log().events.len();
            assert!(warm > 0);

            let mut dg = DynamicGraph::from_dataset(&ds);
            let batch = toggle_workload(
                dg.graph(),
                ds.features.cols(),
                1,
                2,
                DeltaMix::Edge,
                &mut SeededRng::new(test_seed() ^ 0xed6e),
            )
            .pop()
            .expect("one batch");
            let staged = dg.stage(&batch).expect("stage");
            let committed = s.apply_staged(&mut dg, staged).expect("commit");
            assert!(
                committed.rebuilt_chunks > 0,
                "{cell:?}: commit was not structural"
            );
            let patched = s.logits().clone();
            let query = SeededRng::new(test_seed() ^ 0x9e27).sample_indices(n, 4);
            let served = s.serve(&query).expect("serve right after the commit");

            let rebuilt = {
                let mutated = dg.to_dataset(&ds);
                let plain = Cell {
                    cache: false,
                    ..cell
                };
                let mut r = plain.session(&mutated, 0);
                r.infer_epoch().expect("rebuild sweep").logits
            };
            assert_eq!(patched, rebuilt, "{cell:?}: patched logits != rebuild");
            assert_eq!(served.logits, rebuilt.gather_rows(&query), "{cell:?}");
            // The rebuilt journal: the commit's invalidation (of a cache
            // that holds nothing yet), the replay, the serve.
            let events = &s.cache().expect("cache re-admitted").log().events;
            assert!(
                matches!(
                    events[..],
                    [
                        CacheEvent::Invalidate { .. },
                        CacheEvent::Sweep { .. },
                        CacheEvent::Sweep { .. }
                    ]
                ),
                "{cell:?}: {events:?}"
            );
            let journal = s.certify_cache();
            assert!(journal.is_ok(), "{cell:?}:\n{}", journal.render());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any batch admitted against the session's own staging budget runs
    /// within the static memory bound: the cone cost the admission
    /// check uses is the same per-batch arithmetic the bound charges,
    /// so admission can never let an over-budget sweep through.
    #[test]
    fn admitted_batches_fit_static_memory_bound(
        seed in 0u64..200,
        n in 140usize..320,
        chunks in 2usize..5,
        queries in 1usize..12,
        overlap_sel in 0usize..2,
    ) {
        let overlap = [OverlapMode::Off, OverlapMode::DoubleBuffer][overlap_sel];
        let ds = random_dataset(seed, n);
        let cfg = HongTuConfig::builder()
            .machine(MachineConfig::scaled(2, 512 << 20))
            .comm(CommMode::P2pRu)
            .reorganize(true)
            .overlap(overlap)
            .infer()
            .build()
            .expect("valid config");
        let mut session = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, cfg).expect("session");
        let vertices = SeededRng::new(seed ^ 0xabcd).sample_indices(n, queries);
        let mask = ServeMask::from_queries(session.plans().partition, 2, &vertices);

        // The cone is a subset of the full sweep the staging slots were
        // sized for, so the session's own budget always admits it.
        let admission = AdmissionControl::from_session(&session);
        prop_assert!(admission.admits(&session, &mask));
        for (cost, budget) in session.serve_cone_cost(&mask).iter().zip(admission.budget()) {
            prop_assert!(cost <= budget);
        }

        let bound = session.static_memory_bound();
        let report = session.serve(&vertices).expect("serve");
        let worst = bound.gpu.iter().copied().max().unwrap_or(0);
        prop_assert!(
            report.peak_gpu_bytes <= worst,
            "measured GPU peak {} exceeds static bound {}",
            report.peak_gpu_bytes,
            worst
        );
        prop_assert_eq!(report.logits.rows(), vertices.len());
    }
}

/// A random session for the packing properties: any model, comm mode,
/// 1–3 GPUs and 2–5 chunks, overlap on or off, on a random graph; and a
/// random query or dirty cone over it.
fn packing_case(
    seed: u64,
    n: usize,
    (kind, comm, gpus, chunks): (usize, usize, usize, usize),
    overlap: OverlapMode,
    (seeds, upward): (usize, bool),
) -> (Dataset, Session, ServeMask, Vec<usize>) {
    let ds = random_dataset(seed, n);
    let kind = [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage][kind];
    let comm = [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu][comm];
    let cfg = HongTuConfig::builder()
        .machine(MachineConfig::scaled(gpus, 64 << 20))
        .comm(comm)
        .reorganize(comm != CommMode::Vanilla)
        .overlap(overlap)
        .infer()
        .build()
        .expect("valid config");
    let s = Session::new(&ds, kind, 8, 2, chunks, cfg).expect("session");
    let vertices = SeededRng::new(seed ^ 0x9ac4).sample_indices(n, seeds);
    let partition = s.plans().partition;
    let mask = if upward {
        ServeMask::from_dirty(partition, &ds.graph, 2, &vertices)
    } else {
        ServeMask::from_queries(partition, 2, &vertices)
    };
    (ds, s, mask, vertices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// What the run rule packs: every packed chunk `(i, g)` is
    /// `ChunkSubgraph::build` of the rows GPU `i` keeps in run `g`; every
    /// packed step's forward footprint fits the staging budget on every
    /// GPU whenever the cone's batches fit it on the session's grid (and
    /// always outside P2P+RU, whose shared buffer a cone's batches can
    /// outgrow); and a cone an admission budget admits on the grid it
    /// still admits packed — the session's own, or one as tight as the
    /// grid cone's cost — no new rejects.
    #[test]
    fn packed_cones_rebuild_their_rows_and_fit_what_the_grid_fit(
        seed in 0u64..400,
        n in 120usize..300,
        kind in 0usize..3,
        comm in 0usize..3,
        gpus in 1usize..4,
        chunks in 2usize..6,
        overlap_sel in 0usize..2,
        seeds in 1usize..10,
        upward in 0usize..2,
    ) {
        let overlap = [OverlapMode::Off, OverlapMode::DoubleBuffer][overlap_sel];
        let (ds, s, mask, _) =
            packing_case(seed, n, (kind, comm, gpus, chunks), overlap, (seeds, upward == 1));
        let grid = s.grid_cone(mask.clone());
        let packed = s.plan_cone(mask.clone());
        let ends = &packed.mask().origin().runs;
        let plan = s.plans().partition;
        for (l, rows) in mask.rows().iter().enumerate() {
            let layer = packed.plan(l);
            prop_assert_eq!(layer.n, ends.len());
            for (g, run) in run_ranges(ends).enumerate() {
                for (i, (gpu, chunks)) in rows.iter().zip(&plan.chunks).enumerate() {
                    let mut kept: Vec<u32> = run
                        .clone()
                        .flat_map(|j| gpu[j].iter().map(move |&k| chunks[j].dests[k as usize]))
                        .collect();
                    kept.sort_unstable();
                    let want = ChunkSubgraph::build(&ds.graph, i, g, kept);
                    prop_assert_eq!(&*layer.chunks[i][g], &want, "layer {} chunk ({}, {})", l, i, g);
                }
            }
        }

        let budget = s.staging_budget();
        let fits = |cost: Vec<usize>| cost.iter().zip(&budget).all(|(c, b)| c <= b);
        let grid_fits = fits(s.cone_cost(&grid));
        if grid_fits || comm != 2 {
            prop_assert!(fits(s.cone_cost(&packed)), "runs {:?}", ends);
        }
        let admission = AdmissionControl::from_session(&s);
        prop_assert_eq!(admission.admits_cone(&s, &grid), grid_fits);
        if grid_fits {
            prop_assert!(admission.admits_cone(&s, &packed), "runs {:?}", ends);
        }
        // Under a budget tighter than the slots — the grid cone's own
        // cost — the runs are held to it as well: an explicit admission
        // budget the grid fit admits the packed cone too.
        let tight = s.cone_cost(&grid);
        let within = s.plan_cone_within(mask.clone(), &tight);
        let admission = AdmissionControl::with_budget(tight);
        if grid_fits || comm != 2 {
            prop_assert!(admission.admits_cone(&s, &within), "runs {:?}", within.mask().origin().runs);
            prop_assert!(admission.admits(&s, &mask));
        }
        prop_assert!(packed.active_steps() <= grid.active_steps());
    }

    /// Packing only merges steps: with overlap off a step waits for its
    /// slowest GPU, and a max of sums is at most a sum of maxes, while
    /// merged neighbour sets only deduplicate — so the packed sweep costs
    /// no more simulated time and no more H2D bytes than the same cone
    /// on the session's grid, and serves the same rows bit for bit.
    #[test]
    fn packed_sweeps_cost_no_more_than_grid_sweeps(
        seed in 0u64..400,
        n in 120usize..300,
        kind in 0usize..3,
        comm in 0usize..3,
        gpus in 1usize..4,
        chunks in 2usize..6,
        seeds in 1usize..10,
    ) {
        let (_, mut s, mask, vertices) =
            packing_case(seed, n, (kind, comm, gpus, chunks), OverlapMode::Off, (seeds, false));
        s.infer_epoch().expect("infer epoch");
        let grid = s.grid_cone(mask.clone());
        let packed = s.plan_cone(mask);
        let runs = packed.mask().origin().runs.clone();
        let on_grid = s.serve_cone(&vertices, grid).expect("grid sweep");
        let on_runs = s.serve_cone(&vertices, packed).expect("packed sweep");
        prop_assert_eq!(&on_runs.logits, &on_grid.logits);
        prop_assert!(
            on_runs.time <= on_grid.time,
            "runs {:?}: {} s > grid {} s", runs, on_runs.time, on_grid.time
        );
        prop_assert!(
            on_runs.buckets.bytes_h2d <= on_grid.buckets.bytes_h2d,
            "runs {:?}: {} H2D bytes > grid {}", runs, on_runs.buckets.bytes_h2d, on_grid.buckets.bytes_h2d
        );
    }
}
