//! Hand-crafted *bad* cache journals, each firing its documented `H10xx`
//! diagnostic in isolation, plus a clean-journal control.
//!
//! The corruptions mirror the silent bugs pass 11 exists to catch: a hit
//! charged before the row was installed (the executor would skip an H2D
//! for a row not on the GPU), a delta commit that leaves a patched row
//! resident (every later sweep serves stale features), an install the
//! plan never admitted, and a resident set that outgrows its headroom.

use hongtu_cache::{
    load_sets, CacheEvent, CacheLog, CachePlan, CacheRuntime, FrequencyRanked, LoadPattern,
    LoadSets,
};
use hongtu_graph::Graph;
use hongtu_partition::cone::{ConeDir, ConeOrigin, VertexIndex};
use hongtu_partition::{DedupPlan, GpuBufferPlan, TwoLevelPartition};
use hongtu_tensor::SeededRng;
use hongtu_verify::{verify_cache, DiagCode};
use std::sync::Arc;

const SLOT: usize = 32;

fn triple(seed: u64, m: usize, n: usize) -> (Graph, TwoLevelPartition, DedupPlan) {
    let mut rng = SeededRng::new(seed);
    let g = hongtu_graph::generators::web_hybrid(800, 6.0, 0.9, 30.0, &mut rng);
    let plan = TwoLevelPartition::build(&g, m, n, seed);
    let dedup = DedupPlan::build(&plan);
    (g, plan, dedup)
}

/// Builds a plan + a runtime that has committed `sweeps` full sweeps, and
/// returns everything pass 11 needs.
fn setup(
    seed: u64,
    m: usize,
    n: usize,
    sweeps: usize,
) -> (
    Graph,
    TwoLevelPartition,
    DedupPlan,
    Vec<GpuBufferPlan>,
    Vec<usize>,
    CachePlan,
    CacheRuntime,
) {
    let (g, plan, dedup) = triple(seed, m, n);
    let bufs = GpuBufferPlan::build_all(&plan, &dedup);
    let sets = load_sets(&plan, &dedup, Some(&bufs), LoadPattern::P2pRu);
    let degrees: Vec<u32> = (0..g.num_vertices())
        .map(|v| g.out_degree(v as u32) as u32)
        .collect();
    let headroom = vec![4096usize; m];
    let cache = CachePlan::build(&sets, &degrees, &headroom, SLOT, &FrequencyRanked);
    assert!(!cache.is_empty(), "seed {seed} admitted nothing");
    let mut rt = CacheRuntime::new(cache.clone(), sets, g.num_vertices(), None);
    for _ in 0..sweeps {
        rt.begin_sweep(None);
        rt.end_sweep();
    }
    (g, plan, dedup, bufs, headroom, cache, rt)
}

/// What a cone that prunes batch `pruned` and keeps every row of every
/// other chunk hands the runtime — the one-layer query cone of every
/// vertex outside the batch, every batch its own run: its origin and the
/// load sets of the plans packed to it, derived as the engine derives
/// them.
fn prune_batch(plan: &TwoLevelPartition, pruned: usize) -> (ConeOrigin, Arc<LoadSets>) {
    pack_pruned(plan, pruned, (1..=plan.n).collect())
}

/// [`prune_batch`] packed into the runs ending at `runs`.
fn pack_pruned(
    plan: &TwoLevelPartition,
    pruned: usize,
    runs: Vec<usize>,
) -> (ConeOrigin, Arc<LoadSets>) {
    let origin = ConeOrigin {
        dir: ConeDir::Downward,
        layers: 1,
        seeds: plan
            .all_chunks()
            .filter(|c| c.chunk != pruned)
            .flat_map(|c| c.dests.iter().map(|&d| d as usize))
            .collect(),
        runs,
    };
    let rows = origin.regrow(plan, &VertexIndex::new(plan));
    let packed = plan.packed(&rows[0], &origin.runs);
    let dedup = DedupPlan::build(&packed);
    let bufs = GpuBufferPlan::build_all(&packed, &dedup);
    let sets = load_sets(&packed, &dedup, Some(&bufs), LoadPattern::P2pRu);
    (origin, Arc::new(sets))
}

fn certify(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufs: &[GpuBufferPlan],
    cache: &CachePlan,
    headroom: &[usize],
    log: &CacheLog,
) -> hongtu_verify::Report {
    verify_cache(
        plan,
        dedup,
        Some(bufs),
        LoadPattern::P2pRu,
        cache,
        headroom,
        log,
    )
}

#[test]
fn honest_journal_certifies_clean() {
    let (_, plan, dedup, bufs, headroom, cache, mut rt) = setup(1, 3, 3, 2);
    // A delta invalidation the runtime performed itself is also clean.
    let victim = cache.per_gpu[0].vertices[0];
    rt.invalidate(&[victim]);
    rt.begin_sweep(None);
    rt.end_sweep();
    // So is a cone-pruned sweep over its own load sets, on the session's
    // grid and packed into fewer runs.
    rt.begin_sweep(Some(prune_batch(&plan, 1)));
    rt.end_sweep();
    rt.begin_sweep(Some(pack_pruned(&plan, 0, vec![1, 3])));
    rt.end_sweep();
    let report = certify(&plan, &dedup, &bufs, &cache, &headroom, rt.log());
    assert!(report.is_ok(), "{}", report.render());
}

#[test]
fn overfull_plan_is_h1001() {
    let (_, plan, dedup, bufs, _, cache, rt) = setup(2, 2, 3, 1);
    // Shrink the declared headroom below what the plan spends.
    let tiny = vec![SLOT - 1; 2];
    let report = certify(&plan, &dedup, &bufs, &cache, &tiny, rt.log());
    assert!(report.has(DiagCode::CacheOverflow), "{}", report.render());
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.code == DiagCode::CacheOverflow),
        "{}",
        report.render()
    );
}

#[test]
fn hit_before_install_is_h1002() {
    let (_, plan, dedup, bufs, headroom, cache, rt) = setup(3, 2, 3, 1);
    let mut log = rt.log().clone();
    // Doctor the first (cold) sweep to claim a hit nothing installed yet.
    match &mut log.events[0] {
        CacheEvent::Sweep { hits, .. } => hits[0][0] += 1,
        other => panic!("expected sweep event, got {other:?}"),
    }
    let report = certify(&plan, &dedup, &bufs, &cache, &headroom, &log);
    assert!(report.has(DiagCode::CachePhantomHit), "{}", report.render());
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.code == DiagCode::CachePhantomHit),
        "{}",
        report.render()
    );
}

#[test]
fn hit_on_pruned_batch_is_h1002() {
    let (_, plan, dedup, bufs, headroom, cache, mut rt) = setup(4, 2, 3, 1);
    rt.begin_sweep(Some(prune_batch(&plan, 1))); // batch 1 pruned by a cone
    rt.end_sweep();
    let mut log = rt.log().clone();
    match log.events.last_mut().unwrap() {
        CacheEvent::Sweep { hits, .. } => hits[1][1] = 1, // claims a pruned-batch hit
        other => panic!("expected sweep event, got {other:?}"),
    }
    let report = certify(&plan, &dedup, &bufs, &cache, &headroom, &log);
    assert!(report.has(DiagCode::CachePhantomHit), "{}", report.render());
}

#[test]
fn cone_of_another_graph_is_h1002() {
    let (g, plan, dedup, bufs, headroom, cache, mut rt) = setup(8, 2, 3, 1);
    rt.begin_sweep(Some(prune_batch(&plan, 1)));
    rt.end_sweep();
    let mut log = rt.log().clone();
    // The journal names a cone this plan cannot grow: pass 11 has no load
    // sets to hold the sweep's hits against, and says so instead of
    // panicking in the recurrence.
    match log.events.last_mut().unwrap() {
        CacheEvent::Sweep { cone, .. } => {
            cone.as_mut().expect("a pruned sweep").seeds[0] = g.num_vertices();
        }
        other => panic!("expected sweep event, got {other:?}"),
    }
    let report = certify(&plan, &dedup, &bufs, &cache, &headroom, &log);
    assert!(report.has(DiagCode::CachePhantomHit), "{}", report.render());
    assert!(
        report.render().contains("out of range"),
        "{}",
        report.render()
    );
}

/// Pass 11 re-packs a journaled cone into the runs it journaled: a
/// journal that names other runs than the sweep packed into holds its
/// hits against load sets it never loaded, and malformed runs name no
/// grid at all.
#[test]
fn runs_other_than_the_packed_ones_are_h1002() {
    let (_, plan, dedup, bufs, headroom, cache, mut rt) = setup(8, 2, 3, 2);
    rt.begin_sweep(Some(pack_pruned(&plan, 2, vec![2, 3])));
    rt.end_sweep();
    let clean = certify(&plan, &dedup, &bufs, &cache, &headroom, rt.log());
    assert!(clean.is_ok(), "{}", clean.render());
    for (runs, why) in [(vec![1, 2, 3], "charged"), (vec![2], "do not end")] {
        let mut log = rt.log().clone();
        match log.events.last_mut().unwrap() {
            CacheEvent::Sweep { cone, .. } => cone.as_mut().expect("a pruned sweep").runs = runs,
            other => panic!("expected sweep event, got {other:?}"),
        }
        let report = certify(&plan, &dedup, &bufs, &cache, &headroom, &log);
        assert!(report.has(DiagCode::CachePhantomHit), "{}", report.render());
        assert!(report.render().contains(why), "{}", report.render());
    }
}

#[test]
fn stale_row_after_delta_is_h1003() {
    let (_, plan, dedup, bufs, headroom, cache, mut rt) = setup(5, 2, 3, 2);
    let victim = cache.per_gpu[0].vertices[0];
    rt.invalidate(&[victim]);
    let mut log = rt.log().clone();
    // Doctor the invalidation to "forget" dropping the row on GPU 0.
    match log.events.last_mut().unwrap() {
        CacheEvent::Invalidate { removed, .. } => {
            let pos = removed[0]
                .binary_search(&victim)
                .expect("victim was resident");
            removed[0].remove(pos);
        }
        other => panic!("expected invalidate event, got {other:?}"),
    }
    let report = certify(&plan, &dedup, &bufs, &cache, &headroom, &log);
    assert!(report.has(DiagCode::CacheStaleRow), "{}", report.render());
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.code == DiagCode::CacheStaleRow),
        "{}",
        report.render()
    );
}

#[test]
fn unplanned_install_is_h1004() {
    let (_, plan, dedup, bufs, headroom, mut cache, rt) = setup(6, 2, 3, 1);
    let log = rt.log().clone();
    // The journal installed rows the (now doctored) plan never admitted:
    // retroactively shrink GPU 0's admitted set.
    let dropped = cache.per_gpu[0].vertices.pop().expect("non-empty plan");
    cache.per_gpu[0].bytes -= SLOT;
    let installed_dropped = match &log.events[0] {
        CacheEvent::Sweep { installs, .. } => installs[0].contains(&dropped),
        other => panic!("expected sweep event, got {other:?}"),
    };
    assert!(
        installed_dropped,
        "first sweep should install every admitted row"
    );
    let report = certify(&plan, &dedup, &bufs, &cache, &headroom, &log);
    assert!(
        report.has(DiagCode::CacheUnplannedInstall),
        "{}",
        report.render()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.code == DiagCode::CacheUnplannedInstall),
        "{}",
        report.render()
    );
}

#[test]
fn double_install_is_h1004() {
    let (_, plan, dedup, bufs, headroom, cache, rt) = setup(7, 2, 3, 1);
    let mut log = rt.log().clone();
    // Replay the cold sweep twice: the second installs rows already
    // resident.
    let first = log.events[0].clone();
    log.events.push(first);
    let report = certify(&plan, &dedup, &bufs, &cache, &headroom, &log);
    assert!(
        report.has(DiagCode::CacheUnplannedInstall),
        "{}",
        report.render()
    );
}
