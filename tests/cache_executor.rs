//! Certification of the hot-vertex GPU cache: enabling a cache policy
//! must change *pricing only* — losses and logits stay bitwise identical
//! to the cache-off run across the full
//! {model × gpus × overlap × comm} matrix while the simulated H2D
//! volume strictly drops on repeated-epoch workloads — and every
//! cache-on journal must certify clean under pass 11 (`H10xx`). The
//! delta path must invalidate cached copies of patched rows before the
//! repair sweep, and Paranoid validation must keep certifying the
//! schedules with the cache's trace accesses present.
//!
//! The bitwise contract holds by construction — the cache intercepts
//! simulated transfer charges, never the host-side numerics — so these
//! tests pin exactly the property pass 11 cannot see from the journal
//! alone.

use hongtu::core::{
    CacheOff, CachePolicy, CommMode, DegreeRanked, FrequencyRanked, HongTuConfig, Mode,
    OverlapMode, Session, ValidationLevel,
};
use hongtu::datasets::dataset::{Dataset, DatasetKey};
use hongtu::datasets::load;
use hongtu::delta::{Delta, DynamicGraph};
use hongtu::nn::ModelKind;
use hongtu::sim::{EventKind, MachineConfig};
use hongtu::tensor::{Matrix, SeededRng};
use std::sync::Arc;

fn test_seed() -> u64 {
    std::env::var("HONGTU_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(99)
}

fn dataset() -> Dataset {
    load(DatasetKey::Rdt, &mut SeededRng::new(test_seed()))
}

fn config(
    gpus: usize,
    comm: CommMode,
    overlap: OverlapMode,
    mode: Mode,
    cache: Arc<dyn CachePolicy>,
) -> HongTuConfig {
    HongTuConfig::builder()
        .machine(MachineConfig::scaled(gpus, 512 << 20))
        .comm(comm)
        .reorganize(comm != CommMode::Vanilla)
        .overlap(overlap)
        .mode(mode)
        .cache(cache)
        .build()
        .expect("valid config")
}

/// Two traced training epochs; returns the per-epoch losses (exact f32
/// bits), the final logits, and the session for cache inspection.
fn train_two(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> (Vec<f32>, Matrix, Session) {
    let mut session = Session::new(ds, kind, 16, 2, 4, cfg).expect("session");
    session.machine_mut().enable_unbounded_trace();
    let mut losses = Vec::new();
    {
        let mut trainer = session.trainer();
        for _ in 0..2 {
            losses.push(trainer.epoch().expect("train epoch").loss.loss);
        }
    }
    let logits = session.logits().clone();
    (losses, logits, session)
}

/// Non-zero H2D transfers in the session's trace.
fn h2d_transfers(session: &Session) -> usize {
    session
        .machine()
        .trace()
        .events()
        .filter(|e| matches!(e.kind, EventKind::H2D) && e.bytes > 0)
        .count()
}

/// The central contract across the full matrix: cache-on training
/// reproduces cache-off training bit for bit while moving strictly
/// fewer H2D bytes over strictly fewer non-zero H2D transfers, and every
/// cache journal certifies clean under pass 11.
#[test]
fn cache_on_matches_cache_off_bitwise_across_matrix() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for gpus in [1usize, 2, 4] {
                for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
                    let tag = format!("{} / {comm:?} / {gpus} GPUs / {overlap:?}", kind.name());
                    let (off_losses, off_logits, off_session) = train_two(
                        &ds,
                        kind,
                        config(gpus, comm, overlap, Mode::Train, Arc::new(CacheOff)),
                    );
                    let (on_losses, on_logits, on_session) = train_two(
                        &ds,
                        kind,
                        config(gpus, comm, overlap, Mode::Train, Arc::new(FrequencyRanked)),
                    );
                    assert_eq!(on_losses, off_losses, "{tag}: losses diverged");
                    assert_eq!(on_logits, off_logits, "{tag}: logits diverged");
                    assert!(off_session.cache().is_none(), "{tag}: Off built a cache");
                    let rt = on_session.cache().expect("cache runtime installed");
                    assert!(
                        rt.total_hits() > 0,
                        "{tag}: warm second epoch never hit the cache"
                    );
                    let h2d_off = off_session.machine().buckets().bytes_h2d;
                    let h2d_on = on_session.machine().buckets().bytes_h2d;
                    assert!(
                        h2d_on < h2d_off,
                        "{tag}: cache-on H2D {h2d_on} not strictly below {h2d_off}"
                    );
                    let (xfers_off, xfers_on) =
                        (h2d_transfers(&off_session), h2d_transfers(&on_session));
                    assert!(
                        xfers_on < xfers_off,
                        "{tag}: cache-on H2D transfers {xfers_on} not strictly below {xfers_off}"
                    );
                    let report = on_session.certify_cache();
                    assert!(
                        report.is_ok(),
                        "{tag}: pass 11 rejected:\n{}",
                        report.render()
                    );
                }
            }
        }
    }
}

/// The degree-ranked fallback policy obeys the same contract (one
/// configuration suffices: the policy only changes the ranking).
#[test]
fn degree_policy_matches_bitwise_and_certifies() {
    let ds = dataset();
    let (off_losses, off_logits, _) = train_two(
        &ds,
        ModelKind::Gcn,
        config(
            4,
            CommMode::P2pRu,
            OverlapMode::Off,
            Mode::Train,
            Arc::new(CacheOff),
        ),
    );
    let (on_losses, on_logits, session) = train_two(
        &ds,
        ModelKind::Gcn,
        config(
            4,
            CommMode::P2pRu,
            OverlapMode::Off,
            Mode::Train,
            Arc::new(DegreeRanked),
        ),
    );
    assert_eq!(on_losses, off_losses);
    assert_eq!(on_logits, off_logits);
    let rt = session.cache().expect("cache runtime installed");
    assert!(rt.total_hits() > 0, "degree policy never hit");
    let report = session.certify_cache();
    assert!(report.is_ok(), "{}", report.render());
}

/// A feature delta must drop the cached copies of the patched rows
/// before the repair sweep: the journal records the invalidation, the
/// post-delta logits match the cache-off session's, and pass 11 (whose
/// H1003 exists for exactly this staleness) still certifies.
#[test]
fn delta_commit_invalidates_dirty_cached_rows() {
    let ds = dataset();
    let mk = |cache: Arc<dyn CachePolicy>| {
        Session::new(
            &ds,
            ModelKind::Gcn,
            16,
            2,
            4,
            config(4, CommMode::P2pRu, OverlapMode::Off, Mode::Infer, cache),
        )
        .expect("session")
    };
    let mut cached = mk(Arc::new(FrequencyRanked));
    let mut plain = mk(Arc::new(CacheOff));
    // Warm the cache with two full sweeps.
    for _ in 0..2 {
        cached.infer_epoch().expect("warm sweep");
        plain.infer_epoch().expect("plain sweep");
    }
    // Patch the features of a row that is resident right now.
    let victim = {
        let rt = cached.cache().expect("runtime");
        assert!(rt.resident_rows(0) > 0, "nothing resident after warmup");
        rt.plan().per_gpu[0].vertices[0]
    };
    let cols = ds.features.cols();
    let deltas = vec![Delta::UpdateFeatures {
        vertex: victim,
        features: vec![0.25; cols],
    }];
    let mut dg_cached = DynamicGraph::from_dataset(&ds);
    let mut dg_plain = DynamicGraph::from_dataset(&ds);
    let staged = dg_cached.stage(&deltas).expect("stage");
    cached
        .apply_staged(&mut dg_cached, staged)
        .expect("apply deltas");
    let staged = dg_plain.stage(&deltas).expect("stage");
    plain
        .apply_staged(&mut dg_plain, staged)
        .expect("apply deltas");
    assert_eq!(
        cached.logits(),
        plain.logits(),
        "post-delta logits diverged"
    );
    let rt = cached.cache().expect("runtime survives a feature delta");
    let invalidated = rt.log().events.iter().any(|e| match e {
        hongtu::cache::CacheEvent::Invalidate { removed, .. } => {
            removed.iter().any(|per_gpu| per_gpu.contains(&victim))
        }
        _ => false,
    });
    assert!(
        invalidated,
        "no journaled invalidation dropped the victim row"
    );
    let report = cached.certify_cache();
    assert!(report.is_ok(), "{}", report.render());
    // The repair sweep reinstalls the (fresh) row; later sweeps may hit
    // it again — certified stale-free by the pass above.
    cached.infer_epoch().expect("post-delta sweep");
    let report = cached.certify_cache();
    assert!(report.is_ok(), "{}", report.render());
}

/// A clustered serving stream (repeated vertex-subset queries over one
/// chunk's destinations) hits the cache: the pruned sweeps keep
/// re-loading the same boundary rows, which is the workload the cache
/// exists for.
#[test]
fn clustered_serving_stream_hits_cache() {
    let ds = dataset();
    let mut session = Session::new(
        &ds,
        ModelKind::Gcn,
        16,
        2,
        4,
        config(
            4,
            CommMode::P2pRu,
            OverlapMode::Off,
            Mode::Infer,
            Arc::new(FrequencyRanked),
        ),
    )
    .expect("session");
    let pool: Vec<usize> = session
        .plans()
        .partition
        .all_chunks()
        .filter(|c| c.chunk == 0)
        .flat_map(|c| c.dests.iter().map(|&v| v as usize))
        .collect();
    let mut rng = SeededRng::new(7);
    for _ in 0..5 {
        let queries: Vec<usize> = rng
            .sample_indices(pool.len(), 8.min(pool.len()))
            .into_iter()
            .map(|k| pool[k])
            .collect();
        session.serve(&queries).expect("serve");
    }
    let rt = session.cache().expect("runtime");
    assert!(
        rt.total_hits() > 0,
        "clustered query stream never hit the cache"
    );
    let report = session.certify_cache();
    assert!(report.is_ok(), "{}", report.render());
}

/// Paranoid validation keeps certifying with the cache's install/hit
/// accesses in the trace — construction-time schedule synthesis and the
/// per-epoch re-checks both see `DevCache` resources now.
#[test]
fn paranoid_certifies_cache_on_epochs() {
    let ds = dataset();
    for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
        let cfg = HongTuConfig::builder()
            .machine(MachineConfig::scaled(4, 512 << 20))
            .comm(comm)
            .reorganize(comm != CommMode::Vanilla)
            .overlap(OverlapMode::DoubleBuffer)
            .validation(ValidationLevel::Paranoid)
            .cache(Arc::new(FrequencyRanked))
            .build()
            .expect("valid config");
        let mut session = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
        let mut trainer = session.trainer();
        for epoch in 0..2 {
            trainer
                .epoch()
                .unwrap_or_else(|e| panic!("{comm:?} epoch {epoch}: {e}"));
        }
    }
}

/// The `Plans` facade exposes every synthesized plan coherently: the
/// cache plan appears iff a policy is enabled.
#[test]
fn plans_facade_is_coherent() {
    let ds = dataset();
    let session = Session::new(
        &ds,
        ModelKind::Gcn,
        16,
        2,
        4,
        config(
            2,
            CommMode::P2pRu,
            OverlapMode::DoubleBuffer,
            Mode::Train,
            Arc::new(FrequencyRanked),
        ),
    )
    .expect("session");
    let plans = session.plans();
    assert_eq!(plans.partition.m, 2);
    assert_eq!(plans.dedup.n, plans.partition.n);
    assert!(plans.buffers.is_some(), "P2pRu builds buffer plans");
    let staging = plans.staging.expect("double buffering pins staging");
    assert_eq!(staging.len(), 2);
    let cache = plans.cache.expect("enabled policy admits a plan");
    assert!(cache.total_rows() > 0);
    assert_eq!(cache.per_gpu.len(), 2);
}
