//! Pass 11: hot-vertex cache coherence certification (`H10xx`).
//!
//! The engine journals every cache state transition — sweeps (frozen hit
//! tables plus end-of-sweep installs) and delta invalidations — in a
//! [`CacheLog`]. This pass replays that journal against load sets
//! `S[i][j]` recomputed *independently* from the partition/dedup/buffer
//! plans — for a cone-pruned sweep, from the plans packed to the cone the
//! sweep journaled the origin and runs of, re-grown, re-packed and
//! re-derived here with the planners' own builders — reconstructing the
//! resident set event by
//! event, and holds the engine to four invariants:
//!
//! * **Headroom** (`H1001`): the admitted plan, and every replayed
//!   resident set, fits each GPU's post-staging HBM headroom.
//! * **No phantom hits** (`H1002`): a sweep may only charge hits the
//!   pre-sweep resident set can actually serve — `hits[i][j] =
//!   |S[i][j] ∩ resident|`, over the sweep's own load sets (empty for a
//!   batch its cone prunes). A hit recorded before the row was installed
//!   (or on a batch the cone pruned) would mean the executor skipped an
//!   H2D transfer for a row that is not on the GPU.
//! * **No stale rows** (`H1003`): a delta commit must remove *exactly*
//!   the resident rows inside the dirty set. A dirty row left resident
//!   would serve pre-patch features to every later sweep.
//! * **Planned installs only** (`H1004`): a sweep may install only rows
//!   the plan admits, that the sweep's load sets actually loaded, and
//!   that were not already resident.
//!
//! The replay *follows the journal* (it applies the engine's recorded
//! installs/removals, not the corrected ones), so one corrupt event is
//! diagnosed once rather than cascading into spurious downstream
//! mismatches.

use std::collections::HashSet;

use crate::diag::{push, DiagCode, Diagnostic, Location, Report};
use hongtu_cache::{load_sets, CacheEvent, CacheLog, CachePlan, LoadPattern, LoadSets};
use hongtu_graph::VertexId;
use hongtu_partition::cone::{check_runs, check_seeds, ConeDir, ConeOrigin, VertexIndex};
use hongtu_partition::{DedupPlan, GpuBufferPlan, TwoLevelPartition};

/// Certifies a cache journal against independently recomputed load sets.
/// `headroom[i]` is GPU `i`'s post-staging byte budget the plan was built
/// against; `bufs` is required when `pattern` is [`LoadPattern::P2pRu`].
pub fn verify_cache(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufs: Option<&[GpuBufferPlan]>,
    pattern: LoadPattern,
    cache: &CachePlan,
    headroom: &[usize],
    log: &CacheLog,
) -> Report {
    let mut diags = Vec::new();
    let sets = load_sets(plan, dedup, bufs, pattern);
    let m = plan.m;
    let n = plan.n;
    let num_vertices = plan.assignment.partition_of.len();

    // -- static plan checks (H1001) ------------------------------------
    if cache.per_gpu.len() != m {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::CacheOverflow,
                Location::default(),
                format!(
                    "cache plan covers {} GPUs, partition plan has {m}",
                    cache.per_gpu.len()
                ),
            ),
        );
    }
    for (i, g) in cache.per_gpu.iter().enumerate() {
        let budget = headroom.get(i).copied().unwrap_or(0);
        if g.bytes > budget {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::CacheOverflow,
                    Location::gpu(i),
                    format!(
                        "admitted cache spends {} bytes, headroom is {budget}",
                        g.bytes
                    ),
                ),
            );
        }
        if g.bytes != g.vertices.len() * cache.slot_bytes {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::CacheOverflow,
                    Location::gpu(i),
                    format!(
                        "cache byte accounting broken: {} rows × {} slot bytes ≠ {}",
                        g.vertices.len(),
                        cache.slot_bytes,
                        g.bytes
                    ),
                ),
            );
        }
    }

    // -- journal replay (H1002/H1003/H1004, dynamic H1001) -------------
    let mut resident: Vec<Vec<bool>> = vec![vec![false; num_vertices]; m];
    let index = VertexIndex::new(plan);
    for event in &log.events {
        match event {
            CacheEvent::Sweep {
                cone,
                hits,
                installs,
            } => {
                let packed = match cone {
                    None => None,
                    Some(origin) => match packed_load_sets(plan, &index, origin, pattern) {
                        Ok(sets) => Some(sets),
                        Err(why) => {
                            push(
                                &mut diags,
                                Diagnostic::new(
                                    DiagCode::CachePhantomHit,
                                    Location::default(),
                                    format!("malformed sweep event: {why}"),
                                ),
                            );
                            continue;
                        }
                    },
                };
                replay_sweep(
                    &mut diags,
                    packed.as_ref().unwrap_or(&sets),
                    cache,
                    headroom,
                    &mut resident,
                    hits,
                    installs,
                    n,
                );
            }
            CacheEvent::Invalidate { dirty, removed } => {
                replay_invalidate(&mut diags, &mut resident, dirty, removed);
            }
        }
    }

    let mut report = Report::default();
    report.extend_pass(diags);
    report
}

/// The load sets of a sweep pruned to the cone grown from `origin`: the
/// cone re-grown over `plan`, its layer-0 rows packed into the journaled
/// runs, that grid's communication plans re-derived, and [`load_sets`]
/// over those — the engine's derivation, redone here. `Err` when the
/// origin names no cone of this plan.
fn packed_load_sets(
    plan: &TwoLevelPartition,
    index: &VertexIndex,
    origin: &ConeOrigin,
    pattern: LoadPattern,
) -> Result<LoadSets, String> {
    if origin.layers == 0 {
        return Err("journaled cone spans no layer".to_string());
    }
    check_seeds("journaled cone", index.len(), &origin.seeds)?;
    check_runs(&origin.runs, plan.n)?;
    // Layer 0 of a delta cone is its seeds, however many layers it spans.
    let layers = match origin.dir {
        ConeDir::Upward => 1,
        ConeDir::Downward => origin.layers,
    };
    let rows = ConeOrigin {
        layers,
        ..origin.clone()
    }
    .regrow(plan, index);
    let packed = plan.packed(&rows[0], &origin.runs);
    let dedup = DedupPlan::build(&packed);
    let bufs = (pattern == LoadPattern::P2pRu).then(|| GpuBufferPlan::build_all(&packed, &dedup));
    Ok(load_sets(&packed, &dedup, bufs.as_deref(), pattern))
}

#[allow(clippy::too_many_arguments)]
fn replay_sweep(
    diags: &mut Vec<Diagnostic>,
    sets: &LoadSets,
    cache: &CachePlan,
    headroom: &[usize],
    resident: &mut [Vec<bool>],
    hits: &[Vec<usize>],
    installs: &[Vec<VertexId>],
    n: usize,
) {
    let m = sets.len();
    if hits.len() != m || installs.len() != m {
        push(
            diags,
            Diagnostic::new(
                DiagCode::CachePhantomHit,
                Location::default(),
                format!(
                    "malformed sweep event: {} hit rows / {} install rows for an {m}×{n} plan",
                    hits.len(),
                    installs.len()
                ),
            ),
        );
        return;
    }
    // Hits must match the pre-sweep resident set exactly.
    for (i, batches) in sets.iter().enumerate() {
        for (j, s) in batches.iter().enumerate() {
            let expected = s.iter().filter(|&&v| resident[i][v as usize]).count();
            let got = hits[i].get(j).copied().unwrap_or(0);
            if got != expected {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::CachePhantomHit,
                        Location::gpu_batch(i, j),
                        format!(
                            "sweep charged {got} cache hit(s), resident set serves {expected} \
                             of the {} row(s) the batch loads",
                            s.len()
                        ),
                    ),
                );
            }
        }
    }
    // Installs must be planned, loaded by this sweep, and new.
    for (i, new_rows) in installs.iter().enumerate() {
        let loaded: HashSet<VertexId> = sets[i].iter().flatten().copied().collect();
        let planned = &cache.per_gpu.get(i).map(|g| &g.vertices);
        for &v in new_rows {
            let admitted = planned.is_some_and(|p| p.binary_search(&v).is_ok());
            let reason = if !admitted {
                Some("the plan never admitted it")
            } else if !loaded.contains(&v) {
                Some("no batch of this sweep loaded it")
            } else if resident[i][v as usize] {
                Some("it was already resident")
            } else {
                None
            };
            if let Some(why) = reason {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::CacheUnplannedInstall,
                        Location::gpu(i).with_vertex(v),
                        format!("sweep installed row {v} but {why}"),
                    ),
                );
            }
            // Follow the journal regardless.
            resident[i][v as usize] = true;
        }
        // Dynamic headroom re-check after the installs land.
        let rows = resident[i].iter().filter(|&&r| r).count();
        let bytes = rows * cache.slot_bytes;
        let budget = headroom.get(i).copied().unwrap_or(0);
        if bytes > budget {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::CacheOverflow,
                    Location::gpu(i),
                    format!("resident set grew to {bytes} bytes, headroom is {budget}"),
                ),
            );
        }
    }
}

fn replay_invalidate(
    diags: &mut Vec<Diagnostic>,
    resident: &mut [Vec<bool>],
    dirty: &[VertexId],
    removed: &[Vec<VertexId>],
) {
    let dirty_set: HashSet<VertexId> = dirty.iter().copied().collect();
    for (i, res) in resident.iter_mut().enumerate() {
        let journaled: HashSet<VertexId> = removed.get(i).into_iter().flatten().copied().collect();
        // Every resident dirty row must have been removed.
        for &v in &dirty_set {
            let is_resident = res.get(v as usize).copied().unwrap_or(false);
            if is_resident && !journaled.contains(&v) {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::CacheStaleRow,
                        Location::gpu(i).with_vertex(v),
                        format!(
                            "delta commit patched row {v} but left its cached copy \
                             resident — later sweeps would serve stale features"
                        ),
                    ),
                );
            }
        }
        // Every journaled removal must have been a resident dirty row.
        for &v in &journaled {
            let is_resident = res.get(v as usize).copied().unwrap_or(false);
            if !dirty_set.contains(&v) || !is_resident {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::CacheStaleRow,
                        Location::gpu(i).with_vertex(v),
                        format!(
                            "invalidation removed row {v} which was {}",
                            if is_resident {
                                "not in the dirty set"
                            } else {
                                "never resident"
                            }
                        ),
                    ),
                );
            }
            // Follow the journal.
            if let Some(slot) = res.get_mut(v as usize) {
                *slot = false;
            }
        }
    }
}
