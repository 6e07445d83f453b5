//! Pass 2 — deduplicated-communication plan (paper §5.1–5.2).
//!
//! Recomputes, from the partition alone, what every transition set, CPU
//! load set, reuse count, and fetch cell *must* be, and diffs the plan
//! against it. The checks mirror Algorithms 2 and 3: each vertex crosses
//! PCIe at most once per batch (owner-routed transition sets), reuse
//! counts match `|ℕ_ij ∩ ℕ_i,j−1|`, and the fetch matrix accounts for
//! every neighbor access.

use crate::dense::StampMap;
use crate::diag::{push, DiagCode, Diagnostic, Location};
use hongtu_graph::VertexId;
use hongtu_partition::dedup::intersect_size;
use hongtu_partition::{BatchPlan, DedupPlan, TwoLevelPartition};

/// Checks the dedup plan against the partition plan it was built for.
pub fn verify_dedup(plan: &TwoLevelPartition, dedup: &DedupPlan) -> Vec<Diagnostic> {
    verify_dedup_since(plan, dedup, None, &mut 0)
}

/// Which of one batch's checks to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Recheck {
    /// The batch's own sets (D101 on `ℕ`, D102–D104, D107, D108): they
    /// read its transition sets and fetch matrix and its chunks'
    /// neighbor lists.
    pub(crate) sets: bool,
    /// Its split against the batch before (D101 on `ℕ^cpu`, D105, D106):
    /// it reads its transition and CPU-load sets, its reuse counts and
    /// the previous batch's transition sets.
    pub(crate) split: bool,
}

/// Pass 2 running, per batch, the checks `only` flags (every check of
/// every batch when `None`), so a certificate re-runs a check only when
/// something it reads is not what it certified. The plan's shape is
/// checked whole. `visited` counts the batches read.
pub(crate) fn verify_dedup_since(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    only: Option<&[Recheck]>,
    visited: &mut usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // ---- shape (D109) ----
    if dedup.m != plan.m || dedup.n != plan.n {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::PlanShapeMismatch,
                Location::default(),
                format!(
                    "dedup plan is {}×{} but the partition is {}×{}",
                    dedup.m, dedup.n, plan.m, plan.n
                ),
            ),
        );
    }
    if dedup.batches.len() != plan.n {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::PlanShapeMismatch,
                Location::default(),
                format!("{} batch plans for {} batches", dedup.batches.len(), plan.n),
            ),
        );
        return diags; // per-batch checks below index by batch
    }

    let owner = &plan.assignment.partition_of;
    // Per-batch scratch, all keyed by vertex id: which GPU's transition
    // set holds a vertex, which vertices some chunk needs, and the
    // previous batch's transition set of the GPU under the D105 check.
    let mut routed_to: StampMap<usize> = StampMap::new(owner.len());
    let mut needed: StampMap<()> = StampMap::new(owner.len());
    let mut in_prev: StampMap<()> = StampMap::new(owner.len());
    // Per vertex, the GPUs whose transition set holds it, as a bit mask.
    let mut held_by: StampMap<u64> = StampMap::new(owner.len());
    let whole = Recheck {
        sets: true,
        split: true,
    };
    for (j, b) in dedup.batches.iter().enumerate() {
        let Recheck { sets, split } = only.map_or(whole, |only| only[j]);
        if !sets && !split {
            continue;
        }
        *visited += 1;
        let prev_transition = j.checked_sub(1).map(|p| &dedup.batches[p].transition);
        if b.transition.len() != plan.m
            || b.new_from_cpu.len() != plan.m
            || b.reused.len() != plan.m
            || b.fetch.len() != plan.m
            || b.fetch.iter().any(|row| row.len() != plan.m)
        {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::PlanShapeMismatch,
                    Location::batch(j),
                    format!(
                        "per-GPU vectors sized {}/{}/{}/{} for m = {}",
                        b.transition.len(),
                        b.new_from_cpu.len(),
                        b.reused.len(),
                        b.fetch.len(),
                        plan.m
                    ),
                ),
            );
            continue;
        }

        // ---- sortedness (D101) and ownership (D102) ----
        for i in 0..plan.m {
            for (name, set, run) in [
                ("ℕ", &b.transition[i], sets),
                ("ℕ^cpu", &b.new_from_cpu[i], split),
            ] {
                if !run {
                    continue;
                }
                if let Some(w) = set.windows(2).find(|w| w[0] >= w[1]) {
                    push(
                        &mut diags,
                        Diagnostic::new(
                            DiagCode::TransitionUnsorted,
                            Location::gpu_batch(i, j).with_vertex(w[1]),
                            format!("{name}_ij is not sorted strictly ascending near {}", w[1]),
                        ),
                    );
                }
            }
            if !sets {
                continue;
            }
            for &v in &b.transition[i] {
                match owner.get(v as usize) {
                    Some(&o) if o as usize == i => {}
                    Some(&o) => push(
                        &mut diags,
                        Diagnostic::new(
                            DiagCode::TransitionWrongOwner,
                            Location::gpu_batch(i, j).with_vertex(v),
                            format!("vertex {v} belongs to partition {o}, not {i}"),
                        ),
                    ),
                    None => push(
                        &mut diags,
                        Diagnostic::new(
                            DiagCode::TransitionWrongOwner,
                            Location::gpu_batch(i, j).with_vertex(v),
                            format!("vertex {v} is outside the graph"),
                        ),
                    ),
                }
            }
        }

        if sets {
            check_sets(
                plan,
                b,
                j,
                &mut routed_to,
                &mut needed,
                &mut held_by,
                &mut diags,
            );
        }
        if split {
            check_split(plan, b, j, prev_transition, &mut in_prev, &mut diags);
        }
    }
    diags
}

/// Batch `j`'s own sets: pairwise disjointness (D103), union coverage
/// (D104) and the fetch matrix (D107, D108).
fn check_sets(
    plan: &TwoLevelPartition,
    b: &BatchPlan,
    j: usize,
    routed_to: &mut StampMap<usize>,
    needed: &mut StampMap<()>,
    held_by: &mut StampMap<u64>,
    diags: &mut Vec<Diagnostic>,
) {
    {
        // ---- pairwise disjointness (D103) ----
        routed_to.clear();
        for (i, t) in b.transition.iter().enumerate() {
            for &v in t {
                if let Some(pi) = routed_to.get(v) {
                    push(
                        diags,
                        Diagnostic::new(
                            DiagCode::TransitionOverlap,
                            Location::gpu_batch(i, j).with_vertex(v),
                            format!("vertex {v} already in GPU {pi}'s transition set"),
                        ),
                    );
                } else {
                    routed_to.insert(v, i);
                }
            }
        }

        // ---- union coverage (D104): the lowest needed-but-unrouted
        // and routed-but-unneeded vertices, if any ----
        needed.clear();
        let mut missing: Option<VertexId> = None;
        for c in plan.batch(j) {
            for &v in &c.neighbors {
                needed.insert(v, ());
                if !routed_to.contains(v) {
                    missing = Some(missing.map_or(v, |w| w.min(v)));
                }
            }
        }
        let extra = b
            .transition
            .iter()
            .flatten()
            .copied()
            .filter(|&v| !needed.contains(v))
            .min();
        if let Some(v) = missing.or(extra) {
            let detail = match missing {
                Some(v) => format!("batch neighbor {v} is in no transition set"),
                None => format!("vertex {v} is in a transition set but no chunk needs it"),
            };
            push(
                diags,
                Diagnostic::new(
                    DiagCode::TransitionUnionMismatch,
                    Location::batch(j).with_vertex(v),
                    format!("∪_i ℕ_ij ≠ ∪_i N_ij: {detail}"),
                ),
            );
        }

        // ---- fetch matrix (D107 / D108) ----
        // Over strictly ascending sets, `|N_ij ∩ ℕ_kj|` for every `k` is
        // one walk of `N_ij` through a mask of the sets holding each
        // vertex; otherwise, set by set, a merge walk.
        let ascending = |set: &[VertexId]| set.windows(2).all(|w| w[0] < w[1]);
        let masked = plan.m <= 64 && b.transition.iter().all(|t| ascending(t));
        if masked {
            held_by.clear();
            for (k, t) in b.transition.iter().enumerate() {
                for &v in t {
                    let held = held_by.get(v).unwrap_or(0);
                    held_by.insert(v, held | 1 << k);
                }
            }
        }
        let mut counts = vec![0usize; plan.m];
        for (i, c) in plan.batch(j).enumerate() {
            if masked && ascending(&c.neighbors) {
                counts.fill(0);
                for &v in &c.neighbors {
                    let mut held = held_by.get(v).unwrap_or(0);
                    while held != 0 {
                        counts[held.trailing_zeros() as usize] += 1;
                        held &= held - 1;
                    }
                }
            } else {
                for (k, count) in counts.iter_mut().enumerate() {
                    *count = intersect_size(&c.neighbors, &b.transition[k]);
                }
            }
            let total: usize = b.fetch[i].iter().sum();
            if total != c.num_neighbors() {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::FetchRowSumMismatch,
                        Location::gpu_batch(i, j),
                        format!(
                            "Σ_k fetch[{i}][k] = {total} but |N_ij| = {}",
                            c.num_neighbors()
                        ),
                    ),
                );
            }
            for (k, &expected) in counts.iter().enumerate() {
                if b.fetch[i][k] != expected {
                    push(
                        diags,
                        Diagnostic::new(
                            DiagCode::FetchCellMismatch,
                            Location::gpu_batch(i, j),
                            format!(
                                "fetch[{i}][{k}] = {} but |N_ij ∩ ℕ_kj| = {expected}",
                                b.fetch[i][k]
                            ),
                        ),
                    );
                }
            }
        }
    }
}

/// Batch `j`'s split against the batch before: CPU loads (D105) and
/// reuse counts (D106).
fn check_split(
    plan: &TwoLevelPartition,
    b: &BatchPlan,
    j: usize,
    prev_transition: Option<&Vec<Vec<VertexId>>>,
    in_prev: &mut StampMap<()>,
    diags: &mut Vec<Diagnostic>,
) {
    // ---- CPU-load split (D105) and reuse counts (D106) ----
    for i in 0..plan.m {
        let empty: Vec<VertexId> = Vec::new();
        let prev = prev_transition.map(|p| &p[i]).unwrap_or(&empty);
        in_prev.clear();
        for &v in prev {
            in_prev.insert(v, ());
        }
        let expected_fresh: Vec<VertexId> = b.transition[i]
            .iter()
            .copied()
            .filter(|&v| !in_prev.contains(v))
            .collect();
        if b.new_from_cpu[i] != expected_fresh {
            let bad = b.new_from_cpu[i]
                .iter()
                .find(|v| expected_fresh.binary_search(v).is_err())
                .or_else(|| {
                    expected_fresh
                        .iter()
                        .find(|v| b.new_from_cpu[i].binary_search(v).is_err())
                });
            push(
                diags,
                Diagnostic::new(
                    DiagCode::CpuLoadMismatch,
                    Location::gpu_batch(i, j).with_vertex(bad.copied().unwrap_or(0)),
                    format!(
                        "ℕ^cpu_ij has {} vertices, expected ℕ_ij \\ ℕ_i,j−1 with {}",
                        b.new_from_cpu[i].len(),
                        expected_fresh.len()
                    ),
                ),
            );
        }
        let expected_reused = intersect_size(&b.transition[i], prev);
        if b.reused[i] != expected_reused {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::ReuseCountWrong,
                    Location::gpu_batch(i, j),
                    format!(
                        "reused[{i}] = {} but |ℕ_ij ∩ ℕ_i,j−1| = {expected_reused}",
                        b.reused[i]
                    ),
                ),
            );
        }
    }
}
