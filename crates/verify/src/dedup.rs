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
use hongtu_partition::{DedupPlan, TwoLevelPartition};

/// Checks the dedup plan against the partition plan it was built for.
pub fn verify_dedup(plan: &TwoLevelPartition, dedup: &DedupPlan) -> Vec<Diagnostic> {
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
    let mut prev_transition: Option<&Vec<Vec<VertexId>>> = None;
    for (j, b) in dedup.batches.iter().enumerate() {
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
            prev_transition = Some(&b.transition);
            continue;
        }

        // ---- sortedness (D101) and ownership (D102) ----
        for i in 0..plan.m {
            for (name, set) in [("ℕ", &b.transition[i]), ("ℕ^cpu", &b.new_from_cpu[i])] {
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

        // ---- pairwise disjointness (D103) ----
        routed_to.clear();
        for (i, t) in b.transition.iter().enumerate() {
            for &v in t {
                if let Some(pi) = routed_to.get(v) {
                    push(
                        &mut diags,
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
                &mut diags,
                Diagnostic::new(
                    DiagCode::TransitionUnionMismatch,
                    Location::batch(j).with_vertex(v),
                    format!("∪_i ℕ_ij ≠ ∪_i N_ij: {detail}"),
                ),
            );
        }

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
                    &mut diags,
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
                    &mut diags,
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

        // ---- fetch matrix (D107 / D108) ----
        for (i, c) in plan.batch(j).enumerate() {
            let total: usize = b.fetch[i].iter().sum();
            if total != c.num_neighbors() {
                push(
                    &mut diags,
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
            for k in 0..plan.m {
                let expected = intersect_size(&c.neighbors, &b.transition[k]);
                if b.fetch[i][k] != expected {
                    push(
                        &mut diags,
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
        prev_transition = Some(&b.transition);
    }
    diags
}
