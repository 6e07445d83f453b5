//! Pass 4 — communication volumes (paper §5.3, Table 8).
//!
//! `V_ori`, `V_+p2p`, and `V_+ru` drive both the Equation-4 cost model
//! (which decides whether a reorganized plan is kept) and the evaluation
//! tables. The dedup plan *reports* them from its own internal state
//! (fetch matrix, transition lengths, CPU-load lengths); this pass
//! recomputes all three from nothing but the partition's chunks and the
//! level-1 assignment, so a bookkeeping slip in any of the three internal
//! representations is caught by cross-checking.

use crate::dense::StampMap;
use crate::diag::{push, DiagCode, Diagnostic, Location};
use hongtu_partition::{DedupPlan, TwoLevelPartition};

/// Independently recomputed volumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedVolumes {
    /// `Σ_ij |N_ij|`.
    pub v_ori: usize,
    /// `Σ_j |∪_i N_ij|`.
    pub v_p2p: usize,
    /// `Σ_ij |T_ij \ T_i,j−1|` for the owner-split batch unions `T_ij`.
    pub v_ru: usize,
}

/// Recomputes the three §5.3 volumes from the partition plan alone.
pub fn expected_volumes(plan: &TwoLevelPartition) -> ExpectedVolumes {
    volumes_of(plan, &batch_terms(plan))
}

/// The volumes whose per-batch terms are `terms`.
pub(crate) fn volumes_of(plan: &TwoLevelPartition, terms: &[(usize, usize)]) -> ExpectedVolumes {
    ExpectedVolumes {
        v_ori: plan.v_ori(),
        v_p2p: terms.iter().map(|t| t.0).sum(),
        v_ru: terms.iter().map(|t| t.1).sum(),
    }
}

/// Per batch `j`, its terms of `V_+p2p` and `V_+ru`: `(|U_j|, |U_j \
/// U_j−1|)` for the batch unions `U_j = ∪_i N_ij`.
///
/// The owner split tiles each batch union (every vertex has exactly one
/// owner), so `Σ_i |T_ij \ T_i,j−1| = |U_j \ U_j−1|`: one walk over the
/// neighbor lists, remembering the last batch that needed each vertex,
/// yields both terms of every batch.
pub(crate) fn batch_terms(plan: &TwoLevelPartition) -> Vec<(usize, usize)> {
    let mut last_needed: StampMap<usize> = StampMap::new(plan.assignment.partition_of.len());
    (0..plan.n)
        .map(|j| count_batch(plan, j, &mut last_needed))
        .collect()
}

/// `terms` (of an earlier state of `plan`) with the terms of the batches
/// `moved` flags recomputed: a batch's terms read its own and the
/// previous batch's neighbor lists.
pub(crate) fn batch_terms_since(
    plan: &TwoLevelPartition,
    terms: &[(usize, usize)],
    moved: &[bool],
) -> Vec<(usize, usize)> {
    let mut last_needed: StampMap<usize> = StampMap::new(plan.assignment.partition_of.len());
    let mut terms = terms.to_vec();
    for j in 0..plan.n {
        if !moved[j] {
            continue;
        }
        // The first of a run of moved batches starts from the batch
        // before it; the rest continue the walk.
        if j == 0 || !moved[j - 1] {
            last_needed.clear();
            if j > 0 {
                count_batch(plan, j - 1, &mut last_needed);
            }
        }
        terms[j] = count_batch(plan, j, &mut last_needed);
    }
    terms
}

/// Batch `j`'s terms, given each vertex's last needing batch before it.
fn count_batch(
    plan: &TwoLevelPartition,
    j: usize,
    last_needed: &mut StampMap<usize>,
) -> (usize, usize) {
    let (mut p2p, mut ru) = (0usize, 0usize);
    for c in plan.batch(j) {
        for &v in &c.neighbors {
            match last_needed.insert(v, j) {
                Some(last) if last == j => {} // already counted this batch
                Some(last) if last + 1 == j => p2p += 1,
                _ => {
                    p2p += 1;
                    ru += 1;
                }
            }
        }
    }
    (p2p, ru)
}

/// Cross-checks the dedup plan's reported volumes against recomputation.
pub fn verify_volumes(plan: &TwoLevelPartition, dedup: &DedupPlan) -> Vec<Diagnostic> {
    check_volumes(dedup, expected_volumes(plan))
}

/// Cross-checks the dedup plan's reported volumes against `want`.
pub(crate) fn check_volumes(dedup: &DedupPlan, want: ExpectedVolumes) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let checks = [
        (DiagCode::VOriMismatch, "V_ori", dedup.v_ori(), want.v_ori),
        (DiagCode::VP2pMismatch, "V_+p2p", dedup.v_p2p(), want.v_p2p),
        (DiagCode::VRuMismatch, "V_+ru", dedup.v_ru(), want.v_ru),
    ];
    for (code, name, got, expected) in checks {
        if got != expected {
            push(
                &mut diags,
                Diagnostic::new(
                    code,
                    Location::default(),
                    format!("{name} reported as {got}, recomputed as {expected}"),
                ),
            );
        }
    }
    diags
}
