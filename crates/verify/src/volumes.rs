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
///
/// The owner split tiles each batch union `U_j = ∪_i N_ij` (every vertex
/// has exactly one owner), so `Σ_i |T_ij \ T_i,j−1| = |U_j \ U_j−1|`:
/// one walk over the neighbor lists, remembering the last batch that
/// needed each vertex, yields `V_+p2p` and `V_+ru` together.
pub fn expected_volumes(plan: &TwoLevelPartition) -> ExpectedVolumes {
    let v_ori = plan.v_ori();
    let mut v_p2p = 0usize;
    let mut v_ru = 0usize;
    let mut last_needed: StampMap<usize> = StampMap::new(plan.assignment.partition_of.len());
    for j in 0..plan.n {
        for c in plan.batch(j) {
            for &v in &c.neighbors {
                match last_needed.insert(v, j) {
                    Some(last) if last == j => {} // already counted this batch
                    Some(last) if last + 1 == j => v_p2p += 1,
                    _ => {
                        v_p2p += 1;
                        v_ru += 1;
                    }
                }
            }
        }
    }
    ExpectedVolumes { v_ori, v_p2p, v_ru }
}

/// Cross-checks the dedup plan's reported volumes against recomputation.
pub fn verify_volumes(plan: &TwoLevelPartition, dedup: &DedupPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let want = expected_volumes(plan);
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
