//! Pass 10: cone-mask closure certification (`C9xx`).
//!
//! Both pruned sweeps the engine runs — the serving query sweep and the
//! incremental delta-recompute sweep — are driven by a `(layer, batch)`
//! activity grid whose *closure direction* carries the correctness
//! induction:
//!
//! * a **downward-closed** query cone (`active[l] ⊇ active[l+1]`)
//!   guarantees every row an active chunk reads at layer `l+1` was
//!   recomputed at layer `l`;
//! * an **upward-closed** delta cone (`active[l] ⊆ active[l+1]`)
//!   guarantees every row a replayed chunk reads at layer `l` is either
//!   untouched in `h^l` or was recomputed at layer `l−1`.
//!
//! A mask violating its direction silently serves stale rows or skips
//! invalidated ones — no executor step would crash. This pass holds the
//! raw grid to its declared direction ([`ConeDir`]) and to basic shape
//! sanity before the engine installs it.
//!
//! Cones are row-granular: inside an active step only a slice of each
//! chunk's destination rows is computed, so the grid's closure is
//! necessary and no longer sufficient. [`verify_cone_rows`] re-reads the
//! induction off the rows themselves, against the chunks' own in-edge
//! lists: downward, every neighbor a kept row reads at layer `l+1` is a
//! row some slice computed at layer `l`; upward, no row left out at layer
//! `l+1` reads a row layer `l` rewrote — what a replayed row reads is
//! recomputed below or untouched.

use crate::diag::{push, DiagCode, Diagnostic, Location, Report};
pub use hongtu_partition::cone::ConeDir;
use hongtu_partition::{SliceRows, TwoLevelPartition};

/// Certifies a cone mask grid (`active[l][j]`) against its declared
/// closure direction: the grid must be rectangular and non-empty with at
/// least one active step (`C902`), and every layer must be a
/// subset/superset of the next per `dir` (`C901`).
pub fn verify_cone(active: &[Vec<bool>], dir: ConeDir) -> Report {
    let mut diags = Vec::new();
    let batches = active.first().map_or(0, Vec::len);
    if active.is_empty() || batches == 0 {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::ConeShapeInvalid,
                Location::default(),
                format!(
                    "cone grid is empty ({} layers × {batches} batches)",
                    active.len()
                ),
            ),
        );
    }
    for (l, row) in active.iter().enumerate() {
        if row.len() != batches {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::ConeShapeInvalid,
                    Location::batch(l),
                    format!(
                        "ragged cone grid: layer {l} has {} batches, layer 0 has {batches}",
                        row.len()
                    ),
                ),
            );
        }
    }
    if active.iter().all(|row| row.iter().all(|&a| !a)) && !active.is_empty() && batches > 0 {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::ConeShapeInvalid,
                Location::default(),
                "cone grid has no active step: nothing to sweep".to_string(),
            ),
        );
    }
    for l in 0..active.len().saturating_sub(1) {
        for (j, (&lo, &hi)) in active[l].iter().zip(&active[l + 1]).enumerate() {
            let violated = match dir {
                // Downward: active above ⇒ active below.
                ConeDir::Downward => hi && !lo,
                // Upward: active below ⇒ active above.
                ConeDir::Upward => lo && !hi,
            };
            if violated {
                let (have, miss) = match dir {
                    ConeDir::Downward => (l + 1, l),
                    ConeDir::Upward => (l, l + 1),
                };
                push(
                    &mut diags,
                    Diagnostic::new(
                        DiagCode::ConeNotClosed,
                        Location::batch(j),
                        format!(
                            "{dir:?}-closed cone broken: batch {j} active at layer {have} \
                             but not at layer {miss}"
                        ),
                    ),
                );
            }
        }
    }
    let mut report = Report::default();
    report.extend_pass(diags);
    report
}

/// Certifies a cone's row lists (`rows[l][i][j]`: ascending local
/// destination rows chunk `(i, j)` computes at layer `l`) against the
/// plan they slice: every list in range and strictly ascending on the
/// plan's grid (`C902`), and the closure induction of `dir` row for row
/// (`C901`, one diagnostic per offending chunk and layer) — module docs
/// state both directions.
pub fn verify_cone_rows(plan: &TwoLevelPartition, rows: &[SliceRows], dir: ConeDir) -> Report {
    let mut diags = Vec::new();
    let num_v = plan.assignment.partition_of.len();
    // computed[l][v]: some slice computes vertex v's row at layer l.
    let mut computed = vec![vec![false; num_v]; rows.len()];
    let mut shapely = true;
    for (l, layer) in rows.iter().enumerate() {
        if layer.len() != plan.m || layer.iter().any(|gpu| gpu.len() != plan.n) {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::ConeShapeInvalid,
                    Location::default(),
                    format!(
                        "layer {l}: cone rows are not laid out on the plan's {} × {} grid",
                        plan.m, plan.n
                    ),
                ),
            );
            shapely = false;
            continue;
        }
        for c in plan.all_chunks() {
            let kept = &layer[c.part][c.chunk];
            let ascending = kept.windows(2).all(|w| w[0] < w[1]);
            if !ascending || kept.last().is_some_and(|&k| k as usize >= c.num_dests()) {
                push(
                    &mut diags,
                    Diagnostic::new(
                        DiagCode::ConeShapeInvalid,
                        Location::gpu_batch(c.part, c.chunk),
                        format!(
                            "layer {l}: cone rows must ascend strictly below the chunk's {} \
                             destinations, got {kept:?}",
                            c.num_dests()
                        ),
                    ),
                );
                shapely = false;
                continue;
            }
            for &k in kept {
                computed[l][c.dests[k as usize] as usize] = true;
            }
        }
    }
    for l in 0..rows.len().saturating_sub(1) {
        if !shapely {
            break;
        }
        let (below, above) = (&computed[l], &computed[l + 1]);
        for c in plan.all_chunks() {
            // The first neighbor row `k` reads whose membership in the
            // layer-`l` set is `member`.
            let reads = |k: usize, member: bool| {
                c.nbr_index[c.in_edges_of(k)]
                    .iter()
                    .map(|&t| c.neighbors[t as usize])
                    .find(|&u| below[u as usize] == member)
            };
            let broken = match dir {
                // A kept row at l+1 reads a row nothing computed at l.
                ConeDir::Downward => rows[l + 1][c.part][c.chunk].iter().find_map(|&k| {
                    reads(k as usize, false).map(|u| {
                        format!(
                            "row of vertex {} computed at layer {} reads vertex {u}, which no \
                             slice computes at layer {l}",
                            c.dests[k as usize],
                            l + 1
                        )
                    })
                }),
                // A row rewritten at l is dropped at l+1, or a row left
                // out at l+1 reads one rewritten at l.
                ConeDir::Upward => c.dests.iter().enumerate().find_map(|(k, &d)| {
                    if above[d as usize] {
                        return None;
                    }
                    if below[d as usize] {
                        return Some(format!(
                            "vertex {d} is recomputed at layer {l} but not at layer {}",
                            l + 1
                        ));
                    }
                    reads(k, true).map(|u| {
                        format!(
                            "vertex {d} is left out at layer {} but reads vertex {u}, which \
                             layer {l} rewrites",
                            l + 1
                        )
                    })
                }),
            };
            if let Some(what) = broken {
                push(
                    &mut diags,
                    Diagnostic::new(
                        DiagCode::ConeNotClosed,
                        Location::gpu_batch(c.part, c.chunk),
                        format!("{dir:?}-closed cone broken row-wise: {what}"),
                    ),
                );
            }
        }
    }
    let mut report = Report::default();
    report.extend_pass(diags);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_masks_certify() {
        // Downward: widens toward layer 0; upward: its mirror.
        let down = vec![vec![true, true, true], vec![true, true, false]];
        let up = vec![vec![true, false, false], vec![true, true, false]];
        assert!(verify_cone(&down, ConeDir::Downward).is_ok());
        assert!(verify_cone(&up, ConeDir::Upward).is_ok());
    }

    #[test]
    fn direction_violations_are_flagged() {
        let down_broken = vec![vec![true, false, false], vec![true, true, false]];
        let r = verify_cone(&down_broken, ConeDir::Downward);
        assert!(r.has(DiagCode::ConeNotClosed), "{}", r.render());
        // The same grid read upward is fine…
        assert!(verify_cone(&down_broken, ConeDir::Upward).is_ok());
        // …and its transpose-in-direction fails upward.
        let up_broken = vec![vec![true, true, false], vec![true, false, false]];
        let r = verify_cone(&up_broken, ConeDir::Upward);
        assert!(r.has(DiagCode::ConeNotClosed));
        assert!(r.render().contains("C901"));
    }

    #[test]
    fn shape_violations_are_flagged() {
        assert!(verify_cone(&[], ConeDir::Downward).has(DiagCode::ConeShapeInvalid));
        let ragged = vec![vec![true, true], vec![true]];
        assert!(verify_cone(&ragged, ConeDir::Upward).has(DiagCode::ConeShapeInvalid));
        let dead = vec![vec![false, false], vec![false, false]];
        let r = verify_cone(&dead, ConeDir::Downward);
        assert!(r.has(DiagCode::ConeShapeInvalid));
        assert!(r.render().contains("C902"));
    }
}
