//! Serving-path support: ≤ L-hop dependency cones over the chunk
//! topology.
//!
//! A vertex-subset logit query `Q` does not need a full-graph sweep: the
//! layer-`L` logits of `Q` depend only on the vertices within `L` hops
//! of `Q` (following in-edges). The executor's unit of work is a
//! *batch* — chunk `j` on every GPU runs between the same barriers — so
//! the pruned sweep is expressed batch-granularly: a [`ServeMask`] marks
//! which `(layer, batch)` steps must run, and the sweep driver skips
//! the rest.
//!
//! The mask is computed by walking the layers top-down over the
//! partition's chunk topology (no per-vertex BFS at serve time):
//!
//! ```text
//! needed[L]  = Q
//! active[l]  = { j | batch_of(v) = j for some v ∈ needed[l+1] }
//! needed[l]  = needed[l+1] ∪ ⋃_{j ∈ active[l], i < m} (V_ij ∪ N_ij)
//! ```
//!
//! Including the destination sets `V_ij` (not just the neighbor lists
//! `N_ij`) in the closure makes the mask *downward closed* —
//! `active[l] ⊇ active[l+1]` — which keeps the executor's layer-0
//! topology H2D covering every batch that is ever active, and gives the
//! simple correctness induction: every row an active chunk reads at
//! layer `l+1` was recomputed at layer `l`.
//!
//! The recurrence arithmetic itself lives in [`crate::cone`], shared
//! with the dual *upward-closed* delta-invalidation cone
//! ([`ServeMask::from_dirty`]) so query pruning and incremental
//! recompute can never diverge.

use crate::cone;
use hongtu_partition::TwoLevelPartition;
use hongtu_sim::TimeBuckets;
use hongtu_tensor::Matrix;

/// Which `(layer, batch)` steps a pruned forward sweep executes. All
/// `m` GPUs of batch `j` run or skip together, so the inter-GPU fetch
/// structure within an active batch is identical to a full sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeMask {
    /// `active[l][j]`: whether batch `j` runs at layer `l`.
    active: Vec<Vec<bool>>,
}

impl ServeMask {
    /// Computes the downward-closed union of the queried vertices'
    /// ≤ L-hop dependency cones, expressed as active batches per layer
    /// (module docs give the recurrence).
    ///
    /// # Panics
    ///
    /// Panics if any queried vertex id is out of range for the plan's
    /// graph, or if `vertices` is empty (an empty query has no cone and
    /// no meaningful sweep).
    pub fn from_queries(plan: &TwoLevelPartition, layers: usize, vertices: &[usize]) -> ServeMask {
        ServeMask {
            active: cone::downward_closed(plan, layers, vertices),
        }
    }

    /// Computes the upward-closed union of the dirty vertices' ≤ L-hop
    /// *out*-neighborhood cones — the set of `(layer, batch)` steps an
    /// incremental recompute must replay after a graph mutation
    /// invalidated those vertices' layer-1 rows ([`crate::cone`] gives
    /// the recurrence and the duality with the query cone).
    ///
    /// # Panics
    ///
    /// Panics if any dirty vertex id is out of range for the plan's
    /// graph, or if `dirty` is empty (a mutation with no dirty vertices
    /// has nothing to replay).
    pub fn from_dirty(plan: &TwoLevelPartition, layers: usize, dirty: &[usize]) -> ServeMask {
        ServeMask {
            active: cone::upward_closed(plan, layers, dirty),
        }
    }

    /// Whether batch `j` runs at layer `l`.
    #[inline]
    pub fn active(&self, l: usize, j: usize) -> bool {
        self.active[l][j]
    }

    /// Number of layers the mask covers.
    pub fn layers(&self) -> usize {
        self.active.len()
    }

    /// Number of batches per layer.
    pub fn batches(&self) -> usize {
        self.active.first().map_or(0, Vec::len)
    }

    /// Count of active `(layer, batch)` steps.
    pub fn active_steps(&self) -> usize {
        self.active
            .iter()
            .map(|l| l.iter().filter(|&&a| a).count())
            .sum()
    }

    /// Total `(layer, batch)` steps a full sweep would run.
    pub fn total_steps(&self) -> usize {
        self.layers() * self.batches()
    }

    /// The raw `active[l][j]` grid, for closure certification
    /// (`hongtu_verify::verify_cone`).
    pub fn grid(&self) -> &[Vec<bool>] {
        &self.active
    }
}

/// Result of one pruned serving sweep ([`Session::serve`]).
///
/// [`Session::serve`]: crate::Session::serve
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Logits of the queried vertices, one row per query vertex in
    /// query order — bitwise equal to the same rows of a full
    /// [`infer_epoch`](crate::Session::infer_epoch)'s logits.
    pub logits: Matrix,
    /// Simulated sweep time in seconds (critical path over GPUs).
    pub time: f64,
    /// Per-component simulated time/volume.
    pub buckets: TimeBuckets,
    /// High-water device memory across GPUs, in bytes.
    pub peak_gpu_bytes: usize,
    /// High-water host memory in bytes.
    pub peak_host_bytes: usize,
    /// `(layer, batch)` steps the pruned sweep executed.
    pub active_steps: usize,
    /// `(layer, batch)` steps a full sweep would have executed.
    pub total_steps: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::GraphBuilder;

    /// 8-vertex ring 0→1→…→7→0, 4 chunks of 2 on 1 partition: batch j
    /// owns {2j, 2j+1}, and the ≤1-hop cone of vertex 2j is
    /// {2j-1, 2j} — spanning batches j-1 and j.
    fn ring_plan() -> TwoLevelPartition {
        let mut b = GraphBuilder::new(8);
        for v in 0..8 {
            b.add_edge(v, (v + 1) % 8);
        }
        TwoLevelPartition::build(&b.build(), 1, 4, 7)
    }

    #[test]
    fn single_vertex_single_layer_cone() {
        let plan = ring_plan();
        // Find vertex 0's batch, then query it for one layer: only that
        // batch is active.
        let j0 = plan.all_chunks().find(|c| c.dests.contains(&0)).unwrap();
        let mask = ServeMask::from_queries(&plan, 1, &[0]);
        assert!(mask.active(0, j0.chunk));
        assert_eq!(mask.active_steps(), 1);
        assert_eq!(mask.total_steps(), 4);
    }

    #[test]
    fn mask_is_downward_closed() {
        let plan = ring_plan();
        let mask = ServeMask::from_queries(&plan, 3, &[3]);
        for l in 0..2 {
            for j in 0..4 {
                assert!(
                    !mask.active(l + 1, j) || mask.active(l, j),
                    "batch {j} active at layer {} but not {}",
                    l + 1,
                    l
                );
            }
        }
    }

    #[test]
    fn dirty_mask_is_upward_closed() {
        let plan = ring_plan();
        let mask = ServeMask::from_dirty(&plan, 3, &[3]);
        for l in 0..2 {
            for j in 0..4 {
                assert!(
                    !mask.active(l, j) || mask.active(l + 1, j),
                    "batch {j} active at layer {l} but not {}",
                    l + 1
                );
            }
        }
        assert!(mask.active_steps() >= 1);
    }

    #[test]
    fn full_query_activates_everything() {
        let plan = ring_plan();
        let all: Vec<usize> = (0..8).collect();
        let mask = ServeMask::from_queries(&plan, 2, &all);
        assert_eq!(mask.active_steps(), mask.total_steps());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        let plan = ring_plan();
        ServeMask::from_queries(&plan, 1, &[99]);
    }

    #[test]
    #[should_panic(expected = "empty query")]
    fn empty_query_panics() {
        let plan = ring_plan();
        ServeMask::from_queries(&plan, 1, &[]);
    }
}
