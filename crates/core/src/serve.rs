//! Serving-path support: exact ≤ L-hop dependency cones and the sliced
//! plans a masked sweep runs over.
//!
//! A vertex-subset logit query `Q` does not need a full-graph sweep: the
//! layer-`L` logits of `Q` depend only on the vertices within `L` hops
//! of `Q` (following in-edges). The exact recurrence is
//!
//! ```text
//! needed[L]  = Q
//! needed[l]  = needed[l+1] ∪ N(needed[l+1])
//! layer l computes the rows  needed[l+1] ∩ V_ij  of every chunk (i, j)
//! ```
//!
//! (and dually for the out-edge cone of a graph mutation —
//! [`crate::cone`] holds both). A [`ServeMask`] is that: per layer, per
//! chunk, the destination rows to compute, plus the `(layer, batch)`
//! grid they activate — a step is active iff some GPU's slice of it is
//! non-empty, and because `needed[l] ⊇ needed[l+1]` the grid is downward
//! closed (upward, for a delta cone).
//!
//! The executor's unit of work stays "one layer × one chunk"; what
//! shrinks is the chunk. A [`Cone`] slices each layer's chunk grid down
//! to the mask's rows ([`hongtu_partition::TwoLevelPartition::sliced`])
//! and derives that grid's dedup / buffer plans with the same builders
//! the session's own plans came from, so a masked sweep is a full sweep
//! over smaller plans: same driver, same emitters, same footprint
//! arithmetic, same numerics — each per-row reduction keeps its in-edge
//! order, so the rows it computes are bitwise the full sweep's.

use crate::buffers::GpuBufferPlan;
use crate::cone::{ConeDir, ConeOrigin, VertexIndex};
use crate::dedup::DedupPlan;
use crate::engine::{build_buffer_comm, BatchComm, CommMode};
use hongtu_partition::{SliceRows, TwoLevelPartition};
use hongtu_sim::TimeBuckets;
use hongtu_tensor::Matrix;

/// Which destination rows of which chunks a masked forward sweep
/// computes at each layer, and the `(layer, batch)` steps that leaves
/// active. All `m` GPUs of an active batch run (a GPU whose own slice is
/// empty still serves the transition rows it owns to the others); an
/// inactive batch keeps only its barriers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeMask {
    /// `rows[l][i][j]`: ascending local destination rows chunk `(i, j)`
    /// computes at layer `l`.
    rows: Vec<SliceRows>,
    /// `active[l][j]`: whether some GPU's slice of batch `j` at layer `l`
    /// is non-empty.
    active: Vec<Vec<bool>>,
    num_vertices: usize,
    /// The seeds and recurrence the rows were grown from.
    origin: ConeOrigin,
}

impl ServeMask {
    /// Computes the exact ≤ L-hop dependency cone of the queried
    /// vertices (module docs give the recurrence).
    ///
    /// # Panics
    ///
    /// Panics if any queried vertex id is out of range for the plan's
    /// graph, or if `vertices` is empty (an empty query has no cone and
    /// no meaningful sweep). [`Session::query_cone`] returns those as
    /// typed errors instead.
    ///
    /// [`Session::query_cone`]: crate::Session::query_cone
    pub fn from_queries(plan: &TwoLevelPartition, layers: usize, vertices: &[usize]) -> ServeMask {
        Self::grow(
            plan,
            &VertexIndex::new(plan),
            ConeDir::Downward,
            layers,
            vertices,
        )
    }

    /// Computes the exact ≤ L-hop *out*-neighborhood cone of the dirty
    /// vertices — the rows an incremental recompute must replay after a
    /// graph mutation invalidated those vertices' layer-1 rows
    /// ([`crate::cone`] gives the recurrence and the duality with the
    /// query cone).
    ///
    /// # Panics
    ///
    /// Panics if any dirty vertex id is out of range for the plan's
    /// graph, or if `dirty` is empty (a mutation with no dirty vertices
    /// has nothing to replay).
    pub fn from_dirty(plan: &TwoLevelPartition, layers: usize, dirty: &[usize]) -> ServeMask {
        Self::grow(
            plan,
            &VertexIndex::new(plan),
            ConeDir::Upward,
            layers,
            dirty,
        )
    }

    /// Grows the `dir` cone of `seeds` over `plan`, whose destinations
    /// `index` indexes.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` fails [`crate::cone::check_seeds`].
    pub(crate) fn grow(
        plan: &TwoLevelPartition,
        index: &VertexIndex,
        dir: ConeDir,
        layers: usize,
        seeds: &[usize],
    ) -> ServeMask {
        let origin = ConeOrigin {
            dir,
            layers,
            seeds: seeds.to_vec(),
        };
        let rows = origin.rows(plan, index);
        let active = rows
            .iter()
            .map(|layer| {
                let n = layer.first().map_or(0, Vec::len);
                (0..n)
                    .map(|j| layer.iter().any(|gpu| !gpu[j].is_empty()))
                    .collect()
            })
            .collect();
        ServeMask {
            rows,
            active,
            num_vertices: index.len(),
            origin,
        }
    }

    /// What the cone was grown from.
    pub fn origin(&self) -> &ConeOrigin {
        &self.origin
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

    /// Destination rows the masked sweep computes, summed over layers.
    pub fn active_rows(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|layer| layer.iter().flatten())
            .map(Vec::len)
            .sum()
    }

    /// Destination rows a full sweep computes: `|V|` per layer.
    pub fn total_rows(&self) -> usize {
        self.layers() * self.num_vertices
    }

    /// The raw `active[l][j]` grid, for closure certification
    /// (`hongtu_verify::verify_cone`).
    pub fn grid(&self) -> &[Vec<bool>] {
        &self.active
    }

    /// The raw `rows[l][i][j]` row lists, for row-level certification
    /// (`hongtu_verify::verify_cone_rows`).
    pub fn rows(&self) -> &[SliceRows] {
        &self.rows
    }
}

/// The chunk grid one layer of a masked sweep runs over and the
/// communication plans derived from it.
#[derive(Debug)]
pub(crate) struct LayerPlans {
    pub plan: TwoLevelPartition,
    pub dedup: DedupPlan,
    /// The §6 buffer plans of the sliced grid (P2P+RU only).
    pub bufplans: Option<Vec<GpuBufferPlan>>,
    pub buffer_comm: Option<Vec<Vec<BatchComm>>>,
}

/// A [`ServeMask`] and the plans its sweep executes: per layer, the
/// session's chunk grid sliced to the mask's rows and that grid's own
/// dedup and buffer plans. Derived by a [`Session`] ([`Session::query_cone`],
/// [`Session::plan_cone`]) for its current plans, and valid for them —
/// derive it again after a structural [`Session::apply_staged`].
///
/// [`Session`]: crate::Session
/// [`Session::query_cone`]: crate::Session::query_cone
/// [`Session::plan_cone`]: crate::Session::plan_cone
/// [`Session::apply_staged`]: crate::Session::apply_staged
#[derive(Debug)]
pub struct Cone {
    mask: ServeMask,
    pub(crate) layers: Vec<LayerPlans>,
}

impl Cone {
    /// Slices `plan` to `mask`, layer by layer, and derives each sliced
    /// grid's communication plan — linear in the slice, plus the `m × n`
    /// grid and the level-1 assignment each sliced grid carries.
    pub(crate) fn new(plan: &TwoLevelPartition, mask: ServeMask, comm: CommMode) -> Cone {
        let layers = mask
            .rows
            .iter()
            .map(|rows| {
                let plan = plan.sliced(rows);
                let dedup = DedupPlan::build(&plan);
                let bufplans =
                    (comm == CommMode::P2pRu).then(|| GpuBufferPlan::build_all(&plan, &dedup));
                let buffer_comm = build_buffer_comm(&plan, bufplans.as_deref(), comm);
                LayerPlans {
                    plan,
                    dedup,
                    bufplans,
                    buffer_comm,
                }
            })
            .collect();
        Cone { mask, layers }
    }

    /// The rows and steps this cone's sweep computes.
    pub fn mask(&self) -> &ServeMask {
        &self.mask
    }

    pub(crate) fn into_mask(self) -> ServeMask {
        self.mask
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
    /// `(layer, batch)` steps the pruned sweep executed: a step runs iff
    /// some GPU's slice of it is non-empty.
    pub active_steps: usize,
    /// `(layer, batch)` steps a full sweep would have executed.
    pub total_steps: usize,
    /// Destination rows the pruned sweep computed, summed over layers.
    pub active_rows: usize,
    /// Destination rows a full sweep would have computed (`L × |V|`).
    pub total_rows: usize,
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
        assert_eq!(mask.active_rows(), mask.total_rows());
        assert_eq!(mask.total_rows(), 16);
    }

    #[test]
    fn rows_count_the_cone_not_its_batches() {
        let plan = ring_plan();
        // 3's two-layer cone on the ring: {3} at the top, {2, 3} below.
        let mask = ServeMask::from_queries(&plan, 2, &[3]);
        assert_eq!(mask.active_rows(), 3);
        assert_eq!(mask.total_rows(), 16);
        assert_eq!(mask.rows().len(), 2);
    }

    #[test]
    fn a_cone_slices_every_layer_to_its_rows() {
        let plan = ring_plan();
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            let cone = Cone::new(&plan, ServeMask::from_queries(&plan, 2, &[3]), comm);
            let dests = |l: usize| -> Vec<u32> {
                let mut d: Vec<u32> = cone.layers[l]
                    .plan
                    .all_chunks()
                    .flat_map(|c| c.dests.clone())
                    .collect();
                d.sort_unstable();
                d
            };
            assert_eq!(dests(1), [3]);
            assert_eq!(dests(0), [2, 3]);
            for layer in &cone.layers {
                assert!(layer.dedup.validate(&layer.plan).is_ok());
                assert_eq!(layer.bufplans.is_some(), comm == CommMode::P2pRu);
                assert_eq!(layer.buffer_comm.is_some(), comm == CommMode::P2pRu);
            }
        }
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
