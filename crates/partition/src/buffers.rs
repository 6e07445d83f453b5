//! In-place buffer index planning (paper §6).
//!
//! HongTu keeps, per GPU, a single data buffer holding the merged
//! transition + neighbor set `M_ij = ℕ_ij ∪ N_ij` of the currently
//! scheduled chunk ("data buffer deduplication"). When the schedule moves
//! from batch `j−1` to batch `j`:
//!
//! - vertices in `M_ij ∩ M_i,j−1` **keep their buffer positions**, so their
//!   data is reused in place without any copying;
//! - positions of discarded vertices (`M_i,j−1 \ M_ij`) are freed and new
//!   vertices (`M_ij \ M_i,j−1`) are written into those slots (grown at the
//!   end only when the free list runs dry) — the paper's Figure 7(a);
//! - the chunk's edge structure is re-indexed so the computation engine
//!   reads neighbor rows **directly out of the buffer** at their planned
//!   positions, with no compaction pass.
//!
//! All of this is precomputed once per partition plan ("In the
//! preprocessing, we process the transition indices for all subgraphs").
//! A graph update that moves some batches' neighbor lists re-plans each
//! GPU's chain from the first of them only until it is back in step with
//! the old plan ([`GpuBufferPlan::patched`]).
//! [`GpuBufferPlan::execute`] actually moves `f32` rows through the planned
//! positions and is verified against direct gathers by the test suite.

use crate::dedup::{union_sorted, DedupPlan};
use crate::TwoLevelPartition;
use hongtu_graph::VertexId;
use hongtu_tensor::Matrix;
use std::collections::HashMap;
use std::sync::Arc;

/// Placeholder for a slot the planner has yet to assign; real slots are
/// dense from 0 and never reach it.
const UNASSIGNED: u32 = u32::MAX;

/// Index plan for one batch on one GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchIndices {
    /// The merged vertex set `M_ij = ℕ_ij ∪ N_ij`, sorted ascending.
    pub merged: Vec<VertexId>,
    /// `position[t]`: buffer slot of `merged[t]` during this batch.
    pub position: Vec<u32>,
    /// Rows to write this batch (vertex absent from the previous buffer):
    /// `(index into merged, slot)`. Rows not listed are reused in place.
    pub incoming: Vec<(u32, u32)>,
    /// Buffer slot of each entry of the chunk's neighbor list
    /// (`chunk.neighbors[t]` lives at `nbr_slot[t]`), which is what the
    /// computation engine indexes through.
    pub nbr_slot: Vec<u32>,
    /// Slots the buffer has grown to by the end of this batch: the
    /// running high-water mark the next batch mints fresh slots above.
    pub high_water: usize,
}

impl BatchIndices {
    /// Number of vertices reused in place from the previous batch.
    pub fn reused(&self) -> usize {
        self.merged.len() - self.incoming.len()
    }
}

/// The per-GPU buffer plan across all batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuBufferPlan {
    /// GPU / partition index.
    pub gpu: usize,
    /// Buffer capacity in rows (the high-water mark across batches).
    pub capacity: usize,
    /// One index set per batch, in schedule order — shared, not copied,
    /// with the plan a [`GpuBufferPlan::patched`] one was patched from
    /// wherever the batch did not change.
    pub batches: Vec<Arc<BatchIndices>>,
}

impl GpuBufferPlan {
    /// Builds the plan for GPU `gpu` from the partition and dedup plans.
    /// Both must hold strictly ascending vertex lists, as
    /// [`crate::ChunkSubgraph::build`] and [`DedupPlan::build`] produce
    /// them: slots are assigned by merge walks over those lists.
    pub fn build(plan: &TwoLevelPartition, dedup: &DedupPlan, gpu: usize) -> Self {
        assert!(gpu < plan.m, "GPU {gpu} out of range (m = {})", plan.m);
        Self::derive(plan, dedup, gpu, None, &vec![true; plan.n])
    }

    /// Builds the plans for every GPU of the machine.
    pub fn build_all(plan: &TwoLevelPartition, dedup: &DedupPlan) -> Vec<GpuBufferPlan> {
        (0..plan.m).map(|g| Self::build(plan, dedup, g)).collect()
    }

    /// This plan, of an earlier state of `plan`, brought up to date with
    /// it and with `dedup` ([`DedupPlan::patched`] by the same `moved`):
    /// `moved[j]` says whether some chunk of batch `j` has another
    /// neighbor list now, which is all that can move `ℕ_ij` or `N_ij`.
    /// The chain is re-planned from the first moved batch, and until a
    /// re-planned batch leaves the buffer as this plan left it — the same
    /// merged set in the same slots at the same high-water mark — from
    /// where every later unmoved batch is this plan's, and shared with it;
    /// a re-planned batch equal to this plan's is shared too. Equal to
    /// [`GpuBufferPlan::build`] when `moved` covers every batch
    /// whose neighbor lists changed.
    ///
    /// # Panics
    ///
    /// Panics if `moved` does not have one entry per batch of this plan
    /// and of `plan`.
    pub fn patched(&self, plan: &TwoLevelPartition, dedup: &DedupPlan, moved: &[bool]) -> Self {
        assert!(
            self.batches.len() == plan.n && moved.len() == plan.n,
            "patching a plan of {} batches to {} with {} flags",
            self.batches.len(),
            plan.n,
            moved.len()
        );
        Self::derive(plan, dedup, self.gpu, Some(self), moved)
    }

    /// The one planning step: batch by batch, `old`'s batch while the
    /// chain is in step with it and the batch did not move, else the batch
    /// placed after the previous one.
    fn derive(
        plan: &TwoLevelPartition,
        dedup: &DedupPlan,
        gpu: usize,
        old: Option<&GpuBufferPlan>,
        moved: &[bool],
    ) -> Self {
        let mut batches: Vec<Arc<BatchIndices>> = Vec::with_capacity(plan.n);
        // Whether the buffer, after the batches so far, is as `old` left
        // it at the same batch.
        let mut in_step = old.is_some();
        for j in 0..plan.n {
            let old = old.map(|old| &old.batches[j]);
            if let Some(old) = old.filter(|_| in_step && !moved[j]) {
                batches.push(Arc::clone(old));
                continue;
            }
            let placed = place(
                &dedup.batches[j].transition[gpu],
                &plan.chunks[gpu][j].neighbors,
                batches.last().map(|b| &**b),
            );
            in_step = old.is_some_and(|old| {
                placed.high_water == old.high_water
                    && placed.merged == old.merged
                    && placed.position == old.position
            });
            // A re-placed batch equal to the old one stays shared.
            match old {
                Some(old) if in_step && **old == placed => batches.push(Arc::clone(old)),
                _ => batches.push(Arc::new(placed)),
            }
        }
        GpuBufferPlan {
            gpu,
            capacity: batches.last().map_or(0, |b| b.high_water),
            batches,
        }
    }

    /// Total rows written host→buffer across the epoch (everything not
    /// reused in place). With the full merged-buffer scheme this equals
    /// the incoming-row count per batch.
    pub fn rows_written(&self) -> usize {
        self.batches.iter().map(|b| b.incoming.len()).sum()
    }

    /// Bytes one staging slot of the double-buffered overlap executor must
    /// hold for this GPU's merged neighbor buffer: the full planned
    /// capacity at `row_bytes` per row. The capacity (not the per-batch
    /// merged size) is the right bound because in-place reuse pins slot
    /// positions across batches — a staging slot that held only one
    /// batch's rows would break the stable-position contract of §6.
    pub fn staging_bytes(&self, row_bytes: usize) -> usize {
        self.capacity * row_bytes
    }

    /// Executes the plan for real data: for each batch, writes incoming
    /// rows from the host matrix `h` into the buffer, then materializes
    /// the chunk's neighbor representations by reading the planned slots.
    /// Returns the per-batch neighbor matrices — byte-identical to a
    /// direct `h.gather_rows(chunk.neighbors)`.
    pub fn execute(&self, plan: &TwoLevelPartition, h: &Matrix) -> Vec<Matrix> {
        let dim = h.cols();
        let mut buffer = Matrix::zeros(self.capacity, dim);
        let mut out = Vec::with_capacity(self.batches.len());
        for (j, b) in self.batches.iter().enumerate() {
            for &(t, slot) in &b.incoming {
                let v = b.merged[t as usize] as usize;
                buffer.row_mut(slot as usize).copy_from_slice(h.row(v));
            }
            let chunk = &plan.chunks[self.gpu][j];
            let mut h_nbr = Matrix::zeros(chunk.num_neighbors(), dim);
            for (t, &slot) in b.nbr_slot.iter().enumerate() {
                h_nbr.row_mut(t).copy_from_slice(buffer.row(slot as usize));
            }
            out.push(h_nbr);
        }
        out
    }

    /// Structural validation: positions are in range, live slots are
    /// unique per batch, retained vertices keep stable slots, and the
    /// neighbor slots resolve to the right vertices.
    pub fn validate(&self, plan: &TwoLevelPartition) -> Result<(), String> {
        let mut prev: HashMap<VertexId, u32> = HashMap::new();
        for (j, b) in self.batches.iter().enumerate() {
            if b.position.len() != b.merged.len() {
                return Err(format!("batch {j}: position/merged length mismatch"));
            }
            let mut seen = vec![false; self.capacity];
            for (&v, &slot) in b.merged.iter().zip(&b.position) {
                if slot as usize >= self.capacity {
                    return Err(format!("batch {j}: slot {slot} beyond capacity"));
                }
                if seen[slot as usize] {
                    return Err(format!("batch {j}: slot {slot} double-booked"));
                }
                seen[slot as usize] = true;
                if let Some(&p) = prev.get(&v) {
                    if p != slot {
                        return Err(format!(
                            "batch {j}: vertex {v} moved from slot {p} to {slot} (reuse broken)"
                        ));
                    }
                }
            }
            // Incoming rows are exactly the vertices absent last batch.
            let incoming: std::collections::HashSet<u32> =
                b.incoming.iter().map(|&(t, _)| t).collect();
            for (t, &v) in b.merged.iter().enumerate() {
                let was_resident = prev.contains_key(&v);
                if was_resident == incoming.contains(&(t as u32)) {
                    return Err(format!(
                        "batch {j}: vertex {v} incoming/resident classification wrong"
                    ));
                }
            }
            // Neighbor slots point at the right data.
            let chunk = &plan.chunks[self.gpu][j];
            for (t, &nv) in chunk.neighbors.iter().enumerate() {
                let ti = b
                    .merged
                    .binary_search(&nv)
                    .map_err(|_| format!("batch {j}: neighbor {nv} missing from merged set"))?;
                if b.nbr_slot[t] != b.position[ti] {
                    return Err(format!("batch {j}: neighbor {nv} slot mismatch"));
                }
            }
            prev = b
                .merged
                .iter()
                .copied()
                .zip(b.position.iter().copied())
                .collect();
        }
        Ok(())
    }
}

/// Places one batch's merged set `ℕ_ij ∪ N_ij` — `transition` and the
/// chunk's `neighbors`, both ascending — in the buffer `prev` left:
/// shared vertices keep their slot, vertices leaving the buffer free
/// theirs, newcomers fill freed slots lowest first, then grow the buffer.
fn place(
    transition: &[VertexId],
    neighbors: &[VertexId],
    prev: Option<&BatchIndices>,
) -> BatchIndices {
    let merged = union_sorted(transition, neighbors);

    // One walk over the previous and the new merged set (both sorted):
    // shared vertices keep their slot, vertices leaving the buffer free
    // theirs.
    let (prev_merged, prev_position, capacity) = prev.map_or((&[][..], &[][..], 0), |b| {
        (&b.merged[..], &b.position[..], b.high_water)
    });
    let mut position = vec![UNASSIGNED; merged.len()];
    let mut free: Vec<u32> = Vec::new();
    let mut t = 0usize;
    for (&v, &slot) in prev_merged.iter().zip(prev_position) {
        while t < merged.len() && merged[t] < v {
            t += 1;
        }
        if t < merged.len() && merged[t] == v {
            position[t] = slot;
        } else {
            free.push(slot);
        }
    }
    free.sort_unstable_by(|a, b| b.cmp(a)); // pop lowest slots first

    // Newcomers fill freed slots, then extend the buffer.
    let mut next_fresh = capacity as u32;
    let mut incoming = Vec::new();
    for (t, slot) in position.iter_mut().enumerate() {
        if *slot == UNASSIGNED {
            *slot = free.pop().unwrap_or_else(|| {
                next_fresh += 1;
                next_fresh - 1
            });
            incoming.push((t as u32, *slot));
        }
    }

    // Neighbor-list slots: where each of the chunk's neighbors sits.
    // N_ij ⊆ M_ij and both ascend, so one cursor suffices.
    let mut t = 0usize;
    let nbr_slot = neighbors
        .iter()
        .map(|&v| {
            while merged[t] < v {
                t += 1;
            }
            position[t]
        })
        .collect();
    BatchIndices {
        merged,
        position,
        incoming,
        nbr_slot,
        high_water: capacity.max(next_fresh as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::generators;
    use hongtu_tensor::SeededRng;

    fn setup(seed: u64, m: usize, n: usize) -> (hongtu_graph::Graph, TwoLevelPartition, DedupPlan) {
        let mut rng = SeededRng::new(seed);
        let g = generators::web_hybrid(1200, 6.0, 0.9, 30.0, &mut rng);
        let plan = TwoLevelPartition::build(&g, m, n, seed);
        let dedup = DedupPlan::build(&plan);
        (g, plan, dedup)
    }

    #[test]
    fn plans_validate_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let (_, plan, dedup) = setup(seed, 3, 4);
            for p in GpuBufferPlan::build_all(&plan, &dedup) {
                assert!(p.validate(&plan).is_ok(), "{:?}", p.validate(&plan));
            }
        }
    }

    #[test]
    fn execution_matches_direct_gather() {
        let (_, plan, dedup) = setup(7, 4, 5);
        let h = Matrix::from_fn(1200, 8, |r, c| ((r * 8 + c) as f32 * 0.013).sin());
        for gpu in 0..4 {
            let bp = GpuBufferPlan::build(&plan, &dedup, gpu);
            let outs = bp.execute(&plan, &h);
            for (j, got) in outs.iter().enumerate() {
                let chunk = &plan.chunks[gpu][j];
                let idx: Vec<usize> = chunk.neighbors.iter().map(|&v| v as usize).collect();
                let want = h.gather_rows(&idx);
                assert_eq!(got, &want, "gpu {gpu} batch {j}");
            }
        }
    }

    #[test]
    fn reuse_matches_dedup_plan_accounting() {
        // The buffer plan's in-place reuse must be at least the dedup
        // plan's transition-set reuse (the merged buffer can only reuse
        // *more*, since N_ij overlap also persists).
        let (_, plan, dedup) = setup(9, 2, 6);
        for gpu in 0..2 {
            let bp = GpuBufferPlan::build(&plan, &dedup, gpu);
            for j in 1..plan.n {
                assert!(
                    bp.batches[j].reused() >= dedup.batches[j].reused[gpu],
                    "gpu {gpu} batch {j}: buffer reuse {} < transition reuse {}",
                    bp.batches[j].reused(),
                    dedup.batches[j].reused[gpu]
                );
            }
        }
    }

    #[test]
    fn capacity_is_bounded_by_peak_merged_size_plus_fragmentation() {
        let (_, plan, dedup) = setup(11, 3, 4);
        for gpu in 0..3 {
            let bp = GpuBufferPlan::build(&plan, &dedup, gpu);
            let peak = bp.batches.iter().map(|b| b.merged.len()).max().unwrap();
            // A fresh slot is only minted when the free list is empty, so
            // capacity never exceeds the largest *union of consecutive*
            // merged sets; sanity-bound it at 2× the peak single batch.
            assert!(
                bp.capacity <= 2 * peak,
                "gpu {gpu}: capacity {} vs peak merged {peak}",
                bp.capacity
            );
            assert!(bp.capacity >= peak);
        }
    }

    #[test]
    fn first_batch_loads_everything() {
        let (_, plan, dedup) = setup(13, 2, 3);
        let bp = GpuBufferPlan::build(&plan, &dedup, 0);
        assert_eq!(bp.batches[0].incoming.len(), bp.batches[0].merged.len());
        assert_eq!(bp.batches[0].reused(), 0);
    }

    #[test]
    fn adjacent_local_chunks_reuse_heavily() {
        // On an id-local graph, adjacent chunks share most of their
        // neighbor windows; the planner should reuse a large fraction.
        let (_, plan, dedup) = setup(17, 1, 8);
        let bp = GpuBufferPlan::build(&plan, &dedup, 0);
        let total: usize = bp.batches[1..].iter().map(|b| b.merged.len()).sum();
        let reused: usize = bp.batches[1..].iter().map(|b| b.reused()).sum();
        assert!(
            reused * 4 >= total,
            "expected ≥25% in-place reuse on a window graph: {reused}/{total}"
        );
    }

    #[test]
    fn staging_bytes_scale_with_capacity_and_row_width() {
        let (_, plan, dedup) = setup(23, 2, 4);
        let bp = GpuBufferPlan::build(&plan, &dedup, 0);
        assert_eq!(bp.staging_bytes(0), 0);
        assert_eq!(bp.staging_bytes(64), bp.capacity * 64);
        let peak = bp.batches.iter().map(|b| b.merged.len()).max().unwrap();
        assert!(bp.staging_bytes(4) >= peak * 4);
    }

    /// Rebuilds a random third of `plan`'s chunks against `g` plus a few
    /// random edges; returns which batches' neighbor lists moved.
    fn perturb(g: &hongtu_graph::Graph, plan: &mut TwoLevelPartition, seed: u64) -> Vec<bool> {
        let mut rng = SeededRng::new(seed);
        let n = g.num_vertices();
        let mut b = hongtu_graph::GraphBuilder::new(n);
        b.extend(g.csr.edges());
        for _ in 0..40 {
            b.add_edge(rng.index(n) as u32, rng.index(n) as u32);
        }
        let g2 = b.build();
        let mut moved = vec![false; plan.n];
        for chunk in plan.chunks.iter_mut().flatten() {
            if rng.chance(0.3) {
                let fresh =
                    crate::ChunkSubgraph::build(&g2, chunk.part, chunk.chunk, chunk.dests.clone());
                moved[chunk.chunk] |= fresh.neighbors != chunk.neighbors;
                *chunk = Arc::new(fresh);
            }
        }
        moved
    }

    /// The patch step re-derives what moved and shares the rest, and
    /// lands on exactly what a fresh build of the perturbed grid gives —
    /// dedup sets, slots, incoming rows and capacity.
    #[test]
    fn patched_plans_equal_a_fresh_build() {
        for seed in 1u64..9 {
            let (g, mut plan, dedup) = setup(seed, 1 + seed as usize % 3, 2 + seed as usize % 5);
            let bufs = GpuBufferPlan::build_all(&plan, &dedup);
            let moved = perturb(&g, &mut plan, seed ^ 0x5eed);
            let fresh = DedupPlan::build(&plan);
            let patched = dedup.patched(&plan, &moved);
            assert_eq!(patched, fresh, "seed {seed}, moved {moved:?}");
            let patched_bufs: Vec<_> = bufs
                .iter()
                .map(|bp| bp.patched(&plan, &patched, &moved))
                .collect();
            assert_eq!(
                patched_bufs,
                GpuBufferPlan::build_all(&plan, &fresh),
                "seed {seed}"
            );
            // Unmoved batches clear of a moved one are shared, not copied.
            for j in (0..plan.n).filter(|&j| !moved[j] && (j == 0 || !moved[j - 1])) {
                assert!(
                    Arc::ptr_eq(&patched.batches[j], &dedup.batches[j]),
                    "seed {seed} batch {j}"
                );
            }
            if let Some(first) = moved.iter().position(|&m| m) {
                for (new, old) in patched_bufs.iter().zip(&bufs) {
                    assert!((0..first).all(|j| Arc::ptr_eq(&new.batches[j], &old.batches[j])));
                }
            }
        }
    }

    /// A re-planned batch that holds the old plan's vertices in the old
    /// plan's slots is back in step only at the old high-water mark:
    /// below it, the next newcomer takes a lower fresh slot.
    #[test]
    fn the_chain_rejoins_only_at_the_same_high_water_mark() {
        let (_, mut plan, _) = setup(29, 1, 3);
        let mut lists = |lists: [&[u32]; 3]| {
            for (c, list) in plan.chunks[0].iter_mut().zip(lists) {
                Arc::make_mut(c).neighbors = list.to_vec();
            }
            let dedup = DedupPlan::build(&plan);
            let bufs = GpuBufferPlan::build(&plan, &dedup, 0);
            (plan.clone(), dedup, bufs)
        };
        let (_, _, old) = lists([&[0, 1], &[0], &[0, 2]]);
        let (plan, dedup, fresh) = lists([&[0], &[0], &[0, 2]]);
        // Batch 1 holds vertex 0 in slot 0 either way; the old plan has
        // grown to 2 slots by then, the new one to 1.
        assert_eq!(fresh.batches[1].position, old.batches[1].position);
        assert_ne!(fresh.batches[2].position, old.batches[2].position);
        let patched = old.patched(&plan, &dedup, &[true, false, false]);
        assert_eq!(patched, fresh);
    }

    #[test]
    fn single_batch_plan_is_trivial() {
        let (_, plan, dedup) = setup(19, 2, 1);
        let bp = GpuBufferPlan::build(&plan, &dedup, 1);
        assert_eq!(bp.batches.len(), 1);
        assert_eq!(bp.capacity, bp.batches[0].merged.len());
        assert!(bp.validate(&plan).is_ok());
    }
}
