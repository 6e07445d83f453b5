//! Deduplicated communication planning (paper §5.1–5.2).
//!
//! For every *batch* `j` (the `m` concurrently scheduled chunks), the plan
//! records:
//!
//! - the **transition sets** `ℕ_ij`: the batch's deduplicated neighbor
//!   union `ℕ^∪_j = ∪_i N_ij`, split by owning partition so each vertex is
//!   transferred host→GPU exactly once, to the GPU that owns it;
//! - the **intra-GPU split** of each transition set against the previous
//!   batch: `ℕ^gpu_ij = ℕ_ij ∩ ℕ_i,j−1` is reused in place,
//!   `ℕ^cpu_ij = ℕ_ij \ ℕ_i,j−1` is loaded from the CPU;
//! - the **fetch matrix** `fetch[i][k] = |N_ij ∩ ℕ_kj|`: rows GPU `i` reads
//!   from GPU `k`'s transition buffer to assemble its own neighbor data
//!   (`k = i` is a local buffer read, not communication).
//!
//! The plan is pure metadata; the engine uses it for simulator accounting,
//! and `v_ori`/`v_p2p`/`v_ru` reproduce the volume columns of Table 8.
//!
//! A batch's sets are a function of its own chunks' neighbor lists, and
//! its reuse split of the previous batch's too. When a graph update moves
//! the neighbor lists of a few batches, [`DedupPlan::patched`] re-derives
//! those batches and the batch after each, and shares every other batch
//! — and every re-derived one that came out equal — with the plan it
//! patches; [`DedupPlan::build`] is the same step with every batch moved.

use crate::TwoLevelPartition;
use hongtu_graph::VertexId;
use std::sync::Arc;

/// Communication plan for one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// `transition[i]` = `ℕ_ij`, sorted ascending.
    pub transition: Vec<Vec<VertexId>>,
    /// `new_from_cpu[i]` = `ℕ^cpu_ij` (loaded host→GPU this batch), sorted.
    pub new_from_cpu: Vec<Vec<VertexId>>,
    /// `reused[i]` = `|ℕ^gpu_ij|` (reused in place from the previous batch).
    pub reused: Vec<usize>,
    /// `fetch[i][k]` = `|N_ij ∩ ℕ_kj|` rows GPU `i` reads from GPU `k`.
    pub fetch: Vec<Vec<usize>>,
}

/// The sizes of one batch's plan: all a sweep's accounting reads of it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// `transition[i]` = `|ℕ_ij|`.
    pub transition: Vec<usize>,
    /// `reused[i]` = `|ℕ^gpu_ij|`.
    pub reused: Vec<usize>,
    /// `fetch[i][k]` = `|N_ij ∩ ℕ_kj|`.
    pub fetch: Vec<Vec<usize>>,
}

/// A [`DedupPlan`] with its sets counted rather than listed. A cone's
/// packed grids carry only these: a masked sweep charges rows, it never
/// lists them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupCounts {
    /// Number of partitions/GPUs.
    pub m: usize,
    /// Number of batches.
    pub n: usize,
    /// One count per batch, in schedule order.
    pub batches: Vec<BatchCounts>,
}

/// The full per-epoch communication plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupPlan {
    /// Number of partitions/GPUs.
    pub m: usize,
    /// Number of batches.
    pub n: usize,
    /// One plan per batch, in schedule order — shared, not copied, with
    /// the plan a [`DedupPlan::patched`] one was patched from wherever
    /// the batch did not change.
    pub batches: Vec<Arc<BatchPlan>>,
}

impl DedupPlan {
    /// Builds the plan for a 2-level partition. `partition_of` must be the
    /// level-1 assignment the plan was built from (it defines transition
    /// ownership).
    pub fn build(plan: &TwoLevelPartition) -> Self {
        Self::derive(plan, None, &vec![true; plan.n])
    }

    /// This plan, of an earlier state of `plan`, brought up to date with
    /// it: `moved[j]` says whether some chunk of batch `j` has another
    /// neighbor list now. Those batches' transition sets and fetch
    /// matrices are re-derived, and their reuse split and the next
    /// batch's; every other batch is shared with this plan. Equal to
    /// [`DedupPlan::build`] of `plan` when `moved` covers every batch
    /// whose neighbor lists changed.
    ///
    /// # Panics
    ///
    /// Panics if `moved` does not have one entry per batch of this plan
    /// and of `plan`.
    pub fn patched(&self, plan: &TwoLevelPartition, moved: &[bool]) -> Self {
        assert!(
            self.n == plan.n && moved.len() == plan.n,
            "patching a plan of {} batches to {} with {} flags",
            self.n,
            plan.n,
            moved.len()
        );
        Self::derive(plan, Some(self), moved)
    }

    /// The one derivation step: batch by batch, `old`'s batch where it
    /// still holds, else the sets derived from `plan`.
    fn derive(plan: &TwoLevelPartition, old: Option<&DedupPlan>, moved: &[bool]) -> Self {
        let m = plan.m;
        let n = plan.n;
        let owner = &plan.assignment.partition_of;
        let mut batches: Vec<Arc<BatchPlan>> = Vec::with_capacity(n);
        for j in 0..n {
            let kept = old.filter(|_| !moved[j]).map(|old| &old.batches[j]);
            if let Some(kept) = kept.filter(|_| j == 0 || !moved[j - 1]) {
                batches.push(Arc::clone(kept));
                continue;
            }
            let (transition, fetch) = match kept {
                Some(kept) => (kept.transition.clone(), kept.fetch.clone()),
                None => {
                    // Transition sets: the batch neighbor union — a merge
                    // of the m sorted, deduplicated neighbor lists —
                    // routed by owner, which keeps each set ascending.
                    let union = plan
                        .batch(j)
                        .fold(Vec::new(), |acc, c| union_sorted(&acc, &c.neighbors));
                    let mut transition: Vec<Vec<VertexId>> = vec![Vec::new(); m];
                    for v in union {
                        transition[owner[v as usize] as usize].push(v);
                    }
                    // Fetch matrix: every neighbor access of chunk (i, j)
                    // is served by the transition buffer of the owner's
                    // GPU.
                    let mut fetch = vec![vec![0usize; m]; m];
                    for (i, c) in plan.batch(j).enumerate() {
                        for &v in &c.neighbors {
                            fetch[i][owner[v as usize] as usize] += 1;
                        }
                    }
                    (transition, fetch)
                }
            };
            // Intra-GPU split against the previous batch.
            let mut new_from_cpu = Vec::with_capacity(m);
            let mut reused = Vec::with_capacity(m);
            for (i, t) in transition.iter().enumerate() {
                let prev = batches.last().map_or(&[][..], |b| &b.transition[i][..]);
                let (fresh, hit) = diff_sorted(t, prev);
                new_from_cpu.push(fresh);
                reused.push(hit);
            }
            let fresh = BatchPlan {
                transition,
                new_from_cpu,
                reused,
                fetch,
            };
            // A re-derived batch equal to the old one stays shared.
            match old.map(|old| &old.batches[j]) {
                Some(old) if **old == fresh => batches.push(Arc::clone(old)),
                _ => batches.push(Arc::new(fresh)),
            }
        }
        DedupPlan { m, n, batches }
    }

    /// The plan's sets, counted.
    pub fn counts(&self) -> DedupCounts {
        let batches = self
            .batches
            .iter()
            .map(|b| BatchCounts {
                transition: b.transition.iter().map(Vec::len).collect(),
                reused: b.reused.clone(),
                fetch: b.fetch.clone(),
            })
            .collect();
        DedupCounts {
            m: self.m,
            n: self.n,
            batches,
        }
    }

    /// `V_ori = Σ_ij |N_ij|`: host→GPU volume (in vertices) of the vanilla
    /// per-chunk transfer scheme.
    pub fn v_ori(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.fetch.iter().flatten().sum::<usize>())
            .sum()
    }

    /// `V_+p2p = Σ_j |∪_i N_ij|`: host→GPU volume with inter-GPU
    /// deduplication only.
    pub fn v_p2p(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.transition.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// `V_+ru`: host→GPU volume with both inter-GPU deduplication and
    /// intra-GPU reuse between adjacent batches.
    pub fn v_ru(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.new_from_cpu.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Inter-GPU rows actually fetched remotely (`k ≠ i`), per epoch layer.
    pub fn d2d_rows(&self) -> usize {
        self.batches
            .iter()
            .map(|b| {
                b.fetch
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        row.iter()
                            .enumerate()
                            .filter(|&(k, _)| k != i)
                            .map(|(_, &c)| c)
                            .sum::<usize>()
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Structural consistency checks (used by tests and debug builds).
    pub fn validate(&self, plan: &TwoLevelPartition) -> Result<(), String> {
        if self.batches.len() != self.n {
            return Err("batch count mismatch".into());
        }
        for (j, b) in self.batches.iter().enumerate() {
            // Transition sets are disjoint and cover exactly the batch union.
            let mut union: Vec<VertexId> = Vec::new();
            for c in plan.batch(j) {
                union.extend_from_slice(&c.neighbors);
            }
            union.sort_unstable();
            union.dedup();
            let mut combined: Vec<VertexId> = b.transition.iter().flatten().copied().collect();
            combined.sort_unstable();
            if combined != union {
                return Err(format!("batch {j}: transition sets do not tile the union"));
            }
            // Fetch matrix accounts for every neighbor access.
            for (i, c) in plan.batch(j).enumerate() {
                let total: usize = b.fetch[i].iter().sum();
                if total != c.num_neighbors() {
                    return Err(format!(
                        "batch {j} gpu {i}: fetch rows {total} != |N_ij| {}",
                        c.num_neighbors()
                    ));
                }
            }
            // reused + new == transition size.
            for i in 0..self.m {
                if b.reused[i] + b.new_from_cpu[i].len() != b.transition[i].len() {
                    return Err(format!("batch {j} gpu {i}: reuse split inconsistent"));
                }
            }
        }
        Ok(())
    }
}

/// Returns `(a \ b, |a ∩ b|)` for sorted slices.
fn diff_sorted(a: &[VertexId], b: &[VertexId]) -> (Vec<VertexId>, usize) {
    let mut fresh = Vec::new();
    let mut hit = 0usize;
    let mut bi = 0usize;
    for &v in a {
        while bi < b.len() && b[bi] < v {
            bi += 1;
        }
        if bi < b.len() && b[bi] == v {
            hit += 1;
        } else {
            fresh.push(v);
        }
    }
    (fresh, hit)
}

/// Union of two sorted, deduplicated slices.
///
/// The smaller head is emitted and every head equal to it advances, with
/// no branch on the comparison: which list is ahead flips unpredictably
/// on neighbor lists, and this merge runs once per chunk per plan
/// derivation — per served query, for the plans of its cone.
pub fn union_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut k) = (0usize, 0usize);
    while i < a.len() && k < b.len() {
        let (x, y) = (a[i], b[k]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        k += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[k..]);
    out
}

/// Intersection size of two sorted slices.
pub fn intersect_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut ai, mut bi, mut count) = (0usize, 0usize, 0usize);
    while ai < a.len() && bi < b.len() {
        match a[ai].cmp(&b[bi]) {
            std::cmp::Ordering::Less => ai += 1,
            std::cmp::Ordering::Greater => bi += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                ai += 1;
                bi += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::generators;
    use hongtu_tensor::SeededRng;

    fn plan(
        n_vertices: usize,
        m: usize,
        n: usize,
        seed: u64,
    ) -> (hongtu_graph::Graph, TwoLevelPartition) {
        let mut rng = SeededRng::new(seed);
        let g = generators::erdos_renyi(n_vertices, 6.0, &mut rng);
        let p = TwoLevelPartition::build(&g, m, n, seed);
        (g, p)
    }

    #[test]
    fn plan_validates_on_random_graphs() {
        for seed in [1, 2, 3] {
            let (_, p) = plan(500, 4, 3, seed);
            let d = DedupPlan::build(&p);
            assert!(d.validate(&p).is_ok(), "{:?}", d.validate(&p));
        }
    }

    #[test]
    fn volume_ordering_invariant() {
        let (_, p) = plan(800, 4, 4, 7);
        let d = DedupPlan::build(&p);
        assert!(d.v_ori() >= d.v_p2p(), "{} < {}", d.v_ori(), d.v_p2p());
        assert!(d.v_p2p() >= d.v_ru(), "{} < {}", d.v_p2p(), d.v_ru());
        assert!(d.v_ru() > 0);
    }

    #[test]
    fn v_ori_matches_partition_accounting() {
        let (_, p) = plan(600, 3, 3, 5);
        let d = DedupPlan::build(&p);
        assert_eq!(d.v_ori(), p.v_ori());
    }

    #[test]
    fn single_gpu_plan_has_no_remote_fetches() {
        let (_, p) = plan(300, 1, 4, 2);
        let d = DedupPlan::build(&p);
        assert_eq!(d.d2d_rows(), 0);
        // With one GPU, p2p dedup cannot help: every chunk's neighbors equal
        // the batch union.
        assert_eq!(d.v_ori(), d.v_p2p());
        // But intra-GPU reuse still can.
        assert!(d.v_ru() <= d.v_p2p());
    }

    #[test]
    fn dedup_reduces_volume_when_duplication_exists() {
        // A hub-heavy graph guarantees duplicated neighbors across chunks.
        let mut rng = SeededRng::new(4);
        let g = generators::rmat(10, 8000, generators::RmatParams::social(), &mut rng);
        let p = TwoLevelPartition::build(&g, 4, 4, 1);
        let d = DedupPlan::build(&p);
        assert!(
            d.v_p2p() < d.v_ori(),
            "p2p dedup must reduce volume: {} vs {}",
            d.v_p2p(),
            d.v_ori()
        );
    }

    #[test]
    fn first_batch_has_no_reuse() {
        let (_, p) = plan(400, 2, 3, 9);
        let d = DedupPlan::build(&p);
        assert!(d.batches[0].reused.iter().all(|&r| r == 0));
        for i in 0..2 {
            assert_eq!(d.batches[0].new_from_cpu[i], d.batches[0].transition[i]);
        }
    }

    #[test]
    fn transition_ownership_matches_assignment() {
        let (_, p) = plan(400, 3, 2, 11);
        let d = DedupPlan::build(&p);
        for b in &d.batches {
            for (i, t) in b.transition.iter().enumerate() {
                for &v in t {
                    assert_eq!(p.assignment.partition_of[v as usize] as usize, i);
                }
            }
        }
    }

    #[test]
    fn diff_sorted_basics() {
        let (fresh, hit) = diff_sorted(&[1, 3, 5, 7], &[3, 4, 7]);
        assert_eq!(fresh, vec![1, 5]);
        assert_eq!(hit, 2);
        let (fresh, hit) = diff_sorted(&[], &[1]);
        assert!(fresh.is_empty());
        assert_eq!(hit, 0);
    }

    #[test]
    fn union_sorted_basics() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[], &[4]), vec![4]);
        assert_eq!(union_sorted(&[7], &[]), vec![7]);
    }

    #[test]
    fn intersect_size_basics() {
        assert_eq!(intersect_size(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(intersect_size(&[], &[1]), 0);
        assert_eq!(intersect_size(&[5], &[5]), 1);
    }
}
