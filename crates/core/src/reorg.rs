//! Cost-effective subgraph reorganization (paper Algorithm 4, §5.3).
//!
//! Minimizing Equation 4 exactly is NP-hard (reducible to a TSP variant),
//! so HongTu uses a 2-phase greedy heuristic, which we extend with a
//! cache-aware third phase:
//!
//! - **Phase 1** keeps partition 0's chunk order and, for every other
//!   partition, greedily assigns to each batch the not-yet-placed chunk
//!   with the largest neighbor overlap against the batch's running
//!   transition union — maximizing *inter-GPU* duplication.
//! - **Phase 2** reorders whole batches so adjacent batches share the most
//!   transition vertices — maximizing *intra-GPU* reuse.
//! - **Phase 3** refines the phase-2 chain with a bounded adjacent-swap
//!   hill-climb on *frequency-weighted* overlap: vertices appearing in
//!   many batch unions (the hot-vertex cache's best candidates) pull
//!   their batches together, so one resident row serves a run of
//!   consecutive batches through the reuse window and the cache.

use crate::cost::{comm_cost_cached, CommVolumes};
use crate::dedup::{intersect_size, DedupPlan};
use hongtu_graph::VertexId;
use hongtu_partition::{ChunkSubgraph, TwoLevelPartition};
use hongtu_sim::MachineConfig;
use std::sync::Arc;

/// Applies Algorithm 4 and keeps the result only if the Equation-4 cost
/// improved — the "cost model-guided" part of §5.3. Greedy heuristics can
/// regress on adversarial inputs; the guard makes the pass monotone.
pub fn reorganize_guarded(plan: TwoLevelPartition, cfg: &MachineConfig) -> TwoLevelPartition {
    reorganize_guarded_cached(plan, cfg, 0)
}

/// [`reorganize_guarded`] with the cache term: the guard evaluates the
/// extended Equation 4 assuming up to `cache_rows_budget` host-load rows
/// will be served by the hot-vertex cache (clamped to each candidate's
/// `V_+ru` by the cost model). With a cache in play a candidate plan
/// whose raw PCIe volume looks worse can still win once its hot rows are
/// resident.
pub fn reorganize_guarded_cached(
    plan: TwoLevelPartition,
    cfg: &MachineConfig,
    cache_rows_budget: usize,
) -> TwoLevelPartition {
    const ROW_BYTES: usize = 128; // any constant: cost is linear in row size
    let before = comm_cost_cached(
        CommVolumes::from_plan(&DedupPlan::build(&plan)),
        cache_rows_budget,
        cfg,
        ROW_BYTES,
    );
    // The candidate shares its chunks with `plan` and is priced before
    // its chunk ids are renumbered (no plan reads them), so only the
    // plan kept is renumbered, and no chunk is copied.
    let cand = TwoLevelPartition {
        chunks: reordered(&plan),
        assignment: Arc::clone(&plan.assignment),
        ..plan
    };
    let after = comm_cost_cached(
        CommVolumes::from_plan(&DedupPlan::build(&cand)),
        cache_rows_budget,
        cfg,
        ROW_BYTES,
    );
    if after <= before {
        plan.with_chunks(cand.chunks)
    } else {
        plan
    }
}

/// Applies Algorithm 4 and returns the reorganized partition plan.
pub fn reorganize(plan: TwoLevelPartition) -> TwoLevelPartition {
    let grid = reordered(&plan);
    plan.with_chunks(grid)
}

/// Algorithm 4's chunk grid for `plan`: its chunks, shared, in their new
/// positions, their ids not yet renumbered.
fn reordered(plan: &TwoLevelPartition) -> Vec<Vec<Arc<ChunkSubgraph>>> {
    let (m, n) = (plan.m, plan.n);
    let mut grid = plan.chunks.clone();
    if m * n <= 1 {
        return grid;
    }

    // ---- Phase 1: within-partition chunk placement ----
    // unions[j] = running ℕ^∪_j, seeded with partition 0's chunks.
    let mut unions: Vec<Vec<VertexId>> = (0..n).map(|j| grid[0][j].neighbors.clone()).collect();
    for i in 1..m {
        let mut remaining: Vec<Arc<ChunkSubgraph>> = std::mem::take(&mut grid[i]);
        let mut placed: Vec<Arc<ChunkSubgraph>> = Vec::with_capacity(n);
        for union in unions.iter_mut().take(n) {
            // Chunk with the maximum duplicate-neighbor count vs ℕ^∪_j.
            let best = (0..remaining.len())
                .max_by_key(|&c| intersect_size(&remaining[c].neighbors, union))
                .expect("remaining chunks exhausted");
            let chunk = remaining.swap_remove(best);
            merge_sorted_into(union, &chunk.neighbors);
            placed.push(chunk);
        }
        grid[i] = placed;
    }

    // ---- Phase 2: batch ordering ----
    let mut order: Vec<usize> = Vec::with_capacity(n);
    order.push(0);
    let mut remaining: Vec<usize> = (1..n).collect();
    while !remaining.is_empty() {
        let prev = *order.last().unwrap();
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &k)| intersect_size(&unions[k], &unions[prev]))
            .unwrap();
        order.push(remaining.swap_remove(pos));
    }

    // ---- Phase 3: hot-vertex affinity refinement ----
    refine_order_by_heat(&mut order, &unions);

    let mut reordered: Vec<Vec<Arc<ChunkSubgraph>>> =
        (0..m).map(|_| Vec::with_capacity(n)).collect();
    // Drain grid columns in the chosen batch order.
    let mut grid_opt: Vec<Vec<Option<Arc<ChunkSubgraph>>>> = grid
        .into_iter()
        .map(|row| row.into_iter().map(Some).collect())
        .collect();
    for &j in &order {
        for (i, row) in grid_opt.iter_mut().enumerate() {
            reordered[i].push(row[j].take().expect("batch column drained twice"));
        }
    }
    reordered
}

/// Upper bound on hill-climb sweeps: each sweep is `O(n)` swaps over the
/// precomputed `n × n` weight matrix, and adjacent-swap chains converge
/// fast; the cap only bounds adversarial inputs.
const MAX_HEAT_PASSES: usize = 8;

/// Phase 3: deterministic adjacent-swap hill-climb maximizing
/// `Σ_k heat(order[k], order[k+1])`, where `heat(a, b)` weighs each
/// vertex shared by batch unions `a` and `b` with the number of unions
/// it appears in. Phase 2 already chains raw overlaps greedily; this
/// pass fixes the cases where a *hot* vertex (the cache's best
/// candidate) was split across distant batches by a larger but colder
/// overlap.
fn refine_order_by_heat(order: &mut [usize], unions: &[Vec<VertexId>]) {
    let n = order.len();
    if n < 3 {
        return;
    }
    // freq[v] = number of batch unions loading v (unions are ascending,
    // so the largest id of each is its last).
    let ids = unions
        .iter()
        .filter_map(|u| u.last())
        .max()
        .map_or(0, |&v| v as usize + 1);
    let mut freq = vec![0u64; ids];
    for u in unions {
        for &v in u {
            freq[v as usize] += 1;
        }
    }
    // Symmetric pairwise heat matrix (n is small: one row per batch).
    let heat = |a: &[VertexId], b: &[VertexId]| -> u64 {
        let (mut i, mut j, mut w) = (0usize, 0usize, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    w += freq[a[i] as usize];
                    i += 1;
                    j += 1;
                }
            }
        }
        w
    };
    let mut w = vec![vec![0u64; n]; n];
    for a in 0..n {
        for b in (a + 1)..n {
            let h = heat(&unions[a], &unions[b]);
            w[a][b] = h;
            w[b][a] = h;
        }
    }
    for _ in 0..MAX_HEAT_PASSES {
        let mut improved = false;
        for k in 0..n - 1 {
            let (a, b) = (order[k], order[k + 1]);
            // Swapping positions k/k+1 only changes the edges to the
            // outside neighbors (the middle edge is symmetric).
            let mut delta = 0i128;
            if k > 0 {
                let p = order[k - 1];
                delta += w[p][b] as i128 - w[p][a] as i128;
            }
            if k + 2 < n {
                let s = order[k + 2];
                delta += w[a][s] as i128 - w[b][s] as i128;
            }
            if delta > 0 {
                order.swap(k, k + 1);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Merges sorted `extra` into sorted `target`, deduplicating.
fn merge_sorted_into(target: &mut Vec<VertexId>, extra: &[VertexId]) {
    let mut merged = Vec::with_capacity(target.len() + extra.len());
    let (mut a, mut b) = (0usize, 0usize);
    while a < target.len() && b < extra.len() {
        match target[a].cmp(&extra[b]) {
            std::cmp::Ordering::Less => {
                merged.push(target[a]);
                a += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(extra[b]);
                b += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(target[a]);
                a += 1;
                b += 1;
            }
        }
    }
    merged.extend_from_slice(&target[a..]);
    merged.extend_from_slice(&extra[b..]);
    *target = merged;
}

#[cfg(test)]
mod tests {
    use super::super::cost::{comm_cost, CommVolumes};
    use super::*;
    use crate::dedup::DedupPlan;
    use hongtu_graph::generators;
    use hongtu_tensor::SeededRng;

    #[test]
    fn merge_sorted_into_dedups() {
        let mut t = vec![1, 3, 5];
        merge_sorted_into(&mut t, &[2, 3, 6]);
        assert_eq!(t, vec![1, 2, 3, 5, 6]);
        let mut t: Vec<VertexId> = vec![];
        merge_sorted_into(&mut t, &[4, 9]);
        assert_eq!(t, vec![4, 9]);
    }

    #[test]
    fn reorganization_preserves_plan_validity() {
        let mut rng = SeededRng::new(1);
        let g = generators::rmat(11, 16_000, generators::RmatParams::social(), &mut rng);
        let plan = hongtu_partition::TwoLevelPartition::build(&g, 4, 6, 1);
        let reorg = reorganize(plan);
        assert!(reorg.validate(&g).is_ok());
        let d = DedupPlan::build(&reorg);
        assert!(d.validate(&reorg).is_ok());
    }

    #[test]
    fn reorganization_does_not_increase_cost() {
        // On graphs with duplicated neighbors, Algorithm 4 should lower (or
        // at worst keep) the Equation-4 cost.
        let cfg = MachineConfig::a100_4x();
        for seed in [1u64, 2, 3] {
            let mut rng = SeededRng::new(seed);
            let g = generators::rmat(11, 20_000, generators::RmatParams::social(), &mut rng);
            let plan = hongtu_partition::TwoLevelPartition::build(&g, 4, 8, seed);
            let before = comm_cost(CommVolumes::from_plan(&DedupPlan::build(&plan)), &cfg, 128);
            let reorg = reorganize(plan);
            let after = comm_cost(CommVolumes::from_plan(&DedupPlan::build(&reorg)), &cfg, 128);
            assert!(
                after <= before * 1.02,
                "seed {seed}: cost went up: {before:.6} -> {after:.6}"
            );
        }
    }

    #[test]
    fn guarded_reorganization_never_regresses_cost() {
        // On an id-local graph scrambled by chunk order, the guarded pass
        // must end at a plan no more expensive than the scrambled input.
        let cfg = MachineConfig::a100_4x();
        let mut rng = SeededRng::new(5);
        let g = generators::local_window(4000, 8.0, 40.0, &mut rng);
        let plan = hongtu_partition::TwoLevelPartition::build(&g, 2, 8, 3);
        let mut grid = plan.chunks.clone();
        for row in &mut grid {
            row.swap(0, 5);
            row.swap(1, 6);
            row.swap(2, 4);
        }
        let scrambled = plan.with_chunks(grid);
        let cost_of = |p: &hongtu_partition::TwoLevelPartition| {
            comm_cost(CommVolumes::from_plan(&DedupPlan::build(p)), &cfg, 128)
        };
        let before = cost_of(&scrambled);
        let reorg = reorganize_guarded(scrambled, &cfg);
        let after = cost_of(&reorg);
        assert!(
            after <= before,
            "guarded cost regressed: {before} -> {after}"
        );
        assert!(reorg.validate(&g).is_ok());
    }

    #[test]
    fn heat_refinement_pulls_hot_batches_together() {
        // Batches 0 and 2 share three hot vertices; batch 1 shares
        // nothing with either. Phase 3 must make 0 and 2 adjacent.
        let unions: Vec<Vec<VertexId>> = vec![vec![1, 2, 3, 9], vec![7, 8], vec![1, 2, 3]];
        let mut order = vec![0usize, 1, 2];
        refine_order_by_heat(&mut order, &unions);
        let pos = |b: usize| order.iter().position(|&x| x == b).unwrap();
        assert_eq!(
            pos(0).abs_diff(pos(2)),
            1,
            "hot pair split: order {order:?}"
        );
        // Deterministic: a second run from the refined order is a fixpoint.
        let again = order.clone();
        let mut order2 = order.clone();
        refine_order_by_heat(&mut order2, &unions);
        assert_eq!(order2, again);
    }

    #[test]
    fn heat_refinement_ignores_short_chains() {
        let unions: Vec<Vec<VertexId>> = vec![vec![1], vec![1]];
        let mut order = vec![0usize, 1];
        refine_order_by_heat(&mut order, &unions);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn cached_guard_never_regresses_cached_cost() {
        // Same scrambled scenario as the plain guard, evaluated under the
        // cache-extended Equation 4: still monotone.
        let cfg = MachineConfig::a100_4x();
        let mut rng = SeededRng::new(6);
        let g = generators::local_window(4000, 8.0, 40.0, &mut rng);
        let plan = hongtu_partition::TwoLevelPartition::build(&g, 2, 8, 3);
        let mut grid = plan.chunks.clone();
        for row in &mut grid {
            row.swap(0, 7);
            row.swap(2, 5);
        }
        let scrambled = plan.with_chunks(grid);
        let budget = 10_000usize;
        let cost_of = |p: &hongtu_partition::TwoLevelPartition| {
            comm_cost_cached(
                CommVolumes::from_plan(&DedupPlan::build(p)),
                budget,
                &cfg,
                128,
            )
        };
        let before = cost_of(&scrambled);
        let reorg = reorganize_guarded_cached(scrambled, &cfg, budget);
        let after = cost_of(&reorg);
        assert!(
            after <= before,
            "cached guard regressed: {before} -> {after}"
        );
        assert!(reorg.validate(&g).is_ok());
    }

    #[test]
    fn volumes_preserved_in_total_access() {
        // Reorganization permutes chunks; V_ori (total accesses) only
        // depends on the chunk contents, so it must be unchanged.
        let mut rng = SeededRng::new(7);
        let g = generators::erdos_renyi(2000, 6.0, &mut rng);
        let plan = hongtu_partition::TwoLevelPartition::build(&g, 3, 4, 2);
        let before = DedupPlan::build(&plan).v_ori();
        let reorg = reorganize(plan);
        assert_eq!(DedupPlan::build(&reorg).v_ori(), before);
    }

    #[test]
    fn trivial_plans_pass_through() {
        let mut rng = SeededRng::new(9);
        let g = generators::erdos_renyi(50, 3.0, &mut rng);
        let plan = hongtu_partition::TwoLevelPartition::build(&g, 1, 1, 1);
        let reorg = reorganize(plan);
        assert_eq!(reorg.chunks[0][0].num_dests(), 50);
    }
}
