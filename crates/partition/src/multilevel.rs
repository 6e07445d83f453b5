//! Multilevel graph partitioner — the METIS stand-in (paper §4.1 uses METIS
//! to "improve load balancing and group closely linked vertices into one
//! partition").
//!
//! The classic three-phase scheme:
//! 1. **Coarsening** by heavy-edge matching: repeatedly contract a maximal
//!    matching that prefers heavy edges, accumulating vertex and edge
//!    weights, until the graph is small.
//! 2. **Initial partitioning** by greedy region growing over the coarsest
//!    graph, respecting vertex-weight balance.
//! 3. **Uncoarsening with refinement**: project the partition back level by
//!    level, and at each level run boundary-vertex Kernighan–Lin-style
//!    passes that move vertices to the neighboring partition with the
//!    highest edge-weight gain, subject to the balance constraint.

use crate::{Assignment, Partitioner};
use hongtu_graph::{Graph, VertexId};
use hongtu_tensor::SeededRng;

/// Weighted undirected working graph used internally by the partitioner.
/// Rows are ascending by neighbor id and every edge weight is at least 1.
///
/// Edge weights are stored as `u32` — a coarsening run keeps every level
/// alive, so they are most of its peak memory — and widened wherever
/// they are summed. A weight counts fine edges, so it only passes
/// `u32::MAX` on a graph of more than 2³¹ edges ([`narrow`]).
#[derive(Debug, Clone, PartialEq)]
struct WorkGraph {
    offsets: Vec<usize>,
    nbrs: Vec<u32>,
    weights: Vec<u32>,
    vwgt: Vec<u64>,
}

/// An accumulated edge weight as stored.
///
/// # Panics
///
/// Panics if `w` exceeds `u32::MAX`, which takes more than 2³¹ edges.
fn narrow(w: u64) -> u32 {
    u32::try_from(w).expect("an edge weight past u32::MAX needs more than 2^31 edges")
}

impl WorkGraph {
    fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let r = self.offsets[v]..self.offsets[v + 1];
        self.nbrs[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().map(|&w| u64::from(w)))
    }

    fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Symmetrized, weight-merged version of a directed [`Graph`]: `u` is
    /// a neighbor of `v` with weight (number of `v → u` edges) + (number
    /// of `u → v` edges), self-loops dropped.
    ///
    /// Both adjacency rows of `v` are sorted, so their union comes out of
    /// a two-way merge already in order — `O(|V| + |E|)`, no pair vector
    /// and no sort. A row that is not ascending (a hand-built or
    /// file-loaded graph) is sorted into a scratch buffer first.
    fn from_graph(g: &Graph) -> Self {
        fn ascending<'a>(row: &'a [u32], scratch: &'a mut Vec<u32>) -> &'a [u32] {
            if row.is_sorted() {
                return row;
            }
            scratch.clear();
            scratch.extend_from_slice(row);
            scratch.sort_unstable();
            scratch
        }
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbrs = Vec::with_capacity(g.num_edges() * 2);
        let mut weights: Vec<u32> = Vec::with_capacity(g.num_edges() * 2);
        let (mut out_scratch, mut in_scratch) = (Vec::new(), Vec::new());
        offsets.push(0);
        for v in 0..n as u32 {
            let out = ascending(g.out_neighbors(v), &mut out_scratch);
            let inn = ascending(g.in_neighbors(v), &mut in_scratch);
            let (mut i, mut j) = (0, 0);
            while i < out.len() || j < inn.len() {
                let u = match (out.get(i), inn.get(j)) {
                    (Some(&a), Some(&b)) => a.min(b),
                    (Some(&a), None) | (None, Some(&a)) => a,
                    (None, None) => unreachable!("loop condition"),
                };
                // Runs, not single entries: a multigraph row repeats ids.
                let mut w = 0u64;
                while out.get(i) == Some(&u) {
                    w += 1;
                    i += 1;
                }
                while inn.get(j) == Some(&u) {
                    w += 1;
                    j += 1;
                }
                if u != v {
                    nbrs.push(u);
                    weights.push(narrow(w));
                }
            }
            offsets.push(nbrs.len());
        }
        WorkGraph {
            offsets,
            nbrs,
            weights,
            vwgt: vec![1; n],
        }
    }

    /// The body `from_graph` replaced — both directions of every edge into
    /// one pair vector, globally sorted — kept as the oracle.
    #[cfg(test)]
    fn from_graph_reference(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(g.num_edges() * 2);
        for (s, t) in g.csr.edges() {
            if s != t {
                pairs.push((s, t));
                pairs.push((t, s));
            }
        }
        pairs.sort_unstable();
        let mut offsets = vec![0usize; n + 1];
        let mut nbrs = Vec::with_capacity(pairs.len());
        let mut weights: Vec<u32> = Vec::with_capacity(pairs.len());
        let mut i = 0;
        while i < pairs.len() {
            let (s, t) = pairs[i];
            let mut w = 0u64;
            while i < pairs.len() && pairs[i] == (s, t) {
                w += 1;
                i += 1;
            }
            nbrs.push(t);
            weights.push(narrow(w));
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        WorkGraph {
            offsets,
            nbrs,
            weights,
            vwgt: vec![1; n],
        }
    }
}

/// METIS-style multilevel partitioner.
#[derive(Debug, Clone)]
pub struct MultilevelPartitioner {
    /// Allowed imbalance: max part weight ≤ `(1 + balance_eps) · total/parts`.
    pub balance_eps: f64,
    /// Stop coarsening once `|V| ≤ coarsen_per_part · parts`.
    pub coarsen_per_part: usize,
    /// Refinement passes per level.
    pub refine_passes: usize,
    /// RNG seed (matching order, seed selection).
    pub seed: u64,
}

impl Default for MultilevelPartitioner {
    fn default() -> Self {
        MultilevelPartitioner {
            balance_eps: 0.10,
            coarsen_per_part: 24,
            refine_passes: 4,
            seed: 1,
        }
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition(&self, g: &Graph, parts: usize) -> Assignment {
        let n = g.num_vertices();
        assert!(parts >= 1, "need at least one partition");
        assert!(parts <= n, "more partitions ({parts}) than vertices ({n})");
        if parts == 1 {
            return Assignment {
                partition_of: vec![0; n],
                num_parts: 1,
            };
        }
        let mut rng = SeededRng::new(self.seed);
        let base = WorkGraph::from_graph(g);

        // Phase 1: coarsen.
        let mut levels: Vec<(WorkGraph, Vec<u32>)> = Vec::new(); // (fine graph, fine→coarse map)
        let mut cur = base;
        let target = (self.coarsen_per_part * parts).max(64);
        while cur.num_vertices() > target {
            let (coarse, map) = coarsen_once(&cur, &mut rng);
            let shrink = coarse.num_vertices() as f64 / cur.num_vertices() as f64;
            levels.push((cur, map));
            cur = coarse;
            if shrink > 0.95 {
                break; // diminishing returns (e.g. star graphs)
            }
        }

        // Phase 2: initial partition on the coarsest graph.
        let mut labels = greedy_grow(&cur, parts, self.balance_eps, &mut rng);
        refine(
            &cur,
            &mut labels,
            parts,
            self.balance_eps,
            self.refine_passes,
        );

        // Phase 3: project back with refinement at every level.
        while let Some((fine, map)) = levels.pop() {
            let mut fine_labels = vec![0u32; fine.num_vertices()];
            for (v, l) in fine_labels.iter_mut().enumerate() {
                *l = labels[map[v] as usize];
            }
            refine(
                &fine,
                &mut fine_labels,
                parts,
                self.balance_eps,
                self.refine_passes,
            );
            labels = fine_labels;
        }

        ensure_no_empty_parts(&mut labels, parts);
        let a = Assignment {
            partition_of: labels,
            num_parts: parts,
        };
        debug_assert!(a.validate().is_ok());
        a
    }
}

/// One round of heavy-edge matching contraction. Returns the coarse graph
/// and the fine→coarse vertex map.
fn coarsen_once(g: &WorkGraph, rng: &mut SeededRng) -> (WorkGraph, Vec<u32>) {
    let (map, members) = heavy_edge_matching(g, rng);
    (contract(g, &map, &members), map)
}

/// A maximal matching preferring heavy edges, numbered in fine-id order.
/// Returns the fine→coarse map and, per coarse vertex, its one or two fine
/// members, lower id first (a singleton names itself twice).
fn heavy_edge_matching(g: &WorkGraph, rng: &mut SeededRng) -> (Vec<u32>, Vec<(u32, u32)>) {
    let n = g.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let mut matched = vec![u32::MAX; n];
    for &v in &order {
        let v = v as usize;
        if matched[v] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(u32, u64)> = None;
        for (u, w) in g.neighbors(v) {
            if matched[u as usize] == u32::MAX
                && u as usize != v
                && best.is_none_or(|(_, bw)| w > bw)
            {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                matched[v] = u;
                matched[u as usize] = v as u32;
            }
            None => matched[v] = v as u32, // self-matched (stays singleton)
        }
    }
    // Number coarse vertices.
    let mut map = vec![u32::MAX; n];
    let mut members: Vec<(u32, u32)> = Vec::with_capacity(n);
    for v in 0..n {
        if map[v] != u32::MAX {
            continue;
        }
        let c = members.len() as u32;
        map[v] = c;
        map[matched[v] as usize] = c;
        members.push((v as u32, matched[v]));
    }
    (map, members)
}

/// Contracts `g` along `map`, one coarse row at a time: the row of coarse
/// vertex `c` is its members' adjacency mapped through `map`, weights
/// accumulated per coarse neighbor in the dense `acc` scratch, intra-pair
/// edges dropped. Only the row's distinct neighbors (`touched`) are
/// sorted, never the graph: `O(|V| + |E| + Σ_c d_c log d_c)`.
///
/// Rows are emitted ascending by coarse id and sorted by neighbor, and
/// integer addition commutes, so this is exactly the graph a global sort
/// of all `(map[v], map[u], w)` triples followed by a run-merge yields.
fn contract(g: &WorkGraph, map: &[u32], members: &[(u32, u32)]) -> WorkGraph {
    let cn = members.len();
    let mut offsets = Vec::with_capacity(cn + 1);
    let mut nbrs = Vec::with_capacity(g.nbrs.len());
    let mut weights = Vec::with_capacity(g.nbrs.len());
    let mut vwgt = Vec::with_capacity(cn);
    // acc[cu] > 0 ⇔ cu is in `touched`: edge weights are never zero.
    let mut acc = vec![0u64; cn];
    let mut touched: Vec<u32> = Vec::new();
    offsets.push(0);
    for (c, &(first, second)) in members.iter().enumerate() {
        let pair = [first, second];
        let fine = &pair[..1 + usize::from(second != first)];
        let mut cw = 0u64;
        for &v in fine {
            cw += g.vwgt[v as usize];
            for (u, w) in g.neighbors(v as usize) {
                let cu = map[u as usize];
                if cu as usize != c {
                    if acc[cu as usize] == 0 {
                        touched.push(cu);
                    }
                    acc[cu as usize] += w;
                }
            }
        }
        vwgt.push(cw);
        touched.sort_unstable();
        for &cu in &touched {
            nbrs.push(cu);
            weights.push(narrow(std::mem::take(&mut acc[cu as usize])));
        }
        touched.clear();
        offsets.push(nbrs.len());
    }
    WorkGraph {
        offsets,
        nbrs,
        weights,
        vwgt,
    }
}

/// The body `contract` replaced — every mapped edge as a 16-byte triple,
/// globally sorted, runs merged — kept as the oracle.
#[cfg(test)]
fn contract_reference(g: &WorkGraph, map: &[u32], cn: usize) -> WorkGraph {
    let n = g.num_vertices();
    let mut vwgt = vec![0u64; cn];
    for v in 0..n {
        vwgt[map[v] as usize] += g.vwgt[v];
    }
    let mut pairs: Vec<(u32, u32, u64)> = Vec::new();
    for v in 0..n {
        let cv = map[v];
        for (u, w) in g.neighbors(v) {
            let cu = map[u as usize];
            if cv != cu {
                pairs.push((cv, cu, w));
            }
        }
    }
    pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
    let mut offsets = vec![0usize; cn + 1];
    let mut nbrs = Vec::new();
    let mut weights = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let (a, b, _) = pairs[i];
        let mut w = 0u64;
        while i < pairs.len() && pairs[i].0 == a && pairs[i].1 == b {
            w += pairs[i].2;
            i += 1;
        }
        nbrs.push(b);
        weights.push(narrow(w));
        offsets[a as usize + 1] += 1;
    }
    for v in 0..cn {
        offsets[v + 1] += offsets[v];
    }
    WorkGraph {
        offsets,
        nbrs,
        weights,
        vwgt,
    }
}

/// Greedy region growing over the (coarse) graph.
fn greedy_grow(g: &WorkGraph, parts: usize, eps: f64, rng: &mut SeededRng) -> Vec<u32> {
    let n = g.num_vertices();
    let total = g.total_vwgt();
    let target = (total as f64 / parts as f64).ceil();
    let cap = (target * (1.0 + eps)).ceil() as u64;
    let mut labels = vec![u32::MAX; n];
    let mut part_wgt = vec![0u64; parts];
    let mut unassigned = n;
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let mut order_cursor = 0;
    for p in 0..parts.saturating_sub(1) {
        // Seed: next unassigned vertex in the shuffled order.
        while order_cursor < n && labels[order[order_cursor] as usize] != u32::MAX {
            order_cursor += 1;
        }
        if order_cursor >= n {
            break;
        }
        let seed = order[order_cursor] as usize;
        let mut frontier = std::collections::VecDeque::from([seed as u32]);
        labels[seed] = p as u32;
        part_wgt[p] += g.vwgt[seed];
        unassigned -= 1;
        while part_wgt[p] < target as u64 && unassigned > 0 {
            let Some(v) = frontier.pop_front() else {
                // Region exhausted; jump to a fresh unassigned seed.
                while order_cursor < n && labels[order[order_cursor] as usize] != u32::MAX {
                    order_cursor += 1;
                }
                if order_cursor >= n {
                    break;
                }
                let s = order[order_cursor] as usize;
                labels[s] = p as u32;
                part_wgt[p] += g.vwgt[s];
                unassigned -= 1;
                frontier.push_back(s as u32);
                continue;
            };
            for (u, _) in g.neighbors(v as usize) {
                let u = u as usize;
                if labels[u] == u32::MAX && part_wgt[p] + g.vwgt[u] <= cap {
                    labels[u] = p as u32;
                    part_wgt[p] += g.vwgt[u];
                    unassigned -= 1;
                    frontier.push_back(u as u32);
                    if part_wgt[p] >= target as u64 {
                        break;
                    }
                }
            }
        }
    }
    // Everything left goes to the last partition (refinement will fix skew).
    for l in labels.iter_mut() {
        if *l == u32::MAX {
            *l = parts as u32 - 1;
        }
    }
    labels
}

/// Boundary refinement: KL-style greedy single-vertex moves.
fn refine(g: &WorkGraph, labels: &mut [u32], parts: usize, eps: f64, passes: usize) {
    let total = g.total_vwgt();
    let cap = ((total as f64 / parts as f64) * (1.0 + eps)).ceil() as u64;
    let mut part_wgt = vec![0u64; parts];
    for (v, &l) in labels.iter().enumerate() {
        part_wgt[l as usize] += g.vwgt[v];
    }
    let mut conn = vec![0u64; parts];
    let mut touched: Vec<usize> = Vec::with_capacity(parts);
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..g.num_vertices() {
            let from = labels[v] as usize;
            // Connectivity of v to each partition.
            for (u, w) in g.neighbors(v) {
                let p = labels[u as usize] as usize;
                if conn[p] == 0 {
                    touched.push(p);
                }
                conn[p] += w;
            }
            let own = conn[from];
            let mut best: Option<(usize, u64)> = None;
            for &p in &touched {
                if p != from
                    && conn[p] > own
                    && part_wgt[p] + g.vwgt[v] <= cap
                    && part_wgt[from] > g.vwgt[v]
                    && best.is_none_or(|(_, bw)| conn[p] > bw)
                {
                    best = Some((p, conn[p]));
                }
            }
            if let Some((p, _)) = best {
                labels[v] = p as u32;
                part_wgt[from] -= g.vwgt[v];
                part_wgt[p] += g.vwgt[v];
                moved += 1;
            }
            for p in touched.drain(..) {
                conn[p] = 0;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Guarantees every partition label is used (downstream code requires
/// non-empty partitions); steals vertices from the largest partition.
fn ensure_no_empty_parts(labels: &mut [u32], parts: usize) {
    let mut sizes = vec![0usize; parts];
    for &l in labels.iter() {
        sizes[l as usize] += 1;
    }
    for p in 0..parts {
        if sizes[p] == 0 {
            let donor = sizes
                .iter()
                .enumerate()
                .max_by_key(|&(_, &s)| s)
                .map(|(i, _)| i)
                .unwrap();
            let v = labels.iter().position(|&l| l as usize == donor).unwrap();
            labels[v] = p as u32;
            sizes[donor] -= 1;
            sizes[p] += 1;
        }
    }
}

/// Convenience: partition `g` into `parts` with default settings and `seed`.
pub fn metis_like(g: &Graph, parts: usize, seed: u64) -> Assignment {
    MultilevelPartitioner {
        seed,
        ..Default::default()
    }
    .partition(g, parts)
}

/// Portfolio partitioning: runs the multilevel partitioner *and* the
/// contiguous-range baseline and keeps whichever cuts fewer edges. Real
/// METIS dominates both; on id-local graphs (web crawls, citation graphs
/// laid out by publication order) the contiguous split is often already
/// near-optimal, and this guard keeps the heuristic multilevel code from
/// regressing below it.
pub fn best_of(g: &Graph, parts: usize, seed: u64) -> Assignment {
    let ml = metis_like(g, parts, seed);
    let range = crate::simple::range_partition(g.num_vertices(), parts);
    let cut = |a: &Assignment| {
        g.csr
            .edges()
            .filter(|&(s, t)| a.partition_of[s as usize] != a.partition_of[t as usize])
            .count()
    };
    if cut(&range) < cut(&ml) {
        range
    } else {
        ml
    }
}

/// Relabels vertices so each partition's members are contiguous and ordered
/// by original id; returns `(new_id_of, old_id_of, part_ranges)`.
///
/// HongTu's range-based chunking assumes each partition occupies a
/// contiguous id range (Figure 5); this produces that layout.
pub fn contiguous_relabel(
    a: &Assignment,
) -> (Vec<VertexId>, Vec<VertexId>, Vec<std::ops::Range<usize>>) {
    let members = a.members();
    let n = a.partition_of.len();
    let mut new_id_of = vec![0 as VertexId; n];
    let mut old_id_of = vec![0 as VertexId; n];
    let mut ranges = Vec::with_capacity(a.num_parts);
    let mut next = 0usize;
    for part in &members {
        let start = next;
        for &old in part {
            new_id_of[old as usize] = next as VertexId;
            old_id_of[next] = old;
            next += 1;
        }
        ranges.push(start..next);
    }
    (new_id_of, old_id_of, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use hongtu_graph::generators;

    fn ring_of_cliques(k: usize, clique: usize) -> Graph {
        // k cliques of size `clique`, connected in a ring by single edges.
        let n = k * clique;
        let mut b = hongtu_graph::GraphBuilder::new(n);
        for c in 0..k {
            let base = c * clique;
            for i in 0..clique {
                for j in 0..clique {
                    if i != j {
                        b.add_edge((base + i) as u32, (base + j) as u32);
                    }
                }
            }
            let next = ((c + 1) % k) * clique;
            b.add_undirected(base as u32, next as u32);
        }
        b.build()
    }

    /// A multigraph over `n + 2` vertices (the last two isolated): every
    /// third edge twice, self-loops kept or dropped, optionally a hub
    /// adjacent to everything, optionally with every row descending and
    /// partly repeated (what only a hand-built or file-loaded graph has).
    fn multigraph(
        n: u32,
        raw: &[(u32, u32)],
        keep_loops: bool,
        hub: bool,
        scramble: bool,
    ) -> Graph {
        let mut b = hongtu_graph::GraphBuilder::new(n as usize + 2);
        if keep_loops {
            b = b.keep_self_loops();
        }
        for &(s, t) in raw {
            b.add_edge(s % n, t % n);
        }
        if hub {
            for v in 0..n {
                b.add_undirected(0, v);
            }
        }
        let g = b.build();
        if !scramble {
            return g;
        }
        let mut csr = hongtu_graph::Csr::empty(0);
        for v in 0..g.num_vertices() as u32 {
            let row = g.out_neighbors(v);
            csr.targets.extend(row.iter().rev());
            csr.targets.extend(row.iter().step_by(3));
            csr.offsets.push(csr.targets.len());
        }
        Graph::from_csr(csr)
    }

    proptest::proptest! {
        /// Merge-built symmetrisation = the pair-sort body it replaced.
        #[test]
        fn from_graph_equals_the_pair_sort_reference(
            n in 1u32..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..250),
            keep_loops in 0u32..2,
            hub in 0u32..2,
            scramble in 0u32..2
        ) {
            let g = multigraph(n, &raw, keep_loops == 1, hub == 1, scramble == 1);
            proptest::prop_assert_eq!(
                WorkGraph::from_graph(&g),
                WorkGraph::from_graph_reference(&g)
            );
        }

        /// Row-at-a-time contraction = the tuple-sort body it replaced, at
        /// every level of a coarsening run (so merged vertex weights and
        /// summed edge weights are in play, not only the unit base graph).
        #[test]
        fn contract_equals_the_tuple_sort_reference(
            n in 1u32..60,
            raw in proptest::collection::vec((0u32..60, 0u32..60), 0..400),
            hub in 0u32..2,
            seed in 0u64..1_000_000
        ) {
            let mut rng = SeededRng::new(seed);
            let mut g = WorkGraph::from_graph(&multigraph(n, &raw, false, hub == 1, false));
            for _ in 0..4 {
                let (map, members) = heavy_edge_matching(&g, &mut rng);
                let coarse = contract(&g, &map, &members);
                proptest::prop_assert_eq!(&coarse, &contract_reference(&g, &map, members.len()));
                g = coarse;
            }
        }
    }

    #[test]
    fn recovers_clique_structure() {
        let g = ring_of_cliques(4, 16);
        let a = metis_like(&g, 4, 7);
        assert!(a.validate().is_ok());
        // Each clique should end up (almost) entirely in one partition:
        // cut edges should be close to the 8 ring edges, far below random.
        let q = PartitionQuality::measure(&g, &a);
        assert!(q.cut_edges <= g.num_edges() / 10, "cut = {}", q.cut_edges);
    }

    #[test]
    fn balance_is_respected() {
        let mut rng = hongtu_tensor::SeededRng::new(3);
        let g = generators::erdos_renyi(2000, 6.0, &mut rng);
        let a = metis_like(&g, 8, 5);
        let sizes = a.sizes();
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(max <= (2000.0 / 8.0) * 1.25, "max part size {max}");
    }

    #[test]
    fn beats_hash_partitioning_on_local_graphs() {
        let mut rng = hongtu_tensor::SeededRng::new(9);
        let g = generators::local_window(3000, 6.0, 30.0, &mut rng);
        let ml = PartitionQuality::measure(&g, &metis_like(&g, 4, 2));
        let hp = PartitionQuality::measure(&g, &crate::simple::hash_partition(3000, 4));
        assert!(
            ml.cut_fraction < hp.cut_fraction * 0.6,
            "multilevel {} vs hash {}",
            ml.cut_fraction,
            hp.cut_fraction
        );
    }

    #[test]
    fn many_partitions_all_nonempty() {
        let mut rng = hongtu_tensor::SeededRng::new(4);
        let g = generators::erdos_renyi(4000, 4.0, &mut rng);
        let a = metis_like(&g, 128, 11);
        assert!(a.validate().is_ok());
        assert!(a.sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn single_partition_is_identity() {
        let g = ring_of_cliques(2, 4);
        let a = metis_like(&g, 1, 0);
        assert!(a.partition_of.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = ring_of_cliques(3, 10);
        let a = metis_like(&g, 3, 42);
        let b = metis_like(&g, 3, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn contiguous_relabel_roundtrips() {
        let g = ring_of_cliques(3, 8);
        let a = metis_like(&g, 3, 1);
        let (new_id, old_id, ranges) = contiguous_relabel(&a);
        for v in 0..g.num_vertices() {
            assert_eq!(old_id[new_id[v] as usize] as usize, v);
        }
        // Ranges tile 0..n and match partition sizes.
        assert_eq!(
            ranges.iter().map(|r| r.len()).sum::<usize>(),
            g.num_vertices()
        );
        let sizes = a.sizes();
        for (p, r) in ranges.iter().enumerate() {
            assert_eq!(r.len(), sizes[p]);
            for i in r.clone() {
                assert_eq!(a.partition_of[old_id[i] as usize] as usize, p);
            }
        }
    }

    #[test]
    fn handles_star_graph_without_stalling() {
        // Stars defeat matching (one round barely shrinks); must terminate.
        let mut b = hongtu_graph::GraphBuilder::new(500);
        for v in 1..500u32 {
            b.add_undirected(0, v);
        }
        let g = b.build();
        let a = metis_like(&g, 4, 13);
        assert!(a.validate().is_ok());
    }
}
