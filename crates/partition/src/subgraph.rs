//! Per-chunk subgraph: the unit of GPU execution (paper Figure 5).
//!
//! A chunk owns a disjoint set of destination vertices and **all** their
//! in-edges. Edges reference neighbors through a *local* index into the
//! chunk's deduplicated neighbor list `N_ij`, which is exactly the layout
//! the computation engine needs to read neighbor data out of the on-GPU
//! neighbor buffer (paper §6, "in-place neighbor data management").

use crate::dedup::union_sorted;
use hongtu_graph::{Graph, VertexId};

/// A partitioned subgraph `G_ij`: destination set `V_ij`, in-edges `E_ij`,
/// and deduplicated neighbor list `N_ij`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkSubgraph {
    /// Owning partition id `i` (the GPU this chunk is scheduled on).
    pub part: usize,
    /// Chunk id `j` within the partition (the batch it belongs to).
    pub chunk: usize,
    /// Destination vertices (global ids, ascending). `V_ij`.
    pub dests: Vec<VertexId>,
    /// Deduplicated in-neighbor list (global ids, ascending). `N_ij`.
    pub neighbors: Vec<VertexId>,
    /// Local CSC offsets: in-edges of `dests[k]` occupy
    /// `offsets[k]..offsets[k+1]` of `nbr_index` / `gcn_weights`.
    pub offsets: Vec<usize>,
    /// Per-edge index into `neighbors` (the local neighbor id of the source).
    pub nbr_index: Vec<u32>,
    /// Per-edge symmetric GCN weight `d_uv` (Equation 2).
    pub gcn_weights: Vec<f32>,
}

/// The sizes a chunk's device footprint is a function of: destinations
/// `|V_ij|`, in-edges `|E_ij|` and distinct neighbors `|N_ij|`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkShape {
    /// Destination vertices.
    pub dests: usize,
    /// In-edges.
    pub edges: usize,
    /// Distinct in-neighbors.
    pub neighbors: usize,
}

impl ChunkShape {
    /// Bytes of topology a chunk of this shape occupies on a device
    /// (offsets + edge indices + weights + the two vertex-id lists).
    pub fn topology_bytes(&self) -> usize {
        (self.dests + 1) * std::mem::size_of::<usize>()
            + self.edges * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
            + (self.dests + self.neighbors) * std::mem::size_of::<VertexId>()
    }
}

impl ChunkSubgraph {
    /// Builds the chunk subgraph for destination set `dests` (must be sorted
    /// and unique) against the full graph `g`.
    pub fn build(g: &Graph, part: usize, chunk: usize, dests: Vec<VertexId>) -> Self {
        Self::build_in(g, part, chunk, dests, &mut Vec::new())
    }

    /// [`ChunkSubgraph::build`] over a caller-owned scratch, so a whole
    /// grid shares one. `local_of` starts out empty; between calls it
    /// holds one `UNSEEN` entry per vertex of `g`.
    ///
    /// In-neighbors are marked in the dense map as they are first met, so
    /// only the *distinct* ones (`|N_ij|`, not `|E_ij|`) are sorted, and an
    /// edge finds its local neighbor id by indexing, not by searching.
    pub(crate) fn build_in(
        g: &Graph,
        part: usize,
        chunk: usize,
        dests: Vec<VertexId>,
        local_of: &mut Vec<u32>,
    ) -> Self {
        /// "Not an in-neighbor of this chunk": no chunk has `u32::MAX`
        /// distinct neighbors, so it is never a local id.
        const UNSEEN: u32 = u32::MAX;
        local_of.resize(g.num_vertices(), UNSEEN);
        debug_assert!(
            dests.windows(2).all(|w| w[0] < w[1]),
            "dests must be sorted & unique"
        );
        // Collect the union of in-neighbors.
        let mut neighbors: Vec<VertexId> = Vec::new();
        let mut edges = 0usize;
        for &d in &dests {
            let row = g.in_neighbors(d);
            edges += row.len();
            for &u in row {
                if local_of[u as usize] == UNSEEN {
                    local_of[u as usize] = 0;
                    neighbors.push(u);
                }
            }
        }
        neighbors.sort_unstable();
        for (local, &u) in neighbors.iter().enumerate() {
            local_of[u as usize] = local as u32;
        }
        // Local edge lists.
        let mut offsets = Vec::with_capacity(dests.len() + 1);
        offsets.push(0usize);
        let mut nbr_index = Vec::with_capacity(edges);
        let mut gcn_weights = Vec::with_capacity(edges);
        for &d in &dests {
            let dv = (1 + g.in_degree(d)) as f32;
            for &u in g.in_neighbors(d) {
                nbr_index.push(local_of[u as usize]);
                let du = (1 + g.out_degree(u)) as f32;
                gcn_weights.push(1.0 / (du * dv).sqrt());
            }
            offsets.push(nbr_index.len());
        }
        for &u in &neighbors {
            local_of[u as usize] = UNSEEN;
        }
        ChunkSubgraph {
            part,
            chunk,
            dests,
            neighbors,
            offsets,
            nbr_index,
            gcn_weights,
        }
    }

    /// This chunk brought up to date with `g`, a graph that keeps the
    /// in-lists of its destinations but may have moved the out-degrees
    /// of their sources: a copy whose weight on every edge out of a
    /// source `u` with `degree_moved[u]` is recomputed with
    /// [`ChunkSubgraph::build`]'s own expression, the rest kept. Equal,
    /// bit for bit, to `build` of the same destinations against `g` when
    /// `degree_moved` flags every source whose out-degree `g` changed.
    pub(crate) fn reweighted(&self, g: &Graph, degree_moved: &[bool]) -> Self {
        let mut fresh = self.clone();
        let moved: Vec<bool> = self
            .neighbors
            .iter()
            .map(|&u| degree_moved[u as usize])
            .collect();
        if !moved.contains(&true) {
            return fresh;
        }
        for (k, &d) in self.dests.iter().enumerate() {
            let dv = (1 + g.in_degree(d)) as f32;
            for e in self.in_edges_of(k) {
                let local = self.nbr_index[e] as usize;
                if moved[local] {
                    let du = (1 + g.out_degree(self.neighbors[local])) as f32;
                    fresh.gcn_weights[e] = 1.0 / (du * dv).sqrt();
                }
            }
        }
        fresh
    }

    /// The chunk that computes rows `rows` of each of `parts` — chunks
    /// of one partition, each with its kept destination rows (local
    /// indices into its `dests`, strictly ascending) — as one chunk
    /// `(part, chunk)`: the kept dests in ascending order, each with its
    /// in-edges in their stored order and their weights, and the neighbor
    /// list the ascending union of the neighbors those edges read. Equal
    /// to [`ChunkSubgraph::build`] of the kept dests against the graph
    /// the parts were built from, at the cost of what is kept plus one
    /// bit per neighbor of each part ([`Packing`]).
    pub fn pack(parts: &[(&ChunkSubgraph, &[u32])], part: usize, chunk: usize) -> Self {
        Packing::new(parts).build(part, chunk)
    }

    /// The body `build` replaced — every in-edge's source sorted, one
    /// binary search per edge — kept as the oracle.
    #[cfg(test)]
    fn build_reference(g: &Graph, part: usize, chunk: usize, dests: Vec<VertexId>) -> Self {
        let mut neighbors: Vec<VertexId> = Vec::new();
        for &d in &dests {
            neighbors.extend_from_slice(g.in_neighbors(d));
        }
        neighbors.sort_unstable();
        neighbors.dedup();
        let mut offsets = Vec::with_capacity(dests.len() + 1);
        offsets.push(0usize);
        let mut nbr_index = Vec::new();
        let mut gcn_weights = Vec::new();
        for &d in &dests {
            let dv = (1 + g.in_degree(d)) as f32;
            for &u in g.in_neighbors(d) {
                let local = neighbors
                    .binary_search(&u)
                    .expect("neighbor present by construction");
                nbr_index.push(local as u32);
                let du = (1 + g.out_degree(u)) as f32;
                gcn_weights.push(1.0 / (du * dv).sqrt());
            }
            offsets.push(nbr_index.len());
        }
        ChunkSubgraph {
            part,
            chunk,
            dests,
            neighbors,
            offsets,
            nbr_index,
            gcn_weights,
        }
    }

    /// Number of destination vertices `|V_ij|`.
    #[inline]
    pub fn num_dests(&self) -> usize {
        self.dests.len()
    }

    /// Number of in-edges `|E_ij|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.nbr_index.len()
    }

    /// Number of distinct in-neighbors `|N_ij|`.
    #[inline]
    pub fn num_neighbors(&self) -> usize {
        self.neighbors.len()
    }

    /// Local in-edge range of destination `k` (local index).
    #[inline]
    pub fn in_edges_of(&self, k: usize) -> std::ops::Range<usize> {
        self.offsets[k]..self.offsets[k + 1]
    }

    /// The chunk's weighted adjacency as a sparse matrix
    /// (`|V_ij| × |N_ij|`, GCN-normalized values) — the operand the
    /// paper's cuSparse-based computation engine aggregates with:
    /// `AGGREGATE(H) = A · H_{N_ij}`.
    pub fn to_csr_matrix(&self) -> hongtu_tensor::CsrMatrix {
        hongtu_tensor::CsrMatrix::from_parts(
            self.num_dests(),
            self.num_neighbors(),
            self.offsets.clone(),
            self.nbr_index.clone(),
            self.gcn_weights.clone(),
        )
    }

    /// The chunk's sizes.
    pub fn shape(&self) -> ChunkShape {
        ChunkShape {
            dests: self.num_dests(),
            edges: self.num_edges(),
            neighbors: self.num_neighbors(),
        }
    }

    /// Bytes of topology this chunk occupies on a device (offsets + edge
    /// indices + weights + the two vertex-id lists).
    pub fn topology_bytes(&self) -> usize {
        self.shape().topology_bytes()
    }

    /// Structural validation against the source graph.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.offsets.len() != self.dests.len() + 1 {
            return Err("offsets length must be |dests| + 1".into());
        }
        if self.nbr_index.len() != self.gcn_weights.len() {
            return Err("edge arrays disagree in length".into());
        }
        if self.neighbors.windows(2).any(|w| w[0] >= w[1]) {
            return Err("neighbor list not sorted/unique".into());
        }
        for (k, &d) in self.dests.iter().enumerate() {
            let expect = g.in_neighbors(d);
            let got = &self.nbr_index[self.in_edges_of(k)];
            if expect.len() != got.len() {
                return Err(format!(
                    "dest {d}: edge count {} != {}",
                    got.len(),
                    expect.len()
                ));
            }
            for (&want, &li) in expect.iter().zip(got) {
                if self.neighbors[li as usize] != want {
                    return Err(format!("dest {d}: edge resolves to wrong neighbor"));
                }
            }
        }
        Ok(())
    }
}

/// Kept rows of chunks of one partition, marked for packing into one
/// chunk ([`ChunkSubgraph::pack`]): the chunk can be sized
/// ([`Packing::shape`]) before it is built, and packings of consecutive
/// runs joined ([`Packing::join`]) without marking anything again.
///
/// Each part marks the neighbors its kept edges read in a bitmap over its
/// own ascending neighbor list: reading the set bits back lists them
/// ascending with no sort. Merging the parts' lists gives the chunk's
/// neighbor list and, per part, a table of where each of its neighbors
/// landed in it, so an edge is re-indexed with one load.
pub struct Packing<'c> {
    parts: Vec<Part<'c>>,
}

/// One chunk's kept rows, the neighbors their edges read marked.
struct Part<'c> {
    rows: &'c [u32],
    marks: Marks<'c>,
    /// The read neighbors' global ids, ascending.
    ids: Vec<VertexId>,
}

impl<'c> Packing<'c> {
    /// Marks rows `rows` of each of `parts` (strictly ascending local
    /// indices into the part's `dests`).
    pub fn new(parts: &[(&'c ChunkSubgraph, &'c [u32])]) -> Self {
        let parts = parts
            .iter()
            .map(|&(chunk, rows)| {
                debug_assert!(
                    rows.windows(2).all(|w| w[0] < w[1]),
                    "rows must be sorted & unique"
                );
                let marks = Marks::new(chunk, rows);
                let ids = marks.ids();
                Part { rows, marks, ids }
            })
            .collect();
        Packing { parts }
    }

    /// The parts of `packings`, in order, as one packing.
    pub fn join(packings: impl IntoIterator<Item = Packing<'c>>) -> Self {
        Packing {
            parts: packings.into_iter().flat_map(|p| p.parts).collect(),
        }
    }

    /// The shape of the chunk [`Packing::build`] builds.
    pub fn shape(&self) -> ChunkShape {
        ChunkShape {
            dests: self.parts.iter().map(|p| p.rows.len()).sum(),
            edges: self
                .parts
                .iter()
                .flat_map(|p| {
                    p.rows
                        .iter()
                        .map(|&k| p.marks.chunk.in_edges_of(k as usize).len())
                })
                .sum(),
            neighbors: match &self.parts[..] {
                [] => 0,
                [only] => only.ids.len(),
                _ => self.neighbors().len(),
            },
        }
    }

    /// Each part's read neighbors, ascending: the chunk's neighbor list
    /// is their union.
    pub fn read(&self) -> impl Iterator<Item = &[VertexId]> {
        self.parts.iter().map(|p| &p.ids[..])
    }

    /// The union of the parts' read neighbors, ascending.
    fn neighbors(&self) -> Vec<VertexId> {
        match &self.parts[..] {
            [] => Vec::new(),
            [only] => only.ids.clone(),
            parts => parts
                .iter()
                .fold(Vec::new(), |acc, p| union_sorted(&acc, &p.ids)),
        }
    }

    /// The packed chunk `(part, chunk)`.
    pub fn build(self, part: usize, chunk: usize) -> ChunkSubgraph {
        let neighbors = self.neighbors();
        self.build_over(part, chunk, neighbors)
    }

    /// [`Packing::build`] given the chunk's neighbor list — the union of
    /// the parts' read neighbors ([`Packing::read`]) — where the caller
    /// has already merged it.
    pub fn build_over(self, part: usize, chunk: usize, neighbors: Vec<VertexId>) -> ChunkSubgraph {
        debug_assert!(
            neighbors == self.neighbors(),
            "the neighbor list is the union of the parts' read neighbors"
        );
        let parts = self.parts;
        let remap: Vec<_> = parts.iter().map(|p| p.remap(&neighbors)).collect();
        let mut kept: Vec<(VertexId, usize, u32)> = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let dests = &part.marks.chunk.dests;
            kept.extend(part.rows.iter().map(|&k| (dests[k as usize], p, k)));
        }
        // A reorganized partition's chunks need not ascend in batch order.
        if kept.windows(2).any(|w| w[0].0 > w[1].0) {
            kept.sort_unstable_by_key(|&(d, ..)| d);
        }
        let edges = kept
            .iter()
            .map(|&(_, p, k)| parts[p].marks.chunk.in_edges_of(k as usize).len())
            .sum();
        let mut offsets = Vec::with_capacity(kept.len() + 1);
        offsets.push(0);
        let mut nbr_index = Vec::with_capacity(edges);
        let mut gcn_weights = Vec::with_capacity(edges);
        for &(_, p, k) in &kept {
            let c = parts[p].marks.chunk;
            let range = c.in_edges_of(k as usize);
            let read = &c.nbr_index[range.clone()];
            match &remap[p] {
                None => nbr_index.extend_from_slice(read),
                Some(at) => nbr_index.extend(read.iter().map(|&t| at[t as usize])),
            }
            gcn_weights.extend_from_slice(&c.gcn_weights[range]);
            offsets.push(nbr_index.len());
        }
        ChunkSubgraph {
            part,
            chunk,
            dests: kept.into_iter().map(|(d, ..)| d).collect(),
            neighbors,
            offsets,
            nbr_index,
            gcn_weights,
        }
    }
}

impl Part<'_> {
    /// Where this part's edges find their neighbor in `neighbors`, the
    /// packed chunk's list: at `at[t]` for the part's neighbor `t` —
    /// `None` where the part reads every neighbor it has and the list is
    /// its own, so an edge keeps its index.
    fn remap(&self, neighbors: &[VertexId]) -> Option<Vec<u32>> {
        let all = self.marks.chunk.neighbors.len();
        if self.marks.all() && all == neighbors.len() {
            return None;
        }
        let mut at = 0;
        let mut place = |v: VertexId| {
            while neighbors[at] < v {
                at += 1;
            }
            at as u32
        };
        if self.marks.all() {
            return Some(self.ids.iter().map(|&v| place(v)).collect());
        }
        let mut table = vec![0u32; all];
        for (t, &v) in self.marks.read().zip(&self.ids) {
            table[t] = place(v);
        }
        Some(table)
    }
}

/// The neighbors of one part of a [`Packing`] that its kept edges read: one bit per entry of the part's neighbor list, or — when
/// the part keeps every row — all of them, unmarked.
struct Marks<'c> {
    chunk: &'c ChunkSubgraph,
    /// Empty when every neighbor is read.
    marked: Vec<u64>,
}

impl<'c> Marks<'c> {
    fn new(chunk: &'c ChunkSubgraph, rows: &[u32]) -> Self {
        let mut marks = Marks {
            chunk,
            marked: Vec::new(),
        };
        if rows.len() == chunk.num_dests() {
            return marks;
        }
        marks.marked = vec![0u64; chunk.neighbors.len().div_ceil(64)];
        for &k in rows {
            for &t in &chunk.nbr_index[chunk.in_edges_of(k as usize)] {
                marks.marked[t as usize / 64] |= 1 << (t % 64);
            }
        }
        marks
    }

    fn all(&self) -> bool {
        self.marked.is_empty()
    }

    /// The read neighbors' global ids, ascending.
    fn ids(&self) -> Vec<VertexId> {
        if self.all() {
            return self.chunk.neighbors.clone();
        }
        self.read().map(|t| self.chunk.neighbors[t]).collect()
    }

    /// The read neighbors' indices into the chunk's list, ascending
    /// (marked ones only).
    fn read(&self) -> impl Iterator<Item = usize> + '_ {
        self.marked.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors(Some(word).filter(|&r| r != 0), |&r| {
                Some(r & (r - 1)).filter(|&r| r != 0)
            })
            .map(move |r| w * 64 + r.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::GraphBuilder;

    fn toy() -> Graph {
        // in-edges: 2←{0,1,3}, 1←{0}, 0←{2}
        let mut b = GraphBuilder::new(4);
        for (s, t) in [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)] {
            b.add_edge(s, t);
        }
        b.build()
    }

    #[test]
    fn builds_dedup_neighbor_list() {
        let g = toy();
        let c = ChunkSubgraph::build(&g, 0, 0, vec![1, 2]);
        assert_eq!(c.num_dests(), 2);
        assert_eq!(c.num_edges(), 4); // 1←0 plus 2←{0,1,3}
        assert_eq!(c.neighbors, vec![0, 1, 3]);
        assert!(c.validate(&g).is_ok());
    }

    #[test]
    fn full_neighbor_set_per_dest() {
        // Even when a chunk only holds vertex 2, *all* of 2's in-neighbors
        // are present — the property that makes GAT-style softmax work.
        let g = toy();
        let c = ChunkSubgraph::build(&g, 0, 0, vec![2]);
        assert_eq!(c.num_edges(), g.in_degree(2));
        assert_eq!(c.neighbors.len(), 3);
    }

    #[test]
    fn edge_indices_resolve_to_sources() {
        let g = toy();
        let c = ChunkSubgraph::build(&g, 1, 3, vec![0, 2]);
        assert_eq!((c.part, c.chunk), (1, 3));
        for (k, &d) in c.dests.iter().enumerate() {
            let resolved: Vec<VertexId> = c.nbr_index[c.in_edges_of(k)]
                .iter()
                .map(|&i| c.neighbors[i as usize])
                .collect();
            assert_eq!(resolved, g.in_neighbors(d));
        }
    }

    #[test]
    fn gcn_weights_match_global_normalization() {
        let g = toy();
        let c = ChunkSubgraph::build(&g, 0, 0, vec![2]);
        // edge 0→2: out_deg(0)=2 → du=3; in_deg(2)=3 → dv=4
        let w = c.gcn_weights[0];
        assert!((w - 1.0 / (3.0f32 * 4.0).sqrt()).abs() < 1e-6);
    }

    proptest::proptest! {
        /// The dense-indexed build = the binary-search body it replaced on
        /// random sorted destination subsets (empty ones and ones with an
        /// empty in-neighbourhood included), with one scratch shared over
        /// consecutive builds as `from_assignment` shares it.
        #[test]
        fn build_equals_the_binary_search_reference(
            n in 1u32..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..250),
            keep_loops in 0u32..2,
            hub in 0u32..2,
            picks in proptest::collection::vec(proptest::collection::vec(0u32..43, 0..30), 1..4)
        ) {
            // Ids n..n+3 stay isolated: destinations with no in-neighbors.
            let mut b = GraphBuilder::new(n as usize + 3);
            if keep_loops == 1 {
                b = b.keep_self_loops();
            }
            for (s, t) in raw {
                b.add_edge(s % n, t % n);
            }
            if hub == 1 {
                for v in 0..n {
                    b.add_undirected(0, v);
                }
            }
            let g = b.build();
            let mut local_of = Vec::new();
            for (j, mut dests) in picks.into_iter().enumerate() {
                dests.retain(|&d| d < n + 3);
                dests.sort_unstable();
                dests.dedup();
                let want = ChunkSubgraph::build_reference(&g, 1, j, dests.clone());
                proptest::prop_assert_eq!(ChunkSubgraph::build(&g, 1, j, dests.clone()), want.clone());
                proptest::prop_assert_eq!(
                    ChunkSubgraph::build_in(&g, 1, j, dests, &mut local_of),
                    want
                );
                proptest::prop_assert!(local_of.iter().all(|&l| l == u32::MAX));
            }
        }
    }

    proptest::proptest! {
        /// `pack` = `build` of the kept destinations: the chunk the kept
        /// rows of several chunks pack into is the chunk those rows alone
        /// would have been built as — same dests in ascending order, same
        /// in-edges in the same order with the same weight bits, neighbor
        /// list the ascending union of what they read — on random
        /// multigraph chunks (in any order, as a reorganized partition
        /// holds them) and random row subsets (none, all, rows without
        /// in-edges). One part with all its rows packs into itself.
        #[test]
        fn pack_equals_build_of_the_kept_dests(
            n in 1u32..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..250),
            keep_loops in 0u32..2,
            hub in 0u32..2,
            owner in proptest::collection::vec(0usize..4, 43),
            picks in proptest::collection::vec(proptest::collection::vec(0u32..30, 0..30), 4)
        ) {
            let mut b = GraphBuilder::new(n as usize + 3);
            if keep_loops == 1 {
                b = b.keep_self_loops();
            }
            for (s, t) in raw {
                b.add_edge(s % n, t % n);
            }
            if hub == 1 {
                for v in 0..n {
                    b.add_undirected(0, v);
                }
            }
            let g = b.build();
            // Up to four disjoint chunks over the graph's vertices,
            // listed in reverse id order.
            let chunks: Vec<ChunkSubgraph> = (0..4)
                .rev()
                .map(|p| {
                    let dests = (0..n + 3).filter(|&v| owner[v as usize] == p).collect();
                    ChunkSubgraph::build(&g, 2, p, dests)
                })
                .collect();
            for c in &chunks {
                let all: Vec<u32> = (0..c.num_dests() as u32).collect();
                proptest::prop_assert_eq!(ChunkSubgraph::pack(&[(c, &all)], 2, c.chunk), c.clone());
            }
            let rows: Vec<Vec<u32>> = chunks
                .iter()
                .zip(picks)
                .map(|(c, mut rows)| {
                    rows.retain(|&k| (k as usize) < c.num_dests());
                    rows.sort_unstable();
                    rows.dedup();
                    rows
                })
                .collect();
            for count in 0..=chunks.len() {
                let parts: Vec<(&ChunkSubgraph, &[u32])> = chunks[..count]
                    .iter()
                    .zip(&rows)
                    .map(|(c, r)| (c, &r[..]))
                    .collect();
                let mut kept: Vec<VertexId> = parts
                    .iter()
                    .flat_map(|&(c, r)| r.iter().map(|&k| c.dests[k as usize]))
                    .collect();
                kept.sort_unstable();
                let want = ChunkSubgraph::build(&g, 2, 5, kept);
                proptest::prop_assert_eq!(ChunkSubgraph::pack(&parts, 2, 5), want.clone());
                proptest::prop_assert!(want.validate(&g).is_ok());
            }
        }
    }

    #[test]
    fn empty_dest_set_is_legal() {
        let g = toy();
        let c = ChunkSubgraph::build(&g, 0, 0, vec![]);
        assert_eq!(c.num_dests(), 0);
        assert_eq!(c.num_edges(), 0);
        assert!(c.validate(&g).is_ok());
    }

    #[test]
    fn isolated_dest_has_no_edges() {
        let g = toy();
        let c = ChunkSubgraph::build(&g, 0, 0, vec![3]);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.num_neighbors(), 0);
        assert!(c.validate(&g).is_ok());
    }

    #[test]
    fn csr_matrix_adapter_matches_edge_lists() {
        let g = toy();
        let c = ChunkSubgraph::build(&g, 0, 0, vec![0, 1, 2, 3]);
        let a = c.to_csr_matrix();
        assert_eq!(a.rows(), c.num_dests());
        assert_eq!(a.cols(), c.num_neighbors());
        assert_eq!(a.nnz(), c.num_edges());
        // Densified row k has mass exactly on k's neighbor positions.
        let dense = a.to_dense();
        for k in 0..c.num_dests() {
            let mut expect = vec![0.0f32; c.num_neighbors()];
            for e in c.in_edges_of(k) {
                expect[c.nbr_index[e] as usize] += c.gcn_weights[e];
            }
            assert_eq!(dense.row(k), &expect[..]);
        }
    }

    #[test]
    fn topology_bytes_is_positive_and_scales() {
        let g = toy();
        let small = ChunkSubgraph::build(&g, 0, 0, vec![1]);
        let big = ChunkSubgraph::build(&g, 0, 0, vec![0, 1, 2, 3]);
        assert!(big.topology_bytes() > small.topology_bytes());
    }
}
