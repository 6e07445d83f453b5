//! Per-chunk subgraph: the unit of GPU execution (paper Figure 5).
//!
//! A chunk owns a disjoint set of destination vertices and **all** their
//! in-edges. Edges reference neighbors through a *local* index into the
//! chunk's deduplicated neighbor list `N_ij`, which is exactly the layout
//! the computation engine needs to read neighbor data out of the on-GPU
//! neighbor buffer (paper §6, "in-place neighbor data management").

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

/// Reusable working memory of [`ChunkSubgraph::slice_in`]; holds nothing
/// between calls.
#[derive(Debug, Default)]
pub struct SliceScratch {
    /// One bit per neighbor of the chunk being sliced.
    marked: Vec<u64>,
    /// Per word of `marked`, the set bits in the words before it.
    below: Vec<u32>,
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

    /// The sub-chunk that computes only destination rows `rows` (local
    /// indices into `dests`, strictly ascending): the kept dests in order,
    /// their in-edges in order with their weights, and the neighbor list
    /// compacted to the rows those edges read — monotonically, so every
    /// kept edge still meets its neighbors in the same relative order.
    /// Equal to [`ChunkSubgraph::build`] of the kept dests against the
    /// graph the chunk was built from, at the cost of the slice alone.
    pub fn slice(&self, rows: &[u32]) -> Self {
        self.slice_in(rows, &mut SliceScratch::default())
    }

    /// [`ChunkSubgraph::slice`] over a caller-owned scratch, so the
    /// slices of a whole grid share one.
    ///
    /// The neighbors the kept edges read are marked in a bitmap over the
    /// chunk's neighbor list: reading the set bits back yields them in
    /// ascending order with no sort, and an edge's new local id is the
    /// number of set bits below its old one — a per-word running count
    /// plus one `popcount`.
    pub fn slice_in(&self, rows: &[u32], scratch: &mut SliceScratch) -> Self {
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "rows must be sorted & unique"
        );
        let mut sliced = ChunkSubgraph {
            part: self.part,
            chunk: self.chunk,
            dests: rows.iter().map(|&k| self.dests[k as usize]).collect(),
            neighbors: Vec::new(),
            offsets: vec![0],
            nbr_index: Vec::new(),
            gcn_weights: Vec::new(),
        };
        if rows.is_empty() {
            return sliced;
        }
        let SliceScratch { marked, below } = scratch;
        marked.clear();
        marked.resize(self.neighbors.len().div_ceil(64), 0u64);
        let mut edges = 0;
        for &k in rows {
            let kept = &self.nbr_index[self.in_edges_of(k as usize)];
            edges += kept.len();
            for &t in kept {
                marked[t as usize / 64] |= 1 << (t % 64);
            }
        }
        // below[w]: marked neighbors in the words before w.
        below.clear();
        let mut count = 0u32;
        for &word in marked.iter() {
            below.push(count);
            count += word.count_ones();
        }
        sliced.neighbors.reserve(count as usize);
        for (w, &word) in marked.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let t = w * 64 + rest.trailing_zeros() as usize;
                sliced.neighbors.push(self.neighbors[t]);
                rest &= rest - 1;
            }
        }
        sliced.offsets.reserve(rows.len());
        sliced.nbr_index.reserve(edges);
        sliced.gcn_weights.reserve(edges);
        for &k in rows {
            let range = self.in_edges_of(k as usize);
            sliced
                .nbr_index
                .extend(self.nbr_index[range.clone()].iter().map(|&t| {
                    let (w, bit) = (t as usize / 64, t % 64);
                    below[w] + (marked[w] & ((1u64 << bit) - 1)).count_ones()
                }));
            sliced
                .gcn_weights
                .extend_from_slice(&self.gcn_weights[range]);
            sliced.offsets.push(sliced.nbr_index.len());
        }
        sliced
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

    /// Bytes of topology this chunk occupies on a device (offsets + edge
    /// indices + weights + the two vertex-id lists).
    pub fn topology_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.nbr_index.len() * std::mem::size_of::<u32>()
            + self.gcn_weights.len() * std::mem::size_of::<f32>()
            + (self.dests.len() + self.neighbors.len()) * std::mem::size_of::<VertexId>()
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
        /// `slice(rows)` = `build` of the kept destinations: the slice of
        /// a chunk is the chunk its kept rows alone would have been built
        /// as — same dests, same in-edges in the same order with the same
        /// weight bits, neighbor list compacted in ascending order — on
        /// random multigraph chunks and random row subsets (none, all,
        /// rows without in-edges), with one scratch shared over
        /// consecutive slices.
        #[test]
        fn slice_equals_build_of_the_kept_dests(
            n in 1u32..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..250),
            keep_loops in 0u32..2,
            hub in 0u32..2,
            dests in proptest::collection::vec(0u32..43, 0..30),
            picks in proptest::collection::vec(proptest::collection::vec(0u32..30, 0..30), 1..4)
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
            let mut dests = dests;
            dests.retain(|&d| d < n + 3);
            dests.sort_unstable();
            dests.dedup();
            let chunk = ChunkSubgraph::build(&g, 2, 5, dests.clone());
            let all: Vec<u32> = (0..dests.len() as u32).collect();
            proptest::prop_assert_eq!(chunk.slice(&all), chunk.clone());
            let mut scratch = SliceScratch::default();
            for mut rows in picks {
                rows.retain(|&k| (k as usize) < dests.len());
                rows.sort_unstable();
                rows.dedup();
                let kept: Vec<VertexId> = rows.iter().map(|&k| dests[k as usize]).collect();
                let want = ChunkSubgraph::build(&g, 2, 5, kept);
                proptest::prop_assert_eq!(chunk.slice(&rows), want.clone());
                proptest::prop_assert_eq!(chunk.slice_in(&rows, &mut scratch), want.clone());
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
