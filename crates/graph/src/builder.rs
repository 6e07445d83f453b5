//! Incremental graph construction with sorting and deduplication.

use crate::csr::{Csr, Graph, VertexId};

/// Collects edges and builds a [`Graph`] with sorted, deduplicated
/// adjacency lists.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    allow_self_loops: bool,
}

impl GraphBuilder {
    /// A builder for a graph over vertices `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            allow_self_loops: false,
        }
    }

    /// Keep self-loops instead of dropping them (dropped by default, as GNN
    /// aggregation treats self-information via the UPDATE path).
    pub fn keep_self_loops(mut self) -> Self {
        self.allow_self_loops = true;
        self
    }

    /// Number of vertices this builder was created for.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges currently buffered (before dedup).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge `src → dst`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            (src as usize) < self.n && (dst as usize) < self.n,
            "edge ({src},{dst}) out of range (n = {})",
            self.n
        );
        if src == dst && !self.allow_self_loops {
            return;
        }
        self.edges.push((src, dst));
    }

    /// Adds both `u → v` and `v → u`.
    pub fn add_undirected(&mut self, u: VertexId, v: VertexId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Bulk insertion from an iterator of pairs.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (s, t) in edges {
            self.add_edge(s, t);
        }
    }

    /// Consumes the builder and produces the dual-orientation graph.
    /// Parallel edges are deduplicated; adjacency lists come out sorted.
    ///
    /// `O(|V| + |E| + Σ_v d_v log d_v)`: a counting sort by source, then
    /// each row is sorted and deduplicated on its own.
    pub fn build(self) -> Graph {
        let n = self.n;
        let mut offsets = vec![0usize; n + 1];
        for &(s, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; self.edges.len()];
        for &(s, t) in &self.edges {
            targets[cursor[s as usize]] = t;
            cursor[s as usize] += 1;
        }
        drop(self.edges);
        // Sort each row and compact the duplicates away in place: `write`
        // never overtakes the row being read.
        let mut write = 0usize;
        let mut start = 0usize;
        for v in 0..n {
            let end = offsets[v + 1];
            offsets[v] = write;
            targets[start..end].sort_unstable();
            for i in start..end {
                let t = targets[i];
                if write == offsets[v] || targets[write - 1] != t {
                    targets[write] = t;
                    write += 1;
                }
            }
            start = end;
        }
        offsets[n] = write;
        targets.truncate(write);
        let csr = Csr { offsets, targets };
        debug_assert!(csr.validate().is_ok());
        Graph::from_csr(csr)
    }

    /// The body `build` replaced — one global sort of the edge pairs —
    /// kept as the oracle the property tests hold `build` against.
    #[cfg(test)]
    fn build_reference(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut offsets = vec![0usize; self.n + 1];
        for &(s, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let targets = self.edges.iter().map(|&(_, t)| t).collect();
        Graph::from_csr(Csr { offsets, targets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedups_parallel_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn keeps_self_loops_when_asked() {
        let mut b = GraphBuilder::new(2).keep_self_loops();
        b.add_edge(0, 0);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected(0, 2);
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[2]);
        assert_eq!(g.out_neighbors(2), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    proptest! {
        /// Built graphs always satisfy structural invariants, and in/out
        /// degree sums both equal the edge count.
        #[test]
        fn built_graphs_are_valid(
            n in 1usize..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..200)
        ) {
            let mut b = GraphBuilder::new(n);
            for (s, t) in raw {
                let (s, t) = (s % n as u32, t % n as u32);
                b.add_edge(s, t);
            }
            let g = b.build();
            prop_assert!(g.validate().is_ok());
            let out_sum: usize = (0..n).map(|v| g.out_degree(v as u32)).sum();
            let in_sum: usize = (0..n).map(|v| g.in_degree(v as u32)).sum();
            prop_assert_eq!(out_sum, g.num_edges());
            prop_assert_eq!(in_sum, g.num_edges());
            // Every CSR edge appears in CSC and vice versa.
            for (s, t) in g.csr.edges() {
                prop_assert!(g.in_neighbors(t).contains(&s));
            }
        }

        /// `build` = the global-sort body it replaced, on multigraphs with
        /// duplicate edges, self-loops (kept and dropped), isolated
        /// vertices and a hub adjacent to everything.
        #[test]
        fn build_equals_the_global_sort_reference(
            n in 1u32..48,
            raw in proptest::collection::vec((0u32..48, 0u32..48), 0..300),
            keep_self_loops in 0u32..2,
            hub in 0u32..2
        ) {
            // Ids n..n+3 are named by no edge: isolated, trailing rows.
            let mut b = GraphBuilder::new(n as usize + 3);
            if keep_self_loops == 1 {
                b = b.keep_self_loops();
            }
            for (s, t) in raw {
                let (s, t) = (s % n, t % n);
                b.add_edge(s, t);
                if (s + t) % 3 == 0 {
                    b.add_edge(s, t);
                }
            }
            if hub == 1 {
                for v in 0..n {
                    b.add_undirected(0, v);
                }
            }
            prop_assert_eq!(b.clone().build(), b.build_reference());
        }
    }
}
