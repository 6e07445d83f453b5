//! Compressed sparse row/column graph storage.
//!
//! A [`Graph`] stores a directed graph in both orientations:
//! - [`Csr`]: out-edges grouped by source (`u → {v}`), used for gradient
//!   scatter in the backward pass;
//! - [`Csc`]: in-edges grouped by destination (`v ← {u}`), used for
//!   full-neighbor aggregation in the forward pass. HongTu's 2-level
//!   partitioning groups *in-edges* of a destination range into a chunk, so
//!   CSC is the primary orientation.

/// Vertex identifier. `u32` bounds graphs at ~4.2B vertices, matching what
/// the paper's billion-edge datasets need while halving index memory.
pub type VertexId = u32;

/// Out-edge adjacency in compressed sparse row form.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    pub offsets: Vec<usize>,
    /// Flattened adjacency lists.
    pub targets: Vec<VertexId>,
}

/// In-edge adjacency in compressed sparse column form.
///
/// Structurally identical to [`Csr`] but indexed by *destination*:
/// `offsets[v]..offsets[v+1]` lists the in-neighbors (sources) of `v`.
pub type Csc = Csr;

impl Csr {
    /// An adjacency structure with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Adjacency list of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of vertex `v` in this orientation.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Iterates `(source, target)` pairs in storage order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.neighbors(v as VertexId)
                .iter()
                .map(move |&t| (v as VertexId, t))
        })
    }

    /// Validates structural invariants; returns a description of the first
    /// violation, if any. Used by tests and by loaders of external data.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err(format!("offsets[0] = {} (expected 0)", self.offsets[0]));
        }
        if *self.offsets.last().unwrap() != self.targets.len() {
            return Err(format!(
                "offsets[last] = {} but targets.len() = {}",
                self.offsets.last().unwrap(),
                self.targets.len()
            ));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets are not monotone".into());
        }
        let n = self.num_vertices() as VertexId;
        if let Some(&bad) = self.targets.iter().find(|&&t| t >= n) {
            return Err(format!("target {bad} out of range (n = {n})"));
        }
        Ok(())
    }

    /// Bytes consumed by the structure (used by the simulator memory model).
    pub fn byte_size(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
    }
}

/// A directed graph stored in both orientations plus per-edge GCN weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Out-edges: `csr.neighbors(u)` are the targets of `u`.
    pub csr: Csr,
    /// In-edges: `csc.neighbors(v)` are the sources pointing at `v`.
    pub csc: Csc,
}

impl Graph {
    /// Builds the dual representation from sorted, deduplicated edge pairs.
    /// Prefer [`crate::builder::GraphBuilder`] for arbitrary edge input.
    pub fn from_csr(csr: Csr) -> Self {
        let csc = transpose(&csr);
        Graph { csr, csc }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.csr.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.csc.degree(v)
    }

    /// In-neighbors (sources) of `v` — the set aggregated by GNN layers.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csc.neighbors(v)
    }

    /// Out-neighbors (targets) of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Validates both orientations agree.
    pub fn validate(&self) -> Result<(), String> {
        self.csr.validate()?;
        self.csc.validate()?;
        if self.csr.num_vertices() != self.csc.num_vertices() {
            return Err("csr/csc vertex count mismatch".into());
        }
        if self.csr.num_edges() != self.csc.num_edges() {
            return Err("csr/csc edge count mismatch".into());
        }
        Ok(())
    }

    /// Total bytes of topology (both orientations), for the memory model.
    pub fn topology_bytes(&self) -> usize {
        self.csr.byte_size() + self.csc.byte_size()
    }
}

/// Transposes an adjacency structure (CSR → CSC or vice versa) with a
/// counting pass; `O(|V| + |E|)`.
pub fn transpose(a: &Csr) -> Csr {
    let n = a.num_vertices();
    let mut counts = vec![0usize; n + 1];
    for &t in &a.targets {
        counts[t as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut targets = vec![0 as VertexId; a.targets.len()];
    for v in 0..n {
        for &t in a.neighbors(v as VertexId) {
            let pos = cursor[t as usize];
            targets[pos] = v as VertexId;
            cursor[t as usize] += 1;
        }
    }
    Csr { offsets, targets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn toy() -> Graph {
        // 0→1, 0→2, 1→2, 2→0, 3→2
        let mut b = GraphBuilder::new(4);
        for (s, t) in [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)] {
            b.add_edge(s, t);
        }
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = toy();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 3);
        assert_eq!(g.in_degree(3), 0);
        assert_eq!(g.out_degree(3), 1);
    }

    #[test]
    fn neighbor_lists_are_sorted_and_correct() {
        let g = toy();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        let mut ins = g.in_neighbors(2).to_vec();
        ins.sort_unstable();
        assert_eq!(ins, vec![0, 1, 3]);
    }

    #[test]
    fn transpose_is_involutive() {
        let g = toy();
        let back = transpose(&g.csc);
        // Transposing twice recovers CSR up to within-list ordering.
        for v in 0..4 {
            let mut a = back.neighbors(v).to_vec();
            a.sort_unstable();
            let mut b = g.csr.neighbors(v).to_vec();
            b.sort_unstable();
            assert_eq!(a, b, "vertex {v}");
        }
    }

    #[test]
    fn transpose_preserves_edge_multiset() {
        let g = toy();
        let mut fwd: Vec<_> = g.csr.edges().collect();
        let mut bwd: Vec<_> = g.csc.edges().map(|(d, s)| (s, d)).collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let g = toy();
        assert!(g.validate().is_ok());
        let bad = Csr {
            offsets: vec![0, 2],
            targets: vec![0, 5],
        };
        assert!(bad.validate().unwrap_err().contains("out of range"));
        let bad2 = Csr {
            offsets: vec![1, 2],
            targets: vec![0, 0],
        };
        assert!(bad2.validate().is_err());
        let bad3 = Csr {
            offsets: vec![0, 3, 1],
            targets: vec![0; 1],
        };
        assert!(bad3.validate().is_err());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_csr(Csr::empty(3));
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
        assert!(g.in_neighbors(1).is_empty());
    }

    #[test]
    fn byte_size_accounts_offsets_and_targets() {
        let c = Csr {
            offsets: vec![0, 1, 2],
            targets: vec![1, 0],
        };
        assert_eq!(c.byte_size(), 3 * 8 + 2 * 4);
    }
}
