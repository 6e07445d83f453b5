//! The in-memory dataset bundle.

use hongtu_graph::{Csr, Graph, VertexId};
use hongtu_tensor::{Matrix, SeededRng};

/// Identifies one of the five benchmark datasets (paper Table 4 keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKey {
    /// reddit proxy (small, dense, labelled).
    Rdt,
    /// ogbn-products proxy (small, labelled).
    Opt,
    /// it-2004 proxy (large web graph).
    It,
    /// ogbn-papers100M proxy (large citation graph).
    Opr,
    /// friendster proxy (large social graph).
    Fds,
}

impl DatasetKey {
    /// Paper abbreviation (RDT/OPT/IT/OPR/FDS).
    pub fn abbrev(self) -> &'static str {
        match self {
            DatasetKey::Rdt => "RDT",
            DatasetKey::Opt => "OPT",
            DatasetKey::It => "IT",
            DatasetKey::Opr => "OPR",
            DatasetKey::Fds => "FDS",
        }
    }

    /// Name of the real dataset this proxies.
    pub fn real_name(self) -> &'static str {
        match self {
            DatasetKey::Rdt => "reddit",
            DatasetKey::Opt => "ogbn-products",
            DatasetKey::It => "it-2004",
            DatasetKey::Opr => "ogbn-papers100M",
            DatasetKey::Fds => "friendster",
        }
    }

    /// True for the paper's "small" graphs that fit in GPU memory.
    pub fn is_small(self) -> bool {
        matches!(self, DatasetKey::Rdt | DatasetKey::Opt)
    }
}

/// Train/validation/test vertex masks.
#[derive(Debug, Clone)]
pub struct Splits {
    /// Training vertices.
    pub train: Vec<bool>,
    /// Validation vertices.
    pub val: Vec<bool>,
    /// Test vertices.
    pub test: Vec<bool>,
}

impl Splits {
    /// Random disjoint split with the given fractions (paper uses 25/25/50
    /// for the unlabeled large graphs).
    pub fn random(n: usize, train_frac: f64, val_frac: f64, rng: &mut SeededRng) -> Self {
        assert!(train_frac + val_frac <= 1.0, "split fractions exceed 1");
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let n_train = (n as f64 * train_frac).round() as usize;
        let n_val = (n as f64 * val_frac).round() as usize;
        let mut train = vec![false; n];
        let mut val = vec![false; n];
        let mut test = vec![false; n];
        for (i, &v) in order.iter().enumerate() {
            if i < n_train {
                train[v] = true;
            } else if i < n_train + n_val {
                val[v] = true;
            } else {
                test[v] = true;
            }
        }
        Splits { train, val, test }
    }

    /// Sanity: masks are disjoint and cover all vertices.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.train.len();
        if self.val.len() != n || self.test.len() != n {
            return Err("mask lengths differ".into());
        }
        for v in 0..n {
            let c = self.train[v] as u8 + self.val[v] as u8 + self.test[v] as u8;
            if c != 1 {
                return Err(format!("vertex {v} appears in {c} splits"));
            }
        }
        Ok(())
    }

    /// Number of training vertices.
    pub fn num_train(&self) -> usize {
        self.train.iter().filter(|&&b| b).count()
    }
}

/// A complete dataset: topology, features, labels, splits, plus the
/// metadata of the full-scale original it proxies.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which benchmark dataset this is.
    pub key: DatasetKey,
    /// Graph with self-loops added.
    pub graph: Graph,
    /// `|V| × feat_dim` input features.
    pub features: Matrix,
    /// Per-vertex class labels.
    pub labels: Vec<u32>,
    /// Train/val/test masks.
    pub splits: Splits,
    /// Number of classes.
    pub num_classes: usize,
    /// Master seed used to generate the dataset.
    pub seed: u64,
}

impl Dataset {
    /// Input feature dimension.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges (including the added self-loops).
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Model dimension vector `[feat, hidden × (L-1), classes]` used by the
    /// paper's experiments (`hidden` per layer count `layers`).
    pub fn model_dims(&self, hidden: usize, layers: usize) -> Vec<usize> {
        assert!(layers >= 1, "need at least 1 layer");
        let mut dims = vec![self.feat_dim()];
        for _ in 0..layers - 1 {
            dims.push(hidden);
        }
        dims.push(self.num_classes);
        dims
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        self.graph.validate()?;
        self.splits.validate()?;
        if self.features.rows() != self.graph.num_vertices() {
            return Err("feature rows != vertex count".into());
        }
        if self.labels.len() != self.graph.num_vertices() {
            return Err("label count != vertex count".into());
        }
        if let Some(&l) = self
            .labels
            .iter()
            .find(|&&l| l as usize >= self.num_classes)
        {
            return Err(format!(
                "label {l} out of range ({} classes)",
                self.num_classes
            ));
        }
        // Every vertex must have a self-loop (layers rely on it).
        for v in 0..self.graph.num_vertices() as u32 {
            if !self.graph.in_neighbors(v).contains(&v) {
                return Err(format!("vertex {v} lacks a self-loop"));
            }
        }
        Ok(())
    }
}

/// Adds a self-loop on every vertex of `g`.
///
/// Linear: `v` is spliced into each sorted row where it belongs (or
/// skipped if the row already holds it), so nothing is re-sorted. A row
/// that is not strictly ascending — only a hand-built or file-loaded
/// graph has one — is sorted and deduplicated on its own first.
pub fn with_self_loops(g: &Graph) -> Graph {
    let n = g.num_vertices();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(g.num_edges() + n);
    offsets.push(0);
    for v in 0..n as VertexId {
        let row = g.out_neighbors(v);
        if row.windows(2).all(|w| w[0] < w[1]) {
            let at = row.partition_point(|&t| t < v);
            targets.extend_from_slice(&row[..at]);
            targets.push(v);
            let held = row.get(at) == Some(&v);
            targets.extend_from_slice(&row[at + usize::from(held)..]);
        } else {
            let mut row = row.to_vec();
            row.push(v);
            row.sort_unstable();
            row.dedup();
            targets.extend_from_slice(&row);
        }
        offsets.push(targets.len());
    }
    Graph::from_csr(Csr { offsets, targets })
}

/// The body `with_self_loops` replaced — every edge back through a
/// [`hongtu_graph::GraphBuilder`] and its sort — kept as the oracle.
#[cfg(test)]
fn with_self_loops_reference(g: &Graph) -> Graph {
    let n = g.num_vertices();
    let mut b = hongtu_graph::GraphBuilder::new(n).keep_self_loops();
    for (s, t) in g.csr.edges() {
        b.add_edge(s, t);
    }
    for v in 0..n as u32 {
        b.add_edge(v, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_are_disjoint_and_sized() {
        let mut rng = SeededRng::new(1);
        let s = Splits::random(1000, 0.25, 0.25, &mut rng);
        assert!(s.validate().is_ok());
        assert!((s.num_train() as f64 - 250.0).abs() < 2.0);
        let tests = s.test.iter().filter(|&&b| b).count();
        assert!((tests as f64 - 500.0).abs() < 3.0);
    }

    #[test]
    fn with_self_loops_adds_exactly_n() {
        let mut rng = SeededRng::new(2);
        let g = hongtu_graph::generators::erdos_renyi(100, 3.0, &mut rng);
        let gl = with_self_loops(&g);
        assert_eq!(gl.num_edges(), g.num_edges() + 100);
        for v in 0..100u32 {
            assert!(gl.in_neighbors(v).contains(&v));
        }
    }

    proptest::proptest! {
        /// The splice = the builder round trip it replaced: on multigraph
        /// input with a hub and isolated vertices, on graphs that already
        /// hold some self-loops, and on rows no builder produced
        /// (descending, with duplicates).
        #[test]
        fn with_self_loops_equals_the_builder_reference(
            n in 1u32..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..250),
            keep_self_loops in 0u32..2,
            hub in 0u32..2,
            scramble in 0u32..2
        ) {
            let mut b = hongtu_graph::GraphBuilder::new(n as usize + 2);
            if keep_self_loops == 1 {
                b = b.keep_self_loops();
            }
            for (s, t) in raw {
                b.add_edge(s % n, t % n);
                b.add_edge(s % n, t % n);
            }
            if hub == 1 {
                for v in 0..n {
                    b.add_undirected(0, v);
                }
            }
            let mut g = b.build();
            if scramble == 1 {
                // Each row descending, its two smallest entries repeated.
                let mut csr = Csr::empty(0);
                for v in 0..g.num_vertices() as VertexId {
                    let row = g.out_neighbors(v);
                    csr.targets.extend(row.iter().rev());
                    csr.targets.extend(row.iter().take(2));
                    csr.offsets.push(csr.targets.len());
                }
                g = Graph::from_csr(csr);
            }
            proptest::prop_assert_eq!(with_self_loops(&g), with_self_loops_reference(&g));
        }
    }

    #[test]
    fn key_metadata() {
        assert!(DatasetKey::Rdt.is_small());
        assert!(!DatasetKey::Fds.is_small());
        assert_eq!(DatasetKey::Opr.abbrev(), "OPR");
        assert_eq!(DatasetKey::It.real_name(), "it-2004");
    }

    #[test]
    fn model_dims_shape() {
        let mut rng = SeededRng::new(3);
        let ds = crate::registry::load(DatasetKey::Rdt, &mut rng);
        let dims = ds.model_dims(16, 3);
        assert_eq!(dims.len(), 4);
        assert_eq!(dims[0], ds.feat_dim());
        assert_eq!(dims[1], 16);
        assert_eq!(dims[3], ds.num_classes);
    }

    #[test]
    #[should_panic(expected = "split fractions")]
    fn bad_fractions_rejected() {
        let mut rng = SeededRng::new(4);
        let _ = Splits::random(10, 0.8, 0.5, &mut rng);
    }
}
