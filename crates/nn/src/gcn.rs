//! Graph convolutional network layer (paper Eq. 2):
//! `h_v = ReLU(W ⊗ Σ_{u∈N(v)} d_uv · h_u)`.
//!
//! AGGREGATE is a weighted neighbor sum with the precomputed symmetric
//! normalization `d_uv`; it produces no intermediates of its own, so this
//! layer supports the hybrid caching strategy: cache `a = Σ d_uv h_u` in
//! CPU memory during the forward pass and skip aggregate recomputation in
//! the backward pass (§4.2).

use crate::layer::{
    self, Activation, BackwardFrom, GnnLayer, LayerFlops, LayerForward, LayerGrads, Upstream,
};
use hongtu_partition::{ChunkShape, ChunkSubgraph};
use hongtu_tensor::{Matrix, SeededRng};

/// One GCN layer.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    w: Matrix,
    /// UPDATE nonlinearity (ReLU for hidden layers, Identity for output).
    pub act: Activation,
}

impl GcnLayer {
    /// A layer with Xavier-initialized `in_dim × out_dim` weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        GcnLayer {
            w: hongtu_tensor::xavier_uniform(in_dim, out_dim, rng),
            act: Activation::Relu,
        }
    }

    /// Weighted neighbor aggregation: `a[k] = Σ_e d_uv · h_nbr[src(e)]` for
    /// every destination `k` of the chunk.
    fn aggregate(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> Matrix {
        let dim = h_nbr.cols();
        let mut a = Matrix::zeros(chunk.num_dests(), dim);
        for k in 0..chunk.num_dests() {
            let out = a.row_mut(k);
            for e in chunk.in_edges_of(k) {
                let src = chunk.nbr_index[e] as usize;
                let w = chunk.gcn_weights[e];
                for (o, &x) in out.iter_mut().zip(h_nbr.row(src)) {
                    *o += w * x;
                }
            }
        }
        a
    }

    /// Backward of the aggregation: scatters `grad_a` back onto neighbor
    /// rows through the (linear) edge weights.
    fn aggregate_backward(&self, chunk: &ChunkSubgraph, grad_a: &Matrix) -> Matrix {
        let dim = grad_a.cols();
        let mut grad_nbr = Matrix::zeros(chunk.num_neighbors(), dim);
        for k in 0..chunk.num_dests() {
            let ga = grad_a.row(k);
            for e in chunk.in_edges_of(k) {
                let src = chunk.nbr_index[e] as usize;
                let w = chunk.gcn_weights[e];
                let out = grad_nbr.row_mut(src);
                for (o, &gv) in out.iter_mut().zip(ga) {
                    *o += w * gv;
                }
            }
        }
        grad_nbr
    }
}

impl GnnLayer for GcnLayer {
    fn in_dim(&self) -> usize {
        self.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.w.cols()
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w]
    }

    fn supports_agg_cache(&self) -> bool {
        true
    }

    fn forward(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> LayerForward {
        assert_eq!(
            h_nbr.cols(),
            self.in_dim(),
            "GcnLayer::forward: input dim mismatch"
        );
        assert_eq!(
            h_nbr.rows(),
            chunk.num_neighbors(),
            "GcnLayer::forward: neighbor count"
        );
        let a = self.aggregate(chunk, h_nbr);
        let z = a.matmul(&self.w);
        LayerForward {
            out: self.act.apply(&z),
            agg: Some(a),
        }
    }

    fn activation(&self) -> Activation {
        self.act
    }

    fn backward(
        &self,
        chunk: &ChunkSubgraph,
        from: BackwardFrom<'_>,
        upstream: Upstream<'_>,
        input_grad: bool,
        grads: &mut LayerGrads,
    ) -> Option<Matrix> {
        let a = layer::checkpoint(from, |h_nbr| self.aggregate(chunk, h_nbr));
        let dz = upstream.through(self.act, || a.matmul(&self.w));
        grads.grads[0].add_assign(&a.transpose_matmul(&dz));
        input_grad.then(|| self.aggregate_backward(chunk, &dz.matmul_transpose(&self.w)))
    }

    fn forward_flops(&self, chunk: &ChunkSubgraph) -> LayerFlops {
        let d_in = self.in_dim() as f64;
        let d_out = self.out_dim() as f64;
        let v = chunk.num_dests() as f64;
        let e = chunk.num_edges() as f64;
        LayerFlops {
            dense: 2.0 * v * d_in * d_out, // a × W
            edge: 2.0 * e * d_in,          // weighted gather-sum
        }
    }

    fn intermediate_bytes(&self, shape: ChunkShape) -> usize {
        // a (D × in) and z (D × out) are live between forward and backward.
        shape.dests * (self.in_dim() + self.out_dim()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::{Graph, GraphBuilder};

    fn toy() -> (Graph, ChunkSubgraph) {
        let mut b = GraphBuilder::new(4);
        for (s, t) in [(0, 1), (0, 2), (1, 2), (3, 2), (2, 0)] {
            b.add_edge(s, t);
        }
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, vec![0, 1, 2, 3]);
        (g, chunk)
    }

    fn inputs(chunk: &ChunkSubgraph, dim: usize) -> Matrix {
        Matrix::from_fn(chunk.num_neighbors(), dim, |r, c| {
            ((r * 3 + c) as f32 * 0.17).sin()
        })
    }

    #[test]
    fn forward_shapes_and_agg_present() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(1);
        let layer = GcnLayer::new(3, 5, &mut rng);
        let h = inputs(&chunk, 3);
        let f = layer.forward(&chunk, &h);
        assert_eq!(f.out.shape(), (4, 5));
        let agg = f.agg.expect("GCN supports agg caching");
        assert_eq!(agg.shape(), (4, 3));
    }

    #[test]
    fn aggregate_matches_manual_sum() {
        let (g, chunk) = toy();
        let mut rng = SeededRng::new(2);
        let layer = GcnLayer::new(2, 2, &mut rng);
        let h = inputs(&chunk, 2);
        let f = layer.forward(&chunk, &h);
        let agg = f.agg.unwrap();
        // Destination vertex 2 (local index 2) has in-neighbors {0,1,3}.
        let k = chunk.dests.iter().position(|&d| d == 2).unwrap();
        let mut expect = vec![0.0f32; 2];
        for e in chunk.in_edges_of(k) {
            let src = chunk.nbr_index[e] as usize;
            for (o, &x) in expect.iter_mut().zip(h.row(src)) {
                *o += chunk.gcn_weights[e] * x;
            }
        }
        assert!(agg
            .row(k)
            .iter()
            .zip(&expect)
            .all(|(a, b)| (a - b).abs() < 1e-6));
        drop(g);
    }

    #[test]
    fn recompute_and_hybrid_paths_agree_exactly() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(3);
        let layer = GcnLayer::new(3, 4, &mut rng);
        let h = inputs(&chunk, 3);
        let f = layer.forward(&chunk, &h);
        let grad_out = Matrix::from_fn(4, 4, |r, c| ((r + c) as f32 * 0.3).cos());

        let mut g1 = LayerGrads::zeros_for(&layer);
        let grad_nbr1 = layer.backward_from_input(&chunk, &h, &grad_out, &mut g1);
        let mut g2 = LayerGrads::zeros_for(&layer);
        let grad_nbr2 =
            layer.backward_from_agg(&chunk, f.agg.as_ref().unwrap(), &grad_out, &mut g2);

        // Identical op order → bit-identical results.
        assert_eq!(grad_nbr1, grad_nbr2);
        assert_eq!(g1.grads[0], g2.grads[0]);
    }

    #[test]
    fn zero_upstream_gives_zero_grads() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(4);
        let layer = GcnLayer::new(2, 2, &mut rng);
        let h = inputs(&chunk, 2);
        let mut grads = LayerGrads::zeros_for(&layer);
        let gn = layer.backward_from_input(&chunk, &h, &Matrix::zeros(4, 2), &mut grads);
        assert_eq!(gn.sum(), 0.0);
        assert_eq!(grads.grads[0].sum(), 0.0);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(5);
        let mut layer = GcnLayer::new(3, 2, &mut rng);
        let h = inputs(&chunk, 3);
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 2e-2);
    }

    #[test]
    fn aggregate_equals_spmm() {
        // The hand-rolled aggregation loop is exactly the sparse × dense
        // product the paper's cuSparse engine computes.
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(9);
        let layer = GcnLayer::new(3, 3, &mut rng);
        let h = inputs(&chunk, 3);
        let loop_agg = layer.aggregate(&chunk, &h);
        let spmm_agg = chunk.to_csr_matrix().spmm(&h);
        assert!(loop_agg.approx_eq(&spmm_agg, 1e-6));
        // And the backward scatter is the transpose product.
        let grad_a = Matrix::from_fn(chunk.num_dests(), 3, |r, c| ((r + c) as f32 * 0.3).sin());
        let loop_bwd = layer.aggregate_backward(&chunk, &grad_a);
        let spmm_bwd = chunk.to_csr_matrix().transpose_spmm(&grad_a);
        assert!(loop_bwd.approx_eq(&spmm_bwd, 1e-6));
    }

    #[test]
    fn flops_scale_with_dims() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(6);
        let small = GcnLayer::new(4, 4, &mut rng);
        let big = GcnLayer::new(8, 8, &mut rng);
        assert!(big.forward_flops(&chunk).dense > small.forward_flops(&chunk).dense);
        assert!(big.intermediate_bytes(chunk.shape()) > small.intermediate_bytes(chunk.shape()));
        assert_eq!(
            big.agg_cache_bytes(chunk.shape()),
            chunk.num_dests() * 8 * 4
        );
    }
}
