//! Graph isomorphism network layer (GIN-ε):
//! `h_v = ReLU(W · ((1+ε) · h_v + Σ_{u∈N(v)} h_u))`.
//!
//! Sum aggregation has no edge intermediates, so GIN supports hybrid
//! caching with a `|V_ij| × in_dim` checkpoint (the combined sum).

use crate::layer::{
    self, Activation, BackwardFrom, GnnLayer, LayerFlops, LayerForward, LayerGrads, Upstream,
};
use hongtu_partition::{ChunkShape, ChunkSubgraph};
use hongtu_tensor::{Matrix, SeededRng};

/// One GIN layer with fixed ε.
#[derive(Debug, Clone)]
pub struct GinLayer {
    w: Matrix,
    /// The ε of `(1+ε)·h_v`; fixed (GIN-0 uses 0).
    pub epsilon: f32,
    /// UPDATE nonlinearity (ReLU for hidden layers, Identity for output).
    pub act: Activation,
}

impl GinLayer {
    /// A GIN-0 layer (`ε = 0`) with Xavier-initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        GinLayer {
            w: hongtu_tensor::xavier_uniform(in_dim, out_dim, rng),
            epsilon: 0.0,
            act: Activation::Relu,
        }
    }

    /// Combined sum `a_k = (1+ε)·h_dest[k] + Σ_e h_nbr[src(e)]`.
    ///
    /// Self-loops contribute to the plain sum, so with `ε = 0` the self term
    /// appears exactly once more than a loop-free GIN would give — the same
    /// convention the self-loop-augmented GCN uses.
    fn aggregate(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> Matrix {
        let dim = h_nbr.cols();
        let self_pos = layer::self_positions(chunk);
        let mut a = Matrix::zeros(chunk.num_dests(), dim);
        for k in 0..chunk.num_dests() {
            let out = a.row_mut(k);
            for e in chunk.in_edges_of(k) {
                let src = chunk.nbr_index[e] as usize;
                for (o, &x) in out.iter_mut().zip(h_nbr.row(src)) {
                    *o += x;
                }
            }
            let sp = self_pos[k];
            for (o, &x) in a.row_mut(k).iter_mut().zip(h_nbr.row(sp)) {
                *o += self.epsilon * x;
            }
        }
        a
    }

    fn aggregate_backward(&self, chunk: &ChunkSubgraph, grad_a: &Matrix) -> Matrix {
        let dim = grad_a.cols();
        let self_pos = layer::self_positions(chunk);
        let mut grad_nbr = Matrix::zeros(chunk.num_neighbors(), dim);
        for k in 0..chunk.num_dests() {
            let ga = grad_a.row(k);
            for e in chunk.in_edges_of(k) {
                let src = chunk.nbr_index[e] as usize;
                let out = grad_nbr.row_mut(src);
                for (o, &gv) in out.iter_mut().zip(ga) {
                    *o += gv;
                }
            }
            let sp = self_pos[k];
            let out = grad_nbr.row_mut(sp);
            for (o, &gv) in out.iter_mut().zip(ga) {
                *o += self.epsilon * gv;
            }
        }
        grad_nbr
    }
}

impl GnnLayer for GinLayer {
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
            "GinLayer::forward: input dim mismatch"
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
            dense: 2.0 * v * d_in * d_out,
            edge: e * d_in,
        }
    }

    fn intermediate_bytes(&self, shape: ChunkShape) -> usize {
        shape.dests * (self.in_dim() + self.out_dim()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::{Graph, GraphBuilder};

    fn toy() -> (Graph, ChunkSubgraph) {
        let mut b = GraphBuilder::new(4).keep_self_loops();
        for v in 0..4 {
            b.add_edge(v, v);
        }
        for (s, t) in [(0, 1), (0, 2), (1, 2), (3, 2)] {
            b.add_edge(s, t);
        }
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, vec![0, 1, 2, 3]);
        (g, chunk)
    }

    fn inputs(chunk: &ChunkSubgraph, dim: usize) -> Matrix {
        Matrix::from_fn(chunk.num_neighbors(), dim, |r, c| {
            ((r + c * 5) as f32 * 0.27).sin()
        })
    }

    #[test]
    fn sum_aggregation_counts_every_edge() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(1);
        let layer = GinLayer::new(2, 2, &mut rng);
        let h = Matrix::full(chunk.num_neighbors(), 2, 1.0);
        let a = layer.aggregate(&chunk, &h);
        // With ε=0 the aggregate of all-ones input equals the in-degree.
        for (k, &d) in chunk.dests.iter().enumerate() {
            let deg = chunk.in_edges_of(k).len() as f32;
            assert!((a.get(k, 0) - deg).abs() < 1e-6, "dest {d}");
        }
    }

    #[test]
    fn epsilon_scales_self_contribution() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(2);
        let mut layer = GinLayer::new(2, 2, &mut rng);
        let h = inputs(&chunk, 2);
        let a0 = layer.aggregate(&chunk, &h);
        layer.epsilon = 1.0;
        let a1 = layer.aggregate(&chunk, &h);
        let self_pos = crate::layer::self_positions(&chunk);
        for k in 0..chunk.num_dests() {
            let expect = a0.get(k, 0) + h.get(self_pos[k], 0);
            assert!((a1.get(k, 0) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn hybrid_and_recompute_paths_agree_exactly() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(3);
        let layer = GinLayer::new(3, 4, &mut rng);
        let h = inputs(&chunk, 3);
        let f = layer.forward(&chunk, &h);
        let grad_out = Matrix::from_fn(4, 4, |r, c| ((r + c) as f32 * 0.4).cos());
        let mut g1 = LayerGrads::zeros_for(&layer);
        let n1 = layer.backward_from_input(&chunk, &h, &grad_out, &mut g1);
        let mut g2 = LayerGrads::zeros_for(&layer);
        let n2 = layer.backward_from_agg(&chunk, f.agg.as_ref().unwrap(), &grad_out, &mut g2);
        assert_eq!(n1, n2);
        assert_eq!(g1.grads[0], g2.grads[0]);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(4);
        let mut layer = GinLayer::new(3, 2, &mut rng);
        let h = inputs(&chunk, 3);
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 2e-2);
    }

    #[test]
    fn gradient_check_on_random_graph() {
        let mut rng = SeededRng::new(8);
        let mut b = GraphBuilder::new(15).keep_self_loops();
        for v in 0..15u32 {
            b.add_edge(v, v);
        }
        for _ in 0..45 {
            b.add_edge(rng.index(15) as u32, rng.index(15) as u32);
        }
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, (0..15).collect());
        let mut layer = GinLayer::new(4, 3, &mut rng);
        let h = Matrix::from_fn(chunk.num_neighbors(), 4, |r, c| {
            ((r * 3 + c * 7) as f32 * 0.19).sin() * 0.7
        });
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 2e-2);
    }

    #[test]
    fn gradient_check_with_nonzero_epsilon() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(5);
        let mut layer = GinLayer::new(2, 3, &mut rng);
        layer.epsilon = 0.5;
        let h = inputs(&chunk, 2);
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 2e-2);
    }
}
