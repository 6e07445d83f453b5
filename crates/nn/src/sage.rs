//! GraphSAGE-mean layer:
//! `h_v = ReLU(W_self · h_v + W_nbr · mean_{u∈N(v)} h_u)`.
//!
//! The AGGREGATE (a mean) produces no edge intermediates, so this layer
//! supports hybrid caching. Because UPDATE reads both the mean aggregate
//! and the destination's own representation, the cached checkpoint is the
//! horizontal concatenation `[mean_agg | h_dest]` (`|V_ij| × 2·in_dim`) —
//! the checkpoint tensor is layer-defined and opaque to the engine.

use crate::layer::{
    self, Activation, BackwardFrom, GnnLayer, LayerFlops, LayerForward, LayerGrads, Upstream,
};
use hongtu_partition::{ChunkShape, ChunkSubgraph};
use hongtu_tensor::{Matrix, SeededRng};

/// One GraphSAGE-mean layer.
#[derive(Debug, Clone)]
pub struct SageLayer {
    w_self: Matrix,
    w_nbr: Matrix,
    /// UPDATE nonlinearity (ReLU for hidden layers, Identity for output).
    pub act: Activation,
}

impl SageLayer {
    /// A layer with Xavier-initialized self and neighbor projections.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        SageLayer {
            w_self: hongtu_tensor::xavier_uniform(in_dim, out_dim, rng),
            w_nbr: hongtu_tensor::xavier_uniform(in_dim, out_dim, rng),
            act: Activation::Relu,
        }
    }

    /// The `[mean_agg | h_dest]` checkpoint, aggregated and gathered
    /// straight into its two halves.
    fn aggregate(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> Matrix {
        let dim = h_nbr.cols();
        let self_pos = layer::self_positions(chunk);
        let mut ckpt = Matrix::zeros(chunk.num_dests(), 2 * dim);
        for k in 0..chunk.num_dests() {
            let range = chunk.in_edges_of(k);
            let inv = 1.0 / range.len().max(1) as f32;
            let (out, dest) = ckpt.row_mut(k).split_at_mut(dim);
            for e in range {
                let src = chunk.nbr_index[e] as usize;
                for (o, &x) in out.iter_mut().zip(h_nbr.row(src)) {
                    *o += inv * x;
                }
            }
            dest.copy_from_slice(h_nbr.row(self_pos[k]));
        }
        ckpt
    }

    /// `z = h_dest·W_self + mean_agg·W_nbr` from the checkpoint's halves.
    fn pre_activation(&self, ckpt: &Matrix) -> Matrix {
        let (agg, h_dest) = layer::halves(ckpt);
        h_dest.matmul(&self.w_self).add(&agg.matmul(&self.w_nbr))
    }

    /// Scatters `(grad_agg, grad_dest)` back onto neighbor rows.
    fn aggregate_backward(
        &self,
        chunk: &ChunkSubgraph,
        grad_agg: &Matrix,
        grad_dest: &Matrix,
    ) -> Matrix {
        let dim = grad_agg.cols();
        let self_pos = layer::self_positions(chunk);
        let mut grad_nbr = Matrix::zeros(chunk.num_neighbors(), dim);
        for k in 0..chunk.num_dests() {
            let range = chunk.in_edges_of(k);
            let inv = 1.0 / range.len().max(1) as f32;
            let ga = grad_agg.row(k);
            for e in range {
                let src = chunk.nbr_index[e] as usize;
                let out = grad_nbr.row_mut(src);
                for (o, &gv) in out.iter_mut().zip(ga) {
                    *o += inv * gv;
                }
            }
        }
        grad_nbr.scatter_add_rows(&self_pos, grad_dest);
        grad_nbr
    }
}

impl GnnLayer for SageLayer {
    fn in_dim(&self) -> usize {
        self.w_self.rows()
    }

    fn out_dim(&self) -> usize {
        self.w_self.cols()
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w_self, &self.w_nbr]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w_self, &mut self.w_nbr]
    }

    fn supports_agg_cache(&self) -> bool {
        true
    }

    fn forward(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> LayerForward {
        assert_eq!(
            h_nbr.cols(),
            self.in_dim(),
            "SageLayer::forward: input dim mismatch"
        );
        let checkpoint = self.aggregate(chunk, h_nbr);
        LayerForward {
            out: self.act.apply(&self.pre_activation(&checkpoint)),
            agg: Some(checkpoint),
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
        let ckpt = layer::checkpoint(from, |h_nbr| self.aggregate(chunk, h_nbr));
        let dz = upstream.through(self.act, || self.pre_activation(&ckpt));
        let (agg, h_dest) = layer::halves(&ckpt);
        grads.grads[0].add_assign(&h_dest.transpose_matmul(&dz));
        grads.grads[1].add_assign(&agg.transpose_matmul(&dz));
        input_grad.then(|| {
            let grad_agg = dz.matmul_transpose(&self.w_nbr);
            self.aggregate_backward(chunk, &grad_agg, &dz.matmul_transpose(&self.w_self))
        })
    }

    fn forward_flops(&self, chunk: &ChunkSubgraph) -> LayerFlops {
        let d_in = self.in_dim() as f64;
        let d_out = self.out_dim() as f64;
        let v = chunk.num_dests() as f64;
        let e = chunk.num_edges() as f64;
        LayerFlops {
            dense: 4.0 * v * d_in * d_out,
            edge: 2.0 * e * d_in,
        }
    }

    fn intermediate_bytes(&self, shape: ChunkShape) -> usize {
        // agg + h_dest (D × in each) + z (D × out)
        shape.dests * (2 * self.in_dim() + self.out_dim()) * std::mem::size_of::<f32>()
    }

    fn agg_cache_bytes(&self, shape: ChunkShape) -> usize {
        shape.dests * 2 * self.in_dim() * std::mem::size_of::<f32>()
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
        for (s, t) in [(0, 1), (0, 2), (1, 2), (3, 2), (2, 0)] {
            b.add_edge(s, t);
        }
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, vec![0, 1, 2, 3]);
        (g, chunk)
    }

    fn inputs(chunk: &ChunkSubgraph, dim: usize) -> Matrix {
        Matrix::from_fn(chunk.num_neighbors(), dim, |r, c| {
            ((r * 2 + c * 7) as f32 * 0.31).sin()
        })
    }

    #[test]
    fn forward_shapes_and_checkpoint_width() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(1);
        let layer = SageLayer::new(3, 5, &mut rng);
        let h = inputs(&chunk, 3);
        let f = layer.forward(&chunk, &h);
        assert_eq!(f.out.shape(), (4, 5));
        assert_eq!(
            f.agg.unwrap().shape(),
            (4, 6),
            "checkpoint is [agg | h_dest]"
        );
        assert_eq!(layer.agg_cache_bytes(chunk.shape()), 4 * 6 * 4);
    }

    #[test]
    fn mean_aggregate_of_uniform_input_is_input() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(2);
        let layer = SageLayer::new(2, 2, &mut rng);
        let h = Matrix::full(chunk.num_neighbors(), 2, 3.5);
        let ckpt = layer.aggregate(&chunk, &h);
        let (agg, h_dest) = (ckpt.columns(0..2), ckpt.columns(2..4));
        assert!(agg.as_slice().iter().all(|&v| (v - 3.5).abs() < 1e-6));
        assert!(h_dest.as_slice().iter().all(|&v| (v - 3.5).abs() < 1e-6));
    }

    #[test]
    fn hybrid_and_recompute_paths_agree() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(3);
        let layer = SageLayer::new(3, 4, &mut rng);
        let h = inputs(&chunk, 3);
        let f = layer.forward(&chunk, &h);
        let grad_out = Matrix::from_fn(4, 4, |r, c| ((r * 3 + c) as f32 * 0.21).cos());
        let mut g1 = LayerGrads::zeros_for(&layer);
        let n1 = layer.backward_from_input(&chunk, &h, &grad_out, &mut g1);
        let mut g2 = LayerGrads::zeros_for(&layer);
        let n2 = layer.backward_from_agg(&chunk, f.agg.as_ref().unwrap(), &grad_out, &mut g2);
        assert!(n1.approx_eq(&n2, 1e-6));
        assert!(g1.grads[0].approx_eq(&g2.grads[0], 1e-6));
        assert!(g1.grads[1].approx_eq(&g2.grads[1], 1e-6));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(4);
        let mut layer = SageLayer::new(3, 2, &mut rng);
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
        let mut layer = SageLayer::new(4, 3, &mut rng);
        let h = Matrix::from_fn(chunk.num_neighbors(), 4, |r, c| {
            ((r * 5 + c * 3) as f32 * 0.21).cos() * 0.7
        });
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 2e-2);
    }
}
