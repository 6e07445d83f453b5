//! CommNet layer (Sukhbaatar et al., NeurIPS 2016) — one of the four
//! models the paper names as benefiting from hybrid caching (§4.2):
//!
//! `h_v = ReLU(W_self · h_v + W_comm · mean_{u∈N(v)\{v}} h_u)`
//!
//! The "communication" term averages the *other* agents' states, so the
//! self-loop edge is excluded from the mean (unlike SAGE, which keeps it).
//! AGGREGATE is still a plain mean — no edge intermediates — so the layer
//! caches `[mean_agg | h_dest]` exactly like SAGE.

use crate::layer::{
    self, Activation, BackwardFrom, GnnLayer, LayerFlops, LayerForward, LayerGrads, Upstream,
};
use hongtu_partition::{ChunkShape, ChunkSubgraph};
use hongtu_tensor::{Matrix, SeededRng};

/// One CommNet layer.
#[derive(Debug, Clone)]
pub struct CommNetLayer {
    w_self: Matrix,
    w_comm: Matrix,
    /// UPDATE nonlinearity (ReLU for hidden layers, Identity for output).
    pub act: Activation,
}

impl CommNetLayer {
    /// A layer with Xavier-initialized self and communication projections.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        CommNetLayer {
            w_self: hongtu_tensor::xavier_uniform(in_dim, out_dim, rng),
            w_comm: hongtu_tensor::xavier_uniform(in_dim, out_dim, rng),
            act: Activation::Relu,
        }
    }

    /// The `[mean_agg | h_dest]` checkpoint, the mean taken over
    /// in-neighbors excluding the destination's own self-loop, aggregated
    /// and gathered straight into its two halves.
    fn aggregate(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> Matrix {
        let dim = h_nbr.cols();
        let self_pos = layer::self_positions(chunk);
        let mut ckpt = Matrix::zeros(chunk.num_dests(), 2 * dim);
        for k in 0..chunk.num_dests() {
            let sp = self_pos[k] as u32;
            let (out, dest) = ckpt.row_mut(k).split_at_mut(dim);
            dest.copy_from_slice(h_nbr.row(self_pos[k]));
            let range = chunk.in_edges_of(k);
            let others = range.clone().filter(|&e| chunk.nbr_index[e] != sp).count();
            if others == 0 {
                continue; // isolated agent: zero communication term
            }
            let inv = 1.0 / others as f32;
            for e in range {
                let src = chunk.nbr_index[e];
                if src == sp {
                    continue;
                }
                for (o, &x) in out.iter_mut().zip(h_nbr.row(src as usize)) {
                    *o += inv * x;
                }
            }
        }
        ckpt
    }

    /// `z = h_dest·W_self + mean_agg·W_comm` from the checkpoint's halves.
    fn pre_activation(&self, ckpt: &Matrix) -> Matrix {
        let (agg, h_dest) = layer::halves(ckpt);
        h_dest.matmul(&self.w_self).add(&agg.matmul(&self.w_comm))
    }

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
            let sp = self_pos[k] as u32;
            let range = chunk.in_edges_of(k);
            let others = range.clone().filter(|&e| chunk.nbr_index[e] != sp).count();
            if others == 0 {
                continue;
            }
            let inv = 1.0 / others as f32;
            let ga = grad_agg.row(k);
            for e in range {
                let src = chunk.nbr_index[e];
                if src == sp {
                    continue;
                }
                let out = grad_nbr.row_mut(src as usize);
                for (o, &gv) in out.iter_mut().zip(ga) {
                    *o += inv * gv;
                }
            }
        }
        grad_nbr.scatter_add_rows(&self_pos, grad_dest);
        grad_nbr
    }
}

impl GnnLayer for CommNetLayer {
    fn in_dim(&self) -> usize {
        self.w_self.rows()
    }

    fn out_dim(&self) -> usize {
        self.w_self.cols()
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w_self, &self.w_comm]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w_self, &mut self.w_comm]
    }

    fn supports_agg_cache(&self) -> bool {
        true
    }

    fn forward(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> LayerForward {
        assert_eq!(
            h_nbr.cols(),
            self.in_dim(),
            "CommNetLayer::forward: input dim mismatch"
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
            let grad_agg = dz.matmul_transpose(&self.w_comm);
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
            ((r * 3 + c * 5) as f32 * 0.29).sin()
        })
    }

    #[test]
    fn self_loop_is_excluded_from_communication() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(1);
        let layer = CommNetLayer::new(2, 2, &mut rng);
        let h = inputs(&chunk, 2);
        let agg = layer.aggregate(&chunk, &h).columns(0..2);
        // Vertex 3 has only its self-loop → zero communication term.
        let k3 = chunk.dests.iter().position(|&d| d == 3).unwrap();
        assert!(agg.row(k3).iter().all(|&v| v == 0.0));
        // Vertex 1 hears only from vertex 0.
        let k1 = chunk.dests.iter().position(|&d| d == 1).unwrap();
        let p0 = chunk.neighbors.binary_search(&0).unwrap();
        assert!(agg
            .row(k1)
            .iter()
            .zip(h.row(p0))
            .all(|(a, b)| (a - b).abs() < 1e-6));
    }

    #[test]
    fn hybrid_and_recompute_paths_agree() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(2);
        let layer = CommNetLayer::new(3, 4, &mut rng);
        let h = inputs(&chunk, 3);
        let f = layer.forward(&chunk, &h);
        let grad_out = Matrix::from_fn(4, 4, |r, c| ((r + 2 * c) as f32 * 0.19).cos());
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
        // Seed chosen so no pre-activation lands on the ReLU kink, where
        // central differences are off by ~2x regardless of correctness.
        let mut rng = SeededRng::new(5);
        let mut layer = CommNetLayer::new(3, 2, &mut rng);
        let h = inputs(&chunk, 3);
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 2e-2);
    }

    #[test]
    fn supports_caching() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(4);
        let layer = CommNetLayer::new(3, 2, &mut rng);
        assert!(layer.supports_agg_cache());
        assert_eq!(
            layer.agg_cache_bytes(chunk.shape()),
            chunk.num_dests() * 6 * 4
        );
    }
}
