//! Multi-head graph attention.
//!
//! The paper's Eq. 3 is single-head; production GAT stacks `H` independent
//! attention heads and concatenates their outputs (Velickovic et al.).
//! This wrapper composes `H` single-head [`GatLayer`]s, each producing
//! `out_dim / H` features, and splits/merges gradients column-wise. Edge
//! intermediates scale with `H`, amplifying the memory pressure that makes
//! GAT the paper's stress-test model.

use crate::gat::GatLayer;
use crate::layer::{
    Activation, BackwardFrom, GnnLayer, LayerFlops, LayerForward, LayerGrads, Upstream,
};
use hongtu_partition::{ChunkShape, ChunkSubgraph};
use hongtu_tensor::{Matrix, SeededRng};

/// A concatenating multi-head GAT layer.
#[derive(Debug, Clone)]
pub struct MultiHeadGatLayer {
    heads: Vec<GatLayer>,
    head_dim: usize,
}

impl MultiHeadGatLayer {
    /// `heads` attention heads of `out_dim / heads` features each.
    ///
    /// # Panics
    /// Panics if `out_dim` is not divisible by `heads` or `heads == 0`.
    pub fn new(in_dim: usize, out_dim: usize, heads: usize, rng: &mut SeededRng) -> Self {
        assert!(heads > 0, "need at least one head");
        assert_eq!(
            out_dim % heads,
            0,
            "out_dim {out_dim} must divide into {heads} heads"
        );
        let head_dim = out_dim / heads;
        let heads = (0..heads)
            .map(|h| {
                let mut head_rng = rng.fork(500 + h as u64);
                GatLayer::new(in_dim, head_dim, &mut head_rng)
            })
            .collect();
        MultiHeadGatLayer { heads, head_dim }
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Sets the UPDATE activation on every head.
    pub fn set_activation(&mut self, act: Activation) {
        for h in &mut self.heads {
            h.act = act;
        }
    }
}

impl GnnLayer for MultiHeadGatLayer {
    fn in_dim(&self) -> usize {
        self.heads[0].in_dim()
    }

    fn out_dim(&self) -> usize {
        self.head_dim * self.heads.len()
    }

    fn params(&self) -> Vec<&Matrix> {
        self.heads.iter().flat_map(|h| h.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.heads.iter_mut().flat_map(|h| h.params_mut()).collect()
    }

    fn supports_agg_cache(&self) -> bool {
        false // edge intermediates per head, like single-head GAT
    }

    fn forward(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> LayerForward {
        let mut out = self.heads[0].forward(chunk, h_nbr).out;
        for head in &self.heads[1..] {
            out = out.hstack(&head.forward(chunk, h_nbr).out);
        }
        LayerForward { out, agg: None }
    }

    fn activation(&self) -> Activation {
        self.heads[0].act
    }

    fn backward(
        &self,
        chunk: &ChunkSubgraph,
        from: BackwardFrom<'_>,
        upstream: Upstream<'_>,
        input_grad: bool,
        grads: &mut LayerGrads,
    ) -> Option<Matrix> {
        let BackwardFrom::Input(h_nbr) = from else {
            from.unsupported()
        };
        let (grad, pre_activation) = match upstream {
            Upstream::Output(grad) => (grad, false),
            Upstream::PreActivation(dz) => (dz, true),
        };
        assert_eq!(
            grad.cols(),
            self.out_dim(),
            "multi-head grad width mismatch"
        );
        let per_head_params = self.heads[0].params().len();
        let mut grad_nbr = input_grad.then(|| Matrix::zeros(h_nbr.rows(), self.in_dim()));
        for (h, head) in self.heads.iter().enumerate() {
            let cols = h * self.head_dim..(h + 1) * self.head_dim;
            let head_grad = grad.columns(cols);
            let head_upstream = if pre_activation {
                Upstream::PreActivation(&head_grad)
            } else {
                Upstream::Output(&head_grad)
            };
            // Route this head's parameter gradients into its slice of the
            // flattened gradient list.
            let mut head_grads = LayerGrads {
                grads: grads.grads[h * per_head_params..(h + 1) * per_head_params].to_vec(),
            };
            let gn = head.backward(chunk, from, head_upstream, input_grad, &mut head_grads);
            for (slot, g) in grads.grads[h * per_head_params..(h + 1) * per_head_params]
                .iter_mut()
                .zip(head_grads.grads)
            {
                *slot = g;
            }
            if let (Some(acc), Some(gn)) = (grad_nbr.as_mut(), gn) {
                acc.add_assign(&gn);
            }
        }
        grad_nbr
    }

    fn forward_flops(&self, chunk: &ChunkSubgraph) -> LayerFlops {
        self.heads.iter().fold(LayerFlops::default(), |acc, h| {
            acc.add(h.forward_flops(chunk))
        })
    }

    fn intermediate_bytes(&self, shape: ChunkShape) -> usize {
        self.heads.iter().map(|h| h.intermediate_bytes(shape)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::{Graph, GraphBuilder};

    fn toy() -> (Graph, ChunkSubgraph) {
        let mut b = GraphBuilder::new(5).keep_self_loops();
        for v in 0..5 {
            b.add_edge(v, v);
        }
        for (s, t) in [(0, 1), (0, 2), (1, 2), (3, 2), (2, 0), (4, 1), (1, 4)] {
            b.add_edge(s, t);
        }
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, vec![0, 1, 2, 3, 4]);
        (g, chunk)
    }

    fn inputs(chunk: &ChunkSubgraph, dim: usize) -> Matrix {
        Matrix::from_fn(chunk.num_neighbors(), dim, |r, c| {
            ((r * 7 + c) as f32 * 0.17).sin()
        })
    }

    #[test]
    fn shapes_and_metadata() {
        let mut rng = SeededRng::new(1);
        let layer = MultiHeadGatLayer::new(6, 8, 4, &mut rng);
        assert_eq!(layer.num_heads(), 4);
        assert_eq!(layer.in_dim(), 6);
        assert_eq!(layer.out_dim(), 8);
        assert_eq!(layer.params().len(), 4 * 3);
        assert!(!layer.supports_agg_cache());
    }

    #[test]
    fn forward_concatenates_heads() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(2);
        let layer = MultiHeadGatLayer::new(3, 4, 2, &mut rng);
        let h = inputs(&chunk, 3);
        let out = layer.forward(&chunk, &h).out;
        assert_eq!(out.shape(), (5, 4));
        // Each half equals the corresponding head's own forward.
        let h0 = layer.heads[0].forward(&chunk, &h).out;
        let h1 = layer.heads[1].forward(&chunk, &h).out;
        assert_eq!(out.columns(0..2), h0);
        assert_eq!(out.columns(2..4), h1);
    }

    #[test]
    fn single_head_matches_plain_gat_gradients() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(3);
        let multi = MultiHeadGatLayer::new(3, 4, 1, &mut rng);
        let plain = multi.heads[0].clone();
        let h = inputs(&chunk, 3);
        let grad_out = Matrix::from_fn(5, 4, |r, c| ((r + c) as f32 * 0.23).cos());
        let mut gm = LayerGrads::zeros_for(&multi);
        let nm = multi.backward_from_input(&chunk, &h, &grad_out, &mut gm);
        let mut gp = LayerGrads::zeros_for(&plain);
        let np = plain.backward_from_input(&chunk, &h, &grad_out, &mut gp);
        assert_eq!(nm, np);
        assert_eq!(gm.grads[0], gp.grads[0]);
    }

    #[test]
    fn gradient_check_two_heads() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(4);
        let mut layer = MultiHeadGatLayer::new(3, 4, 2, &mut rng);
        let h = inputs(&chunk, 3);
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 3e-2);
    }

    #[test]
    fn more_heads_more_intermediates() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(5);
        let one = MultiHeadGatLayer::new(4, 8, 1, &mut rng);
        let four = MultiHeadGatLayer::new(4, 8, 4, &mut rng);
        assert!(four.intermediate_bytes(chunk.shape()) > one.intermediate_bytes(chunk.shape()) / 2);
        assert!(four.forward_flops(&chunk).edge > one.forward_flops(&chunk).edge);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_heads() {
        let mut rng = SeededRng::new(6);
        let _ = MultiHeadGatLayer::new(4, 7, 2, &mut rng);
    }
}
