//! Gated graph network layer (the paper's "GGCN" [25]) with a GRU-style
//! UPDATE:
//!
//! ```text
//! m_v = Σ_{u∈N(v)} h_u                       (sum aggregate)
//! a   = m_v · W_m          s = h_v · W_s     (projections)
//! z   = σ(a·W_z + s·U_z)   r = σ(a·W_r + s·U_r)
//! h̃   = tanh(a·W_h + (r ⊙ s)·U_h)
//! h'  = (1 − z) ⊙ s + z ⊙ h̃
//! ```
//!
//! The AGGREGATE is a plain (unweighted) sum, so hybrid caching applies
//! with checkpoint `[m_v | h_v]` — but the UPDATE is now a full gated
//! recurrent cell, making GGNN the showcase for §4.2's "recompute only
//! the UPDATE stage": the backward pass reloads an `O(|V|)` checkpoint
//! and re-runs a dense-but-heavy UPDATE instead of touching the edges.

use crate::layer::{
    self, Activation, BackwardFrom, GnnLayer, LayerFlops, LayerForward, LayerGrads, Upstream,
};
use hongtu_partition::{ChunkShape, ChunkSubgraph};
use hongtu_tensor::ops::{sigmoid, sigmoid_backward_from_output, tanh, tanh_backward_from_output};
use hongtu_tensor::{Columns, Matrix, SeededRng};

/// One gated graph layer.
#[derive(Debug, Clone)]
pub struct GgnnLayer {
    w_m: Matrix,
    w_s: Matrix,
    w_z: Matrix,
    u_z: Matrix,
    w_r: Matrix,
    u_r: Matrix,
    w_h: Matrix,
    u_h: Matrix,
    /// Applied on top of the gated output (Identity recommended — the GRU
    /// cell is already nonlinear — but kept for interface uniformity).
    pub act: Activation,
}

/// Forward internals reused by the backward pass.
struct GruForward {
    a: Matrix,
    s: Matrix,
    z: Matrix,
    r: Matrix,
    h_tilde: Matrix,
}

impl GruForward {
    /// The cell's output `h' = (1 − z)⊙s + z⊙h̃`.
    fn output(&self) -> Matrix {
        let mut h_prime = self.s.clone();
        for i in 0..h_prime.len() {
            let zi = self.z.as_slice()[i];
            h_prime.as_mut_slice()[i] =
                (1.0 - zi) * self.s.as_slice()[i] + zi * self.h_tilde.as_slice()[i];
        }
        h_prime
    }
}

impl GgnnLayer {
    /// A layer with Xavier-initialized projections and gates.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        let mk = |stream: u64, r: usize, c: usize| {
            hongtu_tensor::xavier_uniform(r, c, &mut rng.fork(stream))
        };
        GgnnLayer {
            w_m: mk(1, in_dim, out_dim),
            w_s: mk(2, in_dim, out_dim),
            w_z: mk(3, out_dim, out_dim),
            u_z: mk(4, out_dim, out_dim),
            w_r: mk(5, out_dim, out_dim),
            u_r: mk(6, out_dim, out_dim),
            w_h: mk(7, out_dim, out_dim),
            u_h: mk(8, out_dim, out_dim),
            act: Activation::Identity,
        }
    }

    /// The `[m | h_dest]` checkpoint: the plain neighbor sum and the
    /// destination rows, summed and gathered straight into its halves.
    fn aggregate(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> Matrix {
        let dim = h_nbr.cols();
        let self_pos = layer::self_positions(chunk);
        let mut ckpt = Matrix::zeros(chunk.num_dests(), 2 * dim);
        for k in 0..chunk.num_dests() {
            let (out, dest) = ckpt.row_mut(k).split_at_mut(dim);
            for e in chunk.in_edges_of(k) {
                let src = chunk.nbr_index[e] as usize;
                for (o, &x) in out.iter_mut().zip(h_nbr.row(src)) {
                    *o += x;
                }
            }
            dest.copy_from_slice(h_nbr.row(self_pos[k]));
        }
        ckpt
    }

    /// The GRU-style UPDATE from the `[m | h_dest]` checkpoint.
    fn gru_forward(&self, ckpt: &Matrix) -> GruForward {
        let (m, h_dest) = layer::halves(ckpt);
        let a = m.matmul(&self.w_m);
        let s = h_dest.matmul(&self.w_s);
        let z = sigmoid(&a.matmul(&self.w_z).add(&s.matmul(&self.u_z)));
        let r = sigmoid(&a.matmul(&self.w_r).add(&s.matmul(&self.u_r)));
        let rs = r.hadamard(&s);
        let h_tilde = tanh(&a.matmul(&self.w_h).add(&rs.matmul(&self.u_h)));
        GruForward {
            a,
            s,
            z,
            r,
            h_tilde,
        }
    }

    /// Backward through the GRU given upstream `g = ∂L/∂h'` (pre-act
    /// gradient). Accumulates all eight parameter gradients and returns
    /// `(∂L/∂a, ∂L/∂s)`, the gradients of the two input projections.
    fn gru_backward(
        &self,
        m: Columns<'_>,
        h_dest: Columns<'_>,
        fwd: &GruForward,
        g: &Matrix,
        grads: &mut LayerGrads,
    ) -> (Matrix, Matrix) {
        let GruForward {
            a,
            s,
            z,
            r,
            h_tilde,
            ..
        } = fwd;
        // Output combination.
        let dz = g.hadamard(&h_tilde.sub(s)); // ∂L/∂z
        let dh_tilde = g.hadamard(z);
        let mut ds = g.hadamard(&z.map(|v| 1.0 - v));
        // h̃ = tanh(a·W_h + (r⊙s)·U_h)
        let dh_pre = tanh_backward_from_output(h_tilde, &dh_tilde);
        let rs = r.hadamard(s);
        grads.grads[6].add_assign(&a.transpose_matmul(&dh_pre)); // ∇W_h
        grads.grads[7].add_assign(&rs.transpose_matmul(&dh_pre)); // ∇U_h
        let mut da = dh_pre.matmul_transpose(&self.w_h);
        let drs = dh_pre.matmul_transpose(&self.u_h);
        let dr = drs.hadamard(s);
        ds.add_assign(&drs.hadamard(r));
        // r = σ(a·W_r + s·U_r)
        let dr_pre = sigmoid_backward_from_output(r, &dr);
        grads.grads[4].add_assign(&a.transpose_matmul(&dr_pre)); // ∇W_r
        grads.grads[5].add_assign(&s.transpose_matmul(&dr_pre)); // ∇U_r
        da.add_assign(&dr_pre.matmul_transpose(&self.w_r));
        ds.add_assign(&dr_pre.matmul_transpose(&self.u_r));
        // z = σ(a·W_z + s·U_z)
        let dz_pre = sigmoid_backward_from_output(z, &dz);
        grads.grads[2].add_assign(&a.transpose_matmul(&dz_pre)); // ∇W_z
        grads.grads[3].add_assign(&s.transpose_matmul(&dz_pre)); // ∇U_z
        da.add_assign(&dz_pre.matmul_transpose(&self.w_z));
        ds.add_assign(&dz_pre.matmul_transpose(&self.u_z));
        // Projections a = m·W_m, s = h_dest·W_s.
        grads.grads[0].add_assign(&m.transpose_matmul(&da)); // ∇W_m
        grads.grads[1].add_assign(&h_dest.transpose_matmul(&ds)); // ∇W_s
        (da, ds)
    }

    /// Scatters `(grad_m, grad_dest)` back onto neighbor rows.
    fn aggregate_backward(
        &self,
        chunk: &ChunkSubgraph,
        grad_m: &Matrix,
        grad_dest: &Matrix,
    ) -> Matrix {
        let dim = grad_m.cols();
        let self_pos = layer::self_positions(chunk);
        let mut grad_nbr = Matrix::zeros(chunk.num_neighbors(), dim);
        for k in 0..chunk.num_dests() {
            let gm = grad_m.row(k);
            for e in chunk.in_edges_of(k) {
                let src = chunk.nbr_index[e] as usize;
                let out = grad_nbr.row_mut(src);
                for (o, &gv) in out.iter_mut().zip(gm) {
                    *o += gv;
                }
            }
        }
        grad_nbr.scatter_add_rows(&self_pos, grad_dest);
        grad_nbr
    }
}

impl GnnLayer for GgnnLayer {
    fn in_dim(&self) -> usize {
        self.w_m.rows()
    }

    fn out_dim(&self) -> usize {
        self.w_m.cols()
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![
            &self.w_m, &self.w_s, &self.w_z, &self.u_z, &self.w_r, &self.u_r, &self.w_h, &self.u_h,
        ]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![
            &mut self.w_m,
            &mut self.w_s,
            &mut self.w_z,
            &mut self.u_z,
            &mut self.w_r,
            &mut self.u_r,
            &mut self.w_h,
            &mut self.u_h,
        ]
    }

    fn supports_agg_cache(&self) -> bool {
        true
    }

    fn forward(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> LayerForward {
        assert_eq!(
            h_nbr.cols(),
            self.in_dim(),
            "GgnnLayer::forward: input dim mismatch"
        );
        let checkpoint = self.aggregate(chunk, h_nbr);
        let out = self.gru_forward(&checkpoint).output();
        LayerForward {
            out: self.act.apply(&out),
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
        let fwd = self.gru_forward(&ckpt);
        let g = upstream.through(self.act, || fwd.output());
        let (m, h_dest) = layer::halves(&ckpt);
        let (da, ds) = self.gru_backward(m, h_dest, &fwd, &g, grads);
        input_grad.then(|| {
            let grad_m = da.matmul_transpose(&self.w_m);
            self.aggregate_backward(chunk, &grad_m, &ds.matmul_transpose(&self.w_s))
        })
    }

    fn forward_flops(&self, chunk: &ChunkSubgraph) -> LayerFlops {
        let d_in = self.in_dim() as f64;
        let d_out = self.out_dim() as f64;
        let v = chunk.num_dests() as f64;
        let e = chunk.num_edges() as f64;
        LayerFlops {
            // 2 input projections + 6 gate matmuls + element-wise ops
            dense: 2.0 * v * d_in * d_out * 2.0 + 2.0 * v * d_out * d_out * 6.0 + 10.0 * v * d_out,
            edge: e * d_in,
        }
    }

    fn intermediate_bytes(&self, shape: ChunkShape) -> usize {
        // m, h_dest (D×in) plus a,s,z,r,h̃,h' (D×out each)
        shape.dests * (2 * self.in_dim() + 6 * self.out_dim()) * std::mem::size_of::<f32>()
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
            ((r * 3 + c * 5) as f32 * 0.23).sin()
        })
    }

    #[test]
    fn forward_shapes_and_gate_ranges() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(1);
        let layer = GgnnLayer::new(3, 4, &mut rng);
        let h = inputs(&chunk, 3);
        let fwd = layer.gru_forward(&layer.aggregate(&chunk, &h));
        assert_eq!(fwd.output().shape(), (4, 4));
        assert!(fwd.z.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(fwd.r.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(fwd
            .h_tilde
            .as_slice()
            .iter()
            .all(|&v| (-1.0..=1.0).contains(&v)));
        let f = layer.forward(&chunk, &h);
        assert_eq!(f.out.shape(), (4, 4));
        assert_eq!(f.agg.unwrap().shape(), (4, 6));
    }

    #[test]
    fn output_interpolates_between_state_and_candidate() {
        // With z forced to 0 (huge negative gate bias via zeroed weights),
        // h' == s exactly.
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(2);
        let mut layer = GgnnLayer::new(2, 2, &mut rng);
        layer.w_z = Matrix::full(2, 2, -100.0);
        layer.u_z = Matrix::full(2, 2, -100.0);
        let h = Matrix::full(chunk.num_neighbors(), 2, 0.5);
        let fwd = layer.gru_forward(&layer.aggregate(&chunk, &h));
        assert!(fwd.output().approx_eq(&fwd.s, 1e-4));
    }

    #[test]
    fn hybrid_and_recompute_paths_agree_exactly() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(3);
        let layer = GgnnLayer::new(3, 4, &mut rng);
        let h = inputs(&chunk, 3);
        let f = layer.forward(&chunk, &h);
        let grad_out = Matrix::from_fn(4, 4, |r, c| ((r + 2 * c) as f32 * 0.27).cos());
        let mut g1 = LayerGrads::zeros_for(&layer);
        let n1 = layer.backward_from_input(&chunk, &h, &grad_out, &mut g1);
        let mut g2 = LayerGrads::zeros_for(&layer);
        let n2 = layer.backward_from_agg(&chunk, f.agg.as_ref().unwrap(), &grad_out, &mut g2);
        assert_eq!(n1, n2);
        for (a, b) in g1.grads.iter().zip(&g2.grads) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(4);
        let mut layer = GgnnLayer::new(3, 3, &mut rng);
        let h = inputs(&chunk, 3);
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 3e-2);
    }

    #[test]
    fn gradient_check_with_relu_on_top() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(5);
        let mut layer = GgnnLayer::new(2, 3, &mut rng);
        layer.act = Activation::Relu;
        let h = inputs(&chunk, 2);
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 3e-2);
    }

    #[test]
    fn eight_parameter_tensors() {
        let mut rng = SeededRng::new(6);
        let layer = GgnnLayer::new(5, 7, &mut rng);
        assert_eq!(layer.params().len(), 8);
        assert!(layer.supports_agg_cache());
        assert_eq!(layer.in_dim(), 5);
        assert_eq!(layer.out_dim(), 7);
    }
}
