//! Graph attention network layer (paper Eq. 3, single head):
//!
//! `h_v = ReLU( Σ_{u∈N(v)} softmax_u( LeakyReLU(aᵀ[W h_v ‖ W h_u]) ) · W h_u )`
//!
//! The attention vector `a` is split into its destination and source halves
//! `a_l, a_r`, so the edge score is `s_v + t_u` with `s_v = a_l·(W h_v)` and
//! `t_u = a_r·(W h_u)` — the standard GAT factorization that avoids
//! materializing the per-edge concatenation.
//!
//! GAT's AGGREGATE produces `O(|E|)` intermediates (edge scores and
//! attention weights), so caching them is more expensive than recomputing —
//! this layer reports `supports_agg_cache() == false` and HongTu falls back
//! to the pure recomputation strategy on it (§4.2).

use crate::layer::{
    self, Activation, BackwardFrom, GnnLayer, LayerFlops, LayerForward, LayerGrads, Upstream,
};
use hongtu_partition::{ChunkShape, ChunkSubgraph};
use hongtu_tensor::ops::{
    leaky_relu, leaky_relu_backward, softmax_backward_segment, softmax_in_place,
};
use hongtu_tensor::{Matrix, SeededRng};
use std::borrow::Cow;

/// One single-head GAT layer.
#[derive(Debug, Clone)]
pub struct GatLayer {
    w: Matrix,
    /// Destination half of the attention vector, `1 × out_dim`.
    a_l: Matrix,
    /// Source half of the attention vector, `1 × out_dim`.
    a_r: Matrix,
    /// UPDATE nonlinearity (ReLU for hidden layers, Identity for output).
    pub act: Activation,
}

/// Forward-pass internals reused by the backward pass.
struct GatInternals {
    self_pos: Vec<usize>,
    pre: Vec<f32>,   // per-edge pre-activation s_v + t_u
    alpha: Vec<f32>, // per-edge attention weight (post softmax)
    z: Matrix,       // pre-ReLU aggregation, D × out
}

impl GatLayer {
    /// A layer with Xavier-initialized projection and attention parameters.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        GatLayer {
            w: hongtu_tensor::xavier_uniform(in_dim, out_dim, rng),
            a_l: hongtu_tensor::xavier_uniform(1, out_dim, rng),
            a_r: hongtu_tensor::xavier_uniform(1, out_dim, rng),
            act: Activation::Relu,
        }
    }

    /// `g = h_nbr × W` — the layer's only multiplication by `W`. The
    /// per-chunk entry points come through here; a caller that projected
    /// `H^l` once enters below it.
    fn project(&self, h_nbr: &Matrix) -> Matrix {
        assert_eq!(
            h_nbr.cols(),
            self.in_dim(),
            "GatLayer::forward: input dim mismatch"
        );
        h_nbr.matmul(&self.w)
    }

    #[cfg(test)]
    fn run_forward(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> GatInternals {
        self.attend(chunk, &self.project(h_nbr))
    }

    /// Edge scores, per-destination softmax and the attention-weighted
    /// aggregation over the projected neighbor rows `g` (`N × out`).
    fn attend(&self, chunk: &ChunkSubgraph, g: &Matrix) -> GatInternals {
        assert_eq!(
            g.shape(),
            (chunk.num_neighbors(), self.out_dim()),
            "GatLayer::forward: projected neighbor rows"
        );
        let out_dim = self.out_dim();
        let self_pos = layer::self_positions(chunk);
        // t[u] = a_r · g[u] for every neighbor.
        let t: Vec<f32> = (0..g.rows())
            .map(|u| dot(g.row(u), self.a_r.row(0)))
            .collect();
        let mut pre = vec![0.0f32; chunk.num_edges()];
        let mut alpha = vec![0.0f32; chunk.num_edges()];
        let mut z = Matrix::zeros(chunk.num_dests(), out_dim);
        for k in 0..chunk.num_dests() {
            let s_k = dot(g.row(self_pos[k]), self.a_l.row(0));
            let range = chunk.in_edges_of(k);
            for e in range.clone() {
                let u = chunk.nbr_index[e] as usize;
                pre[e] = s_k + t[u];
                alpha[e] = leaky_relu(pre[e]);
            }
            softmax_in_place(&mut alpha[range.clone()]);
            let z_row = z.row_mut(k);
            for e in range {
                let u = chunk.nbr_index[e] as usize;
                let a = alpha[e];
                for (o, &gv) in z_row.iter_mut().zip(g.row(u)) {
                    *o += a * gv;
                }
            }
        }
        GatInternals {
            self_pos,
            pre,
            alpha,
            z,
        }
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl GnnLayer for GatLayer {
    fn in_dim(&self) -> usize {
        self.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.w.cols()
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.a_l, &self.a_r]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.a_l, &mut self.a_r]
    }

    fn supports_agg_cache(&self) -> bool {
        false
    }

    fn forward(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> LayerForward {
        self.forward_projected(chunk, &self.project(h_nbr))
    }

    fn activation(&self) -> Activation {
        self.act
    }

    fn neighbor_projection(&self) -> Option<&Matrix> {
        Some(&self.w)
    }

    fn forward_projected(&self, chunk: &ChunkSubgraph, g_nbr: &Matrix) -> LayerForward {
        LayerForward {
            out: self.act.apply(&self.attend(chunk, g_nbr).z),
            agg: None,
        }
    }

    fn backward(
        &self,
        chunk: &ChunkSubgraph,
        from: BackwardFrom<'_>,
        upstream: Upstream<'_>,
        input_grad: bool,
        grads: &mut LayerGrads,
    ) -> Option<Matrix> {
        let (h_nbr, g) = match from {
            BackwardFrom::Input(h_nbr) => (h_nbr, Cow::Owned(self.project(h_nbr))),
            BackwardFrom::Projected { h_nbr, g_nbr } => (h_nbr, Cow::Borrowed(g_nbr)),
            BackwardFrom::Checkpoint(_) => from.unsupported(),
        };
        let GatInternals {
            self_pos,
            pre,
            alpha,
            z,
        } = self.attend(chunk, &g);
        let out_dim = self.out_dim();
        let dz = upstream.through(self.act, || z);

        let mut grad_g = Matrix::zeros(g.rows(), out_dim);
        let mut grad_t = vec![0.0f32; g.rows()];
        let (mut d_alpha, mut d_pre): (Vec<f32>, Vec<f32>) = (Vec::new(), Vec::new());
        let mut grad_al = vec![0.0f32; out_dim];
        let mut grad_ar = vec![0.0f32; out_dim];

        for k in 0..chunk.num_dests() {
            let range = chunk.in_edges_of(k);
            let seg = range.len();
            d_alpha.clear();
            d_alpha.resize(seg, 0.0);
            d_pre.clear();
            d_pre.resize(seg, 0.0);
            let dz_row = dz.row(k);
            // ∇α[e] = δz_k · g_u ; ∇g_u += α[e] δz_k (value path)
            for (local, e) in range.clone().enumerate() {
                let u = chunk.nbr_index[e] as usize;
                d_alpha[local] = dot(dz_row, g.row(u));
                let a = alpha[e];
                let gu = grad_g.row_mut(u);
                for (o, &dzv) in gu.iter_mut().zip(dz_row) {
                    *o += a * dzv;
                }
            }
            // softmax backward per segment → ∇act, then LeakyReLU.
            let mut d_act = vec![0.0f32; seg];
            softmax_backward_segment(&alpha[range.clone()], &d_alpha, &mut d_act);
            let mut d_s = 0.0f32;
            for (local, e) in range.clone().enumerate() {
                d_pre[local] = d_act[local] * leaky_relu_backward(pre[e]);
                d_s += d_pre[local];
                let u = chunk.nbr_index[e] as usize;
                grad_t[u] += d_pre[local];
            }
            // ∇g[dest] += ∇s · a_l ; ∇a_l += ∇s · g[dest]
            let sp = self_pos[k];
            let g_dest_row: Vec<f32> = g.row(sp).to_vec();
            let gd = grad_g.row_mut(sp);
            for ((o, &al), (ga, &gv)) in gd
                .iter_mut()
                .zip(self.a_l.row(0))
                .zip(grad_al.iter_mut().zip(&g_dest_row))
            {
                *o += d_s * al;
                *ga += d_s * gv;
            }
        }
        // ∇g[u] += ∇t_u · a_r ; ∇a_r += Σ_u ∇t_u · g[u]
        for u in 0..g.rows() {
            let tgrad = grad_t[u];
            if tgrad == 0.0 {
                continue;
            }
            let row = grad_g.row_mut(u);
            for ((o, &ar), (gar, &gv)) in row
                .iter_mut()
                .zip(self.a_r.row(0))
                .zip(grad_ar.iter_mut().zip(g.row(u)))
            {
                *o += tgrad * ar;
                *gar += tgrad * gv;
            }
        }

        grads.grads[0].add_assign(&h_nbr.transpose_matmul(&grad_g));
        grads.grads[1].add_assign(&Matrix::from_vec(1, out_dim, grad_al));
        grads.grads[2].add_assign(&Matrix::from_vec(1, out_dim, grad_ar));
        input_grad.then(|| grad_g.matmul_transpose(&self.w))
    }

    fn forward_flops(&self, chunk: &ChunkSubgraph) -> LayerFlops {
        let d_in = self.in_dim() as f64;
        let d_out = self.out_dim() as f64;
        let n = chunk.num_neighbors() as f64;
        let e = chunk.num_edges() as f64;
        LayerFlops {
            dense: 2.0 * n * d_in * d_out, // projection h × W
            // Edge-wise attention runs several passes over the edge
            // tensors (score, max, exp, sum, normalize, weighted
            // aggregation), each touching O(d_out) data per edge; on real
            // GPUs these passes are memory bound, which is why the paper
            // measures GAT's GPU time at ~4.5× GCN's. We fold that into an
            // effective 6-pass per-edge cost.
            edge: 6.0 * e * (2.0 * d_out + 8.0) + 2.0 * n * d_out,
        }
    }

    fn intermediate_bytes(&self, shape: ChunkShape) -> usize {
        // g (N × out), pre + α (2 per edge), z (D × out)
        (shape.neighbors * self.out_dim() + 2 * shape.edges + shape.dests * self.out_dim())
            * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::{Graph, GraphBuilder};

    /// Toy graph *with self-loops* (required by GAT).
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
            ((r * 5 + c * 3) as f32 * 0.23).sin()
        })
    }

    #[test]
    fn forward_shapes() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(1);
        let layer = GatLayer::new(3, 4, &mut rng);
        let h = inputs(&chunk, 3);
        let f = layer.forward(&chunk, &h);
        assert_eq!(f.out.shape(), (4, 4));
        assert!(f.agg.is_none(), "GAT must not offer aggregate caching");
        assert!(!layer.supports_agg_cache());
    }

    #[test]
    fn attention_weights_sum_to_one_per_dest() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(2);
        let layer = GatLayer::new(3, 4, &mut rng);
        let h = inputs(&chunk, 3);
        let internals = layer.run_forward(&chunk, &h);
        for k in 0..chunk.num_dests() {
            let s: f32 = internals.alpha[chunk.in_edges_of(k)].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "dest {k}: Σα = {s}");
        }
    }

    #[test]
    fn attention_is_permutation_invariant_over_neighbors() {
        // Two destinations with identical (multiset of) neighbor reps must
        // get identical outputs regardless of edge order.
        let mut b = GraphBuilder::new(6).keep_self_loops();
        for v in 0..6 {
            b.add_edge(v, v);
        }
        // dest 4 ← {0,1,2}; dest 5 ← {2,1,0} (same set, insertion order differs)
        for s in [0u32, 1, 2] {
            b.add_edge(s, 4);
        }
        for s in [2u32, 1, 0] {
            b.add_edge(s, 5);
        }
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, vec![4, 5]);
        let mut rng = SeededRng::new(3);
        let layer = GatLayer::new(2, 3, &mut rng);
        // Give 4 and 5 identical features so s_v matches too.
        let mut h = Matrix::zeros(chunk.num_neighbors(), 2);
        for (i, &nb) in chunk.neighbors.iter().enumerate() {
            let base = if nb >= 4 { 9.0 } else { nb as f32 };
            h.row_mut(i).copy_from_slice(&[base * 0.1, -base * 0.2]);
        }
        let out = layer.forward(&chunk, &h).out;
        assert!(out
            .row(0)
            .iter()
            .zip(out.row(1))
            .all(|(a, b)| (a - b).abs() < 1e-6));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(4);
        let mut layer = GatLayer::new(3, 3, &mut rng);
        let h = inputs(&chunk, 3);
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 3e-2);
    }

    #[test]
    fn gradient_check_on_random_graph() {
        let mut rng = SeededRng::new(5);
        let mut b = GraphBuilder::new(12).keep_self_loops();
        for v in 0..12u32 {
            b.add_edge(v, v);
        }
        for _ in 0..30 {
            b.add_edge(rng.index(12) as u32, rng.index(12) as u32);
        }
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, (0..12).collect());
        let mut layer = GatLayer::new(4, 3, &mut rng);
        let h = Matrix::from_fn(chunk.num_neighbors(), 4, |r, c| {
            ((r * 7 + c * 11) as f32 * 0.19).cos() * 0.8
        });
        crate::gradcheck::check_layer(&mut layer, &chunk, &h, 3e-2);
    }

    #[test]
    fn intermediates_dominated_by_edges() {
        let (_, chunk) = toy();
        let mut rng = SeededRng::new(6);
        let layer = GatLayer::new(3, 4, &mut rng);
        let bytes = layer.intermediate_bytes(chunk.shape());
        assert!(bytes >= 2 * chunk.num_edges() * 4);
        assert_eq!(layer.agg_cache_bytes(chunk.shape()), 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn requires_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, vec![1]);
        let mut rng = SeededRng::new(7);
        let layer = GatLayer::new(2, 2, &mut rng);
        let h = Matrix::zeros(chunk.num_neighbors(), 2);
        let _ = layer.forward(&chunk, &h);
    }

    use proptest::prelude::*;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Projecting `H` once and gathering `G = H × W` per chunk is the
        /// per-chunk projection bit for bit: on random self-looped
        /// multigraphs and random destination subsets, the projected entry
        /// points return the output, `∇h_nbr` and all three parameter
        /// gradients of `forward` / `backward_from_input`.
        #[test]
        fn projected_entry_points_equal_the_per_chunk_ones_bitwise(
            n in 2usize..40,
            edges in 0usize..160,
            in_dim in 1usize..9,
            out_dim in 1usize..9,
            keep in 1u32..11,
            relu in 0u32..2,
            seed in 0u64..1_000_000
        ) {
            let mut rng = SeededRng::new(seed);
            let mut b = GraphBuilder::new(n).keep_self_loops();
            for v in 0..n as u32 {
                b.add_edge(v, v);
            }
            for _ in 0..edges {
                let (s, t) = (rng.index(n) as u32, rng.index(n) as u32);
                b.add_edge(s, t);
                if rng.chance(0.2) {
                    b.add_edge(s, t);
                }
            }
            let g = b.build();
            let mut dests: Vec<u32> = (0..n as u32)
                .filter(|_| rng.chance(keep as f64 / 10.0))
                .collect();
            if dests.is_empty() {
                dests.push(rng.index(n) as u32);
            }
            let chunk = ChunkSubgraph::build(&g, 0, 0, dests);
            let mut layer = GatLayer::new(in_dim, out_dim, &mut rng);
            if relu == 0 {
                layer.act = Activation::Identity;
            }

            let h = Matrix::from_fn(n, in_dim, |_, _| rng.normal());
            let projected = h.matmul(layer.neighbor_projection().expect("GAT projects"));
            let nbrs: Vec<usize> = chunk.neighbors.iter().map(|&v| v as usize).collect();
            let (h_nbr, g_nbr) = (h.gather_rows(&nbrs), projected.gather_rows(&nbrs));

            let per_chunk = layer.forward(&chunk, &h_nbr);
            let once = layer.forward_projected(&chunk, &g_nbr);
            prop_assert_eq!(bits(&per_chunk.out), bits(&once.out));
            prop_assert!(once.agg.is_none());

            let grad_out = Matrix::from_fn(chunk.num_dests(), out_dim, |_, _| rng.normal());
            // Both start from the same non-zero accumulators: the entry
            // points add into them.
            let mut want = LayerGrads::zeros_for(&layer);
            for g in &mut want.grads {
                g.as_mut_slice().iter_mut().for_each(|v| *v = rng.normal());
            }
            let mut got = want.clone();
            let want_h = layer.backward_from_input(&chunk, &h_nbr, &grad_out, &mut want);
            let got_h = layer.backward_from_projected(&chunk, &h_nbr, &g_nbr, &grad_out, &mut got);
            prop_assert_eq!(bits(&want_h), bits(&got_h));
            for (w, g) in want.grads.iter().zip(&got.grads) {
                prop_assert_eq!(bits(w), bits(g));
            }
        }
    }
}
