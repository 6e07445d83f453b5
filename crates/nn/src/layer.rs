//! The chunk-level layer abstraction.

use hongtu_partition::{ChunkShape, ChunkSubgraph};
use hongtu_tensor::{Columns, Matrix};
use std::borrow::Cow;

/// Output of a chunk-level forward pass.
#[derive(Debug, Clone)]
pub struct LayerForward {
    /// New representations of the chunk's destination vertices,
    /// `|V_ij| × out_dim`.
    pub out: Matrix,
    /// AGGREGATE output `a` (`|V_ij| × agg_dim`), present only for layers
    /// that support aggregate caching — this is the tensor the hybrid
    /// strategy checkpoints to CPU memory instead of recomputing.
    pub agg: Option<Matrix>,
}

/// Accumulated parameter gradients, aligned with [`GnnLayer::params`].
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// One gradient matrix per parameter, same shapes as the parameters.
    pub grads: Vec<Matrix>,
}

impl LayerGrads {
    /// Zero gradients matching `layer`'s parameter shapes.
    pub fn zeros_for(layer: &dyn GnnLayer) -> Self {
        LayerGrads {
            grads: layer
                .params()
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect(),
        }
    }

    /// Element-wise accumulation of another gradient set.
    pub fn add(&mut self, other: &LayerGrads) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "LayerGrads::add: arity mismatch"
        );
        for (a, b) in self.grads.iter_mut().zip(&other.grads) {
            a.add_assign(b);
        }
    }

    /// Scales all gradients (e.g. 1/|train| normalization).
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.grads {
            g.scale_assign(s);
        }
    }
}

/// FLOP estimate of one chunk-level pass, split by execution character so
/// the simulator can price dense (tensor-core) and irregular (edge
/// gather/scatter) work differently.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerFlops {
    /// Dense matmul-like FLOPs.
    pub dense: f64,
    /// Irregular per-edge FLOPs.
    pub edge: f64,
}

#[allow(clippy::should_implement_trait)] // plain value helper, not operator overloading
impl LayerFlops {
    /// Component-wise sum.
    pub fn add(self, other: LayerFlops) -> LayerFlops {
        LayerFlops {
            dense: self.dense + other.dense,
            edge: self.edge + other.edge,
        }
    }

    /// Multiplies both components (e.g. backward ≈ 2× forward).
    pub fn scale(self, s: f64) -> LayerFlops {
        LayerFlops {
            dense: self.dense * s,
            edge: self.edge * s,
        }
    }
}

/// The UPDATE nonlinearity of a layer. Hidden layers use ReLU; the output
/// layer is linear so the classifier logits can go negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// `max(x, 0)`.
    #[default]
    Relu,
    /// No activation (output layer).
    Identity,
}

impl Activation {
    /// Applies the activation element-wise.
    pub fn apply(self, z: &Matrix) -> Matrix {
        match self {
            Activation::Relu => hongtu_tensor::relu(z),
            Activation::Identity => z.clone(),
        }
    }

    /// Backward through the activation given the pre-activation `z`.
    pub fn backward(self, z: &Matrix, grad: &Matrix) -> Matrix {
        match self {
            Activation::Relu => hongtu_tensor::relu_backward(z, grad),
            Activation::Identity => grad.clone(),
        }
    }

    /// `∇z` of rows `rows` of a layer, from the layer's stored output
    /// `out = act(z)` and the gradient `grad` of that output: one gather
    /// of `grad`'s rows, masked in the same pass. For ReLU this is
    /// [`Self::backward`] bit for bit, because `max(z, 0) > 0 ⇔ z > 0`
    /// for every `f32`, NaN and `−0` included — so a backward pass that
    /// starts from it never recomputes `z`.
    pub fn backward_rows(self, out: &Matrix, grad: &Matrix, rows: &[usize]) -> Matrix {
        match self {
            Activation::Identity => grad.gather_rows(rows),
            Activation::Relu => {
                assert_eq!(out.shape(), grad.shape(), "backward_rows: shape mismatch");
                let mut dz = Vec::with_capacity(rows.len() * grad.cols());
                for &r in rows {
                    let mask = out.row(r).iter().map(|&o| o > 0.0);
                    dz.extend(
                        grad.row(r)
                            .iter()
                            .zip(mask)
                            .map(|(&g, m)| if m { g } else { 0.0 }),
                    );
                }
                Matrix::from_vec(rows.len(), grad.cols(), dz)
            }
        }
    }
}

/// The rows a backward pass re-derives the forward pass's internals from.
#[derive(Debug, Clone, Copy)]
pub enum BackwardFrom<'a> {
    /// The reloaded neighbor input `h_nbr` (`|N_ij| × in_dim`): the pure
    /// recomputation path re-runs the whole forward pass.
    Input(&'a Matrix),
    /// The hybrid checkpoint [`LayerForward::agg`] of the chunk: AGGREGATE
    /// is skipped ([`GnnLayer::supports_agg_cache`] layers only).
    Checkpoint(&'a Matrix),
    /// `h_nbr` with its projection `g_nbr = h_nbr × W` supplied by the
    /// caller ([`GnnLayer::neighbor_projection`] layers only).
    Projected {
        /// The neighbor input.
        h_nbr: &'a Matrix,
        /// `h_nbr × W`.
        g_nbr: &'a Matrix,
    },
}

impl BackwardFrom<'_> {
    /// The panic of a layer handed a source it does not support.
    pub(crate) fn unsupported(self) -> ! {
        match self {
            BackwardFrom::Checkpoint(_) => {
                panic!("this layer does not support aggregate caching (see supports_agg_cache)")
            }
            _ => panic!("this layer does not project its neighbor rows (see neighbor_projection)"),
        }
    }
}

/// The upstream gradient a backward pass starts from.
#[derive(Debug, Clone, Copy)]
pub enum Upstream<'a> {
    /// `∇h^{l+1}`, the gradient of the layer's output: the layer
    /// differentiates its activation, recomputing `z` if it must.
    Output(&'a Matrix),
    /// `∇z`, already through the activation
    /// ([`Activation::backward_rows`]).
    PreActivation(&'a Matrix),
}

impl<'a> Upstream<'a> {
    /// `∇z` of a layer with activation `act`; `z` runs only when the
    /// activation's backward needs the pre-activation.
    pub fn through(self, act: Activation, z: impl FnOnce() -> Matrix) -> Cow<'a, Matrix> {
        match (self, act) {
            (Upstream::PreActivation(dz), _) | (Upstream::Output(dz), Activation::Identity) => {
                Cow::Borrowed(dz)
            }
            (Upstream::Output(grad), Activation::Relu) => Cow::Owned(act.backward(&z(), grad)),
        }
    }
}

/// What a wrapper that asked for `∇h_nbr` says when a layer returned none.
const INPUT_GRAD: &str = "a backward asked for ∇h_nbr returns it";

/// A GNN layer executable one chunk at a time.
///
/// Layer inputs are the representations of the chunk's deduplicated
/// neighbor list (`|N_ij| × in_dim`), in the order of
/// [`ChunkSubgraph::neighbors`]. Layers that reference the destination's own
/// previous representation (GAT, SAGE, GIN) require each destination to be
/// present in its own neighbor list — guaranteed when the dataset adds
/// self-loops.
pub trait GnnLayer: Send + Sync {
    /// Input feature dimension.
    fn in_dim(&self) -> usize;

    /// Output feature dimension.
    fn out_dim(&self) -> usize;

    /// Trainable parameters.
    fn params(&self) -> Vec<&Matrix>;

    /// Mutable access to trainable parameters (for the optimizer).
    fn params_mut(&mut self) -> Vec<&mut Matrix>;

    /// True when AGGREGATE is a plain weighted sum (no edge intermediates),
    /// enabling the hybrid caching strategy of §4.2.
    fn supports_agg_cache(&self) -> bool;

    /// The UPDATE nonlinearity applied to the layer's output.
    fn activation(&self) -> Activation;

    /// Forward pass over one chunk.
    fn forward(&self, chunk: &ChunkSubgraph, h_nbr: &Matrix) -> LayerForward;

    /// The backward pass of one chunk: re-derives what the forward pass
    /// computed from `from`, differentiates from `upstream` and
    /// accumulates the parameter gradients into `grads`. With
    /// `input_grad` it returns `∇h_nbr` (`|N_ij| × in_dim`); without it the
    /// layer computes nothing only `∇h_nbr` reads (the first layer's input
    /// is features, not parameters) and returns `None`.
    ///
    /// # Panics
    /// Panics on a [`BackwardFrom::Checkpoint`] the layer does not
    /// support ([`Self::supports_agg_cache`]) or a
    /// [`BackwardFrom::Projected`] it does not ([`Self::neighbor_projection`]).
    fn backward(
        &self,
        chunk: &ChunkSubgraph,
        from: BackwardFrom<'_>,
        upstream: Upstream<'_>,
        input_grad: bool,
        grads: &mut LayerGrads,
    ) -> Option<Matrix>;

    /// Recomputation-path backward: recompute the forward internals from
    /// the (reloaded) neighbor input, then differentiate. Returns the
    /// gradient w.r.t. `h_nbr` (`|N_ij| × in_dim`) and accumulates
    /// parameter gradients into `grads`.
    fn backward_from_input(
        &self,
        chunk: &ChunkSubgraph,
        h_nbr: &Matrix,
        grad_out: &Matrix,
        grads: &mut LayerGrads,
    ) -> Matrix {
        let from = BackwardFrom::Input(h_nbr);
        self.backward(chunk, from, Upstream::Output(grad_out), true, grads)
            .expect(INPUT_GRAD)
    }

    /// Hybrid-path backward: differentiate from the cached AGGREGATE output
    /// `agg`, skipping aggregate recomputation. Only valid when
    /// [`Self::supports_agg_cache`] is true.
    ///
    /// # Panics
    /// Panics on a layer without aggregate caching.
    fn backward_from_agg(
        &self,
        chunk: &ChunkSubgraph,
        agg: &Matrix,
        grad_out: &Matrix,
        grads: &mut LayerGrads,
    ) -> Matrix {
        let from = BackwardFrom::Checkpoint(agg);
        self.backward(chunk, from, Upstream::Output(grad_out), true, grads)
            .expect(INPUT_GRAD)
    }

    /// The weight this layer applies to every neighbor row *before* it
    /// aggregates (`g_u = h_u W`), or `None` when it aggregates raw rows.
    /// Such a projection is a row-wise map of `h^l`, so a caller that runs
    /// many chunks of one layer may compute `H^l × W` once, gather its rows
    /// per chunk and enter through [`Self::forward_projected`] /
    /// [`BackwardFrom::Projected`]: bit for bit what the per-chunk entry
    /// points compute, without projecting a row once per chunk that reads
    /// it.
    fn neighbor_projection(&self) -> Option<&Matrix> {
        None
    }

    /// [`Self::forward`] from already-projected neighbor rows
    /// `g_nbr = h_nbr × W` (`|N_ij| × out_dim`).
    ///
    /// # Panics
    /// Default implementation panics; layers that name a
    /// [`Self::neighbor_projection`] override it.
    fn forward_projected(&self, _chunk: &ChunkSubgraph, _g_nbr: &Matrix) -> LayerForward {
        panic!("this layer does not project its neighbor rows (see neighbor_projection)");
    }

    /// [`Self::backward_from_input`] with the recompute's projection
    /// `g_nbr = h_nbr × W` supplied by the caller.
    ///
    /// # Panics
    /// Panics on a layer without a [`Self::neighbor_projection`].
    fn backward_from_projected(
        &self,
        chunk: &ChunkSubgraph,
        h_nbr: &Matrix,
        g_nbr: &Matrix,
        grad_out: &Matrix,
        grads: &mut LayerGrads,
    ) -> Matrix {
        let from = BackwardFrom::Projected { h_nbr, g_nbr };
        self.backward(chunk, from, Upstream::Output(grad_out), true, grads)
            .expect(INPUT_GRAD)
    }

    /// Forward FLOP estimate for one chunk.
    fn forward_flops(&self, chunk: &ChunkSubgraph) -> LayerFlops;

    /// Backward FLOP estimate (defaults to 2× forward, the usual rule of
    /// thumb for reverse-mode differentiation).
    fn backward_flops(&self, chunk: &ChunkSubgraph) -> LayerFlops {
        self.forward_flops(chunk).scale(2.0)
    }

    /// Bytes of intermediate data the forward pass materializes for this
    /// chunk (beyond input and output) — the quantity HongTu avoids keeping
    /// resident (paper Table 1 "Intr Data").
    fn intermediate_bytes(&self, shape: ChunkShape) -> usize;

    /// Bytes of the cached aggregate for this chunk (hybrid strategy), if
    /// supported.
    fn agg_cache_bytes(&self, shape: ChunkShape) -> usize {
        if self.supports_agg_cache() {
            shape.dests * self.in_dim() * std::mem::size_of::<f32>()
        } else {
            0
        }
    }
}

/// The aggregate a hybrid-capable layer's backward starts from: the
/// stored checkpoint, or `aggregate` re-run over the reloaded input.
///
/// # Panics
/// Panics on [`BackwardFrom::Projected`]: these layers project nothing.
pub(crate) fn checkpoint<'a>(
    from: BackwardFrom<'a>,
    aggregate: impl FnOnce(&Matrix) -> Matrix,
) -> Cow<'a, Matrix> {
    match from {
        BackwardFrom::Input(h_nbr) => Cow::Owned(aggregate(h_nbr)),
        BackwardFrom::Checkpoint(ckpt) => Cow::Borrowed(ckpt),
        BackwardFrom::Projected { .. } => from.unsupported(),
    }
}

/// The two halves of a `[agg | h_dest]` checkpoint, read in place.
pub(crate) fn halves(ckpt: &Matrix) -> (Columns<'_>, Columns<'_>) {
    let dim = ckpt.cols() / 2;
    (ckpt.column_view(0..dim), ckpt.column_view(dim..2 * dim))
}

/// Gathers, for each destination of `chunk`, its own position in the
/// chunk's neighbor list. Layers that need `h_v^{l-1}` (GAT/SAGE/GIN) use
/// this to read the destination's previous representation out of the
/// neighbor buffer.
///
/// # Panics
/// Panics if a destination is missing from its own neighbor list (i.e. the
/// graph lacks self-loops), with a message pointing at the fix.
pub fn self_positions(chunk: &ChunkSubgraph) -> Vec<usize> {
    chunk
        .dests
        .iter()
        .map(|d| {
            chunk.neighbors.binary_search(d).unwrap_or_else(|_| {
                panic!(
                    "destination {d} absent from its neighbor list; this layer requires \
                     self-loops (add them at dataset construction)"
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::GraphBuilder;

    #[test]
    fn self_positions_found_with_self_loops() {
        let mut b = GraphBuilder::new(3).keep_self_loops();
        for v in 0..3 {
            b.add_edge(v, v);
        }
        b.add_edge(0, 2);
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, vec![1, 2]);
        let pos = self_positions(&chunk);
        assert_eq!(chunk.neighbors[pos[0]], 1);
        assert_eq!(chunk.neighbors[pos[1]], 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_positions_panics_without_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let chunk = ChunkSubgraph::build(&g, 0, 0, vec![1]);
        let _ = self_positions(&chunk);
    }

    #[test]
    fn layer_flops_arithmetic() {
        let a = LayerFlops {
            dense: 2.0,
            edge: 3.0,
        };
        let b = LayerFlops {
            dense: 1.0,
            edge: 1.0,
        };
        assert_eq!(
            a.add(b),
            LayerFlops {
                dense: 3.0,
                edge: 4.0
            }
        );
        assert_eq!(
            a.scale(2.0),
            LayerFlops {
                dense: 4.0,
                edge: 6.0
            }
        );
    }
}
