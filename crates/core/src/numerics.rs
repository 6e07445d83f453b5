//! The numerics seam: everything a sweep needs from "the numbers".
//!
//! A sweep prices data movement and compute on the simulator; the layer
//! math itself is four operations on the host-resident stores — forward
//! a chunk, gather `∇z` rows, backward a chunk, leader-apply a
//! compute's result — plus a leader hook at the head of each layer sweep
//! and the loss at epoch level. They sit behind
//! [`Numerics`] with two providers:
//!
//! - [`Live`] borrows a session's stores and model and runs the real
//!   `hongtu-nn` kernels;
//! - [`Shapes`] reads nothing and returns empty tensors: every charge
//!   and annotation the executor emits is sized from the plans
//!   ([`crate::footprint`], chunk shapes, FLOP counts), never from a
//!   tensor, so a sweep over `Shapes` emits the schedule of a real one —
//!   event for event, timestamp for timestamp — without a single FLOP or
//!   a copy of any store. That is schedule synthesis.

use crate::exec::{Computed, Dir};
use hongtu_nn::layer::{BackwardFrom, Upstream};
use hongtu_nn::{masked_cross_entropy, GnnModel, LayerForward, LayerGrads, MaskedLoss};
use hongtu_partition::ChunkSubgraph;
use hongtu_tensor::Matrix;

/// What the executor asks of the numbers. The `&self` methods run on
/// worker threads against stores frozen for the operation; `begin_layer`,
/// `apply` and `loss` run on the leader between operations.
pub(crate) trait Numerics: Sync {
    /// Runs on the leader before the first operation of layer `l`'s sweep
    /// in direction `dir`, for whatever the layer's chunks can share.
    /// `neighbor_rows` is how many neighbor rows the sweep's active chunks
    /// read between them.
    ///
    /// It is a leader hook and not a cell the first worker to need it
    /// fills, because filling it forks onto the pool: the initialising
    /// worker helps the pool while it waits, picks up a sibling GPU's job,
    /// and that job blocks on the same cell further up the same stack.
    fn begin_layer(&mut self, dir: Dir, l: usize, neighbor_rows: usize);

    /// Forward pass of `chunk` at layer `l` from `h^l`.
    fn forward(&self, l: usize, chunk: &ChunkSubgraph) -> LayerForward;

    /// `∇h^{l+1}_{V_ij}` for `chunk`, through layer `l`'s activation:
    /// the `∇z` its backward starts from.
    fn grad_out(&self, l: usize, chunk: &ChunkSubgraph) -> Matrix;

    /// Recompute + backward of `chunk` at layer `l` (Algorithm 3) from
    /// the `∇z` of [`Self::grad_out`], from the stored aggregate
    /// checkpoint when `from_checkpoint`, else from `h^l`. Accumulates
    /// parameter gradients into `grads`; returns `∇h^l_{N_ij}`, or an
    /// empty matrix at `l = 0`: the features are no parameters, and
    /// nothing reads their gradient.
    fn backward(
        &self,
        l: usize,
        chunk: &ChunkSubgraph,
        from_checkpoint: bool,
        grad_out: &Matrix,
        grads: &mut LayerGrads,
    ) -> Matrix;

    /// Writes one GPU's compute result to the host stores. Forward: the
    /// `h^{l+1}` scatter (Alg 1 line 9; destination rows are disjoint
    /// across a batch's chunks) and the checkpoint store. Backward: the
    /// `∇h^l` accumulation, for `l > 0`.
    fn apply(&mut self, dir: Dir, l: usize, chunk: &ChunkSubgraph, out: Computed);

    /// The downstream task (Alg 1 lines 10–11): loss over `h^L`, its
    /// gradient stored as `∇h^L`.
    fn loss(&mut self) -> MaskedLoss;
}

fn indices(vertices: &[u32]) -> Vec<usize> {
    vertices.iter().map(|&v| v as usize).collect()
}

/// The real numerics over a session's host-resident state.
pub(crate) struct Live<'a> {
    pub model: &'a GnnModel,
    /// `h[l]`: layer representations.
    pub h: &'a mut [Matrix],
    /// `∇h[l]`: gradient buffers (`∇h[0]` empty; the loss writes `∇h[L]`).
    pub grad_h: &'a mut [Matrix],
    /// `agg_cache[l][i][j]`: hybrid checkpoints.
    pub agg_cache: &'a mut [Vec<Vec<Option<Matrix>>>],
    pub labels: &'a [u32],
    pub train_mask: &'a [bool],
    /// `projected[l]`: `G^l = h^l × W` of a layer that projects its
    /// neighbor rows ([`hongtu_nn::GnnLayer::neighbor_projection`]),
    /// computed once per layer sweep instead of once per chunk that reads
    /// a row. Host memoisation the simulator never sees: it still charges
    /// the per-chunk projection the simulated GPU does. Starts all `None`;
    /// lives as long as this epoch's numerics.
    pub projected: Vec<Option<Matrix>>,
}

impl Live<'_> {
    /// `h^l_{N_ij}`, gathered straight from the host store: `h^l` is
    /// frozen for the whole layer (writes go to `h^{l+1}`, leader-applied
    /// after the join), so workers need no hand-off from the owner GPUs.
    fn neighbor_rows(&self, l: usize, chunk: &ChunkSubgraph) -> Matrix {
        self.h[l].gather_rows(&indices(&chunk.neighbors))
    }
}

impl Numerics for Live<'_> {
    fn begin_layer(&mut self, dir: Dir, l: usize, neighbor_rows: usize) {
        // The backward sweep recomputes from the `h^l` and `W` its epoch's
        // forward sweep projected: what that left is still exact.
        if dir == Dir::Backward && self.projected[l].is_some() {
            return;
        }
        // Projecting all of `h^l` pays once the chunks read `|V|` rows
        // between them; below that (a small serve or delta cone) the
        // per-chunk projection multiplies fewer rows.
        self.projected[l] = match self.model.layer(l).neighbor_projection() {
            Some(w) if neighbor_rows >= self.h[l].rows() => Some(self.h[l].matmul(w)),
            _ => None,
        };
    }

    fn forward(&self, l: usize, chunk: &ChunkSubgraph) -> LayerForward {
        let layer = self.model.layer(l);
        match &self.projected[l] {
            Some(g) => layer.forward_projected(chunk, &g.gather_rows(&indices(&chunk.neighbors))),
            None => layer.forward(chunk, &self.neighbor_rows(l, chunk)),
        }
    }

    fn grad_out(&self, l: usize, chunk: &ChunkSubgraph) -> Matrix {
        // `h^{l+1}` holds `act(z)`, frozen since the forward sweep: the
        // mask comes from it, and no backward recomputes `z`.
        let act = self.model.layer(l).activation();
        act.backward_rows(&self.h[l + 1], &self.grad_h[l + 1], &indices(&chunk.dests))
    }

    fn backward(
        &self,
        l: usize,
        chunk: &ChunkSubgraph,
        from_checkpoint: bool,
        grad_out: &Matrix,
        grads: &mut LayerGrads,
    ) -> Matrix {
        let (h_nbr, g_nbr);
        let from = if from_checkpoint {
            let agg = self.agg_cache[l][chunk.part][chunk.chunk]
                .as_ref()
                .expect("hybrid checkpoint missing — was the forward compute applied?");
            BackwardFrom::Checkpoint(agg)
        } else if let Some(g) = &self.projected[l] {
            let nbrs = indices(&chunk.neighbors);
            (h_nbr, g_nbr) = (self.h[l].gather_rows(&nbrs), g.gather_rows(&nbrs));
            BackwardFrom::Projected {
                h_nbr: &h_nbr,
                g_nbr: &g_nbr,
            }
        } else {
            h_nbr = self.neighbor_rows(l, chunk);
            BackwardFrom::Input(&h_nbr)
        };
        let upstream = Upstream::PreActivation(grad_out);
        self.model
            .layer(l)
            .backward(chunk, from, upstream, l > 0, grads)
            .unwrap_or_else(|| Matrix::zeros(0, 0))
    }

    fn apply(&mut self, dir: Dir, l: usize, chunk: &ChunkSubgraph, out: Computed) {
        match dir {
            Dir::Forward => {
                self.h[l + 1].scatter_rows(&indices(&chunk.dests), &out.rows);
                if let Some(agg) = out.agg {
                    self.agg_cache[l][chunk.part][chunk.chunk] = Some(agg);
                }
            }
            Dir::Backward if l > 0 => {
                self.grad_h[l].scatter_add_rows(&indices(&chunk.neighbors), &out.rows);
            }
            Dir::Backward => {}
        }
    }

    fn loss(&mut self) -> MaskedLoss {
        let logits = self.h.last().expect("a model has layers");
        let mut loss = masked_cross_entropy(logits, self.labels, self.train_mask);
        // The gradient moves into `∇h^L`; the report keeps loss and accuracy.
        *self.grad_h.last_mut().expect("a model has layers") =
            std::mem::replace(&mut loss.grad, Matrix::zeros(0, 0));
        loss
    }
}

/// The shapes-only numerics of schedule synthesis: computes nothing,
/// reads nothing, stores nothing.
pub(crate) struct Shapes;

impl Numerics for Shapes {
    fn begin_layer(&mut self, _: Dir, _: usize, _: usize) {}

    fn forward(&self, _: usize, _: &ChunkSubgraph) -> LayerForward {
        LayerForward {
            out: Matrix::zeros(0, 0),
            agg: None,
        }
    }

    fn grad_out(&self, _: usize, _: &ChunkSubgraph) -> Matrix {
        Matrix::zeros(0, 0)
    }

    fn backward(
        &self,
        _: usize,
        _: &ChunkSubgraph,
        _: bool,
        _: &Matrix,
        _: &mut LayerGrads,
    ) -> Matrix {
        Matrix::zeros(0, 0)
    }

    fn apply(&mut self, _: Dir, _: usize, _: &ChunkSubgraph, _: Computed) {}

    fn loss(&mut self) -> MaskedLoss {
        MaskedLoss {
            loss: 0.0,
            grad: Matrix::zeros(0, 0),
            accuracy: 0.0,
        }
    }
}
