//! What one step occupies on its device — written down once.
//!
//! HongTu's memory model is "a GPU holds one layer × one chunk at a time"
//! (§4): the device footprint of step `(layer l, GPU i, batch j)` is the
//! chunk's topology, its merged neighbor buffer, the layer output, the
//! intermediates, and — on the hybrid path — the aggregate checkpoint.
//! [`footprint`] is the only place those bytes are computed. The phased
//! executor allocates and frees exactly its fields, and everything that
//! *predicts* device memory — the static memory bound, the staging
//! slots and budget, a serving cone's cost — is a `max`-fold over it
//! ([`worst`]; DESIGN.md §9 tabulates consumer → fold), so the bound
//! dominates what the executor allocates, and admission is in the units
//! staging was sized in, by construction.

use crate::engine::CommMode;
use crate::exec::{Env, F32};
use hongtu_nn::GnnModel;
use hongtu_partition::ChunkShape;
use hongtu_stream::StagingPlan;

/// Device bytes of one `(layer, GPU, batch)` step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Footprint {
    /// The chunk's topology (CSR offsets, indices, weights, id lists).
    pub topology: usize,
    /// The merged neighbor/transition buffer `h^l_{N_ij}` is staged in.
    pub neighbors: usize,
    /// The layer output `h^{l+1}_{V_ij}`.
    pub output: usize,
    /// The layer's intermediates (paper Table 1 "Intr Data").
    pub intermediates: usize,
    /// The aggregate checkpoint, when the layer is on the hybrid path.
    pub checkpoint: Option<usize>,
}

impl Footprint {
    /// Input side of a staging slot: topology plus whichever is larger of
    /// the forward neighbor buffer and the backward checkpoint reload.
    pub fn slot_in(&self) -> usize {
        self.topology + self.neighbors.max(self.checkpoint.unwrap_or(0))
    }

    /// Output side of a staging slot: output and intermediates awaiting
    /// their drain.
    pub fn slot_out(&self) -> usize {
        self.output + self.intermediates
    }

    /// What the phased forward step holds at its peak.
    pub fn forward(&self) -> usize {
        self.topology + self.neighbors + self.output + self.intermediates
    }

    /// What the phased backward step holds: topology, regenerated
    /// intermediates, and the checkpoint reload — the cached aggregate on
    /// the hybrid path, the neighbor rows for recomputation.
    pub fn backward(&self) -> usize {
        self.topology + self.intermediates + self.checkpoint.unwrap_or(self.neighbors)
    }

    /// The larger of the two phased steps a `train`ing session runs, or
    /// the forward step alone.
    pub fn resident(&self, train: bool) -> usize {
        if train {
            self.forward().max(self.backward())
        } else {
            self.forward()
        }
    }
}

/// The bytes step `(l, i, j)` occupies on GPU `i`. `env` holds layer
/// `l`'s plans ([`Env::at`]): under a cone the chunk is the layer's
/// packed chunk, so every field is sized by the rows the step computes
/// and reads.
pub(crate) fn footprint(env: &Env, l: usize, i: usize, j: usize) -> Footprint {
    let chunk = &env.plan.chunks[i][j];
    // Rows resident in the GPU's merged buffer for this batch.
    let rows = match env.config.comm {
        // The full neighbor set.
        CommMode::Vanilla => chunk.num_neighbors(),
        // The merged transition+neighbor buffer (§6 "data buffer
        // deduplication"): |ℕ_ij ∪ N_ij|.
        CommMode::P2p => {
            let batch = &env.counts.batches[j];
            batch.transition[i] + chunk.num_neighbors() - batch.fetch[i][i]
        }
        // The in-place buffer's capacity: reuse pins slot positions
        // across batches, so every batch occupies the high-water mark.
        CommMode::P2pRu => env.buffer_comm(i, j).buffer_rows,
    };
    Footprint {
        checkpoint: env
            .checkpointed(l)
            .then(|| env.model.layer(l).agg_cache_bytes(chunk.shape())),
        ..sized(env.model, l, chunk.shape(), rows)
    }
}

/// The [`Footprint`] of a chunk of `shape` at layer `l` with `rows` rows
/// in its merged neighbor buffer, off the hybrid path.
fn sized(model: &GnnModel, l: usize, shape: ChunkShape, rows: usize) -> Footprint {
    let layer = model.layer(l);
    Footprint {
        topology: shape.topology_bytes(),
        neighbors: rows * layer.in_dim() * F32,
        output: shape.dests * layer.out_dim() * F32,
        intermediates: layer.intermediate_bytes(shape),
        checkpoint: None,
    }
}

/// What a chunk of `shape` occupies at layer `l` apart from the buffer
/// its neighbor rows are staged in: its topology, the layer output and
/// the intermediates — the forward [`Footprint`] less its `neighbors`.
pub(crate) fn own_bytes(model: &GnnModel, l: usize, shape: ChunkShape) -> usize {
    sized(model, l, shape, 0).forward()
}

/// A packed step's forward footprint at layer `l`, from its
/// [`own_bytes`] and the rows of its merged neighbor buffer, split into
/// the step's own bytes and the buffer — which under P2P+RU is the
/// in-place buffer's capacity, shared by every step of the sweep (0 in
/// the other modes, whose buffer is the step's own). The cone packer
/// prices candidate runs with it.
pub(crate) fn packed_parts(
    model: &GnnModel,
    comm: CommMode,
    l: usize,
    own: usize,
    rows: usize,
) -> (usize, usize) {
    let buffer = rows * model.layer(l).in_dim() * F32;
    match comm {
        CommMode::P2pRu => (own, buffer),
        CommMode::Vanilla | CommMode::P2p => (own + buffer, 0),
    }
}

/// The bytes of batch `j`'s topology GPU `i` streams to the device, once
/// per sweep: the chunk's — or, under a cone, its largest per-layer
/// packed chunk, which every other layer's packed chunk of the same run
/// is a part of (cones are nested layer to layer, and every layer packs
/// the same runs).
pub(crate) fn topology_upload_bytes(env: &Env, i: usize, j: usize) -> usize {
    match env.cone {
        None => env.plan.chunks[i][j].topology_bytes(),
        Some(cone) => cone
            .layers
            .iter()
            .map(|layer| layer.plan.chunks[i][j].topology_bytes())
            .max()
            .unwrap_or(0),
    }
}

/// The `(layer, batch)` steps `env`'s sweep runs: all of them, or the
/// cone's active ones on its packed grid.
fn steps<'e>(env: &'e Env) -> impl Iterator<Item = (usize, usize)> + 'e {
    (0..env.model.num_layers())
        .flat_map(|l| (0..env.at(l).plan.n).map(move |j| (l, j)))
        .filter(|&(l, j)| !env.pruned(l, j))
}

/// Worst `size` over the steps `env`'s sweep runs on GPU `i`, each over
/// its own layer's plans.
pub(crate) fn worst(env: &Env, i: usize, size: impl Fn(&Footprint) -> usize) -> usize {
    steps(env)
        .map(|(l, j)| size(&footprint(&env.at(l), l, i, j)))
        .max()
        .unwrap_or(0)
}

/// Sizes GPU `gpu`'s double-buffered staging slots for the worst step of
/// each side. Two slots of each are pinned for the whole run
/// ([`StagingPlan::total_bytes`]).
pub(crate) fn staging_plan(env: &Env, gpu: usize) -> StagingPlan {
    StagingPlan {
        gpu,
        in_slot_bytes: worst(env, gpu, Footprint::slot_in),
        out_slot_bytes: worst(env, gpu, Footprint::slot_out),
    }
}

/// Host bytes of the hybrid checkpoint store: every step's checkpoint,
/// all resident at once between the forward and the backward pass.
pub(crate) fn checkpoint_store_bytes(env: &Env) -> usize {
    (0..env.plan.m)
        .flat_map(|i| steps(env).map(move |(l, j)| (l, i, j)))
        .filter_map(|(l, i, j)| footprint(&env.at(l), l, i, j).checkpoint)
        .sum()
}
