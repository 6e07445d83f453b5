//! The sweep executor: one layer driver, one per-GPU dispatcher, one set
//! of emitters.
//!
//! HongTu describes one sweep — per layer, per batch: host load
//! (Algorithm 2 phase A) → inter-GPU fetch (phase B) → compute →
//! write-back / evict (Algorithm 1 l. 4–19, Algorithm 3). This module
//! runs it from data: [`hongtu_stream::layer_schedule`] says which batch
//! is in which [`Role`] between which barriers, [`Sweep::run_layer`]
//! walks that schedule, [`Sweep::per_gpu`] runs each operation on every
//! simulated GPU (inline, or forked onto worker threads), and the
//! *emitters* charge the events of one step to a [`Timeline`].
//!
//! Three layers of functions, top to bottom:
//!
//! - **driver** — [`Sweep::run_layer`]: per segment, per `(role, batch)`
//!   operation, dispatch to all GPUs; after a compute, leader-apply the
//!   host-store writes in GPU index order; close with the segment's
//!   barrier.
//! - **composers** — two per role, `*_phased` for [`OverlapMode::Off`]
//!   and `*_pipelined` for [`OverlapMode::DoubleBuffer`]. They hold what
//!   genuinely differs between the modes: per-batch `alloc`/`free`
//!   versus pinned staging, the stream each role is issued on, where the
//!   ℕ^gpu reuse happens, where topology upload and write-back sit.
//! - **emitters** — `host_load`, `neighbor_fetch`, `forward_numerics`,
//!   `backward_numerics`, `gradient_push`, `gradient_flush` and a few
//!   smaller ones. Each exists once; the device buffers of the batch
//!   are named through [`BatchBufs`], so the same emitter serves both
//!   modes.

use crate::dedup::DedupPlan;
use crate::engine::{BatchComm, CommMode, ExecutionMode, HongTuConfig};
use crate::serve::ServeMask;
use hongtu_cache::{CacheRuntime, HitStats};
use hongtu_nn::{GnnLayer, GnnModel, LayerForward, LayerGrads};
use hongtu_partition::{ChunkSubgraph, TwoLevelPartition};
use hongtu_sim::{
    Access, ContribKind, Machine, Provenance, Region, ResourceId, SimError, Timeline,
};
use hongtu_stream::{grad_slot, layer_schedule, rep_slot, OverlapMode, Role, StreamId};
use hongtu_tensor::Matrix;

pub(crate) const F32: usize = std::mem::size_of::<f32>();

/// Annotation helpers: the logical resources of §4–§6 as seen by the
/// schedule checker.
pub(crate) fn rep(layer: usize) -> ResourceId {
    ResourceId::Rep {
        layer: layer as u32,
    }
}
pub(crate) fn grad(layer: usize) -> ResourceId {
    ResourceId::Grad {
        layer: layer as u32,
    }
}
fn topology(gpu: usize) -> ResourceId {
    ResourceId::Topology { gpu: gpu as u32 }
}
fn dev_cache(gpu: usize) -> ResourceId {
    ResourceId::DevCache { gpu: gpu as u32 }
}
fn agg_slot(layer: usize, gpu: usize, chunk: usize) -> ResourceId {
    ResourceId::AggCache {
        layer: layer as u32,
        gpu: gpu as u32,
        chunk: chunk as u32,
    }
}
fn chunk_region(gpu: usize, chunk: usize) -> Region {
    Region::Chunk {
        gpu: gpu as u32,
        chunk: chunk as u32,
    }
}

/// Names of the device buffers a batch stages its rows in — the one
/// thing the emitters need to know about the overlap mode.
#[derive(Clone, Copy)]
enum BatchBufs {
    /// Allocated for the batch and freed after it ([`OverlapMode::Off`]).
    PerBatch,
    /// The pinned staging slot of this batch, `batch % 2`
    /// ([`OverlapMode::DoubleBuffer`]).
    Slot(usize),
}

impl BatchBufs {
    fn rep(self, gpu: usize) -> ResourceId {
        match self {
            BatchBufs::PerBatch => ResourceId::DevRep { gpu: gpu as u32 },
            BatchBufs::Slot(batch) => rep_slot(gpu, batch),
        }
    }

    fn grad(self, gpu: usize) -> ResourceId {
        match self {
            BatchBufs::PerBatch => ResourceId::DevGrad { gpu: gpu as u32 },
            BatchBufs::Slot(batch) => grad_slot(gpu, batch),
        }
    }
}

/// Direction of a layer sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    Forward,
    Backward,
}

/// Everything a sweep reads and never writes: configuration, plans, the
/// model replica, and the per-sweep switches.
#[derive(Clone, Copy)]
pub(crate) struct Env<'a> {
    pub config: &'a HongTuConfig,
    pub plan: &'a TwoLevelPartition,
    pub dedup: &'a DedupPlan,
    pub buffer_comm: Option<&'a [Vec<BatchComm>]>,
    pub model: &'a GnnModel,
    /// Whether hybrid aggregate checkpoints are in play: true only for a
    /// *training* epoch under `MemoryStrategy::Hybrid`. Inference epochs
    /// never store (or reload) checkpoints, whatever the strategy.
    pub checkpoint: bool,
    /// Schedule-synthesis backend: every transfer/compute event and every
    /// access annotation is emitted exactly as in a real epoch, but the
    /// layer numerics are replaced by shape-preserving zero tensors, so
    /// the trace is the schedule derived from the plans alone.
    pub synth: bool,
    /// Serving / delta-replay mask: `(layer, batch)` steps outside it are
    /// skipped (all GPUs of a batch skip together). `None` = full sweep.
    pub mask: Option<&'a ServeMask>,
    /// Hot-vertex feature-cache runtime, its hit table frozen for the
    /// sweep in flight.
    pub cache: Option<&'a CacheRuntime>,
}

impl Env<'_> {
    /// Whether the mask prunes batch `j` at layer `l`.
    fn pruned(&self, l: usize, j: usize) -> bool {
        self.mask.is_some_and(|m| !m.active(l, j))
    }

    /// Whether batch `j`'s in-place ℕ^gpu reuse at layer `l` has a live
    /// predecessor: the rows are deposited by batch `j - 1`, so under a
    /// mask they are only resident if `j - 1` ran at this layer.
    fn reuse_source_live(&self, l: usize, j: usize) -> bool {
        match self.mask {
            None => true,
            Some(m) => j > 0 && m.active(l, j - 1),
        }
    }

    /// Whether `(l, j)` is the step that streams batch `j`'s topology to
    /// the device (reused by every later layer of the epoch). Full sweeps
    /// upload at layer 0; under a mask the upload belongs to the batch's
    /// *first active* layer. Downward-closed query cones make that layer 0
    /// whenever the batch is active at all, but the upward-closed
    /// delta-replay cones may first activate a batch above layer 0 —
    /// uploading only at `l == 0` would leave its topology reads dangling.
    fn topology_upload_layer(&self, l: usize, j: usize) -> bool {
        match self.mask {
            None => l == 0,
            Some(m) => m.active(l, j) && !(0..l).any(|k| m.active(k, j)),
        }
    }

    /// Frozen cache hit table entry for the layer-0 host load of batch
    /// `j` on GPU `i`. Zero above layer 0 (only `h^0` rows are cached)
    /// and when no cache runtime is installed.
    fn cache_stats(&self, l: usize, i: usize, j: usize) -> HitStats {
        if l != 0 {
            return HitStats::default();
        }
        self.cache.map(|c| c.stats(i, j)).unwrap_or_default()
    }

    /// Whether layer `l` runs the hybrid path: its aggregate is
    /// checkpointed in the forward pass and reloaded in the backward.
    fn checkpointed(&self, l: usize) -> bool {
        self.checkpoint && self.model.layer(l).supports_agg_cache()
    }

    /// Bytes of one input row of layer `l`.
    fn row(&self, l: usize) -> usize {
        self.model.layer(l).in_dim() * F32
    }

    /// The §6 buffer-plan communication table entry (P2P+RU only).
    fn buffer_comm(&self, i: usize, j: usize) -> &BatchComm {
        &self.buffer_comm.expect("buffer plan built for P2pRu")[i][j]
    }

    /// ℕ^gpu rows batch `j` inherits in place from batch `j - 1`, when
    /// there are any (P2P+RU only).
    fn reused_rows(&self, i: usize, j: usize) -> Option<usize> {
        (self.config.comm == CommMode::P2pRu)
            .then(|| self.buffer_comm(i, j).reused_rows)
            .filter(|&rows| rows > 0)
    }
}

/// One GPU's mutable state across a sweep, handed to exactly one worker
/// per operation.
pub(crate) struct GpuScratch {
    /// Load → compute → drain hand-off of the (at most two) batches in
    /// flight, indexed by `batch % 2`.
    carry: [Carry; 2],
    /// Parameter gradients this GPU accumulated, per layer. Empty on
    /// forward-only sweeps.
    pub grads: Vec<LayerGrads>,
}

impl GpuScratch {
    pub(crate) fn new(grads: Vec<LayerGrads>) -> Self {
        let carry = || Carry {
            grad_out: Matrix::zeros(0, 0),
            held: 0,
        };
        GpuScratch {
            carry: [carry(), carry()],
            grads,
        }
    }
}

/// What a batch's load leaves for its compute and drain.
struct Carry {
    /// `∇h^{l+1}_{V_ij}`, gathered by the backward load.
    grad_out: Matrix,
    /// Per-batch device bytes still allocated (phased composers only).
    held: usize,
}

/// Result of one GPU's compute step. The host-store writes it implies
/// are applied by the leader after the join, in GPU index order, so
/// worker threads never write the shared stores.
struct Computed {
    /// Forward: `h^{l+1}_{V_ij}`. Backward: `∇h^l_{N_ij}`.
    rows: Matrix,
    /// Forward under the hybrid strategy: the aggregate checkpoint.
    agg: Option<Matrix>,
}

/// One `(role, batch)` operation of a layer schedule.
#[derive(Clone, Copy)]
struct Op {
    dir: Dir,
    role: Role,
    l: usize,
    j: usize,
}

/// A sweep in progress: the immutable [`Env`] plus the state it mutates
/// — the simulated machine and the host-resident stores.
pub(crate) struct Sweep<'a> {
    pub env: Env<'a>,
    pub machine: &'a mut Machine,
    /// `h[l]`: host-resident layer representations.
    pub h: &'a mut [Matrix],
    /// `∇h[l]`: host-resident gradient buffers.
    pub grad_h: &'a mut [Matrix],
    /// `agg_cache[l][i][j]`: hybrid checkpoints (host-resident).
    pub agg_cache: &'a mut [Vec<Vec<Option<Matrix>>>],
}

impl Sweep<'_> {
    /// Runs layer `l` in direction `dir`: walks the layer schedule, runs
    /// each operation on every GPU, leader-applies what a compute
    /// produced, and closes each segment with its barrier.
    ///
    /// Non-vanilla batches have cross-GPU data dependencies inside a
    /// batch (P2P fetches read what owners loaded; evictions read what
    /// remote GPUs pushed), which is what the schedule's phase barriers
    /// separate. Vanilla batches touch only per-GPU state.
    pub(crate) fn run_layer(
        &mut self,
        dir: Dir,
        l: usize,
        scratch: &mut [GpuScratch],
    ) -> Result<(), SimError> {
        let config = self.env.config;
        let phased = config.comm != CommMode::Vanilla;
        let drains = dir == Dir::Backward;
        for seg in layer_schedule(self.env.plan.n, config.overlap, phased, drains) {
            for (role, j) in seg.ops() {
                // A pruned batch emits nothing, computes nothing, and has
                // no output to scatter; only its barriers remain.
                if self.env.pruned(l, j) {
                    continue;
                }
                let outs = self.per_gpu(Op { dir, role, l, j }, scratch)?;
                if role == Role::Compute {
                    self.apply(dir, l, j, outs);
                }
            }
            self.machine.sync(seg.barrier);
        }
        Ok(())
    }

    /// Runs `op` once per simulated GPU and returns the results in GPU
    /// index order. The only place the host execution mode is consulted.
    ///
    /// Sequential runs the steps inline against the machine's own
    /// timeline — no fork/join, because a shard defers the naive
    /// schedule's source stalls to the join and would reorder the trace.
    /// Parallel forks one timeline shard per GPU onto the worker pool and
    /// joins them in index order, so clocks, buckets and (for interleaved
    /// schedules) the trace are bitwise those of the sequential run.
    /// Every worker runs to completion before the scope returns, so on
    /// error the machine is consistent and the lowest-indexed failure is
    /// the one reported.
    fn per_gpu(
        &mut self,
        op: Op,
        scratch: &mut [GpuScratch],
    ) -> Result<Vec<Option<Computed>>, SimError> {
        let ctx = StepCtx {
            env: self.env,
            h: self.h,
            grad_h: self.grad_h,
            agg_cache: self.agg_cache,
        };
        match ctx.env.config.exec {
            ExecutionMode::Sequential => scratch
                .iter_mut()
                .enumerate()
                .map(|(i, sc)| step(&ctx, &mut *self.machine, op, i, sc))
                .collect(),
            ExecutionMode::Parallel => {
                let mut shards = self.machine.fork_shards();
                let mut slots: Vec<_> = shards.iter().map(|_| None).collect();
                let ctx = &ctx;
                hongtu_parallel::global().scope(|s| {
                    for ((shard, slot), sc) in shards.iter_mut().zip(&mut slots).zip(scratch) {
                        s.spawn(move || {
                            let i = shard.gpu();
                            *slot = Some(step(ctx, shard, op, i, sc));
                        });
                    }
                });
                self.machine.join_shards(shards);
                slots
                    .into_iter()
                    .map(|slot| slot.expect("worker task did not run"))
                    .collect()
            }
        }
    }

    /// Applies a compute's host-store writes in GPU index order — the
    /// fixed reduction order of the determinism contract. Forward: the
    /// `h^{l+1}` scatter (Alg 1 line 9; destination rows are disjoint
    /// across the batch's chunks) and the hybrid checkpoint store.
    /// Backward: the `∇h^l` accumulation — neighbor sets overlap across
    /// GPUs, so this order *is* the f32 summation order.
    fn apply(&mut self, dir: Dir, l: usize, j: usize, outs: Vec<Option<Computed>>) {
        let live = !self.env.synth;
        for (i, out) in outs.into_iter().flatten().enumerate() {
            let chunk = &self.env.plan.chunks[i][j];
            match dir {
                Dir::Forward => {
                    if live {
                        self.h[l + 1].scatter_rows(&indices(&chunk.dests), &out.rows);
                    }
                    // Synthesis still stores the (placeholder) checkpoint:
                    // later steps read its byte size off the cache.
                    if let Some(agg) = out.agg {
                        self.agg_cache[l][i][j] = Some(agg);
                    }
                }
                Dir::Backward => {
                    if live {
                        self.grad_h[l].scatter_add_rows(&indices(&chunk.neighbors), &out.rows);
                    }
                }
            }
        }
    }
}

fn indices(vertices: &[u32]) -> Vec<usize> {
    vertices.iter().map(|&v| v as usize).collect()
}

/// Immutable view a per-GPU step runs against: the [`Env`] plus the host
/// stores, frozen for the duration of one operation so worker threads
/// can share it while each mutates only its own timeline and scratch.
struct StepCtx<'a> {
    env: Env<'a>,
    h: &'a [Matrix],
    grad_h: &'a [Matrix],
    agg_cache: &'a [Vec<Vec<Option<Matrix>>>],
}

impl<'a> std::ops::Deref for StepCtx<'a> {
    type Target = Env<'a>;
    fn deref(&self) -> &Env<'a> {
        &self.env
    }
}

impl StepCtx<'_> {
    /// `h^l_{N_ij}`, gathered straight from the host store: `h^l` is
    /// frozen for the whole layer (writes go to `h^{l+1}`, leader-applied
    /// after the join), so workers need no hand-off from the owner GPUs.
    fn neighbor_rows(&self, l: usize, i: usize, j: usize) -> Matrix {
        self.h[l].gather_rows(&indices(&self.plan.chunks[i][j].neighbors))
    }

    /// The hybrid checkpoint of `(l, i, j)`.
    fn checkpoint(&self, l: usize, i: usize, j: usize) -> &Matrix {
        self.agg_cache[l][i][j]
            .as_ref()
            .expect("hybrid checkpoint missing — was the forward compute applied?")
    }
}

/// Where a step runs: layer, GPU, batch, and the batch's buffer names.
#[derive(Clone, Copy)]
struct At {
    l: usize,
    i: usize,
    j: usize,
    bufs: BatchBufs,
}

/// Runs one operation for GPU `i`: picks the composer for the role and
/// the overlap mode.
fn step<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    op: Op,
    i: usize,
    scratch: &mut GpuScratch,
) -> Result<Option<Computed>, SimError> {
    let Op { dir, role, l, j } = op;
    let carry = &mut scratch.carry[j % 2];
    let pipelined = ctx.config.overlap == OverlapMode::DoubleBuffer;
    let bufs = if pipelined {
        BatchBufs::Slot(j)
    } else {
        BatchBufs::PerBatch
    };
    let at = At { l, i, j, bufs };
    // Parameter gradients exist on training sweeps only.
    let grads = scratch.grads.get_mut(l);
    Ok(match (role, pipelined) {
        (Role::Load, false) => {
            load_phased(ctx, tl, dir, at, carry)?;
            None
        }
        (Role::Load, true) => {
            load_pipelined(ctx, tl, dir, at, carry);
            None
        }
        (Role::Compute, false) => Some(compute_phased(ctx, tl, dir, at, carry, grads)?),
        (Role::Compute, true) => Some(compute_pipelined(ctx, tl, dir, at, carry, grads)),
        (Role::Drain, false) => {
            drain_phased(ctx, tl, dir, at, carry);
            None
        }
        (Role::Drain, true) => {
            drain_pipelined(ctx, tl, dir, at);
            None
        }
    })
}

// ============================ composers ============================
//
// `*_phased` (OverlapMode::Off): everything on the default stream, the
// batch's device memory allocated by its load and compute and freed by
// its last step, the ℕ^gpu reuse issued inside the load.
//
// `*_pipelined` (OverlapMode::DoubleBuffer): each layer is a software
// pipeline over the batch sequence — batch j+1 loads on the copy-in
// stream while batch j computes and batch j-1 drains on copy-out.
// Batches alternate between two pinned staging slots, so a load always
// targets the slot the computing batch is *not* reading, and nothing is
// allocated per batch (which is why these composers are infallible).
// The one same-segment cross-stream hazard left — the in-place ℕ^gpu
// reuse refill writing the slot the load's H2D is also filling — is
// ordered by an explicit stream wait ([`reuse_handoff`]).

/// Phased load. Forward: the host half of the dedup load. Backward (Alg
/// 1 lines 14–16): `∇h^{l+1}` plus the strategy-dependent checkpoint
/// reload — the cached aggregate on the hybrid path, the dedup neighbor
/// reload for recomputation.
fn load_phased<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    dir: Dir,
    at: At,
    carry: &mut Carry,
) -> Result<(), SimError> {
    let At { l, i, j, .. } = at;
    if dir == Dir::Forward {
        carry.held = stage_neighbors_phased(ctx, tl, at)?;
        return Ok(());
    }
    carry.grad_out = grad_out_load(ctx, tl, at);
    let chunk = &ctx.plan.chunks[i][j];
    let topo = chunk.topology_bytes();
    tl.alloc(i, topo, "chunk topology (bwd)")?;
    let inter = ctx.model.layer(l).intermediate_bytes(chunk);
    tl.alloc(i, inter, "regenerated intermediates")?;
    let reload = if ctx.checkpointed(l) {
        let bytes = ctx.checkpoint(l, i, j).byte_size();
        tl.alloc(i, bytes, "aggregate checkpoint")?;
        checkpoint_reload(ctx, tl, at, bytes);
        bytes
    } else {
        stage_neighbors_phased(ctx, tl, at)?
    };
    carry.held = topo + inter + reload;
    Ok(())
}

/// Pipelined load on the copy-in stream, into staging slot `j % 2`.
fn load_pipelined<T: Timeline>(ctx: &StepCtx, tl: &mut T, dir: Dir, at: At, carry: &mut Carry) {
    let At { l, i, j, .. } = at;
    tl.set_stream(StreamId::CopyIn.id());
    match dir {
        Dir::Forward => {
            if ctx.topology_upload_layer(l, j) {
                topology_upload(ctx, tl, at);
            }
            stage_neighbors_pipelined(ctx, tl, at);
        }
        Dir::Backward => {
            carry.grad_out = grad_out_load(ctx, tl, at);
            if ctx.checkpointed(l) {
                checkpoint_reload(ctx, tl, at, ctx.checkpoint(l, i, j).byte_size());
            } else {
                stage_neighbors_pipelined(ctx, tl, at);
            }
        }
    }
}

/// Host half of staging `h^l_{N_ij}`, phased: the PCIe loads, the ℕ^gpu
/// rows promoted in place from the previous batch, and the allocation of
/// the merged neighbor buffer. Returns the buffer's bytes.
fn stage_neighbors_phased<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    at: At,
) -> Result<usize, SimError> {
    let At { l, i, j, bufs } = at;
    let rows = host_load(ctx, tl, at);
    if let Some(reused) = ctx.reused_rows(i, j) {
        if ctx.reuse_source_live(l, j) {
            reuse_in_place(ctx, tl, at, bufs, reused);
        } else {
            reuse_from_host(ctx, tl, at, reused);
        }
    }
    let bytes = rows * ctx.row(l);
    tl.alloc(i, bytes, "neighbor buffer")?;
    Ok(bytes)
}

/// Host half of staging `h^l_{N_ij}`, pipelined: only the PCIe loads.
/// The ℕ^gpu reuse runs on the compute stream of the previous batch
/// ([`reuse_handoff`]) — unless that batch is pruned and never computes,
/// in which case its rows come from the host store here.
fn stage_neighbors_pipelined<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) {
    host_load(ctx, tl, at);
    if let Some(reused) = ctx.reused_rows(at.i, at.j) {
        if !ctx.reuse_source_live(at.l, at.j) {
            reuse_from_host(ctx, tl, at, reused);
        }
    }
}

/// Phased compute. Forward: inter-GPU fetches, the layer numerics, the
/// `h^{l+1}` write-back and checkpoint store, and the release of the
/// batch's memory. Backward (Algorithm 3): recompute + gradient
/// numerics and the inter-GPU gradient pushes; eviction waits for the
/// phase barrier.
fn compute_phased<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    dir: Dir,
    at: At,
    carry: &Carry,
    grads: Option<&mut LayerGrads>,
) -> Result<Computed, SimError> {
    let At { l, i, j, .. } = at;
    if dir == Dir::Backward {
        return Ok(backward_compute(ctx, tl, at, carry, grads, false));
    }
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let topo = chunk.topology_bytes();
    let out_bytes = chunk.num_dests() * layer.out_dim() * F32;
    let inter = layer.intermediate_bytes(chunk);
    tl.alloc(i, topo, "chunk topology")?;
    tl.alloc(i, out_bytes, "layer output")?;
    tl.alloc(i, inter, "intermediate data")?;
    if ctx.topology_upload_layer(l, j) {
        topology_upload(ctx, tl, at);
    }
    // Sources are resident: the phase barrier follows every GPU's load.
    neighbor_fetch(ctx, tl, at);
    let f = forward_numerics(ctx, tl, at);
    let agg = checkpoint_of(ctx, l, f.agg);
    activation_store(ctx, tl, at, agg.as_ref().map(Matrix::byte_size));
    tl.free(i, topo + out_bytes + inter + carry.held);
    Ok(Computed { rows: f.out, agg })
}

/// Pipelined compute on the compute stream. The forward write-back cost
/// is deferred to the copy-out drain one segment later; the data itself
/// is leader-applied this segment, exactly as in the phased schedule.
fn compute_pipelined<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    dir: Dir,
    at: At,
    carry: &Carry,
    grads: Option<&mut LayerGrads>,
) -> Computed {
    tl.set_stream(StreamId::Compute.id());
    if dir == Dir::Backward {
        return backward_compute(ctx, tl, at, carry, grads, true);
    }
    // Source slots were filled a segment earlier (barrier-ordered).
    neighbor_fetch(ctx, tl, at);
    let f = forward_numerics(ctx, tl, at);
    reuse_handoff(ctx, tl, at);
    Computed {
        rows: f.out,
        agg: checkpoint_of(ctx, at.l, f.agg),
    }
}

/// The backward compute both modes share; `handoff` adds the pipelined
/// mode's reuse hand-off, which follows the recompute path's neighbor
/// reload (the hybrid path reloads no neighbor rows).
fn backward_compute<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    at: At,
    carry: &Carry,
    grads: Option<&mut LayerGrads>,
    handoff: bool,
) -> Computed {
    let grads = grads.expect("a backward sweep carries parameter gradients");
    let recompute = !ctx.checkpointed(at.l);
    if recompute {
        neighbor_fetch(ctx, tl, at);
    }
    let rows = backward_numerics(ctx, tl, at, &carry.grad_out, grads);
    if recompute && handoff {
        reuse_handoff(ctx, tl, at);
    }
    gradient_push(ctx, tl, at);
    Computed { rows, agg: None }
}

/// The aggregate a forward compute checkpoints, when the layer is on the
/// hybrid path.
fn checkpoint_of(ctx: &StepCtx, l: usize, agg: Option<Matrix>) -> Option<Matrix> {
    ctx.checkpointed(l)
        .then(|| agg.expect("cache-capable layer must emit an aggregate"))
}

/// Phased drain (backward only): every push into this GPU's gradient
/// buffer landed before the phase barrier, so evict to the host store
/// and release the batch's memory.
fn drain_phased<T: Timeline>(ctx: &StepCtx, tl: &mut T, dir: Dir, at: At, carry: &Carry) {
    assert_eq!(
        dir,
        Dir::Backward,
        "the phased forward compute writes back on its own"
    );
    gradient_flush(ctx, tl, at);
    tl.free(at.i, carry.held);
}

/// Pipelined drain on the copy-out stream, one segment behind the
/// compute: the forward write-back and checkpoint store, or the backward
/// gradient eviction (all pushes landed before the last batch barrier).
fn drain_pipelined<T: Timeline>(ctx: &StepCtx, tl: &mut T, dir: Dir, at: At) {
    let At { l, i, j, .. } = at;
    tl.set_stream(StreamId::CopyOut.id());
    match dir {
        Dir::Forward => {
            let ckpt = ctx
                .checkpointed(l)
                .then(|| ctx.checkpoint(l, i, j).byte_size());
            activation_store(ctx, tl, at, ckpt);
        }
        Dir::Backward => gradient_flush(ctx, tl, at),
    }
}

/// Compute-stream hand-off of the ℕ^gpu rows batch `j` leaves behind for
/// batch `j + 1` (P2P+RU only): an in-place copy from the current slot
/// into the slot the copy-in stream is concurrently loading. The stream
/// wait orders it after that H2D — dropping the wait is exactly the
/// eager-refill write/read race the schedule checker rejects.
fn reuse_handoff<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) {
    let next = At {
        j: at.j + 1,
        bufs: BatchBufs::Slot(at.j + 1),
        ..at
    };
    // A pruned successor was never loaded: there is no slot refill to
    // hand rows into (its own load covers them from the host if it ever
    // runs again).
    if next.j >= ctx.dedup.n || ctx.pruned(next.l, next.j) {
        return;
    }
    if let Some(reused) = ctx.reused_rows(next.i, next.j) {
        tl.stream_wait(at.i, StreamId::CopyIn.id());
        reuse_in_place(ctx, tl, next, at.bufs, reused);
    }
}

// ============================= emitters =============================

/// Streams batch `j`'s topology to the device (once per epoch, reused
/// across layers).
fn topology_upload<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) {
    let At { i, j, .. } = at;
    tl.tag([Access::write(topology(i), chunk_region(i, j))]);
    tl.h2d(i, ctx.plan.chunks[i][j].topology_bytes());
}

/// The host half of loading `h^l_{N_ij}` (Algorithm 2 phase A): PCIe
/// loads of the rows this GPU is responsible for. Returns the rows
/// resident in the GPU's merged buffer for this batch. The inter-GPU
/// half is [`neighbor_fetch`], after the barrier.
///
/// At layer 0 the frozen hot-vertex cache table applies: `hits` rows of
/// the scheduled load are already resident in HBM and skip PCIe (an HBM
/// copy instead); `installs > 0` means rows loaded now become resident
/// at sweep end, so the install write rides the load's own H2D event.
/// Provenance row totals stay the *full* schedule either way — the cache
/// changes how rows arrive, never how many the dataflow ledger moves.
fn host_load<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) -> usize {
    let At { l, i, j, bufs } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let batch = &ctx.dedup.batches[j];
    let row = ctx.row(l);
    let cs = ctx.cache_stats(l, i, j);
    // (rows this GPU loads over PCIe, rows resident in its merged buffer)
    let (loaded, resident) = match ctx.config.comm {
        // The full neighbor set.
        CommMode::Vanilla => (chunk.num_neighbors(), chunk.num_neighbors()),
        // The transition subset this GPU owns, into the merged
        // transition+neighbor buffer (§6 "data buffer deduplication"):
        // |ℕ_ij ∪ N_ij|.
        CommMode::P2p => {
            let owned = batch.transition[i].len();
            (owned, owned + chunk.num_neighbors() - batch.fetch[i][i])
        }
        // §6-accurate accounting from the in-place buffer plan: every
        // merged-buffer resident row — whether it originally arrived
        // over PCIe or NVLink — is reused in place across adjacent
        // batches; only genuinely new rows move.
        CommMode::P2pRu => {
            let bc = ctx.buffer_comm(i, j);
            (bc.h2d_rows, bc.buffer_rows)
        }
    };
    let vanilla = ctx.config.comm == CommMode::Vanilla;
    let prov = Provenance::new(ContribKind::HostLoad, l, j);
    let (region, prov) = if vanilla {
        (Region::All, prov.rows(loaded))
    } else {
        (Region::Owned, prov.owned_by(i).rows(loaded))
    };
    let mut acc = vec![
        Access::read(rep(l), Region::All),
        Access::write(bufs.rep(i), region)
            .with_gen(j as u32)
            .with_prov(prov),
    ];
    if cs.installs > 0 {
        acc.push(Access::write(dev_cache(i), Region::All));
    }
    tl.tag(acc);
    if vanilla {
        // Rows whose owner partition sits on the other socket cross the
        // QPI link (partitions map to sockets pairwise).
        let sockets = tl.machine_config().num_sockets;
        let remote = remote_socket_rows(&batch.fetch[i], i, ctx.plan.m, sockets);
        tl.h2d_mixed(i, (loaded - cs.hits) * row, (remote - cs.remote_hits) * row);
    } else {
        tl.h2d(i, (loaded - cs.hits) * row);
    }
    if cs.hits > 0 {
        tl.tag([Access::read(dev_cache(i), Region::All)]);
        tl.reuse(i, cs.hits * row);
    }
    resident
}

/// Promotes the `rows` ℕ^gpu rows batch `j - 1` left resident in `from`
/// into batch `j`'s buffer, in place.
fn reuse_in_place<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At, from: BatchBufs, rows: usize) {
    let At { l, i, j, bufs } = at;
    let prev = Access::read(from.rep(i), Region::Owned);
    tl.tag([
        if j > 0 {
            prev.with_gen(j as u32 - 1)
        } else {
            prev
        },
        Access::write(bufs.rep(i), Region::Owned)
            .with_gen(j as u32)
            .with_prov(Provenance::new(ContribKind::Reuse, l, j).rows(rows)),
    ]);
    tl.reuse(i, rows * ctx.row(l));
}

/// Masked sweep with batch `j − 1` pruned: the `rows` it would have left
/// resident were never loaded, so they come over PCIe instead. Same row
/// count, `HostLoad` provenance — the pass-9 per-batch totals are
/// unchanged.
fn reuse_from_host<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At, rows: usize) {
    let At { l, i, j, bufs } = at;
    tl.tag([
        Access::read(rep(l), Region::All),
        Access::write(bufs.rep(i), Region::Owned)
            .with_gen(j as u32)
            .with_prov(Provenance::new(ContribKind::HostLoad, l, j).rows(rows)),
    ]);
    tl.h2d(i, rows * ctx.row(l));
}

/// The inter-GPU half of loading `h^l_{N_ij}` (Algorithm 2 phase B):
/// fetch remote transition rows into GPU `i`'s merged buffer. Must run
/// after a barrier that follows every source GPU's host load (otherwise
/// the schedule checker reports a W→R race).
fn neighbor_fetch<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) {
    let At { l, i, j, bufs } = at;
    if ctx.config.comm == CommMode::Vanilla {
        return;
    }
    let row = ctx.row(l);
    for k in 0..ctx.plan.m {
        let rows = match ctx.config.comm {
            CommMode::P2pRu => ctx.buffer_comm(i, j).d2d_rows[k],
            _ => ctx.dedup.batches[j].fetch[i][k],
        };
        if k != i && rows > 0 {
            // Interleaved schedule: charged to the pulling GPU only.
            tl.tag([
                Access::read(bufs.rep(k), Region::Owned).with_gen(j as u32),
                Access::write(bufs.rep(i), Region::Fetched)
                    .with_gen(j as u32)
                    .with_prov(
                        Provenance::new(ContribKind::Fetch, l, j)
                            .owned_by(k)
                            .from_gpu(k)
                            .rows(rows),
                    ),
            ]);
            tl.d2d(k, i, rows * row);
            if !ctx.config.interleaved {
                // Naive schedule: the serving GPU stalls too (deferred to
                // the join when running on a per-GPU shard).
                tl.source_stall(k, rows * row);
            }
        }
    }
}

/// Placeholder forward output for schedule synthesis: zero tensors of
/// exactly the shapes (and, for the checkpoint, the byte size) the real
/// layer would produce, so every downstream size-derived charge — the
/// `h^{l+1}` write-back and the hybrid checkpoint store/reload — is
/// identical to the executed schedule without running the numerics.
fn synth_forward(layer: &dyn GnnLayer, chunk: &ChunkSubgraph) -> LayerForward {
    LayerForward {
        out: Matrix::zeros(chunk.num_dests(), layer.out_dim()),
        agg: layer
            .supports_agg_cache()
            .then(|| Matrix::zeros(1, layer.agg_cache_bytes(chunk) / F32)),
    }
}

/// The real forward numerics of chunk `(i, j)` at layer `l` and their
/// dense and edge FLOPs.
fn forward_numerics<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) -> LayerForward {
    let At { l, i, j, bufs } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let f = if ctx.synth {
        synth_forward(layer, chunk)
    } else {
        layer.forward(chunk, &ctx.neighbor_rows(l, i, j))
    };
    let flops = layer.forward_flops(chunk);
    tl.tag([
        Access::read(bufs.rep(i), Region::All)
            .with_prov(Provenance::new(ContribKind::Aggregate, l, j).rows(chunk.num_neighbors())),
        Access::read(topology(i), chunk_region(i, j)),
    ]);
    tl.gpu_dense(i, flops.dense);
    tl.gpu_edge(i, flops.edge);
    f
}

/// Cost of writing back `h^{l+1}_{V_ij}` (Alg 1 line 9) and, on the
/// hybrid path, of storing the `ckpt`-byte aggregate checkpoint. The
/// data itself travels in [`Computed`].
fn activation_store<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At, ckpt: Option<usize>) {
    let At { l, i, j, .. } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let dests = chunk.num_dests();
    tl.tag([Access::write(rep(l + 1), chunk_region(i, j)).with_prov(
        Provenance::new(ContribKind::ActStore, l + 1, j)
            .owned_by(i)
            .rows(dests),
    )]);
    tl.d2h(i, dests * ctx.model.layer(l).out_dim() * F32);
    if let Some(bytes) = ckpt {
        tl.tag([Access::write(agg_slot(l, i, j), Region::All).with_prov(
            Provenance::new(ContribKind::CkptStore, l, j)
                .owned_by(i)
                .rows(dests),
        )]);
        tl.d2h(i, bytes);
    }
}

/// Loads `∇h^{l+1}_{V_ij}` from the host store (Alg 1 line 16).
/// `∇h^{l+1}` is frozen for the whole layer, so workers gather directly.
fn grad_out_load<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) -> Matrix {
    let At { l, i, j, .. } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let out_dim = ctx.model.layer(l).out_dim();
    tl.tag([Access::read(grad(l + 1), Region::All)]);
    tl.h2d(i, chunk.num_dests() * out_dim * F32);
    if ctx.synth {
        Matrix::zeros(chunk.num_dests(), out_dim)
    } else {
        ctx.grad_h[l + 1].gather_rows(&indices(&chunk.dests))
    }
}

/// Reloads the `bytes`-byte cached aggregate (O(|V_ij|) H2D).
fn checkpoint_reload<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At, bytes: usize) {
    let At { l, i, j, .. } = at;
    tl.tag([Access::read(agg_slot(l, i, j), Region::All).with_prov(
        Provenance::new(ContribKind::CkptReload, l, j)
            .owned_by(i)
            .rows(ctx.plan.chunks[i][j].num_dests()),
    )]);
    tl.h2d(i, bytes);
}

/// Recompute + gradient numerics of chunk `(i, j)` at layer `l`
/// (Algorithm 3) and their FLOPs: UPDATE-only recompute from the cached
/// aggregate on the hybrid path, a full re-forward from the reloaded
/// neighbor rows otherwise. Neighbor gradients land in the merged
/// transition-gradient buffer via atomic accumulation, which commutes
/// with remote pushes arriving during the same phase. Returns
/// `∇h^l_{N_ij}` for the leader to accumulate into the host store.
fn backward_numerics<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    at: At,
    grad_out: &Matrix,
    grads: &mut LayerGrads,
) -> Matrix {
    let At { l, i, j, bufs } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let hybrid = ctx.checkpointed(l);
    let fwd = layer.forward_flops(chunk);
    let bwd = layer.backward_flops(chunk);
    let local_rows = match ctx.config.comm {
        CommMode::Vanilla => chunk.num_neighbors(),
        CommMode::P2p | CommMode::P2pRu => ctx.dedup.batches[j].fetch[i][i],
    };
    let acc = Access::accum(bufs.grad(i), Region::All)
        .with_gen(j as u32)
        .with_prov(
            Provenance::new(ContribKind::GradLocal, l, j)
                .owned_by(i)
                .rows(local_rows),
        );
    let topo = Access::read(topology(i), chunk_region(i, j));
    if hybrid {
        tl.tag([topo, acc]);
        tl.gpu_dense(i, fwd.dense); // UPDATE recompute
    } else {
        tl.tag([
            Access::read(bufs.rep(i), Region::All).with_prov(
                Provenance::new(ContribKind::Aggregate, l, j).rows(chunk.num_neighbors()),
            ),
            topo,
            acc,
        ]);
        tl.gpu_dense(i, fwd.dense); // full re-forward
        tl.gpu_edge(i, fwd.edge);
    }
    tl.gpu_dense(i, bwd.dense);
    tl.gpu_edge(i, bwd.edge);
    if ctx.synth {
        Matrix::zeros(chunk.neighbors.len(), layer.in_dim())
    } else if hybrid {
        layer.backward_from_agg(chunk, ctx.checkpoint(l, i, j), grad_out, grads)
    } else {
        layer.backward_from_input(chunk, &ctx.neighbor_rows(l, i, j), grad_out, grads)
    }
}

/// The inter-GPU gradient pushes of Algorithm 3: remote transition-vertex
/// gradients are atomically added into the owning GPUs' merged gradient
/// buffers (time charged to the pusher).
fn gradient_push<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) {
    let At { l, i, j, bufs } = at;
    if ctx.config.comm == CommMode::Vanilla {
        return;
    }
    let row = ctx.row(l);
    let fetch = &ctx.dedup.batches[j].fetch[i];
    for k in 0..ctx.plan.m {
        if k != i && fetch[k] > 0 {
            tl.tag([Access::accum(bufs.grad(k), Region::All)
                .with_gen(j as u32)
                .with_prov(
                    Provenance::new(ContribKind::GradPush, l, j)
                        .owned_by(k)
                        .from_gpu(i)
                        .rows(fetch[k]),
                )]);
            tl.d2d(k, i, fetch[k] * row);
            tl.gpu_edge(i, (fetch[k] * row / F32) as f64);
        }
    }
}

/// The gradient eviction of Algorithm 3: accumulated chunk gradients
/// leave the GPU over PCIe and are added into the host store `∇h^l`.
/// Must run after a barrier that follows every remote push into this
/// GPU's buffer.
fn gradient_flush<T: Timeline>(ctx: &StepCtx, tl: &mut T, at: At) {
    let At { l, i, j, bufs } = at;
    let batch = &ctx.dedup.batches[j];
    let row = ctx.row(l);
    let flush = |rows| {
        Access::read(bufs.grad(i), Region::All)
            .with_gen(j as u32)
            .with_prov(
                Provenance::new(ContribKind::GradFlush, l, j)
                    .owned_by(i)
                    .rows(rows),
            )
    };
    if ctx.config.comm == CommMode::Vanilla {
        let rows = ctx.plan.chunks[i][j].num_neighbors();
        let sockets = tl.machine_config().num_sockets;
        let remote = remote_socket_rows(&batch.fetch[i], i, ctx.plan.m, sockets);
        tl.tag([flush(rows)]);
        tl.d2h_mixed(i, rows * row, remote * row);
        // Replica gradients of the full neighbor set overlap across
        // GPUs; host-side accumulation commutes.
        tl.tag([Access::accum(grad(l), Region::All)]);
        tl.cpu_accumulate(i, rows * row);
        return;
    }
    // Evicted transition gradients go D2H and are accumulated on the
    // CPU; under P2P+RU the rows the next batch reuses stay resident.
    let next_reused = if ctx.config.comm == CommMode::P2pRu && j + 1 < ctx.dedup.n {
        ctx.dedup.batches[j + 1].reused[i]
    } else {
        0
    };
    let evicted = batch.transition[i].len() - next_reused;
    tl.tag([flush(evicted)]);
    tl.d2h(i, evicted * row);
    // Each GPU evicts its owned transition partition — disjoint slices
    // of the host store.
    tl.tag([Access::accum(grad(l), Region::Part(i as u32))]);
    tl.cpu_accumulate(i, evicted * row);
}

/// Rows of GPU `i`'s neighbor set owned by partitions on a different NUMA
/// socket (GPUs spread evenly over sockets, partitions pinned to their
/// GPU's socket).
fn remote_socket_rows(fetch_row: &[usize], i: usize, m: usize, sockets: usize) -> usize {
    let sockets = sockets.min(m);
    let socket_of = |g: usize| g * sockets / m;
    fetch_row
        .iter()
        .enumerate()
        .filter(|&(k, _)| socket_of(k) != socket_of(i))
        .map(|(_, &c)| c)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_socket_rows_partition_mapping() {
        // 4 GPUs over 4 sockets: everything off-diagonal is remote.
        assert_eq!(remote_socket_rows(&[10, 20, 30, 40], 0, 4, 4), 90);
        assert_eq!(remote_socket_rows(&[10, 20, 30, 40], 2, 4, 4), 70);
        // 4 GPUs over 2 sockets: GPUs 0,1 share a socket; 2,3 the other.
        assert_eq!(remote_socket_rows(&[10, 20, 30, 40], 0, 4, 2), 70);
        assert_eq!(remote_socket_rows(&[10, 20, 30, 40], 3, 4, 2), 30);
        // Single GPU: nothing is remote across sockets it can't reach.
        assert_eq!(remote_socket_rows(&[10], 0, 1, 4), 0);
    }
}
