//! The sweep executor: one layer driver, one per-GPU dispatcher, one set
//! of emitters.
//!
//! HongTu describes one sweep — per layer, per batch: host load
//! (Algorithm 2 phase A) → inter-GPU fetch (phase B) → compute →
//! write-back / evict (Algorithm 1 l. 4–19, Algorithm 3). This module
//! runs it from data: [`hongtu_stream::layer_schedule`] says which batch
//! is in which [`Role`] between which barriers, [`Sweep::run_layer`]
//! walks that schedule, [`Sweep::per_gpu`] runs each operation on every
//! simulated GPU's [`GpuLane`] (in a loop, or on worker threads) and
//! joins the lanes, and the *emitters* charge the events of one step to
//! a lane. What a step allocates comes from [`crate::footprint`]; what
//! it computes goes through [`crate::numerics`].
//!
//! Four layers of functions, top to bottom:
//!
//! - **epochs** — [`infer_epoch`] and [`train_epoch`]: the layer sweeps
//!   of one epoch plus the few machine-level charges around them (loss,
//!   all-reduce), over whatever machine, cache runtime and numerics the
//!   caller hands in — the session's own for a real epoch, throwaway
//!   copies and the shapes-only numerics for schedule synthesis.
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

use crate::dedup::DedupCounts;
use crate::engine::{
    BatchComm, CommMode, EpochReport, ExecutionMode, HongTuConfig, MemoryStrategy, Mode,
};
use crate::footprint::{footprint, topology_upload_bytes};
use crate::numerics::Numerics;
use crate::serve::Cone;
use hongtu_cache::{CacheRuntime, HitStats};
use hongtu_nn::{GnnModel, LayerForward, LayerGrads};
use hongtu_partition::TwoLevelPartition;
use hongtu_sim::{
    Access, BarrierScope, ContribKind, GpuLane, Machine, Provenance, Region, ResourceId, SimError,
    TimeBuckets,
};
use hongtu_stream::{grad_slot, layer_schedule, rep_slot, OverlapMode, Role, StreamId};
use hongtu_tensor::Matrix;
use std::sync::Arc;

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
/// model replica (for its shapes and FLOP counts), and the per-sweep
/// switches.
///
/// `plan`, `counts` and `buffer_comm` are the plans of *one layer's*
/// sweep. A full sweep runs every layer over the session's own; a masked
/// one runs layer `l` over the cone's plans packed for that layer, which
/// [`Env::at`] swaps in — everything below the layer driver then reads
/// the three fields as it always did.
#[derive(Clone, Copy)]
pub(crate) struct Env<'a> {
    pub config: &'a HongTuConfig,
    pub plan: &'a TwoLevelPartition,
    /// The dedup plan's sets, counted (§5.1–5.2).
    pub counts: &'a DedupCounts,
    pub buffer_comm: Option<&'a [Vec<BatchComm>]>,
    pub model: &'a GnnModel,
    /// Whether hybrid aggregate checkpoints are in play: true only for a
    /// *training* epoch under `MemoryStrategy::Hybrid`. Inference epochs
    /// never store (or reload) checkpoints, whatever the strategy.
    pub checkpoint: bool,
    /// Serving / delta-replay cone: its packed plans replace the session's
    /// layer by layer — one batch per run of the session's batches — and
    /// `(layer, run)` steps whose packed chunks are all empty are skipped
    /// (all GPUs of a batch skip together). `None` = full sweep.
    pub cone: Option<&'a Cone>,
    /// Hot-vertex feature-cache runtime, its hit table frozen for the
    /// sweep in flight.
    pub cache: Option<&'a CacheRuntime>,
}

impl<'a> Env<'a> {
    /// The environment of a full, cache-less sweep of the session's own
    /// [`Mode`]: checkpoints are in play iff it trains under the hybrid
    /// strategy. Callers narrow it with struct update syntax.
    pub(crate) fn new(
        config: &'a HongTuConfig,
        plan: &'a TwoLevelPartition,
        counts: &'a DedupCounts,
        buffer_comm: Option<&'a [Vec<BatchComm>]>,
        model: &'a GnnModel,
    ) -> Self {
        Env {
            config,
            plan,
            counts,
            buffer_comm,
            model,
            checkpoint: config.mode == Mode::Train && config.memory == MemoryStrategy::Hybrid,
            cone: None,
            cache: None,
        }
    }

    /// This environment with layer `l`'s plans in place: the cone's packed
    /// grid of layer `l`, or — full sweep — itself.
    pub(crate) fn at(&self, l: usize) -> Env<'a> {
        match self.cone {
            None => *self,
            Some(cone) => {
                let layer = &cone.layers[l];
                Env {
                    plan: &layer.plan,
                    counts: &layer.counts,
                    buffer_comm: layer.buffer_comm.as_deref(),
                    ..*self
                }
            }
        }
    }

    /// Whether the cone prunes batch `j` — a run of its packed grid — at
    /// layer `l`.
    pub(crate) fn pruned(&self, l: usize, j: usize) -> bool {
        self.cone.is_some_and(|c| !c.active(l, j))
    }

    /// Neighbor rows the chunks of this layer's plans read between them,
    /// a row counted once per chunk that reads it.
    fn neighbor_rows_read(&self) -> usize {
        self.plan.all_chunks().map(|c| c.num_neighbors()).sum()
    }

    /// Whether `(l, j)` is the step that streams batch `j`'s topology to
    /// the device (reused by every later layer of the epoch). Full sweeps
    /// upload at layer 0; under a cone the upload belongs to the run's
    /// *first active* layer of the packed grid. Downward-closed query
    /// cones make that layer 0 whenever the run is active at all, but the
    /// upward-closed delta-replay cones may first activate a run above
    /// layer 0 — uploading only at `l == 0` would leave its topology reads
    /// dangling.
    fn topology_upload_layer(&self, l: usize, j: usize) -> bool {
        match self.cone {
            None => l == 0,
            Some(c) => c.active(l, j) && !(0..l).any(|k| c.active(k, j)),
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
    pub(crate) fn checkpointed(&self, l: usize) -> bool {
        self.checkpoint && self.model.layer(l).supports_agg_cache()
    }

    /// Bytes of one input row of layer `l`.
    pub(crate) fn row(&self, l: usize) -> usize {
        self.model.layer(l).in_dim() * F32
    }

    /// The §6 buffer-plan communication table entry (P2P+RU only).
    pub(crate) fn buffer_comm(&self, i: usize, j: usize) -> &BatchComm {
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
struct GpuScratch {
    /// `∇h^{l+1}_{V_ij}`: what the backward load of each of the (at most
    /// two) batches in flight leaves for its compute, indexed by
    /// `batch % 2`.
    grad_out: [Matrix; 2],
    /// Parameter gradients this GPU accumulated, per layer. Empty on
    /// forward-only sweeps.
    grads: Vec<LayerGrads>,
}

impl GpuScratch {
    fn new(grads: Vec<LayerGrads>) -> Self {
        GpuScratch {
            grad_out: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
            grads,
        }
    }
}

/// Result of one GPU's compute step. The host-store writes it implies
/// are applied by the leader after the join, in GPU index order, so
/// worker threads never write the shared stores.
pub(crate) struct Computed {
    /// Forward: `h^{l+1}_{V_ij}`. Backward: `∇h^l_{N_ij}`.
    pub rows: Matrix,
    /// Forward under the hybrid strategy: the aggregate checkpoint.
    pub agg: Option<Matrix>,
}

/// One `(role, batch)` operation of a layer schedule.
#[derive(Clone, Copy)]
struct Op {
    dir: Dir,
    role: Role,
    l: usize,
    j: usize,
}

/// A sweep in progress: the immutable [`Env`] plus what it mutates — the
/// simulated machine and, through the numerics, the host-resident stores.
struct Sweep<'a> {
    env: Env<'a>,
    machine: &'a mut Machine,
    numerics: &'a mut dyn Numerics,
    /// Device bytes in use per GPU when the sweep began. A sweep frees
    /// everything it allocates, so this is also what a failed one rolls
    /// back to.
    base: Vec<usize>,
}

impl<'a> Sweep<'a> {
    fn new(env: Env<'a>, machine: &'a mut Machine, numerics: &'a mut dyn Numerics) -> Self {
        let base = machine.gpu_in_use();
        Sweep {
            env,
            machine,
            numerics,
            base,
        }
    }

    /// Runs layer `l` in direction `dir`: walks the layer schedule, runs
    /// each operation on every GPU, leader-applies what a compute
    /// produced, and closes each segment with its barrier.
    ///
    /// Non-vanilla batches have cross-GPU data dependencies inside a
    /// batch (P2P fetches read what owners loaded; evictions read what
    /// remote GPUs pushed), which is what the schedule's phase barriers
    /// separate. Vanilla batches touch only per-GPU state.
    fn run_layer(
        &mut self,
        dir: Dir,
        l: usize,
        scratch: &mut [GpuScratch],
    ) -> Result<(), SimError> {
        let env = self.env.at(l);
        let config = env.config;
        let phased = config.comm != CommMode::Vanilla;
        let drains = dir == Dir::Backward;
        self.numerics.begin_layer(dir, l, env.neighbor_rows_read());
        for seg in layer_schedule(env.plan.n, config.overlap, phased, drains) {
            for (role, j) in seg.ops() {
                // A pruned batch emits nothing, computes nothing, and has
                // no output to scatter; only its barriers remain.
                if env.pruned(l, j) {
                    continue;
                }
                let outs = self.per_gpu(env, Op { dir, role, l, j }, scratch)?;
                // Host-store writes in GPU index order — the fixed
                // reduction order of the determinism contract (backward
                // neighbor sets overlap across GPUs, so this order *is*
                // the f32 summation order of `∇h^l`).
                for (i, out) in outs.into_iter().enumerate() {
                    if let Some(out) = out {
                        self.numerics.apply(dir, l, &env.plan.chunks[i][j], out);
                    }
                }
            }
            self.machine.sync(seg.barrier);
        }
        Ok(())
    }

    /// Runs `op` once per simulated GPU over `env`, its layer's plans —
    /// each step against its own [`GpuLane`] and scratch — joins the
    /// lanes, and returns the results
    /// in GPU index order. The only place the host execution mode is
    /// consulted: it picks a loop or the worker pool, nothing else —
    /// lanes share no state, so clocks, buckets and the joined trace are
    /// the same bits either way. Every GPU's step runs to completion, so
    /// on error the lowest-indexed failure is the one reported, and the
    /// device memory this sweep's unwound steps still held is released.
    fn per_gpu(
        &mut self,
        env: Env<'a>,
        op: Op,
        scratch: &mut [GpuScratch],
    ) -> Result<Vec<Option<Computed>>, SimError> {
        let ctx = StepCtx {
            env,
            numerics: &*self.numerics,
        };
        let mut slots: Vec<_> = scratch.iter().map(|_| None).collect();
        let work = self
            .machine
            .lanes_mut()
            .iter_mut()
            .zip(&mut slots)
            .zip(scratch);
        let run = |((lane, slot), sc): ((&mut GpuLane, &mut Option<_>), &mut GpuScratch)| {
            *slot = Some(step(&ctx, lane, op, sc));
        };
        match ctx.config.exec {
            ExecutionMode::Sequential => work.for_each(run),
            ExecutionMode::Parallel => hongtu_parallel::global().scope(|s| {
                for w in work {
                    s.spawn(move || run(w));
                }
            }),
        }
        self.machine.join();
        let outs = slots
            .into_iter()
            .map(|slot| slot.expect("every GPU's step ran"))
            .collect::<Result<_, _>>();
        if outs.is_err() {
            self.machine.release_to(&self.base);
        }
        outs
    }
}

/// The forward pass of an epoch (Alg 1 lines 4–9) and the hot-vertex
/// cache sweep around it: hits are frozen before the first load against
/// the load sets of the layer-0 plans this sweep runs — the session's
/// own, or the cone's packed layer-0 grid — and the rows those sets load are
/// installed after the last. (A training epoch's backward pass re-loads
/// through checkpoint reloads, which bypass the cache by design.)
fn forward_pass(
    env: Env,
    machine: &mut Machine,
    mut cache: Option<&mut CacheRuntime>,
    numerics: &mut dyn Numerics,
    scratch: &mut [GpuScratch],
) -> Result<(), SimError> {
    if let Some(c) = cache.as_deref_mut() {
        let packed = match env.cone {
            None => None,
            Some(cone) => {
                // A session refuses a cone of other plans, and one of its
                // own lists load sets whenever it has a cache.
                let sets = cone
                    .load_sets()
                    .expect("a cached session's cone lists load sets");
                Some((cone.mask().origin().clone(), Arc::clone(sets)))
            }
        };
        c.begin_sweep(packed);
    }
    let frozen = Env {
        cache: cache.as_deref(),
        ..env
    };
    let mut sweep = Sweep::new(frozen, machine, numerics);
    for l in 0..env.model.num_layers() {
        sweep.run_layer(Dir::Forward, l, scratch)?;
    }
    if let Some(c) = cache {
        c.end_sweep();
    }
    Ok(())
}

/// One forward-only epoch (no checkpoints), pruned to `env.cone` when
/// there is one. Returns the simulated time it took and what it charged.
pub(crate) fn infer_epoch(
    env: Env,
    machine: &mut Machine,
    cache: Option<&mut CacheRuntime>,
    numerics: &mut dyn Numerics,
) -> Result<(f64, TimeBuckets), SimError> {
    let (t0, b0) = (machine.elapsed(), machine.buckets());
    let mut scratch: Vec<_> = (0..env.plan.m)
        .map(|_| GpuScratch::new(Vec::new()))
        .collect();
    let env = Env {
        checkpoint: false,
        ..env
    };
    forward_pass(env, machine, cache, numerics, &mut scratch)?;
    machine.sync(BarrierScope::Epoch);
    Ok((machine.elapsed() - t0, delta(machine.buckets(), b0)))
}

/// One training epoch (Algorithm 1) up to, and not including, the
/// optimizer step: returns the epoch report and the all-reduced
/// parameter gradients for the caller to apply.
pub(crate) fn train_epoch(
    env: Env,
    machine: &mut Machine,
    cache: Option<&mut CacheRuntime>,
    numerics: &mut dyn Numerics,
) -> Result<(EpochReport, Vec<LayerGrads>), SimError> {
    let (t0, b0) = (machine.elapsed(), machine.buckets());
    let l_count = env.model.num_layers();
    let m = env.plan.m;

    // Zero-initializing the host gradient stores is a (cost-free) write
    // the schedule checker needs to see: every later gradient
    // accumulate/read is ordered after it.
    let lane = machine.lane(0);
    lane.tag((0..=l_count).map(|l| Access::write(grad(l), Region::All)));
    lane.cpu_compute(0.0);
    machine.join();

    let mut scratch: Vec<_> = (0..m)
        .map(|_| GpuScratch::new(env.model.zero_grads()))
        .collect();
    forward_pass(env, machine, cache, numerics, &mut scratch)?;

    // ---- downstream task (lines 10–11) ----
    let loss = numerics.loss();
    let vertices = env.plan.assignment.partition_of.len();
    let classes = env.model.layer(l_count - 1).out_dim();
    let lane = machine.lane(0);
    lane.tag([
        Access::read(rep(l_count), Region::All),
        Access::write(grad(l_count), Region::All),
    ]);
    lane.cpu_compute((vertices * classes * 8) as f64);
    // The loss gradient is written on GPU 0's timeline; every GPU's
    // backward pass reads it, so the batch loop must not start before a
    // barrier.
    machine.sync(BarrierScope::Batch);

    // ---- backward pass (lines 12–19) ----
    let mut sweep = Sweep::new(env, machine, numerics);
    for l in (0..l_count).rev() {
        sweep.run_layer(Dir::Backward, l, &mut scratch)?;
    }

    // ---- all-reduce of the parameter gradients (line 20) ----
    let param_bytes = env.model.param_bytes();
    for lane in machine.lanes_mut() {
        // Ring all-reduce: 2·(m−1)/m of the parameter volume per GPU.
        // Modeled as an internally-ordered collective, so it carries no
        // access annotations.
        lane.d2d(2 * param_bytes * m.saturating_sub(1) / m.max(1));
        lane.gpu_dense(2.0 * env.model.param_count() as f64);
    }
    machine.sync(BarrierScope::Epoch);
    let mut total = env.model.zero_grads();
    for gpu in &scratch {
        for (t, g) in total.iter_mut().zip(&gpu.grads) {
            t.add(g);
        }
    }

    let report = EpochReport {
        loss,
        time: machine.elapsed() - t0,
        buckets: delta(machine.buckets(), b0),
    };
    Ok((report, total))
}

fn delta(now: TimeBuckets, before: TimeBuckets) -> TimeBuckets {
    TimeBuckets {
        h2d: now.h2d - before.h2d,
        d2d: now.d2d - before.d2d,
        gpu: now.gpu - before.gpu,
        cpu: now.cpu - before.cpu,
        reuse: now.reuse - before.reuse,
        bytes_h2d: now.bytes_h2d - before.bytes_h2d,
        bytes_d2h: now.bytes_d2h - before.bytes_d2h,
        bytes_d2d: now.bytes_d2d - before.bytes_d2d,
        bytes_reuse: now.bytes_reuse - before.bytes_reuse,
    }
}

/// Immutable view a per-GPU step runs against: the [`Env`] plus the
/// numerics, whose stores are frozen for the duration of one operation
/// so worker threads can share them while each mutates only its own lane
/// and scratch.
struct StepCtx<'a> {
    env: Env<'a>,
    numerics: &'a dyn Numerics,
}

impl<'a> std::ops::Deref for StepCtx<'a> {
    type Target = Env<'a>;
    fn deref(&self) -> &Env<'a> {
        &self.env
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

/// Runs one operation on one GPU's lane: picks the composer for the role
/// and the overlap mode.
fn step(
    ctx: &StepCtx,
    lane: &mut GpuLane,
    op: Op,
    scratch: &mut GpuScratch,
) -> Result<Option<Computed>, SimError> {
    let Op { dir, role, l, j } = op;
    let grad_out = &mut scratch.grad_out[j % 2];
    let pipelined = ctx.config.overlap == OverlapMode::DoubleBuffer;
    let bufs = if pipelined {
        BatchBufs::Slot(j)
    } else {
        BatchBufs::PerBatch
    };
    let i = lane.gpu();
    let at = At { l, i, j, bufs };
    // Parameter gradients exist on training sweeps only.
    let grads = scratch.grads.get_mut(l);
    Ok(match (role, pipelined) {
        (Role::Load, false) => {
            load_phased(ctx, lane, dir, at, grad_out)?;
            None
        }
        (Role::Load, true) => {
            load_pipelined(ctx, lane, dir, at, grad_out);
            None
        }
        (Role::Compute, false) => Some(compute_phased(ctx, lane, dir, at, grad_out, grads)?),
        (Role::Compute, true) => Some(compute_pipelined(ctx, lane, dir, at, grad_out, grads)),
        (Role::Drain, false) => {
            drain_phased(ctx, lane, dir, at);
            None
        }
        (Role::Drain, true) => {
            drain_pipelined(ctx, lane, dir, at);
            None
        }
    })
}

// ============================ composers ============================
//
// `*_phased` (OverlapMode::Off): everything on the default stream, the
// batch's device memory — exactly the fields of its [`footprint`] —
// allocated by its load and compute and freed by its last step, the
// ℕ^gpu reuse issued inside the load.
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
fn load_phased(
    ctx: &StepCtx,
    lane: &mut GpuLane,
    dir: Dir,
    at: At,
    grad_out: &mut Matrix,
) -> Result<(), SimError> {
    let fp = footprint(ctx, at.l, at.i, at.j);
    if dir == Dir::Forward {
        return stage_neighbors_phased(ctx, lane, at, fp.neighbors);
    }
    *grad_out = grad_out_load(ctx, lane, at);
    lane.alloc(fp.topology, "chunk topology (bwd)")?;
    lane.alloc(fp.intermediates, "regenerated intermediates")?;
    match fp.checkpoint {
        Some(bytes) => {
            lane.alloc(bytes, "aggregate checkpoint")?;
            checkpoint_reload(ctx, lane, at, bytes);
            Ok(())
        }
        None => stage_neighbors_phased(ctx, lane, at, fp.neighbors),
    }
}

/// Pipelined load on the copy-in stream, into staging slot `j % 2`.
fn load_pipelined(ctx: &StepCtx, lane: &mut GpuLane, dir: Dir, at: At, grad_out: &mut Matrix) {
    let At { l, i, j, .. } = at;
    let fp = footprint(ctx, l, i, j);
    lane.set_stream(StreamId::CopyIn.id());
    match dir {
        Dir::Forward => {
            if ctx.topology_upload_layer(l, j) {
                topology_upload(lane, at, topology_upload_bytes(ctx, i, j));
            }
            // Only the PCIe loads: the ℕ^gpu reuse runs on the compute
            // stream of the previous batch ([`reuse_handoff`]).
            host_load(ctx, lane, at);
        }
        Dir::Backward => {
            *grad_out = grad_out_load(ctx, lane, at);
            match fp.checkpoint {
                Some(bytes) => checkpoint_reload(ctx, lane, at, bytes),
                None => host_load(ctx, lane, at),
            }
        }
    }
}

/// Host half of staging `h^l_{N_ij}`, phased: the PCIe loads, the ℕ^gpu
/// rows promoted in place from the previous batch, and the allocation of
/// the `bytes`-byte merged neighbor buffer.
fn stage_neighbors_phased(
    ctx: &StepCtx,
    lane: &mut GpuLane,
    at: At,
    bytes: usize,
) -> Result<(), SimError> {
    host_load(ctx, lane, at);
    if let Some(reused) = ctx.reused_rows(at.i, at.j) {
        reuse_in_place(ctx, lane, at, at.bufs, reused);
    }
    lane.alloc(bytes, "neighbor buffer")
}

/// Phased compute. Forward: inter-GPU fetches, the layer numerics, the
/// `h^{l+1}` write-back and checkpoint store, and the release of the
/// batch's memory. Backward (Algorithm 3): recompute + gradient
/// numerics and the inter-GPU gradient pushes; eviction waits for the
/// phase barrier.
fn compute_phased(
    ctx: &StepCtx,
    lane: &mut GpuLane,
    dir: Dir,
    at: At,
    grad_out: &Matrix,
    grads: Option<&mut LayerGrads>,
) -> Result<Computed, SimError> {
    let At { l, i, j, .. } = at;
    if dir == Dir::Backward {
        return Ok(backward_compute(ctx, lane, at, grad_out, grads, false));
    }
    let fp = footprint(ctx, l, i, j);
    lane.alloc(fp.topology, "chunk topology")?;
    lane.alloc(fp.output, "layer output")?;
    lane.alloc(fp.intermediates, "intermediate data")?;
    if ctx.topology_upload_layer(l, j) {
        topology_upload(lane, at, topology_upload_bytes(ctx, i, j));
    }
    // Sources are resident: the phase barrier follows every GPU's load.
    neighbor_fetch(ctx, lane, at);
    let out = forward_numerics(ctx, lane, at);
    activation_store(ctx, lane, at, fp.checkpoint);
    // Everything the batch's load and this compute allocated.
    lane.free(fp.forward());
    Ok(out)
}

/// Pipelined compute on the compute stream. The forward write-back cost
/// is deferred to the copy-out drain one segment later; the data itself
/// is leader-applied this segment, exactly as in the phased schedule.
fn compute_pipelined(
    ctx: &StepCtx,
    lane: &mut GpuLane,
    dir: Dir,
    at: At,
    grad_out: &Matrix,
    grads: Option<&mut LayerGrads>,
) -> Computed {
    lane.set_stream(StreamId::Compute.id());
    if dir == Dir::Backward {
        return backward_compute(ctx, lane, at, grad_out, grads, true);
    }
    // Source slots were filled a segment earlier (barrier-ordered).
    neighbor_fetch(ctx, lane, at);
    let out = forward_numerics(ctx, lane, at);
    reuse_handoff(ctx, lane, at);
    out
}

/// The backward compute both modes share; `handoff` adds the pipelined
/// mode's reuse hand-off, which follows the recompute path's neighbor
/// reload (the hybrid path reloads no neighbor rows).
fn backward_compute(
    ctx: &StepCtx,
    lane: &mut GpuLane,
    at: At,
    grad_out: &Matrix,
    grads: Option<&mut LayerGrads>,
    handoff: bool,
) -> Computed {
    let grads = grads.expect("a backward sweep carries parameter gradients");
    let recompute = !ctx.checkpointed(at.l);
    if recompute {
        neighbor_fetch(ctx, lane, at);
    }
    let rows = backward_numerics(ctx, lane, at, grad_out, grads);
    if recompute && handoff {
        reuse_handoff(ctx, lane, at);
    }
    gradient_push(ctx, lane, at);
    Computed { rows, agg: None }
}

/// Phased drain (backward only): every push into this GPU's gradient
/// buffer landed before the phase barrier, so evict to the host store
/// and release what the batch's load allocated.
fn drain_phased(ctx: &StepCtx, lane: &mut GpuLane, dir: Dir, at: At) {
    assert_eq!(
        dir,
        Dir::Backward,
        "the phased forward compute writes back on its own"
    );
    gradient_flush(ctx, lane, at);
    lane.free(footprint(ctx, at.l, at.i, at.j).backward());
}

/// Pipelined drain on the copy-out stream, one segment behind the
/// compute: the forward write-back and checkpoint store, or the backward
/// gradient eviction (all pushes landed before the last batch barrier).
fn drain_pipelined(ctx: &StepCtx, lane: &mut GpuLane, dir: Dir, at: At) {
    lane.set_stream(StreamId::CopyOut.id());
    match dir {
        Dir::Forward => {
            let ckpt = footprint(ctx, at.l, at.i, at.j).checkpoint;
            activation_store(ctx, lane, at, ckpt);
        }
        Dir::Backward => gradient_flush(ctx, lane, at),
    }
}

/// Compute-stream hand-off of the ℕ^gpu rows batch `j` leaves behind for
/// batch `j + 1` (P2P+RU only): an in-place copy from the current slot
/// into the slot the copy-in stream is concurrently loading. The stream
/// wait orders it after that H2D — dropping the wait is exactly the
/// eager-refill write/read race the schedule checker rejects.
fn reuse_handoff(ctx: &StepCtx, lane: &mut GpuLane, at: At) {
    let next = At {
        j: at.j + 1,
        bufs: BatchBufs::Slot(at.j + 1),
        ..at
    };
    if next.j >= ctx.counts.n {
        return;
    }
    if let Some(reused) = ctx.reused_rows(next.i, next.j) {
        lane.stream_wait(StreamId::CopyIn.id());
        reuse_in_place(ctx, lane, next, at.bufs, reused);
    }
}

// ============================= emitters =============================

/// Streams batch `j`'s `bytes`-byte topology to the device (once per
/// epoch, reused across layers).
fn topology_upload(lane: &mut GpuLane, at: At, bytes: usize) {
    let At { i, j, .. } = at;
    lane.tag([Access::write(topology(i), chunk_region(i, j))]);
    lane.h2d(bytes);
}

/// The host half of loading `h^l_{N_ij}` (Algorithm 2 phase A): PCIe
/// loads of the rows this GPU is responsible for. The inter-GPU half is
/// [`neighbor_fetch`], after the barrier.
///
/// At layer 0 the frozen hot-vertex cache table applies: `hits` rows of
/// the scheduled load are already resident in HBM and skip PCIe (an HBM
/// copy instead); `installs > 0` means rows loaded now become resident
/// at sweep end, so the install write rides the load's own H2D event.
/// Provenance row totals stay the *full* schedule either way — the cache
/// changes how rows arrive, never how many the dataflow ledger moves.
fn host_load(ctx: &StepCtx, lane: &mut GpuLane, at: At) {
    let At { l, i, j, bufs } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let batch = &ctx.counts.batches[j];
    let row = ctx.row(l);
    let cs = ctx.cache_stats(l, i, j);
    // Rows this GPU loads over PCIe.
    let loaded = match ctx.config.comm {
        // The full neighbor set.
        CommMode::Vanilla => chunk.num_neighbors(),
        // The transition subset this GPU owns.
        CommMode::P2p => batch.transition[i],
        // §6-accurate accounting from the in-place buffer plan: every
        // merged-buffer resident row — whether it originally arrived
        // over PCIe or NVLink — is reused in place across adjacent
        // batches; only genuinely new rows move.
        CommMode::P2pRu => ctx.buffer_comm(i, j).h2d_rows,
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
    lane.tag(acc);
    if vanilla {
        // Rows whose owner partition sits on the other socket cross the
        // QPI link (partitions map to sockets pairwise).
        let sockets = lane.config().num_sockets;
        let remote = remote_socket_rows(&batch.fetch[i], i, ctx.plan.m, sockets);
        lane.h2d_mixed((loaded - cs.hits) * row, (remote - cs.remote_hits) * row);
    } else {
        lane.h2d((loaded - cs.hits) * row);
    }
    if cs.hits > 0 {
        lane.tag([Access::read(dev_cache(i), Region::All)]);
        lane.reuse(cs.hits * row);
    }
}

/// Promotes the `rows` ℕ^gpu rows batch `j - 1` left resident in `from`
/// into batch `j`'s buffer, in place.
fn reuse_in_place(ctx: &StepCtx, lane: &mut GpuLane, at: At, from: BatchBufs, rows: usize) {
    let At { l, i, j, bufs } = at;
    let prev = Access::read(from.rep(i), Region::Owned);
    lane.tag([
        if j > 0 {
            prev.with_gen(j as u32 - 1)
        } else {
            prev
        },
        Access::write(bufs.rep(i), Region::Owned)
            .with_gen(j as u32)
            .with_prov(Provenance::new(ContribKind::Reuse, l, j).rows(rows)),
    ]);
    lane.reuse(rows * ctx.row(l));
}

/// The inter-GPU half of loading `h^l_{N_ij}` (Algorithm 2 phase B):
/// fetch remote transition rows into GPU `i`'s merged buffer. Must run
/// after a barrier that follows every source GPU's host load (otherwise
/// the schedule checker reports a W→R race).
fn neighbor_fetch(ctx: &StepCtx, lane: &mut GpuLane, at: At) {
    let At { l, i, j, bufs } = at;
    if ctx.config.comm == CommMode::Vanilla {
        return;
    }
    let row = ctx.row(l);
    for k in 0..ctx.plan.m {
        let rows = match ctx.config.comm {
            CommMode::P2pRu => ctx.buffer_comm(i, j).d2d_rows[k],
            _ => ctx.counts.batches[j].fetch[i][k],
        };
        if k != i && rows > 0 {
            // Interleaved schedule: charged to the pulling GPU only.
            lane.tag([
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
            lane.d2d(rows * row);
            if !ctx.config.interleaved {
                // Naive schedule: the serving GPU stalls too (deferred to
                // the join when running on a per-GPU shard).
                lane.source_stall(k, rows * row);
            }
        }
    }
}

/// The forward numerics of chunk `(i, j)` at layer `l` and their dense
/// and edge FLOPs. The aggregate is kept only where it is checkpointed.
fn forward_numerics(ctx: &StepCtx, lane: &mut GpuLane, at: At) -> Computed {
    let At { l, i, j, bufs } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let f: LayerForward = ctx.numerics.forward(l, chunk);
    let flops = ctx.model.layer(l).forward_flops(chunk);
    lane.tag([
        Access::read(bufs.rep(i), Region::All)
            .with_prov(Provenance::new(ContribKind::Aggregate, l, j).rows(chunk.num_neighbors())),
        Access::read(topology(i), chunk_region(i, j)),
    ]);
    lane.gpu_dense(flops.dense);
    lane.gpu_edge(flops.edge);
    Computed {
        rows: f.out,
        agg: f.agg.filter(|_| ctx.checkpointed(l)),
    }
}

/// Cost of writing back `h^{l+1}_{V_ij}` (Alg 1 line 9) and, on the
/// hybrid path, of storing the `ckpt`-byte aggregate checkpoint. The
/// data itself travels in [`Computed`].
fn activation_store(ctx: &StepCtx, lane: &mut GpuLane, at: At, ckpt: Option<usize>) {
    let At { l, i, j, .. } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let dests = chunk.num_dests();
    lane.tag([Access::write(rep(l + 1), chunk_region(i, j)).with_prov(
        Provenance::new(ContribKind::ActStore, l + 1, j)
            .owned_by(i)
            .rows(dests),
    )]);
    lane.d2h(dests * ctx.model.layer(l).out_dim() * F32);
    if let Some(bytes) = ckpt {
        lane.tag([Access::write(agg_slot(l, i, j), Region::All).with_prov(
            Provenance::new(ContribKind::CkptStore, l, j)
                .owned_by(i)
                .rows(dests),
        )]);
        lane.d2h(bytes);
    }
}

/// Loads `∇h^{l+1}_{V_ij}` from the host store (Alg 1 line 16).
fn grad_out_load(ctx: &StepCtx, lane: &mut GpuLane, at: At) -> Matrix {
    let At { l, i, j, .. } = at;
    let chunk = &ctx.plan.chunks[i][j];
    let out_dim = ctx.model.layer(l).out_dim();
    lane.tag([Access::read(grad(l + 1), Region::All)]);
    lane.h2d(chunk.num_dests() * out_dim * F32);
    ctx.numerics.grad_out(l, chunk)
}

/// Reloads the `bytes`-byte cached aggregate (O(|V_ij|) H2D).
fn checkpoint_reload(ctx: &StepCtx, lane: &mut GpuLane, at: At, bytes: usize) {
    let At { l, i, j, .. } = at;
    lane.tag([Access::read(agg_slot(l, i, j), Region::All).with_prov(
        Provenance::new(ContribKind::CkptReload, l, j)
            .owned_by(i)
            .rows(ctx.plan.chunks[i][j].num_dests()),
    )]);
    lane.h2d(bytes);
}

/// Recompute + gradient numerics of chunk `(i, j)` at layer `l`
/// (Algorithm 3) and their FLOPs: UPDATE-only recompute from the cached
/// aggregate on the hybrid path, a full re-forward from the reloaded
/// neighbor rows otherwise. Neighbor gradients land in the merged
/// transition-gradient buffer via atomic accumulation, which commutes
/// with remote pushes arriving during the same phase. Returns
/// `∇h^l_{N_ij}` for the leader to accumulate into the host store.
fn backward_numerics(
    ctx: &StepCtx,
    lane: &mut GpuLane,
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
        CommMode::P2p | CommMode::P2pRu => ctx.counts.batches[j].fetch[i][i],
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
        lane.tag([topo, acc]);
        lane.gpu_dense(fwd.dense); // UPDATE recompute
    } else {
        lane.tag([
            Access::read(bufs.rep(i), Region::All).with_prov(
                Provenance::new(ContribKind::Aggregate, l, j).rows(chunk.num_neighbors()),
            ),
            topo,
            acc,
        ]);
        lane.gpu_dense(fwd.dense); // full re-forward
        lane.gpu_edge(fwd.edge);
    }
    lane.gpu_dense(bwd.dense);
    lane.gpu_edge(bwd.edge);
    ctx.numerics.backward(l, chunk, hybrid, grad_out, grads)
}

/// The inter-GPU gradient pushes of Algorithm 3: remote transition-vertex
/// gradients are atomically added into the owning GPUs' merged gradient
/// buffers (time charged to the pusher).
fn gradient_push(ctx: &StepCtx, lane: &mut GpuLane, at: At) {
    let At { l, i, j, bufs } = at;
    if ctx.config.comm == CommMode::Vanilla {
        return;
    }
    let row = ctx.row(l);
    let fetch = &ctx.counts.batches[j].fetch[i];
    for k in 0..ctx.plan.m {
        if k != i && fetch[k] > 0 {
            lane.tag([Access::accum(bufs.grad(k), Region::All)
                .with_gen(j as u32)
                .with_prov(
                    Provenance::new(ContribKind::GradPush, l, j)
                        .owned_by(k)
                        .from_gpu(i)
                        .rows(fetch[k]),
                )]);
            lane.d2d(fetch[k] * row);
            lane.gpu_edge((fetch[k] * row / F32) as f64);
        }
    }
}

/// The gradient eviction of Algorithm 3: accumulated chunk gradients
/// leave the GPU over PCIe and are added into the host store `∇h^l`.
/// Must run after a barrier that follows every remote push into this
/// GPU's buffer.
fn gradient_flush(ctx: &StepCtx, lane: &mut GpuLane, at: At) {
    let At { l, i, j, bufs } = at;
    let batch = &ctx.counts.batches[j];
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
        let sockets = lane.config().num_sockets;
        let remote = remote_socket_rows(&batch.fetch[i], i, ctx.plan.m, sockets);
        lane.tag([flush(rows)]);
        lane.d2h_mixed(rows * row, remote * row);
        // Replica gradients of the full neighbor set overlap across
        // GPUs; host-side accumulation commutes.
        lane.tag([Access::accum(grad(l), Region::All)]);
        lane.cpu_accumulate(rows * row);
        return;
    }
    // Evicted transition gradients go D2H and are accumulated on the
    // CPU; under P2P+RU the rows the next batch reuses stay resident.
    let next_reused = if ctx.config.comm == CommMode::P2pRu && j + 1 < ctx.counts.n {
        ctx.counts.batches[j + 1].reused[i]
    } else {
        0
    };
    let evicted = batch.transition[i] - next_reused;
    lane.tag([flush(evicted)]);
    lane.d2h(evicted * row);
    // Each GPU evicts its owned transition partition — disjoint slices
    // of the host store.
    lane.tag([Access::accum(grad(l), Region::Part(i as u32))]);
    lane.cpu_accumulate(evicted * row);
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
    fn bucket_delta_subtracts_componentwise() {
        let before = TimeBuckets {
            h2d: 1.0,
            gpu: 2.0,
            bytes_h2d: 100,
            ..Default::default()
        };
        let now = TimeBuckets {
            h2d: 3.0,
            gpu: 2.5,
            bytes_h2d: 150,
            ..Default::default()
        };
        let d = delta(now, before);
        assert_eq!(d.h2d, 2.0);
        assert_eq!(d.gpu, 0.5);
        assert_eq!(d.bytes_h2d, 50);
    }

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
