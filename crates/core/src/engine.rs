//! The HongTu execution engine (paper Algorithm 1), structured as a
//! [`Session`] — graph, partition/dedup/staging plans, host store, and
//! the simulated machine, built and validated **once** — from which two
//! executors borrow:
//!
//! - [`Trainer`] / [`Session::train_epoch_with`]: the full
//!   forward/backward training loop of Algorithm 1;
//! - [`Inferencer`] / [`Session::infer_epoch`]: the forward-only
//!   serving path — layer-wise full-graph inference over the same plans,
//!   with no checkpoint stores and no gradient state.
//!
//! [`HongTuEngine`] remains as a thin owning facade over a `Session`
//! plus persistent optimizer state, so existing call sites keep working.
//!
//! Vertex representations `h^l` and gradients `∇h^l` for **every** layer
//! live in (pinned) CPU memory; each simulated GPU holds, at any moment,
//! one layer × one chunk of training data. Per batch the engine:
//!
//! - loads neighbor representations through the **deduplicated
//!   communication framework** (Algorithm 2): host→GPU for `ℕ^cpu`,
//!   in-place reuse for `ℕ^gpu`, inter-GPU fetches for remote transition
//!   rows;
//! - runs the real forward/backward numerics of the chunk (hongtu-nn),
//!   charging dense and edge FLOPs to the simulator;
//! - in the backward pass, reloads the strategy-dependent checkpoint
//!   (neighbor reps for **recomputation**, the cached aggregate for the
//!   **hybrid** path), pushes neighbor gradients over inter-GPU links, and
//!   accumulates evicted gradients on the CPU (Algorithm 3).
//!
//! Because the numerics are identical to single-device full-graph training
//! (only the *pricing* of data movement differs), the engine's loss curve
//! matches the reference trainer bit-for-bit apart from f32 summation
//! order.

use crate::buffers::GpuBufferPlan;
use crate::cost::CommVolumes;
use crate::dedup::DedupPlan;
use crate::reorg::reorganize_guarded_cached;
use crate::serve::{ServeMask, ServeReport};
use hongtu_cache::{
    load_sets, CachePlan, CachePolicy, CacheRuntime, HitStats, LoadPattern, Off as CacheOff,
};
use hongtu_datasets::Dataset;
use hongtu_delta::{Delta, DynamicGraph, StagedCommit};
use hongtu_graph::Graph;
use hongtu_nn::{
    masked_cross_entropy, GnnLayer, GnnModel, LayerForward, LayerGrads, MaskedLoss, ModelKind,
};
use hongtu_partition::{ChunkSubgraph, TwoLevelPartition};
use hongtu_sim::{
    Access, BarrierScope, ContribKind, Machine, MachineConfig, Provenance, Region, ResourceId,
    SimError, TimeBuckets, Timeline, Trace,
};
pub use hongtu_stream::OverlapMode;
use hongtu_stream::{grad_slot, pipeline, rep_slot, StagingPlan, StreamId};
use hongtu_tensor::{Adam, Matrix, SeededRng};
use hongtu_verify::Report;
pub use hongtu_verify::ValidationLevel;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

const F32: usize = std::mem::size_of::<f32>();

/// Which duplicated-neighbor optimizations are active (§7.3 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// Transfer each chunk's full neighbor set host→GPU (the DeepSpeed-like
    /// baseline of Figure 9).
    Vanilla,
    /// Inter-GPU deduplication only (`+P2P`).
    P2p,
    /// Inter-GPU deduplication and intra-GPU reuse (`+RU`, full HongTu).
    P2pRu,
}

/// Intermediate-data management strategy (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryStrategy {
    /// Pure recomputation: backward reloads layer inputs and recomputes the
    /// whole forward pass of the layer.
    Recompute,
    /// Recomputation-caching hybrid: layers whose AGGREGATE has no edge
    /// intermediates checkpoint the aggregate to CPU and skip AGGREGATE
    /// recomputation; others fall back to recomputation.
    Hybrid,
}

/// How the engine drives the m simulated GPUs of each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One thread charges every GPU's work in program order — the
    /// reference schedule, cheapest for tiny graphs.
    Sequential,
    /// One worker thread per simulated GPU on the `hongtu-parallel`
    /// work-stealing pool, joined at the same phase/batch barriers the
    /// sequential schedule uses. Losses, gradients, and simulated clocks
    /// are bitwise identical to `Sequential` (and for interleaved
    /// schedules the event trace is too); only host wall-clock changes.
    Parallel,
}

/// What a [`Session`] is built to run. The mode is fixed at construction
/// because it decides which host and device state exists at all:
/// inference sessions never allocate gradient stores, hybrid checkpoint
/// caches, or optimizer state, so their peak memory is strictly below an
/// otherwise-identical training session's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Full training: forward + backward + parameter update per epoch.
    #[default]
    Train,
    /// Forward-only serving: [`Session::infer_epoch`] produces per-vertex
    /// logits, skipping checkpoint stores and all gradient machinery.
    Infer,
}

/// Engine configuration.
///
/// Prefer [`HongTuConfig::builder`], which validates the configuration
/// before any expensive plan construction starts. Filling the struct
/// literally (or mutating a [`HongTuConfig::full`] preset) keeps working
/// but is a deprecated pattern: it skips validation, and new fields added
/// here will break literal construction at compile time.
#[derive(Debug, Clone)]
pub struct HongTuConfig {
    /// Communication optimizations.
    pub comm: CommMode,
    /// Intermediate-data strategy.
    pub memory: MemoryStrategy,
    /// Run Algorithm 4 partition reorganization during preprocessing.
    pub reorganize: bool,
    /// Simulated platform.
    pub machine: MachineConfig,
    /// Adam learning rate.
    pub lr: f32,
    /// Interleaved inter-GPU schedule (§6): stagger pulls so no two GPUs
    /// hit the same source in a time slot. When false, contended pulls
    /// also stall the source GPU (naive schedule).
    pub interleaved: bool,
    /// Static plan verification (`hongtu-verify`). The default, `Plan`,
    /// checks all four passes once at construction; `Paranoid` re-checks
    /// the graph-free passes every epoch and schedule-certifies each
    /// epoch's event trace.
    pub validation: ValidationLevel,
    /// Host-side execution of the per-GPU work. Does not change any
    /// simulated quantity — only how many OS threads drive the epoch.
    pub exec: ExecutionMode,
    /// Copy/compute overlap (`hongtu-stream`). `Off` charges the load,
    /// compute, and evict phases of a batch additively on the default
    /// stream; `DoubleBuffer` software-pipelines batches over statically
    /// allocated double-buffered staging, so transfers hide behind
    /// compute and each segment costs the max of its streams. Changes
    /// simulated time and peak memory, never results.
    pub overlap: OverlapMode,
    /// What the session built from this config runs: training (the
    /// default) or forward-only inference. Decides which state is
    /// allocated at construction and how staging is sized.
    pub mode: Mode,
    /// Hot-vertex feature-cache admission policy (`hongtu-cache`): ranks
    /// boundary vertices for the per-GPU HBM headroom left after every
    /// static allocation. [`hongtu_cache::Off`] (the default) disables
    /// caching; [`hongtu_cache::FrequencyRanked`] /
    /// [`hongtu_cache::DegreeRanked`] spend the headroom on the hottest
    /// layer-0 rows of the host-load schedule.
    pub cache: Arc<dyn CachePolicy>,
}

impl HongTuConfig {
    /// Full HongTu on the given machine: P2P + RU + hybrid + reorganization.
    pub fn full(machine: MachineConfig) -> Self {
        HongTuConfig {
            comm: CommMode::P2pRu,
            memory: MemoryStrategy::Hybrid,
            reorganize: true,
            machine,
            lr: 0.01,
            interleaved: true,
            validation: ValidationLevel::Plan,
            exec: ExecutionMode::Sequential,
            overlap: OverlapMode::Off,
            mode: Mode::Train,
            cache: Arc::new(CacheOff),
        }
    }

    /// The vanilla offloading baseline (Figure 9 "Baseline"): full neighbor
    /// transfer per chunk, hybrid caching enabled (as in §7.1's fair
    /// comparison), no reorganization.
    pub fn baseline(machine: MachineConfig) -> Self {
        HongTuConfig {
            comm: CommMode::Vanilla,
            memory: MemoryStrategy::Hybrid,
            reorganize: false,
            machine,
            lr: 0.01,
            interleaved: true,
            validation: ValidationLevel::Plan,
            exec: ExecutionMode::Sequential,
            overlap: OverlapMode::Off,
            mode: Mode::Train,
            cache: Arc::new(CacheOff),
        }
    }

    /// A validating builder starting from the full-HongTu defaults on a
    /// 4-GPU scaled machine:
    ///
    /// ```
    /// use hongtu_core::{HongTuConfig, Mode, OverlapMode};
    /// let cfg = HongTuConfig::builder()
    ///     .gpus(4)
    ///     .overlap(OverlapMode::DoubleBuffer)
    ///     .mode(Mode::Infer)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.machine.num_gpus, 4);
    /// ```
    pub fn builder() -> HongTuConfigBuilder {
        HongTuConfigBuilder::default()
    }
}

/// A [`HongTuConfig`] that failed [`HongTuConfigBuilder::build`]
/// validation, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid engine configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`HongTuConfig`] — the preferred construction path. Every
/// setter is chainable; [`HongTuConfigBuilder::build`] validates the
/// whole configuration and returns [`ConfigError`] instead of letting a
/// bad value surface later as a confusing plan or simulation failure.
///
/// The machine is either given whole via
/// [`HongTuConfigBuilder::machine`], or assembled from
/// [`HongTuConfigBuilder::gpus`] / [`HongTuConfigBuilder::gpu_mem_mb`]
/// (defaults: 4 GPUs × 256 MiB, the test-scale platform). Mixing the two
/// is rejected at `build()`.
#[derive(Debug, Clone, Default)]
pub struct HongTuConfigBuilder {
    machine: Option<MachineConfig>,
    gpus: Option<usize>,
    gpu_mem_mb: Option<usize>,
    comm: Option<CommMode>,
    memory: Option<MemoryStrategy>,
    reorganize: Option<bool>,
    lr: Option<f32>,
    interleaved: Option<bool>,
    validation: Option<ValidationLevel>,
    exec: Option<ExecutionMode>,
    overlap: Option<OverlapMode>,
    mode: Option<Mode>,
    cache: Option<Arc<dyn CachePolicy>>,
}

impl HongTuConfigBuilder {
    /// Use this simulated platform verbatim (incompatible with
    /// [`HongTuConfigBuilder::gpus`] / [`HongTuConfigBuilder::gpu_mem_mb`]).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Number of simulated GPUs of a scaled machine (default 4).
    pub fn gpus(mut self, gpus: usize) -> Self {
        self.gpus = Some(gpus);
        self
    }

    /// Device memory per simulated GPU in MiB (default 256).
    pub fn gpu_mem_mb(mut self, mb: usize) -> Self {
        self.gpu_mem_mb = Some(mb);
        self
    }

    /// Communication optimizations (default [`CommMode::P2pRu`]).
    pub fn comm(mut self, comm: CommMode) -> Self {
        self.comm = Some(comm);
        self
    }

    /// Intermediate-data strategy (default [`MemoryStrategy::Hybrid`]).
    pub fn memory(mut self, memory: MemoryStrategy) -> Self {
        self.memory = Some(memory);
        self
    }

    /// Run Algorithm 4 partition reorganization (default true; ignored —
    /// as in the struct path — when comm is [`CommMode::Vanilla`]).
    pub fn reorganize(mut self, reorganize: bool) -> Self {
        self.reorganize = Some(reorganize);
        self
    }

    /// Adam learning rate (default 0.01). Must be finite and positive.
    pub fn lr(mut self, lr: f32) -> Self {
        self.lr = Some(lr);
        self
    }

    /// Interleaved inter-GPU pull schedule (default true).
    pub fn interleaved(mut self, interleaved: bool) -> Self {
        self.interleaved = Some(interleaved);
        self
    }

    /// Static plan verification level (default [`ValidationLevel::Plan`]).
    pub fn validation(mut self, validation: ValidationLevel) -> Self {
        self.validation = Some(validation);
        self
    }

    /// Host-side execution mode (default [`ExecutionMode::Sequential`]).
    pub fn exec(mut self, exec: ExecutionMode) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Copy/compute overlap (default [`OverlapMode::Off`]).
    pub fn overlap(mut self, overlap: OverlapMode) -> Self {
        self.overlap = Some(overlap);
        self
    }

    /// Session mode (default [`Mode::Train`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Shorthand for `.mode(Mode::Infer)`.
    pub fn infer(self) -> Self {
        self.mode(Mode::Infer)
    }

    /// Hot-vertex feature-cache admission policy (default
    /// [`hongtu_cache::Off`] — no caching). Pass
    /// `Arc::new(FrequencyRanked)` or `Arc::new(DegreeRanked)` to spend
    /// the per-GPU HBM headroom on hot layer-0 rows.
    pub fn cache(mut self, policy: Arc<dyn CachePolicy>) -> Self {
        self.cache = Some(policy);
        self
    }

    /// Validates and assembles the configuration.
    pub fn build(self) -> Result<HongTuConfig, ConfigError> {
        if self.machine.is_some() && (self.gpus.is_some() || self.gpu_mem_mb.is_some()) {
            return Err(ConfigError(
                "set either machine(..) or gpus(..)/gpu_mem_mb(..), not both".to_string(),
            ));
        }
        let machine = match self.machine {
            Some(m) => m,
            None => {
                let gpus = self.gpus.unwrap_or(4);
                let mb = self.gpu_mem_mb.unwrap_or(256);
                if gpus == 0 {
                    return Err(ConfigError("gpus must be at least 1".to_string()));
                }
                if mb == 0 {
                    return Err(ConfigError("gpu_mem_mb must be positive".to_string()));
                }
                MachineConfig::scaled(gpus, mb << 20)
            }
        };
        if machine.num_gpus == 0 {
            return Err(ConfigError("machine has no GPUs".to_string()));
        }
        if machine.gpu_memory == 0 {
            return Err(ConfigError("machine GPUs have no memory".to_string()));
        }
        let lr = self.lr.unwrap_or(0.01);
        if !lr.is_finite() || lr <= 0.0 {
            return Err(ConfigError(format!(
                "learning rate must be finite and positive, got {lr}"
            )));
        }
        Ok(HongTuConfig {
            comm: self.comm.unwrap_or(CommMode::P2pRu),
            memory: self.memory.unwrap_or(MemoryStrategy::Hybrid),
            reorganize: self.reorganize.unwrap_or(true),
            machine,
            lr,
            interleaved: self.interleaved.unwrap_or(true),
            validation: self.validation.unwrap_or(ValidationLevel::Plan),
            exec: self.exec.unwrap_or(ExecutionMode::Sequential),
            overlap: self.overlap.unwrap_or(OverlapMode::Off),
            mode: self.mode.unwrap_or(Mode::Train),
            cache: self.cache.unwrap_or_else(|| Arc::new(CacheOff)),
        })
    }
}

/// Converts a failed verification report into the engine error.
fn invalid_plan(report: &Report) -> SimError {
    let code = report
        .first()
        .map(|d| d.code.code().to_string())
        .unwrap_or_default();
    SimError::InvalidPlan {
        code,
        message: report.render(),
    }
}

/// Derives the dedup plan and — for the P2pRu executor, and for the
/// verifier in every mode — the merged-buffer index plans of §6 from
/// `plan`, then, unless validation is off, statically verifies the whole
/// plan against `g` (passes 1–4): the engine refuses to run a corrupt
/// plan. Shared by session construction and the delta-rebuild path.
fn derive_plans(
    plan: &TwoLevelPartition,
    g: &Graph,
    config: &HongTuConfig,
) -> Result<(DedupPlan, Option<Vec<GpuBufferPlan>>), SimError> {
    let dedup = DedupPlan::build(plan);
    let bufplans = if config.validation != ValidationLevel::Off || config.comm == CommMode::P2pRu {
        Some(GpuBufferPlan::build_all(plan, &dedup))
    } else {
        None
    };
    if config.validation != ValidationLevel::Off {
        let report = hongtu_verify::verify_all(g, plan, &dedup, bufplans.as_deref().unwrap_or(&[]));
        if !report.is_ok() {
            return Err(invalid_plan(&report));
        }
    }
    Ok((dedup, bufplans))
}

/// Derives the §6-accurate per-(GPU, batch) communication table of the
/// P2P+RU executor from the merged in-place buffer plans: rows the owner
/// loads host→GPU, rows fetched from each remote GPU, rows reused in
/// place, and the resident buffer capacity. `None` in every other comm
/// mode. Shared by session construction and the incremental
/// delta-rebuild path ([`Session::apply_deltas`]).
fn build_buffer_comm(
    plan: &TwoLevelPartition,
    bufplans: Option<&[GpuBufferPlan]>,
    comm: CommMode,
) -> Option<Vec<Vec<BatchComm>>> {
    if comm != CommMode::P2pRu {
        return None;
    }
    let owner = &plan.assignment.partition_of;
    let per_gpu = bufplans
        .expect("buffer plans built for P2pRu")
        .iter()
        .map(|bp| {
            bp.batches
                .iter()
                .map(|b| {
                    let mut h2d_rows = 0usize;
                    let mut d2d_rows = vec![0usize; plan.m];
                    for &(t, _) in &b.incoming {
                        let v = b.merged[t as usize] as usize;
                        let o = owner[v] as usize;
                        if o == bp.gpu {
                            h2d_rows += 1;
                        } else {
                            d2d_rows[o] += 1;
                        }
                    }
                    BatchComm {
                        h2d_rows,
                        d2d_rows,
                        reused_rows: b.reused(),
                        buffer_rows: bp.capacity,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    Some(per_gpu)
}

/// Converts a failed trace-certification report into the engine error.
fn invalid_schedule(report: &Report) -> SimError {
    let code = report
        .first()
        .map(|d| d.code.code().to_string())
        .unwrap_or_default();
    SimError::InvalidSchedule {
        code,
        message: report.render(),
    }
}

/// Annotation helpers: the logical resources of §4–§6 as seen by the
/// schedule checker.
fn rep(layer: usize) -> ResourceId {
    ResourceId::Rep {
        layer: layer as u32,
    }
}
fn grad(layer: usize) -> ResourceId {
    ResourceId::Grad {
        layer: layer as u32,
    }
}
fn dev_rep(gpu: usize) -> ResourceId {
    ResourceId::DevRep { gpu: gpu as u32 }
}
fn dev_grad(gpu: usize) -> ResourceId {
    ResourceId::DevGrad { gpu: gpu as u32 }
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

/// Result of one training epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Training loss/accuracy of this epoch.
    pub loss: MaskedLoss,
    /// Simulated epoch time in seconds (critical path over GPUs).
    pub time: f64,
    /// Per-component simulated time/volume.
    pub buckets: TimeBuckets,
}

/// Result of one forward-only inference epoch
/// ([`Session::infer_epoch`]).
#[derive(Debug, Clone)]
pub struct InferReport {
    /// Per-vertex logits `h^L` — the full-graph inference output.
    pub logits: Matrix,
    /// Simulated epoch time in seconds (critical path over GPUs).
    pub time: f64,
    /// Per-component simulated time/volume.
    pub buckets: TimeBuckets,
    /// High-water device memory across GPUs, in bytes, including the
    /// session's static allocations (params, staging).
    pub peak_gpu_bytes: usize,
    /// High-water host memory in bytes (the layer stores `h^l`; no
    /// gradient or checkpoint buffers exist on an inference session).
    pub peak_host_bytes: usize,
}

/// Result of one committed delta batch ([`Session::apply_deltas`]):
/// the mutated graph's post-commit logits plus what the incremental
/// replay cost relative to a full sweep.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// The [`hongtu_delta::DynamicGraph`] epoch the commit produced.
    pub epoch: u64,
    /// Full per-vertex logits `h^L` after the in-place patch — bitwise
    /// equal to a from-scratch [`Session::infer_epoch`] on the mutated
    /// graph.
    pub logits: Matrix,
    /// Simulated replay time in seconds (critical path over GPUs).
    pub time: f64,
    /// Per-component simulated time/volume of the replay.
    pub buckets: TimeBuckets,
    /// High-water device memory across GPUs, in bytes.
    pub peak_gpu_bytes: usize,
    /// High-water host memory in bytes.
    pub peak_host_bytes: usize,
    /// `(layer, batch)` steps the replay executed.
    pub active_steps: usize,
    /// `(layer, batch)` steps a full sweep would have executed.
    pub total_steps: usize,
    /// Dirty `h^1` seed vertices the batch invalidated.
    pub dirty_vertices: usize,
    /// Chunk subgraphs rebuilt against the mutated topology.
    pub rebuilt_chunks: usize,
}

/// Static peak-memory bound per tier, derived from the plans alone
/// ([`Session::static_memory_bound`]). Dominates the simulator's measured
/// peaks ([`Machine::max_gpu_peak`], host tracker) on every configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticMemoryBound {
    /// Per-GPU device bound in bytes (params + optimizer state + staging
    /// or worst per-batch footprint).
    pub gpu: Vec<usize>,
    /// Host bound in bytes (layer stores, gradient stores, hybrid
    /// aggregate cache).
    pub host: usize,
}

/// Borrowed view of every precomputed artifact a [`Session`] executes —
/// the unified plan surface ([`Session::plans`]). Prefer this over the
/// individual getters (`plan()`, `dedup_plan()`, `staging_plans()`),
/// which predate the cache subsystem and are deprecated.
#[derive(Clone, Copy)]
pub struct Plans<'a> {
    /// The 2-level partition (§4.1).
    pub partition: &'a TwoLevelPartition,
    /// The dedup communication plan (§5.1–5.2).
    pub dedup: &'a DedupPlan,
    /// Merged in-place buffer index plans (§6). Present whenever they
    /// were built: validation enabled, or P2P+RU communication.
    pub buffers: Option<&'a [GpuBufferPlan]>,
    /// Pinned double-buffered staging (`DoubleBuffer` overlap only).
    pub staging: Option<&'a [StagingPlan]>,
    /// The admitted hot-vertex cache plan (`None` when the policy is
    /// off or nothing fit the headroom).
    pub cache: Option<&'a CachePlan>,
}

/// Plan-level preprocessing artifacts and their modeled cost.
#[derive(Debug, Clone)]
pub struct Preprocessing {
    /// Communication volumes of the final plan.
    pub volumes: CommVolumes,
    /// Modeled preprocessing seconds (Table 9 "Preprocessing" row).
    pub seconds: f64,
}

/// Per-(GPU, batch) communication breakdown derived from the in-place
/// buffer plan (§6): rows loaded from the CPU, rows fetched from each
/// remote GPU, rows reused in place, and the resident buffer size.
#[derive(Debug, Clone)]
struct BatchComm {
    h2d_rows: usize,
    d2d_rows: Vec<usize>,
    reused_rows: usize,
    buffer_rows: usize,
}

/// Immutable view of the engine state a per-GPU step needs, split off
/// from the engine so worker threads can share it while each thread
/// mutates its own [`GpuShard`]. Built with the [`ctx!`] macro, whose
/// field-by-field expansion gives the borrow checker disjoint borrows
/// alongside `&mut self.machine`.
struct StepCtx<'a> {
    plan: &'a TwoLevelPartition,
    dedup: &'a DedupPlan,
    buffer_comm: Option<&'a [Vec<BatchComm>]>,
    model: &'a GnnModel,
    comm: CommMode,
    /// Whether hybrid aggregate checkpoints are in play for this epoch:
    /// true only for a *training* epoch under
    /// [`MemoryStrategy::Hybrid`]. Inference epochs never store (or
    /// reload) checkpoints, whatever the configured strategy.
    checkpoint: bool,
    interleaved: bool,
    /// Schedule-synthesis backend: when set, the step functions charge
    /// every transfer/compute event and carry every access annotation
    /// exactly as in a real epoch, but replace the layer numerics with
    /// shape-preserving zero tensors. The emitted trace is therefore the
    /// executor's schedule, derived from the plans alone — no FLOP of
    /// real math runs. See [`Session::synthesize_schedule`].
    synth: bool,
    /// Serving sweep mask: when set, `(layer, batch)` steps outside the
    /// queried vertices' dependency cones are skipped (all GPUs of a
    /// batch skip together). `None` for full-graph epochs.
    mask: Option<&'a ServeMask>,
    /// Hot-vertex feature-cache runtime, with its hit table frozen for
    /// the sweep in flight. `None` when the cache policy is off or
    /// admitted nothing.
    cache: Option<&'a CacheRuntime>,
    h: &'a [Matrix],
    grad_h: &'a [Matrix],
    agg_cache: &'a [Vec<Vec<Option<Matrix>>>],
}

impl StepCtx<'_> {
    /// Whether the serving mask prunes batch `j` at layer `l` (absent
    /// mask = full sweep, nothing pruned).
    fn pruned(&self, l: usize, j: usize) -> bool {
        self.mask.is_some_and(|m| !m.active(l, j))
    }

    /// Whether batch `j`'s in-place ℕ^gpu reuse at layer `l` has a live
    /// predecessor: the rows are deposited by batch `j - 1`, so under a
    /// serving mask they are only resident if `j - 1` ran at this layer.
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
    /// whenever the batch is active at all (so serving behavior is
    /// unchanged), but the upward-closed delta-replay cones may first
    /// activate a batch above layer 0 — uploading only at `l == 0` would
    /// leave its topology reads dangling.
    fn topology_upload_layer(&self, l: usize, j: usize) -> bool {
        match self.mask {
            None => l == 0,
            Some(m) => m.active(l, j) && !(0..l).any(|k| m.active(k, j)),
        }
    }

    /// Frozen cache hit table entry for the layer-0 host load of batch
    /// `j` on GPU `i`. Zero for every layer above 0 (only `h^0` rows are
    /// cached) and whenever no cache runtime is installed or sweeping.
    fn cache_stats(&self, l: usize, i: usize, j: usize) -> HitStats {
        if l != 0 {
            return HitStats::default();
        }
        self.cache.map(|c| c.stats(i, j)).unwrap_or_default()
    }
}

/// Builds a [`StepCtx`] from `&self` via direct field expressions, so the
/// engine's `machine` field stays independently borrowable as `&mut`.
macro_rules! ctx {
    ($engine:expr) => {
        StepCtx {
            plan: &$engine.plan,
            dedup: &$engine.dedup,
            buffer_comm: $engine.buffer_comm.as_deref(),
            model: &$engine.model,
            comm: $engine.config.comm,
            checkpoint: $engine.run_mode == Mode::Train
                && $engine.config.memory == MemoryStrategy::Hybrid,
            interleaved: $engine.config.interleaved,
            synth: $engine.synth,
            mask: $engine.serve_mask.as_ref(),
            cache: $engine.cache.as_ref(),
            h: &$engine.h,
            grad_h: &$engine.grad_h,
            agg_cache: &$engine.agg_cache,
        }
    };
}

/// A validated HongTu execution session: the dataset-derived plans
/// (two-level partition, dedup transition sets, §6 buffer plans,
/// staging), the host-resident stores, the model replica, and the
/// simulated machine — everything both executors share, built and
/// verified **once**.
///
/// A session is constructed for one [`Mode`]:
///
/// - [`Mode::Train`] sessions additionally hold the gradient stores
///   `∇h^l`, the hybrid checkpoint cache, and device space for optimizer
///   state; drive them with [`Session::trainer`] (or the
///   [`HongTuEngine`] facade).
/// - [`Mode::Infer`] sessions allocate none of that — their peak host
///   and device memory is strictly below the training session's — and
///   are driven with [`Session::inferencer`].
pub struct Session {
    config: HongTuConfig,
    /// The [`Mode`] of the epoch currently (or last) running. Equal to
    /// `config.mode` except that step functions read it through
    /// [`StepCtx`] to gate checkpoint stores, keeping the forward steps
    /// shared between both executors.
    run_mode: Mode,
    machine: Machine,
    plan: TwoLevelPartition,
    dedup: DedupPlan,
    /// `buffer_comm[i][j]`: §6-accurate communication plan (P2P+RU mode).
    buffer_comm: Option<Vec<Vec<BatchComm>>>,
    /// Buffer index plans, retained whenever they were built at all
    /// (validation on, or P2P+RU comm): the [`Plans`] view, `Paranoid`
    /// per-epoch re-checks, and the cache/serving budget arithmetic all
    /// read them instead of rebuilding.
    bufplans: Option<Vec<GpuBufferPlan>>,
    /// Per-GPU double-buffered staging sizes (`DoubleBuffer` overlap
    /// only; the buffers themselves are resident on the machine).
    staging: Option<Vec<StagingPlan>>,
    /// Hot-vertex layer-0 feature cache ([`hongtu_cache`]): admission
    /// plan, residency bitmaps, and the journal pass 11 certifies.
    /// `None` when the configured policy is off or admitted nothing.
    cache: Option<CacheRuntime>,
    model: GnnModel,
    labels: Vec<u32>,
    train_mask: Vec<bool>,
    /// `h[l]`: host-resident layer representations (`h[0]` = features).
    h: Vec<Matrix>,
    /// `∇h[l]`: host-resident gradient buffers ([`Mode::Train`] only;
    /// empty matrices on an inference session).
    grad_h: Vec<Matrix>,
    /// `agg_cache[l][i][j]`: hybrid checkpoints (host-resident).
    agg_cache: Vec<Vec<Vec<Option<Matrix>>>>,
    preprocessing: Preprocessing,
    epochs_run: usize,
    /// True only on the throwaway clone driven by
    /// [`Session::synthesize_schedule`]: step functions skip the layer
    /// numerics and emit shape-identical placeholder tensors instead.
    synth: bool,
    /// Installed for the duration of a [`Session::serve`] sweep: the
    /// per-(layer, batch) activity mask the step functions prune by.
    /// `None` between serves and on full-graph epochs.
    serve_mask: Option<ServeMask>,
}

impl Session {
    /// Builds the session: partitions the graph (`m` = machine GPU count,
    /// `n` chunks per partition), optionally reorganizes, allocates host
    /// buffers, and replicates model parameters to every simulated GPU.
    pub fn new(
        dataset: &Dataset,
        kind: ModelKind,
        hidden: usize,
        layers: usize,
        n_chunks: usize,
        config: HongTuConfig,
    ) -> Result<Self, SimError> {
        let plan = TwoLevelPartition::build(
            &dataset.graph,
            config.machine.num_gpus,
            n_chunks,
            dataset.seed,
        );
        Self::with_plan(dataset, kind, hidden, layers, plan, config)
    }

    /// Builds the session from a caller-supplied 2-level partition plan
    /// (e.g. from a custom partitioner). The plan's `m` must equal the
    /// machine's GPU count.
    pub fn with_plan(
        dataset: &Dataset,
        kind: ModelKind,
        hidden: usize,
        layers: usize,
        mut plan: TwoLevelPartition,
        config: HongTuConfig,
    ) -> Result<Self, SimError> {
        let mut machine = Machine::new(config.machine.clone());
        let m = machine.num_gpus();
        assert_eq!(
            plan.m, m,
            "plan has {} partitions but the machine has {m} GPUs",
            plan.m
        );
        let dims = dataset.model_dims(hidden, layers);
        let mut rng = SeededRng::new(dataset.seed ^ 0x686F6E67);
        let model = GnnModel::new(kind, &dims, &mut rng);

        // ---- preprocessing: reorganization ----
        if config.reorganize && config.comm != CommMode::Vanilla {
            // With a cache policy active, guide the cost guard with a
            // rough per-GPU row budget (half the device, in feature
            // rows). Exact admission happens below against the real
            // post-allocation headroom; the guard only needs the right
            // order of magnitude to rank candidate plans fairly.
            let row = dims[0] * F32;
            let budget = if config.cache.enabled() {
                config.machine.gpu_memory / 2 / row.max(1)
            } else {
                0
            };
            plan = reorganize_guarded_cached(plan, &config.machine, budget);
        }
        let (dedup, bufplans) = derive_plans(&plan, &dataset.graph, &config)?;

        // Full dedup mode plans the in-place merged buffers of §6, which
        // also lets reused rows skip the inter-GPU fetch.
        let buffer_comm = build_buffer_comm(&plan, bufplans.as_deref(), config.comm);
        let volumes = CommVolumes::from_plan(&dedup);
        // Modeled preprocessing cost: the heuristic streams every neighbor
        // list a handful of times (phase-1 intersections + index planning).
        let preprocess_flops = 8.0 * volumes.v_ori as f64 * (plan.n as f64).log2().max(1.0);
        let preprocessing = Preprocessing {
            volumes,
            seconds: preprocess_flops / config.machine.cpu_flops,
        };

        // ---- host buffers: h^l for every layer (Alg 1, line 3); ∇h^l
        // only exists on training sessions ----
        let train = config.mode == Mode::Train;
        let v = dataset.num_vertices();
        let mut h = Vec::with_capacity(dims.len());
        let mut grad_h = Vec::with_capacity(dims.len());
        for &d in &dims {
            machine.host_alloc(v * d * F32, "h^l")?;
            h.push(Matrix::zeros(v, d));
            if train {
                machine.host_alloc(v * d * F32, "grad h^l")?;
                grad_h.push(Matrix::zeros(v, d));
            } else {
                grad_h.push(Matrix::zeros(0, 0));
            }
        }
        h[0] = dataset.features.clone();

        // ---- hybrid checkpoint storage (training only: inference never
        // stores checkpoints, so the cache is dead weight) ----
        let l_count = model.num_layers();
        let mut agg_cache: Vec<Vec<Vec<Option<Matrix>>>> =
            vec![vec![vec![None; plan.n]; m]; l_count];
        if train && config.memory == MemoryStrategy::Hybrid {
            let mut cache_bytes = 0usize;
            for l in 0..l_count {
                for c in plan.all_chunks() {
                    cache_bytes += model.layer(l).agg_cache_bytes(c);
                }
            }
            machine.host_alloc(cache_bytes, "aggregate cache")?;
        }
        let _ = &mut agg_cache;

        // ---- per-GPU static allocations: replicated params, plus Adam
        // moment state (2× params) on training sessions ----
        let param_copies = if train { 3 } else { 1 };
        for gpu in 0..m {
            machine.alloc(
                gpu,
                model.param_bytes() * param_copies,
                if train {
                    "model params + optimizer state"
                } else {
                    "model params"
                },
            )?;
        }

        // ---- double-buffered staging (overlap executor) ----
        // Sized for the worst (layer, batch) footprint and pinned for the
        // whole run, so the overlapped epochs have no per-batch allocation
        // churn. An oversized configuration fails *here*, naming the
        // staging slot and GPU.
        let staging = if config.overlap == OverlapMode::DoubleBuffer {
            let plans: Vec<StagingPlan> = (0..m)
                .map(|gpu| plan_staging(gpu, &plan, &dedup, bufplans.as_deref(), &model, &config))
                .collect();
            for p in &plans {
                p.install(&mut machine)?;
            }
            Some(plans)
        } else {
            None
        };

        let run_mode = config.mode;
        let mut session = Session {
            config,
            run_mode,
            machine,
            plan,
            dedup,
            buffer_comm,
            bufplans,
            staging,
            cache: None,
            model,
            labels: dataset.labels.clone(),
            train_mask: dataset.splits.train.clone(),
            h,
            grad_h,
            agg_cache,
            preprocessing,
            epochs_run: 0,
            synth: false,
            serve_mask: None,
        };

        // ---- hot-vertex feature cache: spend the per-GPU HBM headroom
        // left after every static allocation above on the policy's
        // hottest layer-0 rows ----
        let degrees: Vec<u32> = (0..v)
            .map(|u| dataset.graph.out_degree(u as u32) as u32)
            .collect();
        session.install_cache(&degrees)?;

        // ---- static schedule certification (Paranoid): synthesize the
        // epoch schedule from the plans alone — before a single simulated
        // FLOP runs — and hold it to the happens-before, lifetime, and
        // (for small configs) exhaustive-interleaving passes 6–8 ----
        if session.config.validation == ValidationLevel::Paranoid {
            let explore = session
                .exhaustive_exploration_feasible()
                .then_some(hongtu_verify::DEFAULT_EXPLORE_BUDGET);
            let report = session.certify_schedule(explore)?;
            if !report.is_ok() {
                return Err(invalid_schedule(&report));
            }
        }
        Ok(session)
    }

    /// Every precomputed artifact this session executes, as one typed
    /// view: partition, dedup, buffer, staging, and cache plans.
    pub fn plans(&self) -> Plans<'_> {
        Plans {
            partition: &self.plan,
            dedup: &self.dedup,
            buffers: self.bufplans.as_deref(),
            staging: self.staging.as_deref(),
            cache: self.cache.as_ref().map(CacheRuntime::plan),
        }
    }

    /// The live hot-vertex cache runtime: admission plan, residency,
    /// hit-rate counters, and the journal pass 11 certifies. `None`
    /// when the configured policy is off or admitted nothing.
    pub fn cache(&self) -> Option<&CacheRuntime> {
        self.cache.as_ref()
    }

    /// The partition plan in use.
    #[deprecated(note = "use Session::plans().partition")]
    pub fn plan(&self) -> &TwoLevelPartition {
        &self.plan
    }

    /// The communication plan in use.
    #[deprecated(note = "use Session::plans().dedup")]
    pub fn dedup_plan(&self) -> &DedupPlan {
        &self.dedup
    }

    /// Preprocessing summary (volumes + modeled seconds).
    pub fn preprocessing(&self) -> &Preprocessing {
        &self.preprocessing
    }

    /// The simulated machine (memory peaks, trace).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Per-GPU staging plans of the overlap executor (`None` when
    /// overlap is off).
    #[deprecated(note = "use Session::plans().staging")]
    pub fn staging_plans(&self) -> Option<&[StagingPlan]> {
        self.staging.as_deref()
    }

    /// The model under training.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Number of epochs completed.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Current logits (`h^L`), e.g. for external accuracy evaluation.
    pub fn logits(&self) -> &Matrix {
        self.h.last().unwrap()
    }

    /// Validation/test accuracy from the representations computed in the
    /// last epoch's forward pass.
    pub fn accuracy(&self, mask: &[bool]) -> f32 {
        hongtu_nn::loss::masked_accuracy(self.logits(), &self.labels, mask)
    }

    /// Builds (or rebuilds, after a structural delta) the hot-vertex
    /// layer-0 feature cache from the current plans: derives the
    /// host-load sets `S[i][j]`, ranks them with the configured
    /// [`CachePolicy`], and admits the top slice into the per-GPU HBM
    /// headroom left after every static allocation
    /// ([`Session::static_memory_bound`] without the cache term). The
    /// cache stays `None` when the policy is off or nothing fits.
    fn install_cache(&mut self, degrees: &[u32]) -> Result<(), SimError> {
        if let Some(old) = self.cache.take() {
            for g in &old.plan().per_gpu {
                if g.bytes > 0 {
                    self.machine.free(g.gpu, g.bytes);
                }
            }
        }
        if !self.config.cache.enabled() {
            return Ok(());
        }
        // `self.cache` is `None` here, so the bound is cache-free and
        // the headroom is exactly what is left on each device.
        let bound = self.static_memory_bound();
        let headroom: Vec<usize> = bound
            .gpu
            .iter()
            .map(|&b| self.config.machine.gpu_memory.saturating_sub(b))
            .collect();
        let slot = self.model.layer(0).in_dim() * F32;
        let rebuilt;
        let bufs = if self.config.comm != CommMode::P2pRu {
            None
        } else if let Some(b) = &self.bufplans {
            Some(b.as_slice())
        } else {
            rebuilt = GpuBufferPlan::build_all(&self.plan, &self.dedup);
            Some(rebuilt.as_slice())
        };
        let sets = load_sets(&self.plan, &self.dedup, bufs, self.load_pattern());
        let plan = CachePlan::build(&sets, degrees, &headroom, slot, self.config.cache.as_ref());
        if plan.is_empty() {
            return Ok(());
        }
        for g in &plan.per_gpu {
            if g.bytes > 0 {
                self.machine
                    .alloc(g.gpu, g.bytes, "hot-vertex feature cache")?;
            }
        }
        // Vanilla charges NUMA-remote rows at QPI bandwidth; the runtime
        // needs the same socket map to split its hits the same way.
        let remote = (self.config.comm == CommMode::Vanilla).then(|| {
            let m = self.plan.m;
            let sockets = self.config.machine.num_sockets.min(m);
            let socket_of = |g: usize| g * sockets / m;
            let owner = &self.plan.assignment.partition_of;
            (0..m)
                .map(|i| {
                    owner
                        .iter()
                        .map(|&o| socket_of(o as usize) != socket_of(i))
                        .collect()
                })
                .collect()
        });
        self.cache = Some(CacheRuntime::new(plan, sets, degrees.len(), remote));
        Ok(())
    }

    /// The [`hongtu_cache::LoadPattern`] matching this session's
    /// communication mode.
    fn load_pattern(&self) -> LoadPattern {
        match self.config.comm {
            CommMode::Vanilla => LoadPattern::Vanilla,
            CommMode::P2p => LoadPattern::P2p,
            CommMode::P2pRu => LoadPattern::P2pRu,
        }
    }

    /// Certifies the hot-vertex cache journal (verifier pass 11,
    /// `H10xx`): replays every sweep and invalidation the runtime
    /// journaled against load sets and headroom recomputed
    /// independently from the current plans. Returns an empty (ok)
    /// report when no cache is installed.
    pub fn certify_cache(&self) -> Report {
        let Some(cache) = &self.cache else {
            return Report::default();
        };
        let bound = self.static_memory_bound();
        let headroom: Vec<usize> = (0..self.plan.m)
            .map(|i| {
                // The bound includes the cache itself; headroom is what
                // the device had left *before* admission spent it.
                let sans_cache = bound.gpu[i] - cache.plan().per_gpu[i].bytes;
                self.config.machine.gpu_memory.saturating_sub(sans_cache)
            })
            .collect();
        let rebuilt;
        let bufs = if self.config.comm != CommMode::P2pRu {
            None
        } else if let Some(b) = &self.bufplans {
            Some(b.as_slice())
        } else {
            rebuilt = GpuBufferPlan::build_all(&self.plan, &self.dedup);
            Some(rebuilt.as_slice())
        };
        hongtu_verify::verify_cache(
            &self.plan,
            &self.dedup,
            bufs,
            self.load_pattern(),
            cache.plan(),
            &headroom,
            cache.log(),
        )
    }

    /// A throwaway copy of this session for schedule synthesis: identical
    /// plans, machine state, and host-store shapes, but flagged `synth` so
    /// the step functions substitute shape-preserving placeholders for the
    /// layer numerics. The model is rebuilt structurally (weights never
    /// influence the schedule — only layer dimensions do), because
    /// [`GnnModel`] holds trait objects and is not `Clone`.
    fn clone_for_synthesis(&self) -> Session {
        let mut rng = SeededRng::new(0);
        let model = GnnModel::new(self.model.kind, &self.model.dims, &mut rng);
        Session {
            config: self.config.clone(),
            run_mode: self.run_mode,
            machine: self.machine.clone(),
            plan: self.plan.clone(),
            dedup: self.dedup.clone(),
            buffer_comm: self.buffer_comm.clone(),
            bufplans: self.bufplans.clone(),
            staging: self.staging.clone(),
            // Shares the live resident set, so the synthesized sweep
            // freezes the same hit table the executed sweep will.
            cache: self.cache.clone(),
            model,
            labels: self.labels.clone(),
            train_mask: self.train_mask.clone(),
            h: self.h.clone(),
            grad_h: self.grad_h.clone(),
            agg_cache: self.agg_cache.clone(),
            preprocessing: self.preprocessing.clone(),
            epochs_run: self.epochs_run,
            synth: true,
            serve_mask: self.serve_mask.clone(),
        }
    }

    /// Symbolically synthesizes the annotated event schedule the *next*
    /// epoch of this session would execute, from the plans and
    /// configuration alone — the step functions run with their numerics
    /// replaced by shape-identical placeholders, so every H2D/D2D/D2H
    /// transfer, stream assignment, barrier, and access annotation is
    /// emitted exactly as a real epoch would emit it, without computing a
    /// single FLOP of GNN math.
    ///
    /// A [`Mode::Train`] session synthesizes a training epoch; a
    /// [`Mode::Infer`] session a forward-only inference epoch. The session
    /// itself is not perturbed (synthesis runs on a throwaway clone), so
    /// the returned trace is event-for-event identical — including
    /// simulated timestamps — to the trace the next executed epoch would
    /// record.
    pub fn synthesize_schedule(&self) -> Result<Trace, SimError> {
        let mut s = self.clone_for_synthesis();
        s.machine.replace_trace(Trace::unbounded());
        match s.config.mode {
            Mode::Train => {
                let mut opt = Adam::new(s.config.lr);
                s.train_epoch_inner(&mut opt)?;
            }
            Mode::Infer => {
                s.infer_epoch_inner()?;
            }
        }
        Ok(s.machine.replace_trace(Trace::disabled()))
    }

    /// Statically certifies this session's schedule: synthesizes the
    /// epoch event DAG ([`Session::synthesize_schedule`]) and runs the
    /// schedule verifier passes over it — pass 6 (happens-before over the
    /// synthesized DAG), pass 7 (resource lifetime/liveness, L6xx),
    /// when `explore` carries a linearization budget, pass 8 (bounded
    /// exhaustive interleaving exploration, X7xx), and pass 9 (dataflow
    /// conservation against the plans, F8xx).
    ///
    /// Exhaustive exploration is exponential in the worst case; gate it
    /// with [`Session::exhaustive_exploration_feasible`] (≤ 2 GPUs and
    /// ≤ 2 layers), as the Paranoid construction path does.
    pub fn certify_schedule(&self, explore: Option<usize>) -> Result<Report, SimError> {
        let trace = self.synthesize_schedule()?;
        let mut report = hongtu_verify::verify_schedule(&trace, explore);
        report.merge(hongtu_verify::verify_dataflow(
            &trace,
            &self.dataflow_spec(),
        ));
        Ok(report)
    }

    /// Statically certifies dataflow conservation alone (pass 9):
    /// synthesizes the epoch schedule and balances its provenance
    /// annotations against a [`hongtu_verify::DataflowSpec`] derived
    /// independently from the partition/dedup/buffer plans.
    pub fn certify_dataflow(&self) -> Result<Report, SimError> {
        let trace = self.synthesize_schedule()?;
        Ok(hongtu_verify::verify_dataflow(
            &trace,
            &self.dataflow_spec(),
        ))
    }

    /// Symbolically synthesizes the pruned sweep a
    /// [`Session::serve`] call for `vertices` would execute — the
    /// serving counterpart of [`Session::synthesize_schedule`]. The
    /// session itself is not perturbed.
    pub fn synthesize_serve_schedule(&self, vertices: &[usize]) -> Result<Trace, SimError> {
        let mut s = self.clone_for_synthesis();
        s.serve_mask = Some(ServeMask::from_queries(
            &s.plan,
            s.model.num_layers(),
            vertices,
        ));
        s.machine.replace_trace(Trace::unbounded());
        s.infer_epoch_inner()?;
        Ok(s.machine.replace_trace(Trace::disabled()))
    }

    /// Statically certifies the pruned serving sweep for `vertices`:
    /// synthesizes its schedule ([`Session::synthesize_serve_schedule`])
    /// and runs the schedule passes (6–8) plus dataflow conservation
    /// (pass 9) over it. Skipped batches emit no `Aggregate` events, so
    /// the unmodified plan-derived [`hongtu_verify::DataflowSpec`]
    /// certifies exactly the batches the sweep ran.
    pub fn certify_serve(
        &self,
        vertices: &[usize],
        explore: Option<usize>,
    ) -> Result<Report, SimError> {
        let mask = ServeMask::from_queries(&self.plan, self.model.num_layers(), vertices);
        let mut report = hongtu_verify::verify_cone(mask.grid(), hongtu_verify::ConeDir::Downward);
        let trace = self.synthesize_serve_schedule(vertices)?;
        report.merge(hongtu_verify::verify_schedule(&trace, explore));
        report.merge(hongtu_verify::verify_dataflow(
            &trace,
            &self.dataflow_spec(),
        ));
        Ok(report)
    }

    /// Symbolically synthesizes the pruned repair sweep a
    /// [`Session::apply_deltas`] replay for `dirty` seed vertices would
    /// execute against the session's *current* plans — the delta
    /// counterpart of [`Session::synthesize_serve_schedule`]. Call it
    /// after the apply (on the rebuilt plans) to certify the replay
    /// that just ran. The session itself is not perturbed.
    pub fn synthesize_delta_schedule(&self, dirty: &[usize]) -> Result<Trace, SimError> {
        let mut s = self.clone_for_synthesis();
        s.serve_mask = Some(ServeMask::from_dirty(&s.plan, s.model.num_layers(), dirty));
        s.machine.replace_trace(Trace::unbounded());
        s.infer_epoch_inner()?;
        Ok(s.machine.replace_trace(Trace::disabled()))
    }

    /// Statically certifies the incremental repair sweep for `dirty`
    /// seed vertices: checks the upward closure of the affected-cone
    /// mask (pass 10, C9xx), synthesizes the pruned replay schedule
    /// ([`Session::synthesize_delta_schedule`]), and runs the schedule
    /// passes (6–8) plus dataflow conservation (pass 9) over it.
    /// Skipped batches emit no `Aggregate` events, so the unmodified
    /// plan-derived [`hongtu_verify::DataflowSpec`] certifies exactly
    /// the batches the replay ran.
    pub fn certify_delta(
        &self,
        dirty: &[usize],
        explore: Option<usize>,
    ) -> Result<Report, SimError> {
        let mask = ServeMask::from_dirty(&self.plan, self.model.num_layers(), dirty);
        let mut report = hongtu_verify::verify_cone(mask.grid(), hongtu_verify::ConeDir::Upward);
        let trace = self.synthesize_delta_schedule(dirty)?;
        report.merge(hongtu_verify::verify_schedule(&trace, explore));
        report.merge(hongtu_verify::verify_dataflow(
            &trace,
            &self.dataflow_spec(),
        ));
        Ok(report)
    }

    /// The expected-flow table pass 9 certifies against. The merged
    /// in-place buffer plans are rebuilt on demand for P2P+RU — outside
    /// `Paranoid` the session does not retain them after construction.
    fn dataflow_spec(&self) -> hongtu_verify::DataflowSpec {
        let comm = match self.config.comm {
            CommMode::Vanilla => hongtu_verify::CommKind::Vanilla,
            CommMode::P2p => hongtu_verify::CommKind::P2p,
            CommMode::P2pRu => hongtu_verify::CommKind::P2pRu,
        };
        let rebuilt;
        let bufplans = if comm != hongtu_verify::CommKind::P2pRu {
            None
        } else if let Some(bufs) = &self.bufplans {
            Some(bufs.as_slice())
        } else {
            rebuilt = GpuBufferPlan::build_all(&self.plan, &self.dedup);
            Some(rebuilt.as_slice())
        };
        hongtu_verify::DataflowSpec::from_plans(&self.plan, &self.dedup, bufplans, comm)
    }

    /// Whether this session is small enough for the exhaustive
    /// interleaving exploration of pass 8 (≤ 2 GPUs × ≤ 2 layers — the
    /// bound the `verify-schedule` CLI and Paranoid construction use).
    pub fn exhaustive_exploration_feasible(&self) -> bool {
        self.plan.m <= 2 && self.model.num_layers() <= 2
    }

    /// Static peak-memory bound per tier, derived from the plans alone by
    /// the same arithmetic the executors charge: replicated parameters
    /// (plus optimizer state on training sessions), the pinned staging
    /// slots under [`OverlapMode::DoubleBuffer`], and otherwise the worst
    /// (layer, batch) footprint of the phased executor. The bound
    /// dominates (≥) the simulator's measured per-GPU and host peaks for
    /// every supported configuration.
    pub fn static_memory_bound(&self) -> StaticMemoryBound {
        let train = self.config.mode == Mode::Train;
        let m = self.plan.m;
        let param_copies = if train { 3 } else { 1 };
        let base = self.model.param_bytes() * param_copies;

        let gpu = (0..m)
            .map(|i| {
                // The hot-vertex cache pins its admitted rows for the
                // session lifetime; admission spent exactly the headroom
                // under this bound, so the sum stays ≤ device memory.
                let cache = self.cache.as_ref().map_or(0, |c| c.plan().per_gpu[i].bytes);
                base + cache
                    + match &self.staging {
                        // Overlap executor: batches live in the two pinned
                        // staging slots; no per-batch allocation exists.
                        Some(plans) => plans[i].total_bytes(),
                        None => self.worst_batch_footprint(i, train),
                    }
            })
            .collect();

        // Host: layer stores h^l (+ ∇h^l on training sessions) and the
        // hybrid aggregate cache — all allocated at construction.
        let v = self.h[0].rows();
        let mut host = 0usize;
        for hl in &self.h {
            host += v * hl.cols() * F32;
        }
        if train {
            host *= 2;
        }
        if train && self.config.memory == MemoryStrategy::Hybrid {
            for l in 0..self.model.num_layers() {
                for c in self.plan.all_chunks() {
                    host += self.model.layer(l).agg_cache_bytes(c);
                }
            }
        }
        StaticMemoryBound { gpu, host }
    }

    /// Worst-case per-batch device footprint of the phased (non-overlap)
    /// executor on GPU `i`: the merged neighbor buffer, chunk topology,
    /// layer output, and intermediates of the forward step, and the
    /// topology + intermediates + checkpoint reload of the backward step.
    fn worst_batch_footprint(&self, i: usize, train: bool) -> usize {
        let mut worst = 0usize;
        for l in 0..self.model.num_layers() {
            let layer = self.model.layer(l);
            let row = layer.in_dim() * F32;
            let use_hybrid =
                train && self.config.memory == MemoryStrategy::Hybrid && layer.supports_agg_cache();
            for (j, chunk) in self.plan.chunks[i].iter().enumerate() {
                let topo = chunk.topology_bytes();
                let buf = match self.config.comm {
                    CommMode::Vanilla => chunk.num_neighbors() * row,
                    CommMode::P2p => {
                        let b = &self.dedup.batches[j];
                        (b.transition[i].len() + chunk.num_neighbors() - b.fetch[i][i]) * row
                    }
                    CommMode::P2pRu => {
                        self.buffer_comm
                            .as_ref()
                            .expect("buffer plan built for P2pRu")[i][j]
                            .buffer_rows
                            * row
                    }
                };
                let out_bytes = chunk.num_dests() * layer.out_dim() * F32;
                let inter = layer.intermediate_bytes(chunk);
                worst = worst.max(buf + topo + out_bytes + inter);
                if train {
                    let reload = if use_hybrid {
                        layer.agg_cache_bytes(chunk)
                    } else {
                        buf
                    };
                    worst = worst.max(topo + inter + reload);
                }
            }
        }
        worst
    }

    /// Per-GPU serving admission budget in bytes: one input plus one
    /// output staging slot, as the overlap executor sizes them
    /// ([`StagingPlan::slot_budget`]) — taken from the pinned plans when
    /// overlap is on, computed by the same arithmetic on demand
    /// otherwise. A full-graph sweep's worst batch fits this by
    /// construction, so any cone (a subset of the full sweep's batches)
    /// admitted against it fits too.
    pub fn staging_budget(&self) -> Vec<usize> {
        if let Some(plans) = &self.staging {
            return plans.iter().map(StagingPlan::slot_budget).collect();
        }
        let rebuilt;
        let bufplans = if self.config.comm != CommMode::P2pRu {
            None
        } else if let Some(bufs) = &self.bufplans {
            Some(bufs.as_slice())
        } else {
            rebuilt = GpuBufferPlan::build_all(&self.plan, &self.dedup);
            Some(rebuilt.as_slice())
        };
        (0..self.plan.m)
            .map(|gpu| {
                plan_staging(
                    gpu,
                    &self.plan,
                    &self.dedup,
                    bufplans,
                    &self.model,
                    &self.config,
                )
                .slot_budget()
            })
            .collect()
    }

    /// Per-GPU staging cost of a serving cone: the worst input + output
    /// footprint over the `(layer, batch)` steps `mask` keeps active,
    /// computed with the same per-batch arithmetic as the staging plans
    /// ([`batch_staging_footprint`]). Admission control compares this
    /// against [`Session::staging_budget`].
    pub fn serve_cone_cost(&self, mask: &ServeMask) -> Vec<usize> {
        let rebuilt;
        let bufplans = if self.config.comm != CommMode::P2pRu {
            None
        } else if let Some(bufs) = &self.bufplans {
            Some(bufs.as_slice())
        } else {
            rebuilt = GpuBufferPlan::build_all(&self.plan, &self.dedup);
            Some(rebuilt.as_slice())
        };
        (0..self.plan.m)
            .map(|gpu| {
                let mut worst = 0usize;
                for l in 0..self.model.num_layers() {
                    for j in 0..self.plan.n {
                        if !mask.active(l, j) {
                            continue;
                        }
                        let (inb, outb) = batch_staging_footprint(
                            gpu,
                            l,
                            j,
                            &self.plan,
                            &self.dedup,
                            bufplans,
                            &self.model,
                            &self.config,
                        );
                        worst = worst.max(inb + outb);
                    }
                }
                worst
            })
            .collect()
    }

    /// Runs `inner` under the session's validation policy. Under
    /// [`ValidationLevel::Paranoid`], the epoch is *schedule-certified*:
    /// it runs under an unbounded event trace and the happens-before
    /// checker (`hongtu-verify`'s trace pass) must find no race or
    /// ordering hazard, else the epoch fails with
    /// [`SimError::InvalidSchedule`]. This applies in release builds too —
    /// opting into `Paranoid` buys the certification, whatever the build
    /// profile; it also certifies the parallel executor's schedules.
    /// Training and inference epochs share this wrapper, so inference
    /// schedules are held to the same certification bar.
    fn epoch_certified<R>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<R, SimError>,
    ) -> Result<R, SimError> {
        // Paranoid: re-run the graph-free verifier passes before touching
        // the plans again (catches accidental in-training mutation).
        let paranoid = self.config.validation == ValidationLevel::Paranoid;
        if paranoid {
            if let Some(bufs) = &self.bufplans {
                let report = hongtu_verify::verify_runtime(&self.plan, &self.dedup, bufs);
                if !report.is_ok() {
                    return Err(invalid_plan(&report));
                }
            }
        }
        if !paranoid {
            return inner(self);
        }
        // Schedule certification: run under an unbounded trace (the checker
        // refuses pruned traces), then replay the epoch's events into the
        // user's trace so external tracing still observes them.
        let mut user = self.machine.replace_trace(Trace::unbounded());
        let result = inner(self);
        if user.is_enabled() {
            for e in self.machine.trace().events() {
                user.record(e.clone());
            }
        }
        let certified = self.machine.replace_trace(user);
        if result.is_ok() {
            let report = hongtu_verify::verify_trace(&certified);
            if !report.is_ok() {
                return Err(invalid_schedule(&report));
            }
        }
        result
    }

    /// Runs one full training epoch (Algorithm 1) with the caller's
    /// optimizer state. Returns the loss and the simulated time spent.
    ///
    /// Most callers reach this through [`Trainer::epoch`] (or the
    /// [`HongTuEngine`] facade), which owns the [`Adam`] state.
    ///
    /// # Panics
    ///
    /// Panics if the session was built with [`Mode::Infer`]: inference
    /// sessions allocate neither gradient stores nor optimizer state, so
    /// a training epoch on one is an API-misuse bug, not a recoverable
    /// condition.
    pub fn train_epoch(&mut self, opt: &mut Adam) -> Result<EpochReport, SimError> {
        assert_eq!(
            self.config.mode,
            Mode::Train,
            "train_epoch on an inference session: build the session with \
             Mode::Train (inference sessions carry no gradient buffers or \
             optimizer state)"
        );
        self.epoch_certified(|s| s.train_epoch_inner(opt))
    }

    /// Runs one forward-only inference epoch over the full graph:
    /// layer-wise progression (all chunks of layer `l` before any chunk
    /// of layer `l+1`), no checkpoint stores, no gradients — activations
    /// spill to the host store only as the next layer's input. Reuses the
    /// same partition/dedup/staging plans and the same forward steps as
    /// training, so the logits are bitwise identical to a training
    /// epoch's forward half under every execution/overlap/comm mode.
    ///
    /// Works on any session. On a [`Mode::Infer`] session the peak
    /// memory in the report reflects the smaller serving footprint (no
    /// Adam state, no gradient host stores, no aggregate cache); on a
    /// [`Mode::Train`] session the epoch still skips checkpoint stores
    /// but runs against the training allocation.
    pub fn infer_epoch(&mut self) -> Result<InferReport, SimError> {
        self.epoch_certified(Self::infer_epoch_inner)
    }

    /// Serves exact logits for a subset of vertices: one forward sweep
    /// pruned to the union of the queried vertices' ≤ L-hop dependency
    /// cones ([`ServeMask`]), driven through the same step functions —
    /// and, under [`ValidationLevel::Paranoid`], the same per-epoch
    /// schedule certification — as [`Session::infer_epoch`]. The
    /// returned logits rows follow the query order and are bitwise
    /// equal to the same rows of a full inference epoch.
    ///
    /// Admission control lives above this call (`hongtu-serving`): a
    /// cone whose worst active batch exceeds
    /// [`Session::staging_budget`] should be rejected there instead of
    /// running; `serve` itself executes whatever cone it is given.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is empty or contains an out-of-range id.
    pub fn serve(&mut self, vertices: &[usize]) -> Result<ServeReport, SimError> {
        let mask = ServeMask::from_queries(&self.plan, self.model.num_layers(), vertices);
        self.serve_mask = Some(mask);
        let result = self.epoch_certified(Self::infer_epoch_inner);
        let mask = self.serve_mask.take().expect("serve mask installed above");
        let report = result?;
        Ok(ServeReport {
            logits: report.logits.gather_rows(vertices),
            time: report.time,
            buckets: report.buckets,
            peak_gpu_bytes: report.peak_gpu_bytes,
            peak_host_bytes: report.peak_host_bytes,
            active_steps: mask.active_steps(),
            total_steps: mask.total_steps(),
        })
    }

    /// Applies one batch of graph mutations and incrementally repairs
    /// every host-resident layer store in place: stages the batch
    /// against `dg`, rebuilds exactly the chunk subgraphs whose
    /// computation the mutations changed (destination membership is
    /// kept fixed, so untouched chunks stay bitwise identical),
    /// re-derives the downstream dedup/buffer/staging plans when the
    /// topology moved, FIFO-commits the batch, patches the mutated
    /// feature rows into `h^0`, and replays only the *upward-closed*
    /// affected cone ([`ServeMask::from_dirty`]) through the same step
    /// functions — and, under [`ValidationLevel::Paranoid`], the same
    /// per-epoch schedule certification — as a full
    /// [`Session::infer_epoch`].
    ///
    /// The returned logits are bitwise equal to a from-scratch
    /// inference epoch on the mutated graph: every row a replayed chunk
    /// reads at layer `l` is either bitwise-unchanged in `h^l` (its
    /// in-edge lists, weights, and transitive inputs are untouched) or
    /// was recomputed at layer `l − 1` (upward closure keeps dirty rows
    /// covered a layer below). That induction assumes the layer stores
    /// are *current* — run [`Session::infer_epoch`] once after
    /// construction before the first incremental apply (construction
    /// zero-fills `h^{l>0}`).
    ///
    /// # Panics
    ///
    /// Panics if [`DynamicGraph::stage`] rejects the batch (any
    /// [`hongtu_delta::DeltaError`], an empty batch included — stage it
    /// yourself and call [`Session::apply_staged`] for a fallible path),
    /// or if `dg`'s vertex count differs from the session's.
    pub fn apply_deltas(
        &mut self,
        dg: &mut DynamicGraph,
        deltas: &[Delta],
    ) -> Result<DeltaReport, SimError> {
        let staged = dg
            .stage(deltas)
            .unwrap_or_else(|e| panic!("invalid delta batch: {e}"));
        self.apply_staged_impl(dg, staged, true)
    }

    /// [`Session::apply_deltas`] for an already-staged batch (the
    /// serving queue stages once for admission pricing and reuses the
    /// result here).
    ///
    /// Transactional up to the commit: a batch staged against another
    /// epoch of `dg` is [`SimError::StaleCommit`], a rebuilt plan the
    /// verifier rejects is [`SimError::InvalidPlan`], and either leaves
    /// the session, its plans and `dg` exactly as they were.
    ///
    /// # Panics
    ///
    /// Panics if `dg`'s vertex count differs from the session's.
    pub fn apply_staged(
        &mut self,
        dg: &mut DynamicGraph,
        staged: StagedCommit,
    ) -> Result<DeltaReport, SimError> {
        self.apply_staged_impl(dg, staged, true)
    }

    /// Baseline twin of [`Session::apply_deltas`]: identical staging,
    /// chunk/plan rebuild, and commit, but the repair sweep replays
    /// **every** `(layer, batch)` step instead of the affected cone.
    /// Exists so benchmarks (`bench_delta`) can compare incremental
    /// against full recompute on perfectly matched state — the logits
    /// of both paths are bitwise identical.
    ///
    /// # Panics
    ///
    /// As [`Session::apply_deltas`].
    pub fn apply_deltas_full(
        &mut self,
        dg: &mut DynamicGraph,
        deltas: &[Delta],
    ) -> Result<DeltaReport, SimError> {
        let staged = dg
            .stage(deltas)
            .unwrap_or_else(|e| panic!("invalid delta batch: {e}"));
        self.apply_staged_impl(dg, staged, false)
    }

    fn apply_staged_impl(
        &mut self,
        dg: &mut DynamicGraph,
        staged: StagedCommit,
        incremental: bool,
    ) -> Result<DeltaReport, SimError> {
        assert_eq!(
            dg.num_vertices(),
            self.h[0].rows(),
            "dynamic graph and session disagree on vertex count"
        );
        if staged.base_epoch() != dg.epoch() {
            return Err(SimError::StaleCommit {
                staged_epoch: staged.base_epoch(),
                graph_epoch: dg.epoch(),
            });
        }

        // ---- rebuild the chunk subgraphs whose computation changed:
        // a chunk is stale iff it owns a structurally dirty dest (its
        // edge list or global-degree GCN weights moved). Destination
        // membership is never re-balanced, so every other chunk — and
        // its rows in every h^l — stays bitwise identical. ----
        let mut rebuilt = 0usize;
        if !staged.structural().is_empty() {
            let mut structural = vec![false; dg.num_vertices()];
            for &s in staged.structural() {
                structural[s] = true;
            }
            let mut swapped: Vec<ChunkSubgraph> = Vec::new();
            for chunk in self.plan.chunks.iter_mut().flatten() {
                if chunk.dests.iter().any(|&d| structural[d as usize]) {
                    let fresh = ChunkSubgraph::build(
                        staged.graph(),
                        chunk.part,
                        chunk.chunk,
                        chunk.dests.clone(),
                    );
                    swapped.push(std::mem::replace(chunk, fresh));
                }
            }
            rebuilt = swapped.len();

            // ---- downstream plans follow the topology. They are
            // derived beside the live ones and installed only once the
            // whole new plan has verified; a rejected plan puts the old
            // chunks back, leaving the session and the graph as they
            // were. ----
            let (dedup, bufplans) = match derive_plans(&self.plan, staged.graph(), &self.config) {
                Ok(derived) => derived,
                Err(e) => {
                    for old in swapped {
                        let (i, j) = (old.part, old.chunk);
                        self.plan.chunks[i][j] = old;
                    }
                    return Err(e);
                }
            };
            self.dedup = dedup;
            self.buffer_comm = build_buffer_comm(&self.plan, bufplans.as_deref(), self.config.comm);
            self.preprocessing.volumes = CommVolumes::from_plan(&self.dedup);

            // ---- re-pin staging for the new worst-case footprint ----
            if let Some(old) = self.staging.take() {
                for p in &old {
                    p.uninstall(&mut self.machine);
                }
                let plans: Vec<StagingPlan> = (0..self.plan.m)
                    .map(|gpu| {
                        plan_staging(
                            gpu,
                            &self.plan,
                            &self.dedup,
                            bufplans.as_deref(),
                            &self.model,
                            &self.config,
                        )
                    })
                    .collect();
                for p in &plans {
                    p.install(&mut self.machine)?;
                }
                self.staging = Some(plans);
            }
            self.bufplans = bufplans;

            // ---- the cache plan follows the topology too: the load
            // sets and degrees moved, so re-derive admission from
            // scratch (rows of the old plan may no longer be scheduled
            // host loads at all). The rebuilt runtime starts cold. ----
            if self.config.cache.enabled() {
                let degrees: Vec<u32> = (0..dg.num_vertices())
                    .map(|u| staged.graph().out_degree(u as u32) as u32)
                    .collect();
                self.install_cache(&degrees)?;
            }
        }

        // ---- FIFO commit, then patch the mutated feature rows into
        // h^0: the replay below reads them at layer 0 ----
        let dirty = staged.dirty().to_vec();
        let patches = staged.feature_patches().to_vec();
        let receipt = dg.commit(staged);
        for (vtx, row) in &patches {
            self.h[0].row_mut(*vtx).copy_from_slice(row);
        }
        // Cached copies of patched `h^0` rows are stale the instant the
        // patch lands: drop (and journal) them before the replay sweeps.
        if let Some(c) = self.cache.as_mut() {
            let dirty_ids: Vec<_> = dirty.iter().map(|&d| d as u32).collect();
            c.invalidate(&dirty_ids);
        }

        // ---- replay the affected cone (or everything, for the
        // full-recompute baseline) through the inference sweep ----
        let mask = ServeMask::from_dirty(&self.plan, self.model.num_layers(), &dirty);
        if self.config.validation != ValidationLevel::Off {
            let report = hongtu_verify::verify_cone(mask.grid(), hongtu_verify::ConeDir::Upward);
            if !report.is_ok() {
                return Err(invalid_plan(&report));
            }
        }
        if incremental {
            self.serve_mask = Some(mask.clone());
        }
        let result = self.epoch_certified(Self::infer_epoch_inner);
        self.serve_mask = None;
        let report = result?;
        Ok(DeltaReport {
            epoch: receipt.epoch,
            logits: report.logits,
            time: report.time,
            buckets: report.buckets,
            peak_gpu_bytes: report.peak_gpu_bytes,
            peak_host_bytes: report.peak_host_bytes,
            active_steps: if incremental {
                mask.active_steps()
            } else {
                mask.total_steps()
            },
            total_steps: mask.total_steps(),
            dirty_vertices: dirty.len(),
            rebuilt_chunks: rebuilt,
        })
    }

    fn infer_epoch_inner(&mut self) -> Result<InferReport, SimError> {
        self.run_mode = Mode::Infer;
        let t0 = self.machine.elapsed();
        let b0 = self.machine.buckets();
        let l_count = self.model.num_layers();
        let n = self.plan.n;
        let phased = self.config.comm != CommMode::Vanilla;
        let parallel = self.config.exec == ExecutionMode::Parallel;
        let overlap = self.config.overlap == OverlapMode::DoubleBuffer;

        // A batch's layer-0 host load runs iff layer 0 is active under
        // the serving/delta mask; the cache installs only those rows.
        let executed: Vec<bool> = (0..n)
            .map(|j| self.serve_mask.as_ref().is_none_or(|m| m.active(0, j)))
            .collect();
        if let Some(c) = self.cache.as_mut() {
            c.begin_sweep();
        }

        // ---- forward pass only (Alg 1, lines 4–9, minus checkpoints) ----
        for l in 0..l_count {
            if overlap {
                if parallel {
                    self.forward_layer_overlap_parallel(l);
                } else {
                    self.forward_layer_overlap_sequential(l);
                }
            } else {
                for j in 0..n {
                    if parallel {
                        self.forward_batch_parallel(l, j, phased)?;
                    } else {
                        self.forward_batch_sequential(l, j, phased)?;
                    }
                }
            }
        }
        self.machine.sync(BarrierScope::Epoch);
        if let Some(c) = self.cache.as_mut() {
            c.end_sweep(&executed);
        }

        self.epochs_run += 1;
        Ok(InferReport {
            logits: self.h.last().unwrap().clone(),
            time: self.machine.elapsed() - t0,
            buckets: delta(self.machine.buckets(), b0),
            peak_gpu_bytes: self.machine.max_gpu_peak(),
            peak_host_bytes: self.machine.host_memory().peak(),
        })
    }

    fn train_epoch_inner(&mut self, opt: &mut Adam) -> Result<EpochReport, SimError> {
        self.run_mode = Mode::Train;
        let t0 = self.machine.elapsed();
        let b0 = self.machine.buckets();
        let l_count = self.model.num_layers();
        let m = self.plan.m;
        let n = self.plan.n;
        // Non-vanilla batches have cross-GPU data dependencies inside a
        // batch (P2P fetches read what owners loaded; evictions read what
        // remote GPUs pushed); those windows are separated by phase
        // barriers. Vanilla batches touch only per-GPU state.
        let phased = self.config.comm != CommMode::Vanilla;
        let parallel = self.config.exec == ExecutionMode::Parallel;
        let overlap = self.config.overlap == OverlapMode::DoubleBuffer;

        if !self.synth {
            for g in &mut self.grad_h {
                g.fill_zero();
            }
        }
        // Zero-initializing the host gradient stores is a (cost-free)
        // write the schedule checker needs to see: every later gradient
        // accumulate/read is ordered after it.
        self.machine
            .tag((0..=l_count).map(|l| Access::write(grad(l), Region::All)));
        self.machine.cpu_compute(0, 0.0);

        // Training epochs are always full sweeps: every batch's layer-0
        // host load runs, so the cache installs every admitted row it
        // saw loaded this sweep.
        if let Some(c) = self.cache.as_mut() {
            c.begin_sweep();
        }

        // ---- forward pass (Alg 1, lines 4–9) ----
        for l in 0..l_count {
            if overlap {
                if parallel {
                    self.forward_layer_overlap_parallel(l);
                } else {
                    self.forward_layer_overlap_sequential(l);
                }
            } else {
                for j in 0..n {
                    if parallel {
                        self.forward_batch_parallel(l, j, phased)?;
                    } else {
                        self.forward_batch_sequential(l, j, phased)?;
                    }
                }
            }
        }
        // The backward pass re-loads through checkpoint reloads, which
        // bypass the cache by design — the sweep ends with the forward.
        if let Some(c) = self.cache.as_mut() {
            c.end_sweep(&vec![true; n]);
        }

        // ---- downstream task (lines 10–11) ----
        let loss = if self.synth {
            MaskedLoss {
                loss: 0.0,
                grad: Matrix::zeros(0, 0),
                accuracy: 0.0,
            }
        } else {
            masked_cross_entropy(self.h.last().unwrap(), &self.labels, &self.train_mask)
        };
        let v = self.labels.len();
        let classes = self.h.last().unwrap().cols();
        self.machine.tag([
            Access::read(rep(l_count), Region::All),
            Access::write(grad(l_count), Region::All),
        ]);
        self.machine.cpu_compute(0, (v * classes * 8) as f64);
        if !self.synth {
            *self.grad_h.last_mut().unwrap() = loss.grad.clone();
        }
        // The loss gradient is written on GPU 0's timeline; every GPU's
        // backward pass reads it, so the batch loop must not start before
        // a barrier.
        self.machine.sync(BarrierScope::Batch);

        // ---- backward pass (lines 12–19) ----
        let mut grads: Vec<Vec<LayerGrads>> = (0..m).map(|_| self.model.zero_grads()).collect();
        for l in (0..l_count).rev() {
            if overlap {
                if parallel {
                    self.backward_layer_overlap_parallel(l, &mut grads);
                } else {
                    self.backward_layer_overlap_sequential(l, &mut grads);
                }
            } else {
                for j in 0..n {
                    if parallel {
                        self.backward_batch_parallel(l, j, phased, &mut grads)?;
                    } else {
                        self.backward_batch_sequential(l, j, phased, &mut grads)?;
                    }
                }
            }
        }

        // ---- parameter update with all-reduce (lines 20–21) ----
        let param_bytes = self.model.param_bytes();
        for i in 0..m {
            // Ring all-reduce: 2·(m−1)/m of the parameter volume per GPU.
            // Modeled as an internally-ordered collective, so it carries no
            // access annotations.
            let ring = 2 * param_bytes * (m.saturating_sub(1)) / m.max(1);
            self.machine.d2d((i + 1) % m, i, ring);
            self.machine
                .gpu_dense(i, 2.0 * self.model.param_count() as f64);
        }
        self.machine.sync(BarrierScope::Epoch);
        if !self.synth {
            let mut total = self.model.zero_grads();
            for gpu_grads in &grads {
                for (t, g) in total.iter_mut().zip(gpu_grads) {
                    t.add(g);
                }
            }
            self.model.apply_grads(&total, opt);
        }

        self.epochs_run += 1;
        Ok(EpochReport {
            loss,
            time: self.machine.elapsed() - t0,
            buckets: delta(self.machine.buckets(), b0),
        })
    }

    /// One forward batch on the sequential executor: per-GPU steps run in
    /// GPU index order against the machine's own timeline. Host-store
    /// writes are applied after the compute loop — a bitwise no-op
    /// relative to inline application (destination rows are disjoint
    /// across the batch's chunks and nothing reads `h^{l+1}` before the
    /// batch barrier) that pins the write point to the same place the
    /// parallel executor uses.
    fn forward_batch_sequential(
        &mut self,
        l: usize,
        j: usize,
        phased: bool,
    ) -> Result<(), SimError> {
        let m = self.plan.m;
        let mut loads = Vec::with_capacity(m);
        {
            let ctx = ctx!(self);
            for i in 0..m {
                loads.push(forward_load_step(&ctx, &mut self.machine, l, i, j)?);
            }
        }
        if phased {
            // Host loads populate the transition rows that remote GPUs
            // fetch over P2P in the next phase.
            self.machine.sync(BarrierScope::Phase);
        }
        let mut outs = Vec::with_capacity(m);
        {
            let ctx = ctx!(self);
            for (i, load) in loads.iter().enumerate() {
                outs.push(forward_compute_step(
                    &ctx,
                    &mut self.machine,
                    l,
                    i,
                    j,
                    load.buf_bytes,
                    &NbrFeed::Direct,
                )?);
            }
        }
        self.apply_forward_outs(l, j, outs);
        self.machine.sync(BarrierScope::Batch);
        Ok(())
    }

    /// One forward batch on the parallel executor: the m GPUs' load and
    /// compute steps each run on worker threads against forked per-GPU
    /// timeline shards, joined in GPU index order at exactly the points
    /// where the sequential executor places its barriers. Owner GPUs hand
    /// the neighbor rows they serve over typed channels during the load
    /// phase, so the compute phase never blocks on a receive.
    fn forward_batch_parallel(&mut self, l: usize, j: usize, phased: bool) -> Result<(), SimError> {
        let m = self.plan.m;
        // -- load phase (plus P2P serves into the per-GPU channels) --
        let mut shards = self.machine.fork_shards();
        let (txs, rxs): (Vec<Sender<ServeBlock>>, Vec<Receiver<ServeBlock>>) =
            (0..m).map(|_| mpsc::channel()).unzip();
        let mut load_slots: Vec<Option<Result<FwLoad, SimError>>> = (0..m).map(|_| None).collect();
        {
            let ctx = ctx!(self);
            let ctx = &ctx;
            let txs = &txs;
            hongtu_parallel::global().scope(|s| {
                for (shard, slot) in shards.iter_mut().zip(load_slots.iter_mut()) {
                    let txs = txs.to_vec();
                    s.spawn(move || {
                        let i = shard.gpu();
                        let r = forward_load_step(ctx, shard, l, i, j);
                        if phased && r.is_ok() {
                            serve_neighbor_rows(ctx, l, i, j, &txs);
                        }
                        *slot = Some(r);
                    });
                }
            });
        }
        drop(txs);
        self.machine.join_shards(shards);
        let loads = collect_slots(load_slots)?;
        if phased {
            self.machine.sync(BarrierScope::Phase);
        }

        // -- compute phase --
        let mut shards = self.machine.fork_shards();
        let mut out_slots: Vec<Option<Result<FwOut, SimError>>> = (0..m).map(|_| None).collect();
        {
            let ctx = ctx!(self);
            let ctx = &ctx;
            hongtu_parallel::global().scope(|s| {
                for (((shard, slot), load), rx) in shards
                    .iter_mut()
                    .zip(out_slots.iter_mut())
                    .zip(loads.iter())
                    .zip(rxs)
                {
                    s.spawn(move || {
                        let i = shard.gpu();
                        let feed = if phased {
                            NbrFeed::Served(rx.try_iter().collect())
                        } else {
                            NbrFeed::Direct
                        };
                        *slot = Some(forward_compute_step(
                            ctx,
                            shard,
                            l,
                            i,
                            j,
                            load.buf_bytes,
                            &feed,
                        ));
                    });
                }
            });
        }
        self.machine.join_shards(shards);
        let outs = collect_slots(out_slots)?;
        self.apply_forward_outs(l, j, outs);
        self.machine.sync(BarrierScope::Batch);
        Ok(())
    }

    /// Applies a forward batch's host-store writes in GPU index order
    /// (the fixed reduction order of the determinism contract): the
    /// `h^{l+1}` scatter (Alg 1 line 9) and the hybrid checkpoint store.
    fn apply_forward_outs(&mut self, l: usize, j: usize, outs: Vec<FwOut>) {
        // A batch pruned from a serving sweep computed nothing: there is
        // no output to scatter (and scattering an empty placeholder
        // against the chunk's dest list would be a shape error).
        if self.serve_mask.as_ref().is_some_and(|m| !m.active(l, j)) {
            return;
        }
        for (i, out) in outs.into_iter().enumerate() {
            if !self.synth {
                let dest_idx: Vec<usize> = self.plan.chunks[i][j]
                    .dests
                    .iter()
                    .map(|&v| v as usize)
                    .collect();
                self.h[l + 1].scatter_rows(&dest_idx, &out.out);
            }
            // Synthesis still stores the (placeholder) checkpoint: the
            // backward steps read its byte size off the cache.
            if let Some(agg) = out.agg {
                self.agg_cache[l][i][j] = Some(agg);
            }
        }
    }

    /// One backward batch on the sequential executor; like
    /// [`HongTuEngine::forward_batch_sequential`], the overlapping
    /// `∇h^l` accumulations are applied after the compute loop in GPU
    /// index order (identical f32 summation order to inline application,
    /// since the loop itself ran in that order and nothing in it reads
    /// `∇h^l`).
    fn backward_batch_sequential(
        &mut self,
        l: usize,
        j: usize,
        phased: bool,
        grads: &mut [Vec<LayerGrads>],
    ) -> Result<(), SimError> {
        let m = self.plan.m;
        let mut loads = Vec::with_capacity(m);
        {
            let ctx = ctx!(self);
            for i in 0..m {
                loads.push(backward_load_step(&ctx, &mut self.machine, l, i, j)?);
            }
        }
        if phased {
            self.machine.sync(BarrierScope::Phase);
        }
        let mut grad_nbrs = Vec::with_capacity(m);
        {
            let ctx = ctx!(self);
            for (i, load) in loads.iter().enumerate() {
                grad_nbrs.push(backward_compute_step(
                    &ctx,
                    &mut self.machine,
                    l,
                    i,
                    j,
                    load,
                    &mut grads[i][l],
                    &NbrFeed::Direct,
                )?);
            }
        }
        self.apply_backward_grads(l, j, grad_nbrs);
        if phased {
            // Evictions read the transition-gradient buffers that remote
            // GPUs accumulate into during the compute phase.
            self.machine.sync(BarrierScope::Phase);
        }
        {
            let ctx = ctx!(self);
            for (i, load) in loads.iter().enumerate() {
                backward_evict_step(&ctx, &mut self.machine, l, i, j, load);
            }
        }
        self.machine.sync(BarrierScope::Batch);
        Ok(())
    }

    /// One backward batch on the parallel executor: load / compute /
    /// evict sub-phases each fork per-GPU shards, and the recompute
    /// path's neighbor reload is fed through the same typed serve
    /// channels as the forward pass.
    fn backward_batch_parallel(
        &mut self,
        l: usize,
        j: usize,
        phased: bool,
        grads: &mut [Vec<LayerGrads>],
    ) -> Result<(), SimError> {
        let m = self.plan.m;
        // The hybrid path reloads the cached aggregate instead of
        // neighbor representations — no serves needed.
        let serve = phased
            && !(self.config.memory == MemoryStrategy::Hybrid
                && self.model.layer(l).supports_agg_cache());

        // -- load phase (plus serves for the recompute reload) --
        let mut shards = self.machine.fork_shards();
        let (txs, rxs): (Vec<Sender<ServeBlock>>, Vec<Receiver<ServeBlock>>) =
            (0..m).map(|_| mpsc::channel()).unzip();
        let mut load_slots: Vec<Option<Result<BwLoad, SimError>>> = (0..m).map(|_| None).collect();
        {
            let ctx = ctx!(self);
            let ctx = &ctx;
            let txs = &txs;
            hongtu_parallel::global().scope(|s| {
                for (shard, slot) in shards.iter_mut().zip(load_slots.iter_mut()) {
                    let txs = txs.to_vec();
                    s.spawn(move || {
                        let i = shard.gpu();
                        let r = backward_load_step(ctx, shard, l, i, j);
                        if serve && r.is_ok() {
                            serve_neighbor_rows(ctx, l, i, j, &txs);
                        }
                        *slot = Some(r);
                    });
                }
            });
        }
        drop(txs);
        self.machine.join_shards(shards);
        let loads = collect_slots(load_slots)?;
        if phased {
            self.machine.sync(BarrierScope::Phase);
        }

        // -- compute phase --
        let mut shards = self.machine.fork_shards();
        let mut out_slots: Vec<Option<Result<Matrix, SimError>>> = (0..m).map(|_| None).collect();
        {
            let ctx = ctx!(self);
            let ctx = &ctx;
            hongtu_parallel::global().scope(|s| {
                for ((((shard, slot), load), gpu_grads), rx) in shards
                    .iter_mut()
                    .zip(out_slots.iter_mut())
                    .zip(loads.iter())
                    .zip(grads.iter_mut())
                    .zip(rxs)
                {
                    s.spawn(move || {
                        let i = shard.gpu();
                        let feed = if serve {
                            NbrFeed::Served(rx.try_iter().collect())
                        } else {
                            NbrFeed::Direct
                        };
                        *slot = Some(backward_compute_step(
                            ctx,
                            shard,
                            l,
                            i,
                            j,
                            load,
                            &mut gpu_grads[l],
                            &feed,
                        ));
                    });
                }
            });
        }
        self.machine.join_shards(shards);
        let grad_nbrs = collect_slots(out_slots)?;
        self.apply_backward_grads(l, j, grad_nbrs);
        if phased {
            self.machine.sync(BarrierScope::Phase);
        }

        // -- evict phase --
        let mut shards = self.machine.fork_shards();
        {
            let ctx = ctx!(self);
            let ctx = &ctx;
            hongtu_parallel::global().scope(|s| {
                for (shard, load) in shards.iter_mut().zip(loads.iter()) {
                    s.spawn(move || {
                        let i = shard.gpu();
                        backward_evict_step(ctx, shard, l, i, j, load);
                    });
                }
            });
        }
        self.machine.join_shards(shards);
        self.machine.sync(BarrierScope::Batch);
        Ok(())
    }

    /// Accumulates a backward batch's neighbor gradients into the host
    /// store in GPU index order — neighbor sets overlap across GPUs, so
    /// this fixed order *is* the determinism contract for `∇h^l`.
    fn apply_backward_grads(&mut self, l: usize, j: usize, grad_nbrs: Vec<Matrix>) {
        if self.synth {
            return;
        }
        for (i, grad_nbr) in grad_nbrs.into_iter().enumerate() {
            let nbr_idx: Vec<usize> = self.plan.chunks[i][j]
                .neighbors
                .iter()
                .map(|&v| v as usize)
                .collect();
            self.grad_h[l].scatter_add_rows(&nbr_idx, &grad_nbr);
        }
    }

    /// One forward layer under the overlap executor, sequential host
    /// execution: the segments of [`hongtu_stream::pipeline`] run their
    /// three roles on the three per-GPU streams between batch barriers,
    /// so a segment costs the *maximum* of prefetch, compute, and drain
    /// instead of their sum. Host-store writes are still leader-applied
    /// in GPU index order, so results are bitwise identical to the
    /// non-overlapped executor.
    fn forward_layer_overlap_sequential(&mut self, l: usize) {
        let m = self.plan.m;
        for seg in pipeline(self.plan.n) {
            let mut outs = Vec::with_capacity(m);
            {
                let ctx = ctx!(self);
                if let Some(p) = seg.prefetch {
                    for i in 0..m {
                        ov_forward_prefetch(&ctx, &mut self.machine, l, i, p);
                    }
                }
                if let Some(c) = seg.compute {
                    for i in 0..m {
                        outs.push(ov_forward_compute(&ctx, &mut self.machine, l, i, c));
                    }
                }
                if let Some(d) = seg.drain {
                    for i in 0..m {
                        ov_forward_drain(&ctx, &mut self.machine, l, i, d);
                    }
                }
            }
            if let Some(c) = seg.compute {
                self.apply_forward_outs(l, c, outs);
                self.machine.sync(BarrierScope::Batch);
            } else {
                // Prologue/epilogue segments only move data; a phase
                // barrier publishes it without advancing the batch count.
                self.machine.sync(BarrierScope::Phase);
            }
        }
    }

    /// One forward layer under the overlap executor, parallel host
    /// execution: each segment's three roles fork per-GPU shards in
    /// turn, joined in GPU index order, so clocks, traces, and results
    /// are bitwise identical to the sequential overlap driver. `h^l` is
    /// frozen for the whole layer (writes go to `h^{l+1}`), so workers
    /// gather neighbor rows straight from the host store — no serve
    /// channels needed.
    fn forward_layer_overlap_parallel(&mut self, l: usize) {
        let m = self.plan.m;
        for seg in pipeline(self.plan.n) {
            if let Some(p) = seg.prefetch {
                let mut shards = self.machine.fork_shards();
                {
                    let ctx = ctx!(self);
                    let ctx = &ctx;
                    hongtu_parallel::global().scope(|s| {
                        for shard in shards.iter_mut() {
                            s.spawn(move || {
                                let i = shard.gpu();
                                ov_forward_prefetch(ctx, shard, l, i, p);
                            });
                        }
                    });
                }
                self.machine.join_shards(shards);
            }
            let mut outs = Vec::new();
            if let Some(c) = seg.compute {
                let mut shards = self.machine.fork_shards();
                let mut slots: Vec<Option<FwOut>> = (0..m).map(|_| None).collect();
                {
                    let ctx = ctx!(self);
                    let ctx = &ctx;
                    hongtu_parallel::global().scope(|s| {
                        for (shard, slot) in shards.iter_mut().zip(slots.iter_mut()) {
                            s.spawn(move || {
                                let i = shard.gpu();
                                *slot = Some(ov_forward_compute(ctx, shard, l, i, c));
                            });
                        }
                    });
                }
                self.machine.join_shards(shards);
                outs = slots
                    .into_iter()
                    .map(|s| s.expect("worker task did not run"))
                    .collect();
            }
            if let Some(d) = seg.drain {
                let mut shards = self.machine.fork_shards();
                {
                    let ctx = ctx!(self);
                    let ctx = &ctx;
                    hongtu_parallel::global().scope(|s| {
                        for shard in shards.iter_mut() {
                            s.spawn(move || {
                                let i = shard.gpu();
                                ov_forward_drain(ctx, shard, l, i, d);
                            });
                        }
                    });
                }
                self.machine.join_shards(shards);
            }
            if let Some(c) = seg.compute {
                self.apply_forward_outs(l, c, outs);
                self.machine.sync(BarrierScope::Batch);
            } else {
                self.machine.sync(BarrierScope::Phase);
            }
        }
    }

    /// One backward layer under the overlap executor, sequential host
    /// execution. The `∇h^{l+1}` gathers prefetched a segment early are
    /// carried in a two-slot host staging mirror of the device slots.
    fn backward_layer_overlap_sequential(&mut self, l: usize, grads: &mut [Vec<LayerGrads>]) {
        let m = self.plan.m;
        let mut staged: [Vec<Matrix>; 2] = [Vec::new(), Vec::new()];
        for seg in pipeline(self.plan.n) {
            let mut grad_nbrs = Vec::with_capacity(m);
            {
                let ctx = ctx!(self);
                if let Some(p) = seg.prefetch {
                    staged[p % 2] = (0..m)
                        .map(|i| ov_backward_prefetch(&ctx, &mut self.machine, l, i, p))
                        .collect();
                }
                if let Some(c) = seg.compute {
                    for i in 0..m {
                        grad_nbrs.push(ov_backward_compute(
                            &ctx,
                            &mut self.machine,
                            l,
                            i,
                            c,
                            &staged[c % 2][i],
                            &mut grads[i][l],
                        ));
                    }
                }
                if let Some(d) = seg.drain {
                    for i in 0..m {
                        ov_backward_drain(&ctx, &mut self.machine, l, i, d);
                    }
                }
            }
            if let Some(c) = seg.compute {
                self.apply_backward_grads(l, c, grad_nbrs);
                self.machine.sync(BarrierScope::Batch);
            } else {
                self.machine.sync(BarrierScope::Phase);
            }
        }
    }

    /// One backward layer under the overlap executor, parallel host
    /// execution; the per-segment fork/join structure mirrors
    /// [`HongTuEngine::forward_layer_overlap_parallel`]. `∇h^{l+1}` is
    /// frozen for the whole layer, so workers gather directly.
    fn backward_layer_overlap_parallel(&mut self, l: usize, grads: &mut [Vec<LayerGrads>]) {
        let m = self.plan.m;
        let mut staged: [Vec<Matrix>; 2] = [Vec::new(), Vec::new()];
        for seg in pipeline(self.plan.n) {
            if let Some(p) = seg.prefetch {
                let mut shards = self.machine.fork_shards();
                let mut slots: Vec<Option<Matrix>> = (0..m).map(|_| None).collect();
                {
                    let ctx = ctx!(self);
                    let ctx = &ctx;
                    hongtu_parallel::global().scope(|s| {
                        for (shard, slot) in shards.iter_mut().zip(slots.iter_mut()) {
                            s.spawn(move || {
                                let i = shard.gpu();
                                *slot = Some(ov_backward_prefetch(ctx, shard, l, i, p));
                            });
                        }
                    });
                }
                self.machine.join_shards(shards);
                staged[p % 2] = slots
                    .into_iter()
                    .map(|s| s.expect("worker task did not run"))
                    .collect();
            }
            let mut grad_nbrs = Vec::new();
            if let Some(c) = seg.compute {
                let mut shards = self.machine.fork_shards();
                let mut slots: Vec<Option<Matrix>> = (0..m).map(|_| None).collect();
                {
                    let ctx = ctx!(self);
                    let ctx = &ctx;
                    let staged_c = &staged[c % 2];
                    hongtu_parallel::global().scope(|s| {
                        for (((shard, slot), go), gpu_grads) in shards
                            .iter_mut()
                            .zip(slots.iter_mut())
                            .zip(staged_c.iter())
                            .zip(grads.iter_mut())
                        {
                            s.spawn(move || {
                                let i = shard.gpu();
                                *slot = Some(ov_backward_compute(
                                    ctx,
                                    shard,
                                    l,
                                    i,
                                    c,
                                    go,
                                    &mut gpu_grads[l],
                                ));
                            });
                        }
                    });
                }
                self.machine.join_shards(shards);
                grad_nbrs = slots
                    .into_iter()
                    .map(|s| s.expect("worker task did not run"))
                    .collect();
            }
            if let Some(d) = seg.drain {
                let mut shards = self.machine.fork_shards();
                {
                    let ctx = ctx!(self);
                    let ctx = &ctx;
                    hongtu_parallel::global().scope(|s| {
                        for shard in shards.iter_mut() {
                            s.spawn(move || {
                                let i = shard.gpu();
                                ov_backward_drain(ctx, shard, l, i, d);
                            });
                        }
                    });
                }
                self.machine.join_shards(shards);
            }
            if let Some(c) = seg.compute {
                self.apply_backward_grads(l, c, grad_nbrs);
                self.machine.sync(BarrierScope::Batch);
            } else {
                self.machine.sync(BarrierScope::Phase);
            }
        }
    }

    /// Mutable access to the simulated machine, e.g. to enable the
    /// unbounded event trace before certifying an epoch schedule.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The configuration the session was built with.
    pub fn config(&self) -> &HongTuConfig {
        &self.config
    }

    /// Replaces the model parameters, e.g. with weights restored via
    /// [`hongtu_nn::load_model_file`] before serving.
    ///
    /// # Panics
    ///
    /// Panics if the replacement's layer count or parameter volume
    /// differs from the session's (the GPU allocations and staging plans
    /// were sized for the original model).
    pub fn set_model(&mut self, model: GnnModel) {
        assert_eq!(
            (model.num_layers(), model.param_bytes()),
            (self.model.num_layers(), self.model.param_bytes()),
            "replacement model shape differs from the session's"
        );
        self.model = model;
    }

    /// A training executor borrowing this session, owning fresh [`Adam`]
    /// optimizer state (initialized from the configured learning rate).
    ///
    /// # Panics
    ///
    /// Panics if the session was built with [`Mode::Infer`] — see
    /// [`Session::train_epoch`].
    pub fn trainer(&mut self) -> Trainer<'_> {
        assert_eq!(
            self.config.mode,
            Mode::Train,
            "trainer() on an inference session: build the session with Mode::Train"
        );
        let opt = Adam::new(self.config.lr);
        Trainer { session: self, opt }
    }

    /// A forward-only inference executor borrowing this session.
    pub fn inferencer(&mut self) -> Inferencer<'_> {
        Inferencer { session: self }
    }
}

/// Training executor: borrows a [`Session`] and owns the [`Adam`]
/// optimizer state, so several training runs (each with fresh optimizer
/// moments) can reuse one validated session.
pub struct Trainer<'s> {
    session: &'s mut Session,
    opt: Adam,
}

impl Trainer<'_> {
    /// Runs one training epoch — see [`Session::train_epoch`].
    pub fn epoch(&mut self) -> Result<EpochReport, SimError> {
        self.session.train_epoch(&mut self.opt)
    }

    /// The underlying session (logits, accuracy, machine state).
    pub fn session(&self) -> &Session {
        self.session
    }
}

/// Forward-only inference executor borrowing a [`Session`].
pub struct Inferencer<'s> {
    session: &'s mut Session,
}

impl Inferencer<'_> {
    /// Runs one inference epoch — see [`Session::infer_epoch`].
    pub fn epoch(&mut self) -> Result<InferReport, SimError> {
        self.session.infer_epoch()
    }

    /// The underlying session (logits, accuracy, machine state).
    pub fn session(&self) -> &Session {
        self.session
    }
}

/// The classic owning engine: a [`Session`] plus [`Adam`] optimizer
/// state, with `train_epoch`/`infer_epoch` inherent methods. Existing
/// callers keep working unchanged; new code that wants to separate the
/// validated session from its executors should use [`Session`] with
/// [`Session::trainer`]/[`Session::inferencer`] directly.
pub struct HongTuEngine {
    session: Session,
    opt: Adam,
}

impl HongTuEngine {
    /// Builds the engine — see [`Session::new`].
    pub fn new(
        dataset: &Dataset,
        kind: ModelKind,
        hidden: usize,
        layers: usize,
        n_chunks: usize,
        config: HongTuConfig,
    ) -> Result<Self, SimError> {
        Session::new(dataset, kind, hidden, layers, n_chunks, config).map(Self::from_session)
    }

    /// Builds the engine from a caller-supplied partition plan — see
    /// [`Session::with_plan`].
    pub fn with_plan(
        dataset: &Dataset,
        kind: ModelKind,
        hidden: usize,
        layers: usize,
        plan: TwoLevelPartition,
        config: HongTuConfig,
    ) -> Result<Self, SimError> {
        Session::with_plan(dataset, kind, hidden, layers, plan, config).map(Self::from_session)
    }

    /// Wraps an already-built session, pairing it with fresh optimizer
    /// state at the configured learning rate.
    pub fn from_session(session: Session) -> Self {
        let opt = Adam::new(session.config.lr);
        HongTuEngine { session, opt }
    }

    /// Runs one training epoch — see [`Session::train_epoch`].
    pub fn train_epoch(&mut self) -> Result<EpochReport, SimError> {
        self.session.train_epoch(&mut self.opt)
    }

    /// Runs one forward-only inference epoch — see
    /// [`Session::infer_epoch`].
    pub fn infer_epoch(&mut self) -> Result<InferReport, SimError> {
        self.session.infer_epoch()
    }

    /// Serves logits for a vertex subset — see [`Session::serve`].
    pub fn serve(&mut self, vertices: &[usize]) -> Result<ServeReport, SimError> {
        self.session.serve(vertices)
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the underlying session.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Unwraps the engine back into its session, dropping the optimizer
    /// state.
    pub fn into_session(self) -> Session {
        self.session
    }

    /// Every plan the session synthesized, in one place.
    pub fn plans(&self) -> Plans<'_> {
        self.session.plans()
    }

    /// The partition plan in use.
    #[deprecated(note = "use HongTuEngine::plans().partition")]
    pub fn plan(&self) -> &TwoLevelPartition {
        self.session.plans().partition
    }

    /// The communication plan in use.
    #[deprecated(note = "use HongTuEngine::plans().dedup")]
    pub fn dedup_plan(&self) -> &DedupPlan {
        self.session.plans().dedup
    }

    /// Preprocessing summary (volumes + modeled seconds).
    pub fn preprocessing(&self) -> &Preprocessing {
        self.session.preprocessing()
    }

    /// The simulated machine (memory peaks, trace).
    pub fn machine(&self) -> &Machine {
        self.session.machine()
    }

    /// Mutable access to the simulated machine, e.g. to enable the
    /// unbounded event trace before certifying an epoch schedule.
    pub fn machine_mut(&mut self) -> &mut Machine {
        self.session.machine_mut()
    }

    /// Per-GPU staging plans of the overlap executor (`None` when
    /// overlap is off).
    #[deprecated(note = "use HongTuEngine::plans().staging")]
    pub fn staging_plans(&self) -> Option<&[StagingPlan]> {
        self.session.plans().staging
    }

    /// The model under training.
    pub fn model(&self) -> &GnnModel {
        self.session.model()
    }

    /// Replaces the model parameters — see [`Session::set_model`].
    pub fn set_model(&mut self, model: GnnModel) {
        self.session.set_model(model);
    }

    /// Number of epochs completed.
    pub fn epochs_run(&self) -> usize {
        self.session.epochs_run()
    }

    /// Current logits (`h^L`), e.g. for external accuracy evaluation.
    pub fn logits(&self) -> &Matrix {
        self.session.logits()
    }

    /// Validation/test accuracy from the representations computed in the
    /// last epoch's forward pass.
    pub fn accuracy(&self, mask: &[bool]) -> f32 {
        self.session.accuracy(mask)
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &HongTuConfig {
        self.session.config()
    }
}

/// Per-GPU scratch carried from the load phase to the compute phase of a
/// forward batch.
struct FwLoad {
    buf_bytes: usize,
}

/// Per-GPU scratch carried across the load/compute/evict phases of a
/// backward batch.
struct BwLoad {
    grad_out: Matrix,
    topo: usize,
    inter: usize,
    buf_bytes: usize,
}

/// Output of one GPU's forward compute step. The `h^{l+1}` scatter and
/// the hybrid checkpoint store are applied by the leader after the
/// compute phase, in GPU index order, so worker threads never write the
/// shared host store.
struct FwOut {
    out: Matrix,
    agg: Option<Matrix>,
}

/// Rows of `h^l` that owner GPU `src` serves to a fetching GPU, handed
/// through a typed channel during the load phase of a parallel batch.
struct ServeBlock {
    src: usize,
    rows: Matrix,
}

/// Where a compute step's neighbor representations come from.
enum NbrFeed {
    /// Gather straight from the host store (sequential executor, and
    /// parallel phases without inter-GPU serves).
    Direct,
    /// Blocks served by remote owner GPUs over typed channels; rows this
    /// GPU owns still come from the host store.
    Served(Vec<ServeBlock>),
}

/// Unwraps the per-GPU result slots filled by a parallel phase. Every
/// worker runs to completion before the scope returns, so on error the
/// machine state is consistent and the *lowest-indexed* failure is
/// propagated (errors are terminal, so sequential/parallel machine-state
/// parity is not required past this point).
fn collect_slots<V>(slots: Vec<Option<Result<V, SimError>>>) -> Result<Vec<V>, SimError> {
    slots
        .into_iter()
        .map(|s| s.expect("worker task did not run"))
        .collect()
}

/// Placeholder forward output for schedule synthesis: zero tensors of
/// exactly the shapes (and, for the checkpoint, the byte size) the real
/// layer would produce, so every downstream size-derived charge — the
/// `h^{l+1}` writeback and the hybrid checkpoint store/reload — is
/// identical to the executed schedule without running the numerics.
fn synth_forward(layer: &dyn GnnLayer, chunk: &ChunkSubgraph) -> LayerForward {
    LayerForward {
        out: Matrix::zeros(chunk.num_dests(), layer.out_dim()),
        agg: layer
            .supports_agg_cache()
            .then(|| Matrix::zeros(1, layer.agg_cache_bytes(chunk) / F32)),
    }
}

/// Sends every neighbor row owned by `server` that a remote GPU needs for
/// batch `j` down that GPU's channel, in neighbor order. All sends finish
/// inside the load phase — before any compute step receives — so the
/// compute-phase drain never blocks, at any pool size. The simulated
/// *cost* of inter-GPU traffic is charged separately (per the dedup plan)
/// by [`charge_neighbor_fetch`]; these channels only carry the data.
fn serve_neighbor_rows(
    ctx: &StepCtx,
    l: usize,
    server: usize,
    j: usize,
    txs: &[Sender<ServeBlock>],
) {
    if ctx.pruned(l, j) {
        return;
    }
    let owner = &ctx.plan.assignment.partition_of;
    for (i, tx) in txs.iter().enumerate() {
        if i == server {
            continue;
        }
        let idx: Vec<usize> = ctx.plan.chunks[i][j]
            .neighbors
            .iter()
            .map(|&v| v as usize)
            .filter(|&v| owner[v] as usize == server)
            .collect();
        if !idx.is_empty() {
            // A fetcher that failed its load step may have dropped its
            // receiver; a closed channel is not an error here.
            let rows = if ctx.synth {
                Matrix::zeros(idx.len(), ctx.h[l].cols())
            } else {
                ctx.h[l].gather_rows(&idx)
            };
            let _ = tx.send(ServeBlock { src: server, rows });
        }
    }
}

/// Assembles `h^l_{N_ij}` for GPU `i`: directly from the host store, or
/// by merging served blocks with locally-owned rows. Served rows are
/// copies of the same host rows in the same neighbor-order sequence, so
/// both paths produce bitwise-identical matrices.
fn assemble_neighbors(ctx: &StepCtx, l: usize, i: usize, j: usize, feed: &NbrFeed) -> Matrix {
    let chunk = &ctx.plan.chunks[i][j];
    if ctx.synth {
        // Schedule synthesis: only the shape matters (downstream charges
        // are derived from the plan, not from this matrix's values).
        return Matrix::zeros(chunk.neighbors.len(), ctx.h[l].cols());
    }
    let nbr_idx: Vec<usize> = chunk.neighbors.iter().map(|&v| v as usize).collect();
    let blocks = match feed {
        NbrFeed::Direct => return ctx.h[l].gather_rows(&nbr_idx),
        NbrFeed::Served(blocks) => blocks,
    };
    let m = ctx.plan.m;
    let mut block_of: Vec<Option<&Matrix>> = vec![None; m];
    for b in blocks {
        debug_assert!(
            block_of[b.src].is_none(),
            "duplicate serve block from GPU {}",
            b.src
        );
        block_of[b.src] = Some(&b.rows);
    }
    let owner = &ctx.plan.assignment.partition_of;
    let mut out = Matrix::zeros(nbr_idx.len(), ctx.h[l].cols());
    let mut cursor = vec![0usize; m];
    for (r, &v) in nbr_idx.iter().enumerate() {
        let o = owner[v] as usize;
        let src_row = if o == i {
            ctx.h[l].row(v)
        } else {
            let blk = block_of[o]
                .unwrap_or_else(|| panic!("no serve block from GPU {o} for fetcher {i} batch {j}"));
            let row = blk.row(cursor[o]);
            cursor[o] += 1;
            row
        };
        out.row_mut(r).copy_from_slice(src_row);
    }
    out
}

/// Load phase of forward batch `j` at layer `l` for GPU `i`:
/// Algorithm 2's host-side loads (ℕ^cpu over PCIe, ℕ^gpu in-place
/// reuse). Inter-GPU fetches wait for the phase barrier.
fn forward_load_step<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
) -> Result<FwLoad, SimError> {
    if ctx.pruned(l, j) {
        return Ok(FwLoad { buf_bytes: 0 });
    }
    let row = ctx.model.layer(l).in_dim() * F32;
    let rows = charge_neighbor_host_load(ctx, tl, l, i, j, row)?;
    Ok(FwLoad {
        buf_bytes: rows * row,
    })
}

/// Compute phase of forward batch `j` at layer `l` for GPU `i`:
/// inter-GPU fetches, the real layer numerics, and the cost of the
/// `h^{l+1}` writeback (Alg 1 line 9) plus the hybrid checkpoint store.
/// The host-store writes themselves are returned as a [`FwOut`] and
/// applied by the leader.
#[allow(clippy::too_many_arguments)]
fn forward_compute_step<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    buf_bytes: usize,
    feed: &NbrFeed,
) -> Result<FwOut, SimError> {
    if ctx.pruned(l, j) {
        return Ok(FwOut {
            out: Matrix::zeros(0, 0),
            agg: None,
        });
    }
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let out_dim = layer.out_dim();
    let row = layer.in_dim() * F32;

    // -- GPU memory for this batch --
    let topo = chunk.topology_bytes();
    let out_bytes = chunk.num_dests() * out_dim * F32;
    let inter = layer.intermediate_bytes(chunk);
    tl.alloc(i, topo, "chunk topology")?;
    tl.alloc(i, out_bytes, "layer output")?;
    tl.alloc(i, inter, "intermediate data")?;
    if ctx.topology_upload_layer(l, j) {
        // Topology streamed in once per epoch (reused across layers),
        // at the batch's first active layer.
        tl.tag([Access::write(topology(i), chunk_region(i, j))]);
        tl.h2d(i, topo);
    }

    // -- inter-GPU fetches (Algorithm 2): sources resident post-barrier --
    charge_neighbor_fetch(ctx, tl, l, i, j, row);

    // -- real numerics (placeholders under schedule synthesis) --
    let f = if ctx.synth {
        synth_forward(layer, chunk)
    } else {
        let h_nbr = assemble_neighbors(ctx, l, i, j, feed);
        layer.forward(chunk, &h_nbr)
    };
    let flops = layer.forward_flops(chunk);
    tl.tag([
        Access::read(dev_rep(i), Region::All)
            .with_prov(Provenance::new(ContribKind::Aggregate, l, j).rows(chunk.num_neighbors())),
        Access::read(topology(i), chunk_region(i, j)),
    ]);
    tl.gpu_dense(i, flops.dense);
    tl.gpu_edge(i, flops.edge);

    // -- write back h^{l+1}_{V_ij} (line 9): cost here, data via FwOut --
    tl.tag([Access::write(rep(l + 1), chunk_region(i, j)).with_prov(
        Provenance::new(ContribKind::ActStore, l + 1, j)
            .owned_by(i)
            .rows(chunk.num_dests()),
    )]);
    tl.d2h(i, out_bytes);

    // -- hybrid checkpoint --
    let mut agg = None;
    if ctx.checkpoint && layer.supports_agg_cache() {
        let a = f.agg.expect("cache-capable layer must emit an aggregate");
        tl.tag([Access::write(agg_slot(l, i, j), Region::All).with_prov(
            Provenance::new(ContribKind::CkptStore, l, j)
                .owned_by(i)
                .rows(chunk.num_dests()),
        )]);
        tl.d2h(i, a.byte_size());
        agg = Some(a);
    }

    // -- release this batch's data (checkpointed to CPU) --
    // Track the neighbor buffer inside the same alloc/free window.
    tl.free(i, topo + out_bytes + inter + buf_bytes);
    Ok(FwOut { out: f.out, agg })
}

/// Load phase of backward batch `j` at layer `l` for GPU `i`
/// (Alg 1 lines 14–16): the `∇h^{l+1}` load plus the
/// strategy-dependent checkpoint reload (cached aggregate for the
/// hybrid path, dedup neighbor reload for recomputation).
fn backward_load_step<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
) -> Result<BwLoad, SimError> {
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let out_dim = layer.out_dim();
    let row = layer.in_dim() * F32;
    let use_hybrid = ctx.checkpoint && layer.supports_agg_cache();

    // -- load ∇h^{l+1}_{V_ij} from CPU (line 16) --
    let grad_out_bytes = chunk.num_dests() * out_dim * F32;
    tl.tag([Access::read(grad(l + 1), Region::All)]);
    tl.h2d(i, grad_out_bytes);
    let grad_out = if ctx.synth {
        Matrix::zeros(chunk.num_dests(), out_dim)
    } else {
        let dest_idx: Vec<usize> = chunk.dests.iter().map(|&v| v as usize).collect();
        ctx.grad_h[l + 1].gather_rows(&dest_idx)
    };

    let topo = chunk.topology_bytes();
    tl.alloc(i, topo, "chunk topology (bwd)")?;
    let inter = layer.intermediate_bytes(chunk);
    tl.alloc(i, inter, "regenerated intermediates")?;

    let buf_bytes = if use_hybrid {
        // Load the cached aggregate (O(|V_ij|) H2D).
        let bytes = ctx.agg_cache[l][i][j]
            .as_ref()
            .expect("hybrid checkpoint missing — was forward run?")
            .byte_size();
        tl.alloc(i, bytes, "aggregate checkpoint")?;
        tl.tag([Access::read(agg_slot(l, i, j), Region::All).with_prov(
            Provenance::new(ContribKind::CkptReload, l, j)
                .owned_by(i)
                .rows(chunk.num_dests()),
        )]);
        tl.h2d(i, bytes);
        bytes
    } else {
        // Reload h^l_{N_ij} through dedup comm (host half).
        let rows = charge_neighbor_host_load(ctx, tl, l, i, j, row)?;
        rows * row
    };
    Ok(BwLoad {
        grad_out,
        topo,
        inter,
        buf_bytes,
    })
}

/// Compute phase of backward batch `j` at layer `l` for GPU `i`
/// (Algorithm 3): recompute + gradient numerics, local gradient
/// accumulation into the merged transition-gradient buffer, and the
/// inter-GPU gradient pushes. Returns the neighbor gradients `∇h^l_{N_ij}`
/// for the leader to accumulate into the host store.
#[allow(clippy::too_many_arguments)]
fn backward_compute_step<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    load: &BwLoad,
    grads: &mut LayerGrads,
    feed: &NbrFeed,
) -> Result<Matrix, SimError> {
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let row = layer.in_dim() * F32;
    let use_hybrid = ctx.checkpoint && layer.supports_agg_cache();
    let fwd = layer.forward_flops(chunk);
    let bwd = layer.backward_flops(chunk);
    // Neighbor gradients land in the merged transition-gradient buffer
    // via atomic accumulation, which commutes with remote pushes
    // arriving during the same phase.
    let local_rows = match ctx.comm {
        CommMode::Vanilla => chunk.num_neighbors(),
        CommMode::P2p | CommMode::P2pRu => ctx.dedup.batches[j].fetch[i][i],
    };
    let acc = Access::accum(dev_grad(i), Region::All)
        .with_gen(j as u32)
        .with_prov(
            Provenance::new(ContribKind::GradLocal, l, j)
                .owned_by(i)
                .rows(local_rows),
        );

    let grad_nbr = if use_hybrid {
        // Recompute UPDATE only from the cached aggregate.
        let agg = ctx.agg_cache[l][i][j]
            .as_ref()
            .expect("hybrid checkpoint missing — was forward run?");
        tl.tag([Access::read(topology(i), chunk_region(i, j)), acc]);
        tl.gpu_dense(i, fwd.dense); // UPDATE recompute
        tl.gpu_dense(i, bwd.dense);
        tl.gpu_edge(i, bwd.edge);
        if ctx.synth {
            Matrix::zeros(chunk.neighbors.len(), layer.in_dim())
        } else {
            layer.backward_from_agg(chunk, agg, &load.grad_out, grads)
        }
    } else {
        // Inter-GPU half of the neighbor reload, then full re-forward.
        charge_neighbor_fetch(ctx, tl, l, i, j, row);
        let h_nbr = assemble_neighbors(ctx, l, i, j, feed);
        tl.tag([
            Access::read(dev_rep(i), Region::All).with_prov(
                Provenance::new(ContribKind::Aggregate, l, j).rows(chunk.num_neighbors()),
            ),
            Access::read(topology(i), chunk_region(i, j)),
            acc,
        ]);
        tl.gpu_dense(i, fwd.dense); // full re-forward
        tl.gpu_edge(i, fwd.edge);
        tl.gpu_dense(i, bwd.dense);
        tl.gpu_edge(i, bwd.edge);
        if ctx.synth {
            Matrix::zeros(chunk.neighbors.len(), layer.in_dim())
        } else {
            layer.backward_from_input(chunk, &h_nbr, &load.grad_out, grads)
        }
    };

    // -- push remote transition gradients to their owner GPUs --
    charge_gradient_push(ctx, tl, l, i, j, row);
    Ok(grad_nbr)
}

/// Evict phase of backward batch `j` at layer `l` for GPU `i`: all
/// pushes into this GPU's gradient buffer have landed (phase
/// barrier), so evict to the host store and release batch memory.
fn backward_evict_step<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    load: &BwLoad,
) {
    let row = ctx.model.layer(l).in_dim() * F32;
    charge_gradient_evict(ctx, tl, l, i, j, row);
    tl.free(i, load.topo + load.inter + load.buf_bytes);
}

/// Charges the host half of loading `h^l_{N_ij}` (Algorithm 2 phase A):
/// PCIe loads of the rows this GPU owns plus ℕ^gpu in-place reuse.
/// Returns the rows resident in GPU `i`'s merged buffer for this batch
/// (for memory accounting). The inter-GPU half runs after the phase
/// barrier in [`charge_neighbor_fetch`].
fn charge_neighbor_host_load<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    row: usize,
) -> Result<usize, SimError> {
    let chunk = &ctx.plan.chunks[i][j];
    let batch = &ctx.dedup.batches[j];
    // Frozen hot-vertex cache table (layer 0 only): `hits` rows of the
    // scheduled host load are already resident in HBM and skip PCIe;
    // `installs > 0` means rows loaded now become resident at sweep end,
    // so the install write rides the load's own H2D event. Provenance
    // row totals stay the *full* schedule either way — the cache changes
    // how rows arrive, never how many the dataflow ledger moves.
    let cs = ctx.cache_stats(l, i, j);
    let cache_hit_charge = |tl: &mut T| {
        if cs.hits > 0 {
            // Cache-resident rows are an HBM copy, not a PCIe transfer.
            tl.tag([Access::read(dev_cache(i), Region::All)]);
            tl.reuse(i, cs.hits * row);
        }
    };
    let rows = match ctx.comm {
        CommMode::Vanilla => {
            let rows = chunk.num_neighbors();
            // Rows whose owner partition sits on the other socket cross
            // the QPI link (partitions map to sockets pairwise).
            let sockets = tl.machine_config().num_sockets;
            let remote = remote_socket_rows(&batch.fetch[i], i, ctx.plan.m, sockets);
            let mut acc = vec![
                Access::read(rep(l), Region::All),
                Access::write(dev_rep(i), Region::All)
                    .with_gen(j as u32)
                    .with_prov(Provenance::new(ContribKind::HostLoad, l, j).rows(rows)),
            ];
            if cs.installs > 0 {
                acc.push(Access::write(dev_cache(i), Region::All));
            }
            tl.tag(acc);
            tl.h2d_mixed(i, (rows - cs.hits) * row, (remote - cs.remote_hits) * row);
            cache_hit_charge(tl);
            rows
        }
        CommMode::P2p => {
            // Host→GPU: the transition subset this GPU owns.
            let mut acc = vec![
                Access::read(rep(l), Region::All),
                Access::write(dev_rep(i), Region::Owned)
                    .with_gen(j as u32)
                    .with_prov(
                        Provenance::new(ContribKind::HostLoad, l, j)
                            .owned_by(i)
                            .rows(batch.transition[i].len()),
                    ),
            ];
            if cs.installs > 0 {
                acc.push(Access::write(dev_cache(i), Region::All));
            }
            tl.tag(acc);
            tl.h2d(i, (batch.transition[i].len() - cs.hits) * row);
            cache_hit_charge(tl);
            // Merged transition+neighbor buffer (§6 "data buffer
            // deduplication"): |ℕ_ij ∪ N_ij|.
            batch.transition[i].len() + chunk.num_neighbors() - batch.fetch[i][i]
        }
        CommMode::P2pRu => {
            // §6-accurate accounting from the in-place buffer plan: every
            // merged-buffer resident row — whether it originally arrived
            // over PCIe or NVLink — is reused in place across adjacent
            // batches; only genuinely new rows move.
            let bc = &ctx.buffer_comm.expect("buffer plan built for P2pRu")[i][j];
            let mut acc = vec![
                Access::read(rep(l), Region::All),
                Access::write(dev_rep(i), Region::Owned)
                    .with_gen(j as u32)
                    .with_prov(
                        Provenance::new(ContribKind::HostLoad, l, j)
                            .owned_by(i)
                            .rows(bc.h2d_rows),
                    ),
            ];
            if cs.installs > 0 {
                acc.push(Access::write(dev_cache(i), Region::All));
            }
            tl.tag(acc);
            tl.h2d(i, (bc.h2d_rows - cs.hits) * row);
            cache_hit_charge(tl);
            if bc.reused_rows > 0 {
                if ctx.reuse_source_live(l, j) {
                    // ℕ^gpu rows deposited by the previous batch stay
                    // resident in the merged buffer and are promoted to
                    // this batch.
                    let prev = Access::read(dev_rep(i), Region::Owned);
                    tl.tag([
                        if j > 0 {
                            prev.with_gen(j as u32 - 1)
                        } else {
                            prev
                        },
                        Access::write(dev_rep(i), Region::Owned)
                            .with_gen(j as u32)
                            .with_prov(
                                Provenance::new(ContribKind::Reuse, l, j).rows(bc.reused_rows),
                            ),
                    ]);
                    tl.reuse(i, bc.reused_rows * row);
                } else {
                    // Serving sweep with batch j−1 pruned: the rows it
                    // would have left resident were never loaded, so they
                    // come over PCIe instead. Same row count, HostLoad
                    // provenance — the pass-9 per-batch totals are
                    // unchanged.
                    tl.tag([
                        Access::read(rep(l), Region::All),
                        Access::write(dev_rep(i), Region::Owned)
                            .with_gen(j as u32)
                            .with_prov(
                                Provenance::new(ContribKind::HostLoad, l, j).rows(bc.reused_rows),
                            ),
                    ]);
                    tl.h2d(i, bc.reused_rows * row);
                }
            }
            bc.buffer_rows
        }
    };
    tl.alloc(i, rows * row, "neighbor buffer")?;
    Ok(rows)
}

/// Charges the inter-GPU half of loading `h^l_{N_ij}` (Algorithm 2
/// phase B): fetch remote transition rows into GPU `i`'s merged buffer.
/// Must run after the phase barrier so every source GPU's owned rows are
/// resident (otherwise the schedule checker reports a W→R race).
fn charge_neighbor_fetch<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    row: usize,
) {
    let batch = &ctx.dedup.batches[j];
    let fetch_rows = |k: usize| -> usize {
        match ctx.comm {
            CommMode::Vanilla => 0,
            CommMode::P2p => batch.fetch[i][k],
            CommMode::P2pRu => {
                ctx.buffer_comm.expect("buffer plan built for P2pRu")[i][j].d2d_rows[k]
            }
        }
    };
    if ctx.comm == CommMode::Vanilla {
        return;
    }
    for k in 0..ctx.plan.m {
        let rows = fetch_rows(k);
        if k != i && rows > 0 {
            // Interleaved schedule: charged to the pulling GPU only.
            tl.tag([
                Access::read(dev_rep(k), Region::Owned).with_gen(j as u32),
                Access::write(dev_rep(i), Region::Fetched)
                    .with_gen(j as u32)
                    .with_prov(
                        Provenance::new(ContribKind::Fetch, l, j)
                            .owned_by(k)
                            .from_gpu(k)
                            .rows(rows),
                    ),
            ]);
            tl.d2d(k, i, rows * row);
            if !ctx.interleaved {
                // Naive schedule: the serving GPU stalls too (deferred to
                // the join when running on a per-GPU shard).
                tl.source_stall(k, rows * row);
            }
        }
    }
}

/// Charges the inter-GPU gradient pushes of Algorithm 3: remote
/// transition-vertex gradients are atomically added into the owning
/// GPUs' merged gradient buffers (time charged to the pusher).
fn charge_gradient_push<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    row: usize,
) {
    if ctx.comm == CommMode::Vanilla {
        return;
    }
    let batch = &ctx.dedup.batches[j];
    for k in 0..ctx.plan.m {
        if k != i && batch.fetch[i][k] > 0 {
            tl.tag([Access::accum(dev_grad(k), Region::All)
                .with_gen(j as u32)
                .with_prov(
                    Provenance::new(ContribKind::GradPush, l, j)
                        .owned_by(k)
                        .from_gpu(i)
                        .rows(batch.fetch[i][k]),
                )]);
            tl.d2d(k, i, batch.fetch[i][k] * row);
            tl.gpu_edge(i, (batch.fetch[i][k] * row / F32) as f64);
        }
    }
}

/// Charges the gradient eviction of Algorithm 3: accumulated chunk
/// gradients leave the GPU over PCIe and are added into the host store
/// `∇h^l`. Must run after the phase barrier so every remote push into
/// this GPU's buffer has landed.
fn charge_gradient_evict<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    row: usize,
) {
    let chunk = &ctx.plan.chunks[i][j];
    let batch = &ctx.dedup.batches[j];
    match ctx.comm {
        CommMode::Vanilla => {
            let rows = chunk.num_neighbors();
            let sockets = tl.machine_config().num_sockets;
            let remote = remote_socket_rows(&batch.fetch[i], i, ctx.plan.m, sockets);
            tl.tag([Access::read(dev_grad(i), Region::All)
                .with_gen(j as u32)
                .with_prov(
                    Provenance::new(ContribKind::GradFlush, l, j)
                        .owned_by(i)
                        .rows(rows),
                )]);
            tl.d2h_mixed(i, rows * row, remote * row);
            // Replica gradients of the full neighbor set overlap across
            // GPUs; host-side accumulation commutes.
            tl.tag([Access::accum(grad(l), Region::All)]);
            tl.cpu_accumulate(i, rows * row);
        }
        CommMode::P2p | CommMode::P2pRu => {
            // Evicted transition gradients go D2H and are accumulated on
            // the CPU; reused rows stay resident for the next batch.
            let evicted = if ctx.comm == CommMode::P2pRu {
                let next_reused = if j + 1 < ctx.dedup.n {
                    ctx.dedup.batches[j + 1].reused[i]
                } else {
                    0
                };
                batch.transition[i].len() - next_reused
            } else {
                batch.transition[i].len()
            };
            tl.tag([Access::read(dev_grad(i), Region::All)
                .with_gen(j as u32)
                .with_prov(
                    Provenance::new(ContribKind::GradFlush, l, j)
                        .owned_by(i)
                        .rows(evicted),
                )]);
            tl.d2h(i, evicted * row);
            // Each GPU evicts its owned transition partition — disjoint
            // slices of the host store.
            tl.tag([Access::accum(grad(l), Region::Part(i as u32))]);
            tl.cpu_accumulate(i, evicted * row);
        }
    }
}

// ===================== overlap executor steps =====================
//
// Under `OverlapMode::DoubleBuffer` each layer runs as a software
// pipeline over the batch sequence (`hongtu_stream::pipeline`): within a
// segment, batch j+1's host loads are issued on the copy-in stream,
// batch j computes on the compute stream, and batch j-1's stores drain
// on the copy-out stream. Batches alternate between two statically
// allocated staging slots (`rep_slot`/`grad_slot`, slot = batch % 2), so
// a prefetch always targets the slot the computing batch is *not*
// reading. The one same-segment cross-stream hazard left — the in-place
// ℕ^gpu reuse refill writing the slot the prefetch H2D is also filling —
// is ordered by an explicit `stream_wait` (the cudaStreamWaitEvent
// analogue); the happens-before checker certifies exactly this.
//
// The step functions are infallible: all device memory is the staging
// installed at construction, so there is no per-batch alloc to fail.

/// Copy-in-stream prefetch of forward batch `j` at layer `l` for GPU
/// `i`: the host half of the dedup load (Algorithm 2 phase A) into
/// staging slot `j % 2`. The ℕ^gpu in-place reuse is *not* issued here —
/// it runs on the compute stream of the previous batch, behind a stream
/// wait (see [`ov_reuse_handoff`]).
fn ov_forward_prefetch<T: Timeline>(ctx: &StepCtx, tl: &mut T, l: usize, i: usize, j: usize) {
    if ctx.pruned(l, j) {
        return;
    }
    tl.set_stream(StreamId::CopyIn.id());
    if ctx.topology_upload_layer(l, j) {
        // Topology streamed in once per epoch (reused across layers),
        // at the batch's first active layer.
        let topo = ctx.plan.chunks[i][j].topology_bytes();
        tl.tag([Access::write(topology(i), chunk_region(i, j))]);
        tl.h2d(i, topo);
    }
    let row = ctx.model.layer(l).in_dim() * F32;
    ov_host_load(ctx, tl, l, i, j, row);
    if ctx.comm == CommMode::P2pRu && !ctx.reuse_source_live(l, j) {
        // Serving sweep with batch j−1 pruned: its compute segment never
        // runs, so the reuse hand-off that would deposit the ℕ^gpu rows
        // into this slot ([`ov_reuse_handoff`]) is skipped — load those
        // rows from the host store on the copy-in stream instead.
        let bc = &ctx.buffer_comm.expect("buffer plan built for P2pRu")[i][j];
        if bc.reused_rows > 0 {
            tl.tag([
                Access::read(rep(l), Region::All),
                Access::write(rep_slot(i, j), Region::Owned)
                    .with_gen(j as u32)
                    .with_prov(Provenance::new(ContribKind::HostLoad, l, j).rows(bc.reused_rows)),
            ]);
            tl.h2d(i, bc.reused_rows * row);
        }
    }
}

/// The host half of the dedup neighbor load for batch `j` (Algorithm 2
/// phase A), aimed at staging slot `j % 2`. Unlike the phased executor's
/// [`charge_neighbor_host_load`], the ℕ^gpu reuse is deferred to the
/// compute stream and nothing is allocated — batches live in the static
/// staging slots.
fn ov_host_load<T: Timeline>(ctx: &StepCtx, tl: &mut T, l: usize, i: usize, j: usize, row: usize) {
    let chunk = &ctx.plan.chunks[i][j];
    let batch = &ctx.dedup.batches[j];
    // Same frozen hot-vertex hit table as [`charge_neighbor_host_load`]:
    // cached rows skip the PCIe charge, install writes ride the H2D
    // event, and provenance row totals stay the full schedule.
    let cs = ctx.cache_stats(l, i, j);
    let cache_hit_charge = |tl: &mut T| {
        if cs.hits > 0 {
            tl.tag([Access::read(dev_cache(i), Region::All)]);
            tl.reuse(i, cs.hits * row);
        }
    };
    match ctx.comm {
        CommMode::Vanilla => {
            let rows = chunk.num_neighbors();
            let sockets = tl.machine_config().num_sockets;
            let remote = remote_socket_rows(&batch.fetch[i], i, ctx.plan.m, sockets);
            let mut acc = vec![
                Access::read(rep(l), Region::All),
                Access::write(rep_slot(i, j), Region::All)
                    .with_gen(j as u32)
                    .with_prov(Provenance::new(ContribKind::HostLoad, l, j).rows(rows)),
            ];
            if cs.installs > 0 {
                acc.push(Access::write(dev_cache(i), Region::All));
            }
            tl.tag(acc);
            tl.h2d_mixed(i, (rows - cs.hits) * row, (remote - cs.remote_hits) * row);
            cache_hit_charge(tl);
        }
        CommMode::P2p => {
            let mut acc = vec![
                Access::read(rep(l), Region::All),
                Access::write(rep_slot(i, j), Region::Owned)
                    .with_gen(j as u32)
                    .with_prov(
                        Provenance::new(ContribKind::HostLoad, l, j)
                            .owned_by(i)
                            .rows(batch.transition[i].len()),
                    ),
            ];
            if cs.installs > 0 {
                acc.push(Access::write(dev_cache(i), Region::All));
            }
            tl.tag(acc);
            tl.h2d(i, (batch.transition[i].len() - cs.hits) * row);
            cache_hit_charge(tl);
        }
        CommMode::P2pRu => {
            let bc = &ctx.buffer_comm.expect("buffer plan built for P2pRu")[i][j];
            let mut acc = vec![
                Access::read(rep(l), Region::All),
                Access::write(rep_slot(i, j), Region::Owned)
                    .with_gen(j as u32)
                    .with_prov(
                        Provenance::new(ContribKind::HostLoad, l, j)
                            .owned_by(i)
                            .rows(bc.h2d_rows),
                    ),
            ];
            if cs.installs > 0 {
                acc.push(Access::write(dev_cache(i), Region::All));
            }
            tl.tag(acc);
            tl.h2d(i, (bc.h2d_rows - cs.hits) * row);
            cache_hit_charge(tl);
        }
    }
}

/// Compute-stream hand-off of the ℕ^gpu rows batch `j` leaves behind for
/// batch `j + 1` (P2P+RU only): an in-place copy from the current slot
/// into the slot the copy-in stream is concurrently prefetching. The
/// stream wait orders it after that H2D — dropping the wait is exactly
/// the eager-refill write/read race the schedule checker rejects.
fn ov_reuse_handoff<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    row: usize,
) {
    if ctx.comm != CommMode::P2pRu || j + 1 >= ctx.dedup.n || ctx.pruned(l, j + 1) {
        // A pruned successor was never prefetched: there is no slot
        // refill to hand rows into (its own prefetch covers the rows
        // from the host if it ever runs again).
        return;
    }
    let bc = &ctx.buffer_comm.expect("buffer plan built for P2pRu")[i][j + 1];
    if bc.reused_rows == 0 {
        return;
    }
    tl.stream_wait(i, StreamId::CopyIn.id());
    tl.tag([
        Access::read(rep_slot(i, j), Region::Owned).with_gen(j as u32),
        Access::write(rep_slot(i, j + 1), Region::Owned)
            .with_gen(j as u32 + 1)
            .with_prov(Provenance::new(ContribKind::Reuse, l, j + 1).rows(bc.reused_rows)),
    ]);
    tl.reuse(i, bc.reused_rows * row);
}

/// Inter-GPU half of the neighbor load (Algorithm 2 phase B) on the
/// compute stream, reading source slots the copy-in stream populated a
/// segment earlier (barrier-ordered, so no stream wait is needed).
fn ov_neighbor_fetch<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    row: usize,
) {
    if ctx.comm == CommMode::Vanilla {
        return;
    }
    let batch = &ctx.dedup.batches[j];
    for k in 0..ctx.plan.m {
        let rows = match ctx.comm {
            CommMode::Vanilla => 0,
            CommMode::P2p => batch.fetch[i][k],
            CommMode::P2pRu => {
                ctx.buffer_comm.expect("buffer plan built for P2pRu")[i][j].d2d_rows[k]
            }
        };
        if k != i && rows > 0 {
            tl.tag([
                Access::read(rep_slot(k, j), Region::Owned).with_gen(j as u32),
                Access::write(rep_slot(i, j), Region::Fetched)
                    .with_gen(j as u32)
                    .with_prov(
                        Provenance::new(ContribKind::Fetch, l, j)
                            .owned_by(k)
                            .from_gpu(k)
                            .rows(rows),
                    ),
            ]);
            tl.d2d(k, i, rows * row);
            if !ctx.interleaved {
                tl.source_stall(k, rows * row);
            }
        }
    }
}

/// Compute-stream work of forward batch `j` at layer `l` for GPU `i`:
/// inter-GPU fetches, the real layer numerics, and the reuse hand-off
/// for batch `j + 1`. The `h^{l+1}` writeback cost is deferred to the
/// copy-out drain one segment later ([`ov_forward_drain`]); the data
/// itself is returned as a [`FwOut`] and leader-applied this segment,
/// exactly as in the phased executor.
fn ov_forward_compute<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
) -> FwOut {
    if ctx.pruned(l, j) {
        return FwOut {
            out: Matrix::zeros(0, 0),
            agg: None,
        };
    }
    tl.set_stream(StreamId::Compute.id());
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let row = layer.in_dim() * F32;

    ov_neighbor_fetch(ctx, tl, l, i, j, row);

    let f = if ctx.synth {
        synth_forward(layer, chunk)
    } else {
        let h_nbr = assemble_neighbors(ctx, l, i, j, &NbrFeed::Direct);
        layer.forward(chunk, &h_nbr)
    };
    let flops = layer.forward_flops(chunk);
    tl.tag([
        Access::read(rep_slot(i, j), Region::All)
            .with_prov(Provenance::new(ContribKind::Aggregate, l, j).rows(chunk.num_neighbors())),
        Access::read(topology(i), chunk_region(i, j)),
    ]);
    tl.gpu_dense(i, flops.dense);
    tl.gpu_edge(i, flops.edge);

    ov_reuse_handoff(ctx, tl, l, i, j, row);

    let agg = (ctx.checkpoint && layer.supports_agg_cache())
        .then(|| f.agg.expect("cache-capable layer must emit an aggregate"));
    FwOut { out: f.out, agg }
}

/// Copy-out-stream drain of forward batch `j` at layer `l` for GPU `i`,
/// one segment behind its compute: the `h^{l+1}` writeback (Alg 1
/// line 9) and the hybrid checkpoint store.
fn ov_forward_drain<T: Timeline>(ctx: &StepCtx, tl: &mut T, l: usize, i: usize, j: usize) {
    if ctx.pruned(l, j) {
        return;
    }
    tl.set_stream(StreamId::CopyOut.id());
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let out_bytes = chunk.num_dests() * layer.out_dim() * F32;
    tl.tag([Access::write(rep(l + 1), chunk_region(i, j)).with_prov(
        Provenance::new(ContribKind::ActStore, l + 1, j)
            .owned_by(i)
            .rows(chunk.num_dests()),
    )]);
    tl.d2h(i, out_bytes);
    if ctx.checkpoint && layer.supports_agg_cache() {
        let bytes = ctx.agg_cache[l][i][j]
            .as_ref()
            .expect("hybrid checkpoint missing — was the compute segment applied?")
            .byte_size();
        tl.tag([Access::write(agg_slot(l, i, j), Region::All).with_prov(
            Provenance::new(ContribKind::CkptStore, l, j)
                .owned_by(i)
                .rows(chunk.num_dests()),
        )]);
        tl.d2h(i, bytes);
    }
}

/// Copy-in-stream prefetch of backward batch `j` at layer `l` for GPU
/// `i` (Alg 1 lines 14–16): the `∇h^{l+1}` load plus the
/// strategy-dependent checkpoint reload, staged into slot `j % 2`.
/// Returns the gathered `∇h^{l+1}_{V_ij}` rows for the compute segment.
fn ov_backward_prefetch<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
) -> Matrix {
    tl.set_stream(StreamId::CopyIn.id());
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let row = layer.in_dim() * F32;

    let grad_out_bytes = chunk.num_dests() * layer.out_dim() * F32;
    tl.tag([Access::read(grad(l + 1), Region::All)]);
    tl.h2d(i, grad_out_bytes);
    let grad_out = if ctx.synth {
        Matrix::zeros(chunk.num_dests(), layer.out_dim())
    } else {
        let dest_idx: Vec<usize> = chunk.dests.iter().map(|&v| v as usize).collect();
        ctx.grad_h[l + 1].gather_rows(&dest_idx)
    };

    if ctx.checkpoint && layer.supports_agg_cache() {
        let bytes = ctx.agg_cache[l][i][j]
            .as_ref()
            .expect("hybrid checkpoint missing — was forward run?")
            .byte_size();
        tl.tag([Access::read(agg_slot(l, i, j), Region::All).with_prov(
            Provenance::new(ContribKind::CkptReload, l, j)
                .owned_by(i)
                .rows(chunk.num_dests()),
        )]);
        tl.h2d(i, bytes);
    } else {
        ov_host_load(ctx, tl, l, i, j, row);
    }
    grad_out
}

/// Compute-stream work of backward batch `j` at layer `l` for GPU `i`
/// (Algorithm 3): recompute + gradient numerics, local accumulation
/// into the staging gradient slot, the reuse hand-off, and the
/// inter-GPU gradient pushes. Returns `∇h^l_{N_ij}` for the leader.
fn ov_backward_compute<T: Timeline>(
    ctx: &StepCtx,
    tl: &mut T,
    l: usize,
    i: usize,
    j: usize,
    grad_out: &Matrix,
    grads: &mut LayerGrads,
) -> Matrix {
    tl.set_stream(StreamId::Compute.id());
    let chunk = &ctx.plan.chunks[i][j];
    let layer = ctx.model.layer(l);
    let row = layer.in_dim() * F32;
    let use_hybrid = ctx.checkpoint && layer.supports_agg_cache();
    let fwd = layer.forward_flops(chunk);
    let bwd = layer.backward_flops(chunk);
    let local_rows = match ctx.comm {
        CommMode::Vanilla => chunk.num_neighbors(),
        CommMode::P2p | CommMode::P2pRu => ctx.dedup.batches[j].fetch[i][i],
    };
    let acc = Access::accum(grad_slot(i, j), Region::All)
        .with_gen(j as u32)
        .with_prov(
            Provenance::new(ContribKind::GradLocal, l, j)
                .owned_by(i)
                .rows(local_rows),
        );

    let grad_nbr = if use_hybrid {
        // Recompute UPDATE only from the cached aggregate.
        let agg = ctx.agg_cache[l][i][j]
            .as_ref()
            .expect("hybrid checkpoint missing — was forward run?");
        tl.tag([Access::read(topology(i), chunk_region(i, j)), acc]);
        tl.gpu_dense(i, fwd.dense); // UPDATE recompute
        tl.gpu_dense(i, bwd.dense);
        tl.gpu_edge(i, bwd.edge);
        if ctx.synth {
            Matrix::zeros(chunk.neighbors.len(), layer.in_dim())
        } else {
            layer.backward_from_agg(chunk, agg, grad_out, grads)
        }
    } else {
        // Inter-GPU half of the neighbor reload, then full re-forward.
        ov_neighbor_fetch(ctx, tl, l, i, j, row);
        let h_nbr = assemble_neighbors(ctx, l, i, j, &NbrFeed::Direct);
        tl.tag([
            Access::read(rep_slot(i, j), Region::All).with_prov(
                Provenance::new(ContribKind::Aggregate, l, j).rows(chunk.num_neighbors()),
            ),
            Access::read(topology(i), chunk_region(i, j)),
            acc,
        ]);
        tl.gpu_dense(i, fwd.dense); // full re-forward
        tl.gpu_edge(i, fwd.edge);
        tl.gpu_dense(i, bwd.dense);
        tl.gpu_edge(i, bwd.edge);
        let g = if ctx.synth {
            Matrix::zeros(chunk.neighbors.len(), layer.in_dim())
        } else {
            layer.backward_from_input(chunk, &h_nbr, grad_out, grads)
        };
        ov_reuse_handoff(ctx, tl, l, i, j, row);
        g
    };

    // -- push remote transition gradients to their owner GPUs' slots --
    if ctx.comm != CommMode::Vanilla {
        let batch = &ctx.dedup.batches[j];
        for k in 0..ctx.plan.m {
            if k != i && batch.fetch[i][k] > 0 {
                tl.tag([Access::accum(grad_slot(k, j), Region::All)
                    .with_gen(j as u32)
                    .with_prov(
                        Provenance::new(ContribKind::GradPush, l, j)
                            .owned_by(k)
                            .from_gpu(i)
                            .rows(batch.fetch[i][k]),
                    )]);
                tl.d2d(k, i, batch.fetch[i][k] * row);
                tl.gpu_edge(i, (batch.fetch[i][k] * row / F32) as f64);
            }
        }
    }
    grad_nbr
}

/// Copy-out-stream drain of backward batch `j` at layer `l` for GPU
/// `i`, one segment behind its compute: all pushes into the staging
/// gradient slot landed before the last batch barrier, so evict the
/// accumulated chunk gradients to the host store (Algorithm 3).
fn ov_backward_drain<T: Timeline>(ctx: &StepCtx, tl: &mut T, l: usize, i: usize, j: usize) {
    tl.set_stream(StreamId::CopyOut.id());
    let chunk = &ctx.plan.chunks[i][j];
    let row = ctx.model.layer(l).in_dim() * F32;
    let batch = &ctx.dedup.batches[j];
    match ctx.comm {
        CommMode::Vanilla => {
            let rows = chunk.num_neighbors();
            let sockets = tl.machine_config().num_sockets;
            let remote = remote_socket_rows(&batch.fetch[i], i, ctx.plan.m, sockets);
            tl.tag([Access::read(grad_slot(i, j), Region::All)
                .with_gen(j as u32)
                .with_prov(
                    Provenance::new(ContribKind::GradFlush, l, j)
                        .owned_by(i)
                        .rows(rows),
                )]);
            tl.d2h_mixed(i, rows * row, remote * row);
            tl.tag([Access::accum(grad(l), Region::All)]);
            tl.cpu_accumulate(i, rows * row);
        }
        CommMode::P2p | CommMode::P2pRu => {
            let evicted = if ctx.comm == CommMode::P2pRu {
                let next_reused = if j + 1 < ctx.dedup.n {
                    ctx.dedup.batches[j + 1].reused[i]
                } else {
                    0
                };
                batch.transition[i].len() - next_reused
            } else {
                batch.transition[i].len()
            };
            tl.tag([Access::read(grad_slot(i, j), Region::All)
                .with_gen(j as u32)
                .with_prov(
                    Provenance::new(ContribKind::GradFlush, l, j)
                        .owned_by(i)
                        .rows(evicted),
                )]);
            tl.d2h(i, evicted * row);
            tl.tag([Access::accum(grad(l), Region::Part(i as u32))]);
            tl.cpu_accumulate(i, evicted * row);
        }
    }
}

/// Sizes GPU `gpu`'s double-buffered staging slots: the worst-case
/// (layer, batch) *input* footprint (chunk topology plus the merged
/// neighbor/transition buffer or checkpoint reload) and *output*
/// footprint (layer output and intermediates awaiting their drain). Two
/// slots of each are pinned for the whole run
/// ([`StagingPlan::total_bytes`]).
fn plan_staging(
    gpu: usize,
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufplans: Option<&[GpuBufferPlan]>,
    model: &GnnModel,
    config: &HongTuConfig,
) -> StagingPlan {
    let mut in_slot = 0usize;
    let mut out_slot = 0usize;
    for l in 0..model.num_layers() {
        let layer = model.layer(l);
        // Inference never reloads hybrid checkpoints, so its staging
        // slots skip the checkpoint-row term entirely.
        let use_hybrid = config.mode == Mode::Train
            && config.memory == MemoryStrategy::Hybrid
            && layer.supports_agg_cache();
        for (j, chunk) in plan.chunks[gpu].iter().enumerate() {
            let (inb, outb) =
                batch_staging_footprint(gpu, l, j, plan, dedup, bufplans, model, config);
            // Forward batch footprint, and the backward one (checkpoint
            // reload in; regenerated intermediates covered by the
            // output-side term).
            in_slot = in_slot.max(inb);
            out_slot = out_slot.max(outb);
            if use_hybrid {
                in_slot = in_slot.max(chunk.topology_bytes() + layer.agg_cache_bytes(chunk));
            }
        }
    }
    StagingPlan {
        gpu,
        in_slot_bytes: in_slot,
        out_slot_bytes: out_slot,
    }
}

/// Staging footprint of forward batch `j` at layer `l` on GPU `gpu`:
/// input bytes (chunk topology plus the merged neighbor/transition
/// buffer) and output bytes (layer output plus intermediates). The
/// per-batch term both [`plan_staging`] and the serving admission check
/// ([`Session::serve_cone_cost`]) are built on, so a cone's cost and
/// the staging budget are always in the same units.
#[allow(clippy::too_many_arguments)]
fn batch_staging_footprint(
    gpu: usize,
    l: usize,
    j: usize,
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufplans: Option<&[GpuBufferPlan]>,
    model: &GnnModel,
    config: &HongTuConfig,
) -> (usize, usize) {
    let layer = model.layer(l);
    let row = layer.in_dim() * F32;
    let chunk = &plan.chunks[gpu][j];
    let topo = chunk.topology_bytes();
    let buf_bytes = match config.comm {
        CommMode::Vanilla => chunk.num_neighbors() * row,
        CommMode::P2p => {
            let b = &dedup.batches[j];
            (b.transition[gpu].len() + chunk.num_neighbors() - b.fetch[gpu][gpu]) * row
        }
        CommMode::P2pRu => bufplans.expect("buffer plans built for P2pRu")[gpu].staging_bytes(row),
    };
    let out_bytes = chunk.num_dests() * layer.out_dim() * F32;
    let inter = layer.intermediate_bytes(chunk);
    (topo + buf_bytes, out_bytes + inter)
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

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_datasets::{load, DatasetKey};
    use hongtu_nn::model::whole_graph_chunk;
    use hongtu_sim::MachineConfig;

    fn small_dataset() -> Dataset {
        let mut rng = SeededRng::new(99);
        load(DatasetKey::Rdt, &mut rng)
    }

    fn engine(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> HongTuEngine {
        HongTuEngine::new(ds, kind, 16, 2, 4, cfg).expect("engine construction")
    }

    fn machine() -> MachineConfig {
        MachineConfig::scaled(4, 256 << 20)
    }

    #[test]
    fn epoch_runs_and_reports_time() {
        let ds = small_dataset();
        let mut e = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));
        let r = e.train_epoch().unwrap();
        assert!(r.time > 0.0);
        assert!(r.loss.loss.is_finite());
        assert!(r.buckets.h2d > 0.0);
        assert!(r.buckets.gpu > 0.0);
        assert_eq!(e.epochs_run(), 1);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = small_dataset();
        let mut e = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));
        let first = e.train_epoch().unwrap().loss.loss;
        let mut last = first;
        for _ in 0..40 {
            last = e.train_epoch().unwrap().loss.loss;
        }
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    /// The paper's central semantics claim: HongTu training matches
    /// single-device full-graph training. We verify the first-epoch loss
    /// and the post-epoch logits against the reference trainer.
    #[test]
    fn matches_reference_full_graph_training() {
        let ds = small_dataset();
        let mut e = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));

        let mut rng = SeededRng::new(ds.seed ^ 0x686F6E67);
        let mut reference = GnnModel::new(ModelKind::Gcn, &ds.model_dims(16, 2), &mut rng);
        let chunk = whole_graph_chunk(&ds.graph);
        let mut opt = Adam::new(0.01);

        for epoch in 0..3 {
            let got = e.train_epoch().unwrap().loss;
            let want = reference.train_epoch_reference(
                &chunk,
                &ds.features,
                &ds.labels,
                &ds.splits.train,
                &mut opt,
            );
            assert!(
                (got.loss - want.loss).abs() < 2e-3 * want.loss.abs().max(1.0),
                "epoch {epoch}: engine loss {} vs reference {}",
                got.loss,
                want.loss
            );
        }
    }

    #[test]
    fn all_comm_modes_same_numerics_different_volume() {
        let ds = small_dataset();
        let mk = |comm| {
            let mut cfg = HongTuConfig::full(machine());
            cfg.comm = comm;
            cfg.reorganize = false;
            engine(&ds, ModelKind::Gcn, cfg)
        };
        let mut vanilla = mk(CommMode::Vanilla);
        let mut p2p = mk(CommMode::P2p);
        let mut ru = mk(CommMode::P2pRu);
        let rv = vanilla.train_epoch().unwrap();
        let rp = p2p.train_epoch().unwrap();
        let rr = ru.train_epoch().unwrap();
        // Identical numerics.
        assert_eq!(rv.loss.loss, rp.loss.loss);
        assert_eq!(rv.loss.loss, rr.loss.loss);
        // Strictly shrinking host-GPU byte volume.
        assert!(rp.buckets.bytes_h2d < rv.buckets.bytes_h2d);
        assert!(rr.buckets.bytes_h2d <= rp.buckets.bytes_h2d);
        // P2P converts host traffic into inter-GPU traffic.
        assert!(rp.buckets.bytes_d2d > rv.buckets.bytes_d2d);
        // And the epoch gets faster.
        assert!(rr.time < rv.time, "RU {} vs vanilla {}", rr.time, rv.time);
    }

    #[test]
    fn hybrid_and_recompute_same_numerics() {
        let ds = small_dataset();
        let mk = |memory| {
            let mut cfg = HongTuConfig::full(machine());
            cfg.memory = memory;
            engine(&ds, ModelKind::Gcn, cfg)
        };
        let mut hybrid = mk(MemoryStrategy::Hybrid);
        let mut recompute = mk(MemoryStrategy::Recompute);
        for _ in 0..2 {
            let rh = hybrid.train_epoch().unwrap();
            let rr = recompute.train_epoch().unwrap();
            assert_eq!(rh.loss.loss, rr.loss.loss);
        }
    }

    #[test]
    fn hybrid_is_cheaper_than_recompute_for_gcn() {
        let ds = small_dataset();
        let mk = |memory| {
            let mut cfg = HongTuConfig::full(machine());
            cfg.memory = memory;
            engine(&ds, ModelKind::Gcn, cfg)
        };
        let rh = mk(MemoryStrategy::Hybrid).train_epoch().unwrap();
        let rr = mk(MemoryStrategy::Recompute).train_epoch().unwrap();
        // Hybrid loads O(|V|) checkpoints instead of O(α|V|) neighbors in
        // the backward pass and skips the AGGREGATE recompute.
        assert!(
            rh.time < rr.time,
            "hybrid {} vs recompute {}",
            rh.time,
            rr.time
        );
    }

    #[test]
    fn gat_trains_and_spends_more_gpu_time_than_gcn() {
        let ds = small_dataset();
        let mut gat = engine(&ds, ModelKind::Gat, HongTuConfig::full(machine()));
        let mut gcn = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));
        let rg = gat.train_epoch().unwrap();
        let rc = gcn.train_epoch().unwrap();
        assert!(rg.loss.loss.is_finite());
        assert!(
            rg.buckets.gpu > rc.buckets.gpu,
            "GAT GPU {} vs GCN {}",
            rg.buckets.gpu,
            rc.buckets.gpu
        );
    }

    #[test]
    fn naive_p2p_schedule_is_slower() {
        let ds = small_dataset();
        let mut cfg = HongTuConfig::full(machine());
        cfg.interleaved = false;
        let naive = engine(&ds, ModelKind::Gcn, cfg).train_epoch().unwrap().time;
        let inter = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()))
            .train_epoch()
            .unwrap()
            .time;
        assert!(naive > inter, "naive {naive} vs interleaved {inter}");
    }

    #[test]
    fn oom_when_gpu_memory_too_small() {
        let ds = small_dataset();
        let cfg = HongTuConfig::full(MachineConfig::scaled(4, 64 << 10));
        let r =
            HongTuEngine::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).and_then(|mut e| e.train_epoch());
        assert!(
            matches!(r, Err(SimError::OutOfMemory { .. })),
            "expected OOM, got ok"
        );
    }

    #[test]
    fn more_chunks_lower_peak_memory() {
        let ds = small_dataset();
        let peak = |chunks| {
            let mut e = HongTuEngine::new(
                &ds,
                ModelKind::Gcn,
                16,
                2,
                chunks,
                HongTuConfig::full(machine()),
            )
            .unwrap();
            e.train_epoch().unwrap();
            e.machine().max_gpu_peak()
        };
        let p2 = peak(2);
        let p8 = peak(8);
        assert!(p8 < p2, "peak with 8 chunks {p8} !< with 2 chunks {p2}");
    }

    #[test]
    fn accuracy_evaluation_works() {
        let ds = small_dataset();
        let mut e = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));
        for _ in 0..30 {
            e.train_epoch().unwrap();
        }
        let val = e.accuracy(&ds.splits.val);
        assert!(val > 0.5, "validation accuracy {val}");
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
    fn overlap_same_numerics_faster_and_more_memory() {
        let ds = small_dataset();
        let mut off = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));
        let mut cfg = HongTuConfig::full(machine());
        cfg.overlap = OverlapMode::DoubleBuffer;
        let mut db = engine(&ds, ModelKind::Gcn, cfg);
        for _ in 0..3 {
            let ro = off.train_epoch().unwrap();
            let rd = db.train_epoch().unwrap();
            // The determinism contract: overlap changes time and memory,
            // never results.
            assert_eq!(ro.loss.loss, rd.loss.loss);
            assert_eq!(ro.loss.accuracy, rd.loss.accuracy);
            assert!(
                rd.time < ro.time,
                "overlapped epoch {} !< additive epoch {}",
                rd.time,
                ro.time
            );
        }
        // The speedup is bought with the second staging buffer.
        assert!(db.machine().max_gpu_peak() > off.machine().max_gpu_peak());
        let staging = db.plans().staging.expect("staging installed");
        assert_eq!(staging.len(), 4);
        assert!(staging.iter().all(|p| p.total_bytes() > 0));
        assert!(off.plans().staging.is_none());
    }

    #[test]
    fn overlap_parallel_matches_sequential_bitwise() {
        let ds = small_dataset();
        let mk = |exec| {
            let mut cfg = HongTuConfig::full(machine());
            cfg.overlap = OverlapMode::DoubleBuffer;
            cfg.exec = exec;
            engine(&ds, ModelKind::Gcn, cfg)
        };
        let mut seq = mk(ExecutionMode::Sequential);
        let mut par = mk(ExecutionMode::Parallel);
        for _ in 0..2 {
            let rs = seq.train_epoch().unwrap();
            let rp = par.train_epoch().unwrap();
            assert_eq!(rs.loss.loss, rp.loss.loss);
            assert_eq!(rs.time, rp.time);
        }
        for g in 0..4 {
            assert_eq!(seq.machine().clock(g), par.machine().clock(g));
        }
    }

    #[test]
    fn overlap_schedules_certify_race_free() {
        let ds = small_dataset();
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for exec in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
                let mut cfg = HongTuConfig::full(machine());
                cfg.comm = comm;
                cfg.exec = exec;
                cfg.overlap = OverlapMode::DoubleBuffer;
                cfg.validation = ValidationLevel::Paranoid;
                let mut e = engine(&ds, ModelKind::Gcn, cfg);
                e.train_epoch()
                    .unwrap_or_else(|err| panic!("{comm:?}/{exec:?}: {err}"));
            }
        }
    }

    #[test]
    fn preprocessing_reports_volumes() {
        let ds = small_dataset();
        let e = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));
        let p = e.preprocessing();
        assert!(p.volumes.v_ori >= p.volumes.v_p2p);
        assert!(p.seconds > 0.0);
    }

    #[test]
    fn builder_defaults_match_full_config() {
        let built = HongTuConfig::builder().machine(machine()).build().unwrap();
        let full = HongTuConfig::full(machine());
        assert_eq!(built.comm, full.comm);
        assert_eq!(built.memory, full.memory);
        assert_eq!(built.reorganize, full.reorganize);
        assert_eq!(built.lr, full.lr);
        assert_eq!(built.interleaved, full.interleaved);
        assert_eq!(built.validation, full.validation);
        assert_eq!(built.exec, full.exec);
        assert_eq!(built.overlap, full.overlap);
        assert_eq!(built.mode, Mode::Train);
    }

    #[test]
    fn builder_scales_machine_from_gpus_and_mem() {
        let cfg = HongTuConfig::builder()
            .gpus(2)
            .gpu_mem_mb(128)
            .infer()
            .build()
            .unwrap();
        assert_eq!(cfg.machine.num_gpus, 2);
        assert_eq!(cfg.machine.gpu_memory, 128 << 20);
        assert_eq!(cfg.mode, Mode::Infer);
    }

    #[test]
    fn builder_rejects_invalid_configurations() {
        // An explicit machine conflicts with gpus/gpu_mem_mb shorthands.
        assert!(HongTuConfig::builder()
            .machine(machine())
            .gpus(2)
            .build()
            .is_err());
        assert!(HongTuConfig::builder().gpus(0).build().is_err());
        assert!(HongTuConfig::builder().gpu_mem_mb(0).build().is_err());
        assert!(HongTuConfig::builder().lr(0.0).build().is_err());
        assert!(HongTuConfig::builder().lr(f32::NAN).build().is_err());
        let err = HongTuConfig::builder().gpus(0).build().unwrap_err();
        assert!(err.to_string().contains("invalid engine configuration"));
    }

    #[test]
    fn infer_epoch_skips_checkpoints_and_matches_forward() {
        let ds = small_dataset();
        let mut cfg = HongTuConfig::full(machine());
        cfg.mode = Mode::Infer;
        let mut session = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
        let r = session.infer_epoch().unwrap();
        assert!(r.time > 0.0);
        // No checkpoint was stored anywhere.
        for per_layer in &session.agg_cache {
            for per_gpu in per_layer {
                assert!(per_gpu.iter().all(|c| c.is_none()));
            }
        }
        // The logits equal a training epoch's forward half (pre-update
        // weights) on an identically-seeded training engine.
        let mut train = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));
        train.train_epoch().unwrap();
        assert_eq!(r.logits, *train.logits());
    }

    #[test]
    #[should_panic(expected = "trainer() on an inference session")]
    fn trainer_on_infer_session_panics() {
        let ds = small_dataset();
        let mut cfg = HongTuConfig::full(machine());
        cfg.mode = Mode::Infer;
        let mut session = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session");
        let _ = session.trainer();
    }

    #[test]
    fn engine_facade_round_trips_through_session() {
        let ds = small_dataset();
        let mut e = engine(&ds, ModelKind::Gcn, HongTuConfig::full(machine()));
        e.train_epoch().unwrap();
        let mut session = e.into_session();
        session.infer_epoch().unwrap();
        let mut e = HongTuEngine::from_session(session);
        e.train_epoch().unwrap();
        assert_eq!(e.epochs_run(), 3);
    }
}
