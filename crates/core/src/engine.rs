//! The HongTu execution engine (paper Algorithm 1), structured as a
//! [`Session`] — graph, partition/dedup/staging plans, host store, and
//! the simulated machine, built and validated **once** — and the epochs
//! that run on it:
//!
//! - [`Session::train_epoch`] (usually through a [`Trainer`], which owns
//!   the optimizer state): the full forward/backward training loop of
//!   Algorithm 1;
//! - [`Session::infer_epoch`] / [`Session::serve`] /
//!   [`Session::apply_staged`]: the forward-only path — layer-wise
//!   full-graph inference over the same plans, with no checkpoint stores
//!   and no gradient state, optionally pruned to a query or delta cone.
//!
//! Every epoch is a sequence of layer sweeps; the epoch drivers and the
//! sweep itself — the schedule walk, the per-GPU dispatch and the event
//! emitters — live in [`crate::exec`], what a step occupies in
//! [`crate::footprint`], and the layer math behind
//! [`crate::numerics`].
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
use crate::cone::{self, ConeDir, Seen, VertexIndex};
use crate::cost::CommVolumes;
use crate::dedup::{DedupCounts, DedupPlan};
use crate::exec::{self, Env, F32};
use crate::footprint;
use crate::numerics::{Live, Shapes};
use crate::reorg::reorganize_guarded_cached;
use crate::serve::{Cone, Owned, ServeMask, ServeReport};
use hongtu_cache::{load_sets, CachePlan, CachePolicy, CacheRuntime, LoadPattern, Off as CacheOff};
use hongtu_datasets::Dataset;
use hongtu_delta::{DynamicGraph, StagedCommit};
use hongtu_graph::Graph;
use hongtu_nn::{GnnModel, MaskedLoss, ModelKind};
use hongtu_partition::{ChunkSubgraph, TwoLevelPartition};
use hongtu_sim::{Machine, MachineConfig, SimError, TimeBuckets, Trace};
pub use hongtu_stream::OverlapMode;
use hongtu_stream::StagingPlan;
use hongtu_tensor::{Adam, Matrix, SeededRng};
use hongtu_verify::Report;
pub use hongtu_verify::ValidationLevel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

impl CommMode {
    /// The host-load schedule this mode follows, as the cache sees it.
    pub(crate) fn load_pattern(self) -> LoadPattern {
        match self {
            CommMode::Vanilla => LoadPattern::Vanilla,
            CommMode::P2p => LoadPattern::P2p,
            CommMode::P2pRu => LoadPattern::P2pRu,
        }
    }

    /// This mode, as the dataflow pass names it.
    fn kind(self) -> hongtu_verify::CommKind {
        match self {
            CommMode::Vanilla => hongtu_verify::CommKind::Vanilla,
            CommMode::P2p => hongtu_verify::CommKind::P2p,
            CommMode::P2pRu => hongtu_verify::CommKind::P2pRu,
        }
    }
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
/// Build it with [`HongTuConfig::builder`], which holds the defaults
/// (full HongTu: P2P + RU + hybrid + reorganization) and validates the
/// configuration before any expensive plan construction starts. Fields
/// stay public, so a built configuration can still be adjusted, unchecked.
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

/// The stable code of a failed report's first diagnostic.
fn first_code(report: &Report) -> String {
    report
        .first()
        .map(|d| d.code.code().to_string())
        .unwrap_or_default()
}

/// Converts a failed verification report into the engine error.
fn invalid_plan(report: &Report) -> SimError {
    SimError::InvalidPlan {
        code: first_code(report),
        message: report.render(),
    }
}

/// Converts a failed trace-certification report into the engine error.
fn invalid_schedule(report: &Report) -> SimError {
    SimError::InvalidSchedule {
        code: first_code(report),
        message: report.render(),
    }
}

/// Every plan downstream of the two-level partition: what a session
/// derives at construction and patches when a structural delta moves
/// the topology.
struct DerivedPlans {
    dedup: DedupPlan,
    /// `dedup`'s sets counted: what a full sweep charges.
    counts: DedupCounts,
    /// Merged-buffer index plans of §6 — built for the P2P+RU executor,
    /// and for the verifier in every mode.
    bufplans: Option<Vec<GpuBufferPlan>>,
    buffer_comm: Option<Vec<Vec<BatchComm>>>,
    /// Per-GPU staging sizes (`DoubleBuffer` overlap only).
    staging: Option<Vec<StagingPlan>>,
}

/// The live plans a structural commit patches, and which batches'
/// neighbor lists it moved.
struct Patch<'a> {
    dedup: &'a DedupPlan,
    bufplans: Option<&'a [GpuBufferPlan]>,
    moved: &'a [bool],
}

/// Derives [`DerivedPlans`] from `plan` — from scratch, or by patching
/// `live`'s plans in the batches it moved — and, unless validation is
/// off, statically verifies the whole plan against `g` (passes 1–4): the
/// engine refuses to run a corrupt plan, whatever part of it changed.
/// Pure — nothing is installed.
fn derive_plans(
    plan: &TwoLevelPartition,
    g: &Graph,
    model: &GnnModel,
    config: &HongTuConfig,
    live: Option<Patch<'_>>,
) -> Result<DerivedPlans, SimError> {
    let dedup = match &live {
        Some(live) => live.dedup.patched(plan, live.moved),
        None => DedupPlan::build(plan),
    };
    let bufplans = (config.validation != ValidationLevel::Off || config.comm == CommMode::P2pRu)
        .then(|| match &live {
            Some(Patch {
                bufplans: Some(old),
                moved,
                ..
            }) => old
                .iter()
                .map(|bp| bp.patched(plan, &dedup, moved))
                .collect(),
            _ => GpuBufferPlan::build_all(plan, &dedup),
        });
    if config.validation != ValidationLevel::Off {
        let report = hongtu_verify::verify_all(g, plan, &dedup, bufplans.as_deref().unwrap_or(&[]));
        if !report.is_ok() {
            return Err(invalid_plan(&report));
        }
    }
    // Full dedup mode plans the in-place merged buffers of §6, which
    // also lets reused rows skip the inter-GPU fetch.
    let buffer_comm = build_buffer_comm(plan, bufplans.as_deref(), config.comm);
    // Staging is sized for the worst (layer, batch) footprint and pinned
    // for the whole run, so overlapped epochs have no per-batch
    // allocation churn.
    let counts = dedup.counts();
    let env = Env::new(config, plan, &counts, buffer_comm.as_deref(), model);
    let staging = (config.overlap == OverlapMode::DoubleBuffer).then(|| {
        (0..plan.m)
            .map(|gpu| footprint::staging_plan(&env, gpu))
            .collect()
    });
    Ok(DerivedPlans {
        dedup,
        counts,
        bufplans,
        buffer_comm,
        staging,
    })
}

/// Derives the §6-accurate per-(GPU, batch) communication table of the
/// P2P+RU executor from the merged in-place buffer plans: rows the owner
/// loads host→GPU, rows fetched from each remote GPU, rows reused in
/// place, and the resident buffer capacity. `None` in every other comm
/// mode.
pub(crate) fn build_buffer_comm(
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

/// A plan identity no other plans of this process carry: a cone swept
/// on plans of another identity — its session's before a structural
/// commit, or another session's — is refused before anything runs.
fn next_plan_id() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    LAST.fetch_add(1, Ordering::Relaxed) + 1
}

/// The smaller of two per-GPU budgets on each GPU.
fn tighter(a: &[usize], b: &[usize]) -> Vec<usize> {
    a.iter().zip(b).map(|(&a, &b)| a.min(b)).collect()
}

/// Per-GPU admission budget of the sweep `env` describes: one input plus
/// one output staging slot — the pinned `staging` when there is one,
/// else folded from the per-step footprint.
fn staging_budget(staging: Option<&[StagingPlan]>, env: &Env) -> Vec<usize> {
    match staging {
        Some(plans) => plans.iter().map(StagingPlan::slot_budget).collect(),
        None => (0..env.plan.m)
            .map(|gpu| footprint::staging_plan(env, gpu).slot_budget())
            .collect(),
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

/// What one sweep cost on the simulated clock — an [`InferReport`]
/// without the logits, which stay in the session's store for the caller
/// to read ([`Session::logits`]), copy whole ([`Session::infer_epoch`])
/// or copy a few rows of ([`Session::serve`]). [`Session::simulate`]
/// returns it for the next epoch without running that epoch's numerics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Simulated time in seconds (critical path over GPUs).
    pub time: f64,
    /// Per-component simulated time/volume.
    pub buckets: TimeBuckets,
    /// High-water device memory across GPUs, in bytes, including the
    /// session's static allocations.
    pub peak_gpu_bytes: usize,
    /// High-water host memory in bytes.
    pub peak_host_bytes: usize,
}

/// Result of one committed delta batch ([`Session::apply_staged`]):
/// what the incremental replay cost relative to a full sweep. The
/// post-commit logits stay in the session ([`Session::logits`]), bitwise
/// equal to a from-scratch [`Session::infer_epoch`] on the mutated graph.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// The [`hongtu_delta::DynamicGraph`] epoch the commit produced.
    pub epoch: u64,
    /// Simulated replay time in seconds (critical path over GPUs).
    pub time: f64,
    /// Per-component simulated time/volume of the replay.
    pub buckets: TimeBuckets,
    /// High-water device memory across GPUs, in bytes.
    pub peak_gpu_bytes: usize,
    /// High-water host memory in bytes.
    pub peak_host_bytes: usize,
    /// `(layer, batch)` steps the replay executed on its packed grid —
    /// one batch per run of the session's batches — a step running iff
    /// some GPU's packed chunk of it is non-empty.
    pub active_steps: usize,
    /// `(layer, batch)` steps a full sweep would have executed: `L × n`
    /// on the session's grid.
    pub total_steps: usize,
    /// Destination rows the replay recomputed, summed over layers.
    pub active_rows: usize,
    /// Destination rows a full sweep would have computed (`L × |V|`).
    pub total_rows: usize,
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

/// Borrowed view of every precomputed artifact a [`Session`] executes
/// ([`Session::plans`]).
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BatchComm {
    pub h2d_rows: usize,
    pub d2d_rows: Vec<usize>,
    pub reused_rows: usize,
    pub buffer_rows: usize,
}

/// A validated HongTu execution session: the dataset-derived plans
/// (two-level partition, dedup transition sets, §6 buffer plans,
/// staging), the host-resident stores, the model replica, and the
/// simulated machine — everything every epoch shares, built and
/// verified **once**.
///
/// A session is constructed for one [`Mode`]:
///
/// - [`Mode::Train`] sessions additionally hold the gradient stores
///   `∇h^l`, the hybrid checkpoint cache, and device space for optimizer
///   state; drive them with [`Session::trainer`], or with
///   [`Session::train_epoch`] and a caller-owned [`Adam`].
/// - [`Mode::Infer`] sessions allocate none of that — their peak host
///   and device memory is strictly below the training session's — and
///   run [`Session::infer_epoch`], [`Session::serve`] and
///   [`Session::apply_staged`].
pub struct Session {
    config: HongTuConfig,
    machine: Machine,
    plan: TwoLevelPartition,
    dedup: DedupPlan,
    /// `dedup`'s sets counted: what a full sweep charges.
    counts: DedupCounts,
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
    /// Installed for the duration of a [`Session::serve`] or
    /// [`Session::apply_staged`] sweep: the cone whose packed plans the
    /// sweep runs over. `None` on full-graph epochs.
    cone: Option<Cone>,
    /// The identity of the plans, unique in the process
    /// ([`next_plan_id`]): drawn at construction and by every structural
    /// commit, stamped on every [`Cone`] derived from the plans, and
    /// checked before a cone's sweep runs.
    plan_id: u64,
    /// Vertex → owning `(partition, chunk, row)`, 12 B per vertex: what
    /// the cone recurrences walk in-edges through. Chunk *membership* is
    /// fixed for the session's lifetime, so it is built once.
    index: VertexIndex,
    /// The visited set the cone recurrences stamp, carried from cone to
    /// cone so none pays for the vertices it does not reach.
    seen: Mutex<Seen>,
    /// Each GPU's vertices as a bitmap, for cones sized as bitmaps —
    /// built by the first such cone, not at set-up.
    owned: Owned,
}

impl Session {
    /// Builds the session: partitions the graph (`m` = machine GPU count,
    /// `n` chunks per partition), optionally reorganizes, allocates host
    /// buffers, and replicates model parameters to every simulated GPU.
    ///
    /// A grid the graph cannot fill — more GPUs than vertices, zero chunks,
    /// or more chunks than the smallest level-1 partition has vertices —
    /// is [`SimError::InvalidPlan`] (`P005`), not a panic: both numbers
    /// arrive straight from CLI flags.
    pub fn new(
        dataset: &Dataset,
        kind: ModelKind,
        hidden: usize,
        layers: usize,
        n_chunks: usize,
        config: HongTuConfig,
    ) -> Result<Self, SimError> {
        let (g, m) = (&dataset.graph, config.machine.num_gpus);
        let bad_grid = |message: String| SimError::InvalidPlan {
            code: "P005".to_string(),
            message,
        };
        if m > g.num_vertices() {
            return Err(bad_grid(format!(
                "the machine has {m} GPUs but the graph has only {} vertices",
                g.num_vertices()
            )));
        }
        if n_chunks == 0 {
            return Err(bad_grid(
                "0 chunks per partition requested; need at least 1".to_string(),
            ));
        }
        let assignment = hongtu_partition::multilevel::best_of(g, m, dataset.seed);
        if let Some((i, size)) = assignment
            .sizes()
            .into_iter()
            .enumerate()
            .find(|&(_, size)| size < n_chunks)
        {
            return Err(bad_grid(format!(
                "partition {i} has {size} vertices, fewer than the {n_chunks} chunks \
                 per partition requested"
            )));
        }
        let plan = TwoLevelPartition::from_assignment(g, assignment, n_chunks);
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
        let DerivedPlans {
            dedup,
            counts,
            bufplans,
            buffer_comm,
            staging,
        } = derive_plans(&plan, &dataset.graph, &model, &config, None)?;
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
        let agg_cache = vec![vec![vec![None; plan.n]; m]; model.num_layers()];
        let env = Env::new(&config, &plan, &counts, buffer_comm.as_deref(), &model);
        machine.host_alloc(footprint::checkpoint_store_bytes(&env), "aggregate cache")?;

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

        // ---- double-buffered staging (overlap only): an oversized
        // configuration fails *here*, naming the staging slot and GPU ----
        for p in staging.iter().flatten() {
            p.install(&mut machine)?;
        }

        let index = VertexIndex::new(&plan);
        let mut session = Session {
            config,
            machine,
            plan,
            dedup,
            counts,
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
            cone: None,
            plan_id: next_plan_id(),
            index,
            seen: Mutex::default(),
            owned: Owned::new(),
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
        // FLOP runs — and hold it to the happens-before, lifetime and
        // dataflow passes 6, 7 and 9 ----
        if session.config.validation == ValidationLevel::Paranoid {
            let report = session.certify(None)?;
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

    /// Preprocessing summary (volumes + modeled seconds).
    pub fn preprocessing(&self) -> &Preprocessing {
        &self.preprocessing
    }

    /// The simulated machine (memory peaks, trace).
    pub fn machine(&self) -> &Machine {
        &self.machine
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
        self.release_cache();
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
        let bufs = self.ru_buffer_plans();
        let pattern = self.config.comm.load_pattern();
        let sets = load_sets(&self.plan, &self.dedup, bufs, pattern);
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

    /// Drops the hot-vertex cache and returns its rows' device memory.
    fn release_cache(&mut self) {
        if let Some(old) = self.cache.take() {
            for g in &old.plan().per_gpu {
                if g.bytes > 0 {
                    self.machine.free(g.gpu, g.bytes);
                }
            }
        }
    }

    /// The merged in-place buffer plans of §6 when this session executes
    /// them (P2P+RU); `None` in every other comm mode, even if the plans
    /// were built for the verifier.
    fn ru_buffer_plans(&self) -> Option<&[GpuBufferPlan]> {
        (self.config.comm == CommMode::P2pRu).then(|| {
            self.bufplans
                .as_deref()
                .expect("buffer plans are always built for P2pRu")
        })
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
        let bufs = self.ru_buffer_plans();
        hongtu_verify::verify_cache(
            &self.plan,
            &self.dedup,
            bufs,
            self.config.comm.load_pattern(),
            cache.plan(),
            &headroom,
            cache.log(),
        )
    }

    /// Symbolically synthesizes the annotated event schedule this
    /// session's next sweep would execute — a full epoch of its
    /// [`Mode`], or the forward sweep packed from `cone` — from the plans
    /// and configuration alone: the epoch driver runs over the session's
    /// own plans with the shapes-only numerics ([`Shapes`]), against a
    /// copy of the machine and of the cache runtime (the only two things
    /// a sweep mutates besides the stores). Every H2D/D2D/D2H transfer,
    /// stream assignment, barrier and access annotation is emitted
    /// exactly as a real sweep would emit it — simulated timestamps
    /// included — without computing a single FLOP of GNN math. Records
    /// into `trace` and hands it back with what the sweep cost.
    fn synthesize(
        &self,
        cone: Option<&Cone>,
        trace: Trace,
    ) -> Result<(SweepStats, Trace), SimError> {
        let mut machine = self.machine.clone();
        machine.replace_trace(trace);
        let mut cache = self.cache.clone();
        let env = Env { cone, ..self.env() };
        let (time, buckets) = if cone.is_some() || self.config.mode == Mode::Infer {
            exec::infer_epoch(env, &mut machine, cache.as_mut(), &mut Shapes)?
        } else {
            let (report, _) = exec::train_epoch(env, &mut machine, cache.as_mut(), &mut Shapes)?;
            (report.time, report.buckets)
        };
        let stats = SweepStats {
            time,
            buckets,
            peak_gpu_bytes: machine.max_gpu_peak(),
            peak_host_bytes: machine.host_memory().peak(),
        };
        Ok((stats, machine.replace_trace(Trace::disabled())))
    }

    /// Synthesizes the schedule ([`Session::synthesize`]) and runs the
    /// schedule passes over it: pass 6 (happens-before over the
    /// synthesized DAG), pass 7 (resource lifetime/liveness, L6xx) and
    /// pass 9 (dataflow conservation against the plans, F8xx). A `cone`
    /// is first held to its closure property, on its packed step grid
    /// and row for row (pass 10, C9xx), and its sweep's dataflow is
    /// balanced layer by layer against specs derived from the plans that
    /// layer runs over — the same
    /// [`hongtu_verify::DataflowSpec::from_plans`], over the packed grids.
    fn certify(&self, cone: Option<(Cone, ConeDir)>) -> Result<Report, SimError> {
        let mut report = Report::default();
        let cone = cone.map(|(cone, dir)| {
            report.merge(hongtu_verify::verify_cone(cone.grid(), dir));
            report.merge(hongtu_verify::verify_cone_rows(
                &self.plan,
                cone.mask().rows(),
                dir,
            ));
            cone
        });
        let trace = self.synthesize(cone.as_ref(), Trace::unbounded())?.1;
        report.merge(hongtu_verify::verify_schedule(&trace));
        report.merge(hongtu_verify::verify_dataflow_layers(
            &trace,
            &self.dataflow_specs(cone.as_ref()),
        ));
        Ok(report)
    }

    /// The event schedule the *next* epoch of this session would execute
    /// — a training epoch on a [`Mode::Train`] session, a forward-only
    /// inference epoch on a [`Mode::Infer`] one — event-for-event
    /// identical, simulated timestamps included, to the trace that epoch
    /// will record. The session itself is not perturbed.
    pub fn synthesize_schedule(&self) -> Result<Trace, SimError> {
        Ok(self.synthesize(None, Trace::unbounded())?.1)
    }

    /// What the *next* epoch of this session would cost on the simulated
    /// clock — time, buckets, and the machine's peaks after it — bitwise
    /// equal to what that epoch reports, from the same synthesizer as
    /// [`Session::synthesize_schedule`] with tracing off. An epoch that
    /// would run out of memory returns the same [`SimError::OutOfMemory`].
    /// The session itself is not perturbed.
    pub fn simulate(&self) -> Result<SweepStats, SimError> {
        Ok(self.synthesize(None, Trace::disabled())?.0)
    }

    /// Statically certifies this session's epoch schedule (passes 6, 7
    /// and 9).
    ///
    /// `_explore` is ignored (pass 8 is retired); `benchmark/src/probes.rs` still passes it.
    pub fn certify_schedule(&self, _explore: Option<usize>) -> Result<Report, SimError> {
        self.certify(None)
    }

    /// Statically certifies dataflow conservation alone (pass 9):
    /// synthesizes the epoch schedule and balances its provenance
    /// annotations against a [`hongtu_verify::DataflowSpec`] derived
    /// independently from the partition/dedup/buffer plans.
    pub fn certify_dataflow(&self) -> Result<Report, SimError> {
        let trace = self.synthesize(None, Trace::unbounded())?.1;
        Ok(hongtu_verify::verify_dataflow_layers(
            &trace,
            &self.dataflow_specs(None),
        ))
    }

    /// The pruned sweep a [`Session::serve`] call for `vertices` would
    /// execute.
    pub fn synthesize_serve_schedule(&self, vertices: &[usize]) -> Result<Trace, SimError> {
        Ok(self
            .synthesize(Some(&self.query_cone(vertices)?), Trace::unbounded())?
            .1)
    }

    /// Statically certifies the pruned serving sweep for `vertices`:
    /// downward closure of the query cone (pass 10) plus passes 6, 7 and
    /// 9 over the synthesized schedule.
    pub fn certify_serve(&self, vertices: &[usize]) -> Result<Report, SimError> {
        self.certify(Some((self.query_cone(vertices)?, ConeDir::Downward)))
    }

    /// The pruned repair sweep an [`Session::apply_staged`] replay for
    /// `dirty` seed vertices would execute against the session's
    /// *current* plans, its cone grown along the out-edges of `graph` —
    /// the topology those plans were built from. Call it after the apply
    /// (on the rebuilt plans, with the committed graph) to certify the
    /// replay that just ran. A `graph` of another vertex count is
    /// [`SimError::GraphMismatch`]; an empty `dirty` or an id the graph
    /// does not have is [`SimError::InvalidQuery`].
    pub fn synthesize_delta_schedule(
        &self,
        graph: &Graph,
        dirty: &[usize],
    ) -> Result<Trace, SimError> {
        let cone = self.dirty_cone(graph, dirty)?;
        Ok(self.synthesize(Some(&cone), Trace::unbounded())?.1)
    }

    /// Statically certifies the incremental repair sweep for `dirty`
    /// seed vertices, grown over `graph` as in
    /// [`Session::synthesize_delta_schedule`]: upward closure of the
    /// affected cone (pass 10) plus passes 6, 7 and 9 over the
    /// synthesized schedule.
    pub fn certify_delta(&self, graph: &Graph, dirty: &[usize]) -> Result<Report, SimError> {
        let cone = self.dirty_cone(graph, dirty)?;
        self.certify(Some((cone, ConeDir::Upward)))
    }

    /// The exact dependency cone of a query for `vertices` — the rows each
    /// layer must compute for their logits ([`ServeMask::from_queries`],
    /// over the session's own vertex index) — packed into the fewest
    /// runs of batches the staging budget allows ([`Session::plan_cone`]).
    /// Derive it once, price it with [`Session::cone_cost`], run it with
    /// [`Session::serve_cone`].
    ///
    /// An empty `vertices` or an id the graph does not have is
    /// [`SimError::InvalidQuery`].
    pub fn query_cone(&self, vertices: &[usize]) -> Result<Cone, SimError> {
        Ok(self.plan_cone(self.query_mask(vertices)?))
    }

    /// [`Session::query_cone`] for a caller that admits cones against its
    /// own per-GPU `budget`: the runs are held to it as well as to the
    /// staging budget ([`Session::plan_cone_within`]).
    pub fn query_cone_within(
        &self,
        vertices: &[usize],
        budget: &[usize],
    ) -> Result<Cone, SimError> {
        Ok(self.plan_cone_within(self.query_mask(vertices)?, budget))
    }

    fn query_mask(&self, vertices: &[usize]) -> Result<ServeMask, SimError> {
        cone::check_seeds("query", self.index.len(), vertices)
            .map_err(|message| SimError::InvalidQuery { message })?;
        let layers = self.model.num_layers();
        Ok(ServeMask::query(
            &self.plan,
            &self.index,
            &mut self.seen(),
            layers,
            vertices,
        ))
    }

    /// The replay cone of the `dirty` seeds over the session's current
    /// plans, grown over `graph`.
    fn dirty_cone(&self, graph: &Graph, dirty: &[usize]) -> Result<Cone, SimError> {
        self.check_graph(graph)?;
        cone::check_seeds("dirty set", self.index.len(), dirty)
            .map_err(|message| SimError::InvalidQuery { message })?;
        Ok(self.plan_cone(self.delta_mask(graph, dirty)))
    }

    /// The delta cone of `dirty` over the session's plans, grown along
    /// the out-edges of `graph`, which must have the session's vertices.
    fn delta_mask(&self, graph: &Graph, dirty: &[usize]) -> ServeMask {
        let layers = self.model.num_layers();
        ServeMask::delta(
            &self.plan,
            &self.index,
            graph,
            &mut self.seen(),
            layers,
            dirty,
        )
    }

    /// The session's cone-growth scratch. A cone that panicked mid-growth
    /// left only stamps of a mark no later cone hands out.
    fn seen(&self) -> MutexGuard<'_, Seen> {
        self.seen.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether `graph` has the session's vertices — what growing a cone
    /// over it or committing a batch staged on it needs.
    fn check_graph(&self, graph: &Graph) -> Result<(), SimError> {
        if graph.num_vertices() == self.index.len() {
            return Ok(());
        }
        Err(SimError::GraphMismatch {
            graph_vertices: graph.num_vertices(),
            session_vertices: self.index.len(),
        })
    }

    /// [`Session::plan_cone`] against `budget`.
    fn pack_within(&self, mask: ServeMask, budget: &[usize]) -> Cone {
        Cone::packed(
            &self.plan,
            mask,
            &self.config,
            &self.model,
            budget,
            &self.owned,
            self.plan_id,
        )
    }

    /// Packs `mask`, which must have been computed over this session's
    /// partition ([`Session::plans`]), into runs of consecutive batches
    /// by the run rule: a run grows by the next batch the cone touches
    /// while every GPU's forward footprint of the merged step fits
    /// [`Session::staging_budget`] at every layer, and a
    /// [`OverlapMode::DoubleBuffer`] sweep keeps two runs or more when the
    /// cone touches two batches or more. A cone each of whose batches fits
    /// the budget on the session's grid packs into runs that fit it too.
    pub fn plan_cone(&self, mask: ServeMask) -> Cone {
        self.pack_within(mask, &self.staging_budget())
    }

    /// [`Session::plan_cone`] held to the caller's per-GPU `budget` as
    /// well: the run rule packs against the smaller of it and the staging
    /// budget on each GPU, so a cone whose batches fit `budget` on the
    /// session's grid is not merged past it.
    pub fn plan_cone_within(&self, mask: ServeMask, budget: &[usize]) -> Cone {
        self.pack_within(mask, &tighter(&self.staging_budget(), budget))
    }

    /// `mask` on the session's grid: every batch its own run, each chunk
    /// cut down to the cone's rows — the grid cones ran on before they
    /// were packed, and the baseline the run rule is measured against.
    #[doc(hidden)]
    pub fn grid_cone(&self, mask: ServeMask) -> Cone {
        let ends = (1..=self.plan.n).collect();
        let loads = self.config.cache.enabled();
        Cone::new(
            &self.plan,
            mask,
            ends,
            self.config.comm,
            loads,
            self.plan_id,
        )
    }

    /// The expected-flow tables pass 9 certifies against: one, from the
    /// session's plans, for every layer of a full sweep; one per layer,
    /// under a cone, from that layer's packed grid — whose sets the
    /// cone only counted, so they are listed here by the same builders
    /// the session's came from.
    fn dataflow_specs(&self, cone: Option<&Cone>) -> Vec<hongtu_verify::DataflowSpec> {
        use hongtu_verify::DataflowSpec;
        let kind = self.config.comm.kind();
        match cone {
            None => vec![DataflowSpec::from_plans(
                &self.plan,
                &self.dedup,
                self.ru_buffer_plans(),
                kind,
            )],
            Some(cone) => (0..cone.mask().layers())
                .map(|l| {
                    let plan = cone.plan(l);
                    let dedup = DedupPlan::build(plan);
                    let bufplans = (self.config.comm == CommMode::P2pRu)
                        .then(|| GpuBufferPlan::build_all(plan, &dedup));
                    DataflowSpec::from_plans(plan, &dedup, bufplans.as_deref(), kind)
                })
                .collect(),
        }
    }

    /// The environment of a full sweep of this session's [`Mode`] over
    /// its current plans.
    fn env(&self) -> Env<'_> {
        Env::new(
            &self.config,
            &self.plan,
            &self.counts,
            self.buffer_comm.as_deref(),
            &self.model,
        )
    }

    /// Static peak-memory bound per tier, derived from the plans alone by
    /// the same per-step [`footprint`] the executor allocates from:
    /// replicated parameters (plus optimizer state on training sessions),
    /// the pinned staging slots under [`OverlapMode::DoubleBuffer`], and
    /// otherwise the worst (layer, batch) step of the phased executor.
    /// The bound dominates (≥) the simulator's measured per-GPU and host
    /// peaks for every supported configuration.
    pub fn static_memory_bound(&self) -> StaticMemoryBound {
        let env = self.env();
        let train = self.config.mode == Mode::Train;
        let param_copies = if train { 3 } else { 1 };
        let base = self.model.param_bytes() * param_copies;

        let gpu = (0..self.plan.m)
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
                        None => footprint::worst(&env, i, |fp| fp.resident(train)),
                    }
            })
            .collect();

        // Host: layer stores h^l (+ ∇h^l on training sessions) and the
        // hybrid aggregate cache — all allocated at construction.
        let v = self.h[0].rows();
        let mut host: usize = self.h.iter().map(|hl| v * hl.cols() * F32).sum();
        if train {
            host *= 2;
        }
        host += footprint::checkpoint_store_bytes(&env);
        StaticMemoryBound { gpu, host }
    }

    /// Per-GPU serving admission budget in bytes: one input plus one
    /// output staging slot, as the overlap executor sizes them
    /// ([`StagingPlan::slot_budget`]) — taken from the pinned plans when
    /// overlap is on, folded from the same per-step footprint on demand
    /// otherwise. A full-graph sweep's worst batch fits this by
    /// construction, and the cone packer merges batches only while the
    /// merged steps fit it.
    pub fn staging_budget(&self) -> Vec<usize> {
        staging_budget(self.staging.as_deref(), &self.env())
    }

    /// Per-GPU staging cost of a cone: the worst forward footprint over
    /// the `(layer, run)` steps of its packed grid that run, each sized by
    /// its own packed chunk — the same fold as the staging plans, over
    /// fewer and smaller steps. Admission control compares this against
    /// [`Session::staging_budget`].
    pub fn cone_cost(&self, cone: &Cone) -> Vec<usize> {
        let env = Env {
            cone: Some(cone),
            ..self.env()
        };
        (0..self.plan.m)
            .map(|gpu| footprint::worst(&env, gpu, footprint::Footprint::forward))
            .collect()
    }

    /// [`Session::cone_cost`] of the cone `mask` packs into
    /// ([`Session::plan_cone`]) — for callers that hold
    /// only a mask; one that goes on to run the sweep derives the cone
    /// once and prices that.
    pub fn serve_cone_cost(&self, mask: &ServeMask) -> Vec<usize> {
        self.cone_cost(&self.plan_cone(mask.clone()))
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
    /// Most callers reach this through [`Trainer::epoch`], which owns the
    /// [`Adam`] state. Callers that need `&mut Session` between epochs
    /// own the optimizer themselves and call this directly. Either way
    /// **one** optimizer must live across the epochs of a run: a fresh
    /// [`Adam`] per epoch re-zeroes the moments and silently changes the
    /// loss curve.
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
        let sweep = self.epoch_certified(Self::infer_epoch_inner)?;
        Ok(InferReport {
            logits: self.logits().clone(),
            time: sweep.time,
            buckets: sweep.buckets,
            peak_gpu_bytes: sweep.peak_gpu_bytes,
            peak_host_bytes: sweep.peak_host_bytes,
        })
    }

    /// Serves exact logits for a subset of vertices: one forward sweep
    /// over plans packed from the queried vertices' exact ≤ L-hop
    /// dependency cone ([`Session::query_cone`]), run as — and, under
    /// [`ValidationLevel::Paranoid`], certified like — a
    /// [`Session::infer_epoch`]. The returned logits rows follow the
    /// query order and are bitwise equal to the same rows of a full
    /// inference epoch: every layer kernel is row-independent and reduces
    /// each row over its in-edges in their stored order, which packing
    /// keeps.
    ///
    /// Admission control lives above this call (`hongtu-serving`): a
    /// cone whose worst active step exceeds
    /// [`Session::staging_budget`] should be rejected there instead of
    /// running; `serve` itself executes whatever cone it is given.
    ///
    /// An empty `vertices` or an id the graph does not have is
    /// [`SimError::InvalidQuery`]; nothing runs.
    pub fn serve(&mut self, vertices: &[usize]) -> Result<ServeReport, SimError> {
        let cone = self.query_cone(vertices)?;
        self.serve_cone(vertices, cone)
    }

    /// [`Session::serve`] over a cone the caller already derived for
    /// these `vertices` ([`Session::query_cone`]) — admission control
    /// prices a candidate's cone before running it, and a cone is worth
    /// deriving once.
    ///
    /// The sweep computes the logits of the cone's seeds only, so unless
    /// the cone is a query cone whose seeds include every one of
    /// `vertices` it is [`SimError::InvalidQuery`], as are an empty
    /// `vertices`, an id the graph does not have, and — on a session
    /// with a hot-vertex cache — a cone derived without a cache policy,
    /// which lists no load sets for the cache to freeze. A cone derived
    /// before a structural [`Session::apply_staged`], or by another
    /// session, describes plans the session does not have: it is
    /// [`SimError::StaleCone`]. Either way nothing runs.
    pub fn serve_cone(&mut self, vertices: &[usize], cone: Cone) -> Result<ServeReport, SimError> {
        let invalid = |message| Err(SimError::InvalidQuery { message });
        if let Err(message) = cone::check_seeds("query", self.index.len(), vertices) {
            return invalid(message);
        }
        let origin = cone.mask().origin();
        if origin.dir != ConeDir::Downward {
            return invalid("query: a delta cone computes no query's logits".into());
        }
        let mut seeds = origin.seeds.clone();
        seeds.sort_unstable();
        if let Some(v) = vertices.iter().find(|v| seeds.binary_search(v).is_err()) {
            return invalid(format!("query: vertex {v} is not a seed of the cone"));
        }
        if self.cache.is_some() && cone.load_sets().is_none() {
            return invalid(
                "the cone was derived without a cache, so it lists no load sets".into(),
            );
        }
        let (report, cone) = self.masked_sweep(cone)?;
        let mask = cone.mask();
        Ok(ServeReport {
            logits: self.logits().gather_rows(vertices),
            time: report.time,
            buckets: report.buckets,
            peak_gpu_bytes: report.peak_gpu_bytes,
            peak_host_bytes: report.peak_host_bytes,
            active_steps: cone.active_steps(),
            total_steps: mask.total_steps(),
            active_rows: mask.active_rows(),
            total_rows: mask.total_rows(),
        })
    }

    /// One certified forward sweep over `cone`'s packed plans, which must
    /// have been derived from the session's current plans; hands the cone
    /// back for the report.
    fn masked_sweep(&mut self, cone: Cone) -> Result<(SweepStats, Cone), SimError> {
        if cone.plan_id != self.plan_id {
            return Err(SimError::StaleCone {
                cone_generation: cone.plan_id,
                plan_generation: self.plan_id,
            });
        }
        self.cone = Some(cone);
        let result = self.epoch_certified(Self::infer_epoch_inner);
        let cone = self.cone.take().expect("installed above");
        Ok((result?, cone))
    }

    /// Commits one staged batch of graph mutations
    /// ([`DynamicGraph::stage`]) and incrementally repairs every
    /// host-resident layer store in place: rebuilds exactly the chunk
    /// subgraphs whose computation the mutations changed (destination
    /// membership is kept fixed, so untouched chunks stay bitwise
    /// identical), patches the downstream dedup and buffer plans in the
    /// batches whose neighbor lists moved and re-derives staging and the
    /// cache plan when the topology moved, FIFO-commits the batch,
    /// patches the mutated feature rows into `h^0`, and replays only the
    /// rows of the exact affected cone ([`ServeMask::from_dirty`], grown
    /// over the committed topology) as — and, under
    /// [`ValidationLevel::Paranoid`], certified like — a
    /// [`Session::infer_epoch`].
    ///
    /// The patched logits ([`Session::logits`]) are bitwise equal to a
    /// from-scratch inference epoch on the mutated graph: every row a
    /// replayed slice reads at layer `l` is either bitwise-unchanged in
    /// `h^l` (its in-edge lists, weights, and transitive inputs are
    /// untouched) or was recomputed at layer `l − 1` (`R[l] ⊇ R[l − 1]`
    /// keeps dirty rows covered a layer below, and every row reading a
    /// rewritten one is in `R[l]`). That induction assumes the layer
    /// stores are *current* — run [`Session::infer_epoch`] once after
    /// construction before the first apply (construction zero-fills
    /// `h^{l>0}`).
    ///
    /// Transactional up to the commit. Everything that can refuse the
    /// batch is decided before anything is installed: a `dg`, or a batch
    /// staged on a graph, of another vertex count than the session's is
    /// [`SimError::GraphMismatch`]; a batch staged against another epoch
    /// of `dg` is [`SimError::StaleCommit`]; a
    /// rebuilt plan or replay cone the verifier rejects is
    /// [`SimError::InvalidPlan`]; a replay cone over the caller's budget
    /// ([`Session::apply_staged_within`]) is [`SimError::OverBudget`];
    /// re-pinned staging that does not fit the
    /// device — judged with the old staging and the old hot-vertex cache
    /// released, since both are re-derived — is
    /// [`SimError::OutOfMemory`]. Each leaves the session, its plans, its
    /// cache and `dg` exactly as they were.
    pub fn apply_staged(
        &mut self,
        dg: &mut DynamicGraph,
        staged: StagedCommit,
    ) -> Result<DeltaReport, SimError> {
        self.commit(dg, staged, None)
    }

    /// [`Session::apply_staged`] under an admission budget: the replay
    /// cone — derived once, over the plans the commit rebuilds — is
    /// priced like a query cone ([`Session::cone_cost`]) and the batch is
    /// refused with [`SimError::OverBudget`] if it exceeds `budget` on any
    /// GPU, as transactionally as every other refusal.
    pub fn apply_staged_within(
        &mut self,
        dg: &mut DynamicGraph,
        staged: StagedCommit,
        budget: &[usize],
    ) -> Result<DeltaReport, SimError> {
        self.commit(dg, staged, Some(budget))
    }

    fn commit(
        &mut self,
        dg: &mut DynamicGraph,
        staged: StagedCommit,
        budget: Option<&[usize]>,
    ) -> Result<DeltaReport, SimError> {
        self.check_graph(dg.graph())?;
        self.check_graph(staged.graph())?;
        if staged.base_epoch() != dg.epoch() {
            return Err(SimError::StaleCommit {
                staged_epoch: staged.base_epoch(),
                graph_epoch: dg.epoch(),
            });
        }

        // ---- rebuild the chunk subgraphs whose computation changed: a
        // chunk is stale iff it owns a structurally dirty dest (its edge
        // list or global-degree GCN weights moved). Destination
        // membership is never re-balanced, so every other chunk — and
        // its rows in every h^l — stays bitwise identical. The fresh
        // chunks sit in the partition provisionally: the plans and the
        // replay cone below are derived from them, and any refusal puts
        // the old chunks back. A batch whose chunks all kept their
        // neighbor lists moved only GCN weights, which no plan reads. ----
        let mut replaced: Vec<ChunkSubgraph> = Vec::new();
        let mut moved = vec![false; self.plan.n];
        let structural = !staged.structural().is_empty();
        if structural {
            let mut structural = vec![false; dg.num_vertices()];
            for &s in staged.structural() {
                structural[s] = true;
            }
            for chunk in self.plan.chunks.iter_mut().flatten() {
                if chunk.dests.iter().any(|&d| structural[d as usize]) {
                    let fresh = ChunkSubgraph::build(
                        staged.graph(),
                        chunk.part,
                        chunk.chunk,
                        chunk.dests.clone(),
                    );
                    moved[chunk.chunk] |= fresh.neighbors != chunk.neighbors;
                    replaced.push(std::mem::replace(chunk, fresh));
                }
            }
        }
        let rebuilt = replaced.len();
        // Cones of the old chunks are stale from here; a refusal below
        // puts the old chunks, and their identity, back.
        let live_id = self.plan_id;
        if structural {
            self.plan_id = next_plan_id();
        }
        let (derived, cone) = match self.prepare_commit(&staged, &moved, budget) {
            Ok(prepared) => prepared,
            Err(e) => {
                for old in replaced {
                    let (i, j) = (old.part, old.chunk);
                    self.plan.chunks[i][j] = old;
                }
                self.plan_id = live_id;
                return Err(e);
            }
        };

        // ---- point of no return: install what the topology moved ----
        if let Some(derived) = derived {
            // The cache plan follows the topology too — load sets and
            // degrees moved, rows of the old plan may no longer be
            // scheduled host loads at all — so it is released before the
            // staging it shared the device with is re-pinned, and
            // re-admitted from scratch into the new headroom. The rebuilt
            // runtime starts cold.
            self.release_cache();
            for p in self.staging.iter().flatten() {
                p.uninstall(&mut self.machine);
            }
            for p in derived.staging.iter().flatten() {
                p.install(&mut self.machine)
                    .expect("re-pinned staging was checked to fit");
            }
            self.preprocessing.volumes = CommVolumes::from_plan(&derived.dedup);
            self.dedup = derived.dedup;
            self.counts = derived.counts;
            self.bufplans = derived.bufplans;
            self.buffer_comm = derived.buffer_comm;
            self.staging = derived.staging;
            let degrees: Vec<u32> = (0..dg.num_vertices())
                .map(|u| staged.graph().out_degree(u as u32) as u32)
                .collect();
            self.install_cache(&degrees)?;
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

        let (report, cone) = self.masked_sweep(cone)?;
        let mask = cone.mask();
        Ok(DeltaReport {
            epoch: receipt.epoch,
            time: report.time,
            buckets: report.buckets,
            peak_gpu_bytes: report.peak_gpu_bytes,
            peak_host_bytes: report.peak_host_bytes,
            active_steps: cone.active_steps(),
            total_steps: mask.total_steps(),
            active_rows: mask.active_rows(),
            total_rows: mask.total_rows(),
            dirty_vertices: dirty.len(),
            rebuilt_chunks: rebuilt,
        })
    }

    /// Everything about committing `staged` that can fail, computed
    /// beside the live state with `self.plan` already holding the
    /// rebuilt chunks: the downstream plans (structural batches only),
    /// patched in the batches `moved` flags and verified whole, whether
    /// their staging fits the device, and the verified replay cone, held
    /// to `budget` when there is one. Mutates nothing.
    fn prepare_commit(
        &self,
        staged: &StagedCommit,
        moved: &[bool],
        budget: Option<&[usize]>,
    ) -> Result<(Option<DerivedPlans>, Cone), SimError> {
        let derived = if staged.structural().is_empty() {
            None
        } else {
            let live = Patch {
                dedup: &self.dedup,
                bufplans: self.bufplans.as_deref(),
                moved,
            };
            let derived = derive_plans(
                &self.plan,
                staged.graph(),
                &self.model,
                &self.config,
                Some(live),
            )?;
            // The new pinned set replaces the old staging *and* the old
            // cache (admitted into the headroom the old staging left), so
            // it is held against the device with both released.
            for (new, old) in derived
                .staging
                .iter()
                .flatten()
                .zip(self.staging.iter().flatten())
            {
                let cached = self
                    .cache
                    .as_ref()
                    .map_or(0, |c| c.plan().per_gpu[new.gpu].bytes);
                let mut device = self.machine.gpu_memory(new.gpu).clone();
                device.free(old.total_bytes() + cached);
                device.alloc(new.total_bytes(), "re-pinned staging buffers")?;
            }
            Some(derived)
        };
        // The replay runs under the staging the commit pins: the derived
        // plans' when the topology moved.
        let staging = match &derived {
            Some(d) => staging_budget(
                d.staging.as_deref(),
                &Env::new(
                    &self.config,
                    &self.plan,
                    &d.counts,
                    d.buffer_comm.as_deref(),
                    &self.model,
                ),
            ),
            None => self.staging_budget(),
        };
        // ...and, under an admission budget, held to that too.
        let held = match budget {
            Some(budget) => tighter(&staging, budget),
            None => staging,
        };
        let mask = self.delta_mask(staged.graph(), staged.dirty());
        let cone = self.pack_within(mask, &held);
        if self.config.validation != ValidationLevel::Off {
            let report = hongtu_verify::verify_cone(cone.grid(), ConeDir::Upward);
            if !report.is_ok() {
                return Err(invalid_plan(&report));
            }
        }
        if let Some(budget) = budget {
            let cost = self.cone_cost(&cone);
            if cost.iter().zip(budget).any(|(cost, budget)| cost > budget) {
                return Err(SimError::OverBudget {
                    cone_bytes: cost,
                    budget_bytes: budget.to_vec(),
                });
            }
        }
        Ok((derived, cone))
    }

    /// Splits the session into what an epoch driver takes: the sweep
    /// environment, the machine, the cache runtime, and the live numerics
    /// over the host stores.
    fn parts(&mut self) -> (Env<'_>, &mut Machine, Option<&mut CacheRuntime>, Live<'_>) {
        let env = Env {
            cone: self.cone.as_ref(),
            ..Env::new(
                &self.config,
                &self.plan,
                &self.counts,
                self.buffer_comm.as_deref(),
                &self.model,
            )
        };
        let live = Live {
            model: &self.model,
            h: &mut self.h,
            grad_h: &mut self.grad_h,
            agg_cache: &mut self.agg_cache,
            labels: &self.labels,
            train_mask: &self.train_mask,
            projected: vec![None; self.model.num_layers()],
        };
        (env, &mut self.machine, self.cache.as_mut(), live)
    }

    fn infer_epoch_inner(&mut self) -> Result<SweepStats, SimError> {
        let (env, machine, cache, mut live) = self.parts();
        let (time, buckets) = exec::infer_epoch(env, machine, cache, &mut live)?;
        self.epochs_run += 1;
        Ok(SweepStats {
            time,
            buckets,
            peak_gpu_bytes: self.machine.max_gpu_peak(),
            peak_host_bytes: self.machine.host_memory().peak(),
        })
    }

    fn train_epoch_inner(&mut self, opt: &mut Adam) -> Result<EpochReport, SimError> {
        for g in &mut self.grad_h {
            g.fill_zero();
        }
        let (env, machine, cache, mut live) = self.parts();
        let (report, grads) = exec::train_epoch(env, machine, cache, &mut live)?;
        // Parameter update from the all-reduced gradients (Alg 1 line 21).
        self.model.apply_grads(&grads, opt);
        self.epochs_run += 1;
        Ok(report)
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
}

/// Training executor: borrows a [`Session`] and owns the [`Adam`]
/// optimizer state, so several training runs (each with fresh optimizer
/// moments) can reuse one validated session. One `Trainer` is one run:
/// keep it across the run's epochs — `session.trainer().epoch()` in a
/// loop restarts every epoch from zeroed moments.
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

    fn session(ds: &Dataset, kind: ModelKind, cfg: HongTuConfigBuilder) -> Session {
        let cfg = cfg.build().expect("valid config");
        Session::new(ds, kind, 16, 2, 4, cfg).expect("session construction")
    }

    fn machine() -> MachineConfig {
        MachineConfig::scaled(4, 256 << 20)
    }

    fn config() -> HongTuConfigBuilder {
        HongTuConfig::builder().machine(machine())
    }

    #[test]
    fn epoch_runs_and_reports_time() {
        let ds = small_dataset();
        let mut e = session(&ds, ModelKind::Gcn, config());
        let mut e = e.trainer();
        let r = e.epoch().unwrap();
        assert!(r.time > 0.0);
        assert!(r.loss.loss.is_finite());
        assert!(r.buckets.h2d > 0.0);
        assert!(r.buckets.gpu > 0.0);
        assert_eq!(e.session().epochs_run(), 1);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = small_dataset();
        let mut e = session(&ds, ModelKind::Gcn, config());
        let mut e = e.trainer();
        let first = e.epoch().unwrap().loss.loss;
        let mut last = first;
        for _ in 0..40 {
            last = e.epoch().unwrap().loss.loss;
        }
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    /// The paper's central semantics claim: HongTu training matches
    /// single-device full-graph training. We verify the first-epoch loss
    /// and the post-epoch logits against the reference trainer.
    #[test]
    fn matches_reference_full_graph_training() {
        let ds = small_dataset();
        let mut e = session(&ds, ModelKind::Gcn, config());
        let mut e = e.trainer();

        let mut rng = SeededRng::new(ds.seed ^ 0x686F6E67);
        let mut reference = GnnModel::new(ModelKind::Gcn, &ds.model_dims(16, 2), &mut rng);
        let chunk = whole_graph_chunk(&ds.graph);
        let mut opt = Adam::new(0.01);

        for epoch in 0..3 {
            let got = e.epoch().unwrap().loss;
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
            let cfg = config().comm(comm).reorganize(false);
            session(&ds, ModelKind::Gcn, cfg)
        };
        let mut vanilla = mk(CommMode::Vanilla);
        let mut vanilla = vanilla.trainer();
        let mut p2p = mk(CommMode::P2p);
        let mut p2p = p2p.trainer();
        let mut ru = mk(CommMode::P2pRu);
        let mut ru = ru.trainer();
        let rv = vanilla.epoch().unwrap();
        let rp = p2p.epoch().unwrap();
        let rr = ru.epoch().unwrap();
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
            let cfg = config().memory(memory);
            session(&ds, ModelKind::Gcn, cfg)
        };
        let mut hybrid = mk(MemoryStrategy::Hybrid);
        let mut hybrid = hybrid.trainer();
        let mut recompute = mk(MemoryStrategy::Recompute);
        let mut recompute = recompute.trainer();
        for _ in 0..2 {
            let rh = hybrid.epoch().unwrap();
            let rr = recompute.epoch().unwrap();
            assert_eq!(rh.loss.loss, rr.loss.loss);
        }
    }

    #[test]
    fn hybrid_is_cheaper_than_recompute_for_gcn() {
        let ds = small_dataset();
        let mk = |memory| {
            let cfg = config().memory(memory);
            session(&ds, ModelKind::Gcn, cfg)
        };
        let rh = mk(MemoryStrategy::Hybrid).trainer().epoch().unwrap();
        let rr = mk(MemoryStrategy::Recompute).trainer().epoch().unwrap();
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
        let mut gat = session(&ds, ModelKind::Gat, config());
        let mut gat = gat.trainer();
        let mut gcn = session(&ds, ModelKind::Gcn, config());
        let mut gcn = gcn.trainer();
        let rg = gat.epoch().unwrap();
        let rc = gcn.epoch().unwrap();
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
        let cfg = config().interleaved(false);
        let naive = session(&ds, ModelKind::Gcn, cfg)
            .trainer()
            .epoch()
            .unwrap()
            .time;
        let inter = session(&ds, ModelKind::Gcn, config())
            .trainer()
            .epoch()
            .unwrap()
            .time;
        assert!(naive > inter, "naive {naive} vs interleaved {inter}");
    }

    #[test]
    fn oom_when_gpu_memory_too_small() {
        let ds = small_dataset();
        let cfg = HongTuConfig::builder()
            .machine(MachineConfig::scaled(4, 64 << 10))
            .build()
            .expect("valid config");
        let r =
            Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).and_then(|mut s| s.trainer().epoch());
        assert!(
            matches!(r, Err(SimError::OutOfMemory { .. })),
            "expected OOM, got ok"
        );
    }

    #[test]
    fn more_chunks_lower_peak_memory() {
        let ds = small_dataset();
        let peak = |chunks| {
            let mut s = Session::new(
                &ds,
                ModelKind::Gcn,
                16,
                2,
                chunks,
                config().build().expect("valid config"),
            )
            .unwrap();
            s.trainer().epoch().unwrap();
            s.machine().max_gpu_peak()
        };
        let p2 = peak(2);
        let p8 = peak(8);
        assert!(p8 < p2, "peak with 8 chunks {p8} !< with 2 chunks {p2}");
    }

    #[test]
    fn accuracy_evaluation_works() {
        let ds = small_dataset();
        let mut e = session(&ds, ModelKind::Gcn, config());
        let mut e = e.trainer();
        for _ in 0..30 {
            e.epoch().unwrap();
        }
        let val = e.session().accuracy(&ds.splits.val);
        assert!(val > 0.5, "validation accuracy {val}");
    }

    #[test]
    fn overlap_same_numerics_faster_and_more_memory() {
        let ds = small_dataset();
        let mut off = session(&ds, ModelKind::Gcn, config());
        let mut off = off.trainer();
        let cfg = config().overlap(OverlapMode::DoubleBuffer);
        let mut db = session(&ds, ModelKind::Gcn, cfg);
        let mut db = db.trainer();
        for _ in 0..3 {
            let ro = off.epoch().unwrap();
            let rd = db.epoch().unwrap();
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
        assert!(db.session().machine().max_gpu_peak() > off.session().machine().max_gpu_peak());
        let staging = db.session().plans().staging.expect("staging installed");
        assert_eq!(staging.len(), 4);
        assert!(staging.iter().all(|p| p.total_bytes() > 0));
        assert!(off.session().plans().staging.is_none());
    }

    #[test]
    fn overlap_parallel_matches_sequential_bitwise() {
        let ds = small_dataset();
        let mk = |exec| {
            let cfg = config().overlap(OverlapMode::DoubleBuffer).exec(exec);
            session(&ds, ModelKind::Gcn, cfg)
        };
        let mut seq = mk(ExecutionMode::Sequential);
        let mut seq = seq.trainer();
        let mut par = mk(ExecutionMode::Parallel);
        let mut par = par.trainer();
        for _ in 0..2 {
            let rs = seq.epoch().unwrap();
            let rp = par.epoch().unwrap();
            assert_eq!(rs.loss.loss, rp.loss.loss);
            assert_eq!(rs.time, rp.time);
        }
        for g in 0..4 {
            assert_eq!(
                seq.session().machine().clock(g),
                par.session().machine().clock(g)
            );
        }
    }

    #[test]
    fn overlap_schedules_certify_race_free() {
        let ds = small_dataset();
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for exec in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
                let cfg = config()
                    .comm(comm)
                    .exec(exec)
                    .overlap(OverlapMode::DoubleBuffer)
                    .validation(ValidationLevel::Paranoid);
                let mut e = session(&ds, ModelKind::Gcn, cfg);
                let mut e = e.trainer();
                e.epoch()
                    .unwrap_or_else(|err| panic!("{comm:?}/{exec:?}: {err}"));
            }
        }
    }

    #[test]
    fn preprocessing_reports_volumes() {
        let ds = small_dataset();
        let s = session(&ds, ModelKind::Gcn, config());
        let p = s.preprocessing();
        assert!(p.volumes.v_ori >= p.volumes.v_p2p);
        assert!(p.seconds > 0.0);
    }

    #[test]
    fn builder_defaults_match_full_config() {
        let cfg = HongTuConfig::builder().build().expect("valid config");
        assert_eq!(cfg.comm, CommMode::P2pRu);
        assert_eq!(cfg.memory, MemoryStrategy::Hybrid);
        assert!(cfg.reorganize);
        assert_eq!(cfg.machine.num_gpus, 4);
        assert_eq!(cfg.machine.gpu_memory, 256 << 20);
        assert_eq!(cfg.lr, 0.01);
        assert!(cfg.interleaved);
        assert_eq!(cfg.validation, ValidationLevel::Plan);
        assert_eq!(cfg.exec, ExecutionMode::Sequential);
        assert_eq!(cfg.overlap, OverlapMode::Off);
        assert_eq!(cfg.mode, Mode::Train);
        assert_eq!(cfg.cache.name(), CacheOff.name());
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
        let cfg = config().infer();
        let mut infer = session(&ds, ModelKind::Gcn, cfg);
        let r = infer.infer_epoch().unwrap();
        assert!(r.time > 0.0);
        // No checkpoint was stored anywhere.
        for per_layer in &infer.agg_cache {
            for per_gpu in per_layer {
                assert!(per_gpu.iter().all(|c| c.is_none()));
            }
        }
        // The logits equal a training epoch's forward half (pre-update
        // weights) on an identically-seeded training engine.
        let mut train = session(&ds, ModelKind::Gcn, config());
        let mut train = train.trainer();
        train.epoch().unwrap();
        assert_eq!(r.logits, *train.session().logits());
    }

    #[test]
    #[should_panic(expected = "trainer() on an inference session")]
    fn trainer_on_infer_session_panics() {
        let ds = small_dataset();
        let mut session = session(&ds, ModelKind::Gcn, config().infer());
        let _ = session.trainer();
    }

    /// A dataset over a random id-local web graph with self-loops.
    fn web_dataset(seed: u64, n: usize) -> Dataset {
        use hongtu_datasets::dataset::{with_self_loops, Splits};
        let rng = SeededRng::new(seed);
        let g = hongtu_graph::generators::web_hybrid(n, 5.0, 0.9, 20.0, &mut rng.fork(1));
        let mut frng = rng.fork(2);
        let mut lrng = rng.fork(3);
        Dataset {
            key: DatasetKey::Rdt,
            graph: with_self_loops(&g),
            features: Matrix::from_fn(n, 6, |_, _| frng.normal() * 0.5),
            labels: (0..n).map(|_| lrng.index(3) as u32).collect(),
            splits: Splits::random(n, 0.4, 0.2, &mut rng.fork(4)),
            num_classes: 3,
            seed,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

        /// A structural commit patches the live dedup and buffer plans in
        /// the batches whose neighbor lists moved and shares the rest.
        /// After every commit of a random sequence of edge and feature
        /// batches, in every comm mode, with and without pinned staging,
        /// the session holds exactly what a from-scratch derivation over
        /// its chunks and the committed graph gives: the dedup sets and
        /// their counts, every GPU's buffer plan and capacity, the §6
        /// buffer table, the volumes and the staging plans.
        #[test]
        fn patched_plans_equal_a_fresh_derivation(
            seed in 0u64..1000,
            comm in 0usize..3,
            gpus in 1usize..4,
            chunks in 2usize..6,
            double in 0usize..2,
        ) {
            use hongtu_delta::{toggle_workload, DeltaMix};
            let ds = web_dataset(seed, 300);
            let cfg = HongTuConfig::builder()
                .machine(MachineConfig::scaled(gpus, 512 << 20))
                .comm([CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu][comm])
                .overlap([OverlapMode::Off, OverlapMode::DoubleBuffer][double])
                .infer()
                .build()
                .expect("valid config");
            let mut s = Session::new(&ds, ModelKind::Gcn, 8, 2, chunks, cfg).expect("session");
            s.infer_epoch().expect("initial full sweep");
            let mut dg = DynamicGraph::from_dataset(&ds);
            let workload = toggle_workload(
                dg.graph(),
                ds.features.cols(),
                4,
                2,
                DeltaMix::Mixed,
                &mut SeededRng::new(seed ^ 0x7a7c),
            );
            for batch in &workload {
                let staged = dg.stage(batch).expect("valid batch");
                s.apply_staged(&mut dg, staged).expect("commit");
                let fresh = derive_plans(&s.plan, dg.graph(), &s.model, &s.config, None)
                    .expect("fresh derivation");
                proptest::prop_assert_eq!(&s.dedup, &fresh.dedup);
                proptest::prop_assert_eq!(&s.counts, &fresh.counts);
                proptest::prop_assert_eq!(&s.bufplans, &fresh.bufplans);
                proptest::prop_assert_eq!(&s.buffer_comm, &fresh.buffer_comm);
                proptest::prop_assert_eq!(&s.staging, &fresh.staging);
                proptest::prop_assert_eq!(
                    s.preprocessing.volumes,
                    CommVolumes::from_plan(&fresh.dedup)
                );
            }
        }
    }
}
