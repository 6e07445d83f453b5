//! Engine configuration: the [`HongTuConfig`] a session is built from,
//! its validating [`HongTuConfigBuilder`], and the option enums it holds.

use hongtu_cache::{CachePolicy, LoadPattern, Off as CacheOff};
use hongtu_sim::MachineConfig;
use hongtu_stream::OverlapMode;
use hongtu_verify::ValidationLevel;
use std::sync::Arc;

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
    pub(crate) fn kind(self) -> hongtu_verify::CommKind {
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

/// What a [`Session`](crate::Session) is built to run. The mode is fixed at construction
/// because it decides which host and device state exists at all:
/// inference sessions never allocate gradient stores, hybrid checkpoint
/// caches, or optimizer state, so their peak memory is strictly below an
/// otherwise-identical training session's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Full training: forward + backward + parameter update per epoch.
    #[default]
    Train,
    /// Forward-only serving: [`Session::infer_epoch`](crate::Session::infer_epoch) produces per-vertex
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
