//! HongTu core: the memory-efficient training framework (paper §4), the
//! deduplicated communication framework (paper §5), and the comparator
//! systems used in the evaluation (§7).
//!
//! The execution engine runs *real* training numerics (via `hongtu-nn`)
//! while charging all data movement and compute to the hardware simulator
//! (`hongtu-sim`), so accuracy results are exact and performance results
//! follow the paper's cost structure.
//!
//! Module map:
//! - [`dedup`] — transition-set construction and the per-batch
//!   communication plan (Algorithms 2 & 3, §5.1–5.2); lives in
//!   `hongtu-partition`, re-exported here for back-compat;
//! - [`cost`] — the communication cost model (Equation 4);
//! - [`reorg`] — cost-guided partition reorganization (Algorithm 4, §5.3);
//! - [`buffers`] — in-place transition/neighbor buffer index planning
//!   (§6: stable slots for reused vertices, freed-slot insertion,
//!   merged-buffer deduplication); also re-exported from
//!   `hongtu-partition`;
//! - [`config`] — the session configuration, its validating builder and
//!   its option enums;
//! - [`engine`] — the HongTu session (Algorithm 1): plans, host stores,
//!   and the train / infer / serve / delta entry points;
//! - `exec` — the epoch drivers and the sweep they run: one layer driver
//!   over a schedule that is data, one per-GPU dispatcher, one set of
//!   event emitters (recomputation-caching-hybrid intermediate data
//!   management and deduplicated communication);
//! - `footprint` — the device bytes one `(layer, GPU, batch)` step
//!   occupies, which the executor allocates and the memory bound,
//!   staging plans and serving admission fold over;
//! - `numerics` — the seam between the sweep and the layer math: the
//!   live provider over the session's stores, the shapes-only provider
//!   of schedule synthesis;
//! - [`cone`] — the two exact, vertex-level cone recurrences: the
//!   in-edge query cone and its dual, the out-edge delta cone (they read
//!   nothing but the chunk grid, so they live in `hongtu-partition`,
//!   where the cache journal's verifier can re-grow a cone too);
//! - [`serve`] — a cone as the executor runs it: per layer, the rows each
//!   chunk computes ([`ServeMask`]) and those rows packed into one chunk
//!   per GPU per run of batches ([`Cone`]), which [`Session::serve`]
//!   sweeps like any plans;
//! - `Session::apply_staged` (in [`engine`]) — incremental cone-local
//!   recompute after graph mutations (`hongtu-delta` holds the typed
//!   mutation API and delta log);
//! - [`systems`] — comparator systems: single-GPU full-graph ("DGL"),
//!   multi-GPU in-memory ("Sancus" / HongTu-IM), single-node and
//!   distributed CPU ("DistGNN"), and sampled mini-batch ("DistDGL").

#![forbid(unsafe_code)]
// Indexed loops are deliberate: indices double as GPU/batch identifiers.
#![allow(clippy::needless_range_loop)]

pub mod cli;
pub mod config;
pub mod cost;
pub mod engine;
mod exec;
mod footprint;
mod numerics;
pub mod reorg;
pub mod serve;
pub mod systems;

// The plan-construction modules moved to `hongtu-partition` so that the
// static verifier (`hongtu-verify`) can analyze plans without depending on
// this crate. `crate::dedup::...` paths keep working via these re-exports.
pub use hongtu_partition::{buffers, cone, dedup};

pub use buffers::GpuBufferPlan;
pub use config::{
    CommMode, ConfigError, ExecutionMode, HongTuConfig, HongTuConfigBuilder, MemoryStrategy, Mode,
};
pub use cost::{comm_cost, comm_cost_cached, CommVolumes};
pub use dedup::DedupPlan;
pub use engine::{
    DeltaReport, EpochReport, InferReport, OverlapMode, Plans, Session, StaticMemoryBound,
    SweepStats, Trainer, ValidationLevel,
};
// The hot-vertex cache subsystem (policies, plan, runtime journal) lives
// in `hongtu-cache`; re-exported here so downstream users configure it
// through the same crate that accepts the policy.
pub use hongtu_cache::{
    CachePlan, CachePolicy, CacheRuntime, DegreeRanked, FrequencyRanked, HitStats, Off as CacheOff,
};
pub use reorg::{reorganize, reorganize_guarded, reorganize_guarded_cached};
pub use serve::{Cone, ServeMask, ServeReport};
