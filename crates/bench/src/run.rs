//! Helpers for running HongTu sessions inside experiment binaries.

use crate::config::ExperimentConfig as C;
use hongtu_core::{CommMode, EpochReport, HongTuConfig, Session};
use hongtu_datasets::Dataset;
use hongtu_nn::ModelKind;
use hongtu_sim::SimError;

/// Builds a full-featured HongTu session for the standard experiment
/// configuration (`gpus` GPUs, paper-scaled chunk counts).
pub fn hongtu_session(
    ds: &Dataset,
    kind: ModelKind,
    layers: usize,
    gpus: usize,
) -> Result<Session, SimError> {
    hongtu_session_with(ds, kind, layers, gpus, HongTuConfig::full(C::machine(gpus)))
}

/// Builds a HongTu session with a custom configuration. The chunk count per
/// partition is scaled so the *total* number of subgraphs matches the
/// 4-GPU setting (keeping per-chunk memory constant when varying `gpus`).
pub fn hongtu_session_with(
    ds: &Dataset,
    kind: ModelKind,
    layers: usize,
    gpus: usize,
    config: HongTuConfig,
) -> Result<Session, SimError> {
    let n = (C::chunks(ds.key, kind) * 4).div_ceil(gpus).max(1);
    Session::new(ds, kind, C::hidden(ds.key), layers, n, config)
}

/// One simulated-time epoch of full HongTu. Epoch time is deterministic
/// (the plan is fixed), so a single epoch is the per-epoch time.
pub fn hongtu_epoch(
    ds: &Dataset,
    kind: ModelKind,
    layers: usize,
    gpus: usize,
) -> Result<EpochReport, SimError> {
    hongtu_session(ds, kind, layers, gpus)?.trainer().epoch()
}

/// One epoch with a specific comm/memory configuration.
pub fn hongtu_epoch_with(
    ds: &Dataset,
    kind: ModelKind,
    layers: usize,
    gpus: usize,
    comm: CommMode,
) -> Result<EpochReport, SimError> {
    let mut cfg = HongTuConfig::full(C::machine(gpus));
    cfg.comm = comm;
    cfg.reorganize = comm != CommMode::Vanilla;
    hongtu_session_with(ds, kind, layers, gpus, cfg)?
        .trainer()
        .epoch()
}
