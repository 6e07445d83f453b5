//! The one session factory every table builds on.
//!
//! A session's cost is its set-up, and a table's knobs (comm mode, depth,
//! model, link speed) leave most of it unchanged: the level-1 partition
//! depends only on (dataset, GPUs), Alg. 4 only on the plan and the
//! machine. [`Ctx`] computes each once and builds every session with
//! `Session::with_plan` over them — exactly what `Session::new` builds.

use crate::{config::ExperimentConfig as C, SEED};
use hongtu_core::systems::{InMemoryKind, MultiGpuInMemory};
use hongtu_core::{reorganize_guarded, CommMode, HongTuConfigBuilder, Session, SweepStats};
use hongtu_datasets::{load, registry::all_keys, Dataset, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_partition::{multilevel::best_of, Assignment, TwoLevelPartition};
use hongtu_sim::{MachineConfig, SimError};
use hongtu_tensor::SeededRng;
use std::cell::{OnceCell, RefCell, RefMut};
use std::collections::{HashMap, VecDeque};

/// Reorganized plans kept, least recently used out first: each holds a
/// copy of the graph's edges, and no table revisits a plan after more.
const REORGANIZED_KEPT: usize = 8;

/// A reorganized plan under its (dataset, GPUs, chunks) and machine.
type Reorganized = ((DatasetKey, usize, usize), MachineConfig, TwoLevelPartition);

/// Dataset and plan caches shared by every table of a run.
#[derive(Default)]
pub struct Ctx {
    datasets: [OnceCell<Dataset>; 5],
    level1: RefCell<HashMap<(DatasetKey, usize), Assignment>>,
    reorganized: RefCell<VecDeque<Reorganized>>,
    in_memory: RefCell<HashMap<DatasetKey, MultiGpuInMemory>>,
}

impl Ctx {
    /// The proxy for `key`, generated from [`crate::SEED`] on first use.
    pub fn dataset(&self, key: DatasetKey) -> &Dataset {
        let slot = all_keys().iter().position(|&k| k == key).unwrap();
        self.datasets[slot].get_or_init(|| load(key, &mut SeededRng::new(SEED)))
    }

    /// The two-level plan `Session::new` would build for `key` on `gpus`
    /// GPUs with `n` chunks per partition.
    pub fn plan(&self, key: DatasetKey, gpus: usize, n: usize) -> TwoLevelPartition {
        let ds = self.dataset(key);
        let assignment = self
            .level1
            .borrow_mut()
            .entry((key, gpus))
            .or_insert_with(|| best_of(&ds.graph, gpus, ds.seed))
            .clone();
        TwoLevelPartition::from_assignment(&ds.graph, assignment, n)
    }

    /// The in-memory multi-GPU comparator of `kind` for `key` on the 4-GPU
    /// machine. Its constructor partitions the graph the same way for
    /// every kind, so it runs once per dataset.
    pub fn in_memory(&self, kind: InMemoryKind, key: DatasetKey) -> RefMut<'_, MultiGpuInMemory> {
        RefMut::map(self.in_memory.borrow_mut(), |systems| {
            let system = systems.entry(key).or_insert_with(|| {
                MultiGpuInMemory::new(kind, C::machine(4), self.dataset(key), 1)
            });
            system.kind = kind;
            system
        })
    }

    /// A `kind` × `layers` session of `config` (which must validate) on
    /// `key`. The chunk count per partition keeps the *total* number of
    /// subgraphs at its 4-GPU value, so per-chunk memory stays constant
    /// as the GPU count varies.
    pub fn session(
        &self,
        key: DatasetKey,
        kind: ModelKind,
        layers: usize,
        config: HongTuConfigBuilder,
    ) -> Result<Session, SimError> {
        let mut config = config.build().expect("paper configuration");
        let gpus = config.machine.num_gpus;
        let n = (C::chunks(key, kind) * 4).div_ceil(gpus).max(1);
        if !config.reorganize || config.comm == CommMode::Vanilla || config.cache.enabled() {
            let plan = self.plan(key, gpus, n);
            return Session::with_plan(self.dataset(key), kind, C::HIDDEN, layers, plan, config);
        }
        // The guarded Alg. 4 that `Session::with_plan` would run, or a
        // kept result of it.
        let mut kept = self.reorganized.borrow_mut();
        let (at, machine) = ((key, gpus, n), &config.machine);
        let entry = match kept.iter().position(|(k, m, _)| *k == at && m == machine) {
            Some(i) => kept.remove(i).unwrap(),
            None => (
                at,
                machine.clone(),
                reorganize_guarded(self.plan(key, gpus, n), machine),
            ),
        };
        if kept.len() == REORGANIZED_KEPT {
            kept.pop_front();
        }
        kept.push_back(entry);
        let plan = kept.back().unwrap().2.clone();
        config.reorganize = false;
        Session::with_plan(self.dataset(key), kind, C::HIDDEN, layers, plan, config)
    }

    /// The simulated cost of one (and so every) epoch of [`Ctx::session`].
    pub fn simulate(
        &self,
        key: DatasetKey,
        kind: ModelKind,
        layers: usize,
        config: HongTuConfigBuilder,
    ) -> Result<SweepStats, SimError> {
        self.session(key, kind, layers, config)?.simulate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cold and warm caches, with and without Alg. 4, build the session
    /// `Session::new` builds.
    #[test]
    fn session_matches_session_new() {
        let ctx = Ctx::default();
        let key = DatasetKey::Opt;
        for comm in [CommMode::P2pRu, CommMode::Vanilla, CommMode::P2pRu] {
            let cached = ctx
                .session(key, ModelKind::Gcn, 2, C::hongtu(2).comm(comm))
                .unwrap();
            let config = C::hongtu(2).comm(comm).build().unwrap();
            let fresh =
                Session::new(ctx.dataset(key), ModelKind::Gcn, C::HIDDEN, 2, 2, config).unwrap();
            let (a, b) = (cached.plans().partition, fresh.plans().partition);
            assert_eq!(a.assignment.partition_of, b.assignment.partition_of);
            assert_eq!(a.chunks, b.chunks);
            assert_eq!(cached.simulate(), fresh.simulate());
        }
    }
}
