//! The commit path of a [`Session`]: what a structural or feature
//! delta batch ([`Session::apply_staged`]) re-derives, verifies and
//! installs, and the plan derivation [`Session::new`] shares with it.

use super::{
    build_buffer_comm, invalid_plan, next_plan_id, staging_budget, tighter, BatchComm, CommMode,
    DeltaReport, HongTuConfig, Session, ValidationLevel,
};
use crate::buffers::GpuBufferPlan;
use crate::cone::ConeDir;
use crate::cost::CommVolumes;
use crate::dedup::{DedupCounts, DedupPlan};
use crate::exec::Env;
use crate::footprint;
use crate::serve::Cone;
use hongtu_delta::{DynamicGraph, StagedCommit};
use hongtu_graph::Graph;
use hongtu_nn::GnnModel;
use hongtu_partition::TwoLevelPartition;
use hongtu_sim::SimError;
use hongtu_stream::{OverlapMode, StagingPlan};
use hongtu_verify::PlanCertificate;
use std::sync::Arc;

/// Every plan downstream of the two-level partition: what a session
/// derives at construction and patches when a structural delta moves
/// the topology.
pub(super) struct DerivedPlans {
    pub(super) dedup: DedupPlan,
    /// `dedup`'s sets counted: what a full sweep charges.
    pub(super) counts: DedupCounts,
    /// Merged-buffer index plans of §6 — built for the P2P+RU executor,
    /// and for the verifier in every mode.
    pub(super) bufplans: Option<Vec<GpuBufferPlan>>,
    pub(super) buffer_comm: Option<Vec<Vec<BatchComm>>>,
    /// Per-GPU staging sizes (`DoubleBuffer` overlap only).
    pub(super) staging: Option<Vec<StagingPlan>>,
    /// What verifying the plans certified (empty with validation off).
    pub(super) certificate: PlanCertificate,
}

/// The live plans a structural commit patches, which batches' neighbor
/// lists it moved, and the graph update it came from.
pub(super) struct Patch<'a> {
    dedup: &'a DedupPlan,
    bufplans: Option<&'a [GpuBufferPlan]>,
    moved: &'a [bool],
    /// What the live plans' last verification certified.
    certificate: &'a PlanCertificate,
    /// The graph the update was staged against.
    base: &'a Graph,
    /// The topology it produced, which the plans are verified against.
    staged: &'a Arc<Graph>,
}

/// Derives [`DerivedPlans`] from `plan` — from scratch, or by patching
/// `live`'s plans in the batches it moved — and, unless validation is
/// off, statically verifies the whole plan against `g` (passes 1–4): the
/// engine refuses to run a corrupt plan, whatever part of it changed. At
/// [`ValidationLevel::Plan`] a patch is checked against the live plans'
/// certificate, which re-reads only the pieces the patch replaced and
/// reaches `verify_all`'s verdict and report (DESIGN.md, "Plans are
/// patched, verification stays whole"); at `Paranoid` every check reads
/// everything. Pure — nothing is installed.
pub(super) fn derive_plans(
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
    let certificate = if config.validation == ValidationLevel::Off {
        PlanCertificate::default()
    } else {
        let bufs = bufplans.as_deref().unwrap_or(&[]);
        let whole = PlanCertificate::default();
        let checked = match &live {
            Some(live) => {
                let since = match config.validation {
                    ValidationLevel::Plan => live.certificate,
                    _ => &whole,
                };
                since.check_commit(live.base, live.staged, plan, &dedup, bufs)
            }
            None => whole.check(g, plan, &dedup, bufs),
        };
        match checked.certificate {
            Some(certificate) => certificate,
            None => return Err(invalid_plan(&checked.report)),
        }
    };
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
        certificate,
    })
}

impl Session {
    /// Commits one staged batch of graph mutations
    /// ([`DynamicGraph::stage`]) and incrementally repairs every
    /// host-resident layer store in place: replaces exactly the chunk
    /// subgraphs whose computation the mutations changed — patching the
    /// weights of those whose in-lists held, rebuilding the rest (destination
    /// membership is kept fixed, so untouched chunks stay bitwise
    /// identical), patches the downstream dedup and buffer plans in the
    /// batches whose neighbor lists moved and re-derives staging and the
    /// cache plan when the topology moved, FIFO-commits the batch,
    /// patches the mutated feature rows into `h^0`, and replays only the
    /// rows of the exact affected cone ([`ServeMask::from_dirty`](crate::serve::ServeMask::from_dirty), grown
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

        // ---- refresh the chunk subgraphs whose computation changed: a
        // chunk is stale iff it owns a structurally dirty dest (its edge
        // list or global-degree GCN weights moved). Destination
        // membership is never re-balanced, so every other chunk — and
        // its rows in every h^l — stays bitwise identical, and shared. A
        // stale chunk whose destinations kept their in-lists is patched
        // (weights only), the rest rebuilt. The fresh grid sits in the
        // partition provisionally: the plans and the replay cone below
        // are derived from it, and any refusal puts the live grid back.
        // A batch whose chunks all kept their neighbor lists moved only
        // GCN weights, which no plan reads. ----
        let structural = !staged.structural().is_empty();
        let (live_grid, moved, replaced) = if structural {
            let mut stale = vec![false; dg.num_vertices()];
            for &s in staged.structural() {
                stale[s] = true;
            }
            let refresh = self.plan.refreshed(dg.graph(), staged.graph(), &stale);
            let live = std::mem::replace(&mut self.plan.chunks, refresh.chunks);
            (Some(live), refresh.moved, refresh.replaced)
        } else {
            (None, vec![false; self.plan.n], 0)
        };
        // Cones of the old chunks are stale from here; a refusal below
        // puts the old chunks, and their identity, back.
        let live_id = self.plan_id;
        if structural {
            self.plan_id = next_plan_id();
        }
        let (derived, cone) = match self.prepare_commit(dg.graph(), &staged, &moved, budget) {
            Ok(prepared) => prepared,
            Err(e) => {
                if let Some(live) = live_grid {
                    self.plan.chunks = live;
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
            self.certificate = derived.certificate;
            self.install_cache(staged.graph())?;
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
            rebuilt_chunks: replaced,
        })
    }

    /// Everything about committing `staged` that can fail, computed
    /// beside the live state with `self.plan` already holding the
    /// refreshed chunks: the downstream plans (structural batches only),
    /// patched in the batches `moved` flags and verified against the live
    /// certificate (`verify_all`'s verdict), whether
    /// their staging fits the device, and the verified replay cone, held
    /// to `budget` when there is one. Mutates nothing.
    fn prepare_commit(
        &self,
        base: &Graph,
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
                certificate: &self.certificate,
                base,
                staged: staged.shared_graph(),
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
}
