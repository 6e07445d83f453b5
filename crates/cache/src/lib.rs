//! Hot-vertex GPU feature caching (ROADMAP "Hot-vertex GPU caching").
//!
//! After `plan_staging` pins its slabs, each GPU is left with a known slice
//! of HBM headroom the static memory bound does not spend. This crate
//! spends *exactly* that headroom on a ranked cache of boundary-vertex
//! **layer-0 feature rows**: the rows every sweep must otherwise pull from
//! host memory over PCIe, again and again, across batches, epochs, and
//! serving queries.
//!
//! Only `h^0` rows are cached. Input features are immutable across epochs
//! (parameter updates touch `h^{l≥1}` every sweep, so caching those would
//! buy one sweep at best), and the delta subsystem patches `h^0` rows in
//! place — the one event that must invalidate cache entries, handled by
//! [`CacheRuntime::invalidate`]. This mirrors the static feature caches of
//! real distributed GNN systems (PaGraph, GNNLab, CaPGNN).
//!
//! The design splits cleanly into a *plan* and a *runtime*:
//!
//! * [`load_sets`] derives `S[i][j]` — the exact vertex set GPU `i` host-
//!   loads in batch `j` under each communication pattern (the dedup plan's
//!   `ℕ^cpu` schedule for deduplicated modes, raw chunk neighbors for
//!   vanilla).
//! * [`CachePlan::build`] ranks the candidate vertices with a pluggable
//!   [`CachePolicy`] (frequency across the load schedule, degree, or off)
//!   and admits the top slice that fits each GPU's headroom. Admission *is*
//!   the eviction policy: the resident set can only ever be a subset of the
//!   admitted set, so nothing is ever evicted at runtime for space.
//! * [`CacheRuntime`] tracks residency with **epoch-granular installs**:
//!   hits for a sweep are frozen against the resident set as it stood when
//!   the sweep began ([`CacheRuntime::begin_sweep`]), and rows loaded during
//!   the sweep are installed only at [`CacheRuntime::end_sweep`]. A sweep's
//!   hit table is therefore a pure function of the plans and the pre-sweep
//!   state — the executor needs no interior mutability, and a synthesized
//!   schedule is bitwise the schedule the executor runs. A cone-pruned
//!   sweep hands in the load sets of its own (packed) layer-0 plans, so
//!   freezing and installing cost what that sweep loads, not what the
//!   whole schedule does.
//!
//! Every state transition is journaled in a [`CacheLog`] so the verifier's
//! pass 11 can replay it against independently recomputed load sets
//! (`H10xx` codes).

#![forbid(unsafe_code)]

use std::fmt;

use hongtu_graph::VertexId;
use hongtu_partition::cone::ConeOrigin;
use hongtu_partition::{DedupPlan, GpuBufferPlan, TwoLevelPartition};
use std::sync::Arc;

/// `S[i][j]`: the sorted vertex set GPU `i` host-loads in batch `j`.
pub type LoadSets = Vec<Vec<Vec<VertexId>>>;

/// Which host-load schedule the executor follows — mirrors the engine's
/// communication mode without depending on it (the engine depends on this
/// crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPattern {
    /// Every chunk loads its full neighbor set `N_ij` from the host.
    Vanilla,
    /// Deduplicated loads: GPU `i` loads its transition set `ℕ_ij`.
    P2p,
    /// Deduplicated loads with in-place reuse: GPU `i` loads only the
    /// incoming merged-buffer rows it owns (`ℕ^cpu`-equivalent).
    P2pRu,
}

/// Derives `S[i][j]`: the sorted vertex set GPU `i` host-loads in batch
/// `j`. `bufs` is required for [`LoadPattern::P2pRu`] (the incoming rows
/// are a property of the in-place buffer plan) and ignored otherwise.
///
/// Hybrid checkpoint reloads are *not* part of any `S[i][j]`; that site
/// bypasses the cache by design.
pub fn load_sets(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufs: Option<&[GpuBufferPlan]>,
    pattern: LoadPattern,
) -> LoadSets {
    let (m, n) = (plan.m, plan.n);
    let mut sets = vec![vec![Vec::new(); n]; m];
    match pattern {
        LoadPattern::Vanilla => {
            for (i, row) in sets.iter_mut().enumerate() {
                for (j, s) in row.iter_mut().enumerate() {
                    *s = plan.chunks[i][j].neighbors.clone();
                }
            }
        }
        LoadPattern::P2p => {
            for (i, row) in sets.iter_mut().enumerate() {
                for (j, s) in row.iter_mut().enumerate() {
                    *s = dedup.batches[j].transition[i].clone();
                }
            }
        }
        LoadPattern::P2pRu => {
            let bufs = bufs.expect("P2pRu load sets need the GPU buffer plans");
            let owner = &plan.assignment.partition_of;
            for (i, row) in sets.iter_mut().enumerate() {
                for (j, s) in row.iter_mut().enumerate() {
                    let b = &bufs[i].batches[j];
                    let mut vs: Vec<VertexId> = b
                        .incoming
                        .iter()
                        .map(|&(t, _slot)| b.merged[t as usize])
                        .filter(|&v| owner[v as usize] as usize == i)
                        .collect();
                    vs.sort_unstable();
                    *s = vs;
                }
            }
        }
    }
    sets
}

/// One boundary vertex considered for caching on a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Global vertex id.
    pub vertex: VertexId,
    /// How many batches of the load schedule host-load this vertex.
    pub loads: u32,
    /// Out-degree (fan-out decides how many chunks need the row).
    pub degree: u32,
}

/// Ranks cache candidates; the top slice fitting headroom is admitted.
///
/// `Debug + Send + Sync` so a policy can live in the engine config (which
/// is `Clone` and crosses threads in the parallel executor).
pub trait CachePolicy: fmt::Debug + Send + Sync {
    /// Stable name (used by CLI flags, bench JSON, and the plan).
    fn name(&self) -> &'static str;
    /// False disables caching entirely.
    fn enabled(&self) -> bool {
        true
    }
    /// Reorders `candidates` best-first.
    fn rank(&self, candidates: &mut [Candidate]);
}

/// Ranks by access frequency over the `ℕ^cpu` load schedule, breaking
/// ties by degree then vertex id (determinism).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrequencyRanked;

impl CachePolicy for FrequencyRanked {
    fn name(&self) -> &'static str {
        "freq"
    }
    fn rank(&self, candidates: &mut [Candidate]) {
        candidates.sort_unstable_by(|a, b| {
            b.loads
                .cmp(&a.loads)
                .then(b.degree.cmp(&a.degree))
                .then(a.vertex.cmp(&b.vertex))
        });
    }
}

/// Ranks by out-degree (the fallback signal when the load schedule is
/// uniform), breaking ties by load count then vertex id.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreeRanked;

impl CachePolicy for DegreeRanked {
    fn name(&self) -> &'static str {
        "degree"
    }
    fn rank(&self, candidates: &mut [Candidate]) {
        candidates.sort_unstable_by(|a, b| {
            b.degree
                .cmp(&a.degree)
                .then(b.loads.cmp(&a.loads))
                .then(a.vertex.cmp(&b.vertex))
        });
    }
}

/// Caching disabled: the plan admits nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Off;

impl CachePolicy for Off {
    fn name(&self) -> &'static str {
        "off"
    }
    fn enabled(&self) -> bool {
        false
    }
    fn rank(&self, candidates: &mut [Candidate]) {
        let _ = candidates;
    }
}

/// The admitted cache for one GPU.
#[derive(Debug, Clone, Default)]
pub struct GpuCachePlan {
    /// GPU index.
    pub gpu: usize,
    /// Admitted vertices, sorted ascending.
    pub vertices: Vec<VertexId>,
    /// Bytes this cache pins (`vertices.len() × slot_bytes`).
    pub bytes: usize,
}

/// The full cache plan: per-GPU admitted sets plus provenance.
#[derive(Debug, Clone, Default)]
pub struct CachePlan {
    /// Name of the policy that ranked the admission.
    pub policy: &'static str,
    /// Bytes per cached row (layer-0 feature width × 4).
    pub slot_bytes: usize,
    /// One admitted set per GPU.
    pub per_gpu: Vec<GpuCachePlan>,
}

impl CachePlan {
    /// Ranks each GPU's host-load candidates with `policy` and admits the
    /// top slice whose rows fit `headroom[i]` bytes at `slot_bytes` per
    /// row. `degrees[v]` supplies the fallback ranking signal.
    pub fn build(
        sets: &[Vec<Vec<VertexId>>],
        degrees: &[u32],
        headroom: &[usize],
        slot_bytes: usize,
        policy: &dyn CachePolicy,
    ) -> CachePlan {
        let mut per_gpu = Vec::with_capacity(sets.len());
        // Loads per vertex, counted densely and zeroed again after each
        // GPU, so every GPU's count costs its load sets, not the graph.
        let bound = sets.iter().flatten().flatten().max();
        let mut loads = vec![0u32; bound.map_or(0, |&v| v as usize + 1)];
        for (i, batches) in sets.iter().enumerate() {
            let cap_rows = if slot_bytes == 0 || !policy.enabled() {
                0
            } else {
                headroom.get(i).copied().unwrap_or(0) / slot_bytes
            };
            let mut loaded: Vec<VertexId> = Vec::new();
            for s in batches {
                for &v in s {
                    let count = &mut loads[v as usize];
                    if *count == 0 {
                        loaded.push(v);
                    }
                    *count += 1;
                }
            }
            // Candidates in id order, so the policy ranks a deterministic
            // input.
            loaded.sort_unstable();
            let mut cands: Vec<Candidate> = loaded
                .into_iter()
                .map(|vertex| Candidate {
                    vertex,
                    loads: std::mem::take(&mut loads[vertex as usize]),
                    degree: degrees.get(vertex as usize).copied().unwrap_or(0),
                })
                .collect();
            policy.rank(&mut cands);
            cands.truncate(cap_rows);
            let mut vertices: Vec<VertexId> = cands.into_iter().map(|c| c.vertex).collect();
            vertices.sort_unstable();
            let bytes = vertices.len() * slot_bytes;
            per_gpu.push(GpuCachePlan {
                gpu: i,
                vertices,
                bytes,
            });
        }
        CachePlan {
            policy: policy.name(),
            slot_bytes,
            per_gpu,
        }
    }

    /// Total admitted rows across GPUs.
    pub fn total_rows(&self) -> usize {
        self.per_gpu.iter().map(|g| g.vertices.len()).sum()
    }

    /// True when no GPU admitted anything (policy off or zero headroom).
    pub fn is_empty(&self) -> bool {
        self.per_gpu.iter().all(|g| g.vertices.is_empty())
    }
}

/// Per-`(gpu, batch)` hit table entry, frozen for the current sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitStats {
    /// Load-set rows already resident (skip the H2D charge).
    pub hits: usize,
    /// Hits whose host copy lives on a remote NUMA socket (vanilla mode's
    /// mixed-bandwidth split).
    pub remote_hits: usize,
    /// Loaded rows this batch that the plan admits (an install write will
    /// happen at sweep end).
    pub installs: usize,
}

/// One journaled cache state transition; pass 11 replays these.
#[derive(Debug, Clone)]
pub enum CacheEvent {
    /// One full or cone-pruned layer-0 sweep: what it was pruned to, the
    /// frozen hit counts charged, and the rows installed at sweep end.
    Sweep {
        /// What the sweep's cone was grown from — with the plans, all its
        /// load sets are a function of, and a few dozen ids where the sets
        /// can be a large part of the graph — or `None` for a full sweep
        /// over the plans' own load sets.
        cone: Option<ConeOrigin>,
        /// `hits[i][j]` as charged.
        hits: Vec<Vec<usize>>,
        /// Rows newly resident on each GPU, sorted ascending.
        installs: Vec<Vec<VertexId>>,
    },
    /// A delta commit patched `h^0` rows: every resident copy inside the
    /// dirty set was dropped.
    Invalidate {
        /// Patched vertices, sorted ascending.
        dirty: Vec<VertexId>,
        /// `removed[i]`: rows dropped from GPU `i`, sorted ascending.
        removed: Vec<Vec<VertexId>>,
    },
}

/// Journal of every cache state transition since the runtime was built.
#[derive(Debug, Clone, Default)]
pub struct CacheLog {
    /// Events in program order.
    pub events: Vec<CacheEvent>,
}

/// Residency tracker the engine threads through its sweeps.
#[derive(Debug, Clone)]
pub struct CacheRuntime {
    plan: CachePlan,
    /// `S[i][j]` of the full load schedule, sorted ascending.
    sets: Arc<LoadSets>,
    /// The sweep in flight: its cone's origin (`None` = full) and the
    /// load sets it froze its hit table against.
    sweep: Option<(Option<ConeOrigin>, Arc<LoadSets>)>,
    /// `remote[i][v]`: host copy of `v` is NUMA-remote to GPU `i`
    /// (supplied by the engine for vanilla mode only).
    remote: Option<Vec<Vec<bool>>>,
    /// `planned[i][v]`: the plan admits `v` on GPU `i`.
    planned: Vec<Vec<bool>>,
    /// `resident[i][v]`: a valid copy of `h^0[v]` sits in GPU `i`'s cache.
    resident: Vec<Vec<bool>>,
    /// Frozen per-sweep table; empty outside a sweep.
    table: Vec<Vec<HitStats>>,
    log: CacheLog,
    total_hit_rows: usize,
    total_load_rows: usize,
}

impl CacheRuntime {
    /// Builds a runtime with an empty resident set. `num_vertices` sizes
    /// the residency bitmaps; `remote` is vanilla mode's per-GPU remote-
    /// socket map (length `num_vertices` each) or `None`.
    pub fn new(
        plan: CachePlan,
        sets: LoadSets,
        num_vertices: usize,
        remote: Option<Vec<Vec<bool>>>,
    ) -> CacheRuntime {
        let m = sets.len();
        let mut planned = vec![vec![false; num_vertices]; m];
        for (i, g) in plan.per_gpu.iter().enumerate() {
            for &v in &g.vertices {
                planned[i][v as usize] = true;
            }
        }
        CacheRuntime {
            plan,
            sets: Arc::new(sets),
            sweep: None,
            remote,
            planned,
            resident: vec![vec![false; num_vertices]; m],
            table: Vec::new(),
            log: CacheLog::default(),
            total_hit_rows: 0,
            total_load_rows: 0,
        }
    }

    /// Freezes the hit table for the sweep that is about to run: hits are
    /// counted against the resident set *as of now*, so every charge the
    /// executor emits this sweep is a pure function of pre-sweep state.
    ///
    /// `packed` is `None` for a full sweep over the load sets the runtime
    /// was built with, or — for a cone-pruned sweep — what its cone was
    /// grown from and the load sets of the layer-0 plans packed from it
    /// ([`load_sets`] over the packed plans; a pruned batch's sets are
    /// empty). The cost is the size of the sets handed in.
    pub fn begin_sweep(&mut self, packed: Option<(ConeOrigin, Arc<LoadSets>)>) {
        let (cone, sets) = match packed {
            None => (None, Arc::clone(&self.sets)),
            Some((cone, sets)) => (Some(cone), sets),
        };
        let m = sets.len();
        let n = sets.first().map_or(0, Vec::len);
        let mut table = vec![vec![HitStats::default(); n]; m];
        for (i, batches) in sets.iter().enumerate() {
            for (j, s) in batches.iter().enumerate() {
                let mut st = HitStats::default();
                for &v in s {
                    let vi = v as usize;
                    if self.resident[i][vi] {
                        st.hits += 1;
                        if self.remote.as_ref().is_some_and(|r| r[i][vi]) {
                            st.remote_hits += 1;
                        }
                    } else if self.planned[i][vi] {
                        st.installs += 1;
                    }
                }
                table[i][j] = st;
            }
        }
        self.table = table;
        self.sweep = Some((cone, sets));
    }

    /// Frozen stats for GPU `i`, batch `j` (zero outside a sweep).
    pub fn stats(&self, i: usize, j: usize) -> HitStats {
        self.table
            .get(i)
            .and_then(|r| r.get(j))
            .copied()
            .unwrap_or_default()
    }

    /// Commits the sweep begun by [`CacheRuntime::begin_sweep`]: the rows
    /// its load sets loaded that the plan admits become resident, and the
    /// transition is journaled.
    ///
    /// # Panics
    ///
    /// Panics if no sweep is in flight.
    pub fn end_sweep(&mut self) {
        let (cone, sets) = self.sweep.take().expect("end_sweep without begin_sweep");
        let m = sets.len();
        let n = sets.first().map_or(0, Vec::len);
        let mut installs = vec![Vec::new(); m];
        let mut hits = vec![vec![0usize; n]; m];
        for (i, batches) in sets.iter().enumerate() {
            for (j, s) in batches.iter().enumerate() {
                let st = self.table[i][j];
                hits[i][j] = st.hits;
                self.total_hit_rows += st.hits;
                self.total_load_rows += s.len();
                for &v in s {
                    let vi = v as usize;
                    if self.planned[i][vi] && !self.resident[i][vi] {
                        self.resident[i][vi] = true;
                        installs[i].push(v);
                    }
                }
            }
        }
        for g in &mut installs {
            g.sort_unstable();
        }
        self.table = Vec::new();
        self.log.events.push(CacheEvent::Sweep {
            cone,
            hits,
            installs,
        });
    }

    /// Drops every resident copy of a patched vertex (delta commit) and
    /// journals exactly what was removed.
    pub fn invalidate(&mut self, dirty: &[VertexId]) {
        let mut dirty = dirty.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        let mut removed = vec![Vec::new(); self.resident.len()];
        for (i, res) in self.resident.iter_mut().enumerate() {
            for &v in &dirty {
                if let Some(slot) = res.get_mut(v as usize) {
                    if *slot {
                        *slot = false;
                        removed[i].push(v);
                    }
                }
            }
        }
        self.log
            .events
            .push(CacheEvent::Invalidate { dirty, removed });
    }

    /// The admitted plan.
    pub fn plan(&self) -> &CachePlan {
        &self.plan
    }

    /// The journal since this runtime was built.
    pub fn log(&self) -> &CacheLog {
        &self.log
    }

    /// Rows currently resident on GPU `i`.
    pub fn resident_rows(&self, i: usize) -> usize {
        self.resident[i].iter().filter(|&&r| r).count()
    }

    /// Cumulative hit rows across all committed sweeps.
    pub fn total_hits(&self) -> usize {
        self.total_hit_rows
    }

    /// Cumulative load-set rows across all committed sweeps.
    pub fn total_loads(&self) -> usize {
        self.total_load_rows
    }

    /// Fraction of scheduled host-load rows served by the cache so far.
    pub fn hit_rate(&self) -> f64 {
        if self.total_load_rows == 0 {
            0.0
        } else {
            self.total_hit_rows as f64 / self.total_load_rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_sets() -> Vec<Vec<Vec<VertexId>>> {
        // 2 GPUs × 2 batches. Vertex 5 loads twice on GPU 0; 9 once.
        vec![vec![vec![1, 5], vec![5, 9]], vec![vec![2, 3], vec![3, 7]]]
    }

    fn degrees() -> Vec<u32> {
        vec![0, 1, 2, 9, 0, 4, 0, 8, 0, 6]
    }

    #[test]
    fn frequency_ranking_prefers_hot_rows() {
        let sets = toy_sets();
        // Room for exactly one row per GPU.
        let plan = CachePlan::build(&sets, &degrees(), &[8, 8], 8, &FrequencyRanked);
        assert_eq!(plan.per_gpu[0].vertices, vec![5]); // 2 loads beats 1
        assert_eq!(plan.per_gpu[1].vertices, vec![3]); // 2 loads beats 1
        assert_eq!(plan.per_gpu[0].bytes, 8);
        assert_eq!(plan.policy, "freq");
    }

    #[test]
    fn degree_ranking_prefers_high_fanout() {
        let sets = toy_sets();
        let plan = CachePlan::build(&sets, &degrees(), &[16, 16], 8, &DegreeRanked);
        // GPU 0 candidates {1,5,9}: degree 6 (v9) then 4 (v5).
        assert_eq!(plan.per_gpu[0].vertices, vec![5, 9]);
        // GPU 1 candidates {2,3,7}: degree 9 (v3) then 8 (v7).
        assert_eq!(plan.per_gpu[1].vertices, vec![3, 7]);
    }

    #[test]
    fn off_policy_and_zero_headroom_admit_nothing() {
        let sets = toy_sets();
        assert!(CachePlan::build(&sets, &degrees(), &[64, 64], 8, &Off).is_empty());
        assert!(CachePlan::build(&sets, &degrees(), &[0, 0], 8, &FrequencyRanked).is_empty());
        assert!(CachePlan::build(&sets, &degrees(), &[64, 64], 0, &FrequencyRanked).is_empty());
    }

    #[test]
    fn second_sweep_hits_what_the_first_installed() {
        let sets = toy_sets();
        let plan = CachePlan::build(&sets, &degrees(), &[64, 64], 8, &FrequencyRanked);
        let mut rt = CacheRuntime::new(plan, sets, 10, None);

        rt.begin_sweep(None);
        assert_eq!(rt.stats(0, 0).hits, 0); // nothing resident yet
        assert!(rt.stats(0, 0).installs > 0);
        rt.end_sweep();
        assert_eq!(rt.total_hits(), 0);
        assert_eq!(rt.resident_rows(0), 3); // {1,5,9} all fit

        rt.begin_sweep(None);
        assert_eq!(rt.stats(0, 0).hits, 2); // {1,5}
        assert_eq!(rt.stats(0, 1).hits, 2); // {5,9}
        assert_eq!(rt.stats(0, 0).installs, 0);
        rt.end_sweep();
        assert!(rt.total_hits() > 0);
        assert!(rt.hit_rate() > 0.0);
        assert_eq!(rt.log().events.len(), 2);
    }

    #[test]
    fn masked_sweep_installs_only_executed_batches() {
        let sets = toy_sets();
        let plan = CachePlan::build(&sets, &degrees(), &[64, 64], 8, &FrequencyRanked);
        let mut rt = CacheRuntime::new(plan, sets, 10, None);
        // A cone that prunes batch 1 and keeps one row of chunk (0, 0): its
        // packed plans load {1, 5} on GPU 0 and nothing anywhere else.
        let cone = ConeOrigin {
            dir: hongtu_partition::cone::ConeDir::Downward,
            layers: 1,
            seeds: vec![4],
            runs: vec![1, 2],
        };
        let packed = vec![vec![vec![1, 5], vec![]], vec![vec![], vec![]]];
        rt.begin_sweep(Some((cone.clone(), Arc::new(packed))));
        assert_eq!(rt.stats(0, 1), HitStats::default());
        rt.end_sweep();
        assert_eq!(rt.resident_rows(0), 2); // {1,5}; 9 never loaded
        assert_eq!(rt.resident_rows(1), 0);
        assert_eq!(rt.total_loads(), 2);
        match &rt.log().events[0] {
            CacheEvent::Sweep {
                cone: journaled,
                hits,
                installs,
            } => {
                assert_eq!(journaled.as_ref(), Some(&cone));
                assert_eq!(hits[0][1], 0); // a pruned batch charges nothing
                assert_eq!(installs[0], vec![1, 5]);
            }
            other => panic!("expected sweep event, got {other:?}"),
        }
        // The next full sweep hits what the slice installed.
        rt.begin_sweep(None);
        assert_eq!(rt.stats(0, 0).hits, 2);
        assert_eq!(rt.stats(0, 1).hits, 1); // {5}
        rt.end_sweep();
    }

    #[test]
    fn invalidate_drops_resident_rows_and_journals_them() {
        let sets = toy_sets();
        let plan = CachePlan::build(&sets, &degrees(), &[64, 64], 8, &FrequencyRanked);
        let mut rt = CacheRuntime::new(plan, sets, 10, None);
        rt.begin_sweep(None);
        rt.end_sweep();
        assert_eq!(rt.resident_rows(0), 3);

        rt.invalidate(&[5, 8]);
        assert_eq!(rt.resident_rows(0), 2); // 5 dropped, 8 was never resident
        match rt.log().events.last().unwrap() {
            CacheEvent::Invalidate { removed, .. } => assert_eq!(removed[0], vec![5]),
            other => panic!("expected invalidate event, got {other:?}"),
        }

        // The dropped row misses (and reinstalls) on the next sweep.
        rt.begin_sweep(None);
        assert_eq!(rt.stats(0, 0).hits, 1); // only {1}
        assert_eq!(rt.stats(0, 0).installs, 1); // 5 comes back
        rt.end_sweep();
        assert_eq!(rt.resident_rows(0), 3);
    }

    #[test]
    fn remote_hits_follow_the_socket_map() {
        let sets = toy_sets();
        let plan = CachePlan::build(&sets, &degrees(), &[64, 64], 8, &FrequencyRanked);
        let mut remote = vec![vec![false; 10]; 2];
        remote[0][5] = true;
        let mut rt = CacheRuntime::new(plan, sets, 10, Some(remote));
        rt.begin_sweep(None);
        rt.end_sweep();
        rt.begin_sweep(None);
        assert_eq!(rt.stats(0, 0).hits, 2);
        assert_eq!(rt.stats(0, 0).remote_hits, 1); // vertex 5 is NUMA-remote
        rt.end_sweep();
    }
}
