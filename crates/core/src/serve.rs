//! Serving-path support: exact ≤ L-hop dependency cones and the packed
//! plans a masked sweep runs over.
//!
//! A vertex-subset logit query `Q` does not need a full-graph sweep: the
//! layer-`L` logits of `Q` depend only on the vertices within `L` hops
//! of `Q` (following in-edges). The exact recurrence is
//!
//! ```text
//! needed[L]  = Q
//! needed[l]  = needed[l+1] ∪ N(needed[l+1])
//! layer l computes the rows  needed[l+1] ∩ V_ij  of every chunk (i, j)
//! ```
//!
//! (and dually for the out-edge cone of a graph mutation —
//! [`crate::cone`] holds both). A [`ServeMask`] is that: per layer, per
//! chunk of the session's grid, the destination rows to compute, plus the
//! `(layer, batch)` grid they touch — a batch is touched iff some GPU's
//! rows of it are non-empty, and because `needed[l] ⊇ needed[l+1]` the
//! grid is downward closed (upward, for a delta cone).
//!
//! The session's chunk grid exists so that one chunk's data fits a GPU
//! (PAPER.md §4); a cone is far smaller, so it does not run on that grid.
//! A [`Cone`] splits the session's `n` batches into `k ≤ n` *runs* of
//! consecutive batches — the fewest the run rule ([`Cone::packed`])
//! allows — and at every layer packs GPU `i`'s cone rows of run `g` into
//! one chunk `(i, g)` ([`hongtu_partition::TwoLevelPartition::packed`]).
//! Rows stay on the GPU that owns them, so ownership, P2P and dedup mean
//! what they meant. Each layer's packed grid gets its dedup and buffer
//! plans counted from the unions the run rule priced its runs with —
//! the values the session's builders would give over that grid — so a
//! masked sweep is a full sweep over smaller plans: same driver, same
//! emitters, same footprint arithmetic, same numerics — each per-row
//! reduction keeps its in-edge order whatever chunk holds the row, so
//! the rows it computes are bitwise the full sweep's.

use crate::cone::{self, ConeDir, ConeOrigin, Seen, VertexIndex};
use crate::dedup::{union_sorted, BatchCounts, DedupCounts};
#[cfg(doc)]
use crate::engine::build_buffer_comm;
use crate::engine::{BatchComm, CommMode, HongTuConfig};
use crate::footprint;
use hongtu_cache::LoadSets;
use hongtu_graph::{Graph, VertexId};
use hongtu_nn::GnnModel;
use hongtu_partition::{ChunkShape, ChunkSubgraph, Packing, SliceRows, TwoLevelPartition};
use hongtu_sim::TimeBuckets;
use hongtu_stream::OverlapMode;
use hongtu_tensor::Matrix;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Which destination rows of which chunks of the session's grid a masked
/// forward sweep computes at each layer, and the `(layer, batch)` cells
/// of that grid they touch. A [`Cone`] packs the rows into the grid the
/// sweep runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeMask {
    /// `rows[l][i][j]`: ascending local destination rows chunk `(i, j)`
    /// computes at layer `l`.
    rows: Vec<SliceRows>,
    /// `active[l][j]`: whether some GPU's rows of batch `j` at layer `l`
    /// are non-empty.
    active: Vec<Vec<bool>>,
    num_vertices: usize,
    /// The seeds and recurrence the rows were grown from, and the runs
    /// they are packed into: every batch its own run until a [`Cone`]
    /// packs them.
    origin: ConeOrigin,
}

impl ServeMask {
    /// Computes the exact ≤ L-hop dependency cone of the queried
    /// vertices (module docs give the recurrence).
    ///
    /// # Panics
    ///
    /// Panics if any queried vertex id is out of range for the plan's
    /// graph, or if `vertices` is empty (an empty query has no cone and
    /// no meaningful sweep). [`Session::query_cone`] returns those as
    /// typed errors instead.
    ///
    /// [`Session::query_cone`]: crate::Session::query_cone
    pub fn from_queries(plan: &TwoLevelPartition, layers: usize, vertices: &[usize]) -> ServeMask {
        Self::query(
            plan,
            &VertexIndex::new(plan),
            &mut Seen::default(),
            layers,
            vertices,
        )
    }

    /// Computes the exact ≤ L-hop *out*-neighborhood cone of the dirty
    /// vertices — the rows an incremental recompute must replay after a
    /// graph mutation invalidated those vertices' layer-1 rows
    /// ([`crate::cone`] gives the recurrence and the duality with the
    /// query cone) — grown along the out-edges of `graph`, the topology
    /// `plan`'s chunks were built from.
    ///
    /// # Panics
    ///
    /// Panics if any dirty vertex id is out of range for the plan's
    /// graph, or if `dirty` is empty (a mutation with no dirty vertices
    /// has nothing to replay).
    pub fn from_dirty(
        plan: &TwoLevelPartition,
        graph: &Graph,
        layers: usize,
        dirty: &[usize],
    ) -> ServeMask {
        Self::delta(
            plan,
            &VertexIndex::new(plan),
            graph,
            &mut Seen::default(),
            layers,
            dirty,
        )
    }

    /// The query cone of `vertices` over `plan`, whose destinations
    /// `index` indexes, marking what it visits in `seen`.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` fails [`crate::cone::check_seeds`].
    pub(crate) fn query(
        plan: &TwoLevelPartition,
        index: &VertexIndex,
        seen: &mut Seen,
        layers: usize,
        vertices: &[usize],
    ) -> ServeMask {
        let rows = cone::downward(plan, index, layers, vertices, seen);
        Self::of_rows(plan, index, ConeDir::Downward, vertices, rows)
    }

    /// The delta cone of `dirty` over `plan`, grown along `graph`'s
    /// out-edges ([`cone::upward`]).
    ///
    /// # Panics
    ///
    /// Panics if `dirty` fails [`crate::cone::check_seeds`].
    pub(crate) fn delta(
        plan: &TwoLevelPartition,
        index: &VertexIndex,
        graph: &Graph,
        seen: &mut Seen,
        layers: usize,
        dirty: &[usize],
    ) -> ServeMask {
        let rows = cone::upward(plan, index, graph, layers, dirty, seen);
        Self::of_rows(plan, index, ConeDir::Upward, dirty, rows)
    }

    /// The mask of `rows`, grown by the `dir` recurrence from `seeds`,
    /// every batch its own run.
    fn of_rows(
        plan: &TwoLevelPartition,
        index: &VertexIndex,
        dir: ConeDir,
        seeds: &[usize],
        rows: Vec<SliceRows>,
    ) -> ServeMask {
        let origin = ConeOrigin {
            dir,
            layers: rows.len(),
            seeds: seeds.to_vec(),
            runs: (1..=plan.n).collect(),
        };
        let active = rows
            .iter()
            .map(|layer| {
                let n = layer.first().map_or(0, Vec::len);
                (0..n)
                    .map(|j| layer.iter().any(|gpu| !gpu[j].is_empty()))
                    .collect()
            })
            .collect();
        ServeMask {
            rows,
            active,
            num_vertices: index.len(),
            origin,
        }
    }

    /// What the cone was grown from, and the runs it is packed into.
    pub fn origin(&self) -> &ConeOrigin {
        &self.origin
    }

    /// Whether some GPU computes rows of batch `j` at layer `l`.
    #[inline]
    pub fn active(&self, l: usize, j: usize) -> bool {
        self.active[l][j]
    }

    /// Number of layers the mask covers.
    pub fn layers(&self) -> usize {
        self.active.len()
    }

    /// Number of batches per layer.
    pub fn batches(&self) -> usize {
        self.active.first().map_or(0, Vec::len)
    }

    /// Count of `(layer, batch)` cells of the session's grid the rows
    /// touch ([`Cone::active_steps`] counts the steps the packed sweep
    /// runs).
    pub fn active_steps(&self) -> usize {
        self.active
            .iter()
            .map(|l| l.iter().filter(|&&a| a).count())
            .sum()
    }

    /// Total `(layer, batch)` steps a full sweep would run.
    pub fn total_steps(&self) -> usize {
        self.layers() * self.batches()
    }

    /// Destination rows the masked sweep computes, summed over layers.
    pub fn active_rows(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|layer| layer.iter().flatten())
            .map(Vec::len)
            .sum()
    }

    /// Destination rows a full sweep computes: `|V|` per layer.
    pub fn total_rows(&self) -> usize {
        self.layers() * self.num_vertices
    }

    /// The raw `active[l][j]` grid, for closure certification
    /// (`hongtu_verify::verify_cone`).
    pub fn grid(&self) -> &[Vec<bool>] {
        &self.active
    }

    /// The raw `rows[l][i][j]` row lists, for row-level certification
    /// (`hongtu_verify::verify_cone_rows`).
    pub fn rows(&self) -> &[SliceRows] {
        &self.rows
    }
}

/// The packed grid one layer of a masked sweep runs over and what its
/// sweep charges of its communication plans: the dedup sets and, under
/// P2P+RU, the §6 buffer table — counted from the unions that priced the
/// runs ([`RunSize`]), never listed.
#[derive(Debug)]
pub(crate) struct LayerPlans {
    pub plan: TwoLevelPartition,
    /// The transition sets, reuse and fetch matrix, counted. Under
    /// Vanilla, which reads only the fetch matrix, no transition set is
    /// built: `transition` and `reused` are empty.
    pub counts: DedupCounts,
    /// The §6 buffer table (P2P+RU only).
    pub buffer_comm: Option<Vec<Vec<BatchComm>>>,
}

/// A [`ServeMask`] and the plans its sweep executes: the session's
/// batches split into runs ([`ConeOrigin::runs`]), per layer the packed
/// grid — one chunk per GPU per run — and what that grid's sweep charges
/// of its dedup and buffer plans. Derived by a [`Session`]
/// ([`Session::query_cone`], [`Session::plan_cone`]) for its current
/// plans, and valid for them only: it records the identity of the plans
/// it was derived from — unique in the process, drawn anew by every
/// structural [`Session::apply_staged`] — and a session refuses to sweep
/// a cone of other plans, its own earlier ones or another session's.
///
/// [`Session`]: crate::Session
/// [`Session::query_cone`]: crate::Session::query_cone
/// [`Session::plan_cone`]: crate::Session::plan_cone
/// [`Session::apply_staged`]: crate::Session::apply_staged
#[derive(Debug)]
pub struct Cone {
    mask: ServeMask,
    /// `active[l][g]`: whether some GPU's packed chunk of run `g`
    /// computes rows at layer `l`.
    active: Vec<Vec<bool>>,
    pub(crate) layers: Vec<LayerPlans>,
    /// The layer-0 load sets, listed only under a cache policy
    /// ([`Cone::load_sets`]); shared with the cache's sweep, not copied.
    loads: Option<Arc<LoadSets>>,
    /// The identity of the session plans the cone was derived from.
    pub(crate) plan_id: u64,
}

/// Each GPU's vertices as a bitmap over the graph, built the first time
/// a cone's rows are sized as bitmaps under inter-GPU dedup. A session
/// holds one for its lifetime: ownership never changes.
pub(crate) type Owned = OnceLock<Vec<Vec<u64>>>;

impl Cone {
    /// Packs `mask` into the runs ending at `ends`, layer by layer, and
    /// counts each packed grid's communication plans — linear in the
    /// cone's rows plus one bit per neighbor of each chunk they touch —
    /// listing the layer-0 load sets too when `loads` asks.
    ///
    /// # Panics
    ///
    /// Panics if `ends` fails [`crate::cone::check_runs`] for `plan`.
    pub(crate) fn new(
        plan: &TwoLevelPartition,
        mask: ServeMask,
        ends: Vec<usize>,
        comm: CommMode,
        loads: bool,
        plan_id: u64,
    ) -> Cone {
        if let Err(why) = crate::cone::check_runs(&ends, plan.n) {
            panic!("{why}");
        }
        let owned = Owned::new();
        let marked = Marked::new(plan, &mask, comm, &owned);
        // A run holds the touched batches below its end.
        let mut at = 0;
        let runs = ends
            .iter()
            .map(|&end| {
                let start = at;
                at += marked.touched[at..]
                    .iter()
                    .take_while(|&&j| j < end)
                    .count();
                let size = marked.size(start..at);
                (start..at, size)
            })
            .collect();
        let (layers, loads) = marked.pack(plan, runs, ends.len(), comm, loads);
        Cone::assemble(mask, ends, layers, loads, plan_id)
    }

    /// Packs `mask` by the run rule: the session's batches split into the
    /// fewest runs of consecutive batches, chosen greedily — a run is
    /// extended by the next batch the cone touches while every GPU's
    /// forward [`footprint`] of the merged step fits its `budget` at
    /// every layer — and, under [`OverlapMode::DoubleBuffer`], at least
    /// two runs when the cone touches two batches or more, since one
    /// batch serialises the pipeline's load, compute and drain.
    ///
    /// Each touched batch's rows are marked once ([`Packing`]) and sized
    /// from the marks — chunk shape, neighbor rows, buffer rows — so a
    /// candidate run is priced exactly, by counting its lists' unions,
    /// without being packed; the fewest runs (one, or two) are sized
    /// first and taken when they fit. Each chosen run's unions are built
    /// once: they size it, and its packed chunks and counted plans — and,
    /// under a cache policy, its layer-0 load sets — are read off them.
    ///
    /// Under P2P+RU every step of a sweep occupies the in-place buffer's
    /// capacity, the sum of the rises in merged-set size from one step to
    /// the next (§6: a newcomer takes a slot the previous step freed
    /// before it grows the buffer), so a merge is also held to what the
    /// batches after it would cost unmerged. A cone every one of whose
    /// session-grid batches fits the budget therefore packs into runs
    /// that fit it too, and no merge ever costs more than the budget.
    pub(crate) fn packed(
        plan: &TwoLevelPartition,
        mask: ServeMask,
        config: &HongTuConfig,
        model: &GnnModel,
        budget: &[usize],
        owned: &Owned,
        plan_id: u64,
    ) -> Cone {
        let loads = config.cache.enabled();
        let marked = Marked::new(plan, &mask, config.comm, owned);
        let touched = &marked.touched;
        if touched.is_empty() {
            return Cone::new(plan, mask, vec![plan.n], config.comm, loads, plan_id);
        }
        let packer = Packer {
            rows: &mask.rows,
            model,
            comm: config.comm,
        };
        let double = config.overlap == OverlapMode::DoubleBuffer && touched.len() > 1;
        // The fewest runs there can be — one, or two under double
        // buffering — are taken when they fit; the greedy rule chooses
        // otherwise. Two halves fit wherever the one run holding them
        // does, so the greedy rule never ends in one run under double
        // buffering.
        let fewest: Vec<Range<usize>> = if double {
            packer.halves(touched)
        } else {
            std::iter::once(0..touched.len()).collect()
        };
        let sized: Vec<RunSize> = fewest.iter().map(|run| marked.size(run.clone())).collect();
        let runs = if packer.fits(&sized, budget) {
            fewest.into_iter().zip(sized).collect()
        } else {
            let alone = (0..touched.len()).map(|p| marked.size(p..p + 1)).collect();
            packer.runs(alone, budget)
        };
        debug_assert!(!double || runs.len() > 1, "double buffering keeps two runs");
        // Each run also takes the untouched batches up to the next one,
        // which add no rows.
        let mut ends: Vec<usize> = runs.iter().skip(1).map(|(r, _)| touched[r.start]).collect();
        ends.push(plan.n);
        let (layers, loads) = marked.pack(plan, runs, ends.len(), config.comm, loads);
        Cone::assemble(mask, ends, layers, loads, plan_id)
    }

    fn assemble(
        mut mask: ServeMask,
        ends: Vec<usize>,
        layers: Vec<LayerPlans>,
        loads: Option<LoadSets>,
        plan_id: u64,
    ) -> Cone {
        let active = layers
            .iter()
            .map(|layer| {
                (0..layer.plan.n)
                    .map(|g| layer.plan.batch(g).any(|c| c.num_dests() > 0))
                    .collect()
            })
            .collect();
        mask.origin.runs = ends;
        Cone {
            mask,
            active,
            layers,
            loads: loads.map(Arc::new),
            plan_id,
        }
    }

    /// The rows this cone's sweep computes.
    pub fn mask(&self) -> &ServeMask {
        &self.mask
    }

    /// The packed grid layer `l` runs over: one chunk per GPU per run.
    pub fn plan(&self, l: usize) -> &TwoLevelPartition {
        &self.layers[l].plan
    }

    /// Whether the packed sweep runs run `g` at layer `l`.
    #[inline]
    pub fn active(&self, l: usize, g: usize) -> bool {
        self.active[l][g]
    }

    /// The packed `active[l][g]` grid, for closure certification
    /// (`hongtu_verify::verify_cone`): one column per run.
    pub fn grid(&self) -> &[Vec<bool>] {
        &self.active
    }

    /// `(layer, run)` steps the packed sweep runs.
    pub fn active_steps(&self) -> usize {
        self.active.iter().flatten().filter(|&&a| a).count()
    }

    /// `S[i][g]`: the rows GPU `i` host-loads at layer 0 of run `g` — the
    /// load sets a hot-vertex cache freezes its hits against, listed at
    /// derivation when the session's configuration has a cache; `None`
    /// for a cone derived without one.
    pub(crate) fn load_sets(&self) -> Option<&Arc<LoadSets>> {
        self.loads.as_ref()
    }
}

/// Layer `l`'s dedup counts and, under P2P+RU, its §6 buffer table, over
/// the runs `sized` in schedule order — counted from the unions that
/// sized them, and equal to what [`DedupPlan::build`],
/// [`GpuBufferPlan::build_all`] and [`build_buffer_comm`] give over the
/// packed grid:
///
/// - `fetch[i][k]` is `N_i`'s rows GPU `k` owns;
/// - with inter-GPU dedup, the transition set `ℕ_i` is sized, and its
///   reuse is what it shares with the previous run's;
/// - under P2P+RU, a run's incoming rows are `M_g \ M_{g−1}`, loaded by
///   their owner's GPU or fetched from it, the rest reused in place, and
///   the buffer's capacity is the sum of the rises in `|M_g|`.
///
/// `loads`, when given, gets `S[i][g]`, the rows GPU `i` host-loads in
/// run `g` — what [`hongtu_cache::load_sets`] gives over the packed
/// grid's plans: the chunk's neighbors under Vanilla, `ℕ_i` under P2P,
/// and under P2P+RU the incoming rows GPU `i` owns.
///
/// [`DedupPlan::build`]: crate::dedup::DedupPlan::build
/// [`GpuBufferPlan::build_all`]: crate::buffers::GpuBufferPlan::build_all
fn counted(
    sized: &[RunSize],
    l: usize,
    m: usize,
    comm: CommMode,
    owner: &[u32],
    mut loads: Option<&mut LoadSets>,
) -> (DedupCounts, Option<Vec<Vec<BatchComm>>>) {
    let ru = comm == CommMode::P2pRu;
    let mut batches = Vec::with_capacity(sized.len());
    let mut table: Vec<Vec<BatchComm>> = vec![Vec::with_capacity(sized.len()); m];
    let mut capacity = vec![0usize; m];
    for (g, run) in sized.iter().enumerate() {
        let before = g.checked_sub(1).and_then(|p| sized[p].held.as_ref());
        let fetch = run.nbrs[l]
            .iter()
            .map(|n| {
                let mut row = vec![0usize; m];
                n.for_each_minus(None, |v| row[owner[v as usize] as usize] += 1);
                row
            })
            .collect();
        let (transition, reused) = match &run.held {
            None => (Vec::new(), Vec::new()),
            Some(held) => held[l]
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let kept = before.map_or(0, |b| h.transition.common_len(&b[l][i].transition));
                    (h.transition.len(), kept)
                })
                .unzip(),
        };
        batches.push(BatchCounts {
            transition,
            reused,
            fetch,
        });
        if !ru {
            if let Some(loads) = loads.as_deref_mut() {
                for (i, set) in loads.iter_mut().enumerate() {
                    let mut rows = match &run.held {
                        None => run.nbrs[l][i].clone(),
                        Some(held) => held[l][i].transition.clone(),
                    };
                    set.push(rows.take_list());
                }
            }
            continue;
        }
        let held = run.held.as_ref().expect("P2P+RU deduplicates across GPUs");
        for (i, h) in held[l].iter().enumerate() {
            let prev = before.map(|b| &b[l][i].merged);
            let (mut incoming, mut h2d_rows, mut d2d_rows) = (0, 0, vec![0usize; m]);
            let mut loaded = loads.is_some().then(Vec::new);
            h.merged.for_each_minus(prev, |v| {
                incoming += 1;
                match owner[v as usize] as usize {
                    o if o == i => {
                        h2d_rows += 1;
                        if let Some(loaded) = loaded.as_mut() {
                            loaded.push(v);
                        }
                    }
                    o => d2d_rows[o] += 1,
                }
            });
            if let (Some(loads), Some(loaded)) = (loads.as_deref_mut(), loaded) {
                loads[i].push(loaded);
            }
            let rows = h.merged.len();
            capacity[i] += rows.saturating_sub(prev.map_or(0, Rows::len));
            table[i].push(BatchComm {
                h2d_rows,
                d2d_rows,
                reused_rows: rows - incoming,
                buffer_rows: 0,
            });
        }
    }
    let buffer_comm = ru.then(|| {
        for (row, &capacity) in table.iter_mut().zip(&capacity) {
            for b in row {
                b.buffer_rows = capacity;
            }
        }
        table
    });
    let counts = DedupCounts {
        m,
        n: sized.len(),
        batches,
    };
    (counts, buffer_comm)
}

/// A cone's touched batches, their rows marked for packing, and how the
/// rows of a run of them are held while it is sized.
struct Marked<'p> {
    /// The cone's layers, and GPUs.
    layers: usize,
    m: usize,
    /// The batches the cone touches, ascending.
    touched: Vec<usize>,
    /// `parts[p][l][i]`: touched batch `p`'s cone rows of layer `l` on
    /// GPU `i`, marked for packing; each is joined into its run's chunk
    /// once.
    parts: Vec<Vec<Vec<Option<Packing<'p>>>>>,
    /// `shapes[p][l][i]`: what `parts[p][l][i]` packs into.
    shapes: Vec<Vec<Vec<ChunkShape>>>,
    /// Bitmap words per set, where the cone's lists are longer than a
    /// bitmap over the graph; `None` where rows are listed.
    words: Option<usize>,
    /// The level-1 assignment, when buffers deduplicate across GPUs.
    owner: Option<&'p [u32]>,
    /// Each GPU's vertices as a bitmap, when rows are bitmaps and buffers
    /// deduplicate; empty otherwise.
    owned: &'p [Vec<u64>],
}

impl<'p> Marked<'p> {
    /// Marks every touched batch's rows of `mask` over `plan`; `owned` is
    /// built when the rows are bitmaps and `comm` deduplicates.
    fn new(
        plan: &'p TwoLevelPartition,
        mask: &'p ServeMask,
        comm: CommMode,
        owned: &'p Owned,
    ) -> Self {
        let touched: Vec<usize> = (0..plan.n)
            .filter(|&j| (0..mask.layers()).any(|l| mask.active(l, j)))
            .collect();
        let parts: Vec<Vec<Vec<Option<Packing>>>> = touched
            .iter()
            .map(|&j| {
                mask.rows
                    .iter()
                    .map(|rows| {
                        (0..plan.m)
                            .map(|i| {
                                let kept = &rows[i][j][..];
                                let parts: &[(&ChunkSubgraph, &[u32])] = if kept.is_empty() {
                                    &[]
                                } else {
                                    &[(&plan.chunks[i][j], kept)]
                                };
                                Some(Packing::new(parts))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Rows are listed — or, where the cone's lists are longer than a
        // bitmap over the graph, kept as bitmaps.
        let owner_of = &plan.assignment.partition_of[..];
        let words = owner_of.len().div_ceil(64);
        let (lists, listed) = parts
            .iter()
            .flatten()
            .flatten()
            .flatten()
            .fold((0, 0), |(n, total), p| {
                (n + 1, total + p.read().map(<[_]>::len).sum::<usize>())
            });
        let words = (listed >= lists * words).then_some(words);
        let shapes = parts
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|layer| {
                        layer
                            .iter()
                            .map(|p| p.as_ref().expect("not yet joined").shape())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let owner = (comm != CommMode::Vanilla).then_some(owner_of);
        let owned = match owner.filter(|_| words.is_some()) {
            None => &[][..],
            Some(owner) => owned.get_or_init(|| {
                let mut owned = vec![vec![0u64; owner.len().div_ceil(64)]; plan.m];
                for (v, &i) in owner.iter().enumerate() {
                    owned[i as usize][v / 64] |= 1 << (v % 64);
                }
                owned
            }),
        };
        Marked {
            layers: mask.layers(),
            m: plan.m,
            touched,
            parts,
            shapes,
            words,
            owner,
            owned,
        }
    }

    /// The touched batches `run` as one run: its neighbor rows and, with
    /// inter-GPU dedup, what its buffers hold.
    fn size(&self, run: Range<usize>) -> RunSize {
        let batches = &self.parts[run.clone()];
        let nbrs: Vec<Vec<Rows>> = (0..self.layers)
            .map(|l| {
                (0..self.m)
                    .map(|i| {
                        let read = batches
                            .iter()
                            .flat_map(|b| b[l][i].as_ref().expect("not yet joined").read());
                        Rows::new(read, self.words)
                    })
                    .collect()
            })
            .collect();
        let shapes: Vec<&[Vec<ChunkShape>]> = self.shapes[run].iter().map(|s| &s[..]).collect();
        let shape = if shapes.is_empty() {
            vec![vec![ChunkShape::default(); self.m]; self.layers]
        } else {
            merged_shape(&shapes, |l, i| nbrs[l][i].len())
        };
        let held = self.owner.map(|owner| {
            nbrs.iter()
                .map(|layer| Rows::held(layer, owner, self.owned))
                .collect()
        });
        RunSize { shape, nbrs, held }
    }

    /// The packed grid of every layer: run `g` packs the touched batches
    /// `runs[g].0`, sized `runs[g].1` — each GPU's rows of it one chunk
    /// over the run's neighbor union — and the grid's plans are counted
    /// from the runs' unions ([`counted`]), which list the layer-0 load
    /// sets too when `loads` asks. `n` runs in all.
    fn pack(
        mut self,
        plan: &TwoLevelPartition,
        runs: Vec<(Range<usize>, RunSize)>,
        n: usize,
        comm: CommMode,
        loads: bool,
    ) -> (Vec<LayerPlans>, Option<LoadSets>) {
        let owner = &plan.assignment.partition_of[..];
        let (runs, mut sized): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
        let mut sets = None;
        let layers = (0..self.layers)
            .map(|l| {
                let mut listed = (l == 0 && loads).then(|| vec![Vec::new(); plan.m]);
                let (counts, buffer_comm) =
                    counted(&sized, l, plan.m, comm, owner, listed.as_mut());
                if listed.is_some() {
                    sets = listed;
                }
                let chunks = (0..plan.m)
                    .map(|i| {
                        runs.iter()
                            .zip(&mut sized)
                            .enumerate()
                            .map(|(g, (run, size))| {
                                let run = self.parts[run.clone()].iter_mut();
                                let parts =
                                    run.map(|batch| batch[l][i].take().expect("joined once"));
                                let neighbors = size.nbrs[l][i].take_list();
                                Arc::new(Packing::join(parts).build_over(i, g, neighbors))
                            })
                            .collect()
                    })
                    .collect();
                let plan = TwoLevelPartition {
                    m: plan.m,
                    n,
                    assignment: Arc::clone(&plan.assignment),
                    chunks,
                };
                LayerPlans {
                    plan,
                    counts,
                    buffer_comm,
                }
            })
            .collect();
        (layers, sets)
    }
}

/// A set of vertex ids: ascending, or — where the cone's lists are long
/// beside the graph — a bitmap over the graph's vertices.
#[derive(Debug, Clone)]
enum Rows {
    List(Vec<VertexId>),
    Bits(Vec<u64>),
}

/// With inter-GPU dedup, what one GPU's merged buffer holds for a run:
/// the transition set `ℕ_i` — every row GPU `i` owns that some GPU's
/// chunk reads — and `M_i = N_i ∪ ℕ_i`.
#[derive(Debug, Clone)]
struct Held {
    transition: Rows,
    merged: Rows,
}

impl Rows {
    /// The union of ascending `lists`, as a bitmap of `words` words or
    /// listed.
    fn new<'a>(lists: impl Iterator<Item = &'a [VertexId]>, words: Option<usize>) -> Rows {
        match words {
            None => Rows::List(lists.fold(Vec::new(), |acc, l| {
                if acc.is_empty() {
                    l.to_vec()
                } else {
                    union_sorted(&acc, l)
                }
            })),
            Some(words) => {
                let mut bits = vec![0u64; words];
                for &v in lists.flatten() {
                    bits[v as usize / 64] |= 1 << (v % 64);
                }
                Rows::Bits(bits)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Rows::List(list) => list.len(),
            Rows::Bits(bits) => bits.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    fn union(&self, other: &Rows) -> Rows {
        match (self, other) {
            (Rows::List(a), Rows::List(b)) => Rows::List(union_sorted(a, b)),
            (Rows::Bits(a), Rows::Bits(b)) => {
                Rows::Bits(a.iter().zip(b).map(|(a, b)| a | b).collect())
            }
            _ => unreachable!("one cone sizes all its rows alike"),
        }
    }

    /// `|self ∪ other|`, counted.
    fn union_len(&self, other: &Rows) -> usize {
        match (self, other) {
            (Rows::List(a), Rows::List(b)) => union_len(a, b),
            (Rows::Bits(a), Rows::Bits(b)) => a
                .iter()
                .zip(b)
                .map(|(a, b)| (a | b).count_ones() as usize)
                .sum(),
            _ => unreachable!("one cone sizes all its rows alike"),
        }
    }

    /// `|self ∩ other|`, counted.
    fn common_len(&self, other: &Rows) -> usize {
        self.len() + other.len() - self.union_len(other)
    }

    /// Calls `f` on every row of `self` not in `minus`, ascending.
    fn for_each_minus(&self, minus: Option<&Rows>, mut f: impl FnMut(VertexId)) {
        match (self, minus) {
            (Rows::List(a), None) => a.iter().copied().for_each(f),
            (Rows::List(a), Some(Rows::List(b))) => {
                let mut at = 0;
                for &v in a {
                    while at < b.len() && b[at] < v {
                        at += 1;
                    }
                    if b.get(at) != Some(&v) {
                        f(v);
                    }
                }
            }
            (Rows::Bits(a), minus) => {
                let b = match minus {
                    None => None,
                    Some(Rows::Bits(b)) => Some(b),
                    Some(Rows::List(_)) => unreachable!("one cone sizes all its rows alike"),
                };
                for (w, &word) in a.iter().enumerate() {
                    let mut rest = word & !b.map_or(0, |b| b[w]);
                    while rest != 0 {
                        f((w * 64) as VertexId + rest.trailing_zeros());
                        rest &= rest - 1;
                    }
                }
            }
            (Rows::List(_), Some(Rows::Bits(_))) => {
                unreachable!("one cone sizes all its rows alike")
            }
        }
    }

    /// The rows, listed ascending.
    fn take_list(&mut self) -> Vec<VertexId> {
        match self {
            Rows::List(list) => std::mem::take(list),
            Rows::Bits(_) => {
                let mut list = Vec::new();
                self.for_each_minus(None, |v| list.push(v));
                list
            }
        }
    }

    /// With inter-GPU dedup, what each GPU's merged buffer holds, given
    /// every GPU's neighbor rows `nbrs` ([`Held`]). `owned[i]` is GPU
    /// `i`'s rows as a bitmap (bitmap rows only).
    fn held(nbrs: &[Rows], owner: &[u32], owned: &[Vec<u64>]) -> Vec<Held> {
        match nbrs.first() {
            Some(Rows::Bits(_)) => {
                let union = nbrs
                    .iter()
                    .skip(1)
                    .fold(nbrs[0].clone(), |acc, n| acc.union(n));
                let Rows::Bits(union) = union else {
                    unreachable!("bitmaps union to a bitmap")
                };
                nbrs.iter()
                    .zip(owned)
                    .map(|(n, owned)| {
                        let Rows::Bits(n) = n else {
                            unreachable!("one cone sizes all its rows alike")
                        };
                        let transition: Vec<u64> =
                            union.iter().zip(owned).map(|(u, o)| u & o).collect();
                        let merged = n.iter().zip(&transition).map(|(n, t)| n | t).collect();
                        Held {
                            transition: Rows::Bits(transition),
                            merged: Rows::Bits(merged),
                        }
                    })
                    .collect()
            }
            _ => {
                let lists: Vec<&[VertexId]> = nbrs
                    .iter()
                    .map(|n| match n {
                        Rows::List(list) => &list[..],
                        Rows::Bits(_) => unreachable!("one cone sizes all its rows alike"),
                    })
                    .collect();
                let mut by_owner = vec![Vec::new(); lists.len()];
                for v in lists
                    .iter()
                    .fold(Vec::new(), |acc, n| union_sorted(&acc, n))
                {
                    by_owner[owner[v as usize] as usize].push(v);
                }
                lists
                    .iter()
                    .zip(by_owner)
                    .map(|(n, owned)| Held {
                        merged: Rows::List(union_sorted(n, &owned)),
                        transition: Rows::List(owned),
                    })
                    .collect()
            }
        }
    }
}

/// Cone rows of one or more consecutive batches, sized without packing
/// them: per layer and GPU, the shape of the chunk packing them would
/// build ([`Packing::shape`]), its neighbor rows `N_i`, and, with
/// inter-GPU dedup, what its merged buffer holds ([`Held`]).
///
/// Merging two runs unions all three: a run's `ℕ_i` is GPU `i`'s share
/// of the union of every chunk's `N`, so `ℕ_i` and `M_i` of the merge are
/// the unions of the runs'.
#[derive(Clone)]
struct RunSize {
    /// `shape[l][i]`.
    shape: Vec<Vec<ChunkShape>>,
    /// `nbrs[l][i]`: `N_i`.
    nbrs: Vec<Vec<Rows>>,
    /// `held[l][i]`; `None` without inter-GPU dedup, where the buffer
    /// holds `N_i`.
    held: Option<Vec<Vec<Held>>>,
}

impl RunSize {
    /// The rows GPU `i`'s buffer holds at layer `l`: `M_i`, or `N_i`
    /// without inter-GPU dedup.
    fn buffer(&self, l: usize, i: usize) -> &Rows {
        self.held
            .as_ref()
            .map_or(&self.nbrs[l][i], |held| &held[l][i].merged)
    }

    /// The rows of this and of `next` as one batch: destinations and
    /// edges add up, rows unite.
    fn then(&self, next: &RunSize) -> RunSize {
        let nbrs: Vec<Vec<Rows>> = self
            .nbrs
            .iter()
            .zip(&next.nbrs)
            .map(|(a, b)| a.iter().zip(b).map(|(a, b)| a.union(b)).collect())
            .collect();
        let held = self.held.as_ref().zip(next.held.as_ref()).map(|(a, b)| {
            a.iter()
                .zip(b)
                .map(|(a, b)| {
                    a.iter()
                        .zip(b)
                        .map(|(a, b)| Held {
                            transition: a.transition.union(&b.transition),
                            merged: a.merged.union(&b.merged),
                        })
                        .collect()
                })
                .collect()
        });
        let shape = merged_shape(&[&self.shape, &next.shape], |l, i| nbrs[l][i].len());
        RunSize { shape, nbrs, held }
    }

    /// The shape and buffer rows, per `(l, i)`, of `self.then(next)`,
    /// counted rather than merged.
    fn merged_size(&self, next: &RunSize) -> (Vec<Vec<ChunkShape>>, Vec<Vec<usize>>) {
        let shape = merged_shape(&[&self.shape, &next.shape], |l, i| {
            self.nbrs[l][i].union_len(&next.nbrs[l][i])
        });
        let rows = (0..self.nbrs.len())
            .map(|l| {
                (0..self.nbrs[l].len())
                    .map(|i| self.buffer(l, i).union_len(next.buffer(l, i)))
                    .collect()
            })
            .collect();
        (shape, rows)
    }
}

/// Per `(l, i)`, the shape of merging chunks of shapes `batches[..][l][i]`
/// (one batch or more) whose merged chunk reads `neighbors(l, i)` rows.
fn merged_shape(
    batches: &[&[Vec<ChunkShape>]],
    neighbors: impl Fn(usize, usize) -> usize,
) -> Vec<Vec<ChunkShape>> {
    let first = batches[0];
    (0..first.len())
        .map(|l| {
            (0..first[l].len())
                .map(|i| ChunkShape {
                    dests: batches.iter().map(|b| b[l][i].dests).sum(),
                    edges: batches.iter().map(|b| b[l][i].edges).sum(),
                    neighbors: neighbors(l, i),
                })
                .collect()
        })
        .collect()
}

/// The greedy run chooser of [`Cone::packed`].
struct Packer<'a> {
    rows: &'a [SliceRows],
    model: &'a GnnModel,
    comm: CommMode,
}

impl Packer<'_> {
    /// Per `(l, i)`, the forward footprint of a step of chunk shapes
    /// `shape[l][i]` whose buffers hold `rows[l][i]` rows
    /// ([`footprint::packed_parts`]).
    fn cost(&self, shape: &[Vec<ChunkShape>], rows: &[Vec<usize>]) -> Steps {
        let cost: Vec<Vec<(usize, usize)>> = shape
            .iter()
            .zip(rows)
            .enumerate()
            .map(|(l, (shape, rows))| {
                shape
                    .iter()
                    .zip(rows)
                    .map(|(&shape, &rows)| {
                        let own = footprint::own_bytes(self.model, l, shape);
                        footprint::packed_parts(self.model, self.comm, l, own, rows)
                    })
                    .collect()
            })
            .collect();
        Steps::step(&cost)
    }

    /// The step `sized` makes.
    fn step(&self, sized: &RunSize) -> Steps {
        let rows: Vec<Vec<usize>> = (0..sized.nbrs.len())
            .map(|l| {
                (0..sized.nbrs[l].len())
                    .map(|i| sized.buffer(l, i).len())
                    .collect()
            })
            .collect();
        self.cost(&sized.shape, &rows)
    }

    /// Whether the runs `sized`, in order, fit `budget`.
    fn fits(&self, sized: &[RunSize], budget: &[usize]) -> bool {
        sized
            .iter()
            .fold(Steps::default(), |sweep, run| sweep.then(&self.step(run)))
            .fits(budget)
    }

    /// The greedy runs over the touched batches, as ranges of positions
    /// in `alone`, each sized: a run is extended by the next touched
    /// batch while the merged step fits `budget` together with the runs
    /// before it and the batches after it, each of those run alone
    /// ([`Cone::packed`]). A merge is priced by counting its lists'
    /// unions, and merged only once accepted.
    fn runs(&self, alone: Vec<RunSize>, budget: &[usize]) -> Vec<(Range<usize>, RunSize)> {
        let steps: Vec<Steps> = alone.iter().map(|a| self.step(a)).collect();
        // after[p]: the batches from `alone[p]` on, each run alone.
        let mut after = vec![Steps::default(); alone.len() + 1];
        for p in (0..alone.len()).rev() {
            after[p] = steps[p].then(&after[p + 1]);
        }
        let mut runs = Vec::new();
        let mut before = Steps::default();
        let mut run = 0..1;
        // The open run, once it holds two batches or more, and its step.
        let mut open: Option<(RunSize, Steps)> = None;
        for p in 1..alone.len() {
            let current = open.as_ref().map_or(&alone[run.start], |(sized, _)| sized);
            let (shape, rows) = current.merged_size(&alone[p]);
            let step = self.cost(&shape, &rows);
            if before.then(&step).then(&after[p + 1]).fits(budget) {
                run.end = p + 1;
                open = Some((current.then(&alone[p]), step));
            } else {
                let (sized, step) = open
                    .take()
                    .map_or((None, steps[run.start].clone()), |(s, step)| {
                        (Some(s), step)
                    });
                before = before.then(&step);
                runs.push((std::mem::replace(&mut run, p..p + 1), sized));
            }
        }
        runs.push((run, open.map(|(sized, _)| sized)));
        // A run of one batch is sized by that batch alone.
        let mut alone: Vec<Option<RunSize>> = alone.into_iter().map(Some).collect();
        runs.into_iter()
            .map(|(run, sized)| {
                let sized = sized.unwrap_or_else(|| alone[run.start].take().expect("one run each"));
                (run, sized)
            })
            .collect()
    }

    /// The touched batches in two runs, cut where the rows either side
    /// are closest to even.
    fn halves(&self, touched: &[usize]) -> Vec<Range<usize>> {
        let rows = |j: usize| -> usize {
            self.rows
                .iter()
                .flat_map(|layer| layer.iter().map(move |gpu| gpu[j].len()))
                .sum()
        };
        let weights: Vec<usize> = touched.iter().map(|&j| rows(j)).collect();
        let total: usize = weights.iter().sum();
        let cut = (1..touched.len())
            .min_by_key(|&c| {
                let left: usize = weights[..c].iter().sum();
                left.abs_diff(total - left)
            })
            .expect("two touched batches or more");
        vec![0..cut, cut..touched.len()]
    }
}

/// `|a ∪ b|` of two ascending lists.
fn union_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut both) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                (i, j, both) = (i + 1, j + 1, both + 1);
            }
        }
    }
    a.len() + b.len() - both
}

/// Per `(layer, GPU)`, what a sequence of packed steps costs on the
/// device: its largest own bytes plus the in-place buffer's capacity,
/// the sum of the rises in buffer size from step to step (the first
/// from nothing) — the executor's footprint of the worst of those steps.
#[derive(Debug, Clone, Default)]
struct Steps {
    /// Per cell `(l, i)`: largest own bytes, capacity, the buffer of the
    /// first and of the last step. Empty for no steps.
    cells: Vec<Vec<[usize; 4]>>,
}

impl Steps {
    /// One step of per-cell `(own, buffer)` bytes.
    fn step(cost: &[Vec<(usize, usize)>]) -> Steps {
        let cells = cost
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|&(own, buf)| [own, buf, buf, buf])
                    .collect()
            })
            .collect();
        Steps { cells }
    }

    /// This sequence, then `next`: the rise into `next`'s first step is
    /// from this sequence's last, not from nothing.
    fn then(&self, next: &Steps) -> Steps {
        if self.cells.is_empty() || next.cells.is_empty() {
            return if self.cells.is_empty() { next } else { self }.clone();
        }
        let cells = self
            .cells
            .iter()
            .zip(&next.cells)
            .map(|(a, b)| {
                a.iter()
                    .zip(b)
                    .map(
                        |(&[own_a, cap_a, first, last], &[own_b, cap_b, first_b, last_b])| {
                            let cap = cap_a + (cap_b - first_b) + first_b.saturating_sub(last);
                            [own_a.max(own_b), cap, first, last_b]
                        },
                    )
                    .collect()
            })
            .collect();
        Steps { cells }
    }

    /// Whether every step fits GPU `i`'s `budget[i]` at every layer.
    fn fits(&self, budget: &[usize]) -> bool {
        self.cells
            .iter()
            .all(|layer| layer.iter().zip(budget).all(|(c, &b)| c[0] + c[1] <= b))
    }
}

/// Result of one pruned serving sweep ([`Session::serve`]).
///
/// [`Session::serve`]: crate::Session::serve
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Logits of the queried vertices, one row per query vertex in
    /// query order — bitwise equal to the same rows of a full
    /// [`infer_epoch`](crate::Session::infer_epoch)'s logits.
    pub logits: Matrix,
    /// Simulated sweep time in seconds (critical path over GPUs).
    pub time: f64,
    /// Per-component simulated time/volume.
    pub buckets: TimeBuckets,
    /// High-water device memory across GPUs, in bytes.
    pub peak_gpu_bytes: usize,
    /// High-water host memory in bytes.
    pub peak_host_bytes: usize,
    /// `(layer, batch)` steps the pruned sweep executed on its packed
    /// grid — one batch per run of the session's batches — a step running
    /// iff some GPU's packed chunk of it is non-empty.
    pub active_steps: usize,
    /// `(layer, batch)` steps a full sweep would have executed: `L × n`
    /// on the session's grid.
    pub total_steps: usize,
    /// Destination rows the pruned sweep computed, summed over layers.
    pub active_rows: usize,
    /// Destination rows a full sweep would have computed (`L × |V|`).
    pub total_rows: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::GraphBuilder;
    use proptest::test_runner::TestCaseError;

    /// 8-vertex ring 0→1→…→7→0, 4 chunks of 2 on 1 partition: batch j
    /// owns {2j, 2j+1}, and the ≤1-hop cone of vertex 2j is
    /// {2j-1, 2j} — spanning batches j-1 and j.
    fn ring_plan() -> TwoLevelPartition {
        TwoLevelPartition::build(&ring(), 1, 4, 7)
    }

    /// The ring [`ring_plan`] partitions.
    fn ring() -> Graph {
        let mut b = GraphBuilder::new(8);
        for v in 0..8 {
            b.add_edge(v, (v + 1) % 8);
        }
        b.build()
    }

    #[test]
    fn single_vertex_single_layer_cone() {
        let plan = ring_plan();
        // Find vertex 0's batch, then query it for one layer: only that
        // batch is active.
        let j0 = plan.all_chunks().find(|c| c.dests.contains(&0)).unwrap();
        let mask = ServeMask::from_queries(&plan, 1, &[0]);
        assert!(mask.active(0, j0.chunk));
        assert_eq!(mask.active_steps(), 1);
        assert_eq!(mask.total_steps(), 4);
    }

    #[test]
    fn mask_is_downward_closed() {
        let plan = ring_plan();
        let mask = ServeMask::from_queries(&plan, 3, &[3]);
        for l in 0..2 {
            for j in 0..4 {
                assert!(
                    !mask.active(l + 1, j) || mask.active(l, j),
                    "batch {j} active at layer {} but not {}",
                    l + 1,
                    l
                );
            }
        }
    }

    #[test]
    fn dirty_mask_is_upward_closed() {
        let plan = ring_plan();
        let mask = ServeMask::from_dirty(&plan, &ring(), 3, &[3]);
        for l in 0..2 {
            for j in 0..4 {
                assert!(
                    !mask.active(l, j) || mask.active(l + 1, j),
                    "batch {j} active at layer {l} but not {}",
                    l + 1
                );
            }
        }
        assert!(mask.active_steps() >= 1);
    }

    #[test]
    fn full_query_activates_everything() {
        let plan = ring_plan();
        let all: Vec<usize> = (0..8).collect();
        let mask = ServeMask::from_queries(&plan, 2, &all);
        assert_eq!(mask.active_steps(), mask.total_steps());
        assert_eq!(mask.active_rows(), mask.total_rows());
        assert_eq!(mask.total_rows(), 16);
    }

    #[test]
    fn rows_count_the_cone_not_its_batches() {
        let plan = ring_plan();
        // 3's two-layer cone on the ring: {3} at the top, {2, 3} below.
        let mask = ServeMask::from_queries(&plan, 2, &[3]);
        assert_eq!(mask.active_rows(), 3);
        assert_eq!(mask.total_rows(), 16);
        assert_eq!(mask.rows().len(), 2);
    }

    #[test]
    fn a_cone_packs_every_layer_to_its_rows() {
        let plan = ring_plan();
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for ends in [vec![4], vec![2, 4], vec![1, 2, 3, 4]] {
                let mask = ServeMask::from_queries(&plan, 2, &[4]);
                let cone = Cone::new(&plan, mask.clone(), ends.clone(), comm, true, 0);
                assert_eq!(cone.mask().origin().runs, ends);
                let dests = |l: usize| -> Vec<u32> {
                    let mut d: Vec<u32> = cone.layers[l]
                        .plan
                        .all_chunks()
                        .flat_map(|c| c.dests.clone())
                        .collect();
                    d.sort_unstable();
                    d
                };
                assert_eq!(dests(1), [4]);
                assert_eq!(dests(0), [3, 4]);
                for (l, layer) in cone.layers.iter().enumerate() {
                    assert_eq!(
                        layer.plan.chunks,
                        plan.packed(&mask.rows()[l], &ends).chunks
                    );
                    assert_eq!(layer.buffer_comm.is_some(), comm == CommMode::P2pRu);
                }
                // Runs holding no touched batch (0 and 3 of the four
                // singletons) are counted too.
                matches_builders(&cone, comm, true).unwrap();
                // 3 and 4 (batches 1 and 2) share a step only when one
                // run holds both.
                let steps = if ends.len() == 1 { 2 } else { 3 };
                assert_eq!(cone.active_steps(), steps, "{ends:?}");
            }
        }
    }

    /// The run rule on the ring: a roomy budget packs the cone into one
    /// run — two under double buffering, which needs a batch to overlap
    /// with — and a budget nothing fits leaves every touched batch alone.
    #[test]
    fn the_run_rule_merges_while_the_budget_allows() {
        use hongtu_nn::ModelKind;
        use hongtu_tensor::SeededRng;
        let plan = ring_plan();
        let model = GnnModel::new(ModelKind::Gcn, &[4, 4, 2], &mut SeededRng::new(1));
        let packed = |overlap: OverlapMode, budget: usize| {
            let config = HongTuConfig::builder()
                .gpus(1)
                .overlap(overlap)
                .build()
                .expect("config");
            let mask = ServeMask::from_queries(&plan, 2, &[0, 3, 5]);
            let cone = Cone::packed(&plan, mask, &config, &model, &[budget], &Owned::new(), 0);
            cone.mask().origin().runs.clone()
        };
        assert_eq!(packed(OverlapMode::Off, usize::MAX), [4]);
        assert_eq!(packed(OverlapMode::DoubleBuffer, usize::MAX).len(), 2);
        assert_eq!(packed(OverlapMode::Off, 0), [1, 2, 3, 4]);
    }

    /// What a cone's plans were before they were counted from the
    /// packer's unions: the packed grid's dedup and buffer plans built in
    /// full by the session's builders, and the load sets read off them —
    /// kept as the oracle.
    fn plans_reference(
        plan: &TwoLevelPartition,
        comm: CommMode,
    ) -> (DedupCounts, Option<Vec<Vec<BatchComm>>>, LoadSets) {
        use crate::buffers::GpuBufferPlan;
        use crate::dedup::DedupPlan;
        let dedup = DedupPlan::build(plan);
        let bufplans = (comm == CommMode::P2pRu).then(|| GpuBufferPlan::build_all(plan, &dedup));
        let buffer_comm = crate::engine::build_buffer_comm(plan, bufplans.as_deref(), comm);
        let sets = hongtu_cache::load_sets(plan, &dedup, bufplans.as_deref(), comm.load_pattern());
        (dedup.counts(), buffer_comm, sets)
    }

    /// Fails unless every layer of `cone` counts what [`plans_reference`]
    /// builds over its own packed grid — under Vanilla, which reads the
    /// fetch matrix only, with no transition set built — and the layer-0
    /// load sets are the builders' when `loads`, and absent otherwise.
    fn matches_builders(cone: &Cone, comm: CommMode, loads: bool) -> Result<(), TestCaseError> {
        for (l, layer) in cone.layers.iter().enumerate() {
            let (counts, buffer_comm, sets) = plans_reference(&layer.plan, comm);
            if comm == CommMode::Vanilla {
                for (got, want) in layer.counts.batches.iter().zip(&counts.batches) {
                    proptest::prop_assert_eq!(&got.fetch, &want.fetch);
                    proptest::prop_assert!(got.transition.is_empty() && got.reused.is_empty());
                }
                proptest::prop_assert_eq!(layer.counts.n, counts.n);
            } else {
                proptest::prop_assert_eq!(&layer.counts, &counts);
            }
            proptest::prop_assert_eq!(&layer.buffer_comm, &buffer_comm);
            if l == 0 {
                proptest::prop_assert_eq!(cone.loads.as_deref(), loads.then_some(&sets));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// Over random graphs, cones and budgets, under every
        /// communication mode, with and without double buffering and a
        /// cache: each layer's packed chunks are the builders' packed
        /// grid, its counts and §6 buffer table are what the builders give
        /// over that grid — Vanilla, which reads the fetch matrix only,
        /// builds no transition set — and the layer-0 load sets, listed
        /// only under a cache, are the builders'. The same holds of the
        /// cone packed on random runs ([`Cone::new`], the grid baseline's
        /// path), whose runs may hold no touched batch.
        #[test]
        fn counted_plans_equal_the_builders_over_the_packed_grid(
            seed in 0u64..1_000_000,
            n in 40usize..4000,
            comm in 0usize..3,
            double in 0u32..2,
            cache in 0u32..2,
            gpus in 1usize..4,
            chunks in 1usize..6,
            seeds in 1usize..30,
            upward in 0u32..2,
            budget in 0usize..4,
            cuts in 0u32..32,
        ) {
            use hongtu_cache::{FrequencyRanked, Off};
            use hongtu_graph::generators;
            use hongtu_nn::ModelKind;
            use hongtu_tensor::SeededRng;
            let mut rng = SeededRng::new(seed);
            let g = generators::erdos_renyi(n, 6.0, &mut rng);
            let plan = TwoLevelPartition::build(&g, gpus, chunks, seed);
            let comm = [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu][comm];
            let overlap = [OverlapMode::Off, OverlapMode::DoubleBuffer][double as usize];
            let policy: std::sync::Arc<dyn hongtu_cache::CachePolicy> = if cache == 1 {
                std::sync::Arc::new(FrequencyRanked)
            } else {
                std::sync::Arc::new(Off)
            };
            let config = HongTuConfig::builder()
                .gpus(gpus)
                .comm(comm)
                .overlap(overlap)
                .cache(policy)
                .build()
                .expect("config");
            let model = GnnModel::new(ModelKind::Gcn, &[4, 4, 2], &mut rng);
            let vertices = rng.sample_indices(n, seeds.min(n));
            let mask = if upward == 1 {
                ServeMask::from_dirty(&plan, &g, 2, &vertices)
            } else {
                ServeMask::from_queries(&plan, 2, &vertices)
            };
            let budget = [usize::MAX, 0, 1 << 12, 1 << 15][budget];
            let cone = Cone::packed(&plan, mask.clone(), &config, &model, &vec![budget; gpus], &Owned::new(), 0);
            // Runs ending after each batch `cuts` picks, and at the last.
            let mut ends: Vec<usize> = (1..plan.n).filter(|&j| cuts >> j & 1 == 1).collect();
            ends.push(plan.n);
            let on_ends = Cone::new(&plan, mask.clone(), ends, comm, cache == 1, 0);
            for cone in [&cone, &on_ends] {
                let runs = &cone.mask().origin().runs;
                for (l, layer) in cone.layers.iter().enumerate() {
                    let grid = plan.packed(&mask.rows()[l], runs);
                    proptest::prop_assert_eq!(&layer.plan.chunks, &grid.chunks);
                }
                matches_builders(cone, comm, cache == 1)?;
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        let plan = ring_plan();
        ServeMask::from_queries(&plan, 1, &[99]);
    }

    #[test]
    #[should_panic(expected = "empty query")]
    fn empty_query_panics() {
        let plan = ring_plan();
        ServeMask::from_queries(&plan, 1, &[]);
    }
}
