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
//! what they meant; each layer's packed grid gets its dedup / buffer
//! plans from the same builders the session's came from, so a masked
//! sweep is a full sweep over smaller plans: same driver, same emitters,
//! same footprint arithmetic, same numerics — each per-row reduction
//! keeps its in-edge order whatever chunk holds the row, so the rows it
//! computes are bitwise the full sweep's.

use crate::buffers::GpuBufferPlan;
use crate::cone::{ConeDir, ConeOrigin, VertexIndex};
use crate::dedup::{union_sorted, DedupPlan};
use crate::engine::{build_buffer_comm, BatchComm, CommMode, HongTuConfig};
use crate::footprint;
use hongtu_graph::VertexId;
use hongtu_nn::GnnModel;
use hongtu_partition::{ChunkShape, ChunkSubgraph, Packing, SliceRows, TwoLevelPartition};
use hongtu_sim::TimeBuckets;
use hongtu_stream::OverlapMode;
use hongtu_tensor::Matrix;
use std::ops::Range;

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
        Self::grow(
            plan,
            &VertexIndex::new(plan),
            ConeDir::Downward,
            layers,
            vertices,
        )
    }

    /// Computes the exact ≤ L-hop *out*-neighborhood cone of the dirty
    /// vertices — the rows an incremental recompute must replay after a
    /// graph mutation invalidated those vertices' layer-1 rows
    /// ([`crate::cone`] gives the recurrence and the duality with the
    /// query cone).
    ///
    /// # Panics
    ///
    /// Panics if any dirty vertex id is out of range for the plan's
    /// graph, or if `dirty` is empty (a mutation with no dirty vertices
    /// has nothing to replay).
    pub fn from_dirty(plan: &TwoLevelPartition, layers: usize, dirty: &[usize]) -> ServeMask {
        Self::grow(
            plan,
            &VertexIndex::new(plan),
            ConeDir::Upward,
            layers,
            dirty,
        )
    }

    /// Grows the `dir` cone of `seeds` over `plan`, whose destinations
    /// `index` indexes.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` fails [`crate::cone::check_seeds`].
    pub(crate) fn grow(
        plan: &TwoLevelPartition,
        index: &VertexIndex,
        dir: ConeDir,
        layers: usize,
        seeds: &[usize],
    ) -> ServeMask {
        let origin = ConeOrigin {
            dir,
            layers,
            seeds: seeds.to_vec(),
            runs: (1..=plan.n).collect(),
        };
        let rows = origin.rows(plan, index);
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

/// The packed grid one layer of a masked sweep runs over and the
/// communication plans derived from it.
#[derive(Debug)]
pub(crate) struct LayerPlans {
    pub plan: TwoLevelPartition,
    pub dedup: DedupPlan,
    /// The §6 buffer plans of the packed grid (P2P+RU only).
    pub bufplans: Option<Vec<GpuBufferPlan>>,
    pub buffer_comm: Option<Vec<Vec<BatchComm>>>,
}

impl LayerPlans {
    fn derive(plan: TwoLevelPartition, comm: CommMode) -> Self {
        let dedup = DedupPlan::build(&plan);
        let bufplans = (comm == CommMode::P2pRu).then(|| GpuBufferPlan::build_all(&plan, &dedup));
        let buffer_comm = build_buffer_comm(&plan, bufplans.as_deref(), comm);
        LayerPlans {
            plan,
            dedup,
            bufplans,
            buffer_comm,
        }
    }
}

/// A [`ServeMask`] and the plans its sweep executes: the session's
/// batches split into runs ([`ConeOrigin::runs`]), per layer the packed
/// grid — one chunk per GPU per run — and that grid's own dedup and
/// buffer plans. Derived by a [`Session`] ([`Session::query_cone`],
/// [`Session::plan_cone`]) for its current plans, and valid for them
/// only: it records the plan generation it was derived from, which every
/// structural [`Session::apply_staged`] bumps, and a session refuses to
/// sweep a cone of another generation.
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
    /// The session plan generation the cone was derived from.
    pub(crate) generation: u64,
}

impl Cone {
    /// Packs `mask` into the runs ending at `ends`, layer by layer, and
    /// derives each packed grid's communication plans — linear in the
    /// cone's rows plus one bit per neighbor of each chunk they touch,
    /// plus the `m × k` grid and the level-1 assignment each packed grid
    /// carries.
    ///
    /// # Panics
    ///
    /// Panics if `ends` fails [`crate::cone::check_runs`] for `plan`.
    pub(crate) fn new(
        plan: &TwoLevelPartition,
        mask: ServeMask,
        ends: Vec<usize>,
        comm: CommMode,
        generation: u64,
    ) -> Cone {
        let layers = mask
            .rows
            .iter()
            .map(|rows| LayerPlans::derive(plan.packed(rows, &ends), comm))
            .collect();
        Cone::assemble(mask, ends, layers, generation)
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
    /// without being packed; the fewest runs (one, or two) are priced
    /// first, and each chosen run is packed once, from the marks.
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
        generation: u64,
    ) -> Cone {
        let touched: Vec<usize> = (0..plan.n)
            .filter(|&j| (0..mask.layers()).any(|l| mask.active(l, j)))
            .collect();
        if touched.is_empty() {
            return Cone::new(plan, mask, vec![plan.n], config.comm, generation);
        }
        // Per touched batch, layer and GPU, its cone rows marked for
        // packing; each is joined into its run's chunk once.
        let mut marked: Vec<Vec<Vec<Option<Packing>>>> = touched
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
        let words = plan.assignment.partition_of.len().div_ceil(64);
        let (lists, listed) = marked
            .iter()
            .flatten()
            .flatten()
            .flatten()
            .fold((0, 0), |(n, total), p| {
                (n + 1, total + p.read().map(<[_]>::len).sum::<usize>())
            });
        let bitmaps = listed >= lists * words;
        let shapes: Vec<Vec<Vec<ChunkShape>>> = marked
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
        let owner = (config.comm != CommMode::Vanilla).then_some(&plan.assignment.partition_of[..]);
        let owned = match owner.filter(|_| bitmaps) {
            None => Vec::new(),
            Some(owner) => {
                let mut owned = vec![vec![0u64; words]; plan.m];
                for (v, &i) in owner.iter().enumerate() {
                    owned[i as usize][v / 64] |= 1 << (v % 64);
                }
                owned
            }
        };
        let packer = Packer {
            rows: &mask.rows,
            model,
            comm: config.comm,
            owner,
            owned,
        };

        let double = config.overlap == OverlapMode::DoubleBuffer && touched.len() > 1;
        // The fewest runs there can be — one, or two under double
        // buffering — are taken when they fit; the greedy rule chooses
        // otherwise. Two halves fit wherever the one run holding them
        // does, so the greedy rule never ends in one run under double
        // buffering.
        let fewest: Vec<Range<usize>> = if double {
            packer.halves(&touched)
        } else {
            std::iter::once(0..touched.len()).collect()
        };
        // A ceiling that fits — every set as large as its batches'
        // together — takes the fewest runs without listing a row.
        let runs = if packer.ceiling_fits(&shapes, &fewest, budget) {
            fewest
        } else {
            let words = bitmaps.then_some(words);
            let alone: Vec<RunSize> = marked
                .iter()
                .zip(shapes)
                .map(|(batch, shape)| RunSize::of(batch, shape, words))
                .collect();
            if packer.fit(&alone, &fewest, budget) {
                fewest
            } else {
                packer.runs(alone, budget)
            }
        };
        debug_assert!(!double || runs.len() > 1, "double buffering keeps two runs");
        // Each run also takes the untouched batches up to the next one,
        // which add no rows.
        let mut ends: Vec<usize> = runs.iter().skip(1).map(|r| touched[r.start]).collect();
        ends.push(plan.n);
        let layers = (0..mask.layers())
            .map(|l| {
                let chunks = (0..plan.m)
                    .map(|i| {
                        runs.iter()
                            .enumerate()
                            .map(|(g, run)| {
                                let run = marked[run.clone()].iter_mut();
                                let parts =
                                    run.map(|batch| batch[l][i].take().expect("joined once"));
                                Packing::join(parts).build(i, g)
                            })
                            .collect()
                    })
                    .collect();
                let plan = TwoLevelPartition {
                    m: plan.m,
                    n: ends.len(),
                    assignment: plan.assignment.clone(),
                    chunks,
                };
                LayerPlans::derive(plan, config.comm)
            })
            .collect();
        Cone::assemble(mask, ends, layers, generation)
    }

    fn assemble(
        mut mask: ServeMask,
        ends: Vec<usize>,
        layers: Vec<LayerPlans>,
        generation: u64,
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
            generation,
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
}

/// A set of vertex ids: ascending, or — where the cone's lists are long
/// beside the graph — a bitmap over the graph's vertices.
#[derive(Clone)]
enum Rows {
    List(Vec<VertexId>),
    Bits(Vec<u64>),
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

    /// With inter-GPU dedup, the rows each GPU's merged buffer holds,
    /// given every GPU's neighbor rows `nbrs`: its own, and every row it
    /// owns that some GPU reads. `owned[i]` is GPU `i`'s rows as a bitmap
    /// (bitmap rows only).
    fn buffers(nbrs: &[Rows], owner: &[u32], owned: &[Vec<u64>]) -> Vec<Rows> {
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
                        let words = n.iter().zip(&union).zip(owned);
                        Rows::Bits(words.map(|((n, u), o)| n | (u & o)).collect())
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
                    .zip(&by_owner)
                    .map(|(n, owned)| Rows::List(union_sorted(n, owned)))
                    .collect()
            }
        }
    }
}

/// Cone rows of one or more consecutive batches, sized without packing
/// them: per layer and GPU, the shape of the chunk packing them would
/// build ([`Packing::shape`]), its neighbor rows `N_i`, and the rows its
/// merged buffer holds, `M_i` — `N_i` itself, or with inter-GPU dedup
/// `N_i ∪ ℕ_i`, where the transition set `ℕ_i` is every row GPU `i` owns
/// that some GPU's chunk reads.
///
/// Merging two runs unions both: a run's `ℕ_i` is GPU `i`'s share of the
/// union of every chunk's `N`, so `M_i` of the merge is the union of the
/// runs' `M_i`.
#[derive(Clone)]
struct RunSize {
    /// `shape[l][i]`.
    shape: Vec<Vec<ChunkShape>>,
    /// `nbrs[l][i]`: `N_i`.
    nbrs: Vec<Vec<Rows>>,
    /// `buffer[l][i]`: `M_i`; `None` until listed ([`RunSize::buffered`]),
    /// and without inter-GPU dedup, where it is `N_i`.
    buffer: Option<Vec<Vec<Rows>>>,
}

impl RunSize {
    /// What `marked[l][i]` packs into — chunk shapes `shape[l][i]` —
    /// its rows as bitmaps of `words` words when there are any.
    fn of(
        marked: &[Vec<Option<Packing>>],
        shape: Vec<Vec<ChunkShape>>,
        words: Option<usize>,
    ) -> RunSize {
        let nbrs = marked
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|p| Rows::new(p.as_ref().expect("not yet joined").read(), words))
                    .collect()
            })
            .collect();
        RunSize {
            shape,
            nbrs,
            buffer: None,
        }
    }

    /// Lists `M_i` from the neighbor rows, when the buffers deduplicate
    /// across GPUs ([`Packer::owner`]).
    fn buffered(mut self, packer: &Packer) -> RunSize {
        self.buffer = packer.owner.map(|owner| {
            self.nbrs
                .iter()
                .map(|layer| Rows::buffers(layer, owner, &packer.owned))
                .collect()
        });
        self
    }

    /// `M_i` per `(l, i)` — `N_i` until [`RunSize::buffered`] lists it.
    fn buffers(&self) -> &[Vec<Rows>] {
        self.buffer.as_deref().unwrap_or(&self.nbrs)
    }

    /// The rows of this and of `next` as one batch: destinations and
    /// edges add up, rows unite.
    fn then(&self, next: &RunSize) -> RunSize {
        let union = |a: &[Vec<Rows>], b: &[Vec<Rows>]| -> Vec<Vec<Rows>> {
            a.iter()
                .zip(b)
                .map(|(a, b)| a.iter().zip(b).map(|(a, b)| a.union(b)).collect())
                .collect()
        };
        let nbrs = union(&self.nbrs, &next.nbrs);
        let buffer = self
            .buffer
            .as_ref()
            .zip(next.buffer.as_ref())
            .map(|(a, b)| union(a, b));
        let shape = merged_shape(&self.shape, &next.shape, |l, i| nbrs[l][i].len());
        RunSize {
            shape,
            nbrs,
            buffer,
        }
    }

    /// The shape and buffer rows, per `(l, i)`, of `self.then(next)`,
    /// counted rather than merged.
    fn merged_size(&self, next: &RunSize) -> (Vec<Vec<ChunkShape>>, Vec<Vec<usize>>) {
        let shape = merged_shape(&self.shape, &next.shape, |l, i| {
            self.nbrs[l][i].union_len(&next.nbrs[l][i])
        });
        let rows = self
            .buffers()
            .iter()
            .zip(next.buffers())
            .map(|(a, b)| a.iter().zip(b).map(|(a, b)| a.union_len(b)).collect())
            .collect();
        (shape, rows)
    }
}

/// Per `(l, i)`, the shape of merging chunks of shapes `a` and `b` whose
/// merged chunk reads `neighbors(l, i)` rows.
fn merged_shape(
    a: &[Vec<ChunkShape>],
    b: &[Vec<ChunkShape>],
    neighbors: impl Fn(usize, usize) -> usize,
) -> Vec<Vec<ChunkShape>> {
    a.iter()
        .zip(b)
        .enumerate()
        .map(|(l, (a, b))| {
            a.iter()
                .zip(b)
                .enumerate()
                .map(|(i, (a, b))| ChunkShape {
                    dests: a.dests + b.dests,
                    edges: a.edges + b.edges,
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
    /// The level-1 assignment, when buffers deduplicate across GPUs.
    owner: Option<&'a [u32]>,
    /// Each GPU's vertices as a bitmap, when the cone's rows are bitmaps
    /// and buffers deduplicate.
    owned: Vec<Vec<u64>>,
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

    /// Whether `runs` (ranges of positions in `shapes`, one or two) fit
    /// `budget` even at their ceiling: a run's chunk as large as its
    /// batches' chunks together, its buffer as large as every GPU's
    /// neighbor rows together (its own alone, without inter-GPU dedup).
    /// With one or two steps the buffer capacity is the larger buffer, so
    /// a ceiling that fits bounds the sweep — and [`Packer::fit`] would
    /// accept the runs too.
    fn ceiling_fits(
        &self,
        shapes: &[Vec<Vec<ChunkShape>>],
        runs: &[Range<usize>],
        budget: &[usize],
    ) -> bool {
        debug_assert!(
            runs.len() <= 2,
            "capacity is the larger buffer of at most two steps"
        );
        runs.iter()
            .fold(Steps::default(), |sweep, run| {
                let batches = &shapes[run.clone()];
                let shape: Vec<Vec<ChunkShape>> = (0..batches[0].len())
                    .map(|l| {
                        (0..batches[0][l].len())
                            .map(|i| ChunkShape {
                                dests: batches.iter().map(|b| b[l][i].dests).sum(),
                                edges: batches.iter().map(|b| b[l][i].edges).sum(),
                                neighbors: batches.iter().map(|b| b[l][i].neighbors).sum(),
                            })
                            .collect()
                    })
                    .collect();
                let rows: Vec<Vec<usize>> = shape
                    .iter()
                    .map(|layer| {
                        let all: usize = layer.iter().map(|s| s.neighbors).sum();
                        layer
                            .iter()
                            .map(|s| {
                                if self.owner.is_some() {
                                    all
                                } else {
                                    s.neighbors
                                }
                            })
                            .collect()
                    })
                    .collect();
                sweep.then(&self.cost(&shape, &rows))
            })
            .fits(budget)
    }

    /// The step `sized` makes.
    fn step(&self, sized: &RunSize) -> Steps {
        let rows: Vec<Vec<usize>> = sized
            .buffers()
            .iter()
            .map(|layer| layer.iter().map(Rows::len).collect())
            .collect();
        self.cost(&sized.shape, &rows)
    }

    /// Whether `alone`, packed into `runs` (ranges of positions), fits
    /// `budget`.
    fn fit(&self, alone: &[RunSize], runs: &[Range<usize>], budget: &[usize]) -> bool {
        runs.iter()
            .fold(Steps::default(), |sweep, run| {
                let rest = &alone[run.start + 1..run.end];
                let merged = rest
                    .iter()
                    .fold(alone[run.start].clone(), |merged, next| merged.then(next));
                sweep.then(&self.step(&merged.buffered(self)))
            })
            .fits(budget)
    }

    /// The greedy runs over the touched batches, as ranges of positions
    /// in `alone`: a run is extended by the next touched batch while the
    /// merged step fits `budget` together with the runs before it and the
    /// batches after it, each of those run alone ([`Cone::packed`]). A
    /// merge is priced by counting its lists' unions, and merged only
    /// once accepted.
    fn runs(&self, alone: Vec<RunSize>, budget: &[usize]) -> Vec<Range<usize>> {
        let alone: Vec<RunSize> = alone.into_iter().map(|a| a.buffered(self)).collect();
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
                let step = open
                    .take()
                    .map_or_else(|| steps[run.start].clone(), |(_, step)| step);
                before = before.then(&step);
                runs.push(std::mem::replace(&mut run, p..p + 1));
            }
        }
        runs.push(run);
        runs
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

    /// 8-vertex ring 0→1→…→7→0, 4 chunks of 2 on 1 partition: batch j
    /// owns {2j, 2j+1}, and the ≤1-hop cone of vertex 2j is
    /// {2j-1, 2j} — spanning batches j-1 and j.
    fn ring_plan() -> TwoLevelPartition {
        let mut b = GraphBuilder::new(8);
        for v in 0..8 {
            b.add_edge(v, (v + 1) % 8);
        }
        TwoLevelPartition::build(&b.build(), 1, 4, 7)
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
        let mask = ServeMask::from_dirty(&plan, 3, &[3]);
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
                let cone = Cone::new(&plan, mask, ends.clone(), comm, 0);
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
                for layer in &cone.layers {
                    assert_eq!(layer.plan.n, ends.len());
                    assert!(layer.dedup.validate(&layer.plan).is_ok());
                    assert_eq!(layer.bufplans.is_some(), comm == CommMode::P2pRu);
                    assert_eq!(layer.buffer_comm.is_some(), comm == CommMode::P2pRu);
                }
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
            let cone = Cone::packed(&plan, mask, &config, &model, &[budget], 0);
            cone.mask().origin().runs.clone()
        };
        assert_eq!(packed(OverlapMode::Off, usize::MAX), [4]);
        assert_eq!(packed(OverlapMode::DoubleBuffer, usize::MAX).len(), 2);
        assert_eq!(packed(OverlapMode::Off, 0), [1, 2, 3, 4]);
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
