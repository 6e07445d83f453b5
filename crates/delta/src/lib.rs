//! Dynamic-graph subsystem: typed mutations, an epoch-versioned delta
//! log, and the dirty-vertex analysis behind incremental recompute.
//!
//! HongTu keeps every per-layer activation store `h^l` host-resident,
//! which makes recomputing only the part of the graph a mutation
//! touches dramatically cheaper than a full layer-wise sweep. This
//! crate owns the *graph-side* half of that path:
//!
//! * [`Delta`] — the typed mutation API ([`Delta::AddEdge`],
//!   [`Delta::RemoveEdge`], [`Delta::UpdateFeatures`]), validated
//!   against the live topology with typed [`DeltaError`]s;
//! * [`DynamicGraph`] — the evolving `(topology, features)` pair plus
//!   the [`DeltaLog`]: every committed batch bumps the epoch, so a
//!   session, a serving queue, and a rebuild oracle can agree on
//!   exactly which graph version a result reflects;
//! * [`StagedCommit`] — a validated-but-uncommitted batch carrying the
//!   post-commit topology and the **dirty-vertex analysis**: which
//!   `h^1` rows (and which chunk computations, for weight-touching
//!   edits) a commit invalidates.
//!
//! The engine-side half — rewriting the mutated chunks and replaying
//! the upward-closed affected cone through the executor — lives in
//! `hongtu-core` (`Session::apply_staged`), which consumes
//! [`StagedCommit`]s produced here.
//!
//! ## Dirty-vertex analysis
//!
//! GCN edge weights are global-degree normalized:
//! `w(u→d) = 1/√((1+out_deg(u))·(1+in_deg(d)))`. An edge edit `u→v`
//! therefore invalidates more than the touched edge:
//!
//! * `in_deg(v)` changes → every in-edge weight of `v` changes → `v`'s
//!   aggregation is dirty at every layer;
//! * `out_deg(u)` changes → every edge `u→w` changes weight → each
//!   out-neighbor `w` of `u` (old *or* new topology) is dirty;
//! * a feature update of `v` dirties exactly the layer-0 readers of
//!   `v` — its out-neighbors (including `v` itself via the self-loop).
//!
//! These **structural** seeds need recomputing at *every* layer; the
//! upward-closed cone (see `hongtu_core::cone`) keeps them active as it
//! grows along out-edges, which is exactly the replay induction: every
//! row a replayed chunk reads is either untouched or was recomputed one
//! layer below.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

use hongtu_datasets::dataset::Dataset;
use hongtu_graph::{Csr, Graph, GraphBuilder, VertexId};
use hongtu_tensor::{Matrix, SeededRng};

/// One typed graph mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Insert the directed edge `src → dst`. Fails with
    /// [`DeltaError::DuplicateEdge`] if already present and
    /// [`DeltaError::SelfLoop`] if `src == dst` (the mandatory
    /// self-loops are structural, not data).
    AddEdge { src: VertexId, dst: VertexId },
    /// Remove the directed edge `src → dst`. Fails with
    /// [`DeltaError::MissingEdge`] if absent and
    /// [`DeltaError::SelfLoop`] if `src == dst`.
    RemoveEdge { src: VertexId, dst: VertexId },
    /// Replace vertex `vertex`'s input-feature row.
    UpdateFeatures {
        vertex: VertexId,
        features: Vec<f32>,
    },
}

impl Delta {
    /// The vertices this mutation names (for range validation).
    fn endpoints(&self) -> (VertexId, Option<VertexId>) {
        match *self {
            Delta::AddEdge { src, dst } | Delta::RemoveEdge { src, dst } => (src, Some(dst)),
            Delta::UpdateFeatures { vertex, .. } => (vertex, None),
        }
    }
}

/// Why a delta batch was rejected. Staging is transactional: a batch
/// with any invalid delta commits nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The batch holds no delta: there is nothing to commit or replay.
    EmptyBatch,
    /// A named vertex id is outside the graph.
    OutOfRange {
        vertex: VertexId,
        num_vertices: usize,
    },
    /// An edge delta names a self-loop; the per-vertex self-loops are a
    /// dataset invariant (`Dataset::validate`) and cannot be edited.
    SelfLoop { vertex: VertexId },
    /// `AddEdge` of an edge the (staged) topology already contains.
    DuplicateEdge { src: VertexId, dst: VertexId },
    /// `RemoveEdge` of an edge the (staged) topology does not contain.
    MissingEdge { src: VertexId, dst: VertexId },
    /// `UpdateFeatures` with the wrong feature dimension.
    FeatureDimMismatch {
        vertex: VertexId,
        got: usize,
        want: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeltaError::EmptyBatch => write!(f, "empty delta batch"),
            DeltaError::OutOfRange {
                vertex,
                num_vertices,
            } => write!(f, "vertex {vertex} out of range ({num_vertices} vertices)"),
            DeltaError::SelfLoop { vertex } => {
                write!(
                    f,
                    "self-loop {vertex}→{vertex} is structural and not editable"
                )
            }
            DeltaError::DuplicateEdge { src, dst } => {
                write!(f, "edge {src}→{dst} already present")
            }
            DeltaError::MissingEdge { src, dst } => write!(f, "edge {src}→{dst} not present"),
            DeltaError::FeatureDimMismatch { vertex, got, want } => {
                write!(
                    f,
                    "vertex {vertex}: feature row has {got} columns, want {want}"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// One committed batch in the [`DeltaLog`].
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// The epoch this batch produced (first commit → epoch 1).
    pub epoch: u64,
    /// The mutations, in submission order.
    pub deltas: Vec<Delta>,
    /// The dirty `h^1` seed vertices the batch invalidated (sorted).
    pub dirty: Vec<usize>,
}

/// Epoch-versioned history of committed delta batches.
#[derive(Debug, Clone, Default)]
pub struct DeltaLog {
    entries: Vec<LogEntry>,
}

impl DeltaLog {
    /// Committed batches, oldest first.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of committed batches (== the current epoch).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before the first commit.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A validated-but-uncommitted delta batch: the post-commit topology
/// plus the dirty-vertex analysis. Produced by [`DynamicGraph::stage`],
/// consumed by [`DynamicGraph::commit`] (typically via
/// `Session::apply_staged`, which rebuilds the affected chunks from
/// [`StagedCommit::graph`] before committing).
#[derive(Debug, Clone)]
pub struct StagedCommit {
    base_epoch: u64,
    /// Shared with the [`DynamicGraph`] when the batch leaves the
    /// topology as it is (feature-only, or edge edits that cancel).
    graph: Arc<Graph>,
    deltas: Vec<Delta>,
    dirty: Vec<usize>,
    structural: Vec<usize>,
    patches: Vec<(usize, Vec<f32>)>,
    edges_added: usize,
    edges_removed: usize,
}

impl StagedCommit {
    /// The post-commit topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The post-commit topology as the `Arc` the [`DynamicGraph`] holds
    /// once the batch is committed, for callers that keep it by identity.
    pub fn shared_graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The epoch of the [`DynamicGraph`] this batch was staged against;
    /// it commits only onto that epoch.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// All dirty `h^1` seed vertices (sorted, deduplicated): structural
    /// seeds plus the layer-0 readers of feature-updated vertices.
    /// Seeds the upward-closed affected cone.
    pub fn dirty(&self) -> &[usize] {
        &self.dirty
    }

    /// The structurally dirty vertices (sorted, deduplicated): those
    /// whose producing chunk computation changed (edge list or
    /// global-degree weights). Every chunk owning one must be rebuilt.
    pub fn structural(&self) -> &[usize] {
        &self.structural
    }

    /// Feature-row replacements `(vertex, row)` to patch into `h^0`.
    pub fn feature_patches(&self) -> &[(usize, Vec<f32>)] {
        &self.patches
    }

    /// The epoch this commit produces (`base + 1`).
    pub fn epoch(&self) -> u64 {
        self.base_epoch + 1
    }

    /// Edges inserted by the batch.
    pub fn edges_added(&self) -> usize {
        self.edges_added
    }

    /// Edges removed by the batch.
    pub fn edges_removed(&self) -> usize {
        self.edges_removed
    }

    /// The staged mutations, in submission order.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }
}

/// Receipt of a committed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitReceipt {
    /// The epoch the graph is now at.
    pub epoch: u64,
    /// The dirty `h^1` seed vertices the batch invalidated (sorted).
    pub dirty: Vec<usize>,
    /// Edges inserted.
    pub edges_added: usize,
    /// Edges removed.
    pub edges_removed: usize,
}

/// The evolving `(topology, features)` pair plus its [`DeltaLog`].
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    graph: Arc<Graph>,
    features: Matrix,
    log: DeltaLog,
}

impl DynamicGraph {
    /// Wraps a topology and its per-vertex feature matrix at epoch 0.
    ///
    /// Staging edits rows in place by binary search, so the adjacency
    /// lists must be strictly ascending in both orientations — what
    /// [`GraphBuilder`] produces. A graph that is not (e.g. one loaded
    /// from a binary file) is rebuilt once here, sorted and
    /// deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not have one row per vertex.
    pub fn new(graph: Graph, features: Matrix) -> Self {
        assert_eq!(
            features.rows(),
            graph.num_vertices(),
            "features must have one row per vertex"
        );
        let graph = if rows_strictly_ascending(&graph.csr) && rows_strictly_ascending(&graph.csc) {
            graph
        } else {
            let mut b = GraphBuilder::new(graph.num_vertices()).keep_self_loops();
            b.extend(graph.csr.edges());
            b.build()
        };
        DynamicGraph {
            graph: Arc::new(graph),
            features,
            log: DeltaLog::default(),
        }
    }

    /// Wraps a dataset's graph and features at epoch 0.
    pub fn from_dataset(ds: &Dataset) -> Self {
        DynamicGraph::new(ds.graph.clone(), ds.features.clone())
    }

    /// The current topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current per-vertex features.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The committed-batch history.
    pub fn log(&self) -> &DeltaLog {
        &self.log
    }

    /// Current epoch (number of committed batches).
    pub fn epoch(&self) -> u64 {
        self.log.len() as u64
    }

    /// Number of vertices (invariant across mutations).
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Validates `deltas` against the current state and computes the
    /// post-commit topology plus the dirty-vertex analysis, without
    /// committing anything. Deltas are checked in order against the
    /// *staged* edge set, so `AddEdge(u→v)` followed by
    /// `RemoveEdge(u→v)` in one batch is legal (and a no-op edit). An
    /// empty batch is [`DeltaError::EmptyBatch`].
    ///
    /// Staging is also how admission control prices an update before
    /// accepting it: the dirty set seeds the recompute cone.
    ///
    /// Validation costs `O(|Δ|·log deg)`: each edge edit is looked up by
    /// binary search in its CSR row, behind an overlay of the at most
    /// `|Δ|` pairs the batch itself has touched. A batch whose edge
    /// edits net to nothing (feature-only included) shares the current
    /// topology; otherwise the edited rows are spliced into a bulk copy
    /// of CSR and CSC — no edge set, no global sort.
    pub fn stage(&self, deltas: &[Delta]) -> Result<StagedCommit, DeltaError> {
        if deltas.is_empty() {
            return Err(DeltaError::EmptyBatch);
        }
        let n = self.graph.num_vertices();
        let feat_dim = self.features.cols();
        // (src, dst) → (present before the batch, present now), for the
        // pairs this batch names.
        let mut overlay: BTreeMap<(VertexId, VertexId), (bool, bool)> = BTreeMap::new();
        let mut patches: Vec<(usize, Vec<f32>)> = Vec::new();
        let (mut added, mut removed) = (0usize, 0usize);

        for d in deltas {
            let (a, b) = d.endpoints();
            for v in [Some(a), b].into_iter().flatten() {
                if v as usize >= n {
                    return Err(DeltaError::OutOfRange {
                        vertex: v,
                        num_vertices: n,
                    });
                }
            }
            match d {
                Delta::AddEdge { src, dst } | Delta::RemoveEdge { src, dst } => {
                    let (src, dst) = (*src, *dst);
                    if src == dst {
                        return Err(DeltaError::SelfLoop { vertex: src });
                    }
                    let adding = matches!(d, Delta::AddEdge { .. });
                    let (_, present) = overlay.entry((src, dst)).or_insert_with(|| {
                        let was = self.graph.out_neighbors(src).binary_search(&dst).is_ok();
                        (was, was)
                    });
                    if *present == adding {
                        return Err(if adding {
                            DeltaError::DuplicateEdge { src, dst }
                        } else {
                            DeltaError::MissingEdge { src, dst }
                        });
                    }
                    *present = adding;
                    if adding {
                        added += 1;
                    } else {
                        removed += 1;
                    }
                }
                Delta::UpdateFeatures { vertex, features } => {
                    if features.len() != feat_dim {
                        return Err(DeltaError::FeatureDimMismatch {
                            vertex: *vertex,
                            got: features.len(),
                            want: feat_dim,
                        });
                    }
                    patches.push((*vertex as usize, features.clone()));
                }
            }
        }

        // ---- post-commit topology: the net edits, in (src, dst) order
        // for CSR and (dst, src) order for CSC ----
        let by_src: Vec<RowEdit> = overlay
            .iter()
            .filter(|(_, (was, now))| was != now)
            .map(|(&(src, dst), &(_, now))| (src, dst, now))
            .collect();
        let graph = if by_src.is_empty() {
            Arc::clone(&self.graph)
        } else {
            let mut by_dst: Vec<RowEdit> = by_src.iter().map(|&(u, v, ins)| (v, u, ins)).collect();
            by_dst.sort_unstable();
            Arc::new(Graph {
                csr: splice_rows(&self.graph.csr, &by_src),
                csc: splice_rows(&self.graph.csc, &by_dst),
            })
        };

        // ---- structural dirt: the endpoints of every edge the batch
        // names (cancelled edits included), and — out_deg(src) changed —
        // every w with an edge src→w in the old or the new topology,
        // whose weight moved ----
        let mut structural: Vec<usize> = Vec::new();
        for &(u, v) in overlay.keys() {
            structural.extend([u as usize, v as usize]);
            structural.extend(self.graph.out_neighbors(u).iter().map(|&w| w as usize));
            structural.extend(graph.out_neighbors(u).iter().map(|&w| w as usize));
        }
        structural.sort_unstable();
        structural.dedup();

        // ---- feature dirt: layer-0 readers of the patched rows ----
        let mut dirty = structural.clone();
        for &(v, _) in &patches {
            dirty.push(v);
            dirty.extend(
                graph
                    .out_neighbors(v as VertexId)
                    .iter()
                    .map(|&w| w as usize),
            );
        }
        dirty.sort_unstable();
        dirty.dedup();

        Ok(StagedCommit {
            base_epoch: self.epoch(),
            graph,
            deltas: deltas.to_vec(),
            dirty,
            structural,
            patches,
            edges_added: added,
            edges_removed: removed,
        })
    }

    /// Commits a staged batch: installs the post-commit topology,
    /// patches the feature rows, appends to the log, and bumps the
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if the staged batch was produced against a different
    /// epoch (a commit raced past it).
    pub fn commit(&mut self, staged: StagedCommit) -> CommitReceipt {
        assert_eq!(
            staged.base_epoch,
            self.epoch(),
            "stale StagedCommit: staged at epoch {}, graph is at {}",
            staged.base_epoch,
            self.epoch()
        );
        self.graph = staged.graph;
        for (v, row) in &staged.patches {
            self.features.row_mut(*v).copy_from_slice(row);
        }
        let receipt = CommitReceipt {
            epoch: staged.base_epoch + 1,
            dirty: staged.dirty.clone(),
            edges_added: staged.edges_added,
            edges_removed: staged.edges_removed,
        };
        self.log.entries.push(LogEntry {
            epoch: receipt.epoch,
            deltas: staged.deltas,
            dirty: staged.dirty,
        });
        receipt
    }

    /// Stages and immediately commits one batch.
    pub fn apply(&mut self, deltas: &[Delta]) -> Result<CommitReceipt, DeltaError> {
        let staged = self.stage(deltas)?;
        Ok(self.commit(staged))
    }

    /// A dataset snapshot of the current epoch, inheriting everything
    /// but topology and features from `base` — the from-scratch rebuild
    /// oracle: a fresh `Session` on this dataset must produce logits
    /// bitwise equal to the incrementally patched ones (same `seed`,
    /// hence identical initial weights).
    pub fn to_dataset(&self, base: &Dataset) -> Dataset {
        Dataset {
            key: base.key,
            graph: Graph::clone(&self.graph),
            features: self.features.clone(),
            labels: base.labels.clone(),
            splits: base.splits.clone(),
            num_classes: base.num_classes,
            seed: base.seed,
        }
    }
}

#[cfg(test)]
impl DynamicGraph {
    /// Reference staging, `O(E)` per batch and plain to read: an edge
    /// `HashSet` over the whole graph, then a full `GraphBuilder`
    /// rebuild. [`DynamicGraph::stage`] is property-tested against it.
    fn stage_oracle(&self, deltas: &[Delta]) -> Result<StagedCommit, DeltaError> {
        if deltas.is_empty() {
            return Err(DeltaError::EmptyBatch);
        }
        let n = self.graph.num_vertices();
        let feat_dim = self.features.cols();
        let mut edges: HashSet<(VertexId, VertexId)> = self.graph.csr.edges().collect();
        let mut patches: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut edge_srcs: Vec<VertexId> = Vec::new();
        let mut seeds: HashSet<usize> = HashSet::new();
        let mut structural: HashSet<usize> = HashSet::new();
        let mut feature_rows: Vec<VertexId> = Vec::new();
        let (mut added, mut removed) = (0usize, 0usize);

        for d in deltas {
            let (a, b) = d.endpoints();
            for v in [Some(a), b].into_iter().flatten() {
                if v as usize >= n {
                    return Err(DeltaError::OutOfRange {
                        vertex: v,
                        num_vertices: n,
                    });
                }
            }
            match d {
                Delta::AddEdge { src, dst } => {
                    if src == dst {
                        return Err(DeltaError::SelfLoop { vertex: *src });
                    }
                    if !edges.insert((*src, *dst)) {
                        return Err(DeltaError::DuplicateEdge {
                            src: *src,
                            dst: *dst,
                        });
                    }
                    added += 1;
                    edge_srcs.push(*src);
                    structural.insert(*src as usize);
                    structural.insert(*dst as usize);
                }
                Delta::RemoveEdge { src, dst } => {
                    if src == dst {
                        return Err(DeltaError::SelfLoop { vertex: *src });
                    }
                    if !edges.remove(&(*src, *dst)) {
                        return Err(DeltaError::MissingEdge {
                            src: *src,
                            dst: *dst,
                        });
                    }
                    removed += 1;
                    edge_srcs.push(*src);
                    structural.insert(*src as usize);
                    structural.insert(*dst as usize);
                }
                Delta::UpdateFeatures { vertex, features } => {
                    if features.len() != feat_dim {
                        return Err(DeltaError::FeatureDimMismatch {
                            vertex: *vertex,
                            got: features.len(),
                            want: feat_dim,
                        });
                    }
                    patches.push((*vertex as usize, features.clone()));
                    feature_rows.push(*vertex);
                }
            }
        }

        // ---- post-commit topology (build() sorts + dedups, so the
        // HashSet iteration order is immaterial) ----
        let mut b = GraphBuilder::new(n).keep_self_loops();
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let graph = b.build();

        // ---- structural dirt: out_deg(src) changed, so every edge
        // src→w (old or new topology) changed weight ----
        for &u in &edge_srcs {
            for &w in self.graph.out_neighbors(u) {
                structural.insert(w as usize);
            }
            for &w in graph.out_neighbors(u) {
                structural.insert(w as usize);
            }
        }
        seeds.extend(structural.iter().copied());

        // ---- feature dirt: layer-0 readers of the patched rows ----
        for &v in &feature_rows {
            seeds.insert(v as usize);
            for &w in graph.out_neighbors(v) {
                seeds.insert(w as usize);
            }
        }

        let mut dirty: Vec<usize> = seeds.into_iter().collect();
        dirty.sort_unstable();
        let mut structural: Vec<usize> = structural.into_iter().collect();
        structural.sort_unstable();

        Ok(StagedCommit {
            base_epoch: self.epoch(),
            graph: Arc::new(graph),
            deltas: deltas.to_vec(),
            dirty,
            structural,
            patches,
            edges_added: added,
            edges_removed: removed,
        })
    }
}

/// One net edge edit in the orientation being spliced:
/// `(row, column, insert)` — `false` removes.
type RowEdit = (VertexId, VertexId, bool);

/// Whether every adjacency list is strictly ascending (sorted, no
/// parallel edges).
fn rows_strictly_ascending(a: &Csr) -> bool {
    (0..a.num_vertices()).all(|v| a.neighbors(v as VertexId).windows(2).all(|w| w[0] < w[1]))
}

/// `a` with `edits` applied. `edits` is sorted by `(row, column)` with one
/// entry per pair; every insert is absent from its (strictly ascending)
/// row and every removal present in it. Stretches of unedited rows are
/// copied in bulk; only the edited rows are merged.
fn splice_rows(a: &Csr, edits: &[RowEdit]) -> Csr {
    let inserts = edits.iter().filter(|e| e.2).count();
    let mut offsets: Vec<usize> = Vec::with_capacity(a.offsets.len());
    let mut targets: Vec<VertexId> =
        Vec::with_capacity(a.targets.len() + 2 * inserts - edits.len());
    // Appends rows `lo..hi` unchanged.
    let copy_rows =
        |offsets: &mut Vec<usize>, targets: &mut Vec<VertexId>, lo: usize, hi: usize| {
            let (new_base, old_base) = (targets.len(), a.offsets[lo]);
            offsets.extend(a.offsets[lo..hi].iter().map(|&o| new_base + (o - old_base)));
            targets.extend_from_slice(&a.targets[old_base..a.offsets[hi]]);
        };
    let mut next_row = 0usize;
    for row_edits in edits.chunk_by(|x, y| x.0 == y.0) {
        let row = row_edits[0].0;
        copy_rows(&mut offsets, &mut targets, next_row, row as usize);
        offsets.push(targets.len());
        let mut pending = row_edits.iter().peekable();
        for &t in a.neighbors(row) {
            while let Some(e) = pending.next_if(|e| e.1 < t) {
                targets.push(e.1);
            }
            if pending.next_if(|e| e.1 == t).is_none() {
                targets.push(t);
            }
        }
        targets.extend(pending.map(|e| e.1));
        next_row = row as usize + 1;
    }
    copy_rows(&mut offsets, &mut targets, next_row, a.num_vertices());
    offsets.push(targets.len());
    Csr { offsets, targets }
}

/// The exact vertex-level ≤ `hops`-hop *out*-edge ball of `seeds`: the
/// test oracle the chunk-granular affected cone must cover (the dual of
/// the serving path's in-edge BFS ball). `ball[h]` holds the vertices
/// invalid at `h^{h+1}` — seeds plus up to `h` out-hops.
pub fn out_edge_ball(graph: &Graph, seeds: &[usize], hops: usize) -> Vec<Vec<bool>> {
    let n = graph.num_vertices();
    let mut cur = vec![false; n];
    for &s in seeds {
        cur[s] = true;
    }
    let mut ball = vec![cur.clone()];
    for _ in 0..hops {
        let mut next = cur.clone();
        for (v, _) in cur.iter().enumerate().filter(|(_, &active)| active) {
            for &w in graph.out_neighbors(v as VertexId) {
                next[w as usize] = true;
            }
        }
        ball.push(next.clone());
        cur = next;
    }
    ball
}

/// Which kinds of mutations a generated workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaMix {
    /// Edge toggles only.
    Edge,
    /// Feature-row replacements only.
    Feature,
    /// Both, roughly half and half.
    Mixed,
}

impl DeltaMix {
    /// Parses `edge` / `feature` / `mixed`.
    pub fn parse(s: &str) -> Option<DeltaMix> {
        match s {
            "edge" => Some(DeltaMix::Edge),
            "feature" | "feat" => Some(DeltaMix::Feature),
            "mixed" => Some(DeltaMix::Mixed),
            _ => None,
        }
    }
}

/// Generates `batches` sequential delta batches of `edits` mutations
/// each, valid when committed FIFO starting from `graph`: edge edits
/// toggle presence against the evolving edge set (never touching
/// self-loops), feature edits replace a random row with `feat_dim`
/// fresh normal values.
pub fn toggle_workload(
    graph: &Graph,
    feat_dim: usize,
    batches: usize,
    edits: usize,
    mix: DeltaMix,
    rng: &mut SeededRng,
) -> Vec<Vec<Delta>> {
    let n = graph.num_vertices();
    assert!(n >= 2, "toggle workload needs at least two vertices");
    let mut edges: HashSet<(VertexId, VertexId)> = graph.csr.edges().collect();
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(edits.max(1));
        for _ in 0..edits.max(1) {
            let feature_edit = match mix {
                DeltaMix::Edge => false,
                DeltaMix::Feature => true,
                DeltaMix::Mixed => rng.chance(0.5),
            };
            if feature_edit {
                let vertex = rng.index(n) as VertexId;
                let features: Vec<f32> = (0..feat_dim).map(|_| rng.normal() * 0.5).collect();
                batch.push(Delta::UpdateFeatures { vertex, features });
            } else {
                let (u, v) = loop {
                    let u = rng.index(n) as VertexId;
                    let v = rng.index(n) as VertexId;
                    if u != v {
                        break (u, v);
                    }
                };
                if edges.remove(&(u, v)) {
                    batch.push(Delta::RemoveEdge { src: u, dst: v });
                } else {
                    edges.insert((u, v));
                    batch.push(Delta::AddEdge { src: u, dst: v });
                }
            }
        }
        out.push(batch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 6-vertex graph with self-loops plus a directed ring.
    fn fixture() -> DynamicGraph {
        let mut b = GraphBuilder::new(6).keep_self_loops();
        for v in 0..6u32 {
            b.add_edge(v, v);
            b.add_edge(v, (v + 1) % 6);
        }
        let g = b.build();
        let feats = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        DynamicGraph::new(g, feats)
    }

    #[test]
    fn add_edge_commits_and_versions() {
        let mut dg = fixture();
        assert_eq!(dg.epoch(), 0);
        let r = dg
            .apply(&[Delta::AddEdge { src: 0, dst: 3 }])
            .expect("valid add");
        assert_eq!(r.epoch, 1);
        assert_eq!(r.edges_added, 1);
        assert!(dg.graph().out_neighbors(0).contains(&3));
        assert_eq!(dg.log().len(), 1);
        assert_eq!(dg.log().entries()[0].deltas.len(), 1);
    }

    #[test]
    fn remove_edge_commits() {
        let mut dg = fixture();
        let r = dg
            .apply(&[Delta::RemoveEdge { src: 0, dst: 1 }])
            .expect("valid remove");
        assert_eq!(r.edges_removed, 1);
        assert!(!dg.graph().out_neighbors(0).contains(&1));
        // The self-loop survives.
        assert!(dg.graph().out_neighbors(0).contains(&0));
    }

    #[test]
    fn feature_update_patches_row() {
        let mut dg = fixture();
        dg.apply(&[Delta::UpdateFeatures {
            vertex: 2,
            features: vec![9.0, 8.0, 7.0],
        }])
        .expect("valid update");
        assert_eq!(dg.features().row(2), &[9.0, 8.0, 7.0]);
        // Other rows untouched.
        assert_eq!(dg.features().row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn typed_rejections() {
        let mut dg = fixture();
        assert_eq!(
            dg.apply(&[Delta::AddEdge { src: 0, dst: 9 }]),
            Err(DeltaError::OutOfRange {
                vertex: 9,
                num_vertices: 6
            })
        );
        assert_eq!(
            dg.apply(&[Delta::AddEdge { src: 2, dst: 2 }]),
            Err(DeltaError::SelfLoop { vertex: 2 })
        );
        assert_eq!(
            dg.apply(&[Delta::AddEdge { src: 0, dst: 1 }]),
            Err(DeltaError::DuplicateEdge { src: 0, dst: 1 })
        );
        assert_eq!(
            dg.apply(&[Delta::RemoveEdge { src: 0, dst: 3 }]),
            Err(DeltaError::MissingEdge { src: 0, dst: 3 })
        );
        assert_eq!(
            dg.apply(&[Delta::UpdateFeatures {
                vertex: 1,
                features: vec![1.0]
            }]),
            Err(DeltaError::FeatureDimMismatch {
                vertex: 1,
                got: 1,
                want: 3
            })
        );
        // A rejected batch commits nothing.
        assert_eq!(dg.epoch(), 0);
    }

    #[test]
    fn staging_is_transactional_and_order_aware() {
        let dg = fixture();
        // Add-then-remove of the same edge in one batch is legal…
        let staged = dg
            .stage(&[
                Delta::AddEdge { src: 0, dst: 3 },
                Delta::RemoveEdge { src: 0, dst: 3 },
            ])
            .expect("toggle in one batch");
        assert!(!staged.graph().out_neighbors(0).contains(&3));
        // …and a later invalid delta rejects the earlier valid one.
        assert!(dg
            .stage(&[
                Delta::AddEdge { src: 0, dst: 3 },
                Delta::AddEdge { src: 0, dst: 3 },
            ])
            .is_err());
    }

    #[test]
    fn stale_staged_commit_panics() {
        let mut dg = fixture();
        let staged = dg.stage(&[Delta::AddEdge { src: 0, dst: 3 }]).unwrap();
        dg.apply(&[Delta::AddEdge { src: 1, dst: 4 }]).unwrap();
        let result = std::panic::catch_unwind(move || {
            let mut dg2 = fixture();
            dg2.apply(&[Delta::AddEdge { src: 1, dst: 4 }]).unwrap();
            dg2.commit(staged)
        });
        assert!(result.is_err(), "stale commit must panic");
    }

    #[test]
    fn edge_dirt_covers_global_degree_fallout() {
        let dg = fixture();
        // AddEdge 2→5: out_deg(2) changes, so every out-neighbor of 2
        // (self-loop 2, ring 3, and the new 5) is dirty; in_deg(5)
        // changes, covered by 5 itself.
        let staged = dg.stage(&[Delta::AddEdge { src: 2, dst: 5 }]).unwrap();
        for v in [2usize, 3, 5] {
            assert!(staged.dirty().contains(&v), "{v} must be dirty");
            assert!(staged.structural().contains(&v));
        }
        // Untouched far vertex is clean.
        assert!(!staged.dirty().contains(&0));
    }

    #[test]
    fn feature_dirt_is_layer0_readers_only() {
        let dg = fixture();
        let staged = dg
            .stage(&[Delta::UpdateFeatures {
                vertex: 4,
                features: vec![0.0; 3],
            }])
            .unwrap();
        // Readers of 4's features: 4 (self-loop) and 5 (ring).
        assert_eq!(staged.dirty(), &[4, 5]);
        // No chunk topology changed.
        assert!(staged.structural().is_empty());
        assert_eq!(staged.edges_added() + staged.edges_removed(), 0);
    }

    #[test]
    fn out_edge_ball_grows_along_out_edges() {
        let dg = fixture();
        let ball = out_edge_ball(dg.graph(), &[0], 2);
        assert!(ball[0][0] && !ball[0][1]);
        assert!(ball[1][0] && ball[1][1] && !ball[1][2]);
        assert!(ball[2][2]);
    }

    #[test]
    fn toggle_workload_applies_cleanly_fifo() {
        let mut dg = fixture();
        let mut rng = SeededRng::new(7);
        let batches = toggle_workload(dg.graph(), 3, 12, 3, DeltaMix::Mixed, &mut rng);
        assert_eq!(batches.len(), 12);
        for b in &batches {
            dg.apply(b).expect("workload batches are FIFO-valid");
        }
        assert_eq!(dg.epoch(), 12);
        // Self-loops survived the toggling.
        for v in 0..6u32 {
            assert!(dg.graph().out_neighbors(v).contains(&v));
        }
    }

    #[test]
    fn to_dataset_snapshots_current_epoch() {
        let mut b = GraphBuilder::new(4).keep_self_loops();
        for v in 0..4u32 {
            b.add_edge(v, v);
            b.add_edge(v, (v + 1) % 4);
        }
        let g = b.build();
        let base = Dataset {
            key: hongtu_datasets::dataset::DatasetKey::Rdt,
            graph: g.clone(),
            features: Matrix::from_fn(4, 2, |r, _| r as f32),
            labels: vec![0, 1, 0, 1],
            splits: hongtu_datasets::dataset::Splits::random(4, 0.5, 0.25, &mut SeededRng::new(3)),
            num_classes: 2,
            seed: 11,
        };
        let mut dg = DynamicGraph::from_dataset(&base);
        dg.apply(&[Delta::AddEdge { src: 0, dst: 2 }]).unwrap();
        let ds = dg.to_dataset(&base);
        assert_eq!(ds.seed, 11);
        assert!(ds.graph.out_neighbors(0).contains(&2));
        ds.validate().expect("mutated dataset stays valid");
    }

    #[test]
    fn empty_batch_is_a_typed_rejection() {
        let mut dg = fixture();
        assert_eq!(dg.stage(&[]).err(), Some(DeltaError::EmptyBatch));
        assert_eq!(dg.apply(&[]), Err(DeltaError::EmptyBatch));
        assert_eq!(dg.epoch(), 0);
    }

    #[test]
    fn topology_is_shared_when_no_edge_changes() {
        let dg = fixture();
        let feature_only = dg
            .stage(&[Delta::UpdateFeatures {
                vertex: 1,
                features: vec![0.0; 3],
            }])
            .unwrap();
        assert!(Arc::ptr_eq(&feature_only.graph, &dg.graph));
        let cancelled = dg
            .stage(&[
                Delta::RemoveEdge { src: 0, dst: 1 },
                Delta::AddEdge { src: 0, dst: 1 },
            ])
            .unwrap();
        assert!(Arc::ptr_eq(&cancelled.graph, &dg.graph));
        // The endpoints still count as structurally touched.
        assert!(cancelled.structural().contains(&0) && cancelled.structural().contains(&1));
    }

    #[test]
    fn unsorted_input_graph_is_canonicalised_once() {
        let csr = Csr {
            offsets: vec![0, 3, 4, 5],
            targets: vec![2, 0, 2, 1, 2],
        };
        let dg = DynamicGraph::new(Graph::from_csr(csr), Matrix::zeros(3, 1));
        assert_eq!(dg.graph().out_neighbors(0), &[0, 2]);
        let staged = dg.stage(&[Delta::AddEdge { src: 0, dst: 1 }]).unwrap();
        assert_eq!(staged.graph().out_neighbors(0), &[0, 1, 2]);
        assert_eq!(staged.graph().in_neighbors(1), &[0, 1]);
    }

    /// Turns raw samples into a batch that is mostly valid against
    /// `edges` (which it keeps in step) but also carries blind adds and
    /// removes, self-loops, out-of-range ids and wrong feature widths.
    fn batch_from_raw(
        raw: &[(u8, u32, u32)],
        n: u32,
        feat_dim: usize,
        edges: &mut HashSet<(VertexId, VertexId)>,
    ) -> Vec<Delta> {
        raw.iter()
            .enumerate()
            .map(|(i, &(kind, a, b))| {
                // Kind 10 toggles the previous entry's pair again, so
                // add-then-remove no-ops occur within one batch.
                let (kind, a, b) = match (kind, i) {
                    (10, 1..) => (0, raw[i - 1].1, raw[i - 1].2),
                    _ => (kind, a, b),
                };
                let (u, v) = (a % n, b % n);
                match kind {
                    // Toggle against the tracked edge set: valid unless
                    // `u == v`, which must be rejected as a self-loop.
                    0..=5 if edges.contains(&(u, v)) => {
                        edges.remove(&(u, v));
                        Delta::RemoveEdge { src: u, dst: v }
                    }
                    0..=5 => {
                        edges.insert((u, v));
                        Delta::AddEdge { src: u, dst: v }
                    }
                    // Blind edits, ids up to n + 1: duplicates, missing
                    // edges and out-of-range endpoints.
                    6 => Delta::AddEdge {
                        src: a % (n + 2),
                        dst: v,
                    },
                    7 => Delta::RemoveEdge {
                        src: u,
                        dst: b % (n + 2),
                    },
                    8 => Delta::UpdateFeatures {
                        vertex: a % (n + 1),
                        features: vec![b as f32; feat_dim + usize::from(b % 7 == 0)],
                    },
                    _ => Delta::UpdateFeatures {
                        vertex: u,
                        features: vec![b as f32 * 0.5; feat_dim],
                    },
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Row-splice staging and the O(E) reference agree on everything a
        /// `StagedCommit` or a `DeltaError` carries, over sequences of
        /// batches committed onto already-spliced graphs.
        #[test]
        fn splice_staging_equals_reference(
            n in 2u32..24,
            raw_edges in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u8..12, 0u32..32, 0u32..32), 0..9),
                1..5,
            )
        ) {
            let mut b = GraphBuilder::new(n as usize).keep_self_loops();
            for v in 0..n {
                b.add_edge(v, v);
            }
            for (s, t) in raw_edges {
                b.add_edge(s % n, t % n);
            }
            let feat_dim = 2;
            let mut dg = DynamicGraph::new(b.build(), Matrix::zeros(n as usize, feat_dim));
            for raw in &rounds {
                let mut edges: HashSet<(VertexId, VertexId)> = dg.graph().csr.edges().collect();
                let batch = batch_from_raw(raw, n, feat_dim, &mut edges);
                match (dg.stage(&batch), dg.stage_oracle(&batch)) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(got.graph(), want.graph());
                        prop_assert!(got.graph().validate().is_ok());
                        prop_assert_eq!(got.dirty(), want.dirty());
                        prop_assert_eq!(got.structural(), want.structural());
                        prop_assert_eq!(got.feature_patches(), want.feature_patches());
                        prop_assert_eq!(got.deltas(), want.deltas());
                        prop_assert_eq!(got.epoch(), want.epoch());
                        prop_assert_eq!(got.edges_added(), want.edges_added());
                        prop_assert_eq!(got.edges_removed(), want.edges_removed());
                        dg.commit(got);
                    }
                    (Err(got), Err(want)) => prop_assert_eq!(got, want),
                    (got, want) => prop_assert!(
                        false,
                        "splice {:?} vs reference {:?}",
                        got.map(|s| s.epoch()),
                        want.map(|s| s.epoch())
                    ),
                }
            }
        }
    }
}
