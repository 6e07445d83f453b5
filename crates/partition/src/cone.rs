//! The two exact, vertex-level cone recurrences behind every masked
//! sweep.
//!
//! A masked sweep computes, at layer `l`, only some destination rows of
//! each chunk. Which rows is one of two recurrences that are duals of
//! each other over the graph's edges:
//!
//! * the **query cone** ([`downward`]): the logits of a vertex set `Q`
//!   read the ≤ L-hop *in*-neighborhood of `Q`, walked top-down —
//!   `needed[L] = Q`, `needed[l] = needed[l+1] ∪ N(needed[l+1])`, and
//!   layer `l` computes the rows `needed[l+1]`;
//! * the **delta cone** ([`upward`]): a mutation invalidates the ≤ L-hop
//!   *out*-neighborhood of its dirty seeds, walked bottom-up —
//!   `R[0] = dirty`, `R[l+1] = R[l] ∪ { d | N(d) ∩ R[l] ≠ ∅ }`, and layer
//!   `l` recomputes the rows `R[l]`.
//!
//! Both keep the previous set (`needed[l] ⊇ needed[l+1]`, `R[l] ⊆
//! R[l+1]`), so the `(layer, batch)` grid a cone activates is downward
//! respectively upward closed, and both return the same thing: per layer,
//! per chunk `(i, j)`, the ascending local destination rows to compute —
//! what [`crate::TwoLevelPartition::packed`] packs into the grid a masked
//! sweep runs over, one chunk per GPU per *run* of consecutive batches.
//!
//! A chunk holds all in-edges of its destinations, so `N(v)` is one row
//! of the chunk that owns `v`, found through a [`VertexIndex`]: the query
//! cone reads no graph. The delta cone walks the other way, along
//! out-edges, which no chunk stores. Over the graph the chunks were built
//! from, `{ d | N(d) ∩ R ≠ ∅ } = ∪_{u ∈ R} out(u)`, so [`upward`] takes
//! that graph and visits only the out-edges of what its previous hop
//! added. Where no graph is at hand — a verifier regrowing a journaled
//! cone ([`ConeOrigin::regrow`]) — [`upward_scan`] finds the same rows by
//! scanning every chunk's neighbor list at each hop.

use crate::{SliceRows, TwoLevelPartition};
use hongtu_graph::Graph;

/// Which of the two recurrences a cone follows, hence which way its
/// `(layer, batch)` grid is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConeDir {
    /// Query cone: `active[l] ⊇ active[l+1]` (grows toward layer 0).
    Downward,
    /// Delta cone: `active[l] ⊆ active[l+1]` (grows toward layer L−1).
    Upward,
}

/// What a cone was grown from and the runs it was packed into — all it
/// takes to grow and pack it again over the same plan: [`ConeOrigin::regrow`],
/// then [`crate::TwoLevelPartition::packed`] over `runs`. A few dozen
/// numbers, where the rows they reach can be a large part of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeOrigin {
    /// The recurrence.
    pub dir: ConeDir,
    /// Layers it was walked over.
    pub layers: usize,
    /// The query vertices, or the dirty seeds.
    pub seeds: Vec<usize>,
    /// Where each run of consecutive batches ends ([`check_runs`]): the
    /// masked sweep runs one packed batch per run. Chosen from device
    /// footprints, which only the engine prices, so it is journaled
    /// rather than re-derived.
    pub runs: Vec<usize>,
}

impl ConeOrigin {
    /// The rows each layer computes, grown again from the seeds over
    /// `plan`'s chunks alone: [`downward`], or [`upward_scan`] — which
    /// needs no graph and scans every chunk at each hop, so it is for
    /// certifying a journaled cone, not for deriving one.
    ///
    /// # Panics
    ///
    /// Panics if the seeds fail [`check_seeds`].
    pub fn regrow(&self, plan: &TwoLevelPartition, index: &VertexIndex) -> Vec<SliceRows> {
        match self.dir {
            ConeDir::Downward => {
                downward(plan, index, self.layers, &self.seeds, &mut Seen::default())
            }
            ConeDir::Upward => upward_scan(plan, index, self.layers, &self.seeds),
        }
    }
}

/// A visited set over the graph's vertices, reused from cone to cone:
/// each cone stamps the vertices it meets with a mark no earlier cone
/// used, so a cone neither clears nor allocates one entry per vertex of
/// the graph — only the first cone, and one in four billion after it,
/// does.
#[derive(Debug, Clone, Default)]
pub struct Seen {
    stamp: Vec<u32>,
    /// The last mark handed out.
    now: u32,
}

impl Seen {
    /// Starts a cone over `n` vertices: returns a mark no vertex carries.
    fn start(&mut self, n: usize) -> u32 {
        if self.stamp.len() != n || self.now == u32::MAX {
            self.stamp = vec![0; n];
            self.now = 0;
        }
        self.now += 1;
        self.now
    }
}

/// Flips the bits of `vertices` in `set`: sets them where they are clear,
/// clears them where they are set.
fn flip(set: &mut [u64], vertices: &[u32]) {
    for &v in vertices {
        set[v as usize / 64] ^= 1 << (v % 64);
    }
}

/// Where each vertex is computed: the `(partition, chunk, local row)` of
/// the one chunk that owns it as a destination. Destination membership
/// never changes after construction (delta commits rebuild chunks over
/// the same destinations), so a session builds this once.
#[derive(Debug, Clone)]
pub struct VertexIndex {
    home: Vec<[u32; 3]>,
}

impl VertexIndex {
    /// Indexes the destinations of `plan`'s chunks.
    pub fn new(plan: &TwoLevelPartition) -> Self {
        let mut home = vec![[0u32; 3]; plan.assignment.partition_of.len()];
        for c in plan.all_chunks() {
            for (k, &v) in c.dests.iter().enumerate() {
                home[v as usize] = [c.part as u32, c.chunk as u32, k as u32];
            }
        }
        VertexIndex { home }
    }

    /// Number of vertices indexed.
    pub fn len(&self) -> usize {
        self.home.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.home.is_empty()
    }

    /// Sorts `vertices` into per-chunk ascending row lists.
    fn group(&self, plan: &TwoLevelPartition, vertices: &[u32]) -> SliceRows {
        let mut rows = vec![vec![Vec::new(); plan.n]; plan.m];
        for &v in vertices {
            let [i, j, k] = self.home[v as usize];
            rows[i as usize][j as usize].push(k);
        }
        for list in rows.iter_mut().flatten() {
            list.sort_unstable();
        }
        rows
    }
}

/// Why a seed set has no cone: it is empty, or names a vertex the graph
/// does not have. `what` names the set ("query", "dirty set").
pub fn check_seeds(what: &str, num_v: usize, vertices: &[usize]) -> Result<(), String> {
    if vertices.is_empty() {
        return Err(format!("{what}: empty {what}"));
    }
    match vertices.iter().find(|&&v| v >= num_v) {
        Some(v) => Err(format!("{what}: vertex {v} out of range ({num_v})")),
        None => Ok(()),
    }
}

/// Why `ends` does not split `n` batches into runs: the runs are the
/// batches `0..ends[0]`, `ends[0]..ends[1]`, …, so `ends` must be
/// strictly ascending, start above 0 and end at `n`.
pub fn check_runs(ends: &[usize], n: usize) -> Result<(), String> {
    match (ends.first(), ends.last()) {
        (Some(&first), Some(&last)) if first > 0 && last == n => {}
        _ => return Err(format!("runs {ends:?} do not end at batch {n}")),
    }
    match ends.windows(2).find(|w| w[0] >= w[1]) {
        Some(w) => Err(format!("runs {ends:?}: run ending at {} is empty", w[1])),
        None => Ok(()),
    }
}

/// The batch range of each run `ends` splits the grid into
/// ([`check_runs`]).
pub fn run_ranges(ends: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    ends.iter().scan(0, |start, &end| {
        let run = *start..end;
        *start = end;
        Some(run)
    })
}

/// The distinct seeds in first-seen order, stamped `mark`.
fn seeds(vertices: &[usize], stamp: &mut [u32], mark: u32) -> Vec<u32> {
    let mut set = Vec::with_capacity(vertices.len());
    for &v in vertices {
        if std::mem::replace(&mut stamp[v], mark) != mark {
            set.push(v as u32);
        }
    }
    set
}

/// The exact query cone of `vertices` over `layers` layers: `rows[l]` are
/// the rows layer `l` computes, `needed[l+1]` (module docs give the
/// recurrence). One BFS hop over in-edges per layer, each vertex expanded
/// once — the cost of the cone, not of the graph, once `seen` has been
/// sized to the graph.
///
/// # Panics
///
/// Panics if `vertices` fails [`check_seeds`].
pub fn downward(
    plan: &TwoLevelPartition,
    index: &VertexIndex,
    layers: usize,
    vertices: &[usize],
    seen: &mut Seen,
) -> Vec<SliceRows> {
    if let Err(why) = check_seeds("query", index.len(), vertices) {
        panic!("{why}");
    }
    let mark = seen.start(index.len());
    let stamp = &mut seen.stamp[..];
    let mut needed = seeds(vertices, stamp, mark);
    // needed[..expanded] already had their in-neighbors added.
    let mut expanded = 0;
    let mut rows = vec![SliceRows::new(); layers];
    for l in (0..layers).rev() {
        rows[l] = index.group(plan, &needed);
        if l == 0 {
            break;
        }
        let frontier = expanded..needed.len();
        expanded = needed.len();
        for at in frontier {
            let [i, j, k] = index.home[needed[at] as usize];
            let c = &plan.chunks[i as usize][j as usize];
            for &t in &c.nbr_index[c.in_edges_of(k as usize)] {
                let u = c.neighbors[t as usize];
                if std::mem::replace(&mut stamp[u as usize], mark) != mark {
                    needed.push(u);
                }
            }
        }
    }
    rows
}

/// The exact delta cone of the `dirty` seeds over `layers` layers:
/// `rows[l]` are the rows layer `l` recomputes, `R[l]` (module docs give
/// the recurrence). `dirty` seeds the vertices whose layer-1 rows — or
/// whose producing computation, for weight-touching topology edits — are
/// invalid. Each hop visits the out-edges, in `graph`, of the rows the
/// previous hop added, each vertex expanded once — the cost of the cone
/// and its out-edges, once `seen` has been sized to the graph.
///
/// `graph` must be the topology `plan`'s chunks were built from: a chunk
/// holds every in-edge of its destinations in it, so a vertex reads a
/// row of `R[l]` exactly when it is an out-neighbor of one, and the rows
/// equal [`upward_scan`]'s.
///
/// # Panics
///
/// Panics if `dirty` fails [`check_seeds`], or may if `graph` does not
/// have the vertices `index` indexes.
pub fn upward(
    plan: &TwoLevelPartition,
    index: &VertexIndex,
    graph: &Graph,
    layers: usize,
    dirty: &[usize],
    seen: &mut Seen,
) -> Vec<SliceRows> {
    if let Err(why) = check_seeds("dirty set", index.len(), dirty) {
        panic!("{why}");
    }
    let mark = seen.start(index.len());
    let stamp = &mut seen.stamp[..];
    let mut members = seeds(dirty, stamp, mark);
    // members[fresh..]: what the previous hop added, the only rows whose
    // readers can be newly invalid.
    let mut fresh = 0;
    let mut rows = Vec::with_capacity(layers);
    for l in 0..layers {
        rows.push(index.group(plan, &members));
        if l + 1 == layers {
            break;
        }
        let frontier = fresh..members.len();
        fresh = members.len();
        for at in frontier {
            for &d in graph.out_neighbors(members[at]) {
                if std::mem::replace(&mut stamp[d as usize], mark) != mark {
                    members.push(d);
                }
            }
        }
    }
    rows
}

/// [`upward`] without a graph: the out-edges no chunk stores are found by
/// scanning every chunk's in-edge lists at each hop — a chunk none of
/// whose neighbors the previous hop invalidated is skipped after one pass
/// over its neighbor list. It costs the whole grid per hop, so it grows
/// only cones a verifier regrows from a journal ([`ConeOrigin::regrow`])
/// and serves tests as the oracle [`upward`] is held to.
///
/// # Panics
///
/// Panics if `dirty` fails [`check_seeds`].
pub fn upward_scan(
    plan: &TwoLevelPartition,
    index: &VertexIndex,
    layers: usize,
    dirty: &[usize],
) -> Vec<SliceRows> {
    if let Err(why) = check_seeds("dirty set", index.len(), dirty) {
        panic!("{why}");
    }
    let mut seen = Seen::default();
    let mark = seen.start(index.len());
    let stamp = &mut seen.stamp[..];
    let mut members = seeds(dirty, stamp, mark);
    // members[fresh..]: what the previous hop added, flagged in
    // `frontier` — only a dest reading one of these can be newly invalid.
    let mut fresh = 0;
    let mut frontier = vec![0u64; index.len().div_ceil(64)];
    flip(&mut frontier, &members);
    let mut rows = Vec::with_capacity(layers);
    let mut hit = Vec::new();
    for l in 0..layers {
        rows.push(index.group(plan, &members));
        if l + 1 == layers {
            break;
        }
        let before = members.len();
        for c in plan.all_chunks() {
            hit.clear();
            hit.extend(
                c.neighbors
                    .iter()
                    .map(|&u| frontier[u as usize / 64] >> (u % 64) & 1 == 1),
            );
            if !hit.contains(&true) {
                continue;
            }
            for (k, &d) in c.dests.iter().enumerate() {
                if stamp[d as usize] != mark
                    && c.nbr_index[c.in_edges_of(k)]
                        .iter()
                        .any(|&t| hit[t as usize])
                {
                    members.push(d);
                }
            }
        }
        flip(&mut frontier, &members[fresh..before]);
        for &d in &members[before..] {
            stamp[d as usize] = mark;
        }
        flip(&mut frontier, &members[before..]);
        fresh = before;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::GraphBuilder;

    /// 8-vertex ring 0→1→…→7→0.
    fn ring() -> Graph {
        let mut b = GraphBuilder::new(8);
        for v in 0..8 {
            b.add_edge(v, (v + 1) % 8);
        }
        b.build()
    }

    /// The ring, 4 chunks of 2 on 1 partition.
    fn ring_plan() -> TwoLevelPartition {
        TwoLevelPartition::build(&ring(), 1, 4, 7)
    }

    /// The vertices `rows` computes, ascending.
    fn vertices(plan: &TwoLevelPartition, rows: &SliceRows) -> Vec<u32> {
        let mut out: Vec<u32> = plan
            .all_chunks()
            .flat_map(|c| rows[c.part][c.chunk].iter().map(|&k| c.dests[k as usize]))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn duality_on_the_ring() {
        let (g, plan) = (ring(), ring_plan());
        let index = VertexIndex::new(&plan);
        // Downward: the query cone of 4 grows along in-edges toward layer
        // 0; upward: the dirty cone of 4 grows along out-edges toward
        // layer L−1. On a directed ring these sweep opposite directions
        // from the same seed, one vertex per layer.
        let down = downward(&plan, &index, 3, &[4], &mut Seen::default());
        let up = upward(&plan, &index, &g, 3, &[4], &mut Seen::default());
        assert_eq!(vertices(&plan, &down[2]), [4]);
        assert_eq!(vertices(&plan, &down[1]), [3, 4]);
        assert_eq!(vertices(&plan, &down[0]), [2, 3, 4]);
        assert_eq!(vertices(&plan, &up[0]), [4]);
        assert_eq!(vertices(&plan, &up[1]), [4, 5]);
        assert_eq!(vertices(&plan, &up[2]), [4, 5, 6]);
    }

    #[test]
    fn upward_growth_follows_out_edges() {
        let (g, plan) = (ring(), ring_plan());
        let index = VertexIndex::new(&plan);
        // Dirty {0}: layer 0 recomputes 0; its out-neighbor 1 is invalid
        // from layer 1 on; 2 is two out-hops away — not reached in two
        // layers, whichever batch it shares. The chunk scan agrees.
        let up = upward(&plan, &index, &g, 2, &[0], &mut Seen::default());
        assert_eq!(vertices(&plan, &up[0]), [0]);
        assert_eq!(vertices(&plan, &up[1]), [0, 1]);
        assert_eq!(up, upward_scan(&plan, &index, 2, &[0]));
    }

    /// Growth along the graph's out-edges finds the chunk scan's rows on
    /// a graph with self-loops, hubs and several partitions, from every
    /// kind of seed set.
    #[test]
    fn graph_growth_equals_the_chunk_scan() {
        let mut b = GraphBuilder::new(40).keep_self_loops();
        for v in 0..40u32 {
            b.add_edge(v, v);
            b.add_edge(v, (v * 7 + 3) % 40);
            b.add_edge(0, v);
        }
        let g = b.build();
        let plan = TwoLevelPartition::build(&g, 3, 2, 5);
        let index = VertexIndex::new(&plan);
        let mut seen = Seen::default();
        for seeds in [&[0][..], &[5], &[39, 1, 39], &[11, 12, 13]] {
            for layers in 1..4 {
                assert_eq!(
                    upward(&plan, &index, &g, layers, seeds, &mut seen),
                    upward_scan(&plan, &index, layers, seeds),
                    "seeds {seeds:?}, {layers} layers"
                );
            }
        }
    }

    #[test]
    fn rows_are_ascending_and_duplicate_seeds_count_once() {
        let (g, plan) = (ring(), ring_plan());
        let index = VertexIndex::new(&plan);
        for rows in [
            downward(&plan, &index, 2, &[5, 1, 5, 0], &mut Seen::default()),
            upward(&plan, &index, &g, 2, &[5, 1, 5, 0], &mut Seen::default()),
            upward_scan(&plan, &index, 2, &[5, 1, 5, 0]),
        ] {
            for layer in &rows {
                for list in layer.iter().flatten() {
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "{list:?}");
                }
            }
        }
        let down = downward(&plan, &index, 1, &[5, 1, 5, 0], &mut Seen::default());
        assert_eq!(vertices(&plan, &down[0]), [0, 1, 5]);
    }

    /// One `Seen` carried from cone to cone grows each exactly as a fresh
    /// one does, whichever recurrence ran before it.
    #[test]
    fn a_reused_seen_set_grows_the_same_cones() {
        let (g, plan) = (ring(), ring_plan());
        let index = VertexIndex::new(&plan);
        let mut seen = Seen::default();
        for seeds in [&[4][..], &[0, 3], &[7], &[4], &[1, 5, 6]] {
            for layers in 1..4 {
                let fresh = || Seen::default();
                assert_eq!(
                    downward(&plan, &index, layers, seeds, &mut seen),
                    downward(&plan, &index, layers, seeds, &mut fresh())
                );
                assert_eq!(
                    upward(&plan, &index, &g, layers, seeds, &mut seen),
                    upward(&plan, &index, &g, layers, seeds, &mut fresh())
                );
            }
        }
    }

    #[test]
    fn seed_checks_name_the_offender() {
        assert!(check_seeds("query", 8, &[0, 7]).is_ok());
        assert!(check_seeds("query", 8, &[]).unwrap_err().contains("empty"));
        let err = check_seeds("dirty set", 8, &[3, 99]).unwrap_err();
        assert!(err.contains("vertex 99 out of range (8)"), "{err}");
    }

    #[test]
    fn runs_split_the_batches_in_order() {
        assert!(check_runs(&[4], 4).is_ok());
        assert!(check_runs(&[1, 3, 4], 4).is_ok());
        for bad in [&[][..], &[3], &[0, 4], &[2, 2, 4], &[3, 2, 4]] {
            assert!(check_runs(bad, 4).is_err(), "{bad:?}");
        }
        let runs: Vec<_> = run_ranges(&[1, 3, 4]).collect();
        assert_eq!(runs, [0..1, 1..3, 3..4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn upward_out_of_range_panics() {
        let plan = ring_plan();
        upward(
            &plan,
            &VertexIndex::new(&plan),
            &ring(),
            1,
            &[99],
            &mut Seen::default(),
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn upward_empty_panics() {
        let plan = ring_plan();
        upward(
            &plan,
            &VertexIndex::new(&plan),
            &ring(),
            1,
            &[],
            &mut Seen::default(),
        );
    }
}
