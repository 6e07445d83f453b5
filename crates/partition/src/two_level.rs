//! The full 2-level partition plan (paper §4.1 and Figure 5).
//!
//! Level 1 splits the graph into `m` locality-preserving partitions (one per
//! GPU) with the multilevel partitioner. Level 2 splits each partition's
//! member list (ascending vertex id, preserving id locality) into `n`
//! chunks balanced by in-edge count. Chunks with the same local position
//! `j` across partitions form *batch* `j` and are scheduled concurrently.

use crate::chunking::balanced_ranges;
use crate::cone::run_ranges;
use crate::subgraph::ChunkSubgraph;
use crate::{Assignment, Partitioner};
use hongtu_graph::Graph;
use std::ops::Range;
use std::sync::Arc;

/// Per chunk `(i, j)`, the ascending local destination rows one layer of
/// a cone-pruned sweep computes: `rows[i][j]`, what
/// [`TwoLevelPartition::packed`] packs the grid down to.
pub type SliceRows = Vec<Vec<Vec<u32>>>;

/// A complete `m × n` partition plan with materialized chunk subgraphs.
#[derive(Debug, Clone)]
pub struct TwoLevelPartition {
    /// Number of partitions (GPUs).
    pub m: usize,
    /// Number of chunks per partition (batches).
    pub n: usize,
    /// Level-1 vertex assignment, shared by every grid packed from this
    /// one ([`TwoLevelPartition::packed`]): a packed grid is far smaller
    /// than the graph the assignment covers.
    pub assignment: Arc<Assignment>,
    /// `chunks[i][j]` is subgraph `G_ij` (partition `i`, batch `j`) —
    /// shared, not copied, with the grid a structural commit refreshed
    /// it from wherever the chunk did not change
    /// ([`TwoLevelPartition::refreshed`]).
    pub chunks: Vec<Vec<Arc<ChunkSubgraph>>>,
}

impl TwoLevelPartition {
    /// Builds the plan with the default partitioner portfolio (multilevel
    /// vs contiguous range, whichever cuts fewer edges).
    pub fn build(g: &Graph, m: usize, n: usize, seed: u64) -> Self {
        let assignment = crate::multilevel::best_of(g, m, seed);
        Self::from_assignment(g, assignment, n)
    }

    /// Builds the plan with a caller-supplied level-1 partitioner.
    pub fn build_with(g: &Graph, m: usize, n: usize, partitioner: &dyn Partitioner) -> Self {
        assert!(m >= 1 && n >= 1, "need m >= 1 and n >= 1");
        let assignment = partitioner.partition(g, m);
        Self::from_assignment(g, assignment, n)
    }

    /// Builds the plan from an existing level-1 assignment.
    pub fn from_assignment(g: &Graph, assignment: Assignment, n: usize) -> Self {
        let m = assignment.num_parts;
        let members = assignment.members();
        let mut chunks = Vec::with_capacity(m);
        let mut local_of = Vec::new();
        for (i, part_members) in members.into_iter().enumerate() {
            assert!(
                part_members.len() >= n,
                "partition {i} has {} vertices, fewer than {n} chunks",
                part_members.len()
            );
            // Balance chunks by aggregation work = in-edge count (+1 so
            // isolated vertices still carry weight for the UPDATE matmul).
            let costs: Vec<u64> = part_members
                .iter()
                .map(|&v| 1 + g.in_degree(v) as u64)
                .collect();
            let ranges = balanced_ranges(&costs, n);
            let part_chunks: Vec<Arc<ChunkSubgraph>> = ranges
                .into_iter()
                .enumerate()
                .map(|(j, r)| {
                    Arc::new(ChunkSubgraph::build_in(
                        g,
                        i,
                        j,
                        part_members[r].to_vec(),
                        &mut local_of,
                    ))
                })
                .collect();
            chunks.push(part_chunks);
        }
        TwoLevelPartition {
            m,
            n,
            assignment: Arc::new(assignment),
            chunks,
        }
    }

    /// The grid one layer of a cone-pruned sweep runs over: the batches
    /// split into runs of consecutive batches, run `g` ending before
    /// batch `ends[g]` (the last run at `n`), and partition `i`'s rows
    /// `rows[i][j]` of run `g`'s batches packed into one chunk `(i, g)`
    /// ([`TwoLevelPartition::pack_run`]) — `m × ends.len()` chunks. Every
    /// row stays on the partition that owns it, and the level-1
    /// assignment — who owns which transition row — is kept, so
    /// [`crate::DedupPlan::build`] and [`crate::GpuBufferPlan::build_all`]
    /// derive the packed grid's communication plan as they derive the
    /// session grid's. With every batch its own run the grid keeps its
    /// shape, each chunk cut down to its rows.
    ///
    /// # Panics
    ///
    /// Panics if `ends` fails [`crate::cone::check_runs`].
    pub fn packed(&self, rows: &SliceRows, ends: &[usize]) -> Self {
        if let Err(why) = crate::cone::check_runs(ends, self.n) {
            panic!("{why}");
        }
        let chunks = (0..self.m)
            .map(|i| {
                run_ranges(ends)
                    .enumerate()
                    .map(|(g, run)| Arc::new(self.pack_run(rows, i, g, run)))
                    .collect()
            })
            .collect();
        TwoLevelPartition {
            m: self.m,
            n: ends.len(),
            assignment: Arc::clone(&self.assignment),
            chunks,
        }
    }

    /// Partition `i`'s rows `rows[i][j]` of the batches `run` as one
    /// chunk `(i, g)` ([`ChunkSubgraph::pack`]): chunk `(i, g)` of
    /// [`TwoLevelPartition::packed`] when `run` is its run `g`.
    pub fn pack_run(
        &self,
        rows: &SliceRows,
        i: usize,
        g: usize,
        run: Range<usize>,
    ) -> ChunkSubgraph {
        let parts: Vec<(&ChunkSubgraph, &[u32])> = run
            .filter(|&j| !rows[i][j].is_empty())
            .map(|j| (&*self.chunks[i][j], &rows[i][j][..]))
            .collect();
        ChunkSubgraph::pack(&parts, i, g)
    }

    /// All subgraphs of batch `j` (one per partition).
    pub fn batch(&self, j: usize) -> impl Iterator<Item = &ChunkSubgraph> {
        self.chunks.iter().map(move |p| &*p[j])
    }

    /// Iterates over all `m × n` chunks, partition-major.
    pub fn all_chunks(&self) -> impl Iterator<Item = &ChunkSubgraph> {
        self.chunks.iter().flatten().map(|c| &**c)
    }

    /// Total neighbor-transfer volume if every chunk's neighbor set is
    /// loaded individually: `V_ori = Σ_ij |N_ij|` (paper §5.3), in vertices.
    pub fn v_ori(&self) -> usize {
        self.all_chunks().map(|c| c.num_neighbors()).sum()
    }

    /// Validates the plan: chunks disjointly cover V, each chunk is valid.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let mut seen = vec![false; g.num_vertices()];
        for c in self.all_chunks() {
            c.validate(g)?;
            for &d in &c.dests {
                if seen[d as usize] {
                    return Err(format!("vertex {d} owned by more than one chunk"));
                }
                seen[d as usize] = true;
            }
        }
        if let Some(v) = seen.iter().position(|&s| !s) {
            return Err(format!("vertex {v} not owned by any chunk"));
        }
        Ok(())
    }

    /// This grid, built over `old`, brought up to date with `new`, a
    /// topology over the same vertices: every chunk owning a vertex
    /// `stale` flags is replaced, and every other chunk is shared.
    /// Destination sets never move. A stale chunk whose destinations keep
    /// their in-lists from `old` to `new` moved only GCN weights and is
    /// patched (only its moved weights rewritten); the others are rebuilt
    /// against `new` over one shared scratch. Equal, chunk for chunk, to
    /// [`ChunkSubgraph::build`] of each replaced chunk's destinations
    /// against `new`, and to this grid elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `old`, `new` and `stale` do not all cover the same
    /// vertices.
    pub fn refreshed(&self, old: &Graph, new: &Graph, stale: &[bool]) -> Refresh {
        let nv = new.num_vertices();
        assert!(
            old.num_vertices() == nv && stale.len() == nv,
            "refreshing a grid over {} vertices to {nv} with {} flags",
            old.num_vertices(),
            stale.len()
        );
        let mut degree_moved: Option<Vec<bool>> = None;
        let mut local_of = Vec::new();
        let mut refresh = Refresh {
            chunks: Vec::with_capacity(self.m),
            replaced: 0,
            moved: vec![false; self.n],
        };
        for row in &self.chunks {
            let mut fresh_row = Vec::with_capacity(row.len());
            for chunk in row {
                if !chunk.dests.iter().any(|&d| stale[d as usize]) {
                    fresh_row.push(Arc::clone(chunk));
                    continue;
                }
                refresh.replaced += 1;
                let kept = chunk
                    .dests
                    .iter()
                    .all(|&d| old.in_neighbors(d) == new.in_neighbors(d));
                let fresh = if kept {
                    let degree_moved = degree_moved.get_or_insert_with(|| {
                        (0..nv as u32)
                            .map(|u| old.out_degree(u) != new.out_degree(u))
                            .collect()
                    });
                    chunk.reweighted(new, degree_moved)
                } else {
                    let fresh = ChunkSubgraph::build_in(
                        new,
                        chunk.part,
                        chunk.chunk,
                        chunk.dests.clone(),
                        &mut local_of,
                    );
                    refresh.moved[chunk.chunk] |= fresh.neighbors != chunk.neighbors;
                    fresh
                };
                fresh_row.push(Arc::new(fresh));
            }
            refresh.chunks.push(fresh_row);
        }
        refresh
    }

    /// Replaces the chunk grid (used by the reorganization pass); chunk
    /// `part`/`chunk` ids are rewritten to match the new grid positions
    /// (a chunk shared elsewhere is copied first).
    pub fn with_chunks(mut self, chunks: Vec<Vec<Arc<ChunkSubgraph>>>) -> Self {
        assert_eq!(chunks.len(), self.m, "chunk grid must keep m rows");
        for (i, row) in chunks.iter().enumerate() {
            assert_eq!(row.len(), self.n, "partition {i} must keep n chunks");
        }
        self.chunks = chunks;
        for (i, row) in self.chunks.iter_mut().enumerate() {
            for (j, c) in row.iter_mut().enumerate() {
                if (c.part, c.chunk) != (i, j) {
                    let c = Arc::make_mut(c);
                    c.part = i;
                    c.chunk = j;
                }
            }
        }
        self
    }
}

/// A chunk grid brought up to date with a new topology
/// ([`TwoLevelPartition::refreshed`]).
#[derive(Debug, Clone)]
pub struct Refresh {
    /// The new grid: each replaced chunk fresh, every other chunk shared
    /// with the grid refreshed.
    pub chunks: Vec<Vec<Arc<ChunkSubgraph>>>,
    /// Chunks replaced, patched or rebuilt.
    pub replaced: usize,
    /// `moved[j]`: some chunk of batch `j` has another neighbor list now.
    pub moved: Vec<bool>,
}

/// Destination-count weighted mean of `|N_ij|` over chunks — used in memory
/// sizing discussions.
pub fn mean_neighbors(plan: &TwoLevelPartition) -> f64 {
    let total: usize = plan.all_chunks().map(|c| c.num_neighbors()).sum();
    total as f64 / (plan.m * plan.n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::{generators, VertexId};
    use hongtu_tensor::SeededRng;

    fn graph() -> Graph {
        generators::erdos_renyi(400, 5.0, &mut SeededRng::new(2))
    }

    #[test]
    fn plan_covers_all_vertices_disjointly() {
        let g = graph();
        let plan = TwoLevelPartition::build(&g, 4, 3, 1);
        assert_eq!(plan.m, 4);
        assert_eq!(plan.n, 3);
        assert!(plan.validate(&g).is_ok());
    }

    #[test]
    fn batches_group_same_chunk_index() {
        let g = graph();
        let plan = TwoLevelPartition::build(&g, 3, 2, 1);
        let batch1: Vec<_> = plan.batch(1).collect();
        assert_eq!(batch1.len(), 3);
        for (i, c) in batch1.iter().enumerate() {
            assert_eq!(c.part, i);
            assert_eq!(c.chunk, 1);
        }
    }

    #[test]
    fn chunks_are_edge_balanced_within_partition() {
        let g = graph();
        let plan = TwoLevelPartition::build(&g, 2, 4, 1);
        for row in &plan.chunks {
            let loads: Vec<usize> = row.iter().map(|c| c.num_edges() + c.num_dests()).collect();
            let max = *loads.iter().max().unwrap() as f64;
            let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
            assert!(max <= mean * 2.0, "loads {loads:?}");
        }
    }

    #[test]
    fn total_edges_preserved() {
        let g = graph();
        let plan = TwoLevelPartition::build(&g, 4, 2, 3);
        let total: usize = plan.all_chunks().map(|c| c.num_edges()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn v_ori_at_least_distinct_sources() {
        let g = graph();
        let plan = TwoLevelPartition::build(&g, 4, 4, 3);
        // V_ori counts each chunk's neighbor set; must be at least the
        // number of distinct sources in the whole graph.
        let distinct_sources = (0..g.num_vertices())
            .filter(|&v| g.out_degree(v as VertexId) > 0)
            .count();
        assert!(plan.v_ori() >= distinct_sources);
    }

    #[test]
    fn single_gpu_single_chunk_is_whole_graph() {
        let g = graph();
        let plan = TwoLevelPartition::build(&g, 1, 1, 0);
        assert_eq!(plan.chunks[0][0].num_dests(), g.num_vertices());
        assert_eq!(plan.chunks[0][0].num_edges(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "fewer than")]
    fn rejects_more_chunks_than_partition_vertices() {
        let g = generators::erdos_renyi(12, 2.0, &mut SeededRng::new(1));
        let _ = TwoLevelPartition::build(&g, 4, 10, 0);
    }

    /// The grid refreshed against a graph with a few edges toggled: every
    /// chunk owning a stale vertex equals a fresh build against the new
    /// graph, weights bit for bit, whether it was patched or rebuilt;
    /// every other chunk is shared; `moved` flags exactly the batches
    /// with another neighbor list.
    #[test]
    fn refreshed_chunks_equal_a_fresh_build() {
        let mut patched = 0;
        for seed in 1u64..7 {
            let mut rng = SeededRng::new(seed);
            let g = generators::erdos_renyi(400, 5.0, &mut rng);
            let plan = TwoLevelPartition::build(&g, 3, 4, seed);
            let toggles: Vec<(VertexId, VertexId)> = (0..3)
                .map(|_| (rng.index(400) as VertexId, rng.index(400) as VertexId))
                .filter(|(u, v)| u != v)
                .collect();
            let mut b = hongtu_graph::GraphBuilder::new(400);
            b.extend(g.csr.edges().filter(|e| !toggles.contains(e)));
            for &(u, v) in &toggles {
                if !g.out_neighbors(u).contains(&v) {
                    b.add_edge(u, v);
                }
            }
            let g2 = b.build();
            let mut stale = vec![false; 400];
            for &(u, v) in &toggles {
                stale[u as usize] = true;
                stale[v as usize] = true;
                for &w in g.out_neighbors(u).iter().chain(g2.out_neighbors(u)) {
                    stale[w as usize] = true;
                }
            }
            let refresh = plan.refreshed(&g, &g2, &stale);
            let mut moved = vec![false; plan.n];
            let mut replaced = 0;
            for (i, row) in refresh.chunks.iter().enumerate() {
                for (j, c) in row.iter().enumerate() {
                    let old = &plan.chunks[i][j];
                    if !old.dests.iter().any(|&d| stale[d as usize]) {
                        assert!(Arc::ptr_eq(c, old), "seed {seed} ({i}, {j}) not shared");
                        continue;
                    }
                    replaced += 1;
                    let built = ChunkSubgraph::build(&g2, i, j, old.dests.clone());
                    assert_eq!(**c, built, "seed {seed} ({i}, {j})");
                    let bits = |c: &ChunkSubgraph| -> Vec<u32> {
                        c.gcn_weights.iter().map(|w| w.to_bits()).collect()
                    };
                    assert_eq!(bits(c), bits(&built), "seed {seed} ({i}, {j})");
                    moved[j] |= c.neighbors != old.neighbors;
                    patched += usize::from(
                        old.dests
                            .iter()
                            .all(|&d| g.in_neighbors(d) == g2.in_neighbors(d)),
                    );
                }
            }
            assert_eq!(refresh.replaced, replaced);
            assert_eq!(refresh.moved, moved, "seed {seed}");
        }
        assert!(patched > 0, "no chunk kept its in-lists");
    }

    #[test]
    fn with_chunks_renumbers_ids() {
        let g = graph();
        let plan = TwoLevelPartition::build(&g, 2, 2, 1);
        let mut grid = plan.chunks.clone();
        grid[0].reverse(); // permute batch order in partition 0
        let plan2 = plan.with_chunks(grid);
        for (i, row) in plan2.chunks.iter().enumerate() {
            for (j, c) in row.iter().enumerate() {
                assert_eq!((c.part, c.chunk), (i, j));
            }
        }
        assert!(plan2.validate(&g).is_ok());
    }
}
