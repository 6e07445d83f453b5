//! Pass 1 — partition integrity (paper §4.1).
//!
//! The 2-level partition's contract is what makes chunk-local execution
//! exact: destination sets tile `V` disjointly, and every chunk carries
//! **all** in-edges of its destinations (full-neighbor aggregation, the
//! property GAT's per-destination softmax depends on). This pass replays
//! each chunk against the source graph.

use crate::diag::{push, DiagCode, Diagnostic, Location};
use hongtu_graph::Graph;
use hongtu_partition::{ChunkSubgraph, TwoLevelPartition};
use std::sync::Arc;

/// Checks the partition plan against the graph it claims to partition.
pub fn verify_partition(g: &Graph, plan: &TwoLevelPartition) -> Vec<Diagnostic> {
    verify_partition_since(g, plan, None, &mut 0)
}

/// What pass 1 may take from a certificate: the grid it certified, and
/// which vertices' in-lists differ between the topology it certified
/// against and the graph under check.
pub(crate) struct CertifiedGrid<'c> {
    pub(crate) chunks: &'c [Vec<Arc<ChunkSubgraph>>],
    pub(crate) changed: &'c [bool],
}

/// Pass 1, re-reading only what `since` did not certify: a chunk that is
/// not the certified allocation is checked whole and must keep the
/// certified chunk's destinations (a commit never moves the tiling); a
/// certified chunk is re-checked only at the destinations whose in-lists
/// moved. The grid shape is checked whole; the tiling is checked whole
/// only without a certificate. `visited` counts the chunks read.
pub(crate) fn verify_partition_since(
    g: &Graph,
    plan: &TwoLevelPartition,
    since: Option<CertifiedGrid<'_>>,
    visited: &mut usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nv = g.num_vertices();

    // ---- grid shape and level-1 assignment consistency (P005) ----
    if plan.assignment.num_parts != plan.m {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::GridShape,
                Location::default(),
                format!(
                    "assignment has {} parts but the plan declares m = {}",
                    plan.assignment.num_parts, plan.m
                ),
            ),
        );
    }
    if plan.assignment.partition_of.len() != nv {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::GridShape,
                Location::default(),
                format!(
                    "assignment covers {} vertices but the graph has {nv}",
                    plan.assignment.partition_of.len()
                ),
            ),
        );
        // Ownership checks below index partition_of; bail out.
        return diags;
    }
    if plan.chunks.len() != plan.m {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::GridShape,
                Location::default(),
                format!(
                    "chunk grid has {} rows, expected m = {}",
                    plan.chunks.len(),
                    plan.m
                ),
            ),
        );
    }
    for (i, row) in plan.chunks.iter().enumerate() {
        if row.len() != plan.n {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::GridShape,
                    Location::gpu(i),
                    format!(
                        "partition has {} chunks, expected n = {}",
                        row.len(),
                        plan.n
                    ),
                ),
            );
        }
        for (j, c) in row.iter().enumerate() {
            if (c.part, c.chunk) != (i, j) {
                push(
                    &mut diags,
                    Diagnostic::new(
                        DiagCode::GridShape,
                        Location::gpu_batch(i, j),
                        format!(
                            "chunk carries ids ({}, {}), expected ({i}, {j})",
                            c.part, c.chunk
                        ),
                    ),
                );
            }
        }
    }

    if let Some(since) = since {
        for (i, row) in plan.chunks.iter().enumerate() {
            for (j, c) in row.iter().enumerate() {
                let certified = &since.chunks[i][j];
                if Arc::ptr_eq(c, certified) {
                    let mut read = false;
                    for (k, &d) in c.dests.iter().enumerate() {
                        if since.changed[d as usize] {
                            read = true;
                            check_in_edges(g, c, k, Location::gpu_batch(i, j), &mut diags);
                        }
                    }
                    *visited += usize::from(read);
                } else {
                    *visited += 1;
                    if c.dests != certified.dests {
                        push(
                            &mut diags,
                            Diagnostic::new(
                                DiagCode::GridShape,
                                Location::gpu_batch(i, j),
                                "the chunk's destinations differ from the certified chunk's",
                            ),
                        );
                        continue;
                    }
                    check_chunk(g, i, j, c, &mut diags);
                }
            }
        }
        return diags;
    }

    // ---- destination coverage (P001 / P002) and ownership (P005) ----
    let mut owner_chunk: Vec<Option<(usize, usize)>> = vec![None; nv];
    for (i, row) in plan.chunks.iter().enumerate() {
        for (j, c) in row.iter().enumerate() {
            for &d in &c.dests {
                let du = d as usize;
                if du >= nv {
                    push(
                        &mut diags,
                        Diagnostic::new(
                            DiagCode::GridShape,
                            Location::gpu_batch(i, j).with_vertex(d),
                            format!("destination {d} is outside the graph (|V| = {nv})"),
                        ),
                    );
                    continue;
                }
                if let Some((pi, pj)) = owner_chunk[du] {
                    push(
                        &mut diags,
                        Diagnostic::new(
                            DiagCode::ChunkOverlap,
                            Location::gpu_batch(i, j).with_vertex(d),
                            format!("vertex {d} already owned by chunk ({pi}, {pj})"),
                        ),
                    );
                } else {
                    owner_chunk[du] = Some((i, j));
                }
                if plan.assignment.partition_of[du] as usize != i {
                    push(
                        &mut diags,
                        Diagnostic::new(
                            DiagCode::GridShape,
                            Location::gpu_batch(i, j).with_vertex(d),
                            format!(
                                "vertex {d} sits in partition {i}'s chunk but the assignment \
                                 places it in partition {}",
                                plan.assignment.partition_of[du]
                            ),
                        ),
                    );
                }
            }
        }
    }
    for (v, owner) in owner_chunk.iter().enumerate() {
        if owner.is_none() {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::CoverageGap,
                    Location::vertex(v as u32),
                    format!("vertex {v} is owned by no chunk"),
                ),
            );
        }
    }

    // ---- per-chunk structure (P003 / P004) ----
    for (i, row) in plan.chunks.iter().enumerate() {
        for (j, c) in row.iter().enumerate() {
            *visited += 1;
            check_chunk(g, i, j, c, &mut diags);
        }
    }
    diags
}

/// Chunk `(i, j)`'s local structure (P004) and every in-edge of its
/// destinations, resolved against `g` (P003).
fn check_chunk(g: &Graph, i: usize, j: usize, c: &ChunkSubgraph, diags: &mut Vec<Diagnostic>) {
    let loc = Location::gpu_batch(i, j);
    // Local CSC integrity first; edge resolution below assumes it.
    let mut structural = false;
    if c.offsets.len() != c.dests.len() + 1
        || c.offsets.first() != Some(&0)
        || c.offsets.windows(2).any(|w| w[0] > w[1])
        || c.offsets.last() != Some(&c.nbr_index.len())
    {
        push(
            diags,
            Diagnostic::new(
                DiagCode::ChunkStructure,
                loc,
                format!(
                    "malformed CSC offsets (len {} for {} dests, {} edges)",
                    c.offsets.len(),
                    c.dests.len(),
                    c.nbr_index.len()
                ),
            ),
        );
        structural = true;
    }
    if c.nbr_index.len() != c.gcn_weights.len() {
        push(
            diags,
            Diagnostic::new(
                DiagCode::ChunkStructure,
                loc,
                format!(
                    "{} edge indices vs {} edge weights",
                    c.nbr_index.len(),
                    c.gcn_weights.len()
                ),
            ),
        );
    }
    if let Some(w) = c.neighbors.windows(2).find(|w| w[0] >= w[1]) {
        push(
            diags,
            Diagnostic::new(
                DiagCode::ChunkStructure,
                loc.with_vertex(w[1]),
                "neighbor list is not sorted strictly ascending",
            ),
        );
        structural = true;
    }
    if let Some(&bad) = c
        .nbr_index
        .iter()
        .find(|&&li| li as usize >= c.neighbors.len())
    {
        push(
            diags,
            Diagnostic::new(
                DiagCode::ChunkStructure,
                loc,
                format!(
                    "edge index {bad} out of range (|N_ij| = {})",
                    c.neighbors.len()
                ),
            ),
        );
        structural = true;
    }
    if structural {
        return; // edge resolution would index out of bounds
    }
    // Every in-edge of every owned destination, resolved exactly.
    for k in 0..c.dests.len() {
        check_in_edges(g, c, k, loc, diags);
    }
}

/// The in-edges of `c`'s `k`-th destination, on a structurally sound
/// chunk, against `g`'s in-list (P003).
fn check_in_edges(
    g: &Graph,
    c: &ChunkSubgraph,
    k: usize,
    loc: Location,
    diags: &mut Vec<Diagnostic>,
) {
    let d = c.dests[k];
    if d as usize >= g.num_vertices() {
        return; // reported with the tiling
    }
    let expect = g.in_neighbors(d);
    let got = &c.nbr_index[c.offsets[k]..c.offsets[k + 1]];
    if expect.len() != got.len() {
        push(
            diags,
            Diagnostic::new(
                DiagCode::MissingInEdge,
                loc.with_vertex(d),
                format!(
                    "destination {d} has {} in-edges in the graph but {} in the chunk",
                    expect.len(),
                    got.len()
                ),
            ),
        );
        return;
    }
    for (&want, &li) in expect.iter().zip(got) {
        if c.neighbors[li as usize] != want {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::MissingInEdge,
                    loc.with_vertex(d),
                    format!(
                        "an in-edge of {d} resolves to neighbor {} instead of {want}",
                        c.neighbors[li as usize]
                    ),
                ),
            );
            break;
        }
    }
}
