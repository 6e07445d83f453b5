//! Hand-crafted *bad* plans, each triggering its documented diagnostic
//! code, plus mutation-style tests that perturb one field of a valid plan
//! and assert the verifier notices.
//!
//! The corruptions are the silent-data-corruption bugs the verifier
//! exists to catch: a duplicated destination, a mis-routed transition
//! vertex, an aliased buffer slot — none of which would crash the engine,
//! all of which would corrupt training.

use hongtu_graph::generators;
use hongtu_graph::{Graph, VertexId};
use hongtu_partition::subgraph::ChunkSubgraph;
use hongtu_partition::{DedupPlan, GpuBufferPlan, TwoLevelPartition};
use hongtu_tensor::SeededRng;
use hongtu_verify::{
    verify_all, verify_all_buffers, verify_buffers, verify_dedup, verify_partition, verify_volumes,
    DiagCode, Report,
};
use std::sync::Arc;

fn triple(
    seed: u64,
    m: usize,
    n: usize,
) -> (Graph, TwoLevelPartition, DedupPlan, Vec<GpuBufferPlan>) {
    let mut rng = SeededRng::new(seed);
    let g = generators::web_hybrid(800, 6.0, 0.9, 30.0, &mut rng);
    let plan = TwoLevelPartition::build(&g, m, n, seed);
    let dedup = DedupPlan::build(&plan);
    let bufs = GpuBufferPlan::build_all(&plan, &dedup);
    (g, plan, dedup, bufs)
}

fn codes(diags: &[hongtu_verify::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code.code()).collect()
}

/// Rebuilds chunk `(i, j)` from a doctored destination list, keeping the
/// chunk structurally valid so only the intended invariant breaks.
fn rebuild_chunk(
    g: &Graph,
    plan: &mut TwoLevelPartition,
    i: usize,
    j: usize,
    dests: Vec<VertexId>,
) {
    plan.chunks[i][j] = Arc::new(ChunkSubgraph::build(g, i, j, dests));
}

// ---------------------------------------------------------------- P codes

#[test]
fn duplicated_destination_is_p001() {
    let (g, mut plan, _, _) = triple(1, 3, 3);
    // Give chunk (0, 1) a destination that chunk (0, 0) already owns. The
    // rebuilt chunk is structurally sound — only ownership is violated.
    let stolen = plan.chunks[0][0].dests[0];
    let mut dests = plan.chunks[0][1].dests.clone();
    dests.push(stolen);
    dests.sort_unstable();
    rebuild_chunk(&g, &mut plan, 0, 1, dests);
    let diags = verify_partition(&g, &plan);
    assert!(codes(&diags).contains(&"P001"), "{diags:?}");
    // No structural or edge problems: the overlap is the only finding.
    assert!(
        diags.iter().all(|d| d.code == DiagCode::ChunkOverlap),
        "{diags:?}"
    );
}

#[test]
fn dropped_destination_is_p002() {
    let (g, mut plan, _, _) = triple(2, 2, 3);
    let mut dests = plan.chunks[1][0].dests.clone();
    let dropped = dests.remove(dests.len() / 2);
    rebuild_chunk(&g, &mut plan, 1, 0, dests);
    let diags = verify_partition(&g, &plan);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::CoverageGap),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.location.vertex == Some(dropped)),
        "{diags:?}"
    );
}

#[test]
fn removed_in_edge_is_p003() {
    let (g, mut plan, _, _) = triple(3, 2, 2);
    // Drop the last in-edge of a chunk: offsets stay monotone and
    // consistent with the edge arrays, so P004 stays silent.
    let c = Arc::make_mut(&mut plan.chunks[0][0]);
    let k = (0..c.dests.len())
        .rev()
        .find(|&k| c.offsets[k + 1] > c.offsets[k])
        .expect("some dest with an in-edge");
    assert_eq!(k, c.dests.len() - 1, "last dest must carry the last edge");
    c.nbr_index.pop();
    c.gcn_weights.pop();
    *c.offsets.last_mut().unwrap() -= 1;
    let victim = c.dests[k];
    let diags = verify_partition(&g, &plan);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::MissingInEdge),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.location.vertex == Some(victim)),
        "{diags:?}"
    );
}

#[test]
fn unsorted_neighbor_list_is_p004() {
    let (g, mut plan, _, _) = triple(4, 2, 2);
    Arc::make_mut(&mut plan.chunks[1][1]).neighbors.swap(0, 1);
    let diags = verify_partition(&g, &plan);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::ChunkStructure),
        "{diags:?}"
    );
}

#[test]
fn wrong_chunk_ids_are_p005() {
    let (g, mut plan, _, _) = triple(5, 2, 2);
    Arc::make_mut(&mut plan.chunks[0][0]).chunk = 1;
    let diags = verify_partition(&g, &plan);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::GridShape),
        "{diags:?}"
    );
}

#[test]
fn assignment_disagreement_is_p005() {
    let (g, mut plan, _, _) = triple(6, 3, 2);
    // Flip one vertex's level-1 label without touching the chunks.
    let v = plan.chunks[0][0].dests[0] as usize;
    std::sync::Arc::make_mut(&mut plan.assignment).partition_of[v] = 1;
    let diags = verify_partition(&g, &plan);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::GridShape),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------- D codes

/// First (batch, gpu) whose transition set has at least `len` vertices.
fn fat_set(dedup: &DedupPlan, len: usize) -> (usize, usize) {
    for (j, b) in dedup.batches.iter().enumerate() {
        for (i, t) in b.transition.iter().enumerate() {
            if t.len() >= len {
                return (j, i);
            }
        }
    }
    panic!("no transition set with {len} vertices");
}

#[test]
fn unsorted_transition_is_d101() {
    let (_, plan, mut dedup, _) = triple(7, 3, 3);
    let (j, i) = fat_set(&dedup, 2);
    Arc::make_mut(&mut dedup.batches[j]).transition[i].swap(0, 1);
    let diags = verify_dedup(&plan, &dedup);
    assert!(codes(&diags).contains(&"D101"), "{diags:?}");
}

#[test]
fn misrouted_transition_vertex_is_d102() {
    let (_, plan, mut dedup, _) = triple(8, 3, 3);
    // Move one vertex from GPU 0's transition set to GPU 1's (sorted
    // insert, so D101 stays silent).
    let (j, _) = fat_set(&dedup, 2);
    let v = Arc::make_mut(&mut dedup.batches[j]).transition[0].remove(0);
    let t = &mut Arc::make_mut(&mut dedup.batches[j]).transition[1];
    let pos = t.binary_search(&v).unwrap_err();
    t.insert(pos, v);
    let diags = verify_dedup(&plan, &dedup);
    assert!(codes(&diags).contains(&"D102"), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.location.vertex == Some(v)),
        "{diags:?}"
    );
}

#[test]
fn vertex_in_two_transition_sets_is_d103() {
    let (_, plan, mut dedup, _) = triple(9, 3, 3);
    let (j, i) = fat_set(&dedup, 1);
    let v = dedup.batches[j].transition[i][0];
    let other = (i + 1) % 3;
    let t = &mut Arc::make_mut(&mut dedup.batches[j]).transition[other];
    let pos = t.binary_search(&v).unwrap_err();
    t.insert(pos, v);
    let diags = verify_dedup(&plan, &dedup);
    assert!(codes(&diags).contains(&"D103"), "{diags:?}");
}

#[test]
fn vertex_dropped_from_union_is_d104() {
    let (_, plan, mut dedup, _) = triple(10, 2, 3);
    let (j, i) = fat_set(&dedup, 2);
    Arc::make_mut(&mut dedup.batches[j]).transition[i].remove(0);
    let diags = verify_dedup(&plan, &dedup);
    assert!(codes(&diags).contains(&"D104"), "{diags:?}");
}

#[test]
fn duplicated_cpu_load_is_d105() {
    // The ISSUE's canonical corruption: one vertex loaded host→GPU twice —
    // present in ℕ^cpu_ij although it is reused from batch j−1.
    let (_, plan, mut dedup, _) = triple(11, 3, 4);
    let (j, i) = (1..plan.n)
        .flat_map(|j| (0..plan.m).map(move |i| (j, i)))
        .find(|&(j, i)| dedup.batches[j].reused[i] > 0)
        .expect("some batch with intra-GPU reuse");
    let reused_v = *dedup.batches[j].transition[i]
        .iter()
        .find(|v| dedup.batches[j].new_from_cpu[i].binary_search(v).is_err())
        .expect("a reused vertex");
    let fresh = &mut Arc::make_mut(&mut dedup.batches[j]).new_from_cpu[i];
    let pos = fresh.binary_search(&reused_v).unwrap_err();
    fresh.insert(pos, reused_v);
    let diags = verify_dedup(&plan, &dedup);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::CpuLoadMismatch),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.location.vertex == Some(reused_v)),
        "{diags:?}"
    );
}

#[test]
fn wrong_reuse_count_is_d106() {
    let (_, plan, mut dedup, _) = triple(12, 2, 3);
    Arc::make_mut(&mut dedup.batches[1]).reused[0] += 1;
    let diags = verify_dedup(&plan, &dedup);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::ReuseCountWrong),
        "{diags:?}"
    );
    assert_eq!(diags.len(), 1);
}

#[test]
fn corrupted_fetch_cell_is_d107_and_d108() {
    let (_, plan, mut dedup, _) = triple(13, 3, 2);
    Arc::make_mut(&mut dedup.batches[0]).fetch[1][2] += 1;
    let diags = verify_dedup(&plan, &dedup);
    // One bad cell breaks both the row-sum and the cell identity.
    assert!(codes(&diags).contains(&"D107"), "{diags:?}");
    assert!(codes(&diags).contains(&"D108"), "{diags:?}");
}

#[test]
fn truncated_plan_is_d109() {
    let (_, plan, mut dedup, _) = triple(14, 2, 3);
    dedup.batches.pop();
    let diags = verify_dedup(&plan, &dedup);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::PlanShapeMismatch),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------- B codes

#[test]
fn aliased_slot_is_b201() {
    let (_, plan, dedup, mut bufs) = triple(15, 2, 3);
    // In batch 0 everything is incoming, so pointing vertex t1 at vertex
    // t0's slot (and updating its incoming row and neighbor slots to
    // match) leaves exactly one broken invariant: two live vertices in
    // one slot.
    let bp = &mut bufs[0];
    let b = Arc::make_mut(&mut bp.batches[0]);
    let (t0, t1) = (0usize, 1usize);
    let shared = b.position[t0];
    let old = b.position[t1];
    b.position[t1] = shared;
    for inc in b.incoming.iter_mut() {
        if inc.0 == t1 as u32 {
            inc.1 = shared;
        }
    }
    for s in b.nbr_slot.iter_mut() {
        if *s == old {
            *s = shared;
        }
    }
    let diags = verify_buffers(&plan, &dedup, &bufs[0]);
    assert!(codes(&diags).contains(&"B201"), "{diags:?}");
}

#[test]
fn misdirected_neighbor_read_is_b202() {
    let (_, plan, dedup, mut bufs) = triple(16, 2, 3);
    // Route one neighbor read to a different (valid, occupied) slot.
    let b = Arc::make_mut(&mut bufs[1].batches[0]);
    assert!(b.nbr_slot.len() >= 2);
    b.nbr_slot[0] = b.nbr_slot[1];
    let diags = verify_buffers(&plan, &dedup, &bufs[1]);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::ReadUnwritten),
        "{diags:?}"
    );
    assert_eq!(diags.len(), 1);
}

#[test]
fn moved_slot_without_rewrite_is_b203() {
    let (_, plan, dedup, mut bufs) = triple(17, 2, 4);
    // Find a batch with a genuinely reused row, then claim it sits in a
    // fresh slot it was never copied to — a stale-read / use-after-free.
    let bp = &mut bufs[0];
    let (j, t) = (1..bp.batches.len())
        .find_map(|j| {
            let b = &bp.batches[j];
            let incoming: std::collections::HashSet<u32> =
                b.incoming.iter().map(|&(t, _)| t).collect();
            (0..b.merged.len())
                .find(|&t| !incoming.contains(&(t as u32)))
                .map(|t| (j, t))
        })
        .expect("some reused row");
    let fresh_slot = bp.capacity as u32 - 1;
    let b = Arc::make_mut(&mut bp.batches[j]);
    let v = b.merged[t];
    // Ensure the chosen slot is not otherwise occupied this batch.
    assert!(!b.position.contains(&fresh_slot) || b.position[t] == fresh_slot);
    let old = b.position[t];
    b.position[t] = fresh_slot;
    for s in b.nbr_slot.iter_mut() {
        if *s == old {
            *s = fresh_slot;
        }
    }
    let diags = verify_buffers(&plan, &dedup, &bufs[0]);
    assert!(codes(&diags).contains(&"B203"), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.location.vertex == Some(v)),
        "{diags:?}"
    );
}

#[test]
fn understated_capacity_is_b204() {
    let (_, plan, dedup, mut bufs) = triple(18, 2, 3);
    // The declared capacity is the high-water mark, so shrinking it by one
    // strands whichever rows were planned into the top slot.
    bufs[0].capacity -= 1;
    let diags = verify_buffers(&plan, &dedup, &bufs[0]);
    assert!(!diags.is_empty());
    assert!(
        diags.iter().all(|d| d.code == DiagCode::CapacityExceeded),
        "{diags:?}"
    );
}

#[test]
fn wrong_merged_set_is_b205() {
    let (_, plan, dedup, mut bufs) = triple(19, 2, 3);
    let b = Arc::make_mut(&mut bufs[1].batches[0]);
    b.merged.pop();
    b.position.pop();
    let diags = verify_buffers(&plan, &dedup, &bufs[1]);
    assert!(codes(&diags).contains(&"B205"), "{diags:?}");
}

#[test]
fn mislabelled_gpu_plan_is_b205() {
    let (_, plan, dedup, mut bufs) = triple(20, 3, 2);
    bufs.swap(0, 1);
    let diags = verify_all_buffers(&plan, &dedup, &bufs);
    assert!(
        diags.iter().all(|d| d.code == DiagCode::MergedSetWrong),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------- V codes

#[test]
fn volume_mismatches_are_v301_v302_v303() {
    let (_, plan, dedup, _) = triple(21, 3, 3);

    // V_ori is derived from the fetch matrix.
    let mut d = dedup.clone();
    Arc::make_mut(&mut d.batches[0]).fetch[0][0] += 1;
    let diags = verify_volumes(&plan, &d);
    assert!(
        diags.iter().all(|x| x.code == DiagCode::VOriMismatch),
        "{diags:?}"
    );

    // V_+p2p is derived from transition-set sizes.
    let mut d = dedup.clone();
    let v = d.batches[0].transition[0][0];
    Arc::make_mut(&mut d.batches[0]).transition[0].push(v);
    let diags = verify_volumes(&plan, &d);
    assert!(
        diags.iter().all(|x| x.code == DiagCode::VP2pMismatch),
        "{diags:?}"
    );

    // V_+ru is derived from CPU-load sizes.
    let mut d = dedup.clone();
    let v = d.batches[0].new_from_cpu[0][0];
    Arc::make_mut(&mut d.batches[0]).new_from_cpu[0].push(v);
    let diags = verify_volumes(&plan, &d);
    assert!(
        diags.iter().all(|x| x.code == DiagCode::VRuMismatch),
        "{diags:?}"
    );
}

// ------------------------------------------------------- mutation battery

/// Every single-field perturbation of a valid triple must be detected by
/// `verify_all` with its documented code, and the pristine triple must
/// stay clean — the mutation-testing framing of the suites above.
#[test]
fn mutation_battery_all_detected() {
    type Mutation = (
        &'static str,
        DiagCode,
        fn(&Graph, &mut TwoLevelPartition, &mut DedupPlan, &mut Vec<GpuBufferPlan>),
    );
    let mutations: [Mutation; 8] = [
        (
            "swap two chunk dests across partitions",
            DiagCode::GridShape,
            |g, p, _, _| {
                let a = p.chunks[0][0].dests[0];
                let b = p.chunks[1][0].dests[0];
                let mut da = p.chunks[0][0].dests.clone();
                let mut db = p.chunks[1][0].dests.clone();
                da[0] = b;
                db[0] = a;
                da.sort_unstable();
                db.sort_unstable();
                rebuild_chunk(g, p, 0, 0, da);
                rebuild_chunk(g, p, 1, 0, db);
            },
        ),
        (
            "duplicate a neighbor entry",
            DiagCode::ChunkStructure,
            |_, p, _, _| {
                let c = Arc::make_mut(&mut p.chunks[0][0]);
                c.neighbors[1] = c.neighbors[0];
            },
        ),
        (
            "clear a transition set",
            DiagCode::TransitionUnionMismatch,
            |_, _, d, _| {
                let (j, i) = fat_set(d, 1);
                Arc::make_mut(&mut d.batches[j]).transition[i].clear();
            },
        ),
        (
            "zero the reuse counts",
            DiagCode::ReuseCountWrong,
            |_, p, d, _| {
                let (j, i) = (1..p.n)
                    .flat_map(|j| (0..p.m).map(move |i| (j, i)))
                    .find(|&(j, i)| d.batches[j].reused[i] > 0)
                    .expect("reuse somewhere");
                Arc::make_mut(&mut d.batches[j]).reused[i] = 0;
            },
        ),
        (
            "transpose the fetch matrix",
            DiagCode::FetchCellMismatch,
            |_, _, d, _| {
                let b = Arc::make_mut(&mut d.batches[0]);
                let f = b.fetch.clone();
                let asym = (0..f.len())
                    .flat_map(|i| (0..f.len()).map(move |k| (i, k)))
                    .find(|&(i, k)| f[i][k] != f[k][i])
                    .expect("asymmetric fetch cell");
                for (i, row) in f.iter().enumerate() {
                    for (k, _) in row.iter().enumerate() {
                        b.fetch[i][k] = f[k][i];
                    }
                }
                let _ = asym;
            },
        ),
        (
            "swap two buffer positions",
            DiagCode::ReadUnwritten,
            |_, _, _, bufs| {
                // Swapping positions without updating nbr_slot misroutes every
                // read of the two vertices.
                let b = Arc::make_mut(&mut bufs[0].batches[0]);
                b.position.swap(0, 1);
                let (i0, i1) = (b.incoming[0].1, b.incoming[1].1);
                b.incoming[0].1 = i1;
                b.incoming[1].1 = i0;
            },
        ),
        (
            "shrink one nbr_slot vector",
            DiagCode::MergedSetWrong,
            |_, _, _, bufs| {
                Arc::make_mut(&mut bufs[1].batches[0]).nbr_slot.pop();
            },
        ),
        (
            "drop the last buffer plan",
            DiagCode::MergedSetWrong,
            |_, _, _, bufs| {
                bufs.pop();
            },
        ),
    ];

    for (k, (what, code, mutate)) in mutations.into_iter().enumerate() {
        let (g, mut plan, mut dedup, mut bufs) = triple(100 + k as u64, 2, 3);
        assert!(
            verify_all(&g, &plan, &dedup, &bufs).is_ok(),
            "pristine triple {k} must verify clean"
        );
        mutate(&g, &mut plan, &mut dedup, &mut bufs);
        let report: Report = verify_all(&g, &plan, &dedup, &bufs);
        assert!(!report.is_ok(), "mutation {k} ({what}) went undetected");
        assert!(
            report.has(code),
            "mutation {k} ({what}) expected {} in:\n{}",
            code.code(),
            report.render()
        );
    }
}
