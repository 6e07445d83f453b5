//! A plan certificate after a structural commit: the narrowed check
//! reaches `verify_all`'s verdict and report on clean and corrupt plans
//! alike, reads little more than what the commit replaced, and checks a
//! commit over a graph it did not certify whole.
//!
//! The commit is the one `Session::apply_staged` makes: edge toggles,
//! the chunk grid refreshed (`TwoLevelPartition::refreshed`), the dedup
//! and buffer plans patched in the batches whose neighbor lists moved.

use hongtu_graph::{generators, Graph, GraphBuilder, VertexId};
use hongtu_partition::{ChunkSubgraph, DedupPlan, GpuBufferPlan, TwoLevelPartition};
use hongtu_tensor::SeededRng;
use hongtu_verify::{verify_all, PlanCertificate};
use std::sync::Arc;

/// A plan, certified over `before`, and the same plan after a commit
/// of edge toggles that produced `after`.
struct Commit {
    before: Arc<Graph>,
    after: Arc<Graph>,
    certificate: PlanCertificate,
    old: (TwoLevelPartition, DedupPlan, Vec<GpuBufferPlan>),
    plan: TwoLevelPartition,
    dedup: DedupPlan,
    bufs: Vec<GpuBufferPlan>,
    /// Chunks the refresh replaced.
    replaced: usize,
}

impl Commit {
    fn check(&self) -> hongtu_verify::Checked {
        self.certificate.check_commit(
            &self.before,
            &self.after,
            &self.plan,
            &self.dedup,
            &self.bufs,
        )
    }
}

fn graph(seed: u64) -> Graph {
    let g = generators::web_hybrid(700, 6.0, 0.9, 30.0, &mut SeededRng::new(seed));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.csr.edges());
    b.build()
}

/// `g` with each edge of `toggles` removed if present, added if not,
/// and the structurally dirty vertices of the edit: both endpoints and
/// every old or new out-neighbor of a source.
fn toggled(g: &Graph, toggles: &[(VertexId, VertexId)]) -> (Graph, Vec<bool>) {
    let flip = |u: VertexId, v: VertexId| toggles.contains(&(u, v));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.csr.edges().filter(|&(u, v)| !flip(u, v)));
    for &(u, v) in toggles {
        if !g.out_neighbors(u).contains(&v) {
            b.add_edge(u, v);
        }
    }
    let after = b.build();
    let mut stale = vec![false; g.num_vertices()];
    for &(u, v) in toggles {
        stale[u as usize] = true;
        stale[v as usize] = true;
        for &w in g.out_neighbors(u).iter().chain(after.out_neighbors(u)) {
            stale[w as usize] = true;
        }
    }
    (after, stale)
}

fn commit(seed: u64, m: usize, n: usize, toggles: usize) -> Commit {
    let before = Arc::new(graph(seed));
    let plan = TwoLevelPartition::build(&before, m, n, seed);
    let dedup = DedupPlan::build(&plan);
    let bufs = GpuBufferPlan::build_all(&plan, &dedup);
    let certificate = PlanCertificate::default()
        .check_commit(&before, &before, &plan, &dedup, &bufs)
        .certificate
        .expect("a planner-built plan certifies");
    let mut rng = SeededRng::new(seed ^ 0x5eed);
    let nv = before.num_vertices();
    let edits: Vec<(VertexId, VertexId)> = (0..toggles)
        .map(|_| loop {
            let (u, v) = (rng.index(nv) as VertexId, rng.index(nv) as VertexId);
            if u != v {
                break (u, v);
            }
        })
        .collect();
    let (after, stale) = toggled(&before, &edits);
    let refresh = plan.refreshed(&before, &after, &stale);
    let next = TwoLevelPartition {
        chunks: refresh.chunks,
        ..plan.clone()
    };
    let next_dedup = dedup.patched(&next, &refresh.moved);
    let next_bufs = bufs
        .iter()
        .map(|bp| bp.patched(&next, &next_dedup, &refresh.moved))
        .collect();
    Commit {
        before,
        after: Arc::new(after),
        certificate,
        old: (plan, dedup, bufs),
        plan: next,
        dedup: next_dedup,
        bufs: next_bufs,
        replaced: refresh.replaced,
    }
}

/// `flags[j]` set: how many runs of consecutive set flags.
fn runs(flags: &[bool]) -> usize {
    (0..flags.len())
        .filter(|&j| flags[j] && (j == 0 || !flags[j - 1]))
        .count()
}

/// A single two-edge toggle: the narrowed check is clean like
/// `verify_all`, and reads at most the replaced chunks, the replaced
/// dedup batches plus the batch after each run of them, and the
/// replaced buffer batches plus one boundary batch per GPU chain.
#[test]
fn a_two_edge_toggle_reads_what_it_replaced() {
    for (seed, m, n) in [(1u64, 2, 6), (2, 3, 8), (3, 4, 5), (4, 1, 7), (5, 2, 10)] {
        let c = commit(seed, m, n, 2);
        let checked = c.check();
        let whole = verify_all(&c.after, &c.plan, &c.dedup, &c.bufs);
        assert!(whole.is_ok(), "{}", whole.render());
        assert!(checked.report.is_ok(), "{}", checked.report.render());
        assert!(checked.certificate.is_some());

        let (_, old_dedup, old_bufs) = &c.old;
        let dedup_replaced: Vec<bool> = (0..n)
            .map(|j| !Arc::ptr_eq(&c.dedup.batches[j], &old_dedup.batches[j]))
            .collect();
        let buffers_replaced: usize = c
            .bufs
            .iter()
            .zip(old_bufs)
            .map(|(now, then)| {
                (0..n)
                    .filter(|&j| !Arc::ptr_eq(&now.batches[j], &then.batches[j]))
                    .count()
            })
            .sum();
        let v = checked.visited;
        let dedup_bound = dedup_replaced.iter().filter(|&&r| r).count() + runs(&dedup_replaced);
        assert!(
            v.chunks <= c.replaced,
            "seed {seed}: {v:?}, {} replaced",
            c.replaced
        );
        assert!(
            v.dedup_batches <= dedup_bound,
            "seed {seed}: {v:?} > {dedup_bound}"
        );
        assert!(
            v.buffer_batches <= buffers_replaced + m,
            "seed {seed}: {v:?}, {buffers_replaced} buffer batches replaced"
        );
        assert!(
            v.chunks < m * n && v.buffer_batches < m * n,
            "seed {seed}: {v:?}"
        );
    }
}

/// A commit over a graph the certificate did not certify — equal in
/// content, another allocation — is checked whole.
#[test]
fn a_base_the_certificate_did_not_record_is_checked_whole() {
    let c = commit(6, 2, 4, 2);
    let twin = Graph::clone(&c.before);
    let checked = c
        .certificate
        .check_commit(&twin, &c.after, &c.plan, &c.dedup, &c.bufs);
    assert!(checked.report.is_ok(), "{}", checked.report.render());
    assert_eq!(checked.visited.chunks, 2 * 4);
    assert_eq!(checked.visited.dedup_batches, 4);
    assert_eq!(checked.visited.buffer_batches, 2 * 4);
    // The certificate it returns covers the new topology.
    let again = checked
        .certificate
        .expect("clean")
        .check_commit(&c.after, &c.after, &c.plan, &c.dedup, &c.bufs);
    assert!(again.report.is_ok());
    assert_eq!(again.visited, Default::default());
}

/// A plan corruption at position `(i, j)`; `false` when the plan has
/// nothing there to corrupt.
type Mutant = fn(&Graph, &mut Plan, usize, usize) -> bool;

/// The three plans a mutant may corrupt.
struct Plan {
    plan: TwoLevelPartition,
    dedup: DedupPlan,
    bufs: Vec<GpuBufferPlan>,
}

fn rebuild(g: &Graph, p: &mut Plan, i: usize, j: usize, dests: Vec<VertexId>) {
    p.plan.chunks[i][j] = Arc::new(ChunkSubgraph::build(g, i, j, dests));
}

/// One mutant per plan diagnostic of `bad_plans.rs`, positioned.
fn mutants() -> Vec<(&'static str, Mutant)> {
    vec![
        ("P001 a destination owned twice", |g, p, i, j| {
            let other = (j + 1) % p.plan.n;
            if other == j {
                return false;
            }
            let stolen = p.plan.chunks[i][other].dests[0];
            let mut dests = p.plan.chunks[i][j].dests.clone();
            dests.push(stolen);
            dests.sort_unstable();
            rebuild(g, p, i, j, dests);
            true
        }),
        ("P002 a destination dropped", |g, p, i, j| {
            let mut dests = p.plan.chunks[i][j].dests.clone();
            if dests.len() < 2 {
                return false;
            }
            dests.remove(dests.len() / 2);
            rebuild(g, p, i, j, dests);
            true
        }),
        ("P003 an in-edge dropped", |_, p, i, j| {
            let c = Arc::make_mut(&mut p.plan.chunks[i][j]);
            let Some(k) = (0..c.dests.len()).find(|&k| c.offsets[k + 1] > c.offsets[k]) else {
                return false;
            };
            let e = c.offsets[k + 1] - 1;
            c.nbr_index.remove(e);
            c.gcn_weights.remove(e);
            for o in &mut c.offsets[k + 1..] {
                *o -= 1;
            }
            true
        }),
        ("P004 neighbors unsorted", |_, p, i, j| {
            let c = Arc::make_mut(&mut p.plan.chunks[i][j]);
            if c.neighbors.len() < 2 {
                return false;
            }
            c.neighbors.swap(0, 1);
            true
        }),
        ("P005 wrong chunk id", |_, p, i, j| {
            Arc::make_mut(&mut p.plan.chunks[i][j]).chunk = j + 1;
            true
        }),
        ("P005 assignment flipped", |_, p, i, j| {
            let m = p.plan.m;
            if m < 2 {
                return false;
            }
            let v = p.plan.chunks[i][j].dests[0] as usize;
            Arc::make_mut(&mut p.plan.assignment).partition_of[v] = ((i + 1) % m) as u32;
            true
        }),
        ("D101 transition unsorted", |_, p, i, j| {
            let t = &mut Arc::make_mut(&mut p.dedup.batches[j]).transition[i];
            if t.len() < 2 {
                return false;
            }
            t.swap(0, 1);
            true
        }),
        ("D102 transition vertex misrouted", |_, p, i, j| {
            let m = p.plan.m;
            let b = Arc::make_mut(&mut p.dedup.batches[j]);
            if m < 2 || b.transition[i].is_empty() {
                return false;
            }
            let v = b.transition[i].remove(0);
            let t = &mut b.transition[(i + 1) % m];
            let pos = t.binary_search(&v).unwrap_err();
            t.insert(pos, v);
            true
        }),
        ("D103 vertex in two transition sets", |_, p, i, j| {
            let m = p.plan.m;
            let b = Arc::make_mut(&mut p.dedup.batches[j]);
            let Some(&v) = b.transition[i].first().filter(|_| m > 1) else {
                return false;
            };
            let t = &mut b.transition[(i + 1) % m];
            let pos = t.binary_search(&v).unwrap_err();
            t.insert(pos, v);
            true
        }),
        ("D104 vertex dropped from the union", |_, p, i, j| {
            let t = &mut Arc::make_mut(&mut p.dedup.batches[j]).transition[i];
            if t.is_empty() {
                return false;
            }
            t.remove(0);
            true
        }),
        ("D105 a reused vertex loaded again", |_, p, i, j| {
            let b = Arc::make_mut(&mut p.dedup.batches[j]);
            let Some(&v) = b.transition[i]
                .iter()
                .find(|v| b.new_from_cpu[i].binary_search(v).is_err())
            else {
                return false;
            };
            let fresh = &mut b.new_from_cpu[i];
            let pos = fresh.binary_search(&v).unwrap_err();
            fresh.insert(pos, v);
            true
        }),
        ("D106 reuse count off", |_, p, i, j| {
            Arc::make_mut(&mut p.dedup.batches[j]).reused[i] += 1;
            true
        }),
        ("D107/D108 fetch cell off", |_, p, i, j| {
            let m = p.plan.m;
            Arc::make_mut(&mut p.dedup.batches[j]).fetch[i][(i + 1) % m] += 1;
            true
        }),
        ("D109 plan truncated", |_, p, _, _| {
            p.dedup.batches.pop();
            true
        }),
        ("B201 two rows in one slot", |_, p, i, j| {
            let b = Arc::make_mut(&mut p.bufs[i].batches[j]);
            if b.position.len() < 2 {
                return false;
            }
            b.position[1] = b.position[0];
            true
        }),
        ("B202 a neighbor read misdirected", |_, p, i, j| {
            let b = Arc::make_mut(&mut p.bufs[i].batches[j]);
            let Some(k) = (1..b.nbr_slot.len()).find(|&k| b.nbr_slot[k] != b.nbr_slot[0]) else {
                return false;
            };
            b.nbr_slot[0] = b.nbr_slot[k];
            true
        }),
        ("B203 a reused row moved without a rewrite", |_, p, i, j| {
            let capacity = p.bufs[i].capacity;
            let b = Arc::make_mut(&mut p.bufs[i].batches[j]);
            let incoming: Vec<u32> = b.incoming.iter().map(|&(t, _)| t).collect();
            let Some(t) = (0..b.merged.len()).find(|&t| !incoming.contains(&(t as u32))) else {
                return false;
            };
            let Some(free) = (0..capacity as u32).find(|s| !b.position.contains(s)) else {
                return false;
            };
            let old = b.position[t];
            b.position[t] = free;
            for s in &mut b.nbr_slot {
                if *s == old {
                    *s = free;
                }
            }
            true
        }),
        ("B205 a GPU's buffer plan dropped", |_, p, _, _| {
            p.bufs.pop();
            true
        }),
        ("B204 capacity understated", |_, p, i, _| {
            p.bufs[i].capacity -= 1;
            true
        }),
        ("B205 merged set short", |_, p, i, j| {
            let b = Arc::make_mut(&mut p.bufs[i].batches[j]);
            if b.merged.is_empty() {
                return false;
            }
            b.merged.pop();
            b.position.pop();
            true
        }),
        ("V302 transition set padded", |_, p, i, j| {
            let t = &mut Arc::make_mut(&mut p.dedup.batches[j]).transition[i];
            let Some(&v) = t.first() else {
                return false;
            };
            t.push(v);
            true
        }),
        ("V303 load set padded", |_, p, i, j| {
            let t = &mut Arc::make_mut(&mut p.dedup.batches[j]).new_from_cpu[i];
            let Some(&v) = t.first() else {
                return false;
            };
            t.push(v);
            true
        }),
    ]
}

/// Every mutant, applied after a commit to a piece the commit replaced
/// and to one it shared with the certified plan (through `make_mut`,
/// which copies it: the certificate holds a clone), is refused with
/// exactly `verify_all`'s report.
#[test]
fn every_mutant_after_a_commit_gets_verify_alls_report() {
    let mut applied = vec![(0usize, 0usize); mutants().len()];
    for seed in [11u64, 12, 13, 14] {
        let c = commit(seed, 2 + seed as usize % 2, 6, 4);
        let (old_plan, old_dedup, old_bufs) = &c.old;
        let positions: Vec<(usize, usize)> = (0..c.plan.m)
            .flat_map(|i| (0..c.plan.n).map(move |j| (i, j)))
            .collect();
        let replaced = |&(i, j): &(usize, usize)| {
            !Arc::ptr_eq(&c.plan.chunks[i][j], &old_plan.chunks[i][j])
                && !Arc::ptr_eq(&c.dedup.batches[j], &old_dedup.batches[j])
                && !Arc::ptr_eq(&c.bufs[i].batches[j], &old_bufs[i].batches[j])
        };
        let shared = |&(i, j): &(usize, usize)| {
            Arc::ptr_eq(&c.plan.chunks[i][j], &old_plan.chunks[i][j])
                && Arc::ptr_eq(&c.dedup.batches[j], &old_dedup.batches[j])
                && Arc::ptr_eq(&c.bufs[i].batches[j], &old_bufs[i].batches[j])
        };
        let targets = [
            positions.iter().copied().find(replaced),
            positions.iter().copied().find(shared),
        ];
        for (kind, target) in targets.into_iter().enumerate() {
            let Some((i, j)) = target else {
                continue;
            };
            for (k, (what, mutate)) in mutants().into_iter().enumerate() {
                let mut p = Plan {
                    plan: c.plan.clone(),
                    dedup: c.dedup.clone(),
                    bufs: c.bufs.clone(),
                };
                if !mutate(&c.after, &mut p, i, j) {
                    continue;
                }
                let whole = verify_all(&c.after, &p.plan, &p.dedup, &p.bufs);
                assert!(
                    !whole.is_ok(),
                    "seed {seed} ({i}, {j}): {what} went undetected"
                );
                let checked = c
                    .certificate
                    .check_commit(&c.before, &c.after, &p.plan, &p.dedup, &p.bufs);
                assert!(checked.certificate.is_none());
                assert_eq!(
                    checked.report.render(),
                    whole.render(),
                    "seed {seed} ({i}, {j}): {what}"
                );
                assert_eq!(checked.report.truncated_passes, whole.truncated_passes);
                if kind == 0 {
                    applied[k].0 += 1;
                } else {
                    applied[k].1 += 1;
                }
            }
        }
    }
    for ((what, _), (on_replaced, on_shared)) in mutants().into_iter().zip(applied) {
        assert!(
            on_replaced > 0 && on_shared > 0,
            "{what}: applied to {on_replaced} replaced and {on_shared} shared pieces"
        );
    }
}

/// A patch step that shares what it should have replaced: no piece
/// replaced at all although in-lists moved, a dedup batch after a moved
/// one whose split was not re-derived, a buffer batch kept although the
/// buffer the batch before it leaves moved. Each stale piece is the
/// certified allocation, so only the graph rows and boundaries the check
/// compares itself can expose it; it gets `verify_all`'s report.
#[test]
fn pieces_the_patch_step_wrongly_shared_are_refused() {
    let mut kinds = [0usize; 3];
    for seed in [21u64, 22, 23, 24, 25, 26] {
        let c = commit(seed, 2 + seed as usize % 3, 6, 3);
        let (old_plan, old_dedup, old_bufs) = &c.old;
        let mut stale = Vec::new();
        // Every piece put back as it was.
        stale.push((0, old_plan.clone(), old_dedup.clone(), old_bufs.clone()));
        // A re-derived dedup batch put back as it was.
        if let Some(j) = (1..c.plan.n).find(|&j| {
            c.dedup.batches[j - 1].transition != old_dedup.batches[j - 1].transition
                && c.dedup.batches[j] != old_dedup.batches[j]
        }) {
            let mut d = c.dedup.clone();
            d.batches[j] = Arc::clone(&old_dedup.batches[j]);
            stale.push((1, c.plan.clone(), d, c.bufs.clone()));
        }
        // A re-placed buffer batch put back as it was.
        for (i, (now, then)) in c.bufs.iter().zip(old_bufs).enumerate() {
            if let Some(j) = (1..c.plan.n).find(|&j| {
                now.batches[j - 1].position != then.batches[j - 1].position
                    && now.batches[j] != then.batches[j]
                    && c.plan.chunks[i][j].neighbors == old_plan.chunks[i][j].neighbors
                    && c.dedup.batches[j].transition[i] == old_dedup.batches[j].transition[i]
            }) {
                let mut b = c.bufs.clone();
                b[i].batches[j] = Arc::clone(&then.batches[j]);
                stale.push((2, c.plan.clone(), c.dedup.clone(), b));
            }
        }
        for (kind, plan, dedup, bufs) in stale {
            let whole = verify_all(&c.after, &plan, &dedup, &bufs);
            if whole.is_ok() {
                continue; // the stale piece happens to still be right
            }
            let checked = c
                .certificate
                .check_commit(&c.before, &c.after, &plan, &dedup, &bufs);
            assert_eq!(
                checked.report.render(),
                whole.render(),
                "seed {seed} kind {kind}"
            );
            kinds[kind] += 1;
        }
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "stale pieces exercised: {kinds:?}"
    );
}
