//! Load generation: everything the program under test is fed after the
//! dataset — query vertex sets, Poisson arrival times, update batches —
//! comes from here, seeded by `--seed`.

use crate::workloads::{Queries, Workload, EDITS_PER_BATCH};
use hongtu_delta::{toggle_workload, DeltaMix, DynamicGraph};
use hongtu_graph::Graph;
use hongtu_serving::{Request, UpdateRequest, WorkItem};
use hongtu_tensor::SeededRng;

/// Stream tags XOR-ed into `--seed`, one per generated input stream, so
/// the streams are independent of each other and of the dataset.
pub const SERVE_STREAM: u64 = 0x7365_7276;
pub const MIXED_STREAM: u64 = 0x6d69_7865;
pub const DELTA_STREAM: u64 = 0x6465_6c74;
pub const PROBE_STREAM: u64 = 0x7072_6f62;

/// The vertices of one query.
pub fn query_vertices(
    graph: &Graph,
    kind: Queries,
    subset: usize,
    rng: &mut SeededRng,
) -> Vec<usize> {
    let n = graph.num_vertices();
    let subset = subset.min(n);
    match kind {
        Queries::Uniform => rng.sample_indices(n, subset),
        Queries::Clustered => {
            let centre = rng.index(n);
            let mut vs = vec![centre];
            for &u in graph.in_neighbors(centre as u32) {
                if vs.len() == subset {
                    break;
                }
                if !vs.contains(&(u as usize)) {
                    vs.push(u as usize);
                }
            }
            // A centre with too few neighbours is padded with the ids
            // that follow it, so every query has `subset` vertices.
            let mut next = centre;
            while vs.len() < subset {
                next = (next + 1) % n;
                if !vs.contains(&next) {
                    vs.push(next);
                }
            }
            vs
        }
    }
}

/// The next exponential inter-arrival gap at `rate` per simulated second.
fn gap(rate: f64, rng: &mut SeededRng) -> f64 {
    -(1.0 - rng.uniform() as f64).ln() / rate
}

/// `count` read-only queries with Poisson arrivals at `rate` on the
/// simulated clock.
pub fn serve_stream(
    graph: &Graph,
    w: &Workload,
    count: usize,
    rate: f64,
    rng: &mut SeededRng,
) -> Vec<Request> {
    let mut t = 0.0f64;
    (0..count)
        .map(|k| {
            t += gap(rate, rng);
            Request {
                id: k as u64,
                vertices: query_vertices(graph, w.queries, w.subset, rng),
                arrival: t,
            }
        })
        .collect()
}

/// `items` work items with Poisson arrivals at `rate`, exactly `updates`
/// of them update requests of `EDITS_PER_BATCH` edits of kind `mix` at
/// seeded queue positions, the rest queries as in [`serve_stream`]. Update batches
/// are generated in FIFO commit order against `dg`, so each is valid
/// when its turn comes.
pub fn mixed_stream(
    dg: &DynamicGraph,
    w: &Workload,
    items: usize,
    updates: usize,
    mix: DeltaMix,
    rate: f64,
    rng: &mut SeededRng,
) -> Vec<WorkItem> {
    let mut is_update = vec![false; items];
    for p in rng.sample_indices(items, updates.min(items)) {
        is_update[p] = true;
    }
    let mut batches = toggle_workload(
        dg.graph(),
        dg.features().cols(),
        updates,
        EDITS_PER_BATCH,
        mix,
        rng,
    )
    .into_iter();
    let mut t = 0.0f64;
    (0..items)
        .map(|k| {
            t += gap(rate, rng);
            if is_update[k] {
                WorkItem::Update(UpdateRequest {
                    id: k as u64,
                    deltas: batches.next().expect("one batch per update position"),
                    arrival: t,
                })
            } else {
                WorkItem::Query(Request {
                    id: k as u64,
                    vertices: query_vertices(dg.graph(), w.queries, w.subset, rng),
                    arrival: t,
                })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use hongtu_graph::generators;

    fn graph() -> Graph {
        generators::planted_partition(400, 4, 6.0, 0.7, &mut SeededRng::new(5)).0
    }

    #[test]
    fn clustered_queries_repeat_per_seed_and_differ_across_seeds() {
        let g = graph();
        let draw = |seed: u64| -> Vec<Vec<usize>> {
            let mut rng = SeededRng::new(seed);
            (0..20)
                .map(|_| query_vertices(&g, Queries::Clustered, 4, &mut rng))
                .collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
    }

    #[test]
    fn clustered_query_is_a_centre_and_its_first_neighbours() {
        let g = graph();
        let mut rng = SeededRng::new(3);
        for _ in 0..50 {
            let q = query_vertices(&g, Queries::Clustered, 4, &mut rng);
            assert_eq!(q.len(), 4);
            let mut uniq = q.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 4, "query vertices are distinct: {q:?}");
            let nbrs = g.in_neighbors(q[0] as u32);
            let from_nbrs = q[1..]
                .iter()
                .filter(|&&v| nbrs.contains(&(v as u32)))
                .count();
            let available = nbrs.iter().filter(|&&u| u as usize != q[0]).count();
            assert_eq!(from_nbrs, available.min(3));
        }
    }

    #[test]
    fn arrivals_increase_and_ids_count_up() {
        let g = graph();
        let w = workloads::by_name("opt_gcn_serve").unwrap();
        let reqs = serve_stream(&g, &w, 100, 50.0, &mut SeededRng::new(9));
        assert_eq!(reqs.len(), 100);
        assert!(reqs.windows(2).all(|p| p[0].arrival < p[1].arrival));
        assert!(reqs.iter().enumerate().all(|(k, r)| r.id == k as u64));
        // Mean gap of a rate-50 Poisson stream is 20 ms.
        let mean_gap = reqs.last().unwrap().arrival / 100.0;
        assert!((0.012..0.030).contains(&mean_gap), "mean gap {mean_gap}");
    }
}
