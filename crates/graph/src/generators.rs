//! Seeded synthetic graph generators.
//!
//! These stand in for the paper's datasets (reddit, ogbn-products, it-2004,
//! ogbn-papers100M, friendster), which are either too large to ship or
//! require external downloads. Each generator controls the structural
//! property that drives HongTu's communication behaviour:
//!
//! - **degree skew** (R-MAT) → size of the high-degree "duplicated neighbor"
//!   population and hence the replication factor α;
//! - **id-locality** (window graphs) → how much adjacent chunks share
//!   neighbors, which is what intra-GPU reuse exploits;
//! - **community structure** (planted partition) → label signal for the
//!   accuracy experiments (Fig. 8).

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};
use hongtu_tensor::SeededRng;

/// Directed Erdős–Rényi-style graph with `n` vertices and approximately
/// `n * avg_degree` edges drawn uniformly.
pub fn erdos_renyi(n: usize, avg_degree: f64, rng: &mut SeededRng) -> Graph {
    assert!(n > 1, "erdos_renyi: need at least two vertices");
    let m = (n as f64 * avg_degree).round() as usize;
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let s = rng.index(n) as VertexId;
        let t = rng.index(n) as VertexId;
        b.add_edge(s, t);
    }
    b.build()
}

/// Parameters of the recursive-matrix (R-MAT) generator.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// Probability mass of the four quadrants; must sum to ~1.
    pub a: f64,
    /// Top-right quadrant.
    pub b: f64,
    /// Bottom-left quadrant.
    pub c: f64,
    /// Bottom-right quadrant.
    pub d: f64,
}

impl RmatParams {
    /// The classical Graph500 parameterization — strong degree skew,
    /// friendster/social-network-like expansion.
    pub fn social() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }

    /// Milder skew, web-graph-like.
    pub fn web() -> Self {
        RmatParams {
            a: 0.45,
            b: 0.22,
            c: 0.22,
            d: 0.11,
        }
    }
}

/// R-MAT graph over `2^scale` vertices with `edges` directed edges.
///
/// Each of the `scale` levels draws one quadrant and halves both id
/// ranges; halving `[0, 2^scale)` `scale` times is writing the id bit by
/// bit, most significant first, so the quadrant's two bits are shifted in
/// without a branch on the drawn value.
pub fn rmat(scale: u32, edges: usize, params: RmatParams, rng: &mut SeededRng) -> Graph {
    let n = 1usize << scale;
    let sum = params.a + params.b + params.c + params.d;
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "RmatParams must sum to 1 (got {sum})"
    );
    // Cumulative quadrant thresholds, summed in the order the draw is
    // compared against them.
    let (a, ab, abc) = (
        params.a,
        params.a + params.b,
        params.a + params.b + params.c,
    );
    let mut b = GraphBuilder::new(n);
    for _ in 0..edges {
        let (mut s, mut t) = (0 as VertexId, 0 as VertexId);
        for _ in 0..scale {
            let r = rng.uniform() as f64;
            // Quadrants in threshold order: a = (up, left), b = (up, right),
            // c = (down, left), d = (down, right).
            let down = r >= ab;
            let right = (r >= a) & !(down & (r < abc));
            s = (s << 1) | down as VertexId;
            t = (t << 1) | right as VertexId;
        }
        b.add_edge(s, t);
    }
    b.build()
}

/// The body `rmat` replaced — explicit range bisection with a four-way
/// branch per level — kept as the oracle for the bitwise version.
#[cfg(test)]
fn rmat_reference(scale: u32, edges: usize, params: RmatParams, rng: &mut SeededRng) -> Graph {
    let n = 1usize << scale;
    let mut b = GraphBuilder::new(n);
    for _ in 0..edges {
        let (mut lo_s, mut hi_s) = (0usize, n);
        let (mut lo_t, mut hi_t) = (0usize, n);
        while hi_s - lo_s > 1 {
            let r = rng.uniform() as f64;
            let (down, right) = if r < params.a {
                (false, false)
            } else if r < params.a + params.b {
                (false, true)
            } else if r < params.a + params.b + params.c {
                (true, false)
            } else {
                (true, true)
            };
            let mid_s = (lo_s + hi_s) / 2;
            let mid_t = (lo_t + hi_t) / 2;
            if down {
                lo_s = mid_s;
            } else {
                hi_s = mid_s;
            }
            if right {
                lo_t = mid_t;
            } else {
                hi_t = mid_t;
            }
        }
        b.add_edge(lo_s as VertexId, lo_t as VertexId);
    }
    b.build()
}

/// Window graph: every vertex draws `avg_degree` in-neighbors from a
/// Gaussian window of width `window` around its own id (clamped to range).
/// High id-locality — adjacent destination ranges share most neighbors —
/// modeling citation/web graphs laid out by crawl or publication order.
pub fn local_window(n: usize, avg_degree: f64, window: f64, rng: &mut SeededRng) -> Graph {
    assert!(n > 1, "local_window: need at least two vertices");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        let deg = poissonish(avg_degree, rng);
        for _ in 0..deg {
            let offset = rng.normal() * window as f32;
            let u = (v as i64 + offset.round() as i64).clamp(0, n as i64 - 1) as VertexId;
            b.add_edge(u, v as VertexId);
        }
    }
    b.build()
}

/// Hybrid web-like graph: a `locality` fraction of each vertex's in-edges
/// come from a local window, the rest from a skewed (power-law) global
/// distribution. `locality = 1.0` is a pure window graph; `0.0` is pure
/// preferential-style attachment.
pub fn web_hybrid(
    n: usize,
    avg_degree: f64,
    locality: f64,
    window: f64,
    rng: &mut SeededRng,
) -> Graph {
    assert!((0.0..=1.0).contains(&locality), "locality must be in [0,1]");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        let deg = poissonish(avg_degree, rng);
        for _ in 0..deg {
            let u = if rng.chance(locality) {
                let offset = rng.normal() * window as f32;
                (v as i64 + offset.round() as i64).clamp(0, n as i64 - 1) as VertexId
            } else {
                // Zipf-ish hub selection: squaring a uniform biases toward a
                // small popular set; the Fibonacci scramble then spreads the
                // hub identities across the whole id range, as in real web
                // graphs (popular pages are not clustered by crawl order).
                let r = rng.uniform() as f64;
                let raw = ((r * r * n as f64) as u64).min(n as u64 - 1);
                ((raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) % n as u64) as VertexId
            };
            b.add_edge(u, v as VertexId);
        }
    }
    b.build()
}

/// Planted-partition (stochastic block model) graph for accuracy runs: `k`
/// communities of equal size; a `p_in` fraction of each vertex's edges stay
/// inside its community. Returns the graph and the community assignment
/// (the ground-truth labels).
pub fn planted_partition(
    n: usize,
    k: usize,
    avg_degree: f64,
    p_in: f64,
    rng: &mut SeededRng,
) -> (Graph, Vec<u32>) {
    assert!(k >= 1 && n >= k, "planted_partition: need n >= k >= 1");
    let labels: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
    // Group members by community for in-community sampling.
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for (v, &c) in labels.iter().enumerate() {
        members[c as usize].push(v as VertexId);
    }
    let mut b = GraphBuilder::new(n);
    for (v, &label) in labels.iter().enumerate() {
        let c = label as usize;
        let deg = poissonish(avg_degree, rng);
        for _ in 0..deg {
            let u = if rng.chance(p_in) {
                members[c][rng.index(members[c].len())]
            } else {
                rng.index(n) as VertexId
            };
            b.add_undirected(u, v as VertexId);
        }
    }
    (b.build(), labels)
}

/// Small integer sample with mean `mean` (geometric-ish; cheap stand-in for
/// Poisson that preserves the mean and adds degree variance).
fn poissonish(mean: f64, rng: &mut SeededRng) -> usize {
    let base = mean.floor() as usize;
    let frac = mean - base as f64;
    let mut d = base;
    if rng.chance(frac) {
        d += 1;
    }
    // add ±1 jitter half the time to avoid a degenerate degree distribution
    if d > 0 && rng.chance(0.25) {
        d -= 1;
    } else if rng.chance(0.25) {
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SeededRng {
        SeededRng::new(0xC0FFEE)
    }

    #[test]
    fn erdos_renyi_hits_target_density() {
        let g = erdos_renyi(500, 8.0, &mut rng());
        assert_eq!(g.num_vertices(), 500);
        // Dedup and self-loop removal lose a few edges; allow 15% slack.
        let m = g.num_edges() as f64;
        assert!(m > 500.0 * 8.0 * 0.85 && m <= 500.0 * 8.0, "m = {m}");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn generators_are_deterministic() {
        let g1 = erdos_renyi(100, 4.0, &mut rng());
        let g2 = erdos_renyi(100, 4.0, &mut rng());
        assert_eq!(g1.csr.targets, g2.csr.targets);
    }

    #[test]
    fn rmat_produces_skewed_degrees() {
        let g = rmat(10, 8192, RmatParams::social(), &mut rng());
        assert!(g.validate().is_ok());
        let max_deg = (0..g.num_vertices())
            .map(|v| g.out_degree(v as u32))
            .max()
            .unwrap();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            (max_deg as f64) > avg * 10.0,
            "expected heavy skew: max {max_deg} vs avg {avg:.1}"
        );
    }

    proptest::proptest! {
        /// The bitwise `rmat` consumes the RNG stream and emits the edges
        /// of the bisecting body it replaced, for every scale in use.
        #[test]
        fn rmat_equals_the_bisecting_reference(
            scale in 1u32..13,
            edges in 0usize..400,
            seed in 0u64..1_000_000,
            a in 0.0f64..1.0,
            b in 0.0f64..1.0,
            c in 0.0f64..1.0
        ) {
            // Three cuts of [0, 1] → four non-negative masses summing to 1;
            // the two named parameter sets ride along.
            let mut cuts = [a, b, c];
            cuts.sort_by(f64::total_cmp);
            let random = RmatParams {
                a: cuts[0],
                b: cuts[1] - cuts[0],
                c: cuts[2] - cuts[1],
                d: 1.0 - cuts[2],
            };
            for params in [random, RmatParams::social(), RmatParams::web()] {
                let (mut r1, mut r2) = (SeededRng::new(seed), SeededRng::new(seed));
                proptest::prop_assert_eq!(
                    rmat(scale, edges, params, &mut r1),
                    rmat_reference(scale, edges, params, &mut r2)
                );
                proptest::prop_assert_eq!(r1.next_u64(), r2.next_u64());
            }
        }
    }

    #[test]
    fn rmat_social_is_more_skewed_than_web() {
        let gini = |g: &Graph| {
            let mut degs: Vec<usize> = (0..g.num_vertices())
                .map(|v| g.in_degree(v as u32))
                .collect();
            degs.sort_unstable();
            let n = degs.len() as f64;
            let sum: f64 = degs.iter().map(|&d| d as f64).sum();
            let weighted: f64 = degs
                .iter()
                .enumerate()
                .map(|(i, &d)| (i as f64 + 1.0) * d as f64)
                .sum();
            (2.0 * weighted) / (n * sum) - (n + 1.0) / n
        };
        let gs = rmat(11, 20_000, RmatParams::social(), &mut rng());
        let gw = rmat(11, 20_000, RmatParams::web(), &mut rng());
        assert!(
            gini(&gs) > gini(&gw),
            "social {} vs web {}",
            gini(&gs),
            gini(&gw)
        );
    }

    #[test]
    fn local_window_has_local_edges() {
        let g = local_window(1000, 6.0, 20.0, &mut rng());
        assert!(g.validate().is_ok());
        let mut near = 0usize;
        let mut total = 0usize;
        for (s, t) in g.csr.edges() {
            total += 1;
            if (s as i64 - t as i64).abs() <= 80 {
                near += 1;
            }
        }
        assert!(near as f64 > 0.99 * total as f64, "near {near}/{total}");
    }

    #[test]
    fn web_hybrid_locality_knob_works() {
        let frac_local = |locality: f64| {
            let g = web_hybrid(2000, 6.0, locality, 25.0, &mut rng());
            let total = g.num_edges().max(1);
            let near = g
                .csr
                .edges()
                .filter(|&(s, t)| (s as i64 - t as i64).abs() <= 100)
                .count();
            near as f64 / total as f64
        };
        assert!(frac_local(0.9) > frac_local(0.1) + 0.2);
    }

    #[test]
    fn planted_partition_is_assortative() {
        let (g, labels) = planted_partition(600, 3, 8.0, 0.9, &mut rng());
        assert!(g.validate().is_ok());
        assert_eq!(labels.len(), 600);
        let intra = g
            .csr
            .edges()
            .filter(|&(s, t)| labels[s as usize] == labels[t as usize])
            .count();
        let frac = intra as f64 / g.num_edges() as f64;
        assert!(frac > 0.75, "intra-community fraction {frac}");
    }

    #[test]
    fn planted_partition_labels_cover_all_communities() {
        let (_, labels) = planted_partition(30, 5, 3.0, 0.8, &mut rng());
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn poissonish_mean_is_close() {
        let mut r = rng();
        let n = 20_000;
        let total: usize = (0..n).map(|_| poissonish(5.5, &mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 5.5).abs() < 0.2, "mean {mean}");
    }
}
