//! Property-based integration tests over the partition → dedup → reorg
//! pipeline on randomly generated graphs. The static verifier
//! (`hongtu-verify`) is the oracle: every generated or reorganized plan
//! must pass all four passes.

use hongtu::core::{comm_cost, reorganize, reorganize_guarded, CommVolumes, DedupPlan};
use hongtu::graph::generators;
use hongtu::partition::{GpuBufferPlan, TwoLevelPartition};
use hongtu::sim::MachineConfig;
use hongtu::tensor::{Matrix, SeededRng};
use hongtu::verify::verify_all;
use proptest::prelude::*;

fn random_plan(
    seed: u64,
    n_vertices: usize,
    deg: f64,
    m: usize,
    n: usize,
) -> (hongtu::graph::Graph, TwoLevelPartition) {
    let mut rng = SeededRng::new(seed);
    let g = generators::erdos_renyi(n_vertices, deg, &mut rng);
    let plan = TwoLevelPartition::build(&g, m, n, seed);
    (g, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The dedup plan validates and its volumes obey
    /// `V_ori ≥ V_+p2p ≥ V_+ru ≥ 0` for arbitrary graphs and shapes.
    #[test]
    fn dedup_plan_invariants(
        seed in 0u64..1000,
        nv in 60usize..400,
        deg in 2.0f64..8.0,
        m in 1usize..5,
        n in 1usize..5,
    ) {
        let (g, plan) = random_plan(seed, nv, deg, m, n);
        prop_assert!(plan.validate(&g).is_ok());
        let d = DedupPlan::build(&plan);
        prop_assert!(d.validate(&plan).is_ok(), "{:?}", d.validate(&plan));
        // The verifier is the stronger oracle: all four passes, including
        // the buffer slot-interpreter and the volume cross-check.
        let bufs = GpuBufferPlan::build_all(&plan, &d);
        let report = verify_all(&g, &plan, &d, &bufs);
        prop_assert!(report.is_ok(), "{}", report.render());
        // The buffer plans against their own structural check, and
        // against the data: rows moved through the planned slots must
        // equal a direct gather of each chunk's neighbors.
        let h = Matrix::from_fn(nv, 3, |r, c| (r * 3 + c) as f32);
        for bp in &bufs {
            prop_assert!(bp.validate(&plan).is_ok(), "{:?}", bp.validate(&plan));
            for (j, got) in bp.execute(&plan, &h).iter().enumerate() {
                let rows: Vec<usize> = plan.chunks[bp.gpu][j]
                    .neighbors
                    .iter()
                    .map(|&v| v as usize)
                    .collect();
                prop_assert_eq!(got, &h.gather_rows(&rows), "gpu {} batch {}", bp.gpu, j);
            }
        }
        let v = CommVolumes::from_plan(&d);
        prop_assert!(v.v_ori >= v.v_p2p);
        prop_assert!(v.v_p2p >= v.v_ru);
        // Every access is attributed exactly once.
        prop_assert_eq!(v.v_ru + v.inter_gpu() + v.intra_gpu(), v.v_ori);
    }

    /// Reorganization (Algorithm 4) preserves plan validity and total
    /// access volume; the guarded variant never raises the Eq.-4 cost.
    #[test]
    fn reorganization_invariants(
        seed in 0u64..1000,
        nv in 80usize..300,
        m in 2usize..5,
        n in 2usize..6,
    ) {
        let (g, plan) = random_plan(seed, nv, 5.0, m, n);
        let cfg = MachineConfig::a100_4x();
        let v_before = CommVolumes::from_plan(&DedupPlan::build(&plan));
        let cost_before = comm_cost(v_before, &cfg, 64);

        let reorg = reorganize(plan.clone());
        prop_assert!(reorg.validate(&g).is_ok());
        let d_after = DedupPlan::build(&reorg);
        let bufs = GpuBufferPlan::build_all(&reorg, &d_after);
        let report = verify_all(&g, &reorg, &d_after, &bufs);
        prop_assert!(report.is_ok(), "reorganized plan: {}", report.render());
        let v_after = CommVolumes::from_plan(&d_after);
        prop_assert_eq!(v_after.v_ori, v_before.v_ori, "total accesses must be preserved");

        let guarded = reorganize_guarded(plan, &cfg);
        let v_guarded = CommVolumes::from_plan(&DedupPlan::build(&guarded));
        prop_assert!(comm_cost(v_guarded, &cfg, 64) <= cost_before * (1.0 + 1e-9));
    }

    /// The chunk grid partitions both vertices and edges exactly.
    #[test]
    fn chunks_tile_the_graph(
        seed in 0u64..1000,
        nv in 60usize..300,
        m in 1usize..4,
        n in 1usize..5,
    ) {
        let (g, plan) = random_plan(seed, nv, 4.0, m, n);
        let dests: usize = plan.all_chunks().map(|c| c.num_dests()).sum();
        let edges: usize = plan.all_chunks().map(|c| c.num_edges()).sum();
        prop_assert_eq!(dests, g.num_vertices());
        prop_assert_eq!(edges, g.num_edges());
    }
}

/// Deterministic end-to-end check that dedup volumes match a brute-force
/// recount on a concrete graph.
#[test]
fn volumes_match_brute_force() {
    let (_g, plan) = random_plan(123, 200, 5.0, 3, 3);
    let d = DedupPlan::build(&plan);

    // Brute force V_ori.
    let v_ori: usize = plan.all_chunks().map(|c| c.num_neighbors()).sum();
    assert_eq!(d.v_ori(), v_ori);

    // Brute force V_+p2p: per batch, the union of neighbor sets.
    let mut v_p2p = 0;
    for j in 0..plan.n {
        let mut union: Vec<u32> = plan.batch(j).flat_map(|c| c.neighbors.clone()).collect();
        union.sort_unstable();
        union.dedup();
        v_p2p += union.len();
    }
    assert_eq!(d.v_p2p(), v_p2p);
}
