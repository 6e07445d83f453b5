//! Property tests for cache admission: whatever the load schedule and
//! headroom, an admitted plan must fit every GPU and admit only vertices
//! the schedule actually loads.

use hongtu_cache::{CachePlan, CacheRuntime, DegreeRanked, FrequencyRanked};
use proptest::prelude::*;

const SLOT: usize = 16;

fn sets_from(raw: &[Vec<u32>], m: usize) -> Vec<Vec<Vec<u32>>> {
    // Distribute the generated batches round-robin over `m` GPUs and
    // normalize each to a sorted dedup'd load set.
    let mut sets = vec![Vec::new(); m];
    for (k, s) in raw.iter().enumerate() {
        let mut s = s.clone();
        s.sort_unstable();
        s.dedup();
        sets[k % m].push(s);
    }
    let n = sets.iter().map(Vec::len).max().unwrap_or(0);
    for g in &mut sets {
        g.resize(n, Vec::new());
    }
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn admitted_plan_fits_headroom_on_every_gpu(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u32..200, 0..40), 1..12),
        headroom in proptest::collection::vec(0usize..1024, 4),
        degree_seed in 0u64..1000,
    ) {
        let m = 4usize;
        let sets = sets_from(&raw, m);
        let degrees: Vec<u32> = (0..200u64)
            .map(|v| ((v * 2654435761 + degree_seed) % 97) as u32)
            .collect();
        for policy in [&FrequencyRanked as &dyn hongtu_cache::CachePolicy, &DegreeRanked] {
            let plan = CachePlan::build(&sets, &degrees, &headroom, SLOT, policy);
            for (i, g) in plan.per_gpu.iter().enumerate() {
                // Fits headroom exactly as budgeted.
                prop_assert!(g.bytes <= headroom[i]);
                prop_assert_eq!(g.bytes, g.vertices.len() * SLOT);
                // Sorted, dedup'd, and drawn from the GPU's own schedule.
                prop_assert!(g.vertices.windows(2).all(|w| w[0] < w[1]));
                for &v in &g.vertices {
                    prop_assert!(sets[i].iter().any(|s| s.binary_search(&v).is_ok()));
                }
            }
            // Residency can never exceed the admitted plan.
            let mut rt = CacheRuntime::new(plan.clone(), sets.clone(), 200, None);
            for _ in 0..3 {
                rt.begin_sweep(None);
                rt.end_sweep();
            }
            for (i, g) in plan.per_gpu.iter().enumerate() {
                prop_assert!(rt.resident_rows(i) <= g.vertices.len());
            }
        }
    }
}
