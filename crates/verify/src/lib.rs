//! Static verification of HongTu execution plans.
//!
//! The engine executes three precomputed artifacts — the 2-level
//! partition (§4.1), the dedup communication plan (§5.1–5.2), and the
//! in-place buffer index plan (§6) — with **no runtime checks**: a wrong
//! slot index or a mis-routed transition vertex silently corrupts
//! training data rather than crashing. This crate is the borrow checker
//! for those artifacts: it statically analyzes a
//! `(TwoLevelPartition, DedupPlan, Vec<GpuBufferPlan>)` triple and
//! returns typed diagnostics (code + GPU/batch/vertex location +
//! message) instead of panicking.
//!
//! Four passes, upstream to downstream:
//!
//! 1. [`verify_partition`] — chunks tile `V` disjointly, every in-edge is
//!    present, local CSC structure is sound (codes `P001`–`P005`);
//! 2. [`verify_dedup`] — transition sets are sorted, owner-routed,
//!    pairwise disjoint, and tile the batch neighbor union; CPU-load
//!    splits, reuse counts, and the fetch matrix are exact
//!    (`D101`–`D109`);
//! 3. [`verify_buffers`] — symbolic replay of the slot plan: no
//!    aliasing, no reads of never-written slots, no use-after-free, no
//!    capacity overrun (`B201`–`B205`);
//! 4. [`verify_volumes`] — `V_ori`/`V_+p2p`/`V_+ru` recomputed
//!    independently and cross-checked (`V301`–`V303`).
//!
//! A fifth, *dynamic* pass family certifies executed schedules rather
//! than plans: [`verify_trace`] runs a vector-clock happens-before
//! analysis over a recorded simulator trace (races, write-before-read,
//! stale generations, batch barrier coverage — `R400`–`R405`, `S501`).
//!
//! Passes 6–7 close the loop back to *static*: the engine's symbolic
//! schedule synthesizer replays the executor's own step functions with
//! a no-compute backend and hands the resulting event DAG to
//! [`verify_schedule`], which re-runs the happens-before analysis over
//! the synthesized schedule (pass 6) and checks resource lifetimes —
//! staging-slot install/consume discipline and checkpoint
//! store-before-reload, `L601`–`L604` (pass 7, [`verify_lifetimes`]).
//! Pass 8, an exhaustive interleaving explorer, is retired: it branched
//! only on conflicting pairs pass 6 already reports as races, so on a
//! schedule pass 6 certified it could find nothing.
//!
//! Pass 9 ([`verify_dataflow`]) certifies *value* conservation on top of
//! schedule safety: contribution multisets reconstructed from the
//! trace's provenance annotations are balanced against a
//! [`DataflowSpec`] derived independently from the plans — dropped or
//! double-counted aggregation inputs, clobbered activations,
//! early-flushed or orphaned gradients, and dedup-vs-vanilla multiset
//! divergence (`F801`–`F806`).
//!
//! Pass 11 ([`verify_cache`]) certifies the hot-vertex feature cache:
//! the engine's cache journal (sweep hit tables, installs, delta
//! invalidations) is replayed against load sets recomputed independently
//! from the plans — headroom overflow, phantom hits (hit-before-install),
//! stale rows after a delta commit, and unplanned installs
//! (`H1001`–`H1004`). Pass 10 ([`verify_cone`], [`verify_cone_rows`]) sits
//! between them in the numbering: cone closure for pruned sweeps, on the
//! step grid and row for row (`C901`/`C902`).
//!
//! See `DESIGN.md` ("Checked invariants", "Happens-before invariants",
//! "Static vs dynamic certification", and "F8xx dataflow conservation")
//! for the full code catalogue.

#![forbid(unsafe_code)]

pub mod buffers;
pub mod cache;
pub mod cone;
pub mod dataflow;
pub mod dedup;
mod dense;
pub mod diag;
pub mod lifetime;
pub mod partition;
pub mod trace;
pub mod volumes;

pub use buffers::{verify_all_buffers, verify_buffers};
pub use cache::verify_cache;
pub use cone::{verify_cone, verify_cone_rows, ConeDir};
pub use dataflow::{
    demand_by_owner, verify_dataflow, verify_dataflow_layers, ChunkFlow, CommKind, DataflowSpec,
};
pub use dedup::verify_dedup;
pub use diag::{DiagCode, Diagnostic, Location, Report, ValidationLevel};
pub use lifetime::{verify_lifetimes, verify_schedule};
pub use partition::verify_partition;
pub use trace::verify_trace;
pub use volumes::{expected_volumes, verify_volumes};

use hongtu_graph::Graph;
use hongtu_partition::{DedupPlan, GpuBufferPlan, TwoLevelPartition};

/// Runs all four passes against a complete plan triple.
pub fn verify_all(
    g: &Graph,
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufplans: &[GpuBufferPlan],
) -> Report {
    let mut report = Report::default();
    report.extend_pass(verify_partition(g, plan));
    report.extend_pass(verify_dedup(plan, dedup));
    report.extend_pass(verify_all_buffers(plan, dedup, bufplans));
    report.extend_pass(verify_volumes(plan, dedup));
    report
}

/// Runs the graph-free passes (dedup, buffers, volumes) — what the
/// engine's `Paranoid` level re-checks per epoch, when the source graph
/// is no longer at hand.
pub fn verify_runtime(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufplans: &[GpuBufferPlan],
) -> Report {
    let mut report = Report::default();
    report.extend_pass(verify_dedup(plan, dedup));
    report.extend_pass(verify_all_buffers(plan, dedup, bufplans));
    report.extend_pass(verify_volumes(plan, dedup));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_graph::generators;
    use hongtu_tensor::SeededRng;

    fn triple(
        n_vertices: usize,
        m: usize,
        n: usize,
        seed: u64,
    ) -> (Graph, TwoLevelPartition, DedupPlan, Vec<GpuBufferPlan>) {
        let mut rng = SeededRng::new(seed);
        let g = generators::web_hybrid(n_vertices, 6.0, 0.9, 30.0, &mut rng);
        let plan = TwoLevelPartition::build(&g, m, n, seed);
        let dedup = DedupPlan::build(&plan);
        let bufs = GpuBufferPlan::build_all(&plan, &dedup);
        (g, plan, dedup, bufs)
    }

    #[test]
    fn well_formed_plans_verify_clean() {
        for (seed, m, n) in [(1u64, 2, 3), (2, 4, 4), (3, 1, 5), (4, 3, 1)] {
            let (g, plan, dedup, bufs) = triple(900, m, n, seed);
            let report = verify_all(&g, &plan, &dedup, &bufs);
            assert!(
                report.is_ok(),
                "seed {seed} m {m} n {n}:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn runtime_subset_is_clean_too() {
        let (_, plan, dedup, bufs) = triple(700, 3, 3, 9);
        assert!(verify_runtime(&plan, &dedup, &bufs).is_ok());
    }

    #[test]
    fn reorganized_plans_also_verify() {
        // The reorg pass permutes chunks; rebuilt downstream plans must
        // still satisfy every invariant.
        let mut rng = SeededRng::new(11);
        let g = generators::rmat(10, 8000, generators::RmatParams::social(), &mut rng);
        let plan = TwoLevelPartition::build(&g, 4, 6, 1);
        // Simulate a batch permutation like reorganization performs.
        let mut grid = plan.chunks.clone();
        for row in &mut grid {
            row.reverse();
        }
        let plan = plan.with_chunks(grid);
        let dedup = DedupPlan::build(&plan);
        let bufs = GpuBufferPlan::build_all(&plan, &dedup);
        let report = verify_all(&g, &plan, &dedup, &bufs);
        assert!(report.is_ok(), "{}", report.render());
    }

    /// The dense passes at IT scale (120 k vertices, 1.5 M edges, 4 × 8
    /// chunks): a planner-built triple raises nothing, and the one-walk
    /// volume recount agrees with sorting each batch union and splitting
    /// it by owner.
    #[test]
    fn it_scale_plan_verifies_clean() {
        use hongtu_datasets::dataset::DatasetKey;
        let ds = hongtu_datasets::load(DatasetKey::It, &mut SeededRng::new(42));
        let plan = TwoLevelPartition::build(&ds.graph, 4, 8, 42);
        let dedup = DedupPlan::build(&plan);
        let bufs = GpuBufferPlan::build_all(&plan, &dedup);
        let report = verify_all(&ds.graph, &plan, &dedup, &bufs);
        assert!(report.is_ok(), "{}", report.render());

        let owner = &plan.assignment.partition_of;
        let (mut v_p2p, mut v_ru) = (0usize, 0usize);
        let mut prev_split: Vec<Vec<u32>> = vec![Vec::new(); plan.m];
        for j in 0..plan.n {
            let mut union: Vec<u32> = plan.batch(j).flat_map(|c| c.neighbors.clone()).collect();
            union.sort_unstable();
            union.dedup();
            v_p2p += union.len();
            let mut split: Vec<Vec<u32>> = vec![Vec::new(); plan.m];
            for v in union {
                split[owner[v as usize] as usize].push(v);
            }
            for (now, before) in split.iter().zip(&prev_split) {
                v_ru += now
                    .iter()
                    .filter(|v| before.binary_search(v).is_err())
                    .count();
            }
            prev_split = split;
        }
        assert_eq!(
            expected_volumes(&plan),
            volumes::ExpectedVolumes {
                v_ori: plan.v_ori(),
                v_p2p,
                v_ru
            }
        );
    }
}
