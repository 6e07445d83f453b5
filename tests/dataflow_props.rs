//! Property tests for pass 9 (dataflow conservation, `F8xx`).
//!
//! Two halves of the soundness argument:
//!
//! - **Clean engines certify.** For random datasets × every comm mode ×
//!   phased/overlapped executors × train/infer, the synthesized
//!   schedule's contribution multisets balance against the plan-derived
//!   [`DataflowSpec`] with zero findings — the pass has no false
//!   positives on schedules the engine actually produces.
//! - **The F806 oracle is exact.** The dedup decomposition recorded in a
//!   spec (host / P2P-fetch / reuse rows, per owner) must carry the same
//!   per-owner multiset as the *vanilla comparator* — the raw chunk
//!   neighbor demands recomputed by [`demand_by_owner`] straight from
//!   the partition, bypassing the dedup plan entirely. This is the
//!   equality F806 enforces at aggregation time, proven here for every
//!   random plan rather than one engine's schedule.

use hongtu::core::{CommMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, Session};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::partition::{DedupPlan, GpuBufferPlan, TwoLevelPartition};
use hongtu::tensor::{Matrix, SeededRng};
use hongtu::verify::{demand_by_owner, CommKind, DataflowSpec};
use proptest::prelude::*;

fn random_dataset(seed: u64, n: usize) -> Dataset {
    let rng = SeededRng::new(seed);
    let g = generators::erdos_renyi(n, 4.0, &mut rng.fork(1));
    let graph = with_self_loops(&g);
    let mut frng = rng.fork(2);
    let features = Matrix::from_fn(n, 5, |_, _| frng.normal() * 0.5);
    let mut lrng = rng.fork(3);
    let labels: Vec<u32> = (0..n).map(|_| lrng.index(3) as u32).collect();
    let splits = Splits::random(n, 0.4, 0.2, &mut rng.fork(4));
    Dataset {
        key: DatasetKey::Rdt,
        graph,
        features,
        labels,
        splits,
        num_classes: 3,
        seed,
    }
}

const COMMS: [CommMode; 3] = [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random clean engines certify conserved under every comm mode —
    /// the executor cube is sliced by the sampled bits so each case
    /// stays cheap while the whole run covers it.
    #[test]
    fn clean_schedules_certify_conserved(
        seed in 0u64..1000,
        n in 60usize..200,
        gpus_sel in 0usize..3,
        cfg_bits in 0u32..8,
    ) {
        let ds = random_dataset(seed, n);
        let gpus = [1, 2, 4][gpus_sel];
        let overlap = if cfg_bits & 1 == 0 { OverlapMode::Off } else { OverlapMode::DoubleBuffer };
        let memory = if cfg_bits & 2 == 0 { MemoryStrategy::Hybrid } else { MemoryStrategy::Recompute };
        let mode = if cfg_bits & 4 == 0 { Mode::Train } else { Mode::Infer };
        for comm in COMMS {
            let config = HongTuConfig::builder()
                .gpus(gpus)
                .gpu_mem_mb(512)
                .comm(comm)
                .overlap(overlap)
                .memory(memory)
                .mode(mode)
                .reorganize(comm != CommMode::Vanilla)
                .build()
                .expect("valid config");
            let engine = Session::new(&ds, ModelKind::Gcn, 6, 2, 3, config)
                .expect("engine");
            let report = engine.certify_dataflow().expect("synthesis");
            prop_assert!(
                report.is_ok(),
                "{comm:?} {gpus}g {overlap:?} {memory:?} {mode:?}:\n{}",
                report.render()
            );
        }
    }

    /// The vanilla-vs-dedup comparator equality (the F806 oracle): for
    /// every chunk of every random plan, the dedup'd supply decomposition
    /// carries exactly the per-owner demand multiset that vanilla would —
    /// remote owners served row-for-row by fetch + reuse, the own
    /// partition covered (never undershot) by the transition set.
    #[test]
    fn dedup_spec_matches_vanilla_comparator(
        seed in 0u64..1000,
        n in 200usize..900,
        m in 1usize..5,
        chunks in 1usize..6,
    ) {
        let mut rng = SeededRng::new(seed);
        let g = generators::web_hybrid(n, 5.0, 0.9, 20.0, &mut rng);
        let plan = TwoLevelPartition::build(&g, m, chunks, seed);
        let dedup = DedupPlan::build(&plan);
        let bufs = GpuBufferPlan::build_all(&plan, &dedup);

        let vanilla = DataflowSpec::from_plans(&plan, &dedup, None, CommKind::Vanilla);
        let p2p = DataflowSpec::from_plans(&plan, &dedup, None, CommKind::P2p);
        let p2pru = DataflowSpec::from_plans(&plan, &dedup, Some(&bufs), CommKind::P2pRu);

        for i in 0..m {
            for j in 0..chunks {
                let demand = demand_by_owner(&plan, i, j);
                let total: usize = demand.iter().sum();
                // Vanilla: one mixed host load carries the whole multiset.
                prop_assert_eq!(vanilla.flows[i][j].host_rows, total);

                for (spec, has_reuse) in [(&p2p, false), (&p2pru, true)] {
                    let flow = &spec.flows[i][j];
                    prop_assert_eq!(flow.demand_by_owner.clone(), demand.clone());
                    if !has_reuse {
                        prop_assert_eq!(flow.reuse_rows, 0);
                    }
                    for (k, &owner_demand) in demand.iter().enumerate() {
                        if k == i {
                            continue;
                        }
                        prop_assert_eq!(
                            flow.fetch_rows[k] + flow.reuse_by_owner[k],
                            owner_demand,
                            "gpu {} batch {} owner {}", i, j, k
                        );
                    }
                    prop_assert!(
                        flow.host_rows + flow.reuse_by_owner[i] >= demand[i],
                        "gpu {} batch {}: transition supply {} under own demand {}",
                        i, j, flow.host_rows + flow.reuse_by_owner[i], demand[i]
                    );
                    // Total conservation: what the ledgers will sum at
                    // aggregation time equals the planned supply.
                    let supply: usize =
                        flow.host_rows + flow.reuse_rows + flow.fetch_rows.iter().sum::<usize>();
                    prop_assert!(supply >= total);
                }
            }
        }
    }
}
