//! `bench_cache` — the hot-vertex cache CI gate, emitted as
//! machine-readable JSON.
//!
//! For each model × comm mode × GPU count the same multi-epoch training
//! workload runs cache-off and cache-on (frequency policy); the report
//! records per-config H2D bytes, nonzero H2D transfer events, the
//! loss/logits digests, the cache hit rate, and the pass-11 verdict. A
//! clustered serving stream then measures the online hit rate. The
//! process exits 1 if any of the gates fire:
//!
//! - losses or logits diverge bitwise between cache-on and cache-off;
//! - a config whose plan admitted rows does not move strictly fewer
//!   H2D bytes over strictly fewer nonzero transfer events;
//! - the reference 4-GPU P2P+RU config admits nothing (the reduction
//!   gates would be vacuous);
//! - the clustered query stream misses the cache entirely;
//! - pass 11 rejects any cache-on journal.
//!
//! ```text
//! cargo run -p hongtu-bench --bin bench_cache -- [--out FILE] \
//!     [--epochs N] [--dataset rdt|opt|it|opr|fds]
//! ```
//!
//! Default output is `BENCH_cache.json` in the current directory.

use hongtu_bench::harness::{
    comm_name, scaled_machine, BenchCli, Gate, JsonReport, JsonRow, COMM_MODES, GPU_COUNTS, MODELS,
};
use hongtu_core::cli::logits_digest;
use hongtu_core::{CacheOff, CachePolicy, CommMode, FrequencyRanked, HongTuConfig, Session};
use hongtu_datasets::Dataset;
use hongtu_nn::ModelKind;
use hongtu_sim::EventKind;
use hongtu_tensor::SeededRng;
use std::sync::Arc;

struct Run {
    bytes_h2d: u64,
    h2d_events: usize,
    losses: Vec<f32>,
    digest: u64,
    hit_rate: f64,
    resident_rows: usize,
    certified: bool,
}

fn run(
    ds: &Dataset,
    kind: ModelKind,
    comm: CommMode,
    gpus: usize,
    policy: Arc<dyn CachePolicy>,
    epochs: usize,
) -> Run {
    let cfg = HongTuConfig::builder()
        .machine(scaled_machine(gpus))
        .comm(comm)
        .reorganize(comm != CommMode::Vanilla)
        .cache(policy)
        .build()
        .expect("valid config");
    let mut session = Session::new(ds, kind, 32, 2, 4, cfg).expect("session construction");
    session.machine_mut().enable_unbounded_trace();
    let mut trainer = session.trainer();
    let mut bytes_h2d = 0u64;
    let mut losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let r = trainer.epoch().expect("epoch");
        bytes_h2d += r.buckets.bytes_h2d;
        losses.push(r.loss.loss);
    }
    let h2d_events = session
        .machine()
        .trace()
        .events()
        .filter(|e| matches!(e.kind, EventKind::H2D) && e.bytes > 0)
        .count();
    let report = session.certify_cache();
    Run {
        bytes_h2d,
        h2d_events,
        losses,
        digest: logits_digest(session.logits()),
        hit_rate: session.cache().map_or(0.0, |c| c.hit_rate()),
        resident_rows: session
            .cache()
            .map_or(0, |c| (0..gpus).map(|i| c.resident_rows(i)).sum()),
        certified: report.is_ok(),
    }
}

/// Hit rate of a clustered query stream: repeated vertex-subset serves
/// drawn from one chunk's destinations, the access pattern (ego-nets,
/// per-community dashboards) the cache exists for.
fn clustered_serving_hit_rate(ds: &Dataset) -> f64 {
    let cfg = HongTuConfig::builder()
        .machine(scaled_machine(4))
        .comm(CommMode::P2pRu)
        .cache(Arc::new(FrequencyRanked))
        .infer()
        .build()
        .expect("valid config");
    let mut session = Session::new(ds, ModelKind::Gcn, 32, 2, 4, cfg).expect("session");
    let mut pool: Vec<usize> = session
        .plans()
        .partition
        .all_chunks()
        .filter(|c| c.chunk == 0)
        .flat_map(|c| c.dests.iter().map(|&v| v as usize))
        .collect();
    pool.sort_unstable();
    let mut rng = SeededRng::new(7);
    for _ in 0..6 {
        let queries: Vec<usize> = rng
            .sample_indices(pool.len(), 8.min(pool.len()))
            .into_iter()
            .map(|k| pool[k])
            .collect();
        session.serve(&queries).expect("serve");
    }
    session.cache().map_or(0.0, |c| c.hit_rate())
}

fn main() {
    let cli = BenchCli::parse("bench_cache", "BENCH_cache.json", 2);
    assert!(
        cli.epochs >= 2,
        "--epochs must be >= 2: the cache is cold in epoch 1"
    );
    let ds = hongtu_datasets::load(cli.dataset, &mut SeededRng::new(99));

    let mut report = JsonReport::new()
        .str("dataset", cli.dataset.abbrev())
        .int("epochs", cli.epochs as u64);
    let mut gate = Gate::new();
    let mut reference_admitted = false;
    for (kind, model) in MODELS {
        for comm in COMM_MODES {
            for gpus in GPU_COUNTS {
                let off = run(&ds, kind, comm, gpus, Arc::new(CacheOff), cli.epochs);
                let on = run(&ds, kind, comm, gpus, Arc::new(FrequencyRanked), cli.epochs);
                let tag = format!("{model}/{}/{gpus} GPUs", comm_name(comm));
                println!(
                    "{tag}: h2d {} -> {} bytes ({} -> {} events), {} resident rows, \
                     {:.0}% hit rate, {}",
                    off.bytes_h2d,
                    on.bytes_h2d,
                    off.h2d_events,
                    on.h2d_events,
                    on.resident_rows,
                    100.0 * on.hit_rate,
                    if on.certified {
                        "certified"
                    } else {
                        "NOT CERTIFIED"
                    },
                );
                gate.check(
                    on.losses == off.losses,
                    &format!("{tag}: cache-on losses diverged"),
                );
                gate.check(
                    on.digest == off.digest,
                    &format!("{tag}: cache-on logits digest diverged"),
                );
                gate.check(
                    on.certified,
                    &format!("{tag}: pass 11 rejected the journal"),
                );
                if on.resident_rows > 0 {
                    gate.check(
                        on.bytes_h2d < off.bytes_h2d,
                        &format!(
                            "{tag}: cache-on H2D bytes {} not strictly below {}",
                            on.bytes_h2d, off.bytes_h2d
                        ),
                    );
                    gate.check(
                        on.h2d_events < off.h2d_events,
                        &format!(
                            "{tag}: cache-on H2D events {} not strictly below {}",
                            on.h2d_events, off.h2d_events
                        ),
                    );
                }
                if comm == CommMode::P2pRu && gpus == 4 && on.resident_rows > 0 {
                    reference_admitted = true;
                }
                report.sample(
                    JsonRow::new()
                        .str("model", model)
                        .str("comm", comm_name(comm))
                        .int("gpus", gpus as u64)
                        .int("off_h2d_bytes", off.bytes_h2d)
                        .int("on_h2d_bytes", on.bytes_h2d)
                        .int("off_h2d_events", off.h2d_events as u64)
                        .int("on_h2d_events", on.h2d_events as u64)
                        .int("resident_rows", on.resident_rows as u64)
                        .ratio("hit_rate", on.hit_rate)
                        .bool(
                            "bitwise_equal",
                            on.losses == off.losses && on.digest == off.digest,
                        )
                        .bool("pass11_certified", on.certified)
                        .hex("logits_digest", on.digest),
                );
            }
        }
    }
    gate.check(
        reference_admitted,
        "4-GPU p2pru admitted no rows: the reduction gates are vacuous",
    );

    let serving_hit_rate = clustered_serving_hit_rate(&ds);
    println!(
        "clustered serving hit rate: {:.0}%",
        100.0 * serving_hit_rate
    );
    gate.check(
        serving_hit_rate > 0.0,
        "clustered query stream never hit the cache",
    );
    report.sample(
        JsonRow::new()
            .str("model", "gcn")
            .str("comm", "p2pru")
            .int("gpus", 4)
            .str("workload", "clustered-serving")
            .ratio("hit_rate", serving_hit_rate),
    );

    report.write(&cli.out);
    gate.finish();
}
