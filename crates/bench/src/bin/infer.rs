//! Command-line inference runner: full-graph, forward-only serving over
//! a `Mode::Infer` session — layer-wise progression, no checkpoints, no
//! gradients. Emits a logits digest (FNV-1a over the exact f32 bits, so
//! two invocations agree iff the logits are bitwise identical), the
//! simulated epoch time, and the peak memory on both tiers.
//!
//! ```text
//! cargo run -p hongtu-bench --bin infer -- \
//!     --dataset rdt --model gcn --layers 2 --hidden 32 \
//!     --chunks 4 --gpus 4 --gpu-mem-mb 256 \
//!     [--comm full|p2p|vanilla] [--exec sequential|parallel] \
//!     [--overlap off|doublebuffer] [--epochs N] [--no-reorg] [--seed N] \
//!     [--load model.htgm] [--quiet] \
//!     [--serve N] [--qps RATE] [--batch-window N]
//! ```
//!
//! With `--serve N` the bin switches from full-epoch inference to the
//! online serving path: N vertex-subset requests arrive open-loop
//! (Poisson at `--qps`, default auto-calibrated to ~2.5 arrivals per
//! sweep), are FIFO-batched up to `--batch-window` per pruned sweep,
//! and the run reports p50/p99 latency, queries/sec and the reject
//! rate.
//!
//! `--deltas N` interleaves N graph updates (delta batches of kind
//! `--delta-mix edge|feature|mixed`, default mixed) into the serving
//! stream, committed FIFO through the session's incremental cone-local
//! recompute: queries reflect exactly the updates enqueued before
//! them. The run additionally reports committed/rejected update counts
//! and update-latency percentiles.

use hongtu_core::cli::{
    logits_digest, parse_cache, parse_comm, parse_dataset, parse_exec, parse_model, parse_overlap,
    FlagParser,
};
use hongtu_core::{
    CacheOff, CachePolicy, CommMode, ExecutionMode, HongTuConfig, OverlapMode, Session,
};
use hongtu_datasets::{load, DatasetKey};
use hongtu_delta::{toggle_workload, DeltaMix, DynamicGraph};
use hongtu_nn::ModelKind;
use hongtu_serving::{
    poisson_workload, run_mixed_open_loop, run_open_loop, AdmissionControl, LoadStats, Request,
    UpdateRequest, WorkItem,
};
use hongtu_tensor::SeededRng;
use std::sync::Arc;

struct Args {
    dataset: DatasetKey,
    model: ModelKind,
    layers: usize,
    hidden: usize,
    epochs: usize,
    chunks: usize,
    gpus: usize,
    gpu_mem_mb: usize,
    comm: CommMode,
    reorganize: bool,
    seed: u64,
    load: Option<String>,
    quiet: bool,
    exec: ExecutionMode,
    overlap: OverlapMode,
    serve: Option<usize>,
    qps: f64,
    batch_window: usize,
    deltas: usize,
    delta_mix: DeltaMix,
    cache: Arc<dyn CachePolicy>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            dataset: DatasetKey::Rdt,
            model: ModelKind::Gcn,
            layers: 2,
            hidden: 32,
            epochs: 1,
            chunks: 4,
            gpus: 4,
            gpu_mem_mb: 256,
            comm: CommMode::P2pRu,
            reorganize: true,
            seed: 42,
            load: None,
            quiet: false,
            exec: ExecutionMode::Sequential,
            overlap: OverlapMode::Off,
            serve: None,
            qps: 0.0,
            batch_window: 4,
            deltas: 0,
            delta_mix: DeltaMix::Mixed,
            cache: Arc::new(CacheOff),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: infer [--dataset rdt|opt|it|opr|fds] [--model gcn|gat|sage|gin|commnet|ggnn]\n\
         \x20            [--layers N] [--hidden N] [--epochs N] [--chunks N] [--gpus N]\n\
         \x20            [--gpu-mem-mb N] [--comm full|p2p|vanilla]\n\
         \x20            [--exec sequential|parallel] [--overlap off|doublebuffer]\n\
         \x20            [--no-reorg] [--seed N] [--load FILE] [--quiet]\n\
         \x20            [--cache off|freq|degree]\n\
         \x20            [--serve N] [--qps RATE] [--batch-window N]\n\
         \x20            [--deltas N] [--delta-mix edge|feature|mixed]"
    );
    std::process::exit(2);
}

fn try_parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = FlagParser::from_env();
    while let Some(flag) = it.next_flag() {
        match flag.as_str() {
            "--no-reorg" => args.reorganize = false,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            "--dataset" => args.dataset = it.value_with("--dataset", parse_dataset)?,
            "--model" => args.model = it.value_with("--model", parse_model)?,
            "--comm" => args.comm = it.value_with("--comm", parse_comm)?,
            "--exec" => args.exec = it.value_with("--exec", parse_exec)?,
            "--overlap" => args.overlap = it.value_with("--overlap", parse_overlap)?,
            "--cache" => args.cache = it.value_with("--cache", parse_cache)?,
            "--load" => args.load = Some(it.value("--load")?),
            "--layers" => args.layers = it.parse_value("--layers")?,
            "--hidden" => args.hidden = it.parse_value("--hidden")?,
            "--epochs" => args.epochs = it.parse_value("--epochs")?,
            "--chunks" => args.chunks = it.parse_value("--chunks")?,
            "--gpus" => args.gpus = it.parse_value("--gpus")?,
            "--gpu-mem-mb" => args.gpu_mem_mb = it.parse_value("--gpu-mem-mb")?,
            "--seed" => args.seed = it.parse_value("--seed")?,
            "--serve" => args.serve = Some(it.parse_value("--serve")?),
            "--qps" => args.qps = it.parse_value("--qps")?,
            "--batch-window" => args.batch_window = it.parse_value("--batch-window")?,
            "--deltas" => args.deltas = it.parse_value("--deltas")?,
            "--delta-mix" => {
                args.delta_mix = it.value_with("--delta-mix", |s| {
                    DeltaMix::parse(s).ok_or_else(|| format!("bad --delta-mix {s:?}"))
                })?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn parse_args() -> Args {
    try_parse_args().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        usage()
    })
}

/// What the run's sweeps executed of what full sweeps would have, in
/// `(layer, batch)` steps and in destination rows.
fn swept(stats: &LoadStats) -> String {
    let pct = |(active, total): (usize, usize)| 100.0 * active as f64 / total.max(1) as f64;
    format!(
        "swept {}/{} steps ({:.1}%), {}/{} rows ({:.2}%)",
        stats.steps.0,
        stats.steps.1,
        pct(stats.steps),
        stats.rows.0,
        stats.rows.1,
        pct(stats.rows),
    )
}

fn main() {
    let args = parse_args();
    let dataset = load(args.dataset, &mut SeededRng::new(args.seed));
    if !args.quiet {
        println!(
            "dataset {} ({}): {} vertices, {} edges, {} classes",
            args.dataset.abbrev(),
            args.dataset.real_name(),
            dataset.num_vertices(),
            dataset.num_edges(),
            dataset.num_classes
        );
    }
    let config = match HongTuConfig::builder()
        .gpus(args.gpus)
        .gpu_mem_mb(args.gpu_mem_mb)
        .comm(args.comm)
        .reorganize(args.reorganize)
        .exec(args.exec)
        .overlap(args.overlap)
        .cache(args.cache.clone())
        .infer()
        .build()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let mut session = match Session::new(
        &dataset,
        args.model,
        args.hidden,
        args.layers,
        args.chunks,
        config,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("session construction failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.load {
        match hongtu_nn::load_model_file(path) {
            Ok(model) => session.set_model(model),
            Err(e) => {
                eprintln!("loading model failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.deltas > 0 {
        let n = dataset.num_vertices();
        let subset = 8.min(n);
        let queries = args.serve.unwrap_or(0);
        let total = queries + args.deltas;
        let mut rng = SeededRng::new(args.seed ^ 0x7372_7665);
        let mut dg = DynamicGraph::from_dataset(&dataset);
        // Updates patch the host layer stores in place, so they must be
        // current before the first commit: one full priming sweep
        // (whose simulated time also calibrates the arrival rate).
        let prime = match session.infer_epoch() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("priming sweep failed: {e}");
                std::process::exit(1);
            }
        };
        let qps = if args.qps > 0.0 {
            args.qps
        } else {
            2.5 / prime.time.max(1e-12)
        };
        // Exactly `--deltas` updates at uniformly sampled queue
        // positions; toggle batches are generated — and therefore
        // valid — in FIFO commit order.
        let mut is_update = vec![false; total];
        for p in rng.sample_indices(total, args.deltas) {
            is_update[p] = true;
        }
        let mut batches = toggle_workload(
            dg.graph(),
            dg.features().cols(),
            args.deltas,
            2,
            args.delta_mix,
            &mut rng,
        )
        .into_iter();
        let mut t = 0.0f64;
        let workload: Vec<WorkItem> = (0..total)
            .map(|k| {
                t += -(1.0 - rng.uniform() as f64).ln() / qps;
                if is_update[k] {
                    WorkItem::Update(UpdateRequest {
                        id: k as u64,
                        deltas: batches.next().expect("one batch per update"),
                        arrival: t,
                    })
                } else {
                    WorkItem::Query(Request {
                        id: k as u64,
                        vertices: rng.sample_indices(n, subset),
                        arrival: t,
                    })
                }
            })
            .collect();
        let admission = AdmissionControl::from_session(&session);
        let stats = match run_mixed_open_loop(
            &mut session,
            &mut dg,
            admission,
            args.batch_window,
            workload,
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mixed serving failed: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "served {}/{queries} queries, committed {}/{} updates (rejected {} / {}) \
             | query p50 {:.3} ms p99 {:.3} ms | update p50 {:.3} ms p99 {:.3} ms \
             | graph epoch {} | {}",
            stats.served,
            stats.updates_committed,
            args.deltas,
            stats.rejected,
            stats.updates_rejected,
            stats.p50_latency * 1e3,
            stats.p99_latency * 1e3,
            stats.p50_update_latency * 1e3,
            stats.p99_update_latency * 1e3,
            dg.epoch(),
            swept(&stats),
        );
        return;
    }
    if let Some(requests) = args.serve {
        let n = dataset.num_vertices();
        let subset = 8.min(n);
        let mut rng = SeededRng::new(args.seed ^ 0x7372_7665);
        let qps = if args.qps > 0.0 {
            args.qps
        } else {
            // Auto-calibrate to ~2.5 arrivals per sweep so batches form.
            let probe = match session.serve(&rng.sample_indices(n, subset)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("probe serve failed: {e}");
                    std::process::exit(1);
                }
            };
            2.5 / probe.time.max(1e-12)
        };
        let workload = poisson_workload(n, requests, qps, subset, &mut rng);
        let admission = AdmissionControl::from_session(&session);
        let stats = match run_open_loop(&mut session, admission, args.batch_window, workload) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serving failed: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "served {} / rejected {} ({:.1}% reject) | p50 {:.3} ms | p99 {:.3} ms \
             | {:.1} q/s | batches {:?} | {}",
            stats.served,
            stats.rejected,
            100.0 * stats.reject_rate,
            stats.p50_latency * 1e3,
            stats.p99_latency * 1e3,
            stats.queries_per_sec,
            stats.batch_hist,
            swept(&stats),
        );
        return;
    }
    let mut last = None;
    for epoch in 1..=args.epochs.max(1) {
        match session.infer_epoch() {
            Ok(r) => {
                if !args.quiet {
                    println!(
                        "epoch {epoch:>3}: logits {:016x}  sim {:.3} ms",
                        logits_digest(&r.logits),
                        r.time * 1e3
                    );
                }
                last = Some(r);
            }
            Err(e) => {
                eprintln!("inference epoch {epoch} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let r = last.expect("at least one epoch runs");
    println!(
        "logits digest {:016x} | sim {:.3} ms | peak GPU {:.1} MB | peak host {:.1} MB",
        logits_digest(&r.logits),
        r.time * 1e3,
        r.peak_gpu_bytes as f64 / (1 << 20) as f64,
        r.peak_host_bytes as f64 / (1 << 20) as f64
    );
    if let Some(rt) = session.cache() {
        println!(
            "cache: {} hits / {} scheduled loads ({:.0}% hit rate)",
            rt.total_hits(),
            rt.total_loads(),
            100.0 * rt.hit_rate()
        );
    }
}
