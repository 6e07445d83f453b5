//! Command-line trainer: run HongTu end-to-end on any built-in dataset
//! proxy (or an edge-list file) from the shell.
//!
//! ```text
//! cargo run -p hongtu-bench --bin train -- \
//!     --dataset rdt --model gcn --layers 2 --hidden 32 \
//!     --epochs 50 --chunks 4 --gpus 4 --gpu-mem-mb 256 \
//!     [--comm full|p2p|vanilla] [--memory hybrid|recompute] \
//!     [--no-reorg] [--seed N] [--save model.htgm] [--quiet]
//! ```

use hongtu_core::cli::{
    parse_cache, parse_comm, parse_dataset, parse_exec, parse_memory, parse_model, parse_overlap,
    FlagParser,
};
use hongtu_core::{
    CacheOff, CachePolicy, CommMode, ExecutionMode, HongTuConfig, MemoryStrategy, OverlapMode,
    Session,
};
use hongtu_datasets::{load, DatasetKey};
use hongtu_nn::ModelKind;
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
    memory: MemoryStrategy,
    reorganize: bool,
    seed: u64,
    save: Option<String>,
    quiet: bool,
    exec: ExecutionMode,
    overlap: OverlapMode,
    cache: Arc<dyn CachePolicy>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            dataset: DatasetKey::Rdt,
            model: ModelKind::Gcn,
            layers: 2,
            hidden: 32,
            epochs: 30,
            chunks: 4,
            gpus: 4,
            gpu_mem_mb: 256,
            comm: CommMode::P2pRu,
            memory: MemoryStrategy::Hybrid,
            reorganize: true,
            seed: 42,
            save: None,
            quiet: false,
            exec: ExecutionMode::Sequential,
            overlap: OverlapMode::Off,
            cache: Arc::new(CacheOff),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: train [--dataset rdt|opt|it|opr|fds] [--model gcn|gat|sage|gin|commnet|ggnn]\n\
         \x20            [--layers N] [--hidden N] [--epochs N] [--chunks N] [--gpus N]\n\
         \x20            [--gpu-mem-mb N] [--comm full|p2p|vanilla]\n\
         \x20            [--memory hybrid|recompute] [--no-reorg] [--seed N]\n\
         \x20            [--exec sequential|parallel] [--overlap off|doublebuffer]\n\
         \x20            [--cache off|freq|degree] [--save FILE] [--quiet]"
    );
    std::process::exit(2);
}

fn try_parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut p = FlagParser::from_env();
    while let Some(flag) = p.next_flag() {
        match flag.as_str() {
            "--no-reorg" => args.reorganize = false,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            "--dataset" => args.dataset = p.value_with("--dataset", parse_dataset)?,
            "--model" => args.model = p.value_with("--model", parse_model)?,
            "--comm" => args.comm = p.value_with("--comm", parse_comm)?,
            "--memory" => args.memory = p.value_with("--memory", parse_memory)?,
            "--exec" => args.exec = p.value_with("--exec", parse_exec)?,
            "--overlap" => args.overlap = p.value_with("--overlap", parse_overlap)?,
            "--cache" => args.cache = p.value_with("--cache", parse_cache)?,
            "--save" => args.save = Some(p.value("--save")?),
            "--layers" => args.layers = p.parse_value("--layers")?,
            "--hidden" => args.hidden = p.parse_value("--hidden")?,
            "--epochs" => args.epochs = p.parse_value("--epochs")?,
            "--chunks" => args.chunks = p.parse_value("--chunks")?,
            "--gpus" => args.gpus = p.parse_value("--gpus")?,
            "--gpu-mem-mb" => args.gpu_mem_mb = p.parse_value("--gpu-mem-mb")?,
            "--seed" => args.seed = p.parse_value("--seed")?,
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
        .memory(args.memory)
        .reorganize(args.reorganize)
        .exec(args.exec)
        .overlap(args.overlap)
        .cache(args.cache.clone())
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
            eprintln!("engine construction failed: {e}");
            std::process::exit(1);
        }
    };
    if !args.quiet {
        let v = &session.preprocessing().volumes;
        let plans = session.plans();
        println!(
            "plan: {} x {} chunks | V_ori {:.2}|V| | H2D reduction {:.0}%",
            plans.partition.m,
            plans.partition.n,
            v.v_ori as f64 / dataset.num_vertices() as f64,
            100.0 * v.h2d_reduction()
        );
        if let Some(cache) = plans.cache {
            println!(
                "cache: policy {} | {} resident rows | {:.1} MB",
                args.cache.name(),
                cache.total_rows(),
                cache.per_gpu.iter().map(|g| g.bytes).sum::<usize>() as f64 / (1 << 20) as f64
            );
        }
    }
    let mut trainer = session.trainer();
    for epoch in 1..=args.epochs {
        match trainer.epoch() {
            Ok(r) => {
                if !args.quiet && (epoch % 10 == 0 || epoch == 1 || epoch == args.epochs) {
                    println!(
                        "epoch {epoch:>4}: loss {:.4}  train-acc {:.3}  sim {:.3} ms",
                        r.loss.loss,
                        r.loss.accuracy,
                        r.time * 1e3
                    );
                }
            }
            Err(e) => {
                eprintln!("epoch {epoch} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "final: val {:.3}, test {:.3} | peak GPU {:.1} MB",
        session.accuracy(&dataset.splits.val),
        session.accuracy(&dataset.splits.test),
        session.machine().max_gpu_peak() as f64 / (1 << 20) as f64
    );
    if let Some(rt) = session.cache() {
        println!(
            "cache: {} hits / {} scheduled loads ({:.0}% hit rate)",
            rt.total_hits(),
            rt.total_loads(),
            100.0 * rt.hit_rate()
        );
    }
    if let Some(path) = args.save {
        match hongtu_nn::save_model_file(session.model(), &path) {
            Ok(()) => println!("model saved to {path}"),
            Err(e) => {
                eprintln!("saving model failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
