//! `verify-schedule` — statically certify a configuration's execution
//! schedule without running it.
//!
//! Usage:
//!   verify-schedule [--dataset rdt|opt|it|opr|fds|all] [--gpus M] [--chunks N]
//!                   [--seed S] [--model gcn|gat|sage|gin|commnet|ggnn]
//!                   [--hidden H] [--layers L] [--comm vanilla|p2p|p2pru|full]
//!                   [--memory recompute|hybrid] [--overlap off|doublebuffer]
//!                   [--mode train|infer] [--budget B] [--measure]
//!
//! Builds the engine exactly as training would, then *synthesizes* the
//! epoch schedule symbolically — the executor's own step functions
//! replayed against a no-compute backend — and runs the static
//! certification passes over it: the vector-clock happens-before
//! analysis (pass 6, `R4xx`), resource lifetime analysis (pass 7,
//! `L6xx`), and — when the config is small enough for it to be
//! exhaustive, or when `--budget` forces it — exploration of every
//! barrier-respecting interleaving (pass 8, `X7xx`). Also prints the
//! plan-level static peak-memory bound per device; with `--measure`, one
//! real epoch is then executed and the measured peaks are checked
//! against the bound. Exits 0 if every configuration certifies, 1 if
//! any diagnostic fires (or on bad arguments).

use hongtu_core::cli::{
    parse_comm, parse_datasets, parse_memory, parse_mode, parse_model, parse_overlap, FlagParser,
};
use hongtu_core::{CommMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, Session};
use hongtu_datasets::{load, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_tensor::SeededRng;
use hongtu_verify::DEFAULT_EXPLORE_BUDGET;

struct Args {
    datasets: Vec<DatasetKey>,
    gpus: usize,
    chunks: usize,
    seed: u64,
    model: ModelKind,
    hidden: usize,
    layers: usize,
    comm: CommMode,
    memory: MemoryStrategy,
    overlap: OverlapMode,
    mode: Mode,
    budget: Option<usize>,
    measure: bool,
}

const USAGE: &str = "usage: verify-schedule [--dataset rdt|opt|it|opr|fds|all] \
                     [--gpus M] [--chunks N] [--seed S] \
                     [--model gcn|gat|sage|gin|commnet|ggnn] [--hidden H] [--layers L] \
                     [--comm vanilla|p2p|p2pru|full] [--memory recompute|hybrid] \
                     [--overlap off|doublebuffer] [--mode train|infer] \
                     [--budget B] [--measure]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        datasets: vec![DatasetKey::Rdt],
        gpus: 4,
        chunks: 4,
        seed: 42,
        model: ModelKind::Gcn,
        hidden: 16,
        layers: 2,
        comm: CommMode::P2pRu,
        memory: MemoryStrategy::Hybrid,
        overlap: OverlapMode::Off,
        mode: Mode::Train,
        budget: None,
        measure: false,
    };
    let mut it = FlagParser::new(argv.to_vec());
    while let Some(flag) = it.next_flag() {
        match flag.as_str() {
            "--dataset" => args.datasets = it.value_with("--dataset", parse_datasets)?,
            "--gpus" => args.gpus = it.parse_value("--gpus")?,
            "--chunks" => args.chunks = it.parse_value("--chunks")?,
            "--seed" => args.seed = it.parse_value("--seed")?,
            "--model" => args.model = it.value_with("--model", parse_model)?,
            "--hidden" => args.hidden = it.parse_value("--hidden")?,
            "--layers" => args.layers = it.parse_value("--layers")?,
            "--comm" => args.comm = it.value_with("--comm", parse_comm)?,
            "--memory" => args.memory = it.value_with("--memory", parse_memory)?,
            "--overlap" => args.overlap = it.value_with("--overlap", parse_overlap)?,
            "--mode" => args.mode = it.value_with("--mode", parse_mode)?,
            "--budget" => args.budget = Some(it.parse_value("--budget")?),
            "--measure" => args.measure = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.gpus == 0 || args.chunks == 0 || args.layers == 0 {
        return Err("--gpus, --chunks and --layers must be at least 1".to_string());
    }
    Ok(args)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };

    // One config for every dataset, built through the validating builder.
    let config = match HongTuConfig::builder()
        .gpus(args.gpus)
        .gpu_mem_mb(1024)
        .comm(args.comm)
        .memory(args.memory)
        .reorganize(args.comm != CommMode::Vanilla)
        .overlap(args.overlap)
        .mode(args.mode)
        .build()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            std::process::exit(1);
        }
    };

    let mut any_bad = false;
    for key in &args.datasets {
        let mut rng = SeededRng::new(args.seed);
        let ds = load(*key, &mut rng);
        println!(
            "{} ({}): |V| = {}, |E| = {}, {} {}x{} on {} GPUs x {} chunks, {:?}/{:?}/{:?}/{:?}",
            key.abbrev(),
            key.real_name(),
            ds.num_vertices(),
            ds.num_edges(),
            args.model.name(),
            args.hidden,
            args.layers,
            args.gpus,
            args.chunks,
            args.comm,
            args.memory,
            args.overlap,
            args.mode,
        );

        let mut session = match Session::new(
            &ds,
            args.model,
            args.hidden,
            args.layers,
            args.chunks,
            config.clone(),
        ) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("  engine construction failed: {e}");
                std::process::exit(1);
            }
        };

        let explore = args.budget.or_else(|| {
            session
                .exhaustive_exploration_feasible()
                .then_some(DEFAULT_EXPLORE_BUDGET)
        });
        let synth = match session.synthesize_schedule() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("  schedule synthesis failed: {e}");
                std::process::exit(1);
            }
        };
        let report = hongtu_verify::verify_schedule(&synth, explore);
        match explore {
            Some(b) => println!(
                "  {} events synthesized; passes 6-8 (interleaving budget {b})",
                synth.len()
            ),
            None => println!(
                "  {} events synthesized; passes 6-7 (config too large for \
                 exhaustive interleavings; force with --budget)",
                synth.len()
            ),
        }
        if report.is_ok() {
            println!("  schedule certified clean");
        } else {
            any_bad = true;
            println!("  {} diagnostic(s):", report.diagnostics.len());
            for line in report.render().lines() {
                println!("    {line}");
            }
        }

        let bound = session.static_memory_bound();
        for (i, b) in bound.gpu.iter().enumerate() {
            println!("  static bound gpu{i}: {:.2} MiB", mib(*b));
        }
        println!("  static bound host: {:.2} MiB", mib(bound.host));

        if args.measure {
            let run = match args.mode {
                Mode::Train => session
                    .trainer()
                    .epoch()
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
                Mode::Infer => session.infer_epoch().map(|_| ()).map_err(|e| e.to_string()),
            };
            if let Err(msg) = run {
                eprintln!("  measured epoch failed: {msg}");
                std::process::exit(1);
            }
            for i in 0..args.gpus {
                let peak = session.machine().gpu_memory(i).peak();
                let ok = peak <= bound.gpu[i];
                any_bad |= !ok;
                println!(
                    "  measured gpu{i} peak: {:.2} MiB {}",
                    mib(peak),
                    if ok { "<= bound" } else { "EXCEEDS BOUND" }
                );
            }
            let host_peak = session.machine().host_memory().peak();
            let ok = host_peak <= bound.host;
            any_bad |= !ok;
            println!(
                "  measured host peak: {:.2} MiB {}",
                mib(host_peak),
                if ok { "<= bound" } else { "EXCEEDS BOUND" }
            );
        }
        println!();
    }
    std::process::exit(if any_bad { 1 } else { 0 });
}
