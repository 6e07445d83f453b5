//! `verify-dataflow` — statically certify *value conservation* for a
//! configuration's execution schedule without running it.
//!
//! Usage:
//!   verify-dataflow [--dataset rdt|opt|it|opr|fds|all] [--gpus M] [--chunks N]
//!                   [--seed S] [--model gcn|gat|sage|gin|commnet|ggnn]
//!                   [--hidden H] [--layers L] [--comm vanilla|p2p|p2pru|full]
//!                   [--memory recompute|hybrid] [--overlap off|doublebuffer]
//!                   [--mode train|infer]
//!
//! Where `verify-schedule` proves the synthesized schedule is *safe*
//! (race-free, lifetime-clean), this bin proves it is *correct at the
//! value level*: pass 9 reconstructs per-aggregation contribution
//! multisets from the schedule's provenance annotations and balances
//! them against a `DataflowSpec` derived independently from the
//! partition/dedup/buffer plans — dropped or double-counted aggregation
//! inputs (`F801`/`F802`), clobbered activations (`F803`), early-flushed
//! or orphaned gradients (`F804`/`F805`), and dedup-vs-vanilla multiset
//! divergence (`F806`). Exits 0 if every configuration certifies, 1 if
//! any diagnostic fires (or on bad arguments).

use hongtu_core::cli::{
    parse_comm, parse_datasets, parse_memory, parse_mode, parse_model, parse_overlap, FlagParser,
};
use hongtu_core::{CommMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, Session};
use hongtu_datasets::{load, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_tensor::SeededRng;

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
}

const USAGE: &str = "usage: verify-dataflow [--dataset rdt|opt|it|opr|fds|all] \
                     [--gpus M] [--chunks N] [--seed S] \
                     [--model gcn|gat|sage|gin|commnet|ggnn] [--hidden H] [--layers L] \
                     [--comm vanilla|p2p|p2pru|full] [--memory recompute|hybrid] \
                     [--overlap off|doublebuffer] [--mode train|infer]";

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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };

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

        let session = match Session::new(
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

        let synth = match session.synthesize_schedule() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("  schedule synthesis failed: {e}");
                std::process::exit(1);
            }
        };
        let tagged = synth
            .events()
            .flat_map(|e| e.accesses.iter())
            .filter(|a| a.prov.is_some())
            .count();
        println!(
            "  {} events synthesized, {} provenance-tagged accesses; pass 9 (F8xx)",
            synth.len(),
            tagged
        );

        let report = match session.certify_dataflow() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("  certification failed: {e}");
                std::process::exit(1);
            }
        };
        if report.is_ok() {
            println!("  dataflow certified conserved");
        } else {
            any_bad = true;
            println!("  {} diagnostic(s):", report.diagnostics.len());
            for line in report.render().lines() {
                println!("    {line}");
            }
        }
        println!();
    }
    std::process::exit(if any_bad { 1 } else { 0 });
}
