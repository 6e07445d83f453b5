//! `verify-trace` — run the happens-before schedule checker against a
//! recorded execution trace of the HongTu engine and print the report.
//!
//! Usage:
//!   verify-trace [--dataset rdt|opt|it|opr|fds|all] [--gpus M] [--chunks N]
//!                [--seed S] [--model gcn|gat|sage|gin|commnet|ggnn]
//!                [--hidden H] [--layers L] [--comm vanilla|p2p|p2pru|full]
//!                [--memory recompute|hybrid] [--epochs E] [--determinism]
//!                [--exec sequential|parallel] [--overlap off|doublebuffer]
//!                [--mode train|infer]
//!
//! Builds the engine exactly as training would (or a forward-only
//! inference session under `--mode infer`), records one (or more)
//! epochs into an unbounded event trace, and runs the vector-clock
//! happens-before analysis over it: data races on shared buffers,
//! reads of unpopulated or stale checkpoint slots, and batch barrier
//! coverage (`R4xx`/`S5xx` codes). With `--determinism`, a second
//! identical engine is traced and the two schedules are compared modulo
//! commutable reorderings (`S502`). Exits 0 if every trace is clean,
//! 1 if any diagnostic fires (or on bad arguments).

use hongtu_core::cli::{
    parse_comm, parse_datasets, parse_exec, parse_memory, parse_mode, parse_model, parse_overlap,
    FlagParser,
};
use hongtu_core::{
    CommMode, ExecutionMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, Session,
};
use hongtu_datasets::load;
use hongtu_datasets::DatasetKey;
use hongtu_nn::ModelKind;
use hongtu_sim::{MachineConfig, Trace};
use hongtu_tensor::SeededRng;
use hongtu_verify::{verify_determinism, verify_trace};

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
    epochs: usize,
    determinism: bool,
    exec: ExecutionMode,
    overlap: OverlapMode,
    mode: Mode,
}

const USAGE: &str = "usage: verify-trace [--dataset rdt|opt|it|opr|fds|all] \
                     [--gpus M] [--chunks N] [--seed S] \
                     [--model gcn|gat|sage|gin|commnet|ggnn] [--hidden H] [--layers L] \
                     [--comm vanilla|p2p|p2pru|full] [--memory recompute|hybrid] \
                     [--epochs E] [--determinism] [--exec sequential|parallel] \
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
        epochs: 1,
        determinism: false,
        exec: ExecutionMode::Sequential,
        overlap: OverlapMode::Off,
        mode: Mode::Train,
    };
    let mut p = FlagParser::new(argv.to_vec());
    while let Some(flag) = p.next_flag() {
        match flag.as_str() {
            "--dataset" => args.datasets = p.value_with("--dataset", parse_datasets)?,
            "--gpus" => args.gpus = p.parse_value("--gpus")?,
            "--chunks" => args.chunks = p.parse_value("--chunks")?,
            "--seed" => args.seed = p.parse_value("--seed")?,
            "--model" => args.model = p.value_with("--model", parse_model)?,
            "--hidden" => args.hidden = p.parse_value("--hidden")?,
            "--layers" => args.layers = p.parse_value("--layers")?,
            "--comm" => args.comm = p.value_with("--comm", parse_comm)?,
            "--memory" => args.memory = p.value_with("--memory", parse_memory)?,
            "--epochs" => args.epochs = p.parse_value("--epochs")?,
            "--determinism" => args.determinism = true,
            "--exec" => args.exec = p.value_with("--exec", parse_exec)?,
            "--overlap" => args.overlap = p.value_with("--overlap", parse_overlap)?,
            "--mode" => args.mode = p.value_with("--mode", parse_mode)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.gpus == 0 || args.chunks == 0 || args.layers == 0 || args.epochs == 0 {
        return Err("--gpus, --chunks, --layers and --epochs must be at least 1".to_string());
    }
    Ok(args)
}

/// Runs `epochs` epochs (training or forward-only inference, per
/// `--mode`) under an unbounded trace and returns it.
fn traced_epochs(
    args: &Args,
    ds: &hongtu_datasets::Dataset,
    config: HongTuConfig,
) -> Result<Trace, String> {
    let mut session = Session::new(
        ds,
        args.model,
        args.hidden,
        args.layers,
        args.chunks,
        config,
    )
    .map_err(|e| format!("engine construction failed: {e}"))?;
    session.machine_mut().enable_unbounded_trace();
    match args.mode {
        Mode::Train => {
            let mut trainer = session.trainer();
            for _ in 0..args.epochs {
                trainer
                    .epoch()
                    .map_err(|e| format!("training failed: {e}"))?;
            }
        }
        Mode::Infer => {
            for _ in 0..args.epochs {
                session
                    .infer_epoch()
                    .map_err(|e| format!("inference failed: {e}"))?;
            }
        }
    }
    Ok(session.machine().trace().clone())
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

    // One validated config for every dataset and run; the builder surfaces
    // `ConfigError` (e.g. contradictory machine/overlap combinations)
    // instead of panicking inside engine construction.
    let config = match HongTuConfig::builder()
        .machine(MachineConfig::scaled(args.gpus, 1 << 30))
        .comm(args.comm)
        .memory(args.memory)
        .reorganize(args.comm != CommMode::Vanilla)
        .exec(args.exec)
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
            "{} ({}): |V| = {}, |E| = {}, {} {}x{} on {} GPUs x {} chunks, {:?}/{:?}/{:?}/{:?}/{:?}, {} epoch(s)",
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
            args.exec,
            args.overlap,
            args.mode,
            args.epochs,
        );

        let trace = match traced_epochs(&args, &ds, config.clone()) {
            Ok(t) => t,
            Err(msg) => {
                eprintln!("  {msg}");
                std::process::exit(1);
            }
        };
        let report = verify_trace(&trace);
        if report.is_ok() {
            println!("  {} events: schedule certified clean", trace.len());
        } else {
            any_bad = true;
            println!(
                "  {} events, {} diagnostic(s):",
                trace.len(),
                report.diagnostics.len()
            );
            for line in report.render().lines() {
                println!("    {line}");
            }
        }

        if args.determinism {
            // Under the parallel executor, the reference run is the
            // *sequential* schedule: equivalence then certifies that the
            // worker-thread execution is a mere commutable reordering of
            // the reference, i.e. race-free by construction.
            let mut reference = config.clone();
            if args.exec == ExecutionMode::Parallel {
                reference.exec = ExecutionMode::Sequential;
            }
            let second = match traced_epochs(&args, &ds, reference) {
                Ok(t) => t,
                Err(msg) => {
                    eprintln!("  {msg}");
                    std::process::exit(1);
                }
            };
            let report = verify_determinism(&trace, &second);
            if report.is_ok() {
                if args.exec == ExecutionMode::Parallel {
                    println!(
                        "  determinism: parallel schedule equivalent to the sequential reference"
                    );
                } else {
                    println!("  determinism: second run produced an equivalent schedule");
                }
            } else {
                any_bad = true;
                println!("  determinism: {} diagnostic(s):", report.diagnostics.len());
                for line in report.render().lines() {
                    println!("    {line}");
                }
            }
        }
        println!();
    }
    std::process::exit(if any_bad { 1 } else { 0 });
}
