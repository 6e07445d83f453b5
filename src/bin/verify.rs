//! `verify` — build a session exactly as training (or, under `--mode
//! infer`, inference) would, and certify one aspect of it.
//!
//! Usage:
//!   verify <plan|trace|schedule|dataflow> [--dataset rdt|opt|it|opr|fds|all]
//!          [--gpus M] [--chunks N] [--seed S] [--model gcn|gat|sage|gin|commnet|ggnn]
//!          [--hidden H] [--layers L] [--comm vanilla|p2p|p2pru|full]
//!          [--memory recompute|hybrid] [--overlap off|doublebuffer] [--mode train|infer]
//!          trace only:    [--epochs E] [--determinism] [--exec sequential|parallel]
//!          schedule only: [--measure]
//!
//! Passes:
//! - `plan`: the static plan passes 1–4 (partition, dedup, buffers,
//!   volumes, `P`/`D`/`B`/`V` codes) over the plans the session runs.
//! - `trace`: records `--epochs` epochs into an unbounded event trace
//!   and runs the vector-clock happens-before analysis over it (data
//!   races, unpopulated or stale checkpoint reads, batch barrier
//!   coverage: `R4xx`/`S501`). `--determinism` traces a second session,
//!   sequential under `--exec parallel`, and requires the two traces to
//!   be event-for-event equal, timestamps included; it prints the index
//!   of the first event that differs.
//! - `schedule`: synthesizes the epoch schedule without running it and
//!   runs passes 6–7 over it (happens-before `R4xx`, lifetimes `L6xx`).
//!   Prints the static peak-memory bound per device; `--measure` then
//!   runs one real epoch and checks the measured peaks against it.
//! - `dataflow`: pass 9 balances the synthesized schedule's
//!   per-aggregation contribution multisets against the spec derived
//!   from the plans (`F801`–`F806`).
//!
//! Exits 0 if every dataset certifies, 1 if a diagnostic fires or the
//! session cannot be built or run (an unfillable grid is `P005`), 2 on a
//! usage error.

use hongtu_core::cli::{
    parse_comm, parse_datasets, parse_exec, parse_memory, parse_mode, parse_model, parse_overlap,
    FlagParser,
};
use hongtu_core::{
    CommMode, ExecutionMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, Session,
};
use hongtu_datasets::{load, Dataset, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_sim::Trace;
use hongtu_tensor::SeededRng;
use hongtu_verify::{verify_all, verify_schedule, verify_trace, Report};

const USAGE: &str = "usage: verify <plan|trace|schedule|dataflow> \
                     [--dataset rdt|opt|it|opr|fds|all] [--gpus M] [--chunks N] [--seed S] \
                     [--model gcn|gat|sage|gin|commnet|ggnn] [--hidden H] [--layers L] \
                     [--comm vanilla|p2p|p2pru|full] [--memory recompute|hybrid] \
                     [--overlap off|doublebuffer] [--mode train|infer] \
                     [trace: --epochs E --determinism --exec sequential|parallel] \
                     [schedule: --measure]";

enum Pass {
    Plan,
    Trace,
    Schedule,
    Dataflow,
}

struct Args {
    pass: Pass,
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
    epochs: usize,
    determinism: bool,
    exec: ExecutionMode,
    measure: bool,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut p = FlagParser::new(argv);
    let name = p.next_flag().ok_or("missing pass")?;
    let pass = match name.as_str() {
        "plan" => Pass::Plan,
        "trace" => Pass::Trace,
        "schedule" => Pass::Schedule,
        "dataflow" => Pass::Dataflow,
        "--help" | "-h" => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        other => return Err(format!("unknown pass {other:?}")),
    };
    let mut args = Args {
        pass,
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
        epochs: 1,
        determinism: false,
        exec: ExecutionMode::Sequential,
        measure: false,
    };
    while let Some(flag) = p.next_flag() {
        let owner = match flag.as_str() {
            "--epochs" | "--determinism" | "--exec" => Some("trace"),
            "--measure" => Some("schedule"),
            _ => None,
        };
        if let Some(owner) = owner.filter(|&o| o != name) {
            return Err(format!("{flag} applies to `verify {owner}` only"));
        }
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
            "--overlap" => args.overlap = p.value_with("--overlap", parse_overlap)?,
            "--mode" => args.mode = p.value_with("--mode", parse_mode)?,
            "--epochs" => args.epochs = p.parse_value("--epochs")?,
            "--determinism" => args.determinism = true,
            "--exec" => args.exec = p.value_with("--exec", parse_exec)?,
            "--measure" => args.measure = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.gpus == 0 || args.chunks == 0 || args.layers == 0 || args.epochs == 0 {
        return Err("--gpus, --chunks, --layers and --epochs must be at least 1".to_string());
    }
    Ok(args)
}

/// Prints `report` under `what`, indented; returns whether it is clean.
fn print_report(what: &str, report: &Report) -> bool {
    if report.is_ok() {
        println!("  {what}: certified clean");
    } else {
        println!("  {what}: {} diagnostic(s):", report.diagnostics.len());
        for line in report.render().lines() {
            println!("    {line}");
        }
    }
    report.is_ok()
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn build_session(args: &Args, ds: &Dataset, config: HongTuConfig) -> Result<Session, String> {
    Session::new(
        ds,
        args.model,
        args.hidden,
        args.layers,
        args.chunks,
        config,
    )
    .map_err(|e| format!("engine construction failed: {e}"))
}

/// Runs `epochs` epochs of the session's mode: training, or
/// forward-only inference.
fn run_epochs(session: &mut Session, epochs: usize) -> Result<(), String> {
    for _ in 0..epochs {
        match session.config().mode {
            Mode::Train => session.trainer().epoch().map(|_| ()),
            Mode::Infer => session.infer_epoch().map(|_| ()),
        }
        .map_err(|e| format!("epoch failed: {e}"))?;
    }
    Ok(())
}

/// [`run_epochs`] under an unbounded trace; returns the trace.
fn traced_epochs(session: &mut Session, epochs: usize) -> Result<Trace, String> {
    session.machine_mut().enable_unbounded_trace();
    run_epochs(session, epochs)?;
    Ok(session.machine().trace().clone())
}

fn plan(ds: &Dataset, session: &Session) -> Result<bool, String> {
    let p = session.plans();
    let report = verify_all(&ds.graph, p.partition, p.dedup, p.buffers.unwrap_or(&[]));
    Ok(print_report(
        "passes 1-4 (partition, dedup, buffers, volumes)",
        &report,
    ))
}

fn trace(args: &Args, ds: &Dataset, mut session: Session) -> Result<bool, String> {
    let trace = traced_epochs(&mut session, args.epochs)?;
    let mut clean = print_report(
        &format!("{} events, happens-before", trace.len()),
        &verify_trace(&trace),
    );
    if args.determinism {
        // Under the parallel executor the reference run is the
        // *sequential* schedule: lanes join in GPU index order, so the
        // worker-thread execution must record the very same events.
        let mut reference = session.config().clone();
        reference.exec = ExecutionMode::Sequential;
        let mut second = build_session(args, ds, reference)?;
        let what = match args.exec {
            ExecutionMode::Parallel => "determinism against the sequential reference",
            ExecutionMode::Sequential => "determinism against a second run",
        };
        let second = traced_epochs(&mut second, args.epochs)?;
        let differs = trace
            .events()
            .zip(second.events())
            .position(|(a, b)| a != b)
            .or((trace.len() != second.len()).then(|| trace.len().min(second.len())));
        match differs {
            None => println!("  {what}: {} events identical", trace.len()),
            Some(i) => println!(
                "  {what}: traces differ at event {i} ({} vs {} events)",
                trace.len(),
                second.len()
            ),
        }
        clean &= differs.is_none();
    }
    Ok(clean)
}

fn schedule(args: &Args, mut session: Session) -> Result<bool, String> {
    let synth = session
        .synthesize_schedule()
        .map_err(|e| format!("schedule synthesis failed: {e}"))?;
    let mut clean = print_report(
        &format!("{} events synthesized, passes 6-7", synth.len()),
        &verify_schedule(&synth),
    );

    let bound = session.static_memory_bound();
    for (i, b) in bound.gpu.iter().enumerate() {
        println!("  static bound gpu{i}: {:.2} MiB", mib(*b));
    }
    println!("  static bound host: {:.2} MiB", mib(bound.host));
    if args.measure {
        run_epochs(&mut session, 1).map_err(|e| format!("measured {e}"))?;
        let machine = session.machine();
        let gpus = (0..args.gpus).map(|i| (format!("gpu{i}"), machine.gpu_memory(i).peak()));
        let host = ("host".to_string(), machine.host_memory().peak());
        let bounds = bound.gpu.iter().chain([&bound.host]);
        for ((device, peak), &bound) in gpus.chain([host]).zip(bounds) {
            let ok = peak <= bound;
            clean &= ok;
            println!(
                "  measured {device} peak: {:.2} MiB {}",
                mib(peak),
                if ok { "<= bound" } else { "EXCEEDS BOUND" }
            );
        }
    }
    Ok(clean)
}

fn dataflow(session: &Session) -> Result<bool, String> {
    let synth = session
        .synthesize_schedule()
        .map_err(|e| format!("schedule synthesis failed: {e}"))?;
    let tagged = synth
        .events()
        .flat_map(|e| e.accesses.iter())
        .filter(|a| a.prov.is_some())
        .count();
    let report = session
        .certify_dataflow()
        .map_err(|e| format!("certification failed: {e}"))?;
    Ok(print_report(
        &format!(
            "{} events synthesized, {tagged} provenance-tagged accesses, pass 9",
            synth.len()
        ),
        &report,
    ))
}

fn main() {
    let args = parse_args(std::env::args().skip(1).collect()).unwrap_or_else(|msg| {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2)
    });
    let fail = |msg: String| -> ! {
        eprintln!("  {msg}");
        std::process::exit(1)
    };
    let config = HongTuConfig::builder()
        .gpus(args.gpus)
        .gpu_mem_mb(1024)
        .comm(args.comm)
        .memory(args.memory)
        .reorganize(args.comm != CommMode::Vanilla)
        .exec(args.exec)
        .overlap(args.overlap)
        .mode(args.mode)
        .build()
        .unwrap_or_else(|e| fail(format!("invalid configuration: {e}")));

    let mut clean = true;
    for key in &args.datasets {
        let ds = load(*key, &mut SeededRng::new(args.seed));
        println!(
            "{} ({}): |V| = {}, |E| = {}, {} {}x{} on {} GPUs x {} chunks, \
             {:?}/{:?}/{:?}/{:?}/{:?}, seed {}",
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
            args.seed,
        );
        let session = build_session(&args, &ds, config.clone()).unwrap_or_else(|msg| fail(msg));
        clean &= match args.pass {
            Pass::Plan => plan(&ds, &session),
            Pass::Trace => trace(&args, &ds, session),
            Pass::Schedule => schedule(&args, session),
            Pass::Dataflow => dataflow(&session),
        }
        .unwrap_or_else(|msg| fail(msg));
        println!();
    }
    std::process::exit(if clean { 0 } else { 1 });
}
