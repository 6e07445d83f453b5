//! `bench_parallel` — wall-clock comparison of the sequential and
//! parallel epoch executors, emitted as machine-readable JSON for CI.
//!
//! For each simulated-GPU count (1, 2, 4) the same engine configuration
//! is trained with both executors; the report records real (host)
//! per-epoch wall time, the speedup, and whether the training losses were
//! bitwise identical — the executor contract this repo certifies.
//!
//! ```text
//! cargo run -p hongtu-bench --bin bench_parallel -- [--out FILE] \
//!     [--epochs N] [--dataset rdt|opt|it|opr|fds]
//! ```
//!
//! Default output is `BENCH_parallel.json` in the current directory.
//! Worker-pool size follows `HONGTU_THREADS`; on a single-core runner the
//! speedup hovers around 1.0x (the numbers are honest wall-clock, not
//! simulated time), so no threshold is enforced here — CI archives the
//! artifact and the multi-core job demonstrates the scaling.

use hongtu_core::{ExecutionMode, HongTuConfig, Session};
use hongtu_datasets::{load, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_sim::MachineConfig;
use hongtu_tensor::SeededRng;
use std::time::Instant;

struct Sample {
    gpus: usize,
    seq_epoch_s: f64,
    par_epoch_s: f64,
    losses_bitwise_equal: bool,
}

fn run_epochs(
    ds: &hongtu_datasets::Dataset,
    gpus: usize,
    exec: ExecutionMode,
    epochs: usize,
) -> (f64, Vec<f32>) {
    let mut cfg = HongTuConfig::full(MachineConfig::scaled(gpus, 512 << 20));
    cfg.exec = exec;
    let mut session =
        Session::new(ds, ModelKind::Gcn, 32, 2, 4, cfg).expect("session construction");
    let mut trainer = session.trainer();
    // Warm-up epoch: first-touch allocation and pool spin-up.
    trainer.epoch().expect("warm-up epoch");
    let mut losses = Vec::with_capacity(epochs);
    let t0 = Instant::now();
    for _ in 0..epochs {
        losses.push(trainer.epoch().expect("epoch").loss.loss);
    }
    (t0.elapsed().as_secs_f64() / epochs as f64, losses)
}

fn main() {
    let mut out = String::from("BENCH_parallel.json");
    let mut epochs = 3usize;
    let mut dataset = DatasetKey::Rdt;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!(
                "usage: bench_parallel [--out FILE] [--epochs N] [--dataset rdt|opt|it|opr|fds]"
            );
            std::process::exit(2);
        };
        match flag.as_str() {
            "--out" => out = value,
            "--epochs" => epochs = value.parse().expect("--epochs: positive integer"),
            "--dataset" => {
                dataset = match value.to_lowercase().as_str() {
                    "rdt" => DatasetKey::Rdt,
                    "opt" => DatasetKey::Opt,
                    "it" => DatasetKey::It,
                    "opr" => DatasetKey::Opr,
                    "fds" => DatasetKey::Fds,
                    other => {
                        eprintln!("unknown dataset {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let ds = load(dataset, &mut SeededRng::new(99));
    let threads = hongtu_parallel::global().num_threads();
    let mut samples = Vec::new();
    for gpus in [1usize, 2, 4] {
        let (seq_s, seq_losses) = run_epochs(&ds, gpus, ExecutionMode::Sequential, epochs);
        let (par_s, par_losses) = run_epochs(&ds, gpus, ExecutionMode::Parallel, epochs);
        let equal = seq_losses == par_losses;
        println!(
            "{gpus} GPUs: sequential {:.1} ms/epoch, parallel {:.1} ms/epoch ({:.2}x), losses {}",
            seq_s * 1e3,
            par_s * 1e3,
            seq_s / par_s,
            if equal { "bitwise equal" } else { "DIVERGED" },
        );
        samples.push(Sample {
            gpus,
            seq_epoch_s: seq_s,
            par_epoch_s: par_s,
            losses_bitwise_equal: equal,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"dataset\": \"{}\",\n", dataset.abbrev()));
    json.push_str(&format!("  \"epochs\": {epochs},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"gpus\": {}, \"seq_epoch_s\": {:.6}, \"par_epoch_s\": {:.6}, \
             \"speedup\": {:.3}, \"losses_bitwise_equal\": {}}}{}\n",
            s.gpus,
            s.seq_epoch_s,
            s.par_epoch_s,
            s.seq_epoch_s / s.par_epoch_s,
            s.losses_bitwise_equal,
            if i + 1 < samples.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("writing report");
    println!("wrote {out}");

    if samples.iter().any(|s| !s.losses_bitwise_equal) {
        eprintln!("FAIL: parallel losses diverged from sequential");
        std::process::exit(1);
    }
}
