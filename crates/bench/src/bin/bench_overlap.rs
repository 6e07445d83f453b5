//! `bench_overlap` — simulated-time and peak-memory comparison of the
//! additive (`Off`) and double-buffered (`DoubleBuffer`) schedules,
//! emitted as machine-readable JSON for CI.
//!
//! For each model × comm mode × GPU count the same engine configuration
//! is trained under both overlap modes; the report records *simulated*
//! per-epoch seconds, peak GPU memory, the overlap speedup, and whether
//! the training losses were bitwise identical — the overlap contract
//! this repo certifies. The process exits 1 if any losses diverge, or if
//! double buffering is not strictly faster on a multi-GPU dedup
//! (P2P / P2P+RU) configuration.
//!
//! ```text
//! cargo run -p hongtu-bench --bin bench_overlap -- [--out FILE] \
//!     [--epochs N] [--dataset rdt|opt|it|opr|fds]
//! ```
//!
//! Default output is `BENCH_overlap.json` in the current directory.

use hongtu_bench::harness::{
    comm_name, scaled_machine, BenchCli, Gate, JsonReport, JsonRow, COMM_MODES, GPU_COUNTS, MODELS,
};
use hongtu_core::{CommMode, HongTuConfig, OverlapMode, Session};
use hongtu_nn::ModelKind;
use hongtu_tensor::SeededRng;

struct Sample {
    model: &'static str,
    comm: &'static str,
    gpus: usize,
    off_epoch_s: f64,
    db_epoch_s: f64,
    off_peak_bytes: usize,
    db_peak_bytes: usize,
    losses_bitwise_equal: bool,
    /// Whether this configuration must show a strict overlap win.
    must_overlap: bool,
}

fn run_epochs(
    ds: &hongtu_datasets::Dataset,
    kind: ModelKind,
    comm: CommMode,
    gpus: usize,
    overlap: OverlapMode,
    epochs: usize,
) -> (f64, usize, Vec<f32>) {
    let mut cfg = HongTuConfig::full(scaled_machine(gpus));
    cfg.comm = comm;
    cfg.reorganize = comm != CommMode::Vanilla;
    cfg.overlap = overlap;
    let mut session = Session::new(ds, kind, 32, 2, 4, cfg).expect("session construction");
    let mut trainer = session.trainer();
    let mut losses = Vec::with_capacity(epochs);
    let mut sim_s = 0.0;
    for _ in 0..epochs {
        let r = trainer.epoch().expect("epoch");
        sim_s += r.time;
        losses.push(r.loss.loss);
    }
    (
        sim_s / epochs as f64,
        session.machine().max_gpu_peak(),
        losses,
    )
}

fn main() {
    let cli = BenchCli::parse("bench_overlap", "BENCH_overlap.json", 2);
    let ds = hongtu_datasets::load(cli.dataset, &mut SeededRng::new(99));
    let mut samples = Vec::new();
    for (kind, model) in MODELS {
        for comm in COMM_MODES {
            for gpus in GPU_COUNTS {
                let (off_s, off_peak, off_losses) =
                    run_epochs(&ds, kind, comm, gpus, OverlapMode::Off, cli.epochs);
                let (db_s, db_peak, db_losses) =
                    run_epochs(&ds, kind, comm, gpus, OverlapMode::DoubleBuffer, cli.epochs);
                let equal = off_losses == db_losses;
                println!(
                    "{model}/{}/{gpus} GPUs: off {:.3} ms, doublebuffer {:.3} ms ({:.2}x), \
                     peak {:.1} -> {:.1} MB, losses {}",
                    comm_name(comm),
                    off_s * 1e3,
                    db_s * 1e3,
                    off_s / db_s,
                    off_peak as f64 / (1 << 20) as f64,
                    db_peak as f64 / (1 << 20) as f64,
                    if equal { "bitwise equal" } else { "DIVERGED" },
                );
                samples.push(Sample {
                    model,
                    comm: comm_name(comm),
                    gpus,
                    off_epoch_s: off_s,
                    db_epoch_s: db_s,
                    off_peak_bytes: off_peak,
                    db_peak_bytes: db_peak,
                    losses_bitwise_equal: equal,
                    must_overlap: gpus > 1 && comm != CommMode::Vanilla,
                });
            }
        }
    }

    let mut report = JsonReport::new()
        .str("dataset", cli.dataset.abbrev())
        .int("epochs", cli.epochs as u64);
    for s in &samples {
        report.sample(
            JsonRow::new()
                .str("model", s.model)
                .str("comm", s.comm)
                .int("gpus", s.gpus as u64)
                .f64("off_sim_epoch_s", s.off_epoch_s)
                .f64("doublebuffer_sim_epoch_s", s.db_epoch_s)
                .ratio("overlap_speedup", s.off_epoch_s / s.db_epoch_s)
                .int("off_peak_bytes", s.off_peak_bytes as u64)
                .int("doublebuffer_peak_bytes", s.db_peak_bytes as u64)
                .bool("losses_bitwise_equal", s.losses_bitwise_equal),
        );
    }
    report.write(&cli.out);

    let mut gate = Gate::new();
    for s in &samples {
        gate.check(
            s.losses_bitwise_equal,
            &format!(
                "{}/{}/{} GPUs: double-buffered losses diverged",
                s.model, s.comm, s.gpus
            ),
        );
        if s.must_overlap {
            gate.check(
                s.db_epoch_s < s.off_epoch_s,
                &format!(
                    "{}/{}/{} GPUs: doublebuffer {} s not strictly below off {} s",
                    s.model, s.comm, s.gpus, s.db_epoch_s, s.off_epoch_s
                ),
            );
        }
    }
    gate.finish();
}
