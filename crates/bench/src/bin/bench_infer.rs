//! `bench_infer` — simulated-time and peak-memory comparison of the
//! forward-only inference executor against a full training epoch (whose
//! forward half it must reproduce bit for bit), emitted as
//! machine-readable JSON for CI.
//!
//! For each model × overlap mode × GPU count the same plan is driven by
//! both executors; the report records *simulated* per-epoch seconds,
//! peak GPU/host memory for both, the infer/train time fraction, and
//! the inference logits digest. The process exits 1 if inference is not
//! strictly faster than the training epoch or not strictly smaller on
//! both memory tiers, or if the inference digest diverges across
//! overlap modes.
//!
//! ```text
//! cargo run -p hongtu-bench --bin bench_infer -- [--out FILE] \
//!     [--dataset rdt|opt|it|opr|fds]
//! ```
//!
//! Default output is `BENCH_infer.json` in the current directory.

use hongtu_bench::harness::{
    scaled_machine, BenchCli, Gate, JsonReport, JsonRow, GPU_COUNTS, MODELS,
};
use hongtu_core::cli::logits_digest;
use hongtu_core::{CommMode, HongTuConfig, Mode, OverlapMode, Session};
use hongtu_tensor::SeededRng;

struct Sample {
    model: &'static str,
    overlap: &'static str,
    gpus: usize,
    train_epoch_s: f64,
    infer_epoch_s: f64,
    train_peak_gpu: usize,
    infer_peak_gpu: usize,
    train_peak_host: usize,
    infer_peak_host: usize,
    digest: u64,
}

fn config(gpus: usize, overlap: OverlapMode, mode: Mode) -> HongTuConfig {
    HongTuConfig::builder()
        .machine(scaled_machine(gpus))
        .comm(CommMode::P2pRu)
        .overlap(overlap)
        .mode(mode)
        .build()
        .expect("valid config")
}

fn main() {
    let cli = BenchCli::parse("bench_infer", "BENCH_infer.json", 1);
    let ds = hongtu_datasets::load(cli.dataset, &mut SeededRng::new(99));
    let mut samples = Vec::new();
    for (kind, model) in MODELS {
        for (overlap, overlap_name) in [
            (OverlapMode::Off, "off"),
            (OverlapMode::DoubleBuffer, "doublebuffer"),
        ] {
            for gpus in GPU_COUNTS {
                let mut trained =
                    Session::new(&ds, kind, 32, 2, 4, config(gpus, overlap, Mode::Train))
                        .expect("session construction");
                let train = trained.trainer().epoch().expect("train epoch");
                let mut session =
                    Session::new(&ds, kind, 32, 2, 4, config(gpus, overlap, Mode::Infer))
                        .expect("session construction");
                let infer = session.infer_epoch().expect("infer epoch");
                println!(
                    "{model}/{overlap_name}/{gpus} GPUs: train {:.3} ms, infer {:.3} ms \
                     ({:.0}% of epoch), peak GPU {:.1} -> {:.1} MB, digest {:016x}",
                    train.time * 1e3,
                    infer.time * 1e3,
                    100.0 * infer.time / train.time,
                    trained.machine().max_gpu_peak() as f64 / (1 << 20) as f64,
                    infer.peak_gpu_bytes as f64 / (1 << 20) as f64,
                    logits_digest(&infer.logits),
                );
                samples.push(Sample {
                    model,
                    overlap: overlap_name,
                    gpus,
                    train_epoch_s: train.time,
                    infer_epoch_s: infer.time,
                    train_peak_gpu: trained.machine().max_gpu_peak(),
                    infer_peak_gpu: infer.peak_gpu_bytes,
                    train_peak_host: trained.machine().host_memory().peak(),
                    infer_peak_host: infer.peak_host_bytes,
                    digest: logits_digest(&infer.logits),
                });
            }
        }
    }

    let mut report = JsonReport::new().str("dataset", cli.dataset.abbrev());
    for s in &samples {
        report.sample(
            JsonRow::new()
                .str("model", s.model)
                .str("overlap", s.overlap)
                .int("gpus", s.gpus as u64)
                .f64("train_sim_epoch_s", s.train_epoch_s)
                .f64("infer_sim_epoch_s", s.infer_epoch_s)
                .ratio("infer_fraction", s.infer_epoch_s / s.train_epoch_s)
                .int("train_peak_gpu_bytes", s.train_peak_gpu as u64)
                .int("infer_peak_gpu_bytes", s.infer_peak_gpu as u64)
                .int("train_peak_host_bytes", s.train_peak_host as u64)
                .int("infer_peak_host_bytes", s.infer_peak_host as u64)
                .hex("logits_digest", s.digest),
        );
    }
    report.write(&cli.out);

    let mut gate = Gate::new();
    for s in &samples {
        gate.check(
            s.infer_epoch_s < s.train_epoch_s,
            &format!(
                "{}/{}/{} GPUs: infer {} s not strictly below train epoch {} s",
                s.model, s.overlap, s.gpus, s.infer_epoch_s, s.train_epoch_s
            ),
        );
        gate.check(
            s.infer_peak_gpu < s.train_peak_gpu && s.infer_peak_host < s.train_peak_host,
            &format!(
                "{}/{}/{} GPUs: inference peaks (gpu {}, host {}) not strictly \
                 below training's (gpu {}, host {})",
                s.model,
                s.overlap,
                s.gpus,
                s.infer_peak_gpu,
                s.infer_peak_host,
                s.train_peak_gpu,
                s.train_peak_host
            ),
        );
    }
    // The digest must agree across overlap modes (and execution modes —
    // pinned by the test suite); divergence here is a determinism bug.
    for s in &samples {
        if let Some(other) = samples
            .iter()
            .find(|o| o.model == s.model && o.gpus == s.gpus && o.digest != s.digest)
        {
            gate.fail(&format!(
                "{}/{} GPUs: logits digest diverged across overlap modes \
                 ({} {:016x} vs {} {:016x})",
                s.model, s.gpus, s.overlap, s.digest, other.overlap, other.digest
            ));
            break;
        }
    }
    gate.finish();
}
