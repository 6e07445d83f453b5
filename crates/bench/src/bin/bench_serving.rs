//! `bench_serving` — certification and open-loop load benchmark of the
//! serving path (`hongtu-serving`), emitted as machine-readable JSON
//! for CI.
//!
//! For each model × overlap mode × GPU count the same vertex subset is
//! served two ways: through `Session::serve` (one sweep pruned to the
//! subset's ≤ L-hop cone) and through a full `Session::infer_epoch` on
//! an identically seeded fresh session. The report records both
//! simulated times, both logits digests (restricted to the queried
//! rows), both sim-event counts, and the destination rows the cone
//! computed of the rows the full sweep did. A *probe* — one query of 8
//! vertices drawn uniformly over the whole graph, the shape of a single
//! request of the open-loop stream — is served the same way on a third
//! fresh session. One configuration additionally drives an open-loop
//! Poisson workload through the FIFO batching server and records p50/p99
//! latency, queries/sec, the batch-size histogram, and the
//! admission-reject rate.
//!
//! The process exits 1 if any invariant fails:
//! - served logits digest != full-inference digest on the same rows;
//! - pruned sweep not strictly faster (sim-time) than the full sweep
//!   for a subset of ≤ 10% of the vertices;
//! - pruned sweep not strictly fewer sim events than the full sweep;
//! - the one-query probe sweep not strictly cheaper than the full sweep
//!   in sim time *and* in sim events, or computing as many rows — a
//!   query costs its cone, even where (RDT: 77 in-neighbors a vertex) the
//!   cone's bottom layer reads most of the graph;
//! - any rejection under the session's own staging budget, or a
//!   non-finite latency percentile.
//!
//! ```text
//! cargo run -p hongtu-bench --bin bench_serving -- [--out FILE] \
//!     [--dataset rdt|opt|it|opr|fds] [--gpus N] [--overlap off|db] \
//!     [--qps RATE] [--batch-window N] [--requests N] [--subset N] \
//!     [--seed N]
//! ```
//!
//! Default output is `BENCH_serving.json` in the current directory.
//! `--qps 0` (the default) auto-calibrates the arrival rate to ~2.5
//! arrivals per pruned sweep so batches actually form.

use hongtu_core::cli::{logits_digest, parse_dataset, parse_overlap, FlagParser};
use hongtu_core::{CommMode, HongTuConfig, Mode, OverlapMode, Session};
use hongtu_datasets::{load, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_serving::{poisson_workload, run_open_loop, AdmissionControl, LoadStats};
use hongtu_sim::MachineConfig;
use hongtu_tensor::SeededRng;

const USAGE: &str = "usage: bench_serving [--out FILE] [--dataset rdt|opt|it|opr|fds] \
     [--gpus N] [--overlap off|doublebuffer] [--qps RATE] [--batch-window N] \
     [--requests N] [--subset N] [--seed N]";

struct Args {
    out: String,
    dataset: DatasetKey,
    gpus: Option<usize>,
    overlap: Option<OverlapMode>,
    qps: f64,
    batch_window: usize,
    requests: usize,
    subset: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: String::from("BENCH_serving.json"),
        dataset: DatasetKey::Rdt,
        gpus: None,
        overlap: None,
        qps: 0.0,
        batch_window: 4,
        requests: 24,
        subset: 0,
        seed: 99,
    };
    let mut p = FlagParser::from_env();
    while let Some(flag) = p.next_flag() {
        match flag.as_str() {
            "--out" => args.out = p.value("--out")?,
            "--dataset" => args.dataset = p.value_with("--dataset", parse_dataset)?,
            "--gpus" => args.gpus = Some(p.parse_value("--gpus")?),
            "--overlap" => args.overlap = Some(p.value_with("--overlap", parse_overlap)?),
            "--qps" => args.qps = p.parse_value("--qps")?,
            "--batch-window" => args.batch_window = p.parse_value("--batch-window")?,
            "--requests" => args.requests = p.parse_value("--requests")?,
            "--subset" => args.subset = p.parse_value("--subset")?,
            "--seed" => args.seed = p.parse_value("--seed")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

struct Sample {
    model: &'static str,
    overlap: &'static str,
    gpus: usize,
    queried: usize,
    serve_sim_s: f64,
    infer_sim_s: f64,
    serve_events: usize,
    infer_events: usize,
    serve_digest: u64,
    infer_digest: u64,
    /// `(active, total)` destination rows of the clustered subset's cone.
    serve_rows: (usize, usize),
    probe_sim_s: f64,
    probe_events: usize,
    probe_rows: (usize, usize),
    probe_digest: u64,
    probe_infer_digest: u64,
    load: Option<LoadStats>,
}

/// Samples a clustered query subset: `size` vertices drawn from batch
/// 0's destination sets (across GPUs). Clustered queries model the
/// locality of real request streams (ego-nets, per-community
/// dashboards) and prune whole steps — at the top layer only the queried
/// batch runs — on top of the rows every cone prunes inside the steps
/// it keeps; the uniformly scattered case is the probe's.
fn cluster_subset(session: &Session, size: usize, seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = session
        .plans()
        .partition
        .all_chunks()
        .filter(|c| c.chunk == 0)
        .flat_map(|c| c.dests.iter().map(|&v| v as usize))
        .collect();
    pool.sort_unstable();
    let picks = SeededRng::new(seed ^ 0x7375_6273).sample_indices(pool.len(), size.min(pool.len()));
    picks.into_iter().map(|k| pool[k]).collect()
}

fn config(gpus: usize, overlap: OverlapMode) -> HongTuConfig {
    HongTuConfig::builder()
        .machine(MachineConfig::scaled(gpus, 512 << 20))
        .comm(CommMode::P2pRu)
        .overlap(overlap)
        .mode(Mode::Infer)
        .build()
        .expect("valid config")
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let ds = load(args.dataset, &mut SeededRng::new(args.seed));
    let n = ds.graph.num_vertices();
    // Certification subset: ≤ 10% of the vertices (the regime where the
    // pruned sweep must win), 5% by default.
    let subset = if args.subset > 0 {
        args.subset.min(n)
    } else {
        (n / 20).max(1)
    };
    let gpu_counts: Vec<usize> = match args.gpus {
        Some(g) => vec![g],
        None => vec![1, 2, 4],
    };
    let overlaps: Vec<(OverlapMode, &'static str)> = match args.overlap {
        Some(OverlapMode::Off) => vec![(OverlapMode::Off, "off")],
        Some(OverlapMode::DoubleBuffer) => vec![(OverlapMode::DoubleBuffer, "doublebuffer")],
        None => vec![
            (OverlapMode::Off, "off"),
            (OverlapMode::DoubleBuffer, "doublebuffer"),
        ],
    };

    let mut samples = Vec::new();
    for (kind, model) in [
        (ModelKind::Gcn, "gcn"),
        (ModelKind::Gat, "gat"),
        (ModelKind::Sage, "sage"),
    ] {
        for &(overlap, overlap_name) in &overlaps {
            for &gpus in &gpu_counts {
                // Pruned sweep on a fresh session, trace enabled so the
                // event count is comparable to the full sweep's.
                let mut serve_session = Session::new(&ds, kind, 32, 2, 4, config(gpus, overlap))
                    .expect("session construction");
                let vertices = cluster_subset(&serve_session, subset, args.seed);
                serve_session.machine_mut().enable_unbounded_trace();
                let served = serve_session.serve(&vertices).expect("serve");
                let serve_events = serve_session.machine().trace().len();

                // Full inference epoch on an identically seeded fresh
                // session.
                let mut infer_session = Session::new(&ds, kind, 32, 2, 4, config(gpus, overlap))
                    .expect("session construction");
                infer_session.machine_mut().enable_unbounded_trace();
                let infer = infer_session.infer_epoch().expect("infer epoch");
                let infer_events = infer_session.machine().trace().len();

                // The probe: one uniformly scattered 8-vertex query.
                let mut probe_session = Session::new(&ds, kind, 32, 2, 4, config(gpus, overlap))
                    .expect("session construction");
                let probe_vertices =
                    SeededRng::new(args.seed ^ 0x7072_6f62).sample_indices(n, 8.min(n));
                probe_session.machine_mut().enable_unbounded_trace();
                let probe = probe_session.serve(&probe_vertices).expect("probe serve");
                let probe_events = probe_session.machine().trace().len();

                // Open-loop load: one representative configuration per
                // (overlap, gpus) cell — GCN — to keep runtime bounded.
                let load = (kind == ModelKind::Gcn).then(|| {
                    let qps = if args.qps > 0.0 {
                        args.qps
                    } else {
                        2.5 / served.time.max(1e-12)
                    };
                    let mut rng = SeededRng::new(args.seed ^ 0x6c6f6164);
                    let workload =
                        poisson_workload(n, args.requests, qps, subset.clamp(1, 8), &mut rng);
                    let mut sess = Session::new(&ds, kind, 32, 2, 4, config(gpus, overlap))
                        .expect("session construction");
                    let admission = AdmissionControl::from_session(&sess);
                    run_open_loop(&mut sess, admission, args.batch_window, workload)
                        .expect("open loop")
                });

                println!(
                    "{model}/{overlap_name}/{gpus} GPUs: serve {:.3} ms vs full {:.3} ms \
                     ({:.0}%), events {} vs {}, rows {}/{}, digest {:016x} | probe {:.3} ms, \
                     {} events, rows {}/{}",
                    served.time * 1e3,
                    infer.time * 1e3,
                    100.0 * served.time / infer.time,
                    serve_events,
                    infer_events,
                    served.active_rows,
                    served.total_rows,
                    logits_digest(&served.logits),
                    probe.time * 1e3,
                    probe_events,
                    probe.active_rows,
                    probe.total_rows,
                );
                samples.push(Sample {
                    model,
                    overlap: overlap_name,
                    gpus,
                    queried: vertices.len(),
                    serve_sim_s: served.time,
                    infer_sim_s: infer.time,
                    serve_events,
                    infer_events,
                    serve_digest: logits_digest(&served.logits),
                    infer_digest: logits_digest(&infer.logits.gather_rows(&vertices)),
                    serve_rows: (served.active_rows, served.total_rows),
                    probe_sim_s: probe.time,
                    probe_events,
                    probe_rows: (probe.active_rows, probe.total_rows),
                    probe_digest: logits_digest(&probe.logits),
                    probe_infer_digest: logits_digest(&infer.logits.gather_rows(&probe_vertices)),
                    load,
                });
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"dataset\": \"{}\",\n", args.dataset.abbrev()));
    json.push_str(&format!("  \"subset_vertices\": {subset},\n"));
    json.push_str(&format!("  \"num_vertices\": {n},\n"));
    json.push_str(&format!("  \"batch_window\": {},\n", args.batch_window));
    json.push_str(&format!("  \"requests\": {},\n", args.requests));
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"overlap\": \"{}\", \"gpus\": {}, \"queried\": {}, \
             \"serve_sim_s\": {:.9}, \"infer_sim_s\": {:.9}, \"speedup\": {:.4}, \
             \"serve_events\": {}, \"infer_events\": {}, \
             \"serve_digest\": \"{:016x}\", \"infer_digest\": \"{:016x}\", \
             \"serve_rows\": {}, \"total_rows\": {}, \
             \"probe_sim_s\": {:.9}, \"probe_events\": {}, \"probe_rows\": {}",
            s.model,
            s.overlap,
            s.gpus,
            s.queried,
            s.serve_sim_s,
            s.infer_sim_s,
            s.infer_sim_s / s.serve_sim_s,
            s.serve_events,
            s.infer_events,
            s.serve_digest,
            s.infer_digest,
            s.serve_rows.0,
            s.serve_rows.1,
            s.probe_sim_s,
            s.probe_events,
            s.probe_rows.0,
        ));
        if let Some(load) = &s.load {
            let hist: Vec<String> = load
                .batch_hist
                .iter()
                .map(|(size, count)| format!("[{size}, {count}]"))
                .collect();
            json.push_str(&format!(
                ", \"load\": {{\"served\": {}, \"rejected\": {}, \"reject_rate\": {:.4}, \
                 \"p50_latency_s\": {:.9}, \"p99_latency_s\": {:.9}, \
                 \"queries_per_sec\": {:.3}, \"batch_hist\": [{}]}}",
                load.served,
                load.rejected,
                load.reject_rate,
                load.p50_latency,
                load.p99_latency,
                load.queries_per_sec,
                hist.join(", "),
            ));
        }
        json.push_str(&format!(
            "}}{}\n",
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.out, &json).expect("writing report");
    println!("wrote {}", args.out);

    let mut bad = false;
    for s in &samples {
        if s.serve_digest != s.infer_digest {
            eprintln!(
                "FAIL: {}/{}/{} GPUs: served digest {:016x} != full-inference digest {:016x}",
                s.model, s.overlap, s.gpus, s.serve_digest, s.infer_digest
            );
            bad = true;
        }
        if s.queried * 10 <= n && s.serve_sim_s >= s.infer_sim_s {
            eprintln!(
                "FAIL: {}/{}/{} GPUs: pruned sweep {} s not strictly below full sweep {} s \
                 for a {}/{n}-vertex subset",
                s.model, s.overlap, s.gpus, s.serve_sim_s, s.infer_sim_s, s.queried
            );
            bad = true;
        }
        if s.serve_events >= s.infer_events {
            eprintln!(
                "FAIL: {}/{}/{} GPUs: pruned sweep ran {} sim events, full sweep {}",
                s.model, s.overlap, s.gpus, s.serve_events, s.infer_events
            );
            bad = true;
        }
        if s.probe_digest != s.probe_infer_digest {
            eprintln!(
                "FAIL: {}/{}/{} GPUs: probe digest {:016x} != full-inference digest {:016x}",
                s.model, s.overlap, s.gpus, s.probe_digest, s.probe_infer_digest
            );
            bad = true;
        }
        if s.probe_sim_s >= s.infer_sim_s
            || s.probe_events >= s.infer_events
            || s.probe_rows.0 >= s.probe_rows.1
        {
            eprintln!(
                "FAIL: {}/{}/{} GPUs: one-query probe sweep ({} s, {} events, {}/{} rows) not \
                 strictly cheaper than the full sweep ({} s, {} events)",
                s.model,
                s.overlap,
                s.gpus,
                s.probe_sim_s,
                s.probe_events,
                s.probe_rows.0,
                s.probe_rows.1,
                s.infer_sim_s,
                s.infer_events
            );
            bad = true;
        }
        if let Some(load) = &s.load {
            if load.rejected != 0 {
                eprintln!(
                    "FAIL: {}/{}/{} GPUs: {} rejections under the session's own staging budget",
                    s.model, s.overlap, s.gpus, load.rejected
                );
                bad = true;
            }
            if !load.p50_latency.is_finite() || !load.p99_latency.is_finite() {
                eprintln!(
                    "FAIL: {}/{}/{} GPUs: non-finite latency percentiles (p50 {}, p99 {})",
                    s.model, s.overlap, s.gpus, load.p50_latency, load.p99_latency
                );
                bad = true;
            }
            if load.served != args.requests {
                eprintln!(
                    "FAIL: {}/{}/{} GPUs: served {} of {} requests",
                    s.model, s.overlap, s.gpus, load.served, args.requests
                );
                bad = true;
            }
        }
    }
    if bad {
        std::process::exit(1);
    }
}
