//! `bench_delta` — certification and cost benchmark of the
//! dynamic-graph delta path (`hongtu-delta` + `Session::apply_staged`),
//! emitted as machine-readable JSON for CI.
//!
//! Three experiments on sparse synthetic graphs (an out-edge cone on a
//! dense registry proxy reaches most of the graph in two hops; a sparse
//! one shows cost following the cone):
//!
//! - **matrix** — for each model × overlap × GPU count, the same delta
//!   batch is priced two ways: incrementally (`apply_staged`, replay
//!   pruned to the upward-closed affected cone) and as a full
//!   recompute (the same commit on a twin session, then a whole
//!   `infer_epoch` over the mutated graph). The report records both simulated
//!   times, the host wall time of staging and of each apply (recorded,
//!   not gated — wall gates belong to `benchmark/`), event counts, and
//!   full-logits digests. A minimal feature
//!   delta (the vertex with the fewest out-edges) exercises the strict
//!   small-cone gates; a mixed edge+feature toggle batch (GCN cells)
//!   exercises digest equality through chunk rebuilds.
//! - **curve** — nested dirty-seed sets of growing spread on one
//!   configuration: cost (active steps and rows, events, sim time) as a
//!   function of cone size.
//! - **scaling** — the same single-vertex delta on graphs of growing
//!   size at fixed chunk width: incremental cost must track the cone,
//!   not the graph.
//!
//! The process exits 1 if any invariant fails:
//! - any incremental logits digest != the full-recompute digest;
//! - for any delta whose cone is ≤ 10% of the sweep's rows: not strictly
//!   fewer sim events or not strictly faster (sim-time) than the full
//!   recompute — and at least one such small-cone sample must exist;
//! - curve cost (active steps, active rows, events, sim time) not
//!   non-decreasing in cone size over nested seed sets;
//! - the curve's widest point — 16 scattered dirty vertices, which touch
//!   nearly every `(layer, batch)` step — replaying half the sweep or
//!   more *measured in rows*: its step-equivalents (`active rows ÷ total
//!   rows × total steps`) must stay below half the steps;
//! - incremental cost growing as fast as the full sweep across graph
//!   sizes (growth ratio must be strictly smaller).
//!
//! ```text
//! cargo run -p hongtu-bench --bin bench_delta -- [--out FILE] \
//!     [--size N] [--chunks N] [--gpus N] [--overlap off|doublebuffer] \
//!     [--seed N]
//! ```
//!
//! Default output is `BENCH_delta.json` in the current directory.

use hongtu_core::cli::{logits_digest, parse_overlap, FlagParser};
use hongtu_core::{CommMode, HongTuConfig, Mode, OverlapMode, Session};
use hongtu_datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu_delta::{toggle_workload, Delta, DeltaMix, DynamicGraph};
use hongtu_graph::generators;
use hongtu_nn::ModelKind;
use hongtu_sim::{MachineConfig, Trace};
use hongtu_tensor::{Matrix, SeededRng};
use std::time::Instant;

const USAGE: &str = "usage: bench_delta [--out FILE] [--size N] [--chunks N] \
     [--gpus N] [--overlap off|doublebuffer] [--seed N]";

struct Args {
    out: String,
    size: usize,
    chunks: usize,
    gpus: Option<usize>,
    overlap: Option<OverlapMode>,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: String::from("BENCH_delta.json"),
        size: 360,
        chunks: 12,
        gpus: None,
        overlap: None,
        seed: 99,
    };
    let mut p = FlagParser::from_env();
    while let Some(flag) = p.next_flag() {
        match flag.as_str() {
            "--out" => args.out = p.value("--out")?,
            "--size" => args.size = p.parse_value("--size")?,
            "--chunks" => args.chunks = p.parse_value("--chunks")?,
            "--gpus" => args.gpus = Some(p.parse_value("--gpus")?),
            "--overlap" => args.overlap = Some(p.value_with("--overlap", parse_overlap)?),
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

/// A sparse synthetic dataset (average out-degree 5 plus self-loops)
/// outside the registry, sized on demand.
fn random_dataset(seed: u64, n: usize) -> Dataset {
    let rng = SeededRng::new(seed);
    let g = generators::erdos_renyi(n, 5.0, &mut rng.fork(1));
    let graph = with_self_loops(&g);
    let mut frng = rng.fork(2);
    let features = Matrix::from_fn(n, 6, |_, _| frng.normal() * 0.5);
    let mut lrng = rng.fork(3);
    let labels: Vec<u32> = (0..n).map(|_| lrng.index(3) as u32).collect();
    let splits = Splits::random(n, 0.4, 0.2, &mut rng.fork(4));
    Dataset {
        key: DatasetKey::Rdt,
        graph,
        features,
        labels,
        splits,
        num_classes: 3,
        seed,
    }
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

/// The `count` vertices with the fewest out-edges, ascending — nested
/// prefixes give nested dirty sets, hence nested (upward-closed) cones.
fn quiet_vertices(ds: &Dataset, count: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..ds.graph.num_vertices() as u32).collect();
    order.sort_by_key(|&v| (ds.graph.out_degree(v), v));
    order.truncate(count);
    order
}

fn feature_deltas(ds: &Dataset, vertices: &[u32]) -> Vec<Delta> {
    vertices
        .iter()
        .map(|&v| Delta::UpdateFeatures {
            vertex: v,
            features: vec![0.25; ds.features.cols()],
        })
        .collect()
}

/// One measured commit: sim time, host wall time, sim events, cone
/// occupancy, and the digest of the full post-commit logits.
struct Cost {
    sim_s: f64,
    /// Host time of `DynamicGraph::stage`.
    stage_wall_ms: f64,
    /// Host time of the apply: `apply_staged`, plus the full sweep on
    /// the full-recompute twin.
    apply_wall_ms: f64,
    events: usize,
    active_steps: usize,
    total_steps: usize,
    active_rows: usize,
    total_rows: usize,
    dirty: usize,
    rebuilt_chunks: usize,
    digest: u64,
}

/// Commits `deltas` on a fresh session (primed by one full sweep) and
/// measures what bringing the logits up to date costs: the cone replay
/// of the commit itself, or — the full-recompute baseline — a whole
/// inference sweep over the mutated graph on a twin session that made
/// the same commit.
fn measure(
    ds: &Dataset,
    kind: ModelKind,
    gpus: usize,
    chunks: usize,
    overlap: OverlapMode,
    deltas: &[Delta],
    incremental: bool,
) -> Cost {
    let mut dg = DynamicGraph::from_dataset(ds);
    let mut s =
        Session::new(ds, kind, 16, 2, chunks, config(gpus, overlap)).expect("session construction");
    s.infer_epoch().expect("initial full sweep");
    s.machine_mut().enable_unbounded_trace();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let staged = dg.stage(deltas).expect("valid delta batch");
    let stage_wall_ms = ms(t);
    let t = Instant::now();
    let r = s.apply_staged(&mut dg, staged).expect("commit");
    let (sim_s, active_steps, active_rows, logits) = if incremental {
        (r.time, r.active_steps, r.active_rows, r.logits)
    } else {
        s.machine_mut().replace_trace(Trace::unbounded());
        let full = s.infer_epoch().expect("full sweep over the mutated graph");
        (full.time, r.total_steps, r.total_rows, full.logits)
    };
    Cost {
        sim_s,
        stage_wall_ms,
        apply_wall_ms: ms(t),
        events: s.machine().trace().len(),
        active_steps,
        total_steps: r.total_steps,
        active_rows,
        total_rows: r.total_rows,
        dirty: r.dirty_vertices,
        rebuilt_chunks: r.rebuilt_chunks,
        digest: logits_digest(&logits),
    }
}

struct Sample {
    section: &'static str,
    model: &'static str,
    overlap: &'static str,
    gpus: usize,
    n: usize,
    chunks: usize,
    delta_kind: &'static str,
    spread: usize,
    inc: Cost,
    full: Cost,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

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
    let ds = random_dataset(args.seed, args.size);
    let quiet = quiet_vertices(&ds, 1);
    let small = feature_deltas(&ds, &quiet);
    let mut samples: Vec<Sample> = Vec::new();

    // Matrix: the minimal feature delta everywhere; a mixed toggle
    // batch (edge add/remove + feature rewrite, forcing chunk rebuilds)
    // on the GCN cells.
    for (kind, model) in [
        (ModelKind::Gcn, "gcn"),
        (ModelKind::Gat, "gat"),
        (ModelKind::Sage, "sage"),
    ] {
        for &(overlap, overlap_name) in &overlaps {
            for &gpus in &gpu_counts {
                let mut cell = vec![("feature", small.clone())];
                if kind == ModelKind::Gcn {
                    let mut rng = SeededRng::new(args.seed ^ 0x006d_6978);
                    let mixed = toggle_workload(
                        &ds.graph,
                        ds.features.cols(),
                        1,
                        2,
                        DeltaMix::Mixed,
                        &mut rng,
                    )
                    .pop()
                    .expect("one batch");
                    cell.push(("mixed", mixed));
                }
                for (delta_kind, deltas) in cell {
                    let inc = measure(&ds, kind, gpus, args.chunks, overlap, &deltas, true);
                    let full = measure(&ds, kind, gpus, args.chunks, overlap, &deltas, false);
                    println!(
                        "{model}/{overlap_name}/{gpus} GPUs [{delta_kind}]: \
                         inc {:.3} ms vs full {:.3} ms, events {} vs {}, \
                         cone {}/{} steps, {}/{} rows",
                        inc.sim_s * 1e3,
                        full.sim_s * 1e3,
                        inc.events,
                        full.events,
                        inc.active_steps,
                        inc.total_steps,
                        inc.active_rows,
                        inc.total_rows,
                    );
                    samples.push(Sample {
                        section: "matrix",
                        model,
                        overlap: overlap_name,
                        gpus,
                        n: args.size,
                        chunks: args.chunks,
                        delta_kind,
                        spread: deltas.len(),
                        inc,
                        full,
                    });
                }
            }
        }
    }

    // Curve: nested dirty-seed prefixes of growing spread on one
    // configuration — cost as a function of cone size.
    let curve_gpus = *gpu_counts.first().expect("at least one GPU count");
    let (curve_overlap, curve_overlap_name) = overlaps[0];
    for spread in [1usize, 2, 4, 8, 16] {
        let seeds = quiet_vertices(&ds, spread);
        let deltas = feature_deltas(&ds, &seeds);
        let inc = measure(
            &ds,
            ModelKind::Gcn,
            curve_gpus,
            args.chunks,
            curve_overlap,
            &deltas,
            true,
        );
        let full = measure(
            &ds,
            ModelKind::Gcn,
            curve_gpus,
            args.chunks,
            curve_overlap,
            &deltas,
            false,
        );
        println!(
            "curve spread {spread}: dirty {} cone {}/{} steps, {}/{} rows, inc {:.3} ms \
             ({} events)",
            inc.dirty,
            inc.active_steps,
            inc.total_steps,
            inc.active_rows,
            inc.total_rows,
            inc.sim_s * 1e3,
            inc.events,
        );
        samples.push(Sample {
            section: "curve",
            model: "gcn",
            overlap: curve_overlap_name,
            gpus: curve_gpus,
            n: args.size,
            chunks: args.chunks,
            delta_kind: "feature",
            spread,
            inc,
            full,
        });
    }

    // Scaling: same minimal delta, growing graph, fixed chunk width —
    // total steps grow with the graph, the cone does not.
    let width = args.size.div_euclid(args.chunks).max(1);
    for scale in [1usize, 2, 4] {
        let n = args.size * scale;
        let chunks = n.div_euclid(width);
        let big = random_dataset(args.seed, n);
        let seeds = quiet_vertices(&big, 1);
        let deltas = feature_deltas(&big, &seeds);
        let inc = measure(
            &big,
            ModelKind::Gcn,
            curve_gpus,
            chunks,
            curve_overlap,
            &deltas,
            true,
        );
        let full = measure(
            &big,
            ModelKind::Gcn,
            curve_gpus,
            chunks,
            curve_overlap,
            &deltas,
            false,
        );
        println!(
            "scaling n={n} ({chunks} chunks): inc {:.3} ms vs full {:.3} ms, cone {}/{} steps",
            inc.sim_s * 1e3,
            full.sim_s * 1e3,
            inc.active_steps,
            inc.total_steps,
        );
        samples.push(Sample {
            section: "scaling",
            model: "gcn",
            overlap: curve_overlap_name,
            gpus: curve_gpus,
            n,
            chunks,
            delta_kind: "feature",
            spread: 1,
            inc,
            full,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!("  \"base_size\": {},\n", args.size));
    json.push_str(&format!("  \"base_chunks\": {},\n", args.chunks));
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"section\": \"{}\", \"model\": \"{}\", \"overlap\": \"{}\", \
             \"gpus\": {}, \"n\": {}, \"chunks\": {}, \"delta\": \"{}\", \
             \"spread\": {}, \"dirty\": {}, \"rebuilt_chunks\": {}, \
             \"active_steps\": {}, \"total_steps\": {}, \
             \"active_rows\": {}, \"total_rows\": {}, \
             \"inc_sim_s\": {:.9}, \"full_sim_s\": {:.9}, \"speedup\": {:.4}, \
             \"stage_wall_ms\": {:.3}, \"apply_wall_ms\": {:.3}, \"full_wall_ms\": {:.3}, \
             \"inc_events\": {}, \"full_events\": {}, \
             \"inc_digest\": \"{:016x}\", \"full_digest\": \"{:016x}\"}}{}\n",
            s.section,
            s.model,
            s.overlap,
            s.gpus,
            s.n,
            s.chunks,
            s.delta_kind,
            s.spread,
            s.inc.dirty,
            s.inc.rebuilt_chunks,
            s.inc.active_steps,
            s.inc.total_steps,
            s.inc.active_rows,
            s.inc.total_rows,
            s.inc.sim_s,
            s.full.sim_s,
            s.full.sim_s / s.inc.sim_s,
            s.inc.stage_wall_ms,
            s.inc.apply_wall_ms,
            s.full.apply_wall_ms,
            s.inc.events,
            s.full.events,
            s.inc.digest,
            s.full.digest,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.out, &json).expect("writing report");
    println!("wrote {}", args.out);

    let mut bad = false;
    let mut small_cone_samples = 0usize;
    for s in &samples {
        let tag = format!(
            "{}:{}/{}/{} GPUs [{}] spread {}",
            s.section, s.model, s.overlap, s.gpus, s.delta_kind, s.spread
        );
        if s.inc.digest != s.full.digest {
            eprintln!(
                "FAIL: {tag}: incremental digest {:016x} != full-recompute digest {:016x}",
                s.inc.digest, s.full.digest
            );
            bad = true;
        }
        if s.inc.active_rows * 10 <= s.inc.total_rows {
            small_cone_samples += 1;
            if s.inc.events >= s.full.events {
                eprintln!(
                    "FAIL: {tag}: small cone ({}/{} rows) but incremental ran {} sim events, \
                     full recompute {}",
                    s.inc.active_rows, s.inc.total_rows, s.inc.events, s.full.events
                );
                bad = true;
            }
            if s.inc.sim_s >= s.full.sim_s {
                eprintln!(
                    "FAIL: {tag}: small cone ({}/{} rows) but incremental {} s not strictly \
                     below full recompute {} s",
                    s.inc.active_rows, s.inc.total_rows, s.inc.sim_s, s.full.sim_s
                );
                bad = true;
            }
        }
    }
    if small_cone_samples == 0 {
        eprintln!("FAIL: no sample had a cone ≤ 10% of the rows — strict gates were vacuous");
        bad = true;
    }

    // Curve: nested seed prefixes give nested cones, so every cost
    // coordinate must be non-decreasing in spread.
    let curve: Vec<&Sample> = samples.iter().filter(|s| s.section == "curve").collect();
    for pair in curve.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b.inc.active_steps < a.inc.active_steps
            || b.inc.active_rows < a.inc.active_rows
            || b.inc.events < a.inc.events
            || b.inc.sim_s < a.inc.sim_s
        {
            eprintln!(
                "FAIL: curve not non-decreasing from spread {} to {}: \
                 steps {} -> {}, rows {} -> {}, events {} -> {}, time {} -> {} s",
                a.spread,
                b.spread,
                a.inc.active_steps,
                b.inc.active_steps,
                a.inc.active_rows,
                b.inc.active_rows,
                a.inc.events,
                b.inc.events,
                a.inc.sim_s,
                b.inc.sim_s
            );
            bad = true;
        }
    }

    // The widest curve point scatters its seeds over nearly every step;
    // what it replays must still be its rows, not its steps.
    if let Some(widest) = curve.last() {
        let c = &widest.inc;
        if 2 * c.active_rows >= c.total_rows {
            eprintln!(
                "FAIL: curve spread {}: {}/{} rows = {:.1} of {} step-equivalents, not below \
                 half the sweep ({} steps active)",
                widest.spread,
                c.active_rows,
                c.total_rows,
                c.active_rows as f64 / c.total_rows as f64 * c.total_steps as f64,
                c.total_steps,
                c.active_steps
            );
            bad = true;
        }
    }

    // Scaling: incremental cost must grow strictly slower than the
    // full sweep as the graph grows at fixed chunk width.
    let scaling: Vec<&Sample> = samples.iter().filter(|s| s.section == "scaling").collect();
    for s in &scaling {
        if s.inc.sim_s >= s.full.sim_s {
            eprintln!(
                "FAIL: scaling n={}: incremental {} s not strictly below full {} s",
                s.n, s.inc.sim_s, s.full.sim_s
            );
            bad = true;
        }
    }
    if let (Some(first), Some(last)) = (scaling.first(), scaling.last()) {
        let inc_growth = last.inc.sim_s / first.inc.sim_s;
        let full_growth = last.full.sim_s / first.full.sim_s;
        if inc_growth >= full_growth {
            eprintln!(
                "FAIL: incremental cost grew {inc_growth:.3}x from n={} to n={}, \
                 full sweep only {full_growth:.3}x — cost is not tracking the cone",
                first.n, last.n
            );
            bad = true;
        }
    }
    if bad {
        std::process::exit(1);
    }
}
