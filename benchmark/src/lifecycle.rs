//! One lifecycle: setup → train → infer → serve → mixed → delta, driven
//! only through the program's public functions and timed from outside.
//! Every stage also checks its outputs; a failed check makes the run
//! incorrect and the process exit non-zero.

use crate::gen;
use crate::spans::Recorder;
use crate::stats::{median, percentile, quartiles};
use crate::workloads::{Workload, BATCH_WINDOW, CHUNKS, EDITS_PER_BATCH, HIDDEN};
use hongtu_core::cli::logits_digest;
use hongtu_core::{Mode, Session};
use hongtu_datasets::{load, Dataset};
use hongtu_delta::{toggle_workload, DeltaMix, DynamicGraph};
use hongtu_nn::{load_model, save_model};
use hongtu_serving::{AdmissionControl, Server, WorkItem};
use hongtu_sim::{SimError, TimeBuckets};
use hongtu_tensor::{Matrix, SeededRng};

pub const STAGES: [&str; 6] = ["setup", "train", "infer", "serve", "mixed", "delta"];

/// The end-to-end metrics `BENCHMARK.json` bounds, in report order. A
/// run reports three more beside them: `failed_share` (the driver reads
/// it as `failed` / `attempted`; a metric there may never be 0) and the
/// two `mixed_*_sim_*` percentiles, which repeat exactly for a seed but
/// rest on too few samples on the large graphs to hold a bound across
/// seeds (README, "What the driver bounds").
pub const END_TO_END: [&str; 13] = [
    "setup_s",
    "train_epoch_wall_ms",
    "train_epoch_sim_ms",
    "infer_wall_ms",
    "infer_sim_ms",
    "serve_wall_ms_per_query",
    "serve_sim_p50_ms",
    "serve_sim_p90_ms",
    "mixed_wall_ms_per_item",
    "delta_wall_ms",
    "delta_sim_ms",
    "run_wall_s",
    "peak_rss_mb",
];

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.ok { "ok" } else { "FAILED" };
        write!(f, "check {:<36} {verdict} ({})", self.name, self.detail)
    }
}

/// Operations attempted and failed, from typed responses only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

/// A sampled host-clock quantity: the samples, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn median_ms(&self) -> f64 {
        median(&self.0) * 1e3
    }
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
    /// `(n, q1, q3)` in milliseconds, for the report.
    pub fn quartiles_ms(&self) -> (usize, f64, f64) {
        let (q1, q3) = quartiles(&self.0);
        (self.0.len(), q1 * 1e3, q3 * 1e3)
    }
}

/// What one pass through a serving queue produced ([`drive`]).
#[derive(Debug, Clone, Default)]
pub struct DriveStats {
    pub items: usize,
    pub step_wall: Samples,
    /// Simulated latency per answered query, in arrival order; a refused
    /// query is `INFINITY` (it misses any limit).
    pub query_latency_s: Vec<f64>,
    pub update_latency_s: Vec<f64>,
    pub overloaded: usize,
    pub update_rejected: usize,
    /// Steps that ran a query sweep, and the requests they packed.
    pub sweeps: usize,
    pub batched: usize,
    pub query_active_steps: usize,
    pub query_total_steps: usize,
    pub update_active_steps: usize,
    pub update_total_steps: usize,
    pub dirty_vertices: usize,
    pub rebuilt_chunks: usize,
    /// Served logits rows that differ bitwise from the reference.
    pub wrong_rows: usize,
    pub rows_checked: usize,
    /// Set when `step()` returned an error: the stage stopped there.
    pub error: Option<String>,
}

impl DriveStats {
    pub fn queries(&self) -> usize {
        self.query_latency_s.len()
    }
    pub fn failed(&self) -> usize {
        let answered = self.queries() + self.update_latency_s.len() + self.update_rejected;
        // After a hard error everything left unanswered failed too.
        self.overloaded + self.update_rejected + (self.items - answered.min(self.items))
    }
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.query_latency_s, p) * 1e3
    }
}

/// Open loop on the simulated clock: items are enqueued as the server's
/// clock passes their arrival and the clock idles forward when the queue
/// runs dry, so latency counts from the scheduled arrival. On the host
/// the driver calls `step()` back to back and times each call. With a
/// `reference`, every served row is compared bitwise against the same
/// row of that full-inference logits matrix.
pub fn drive(
    server: &mut Server<'_>,
    items: Vec<WorkItem>,
    reference: Option<&Matrix>,
    rec: &mut Recorder,
    span: &'static str,
) -> DriveStats {
    let mut stats = DriveStats {
        items: items.len(),
        ..DriveStats::default()
    };
    let vertices_of: Vec<Option<Vec<usize>>> = items
        .iter()
        .map(|w| match w {
            WorkItem::Query(r) => Some(r.vertices.clone()),
            WorkItem::Update(_) => None,
        })
        .collect();
    let mut latency_of: Vec<Option<f64>> = vec![None; items.len()];
    let mut pending = items.into_iter().peekable();
    loop {
        while pending
            .peek()
            .is_some_and(|w| w.arrival() <= server.clock())
        {
            server.submit_work(pending.next().expect("peeked"));
        }
        if server.queue_len() == 0 {
            match pending.next() {
                Some(w) => {
                    server.advance_to(w.arrival());
                    server.submit_work(w);
                }
                None => break,
            }
        }
        let (result, wall) = rec.time(span, || server.step());
        stats.step_wall.0.push(wall);
        let batch = match result {
            Ok(Some(batch)) => batch,
            Ok(None) => continue,
            Err(e) => {
                stats.error = Some(e.to_string());
                break;
            }
        };
        for served in &batch.served {
            latency_of[served.id as usize] = Some(served.latency);
            if let Some(full) = reference {
                let vs = vertices_of[served.id as usize]
                    .as_ref()
                    .expect("served ids are query ids");
                for (row, &v) in vs.iter().enumerate() {
                    stats.rows_checked += 1;
                    let same = served
                        .logits
                        .row(row)
                        .iter()
                        .zip(full.row(v))
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        stats.wrong_rows += 1;
                    }
                }
            }
        }
        for refused in &batch.rejected {
            latency_of[refused.id as usize] = Some(f64::INFINITY);
        }
        stats.overloaded += batch.rejected.len();
        stats.update_rejected += batch.rejected_updates.len();
        if batch.batch_size > 0 {
            stats.sweeps += 1;
            stats.batched += batch.batch_size;
            stats.query_active_steps += batch.active_steps;
            stats.query_total_steps += batch.total_steps;
        }
        for c in &batch.committed {
            stats.update_latency_s.push(c.latency);
            stats.update_active_steps += batch.active_steps;
            stats.update_total_steps += batch.total_steps;
            stats.dirty_vertices += c.dirty_vertices;
            stats.rebuilt_chunks += c.rebuilt_chunks;
        }
    }
    stats.query_latency_s = latency_of.into_iter().flatten().collect();
    stats
}

/// Raw observations the per-layer metrics are computed from.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    pub load_wall: Samples,
    pub session_new_wall: Samples,
    pub infer_session_new_s: f64,
    pub train_wall: Samples,
    pub train_sim_s: Vec<f64>,
    pub train_buckets: TimeBuckets,
    pub train_peak_gpu_bytes: usize,
    pub train_peak_host_bytes: usize,
    pub cache_hit_rate_train: f64,
    pub infer_wall: Samples,
    pub infer_buckets: TimeBuckets,
    pub infer_sim_s: f64,
    pub cache_resident_rows: usize,
    pub cache_hit_rate_serve: f64,
    pub serve: DriveStats,
    pub mixed: DriveStats,
    pub delta_stage_wall: Samples,
    pub delta_apply_wall: Samples,
    pub delta_wall: Samples,
    pub delta_sim_s: Vec<f64>,
    pub delta_active_steps: usize,
    pub delta_total_steps: usize,
    pub delta_dirty_vertices: usize,
    pub delta_rebuilt_chunks: usize,
    pub delta_committed: usize,
}

/// One end-to-end metric as reported.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `(n, q1, q3)` of the samples behind a median, in the metric's unit.
    pub samples: Option<(usize, f64, f64)>,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub failed_share: f64,
    pub tally: Tally,
    pub checks: Vec<Check>,
    pub stage_wall_s: Vec<(&'static str, f64)>,
    pub run_wall_s: f64,
    pub digests: Vec<(&'static str, u64)>,
    pub first_loss: f32,
    pub last_loss: f32,
    pub facts: Facts,
    /// State the traced run's probes continue from.
    pub dataset: Dataset,
    pub session: Session,
    pub graph: DynamicGraph,
    pub model_bytes: Vec<u8>,
}

fn hit_rate(hits: usize, loads: usize) -> f64 {
    if loads == 0 {
        0.0
    } else {
        hits as f64 / loads as f64
    }
}

fn cache_counts(session: &Session) -> (usize, usize) {
    session
        .cache()
        .map_or((0, 0), |c| (c.total_hits(), c.total_loads()))
}

/// `VmHWM` of this process in MiB, 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `Session::new` with the workload's arguments in `mode`.
pub fn try_new_session(w: &Workload, ds: &Dataset, mode: Mode) -> Result<Session, SimError> {
    Session::new(ds, w.model, HIDDEN, w.layers, CHUNKS, w.config(mode))
}

fn new_session(w: &Workload, ds: &Dataset, mode: Mode) -> Session {
    try_new_session(w, ds, mode)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", w.name))
}

/// Runs the six stages of `w` (already scaled) on inputs generated from
/// `seed`. Panics only where the program under test breaks a contract
/// the benchmark cannot continue past (a session that does not build).
pub fn run(w: &Workload, seed: u64, rec: &mut Recorder) -> Outcome {
    let mut checks: Vec<Check> = Vec::new();
    let mut tally = Tally::default();
    let mut facts = Facts::default();
    let mut stage_wall_s: Vec<(&'static str, f64)> = Vec::new();
    let mut digests: Vec<(&'static str, u64)> = Vec::new();
    // Stage walls are contiguous: each runs from the previous stage's end
    // (the first from process start), so they sum to `run_wall_s`.
    let mut stage_start = 0.0f64;
    let mut close_stage = |name: &'static str, rec: &mut Recorder| {
        rec.exit();
        let now = rec.now_s();
        stage_wall_s.push((name, now - stage_start));
        stage_start = now;
    };

    // ---- setup: load + Session::new, `setup_reps` times, last kept ----
    rec.enter("setup");
    let mut setup_wall = Samples::default();
    let mut kept: Option<(Dataset, Session)> = None;
    for _ in 0..w.setup_reps {
        // The previous repetition is released first, as a process that
        // sets up once would never hold two.
        drop(kept.take());
        let (ds, t_load) = rec.time("datasets.load", || {
            load(w.dataset, &mut SeededRng::new(seed))
        });
        let (session, t_new) = rec.time("engine.session_new", || new_session(w, &ds, Mode::Train));
        facts.load_wall.0.push(t_load);
        facts.session_new_wall.0.push(t_new);
        setup_wall.0.push(t_load + t_new);
        kept = Some((ds, session));
    }
    let (dataset, mut train_session) = kept.expect("setup_reps is at least 1");
    close_stage("setup", rec);

    // ---- train: 1 warm-up + E timed epochs ----
    rec.enter("train");
    let mut losses: Vec<f32> = Vec::new();
    let mut train_errors = 0usize;
    {
        let mut trainer = train_session.trainer();
        for epoch in 0..=w.epochs {
            let hits_before = cache_counts(trainer.session());
            let (result, wall) = rec.time("engine.train_epoch", || trainer.epoch());
            match result {
                Ok(report) => {
                    losses.push(report.loss.loss);
                    if epoch > 0 {
                        facts.train_wall.0.push(wall);
                        facts.train_sim_s.push(report.time);
                        facts.train_buckets = report.buckets;
                    }
                }
                Err(e) => {
                    train_errors += 1;
                    eprintln!("{}: train epoch {epoch} failed: {e}", w.name);
                }
            }
            if epoch == w.epochs {
                // Hit rate of the last (warm) epoch only.
                let (h0, l0) = hits_before;
                let (h1, l1) = cache_counts(trainer.session());
                facts.cache_hit_rate_train = hit_rate(h1 - h0, l1 - l0);
            }
        }
    }
    tally.attempted += w.epochs + 1;
    tally.failed += train_errors;
    facts.train_peak_gpu_bytes = train_session.machine().max_gpu_peak();
    facts.train_peak_host_bytes = train_session.machine().host_memory().peak();
    let first_loss = losses.first().copied().unwrap_or(f32::NAN);
    let last_loss = losses.last().copied().unwrap_or(f32::NAN);
    checks.push(Check {
        name: "train_loss_falls",
        ok: train_errors == 0 && losses.iter().all(|l| l.is_finite()) && last_loss <= first_loss,
        detail: format!("first {first_loss} last {last_loss} ({train_errors} errored epochs)"),
    });
    close_stage("train", rec);

    // ---- infer: model round trip, fresh Mode::Infer session, 1 + K ----
    rec.enter("infer");
    // Forward logits of the *final* weights on the training session: what
    // the inference session must reproduce bit for bit.
    let train_forward = train_session
        .infer_epoch()
        .map(|r| logits_digest(&r.logits));
    let mut model_bytes = Vec::new();
    let round_trip = save_model(train_session.model(), &mut model_bytes)
        .map_err(|e| e.to_string())
        .and_then(|()| load_model(&model_bytes[..]).map_err(|e| e.to_string()));
    drop(train_session);
    let (mut session, t_new) = rec.time("engine.infer_session_new", || {
        new_session(w, &dataset, Mode::Infer)
    });
    facts.infer_session_new_s = t_new;
    match round_trip {
        Ok(model) => session.set_model(model),
        Err(e) => checks.push(Check {
            name: "model_round_trip",
            ok: false,
            detail: e,
        }),
    }
    let mut infer_digests: Vec<u64> = Vec::new();
    let mut infer_errors = 0usize;
    let mut full_logits: Option<Matrix> = None;
    for k in 0..=w.infers {
        let (result, wall) = rec.time("engine.infer_epoch", || session.infer_epoch());
        match result {
            Ok(report) => {
                infer_digests.push(logits_digest(&report.logits));
                if k > 0 {
                    facts.infer_wall.0.push(wall);
                    facts.infer_sim_s = report.time;
                    facts.infer_buckets = report.buckets;
                }
                full_logits = Some(report.logits);
            }
            Err(e) => {
                infer_errors += 1;
                eprintln!("{}: infer epoch {k} failed: {e}", w.name);
            }
        }
    }
    tally.attempted += w.infers + 1;
    tally.failed += infer_errors;
    let infer_digest = infer_digests.first().copied().unwrap_or(0);
    checks.push(Check {
        name: "infer_digest_stable",
        ok: infer_errors == 0 && infer_digests.iter().all(|&d| d == infer_digest),
        detail: format!("{} epochs, digest {infer_digest:016x}", infer_digests.len()),
    });
    checks.push(Check {
        name: "infer_equals_train_forward",
        ok: train_forward.as_ref().is_ok_and(|&d| d == infer_digest),
        detail: match &train_forward {
            Ok(d) => format!("train forward {d:016x}, infer {infer_digest:016x}"),
            Err(e) => format!("train-session forward failed: {e}"),
        },
    });
    digests.push(("train_forward", train_forward.unwrap_or(0)));
    digests.push(("infer", infer_digest));
    facts.cache_resident_rows = session.cache().map_or(0, |c| {
        (0..crate::workloads::GPUS)
            .map(|i| c.resident_rows(i))
            .sum()
    });
    let full_logits = full_logits.unwrap_or_else(|| Matrix::zeros(0, 0));
    close_stage("infer", rec);

    // ---- serve: read-only queries, open loop on the simulated clock ----
    rec.enter("serve");
    let stream = gen::serve_stream(
        &dataset.graph,
        w,
        w.serve_queries,
        w.serve_rate_qps,
        &mut SeededRng::new(seed ^ gen::SERVE_STREAM),
    );
    let (h0, l0) = cache_counts(&session);
    {
        let admission = AdmissionControl::from_session(&session);
        let mut server = Server::new(&mut session, admission, BATCH_WINDOW);
        let items = stream.into_iter().map(WorkItem::Query).collect();
        facts.serve = drive(&mut server, items, Some(&full_logits), rec, "serving.step");
    }
    let (h1, l1) = cache_counts(&session);
    facts.cache_hit_rate_serve = hit_rate(h1 - h0, l1 - l0);
    tally.attempted += w.serve_queries;
    tally.failed += facts.serve.failed();
    checks.push(Check {
        name: "served_rows_equal_full_inference",
        ok: facts.serve.error.is_none()
            && facts.serve.wrong_rows == 0
            && facts.serve.rows_checked == (w.serve_queries - facts.serve.overloaded) * w.subset,
        detail: format!(
            "{} of {} rows differ{}",
            facts.serve.wrong_rows,
            facts.serve.rows_checked,
            facts
                .serve
                .error
                .as_ref()
                .map_or(String::new(), |e| format!("; step failed: {e}"))
        ),
    });
    close_stage("serve", rec);

    // ---- mixed: feature updates beside queries, FIFO commits ----
    rec.enter("mixed");
    let mut graph = DynamicGraph::from_dataset(&dataset);
    let items = gen::mixed_stream(
        &graph,
        w,
        w.mixed_items,
        w.mixed_updates(),
        DeltaMix::Feature,
        w.mixed_rate_qps,
        &mut SeededRng::new(seed ^ gen::MIXED_STREAM),
    );
    {
        let admission = AdmissionControl::from_session(&session);
        let mut server = Server::with_graph(&mut session, &mut graph, admission, BATCH_WINDOW);
        facts.mixed = drive(&mut server, items, None, rec, "serving.step");
    }
    tally.attempted += w.mixed_items;
    tally.failed += facts.mixed.failed();
    checks.push(Check {
        name: "mixed_stream_completes",
        ok: facts.mixed.error.is_none()
            && facts.mixed.update_latency_s.len() + facts.mixed.update_rejected
                == w.mixed_updates()
            && graph.epoch() as usize == facts.mixed.update_latency_s.len(),
        detail: format!(
            "{} queries, {} commits, graph epoch {}{}",
            facts.mixed.queries(),
            facts.mixed.update_latency_s.len(),
            graph.epoch(),
            facts
                .mixed
                .error
                .as_ref()
                .map_or(String::new(), |e| format!("; step failed: {e}"))
        ),
    });
    close_stage("mixed", rec);

    // ---- delta: structural batches without the queue ----
    rec.enter("delta");
    let batches = toggle_workload(
        graph.graph(),
        graph.features().cols(),
        w.delta_batches,
        EDITS_PER_BATCH,
        DeltaMix::Edge,
        &mut SeededRng::new(seed ^ gen::DELTA_STREAM),
    );
    let mut delta_errors = 0usize;
    for batch in &batches {
        let (staged, t_stage) = rec.time("delta.stage", || graph.stage(batch));
        let staged = match staged {
            Ok(staged) => staged,
            Err(e) => {
                delta_errors += 1;
                eprintln!("{}: delta batch rejected at staging: {e}", w.name);
                continue;
            }
        };
        let (report, t_apply) = rec.time("engine.apply_staged", || {
            session.apply_staged(&mut graph, staged)
        });
        match report {
            Ok(r) => {
                facts.delta_stage_wall.0.push(t_stage);
                facts.delta_apply_wall.0.push(t_apply);
                facts.delta_wall.0.push(t_stage + t_apply);
                facts.delta_sim_s.push(r.time);
                facts.delta_active_steps += r.active_steps;
                facts.delta_total_steps += r.total_steps;
                facts.delta_dirty_vertices += r.dirty_vertices;
                facts.delta_rebuilt_chunks += r.rebuilt_chunks;
                facts.delta_committed += 1;
            }
            Err(e) => {
                delta_errors += 1;
                eprintln!("{}: delta batch failed to apply: {e}", w.name);
            }
        }
    }
    tally.attempted += w.delta_batches;
    tally.failed += delta_errors;
    close_stage("delta", rec);
    let run_wall_s = stage_start;
    let rss = peak_rss_mb();

    // ---- after the clock stops: the patched logits must equal a full
    // recompute on the mutated graph (same session, every step replayed) ----
    let patched = logits_digest(session.logits());
    let recomputed = session.infer_epoch().map(|r| logits_digest(&r.logits));
    checks.push(Check {
        name: "patched_equals_full_recompute",
        ok: recomputed.as_ref().is_ok_and(|&d| d == patched),
        detail: match &recomputed {
            Ok(d) => format!("patched {patched:016x}, recomputed {d:016x}"),
            Err(e) => format!("recompute failed: {e}"),
        },
    });
    digests.push(("after_delta", patched));
    let stage_sum: f64 = stage_wall_s.iter().map(|(_, s)| s).sum();
    checks.push(Check {
        name: "stage_walls_sum_to_run_wall",
        ok: stages_sum_to(stage_sum, run_wall_s)
            && stage_wall_s.iter().map(|(name, _)| *name).eq(STAGES),
        detail: format!("stages {stage_sum:.6} s, run {run_wall_s:.6} s"),
    });

    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    let sampled = |name, unit, s: &Samples| Metric {
        name,
        unit,
        value: s.median_ms(),
        samples: Some(s.quartiles_ms()),
    };
    let plain = |name, unit, value| Metric {
        name,
        unit,
        value,
        samples: None,
    };
    let (n, q1, q3) = setup_wall.quartiles_ms();
    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setup_wall.0),
            samples: Some((n, q1 / 1e3, q3 / 1e3)),
        },
        sampled("train_epoch_wall_ms", "ms", &facts.train_wall),
        plain(
            "train_epoch_sim_ms",
            "ms",
            facts.train_sim_s.last().copied().unwrap_or(0.0) * 1e3,
        ),
        sampled("infer_wall_ms", "ms", &facts.infer_wall),
        plain("infer_sim_ms", "ms", facts.infer_sim_s * 1e3),
        plain(
            "serve_wall_ms_per_query",
            "ms",
            facts.serve.step_wall.sum() * 1e3 / w.serve_queries as f64,
        ),
        plain(
            "serve_sim_p50_ms",
            "ms",
            facts.serve.latency_percentile_ms(50.0),
        ),
        plain(
            "serve_sim_p90_ms",
            "ms",
            facts.serve.latency_percentile_ms(90.0),
        ),
        plain(
            "mixed_wall_ms_per_item",
            "ms",
            facts.mixed.step_wall.sum() * 1e3 / w.mixed_items as f64,
        ),
        plain(
            "mixed_query_sim_p90_ms",
            "ms",
            facts.mixed.latency_percentile_ms(90.0),
        ),
        plain(
            "mixed_update_sim_p50_ms",
            "ms",
            percentile(&facts.mixed.update_latency_s, 50.0) * 1e3,
        ),
        sampled("delta_wall_ms", "ms", &facts.delta_wall),
        plain("delta_sim_ms", "ms", median(&facts.delta_sim_s) * 1e3),
        plain("run_wall_s", "s", run_wall_s),
        plain("peak_rss_mb", "MB", rss),
    ];

    Outcome {
        metrics,
        failed_share,
        tally,
        checks,
        stage_wall_s,
        run_wall_s,
        digests,
        first_loss,
        last_loss,
        facts,
        dataset,
        session,
        graph,
        model_bytes,
    }
}

/// Whether the listed stage walls account for the run wall within 2 %.
pub fn stages_sum_to(stage_sum_s: f64, run_wall_s: f64) -> bool {
    run_wall_s > 0.0 && ((stage_sum_s - run_wall_s) / run_wall_s).abs() <= 0.02
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::time::Instant;

    #[test]
    fn stage_sum_tolerance_is_two_percent() {
        assert!(stages_sum_to(10.0, 10.0));
        assert!(stages_sum_to(9.85, 10.0));
        assert!(!stages_sum_to(9.7, 10.0));
        assert!(!stages_sum_to(0.0, 0.0));
    }

    #[test]
    fn failed_counts_typed_refusals_and_what_an_error_left_unanswered() {
        let mut s = DriveStats {
            items: 10,
            query_latency_s: vec![0.1; 7],
            update_latency_s: vec![0.2; 2],
            update_rejected: 1,
            ..DriveStats::default()
        };
        assert_eq!(s.failed(), 1);
        s.query_latency_s[0] = f64::INFINITY;
        s.overloaded = 1;
        assert_eq!(s.failed(), 2);
        assert_eq!(s.latency_percentile_ms(100.0), f64::INFINITY);
        // A hard error after 4 answers: the other 6 count as failed.
        let aborted = DriveStats {
            items: 10,
            query_latency_s: vec![0.1; 4],
            error: Some("boom".to_string()),
            ..DriveStats::default()
        };
        assert_eq!(aborted.failed(), 6);
    }

    /// The smallest whole lifecycle: every stage runs, every check holds,
    /// the stage walls add up, and all fifteen timed metrics are non-zero.
    #[test]
    fn tiny_lifecycle_passes_its_own_checks() {
        let w = workloads::by_name("rdt_gat_dense").unwrap().scaled(0.2);
        let w = Workload { setup_reps: 1, ..w };
        let mut rec = Recorder::new(Instant::now(), true);
        let out = run(&w, 3, &mut rec);
        for c in &out.checks {
            assert!(c.ok, "check {} failed: {}", c.name, c.detail);
        }
        assert_eq!(out.tally.failed, 0);
        assert_eq!(
            out.tally.attempted,
            w.epochs + 1 + w.infers + 1 + w.serve_queries + w.mixed_items + w.delta_batches
        );
        let names: Vec<&str> = out.stage_wall_s.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, STAGES);
        for m in &out.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{} = {}",
                m.name,
                m.value
            );
        }
        assert_eq!(out.metrics.len(), 15);
        for name in END_TO_END {
            assert!(
                out.metrics.iter().any(|m| m.name == name),
                "{name} not reported"
            );
        }
        let roots: Vec<&str> = rec
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        assert_eq!(roots, STAGES);
    }
}
