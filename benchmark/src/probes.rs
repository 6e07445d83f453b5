//! The traced run's second half: after the lifecycle, call each layer's
//! public functions directly under a `probes` parent span and turn the
//! timings, together with what the lifecycle observed, into the
//! per-layer metrics. Nothing here feeds an end-to-end metric.
//!
//! Layers are named after the workspace's modules: `datasets`, `graph`,
//! `partition`, `reorg` and `cost` and `engine` (all three in
//! `hongtu-core`), `cache`, `verify`, `nn`, `tensor`, `sim`, `stream`,
//! `parallel`, `serving`, `delta`.

use crate::gen;
use crate::json::Json;
use crate::layers;
use crate::lifecycle::{drive, try_new_session, Check, DriveStats, Facts, Outcome};
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile};
use crate::workloads::{Workload, BATCH_WINDOW, CHUNKS, EDITS_PER_BATCH, GPUS, HIDDEN};
use hongtu_cache::{load_sets, CachePlan, LoadPattern};
use hongtu_core::cli::logits_digest;
use hongtu_core::{
    comm_cost_cached, reorganize_guarded_cached, CommMode, CommVolumes, DedupPlan, ExecutionMode,
    GpuBufferPlan, MemoryStrategy, Mode, OverlapMode, ServeMask, Session,
};
use hongtu_delta::{toggle_workload, DeltaMix};
use hongtu_nn::{load_model, LayerGrads};
use hongtu_partition::multilevel::metis_like;
use hongtu_partition::replication::replication_factor_chunks;
use hongtu_partition::{ChunkSubgraph, TwoLevelPartition};
use hongtu_serving::{AdmissionControl, Server, WorkItem};
use hongtu_sim::{MachineConfig, Trace};
use hongtu_tensor::{ops::softmax_in_place, Matrix, SeededRng};
use hongtu_verify::{verify_all, verify_cone, verify_trace, ConeDir};

const MIB: f64 = (1u64 << 20) as f64;
const F32: usize = std::mem::size_of::<f32>();
/// Epochs each probe session runs for the `stream.*` / `parallel.*` A/B.
const PROBE_EPOCHS: usize = 3;
/// Repetitions of each micro-probe (kernels, masks); the median is kept.
const REPS: usize = 5;
/// The structural-update stream through one live `Server`.
const STRUCTURAL_ITEMS: usize = 24;
const STRUCTURAL_UPDATES: usize = 8;

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Layers {
    pub metrics: Vec<LayerMetric>,
    pub checks: Vec<Check>,
}

/// `PROBE_EPOCHS` training epochs on a session built from the shared
/// base plan: per-epoch host seconds and simulated seconds.
struct ProbeRun {
    session: Session,
    wall_s: Vec<f64>,
    sim_s: Vec<f64>,
}

/// What the probes share: the workload, the recorder, and what has been
/// reported and checked so far.
struct Probes<'a> {
    w: &'a Workload,
    seed: u64,
    rec: &'a mut Recorder,
    machine: MachineConfig,
    reported: Vec<(&'static str, f64)>,
    checks: Vec<Check>,
}

impl Probes<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.reported.push((name, value));
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// Median over `REPS` timed calls of `f`, in seconds.
    fn median_time<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let (r, t) = self.rec.time(name, &mut f);
                std::hint::black_box(r);
                t
            })
            .collect();
        median(&times)
    }

    /// Incremental = rebuild: a fresh inference session on the mutated
    /// graph, same model, must reproduce the patched logits.
    fn rebuild_check(&mut self, out: &Outcome) {
        let w = self.w;
        let patched = logits_digest(out.session.logits());
        let rebuilt_ds = out.graph.to_dataset(&out.dataset);
        let rebuilt = load_model(&out.model_bytes[..])
            .map_err(|e| e.to_string())
            .and_then(|model| {
                let (session, _) = self.rec.time("engine.session_new", || {
                    try_new_session(w, &rebuilt_ds, Mode::Infer)
                });
                let mut session = session.map_err(|e| e.to_string())?;
                session.set_model(model);
                let (report, _) = self
                    .rec
                    .time("engine.infer_epoch", || session.infer_epoch());
                report
                    .map(|r| logits_digest(&r.logits))
                    .map_err(|e| e.to_string())
            });
        self.check(
            "incremental_equals_rebuild",
            rebuilt.as_ref().is_ok_and(|&d| d == patched),
            match &rebuilt {
                Ok(d) => format!("patched {patched:016x}, rebuilt {d:016x}"),
                Err(e) => format!("rebuild failed: {e}"),
            },
        );
    }

    /// `partition`, `reorg`, `verify` passes 1–4: the steps of
    /// `Session::new` called one by one on the same inputs. Returns the
    /// base (not yet reorganized) plan the probe sessions are built from.
    fn planning(&mut self, out: &Outcome) -> TwoLevelPartition {
        let w = self.w;
        let graph = &out.dataset.graph;
        let seed = out.dataset.seed;
        let feat_row = out.dataset.feat_dim() * F32;
        let (_, t) = self
            .rec
            .time("partition.multilevel", || metis_like(graph, GPUS, seed));
        self.put("partition.multilevel_ms", t * 1e3);
        let (base_plan, t) = self.rec.time("partition.two_level_build", || {
            TwoLevelPartition::build(graph, GPUS, CHUNKS, seed)
        });
        self.put("partition.two_level_build_ms", t * 1e3);

        // The rough cache row budget Session::with_plan hands the Eq. 4 guard.
        let cache_budget = if w.cache_policy().enabled() {
            self.machine.gpu_memory / 2 / feat_row.max(1)
        } else {
            0
        };
        let machine = self.machine.clone();
        let eq4 = |plan: &TwoLevelPartition| {
            let volumes = CommVolumes::from_plan(&DedupPlan::build(plan));
            comm_cost_cached(volumes, cache_budget, &machine, feat_row)
        };
        let eq4_before = eq4(&base_plan);
        let (plan, t_reorg) = if w.reorganize && w.comm != CommMode::Vanilla {
            self.rec.time("reorg.reorganize", || {
                reorganize_guarded_cached(base_plan.clone(), &machine, cache_budget)
            })
        } else {
            (base_plan.clone(), 0.0)
        };
        self.put("reorg.reorganize_ms", t_reorg * 1e3);
        self.put("reorg.eq4_cost_before_s", eq4_before);
        self.put("reorg.eq4_cost_after_s", eq4(&plan));

        let (dedup, t) = self
            .rec
            .time("partition.dedup_build", || DedupPlan::build(&plan));
        self.put("partition.dedup_build_ms", t * 1e3);
        let (bufplans, t) = self.rec.time("partition.bufplan_build", || {
            GpuBufferPlan::build_all(&plan, &dedup)
        });
        self.put("partition.bufplan_build_ms", t * 1e3);
        self.put("partition.v_ori_rows", dedup.v_ori() as f64);
        self.put("partition.v_p2p_rows", dedup.v_p2p() as f64);
        self.put("partition.v_ru_rows", dedup.v_ru() as f64);
        self.put(
            "partition.replication_factor",
            replication_factor_chunks(graph, &plan),
        );
        let (report, t) = self.rec.time("verify.plan_passes", || {
            verify_all(graph, &plan, &dedup, &bufplans)
        });
        self.put("verify.plan_passes_ms", t * 1e3);
        self.check(
            "plan_passes_clean",
            report.is_ok(),
            format!("{} diagnostics", report.diagnostics.len()),
        );
        base_plan
    }

    fn probe_session(
        &mut self,
        out: &Outcome,
        plan: &TwoLevelPartition,
        exec: ExecutionMode,
        overlap: OverlapMode,
    ) -> ProbeRun {
        let w = self.w;
        let cfg = w.config_with(Mode::Train, exec, overlap);
        let (session, _) = self.rec.time("engine.session_with_plan", || {
            Session::with_plan(&out.dataset, w.model, HIDDEN, w.layers, plan.clone(), cfg)
                .unwrap_or_else(|e| panic!("{}: probe session failed to build: {e}", w.name))
        });
        let mut run = ProbeRun {
            session,
            wall_s: Vec::new(),
            sim_s: Vec::new(),
        };
        let mut trainer = run.session.trainer();
        for _ in 0..PROBE_EPOCHS {
            let (report, wall) = self.rec.time("engine.train_epoch", || trainer.epoch());
            let report = report.unwrap_or_else(|e| panic!("{}: probe epoch failed: {e}", w.name));
            run.wall_s.push(wall);
            run.sim_s.push(report.time);
        }
        run
    }

    /// `stream`, `parallel`: three sessions off the shared base plan — A is
    /// the workload's own configuration, B flips overlap, C flips the
    /// executor. Returns A for the probes that need a warm session.
    fn ab_sessions(&mut self, out: &Outcome, base_plan: &TwoLevelPartition) -> Session {
        let w = self.w;
        let flip_overlap = match w.overlap {
            OverlapMode::Off => OverlapMode::DoubleBuffer,
            OverlapMode::DoubleBuffer => OverlapMode::Off,
        };
        let flip_exec = match w.exec {
            ExecutionMode::Sequential => ExecutionMode::Parallel,
            ExecutionMode::Parallel => ExecutionMode::Sequential,
        };
        let a = self.probe_session(out, base_plan, w.exec, w.overlap);
        let b = self.probe_session(out, base_plan, w.exec, flip_overlap);
        let (sim_a, sim_b) = (a.sim_s[PROBE_EPOCHS - 1], b.sim_s[PROBE_EPOCHS - 1]);
        let (sim_off, sim_db, db_session) = match w.overlap {
            OverlapMode::Off => (sim_a, sim_b, &b.session),
            OverlapMode::DoubleBuffer => (sim_b, sim_a, &a.session),
        };
        let staging_bytes: usize = db_session
            .plans()
            .staging
            .map_or(0, |plans| plans.iter().map(|p| p.total_bytes()).sum());
        self.put("stream.overlap_sim_speedup", sim_off / sim_db);
        self.put("stream.staging_mb", staging_bytes as f64 / MIB);
        drop(b);

        let c = self.probe_session(out, base_plan, flip_exec, w.overlap);
        // The first epoch is cold; the rest are the sample.
        let (wall_a, wall_c) = (median(&a.wall_s[1..]), median(&c.wall_s[1..]));
        let (wall_seq, wall_par) = match w.exec {
            ExecutionMode::Sequential => (wall_a, wall_c),
            ExecutionMode::Parallel => (wall_c, wall_a),
        };
        self.put("parallel.par_over_seq_wall", wall_par / wall_seq);
        self.put(
            "parallel.threads",
            hongtu_parallel::configured_threads() as f64,
        );
        a.session
    }

    /// `sim`, `verify` passes 5–11 on the warm probe session. Returns the
    /// events one traced epoch recorded.
    fn sim_and_verify(&mut self, a: &mut Session, facts: &Facts, query: &[usize]) -> usize {
        a.machine_mut().enable_unbounded_trace();
        let traced_epoch = a.trainer().epoch();
        let trace = a.machine_mut().replace_trace(Trace::disabled());
        let events = trace.len();
        let (report, t) = self.rec.time("verify.trace_pass", || verify_trace(&trace));
        drop(trace);
        self.check(
            "trace_pass_clean",
            traced_epoch.is_ok() && report.is_ok(),
            format!("{events} events, {} diagnostics", report.diagnostics.len()),
        );
        self.put("verify.trace_pass_ms", t * 1e3);
        self.put("verify.trace_events_per_s", events as f64 / t.max(1e-12));

        let tb = facts.train_buckets;
        self.put("sim.events_per_epoch", events as f64);
        self.put("sim.h2d_bytes_per_epoch", tb.bytes_h2d as f64);
        self.put("sim.d2h_bytes_per_epoch", tb.bytes_d2h as f64);
        self.put("sim.d2d_bytes_per_epoch", tb.bytes_d2d as f64);
        self.put("sim.reuse_bytes_per_epoch", tb.bytes_reuse as f64);
        self.put("sim.time_gpu_s", tb.gpu);
        self.put("sim.time_h2d_s", tb.h2d);
        self.put("sim.time_d2d_s", tb.d2d);
        self.put("sim.time_cpu_s", tb.cpu);
        self.put("sim.peak_gpu_mb", facts.train_peak_gpu_bytes as f64 / MIB);
        self.put("sim.peak_host_mb", facts.train_peak_host_bytes as f64 / MIB);

        let (report, t) = self
            .rec
            .time("verify.schedule_passes", || a.certify_schedule(None));
        let schedule_ok = report.as_ref().is_ok_and(|r| r.is_ok());
        self.put("verify.schedule_passes_ms", t * 1e3);
        let (report, t) = self
            .rec
            .time("verify.dataflow_pass", || a.certify_dataflow());
        let dataflow_ok = report.as_ref().is_ok_and(|r| r.is_ok());
        self.put("verify.dataflow_pass_ms", t * 1e3);
        let mask = ServeMask::from_queries(a.plans().partition, self.w.layers, query);
        let t = self.median_time("verify.cone_pass", || {
            verify_cone(mask.grid(), ConeDir::Downward)
        });
        self.put("verify.cone_pass_ms", t * 1e3);
        let (report, t) = self.rec.time("verify.cache_pass", || a.certify_cache());
        self.put("verify.cache_pass_ms", t * 1e3);
        self.check(
            "schedule_dataflow_cache_passes_clean",
            schedule_ok && dataflow_ok && report.is_ok(),
            format!(
                "schedule {schedule_ok}, dataflow {dataflow_ok}, cache {}",
                report.is_ok()
            ),
        );
        events
    }

    /// `cost`: Eq. 4 for one forward sweep against what the simulator then
    /// charges an inference epoch (model vs simulator, not silicon).
    fn cost(&mut self, a: &mut Session) {
        let plans = a.plans();
        let raw = CommVolumes::from_plan(plans.dedup);
        // Without inter-GPU dedup every row is a host load; without
        // reuse every deduplicated row is.
        let volumes = match self.w.comm {
            CommMode::Vanilla => CommVolumes {
                v_p2p: raw.v_ori,
                v_ru: raw.v_ori,
                ..raw
            },
            CommMode::P2p => CommVolumes {
                v_ru: raw.v_p2p,
                ..raw
            },
            CommMode::P2pRu => raw,
        };
        let cached = plans.cache.map_or(0, CachePlan::total_rows);
        let predicted: f64 = (0..self.w.layers)
            .map(|l| {
                let row = a.model().layer(l).in_dim() * F32;
                let cached = if l == 0 { cached } else { 0 };
                comm_cost_cached(volumes, cached, &self.machine, row)
            })
            .sum();
        let charged = a
            .infer_epoch()
            .map_or(0.0, |r| r.buckets.h2d + r.buckets.d2d + r.buckets.reuse);
        self.put("cost.eq4_pred_s", predicted);
        self.put("cost.sim_charged_s", charged);
        let rel_err = if charged > 0.0 {
            (predicted - charged) / charged
        } else {
            0.0
        };
        self.put("cost.eq4_rel_err", rel_err);
    }

    /// `cache`: plan construction as the session's own installation does
    /// it, plus what the lifecycle saw of residency and hits.
    fn cache(&mut self, a: &Session, out: &Outcome) {
        let plans = a.plans();
        let build_s = match plans.cache {
            None => 0.0,
            Some(cache_plan) => {
                let pattern = match self.w.comm {
                    CommMode::Vanilla => LoadPattern::Vanilla,
                    CommMode::P2p => LoadPattern::P2p,
                    CommMode::P2pRu => LoadPattern::P2pRu,
                };
                let bound = a.static_memory_bound();
                let headroom: Vec<usize> = (0..GPUS)
                    .map(|i| {
                        let sans_cache = bound.gpu[i] - cache_plan.per_gpu[i].bytes;
                        self.machine.gpu_memory.saturating_sub(sans_cache)
                    })
                    .collect();
                let graph = &out.dataset.graph;
                let degrees: Vec<u32> = (0..graph.num_vertices())
                    .map(|u| graph.out_degree(u as u32) as u32)
                    .collect();
                let policy = self.w.cache_policy();
                let slot = out.dataset.feat_dim() * F32;
                self.rec
                    .time("cache.plan_build", || {
                        let sets = load_sets(plans.partition, plans.dedup, plans.buffers, pattern);
                        CachePlan::build(&sets, &degrees, &headroom, slot, policy.as_ref())
                    })
                    .1
            }
        };
        self.put("cache.plan_build_ms", build_s * 1e3);
        self.put("cache.resident_rows", out.facts.cache_resident_rows as f64);
        self.put("cache.hit_rate_train", out.facts.cache_hit_rate_train);
        self.put("cache.hit_rate_serve", out.facts.cache_hit_rate_serve);
    }

    /// The kernel work of one training epoch, replayed without the engine:
    /// for every chunk × layer of the session's partition, `gather_rows` +
    /// `forward`, then the backward variant the memory strategy uses.
    /// Returns `(forward seconds, backward seconds, edges aggregated)`.
    fn kernel_replay(&mut self, session: &Session, features: &Matrix) -> (f64, f64, usize) {
        let plan = session.plans().partition;
        let model = session.model();
        let hybrid = session.config().memory == MemoryStrategy::Hybrid;
        let (mut fwd_s, mut bwd_s, mut edges) = (0.0, 0.0, 0usize);
        let mut h = features.clone();
        for l in 0..model.num_layers() {
            let layer = model.layer(l);
            let mut grads = LayerGrads::zeros_for(layer);
            let mut next = Matrix::zeros(h.rows(), layer.out_dim());
            for chunk in plan.all_chunks() {
                let nbr_idx: Vec<usize> = chunk.neighbors.iter().map(|&v| v as usize).collect();
                let dest_idx: Vec<usize> = chunk.dests.iter().map(|&v| v as usize).collect();
                let ((h_nbr, f), t) = self.rec.time("nn.forward", || {
                    let h_nbr = h.gather_rows(&nbr_idx);
                    let f = layer.forward(chunk, &h_nbr);
                    (h_nbr, f)
                });
                fwd_s += t;
                edges += chunk.num_edges();
                let grad_out = Matrix::full(chunk.num_dests(), layer.out_dim(), 1e-3);
                let (grad_nbr, t) = self.rec.time("nn.backward", || {
                    if hybrid && layer.supports_agg_cache() {
                        let agg = f
                            .agg
                            .as_ref()
                            .expect("cache-capable layers emit an aggregate");
                        layer.backward_from_agg(chunk, agg, &grad_out, &mut grads)
                    } else {
                        layer.backward_from_input(chunk, &h_nbr, &grad_out, &mut grads)
                    }
                });
                bwd_s += t;
                std::hint::black_box(grad_nbr);
                next.scatter_rows(&dest_idx, &f.out);
            }
            h = next;
        }
        (fwd_s, bwd_s, edges)
    }

    /// `nn`: three replays; returns `(forward, backward)` kernel seconds.
    fn nn(&mut self, a: &Session, features: &Matrix) -> (f64, f64) {
        let replays: Vec<(f64, f64, usize)> =
            (0..3).map(|_| self.kernel_replay(a, features)).collect();
        // The least disturbed replay is the best estimate of pure kernel
        // time (and keeps `engine.*_non_kernel_ms` from going negative on
        // a kernel-bound workload because one replay was interrupted).
        let fwd_s = replays.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        let bwd_s = replays.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        self.put("nn.fwd_kernel_ms", fwd_s * 1e3);
        self.put("nn.bwd_kernel_ms", bwd_s * 1e3);
        self.put("nn.train_kernel_ms", (fwd_s + bwd_s) * 1e3);
        self.put("nn.edges_per_s", replays[0].2 as f64 / fwd_s.max(1e-12));
        (fwd_s, bwd_s)
    }

    /// `tensor`: the four kernels at the shape of `chunk`, the workload's
    /// largest, with their operation counts.
    fn tensor(&mut self, chunk: &ChunkSubgraph, features: &Matrix) {
        let mut rng = SeededRng::new(self.seed ^ gen::PROBE_STREAM);
        let nbr_idx: Vec<usize> = chunk.neighbors.iter().map(|&v| v as usize).collect();
        let t = self.median_time("tensor.gather_rows", || features.gather_rows(&nbr_idx));
        self.put("tensor.gather_rows_ms", t * 1e3);
        let h_nbr = features.gather_rows(&nbr_idx);
        let weight = Matrix::from_fn(features.cols(), HIDDEN, |_, _| rng.normal() * 0.1);
        let t = self.median_time("tensor.matmul", || h_nbr.matmul(&weight));
        self.put("tensor.matmul_ms", t * 1e3);
        let adjacency = chunk.to_csr_matrix();
        let t = self.median_time("tensor.spmm", || adjacency.spmm(&h_nbr));
        self.put("tensor.spmm_ms", t * 1e3);
        let scores: Vec<f32> = (0..chunk.num_edges()).map(|_| rng.normal()).collect();
        let t = self.median_time("tensor.softmax", || {
            let mut s = scores.clone();
            for k in 0..chunk.num_dests() {
                softmax_in_place(&mut s[chunk.in_edges_of(k)]);
            }
            s
        });
        self.put("tensor.softmax_ms", t * 1e3);
        let rows = chunk.num_neighbors();
        self.put(
            "tensor.matmul_flops",
            2.0 * rows as f64 * features.cols() as f64 * HIDDEN as f64,
        );
        self.put("tensor.spmm_nnz", chunk.num_edges() as f64);
        self.put("tensor.softmax_elems", chunk.num_edges() as f64);
        self.put("tensor.gather_rows_rows", rows as f64);
    }

    /// `engine`: what the lifecycle saw, minus the kernels.
    fn engine(&mut self, facts: &Facts, fwd_s: f64, bwd_s: f64, events: usize) {
        let train_wall_ms = facts.train_wall.median_ms();
        self.put("engine.session_new_ms", facts.session_new_wall.median_ms());
        self.put(
            "engine.infer_session_new_ms",
            facts.infer_session_new_s * 1e3,
        );
        self.put(
            "engine.train_epoch_wall_p90_ms",
            percentile(&facts.train_wall.0, 90.0) * 1e3,
        );
        self.put(
            "engine.train_non_kernel_ms",
            train_wall_ms - (fwd_s + bwd_s) * 1e3,
        );
        self.put(
            "engine.infer_non_kernel_ms",
            facts.infer_wall.median_ms() - fwd_s * 1e3,
        );
        self.put(
            "engine.host_us_per_sim_event",
            train_wall_ms * 1e3 / (events as f64).max(1.0),
        );
        let ratio = |active: usize, total: usize| active as f64 / total.max(1) as f64;
        self.put(
            "engine.serve_active_step_ratio",
            ratio(
                facts.serve.query_active_steps,
                facts.serve.query_total_steps,
            ),
        );
        self.put(
            "engine.delta_active_step_ratio",
            ratio(facts.delta_active_steps, facts.delta_total_steps),
        );
        self.put(
            "engine.delta_rebuilt_chunks",
            facts.delta_rebuilt_chunks as f64 / facts.delta_committed.max(1) as f64,
        );
    }

    /// A read-only stream of `count` queries at `rate` through a fresh
    /// `Server` on the lifecycle's session, checked against `reference`.
    fn serve_stream(
        &mut self,
        out: &mut Outcome,
        count: usize,
        rate: f64,
        reference: &Matrix,
    ) -> DriveStats {
        let stream = gen::serve_stream(
            out.graph.graph(),
            self.w,
            count,
            rate,
            &mut SeededRng::new(self.seed ^ gen::PROBE_STREAM),
        );
        let admission = AdmissionControl::from_session(&out.session);
        let mut server = Server::new(&mut out.session, admission, BATCH_WINDOW);
        let items = stream.into_iter().map(WorkItem::Query).collect();
        drive(
            &mut server,
            items,
            Some(reference),
            self.rec,
            "serving.step",
        )
    }

    /// `serving`: the front door's own arithmetic, what `serve` and `mixed`
    /// saw, then the rate probe on the lifecycle's session (whose logits
    /// the final recompute left current for the mutated graph).
    fn serving(&mut self, out: &mut Outcome, queries: &[Vec<usize>]) {
        let w = self.w;
        {
            let session = &out.session;
            let admission = AdmissionControl::from_session(session);
            let mut k = 0;
            let t = self.median_time("serving.mask_build", || {
                k += 1;
                ServeMask::from_queries(session.plans().partition, w.layers, &queries[k - 1])
            });
            self.put("serving.mask_build_us", t * 1e6);
            let mask = ServeMask::from_queries(session.plans().partition, w.layers, &queries[0]);
            let t = self.median_time("serving.admit", || admission.admits(session, &mask));
            self.put("serving.admit_us", t * 1e6);
        }
        let serve = out.facts.serve.clone();
        let mixed = &out.facts.mixed;
        self.put("serving.sweeps", serve.sweeps as f64);
        self.put(
            "serving.mean_batch_size",
            serve.batched as f64 / serve.sweeps.max(1) as f64,
        );
        self.put(
            "serving.step_wall_p50_ms",
            percentile(&serve.step_wall.0, 50.0) * 1e3,
        );
        self.put(
            "serving.step_wall_p90_ms",
            percentile(&serve.step_wall.0, 90.0) * 1e3,
        );
        self.put(
            "serving.rejects",
            (serve.overloaded + mixed.overloaded + mixed.update_rejected) as f64,
        );
        self.put(
            "serving.mixed_query_sim_p90_ms",
            mixed.latency_percentile_ms(90.0),
        );
        self.put(
            "serving.mixed_update_sim_p50_ms",
            percentile(&mixed.update_latency_s, 50.0) * 1e3,
        );

        let reference = out.session.logits().clone();
        // A rate so low that no two queries ever share a sweep: its median
        // latency is the single-query sweep the frozen rates were
        // calibrated on.
        let single = self.serve_stream(out, REPS, 1.0, &reference);
        let half = self.serve_stream(out, w.serve_queries, 0.5 * w.serve_rate_qps, &reference);
        let more = self.serve_stream(out, w.serve_queries, 1.5 * w.serve_rate_qps, &reference);
        self.put(
            "serving.probe_sweep_sim_ms",
            single.latency_percentile_ms(50.0),
        );
        self.put(
            "serving.p90_at_0.5x_rate_ms",
            half.latency_percentile_ms(90.0),
        );
        self.put(
            "serving.p90_at_1x_rate_ms",
            serve.latency_percentile_ms(90.0),
        );
        self.put(
            "serving.p90_at_1.5x_rate_ms",
            more.latency_percentile_ms(90.0),
        );
        let highest = [(1.5, &more), (1.0, &serve), (0.5, &half)]
            .into_iter()
            .find(|(_, s)| meets_limit(s, w.latency_limit_s))
            .map_or(0.0, |(factor, _)| factor * w.serve_rate_qps);
        self.put("serving.max_rate_under_limit_qps", highest);
        self.check(
            "probe_streams_serve_exact_rows",
            [&single, &half, &more]
                .iter()
                .all(|s| s.error.is_none() && s.wrong_rows == 0),
            format!(
                "{} rows checked",
                single.rows_checked + half.rows_checked + more.rows_checked
            ),
        );
    }

    /// `delta`: what the `delta` stage saw, plus `commit` on its own —
    /// it cannot be timed through `apply_staged`, so on a copy of the graph.
    fn delta(&mut self, out: &Outcome) {
        let facts = &out.facts;
        self.put("delta.stage_us", facts.delta_stage_wall.median_ms() * 1e3);
        self.put("delta.apply_wall_ms", facts.delta_apply_wall.median_ms());
        self.put(
            "delta.dirty_vertices_mean",
            facts.delta_dirty_vertices as f64 / facts.delta_committed.max(1) as f64,
        );
        let mut copy = out.graph.clone();
        let batches = toggle_workload(
            copy.graph(),
            copy.features().cols(),
            REPS,
            EDITS_PER_BATCH,
            DeltaMix::Edge,
            &mut SeededRng::new(self.seed ^ gen::PROBE_STREAM),
        );
        let mut commit_s = Vec::new();
        for batch in &batches {
            if let Ok(staged) = copy.stage(batch) {
                commit_s.push(self.rec.time("delta.commit", || copy.commit(staged)).1);
            }
        }
        self.put("delta.commit_us", median(&commit_s) * 1e6);
    }

    /// `serving`, last because it wears the session out: structural
    /// updates through one live `Server`, whose admission budget was
    /// snapshotted before the topology grew.
    fn structural_rejects(&mut self, out: &mut Outcome) {
        let stream = gen::mixed_stream(
            &out.graph,
            self.w,
            STRUCTURAL_ITEMS,
            STRUCTURAL_UPDATES,
            DeltaMix::Edge,
            self.w.mixed_rate_qps,
            &mut SeededRng::new(self.seed ^ gen::PROBE_STREAM),
        );
        let admission = AdmissionControl::from_session(&out.session);
        let mut server =
            Server::with_graph(&mut out.session, &mut out.graph, admission, BATCH_WINDOW);
        let stats = drive(&mut server, stream, None, self.rec, "serving.step");
        self.put(
            "serving.structural_reject_share",
            (stats.overloaded + stats.update_rejected) as f64 / STRUCTURAL_ITEMS as f64,
        );
    }
}

/// Whether a served stream met `limit_s`: its p90 within the limit, and
/// no growing backlog — the p90 of the last quarter of arrivals, taken
/// alone, within it too.
fn meets_limit(stats: &DriveStats, limit_s: f64) -> bool {
    let n = stats.query_latency_s.len();
    let tail = &stats.query_latency_s[n - n / 4..];
    percentile(&stats.query_latency_s, 90.0) <= limit_s && percentile(tail, 90.0) <= limit_s
}

pub fn run(w: &Workload, seed: u64, out: &mut Outcome, rec: &mut Recorder) -> Layers {
    let lifecycle_spans = rec.spans().len();
    rec.enter("probes");
    let mut p = Probes {
        w,
        seed,
        rec,
        machine: w.config(Mode::Train).machine,
        reported: Vec::new(),
        checks: Vec::new(),
    };
    let facts = out.facts.clone();
    let queries: Vec<Vec<usize>> = {
        let mut rng = SeededRng::new(seed ^ gen::PROBE_STREAM);
        (0..REPS)
            .map(|_| gen::query_vertices(&out.dataset.graph, w.queries, w.subset, &mut rng))
            .collect()
    };

    p.rebuild_check(out);
    p.put("datasets.load_ms", facts.load_wall.median_ms());
    p.put("graph.vertices", out.dataset.graph.num_vertices() as f64);
    p.put("graph.edges", out.dataset.graph.num_edges() as f64);
    let base_plan = p.planning(out);
    let mut a = p.ab_sessions(out, &base_plan);
    drop(base_plan);
    let events = p.sim_and_verify(&mut a, &facts, &queries[0]);
    p.cost(&mut a);
    p.cache(&a, out);
    let (fwd_s, bwd_s) = p.nn(&a, &out.dataset.features);
    let largest = a
        .plans()
        .partition
        .all_chunks()
        .max_by_key(|c| c.num_edges())
        .expect("a partition has chunks");
    p.tensor(largest, &out.dataset.features);
    drop(a);
    p.engine(&facts, fwd_s, bwd_s, events);
    p.serving(out, &queries);
    p.delta(out);
    p.structural_rejects(out);
    let Probes {
        rec,
        mut reported,
        checks,
        ..
    } = p;
    rec.exit();

    // ---- bench: what keeping spans cost the lifecycle ----
    let overhead_s = lifecycle_spans as f64 * Recorder::calibrate_span_cost_ns() * 1e-9;
    reported.push((
        "bench.trace_overhead_pct",
        100.0 * overhead_s / out.run_wall_s.max(1e-12),
    ));
    reported.push(("bench.lifecycle_spans", lifecycle_spans as f64));

    // Report in catalogue order; a name the catalogue lacks, or one it
    // has and the probes forgot, is a bug in the benchmark itself.
    for (name, _) in &reported {
        assert!(
            layers::find(name).is_some(),
            "{name} is not in the catalogue"
        );
    }
    let metrics = layers::CATALOGUE
        .iter()
        .map(|spec| LayerMetric {
            name: spec.name,
            unit: spec.unit,
            value: reported
                .iter()
                .find(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("{} was never reported", spec.name))
                .1,
        })
        .collect();
    Layers { metrics, checks }
}

pub fn to_json(layers: &Layers) -> Json {
    let mut j = Json::obj();
    for m in &layers.metrics {
        j.set(
            m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    j
}

/// Prints the probes' checks and every per-layer metric, then total and
/// self time per span name.
pub fn print(layers: &Layers, rec: &Recorder) {
    for c in &layers.checks {
        println!("{c}");
    }
    println!("-- per-layer metrics (traced run): value, unit, better, should move");
    for (m, spec) in layers.metrics.iter().zip(layers::CATALOGUE) {
        println!(
            "{:<36} {:>18.6} {:<6} {:<7} {}",
            m.name, m.value, m.unit, spec.better, spec.moves
        );
    }
    println!("-- spans: calls, total ms, self ms (duration minus what child spans cover)");
    for (name, calls, total_ns, self_ns) in spans::by_name(rec.spans()) {
        println!(
            "{:<36} {:>6} {:>14.3} {:>14.3}",
            name,
            calls,
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stream_meets_the_limit_only_without_a_growing_backlog() {
        let steady = DriveStats {
            query_latency_s: vec![1.0; 100],
            ..DriveStats::default()
        };
        assert!(meets_limit(&steady, 1.0));
        assert!(!meets_limit(&steady, 0.9));
        // Overall p90 fine (9 late of 100), but they are the last nine:
        // the queue was growing when the stream ended.
        let mut growing = vec![0.1; 100];
        for x in growing.iter_mut().skip(91) {
            *x = 5.0;
        }
        assert_eq!(percentile(&growing, 90.0), 0.1);
        let growing = DriveStats {
            query_latency_s: growing,
            ..DriveStats::default()
        };
        assert!(!meets_limit(&growing, 1.0));
    }
}
