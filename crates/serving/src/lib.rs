//! Online serving layer over a HongTu [`Session`]: a FIFO queue of
//! vertex-subset logit queries, batch formation that packs concurrent
//! requests into one forward sweep packed from the union of their exact
//! ≤ L-hop dependency cones ([`Cone`]), and admission control that
//! holds every formed batch to a per-GPU budget — by default the staging
//! budget ([`Session::staging_budget`]) — a request whose cone cannot fit is
//! answered with a typed [`Overloaded`] response instead of OOM-ing the
//! executor.
//!
//! Batch formation is FIFO and non-overtaking: requests are packed
//! oldest-first; the first request that does not fit with the
//! accumulated batch closes the batch and stays at the queue head for
//! the next sweep, so a large request can delay but never be starved by
//! later small ones. Only a request that exceeds the budget *alone* —
//! and therefore can never be served — is rejected; a malformed one (no
//! vertices, or an id the graph does not have) is bounced as a typed
//! [`InvalidRequest`] before it is priced.
//!
//! The queue also accepts graph *updates* ([`UpdateRequest`]): typed
//! delta batches (`hongtu-delta`) committed through the session's
//! incremental cone-local recompute ([`Session::apply_staged`]). Commit
//! semantics are FIFO: an update at the queue head is applied alone —
//! queries never overtake it — so a query's logits reflect exactly the
//! updates enqueued (and committed) before it. Admission prices an
//! update's *recompute* cone (the exact out-edge cone of its dirty
//! vertices, [`ServeMask::from_dirty`]) against the same budget as
//! query cones; an update whose cone cannot fit, or whose delta batch
//! is invalid against the current topology, is answered with a typed
//! [`UpdateRejected`] and commits nothing.
//!
//! [`run_open_loop`] drives a server with a synthetic open-loop
//! workload ([`poisson_workload`]) on the simulated clock and reports
//! latency percentiles, throughput, the batch-size histogram, and the
//! admission-reject rate, as the `infer --serve` CLI prints them.
//! [`run_mixed_open_loop`] does the same for an
//! interleaved update + query workload ([`mixed_workload`]).

#![forbid(unsafe_code)]

use hongtu_core::{Cone, ServeMask, Session};
use hongtu_delta::{toggle_workload, Delta, DeltaError, DeltaMix, DynamicGraph};
use hongtu_sim::SimError;
use hongtu_tensor::{Matrix, SeededRng};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// One vertex-subset logit query.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Queried vertex ids (global, non-empty; anything else is bounced as
    /// [`InvalidRequest`]).
    pub vertices: Vec<usize>,
    /// Arrival time on the simulated clock, in seconds.
    pub arrival: f64,
}

/// Typed admission rejection: the request's own dependency cone exceeds
/// the per-GPU staging budget, so no sweep — batched or alone — could
/// run it without overflowing the staging the session was sized for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overloaded {
    /// Id of the rejected request.
    pub id: u64,
    /// Per-GPU staging cost of the request's cone, in bytes.
    pub cone_bytes: Vec<usize>,
    /// Per-GPU budget the cone was held against, in bytes.
    pub budget_bytes: Vec<usize>,
}

/// Why a query was bounced before it was priced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidReason {
    /// The request names no vertex: it has no cone and no sweep.
    EmptyQuery,
    /// The request names a vertex the graph does not have.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// Number of vertices in the served graph.
        num_vertices: usize,
    },
}

/// Typed rejection of a malformed request: it never reaches the cone
/// arithmetic, and the queue, later requests and the served logits are
/// untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidRequest {
    /// Id of the rejected request.
    pub id: u64,
    /// What was wrong with it.
    pub reason: InvalidReason,
}

/// A served request: the queried vertices' logits (row order follows
/// the request's vertex order) and its end-to-end latency.
#[derive(Debug, Clone)]
pub struct Served {
    /// Id of the request.
    pub id: u64,
    /// One logits row per queried vertex — bitwise equal to the same
    /// rows of a full `infer_epoch`.
    pub logits: Matrix,
    /// Completion minus arrival on the simulated clock, in seconds.
    pub latency: f64,
}

/// One graph-update request: a typed delta batch to commit through
/// incremental cone-local recompute.
#[derive(Debug, Clone)]
pub struct UpdateRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// The delta batch (validated transactionally at the queue head).
    pub deltas: Vec<Delta>,
    /// Arrival time on the simulated clock, in seconds.
    pub arrival: f64,
}

/// A committed update: the graph mutated, the stale cone replayed, and
/// the served logits patched in place ([`Session::apply_staged`]).
#[derive(Debug, Clone)]
pub struct Committed {
    /// Id of the update.
    pub id: u64,
    /// Graph epoch the commit produced.
    pub epoch: u64,
    /// Completion minus arrival on the simulated clock, in seconds.
    pub latency: f64,
    /// Dirty `h^1` seed vertices the batch invalidated.
    pub dirty_vertices: usize,
    /// Chunk subgraphs replaced against the mutated topology, rebuilt or
    /// patched ([`hongtu_core::DeltaReport::rebuilt_chunks`]).
    pub rebuilt_chunks: usize,
}

/// Why an update was bounced without committing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateRejectReason {
    /// The recompute cone exceeds the staging budget even alone.
    OverBudget {
        /// Per-GPU staging cost of the recompute cone, in bytes.
        cone_bytes: Vec<usize>,
        /// Per-GPU budget the cone was held against, in bytes.
        budget_bytes: Vec<usize>,
    },
    /// The delta batch is invalid against the current topology
    /// (staging is transactional, so nothing was applied).
    Invalid(DeltaError),
    /// The server was built without a dynamic graph ([`Server::new`]
    /// instead of [`Server::with_graph`]): there is nothing to commit to.
    NoGraph,
}

/// Typed update rejection: the graph and the served logits are
/// untouched, and later queue entries proceed as if the update had
/// never been enqueued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRejected {
    /// Id of the rejected update.
    pub id: u64,
    /// Why it was bounced.
    pub reason: UpdateRejectReason,
}

/// One queue entry: a logit query or a graph update, sharing a single
/// FIFO order so commits serialize with reads.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// A vertex-subset logit query.
    Query(Request),
    /// A delta-batch commit.
    Update(UpdateRequest),
}

impl WorkItem {
    /// Arrival time on the simulated clock, in seconds.
    pub fn arrival(&self) -> f64 {
        match self {
            WorkItem::Query(r) => r.arrival,
            WorkItem::Update(u) => u.arrival,
        }
    }
}

/// Admission control: per-GPU byte budgets a candidate batch's cone
/// cost must fit.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    budget: Vec<usize>,
    /// Whether the budget is the session's own ([`Self::from_session`])
    /// and so must follow it when a commit re-pins staging.
    follows_session: bool,
}

impl AdmissionControl {
    /// Budget from the session's own staging arithmetic
    /// ([`Session::staging_budget`]): one input + one output staging
    /// slot per GPU. A single request's cone on the session's grid is a
    /// part of the full sweep the slots were sized for, and the run rule
    /// merges its batches only while the merged steps fit, so in practice
    /// requests are only *deferred* under this budget, not rejected. A
    /// [`Server`] re-reads it after every structural commit: rebuilt
    /// chunks move the worst-case footprint staging is sized for.
    pub fn from_session(session: &Session) -> AdmissionControl {
        AdmissionControl {
            budget: session.staging_budget(),
            follows_session: true,
        }
    }

    /// Explicit per-GPU budgets — e.g. tighter than the staging plan to
    /// bound tail latency, or for exercising the rejection path. They
    /// stay as given whatever the session's plans do.
    pub fn with_budget(budget: Vec<usize>) -> AdmissionControl {
        AdmissionControl {
            budget,
            follows_session: false,
        }
    }

    /// The per-GPU byte budgets.
    pub fn budget(&self) -> &[usize] {
        &self.budget
    }

    /// Whether a sweep pruned to `mask`, packed under this budget
    /// ([`Session::plan_cone_within`]), fits it on every GPU.
    pub fn admits(&self, session: &Session, mask: &ServeMask) -> bool {
        let cone = session.plan_cone_within(mask.clone(), &self.budget);
        self.fits(&session.cone_cost(&cone))
    }

    /// Whether a sweep over `cone`, derived by `session` under this
    /// budget ([`Session::query_cone_within`]), fits it on every GPU.
    pub fn admits_cone(&self, session: &Session, cone: &Cone) -> bool {
        self.fits(&session.cone_cost(cone))
    }

    fn fits(&self, cost: &[usize]) -> bool {
        cost.iter()
            .zip(&self.budget)
            .all(|(cost, budget)| cost <= budget)
    }
}

/// Result of one served batch ([`Server::step`]).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Requests served by this sweep, in FIFO order.
    pub served: Vec<Served>,
    /// Requests rejected while forming this batch (cone over budget
    /// even alone).
    pub rejected: Vec<Overloaded>,
    /// Updates committed by this step (at most one: updates apply
    /// alone).
    pub committed: Vec<Committed>,
    /// Updates bounced by this step without committing.
    pub rejected_updates: Vec<UpdateRejected>,
    /// Malformed requests bounced while forming this batch.
    pub invalid: Vec<InvalidRequest>,
    /// Number of requests packed into the sweep (0 if every candidate
    /// was rejected, or if this step processed an update).
    pub batch_size: usize,
    /// Simulated time of the pruned sweep or replay (0 if nothing ran).
    pub sweep_time: f64,
    /// `(layer, batch)` steps the pruned sweep executed.
    pub active_steps: usize,
    /// `(layer, batch)` steps a full sweep would have executed.
    pub total_steps: usize,
    /// Destination rows the pruned sweep or replay computed, summed over
    /// layers.
    pub active_rows: usize,
    /// Destination rows a full sweep would have computed (`L × |V|`).
    pub total_rows: usize,
}

impl BatchReport {
    fn empty() -> BatchReport {
        BatchReport {
            served: Vec::new(),
            rejected: Vec::new(),
            committed: Vec::new(),
            rejected_updates: Vec::new(),
            invalid: Vec::new(),
            batch_size: 0,
            sweep_time: 0.0,
            active_steps: 0,
            total_steps: 0,
            active_rows: 0,
            total_rows: 0,
        }
    }
}

/// FIFO batching server over a borrowed [`Session`], optionally backed
/// by a [`DynamicGraph`] so the queue can carry graph updates.
pub struct Server<'s> {
    session: &'s mut Session,
    graph: Option<&'s mut DynamicGraph>,
    admission: AdmissionControl,
    batch_window: usize,
    queue: VecDeque<WorkItem>,
    clock: f64,
}

impl<'s> Server<'s> {
    /// Builds a query-only server. `batch_window` caps how many
    /// requests one sweep may pack (≥ 1).
    pub fn new(
        session: &'s mut Session,
        admission: AdmissionControl,
        batch_window: usize,
    ) -> Server<'s> {
        assert!(batch_window >= 1, "batch window must admit one request");
        Server {
            session,
            graph: None,
            admission,
            batch_window,
            queue: VecDeque::new(),
            clock: 0.0,
        }
    }

    /// Builds a server that also accepts graph updates, committed
    /// against `graph` via [`Session::apply_staged`]. The session's
    /// layer stores must be current before the first update commits —
    /// run [`Session::infer_epoch`] once after construction.
    pub fn with_graph(
        session: &'s mut Session,
        graph: &'s mut DynamicGraph,
        admission: AdmissionControl,
        batch_window: usize,
    ) -> Server<'s> {
        let mut server = Server::new(session, admission, batch_window);
        server.graph = Some(graph);
        server
    }

    /// Enqueues a query (FIFO).
    pub fn submit(&mut self, request: Request) {
        self.queue.push_back(WorkItem::Query(request));
    }

    /// Enqueues a graph update (FIFO with the queries: it commits only
    /// once every earlier entry has been processed, and no later query
    /// overtakes it). On a server built without a dynamic graph
    /// ([`Server::new`]) it is bounced from [`Server::step`] as
    /// [`UpdateRejectReason::NoGraph`].
    pub fn submit_update(&mut self, update: UpdateRequest) {
        self.queue.push_back(WorkItem::Update(update));
    }

    /// Enqueues either kind of work item (FIFO).
    pub fn submit_work(&mut self, item: WorkItem) {
        match item {
            WorkItem::Query(r) => self.submit(r),
            WorkItem::Update(u) => self.submit_update(u),
        }
    }

    /// Requests waiting to be served.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The server's simulated clock: completion time of the last sweep
    /// (or the last idle advance).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the clock to `t` (idle wait for the next arrival);
    /// never moves it backwards.
    pub fn advance_to(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// Processes the queue head. Returns `None` when the queue is
    /// empty. A query head opens a batch: later queries are packed
    /// FIFO without overtaking — a request that does not fit with the
    /// accumulated batch (but would fit alone) defers, one that exceeds
    /// the budget even alone is popped and rejected as [`Overloaded`], a
    /// malformed one (no vertices, or an id the graph does not have) is
    /// popped and bounced as [`InvalidRequest`], and an update closes the
    /// batch (commits serialize with reads) —
    /// then the batch runs as one pruned sweep. An update head is
    /// applied alone through [`Session::apply_staged`], priced by its
    /// recompute cone, with typed [`UpdateRejected`] on an invalid or
    /// over-budget batch.
    pub fn step(&mut self) -> Result<Option<BatchReport>, SimError> {
        if self.queue.is_empty() {
            return Ok(None);
        }
        if matches!(self.queue.front(), Some(WorkItem::Update(_))) {
            return self.step_update().map(Some);
        }
        let num_vertices = self.session.logits().rows();
        let mut rejected = Vec::new();
        let mut invalid = Vec::new();
        let mut batch: Vec<Request> = Vec::new();
        let mut union: Vec<usize> = Vec::new();
        // The cone of `union`: each candidate's is derived once, priced,
        // and — when admitted — kept for the sweep.
        let mut admitted: Option<Cone> = None;
        let mut row_of: HashMap<usize, usize> = HashMap::new();
        while batch.len() < self.batch_window {
            // An update at the head closes the batch: queries never
            // overtake a pending commit.
            let Some(WorkItem::Query(head)) = self.queue.front() else {
                break;
            };
            // Requests come from outside: bounce a malformed one here, as
            // its own typed entry, before it can fail the whole batch.
            let reason = match head.vertices.iter().find(|&&v| v >= num_vertices) {
                Some(&vertex) => Some(InvalidReason::VertexOutOfRange {
                    vertex,
                    num_vertices,
                }),
                None if head.vertices.is_empty() => Some(InvalidReason::EmptyQuery),
                None => None,
            };
            if let Some(reason) = reason {
                invalid.push(InvalidRequest {
                    id: head.id,
                    reason,
                });
                self.queue.pop_front();
                continue;
            }
            let mut cand = union.clone();
            for &v in &head.vertices {
                if !row_of.contains_key(&v) && !cand[union.len()..].contains(&v) {
                    cand.push(v);
                }
            }
            let cone = self
                .session
                .query_cone_within(&cand, &self.admission.budget)?;
            if self.admission.admits_cone(self.session, &cone) {
                let Some(WorkItem::Query(req)) = self.queue.pop_front() else {
                    unreachable!("head was matched as a query");
                };
                for &v in &cand[union.len()..] {
                    row_of.insert(v, row_of.len());
                }
                union = cand;
                admitted = Some(cone);
                batch.push(req);
            } else if batch.is_empty() {
                // Even alone the cone exceeds the budget: typed
                // rejection — this request can never be served.
                let Some(WorkItem::Query(req)) = self.queue.pop_front() else {
                    unreachable!("head was matched as a query");
                };
                rejected.push(Overloaded {
                    id: req.id,
                    cone_bytes: self.session.cone_cost(&cone),
                    budget_bytes: self.admission.budget.clone(),
                });
            } else {
                // Defer: stays at the queue head; no later request may
                // overtake it.
                break;
            }
        }
        let Some(cone) = admitted else {
            return Ok(Some(BatchReport {
                rejected,
                invalid,
                ..BatchReport::empty()
            }));
        };

        let report = self.session.serve_cone(&union, cone)?;
        let batch_size = batch.len();
        let start = batch.iter().fold(self.clock, |acc, r| acc.max(r.arrival));
        self.clock = start + report.time;
        let served = batch
            .into_iter()
            .map(|req| {
                let rows: Vec<usize> = req.vertices.iter().map(|v| row_of[v]).collect();
                Served {
                    id: req.id,
                    logits: report.logits.gather_rows(&rows),
                    latency: self.clock - req.arrival,
                }
            })
            .collect();
        Ok(Some(BatchReport {
            served,
            rejected,
            invalid,
            batch_size,
            sweep_time: report.time,
            active_steps: report.active_steps,
            total_steps: report.total_steps,
            active_rows: report.active_rows,
            total_rows: report.total_rows,
            ..BatchReport::empty()
        }))
    }

    /// Commits the update at the queue head alone: stage the delta
    /// batch transactionally and replay the stale cone through
    /// [`Session::apply_staged_within`], which derives the recompute cone
    /// once, prices it against the admission budget and refuses it before
    /// anything is installed. Rejections leave the graph and the served
    /// logits untouched.
    fn step_update(&mut self) -> Result<BatchReport, SimError> {
        let Some(WorkItem::Update(upd)) = self.queue.pop_front() else {
            unreachable!("step_update runs only with an update at the head");
        };
        let rejected = |reason| {
            Ok(BatchReport {
                rejected_updates: vec![UpdateRejected { id: upd.id, reason }],
                ..BatchReport::empty()
            })
        };
        let Some(dg) = self.graph.as_deref_mut() else {
            return rejected(UpdateRejectReason::NoGraph);
        };
        let staged = match dg.stage(&upd.deltas) {
            Ok(staged) => staged,
            Err(err) => return rejected(UpdateRejectReason::Invalid(err)),
        };
        let report = match self
            .session
            .apply_staged_within(dg, staged, &self.admission.budget)
        {
            Ok(report) => report,
            Err(SimError::OverBudget {
                cone_bytes,
                budget_bytes,
            }) => {
                return rejected(UpdateRejectReason::OverBudget {
                    cone_bytes,
                    budget_bytes,
                })
            }
            Err(other) => return Err(other),
        };
        if self.admission.follows_session && report.rebuilt_chunks > 0 {
            self.admission.budget = self.session.staging_budget();
        }
        let start = self.clock.max(upd.arrival);
        self.clock = start + report.time;
        Ok(BatchReport {
            committed: vec![Committed {
                id: upd.id,
                epoch: report.epoch,
                latency: self.clock - upd.arrival,
                dirty_vertices: report.dirty_vertices,
                rebuilt_chunks: report.rebuilt_chunks,
            }],
            sweep_time: report.time,
            active_steps: report.active_steps,
            total_steps: report.total_steps,
            active_rows: report.active_rows,
            total_rows: report.total_rows,
            ..BatchReport::empty()
        })
    }
}

/// Open-loop Poisson workload: `count` requests with exponential
/// inter-arrival times at rate `qps`, each querying a uniformly sampled
/// subset of `subset` distinct vertices.
pub fn poisson_workload(
    num_vertices: usize,
    count: usize,
    qps: f64,
    subset: usize,
    rng: &mut SeededRng,
) -> Vec<Request> {
    assert!(qps > 0.0, "arrival rate must be positive");
    let mut t = 0.0f64;
    (0..count)
        .map(|k| {
            t += -(1.0 - rng.uniform() as f64).ln() / qps;
            Request {
                id: k as u64,
                vertices: rng.sample_indices(num_vertices, subset),
                arrival: t,
            }
        })
        .collect()
}

/// Open-loop mixed workload: `count` items with exponential
/// inter-arrival times at rate `qps`; each item is an update with
/// probability `update_frac` (a valid toggle batch of `edits` deltas,
/// [`toggle_workload`]) and otherwise a query over a uniformly sampled
/// subset of `subset` distinct vertices. Update batches are valid
/// exactly when committed in FIFO order with none rejected — which the
/// session's own staging budget guarantees.
#[allow(clippy::too_many_arguments)]
pub fn mixed_workload(
    dg: &DynamicGraph,
    count: usize,
    qps: f64,
    subset: usize,
    update_frac: f64,
    edits: usize,
    mix: DeltaMix,
    rng: &mut SeededRng,
) -> Vec<WorkItem> {
    assert!(qps > 0.0, "arrival rate must be positive");
    assert!(
        (0.0..=1.0).contains(&update_frac),
        "update fraction must be in [0, 1]"
    );
    let kinds: Vec<bool> = (0..count).map(|_| rng.chance(update_frac)).collect();
    let updates = kinds.iter().filter(|&&u| u).count();
    let mut batches =
        toggle_workload(dg.graph(), dg.features().cols(), updates, edits, mix, rng).into_iter();
    let n = dg.num_vertices();
    let mut t = 0.0f64;
    kinds
        .iter()
        .enumerate()
        .map(|(k, &is_update)| {
            t += -(1.0 - rng.uniform() as f64).ln() / qps;
            if is_update {
                WorkItem::Update(UpdateRequest {
                    id: k as u64,
                    deltas: batches.next().expect("one batch per update"),
                    arrival: t,
                })
            } else {
                WorkItem::Query(Request {
                    id: k as u64,
                    vertices: rng.sample_indices(n, subset),
                    arrival: t,
                })
            }
        })
        .collect()
}

/// Aggregate statistics of one open-loop run ([`run_open_loop`],
/// [`run_mixed_open_loop`]).
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// Requests served.
    pub served: usize,
    /// Requests rejected ([`Overloaded`]).
    pub rejected: usize,
    /// `rejected / (served + rejected)`.
    pub reject_rate: f64,
    /// Median end-to-end query latency in simulated seconds.
    pub p50_latency: f64,
    /// 99th-percentile end-to-end query latency in simulated seconds.
    pub p99_latency: f64,
    /// Served queries per simulated second (served / makespan).
    pub queries_per_sec: f64,
    /// `(batch size, occurrences)` over all non-empty sweeps, ascending.
    pub batch_hist: Vec<(usize, usize)>,
    /// Simulated completion time of the last sweep.
    pub makespan: f64,
    /// Total simulated time spent inside pruned sweeps and replays.
    pub total_sweep_time: f64,
    /// `(active, total)` `(layer, batch)` steps, summed over every sweep
    /// and replay that ran.
    pub steps: (usize, usize),
    /// `(active, total)` destination rows, summed likewise: what the
    /// sweeps computed of what full sweeps would have.
    pub rows: (usize, usize),
    /// Updates committed.
    pub updates_committed: usize,
    /// Updates rejected ([`UpdateRejected`]).
    pub updates_rejected: usize,
    /// Median end-to-end update latency in simulated seconds (0 with
    /// no committed updates).
    pub p50_update_latency: f64,
    /// 99th-percentile end-to-end update latency in simulated seconds
    /// (0 with no committed updates).
    pub p99_update_latency: f64,
}

/// Nearest-rank percentile of an unsorted latency sample (`p` in
/// [0, 100]); 0 for an empty sample.
pub fn percentile(latencies: &[f64], p: usize) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    sorted[(sorted.len() - 1) * p / 100]
}

/// Drives `workload` (sorted by arrival) through a [`Server`] on the
/// simulated clock: requests are enqueued as the clock passes their
/// arrival, the server batches work-conservingly, and the clock idles
/// forward when the queue runs dry before the next arrival.
pub fn run_open_loop(
    session: &mut Session,
    admission: AdmissionControl,
    batch_window: usize,
    workload: Vec<Request>,
) -> Result<LoadStats, SimError> {
    let mut server = Server::new(session, admission, batch_window);
    drive(
        &mut server,
        workload.into_iter().map(WorkItem::Query).collect(),
    )
}

/// [`run_open_loop`] for an interleaved update + query workload
/// ([`mixed_workload`]): updates commit FIFO through `dg`, queries see
/// exactly the updates enqueued (and committed) before them. The
/// session's layer stores must be current — run
/// [`Session::infer_epoch`] once before calling.
pub fn run_mixed_open_loop(
    session: &mut Session,
    dg: &mut DynamicGraph,
    admission: AdmissionControl,
    batch_window: usize,
    workload: Vec<WorkItem>,
) -> Result<LoadStats, SimError> {
    let mut server = Server::with_graph(session, dg, admission, batch_window);
    drive(&mut server, workload)
}

/// Shared open-loop driver: enqueue arrivals as the clock passes them,
/// batch work-conservingly, idle forward when the queue runs dry.
fn drive(server: &mut Server<'_>, workload: Vec<WorkItem>) -> Result<LoadStats, SimError> {
    let mut pending = workload.into_iter().peekable();
    let mut latencies: Vec<f64> = Vec::new();
    let mut update_latencies: Vec<f64> = Vec::new();
    let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
    let mut rejected = 0usize;
    let mut updates_rejected = 0usize;
    let mut total_sweep_time = 0.0f64;
    let (mut steps, mut rows) = ((0usize, 0usize), (0usize, 0usize));
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
        if let Some(batch) = server.step()? {
            latencies.extend(batch.served.iter().map(|s| s.latency));
            update_latencies.extend(batch.committed.iter().map(|c| c.latency));
            rejected += batch.rejected.len();
            updates_rejected += batch.rejected_updates.len();
            total_sweep_time += batch.sweep_time;
            steps = (steps.0 + batch.active_steps, steps.1 + batch.total_steps);
            rows = (rows.0 + batch.active_rows, rows.1 + batch.total_rows);
            if batch.batch_size > 0 {
                *hist.entry(batch.batch_size).or_insert(0) += 1;
            }
        }
    }
    let served = latencies.len();
    let makespan = server.clock();
    Ok(LoadStats {
        served,
        rejected,
        reject_rate: rejected as f64 / (served + rejected).max(1) as f64,
        p50_latency: percentile(&latencies, 50),
        p99_latency: percentile(&latencies, 99),
        queries_per_sec: if makespan > 0.0 {
            served as f64 / makespan
        } else {
            0.0
        },
        batch_hist: hist.into_iter().collect(),
        makespan,
        total_sweep_time,
        steps,
        rows,
        updates_committed: update_latencies.len(),
        updates_rejected,
        p50_update_latency: percentile(&update_latencies, 50),
        p99_update_latency: percentile(&update_latencies, 99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_core::{CommMode, HongTuConfig, OverlapMode};
    use hongtu_datasets::dataset::{Dataset, DatasetKey};
    use hongtu_datasets::load;
    use hongtu_nn::ModelKind;
    use hongtu_sim::MachineConfig;

    fn dataset() -> Dataset {
        load(DatasetKey::Rdt, &mut SeededRng::new(99))
    }

    fn session(ds: &Dataset, gpus: usize) -> Session {
        let cfg = HongTuConfig::builder()
            .machine(MachineConfig::scaled(gpus, 512 << 20))
            .comm(CommMode::P2pRu)
            .reorganize(true)
            .overlap(OverlapMode::Off)
            .infer()
            .build()
            .expect("valid config");
        Session::new(ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("session")
    }

    fn request(id: u64, vertices: Vec<usize>, arrival: f64) -> Request {
        Request {
            id,
            vertices,
            arrival,
        }
    }

    /// An update on a dynamic graph of another size than the session's
    /// — one the server was built over by mistake — comes back from
    /// `step` as a typed `GraphMismatch`, not a panic, and leaves the
    /// graph and the served logits as they were.
    #[test]
    fn an_update_on_a_graph_of_another_size_is_a_typed_error() {
        let ds = dataset();
        let mut sess = session(&ds, 2);
        sess.infer_epoch().expect("prime layer stores");
        let before = sess.logits().clone();
        let n = ds.num_vertices() / 2;
        let mut dg = DynamicGraph::new(
            hongtu_graph::generators::erdos_renyi(n, 4.0, &mut SeededRng::new(5)),
            Matrix::zeros(n, ds.features.cols()),
        );
        let deltas = toggle_workload(
            dg.graph(),
            ds.features.cols(),
            1,
            2,
            DeltaMix::Edge,
            &mut SeededRng::new(6),
        )
        .pop()
        .expect("one batch");
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::with_graph(&mut sess, &mut dg, admission, 4);
        server.submit_update(UpdateRequest {
            id: 1,
            deltas,
            arrival: 0.0,
        });
        match server.step() {
            Err(SimError::GraphMismatch {
                graph_vertices,
                session_vertices,
            }) => assert_eq!((graph_vertices, session_vertices), (n, 2 * n)),
            other => panic!("a mismatched graph was not refused: {other:?}"),
        }
        drop(server);
        assert_eq!(dg.epoch(), 0, "the refused update committed");
        assert_eq!(sess.logits(), &before);
    }

    /// A budget no cone can fit yields a typed `Overloaded` response —
    /// the sweep is never attempted, so there is no `SimError` of any
    /// kind, let alone an OOM.
    #[test]
    fn over_budget_request_is_rejected_typed_not_oom() {
        let ds = dataset();
        let mut sess = session(&ds, 2);
        let admission = AdmissionControl::with_budget(vec![1; 2]);
        let mut server = Server::new(&mut sess, admission, 4);
        server.submit(request(7, vec![0, 1], 0.0));
        let report = server
            .step()
            .expect("rejection must not surface as SimError")
            .expect("queue was non-empty");
        assert_eq!(report.batch_size, 0);
        assert!(report.served.is_empty());
        assert_eq!(report.sweep_time, 0.0);
        assert_eq!(report.rejected.len(), 1);
        let rej = &report.rejected[0];
        assert_eq!(rej.id, 7);
        assert_eq!(rej.budget_bytes, vec![1; 2]);
        assert!(
            rej.cone_bytes
                .iter()
                .zip(&rej.budget_bytes)
                .any(|(c, b)| c > b),
            "rejection must carry the over-budget cone cost: {:?}",
            rej.cone_bytes
        );
        assert_eq!(server.queue_len(), 0, "rejected request leaves the queue");
    }

    /// Under the session's own staging budget every request fits (its
    /// cone is a subset of the full sweep the slots were sized for):
    /// nothing is rejected and FIFO order is preserved within the batch.
    #[test]
    fn default_budget_serves_all_in_fifo_order() {
        let ds = dataset();
        let n = ds.graph.num_vertices();
        let mut sess = session(&ds, 2);
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::new(&mut sess, admission, 8);
        server.submit(request(1, vec![0], 0.0));
        server.submit(request(2, vec![n / 2, 0], 0.1));
        server.submit(request(3, vec![n - 1], 0.2));
        let report = server.step().expect("serve").expect("non-empty queue");
        assert!(report.rejected.is_empty());
        assert_eq!(report.batch_size, 3);
        let ids: Vec<u64> = report.served.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        for s in &report.served {
            assert!(s.latency > 0.0);
            assert!(s.logits.rows() >= 1);
        }
        assert_eq!(report.served[1].logits.rows(), 2);
        assert!(report.active_steps < report.total_steps || report.batch_size == 3);
    }

    /// `batch_window = 1` degenerates to one sweep per request, still in
    /// submission order across steps.
    #[test]
    fn batch_window_caps_batch_size_fifo_across_steps() {
        let ds = dataset();
        let mut sess = session(&ds, 1);
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::new(&mut sess, admission, 1);
        for (k, v) in [(10u64, 0usize), (11, 3), (12, 5)] {
            server.submit(request(k, vec![v], 0.0));
        }
        let mut order = Vec::new();
        while let Some(report) = server.step().expect("serve") {
            assert_eq!(report.batch_size, 1);
            order.extend(report.served.iter().map(|s| s.id));
        }
        assert_eq!(order, vec![10, 11, 12]);
    }

    /// Served rows are bitwise equal to the same rows of a full
    /// `infer_epoch` on an identically seeded fresh session.
    #[test]
    fn served_logits_match_full_inference_rows() {
        let ds = dataset();
        let n = ds.graph.num_vertices();
        let vertices = [0usize, 1, n / 3, n - 1];
        let served = {
            let mut sess = session(&ds, 2);
            let admission = AdmissionControl::from_session(&sess);
            let mut server = Server::new(&mut sess, admission, 4);
            server.submit(request(0, vertices.to_vec(), 0.0));
            let report = server.step().expect("serve").expect("non-empty queue");
            report.served[0].logits.clone()
        };
        let full = {
            let mut sess = session(&ds, 2);
            sess.infer_epoch().expect("infer epoch").logits
        };
        assert_eq!(served, full.gather_rows(&vertices));
    }

    #[test]
    fn poisson_workload_arrivals_monotone_nondecreasing() {
        let mut rng = SeededRng::new(1234);
        let reqs = poisson_workload(100, 50, 8.0, 5, &mut rng);
        assert_eq!(reqs.len(), 50);
        let mut prev = 0.0f64;
        for (k, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, k as u64);
            assert_eq!(r.vertices.len(), 5);
            assert!(r.vertices.iter().all(|&v| v < 100));
            assert!(r.arrival >= prev, "arrivals must be non-decreasing");
            assert!(r.arrival.is_finite());
            prev = r.arrival;
        }
        assert!(prev > 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0.0);
        assert_eq!(percentile(&[4.0], 50), 4.0);
        let sample: Vec<f64> = (1..=100).map(|k| k as f64).collect();
        assert_eq!(percentile(&sample, 50), 50.0);
        assert_eq!(percentile(&sample, 99), 99.0);
        assert_eq!(percentile(&sample, 100), 100.0);
        assert_eq!(percentile(&sample, 0), 1.0);
    }

    /// Open-loop smoke: under the session's own budget every request is
    /// served, the tail is finite, and the histogram accounts for every
    /// served request.
    #[test]
    fn open_loop_under_budget_serves_everything() {
        let ds = dataset();
        let n = ds.graph.num_vertices();
        let mut sess = session(&ds, 2);
        let admission = AdmissionControl::from_session(&sess);
        let mut rng = SeededRng::new(7);
        let workload = poisson_workload(n, 10, 50.0, 3, &mut rng);
        let stats = run_open_loop(&mut sess, admission, 4, workload).expect("open loop");
        assert_eq!(stats.served, 10);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.reject_rate, 0.0);
        assert!(stats.p50_latency.is_finite() && stats.p50_latency > 0.0);
        assert!(stats.p99_latency.is_finite() && stats.p99_latency >= stats.p50_latency);
        assert!(stats.queries_per_sec > 0.0);
        assert!(stats.makespan > 0.0);
        assert!(stats.total_sweep_time > 0.0);
        let hist_total: usize = stats
            .batch_hist
            .iter()
            .map(|(size, count)| size * count)
            .sum();
        assert_eq!(hist_total, 10);
        assert!(stats
            .batch_hist
            .iter()
            .all(|&(size, _)| (1..=4).contains(&size)));
    }

    /// FIFO commit semantics: a query enqueued before an update is
    /// answered from the pre-update graph, one enqueued after from the
    /// post-update graph — and the update closes the first query batch
    /// rather than being overtaken.
    #[test]
    fn query_before_update_sees_old_logits_query_after_sees_new() {
        let ds = dataset();
        let feat_dim = ds.features.cols();
        let probe = 0usize;
        let mut dg = DynamicGraph::from_dataset(&ds);
        let mut sess = session(&ds, 2);
        sess.infer_epoch().expect("prime layer stores");
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::with_graph(&mut sess, &mut dg, admission, 8);
        server.submit(request(1, vec![probe], 0.0));
        server.submit_update(UpdateRequest {
            id: 2,
            deltas: vec![Delta::UpdateFeatures {
                vertex: probe as u32,
                features: vec![0.25; feat_dim],
            }],
            arrival: 0.0,
        });
        server.submit(request(3, vec![probe], 0.0));

        let first = server.step().expect("serve").expect("non-empty queue");
        assert_eq!(
            first.batch_size, 1,
            "the pending update must close the query batch"
        );
        let before = first.served[0].logits.clone();

        let second = server.step().expect("commit").expect("non-empty queue");
        assert!(second.served.is_empty());
        assert_eq!(second.committed.len(), 1);
        assert_eq!(second.committed[0].id, 2);
        assert_eq!(second.committed[0].epoch, 1);
        assert!(second.committed[0].latency > 0.0);
        assert!(second.committed[0].dirty_vertices >= 1);

        let third = server.step().expect("serve").expect("non-empty queue");
        let after = third.served[0].logits.clone();
        drop(server);

        let pre = {
            let mut fresh = session(&ds, 2);
            fresh.infer_epoch().expect("infer").logits
        };
        let post = {
            let mutated = dg.to_dataset(&ds);
            let mut fresh = session(&mutated, 2);
            fresh.infer_epoch().expect("infer").logits
        };
        assert_eq!(before, pre.gather_rows(&[probe]));
        assert_eq!(after, post.gather_rows(&[probe]));
        assert_ne!(before, after, "the feature rewrite must reach the logits");
    }

    /// An update whose recompute cone exceeds the budget even alone is
    /// bounced with a typed reason; the graph does not advance.
    #[test]
    fn over_budget_update_is_rejected_typed_graph_untouched() {
        let ds = dataset();
        let feat_dim = ds.features.cols();
        let mut dg = DynamicGraph::from_dataset(&ds);
        let mut sess = session(&ds, 2);
        let admission = AdmissionControl::with_budget(vec![1; 2]);
        let mut server = Server::with_graph(&mut sess, &mut dg, admission, 4);
        server.submit_update(UpdateRequest {
            id: 9,
            deltas: vec![Delta::UpdateFeatures {
                vertex: 0,
                features: vec![1.0; feat_dim],
            }],
            arrival: 0.0,
        });
        let report = server
            .step()
            .expect("rejection must not surface as SimError")
            .expect("queue was non-empty");
        drop(server);
        assert!(report.committed.is_empty());
        assert_eq!(report.sweep_time, 0.0);
        assert_eq!(report.rejected_updates.len(), 1);
        let rej = &report.rejected_updates[0];
        assert_eq!(rej.id, 9);
        match &rej.reason {
            UpdateRejectReason::OverBudget {
                cone_bytes,
                budget_bytes,
            } => {
                assert_eq!(budget_bytes, &vec![1usize; 2]);
                assert!(cone_bytes.iter().zip(budget_bytes).any(|(c, b)| c > b));
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        assert_eq!(dg.epoch(), 0, "a rejected update must not commit");
    }

    /// The first of `cones` whose cost packed against the staging slots
    /// alone exceeds its cost on the session's grid on some GPU, with
    /// that grid cost: a budget the grid cone fits and the slot-packed
    /// one does not.
    fn tighter_than_the_slots<K>(
        sess: &Session,
        cones: impl Iterator<Item = (K, ServeMask)>,
    ) -> (K, Vec<usize>) {
        cones
            .map(|(key, mask)| {
                let grid = sess.cone_cost(&sess.grid_cone(mask.clone()));
                let slots = sess.cone_cost(&sess.plan_cone(mask));
                (key, grid, slots)
            })
            .find(|(_, grid, slots)| slots.iter().zip(grid).any(|(s, g)| s > g))
            .map(|(key, grid, _)| (key, grid))
            .expect("some cone merges past its grid cost")
    }

    /// A query whose cone fits an explicit budget on the session's grid
    /// is served under it: its runs are held to that budget as well as
    /// to the staging slots.
    #[test]
    fn a_query_the_grid_fits_is_served_under_a_tighter_budget() {
        let ds = dataset();
        let mut sess = session(&ds, 2);
        sess.infer_epoch().expect("prime layer stores");
        let layers = sess.model().num_layers();
        let plan = sess.plans().partition;
        let cones = (0..ds.graph.num_vertices()).map(|v| {
            let query = vec![v];
            let mask = ServeMask::from_queries(plan, layers, &query);
            (query, mask)
        });
        let (query, budget) = tighter_than_the_slots(&sess, cones);
        let admission = AdmissionControl::with_budget(budget);
        let slot_packed = sess.query_cone(&query).expect("cone");
        assert!(!admission.admits_cone(&sess, &slot_packed));
        assert!(admission.admits(&sess, slot_packed.mask()));

        let mut server = Server::new(&mut sess, admission, 4);
        server.submit(request(1, query.clone(), 0.0));
        let report = server.step().expect("serve").expect("non-empty queue");
        drop(server);
        assert!(report.rejected.is_empty(), "{:?}", report.rejected);
        assert_eq!(report.served.len(), 1);
        let full = sess.infer_epoch().expect("infer").logits;
        assert_eq!(report.served[0].logits, full.gather_rows(&query));
    }

    /// An update whose replay cone fits an explicit budget on the
    /// session's grid commits under it, and patches the logits to a
    /// rebuild's.
    #[test]
    fn an_update_the_grid_fits_commits_under_a_tighter_budget() {
        let ds = dataset();
        let feat_dim = ds.features.cols();
        let mut dg = DynamicGraph::from_dataset(&ds);
        let mut sess = session(&ds, 2);
        sess.infer_epoch().expect("prime layer stores");
        let rewrite = |vertex: usize| {
            vec![Delta::UpdateFeatures {
                vertex: vertex as u32,
                features: vec![0.25; feat_dim],
            }]
        };
        // A feature rewrite leaves the topology alone: its replay cone is
        // the dirty cone of its layer-0 readers over the current plans.
        let layers = sess.model().num_layers();
        let plan = sess.plans().partition;
        let cones = (0..ds.graph.num_vertices()).map(|v| {
            let staged = dg.stage(&rewrite(v)).expect("a feature rewrite stages");
            (
                v,
                ServeMask::from_dirty(plan, staged.graph(), layers, staged.dirty()),
            )
        });
        let (vertex, budget) = tighter_than_the_slots(&sess, cones);

        let admission = AdmissionControl::with_budget(budget);
        let mut server = Server::with_graph(&mut sess, &mut dg, admission, 4);
        server.submit_update(UpdateRequest {
            id: 2,
            deltas: rewrite(vertex),
            arrival: 0.0,
        });
        let report = server.step().expect("commit").expect("non-empty queue");
        drop(server);
        assert!(
            report.rejected_updates.is_empty(),
            "{:?}",
            report.rejected_updates
        );
        assert_eq!(report.committed.len(), 1);
        let rebuilt = session(&dg.to_dataset(&ds), 2)
            .infer_epoch()
            .expect("infer")
            .logits;
        assert_eq!(sess.logits(), &rebuilt);
    }

    /// An invalid delta batch (here: re-adding an existing edge) is
    /// bounced with the typed staging error; nothing is applied.
    #[test]
    fn invalid_update_is_rejected_typed_graph_untouched() {
        let ds = dataset();
        let (src, dst) = ds
            .graph
            .csr
            .edges()
            .find(|(u, v)| u != v)
            .expect("a non-loop edge exists");
        let mut dg = DynamicGraph::from_dataset(&ds);
        let mut sess = session(&ds, 2);
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::with_graph(&mut sess, &mut dg, admission, 4);
        server.submit_update(UpdateRequest {
            id: 5,
            deltas: vec![Delta::AddEdge { src, dst }],
            arrival: 0.0,
        });
        let report = server
            .step()
            .expect("rejection must not surface as SimError")
            .expect("queue was non-empty");
        drop(server);
        assert!(report.committed.is_empty());
        assert_eq!(
            report.rejected_updates,
            vec![UpdateRejected {
                id: 5,
                reason: UpdateRejectReason::Invalid(DeltaError::DuplicateEdge { src, dst }),
            }]
        );
        assert_eq!(dg.epoch(), 0, "a rejected update must not commit");
    }

    /// An update sent to a server built without a dynamic graph is
    /// enqueued and bounced typed from `step`, and the query behind it is
    /// served as if the update had never been enqueued.
    #[test]
    fn update_on_a_graphless_server_is_rejected_typed_queue_proceeds() {
        let ds = dataset();
        let mut sess = session(&ds, 2);
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::new(&mut sess, admission, 4);
        server.submit_work(WorkItem::Update(UpdateRequest {
            id: 9,
            deltas: vec![Delta::AddEdge { src: 0, dst: 1 }],
            arrival: 0.0,
        }));
        server.submit(Request {
            id: 10,
            vertices: vec![2, 5],
            arrival: 0.0,
        });
        let first = server
            .step()
            .expect("rejection must not surface as SimError")
            .expect("queue was non-empty");
        assert!(first.committed.is_empty() && first.served.is_empty());
        assert_eq!(
            first.rejected_updates,
            vec![UpdateRejected {
                id: 9,
                reason: UpdateRejectReason::NoGraph,
            }]
        );
        let second = server.step().expect("serve").expect("non-empty queue");
        assert_eq!(second.served.len(), 1);
        assert_eq!(second.served[0].id, 10);
        assert!(server.step().expect("drained").is_none());
    }

    /// Mixed open-loop smoke: under the session's own budget every
    /// query is served and every update commits, in FIFO order, and the
    /// graph epoch counts exactly the committed updates.
    #[test]
    fn mixed_open_loop_commits_and_serves_everything() {
        let ds = dataset();
        let mut dg = DynamicGraph::from_dataset(&ds);
        let mut sess = session(&ds, 2);
        sess.infer_epoch().expect("prime layer stores");
        let admission = AdmissionControl::from_session(&sess);
        let mut rng = SeededRng::new(11);
        let workload = mixed_workload(&dg, 12, 50.0, 3, 0.4, 1, DeltaMix::Mixed, &mut rng);
        let updates = workload
            .iter()
            .filter(|w| matches!(w, WorkItem::Update(_)))
            .count();
        assert!(
            updates >= 1 && updates < workload.len(),
            "seed must yield a genuinely mixed workload, got {updates} updates"
        );
        let mut prev = 0.0f64;
        for w in &workload {
            assert!(w.arrival() >= prev, "arrivals must be non-decreasing");
            prev = w.arrival();
        }
        let stats =
            run_mixed_open_loop(&mut sess, &mut dg, admission, 4, workload).expect("open loop");
        assert_eq!(stats.served, 12 - updates);
        assert_eq!(stats.updates_committed, updates);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.updates_rejected, 0);
        assert_eq!(dg.epoch(), updates as u64);
        assert!(stats.p50_update_latency.is_finite() && stats.p50_update_latency > 0.0);
        assert!(stats.p99_update_latency >= stats.p50_update_latency);
        assert!(stats.total_sweep_time > 0.0);
        let hist_total: usize = stats
            .batch_hist
            .iter()
            .map(|(size, count)| size * count)
            .sum();
        assert_eq!(hist_total, stats.served);
    }

    /// Structural commits rebuild chunks and re-pin staging; a server
    /// admitting against the session's own budget must follow, or every
    /// later cone touching a grown chunk is refused. 24 items, 8 of them
    /// two-edge updates, through one live server: nothing is rejected.
    #[test]
    fn session_budget_follows_structural_commits() {
        let ds = dataset();
        let mut dg = DynamicGraph::from_dataset(&ds);
        let mut sess = session(&ds, 2);
        sess.infer_epoch().expect("prime layer stores");
        let mut rng = SeededRng::new(5);
        let mut batches = toggle_workload(
            dg.graph(),
            dg.features().cols(),
            8,
            2,
            DeltaMix::Edge,
            &mut rng,
        )
        .into_iter();
        let n = dg.num_vertices();
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::with_graph(&mut sess, &mut dg, admission, 4);
        for k in 0..24u64 {
            let arrival = k as f64 * 1e-3;
            if k % 3 == 1 {
                server.submit_update(UpdateRequest {
                    id: k,
                    deltas: batches.next().expect("eight update batches"),
                    arrival,
                });
            } else {
                server.submit(request(k, rng.sample_indices(n, 6), arrival));
            }
        }
        let (mut served, mut committed) = (0, 0);
        while let Some(report) = server.step().expect("step") {
            assert!(report.rejected.is_empty(), "{:?}", report.rejected);
            assert!(
                report.rejected_updates.is_empty(),
                "{:?}",
                report.rejected_updates
            );
            served += report.served.len();
            committed += report.committed.len();
        }
        assert_eq!((served, committed), (16, 8));
        assert_eq!(dg.epoch(), 8);
    }

    /// A malformed request followed by a valid one: the first is bounced
    /// typed, the second is served bitwise equal to full inference.
    fn bounced_then_served(bad: Vec<usize>, reason: InvalidReason) {
        let ds = dataset();
        let good = vec![0usize, 1];
        let mut sess = session(&ds, 2);
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::new(&mut sess, admission, 4);
        server.submit(request(1, bad, 0.0));
        server.submit(request(2, good.clone(), 0.0));
        let report = server.step().expect("step").expect("non-empty queue");
        assert_eq!(report.invalid, vec![InvalidRequest { id: 1, reason }]);
        assert!(report.rejected.is_empty());
        assert_eq!(report.batch_size, 1);
        assert_eq!(report.served[0].id, 2);
        assert_eq!(server.queue_len(), 0);
        let full = session(&ds, 2).infer_epoch().expect("infer epoch").logits;
        assert_eq!(report.served[0].logits, full.gather_rows(&good));
    }

    #[test]
    fn empty_request_is_bounced_typed_and_the_queue_survives() {
        bounced_then_served(vec![], InvalidReason::EmptyQuery);
    }

    #[test]
    fn out_of_range_request_is_bounced_typed_and_the_queue_survives() {
        let n = dataset().graph.num_vertices();
        bounced_then_served(
            vec![0, n],
            InvalidReason::VertexOutOfRange {
                vertex: n,
                num_vertices: n,
            },
        );
    }

    /// An empty update is a typed rejection, not a panic in the cone
    /// code, and the server keeps serving.
    #[test]
    fn empty_update_is_rejected_typed() {
        let ds = dataset();
        let mut dg = DynamicGraph::from_dataset(&ds);
        let mut sess = session(&ds, 2);
        sess.infer_epoch().expect("prime layer stores");
        let admission = AdmissionControl::from_session(&sess);
        let mut server = Server::with_graph(&mut sess, &mut dg, admission, 4);
        server.submit_update(UpdateRequest {
            id: 1,
            deltas: vec![],
            arrival: 0.0,
        });
        server.submit(request(2, vec![0, 1], 0.0));
        let report = server.step().expect("step").expect("one item");
        assert!(matches!(
            report.rejected_updates[..],
            [UpdateRejected {
                id: 1,
                reason: UpdateRejectReason::Invalid(DeltaError::EmptyBatch),
            }]
        ));
        let report = server.step().expect("step").expect("one item");
        assert_eq!(report.served.len(), 1);
        assert_eq!(dg.epoch(), 0);
    }
}
