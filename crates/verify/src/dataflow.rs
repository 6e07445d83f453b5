//! Pass 9 — dataflow conservation (F8xx): the value-preservation layer
//! on top of the schedule passes.
//!
//! Passes 5–8 prove a schedule is race-free, slot-safe, and robust under
//! reordering — but a schedule that silently drops a boundary vertex's
//! contribution, or double-counts a deduplicated gradient flush, passes
//! all of them: it is perfectly synchronized wrong arithmetic. This pass
//! closes that gap by abstract interpretation over the provenance
//! annotations ([`hongtu_sim::Provenance`]) the engine attaches to its
//! trace accesses: symbolic *contribution multisets* are tracked per
//! buffer × `(layer, batch)` value generation and balanced against a
//! [`DataflowSpec`] derived independently from the partition/dedup
//! plans. Per layer and batch it proves:
//!
//! - every aggregation consumes each in-neighbor contribution exactly
//!   once — a supply shortfall is F801 (dropped contribution), an excess
//!   is F802 (double-counted);
//! - every activation write is consumed before its region is
//!   overwritten — F803 (the hybrid checkpoint stores live on separate
//!   `AggCache` resources, so a host-layer overwrite cannot hide behind
//!   a checkpoint);
//! - the backward flow is the exact transpose of the forward flow: a
//!   gradient buffer flushed before every expected accumulation arrived
//!   is F804, an accumulation with no forward counterpart (a push from a
//!   GPU that fetched nothing, or excess rows) is F805;
//! - the deduplicated transfer decomposition carries the same per-owner
//!   contribution multiset as the vanilla comparator — F806, checked
//!   against per-owner demands recomputed from the raw chunk neighbor
//!   lists, not from the dedup plan's own `fetch` matrix.

use crate::diag::{push, DiagCode, Diagnostic, Location, Report};
use crate::trace::incomplete;
use hongtu_partition::{DedupPlan, GpuBufferPlan, TwoLevelPartition};
use hongtu_sim::{BarrierScope, ContribKind, EventKind, Intent, Region, ResourceId, Trace};
use std::collections::HashMap;

/// Communication mode of the schedule under certification. Mirrors the
/// engine's `CommMode` without depending on `hongtu-core` (which
/// depends on this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommKind {
    /// Full-neighbor host loads, no inter-GPU traffic.
    Vanilla,
    /// Deduplicated owner-routed loads with P2P fetches (§5.1).
    P2p,
    /// P2P plus intra-GPU `ℕ^gpu` reuse and merged in-place buffers
    /// (§5.2, §6).
    P2pRu,
}

/// Expected contribution flows of one `(gpu, batch)` chunk, derived
/// from the plans. Row counts are layer-independent (every layer moves
/// the same row sets at different widths).
#[derive(Debug, Clone, Default)]
pub struct ChunkFlow {
    /// `|N_ij|`: total in-neighbor contributions the aggregation must
    /// consume.
    pub demand_total: usize,
    /// `demand_by_owner[k]`: rows of `N_ij` owned by partition `k` — the
    /// vanilla comparator multiset (recomputed from the raw chunk
    /// neighbor lists).
    pub demand_by_owner: Vec<usize>,
    /// Expected host-load rows into the buffer.
    pub host_rows: usize,
    /// `fetch_rows[k]`: expected P2P rows served by GPU `k` (`0` for
    /// `k == gpu` and under vanilla).
    pub fetch_rows: Vec<usize>,
    /// Expected in-place reuse rows (P2P+RU only).
    pub reuse_rows: usize,
    /// `reuse_by_owner[k]`: owner decomposition of the reused rows,
    /// from the merged-buffer plan.
    pub reuse_by_owner: Vec<usize>,
    /// Expected locally-accumulated gradient rows.
    pub grad_local_rows: usize,
    /// `grad_push_rows[p]`: expected gradient rows pushed *into* this
    /// GPU by pusher `p` — the transpose of the forward fetches.
    pub grad_push_rows: Vec<usize>,
    /// Expected rows of the gradient flush (evicted to the host).
    pub grad_flush_rows: usize,
}

/// The full expected-flow table for one configuration: what every
/// `(gpu, batch)` buffer must be fed and drained with.
#[derive(Debug, Clone)]
pub struct DataflowSpec {
    /// Communication mode the flows were derived for.
    pub comm: CommKind,
    /// Number of GPUs / partitions.
    pub m: usize,
    /// Number of batches (chunks per partition).
    pub n: usize,
    /// `flows[gpu][batch]`.
    pub flows: Vec<Vec<ChunkFlow>>,
}

/// Per-owner decomposition of chunk `(gpu, batch)`'s in-neighbor demand
/// `N_ij`, recomputed from the raw chunk neighbor list and the level-1
/// assignment — the vanilla comparator multiset for F806 (and the
/// property-test oracle).
pub fn demand_by_owner(plan: &TwoLevelPartition, gpu: usize, batch: usize) -> Vec<usize> {
    let mut by_owner = vec![0usize; plan.m];
    for &v in &plan.chunks[gpu][batch].neighbors {
        by_owner[plan.assignment.partition_of[v as usize] as usize] += 1;
    }
    by_owner
}

impl DataflowSpec {
    /// Derives the expected flows from the partition and dedup plans.
    /// `bufplans` must be `Some` for [`CommKind::P2pRu`] (the merged
    /// in-place buffer plan determines the H2D/D2D/reuse split).
    pub fn from_plans(
        plan: &TwoLevelPartition,
        dedup: &DedupPlan,
        bufplans: Option<&[GpuBufferPlan]>,
        comm: CommKind,
    ) -> Self {
        let (m, n) = (plan.m, plan.n);
        let owner_of = |v: u32| plan.assignment.partition_of[v as usize] as usize;
        let mut flows = Vec::with_capacity(m);
        for i in 0..m {
            let mut per_batch = Vec::with_capacity(n);
            for j in 0..n {
                let by_owner = demand_by_owner(plan, i, j);
                let demand_total: usize = by_owner.iter().sum();
                let batch = &dedup.batches[j];
                let mut flow = ChunkFlow {
                    demand_total,
                    demand_by_owner: by_owner,
                    fetch_rows: vec![0; m],
                    reuse_by_owner: vec![0; m],
                    grad_push_rows: vec![0; m],
                    ..Default::default()
                };
                match comm {
                    CommKind::Vanilla => {
                        flow.host_rows = demand_total;
                        flow.grad_local_rows = demand_total;
                        flow.grad_flush_rows = demand_total;
                    }
                    CommKind::P2p => {
                        flow.host_rows = batch.transition[i].len();
                        for k in 0..m {
                            if k != i {
                                flow.fetch_rows[k] = batch.fetch[i][k];
                            }
                        }
                        flow.grad_flush_rows = batch.transition[i].len();
                    }
                    CommKind::P2pRu => {
                        let bp = &bufplans.expect("buffer plans required for P2pRu")[i];
                        let bb = &bp.batches[j];
                        let mut incoming = vec![false; bb.merged.len()];
                        for &(t, _) in &bb.incoming {
                            incoming[t as usize] = true;
                            let o = owner_of(bb.merged[t as usize]);
                            if o == i {
                                flow.host_rows += 1;
                            } else {
                                flow.fetch_rows[o] += 1;
                            }
                        }
                        for (t, &v) in bb.merged.iter().enumerate() {
                            if !incoming[t] {
                                flow.reuse_rows += 1;
                                flow.reuse_by_owner[owner_of(v)] += 1;
                            }
                        }
                        let next_reused = if j + 1 < n {
                            dedup.batches[j + 1].reused[i]
                        } else {
                            0
                        };
                        flow.grad_flush_rows = batch.transition[i].len() - next_reused;
                    }
                }
                if comm != CommKind::Vanilla {
                    flow.grad_local_rows = batch.fetch[i][i];
                    for p in 0..m {
                        if p != i {
                            flow.grad_push_rows[p] = batch.fetch[p][i];
                        }
                    }
                }
                per_batch.push(flow);
            }
            flows.push(per_batch);
        }
        DataflowSpec { comm, m, n, flows }
    }
}

/// Supply ledger of one rep-buffer `(gpu, layer, batch)` instance.
#[derive(Debug, Default)]
struct RepLedger {
    host: usize,
    reuse: usize,
    fetch: Vec<usize>,
}

/// Deposit ledger of one grad-buffer `(gpu, layer, batch)` instance.
#[derive(Debug, Default)]
struct GradLedger {
    local: usize,
    push: Vec<usize>,
}

fn rep_buf_gpu(r: ResourceId) -> Option<usize> {
    match r {
        ResourceId::DevRep { gpu } | ResourceId::DevRepSlot { gpu, .. } => Some(gpu as usize),
        _ => None,
    }
}

fn grad_buf_gpu(r: ResourceId) -> Option<usize> {
    match r {
        ResourceId::DevGrad { gpu } | ResourceId::DevGradSlot { gpu, .. } => Some(gpu as usize),
        _ => None,
    }
}

/// Runs the dataflow-conservation analysis over `trace`, returning raw
/// diagnostics. Prefer [`verify_dataflow`], which also refuses
/// incomplete traces.
pub fn check_dataflow(trace: &Trace, spec: &DataflowSpec) -> Vec<Diagnostic> {
    check_dataflow_layers(trace, std::slice::from_ref(spec))
}

/// [`check_dataflow`] for a sweep whose layers run over different plans
/// (a cone-pruned sweep: each layer's plans are packed from that layer's
/// rows): layer `l`'s events are balanced against `specs[l]`; a single
/// spec serves every layer.
fn check_dataflow_layers(trace: &Trace, specs: &[DataflowSpec]) -> Vec<Diagnostic> {
    let spec = &specs[0];
    let spec_of = |l: u32| specs.get(l as usize).unwrap_or(spec);
    let mut diags = Vec::new();
    // (gpu, layer, batch) → supply / deposit ledgers.
    let mut reps: HashMap<(usize, u32, u32), RepLedger> = HashMap::new();
    let mut grads: HashMap<(usize, u32, u32), GradLedger> = HashMap::new();
    // Per host layer: activation writes awaiting a consuming read.
    let mut pending_writes: HashMap<u32, Vec<(Region, bool)>> = HashMap::new();

    for event in trace.events() {
        if let EventKind::Barrier(BarrierScope::Epoch) = event.kind {
            // Epoch boundary: the epoch's outputs (logits) are consumed
            // externally; surviving activation writes are not leaks.
            pending_writes.clear();
        }
        for access in &event.accesses {
            // F803 bookkeeping rides on *all* host-layer accesses, with
            // or without provenance.
            if let ResourceId::Rep { layer } = access.resource {
                let pending = pending_writes.entry(layer).or_default();
                match access.intent {
                    Intent::Write => {
                        for (region, consumed) in pending.iter() {
                            if !consumed && region.overlaps(access.region) {
                                push(
                                    &mut diags,
                                    Diagnostic::new(
                                        DiagCode::ActivationOverwritten,
                                        Location::default(),
                                        format!(
                                            "h^{layer} {region:?} overwritten before any \
                                             read consumed it"
                                        ),
                                    ),
                                );
                            }
                        }
                        pending.retain(|(region, _)| !region.overlaps(access.region));
                        pending.push((access.region, false));
                    }
                    Intent::Read | Intent::Accum => {
                        for (region, consumed) in pending.iter_mut() {
                            if region.overlaps(access.region) {
                                *consumed = true;
                            }
                        }
                    }
                }
            }

            let Some(prov) = access.prov else { continue };
            let (l, j) = (prov.layer, prov.batch);
            match prov.kind {
                ContribKind::HostLoad | ContribKind::Reuse | ContribKind::Fetch => {
                    let Some(gpu) = rep_buf_gpu(access.resource) else {
                        continue;
                    };
                    let entry = reps.entry((gpu, l, j)).or_insert_with(|| RepLedger {
                        fetch: vec![0; spec.m],
                        ..Default::default()
                    });
                    match prov.kind {
                        ContribKind::HostLoad => entry.host += prov.rows,
                        ContribKind::Reuse => entry.reuse += prov.rows,
                        _ => {
                            let from = prov.from as usize;
                            if from < spec.m {
                                entry.fetch[from] += prov.rows;
                            }
                        }
                    }
                }
                ContribKind::Aggregate => {
                    let Some(gpu) = rep_buf_gpu(access.resource) else {
                        continue;
                    };
                    if gpu >= spec.m || (j as usize) >= spec.n {
                        continue;
                    }
                    let flow = &spec_of(l).flows[gpu][j as usize];
                    let ledger = reps.remove(&(gpu, l, j)).unwrap_or_else(|| RepLedger {
                        fetch: vec![0; spec.m],
                        ..Default::default()
                    });
                    check_aggregate(&mut diags, spec, flow, &ledger, gpu, l, j);
                }
                ContribKind::GradLocal | ContribKind::GradPush => {
                    let Some(gpu) = grad_buf_gpu(access.resource) else {
                        continue;
                    };
                    let entry = grads.entry((gpu, l, j)).or_insert_with(|| GradLedger {
                        push: vec![0; spec.m],
                        ..Default::default()
                    });
                    if prov.kind == ContribKind::GradLocal {
                        entry.local += prov.rows;
                    } else {
                        let from = prov.from as usize;
                        if from < spec.m {
                            entry.push[from] += prov.rows;
                        }
                    }
                }
                ContribKind::GradFlush => {
                    let Some(gpu) = grad_buf_gpu(access.resource) else {
                        continue;
                    };
                    if gpu >= spec.m || (j as usize) >= spec.n {
                        continue;
                    }
                    let flow = &spec_of(l).flows[gpu][j as usize];
                    let ledger = grads.remove(&(gpu, l, j)).unwrap_or_else(|| GradLedger {
                        push: vec![0; spec.m],
                        ..Default::default()
                    });
                    check_flush(&mut diags, spec, flow, &ledger, prov.rows, gpu, l, j);
                }
                // Checkpoint stores/reloads live on dedicated AggCache
                // resources whose lifecycle pass 7 already certifies
                // (L604); conservation needs no ledger for them. The
                // activation-store write is handled by the F803
                // bookkeeping above.
                ContribKind::ActStore | ContribKind::CkptStore | ContribKind::CkptReload => {}
            }
        }
    }

    // Gradient deposits that never flushed have no forward counterpart
    // draining them — orphaned accumulations.
    let mut dangling: Vec<_> = grads
        .iter()
        .filter(|(_, g)| g.local > 0 || g.push.iter().any(|&p| p > 0))
        .map(|(&(gpu, l, j), _)| (gpu, l, j))
        .collect();
    dangling.sort_unstable();
    for (gpu, l, j) in dangling {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::OrphanGradient,
                Location::gpu_batch(gpu, j as usize),
                format!("layer {l}: gradient accumulations never flushed to the host"),
            ),
        );
    }
    diags
}

/// Balances one aggregation's supply ledger against the spec: totals
/// first (F801/F802), then — only when the totals conserve — the
/// per-owner decomposition against the vanilla comparator (F806).
fn check_aggregate(
    diags: &mut Vec<Diagnostic>,
    spec: &DataflowSpec,
    flow: &ChunkFlow,
    ledger: &RepLedger,
    gpu: usize,
    l: u32,
    j: u32,
) {
    let expected_total = flow.host_rows + flow.reuse_rows + flow.fetch_rows.iter().sum::<usize>();
    let supplied_total = ledger.host + ledger.reuse + ledger.fetch.iter().sum::<usize>();
    let loc = Location::gpu_batch(gpu, j as usize);
    if supplied_total < expected_total {
        push(
            diags,
            Diagnostic::new(
                DiagCode::DroppedContribution,
                loc,
                format!(
                    "layer {l}: aggregation supplied {supplied_total} contribution rows, \
                     plans promise {expected_total} — some in-neighbor contribution dropped"
                ),
            ),
        );
        return;
    }
    if supplied_total > expected_total {
        push(
            diags,
            Diagnostic::new(
                DiagCode::DoubleCountedContribution,
                loc,
                format!(
                    "layer {l}: aggregation supplied {supplied_total} contribution rows, \
                     plans promise {expected_total} — some contribution delivered twice"
                ),
            ),
        );
        return;
    }
    if spec.comm == CommKind::Vanilla {
        // No decomposition to compare: the one mixed host load is the
        // comparator itself.
        return;
    }
    // The plan says which rows stay in place and which cross PCIe: a row
    // it promised to reuse that arrives as a host load (or the reverse)
    // keeps the total and still breaks the decomposition.
    if ledger.reuse != flow.reuse_rows {
        push(
            diags,
            Diagnostic::new(
                DiagCode::DedupMultisetMismatch,
                loc,
                format!(
                    "layer {l}: {} rows reused in place and {} host-loaded, the buffer plan \
                     promises {} and {}",
                    ledger.reuse, ledger.host, flow.reuse_rows, flow.host_rows
                ),
            ),
        );
        return;
    }
    // Per-owner multiset vs the vanilla comparator: P2P rows served by
    // `k` plus the planned reuse rows owned by `k` must equal the raw
    // demand `|N_ij ∩ V_k|`; the owner's own rows satisfy demand from
    // the (possibly larger) transition set.
    for k in 0..spec.m {
        if k == gpu {
            continue;
        }
        let got = ledger.fetch[k] + flow.reuse_by_owner[k];
        if got != flow.demand_by_owner[k] {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::DedupMultisetMismatch,
                    loc,
                    format!(
                        "layer {l}: rows owned by gpu {k}: dedup transfers carry {got}, \
                         vanilla comparator demands {}",
                        flow.demand_by_owner[k]
                    ),
                ),
            );
        }
    }
    let own = ledger.host + flow.reuse_by_owner[gpu];
    if own < flow.demand_by_owner[gpu] {
        push(
            diags,
            Diagnostic::new(
                DiagCode::DedupMultisetMismatch,
                loc,
                format!(
                    "layer {l}: rows owned by gpu {gpu}: transition supply {own} cannot \
                     cover the vanilla comparator demand {}",
                    flow.demand_by_owner[gpu]
                ),
            ),
        );
    }
}

/// Balances one gradient flush against the transpose of the forward
/// flow: a shortfall is F804 (flushed early), an excess or an
/// unexpected pusher is F805 (orphan).
#[allow(clippy::too_many_arguments)]
fn check_flush(
    diags: &mut Vec<Diagnostic>,
    spec: &DataflowSpec,
    flow: &ChunkFlow,
    ledger: &GradLedger,
    flush_rows: usize,
    gpu: usize,
    l: u32,
    j: u32,
) {
    let loc = Location::gpu_batch(gpu, j as usize);
    if ledger.local < flow.grad_local_rows {
        push(
            diags,
            Diagnostic::new(
                DiagCode::GradFlushEarly,
                loc,
                format!(
                    "layer {l}: flushed with {} local gradient rows accumulated, forward \
                     flow promises {}",
                    ledger.local, flow.grad_local_rows
                ),
            ),
        );
        return;
    }
    for p in 0..spec.m {
        if ledger.push[p] < flow.grad_push_rows[p] {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::GradFlushEarly,
                    loc,
                    format!(
                        "layer {l}: flushed with {} gradient rows pushed from gpu {p}, \
                         forward flow promises {}",
                        ledger.push[p], flow.grad_push_rows[p]
                    ),
                ),
            );
            return;
        }
    }
    if ledger.local > flow.grad_local_rows {
        push(
            diags,
            Diagnostic::new(
                DiagCode::OrphanGradient,
                loc,
                format!(
                    "layer {l}: {} local gradient rows accumulated, forward flow has only {}",
                    ledger.local, flow.grad_local_rows
                ),
            ),
        );
        return;
    }
    for p in 0..spec.m {
        if ledger.push[p] > flow.grad_push_rows[p] {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::OrphanGradient,
                    loc,
                    format!(
                        "layer {l}: gpu {p} pushed {} gradient rows, its forward fetch was \
                         only {} — no forward counterpart",
                        ledger.push[p], flow.grad_push_rows[p]
                    ),
                ),
            );
            return;
        }
    }
    if flush_rows != flow.grad_flush_rows {
        push(
            diags,
            Diagnostic::new(
                DiagCode::OrphanGradient,
                loc,
                format!(
                    "layer {l}: flush evicted {flush_rows} rows, plans promise {}",
                    flow.grad_flush_rows
                ),
            ),
        );
    }
}

/// Pass 9 entry point: refuses incomplete traces (R400, like the other
/// trace passes — an evicted deposit would be indistinguishable from a
/// dropped contribution), then runs the conservation analysis.
pub fn verify_dataflow(trace: &Trace, spec: &DataflowSpec) -> Report {
    verify_dataflow_layers(trace, std::slice::from_ref(spec))
}

/// [`verify_dataflow`] for a cone-pruned sweep: `specs[l]` is derived
/// from the plans layer `l` ran over — the session's, packed from the
/// rows that layer computes.
///
/// # Panics
///
/// Panics if `specs` is empty.
pub fn verify_dataflow_layers(trace: &Trace, specs: &[DataflowSpec]) -> Report {
    let mut report = Report::default();
    if let Some(d) = incomplete(trace) {
        report.extend_pass(vec![d]);
        return report;
    }
    report.extend_pass(check_dataflow_layers(trace, specs));
    report
}
