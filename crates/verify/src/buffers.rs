//! Pass 3 — in-place buffer plan (paper §6): a borrow checker for device
//! buffer slots.
//!
//! The engine never compacts the merged buffer `M_ij`; it trusts the
//! precomputed slot indices completely. A wrong slot is silent data
//! corruption, not a crash — exactly the class of bug worth a static
//! checker. This pass replays every [`BatchIndices`] with a symbolic
//! buffer (slot → vertex), checking that:
//!
//! - every slot a batch uses lies below the declared capacity (B204);
//! - no two live vertices share a slot within a batch (B201);
//! - a vertex *not* in the batch's incoming list really is resident at
//!   its claimed slot from the previous batch — anything else is a read
//!   of never-written or stale data (B202 / B203);
//! - `nbr_slot` routes every neighbor access to the slot that actually
//!   holds that neighbor's row (B202);
//! - `M_ij`, `position`, `incoming`, and `nbr_slot` are mutually
//!   consistent and equal to `ℕ_ij ∪ N_ij` (B205).

use crate::dense::StampMap;
use crate::diag::{push, DiagCode, Diagnostic, Location};
use hongtu_graph::VertexId;
use hongtu_partition::{BatchIndices, DedupPlan, GpuBufferPlan, TwoLevelPartition};
use std::sync::Arc;

/// Checks one GPU's buffer plan by symbolic execution.
pub fn verify_buffers(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bp: &GpuBufferPlan,
) -> Vec<Diagnostic> {
    let mut replay = Replay::new(bp.capacity, plan.assignment.partition_of.len());
    verify_buffers_since(plan, dedup, bp, None, &mut replay, &mut 0).0
}

/// What pass 3 may take from a certificate for one GPU: which batches'
/// inputs are all what it certified (`shared[j]`: the batch's
/// `BatchIndices`, chunk neighbor list and transition set), the
/// certified batches themselves, and each one's slot bound.
pub(crate) struct CertifiedChain<'c> {
    pub(crate) shared: Vec<bool>,
    pub(crate) batches: &'c [Arc<BatchIndices>],
    pub(crate) slots: &'c [usize],
}

/// Pass 3 for one GPU, replaying only what `since` did not certify: from
/// the first batch that is not shared, starting from the buffer its
/// predecessor leaves, until a shared batch whose predecessor left the
/// buffer as the certified predecessor did — `(merged, position)`,
/// compared here. A certified batch is held to the capacity through its
/// certified slot bound. Returns the findings and each batch's slot
/// bound (one past its highest slot); `visited` counts the batches
/// replayed.
fn verify_buffers_since<'p>(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bp: &'p GpuBufferPlan,
    since: Option<CertifiedChain<'_>>,
    replay: &mut Replay<'p>,
    visited: &mut usize,
) -> (Vec<Diagnostic>, Vec<usize>) {
    let mut diags = Vec::new();
    let gpu = bp.gpu;
    if gpu >= plan.m || bp.batches.len() != plan.n || dedup.batches.len() != plan.n {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::MergedSetWrong,
                Location::gpu(gpu),
                format!(
                    "buffer plan shape: gpu {gpu} (m = {}), {} batches (n = {})",
                    plan.m,
                    bp.batches.len(),
                    plan.n
                ),
            ),
        );
        return (diags, Vec::new());
    }
    replay.reset();
    let mut slots = vec![0usize; plan.n];
    // Whether the buffer before batch `j` is the one the certificate
    // saw there, so a shared batch `j` needs no replay.
    let mut in_step = since.is_some();
    for (j, b) in bp.batches.iter().enumerate() {
        if let Some(since) = &since {
            let rejoined = in_step
                || j.checked_sub(1).is_some_and(|p| {
                    let (now, then) = (&bp.batches[p], &since.batches[p]);
                    now.merged == then.merged && now.position == then.position
                });
            if since.shared[j] && rejoined {
                in_step = true;
                slots[j] = since.slots[j];
                if slots[j] > bp.capacity {
                    push(
                        &mut diags,
                        Diagnostic::new(
                            DiagCode::CapacityExceeded,
                            Location::gpu_batch(gpu, j),
                            format!(
                                "certified slots reach {} beyond declared capacity {}",
                                slots[j], bp.capacity
                            ),
                        ),
                    );
                }
                continue;
            }
            if in_step {
                // The buffer the previous batch left is the certified one.
                if let Some(p) = j.checked_sub(1) {
                    replay.resume(&bp.batches[p]);
                }
                in_step = false;
            }
        }
        *visited += 1;
        slots[j] = replay.step(
            gpu,
            j,
            b,
            &plan.chunks[gpu][j].neighbors,
            &dedup.batches[j].transition[gpu],
            bp.capacity,
            &mut diags,
        );
    }
    (diags, slots)
}

/// The symbolic buffer of one GPU's replay.
struct Replay<'p> {
    /// After the last replayed batch (`replayed`), both ways round: which
    /// vertex each slot holds, and which slot each vertex sits in. A
    /// slot not in `live` holds no live data (never written, or freed).
    live: StampMap<VertexId>,
    resident_at: StampMap<u32>,
    replayed: Option<&'p BatchIndices>,
    /// Vertices that were resident at some earlier replayed batch and
    /// then evicted — used to tell use-after-free (B203) from
    /// never-written (B202). Kept only by a replay from batch 0
    /// (`history`): a resumed one reports either, and its caller re-runs
    /// whole on any finding.
    evicted: StampMap<()>,
    history: bool,
    /// Per-batch scratch: the first vertex to claim each slot, and where
    /// each vertex of `M_ij` lives this batch.
    slot_claims: StampMap<VertexId>,
    slot_now: StampMap<u32>,
}

impl<'p> Replay<'p> {
    fn new(capacity: usize, num_vertices: usize) -> Self {
        Replay {
            live: StampMap::new(capacity),
            resident_at: StampMap::new(num_vertices),
            replayed: None,
            evicted: StampMap::new(num_vertices),
            history: true,
            slot_claims: StampMap::new(capacity),
            slot_now: StampMap::new(num_vertices),
        }
    }

    /// Forgets everything replayed: an empty buffer, as before batch 0.
    fn reset(&mut self) {
        self.live.clear();
        self.resident_at.clear();
        self.replayed = None;
        self.evicted.clear();
        self.history = true;
    }

    /// Takes up the replay after `prev`, a batch already certified,
    /// without its history: nothing counts as evicted.
    fn resume(&mut self, prev: &'p BatchIndices) {
        self.live.clear();
        self.resident_at.clear();
        for (&v, &slot) in prev.merged.iter().zip(&prev.position) {
            self.live.insert(slot, v);
            self.resident_at.insert(v, slot);
        }
        self.replayed = Some(prev);
        self.history = false;
    }

    /// Replays batch `j`, whose chunk reads `neighbors` and whose
    /// transition set is `transition`; returns its slot bound.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        gpu: usize,
        j: usize,
        b: &'p BatchIndices,
        neighbors: &[VertexId],
        transition: &[VertexId],
        capacity: usize,
        diags: &mut Vec<Diagnostic>,
    ) -> usize {
        let Replay {
            live,
            resident_at,
            replayed,
            evicted,
            history,
            slot_claims,
            slot_now,
        } = self;
        let loc = Location::gpu_batch(gpu, j);

        // ---- index-vector consistency (B205) ----
        let expected_merged = union_sorted(transition, neighbors);
        if b.merged != expected_merged {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::MergedSetWrong,
                    loc,
                    format!(
                        "M_ij has {} vertices, expected |ℕ_ij ∪ N_ij| = {}",
                        b.merged.len(),
                        expected_merged.len()
                    ),
                ),
            );
        }
        if b.position.len() != b.merged.len() {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::MergedSetWrong,
                    loc,
                    format!(
                        "{} positions for {} merged vertices",
                        b.position.len(),
                        b.merged.len()
                    ),
                ),
            );
            return 0; // the replay below would index out of bounds
        }
        if b.nbr_slot.len() != neighbors.len() {
            push(
                diags,
                Diagnostic::new(
                    DiagCode::MergedSetWrong,
                    loc,
                    format!(
                        "{} neighbor slots for {} neighbors",
                        b.nbr_slot.len(),
                        neighbors.len()
                    ),
                ),
            );
        }
        let mut is_incoming = vec![false; b.merged.len()];
        let mut incoming_ok = true;
        for &(t, slot) in &b.incoming {
            if t as usize >= b.merged.len() {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::MergedSetWrong,
                        loc,
                        format!(
                            "incoming index {t} out of range (|M_ij| = {})",
                            b.merged.len()
                        ),
                    ),
                );
                incoming_ok = false;
                continue;
            }
            if b.position[t as usize] != slot {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::MergedSetWrong,
                        loc.with_vertex(b.merged[t as usize]),
                        format!(
                            "incoming row targets slot {slot} but position[{t}] = {}",
                            b.position[t as usize]
                        ),
                    ),
                );
            }
            if std::mem::replace(&mut is_incoming[t as usize], true) {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::SlotAliased,
                        loc.with_vertex(b.merged[t as usize]),
                        format!("vertex {} written twice in one batch", b.merged[t as usize]),
                    ),
                );
            }
        }
        if !incoming_ok {
            return 0;
        }

        // ---- capacity (B204) ----
        for (t, &slot) in b.position.iter().enumerate() {
            if slot as usize >= capacity {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::CapacityExceeded,
                        loc.with_vertex(b.merged[t]),
                        format!("slot {slot} beyond declared capacity {}", capacity),
                    ),
                );
            }
        }

        // ---- per-batch slot uniqueness (B201) ----
        slot_claims.clear();
        for (t, &slot) in b.position.iter().enumerate() {
            let v = b.merged[t];
            if let Some(w) = slot_claims.get(slot) {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::SlotAliased,
                        loc.with_vertex(v),
                        format!("vertices {w} and {v} both live in slot {slot}"),
                    ),
                );
            } else {
                slot_claims.insert(slot, v);
            }
        }

        // ---- reuse claims: non-incoming rows must already be resident ----
        for (t, (&v, &slot)) in b.merged.iter().zip(&b.position).enumerate() {
            if is_incoming[t] {
                continue; // written this batch
            }
            match live.get(slot) {
                Some(resident) if resident == v => {} // genuine in-place reuse
                _ => {
                    // Distinguish how the plan went wrong for the message.
                    let prev_slot = resident_at.get(v).filter(|&s| live.get(s) == Some(v));
                    let (code, why) = match prev_slot {
                        Some(s) => (
                            DiagCode::SlotMoved,
                            format!("vertex {v} is resident at slot {s}, not {slot} (moved without rewrite)"),
                        ),
                        None if evicted.contains(v) => (
                            DiagCode::SlotMoved,
                            format!("vertex {v} was evicted earlier; reading slot {slot} is use-after-free"),
                        ),
                        None => (
                            DiagCode::ReadUnwritten,
                            format!("vertex {v} claims in-place reuse of slot {slot}, which never held it"),
                        ),
                    };
                    push(diags, Diagnostic::new(code, loc.with_vertex(v), why));
                }
            }
        }

        // ---- neighbor reads route to the right slots (B202) ----
        slot_now.clear();
        for (&v, &slot) in b.merged.iter().zip(&b.position) {
            slot_now.insert(v, slot);
        }
        for (&nv, &read) in neighbors.iter().zip(&b.nbr_slot) {
            match slot_now.get(nv) {
                None => push(
                    diags,
                    Diagnostic::new(
                        DiagCode::MergedSetWrong,
                        loc.with_vertex(nv),
                        format!("neighbor {nv} missing from M_ij"),
                    ),
                ),
                Some(slot) if slot != read => push(
                    diags,
                    Diagnostic::new(
                        DiagCode::ReadUnwritten,
                        loc.with_vertex(nv),
                        format!(
                            "neighbor {nv} read from slot {read} but its row lives in slot {slot}"
                        ),
                    ),
                ),
                Some(_) => {}
            }
        }

        // ---- commit the batch: track evictions, new residency maps ----
        if let Some(prev) = replayed.filter(|_| *history) {
            for (&v, &slot) in prev.merged.iter().zip(&prev.position) {
                if live.get(slot) == Some(v) {
                    evicted.insert(v, ());
                }
            }
        }
        live.clear();
        for (&v, &slot) in b.merged.iter().zip(&b.position) {
            if *history {
                evicted.remove(v);
            }
            live.insert(slot, v);
        }
        std::mem::swap(resident_at, slot_now);
        *replayed = Some(b);
        b.position
            .iter()
            .map(|&s| s as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Checks every GPU's buffer plan (plus the collection's shape).
pub fn verify_all_buffers(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufplans: &[GpuBufferPlan],
) -> Vec<Diagnostic> {
    verify_all_buffers_since(plan, dedup, bufplans, |_| None, &mut 0).0
}

/// Pass 3 over every GPU, GPU `i` against what `since(i)` certified for
/// it ([`verify_buffers_since`]), one replay buffer shared by all.
/// Returns the findings and, per GPU, each batch's slot bound.
pub(crate) fn verify_all_buffers_since<'c>(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufplans: &[GpuBufferPlan],
    since: impl Fn(usize) -> Option<CertifiedChain<'c>>,
    visited: &mut usize,
) -> (Vec<Diagnostic>, Vec<Vec<usize>>) {
    let mut diags = Vec::new();
    if bufplans.len() != plan.m {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::MergedSetWrong,
                Location::default(),
                format!("{} buffer plans for {} GPUs", bufplans.len(), plan.m),
            ),
        );
        return (diags, Vec::new());
    }
    let capacity = bufplans.iter().map(|bp| bp.capacity).max().unwrap_or(0);
    let mut replay = Replay::new(capacity, plan.assignment.partition_of.len());
    let mut slots = Vec::with_capacity(bufplans.len());
    for (i, bp) in bufplans.iter().enumerate() {
        if bp.gpu != i {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::MergedSetWrong,
                    Location::gpu(i),
                    format!("plan at index {i} claims GPU {}", bp.gpu),
                ),
            );
            continue;
        }
        let (found, bounds) = verify_buffers_since(plan, dedup, bp, since(i), &mut replay, visited);
        diags.extend(found);
        slots.push(bounds);
    }
    (diags, slots)
}

/// Union of two sorted, deduplicated slices (mirror of the planner's).
fn union_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut k) = (0usize, 0usize);
    while i < a.len() && k < b.len() {
        match a[i].cmp(&b[k]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[k]);
                k += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                k += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[k..]);
    out
}
