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

/// Checks one GPU's buffer plan by symbolic execution.
pub fn verify_buffers(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bp: &GpuBufferPlan,
) -> Vec<Diagnostic> {
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
        return diags;
    }

    let num_vertices = plan.assignment.partition_of.len();
    // Symbolic buffer after the last replayed batch (`replayed`), both
    // ways round: which vertex each slot holds, and which slot each
    // vertex sits in. A slot not in `live` holds no live data (never
    // written, or freed).
    let mut live: StampMap<VertexId> = StampMap::new(bp.capacity);
    let mut resident_at: StampMap<u32> = StampMap::new(num_vertices);
    let mut replayed: Option<&BatchIndices> = None;
    // Vertices that were resident at some earlier batch and then evicted —
    // used to tell use-after-free (B203) from never-written (B202).
    let mut evicted: StampMap<()> = StampMap::new(num_vertices);
    // Per-batch scratch: the first vertex to claim each slot, and where
    // each vertex of `M_ij` lives this batch.
    let mut slot_claims: StampMap<VertexId> = StampMap::new(bp.capacity);
    let mut slot_now: StampMap<u32> = StampMap::new(num_vertices);

    for (j, b) in bp.batches.iter().enumerate() {
        let loc = Location::gpu_batch(gpu, j);
        let chunk = &plan.chunks[gpu][j];
        let transition = &dedup.batches[j].transition[gpu];

        // ---- index-vector consistency (B205) ----
        let expected_merged = union_sorted(transition, &chunk.neighbors);
        if b.merged != expected_merged {
            push(
                &mut diags,
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
                &mut diags,
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
            continue; // the replay below would index out of bounds
        }
        if b.nbr_slot.len() != chunk.neighbors.len() {
            push(
                &mut diags,
                Diagnostic::new(
                    DiagCode::MergedSetWrong,
                    loc,
                    format!(
                        "{} neighbor slots for {} neighbors",
                        b.nbr_slot.len(),
                        chunk.neighbors.len()
                    ),
                ),
            );
        }
        let mut is_incoming = vec![false; b.merged.len()];
        let mut incoming_ok = true;
        for &(t, slot) in &b.incoming {
            if t as usize >= b.merged.len() {
                push(
                    &mut diags,
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
                    &mut diags,
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
                    &mut diags,
                    Diagnostic::new(
                        DiagCode::SlotAliased,
                        loc.with_vertex(b.merged[t as usize]),
                        format!("vertex {} written twice in one batch", b.merged[t as usize]),
                    ),
                );
            }
        }
        if !incoming_ok {
            continue;
        }

        // ---- capacity (B204) ----
        for (t, &slot) in b.position.iter().enumerate() {
            if slot as usize >= bp.capacity {
                push(
                    &mut diags,
                    Diagnostic::new(
                        DiagCode::CapacityExceeded,
                        loc.with_vertex(b.merged[t]),
                        format!("slot {slot} beyond declared capacity {}", bp.capacity),
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
                    &mut diags,
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
                    push(&mut diags, Diagnostic::new(code, loc.with_vertex(v), why));
                }
            }
        }

        // ---- neighbor reads route to the right slots (B202) ----
        slot_now.clear();
        for (&v, &slot) in b.merged.iter().zip(&b.position) {
            slot_now.insert(v, slot);
        }
        for (&nv, &read) in chunk.neighbors.iter().zip(&b.nbr_slot) {
            match slot_now.get(nv) {
                None => push(
                    &mut diags,
                    Diagnostic::new(
                        DiagCode::MergedSetWrong,
                        loc.with_vertex(nv),
                        format!("neighbor {nv} missing from M_ij"),
                    ),
                ),
                Some(slot) if slot != read => push(
                    &mut diags,
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
        if let Some(prev) = replayed {
            for (&v, &slot) in prev.merged.iter().zip(&prev.position) {
                if live.get(slot) == Some(v) {
                    evicted.insert(v, ());
                }
            }
        }
        live.clear();
        for (&v, &slot) in b.merged.iter().zip(&b.position) {
            evicted.remove(v);
            live.insert(slot, v);
        }
        std::mem::swap(&mut resident_at, &mut slot_now);
        replayed = Some(b);
    }
    diags
}

/// Checks every GPU's buffer plan (plus the collection's shape).
pub fn verify_all_buffers(
    plan: &TwoLevelPartition,
    dedup: &DedupPlan,
    bufplans: &[GpuBufferPlan],
) -> Vec<Diagnostic> {
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
        return diags;
    }
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
        diags.extend(verify_buffers(plan, dedup, bp));
    }
    diags
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
