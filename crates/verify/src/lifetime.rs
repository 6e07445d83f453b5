//! Resource lifetime and liveness analysis over schedules (pass 7,
//! codes `L601`–`L604`), and [`verify_schedule`], the static schedule
//! certification the engine's synthesizer feeds: pass 6 (the
//! happens-before analysis of [`crate::verify_trace`] over a schedule
//! that never executed) followed by this pass.
//!
//! The happens-before pass proves accesses are *ordered*; this pass
//! proves the resources they touch are *live* when used. It replays a
//! trace in recorded order and tracks an install/consume lifecycle for
//! every double-buffered staging slot (`DevRepSlot`/`DevGradSlot`): a
//! tagged deposit *installs* a generation, a read of the installed
//! generation *consumes* it, and installed data must be consumed before
//! the slot is reused. Hybrid checkpoint slots (`AggCache`, §4.2) obey a
//! simpler store-before-reload discipline. Violations:
//!
//! * `L601` **use-after-evict** — a slot read tagged generation `g`
//!   while the slot holds a different generation (or was never
//!   installed): the staged data was already overwritten or evicted.
//! * `L602` **double-install** — a `Write` installs a new generation
//!   over live (installed but never consumed) data, clobbering a batch
//!   that was staged but not yet computed.
//! * `L603` **staging-slot leak** — an `Accum` installs a new
//!   generation over never-drained accumulated gradients, or a gradient
//!   slot still holds undrained data when the trace ends.
//! * `L604` **reload-before-store** — an `AggCache` checkpoint slot is
//!   read before any store wrote it, so the backward recompute would
//!   consume garbage.
//!
//! Generation *restarts* — a deposit of any generation over already
//! consumed data — are legal: every layer phase re-runs the batch
//! sequence 0‥n, so slot generations restart at each layer boundary.
//! The pass deliberately skips the phased executor's whole-buffer
//! resources (`DevRep`/`DevGrad`): under `P2pRu` their ℕ^gpu reuse
//! window legitimately reads the previous batch's generation, which is
//! exactly the pattern the slot lifecycle must reject.

use crate::diag::{push, DiagCode, Diagnostic, Location, Report};
use crate::trace::{incomplete, location_of, verify_trace};
use hongtu_sim::{Access, Event, Intent, ResourceId, Trace};
use std::collections::{HashMap, HashSet};

/// Lifecycle of one staging slot: the generation currently installed,
/// whether anything has consumed (read) it yet, and the installing
/// event (for messages).
struct SlotState {
    cur: u32,
    consumed: bool,
    installed_at: usize,
}

fn is_grad_slot(r: ResourceId) -> bool {
    matches!(r, ResourceId::DevGradSlot { .. })
}

fn slot_location(r: ResourceId) -> Location {
    match r {
        ResourceId::DevRepSlot { gpu, .. }
        | ResourceId::DevGradSlot { gpu, .. }
        | ResourceId::AggCache { gpu, .. } => Location::gpu(gpu as usize),
        _ => Location::default(),
    }
}

fn check_agg(
    diags: &mut Vec<Diagnostic>,
    stored: &mut HashSet<ResourceId>,
    idx: usize,
    ev: &Event,
    a: &Access,
) {
    match a.intent {
        Intent::Write | Intent::Accum => {
            stored.insert(a.resource);
        }
        Intent::Read => {
            if !stored.contains(&a.resource) {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::ReloadBeforeStore,
                        location_of(ev.device),
                        format!(
                            "event {idx} ({:?} on {}) reloads {} before any store wrote \
                             it — the backward recompute would consume garbage",
                            ev.kind, ev.device, a.resource,
                        ),
                    ),
                );
            }
        }
    }
}

fn check_slot(
    diags: &mut Vec<Diagnostic>,
    slots: &mut HashMap<ResourceId, SlotState>,
    idx: usize,
    ev: &Event,
    a: &Access,
) {
    let Some(g) = a.gen else {
        // Untagged slot accesses are only ever reads of whatever is
        // currently staged (the compute steps' `Region::All` reads);
        // they consume the installed generation.
        if a.intent == Intent::Read {
            match slots.get_mut(&a.resource) {
                Some(st) => st.consumed = true,
                None => push(
                    diags,
                    Diagnostic::new(
                        DiagCode::UseAfterEvict,
                        location_of(ev.device),
                        format!(
                            "event {idx} ({:?} on {}) reads {} but nothing was ever \
                             installed in it",
                            ev.kind, ev.device, a.resource,
                        ),
                    ),
                ),
            }
        }
        return;
    };
    match a.intent {
        Intent::Write | Intent::Accum => match slots.get_mut(&a.resource) {
            None => {
                slots.insert(
                    a.resource,
                    SlotState {
                        cur: g,
                        consumed: false,
                        installed_at: idx,
                    },
                );
            }
            Some(st) if st.cur == g && !st.consumed => {
                // Additional deposit of the same install (the `All` /
                // `Owned` / `Fetched` pieces of one batch load, or the
                // local and remote halves of one gradient accumulation).
            }
            Some(st) if st.consumed => {
                // The previous install was consumed — this is a fresh
                // lifetime (the next batch, or a layer-boundary restart
                // reusing the same batch index).
                st.cur = g;
                st.consumed = false;
                st.installed_at = idx;
            }
            Some(st) => {
                // Live, never-consumed data of a *different* generation
                // is being clobbered.
                let (code, what) = if a.intent == Intent::Write {
                    (DiagCode::DoubleInstall, "staged batch data")
                } else {
                    (DiagCode::StagingSlotLeak, "accumulated gradients")
                };
                push(
                    diags,
                    Diagnostic::new(
                        code,
                        location_of(ev.device),
                        format!(
                            "event {idx} ({:?} on {}) installs generation {g} into {} \
                             while generation {} (installed by event {}) is live — the \
                             {what} of that generation were never consumed",
                            ev.kind, ev.device, a.resource, st.cur, st.installed_at,
                        ),
                    ),
                );
                st.cur = g;
                st.consumed = false;
                st.installed_at = idx;
            }
        },
        Intent::Read => match slots.get_mut(&a.resource) {
            Some(st) if st.cur == g => st.consumed = true,
            Some(st) => {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::UseAfterEvict,
                        location_of(ev.device),
                        format!(
                            "event {idx} ({:?} on {}) reads generation {g} of {} but \
                             the slot holds generation {} (installed by event {}) — \
                             generation {g} was evicted or never staged",
                            ev.kind, ev.device, a.resource, st.cur, st.installed_at,
                        ),
                    ),
                );
                // The read did consume whatever is there; marking it
                // keeps one corruption from cascading into leak reports.
                st.consumed = true;
            }
            None => push(
                diags,
                Diagnostic::new(
                    DiagCode::UseAfterEvict,
                    location_of(ev.device),
                    format!(
                        "event {idx} ({:?} on {}) reads generation {g} of {} but \
                         nothing was ever installed in it",
                        ev.kind, ev.device, a.resource,
                    ),
                ),
            ),
        },
    }
}

fn check_lifetimes(trace: &Trace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut slots: HashMap<ResourceId, SlotState> = HashMap::new();
    let mut stored: HashSet<ResourceId> = HashSet::new();
    for (idx, ev) in trace.events().enumerate() {
        for a in &ev.accesses {
            match a.resource {
                ResourceId::AggCache { .. } => check_agg(&mut diags, &mut stored, idx, ev, a),
                ResourceId::DevRepSlot { .. } | ResourceId::DevGradSlot { .. } => {
                    check_slot(&mut diags, &mut slots, idx, ev, a)
                }
                _ => {}
            }
        }
    }
    // A gradient staging slot still holding unconsumed accumulations at
    // the end of the trace was never drained to the host store.
    let mut leaked: Vec<(&ResourceId, &SlotState)> = slots
        .iter()
        .filter(|(r, st)| is_grad_slot(**r) && !st.consumed)
        .collect();
    leaked.sort_by_key(|(_, st)| st.installed_at);
    for (r, st) in leaked {
        push(
            &mut diags,
            Diagnostic::new(
                DiagCode::StagingSlotLeak,
                slot_location(*r),
                format!(
                    "{} still holds generation {} (installed by event {}) when the \
                     trace ends — the accumulated gradients were never drained",
                    r, st.cur, st.installed_at,
                ),
            ),
        );
    }
    diags
}

/// Certifies resource lifetimes over a recorded or synthesized trace:
/// staging-slot install/consume discipline (`L601`–`L603`) and hybrid
/// checkpoint store-before-reload (`L604`). Refuses (`R400`) traces
/// that are disabled or evicted events.
pub fn verify_lifetimes(trace: &Trace) -> Report {
    let mut report = Report::default();
    if let Some(d) = incomplete(trace) {
        report.extend_pass(vec![d]);
        return report;
    }
    report.extend_pass(check_lifetimes(trace));
    report
}

/// Static schedule certification over a synthesized (or recorded)
/// trace: pass 6 (happens-before, `R4xx`/`S501`) and pass 7 (resource
/// lifetimes, `L6xx`). Refuses (`R400`) incomplete traces.
pub fn verify_schedule(trace: &Trace) -> Report {
    let mut report = verify_trace(trace);
    if incomplete(trace).is_none() {
        report.extend_pass(check_lifetimes(trace));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_sim::{Device, Event, EventKind, Region};

    const SLOT: ResourceId = ResourceId::DevRepSlot { gpu: 0, slot: 0 };
    const GSLOT: ResourceId = ResourceId::DevGradSlot { gpu: 0, slot: 1 };
    const AGG: ResourceId = ResourceId::AggCache {
        layer: 0,
        gpu: 0,
        chunk: 0,
    };

    fn ev(accesses: Vec<Access>) -> Event {
        Event::new(EventKind::GpuCompute, Device::Gpu(0), 0, 1e-6, 0.0).with_accesses(accesses)
    }

    fn trace_of(events: Vec<Event>) -> Trace {
        let mut t = Trace::unbounded();
        for e in events {
            t.record(e);
        }
        t
    }

    fn codes(t: &Trace) -> Vec<&'static str> {
        verify_lifetimes(t)
            .diagnostics
            .iter()
            .map(|d| d.code.code())
            .collect()
    }

    #[test]
    fn install_consume_reinstall_is_clean() {
        // Batches 0, 2, 4 through one slot; each consumed before the
        // next install; then a layer restart back to generation 0.
        let t = trace_of(vec![
            ev(vec![Access::write(SLOT, Region::All).with_gen(0)]),
            ev(vec![Access::read(SLOT, Region::All)]),
            ev(vec![Access::write(SLOT, Region::All).with_gen(2)]),
            ev(vec![Access::read(SLOT, Region::All).with_gen(2)]),
            ev(vec![Access::write(SLOT, Region::All).with_gen(0)]),
            ev(vec![Access::read(SLOT, Region::All)]),
        ]);
        assert!(
            verify_lifetimes(&t).is_ok(),
            "{}",
            verify_lifetimes(&t).render()
        );
    }

    #[test]
    fn multi_piece_install_is_one_lifetime() {
        // `All` + `Owned` + `Fetched` deposits of one generation merge.
        let t = trace_of(vec![
            ev(vec![Access::write(SLOT, Region::Owned).with_gen(1)]),
            ev(vec![Access::write(SLOT, Region::Fetched).with_gen(1)]),
            ev(vec![Access::read(SLOT, Region::Owned).with_gen(1)]),
        ]);
        assert!(verify_lifetimes(&t).is_ok());
    }

    #[test]
    fn stale_tagged_read_is_use_after_evict() {
        let t = trace_of(vec![
            ev(vec![Access::write(SLOT, Region::All).with_gen(0)]),
            ev(vec![Access::read(SLOT, Region::All)]),
            ev(vec![Access::write(SLOT, Region::All).with_gen(2)]),
            ev(vec![Access::read(SLOT, Region::All).with_gen(0)]),
        ]);
        assert_eq!(codes(&t), vec!["L601"]);
    }

    #[test]
    fn read_of_never_installed_slot_is_use_after_evict() {
        let t = trace_of(vec![ev(vec![Access::read(SLOT, Region::All).with_gen(3)])]);
        assert_eq!(codes(&t), vec!["L601"]);
    }

    #[test]
    fn clobbering_live_data_is_double_install() {
        let t = trace_of(vec![
            ev(vec![Access::write(SLOT, Region::All).with_gen(0)]),
            ev(vec![Access::write(SLOT, Region::All).with_gen(2)]),
            ev(vec![Access::read(SLOT, Region::All)]),
        ]);
        assert_eq!(codes(&t), vec!["L602"]);
    }

    #[test]
    fn undrained_grad_slot_leaks() {
        // Generation 1 accumulated, never drained, clobbered by 3; and
        // generation 3 is still live when the trace ends.
        let t = trace_of(vec![
            ev(vec![Access::accum(GSLOT, Region::All).with_gen(1)]),
            ev(vec![Access::accum(GSLOT, Region::All).with_gen(3)]),
        ]);
        assert_eq!(codes(&t), vec!["L603", "L603"]);
    }

    #[test]
    fn drained_grad_slot_is_clean() {
        let t = trace_of(vec![
            ev(vec![Access::accum(GSLOT, Region::All).with_gen(1)]),
            ev(vec![Access::accum(GSLOT, Region::All).with_gen(1)]),
            ev(vec![Access::read(GSLOT, Region::All).with_gen(1)]),
        ]);
        assert!(verify_lifetimes(&t).is_ok());
    }

    #[test]
    fn reload_before_store_is_flagged() {
        let t = trace_of(vec![ev(vec![Access::read(AGG, Region::All)])]);
        assert_eq!(codes(&t), vec!["L604"]);
        let ok = trace_of(vec![
            ev(vec![Access::write(AGG, Region::All)]),
            ev(vec![Access::read(AGG, Region::All)]),
        ]);
        assert!(verify_lifetimes(&ok).is_ok());
    }

    #[test]
    fn disabled_trace_is_refused() {
        let r = verify_lifetimes(&Trace::disabled());
        assert_eq!(r.diagnostics[0].code.code(), "R400");
        let r = verify_schedule(&Trace::disabled());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code.code(), "R400");
    }
}
