//! Happens-before schedule checking over simulated execution traces.
//!
//! The plan passes (`P`/`D`/`B`/`V` codes) prove the *artifacts* are
//! well-formed; this pass proves the *schedule that executed them* is.
//! HongTu's correctness hinges on ordering: checkpoints must be written
//! before backward reloads them (§4.2), the in-place `ℕ^gpu` reuse window
//! must not be overwritten while a neighboring GPU's P2P read is
//! outstanding (§5.2, §6), and adjacent batches must be separated by
//! barriers (§4.1, Algorithm 1).
//!
//! The checker reconstructs a happens-before order from the trace with
//! **vector clocks**: each (device, stream) pair is an entity with its own
//! logical clock; events on one entity are program-ordered, and barrier
//! events join every entity's clock (the simulator's barriers are global).
//! Two conflicting accesses of overlapping regions that the resulting
//! order does not relate are a race. On top of the race check it verifies
//! write-before-read (with optional batch-generation matching, catching
//! *stale* data that plain write-before-read would miss) and per-batch
//! barrier coverage.
//!
//! Diagnostic codes: `R400`–`R405` (races / data hazards) and `S501`
//! (batch barrier coverage). See `DESIGN.md` ("Happens-before
//! invariants") for the catalogue.

use crate::diag::{push, DiagCode, Diagnostic, Location, Report};
use hongtu_sim::{
    Access, BarrierScope, Device, Event, EventKind, Intent, Region, ResourceId, Trace,
};
use std::collections::HashMap;

pub(crate) fn location_of(device: Device) -> Location {
    match device {
        Device::Host => Location::default(),
        Device::Gpu(g) => Location::gpu(g as usize),
    }
}

fn conflicts(a: Intent, b: Intent) -> bool {
    match (a, b) {
        (Intent::Read, Intent::Read) => false,
        // Atomic accumulates commute with each other…
        (Intent::Accum, Intent::Accum) => false,
        // …but with nothing else; and write/write, write/read conflict.
        _ => true,
    }
}

fn is_deposit(i: Intent) -> bool {
    matches!(i, Intent::Write | Intent::Accum)
}

/// A not-yet-barrier-settled access of one resource.
struct Rec {
    entity: usize,
    /// The entity's clock value when the access happened.
    tick: u32,
    intent: Intent,
    region: Region,
    gen: Option<u32>,
    ev_idx: usize,
    device: Device,
}

/// Per-resource checking state.
#[derive(Default)]
struct ResState {
    /// Deposits (writes/accumulates) from before the last barrier: they
    /// happen-before everything that follows, so only their (region, gen)
    /// matters. Deduplicated.
    settled: Vec<(Region, Option<u32>)>,
    /// Accesses since the last barrier.
    recent: Vec<Rec>,
    /// Last deposit generation and the batch-barrier segment it happened
    /// in (for the `S501` per-batch barrier-coverage check).
    last_deposit: Option<(u32, u32)>,
}

/// The vector-clock happens-before checker.
struct Checker {
    entities: Vec<(Device, u8)>,
    index: HashMap<(Device, u8), usize>,
    /// `clocks[e][f]`: what entity `e` knows of entity `f`'s clock.
    clocks: Vec<Vec<u32>>,
    /// Clock snapshot at the last barrier (inherited by new entities).
    floor: Vec<u32>,
    /// Number of batch-scope (Batch/Epoch) barriers seen so far.
    batch_no: u32,
    resources: HashMap<ResourceId, ResState>,
    diags: Vec<Diagnostic>,
}

impl Checker {
    fn new() -> Self {
        Checker {
            entities: Vec::new(),
            index: HashMap::new(),
            clocks: Vec::new(),
            floor: Vec::new(),
            batch_no: 0,
            resources: HashMap::new(),
            diags: Vec::new(),
        }
    }

    fn entity(&mut self, device: Device, stream: u8) -> usize {
        if let Some(&e) = self.index.get(&(device, stream)) {
            return e;
        }
        let e = self.entities.len();
        self.entities.push((device, stream));
        self.index.insert((device, stream), e);
        for c in &mut self.clocks {
            c.push(0);
        }
        self.floor.push(0);
        // A new entity inherits the last barrier's knowledge: everything
        // before that barrier happens-before its first event.
        self.clocks.push(self.floor.clone());
        e
    }

    fn on_barrier(&mut self, scope: BarrierScope) {
        let n = self.entities.len();
        let mut join = vec![0u32; n];
        for c in &self.clocks {
            for (f, &v) in c.iter().enumerate() {
                join[f] = join[f].max(v);
            }
        }
        for c in &mut self.clocks {
            c.clone_from(&join);
        }
        self.floor = join;
        if scope != BarrierScope::Phase {
            self.batch_no += 1;
        }
        for st in self.resources.values_mut() {
            for r in st.recent.drain(..) {
                if is_deposit(r.intent) {
                    let entry = (r.region, r.gen);
                    if !st.settled.contains(&entry) {
                        st.settled.push(entry);
                    }
                }
            }
        }
    }

    fn on_event(&mut self, idx: usize, ev: &Event) {
        if let EventKind::Barrier(scope) = ev.kind {
            self.on_barrier(scope);
            return;
        }
        let e = self.entity(ev.device, ev.stream);
        if let EventKind::StreamWait { upstream } = ev.kind {
            // A device-local cross-stream dependency: the waiting stream
            // learns everything the upstream stream of the *same* device
            // has done so far (the cudaStreamWaitEvent edge).
            let up = self.entity(ev.device, upstream);
            if up != e {
                let snapshot = self.clocks[up].clone();
                for (f, v) in snapshot.into_iter().enumerate() {
                    self.clocks[e][f] = self.clocks[e][f].max(v);
                }
            }
        }
        self.clocks[e][e] += 1;
        let tick = self.clocks[e][e];
        for a in &ev.accesses {
            self.check_access(idx, ev, e, tick, a);
        }
    }

    fn check_access(&mut self, idx: usize, ev: &Event, e: usize, tick: u32, a: &Access) {
        let clocks_e = &self.clocks[e];
        let diags = &mut self.diags;
        let batch_no = self.batch_no;
        let st = self.resources.entry(a.resource).or_default();
        // `r` happens-before the current event iff `e` has seen `r`'s
        // entity advance to (at least) `r.tick` — true for earlier events
        // of `e` itself and for anything before the last barrier.
        let ordered = |r: &Rec| clocks_e[r.entity] >= r.tick;

        // ---- race detection ----
        for r in &st.recent {
            if r.entity != e
                && conflicts(r.intent, a.intent)
                && r.region.overlaps(a.region)
                && !ordered(r)
            {
                let code = match (r.intent, a.intent) {
                    (Intent::Accum, _) | (_, Intent::Accum) => DiagCode::RaceAccum,
                    (Intent::Write, Intent::Write) => DiagCode::RaceWriteWrite,
                    _ => DiagCode::RaceWriteRead,
                };
                push(
                    diags,
                    Diagnostic::new(
                        code,
                        location_of(ev.device),
                        format!(
                            "event {idx} ({:?} on {}) {:?}s {} {:?} unordered with \
                             event {} ({:?} on {})",
                            ev.kind,
                            ev.device,
                            a.intent,
                            a.resource,
                            a.region,
                            r.ev_idx,
                            r.intent,
                            r.device,
                        ),
                    ),
                );
            }
        }

        // ---- write-before-read / generation staleness ----
        if a.intent == Intent::Read && !a.resource.initially_valid() {
            let mut populated = false;
            let mut gen_ok = a.gen.is_none();
            for (region, gen) in &st.settled {
                if region.overlaps(a.region) {
                    populated = true;
                    if a.gen.is_some() && *gen == a.gen {
                        gen_ok = true;
                    }
                }
            }
            for r in &st.recent {
                if is_deposit(r.intent) && r.region.overlaps(a.region) && ordered(r) {
                    populated = true;
                    if a.gen.is_some() && r.gen == a.gen {
                        gen_ok = true;
                    }
                }
            }
            if !populated {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::ReadUnpopulated,
                        location_of(ev.device),
                        format!(
                            "event {idx} ({:?} on {}) reads {} {:?} but no \
                             happens-before write populated it",
                            ev.kind, ev.device, a.resource, a.region,
                        ),
                    ),
                );
            } else if !gen_ok {
                push(
                    diags,
                    Diagnostic::new(
                        DiagCode::StaleGeneration,
                        location_of(ev.device),
                        format!(
                            "event {idx} ({:?} on {}) reads {} {:?} expecting batch \
                             generation {} but no happens-before write of that \
                             generation exists (stale data)",
                            ev.kind,
                            ev.device,
                            a.resource,
                            a.region,
                            a.gen.unwrap(),
                        ),
                    ),
                );
            }
        }

        // ---- per-batch barrier coverage ----
        if is_deposit(a.intent) {
            if let Some(g) = a.gen {
                if let Some((prev_gen, prev_batch)) = st.last_deposit {
                    if prev_gen != g && prev_batch == batch_no {
                        push(
                            diags,
                            Diagnostic::new(
                                DiagCode::BatchNotBarriered,
                                location_of(ev.device),
                                format!(
                                    "event {idx} ({:?} on {}) writes {} for batch \
                                     generation {g} but generation {prev_gen} was \
                                     written in the same barrier segment — adjacent \
                                     batches must be separated by a batch barrier",
                                    ev.kind, ev.device, a.resource,
                                ),
                            ),
                        );
                    }
                }
                st.last_deposit = Some((g, batch_no));
            }
        }

        st.recent.push(Rec {
            entity: e,
            tick,
            intent: a.intent,
            region: a.region,
            gen: a.gen,
            ev_idx: idx,
            device: ev.device,
        });
    }
}

pub(crate) fn incomplete(trace: &Trace) -> Option<Diagnostic> {
    if !trace.is_enabled() {
        return Some(Diagnostic::new(
            DiagCode::TraceIncomplete,
            Location::default(),
            "trace is disabled: nothing was recorded, nothing can be certified",
        ));
    }
    if trace.dropped() > 0 {
        return Some(Diagnostic::new(
            DiagCode::TraceIncomplete,
            Location::default(),
            format!(
                "trace evicted {} event(s) under its capacity bound; a pruned trace \
                 cannot be certified (use Trace::unbounded() for verification runs)",
                trace.dropped()
            ),
        ));
    }
    None
}

fn check_trace(trace: &Trace) -> Vec<Diagnostic> {
    if let Some(d) = incomplete(trace) {
        return vec![d];
    }
    let mut checker = Checker::new();
    for (idx, ev) in trace.events().enumerate() {
        checker.on_event(idx, ev);
    }
    checker.diags
}

/// Certifies a recorded execution trace: builds the happens-before order
/// over (device, stream, barrier) edges and checks every annotated access
/// for races (`R401`/`R402`/`R405`), missing or stale populating writes
/// (`R403`/`R404`), and per-batch barrier coverage (`S501`). Refuses
/// (`R400`) traces that are disabled or evicted events.
pub fn verify_trace(trace: &Trace) -> Report {
    let mut report = Report::default();
    report.extend_pass(check_trace(trace));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu_ev(g: u32, kind: EventKind, accesses: Vec<Access>) -> Event {
        Event::new(kind, Device::Gpu(g), 0, 1e-6, 0.0).with_accesses(accesses)
    }

    fn barrier(scope: BarrierScope) -> Event {
        Event::new(EventKind::Barrier(scope), Device::Host, 0, 0.0, 0.0)
    }

    fn stream_ev(g: u32, stream: u8, kind: EventKind, accesses: Vec<Access>) -> Event {
        gpu_ev(g, kind, accesses).on_stream(stream)
    }

    const REP: ResourceId = ResourceId::DevRep { gpu: 0 };

    #[test]
    fn empty_unbounded_trace_is_clean() {
        assert!(verify_trace(&Trace::unbounded()).is_ok());
    }

    #[test]
    fn same_entity_accesses_are_ordered() {
        let mut t = Trace::unbounded();
        t.record(gpu_ev(
            0,
            EventKind::H2D,
            vec![Access::write(REP, Region::All)],
        ));
        t.record(gpu_ev(
            0,
            EventKind::GpuCompute,
            vec![Access::read(REP, Region::All)],
        ));
        assert!(verify_trace(&t).is_ok(), "{}", verify_trace(&t).render());
    }

    #[test]
    fn cross_entity_conflict_without_barrier_races() {
        let mut t = Trace::unbounded();
        t.record(gpu_ev(
            0,
            EventKind::H2D,
            vec![Access::write(REP, Region::All)],
        ));
        t.record(gpu_ev(
            1,
            EventKind::H2D,
            vec![Access::write(REP, Region::All)],
        ));
        assert!(verify_trace(&t).has(DiagCode::RaceWriteWrite));
    }

    #[test]
    fn barrier_orders_cross_entity_accesses() {
        let mut t = Trace::unbounded();
        t.record(gpu_ev(
            0,
            EventKind::H2D,
            vec![Access::write(REP, Region::All)],
        ));
        t.record(barrier(BarrierScope::Phase));
        t.record(gpu_ev(
            1,
            EventKind::D2D,
            vec![Access::read(REP, Region::All)],
        ));
        let r = verify_trace(&t);
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn new_entity_inherits_barrier_floor() {
        // GPU 1's first-ever event comes after a barrier; the pre-barrier
        // write must count as happened-before for it.
        let mut t = Trace::unbounded();
        t.record(gpu_ev(
            0,
            EventKind::H2D,
            vec![Access::write(REP, Region::All)],
        ));
        t.record(barrier(BarrierScope::Batch));
        t.record(gpu_ev(
            1,
            EventKind::GpuCompute,
            vec![Access::read(REP, Region::All)],
        ));
        assert!(verify_trace(&t).is_ok());
    }

    #[test]
    fn same_device_streams_race_without_a_wait() {
        // Copy-in stream fills the buffer while the compute stream reads
        // it: unordered within the segment, so a W/R race.
        let mut t = Trace::unbounded();
        t.record(stream_ev(
            0,
            1,
            EventKind::H2D,
            vec![Access::write(REP, Region::All)],
        ));
        t.record(stream_ev(
            0,
            0,
            EventKind::GpuCompute,
            vec![Access::read(REP, Region::All)],
        ));
        assert!(verify_trace(&t).has(DiagCode::RaceWriteRead));
    }

    #[test]
    fn stream_wait_orders_cross_stream_accesses() {
        // Same schedule, but the compute stream waits for the copy-in
        // stream before reading — the cudaStreamWaitEvent pattern.
        let mut t = Trace::unbounded();
        t.record(stream_ev(
            0,
            1,
            EventKind::H2D,
            vec![Access::write(REP, Region::All)],
        ));
        t.record(stream_ev(
            0,
            0,
            EventKind::StreamWait { upstream: 1 },
            vec![],
        ));
        t.record(stream_ev(
            0,
            0,
            EventKind::GpuCompute,
            vec![Access::read(REP, Region::All)],
        ));
        let r = verify_trace(&t);
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn stream_wait_only_covers_prior_upstream_events() {
        // The wait is issued *before* the copy-in stream's write, so the
        // read is not ordered after it.
        let mut t = Trace::unbounded();
        t.record(stream_ev(
            0,
            0,
            EventKind::StreamWait { upstream: 1 },
            vec![],
        ));
        t.record(stream_ev(
            0,
            1,
            EventKind::H2D,
            vec![Access::write(REP, Region::All)],
        ));
        t.record(stream_ev(
            0,
            0,
            EventKind::GpuCompute,
            vec![Access::read(REP, Region::All)],
        ));
        assert!(verify_trace(&t).has(DiagCode::RaceWriteRead));
    }

    #[test]
    fn stream_wait_does_not_order_other_devices() {
        // GPU 1's wait on its own copy stream says nothing about GPU 0.
        let mut t = Trace::unbounded();
        t.record(stream_ev(
            0,
            0,
            EventKind::GpuCompute,
            vec![Access::write(REP, Region::All)],
        ));
        t.record(stream_ev(
            1,
            0,
            EventKind::StreamWait { upstream: 1 },
            vec![],
        ));
        t.record(stream_ev(
            1,
            0,
            EventKind::D2D,
            vec![Access::read(REP, Region::All)],
        ));
        assert!(verify_trace(&t).has(DiagCode::RaceWriteRead));
    }
}
