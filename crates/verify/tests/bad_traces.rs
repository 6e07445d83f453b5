//! Hand-corrupted *bad* traces, each triggering its documented `R4xx` /
//! `S501` diagnostic, plus mutation-style tests that take a known-good
//! schedule and reorder, drop, or duplicate one event and assert the
//! happens-before checker notices.
//!
//! These are the silent-ordering bugs the trace pass exists to catch: a
//! backward reload racing the forward store it depends on, a stale
//! checkpoint generation, an `ℕ^gpu` in-place reuse clobbering a buffer
//! another GPU is still pulling from — none of which would crash the
//! simulator, all of which would corrupt training on real hardware.

use hongtu_sim::{Access, BarrierScope, Device, Event, EventKind, Region, ResourceId, Trace};
use hongtu_verify::{verify_trace, DiagCode};

fn ev(g: u32, kind: EventKind, accesses: Vec<Access>) -> Event {
    Event::new(kind, Device::Gpu(g), 64, 1e-6, 0.0).with_accesses(accesses)
}

fn barrier(scope: BarrierScope) -> Event {
    Event::new(EventKind::Barrier(scope), Device::Host, 0, 0.0, 0.0)
}

fn trace_of(events: Vec<Event>) -> Trace {
    let mut t = Trace::unbounded();
    for e in events {
        t.record(e);
    }
    t
}

const DEV_REP: ResourceId = ResourceId::DevRep { gpu: 0 };
const DEV_GRAD: ResourceId = ResourceId::DevGrad { gpu: 1 };
const CKPT: ResourceId = ResourceId::AggCache {
    layer: 0,
    gpu: 0,
    chunk: 0,
};

// --------------------------------------------------- R400 TraceIncomplete

#[test]
fn disabled_trace_is_r400() {
    let r = verify_trace(&Trace::disabled());
    assert!(r.has(DiagCode::TraceIncomplete), "{}", r.render());
}

#[test]
fn pruned_trace_is_r400() {
    // A capacity-bounded trace that evicted events cannot be certified:
    // the dropped prefix could hide any race.
    let mut t = Trace::with_capacity(2);
    for _ in 0..5 {
        t.record(ev(0, EventKind::GpuCompute, vec![]));
    }
    assert!(t.dropped() > 0);
    let r = verify_trace(&t);
    assert!(r.has(DiagCode::TraceIncomplete), "{}", r.render());
}

// --------------------------------------------------- R401 RaceWriteWrite

#[test]
fn concurrent_writes_same_buffer_is_r401() {
    // Two GPUs H2D into the same merged buffer with no barrier between:
    // the §6 in-place layout makes this a lost update.
    let t = trace_of(vec![
        ev(0, EventKind::H2D, vec![Access::write(DEV_REP, Region::All)]),
        ev(1, EventKind::H2D, vec![Access::write(DEV_REP, Region::All)]),
    ]);
    let r = verify_trace(&t);
    assert!(r.has(DiagCode::RaceWriteWrite), "{}", r.render());
}

#[test]
fn disjoint_region_writes_are_clean() {
    // Owned and fetched segments of the merged buffer are disjoint (§6),
    // so concurrent writes to them commute.
    let t = trace_of(vec![
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::Owned)],
        ),
        ev(
            1,
            EventKind::D2D,
            vec![Access::write(DEV_REP, Region::Fetched)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.is_ok(), "{}", r.render());
}

// ---------------------------------------------------- R402 RaceWriteRead

#[test]
fn read_racing_write_is_r402() {
    // GPU 1 pulls from GPU 0's buffer while the host is still refilling
    // it — the §5.2 reuse-window hazard.
    let t = trace_of(vec![
        ev(
            1,
            EventKind::D2D,
            vec![Access::read(DEV_REP, Region::Owned)],
        ),
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::Owned)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.has(DiagCode::RaceWriteRead), "{}", r.render());
}

#[test]
fn barrier_separated_write_read_is_clean() {
    let t = trace_of(vec![
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::Owned)],
        ),
        barrier(BarrierScope::Phase),
        ev(
            1,
            EventKind::D2D,
            vec![Access::read(DEV_REP, Region::Owned)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.is_ok(), "{}", r.render());
}

// --------------------------------------------------- R403 ReadUnpopulated

#[test]
fn backward_reload_without_forward_store_is_r403() {
    // Backward H2Ds a checkpoint slot that forward never D2H'd (§4.2).
    let t = trace_of(vec![ev(
        0,
        EventKind::H2D,
        vec![Access::read(CKPT, Region::All)],
    )]);
    let r = verify_trace(&t);
    assert!(r.has(DiagCode::ReadUnpopulated), "{}", r.render());
}

#[test]
fn input_features_are_initially_valid() {
    // Layer-0 host representations are the input features: readable
    // without a populating write.
    let t = trace_of(vec![ev(
        0,
        EventKind::H2D,
        vec![Access::read(ResourceId::Rep { layer: 0 }, Region::All)],
    )]);
    let r = verify_trace(&t);
    assert!(r.is_ok(), "{}", r.render());
}

// --------------------------------------------------- R404 StaleGeneration

#[test]
fn reading_previous_batch_generation_is_r404() {
    // The buffer holds batch 0's rows; batch 1's compute consumes it
    // without the batch-1 refill — stale data, not a race.
    let t = trace_of(vec![
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(0)],
        ),
        barrier(BarrierScope::Batch),
        ev(
            0,
            EventKind::GpuCompute,
            vec![Access::read(DEV_REP, Region::All).with_gen(1)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.has(DiagCode::StaleGeneration), "{}", r.render());
}

#[test]
fn matching_generation_is_clean() {
    let t = trace_of(vec![
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(1)],
        ),
        ev(
            0,
            EventKind::GpuCompute,
            vec![Access::read(DEV_REP, Region::All).with_gen(1)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.is_ok(), "{}", r.render());
}

// ------------------------------------------------------- R405 RaceAccum

#[test]
fn accumulate_racing_read_is_r405() {
    // GPU 0 pushes a remote gradient accumulate into GPU 1's buffer
    // while GPU 1 is draining it to the host.
    let t = trace_of(vec![
        ev(1, EventKind::D2H, vec![Access::read(DEV_GRAD, Region::All)]),
        ev(
            0,
            EventKind::D2D,
            vec![Access::accum(DEV_GRAD, Region::All)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.has(DiagCode::RaceAccum), "{}", r.render());
}

#[test]
fn concurrent_accumulates_commute() {
    // Atomic scatter-adds from different GPUs into the same gradient
    // buffer are order-free — the one commutative concurrent pattern.
    let t = trace_of(vec![
        ev(
            0,
            EventKind::D2D,
            vec![Access::accum(DEV_GRAD, Region::All)],
        ),
        ev(
            2,
            EventKind::D2D,
            vec![Access::accum(DEV_GRAD, Region::All)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.is_ok(), "{}", r.render());
}

// ------------------------------------------------- S501 BatchNotBarriered

#[test]
fn two_batch_generations_in_one_segment_is_s501() {
    // Batch 1's refill lands before batch 0's segment was closed by a
    // batch barrier (Algorithm 1 requires one per chunk batch).
    let t = trace_of(vec![
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(0)],
        ),
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(1)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.has(DiagCode::BatchNotBarriered), "{}", r.render());
}

#[test]
fn phase_barrier_does_not_close_a_batch() {
    // Phase barriers order intra-batch stages; only Batch/Epoch scope
    // closes the segment for S501 purposes.
    let t = trace_of(vec![
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(0)],
        ),
        barrier(BarrierScope::Phase),
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(1)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.has(DiagCode::BatchNotBarriered), "{}", r.render());
}

#[test]
fn batch_barrier_separates_generations_cleanly() {
    let t = trace_of(vec![
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(0)],
        ),
        barrier(BarrierScope::Batch),
        ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(1)],
        ),
    ]);
    let r = verify_trace(&t);
    assert!(r.is_ok(), "{}", r.render());
}

// ----------------------------------------- mutations of a known-good trace

/// A minimal known-good schedule: host loads GPU 0's buffer, a phase
/// barrier publishes it, both GPUs consume it, a batch barrier closes
/// the batch, and the next generation repeats the pattern.
fn good_trace() -> Vec<Event> {
    let mut events = Vec::new();
    for gen in 0..2u32 {
        events.push(ev(
            0,
            EventKind::H2D,
            vec![Access::write(DEV_REP, Region::All).with_gen(gen)],
        ));
        events.push(barrier(BarrierScope::Phase));
        events.push(ev(
            0,
            EventKind::GpuCompute,
            vec![Access::read(DEV_REP, Region::All).with_gen(gen)],
        ));
        events.push(ev(
            1,
            EventKind::D2D,
            vec![Access::read(DEV_REP, Region::All).with_gen(gen)],
        ));
        events.push(barrier(BarrierScope::Batch));
    }
    events
}

#[test]
fn good_trace_is_clean() {
    let r = verify_trace(&trace_of(good_trace()));
    assert!(r.is_ok(), "{}", r.render());
}

#[test]
fn reordering_read_before_write_is_caught() {
    // Swap the batch-0 load past the phase barrier and its consumers:
    // the reads now race the write and (first read) find it unpopulated.
    let mut events = good_trace();
    let load = events.remove(0);
    events.insert(3, load);
    let r = verify_trace(&trace_of(events));
    assert!(
        r.has(DiagCode::ReadUnpopulated) || r.has(DiagCode::RaceWriteRead),
        "{}",
        r.render()
    );
}

#[test]
fn dropping_the_phase_barrier_is_caught() {
    // Without the phase barrier the cross-GPU read races the host load.
    let mut events = good_trace();
    events.remove(1);
    let r = verify_trace(&trace_of(events));
    assert!(r.has(DiagCode::RaceWriteRead), "{}", r.render());
}

#[test]
fn dropping_the_batch_barrier_is_caught() {
    // Without the batch barrier, generation 1's load lands in
    // generation 0's segment.
    let mut events = good_trace();
    events.remove(4);
    let r = verify_trace(&trace_of(events));
    assert!(r.has(DiagCode::BatchNotBarriered), "{}", r.render());
}

#[test]
fn duplicating_the_load_on_another_gpu_is_caught() {
    // Replay the batch-0 load from a second entity in the same segment:
    // two unordered writes to the same region.
    let mut events = good_trace();
    let mut dup = events[0].clone();
    dup.device = Device::Gpu(1);
    events.insert(1, dup);
    let r = verify_trace(&trace_of(events));
    assert!(r.has(DiagCode::RaceWriteWrite), "{}", r.render());
}

#[test]
fn dropping_the_forward_store_is_caught() {
    // Forward stores a checkpoint, backward reloads it; deleting the
    // store leaves the reload reading an unpopulated slot (§4.2).
    let store = ev(0, EventKind::D2H, vec![Access::write(CKPT, Region::All)]);
    let reload = ev(0, EventKind::H2D, vec![Access::read(CKPT, Region::All)]);
    let good = vec![store, barrier(BarrierScope::Batch), reload];
    assert!(verify_trace(&trace_of(good.clone())).is_ok());
    let r = verify_trace(&trace_of(good[1..].to_vec()));
    assert!(r.has(DiagCode::ReadUnpopulated), "{}", r.render());
}

// ------------------------------ mutants an exact trace comparison sees
//
// Two runs of one plan must record equal traces, event for event (lanes
// join in GPU index order), so a reordered, dropped, duplicated or moved
// event is a difference in the events themselves.

#[test]
fn same_gpu_swap_changes_the_trace() {
    let extra = ev(0, EventKind::D2H, vec![]);
    let mut events = good_trace();
    events.insert(3, extra);
    let original = events.clone();
    // Events 2 and 3 are both on GPU 0: their order is program order.
    events.swap(2, 3);
    assert_ne!(original, events);
}

#[test]
fn dropped_event_changes_the_trace() {
    let mut events = good_trace();
    events.remove(2);
    assert_ne!(good_trace(), events);
}

#[test]
fn duplicated_event_changes_the_trace() {
    let mut events = good_trace();
    let dup = events[2].clone();
    events.insert(3, dup);
    assert_ne!(good_trace(), events);
}

#[test]
fn moved_across_barrier_changes_the_trace() {
    let mut events = good_trace();
    // Move GPU 1's batch-0 read into batch 1's segment.
    let moved = events.remove(3);
    events.insert(5, moved);
    assert_ne!(good_trace(), events);
}
