//! Hand-corrupted *bad* schedules, each triggering its documented
//! `R4xx` / `L6xx` diagnostic — the mutation suite for the static
//! certification passes 6–7, mirroring `bad_traces.rs` for pass 5.
//!
//! Each test starts from a miniature but faithful rendition of the
//! overlap executor's schedule shapes (staging-slot installs tagged with
//! batch generations, stream-separated prefetch/compute, hybrid
//! checkpoint store/reload) and applies one of the classic silent
//! corruptions: a dropped `stream_wait`, a swapped install/evict pair, a
//! rotated slot reuse, a leaked gradient slot, a reload of a checkpoint
//! nothing stored. None would crash the simulator; all would corrupt
//! training on real hardware.

use hongtu_sim::{Access, BarrierScope, Device, Event, EventKind, Region, ResourceId, Trace};
use hongtu_verify::{verify_lifetimes, verify_schedule, verify_trace, DiagCode};

fn sev(g: u32, stream: u8, kind: EventKind, accesses: Vec<Access>) -> Event {
    Event::new(kind, Device::Gpu(g), 64, 1e-6, 0.0)
        .on_stream(stream)
        .with_accesses(accesses)
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

fn slot(gpu: u32, batch: u32) -> ResourceId {
    ResourceId::DevRepSlot {
        gpu,
        slot: (batch % 2) as u8,
    }
}

fn gslot(gpu: u32, batch: u32) -> ResourceId {
    ResourceId::DevGradSlot {
        gpu,
        slot: (batch % 2) as u8,
    }
}

const CKPT: ResourceId = ResourceId::AggCache {
    layer: 0,
    gpu: 0,
    chunk: 0,
};

const COMPUTE: u8 = 0;
const COPY_IN: u8 = 1;
const COPY_OUT: u8 = 2;

/// A clean two-batch double-buffered layer: prefetch batch `j` on the
/// copy-in stream, stream-wait, compute batch `j` reading its slot, with
/// batch barriers between pipeline segments — the shape
/// `ov_forward_prefetch`/`ov_forward_compute` synthesize.
fn pipelined_layer() -> Vec<Event> {
    vec![
        // Segment 0: prefetch batch 0.
        sev(
            0,
            COPY_IN,
            EventKind::H2D,
            vec![Access::write(slot(0, 0), Region::All).with_gen(0)],
        ),
        barrier(BarrierScope::Phase),
        // Segment 1: prefetch batch 1 ∥ compute batch 0.
        sev(
            0,
            COPY_IN,
            EventKind::H2D,
            vec![Access::write(slot(0, 1), Region::All).with_gen(1)],
        ),
        sev(
            0,
            COMPUTE,
            EventKind::StreamWait { upstream: COPY_IN },
            vec![],
        ),
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::read(slot(0, 0), Region::All)],
        ),
        barrier(BarrierScope::Batch),
        // Segment 2: compute batch 1.
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::read(slot(0, 1), Region::All)],
        ),
        barrier(BarrierScope::Batch),
    ]
}

#[test]
fn pipelined_layer_certifies_clean() {
    let t = trace_of(pipelined_layer());
    let r = verify_schedule(&t);
    assert!(r.is_ok(), "{}", r.render());
}

// ------------------------------------- R401 RaceWriteWrite (dropped wait)

/// Dropping the `stream_wait` that orders the in-place refill behind the
/// prefetch H2D leaves compute free to overtake the copy: the refill and
/// the prefetch write the same slot unordered, and the read races the
/// prefetch. The happens-before pass (5, and 6 inside `verify_schedule`)
/// reports both pairs.
#[test]
fn dropped_stream_wait_is_a_race() {
    // The hazardous shape needs the wait to *matter*: the compute-stream
    // refill (`ov_reuse_handoff`) writes the same slot the copy-in H2D
    // is filling, inside one segment.
    let waited = vec![
        sev(
            0,
            COPY_IN,
            EventKind::H2D,
            vec![Access::write(slot(0, 1), Region::Owned).with_gen(1)],
        ),
        sev(
            0,
            COMPUTE,
            EventKind::StreamWait { upstream: COPY_IN },
            vec![],
        ),
        sev(
            0,
            COMPUTE,
            EventKind::Reuse,
            vec![Access::write(slot(0, 1), Region::Owned).with_gen(1)],
        ),
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::read(slot(0, 1), Region::Owned).with_gen(1)],
        ),
        barrier(BarrierScope::Batch),
    ];
    let r = verify_schedule(&trace_of(waited.clone()));
    assert!(r.is_ok(), "{}", r.render());

    let mutated = trace_of(
        waited
            .into_iter()
            .filter(|e| !matches!(e.kind, EventKind::StreamWait { .. }))
            .collect(),
    );
    for r in [verify_trace(&mutated), verify_schedule(&mutated)] {
        assert!(r.has(DiagCode::RaceWriteWrite), "{}", r.render());
        assert!(r.has(DiagCode::RaceWriteRead), "{}", r.render());
    }
}

// ------------------------------------------------------ L601 UseAfterEvict

/// Rotating the slot a reuse reads from — batch 2's compute pointed back
/// at a slot whose generation was already replaced — is a use-after-evict.
#[test]
fn rotated_slot_reuse_is_l601() {
    let t = trace_of(vec![
        sev(
            0,
            COPY_IN,
            EventKind::H2D,
            vec![Access::write(slot(0, 0), Region::All).with_gen(0)],
        ),
        barrier(BarrierScope::Phase),
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::read(slot(0, 0), Region::All)],
        ),
        barrier(BarrierScope::Batch),
        sev(
            0,
            COPY_IN,
            EventKind::H2D,
            vec![Access::write(slot(0, 2), Region::All).with_gen(2)],
        ),
        barrier(BarrierScope::Phase),
        // Mutation: the reuse reads generation 0 — evicted when batch 2
        // was installed over it (slot(0, 2) aliases slot(0, 0)).
        sev(
            0,
            COMPUTE,
            EventKind::Reuse,
            vec![Access::read(slot(0, 0), Region::Owned).with_gen(0)],
        ),
        barrier(BarrierScope::Batch),
    ]);
    let r = verify_lifetimes(&t);
    assert!(r.has(DiagCode::UseAfterEvict), "{}", r.render());
}

// ------------------------------------------------------ L602 DoubleInstall

/// Swapping an install in front of the consume it was scheduled behind —
/// batch 2's prefetch issued before batch 0's compute — clobbers staged
/// but never-read data.
#[test]
fn swapped_install_evict_is_l602() {
    let t = trace_of(vec![
        sev(
            0,
            COPY_IN,
            EventKind::H2D,
            vec![Access::write(slot(0, 0), Region::All).with_gen(0)],
        ),
        barrier(BarrierScope::Phase),
        // Mutation: batch 2 installed while batch 0 is still unread.
        sev(
            0,
            COPY_IN,
            EventKind::H2D,
            vec![Access::write(slot(0, 2), Region::All).with_gen(2)],
        ),
        barrier(BarrierScope::Phase),
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::read(slot(0, 2), Region::All)],
        ),
        barrier(BarrierScope::Batch),
    ]);
    let r = verify_lifetimes(&t);
    assert!(r.has(DiagCode::DoubleInstall), "{}", r.render());
}

// ---------------------------------------------------- L603 StagingSlotLeak

/// Dropping a gradient drain leaves the accumulated slot undrained when
/// the next generation lands (and at the end of the trace).
#[test]
fn dropped_gradient_drain_is_l603() {
    let clean = vec![
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::accum(gslot(0, 0), Region::All).with_gen(0)],
        ),
        barrier(BarrierScope::Batch),
        sev(
            0,
            COPY_OUT,
            EventKind::D2H,
            vec![Access::read(gslot(0, 0), Region::All).with_gen(0)],
        ),
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::accum(gslot(0, 2), Region::All).with_gen(2)],
        ),
        barrier(BarrierScope::Batch),
        sev(
            0,
            COPY_OUT,
            EventKind::D2H,
            vec![Access::read(gslot(0, 2), Region::All).with_gen(2)],
        ),
        barrier(BarrierScope::Epoch),
    ];
    assert!(verify_lifetimes(&trace_of(clean.clone())).is_ok());

    // Mutation: drop the first drain — generation 0's gradients leak.
    let mutated: Vec<Event> = clean
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(_, e)| e)
        .collect();
    let r = verify_lifetimes(&trace_of(mutated));
    assert!(r.has(DiagCode::StagingSlotLeak), "{}", r.render());
}

/// A gradient slot still holding unconsumed accumulations when the trace
/// ends leaks too, even without a later install to collide with.
#[test]
fn undrained_final_slot_is_l603() {
    let t = trace_of(vec![
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::accum(gslot(0, 1), Region::All).with_gen(1)],
        ),
        barrier(BarrierScope::Epoch),
    ]);
    let r = verify_lifetimes(&t);
    assert!(r.has(DiagCode::StagingSlotLeak), "{}", r.render());
}

// -------------------------------------------------- L604 ReloadBeforeStore

/// Removing the forward checkpoint store leaves the backward reload
/// reading a cache slot nothing wrote.
#[test]
fn removed_checkpoint_store_is_l604() {
    let clean = vec![
        sev(
            0,
            COPY_OUT,
            EventKind::D2H,
            vec![Access::write(CKPT, Region::All)],
        ),
        barrier(BarrierScope::Batch),
        sev(
            0,
            COPY_IN,
            EventKind::H2D,
            vec![Access::read(CKPT, Region::All)],
        ),
        barrier(BarrierScope::Batch),
    ];
    assert!(verify_lifetimes(&trace_of(clean.clone())).is_ok());

    let mutated: Vec<Event> = clean.into_iter().skip(2).collect();
    let r = verify_lifetimes(&trace_of(mutated));
    assert!(r.has(DiagCode::ReloadBeforeStore), "{}", r.render());
}

// ------------------------------------------- combined pass plumbing

/// `verify_schedule` reports lifetime violations even when pass 6 is
/// clean, and skips exploration when earlier passes already failed.
#[test]
fn verify_schedule_combines_passes() {
    // Write-before-read is fine for pass 5 (ordered on one entity), but
    // the tagged read of a replaced generation is an L601.
    let t = trace_of(vec![
        sev(
            0,
            COMPUTE,
            EventKind::H2D,
            vec![Access::write(slot(0, 0), Region::All).with_gen(0)],
        ),
        sev(
            0,
            COMPUTE,
            EventKind::H2D,
            vec![Access::write(slot(0, 2), Region::All).with_gen(2)],
        ),
        sev(
            0,
            COMPUTE,
            EventKind::GpuCompute,
            vec![Access::read(slot(0, 0), Region::All).with_gen(0)],
        ),
        barrier(BarrierScope::Batch),
    ]);
    let r = verify_schedule(&t);
    assert!(r.has(DiagCode::UseAfterEvict), "{}", r.render());
}
