//! Certification of the dual-stream overlap executor: double-buffered
//! pipelining must change *only* simulated time and memory — losses and
//! accuracies stay bitwise identical to the additive schedule — and every
//! overlapped schedule (sequential and parallel host execution) must
//! certify race-free under the happens-before checker. A hand-built
//! counterexample pins down the hazard the stream discipline exists to
//! prevent: an eager ℕ^gpu refill into a live slot races the P2P reads
//! (and the prefetch H2D) still using it, and the checker rejects it.
//!
//! The RNG seed is `HONGTU_TEST_SEED` when set, 99 otherwise; the worker
//! pool size is `HONGTU_THREADS`, so the parallel assertions certify the
//! overlap executor at every pool size.

use hongtu::core::{
    CommMode, ExecutionMode, HongTuConfig, MemoryStrategy, OverlapMode, Session, ValidationLevel,
};
use hongtu::datasets::dataset::{Dataset, DatasetKey};
use hongtu::datasets::load;
use hongtu::nn::ModelKind;
use hongtu::sim::{Access, BarrierScope, Device, Event, EventKind, Region, ResourceId, Trace};
use hongtu::stream::{rep_slot, StreamId};
use hongtu::tensor::SeededRng;
use hongtu::verify::{verify_trace, DiagCode};

fn test_seed() -> u64 {
    std::env::var("HONGTU_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(99)
}

fn dataset() -> Dataset {
    load(DatasetKey::Rdt, &mut SeededRng::new(test_seed()))
}

fn config(gpus: usize, comm: CommMode, overlap: OverlapMode, exec: ExecutionMode) -> HongTuConfig {
    HongTuConfig::builder()
        .gpus(gpus)
        .gpu_mem_mb(512)
        .comm(comm)
        .reorganize(comm != CommMode::Vanilla)
        .overlap(overlap)
        .exec(exec)
        .build()
        .expect("valid config")
}

/// Per-epoch results that must match bitwise across overlap modes
/// (simulated time and memory are *expected* to differ).
#[derive(Debug, PartialEq)]
struct EpochResults {
    loss: f32,
    accuracy: f32,
    val: f32,
    test: f32,
}

fn run_epochs(
    ds: &Dataset,
    kind: ModelKind,
    cfg: HongTuConfig,
    epochs: usize,
) -> (Vec<EpochResults>, f64) {
    let mut engine = Session::new(ds, kind, 16, 2, 4, cfg).expect("engine");
    let mut engine = engine.trainer();
    let mut time = 0.0;
    let results = (0..epochs)
        .map(|_| {
            let r = engine.epoch().expect("epoch");
            time += r.time;
            EpochResults {
                loss: r.loss.loss,
                accuracy: r.loss.accuracy,
                val: engine.session().accuracy(&ds.splits.val),
                test: engine.session().accuracy(&ds.splits.test),
            }
        })
        .collect();
    (results, time)
}

/// The overlap determinism contract, across models × comm modes × GPU
/// counts: double buffering never changes a loss or an accuracy (f32
/// equality, no tolerance), and on every multi-GPU dedup configuration
/// it is *strictly* faster than the additive schedule.
#[test]
fn double_buffer_matches_off_bitwise_and_overlaps() {
    let ds = dataset();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for gpus in [1, 2, 4] {
                let (off, t_off) = run_epochs(
                    &ds,
                    kind,
                    config(gpus, comm, OverlapMode::Off, ExecutionMode::Sequential),
                    2,
                );
                let (db, t_db) = run_epochs(
                    &ds,
                    kind,
                    config(
                        gpus,
                        comm,
                        OverlapMode::DoubleBuffer,
                        ExecutionMode::Sequential,
                    ),
                    2,
                );
                assert_eq!(
                    off,
                    db,
                    "{} / {comm:?} / {gpus} GPUs: double buffering changed results",
                    kind.name()
                );
                if gpus > 1 && comm != CommMode::Vanilla {
                    assert!(
                        t_db < t_off,
                        "{} / {comm:?} / {gpus} GPUs: overlapped {t_db} !< additive {t_off}",
                        kind.name()
                    );
                }
            }
        }
    }
}

/// The parallel host executor drives the overlapped schedule to bitwise
/// identical results and simulated clocks.
#[test]
fn overlapped_parallel_matches_sequential_bitwise() {
    let ds = dataset();
    for comm in [CommMode::Vanilla, CommMode::P2pRu] {
        let (seq, t_seq) = run_epochs(
            &ds,
            ModelKind::Gcn,
            config(
                4,
                comm,
                OverlapMode::DoubleBuffer,
                ExecutionMode::Sequential,
            ),
            2,
        );
        let (par, t_par) = run_epochs(
            &ds,
            ModelKind::Gcn,
            config(4, comm, OverlapMode::DoubleBuffer, ExecutionMode::Parallel),
            2,
        );
        assert_eq!(seq, par, "{comm:?}: parallel overlap diverged");
        assert_eq!(t_seq, t_par, "{comm:?}: simulated time diverged");
    }
}

fn traced_epoch(
    ds: &Dataset,
    comm: CommMode,
    memory: MemoryStrategy,
    exec: ExecutionMode,
) -> Trace {
    let mut cfg = config(4, comm, OverlapMode::DoubleBuffer, exec);
    cfg.memory = memory;
    let mut engine = Session::new(ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("engine");
    engine.machine_mut().enable_unbounded_trace();
    engine.trainer().epoch().expect("epoch");
    engine.machine().trace().clone()
}

/// Every overlapped schedule — sequential and parallel, recompute and
/// hybrid — certifies race-free under the happens-before checker, and
/// the parallel trace equals the sequential one event for event.
#[test]
fn overlapped_traces_certified_race_free() {
    let ds = dataset();
    for memory in [MemoryStrategy::Recompute, MemoryStrategy::Hybrid] {
        let seq = traced_epoch(&ds, CommMode::P2pRu, memory, ExecutionMode::Sequential);
        let report = verify_trace(&seq);
        assert!(
            report.is_ok(),
            "{memory:?} sequential overlap not certified:\n{}",
            report.render()
        );
        let par = traced_epoch(&ds, CommMode::P2pRu, memory, ExecutionMode::Parallel);
        let report = verify_trace(&par);
        assert!(
            report.is_ok(),
            "{memory:?} parallel overlap not certified:\n{}",
            report.render()
        );
        assert!(
            seq.events().eq(par.events()),
            "{memory:?}: parallel overlap trace differs from sequential"
        );
    }
}

/// Paranoid validation re-certifies the overlapped schedule inside
/// `train_epoch` itself, in both execution modes and all comm modes.
#[test]
fn paranoid_certifies_overlapped_epochs() {
    let ds = dataset();
    for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
        for exec in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
            let mut cfg = config(4, comm, OverlapMode::DoubleBuffer, exec);
            cfg.validation = ValidationLevel::Paranoid;
            let mut engine = Session::new(&ds, ModelKind::Gcn, 16, 2, 4, cfg).expect("engine");
            engine
                .trainer()
                .epoch()
                .unwrap_or_else(|e| panic!("{comm:?}/{exec:?}: {e}"));
        }
    }
}

fn ev(g: u32, stream: StreamId, kind: EventKind, accesses: Vec<Access>) -> Event {
    Event::new(kind, Device::Gpu(g), 0, 1e-6, 0.0)
        .with_accesses(accesses)
        .on_stream(stream.id())
}

fn slot(gpu: usize, batch: usize) -> ResourceId {
    rep_slot(gpu, batch)
}

/// Prologue shared by the hand-built schedules below: both GPUs' copy-in
/// streams populate their slot-0 staging (generation 0), settled by a
/// phase barrier — the state at the top of a steady segment.
fn staged_prologue() -> Trace {
    let mut t = Trace::unbounded();
    for g in 0..2u32 {
        t.record(ev(
            g,
            StreamId::CopyIn,
            EventKind::H2D,
            vec![Access::write(slot(g as usize, 0), Region::Owned).with_gen(0)],
        ));
    }
    t.record(Event::new(
        EventKind::Barrier(BarrierScope::Phase),
        Device::Host,
        0,
        0.0,
        0.0,
    ));
    t
}

/// The hazard the slot rotation exists to prevent: GPU 0 *eagerly*
/// refills its live slot-0 buffer with the next batch's ℕ^gpu rows while
/// GPU 1's P2P fetch is still reading that buffer in the same segment.
/// The checker rejects the write/read race.
#[test]
fn eager_reuse_refill_racing_p2p_read_is_rejected() {
    let mut t = staged_prologue();
    // GPU 1 fetches batch 0's remote transition rows from GPU 0's slot.
    t.record(ev(
        1,
        StreamId::Compute,
        EventKind::D2D,
        vec![
            Access::read(slot(0, 0), Region::Owned).with_gen(0),
            Access::write(slot(1, 0), Region::Fetched).with_gen(0),
        ],
    ));
    // Eager refill: batch 1's reused rows clobber the *same* slot in the
    // same segment (no double buffering, no barrier in between).
    t.record(ev(
        0,
        StreamId::Compute,
        EventKind::Reuse,
        vec![
            Access::read(slot(0, 0), Region::Owned).with_gen(0),
            Access::write(slot(0, 0), Region::Owned).with_gen(1),
        ],
    ));
    let report = verify_trace(&t);
    assert!(
        report.has(DiagCode::RaceWriteRead),
        "eager refill not rejected:\n{}",
        report.render()
    );
}

/// With the slot rotation the refill targets the *other* slot — but it
/// still conflicts with the copy-in stream's prefetch H2D filling that
/// slot concurrently. Without a stream wait the checker rejects it; with
/// the `cudaStreamWaitEvent` analogue the schedule is certified.
#[test]
fn rotated_refill_needs_the_stream_wait() {
    let build = |with_wait: bool| {
        let mut t = staged_prologue();
        // Copy-in prefetches batch 1's host rows into slot 1.
        t.record(ev(
            0,
            StreamId::CopyIn,
            EventKind::H2D,
            vec![Access::write(slot(0, 1), Region::Owned).with_gen(1)],
        ));
        if with_wait {
            t.record(ev(
                0,
                StreamId::Compute,
                EventKind::StreamWait {
                    upstream: StreamId::CopyIn.id(),
                },
                vec![],
            ));
        }
        // The compute stream hands batch 1's reused rows into slot 1.
        t.record(ev(
            0,
            StreamId::Compute,
            EventKind::Reuse,
            vec![
                Access::read(slot(0, 0), Region::Owned).with_gen(0),
                Access::write(slot(0, 1), Region::Owned).with_gen(1),
            ],
        ));
        verify_trace(&t)
    };
    let racy = build(false);
    assert!(
        racy.has(DiagCode::RaceWriteWrite),
        "unordered cross-stream refill not rejected:\n{}",
        racy.render()
    );
    let clean = build(true);
    assert!(clean.is_ok(), "waited refill rejected:\n{}", clean.render());
}
