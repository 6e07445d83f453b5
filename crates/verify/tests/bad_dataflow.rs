//! Hand-corrupted *bad* dataflows, each triggering its documented `F8xx`
//! diagnostic — the mutation suite for the conservation pass (pass 9),
//! mirroring `bad_schedules.rs` for passes 7–8.
//!
//! Each test starts from a miniature but faithful rendition of one
//! training batch's provenance-annotated flow on a 3-GPU P2P config
//! (host-load of the transition rows, two remote fetches, aggregation,
//! activation store/consume, local + pushed gradient accumulations,
//! flush) and applies one surgical corruption. Every corruption is
//! *schedule-safe* — passes 5–8 certify all of them clean — yet each
//! silently corrupts the training values; only the conservation ledgers
//! catch them. Each test asserts its own code fires and its siblings
//! stay quiet, so the codes genuinely discriminate failure modes.

use hongtu_sim::{
    Access, BarrierScope, ContribKind, Device, Event, EventKind, Provenance, Region, ResourceId,
    Trace,
};
use hongtu_verify::{verify_dataflow, ChunkFlow, CommKind, DataflowSpec, DiagCode, Report};

fn sev(g: u32, kind: EventKind, accesses: Vec<Access>) -> Event {
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

const REP: ResourceId = ResourceId::DevRep { gpu: 0 };
const GRAD: ResourceId = ResourceId::DevGrad { gpu: 0 };
const ACT: ResourceId = ResourceId::Rep { layer: 1 };

/// The spec the clean flow satisfies: GPU 0, batch 0, P2P dedup.
/// Demand `|N_00| = 10` decomposes by owner as `[5, 3, 2]`; the
/// transition set `ℕ_00` has 6 rows (one more than the own-demand 5 —
/// transitions may over-cover), GPUs 1 and 2 serve their demands
/// exactly. Backward transposes the forward: 6 locally-accumulated rows
/// (`fetch[0][0]`), 4 pushed back by GPU 1 and 1 by GPU 2, 6 flushed.
fn spec() -> DataflowSpec {
    let flow = ChunkFlow {
        demand_total: 10,
        demand_by_owner: vec![5, 3, 2],
        host_rows: 6,
        fetch_rows: vec![0, 3, 2],
        reuse_rows: 0,
        reuse_by_owner: vec![0, 0, 0],
        grad_local_rows: 6,
        grad_push_rows: vec![0, 4, 1],
        grad_flush_rows: 6,
    };
    DataflowSpec {
        comm: CommKind::P2p,
        m: 3,
        n: 1,
        flows: vec![
            vec![flow],
            vec![ChunkFlow::default()],
            vec![ChunkFlow::default()],
        ],
    }
}

/// Indices of the clean flow's events, so mutations can name their
/// target without counting.
const HOST_LOAD: usize = 0;
const FETCH_1: usize = 1;
const FETCH_2: usize = 2;
#[allow(dead_code)]
const AGGREGATE: usize = 3;
const ACT_STORE: usize = 4;
const ACT_CONSUME: usize = 5;
#[allow(dead_code)]
const GRAD_LOCAL: usize = 6;
const GRAD_PUSH_1: usize = 7;
const GRAD_PUSH_2: usize = 8;
const GRAD_FLUSH: usize = 9;

/// One conserved batch: every contribution delivered exactly once,
/// activation consumed before anything overwrites it, backward flow the
/// exact transpose of the forward.
fn clean_flow() -> Vec<Event> {
    vec![
        // Forward supply: transition rows from the host, demand-exact
        // remote fetches from GPUs 1 and 2.
        sev(
            0,
            EventKind::H2D,
            vec![Access::write(REP, Region::Owned).with_prov(
                Provenance::new(ContribKind::HostLoad, 0, 0)
                    .owned_by(0)
                    .rows(6),
            )],
        ),
        sev(
            0,
            EventKind::D2D,
            vec![Access::write(REP, Region::Fetched).with_prov(
                Provenance::new(ContribKind::Fetch, 0, 0)
                    .owned_by(1)
                    .from_gpu(1)
                    .rows(3),
            )],
        ),
        sev(
            0,
            EventKind::D2D,
            vec![Access::write(REP, Region::Fetched).with_prov(
                Provenance::new(ContribKind::Fetch, 0, 0)
                    .owned_by(2)
                    .from_gpu(2)
                    .rows(2),
            )],
        ),
        // Aggregation closes the supply ledger.
        sev(
            0,
            EventKind::GpuCompute,
            vec![Access::read(REP, Region::All)
                .with_prov(Provenance::new(ContribKind::Aggregate, 0, 0).rows(10))],
        ),
        // Activation store, then its consuming read (next layer / loss).
        sev(
            0,
            EventKind::D2H,
            vec![
                Access::write(ACT, Region::Chunk { gpu: 0, chunk: 0 }).with_prov(
                    Provenance::new(ContribKind::ActStore, 1, 0)
                        .owned_by(0)
                        .rows(4),
                ),
            ],
        ),
        sev(
            0,
            EventKind::CpuCompute,
            vec![Access::read(ACT, Region::Chunk { gpu: 0, chunk: 0 })],
        ),
        // Backward: local accumulation plus the transposed pushes.
        sev(
            0,
            EventKind::GpuCompute,
            vec![Access::accum(GRAD, Region::All).with_prov(
                Provenance::new(ContribKind::GradLocal, 0, 0)
                    .owned_by(0)
                    .rows(6),
            )],
        ),
        sev(
            1,
            EventKind::D2D,
            vec![Access::accum(GRAD, Region::All).with_prov(
                Provenance::new(ContribKind::GradPush, 0, 0)
                    .owned_by(0)
                    .from_gpu(1)
                    .rows(4),
            )],
        ),
        sev(
            2,
            EventKind::D2D,
            vec![Access::accum(GRAD, Region::All).with_prov(
                Provenance::new(ContribKind::GradPush, 0, 0)
                    .owned_by(0)
                    .from_gpu(2)
                    .rows(1),
            )],
        ),
        // Flush closes the deposit ledger.
        sev(
            0,
            EventKind::D2H,
            vec![Access::read(GRAD, Region::All).with_prov(
                Provenance::new(ContribKind::GradFlush, 0, 0)
                    .owned_by(0)
                    .rows(6),
            )],
        ),
        barrier(BarrierScope::Epoch),
    ]
}

fn certify(events: Vec<Event>) -> Report {
    verify_dataflow(&trace_of(events), &spec())
}

/// Asserts `code` fired and every *other* F8xx code stayed quiet — the
/// corruption is diagnosed, not just noticed.
fn assert_only(r: &Report, code: DiagCode) {
    assert!(r.has(code), "expected {code:?}:\n{}", r.render());
    for other in [
        DiagCode::DroppedContribution,
        DiagCode::DoubleCountedContribution,
        DiagCode::ActivationOverwritten,
        DiagCode::GradFlushEarly,
        DiagCode::OrphanGradient,
        DiagCode::DedupMultisetMismatch,
    ] {
        if other != code {
            assert!(
                !r.has(other),
                "{other:?} must stay quiet when the corruption is {code:?}:\n{}",
                r.render()
            );
        }
    }
}

#[test]
fn clean_flow_certifies_conserved() {
    let r = certify(clean_flow());
    assert!(r.is_ok(), "{}", r.render());
}

// ---------------------------------------------- F801 DroppedContribution

/// Deleting one remote fetch starves the aggregation: GPU 2's two rows
/// of `N_00` never arrive, the aggregate silently averages over a
/// zero-filled region. Supply 9 < 11 promised.
#[test]
fn dropped_fetch_is_f801() {
    let mut events = clean_flow();
    events.remove(FETCH_2);
    assert_only(&certify(events), DiagCode::DroppedContribution);
}

// ----------------------------------------- F802 DoubleCountedContribution

/// Replaying the host load deposits the transition rows twice — the
/// aggregation sums every host-supplied neighbor with weight 2. Supply
/// 17 > 11 promised.
#[test]
fn replayed_host_load_is_f802() {
    let mut events = clean_flow();
    let dup = events[HOST_LOAD].clone();
    events.insert(HOST_LOAD + 1, dup);
    assert_only(&certify(events), DiagCode::DoubleCountedContribution);
}

// ------------------------------------------- F803 ActivationOverwritten

/// A second store into `h^1`'s chunk region before anything read the
/// first one: the first activation generation is lost — downstream
/// layers and the backward pass see values the forward never produced.
#[test]
fn clobbered_activation_is_f803() {
    let mut events = clean_flow();
    let dup = events[ACT_STORE].clone();
    events.insert(ACT_STORE + 1, dup);
    assert_only(&certify(events), DiagCode::ActivationOverwritten);
}

/// The same double store *after* a consuming read is the legitimate
/// next-generation overwrite — no diagnostic.
#[test]
fn consumed_then_overwritten_is_clean() {
    let mut events = clean_flow();
    let dup = events[ACT_STORE].clone();
    events.insert(ACT_CONSUME + 1, dup);
    let r = certify(events);
    assert!(r.is_ok(), "{}", r.render());
}

// ------------------------------------------------- F804 GradFlushEarly

/// Deleting GPU 1's gradient push before the flush: the flush evicts a
/// partial sum — 4 boundary-vertex gradients are permanently lost, the
/// exact transpose of F801. Caught at the flush, not end-of-trace.
#[test]
fn flush_before_push_is_f804() {
    let mut events = clean_flow();
    events.remove(GRAD_PUSH_1);
    assert_only(&certify(events), DiagCode::GradFlushEarly);
}

// ------------------------------------------------- F805 OrphanGradient

/// GPU 2 pushes 3 rows where its forward fetch was 1: two accumulated
/// gradient rows have no forward counterpart — the dedup transpose was
/// mis-derived and the flush over-counts.
#[test]
fn excess_push_is_f805() {
    let mut events = clean_flow();
    events[GRAD_PUSH_2] = sev(
        2,
        EventKind::D2D,
        vec![Access::accum(GRAD, Region::All).with_prov(
            Provenance::new(ContribKind::GradPush, 0, 0)
                .owned_by(0)
                .from_gpu(2)
                .rows(3),
        )],
    );
    assert_only(&certify(events), DiagCode::OrphanGradient);
}

/// Deleting the flush entirely leaves the whole deposit ledger dangling
/// at end of trace — accumulated gradients that never reach the host
/// optimizer state.
#[test]
fn never_flushed_is_f805() {
    let mut events = clean_flow();
    events.remove(GRAD_FLUSH);
    assert_only(&certify(events), DiagCode::OrphanGradient);
}

// -------------------------------------------- F806 DedupMultisetMismatch

/// Swapping the two fetches' row counts (GPU 1 serves 2, GPU 2 serves 3)
/// conserves the total — F801/F802 see nothing — but the per-owner
/// multiset no longer matches the vanilla comparator: one of GPU 1's
/// rows was replaced by a row GPU 2 already supplied.
#[test]
fn owner_swapped_fetches_are_f806() {
    let mut events = clean_flow();
    events[FETCH_1] = sev(
        0,
        EventKind::D2D,
        vec![Access::write(REP, Region::Fetched).with_prov(
            Provenance::new(ContribKind::Fetch, 0, 0)
                .owned_by(1)
                .from_gpu(1)
                .rows(2),
        )],
    );
    events[FETCH_2] = sev(
        0,
        EventKind::D2D,
        vec![Access::write(REP, Region::Fetched).with_prov(
            Provenance::new(ContribKind::Fetch, 0, 0)
                .owned_by(2)
                .from_gpu(2)
                .rows(3),
        )],
    );
    assert_only(&certify(events), DiagCode::DedupMultisetMismatch);
}

/// The transition set may over-cover the own demand (6 host rows vs 5
/// owned demand rows) — that asymmetry is legal and must stay clean; a
/// host load *below* the own demand that a bogus remote fetch tops up is
/// not.
#[test]
fn understocked_transition_is_f806() {
    let mut events = clean_flow();
    // Host supplies only 4 of the 5 own-demand rows; GPU 1 "helpfully"
    // ships 5 instead of 3. Totals conserve at 11.
    events[HOST_LOAD] = sev(
        0,
        EventKind::H2D,
        vec![Access::write(REP, Region::Owned).with_prov(
            Provenance::new(ContribKind::HostLoad, 0, 0)
                .owned_by(0)
                .rows(4),
        )],
    );
    events[FETCH_1] = sev(
        0,
        EventKind::D2D,
        vec![Access::write(REP, Region::Fetched).with_prov(
            Provenance::new(ContribKind::Fetch, 0, 0)
                .owned_by(1)
                .from_gpu(1)
                .rows(5),
        )],
    );
    assert_only(&certify(events), DiagCode::DedupMultisetMismatch);
}

/// The P2P+RU variant of [`spec`]: of GPU 0's 6 transition rows the
/// buffer plan keeps 2 in place from the previous batch and loads 4.
fn ru_spec() -> DataflowSpec {
    let mut spec = spec();
    spec.comm = CommKind::P2pRu;
    let flow = &mut spec.flows[0][0];
    flow.host_rows = 4;
    flow.reuse_rows = 2;
    flow.reuse_by_owner = vec![2, 0, 0];
    spec
}

/// The clean flow under [`ru_spec`], its 6-row host load split into the
/// planned 4-row load and a second supply event of 2 rows of `kind`.
fn ru_flow(kind: ContribKind) -> Vec<Event> {
    let supply = |kind, rows| {
        sev(
            0,
            EventKind::H2D,
            vec![Access::write(REP, Region::Owned)
                .with_prov(Provenance::new(kind, 0, 0).owned_by(0).rows(rows))],
        )
    };
    let mut events = clean_flow();
    events[HOST_LOAD] = supply(ContribKind::HostLoad, 4);
    events.insert(HOST_LOAD + 1, supply(kind, 2));
    events
}

#[test]
fn planned_reuse_in_place_certifies() {
    let r = verify_dataflow(&trace_of(ru_flow(ContribKind::Reuse)), &ru_spec());
    assert!(r.is_ok(), "{}", r.render());
}

/// A masked sweep whose reuse predecessor was pruned used to charge the
/// rows it would have inherited as a second host load — same total, same
/// owner, and certified. Sliced buffer plans never plan a reuse from a
/// predecessor that holds nothing, so a planned-reuse row arriving over
/// PCIe is now what it looks like: the executor not following its plan.
#[test]
fn host_loaded_planned_reuse_row_is_f806() {
    let r = verify_dataflow(&trace_of(ru_flow(ContribKind::HostLoad)), &ru_spec());
    assert_only(&r, DiagCode::DedupMultisetMismatch);
    assert!(r.render().contains("promises 2 and 4"), "{}", r.render());
}
