//! Hand-corrupted *bad* cone masks, each triggering its documented
//! `C9xx` diagnostic — the mutation suite for the cone-closure pass,
//! mirroring `bad_dataflow.rs` for pass 9.
//!
//! Each test starts from a well-formed activity grid and applies one
//! surgical corruption: flipping a single step breaks exactly the
//! declared closure direction, and shape corruptions (empty, ragged,
//! all-inactive) are malformed regardless of direction. Each test
//! asserts its own code fires and the sibling code stays quiet, so the
//! codes genuinely discriminate failure modes.
//!
//! The row-level half does the same to a cone's row lists on a directed
//! ring, where every exact cone is one vertex wider per layer: dropping
//! a single row leaves the step grid closed and still breaks the
//! induction the rows carry.

use hongtu_graph::GraphBuilder;
use hongtu_partition::{SliceRows, TwoLevelPartition};
use hongtu_verify::{verify_cone, verify_cone_rows, ConeDir, DiagCode};

/// A 3-layer × 4-batch downward-closed cone (widens toward layer 0).
fn down_grid() -> Vec<Vec<bool>> {
    vec![
        vec![true, true, true, true],
        vec![true, true, true, false],
        vec![false, true, true, false],
    ]
}

/// Its upward-closed mirror (widens toward layer L−1).
fn up_grid() -> Vec<Vec<bool>> {
    let mut g = down_grid();
    g.reverse();
    g
}

#[test]
fn well_formed_grids_certify() {
    assert!(verify_cone(&down_grid(), ConeDir::Downward).is_ok());
    assert!(verify_cone(&up_grid(), ConeDir::Upward).is_ok());
}

#[test]
fn downward_hole_fires_cone_not_closed() {
    let mut g = down_grid();
    // Batch 2 active at layer 2 but deactivated at layer 1: the sweep
    // would read layer-1 rows never recomputed.
    g[1][2] = false;
    let r = verify_cone(&g, ConeDir::Downward);
    assert!(r.has(DiagCode::ConeNotClosed), "{}", r.render());
    assert!(!r.has(DiagCode::ConeShapeInvalid));
    assert!(r.render().contains("C901"));
}

#[test]
fn upward_hole_fires_cone_not_closed() {
    let mut g = up_grid();
    // Batch 1 active at layer 0 but deactivated at layer 1: the replay
    // would skip rows the layer-0 recompute invalidated.
    g[1][1] = false;
    let r = verify_cone(&g, ConeDir::Upward);
    assert!(r.has(DiagCode::ConeNotClosed), "{}", r.render());
    assert!(!r.has(DiagCode::ConeShapeInvalid));
}

#[test]
fn direction_is_not_symmetric() {
    // A strictly-downward grid read as an upward cone is broken, and
    // vice versa — the pass checks the *declared* direction.
    assert!(verify_cone(&down_grid(), ConeDir::Upward).has(DiagCode::ConeNotClosed));
    assert!(verify_cone(&up_grid(), ConeDir::Downward).has(DiagCode::ConeNotClosed));
}

#[test]
fn shape_corruptions_fire_cone_shape_invalid() {
    // Empty grid.
    let r = verify_cone(&[], ConeDir::Downward);
    assert!(r.has(DiagCode::ConeShapeInvalid));
    assert!(r.render().contains("C902"));

    // Ragged grid.
    let mut ragged = down_grid();
    ragged[2].pop();
    let r = verify_cone(&ragged, ConeDir::Downward);
    assert!(r.has(DiagCode::ConeShapeInvalid), "{}", r.render());

    // All-inactive grid: nothing to sweep is a caller bug, not a
    // degenerate success.
    let dead = vec![vec![false; 4]; 3];
    let r = verify_cone(&dead, ConeDir::Upward);
    assert!(r.has(DiagCode::ConeShapeInvalid));
    assert!(!r.has(DiagCode::ConeNotClosed));
}

/// The directed ring 0→1→…→7→0 (no self-loops) as 1 × 4 chunks of two:
/// vertex `v` reads exactly `v − 1`.
fn ring() -> TwoLevelPartition {
    let mut b = GraphBuilder::new(8);
    for v in 0..8 {
        b.add_edge(v, (v + 1) % 8);
    }
    TwoLevelPartition::build(&b.build(), 1, 4, 7)
}

/// One layer's row lists computing exactly `vertices`.
fn layer(plan: &TwoLevelPartition, vertices: &[u32]) -> SliceRows {
    let mut rows = vec![vec![Vec::new(); plan.n]; plan.m];
    for c in plan.all_chunks() {
        for (k, d) in c.dests.iter().enumerate() {
            if vertices.contains(d) {
                rows[c.part][c.chunk].push(k as u32);
            }
        }
    }
    rows
}

/// The exact three-layer query cone of vertex 4 and delta cone of
/// vertex 4 on the ring.
fn ring_cones(plan: &TwoLevelPartition) -> (Vec<SliceRows>, Vec<SliceRows>) {
    let down = vec![
        layer(plan, &[2, 3, 4]),
        layer(plan, &[3, 4]),
        layer(plan, &[4]),
    ];
    let up = vec![
        layer(plan, &[4]),
        layer(plan, &[4, 5]),
        layer(plan, &[4, 5, 6]),
    ];
    (down, up)
}

#[test]
fn exact_row_cones_certify() {
    let plan = ring();
    let (down, up) = ring_cones(&plan);
    let r = verify_cone_rows(&plan, &down, ConeDir::Downward);
    assert!(r.is_ok(), "{}", r.render());
    let r = verify_cone_rows(&plan, &up, ConeDir::Upward);
    assert!(r.is_ok(), "{}", r.render());
    // A coarser cone (whole chunks) is still closed: exactness is the
    // engine's economy, closure is what the pass certifies.
    let whole = vec![layer(&plan, &[0, 1, 2, 3, 4, 5, 6, 7]); 3];
    assert!(verify_cone_rows(&plan, &whole, ConeDir::Downward).is_ok());
    assert!(verify_cone_rows(&plan, &whole, ConeDir::Upward).is_ok());
}

#[test]
fn downward_row_hole_fires_cone_not_closed() {
    let plan = ring();
    let (mut down, _) = ring_cones(&plan);
    // Layer 1 computes 4 but no longer 3. The step grid — 4's batch at
    // layers 1 and 2, the batches of 2–4 at layer 0 — stays downward
    // closed, yet layer 2's row of vertex 4 reads an `h^2[3]` nobody
    // computed.
    down[1] = layer(&plan, &[4]);
    let r = verify_cone_rows(&plan, &down, ConeDir::Downward);
    assert!(r.has(DiagCode::ConeNotClosed), "{}", r.render());
    assert!(!r.has(DiagCode::ConeShapeInvalid), "{}", r.render());
    assert!(r.render().contains("reads vertex 3"), "{}", r.render());
}

#[test]
fn upward_row_holes_fire_cone_not_closed() {
    let plan = ring();
    let (_, up) = ring_cones(&plan);
    // 5 reads the rewritten 4 but is left out of layer 1: it would keep a
    // stale `h^2` row.
    let mut stale = up.clone();
    stale[1] = layer(&plan, &[4]);
    let r = verify_cone_rows(&plan, &stale, ConeDir::Upward);
    assert!(r.has(DiagCode::ConeNotClosed), "{}", r.render());
    assert!(r.render().contains("reads vertex 4"), "{}", r.render());
    // 4 is recomputed at layer 0 and dropped at layer 1: a structurally
    // dirty row must be replayed at every layer above its seed.
    let mut dropped = up;
    dropped[1] = layer(&plan, &[5]);
    let r = verify_cone_rows(&plan, &dropped, ConeDir::Upward);
    assert!(r.has(DiagCode::ConeNotClosed), "{}", r.render());
    assert!(
        r.render()
            .contains("recomputed at layer 0 but not at layer 1"),
        "{}",
        r.render()
    );
}

#[test]
fn malformed_rows_fire_cone_shape_invalid() {
    let plan = ring();
    let (down, _) = ring_cones(&plan);
    // A row index the chunk does not have.
    let mut beyond = down.clone();
    beyond[0][0][1].push(2);
    let r = verify_cone_rows(&plan, &beyond, ConeDir::Downward);
    assert!(r.has(DiagCode::ConeShapeInvalid), "{}", r.render());
    assert!(!r.has(DiagCode::ConeNotClosed), "{}", r.render());
    // A list that does not ascend.
    let mut unsorted = down.clone();
    unsorted[0][0][1] = vec![1, 0];
    let r = verify_cone_rows(&plan, &unsorted, ConeDir::Downward);
    assert!(r.has(DiagCode::ConeShapeInvalid), "{}", r.render());
    // A layer laid out on another grid.
    let mut ragged = down;
    ragged[2][0].pop();
    let r = verify_cone_rows(&plan, &ragged, ConeDir::Downward);
    assert!(r.has(DiagCode::ConeShapeInvalid), "{}", r.render());
}
