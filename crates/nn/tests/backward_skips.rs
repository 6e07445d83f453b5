//! A backward pass computes only what a later step reads. Two skips hold
//! bit for bit against the full wrappers:
//!
//! - ReLU's mask comes from the stored output `max(z, 0)` instead of a
//!   recomputed `z` ([`Activation::backward_rows`]);
//! - with `∇h_nbr` unrequested (the first layer, whose input is
//!   features), every layer still accumulates the same parameter
//!   gradients.
//!
//! A pinned table holds the wrappers themselves to the values they had
//! before the backward bodies were merged into [`GnnLayer::backward`].

use hongtu_graph::GraphBuilder;
use hongtu_nn::layer::{Activation, BackwardFrom, Upstream};
use hongtu_nn::{
    CommNetLayer, GatLayer, GcnLayer, GgnnLayer, GinLayer, GnnLayer, LayerGrads, MultiHeadGatLayer,
    SageLayer,
};
use hongtu_partition::ChunkSubgraph;
use hongtu_tensor::{relu, Matrix, SeededRng};
use proptest::prelude::*;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One layer of each of the seven kinds, all with activation `act`.
fn every_kind(
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    rng: &mut SeededRng,
) -> Vec<Box<dyn GnnLayer>> {
    let mut gcn = GcnLayer::new(in_dim, out_dim, rng);
    gcn.act = act;
    let mut gat = GatLayer::new(in_dim, out_dim, rng);
    gat.act = act;
    let mut heads = MultiHeadGatLayer::new(in_dim, 2 * out_dim, 2, rng);
    heads.set_activation(act);
    let mut sage = SageLayer::new(in_dim, out_dim, rng);
    sage.act = act;
    let mut gin = GinLayer::new(in_dim, out_dim, rng);
    gin.act = act;
    gin.epsilon = 0.25;
    let mut commnet = CommNetLayer::new(in_dim, out_dim, rng);
    commnet.act = act;
    let mut ggnn = GgnnLayer::new(in_dim, out_dim, rng);
    ggnn.act = act;
    vec![
        Box::new(gcn),
        Box::new(gat),
        Box::new(heads),
        Box::new(sage),
        Box::new(gin),
        Box::new(commnet),
        Box::new(ggnn),
    ]
}

/// A self-looped random multigraph on `n` vertices and a chunk over a
/// random subset of its destinations.
fn random_chunk(n: usize, edges: usize, keep: f64, rng: &mut SeededRng) -> ChunkSubgraph {
    let mut b = GraphBuilder::new(n).keep_self_loops();
    for v in 0..n as u32 {
        b.add_edge(v, v);
    }
    for _ in 0..edges {
        let (s, t) = (rng.index(n) as u32, rng.index(n) as u32);
        b.add_edge(s, t);
        if rng.chance(0.2) {
            b.add_edge(s, t);
        }
    }
    let g = b.build();
    let mut dests: Vec<u32> = (0..n as u32).filter(|_| rng.chance(keep)).collect();
    if dests.is_empty() {
        dests.push(rng.index(n) as u32);
    }
    ChunkSubgraph::build(&g, 0, 0, dests)
}

/// Random values seeded with every `f32` class the ReLU mask must get
/// right: `±0`, NaN, `±∞` and subnormals.
fn awkward(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    const SPECIAL: [f32; 7] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 8.0,
        -f32::MIN_POSITIVE / 8.0,
    ];
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.chance(0.3) {
            SPECIAL[rng.index(SPECIAL.len())]
        } else {
            rng.normal()
        }
    })
}

/// The sources `layer` supports for `chunk`: always the input, plus the
/// checkpoint or the projection where the layer has one.
fn sources<'a>(
    layer: &dyn GnnLayer,
    h_nbr: &'a Matrix,
    agg: Option<&'a Matrix>,
    g_nbr: Option<&'a Matrix>,
) -> Vec<BackwardFrom<'a>> {
    let mut from = vec![BackwardFrom::Input(h_nbr)];
    if layer.supports_agg_cache() {
        from.push(BackwardFrom::Checkpoint(
            agg.expect("a cache-capable layer checkpoints"),
        ));
    }
    if let Some(g_nbr) = g_nbr {
        from.push(BackwardFrom::Projected { h_nbr, g_nbr });
    }
    from
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ReLU's backward from the stored output equals its backward from
    /// the pre-activation, on any rows in any order.
    #[test]
    fn relu_backward_from_the_output_equals_it_from_the_pre_activation(
        rows in 0usize..40,
        cols in 1usize..20,
        picks in 0usize..60,
        seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let z = awkward(rows, cols, &mut rng);
        let grad = awkward(rows, cols, &mut rng);
        let all: Vec<usize> = (0..rows).collect();
        let want = Activation::Relu.backward(&z, &grad);
        let got = Activation::Relu.backward_rows(&relu(&z), &grad, &all);
        prop_assert_eq!(bits(&got), bits(&want));
        if rows > 0 {
            let idx: Vec<usize> = (0..picks).map(|_| rng.index(rows)).collect();
            let got = Activation::Relu.backward_rows(&relu(&z), &grad, &idx);
            prop_assert_eq!(bits(&got), bits(&want.gather_rows(&idx)));
            let got = Activation::Identity.backward_rows(&z, &grad, &idx);
            prop_assert_eq!(bits(&got), bits(&grad.gather_rows(&idx)));
        }
    }

    /// Every layer kind, on every source it supports, with either
    /// activation: entered with the masked `∇z` and no `∇h_nbr` wanted, it
    /// accumulates the wrapper's parameter gradients bit for bit; with
    /// `∇h_nbr` wanted it also returns the wrapper's.
    #[test]
    fn skipped_work_leaves_every_read_gradient_bitwise(
        n in 2usize..30,
        edges in 0usize..120,
        in_dim in 1usize..7,
        out_dim in 1usize..7,
        keep in 1u32..11,
        relu_on in 0u32..2,
        seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let chunk = random_chunk(n, edges, keep as f64 / 10.0, &mut rng);
        let act = if relu_on == 1 { Activation::Relu } else { Activation::Identity };
        for layer in every_kind(in_dim, out_dim, act, &mut rng) {
            let h_nbr = Matrix::from_fn(chunk.num_neighbors(), in_dim, |_, _| rng.normal());
            let fwd = layer.forward(&chunk, &h_nbr);
            let g_nbr = layer.neighbor_projection().map(|w| h_nbr.matmul(w));
            let grad_out = Matrix::from_fn(chunk.num_dests(), layer.out_dim(), |_, _| rng.normal());
            let all: Vec<usize> = (0..chunk.num_dests()).collect();
            let dz = layer.activation().backward_rows(&fwd.out, &grad_out, &all);
            let mut start = LayerGrads::zeros_for(layer.as_ref());
            for g in &mut start.grads {
                g.as_mut_slice().iter_mut().for_each(|v| *v = rng.normal());
            }
            for from in sources(layer.as_ref(), &h_nbr, fwd.agg.as_ref(), g_nbr.as_ref()) {
                let mut want = start.clone();
                let want_h = layer
                    .backward(&chunk, from, Upstream::Output(&grad_out), true, &mut want)
                    .expect("asked for ∇h_nbr");
                let mut skipped = start.clone();
                let none = layer.backward(&chunk, from, Upstream::PreActivation(&dz), false, &mut skipped);
                prop_assert!(none.is_none());
                let mut masked = start.clone();
                let got_h = layer
                    .backward(&chunk, from, Upstream::PreActivation(&dz), true, &mut masked)
                    .expect("asked for ∇h_nbr");
                prop_assert_eq!(bits(&got_h), bits(&want_h));
                for ((w, s), m) in want.grads.iter().zip(&skipped.grads).zip(&masked.grads) {
                    prop_assert_eq!(bits(s), bits(w));
                    prop_assert_eq!(bits(m), bits(w));
                }
            }
        }
    }
}

/// FNV-1a over the bits of every matrix in `ms`.
fn digest<'a>(ms: impl IntoIterator<Item = &'a Matrix>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in ms {
        for &b in bits(m)
            .iter()
            .chain([m.rows() as u32, m.cols() as u32].iter())
        {
            for byte in b.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The wrappers' results on a pinned small case: forward output and
/// checkpoint, then `∇h_nbr` and the parameter gradients of every entry
/// point the layer supports, as one digest per layer kind and activation.
fn wrapper_digests() -> Vec<u64> {
    let mut out = Vec::new();
    for act in [Activation::Relu, Activation::Identity] {
        let mut rng = SeededRng::new(48);
        let chunk = random_chunk(14, 40, 0.6, &mut rng);
        for layer in every_kind(5, 4, act, &mut rng) {
            let layer = layer.as_ref();
            let h_nbr = Matrix::from_fn(chunk.num_neighbors(), 5, |_, _| rng.normal());
            let grad_out = Matrix::from_fn(chunk.num_dests(), layer.out_dim(), |_, _| rng.normal());
            let fwd = layer.forward(&chunk, &h_nbr);
            let mut ms = vec![fwd.out.clone()];
            ms.extend(fwd.agg.clone());
            let mut grads = LayerGrads::zeros_for(layer);
            ms.push(layer.backward_from_input(&chunk, &h_nbr, &grad_out, &mut grads));
            if let Some(agg) = &fwd.agg {
                ms.push(layer.backward_from_agg(&chunk, agg, &grad_out, &mut grads));
            }
            if let Some(w) = layer.neighbor_projection() {
                let g_nbr = h_nbr.matmul(w);
                ms.push(
                    layer.backward_from_projected(&chunk, &h_nbr, &g_nbr, &grad_out, &mut grads),
                );
            }
            ms.extend(grads.grads);
            out.push(digest(&ms));
        }
    }
    out
}

/// Generated by [`wrapper_digests`] on the per-path backward bodies the
/// merged [`GnnLayer::backward`] replaced: GCN, GAT, 2-head GAT, SAGE, GIN,
/// CommNet, GGNN, first with ReLU, then with Identity.
const PINNED: [u64; 14] = [
    0x5aa1_634a_c0c9_b3d1,
    0x83a9_c053_d22d_e470,
    0x6f9d_ee82_bed5_b970,
    0x3144_11c0_177f_0563,
    0xcf44_0137_f632_7849,
    0xb704_e7bd_07d8_5790,
    0xaef9_ab49_d659_1b1f,
    0xb66b_feac_99c8_3773,
    0x1690_3ca6_68dd_faa0,
    0x5667_b20a_5ac6_1ec0,
    0xb252_4cef_7f5a_3d51,
    0x8c31_2129_597e_f322,
    0xbed3_ee09_eb02_bdd7,
    0xeda8_0da2_6ab3_4aab,
];

#[test]
fn wrappers_equal_the_replaced_backward_bodies_on_a_pinned_case() {
    assert_eq!(wrapper_digests(), PINNED);
}
