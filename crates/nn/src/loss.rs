//! Masked softmax cross-entropy — the downstream task of Algorithm 1
//! (lines 10–11): loss over the training vertices, gradient `∇h^L` back to
//! the final layer.

use hongtu_tensor::Matrix;

/// Result of a loss evaluation.
#[derive(Debug, Clone)]
pub struct MaskedLoss {
    /// Mean negative log-likelihood over masked vertices.
    pub loss: f32,
    /// `∇h^L`: gradient of the loss w.r.t. the logits, zero outside the
    /// mask, already scaled by `1/|mask|`.
    pub grad: Matrix,
    /// Fraction of masked vertices whose argmax matches the label.
    pub accuracy: f32,
}

/// Computes masked softmax cross-entropy.
///
/// `logits` is `|V| × C`, `labels[v] ∈ 0..C`, and `mask[v]` selects the
/// vertices contributing to the loss (the training set during training; the
/// validation/test sets for accuracy reporting).
///
/// # Panics
/// Panics on shape mismatches or an empty mask.
pub fn masked_cross_entropy(logits: &Matrix, labels: &[u32], mask: &[bool]) -> MaskedLoss {
    assert_eq!(logits.rows(), labels.len(), "logits/labels length mismatch");
    assert_eq!(logits.rows(), mask.len(), "logits/mask length mismatch");
    let count = mask.iter().filter(|&&m| m).count();
    assert!(count > 0, "masked_cross_entropy: empty mask");
    let c = logits.cols();
    let inv = 1.0 / count as f32;
    let mut loss = 0.0f32;
    let mut correct = 0usize;
    let mut grad = Matrix::zeros(logits.rows(), c);
    for v in 0..logits.rows() {
        if !mask[v] {
            continue;
        }
        let y = labels[v] as usize;
        assert!(y < c, "label {y} out of range for {c} classes (vertex {v})");
        // Masked rows only, one pass each, in the arithmetic of
        // `log_softmax_rows` and `softmax_rows`: the same max, the same
        // `exp(x − max)` summed in class order (one sum serves both),
        // then `ln` for the label's log-probability and the divide for
        // the class probabilities.
        let x = logits.row(v);
        let p = grad.row_mut(v);
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (pj, &xj) in p.iter_mut().zip(x) {
            *pj = (xj - max).exp();
            sum += *pj;
        }
        loss -= x[y] - (sum.ln() + max);
        if sum > 0.0 {
            for pj in p.iter_mut() {
                *pj /= sum;
            }
        }
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        if argmax == y {
            correct += 1;
        }
        for (j, pj) in p.iter_mut().enumerate() {
            *pj = inv * (*pj - if j == y { 1.0 } else { 0.0 });
        }
    }
    MaskedLoss {
        loss: loss * inv,
        grad,
        accuracy: correct as f32 / count as f32,
    }
}

/// The body `masked_cross_entropy` replaced — `log_softmax_rows` and
/// `softmax_rows` over all `|V|` rows, then a read of the masked ones —
/// kept as the oracle of its property test.
#[cfg(test)]
fn masked_cross_entropy_reference(logits: &Matrix, labels: &[u32], mask: &[bool]) -> MaskedLoss {
    use hongtu_tensor::{log_softmax_rows, softmax_rows};
    assert_eq!(logits.rows(), labels.len(), "logits/labels length mismatch");
    assert_eq!(logits.rows(), mask.len(), "logits/mask length mismatch");
    let count = mask.iter().filter(|&&m| m).count();
    assert!(count > 0, "masked_cross_entropy: empty mask");
    let c = logits.cols();
    let lp = log_softmax_rows(logits);
    let p = softmax_rows(logits);
    let inv = 1.0 / count as f32;
    let mut loss = 0.0f32;
    let mut correct = 0usize;
    let mut grad = Matrix::zeros(logits.rows(), c);
    for v in 0..logits.rows() {
        if !mask[v] {
            continue;
        }
        let y = labels[v] as usize;
        assert!(y < c, "label {y} out of range for {c} classes (vertex {v})");
        loss -= lp.get(v, y);
        let row = p.row(v);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        if argmax == y {
            correct += 1;
        }
        let g = grad.row_mut(v);
        for (j, (gj, &pj)) in g.iter_mut().zip(row).enumerate() {
            *gj = inv * (pj - if j == y { 1.0 } else { 0.0 });
        }
    }
    MaskedLoss {
        loss: loss * inv,
        grad,
        accuracy: correct as f32 / count as f32,
    }
}

/// Accuracy of `logits` against `labels` over `mask`, without gradients.
pub fn masked_accuracy(logits: &Matrix, labels: &[u32], mask: &[bool]) -> f32 {
    masked_cross_entropy(logits, labels, mask).accuracy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_logits_give_low_loss_high_accuracy() {
        let mut logits = Matrix::zeros(3, 2);
        logits.set(0, 0, 10.0);
        logits.set(1, 1, 10.0);
        logits.set(2, 0, 10.0);
        let labels = [0, 1, 0];
        let mask = [true, true, true];
        let r = masked_cross_entropy(&logits, &labels, &mask);
        assert!(r.loss < 1e-3, "loss {}", r.loss);
        assert_eq!(r.accuracy, 1.0);
    }

    #[test]
    fn uniform_logits_loss_is_log_c() {
        let logits = Matrix::zeros(4, 8);
        let labels = [0, 1, 2, 3];
        let mask = [true; 4];
        let r = masked_cross_entropy(&logits, &labels, &mask);
        assert!((r.loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn mask_excludes_vertices() {
        let mut logits = Matrix::zeros(2, 2);
        logits.set(0, 0, 5.0);
        logits.set(1, 0, 5.0); // wrong for label 1, but masked out
        let r = masked_cross_entropy(&logits, &[0, 1], &[true, false]);
        assert_eq!(r.accuracy, 1.0);
        assert!(r.grad.row(1).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.37).sin());
        let labels = [1u32, 3, 0];
        let mask = [true, false, true];
        let r = masked_cross_entropy(&logits, &labels, &mask);
        let eps = 1e-2;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let num = (masked_cross_entropy(&lp, &labels, &mask).loss
                - masked_cross_entropy(&lm, &labels, &mask).loss)
                / (2.0 * eps);
            let ana = r.grad.as_slice()[i];
            assert!((num - ana).abs() < 2e-3, "coord {i}: {num} vs {ana}");
        }
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        // Softmax CE gradient per masked row sums to zero.
        let logits = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.5);
        let r = masked_cross_entropy(&logits, &[2, 1], &[true, true]);
        for v in 0..2 {
            let s: f32 = r.grad.row(v).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "empty mask")]
    fn empty_mask_rejected() {
        let logits = Matrix::zeros(1, 2);
        let _ = masked_cross_entropy(&logits, &[0], &[false]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_rejected() {
        let logits = Matrix::zeros(1, 2);
        let _ = masked_cross_entropy(&logits, &[5], &[true]);
    }

    use hongtu_tensor::SeededRng;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Loss, accuracy and every gradient bit — the zero rows outside
        /// the mask included — equal the all-rows body, from a 1 % mask to
        /// a full one, with ties, huge logits and a one-class corner.
        #[test]
        fn masked_cross_entropy_equals_its_reference_bitwise(
            rows in 1usize..300,
            classes in 1usize..12,
            share in 1u32..101,
            seed in 0u64..1_000_000
        ) {
            let mut rng = SeededRng::new(seed);
            let logits = Matrix::from_fn(rows, classes, |_, _| match rng.index(8) {
                0 => 0.0,
                1 => (rng.index(5) as f32 - 2.0) * 40.0,
                _ => rng.normal() * 3.0,
            });
            let labels: Vec<u32> = (0..rows).map(|_| rng.index(classes) as u32).collect();
            let mut mask: Vec<bool> = (0..rows).map(|_| rng.chance(share as f64 / 100.0)).collect();
            mask[rng.index(rows)] = true;
            let got = masked_cross_entropy(&logits, &labels, &mask);
            let want = masked_cross_entropy_reference(&logits, &labels, &mask);
            prop_assert_eq!(got.loss.to_bits(), want.loss.to_bits());
            prop_assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.grad), bits(&want.grad));
        }
    }
}
