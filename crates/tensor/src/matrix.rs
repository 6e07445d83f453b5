//! Row-major dense `f32` matrix and the linear-algebra kernels GNN training
//! needs: `A×B`, `Aᵀ×B`, `A×Bᵀ`, element-wise arithmetic, and row gathers.

use std::fmt;

/// Minimum number of rows per thread before the parallel matmul splits work.
const PAR_MIN_ROWS_PER_THREAD: usize = 64;

/// A dense row-major `f32` matrix.
///
/// The fundamental value type of the workspace: vertex representation blocks
/// (`#vertices × dim`), weight matrices (`dim × dim`) and gradient buffers are
/// all `Matrix` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes of the backing buffer (used by the memory model).
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds (rows={})",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds (rows={})",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Gathers rows `indices[i]` of `self` into a new `indices.len() × cols`
    /// matrix. This is the sparse "mem_copy_sparse" primitive of the paper's
    /// communication layer, expressed on host buffers: one straight copy
    /// per row into an output that is never zero-filled first. It runs on
    /// the calling thread — a gather is memory-bound, and its callers
    /// already sit inside the executor's per-GPU jobs.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// The body `gather_rows` replaced — a zero-filled output the pool fills
    /// in 1 024-row jobs — kept as the oracle of its property test.
    #[cfg(test)]
    fn gather_rows_reference(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        if self.cols == 0 {
            return out;
        }
        let cols = self.cols;
        hongtu_parallel::par_chunks_mut(&mut out.data, 1024 * cols, |start, chunk| {
            let r0 = start / cols;
            for (dst, row_out) in chunk.chunks_exact_mut(cols).enumerate() {
                row_out.copy_from_slice(self.row(indices[r0 + dst]));
            }
        });
        out
    }

    /// Scatter-adds each row `i` of `src` into row `indices[i]` of `self`.
    /// This is the gradient-accumulation primitive of the backward pass.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Matrix) {
        assert_eq!(
            indices.len(),
            src.rows(),
            "scatter_add_rows: index/row count mismatch"
        );
        assert_eq!(self.cols, src.cols(), "scatter_add_rows: column mismatch");
        for (i, &dst) in indices.iter().enumerate() {
            let row = src.row(i);
            let out = self.row_mut(dst);
            for (o, s) in out.iter_mut().zip(row) {
                *o += *s;
            }
        }
    }

    /// Copies each row `i` of `src` over row `indices[i]` of `self`.
    pub fn scatter_rows(&mut self, indices: &[usize], src: &Matrix) {
        assert_eq!(
            indices.len(),
            src.rows(),
            "scatter_rows: index/row count mismatch"
        );
        assert_eq!(self.cols, src.cols(), "scatter_rows: column mismatch");
        for (i, &dst) in indices.iter().enumerate() {
            self.row_mut(dst).copy_from_slice(src.row(i));
        }
    }

    /// `self + other`, element-wise.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// `self - other`, element-wise.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * *b;
        }
    }

    /// `alpha * self`, returning a new matrix.
    pub fn scale(&self, alpha: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| alpha * v).collect(),
        }
    }

    /// In-place `self *= alpha`.
    pub fn scale_assign(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Resets all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Horizontal concatenation `[self | other]` (row counts must match).
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack: row counts differ");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Column slice copy: columns `range` of every row.
    pub fn columns(&self, range: std::ops::Range<usize>) -> Matrix {
        assert!(range.end <= self.cols, "columns: range out of bounds");
        let mut out = Matrix::zeros(self.rows, range.len());
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[range.clone()]);
        }
        out
    }

    /// Columns `range` of every row, read in place: [`Columns::matmul`]
    /// and [`Columns::transpose_matmul`] are bit for bit the products of
    /// [`Matrix::columns`], without the copy.
    pub fn column_view(&self, range: std::ops::Range<usize>) -> Columns<'_> {
        assert!(
            range.start <= range.end && range.end <= self.cols,
            "column_view: range out of bounds"
        );
        Columns {
            m: self,
            c0: range.start,
            cols: range.len(),
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, f32::max)
    }

    /// True if all elements differ by at most `tol` from `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// `self × other` — parallel blocked matrix multiplication.
    ///
    /// ```
    /// use hongtu_tensor::Matrix;
    /// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    /// let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
    /// assert_eq!(a.matmul(&i), a);
    /// ```
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions differ ({}x{} × {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        self.column_view(0..self.cols).matmul(other)
    }

    /// `selfᵀ × other` without materializing the transpose.
    ///
    /// Used for weight gradients: `∇W = aᵀ × δ`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul: row counts differ ({}x{} vs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        self.column_view(0..self.cols).transpose_matmul(other)
    }

    /// `self × otherᵀ`.
    ///
    /// Used for input gradients: `∇a = δ × Wᵀ`.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose: column counts differ ({}x{} vs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        // The right operand is the small one (a weight matrix): a
        // transposed copy turns `rows × other.rows` scalar dot products
        // into the same vector loop as `matmul`.
        let b = other.transpose();
        let mut out = Matrix::zeros(self.rows, other.rows);
        tiled(
            self.rows,
            self.cols,
            other.rows,
            |r, k| self.data[r * self.cols + k],
            &b.data,
            &mut out.data,
        );
        out
    }

    /// The loop nest `transpose_matmul` replaced (one pass over the whole
    /// output per input row, zero inputs skipped), kept as the oracle of
    /// its property test.
    #[cfg(test)]
    fn transpose_matmul_reference(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (c1, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[c1 * other.cols..(c1 + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The loop nest `matmul_transpose` replaced (one scalar dot product
    /// per output element), kept as the oracle of its property test.
    #[cfg(test)]
    fn matmul_transpose_reference(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let out_row = out.row_mut(r);
            for (c, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(c);
                let mut acc = 0.0;
                for (x, y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        out
    }
}

/// A block of whole columns of a [`Matrix`] ([`Matrix::column_view`]):
/// the left operand of a product over part of a wider matrix — a layer's
/// `[agg | h_dest]` checkpoint — read where it lies.
#[derive(Debug, Clone, Copy)]
pub struct Columns<'a> {
    m: &'a Matrix,
    c0: usize,
    cols: usize,
}

impl Columns<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.m.rows
    }

    /// Number of columns in the view.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The matrix data from the view's first column on; element `(r, k)`
    /// of the view sits at `r * stride + k`.
    fn data(&self) -> &[f32] {
        self.m.data.get(self.c0..).unwrap_or_default()
    }

    /// `self × other` — [`Matrix::matmul`] of the viewed columns.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul: inner dimensions differ ({}x{} × {}x{})",
            self.rows(),
            self.cols,
            other.rows,
            other.cols
        );
        let mut out = Matrix::zeros(self.rows(), other.cols);
        matmul_into(
            self.data(),
            self.rows(),
            self.cols,
            self.m.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// `selfᵀ × other` without materializing the transpose.
    ///
    /// Used for weight gradients: `∇W = aᵀ × δ`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            other.rows,
            "transpose_matmul: row counts differ ({}x{} vs {}x{})",
            self.rows(),
            self.cols,
            other.rows,
            other.cols
        );
        // out[c1][c2] = sum_r self[r][c1] * other[r][c2]
        let (a, stride) = (self.data(), self.m.cols);
        let mut out = Matrix::zeros(self.cols, other.cols);
        tiled(
            self.cols,
            self.rows(),
            other.cols,
            |c1, r| a[r * stride + c1],
            &other.data,
            &mut out.data,
        );
        out
    }
}

/// Parallel kernel: `out[a_rows × b_cols] = A[a_rows × a_cols] × B[a_cols × b_cols]`,
/// with element `(r, k)` of `A` at `a[r * a_stride + k]`.
///
/// Rows of `A` are split across the work-stealing pool when the problem is
/// big enough; each job writes a disjoint row-slice of `out`. Every output
/// row runs the identical per-row reduction, so the split (and hence the
/// thread count) never changes the result bitwise.
fn matmul_into(
    a: &[f32],
    a_rows: usize,
    a_cols: usize,
    a_stride: usize,
    b: &[f32],
    b_cols: usize,
    out: &mut [f32],
) {
    let threads = hongtu_parallel::global().num_threads();
    if a_rows < PAR_MIN_ROWS_PER_THREAD * 2 || threads <= 1 || b_cols == 0 {
        matmul_rows(a, a_cols, a_stride, b, b_cols, out, 0, a_rows);
        return;
    }
    let n_workers = threads.min(a_rows / PAR_MIN_ROWS_PER_THREAD).max(1);
    let rows_per = a_rows.div_ceil(n_workers);
    hongtu_parallel::par_chunks_mut(out, rows_per * b_cols, |start, chunk| {
        let r0 = start / b_cols;
        let r1 = r0 + chunk.len() / b_cols;
        matmul_rows(a, a_cols, a_stride, b, b_cols, chunk, r0, r1);
    });
}

/// Sequential row-range matmul: fills `out` (rows `start..end` of the result,
/// re-based to index 0).
#[allow(clippy::too_many_arguments)] // one kernel's operands and strides
fn matmul_rows(
    a: &[f32],
    a_cols: usize,
    a_stride: usize,
    b: &[f32],
    b_cols: usize,
    out: &mut [f32],
    start: usize,
    end: usize,
) {
    let a = &a[start * a_stride..];
    tiled(
        end - start,
        a_cols,
        b_cols,
        |r, k| a[r * a_stride + k],
        b,
        out,
    );
}

/// Rows of one register tile.
const TILE_ROWS: usize = 4;

/// Reduction indices one pass of the tiles covers. `matmul`'s reduction is
/// a layer width and fits in one pass; `transpose_matmul` reduces over
/// thousands of rows and re-reads them once per tile, so it goes over them
/// in slices that stay in cache.
const TILE_DEPTH: usize = 256;

/// The one dense accumulation loop nest, behind `matmul`,
/// `transpose_matmul` and `matmul_transpose`:
/// `out[r][c] += Σ_k a(r, k) · b[k][c]` for the `n × m` row-major `out`
/// — which every caller hands over freshly zeroed — and the `k × m`
/// row-major `b`, the left operand read through `a` so each caller brings
/// its own layout.
///
/// Every element is accumulated in ascending `k` from `+0.0` — the
/// reduction order all three products have always had, so results are
/// bitwise what the per-product loop nests gave on finite inputs — but in
/// tiles of [`TILE_ROWS`] rows × 16, 8, 4 or 1 columns whose partial sums
/// stay in registers across the whole `k` loop instead of round-tripping
/// through `out` once per `k`. No input is skipped for being zero: that
/// cannot move a bit on finite data (an accumulator that starts at `+0.0`
/// is never `-0.0`, and `x + ±0 = x`), but `0 · ∞` and `0 · NaN` now
/// reach the output as NaN where a zero left operand used to mask them.
fn tiled(
    n: usize,
    k: usize,
    m: usize,
    a: impl Fn(usize, usize) -> f32,
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!((b.len(), out.len()), (k * m, n * m));
    for k0 in (0..k).step_by(TILE_DEPTH) {
        let k1 = k.min(k0 + TILE_DEPTH);
        let mut c0 = 0;
        while c0 < m {
            c0 += match m - c0 {
                16.. => tile_columns::<16>(n, k0..k1, m, c0, &a, b, out),
                8.. => tile_columns::<8>(n, k0..k1, m, c0, &a, b, out),
                4.. => tile_columns::<4>(n, k0..k1, m, c0, &a, b, out),
                _ => tile_columns::<1>(n, k0..k1, m, c0, &a, b, out),
            };
        }
    }
}

/// Columns `c0..c0 + T` of every row of `out` over the reduction slice
/// `ks`, [`TILE_ROWS`] rows at a time; returns `T`. Each slice resumes
/// from what is in `out` — zeros, then the `f32` sums the slice before
/// stored, which is exact. Fixed-size `&[f32; T]` views of `b`'s rows
/// keep the bounds checks out of the multiply-add loop.
fn tile_columns<const T: usize>(
    n: usize,
    ks: std::ops::Range<usize>,
    m: usize,
    c0: usize,
    a: &impl Fn(usize, usize) -> f32,
    b: &[f32],
    out: &mut [f32],
) -> usize {
    for r0 in (0..n).step_by(TILE_ROWS) {
        let live = TILE_ROWS.min(n - r0);
        // A short last tile repeats its last row; the repeats' sums are
        // never stored.
        let rows: [usize; TILE_ROWS] = std::array::from_fn(|i| r0 + i.min(live - 1));
        let mut acc = [[0.0f32; T]; TILE_ROWS];
        for (acc_row, &r) in acc.iter_mut().zip(&rows) {
            acc_row.copy_from_slice(&out[r * m + c0..][..T]);
        }
        for kk in ks.clone() {
            let b_row: &[f32; T] = b[kk * m + c0..][..T]
                .try_into()
                .expect("a slice of T elements");
            for (acc_row, &r) in acc.iter_mut().zip(&rows) {
                let av = a(r, kk);
                for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        for (acc_row, &r) in acc.iter().zip(&rows).take(live) {
            out[r * m + c0..][..T].copy_from_slice(acc_row);
        }
    }
    T
}

/// The ikj loop nest `matmul_rows` replaced (zero inputs skipped, the
/// output row re-read and re-written once per `k`), kept as the oracle of
/// its property test.
#[cfg(test)]
fn matmul_rows_reference(
    a: &[f32],
    a_cols: usize,
    b: &[f32],
    b_cols: usize,
    out: &mut [f32],
    start: usize,
    end: usize,
) {
    for r in start..end {
        let a_row = &a[r * a_cols..(r + 1) * a_cols];
        let out_row = &mut out[(r - start) * b_cols..(r - start + 1) * b_cols];
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[k * b_cols..(k + 1) * b_cols];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

impl Matrix {
    fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "element-wise op: shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn zeros_shape_and_content() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(z.byte_size(), 48);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(a.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let i = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_parallel_matches_sequential() {
        // Big enough to trigger the threaded path.
        let a = Matrix::from_fn(512, 33, |r, c| ((r * 7 + c * 13) % 17) as f32 - 8.0);
        let b = Matrix::from_fn(33, 29, |r, c| ((r * 3 + c * 5) % 11) as f32 - 5.0);
        let par = a.matmul(&b);
        let mut seq = Matrix::zeros(512, 29);
        matmul_rows(
            a.as_slice(),
            33,
            33,
            b.as_slice(),
            29,
            seq.as_mut_slice(),
            0,
            512,
        );
        assert_eq!(par, seq);
    }

    #[test]
    fn transpose_matmul_equals_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(5, 4, |r, c| (r * c) as f32 + 1.0);
        let fused = a.transpose_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(fused.approx_eq(&explicit, 1e-6));
    }

    #[test]
    fn matmul_transpose_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 2 + c) as f32);
        let b = Matrix::from_fn(6, 3, |r, c| (r + 2 * c) as f32 - 3.0);
        let fused = a.matmul_transpose(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(fused.approx_eq(&explicit, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn gather_then_scatter_add_roundtrip() {
        let src = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32);
        let idx = [4, 0, 2];
        let g = src.gather_rows(&idx);
        assert_eq!(g.row(0), src.row(4));
        assert_eq!(g.row(1), src.row(0));
        let mut acc = Matrix::zeros(6, 2);
        acc.scatter_add_rows(&idx, &g);
        for r in 0..6 {
            if idx.contains(&r) {
                assert_eq!(acc.row(r), src.row(r));
            } else {
                assert!(acc.row(r).iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let mut acc = Matrix::zeros(3, 1);
        let upd = m(3, 1, &[1.0, 2.0, 4.0]);
        acc.scatter_add_rows(&[1, 1, 1], &upd);
        assert_eq!(acc.get(1, 0), 7.0);
    }

    #[test]
    fn scatter_rows_overwrites() {
        let mut dst = Matrix::full(3, 2, 9.0);
        let src = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        dst.scatter_rows(&[2, 0], &src);
        assert_eq!(dst.row(2), &[1.0, 2.0]);
        assert_eq!(dst.row(0), &[3.0, 4.0]);
        assert_eq!(dst.row(1), &[9.0, 9.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0; 4]);
        assert_eq!(a.sub(&b).as_slice(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.as_slice(), &[3.0, 3.5, 4.0, 4.5]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn hstack_and_columns_roundtrip() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let b = Matrix::from_fn(3, 3, |r, c| (r + c) as f32 + 100.0);
        let s = a.hstack(&b);
        assert_eq!(s.shape(), (3, 5));
        assert_eq!(s.columns(0..2), a);
        assert_eq!(s.columns(2..5), b);
        assert_eq!(s.get(1, 3), b.get(1, 1));
    }

    #[test]
    #[should_panic(expected = "row counts differ")]
    fn hstack_rejects_mismatched_rows() {
        let _ = Matrix::zeros(2, 1).hstack(&Matrix::zeros(3, 1));
    }

    #[test]
    fn norms_and_sums() {
        let a = m(1, 3, &[3.0, 0.0, 4.0]);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    // ---- replaced kernels = the bodies they replaced, bit for bit ----

    use crate::SeededRng;
    use proptest::prelude::*;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Row counts `0..=9` (every remainder of the 4-row tile, twice) and,
    /// one case in four, 257, 394 or 531: enough rows for `matmul_into` to
    /// split them over the pool and for `transpose_matmul`, which reduces
    /// over them, to take two and three `TILE_DEPTH` slices.
    fn row_count(pick: usize) -> usize {
        match pick {
            0..=9 => pick,
            _ => 120 + 137 * (pick - 9),
        }
    }

    /// Output widths below, at and between the 1/4/8/16-column tiles.
    const WIDTHS: [usize; 8] = [0, 1, 3, 7, 8, 17, 33, 50];

    /// A matrix of awkward finite values: a `zeros` share of `+0.0` and
    /// `-0.0`, one value in ten subnormal, the rest normal draws of mixed
    /// sign and scale.
    fn awkward(rows: usize, cols: usize, zeros: f64, rng: &mut SeededRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.chance(zeros) {
                if rng.chance(0.5) {
                    0.0
                } else {
                    -0.0
                }
            } else if rng.chance(0.1) {
                let sign = (rng.next_u64() as u32) & 0x8000_0000;
                f32::from_bits(sign | (1 + rng.index(0x007f_fffe) as u32))
            } else {
                rng.normal() * [1e-3, 1.0, 1e3][rng.index(3)]
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matmul_equals_its_reference_bitwise(
            n_pick in 0usize..13,
            k in 0usize..50,
            m_pick in 0usize..8,
            zeros in 0u32..7,
            seed in 0u64..1_000_000
        ) {
            let (n, m) = (row_count(n_pick), WIDTHS[m_pick]);
            let mut rng = SeededRng::new(seed);
            let a = awkward(n, k, zeros as f64 / 10.0, &mut rng);
            let b = awkward(k, m, 0.1, &mut rng);
            let mut want = Matrix::zeros(n, m);
            matmul_rows_reference(a.as_slice(), k, b.as_slice(), m, want.as_mut_slice(), 0, n);
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&want));
        }

        #[test]
        fn transpose_matmul_equals_its_reference_bitwise(
            n_pick in 0usize..13,
            k in 0usize..50,
            m_pick in 0usize..8,
            zeros in 0u32..7,
            seed in 0u64..1_000_000
        ) {
            // `rows` is the reduction length here; the output is k × m.
            let (rows, m) = (row_count(n_pick), WIDTHS[m_pick]);
            let mut rng = SeededRng::new(seed);
            let a = awkward(rows, k, zeros as f64 / 10.0, &mut rng);
            let b = awkward(rows, m, 0.1, &mut rng);
            prop_assert_eq!(
                bits(&a.transpose_matmul(&b)),
                bits(&a.transpose_matmul_reference(&b))
            );
        }

        #[test]
        fn matmul_transpose_equals_its_reference_bitwise(
            n_pick in 0usize..13,
            k in 0usize..50,
            m_pick in 0usize..8,
            zeros in 0u32..7,
            seed in 0u64..1_000_000
        ) {
            let (n, m) = (row_count(n_pick), WIDTHS[m_pick]);
            let mut rng = SeededRng::new(seed);
            let a = awkward(n, k, zeros as f64 / 10.0, &mut rng);
            let b = awkward(m, k, 0.1, &mut rng);
            prop_assert_eq!(
                bits(&a.matmul_transpose(&b)),
                bits(&a.matmul_transpose_reference(&b))
            );
        }

        /// Products over a column view equal the products over the
        /// copied columns ([`Matrix::columns`]), wherever the block sits.
        #[test]
        fn column_view_equals_its_reference_bitwise(
            n_pick in 0usize..13,
            k in 0usize..50,
            left in 0usize..9,
            right in 0usize..9,
            m_pick in 0usize..8,
            seed in 0u64..1_000_000
        ) {
            let (n, m) = (row_count(n_pick), WIDTHS[m_pick]);
            let mut rng = SeededRng::new(seed);
            let wide = awkward(n, left + k + right, 0.2, &mut rng);
            let range = left..left + k;
            let (view, copy) = (wide.column_view(range.clone()), wide.columns(range));
            prop_assert_eq!((view.rows(), view.cols()), copy.shape());
            let b = awkward(k, m, 0.1, &mut rng);
            prop_assert_eq!(bits(&view.matmul(&b)), bits(&copy.matmul(&b)));
            let c = awkward(n, m, 0.1, &mut rng);
            prop_assert_eq!(
                bits(&view.transpose_matmul(&c)),
                bits(&copy.transpose_matmul(&c))
            );
        }

        #[test]
        fn gather_rows_equals_its_reference_bitwise(
            src_rows in 1usize..40,
            cols_pick in 0usize..8,
            picks in 0usize..3000,
            seed in 0u64..1_000_000
        ) {
            let mut rng = SeededRng::new(seed);
            let src = awkward(src_rows, WIDTHS[cols_pick], 0.3, &mut rng);
            // Repeats, any order; above 1 024 rows the reference forks.
            let idx: Vec<usize> = (0..picks).map(|_| rng.index(src_rows)).collect();
            let got = src.gather_rows(&idx);
            prop_assert_eq!(got.shape(), (picks, src.cols()));
            prop_assert_eq!(bits(&got), bits(&src.gather_rows_reference(&idx)));
        }
    }

    /// The one place the tiled kernel and the loop nests it replaced part
    /// ways: they skipped a zero left operand, so it masked a non-finite
    /// right one; the tiles multiply it, and `0 · ∞ = NaN` reaches the
    /// output. (`matmul_transpose` never skipped.)
    #[test]
    fn a_zero_left_operand_no_longer_masks_a_non_finite_right_one() {
        let a = m(1, 2, &[0.0, 1.0]);
        let b = m(2, 1, &[f32::INFINITY, 2.0]);
        let mut masked = Matrix::zeros(1, 1);
        matmul_rows_reference(
            a.as_slice(),
            2,
            b.as_slice(),
            1,
            masked.as_mut_slice(),
            0,
            1,
        );
        assert_eq!(masked.get(0, 0), 2.0);
        assert!(a.matmul(&b).get(0, 0).is_nan());

        let at = a.transpose();
        assert_eq!(at.transpose_matmul_reference(&b).get(0, 0), 2.0);
        assert!(at.transpose_matmul(&b).get(0, 0).is_nan());
    }

    /// The pool is sized once per process, so "for every pool size" is a
    /// fresh process per size: this binary again, the five properties
    /// above only, under `HONGTU_THREADS` 1 (kernels inline) and 4 (the
    /// `matmul` row split and the reference gather fork).
    #[test]
    fn references_hold_under_one_and_four_pool_threads() {
        const CHILD: &str = "HONGTU_TENSOR_REFERENCE_CHILD";
        if std::env::var_os(CHILD).is_some() {
            return;
        }
        let exe = std::env::current_exe().expect("test binary path");
        for threads in ["1", "4"] {
            let out = std::process::Command::new(&exe)
                .args(["equals_its_reference_bitwise", "--test-threads", "1"])
                .env("HONGTU_THREADS", threads)
                .env(CHILD, "1")
                .output()
                .expect("re-run the test binary");
            assert!(
                out.status.success(),
                "HONGTU_THREADS={threads}:\n{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}
