//! A minimal row-major `f32` matrix.
//!
//! Only the operations backpropagation needs are implemented. The GEMM
//! kernels unroll and pad across *independent* output elements only:
//! every output element keeps one accumulator fed in ascending-k order,
//! so results are bit-identical to a plain triple loop at any SIMD
//! width.

use adainf_simcore::Prng;
use std::fmt;

/// Rows of the right-hand operand packed per pass by the narrow GEMM
/// paths ([`Matrix::matmul_into`] and [`Matrix::t_matmul_into`] at
/// output widths ≤ 16): the lane-padded stack buffer holds this many
/// rows, so its size is fixed whatever the contraction length.
const NARROW_CHUNK: usize = 64;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// He-style random initialisation: `N(0, sqrt(2 / fan_in))`. This is
    /// the standard choice for ReLU networks and keeps small MLPs
    /// trainable from the first step.
    pub fn he_init(rows: usize, cols: usize, rng: &mut Prng) -> Self {
        let std = (2.0 / rows as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| (rng.gauss() * std) as f32)
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the backing row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A single row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes this matrix to `rows × cols` and fills it with zeros,
    /// reusing the existing allocation when capacity permits. This is
    /// the reset primitive behind the `*_into` GEMM variants, which lets
    /// scratch buffers be reused across SGD steps without reallocating.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src` into this matrix, reusing the existing allocation
    /// when capacity permits.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Reshapes this matrix to the row range `r0..r1` of `src` and copies
    /// those rows — one contiguous slab in row-major layout — reusing the
    /// existing allocation when capacity permits. The chunked-slice
    /// primitive behind zero-alloc mini-batch training.
    ///
    /// # Panics
    /// Panics when `r0 > r1` or `r1 > src.rows()`.
    pub fn copy_rows_from(&mut self, src: &Matrix, r0: usize, r1: usize) {
        assert!(r0 <= r1 && r1 <= src.rows, "row range out of bounds");
        self.rows = r1 - r0;
        self.cols = src.cols;
        self.data.clear();
        self.data
            .extend_from_slice(&src.data[r0 * src.cols..r1 * src.cols]);
    }

    /// Reshapes this matrix to `indices.len() × src.cols()` and copies
    /// the selected rows of `src` in index order, reusing the existing
    /// allocation — the gather primitive behind zero-alloc ranked-subset
    /// passes (each row is the verbatim source row, so any row-wise
    /// computation over the gather bit-matches one over a cloned
    /// subset).
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn gather_rows_from(&mut self, src: &Matrix, indices: &[usize]) {
        self.rows = indices.len();
        self.cols = src.cols;
        self.data.clear();
        self.data.reserve(indices.len() * src.cols);
        for &i in indices {
            self.data.extend_from_slice(src.row(i));
        }
    }

    /// `self × other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self × other`, written into `out` (reshaped and zeroed in
    /// place). The i→k→j loop order keeps the inner loop a straight
    /// `axpy` over contiguous rows, which the compiler autovectorises;
    /// per-element accumulation order is the k order, identical to
    /// [`Self::matmul`], so results are bit-identical. Two `self` rows
    /// share each pass over the `other` block, halving the B-row
    /// traffic; the per-element accumulators stay independent, so
    /// blocking changes nothing bitwise.
    ///
    /// Outputs at most 16 columns wide (the early-exit heads' 2–12
    /// classes, the 16-wide last trunk layer) take the lane-padded
    /// narrow path instead, chosen from the output width alone.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        match other.cols {
            0..=8 => return self.matmul_narrow_into::<8>(other, out),
            9..=16 => return self.matmul_narrow_into::<16>(other, out),
            _ => {}
        }
        out.reset_zeroed(self.rows, other.cols);
        let w = other.cols;
        let d = self.cols;
        let mut i = 0;
        while i + 2 <= self.rows {
            let a0 = &self.data[i * d..(i + 1) * d];
            let a1 = &self.data[(i + 1) * d..(i + 2) * d];
            let (lo, hi) = out.data.split_at_mut((i + 1) * w);
            let o0 = &mut lo[i * w..];
            let o1 = &mut hi[..w];
            // Eight k steps per pass: each output element still receives
            // its contributions in ascending k order (bit-exact against
            // the one-step loop), while the B rows loaded for the block
            // feed both output rows.
            let mut k = 0;
            while k + 8 <= d {
                let a = &a0[k..k + 8];
                let c = &a1[k..k + 8];
                let b = &other.data[k * w..(k + 8) * w];
                let (b0, rest) = b.split_at(w);
                let (b1, rest) = rest.split_at(w);
                let (b2, rest) = rest.split_at(w);
                let (b3, rest) = rest.split_at(w);
                let (b4, rest) = rest.split_at(w);
                let (b5, rest) = rest.split_at(w);
                let (b6, b7) = rest.split_at(w);
                for (((((((((o, p), &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in o0
                    .iter_mut()
                    .zip(o1.iter_mut())
                    .zip(b0)
                    .zip(b1)
                    .zip(b2)
                    .zip(b3)
                    .zip(b4)
                    .zip(b5)
                    .zip(b6)
                    .zip(b7)
                {
                    let mut acc = *o;
                    acc += a[0] * v0;
                    acc += a[1] * v1;
                    acc += a[2] * v2;
                    acc += a[3] * v3;
                    acc += a[4] * v4;
                    acc += a[5] * v5;
                    acc += a[6] * v6;
                    acc += a[7] * v7;
                    *o = acc;
                    let mut bcc = *p;
                    bcc += c[0] * v0;
                    bcc += c[1] * v1;
                    bcc += c[2] * v2;
                    bcc += c[3] * v3;
                    bcc += c[4] * v4;
                    bcc += c[5] * v5;
                    bcc += c[6] * v6;
                    bcc += c[7] * v7;
                    *p = bcc;
                }
                k += 8;
            }
            for ((&a, &c), orow) in a0[k..]
                .iter()
                .zip(&a1[k..])
                .zip(other.data[k * w..].chunks_exact(w))
            {
                for ((o, p), &b) in o0.iter_mut().zip(o1.iter_mut()).zip(orow) {
                    *o += a * b;
                    *p += c * b;
                }
            }
            i += 2;
        }
        if i < self.rows {
            let arow = self.row(i);
            let out_row = out.row_mut(i);
            let mut k = 0;
            while k + 8 <= arow.len() {
                let a = &arow[k..k + 8];
                let b = &other.data[k * w..(k + 8) * w];
                let (b0, rest) = b.split_at(w);
                let (b1, rest) = rest.split_at(w);
                let (b2, rest) = rest.split_at(w);
                let (b3, rest) = rest.split_at(w);
                let (b4, rest) = rest.split_at(w);
                let (b5, rest) = rest.split_at(w);
                let (b6, b7) = rest.split_at(w);
                for ((((((((o, &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in out_row
                    .iter_mut()
                    .zip(b0)
                    .zip(b1)
                    .zip(b2)
                    .zip(b3)
                    .zip(b4)
                    .zip(b5)
                    .zip(b6)
                    .zip(b7)
                {
                    let mut acc = *o;
                    acc += a[0] * v0;
                    acc += a[1] * v1;
                    acc += a[2] * v2;
                    acc += a[3] * v3;
                    acc += a[4] * v4;
                    acc += a[5] * v5;
                    acc += a[6] * v6;
                    acc += a[7] * v7;
                    *o = acc;
                }
                k += 8;
            }
            for (&a, orow) in arow[k..].iter().zip(other.data[k * w..].chunks_exact(w)) {
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
    }

    /// [`Self::matmul_into`] for outputs `w ≤ L` columns wide. The
    /// `other` rows are packed, zero-padded to `L` lanes, into a
    /// fixed-size stack buffer ([`NARROW_CHUNK`] rows per pass), and
    /// each output row accumulates in one `[f32; L]` register group —
    /// a full-width vector multiply-add per `k` step instead of the
    /// general path's short remainder loop — four rows at a time so
    /// their add chains overlap (see [`accumulate_narrow`]).
    fn matmul_narrow_into<const L: usize>(&self, other: &Matrix, out: &mut Matrix) {
        let (d, w) = (self.cols, other.cols);
        out.reset_zeroed(self.rows, w);
        if d == 0 || w == 0 {
            return;
        }
        let full = self.rows / 4 * 4;
        let mut packed = [[0.0f32; L]; NARROW_CHUNK];
        for k0 in (0..d).step_by(NARROW_CHUNK) {
            let kc = (d - k0).min(NARROW_CHUNK);
            pack_narrow(&mut packed, &other.data[k0 * w..(k0 + kc) * w], w);
            let packed = &packed[..kc];
            let (a_full, a_tail) = self.data.split_at(full * d);
            let (o_full, o_tail) = out.data.split_at_mut(full * w);
            for (a, o) in a_full
                .chunks_exact(4 * d)
                .zip(o_full.chunks_exact_mut(4 * w))
            {
                accumulate_narrow::<L, 4>(packed, |r, k| a[r * d + k0 + k], o, w);
            }
            for (a, o) in a_tail.chunks_exact(d).zip(o_tail.chunks_exact_mut(w)) {
                accumulate_narrow::<L, 1>(packed, |_, k| a[k0 + k], o, w);
            }
        }
    }

    /// `relu?(self × weights + bias)`, written into `out` — the fused
    /// dense-layer forward pass. Runs the exact [`Self::matmul_into`]
    /// loop, then applies the bias add (and optional ReLU) to each output
    /// row as soon as its accumulation finishes, while the row is still
    /// cache-hot — instead of two further full-matrix passes. Every
    /// output element sees the same operations in the same order as
    /// `matmul_into` + `add_row_vec` + `relu_inplace`, so results are
    /// bit-identical.
    ///
    /// # Panics
    /// Panics on inner-dimension or bias-width mismatch.
    pub fn affine_into(&self, weights: &Matrix, bias: &[f32], relu: bool, out: &mut Matrix) {
        assert_eq!(self.cols, weights.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), weights.cols, "bias width mismatch");
        // The accumulation pass is the exact [`Self::matmul_into`] loop
        // (shared so the two-row blocking lives in one place).
        self.matmul_into(weights, out);
        // Row epilogue: bias, then the ReLU clamp — the exact order of
        // the unfused add_row_vec / relu_inplace passes.
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for (o, &b) in out_row.iter_mut().zip(bias) {
                *o += b;
            }
            if relu {
                for o in out_row.iter_mut() {
                    if *o < 0.0 {
                        *o = 0.0;
                    }
                }
            }
        }
    }

    /// `selfᵀ × other` without materialising the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ × other`, written into `out` (reshaped and zeroed in
    /// place). Accumulation order per output element matches
    /// [`Self::t_matmul`] exactly (row order of the operands). Outputs
    /// at most 16 columns wide (the heads' weight gradients) take the
    /// lane-padded narrow path, chosen from the output width alone.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        match other.cols {
            0..=8 => return self.t_matmul_narrow_into::<8>(other, out),
            9..=16 => return self.t_matmul_narrow_into::<16>(other, out),
            _ => {}
        }
        out.reset_zeroed(self.cols, other.cols);
        let m = self.rows;
        // Eight r steps per pass; per-output-element accumulation stays
        // in ascending r order (bit-exact against the one-step loop)
        // while each output row is loaded/stored once per eight steps —
        // the backward gradient GEMM mirrors the forward kernels'
        // 8-wide blocking.
        let mut r = 0;
        while r + 8 <= m {
            let (a0, a1, a2, a3) = (
                self.row(r),
                self.row(r + 1),
                self.row(r + 2),
                self.row(r + 3),
            );
            let (a4, a5, a6, a7) = (
                self.row(r + 4),
                self.row(r + 5),
                self.row(r + 6),
                self.row(r + 7),
            );
            let (b0, b1, b2, b3) = (
                other.row(r),
                other.row(r + 1),
                other.row(r + 2),
                other.row(r + 3),
            );
            let (b4, b5, b6, b7) = (
                other.row(r + 4),
                other.row(r + 5),
                other.row(r + 6),
                other.row(r + 7),
            );
            for i in 0..self.cols {
                let (x0, x1, x2, x3) = (a0[i], a1[i], a2[i], a3[i]);
                let (x4, x5, x6, x7) = (a4[i], a5[i], a6[i], a7[i]);
                let out_row = out.row_mut(i);
                for ((((((((o, &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in out_row
                    .iter_mut()
                    .zip(b0)
                    .zip(b1)
                    .zip(b2)
                    .zip(b3)
                    .zip(b4)
                    .zip(b5)
                    .zip(b6)
                    .zip(b7)
                {
                    let mut acc = *o;
                    acc += x0 * v0;
                    acc += x1 * v1;
                    acc += x2 * v2;
                    acc += x3 * v3;
                    acc += x4 * v4;
                    acc += x5 * v5;
                    acc += x6 * v6;
                    acc += x7 * v7;
                    *o = acc;
                }
            }
            r += 8;
        }
        while r < m {
            let arow = self.row(r);
            let brow = other.row(r);
            for (i, &a) in arow.iter().enumerate() {
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
            r += 1;
        }
    }

    /// [`Self::t_matmul_into`] for outputs `n ≤ L` columns wide: the
    /// `other` rows are packed, zero-padded to `L` lanes, into a
    /// fixed-size stack buffer ([`NARROW_CHUNK`] rows per pass), and
    /// output row `i` accumulates `self[r][i] · other[r]` over ascending
    /// `r` in one `[f32; L]` register group, four output rows at a time
    /// (see [`accumulate_narrow`]).
    fn t_matmul_narrow_into<const L: usize>(&self, other: &Matrix, out: &mut Matrix) {
        let (m, d, n) = (self.rows, self.cols, other.cols);
        out.reset_zeroed(d, n);
        if d == 0 || n == 0 {
            return;
        }
        let full = d / 4 * 4;
        let mut packed = [[0.0f32; L]; NARROW_CHUNK];
        for r0 in (0..m).step_by(NARROW_CHUNK) {
            let rc = (m - r0).min(NARROW_CHUNK);
            pack_narrow(&mut packed, &other.data[r0 * n..(r0 + rc) * n], n);
            let packed = &packed[..rc];
            let a = &self.data[r0 * d..(r0 + rc) * d];
            let (o_full, o_tail) = out.data.split_at_mut(full * n);
            for (block, o) in o_full.chunks_exact_mut(4 * n).enumerate() {
                let i = 4 * block;
                accumulate_narrow::<L, 4>(packed, |c, r| a[r * d + i + c], o, n);
            }
            for (i, o) in (full..d).zip(o_tail.chunks_exact_mut(n)) {
                accumulate_narrow::<L, 1>(packed, |_, r| a[r * d + i], o, n);
            }
        }
    }

    /// `self × otherᵀ`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut other_t = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(other, &mut other_t, &mut out);
        out
    }

    /// `self × otherᵀ`, written into `out` (reshaped in place) — the
    /// backward pass's input gradient `grad × Wᵀ`. `other` is first
    /// transposed into the caller-owned `other_t` buffer, then the
    /// product runs through [`Self::matmul_into`], so it is vectorised
    /// across output columns rather than evaluated as one strided dot
    /// product per element. Each output element is still the plain
    /// ascending-k sum `Σ self[i][k]·other[j][k]` from `+0.0`.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn matmul_t_into(&self, other: &Matrix, other_t: &mut Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        other.transpose_into(other_t);
        self.matmul_into(other_t, out);
    }

    /// Writes `selfᵀ` into `out`, reshaping it in place and reusing its
    /// allocation.
    fn transpose_into(&self, out: &mut Matrix) {
        out.reset_zeroed(self.cols, self.rows);
        if self.cols == 0 {
            return;
        }
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                out.data[c * self.rows + r] = x;
            }
        }
    }

    /// `(self − mean) × otherᵀ`, written into `out` — the PCA projection
    /// with the per-column mean subtraction fused into the GEMM instead
    /// of materialising a centred copy first. Each `self` element is
    /// centred (`x − mean[k]`) at the moment it enters the dot products,
    /// which is the identical f32 subtraction the standalone centring
    /// pass performs — per-element operation order matches
    /// `center_into` + [`Self::matmul_t_into`] exactly, so results are
    /// bit-identical at one full matrix write+read less.
    ///
    /// # Panics
    /// Panics on column-count or mean-width mismatch.
    pub fn centered_matmul_t_into(&self, mean: &[f32], other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        assert_eq!(mean.len(), self.cols, "mean width mismatch");
        if other.rows == 8 {
            return self.centered_matmul_t8_into(mean, other, out);
        }
        out.reset_zeroed(self.rows, other.rows);
        let n = other.rows;
        let w = other.cols;
        for i in 0..self.rows {
            let arow = self.row(i);
            let out_row = out.row_mut(i);
            let mut j = 0;
            while j + 8 <= n {
                let b = &other.data[j * w..(j + 8) * w];
                let (b0, rest) = b.split_at(w);
                let (b1, rest) = rest.split_at(w);
                let (b2, rest) = rest.split_at(w);
                let (b3, rest) = rest.split_at(w);
                let (b4, rest) = rest.split_at(w);
                let (b5, rest) = rest.split_at(w);
                let (b6, b7) = rest.split_at(w);
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                let (mut s4, mut s5, mut s6, mut s7) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (((((((((&a, &m), &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in arow
                    .iter()
                    .zip(mean)
                    .zip(b0)
                    .zip(b1)
                    .zip(b2)
                    .zip(b3)
                    .zip(b4)
                    .zip(b5)
                    .zip(b6)
                    .zip(b7)
                {
                    let x = a - m;
                    s0 += x * v0;
                    s1 += x * v1;
                    s2 += x * v2;
                    s3 += x * v3;
                    s4 += x * v4;
                    s5 += x * v5;
                    s6 += x * v6;
                    s7 += x * v7;
                }
                out_row[j] = s0;
                out_row[j + 1] = s1;
                out_row[j + 2] = s2;
                out_row[j + 3] = s3;
                out_row[j + 4] = s4;
                out_row[j + 5] = s5;
                out_row[j + 6] = s6;
                out_row[j + 7] = s7;
                j += 8;
            }
            for (o, brow) in out_row[j..]
                .iter_mut()
                .zip(other.data[j * w..].chunks_exact(w))
            {
                let mut acc = 0.0;
                for ((a, m), b) in arow.iter().zip(mean).zip(brow) {
                    acc += (a - m) * b;
                }
                *o = acc;
            }
        }
    }

    /// [`Self::centered_matmul_t_into`] specialised to exactly eight
    /// `other` rows — the default-width PCA projection. The component
    /// rows are first transposed into a k-major `d × 8` layout so the
    /// eight per-element accumulators sit in one contiguous lane group;
    /// the fixed-width `[f32; 8]` accumulator then vectorises to a
    /// single 256-bit multiply-add per `k` step instead of eight scalar
    /// chains fed by strided row loads (measured ~3× on the 6000×32
    /// drift-projection shape). Each output element still owns one
    /// accumulator fed in ascending `k` order, so results are
    /// bit-identical to the general path.
    fn centered_matmul_t8_into(&self, mean: &[f32], other: &Matrix, out: &mut Matrix) {
        let d = self.cols;
        let mut ct = vec![0.0f32; d * 8];
        for j in 0..8 {
            let row = other.row(j);
            for k in 0..d {
                ct[k * 8 + j] = row[k];
            }
        }
        out.reset_zeroed(self.rows, 8);
        for i in 0..self.rows {
            let arow = self.row(i);
            let mut acc = [0.0f32; 8];
            for ((&a, &m), ctk) in arow.iter().zip(mean).zip(ct.chunks_exact(8)) {
                let x = a - m;
                for (s, &c) in acc.iter_mut().zip(ctk) {
                    *s += x * c;
                }
            }
            out.row_mut(i).copy_from_slice(&acc);
        }
    }

    /// `self × v`, written into `out` (resized in place) — the
    /// power-iteration matvec of the PCA fit, in the same blocked family
    /// as [`Self::centered_matmul_t_into`].
    ///
    /// Rows are processed eight at a time with one independent
    /// accumulator each, so every output element is still a plain
    /// ascending-`k` dot product — bit-exact against the scalar
    /// row-by-row loop — while eight FP add latency chains overlap and
    /// eight matrix rows stream through the cache per pass.
    ///
    /// # Panics
    /// Panics when `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f32], out: &mut Vec<f32>) {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        out.clear();
        out.resize(self.rows, 0.0);
        let w = self.cols;
        let mut i = 0;
        while i + 8 <= self.rows {
            let b = &self.data[i * w..(i + 8) * w];
            let (b0, rest) = b.split_at(w);
            let (b1, rest) = rest.split_at(w);
            let (b2, rest) = rest.split_at(w);
            let (b3, rest) = rest.split_at(w);
            let (b4, rest) = rest.split_at(w);
            let (b5, rest) = rest.split_at(w);
            let (b6, b7) = rest.split_at(w);
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let (mut s4, mut s5, mut s6, mut s7) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for ((((((((&a, &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in v
                .iter()
                .zip(b0)
                .zip(b1)
                .zip(b2)
                .zip(b3)
                .zip(b4)
                .zip(b5)
                .zip(b6)
                .zip(b7)
            {
                s0 += a * v0;
                s1 += a * v1;
                s2 += a * v2;
                s3 += a * v3;
                s4 += a * v4;
                s5 += a * v5;
                s6 += a * v6;
                s7 += a * v7;
            }
            out[i] = s0;
            out[i + 1] = s1;
            out[i + 2] = s2;
            out[i + 3] = s3;
            out[i + 4] = s4;
            out[i + 5] = s5;
            out[i + 6] = s6;
            out[i + 7] = s7;
            i += 8;
        }
        for (o, row) in out[i..]
            .iter_mut()
            .zip(self.data[i * w..].chunks_exact(w))
        {
            let mut acc = 0.0;
            for (a, b) in v.iter().zip(row) {
                acc += a * b;
            }
            *o = acc;
        }
    }

    /// Adds a row vector (bias) to every row.
    pub fn add_row_vec(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Element-wise in-place ReLU.
    pub fn relu_inplace(&mut self) {
        for x in &mut self.data {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    /// Element-wise in-place multiply by the ReLU mask of `mask` (the
    /// backward pass of ReLU): entries where `mask <= 0` are zeroed.
    /// `mask` may be the ReLU's input or its output — `relu(x) <= 0`
    /// exactly when `x <= 0` — so callers can keep either.
    pub fn relu_backward_inplace(&mut self, mask: &Matrix) {
        assert_eq!(self.data.len(), mask.data.len(), "shape mismatch");
        for (g, p) in self.data.iter_mut().zip(&mask.data) {
            if *p <= 0.0 {
                *g = 0.0;
            }
        }
    }

    /// Row-wise softmax, numerically stabilised.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// In-place row-wise softmax, numerically stabilised.
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut total = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                total += *x;
            }
            for x in row.iter_mut() {
                *x /= total;
            }
        }
    }

    /// `self += k * other`, the SGD update primitive.
    pub fn axpy(&mut self, k: f32, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Scales every element by `k`.
    pub fn scale(&mut self, k: f32) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// Column sums returned as a vector (bias gradient).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.col_sums_into(&mut out);
        out
    }

    /// Column sums written into `out` (resized in place), reusing its
    /// allocation across calls.
    pub fn col_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Mean of each column (used for mean feature vectors in §3.2).
    pub fn col_means(&self) -> Vec<f32> {
        let mut out = self.col_sums();
        if self.rows > 0 {
            for x in &mut out {
                *x /= self.rows as f32;
            }
        }
        out
    }

    /// Index of the maximum entry of each row (argmax classification).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows).map(|r| row_argmax(self.row(r))).collect()
    }

    /// Number of rows whose argmax (as [`Self::argmax_rows`] picks it)
    /// equals the row's label — classification hits counted in place,
    /// without materialising the prediction vector.
    ///
    /// # Panics
    /// Panics when `labels.len() != self.rows()`.
    pub(crate) fn count_argmax_hits(&self, labels: &[usize]) -> usize {
        assert_eq!(labels.len(), self.rows, "label count mismatch");
        (0..self.rows)
            .zip(labels)
            .filter(|&(r, &label)| row_argmax(self.row(r)) == label)
            .count()
    }
}

/// Index of a row's maximum entry; the last one on ties.
fn row_argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        // simlint: allow(no-unwrap-in-lib) — logits come out of finite-weight GEMMs; NaN means a training bug worth a loud stop
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN logit"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the natural seed for `*_into` scratch
    /// buffers, which reshape on first use.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

/// Copies the `w`-wide rows of `src` into the first rows of `packed`,
/// leaving lanes `w..L` at the zero they were created with.
fn pack_narrow<const L: usize>(packed: &mut [[f32; L]], src: &[f32], w: usize) {
    for (p, row) in packed.iter_mut().zip(src.chunks_exact(w)) {
        p[..w].copy_from_slice(row);
    }
}

/// The inner loop of the narrow GEMM paths: adds `x(r, k) · packed[k]`
/// for ascending `k` into each of the `R` `w`-wide rows of `out`, each
/// row held in one `[f32; L]` accumulator (a full-width vector) for the
/// whole pass. The `R` rows' add chains are independent, so they
/// overlap instead of waiting on one another. Lanes past `w` only ever
/// multiply the zero padding and are dropped; every kept element starts
/// from its stored value (`+0.0` on the first pass) and adds its
/// products in ascending `k`, so results are bit-identical to the
/// general kernels.
#[inline(always)]
fn accumulate_narrow<const L: usize, const R: usize>(
    packed: &[[f32; L]],
    x: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
    w: usize,
) {
    let mut acc = [[0.0f32; L]; R];
    for (a, o) in acc.iter_mut().zip(out.chunks_exact(w)) {
        a[..w].copy_from_slice(o);
    }
    for (k, b) in packed.iter().enumerate() {
        for (r, a) in acc.iter_mut().enumerate() {
            let xr = x(r, k);
            for (s, &v) in a.iter_mut().zip(b) {
                *s += xr * v;
            }
        }
    }
    for (a, o) in acc.iter().zip(out.chunks_exact_mut(w)) {
        o.copy_from_slice(&a[..w]);
    }
}

/// Fused SGD-momentum step over one parameter block: per element,
/// `gc = clamp(g·inv_batch, ±bound)`, `v = momentum·v − lr·gc`,
/// `w += v` — the batch-mean scaling, robustness clamp and update
/// applied in a single pass instead of two full-buffer rewrites
/// followed by three vector ops. Per-element arithmetic matches the
/// unfused pipeline exactly (`momentum·v − lr·gc` is the IEEE-identical
/// reassociation of `v·momentum + (−lr)·gc`), so weights are
/// bit-identical; only the raw-gradient buffer is left unscaled, which
/// no caller reads back.
pub fn momentum_step(
    weights: &mut [f32],
    vel: &mut [f32],
    grad: &[f32],
    inv_batch: f32,
    bound: f32,
    lr: f32,
    momentum: f32,
) {
    assert_eq!(weights.len(), grad.len(), "momentum_step shape mismatch");
    assert_eq!(weights.len(), vel.len(), "momentum_step shape mismatch");
    for ((w, v), g) in weights.iter_mut().zip(vel).zip(grad) {
        let gc = (g * inv_batch).clamp(-bound, bound);
        *v = momentum * *v - lr * gc;
        *w += *v;
    }
}

/// Fused Adam step over one parameter block: per element,
/// `gc = clamp(g·inv_batch, ±bound)`, then the bias-corrected moment
/// updates `m = β₁·m + (1−β₁)·gc`, `v = β₂·v + (1−β₂)·gc·gc`,
/// `w −= lr·(m/c1)/(√(v/c2) + ε)` — one pass over four buffers instead
/// of a scale pass, a clamp pass and the update. `c1`/`c2` are the
/// step-count bias corrections `1 − βᵢᵗ`, computed once by the caller.
/// Per-element expressions are unchanged from the unfused pipeline, so
/// parameters and optimizer state are bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn adam_step(
    weights: &mut [f32],
    m1: &mut [f32],
    m2: &mut [f32],
    grad: &[f32],
    inv_batch: f32,
    bound: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    c1: f32,
    c2: f32,
) {
    assert_eq!(weights.len(), grad.len(), "adam_step shape mismatch");
    assert_eq!(weights.len(), m1.len(), "adam_step shape mismatch");
    assert_eq!(weights.len(), m2.len(), "adam_step shape mismatch");
    for (((w, m), v), g) in weights.iter_mut().zip(m1).zip(m2).zip(grad) {
        let gc = (g * inv_batch).clamp(-bound, bound);
        *m = beta1 * *m + (1.0 - beta1) * gc;
        *v = beta2 * *v + (1.0 - beta2) * gc * gc;
        *w -= lr * (*m / c1) / ((*v / c2).sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_slice(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit() {
        let a = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_slice(2, 2, &[1.0, 0.5, -1.0, 2.0]);
        // aᵀ (3x2) × b (2x2) = 3x2
        let c = a.t_matmul(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 2);
        // check element (0,0): col0 of a · col0 of b = 1*1 + 4*(-1) = -3
        assert_eq!(c.get(0, 0), -3.0);

        let d = Matrix::from_slice(2, 3, &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        // a (2x3) × dᵀ (3x2) = 2x2; element (0,1) = row0(a)·row1(d) = 6*2
        let e = a.matmul_t(&d);
        assert_eq!(e.get(0, 1), 12.0);
    }

    #[test]
    fn into_variants_match_allocating_ones_and_reuse_buffers() {
        let mut rng = Prng::new(17);
        let data_a: Vec<f32> = (0..4 * 5).map(|_| rng.gauss() as f32).collect();
        let data_b: Vec<f32> = (0..5 * 3).map(|_| rng.gauss() as f32).collect();
        let a = Matrix::from_slice(4, 5, &data_a);
        let b = Matrix::from_slice(5, 3, &data_b);

        // Scratch buffers deliberately start with the wrong shape and
        // stale contents; every `_into` must reshape and overwrite.
        let mut out = Matrix::from_slice(1, 2, &[9.0, 9.0]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let data_c: Vec<f32> = (0..4 * 3).map(|_| rng.gauss() as f32).collect();
        let c = Matrix::from_slice(4, 3, &data_c);
        a.t_matmul_into(&c, &mut out);
        assert_eq!(out, a.t_matmul(&c));

        let data_d: Vec<f32> = (0..2 * 5).map(|_| rng.gauss() as f32).collect();
        let d = Matrix::from_slice(2, 5, &data_d);
        let mut d_t = Matrix::from_slice(1, 1, &[9.0]);
        a.matmul_t_into(&d, &mut d_t, &mut out);
        assert_eq!(out, a.matmul_t(&d));
        let mut a_t = Matrix::from_slice(1, 1, &[9.0]);
        a.transpose_into(&mut a_t);
        assert_eq!((a_t.rows(), a_t.cols()), (5, 4));
        assert!((0..4).all(|r| (0..5).all(|c| a_t.get(c, r) == a.get(r, c))));

        // Zero entries in the left operand must not perturb results
        // (the old implementation skipped them; the branch-free one
        // multiplies through).
        let sparse = Matrix::from_slice(2, 2, &[0.0, 1.0, 0.0, 0.0]);
        let dense = Matrix::from_slice(2, 2, &[3.0, -4.0, 5.0, 6.0]);
        assert_eq!(sparse.matmul(&dense).data(), &[5.0, 6.0, 0.0, 0.0]);
    }

    /// The fused dense forward must bit-match the unfused three-pass
    /// pipeline at every shape, including k-block remainders.
    #[test]
    fn affine_into_bit_matches_unfused_pipeline() {
        let mut rng = Prng::new(23);
        for rows in [1usize, 7, 9, 33] {
            for (k, w) in [(16usize, 32usize), (5, 3), (8, 8), (17, 24)] {
                let a_data: Vec<f32> = (0..rows * k).map(|_| rng.gauss() as f32).collect();
                let w_data: Vec<f32> = (0..k * w).map(|_| rng.gauss() as f32).collect();
                let bias: Vec<f32> = (0..w).map(|_| rng.gauss() as f32).collect();
                let a = Matrix::from_slice(rows, k, &a_data);
                let weights = Matrix::from_slice(k, w, &w_data);
                for relu in [false, true] {
                    let mut expect = Matrix::default();
                    a.matmul_into(&weights, &mut expect);
                    expect.add_row_vec(&bias);
                    if relu {
                        expect.relu_inplace();
                    }
                    let mut got = Matrix::from_slice(1, 1, &[5.0]);
                    a.affine_into(&weights, &bias, relu, &mut got);
                    let eb: Vec<u32> = expect.data().iter().map(|x| x.to_bits()).collect();
                    let gb: Vec<u32> = got.data().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(gb, eb, "{rows}x{k}x{w} relu={relu}");
                }
            }
        }
    }

    /// The fused centred projection must bit-match centring into a
    /// scratch matrix first and then running the plain `matmul_t`.
    #[test]
    fn centered_matmul_t_bit_matches_two_pass() {
        let mut rng = Prng::new(29);
        for rows in [1usize, 8, 21] {
            for (w, n) in [(32usize, 8usize), (6, 3), (12, 11)] {
                let a_data: Vec<f32> = (0..rows * w).map(|_| rng.gauss() as f32).collect();
                let b_data: Vec<f32> = (0..n * w).map(|_| rng.gauss() as f32).collect();
                let mean: Vec<f32> = (0..w).map(|_| rng.gauss() as f32).collect();
                let a = Matrix::from_slice(rows, w, &a_data);
                let b = Matrix::from_slice(n, w, &b_data);
                let centered_data: Vec<f32> = a
                    .data()
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| x - mean[i % w])
                    .collect();
                let centered = Matrix::from_slice(rows, w, &centered_data);
                let expect = centered.matmul_t(&b);
                let mut got = Matrix::from_slice(1, 1, &[5.0]);
                a.centered_matmul_t_into(&mean, &b, &mut got);
                let eb: Vec<u32> = expect.data().iter().map(|x| x.to_bits()).collect();
                let gb: Vec<u32> = got.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(gb, eb, "{rows}x{w} by {n}");
            }
        }
    }

    /// The 8-row-blocked gradient GEMM must bit-match a one-step
    /// ascending-r accumulation at every block remainder (m % 8).
    #[test]
    fn t_matmul_blocked_bit_matches_one_step_loop() {
        let mut rng = Prng::new(37);
        for m in [1usize, 3, 4, 7, 8, 9, 15, 16, 17, 33] {
            for (k, n) in [(5usize, 4usize), (16, 24), (1, 1), (32, 6)] {
                let a_data: Vec<f32> = (0..m * k).map(|_| rng.gauss() as f32).collect();
                let b_data: Vec<f32> = (0..m * n).map(|_| rng.gauss() as f32).collect();
                let a = Matrix::from_slice(m, k, &a_data);
                let b = Matrix::from_slice(m, n, &b_data);
                let mut expect = Matrix::zeros(k, n);
                for r in 0..m {
                    let arow = a.row(r);
                    let brow = b.row(r);
                    for (i, &x) in arow.iter().enumerate() {
                        for (o, &v) in expect.row_mut(i).iter_mut().zip(brow) {
                            *o += x * v;
                        }
                    }
                }
                let mut got = Matrix::from_slice(1, 1, &[5.0]);
                a.t_matmul_into(&b, &mut got);
                let eb: Vec<u32> = expect.data().iter().map(|x| x.to_bits()).collect();
                let gb: Vec<u32> = got.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(gb, eb, "{m}x{k} by {m}x{n}");
            }
        }
    }

    /// The fused momentum kernel must bit-match the unfused pipeline:
    /// scale pass, clamp pass, then `v·momentum`, `v += −lr·g`,
    /// `w += v` as separate vector ops.
    #[test]
    fn momentum_step_bit_matches_unfused_sequence() {
        let mut rng = Prng::new(41);
        for n in [1usize, 8, 37, 256] {
            let grad: Vec<f32> = (0..n).map(|_| rng.gauss() as f32 * 40.0).collect();
            let w0: Vec<f32> = (0..n).map(|_| rng.gauss() as f32).collect();
            let v0: Vec<f32> = (0..n).map(|_| rng.gauss() as f32).collect();
            let (lr, momentum, batch) = (0.05f32, 0.9f32, 24.0f32);
            // Unfused reference.
            let mut g_ref = Matrix::from_slice(1, n, &grad);
            g_ref.scale(1.0 / batch);
            for g in g_ref.data_mut() {
                *g = g.clamp(-5.0, 5.0);
            }
            let mut w_ref = Matrix::from_slice(1, n, &w0);
            let mut v_ref = Matrix::from_slice(1, n, &v0);
            v_ref.scale(momentum);
            v_ref.axpy(-lr, &g_ref);
            w_ref.axpy(1.0, &v_ref);
            // Fused.
            let (mut w, mut v) = (w0.clone(), v0.clone());
            momentum_step(&mut w, &mut v, &grad, 1.0 / batch, 5.0, lr, momentum);
            let eq = |a: &[f32], b: &[f32]| {
                a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits()))
            };
            assert!(eq(&w, w_ref.data()), "weights diverge at n={n}");
            assert!(eq(&v, v_ref.data()), "velocity diverges at n={n}");
        }
    }

    /// The fused Adam kernel must bit-match the unfused pipeline
    /// (scale pass, clamp pass, per-element moment/parameter updates).
    #[test]
    fn adam_step_bit_matches_unfused_sequence() {
        let mut rng = Prng::new(43);
        for n in [1usize, 8, 37, 256] {
            let grad: Vec<f32> = (0..n).map(|_| rng.gauss() as f32 * 40.0).collect();
            let w0: Vec<f32> = (0..n).map(|_| rng.gauss() as f32).collect();
            let m0: Vec<f32> = (0..n).map(|_| rng.gauss() as f32 * 0.1).collect();
            let v0: Vec<f32> = (0..n).map(|_| (rng.gauss() as f32 * 0.1).abs()).collect();
            let (lr, beta1, beta2, eps, batch) = (0.02f32, 0.9f32, 0.999f32, 1e-8f32, 24.0f32);
            let (c1, c2) = (1.0 - beta1.powf(3.0), 1.0 - beta2.powf(3.0));
            // Unfused reference.
            let mut g_ref = Matrix::from_slice(1, n, &grad);
            g_ref.scale(1.0 / batch);
            for g in g_ref.data_mut() {
                *g = g.clamp(-5.0, 5.0);
            }
            let (mut w_ref, mut m_ref, mut v_ref) = (w0.clone(), m0.clone(), v0.clone());
            for (((w, m), v), g) in w_ref
                .iter_mut()
                .zip(&mut m_ref)
                .zip(&mut v_ref)
                .zip(g_ref.data())
            {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                *w -= lr * (*m / c1) / ((*v / c2).sqrt() + eps);
            }
            // Fused.
            let (mut w, mut m, mut v) = (w0.clone(), m0.clone(), v0.clone());
            adam_step(
                &mut w, &mut m, &mut v, &grad, 1.0 / batch, 5.0, lr, beta1, beta2, eps, c1, c2,
            );
            let eq = |a: &[f32], b: &[f32]| {
                a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits()))
            };
            assert!(eq(&w, &w_ref), "weights diverge at n={n}");
            assert!(eq(&m, &m_ref), "first moment diverges at n={n}");
            assert!(eq(&v, &v_ref), "second moment diverges at n={n}");
        }
    }

    #[test]
    fn matvec_bit_matches_scalar_row_dots() {
        let mut rng = Prng::new(31);
        // Cover the 8-wide blocks and every remainder lane (rows % 8).
        for rows in [1usize, 3, 7, 8, 9, 16, 19, 64] {
            for cols in [1usize, 5, 8, 33] {
                let data: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
                let m = Matrix::from_slice(rows, cols, &data);
                let v: Vec<f32> = (0..cols).map(|_| rng.gauss() as f32).collect();
                let expect: Vec<u32> = (0..rows)
                    .map(|r| {
                        let mut acc = 0.0f32;
                        for (a, b) in v.iter().zip(m.row(r)) {
                            acc += a * b;
                        }
                        acc.to_bits()
                    })
                    .collect();
                // Dirty, wrongly-sized output buffer must be reshaped.
                let mut out = vec![9.0f32; 3];
                m.matvec_into(&v, &mut out);
                let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expect, "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn copy_from_and_reset_reuse_capacity() {
        let src = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut dst = Matrix::zeros(8, 8);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.reset_zeroed(3, 2);
        assert_eq!(dst.rows(), 3);
        assert_eq!(dst.cols(), 2);
        assert!(dst.data().iter().all(|&x| x == 0.0));
        let mut sums = vec![7.0; 9];
        src.col_sums_into(&mut sums);
        assert_eq!(sums, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn gather_rows_from_selects_in_index_order() {
        let src = Matrix::from_slice(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut dst = Matrix::zeros(9, 9);
        dst.gather_rows_from(&src, &[3, 0, 3]);
        assert_eq!(
            dst,
            Matrix::from_slice(3, 2, &[7.0, 8.0, 1.0, 2.0, 7.0, 8.0])
        );
        dst.gather_rows_from(&src, &[]);
        assert_eq!(dst.rows(), 0);
    }

    #[test]
    fn copy_rows_from_extracts_contiguous_chunks() {
        let src = Matrix::from_slice(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut dst = Matrix::zeros(9, 9);
        dst.copy_rows_from(&src, 1, 3);
        assert_eq!(dst, Matrix::from_slice(2, 2, &[3.0, 4.0, 5.0, 6.0]));
        // Empty range and full range both work; allocation is reused.
        dst.copy_rows_from(&src, 2, 2);
        assert_eq!(dst.rows(), 0);
        dst.copy_rows_from(&src, 0, 4);
        assert_eq!(dst, src);
    }

    #[test]
    fn softmax_rows_normalises() {
        let m = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let total: f32 = s.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
        }
        // Large logits must not overflow.
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn relu_forward_backward() {
        let pre = Matrix::from_slice(1, 4, &[-1.0, 0.0, 2.0, -3.0]);
        let mut act = pre.clone();
        act.relu_inplace();
        assert_eq!(act.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut grad = Matrix::from_slice(1, 4, &[1.0, 1.0, 1.0, 1.0]);
        grad.relu_backward_inplace(&pre);
        assert_eq!(grad.data(), &[0.0, 0.0, 1.0, 0.0]);
        // The ReLU output carries the same mask as its input.
        let mut from_act = Matrix::from_slice(1, 4, &[1.0, 1.0, 1.0, 1.0]);
        from_act.relu_backward_inplace(&act);
        assert_eq!(from_act, grad);
    }

    #[test]
    fn col_stats_and_argmax() {
        let m = Matrix::from_slice(2, 2, &[1.0, 5.0, 3.0, 1.0]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        assert_eq!(m.col_means(), vec![2.0, 3.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
        assert_eq!(m.count_argmax_hits(&[1, 1]), 1);
        assert_eq!(m.count_argmax_hits(&[1, 0]), 2);
    }

    #[test]
    fn axpy_updates() {
        let mut a = Matrix::zeros(1, 3);
        let g = Matrix::from_slice(1, 3, &[1.0, 2.0, 3.0]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[-0.5, -1.0, -1.5]);
    }

    #[test]
    fn he_init_statistics() {
        let mut rng = Prng::new(11);
        let m = Matrix::he_init(64, 64, &mut rng);
        let mean: f32 = m.data().iter().sum::<f32>() / 4096.0;
        let var: f32 = m
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 4096.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 2.0 / 64.0).abs() < 0.01, "var {var}");
    }
}
