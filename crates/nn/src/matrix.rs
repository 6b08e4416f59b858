//! A minimal row-major `f32` matrix.
//!
//! Only the operations backpropagation and the PCA need are
//! implemented. Every matrix product of the crate — the dense forward
//! and backward passes, and the PCA's covariance, power iteration and
//! projection — runs through one GEMM kernel family behind
//! [`Matrix::matmul_into`] and [`Matrix::t_matmul_into`], at every
//! output width: the output runs in column panels at most 32 wide, each
//! held in 8, 16, 24 or 32 vector lanes and accumulated several rows at
//! a time. The kernels unroll and pad across *independent* output
//! elements only: every output element keeps one accumulator fed in
//! ascending-k order, so results are bit-identical to a plain triple
//! loop at any SIMD width.
//!
//! A right operand exactly a lane width wide (`lane_width`) is read in
//! place over the whole contraction. That covers every product the
//! deployed models run: the trunk layers are 32, 24 and 16 wide; a
//! classification head stores its weights padded with zero columns to
//! the lane width (`layer::Dense::head`), so its logits and weight
//! gradient are 8 or 16 wide too; and the PCA runs on 32-wide features
//! with 8 components. Only other widths (the general API, other PCA
//! sizes) pack the panel, zero-padded to the lane count, 64
//! contraction rows per pass. Outputs are written once: the first pass
//! over the contraction starts its accumulators at `+0.0` instead of
//! loading a zeroed output, and the pass that ends it applies the bias
//! and ReLU of [`Matrix::affine_into`] to the registers before the one
//! store.

use adainf_simcore::Prng;
use std::fmt;

/// Rows of the right-hand operand packed per pass by the GEMM kernel
/// ([`Matrix::matmul_into`], [`Matrix::t_matmul_into`]) when a panel
/// needs padding: the lane-padded stack buffer holds this many rows of
/// one column panel, so its size is fixed whatever the contraction
/// length.
const NARROW_CHUNK: usize = 64;

/// Widest output column panel of the GEMM kernel: outputs wider than
/// this run as several panels, the last one holding the remainder.
const PANEL: usize = 32;

/// The width the GEMM kernel reads a right operand of `cols` columns
/// in place at: `cols` rounded up to a multiple of 8 lanes, up to one
/// [`PANEL`]; a wider operand keeps its width (it runs as several
/// panels). Storing a matrix padded with zero columns to this width
/// lets every product with it run full-width without packing.
pub(crate) fn lane_width(cols: usize) -> usize {
    if cols <= PANEL {
        cols.next_multiple_of(8)
    } else {
        cols
    }
}

/// The products of the GEMM kernel, its `OP` parameter: each instance
/// compiles only what its product needs. `self × other`:
const MATMUL: u8 = 0;
/// `selfᵀ × other`:
const T_MATMUL: u8 = 1;
/// `self × other`, then the [`Epilogue`] on each element before its
/// store:
const AFFINE: u8 = 2;

/// What an `AFFINE` GEMM kernel does to each output element once its
/// sum is complete, before the store: add `bias[j]`, then clamp a
/// negative value to `+0.0` (when `relu`) — the exact operations, in
/// the same order, of separate bias and ReLU passes over the stored
/// product. Other kernels ignore it.
#[derive(Clone, Copy, Default)]
struct Epilogue<'a> {
    bias: &'a [f32],
    relu: bool,
}

impl<'a> Epilogue<'a> {
    /// The epilogue of the output column panel starting at `c0`.
    fn panel(self, c0: usize) -> Self {
        Epilogue {
            bias: self.bias.get(c0..).unwrap_or_default(),
            ..self
        }
    }
}

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
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
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

    /// Reshapes this matrix to `rows × cols` for a writer that stores
    /// every element, reusing the allocation: unlike
    /// [`Self::reset_zeroed`] it clears nothing, so elements keep stale
    /// values until written.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// This matrix with zero columns appended up to `cols` wide: each
    /// row's values, then `+0.0` padding.
    ///
    /// # Panics
    /// Panics when `cols < self.cols()`.
    pub(crate) fn padded_to(&self, cols: usize) -> Matrix {
        assert!(cols >= self.cols, "padding narrows the matrix");
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
        }
        out
    }

    /// Empties this matrix to `0 × cols` with room for `capacity` rows,
    /// reusing the existing allocation when it is large enough: the
    /// start of a row-by-row gather through [`Self::push_row`].
    pub fn reset_rows(&mut self, cols: usize, capacity: usize) {
        self.rows = 0;
        self.cols = cols;
        self.data.clear();
        self.data.reserve(capacity * cols);
    }

    /// Appends `row` as the new last row.
    ///
    /// # Panics
    /// Panics when `row.len() != self.cols()`.
    #[inline]
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
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
    /// subset). Indices may be `usize` or the drift path's `u32` sample
    /// orders, read in place.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn gather_rows_from<I: RowIndex>(&mut self, src: &Matrix, indices: &[I]) {
        self.rows = indices.len();
        self.cols = src.cols;
        self.data.clear();
        self.data.reserve(indices.len() * src.cols);
        for &i in indices {
            self.data.extend_from_slice(src.row(i.row_index()));
        }
    }

    /// `self × other`, written into `out` (reshaped in place) through
    /// the lane-padded, register-blocked GEMM kernel (see the module
    /// docs): `out[i][j] = Σ_k self[i][k]·other[k][j]`, each element one
    /// accumulator fed in ascending `k` from `+0.0`, so results are
    /// bit-identical to the plain triple loop.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        self.gemm_into::<MATMUL>(other, out, Epilogue::default());
    }

    /// `self[.., ..k] × other` with `k = other.rows()`, written into
    /// `out`: the product over the leading `k` columns of `self`, read
    /// in place — the input gradient of a class-padded head, whose
    /// gradient rows carry zero pad columns past the `k` real classes.
    /// An extra `+0.0` term would turn a `−0.0` sum into `+0.0`, so the
    /// pad columns must stay out of the contraction.
    ///
    /// # Panics
    /// Panics when `self` has fewer than `k` columns.
    pub(crate) fn matmul_leading_into(&self, other: &Matrix, out: &mut Matrix) {
        assert!(self.cols >= other.rows, "matmul shape mismatch");
        self.gemm_into::<MATMUL>(other, out, Epilogue::default());
    }

    /// `relu?(self × weights + bias)`, written into `out` — the fused
    /// dense-layer forward pass: the [`Self::matmul_into`] kernel adds
    /// the bias (and applies the optional ReLU) to each finished
    /// accumulator before its one store, instead of two further
    /// full-matrix passes. Every output element sees the same
    /// operations in the same order as `matmul_into` + `add_row_vec` +
    /// `relu_inplace`, so results are bit-identical.
    ///
    /// # Panics
    /// Panics on inner-dimension or bias-width mismatch.
    pub fn affine_into(&self, weights: &Matrix, bias: &[f32], relu: bool, out: &mut Matrix) {
        assert_eq!(self.cols, weights.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), weights.cols, "bias width mismatch");
        self.gemm_into::<AFFINE>(weights, out, Epilogue { bias, relu });
    }

    /// `selfᵀ × other`, written into `out` (reshaped in place) through
    /// the same kernel as [`Self::matmul_into`], reading `self`
    /// transposed in place, without materialising the transpose: each
    /// output element accumulates `self[r][i]·other[r][j]` over
    /// ascending `r`, exactly as [`Self::matmul_into`] over a
    /// materialised transpose would.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        self.gemm_into::<T_MATMUL>(other, out, Epilogue::default());
    }

    /// The GEMM kernel behind [`Self::matmul_into`] (`OP = MATMUL`:
    /// `out = self × other`), [`Self::t_matmul_into`] (`T_MATMUL`:
    /// `out = selfᵀ × other`) and [`Self::affine_into`] (`AFFINE`:
    /// `self × other` through `epilogue`); each contracts over the rows
    /// of `other`. The output runs in column panels at most [`PANEL`]
    /// wide, each accumulated in `[f32; L]` register groups of 8, 16,
    /// 24 or 32 lanes, several rows per block (see
    /// [`accumulate_block`]). Every output element is stored by the
    /// kernel, so `out` is reshaped without being zeroed.
    fn gemm_into<const OP: u8>(&self, other: &Matrix, out: &mut Matrix, epilogue: Epilogue) {
        let rows = if OP == T_MATMUL { self.cols } else { self.rows };
        out.reshape_for_overwrite(rows, other.cols);
        for c0 in (0..other.cols).step_by(PANEL) {
            let epilogue = epilogue.panel(c0);
            match other.cols - c0 {
                0..=8 => self.gemm_panel::<OP, 8, 8>(other, c0, out, epilogue),
                9..=16 => self.gemm_panel::<OP, 16, 4>(other, c0, out, epilogue),
                17..=24 => self.gemm_panel::<OP, 24, 4>(other, c0, out, epilogue),
                _ => self.gemm_panel::<OP, 32, 4>(other, c0, out, epilogue),
            }
        }
    }

    /// One column panel of [`Self::gemm_into`]: output columns
    /// `c0..c0 + w` with `w = min(other.cols − c0, L)`. A right operand
    /// exactly `L` wide (every trunk and head product) already is rows
    /// of `L` lanes, and is read in place in one pass over the whole
    /// contraction. Otherwise the panel's slice of `other` is packed,
    /// zero-padded to `L` lanes, into a fixed-size stack buffer,
    /// [`NARROW_CHUNK`] rows per pass: the buffer is zeroed once per
    /// panel, and each pass overwrites only the `w` kept lanes of the
    /// rows it reads. An empty contraction still makes one pass, which
    /// stores `+0.0` through the epilogue.
    fn gemm_panel<const OP: u8, const L: usize, const R: usize>(
        &self,
        other: &Matrix,
        c0: usize,
        out: &mut Matrix,
        epilogue: Epilogue,
    ) {
        let (n, k) = (other.cols, other.rows);
        if n == L {
            let rhs = other.data.as_chunks::<L>().0;
            self.gemm_rows::<OP, L, R, true, false>(rhs, 0, 0, L, out, epilogue);
            return;
        }
        let w = (n - c0).min(L);
        let mut packed = [[0.0f32; L]; NARROW_CHUNK];
        for k0 in (0..k.max(1)).step_by(NARROW_CHUNK) {
            let kc = (k - k0).min(NARROW_CHUNK);
            for (p, row) in packed
                .iter_mut()
                .zip(other.data[k0 * n..].chunks_exact(n).take(kc))
            {
                p[..w].copy_from_slice(&row[c0..c0 + w]);
            }
            let rhs = &packed[..kc];
            if OP == AFFINE && k0 + kc < k {
                // Only the pass that ends the contraction runs the
                // epilogue: the others store partial sums.
                self.gemm_pass::<MATMUL, L, R>(rhs, k0, c0, w, out, epilogue);
            } else {
                self.gemm_pass::<OP, L, R>(rhs, k0, c0, w, out, epilogue);
            }
        }
    }

    /// One packed pass of [`Self::gemm_panel`], through the kernel for
    /// its panel width (`FULL`: `w = L`) and its place in the
    /// contraction (`RESUME`: a pass past the first).
    fn gemm_pass<const OP: u8, const L: usize, const R: usize>(
        &self,
        rhs: &[[f32; L]],
        k0: usize,
        c0: usize,
        w: usize,
        out: &mut Matrix,
        e: Epilogue,
    ) {
        match (w == L, k0 > 0) {
            (true, false) => self.gemm_rows::<OP, L, R, true, false>(rhs, k0, c0, w, out, e),
            (true, true) => self.gemm_rows::<OP, L, R, true, true>(rhs, k0, c0, w, out, e),
            (false, false) => self.gemm_rows::<OP, L, R, false, false>(rhs, k0, c0, w, out, e),
            (false, true) => self.gemm_rows::<OP, L, R, false, true>(rhs, k0, c0, w, out, e),
        }
    }

    /// Every output row of one panel, fed the right-operand rows
    /// `packed` that start at contraction index `k0`: blocks of `R` rows,
    /// then single rows for the remainder. Every block keeps at least
    /// eight independent 8-lane add chains in flight (`R · L ≥ 64`).
    /// `FULL` is `w = L` and `RESUME` a pass past the first (`k0 > 0`):
    /// each combination, like each `OP`, runs its own kernel, so each
    /// compiles to one kind of row access and keeps its accumulators in
    /// registers.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows<
        const OP: u8,
        const L: usize,
        const R: usize,
        const FULL: bool,
        const RESUME: bool,
    >(
        &self,
        packed: &[[f32; L]],
        k0: usize,
        c0: usize,
        w: usize,
        out: &mut Matrix,
        epilogue: Epilogue,
    ) {
        let (n, rows) = (out.cols, out.rows);
        // The panel's bias, zero-padded to whole lanes (pad lanes add
        // `+0.0` and are dropped at the store).
        let mut bias = [0.0f32; L];
        if OP == AFFINE {
            bias[..w].copy_from_slice(&epilogue.bias[..w]);
        }
        let finish = (bias, epilogue.relu);
        let full = rows / R * R;
        for i in (0..full).step_by(R) {
            let o = &mut out.data[i * n + c0..];
            self.gemm_block::<OP, L, R, FULL, RESUME>(packed, k0, i, o, n, w, &finish);
        }
        for i in full..rows {
            let o = &mut out.data[i * n + c0..];
            self.gemm_block::<OP, L, 1, FULL, RESUME>(packed, k0, i, o, n, w, &finish);
        }
    }

    /// One block of [`Self::gemm_panel`]: output rows `i..i + R`, fed
    /// the right-operand rows that start at contraction index `k0`.
    /// Reads the left operand in place: `self[i + r][k0 + k]` through
    /// row slices cut to those rows up front (no per-element bounds
    /// check), or `self[k0 + k][i + r]` when transposed.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn gemm_block<
        const OP: u8,
        const L: usize,
        const R: usize,
        const FULL: bool,
        const RESUME: bool,
    >(
        &self,
        packed: &[[f32; L]],
        k0: usize,
        i: usize,
        out: &mut [f32],
        stride: usize,
        w: usize,
        finish: &([f32; L], bool),
    ) {
        let d = self.cols;
        if OP == T_MATMUL {
            let x = |r: usize, k: usize| self.data[(k0 + k) * d + i + r];
            accumulate_block::<OP, L, R, FULL, RESUME>(packed, x, out, stride, w, finish);
        } else {
            let a: [&[f32]; R] =
                std::array::from_fn(|r| &self.data[(i + r) * d + k0..][..packed.len()]);
            let x = |r: usize, k: usize| a[r][k];
            accumulate_block::<OP, L, R, FULL, RESUME>(packed, x, out, stride, w, finish);
        }
    }

    /// Writes `selfᵀ` into `out`, reshaping it in place and reusing its
    /// allocation: the PCA's transposed basis.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        self.transpose_leading_into(self.cols, out);
    }

    /// Writes the transpose of the leading `k` columns of `self` into
    /// `out` (`k × rows`), storing each element once: eight source rows
    /// at a time, so each output row takes its values in 8-lane runs,
    /// then any last rows one element at a time.
    ///
    /// # Panics
    /// Panics when `k > self.cols()`.
    pub(crate) fn transpose_leading_into(&self, k: usize, out: &mut Matrix) {
        assert!(k <= self.cols, "transpose past the last column");
        let (rows, cols) = (self.rows, self.cols);
        out.reshape_for_overwrite(k, rows);
        if k == 0 {
            return;
        }
        for (b, block) in self.data.chunks_exact(8 * cols).enumerate() {
            let src: [&[f32]; 8] = std::array::from_fn(|r| &block[r * cols..][..k]);
            for (c, o) in (0..k).zip(out.data[8 * b..].chunks_mut(rows)) {
                o[..8].copy_from_slice(&std::array::from_fn::<f32, 8, _>(|r| src[r][c]));
            }
        }
        for r in rows / 8 * 8..rows {
            let column = out.data[r..].iter_mut().step_by(rows);
            for (o, &x) in column.zip(&self.data[r * cols..][..k]) {
                *o = x;
            }
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

    /// In-place row-wise softmax, numerically stabilised.
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            softmax_row(self.row_mut(r));
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

    /// The ReLU backward pass and the bias gradient in one pass over
    /// `self`: with a `mask`, zeroes each element whose mask entry is
    /// `≤ 0` — `mask` may be the ReLU's input or its output, since
    /// `relu(x) ≤ 0` exactly when `x ≤ 0` — then adds it to its
    /// column's sum in `sums` (as [`Self::col_sums_into`]: ascending
    /// rows from `+0.0`).
    pub(crate) fn masked_col_sums_into(&mut self, mask: Option<&Matrix>, sums: &mut Vec<f32>) {
        let Some(mask) = mask else {
            return self.col_sums_into(sums);
        };
        assert_eq!(self.data.len(), mask.data.len(), "shape mismatch");
        sums.clear();
        sums.resize(self.cols, 0.0);
        if self.cols == 0 {
            return;
        }
        let rows = self.data.chunks_exact_mut(self.cols);
        for (row, m) in rows.zip(mask.data.chunks_exact(self.cols)) {
            for ((g, &p), s) in row.iter_mut().zip(m).zip(sums.iter_mut()) {
                *g = if p <= 0.0 { 0.0 } else { *g };
                *s += *g;
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
}

/// In-place softmax of one row, numerically stabilised.
fn softmax_row(row: &mut [f32]) {
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

/// Index of a row's maximum entry; the last one on ties.
fn row_argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        // simlint: allow(no-unwrap-in-lib) — logits come out of finite-weight GEMMs; NaN means a training bug worth a loud stop
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN logit"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// How far below the maximum a later logit must lie for
/// [`softmax_argmax`] to skip the softmax: 2⁻²⁰.
const ARGMAX_GAP: f32 = 1.0 / (1u32 << 20) as f32;

/// A row index [`Matrix::gather_rows_from`] accepts: `usize`, or the
/// `u32` that sample orders are stored in (half the bytes of a `usize`
/// order over a 6000-sample pool, and a pool never holds more than
/// `u32::MAX` rows).
pub trait RowIndex: Copy {
    /// The index as a `usize`.
    fn row_index(self) -> usize;
}

impl RowIndex for usize {
    fn row_index(self) -> usize {
        self
    }
}

impl RowIndex for u32 {
    fn row_index(self) -> usize {
        self as usize
    }
}

/// The class a softmax of the logit `row` followed by [`row_argmax`]
/// picks, read straight from the logits: the last maximal logit.
///
/// That is exact. The maximum's probability is `1 / total`, since
/// `expf(0) = 1`. An earlier logit cannot beat it, and a tie goes to the
/// later index: `expf` is faithfully rounded, so `expf(x − max) ≤ 1`,
/// and the shared division keeps the order. A later logit at least
/// 2⁻²⁰ below the maximum gets
/// `expf(x − max) ≤ 1 − 15·2⁻²⁴`, which stays strictly below `1 / total`
/// after the division, so it cannot tie either. A row that is not
/// finite, or has a later logit closer than that, takes the softmax and
/// [`row_argmax`] in place, with the same result and the same panic on
/// NaN. Under `strict-invariants` every other row is checked the same
/// way.
pub(crate) fn softmax_argmax(row: &mut [f32]) -> usize {
    let (mut best, mut max, mut finite) = (0, f32::NEG_INFINITY, true);
    for (i, &x) in row.iter().enumerate() {
        finite &= x.is_finite();
        if x >= max {
            (best, max) = (i, x);
        }
    }
    let close = |later: &[f32]| later.iter().any(|&x| x - max > -ARGMAX_GAP);
    if !finite || row.get(best + 1..).is_some_and(close) {
        softmax_row(row);
        return row_argmax(row);
    }
    if cfg!(feature = "strict-invariants") {
        softmax_row(row);
        assert_eq!(
            row_argmax(row),
            best,
            "strict-invariants: logit argmax differs from the softmax argmax"
        );
    }
    best
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

/// The inner loop of the GEMM kernel: adds `x(r, k) · packed[k]` for
/// ascending `k` into each of the `R` rows of an output block, each row
/// held in one `[f32; L]` accumulator (full-width vectors) for the whole
/// pass. `out` starts at the block's first element; its rows lie
/// `stride` apart and the block covers `w ≤ L` columns of each. The `R`
/// rows' add chains are independent, so they overlap instead of waiting
/// on one another. A full-width row (`w = L`) loads and stores as one
/// whole array; a narrower one keeps zero pad lanes, which only ever
/// multiply the zero padding and are dropped. Every kept element
/// starts at `+0.0` (a first pass) or its stored partial sum (a
/// `RESUME` pass) and adds its products in ascending `k`; an `AFFINE`
/// kernel then adds the lane-padded bias of `finish` and, when its flag
/// is set, clamps negatives to `+0.0`, before the one store. Results
/// are bit-identical to the plain triple loop followed by the bias and
/// ReLU passes. (The epilogue reads the accumulators as whole arrays by
/// value: indexed in place, it made LLVM keep them in memory, even in
/// the kernels that never run it.)
///
/// `x` reads the left operand where it lies, one row (or column) per
/// accumulator. Fed from a k-major copy instead, with the `R` values of
/// one `k` side by side, LLVM vectorises across the rows with gathers
/// and scatters rather than across the lanes: several times slower.
#[inline(always)]
fn accumulate_block<
    const OP: u8,
    const L: usize,
    const R: usize,
    const FULL: bool,
    const RESUME: bool,
>(
    packed: &[[f32; L]],
    x: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
    stride: usize,
    w: usize,
    finish: &([f32; L], bool),
) {
    let w = if FULL { L } else { w };
    let mut acc = [[0.0f32; L]; R];
    if RESUME {
        for (r, a) in acc.iter_mut().enumerate() {
            a[..w].copy_from_slice(&out[r * stride..][..w]);
        }
    }
    for (k, b) in packed.iter().enumerate() {
        for (r, a) in acc.iter_mut().enumerate() {
            let xr = x(r, k);
            for (s, &v) in a.iter_mut().zip(b) {
                *s += xr * v;
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        let mut v = *a;
        if OP == AFFINE {
            let (bias, relu) = finish;
            v = std::array::from_fn(|j| v[j] + bias[j]);
            if *relu {
                v = v.map(|x| if x < 0.0 { 0.0 } else { x });
            }
        }
        out[r * stride..][..w].copy_from_slice(&v[..w]);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_slice(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut c = Matrix::default();
        a.matmul_into(&b, &mut c);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_matmul_agrees_with_explicit() {
        let a = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_slice(2, 2, &[1.0, 0.5, -1.0, 2.0]);
        // aᵀ (3x2) × b (2x2) = 3x2
        let mut c = Matrix::default();
        a.t_matmul_into(&b, &mut c);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 2);
        // check element (0,0): col0 of a · col0 of b = 1*1 + 4*(-1) = -3
        assert_eq!(c.get(0, 0), -3.0);
    }

    /// `transpose_into` and the zero-operand products overwrite
    /// deliberately mis-shaped buffers with stale contents.
    #[test]
    fn transpose_and_sparse_products_overwrite_dirty_buffers() {
        let mut rng = Prng::new(17);
        let data_a: Vec<f32> = (0..4 * 5).map(|_| rng.gauss() as f32).collect();
        let a = Matrix::from_slice(4, 5, &data_a);
        let mut a_t = Matrix::from_slice(1, 1, &[9.0]);
        a.transpose_into(&mut a_t);
        assert_eq!((a_t.rows(), a_t.cols()), (5, 4));
        assert!((0..4).all(|r| (0..5).all(|c| a_t.get(c, r) == a.get(r, c))));

        // Zero entries in the left operand must not perturb results
        // (the old implementation skipped them; the branch-free one
        // multiplies through).
        let sparse = Matrix::from_slice(2, 2, &[0.0, 1.0, 0.0, 0.0]);
        let dense = Matrix::from_slice(2, 2, &[3.0, -4.0, 5.0, 6.0]);
        let mut out = Matrix::from_slice(1, 2, &[9.0, 9.0]);
        sparse.matmul_into(&dense, &mut out);
        assert_eq!(out.data(), &[5.0, 6.0, 0.0, 0.0]);
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
                a.iter()
                    .map(|x| x.to_bits())
                    .eq(b.iter().map(|x| x.to_bits()))
            };
            assert!(eq(&w, w_ref.data()), "weights diverge at n={n}");
            assert!(eq(&v, v_ref.data()), "velocity diverges at n={n}");
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
        let want = Matrix::from_slice(3, 2, &[7.0, 8.0, 1.0, 2.0, 7.0, 8.0]);
        let mut dst = Matrix::zeros(9, 9);
        dst.gather_rows_from(&src, &[3usize, 0, 3]);
        assert_eq!(dst, want);
        dst.gather_rows_from::<usize>(&src, &[]);
        assert_eq!(dst.rows(), 0);
        dst.gather_rows_from(&src, &[3u32, 0, 3]);
        assert_eq!(dst, want);
    }

    /// A row-by-row gather through `reset_rows` and `push_row` builds
    /// the same matrix as `gather_rows_from`, reusing the allocation.
    #[test]
    fn push_row_gathers_like_gather_rows_from() {
        let src = Matrix::from_slice(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut dst = Matrix::zeros(9, 9);
        dst.reset_rows(2, 3);
        for i in [3, 0, 3] {
            dst.push_row(src.row(i));
        }
        let mut want = Matrix::default();
        want.gather_rows_from(&src, &[3usize, 0, 3]);
        assert_eq!(dst, want);
        dst.reset_rows(2, 0);
        assert_eq!((dst.rows(), dst.cols()), (0, 2));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_rejects_a_wrong_width() {
        let mut m = Matrix::zeros(0, 3);
        m.push_row(&[1.0, 2.0]);
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
        let mut s = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        s.softmax_rows_inplace();
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
        // Two rows, each masked by the same row.
        let ones = Matrix::from_slice(2, 4, &[1.0; 8]);
        let mask = |m: &Matrix| Matrix::from_slice(2, 4, &[m.data(), m.data()].concat());
        let mut grad = ones.clone();
        let mut sums = vec![9.0; 3];
        grad.masked_col_sums_into(Some(&mask(&pre)), &mut sums);
        assert_eq!(grad.data(), &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        assert_eq!(sums, [0.0, 0.0, 2.0, 0.0]);
        // The ReLU output carries the same mask as its input.
        let mut from_act = ones.clone();
        from_act.masked_col_sums_into(Some(&mask(&act)), &mut sums);
        assert_eq!(from_act, grad);
        // Without a mask it is the plain column sum.
        let mut plain = ones;
        plain.masked_col_sums_into(None, &mut sums);
        assert_eq!((plain.data(), &sums[..]), (&[1.0; 8][..], &[2.0; 4][..]));
    }

    #[test]
    fn col_stats() {
        let m = Matrix::from_slice(2, 2, &[1.0, 5.0, 3.0, 1.0]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        assert_eq!(m.col_means(), vec![2.0, 3.0]);
    }

    /// [`softmax_argmax`] and the path it shortcuts, softmax then
    /// [`row_argmax`], on a copy of `row` each: the class, or the panic
    /// message.
    fn both_argmaxes(row: &[f32]) -> (Result<usize, String>, Result<usize, String>) {
        let run = |f: fn(&mut [f32]) -> usize| {
            let mut copy = row.to_vec();
            std::panic::catch_unwind(move || f(&mut copy)).map_err(|e| {
                e.downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| e.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            })
        };
        let softmax_first = |r: &mut [f32]| {
            softmax_row(r);
            row_argmax(r)
        };
        (run(softmax_argmax), run(softmax_first))
    }

    fn assert_argmax_agrees(row: &[f32]) {
        let (fast, slow) = both_argmaxes(row);
        assert_eq!(fast, slow, "{row:?}");
    }

    #[test]
    fn logit_argmax_takes_the_last_of_exact_ties() {
        assert_eq!(softmax_argmax(&mut [1.0, 3.0, 3.0, -2.0]), 2);
        assert_eq!(softmax_argmax(&mut [0.5; 7]), 6);
        for row in [
            [1.0, 3.0, 3.0, -2.0],
            [3.0, 3.0, 3.0, 3.0],
            [-7.0, 2.0, -7.0, 2.0],
        ] {
            assert_argmax_agrees(&row);
        }
    }

    /// A later logit just below the maximum can tie it after the
    /// softmax; those rows take the softmax path and still agree.
    #[test]
    fn logit_argmax_agrees_on_near_ties() {
        for max in [0.0f32, 1.0, -3.5, 7.25, 1e3] {
            for near in [
                max.next_down(),
                max - 1.0 / (1u32 << 21) as f32,
                max - ARGMAX_GAP,
            ] {
                assert_argmax_agrees(&[max, near]);
                assert_argmax_agrees(&[near, max]);
                assert_argmax_agrees(&[-9.0, max, 0.5 * max - 1.0, near, -20.0]);
            }
        }
    }

    #[test]
    fn logit_argmax_finds_the_max_at_every_position() {
        assert_eq!(softmax_argmax(&mut [4.0]), 0);
        assert_eq!(softmax_argmax(&mut []), 0);
        assert_argmax_agrees(&[-1e30]);
        for len in 1..=12 {
            for at in 0..len {
                let mut row: Vec<f32> = (0..len).map(|i| -0.25 * i as f32).collect();
                row[at] = 2.0;
                assert_argmax_agrees(&row);
                assert_eq!(softmax_argmax(&mut row), at);
            }
        }
    }

    #[test]
    fn logit_argmax_raises_the_same_panic_on_non_finite_rows() {
        let nan = f32::NAN;
        let (inf, ninf) = (f32::INFINITY, f32::NEG_INFINITY);
        for row in [
            vec![1.0, nan, 0.5],
            vec![nan],
            vec![0.0, inf, 2.0],
            vec![inf, inf],
            vec![ninf, ninf],
            vec![ninf, 3.0, ninf, -1.0],
            vec![2.0, ninf],
        ] {
            let (fast, slow) = both_argmaxes(&row);
            assert_eq!(fast, slow, "{row:?}");
            // A one-entry row has nothing to compare its NaN with.
            if row.len() > 1 && (row.iter().any(|x| x.is_nan()) || row.contains(&inf)) {
                assert_eq!(fast, Err("NaN logit".to_string()), "{row:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

        /// Random logit rows at the heads' 2–12 classes; `grid` snaps
        /// them onto a coarse grid so exact ties are common.
        fn logit_argmax_matches_softmax_then_argmax(
            logits in proptest::collection::vec(-6.0f32..6.0, 2..13),
            grid in 0u32..3,
        ) {
            let row: Vec<f32> = if grid == 0 {
                logits
            } else {
                logits.iter().map(|x| (x * grid as f32).round() / grid as f32).collect()
            };
            let (fast, slow) = both_argmaxes(&row);
            proptest::prop_assert!(fast == slow, "{:?}: {:?} != {:?}", row, fast, slow);
        }
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
