//! Property tests pinning the blocked/unrolled GEMM kernels to the
//! naive triple-loop reference, bit for bit.
//!
//! The `_into` kernels unroll across *independent* output elements, so
//! every output element must still receive its contributions in plain
//! ascending-k order — exactly what the reference below computes. Any
//! reassociation (e.g. multi-lane partial sums of one dot product)
//! would change low-order bits and fail these tests. Shapes span the
//! ones the early-exit heads run: rows 0–41 (the 32-row SGD batch and
//! its ragged tail), inner widths up to 33 and output widths up to 70,
//! so every lane group (8, 16, 24 and 32 lanes), outputs of two full
//! 32-column panels plus a tail, the row-block remainders and the
//! degenerate empty shapes are all exercised.

use adainf_nn::Matrix;
use adainf_simcore::Prng;
use proptest::prelude::{prop_assert, proptest, ProptestConfig, TestCaseError};

type CaseResult = Result<(), TestCaseError>;

fn random_matrix(rows: usize, cols: usize, rng: &mut Prng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
    Matrix::from_slice(rows, cols, &data)
}

fn transpose(a: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            t.set(j, i, a.get(i, j));
        }
    }
    t
}

/// Plain i→j→k triple loop: the seed engine's accumulation order.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// The unfused dense forward: triple-loop GEMM, then the bias add, then
/// the ReLU clamp, each as its own pass.
fn reference_affine(a: &Matrix, w: &Matrix, bias: &[f32], relu: bool) -> Matrix {
    let mut out = reference_matmul(a, w);
    for i in 0..out.rows() {
        for (j, &b) in bias.iter().enumerate() {
            let mut x = out.get(i, j) + b;
            if relu && x < 0.0 {
                x = 0.0;
            }
            out.set(i, j, x);
        }
    }
    out
}

fn assert_bit_identical(label: &str, got: &Matrix, want: &Matrix) -> CaseResult {
    prop_assert!(got.rows() == want.rows(), "{} rows", label);
    prop_assert!(got.cols() == want.cols(), "{} cols", label);
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "{} element {}: {} != {}",
            label,
            i,
            g,
            w
        );
    }
    Ok(())
}

/// Every kernel on an `m × k` left operand and an `n`-wide output,
/// against the reference, into deliberately dirty, mis-shaped buffers.
fn check_all_kernels(m: usize, k: usize, n: usize, seed: u64) -> CaseResult {
    let mut rng = Prng::new(seed);
    let shape = format!("{m}x{k}x{n}");
    let a = random_matrix(m, k, &mut rng);
    let b = random_matrix(k, n, &mut rng);
    let mut out = Matrix::from_slice(1, 3, &[7.0, 7.0, 7.0]);
    let mut scratch = Matrix::from_slice(2, 1, &[7.0, 7.0]);

    let want = reference_matmul(&a, &b);
    a.matmul_into(&b, &mut out);
    assert_bit_identical(&format!("matmul_into {shape}"), &out, &want)?;
    // The allocating form must agree with its _into twin.
    assert_bit_identical(&format!("matmul {shape}"), &a.matmul(&b), &want)?;

    let bias: Vec<f32> = (0..n).map(|_| rng.gauss() as f32).collect();
    for relu in [false, true] {
        let want = reference_affine(&a, &b, &bias, relu);
        a.affine_into(&b, &bias, relu, &mut out);
        assert_bit_identical(&format!("affine_into {shape} relu={relu}"), &out, &want)?;
    }

    // selfᵀ (k×m over m×k storage) × other (m×n): contraction over the
    // shared row index, ascending — same order as the reference over
    // materialised aᵀ.
    let g = random_matrix(m, n, &mut rng);
    let want = reference_matmul(&transpose(&a), &g);
    a.t_matmul_into(&g, &mut out);
    assert_bit_identical(&format!("t_matmul_into {shape}"), &out, &want)?;

    // self (m×k) × otherᵀ (k×n over n×k storage).
    let w = random_matrix(n, k, &mut rng);
    let want = reference_matmul(&a, &transpose(&w));
    a.matmul_t_into(&w, &mut scratch, &mut out);
    assert_bit_identical(&format!("matmul_t_into {shape}"), &out, &want)?;
    assert_bit_identical(&format!("matmul_t {shape}"), &a.matmul_t(&w), &want)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn kernels_match_reference(
        m in 0usize..42,
        k in 0usize..34,
        n in 0usize..71,
        seed in 0u64..1 << 32,
    ) {
        check_all_kernels(m, k, n, seed)?;
    }
}

/// Every output width across the lane-group boundaries (8, 16, 24,
/// 32) and the panel boundaries (32, 64), at inner widths around the
/// packed chunk's edges and row counts around the row blocks and the
/// 32-row SGD batch.
#[test]
fn kernels_match_reference_at_every_output_width() {
    let mut seed = 0;
    for n in 0..=70 {
        for k in [0, 1, 6, 8, 12, 16, 24, 31, 32, 33] {
            for m in [0, 1, 2, 7, 9, 31, 32, 41] {
                seed += 1;
                if let Err(e) = check_all_kernels(m, k, n, seed) {
                    panic!("{e:?}");
                }
            }
        }
    }
}

/// Contractions longer than one packed chunk: the partial sums carried
/// across chunks, and across panels, must stay bit-exact. Outputs
/// exactly 8, 16, 24 or 32 wide read the right operand in place over
/// the whole contraction; the others pack it chunk by chunk.
#[test]
fn kernels_carry_partial_sums_across_chunks() {
    for (seed, (m, k, n)) in [
        (150, 65, 6),
        (3, 129, 12),
        (130, 7, 16),
        (70, 200, 1),
        (66, 130, 24),
        (9, 70, 32),
        (130, 65, 67),
        (40, 130, 8),
        (33, 65, 16),
    ]
    .into_iter()
    .enumerate()
    {
        if let Err(e) = check_all_kernels(m, k, n, seed as u64 + 1000) {
            panic!("{e:?}");
        }
    }
}

/// An empty contraction at 32 lanes, read in place, writes `+0.0` over
/// every element of a dirty output buffer.
#[test]
fn empty_contraction_gives_positive_zeros() {
    let a = Matrix::zeros(5, 0);
    let b = Matrix::zeros(0, 32);
    let mut out = Matrix::from_slice(2, 2, &[-0.0, 7.0, f32::NAN, -1.0]);
    let positive_zeros = |m: &Matrix, rows: usize| {
        assert_eq!((m.rows(), m.cols()), (rows, 32));
        assert!(m.data().iter().all(|x| x.to_bits() == 0), "{:?}", m.data());
    };
    a.matmul_into(&b, &mut out);
    positive_zeros(&out, 5);
    let mut out = Matrix::from_slice(1, 1, &[-0.0]);
    // selfᵀ × other over zero shared rows: a 7 × 32 output.
    Matrix::zeros(0, 7).t_matmul_into(&b, &mut out);
    positive_zeros(&out, 7);
}
