//! The crate's two AVX-512F kernels, and every `unsafe` line and the one
//! runtime CPU-feature check of its product code.
//!
//! Each kernel computes, bit for bit, what a portable loop elsewhere in the
//! crate computes, and is tested against it: the Mse threshold sums against
//! `tree`'s windowed loop, the normal equations against `linear`'s
//! augmented-copy loop. A dispatcher returns `false` when its kernel does
//! not apply (a CPU without AVX-512F, or a shape the registers cannot
//! hold), and the caller then runs its portable loop.

use crate::matrix::Matrix;

/// Whether the CPU has AVX-512F: the one runtime check.
#[cfg(target_arch = "x86_64")]
fn avx512f() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// `tree`'s Mse sums for rows that each lie right of thresholds `..b` and
/// left of `b..`, `b` the row's bucket, in registers: `false` (nothing
/// written) unless the CPU has AVX-512F and there are at most 16
/// thresholds.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn mse_by_bucket(
    buckets: &[u8],
    ys: &[f64],
    n_side: &[usize],
    mean: &mut Vec<f64>,
    sq: &mut Vec<f64>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if n_side.len() <= 32 && avx512f() {
        // SAFETY: the CPU has AVX-512F.
        unsafe { mse_avx512(buckets, ys, n_side, mean, sq) };
        return true;
    }
    false
}

/// `tree`'s windowed Mse loop on buckets, for at most 16 thresholds, with
/// every accumulator a register lane: left `0..8`, left `8..16`, right
/// `0..8`, right `8..16`. A row is added to its lanes, and only to them, by a
/// masked add, which leaves every other lane as it was; so each lane is fed
/// exactly its rows' addends, in ascending row order, from `sum`'s
/// identity, and rounds as its accumulator in the windowed loop does. A
/// squared deviation is a product, then an add (no fused multiply-add).
///
/// # Safety
///
/// Call only on a CPU that has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn mse_avx512(
    buckets: &[u8],
    ys: &[f64],
    n_side: &[usize],
    mean: &mut Vec<f64>,
    sq: &mut Vec<f64>,
) {
    use std::arch::x86_64::*;
    let n_t = n_side.len() / 2;
    let all = (1u32 << n_t) - 1;
    // A row of bucket `b` is right of thresholds `..b` and left of `b..n_t`:
    // one mask byte per register.
    let masks = |b: u8| {
        let right = (1u32 << b) - 1;
        (all & !right | right << 16).to_le_bytes()
    };
    // Lanes `16 * side + j`, laid out `[left | right]` as `n_side` is.
    let spread = |lanes: &[f64; 32], out: &mut Vec<f64>| {
        out.clear();
        out.extend_from_slice(&lanes[..n_t]);
        out.extend_from_slice(&lanes[16..16 + n_t]);
    };
    let zero = _mm512_set1_pd(std::iter::empty::<f64>().sum());
    let mut lanes = [0.0; 32];

    let mut sums = [zero; 4];
    for (&b, &y) in buckets.iter().zip(ys) {
        let y = _mm512_set1_pd(y);
        for (sum, k) in sums.iter_mut().zip(masks(b)) {
            *sum = _mm512_mask_add_pd(*sum, k, *sum, y);
        }
    }
    for (chunk, sum) in lanes.chunks_exact_mut(8).zip(sums) {
        // SAFETY: `chunk` holds 8 lanes.
        unsafe { _mm512_storeu_pd(chunk.as_mut_ptr(), sum) };
    }
    spread(&lanes, mean);
    for (sum, &n) in mean.iter_mut().zip(n_side) {
        *sum /= n as f64;
    }

    lanes[..n_t].copy_from_slice(&mean[..n_t]);
    lanes[16..16 + n_t].copy_from_slice(&mean[n_t..]);
    // SAFETY: `lanes` holds 4 × 8 lanes.
    let means: [__m512d; 4] =
        std::array::from_fn(|i| unsafe { _mm512_loadu_pd(lanes[8 * i..].as_ptr()) });
    let mut sqs = [zero; 4];
    for (&b, &y) in buckets.iter().zip(ys) {
        let y = _mm512_set1_pd(y);
        for ((sq, &mean), k) in sqs.iter_mut().zip(&means).zip(masks(b)) {
            let d = _mm512_sub_pd(y, mean);
            *sq = _mm512_mask_add_pd(*sq, k, *sq, _mm512_mul_pd(d, d));
        }
    }
    for (chunk, sq) in lanes.chunks_exact_mut(8).zip(sqs) {
        // SAFETY: `chunk` holds 8 lanes.
        unsafe { _mm512_storeu_pd(chunk.as_mut_ptr(), sq) };
    }
    spread(&lanes, sq);
}

/// The upper triangle of `XᵀX` and all of `Xᵀy` over the augmented rows
/// `[1, x_1 … x_d, y]` of `x` and `y`, written to `xtx` (`d + 1` rows of
/// `d + 1`) and `xty`, in registers: `false` (nothing written) unless the
/// CPU has AVX-512F and an augmented row fits one register (`d ≤ 6`).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn normal_equations(
    x: &Matrix,
    y: &[f64],
    xtx: &mut [Vec<f64>],
    xty: &mut [f64],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if x.n_cols() <= 6 && avx512f() {
        // SAFETY: the CPU has AVX-512F.
        let lanes = unsafe {
            match x.n_cols() {
                0 => ridge_avx512::<0>(x, y),
                1 => ridge_avx512::<1>(x, y),
                2 => ridge_avx512::<2>(x, y),
                3 => ridge_avx512::<3>(x, y),
                4 => ridge_avx512::<4>(x, y),
                5 => ridge_avx512::<5>(x, y),
                _ => ridge_avx512::<6>(x, y),
            }
        };
        let dim = x.n_cols() + 1;
        for (i, (row, lanes)) in xtx.iter_mut().zip(&lanes).enumerate() {
            row[i..].copy_from_slice(&lanes[i..dim]);
            xty[i] = lanes[dim];
        }
        return true;
    }
    false
}

/// The normal equations of `D` features with one accumulator register per
/// row `i` of `[XᵀX | Xᵀy]`: each training row is loaded once, as the
/// lanes `[1, x_1 … x_D, y]`, and accumulator `i` adds `broadcast(v_i) · v`
/// — a product, then an add (no fused multiply-add). Lane `j` of
/// accumulator `i` thus receives `v_i · v_j` from `+0.0` in ascending row
/// order, the addends and order of `linear`'s portable loop. Lanes below
/// the diagonal and above `D + 1` are summed and not read.
///
/// # Safety
///
/// Call only on a CPU that has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn ridge_avx512<const D: usize>(x: &Matrix, y: &[f64]) -> [[f64; 8]; 7] {
    use std::arch::x86_64::*;
    // Lanes `1..=D` take the row's cells, lane `D + 1` its target; lane 0
    // (and any lane above) keeps the `1.0` the row starts from.
    let cells = (((1u16 << D) - 1) << 1) as __mmask8;
    let target = (1u16 << (D + 1)) as __mmask8;
    let one = _mm512_set1_pd(1.0);
    let mut acc = [_mm512_set1_pd(0.0); 7];
    for (row, &t) in x.rows().zip(y) {
        let row: &[f64; D] = row.try_into().expect("a matrix row has n_cols cells");
        let v = _mm512_mask_mov_pd(one, target, _mm512_set1_pd(t));
        // SAFETY: the mask reads lanes `1..=D` only, which are `row[0..D]`;
        // the lane one cell before the row is masked off and not read.
        let v = unsafe { _mm512_mask_loadu_pd(v, cells, row.as_ptr().wrapping_sub(1)) };
        for (i, acc) in acc.iter_mut().enumerate().take(D + 1) {
            let a = if i == 0 {
                one
            } else {
                _mm512_set1_pd(row[i - 1])
            };
            *acc = _mm512_add_pd(*acc, _mm512_mul_pd(a, v));
        }
    }
    let mut lanes = [[0.0; 8]; 7];
    for (out, acc) in lanes.iter_mut().zip(acc) {
        // SAFETY: `out` holds 8 lanes.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), acc) };
    }
    lanes
}
