//! Linear models: ordinary least squares / ridge regression and logistic
//! regression.
//!
//! Ridge regression solves the normal equations with a Gaussian-elimination
//! solver (the feature counts in the MODis workloads are small); logistic
//! regression uses batch gradient descent. These power the LRavocado model
//! (task T3) and the logistic classifier.
//!
//! Every upper-triangle cell of `XᵀX` over the augmented rows
//! `[1, x_1 … x_d]`, and every cell of `Xᵀy`, receives its row products
//! from `0.0` in ascending row order — no pairwise or chunked sums, which
//! round differently — by one of two paths with the same bits:
//!
//! * **registers** (the private `simd` module), when the CPU has AVX-512F
//!   and the row `[1, x_1 … x_d, y]` fits one 8-lane register (`d ≤ 6`,
//!   every churn pool): each training row is read straight from the
//!   [`Matrix`] by one masked load, and each of the `d + 1` rows of
//!   `[XᵀX | Xᵀy]` is a `zmm` accumulator that adds `broadcast(v_i) · v`,
//!   a product then an add (no fused multiply-add);
//! * **portable** (`normal_equations`), everywhere else: the augmented rows
//!   are copied into one buffer and summed a block of eight cells at a
//!   time.
//!
//! The lower triangle is the mirrored upper one, and the ridge term, the
//! jitter and the solve are one tail both paths share.

use crate::ensemble;
use crate::matrix::Matrix;
use crate::simd;

/// Ridge regression fitted via normal equations.
#[derive(Debug, Clone)]
pub struct RidgeRegression {
    /// Learned weights (one per feature).
    pub weights: Vec<f64>,
    /// Learned intercept.
    pub intercept: f64,
    /// L2 regularisation strength used at fit time.
    pub alpha: f64,
}

/// Solves the dense linear system `A·x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` when the system is singular.
pub(crate) fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = a.len();
    if n == 0 || a.iter().any(|r| r.len() != n) || b.len() != n {
        return None;
    }
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        for r in (col + 1)..n {
            if a[r][col].abs() > a[pivot][col].abs() {
                pivot = r;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        let (upper, lower) = a.split_at_mut(col + 1);
        let pivot_row = &upper[col];
        let (b_upper, b_lower) = b.split_at_mut(col + 1);
        let b_pivot = b_upper[col];
        for (row, b_r) in lower.iter_mut().zip(b_lower.iter_mut()) {
            let factor = row[col] / pivot_row[col];
            for (v, &p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *v -= factor * p;
            }
            *b_r -= factor * b_pivot;
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in (col + 1)..n {
            acc -= a[col][c] * x[c];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// Cells of the normal equations the portable loop accumulates at once:
/// one accumulator each, over the rows.
const DOTS: usize = 8;

/// `Σ_r row_r[i] · row_r[start + k]` for the `DOTS` cells `k` of one block,
/// over the rows of width `width` laid out one after another in `rows`;
/// every sum starts at `0.0` and adds its rows in order.
fn dots(rows: &[f64], width: usize, i: usize, start: usize) -> [f64; DOTS] {
    let mut sums = [0.0; DOTS];
    for row in rows.chunks_exact(width) {
        let a = row[i];
        let block: &[f64; DOTS] = row[start..start + DOTS]
            .try_into()
            .expect("a block lies within its row");
        for (sum, &b) in sums.iter_mut().zip(block) {
            *sum += a * b;
        }
    }
    sums
}

/// The portable loop for the upper triangle of `XᵀX` and all of `Xᵀy`:
/// the augmented rows `[1, x_1 … x_d, y]` are copied into one buffer
/// (zero-padded to at least one block), and a block of `DOTS` cells of one
/// row `i` is summed at a time, over the block's contiguous slice of each
/// row. It runs where the register kernel does not (`d > 6`, or a CPU
/// without AVX-512F), and is what that kernel is tested against.
fn normal_equations(x: &Matrix, y: &[f64], xtx: &mut [Vec<f64>], xty: &mut [f64]) {
    let dim = x.n_cols() + 1;
    let width = (dim + 1).max(DOTS);
    let n = x.len().min(y.len());
    let mut aug = vec![0.0; n * width];
    for ((out, row), &target) in aug.chunks_exact_mut(width).zip(x.rows()).zip(y) {
        // Cell by cell: a `copy_from_slice` of a few cells is a `memcpy`
        // call per row.
        out[0] = 1.0;
        for (cell, &value) in out[1..dim].iter_mut().zip(row) {
            *cell = value;
        }
        out[dim] = target;
    }
    for i in 0..dim {
        let mut j = i;
        while j <= dim {
            // The last block of a row ends at the row's end; cells it
            // repeats from the block before are not stored again.
            let start = j.min(width - DOTS);
            let sums = dots(&aug, width, i, start);
            for (cell, sum) in (j..=dim).zip(&sums[j - start..]) {
                if cell == dim {
                    xty[i] = *sum;
                } else {
                    xtx[i][cell] = *sum;
                }
            }
            j = start + DOTS;
        }
    }
}

impl RidgeRegression {
    /// Fits ridge regression with regularisation strength `alpha`
    /// (`alpha = 0` gives OLS; the intercept is never regularised).
    pub fn fit(x: &Matrix, y: &[f64], alpha: f64) -> RidgeRegression {
        let d = x.n_cols();
        if x.is_empty() || d == 0 {
            let intercept = if y.is_empty() {
                0.0
            } else {
                y.iter().sum::<f64>() / y.len() as f64
            };
            return RidgeRegression {
                weights: vec![0.0; d],
                intercept,
                alpha,
            };
        }
        let dim = d + 1;
        let mut xtx = vec![vec![0.0; dim]; dim];
        let mut xty = vec![0.0; dim];
        if !simd::normal_equations(x, y, &mut xtx, &mut xty) {
            normal_equations(x, y, &mut xtx, &mut xty);
        }
        Self::solve(xtx, xty, alpha)
    }

    /// The tail both paths share, from the upper triangle of `XᵀX` and
    /// `Xᵀy`: `XᵀX` is symmetric and `a·b` has the bits of `b·a`, so the
    /// lower triangle is the mirrored upper one; then the ridge term, the
    /// jitter and the solve.
    fn solve(mut xtx: Vec<Vec<f64>>, xty: Vec<f64>, alpha: f64) -> RidgeRegression {
        let dim = xty.len();
        for i in 1..dim {
            let (above, below) = xtx.split_at_mut(i);
            for (cell, row) in below[0].iter_mut().zip(above.iter()) {
                *cell = row[i];
            }
        }
        for (i, row) in xtx.iter_mut().enumerate().skip(1) {
            row[i] += alpha;
        }
        // A tiny jitter keeps the system solvable for collinear features.
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-9;
        }
        let sol = solve_linear_system(xtx, xty).unwrap_or_else(|| vec![0.0; dim]);
        RidgeRegression {
            intercept: sol[0],
            weights: sol[1..].to_vec(),
            alpha,
        }
    }

    /// Predicts one sample.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        self.intercept
            + self
                .weights
                .iter()
                .zip(row.iter())
                .map(|(w, v)| w * v)
                .sum::<f64>()
    }

    /// Predicts a batch.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.rows().map(|r| self.predict_one(r)).collect()
    }
}

/// Binary / one-vs-rest logistic regression trained by gradient descent.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// One weight vector + intercept per class stage.
    stages: Vec<(Vec<f64>, f64)>,
    n_classes: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of gradient-descent epochs.
    pub epochs: usize,
}

impl LogisticRegression {
    /// Fits logistic regression for labels in `0..n_classes`.
    pub fn fit(x: &Matrix, y: &[f64], n_classes: usize, learning_rate: f64, epochs: usize) -> Self {
        let n_classes = n_classes.max(2);
        let d = x.n_cols();
        let n_stages = ensemble::stage_count(n_classes);
        // Standardise features for stable gradient descent.
        let (means, stds) = standardise_stats(x);
        let mut stages = Vec::with_capacity(n_stages);
        for c in 0..n_stages {
            let targets = ensemble::stage_targets(y, n_classes, c);
            let mut w = vec![0.0; d];
            let mut b = 0.0;
            if !x.is_empty() && d > 0 {
                for _ in 0..epochs {
                    let mut gw = vec![0.0; d];
                    let mut gb = 0.0;
                    for (row, &t) in x.rows().zip(targets.iter()) {
                        let z: f64 = b + w
                            .iter()
                            .enumerate()
                            .map(|(j, wj)| wj * ((row[j] - means[j]) / stds[j]))
                            .sum::<f64>();
                        let err = ensemble::sigmoid(z) - t;
                        for j in 0..d {
                            gw[j] += err * ((row[j] - means[j]) / stds[j]);
                        }
                        gb += err;
                    }
                    let scale = learning_rate / x.len() as f64;
                    for j in 0..d {
                        w[j] -= scale * gw[j];
                    }
                    b -= scale * gb;
                }
            }
            // Fold standardisation into the weights so prediction is direct.
            let mut folded_w = vec![0.0; d];
            let mut folded_b = b;
            for j in 0..d {
                folded_w[j] = w[j] / stds[j];
                folded_b -= w[j] * means[j] / stds[j];
            }
            stages.push((folded_w, folded_b));
        }
        LogisticRegression {
            stages,
            n_classes,
            learning_rate,
            epochs,
        }
    }

    /// Per-class probability scores for one sample.
    pub(crate) fn predict_scores_one(&self, row: &[f64]) -> Vec<f64> {
        ensemble::class_scores(&self.stages, self.n_classes, |(w, b)| {
            b + w.iter().zip(row.iter()).map(|(wj, v)| wj * v).sum::<f64>()
        })
    }

    /// Predicted class label for one sample.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        ensemble::label(&self.predict_scores_one(row))
    }

    /// Batch prediction.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.rows().map(|r| self.predict_one(r)).collect()
    }

    /// Batch per-class scores.
    pub fn predict_scores(&self, x: &Matrix) -> Vec<Vec<f64>> {
        x.rows().map(|r| self.predict_scores_one(r)).collect()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

fn standardise_stats(x: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let d = x.n_cols();
    let n = x.len().max(1) as f64;
    let mut means = vec![0.0; d];
    for row in x.rows() {
        for j in 0..d {
            means[j] += row[j];
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut stds = vec![0.0; d];
    for row in x.rows() {
        for j in 0..d {
            stds[j] += (row[j] - means[j]).powi(2);
        }
    }
    for s in &mut stds {
        *s = (*s / n).sqrt();
        if *s < 1e-9 {
            *s = 1.0;
        }
    }
    (means, stds)
}

/// `RidgeRegression::fit`, `LogisticRegression::fit` and the batch
/// predictions as they were on a `Vec` of row `Vec`s, bodies verbatim: the
/// oracle the differential tests compare the `Matrix` bodies with.
#[cfg(test)]
mod oracle {
    use super::{solve_linear_system, LogisticRegression, RidgeRegression};
    use crate::ensemble::sigmoid;

    pub fn ridge(x: &[Vec<f64>], y: &[f64], alpha: f64) -> RidgeRegression {
        let n = x.len();
        let d = x.first().map(|r| r.len()).unwrap_or(0);
        if n == 0 || d == 0 {
            let intercept = if y.is_empty() {
                0.0
            } else {
                y.iter().sum::<f64>() / y.len() as f64
            };
            return RidgeRegression {
                weights: vec![0.0; d],
                intercept,
                alpha,
            };
        }
        // Build augmented design: [1, x_1 … x_d].
        let dim = d + 1;
        let mut xtx = vec![vec![0.0; dim]; dim];
        let mut xty = vec![0.0; dim];
        for (row, &target) in x.iter().zip(y.iter()) {
            let mut aug = Vec::with_capacity(dim);
            aug.push(1.0);
            aug.extend_from_slice(row);
            for i in 0..dim {
                xty[i] += aug[i] * target;
                for j in 0..dim {
                    xtx[i][j] += aug[i] * aug[j];
                }
            }
        }
        for (i, row) in xtx.iter_mut().enumerate().skip(1) {
            row[i] += alpha;
        }
        // A tiny jitter keeps the system solvable for collinear features.
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-9;
        }
        let sol = solve_linear_system(xtx, xty).unwrap_or_else(|| vec![0.0; dim]);
        RidgeRegression {
            intercept: sol[0],
            weights: sol[1..].to_vec(),
            alpha,
        }
    }

    pub fn logistic(
        x: &[Vec<f64>],
        y: &[f64],
        n_classes: usize,
        learning_rate: f64,
        epochs: usize,
    ) -> LogisticRegression {
        let n_classes = n_classes.max(2);
        let d = x.first().map(|r| r.len()).unwrap_or(0);
        let n_stages = if n_classes == 2 { 1 } else { n_classes };
        // Standardise features for stable gradient descent.
        let (means, stds) = standardise_stats(x, d);
        let mut stages = Vec::with_capacity(n_stages);
        for c in 0..n_stages {
            let targets: Vec<f64> = y
                .iter()
                .map(|&v| {
                    let label = v.round() as usize;
                    let pos = if n_classes == 2 {
                        label == 1
                    } else {
                        label == c
                    };
                    if pos {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut w = vec![0.0; d];
            let mut b = 0.0;
            if !x.is_empty() && d > 0 {
                for _ in 0..epochs {
                    let mut gw = vec![0.0; d];
                    let mut gb = 0.0;
                    for (row, &t) in x.iter().zip(targets.iter()) {
                        let z: f64 = b + w
                            .iter()
                            .enumerate()
                            .map(|(j, wj)| wj * ((row[j] - means[j]) / stds[j]))
                            .sum::<f64>();
                        let err = sigmoid(z) - t;
                        for j in 0..d {
                            gw[j] += err * ((row[j] - means[j]) / stds[j]);
                        }
                        gb += err;
                    }
                    let scale = learning_rate / x.len() as f64;
                    for j in 0..d {
                        w[j] -= scale * gw[j];
                    }
                    b -= scale * gb;
                }
            }
            // Fold standardisation into the weights so prediction is direct.
            let mut folded_w = vec![0.0; d];
            let mut folded_b = b;
            for j in 0..d {
                folded_w[j] = w[j] / stds[j];
                folded_b -= w[j] * means[j] / stds[j];
            }
            stages.push((folded_w, folded_b));
        }
        LogisticRegression {
            stages,
            n_classes,
            learning_rate,
            epochs,
        }
    }

    fn standardise_stats(x: &[Vec<f64>], d: usize) -> (Vec<f64>, Vec<f64>) {
        let n = x.len().max(1) as f64;
        let mut means = vec![0.0; d];
        for row in x {
            for j in 0..d {
                means[j] += row[j];
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for row in x {
            for j in 0..d {
                stds[j] += (row[j] - means[j]).powi(2);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-9 {
                *s = 1.0;
            }
        }
        (means, stds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `n` rows of `d` columns cycling through the kinds the normal matrix
    /// treats differently: continuous, constant, a copy of column 0 (exactly
    /// collinear), all-zero, and magnitudes sixteen orders apart (a sum in
    /// another order rounds differently).
    fn design(g: &mut StdRng, n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = Vec::with_capacity(d);
                for j in 0..d {
                    row.push(match j % 5 {
                        0 => g.gen_range(-3.0..3.0),
                        1 => 2.5,
                        2 => row[0],
                        3 => 0.0,
                        _ => [1e8, -1e8, 1e-8, 0.5][g.gen_range(0..4usize)],
                    });
                }
                row
            })
            .collect()
    }

    const ROWS: [usize; 7] = [0, 1, 2, 3, 9, 40, 300];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One scratch row and half a normal matrix, mirrored, solve to the
        /// weights the per-row `aug` and the full matrix solved to, bit for
        /// bit — also for `n < d`, collinear, constant and all-zero columns.
        #[test]
        fn ridge_on_a_matrix_is_ridge_on_rows_bit_for_bit(
            seed in any::<u64>(),
            size in 0usize..7,
            d in 0usize..9,
            alpha in 0usize..3,
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let x = design(&mut g, ROWS[size], d);
            let y: Vec<f64> = x
                .iter()
                .map(|r| r.iter().sum::<f64>() + g.gen_range(-1.0..1.0))
                .collect();
            let alpha = [0.0, 1.0, 1000.0][alpha];
            let matrix = Matrix::from_rows(&x);
            let new = RidgeRegression::fit(&matrix, &y, alpha);
            let old = oracle::ridge(&x, &y, alpha);
            prop_assert_eq!(new.intercept.to_bits(), old.intercept.to_bits());
            prop_assert_eq!(bits(&new.weights), bits(&old.weights));
            let old_predictions: Vec<f64> = x.iter().map(|r| old.predict_one(r)).collect();
            prop_assert_eq!(bits(&new.predict(&matrix)), bits(&old_predictions));
        }
    }

    /// Designs whose augmented rows take several blocks of accumulators,
    /// the last one ending at the row's end and repeating cells of the one
    /// before: still the per-row oracle's bits.
    #[test]
    fn ridge_across_several_blocks_is_ridge_on_rows_bit_for_bit() {
        let mut g = StdRng::seed_from_u64(11);
        for d in [6, 7, 8, 9, 14, 15, 16, 23] {
            for n in [1, 9, 40, 300] {
                let x = design(&mut g, n, d);
                let y: Vec<f64> = x.iter().map(|r| r[0] + g.gen_range(-1.0..1.0)).collect();
                let new = RidgeRegression::fit(&Matrix::from_rows(&x), &y, 1.0);
                let old = oracle::ridge(&x, &y, 1.0);
                assert_eq!(
                    new.intercept.to_bits(),
                    old.intercept.to_bits(),
                    "d {d} n {n}"
                );
                assert_eq!(bits(&new.weights), bits(&old.weights), "d {d} n {n}");
            }
        }
    }

    /// A cell of the kernel test: signed zeros, subnormals, small integers
    /// and uniform draws, and unless `tame`, the values whose products
    /// overflow (`±1e154`) or propagate (`±inf`, NaN).
    fn awkward(g: &mut StdRng, tame: bool) -> f64 {
        let inf = f64::INFINITY;
        let special = [
            -0.0,
            0.0,
            5e-324,
            -1e-310,
            1e154,
            -1e154,
            inf,
            -inf,
            f64::NAN,
        ];
        match g.gen_range(0..4usize) {
            0 => special[g.gen_range(0..if tame { 4usize } else { 9 })],
            1 => g.gen_range(-3..4) as f64,
            _ => g.gen_range(-8.0..8.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The register kernel writes every cell of `XᵀX` and `Xᵀy` the
        /// portable loop writes, on `to_bits` — signed zeros, subnormals,
        /// overflowing products and infinities included — and both solve
        /// to the same intercept and weights. A NaN cell must be NaN on
        /// both sides, but its sign and payload are left to the compiler
        /// (which operand of an add it propagates; the portable loop's own
        /// debug and release builds differ there).
        #[test]
        fn register_kernel_sums_what_the_portable_loop_sums(
            seed in any::<u64>(),
            d in 0usize..7,
            size in 0usize..10,
        ) {
            let n = [0, 1, 2, 7, 8, 9, 63, 64, 65, 300][size];
            let mut g = StdRng::seed_from_u64(seed);
            let tame = seed.is_multiple_of(2);
            // `d` columns also without rows.
            let mut x = Matrix::with_capacity(n, d);
            for _ in 0..n {
                x.push_row(&(0..d).map(|_| awkward(&mut g, tame)).collect::<Vec<_>>());
            }
            let y: Vec<f64> = (0..n).map(|_| awkward(&mut g, tame)).collect();
            let dim = d + 1;
            let (mut xtx, mut xty) = (vec![vec![0.0; dim]; dim], vec![0.0; dim]);
            if !simd::normal_equations(&x, &y, &mut xtx, &mut xty) {
                println!("register kernel not tested: this CPU lacks AVX-512F");
                return;
            }
            let (mut want_xtx, mut want_xty) = (vec![vec![0.0; dim]; dim], vec![0.0; dim]);
            normal_equations(&x, &y, &mut want_xtx, &mut want_xty);
            let cells = |v: &[f64]| -> Vec<Option<u64>> {
                v.iter().map(|x| Some(x.to_bits()).filter(|_| !x.is_nan())).collect()
            };
            let matrix = |m: &[Vec<f64>]| m.iter().map(|r| cells(r)).collect::<Vec<_>>();
            prop_assert_eq!(matrix(&xtx), matrix(&want_xtx));
            prop_assert_eq!(cells(&xty), cells(&want_xty));
            let new = RidgeRegression::solve(xtx, xty, 1.0);
            let old = RidgeRegression::solve(want_xtx, want_xty, 1.0);
            prop_assert_eq!(cells(&[new.intercept]), cells(&[old.intercept]));
            prop_assert_eq!(cells(&new.weights), cells(&old.weights));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Two and three classes: stages, batch predictions and scores.
        #[test]
        fn logistic_on_a_matrix_is_logistic_on_rows_bit_for_bit(
            seed in any::<u64>(),
            size in 0usize..6,
            d in 0usize..7,
            n_classes in 2usize..4,
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let x = design(&mut g, ROWS[size], d);
            let y: Vec<f64> = x.iter().map(|_| g.gen_range(0..n_classes) as f64).collect();
            let matrix = Matrix::from_rows(&x);
            let new = LogisticRegression::fit(&matrix, &y, n_classes, 0.3, 25);
            let old = oracle::logistic(&x, &y, n_classes, 0.3, 25);
            prop_assert_eq!(new.stages.len(), old.stages.len());
            for ((new_w, new_b), (old_w, old_b)) in new.stages.iter().zip(&old.stages) {
                prop_assert_eq!(bits(new_w), bits(old_w));
                prop_assert_eq!(new_b.to_bits(), old_b.to_bits());
            }
            let old_labels: Vec<f64> = x.iter().map(|r| old.predict_one(r)).collect();
            prop_assert_eq!(bits(&new.predict(&matrix)), bits(&old_labels));
            for (new_scores, row) in new.predict_scores(&matrix).iter().zip(&x) {
                prop_assert_eq!(bits(new_scores), bits(&old.predict_scores_one(row)));
            }
        }
    }

    #[test]
    fn solve_linear_system_known_solution() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve_linear_system(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_linear_system_singular_returns_none() {
        let a = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        assert!(solve_linear_system(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn ols_recovers_linear_coefficients() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 + 2.0 * r[0] - 0.5 * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let m = RidgeRegression::fit(&x, &y, 0.0);
        assert!((m.intercept - 3.0).abs() < 1e-6);
        assert!((m.weights[0] - 2.0).abs() < 1e-6);
        assert!((m.weights[1] + 0.5).abs() < 1e-6);
        assert!(r2(&y, &m.predict(&x)) > 0.999);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 4.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let ols = RidgeRegression::fit(&x, &y, 0.0);
        let ridge = RidgeRegression::fit(&x, &y, 1000.0);
        assert!(ridge.weights[0].abs() < ols.weights[0].abs());
    }

    #[test]
    fn ridge_on_empty_input() {
        let m = RidgeRegression::fit(&Matrix::default(), &[], 1.0);
        assert_eq!(m.predict_one(&[]), 0.0);
    }

    #[test]
    fn logistic_binary_separates_classes() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 5.0 { 1.0 } else { 0.0 })
            .collect();
        let x = Matrix::from_rows(&rows);
        let m = LogisticRegression::fit(&x, &y, 2, 0.5, 300);
        assert!(accuracy(&y, &m.predict(&x)) > 0.9);
        let s = m.predict_scores_one(&[9.0]);
        assert!(s[1] > 0.8);
    }

    #[test]
    fn logistic_multiclass() {
        let rows: Vec<Vec<f64>> = (0..90).map(|i| vec![(i % 30) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] / 10.0).floor()).collect();
        let x = Matrix::from_rows(&rows);
        let m = LogisticRegression::fit(&x, &y, 3, 0.5, 400);
        assert!(accuracy(&y, &m.predict(&x)) > 0.8);
        assert_eq!(m.n_classes(), 3);
    }
}
