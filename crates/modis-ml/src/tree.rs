//! CART decision trees (regression and classification).
//!
//! The substrate for the paper's downstream models (random forest, gradient
//! boosting, LightGBM-style classifier) and the MO-GBM estimator. Trees use
//! variance reduction (regression) or Gini impurity (classification) and
//! split on thresholds drawn from sorted unique feature values.
//!
//! # Training kernel
//!
//! Every model in this crate that grows trees goes through one split
//! search, `TreeBuilder`, over one layout, `Columns`:
//!
//! * **Layout.** `Columns` is the row-major design [`Matrix`] transposed
//!   once per fit by `Columns::from_matrix` (feature `f` is one contiguous
//!   slice), the rank of every cell within its feature — the one sort a
//!   fit makes per feature; cells that compare equal (`0.0` and `-0.0`)
//!   share a rank — plus a flag per feature saying whether its cells differ
//!   at all: a constant column is never a candidate. A boosted model
//!   transposes and ranks `x` once and shares the `Columns` across all its
//!   rounds, one-vs-rest stages and (for `MultiOutputGbm`) outputs, and
//!   reads its training-row predictions back from them; a forest does so
//!   once and gathers each tree's bootstrap rows from it, ranks copied
//!   along with the cells (ranks order cells; they need not be dense). The
//!   builder owns every scratch buffer, so a node allocates nothing per
//!   feature or per threshold.
//! * **One pass per feature, no sort per node.** A node's rows mark their
//!   ranks in a bitset, in ascending row order, and the first cell seen
//!   with a rank represents it — the cell a stable sort followed by `dedup`
//!   would keep, which matters for the sign of a zero. Walking the set bits
//!   yields the node's distinct cells in ascending order; from them come
//!   the ≤ `max_thresholds` candidate thresholds, one merge of the two
//!   ascending lists bounds every distinct cell by the run of thresholds it
//!   lies right (`>`) and left (`<=`) of, and one pass over the rows looks
//!   each row's bounds up under its rank and histograms it. All thresholds
//!   are then scored together without materialising a `left`/`right` index
//!   list.
//! * **The one retained branch: a column holding a NaN cell** is left
//!   unranked and is sorted node by node as before (`sort_by`, `dedup`, two
//!   binary searches per row). `partial_cmp` is no total order there, so
//!   what `sort_by` leaves depends on the order it met the cells in and
//!   cannot be reproduced from ranks. A NaN cell lies on neither side of
//!   any threshold. `encode_view` imputes, so no product fit takes this
//!   branch; the differential tests do.
//! * **Bit-identity, not closeness.** The fitted tree — feature, threshold
//!   bits, leaf bits, importance bits — is a function of the order in
//!   which floats are added. Under `Mse` every threshold therefore keeps
//!   *its own* left and right accumulator, and each accumulator receives
//!   exactly the targets of its rows in ascending row order, starting from
//!   `Iterator::sum`'s identity: pass 1 the sums, pass 2 the squared
//!   deviations from each side's own mean. The accumulators of the `T`
//!   thresholds lie in one slice, `[left 0..T | right 0..T]`: a row left of
//!   thresholds `hi..` and right of thresholds `..lo` (always `lo <= hi`)
//!   feeds exactly the contiguous run `hi..T + lo` — `T` accumulators for
//!   every row that no NaN touches, which for the default `T = 16` is a
//!   fixed-size array the compiler turns into vector adds. The layout
//!   changes which accumulators are neighbours, not what any one of them is
//!   fed or in which order, so no bit moves; a NaN cell, the NaN midpoint
//!   of `-inf` and `+inf` and the one-threshold-at-a-time path are the same
//!   run, shorter. A prefix-sum sweep over the sorted cells would add the
//!   same numbers in another order and round differently, so it is not
//!   allowed for floats. Under `Gini` the sides are integer class counts,
//!   which are exact in any order: rows are histogrammed per threshold run
//!   and class and the histogram is prefix-summed; the squared shares are
//!   then added in ascending class order over a dense class table (no hash
//!   map, no iteration-order dependence). Candidates are rejected by
//!   `min_samples_leaf` before they are scored, compared with a strict
//!   `score < best` in feature-then-threshold order (first wins), and the
//!   per-node feature draws happen in pre-order.
//! * **How to check it.** `bench_e2e` prints a `references=` digest of
//!   every skyline it returns; a change to this kernel that moves any
//!   digest changed a model. The unit tests compare every fitted node with
//!   the per-threshold index-list search this kernel replaced, kept as a
//!   test-only oracle (`oracle`), on `f64::to_bits`.

use std::cmp::Ordering;

use crate::matrix::Matrix;

/// Split criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Variance reduction (regression).
    Mse,
    /// Gini impurity (classification).
    Gini,
}

/// Hyper-parameters for a single tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum number of samples in a leaf.
    pub min_samples_leaf: usize,
    /// Number of candidate thresholds per feature (quantile-based); 0 means
    /// every midpoint between consecutive unique values.
    pub max_thresholds: usize,
    /// Split criterion.
    pub criterion: Criterion,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_thresholds: 16,
            criterion: Criterion::Mse,
        }
    }
}

/// A tree node, either an internal split or a leaf prediction.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    params: TreeParams,
    n_features: usize,
    feature_importance: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree on the full feature set.
    pub fn fit(x: &Matrix, y: &[f64], params: TreeParams) -> DecisionTree {
        Self::fit_with_features(x, y, params, None, 0)
    }

    /// Fits a tree considering only a random subset of `max_features`
    /// features at each split (used by random forests). `seed` makes the
    /// randomness deterministic.
    pub fn fit_with_features(
        x: &Matrix,
        y: &[f64],
        params: TreeParams,
        max_features: Option<usize>,
        seed: u64,
    ) -> DecisionTree {
        TreeBuilder::default().fit(&Columns::from_matrix(x), y, params, max_features, seed)
    }

    /// The leaf value reached by the sample whose feature `f` reads
    /// `cell(f)`.
    fn descend(&self, cell: impl Fn(usize) -> f64) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if cell(*feature) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predicts a single sample (a feature the row lacks reads 0).
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        self.descend(|f| row.get(f).copied().unwrap_or(0.0))
    }

    /// Predicts row `i` of the matrix `cols` was transposed from.
    pub(crate) fn predict_row(&self, cols: &Columns, i: usize) -> f64 {
        self.descend(|f| cols.column(f)[i])
    }

    /// Predicts a batch of samples.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.rows().map(|r| self.predict_one(r)).collect()
    }

    /// Number of features seen at fit time.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total impurity decrease attributed to each feature (unnormalised).
    pub fn feature_importance(&self) -> &[f64] {
        &self.feature_importance
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn depth_of(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth_of(left).max(depth_of(right)),
            }
        }
        depth_of(&self.root)
    }

    /// Tree parameters used at fit time.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }
}

/// A design [`Matrix`] transposed once: feature `f` is one contiguous slice.
///
/// Built once per fit and shared by every tree of a boosted model (all
/// rounds, stages and outputs); a forest gathers each tree's bootstrap
/// sample from it. See the module documentation.
pub(crate) struct Columns {
    n_rows: usize,
    n_features: usize,
    /// Feature `f` occupies `data[f * n_rows..(f + 1) * n_rows]`.
    data: Vec<f64>,
    /// The rank of every cell within its feature, laid out like `data`:
    /// `rank[a] < rank[b]` exactly when `cell[a] < cell[b]`, and cells that
    /// compare equal (`0.0` and `-0.0`) share a rank. Ranks order cells;
    /// they need not be dense (a gathered sample keeps its source's).
    ranks: Vec<u32>,
    /// Per feature, one more than its largest possible rank; 0 for a
    /// feature holding a NaN cell, which has no order to rank by and is
    /// sorted per node instead.
    rank_space: Vec<usize>,
    /// Whether feature `f` has a cell that differs from its first cell. A
    /// feature that does not has fewer than two distinct values at every
    /// node and is never a split candidate. (A NaN cell differs from
    /// itself, so such a column is left to the per-node check.)
    varies: Vec<bool>,
}

impl Columns {
    /// Transposes row-major `x` and ranks every NaN-free feature: the one
    /// sort a fit makes per feature.
    pub(crate) fn from_matrix(x: &Matrix) -> Columns {
        let (n_rows, n_features) = (x.len(), x.n_cols());
        assert!(
            u32::try_from(n_rows).is_ok(),
            "a rank is a u32: at most u32::MAX rows"
        );
        let mut data = Vec::with_capacity(n_rows * n_features);
        for f in 0..n_features {
            data.extend(x.rows().map(|r| r[f]));
        }
        let mut ranks = vec![0; data.len()];
        let mut order: Vec<u32> = Vec::with_capacity(n_rows);
        let rank_space = (0..n_features)
            .map(|f| {
                let span = f * n_rows..(f + 1) * n_rows;
                rank_column(&data[span.clone()], &mut order, &mut ranks[span])
            })
            .collect();
        Columns::new(n_rows, n_features, data, ranks, rank_space)
    }

    /// Number of rows of the transposed matrix.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The sample `rows` (repeats allowed, order kept) as columns of its
    /// own. Ranks are copied with their cells, so nothing is sorted.
    pub(crate) fn gather(&self, rows: &[usize]) -> Columns {
        let mut data = Vec::with_capacity(rows.len() * self.n_features);
        let mut ranks = Vec::with_capacity(rows.len() * self.n_features);
        for f in 0..self.n_features {
            let (col, col_ranks) = (self.column(f), self.column_ranks(f));
            data.extend(rows.iter().map(|&r| col[r]));
            ranks.extend(rows.iter().map(|&r| col_ranks[r]));
        }
        Columns::new(
            rows.len(),
            self.n_features,
            data,
            ranks,
            self.rank_space.clone(),
        )
    }

    fn new(
        n_rows: usize,
        n_features: usize,
        data: Vec<f64>,
        ranks: Vec<u32>,
        rank_space: Vec<usize>,
    ) -> Columns {
        let varies = (0..n_features)
            .map(|f| {
                let col = &data[f * n_rows..(f + 1) * n_rows];
                col.iter().any(|&v| v != col[0])
            })
            .collect();
        Columns {
            n_rows,
            n_features,
            data,
            ranks,
            rank_space,
            varies,
        }
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.data[f * self.n_rows..(f + 1) * self.n_rows]
    }

    fn column_ranks(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Writes the dense rank of every cell of `col` into `ranks` and returns
/// the number of ranks; leaves `ranks` alone and returns 0 when a cell is
/// NaN. `order` is scratch.
fn rank_column(col: &[f64], order: &mut Vec<u32>, ranks: &mut [u32]) -> usize {
    if col.iter().any(|v| v.is_nan()) {
        return 0;
    }
    #[cfg(test)]
    COLUMNS_RANKED.with(|c| c.set(c.get() + 1));
    order.clear();
    order.extend(0..col.len() as u32);
    // Without NaN `total_cmp` is `partial_cmp` refined by the sign of zero,
    // so cells that compare equal end up adjacent.
    order.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
    let mut rank = 0;
    for (at, &row) in order.iter().enumerate() {
        if at > 0 && col[row as usize] != col[order[at - 1] as usize] {
            rank += 1;
        }
        ranks[row as usize] = rank;
    }
    rank as usize + 1
}

/// Hands `run` to `body`, as a fixed-size array when it is as long as the
/// default `max_thresholds` — the run of every row of a product fit — so
/// that the compiler unrolls `body`'s loop into vector adds.
#[inline(always)]
fn on_run(run: &mut [f64], body: impl Fn(&mut [f64])) {
    match <&mut [f64; 16]>::try_from(&mut *run) {
        Ok(fixed) => body(fixed),
        Err(_) => body(run),
    }
}

fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// Gini impurity of a side holding `n` rows with the given per-class
/// counts, the squared shares added in ascending class order.
fn gini(counts: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| (c as f64 / n).powi(2))
        .sum::<f64>()
}

/// The split search and every buffer it needs, reusable across fits.
///
/// A fitted tree depends only on the arguments of [`TreeBuilder::fit`]; the
/// builder carries scratch space, never state, from one fit to the next.
#[derive(Default)]
pub(crate) struct TreeBuilder {
    /// Row ids; a node owns a contiguous range, in ascending sample order.
    rows: Vec<usize>,
    /// The right child's rows while a range is being partitioned.
    spill: Vec<usize>,
    /// Distinct class labels of the fit in ascending order (`Gini`; a
    /// single pseudo-class under `Mse`, which makes the counts row counts).
    labels: Vec<i64>,
    /// Index into `labels` of every row of the fit.
    class_of_row: Vec<usize>,
    /// Candidate features of the current node.
    features: Vec<usize>,
    /// Targets and class indices of the current node's rows.
    ys: Vec<f64>,
    cls: Vec<usize>,
    node_counts: Vec<usize>,
    /// The current feature's distinct cells at the node in ascending order
    /// and the candidate thresholds derived from them.
    distinct: Vec<f64>,
    thresholds: Vec<f64>,
    /// Ranked feature. A bit per rank present at the node; per present
    /// rank the first cell seen with it, and the thresholds it lies right
    /// (`..lo`) and left (`hi..`) of as `[lo, hi]`; the present ranks in
    /// ascending order.
    seen: Vec<u64>,
    first_cell: Vec<f64>,
    rank_bounds: Vec<[u32; 2]>,
    present: Vec<u32>,
    /// Unranked feature: its cells at the node's rows.
    xs: Vec<f64>,
    /// Per row `[lo, hi]`: it lies right of thresholds `..lo` and left of
    /// `hi..`.
    bounds: Vec<[u32; 2]>,
    /// Per threshold (and class): rows on its left / right. `cnt_l` block
    /// `j` and `cnt_r` block `j + 1` belong to threshold `j`.
    cnt_l: Vec<usize>,
    cnt_r: Vec<usize>,
    /// The accumulators of the `T` thresholds scored together, laid out
    /// `[left 0..T | right 0..T]`: row counts, and under `Mse` each side's
    /// sum (then mean) of targets and its sum of squared deviations.
    n_side: Vec<usize>,
    mean: Vec<f64>,
    sq: Vec<f64>,
}

impl TreeBuilder {
    /// Fits one tree on `cols` against `y[..cols.n_rows]`; the arguments
    /// mean what they mean to [`DecisionTree::fit_with_features`].
    pub(crate) fn fit(
        &mut self,
        cols: &Columns,
        y: &[f64],
        params: TreeParams,
        max_features: Option<usize>,
        seed: u64,
    ) -> DecisionTree {
        let n = cols.n_rows;
        let mut importance = vec![0.0; cols.n_features];
        let root = if n == 0 {
            Node::Leaf { value: 0.0 }
        } else {
            let y = &y[..n];
            self.rows.clear();
            self.rows.extend(0..n);
            self.labels.clear();
            self.class_of_row.clear();
            match params.criterion {
                Criterion::Mse => {
                    self.labels.push(0);
                    self.class_of_row.resize(n, 0);
                }
                Criterion::Gini => {
                    let label = |v: f64| v.round() as i64;
                    for &v in y {
                        if let Err(at) = self.labels.binary_search(&label(v)) {
                            self.labels.insert(at, label(v));
                        }
                    }
                    let labels = &self.labels;
                    self.class_of_row.extend(y.iter().map(|&v| {
                        labels
                            .binary_search(&label(v))
                            .expect("every label is in the table")
                    }));
                }
            }
            Fit {
                cols,
                y,
                params,
                max_features,
                rng_state: seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(0xD1B54A32D192ED03),
                importance: &mut importance,
                s: self,
            }
            .node(0, n, 0)
        };
        DecisionTree {
            root,
            params,
            n_features: cols.n_features,
            feature_importance: importance,
        }
    }
}

/// One fit in progress: its inputs, its RNG and the builder's scratch.
struct Fit<'a> {
    cols: &'a Columns,
    y: &'a [f64],
    params: TreeParams,
    max_features: Option<usize>,
    rng_state: u64,
    importance: &'a mut [f64],
    s: &'a mut TreeBuilder,
}

impl Fit<'_> {
    /// Builds the subtree over `rows[lo..hi]`, pre-order.
    fn node(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let n = hi - lo;
        let (node_impurity, value) = self.node_stats(lo, hi);
        if depth >= self.params.max_depth
            || n < self.params.min_samples_split
            || node_impurity < 1e-12
            || self.cols.n_features == 0
        {
            return Node::Leaf { value };
        }
        self.draw_features();
        match self.best_split(lo, hi) {
            Some((feature, threshold, score)) if score < node_impurity - 1e-12 => {
                self.importance[feature] += (node_impurity - score) * n as f64;
                let (n_left, n_right) = self.partition(lo, hi, feature, threshold);
                let mid = lo + n_left;
                let left = self.node(lo, mid, depth + 1);
                let right = self.node(mid, mid + n_right, depth + 1);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
            _ => Node::Leaf { value },
        }
    }

    /// Gathers the node's targets and classes, and returns its impurity and
    /// its leaf prediction: mean (regression) or majority class, the
    /// smallest label among equals (classification).
    fn node_stats(&mut self, lo: usize, hi: usize) -> (f64, f64) {
        let s = &mut *self.s;
        let rows = &s.rows[lo..hi];
        s.ys.clear();
        s.ys.extend(rows.iter().map(|&r| self.y[r]));
        s.cls.clear();
        s.cls.extend(rows.iter().map(|&r| s.class_of_row[r]));
        let n = rows.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        match self.params.criterion {
            Criterion::Mse => {
                let mean = s.ys.iter().sum::<f64>() / n as f64;
                let impurity = s.ys.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / n as f64;
                (impurity, mean)
            }
            Criterion::Gini => {
                s.node_counts.clear();
                s.node_counts.resize(s.labels.len(), 0);
                for &c in &s.cls {
                    s.node_counts[c] += 1;
                }
                let mut majority = 0;
                for (c, &count) in s.node_counts.iter().enumerate() {
                    if count > s.node_counts[majority] {
                        majority = c;
                    }
                }
                (gini(&s.node_counts, n), s.labels[majority] as f64)
            }
        }
    }

    /// Chooses the node's candidate features (all, or a partial
    /// Fisher-Yates draw of `max_features`).
    fn draw_features(&mut self) {
        let n_features = self.cols.n_features;
        let features = &mut self.s.features;
        features.clear();
        features.extend(0..n_features);
        if let Some(k) = self.max_features {
            let k = k.min(n_features).max(1);
            for i in 0..k {
                let j = i + (next_rand(&mut self.rng_state) as usize % (n_features - i));
                features.swap(i, j);
            }
            features.truncate(k);
        }
    }

    /// The admissible `(feature, threshold, weighted impurity)` of lowest
    /// score over the node's candidate features; the first one among equals.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64, f64)> {
        let n = hi - lo;
        let min_leaf = self.params.min_samples_leaf;
        let n_classes = self.s.labels.len();
        let mse = |sq: f64, n: usize| if n == 0 { 0.0 } else { sq / n as f64 };
        let mut best: Option<(usize, f64, f64)> = None;
        for at in 0..self.s.features.len() {
            let f = self.s.features[at];
            if !self.cols.varies[f] {
                continue;
            }
            if self.cols.rank_space[f] > 0 {
                self.distinct_by_rank(f, lo, hi);
            } else {
                self.distinct_by_sort(f, lo, hi);
            }
            if !self.candidate_thresholds() {
                continue;
            }
            // Thresholds in ascending order are scored together. A NaN among
            // them (a NaN cell, or the midpoint of -inf and +inf) breaks the
            // order every row is bucketed against; then one at a time.
            let n_thresholds = self.s.thresholds.len();
            let ordered = self.s.thresholds.windows(2).all(|w| w[0] <= w[1]);
            let step = if ordered { n_thresholds } else { 1 };
            for start in (0..n_thresholds).step_by(step) {
                self.bucket_rows(f, lo, hi, start, start + step);
                self.score_thresholds(step);
                let s = &*self.s;
                for j in 0..step {
                    let (n_l, n_r) = (s.n_side[j], s.n_side[step + j]);
                    if n_l < min_leaf || n_r < min_leaf {
                        continue;
                    }
                    let (impurity_l, impurity_r) = match self.params.criterion {
                        Criterion::Mse => (mse(s.sq[j], n_l), mse(s.sq[step + j], n_r)),
                        Criterion::Gini => (
                            gini(&s.cnt_l[j * n_classes..][..n_classes], n_l),
                            gini(&s.cnt_r[(j + 1) * n_classes..][..n_classes], n_r),
                        ),
                    };
                    let wl = n_l as f64 / n as f64;
                    let wr = 1.0 - wl;
                    let score = wl * impurity_l + wr * impurity_r;
                    if best.map(|(_, _, b)| score < b).unwrap_or(true) {
                        best = Some((f, s.thresholds[start + j], score));
                    }
                }
            }
        }
        best
    }

    /// Fills `distinct` with ranked feature `f`'s distinct cells at the node,
    /// ascending, and `present` with their ranks: the node's rows mark
    /// their ranks in a bitset in ascending row order, the first cell seen
    /// with a rank represents it (the cell a stable sort followed by
    /// `dedup` keeps), and the set bits are walked in order.
    fn distinct_by_rank(&mut self, f: usize, lo: usize, hi: usize) {
        let s = &mut *self.s;
        let (col, ranks) = (self.cols.column(f), self.cols.column_ranks(f));
        let rank_space = self.cols.rank_space[f];
        s.seen.clear();
        s.seen.resize(rank_space.div_ceil(64), 0);
        if s.first_cell.len() < rank_space {
            s.first_cell.resize(rank_space, 0.0);
            s.rank_bounds.resize(rank_space, [0, 0]);
        }
        for &row in &s.rows[lo..hi] {
            let rank = ranks[row] as usize;
            let (word, bit) = (&mut s.seen[rank / 64], 1u64 << (rank % 64));
            if *word & bit == 0 {
                *word |= bit;
                s.first_cell[rank] = col[row];
            }
        }
        s.present.clear();
        s.distinct.clear();
        for (at, &word) in s.seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let rank = at * 64 + bits.trailing_zeros() as usize;
                s.present.push(rank as u32);
                s.distinct.push(s.first_cell[rank]);
                bits &= bits - 1;
            }
        }
    }

    /// Fills `distinct` with unranked feature `f`'s distinct cells at the
    /// node and `xs` with its cell per row. A NaN cell makes the comparator
    /// no total order; what `sort_by` then leaves cannot be told from
    /// ranks, so this column is sorted node by node.
    fn distinct_by_sort(&mut self, f: usize, lo: usize, hi: usize) {
        let s = &mut *self.s;
        let col = self.cols.column(f);
        s.xs.clear();
        s.xs.extend(s.rows[lo..hi].iter().map(|&r| col[r]));
        s.distinct.clear();
        s.distinct.extend_from_slice(&s.xs);
        s.distinct
            .sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        s.distinct.dedup();
    }

    /// Derives the candidate thresholds from `distinct`; `false` when the
    /// node sees fewer than two distinct values.
    fn candidate_thresholds(&mut self) -> bool {
        let s = &mut *self.s;
        let vals = &s.distinct;
        if vals.len() < 2 {
            return false;
        }
        let max_thresholds = self.params.max_thresholds;
        s.thresholds.clear();
        if max_thresholds == 0 || vals.len() <= max_thresholds {
            s.thresholds
                .extend(vals.windows(2).map(|w| (w[0] + w[1]) / 2.0));
        } else {
            s.thresholds.extend((1..=max_thresholds).map(|i| {
                let q = i as f64 / (max_thresholds as f64 + 1.0);
                let idx = ((vals.len() - 1) as f64 * q).round() as usize;
                vals[idx]
            }));
        }
        true
    }

    /// For `thresholds[from..to]` — ascending, or a single one — finds
    /// every row's `[lo, hi]` and histograms the rows, by class, under
    /// both. A row is right of the thresholds below its cell and left of
    /// those at or above it; a NaN cell (or threshold) is on neither side,
    /// which is why "not left of" is spelt `!(x <= t)` and not `x > t`.
    fn bucket_rows(&mut self, f: usize, lo: usize, hi: usize, from: usize, to: usize) {
        let s = &mut *self.s;
        let ts = &s.thresholds[from..to];
        let n_classes = s.labels.len();
        for cnt in [&mut s.cnt_l, &mut s.cnt_r] {
            cnt.clear();
            cnt.resize((ts.len() + 1) * n_classes, 0);
        }
        s.bounds.clear();
        let mut record = |bounds: [u32; 2], class: usize| {
            s.cnt_l[bounds[1] as usize * n_classes + class] += 1;
            s.cnt_r[bounds[0] as usize * n_classes + class] += 1;
            s.bounds.push(bounds);
        };
        if self.cols.rank_space[f] > 0 {
            // Cells and thresholds both ascend: one merge bounds every
            // distinct cell, and a row reads its bounds under its rank.
            let (mut below, mut not_above) = (0, 0);
            for (&rank, &x) in s.present.iter().zip(&s.distinct) {
                while below < ts.len() && x > ts[below] {
                    below += 1;
                }
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                while not_above < ts.len() && !(x <= ts[not_above]) {
                    not_above += 1;
                }
                s.rank_bounds[rank as usize] = [below as u32, not_above as u32];
            }
            let ranks = self.cols.column_ranks(f);
            for (&row, &class) in s.rows[lo..hi].iter().zip(&s.cls) {
                record(s.rank_bounds[ranks[row] as usize], class);
            }
        } else {
            for (&x, &class) in s.xs.iter().zip(&s.cls) {
                let below = ts.partition_point(|&t| x > t);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let not_above = ts.partition_point(|&t| !(x <= t));
                record([below as u32, not_above as u32], class);
            }
        }
    }

    /// Fills, for the `n_t` thresholds `bucket_rows` bucketed against, the
    /// row (and class) counts of both sides and, under `Mse`, both sides'
    /// sums of squared deviations.
    fn score_thresholds(&mut self, n_t: usize) {
        let s = &mut *self.s;
        let n_classes = s.labels.len();

        // Integer counts are exact in any order: sweep the histograms.
        for at in n_classes..(n_t + 1) * n_classes {
            s.cnt_l[at] += s.cnt_l[at - n_classes];
        }
        for at in (0..n_t * n_classes).rev() {
            s.cnt_r[at] += s.cnt_r[at + n_classes];
        }
        let total = |block: &[usize]| block.iter().sum::<usize>();
        s.n_side.clear();
        s.n_side
            .extend(s.cnt_l.chunks(n_classes).take(n_t).map(total));
        s.n_side
            .extend(s.cnt_r.chunks(n_classes).skip(1).map(total));

        if self.params.criterion != Criterion::Mse {
            return;
        }

        // Float sums are not: every threshold's two sides get their own
        // accumulator, fed in ascending row order from `sum`'s identity. A
        // row feeds the left side of thresholds `hi..` and the right side
        // of `..lo`, and `lo <= hi`: in the `[left | right]` layout that is
        // the one run `hi..n_t + lo`.
        let zero: f64 = std::iter::empty::<f64>().sum();
        for acc in [&mut s.mean, &mut s.sq] {
            acc.clear();
            acc.resize(2 * n_t, zero);
        }
        let (mean, sq) = (&mut s.mean[..], &mut s.sq[..]);
        let rows = || s.bounds.iter().zip(&s.ys);
        for (&[lo, hi], &y) in rows() {
            on_run(&mut mean[hi as usize..n_t + lo as usize], |sums| {
                for sum in sums {
                    *sum += y;
                }
            });
        }
        for (sum, &n) in mean.iter_mut().zip(&s.n_side) {
            *sum /= n as f64;
        }
        for (&[lo, hi], &y) in rows() {
            let run = hi as usize..n_t + lo as usize;
            let means = &mean[run.clone()];
            on_run(&mut sq[run], |sqs| {
                for (sq, &mean) in sqs.iter_mut().zip(means) {
                    *sq += (y - mean).powi(2);
                }
            });
        }
    }

    /// Stable partition of `rows[lo..hi]` into the left child's rows
    /// (`<= threshold`) followed by the right child's (`> threshold`);
    /// returns both counts. A NaN cell goes to neither child.
    fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        threshold: f64,
    ) -> (usize, usize) {
        let s = &mut *self.s;
        let col = self.cols.column(feature);
        s.spill.clear();
        let mut end_left = lo;
        for at in lo..hi {
            let row = s.rows[at];
            if col[row] <= threshold {
                s.rows[end_left] = row;
                end_left += 1;
            } else if col[row] > threshold {
                s.spill.push(row);
            }
        }
        s.rows[end_left..end_left + s.spill.len()].copy_from_slice(&s.spill);
        (end_left - lo, s.spill.len())
    }
}

#[cfg(test)]
thread_local! {
    /// Columns `rank_column` has ranked (that is, sorted) on this thread: what
    /// the mechanism tests count. Test-only, like everything from here on.
    static COLUMNS_RANKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The split search this module had before [`TreeBuilder`], moved here
/// verbatim: the oracle the differential tests (here, in `gbm` and in
/// `forest`) compare every fitted tree with. Nothing of it is compiled into
/// the product.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{next_rand, Criterion, DecisionTree, Node, TreeParams};

    /// `DecisionTree::fit_with_features` as it was before `TreeBuilder`.
    pub(crate) fn fit_with_features(
        x: &[Vec<f64>],
        y: &[f64],
        params: TreeParams,
        max_features: Option<usize>,
        seed: u64,
    ) -> DecisionTree {
        let n_features = x.first().map(|r| r.len()).unwrap_or(0);
        let indices: Vec<usize> = (0..x.len()).collect();
        let mut importance = vec![0.0; n_features];
        let mut rng_state = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0xD1B54A32D192ED03);
        let root = if x.is_empty() {
            Node::Leaf { value: 0.0 }
        } else {
            build_node(
                x,
                y,
                &indices,
                &params,
                0,
                n_features,
                max_features,
                &mut rng_state,
                &mut importance,
            )
        };
        DecisionTree {
            root,
            params,
            n_features,
            feature_importance: importance,
        }
    }

    /// Impurity of a set of target values for the given criterion.
    fn impurity(y: &[f64], indices: &[usize], criterion: Criterion) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        match criterion {
            Criterion::Mse => {
                let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
                indices.iter().map(|&i| (y[i] - mean).powi(2)).sum::<f64>() / indices.len() as f64
            }
            Criterion::Gini => {
                use std::collections::HashMap;
                let mut counts: HashMap<i64, usize> = HashMap::new();
                for &i in indices {
                    *counts.entry(y[i].round() as i64).or_insert(0) += 1;
                }
                let n = indices.len() as f64;
                1.0 - counts
                    .values()
                    .map(|&c| (c as f64 / n).powi(2))
                    .sum::<f64>()
            }
        }
    }

    /// Leaf prediction: mean (regression) or majority class (classification).
    fn leaf_value(y: &[f64], indices: &[usize], criterion: Criterion) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        match criterion {
            Criterion::Mse => indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64,
            Criterion::Gini => {
                use std::collections::HashMap;
                let mut counts: HashMap<i64, usize> = HashMap::new();
                for &i in indices {
                    *counts.entry(y[i].round() as i64).or_insert(0) += 1;
                }
                counts
                    .into_iter()
                    .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c)))
                    .map(|(c, _)| c as f64)
                    .unwrap_or(0.0)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_node(
        x: &[Vec<f64>],
        y: &[f64],
        indices: &[usize],
        params: &TreeParams,
        depth: usize,
        n_features: usize,
        max_features: Option<usize>,
        rng_state: &mut u64,
        importance: &mut [f64],
    ) -> Node {
        let node_impurity = impurity(y, indices, params.criterion);
        if depth >= params.max_depth
            || indices.len() < params.min_samples_split
            || node_impurity < 1e-12
            || n_features == 0
        {
            return Node::Leaf {
                value: leaf_value(y, indices, params.criterion),
            };
        }

        // Choose candidate features.
        let mut features: Vec<usize> = (0..n_features).collect();
        if let Some(k) = max_features {
            let k = k.min(n_features).max(1);
            // Partial Fisher-Yates to pick k features.
            for i in 0..k {
                let j = i + (next_rand(rng_state) as usize % (n_features - i));
                features.swap(i, j);
            }
            features.truncate(k);
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted impurity)
        for &f in &features {
            let mut vals: Vec<f64> = indices.iter().map(|&i| x[i][f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let thresholds: Vec<f64> =
                if params.max_thresholds == 0 || vals.len() <= params.max_thresholds {
                    vals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
                } else {
                    (1..=params.max_thresholds)
                        .map(|i| {
                            let q = i as f64 / (params.max_thresholds as f64 + 1.0);
                            let idx = ((vals.len() - 1) as f64 * q).round() as usize;
                            vals[idx]
                        })
                        .collect()
                };
            for &t in &thresholds {
                let left: Vec<usize> = indices.iter().copied().filter(|&i| x[i][f] <= t).collect();
                let right: Vec<usize> = indices.iter().copied().filter(|&i| x[i][f] > t).collect();
                if left.len() < params.min_samples_leaf || right.len() < params.min_samples_leaf {
                    continue;
                }
                let wl = left.len() as f64 / indices.len() as f64;
                let wr = 1.0 - wl;
                let score = wl * impurity(y, &left, params.criterion)
                    + wr * impurity(y, &right, params.criterion);
                if best.map(|(_, _, s)| score < s).unwrap_or(true) {
                    best = Some((f, t, score));
                }
            }
        }

        match best {
            Some((feature, threshold, score)) if score < node_impurity - 1e-12 => {
                importance[feature] += (node_impurity - score) * indices.len() as f64;
                let left_idx: Vec<usize> = indices
                    .iter()
                    .copied()
                    .filter(|&i| x[i][feature] <= threshold)
                    .collect();
                let right_idx: Vec<usize> = indices
                    .iter()
                    .copied()
                    .filter(|&i| x[i][feature] > threshold)
                    .collect();
                let left = build_node(
                    x,
                    y,
                    &left_idx,
                    params,
                    depth + 1,
                    n_features,
                    max_features,
                    rng_state,
                    importance,
                );
                let right = build_node(
                    x,
                    y,
                    &right_idx,
                    params,
                    depth + 1,
                    n_features,
                    max_features,
                    rng_state,
                    importance,
                );
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
            _ => Node::Leaf {
                value: leaf_value(y, indices, params.criterion),
            },
        }
    }
}

/// Matrices and targets for this crate's differential tests (here, in `gbm`
/// and in `forest`): every column kind the split search treats differently.
#[cfg(test)]
pub(crate) mod fixtures {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Number of columns of [`matrix`].
    pub(crate) const WIDTH: usize = 10;

    /// Row counts the differential tests draw from.
    pub(crate) const SIZES: [usize; 6] = [0, 1, 2, 12, 40, 300];

    /// What bit-identity is asserted on.
    pub(crate) fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `n` rows of: a constant column, an all-distinct one, columns of 2,
    /// 15, 16, 17 and 40 distinct values (around the default
    /// `max_thresholds`), one of `0.0`/`-0.0`/`±1.0` ties, a continuous one
    /// and a rescaled copy of the 15-valued one (the same partitions, so its
    /// splits tie with that column's exactly); a quarter of the rows are
    /// then overwritten by copies of others.
    pub(crate) fn matrix(g: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
        let mut distinct: Vec<f64> = (0..n).map(|i| i as f64 * 0.75 + 0.25).collect();
        for i in (1..n).rev() {
            distinct.swap(i, g.gen_range(0..i + 1));
        }
        let mut x: Vec<Vec<f64>> = distinct
            .into_iter()
            .map(|all_distinct| {
                let mut row = vec![3.5, all_distinct];
                for k in [2usize, 15, 16, 17, 40] {
                    row.push(g.gen_range(0..k) as f64 * 0.5 - 3.0);
                }
                row.push([-0.0, 0.0, 1.0, -1.0][g.gen_range(0..4usize)]);
                row.push(g.gen_range(-1.0..1.0));
                row.push(2.0 * row[3] + 1.0);
                row
            })
            .collect();
        for _ in 0..n / 4 {
            let (from, to) = (g.gen_range(0..n), g.gen_range(0..n));
            x[to] = x[from].clone();
        }
        x
    }

    /// Overwrites one cell with NaN (no-op on an empty matrix).
    pub(crate) fn inject_nan(g: &mut StdRng, x: &mut [Vec<f64>]) {
        if !x.is_empty() {
            let (row, col) = (g.gen_range(0..x.len()), g.gen_range(0..WIDTH));
            x[row][col] = f64::NAN;
        }
    }

    /// A regression target with signal in four columns, rounded to
    /// quarters so that candidate splits tie.
    pub(crate) fn regression_target(g: &mut StdRng, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter()
            .map(|r| {
                let step = if r[8] > 0.0 { 2.0 } else { 0.0 };
                let v = 0.01 * r[1] + r[3] + step + r[7] + 0.3 * g.gen_range(-1.0..1.0f64);
                (v * 4.0).round() / 4.0
            })
            .collect()
    }

    /// Labels in `0..n_classes` following two columns, a tenth at random.
    pub(crate) fn class_target(g: &mut StdRng, x: &[Vec<f64>], n_classes: usize) -> Vec<f64> {
        x.iter()
            .map(|r| {
                if g.gen_range(0..10usize) == 0 {
                    g.gen_range(0..n_classes) as f64
                } else {
                    ((r[4] + 3.0 * r[8] + 6.0).max(0.0) / 3.0).floor() % n_classes as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect();
        (Matrix::from_rows(&x), y)
    }

    #[test]
    fn regression_tree_learns_step_function() {
        let (x, y) = step_data();
        let tree = DecisionTree::fit(&x, &y, TreeParams::default());
        assert!((tree.predict_one(&[5.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[35.0, 0.0]) - 5.0).abs() < 1e-9);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn classification_tree_learns_parity_free_split() {
        let x = Matrix::from_rows(&(0..30).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let y: Vec<f64> = (0..30).map(|i| if i < 15 { 0.0 } else { 1.0 }).collect();
        let params = TreeParams {
            criterion: Criterion::Gini,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, params);
        assert_eq!(tree.predict_one(&[3.0]), 0.0);
        assert_eq!(tree.predict_one(&[25.0]), 1.0);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![4.0, 4.0, 4.0];
        let tree = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict_one(&[100.0]), 4.0);
    }

    #[test]
    fn max_depth_zero_gives_single_leaf() {
        let (x, y) = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, params);
        assert_eq!(tree.depth(), 0);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((tree.predict_one(&[0.0, 0.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn feature_importance_identifies_informative_feature() {
        let (x, y) = step_data();
        let tree = DecisionTree::fit(&x, &y, TreeParams::default());
        let imp = tree.feature_importance();
        assert!(imp[0] > imp[1]);
    }

    #[test]
    fn empty_input_predicts_zero() {
        let tree = DecisionTree::fit(&Matrix::default(), &[], TreeParams::default());
        assert_eq!(tree.predict_one(&[1.0]), 0.0);
        assert_eq!(tree.n_features(), 0);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (x, y) = step_data();
        let params = TreeParams {
            min_samples_leaf: 25,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, params);
        // No split can produce two leaves of >= 25 samples out of 40.
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn feature_subsampling_is_deterministic() {
        let (x, y) = step_data();
        let t1 = DecisionTree::fit_with_features(&x, &y, TreeParams::default(), Some(1), 7);
        let t2 = DecisionTree::fit_with_features(&x, &y, TreeParams::default(), Some(1), 7);
        assert_eq!(t1.predict(&x), t2.predict(&x));
    }

    use super::fixtures::{bits, class_target, inject_nan, matrix, regression_target, SIZES};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn assert_same_node(new: &Node, old: &Node, path: &str) {
        match (new, old) {
            (Node::Leaf { value: a }, Node::Leaf { value: b }) => {
                assert_eq!(a.to_bits(), b.to_bits(), "leaf at {path}: {a} vs {b}");
            }
            (
                Node::Split {
                    feature: fa,
                    threshold: ta,
                    left: la,
                    right: ra,
                },
                Node::Split {
                    feature: fb,
                    threshold: tb,
                    left: lb,
                    right: rb,
                },
            ) => {
                assert_eq!(fa, fb, "feature at {path}");
                assert_eq!(
                    ta.to_bits(),
                    tb.to_bits(),
                    "threshold at {path}: {ta} vs {tb}"
                );
                assert_same_node(la, lb, &format!("{path}L"));
                assert_same_node(ra, rb, &format!("{path}R"));
            }
            _ => panic!("node kind at {path}: {new:?} vs {old:?}"),
        }
    }

    /// Node by node and importance by importance, on `f64::to_bits`.
    fn assert_same_tree(new: &DecisionTree, old: &DecisionTree) {
        assert_eq!(new.n_features, old.n_features);
        assert_same_node(&new.root, &old.root, "/");
        assert_eq!(
            bits(&new.feature_importance),
            bits(&old.feature_importance),
            "feature importance"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The differential test of the kernel: whatever the previous split
        /// search fitted, the builder fits, bit for bit.
        #[test]
        fn builder_fits_the_oracles_tree_bit_for_bit(
            seed in any::<u64>(),
            size in 0usize..6,
            min_leaf in 0usize..3,
            thresholds in 0usize..4,
            depth in 0usize..3,
            gini in any::<bool>(),
            nan_cell in any::<bool>(),
            subset in 0usize..5,
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let mut x = matrix(&mut g, SIZES[size]);
            let y = if gini {
                class_target(&mut g, &x, 2)
            } else {
                regression_target(&mut g, &x)
            };
            if nan_cell {
                inject_nan(&mut g, &mut x);
            }
            let params = TreeParams {
                max_depth: [2, 4, 6][depth],
                min_samples_split: 2 + (seed % 3) as usize,
                min_samples_leaf: [0, 1, 3][min_leaf],
                max_thresholds: [0, 16, 16, 5][thresholds],
                criterion: if gini { Criterion::Gini } else { Criterion::Mse },
            };
            let max_features = [None, None, Some(1), Some(3), Some(100)][subset];
            let tree_seed = seed >> 9;
            // `sort_by` may panic on a comparator that is not a total order,
            // which a NaN cell makes of this one; both kernels sort the same
            // cells in the same order, so they panic on the same inputs.
            let outcome = |fit: &dyn Fn() -> DecisionTree| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(fit)).ok()
            };
            let matrix = Matrix::from_rows(&x);
            let new = outcome(&|| {
                DecisionTree::fit_with_features(&matrix, &y, params, max_features, tree_seed)
            });
            let old = outcome(&|| {
                oracle::fit_with_features(&x, &y, params, max_features, tree_seed)
            });
            match (&new, &old) {
                (Some(new), Some(old)) => assert_same_tree(new, old),
                (None, None) => assert!(nan_cell, "only a NaN cell may panic a fit"),
                _ => panic!("one kernel panicked, the other fitted"),
            }
        }

        /// What ranks could get wrong and the fixture never shows: a
        /// `±inf` column (the midpoint of `-inf` and `+inf` is a NaN
        /// threshold no row is on either side of), a column of signed
        /// zeros under a `max_thresholds` small enough that the zero a node
        /// keeps is itself a threshold (its sign bit is in the fitted
        /// tree), and row counts one past a bitset word.
        #[test]
        fn ranked_kernel_keeps_infinities_signed_zeros_and_word_boundaries(
            seed in any::<u64>(),
            long in any::<bool>(),
            min_leaf in 0usize..3,
            thresholds in 0usize..5,
            gini in any::<bool>(),
            subset in 0usize..4,
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let inf = f64::INFINITY;
            let mut x = matrix(&mut g, if long { 129 } else { 65 });
            let mut y = if gini {
                class_target(&mut g, &x, 2)
            } else {
                regression_target(&mut g, &x)
            };
            for (row, y) in x.iter_mut().zip(&mut y) {
                let infinite = [-inf, inf, -inf, inf, 0.5][g.gen_range(0..5usize)];
                let zero = [0.0, -0.0, 0.0, -0.0, -1.0, 1.0, 2.0][g.gen_range(0..7usize)];
                row.extend([infinite, zero]);
                if !gini {
                    *y += infinite.signum() + zero;
                }
            }
            let params = TreeParams {
                max_depth: 5,
                min_samples_split: 2,
                min_samples_leaf: [0, 1, 3][min_leaf],
                max_thresholds: [0, 1, 2, 3, 16][thresholds],
                criterion: if gini { Criterion::Gini } else { Criterion::Mse },
            };
            let max_features = [None, Some(1), Some(2), Some(4)][subset];
            let new = DecisionTree::fit_with_features(
                &Matrix::from_rows(&x), &y, params, max_features, seed >> 7,
            );
            let old = oracle::fit_with_features(&x, &y, params, max_features, seed >> 7);
            assert_same_tree(&new, &old);
        }
    }

    /// Inputs on which a threshold is NaN or equals the largest value, a
    /// child is empty, or a row belongs to neither child.
    #[test]
    fn degenerate_thresholds_and_empty_children_match_the_oracle() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let column = |cells: &[f64]| -> Vec<Vec<f64>> { cells.iter().map(|&c| vec![c]).collect() };
        let cases: Vec<(Vec<Vec<f64>>, Vec<f64>)> = vec![
            // A column of nothing but NaN: every midpoint is NaN.
            (column(&[nan, nan, nan, nan]), vec![1.0, 2.0, 3.0, 4.0]),
            // -inf and +inf neighbours: their midpoint is NaN.
            (
                column(&[-inf, inf, -inf, inf, 1.0]),
                vec![1.0, 2.0, 1.0, 2.0, 5.0],
            ),
            // Two values and one NaN row under `max_thresholds = 1`: the
            // threshold is the larger value, the right child is empty.
            (
                column(&[1.0, 2.0, nan, 1.0, 2.0]),
                vec![1.0, 1.0, 9.0, 1.0, 1.0],
            ),
            (column(&[1.0, 2.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0, 4.0]),
            // A NaN target.
            (column(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, nan, 3.0, 4.0]),
            // Two columns, NaN in the informative one.
            (
                vec![
                    vec![0.0, 5.0],
                    vec![nan, 6.0],
                    vec![2.0, 5.0],
                    vec![3.0, nan],
                    vec![4.0, 6.0],
                ],
                vec![0.0, 0.0, 1.0, 1.0, 1.0],
            ),
        ];
        for (x, y) in &cases {
            for criterion in [Criterion::Mse, Criterion::Gini] {
                for max_thresholds in [0, 1, 2, 16] {
                    for min_samples_leaf in [0, 1] {
                        let params = TreeParams {
                            min_samples_leaf,
                            max_thresholds,
                            criterion,
                            ..TreeParams::default()
                        };
                        let new = DecisionTree::fit(&Matrix::from_rows(x), y, params);
                        let old = oracle::fit_with_features(x, y, params, None, 0);
                        assert_same_tree(&new, &old);
                    }
                }
            }
        }
    }

    /// The builder carries buffers, never state: a fit after fits of other
    /// shapes, criteria and class tables equals the same fit on a new one.
    #[test]
    fn a_reused_builder_fits_what_a_fresh_one_fits() {
        let mut g = StdRng::seed_from_u64(7);
        let mut builder = TreeBuilder::default();
        let gini = TreeParams {
            criterion: Criterion::Gini,
            ..TreeParams::default()
        };
        for (n, params, classes) in [
            (300, gini, 3),
            (12, TreeParams::default(), 0),
            (40, gini, 2),
            (300, TreeParams::default(), 0),
            (2, gini, 2),
        ] {
            let x = matrix(&mut g, n);
            let y = if classes > 0 {
                class_target(&mut g, &x, classes)
            } else {
                regression_target(&mut g, &x)
            };
            let cols = Columns::from_matrix(&Matrix::from_rows(&x));
            let reused = builder.fit(&cols, &y, params, Some(3), 11);
            let fresh = TreeBuilder::default().fit(&cols, &y, params, Some(3), 11);
            assert_same_tree(&reused, &fresh);
            // A training row reads the same from the columns as from itself.
            for (i, row) in x.iter().enumerate() {
                assert_eq!(
                    reused.predict_row(&cols, i).to_bits(),
                    reused.predict_one(row).to_bits()
                );
            }
        }
    }

    /// A bootstrap sample gathered from the columns is the sample cloned
    /// row by row.
    #[test]
    fn gathered_columns_equal_transposed_cloned_rows() {
        let mut g = StdRng::seed_from_u64(3);
        let x = matrix(&mut g, 40);
        let rows: Vec<usize> = (0..55).map(|_| g.gen_range(0..40)).collect();
        let cloned: Vec<Vec<f64>> = rows.iter().map(|&r| x[r].clone()).collect();
        let gathered = Columns::from_matrix(&Matrix::from_rows(&x)).gather(&rows);
        let direct = Columns::from_matrix(&Matrix::from_rows(&cloned));
        assert_eq!(bits(&gathered.data), bits(&direct.data));
        assert_eq!(gathered.varies, direct.varies);
        assert_eq!(
            (gathered.n_rows, gathered.n_features),
            (55, fixtures::WIDTH)
        );
    }

    /// Columns this thread ranks while `fit` runs.
    fn columns_ranked_by(fit: impl FnOnce()) -> usize {
        let before = COLUMNS_RANKED.with(|c| c.get());
        fit();
        COLUMNS_RANKED.with(|c| c.get()) - before
    }

    /// One sort per feature and fit, whatever the number of rounds, stages
    /// or trees: the boosted models share the ranked columns and a forest's
    /// bootstrap samples copy their ranks.
    #[test]
    fn a_fit_ranks_every_column_exactly_once() {
        use crate::forest::{ForestParams, RandomForest};
        use crate::gbm::{GbmParams, GradientBoostingClassifier, GradientBoostingRegressor};
        let mut g = StdRng::seed_from_u64(21);
        let rows = matrix(&mut g, 120);
        let x = Matrix::from_rows(&rows);
        let y = regression_target(&mut g, &rows);
        let labels = class_target(&mut g, &rows, 3);
        let rounds = GbmParams {
            n_estimators: 40,
            ..GbmParams::default()
        };
        let regressor = columns_ranked_by(|| {
            assert_eq!(GradientBoostingRegressor::fit(&x, &y, rounds).len(), 40);
        });
        assert_eq!(regressor, fixtures::WIDTH);
        let classifier = columns_ranked_by(|| {
            GradientBoostingClassifier::fit(&x, &labels, 3, rounds);
        });
        assert_eq!(classifier, fixtures::WIDTH);
        let forest = columns_ranked_by(|| {
            let forest = RandomForest::fit(&x, &labels, 3, ForestParams::classification(20));
            assert_eq!(forest.len(), 20);
        });
        assert_eq!(forest, fixtures::WIDTH);
        let cols = Columns::from_matrix(&x);
        assert_eq!(columns_ranked_by(|| drop(cols.gather(&[5, 5, 119, 0]))), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Gathered ranks order gathered cells: a sample with repeats needs
        /// no sort of its own.
        #[test]
        fn gathered_ranks_order_gathered_cells(
            seed in any::<u64>(),
            size in 2usize..6,
            sample in 1usize..80,
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let n = SIZES[size];
            let cols = Columns::from_matrix(&Matrix::from_rows(&matrix(&mut g, n)));
            let rows: Vec<usize> = (0..sample).map(|_| g.gen_range(0..n)).collect();
            let gathered = cols.gather(&rows);
            for f in 0..fixtures::WIDTH {
                prop_assert!(gathered.rank_space[f] > 0);
                let (cells, ranks) = (gathered.column(f), gathered.column_ranks(f));
                for a in 0..sample {
                    prop_assert!((ranks[a] as usize) < gathered.rank_space[f]);
                    for b in 0..sample {
                        prop_assert_eq!(ranks[a] < ranks[b], cells[a] < cells[b]);
                        prop_assert_eq!(ranks[a] == ranks[b], cells[a] == cells[b]);
                    }
                }
            }
        }
    }
}
