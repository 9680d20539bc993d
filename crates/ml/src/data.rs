//! Datasets: labelled feature vectors with the splitting and relabelling
//! operations the 2SMaRT pipeline needs.
//!
//! The paper uses a standard **60 %/40 % train/test split**
//! ([`Dataset::stratified_split`] keeps class proportions), trains
//! *specialized* per-class binary detectors
//! ([`Dataset::binarize`] relabels one malware class vs. benign), and feeds
//! classifiers reduced feature subsets ([`Dataset::select_features`]).
//!
//! # Examples
//!
//! ```
//! use hmd_ml::data::Dataset;
//! use rand::SeedableRng;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.2, 0.9], vec![0.8, 0.1]],
//!     vec![0, 1, 0, 1],
//!     2,
//! ).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (train, test) = data.stratified_split(0.5, &mut rng);
//! assert_eq!(train.len() + test.len(), 4);
//! ```

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors raised when constructing or manipulating datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// No instances supplied.
    Empty,
    /// Feature rows have differing lengths, or labels/features length differ.
    ShapeMismatch(String),
    /// A label is `>= n_classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The declared class count.
        n_classes: usize,
    },
    /// A feature value is NaN or infinite.
    NonFinite {
        /// Row of the offending value.
        row: usize,
        /// Column of the offending value.
        col: usize,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Empty => write!(f, "dataset has no instances"),
            DataError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            DataError::LabelOutOfRange { label, n_classes } => {
                write!(f, "label {label} out of range for {n_classes} classes")
            }
            DataError::NonFinite { row, col } => {
                write!(f, "non-finite feature at row {row}, column {col}")
            }
        }
    }
}

impl Error for DataError {}

/// A labelled dataset: `n` instances × `d` numeric features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
    n_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shape, label range and finiteness.
    ///
    /// # Errors
    ///
    /// Returns a [`DataError`] describing the first violated invariant.
    pub fn new(
        features: Vec<Vec<f64>>,
        labels: Vec<usize>,
        n_classes: usize,
    ) -> Result<Dataset, DataError> {
        if features.is_empty() {
            return Err(DataError::Empty);
        }
        if features.len() != labels.len() {
            return Err(DataError::ShapeMismatch(format!(
                "{} feature rows vs {} labels",
                features.len(),
                labels.len()
            )));
        }
        let d = features[0].len();
        for (i, row) in features.iter().enumerate() {
            if row.len() != d {
                return Err(DataError::ShapeMismatch(format!(
                    "row {i} has {} features, expected {d}",
                    row.len()
                )));
            }
            for (j, v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DataError::NonFinite { row: i, col: j });
                }
            }
        }
        for &l in &labels {
            if l >= n_classes {
                return Err(DataError::LabelOutOfRange {
                    label: l,
                    n_classes,
                });
            }
        }
        Ok(Dataset {
            features,
            labels,
            n_classes,
        })
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` if the dataset has no instances (unreachable for constructed
    /// datasets, useful for views).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of features per instance.
    pub fn n_features(&self) -> usize {
        self.features[0].len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature row of instance `i`.
    pub fn features_of(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// Label of instance `i`.
    pub fn label_of(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// All feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Instance count per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// One column of the feature matrix.
    ///
    /// # Panics
    ///
    /// Panics if `col >= n_features()`.
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.n_features(), "column {col} out of range");
        self.features.iter().map(|r| r[col]).collect()
    }

    /// A new dataset keeping only the given feature columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `indices` is empty.
    pub fn select_features(&self, indices: &[usize]) -> Dataset {
        assert!(!indices.is_empty(), "must keep at least one feature");
        for &i in indices {
            assert!(i < self.n_features(), "feature index {i} out of range");
        }
        let features = self
            .features
            .iter()
            .map(|row| indices.iter().map(|&i| row[i]).collect())
            .collect();
        Dataset {
            features,
            labels: self.labels.clone(),
            n_classes: self.n_classes,
        }
    }

    /// A new dataset containing the given instances, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `indices` is empty.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        assert!(
            !indices.is_empty(),
            "subset must keep at least one instance"
        );
        let features = indices.iter().map(|&i| self.features[i].clone()).collect();
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset {
            features,
            labels,
            n_classes: self.n_classes,
        }
    }

    /// Stratified split into `(train, test)` keeping per-class proportions.
    ///
    /// `train_frac` is clamped so both sides get at least one instance of
    /// every class that has ≥ 2 instances. The paper's protocol is a 60/40
    /// split (`train_frac = 0.6`).
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is not within `(0, 1)`.
    pub fn stratified_split<R: Rng + ?Sized>(
        &self,
        train_frac: f64,
        rng: &mut R,
    ) -> (Dataset, Dataset) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train_frac must be in (0, 1), got {train_frac}"
        );
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for class in 0..self.n_classes {
            let mut idx: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            if idx.is_empty() {
                continue;
            }
            idx.shuffle(rng);
            let mut n_train = ((idx.len() as f64) * train_frac).round() as usize;
            if idx.len() >= 2 {
                n_train = n_train.clamp(1, idx.len() - 1);
            } else {
                n_train = 1;
            }
            train_idx.extend_from_slice(&idx[..n_train]);
            test_idx.extend_from_slice(&idx[n_train..]);
        }
        train_idx.shuffle(rng);
        test_idx.shuffle(rng);
        let test = if test_idx.is_empty() {
            // Degenerate corpora (every class a singleton): test == train.
            self.subset(&train_idx)
        } else {
            self.subset(&test_idx)
        };
        (self.subset(&train_idx), test)
    }

    /// Relabels into a binary problem: instances whose label is in
    /// `positive` become class 1, all others class 0.
    ///
    /// Used to build the paper's specialized per-class detectors
    /// (e.g. Virus-vs-rest, or Virus-vs-Benign after filtering).
    pub fn binarize(&self, positive: &[usize]) -> Dataset {
        let labels = self
            .labels
            .iter()
            .map(|l| usize::from(positive.contains(l)))
            .collect();
        Dataset {
            features: self.features.clone(),
            labels,
            n_classes: 2,
        }
    }

    /// Keeps only instances whose label passes `keep`, then applies
    /// `relabel` to each kept label.
    ///
    /// # Panics
    ///
    /// Panics if no instance passes, or a relabelled value `>= n_classes`.
    pub fn filter_relabel<F, G>(&self, keep: F, relabel: G, n_classes: usize) -> Dataset
    where
        F: Fn(usize) -> bool,
        G: Fn(usize) -> usize,
    {
        let idx: Vec<usize> = (0..self.len()).filter(|&i| keep(self.labels[i])).collect();
        assert!(!idx.is_empty(), "filter removed every instance");
        let features = idx.iter().map(|&i| self.features[i].clone()).collect();
        let labels: Vec<usize> = idx.iter().map(|&i| relabel(self.labels[i])).collect();
        assert!(
            labels.iter().all(|&l| l < n_classes),
            "relabel produced out-of-range label"
        );
        Dataset {
            features,
            labels,
            n_classes,
        }
    }

    /// Bootstrap-resamples `n` instances according to `weights`
    /// (AdaBoost's weighted resampling).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != len()`, all weights are zero, or any
    /// weight is negative/non-finite.
    pub fn weighted_resample<R: Rng + ?Sized>(
        &self,
        weights: &[f64],
        n: usize,
        rng: &mut R,
    ) -> Dataset {
        let idx = self.weighted_resample_indices(weights, n, rng);
        self.subset(&idx)
    }

    /// The row indices [`weighted_resample`](Self::weighted_resample) would
    /// draw, without materializing the resampled dataset.
    ///
    /// Makes the exact same RNG draws as `weighted_resample`, so callers can
    /// switch between the two without perturbing any downstream seed stream.
    /// Ensembles use this to express a bootstrap as a per-row multiplicity
    /// array over the *original* dataset, which lets them train against a
    /// shared [`SortedColumns`] cache instead of a per-member copy.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != len()`, all weights are zero, or any
    /// weight is negative/non-finite.
    pub fn weighted_resample_indices<R: Rng + ?Sized>(
        &self,
        weights: &[f64],
        n: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        assert_eq!(weights.len(), self.len(), "one weight per instance");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and nonnegative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        // Inverse-CDF sampling over the cumulative weights.
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            cdf.push(acc);
        }
        (0..n)
            .map(|_| {
                let u = rng.gen::<f64>() * total;
                match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
                    Ok(i) | Err(i) => i.min(self.len() - 1),
                }
            })
            .collect()
    }
}

/// Presorted per-column row orders for a [`Dataset`] — the backbone of the
/// presorted training engine.
///
/// Decision-tree induction spends nearly all its time sorting: the naive
/// `J48` grower re-sorts every attribute at every node, so one tree costs
/// O(nodes × attrs × n log n). `SortedColumns` sorts each feature column
/// **once** (stable, index-carrying) and lets the grower maintain sortedness
/// down the recursion by stable in-place partitioning, turning every split
/// scan into a single left-to-right pass.
///
/// The cache is plain read-only data (`Sync`), so one instance is safely
/// shared across all members of an ensemble and across parallel grid tasks:
/// bootstraps and weighted resamples are expressed as per-row multiplicity
/// arrays over the original rows rather than materialized copies.
///
/// Row indices are stored as `u32` (a dataset of ≥ 4 billion rows would
/// exhaust memory long before overflowing).
#[derive(Debug, Clone)]
pub struct SortedColumns {
    /// `orders[c]` = row indices of the source dataset, stably sorted by
    /// ascending value of feature column `c`.
    orders: Vec<Vec<u32>>,
    /// `columns[c][r]` = value of feature `c` at row `r` — a column-major
    /// copy of the feature matrix, so training loops resolve a (row,
    /// attribute) lookup with one index into a contiguous column instead
    /// of chasing per-row vectors.
    columns: Vec<Vec<f64>>,
    n_rows: usize,
}

impl SortedColumns {
    /// Sorts every feature column of `data` once.
    ///
    /// Uses the same stable `partial_cmp` sort as the naive per-node path,
    /// so ties keep their original row order — the property that makes
    /// presorted growing bit-identical to the naive grower.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has ≥ `u32::MAX` rows.
    pub fn new(data: &Dataset) -> SortedColumns {
        let n = data.len();
        assert!(
            u32::try_from(n).is_ok(),
            "SortedColumns indexes rows as u32"
        );
        let columns: Vec<Vec<f64>> = (0..data.n_features())
            .map(|c| (0..n).map(|r| data.features_of(r)[c]).collect())
            .collect();
        let orders = columns
            .iter()
            .map(|col| {
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by(|&a, &b| {
                    col[a as usize]
                        .partial_cmp(&col[b as usize])
                        .expect("dataset features are finite")
                });
                order
            })
            .collect();
        SortedColumns {
            orders,
            columns,
            n_rows: n,
        }
    }

    /// Number of rows of the source dataset.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns covered by the cache.
    pub fn n_columns(&self) -> usize {
        self.orders.len()
    }

    /// The stable ascending-value row order of column `col`.
    pub fn order(&self, col: usize) -> &[u32] {
        &self.orders[col]
    }

    /// Column `col` of the feature matrix, contiguous and indexed by row.
    pub fn column(&self, col: usize) -> &[f64] {
        &self.columns[col]
    }

    /// Projects the cache onto a column subset, in `cols` order.
    ///
    /// A projected dataset column holds the same values in the same rows as
    /// its source column, so its sorted order *is* the source column's
    /// order — projection is a copy of the selected order and column
    /// arrays, never a re-sort. Mirrors [`Dataset::select_features`].
    pub fn select(&self, cols: &[usize]) -> SortedColumns {
        SortedColumns {
            orders: cols.iter().map(|&c| self.orders[c].clone()).collect(),
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
            n_rows: self.n_rows,
        }
    }
}

/// Per-feature z-score standardization fitted on training data.
///
/// Linear and neural models train far better on standardized inputs; the
/// scaler is fitted on the training split only and applied to test/run-time
/// samples, as any leak-free pipeline requires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits means and standard deviations per feature column.
    pub fn fit(data: &Dataset) -> Standardizer {
        let d = data.n_features();
        let n = data.len() as f64;
        let mut means = vec![0.0; d];
        for row in data.features() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for row in data.features() {
            for ((var, v), m) in vars.iter_mut().zip(row).zip(&means) {
                *var += (v - m) * (v - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0 // constant feature: leave centred at 0
                }
            })
            .collect();
        Standardizer { means, stds }
    }

    /// Standardizes one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong length.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.transform_row_into(row, &mut out);
        out
    }

    /// [`transform_row`](Self::transform_row) into a reused buffer
    /// (cleared, then filled) — the allocation-free form for hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong number of features.
    pub fn transform_row_into(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.means.len(), "feature length mismatch");
        out.clear();
        out.extend(
            row.iter()
                .zip(self.means.iter().zip(&self.stds))
                .map(|(v, (m, s))| (v - m) / s),
        );
    }

    /// Standardizes one feature's values across a contiguous column of
    /// lanes (the column-major form for batched kernels). Each element is
    /// the same `(v - mean) / std` expression as the row transforms —
    /// element-independent, so the bits match a per-row transform of the
    /// same values while the column streams sequentially.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of range or the slice lengths differ.
    // hmd-analyze: hot-path
    pub fn transform_col_into(&self, feature: usize, col: &[f64], out: &mut [f64]) {
        assert_eq!(col.len(), out.len(), "column length mismatch");
        let (m, s) = (self.means[feature], self.stds[feature]);
        for (o, v) in out.iter_mut().zip(col) {
            *o = (v - m) / s;
        }
    }

    /// Standardizes a whole dataset (labels unchanged).
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let features = data
            .features()
            .iter()
            .map(|r| self.transform_row(r))
            .collect();
        Dataset {
            features,
            labels: data.labels().to_vec(),
            n_classes: data.n_classes(),
        }
    }
}

/// Per-feature min-max scaling to `[-1, 1]`, fitted on training data — the
/// normalization WEKA's `MultilayerPerceptron` applies to its inputs.
///
/// Unlike the z-score [`Standardizer`], min-max scaling is sensitive to
/// heavy-tailed features: a single large training value compresses the bulk
/// of the data into a narrow band, which is part of why MLPs on raw
/// hardware-counter rates degrade as more (outlier-prone) counters are
/// added.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits per-feature minima and ranges.
    pub fn fit(data: &Dataset) -> MinMaxScaler {
        let d = data.n_features();
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for row in data.features() {
            for ((mn, mx), v) in mins.iter_mut().zip(&mut maxs).zip(row) {
                *mn = mn.min(*v);
                *mx = mx.max(*v);
            }
        }
        let ranges = mins
            .iter()
            .zip(&maxs)
            .map(|(mn, mx)| {
                let r = mx - mn;
                if r > 1e-300 {
                    r
                } else {
                    1.0 // constant feature maps to -1
                }
            })
            .collect();
        MinMaxScaler { mins, ranges }
    }

    /// The number of features the scaler takes; `None` if its minima and
    /// ranges differ in length, which only a damaged snapshot produces.
    pub(crate) fn width(&self) -> Option<usize> {
        (self.mins.len() == self.ranges.len()).then_some(self.mins.len())
    }

    /// Scales one feature row into `[-1, 1]` (values outside the training
    /// range extrapolate beyond it, as WEKA's filter does).
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong length.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.transform_row_into(row, &mut out);
        out
    }

    /// [`transform_row`](Self::transform_row) into a reused buffer
    /// (cleared, then filled) — the allocation-free form for hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong number of features.
    pub fn transform_row_into(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.mins.len(), "feature length mismatch");
        out.clear();
        out.extend(
            row.iter()
                .zip(self.mins.iter().zip(&self.ranges))
                .map(|(v, (mn, r))| 2.0 * (v - mn) / r - 1.0),
        );
    }

    /// Scales a whole dataset (labels unchanged).
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let features = data
            .features()
            .iter()
            .map(|r| self.transform_row(r))
            .collect();
        Dataset {
            features,
            labels: data.labels().to_vec(),
            n_classes: data.n_classes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n_per_class: usize, n_classes: usize) -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for c in 0..n_classes {
            for i in 0..n_per_class {
                features.push(vec![c as f64 * 10.0 + i as f64, i as f64]);
                labels.push(c);
            }
        }
        Dataset::new(features, labels, n_classes).unwrap()
    }

    #[test]
    fn new_validates_inputs() {
        assert_eq!(Dataset::new(vec![], vec![], 2), Err(DataError::Empty));
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![0, 1], 2),
            Err(DataError::ShapeMismatch(_))
        ));
        assert!(matches!(
            Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1], 2),
            Err(DataError::ShapeMismatch(_))
        ));
        assert_eq!(
            Dataset::new(vec![vec![1.0]], vec![3], 2),
            Err(DataError::LabelOutOfRange {
                label: 3,
                n_classes: 2
            })
        );
        assert_eq!(
            Dataset::new(vec![vec![f64::NAN]], vec![0], 1),
            Err(DataError::NonFinite { row: 0, col: 0 })
        );
    }

    #[test]
    fn stratified_split_keeps_proportions() {
        let data = toy(50, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let (train, test) = data.stratified_split(0.6, &mut rng);
        assert_eq!(train.len(), 90);
        assert_eq!(test.len(), 60);
        assert_eq!(train.class_counts(), vec![30, 30, 30]);
        assert_eq!(test.class_counts(), vec![20, 20, 20]);
    }

    #[test]
    fn stratified_split_never_empties_a_side() {
        let data = toy(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = data.stratified_split(0.99, &mut rng);
        assert_eq!(train.class_counts(), vec![1, 1]);
        assert_eq!(test.class_counts(), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "train_frac")]
    fn split_rejects_bad_fraction() {
        let data = toy(2, 2);
        let mut rng = StdRng::seed_from_u64(0);
        data.stratified_split(1.0, &mut rng);
    }

    #[test]
    fn select_features_projects_columns() {
        let data = toy(3, 2);
        let sel = data.select_features(&[1]);
        assert_eq!(sel.n_features(), 1);
        assert_eq!(sel.features_of(0), &[0.0]);
        assert_eq!(sel.labels(), data.labels());
    }

    #[test]
    fn binarize_maps_positive_classes_to_one() {
        let data = toy(2, 3);
        let bin = data.binarize(&[2]);
        assert_eq!(bin.n_classes(), 2);
        assert_eq!(bin.class_counts(), vec![4, 2]);
    }

    #[test]
    fn filter_relabel_builds_per_class_problem() {
        let data = toy(4, 3);
        // Keep classes 0 and 2; relabel 0 -> 0, 2 -> 1.
        let sub = data.filter_relabel(|l| l != 1, |l| usize::from(l == 2), 2);
        assert_eq!(sub.len(), 8);
        assert_eq!(sub.class_counts(), vec![4, 4]);
    }

    #[test]
    fn weighted_resample_respects_weights() {
        let data = toy(1, 2); // two instances
        let mut rng = StdRng::seed_from_u64(2);
        // All weight on instance 1 (class 1).
        let r = data.weighted_resample(&[0.0, 1.0], 20, &mut rng);
        assert_eq!(r.class_counts(), vec![0, 20]);
    }

    #[test]
    fn standardizer_zero_means_unit_std() {
        let data = toy(10, 2);
        let std = Standardizer::fit(&data);
        let z = std.transform(&data);
        for c in 0..z.n_features() {
            let col = z.column(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9, "column {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "column {c} var {var}");
        }
    }

    #[test]
    fn standardizer_handles_constant_features() {
        let data = Dataset::new(
            vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]],
            vec![0, 0, 1],
            2,
        )
        .unwrap();
        let std = Standardizer::fit(&data);
        let z = std.transform(&data);
        assert!(z.column(0).iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn minmax_maps_training_range_to_unit_interval() {
        let data = toy(10, 2);
        let sc = MinMaxScaler::fit(&data);
        let z = sc.transform(&data);
        for c in 0..z.n_features() {
            let col = z.column(c);
            let mn = col.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!((mn + 1.0).abs() < 1e-12, "col {c} min {mn}");
            assert!((mx - 1.0).abs() < 1e-12, "col {c} max {mx}");
        }
    }

    #[test]
    fn minmax_extrapolates_outside_training_range() {
        let data = Dataset::new(vec![vec![0.0], vec![10.0]], vec![0, 1], 2).unwrap();
        let sc = MinMaxScaler::fit(&data);
        assert!(sc.transform_row(&[20.0])[0] > 1.0);
        assert!(sc.transform_row(&[-10.0])[0] < -1.0);
    }

    #[test]
    fn minmax_handles_constant_features() {
        let data = Dataset::new(vec![vec![5.0], vec![5.0]], vec![0, 1], 2).unwrap();
        let sc = MinMaxScaler::fit(&data);
        let z = sc.transform_row(&[5.0]);
        assert_eq!(z[0], -1.0);
    }

    #[test]
    fn column_extracts_values() {
        let data = toy(2, 2);
        assert_eq!(data.column(1), vec![0.0, 1.0, 0.0, 1.0]);
    }
}

/// Dataset strategies shared by the learners' bit-identity property tests.
#[cfg(test)]
pub(crate) mod arb {
    use super::Dataset;
    use proptest::prelude::*;

    /// Binary dataset engineered so duplicate values, whole duplicate rows
    /// and constant columns all arise naturally: each column draws from its
    /// own small value alphabet (alphabet size 1 = constant column).
    pub(crate) fn dupey_dataset() -> impl Strategy<Value = Dataset> {
        (3usize..=10, 1usize..=4).prop_flat_map(|(per_class, d)| {
            let n = per_class * 2;
            let levels = proptest::collection::vec(1usize..=5, d);
            let raw = proptest::collection::vec(proptest::collection::vec(0usize..1000, d), n);
            (levels, raw).prop_map(move |(levels, raw)| {
                let features: Vec<Vec<f64>> = raw
                    .iter()
                    .map(|row| {
                        row.iter()
                            .zip(&levels)
                            .map(|(&v, &q)| (v % q) as f64 * 0.75 - 1.0)
                            .collect()
                    })
                    .collect();
                let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
                Dataset::new(features, labels, 2).expect("constructed valid")
            })
        })
    }

    /// Continuous-valued variant: duplicates are unlikely, magnitudes vary.
    pub(crate) fn continuous_dataset() -> impl Strategy<Value = Dataset> {
        (3usize..=10, 1usize..=4).prop_flat_map(|(per_class, d)| {
            let n = per_class * 2;
            proptest::collection::vec(proptest::collection::vec(-1e4f64..1e4, d), n).prop_map(
                move |features| {
                    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
                    Dataset::new(features, labels, 2).expect("constructed valid")
                },
            )
        })
    }
}
