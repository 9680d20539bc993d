//! Structure-of-arrays (SoA) batch storage for multi-lane inference.
//!
//! The per-sample hot path scores one feature row at a time; fleet serving
//! and experiment sweeps naturally produce *batches* of rows. [`BatchScratch`]
//! holds a batch in **column-major** order — all lanes' values of feature 0,
//! then all of feature 1, … — so batched kernels
//! ([`crate::tree::CompiledTree::predict_batch_into`], the batched MLR
//! projection, AdaBoost's round accumulator behind
//! [`crate::classifier::Classifier::predict_proba_batch_into`]) read one
//! contiguous column per attribute instead of striding across rows.
//!
//! The batch contract is strict: for every lane, batched probabilities are
//! **bit-identical** to a scalar `predict_proba_into` call on that lane's
//! row (property-tested in `crates/ml/tests/prop_into.rs`). Batching is an
//! execution-shape change only — no reordered float accumulation, no
//! skipped terms.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::batch::BatchScratch;
//!
//! let mut batch = BatchScratch::new();
//! batch.reset(2, 3); // 2 features × 3 lanes
//! batch.set_lane(0, &[1.0, 10.0]);
//! batch.set_lane(1, &[2.0, 20.0]);
//! batch.set_lane(2, &[3.0, 30.0]);
//! assert_eq!(batch.col(1), &[10.0, 20.0, 30.0]);
//! ```

/// Column-major feature storage for one inference batch.
///
/// A reusable scratch container: [`reset`](Self::reset) reshapes it for a
/// new batch without shrinking its allocation, so steady-state batch
/// scoring performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// `n_features × n_lanes` values; column (feature) major.
    cols: Vec<f64>,
    n_features: usize,
    n_lanes: usize,
}

impl BatchScratch {
    /// An empty batch; storage grows on first [`reset`](Self::reset).
    pub const fn new() -> BatchScratch {
        BatchScratch {
            cols: Vec::new(),
            n_features: 0,
            n_lanes: 0,
        }
    }

    /// Reshapes for a batch of `n_lanes` rows of `n_features` features,
    /// zero-filling the storage. Keeps capacity across calls.
    // hmd-analyze: hot-path
    pub fn reset(&mut self, n_features: usize, n_lanes: usize) {
        self.n_features = n_features;
        self.n_lanes = n_lanes;
        self.cols.clear();
        self.cols.resize(n_features * n_lanes, 0.0);
    }

    /// Number of lanes (rows) in the batch.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Number of features per lane.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// `true` when the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.n_lanes == 0
    }

    /// One feature's values across all lanes, contiguous.
    ///
    /// # Panics
    ///
    /// Panics if `feature >= n_features`.
    pub fn col(&self, feature: usize) -> &[f64] {
        assert!(feature < self.n_features, "feature index out of range");
        &self.cols[feature * self.n_lanes..(feature + 1) * self.n_lanes]
    }

    /// The whole `n_features × n_lanes` column-major storage as one flat
    /// slice (`value(feature, lane)` lives at `feature * n_lanes + lane`).
    /// Batched kernels whose per-element feature index varies by lane (the
    /// compiled-tree walk) index this directly — one bounds check on a
    /// flat slice instead of a per-element column-slice construction.
    #[inline]
    pub fn flat(&self) -> &[f64] {
        &self.cols
    }

    /// Writes one value.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `feature` is out of range.
    #[inline]
    pub fn set(&mut self, lane: usize, feature: usize, value: f64) {
        assert!(lane < self.n_lanes, "lane index out of range");
        self.cols[feature * self.n_lanes + lane] = value;
    }

    /// Scatters one row-major feature row into the columns (the transpose
    /// step when building a batch from per-sample rows).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `x.len() != n_features`.
    // hmd-analyze: hot-path
    pub fn set_lane(&mut self, lane: usize, x: &[f64]) {
        assert!(lane < self.n_lanes, "lane index out of range");
        assert_eq!(x.len(), self.n_features, "row width mismatch");
        for (feature, &v) in x.iter().enumerate() {
            self.cols[feature * self.n_lanes + lane] = v;
        }
    }

    /// Gathers one lane back into a row-major buffer (cleared, then
    /// filled) — the inverse of [`set_lane`](Self::set_lane), used by the
    /// default scalar-fallback batch path.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    // hmd-analyze: hot-path
    pub fn lane_into(&self, lane: usize, out: &mut Vec<f64>) {
        assert!(lane < self.n_lanes, "lane index out of range");
        out.clear();
        out.extend((0..self.n_features).map(|f| self.cols[f * self.n_lanes + lane]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_lane_transposes() {
        let mut b = BatchScratch::new();
        b.reset(3, 2);
        b.set_lane(0, &[1.0, 2.0, 3.0]);
        b.set_lane(1, &[4.0, 5.0, 6.0]);
        assert_eq!(b.col(0), &[1.0, 4.0]);
        assert_eq!(b.col(1), &[2.0, 5.0]);
        assert_eq!(b.col(2), &[3.0, 6.0]);
    }

    #[test]
    fn lane_into_roundtrips() {
        let mut b = BatchScratch::new();
        b.reset(2, 2);
        b.set_lane(0, &[1.5, -2.5]);
        b.set_lane(1, &[f64::NAN, 0.0]);
        let mut row = Vec::new();
        b.lane_into(1, &mut row);
        assert!(row[0].is_nan());
        assert_eq!(row[1], 0.0);
    }

    #[test]
    fn reset_reuses_and_zeroes() {
        let mut b = BatchScratch::new();
        b.reset(2, 2);
        b.set(1, 1, 9.0);
        b.reset(2, 2);
        assert_eq!(b.col(1), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn set_lane_checks_width() {
        let mut b = BatchScratch::new();
        b.reset(2, 1);
        b.set_lane(0, &[1.0]);
    }
}
