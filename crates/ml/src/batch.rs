//! Column-major batch storage for
//! [`Classifier::predict_proba_batch_into`](crate::classifier::Classifier::predict_proba_batch_into).
//!
//! Serving scores one feature row at a time. [`BatchScratch`] and the
//! trait's batch method remain for the traced cascade split in
//! `perfbench/src/pump_resident.rs`, which times stage 2 per class over a
//! burst. The trait's only implementation gathers each lane back into a
//! row and calls the scalar `predict_proba_into`, so a batched row is
//! bit-identical to the scalar one (property-tested in
//! `crates/ml/tests/prop_into.rs`).
//!
//! # Examples
//!
//! ```
//! use hmd_ml::batch::BatchScratch;
//!
//! let mut batch = BatchScratch::new();
//! batch.reset(2, 3); // 2 features × 3 lanes
//! batch.set(1, 0, 2.0);
//! batch.set(1, 1, 20.0);
//! let mut row = Vec::new();
//! batch.lane_into(1, &mut row);
//! assert_eq!(row, [2.0, 20.0]);
//! ```

/// Column-major feature storage for one inference batch.
///
/// A reusable scratch container: [`reset`](Self::reset) reshapes it for a
/// new batch without shrinking its allocation.
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

    /// Writes one value.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `feature` is out of range.
    pub fn set(&mut self, lane: usize, feature: usize, value: f64) {
        assert!(lane < self.n_lanes, "lane index out of range");
        self.cols[feature * self.n_lanes + lane] = value;
    }

    /// Gathers one lane into a row-major buffer (cleared, then filled).
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
    fn lane_into_roundtrips() {
        let mut b = BatchScratch::new();
        b.reset(2, 2);
        b.set(0, 0, 1.5);
        b.set(0, 1, -2.5);
        b.set(1, 0, f64::NAN);
        let mut row = Vec::new();
        b.lane_into(0, &mut row);
        assert_eq!(row, [1.5, -2.5]);
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
        let mut row = Vec::new();
        b.lane_into(1, &mut row);
        assert_eq!(row, [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "lane index out of range")]
    fn set_checks_the_lane() {
        let mut b = BatchScratch::new();
        b.reset(2, 1);
        b.set(1, 0, 1.0);
    }
}
