//! The [`Classifier`] trait and the classifier taxonomy used by 2SMaRT.
//!
//! The paper evaluates four general ML classifiers for the specialized
//! second stage — **J48** (C4.5 decision tree), **JRip** (RIPPER rule
//! learner), **MLP** (multilayer perceptron) and **OneR** (one-rule) — plus
//! **MLR** (multinomial logistic regression) for the first stage and
//! **AdaBoost** as the ensemble booster. [`ClassifierKind`] enumerates the
//! four stage-2 candidates so experiment grids can iterate over them.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::classifier::{Classifier, ClassifierKind};
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.1], vec![1.0], vec![1.1]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut model = ClassifierKind::J48.build(42);
//! model.fit(&data)?;
//! assert_eq!(model.predict(&[1.05]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batch::BatchScratch;
use crate::data::Dataset;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::error::Error;
use std::fmt;

thread_local! {
    /// Reused row-gather scratch for the default (scalar-fallback)
    /// `predict_proba_batch_into` implementation.
    static BATCH_ROW: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Errors raised while training a classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The dataset is too small for this learner.
    TooFewInstances {
        /// Minimum instances the learner needs.
        needed: usize,
        /// Instances supplied.
        got: usize,
    },
    /// The learner could not produce a model (degenerate data, divergence…).
    Unfittable(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::TooFewInstances { needed, got } => {
                write!(f, "training needs at least {needed} instances, got {got}")
            }
            TrainError::Unfittable(msg) => write!(f, "could not fit model: {msg}"),
        }
    }
}

impl Error for TrainError {}

/// A trainable multiclass classifier over numeric features.
///
/// Implementations are deterministic given their construction seed, so
/// experiments are reproducible. `Send + Sync` because trained models are
/// plain data: serving shares one trained detector template across worker
/// threads.
pub trait Classifier: fmt::Debug + Send + Sync {
    /// Trains the model on `data`, replacing any previous fit.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the data cannot support a model.
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError>;

    /// Writes class-membership probabilities for one instance into `out`
    /// (one slot per class, summing to 1), overwriting every slot.
    ///
    /// This is each classifier's one scoring path: hot paths (serving,
    /// online detection) call it with a reused scratch buffer, and
    /// [`predict_proba`](Self::predict_proba) wraps it.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted, `x` has the wrong number of
    /// features, or `out.len() != n_classes`.
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]);

    /// Class-membership probabilities for one instance
    /// (length = `n_classes`, sums to 1): allocates the output and fills it
    /// with [`predict_proba_into`](Self::predict_proba_into).
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted, or `x` has the wrong number
    /// of features.
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_classes()];
        self.predict_proba_into(x, &mut out);
        out
    }

    /// Writes class-membership probabilities for every lane of a
    /// column-major [`BatchScratch`] into `out` (row-major:
    /// `out[lane * n_classes + c]`) — the batched form of
    /// [`predict_proba_into`](Self::predict_proba_into).
    ///
    /// For every lane, the written row is **bit-identical** to a scalar
    /// `predict_proba_into` call on that lane's feature row. The default
    /// implementation guarantees this by construction (it gathers each
    /// lane and calls the scalar path); batch-shaped overrides (compiled
    /// trees, MLR, AdaBoost) must preserve the scalar per-lane operation
    /// order exactly.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted, the batch has the wrong
    /// number of features, or `out.len() != n_lanes × n_classes`.
    // hmd-analyze: hot-path
    // hmd-analyze: allow(transitive-hot-path-alloc, "default gathers each lane and calls the scalar predict_proba_into, whose self dispatch resolves name-wide to KNN's and its per-query distance buffer; every other scalar scorer is allocation-free")
    fn predict_proba_batch_into(&self, batch: &BatchScratch, out: &mut [f64]) {
        let k = self.n_classes();
        assert_eq!(
            out.len(),
            batch.n_lanes() * k,
            "predict_proba_batch_into: out has {} slots for {} lanes × {} classes",
            out.len(),
            batch.n_lanes(),
            k
        );
        BATCH_ROW.with(|row| {
            let mut row = row.borrow_mut();
            for (lane, out_row) in out.chunks_exact_mut(k).enumerate() {
                batch.lane_into(lane, &mut row);
                self.predict_proba_into(&row, out_row);
            }
        });
    }

    /// The most probable class for one instance.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted.
    fn predict(&self, x: &[f64]) -> usize {
        let p = self.predict_proba(x);
        argmax(&p)
    }

    /// Number of classes the fitted model distinguishes.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted.
    fn n_classes(&self) -> usize;

    /// Short human-readable algorithm name (e.g. `"J48"`).
    fn name(&self) -> &'static str;

    /// Clones the classifier (including fitted state) behind a box —
    /// object-safe stand-in for `Clone`.
    fn clone_box(&self) -> Box<dyn Classifier>;

    /// The concrete model as [`Any`], so downstream analyses (e.g. the
    /// FPGA cost model) can downcast and inspect fitted structure.
    fn as_any(&self) -> &dyn Any;
}

impl Clone for Box<dyn Classifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn argmax(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

/// The four general ML classifiers the paper evaluates per malware class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ClassifierKind {
    /// C4.5 decision tree (WEKA's J48).
    J48,
    /// RIPPER rule learner (WEKA's JRip).
    JRip,
    /// Multilayer perceptron.
    Mlp,
    /// One-rule single-attribute classifier.
    OneR,
}

impl ClassifierKind {
    /// All four stage-2 candidate classifiers, in the paper's table order.
    pub const ALL: [ClassifierKind; 4] = [
        ClassifierKind::J48,
        ClassifierKind::JRip,
        ClassifierKind::Mlp,
        ClassifierKind::OneR,
    ];

    /// The name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::J48 => "J48",
            ClassifierKind::JRip => "JRip",
            ClassifierKind::Mlp => "MLP",
            ClassifierKind::OneR => "OneR",
        }
    }

    /// Builds an unfitted classifier of this kind with default (WEKA-like)
    /// hyperparameters and the given seed.
    pub fn build(self, seed: u64) -> Box<dyn Classifier> {
        match self {
            ClassifierKind::J48 => Box::new(crate::tree::J48::new()),
            ClassifierKind::JRip => Box::new(crate::rules::JRip::new(seed)),
            ClassifierKind::Mlp => Box::new(crate::mlp::Mlp::new(seed)),
            ClassifierKind::OneR => Box::new(crate::oner::OneR::new()),
        }
    }
}

impl fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_empty_panics() {
        argmax(&[]);
    }

    #[test]
    fn kind_names_match_paper() {
        let names: Vec<_> = ClassifierKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["J48", "JRip", "MLP", "OneR"]);
    }

    #[test]
    fn train_error_display() {
        let e = TrainError::TooFewInstances { needed: 2, got: 0 };
        assert!(e.to_string().contains("at least 2"));
    }
}
