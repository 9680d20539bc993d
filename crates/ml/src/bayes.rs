//! Gaussian Naive Bayes.
//!
//! A standard lightweight baseline in the HPC-malware literature (it
//! appears alongside the paper's four classifiers in the authors' companion
//! studies): per class, each feature is modelled as an independent Gaussian
//! fitted by maximum likelihood; prediction is the posterior under a class
//! prior. Cheap to train, cheap in hardware (one multiply-accumulate chain
//! per class), and a useful sanity floor for the extended-baselines
//! ablation.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::bayes::NaiveBayes;
//! use hmd_ml::classifier::Classifier;
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![1.0], vec![1.2], vec![5.0], vec![5.3]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut nb = NaiveBayes::new();
//! nb.fit(&data)?;
//! assert_eq!(nb.predict(&[5.1]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::classifier::{Classifier, TrainError};
use crate::data::Dataset;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClassModel {
    log_prior: f64,
    means: Vec<f64>,
    /// Per-feature variances, floored for numerical stability.
    vars: Vec<f64>,
}

/// The Gaussian Naive Bayes classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveBayes {
    var_floor: f64,
    classes: Vec<ClassModel>,
}

impl NaiveBayes {
    /// Relative variance floor: per feature, variances below
    /// `floor × global variance` are clamped (degenerate spikes otherwise
    /// dominate the likelihood).
    pub const DEFAULT_VAR_FLOOR: f64 = 1e-9;

    /// A new unfitted model.
    pub fn new() -> NaiveBayes {
        NaiveBayes {
            var_floor: Self::DEFAULT_VAR_FLOOR,
            classes: Vec::new(),
        }
    }
}

impl Default for NaiveBayes {
    fn default() -> Self {
        NaiveBayes::new()
    }
}

impl Classifier for NaiveBayes {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        if data.len() < 2 {
            return Err(TrainError::TooFewInstances {
                needed: 2,
                got: data.len(),
            });
        }
        let d = data.n_features();
        let n = data.len() as f64;

        // Global per-feature variance for the floor.
        let mut gmean = vec![0.0; d];
        for row in data.features() {
            for (m, v) in gmean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut gmean {
            *m /= n;
        }
        let mut gvar = vec![0.0; d];
        for row in data.features() {
            for ((gv, v), m) in gvar.iter_mut().zip(row).zip(&gmean) {
                *gv += (v - m) * (v - m);
            }
        }
        for gv in &mut gvar {
            *gv = (*gv / n).max(1e-300);
        }

        let mut classes = Vec::with_capacity(data.n_classes());
        for class in 0..data.n_classes() {
            let idx: Vec<usize> = (0..data.len())
                .filter(|&i| data.label_of(i) == class)
                .collect();
            if idx.is_empty() {
                // Absent class: tiny prior, global statistics.
                classes.push(ClassModel {
                    log_prior: (1.0 / (n + data.n_classes() as f64)).ln(),
                    means: gmean.clone(),
                    vars: gvar.clone(),
                });
                continue;
            }
            let nc = idx.len() as f64;
            let mut means = vec![0.0; d];
            for &i in &idx {
                for (m, v) in means.iter_mut().zip(data.features_of(i)) {
                    *m += v;
                }
            }
            for m in &mut means {
                *m /= nc;
            }
            let mut vars = vec![0.0; d];
            for &i in &idx {
                for ((var, v), m) in vars.iter_mut().zip(data.features_of(i)).zip(&means) {
                    *var += (v - m) * (v - m);
                }
            }
            for (var, gv) in vars.iter_mut().zip(&gvar) {
                *var = (*var / nc).max(self.var_floor * gv).max(1e-300);
            }
            classes.push(ClassModel {
                // Laplace-smoothed prior.
                log_prior: ((nc + 1.0) / (n + data.n_classes() as f64)).ln(),
                means,
                vars,
            });
        }
        self.classes = classes;
        Ok(())
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert!(!self.classes.is_empty(), "NaiveBayes not fitted");
        assert_eq!(
            out.len(),
            self.classes.len(),
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            self.classes.len()
        );
        // Log posteriors, then a softmax: shift by the max, exponentiate,
        // normalize.
        for (slot, c) in out.iter_mut().zip(&self.classes) {
            let mut lp = c.log_prior;
            for ((v, m), var) in x.iter().zip(&c.means).zip(&c.vars) {
                let diff = v - m;
                lp += -0.5 * (2.0 * std::f64::consts::PI * var).ln() - diff * diff / (2.0 * var);
            }
            *slot = lp;
        }
        let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for slot in out.iter_mut() {
            *slot = (*slot - max).exp();
        }
        let sum: f64 = out.iter().sum();
        for slot in out.iter_mut() {
            *slot /= sum;
        }
    }

    fn n_classes(&self) -> usize {
        assert!(!self.classes.is_empty(), "NaiveBayes not fitted");
        self.classes.len()
    }

    fn name(&self) -> &'static str {
        "NaiveBayes"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let jitter = ((i * 37) % 10) as f64 / 10.0;
            features.push(vec![jitter, 10.0 + jitter]);
            labels.push(0);
            features.push(vec![5.0 + jitter, jitter]);
            labels.push(1);
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn separates_gaussian_blobs() {
        let data = blobs();
        let mut nb = NaiveBayes::new();
        nb.fit(&data).unwrap();
        let correct = (0..data.len())
            .filter(|&i| nb.predict(data.features_of(i)) == data.label_of(i))
            .count();
        assert_eq!(correct, data.len());
    }

    #[test]
    fn probabilities_sum_to_one_and_are_confident_in_blob_centres() {
        let mut nb = NaiveBayes::new();
        nb.fit(&blobs()).unwrap();
        let p = nb.predict_proba(&[0.5, 10.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > 0.99, "centre of class 0: {p:?}");
    }

    #[test]
    fn constant_features_do_not_produce_nans() {
        let data = Dataset::new(
            vec![
                vec![3.0, 1.0],
                vec![3.0, 2.0],
                vec![3.0, 7.0],
                vec![3.0, 9.0],
            ],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        let mut nb = NaiveBayes::new();
        nb.fit(&data).unwrap();
        let p = nb.predict_proba(&[3.0, 8.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert_eq!(nb.predict(&[3.0, 8.0]), 1);
    }

    #[test]
    fn priors_shape_the_posterior_on_ambiguous_points() {
        // Class 0 has 9x the instances; an ambiguous point leans class 0.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            features.push(vec![(i % 10) as f64]);
            labels.push(0);
        }
        for i in 0..10 {
            features.push(vec![(i % 10) as f64]);
            labels.push(1);
        }
        let data = Dataset::new(features, labels, 2).unwrap();
        let mut nb = NaiveBayes::new();
        nb.fit(&data).unwrap();
        assert_eq!(nb.predict(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        NaiveBayes::new().predict(&[0.0]);
    }
}
