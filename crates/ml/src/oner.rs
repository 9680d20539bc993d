//! OneR: the one-rule classifier (Holte, 1993; WEKA's `OneR`).
//!
//! OneR picks the **single most predictive attribute** and classifies by a
//! bucketed lookup on it. The paper notes that OneR's detection rate is
//! almost unaffected by feature reduction — it only ever uses one HPC
//! (branch instructions in their data) — which this implementation
//! reproduces: as long as the chosen attribute survives the reduction, the
//! model is identical.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::oner::OneR;
//! use hmd_ml::classifier::Classifier;
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![1.0, 9.9], vec![2.0, 0.1], vec![8.0, 5.5], vec![9.0, 5.6]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut model = OneR::new().with_min_bucket(1);
//! model.fit(&data)?;
//! assert_eq!(model.chosen_attribute(), Some(0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::classifier::{Classifier, TrainError};
use crate::data::Dataset;
use serde::{Deserialize, Serialize};

/// One value bucket of the learned rule: instances with attribute value
/// `< upper` (and ≥ the previous bucket's bound) get `class_counts`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Bucket {
    /// Exclusive upper bound; the last bucket uses `f64::INFINITY`.
    upper: f64,
    /// Training class distribution inside the bucket.
    class_counts: Vec<usize>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fitted {
    attribute: usize,
    buckets: Vec<Bucket>,
    n_classes: usize,
}

/// The OneR classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OneR {
    min_bucket: usize,
    fitted: Option<Fitted>,
}

impl OneR {
    /// WEKA's default minimum bucket size.
    pub const DEFAULT_MIN_BUCKET: usize = 6;

    /// A new unfitted OneR with the default bucket size.
    pub fn new() -> OneR {
        OneR {
            min_bucket: Self::DEFAULT_MIN_BUCKET,
            fitted: None,
        }
    }

    /// Sets the minimum number of instances of the majority class a bucket
    /// must contain before it can close (WEKA's `-B`).
    ///
    /// # Panics
    ///
    /// Panics if `min_bucket == 0`.
    pub fn with_min_bucket(mut self, min_bucket: usize) -> OneR {
        assert!(min_bucket > 0, "min_bucket must be positive");
        self.min_bucket = min_bucket;
        self
    }

    /// The attribute the fitted rule uses, if fitted.
    pub fn chosen_attribute(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.attribute)
    }

    /// Number of buckets in the fitted rule, if fitted.
    pub fn n_buckets(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.buckets.len())
    }

    /// Builds the bucket rule for one attribute and counts its training
    /// errors.
    fn build_rule(&self, data: &Dataset, attr: usize) -> (Vec<Bucket>, usize) {
        let n_classes = data.n_classes();
        let mut pairs: Vec<(f64, usize)> = (0..data.len())
            .map(|i| (data.features_of(i)[attr], data.label_of(i)))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));

        // WEKA-style bucketing: a bucket may close once its majority class
        // has min_bucket members, the next value differs (never split equal
        // values), and the next instance's class breaks the majority run.
        let mut buckets: Vec<Bucket> = Vec::new();
        let mut counts = vec![0usize; n_classes];
        for (i, &(value, label)) in pairs.iter().enumerate() {
            counts[label] += 1;
            let majority = *counts.iter().max().expect("nonempty counts");
            let majority_class = argmax_counts(&counts);
            let next_differs = pairs.get(i + 1).is_none_or(|&(v, _)| v != value);
            let next_breaks_run = pairs.get(i + 1).is_none_or(|&(_, l)| l != majority_class);
            if majority >= self.min_bucket && next_differs && next_breaks_run {
                let upper = match pairs.get(i + 1) {
                    Some(&(v, _)) => (value + v) / 2.0,
                    None => f64::INFINITY,
                };
                buckets.push(Bucket {
                    upper,
                    class_counts: std::mem::replace(&mut counts, vec![0; n_classes]),
                });
            }
        }
        if counts.iter().any(|&c| c > 0) {
            // Leftover tail joins the last bucket (or forms the only one).
            match buckets.last_mut() {
                Some(last) => {
                    last.upper = f64::INFINITY;
                    for (a, b) in last.class_counts.iter_mut().zip(&counts) {
                        *a += b;
                    }
                }
                None => buckets.push(Bucket {
                    upper: f64::INFINITY,
                    class_counts: counts,
                }),
            }
        } else if let Some(last) = buckets.last_mut() {
            last.upper = f64::INFINITY;
        }

        // Merge adjacent buckets with the same majority class.
        let mut merged: Vec<Bucket> = Vec::new();
        for b in buckets {
            match merged.last_mut() {
                Some(prev)
                    if argmax_counts(&prev.class_counts) == argmax_counts(&b.class_counts) =>
                {
                    prev.upper = b.upper;
                    for (a, c) in prev.class_counts.iter_mut().zip(&b.class_counts) {
                        *a += c;
                    }
                }
                _ => merged.push(b),
            }
        }

        let errors: usize = merged
            .iter()
            .map(|b| b.class_counts.iter().sum::<usize>() - b.class_counts.iter().max().unwrap())
            .sum();
        (merged, errors)
    }
}

fn argmax_counts(counts: &[usize]) -> usize {
    let mut best = 0;
    for (i, c) in counts.iter().enumerate().skip(1) {
        if *c > counts[best] {
            best = i;
        }
    }
    best
}

impl Default for OneR {
    fn default() -> Self {
        OneR::new()
    }
}

impl Classifier for OneR {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        if data.len() < 2 {
            return Err(TrainError::TooFewInstances {
                needed: 2,
                got: data.len(),
            });
        }
        let mut best: Option<(usize, Vec<Bucket>, usize)> = None;
        for attr in 0..data.n_features() {
            let (buckets, errors) = self.build_rule(data, attr);
            let better = match &best {
                None => true,
                Some((_, _, best_err)) => errors < *best_err,
            };
            if better {
                best = Some((attr, buckets, errors));
            }
        }
        let (attribute, buckets, _) =
            best.ok_or_else(|| TrainError::Unfittable("no attribute produced a rule".into()))?;
        self.fitted = Some(Fitted {
            attribute,
            buckets,
            n_classes: data.n_classes(),
        });
        Ok(())
    }

    // hmd-analyze: hot-path
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let f = self.fitted.as_ref().expect("OneR not fitted");
        assert_eq!(
            out.len(),
            f.n_classes,
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            f.n_classes
        );
        let v = x[f.attribute];
        let bucket = f
            .buckets
            .iter()
            .find(|b| v < b.upper)
            .unwrap_or_else(|| f.buckets.last().expect("fitted rule has buckets"));
        // Laplace-smoothed bucket distribution.
        let total: usize = bucket.class_counts.iter().sum();
        for (o, &c) in out.iter_mut().zip(&bucket.class_counts) {
            *o = (c as f64 + 1.0) / (total as f64 + f.n_classes as f64);
        }
    }

    fn n_classes(&self) -> usize {
        self.fitted.as_ref().expect("OneR not fitted").n_classes
    }

    fn name(&self) -> &'static str {
        "OneR"
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

    fn separable() -> Dataset {
        // Attribute 0 separates perfectly; attribute 1 is noise.
        let features = vec![
            vec![1.0, 5.0],
            vec![2.0, 1.0],
            vec![3.0, 9.0],
            vec![7.0, 2.0],
            vec![8.0, 8.0],
            vec![9.0, 4.0],
        ];
        Dataset::new(features, vec![0, 0, 0, 1, 1, 1], 2).unwrap()
    }

    #[test]
    fn picks_the_informative_attribute() {
        let mut m = OneR::new().with_min_bucket(2);
        m.fit(&separable()).unwrap();
        assert_eq!(m.chosen_attribute(), Some(0));
        assert_eq!(m.predict(&[1.5, 0.0]), 0);
        assert_eq!(m.predict(&[8.5, 0.0]), 1);
    }

    #[test]
    fn perfect_training_accuracy_on_separable_data() {
        let data = separable();
        let mut m = OneR::new().with_min_bucket(2);
        m.fit(&data).unwrap();
        for i in 0..data.len() {
            assert_eq!(m.predict(data.features_of(i)), data.label_of(i));
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut m = OneR::new().with_min_bucket(2);
        m.fit(&separable()).unwrap();
        let p = m.predict_proba(&[5.0, 5.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_bucket_merges_small_buckets() {
        let data = separable();
        let mut coarse = OneR::new().with_min_bucket(3);
        coarse.fit(&data).unwrap();
        // With min bucket 3 the two classes form exactly two buckets.
        assert_eq!(coarse.n_buckets(), Some(2));
    }

    #[test]
    fn extreme_values_fall_in_terminal_buckets() {
        let mut m = OneR::new().with_min_bucket(2);
        m.fit(&separable()).unwrap();
        assert_eq!(m.predict(&[-1e18, 0.0]), 0);
        assert_eq!(m.predict(&[1e18, 0.0]), 1);
    }

    #[test]
    fn refuses_single_instance() {
        let data = Dataset::new(vec![vec![1.0]], vec![0], 1).unwrap();
        let mut m = OneR::new();
        assert!(matches!(
            m.fit(&data),
            Err(TrainError::TooFewInstances { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        OneR::new().predict(&[0.0]);
    }

    #[test]
    fn handles_constant_attribute() {
        let data = Dataset::new(
            vec![
                vec![1.0, 1.0],
                vec![1.0, 2.0],
                vec![1.0, 8.0],
                vec![1.0, 9.0],
            ],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        let mut m = OneR::new().with_min_bucket(1);
        m.fit(&data).unwrap();
        assert_eq!(m.chosen_attribute(), Some(1));
    }

    #[test]
    fn name_is_oner() {
        assert_eq!(OneR::new().name(), "OneR");
    }
}
