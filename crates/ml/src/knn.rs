//! k-nearest-neighbours — the classifier of the field's founding paper.
//!
//! Demme et al. (ISCA'13, the paper's reference \[5\]) established HPC-based
//! malware detection with KNN; it serves here as an extended baseline. The
//! implementation is a z-scored brute-force search with distance-weighted
//! votes — exact, and fast enough at corpus scale (n ≤ a few thousand).
//!
//! # Examples
//!
//! ```
//! use hmd_ml::knn::Knn;
//! use hmd_ml::classifier::Classifier;
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.1], vec![1.0], vec![1.1]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut knn = Knn::new(3);
//! knn.fit(&data)?;
//! assert_eq!(knn.predict(&[1.05]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::classifier::{Classifier, TrainError};
use crate::data::{Dataset, Standardizer};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fitted {
    standardizer: Standardizer,
    points: Vec<Vec<f64>>,
    labels: Vec<usize>,
    n_classes: usize,
}

/// The k-nearest-neighbours classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Knn {
    k: usize,
    fitted: Option<Fitted>,
}

impl Knn {
    /// A new unfitted model voting over `k` neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Knn {
        assert!(k > 0, "k must be at least 1");
        Knn { k, fitted: None }
    }

    /// The neighbour count.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Classifier for Knn {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        if data.len() < self.k {
            return Err(TrainError::TooFewInstances {
                needed: self.k,
                got: data.len(),
            });
        }
        let standardizer = Standardizer::fit(data);
        let z = standardizer.transform(data);
        self.fitted = Some(Fitted {
            standardizer,
            points: z.features().to_vec(),
            labels: z.labels().to_vec(),
            n_classes: data.n_classes(),
        });
        Ok(())
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let f = self.fitted.as_ref().expect("KNN not fitted");
        assert_eq!(
            out.len(),
            f.n_classes,
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            f.n_classes
        );
        let q = f.standardizer.transform_row(x);
        // Squared distances to every training point.
        let mut dists: Vec<(f64, usize)> = f
            .points
            .iter()
            .zip(&f.labels)
            .map(|(p, &l)| {
                let d2: f64 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
                (d2, l)
            })
            .collect();
        let k = self.k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).expect("finite distances")
        });
        // Inverse-distance-weighted vote over the k nearest.
        out.fill(0.0);
        for &(d2, l) in &dists[..k] {
            out[l] += 1.0 / (d2.sqrt() + 1e-9);
        }
        let total: f64 = out.iter().sum();
        for v in out.iter_mut() {
            *v /= total;
        }
    }

    fn n_classes(&self) -> usize {
        self.fitted.as_ref().expect("KNN not fitted").n_classes
    }

    fn name(&self) -> &'static str {
        "KNN"
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

    fn clusters() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 / 10.0;
            features.push(vec![j, j]);
            labels.push(0);
            features.push(vec![10.0 + j, 10.0 - j]);
            labels.push(1);
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn classifies_cluster_members() {
        let data = clusters();
        let mut knn = Knn::new(5);
        knn.fit(&data).unwrap();
        assert_eq!(knn.predict(&[0.2, 0.2]), 0);
        assert_eq!(knn.predict(&[10.1, 9.9]), 1);
        assert_eq!(knn.k(), 5);
    }

    #[test]
    fn exact_training_point_is_recovered() {
        let data = clusters();
        let mut knn = Knn::new(1);
        knn.fit(&data).unwrap();
        for i in 0..data.len() {
            assert_eq!(knn.predict(data.features_of(i)), data.label_of(i));
        }
    }

    #[test]
    fn probabilities_form_a_distribution() {
        let mut knn = Knn::new(3);
        knn.fit(&clusters()).unwrap();
        let p = knn.predict_proba(&[5.0, 5.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn closer_neighbours_dominate_the_vote() {
        // One close class-0 point against two far class-1 points.
        let data =
            Dataset::new(vec![vec![0.0], vec![100.0], vec![101.0]], vec![0, 1, 1], 2).unwrap();
        let mut knn = Knn::new(3);
        knn.fit(&data).unwrap();
        assert_eq!(knn.predict(&[1.0]), 0, "distance weighting beats majority");
    }

    #[test]
    fn too_few_instances_is_an_error() {
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1], 2).unwrap();
        assert!(matches!(
            Knn::new(5).fit(&data),
            Err(TrainError::TooFewInstances { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        Knn::new(1).predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        Knn::new(0);
    }
}
