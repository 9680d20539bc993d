//! Bagging (bootstrap aggregating) with optional feature subsampling.
//!
//! The authors' companion work (Sayadi et al., DAC'18 — the paper's
//! reference \[8\]) compares boosting against **bagging** for HPC-based
//! malware detection; this implementation completes that comparison here.
//! Each base model trains on a bootstrap resample; with
//! [`Bagging::with_feature_fraction`] below 1.0 each base also sees a
//! random feature subset, which over tree learners yields a random-forest
//! style ensemble. Prediction averages the base probabilities.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::bagging::Bagging;
//! use hmd_ml::classifier::{Classifier, ClassifierKind};
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.2], vec![0.8], vec![1.0]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut ens = Bagging::new(ClassifierKind::J48, 5, 42);
//! ens.fit(&data)?;
//! assert_eq!(ens.predict(&[0.9]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::classifier::{Classifier, ClassifierKind, TrainError};
use crate::data::{Dataset, SortedColumns};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

thread_local! {
    /// Reused (projected features, member probability) scratch for the
    /// allocation-free `predict_proba_into` path.
    static BAGGING_SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

struct BaggedModel {
    model: Box<dyn Classifier>,
    /// Feature columns this base model was trained on.
    features: Vec<usize>,
}

impl fmt::Debug for BaggedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BaggedModel")
            .field("model", &self.model.name())
            .field("features", &self.features)
            .finish()
    }
}

impl Clone for BaggedModel {
    fn clone(&self) -> Self {
        BaggedModel {
            model: self.model.clone_box(),
            features: self.features.clone(),
        }
    }
}

/// The bagging ensemble.
#[derive(Debug, Clone)]
pub struct Bagging {
    base: ClassifierKind,
    size: usize,
    seed: u64,
    feature_fraction: f64,
    models: Vec<BaggedModel>,
    n_classes: usize,
}

impl Bagging {
    /// WEKA's default ensemble size (`Bagging -I 10`).
    pub const DEFAULT_SIZE: usize = 10;

    /// A new unfitted ensemble of `size` bootstrap-trained base models.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(base: ClassifierKind, size: usize, seed: u64) -> Bagging {
        assert!(size > 0, "ensemble needs at least one model");
        Bagging {
            base,
            size,
            seed,
            feature_fraction: 1.0,
            models: Vec::new(),
            n_classes: 0,
        }
    }

    /// Trains each base model on a random subset of features
    /// (`0 < fraction <= 1`); with a tree base this is a random-forest
    /// style ensemble.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn with_feature_fraction(mut self, fraction: f64) -> Bagging {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "feature fraction must be in (0, 1], got {fraction}"
        );
        self.feature_fraction = fraction;
        self
    }

    /// The base classifier kind.
    pub fn base_kind(&self) -> ClassifierKind {
        self.base
    }

    /// Number of fitted base models.
    pub fn ensemble_size(&self) -> usize {
        self.models.len()
    }

    /// Fits against a shared [`SortedColumns`] cache.
    ///
    /// Every member draws the same bootstrap and feature subset from the
    /// same per-member RNG as a materializing fit; a J48 base then consumes
    /// the cache through a per-row multiplicity array instead of a
    /// materialized resample, and grows bit-identical members. The cache is
    /// read-only shared state, so members still train in parallel.
    ///
    /// # Errors
    ///
    /// [`TrainError::TooFewInstances`] if the dataset has fewer than 2 rows.
    ///
    /// # Panics
    ///
    /// Panics if `cols` does not cover `data`'s shape.
    pub fn fit_cached(&mut self, data: &Dataset, cols: &SortedColumns) -> Result<(), TrainError> {
        assert_eq!(
            cols.n_rows(),
            data.len(),
            "SortedColumns row count must match dataset"
        );
        assert_eq!(
            cols.n_columns(),
            data.n_features(),
            "SortedColumns column count must match dataset"
        );
        self.fit_impl(data, Some(cols))
    }

    fn fit_impl(&mut self, data: &Dataset, cols: Option<&SortedColumns>) -> Result<(), TrainError> {
        if data.len() < 2 {
            return Err(TrainError::TooFewInstances {
                needed: 2,
                got: data.len(),
            });
        }
        let n = data.len();
        let d = data.n_features();
        let keep = ((d as f64 * self.feature_fraction).ceil() as usize).clamp(1, d);
        let uniform = vec![1.0; n];
        let (base, seed) = (self.base, self.seed);
        // Members train in parallel; each draws its resample and feature
        // subset from an RNG seeded by (ensemble seed, member index), so
        // the ensemble is identical at any thread count.
        let models = crate::par::par_map((0..self.size).collect(), |_, t| {
            let mut rng = StdRng::seed_from_u64(crate::par::derive_seed(seed, t as u64));
            match (base, cols) {
                (ClassifierKind::J48, Some(cols)) => {
                    // Presorted path: same RNG draws as the materializing
                    // path below, expressed as row multiplicities over the
                    // shared cache. (`ClassifierKind::build` ignores a
                    // J48's seed, so constructing the tree directly changes
                    // nothing.)
                    let draws = data.weighted_resample_indices(&uniform, n, &mut rng);
                    let mut features: Vec<usize> = (0..d).collect();
                    if keep < d {
                        features.shuffle(&mut rng);
                        features.truncate(keep);
                        features.sort_unstable();
                    }
                    let mut mult = vec![0u32; n];
                    for &i in &draws {
                        mult[i] += 1;
                    }
                    let mut tree = crate::tree::J48::new();
                    tree.fit_presorted(data, cols, Some(&mult), Some(&features))?;
                    Ok(BaggedModel {
                        model: Box::new(tree),
                        features,
                    })
                }
                _ => {
                    let sample = data.weighted_resample(&uniform, n, &mut rng);
                    let mut features: Vec<usize> = (0..d).collect();
                    let view = if keep < d {
                        features.shuffle(&mut rng);
                        features.truncate(keep);
                        features.sort_unstable();
                        sample.select_features(&features)
                    } else {
                        sample
                    };
                    let mut model = base.build(seed.wrapping_add(t as u64 + 1));
                    model.fit(&view)?;
                    Ok(BaggedModel { model, features })
                }
            }
        })
        .into_iter()
        .collect::<Result<Vec<_>, TrainError>>()?;
        self.models = models;
        self.n_classes = data.n_classes();
        Ok(())
    }
}

impl Classifier for Bagging {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        // A J48 base profits from a presorted cache even for a single
        // ensemble (it amortizes over all members); other bases keep the
        // materializing path, whose cost their own training dominates.
        if self.base == ClassifierKind::J48 && data.len() >= 2 {
            let cols = SortedColumns::new(data);
            self.fit_impl(data, Some(&cols))
        } else {
            self.fit_impl(data, None)
        }
    }

    // hmd-analyze: hot-path
    // hmd-analyze: allow(transitive-hot-path-alloc, "members are dyn Classifier, so resolution reaches KNN's predict_proba_into and its per-query distance buffer; members are built from a ClassifierKind, whose scorers are allocation-free")
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert!(!self.models.is_empty(), "Bagging not fitted");
        assert_eq!(
            out.len(),
            self.n_classes,
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            self.n_classes
        );
        out.fill(0.0);
        BAGGING_SCRATCH.with(|s| {
            let (projected, proba) = &mut *s.borrow_mut();
            for m in &self.models {
                projected.clear();
                projected.extend(m.features.iter().map(|&i| x[i]));
                proba.resize(m.model.n_classes(), 0.0);
                m.model.predict_proba_into(projected, proba);
                for (a, p) in out.iter_mut().zip(proba.iter()) {
                    *a += p;
                }
            }
        });
        for a in out.iter_mut() {
            *a /= self.models.len() as f64;
        }
    }

    fn n_classes(&self) -> usize {
        assert!(!self.models.is_empty(), "Bagging not fitted");
        self.n_classes
    }

    fn name(&self) -> &'static str {
        "Bagging"
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
    use crate::data::arb;
    use crate::metrics::ConfusionMatrix;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn cached_fit_matches_the_materializing_fit(
            data in arb::dupey_dataset(),
            seed in any::<u64>(),
        ) {
            let ensemble = || {
                Bagging::new(ClassifierKind::J48, 5, seed).with_feature_fraction(0.75)
            };
            let mut materialized = ensemble();
            materialized.fit_impl(&data, None).expect("materializing fit");
            let cols = SortedColumns::new(&data);
            let mut cached = ensemble();
            cached.fit_cached(&data, &cols).expect("cached fit");
            for i in 0..data.len() {
                // Members are trees with exact-f64 vote averaging: identical
                // models give bitwise-equal probabilities.
                prop_assert_eq!(
                    materialized.predict_proba(data.features_of(i)),
                    cached.predict_proba(data.features_of(i))
                );
            }
        }
    }

    fn noisy_band() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120usize {
            let x = i as f64 / 120.0;
            let noise = ((i.wrapping_mul(2654435761)) % 100) as f64 / 500.0;
            features.push(vec![x + noise, (i % 7) as f64]);
            labels.push(usize::from((0.35..0.65).contains(&x)));
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn bagging_fits_and_predicts_sanely() {
        let data = noisy_band();
        let mut ens = Bagging::new(ClassifierKind::J48, 7, 1);
        ens.fit(&data).unwrap();
        assert_eq!(ens.ensemble_size(), 7);
        let acc = ConfusionMatrix::from_model(&ens, &data).accuracy();
        assert!(acc > 0.85, "training accuracy {acc}");
        let p = ens.predict_proba(data.features_of(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feature_subsampling_trains_on_subsets() {
        let data = noisy_band();
        let mut ens = Bagging::new(ClassifierKind::J48, 5, 2).with_feature_fraction(0.5);
        ens.fit(&data).unwrap();
        // One of two features kept per base model.
        for m in &ens.models {
            assert_eq!(m.features.len(), 1);
        }
        // Still predicts.
        let _ = ens.predict(data.features_of(0));
    }

    #[test]
    fn members_draw_distinct_bootstraps() {
        // The per-member derived seeds must give members *different*
        // resamples/subsets — a collapsed derivation would quietly turn
        // the ensemble into one model repeated.
        let data = noisy_band();
        let mut ens = Bagging::new(ClassifierKind::J48, 6, 2).with_feature_fraction(0.5);
        ens.fit(&data).unwrap();
        let subsets: Vec<&[usize]> = ens.models.iter().map(|m| m.features.as_slice()).collect();
        assert!(
            subsets.iter().any(|s| *s != subsets[0]),
            "all members kept the same feature subset: {subsets:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = noisy_band();
        let mut a = Bagging::new(ClassifierKind::OneR, 5, 9);
        let mut b = Bagging::new(ClassifierKind::OneR, 5, 9);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        for i in 0..5 {
            assert_eq!(
                a.predict_proba(data.features_of(i)),
                b.predict_proba(data.features_of(i))
            );
        }
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        Bagging::new(ClassifierKind::J48, 2, 0).predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "feature fraction")]
    fn zero_feature_fraction_panics() {
        Bagging::new(ClassifierKind::J48, 2, 0).with_feature_fraction(0.0);
    }
}
