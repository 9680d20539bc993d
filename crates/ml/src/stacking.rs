//! Stacking and voting: the remaining ensemble families of the authors'
//! ensemble-learning HMD studies (refs \[8\]\[9\] of the paper).
//!
//! - [`Voting`] — majority vote over heterogeneous base classifiers
//!   (average of their class probabilities).
//! - [`Stacking`] — a meta-learner (multinomial logistic regression)
//!   trained on out-of-fold base-model probabilities, the standard
//!   leak-free stacked generalization recipe.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::stacking::Voting;
//! use hmd_ml::classifier::{Classifier, ClassifierKind};
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.2], vec![0.8], vec![1.0]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut ens = Voting::new(&[ClassifierKind::J48, ClassifierKind::OneR], 1);
//! ens.fit(&data)?;
//! assert_eq!(ens.predict(&[0.9]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::classifier::{Classifier, ClassifierKind, TrainError};
use crate::data::Dataset;
use crate::logistic::Mlr;
use crate::validation::stratified_folds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

thread_local! {
    /// Reused (member probability, meta-feature row) scratch for the
    /// allocation-free `predict_proba_into` paths of [`Voting`] and
    /// [`Stacking`].
    static STACKING_SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Probability-averaging vote over heterogeneous base classifiers.
pub struct Voting {
    kinds: Vec<ClassifierKind>,
    seed: u64,
    models: Vec<Box<dyn Classifier>>,
    n_classes: usize,
}

impl fmt::Debug for Voting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Voting")
            .field("kinds", &self.kinds)
            .field("fitted", &!self.models.is_empty())
            .finish()
    }
}

impl Clone for Voting {
    fn clone(&self) -> Self {
        Voting {
            kinds: self.kinds.clone(),
            seed: self.seed,
            models: self.models.iter().map(|m| m.clone_box()).collect(),
            n_classes: self.n_classes,
        }
    }
}

impl Voting {
    /// A new unfitted committee of the given classifier kinds.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    pub fn new(kinds: &[ClassifierKind], seed: u64) -> Voting {
        assert!(!kinds.is_empty(), "committee needs at least one member");
        Voting {
            kinds: kinds.to_vec(),
            seed,
            models: Vec::new(),
            n_classes: 0,
        }
    }

    /// The committee members' kinds.
    pub fn kinds(&self) -> &[ClassifierKind] {
        &self.kinds
    }
}

impl Classifier for Voting {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        let mut models = Vec::with_capacity(self.kinds.len());
        for (i, kind) in self.kinds.iter().enumerate() {
            let mut model = kind.build(self.seed.wrapping_add(i as u64));
            model.fit(data)?;
            models.push(model);
        }
        self.models = models;
        self.n_classes = data.n_classes();
        Ok(())
    }

    // hmd-analyze: hot-path
    // hmd-analyze: allow(transitive-hot-path-alloc, "members are dyn Classifier, so resolution reaches KNN's predict_proba_into and its per-query distance buffer; members are built from a ClassifierKind, whose scorers are allocation-free")
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert!(!self.models.is_empty(), "Voting not fitted");
        assert_eq!(
            out.len(),
            self.n_classes,
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            self.n_classes
        );
        out.fill(0.0);
        STACKING_SCRATCH.with(|s| {
            let (member, _) = &mut *s.borrow_mut();
            for m in &self.models {
                member.resize(m.n_classes(), 0.0);
                m.predict_proba_into(x, member);
                for (a, p) in out.iter_mut().zip(member.iter()) {
                    *a += p;
                }
            }
        });
        for a in out.iter_mut() {
            *a /= self.models.len() as f64;
        }
    }

    fn n_classes(&self) -> usize {
        assert!(!self.models.is_empty(), "Voting not fitted");
        self.n_classes
    }

    fn name(&self) -> &'static str {
        "Voting"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Stacked generalization: base classifiers + an MLR meta-learner over
/// their out-of-fold probabilities.
pub struct Stacking {
    kinds: Vec<ClassifierKind>,
    folds: usize,
    seed: u64,
    bases: Vec<Box<dyn Classifier>>,
    meta: Option<Mlr>,
    n_classes: usize,
}

impl fmt::Debug for Stacking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stacking")
            .field("kinds", &self.kinds)
            .field("folds", &self.folds)
            .field("fitted", &self.meta.is_some())
            .finish()
    }
}

impl Clone for Stacking {
    fn clone(&self) -> Self {
        Stacking {
            kinds: self.kinds.clone(),
            folds: self.folds,
            seed: self.seed,
            bases: self.bases.iter().map(|m| m.clone_box()).collect(),
            meta: self.meta.clone(),
            n_classes: self.n_classes,
        }
    }
}

impl Stacking {
    /// WEKA's default number of meta-feature folds (`Stacking -X 10`,
    /// reduced here to 5 — adequate and faster).
    pub const DEFAULT_FOLDS: usize = 5;

    /// A new unfitted stack of the given base kinds.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    pub fn new(kinds: &[ClassifierKind], seed: u64) -> Stacking {
        assert!(!kinds.is_empty(), "stack needs at least one base learner");
        Stacking {
            kinds: kinds.to_vec(),
            folds: Self::DEFAULT_FOLDS,
            seed,
            bases: Vec::new(),
            meta: None,
            n_classes: 0,
        }
    }

    /// Sets the number of folds used to build leak-free meta-features.
    ///
    /// # Panics
    ///
    /// Panics if `folds < 2`.
    pub fn with_folds(mut self, folds: usize) -> Stacking {
        assert!(folds >= 2, "meta-features need at least 2 folds");
        self.folds = folds;
        self
    }
}

impl Classifier for Stacking {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        let n = data.len();
        let k = data.n_classes();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let assignment = stratified_folds(data, self.folds, &mut rng);

        // Out-of-fold meta-features: for each fold, train bases on the rest
        // and record their probabilities on the held-out instances.
        let mut meta_features: Vec<Vec<f64>> = vec![Vec::new(); n];
        for held_out in &assignment {
            let train_idx: Vec<usize> = assignment
                .iter()
                .flatten()
                .copied()
                .filter(|i| !held_out.contains(i))
                .collect();
            let fold_train = data.subset(&train_idx);
            for (bi, kind) in self.kinds.iter().enumerate() {
                let mut base = kind.build(self.seed.wrapping_add(bi as u64));
                base.fit(&fold_train)?;
                for &i in held_out {
                    meta_features[i].extend(base.predict_proba(data.features_of(i)));
                }
            }
        }

        let meta_data = Dataset::new(meta_features, data.labels().to_vec(), k)
            .map_err(|e| TrainError::Unfittable(format!("meta-features invalid: {e}")))?;
        let mut meta = Mlr::new();
        meta.fit(&meta_data)?;

        // Final base models retrained on all data.
        let mut bases = Vec::with_capacity(self.kinds.len());
        for (bi, kind) in self.kinds.iter().enumerate() {
            let mut base = kind.build(self.seed.wrapping_add(bi as u64));
            base.fit(data)?;
            bases.push(base);
        }

        self.bases = bases;
        self.meta = Some(meta);
        self.n_classes = k;
        Ok(())
    }

    // hmd-analyze: hot-path
    // hmd-analyze: allow(transitive-hot-path-alloc, "base models are dyn Classifier, so resolution reaches KNN's predict_proba_into and its per-query distance buffer; bases are built from a ClassifierKind and the meta learner is MLR, whose scorers are allocation-free")
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let meta = self.meta.as_ref().expect("Stacking not fitted");
        STACKING_SCRATCH.with(|s| {
            let (member, meta_row) = &mut *s.borrow_mut();
            // Meta-features: base probabilities concatenated in base
            // order, exactly as at fit time.
            meta_row.clear();
            for b in &self.bases {
                member.resize(b.n_classes(), 0.0);
                b.predict_proba_into(x, member);
                meta_row.extend_from_slice(member);
            }
            meta.predict_proba_into(meta_row, out);
        });
    }

    fn n_classes(&self) -> usize {
        assert!(self.meta.is_some(), "Stacking not fitted");
        self.n_classes
    }

    fn name(&self) -> &'static str {
        "Stacking"
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
    use crate::metrics::ConfusionMatrix;

    fn band(n: usize) -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x = i as f64 / n as f64;
            features.push(vec![x, (i % 5) as f64]);
            labels.push(usize::from((0.3..0.7).contains(&x)));
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn voting_averages_probabilities() {
        let data = band(80);
        let mut ens = Voting::new(&[ClassifierKind::J48, ClassifierKind::OneR], 0);
        ens.fit(&data).unwrap();
        let acc = ConfusionMatrix::from_model(&ens, &data).accuracy();
        assert!(acc > 0.85, "accuracy {acc}");
        let p = ens.predict_proba(data.features_of(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(ens.kinds().len(), 2);
    }

    #[test]
    fn stacking_fits_and_beats_chance() {
        let data = band(100);
        let mut stack =
            Stacking::new(&[ClassifierKind::J48, ClassifierKind::OneR], 1).with_folds(4);
        stack.fit(&data).unwrap();
        let acc = ConfusionMatrix::from_model(&stack, &data).accuracy();
        assert!(acc > 0.85, "accuracy {acc}");
        let p = stack.predict_proba(data.features_of(0));
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stacking_is_deterministic_given_seed() {
        let data = band(60);
        let mut a = Stacking::new(&[ClassifierKind::OneR], 9).with_folds(3);
        let mut b = Stacking::new(&[ClassifierKind::OneR], 9).with_folds(3);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        for i in 0..6 {
            assert_eq!(
                a.predict_proba(data.features_of(i)),
                b.predict_proba(data.features_of(i))
            );
        }
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn voting_predict_before_fit_panics() {
        Voting::new(&[ClassifierKind::J48], 0).predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_committee_panics() {
        Voting::new(&[], 0);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn one_fold_stacking_panics() {
        Stacking::new(&[ClassifierKind::J48], 0).with_folds(1);
    }
}
