//! AdaBoost.M1 (Freund & Schapire, 1996; WEKA's `AdaBoostM1`).
//!
//! The ensemble method 2SMaRT cascades onto its specialized stage-2
//! detectors: base classifiers are trained on weighted resamples of the
//! training set, instance weights concentrate on previous mistakes, and the
//! final prediction is a log-odds-weighted vote. The paper shows boosting a
//! 4-HPC detector recovers (tree/rule learners) or degrades (MLP,
//! overfitting) the detection performance of 8/16-HPC detectors — both
//! effects emerge naturally from this implementation.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::boost::AdaBoost;
//! use hmd_ml::classifier::{Classifier, ClassifierKind};
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.3], vec![0.7], vec![1.0]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut ens = AdaBoost::new(ClassifierKind::J48, 5, 42);
//! ens.fit(&data)?;
//! assert_eq!(ens.predict(&[0.9]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batch::BatchScratch;
use crate::classifier::{argmax, Classifier, ClassifierKind, TrainError};
use crate::data::{Dataset, SortedColumns};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

thread_local! {
    /// Reused base-model probability scratch for the allocation-free
    /// `predict_proba_into` path.
    static BOOST_MEMBER: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Reused base-model batch probability matrix for
    /// `predict_proba_batch_into`.
    static BOOST_BATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// One boosted round: a fitted base model and its vote weight.
struct Round {
    model: Box<dyn Classifier>,
    /// `ln(1/β)` — the log-odds vote weight.
    weight: f64,
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Round")
            .field("model", &self.model.name())
            .field("weight", &self.weight)
            .finish()
    }
}

impl Clone for Round {
    fn clone(&self) -> Self {
        Round {
            model: self.model.clone_box(),
            weight: self.weight,
        }
    }
}

/// The AdaBoost.M1 ensemble over a base [`ClassifierKind`].
#[derive(Debug, Clone)]
pub struct AdaBoost {
    base: ClassifierKind,
    iterations: usize,
    seed: u64,
    rounds: Vec<Round>,
    n_classes: usize,
}

impl AdaBoost {
    /// WEKA's default number of boosting iterations (`-I 10`).
    pub const DEFAULT_ITERATIONS: usize = 10;

    /// A new unfitted ensemble of `iterations` base classifiers of `base`
    /// kind.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(base: ClassifierKind, iterations: usize, seed: u64) -> AdaBoost {
        assert!(iterations > 0, "need at least one boosting iteration");
        AdaBoost {
            base,
            iterations,
            seed,
            rounds: Vec::new(),
            n_classes: 0,
        }
    }

    /// An ensemble of already-fitted `(base model, vote weight)` rounds in
    /// boosting order, as a snapshot restores it. The seed is not part of a
    /// snapshot, so a refit trains `rounds.len()` iterations from seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is empty.
    pub(crate) fn from_rounds(
        base: ClassifierKind,
        rounds: Vec<(Box<dyn Classifier>, f64)>,
        n_classes: usize,
    ) -> AdaBoost {
        assert!(!rounds.is_empty(), "need at least one boosting iteration");
        AdaBoost {
            base,
            iterations: rounds.len(),
            seed: 0,
            rounds: rounds
                .into_iter()
                .map(|(model, weight)| Round { model, weight })
                .collect(),
            n_classes,
        }
    }

    /// The base classifier kind.
    pub fn base_kind(&self) -> ClassifierKind {
        self.base
    }

    /// Number of base models actually kept after fitting (early-stopping
    /// can keep fewer than requested).
    pub fn ensemble_size(&self) -> usize {
        self.rounds.len()
    }

    /// The fitted base models, in boosting order.
    pub fn base_models(&self) -> Vec<&dyn Classifier> {
        self.rounds.iter().map(|r| r.model.as_ref()).collect()
    }

    /// The vote weight `ln(1/β)` of each base model.
    pub fn vote_weights(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.weight).collect()
    }

    /// Fits against a shared [`SortedColumns`] cache.
    ///
    /// The sequential boosting RNG makes the same weighted-resample draws
    /// as a materializing fit; a J48 base then trains on a per-row
    /// multiplicity array over the shared cache instead of a materialized
    /// resample, and grows bit-identical rounds.
    ///
    /// # Errors
    ///
    /// [`TrainError::TooFewInstances`] if the dataset has fewer than 2
    /// rows; [`TrainError::Unfittable`] if no base round could be fitted.
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
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut weights = vec![1.0 / n as f64; n];
        let mut rounds: Vec<Round> = Vec::new();

        for t in 0..self.iterations {
            let model = match (self.base, cols) {
                (ClassifierKind::J48, Some(cols)) => {
                    // Presorted path: identical RNG draws to the
                    // materializing arm below, expressed as multiplicities.
                    // (`ClassifierKind::build` ignores a J48's seed.)
                    let draws = data.weighted_resample_indices(&weights, n, &mut rng);
                    let mut mult = vec![0u32; n];
                    for &i in &draws {
                        mult[i] += 1;
                    }
                    let mut tree = crate::tree::J48::new();
                    if tree.fit_presorted(data, cols, Some(&mult), None).is_err() {
                        break;
                    }
                    Box::new(tree) as Box<dyn Classifier>
                }
                _ => {
                    let sample = data.weighted_resample(&weights, n, &mut rng);
                    let mut model = self.base.build(self.seed.wrapping_add(t as u64 + 1));
                    if model.fit(&sample).is_err() {
                        break;
                    }
                    model
                }
            };

            // Weighted error on the *original* training set.
            let mut err = 0.0;
            let predictions: Vec<usize> =
                (0..n).map(|i| model.predict(data.features_of(i))).collect();
            for i in 0..n {
                if predictions[i] != data.label_of(i) {
                    err += weights[i];
                }
            }

            if err >= 0.5 {
                // Base learner no better than chance on the weighted data:
                // keep the first model if we have none, then stop.
                if rounds.is_empty() {
                    rounds.push(Round { model, weight: 1.0 });
                }
                break;
            }
            if err <= 1e-12 {
                // Perfect model: dominate the vote and stop.
                rounds.push(Round {
                    model,
                    weight: (1e12f64).ln(),
                });
                break;
            }

            let beta = err / (1.0 - err);
            rounds.push(Round {
                model,
                weight: (1.0 / beta).ln(),
            });

            // Down-weight correct instances, renormalize.
            for i in 0..n {
                if predictions[i] == data.label_of(i) {
                    weights[i] *= beta;
                }
            }
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
        }

        if rounds.is_empty() {
            return Err(TrainError::Unfittable(
                "no base classifier could be fitted".into(),
            ));
        }
        self.n_classes = data.n_classes();
        self.rounds = rounds;
        Ok(())
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        // A J48 base gets a one-off presorted cache shared by all rounds;
        // other bases keep the materializing path.
        if self.base == ClassifierKind::J48 && data.len() >= 2 {
            let cols = SortedColumns::new(data);
            self.fit_impl(data, Some(&cols))
        } else {
            self.fit_impl(data, None)
        }
    }

    // hmd-analyze: hot-path
    // hmd-analyze: allow(transitive-hot-path-alloc, "round stumps are dyn Classifier, so resolution reaches KNN's predict_proba_into and its per-query distance buffer; stumps are built from a ClassifierKind, whose scorers are allocation-free")
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert!(!self.rounds.is_empty(), "AdaBoost not fitted");
        assert_eq!(
            out.len(),
            self.n_classes,
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            self.n_classes
        );
        out.fill(0.0);
        BOOST_MEMBER.with(|buf| {
            let mut buf = buf.borrow_mut();
            for round in &self.rounds {
                buf.resize(round.model.n_classes(), 0.0);
                round.model.predict_proba_into(x, &mut buf);
                // Same argmax tie-break as the default `predict`.
                out[argmax(&buf)] += round.weight;
            }
        });
        let total: f64 = out.iter().sum();
        if total <= 0.0 {
            out.fill(1.0 / self.n_classes as f64);
        } else {
            for v in out.iter_mut() {
                *v /= total;
            }
        }
    }

    // Round-major accumulation: each base model scores the whole batch
    // once, then its vote weight lands on every lane's argmax slot. Per
    // lane, the weights still arrive in round order and the final
    // sum/normalize runs left-to-right over the class row — the exact
    // per-lane operation sequence of the scalar path, so results are
    // bit-identical.
    // hmd-analyze: hot-path
    fn predict_proba_batch_into(&self, batch: &BatchScratch, out: &mut [f64]) {
        assert!(!self.rounds.is_empty(), "AdaBoost not fitted");
        let lanes = batch.n_lanes();
        assert_eq!(
            out.len(),
            lanes * self.n_classes,
            "predict_proba_batch_into: out has {} slots for {} lanes × {} classes",
            out.len(),
            lanes,
            self.n_classes
        );
        out.fill(0.0);
        BOOST_BATCH.with(|buf| {
            let mut buf = buf.borrow_mut();
            for round in &self.rounds {
                let nc = round.model.n_classes();
                buf.clear();
                buf.resize(lanes * nc, 0.0);
                round.model.predict_proba_batch_into(batch, &mut buf);
                for (member_row, out_row) in buf
                    .chunks_exact(nc)
                    .zip(out.chunks_exact_mut(self.n_classes))
                {
                    // Same argmax tie-break as the scalar path.
                    out_row[argmax(member_row)] += round.weight;
                }
            }
        });
        for out_row in out.chunks_exact_mut(self.n_classes) {
            let total: f64 = out_row.iter().sum();
            if total <= 0.0 {
                out_row.fill(1.0 / self.n_classes as f64);
            } else {
                for v in out_row.iter_mut() {
                    *v /= total;
                }
            }
        }
    }

    fn n_classes(&self) -> usize {
        assert!(!self.rounds.is_empty(), "AdaBoost not fitted");
        self.n_classes
    }

    fn name(&self) -> &'static str {
        "AdaBoost"
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
    use crate::tree::J48;
    use proptest::prelude::*;

    fn tree_bytes(model: &dyn Classifier) -> String {
        let tree = model.as_any().downcast_ref::<J48>().expect("J48 member");
        serde_json::to_string(tree).expect("J48 serializes")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn cached_fit_matches_the_materializing_fit(
            data in arb::dupey_dataset(),
            seed in any::<u64>(),
        ) {
            let mut materialized = AdaBoost::new(ClassifierKind::J48, 5, seed);
            materialized.fit_impl(&data, None).expect("materializing fit");
            let cols = SortedColumns::new(&data);
            let mut cached = AdaBoost::new(ClassifierKind::J48, 5, seed);
            cached.fit_cached(&data, &cols).expect("cached fit");
            prop_assert_eq!(materialized.ensemble_size(), cached.ensemble_size());
            prop_assert_eq!(materialized.vote_weights(), cached.vote_weights());
            for (a, b) in materialized.base_models().into_iter().zip(cached.base_models()) {
                prop_assert_eq!(tree_bytes(a), tree_bytes(b));
            }
        }
    }

    /// A band dataset a depth-limited stump-ish learner cannot solve alone
    /// but boosting can.
    fn band() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let x = i as f64 / 90.0;
            features.push(vec![x]);
            labels.push(usize::from((0.33..0.66).contains(&x)));
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn boosting_improves_over_weak_base() {
        let data = band();
        // OneR with the default bucket can struggle; boosted it should not.
        let mut single = ClassifierKind::OneR.build(0);
        single.fit(&data).unwrap();
        let single_acc = ConfusionMatrix::from_model(single.as_ref(), &data).accuracy();

        let mut boosted = AdaBoost::new(ClassifierKind::OneR, 15, 0);
        boosted.fit(&data).unwrap();
        let boosted_acc = ConfusionMatrix::from_model(&boosted, &data).accuracy();
        assert!(
            boosted_acc >= single_acc,
            "boosted {boosted_acc} vs single {single_acc}"
        );
        assert!(boosted_acc > 0.9, "boosted accuracy {boosted_acc}");
    }

    #[test]
    fn ensemble_stops_early_on_perfect_base() {
        let data = Dataset::new(
            vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        let mut ens = AdaBoost::new(ClassifierKind::J48, 10, 3);
        ens.fit(&data).unwrap();
        assert_eq!(ens.ensemble_size(), 1, "perfect J48 ends boosting");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut ens = AdaBoost::new(ClassifierKind::J48, 5, 1);
        ens.fit(&band()).unwrap();
        let p = ens.predict_proba(&[0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = band();
        let mut a = AdaBoost::new(ClassifierKind::JRip, 5, 7);
        let mut b = AdaBoost::new(ClassifierKind::JRip, 5, 7);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        for x in [[0.2], [0.5], [0.8]] {
            assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
        }
    }

    #[test]
    fn reports_base_kind_and_name() {
        let ens = AdaBoost::new(ClassifierKind::Mlp, 3, 0);
        assert_eq!(ens.base_kind(), ClassifierKind::Mlp);
        assert_eq!(ens.name(), "AdaBoost");
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        AdaBoost::new(ClassifierKind::OneR, 2, 0).predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one boosting iteration")]
    fn zero_iterations_panics() {
        AdaBoost::new(ClassifierKind::J48, 0, 0);
    }
}
