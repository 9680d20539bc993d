//! Stage 2: specialized per-class malware detectors.
//!
//! Each malware class gets its own binary detector (class-vs-benign),
//! trained on that class's feature set at a chosen HPC budget, from one of
//! the paper's four candidate algorithms — optionally wrapped in AdaBoost
//! (the paper's *Boosted-HMD* that lets a 4-HPC detector match an 8/16-HPC
//! one).
//!
//! # Examples
//!
//! ```
//! use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
//! use hmd_hpc_sim::workload::AppClass;
//! use hmd_ml::classifier::ClassifierKind;
//! use twosmart::pipeline::class_dataset;
//! use twosmart::stage2::{SpecializedDetector, Stage2Config};
//!
//! let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
//! let data = class_dataset(&corpus, AppClass::Virus);
//! let config = Stage2Config::new(ClassifierKind::J48).with_hpcs(4);
//! let det = SpecializedDetector::train(&data, AppClass::Virus, &config, 0)?;
//! let malicious = det.is_malware(corpus.records()[0].features.as_slice());
//! println!("{malicious}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::features::FeatureSet;
use crate::pipeline::select_events;
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::boost::AdaBoost;
use hmd_ml::classifier::{Classifier, ClassifierKind, TrainError};
use hmd_ml::data::{Dataset, SortedColumns};
use hmd_ml::feature::CorrelationRanker;
use hmd_ml::metrics::DetectionScore;
use hmd_ml::rules::JRip;
use hmd_ml::tree::J48;
use serde::{Deserialize, Serialize};

/// Configuration of one specialized detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage2Config {
    /// Base learning algorithm.
    pub kind: ClassifierKind,
    /// Number of HPC events: 4 (Common), 8 (Common + Custom) or 16
    /// (correlation-selected, requires multiple profiling runs).
    pub n_hpcs: usize,
    /// Wrap the base learner in AdaBoost (the paper's 4HPC-Boosted mode).
    pub boosted: bool,
    /// AdaBoost iterations when `boosted` (WEKA default 10).
    pub boost_iterations: usize,
}

impl Stage2Config {
    /// A plain (unboosted) config at the run-time budget of 4 HPCs.
    pub fn new(kind: ClassifierKind) -> Stage2Config {
        Stage2Config {
            kind,
            n_hpcs: 4,
            boosted: false,
            boost_iterations: AdaBoost::DEFAULT_ITERATIONS,
        }
    }

    /// Sets the HPC budget.
    ///
    /// # Panics
    ///
    /// Panics unless `n_hpcs` is 4, 8 or 16 (the paper's configurations).
    pub fn with_hpcs(mut self, n_hpcs: usize) -> Stage2Config {
        assert!(
            matches!(n_hpcs, 4 | 8 | 16),
            "the paper evaluates 4, 8 and 16 HPCs, got {n_hpcs}"
        );
        self.n_hpcs = n_hpcs;
        self
    }

    /// Enables AdaBoost around the base learner.
    pub fn with_boosting(mut self, boosted: bool) -> Stage2Config {
        self.boosted = boosted;
        self
    }

    /// Sets the AdaBoost iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn with_boost_iterations(mut self, iterations: usize) -> Stage2Config {
        assert!(iterations > 0, "need at least one boosting iteration");
        self.boost_iterations = iterations;
        self
    }
}

/// Chooses the events for a class at an HPC budget.
///
/// 4 → the Common events; 8 → the class's full Table II set; 16 → the 8-set
/// extended with the most class-correlated remaining events (a 16-HPC
/// configuration exists only offline — it needs 4 profiling runs).
///
/// # Panics
///
/// Panics if `budget` is not 4, 8 or 16, or `data` is not 44-wide binary.
pub fn events_for_budget(data: &Dataset, class: AppClass, budget: usize) -> Vec<Event> {
    let set = FeatureSet::published(class);
    match budget {
        4 => set.common().to_vec(),
        8 => set.all(),
        16 => {
            assert_eq!(data.n_features(), Event::COUNT, "expected 44-event layout");
            let mut events = set.all();
            let ranking = CorrelationRanker::rank(data);
            for (idx, _) in ranking {
                if events.len() >= 16 {
                    break;
                }
                let e = Event::from_index(idx).expect("index < 44");
                if !events.contains(&e) {
                    events.push(e);
                }
            }
            events
        }
        other => panic!("the paper evaluates 4, 8 and 16 HPCs, got {other}"),
    }
}

/// A trained specialized detector for one malware class.
#[derive(Debug)]
pub struct SpecializedDetector {
    class: AppClass,
    config: Stage2Config,
    events: Vec<Event>,
    model: Box<dyn Classifier>,
    threshold: f64,
}

impl Clone for SpecializedDetector {
    fn clone(&self) -> Self {
        SpecializedDetector {
            class: self.class,
            config: self.config,
            events: self.events.clone(),
            model: self.model.clone_box(),
            threshold: self.threshold,
        }
    }
}

impl SpecializedDetector {
    /// Trains a detector on a binary class-vs-benign, 44-event dataset.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the underlying learner cannot fit.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a binary 44-event dataset or `class` is
    /// benign.
    pub fn train(
        data: &Dataset,
        class: AppClass,
        config: &Stage2Config,
        seed: u64,
    ) -> Result<SpecializedDetector, TrainError> {
        assert!(
            class.is_malware(),
            "specialized detectors are per malware class"
        );
        assert_eq!(data.n_classes(), 2, "stage 2 solves binary problems");
        let events = events_for_budget(data, class, config.n_hpcs);
        let reduced = select_events(data, &events);
        let mut model: Box<dyn Classifier> = if config.boosted {
            Box::new(AdaBoost::new(config.kind, config.boost_iterations, seed))
        } else {
            config.kind.build(seed)
        };
        model.fit(&reduced)?;
        Ok(SpecializedDetector {
            class,
            config: *config,
            events,
            model,
            threshold: 0.5,
        })
    }

    /// [`train`](Self::train) against a shared [`SortedColumns`] cache over
    /// the full 44-event dataset, so a sweep training many detectors on the
    /// same split sorts each column once, not once per configuration.
    ///
    /// Bit-identical to `train`: a presorted J48 trains directly on the
    /// cache with its attributes projected to the event subset (in event
    /// order, exactly like a fit on the materialized view); JRip and
    /// boosted configurations project the cache alongside the reduced view;
    /// the remaining learners keep the materializing path untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the underlying learner cannot fit.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a binary 44-event dataset, `class` is
    /// benign, or `cols` does not cover `data`'s shape.
    pub fn train_cached(
        data: &Dataset,
        cols: &SortedColumns,
        class: AppClass,
        config: &Stage2Config,
        seed: u64,
    ) -> Result<SpecializedDetector, TrainError> {
        assert!(
            class.is_malware(),
            "specialized detectors are per malware class"
        );
        assert_eq!(data.n_classes(), 2, "stage 2 solves binary problems");
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
        let events = events_for_budget(data, class, config.n_hpcs);
        let evt_idx: Vec<usize> = events.iter().map(|e| e.index()).collect();
        let model: Box<dyn Classifier> = match (config.boosted, config.kind) {
            (false, ClassifierKind::J48) => {
                // No materialized view at all: local attribute `a` of the
                // tree reads column `evt_idx[a]`, the same layout
                // `select_events` + fit would produce.
                // (`ClassifierKind::build` ignores a J48's seed.)
                let mut tree = J48::new();
                tree.fit_presorted(data, cols, None, Some(&evt_idx))?;
                Box::new(tree)
            }
            (false, ClassifierKind::JRip) => {
                let reduced = select_events(data, &events);
                let rcols = cols.select(&evt_idx);
                let mut model = JRip::new(seed);
                model.fit_cached(&reduced, &rcols)?;
                Box::new(model)
            }
            (true, _) => {
                let reduced = select_events(data, &events);
                let rcols = cols.select(&evt_idx);
                let mut ens = AdaBoost::new(config.kind, config.boost_iterations, seed);
                ens.fit_cached(&reduced, &rcols)?;
                Box::new(ens)
            }
            (false, _) => {
                let reduced = select_events(data, &events);
                let mut model = config.kind.build(seed);
                model.fit(&reduced)?;
                model
            }
        };
        Ok(SpecializedDetector {
            class,
            config: *config,
            events,
            model,
            threshold: 0.5,
        })
    }

    /// Reassembles a detector from persisted parts (see
    /// [`crate::persist::DetectorSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if `class` is benign or `events` is empty.
    pub fn from_parts(
        class: AppClass,
        config: Stage2Config,
        events: Vec<Event>,
        model: Box<dyn Classifier>,
    ) -> SpecializedDetector {
        assert!(
            class.is_malware(),
            "specialized detectors are per malware class"
        );
        assert!(!events.is_empty(), "detector needs at least one event");
        SpecializedDetector {
            class,
            config,
            events,
            model,
            threshold: 0.5,
        }
    }

    /// The decision threshold on the malware probability (default 0.5).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Sets an explicit decision threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `[0, 1]`.
    pub fn set_threshold(&mut self, threshold: f64) {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1], got {threshold}"
        );
        self.threshold = threshold;
    }

    /// Tunes the decision threshold to maximize F-measure on a binary
    /// 44-event validation set, and returns the chosen value.
    ///
    /// Candidates are the midpoints between consecutive distinct validation
    /// scores (plus the 0.5 default); use a held-out split to avoid
    /// optimistic bias.
    ///
    /// # Panics
    ///
    /// Panics if `validation` is not a binary 44-event dataset.
    pub fn tune_threshold(&mut self, validation: &Dataset) -> f64 {
        assert_eq!(validation.n_classes(), 2, "validation must be binary");
        let scores: Vec<f64> = (0..validation.len())
            .map(|i| self.score(validation.features_of(i)))
            .collect();
        let labels: Vec<usize> = validation.labels().to_vec();

        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted.dedup();
        let mut candidates = vec![0.5];
        candidates.extend(sorted.windows(2).map(|w| (w[0] + w[1]) / 2.0));

        let f_at = |t: f64| -> f64 {
            let mut tp = 0.0;
            let mut fp = 0.0;
            let mut fn_ = 0.0;
            for (s, &l) in scores.iter().zip(&labels) {
                let pred = *s >= t;
                match (l == 1, pred) {
                    (true, true) => tp += 1.0,
                    (false, true) => fp += 1.0,
                    (true, false) => fn_ += 1.0,
                    (false, false) => {}
                }
            }
            if tp == 0.0 {
                0.0
            } else {
                2.0 * tp / (2.0 * tp + fp + fn_)
            }
        };
        let best = candidates
            .into_iter()
            .max_by(|a, b| f_at(*a).total_cmp(&f_at(*b)))
            .expect("at least the default candidate");
        self.threshold = best;
        best
    }

    /// The malware class this detector confirms.
    pub fn class(&self) -> AppClass {
        self.class
    }

    /// The configuration it was trained with.
    pub fn config(&self) -> &Stage2Config {
        &self.config
    }

    /// The HPC events it reads.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Probability that a 44-event feature row is this malware class. The
    /// projection and the two class probabilities live on the stack.
    ///
    /// # Panics
    ///
    /// Panics if `features44` does not have 44 entries.
    // hmd-analyze: hot-path
    pub fn score(&self, features44: &[f64]) -> f64 {
        assert_eq!(
            features44.len(),
            Event::COUNT,
            "expected the 44-event layout"
        );
        let mut x = [0.0; Event::COUNT];
        for (slot, e) in x.iter_mut().zip(&self.events) {
            *slot = features44[e.index()];
        }
        let mut proba = [0.0; 2];
        self.model
            .predict_proba_into(&x[..self.events.len()], &mut proba);
        proba[1]
    }

    /// Binary verdict on a 44-event feature row.
    ///
    /// # Panics
    ///
    /// Panics if `features44` does not have 44 entries.
    pub fn is_malware(&self, features44: &[f64]) -> bool {
        self.score(features44) >= self.threshold
    }

    /// F-measure and AUC on a binary 44-event test set.
    pub fn evaluate(&self, test: &Dataset) -> DetectionScore {
        let reduced = select_events(test, &self.events);
        DetectionScore::evaluate(self.model.as_ref(), &reduced)
    }

    /// Access to the fitted model (for hardware-cost extraction).
    pub fn model(&self) -> &dyn Classifier {
        self.model.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::class_dataset;
    use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
    use hmd_ml::model::AnyModel;

    fn virus_data() -> Dataset {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        class_dataset(&corpus, AppClass::Virus)
    }

    #[test]
    fn config_builders_validate() {
        let c = Stage2Config::new(ClassifierKind::JRip)
            .with_hpcs(8)
            .with_boosting(true)
            .with_boost_iterations(5);
        assert_eq!(c.n_hpcs, 8);
        assert!(c.boosted);
        assert_eq!(c.boost_iterations, 5);
    }

    #[test]
    #[should_panic(expected = "4, 8 and 16")]
    fn odd_hpc_budget_rejected() {
        Stage2Config::new(ClassifierKind::J48).with_hpcs(5);
    }

    #[test]
    fn events_for_budget_sizes() {
        let data = virus_data();
        assert_eq!(events_for_budget(&data, AppClass::Virus, 4).len(), 4);
        assert_eq!(events_for_budget(&data, AppClass::Virus, 8).len(), 8);
        let e16 = events_for_budget(&data, AppClass::Virus, 16);
        assert_eq!(e16.len(), 16);
        // No duplicates.
        let set: std::collections::HashSet<_> = e16.iter().collect();
        assert_eq!(set.len(), 16);
        // The 8-set is a prefix of the 16-set.
        assert_eq!(&e16[..8], &events_for_budget(&data, AppClass::Virus, 8)[..]);
    }

    #[test]
    fn trains_and_scores() {
        let data = virus_data();
        let config = Stage2Config::new(ClassifierKind::J48).with_hpcs(8);
        let det = SpecializedDetector::train(&data, AppClass::Virus, &config, 0).unwrap();
        assert_eq!(det.class(), AppClass::Virus);
        assert_eq!(det.events().len(), 8);
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        let s = det.score(&corpus.records()[0].features);
        assert!((0.0..=1.0).contains(&s));
        let eval = det.evaluate(&data);
        assert!(eval.f_measure > 0.0, "training-set F should be positive");
    }

    #[test]
    fn boosted_detector_trains() {
        let data = virus_data();
        let config = Stage2Config::new(ClassifierKind::OneR)
            .with_boosting(true)
            .with_boost_iterations(3);
        let det = SpecializedDetector::train(&data, AppClass::Virus, &config, 1).unwrap();
        assert_eq!(det.model().name(), "AdaBoost");
    }

    #[test]
    fn threshold_tuning_never_hurts_validation_f() {
        let data = virus_data();
        let config = Stage2Config::new(ClassifierKind::J48).with_hpcs(4);
        let mut det = SpecializedDetector::train(&data, AppClass::Virus, &config, 0).unwrap();
        let before = det.evaluate(&data).f_measure;
        let chosen = det.tune_threshold(&data);
        assert!((0.0..=1.0).contains(&chosen));
        let after = det.evaluate(&data).f_measure;
        assert!(after + 1e-9 >= before, "tuned {after} < default {before}");
    }

    #[test]
    fn threshold_shifts_decisions() {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        let data = virus_data();
        let config = Stage2Config::new(ClassifierKind::J48).with_hpcs(4);
        let mut det = SpecializedDetector::train(&data, AppClass::Virus, &config, 0).unwrap();

        // Threshold 0 flags every sample; an unreachable threshold flags
        // none (Laplace smoothing keeps probabilities strictly below 1).
        det.set_threshold(0.0);
        assert!(corpus.records().iter().all(|r| det.is_malware(&r.features)));
        det.set_threshold(1.0);
        assert!(corpus
            .records()
            .iter()
            .all(|r| !det.is_malware(&r.features)));
    }

    #[test]
    fn train_cached_matches_train_in_every_grid_cell() {
        // run_grid trains through `train_cached`; the ablation, table5, roc
        // and calibration paths through `train`. Each of the grid's cells
        // must get the same detector either way.
        let data = virus_data();
        let cols = SortedColumns::new(&data);
        let json = |d: &SpecializedDetector| {
            let model = AnyModel::from_classifier(d.model()).expect("a known model");
            serde_json::to_string(&model).expect("the model serializes")
        };
        for kind in ClassifierKind::ALL {
            for (hpcs, boosted) in [(16, false), (8, false), (4, false), (4, true)] {
                let config = Stage2Config::new(kind)
                    .with_hpcs(hpcs)
                    .with_boosting(boosted);
                let cell = format!("{kind} at {hpcs} HPCs, boosted {boosted}");
                let plain = SpecializedDetector::train(&data, AppClass::Virus, &config, 3).unwrap();
                let cached =
                    SpecializedDetector::train_cached(&data, &cols, AppClass::Virus, &config, 3)
                        .unwrap();
                assert_eq!(plain.events(), cached.events(), "{cell}");
                assert_eq!(
                    plain.threshold().to_bits(),
                    cached.threshold().to_bits(),
                    "{cell}"
                );
                assert_eq!(json(&plain), json(&cached), "{cell}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "per malware class")]
    fn benign_class_rejected() {
        let data = virus_data();
        let config = Stage2Config::new(ClassifierKind::J48);
        let _ = SpecializedDetector::train(&data, AppClass::Benign, &config, 0);
    }
}
