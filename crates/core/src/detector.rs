//! The end-to-end 2SMaRT detector.
//!
//! [`TwoSmartDetector`] composes stage 1 (MLR application-type prediction on
//! the 4 Common HPCs) with stage 2 (one specialized detector per malware
//! class). At run time a sample is routed by stage 1; if a malware class is
//! predicted, that class's specialized detector confirms or overturns it —
//! the paper's Fig. 3 flow.
//!
//! The builder selects, per class, the classifier that maximizes detection
//! performance (`F × AUC`) on an internal validation split — reproducing the
//! paper's observation that no single algorithm wins every class — unless an
//! explicit choice is pinned with [`TwoSmartBuilder::classifier_for`].
//!
//! # Examples
//!
//! ```no_run
//! use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
//! use twosmart::detector::{TwoSmartDetector, Verdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = CorpusBuilder::new(CorpusSpec::small()).build();
//! let detector = TwoSmartDetector::builder().boosted(true).train(&corpus)?;
//! match detector.detect(&corpus.records()[0].features) {
//!     Verdict::Benign => println!("clean"),
//!     Verdict::Malware { class, confidence } => {
//!         println!("{class} ({confidence:.2})");
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use crate::features::COMMON_EVENTS;
use crate::pipeline::{class_dataset_from, full_dataset};
use crate::stage1::Stage1Model;
use crate::stage2::{SpecializedDetector, Stage2Config};
use hmd_hpc_sim::corpus::Corpus;
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::{argmax, ClassifierKind, TrainError};
use hmd_ml::data::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The detector's run-time decision for one sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// No malware detected.
    Benign,
    /// Malware detected and classified.
    Malware {
        /// The predicted malware class.
        class: AppClass,
        /// The specialized detector's probability for the class.
        confidence: f64,
    },
}

impl Verdict {
    /// `true` for any [`Verdict::Malware`].
    pub fn is_malware(&self) -> bool {
        matches!(self, Verdict::Malware { .. })
    }
}

/// How the cascade decides whether to run stage 2 for a row that stage 1
/// routed to a malware class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CascadeMode {
    /// Run stage 2 for every malware-routed row: the verdict is
    /// [`TwoSmartDetector::detect`]'s.
    Always,
    /// Skip stage 2 when the stage-1 probability of the routed class is at
    /// least this threshold; the verdict is then
    /// `Malware { class: routed, confidence: stage1_probability }` without
    /// the specialist confirmation pass. Rows below the threshold fall
    /// through to stage 2 and match [`CascadeMode::Always`] exactly.
    ///
    /// Pick the threshold with
    /// [`TwoSmartDetector::calibrate_gate`]; `Gated(t)` with `t > 1.0`
    /// degenerates to [`CascadeMode::Always`].
    Gated(f64),
}

/// One row's outcome from [`TwoSmartDetector::cascade`]: the verdict, the
/// stage-1 routing, and whether the stage-2 specialist actually ran
/// (benign-routed and gate-skipped rows never invoke it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CascadeVerdict {
    /// The detection outcome for the row.
    pub verdict: Verdict,
    /// The class stage 1 routed this row to. Distinguishes an overturned
    /// malware routing (`routed` malware, `verdict` benign) from a
    /// benign routing, so cost accounting can attribute stage-2 work per
    /// class even when the specialist disagrees.
    pub routed: AppClass,
    /// `true` when the stage-2 specialist scored this row.
    pub stage2_ran: bool,
}

/// The scratch slot of [`TwoSmartDetector::detect_batch_with`]. The
/// cascade keeps every buffer on the stack, so it holds nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectBatchScratch;

impl DetectBatchScratch {
    /// The (empty) scratch.
    pub fn new() -> DetectBatchScratch {
        DetectBatchScratch
    }
}

/// Builder for [`TwoSmartDetector`].
#[derive(Debug, Clone)]
pub struct TwoSmartBuilder {
    seed: u64,
    n_hpcs: usize,
    boosted: bool,
    pinned: Vec<(AppClass, ClassifierKind)>,
    validation_frac: f64,
}

impl TwoSmartBuilder {
    /// Defaults: 4 HPCs (run-time budget), unboosted, automatic per-class
    /// classifier selection, seed 0.
    pub fn new() -> TwoSmartBuilder {
        TwoSmartBuilder {
            seed: 0,
            n_hpcs: 4,
            boosted: false,
            pinned: Vec::new(),
            validation_frac: 0.7,
        }
    }

    /// Sets the RNG seed (splits, learner initialization).
    pub fn seed(mut self, seed: u64) -> TwoSmartBuilder {
        self.seed = seed;
        self
    }

    /// Sets the stage-2 HPC budget (4, 8 or 16).
    ///
    /// # Panics
    ///
    /// Panics unless `n_hpcs` is 4, 8 or 16.
    pub fn hpc_budget(mut self, n_hpcs: usize) -> TwoSmartBuilder {
        assert!(
            matches!(n_hpcs, 4 | 8 | 16),
            "the paper evaluates 4, 8 and 16 HPCs, got {n_hpcs}"
        );
        self.n_hpcs = n_hpcs;
        self
    }

    /// Enables AdaBoost around every stage-2 base learner (Boosted-HMD).
    pub fn boosted(mut self, boosted: bool) -> TwoSmartBuilder {
        self.boosted = boosted;
        self
    }

    /// Pins the classifier for one malware class instead of automatic
    /// selection.
    ///
    /// # Panics
    ///
    /// Panics if `class` is benign.
    pub fn classifier_for(mut self, class: AppClass, kind: ClassifierKind) -> TwoSmartBuilder {
        assert!(
            class.is_malware(),
            "only malware classes have stage-2 detectors"
        );
        self.pinned.retain(|(c, _)| *c != class);
        self.pinned.push((class, kind));
        self
    }

    /// Trains the two-stage detector on a profiled corpus.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if stage 1 or any stage-2 learner cannot fit.
    pub fn train(&self, corpus: &Corpus) -> Result<TwoSmartDetector, TrainError> {
        self.train_on(&full_dataset(corpus))
    }

    /// Trains on an existing 5-class, 44-event dataset (lets experiment
    /// harnesses control the train/test split).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if stage 1 or any stage-2 learner cannot fit.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a 5-class 44-event dataset with instances of
    /// every class.
    pub fn train_on(&self, data: &Dataset) -> Result<TwoSmartDetector, TrainError> {
        let stage1 = Stage1Model::train(data, &COMMON_EVENTS)?;

        // The four specialists are independent, so they train in parallel.
        // Each class's selection RNG is seeded from (builder seed, class
        // index) — never from a stream shared across classes — so the
        // detector is identical at any thread count.
        let stage2 = hmd_ml::par::par_map(AppClass::MALWARE.to_vec(), |idx, class| {
            let binary = class_dataset_from(data, class);
            let kind = match self.pinned.iter().find(|(c, _)| *c == class) {
                Some((_, kind)) => *kind,
                None => {
                    let class_seed = hmd_ml::par::derive_seed(self.seed, idx as u64);
                    let mut rng = StdRng::seed_from_u64(class_seed);
                    self.select_kind(&binary, class, &mut rng)?
                }
            };
            let config = Stage2Config::new(kind)
                .with_hpcs(self.n_hpcs)
                .with_boosting(self.boosted);
            SpecializedDetector::train(&binary, class, &config, self.seed)
        })
        .into_iter()
        .collect::<Result<Vec<_>, TrainError>>()?;

        Ok(TwoSmartDetector { stage1, stage2 })
    }

    /// Picks the classifier with the best validation detection performance
    /// for one class.
    fn select_kind(
        &self,
        binary: &Dataset,
        class: AppClass,
        rng: &mut StdRng,
    ) -> Result<ClassifierKind, TrainError> {
        let (fit, validate) = binary.stratified_split(self.validation_frac, rng);
        let mut best: Option<(f64, ClassifierKind)> = None;
        for kind in ClassifierKind::ALL {
            let config = Stage2Config::new(kind)
                .with_hpcs(self.n_hpcs)
                .with_boosting(self.boosted);
            let Ok(det) = SpecializedDetector::train(&fit, class, &config, self.seed) else {
                continue;
            };
            let perf = det.evaluate(&validate).performance();
            let better = match best {
                None => true,
                Some((bp, _)) => perf > bp,
            };
            if better {
                best = Some((perf, kind));
            }
        }
        best.map(|(_, kind)| kind).ok_or_else(|| {
            TrainError::Unfittable(format!("no classifier could be fitted for {class}"))
        })
    }
}

impl Default for TwoSmartBuilder {
    fn default() -> Self {
        TwoSmartBuilder::new()
    }
}

/// A trained two-stage detector.
#[derive(Debug, Clone)]
pub struct TwoSmartDetector {
    stage1: Stage1Model,
    stage2: Vec<SpecializedDetector>,
}

impl TwoSmartDetector {
    /// Starts building a detector.
    pub fn builder() -> TwoSmartBuilder {
        TwoSmartBuilder::new()
    }

    /// Reassembles a detector from persisted parts (see
    /// [`crate::persist::DetectorSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics unless `stage2` holds exactly one specialist per malware
    /// class.
    pub fn from_parts(stage1: Stage1Model, stage2: Vec<SpecializedDetector>) -> TwoSmartDetector {
        for class in AppClass::MALWARE {
            assert!(
                stage2.iter().any(|d| d.class() == class),
                "missing specialist for {class}"
            );
        }
        assert_eq!(
            stage2.len(),
            AppClass::MALWARE.len(),
            "one specialist per class"
        );
        TwoSmartDetector { stage1, stage2 }
    }

    /// The stage-1 application-type predictor.
    pub fn stage1(&self) -> &Stage1Model {
        &self.stage1
    }

    /// The specialized detector for one malware class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is benign.
    pub fn stage2(&self, class: AppClass) -> &SpecializedDetector {
        assert!(class.is_malware(), "stage 2 has no benign detector");
        self.stage2
            .iter()
            .find(|d| d.class() == class)
            .expect("trained detector covers every malware class")
    }

    /// All four specialized detectors.
    pub fn stage2_all(&self) -> &[SpecializedDetector] {
        &self.stage2
    }

    /// Classifies one 44-event feature row through both stages: one
    /// stage-1 routing call and, for a malware routing, one specialist
    /// score. Allocation-free; every buffer lives on the stack.
    ///
    /// # Panics
    ///
    /// Panics if `features44` does not have 44 entries.
    // hmd-analyze: hot-path
    pub fn detect(&self, features44: &[f64]) -> Verdict {
        self.cascade(features44, CascadeMode::Always).verdict
    }

    /// The two-stage cascade on one 44-event feature row under `mode`:
    /// stage 1 routes the row, and a malware routing is confirmed or
    /// overturned by that class's specialist. Under
    /// [`CascadeMode::Gated`], a row whose routed-class stage-1
    /// probability clears the gate skips stage 2 and reports that
    /// probability as its confidence, with `stage2_ran = false`.
    /// Allocation-free; every buffer lives on the stack.
    ///
    /// # Panics
    ///
    /// Panics if `features44` does not have 44 entries.
    // hmd-analyze: hot-path
    pub fn cascade(&self, features44: &[f64], mode: CascadeMode) -> CascadeVerdict {
        let proba = self.stage1.class_probabilities(features44);
        let routed = AppClass::from_label(argmax(&proba)).expect("5-class model");
        if routed == AppClass::Benign {
            return CascadeVerdict {
                verdict: Verdict::Benign,
                routed,
                stage2_ran: false,
            };
        }
        if let CascadeMode::Gated(t) = mode {
            let confidence = proba[routed.label()];
            // `Less | None` rather than `confidence < t`: a NaN stage-1
            // probability (incomparable, `None`) must fall through to the
            // specialist, not skip it.
            if !matches!(
                confidence.partial_cmp(&t),
                Some(std::cmp::Ordering::Less) | None
            ) {
                return CascadeVerdict {
                    verdict: Verdict::Malware {
                        class: routed,
                        confidence,
                    },
                    routed,
                    stage2_ran: false,
                };
            }
        }
        let specialist = self.stage2(routed);
        let confidence = specialist.score(features44);
        let verdict = if confidence >= specialist.threshold() {
            Verdict::Malware {
                class: routed,
                confidence,
            }
        } else {
            Verdict::Benign
        };
        CascadeVerdict {
            verdict,
            routed,
            stage2_ran: true,
        }
    }

    /// [`cascade`](Self::cascade) on every row of `features` (row-major
    /// `lanes × 44`): `out` is cleared and refilled with one
    /// [`CascadeVerdict`] per row, in row order. Kept for the traced
    /// cascade split in `perfbench/src/pump_resident.rs`; serving scores
    /// each row as its window fills.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not a multiple of 44.
    pub fn detect_batch_with(
        &self,
        features: &[f64],
        mode: CascadeMode,
        _scratch: &mut DetectBatchScratch,
        out: &mut Vec<CascadeVerdict>,
    ) {
        assert_eq!(
            features.len() % Event::COUNT,
            0,
            "expected whole 44-event rows"
        );
        out.clear();
        out.extend(
            features
                .chunks_exact(Event::COUNT)
                .map(|row| self.cascade(row, mode)),
        );
    }

    /// Picks the gate threshold for [`CascadeMode::Gated`] from a 5-class
    /// 44-event validation set.
    ///
    /// Candidates are the midpoints between consecutive distinct stage-1
    /// routed-class probabilities observed on malware-routed validation
    /// rows (plus `1.0`, the "skip only at full confidence" fallback). The
    /// chosen threshold maximizes the gated pipeline's pooled
    /// malware-vs-benign F-measure; among thresholds within `1e-9` of the
    /// best, the smallest wins — it skips the most stage-2 work for the
    /// same measured quality.
    pub fn calibrate_gate(&self, validation: &Dataset) -> f64 {
        struct Sample {
            truth: bool,
            /// Stage-1 probability of the routed class; `None` when routed
            /// benign.
            conf: Option<f64>,
            /// Whether the always-run cascade flags this row as malware.
            always_malware: bool,
        }
        let samples: Vec<Sample> = (0..validation.len())
            .map(|i| {
                let x = validation.features_of(i);
                let truth = validation.label_of(i) != AppClass::Benign.label();
                let proba = self.stage1.class_probabilities(x);
                let routed = AppClass::from_label(argmax(&proba)).expect("5-class model");
                if routed == AppClass::Benign {
                    return Sample {
                        truth,
                        conf: None,
                        always_malware: false,
                    };
                }
                let specialist = self.stage2(routed);
                Sample {
                    truth,
                    conf: Some(proba[routed.label()]),
                    always_malware: specialist.score(x) >= specialist.threshold(),
                }
            })
            .collect();

        let mut confs: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.conf)
            .filter(|c| c.is_finite())
            .collect();
        confs.sort_by(f64::total_cmp);
        confs.dedup();
        let mut candidates = vec![1.0];
        candidates.extend(confs.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2.0));

        let f_at = |t: f64| -> f64 {
            f_measure(samples.iter().map(|s| {
                let predicted = match s.conf {
                    None => false,
                    Some(conf) => conf >= t || s.always_malware,
                };
                (s.truth, predicted)
            }))
        };

        let best_f = candidates
            .iter()
            .map(|&t| f_at(t))
            .max_by(f64::total_cmp)
            .expect("at least the 1.0 candidate");
        candidates
            .into_iter()
            .filter(|&t| f_at(t) >= best_f - 1e-9)
            .min_by(f64::total_cmp)
            .expect("at least one candidate within tolerance")
    }

    /// The events a run-time deployment must program — defined only for
    /// detectors whose every stage reads the 4 Common events.
    ///
    /// Returns `None` if any stage-2 detector needs more than the Common
    /// events (8/16-HPC budgets require multiple profiling runs and are not
    /// run-time deployable).
    pub fn runtime_events(&self) -> Option<&[Event]> {
        let common = self.stage1.events();
        let deployable = self
            .stage2
            .iter()
            .all(|d| d.events().iter().all(|e| common.contains(e)));
        deployable.then_some(common)
    }

    /// Run-time detection from raw counter readings, in
    /// [`runtime_events`](Self::runtime_events) order — the entry point a
    /// deployment uses, where only the 4 programmed counters exist.
    ///
    /// # Panics
    ///
    /// Panics if the detector is not run-time deployable (see
    /// [`runtime_events`](Self::runtime_events)) or `counters` has the
    /// wrong length.
    // hmd-analyze: hot-path
    pub fn detect_from_counters(&self, counters: &[f64]) -> Verdict {
        let events = self
            .runtime_events()
            .expect("detector reads beyond the 4 run-time HPCs; train with hpc_budget(4)");
        assert_eq!(
            counters.len(),
            events.len(),
            "one reading per programmed event"
        );
        let mut features44 = [0.0; Event::COUNT];
        for (e, &c) in events.iter().zip(counters) {
            features44[e.index()] = c;
        }
        self.detect(&features44)
    }

    /// Pooled malware-vs-benign F-measure of the full pipeline on a
    /// 5-class 44-event test set: positives are all malware instances and a
    /// prediction counts whenever [`detect`](Self::detect) flags malware of
    /// *any* class (Fig. 5b's comparison against single-stage HMDs).
    pub fn binary_f_measure(&self, test: &Dataset) -> f64 {
        f_measure((0..test.len()).map(|i| {
            let truth = test.label_of(i) != AppClass::Benign.label();
            (truth, self.detect(test.features_of(i)).is_malware())
        }))
    }

    /// Per-class F-measure of the full two-stage pipeline on a 5-class
    /// 44-event test set: for class `c`, positives are instances of `c` and
    /// a prediction counts when [`detect`](Self::detect) returns
    /// `Malware { class: c, .. }` (Fig. 5a's 2SMaRT bars).
    pub fn class_f_measure(&self, test: &Dataset, class: AppClass) -> f64 {
        f_measure((0..test.len()).map(|i| {
            let truth = test.label_of(i) == class.label();
            let predicted = matches!(
                self.detect(test.features_of(i)),
                Verdict::Malware { class: c, .. } if c == class
            );
            (truth, predicted)
        }))
    }
}

/// F-measure of `(truth, predicted)` pairs, positives being `true`: 0 when
/// nothing is a true positive, else the harmonic mean of precision and
/// recall.
fn f_measure(outcomes: impl Iterator<Item = (bool, bool)>) -> f64 {
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fn_ = 0.0;
    for outcome in outcomes {
        match outcome {
            (true, true) => tp += 1.0,
            (false, true) => fp += 1.0,
            (true, false) => fn_ += 1.0,
            (false, false) => {}
        }
    }
    if tp == 0.0 {
        return 0.0;
    }
    let p = tp / (tp + fp);
    let r = tp / (tp + fn_);
    2.0 * p * r / (p + r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};

    fn corpus() -> Corpus {
        CorpusBuilder::new(CorpusSpec::tiny()).build()
    }

    #[test]
    fn builder_trains_all_stages() {
        let c = corpus();
        let det = TwoSmartDetector::builder()
            .seed(1)
            .classifier_for(AppClass::Virus, ClassifierKind::J48)
            .classifier_for(AppClass::Trojan, ClassifierKind::J48)
            .classifier_for(AppClass::Rootkit, ClassifierKind::J48)
            .classifier_for(AppClass::Backdoor, ClassifierKind::J48)
            .train(&c)
            .unwrap();
        assert_eq!(det.stage2_all().len(), 4);
        assert_eq!(det.stage2(AppClass::Virus).class(), AppClass::Virus);
    }

    #[test]
    fn detect_returns_a_verdict_for_every_record() {
        let c = corpus();
        let det = TwoSmartDetector::builder()
            .seed(2)
            .classifier_for(AppClass::Virus, ClassifierKind::OneR)
            .classifier_for(AppClass::Trojan, ClassifierKind::OneR)
            .classifier_for(AppClass::Rootkit, ClassifierKind::OneR)
            .classifier_for(AppClass::Backdoor, ClassifierKind::OneR)
            .train(&c)
            .unwrap();
        for r in c.records() {
            let v = det.detect(&r.features);
            if let Verdict::Malware { confidence, .. } = v {
                assert!((0.0..=1.0).contains(&confidence));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no benign detector")]
    fn stage2_rejects_benign_lookup() {
        let c = corpus();
        let det = TwoSmartDetector::builder()
            .classifier_for(AppClass::Virus, ClassifierKind::OneR)
            .classifier_for(AppClass::Trojan, ClassifierKind::OneR)
            .classifier_for(AppClass::Rootkit, ClassifierKind::OneR)
            .classifier_for(AppClass::Backdoor, ClassifierKind::OneR)
            .train(&c)
            .unwrap();
        det.stage2(AppClass::Benign);
    }

    #[test]
    #[should_panic(expected = "4, 8 and 16")]
    fn builder_rejects_odd_budget() {
        TwoSmartDetector::builder().hpc_budget(6);
    }

    #[test]
    fn runtime_detection_matches_full_vector_path() {
        let c = corpus();
        let det = TwoSmartDetector::builder()
            .seed(5)
            .hpc_budget(4)
            .classifier_for(AppClass::Virus, ClassifierKind::J48)
            .classifier_for(AppClass::Trojan, ClassifierKind::J48)
            .classifier_for(AppClass::Rootkit, ClassifierKind::J48)
            .classifier_for(AppClass::Backdoor, ClassifierKind::J48)
            .train(&c)
            .unwrap();
        let events = det.runtime_events().expect("4-HPC detector is deployable");
        assert_eq!(events.len(), 4);
        for r in c.records().iter().take(6) {
            let counters: Vec<f64> = events.iter().map(|e| r.features[e.index()]).collect();
            assert_eq!(det.detect_from_counters(&counters), det.detect(&r.features));
        }
    }

    #[test]
    fn eight_hpc_detector_is_not_runtime_deployable() {
        let c = corpus();
        let det = TwoSmartDetector::builder()
            .seed(5)
            .hpc_budget(8)
            .classifier_for(AppClass::Virus, ClassifierKind::OneR)
            .classifier_for(AppClass::Trojan, ClassifierKind::OneR)
            .classifier_for(AppClass::Rootkit, ClassifierKind::OneR)
            .classifier_for(AppClass::Backdoor, ClassifierKind::OneR)
            .train(&c)
            .unwrap();
        assert!(det.runtime_events().is_none());
    }

    #[test]
    fn verdict_is_malware() {
        assert!(!Verdict::Benign.is_malware());
        assert!(Verdict::Malware {
            class: AppClass::Virus,
            confidence: 0.9
        }
        .is_malware());
    }
}
