//! Stage 1: the MLR application-type predictor.
//!
//! A multinomial logistic regression over a handful of HPC events that maps
//! a sample to one of the five application classes. The paper trains it on
//! the 4 Common events for run-time use (≈80 % accuracy) and shows 16 events
//! only buy ≈3 points more (≈83 %) — the motivation for the two-stage
//! design: stage 1 is good enough to *route*, and stage 2 restores per-class
//! precision.
//!
//! # Examples
//!
//! ```
//! use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
//! use twosmart::pipeline::full_dataset;
//! use twosmart::features::COMMON_EVENTS;
//! use twosmart::stage1::Stage1Model;
//!
//! let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
//! let data = full_dataset(&corpus);
//! let stage1 = Stage1Model::train(&data, &COMMON_EVENTS)?;
//! let class = stage1.predict_class(corpus.records()[0].features.as_slice());
//! println!("predicted {class}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::pipeline::select_events;
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::batch::BatchScratch;
use hmd_ml::classifier::{argmax, Classifier, TrainError};
use hmd_ml::data::Dataset;
use hmd_ml::logistic::Mlr;
use hmd_ml::metrics::ConfusionMatrix;

/// A trained stage-1 application-type predictor.
///
/// Counter rates are approximately log-normal, so the model fits the
/// softmax regression on `ln(1 + count)` — the monotone transform that
/// makes multiplicative class differences linearly separable. Tree/rule
/// learners are invariant to monotone transforms, so this choice is
/// specific to the linear stage.
#[derive(Debug, Clone)]
pub struct Stage1Model {
    model: Mlr,
    events: Vec<Event>,
}

fn log_row(row: &[f64]) -> Vec<f64> {
    row.iter().map(|v| (1.0 + v.max(0.0)).ln()).collect()
}

impl Stage1Model {
    /// Trains an MLR on the given events of a 5-class, 44-event dataset.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the MLR cannot be fitted.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a 44-feature 5-class dataset or `events` is
    /// empty.
    pub fn train(data: &Dataset, events: &[Event]) -> Result<Stage1Model, TrainError> {
        assert!(!events.is_empty(), "stage 1 needs at least one event");
        assert_eq!(data.n_classes(), 5, "stage 1 is the 5-class problem");
        let reduced = select_events(data, events);
        let logged = Dataset::new(
            reduced.features().iter().map(|r| log_row(r)).collect(),
            reduced.labels().to_vec(),
            reduced.n_classes(),
        )
        .expect("log transform preserves validity");
        let mut model = Mlr::new();
        model.fit(&logged)?;
        Ok(Stage1Model {
            model,
            events: events.to_vec(),
        })
    }

    /// Reassembles a model from persisted parts (see
    /// [`crate::persist::DetectorSnapshot`]).
    pub fn from_parts(model: Mlr, events: Vec<Event>) -> Stage1Model {
        assert!(!events.is_empty(), "stage 1 needs at least one event");
        Stage1Model { model, events }
    }

    /// The fitted MLR (for persistence and hardware-cost extraction).
    pub fn mlr(&self) -> &Mlr {
        &self.model
    }

    /// The HPC events this model reads.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Class-membership probabilities from a full 44-event feature row, in
    /// [`AppClass::ALL`] order. Both buffers live on the stack: a
    /// projection holds at most [`Event::COUNT`] readings.
    ///
    /// # Panics
    ///
    /// Panics if `features44` does not have 44 entries.
    // hmd-analyze: hot-path
    pub fn class_probabilities(&self, features44: &[f64]) -> [f64; AppClass::ALL.len()] {
        assert_eq!(
            features44.len(),
            Event::COUNT,
            "expected the 44-event layout"
        );
        let mut logged = [0.0; Event::COUNT];
        for (slot, e) in logged.iter_mut().zip(&self.events) {
            *slot = (1.0 + features44[e.index()].max(0.0)).ln();
        }
        let mut proba = [0.0; AppClass::ALL.len()];
        self.model
            .predict_proba_into(&logged[..self.events.len()], &mut proba);
        proba
    }

    /// Predicted application class from a full 44-event feature row: the
    /// most probable class of [`class_probabilities`](Self::class_probabilities).
    ///
    /// # Panics
    ///
    /// Panics if `features44` does not have 44 entries.
    // hmd-analyze: hot-path
    pub fn predict_class(&self, features44: &[f64]) -> AppClass {
        AppClass::from_label(argmax(&self.class_probabilities(features44))).expect("5-class model")
    }

    /// [`class_probabilities`](Self::class_probabilities) and
    /// [`predict_class`](Self::predict_class) on every row of `features`
    /// (row-major `lanes × 44`): `proba` is refilled with row-major
    /// `lanes × n_classes` probabilities and `routed` with each row's
    /// class. `cols` is left as it is. Kept for the traced cascade split
    /// in `perfbench/src/pump_resident.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not a multiple of 44.
    pub fn route_batch_with(
        &self,
        features: &[f64],
        _cols: &mut BatchScratch,
        proba: &mut Vec<f64>,
        routed: &mut Vec<AppClass>,
    ) {
        assert_eq!(
            features.len() % Event::COUNT,
            0,
            "expected whole 44-event rows"
        );
        proba.clear();
        routed.clear();
        for row in features.chunks_exact(Event::COUNT) {
            let p = self.class_probabilities(row);
            proba.extend_from_slice(&p);
            routed.push(AppClass::from_label(argmax(&p)).expect("5-class model"));
        }
    }

    /// Multiclass accuracy on a 5-class, 44-event test set.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        self.confusion(test).accuracy()
    }

    /// One-vs-rest F-measure of one class on a test set (used by Fig. 5a's
    /// Stage1-MLR bars).
    pub fn class_f_measure(&self, test: &Dataset, class: AppClass) -> f64 {
        self.confusion(test).f_measure(class.label())
    }

    fn confusion(&self, test: &Dataset) -> ConfusionMatrix {
        let pairs: Vec<(usize, usize)> = (0..test.len())
            .map(|i| {
                (
                    test.label_of(i),
                    self.predict_class(test.features_of(i)).label(),
                )
            })
            .collect();
        ConfusionMatrix::from_pairs(&pairs, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::COMMON_EVENTS;
    use crate::pipeline::full_dataset;
    use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};

    fn data() -> Dataset {
        full_dataset(&CorpusBuilder::new(CorpusSpec::tiny()).build())
    }

    #[test]
    fn trains_on_common_events() {
        let d = data();
        let m = Stage1Model::train(&d, &COMMON_EVENTS).unwrap();
        assert_eq!(m.events(), &COMMON_EVENTS);
        // Training accuracy is at least above chance.
        assert!(m.accuracy(&d) > 0.2);
    }

    #[test]
    fn predict_paths_agree() {
        // The stack-buffer path against the MLR's own allocating path on
        // the logged projection, bit for bit.
        let d = data();
        let m = Stage1Model::train(&d, &COMMON_EVENTS).unwrap();
        for i in 0..d.len() {
            let row = d.features_of(i);
            let projected: Vec<f64> = COMMON_EVENTS.iter().map(|e| row[e.index()]).collect();
            let logged = log_row(&projected);
            assert_eq!(
                m.class_probabilities(row).to_vec(),
                m.mlr().predict_proba(&logged)
            );
            assert_eq!(
                m.predict_class(row),
                AppClass::from_label(m.mlr().predict(&logged)).unwrap()
            );
        }
    }

    #[test]
    fn probabilities_cover_all_five_classes() {
        let d = data();
        let m = Stage1Model::train(&d, &COMMON_EVENTS).unwrap();
        let p = m.class_probabilities(d.features_of(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "expected the 44-event layout")]
    fn feature_layout_is_checked() {
        let d = data();
        let m = Stage1Model::train(&d, &COMMON_EVENTS).unwrap();
        m.predict_class(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn empty_event_list_panics() {
        let d = data();
        let _ = Stage1Model::train(&d, &[]);
    }
}
