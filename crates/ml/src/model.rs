//! Serializable model containers.
//!
//! Trained classifiers live behind `Box<dyn Classifier>` in the detection
//! pipeline, which cannot be serialized directly. [`AnyModel`] is the
//! closed serde image of every model type a detector holds — including
//! boosted ensembles, stored as their base models plus vote weights — so a
//! trained detector can be persisted and reloaded without retraining.
//!
//! [`AnyModel::into_classifier`] rebuilds the trained value itself (a
//! [`J48`], an [`AdaBoost`], …), so a reloaded model scores, snapshots and
//! costs exactly like the one that was captured.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::model::AnyModel;
//! use hmd_ml::prelude::*;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut tree = J48::new();
//! tree.fit(&data)?;
//! let stored = AnyModel::from_classifier(&tree).expect("known type");
//! let restored = stored.into_classifier();
//! assert_eq!(restored.predict(&[0.95]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::boost::AdaBoost;
use crate::classifier::{Classifier, ClassifierKind};
use crate::logistic::Mlr;
use crate::mlp::Mlp;
use crate::oner::OneR;
use crate::rules::JRip;
use crate::tree::J48;
use serde::{Deserialize, Serialize};

/// A serializable snapshot of any fitted (or unfitted) model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnyModel {
    /// C4.5 decision tree.
    J48(J48),
    /// RIPPER rule list.
    JRip(JRip),
    /// One-rule classifier.
    OneR(OneR),
    /// Multilayer perceptron.
    Mlp(Mlp),
    /// Multinomial logistic regression.
    Mlr(Mlr),
    /// Weighted-vote ensemble (a fitted AdaBoost snapshot).
    Boosted {
        /// Base models, in boosting order.
        bases: Vec<AnyModel>,
        /// Vote weight of each base (`ln(1/β)`).
        weights: Vec<f64>,
        /// Number of classes the ensemble distinguishes.
        n_classes: usize,
    },
}

impl AnyModel {
    /// Snapshots any classifier from this crate.
    ///
    /// Returns `None` for classifier types this enum does not know (e.g. a
    /// downstream implementation of the trait).
    pub fn from_classifier(model: &dyn Classifier) -> Option<AnyModel> {
        let any = model.as_any();
        if let Some(m) = any.downcast_ref::<J48>() {
            return Some(AnyModel::J48(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<JRip>() {
            return Some(AnyModel::JRip(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<OneR>() {
            return Some(AnyModel::OneR(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<Mlp>() {
            return Some(AnyModel::Mlp(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<Mlr>() {
            return Some(AnyModel::Mlr(m.clone()));
        }
        if let Some(ens) = any.downcast_ref::<AdaBoost>() {
            let bases: Option<Vec<AnyModel>> = ens
                .base_models()
                .into_iter()
                .map(AnyModel::from_classifier)
                .collect();
            return Some(AnyModel::Boosted {
                bases: bases?,
                weights: ens.vote_weights(),
                n_classes: ens.n_classes(),
            });
        }
        None
    }

    /// The stage-2 kind of a plain snapshot; `None` for MLR and ensembles.
    fn kind(&self) -> Option<ClassifierKind> {
        match self {
            AnyModel::J48(_) => Some(ClassifierKind::J48),
            AnyModel::JRip(_) => Some(ClassifierKind::JRip),
            AnyModel::Mlp(_) => Some(ClassifierKind::Mlp),
            AnyModel::OneR(_) => Some(ClassifierKind::OneR),
            AnyModel::Mlr(_) | AnyModel::Boosted { .. } => None,
        }
    }

    /// Checks that the snapshot rebuilds into a classifier that can score
    /// rows of `inputs` features, and returns its class count.
    ///
    /// The model must be fitted. A tree, rule list or one-rule model may
    /// only test features below `inputs`, and a rule list may only assign
    /// its own classes, with confidences in `[0, 1]`, and may not compare
    /// against a NaN threshold. An MLP or MLR must take exactly `inputs`
    /// features, with rectangular weight rows, a scaler as wide as its
    /// input and finite weights; an MLR also needs one weight row per
    /// class, finite means and finite, positive deviations. An ensemble
    /// needs at least one base, one weight per base, and bases that each
    /// pass these checks and are all of one stage-2 kind and of the
    /// ensemble's class count.
    ///
    /// # Errors
    ///
    /// A description of the first rule the snapshot breaks.
    pub fn validate(&self, inputs: usize) -> Result<usize, String> {
        let model: &dyn Classifier = match self {
            AnyModel::J48(m) if m.node_count() > 0 => {
                reads_within(m.max_attribute(), inputs)?;
                m
            }
            AnyModel::JRip(m) => {
                reads_within(m.checked_max_attribute()?, inputs)?;
                m
            }
            AnyModel::OneR(m) if m.n_buckets().is_some() => {
                reads_within(m.chosen_attribute(), inputs)?;
                m
            }
            AnyModel::Mlp(m) => {
                takes_exactly(m.checked_topology()?.0, inputs)?;
                m
            }
            AnyModel::Mlr(m) => {
                takes_exactly(m.checked_shape()?.0, inputs)?;
                m
            }
            AnyModel::Boosted {
                bases,
                weights,
                n_classes,
            } => {
                let Some(kind) = bases.first().map(AnyModel::kind) else {
                    return Err("ensemble has no bases".into());
                };
                if weights.len() != bases.len() {
                    return Err(format!(
                        "ensemble has {} bases but {} weights",
                        bases.len(),
                        weights.len()
                    ));
                }
                for base in bases {
                    if kind.is_none() || base.kind() != kind {
                        return Err("ensemble bases are not all one stage-2 kind".into());
                    }
                    if base.validate(inputs)? != *n_classes {
                        return Err(format!(
                            "an ensemble base does not have {n_classes} classes"
                        ));
                    }
                }
                return Ok(*n_classes);
            }
            _ => return Err("model is not fitted".into()),
        };
        Ok(model.n_classes())
    }

    /// Rebuilds the trained classifier this snapshot images: the [`J48`],
    /// [`JRip`], [`OneR`], [`Mlp`] or [`Mlr`] value itself, or an
    /// [`AdaBoost`] over the rebuilt bases.
    ///
    /// # Panics
    ///
    /// Panics if an ensemble has no bases or its first base is not a
    /// stage-2 kind. [`validate`](Self::validate) rejects those and every
    /// other damaged ensemble, so call it first on untrusted input.
    pub fn into_classifier(self) -> Box<dyn Classifier> {
        match self {
            AnyModel::J48(m) => Box::new(m),
            AnyModel::JRip(m) => Box::new(m),
            AnyModel::OneR(m) => Box::new(m),
            AnyModel::Mlp(m) => Box::new(m),
            AnyModel::Mlr(m) => Box::new(m),
            AnyModel::Boosted {
                bases,
                weights,
                n_classes,
            } => {
                let base = bases
                    .first()
                    .and_then(AnyModel::kind)
                    .expect("ensemble bases are J48, JRip, MLP or OneR");
                let rounds = bases
                    .into_iter()
                    .map(AnyModel::into_classifier)
                    .zip(weights)
                    .collect();
                Box::new(AdaBoost::from_rounds(base, rounds, n_classes))
            }
        }
    }
}

/// Rejects a model that tests feature `attribute` of a row of `inputs`.
fn reads_within(attribute: Option<usize>, inputs: usize) -> Result<(), String> {
    match attribute {
        Some(a) if a >= inputs => Err(format!(
            "model reads feature {a} but its rows have {inputs} features"
        )),
        _ => Ok(()),
    }
}

/// Rejects a model that takes `width` features for rows of `inputs`.
fn takes_exactly(width: usize, inputs: usize) -> Result<(), String> {
    if width == inputs {
        Ok(())
    } else {
        Err(format!(
            "model takes {width} features but its rows have {inputs}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    fn band() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let x = i as f64 / 60.0;
            features.push(vec![x, (i % 3) as f64]);
            labels.push(usize::from(x > 0.5));
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn snapshot_preserves_predictions_for_every_kind() {
        let data = band();
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(7);
            model.fit(&data).unwrap();
            let snapshot = AnyModel::from_classifier(model.as_ref()).expect("known kind");
            assert_eq!(snapshot.kind(), Some(kind));
            assert_eq!(snapshot.validate(2), Ok(2));
            let restored = snapshot.into_classifier();
            assert_eq!(restored.name(), kind.name());
            for i in 0..data.len() {
                assert_eq!(
                    restored.predict_proba(data.features_of(i)),
                    model.predict_proba(data.features_of(i)),
                    "{kind} snapshot diverged"
                );
            }
        }
    }

    #[test]
    fn boosted_snapshot_restores_the_live_ensemble() {
        let data = band();
        let mut ens = AdaBoost::new(ClassifierKind::OneR, 5, 3);
        ens.fit(&data).unwrap();
        let snapshot = AnyModel::from_classifier(&ens).expect("ensemble snapshots");
        assert_eq!(snapshot.validate(2), Ok(2));
        let restored = snapshot.clone().into_classifier();
        let restored_ens = restored
            .as_any()
            .downcast_ref::<AdaBoost>()
            .expect("restores an AdaBoost");
        assert_eq!(restored_ens.base_kind(), ClassifierKind::OneR);
        assert_eq!(restored_ens.ensemble_size(), ens.ensemble_size());
        assert_eq!(AnyModel::from_classifier(restored.as_ref()), Some(snapshot));
        for i in 0..data.len() {
            assert_eq!(
                restored.predict_proba(data.features_of(i)),
                ens.predict_proba(data.features_of(i))
            );
        }
    }

    #[test]
    fn validate_rejects_unfitted_models_and_damaged_ensembles() {
        let data = band();
        assert!(AnyModel::J48(crate::tree::J48::new()).validate(2).is_err());
        let mut ens = AdaBoost::new(ClassifierKind::J48, 4, 1);
        ens.fit(&data).unwrap();
        let good = AnyModel::from_classifier(&ens).unwrap();
        let AnyModel::Boosted { bases, weights, .. } = &good else {
            panic!("an AdaBoost snapshots as Boosted");
        };
        let damaged = [
            AnyModel::Boosted {
                bases: Vec::new(),
                weights: Vec::new(),
                n_classes: 2,
            },
            AnyModel::Boosted {
                bases: bases.clone(),
                weights: vec![1.0; weights.len() + 1],
                n_classes: 2,
            },
            AnyModel::Boosted {
                bases: vec![good.clone()],
                weights: vec![1.0],
                n_classes: 2,
            },
            AnyModel::Boosted {
                bases: bases.clone(),
                weights: weights.clone(),
                n_classes: 3,
            },
        ];
        for model in damaged {
            assert!(model.validate(2).is_err(), "{model:?}");
        }
    }

    /// Three features, of which only the last separates the classes.
    fn last_feature_decides() -> Dataset {
        let features = (0..40).map(|i| vec![0.0, 1.0, f64::from(i)]).collect();
        let labels = (0..40).map(|i| usize::from(i >= 20)).collect();
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn validate_rejects_models_that_read_past_the_row() {
        let data = last_feature_decides();
        let mut mlr = Mlr::new();
        mlr.fit(&data).unwrap();
        let mut ens = AdaBoost::new(ClassifierKind::J48, 3, 1);
        ens.fit(&data).unwrap();
        let mut snapshots = vec![AnyModel::Mlr(mlr), AnyModel::from_classifier(&ens).unwrap()];
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(7);
            model.fit(&data).unwrap();
            snapshots.push(AnyModel::from_classifier(model.as_ref()).unwrap());
        }
        for snapshot in snapshots {
            assert_eq!(snapshot.validate(3), Ok(2), "{snapshot:?}");
            // A tree, rule list or one-rule model reads feature 2; an MLP
            // or MLR takes exactly three.
            assert!(snapshot.validate(2).is_err(), "{snapshot:?}");
        }
        // An MLP takes exactly its width, so a wider row fails too.
        let mut mlp = Mlp::new(1).with_epochs(5);
        mlp.fit(&data).unwrap();
        assert!(AnyModel::Mlp(mlp).validate(4).is_err());
    }

    /// `model` rebuilt from its JSON after `edit`: the damage an edited
    /// snapshot file carries.
    fn edited(model: &AnyModel, edit: impl Fn(&mut String)) -> AnyModel {
        let mut json = serde_json::to_string(model).unwrap();
        let before = json.clone();
        edit(&mut json);
        assert_ne!(json, before, "the edit changed nothing");
        serde_json::from_str(&json).expect("the edited snapshot parses")
    }

    #[test]
    fn validate_rejects_ragged_or_non_finite_mlp_weights() {
        let data = band();
        let mut mlp = Mlp::new(7).with_epochs(20);
        mlp.fit(&data).unwrap();
        let good = AnyModel::Mlp(mlp);
        assert_eq!(good.validate(2), Ok(2));
        let prepend = |key: &'static str, value: &'static str| {
            move |json: &mut String| {
                let at = json.find(key).expect("key present") + key.len();
                json.insert_str(at, value);
            }
        };
        // A hidden row one weight too long.
        let long_hidden = edited(&good, prepend("\"w_hidden\":[[", "0.5,"));
        // An output row one weight too long.
        let long_output = edited(&good, prepend("\"w_output\":[[", "0.5,"));
        // One more scaler range than minima.
        let ragged_scaler = edited(&good, prepend("\"ranges\":[", "1.0,"));
        // A weight saved as `null`, which reads back as NaN.
        let nan_weight = edited(&good, |json| {
            let at = json.find("\"w_output\":[[").unwrap() + "\"w_output\":[[".len();
            let end = at + json[at..].find(',').unwrap();
            json.replace_range(at..end, "null");
        });
        for damaged in [long_hidden, long_output, ragged_scaler, nan_weight] {
            assert!(damaged.validate(2).is_err(), "{damaged:?}");
        }
    }

    #[test]
    fn validate_rejects_out_of_range_jrip_classes_and_confidences() {
        let mut jrip = JRip::new(7);
        jrip.fit(&band()).unwrap();
        assert!(jrip.rule_count() > Some(0));
        let good = AnyModel::JRip(jrip);
        assert_eq!(good.validate(2), Ok(2));
        // Replaces the first value of `key` with `value`.
        let set = |key: &'static str, value: &'static str| {
            move |json: &mut String| {
                let at = json.find(key).expect("key present") + key.len();
                let end = at + json[at..].find([',', '}']).unwrap();
                json.replace_range(at..end, value);
            }
        };
        // A rule's class indexes the probability row, so 7 of 2 panics on
        // the first row the rule matches; so would a default class of 7.
        // A confidence of 2.5 scores [2.5, -1.5], and `null` reads back
        // as NaN.
        let damaged = [
            edited(&good, set("\"class\":", "7")),
            edited(&good, set("\"default_class\":", "7")),
            edited(&good, set("\"confidence\":", "2.5")),
            edited(&good, set("\"confidence\":", "null")),
            edited(&good, set("\"default_confidence\":", "-0.5")),
            edited(&good, set("\"default_confidence\":", "null")),
        ];
        for model in damaged {
            assert!(model.validate(2).is_err(), "{model:?}");
        }
    }

    #[test]
    fn validate_rejects_a_nan_jrip_threshold_but_not_an_infinite_one() {
        let mut jrip = JRip::new(7);
        jrip.fit(&band()).unwrap();
        let good = AnyModel::JRip(jrip);
        let threshold = |value: &'static str| {
            move |json: &mut String| {
                let at = json.find("\"value\":").expect("a rule has a condition") + 8;
                let end = at + json[at..].find('}').unwrap();
                json.replace_range(at..end, value);
            }
        };
        // `null` reads back as NaN: the condition then matches no row and
        // its rule silently stops firing.
        let nan = edited(&good, threshold("null"));
        assert!(nan.validate(2).is_err(), "{nan:?}");
        // An infinite cut is one training can produce; it stays legal.
        let infinite = edited(&good, threshold("1e400"));
        assert_eq!(infinite.validate(2), Ok(2));
    }

    /// A fitted two-feature MLR's snapshot, which validates.
    fn good_mlr() -> AnyModel {
        let mut mlr = Mlr::new();
        mlr.fit(&band()).unwrap();
        let good = AnyModel::Mlr(mlr);
        assert_eq!(good.validate(2), Ok(2));
        good
    }

    /// Replaces the first value after `key`, up to the next `,`, `]` or
    /// `}`, with `value`; an empty `value` also drops the comma after it.
    fn set_first(key: &'static str, value: &'static str) -> impl Fn(&mut String) {
        move |json: &mut String| {
            let at = json.find(key).expect("key present") + key.len();
            let mut end = at + json[at..].find([',', ']', '}']).unwrap();
            if value.is_empty() && json[end..].starts_with(',') {
                end += 1;
            }
            json.replace_range(at..end, value);
        }
    }

    #[test]
    fn validate_rejects_an_mlr_weight_row_of_the_wrong_length() {
        // The second row one weight longer: unchecked, it scores with its
        // last input weight as the intercept. One shorter panics.
        let good = good_mlr();
        for extra in ["0.5,", ""] {
            let damaged = edited(&good, |json| {
                let at = json.find("],[").expect("two weight rows") + 3;
                if extra.is_empty() {
                    let end = at + json[at..].find(',').unwrap() + 1;
                    json.replace_range(at..end, "");
                } else {
                    json.insert_str(at, extra);
                }
            });
            assert!(damaged.validate(2).is_err(), "{damaged:?}");
        }
    }

    #[test]
    fn validate_rejects_an_mlr_standardizer_of_the_wrong_width() {
        // One mean short panics the first prediction; one deviation short
        // silently scores one input fewer.
        let good = good_mlr();
        for key in ["\"means\":[", "\"stds\":["] {
            let damaged = edited(&good, set_first(key, ""));
            assert!(damaged.validate(2).is_err(), "{damaged:?}");
        }
    }

    #[test]
    fn validate_rejects_a_non_finite_mlr_weight_or_mean() {
        // `null` reads back as NaN, which makes every probability NaN.
        let good = good_mlr();
        for key in ["\"weights\":[[", "\"means\":["] {
            let damaged = edited(&good, set_first(key, "null"));
            assert!(damaged.validate(2).is_err(), "{damaged:?}");
        }
    }

    #[test]
    fn validate_rejects_an_mlr_deviation_that_is_not_finite_and_positive() {
        // A zero deviation divides to infinity, a negative one flips its
        // input's sign, and `null` reads back as NaN.
        let good = good_mlr();
        for value in ["0.0", "-1.0", "null"] {
            let damaged = edited(&good, set_first("\"stds\":[", value));
            assert!(damaged.validate(2).is_err(), "{damaged:?}");
        }
    }

    #[test]
    fn validate_rejects_an_mlr_class_count_its_weights_do_not_have() {
        // Three classes over two weight rows: unchecked, a stage-1 MLR
        // edited this way panics on its first prediction.
        let damaged = edited(&good_mlr(), set_first("\"n_classes\":", "3"));
        assert!(damaged.validate(2).is_err(), "{damaged:?}");
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let data = band();
        let mut ens = AdaBoost::new(ClassifierKind::J48, 4, 1);
        ens.fit(&data).unwrap();
        let snapshot = AnyModel::from_classifier(&ens).unwrap();
        let json = serde_json::to_string(&snapshot).expect("serializes");
        let restored: AnyModel = serde_json::from_str(&json).expect("deserializes");
        let restored = restored.into_classifier();
        for i in 0..data.len() {
            assert_eq!(
                restored.predict_proba(data.features_of(i)),
                ens.predict_proba(data.features_of(i))
            );
        }
    }
}
