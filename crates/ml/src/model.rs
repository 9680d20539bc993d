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

    /// Checks that the snapshot rebuilds into a classifier that can score,
    /// and returns its class count. The model must be fitted. An ensemble
    /// needs at least one base, one weight per base, and bases that are
    /// all of one stage-2 kind and of the ensemble's class count.
    ///
    /// # Errors
    ///
    /// A description of the first rule the snapshot breaks.
    pub fn validate(&self) -> Result<usize, String> {
        let model: &dyn Classifier = match self {
            AnyModel::J48(m) if m.node_count() > 0 => m,
            AnyModel::JRip(m) if m.rule_count().is_some() => m,
            AnyModel::OneR(m) if m.n_buckets().is_some() => m,
            AnyModel::Mlp(m) if m.topology().is_some() => m,
            AnyModel::Mlr(m) if m.shape().is_some() => m,
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
                    if base.validate()? != *n_classes {
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
            assert_eq!(snapshot.validate(), Ok(2));
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
        assert_eq!(snapshot.validate(), Ok(2));
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
        assert!(AnyModel::J48(crate::tree::J48::new()).validate().is_err());
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
            assert!(model.validate().is_err(), "{model:?}");
        }
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
