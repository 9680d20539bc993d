//! Persistence: serializable snapshots of trained detectors.
//!
//! Training a 2SMaRT detector requires the full profiled corpus; a
//! deployment only needs the fitted parameters. [`DetectorSnapshot`] is a
//! serde-friendly image of a [`TwoSmartDetector`] — stage-1 MLR weights
//! plus each specialized model as an [`AnyModel`] — that round-trips
//! through any serde format.
//!
//! # Examples
//!
//! ```no_run
//! use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
//! use twosmart::detector::TwoSmartDetector;
//! use twosmart::persist::DetectorSnapshot;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = CorpusBuilder::new(CorpusSpec::small()).build();
//! let detector = TwoSmartDetector::builder().train(&corpus)?;
//! let snapshot = DetectorSnapshot::capture(&detector)?;
//! // … serialize `snapshot` with any serde backend, ship it, then:
//! let restored = snapshot.restore();
//! assert_eq!(
//!     restored.detect(&corpus.records()[0].features),
//!     detector.detect(&corpus.records()[0].features),
//! );
//! # Ok(())
//! # }
//! ```

use crate::detector::TwoSmartDetector;
use crate::stage1::Stage1Model;
use crate::stage2::{SpecializedDetector, Stage2Config};
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::logistic::Mlr;
use hmd_ml::model::AnyModel;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Error raised when a detector cannot be snapshotted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    what: String,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot snapshot detector: {}", self.what)
    }
}

impl Error for SnapshotError {}

/// Error raised when a snapshot cannot be written to, read from, or
/// reconstructed from external storage. Unlike [`SnapshotError`] (capture
/// of a live detector), this covers the untrusted side: disk I/O, JSON
/// parsing, and structural validation of foreign snapshot files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The snapshot file could not be read or written.
    Io(String),
    /// The file was not valid snapshot JSON.
    Json(String),
    /// The JSON parsed but describes an unusable detector (missing
    /// specialists, empty event lists, out-of-range thresholds, unfitted
    /// models, …).
    Invalid(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(what) => write!(f, "snapshot I/O failed: {what}"),
            PersistError::Json(what) => write!(f, "snapshot JSON invalid: {what}"),
            PersistError::Invalid(what) => write!(f, "snapshot structurally invalid: {what}"),
        }
    }
}

impl Error for PersistError {}

/// Serializable image of one specialized stage-2 detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecialistSnapshot {
    /// Malware class the specialist confirms.
    pub class: AppClass,
    /// Training configuration.
    pub config: Stage2Config,
    /// Events the model reads, in feature order.
    pub events: Vec<Event>,
    /// Decision threshold on the malware probability.
    pub threshold: f64,
    /// The fitted model.
    pub model: AnyModel,
}

/// Serializable image of a trained [`TwoSmartDetector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorSnapshot {
    /// Stage-1 MLR (fitted on log counts).
    pub stage1_model: Mlr,
    /// Stage-1 input events.
    pub stage1_events: Vec<Event>,
    /// The four specialists.
    pub stage2: Vec<SpecialistSnapshot>,
}

impl DetectorSnapshot {
    /// Captures a trained detector.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if a stage-2 model is of a type
    /// [`AnyModel`] does not know.
    // hmd-analyze: det-sink
    pub fn capture(detector: &TwoSmartDetector) -> Result<DetectorSnapshot, SnapshotError> {
        let stage2 = detector
            .stage2_all()
            .iter()
            .map(|d| {
                let model = AnyModel::from_classifier(d.model()).ok_or_else(|| SnapshotError {
                    what: format!("unknown model type for {}", d.class()),
                })?;
                Ok(SpecialistSnapshot {
                    class: d.class(),
                    config: *d.config(),
                    events: d.events().to_vec(),
                    threshold: d.threshold(),
                    model,
                })
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        Ok(DetectorSnapshot {
            stage1_model: detector.stage1().mlr().clone(),
            stage1_events: detector.stage1().events().to_vec(),
            stage2,
        })
    }

    /// Rebuilds a working detector from the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is structurally invalid (e.g. hand-edited
    /// JSON with a missing specialist). Deployments loading foreign files
    /// should use [`try_restore`](Self::try_restore).
    pub fn restore(&self) -> TwoSmartDetector {
        self.try_restore().expect("structurally valid snapshot")
    }

    /// Non-panicking [`restore`](Self::restore): validates the snapshot's
    /// structure before reassembly, so a truncated or hand-edited snapshot
    /// file surfaces as an error instead of a panic inside a service.
    ///
    /// # Errors
    ///
    /// [`PersistError::Invalid`] if validation fails (see
    /// [`validate`](Self::validate)).
    pub fn try_restore(&self) -> Result<TwoSmartDetector, PersistError> {
        self.validate()?;
        let stage1 = Stage1Model::from_parts(self.stage1_model.clone(), self.stage1_events.clone());
        let stage2: Vec<SpecializedDetector> = self
            .stage2
            .iter()
            .map(|s| {
                let mut d = SpecializedDetector::from_parts(
                    s.class,
                    s.config,
                    s.events.clone(),
                    s.model.clone().into_classifier(),
                );
                d.set_threshold(s.threshold);
                d
            })
            .collect();
        Ok(TwoSmartDetector::from_parts(stage1, stage2))
    }

    /// Checks the structural invariants [`TwoSmartDetector::from_parts`]
    /// asserts, plus what restoring and serving assume of the models.
    ///
    /// # Errors
    ///
    /// [`PersistError::Invalid`] naming the first violated invariant:
    /// - an empty event list, or one longer than [`Event::COUNT`];
    /// - a stage-1 MLR that is unfitted, does not take
    ///   `stage1_events.len()` inputs to 5 classes, or has ragged or
    ///   non-finite weights or a damaged standardizer (see
    ///   [`AnyModel::validate`]);
    /// - a missing, duplicate or benign specialist;
    /// - a specialist threshold outside `[0, 1]`;
    /// - a specialist model that is unfitted, not binary, reads a feature
    ///   its event list does not supply, has ragged or non-finite MLP
    ///   weights or a NaN JRip threshold, or is a damaged ensemble (see
    ///   [`AnyModel::validate`]).
    pub fn validate(&self) -> Result<(), PersistError> {
        let invalid = |what: String| Err(PersistError::Invalid(what));
        let n = self.stage1_events.len();
        if n == 0 || n > Event::COUNT {
            return invalid(format!(
                "stage 1 reads {n} events, not 1 to {}",
                Event::COUNT
            ));
        }
        match AnyModel::Mlr(self.stage1_model.clone()).validate(n) {
            Ok(k) if k == AppClass::ALL.len() => {}
            Ok(k) => {
                return invalid(format!(
                    "stage-1 MLR has {k} classes, not {}",
                    AppClass::ALL.len()
                ))
            }
            Err(why) => return invalid(format!("stage-1 {why}")),
        }
        for class in AppClass::MALWARE {
            let n = self.stage2.iter().filter(|s| s.class == class).count();
            if n != 1 {
                return invalid(format!(
                    "expected exactly one {class} specialist, found {n}"
                ));
            }
        }
        for s in &self.stage2 {
            let class = s.class;
            if !class.is_malware() {
                return invalid(format!("specialist for non-malware class {class}"));
            }
            let n = s.events.len();
            if n == 0 || n > Event::COUNT {
                return invalid(format!(
                    "{class} specialist reads {n} events, not 1 to {}",
                    Event::COUNT
                ));
            }
            if !(0.0..=1.0).contains(&s.threshold) {
                return invalid(format!(
                    "{class} specialist threshold {} is outside [0, 1]",
                    s.threshold
                ));
            }
            match s.model.validate(n) {
                Ok(2) => {}
                Ok(k) => return invalid(format!("{class} specialist has {k} classes, not 2")),
                Err(why) => return invalid(format!("{class} specialist: {why}")),
            }
        }
        Ok(())
    }

    /// Writes the snapshot as pretty-printed JSON, the on-disk format the
    /// `serve` binary loads — training and serving stay separate processes.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the file cannot be written.
    // hmd-analyze: det-sink
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        let json =
            serde_json::to_string_pretty(self).map_err(|e| PersistError::Json(e.to_string()))?;
        std::fs::write(path, json).map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and validates a snapshot written by
    /// [`save_json`](Self::save_json) (or any serde backend emitting the
    /// same shape). The result is safe to [`restore`](Self::restore).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on read failure, [`PersistError::Json`] on
    /// parse failure, [`PersistError::Invalid`] if the parsed snapshot
    /// fails [`validate`](Self::validate).
    pub fn load_json(path: impl AsRef<Path>) -> Result<DetectorSnapshot, PersistError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))?;
        let snapshot: DetectorSnapshot =
            serde_json::from_str(&text).map_err(|e| PersistError::Json(e.to_string()))?;
        snapshot.validate()?;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
    use hmd_ml::classifier::ClassifierKind;
    use hmd_ml::tree::J48;

    fn trained(boosted: bool) -> (TwoSmartDetector, hmd_hpc_sim::corpus::Corpus) {
        trained_with(ClassifierKind::J48, boosted)
    }

    fn trained_with(
        kind: ClassifierKind,
        boosted: bool,
    ) -> (TwoSmartDetector, hmd_hpc_sim::corpus::Corpus) {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        let det = AppClass::MALWARE
            .iter()
            .fold(
                TwoSmartDetector::builder().seed(6).boosted(boosted),
                |b, &c| b.classifier_for(c, kind),
            )
            .train(&corpus)
            .expect("detector trains");
        (det, corpus)
    }

    #[test]
    fn snapshot_round_trip_preserves_verdicts() {
        let (det, corpus) = trained(false);
        let snapshot = DetectorSnapshot::capture(&det).unwrap();
        let restored = snapshot.restore();
        for r in corpus.records() {
            assert_eq!(restored.detect(&r.features), det.detect(&r.features));
        }
    }

    #[test]
    fn boosted_detector_round_trips() {
        let (det, corpus) = trained(true);
        let snapshot = DetectorSnapshot::capture(&det).unwrap();
        let json = serde_json::to_string(&snapshot).expect("serializes");
        let reloaded: DetectorSnapshot = serde_json::from_str(&json).expect("deserializes");
        let restored = reloaded.restore();
        for r in corpus.records().iter().take(10) {
            assert_eq!(restored.detect(&r.features), det.detect(&r.features));
        }
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let (det, corpus) = trained(false);
        let snapshot = DetectorSnapshot::capture(&det).unwrap();
        let dir = std::env::temp_dir().join(format!("twosmart-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        snapshot.save_json(&path).unwrap();
        let reloaded = DetectorSnapshot::load_json(&path).unwrap();
        let restored = reloaded.try_restore().unwrap();
        for r in corpus.records().iter().take(10) {
            assert_eq!(restored.detect(&r.features), det.detect(&r.features));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_missing_file_and_garbage_json() {
        assert!(matches!(
            DetectorSnapshot::load_json("/nonexistent/twosmart.json"),
            Err(PersistError::Io(_))
        ));
        let dir = std::env::temp_dir().join(format!("twosmart-garbage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            DetectorSnapshot::load_json(&path),
            Err(PersistError::Json(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_catches_structural_damage() {
        let (det, _) = trained(false);
        let good = DetectorSnapshot::capture(&det).unwrap();
        assert!(good.validate().is_ok());

        let mut missing = good.clone();
        missing.stage2.pop();
        assert!(matches!(
            missing.try_restore(),
            Err(PersistError::Invalid(_))
        ));

        let mut duplicated = good.clone();
        let dup = duplicated.stage2[0].clone();
        duplicated.stage2.push(dup);
        assert!(duplicated.validate().is_err());

        let mut bad_threshold = good.clone();
        bad_threshold.stage2[0].threshold = f64::NAN;
        assert!(bad_threshold.validate().is_err());

        let mut no_events = good.clone();
        no_events.stage1_events.clear();
        assert!(no_events.validate().is_err());

        // Damage that restore or serving cannot survive: `set_threshold`
        // panics outside [0, 1], and a model that is unfitted, mis-shaped,
        // non-binary or reads more than 44 events panics on its first
        // score.
        let invalid = |damage: &dyn Fn(&mut DetectorSnapshot)| {
            let mut snapshot = good.clone();
            damage(&mut snapshot);
            matches!(snapshot.validate(), Err(PersistError::Invalid(_)))
        };
        assert!(invalid(&|s| s.stage2[0].threshold = 1.5));
        assert!(invalid(&|s| s.stage1_model = Mlr::new()));
        assert!(invalid(&|s| {
            s.stage1_events.pop();
        }));
        assert!(invalid(&|s| s.stage1_events = vec![Event::ALL[0]; 45]));
        assert!(invalid(&|s| s.stage2[0].events = vec![Event::ALL[0]; 45]));
        assert!(invalid(&|s| s.stage2[0].model = AnyModel::J48(J48::new())));
        assert!(invalid(&|s| {
            s.stage2[0].model = AnyModel::Mlr(s.stage1_model.clone());
        }));

        let (boosted, _) = trained(true);
        let boosted = DetectorSnapshot::capture(&boosted).unwrap();
        assert!(boosted.validate().is_ok());
        // An ensemble with no bases panics in its vote, one with a base or
        // weight too many silently drops a round, and a nested AdaBoost
        // re-borrows its vote scratch and panics.
        let AnyModel::Boosted { bases, weights, .. } = &boosted.stage2[0].model else {
            panic!("a boosted detector snapshots its specialists as Boosted");
        };
        let ensembles = [
            (Vec::new(), Vec::new()),
            (bases.clone(), vec![1.0; weights.len() + 1]),
            (vec![boosted.stage2[1].model.clone()], vec![1.0]),
        ];
        for (bases, weights) in ensembles {
            let mut damaged = boosted.clone();
            damaged.stage2[0].model = AnyModel::Boosted {
                bases,
                weights,
                n_classes: 2,
            };
            assert!(matches!(damaged.validate(), Err(PersistError::Invalid(_))));
        }
    }

    #[test]
    fn validate_rejects_specialists_that_read_past_their_events() {
        // Each specialist keeps 1 of its 4 events. Unchecked, the J48
        // snapshot restores and its first malware-routed `detect` panics
        // indexing the projected row; an MLP specialist panics the same
        // way in its scaler.
        let snapshots = [
            (ClassifierKind::J48, false),
            (ClassifierKind::J48, true),
            (ClassifierKind::Mlp, false),
        ]
        .map(|(kind, boosted)| DetectorSnapshot::capture(&trained_with(kind, boosted).0).unwrap());
        // The plain J48 trees test a later event, so scoring would trip.
        assert!(snapshots[0].stage2.iter().any(|s| matches!(
            &s.model,
            AnyModel::J48(tree) if tree.max_attribute() > Some(0)
        )));
        for good in snapshots {
            assert!(good.validate().is_ok());
            let mut damaged = good.clone();
            for s in &mut damaged.stage2 {
                s.events.truncate(1);
            }
            assert!(matches!(damaged.validate(), Err(PersistError::Invalid(_))));
            assert!(matches!(
                damaged.try_restore(),
                Err(PersistError::Invalid(_))
            ));
        }
    }

    #[test]
    fn validate_rejects_a_jrip_rule_for_a_missing_class() {
        // A rule edited to class 7 of 2 reads within its events, so only a
        // class check stops it; unchecked, the first row it matches panics
        // indexing the specialist's probability row.
        let good = DetectorSnapshot::capture(&trained_with(ClassifierKind::JRip, false).0).unwrap();
        assert!(good.validate().is_ok());
        let json = serde_json::to_string(&good.stage2[0].model).unwrap();
        let at = json.find("\"class\":").expect("the specialist has a rule") + "\"class\":".len();
        let end = at + json[at..].find(',').unwrap();
        let mut damaged = good.clone();
        damaged.stage2[0].model =
            serde_json::from_str(&format!("{}7{}", &json[..at], &json[end..])).unwrap();
        assert!(matches!(damaged.validate(), Err(PersistError::Invalid(_))));
        assert!(matches!(
            damaged.try_restore(),
            Err(PersistError::Invalid(_))
        ));
    }

    #[test]
    fn try_restore_refuses_a_jrip_threshold_saved_as_null() {
        // `null` reads back as NaN, a threshold no counter compares true
        // against: unchecked, the rule stops firing and the restored
        // detector serves different verdicts without any error.
        let good = DetectorSnapshot::capture(&trained_with(ClassifierKind::JRip, false).0).unwrap();
        let json = serde_json::to_string(&good.stage2[0].model).unwrap();
        let at = json
            .find("\"value\":")
            .expect("the specialist has a condition")
            + 8;
        let end = at + json[at..].find('}').unwrap();
        let mut damaged = good.clone();
        damaged.stage2[0].model =
            serde_json::from_str(&format!("{}null{}", &json[..at], &json[end..])).unwrap();
        assert!(matches!(
            damaged.try_restore(),
            Err(PersistError::Invalid(_))
        ));
    }

    #[test]
    fn try_restore_refuses_a_damaged_stage1_mlr() {
        // A stage-1 weight saved as `null` reads back as NaN: unchecked,
        // every stage-1 probability is NaN, `argmax` routes every row
        // benign and the restored detector flags nothing. A `means` array
        // one entry short, or a class count of 6 over 5 weight rows,
        // panics the first `detect`.
        let (det, _) = trained(false);
        let good = DetectorSnapshot::capture(&det).unwrap();
        let json = serde_json::to_string(&good.stage1_model).unwrap();
        let first_value = |key: &str| {
            let at = json.find(key).expect("key present") + key.len();
            (at, at + json[at..].find([',', '}']).unwrap())
        };
        let (at, end) = first_value("\"weights\":[[");
        let null_weight = format!("{}null{}", &json[..at], &json[end..]);
        let (at, end) = first_value("\"means\":[");
        let short_means = format!("{}{}", &json[..at], &json[end + 1..]);
        let (at, end) = first_value("\"n_classes\":");
        let six_classes = format!("{}6{}", &json[..at], &json[end..]);
        for damaged_json in [null_weight, short_means, six_classes] {
            let mut damaged = good.clone();
            damaged.stage1_model = serde_json::from_str(&damaged_json).unwrap();
            assert!(matches!(
                damaged.try_restore(),
                Err(PersistError::Invalid(_))
            ));
        }
    }

    #[test]
    fn snapshot_is_structurally_complete() {
        let (det, _) = trained(false);
        let snapshot = DetectorSnapshot::capture(&det).unwrap();
        assert_eq!(snapshot.stage2.len(), 4);
        assert_eq!(snapshot.stage1_events.len(), 4);
        for s in &snapshot.stage2 {
            assert!(s.class.is_malware());
            assert_eq!(s.events.len(), 4);
        }
    }
}
