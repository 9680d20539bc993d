//! # twosmart — two-stage run-time specialized hardware-assisted malware detection
//!
//! Reproduction of the 2SMaRT framework (Sayadi et al., DATE 2019): a
//! run-time malware detector driven by the 4 hardware performance counters a
//! real processor can read simultaneously.
//!
//! - **Stage 1** ([`stage1`]): a multinomial-logistic-regression application
//!   -type predictor over the 4 *Common* HPC events — benign, or one of
//!   {Backdoor, Rootkit, Virus, Trojan}.
//! - **Stage 2** ([`stage2`]): per-class *specialized* binary detectors
//!   (J48 / JRip / MLP / OneR, optionally AdaBoost-boosted) that confirm the
//!   malware class stage 1 predicted.
//! - [`features`]: the Common/Custom HPC sets of Table II and the
//!   44 → 16 → 8 reduction pipeline that derives them.
//! - [`pipeline`]: corpus → dataset conversion (multiclass, per-class
//!   binary, pooled-malware baselines).
//! - [`detector`]: the end-to-end [`detector::TwoSmartDetector`].
//! - [`baseline`]: single-stage comparators (stage-1-only, and the
//!   general single-stage HMD of Fig. 5b).
//!
//! # Quick start
//!
//! ```no_run
//! use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
//! use twosmart::detector::TwoSmartDetector;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = CorpusBuilder::new(CorpusSpec::small()).build();
//! let detector = TwoSmartDetector::builder().seed(7).train(&corpus)?;
//! let verdict = detector.detect(&corpus.records()[0].features);
//! println!("{verdict:?}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod detector;
pub mod features;
pub mod online;
pub mod persist;
pub mod pipeline;
pub mod stage1;
pub mod stage2;

pub use detector::{
    CascadeMode, CascadeVerdict, DetectBatchScratch, DetectScratch, TwoSmartBuilder,
    TwoSmartDetector, Verdict,
};
pub use features::{derive_feature_sets, DerivedFeatures, FeatureSet, COMMON_EVENTS};
pub use online::{HostWindow, OnlineDetector, OnlineError};
pub use persist::{DetectorSnapshot, SnapshotError, SpecialistSnapshot};
pub use stage1::Stage1Model;
pub use stage2::{SpecializedDetector, Stage2Config};
