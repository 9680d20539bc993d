//! Set-up shared by the workloads: the paper corpus and the deployable
//! 4-HPC J48 cascade trained on it, and the timing of set-up passes.

use crate::util::{median, secs, Outcome, RunConfig, Size};
use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use std::process::Command;
use std::time::Instant;
use twosmart::detector::TwoSmartDetector;

/// Training seed of the served detector. The detector is fixed; the
/// workload seed only changes the traffic it serves.
pub const DETECTOR_SEED: u64 = 7;

/// Set-up passes of an untraced run; `setup_s` is their median.
pub const SETUP_PASSES: usize = 3;

/// A trained serving detector and what building it cost.
pub struct Trained {
    /// The deployable cascade.
    pub detector: TwoSmartDetector,
    /// `CorpusBuilder::build` wall time.
    pub corpus_s: f64,
    /// `TwoSmartBuilder::train` wall time.
    pub train_s: f64,
}

/// The corpus every serving set-up trains on.
pub fn serving_corpus(size: Size) -> CorpusSpec {
    match size {
        Size::Full => CorpusSpec::paper(),
        Size::Smoke => CorpusSpec::tiny(),
    }
}

/// Builds the corpus and trains the 4-HPC J48 cascade the serving path
/// deploys (stage 1 MLR on the Common events, one J48 specialist per
/// malware class).
///
/// # Panics
///
/// Panics if training fails, which the fixed corpus never makes it do.
pub fn train_serving(size: Size) -> Trained {
    let t = Instant::now();
    let corpus = CorpusBuilder::new(serving_corpus(size)).build();
    let corpus_s = secs(t);
    let t = Instant::now();
    let detector = AppClass::MALWARE
        .iter()
        .fold(
            TwoSmartDetector::builder()
                .seed(DETECTOR_SEED)
                .hpc_budget(4),
            |b, &c| b.classifier_for(c, ClassifierKind::J48),
        )
        .train(&corpus)
        .expect("the serving corpus trains");
    let train_s = secs(t);
    Trained {
        detector,
        corpus_s,
        train_s,
    }
}

/// Wall time of `setup`; what it built is dropped after the clock stops.
pub fn time_pass<T>(setup: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let built = setup();
    let s = secs(t);
    drop(built);
    s
}

/// Runs `workload`'s set-up and returns what it built with `setup_s`.
///
/// With `cfg.setup_exe` set, [`SETUP_PASSES`]` - 1` passes run first,
/// each in a fresh `perfbench --setup-only` process, and `setup_s` is the
/// median of all passes, so one slow pass does not move it. Each pass
/// starts from an empty heap, as the one kept here does, and none leaves
/// memory behind in this process's peak RSS. A child that fails is a
/// failed check.
pub fn timed_setup<T>(
    workload: &str,
    cfg: &RunConfig,
    out: &mut Outcome,
    setup: impl FnOnce() -> T,
) -> (T, f64) {
    let mut passes = Vec::with_capacity(SETUP_PASSES);
    if let Some(exe) = &cfg.setup_exe {
        for _ in 1..SETUP_PASSES {
            let child = Command::new(exe)
                .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
                .arg("--setup-only")
                .output();
            let seconds = child.ok().filter(|o| o.status.success()).and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout);
                stdout.lines().last()?.trim().parse::<f64>().ok()
            });
            out.check("set-up passes in child processes", seconds.is_some(), 1);
            passes.extend(seconds);
        }
    }
    let t = Instant::now();
    let built = setup();
    passes.push(secs(t));
    if passes.len() > 1 {
        out.note(format!(
            "set-up passes {passes:.3?} s (the last in this process)"
        ));
    }
    (built, median(&passes))
}
