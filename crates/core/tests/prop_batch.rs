//! Property checks of the two-stage cascade over batches of rows.
//! `TwoSmartDetector::cascade` is the one function that scores a row, for
//! `detect`, the serving engine's drain and `detect_batch_with` alike.
//! Under [`CascadeMode::Always`], `detect_batch_with` must give every
//! lane `detect`'s verdict bit for bit, and run stage 2 exactly for the
//! malware-routed lanes. Under `Gated(t)`, a lane may skip stage 2 only
//! when its stage-1 confidence clears `t`, and must otherwise match
//! `Always`. The rows mix duplicate, NaN, negative and zero counters, and
//! every fitted model kind is checked. A single differing ULP in a
//! confidence would change wire bytes and the sim digest.

use hmd_hpc_sim::corpus::{Corpus, CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use proptest::prelude::*;
use std::sync::OnceLock;
use twosmart::detector::{CascadeMode, DetectBatchScratch, Verdict};
use twosmart::TwoSmartDetector;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| CorpusBuilder::new(CorpusSpec::tiny()).build())
}

/// One fitted detector per stage-2 model kind, plus a boosted one — fitted
/// once and shared across all proptest cases.
fn detectors() -> &'static Vec<(String, TwoSmartDetector)> {
    static DETECTORS: OnceLock<Vec<(String, TwoSmartDetector)>> = OnceLock::new();
    DETECTORS.get_or_init(|| {
        let mut fitted = Vec::new();
        for kind in ClassifierKind::ALL {
            let det = AppClass::MALWARE
                .iter()
                .fold(
                    TwoSmartDetector::builder().seed(7).hpc_budget(4),
                    |b, &c| b.classifier_for(c, kind),
                )
                .train(corpus())
                .expect("detector trains on the tiny corpus");
            fitted.push((kind.name().to_string(), det));
        }
        let boosted = AppClass::MALWARE
            .iter()
            .fold(
                TwoSmartDetector::builder()
                    .seed(7)
                    .hpc_budget(4)
                    .boosted(true),
                |b, &c| b.classifier_for(c, ClassifierKind::OneR),
            )
            .train(corpus())
            .expect("boosted detector trains");
        fitted.push(("Boosted-OneR".to_string(), boosted));
        fitted
    })
}

/// Verdict as comparable bits (confidence via `to_bits`, so `-0.0` vs
/// `0.0` or differing NaN payloads fail the comparison).
fn verdict_bits(v: &Verdict) -> (bool, usize, u64) {
    match v {
        Verdict::Benign => (false, 0, 0),
        Verdict::Malware { class, confidence } => (true, class.label(), confidence.to_bits()),
    }
}

/// A pool of 44-event rows: counter-scale magnitudes with NaN, negative
/// and zero values mixed in, so tree NaN-routing, the `max(0)` log clamp
/// and softmax NaN propagation are all exercised.
fn arb_row_pool() -> impl Strategy<Value = Vec<Vec<f64>>> {
    // Weighted by repetition (the vendored prop_oneof! is unweighted).
    let cell = prop_oneof![
        0.0..1e9f64,
        0.0..1e9f64,
        0.0..1e9f64,
        -1e6..1e6f64,
        Just(f64::NAN),
        Just(0.0f64),
    ];
    proptest::collection::vec(proptest::collection::vec(cell, Event::COUNT), 1..=6)
}

/// Builds a `lanes × 44` row-major batch by cycling the pool (duplicate
/// lanes on purpose: shared scratch reuse must not let one lane's state
/// leak into another).
fn flatten_cycled(pool: &[Vec<f64>], lanes: usize) -> Vec<f64> {
    let mut flat = Vec::with_capacity(lanes * Event::COUNT);
    for lane in 0..lanes {
        flat.extend_from_slice(&pool[lane % pool.len()]);
    }
    flat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn always_mode_is_bit_identical_to_scalar(pool in arb_row_pool()) {
        let mut batch_scratch = DetectBatchScratch::new();
        let mut out = Vec::new();
        for (label, det) in detectors() {
            for lanes in [1usize, 2, 7, 64, 1000] {
                let flat = flatten_cycled(&pool, lanes);
                det.detect_batch_with(&flat, CascadeMode::Always, &mut batch_scratch, &mut out);
                prop_assert_eq!(out.len(), lanes);
                for (lane, cv) in out.iter().enumerate() {
                    let row = &flat[lane * Event::COUNT..(lane + 1) * Event::COUNT];
                    let scalar = det.detect(row);
                    prop_assert_eq!(
                        verdict_bits(&cv.verdict),
                        verdict_bits(&scalar),
                        "{}: lane {}/{} diverged: batch {:?} vs scalar {:?}",
                        label, lane, lanes, cv.verdict, scalar
                    );
                    // Stage 2 runs exactly for malware-routed lanes under
                    // Always — the same lanes whose scalar detection
                    // consulted a specialist.
                    let routed_malware = det.stage1().predict_class(row) != AppClass::Benign;
                    prop_assert_eq!(cv.stage2_ran, routed_malware);
                }
            }
        }
    }

    #[test]
    fn gated_mode_skips_confident_lanes_and_matches_always_elsewhere(
        pool in arb_row_pool(),
        threshold in 0.0..=1.0f64,
    ) {
        let mut batch_scratch = DetectBatchScratch::new();
        let mut always = Vec::new();
        let mut gated = Vec::new();
        for (label, det) in detectors() {
            let flat = flatten_cycled(&pool, 64);
            det.detect_batch_with(&flat, CascadeMode::Always, &mut batch_scratch, &mut always);
            det.detect_batch_with(
                &flat,
                CascadeMode::Gated(threshold),
                &mut batch_scratch,
                &mut gated,
            );
            for (lane, (a, g)) in always.iter().zip(gated.iter()).enumerate() {
                if g.stage2_ran {
                    // A lane the gate let through must match Always
                    // bit-for-bit (same specialist, same arithmetic).
                    prop_assert!(a.stage2_ran);
                    prop_assert_eq!(
                        verdict_bits(&g.verdict),
                        verdict_bits(&a.verdict),
                        "{}: gated lane {} diverged from Always",
                        label, lane
                    );
                } else if let Verdict::Malware { confidence, .. } = g.verdict {
                    // Skipped malware verdicts carry the stage-1 routing
                    // probability, which must have cleared the gate.
                    prop_assert!(
                        confidence >= threshold,
                        "{}: lane {} skipped stage 2 below the gate ({} < {})",
                        label, lane, confidence, threshold
                    );
                } else {
                    // stage2_ran = false with a benign verdict only for
                    // benign-routed lanes, which Always also leaves benign.
                    prop_assert_eq!(verdict_bits(&g.verdict), verdict_bits(&a.verdict));
                    prop_assert!(!a.stage2_ran);
                }
            }
        }
    }
}

#[test]
fn calibrated_gate_is_a_valid_threshold() {
    let (_, det) = &detectors()[0];
    let validation = twosmart::pipeline::full_dataset(corpus());
    let t = det.calibrate_gate(&validation);
    assert!((0.0..=1.0).contains(&t), "gate {t} outside [0, 1]");
    // The gated pipeline at the calibrated threshold must not lose pooled
    // F-measure versus running stage 2 always (the gate only skips where
    // the measured F stays within tolerance of the best candidate).
    let mut scratch = DetectBatchScratch::new();
    let mut always = Vec::new();
    let mut gated = Vec::new();
    let mut skipped = 0usize;
    for i in 0..validation.len() {
        let row = validation.features_of(i);
        det.detect_batch_with(row, CascadeMode::Always, &mut scratch, &mut always);
        det.detect_batch_with(row, CascadeMode::Gated(t), &mut scratch, &mut gated);
        if !gated[0].stage2_ran && always[0].stage2_ran {
            skipped += 1;
        }
    }
    // Not an assertion that skipping happened (a tiny corpus may calibrate
    // to "never skip") — just that the bookkeeping is consistent.
    assert!(skipped <= validation.len());
}
