//! Criterion benchmarks of the per-sample inference hot path: the
//! single-reading `OnlineDetector::push`, the raw two-stage
//! `detect_from_counters`, and leaf-level classifier scoring.
//!
//! These are the costs that bound how many 10 ms HPC samples a deployment
//! can score per core. Every row runs an allocation-free path;
//! `BENCH_inference.json` records their figures.

use criterion::{criterion_group, criterion_main, Criterion};
use hmd_bench::setup::{Experiment, Scale};
use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use std::hint::black_box;
use twosmart::detector::TwoSmartDetector;
use twosmart::online::OnlineDetector;
use twosmart::pipeline::class_dataset_from;
use twosmart::stage2::{SpecializedDetector, Stage2Config};

/// A deployable (4-HPC) detector with J48 specialists, the paper's
/// best-accuracy stage-2 family.
fn detector() -> TwoSmartDetector {
    let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
    AppClass::MALWARE
        .iter()
        .fold(
            TwoSmartDetector::builder().seed(0).hpc_budget(4),
            |b, &class| b.classifier_for(class, ClassifierKind::J48),
        )
        .train(&corpus)
        .expect("detector trains")
}

/// Deterministic, mildly varying counter readings so window means and tree
/// traversals are not degenerate constants.
fn readings(n: usize) -> Vec<[f64; 4]> {
    (0..n)
        .map(|i| {
            let i = i as f64;
            [
                1.25e6 + 1.0e4 * (i % 17.0),
                3.10e5 + 3.0e3 * (i % 13.0),
                4.70e4 + 5.0e2 * (i % 11.0),
                9.90e3 + 1.0e2 * (i % 7.0),
            ]
        })
        .collect()
}

fn bench_online_push(c: &mut Criterion) {
    let mut online = OnlineDetector::new(detector(), 8, 3).expect("deployable");
    let inputs = readings(64);
    let mut i = 0;
    c.bench_function("online/push", |b| {
        b.iter(|| {
            i = (i + 1) % inputs.len();
            online.push(black_box(&inputs[i]))
        })
    });
}

fn bench_detect_from_counters(c: &mut Criterion) {
    let det = detector();
    let inputs = readings(64);
    let mut i = 0;
    c.bench_function("detector/detect_from_counters", |b| {
        b.iter(|| {
            i = (i + 1) % inputs.len();
            det.detect_from_counters(black_box(&inputs[i]))
        })
    });
}

fn bench_stage2_score(c: &mut Criterion) {
    let exp = Experiment::prepare(Scale::Tiny);
    let binary = class_dataset_from(&exp.train, AppClass::Virus);
    let config = Stage2Config::new(ClassifierKind::J48);
    let det = SpecializedDetector::train(&binary, AppClass::Virus, &config, 0).expect("trains");
    let sample = exp.corpus.records()[0].features.clone();
    c.bench_function("stage2/score", |b| b.iter(|| det.score(black_box(&sample))));
}

criterion_group!(
    benches,
    bench_online_push,
    bench_detect_from_counters,
    bench_stage2_score
);
criterion_main!(benches);
