//! Criterion benchmarks of the two-stage cascade over batches of rows: a
//! loop of `detect` calls at four batch sizes, and the gated cascade at
//! batch 64.
//!
//! `detect_batch_with` is a loop of per-row cascades, so under
//! `CascadeMode::Always` it would time the same work as the scalar loop;
//! the gated row shows what the gate's stage-2 skips save on the same
//! rows.

use criterion::{criterion_group, criterion_main, Criterion};
use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::prelude::*;
use std::hint::black_box;
use twosmart::detector::{CascadeMode, DetectBatchScratch, TwoSmartDetector};

/// Batch sizes for the scalar-loop rows; 64 is a pump burst's worth of
/// ready windows under a bursty fleet.
const SIZES: [usize; 4] = [1, 8, 64, 256];

/// A deployable (4-HPC) detector with J48 specialists — the same model the
/// `inference` benches score one reading at a time.
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

/// Deterministic `lanes × 44` row-major feature rows: counter-scale
/// magnitudes with mild per-lane variation so stage-1 routing spreads
/// across classes and tree walks are not degenerate.
fn rows(lanes: usize) -> Vec<f64> {
    let mut flat = Vec::with_capacity(lanes * Event::COUNT);
    for lane in 0..lanes {
        for j in 0..Event::COUNT {
            let (l, j) = (lane as f64, j as f64);
            flat.push(1.25e6 / (1.0 + j) + 1.0e3 * ((l * 31.0 + j * 7.0) % 17.0));
        }
    }
    flat
}

fn bench_detect_scalar_loop(c: &mut Criterion) {
    let det = detector();
    for lanes in SIZES {
        let flat = rows(lanes);
        c.bench_function(&format!("batch/detect_scalar_loop/{lanes}"), |b| {
            b.iter(|| {
                let mut malware = 0usize;
                for row in flat.chunks_exact(Event::COUNT) {
                    let v = det.detect(black_box(row));
                    malware += usize::from(!matches!(v, twosmart::detector::Verdict::Benign));
                }
                malware
            })
        });
    }
}

/// The gated cascade at batch 64 — same batch, stage 2 skipped wherever
/// stage-1 confidence clears the gate.
fn bench_cascade_batch_gated(c: &mut Criterion) {
    let det = detector();
    let mut scratch = DetectBatchScratch::new();
    let mut out = Vec::new();
    let flat = rows(64);
    c.bench_function("batch/detect_batch_gated_0.9/64", |b| {
        b.iter(|| {
            det.detect_batch_with(
                black_box(&flat),
                CascadeMode::Gated(0.9),
                &mut scratch,
                &mut out,
            );
            out.len()
        })
    });
}

criterion_group!(benches, bench_detect_scalar_loop, bench_cascade_batch_gated);
criterion_main!(benches);
