//! Criterion benchmarks of the batched SoA inference path against the
//! scalar loop it replaces: the full two-stage cascade per batch size, and
//! the leaf kernels (compiled-tree walk, MLR projection) at batch 64.
//!
//! Every batched row has a scalar-loop oracle row at the same size, so the
//! per-reading speedup is `scalar_loop(n) / batch(n)` with both sides
//! amortizing identical work. The batch-64 ratios are the acceptance gate
//! recorded in `BENCH_inference.json` — under `CascadeMode::Always` the
//! batch path returns bit-identical verdicts (property-tested in
//! `prop_batch.rs`), so any speedup here is execution shape, not skipped
//! work.

use criterion::{criterion_group, criterion_main, Criterion};
use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::prelude::*;
use std::hint::black_box;
use twosmart::detector::{CascadeMode, DetectBatchScratch, TwoSmartDetector};

/// Batch sizes for the full-cascade rows; 64 is the gate size (one shard
/// drain's worth of ready windows under a bursty fleet).
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

/// The paper corpus' full 5-class problem (3121 apps x 44 events, 3 %
/// label noise) -- the same data distribution every experiment in this
/// repo trains on, so the kernel rows measure the tree/projection shapes
/// that deployment actually produces.
fn kernel_dataset() -> Dataset {
    twosmart::pipeline::full_dataset(&CorpusBuilder::new(CorpusSpec::paper()).build())
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

fn bench_cascade_batch(c: &mut Criterion) {
    let det = detector();
    let mut scratch = DetectBatchScratch::new();
    let mut out = Vec::new();
    for lanes in SIZES {
        let flat = rows(lanes);
        c.bench_function(&format!("batch/detect_batch/{lanes}"), |b| {
            b.iter(|| {
                det.detect_batch_with(
                    black_box(&flat),
                    CascadeMode::Always,
                    &mut scratch,
                    &mut out,
                );
                out.len()
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

/// Leaf kernels at batch 64: the compiled-tree level-synchronous walk and
/// the MLR matmul-shaped projection, each against its scalar loop.
fn bench_kernels(c: &mut Criterion) {
    let data = kernel_dataset();
    let lanes = 64usize;
    let models: Vec<(&str, Box<dyn Classifier>)> = vec![
        ("j48", {
            let mut m = ClassifierKind::J48.build(0);
            m.fit(&data).expect("fits");
            m
        }),
        ("mlr", {
            let mut m: Box<dyn Classifier> = Box::new(Mlr::new());
            m.fit(&data).expect("fits");
            m
        }),
    ];
    for (name, model) in &models {
        let k = model.n_classes();
        let mut scalar_out = vec![0.0; k];
        c.bench_function(&format!("batch/{name}_scalar_loop/{lanes}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for lane in 0..lanes {
                    let x = data.features_of(lane % data.len());
                    model.predict_proba_into(black_box(x), &mut scalar_out);
                    acc += scalar_out[0];
                }
                acc
            })
        });
        let mut batch = BatchScratch::new();
        batch.reset(data.n_features(), lanes);
        for lane in 0..lanes {
            batch.set_lane(lane, data.features_of(lane % data.len()));
        }
        let mut out = vec![0.0; lanes * k];
        c.bench_function(&format!("batch/{name}_batch/{lanes}"), |b| {
            b.iter(|| {
                model.predict_proba_batch_into(black_box(&batch), &mut out);
                out[0]
            })
        });
    }
}

criterion_group!(
    benches,
    bench_detect_scalar_loop,
    bench_cascade_batch,
    bench_cascade_batch_gated,
    bench_kernels
);
criterion_main!(benches);
