//! Training-path benchmarks: single J48 fit, ensemble fits, grid cells.
//!
//! The J48 rows are the workloads the presorted-column training engine
//! targets: growing a J48 by sorting at every node costs
//! O(nodes × attrs × n log n), and Bagging/AdaBoost re-pay it per member.
//! That grower is a test-only oracle (`fit_reference` in `tree.rs`), so no
//! bench times it; `BENCH_training.json` keeps its figures as these rows'
//! `before_ns`. The MLP rows time the grid's most expensive cells, and the
//! JRip rows the same two cell configurations for RIPPER. Results are
//! recorded in `BENCH_training.json`.
//!
//! The dataset is the paper-scale Virus-vs-benign problem (the largest
//! per-class binary dataset of the full 3121-application corpus) over all
//! 44 events — the same shape every grid cell trains on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hmd_bench::setup::{Experiment, Scale};
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::bagging::Bagging;
use hmd_ml::boost::AdaBoost;
use hmd_ml::classifier::{Classifier, ClassifierKind};
use hmd_ml::data::SortedColumns;
use hmd_ml::tree::J48;
use twosmart::pipeline::class_dataset_from;
use twosmart::stage2::{SpecializedDetector, Stage2Config};

fn training_benches(c: &mut Criterion) {
    let exp = Experiment::prepare(Scale::Paper);
    let bin = class_dataset_from(&exp.train, AppClass::Virus);
    let cols = SortedColumns::new(&bin);
    let mut group = c.benchmark_group("train");

    // Default fit: builds its own presorted cache, then grows off it.
    group.bench_function("j48_fit", |b| {
        b.iter(|| {
            let mut tree = J48::new();
            tree.fit(black_box(&bin)).expect("J48 fits");
            tree.node_count()
        })
    });

    // Steady-state of a sweep: the cache already exists and is shared.
    group.bench_function("j48_fit_presorted_shared", |b| {
        b.iter(|| {
            let mut tree = J48::new();
            tree.fit_presorted(black_box(&bin), &cols, None, None)
                .expect("J48 fits");
            tree.node_count()
        })
    });

    group.bench_function("bagging50_fit", |b| {
        b.iter(|| {
            let mut ens = Bagging::new(ClassifierKind::J48, 50, exp.seed);
            ens.fit(black_box(&bin)).expect("Bagging fits");
            ens.ensemble_size()
        })
    });

    group.bench_function("adaboost_fit", |b| {
        b.iter(|| {
            let mut ens =
                AdaBoost::new(ClassifierKind::J48, AdaBoost::DEFAULT_ITERATIONS, exp.seed);
            ens.fit(black_box(&bin)).expect("AdaBoost fits");
            ens.ensemble_size()
        })
    });

    // One grid cell: the 16-HPC J48 specialized detector, including event
    // selection and training (what run_grid pays 64 times). `train` is the
    // self-caching path; `train_cached` is what run_grid actually calls,
    // with the per-class cache amortized across the class's 16 cells.
    let cell_config = Stage2Config::new(ClassifierKind::J48).with_hpcs(16);
    group.bench_function("grid_cell_j48_hpc16", |b| {
        b.iter(|| {
            let det = SpecializedDetector::train(
                black_box(&bin),
                AppClass::Virus,
                &cell_config,
                exp.seed,
            )
            .expect("detector trains");
            det.events().len()
        })
    });

    group.bench_function("grid_cell_j48_hpc16_cached", |b| {
        b.iter(|| {
            let det = SpecializedDetector::train_cached(
                black_box(&bin),
                &cols,
                AppClass::Virus,
                &cell_config,
                exp.seed,
            )
            .expect("detector trains");
            det.events().len()
        })
    });

    // The MLP cells that own most of a grid's training time: 500 epochs
    // of SGD on the 16-HPC shape, and AdaBoost's 10 fits on the 4-HPC one.
    // Both shapes take a literal arm of `Mlp::fit`'s epoch loop. The JRip
    // cells at the same two configurations time RIPPER's counted grow
    // steps, plain and over AdaBoost's resamples.
    for (name, config) in [
        (
            "grid_cell_mlp_hpc16_cached",
            Stage2Config::new(ClassifierKind::Mlp).with_hpcs(16),
        ),
        (
            "grid_cell_mlp_hpc4_boosted_cached",
            Stage2Config::new(ClassifierKind::Mlp)
                .with_hpcs(4)
                .with_boosting(true),
        ),
        (
            "grid_cell_jrip_hpc16_cached",
            Stage2Config::new(ClassifierKind::JRip).with_hpcs(16),
        ),
        (
            "grid_cell_jrip_hpc4_boosted_cached",
            Stage2Config::new(ClassifierKind::JRip)
                .with_hpcs(4)
                .with_boosting(true),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let det = SpecializedDetector::train_cached(
                    black_box(&bin),
                    &cols,
                    AppClass::Virus,
                    &config,
                    exp.seed,
                )
                .expect("detector trains");
                det.events().len()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, training_benches);
criterion_main!(benches);
