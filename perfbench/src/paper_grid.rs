//! `paper-grid`: the researcher's wait for the paper's detector grid.
//!
//! Why: it is the only workload that exercises `ml` training — 64 cells,
//! 4 malware classes × {J48, JRip, MLP, OneR} × {16, 8, 4, 4-boosted}
//! HPCs, each trained and scored on the 3121-application corpus.
//!
//! Set-up is `Experiment::prepare(Scale::Paper)`. The timed phase calls
//! `hmd_bench::grid::run_grid` until the run length is spent and at least
//! three grids are made; one op is one trained and scored cell, one
//! latency sample one whole grid. Throughput is the cells of all grids
//! over their summed time and `latency_p50_us` the median grid.
//!
//! Every grid trains at the paper's seed, 2019, whatever the workload
//! seed: how long a grid takes depends on its seed (on a 2-vCPU virtual
//! machine, run back to back, seed 113 took 4.0–4.6 s per grid and seed
//! 112 5.4–6.6 s, as the boosted and MLP cells train for more or fewer
//! rounds), so a per-run seed would make the run-to-run spread measure
//! which seed each run drew. Every run therefore checks the
//! Table I/III/IV and Fig. 4 sections rendered from its grid against the
//! committed `EXPERIMENTS.md`, where they must appear verbatim, and that
//! every grid of the run is identical.
//!
//! The traced run times one untraced grid, then replays `run_grid`'s cell
//! loop through the layers' public calls (`SortedColumns::new`,
//! `SpecializedDetector::train_cached`, `evaluate`), which must produce the
//! same grid.

use crate::setup::timed_setup;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mib, secs, Outcome, RunConfig, Size, MIN_SAMPLES};
use hmd_bench::experiments::{fig4, table1, table3, table4};
use hmd_bench::grid::{run_grid, Grid, HpcConfig};
use hmd_bench::setup::{Experiment, Scale};
use hmd_hpc_sim::corpus::CorpusBuilder;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use hmd_ml::data::SortedColumns;
use std::time::Instant;
use twosmart::pipeline::class_dataset_from;
use twosmart::stage2::SpecializedDetector;

/// The seed `EXPERIMENTS.md` was generated with, which every grid trains
/// at.
pub const REPORT_SEED: u64 = Experiment::SEED;

/// Cells per grid.
pub const CELLS: usize = 64;

/// One cell's identity and scores, bit for bit.
pub type CellPrint = (usize, ClassifierKind, HpcConfig, u64, u64);

fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Paper,
        Size::Smoke => Scale::Tiny,
    }
}

/// The set-up: the experiment corpus split into train and test.
pub fn prepare(size: Size) -> Experiment {
    Experiment::prepare(scale(size))
}

/// A grid's cells in order, with scores as bit patterns.
pub fn fingerprint(grid: &Grid) -> Vec<CellPrint> {
    grid.cells()
        .iter()
        .map(|c| {
            (
                c.class.label(),
                c.kind,
                c.config,
                c.score.f_measure.to_bits(),
                c.score.auc.to_bits(),
            )
        })
        .collect()
}

/// The report sections the grid renders, by name.
pub fn sections(grid: &Grid) -> [(&'static str, String); 4] {
    [
        ("table1", table1::run(grid)),
        ("table3", table3::run(grid)),
        ("fig4", fig4::run(grid)),
        ("table4", table4::run(grid)),
    ]
}

/// Names of the sections that do not appear verbatim in `report`.
pub fn missing_sections(grid: &Grid, report: &str) -> Vec<&'static str> {
    sections(grid)
        .into_iter()
        .filter(|(_, text)| !report.contains(text.as_str()))
        .map(|(name, _)| name)
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    out.note(format!(
        "paper-grid: {CELLS} cells per grid, grid seed {REPORT_SEED} whatever the workload seed"
    ));
    out.busy_threads = 1;
    let (exp, setup_s) = timed_setup("paper-grid", cfg, &mut out, || prepare(cfg.size));

    let mut grids: Vec<Grid> = Vec::new();
    let mut times = Vec::new();
    // Grids start until the run length is spent, and at least
    // `MIN_SAMPLES` of them, so the median grid is neither the fastest nor
    // the slowest; the traced run makes one.
    let deadline = Instant::now() + cfg.duration();
    loop {
        let t = Instant::now();
        grids.push(run_grid(&exp.train, &exp.test, REPORT_SEED));
        times.push(secs(t));
        if cfg.trace || (grids.len() >= MIN_SAMPLES && Instant::now() >= deadline) {
            break;
        }
    }
    out.attempted = (grids.len() * CELLS) as u64;
    let first = fingerprint(&grids[0]);
    let differing = grids[1..]
        .iter()
        .filter(|g| fingerprint(g) != first)
        .count();
    out.check(
        "every grid of the run is identical",
        differing == 0,
        (differing * CELLS) as u64,
    );
    if cfg.size == Size::Full {
        let report = std::fs::read_to_string("EXPERIMENTS.md").unwrap_or_default();
        let missing = missing_sections(&grids[0], &report);
        out.check(
            "table1/table3/fig4/table4 appear verbatim in EXPERIMENTS.md",
            missing.is_empty(),
            missing.len() as u64,
        );
        out.note(format!(
            "paper-grid: report sections checked against EXPERIMENTS.md, missing: {missing:?}"
        ));
    }
    let total: f64 = times.iter().sum();
    out.note(format!(
        "paper-grid: {} grids in {:.2} s ({} latency samples)",
        grids.len(),
        total,
        times.len()
    ));

    if cfg.trace {
        traced(cfg, &exp, &grids[0], times[0], &mut out);
    } else {
        out.metric("setup_s", setup_s, "s");
        out.metric(
            "throughput_per_s",
            (grids.len() * CELLS) as f64 / total,
            "1/s",
        );
        out.metric("latency_p50_us", median(&times) * 1e6, "us");
    }
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out
}

fn learner(kind: ClassifierKind, config: HpcConfig) -> &'static str {
    if config.boosted() {
        return "bench.cells_ms.boosted";
    }
    match kind {
        ClassifierKind::J48 => "bench.cells_ms.j48",
        ClassifierKind::JRip => "bench.cells_ms.jrip",
        ClassifierKind::Mlp => "bench.cells_ms.mlp",
        ClassifierKind::OneR => "bench.cells_ms.oner",
    }
}

fn traced(cfg: &RunConfig, exp: &Experiment, grid: &Grid, grid_s: f64, out: &mut Outcome) {
    let mut tr = Tracer::new();
    let t = Instant::now();
    drop(CorpusBuilder::new(scale(cfg.size).spec()).build());
    out.metric("hpc-sim.corpus_s", secs(t), "s");

    // `run_grid`'s cell loop, one span per call into `ml` and `core`.
    let start = Instant::now();
    let splits: Vec<_> = AppClass::MALWARE
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let train = class_dataset_from(&exp.train, class);
            let cols = tr.span("ml.sorted_columns", i as u64, || SortedColumns::new(&train));
            (train, cols, class_dataset_from(&exp.test, class))
        })
        .collect();
    let mut replay = Vec::with_capacity(CELLS);
    for (class_idx, &class) in AppClass::MALWARE.iter().enumerate() {
        let (train, cols, test) = &splits[class_idx];
        for kind in ClassifierKind::ALL {
            for config in HpcConfig::ALL {
                let request = replay.len() as u64;
                let cell = tr.open(learner(kind, config), request);
                let det = tr.span("ml.fit", request, || {
                    SpecializedDetector::train_cached(
                        train,
                        cols,
                        class,
                        &config.stage2_config(kind),
                        REPORT_SEED,
                    )
                    .expect("grid cells train")
                });
                let score = tr.span("ml.evaluate", request, || det.evaluate(test));
                tr.close(cell);
                replay.push((
                    class.label(),
                    kind,
                    config,
                    score.f_measure.to_bits(),
                    score.auc.to_bits(),
                ));
            }
        }
    }
    let replay_s = secs(start);
    out.check(
        "the replayed cell loop produces run_grid's grid",
        replay == fingerprint(grid),
        CELLS as u64,
    );
    for name in [
        "bench.cells_ms.j48",
        "bench.cells_ms.jrip",
        "bench.cells_ms.mlp",
        "bench.cells_ms.oner",
        "bench.cells_ms.boosted",
    ] {
        out.metric(name, tr.seconds(name) * 1e3, "ms");
    }
    out.metric("ml.fit_ms", tr.seconds("ml.fit") * 1e3, "ms");
    out.metric("ml.evaluate_ms", tr.seconds("ml.evaluate") * 1e3, "ms");
    out.metric(
        "ml.sorted_columns_ms",
        tr.seconds("ml.sorted_columns") * 1e3,
        "ms",
    );
    out.metric(
        "trace.overhead_pct",
        (replay_s - grid_s) / grid_s * 100.0,
        "%",
    );
    out.metric("trace.spans", tr.spans() as f64, "count");
    crate::write_trace(&tr, "paper-grid", cfg.seed, out);
}
