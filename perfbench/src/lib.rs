//! End-to-end and per-layer benchmark of the 2SMaRT stack.
//!
//! One command runs one workload (`serve-tcp`, `pump-resident`,
//! `sim-churn`, `paper-grid`) from a seed, checks its outputs, and prints
//! its metrics by name and unit; the last stdout line is a JSON result.
//! An untraced run reports the end-to-end metrics; a traced run times the
//! calls each workload makes into the layers' public functions and
//! reports the per-layer split. Every workload runs with `hmd_ml::par`
//! pinned to one thread.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod paper_grid;
pub mod pipe;
pub mod pump_resident;
pub mod serve_tcp;
pub mod setup;
pub mod sim_churn;
pub mod trace;
pub mod util;

use util::{Outcome, RunConfig};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = ["serve-tcp", "pump-resident", "sim-churn", "paper-grid"];

/// End-to-end metrics and units: every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
];

/// Per-layer metrics and units: every traced run reports all of them, 0
/// where the workload does not cross the layer.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("hpc-sim.corpus_s", "s"),
    ("core.train_s", "s"),
    ("hpc-sim.streams_s", "s"),
    ("session.warmup_s", "s"),
    ("session.bytes_per_session", "B"),
    ("session.bytes_estimate", "B"),
    ("wire2.decode_ns", "ns"),
    ("wire2.encode_ns", "ns"),
    ("session.push_ns", "ns"),
    ("session.submit_batch_ns", "ns"),
    ("session.self_ns", "ns"),
    ("core.window_ns", "ns"),
    ("core.cascade_ns", "ns"),
    ("core.stage1_ns", "ns"),
    ("ml.stage2_ns", "ns"),
    ("core.smooth_ns", "ns"),
    ("service.pump_ns", "ns"),
    ("service.burst_p99_us", "us"),
    ("service.self_ns", "ns"),
    ("service.lanes_per_batch", "count"),
    ("core.stage2_ran_ratio", "ratio"),
    ("server.wait_us", "us"),
    ("server.frames_per_read", "count"),
    ("server.latency_p99_us", "us"),
    ("server.pump_burst_us", "us"),
    ("client.encode_ns", "ns"),
    ("client.decode_ns", "ns"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.replay_gap_pct", "%"),
    ("hpc-sim.stream_us", "us"),
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("session.evict_ns", "ns"),
    ("sim.ticks", "count"),
    ("sim.submits", "count"),
    ("sim.connections", "count"),
    ("protocol.bytes_per_submit", "B"),
    ("session.peak_sessions", "count"),
    ("bench.cells_ms.j48", "ms"),
    ("bench.cells_ms.jrip", "ms"),
    ("bench.cells_ms.mlp", "ms"),
    ("bench.cells_ms.oner", "ms"),
    ("bench.cells_ms.boosted", "ms"),
    ("ml.fit_ms", "ms"),
    ("ml.evaluate_ms", "ms"),
    ("ml.sorted_columns_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Runs one workload by name; `None` for an unknown name. Checks that the
/// busy threads and OS connections it started fit the available CPUs, so
/// the generator never competes with the program for a core.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    let run: fn(&RunConfig) -> Outcome = match name {
        "serve-tcp" => serve_tcp::run,
        "pump-resident" => pump_resident::run,
        "sim-churn" => sim_churn::run,
        "paper-grid" => paper_grid::run,
        _ => return None,
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = hmd_ml::par::with_threads(1, || run(cfg));
    let (busy, connections) = (out.busy_threads, out.connections);
    out.notes.insert(
        0,
        format!("{name}: busy threads {busy}, OS connections {connections}, CPUs {nproc}"),
    );
    out.check(
        "busy threads and OS connections fit the available CPUs",
        busy <= nproc && connections <= nproc,
        1,
    );
    Some(out)
}

/// Times one set-up pass of a workload in this process: what
/// `perfbench --setup-only` runs for [`setup::timed_setup`]. `None` for an
/// unknown name.
pub fn setup_pass(name: &str, cfg: &RunConfig) -> Option<f64> {
    let pass = || match name {
        "serve-tcp" => Some(setup::time_pass(|| {
            serve_tcp::Rig::build(cfg, serve_tcp::Params::for_size(cfg.size))
        })),
        "pump-resident" => Some(setup::time_pass(|| {
            pump_resident::Rig::build(cfg, pump_resident::Params::for_size(cfg.size))
        })),
        "sim-churn" => Some(setup::time_pass(|| setup::train_serving(cfg.size))),
        "paper-grid" => Some(setup::time_pass(|| paper_grid::prepare(cfg.size))),
        _ => None,
    };
    hmd_ml::par::with_threads(1, pass)
}

/// Writes a traced run's spans under `.bench_build/trace/` (relative to
/// the working directory) and notes where.
pub fn write_trace(tr: &trace::Tracer, workload: &str, seed: u64, out: &mut Outcome) {
    let path = std::path::PathBuf::from(format!(".bench_build/trace/{workload}-{seed}.jsonl"));
    match tr.write(&path) {
        Ok(()) => out.note(format!(
            "{workload}: {} spans recorded, first {} written to {}",
            tr.spans(),
            tr.spans().min(trace::Tracer::CAP as u64),
            path.display()
        )),
        Err(e) => out.note(format!("{workload}: could not write spans: {e}")),
    }
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics the
/// run kind reports (end-to-end untraced, per-layer traced), each with its
/// unit. Per-layer metrics a workload does not measure read 0.
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let value = out.value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Metrics a run recorded that its kind does not list; a bug if non-empty.
pub fn unlisted_metrics(out: &Outcome, trace: bool) -> Vec<String> {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut extra: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| {
            m.name != "peak_rss_mb" && !list.iter().any(|&(n, u)| n == m.name && u == m.unit)
        })
        .map(|m| format!("{} [{}]", m.name, m.unit))
        .collect();
    extra.dedup();
    extra
}
