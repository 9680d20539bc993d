//! `sim-churn`: the session write path under fleet churn.
//!
//! Why: every simulated host is admitted, submits, goes idle and is
//! evicted by the timer wheel, and some reconnect or misbehave — the
//! admit/evict path `pump-resident` never takes. Peak sessions come from
//! arrival rate × host lifetime, not fleet size, so submits/s on a
//! 10 000-host fleet predicts the wall time of a million-host run.
//!
//! The timed phase calls `hmd_sim::harness::run` repeatedly (wire v1,
//! `FaultPlan::standard()`, the default `SimConfig`) on fleets seeded from
//! the workload seed, until the run length is spent and at least three
//! calls are made. Each simulated submit is one op, each call one latency
//! sample. Throughput is the submits of all calls over their summed time
//! and `latency_p50_us` the median call. An untimed v2 call on the first
//! fleet comes first: its digest must equal the first v1 call's, and it
//! leaves the heap warm, so no timed call pays first-touch page faults.
//!
//! The traced run times one untraced and one traced call on the same
//! seed, then attributes the call's time by replaying its inputs through
//! the layers' public calls: `StreamGen::stream` per host, the v1 codec
//! on every submit and verdict frame, and the session engine on the
//! harness's arrival schedule (batched submits and timer-wheel sweeps).
//! The engine replay has no faults, reconnects or connection budget, so
//! its submits and peak sessions are compared with the call's digest:
//! the larger relative gap is `sim.replay_gap_pct`, and a gap above
//! [`REPLAY_TOLERANCE_PCT`] fails the run.

use crate::setup::{timed_setup, train_serving, Trained};
use crate::trace::Tracer;
use crate::util::{
    median, peak_rss_mib, proc_status_bytes, rss_bytes, secs, Outcome, RunConfig, Size, MIN_SAMPLES,
};
use hmd_ml::par::derive_seed;
use hmd_serve::metrics::Metrics;
use hmd_serve::protocol::{encode_frame_into, Frame, FrameBuffer, WireFormat};
use hmd_serve::session::{SessionConfig, SessionEngine, SubmitBatch, TimeSource};
use hmd_sim::digest::{Digest, RunReport};
use hmd_sim::harness::{run as simulate, SimConfig};
use hmd_sim::workload::StreamGen;
use std::sync::Arc;
use std::time::Instant;
use twosmart::detector::TwoSmartDetector;
use twosmart::online::OnlineDetector;

/// Largest gap, in percent, between the traced engine replay's submits or
/// peak sessions and the harness call's, for the split to stand for it.
pub const REPLAY_TOLERANCE_PCT: f64 = 5.0;

/// Fleet size of one harness call.
pub fn hosts(size: Size) -> u64 {
    match size {
        Size::Full => 10_000,
        Size::Smoke => 1_000,
    }
}

/// The harness configuration of call `call` of a run seeded `seed`.
pub fn sim_config(size: Size, seed: u64, call: u64, protocol: WireFormat) -> SimConfig {
    SimConfig {
        hosts: hosts(size),
        seed: derive_seed(seed, call),
        protocol,
        ..SimConfig::default()
    }
}

/// The digest checks every call must pass: all sessions evicted at the
/// end and every fault class fired. Returns the names of failed checks.
pub fn digest_failures(report: &RunReport) -> Vec<&'static str> {
    let d = &report.digest;
    let f = &d.faults;
    let mut failed = Vec::new();
    if d.end_sessions != 0 {
        failed.push("end_sessions == 0");
    }
    let fired = [
        f.reconnect,
        f.malformed,
        f.truncate,
        f.seq_regress,
        f.idle_race,
        f.dribble,
        f.burst_shed,
    ];
    if fired.contains(&0) {
        failed.push("every fault class fired");
    }
    failed
}

/// The larger relative gap, in percent, between an engine replay's
/// submits and peak sessions and those of the harness call it replays.
pub fn replay_gap_pct(submits: u64, peak_sessions: u64, call: &Digest) -> f64 {
    let gap = |replay: u64, harness: u64| {
        (replay as f64 - harness as f64).abs() / harness.max(1) as f64 * 100.0
    };
    gap(submits, call.submits).max(gap(peak_sessions, call.peak_sessions))
}

struct Call {
    report: RunReport,
    seconds: f64,
}

fn call(detector: &TwoSmartDetector, config: &SimConfig) -> Call {
    let detector = detector.clone();
    let t = Instant::now();
    let report = simulate(detector, config).expect("the served detector is deployable");
    Call {
        report,
        seconds: secs(t),
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    out.note(format!(
        "sim-churn: virtual-time harness, no sockets; {} hosts per call, wire v1, standard faults",
        hosts(cfg.size)
    ));
    out.busy_threads = 1;
    let (trained, setup_s) = timed_setup("sim-churn", cfg, &mut out, || train_serving(cfg.size));
    let v1 = |call_index| sim_config(cfg.size, cfg.seed, call_index, WireFormat::V1Json);

    // The v2 twin of the first timed call, untimed: its digest is the
    // reference, and as the first big allocation after set-up it faults
    // the session heap in, so every timed call runs on a warm heap and
    // its peak RSS growth is the fleet's session state at peak.
    let rss0 = rss_bytes();
    let v2 = call(
        &trained.detector,
        &sim_config(cfg.size, cfg.seed, 0, WireFormat::V2Binary),
    );
    let session_rss = proc_status_bytes("VmHWM").saturating_sub(rss0);

    // Calls start until the run length is spent, and at least
    // `MIN_SAMPLES` of them, so the median call is neither the fastest nor
    // the slowest; the traced run makes one.
    let deadline = Instant::now() + cfg.duration();
    let mut calls = vec![call(&trained.detector, &v1(0))];
    while !cfg.trace && (calls.len() < MIN_SAMPLES || Instant::now() < deadline) {
        calls.push(call(&trained.detector, &v1(calls.len() as u64)));
    }
    for c in &calls {
        for name in digest_failures(&c.report) {
            out.check(name, false, 1);
        }
    }
    out.check(
        "v1 digest byte-identical to the v2 digest",
        calls[0].report.digest.render() == v2.report.digest.render(),
        1,
    );
    let submits: u64 = calls.iter().map(|c| c.report.digest.submits).sum();
    let seconds: f64 = calls.iter().map(|c| c.seconds).sum();
    out.attempted = submits;
    out.note(format!(
        "sim-churn: {} harness calls, {} submits in {:.2} s; peak sessions {}; call times {:.3?} s",
        calls.len(),
        submits,
        seconds,
        calls[0].report.digest.peak_sessions,
        calls.iter().map(|c| c.seconds).collect::<Vec<_>>()
    ));

    if cfg.trace {
        traced(cfg, &trained, &calls[0], session_rss, &mut out);
    } else {
        let times: Vec<f64> = calls.iter().map(|c| c.seconds).collect();
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput_per_s", submits as f64 / seconds, "1/s");
        out.metric("latency_p50_us", median(&times) * 1e6, "us");
    }
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out
}

fn traced(
    cfg: &RunConfig,
    trained: &Trained,
    untraced: &Call,
    session_rss: u64,
    out: &mut Outcome,
) {
    let config = sim_config(cfg.size, cfg.seed, 0, WireFormat::V1Json);
    let mut tr = Tracer::new();
    let detector = trained.detector.clone();
    let run_id = tr.open("sim.run", 0);
    let report = simulate(detector, &config).expect("deployable");
    let run_ns = tr.close(run_id);
    out.check(
        "traced digest equals the untraced digest",
        report.digest.render() == untraced.report.digest.render(),
        1,
    );

    // Streams, as the harness generates them on each arrival.
    let gen = StreamGen::new();
    let readings = config.readings as usize;
    let streams: Vec<Vec<Vec<f64>>> = (0..config.hosts)
        .map(|h| tr.span("hpc-sim.stream", h, || gen.stream(config.seed, h, readings)))
        .collect();

    // The v1 codec on every submit and its verdict, as the agents and the
    // server encode and decode them.
    let mut online = OnlineDetector::new(trained.detector.clone(), config.window, config.votes)
        .expect("deployable");
    let mut json = String::new();
    let mut wire = Vec::new();
    let mut frames = Vec::new();
    let mut codec_frames = 0u64;
    let mut codec_mismatches = 0u64;
    for (h, stream) in streams.iter().enumerate() {
        let host_id = h as u64;
        online.reset();
        frames.clear();
        for (seq, counters) in stream.iter().enumerate() {
            let seq = seq as u64;
            frames.push(Frame::Submit {
                host_id,
                seq,
                counters: counters.clone(),
            });
            frames.push(Frame::Verdict {
                host_id,
                seq,
                verdict: online.push(counters),
            });
        }
        wire.clear();
        tr.span("protocol.encode", host_id, || {
            for frame in &frames {
                encode_frame_into(WireFormat::V1Json, frame, &mut json, &mut wire);
            }
        });
        let mut decoder = FrameBuffer::new();
        decoder.extend(&wire);
        let decoded = tr.span("protocol.decode", host_id, || {
            let mut n = 0;
            while let Ok(Some(frame)) = decoder.next_frame() {
                n += usize::from(frame == frames[n]);
            }
            n
        });
        codec_mismatches += (frames.len() - decoded) as u64;
        codec_frames += frames.len() as u64;
    }
    out.check(
        "v1 codec round-trips the fleet's frames",
        codec_mismatches == 0,
        codec_mismatches,
    );

    // The engine on the harness's schedule: from tick 1, `arrivals_per_tick`
    // hosts arrive per tick and submit every `interval` ticks until their
    // readings run out; on ticks divisible by `sweep_every` a sweep evicts
    // idle sessions before that tick's submits reach the engine.
    let metrics = Arc::new(Metrics::new());
    let engine = SessionEngine::new(
        trained.detector.clone(),
        &SessionConfig {
            shards: config.shards,
            window: config.window,
            votes: config.votes,
            idle_after: config.idle_after,
            time: TimeSource::External,
            cascade: config.cascade,
            store: config.store,
        },
        Arc::clone(&metrics),
    )
    .expect("deployable");
    let mut peak_sessions = 0u64;
    let mut submits = 0u64;
    let mut batch = SubmitBatch::new();
    let mut evicted = Vec::new();
    let mut evictions = 0u64;
    let lifetime = config.interval * config.readings;
    let arrival = |h: u64| 1 + h / config.arrivals_per_tick;
    let mut tick = 1u64;
    while tick <= arrival(config.hosts - 1) + lifetime || engine.sessions() > 0 {
        engine.set_time(tick);
        if tick.is_multiple_of(config.sweep_every) {
            tr.span("session.evict", tick, || {
                engine.evict_idle_at_into(tick, &mut evicted)
            });
            evictions += evicted.len() as u64;
        }
        let first =
            (tick.saturating_sub(lifetime + 1) * config.arrivals_per_tick).min(config.hosts);
        let end = (tick * config.arrivals_per_tick).min(config.hosts);
        for h in first..end {
            let age = tick - arrival(h);
            if age.is_multiple_of(config.interval) && age / config.interval < config.readings {
                let r = (age / config.interval) as usize;
                batch.push(h, r as u64, &streams[h as usize][r]);
            }
        }
        if !batch.is_empty() {
            submits += batch.len() as u64;
            tr.span("session.submit_batch", tick, || {
                engine.submit_batch(&mut batch)
            });
            batch.clear();
        }
        peak_sessions = peak_sessions.max(engine.sessions() as u64);
        tick += 1;
    }

    let d = &report.digest;
    let replay_gap = replay_gap_pct(submits, peak_sessions, d);
    out.check(
        "the engine replay follows the harness call's submits and peak sessions",
        replay_gap <= REPLAY_TOLERANCE_PCT,
        1,
    );
    let stream_s = tr.seconds("hpc-sim.stream");
    let codec_s = tr.seconds("protocol.encode") + tr.seconds("protocol.decode");
    let engine_s = tr.seconds("session.submit_batch") + tr.seconds("session.evict");
    let run_s = run_ns as f64 / 1e9;
    out.metric("hpc-sim.corpus_s", trained.corpus_s, "s");
    out.metric("core.train_s", trained.train_s, "s");
    out.metric("sim.run_s", run_s, "s");
    out.metric("sim.self_s", run_s - stream_s - codec_s - engine_s, "s");
    out.metric("sim.replay_gap_pct", replay_gap, "%");
    out.metric(
        "hpc-sim.stream_us",
        stream_s * 1e6 / config.hosts as f64,
        "us",
    );
    out.metric(
        "protocol.encode_ns",
        tr.seconds("protocol.encode") * 1e9 / codec_frames as f64,
        "ns",
    );
    out.metric(
        "protocol.decode_ns",
        tr.seconds("protocol.decode") * 1e9 / codec_frames as f64,
        "ns",
    );
    out.metric(
        "session.evict_ns",
        tr.seconds("session.evict") * 1e9 / evictions.max(1) as f64,
        "ns",
    );
    out.metric(
        "session.bytes_per_session",
        session_rss as f64 / untraced.report.digest.peak_sessions.max(1) as f64,
        "B",
    );
    out.metric("session.bytes_estimate", d.session_bytes_per as f64, "B");
    out.metric("sim.ticks", d.ticks as f64, "count");
    out.metric("sim.submits", d.submits as f64, "count");
    out.metric("sim.connections", report.connections as f64, "count");
    out.metric(
        "protocol.bytes_per_submit",
        report.wire_bytes_in as f64 / d.submits as f64,
        "B",
    );
    out.metric("session.peak_sessions", d.peak_sessions as f64, "count");
    out.metric(
        "trace.overhead_pct",
        (run_s - untraced.seconds) / untraced.seconds * 100.0,
        "%",
    );
    out.metric("trace.spans", tr.spans() as f64, "count");
    out.note(format!(
        "sim-churn: replayed {} streams, {} codec frames; engine replay {} submits vs the call's {}, \
         peak {} sessions vs {}, {} evictions",
        streams.len(),
        codec_frames,
        submits,
        d.submits,
        peak_sessions,
        d.peak_sessions,
        evictions,
    ));
    crate::write_trace(&tr, "sim-churn", cfg.seed, out);
}
