//! Every workload at a smoke size, and the correctness gate fed corrupted
//! output: each check must fail when the output it guards is wrong.

use hmd_bench::grid::run_grid;
use hmd_bench::setup::{Experiment, Scale};
use hmd_serve::protocol::{ErrorCode, Frame, WireFormat};
use perfbench::fleet::Fleet;
use perfbench::paper_grid::{fingerprint, missing_sections, sections};
use perfbench::pump_resident::{Params, Rig};
use perfbench::setup::{timed_setup, train_serving};
use perfbench::sim_churn::{digest_failures, replay_gap_pct, sim_config, REPLAY_TOLERANCE_PCT};
use perfbench::util::{Outcome, RunConfig, Size};
use perfbench::{result_json, run_workload, unlisted_metrics, END_TO_END, PER_LAYER, WORKLOADS};

fn smoke(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.3,
        trace,
        size: Size::Smoke,
        setup_exe: None,
    }
}

#[test]
fn every_workload_passes_its_gate_at_smoke_size() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(workload, &smoke(3, trace)).expect("known workload");
            assert!(
                out.correct(),
                "{workload} trace={trace}: failed {} checks {:?}",
                out.failed,
                out.failed_checks
            );
            assert!(out.attempted > 0, "{workload}: no ops attempted");
            assert!(unlisted_metrics(&out, trace).is_empty(), "{workload}");
            let json = result_json(&out, trace);
            let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in list {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload}: {name} missing from {json}"
                );
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                for (name, _) in END_TO_END {
                    let v = out.value(name).unwrap_or(0.0);
                    assert!(v > 0.0, "{workload}: {name} = {v}");
                }
            } else {
                assert!(out.value("trace.spans").unwrap_or(0.0) > 0.0, "{workload}");
            }
        }
    }
}

#[test]
fn a_flipped_verdict_bit_fails_the_replay_gate() {
    let mut rig = Rig::build(&smoke(5, false), Params::for_size(Size::Smoke));
    for _ in 0..20 {
        rig.fill();
        rig.pump();
        assert_eq!(rig.collect(), 0);
    }
    assert_eq!(rig.fleet.replay_mismatches(&rig.detector, 8, 3), 0);
    rig.fleet.corrupt_digest(3);
    assert_eq!(rig.fleet.replay_mismatches(&rig.detector, 8, 3), 1);
}

#[test]
fn a_set_up_pass_that_cannot_run_fails_the_run() {
    let mut cfg = smoke(1, false);
    cfg.setup_exe = Some("no-such-perfbench-binary".into());
    let mut out = Outcome::default();
    let (built, seconds) = timed_setup("sim-churn", &cfg, &mut out, || 7);
    assert_eq!(built, 7);
    assert!(seconds >= 0.0);
    assert!(!out.correct());
    assert_eq!(
        out.failed_checks,
        vec!["set-up passes in child processes"; 2],
        "one failed check per child pass"
    );
}

#[test]
fn wrong_or_missing_replies_are_failed_ops() {
    let mut fleet = Fleet::generate(1, 4, 8);
    let mut wire = Vec::new();
    for h in 0..3 {
        fleet.push_frame(h, &mut wire);
    }
    let verdict = |host_id, seq| Frame::Verdict {
        host_id,
        seq,
        verdict: None,
    };
    // Host 1's reply while host 0's is due: out of order.
    assert!(!fleet.on_reply(&verdict(1, 0)));
    // An error frame in place of a verdict.
    assert!(!fleet.on_reply(&Frame::Error {
        code: ErrorCode::Malformed,
        detail: "bad".into(),
    }));
    assert!(fleet.on_reply(&verdict(2, 0)));
    // A reply nobody awaits.
    assert!(!fleet.on_reply(&verdict(0, 0)));
    // Hosts whose replies went missing fail the replay gate too.
    fleet.push_frame(3, &mut wire);
    assert_eq!(fleet.abandon_inflight(), 1);
    let detector = train_serving(Size::Smoke).detector;
    assert_eq!(fleet.replay_mismatches(&detector, 8, 3), 3);
}

#[test]
fn sim_digest_checks_fail_on_corrupted_digests() {
    let detector = train_serving(Size::Smoke).detector;
    let mut v1 = hmd_sim::harness::run(
        detector.clone(),
        &sim_config(Size::Smoke, 4, 0, WireFormat::V1Json),
    )
    .expect("deployable");
    let v2 = hmd_sim::harness::run(
        detector,
        &sim_config(Size::Smoke, 4, 0, WireFormat::V2Binary),
    )
    .expect("deployable");
    assert!(digest_failures(&v1).is_empty());
    assert_eq!(v1.digest.render(), v2.digest.render());

    // An engine replay that strays from the call fails the split's check.
    let d = &v1.digest;
    assert_eq!(replay_gap_pct(d.submits, d.peak_sessions, d), 0.0);
    let off = d.peak_sessions * 106 / 100;
    assert!(replay_gap_pct(d.submits, off, d) > REPLAY_TOLERANCE_PCT);

    v1.digest.end_sessions = 1;
    assert_eq!(digest_failures(&v1), vec!["end_sessions == 0"]);
    v1.digest.end_sessions = 0;
    v1.digest.faults.idle_race = 0;
    assert_eq!(digest_failures(&v1), vec!["every fault class fired"]);
    v1.digest.verdicts.benign += 1;
    assert_ne!(v1.digest.render(), v2.digest.render());
}

#[test]
fn report_section_check_fails_on_an_altered_section() {
    let exp = Experiment::prepare(Scale::Tiny);
    let grid = run_grid(&exp.train, &exp.test, 1);
    let rendered = sections(&grid);
    let report: String = rendered.iter().map(|(_, text)| text.as_str()).collect();
    assert!(missing_sections(&grid, &report).is_empty());

    let (_, table3) = &rendered[1];
    let digit = table3
        .find(|c: char| c.is_ascii_digit())
        .expect("table3 has numbers");
    let mut altered = table3.clone();
    let flipped = if &table3[digit..=digit] == "9" {
        "8"
    } else {
        "9"
    };
    altered.replace_range(digit..=digit, flipped);
    let report = report.replace(table3.as_str(), &altered);
    assert_eq!(missing_sections(&grid, &report), vec!["table3"]);
}

#[test]
fn grid_identity_check_sees_a_flipped_score_bit() {
    let exp = Experiment::prepare(Scale::Tiny);
    let a = fingerprint(&run_grid(&exp.train, &exp.test, 2));
    let b = fingerprint(&run_grid(&exp.train, &exp.test, 2));
    assert_eq!(a, b, "grids are deterministic in the seed");
    let mut flipped = b.clone();
    flipped[7].3 ^= 1;
    assert_ne!(a, flipped);
}

/// The seed-2019 paper-scale grid against the committed report. Slow in
/// a debug build: `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn committed_report_matches_the_paper_grid() {
    let exp = Experiment::prepare(Scale::Paper);
    let grid = hmd_ml::par::with_threads(1, || run_grid(&exp.train, &exp.test, 2019));
    let report = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md at the repository root");
    assert!(missing_sections(&grid, &report).is_empty());
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
}
