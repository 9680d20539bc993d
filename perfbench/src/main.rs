//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one `name = value unit` line
//! each, then the JSON result as the last line of stdout. Run it from the
//! repository root (paper-grid reads `EXPERIMENTS.md` there):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pump-resident --seed 1 --seconds 10 --trace 0
//! ```
//!
//! An untraced run repeats its set-up in child processes of this binary,
//! `perfbench --workload <name> --seed <n> --setup-only`, each of which
//! prints the wall time of one set-up pass as its last line.

#![forbid(unsafe_code)]

use perfbench::util::{RunConfig, Size};
use perfbench::{result_json, run_workload, setup_pass, unlisted_metrics, WORKLOADS};
use std::process::ExitCode;

/// The workload, its configuration, and whether only one set-up pass runs.
fn parse(args: &[String]) -> Result<(String, RunConfig, bool), String> {
    let mut workload = None;
    let mut setup_only = false;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        setup_exe: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !cfg.trace && !setup_only {
        cfg.setup_exe =
            Some(std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?);
    }
    Ok((workload, cfg, setup_only))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg, setup_only) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if setup_only {
        let seconds = setup_pass(&workload, &cfg).expect("workload name was validated");
        println!("{seconds}");
        return ExitCode::SUCCESS;
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = run_workload(&workload, &cfg).expect("workload name was validated");
    if out.attempted == 0 {
        out.check("at least one op attempted", false, 1);
        out.attempted = 1;
    }
    let extra = unlisted_metrics(&out, cfg.trace);
    assert!(
        extra.is_empty(),
        "metrics missing from the lists: {extra:?}"
    );
    println!(
        "# {workload} seed {} seconds {} trace {} (available parallelism {nproc})",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "# ops attempted {} failed {}; checks {}",
        out.attempted,
        out.failed,
        if out.failed_checks.is_empty() {
            "all passed".to_string()
        } else {
            format!("FAILED: {}", out.failed_checks.join("; "))
        }
    );
    println!("{}", result_json(&out, cfg.trace));
    ExitCode::SUCCESS
}
