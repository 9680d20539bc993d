//! `hmd-sim` — deterministic virtual-time fleet simulation.
//!
//! ```text
//! hmd-sim --hosts 100000 --seed 7 --faults standard --protocol 2
//! hmd-sim --hosts 10000 --seed 7 --workers 4 --shards 8   # same digest
//! ```
//!
//! The canonical digest goes to **stdout** (compare bytes across runs);
//! variant facts — protocol, lanes, wire bytes — go to **stderr**, so
//! `hmd-sim … > a.txt` twice and `diff a.txt b.txt` is the whole
//! reproducibility check.
//!
//! Options:
//! `--hosts N` (default 1000), `--seed N`, `--protocol 1|2` (default 2),
//! `--faults none|standard|heavy|key=value,…` (see `faults::FaultPlan`),
//! `--workers N`, `--shards N`, `--readings N`, `--interval T`,
//! `--arrivals N`, `--max-conns N`, `--idle-after T`, `--sweep-every T`,
//! `--window N`, `--votes N`, `--cascade always|gated:<t>` (stage-2
//! gating of the batched drain; `always` is the scalar-identical
//! default), `--store btree|slab` (session store; `slab` is the default,
//! `btree` the oracle — digests must be byte-identical).

use hmd_serve::protocol::WireFormat;
use hmd_sim::faults::FaultPlan;
use hmd_sim::harness::{run, SimConfig};
use hmd_sim::tiny_detector;
use twosmart::detector::CascadeMode;

fn main() {
    if let Err(e) = run_cli() {
        eprintln!("hmd-sim: {e}");
        std::process::exit(1);
    }
}

fn run_cli() -> Result<(), Box<dyn std::error::Error>> {
    let config = parse(std::env::args().skip(1))?;
    eprintln!(
        "simulating {} hosts, seed {}, wire v{}…",
        config.hosts,
        config.seed,
        config.protocol.version()
    );
    let detector = tiny_detector(config.seed);
    let report = run(detector, &config)?;
    if report.digest.end_sessions != 0 {
        eprintln!(
            "warning: {} sessions survived the final sweep (leak?)",
            report.digest.end_sessions
        );
    }
    eprintln!("{}", report.render_variant());
    print!("{}", report.digest.render());
    Ok(())
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<SimConfig, String> {
    let mut config = SimConfig::default();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--hosts" => config.hosts = parse_num(&value("--hosts")?)?,
            "--seed" => config.seed = parse_num(&value("--seed")?)?,
            "--protocol" => {
                config.protocol = match value("--protocol")?.as_str() {
                    "1" => WireFormat::V1Json,
                    "2" => WireFormat::V2Binary,
                    other => return Err(format!("--protocol must be 1 or 2, got {other:?}")),
                };
            }
            "--faults" => config.faults = FaultPlan::parse(&value("--faults")?)?,
            "--workers" => config.workers = parse_num(&value("--workers")?)? as usize,
            "--shards" => config.shards = parse_num(&value("--shards")?)? as usize,
            "--readings" => config.readings = parse_num(&value("--readings")?)?,
            "--interval" => config.interval = parse_num(&value("--interval")?)?,
            "--arrivals" => config.arrivals_per_tick = parse_num(&value("--arrivals")?)?,
            "--max-conns" => config.max_conns = parse_num(&value("--max-conns")?)? as usize,
            "--idle-after" => config.idle_after = parse_num(&value("--idle-after")?)?,
            "--sweep-every" => config.sweep_every = parse_num(&value("--sweep-every")?)?,
            "--window" => config.window = parse_num(&value("--window")?)? as usize,
            "--votes" => config.votes = parse_num(&value("--votes")?)? as usize,
            "--cascade" => config.cascade = parse_cascade(&value("--cascade")?)?,
            "--store" => config.store = value("--store")?.parse()?,
            "--help" | "-h" => {
                return Err("usage: hmd-sim [--hosts N] [--seed N] [--protocol 1|2] \
                            [--faults none|standard|heavy|k=v,…] [--workers N] \
                            [--shards N] [--readings N] [--interval T] [--arrivals N] \
                            [--max-conns N] [--idle-after T] [--sweep-every T] \
                            [--window N] [--votes N] [--cascade always|gated:<t>] \
                            [--store btree|slab]"
                    .into());
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if config.workers == 0 {
        return Err("--workers must be ≥ 1".into());
    }
    Ok(config)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("invalid number {s:?}: {e}"))
}

fn parse_cascade(s: &str) -> Result<CascadeMode, String> {
    if s == "always" {
        return Ok(CascadeMode::Always);
    }
    if let Some(t) = s.strip_prefix("gated:") {
        let t: f64 = t
            .parse()
            .map_err(|e| format!("invalid gate threshold {t:?}: {e}"))?;
        if !(0.0..=1.0).contains(&t) {
            return Err(format!("gate threshold {t} outside [0, 1]"));
        }
        return Ok(CascadeMode::Gated(t));
    }
    Err(format!("--cascade must be always or gated:<t>, got {s:?}"))
}
