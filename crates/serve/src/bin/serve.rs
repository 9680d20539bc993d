//! `serve` — run a detection service from a trained snapshot.
//!
//! Training and serving are separate processes: train once, persist a
//! [`DetectorSnapshot`] with `twosmart::persist`, then serve it here.
//!
//! ```text
//! serve --addr 127.0.0.1:7171 --snapshot detector.json
//! serve --addr 127.0.0.1:0 --train tiny        # self-train (smoke tests)
//! ```
//!
//! Options:
//! `--addr HOST:PORT` (default 127.0.0.1:7171), `--snapshot PATH`,
//! `--train tiny|small` (fallback when no snapshot is given),
//! `--window N`, `--votes N`, `--workers N` (0 = TWOSMART_THREADS
//! conventions), `--max-conns N`, `--seed N`,
//! `--store btree|slab` (session store, default `slab`; `btree` keeps
//! the original ordered-map store as an oracle).

use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use hmd_serve::server::{serve, ServeConfig};
use hmd_serve::session::{SessionConfig, StoreKind};
use twosmart::detector::TwoSmartDetector;
use twosmart::persist::DetectorSnapshot;

fn main() {
    if let Err(e) = run() {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(std::env::args().skip(1))?;

    let detector = match &args.snapshot {
        Some(path) => {
            eprintln!("loading snapshot {path}…");
            DetectorSnapshot::load_json(path)?.try_restore()?
        }
        None => {
            let spec = match args.train.as_str() {
                "tiny" => CorpusSpec::tiny(),
                "small" => CorpusSpec::small(),
                other => return Err(format!("unknown --train corpus {other:?}").into()),
            };
            eprintln!("no snapshot given; training on the {} corpus…", args.train);
            let corpus = CorpusBuilder::new(spec).build();
            AppClass::MALWARE
                .iter()
                .fold(
                    TwoSmartDetector::builder().seed(args.seed).hpc_budget(4),
                    |b, &c| b.classifier_for(c, ClassifierKind::J48),
                )
                .train(&corpus)?
        }
    };

    let config = ServeConfig {
        addr: args.addr,
        workers: args.workers,
        max_connections: args.max_conns,
        session: SessionConfig {
            window: args.window,
            votes: args.votes,
            store: args.store,
            ..SessionConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = serve(detector, config)?;
    // Line-buffered stderr + explicit flush so wrappers (CI smoke) can
    // wait for readiness.
    eprintln!("listening on {}", handle.addr());
    println!("listening on {}", handle.addr());
    use std::io::Write;
    std::io::stdout().flush()?;
    handle.join();
    Ok(())
}

struct Args {
    addr: String,
    snapshot: Option<String>,
    train: String,
    window: usize,
    votes: usize,
    workers: usize,
    max_conns: usize,
    seed: u64,
    store: StoreKind,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            addr: "127.0.0.1:7171".into(),
            snapshot: None,
            train: "tiny".into(),
            window: 8,
            votes: 3,
            workers: 0,
            max_conns: 1024,
            seed: 11,
            store: StoreKind::Slab,
        };
        while let Some(flag) = argv.next() {
            let mut value = |name: &str| {
                argv.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--addr" => args.addr = value("--addr")?,
                "--snapshot" => args.snapshot = Some(value("--snapshot")?),
                "--train" => args.train = value("--train")?,
                "--window" => args.window = parse_num(&value("--window")?)?,
                "--votes" => args.votes = parse_num(&value("--votes")?)?,
                "--workers" => args.workers = parse_num(&value("--workers")?)?,
                "--max-conns" => args.max_conns = parse_num(&value("--max-conns")?)?,
                "--seed" => args.seed = parse_num(&value("--seed")?)? as u64,
                "--store" => args.store = value("--store")?.parse()?,
                "--help" | "-h" => {
                    return Err("usage: serve [--addr HOST:PORT] [--snapshot PATH] \
                                [--train tiny|small] [--window N] [--votes N] \
                                [--workers N] [--max-conns N] [--seed N] \
                                [--store btree|slab]"
                        .into());
                }
                other => return Err(format!("unknown flag {other:?} (try --help)")),
            }
        }
        Ok(args)
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("invalid number {s:?}: {e}"))
}
