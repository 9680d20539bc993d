//! Criterion benchmarks of the session store at fleet scale: resident
//! submit cost and the idle-eviction tick, slab against the BTreeMap
//! oracle. These are the acceptance rows for the slab store — the submit
//! gap is index locality (one probe vs a tree walk), the eviction gap is
//! the timer wheel (O(expiring) vs a full-shard scan).

use criterion::{criterion_group, criterion_main, Criterion};
use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use hmd_serve::metrics::Metrics;
use hmd_serve::session::{SessionConfig, SessionEngine, StoreKind, SubmitBatch, TimeSource};
use std::hint::black_box;
use std::sync::Arc;
use twosmart::detector::TwoSmartDetector;

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

fn engine(store: StoreKind, idle_after: u64) -> SessionEngine {
    SessionEngine::new(
        detector(),
        &SessionConfig {
            shards: 1,
            idle_after,
            time: TimeSource::External,
            store,
            ..SessionConfig::default()
        },
        Arc::new(Metrics::new()),
    )
    .expect("engine builds")
}

/// One submit as a one-item drain through `batch`, which is reused across
/// calls so no row times an allocation. Returns whether it was accepted.
fn submit(
    e: &SessionEngine,
    batch: &mut SubmitBatch,
    host: u64,
    seq: u64,
    counters: &[f64],
) -> bool {
    batch.clear();
    batch.push(host, seq, counters);
    e.submit_batch(batch);
    batch.results().all(|(_, r)| r.is_ok())
}

const RESIDENT: u64 = 100_000;

/// The store path of a submit against 100k resident sessions: shard
/// lock, host-id → session lookup, seq check, as a one-item drain.
/// Measured with a duplicate-seq probe — the engine resolves the session
/// and rejects the replay before touching window state — because a
/// verdict-producing submit spends most of its time in windowing and
/// inference, which are identical across stores and would mask the store
/// delta (see
/// the `_e2e` rows for that full cost). Hosts are visited in a
/// locality-hostile stride; a single shard so the oracle's tree depth
/// reflects the whole resident population rather than shard count.
fn bench_submit_resident(c: &mut Criterion) {
    let counters = [1.25e6, 3.1e5, 4.7e4, 9.9e3];
    let mut batch = SubmitBatch::new();
    for (name, store) in [
        ("session/submit_resident_100k", StoreKind::Slab),
        ("session/submit_resident_100k_btree", StoreKind::BTree),
    ] {
        let e = engine(store, u64::MAX);
        e.set_time(0);
        for h in 0..RESIDENT {
            assert!(submit(&e, &mut batch, h, 0, &counters));
        }
        let mut h = 0u64;
        c.bench_function(name, |b| {
            b.iter(|| {
                h = (h + 77_773) % RESIDENT;
                !submit(&e, &mut batch, black_box(h), 0, black_box(&counters))
            })
        });
    }
    // End-to-end oracle rows: the same resident fleet, fresh seqs, full
    // window advance + inference per one-item drain. Store cost is a
    // small slice of this — the pair documents how much of a real submit
    // the store is.
    for (name, store) in [
        ("session/submit_resident_100k_e2e", StoreKind::Slab),
        ("session/submit_resident_100k_e2e_btree", StoreKind::BTree),
    ] {
        let e = engine(store, u64::MAX);
        e.set_time(0);
        let mut seqs = vec![0u64; RESIDENT as usize];
        for h in 0..RESIDENT {
            assert!(submit(&e, &mut batch, h, seqs[h as usize], &counters));
            seqs[h as usize] += 1;
        }
        let mut h = 0u64;
        c.bench_function(name, |b| {
            b.iter(|| {
                h = (h + 77_773) % RESIDENT;
                let seq = &mut seqs[h as usize];
                let r = submit(&e, &mut batch, black_box(h), *seq, black_box(&counters));
                *seq += 1;
                r
            })
        });
    }
}

/// One steady-state virtual tick over ~100k resident sessions: 100 hosts
/// submit, ~100 idle out, one eviction sweep runs. Hosts cycle through a
/// 1010-tick refresh period against a 1000-tick idle threshold, so every
/// tick retires the cohort refreshed 1001 ticks ago and re-admits the
/// cohort that idled out 9 ticks ago — constant churn at fixed occupancy.
/// The btree oracle scans all resident sessions per sweep; the wheel
/// only touches the expiring cohort.
fn bench_evict_tick(c: &mut Criterion) {
    const IDLE: u64 = 1000;
    const COHORT: u64 = 100;
    const PERIOD: u64 = 1010;
    const HOSTS: u64 = COHORT * PERIOD;
    for (name, store) in [
        (
            "session/evict_tick_100k_resident_100_expiring",
            StoreKind::Slab,
        ),
        (
            "session/evict_tick_100k_resident_100_expiring_btree",
            StoreKind::BTree,
        ),
    ] {
        let e = engine(store, IDLE);
        let counters = [1.25e6, 3.1e5, 4.7e4, 9.9e3];
        let mut seqs = vec![0u64; HOSTS as usize];
        let mut evicted = Vec::new();
        let mut batch = SubmitBatch::new();
        let mut tick = |now: u64, e: &SessionEngine| {
            e.set_time(now);
            for k in 0..COHORT {
                let h = (now * COHORT + k) % HOSTS;
                let seq = &mut seqs[h as usize];
                assert!(submit(e, &mut batch, h, *seq, &counters));
                *seq += 1;
            }
            e.evict_idle_at_into(now, &mut evicted);
            evicted.len()
        };
        // Warm to steady state: occupancy plateaus at ~100k with ~100
        // evictions per tick once the first cohorts start idling out.
        let mut now = 0;
        for _ in 0..(PERIOD + IDLE / 2) {
            now += 1;
            tick(now, &e);
        }
        c.bench_function(name, |b| {
            b.iter(|| {
                now += 1;
                black_box(tick(now, &e))
            })
        });
    }
}

criterion_group!(benches, bench_submit_resident, bench_evict_tick);
criterion_main!(benches);
