//! Atomic service metrics — observability without external crates.
//!
//! [`Metrics`] is a set of lock-free counters shared by the accept loop,
//! every worker and the session engine. A consistent-enough point-in-time
//! [`MetricsSnapshot`] is rendered on demand and shipped over the wire as
//! the payload of a `Drain` frame, so any client (including `loadgen`) can
//! observe a running service.

use hmd_hpc_sim::workload::AppClass;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use twosmart::detector::Verdict;

/// Shared atomic counters for one server instance.
///
/// All counters are monotone except the [`sessions`](Metrics::sessions)
/// and [`session_bytes`](Metrics::session_bytes) gauges, which the session
/// engine moves in both directions as sessions are created and evicted.
/// `Relaxed` ordering is sufficient because the snapshot only promises
/// per-counter atomicity, not a cross-counter consistent cut.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Frames successfully decoded from clients.
    pub frames_in: AtomicU64,
    /// Frames written back to clients (verdicts, errors, handshakes).
    pub frames_out: AtomicU64,
    /// Frames rejected as malformed (bad JSON, oversized, unknown shape).
    pub malformed: AtomicU64,
    /// Connections or requests refused due to load shedding.
    pub shed: AtomicU64,
    /// Idle host sessions evicted by the session engine.
    pub evictions: AtomicU64,
    /// `Submit` frames accepted into a detector.
    pub submits: AtomicU64,
    /// Connections accepted (lifetime total).
    pub connections: AtomicU64,
    /// Accepted connections dropped before reaching a worker because
    /// socket setup (`set_nonblocking`/`set_nodelay`) failed — without
    /// this counter those accepts would vanish silently.
    pub accept_errors: AtomicU64,
    /// Live host sessions (gauge): incremented on first contact,
    /// decremented on eviction.
    pub sessions: AtomicU64,
    /// Estimated bytes of in-memory session state behind the
    /// [`sessions`](Metrics::sessions) gauge — live sessions times the
    /// engine's per-session estimate, so the fleet-scale memory claim is
    /// observable from a `Drain`, not inferred.
    pub session_bytes: AtomicU64,
    /// Verdicts still in warm-up (window not yet full).
    pub warmup: AtomicU64,
    /// Smoothed benign verdicts.
    pub benign: AtomicU64,
    /// Smoothed malware verdicts, indexed by position in
    /// [`AppClass::MALWARE`].
    pub malware: [AtomicU64; AppClass::MALWARE.len()],
    /// Stage-2 specialist invocations by routed class,
    /// indexed by position in [`AppClass::MALWARE`].
    pub stage2_invoked: [AtomicU64; AppClass::MALWARE.len()],
    /// Stage-2 invocations skipped by the confidence gate, by routed
    /// class, indexed by position in [`AppClass::MALWARE`].
    pub stage2_skipped: [AtomicU64; AppClass::MALWARE.len()],
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Increments a counter by one.
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter in one atomic op — the bulk path for callers
    /// that already know the batch size (e.g. an eviction sweep), instead
    /// of `n` separate `bump`s.
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from a gauge. Callers are responsible for balance
    /// (every subtraction matches an earlier addition); the session engine
    /// is the only writer that moves gauges down.
    pub fn sub(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records one smoothed verdict (or a warm-up `None`) in the verdict
    /// histogram.
    pub fn record_verdict(&self, verdict: &Option<Verdict>) {
        match verdict {
            None => self.bump(&self.warmup),
            Some(Verdict::Benign) => self.bump(&self.benign),
            Some(Verdict::Malware { class, .. }) => {
                // A verdict class outside MALWARE cannot come out of a
                // trained detector; if one ever does, drop the sample
                // rather than panicking the worker that recorded it.
                if let Some(idx) = AppClass::MALWARE.iter().position(|c| c == class) {
                    self.bump(&self.malware[idx]);
                }
            }
        }
    }

    /// Folds one drain's per-class stage-2 invocation/skip counts
    /// into the cascade cost accounting (one atomic add per touched
    /// class).
    pub fn add_stage2(
        &self,
        invoked: &[u64; AppClass::MALWARE.len()],
        skipped: &[u64; AppClass::MALWARE.len()],
    ) {
        for (c, &n) in self.stage2_invoked.iter().zip(invoked) {
            if n > 0 {
                c.fetch_add(n, Ordering::Relaxed);
            }
        }
        for (c, &n) in self.stage2_skipped.iter().zip(skipped) {
            if n > 0 {
                c.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Renders a point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            frames_in: get(&self.frames_in),
            frames_out: get(&self.frames_out),
            malformed: get(&self.malformed),
            shed: get(&self.shed),
            evictions: get(&self.evictions),
            submits: get(&self.submits),
            connections: get(&self.connections),
            accept_errors: get(&self.accept_errors),
            sessions: get(&self.sessions),
            session_bytes: get(&self.session_bytes),
            verdicts: VerdictHistogram {
                warmup: get(&self.warmup),
                benign: get(&self.benign),
                backdoor: get(&self.malware[0]),
                rootkit: get(&self.malware[1]),
                virus: get(&self.malware[2]),
                trojan: get(&self.malware[3]),
            },
            stage2_invoked: StageCounts {
                backdoor: get(&self.stage2_invoked[0]),
                rootkit: get(&self.stage2_invoked[1]),
                virus: get(&self.stage2_invoked[2]),
                trojan: get(&self.stage2_invoked[3]),
            },
            stage2_skipped: StageCounts {
                backdoor: get(&self.stage2_skipped[0]),
                rootkit: get(&self.stage2_skipped[1]),
                virus: get(&self.stage2_skipped[2]),
                trojan: get(&self.stage2_skipped[3]),
            },
        }
    }
}

/// Verdict counts by outcome, the paper's four malware classes spelled out
/// so the wire format does not depend on enum ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VerdictHistogram {
    /// Submissions answered during window warm-up.
    pub warmup: u64,
    /// Smoothed benign verdicts.
    pub benign: u64,
    /// Smoothed backdoor verdicts.
    pub backdoor: u64,
    /// Smoothed rootkit verdicts.
    pub rootkit: u64,
    /// Smoothed virus verdicts.
    pub virus: u64,
    /// Smoothed trojan verdicts.
    pub trojan: u64,
}

impl VerdictHistogram {
    /// Total verdicts recorded, warm-up included.
    pub fn total(&self) -> u64 {
        self.warmup + self.benign + self.backdoor + self.rootkit + self.virus + self.trojan
    }

    /// Total malware verdicts across the four classes.
    pub fn malware(&self) -> u64 {
        self.backdoor + self.rootkit + self.virus + self.trojan
    }
}

/// Per-malware-class stage-2 work counts, classes spelled out like
/// [`VerdictHistogram`] so the wire format does not depend on enum
/// ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageCounts {
    /// Full windows routed to the backdoor specialist.
    pub backdoor: u64,
    /// Full windows routed to the rootkit specialist.
    pub rootkit: u64,
    /// Full windows routed to the virus specialist.
    pub virus: u64,
    /// Full windows routed to the trojan specialist.
    pub trojan: u64,
}

impl StageCounts {
    /// Sum across the four classes.
    pub fn total(&self) -> u64 {
        self.backdoor + self.rootkit + self.virus + self.trojan
    }
}

/// Serializable point-in-time image of [`Metrics`], carried by `Drain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Frames successfully decoded from clients.
    pub frames_in: u64,
    /// Frames written back to clients.
    pub frames_out: u64,
    /// Malformed frames rejected.
    pub malformed: u64,
    /// Connections/requests shed under load.
    pub shed: u64,
    /// Idle sessions evicted.
    pub evictions: u64,
    /// Accepted `Submit` frames.
    pub submits: u64,
    /// Lifetime accepted connections.
    pub connections: u64,
    /// Accepted connections dropped during socket setup.
    pub accept_errors: u64,
    /// Live host sessions at snapshot time (gauge).
    pub sessions: u64,
    /// Estimated bytes of live session state at snapshot time (gauge).
    pub session_bytes: u64,
    /// Verdict outcome histogram.
    pub verdicts: VerdictHistogram,
    /// Stage-2 specialist invocations by routed class.
    pub stage2_invoked: StageCounts,
    /// Stage-2 invocations the confidence gate skipped, by routed class.
    pub stage2_skipped: StageCounts,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_every_outcome() {
        let m = Metrics::new();
        m.record_verdict(&None);
        m.record_verdict(&Some(Verdict::Benign));
        for class in AppClass::MALWARE {
            m.record_verdict(&Some(Verdict::Malware {
                class,
                confidence: 0.9,
            }));
        }
        let s = m.snapshot();
        assert_eq!(s.verdicts.warmup, 1);
        assert_eq!(s.verdicts.benign, 1);
        assert_eq!(s.verdicts.malware(), 4);
        assert_eq!(s.verdicts.total(), 6);
        assert_eq!(
            (
                s.verdicts.backdoor,
                s.verdicts.rootkit,
                s.verdicts.virus,
                s.verdicts.trojan
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn add_and_sub_move_counters_in_bulk() {
        let m = Metrics::new();
        m.add(&m.evictions, 1000);
        m.bump(&m.evictions);
        assert_eq!(m.snapshot().evictions, 1001);
        m.add(&m.sessions, 7);
        m.sub(&m.sessions, 3);
        m.add(&m.session_bytes, 7 * 4096);
        m.sub(&m.session_bytes, 3 * 4096);
        let s = m.snapshot();
        assert_eq!(s.sessions, 4);
        assert_eq!(s.session_bytes, 4 * 4096);
    }

    #[test]
    fn snapshot_serializes_round_trip() {
        let m = Metrics::new();
        m.bump(&m.frames_in);
        m.bump(&m.shed);
        let s = m.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
