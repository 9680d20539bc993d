//! Run digests: the canonical, comparison-grade summary of a simulation.
//!
//! A [`Digest`] holds exactly the facts that must be **invariant** for a
//! given `(seed, hosts, faults)` across repeated runs, worker counts,
//! shard counts, and wire-protocol versions — CI renders two digests and
//! compares the bytes. Anything legitimately variant (wire byte totals,
//! the protocol used, lane count) lives on [`RunReport`] instead, so a
//! variant fact can never silently leak into the invariant block.
//!
//! The journal hash is an **order-independent** combine (wrapping sum of
//! per-entry FNV-1a 64 hashes): within one virtual tick the pump order of
//! connections depends on the lane partitioning, but the *set* of logical
//! events does not, so summing per-entry hashes makes the digest blind to
//! intra-tick ordering while still pinning every event's content.

/// A logical event observed by the harness — the unit of journal hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEntry {
    /// A verdict reply reached its agent. `class` is 0 for warm-up,
    /// 1 for benign, 2+ for the malware classes in `AppClass::MALWARE`
    /// order; `confidence_bits` is the f64 bit pattern (0 when absent).
    Verdict {
        /// Submitting host.
        host: u64,
        /// Echoed sequence number.
        seq: u64,
        /// Encoded verdict class (see above).
        class: u64,
        /// `f64::to_bits` of the confidence, 0 for warm-up/benign.
        confidence_bits: u64,
    },
    /// An error reply reached its agent. Only the *code* is recorded —
    /// detail strings legitimately differ between wire versions.
    Error {
        /// Host whose agent received the error.
        host: u64,
        /// The agent's submit cursor when the error arrived.
        seq: u64,
        /// Stable numeric code (see [`crate::harness`]).
        code: u64,
    },
    /// The harness injected a fault into a host's stream.
    Fault {
        /// Misbehaving host.
        host: u64,
        /// Reading index at which the fault fired.
        reading: u64,
        /// Stable numeric fault class.
        kind: u64,
    },
    /// A connection attempt was shed over budget during the burst.
    Shed {
        /// Attempt index within the burst.
        attempt: u64,
    },
}

impl JournalEntry {
    /// Fixed-width byte image fed to FNV — field order is part of the
    /// digest format.
    fn words(&self) -> [u64; 5] {
        match *self {
            JournalEntry::Verdict {
                host,
                seq,
                class,
                confidence_bits,
            } => [1, host, seq, class, confidence_bits],
            JournalEntry::Error { host, seq, code } => [2, host, seq, code, 0],
            JournalEntry::Fault {
                host,
                reading,
                kind,
            } => [3, host, reading, kind, 0],
            JournalEntry::Shed { attempt } => [4, attempt, 0, 0, 0],
        }
    }

    /// FNV-1a 64 over the entry's byte image.
    // hmd-analyze: det-index
    pub fn fnv(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in self.words() {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Streaming order-independent journal: counts entries and folds each
/// entry's FNV hash into a wrapping sum, in constant memory (a
/// million-host run journals tens of millions of events).
#[derive(Debug, Default)]
pub struct Journal {
    /// Entries observed.
    pub entries: u64,
    /// Wrapping sum of per-entry FNV hashes (order-independent).
    pub hash: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Folds one entry in.
    // hmd-analyze: det-sink
    pub fn record(&mut self, entry: JournalEntry) {
        self.entries += 1;
        self.hash = self.hash.wrapping_add(entry.fnv());
    }
}

/// Per-fault-class observation counters (injections and burst sheds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Mid-stream reconnects performed.
    pub reconnect: u64,
    /// Malformed payloads injected.
    pub malformed: u64,
    /// Truncated-then-hangup streams.
    pub truncate: u64,
    /// Sequence replays injected.
    pub seq_regress: u64,
    /// Idle-race resumes performed.
    pub idle_race: u64,
    /// Hosts on dribbling links.
    pub dribble: u64,
    /// Burst connection attempts shed over budget.
    pub burst_shed: u64,
}

/// Error replies observed by agents, by code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCounters {
    /// `Error{malformed}` replies.
    pub malformed: u64,
    /// `Error{out_of_order}` replies.
    pub out_of_order: u64,
    /// Any other code (overloaded, oversized, bad_length, …) — expected
    /// to stay 0 in a healthy run, so a nonzero value is loud.
    pub other: u64,
}

/// Verdict histogram in the same class order the service reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictCounts {
    /// Warm-up (window not yet full).
    pub warmup: u64,
    /// Smoothed benign.
    pub benign: u64,
    /// Smoothed backdoor.
    pub backdoor: u64,
    /// Smoothed rootkit.
    pub rootkit: u64,
    /// Smoothed virus.
    pub virus: u64,
    /// Smoothed trojan.
    pub trojan: u64,
}

/// The invariant block: must be byte-identical across runs, worker
/// counts, shard counts, and wire protocols for the same seed and plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Base seed of the run.
    pub seed: u64,
    /// Fleet size.
    pub hosts: u64,
    /// Readings per well-behaved host.
    pub readings: u64,
    /// Final virtual tick.
    pub ticks: u64,
    /// Accepted submits (engine metric).
    pub submits: u64,
    /// Verdicts delivered to agents.
    pub verdicts: VerdictCounts,
    /// Error replies delivered to agents.
    pub errors: ErrorCounters,
    /// Fault injections performed.
    pub faults: FaultCounters,
    /// Peak concurrent sessions (sampled at tick boundaries).
    pub peak_sessions: u64,
    /// Sessions left after the final sweep (must be 0).
    pub end_sessions: u64,
    /// Estimated bytes per session (engine's model).
    pub session_bytes_per: u64,
    /// Peak estimated session memory (`peak_sessions × session_bytes_per`).
    pub peak_session_bytes: u64,
    /// Journal entry count.
    pub journal_entries: u64,
    /// Order-independent journal hash.
    pub journal_hash: u64,
}

impl Digest {
    /// Canonical rendering — the exact bytes CI compares. Fixed field
    /// order, no floats, no timestamps, no variant facts.
    // hmd-analyze: det-sink
    pub fn render(&self) -> String {
        format!(
            "2smart-sim digest v1\n\
             run seed={} hosts={} readings={} ticks={}\n\
             submits {}\n\
             verdicts warmup={} benign={} backdoor={} rootkit={} virus={} trojan={}\n\
             errors malformed={} out_of_order={} other={}\n\
             faults reconnect={} malformed={} truncate={} seq_regress={} idle_race={} dribble={} burst_shed={}\n\
             sessions peak={} end={} bytes_per={} peak_bytes={}\n\
             journal entries={} hash={:#018x}\n",
            self.seed,
            self.hosts,
            self.readings,
            self.ticks,
            self.submits,
            self.verdicts.warmup,
            self.verdicts.benign,
            self.verdicts.backdoor,
            self.verdicts.rootkit,
            self.verdicts.virus,
            self.verdicts.trojan,
            self.errors.malformed,
            self.errors.out_of_order,
            self.errors.other,
            self.faults.reconnect,
            self.faults.malformed,
            self.faults.truncate,
            self.faults.seq_regress,
            self.faults.idle_race,
            self.faults.dribble,
            self.faults.burst_shed,
            self.peak_sessions,
            self.end_sessions,
            self.session_bytes_per,
            self.peak_session_bytes,
            self.journal_entries,
            self.journal_hash,
        )
    }
}

/// The full run result: the invariant [`Digest`] plus facts that
/// legitimately vary with the transport/partitioning configuration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The invariant block.
    pub digest: Digest,
    /// Wire protocol version used (1 or 2).
    pub protocol: u32,
    /// Logical worker lanes.
    pub workers: usize,
    /// Session-engine shards.
    pub shards: usize,
    /// Session store backing the engine (`"btree"` or `"slab"`) — a
    /// variant fact because digests must not depend on it.
    pub store: &'static str,
    /// Total bytes agents wrote toward the service.
    pub wire_bytes_in: u64,
    /// Total bytes the service wrote toward agents.
    pub wire_bytes_out: u64,
    /// Connections opened over the run (reconnects and burst included).
    pub connections: u64,
}

impl RunReport {
    /// Human-readable variant facts (kept out of the digest on purpose).
    pub fn render_variant(&self) -> String {
        format!(
            "variant protocol=v{} workers={} shards={} store={} wire_in={}B wire_out={}B connections={}",
            self.protocol,
            self.workers,
            self.shards,
            self.store,
            self.wire_bytes_in,
            self.wire_bytes_out,
            self.connections,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_hash_is_order_independent_but_content_sensitive() {
        let a = JournalEntry::Verdict {
            host: 1,
            seq: 2,
            class: 1,
            confidence_bits: 0,
        };
        let b = JournalEntry::Error {
            host: 9,
            seq: 0,
            code: 3,
        };
        let mut j1 = Journal::new();
        j1.record(a);
        j1.record(b);
        let mut j2 = Journal::new();
        j2.record(b);
        j2.record(a);
        assert_eq!(j1.hash, j2.hash);
        assert_eq!(j1.entries, 2);
        let mut j3 = Journal::new();
        j3.record(a);
        j3.record(JournalEntry::Error {
            host: 9,
            seq: 0,
            code: 4,
        });
        assert_ne!(j1.hash, j3.hash, "content changes the hash");
    }

    #[test]
    fn digest_render_is_stable() {
        let d = Digest {
            seed: 1,
            hosts: 2,
            readings: 3,
            ticks: 4,
            submits: 5,
            verdicts: VerdictCounts::default(),
            errors: ErrorCounters::default(),
            faults: FaultCounters::default(),
            peak_sessions: 6,
            end_sessions: 0,
            session_bytes_per: 7,
            peak_session_bytes: 42,
            journal_entries: 8,
            journal_hash: 9,
        };
        assert_eq!(d.render(), d.render());
        assert!(d.render().starts_with("2smart-sim digest v1\n"));
        assert!(d
            .render()
            .contains("sessions peak=6 end=0 bytes_per=7 peak_bytes=42"));
    }
}
