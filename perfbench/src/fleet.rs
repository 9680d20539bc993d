//! The serving workloads' traffic generator: per-host counter streams,
//! pre-encoded v2 `Submit` frames whose `seq` is patched in place, reply
//! checking, and the determinism gate that replays every host's readings
//! through an in-process [`OnlineDetector`].

use crate::util::VerdictDigest;
use hmd_serve::loadgen::host_stream;
use hmd_serve::protocol::Frame;
use hmd_serve::wire2;
use std::collections::VecDeque;
use twosmart::detector::TwoSmartDetector;
use twosmart::online::OnlineDetector;

/// Counters per reading (the 4 programmed HPCs).
pub const ARITY: usize = 4;
/// Bytes of one framed v2 `Submit` with [`ARITY`] counters: 4-byte length
/// prefix, tag, host id, seq, count, counters.
pub const FRAME_BYTES: usize = 4 + 1 + 8 + 8 + 2 + 8 * ARITY;
/// Threads the determinism gate replays on, after the timed phase.
pub const GATE_THREADS: usize = 2;
/// Offset of the little-endian `seq` inside a framed v2 `Submit`.
const SEQ_AT: usize = 4 + 1 + 8;

/// Pre-generated traffic for a fleet of hosts plus what was sent to and
/// received from each host.
pub struct Fleet {
    hosts: usize,
    len: usize,
    /// `hosts × len × ARITY` readings; host `h` replays its `len` readings
    /// cyclically.
    counters: Vec<f64>,
    /// The same readings as framed v2 `Submit`s, `seq` left at 0.
    frames: Vec<u8>,
    /// Readings sent per host; the next reading's `seq`.
    sent: Vec<u64>,
    /// Replies received per host.
    received: Vec<u64>,
    /// Running digest of each host's verdicts, in reply order.
    digests: Vec<VerdictDigest>,
    /// `(host, seq)` of every frame awaiting its reply, in send order.
    inflight: VecDeque<(u64, u64)>,
}

impl Fleet {
    /// Generates `len` readings for each of `hosts` hosts with
    /// [`host_stream`] under `seed`, and encodes them as v2 frames.
    pub fn generate(seed: u64, hosts: usize, len: usize) -> Fleet {
        let mut counters = Vec::with_capacity(hosts * len * ARITY);
        let mut frames = Vec::with_capacity(hosts * len * FRAME_BYTES);
        for h in 0..hosts as u64 {
            for reading in host_stream(seed, h, len) {
                assert_eq!(reading.len(), ARITY, "one counter per programmed HPC");
                counters.extend_from_slice(&reading);
                let at = frames.len();
                wire2::encode_into(
                    &Frame::Submit {
                        host_id: h,
                        seq: 0,
                        counters: reading,
                    },
                    &mut frames,
                );
                assert_eq!(frames.len() - at, FRAME_BYTES, "fixed v2 Submit layout");
            }
        }
        Fleet {
            hosts,
            len,
            counters,
            frames,
            sent: vec![0; hosts],
            received: vec![0; hosts],
            digests: vec![VerdictDigest::default(); hosts],
            inflight: VecDeque::new(),
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Readings sent to `host` so far.
    pub fn sent(&self, host: usize) -> u64 {
        self.sent[host]
    }

    /// Frames sent so far, over all hosts.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Frames still awaiting a reply.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// `host`'s reading number `r` (its stream replays cyclically).
    pub fn reading(&self, host: usize, r: u64) -> &[f64] {
        let at = (host * self.len + (r % self.len as u64) as usize) * ARITY;
        &self.counters[at..at + ARITY]
    }

    /// Appends `host`'s next reading to `out` as a framed v2 `Submit`,
    /// patching its `seq` into the pre-encoded bytes, and expects a reply.
    pub fn push_frame(&mut self, host: usize, out: &mut Vec<u8>) {
        let seq = self.sent[host];
        let at = (host * self.len + (seq % self.len as u64) as usize) * FRAME_BYTES;
        let start = out.len();
        out.extend_from_slice(&self.frames[at..at + FRAME_BYTES]);
        out[start + SEQ_AT..start + SEQ_AT + 8].copy_from_slice(&seq.to_le_bytes());
        self.sent[host] += 1;
        self.inflight.push_back((host as u64, seq));
    }

    /// Matches one reply against the oldest frame in flight. A verdict for
    /// that frame's host and seq folds into the host's digest; anything
    /// else (an `Error`, a reply out of order, a reply nobody awaits) is a
    /// failed op and returns `false`.
    pub fn on_reply(&mut self, reply: &Frame) -> bool {
        let Some((host, seq)) = self.inflight.pop_front() else {
            return false;
        };
        match reply {
            Frame::Verdict {
                host_id,
                seq: s,
                verdict,
            } if *host_id == host && *s == seq => {
                self.received[host as usize] += 1;
                self.digests[host as usize].verdict(verdict);
                true
            }
            _ => false,
        }
    }

    /// Forgets every frame still in flight (their replies never came);
    /// returns how many there were.
    pub fn abandon_inflight(&mut self) -> u64 {
        let n = self.inflight.len() as u64;
        self.inflight.clear();
        n
    }

    /// Flips one bit of one host's verdict digest — the corrupted-output
    /// case the gate's negative tests feed it.
    pub fn corrupt_digest(&mut self, host: usize) {
        self.digests[host].0 ^= 1;
    }

    /// The determinism gate: replays every host's readings, in the order
    /// they were sent, through a fresh in-process [`OnlineDetector`] and
    /// compares the verdicts bit for bit with the replies received.
    /// Returns the number of hosts whose verdicts differ (hosts with
    /// missing replies count as differing). The replay runs after the
    /// timed phase, on [`GATE_THREADS`] threads.
    ///
    /// # Panics
    ///
    /// Panics if `detector` is not 4-HPC deployable under
    /// `window`/`votes`.
    pub fn replay_mismatches(
        &self,
        detector: &TwoSmartDetector,
        window: usize,
        votes: usize,
    ) -> u64 {
        let chunk = self.hosts.div_ceil(GATE_THREADS);
        let ranges: Vec<_> = (0..self.hosts)
            .step_by(chunk.max(1))
            .map(|h| h..(h + chunk).min(self.hosts))
            .collect();
        hmd_ml::par::with_threads(GATE_THREADS, || {
            hmd_ml::par::par_map(ranges, |_, hosts| {
                let mut online = OnlineDetector::new(detector.clone(), window, votes)
                    .expect("the served detector is deployable");
                hosts
                    .filter(|&h| !self.replays_identically(h, &mut online))
                    .count() as u64
            })
        })
        .into_iter()
        .sum()
    }

    fn replays_identically(&self, host: usize, online: &mut OnlineDetector) -> bool {
        if self.received[host] != self.sent[host] {
            return false;
        }
        online.reset();
        let mut digest = VerdictDigest::default();
        for r in 0..self.sent[host] {
            digest.verdict(&online.push(self.reading(host, r)));
        }
        digest == self.digests[host]
    }
}
