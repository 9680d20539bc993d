//! Online run-time detection: windowing and verdict smoothing on top of
//! the raw two-stage classifier.
//!
//! A deployed HMD does not classify one 10 ms sample at a time — counter
//! readings are noisy and program phases alternate. Two mechanisms sit
//! between a 4-HPC [`TwoSmartDetector`] and the alarm:
//!
//! - a **sliding window** that aggregates the last `window` counter
//!   readings into the mean-rate vector the classifier was trained on, and
//! - **majority smoothing** over the last `votes` window verdicts, so a
//!   single noisy window cannot flip the alarm.
//!
//! [`HostWindow`] is that per-host state and holds no model, so a server
//! monitoring many hosts keeps one per host and scores every host's
//! windows through one shared detector. [`OnlineDetector`] pairs one
//! `HostWindow` with its own detector for a single monitored stream.
//!
//! Internally the window is a flat ring buffer with an incremental rolling
//! sum — each reading is O(k) in the number of programmed events instead
//! of O(window·k) — and smoothing maintains per-class vote tallies, so the
//! steady-state path performs no heap allocation at all.
//!
//! # Examples
//!
//! ```no_run
//! use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
//! use twosmart::detector::TwoSmartDetector;
//! use twosmart::online::OnlineDetector;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = CorpusBuilder::new(CorpusSpec::small()).build();
//! let detector = TwoSmartDetector::builder().hpc_budget(4).train(&corpus)?;
//! let mut online = OnlineDetector::new(detector, 8, 3)?;
//! // feed counter readings as they arrive, one per 10 ms
//! let reading = vec![1.0e6, 2.0e5, 4.0e4, 1.0e4];
//! if let Some(verdict) = online.push(&reading) {
//!     println!("smoothed verdict: {verdict:?}");
//! }
//! # Ok(())
//! # }
//! ```

use crate::detector::{TwoSmartDetector, Verdict};
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Errors raised when constructing or feeding a [`HostWindow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineError {
    /// The wrapped detector reads events beyond the 4 run-time HPCs.
    NotDeployable,
    /// `window` or `votes` was zero.
    ZeroLength(&'static str),
    /// A counter reading did not have one entry per programmed event.
    BadLength {
        /// Number of programmed events (readings must match it).
        expected: usize,
        /// Length of the rejected reading.
        got: usize,
    },
    /// A counter reading carried a NaN or infinite value.
    BadValue {
        /// Position of the first non-finite counter.
        index: usize,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::NotDeployable => write!(
                f,
                "detector reads beyond the 4 run-time HPCs; train with hpc_budget(4)"
            ),
            OnlineError::ZeroLength(what) => write!(f, "{what} must be at least 1"),
            OnlineError::BadLength { expected, got } => write!(
                f,
                "one reading per programmed event: expected {expected} counters, got {got}"
            ),
            OnlineError::BadValue { index } => write!(f, "counter {index} is not finite"),
        }
    }
}

impl Error for OnlineError {}

/// One monitored host's window and vote state: sliding-window aggregation
/// of its counter readings plus majority-vote smoothing of its raw
/// verdicts. It holds no model; the caller scores each ready window.
///
/// Samples live in a flat `window × k` ring buffer with a per-event rolling
/// sum maintained incrementally (evicted reading subtracted, new reading
/// added). HPC readings are integer counts below 2⁵³, for which the
/// incremental sum is exact; as a belt-and-braces measure against drift on
/// fractional inputs the sum is also rebuilt by a plain left fold each time
/// the ring wraps, which amortizes to O(k) per reading.
#[derive(Debug, Clone)]
pub struct HostWindow {
    window: usize,
    votes: usize,
    /// 44-event feature index of each programmed event, cached so a
    /// reading skips the detector's per-call deployability
    /// re-verification. Its length is the reading arity `k`.
    event_indices: Vec<usize>,
    /// Flat `window × k` sample ring; slot `i` is `ring[i*k..(i+1)*k]`.
    ring: Vec<f64>,
    /// Number of valid samples in the ring (`<= window`).
    filled: usize,
    /// Next slot to write (`0..window`).
    pos: usize,
    /// Rolling per-event sums over the retained samples.
    sums: Vec<f64>,
    /// Retained raw verdicts, oldest first (capacity-bounded, never grows).
    verdicts: VecDeque<Verdict>,
    /// How many retained verdicts flag malware (of any class).
    malware_votes: usize,
    /// Per-class vote tallies, indexed in [`AppClass::MALWARE`] order.
    class_votes: [usize; AppClass::MALWARE.len()],
}

impl HostWindow {
    /// Empty window state for readings of `detector`'s run-time events.
    ///
    /// `window` is the number of 10 ms readings aggregated per raw verdict;
    /// `votes` is the number of recent raw verdicts over which the smoothed
    /// decision takes a majority.
    ///
    /// # Errors
    ///
    /// [`OnlineError::NotDeployable`] if the detector was trained with more
    /// than the 4 Common events; [`OnlineError::ZeroLength`] if `window` or
    /// `votes` is zero.
    pub fn new(
        detector: &TwoSmartDetector,
        window: usize,
        votes: usize,
    ) -> Result<HostWindow, OnlineError> {
        if window == 0 {
            return Err(OnlineError::ZeroLength("window"));
        }
        if votes == 0 {
            return Err(OnlineError::ZeroLength("votes"));
        }
        let Some(events) = detector.runtime_events() else {
            return Err(OnlineError::NotDeployable);
        };
        let k = events.len();
        Ok(HostWindow {
            window,
            votes,
            event_indices: events.iter().map(|e| e.index()).collect(),
            ring: vec![0.0; window * k],
            filled: 0,
            pos: 0,
            sums: vec![0.0; k],
            verdicts: VecDeque::with_capacity(votes),
            malware_votes: 0,
            class_votes: [0; AppClass::MALWARE.len()],
        })
    }

    /// Counters each reading must carry: one per programmed event.
    pub fn arity(&self) -> usize {
        self.event_indices.len()
    }

    /// Heap bytes this state owns: the capacities of its buffers.
    pub fn heap_bytes(&self) -> usize {
        self.event_indices.capacity() * size_of::<usize>()
            + (self.ring.capacity() + self.sums.capacity()) * size_of::<f64>()
            + self.verdicts.capacity() * size_of::<Verdict>()
    }

    /// Folds one reading (in [`TwoSmartDetector::runtime_events`] order)
    /// into the ring and, once the window is full, writes the 44-event
    /// window-mean expansion into `features44` and returns `Ok(true)`: a
    /// raw verdict is now due. Returns `Ok(false)` during warm-up. Only
    /// the programmed events' slots are written, so callers must hand in
    /// a zeroed array.
    ///
    /// Splitting windowing from classification lets a serving engine
    /// score every host's window through its one detector; the raw
    /// verdict then goes to [`apply_verdict`](Self::apply_verdict).
    ///
    /// # Errors
    ///
    /// [`OnlineError::BadLength`] if `counters` does not have one entry per
    /// programmed event, [`OnlineError::BadValue`] if one is NaN or
    /// infinite. Either way window and vote state stay untouched, so a
    /// malformed reading cannot corrupt a serving session.
    // hmd-analyze: hot-path
    pub fn advance_window(
        &mut self,
        counters: &[f64],
        features44: &mut [f64; Event::COUNT],
    ) -> Result<bool, OnlineError> {
        let k = self.arity();
        if counters.len() != k {
            return Err(OnlineError::BadLength {
                expected: k,
                got: counters.len(),
            });
        }
        // A non-finite value would poison the rolling sums (evicting an
        // infinity computes inf − inf), so it never reaches them.
        if let Some(index) = counters.iter().position(|v| !v.is_finite()) {
            return Err(OnlineError::BadValue { index });
        }

        // Ring update: subtract the evicted reading (if any), overwrite its
        // slot, add the new one. O(k), no allocation.
        let slot = self.pos * k;
        let old = &mut self.ring[slot..slot + k];
        if self.filled == self.window {
            for (s, o) in self.sums.iter_mut().zip(old.iter()) {
                *s -= o;
            }
        } else {
            self.filled += 1;
        }
        old.copy_from_slice(counters);
        for (s, &v) in self.sums.iter_mut().zip(counters) {
            *s += v;
        }
        self.pos += 1;
        if self.pos == self.window {
            self.pos = 0;
            // The ring just wrapped: physical order equals logical
            // (oldest-first) order, so a contiguous left fold rebuilds the
            // sums exactly as a from-scratch pass would, squashing any
            // incremental floating-point drift.
            self.sums.fill(0.0);
            for sample in self.ring.chunks_exact(k) {
                for (s, &v) in self.sums.iter_mut().zip(sample) {
                    *s += v;
                }
            }
        }
        if self.filled < self.window {
            return Ok(false);
        }

        // Window mean, expanded to the 44-event layout. The expansion uses
        // the cached indices — the same mapping `detect_from_counters`
        // performs, minus its per-call deployability re-verification.
        for (&idx, &s) in self.event_indices.iter().zip(self.sums.iter()) {
            features44[idx] = s / self.window as f64;
        }
        Ok(true)
    }

    /// Folds one raw verdict into the vote ring and returns the smoothed
    /// majority decision.
    // hmd-analyze: hot-path
    pub fn apply_verdict(&mut self, raw: Verdict) -> Verdict {
        if self.verdicts.len() == self.votes {
            let evicted = self.verdicts.pop_front().expect("ring is non-empty");
            if let Verdict::Malware { class, .. } = evicted {
                self.malware_votes -= 1;
                self.class_votes[Self::malware_index(class)] -= 1;
            }
        }
        self.verdicts.push_back(raw);
        if let Verdict::Malware { class, .. } = raw {
            self.malware_votes += 1;
            self.class_votes[Self::malware_index(class)] += 1;
        }
        self.smoothed()
    }

    /// Index of a malware class in [`AppClass::MALWARE`] order.
    fn malware_index(class: AppClass) -> usize {
        AppClass::MALWARE
            .iter()
            .position(|c| *c == class)
            .expect("verdict classes are malware classes")
    }

    /// Majority decision over the retained raw verdicts: malware iff more
    /// than half flag malware; the reported class is the most frequent
    /// flagged class — ties break to the lowest [`AppClass`] — with its
    /// mean confidence. Pure tally reads plus one in-order scan for the
    /// confidence mean; no allocation.
    fn smoothed(&self) -> Verdict {
        if self.malware_votes * 2 <= self.verdicts.len() {
            return Verdict::Benign;
        }
        // Most frequent class among the malware votes; the strict `>` keeps
        // the earliest (lowest) class on equal tallies.
        let mut best = 0;
        for (i, &count) in self.class_votes.iter().enumerate().skip(1) {
            if count > self.class_votes[best] {
                best = i;
            }
        }
        let class = AppClass::MALWARE[best];
        let mut total = 0.0;
        for v in &self.verdicts {
            if let Verdict::Malware {
                class: c,
                confidence,
            } = v
            {
                if *c == class {
                    total += *confidence;
                }
            }
        }
        Verdict::Malware {
            class,
            confidence: total / self.class_votes[best] as f64,
        }
    }

    /// Clears window and vote state (e.g. when the monitored process
    /// changes), keeping the buffers.
    pub fn reset(&mut self) {
        self.filled = 0;
        self.pos = 0;
        self.sums.fill(0.0);
        self.verdicts.clear();
        self.malware_votes = 0;
        self.class_votes = [0; AppClass::MALWARE.len()];
    }
}

/// A deployable online detector for one monitored stream: a
/// [`HostWindow`] scored through its own detector.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    host: HostWindow,
    detector: TwoSmartDetector,
}

impl OnlineDetector {
    /// Wraps a trained 4-HPC detector; see [`HostWindow::new`] for
    /// `window`, `votes` and the errors.
    ///
    /// # Errors
    ///
    /// [`OnlineError::NotDeployable`] or [`OnlineError::ZeroLength`].
    pub fn new(
        detector: TwoSmartDetector,
        window: usize,
        votes: usize,
    ) -> Result<OnlineDetector, OnlineError> {
        Ok(OnlineDetector {
            host: HostWindow::new(&detector, window, votes)?,
            detector,
        })
    }

    /// Feeds one counter reading (in [`TwoSmartDetector::runtime_events`]
    /// order). Returns the smoothed verdict once the window has filled,
    /// `None` during warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `counters` has the wrong length or a non-finite value.
    /// Paths handling untrusted input call
    /// [`advance_window`](Self::advance_window), which returns an error
    /// instead.
    // hmd-analyze: hot-path
    pub fn push(&mut self, counters: &[f64]) -> Option<Verdict> {
        let mut features44 = [0.0; Event::COUNT];
        let ready = self
            .host
            .advance_window(counters, &mut features44)
            .expect("one finite reading per programmed event");
        if !ready {
            return None;
        }
        let raw = self.detector.detect(&features44);
        Some(self.host.apply_verdict(raw))
    }

    /// The windowing half of [`push`](Self::push); see
    /// [`HostWindow::advance_window`].
    ///
    /// # Errors
    ///
    /// As [`HostWindow::advance_window`].
    // hmd-analyze: hot-path
    pub fn advance_window(
        &mut self,
        counters: &[f64],
        features44: &mut [f64; Event::COUNT],
    ) -> Result<bool, OnlineError> {
        self.host.advance_window(counters, features44)
    }

    /// The smoothing half of [`push`](Self::push); see
    /// [`HostWindow::apply_verdict`].
    // hmd-analyze: hot-path
    pub fn apply_verdict(&mut self, raw: Verdict) -> Verdict {
        self.host.apply_verdict(raw)
    }

    /// Clears window and vote state (e.g. when the monitored process
    /// changes).
    pub fn reset(&mut self) {
        self.host.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
    use hmd_ml::classifier::ClassifierKind;

    fn deployable_detector() -> TwoSmartDetector {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        AppClass::MALWARE
            .iter()
            .fold(
                TwoSmartDetector::builder().seed(4).hpc_budget(4),
                |b, &c| b.classifier_for(c, ClassifierKind::OneR),
            )
            .train(&corpus)
            .expect("detector trains")
    }

    #[test]
    fn warmup_returns_none_until_window_fills() {
        let mut online = OnlineDetector::new(deployable_detector(), 3, 1).unwrap();
        assert_eq!(online.push(&[1.0, 1.0, 1.0, 1.0]), None);
        assert_eq!(online.push(&[1.0, 1.0, 1.0, 1.0]), None);
        assert!(online.push(&[1.0, 1.0, 1.0, 1.0]).is_some());
    }

    #[test]
    fn eight_hpc_detector_is_rejected() {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        let det = AppClass::MALWARE
            .iter()
            .fold(
                TwoSmartDetector::builder().seed(4).hpc_budget(8),
                |b, &c| b.classifier_for(c, ClassifierKind::OneR),
            )
            .train(&corpus)
            .unwrap();
        assert_eq!(
            OnlineDetector::new(det, 3, 1).unwrap_err(),
            OnlineError::NotDeployable
        );
    }

    #[test]
    fn zero_lengths_are_rejected() {
        let det = deployable_detector();
        assert_eq!(
            OnlineDetector::new(det.clone(), 0, 1).unwrap_err(),
            OnlineError::ZeroLength("window")
        );
        assert_eq!(
            OnlineDetector::new(det, 1, 0).unwrap_err(),
            OnlineError::ZeroLength("votes")
        );
    }

    #[test]
    fn majority_smoothing_suppresses_single_outliers() {
        // votes = 3: a single malware verdict among benign ones must not
        // trigger the alarm. We simulate by feeding readings and checking
        // the smoothed stream is stable even if raw verdicts flicker.
        let det = deployable_detector();
        let mut online = OnlineDetector::new(det, 1, 3).unwrap();
        // Feed constant benign-looking low counters.
        let mut alarms = 0;
        for _ in 0..10 {
            if let Some(v) = online.push(&[1e5, 1e4, 1e3, 1e2]) {
                if v.is_malware() {
                    alarms += 1;
                }
            }
        }
        // The verdict stream is deterministic for constant input: either
        // always alarming or never; smoothing must not oscillate.
        assert!(alarms == 0 || alarms == 10, "oscillating alarms: {alarms}");
    }

    #[test]
    fn rolling_sums_match_naive_recomputation() {
        // The incremental ring sums must agree with a from-scratch fold
        // over the retained samples at every step — including across ring
        // wraps and evictions. Counter readings are integer-valued, so
        // both computations are exact and the comparison is bit-for-bit.
        let mut online = OnlineDetector::new(deployable_detector(), 4, 2).unwrap();
        let mut naive: VecDeque<Vec<f64>> = VecDeque::new();
        for i in 0..40u64 {
            let reading = vec![
                1_000_000.0 + (i % 17) as f64 * 10_000.0,
                300_000.0 + (i % 13) as f64 * 3_000.0,
                47_000.0 + (i % 11) as f64 * 500.0,
                9_900.0 + (i % 7) as f64 * 100.0,
            ];
            let _ = online.push(&reading);
            if naive.len() == 4 {
                naive.pop_front();
            }
            naive.push_back(reading);

            let mut expected = vec![0.0; 4];
            for s in &naive {
                for (e, v) in expected.iter_mut().zip(s) {
                    *e += v;
                }
            }
            let got: Vec<u64> = online.host.sums.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got, want,
                "step {i}: {:?} vs {expected:?}",
                online.host.sums
            );
        }
    }

    #[test]
    fn smoothing_tie_breaks_to_lowest_malware_class() {
        // Equal tallies for two malware classes: the reported class must be
        // the lowest AppClass, deterministically.
        let mut host = HostWindow::new(&deployable_detector(), 1, 4).unwrap();
        for (class, confidence) in [
            (AppClass::Virus, 0.9),
            (AppClass::Backdoor, 0.6),
            (AppClass::Virus, 0.7),
            (AppClass::Backdoor, 0.8),
        ] {
            host.verdicts
                .push_back(Verdict::Malware { class, confidence });
            host.malware_votes += 1;
            host.class_votes[HostWindow::malware_index(class)] += 1;
        }
        // Backdoor precedes Virus in AppClass::MALWARE (ascending label
        // order), so the 2–2 tie resolves to Backdoor with the mean of the
        // Backdoor confidences.
        assert_eq!(
            host.smoothed(),
            Verdict::Malware {
                class: AppClass::Backdoor,
                confidence: (0.6 + 0.8) / 2.0,
            }
        );
    }

    #[test]
    fn wrong_arity_is_rejected_without_corrupting_state() {
        let mut online = OnlineDetector::new(deployable_detector(), 2, 1).unwrap();
        let mut f44 = [0.0; Event::COUNT];
        assert_eq!(online.push(&[1.0, 1.0, 1.0, 1.0]), None);
        // Too short and too long are both rejected, and neither consumes a
        // window slot: the next valid push still completes the 2-window.
        assert_eq!(
            online.advance_window(&[1.0, 1.0], &mut f44),
            Err(OnlineError::BadLength {
                expected: 4,
                got: 2
            })
        );
        assert_eq!(
            online.advance_window(&[1.0; 7], &mut f44),
            Err(OnlineError::BadLength {
                expected: 4,
                got: 7
            })
        );
        assert!(online.push(&[1.0, 1.0, 1.0, 1.0]).is_some());
    }

    #[test]
    #[should_panic(expected = "one finite reading per programmed event")]
    fn push_panics_on_wrong_arity() {
        let mut online = OnlineDetector::new(deployable_detector(), 2, 1).unwrap();
        online.push(&[1.0, 2.0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut online = OnlineDetector::new(deployable_detector(), 2, 2).unwrap();
        online.push(&[1.0, 1.0, 1.0, 1.0]);
        online.push(&[1.0, 1.0, 1.0, 1.0]);
        online.reset();
        assert_eq!(online.push(&[1.0, 1.0, 1.0, 1.0]), None, "warm-up restarts");
    }

    #[test]
    fn non_finite_counters_are_rejected_without_touching_state() {
        // NaN and ±inf are refused before they reach the rolling sums, so
        // the pushes that follow match a detector that never saw them.
        // Finite negative counters are accepted: they leave the sums
        // exactly and stage 1 clamps them.
        let det = deployable_detector();
        let mut probed = OnlineDetector::new(det.clone(), 3, 2).unwrap();
        let mut clean = OnlineDetector::new(det, 3, 2).unwrap();
        for i in 0..12u64 {
            let x = 1e5 + (i * 37) as f64;
            let sign = if i % 5 == 4 { -1.0 } else { 1.0 };
            let reading = [x, sign * x / 3.0, x / 7.0, x / 11.0];
            for (index, bad) in [(0, f64::NAN), (2, f64::INFINITY), (3, f64::NEG_INFINITY)] {
                let mut r = reading;
                r[index] = bad;
                let mut f44 = [0.0; Event::COUNT];
                let got = probed.advance_window(&r, &mut f44);
                assert_eq!(got, Err(OnlineError::BadValue { index }));
            }
            assert_eq!(probed.push(&reading), clean.push(&reading), "reading {i}");
            let bits = |o: &OnlineDetector| -> Vec<u64> {
                o.host.sums.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&probed), bits(&clean), "sums after reading {i}");
        }
    }

    #[test]
    fn heap_bytes_counts_every_buffer() {
        // window 5 × 4 events in the ring, 4 sums, 4 event indices, 3 votes.
        let host = HostWindow::new(&deployable_detector(), 5, 3).unwrap();
        let floor =
            (5 * 4 + 4) * size_of::<f64>() + 4 * size_of::<usize>() + 3 * size_of::<Verdict>();
        assert!(
            host.heap_bytes() >= floor,
            "{} < {floor}",
            host.heap_bytes()
        );
    }
}
