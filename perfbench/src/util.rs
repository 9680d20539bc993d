//! Shared helpers: run configuration, order statistics, process memory,
//! verdict digests and the result record every workload returns.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use twosmart::detector::Verdict;

/// How big a run is. `Full` is what the benchmark command measures; `Smoke`
/// shrinks every input so the package's own tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A few seconds per workload, for tests.
    Smoke,
}

/// One invocation's parameters, as parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// The `perfbench` binary that repeats set-up in child processes
    /// (see [`crate::setup::timed_setup`]); `None` sets up once.
    pub setup_exe: Option<PathBuf>,
}

impl RunConfig {
    /// The timed phase as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run produced: its op counts, its correctness verdict,
/// its metrics and the human-readable lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops the timed phase attempted.
    pub attempted: u64,
    /// Ops that failed: error frames, missing or out-of-order replies,
    /// verdict mismatches, connection errors, digest or section mismatches.
    pub failed: u64,
    /// Threads the workload kept busy at normal priority while it
    /// measured, as it started them.
    pub busy_threads: usize,
    /// OS connections the workload opened.
    pub connections: usize,
    /// Names of the correctness checks that did not hold.
    pub failed_checks: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a correctness check; a failed check also fails `failures`
    /// ops (at least one).
    pub fn check(&mut self, name: &str, ok: bool, failures: u64) {
        if !ok {
            self.failed_checks.push(name.to_string());
            self.failed += failures.max(1);
        }
    }

    /// Adds a human-readable line to the run output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `true` when every check held and no op failed.
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty() && self.failed == 0
    }

    /// The value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples: the middle one, or the mean of the two
/// middle ones for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Sorts nanosecond samples into microseconds for percentile lookups.
pub fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Fewest latency samples of a run whose samples are whole harness calls
/// or grids, so that its median is neither its fastest nor its slowest.
pub const MIN_SAMPLES: usize = 3;

/// Latency recorded for a failed request: it misses any latency limit.
pub const FAILED_NS: u64 = u64::MAX;

/// Ops and latencies of a timed phase with their completion times, so
/// throughput and latency percentiles can be taken per fixed-width time
/// slice. Anything the program does periodically (a sweep every few
/// thousand bursts) lands in every slice and still shows, while
/// interference from other tenants of a shared host is confined to the
/// slices it overlaps: the median over the slices of each slice's rate or
/// percentile is one that interference lasting less than half the phase
/// cannot move.
#[derive(Debug, Clone)]
pub struct Slices {
    start: Instant,
    phase: Duration,
    count: u32,
    at_ns: Vec<u64>,
    ops: Vec<u64>,
    latency_ns: Vec<u64>,
}

impl Slices {
    /// A timeline for a phase of length `phase` starting now, cut into
    /// `count` slices.
    pub fn new(phase: Duration, count: u32) -> Slices {
        Slices {
            start: Instant::now(),
            phase,
            count: count.max(1),
            at_ns: Vec::new(),
            ops: Vec::new(),
            latency_ns: Vec::new(),
        }
    }

    fn width_s(&self) -> f64 {
        self.phase.as_secs_f64() / f64::from(self.count)
    }

    /// Counts `ops` completed at `now`, the last of them `latency_ns`
    /// after it was sent.
    pub fn record(&mut self, now: Instant, ops: u64, latency_ns: u64) {
        self.at_ns
            .push(now.duration_since(self.start).as_nanos() as u64);
        self.ops.push(ops);
        self.latency_ns.push(latency_ns);
    }

    /// Ops and latencies of each slice.
    fn buckets(&self) -> Vec<(u64, Vec<u64>)> {
        let width = (self.phase.as_nanos() as u64 / u64::from(self.count)).max(1);
        let mut buckets = vec![(0u64, Vec::new()); self.count as usize];
        for ((&at, &ops), &ns) in self.at_ns.iter().zip(&self.ops).zip(&self.latency_ns) {
            if let Some(b) = buckets.get_mut((at / width) as usize) {
                b.0 += ops;
                b.1.push(ns);
            }
        }
        buckets
    }

    /// Median over the slices of their ops per second.
    pub fn median_rate(&self) -> f64 {
        let width = self.width_s();
        let rates: Vec<f64> = self
            .buckets()
            .iter()
            .map(|(ops, _)| *ops as f64 / width)
            .collect();
        median(&rates)
    }

    /// Median over the slices of each slice's `p`-th latency percentile,
    /// in µs (slices without samples skipped).
    pub fn median_percentile_us(&self, p: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .buckets()
            .iter()
            .filter(|(_, ns)| !ns.is_empty())
            .map(|(_, ns)| percentile(&sorted_us(ns), p))
            .collect();
        if per_slice.is_empty() {
            return 0.0;
        }
        median(&per_slice)
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Reads one `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`) in
/// bytes; 0 where the file is unavailable.
pub fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_bytes("VmHWM") as f64 / (1024.0 * 1024.0)
}

/// Current resident set of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

/// Multiplicative fold over 64-bit words: a per-host running digest of
/// verdict bit patterns, so bit-identity checks need no stored verdict
/// log. One multiply per word keeps it out of the generator's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictDigest(pub u64);

impl Default for VerdictDigest {
    fn default() -> VerdictDigest {
        VerdictDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl VerdictDigest {
    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0100_0000_01b3).rotate_left(29);
    }

    /// Folds one reply's verdict, bit for bit (warm-up `None` included).
    pub fn verdict(&mut self, v: &Option<Verdict>) {
        match v {
            None => self.word(0),
            Some(Verdict::Benign) => self.word(1),
            Some(Verdict::Malware { class, confidence }) => {
                self.word(2 + class.label() as u64);
                self.word(confidence.to_bits());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_sees_every_verdict_bit() {
        let mut a = VerdictDigest::default();
        let mut b = VerdictDigest::default();
        a.verdict(&Some(Verdict::Benign));
        b.verdict(&Some(Verdict::Benign));
        assert_eq!(a, b);
        let class = hmd_hpc_sim::workload::AppClass::Virus;
        a.verdict(&Some(Verdict::Malware {
            class,
            confidence: 0.75,
        }));
        b.verdict(&Some(Verdict::Malware {
            class,
            confidence: f64::from_bits(0.75f64.to_bits() ^ 1),
        }));
        assert_ne!(a, b, "a flipped confidence bit must change the digest");
    }

    #[test]
    fn slices_report_the_median_slice() {
        let ms = Duration::from_millis;
        let mut s = Slices::new(ms(200), 20);
        let t = s.start;
        // Slice i (10 ms wide) completes i ops, one of them after i µs.
        for i in 0..20u64 {
            s.record(t + ms(10 * i + 1), i, 1_000 * i);
        }
        s.record(t + ms(201), 99, 99_000);
        // The median of 0..20 is 9.5: 9.5 ops per 10 ms, 9.5 µs; the
        // record past the phase is dropped.
        assert!(
            (s.median_rate() - 950.0).abs() < 1e-6,
            "{}",
            s.median_rate()
        );
        assert_eq!(s.median_percentile_us(99.0), 9.5);
    }

    #[test]
    fn status_fields_parse() {
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_bytes() > 0);
    }
}
