//! Trace recording: 10 ms sampling of a running application.
//!
//! A [`Sampler`] drives an [`AppInstance`] and records a ground-truth
//! [`HpcTrace`] — the counts of all 44 events per sampling interval, with
//! no counter-register constraint. This is the "oracle" view; the realistic
//! constrained view (at most 4 events per run) lives in [`crate::perf`].
//!
//! # Examples
//!
//! ```
//! use hmd_hpc_sim::sampler::Sampler;
//! use hmd_hpc_sim::workload::WorkloadSpec;
//! use hmd_hpc_sim::event::Event;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let app = WorkloadSpec::library()[0].spawn(&mut rng);
//! let trace = Sampler::default().record(app, 20, &mut rng);
//! assert_eq!(trace.len(), 20);
//! assert_eq!(trace.event_series(Event::Instructions).len(), 20);
//! ```

use crate::event::Event;
use crate::workload::{AppClass, AppInstance};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One 10 ms sampling interval: the counts of all 44 events.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HpcSample {
    /// Start of the interval, in milliseconds since trace start.
    pub time_ms: u64,
    /// Event counts for this interval, indexed by [`Event::index`].
    pub counts: Vec<f64>,
    /// Name of the program phase active during this interval.
    pub phase: &'static str,
}

impl HpcSample {
    /// The count of one event in this interval.
    pub fn count(&self, event: Event) -> f64 {
        self.counts[event.index()]
    }
}

/// A recorded sequence of samples for one application.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HpcTrace {
    /// Workload family the application was spawned from.
    pub family: &'static str,
    /// Ground-truth class.
    pub class: AppClass,
    /// The samples, in time order.
    pub samples: Vec<HpcSample>,
}

impl HpcTrace {
    /// Number of samples in the trace.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The time series of one event's counts.
    pub fn event_series(&self, event: Event) -> Vec<f64> {
        self.samples.iter().map(|s| s.count(event)).collect()
    }

    /// Mean count of every event over the trace — the per-application
    /// feature vector used for training.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn mean_rates(&self) -> [f64; Event::COUNT] {
        assert!(!self.is_empty(), "cannot aggregate an empty trace");
        let mut acc = [0.0; Event::COUNT];
        for s in &self.samples {
            for (a, c) in acc.iter_mut().zip(&s.counts) {
                *a += c;
            }
        }
        let n = self.samples.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }

    /// Splits the trace into consecutive windows of `window` samples (the
    /// final partial window is dropped) and returns the mean rate vector of
    /// each — the run-time detection unit.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn window_means(&self, window: usize) -> Vec<[f64; Event::COUNT]> {
        assert!(window > 0, "window must be positive");
        self.samples
            .chunks_exact(window)
            .map(|chunk| {
                let mut acc = [0.0; Event::COUNT];
                for s in chunk {
                    for (a, c) in acc.iter_mut().zip(&s.counts) {
                        *a += c;
                    }
                }
                for a in &mut acc {
                    *a /= window as f64;
                }
                acc
            })
            .collect()
    }
}

/// Records ground-truth traces at a fixed sampling period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sampler {
    /// Sampling period in milliseconds (the paper uses 10 ms).
    pub period_ms: u64,
}

impl Sampler {
    /// A sampler at the paper's 10 ms period.
    pub fn new() -> Self {
        Sampler { period_ms: 10 }
    }

    /// Runs `app` for `n_samples` intervals and records every event.
    pub fn record<R: Rng + ?Sized>(
        &self,
        mut app: AppInstance,
        n_samples: usize,
        rng: &mut R,
    ) -> HpcTrace {
        let mut samples = Vec::with_capacity(n_samples);
        for i in 0..n_samples {
            let phase = app.phase_name();
            let counts = app.step(rng);
            samples.push(HpcSample {
                time_ms: i as u64 * self.period_ms,
                counts: counts.to_vec(),
                phase,
            });
        }
        HpcTrace {
            family: app.family(),
            class: app.class(),
            samples,
        }
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_trace(n: usize, seed: u64) -> HpcTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let app = WorkloadSpec::library()[0].spawn(&mut rng);
        Sampler::default().record(app, n, &mut rng)
    }

    #[test]
    fn trace_has_requested_length_and_timestamps() {
        let t = small_trace(5, 0);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        let times: Vec<_> = t.samples.iter().map(|s| s.time_ms).collect();
        assert_eq!(times, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn mean_rates_are_the_arithmetic_mean() {
        let t = small_trace(8, 1);
        let mean = t.mean_rates();
        let e = Event::Instructions;
        let expect: f64 = t.event_series(e).iter().sum::<f64>() / 8.0;
        assert!((mean[e.index()] - expect).abs() < 1e-6 * expect.abs());
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn mean_of_empty_trace_panics() {
        let t = HpcTrace {
            family: "x",
            class: AppClass::Benign,
            samples: vec![],
        };
        t.mean_rates();
    }

    #[test]
    fn window_means_drops_partial_window() {
        let t = small_trace(10, 2);
        assert_eq!(t.window_means(3).len(), 3);
        assert_eq!(t.window_means(10).len(), 1);
        assert_eq!(t.window_means(11).len(), 0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        small_trace(4, 3).window_means(0);
    }

    #[test]
    fn recording_is_reproducible_under_the_same_seed() {
        let a = small_trace(6, 42);
        let b = small_trace(6, 42);
        assert_eq!(a, b);
    }
}
