//! Readiness scheduling for the worker event loop.
//!
//! The workspace is `forbid(unsafe_code)` and offline, so the server
//! cannot sit in `epoll`/`poll(2)` — but it must not busy-poll either: a
//! worker that probes every socket every 200 µs burns a full core on 10k
//! idle connections. This module is the std-only middle ground, shaped
//! like a poll interface: each connection carries a [`ConnSched`]; a
//! [`Pacer`] decides which connections are *due* a service pass and how
//! long the worker may park until the next deadline.
//!
//! The policy is exponential probe backoff: a connection that moved bytes
//! is due again immediately; one that idles doubles its probe interval
//! from the pacer's `base` up to its `cap` (see [`Pacer::new`]). A
//! telemetry agent on the paper's 10 ms sampling cadence never decays past
//! the first steps, while a silent connection settles at one cheap
//! nonblocking probe per `cap` —
//! so idle connections cost `O(1/cap)` syscalls per second instead of a
//! busy loop, and the worker parks on its inbox condvar in between.
//!
//! Everything here is pure arithmetic over caller-supplied [`Instant`]s,
//! so the schedule is unit-testable without sockets or sleeping.

use std::time::{Duration, Instant};

/// Per-connection readiness state: how long it has been idle and when it
/// is next due a probe.
#[derive(Debug, Clone, Copy)]
pub struct ConnSched {
    /// Consecutive no-progress passes (saturating).
    streak: u32,
    /// Next instant the connection should be serviced.
    due: Instant,
}

/// Backoff policy shared by one worker's connection set.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    base: Duration,
    cap: Duration,
}

impl Pacer {
    /// A pacer probing active connections every `base` and idle ones no
    /// less often than every `cap` (clamped to at least `base`).
    pub fn new(base: Duration, cap: Duration) -> Pacer {
        Pacer {
            base,
            cap: cap.max(base),
        }
    }

    /// Schedule state for a fresh connection: due immediately (it owes us
    /// a handshake).
    pub fn register(&self, now: Instant) -> ConnSched {
        ConnSched {
            streak: 0,
            due: now,
        }
    }

    /// The connection moved bytes this pass: keep it hot.
    pub fn mark_progress(&self, sched: &mut ConnSched, now: Instant) {
        sched.streak = 0;
        sched.due = now;
    }

    /// The connection made no progress: back its next probe off
    /// exponentially.
    pub fn mark_idle(&self, sched: &mut ConnSched, now: Instant) {
        sched.streak = sched.streak.saturating_add(1);
        sched.due = now + self.backoff(sched.streak);
    }

    /// Probe interval after `streak` consecutive idle passes.
    pub fn backoff(&self, streak: u32) -> Duration {
        // base · 2^(streak-1), saturating at cap; shift clamped so the
        // multiplier cannot overflow.
        let shift = streak.saturating_sub(1).min(16);
        let interval = self.base.saturating_mul(1u32 << shift);
        interval.min(self.cap)
    }

    /// Whether the connection is due a service pass.
    pub fn is_due(&self, sched: &ConnSched, now: Instant) -> bool {
        sched.due <= now
    }

    /// Earliest deadline across a connection set — how long the worker may
    /// park before somebody is due. `None` for an empty set (park until
    /// the inbox bell rings).
    pub fn next_deadline<'a>(
        &self,
        scheds: impl Iterator<Item = &'a ConnSched>,
    ) -> Option<Instant> {
        scheds.map(|s| s.due).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pacer() -> Pacer {
        Pacer::new(Duration::from_micros(200), Duration::from_millis(100))
    }

    #[test]
    fn fresh_connections_are_due_immediately() {
        let p = pacer();
        let now = Instant::now();
        let sched = p.register(now);
        assert!(p.is_due(&sched, now));
    }

    #[test]
    fn progress_keeps_a_connection_hot() {
        let p = pacer();
        let now = Instant::now();
        let mut sched = p.register(now);
        for _ in 0..10 {
            p.mark_idle(&mut sched, now);
        }
        p.mark_progress(&mut sched, now);
        assert!(p.is_due(&sched, now), "progress resets the backoff");
        assert_eq!(p.backoff(1), Duration::from_micros(200));
    }

    #[test]
    fn idle_backoff_doubles_and_saturates_at_the_cap() {
        let p = pacer();
        assert_eq!(p.backoff(1), Duration::from_micros(200));
        assert_eq!(p.backoff(2), Duration::from_micros(400));
        assert_eq!(p.backoff(3), Duration::from_micros(800));
        assert_eq!(p.backoff(10), Duration::from_millis(100), "capped");
        assert_eq!(p.backoff(u32::MAX), Duration::from_millis(100));
    }

    #[test]
    fn idle_connection_is_not_due_until_its_deadline() {
        let p = pacer();
        let now = Instant::now();
        let mut sched = p.register(now);
        p.mark_idle(&mut sched, now);
        assert!(!p.is_due(&sched, now));
        assert!(!p.is_due(&sched, now + Duration::from_micros(199)));
        assert!(p.is_due(&sched, now + Duration::from_micros(200)));
    }

    #[test]
    fn next_deadline_is_the_earliest_due() {
        let p = pacer();
        let now = Instant::now();
        let mut a = p.register(now);
        let mut b = p.register(now);
        p.mark_idle(&mut a, now);
        p.mark_idle(&mut b, now);
        p.mark_idle(&mut b, now); // b further out than a
        let scheds = [a, b];
        assert_eq!(p.next_deadline(scheds.iter()), Some(a.due));
        assert_eq!(p.next_deadline([].iter()), None);
    }

    #[test]
    fn cap_is_clamped_to_at_least_base() {
        let p = Pacer::new(Duration::from_millis(1), Duration::ZERO);
        assert_eq!(p.backoff(30), Duration::from_millis(1));
    }
}
