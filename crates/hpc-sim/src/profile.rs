//! Parametric microarchitectural behaviour profiles.
//!
//! The paper's detectors never see program binaries — they see 44-dimensional
//! vectors of event *rates* per 10 ms sampling interval. This module models a
//! running program as a small set of physically meaningful knobs
//! ([`BehaviorProfile`]) — IPC, branch density, cache/TLB miss rates, NUMA
//! traffic share — from which all 44 [`Event`] rates are *derived*.
//! Deriving dependent events (e.g. `branch-misses` =
//! `branch-instructions` × misprediction rate) instead of sampling each event
//! independently gives the synthetic traces the same correlation structure a
//! real counter file has, which is exactly what the paper's correlation-based
//! feature reduction exploits.
//!
//! # Examples
//!
//! ```
//! use hmd_hpc_sim::profile::BehaviorProfile;
//! use hmd_hpc_sim::event::Event;
//! use rand::SeedableRng;
//!
//! let profile = BehaviorProfile::balanced();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let rates = profile.sample_rates(&mut rng);
//! // branch misses can never exceed branch instructions
//! assert!(rates[Event::BranchMisses.index()] <= rates[Event::BranchInstructions.index()]);
//! ```

use crate::event::Event;
use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Core clock of the modelled Intel Xeon X5550 in Hz (2.67 GHz).
pub const CLOCK_HZ: f64 = 2.67e9;

/// Length of one sampling interval in seconds (the paper samples at 10 ms).
pub const SAMPLE_PERIOD_S: f64 = 0.010;

/// Cycles available in one fully-utilized sampling interval.
pub const CYCLES_PER_SAMPLE: f64 = CLOCK_HZ * SAMPLE_PERIOD_S;

/// The behavioural knobs of a running program.
///
/// All rate fields are per-instruction or per-access probabilities in
/// `[0, 1]`; `ipc` and `utilization` scale total activity. Every field is
/// public because the struct is a passive parameter bundle that workload
/// authors are expected to tweak; [`BehaviorProfile::validate`] checks the
/// invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorProfile {
    /// Fraction of the sampling interval the program is on-CPU, `(0, 1]`.
    pub utilization: f64,
    /// Retired instructions per cycle, `(0, 4]` on the modelled core.
    pub ipc: f64,
    /// Fraction of instructions that are branches.
    pub branch_frac: f64,
    /// Fraction of instructions that are memory loads.
    pub load_frac: f64,
    /// Fraction of instructions that are memory stores.
    pub store_frac: f64,
    /// Branch misprediction rate (per branch).
    pub branch_miss_rate: f64,
    /// L1 D-cache load miss rate (per load).
    pub l1d_load_miss_rate: f64,
    /// L1 D-cache store miss rate (per store).
    pub l1d_store_miss_rate: f64,
    /// L1 I-cache miss rate (per fetch access).
    pub l1i_miss_rate: f64,
    /// LLC miss rate (per LLC access).
    pub llc_miss_rate: f64,
    /// dTLB miss rate (per data access).
    pub dtlb_miss_rate: f64,
    /// iTLB miss rate (per fetch access).
    pub itlb_miss_rate: f64,
    /// Hardware-prefetch aggressiveness: prefetches issued per demand miss.
    pub prefetch_intensity: f64,
    /// Fraction of memory traffic served by the remote NUMA node.
    pub numa_remote_frac: f64,
    /// Multiplicative log-normal jitter (σ of ln) applied to each derived
    /// event per sample; models program phase micro-variation.
    pub jitter_sigma: f64,
}

impl BehaviorProfile {
    /// A balanced, cache-friendly profile resembling an average user
    /// application — the neutral starting point workload families perturb.
    pub fn balanced() -> Self {
        BehaviorProfile {
            utilization: 0.75,
            ipc: 1.1,
            branch_frac: 0.18,
            load_frac: 0.26,
            store_frac: 0.11,
            branch_miss_rate: 0.035,
            l1d_load_miss_rate: 0.030,
            l1d_store_miss_rate: 0.020,
            l1i_miss_rate: 0.006,
            llc_miss_rate: 0.20,
            dtlb_miss_rate: 0.004,
            itlb_miss_rate: 0.0015,
            prefetch_intensity: 0.8,
            numa_remote_frac: 0.12,
            jitter_sigma: 0.18,
        }
    }

    /// Checks that every knob is inside its physical range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        fn unit(name: &str, v: f64) -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} = {v} outside [0, 1]"))
            }
        }
        if !(self.utilization > 0.0 && self.utilization <= 1.0) {
            return Err(format!("utilization = {} outside (0, 1]", self.utilization));
        }
        if !(self.ipc > 0.0 && self.ipc <= 4.0) {
            return Err(format!("ipc = {} outside (0, 4]", self.ipc));
        }
        unit("branch_frac", self.branch_frac)?;
        unit("load_frac", self.load_frac)?;
        unit("store_frac", self.store_frac)?;
        if self.branch_frac + self.load_frac + self.store_frac > 1.0 {
            return Err("instruction-mix fractions exceed 1.0".to_string());
        }
        unit("branch_miss_rate", self.branch_miss_rate)?;
        unit("l1d_load_miss_rate", self.l1d_load_miss_rate)?;
        unit("l1d_store_miss_rate", self.l1d_store_miss_rate)?;
        unit("l1i_miss_rate", self.l1i_miss_rate)?;
        unit("llc_miss_rate", self.llc_miss_rate)?;
        unit("dtlb_miss_rate", self.dtlb_miss_rate)?;
        unit("itlb_miss_rate", self.itlb_miss_rate)?;
        unit("numa_remote_frac", self.numa_remote_frac)?;
        if self.prefetch_intensity < 0.0 || self.prefetch_intensity > 8.0 {
            return Err(format!(
                "prefetch_intensity = {} outside [0, 8]",
                self.prefetch_intensity
            ));
        }
        if self.jitter_sigma < 0.0 || self.jitter_sigma > 2.0 {
            return Err(format!(
                "jitter_sigma = {} outside [0, 2]",
                self.jitter_sigma
            ));
        }
        Ok(())
    }

    /// Returns a copy with `modulation` applied (see [`Modulation`]).
    ///
    /// Rates are clamped back into their physical ranges, so a modulation can
    /// never produce an invalid profile from a valid one.
    pub fn modulated(&self, m: &Modulation) -> BehaviorProfile {
        let clamp01 = |v: f64| v.clamp(0.0, 1.0);
        let mut p = self.clone();
        p.utilization = (self.utilization * m.utilization).clamp(0.01, 1.0);
        p.ipc = (self.ipc * m.ipc).clamp(0.05, 4.0);
        p.branch_frac = clamp01(self.branch_frac * m.branch);
        p.load_frac = clamp01(self.load_frac * m.memory);
        p.store_frac = clamp01(self.store_frac * m.memory * m.store);
        // Keep the instruction mix feasible under aggressive modulation.
        let mix = p.branch_frac + p.load_frac + p.store_frac;
        if mix > 0.95 {
            let s = 0.95 / mix;
            p.branch_frac *= s;
            p.load_frac *= s;
            p.store_frac *= s;
        }
        p.branch_miss_rate = clamp01(self.branch_miss_rate * m.miss);
        p.l1d_load_miss_rate = clamp01(self.l1d_load_miss_rate * m.miss);
        p.l1d_store_miss_rate = clamp01(self.l1d_store_miss_rate * m.miss);
        p.l1i_miss_rate = clamp01(self.l1i_miss_rate * m.icache);
        p.llc_miss_rate = clamp01(self.llc_miss_rate * m.miss);
        p.dtlb_miss_rate = clamp01(self.dtlb_miss_rate * m.dtlb);
        p.itlb_miss_rate = clamp01(self.itlb_miss_rate * m.itlb);
        p.numa_remote_frac = clamp01(self.numa_remote_frac * m.numa);
        p
    }

    /// Returns a copy with every knob jittered by an independent log-normal
    /// factor of the given `sigma` — used to individualize applications
    /// within a workload family.
    pub fn individualized<R: Rng + ?Sized>(&self, sigma: f64, rng: &mut R) -> BehaviorProfile {
        let ln = LogNormal::new(0.0, sigma).expect("sigma validated by caller");
        let mut jitter = || ln.sample(rng);
        let clamp01 = |v: f64| v.clamp(0.0, 1.0);
        let mut p = self.clone();
        p.utilization = (self.utilization * jitter()).clamp(0.01, 1.0);
        p.ipc = (self.ipc * jitter()).clamp(0.05, 4.0);
        p.branch_frac = clamp01(self.branch_frac * jitter());
        p.load_frac = clamp01(self.load_frac * jitter());
        p.store_frac = clamp01(self.store_frac * jitter());
        // Keep the instruction mix feasible under large jitter draws.
        let mix = p.branch_frac + p.load_frac + p.store_frac;
        if mix > 0.95 {
            let s = 0.95 / mix;
            p.branch_frac *= s;
            p.load_frac *= s;
            p.store_frac *= s;
        }
        p.branch_miss_rate = clamp01(self.branch_miss_rate * jitter());
        p.l1d_load_miss_rate = clamp01(self.l1d_load_miss_rate * jitter());
        p.l1d_store_miss_rate = clamp01(self.l1d_store_miss_rate * jitter());
        p.l1i_miss_rate = clamp01(self.l1i_miss_rate * jitter());
        p.llc_miss_rate = clamp01(self.llc_miss_rate * jitter());
        p.dtlb_miss_rate = clamp01(self.dtlb_miss_rate * jitter());
        p.itlb_miss_rate = clamp01(self.itlb_miss_rate * jitter());
        p.numa_remote_frac = clamp01(self.numa_remote_frac * jitter());
        p
    }

    /// Derives one 44-wide vector of event counts for a single 10 ms sample.
    ///
    /// Counts are deterministic functions of the knobs plus per-event
    /// log-normal jitter of [`jitter_sigma`](Self::jitter_sigma); dependent
    /// events (misses) share their parent's jitter so the physical ordering
    /// `misses ≤ accesses` always holds.
    pub fn sample_rates<R: Rng + ?Sized>(&self, rng: &mut R) -> [f64; Event::COUNT] {
        let ln = LogNormal::new(0.0, self.jitter_sigma.max(1e-9)).expect("sigma >= 0");
        let j = |rng: &mut R| ln.sample(rng);

        let cycles = CYCLES_PER_SAMPLE * self.utilization * j(rng);
        let instructions = cycles * self.ipc * j(rng);

        let branch_inst = instructions * self.branch_frac * j(rng);
        let branch_misses = branch_inst * (self.branch_miss_rate * j(rng)).min(1.0);
        // The BPU is looked up once per fetched branch; retirement filtering
        // makes the load counter track retired branches closely.
        let branch_loads = branch_inst * (1.0 + 0.04 * j(rng));
        let branch_load_misses = branch_misses * (1.0 + 0.03 * j(rng));

        let l1d_loads = instructions * self.load_frac * j(rng);
        let l1d_load_misses = l1d_loads * (self.l1d_load_miss_rate * j(rng)).min(1.0);
        let l1d_stores = instructions * self.store_frac * j(rng);
        let l1d_store_misses = l1d_stores * (self.l1d_store_miss_rate * j(rng)).min(1.0);
        let l1d_prefetches = l1d_load_misses * self.prefetch_intensity * j(rng);
        let l1d_prefetch_misses = l1d_prefetches * (self.llc_miss_rate * 0.5 * j(rng)).min(1.0);

        // ~4-wide fetch: one icache access covers several instructions.
        let l1i_loads = instructions * 0.27 * j(rng);
        let l1i_load_misses = l1i_loads * (self.l1i_miss_rate * j(rng)).min(1.0);
        let l1i_prefetches = l1i_load_misses * 0.6 * j(rng);
        let l1i_prefetch_misses = l1i_prefetches * (0.3 * j(rng)).min(1.0);

        let llc_loads = (l1d_load_misses + l1d_prefetch_misses * 0.3) * (1.0 + 0.02 * j(rng));
        let llc_load_misses = llc_loads * (self.llc_miss_rate * j(rng)).min(1.0);
        let llc_stores = l1d_store_misses * (1.0 + 0.02 * j(rng));
        let llc_store_misses = llc_stores * (self.llc_miss_rate * 0.8 * j(rng)).min(1.0);
        let llc_prefetches = l1d_prefetches * 0.5 * j(rng);
        let llc_prefetch_misses = llc_prefetches * (self.llc_miss_rate * j(rng)).min(1.0);

        let cache_references =
            llc_loads + llc_stores + llc_prefetches + l1i_load_misses * (1.0 + 0.01 * j(rng));
        let cache_misses = llc_load_misses + llc_store_misses + llc_prefetch_misses;

        let dtlb_loads = l1d_loads * (1.0 + 0.01 * j(rng));
        let dtlb_load_misses = dtlb_loads * (self.dtlb_miss_rate * j(rng)).min(1.0);
        let dtlb_stores = l1d_stores * (1.0 + 0.01 * j(rng));
        let dtlb_store_misses = dtlb_stores * (self.dtlb_miss_rate * 0.7 * j(rng)).min(1.0);
        let dtlb_prefetches = l1d_prefetches * 0.2 * j(rng);
        let dtlb_prefetch_misses = dtlb_prefetches * (self.dtlb_miss_rate * j(rng)).min(1.0);

        let itlb_loads = l1i_loads * (1.0 + 0.01 * j(rng));
        let itlb_load_misses = itlb_loads * (self.itlb_miss_rate * j(rng)).min(1.0);

        // Memory-node traffic: demand LLC misses plus dirty write-backs.
        let local = 1.0 - self.numa_remote_frac;
        let node_loads = (llc_load_misses + llc_prefetch_misses * 0.5) * (1.0 + 0.02 * j(rng));
        let node_load_misses = node_loads * (self.numa_remote_frac * j(rng)).min(1.0);
        let writebacks = l1d_stores * (self.l1d_store_miss_rate * 0.9 * j(rng)).min(1.0);
        let node_stores = (llc_store_misses + writebacks * 0.6) * (1.0 + 0.02 * j(rng));
        let node_store_misses = node_stores * (self.numa_remote_frac * 0.9 * j(rng)).min(1.0);
        let node_prefetches = llc_prefetches * local * 0.7 * j(rng);
        let node_prefetch_misses = node_prefetches * (self.numa_remote_frac * j(rng)).min(1.0);

        let mem_loads = l1d_loads * (1.0 + 0.005 * j(rng));
        let mem_stores = l1d_stores * (1.0 + 0.005 * j(rng));

        // Stall cycles: front-end dominated by icache/iTLB/branch repair,
        // back-end by memory latency; both capped by total cycles.
        let stalled_frontend =
            (l1i_load_misses * 18.0 + itlb_load_misses * 30.0 + branch_misses * 14.0)
                .min(cycles * 0.9)
                * j(rng).min(1.5);
        let stalled_backend =
            (llc_load_misses * 120.0 + dtlb_load_misses * 25.0 + l1d_load_misses * 8.0)
                .min(cycles * 0.95)
                * j(rng).min(1.5);

        let bus_cycles = cycles / 4.0 * (1.0 + 0.01 * j(rng));
        let ref_cycles = CYCLES_PER_SAMPLE * self.utilization * (1.0 + 0.002 * j(rng));

        let mut rates = [0.0; Event::COUNT];
        rates[Event::BranchInstructions.index()] = branch_inst;
        rates[Event::BranchMisses.index()] = branch_misses.min(branch_inst);
        rates[Event::BusCycles.index()] = bus_cycles;
        rates[Event::CacheMisses.index()] = cache_misses.min(cache_references);
        rates[Event::CacheReferences.index()] = cache_references;
        rates[Event::CpuCycles.index()] = cycles;
        rates[Event::Instructions.index()] = instructions;
        rates[Event::RefCycles.index()] = ref_cycles;
        rates[Event::StalledCyclesFrontend.index()] = stalled_frontend;
        rates[Event::StalledCyclesBackend.index()] = stalled_backend;
        rates[Event::L1DcacheLoads.index()] = l1d_loads;
        rates[Event::L1DcacheLoadMisses.index()] = l1d_load_misses.min(l1d_loads);
        rates[Event::L1DcacheStores.index()] = l1d_stores;
        rates[Event::L1DcacheStoreMisses.index()] = l1d_store_misses.min(l1d_stores);
        rates[Event::L1DcachePrefetches.index()] = l1d_prefetches;
        rates[Event::L1DcachePrefetchMisses.index()] = l1d_prefetch_misses.min(l1d_prefetches);
        rates[Event::L1IcacheLoads.index()] = l1i_loads;
        rates[Event::L1IcacheLoadMisses.index()] = l1i_load_misses.min(l1i_loads);
        rates[Event::L1IcachePrefetches.index()] = l1i_prefetches;
        rates[Event::L1IcachePrefetchMisses.index()] = l1i_prefetch_misses.min(l1i_prefetches);
        rates[Event::LlcLoads.index()] = llc_loads;
        rates[Event::LlcLoadMisses.index()] = llc_load_misses.min(llc_loads);
        rates[Event::LlcStores.index()] = llc_stores;
        rates[Event::LlcStoreMisses.index()] = llc_store_misses.min(llc_stores);
        rates[Event::LlcPrefetches.index()] = llc_prefetches;
        rates[Event::LlcPrefetchMisses.index()] = llc_prefetch_misses.min(llc_prefetches);
        rates[Event::DtlbLoads.index()] = dtlb_loads;
        rates[Event::DtlbLoadMisses.index()] = dtlb_load_misses.min(dtlb_loads);
        rates[Event::DtlbStores.index()] = dtlb_stores;
        rates[Event::DtlbStoreMisses.index()] = dtlb_store_misses.min(dtlb_stores);
        rates[Event::DtlbPrefetches.index()] = dtlb_prefetches;
        rates[Event::DtlbPrefetchMisses.index()] = dtlb_prefetch_misses.min(dtlb_prefetches);
        rates[Event::ItlbLoads.index()] = itlb_loads;
        rates[Event::ItlbLoadMisses.index()] = itlb_load_misses.min(itlb_loads);
        rates[Event::BranchLoads.index()] = branch_loads;
        rates[Event::BranchLoadMisses.index()] = branch_load_misses.min(branch_loads);
        rates[Event::NodeLoads.index()] = node_loads;
        rates[Event::NodeLoadMisses.index()] = node_load_misses.min(node_loads);
        rates[Event::NodeStores.index()] = node_stores;
        rates[Event::NodeStoreMisses.index()] = node_store_misses.min(node_stores);
        rates[Event::NodePrefetches.index()] = node_prefetches;
        rates[Event::NodePrefetchMisses.index()] = node_prefetch_misses.min(node_prefetches);
        rates[Event::MemLoads.index()] = mem_loads;
        rates[Event::MemStores.index()] = mem_stores;
        rates
    }
}

impl Default for BehaviorProfile {
    fn default() -> Self {
        BehaviorProfile::balanced()
    }
}

/// A multiplicative adjustment applied to a [`BehaviorProfile`] by a program
/// phase (see [`PhaseMachine`](crate::workload::PhaseMachine)).
///
/// All fields default to `1.0` (no change); construct with struct-update
/// syntax:
///
/// ```
/// use hmd_hpc_sim::profile::Modulation;
///
/// let beacon_burst = Modulation { utilization: 3.0, branch: 1.6, ..Modulation::NEUTRAL };
/// assert_eq!(beacon_burst.memory, 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Modulation {
    /// Multiplier on CPU utilization.
    pub utilization: f64,
    /// Multiplier on IPC.
    pub ipc: f64,
    /// Multiplier on branch density.
    pub branch: f64,
    /// Multiplier on load/store density.
    pub memory: f64,
    /// Extra multiplier on store density (on top of `memory`).
    pub store: f64,
    /// Multiplier on data-side miss rates (branch/L1d/LLC).
    pub miss: f64,
    /// Multiplier on the L1 I-cache miss rate.
    pub icache: f64,
    /// Multiplier on the dTLB miss rate.
    pub dtlb: f64,
    /// Multiplier on the iTLB miss rate.
    pub itlb: f64,
    /// Multiplier on the remote-NUMA fraction.
    pub numa: f64,
}

impl Modulation {
    /// The identity modulation (all multipliers `1.0`).
    pub const NEUTRAL: Modulation = Modulation {
        utilization: 1.0,
        ipc: 1.0,
        branch: 1.0,
        memory: 1.0,
        store: 1.0,
        miss: 1.0,
        icache: 1.0,
        dtlb: 1.0,
        itlb: 1.0,
        numa: 1.0,
    };
}

impl Default for Modulation {
    fn default() -> Self {
        Modulation::NEUTRAL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn balanced_profile_is_valid() {
        BehaviorProfile::balanced().validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range_knobs() {
        let mut p = BehaviorProfile::balanced();
        p.ipc = -1.0;
        assert!(p.validate().is_err());

        let mut p = BehaviorProfile::balanced();
        p.branch_miss_rate = 1.5;
        assert!(p.validate().is_err());

        let mut p = BehaviorProfile::balanced();
        p.branch_frac = 0.5;
        p.load_frac = 0.4;
        p.store_frac = 0.3;
        assert!(p.validate().is_err(), "instruction mix above 1.0 must fail");
    }

    #[test]
    fn sample_rates_are_finite_and_nonnegative() {
        let p = BehaviorProfile::balanced();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let r = p.sample_rates(&mut rng);
            for (i, v) in r.iter().enumerate() {
                assert!(v.is_finite() && *v >= 0.0, "event {i} produced {v}");
            }
        }
    }

    #[test]
    fn miss_counters_never_exceed_access_counters() {
        let p = BehaviorProfile {
            jitter_sigma: 0.6,
            ..BehaviorProfile::balanced()
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let r = p.sample_rates(&mut rng);
            let pairs = [
                (Event::BranchMisses, Event::BranchInstructions),
                (Event::L1DcacheLoadMisses, Event::L1DcacheLoads),
                (Event::L1DcacheStoreMisses, Event::L1DcacheStores),
                (Event::L1IcacheLoadMisses, Event::L1IcacheLoads),
                (Event::LlcLoadMisses, Event::LlcLoads),
                (Event::LlcStoreMisses, Event::LlcStores),
                (Event::DtlbLoadMisses, Event::DtlbLoads),
                (Event::DtlbStoreMisses, Event::DtlbStores),
                (Event::ItlbLoadMisses, Event::ItlbLoads),
                (Event::BranchLoadMisses, Event::BranchLoads),
                (Event::NodeLoadMisses, Event::NodeLoads),
                (Event::NodeStoreMisses, Event::NodeStores),
                (Event::CacheMisses, Event::CacheReferences),
            ];
            for (miss, access) in pairs {
                assert!(
                    r[miss.index()] <= r[access.index()] + 1e-9,
                    "{miss} exceeded {access}"
                );
            }
        }
    }

    #[test]
    fn modulation_scales_expected_knobs() {
        let p = BehaviorProfile::balanced();
        let m = Modulation {
            utilization: 0.5,
            miss: 2.0,
            ..Modulation::NEUTRAL
        };
        let q = p.modulated(&m);
        assert!((q.utilization - p.utilization * 0.5).abs() < 1e-12);
        assert!((q.llc_miss_rate - p.llc_miss_rate * 2.0).abs() < 1e-12);
        assert_eq!(q.itlb_miss_rate, p.itlb_miss_rate);
        q.validate().unwrap();
    }

    #[test]
    fn modulated_profile_stays_valid_under_extreme_modulation() {
        let p = BehaviorProfile::balanced();
        let m = Modulation {
            utilization: 100.0,
            branch: 50.0,
            memory: 50.0,
            miss: 1000.0,
            ..Modulation::NEUTRAL
        };
        p.modulated(&m).validate().unwrap();
    }

    #[test]
    fn individualized_profiles_differ_but_stay_valid() {
        let p = BehaviorProfile::balanced();
        let mut rng = StdRng::seed_from_u64(3);
        let a = p.individualized(0.3, &mut rng);
        let b = p.individualized(0.3, &mut rng);
        assert_ne!(a, b);
        a.validate().unwrap();
        b.validate().unwrap();
    }

    #[test]
    fn higher_utilization_means_more_instructions_on_average() {
        let low = BehaviorProfile {
            utilization: 0.2,
            ..BehaviorProfile::balanced()
        };
        let high = BehaviorProfile {
            utilization: 0.9,
            ..BehaviorProfile::balanced()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mean = |p: &BehaviorProfile, rng: &mut StdRng| -> f64 {
            (0..100)
                .map(|_| p.sample_rates(rng)[Event::Instructions.index()])
                .sum::<f64>()
                / 100.0
        };
        assert!(mean(&high, &mut rng) > 2.0 * mean(&low, &mut rng));
    }
}
