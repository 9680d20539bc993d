//! Cost reports: per-component breakdowns and clock scaling.
//!
//! Table V gives one latency/area number per detector; a designer choosing
//! between configurations also wants to know *where* the cost sits
//! (comparators vs MACs vs storage) and what happens at a different clock.
//! [`CostBreakdown`] itemizes a topology's resources; [`wall_clock_ns`]
//! converts cycle counts at any frequency.
//!
//! # Examples
//!
//! ```
//! use hmd_hwmodel::report::{CostBreakdown, wall_clock_ns};
//! use hmd_hwmodel::cost::CostModel;
//! use hmd_hwmodel::topology::ModelTopology;
//!
//! let topo = ModelTopology::Neural { layers: vec![(4, 3), (3, 2)] };
//! let b = CostBreakdown::of(&CostModel::default(), &topo);
//! assert!(b.arithmetic_luts > b.control_luts);
//! assert_eq!(wall_clock_ns(100, 100.0), 1000.0); // 100 cycles @ 100 MHz
//! ```

use crate::cost::CostModel;
use crate::topology::ModelTopology;
use serde::{Deserialize, Serialize};

/// Itemized LUT usage of one implemented model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// LUTs in comparators and MAC datapaths.
    pub arithmetic_luts: u64,
    /// LUTs in activation tables.
    pub activation_luts: u64,
    /// LUTs in ensemble parameter storage and vote logic.
    pub storage_luts: u64,
    /// Fixed control/interface LUTs.
    pub control_luts: u64,
}

impl CostBreakdown {
    /// Itemizes the resources of `topo` under `cost`.
    pub fn of(cost: &CostModel, topo: &ModelTopology) -> CostBreakdown {
        match topo {
            ModelTopology::Tree { .. }
            | ModelTopology::Rules { .. }
            | ModelTopology::Buckets { .. } => CostBreakdown {
                arithmetic_luts: topo.comparator_count() as u64 * cost.comparator_luts,
                activation_luts: 0,
                storage_luts: 0,
                control_luts: cost.fixed_luts,
            },
            ModelTopology::Neural { layers } => {
                let neurons: u64 = layers.iter().map(|(_, o)| *o as u64).sum();
                CostBreakdown {
                    arithmetic_luts: topo.mac_count() as u64 * cost.mac_luts,
                    activation_luts: neurons * cost.activation_luts,
                    storage_luts: 0,
                    control_luts: cost.fixed_luts,
                }
            }
            ModelTopology::Linear { .. } => CostBreakdown {
                arithmetic_luts: topo.mac_count() as u64 * cost.mac_luts,
                activation_luts: 0,
                storage_luts: 0,
                control_luts: cost.fixed_luts,
            },
            ModelTopology::Ensemble { bases } => {
                // Shared engine = widest base; everything else is storage.
                let widest = bases
                    .iter()
                    .map(|b| CostBreakdown::of(cost, b))
                    .max_by_key(|b| b.arithmetic_luts + b.activation_luts)
                    .unwrap_or(CostBreakdown {
                        arithmetic_luts: 0,
                        activation_luts: 0,
                        storage_luts: 0,
                        control_luts: cost.fixed_luts,
                    });
                let params: u64 = bases
                    .iter()
                    .map(|b| b.parameter_count() as u64 * cost.param_storage_luts)
                    .sum();
                CostBreakdown {
                    arithmetic_luts: widest.arithmetic_luts,
                    activation_luts: widest.activation_luts,
                    storage_luts: params + 120,
                    control_luts: widest.control_luts,
                }
            }
        }
    }

    /// Total LUTs across all categories.
    pub fn total_luts(&self) -> u64 {
        self.arithmetic_luts + self.activation_luts + self.storage_luts + self.control_luts
    }

    /// The dominant category as a human-readable label.
    pub fn dominant(&self) -> &'static str {
        let items = [
            (self.arithmetic_luts, "arithmetic"),
            (self.activation_luts, "activation"),
            (self.storage_luts, "storage"),
            (self.control_luts, "control"),
        ];
        items
            .iter()
            .max_by_key(|(v, _)| *v)
            .map(|(_, n)| *n)
            .expect("non-empty categories")
    }
}

/// Wall-clock evaluation time in nanoseconds for `cycles` at `clock_mhz`.
///
/// # Panics
///
/// Panics if `clock_mhz` is not positive.
pub fn wall_clock_ns(cycles: u64, clock_mhz: f64) -> f64 {
    assert!(clock_mhz > 0.0, "clock must be positive");
    cycles as f64 * 1000.0 / clock_mhz
}

/// Detections per second a single engine sustains at `clock_mhz`.
///
/// # Panics
///
/// Panics if `cycles` is 0 or `clock_mhz` is not positive.
pub fn throughput_per_second(cycles: u64, clock_mhz: f64) -> f64 {
    assert!(cycles > 0, "evaluation takes at least one cycle");
    assert!(clock_mhz > 0.0, "clock must be positive");
    clock_mhz * 1e6 / cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp() -> ModelTopology {
        ModelTopology::Neural {
            layers: vec![(8, 5), (5, 2)],
        }
    }

    #[test]
    fn neural_breakdown_is_arithmetic_dominated() {
        let b = CostBreakdown::of(&CostModel::default(), &mlp());
        assert_eq!(b.dominant(), "arithmetic");
        assert!(b.activation_luts > 0);
        assert_eq!(b.storage_luts, 0);
    }

    #[test]
    fn ensemble_breakdown_moves_cost_to_storage() {
        let base = ModelTopology::Tree {
            nodes: 7,
            leaves: 4,
            depth: 3,
        };
        let ens = ModelTopology::Ensemble {
            bases: vec![base; 10],
        };
        let b = CostBreakdown::of(&CostModel::default(), &ens);
        assert!(b.storage_luts > 0);
        assert_eq!(b.dominant(), "storage");
    }

    #[test]
    fn breakdown_total_close_to_cost_model_luts() {
        // The breakdown mirrors the cost model's LUT accounting up to the
        // small per-leaf/per-rule extras.
        let cost = CostModel::default();
        let topo = mlp();
        let full = cost.resources(&topo).luts();
        let itemized = CostBreakdown::of(&cost, &topo).total_luts();
        let diff = full.abs_diff(itemized);
        assert!(
            (diff as f64) < 0.1 * full as f64,
            "itemized {itemized} vs full {full}"
        );
    }

    #[test]
    fn wall_clock_and_throughput() {
        assert_eq!(wall_clock_ns(302, 100.0), 3020.0);
        assert!((throughput_per_second(302, 100.0) - 331_125.8).abs() < 1.0);
        // Faster clock, faster decision.
        assert!(wall_clock_ns(302, 200.0) < wall_clock_ns(302, 100.0));
    }

    #[test]
    #[should_panic(expected = "clock must be positive")]
    fn zero_clock_panics() {
        wall_clock_ns(1, 0.0);
    }
}
