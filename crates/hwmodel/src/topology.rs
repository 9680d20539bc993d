//! Extracting hardware-relevant topology from fitted classifiers.
//!
//! Hardware cost depends on the *fitted* model, not the algorithm: a
//! 3-level tree costs a 3-comparator pipeline regardless of how it was
//! trained. [`ModelTopology`] is the neutral structural description;
//! [`extract_topology`] obtains it from any fitted [`Classifier`] in this
//! workspace by downcasting.
//!
//! # Examples
//!
//! ```
//! use hmd_hwmodel::topology::{extract_topology, ModelTopology};
//! use hmd_ml::prelude::*;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut tree = J48::new();
//! tree.fit(&data)?;
//! let topo = extract_topology(&tree).unwrap();
//! assert!(matches!(topo, ModelTopology::Tree { .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use hmd_ml::boost::AdaBoost;
use hmd_ml::classifier::Classifier;
use hmd_ml::logistic::Mlr;
use hmd_ml::mlp::Mlp;
use hmd_ml::oner::OneR;
use hmd_ml::rules::JRip;
use hmd_ml::tree::J48;
use serde::{Deserialize, Serialize};

/// Structural description of a fitted model, sufficient for cost analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelTopology {
    /// Binary decision tree (J48).
    Tree {
        /// Total nodes (splits + leaves).
        nodes: usize,
        /// Leaves.
        leaves: usize,
        /// Longest root-to-leaf path (comparator pipeline depth).
        depth: usize,
    },
    /// Ordered rule list (JRip).
    Rules {
        /// Number of rules (excluding the default).
        rules: usize,
        /// Total threshold conditions.
        conditions: usize,
        /// Longest single-rule antecedent.
        max_conditions: usize,
    },
    /// Single-attribute bucket lookup (OneR).
    Buckets {
        /// Threshold comparators (buckets − 1).
        thresholds: usize,
    },
    /// Feed-forward neural network (MLP).
    Neural {
        /// Per layer: `(inputs, outputs)` — MACs per layer = in × out.
        layers: Vec<(usize, usize)>,
    },
    /// Linear softmax model (MLR).
    Linear {
        /// Input features.
        inputs: usize,
        /// Output classes.
        outputs: usize,
    },
    /// Weighted-vote ensemble (AdaBoost).
    Ensemble {
        /// Topologies of the fitted base models, in boosting order.
        bases: Vec<ModelTopology>,
    },
}

impl ModelTopology {
    /// Number of multiply-accumulate operations a full evaluation needs
    /// (0 for comparator-only models).
    pub fn mac_count(&self) -> usize {
        match self {
            ModelTopology::Neural { layers } => layers.iter().map(|(i, o)| i * o).sum(),
            ModelTopology::Linear { inputs, outputs } => inputs * outputs,
            ModelTopology::Ensemble { bases } => bases.iter().map(Self::mac_count).sum(),
            _ => 0,
        }
    }

    /// Number of threshold comparators the model evaluates.
    pub fn comparator_count(&self) -> usize {
        match self {
            ModelTopology::Tree { nodes, leaves, .. } => nodes - leaves,
            ModelTopology::Rules { conditions, .. } => *conditions,
            ModelTopology::Buckets { thresholds } => *thresholds,
            ModelTopology::Ensemble { bases } => bases.iter().map(Self::comparator_count).sum(),
            _ => 0,
        }
    }

    /// Stored parameters (weights/thresholds) — the per-model state an
    /// ensemble engine must hold.
    pub fn parameter_count(&self) -> usize {
        match self {
            ModelTopology::Tree { nodes, .. } => *nodes,
            ModelTopology::Rules {
                conditions, rules, ..
            } => conditions + rules,
            ModelTopology::Buckets { thresholds } => thresholds + 1,
            ModelTopology::Neural { layers } => layers.iter().map(|(i, o)| (i + 1) * o).sum(),
            ModelTopology::Linear { inputs, outputs } => (inputs + 1) * outputs,
            ModelTopology::Ensemble { bases } => {
                bases.iter().map(Self::parameter_count).sum::<usize>() + bases.len()
            }
        }
    }
}

/// Extracts the topology of any fitted classifier from this workspace.
///
/// Returns `None` for unfitted models or classifier types the cost model
/// does not know.
pub fn extract_topology(model: &dyn Classifier) -> Option<ModelTopology> {
    let any = model.as_any();
    if let Some(tree) = any.downcast_ref::<J48>() {
        let nodes = tree.node_count();
        if nodes == 0 {
            return None;
        }
        return Some(ModelTopology::Tree {
            nodes,
            leaves: tree.leaf_count(),
            depth: tree.depth(),
        });
    }
    if let Some(rules) = any.downcast_ref::<JRip>() {
        return Some(ModelTopology::Rules {
            rules: rules.rule_count()?,
            conditions: rules.condition_count()?,
            max_conditions: rules.max_rule_conditions()?,
        });
    }
    if let Some(oner) = any.downcast_ref::<OneR>() {
        return Some(ModelTopology::Buckets {
            thresholds: oner.n_buckets()?.saturating_sub(1),
        });
    }
    if let Some(mlp) = any.downcast_ref::<Mlp>() {
        let (inputs, hidden, outputs) = mlp.topology()?;
        return Some(ModelTopology::Neural {
            layers: vec![(inputs, hidden), (hidden, outputs)],
        });
    }
    if let Some(mlr) = any.downcast_ref::<Mlr>() {
        let (inputs, outputs) = mlr.shape()?;
        return Some(ModelTopology::Linear { inputs, outputs });
    }
    if let Some(ens) = any.downcast_ref::<AdaBoost>() {
        let bases: Option<Vec<ModelTopology>> = ens
            .base_models()
            .into_iter()
            .map(extract_topology)
            .collect();
        return Some(ModelTopology::Ensemble { bases: bases? });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_ml::classifier::ClassifierKind;
    use hmd_ml::data::Dataset;

    fn band() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let x = i as f64 / 60.0;
            features.push(vec![x, (i % 5) as f64]);
            labels.push(usize::from((0.35..0.65).contains(&x)));
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn extracts_every_kind() {
        let data = band();
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(0);
            model.fit(&data).unwrap();
            let topo =
                extract_topology(model.as_ref()).unwrap_or_else(|| panic!("{kind} topology"));
            match (kind, &topo) {
                (ClassifierKind::J48, ModelTopology::Tree { .. })
                | (ClassifierKind::JRip, ModelTopology::Rules { .. })
                | (ClassifierKind::OneR, ModelTopology::Buckets { .. })
                | (ClassifierKind::Mlp, ModelTopology::Neural { .. }) => {}
                other => panic!("unexpected topology {other:?}"),
            }
        }
    }

    #[test]
    fn extracts_ensemble_with_bases() {
        let data = band();
        let mut ens = AdaBoost::new(ClassifierKind::J48, 5, 0);
        ens.fit(&data).unwrap();
        let topo = extract_topology(&ens).unwrap();
        let ModelTopology::Ensemble { bases } = &topo else {
            panic!("expected ensemble");
        };
        assert_eq!(bases.len(), ens.ensemble_size());
        assert!(bases
            .iter()
            .all(|b| matches!(b, ModelTopology::Tree { .. })));
    }

    #[test]
    fn extracts_linear_from_mlr() {
        let data = band();
        let mut mlr = Mlr::new();
        mlr.fit(&data).unwrap();
        assert_eq!(
            extract_topology(&mlr),
            Some(ModelTopology::Linear {
                inputs: 2,
                outputs: 2
            })
        );
    }

    #[test]
    fn unfitted_models_yield_none() {
        assert_eq!(extract_topology(&J48::new()), None);
        assert_eq!(extract_topology(&Mlr::new()), None);
    }

    #[test]
    fn mac_count_neural() {
        let t = ModelTopology::Neural {
            layers: vec![(4, 3), (3, 2)],
        };
        assert_eq!(t.mac_count(), 18);
        assert_eq!(t.comparator_count(), 0);
        assert_eq!(t.parameter_count(), 5 * 3 + 4 * 2);
    }

    #[test]
    fn comparator_count_tree() {
        let t = ModelTopology::Tree {
            nodes: 7,
            leaves: 4,
            depth: 3,
        };
        assert_eq!(t.comparator_count(), 3);
        assert_eq!(t.parameter_count(), 7);
    }

    #[test]
    fn ensemble_counts_aggregate() {
        let base = ModelTopology::Buckets { thresholds: 2 };
        let ens = ModelTopology::Ensemble {
            bases: vec![base.clone(), base],
        };
        assert_eq!(ens.comparator_count(), 4);
        assert_eq!(ens.parameter_count(), 3 + 3 + 2);
    }
}
