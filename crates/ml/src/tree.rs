//! J48: the C4.5 decision-tree learner (Quinlan, 1993; WEKA's `J48`).
//!
//! Binary splits on numeric attributes chosen by **gain ratio**, stopped at
//! a minimum leaf size, then simplified bottom-up by C4.5's
//! **pessimistic-error pruning** with the standard confidence factor 0.25.
//! The fitted tree exposes its node count and depth, which the
//! [`hwmodel`](../../hmd_hwmodel/index.html) crate turns into comparator-tree
//! FPGA cost (Table V).
//!
//! # Examples
//!
//! ```
//! use hmd_ml::tree::J48;
//! use hmd_ml::classifier::Classifier;
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.2], vec![0.9], vec![1.0]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut tree = J48::new();
//! tree.fit(&data)?;
//! assert_eq!(tree.predict(&[0.1]), 0);
//! assert!(tree.depth() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::classifier::{Classifier, TrainError};
use crate::data::{Dataset, SortedColumns};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A node of the fitted tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        class_counts: Vec<f64>,
    },
    Split {
        attribute: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn count_nodes(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.count_nodes() + right.count_nodes(),
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn max_attribute(&self) -> Option<usize> {
        match self {
            Node::Leaf { .. } => None,
            Node::Split {
                attribute,
                left,
                right,
                ..
            } => Some(*attribute)
                .max(left.max_attribute())
                .max(right.max_attribute()),
        }
    }

    fn leaf_counts(&self) -> Vec<f64> {
        let mut totals = Vec::new();
        self.accumulate_leaf_counts(&mut totals);
        totals
    }

    /// Folds every leaf's counts into one accumulator. Counts are integers
    /// stored in `f64`, so the left-to-right accumulation is exact and the
    /// result does not depend on summation order.
    fn accumulate_leaf_counts(&self, totals: &mut Vec<f64>) {
        match self {
            Node::Leaf { class_counts } => {
                if totals.is_empty() {
                    totals.extend_from_slice(class_counts);
                } else {
                    for (t, c) in totals.iter_mut().zip(class_counts) {
                        *t += c;
                    }
                }
            }
            Node::Split { left, right, .. } => {
                left.accumulate_leaf_counts(totals);
                right.accumulate_leaf_counts(totals);
            }
        }
    }
}

/// Sentinel attribute index marking a [`CompiledNode`] as a leaf.
const COMPILED_LEAF: u32 = u32::MAX;

/// One flattened tree node. For splits, `left`/`right` index sibling
/// entries in the node array; for leaves (`attribute == COMPILED_LEAF`),
/// `left` is the row offset into the probability table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompiledNode {
    attribute: u32,
    threshold: f64,
    left: u32,
    right: u32,
}

/// A fitted J48 tree flattened for the inference hot path: index-linked
/// nodes in one contiguous array plus a contiguous table of precomputed
/// Laplace-smoothed leaf probabilities. Classification is an iterative
/// array walk ending in a row copy — no `Box` chasing, no recursion, no
/// allocation.
///
/// The compiled form is a cache derived from the boxed [`J48`] tree: it is
/// never serialized or compared, and its probabilities are bit-identical
/// to what the boxed walk computes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTree {
    nodes: Vec<CompiledNode>,
    probs: Vec<f64>,
    n_classes: usize,
    depth: usize,
}

impl CompiledTree {
    fn compile(root: &Node, n_classes: usize) -> CompiledTree {
        let mut tree = CompiledTree {
            nodes: Vec::new(),
            probs: Vec::new(),
            n_classes,
            depth: root.depth(),
        };
        tree.push_node(root);
        tree
    }

    fn push_node(&mut self, node: &Node) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("tree exceeds u32 nodes");
        match node {
            Node::Leaf { class_counts } => {
                let offset = u32::try_from(self.probs.len()).expect("probs exceed u32");
                // Same Laplace expression, in the same order, as the boxed
                // `predict_proba` historically computed per call — the
                // precomputed rows are bit-identical.
                let total: f64 = class_counts.iter().sum();
                self.probs.extend(
                    class_counts
                        .iter()
                        .map(|&c| (c + 1.0) / (total + self.n_classes as f64)),
                );
                self.nodes.push(CompiledNode {
                    attribute: COMPILED_LEAF,
                    threshold: 0.0,
                    left: offset,
                    right: 0,
                });
            }
            Node::Split {
                attribute,
                threshold,
                left,
                right,
            } => {
                self.nodes.push(CompiledNode {
                    attribute: u32::try_from(*attribute).expect("attribute exceeds u32"),
                    threshold: *threshold,
                    left: 0,
                    right: 0,
                });
                let l = self.push_node(left);
                let r = self.push_node(right);
                self.nodes[id as usize].left = l;
                self.nodes[id as usize].right = r;
            }
        }
        id
    }

    /// Total node count — matches the boxed tree's
    /// [`J48::node_count`], so `hwmodel` cost estimates are unaffected by
    /// compilation.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth — matches the boxed tree's [`J48::depth`].
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of classes per probability row.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Writes the Laplace-smoothed class probabilities for `x` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n_classes` or `x` lacks a split attribute.
    // hmd-analyze: hot-path
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            if node.attribute == COMPILED_LEAF {
                let offset = node.left as usize;
                out.copy_from_slice(&self.probs[offset..offset + self.n_classes]);
                return;
            }
            i = if x[node.attribute as usize] <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }
}

/// The J48 / C4.5 decision tree.
///
/// The boxed `root` is the canonical (serialized, compared) form; a
/// [`CompiledTree`] cache derived from it serves `predict_proba_into`.
/// `Serialize`/`Deserialize`/`PartialEq` are implemented manually so the
/// cache stays invisible: the JSON shape is exactly what the field derive
/// produced before the cache existed.
#[derive(Debug, Clone)]
pub struct J48 {
    min_leaf: usize,
    confidence: f64,
    prune: bool,
    root: Option<Node>,
    n_classes: usize,
    compiled: OnceLock<CompiledTree>,
}

impl PartialEq for J48 {
    fn eq(&self, other: &J48) -> bool {
        // The compiled cache is derived state: excluded on purpose.
        self.min_leaf == other.min_leaf
            && self.confidence == other.confidence
            && self.prune == other.prune
            && self.root == other.root
            && self.n_classes == other.n_classes
    }
}

impl Serialize for J48 {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("min_leaf".to_string(), self.min_leaf.serialize_value()),
            ("confidence".to_string(), self.confidence.serialize_value()),
            ("prune".to_string(), self.prune.serialize_value()),
            ("root".to_string(), self.root.serialize_value()),
            ("n_classes".to_string(), self.n_classes.serialize_value()),
        ])
    }
}

impl Deserialize for J48 {
    fn deserialize_value(v: &serde::Value) -> Result<J48, serde::Error> {
        fn field<'a>(v: &'a serde::Value, name: &str) -> Result<&'a serde::Value, serde::Error> {
            v.get(name)
                .ok_or_else(|| serde::Error::missing_field("J48", name))
        }
        if v.as_object().is_none() {
            return Err(serde::Error::invalid_type("object", v));
        }
        Ok(J48 {
            min_leaf: Deserialize::deserialize_value(field(v, "min_leaf")?)?,
            confidence: Deserialize::deserialize_value(field(v, "confidence")?)?,
            prune: Deserialize::deserialize_value(field(v, "prune")?)?,
            root: Deserialize::deserialize_value(field(v, "root")?)?,
            n_classes: Deserialize::deserialize_value(field(v, "n_classes")?)?,
            compiled: OnceLock::new(),
        })
    }
}

impl J48 {
    /// WEKA's default minimum instances per leaf (`-M 2`).
    pub const DEFAULT_MIN_LEAF: usize = 2;
    /// WEKA's default pruning confidence factor (`-C 0.25`).
    pub const DEFAULT_CONFIDENCE: f64 = 0.25;

    /// A new unfitted tree with WEKA-default hyperparameters.
    pub fn new() -> J48 {
        J48 {
            min_leaf: Self::DEFAULT_MIN_LEAF,
            confidence: Self::DEFAULT_CONFIDENCE,
            prune: true,
            root: None,
            n_classes: 0,
            compiled: OnceLock::new(),
        }
    }

    /// The flattened inference form of the fitted tree, compiled on first
    /// use (e.g. after deserialization) and cached.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn compiled_tree(&self) -> &CompiledTree {
        self.compiled.get_or_init(|| {
            CompiledTree::compile(self.root.as_ref().expect("J48 not fitted"), self.n_classes)
        })
    }

    /// Sets the minimum number of instances per leaf.
    ///
    /// # Panics
    ///
    /// Panics if `min_leaf == 0`.
    pub fn with_min_leaf(mut self, min_leaf: usize) -> J48 {
        assert!(min_leaf > 0, "min_leaf must be positive");
        self.min_leaf = min_leaf;
        self
    }

    /// Enables or disables pessimistic-error pruning (WEKA's `-U` when
    /// disabled).
    pub fn with_pruning(mut self, prune: bool) -> J48 {
        self.prune = prune;
        self
    }

    /// Total node count of the fitted tree (0 if unfitted).
    pub fn node_count(&self) -> usize {
        self.root.as_ref().map_or(0, Node::count_nodes)
    }

    /// Number of leaves of the fitted tree (0 if unfitted).
    pub fn leaf_count(&self) -> usize {
        self.node_count().div_ceil(2)
    }

    /// Depth of the fitted tree (0 if unfitted; a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        self.root.as_ref().map_or(0, Node::depth)
    }

    /// The highest attribute index a split of the fitted tree tests
    /// (`None` if unfitted or a lone leaf): a row needs more features than
    /// this to be scored.
    pub fn max_attribute(&self) -> Option<usize> {
        self.root.as_ref().and_then(Node::max_attribute)
    }

    /// Renders the fitted tree as indented text, WEKA-style, using
    /// `feature_names` for attributes (falls back to `f<i>` when a name is
    /// missing).
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn to_text(&self, feature_names: &[&str]) -> String {
        let root = self.root.as_ref().expect("J48 not fitted");
        let mut out = String::new();
        fn name(names: &[&str], attr: usize) -> String {
            names
                .get(attr)
                .map_or_else(|| format!("f{attr}"), |n| (*n).to_string())
        }
        fn render(node: &Node, names: &[&str], indent: usize, out: &mut String) {
            let pad = "|   ".repeat(indent);
            match node {
                Node::Leaf { class_counts } => {
                    let total: f64 = class_counts.iter().sum();
                    let best = class_counts
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    out.push_str(&format!("{pad}=> class {best} ({total:.0})\n"));
                }
                Node::Split {
                    attribute,
                    threshold,
                    left,
                    right,
                } => {
                    out.push_str(&format!(
                        "{pad}{} <= {threshold:.6}\n",
                        name(names, *attribute)
                    ));
                    render(left, names, indent + 1, out);
                    out.push_str(&format!(
                        "{pad}{} > {threshold:.6}\n",
                        name(names, *attribute)
                    ));
                    render(right, names, indent + 1, out);
                }
            }
        }
        render(root, feature_names, 0, &mut out);
        out
    }

    /// Trains against a shared [`SortedColumns`] cache instead of sorting
    /// per node — the presorted training engine's entry point.
    ///
    /// Produces a model **bit-identical** to the per-node-sort grower it
    /// replaced (`fit_reference` in the tests) on the equivalent
    /// materialized dataset (see `DESIGN.md` §5b for the argument):
    /// candidate thresholds exist only between distinct adjacent values,
    /// class counts are small integers (exact in `f64` regardless of
    /// accumulation order), and every entropy/gain/tie-break evaluation
    /// uses the same formulas in the same order as the per-node sort.
    ///
    /// * `mult` — optional per-row multiplicity over `data`'s rows; row `i`
    ///   participates as if repeated `mult[i]` times. `None` means every
    ///   row once. This is how Bagging/AdaBoost express bootstraps without
    ///   materializing resampled copies.
    /// * `attrs` — optional column subset, in view order: local attribute
    ///   `a` of the fitted model reads `data` column `attrs[a]`, exactly as
    ///   a model fitted on `data.select_features(attrs)` would. `None`
    ///   means all columns in natural order.
    ///
    /// # Errors
    ///
    /// [`TrainError::TooFewInstances`] if total multiplicity is below 2.
    ///
    /// # Panics
    ///
    /// Panics if `cols` does not cover `data` (row count mismatch, or an
    /// attribute out of range), if `mult` has the wrong length, or if
    /// `attrs` is empty.
    pub fn fit_presorted(
        &mut self,
        data: &Dataset,
        cols: &SortedColumns,
        mult: Option<&[u32]>,
        attrs: Option<&[usize]>,
    ) -> Result<(), TrainError> {
        assert_eq!(
            cols.n_rows(),
            data.len(),
            "SortedColumns row count must match dataset"
        );
        let all_attrs: Vec<usize>;
        let attrs: &[usize] = match attrs {
            Some(a) => a,
            None => {
                assert_eq!(
                    cols.n_columns(),
                    data.n_features(),
                    "full-width fit needs a full-width cache"
                );
                all_attrs = (0..data.n_features()).collect();
                &all_attrs
            }
        };
        assert!(!attrs.is_empty(), "need at least one attribute");
        assert!(
            attrs.iter().all(|&c| c < cols.n_columns()),
            "attribute out of cache range"
        );
        let ones: Vec<u32>;
        let mult: &[u32] = match mult {
            Some(m) => {
                assert_eq!(m.len(), data.len(), "one multiplicity per row");
                m
            }
            None => {
                ones = vec![1; data.len()];
                &ones
            }
        };
        let total: usize = mult.iter().map(|&m| m as usize).sum();
        if total < 2 {
            return Err(TrainError::TooFewInstances {
                needed: 2,
                got: total,
            });
        }
        // Per-attribute working orders: the cache's presorted row order
        // filtered to rows with multiplicity > 0. Still ascending-value and
        // source-stable; partitioning keeps both invariants down the
        // recursion. Values are read through the cache's contiguous
        // column-major copies (one L1-friendly index per lookup).
        let orders: Vec<Vec<u32>> = attrs
            .iter()
            .map(|&c| {
                cols.order(c)
                    .iter()
                    .filter(|&&r| mult[r as usize] > 0)
                    .copied()
                    .collect()
            })
            .collect();
        let columns: Vec<&[f64]> = attrs.iter().map(|&c| cols.column(c)).collect();
        let n_classes = data.n_classes();
        let active = orders[0].len();
        let mut grower = PresortGrower {
            data,
            mult,
            min_leaf: self.min_leaf,
            orders,
            columns,
            side_left: vec![false; data.len()],
            tmp: Vec::with_capacity(active),
            left_counts: vec![0.0; n_classes],
            right_counts: vec![0.0; n_classes],
        };
        let mut root = grower.build_range(0, active, n_classes);
        if self.prune {
            root = self.prune_node(root).0;
        }
        self.root = Some(root);
        self.n_classes = n_classes;
        self.compiled = OnceLock::new();
        self.compiled_tree();
        Ok(())
    }

    /// Bottom-up subtree replacement using C4.5's pessimistic error
    /// estimate. Returns the (possibly replaced) node and its estimated
    /// error count.
    fn prune_node(&self, node: Node) -> (Node, f64) {
        match node {
            leaf @ Node::Leaf { .. } => {
                let est = self.leaf_estimated_errors(&leaf);
                (leaf, est)
            }
            Node::Split {
                attribute,
                threshold,
                left,
                right,
            } => {
                let (left, left_err) = self.prune_node(*left);
                let (right, right_err) = self.prune_node(*right);
                let subtree_err = left_err + right_err;
                let rebuilt = Node::Split {
                    attribute,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                };
                let collapsed = Node::Leaf {
                    class_counts: rebuilt.leaf_counts(),
                };
                let leaf_err = self.leaf_estimated_errors(&collapsed);
                if leaf_err <= subtree_err + 0.1 {
                    (collapsed, leaf_err)
                } else {
                    (rebuilt, subtree_err)
                }
            }
        }
    }

    fn leaf_estimated_errors(&self, leaf: &Node) -> f64 {
        let Node::Leaf { class_counts } = leaf else {
            unreachable!("leaf_estimated_errors called on a split")
        };
        let n: f64 = class_counts.iter().sum();
        if n == 0.0 {
            return 0.0;
        }
        let errors = n - class_counts.iter().cloned().fold(0.0, f64::max);
        n * pessimistic_error_rate(errors, n, self.confidence)
    }
}

/// Recursive state of one presorted fit: per-attribute row orders plus the
/// scratch buffers the whole recursion reuses (mark array, partition spill,
/// class-count accumulators) — no per-node sorting or scan allocation.
///
/// Invariant: at every node `[lo, hi)`, each `orders[a][lo..hi]` holds
/// exactly the node's active rows, ascending by the value of attribute `a`,
/// source-stable on ties. Stable partitioning preserves both properties for
/// the children, which occupy `[lo, lo+n_left)` and `[lo+n_left, hi)` of
/// every order array.
struct PresortGrower<'a> {
    data: &'a Dataset,
    /// Per-source-row multiplicity (how many times a row participates).
    mult: &'a [u32],
    min_leaf: usize,
    /// One working order array per local attribute, active rows only.
    orders: Vec<Vec<u32>>,
    /// `columns[a][r]` = attribute `a`'s value at source row `r`
    /// (contiguous slices borrowed from the shared cache).
    columns: Vec<&'a [f64]>,
    /// Per-source-row split side, rewritten at each partition.
    side_left: Vec<bool>,
    /// Spill buffer for the right half of a stable partition.
    tmp: Vec<u32>,
    left_counts: Vec<f64>,
    right_counts: Vec<f64>,
}

impl PresortGrower<'_> {
    /// Grows the subtree over rows `[lo, hi)` of every order array.
    /// Mirrors the per-node-sort grower (`build_reference` in the tests)
    /// decision for decision.
    fn build_range(&mut self, lo: usize, hi: usize, n_classes: usize) -> Node {
        let mut counts = vec![0.0; n_classes];
        let mut n: usize = 0;
        for &r in &self.orders[0][lo..hi] {
            let m = self.mult[r as usize];
            counts[self.data.label_of(r as usize)] += m as f64;
            n += m as usize;
        }
        if is_pure(&counts) || n < 2 * self.min_leaf {
            return Node::Leaf {
                class_counts: counts,
            };
        }
        let parent_entropy = entropy(&counts);
        let mut best: Option<(f64, usize, f64)> = None; // (gain_ratio, attr, threshold)
        for a in 0..self.orders.len() {
            if let Some((gain, ratio, threshold)) = self.scan_split(a, lo, hi, parent_entropy, n) {
                // C4.5 requires positive information gain.
                if gain <= 1e-12 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((best_ratio, _, _)) => ratio > best_ratio,
                };
                if better {
                    best = Some((ratio, a, threshold));
                }
            }
        }
        let Some((_, attribute, threshold)) = best else {
            return Node::Leaf {
                class_counts: counts,
            };
        };
        let n_left = self.partition(lo, hi, attribute, threshold);
        if n_left == 0 || n_left == hi - lo {
            return Node::Leaf {
                class_counts: counts,
            };
        }
        Node::Split {
            attribute,
            threshold,
            left: Box::new(self.build_range(lo, lo + n_left, n_classes)),
            right: Box::new(self.build_range(lo + n_left, hi, n_classes)),
        }
    }

    /// Best `(gain, gain_ratio, threshold)` for one attribute over rows
    /// `[lo, hi)` — a single left-to-right pass over the presorted order
    /// with incremental class counts. Mirrors `best_split_reference` in the
    /// tests: candidates exist only between distinct adjacent values, where
    /// the integer class counts (and hence every entropy, gain and ratio)
    /// are exactly those a per-node sorted scan computes.
    // hmd-analyze: hot-path
    fn scan_split(
        &mut self,
        a: usize,
        lo: usize,
        hi: usize,
        parent_entropy: f64,
        total: usize,
    ) -> Option<(f64, f64, f64)> {
        let order = &self.orders[a][lo..hi];
        let col = self.columns[a];
        // Constant attribute on this node: no candidate boundary exists
        // (the order is value-sorted, so first and last bound the range;
        // a sorted scan skips every equal-value pair the same way).
        if col[order[0] as usize] == col[order[order.len() - 1] as usize] {
            return None;
        }
        let data = self.data;
        let mult = self.mult;
        let left_counts = &mut self.left_counts;
        let right_counts = &mut self.right_counts;
        left_counts.fill(0.0);
        right_counts.fill(0.0);
        for &r in order {
            right_counts[data.label_of(r as usize)] += mult[r as usize] as f64;
        }
        let n = total as f64;
        let mut cum_left: usize = 0;
        let mut best: Option<(f64, f64, f64)> = None;
        for p in 0..order.len() - 1 {
            let r = order[p] as usize;
            let v = col[r];
            let l = data.label_of(r);
            let m = mult[r];
            left_counts[l] += m as f64;
            right_counts[l] -= m as f64;
            cum_left += m as usize;
            let next_v = col[order[p + 1] as usize];
            if next_v == v {
                continue; // cannot split between equal values
            }
            let n_left = cum_left as f64;
            let n_right = n - n_left;
            if (n_left as usize) < self.min_leaf || (n_right as usize) < self.min_leaf {
                continue;
            }
            let child_entropy =
                (n_left / n) * entropy(left_counts) + (n_right / n) * entropy(right_counts);
            let gain = parent_entropy - child_entropy;
            let split_info = {
                let pl = n_left / n;
                let pr = n_right / n;
                -(pl * pl.log2() + pr * pr.log2())
            };
            if split_info <= 1e-12 {
                continue;
            }
            let ratio = gain / split_info;
            let threshold = (v + next_v) / 2.0;
            let better = match best {
                None => true,
                Some((_, best_ratio, _)) => ratio > best_ratio,
            };
            if better {
                best = Some((gain, ratio, threshold));
            }
        }
        best
    }

    /// Stable in-place mark-and-sweep partition of `[lo, hi)` in **every**
    /// order array by `value(row, attribute) <= threshold`. Returns the
    /// left-side row count. Left rows are compacted in place; right rows
    /// spill through `tmp` and are copied back — both sides keep their
    /// relative order, so every child range stays value-sorted and
    /// source-stable.
    fn partition(&mut self, lo: usize, hi: usize, attribute: usize, threshold: f64) -> usize {
        let PresortGrower {
            orders,
            columns,
            side_left,
            tmp,
            ..
        } = self;
        // Mark each row's side off the splitting attribute's column — the
        // same `value <= threshold` predicate a per-node-sort partition
        // evaluates per row.
        let col = columns[attribute];
        for &r in &orders[attribute][lo..hi] {
            let r = r as usize;
            side_left[r] = col[r] <= threshold;
        }
        let mut n_left = 0;
        for order in orders.iter_mut() {
            tmp.clear();
            let mut w = lo;
            for p in lo..hi {
                let r = order[p];
                if side_left[r as usize] {
                    order[w] = r;
                    w += 1;
                } else {
                    tmp.push(r);
                }
            }
            order[w..hi].copy_from_slice(tmp);
            n_left = w - lo;
        }
        n_left
    }
}

/// C4.5's upper confidence limit on the error rate of a leaf that makes
/// `e` errors out of `n` instances, at confidence factor `cf` (normal
/// approximation to the binomial upper limit).
pub fn pessimistic_error_rate(e: f64, n: f64, cf: f64) -> f64 {
    assert!(n > 0.0, "leaf must cover instances");
    let z = normal_upper_quantile(cf);
    let f = e / n;
    let z2 = z * z;
    let numer = f + z2 / (2.0 * n) + z * (f / n - f * f / n + z2 / (4.0 * n * n)).sqrt();
    (numer / (1.0 + z2 / n)).min(1.0)
}

/// Upper quantile z with `P(Z > z) = p` for the standard normal
/// (Acklam/Beasley-Springer-Moro rational approximation).
fn normal_upper_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0,1)");
    // Invert the lower quantile of q = 1 - p.
    let q = 1.0 - p;
    // Beasley-Springer-Moro.
    let a = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    let b = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    let c = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    let d = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let plow = 0.02425;
    if q < plow {
        let u = (-2.0 * q.ln()).sqrt();
        -((((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5])
            / ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0))
    } else if q <= 1.0 - plow {
        let u = q - 0.5;
        let t = u * u;
        u * (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5])
            / (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0)
    } else {
        let u = (-2.0 * (1.0 - q).ln()).sqrt();
        (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5])
            / ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    }
}

fn is_pure(counts: &[f64]) -> bool {
    counts.iter().filter(|&&c| c > 0.0).count() <= 1
}

fn entropy(counts: &[f64]) -> f64 {
    let n: f64 = counts.iter().sum();
    if n == 0.0 {
        return 0.0;
    }
    -counts
        .iter()
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / n;
            p * p.log2()
        })
        .sum::<f64>()
}

impl Default for J48 {
    fn default() -> Self {
        J48::new()
    }
}

impl Classifier for J48 {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        if data.len() < 2 {
            return Err(TrainError::TooFewInstances {
                needed: 2,
                got: data.len(),
            });
        }
        // Sort each column once and grow by partitioning — bit-identical to
        // sorting at every node, minus the redundant sorts.
        let cols = SortedColumns::new(data);
        self.fit_presorted(data, &cols, None, None)
    }

    // hmd-analyze: hot-path
    // hmd-analyze: allow(transitive-hot-path-alloc, "the compiled-tree walk is allocation-free, but its untyped receiver resolves name-wide and reaches KNN's per-query distance buffer, and the one-time lazy compile is amortized over all later calls")
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let tree = self.compiled_tree();
        assert_eq!(
            out.len(),
            tree.n_classes(),
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            tree.n_classes()
        );
        tree.predict_proba_into(x, out);
    }

    fn n_classes(&self) -> usize {
        assert!(self.root.is_some(), "J48 not fitted");
        self.n_classes
    }

    fn name(&self) -> &'static str {
        "J48"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::arb;
    use proptest::prelude::*;

    /// The per-node-sort grower `fit_presorted` replaced, kept verbatim as
    /// its oracle: every node sorts its rows once per attribute.
    fn fit_reference(tree: &mut J48, data: &Dataset) -> Result<(), TrainError> {
        if data.len() < 2 {
            return Err(TrainError::TooFewInstances {
                needed: 2,
                got: data.len(),
            });
        }
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut root = build_reference(tree, &idx, data);
        if tree.prune {
            root = tree.prune_node(root).0;
        }
        tree.root = Some(root);
        tree.n_classes = data.n_classes();
        tree.compiled = OnceLock::new();
        tree.compiled_tree();
        Ok(())
    }

    fn build_reference(tree: &J48, idx: &[usize], data: &Dataset) -> Node {
        let counts = class_counts(idx, data);
        let n = idx.len();
        if is_pure(&counts) || n < 2 * tree.min_leaf {
            return Node::Leaf {
                class_counts: counts,
            };
        }
        let parent_entropy = entropy(&counts);
        let mut best: Option<(f64, usize, f64)> = None; // (gain_ratio, attr, threshold)
        for attr in 0..data.n_features() {
            if let Some((gain, ratio, threshold)) =
                best_split_reference(tree, idx, data, attr, parent_entropy)
            {
                // C4.5 requires positive information gain.
                if gain <= 1e-12 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((best_ratio, _, _)) => ratio > best_ratio,
                };
                if better {
                    best = Some((ratio, attr, threshold));
                }
            }
        }
        let Some((_, attribute, threshold)) = best else {
            return Node::Leaf {
                class_counts: counts,
            };
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .iter()
            .partition(|&&i| data.features_of(i)[attribute] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return Node::Leaf {
                class_counts: counts,
            };
        }
        Node::Split {
            attribute,
            threshold,
            left: Box::new(build_reference(tree, &left_idx, data)),
            right: Box::new(build_reference(tree, &right_idx, data)),
        }
    }

    /// Best `(gain, gain_ratio, threshold)` for one attribute, or `None` if
    /// the attribute is constant on `idx`.
    fn best_split_reference(
        tree: &J48,
        idx: &[usize],
        data: &Dataset,
        attr: usize,
        parent_entropy: f64,
    ) -> Option<(f64, f64, f64)> {
        let n_classes = data.n_classes();
        let mut pairs: Vec<(f64, usize)> = idx
            .iter()
            .map(|&i| (data.features_of(i)[attr], data.label_of(i)))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
        let n = pairs.len() as f64;

        let mut right_counts = vec![0.0; n_classes];
        for &(_, l) in &pairs {
            right_counts[l] += 1.0;
        }
        let mut left_counts = vec![0.0; n_classes];
        let mut best: Option<(f64, f64, f64)> = None;
        for i in 0..pairs.len() - 1 {
            let (v, l) = pairs[i];
            left_counts[l] += 1.0;
            right_counts[l] -= 1.0;
            let next_v = pairs[i + 1].0;
            if next_v == v {
                continue; // cannot split between equal values
            }
            let n_left = (i + 1) as f64;
            let n_right = n - n_left;
            if (n_left as usize) < tree.min_leaf || (n_right as usize) < tree.min_leaf {
                continue;
            }
            let child_entropy =
                (n_left / n) * entropy(&left_counts) + (n_right / n) * entropy(&right_counts);
            let gain = parent_entropy - child_entropy;
            let split_info = {
                let pl = n_left / n;
                let pr = n_right / n;
                -(pl * pl.log2() + pr * pr.log2())
            };
            if split_info <= 1e-12 {
                continue;
            }
            let ratio = gain / split_info;
            let threshold = (v + next_v) / 2.0;
            let better = match best {
                None => true,
                Some((_, best_ratio, _)) => ratio > best_ratio,
            };
            if better {
                best = Some((gain, ratio, threshold));
            }
        }
        best
    }

    fn class_counts(idx: &[usize], data: &Dataset) -> Vec<f64> {
        let mut counts = vec![0.0; data.n_classes()];
        for &i in idx {
            counts[data.label_of(i)] += 1.0;
        }
        counts
    }

    /// Serialized bytes of a model (the pruned tree only; the compiled
    /// cache is derived state and excluded by the serializer), so a
    /// structurally different tree cannot hide behind equal predictions.
    fn bytes(t: &J48) -> String {
        serde_json::to_string(t).expect("J48 serializes")
    }

    /// Bytes of the reference fit on `data`.
    fn reference_bytes(data: &Dataset) -> String {
        let mut tree = J48::new();
        fit_reference(&mut tree, data).expect("reference fit");
        bytes(&tree)
    }

    /// Bytes of a presorted fit over `data`'s own cache.
    fn presorted_bytes(data: &Dataset, mult: Option<&[u32]>, attrs: Option<&[usize]>) -> String {
        let cols = SortedColumns::new(data);
        let mut tree = J48::new();
        tree.fit_presorted(data, &cols, mult, attrs)
            .expect("presorted fit");
        bytes(&tree)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn presorted_matches_reference_on_duplicate_heavy_data(data in arb::dupey_dataset()) {
            prop_assert_eq!(reference_bytes(&data), presorted_bytes(&data, None, None));
        }

        #[test]
        fn presorted_matches_reference_on_continuous_data(data in arb::continuous_dataset()) {
            prop_assert_eq!(reference_bytes(&data), presorted_bytes(&data, None, None));
        }

        #[test]
        fn multiplicities_match_reference_on_materialized_rows(
            data in arb::dupey_dataset(),
            mult_raw in proptest::collection::vec(0u32..=3, 20),
        ) {
            // Row i participates mult[i] times; the reference trains on the
            // explicitly repeated rows (in source index order).
            let mut mult: Vec<u32> = (0..data.len())
                .map(|i| mult_raw[i % mult_raw.len()])
                .collect();
            if mult.iter().sum::<u32>() < 2 {
                mult[0] += 2; // keep the all-zero corner trainable
            }
            let expanded: Vec<usize> = (0..data.len())
                .flat_map(|i| std::iter::repeat_n(i, mult[i] as usize))
                .collect();
            prop_assert_eq!(
                reference_bytes(&data.subset(&expanded)),
                presorted_bytes(&data, Some(&mult), None)
            );
        }

        #[test]
        fn bootstrap_draws_match_reference_in_any_draw_order(
            data in arb::dupey_dataset(),
            draw_raw in proptest::collection::vec(0usize..1000, 8..40),
        ) {
            // A bootstrap materializes rows in *draw* order, not index order —
            // the presorted path must be insensitive to that ordering.
            let draws: Vec<usize> = draw_raw.iter().map(|&r| r % data.len()).collect();
            let mut mult = vec![0u32; data.len()];
            for &i in &draws {
                mult[i] += 1;
            }
            prop_assert_eq!(
                reference_bytes(&data.subset(&draws)),
                presorted_bytes(&data, Some(&mult), None)
            );
        }

        #[test]
        fn attribute_subset_matches_reference_on_projection(
            data in arb::dupey_dataset(),
            pick in proptest::collection::vec(any::<bool>(), 4),
        ) {
            let mut attrs: Vec<usize> = (0..data.n_features())
                .filter(|&c| pick[c % pick.len()])
                .collect();
            if attrs.is_empty() {
                attrs.push(0);
            }
            prop_assert_eq!(
                reference_bytes(&data.select_features(&attrs)),
                presorted_bytes(&data, None, Some(&attrs))
            );
        }
    }

    /// An all-constant dataset degrades like the reference: no split has
    /// positive gain, so both produce a single leaf.
    #[test]
    fn constant_dataset_degrades_like_reference() {
        let data = Dataset::new(vec![vec![3.0, -1.0]; 10], [0, 1].repeat(5), 2).unwrap();
        let cols = SortedColumns::new(&data);
        let mut fast = J48::new();
        fast.fit_presorted(&data, &cols, None, None).unwrap();
        assert_eq!(reference_bytes(&data), bytes(&fast));
        assert_eq!(fast.node_count(), 1, "constant data yields a single leaf");
    }

    /// Below-minimum total multiplicity errors like a fit on fewer than
    /// two rows.
    #[test]
    fn too_few_weighted_instances_errors() {
        let data = Dataset::new(vec![vec![0.0], vec![1.0], vec![2.0]], vec![0, 1, 0], 2).unwrap();
        let cols = SortedColumns::new(&data);
        let err = J48::new()
            .fit_presorted(&data, &cols, Some(&[0, 1, 0]), None)
            .unwrap_err();
        assert!(matches!(
            err,
            TrainError::TooFewInstances { needed: 2, got: 1 }
        ));
    }

    fn band() -> Dataset {
        // Class 1 iff x in [0.4, 0.6): needs two splits on one attribute,
        // each with positive greedy gain (unlike XOR, which defeats any
        // myopic splitter including real C4.5).
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..36 {
            let x = i as f64 / 36.0;
            features.push(vec![x, (i % 5) as f64]);
            labels.push(usize::from((0.4..0.6).contains(&x)));
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn learns_axis_aligned_split() {
        let data = Dataset::new(
            vec![
                vec![0.0],
                vec![0.1],
                vec![0.2],
                vec![0.8],
                vec![0.9],
                vec![1.0],
            ],
            vec![0, 0, 0, 1, 1, 1],
            2,
        )
        .unwrap();
        let mut t = J48::new();
        t.fit(&data).unwrap();
        assert_eq!(t.predict(&[0.05]), 0);
        assert_eq!(t.predict(&[0.95]), 1);
        assert_eq!(t.depth(), 2); // one split, two leaves
    }

    #[test]
    fn learns_band_structure() {
        let data = band();
        let mut t = J48::new().with_pruning(false);
        t.fit(&data).unwrap();
        let correct = (0..data.len())
            .filter(|&i| t.predict(data.features_of(i)) == data.label_of(i))
            .count();
        assert_eq!(correct, data.len(), "unpruned tree fits the band exactly");
        assert!(t.depth() >= 3, "band needs two threshold levels");
    }

    #[test]
    fn pruning_shrinks_noisy_trees() {
        // Unique feature values with ~20 % label noise and no real signal:
        // the unpruned tree isolates each noisy instance (positive gain on
        // unique values); pessimistic pruning collapses those splits.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..160usize {
            features.push(vec![i as f64, (i.wrapping_mul(2654435761) % 97) as f64]);
            labels.push(usize::from(i.wrapping_mul(40503) % 5 == 0));
        }
        let data = Dataset::new(features, labels, 2).unwrap();
        let mut unpruned = J48::new().with_pruning(false);
        unpruned.fit(&data).unwrap();
        let mut pruned = J48::new();
        pruned.fit(&data).unwrap();
        assert!(
            pruned.node_count() < unpruned.node_count(),
            "pruned {} !< unpruned {}",
            pruned.node_count(),
            unpruned.node_count()
        );
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1], 2).unwrap();
        let mut t = J48::new();
        t.fit(&data).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[99.0]), 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut t = J48::new();
        t.fit(&band()).unwrap();
        let p = t.predict_proba(&[0.5, 0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(
            p.iter().all(|&v| v > 0.0),
            "Laplace keeps probabilities positive"
        );
    }

    #[test]
    fn min_leaf_limits_granularity() {
        let data = band();
        let fine = {
            let mut t = J48::new().with_min_leaf(2).with_pruning(false);
            t.fit(&data).unwrap();
            t.node_count()
        };
        let coarse = {
            let mut t = J48::new().with_min_leaf(12).with_pruning(false);
            t.fit(&data).unwrap();
            t.node_count()
        };
        assert!(coarse < fine, "coarse {coarse} !< fine {fine}");
    }

    #[test]
    fn pessimistic_error_is_above_observed_rate() {
        let u = pessimistic_error_rate(1.0, 10.0, 0.25);
        assert!(u > 0.1 && u < 0.5, "upper bound {u}");
        // More data, same rate -> tighter bound.
        let u_big = pessimistic_error_rate(10.0, 100.0, 0.25);
        assert!(u_big < u);
    }

    #[test]
    fn normal_quantile_sanity() {
        // P(Z > 0.6745) ≈ 0.25
        let z = normal_upper_quantile(0.25);
        assert!((z - 0.6745).abs() < 1e-3, "z = {z}");
        let z50 = normal_upper_quantile(0.5);
        assert!(z50.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        J48::new().predict(&[1.0]);
    }

    #[test]
    fn too_few_instances_is_an_error() {
        let data = Dataset::new(vec![vec![0.0]], vec![0], 1).unwrap();
        assert!(J48::new().fit(&data).is_err());
    }

    #[test]
    fn to_text_renders_structure() {
        let data = band();
        let mut t = J48::new();
        t.fit(&data).unwrap();
        let text = t.to_text(&["x", "phase"]);
        assert!(
            text.contains("x <="),
            "split on the informative feature: {text}"
        );
        assert!(text.contains("=> class"), "leaves rendered");
        // Unknown names fall back to indices.
        let fallback = t.to_text(&[]);
        assert!(fallback.contains("f0"));
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn to_text_before_fit_panics() {
        J48::new().to_text(&[]);
    }

    #[test]
    fn leaf_count_relation_holds() {
        let mut t = J48::new();
        t.fit(&band()).unwrap();
        // Binary tree: leaves = (nodes + 1) / 2.
        assert_eq!(t.leaf_count(), t.node_count().div_ceil(2));
    }

    /// The pre-compilation boxed walk plus per-call Laplace smoothing, kept
    /// verbatim as the reference the compiled fast path must match.
    fn boxed_reference_proba(t: &J48, x: &[f64]) -> Vec<f64> {
        fn walk<'a>(node: &'a Node, x: &[f64]) -> &'a [f64] {
            match node {
                Node::Leaf { class_counts } => class_counts,
                Node::Split {
                    attribute,
                    threshold,
                    left,
                    right,
                } => {
                    if x[*attribute] <= *threshold {
                        walk(left, x)
                    } else {
                        walk(right, x)
                    }
                }
            }
        }
        let counts = walk(t.root.as_ref().expect("fitted"), x);
        let total: f64 = counts.iter().sum();
        counts
            .iter()
            .map(|&c| (c + 1.0) / (total + t.n_classes as f64))
            .collect()
    }

    #[test]
    fn compiled_tree_matches_boxed_structure() {
        // hwmodel's Table V cost estimates read node_count()/depth() from
        // the boxed tree; compilation must not change either.
        for prune in [false, true] {
            let mut t = J48::new().with_pruning(prune);
            t.fit(&band()).unwrap();
            let c = t.compiled_tree();
            assert_eq!(c.node_count(), t.node_count());
            assert_eq!(c.depth(), t.depth());
            assert_eq!(c.n_classes(), 2);
        }
    }

    #[test]
    fn compiled_probabilities_bit_identical_to_boxed_walk() {
        let mut t = J48::new();
        t.fit(&band()).unwrap();
        let mut out = vec![0.0; 2];
        for i in 0..50 {
            let x = [i as f64 / 50.0, (i % 5) as f64];
            let reference = boxed_reference_proba(&t, &x);
            let via_vec = t.predict_proba(&x);
            t.predict_proba_into(&x, &mut out);
            for c in 0..2 {
                assert_eq!(reference[c].to_bits(), via_vec[c].to_bits());
                assert_eq!(reference[c].to_bits(), out[c].to_bits());
            }
        }
    }

    #[test]
    fn serde_round_trip_ignores_compiled_cache() {
        let mut t = J48::new();
        t.fit(&band()).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: J48 = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t, "equality ignores the compiled cache");
        // The deserialized tree compiles lazily and predicts identically.
        let x = [0.5, 1.0];
        assert_eq!(
            back.predict_proba(&x)[0].to_bits(),
            t.predict_proba(&x)[0].to_bits()
        );
        // The JSON keeps the pre-cache field shape.
        for key in ["min_leaf", "confidence", "prune", "root", "n_classes"] {
            assert!(json.contains(key), "field `{key}` serialized: {json}");
        }
    }

    #[test]
    #[should_panic(expected = "predict_proba_into: out has")]
    fn predict_proba_into_checks_out_length() {
        let mut t = J48::new();
        t.fit(&band()).unwrap();
        t.predict_proba_into(&[0.5, 1.0], &mut [0.0; 5]);
    }
}
