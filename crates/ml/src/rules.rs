//! JRip: the RIPPER rule learner (Cohen, 1995; WEKA's `JRip`).
//!
//! RIPPER learns an **ordered list of conjunctive rules** per class using
//! incremental reduced-error pruning: each rule is grown greedily by FOIL
//! information gain on a grow set, pruned backwards on a held-out prune set,
//! and accepted only while it stays accurate; a revision pass then tries to
//! replace each rule with a regrown alternative. Classes are processed from
//! rarest to most frequent, with the most frequent class as the default —
//! RIPPER's standard multiclass scheme.
//!
//! The fitted model exposes [`JRip::rule_count`] and
//! [`JRip::condition_count`], which the hardware model maps to comparator
//! chains (Table V).
//!
//! # Examples
//!
//! ```
//! use hmd_ml::rules::JRip;
//! use hmd_ml::classifier::Classifier;
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut model = JRip::new(7);
//! model.fit(&data)?;
//! assert_eq!(model.predict(&[0.95]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::classifier::{Classifier, TrainError};
use crate::data::{Dataset, SortedColumns};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One atomic condition: a threshold test on an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    /// `feature[attr] <= value`
    Le {
        /// Attribute index.
        attr: usize,
        /// Threshold.
        value: f64,
    },
    /// `feature[attr] >= value`
    Ge {
        /// Attribute index.
        attr: usize,
        /// Threshold.
        value: f64,
    },
}

impl Condition {
    /// Evaluates the condition on one instance.
    pub fn matches(&self, x: &[f64]) -> bool {
        match *self {
            Condition::Le { attr, value } => x[attr] <= value,
            Condition::Ge { attr, value } => x[attr] >= value,
        }
    }
}

impl std::fmt::Display for Condition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Condition::Le { attr, value } => write!(f, "f{attr} <= {value:.6}"),
            Condition::Ge { attr, value } => write!(f, "f{attr} >= {value:.6}"),
        }
    }
}

/// A conjunctive rule: all conditions must hold for `class` to fire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// The conjunction of threshold tests.
    pub conditions: Vec<Condition>,
    /// Class assigned when the rule fires.
    pub class: usize,
    /// Laplace-smoothed training precision of the rule.
    pub confidence: f64,
}

impl Rule {
    /// `true` if every condition holds on `x`.
    pub fn matches(&self, x: &[f64]) -> bool {
        self.conditions.iter().all(|c| c.matches(x))
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let conds: Vec<String> = self.conditions.iter().map(|c| c.to_string()).collect();
        write!(
            f,
            "IF {} THEN class {} ({:.2})",
            if conds.is_empty() {
                "true".to_string()
            } else {
                conds.join(" AND ")
            },
            self.class,
            self.confidence
        )
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fitted {
    rules: Vec<Rule>,
    default_class: usize,
    default_confidence: f64,
    n_classes: usize,
}

/// The JRip / RIPPER classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JRip {
    seed: u64,
    max_conditions: usize,
    optimize: bool,
    fitted: Option<Fitted>,
}

impl JRip {
    /// Maximum antecedents per rule (guards against degenerate growth).
    pub const DEFAULT_MAX_CONDITIONS: usize = 8;

    /// A new unfitted JRip. `seed` drives the grow/prune splits so training
    /// is deterministic.
    pub fn new(seed: u64) -> JRip {
        JRip {
            seed,
            max_conditions: Self::DEFAULT_MAX_CONDITIONS,
            optimize: true,
            fitted: None,
        }
    }

    /// Number of learned rules (excluding the default), if fitted.
    pub fn rule_count(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.rules.len())
    }

    /// Total number of conditions across all rules, if fitted.
    pub fn condition_count(&self) -> Option<usize> {
        self.fitted
            .as_ref()
            .map(|f| f.rules.iter().map(|r| r.conditions.len()).sum())
    }

    /// The fitted rule list, if fitted.
    pub fn rules(&self) -> Option<&[Rule]> {
        self.fitted.as_ref().map(|f| f.rules.as_slice())
    }

    /// The highest attribute index a condition of the fitted rules tests
    /// (`None` if condition-free), once the model is known to score
    /// safely: every rule's class and the default class are below its
    /// class count, every confidence lies in `[0, 1]`, and no condition's
    /// threshold is NaN (a NaN threshold matches no row, so it silently
    /// turns its rule off; an infinite one is a legal cut). A row needs
    /// more features than the returned index to be scored.
    pub(crate) fn checked_max_attribute(&self) -> Result<Option<usize>, String> {
        let f = self.fitted.as_ref().ok_or("JRip is not fitted")?;
        let outcomes = f
            .rules
            .iter()
            .map(|r| (r.class, r.confidence))
            .chain([(f.default_class, f.default_confidence)]);
        for (class, confidence) in outcomes {
            if class >= f.n_classes {
                return Err(format!(
                    "JRip assigns class {class} but has {} classes",
                    f.n_classes
                ));
            }
            if !(0.0..=1.0).contains(&confidence) {
                return Err(format!("JRip confidence {confidence} is outside [0, 1]"));
            }
        }
        let mut max_attr = None;
        for c in f.rules.iter().flat_map(|r| &r.conditions) {
            let (Condition::Le { attr, value } | Condition::Ge { attr, value }) = *c;
            if value.is_nan() {
                return Err(format!("JRip tests feature {attr} against a NaN threshold"));
            }
            max_attr = max_attr.max(Some(attr));
        }
        Ok(max_attr)
    }

    /// Longest antecedent among the fitted rules (0 for a rule-free model),
    /// if fitted.
    pub fn max_rule_conditions(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| {
            f.rules
                .iter()
                .map(|r| r.conditions.len())
                .max()
                .unwrap_or(0)
        })
    }

    /// Grows one rule for `class` on the grow set by FOIL gain.
    ///
    /// Each grow step makes one counted pass per attribute ([`CutCounts`]):
    /// it lists the ascending distinct values of the covered rows, counts
    /// the positives and negatives at each and prefix-sums them. A
    /// candidate `f <= t` covers the values before
    /// `partition_point(v <= t)` and `f >= t` those from
    /// `partition_point(v < t)` on, so a candidate costs two binary
    /// searches, not a rescan of the covered rows, and a midpoint that
    /// rounds onto an endpoint counts the endpoint as a rescan would. The
    /// counts are small integers, exact in `f64`; candidate order, stride,
    /// gain and tie-break are the rescan's, so the grown rules are
    /// bit-identical to it (`grow_rule_reference` in the tests).
    ///
    /// While the covered set stays large, the distinct values come from one
    /// filtered walk of the [`SortedColumns`] cache's presorted order; once
    /// it is small, where a sort is cheaper than an O(n) walk, from a sort
    /// of the covered rows. Both yield the same list (the only ambiguity,
    /// which of `-0.0`/`0.0` comes first, cannot change any midpoint
    /// bitwise or any count), so grown rules are identical either way. A
    /// fit always passes its cache; `None` sorts at every step, which lets
    /// the tests check the sort against the rescan at any covered-set size.
    fn grow_rule(
        &self,
        data: &Dataset,
        grow: &[usize],
        class: usize,
        cols: Option<&SortedColumns>,
    ) -> Vec<Condition> {
        let mut conditions: Vec<Condition> = Vec::new();
        let mut covered: Vec<usize> = grow.to_vec();
        let mut in_covered = vec![false; if cols.is_some() { data.len() } else { 0 }];
        let mut sorted: Vec<(f64, bool)> = Vec::new();
        let mut cuts = CutCounts::default();
        while conditions.len() < self.max_conditions {
            let p0 = covered
                .iter()
                .filter(|&&i| data.label_of(i) == class)
                .count() as f64;
            let n0 = covered.len() as f64 - p0;
            if p0 == 0.0 || n0 == 0.0 {
                break; // already pure (or hopeless)
            }
            let base = (p0 / (p0 + n0)).log2();
            // Walking the full-length presorted order costs O(len); sorting
            // the covered values costs O(c log c). Prefer the cache only
            // while c log c dominates — both paths yield the same list.
            let cache = cols.filter(|_| covered.len() * 6 >= data.len());
            if cache.is_some() {
                in_covered.fill(false);
                for &i in &covered {
                    in_covered[i] = true;
                }
            }
            let mut best: Option<(f64, Condition)> = None;
            for attr in 0..data.n_features() {
                match cache {
                    Some(cols) => {
                        let column = cols.column(attr);
                        cuts.tally(
                            cols.order(attr)
                                .iter()
                                .map(|&r| r as usize)
                                .filter(|&i| in_covered[i])
                                .map(|i| (column[i], data.label_of(i) == class)),
                        );
                    }
                    None => {
                        sorted.clear();
                        sorted.extend(
                            covered
                                .iter()
                                .map(|&i| (data.features_of(i)[attr], data.label_of(i) == class)),
                        );
                        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
                        cuts.tally(sorted.iter().copied());
                    }
                }
                let values = &cuts.values;
                if values.len() < 2 {
                    continue;
                }
                // Candidate thresholds: midpoints, subsampled for speed.
                let stride = (values.len() / 24).max(1);
                for w in values.windows(2).step_by(stride) {
                    let threshold = (w[0] + w[1]) / 2.0;
                    let [le, ge] = cuts.covered_by(threshold);
                    for (cond, (p, n)) in [
                        (
                            Condition::Le {
                                attr,
                                value: threshold,
                            },
                            le,
                        ),
                        (
                            Condition::Ge {
                                attr,
                                value: threshold,
                            },
                            ge,
                        ),
                    ] {
                        if p == 0.0 {
                            continue;
                        }
                        // FOIL gain: p * (log2(p/(p+n)) - log2(p0/(p0+n0))).
                        let gain = p * ((p / (p + n)).log2() - base);
                        let better = match &best {
                            None => gain > 1e-9,
                            Some((bg, _)) => gain > *bg,
                        };
                        if better {
                            best = Some((gain, cond));
                        }
                    }
                }
            }
            let Some((_, cond)) = best else { break };
            conditions.push(cond);
            covered.retain(|&i| cond.matches(data.features_of(i)));
            let neg = covered
                .iter()
                .filter(|&&i| data.label_of(i) != class)
                .count();
            if neg == 0 {
                break;
            }
        }
        conditions
    }

    /// Prunes trailing conditions to maximize `(p - n) / (p + n)` on the
    /// prune set.
    fn prune_rule(
        &self,
        data: &Dataset,
        prune: &[usize],
        class: usize,
        mut conditions: Vec<Condition>,
    ) -> Vec<Condition> {
        let metric = |conds: &[Condition]| -> f64 {
            let mut p = 0.0;
            let mut n = 0.0;
            for &i in prune {
                if conds.iter().all(|c| c.matches(data.features_of(i))) {
                    if data.label_of(i) == class {
                        p += 1.0;
                    } else {
                        n += 1.0;
                    }
                }
            }
            if p + n == 0.0 {
                -1.0
            } else {
                (p - n) / (p + n)
            }
        };
        loop {
            if conditions.len() <= 1 {
                break;
            }
            let current = metric(&conditions);
            let shorter = &conditions[..conditions.len() - 1];
            if metric(shorter) >= current {
                conditions.pop();
            } else {
                break;
            }
        }
        conditions
    }

    /// Accuracy of a rule on a set: `(p, n)` covered positives/negatives.
    fn coverage(
        &self,
        data: &Dataset,
        idx: &[usize],
        class: usize,
        conds: &[Condition],
    ) -> (f64, f64) {
        let mut p = 0.0;
        let mut n = 0.0;
        for &i in idx {
            if conds.iter().all(|c| c.matches(data.features_of(i))) {
                if data.label_of(i) == class {
                    p += 1.0;
                } else {
                    n += 1.0;
                }
            }
        }
        (p, n)
    }

    /// Learns the ordered ruleset for one class over `remaining`, removing
    /// covered instances from it.
    fn learn_class(
        &self,
        data: &Dataset,
        remaining: &mut Vec<usize>,
        class: usize,
        rng: &mut StdRng,
        cols: &SortedColumns,
    ) -> Vec<Rule> {
        let mut rules = Vec::new();
        loop {
            let positives = remaining
                .iter()
                .filter(|&&i| data.label_of(i) == class)
                .count();
            if positives == 0 || remaining.len() < 4 {
                break;
            }
            // 2:1 grow/prune split (RIPPER's default), stratified by shuffle.
            let mut shuffled = remaining.clone();
            shuffled.shuffle(rng);
            let cut = (shuffled.len() * 2) / 3;
            let (grow, prune) = shuffled.split_at(cut.max(1));

            let grown = self.grow_rule(data, grow, class, Some(cols));
            if grown.is_empty() {
                break;
            }
            let pruned = if prune.is_empty() {
                grown
            } else {
                self.prune_rule(data, prune, class, grown)
            };

            // Acceptance: error on the full remaining set must be < 50 %.
            let (p, n) = self.coverage(data, remaining, class, &pruned);
            if p == 0.0 || n > p {
                break;
            }
            let confidence = (p + 1.0) / (p + n + 2.0);
            rules.push(Rule {
                conditions: pruned.clone(),
                class,
                confidence,
            });
            remaining.retain(|&i| !pruned.iter().all(|c| c.matches(data.features_of(i))));
        }
        rules
    }

    /// One revision pass: try regrowing each rule from scratch on the data
    /// it uniquely covers; keep the replacement if total error over the
    /// training set decreases.
    fn optimize_rules(
        &self,
        data: &Dataset,
        rules: Vec<Rule>,
        default_class: usize,
        rng: &mut StdRng,
        cols: &SortedColumns,
    ) -> Vec<Rule> {
        let all: Vec<usize> = (0..data.len()).collect();
        let error_of = |rs: &[Rule]| -> usize {
            all.iter()
                .filter(|&&i| {
                    let pred = rs
                        .iter()
                        .find(|r| r.matches(data.features_of(i)))
                        .map_or(default_class, |r| r.class);
                    pred != data.label_of(i)
                })
                .count()
        };
        let mut best = rules;
        let mut best_err = error_of(&best);
        for k in 0..best.len() {
            let class = best[k].class;
            // Instances reaching rule k (not matched by earlier rules).
            let reaching: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| !best[..k].iter().any(|r| r.matches(data.features_of(i))))
                .collect();
            if reaching.len() < 4 {
                continue;
            }
            let mut shuffled = reaching;
            shuffled.shuffle(rng);
            let cut = (shuffled.len() * 2) / 3;
            let (grow, prune) = shuffled.split_at(cut.max(1));
            let regrown = self.grow_rule(data, grow, class, Some(cols));
            if regrown.is_empty() {
                continue;
            }
            let replacement = if prune.is_empty() {
                regrown
            } else {
                self.prune_rule(data, prune, class, regrown)
            };
            let mut candidate = best.clone();
            let (p, n) = self.coverage(data, &all, class, &replacement);
            candidate[k] = Rule {
                conditions: replacement,
                class,
                confidence: (p + 1.0) / (p + n + 2.0),
            };
            let err = error_of(&candidate);
            if err < best_err {
                best = candidate;
                best_err = err;
            }
        }
        best
    }

    /// Fits against a shared [`SortedColumns`] cache.
    ///
    /// Produces the exact rule set [`fit`](Classifier::fit) would, which
    /// builds a one-off cache of its own: while a grow step's covered set
    /// is large, its counted pass per attribute walks the cache's presorted
    /// order instead of sorting the covered rows. That changes how the
    /// distinct values are enumerated, not which candidates exist or how
    /// they are counted. Unlike `J48::fit_presorted` there is no
    /// multiplicity parameter — RIPPER's seeded grow/prune shuffles operate
    /// on concrete row indices, so bootstrapped JRip members still
    /// materialize their sample.
    ///
    /// # Errors
    ///
    /// [`TrainError::TooFewInstances`] if the dataset has fewer than 4 rows.
    ///
    /// # Panics
    ///
    /// Panics if `cols` does not cover `data`'s shape.
    pub fn fit_cached(&mut self, data: &Dataset, cols: &SortedColumns) -> Result<(), TrainError> {
        assert_eq!(
            cols.n_rows(),
            data.len(),
            "SortedColumns row count must match dataset"
        );
        assert_eq!(
            cols.n_columns(),
            data.n_features(),
            "SortedColumns column count must match dataset"
        );
        self.fit_impl(data, cols)
    }

    fn fit_impl(&mut self, data: &Dataset, cols: &SortedColumns) -> Result<(), TrainError> {
        if data.len() < 4 {
            return Err(TrainError::TooFewInstances {
                needed: 4,
                got: data.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let counts = data.class_counts();
        // Rarest class first; most frequent becomes the default.
        let mut order: Vec<usize> = (0..data.n_classes()).filter(|&c| counts[c] > 0).collect();
        order.sort_by_key(|&c| counts[c]);
        let default_class = *order.last().expect("at least one class present");

        let mut remaining: Vec<usize> = (0..data.len()).collect();
        let mut rules = Vec::new();
        for &class in &order[..order.len() - 1] {
            rules.extend(self.learn_class(data, &mut remaining, class, &mut rng, cols));
        }
        if self.optimize && !rules.is_empty() {
            rules = self.optimize_rules(data, rules, default_class, &mut rng, cols);
        }
        // Default-class confidence from the uncovered remainder.
        let default_hits = remaining
            .iter()
            .filter(|&&i| data.label_of(i) == default_class)
            .count() as f64;
        let default_confidence = (default_hits + 1.0) / (remaining.len() as f64 + 2.0);

        self.fitted = Some(Fitted {
            rules,
            default_class,
            default_confidence,
            n_classes: data.n_classes(),
        });
        Ok(())
    }
}

/// One attribute's covered rows, counted for a grow step: the ascending
/// distinct values, and in `below[j]` the `(positives, negatives)` whose
/// value is less than `values[j]`. `below[values.len()]` counts every row.
#[derive(Default)]
struct CutCounts {
    values: Vec<f64>,
    below: Vec<(usize, usize)>,
}

impl CutCounts {
    /// Recounts from `(value, positive)` pairs in ascending value order.
    fn tally(&mut self, rows: impl Iterator<Item = (f64, bool)>) {
        self.values.clear();
        self.below.clear();
        let (mut p, mut n) = (0, 0);
        for (v, positive) in rows {
            if self.values.last() != Some(&v) {
                self.values.push(v);
                self.below.push((p, n));
            }
            if positive {
                p += 1;
            } else {
                n += 1;
            }
        }
        self.below.push((p, n));
    }

    /// `(p, n)` covered by `f <= t` and by `f >= t`, as `f64`.
    fn covered_by(&self, t: f64) -> [(f64, f64); 2] {
        let (le_p, le_n) = self.below[self.values.partition_point(|&v| v <= t)];
        let (lt_p, lt_n) = self.below[self.values.partition_point(|&v| v < t)];
        let (all_p, all_n) = self.below[self.values.len()];
        [
            (le_p as f64, le_n as f64),
            ((all_p - lt_p) as f64, (all_n - lt_n) as f64),
        ]
    }
}

impl Classifier for JRip {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        // Build a one-off cut-point cache; large covered sets then walk it
        // instead of sorting their values.
        let cols = SortedColumns::new(data);
        self.fit_impl(data, &cols)
    }

    // hmd-analyze: hot-path
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let f = self.fitted.as_ref().expect("JRip not fitted");
        assert_eq!(
            out.len(),
            f.n_classes,
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            f.n_classes
        );
        let (class, confidence) = f
            .rules
            .iter()
            .find(|r| r.matches(x))
            .map_or((f.default_class, f.default_confidence), |r| {
                (r.class, r.confidence)
            });
        out.fill((1.0 - confidence) / (f.n_classes as f64 - 1.0).max(1.0));
        out[class] = if f.n_classes == 1 { 1.0 } else { confidence };
    }

    fn n_classes(&self) -> usize {
        self.fitted.as_ref().expect("JRip not fitted").n_classes
    }

    fn name(&self) -> &'static str {
        "JRip"
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
    use proptest::prelude::*;
    use rand::Rng;

    /// The grow step `JRip::grow_rule` replaced, kept verbatim as its
    /// oracle: every candidate condition rescans the covered rows.
    fn grow_rule_reference(
        model: &JRip,
        data: &Dataset,
        grow: &[usize],
        class: usize,
        cols: Option<&SortedColumns>,
    ) -> Vec<Condition> {
        let mut conditions: Vec<Condition> = Vec::new();
        let mut covered: Vec<usize> = grow.to_vec();
        let mut in_covered = vec![false; if cols.is_some() { data.len() } else { 0 }];
        let mut values: Vec<f64> = Vec::new();
        while conditions.len() < model.max_conditions {
            let p0 = covered
                .iter()
                .filter(|&&i| data.label_of(i) == class)
                .count() as f64;
            let n0 = covered.len() as f64 - p0;
            if p0 == 0.0 || n0 == 0.0 {
                break; // already pure (or hopeless)
            }
            let base = (p0 / (p0 + n0)).log2();
            // Walking the full-length presorted order costs O(len); sorting
            // the covered values costs O(c log c). Prefer the cache only
            // while c log c dominates — both paths yield the same list.
            let cache = cols.filter(|_| covered.len() * 6 >= data.len());
            if cache.is_some() {
                in_covered.fill(false);
                for &i in &covered {
                    in_covered[i] = true;
                }
            }
            let mut best: Option<(f64, Condition)> = None;
            for attr in 0..data.n_features() {
                values.clear();
                match cache {
                    Some(cols) => {
                        for &r in cols.order(attr) {
                            let i = r as usize;
                            if !in_covered[i] {
                                continue;
                            }
                            let v = data.features_of(i)[attr];
                            if values.last() != Some(&v) {
                                values.push(v);
                            }
                        }
                    }
                    None => {
                        values.extend(covered.iter().map(|&i| data.features_of(i)[attr]));
                        values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
                        values.dedup();
                    }
                }
                if values.len() < 2 {
                    continue;
                }
                // Candidate thresholds: midpoints, subsampled for speed.
                let stride = (values.len() / 24).max(1);
                for w in values.windows(2).step_by(stride) {
                    let threshold = (w[0] + w[1]) / 2.0;
                    for cond in [
                        Condition::Le {
                            attr,
                            value: threshold,
                        },
                        Condition::Ge {
                            attr,
                            value: threshold,
                        },
                    ] {
                        let mut p = 0.0f64;
                        let mut n = 0.0f64;
                        for &i in &covered {
                            if cond.matches(data.features_of(i)) {
                                if data.label_of(i) == class {
                                    p += 1.0;
                                } else {
                                    n += 1.0;
                                }
                            }
                        }
                        if p == 0.0 {
                            continue;
                        }
                        // FOIL gain: p * (log2(p/(p+n)) - log2(p0/(p0+n0))).
                        let gain = p * ((p / (p + n)).log2() - base);
                        let better = match &best {
                            None => gain > 1e-9,
                            Some((bg, _)) => gain > *bg,
                        };
                        if better {
                            best = Some((gain, cond));
                        }
                    }
                }
            }
            let Some((_, cond)) = best else { break };
            conditions.push(cond);
            covered.retain(|&i| cond.matches(data.features_of(i)));
            let neg = covered
                .iter()
                .filter(|&&i| data.label_of(i) != class)
                .count();
            if neg == 0 {
                break;
            }
        }
        conditions
    }

    /// A grown rule as comparable bits, so `-0.0` and `0.0` differ.
    fn bits(conditions: &[Condition]) -> Vec<(bool, usize, u64)> {
        conditions
            .iter()
            .map(|c| match *c {
                Condition::Le { attr, value } => (true, attr, value.to_bits()),
                Condition::Ge { attr, value } => (false, attr, value.to_bits()),
            })
            .collect()
    }

    /// A grow step's inputs drawn from `seed`: up to 400 rows of 1 to 3
    /// columns and 2 or 3 classes, any class, and a grow set of a few rows
    /// (below `n / 6`, the sort fallback) up to all of them. Each column
    /// draws from a pool of up to 8 values or of 64 to 128 (48 distinct
    /// make the candidate stride exceed 1) mixing small integers, adjacent
    /// doubles `x` and `x.next_up()` (their midpoint rounds onto one of
    /// them), `-0.0` beside `0.0`, spread reals and magnitudes whose sum
    /// overflows.
    fn grow_case(seed: u64) -> (Dataset, Vec<usize>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4..=400);
        let k = rng.gen_range(2..=3);
        let pools: Vec<Vec<f64>> = (0..rng.gen_range(1..=3))
            .map(|_| {
                let size = if rng.gen() {
                    rng.gen_range(1..=8)
                } else {
                    rng.gen_range(64..=128)
                };
                let mut pool = Vec::new();
                while pool.len() < size {
                    match rng.gen_range(0..5) {
                        0 => {
                            let x: f64 = rng.gen_range(-4.0..4.0);
                            pool.extend([x, x.next_up()]);
                        }
                        1 => pool.extend([-0.0, 0.0]),
                        2 => pool.push(f64::from(rng.gen_range(-3..=3))),
                        3 => pool.push(rng.gen_range(-1e3..1e3)),
                        _ => pool.push(rng.gen_range(-1.0..1.0) * f64::MAX),
                    }
                }
                pool
            })
            .collect();
        let features = (0..n)
            .map(|_| {
                pools
                    .iter()
                    .map(|pool| pool[rng.gen_range(0..pool.len())])
                    .collect()
            })
            .collect();
        let labels = (0..n).map(|_| rng.gen_range(0..k)).collect();
        let data = Dataset::new(features, labels, k).expect("finite features");
        let keep = if rng.gen() {
            rng.gen_range(0.02..0.16)
        } else {
            rng.gen_range(0.3..=1.0)
        };
        let grow = (0..n).filter(|_| rng.gen_bool(keep)).collect();
        (data, grow, rng.gen_range(0..k))
    }

    /// Asserts that both grow paths, the presorted walk and the sort,
    /// return the rescan's conditions bit for bit.
    fn assert_grows_like_reference(data: &Dataset, grow: &[usize], class: usize) {
        let model = JRip::new(0);
        let cols = SortedColumns::new(data);
        for cache in [Some(&cols), None] {
            assert_eq!(
                bits(&model.grow_rule(data, grow, class, cache)),
                bits(&grow_rule_reference(&model, data, grow, class, cache)),
                "walk: {}",
                cache.is_some()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn grow_rule_matches_the_rescan_bit_for_bit(seed in any::<u64>()) {
            let (data, grow, class) = grow_case(seed);
            assert_grows_like_reference(&data, &grow, class);
        }
    }

    /// `grow_case` reaches what the 6–20-row `data::arb::dupey_dataset`
    /// never does: strided candidates, the sort fallback, midpoints that
    /// round onto an endpoint and zeros of both signs in one column.
    #[test]
    fn grow_cases_reach_the_rescans_edge_cases() {
        let (mut strided, mut sorted, mut endpoint, mut zeros) = (0, 0, 0, 0);
        for seed in 0..128 {
            let (data, grow, _) = grow_case(seed);
            sorted += usize::from(grow.len() * 6 < data.len());
            for attr in 0..data.n_features() {
                let mut values: Vec<f64> =
                    grow.iter().map(|&i| data.features_of(i)[attr]).collect();
                values.sort_by(|a, b| a.partial_cmp(b).unwrap());
                zeros += usize::from(
                    values.iter().any(|v| v.to_bits() == 0.0f64.to_bits())
                        && values.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()),
                );
                values.dedup();
                strided += usize::from(values.len() >= 48);
                endpoint += usize::from(values.windows(2).any(|w| {
                    let t = (w[0] + w[1]) / 2.0;
                    t == w[0] || t == w[1]
                }));
            }
        }
        assert!(
            strided >= 10 && sorted >= 10 && endpoint >= 10 && zeros >= 10,
            "strided {strided}, sorted {sorted}, endpoint {endpoint}, zeros {zeros}"
        );
    }

    #[test]
    fn grow_rule_counts_midpoints_that_round_onto_an_endpoint() {
        // `(1.0 + 1.0.next_up()) / 2` rounds down to 1.0 and the next
        // pair's midpoint rounds up, so `>=` must count the lower endpoint
        // and `<=` the upper one. Zeros of both signs share one value.
        let x = [1.0, 1.0f64.next_up(), 1.0f64.next_up().next_up(), 3.0];
        for labels in [[0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1], [1, 1, 0, 0]] {
            let features = (0..16)
                .map(|i| vec![x[i % 4], if i % 3 == 0 { -0.0 } else { 0.0 }])
                .collect();
            let labels = (0..16).map(|i| labels[i % 4]).collect();
            let data = Dataset::new(features, labels, 2).unwrap();
            let all: Vec<usize> = (0..16).collect();
            for class in 0..2 {
                assert_grows_like_reference(&data, &all, class);
                assert_grows_like_reference(&data, &all[..2], class);
            }
        }
    }

    fn banded() -> Dataset {
        // Class 1 iff x in [0.4, 0.6]: needs a two-condition rule.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let x = i as f64 / 100.0;
            features.push(vec![x, (i % 7) as f64]);
            labels.push(usize::from((0.4..=0.6).contains(&x)));
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn learns_band_rule() {
        let data = banded();
        let mut m = JRip::new(3);
        m.fit(&data).unwrap();
        assert_eq!(m.predict(&[0.5, 0.0]), 1);
        assert_eq!(m.predict(&[0.1, 0.0]), 0);
        assert_eq!(m.predict(&[0.9, 0.0]), 0);
    }

    #[test]
    fn rules_target_the_minority_class() {
        let data = banded();
        let mut m = JRip::new(3);
        m.fit(&data).unwrap();
        let rules = m.rules().unwrap();
        assert!(!rules.is_empty());
        assert!(
            rules.iter().all(|r| r.class == 1),
            "rules should cover the rare class; default handles the rest"
        );
    }

    #[test]
    fn training_accuracy_is_high_on_separable_data() {
        let data = banded();
        let mut m = JRip::new(3);
        m.fit(&data).unwrap();
        let correct = (0..data.len())
            .filter(|&i| m.predict(data.features_of(i)) == data.label_of(i))
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.93, "{correct}/100");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut m = JRip::new(0);
        m.fit(&banded()).unwrap();
        for x in [[0.5, 0.0], [0.0, 0.0]] {
            let p = m.predict_proba(&x);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn condition_and_rule_counts_reported() {
        let mut m = JRip::new(1);
        m.fit(&banded()).unwrap();
        let rules = m.rule_count().unwrap();
        let conds = m.condition_count().unwrap();
        assert!(rules >= 1);
        assert!(conds >= rules, "each rule has at least one condition");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = banded();
        let mut a = JRip::new(9);
        let mut b = JRip::new(9);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.rules(), b.rules());
    }

    #[test]
    fn multiclass_orders_by_rarity() {
        // Three classes along x with different sizes.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let x = i as f64;
            features.push(vec![x]);
            labels.push(if x < 5.0 {
                2
            } else if x < 15.0 {
                1
            } else {
                0
            });
        }
        let data = Dataset::new(features, labels, 3).unwrap();
        let mut m = JRip::new(4);
        m.fit(&data).unwrap();
        assert_eq!(m.predict(&[2.0]), 2);
        assert_eq!(m.predict(&[10.0]), 1);
        assert_eq!(m.predict(&[25.0]), 0);
    }

    #[test]
    fn rules_render_readably() {
        let rule = Rule {
            conditions: vec![
                Condition::Le {
                    attr: 0,
                    value: 1.5,
                },
                Condition::Ge {
                    attr: 2,
                    value: 0.25,
                },
            ],
            class: 1,
            confidence: 0.9,
        };
        let text = rule.to_string();
        assert!(text.contains("f0 <= 1.5"));
        assert!(text.contains("AND"));
        assert!(text.contains("THEN class 1"));
    }

    #[test]
    fn condition_matches() {
        let le = Condition::Le {
            attr: 0,
            value: 1.0,
        };
        let ge = Condition::Ge {
            attr: 0,
            value: 1.0,
        };
        assert!(le.matches(&[0.5]) && !le.matches(&[1.5]));
        assert!(ge.matches(&[1.5]) && !ge.matches(&[0.5]));
        assert!(le.matches(&[1.0]) && ge.matches(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        JRip::new(0).predict(&[0.0]);
    }

    #[test]
    fn too_few_instances_is_an_error() {
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1], 2).unwrap();
        assert!(matches!(
            JRip::new(0).fit(&data),
            Err(TrainError::TooFewInstances { .. })
        ));
    }
}
