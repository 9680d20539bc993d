//! Multinomial Logistic Regression (MLR) — the paper's stage-1 classifier.
//!
//! A softmax generalized linear model over standardized inputs, trained by
//! full-batch gradient descent with ridge regularization. The paper uses MLR
//! to predict the application type — benign or one of the four malware
//! classes — from the 4 *common* HPC features, reporting ≈80 % accuracy with
//! 4 HPCs and ≈83 % with 16.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::logistic::Mlr;
//! use hmd_ml::classifier::Classifier;
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.2], vec![1.0], vec![1.2], vec![2.0], vec![2.2]],
//!     vec![0, 0, 1, 1, 2, 2],
//!     3,
//! )?;
//! let mut mlr = Mlr::new();
//! mlr.fit(&data)?;
//! assert_eq!(mlr.predict(&[2.1]), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batch::BatchScratch;
use crate::classifier::{Classifier, TrainError};
use crate::data::{Dataset, Standardizer};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fitted {
    standardizer: Standardizer,
    /// `classes × (features + 1)` weights; last column is the intercept.
    weights: Vec<Vec<f64>>,
    n_classes: usize,
}

/// Multinomial (softmax) logistic regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlr {
    ridge: f64,
    max_iters: usize,
    learning_rate: f64,
    tolerance: f64,
    fitted: Option<Fitted>,
}

impl Mlr {
    /// Default ridge (L2) coefficient, matching WEKA `Logistic -R 1e-8`
    /// in spirit (small, numerical-stability-only).
    pub const DEFAULT_RIDGE: f64 = 1e-6;
    /// Default gradient-descent iteration cap.
    pub const DEFAULT_MAX_ITERS: usize = 600;

    /// A new unfitted MLR with default hyperparameters.
    pub fn new() -> Mlr {
        Mlr {
            ridge: Self::DEFAULT_RIDGE,
            max_iters: Self::DEFAULT_MAX_ITERS,
            learning_rate: 0.5,
            tolerance: 1e-7,
            fitted: None,
        }
    }

    /// Sets the ridge coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `ridge < 0`.
    pub fn with_ridge(mut self, ridge: f64) -> Mlr {
        assert!(ridge >= 0.0, "ridge must be nonnegative");
        self.ridge = ridge;
        self
    }

    /// The fitted weight matrix (`classes × (features + 1)`), if fitted.
    pub fn weights(&self) -> Option<&[Vec<f64>]> {
        self.fitted.as_ref().map(|f| f.weights.as_slice())
    }

    /// Fitted `(inputs, classes)` shape, if fitted (and `None` for a
    /// deserialized weight matrix too malformed to have one).
    pub fn shape(&self) -> Option<(usize, usize)> {
        let f = self.fitted.as_ref()?;
        Some((f.weights.first()?.len().checked_sub(1)?, f.weights.len()))
    }
}

impl Default for Mlr {
    fn default() -> Self {
        Mlr::new()
    }
}

/// Softmax over `logits` in place: max-shift for stability, then one
/// left-to-right exponentiate-and-sum pass, then normalize. The training
/// loops and predict paths of MLR and MLP call this on reused buffers;
/// `#[inline]` lets MLP's per-sample training loop inline it across
/// codegen units.
#[inline]
pub(crate) fn softmax_in_place(logits: &mut [f64]) {
    let m = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for l in logits.iter_mut() {
        *l = (*l - m).exp();
        sum += *l;
    }
    for l in logits.iter_mut() {
        *l /= sum;
    }
}

thread_local! {
    /// Reused standardized-input scratch for the allocation-free
    /// `predict_proba_into` path.
    static MLR_Z: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };

    /// Reused `(standardized columns, class-major accumulators)` scratch
    /// for the batched projection — capacity persists across batches so
    /// steady-state batch scoring performs no heap allocation.
    static MLR_BATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl Classifier for Mlr {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        if data.len() < 2 {
            return Err(TrainError::TooFewInstances {
                needed: 2,
                got: data.len(),
            });
        }
        let d = data.n_features();
        let k = data.n_classes();
        let n = data.len() as f64;
        let standardizer = Standardizer::fit(data);
        let z = standardizer.transform(data);

        let mut weights = vec![vec![0.0; d + 1]; k];
        // Iteration scratch, allocated once: gradients are zeroed in place
        // each iteration and the per-sample probability buffer is rewritten
        // per sample, instead of reallocating both ~iters × n times. Write
        // order matches the historical `collect`s, so fits are bit-identical.
        let mut grad = vec![vec![0.0; d + 1]; k];
        let mut probs = vec![0.0; k];
        let mut prev_loss = f64::INFINITY;
        let mut lr = self.learning_rate;

        for _ in 0..self.max_iters {
            // Forward pass + gradient accumulation.
            for g in &mut grad {
                g.fill(0.0);
            }
            let mut loss = 0.0;
            for i in 0..z.len() {
                let x = z.features_of(i);
                let y = z.label_of(i);
                for (pc, w) in probs.iter_mut().zip(&weights) {
                    let mut a = w[d];
                    for (wi, xi) in w[..d].iter().zip(x) {
                        a += wi * xi;
                    }
                    *pc = a;
                }
                softmax_in_place(&mut probs);
                loss -= probs[y].max(1e-300).ln();
                for c in 0..k {
                    let delta = probs[c] - f64::from(c == y);
                    for (g, xi) in grad[c][..d].iter_mut().zip(x) {
                        *g += delta * xi;
                    }
                    grad[c][d] += delta;
                }
            }
            loss /= n;
            // Ridge on non-intercept weights.
            for w in &weights {
                loss += self.ridge * w[..d].iter().map(|v| v * v).sum::<f64>() / 2.0;
            }

            // Backtracking-ish step control: halve lr when loss worsens.
            if loss > prev_loss + 1e-12 {
                lr *= 0.5;
                if lr < 1e-6 {
                    break;
                }
            } else if (prev_loss - loss).abs() < self.tolerance {
                break;
            }
            prev_loss = loss;

            for c in 0..k {
                for j in 0..d {
                    weights[c][j] -= lr * (grad[c][j] / n + self.ridge * weights[c][j]);
                }
                weights[c][d] -= lr * grad[c][d] / n;
            }
        }

        if weights.iter().flatten().any(|w| !w.is_finite()) {
            return Err(TrainError::Unfittable(
                "gradient descent diverged to non-finite weights".into(),
            ));
        }

        self.fitted = Some(Fitted {
            standardizer,
            weights,
            n_classes: k,
        });
        Ok(())
    }

    // hmd-analyze: hot-path
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let f = self.fitted.as_ref().expect("MLR not fitted");
        assert_eq!(
            out.len(),
            f.n_classes,
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            f.n_classes
        );
        MLR_Z.with(|z| {
            let mut z = z.borrow_mut();
            f.standardizer.transform_row_into(x, &mut z);
            let d = z.len();
            for (o, w) in out.iter_mut().zip(&f.weights) {
                let mut a = w[d];
                for (wi, xi) in w[..d].iter().zip(z.iter()) {
                    a += wi * xi;
                }
                *o = a;
            }
        });
        softmax_in_place(out);
    }

    // Batched projection + row-wise in-place softmax. This is a
    // matmul-shaped kernel (`lanes × (d+1)` inputs against the transposed
    // weight matrix) written out by hand rather than through
    // `Matrix::matmul_into`, because that routine skips `a == 0.0`
    // contributions and accumulates with the intercept last — both of
    // which would break the bit-identity contract against the scalar path
    // (a skipped `0 × NaN` no longer poisons, and a reordered fold rounds
    // differently). Here every lane runs the exact scalar op sequence:
    // standardize, `a = w[d]`, then `a += wᵢ·zᵢ` in feature order, then
    // the same max-shifted softmax.
    // hmd-analyze: hot-path
    fn predict_proba_batch_into(&self, batch: &BatchScratch, out: &mut [f64]) {
        let f = self.fitted.as_ref().expect("MLR not fitted");
        let lanes = batch.n_lanes();
        let d = batch.n_features();
        assert_eq!(
            out.len(),
            lanes * f.n_classes,
            "predict_proba_batch_into: out has {} slots for {} lanes × {} classes",
            out.len(),
            lanes,
            f.n_classes
        );
        let lanes = batch.n_lanes();
        let k = f.n_classes;
        MLR_BATCH.with(|scratch| {
            let (zcols, acc) = &mut *scratch.borrow_mut();
            // Standardize column-major: each feature's column streams
            // contiguously through the same `(v - mean) / std` expression
            // the scalar path applies, so the bits match a per-row
            // transform.
            zcols.clear();
            zcols.resize(d * lanes, 0.0);
            for j in 0..d {
                f.standardizer.transform_col_into(
                    j,
                    batch.col(j),
                    &mut zcols[j * lanes..(j + 1) * lanes],
                );
            }
            // Class-major accumulators: every `(lane, class)` accumulator
            // folds intercept first and features in ascending order —
            // exactly the scalar op sequence, so the sums round
            // identically. Lanes are processed in register-width blocks
            // per class, with the whole block's accumulators seeded from
            // the intercept and held in registers across the feature loop
            // (independent lanes on a contiguous stream — vectorizable and
            // free of the per-feature load/store round trip; the scalar
            // dot is a single serial dependency chain and can be
            // neither).
            const BLK: usize = 8;
            acc.clear();
            acc.resize(k * lanes, 0.0);
            for (c, w) in f.weights.iter().enumerate() {
                let accc = &mut acc[c * lanes..(c + 1) * lanes];
                let mut lane0 = 0usize;
                while lane0 + BLK <= lanes {
                    let mut regs = [w[d]; BLK];
                    for (j, &wj) in w[..d].iter().enumerate() {
                        let zc = &zcols[j * lanes + lane0..j * lanes + lane0 + BLK];
                        for (a, zi) in regs.iter_mut().zip(zc) {
                            *a += wj * zi;
                        }
                    }
                    accc[lane0..lane0 + BLK].copy_from_slice(&regs);
                    lane0 += BLK;
                }
                // Remainder lanes: the same fold, one lane at a time.
                for lane in lane0..lanes {
                    let mut a = w[d];
                    for (j, &wj) in w[..d].iter().enumerate() {
                        a += wj * zcols[j * lanes + lane];
                    }
                    accc[lane] = a;
                }
            }
            // Transpose each lane's logits into its row-major output slot
            // and run the same max-shifted softmax the scalar path runs.
            for (lane, out_row) in out.chunks_exact_mut(k).enumerate() {
                for (c, o) in out_row.iter_mut().enumerate() {
                    *o = acc[c * lanes + lane];
                }
                softmax_in_place(out_row);
            }
        });
    }

    fn n_classes(&self) -> usize {
        self.fitted.as_ref().expect("MLR not fitted").n_classes
    }

    fn name(&self) -> &'static str {
        "MLR"
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

    fn three_blobs() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let t = i as f64 / 20.0;
            features.push(vec![0.0 + t * 0.3, 0.0 - t * 0.2]);
            labels.push(0);
            features.push(vec![3.0 + t * 0.3, 0.0 + t * 0.2]);
            labels.push(1);
            features.push(vec![1.5 - t * 0.2, 3.0 + t * 0.3]);
            labels.push(2);
        }
        Dataset::new(features, labels, 3).unwrap()
    }

    #[test]
    fn separates_linear_blobs() {
        let data = three_blobs();
        let mut m = Mlr::new();
        m.fit(&data).unwrap();
        let correct = (0..data.len())
            .filter(|&i| m.predict(data.features_of(i)) == data.label_of(i))
            .count();
        assert_eq!(correct, data.len(), "blobs are linearly separable");
    }

    #[test]
    fn probabilities_sum_to_one_and_favour_truth() {
        let mut m = Mlr::new();
        m.fit(&three_blobs()).unwrap();
        let p = m.predict_proba(&[3.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[1] > 0.8, "confident on a deep class-1 point: {p:?}");
    }

    #[test]
    fn binary_problem_works() {
        let data = Dataset::new(
            vec![vec![0.0], vec![0.5], vec![2.0], vec![2.5]],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        let mut m = Mlr::new();
        m.fit(&data).unwrap();
        assert_eq!(m.predict(&[0.1]), 0);
        assert_eq!(m.predict(&[2.4]), 1);
        assert_eq!(m.shape(), Some((1, 2)));
        // A deserialized weight matrix with no rows has no shape rather
        // than a panic: snapshot validation asks on untrusted input.
        m.fitted.as_mut().unwrap().weights.clear();
        assert_eq!(m.shape(), None);
    }

    #[test]
    fn heavier_ridge_shrinks_weights() {
        let data = three_blobs();
        let mut loose = Mlr::new().with_ridge(1e-8);
        let mut tight = Mlr::new().with_ridge(1.0);
        loose.fit(&data).unwrap();
        tight.fit(&data).unwrap();
        let norm = |m: &Mlr| -> f64 {
            m.weights()
                .unwrap()
                .iter()
                .flat_map(|w| w.iter())
                .map(|v| v * v)
                .sum()
        };
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    fn deterministic_training() {
        let data = three_blobs();
        let mut a = Mlr::new();
        let mut b = Mlr::new();
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        Mlr::new().predict(&[0.0]);
    }

    #[test]
    fn single_class_degenerates_gracefully() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![0, 0], 2).unwrap();
        let mut m = Mlr::new();
        m.fit(&data).unwrap();
        assert_eq!(m.predict(&[1.5]), 0);
    }
}
