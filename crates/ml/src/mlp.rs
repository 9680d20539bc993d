//! MLP: a feed-forward multilayer perceptron (WEKA's
//! `MultilayerPerceptron`).
//!
//! One sigmoid hidden layer sized by WEKA's `a` rule —
//! `(attributes + classes) / 2` — a softmax output layer trained by
//! stochastic gradient descent with momentum on cross-entropy loss, and
//! WEKA-faithful min-max input normalization to `[-1, 1]`. The paper finds MLP to be the
//! strongest (and most expensive) stage-2 classifier, prone to overfitting
//! when boosted — behaviour this implementation reproduces.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::mlp::Mlp;
//! use hmd_ml::classifier::Classifier;
//! use hmd_ml::data::Dataset;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0, 0.1], vec![0.1, 0.0], vec![0.9, 1.0], vec![1.0, 0.9]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut net = Mlp::new(1).with_epochs(200);
//! net.fit(&data)?;
//! assert_eq!(net.predict(&[0.95, 0.95]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::classifier::{Classifier, TrainError};
use crate::data::{Dataset, MinMaxScaler};
use crate::logistic::softmax_in_place;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fitted {
    scaler: MinMaxScaler,
    /// Hidden weights: `hidden × (inputs + 1)`, last column is the bias.
    w_hidden: Vec<Vec<f64>>,
    /// Output weights: `classes × (hidden + 1)`, last column is the bias.
    w_output: Vec<Vec<f64>>,
    n_classes: usize,
}

/// The multilayer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    seed: u64,
    hidden: Option<usize>,
    learning_rate: f64,
    momentum: f64,
    epochs: usize,
    fitted: Option<Fitted>,
}

impl Mlp {
    /// WEKA's default learning rate (`-L 0.3`).
    pub const DEFAULT_LEARNING_RATE: f64 = 0.3;
    /// WEKA's default momentum (`-M 0.2`).
    pub const DEFAULT_MOMENTUM: f64 = 0.2;
    /// Training epochs (WEKA's `-N 500`).
    pub const DEFAULT_EPOCHS: usize = 500;

    /// A new unfitted MLP with WEKA-default hyperparameters; hidden size is
    /// the `a` rule unless overridden.
    pub fn new(seed: u64) -> Mlp {
        Mlp {
            seed,
            hidden: None,
            learning_rate: Self::DEFAULT_LEARNING_RATE,
            momentum: Self::DEFAULT_MOMENTUM,
            epochs: Self::DEFAULT_EPOCHS,
            fitted: None,
        }
    }

    /// Sets an explicit hidden-layer size.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0`.
    pub fn with_hidden(mut self, hidden: usize) -> Mlp {
        assert!(hidden > 0, "hidden layer needs at least one unit");
        self.hidden = Some(hidden);
        self
    }

    /// Sets the number of training epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0`.
    pub fn with_epochs(mut self, epochs: usize) -> Mlp {
        assert!(epochs > 0, "need at least one epoch");
        self.epochs = epochs;
        self
    }

    /// Sets the SGD learning rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < learning_rate <= 1`.
    pub fn with_learning_rate(mut self, learning_rate: f64) -> Mlp {
        assert!(
            learning_rate > 0.0 && learning_rate <= 1.0,
            "learning rate must be in (0, 1], got {learning_rate}"
        );
        self.learning_rate = learning_rate;
        self
    }

    /// Hidden-layer size the model will use for `d` inputs and `k` classes
    /// (WEKA's `a` rule when not overridden).
    pub fn hidden_size(&self, d: usize, k: usize) -> usize {
        self.hidden.unwrap_or(((d + k) / 2).max(2))
    }

    /// Fitted network topology `(inputs, hidden, outputs)`, if fitted (and
    /// `None` for deserialized weights too malformed to have one).
    pub fn topology(&self) -> Option<(usize, usize, usize)> {
        let f = self.fitted.as_ref()?;
        let inputs = f.w_hidden.first()?.len().checked_sub(1)?;
        Some((inputs, f.w_hidden.len(), f.w_output.len()))
    }
}

fn sigmoid(a: f64) -> f64 {
    1.0 / (1.0 + (-a).exp())
}

thread_local! {
    /// Reused (scaled input, hidden activation) scratch for the
    /// allocation-free `predict_proba_into` path.
    static MLP_SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl Classifier for Mlp {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        if data.len() < 2 {
            return Err(TrainError::TooFewInstances {
                needed: 2,
                got: data.len(),
            });
        }
        let d = data.n_features();
        let k = data.n_classes();
        let h = self.hidden_size(d, k);
        let mut rng = StdRng::seed_from_u64(self.seed);

        let scaler = MinMaxScaler::fit(data);
        let z = scaler.transform(data);

        let init = |fan_in: usize, rng: &mut StdRng| -> Vec<f64> {
            let scale = 1.0 / (fan_in as f64).sqrt();
            (0..=fan_in).map(|_| rng.gen_range(-scale..scale)).collect()
        };
        let mut w_hidden: Vec<Vec<f64>> = (0..h).map(|_| init(d, &mut rng)).collect();
        let mut w_output: Vec<Vec<f64>> = (0..k).map(|_| init(h, &mut rng)).collect();
        let mut v_hidden = vec![vec![0.0; d + 1]; h];
        let mut v_output = vec![vec![0.0; h + 1]; k];

        let mut order: Vec<usize> = (0..z.len()).collect();
        // Per-sample scratch, allocated once: the epoch loop writes into
        // these buffers instead of collecting ~epochs × n fresh Vecs. Each
        // write sequence matches the historical per-sample `collect`s
        // element for element, so training is bit-identical.
        let mut hidden = vec![0.0; h];
        let mut probs = vec![0.0; k];
        let mut delta_out = vec![0.0; k];
        let mut delta_hidden = vec![0.0; h];
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let x = z.features_of(i);
                let y = z.label_of(i);

                // Forward.
                for (hj, w) in hidden.iter_mut().zip(&w_hidden) {
                    let mut a = w[d];
                    for (wi, xi) in w[..d].iter().zip(x) {
                        a += wi * xi;
                    }
                    *hj = sigmoid(a);
                }
                for (pc, w) in probs.iter_mut().zip(&w_output) {
                    let mut a = w[h];
                    for (wi, hi) in w[..h].iter().zip(&hidden) {
                        a += wi * hi;
                    }
                    *pc = a;
                }
                softmax_in_place(&mut probs);

                // Backward: output deltas are (p - 1{y}).
                for (c, (dc, p)) in delta_out.iter_mut().zip(&probs).enumerate() {
                    *dc = p - f64::from(c == y);
                }
                // Hidden deltas.
                for (j, dh) in delta_hidden.iter_mut().enumerate() {
                    let upstream: f64 = (0..k).map(|c| delta_out[c] * w_output[c][j]).sum();
                    *dh = upstream * hidden[j] * (1.0 - hidden[j]);
                }

                // Update output layer with momentum.
                for c in 0..k {
                    for j in 0..h {
                        let g = delta_out[c] * hidden[j];
                        v_output[c][j] = self.momentum * v_output[c][j] - self.learning_rate * g;
                        w_output[c][j] += v_output[c][j];
                    }
                    v_output[c][h] =
                        self.momentum * v_output[c][h] - self.learning_rate * delta_out[c];
                    w_output[c][h] += v_output[c][h];
                }
                // Update hidden layer.
                for j in 0..h {
                    for a in 0..d {
                        let g = delta_hidden[j] * x[a];
                        v_hidden[j][a] = self.momentum * v_hidden[j][a] - self.learning_rate * g;
                        w_hidden[j][a] += v_hidden[j][a];
                    }
                    v_hidden[j][d] =
                        self.momentum * v_hidden[j][d] - self.learning_rate * delta_hidden[j];
                    w_hidden[j][d] += v_hidden[j][d];
                }
            }
        }

        if w_output
            .iter()
            .flatten()
            .chain(w_hidden.iter().flatten())
            .any(|w| !w.is_finite())
        {
            return Err(TrainError::Unfittable(
                "training diverged to non-finite weights".into(),
            ));
        }

        self.fitted = Some(Fitted {
            scaler,
            w_hidden,
            w_output,
            n_classes: k,
        });
        Ok(())
    }

    // hmd-analyze: hot-path
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let f = self.fitted.as_ref().expect("MLP not fitted");
        assert_eq!(
            out.len(),
            f.n_classes,
            "predict_proba_into: out has {} slots for {} classes",
            out.len(),
            f.n_classes
        );
        MLP_SCRATCH.with(|s| {
            let (z, hidden) = &mut *s.borrow_mut();
            f.scaler.transform_row_into(x, z);
            hidden.clear();
            hidden.extend(f.w_hidden.iter().map(|w| {
                let mut a = w[w.len() - 1]; // bias
                for (wi, xi) in w[..w.len() - 1].iter().zip(z.iter()) {
                    a += wi * xi;
                }
                sigmoid(a)
            }));
            for (o, w) in out.iter_mut().zip(&f.w_output) {
                let mut a = w[w.len() - 1];
                for (wi, hi) in w[..w.len() - 1].iter().zip(hidden.iter()) {
                    a += wi * hi;
                }
                *o = a;
            }
        });
        softmax_in_place(out);
    }

    fn n_classes(&self) -> usize {
        self.fitted.as_ref().expect("MLP not fitted").n_classes
    }

    fn name(&self) -> &'static str {
        "MLP"
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

    fn xor() -> Dataset {
        // Classic non-linearly-separable problem, 4 corners × repeats.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for rep in 0..6 {
            let eps = rep as f64 * 0.01;
            for (x, y, l) in [
                (0.0, 0.0, 0usize),
                (0.0, 1.0, 1),
                (1.0, 0.0, 1),
                (1.0, 1.0, 0),
            ] {
                features.push(vec![x + eps, y - eps]);
                labels.push(l);
            }
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn solves_xor() {
        let data = xor();
        let mut net = Mlp::new(5).with_hidden(6).with_epochs(800);
        net.fit(&data).unwrap();
        assert_eq!(net.predict(&[0.0, 0.0]), 0);
        assert_eq!(net.predict(&[1.0, 0.0]), 1);
        assert_eq!(net.predict(&[0.0, 1.0]), 1);
        assert_eq!(net.predict(&[1.0, 1.0]), 0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut net = Mlp::new(0).with_epochs(50);
        net.fit(&xor()).unwrap();
        let p = net.predict_proba(&[0.5, 0.5]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn weka_a_rule_hidden_size() {
        let net = Mlp::new(0);
        assert_eq!(net.hidden_size(4, 2), 3);
        assert_eq!(net.hidden_size(16, 5), 10);
        assert_eq!(net.hidden_size(1, 1), 2, "floor of 2 units");
        assert_eq!(Mlp::new(0).with_hidden(7).hidden_size(4, 2), 7);
    }

    #[test]
    fn topology_reported_after_fit() {
        let mut net = Mlp::new(0).with_hidden(5).with_epochs(10);
        net.fit(&xor()).unwrap();
        assert_eq!(net.topology(), Some((2, 5, 2)));
        // Deserialized weights with no hidden layer have no topology rather
        // than a panic: snapshot validation asks on untrusted input.
        net.fitted.as_mut().unwrap().w_hidden.clear();
        assert_eq!(net.topology(), None);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = xor();
        let mut a = Mlp::new(11).with_epochs(30);
        let mut b = Mlp::new(11).with_epochs(30);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.predict_proba(&[0.3, 0.7]), b.predict_proba(&[0.3, 0.7]));
    }

    #[test]
    fn different_seeds_give_different_nets() {
        let data = xor();
        let mut a = Mlp::new(1).with_epochs(30);
        let mut b = Mlp::new(2).with_epochs(30);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_ne!(a.predict_proba(&[0.3, 0.7]), b.predict_proba(&[0.3, 0.7]));
    }

    #[test]
    fn multiclass_training_works() {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let x = i as f64 / 20.0; // 0..3
            features.push(vec![x, -x]);
            labels.push((x.floor() as usize).min(2));
        }
        let data = Dataset::new(features, labels, 3).unwrap();
        let mut net = Mlp::new(3).with_epochs(300);
        net.fit(&data).unwrap();
        assert_eq!(net.predict(&[0.5, -0.5]), 0);
        assert_eq!(net.predict(&[1.5, -1.5]), 1);
        assert_eq!(net.predict(&[2.5, -2.5]), 2);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        Mlp::new(0).predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_learning_rate_panics() {
        Mlp::new(0).with_learning_rate(0.0);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut p = vec![1000.0, 1000.0, 0.0];
        softmax_in_place(&mut p);
        assert!((p[0] - 0.5).abs() < 1e-9);
        assert!(p[2] < 1e-9);
        assert!(p.iter().all(|v| v.is_finite()));
    }
}
