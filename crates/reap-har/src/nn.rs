//! A small multi-layer perceptron with softmax output and SGD training.
//!
//! The paper classifies activity windows with "a parameterized neural
//! network" whose structure (e.g. `4x12x7`) is one of the design-point
//! knobs. The networks involved are tiny — at most a few hundred weights —
//! so a dependency-free dense implementation with ReLU hidden units,
//! softmax cross-entropy loss, and momentum SGD is entirely adequate and
//! mirrors what runs on the MCU.

// Index-based loops below mirror the textbook linear-algebra notation;
// iterator rewrites would obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::HarError;

/// A dense feed-forward network: ReLU hidden layers, softmax output.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    sizes: Vec<usize>,
    /// `weights[l]` is a `sizes[l+1] x sizes[l]` matrix, row-major.
    weights: Vec<Vec<f64>>,
    /// `biases[l]` has `sizes[l+1]` entries.
    biases: Vec<Vec<f64>>,
}

/// Hyper-parameters for [`Mlp::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub l2: f64,
    /// Seed for weight init and epoch shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 80,
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 32,
            l2: 1e-4,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A reduced-budget preset for tests and doctests: fewer epochs, same
    /// optimizer settings.
    #[must_use]
    pub fn fast(seed: u64) -> Self {
        TrainConfig {
            epochs: 25,
            seed,
            ..TrainConfig::default()
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Mean cross-entropy loss before training.
    pub initial_loss: f64,
    /// Mean cross-entropy loss after the final epoch.
    pub final_loss: f64,
    /// Epochs actually run.
    pub epochs: usize,
}

impl Mlp {
    /// Creates a network with the given layer sizes (`[input, hidden...,
    /// output]`) and Xavier-uniform initial weights.
    ///
    /// # Errors
    ///
    /// [`HarError::InvalidConfig`] if fewer than two sizes are given or any
    /// size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Result<Mlp, HarError> {
        if sizes.len() < 2 {
            return Err(HarError::InvalidConfig(
                "network needs at least input and output layers".into(),
            ));
        }
        if sizes.contains(&0) {
            return Err(HarError::InvalidConfig("layer size cannot be zero".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::with_capacity(sizes.len() - 1);
        let mut biases = Vec::with_capacity(sizes.len() - 1);
        for l in 0..sizes.len() - 1 {
            let (n_in, n_out) = (sizes[l], sizes[l + 1]);
            let limit = (6.0 / (n_in + n_out) as f64).sqrt();
            weights.push(
                (0..n_in * n_out)
                    .map(|_| rng.gen_range(-limit..limit))
                    .collect(),
            );
            biases.push(vec![0.0; n_out]);
        }
        Ok(Mlp {
            sizes: sizes.to_vec(),
            weights,
            biases,
        })
    }

    /// Layer sizes, `[input, hidden..., output]`.
    #[must_use]
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Raw layer weights (row-major `sizes[l+1] x sizes[l]`), for the
    /// quantizer.
    pub(crate) fn raw_weights(&self) -> &[Vec<f64>] {
        &self.weights
    }

    /// Raw layer biases, for the quantizer.
    pub(crate) fn raw_biases(&self) -> &[Vec<f64>] {
        &self.biases
    }

    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Number of output classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        *self.sizes.last().expect("at least two layers")
    }

    /// Forward pass returning all layer activations (post-nonlinearity);
    /// `activations[0]` is the input, the last entry the softmax output.
    fn forward_trace(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut activations = Vec::with_capacity(self.sizes.len());
        activations.push(x.to_vec());
        let last = self.weights.len() - 1;
        for l in 0..self.weights.len() {
            let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
            let input = &activations[l];
            let mut z = vec![0.0; n_out];
            for o in 0..n_out {
                let row = &self.weights[l][o * n_in..(o + 1) * n_in];
                let mut acc = self.biases[l][o];
                for (w, v) in row.iter().zip(input) {
                    acc += w * v;
                }
                z[o] = acc;
            }
            if l == last {
                softmax_in_place(&mut z);
            } else {
                for v in &mut z {
                    *v = v.max(0.0); // ReLU
                }
            }
            activations.push(z);
        }
        activations
    }

    /// Class probabilities for one input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::input_dim`].
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.input_dim(),
            "input dimension {} does not match network input {}",
            x.len(),
            self.input_dim()
        );
        self.forward_trace(x).pop().expect("at least one layer")
    }

    /// Index of the most probable class.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::input_dim`].
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> usize {
        let probs = self.forward(x);
        argmax(&probs)
    }

    /// Mean cross-entropy loss over a labeled set (no regularization term).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` lengths differ or labels are out of range.
    #[must_use]
    pub fn mean_loss(&self, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (x, &y) in xs.iter().zip(ys) {
            assert!(y < self.num_classes(), "label {y} out of range");
            let p = self.forward(x)[y].max(1e-12);
            total -= p.ln();
        }
        total / xs.len() as f64
    }

    /// Classification accuracy over a labeled set in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` lengths differ.
    #[must_use]
    pub fn accuracy(&self, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / xs.len() as f64
    }

    /// Backpropagation over a batch: returns `(weight_grads, bias_grads,
    /// mean_loss)`, gradients averaged over the batch (without L2).
    fn backprop_batch(
        &self,
        xs: &[&Vec<f64>],
        ys: &[usize],
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, f64) {
        let mut w_grads: Vec<Vec<f64>> = self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut b_grads: Vec<Vec<f64>> = self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
        let mut loss = 0.0;
        let batch = xs.len() as f64;

        for (x, &y) in xs.iter().zip(ys) {
            let activations = self.forward_trace(x);
            let probs = activations.last().expect("output layer");
            loss -= probs[y].max(1e-12).ln();

            // Output delta for softmax + cross-entropy: p - onehot(y).
            let mut delta: Vec<f64> = probs.clone();
            delta[y] -= 1.0;

            for l in (0..self.weights.len()).rev() {
                let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
                let input = &activations[l];
                for o in 0..n_out {
                    let d = delta[o];
                    if d != 0.0 {
                        let row = &mut w_grads[l][o * n_in..(o + 1) * n_in];
                        for (g, v) in row.iter_mut().zip(input) {
                            *g += d * v / batch;
                        }
                        b_grads[l][o] += d / batch;
                    }
                }
                if l > 0 {
                    // Propagate through the ReLU of layer l-1's output.
                    let mut prev = vec![0.0; n_in];
                    for (i, p) in prev.iter_mut().enumerate() {
                        if input[i] > 0.0 {
                            let mut acc = 0.0;
                            for (o, &d) in delta.iter().enumerate() {
                                acc += d * self.weights[l][o * n_in + i];
                            }
                            *p = acc;
                        }
                    }
                    delta = prev;
                }
            }
        }
        (w_grads, b_grads, loss / batch)
    }

    /// Trains the network with mini-batch momentum SGD and cross-entropy
    /// loss.
    ///
    /// # Errors
    ///
    /// * [`HarError::EmptyTrainingSet`] when `xs` is empty.
    /// * [`HarError::FeatureDimension`] if any sample's dimension differs
    ///   from the network input.
    /// * [`HarError::InvalidConfig`] for a zero batch size, zero epochs, or
    ///   labels out of range.
    pub fn train(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[usize],
        config: &TrainConfig,
    ) -> Result<TrainStats, HarError> {
        if xs.is_empty() {
            return Err(HarError::EmptyTrainingSet);
        }
        if xs.len() != ys.len() {
            return Err(HarError::InvalidConfig(format!(
                "{} samples but {} labels",
                xs.len(),
                ys.len()
            )));
        }
        if config.batch_size == 0 || config.epochs == 0 {
            return Err(HarError::InvalidConfig(
                "batch size and epochs must be positive".into(),
            ));
        }
        for x in xs {
            if x.len() != self.input_dim() {
                return Err(HarError::FeatureDimension {
                    expected: self.input_dim(),
                    got: x.len(),
                });
            }
        }
        if ys.iter().any(|&y| y >= self.num_classes()) {
            return Err(HarError::InvalidConfig("label out of range".into()));
        }

        let initial_loss = self.mean_loss(xs, ys);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xA5A5));
        let mut w_vel: Vec<Vec<f64>> = self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut b_vel: Vec<Vec<f64>> = self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
        let mut order: Vec<usize> = (0..xs.len()).collect();

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size) {
                let bx: Vec<&Vec<f64>> = chunk.iter().map(|&i| &xs[i]).collect();
                let by: Vec<usize> = chunk.iter().map(|&i| ys[i]).collect();
                let (w_grads, b_grads, _) = self.backprop_batch(&bx, &by);
                for l in 0..self.weights.len() {
                    for (i, g) in w_grads[l].iter().enumerate() {
                        let decay = config.l2 * self.weights[l][i];
                        w_vel[l][i] =
                            config.momentum * w_vel[l][i] - config.learning_rate * (g + decay);
                        self.weights[l][i] += w_vel[l][i];
                    }
                    for (i, g) in b_grads[l].iter().enumerate() {
                        b_vel[l][i] = config.momentum * b_vel[l][i] - config.learning_rate * g;
                        self.biases[l][i] += b_vel[l][i];
                    }
                }
            }
        }

        Ok(TrainStats {
            initial_loss,
            final_loss: self.mean_loss(xs, ys),
            epochs: config.epochs,
        })
    }
}

/// Numerically stable in-place softmax.
fn softmax_in_place(z: &mut [f64]) {
    let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in z.iter_mut() {
        *v /= sum;
    }
}

/// Index of the largest element.
fn argmax(x: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Mlp {
        /// Total trainable parameters.
        fn num_params(&self) -> usize {
            self.weights.iter().map(Vec::len).sum::<usize>()
                + self.biases.iter().map(Vec::len).sum::<usize>()
        }
    }

    #[test]
    fn construction_validates_sizes() {
        assert!(Mlp::new(&[4], 0).is_err());
        assert!(Mlp::new(&[4, 0, 2], 0).is_err());
        let net = Mlp::new(&[4, 8, 3], 0).unwrap();
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn softmax_output_is_a_distribution() {
        let net = Mlp::new(&[5, 6, 4], 1).unwrap();
        let p = net.forward(&[0.3, -1.0, 2.0, 0.0, 0.7]);
        assert_eq!(p.len(), 4);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "input dimension")]
    fn forward_rejects_wrong_dimension() {
        let net = Mlp::new(&[5, 4], 1).unwrap();
        let _ = net.forward(&[1.0, 2.0]);
    }

    #[test]
    fn analytic_gradients_match_numerical() {
        // Finite-difference check on a tiny network over a small batch.
        let mut net = Mlp::new(&[3, 4, 2], 7).unwrap();
        let xs = vec![
            vec![0.5, -0.2, 0.8],
            vec![-1.0, 0.3, 0.1],
            vec![0.0, 1.0, -0.5],
        ];
        let ys = vec![0usize, 1, 0];
        let refs: Vec<&Vec<f64>> = xs.iter().collect();
        let (w_grads, b_grads, _) = net.backprop_batch(&refs, &ys);

        let eps = 1e-6;
        for l in 0..net.weights.len() {
            for i in 0..net.weights[l].len() {
                let orig = net.weights[l][i];
                net.weights[l][i] = orig + eps;
                let up = net.mean_loss(&xs, &ys);
                net.weights[l][i] = orig - eps;
                let down = net.mean_loss(&xs, &ys);
                net.weights[l][i] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - w_grads[l][i]).abs() < 1e-5,
                    "weight grad mismatch at layer {l} index {i}: {numeric} vs {}",
                    w_grads[l][i]
                );
            }
            for i in 0..net.biases[l].len() {
                let orig = net.biases[l][i];
                net.biases[l][i] = orig + eps;
                let up = net.mean_loss(&xs, &ys);
                net.biases[l][i] = orig - eps;
                let down = net.mean_loss(&xs, &ys);
                net.biases[l][i] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - b_grads[l][i]).abs() < 1e-5,
                    "bias grad mismatch at layer {l} index {i}"
                );
            }
        }
    }

    #[test]
    fn learns_xor() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0usize, 1, 1, 0];
        // XOR is not linearly separable; a hidden layer must crack it.
        // Try a few seeds: tiny nets can get stuck in a dead-ReLU corner.
        let config = TrainConfig {
            epochs: 3000,
            learning_rate: 0.1,
            momentum: 0.9,
            batch_size: 4,
            l2: 0.0,
            seed: 3,
        };
        let solved = (0..5).any(|seed| {
            let mut net = Mlp::new(&[2, 6, 2], seed).unwrap();
            net.train(&xs, &ys, &config).unwrap();
            net.accuracy(&xs, &ys) == 1.0
        });
        assert!(solved, "no seed learned XOR");
    }

    #[test]
    fn training_reduces_loss_on_separable_blobs() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let t = i as f64 / 10.0;
            xs.push(vec![2.0 + t.sin() * 0.1, 2.0 + t.cos() * 0.1]);
            ys.push(0);
            xs.push(vec![-2.0 + t.sin() * 0.1, -2.0 + t.cos() * 0.1]);
            ys.push(1);
        }
        let mut net = Mlp::new(&[2, 4, 2], 0).unwrap();
        let stats = net.train(&xs, &ys, &TrainConfig::fast(0)).unwrap();
        assert!(stats.final_loss < stats.initial_loss);
        assert!(net.accuracy(&xs, &ys) > 0.95);
    }

    #[test]
    fn train_validates_inputs() {
        let mut net = Mlp::new(&[2, 2], 0).unwrap();
        assert_eq!(
            net.train(&[], &[], &TrainConfig::default()).unwrap_err(),
            HarError::EmptyTrainingSet
        );
        let bad_dim = net.train(&[vec![1.0]], &[0], &TrainConfig::default());
        assert!(matches!(bad_dim, Err(HarError::FeatureDimension { .. })));
        let bad_label = net.train(&[vec![1.0, 2.0]], &[5], &TrainConfig::default());
        assert!(matches!(bad_label, Err(HarError::InvalidConfig(_))));
        let zero_batch = net.train(
            &[vec![1.0, 2.0]],
            &[0],
            &TrainConfig {
                batch_size: 0,
                ..TrainConfig::default()
            },
        );
        assert!(matches!(zero_batch, Err(HarError::InvalidConfig(_))));
    }

    #[test]
    fn training_is_deterministic() {
        let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let ys = vec![0usize, 1];
        let make = || {
            let mut net = Mlp::new(&[2, 3, 2], 9).unwrap();
            net.train(&xs, &ys, &TrainConfig::fast(9)).unwrap();
            net
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[0.1, 0.5, 0.5, 0.2]), 1);
        assert_eq!(argmax(&[3.0]), 0);
    }
}
