//! Weight-quantized inference.
//!
//! A CC2650-class MCU stores classifier weights in flash; quantizing them
//! to small integers shrinks the image by 4-8x and is how the paper-style
//! "parameterized NN" would actually be deployed. This module implements
//! symmetric per-layer weight quantization: each layer's weights are mapped
//! to integers in `[-(2^(bits-1) - 1), 2^(bits-1) - 1]` with one f64 scale
//! per layer; inference dequantizes on the fly (the arithmetic itself stays
//! in floating point, as it would in soft-float MCU code).

use crate::nn::Mlp;
use crate::HarError;

/// A weight-quantized copy of an [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    sizes: Vec<usize>,
    /// Per-layer quantized weights, row-major like [`Mlp`]'s.
    weights: Vec<Vec<i16>>,
    /// Per-layer weight scale: `w ~= q * scale`.
    scales: Vec<f64>,
    /// Biases stay in f64 (there are only a handful; MCU code keeps them
    /// full precision too).
    biases: Vec<Vec<f64>>,
    bits: u8,
}

impl QuantizedMlp {
    /// Quantizes a trained network to `bits`-wide weights (4..=16).
    ///
    /// # Errors
    ///
    /// [`HarError::InvalidConfig`] when `bits` is outside `4..=16`.
    pub fn from_mlp(mlp: &Mlp, bits: u8) -> Result<QuantizedMlp, HarError> {
        if !(4..=16).contains(&bits) {
            return Err(HarError::InvalidConfig(format!(
                "quantization width {bits} outside 4..=16"
            )));
        }
        let q_max = f64::from((1i32 << (bits - 1)) - 1);
        let mut weights = Vec::with_capacity(mlp.raw_weights().len());
        let mut scales = Vec::with_capacity(mlp.raw_weights().len());
        for layer in mlp.raw_weights() {
            let max_abs = layer.iter().fold(0.0f64, |m, w| m.max(w.abs()));
            let scale = if max_abs > 0.0 { max_abs / q_max } else { 1.0 };
            scales.push(scale);
            weights.push(
                layer
                    .iter()
                    .map(|w| (w / scale).round().clamp(-q_max, q_max) as i16)
                    .collect(),
            );
        }
        Ok(QuantizedMlp {
            sizes: mlp.sizes().to_vec(),
            weights,
            scales,
            biases: mlp.raw_biases().to_vec(),
            bits,
        })
    }

    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Flash bytes the quantized weights occupy (packed at `bits` per
    /// weight, biases as 4-byte floats).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        let weight_bits: usize = self
            .weights
            .iter()
            .map(|l| l.len() * self.bits as usize)
            .sum();
        let bias_bytes: usize = self.biases.iter().map(|b| b.len() * 4).sum();
        weight_bits.div_ceil(8) + bias_bytes
    }

    /// Class scores (softmax-free logits are enough for argmax).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    #[must_use]
    pub fn logits(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.input_dim(),
            "input dimension {} does not match network input {}",
            x.len(),
            self.input_dim()
        );
        let last = self.weights.len() - 1;
        let mut activation = x.to_vec();
        for l in 0..self.weights.len() {
            let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
            let scale = self.scales[l];
            let mut z = vec![0.0; n_out];
            for (o, zo) in z.iter_mut().enumerate() {
                let row = &self.weights[l][o * n_in..(o + 1) * n_in];
                let mut acc = 0.0;
                for (q, v) in row.iter().zip(&activation) {
                    acc += f64::from(*q) * v;
                }
                *zo = acc * scale + self.biases[l][o];
            }
            if l != last {
                for v in &mut z {
                    *v = v.max(0.0);
                }
            }
            activation = z;
        }
        activation
    }

    /// Index of the highest-scoring class.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> usize {
        let logits = self.logits(x);
        let mut best = 0;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::TrainConfig;

    impl QuantizedMlp {
        /// Agreement rate with another predictor over a sample set.
        ///
        /// # Panics
        ///
        /// Panics on dimension mismatches.
        fn agreement(&self, float_net: &Mlp, xs: &[Vec<f64>]) -> f64 {
            if xs.is_empty() {
                return 1.0;
            }
            let same = xs
                .iter()
                .filter(|x| self.predict(x) == float_net.predict(x))
                .count();
            same as f64 / xs.len() as f64
        }
    }

    fn trained_net() -> (Mlp, Vec<Vec<f64>>, Vec<usize>) {
        // Separable blobs, as in the nn tests.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let t = i as f64 / 10.0;
            xs.push(vec![2.0 + t.sin() * 0.3, 2.0 + t.cos() * 0.3]);
            ys.push(0usize);
            xs.push(vec![-2.0 + t.sin() * 0.3, -2.0 - t.cos() * 0.3]);
            ys.push(1);
        }
        let mut net = Mlp::new(&[2, 6, 2], 3).unwrap();
        net.train(&xs, &ys, &TrainConfig::fast(3)).unwrap();
        (net, xs, ys)
    }

    #[test]
    fn rejects_bad_widths() {
        let net = Mlp::new(&[2, 2], 0).unwrap();
        assert!(QuantizedMlp::from_mlp(&net, 3).is_err());
        assert!(QuantizedMlp::from_mlp(&net, 17).is_err());
        assert!(QuantizedMlp::from_mlp(&net, 8).is_ok());
    }

    #[test]
    fn eight_bit_agrees_with_float_on_easy_data() {
        let (net, xs, ys) = trained_net();
        let q = QuantizedMlp::from_mlp(&net, 8).unwrap();
        assert!(q.agreement(&net, &xs) > 0.98, "agreement too low");
        // And accuracy survives quantization.
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| q.predict(x) == y)
            .count();
        assert!(correct as f64 / xs.len() as f64 > 0.95);
    }

    #[test]
    fn sixteen_bit_is_nearly_exact() {
        let (net, xs, _) = trained_net();
        let q = QuantizedMlp::from_mlp(&net, 16).unwrap();
        assert_eq!(q.agreement(&net, &xs), 1.0);
        // Logits track the float net closely.
        let fl = net.forward(&xs[0]);
        let ql = q.logits(&xs[0]);
        // forward() applies softmax; compare argmax ordering instead.
        let fmax = fl.iter().cloned().fold(f64::MIN, f64::max);
        let f_arg = fl.iter().position(|&v| v == fmax).unwrap();
        let qmax = ql.iter().cloned().fold(f64::MIN, f64::max);
        let q_arg = ql.iter().position(|&v| v == qmax).unwrap();
        assert_eq!(f_arg, q_arg);
    }

    #[test]
    fn narrower_widths_shrink_storage() {
        let (net, _, _) = trained_net();
        let q4 = QuantizedMlp::from_mlp(&net, 4).unwrap();
        let q8 = QuantizedMlp::from_mlp(&net, 8).unwrap();
        let q16 = QuantizedMlp::from_mlp(&net, 16).unwrap();
        assert!(q4.storage_bytes() < q8.storage_bytes());
        assert!(q8.storage_bytes() < q16.storage_bytes());
        // 8-bit weights: (2*6 + 6*2) bytes + biases (6+2)*4 = 24 + 32.
        assert_eq!(q8.storage_bytes(), 24 + 32);
        assert_eq!(q8.bits, 8);
        assert_eq!(q8.input_dim(), 2);
    }

    #[test]
    fn zero_weight_layers_are_handled() {
        let net = Mlp::new(&[2, 2], 1).unwrap();
        // Freshly initialized biases are zero; quantization must not
        // divide by zero even if a layer were all-zero.
        let q = QuantizedMlp::from_mlp(&net, 8).unwrap();
        let _ = q.predict(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "input dimension")]
    fn predict_rejects_wrong_dimension() {
        let net = Mlp::new(&[3, 2], 0).unwrap();
        let q = QuantizedMlp::from_mlp(&net, 8).unwrap();
        let _ = q.predict(&[1.0]);
    }
}
