//! Deterministic weight initialization.
//!
//! Experiments in EXPERIMENTS.md must be byte-reproducible, so every
//! initializer takes an explicit RNG; the workspace standardizes on
//! [`rand_chacha::ChaCha8Rng`] streams derived from a single experiment
//! seed.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::Tensor;

/// Weight-initialization scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (biases, batch-norm shift).
    Zeros,
    /// All ones (batch-norm scale).
    Ones,
    /// Uniform on `[-limit, limit]`.
    Uniform {
        /// Half-width of the interval.
        limit: f32,
    },
    /// Gaussian with the given standard deviation.
    Normal {
        /// Standard deviation.
        std: f32,
    },
    /// Xavier/Glorot uniform: `limit = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// He (Kaiming) normal: `std = sqrt(2 / fan_in)` — the right choice in
    /// front of ReLU nonlinearities, used for all conv/dense weights here.
    HeNormal,
}

impl Init {
    /// Materializes a tensor of `shape` using fan statistics `fan_in` /
    /// `fan_out` (callers compute fans from the layer geometry).
    pub fn materialize(
        self,
        shape: &[usize],
        fan_in: usize,
        fan_out: usize,
        rng: &mut impl Rng,
    ) -> Tensor {
        let len: usize = shape.iter().product();
        let data: Vec<f32> = match self {
            Init::Zeros => vec![0.0; len],
            Init::Ones => vec![1.0; len],
            Init::Uniform { limit } => (0..len).map(|_| rng.gen_range(-limit..=limit)).collect(),
            Init::Normal { std } => (0..len).map(|_| gaussian(rng) * std).collect(),
            Init::XavierUniform => {
                let limit = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                (0..len).map(|_| rng.gen_range(-limit..=limit)).collect()
            }
            Init::HeNormal => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                (0..len).map(|_| gaussian(rng) * std).collect()
            }
        };
        Tensor::from_vec(data, shape).expect("init: shape/len always consistent")
    }
}

/// Standard normal sample via Box–Muller.
///
/// `rand_distr` is not in the offline allow-list, so we carry the 6-line
/// transform ourselves.
pub fn gaussian(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Derives a named RNG stream from a base seed.
///
/// Each component (model init, data generation, defect injection, probe
/// init…) gets its own stream so that changing one does not perturb the
/// others — the key property for controlled experiments.
pub fn stream_rng(base_seed: u64, stream: &str) -> ChaCha8Rng {
    // FNV-1a over the stream name, folded into the seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ChaCha8Rng::seed_from_u64(base_seed ^ h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let mut rng = stream_rng(1, "t");
        let z = Init::Zeros.materialize(&[3, 3], 3, 3, &mut rng);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Init::Ones.materialize(&[3], 3, 3, &mut rng);
        assert!(o.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn he_normal_has_expected_scale() {
        let mut rng = stream_rng(42, "he");
        let t = Init::HeNormal.materialize(&[10_000], 50, 10, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        let expected = 2.0 / 50.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var - expected).abs() / expected < 0.15,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn xavier_uniform_within_limit() {
        let mut rng = stream_rng(7, "xavier");
        let t = Init::XavierUniform.materialize(&[1000], 30, 30, &mut rng);
        let limit = (6.0f32 / 60.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= limit + 1e-6));
        assert!(t.max() > limit * 0.8); // actually spans the range
    }

    #[test]
    fn stream_rng_is_deterministic_and_stream_separated() {
        let a: Vec<u32> = {
            let mut r = stream_rng(9, "model");
            (0..4).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = stream_rng(9, "model");
            (0..4).map(|_| r.gen()).collect()
        };
        let c: Vec<u32> = {
            let mut r = stream_rng(9, "data");
            (0..4).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gaussian_is_standardish() {
        let mut rng = stream_rng(3, "g");
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
