//! Activation functions.
//!
//! Each pass splits its elements into contiguous chunks over the worker
//! pool ([`deepmorph_tensor::chunks`]) once a batch is large enough; every
//! element is computed by the same expression on whichever thread runs its
//! chunk, so results are bitwise independent of the thread count.

use deepmorph_tensor::chunks::{for_chunks2_mut, for_chunks_mut, ELEM_CHUNK, PAR_GRAIN_ELEMS};
use deepmorph_tensor::{workspace, Tensor};

use crate::dense::single_input;
use crate::layer::{Grads, Layer, Mode};
use crate::{NnError, Result};

/// Rectified linear unit, `max(0, x)`, applied elementwise.
#[derive(Debug, Default)]
pub struct ReLU {
    /// Persistent sign mask, refilled (capacity reused) each training
    /// forward.
    mask: Vec<bool>,
    has_mask: bool,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU {
            mask: Vec::new(),
            has_mask: false,
        }
    }
}

impl Layer for ReLU {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, "relu")?;
        let mut out = workspace::tensor_raw(x.shape());
        let src = x.data();
        if mode == Mode::Eval {
            for_chunks_mut(out.data_mut(), ELEM_CHUNK, PAR_GRAIN_ELEMS, |i, out| {
                for (o, &v) in out.iter_mut().zip(&src[i * ELEM_CHUNK..]) {
                    *o = v.max(0.0);
                }
            });
            return Ok(out);
        }
        // Output and sign mask in one pass.
        self.mask.resize(x.len(), false);
        self.has_mask = true;
        for_chunks2_mut(
            out.data_mut(),
            ELEM_CHUNK,
            &mut self.mask,
            ELEM_CHUNK,
            PAR_GRAIN_ELEMS,
            |i, out, mask| {
                let src = &src[i * ELEM_CHUNK..];
                for ((o, m), &v) in out.iter_mut().zip(mask).zip(src) {
                    *o = v.max(0.0);
                    *m = v > 0.0;
                }
            },
        );
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        if !self.has_mask || self.mask.len() != grad.len() {
            return Err(NnError::MissingActivation {
                layer: "relu".into(),
            });
        }
        let mut out = workspace::tensor_raw(grad.shape());
        let (g, mask) = (grad.data(), &self.mask);
        for_chunks_mut(out.data_mut(), ELEM_CHUNK, PAR_GRAIN_ELEMS, |i, out| {
            let start = i * ELEM_CHUNK;
            for ((o, &g), &keep) in out.iter_mut().zip(&g[start..]).zip(&mask[start..]) {
                *o = if keep { g } else { 0.0 };
            }
        });
        Ok(Grads::one(out))
    }

    fn clear_cache(&mut self) {
        self.mask.clear();
        self.has_mask = false;
    }
}

/// Hyperbolic tangent activation (used by the classic LeNet-5).
#[derive(Debug, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { output: None }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &str {
        "tanh"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, "tanh")?;
        let out = x.map(f32::tanh);
        if mode == Mode::Train {
            workspace::recycle_opt(self.output.replace(out.pooled_clone()));
        }
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        let y = self
            .output
            .as_ref()
            .ok_or_else(|| NnError::MissingActivation {
                layer: "tanh".into(),
            })?;
        if y.len() != grad.len() {
            return Err(NnError::MissingActivation {
                layer: "tanh".into(),
            });
        }
        // d tanh = 1 - tanh^2
        let mut out = workspace::tensor_raw(grad.shape());
        let (g, y) = (grad.data(), y.data());
        for_chunks_mut(out.data_mut(), ELEM_CHUNK, PAR_GRAIN_ELEMS, |i, out| {
            let start = i * ELEM_CHUNK;
            for ((o, &g), &yv) in out.iter_mut().zip(&g[start..]).zip(&y[start..]) {
                *o = g * (1.0 - yv * yv);
            }
        });
        Ok(Grads::one(out))
    }

    fn clear_cache(&mut self) {
        workspace::recycle_opt(self.output.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut l = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = l.forward(&[&x], Mode::Eval).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks() {
        let mut l = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        let _ = l.forward(&[&x], Mode::Train).unwrap();
        let g = l
            .backward(&Tensor::from_slice(&[10.0, 10.0, 10.0]))
            .unwrap()
            .into_first();
        assert_eq!(g.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn relu_zero_boundary_blocks_gradient() {
        let mut l = ReLU::new();
        let x = Tensor::from_slice(&[0.0]);
        let _ = l.forward(&[&x], Mode::Train).unwrap();
        let g = l
            .backward(&Tensor::from_slice(&[5.0]))
            .unwrap()
            .into_first();
        assert_eq!(g.data(), &[0.0]);
    }

    #[test]
    fn tanh_gradient_check() {
        let mut l = Tanh::new();
        let x = Tensor::from_slice(&[0.3, -0.7, 1.2]);
        let _ = l.forward(&[&x], Mode::Train).unwrap();
        let gin = l.backward(&Tensor::ones(&[3])).unwrap().into_first();
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (l.forward(&[&xp], Mode::Eval).unwrap().sum()
                - l.forward(&[&xm], Mode::Eval).unwrap().sum())
                / (2.0 * eps);
            assert!((num - gin.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut l = ReLU::new();
        assert!(l.backward(&Tensor::ones(&[1])).is_err());
    }
}
