//! Fully-connected layer.

use deepmorph_tensor::backend::quant::{self, Precision, QuantizedMat};
use deepmorph_tensor::backend::{ComputeCtx, PackedNt};
use deepmorph_tensor::{init::Init, workspace, Tensor};
use rand::Rng;

use crate::layer::{Grads, Layer, Mode, Param};
use crate::{NnError, Result};

/// Fully-connected (affine) layer: `y = x W^T + b`.
///
/// `x` is `[n, in_features]`, `W` is `[out_features, in_features]`, `b` is
/// `[out_features]`.
///
/// Every product dispatches through the layer's [`ComputeCtx`] (scalar by
/// default; see [`Layer::bind_compute`]). [`Layer::apply_precision`]
/// prepares the weight a serving replica's eval-mode forward reads: packed
/// once for the f32 GEMM, or quantized for the integer kernel.
#[derive(Debug)]
pub struct Dense {
    name: String,
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    ctx: ComputeCtx,
    serving: Option<ServingWeights>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Dense::with_init(in_features, out_features, Init::HeNormal, rng)
    }

    /// Creates a dense layer with a specific weight initializer.
    pub fn with_init(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        let weight = Param::new(init.materialize(
            &[out_features, in_features],
            in_features,
            out_features,
            rng,
        ));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Dense {
            name: format!("dense[{in_features}->{out_features}]"),
            in_features,
            out_features,
            weight,
            bias,
            cached_input: None,
            ctx: ComputeCtx::default(),
            serving: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read access to the weight matrix (tests, inspection).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, &self.name)?;
        x.expect_rank(2, "dense forward")?;
        let mut y = product_nt(
            &self.ctx,
            x,
            &self.weight.value,
            self.serving.as_ref(),
            mode,
        )?;
        y.add_row_broadcast(&self.bias.value)?;
        if mode == Mode::Train {
            // Pooled copy for the backward pass; the previous batch's copy
            // cycles back through the arena.
            workspace::recycle_opt(self.cached_input.replace(x.pooled_clone()));
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingActivation {
                layer: self.name.clone(),
            })?;
        // dW = g^T x : [out, n] @ [n, in] -> [out, in]
        let dw = self.ctx.matmul_tn(grad, x)?;
        self.weight.grad.add_assign_tensor(&dw)?;
        workspace::recycle_tensor(dw);
        // db = column sums of g.
        let db = grad.sum_axis0()?;
        self.bias.grad.add_assign_tensor(&db)?;
        workspace::recycle_tensor(db);
        // dx = g W : [n, out] @ [out, in] -> [n, in]
        let dx = self.ctx.matmul(grad, &self.weight.value)?;
        Ok(Grads::one(dx))
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        // The visitor may rewrite the weight the serving form was built from.
        self.serving = None;
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn clear_cache(&mut self) {
        workspace::recycle_opt(self.cached_input.take());
    }

    fn bind_compute(&mut self, ctx: &ComputeCtx) {
        self.ctx = ctx.clone();
        self.serving = None;
    }

    fn apply_precision(&mut self, precision: Precision) -> Result<()> {
        self.serving = ServingWeights::prepare(
            &self.weight.value,
            &mut self.bias.value,
            precision,
            &self.ctx,
        )?;
        Ok(())
    }
}

/// A serving replica's prepared `x·Wᵀ` weight, built by
/// [`Layer::apply_precision`] on a [`Dense`] or [`crate::conv::Conv2d`]
/// and read by its eval-mode forward ([`product_nt`]).
#[derive(Debug)]
pub(crate) enum ServingWeights {
    /// The f32 weight packed once for the GEMM, so a batch pays only for
    /// the multiply (bitwise equal to the per-call product).
    F32(PackedNt),
    /// The weight quantized to per-row i8 for the integer kernel.
    I8(QuantizedMat),
}

impl ServingWeights {
    /// Prepares a layer's `weight` (`[out, in]`) to serve at `precision`
    /// on `ctx`; at i8 the `bias` is rounded through binary16 too. `None`
    /// when `ctx`'s backend packs per call, so there is nothing to keep.
    pub(crate) fn prepare(
        weight: &Tensor,
        bias: &mut Tensor,
        precision: Precision,
        ctx: &ComputeCtx,
    ) -> Result<Option<ServingWeights>> {
        Ok(match precision {
            Precision::F32 => ctx.pack_nt(weight)?.map(ServingWeights::F32),
            Precision::I8 => {
                quant::f16_round_slice(bias.data_mut());
                weight.expect_rank(2, "quantize weight")?;
                let (rows, cols) = (weight.shape()[0], weight.shape()[1]);
                Some(ServingWeights::I8(QuantizedMat::from_rows(
                    weight.data(),
                    rows,
                    cols,
                )))
            }
        })
    }
}

/// `x · Wᵀ` for a dense or im2col-lowered conv forward. An eval-mode
/// forward runs against the prepared `serving` weight when there is one;
/// every other forward (training, or a layer never prepared) runs the f32
/// GEMM on `weight` through `ctx`.
pub(crate) fn product_nt(
    ctx: &ComputeCtx,
    x: &Tensor,
    weight: &Tensor,
    serving: Option<&ServingWeights>,
    mode: Mode,
) -> Result<Tensor> {
    match serving.filter(|_| mode == Mode::Eval) {
        Some(ServingWeights::F32(packed)) => Ok(ctx.matmul_nt_packed(x, packed)?),
        Some(ServingWeights::I8(q)) if x.shape()[1] == q.cols() => {
            let m = x.shape()[0];
            let mut y = workspace::tensor_raw(&[m, q.rows()]);
            quant::qgemm_nt(x.data(), q, y.data_mut(), m);
            Ok(y)
        }
        // A wrong-width input falls through to the f32 GEMM, which
        // reports the shape error.
        _ => Ok(ctx.matmul_nt(x, weight)?),
    }
}

/// Extracts the single input of a unary layer.
pub(crate) fn single_input<'a>(inputs: &[&'a Tensor], name: &str) -> Result<&'a Tensor> {
    if inputs.len() != 1 {
        return Err(NnError::ArityMismatch {
            layer: name.to_string(),
            expected: 1,
            actual: inputs.len(),
        });
    }
    Ok(inputs[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_tensor::init::stream_rng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = stream_rng(1, "dense");
        let mut layer = Dense::new(3, 2, &mut rng);
        layer.bias.value = Tensor::from_slice(&[1.0, -1.0]);
        let x = Tensor::zeros(&[4, 3]);
        let y = layer.forward(&[&x], Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[4, 2]);
        // Zero input → output equals bias.
        assert_eq!(y.row(0).unwrap(), &[1.0, -1.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = stream_rng(1, "dense");
        let mut layer = Dense::new(3, 2, &mut rng);
        let g = Tensor::ones(&[1, 2]);
        assert!(matches!(
            layer.backward(&g).unwrap_err(),
            NnError::MissingActivation { .. }
        ));
    }

    #[test]
    fn gradient_check() {
        // Numerical vs analytic gradient on a scalar loss L = sum(y).
        let mut rng = stream_rng(2, "dense");
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.1, 0.9, -0.7], &[2, 3]).unwrap();
        let _ = layer.forward(&[&x], Mode::Train).unwrap();
        let gout = Tensor::ones(&[2, 2]);
        let gin = layer.backward(&gout).unwrap().into_first();

        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = layer.forward(&[&xp], Mode::Eval).unwrap().sum();
            let ym = layer.forward(&[&xm], Mode::Eval).unwrap().sum();
            let num = (yp - ym) / (2.0 * eps);
            let ana = gin.data()[i];
            assert!(
                (num - ana).abs() < 1e-2,
                "input grad {i}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mut rng = stream_rng(3, "dense");
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.2, -0.4, 0.6, 0.8], &[2, 2]).unwrap();
        let _ = layer.forward(&[&x], Mode::Train).unwrap();
        let gout = Tensor::ones(&[2, 2]);
        let _ = layer.backward(&gout).unwrap();
        let analytic = layer.weight.grad.clone();

        let eps = 1e-3;
        for i in 0..layer.weight.value.len() {
            let orig = layer.weight.value.data()[i];
            layer.weight.value.data_mut()[i] = orig + eps;
            let yp = layer.forward(&[&x], Mode::Eval).unwrap().sum();
            layer.weight.value.data_mut()[i] = orig - eps;
            let ym = layer.forward(&[&x], Mode::Eval).unwrap().sum();
            layer.weight.value.data_mut()[i] = orig;
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - analytic.data()[i]).abs() < 1e-2,
                "weight grad {i}: numeric {num} analytic {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn param_count() {
        let mut rng = stream_rng(4, "dense");
        let mut layer = Dense::new(10, 5, &mut rng);
        assert_eq!(layer.param_count(), 10 * 5 + 5);
    }

    #[test]
    fn bound_context_is_bitwise_identical() {
        let mut rng = stream_rng(5, "dense");
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::from_vec((0..8).map(|v| v as f32 * 0.3 - 1.0).collect(), &[2, 4]).unwrap();
        let before = layer.forward(&[&x], Mode::Eval).unwrap();
        layer.bind_compute(&ComputeCtx::scalar());
        let after = layer.forward(&[&x], Mode::Eval).unwrap();
        assert_eq!(before.data(), after.data());
    }

    #[test]
    fn i8_precision_quantizes_eval_forward_only() {
        let mut rng = stream_rng(6, "dense");
        let mut layer = Dense::new(5, 4, &mut rng);
        let x =
            Tensor::from_vec((0..10).map(|v| (v as f32 * 0.7).sin()).collect(), &[2, 5]).unwrap();
        let f32_out = layer.forward(&[&x], Mode::Eval).unwrap();
        layer.apply_precision(Precision::I8).unwrap();
        let Some(ServingWeights::I8(q)) = &layer.serving else {
            panic!("i8 weight path");
        };
        assert_eq!((q.rows(), q.cols()), (4, 5));
        let q_out = layer.forward(&[&x], Mode::Eval).unwrap();
        // Quantized result tracks f32 within the i8 step budget but is a
        // genuinely different kernel, while the train-mode forward keeps
        // running the f32 path against the stored weights.
        for (a, b) in q_out.data().iter().zip(f32_out.data()) {
            assert!((a - b).abs() < 0.1, "quantized {a} vs f32 {b}");
        }
        let t_out = layer.forward(&[&x], Mode::Train).unwrap();
        let Some(ServingWeights::I8(q)) = &layer.serving else {
            panic!("i8 weight path");
        };
        assert_ne!(q.dequantize(), layer.weight.value.data());
        assert_eq!(t_out.shape(), &[2, 4]);
        // Demoting back to f32 drops the integer path (weights stay as-is).
        layer.apply_precision(Precision::F32).unwrap();
        assert!(matches!(layer.serving, Some(ServingWeights::F32(_))));
    }

    /// Adds `delta` to the first weight element through `visit_params`
    /// (the door optimizers and state imports rewrite weights through).
    fn bump_first_weight(layer: &mut dyn Layer, delta: f32) {
        let mut first = true;
        layer.visit_params(&mut |p| {
            if std::mem::take(&mut first) {
                p.value.data_mut()[0] += delta;
            }
        });
    }

    /// Asserts `prepared` gives `reference`'s eval output on `x`, bit for
    /// bit; `reference` is a twin that is never prepared.
    fn assert_prepared_matches(prepared: &mut dyn Layer, reference: &mut dyn Layer, x: &Tensor) {
        let got = prepared.forward(&[x], Mode::Eval).unwrap();
        let want = reference.forward(&[x], Mode::Eval).unwrap();
        assert_eq!(got.shape(), want.shape());
        assert_eq!(got.data(), want.data(), "{}", prepared.name());
    }

    #[test]
    fn f32_serving_pack_is_bitwise_and_follows_weight_changes() {
        use crate::conv::Conv2d;
        let dense = || Dense::new(70, 600, &mut stream_rng(8, "dense-pack"));
        let conv = || Conv2d::new(3, 5, 6, 6, 3, 1, 1, &mut stream_rng(8, "conv-pack")).unwrap();
        let xd = Tensor::from_vec(
            (0..3 * 70).map(|v| (v as f32 * 0.37).sin()).collect(),
            &[3, 70],
        )
        .unwrap();
        let xc = Tensor::from_vec(
            (0..2 * 3 * 36).map(|v| (v as f32 * 0.23).cos()).collect(),
            &[2, 3, 6, 6],
        )
        .unwrap();
        let (mut d, mut c) = (dense(), conv());
        d.apply_precision(Precision::F32).unwrap();
        c.apply_precision(Precision::F32).unwrap();
        assert!(matches!(d.serving, Some(ServingWeights::F32(_))));
        assert!(matches!(c.serving(), Some(ServingWeights::F32(_))));
        let (mut d_ref, mut c_ref) = (dense(), conv());
        let cases: [(&mut dyn Layer, &mut dyn Layer, &Tensor); 2] =
            [(&mut d, &mut d_ref, &xd), (&mut c, &mut c_ref, &xc)];
        for (prepared, reference, x) in cases {
            for _ in 0..2 {
                assert_prepared_matches(prepared, reference, x);
            }
            // A weight rewritten through `visit_params` must reach the
            // next eval forward: a stale pack would still multiply by
            // the old weight.
            bump_first_weight(prepared, 0.5);
            bump_first_weight(reference, 0.5);
            assert_prepared_matches(prepared, reference, x);
            // Preparing again packs the new weight.
            prepared.apply_precision(Precision::F32).unwrap();
            assert_prepared_matches(prepared, reference, x);
        }
        assert!(matches!(d.serving, Some(ServingWeights::F32(_))));
        assert!(matches!(c.serving(), Some(ServingWeights::F32(_))));
    }
}
