//! The [`Layer`] trait, trainable [`Param`]s, and the inline [`Grads`]
//! container backward passes return.

use deepmorph_tensor::backend::quant::{f16_round_slice, Precision};
use deepmorph_tensor::Tensor;

use crate::Result;

/// Execution mode: training (batch statistics, dropout active) or
/// evaluation (running statistics, dropout off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training-time forward: layers may cache activations and use batch
    /// statistics.
    Train,
    /// Inference-time forward: deterministic, uses running statistics.
    Eval,
}

/// A trainable parameter: a value and its accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to the value, accumulated by the
    /// most recent backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value, allocating a zero gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Resets the gradient to zero, keeping the allocation.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Input gradients produced by one [`Layer::backward`] call.
///
/// Layers have arity ≤ 2, so the gradients are stored inline — returning
/// them costs no heap allocation, which keeps the backward hot loop
/// allocation-free (`tests/alloc_regression.rs`). Iterate with
/// `for g in grads` (yields owned tensors in input order).
#[derive(Debug, Default)]
pub struct Grads {
    slots: [Option<Tensor>; 2],
}

impl Grads {
    /// Gradients of a unary layer.
    pub fn one(g: Tensor) -> Self {
        Grads {
            slots: [Some(g), None],
        }
    }

    /// Gradients of a binary (merge) layer, in input order.
    pub fn two(g0: Tensor, g1: Tensor) -> Self {
        Grads {
            slots: [Some(g0), Some(g1)],
        }
    }

    /// Number of gradients held.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// `true` when no gradients are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the `i`-th input gradient.
    pub fn get(&self, i: usize) -> Option<&Tensor> {
        self.slots.get(i).and_then(Option::as_ref)
    }

    /// Consumes the container, returning the first gradient.
    ///
    /// # Panics
    ///
    /// Panics if the container is empty.
    pub fn into_first(mut self) -> Tensor {
        self.slots[0].take().expect("Grads::into_first on empty")
    }
}

impl IntoIterator for Grads {
    type Item = Tensor;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Tensor>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().flatten()
    }
}

/// A differentiable computation node.
///
/// Layers are stateful: `forward` caches whatever the matching `backward`
/// needs. The graph executor guarantees `backward` is called at most once
/// after each `forward`, in reverse topological order.
///
/// Implementors report trainable parameters through [`Layer::visit_params`];
/// the optimizer relies on the visit order being stable across calls.
///
/// Layers are `Send`: they own plain tensor data, so a built graph can
/// move between threads — serving workers build replicas on their own
/// threads, and the serving layer keeps prepared (instrumented) models
/// inside shared state that connection threads access under a lock.
pub trait Layer: Send {
    /// Short human-readable layer name (used in errors and reports).
    fn name(&self) -> &str;

    /// Number of inputs this layer consumes (1 for most, 2 for merges).
    fn arity(&self) -> usize {
        1
    }

    /// Computes the layer output.
    ///
    /// # Errors
    ///
    /// Returns an error if input shapes are inconsistent with the layer
    /// configuration.
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor>;

    /// Propagates `grad` (w.r.t. the layer output) to gradients w.r.t. each
    /// input, accumulating parameter gradients as a side effect.
    ///
    /// Returned tensors should come from the thread's workspace arena
    /// ([`deepmorph_tensor::workspace`]); the graph executor recycles them
    /// after consumption.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::MissingActivation`] if `forward` has not
    /// been run, or shape errors on inconsistent gradients.
    fn backward(&mut self, grad: &Tensor) -> Result<Grads>;

    /// Visits every trainable parameter (stable order).
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        let _ = visitor;
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.len());
        count
    }

    /// Drops cached activations to free memory (called between epochs for
    /// large sweeps). Layers with no cache need not override.
    fn clear_cache(&mut self) {}

    /// Prepares this layer to serve at `precision` — called once on an
    /// inference replica, never on a training or diagnosis graph.
    ///
    /// Layers with an `x·Wᵀ` product (dense, conv) build the form their
    /// eval-mode forward then reads: at [`Precision::F32`] the weight is
    /// packed once for the f32 GEMM (outputs stay bitwise equal, one
    /// extra weight copy is kept), at [`Precision::I8`] it is quantized
    /// for the integer kernel and the bias rounded through IEEE
    /// binary16. A later [`Layer::visit_params`] drops that form, so a
    /// rewritten weight is never served from a stale one. The default
    /// rounds every trainable parameter through binary16 at `I8` — lossy
    /// and irreversible — and does nothing at `F32`.
    ///
    /// # Errors
    ///
    /// Implementations may reject precisions they cannot represent; the
    /// provided implementations always succeed.
    fn apply_precision(&mut self, precision: Precision) -> Result<()> {
        if precision == Precision::I8 {
            self.visit_params(&mut |p| f16_round_slice(p.value.data_mut()));
        }
        Ok(())
    }

    /// Persistent non-trainable buffers that must travel with the
    /// parameters for inference to round-trip exactly (batch-norm running
    /// statistics). Activation caches, dropout masks, and optimizer state
    /// are *not* state: they are rebuilt by the next forward/fit. Layers
    /// with no such buffers need not override.
    fn export_state(&self) -> Vec<(String, Vec<f32>)> {
        Vec::new()
    }

    /// Restores buffers produced by [`Layer::export_state`], in the same
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::StateMismatch`] if the entries disagree
    /// with what this layer exports (wrong names, counts, or lengths).
    fn import_state(&mut self, entries: &[(String, Vec<f32>)]) -> Result<()> {
        if entries.is_empty() {
            Ok(())
        } else {
            Err(crate::NnError::StateMismatch {
                reason: format!(
                    "layer `{}` holds no extra state but received {} entries",
                    self.name(),
                    entries.len()
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_tracks_shape() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.shape(), &[2, 3]);
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[4]));
        p.grad.fill(3.0);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grads_container_round_trips() {
        let g = Grads::one(Tensor::ones(&[2]));
        assert_eq!(g.len(), 1);
        assert!(g.get(1).is_none());
        assert_eq!(g.into_first().len(), 2);

        let g = Grads::two(Tensor::ones(&[1]), Tensor::zeros(&[3]));
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        let items: Vec<Tensor> = g.into_iter().collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].len(), 3);
    }
}
