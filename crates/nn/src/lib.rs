//! Neural-network framework substrate for the DeepMorph reproduction.
//!
//! The paper builds DeepMorph on TensorFlow; this crate replaces the parts
//! of TensorFlow the reproduction needs:
//!
//! * [`layer`] — the [`Layer`](layer::Layer) trait plus trainable
//!   [`Param`](layer::Param)s,
//! * concrete layers: [`Dense`](dense::Dense), [`Conv2d`](conv::Conv2d),
//!   pooling, [`ReLU`](activation::ReLU), [`BatchNorm2d`](norm::BatchNorm2d),
//!   [`Flatten`](shape_ops::Flatten), residual [`Add`](merge::Add) and
//!   channel [`ConcatChannels`](merge::ConcatChannels) merges,
//!   [`Dropout`](dropout::Dropout),
//! * [`graph`] — a DAG executor with reverse-mode differentiation,
//! * [`state`] — serializable graph state: keyed state dicts
//!   ([`Graph::export_state`](graph::Graph::export_state) /
//!   [`Graph::import_state`](graph::Graph::import_state)) and topology
//!   snapshots for save/load verification,
//! * [`loss`] — softmax cross-entropy,
//! * [`optim`] — SGD (momentum, weight decay) and Adam,
//! * [`train`] — mini-batch training loop, and
//! * [`metrics`] — accuracy and confusion matrices.
//!
//! Everything is CPU, `f32`, and deterministic given a seed.
//!
//! # Example: train a tiny MLP
//!
//! ```
//! use deepmorph_nn::prelude::*;
//! use deepmorph_tensor::{init, Tensor};
//!
//! # fn main() -> Result<(), NnError> {
//! let mut rng = init::stream_rng(0, "doc");
//! let mut gb = GraphBuilder::new();
//! let x = gb.input();
//! let h = gb.add_layer(Dense::new(2, 8, &mut rng), &[x])?;
//! let h = gb.add_layer(ReLU::new(), &[h])?;
//! let out = gb.add_layer(Dense::new(8, 2, &mut rng), &[h])?;
//! let mut graph = gb.build(out)?;
//!
//! // XOR-ish toy data.
//! let xs = Tensor::from_vec(vec![0., 0., 0., 1., 1., 0., 1., 1.], &[4, 2])?;
//! let ys = vec![0usize, 1, 1, 0];
//! let mut trainer = Trainer::new(TrainConfig {
//!     epochs: 200,
//!     batch_size: 4,
//!     ..TrainConfig::default()
//! });
//! trainer.fit(&mut graph, &xs, &ys, &mut rng)?;
//! let acc = evaluate_accuracy(&mut graph, &xs, &ys, 4)?;
//! assert!(acc > 0.9, "accuracy {acc}");
//! # Ok(())
//! # }
//! ```

pub mod activation;
pub mod conv;
pub mod dense;
pub mod dropout;
mod error;
pub mod graph;
pub mod layer;
pub mod loss;
pub mod merge;
pub mod metrics;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod shape_ops;
pub mod state;
pub mod train;

pub use error::NnError;

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, NnError>;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::activation::ReLU;
    pub use crate::conv::Conv2d;
    pub use crate::dense::Dense;
    pub use crate::dropout::Dropout;
    pub use crate::graph::{Graph, GraphBuilder, NodeId};
    pub use crate::layer::{Grads, Layer, Mode, Param};
    pub use crate::loss::SoftmaxCrossEntropy;
    pub use crate::merge::{Add, ConcatChannels};
    pub use crate::metrics::{accuracy, confusion_matrix, Metrics};
    pub use crate::norm::BatchNorm2d;
    pub use crate::optim::{Adam, Optimizer, Sgd};
    pub use crate::pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
    pub use crate::shape_ops::Flatten;
    pub use crate::state::{GraphTopology, StateDict, StateEntry};
    pub use crate::train::{clip_gradients, evaluate_accuracy, TrainConfig, TrainReport, Trainer};
    pub use crate::{NnError, Result as NnResult};
    pub use deepmorph_tensor::backend::ComputeCtx;
}
