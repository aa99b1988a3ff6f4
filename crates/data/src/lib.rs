//! Synthetic datasets for the DeepMorph reproduction.
//!
//! The paper evaluates on MNIST and CIFAR-10. The reproduction builds and
//! runs without downloads, so instead of the real datasets this crate
//! provides *procedural* lookalikes that preserve the properties the
//! experiments depend on:
//!
//! * [`digits::SynthDigits`] — 16×16×1 grayscale digits rendered from
//!   stroke skeletons with random affine jitter (MNIST stand-in; easy).
//! * [`objects::SynthObjects`] — 16×16×3 colored shape/texture composites
//!   (CIFAR-10 stand-in; harder, lower clean accuracy).
//!
//! Both expose ten structured classes whose samples live on
//! class-conditional manifolds, so the paper's defect injections (removing
//! training data of a class, mislabeling one class into another, weakening
//! the network) degrade the models the same way they do on the real
//! datasets.
//!
//! [`Dataset`] is the container used across the workspace: an NCHW image
//! tensor plus integer labels, with split/subset/relabel utilities that the
//! defect injectors build on.

pub mod dataset;
pub mod digits;
pub mod generator;
pub mod objects;

pub use dataset::{Dataset, DatasetKind};
pub use digits::SynthDigits;
pub use generator::DataGenerator;
pub use objects::SynthObjects;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::dataset::{Dataset, DatasetKind};
    pub use crate::digits::SynthDigits;
    pub use crate::generator::DataGenerator;
    pub use crate::objects::SynthObjects;
}
