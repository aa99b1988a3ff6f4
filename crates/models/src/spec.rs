//! Model specification and dispatch.

use deepmorph_nn::prelude::*;
use deepmorph_nn::NnError;
use deepmorph_tensor::init::stream_rng;
use rand_chacha::ChaCha8Rng;

use crate::{alexnet, densenet, lenet, resnet};

/// The four classifier families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// LeNet-5 (paper: MNIST, 5 layers).
    LeNet,
    /// AlexNet (paper: MNIST, 8 layers), scaled to small inputs.
    AlexNet,
    /// ResNet-34 basic-block plan (paper: CIFAR-10).
    ResNet,
    /// DenseNet-40 three-dense-block plan (paper: CIFAR-10).
    DenseNet,
}

impl ModelFamily {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::LeNet => "LeNet",
            ModelFamily::AlexNet => "AlexNet",
            ModelFamily::ResNet => "ResNet",
            ModelFamily::DenseNet => "DenseNet",
        }
    }

    /// All four families, in the paper's column order.
    pub fn all() -> [ModelFamily; 4] {
        [
            ModelFamily::LeNet,
            ModelFamily::AlexNet,
            ModelFamily::ResNet,
            ModelFamily::DenseNet,
        ]
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Width/depth scaling of a model family.
///
/// `Paper` reproduces the original block counts (ResNet-34's `[3,4,6,3]`,
/// DenseNet-40's 12 layers per block); `Tiny` and `Small` shrink widths and
/// depths so the full experiment sweep fits a single CPU core. The *shape*
/// of each architecture (block structure, merge topology, probe placement)
/// is identical across scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelScale {
    /// Smallest runnable configuration (default for tests and CI).
    Tiny,
    /// Intermediate configuration (default for EXPERIMENTS.md).
    Small,
    /// Structurally faithful to the paper's models.
    Paper,
}

/// Full specification of a model to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Architecture family.
    pub family: ModelFamily,
    /// Width/depth scale.
    pub scale: ModelScale,
    /// Input shape `[c, h, w]`.
    pub input_shape: [usize; 3],
    /// Number of target classes.
    pub num_classes: usize,
    /// Number of convolution units removed — the paper's Structure Defect
    /// (SD) injection. `0` is the healthy model; each unit is one conv
    /// layer (LeNet/AlexNet), one residual block (ResNet), or a slice of
    /// each dense block (DenseNet).
    pub removed_convs: usize,
}

impl ModelSpec {
    /// Creates a healthy (defect-free) spec.
    pub fn new(
        family: ModelFamily,
        scale: ModelScale,
        input_shape: [usize; 3],
        num_classes: usize,
    ) -> Self {
        ModelSpec {
            family,
            scale,
            input_shape,
            num_classes,
            removed_convs: 0,
        }
    }

    /// Returns a copy with `removed_convs` set (SD injection).
    pub fn with_removed_convs(mut self, removed: usize) -> Self {
        self.removed_convs = removed;
        self
    }

    /// Checks the spec for internal consistency before any layer is built.
    ///
    /// [`build_model`] calls this first, so a corrupt spec (decoded from a
    /// damaged file, or assembled by a remote caller) surfaces as a typed
    /// [`NnError::InvalidSpec`] instead of a panic deep inside a builder —
    /// a server loading operator-supplied models must never abort.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for zero-sized inputs or a
    /// class-free output.
    pub fn validate(&self) -> Result<(), NnError> {
        let invalid = |reason: String| Err(NnError::InvalidSpec { reason });
        let [c, h, w] = self.input_shape;
        if c == 0 || h == 0 || w == 0 {
            return invalid(format!("input shape [{c}, {h}, {w}] has a zero dimension"));
        }
        if self.num_classes == 0 {
            return invalid("num_classes must be positive".to_string());
        }
        // Each family tolerates a bounded number of removed conv units;
        // the builders reject deeper removal themselves, but an absurd
        // value from a corrupt file is cheaper to reject here.
        if self.removed_convs > 64 {
            return invalid(format!(
                "removed_convs {} is beyond any supported architecture",
                self.removed_convs
            ));
        }
        Ok(())
    }
}

/// A probe attachment point reported by a model builder.
///
/// DeepMorph attaches one auxiliary softmax layer per probe point; the
/// probe points are the outputs of the model's major stages, ordered from
/// input to output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbePoint {
    /// Graph node whose activation the probe reads.
    pub node: NodeId,
    /// Human-readable stage label (e.g. `"stage2"`).
    pub label: String,
    /// Channels (spatial) or features (flat) at this point.
    pub features: usize,
    /// `true` if the activation is a `[n, c, h, w]` feature map.
    pub spatial: bool,
}

/// A built model: the executable graph plus probe metadata.
#[derive(Debug)]
pub struct ModelHandle {
    /// The executable network.
    pub graph: Graph,
    /// DeepMorph probe points, input → output order.
    pub probes: Vec<ProbePoint>,
    /// The spec the model was built from.
    pub spec: ModelSpec,
}

impl ModelHandle {
    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        self.graph.param_count()
    }

    /// Prepares the model to serve at `precision` (see
    /// [`Graph::apply_precision`]): f32 packs the dense and conv weights
    /// once, i8 quantizes them (lossy). Only inference replicas do this;
    /// training and diagnosis always run the unprepared f32 graph.
    ///
    /// # Errors
    ///
    /// Propagates layer rejections (no provided layer rejects).
    pub fn apply_precision(&mut self, precision: Precision) -> Result<(), NnError> {
        self.graph.apply_precision(precision)
    }

    /// Builds an independent replica: same architecture (rebuilt from the
    /// spec), same parameters and buffers (state-dict import). Replicas
    /// share no storage, so each serving worker can own one and run
    /// forwards concurrently; eval-mode outputs are bitwise identical to
    /// the original's.
    ///
    /// Takes `&mut` because exporting the state dict walks the parameters.
    ///
    /// # Errors
    ///
    /// Propagates build errors; a state mismatch is impossible for a graph
    /// rebuilt from the same spec.
    pub fn replicate(&mut self) -> Result<ModelHandle, NnError> {
        // The RNG only feeds weight init that the import overwrites; a
        // fixed stream keeps replica construction deterministic.
        let mut rng = stream_rng(0, "model-replica");
        let mut twin = build_model(&self.spec, &mut rng)?;
        twin.graph.import_state(&self.graph.export_state())?;
        Ok(twin)
    }
}

/// Builds a model from its spec using the given RNG for weight init.
///
/// # Errors
///
/// Returns [`NnError::InvalidSpec`] for a spec that fails
/// [`ModelSpec::validate`], and other errors if the spec is inconsistent
/// with the architecture (input too small, all conv units removed, …).
pub fn build_model(spec: &ModelSpec, rng: &mut ChaCha8Rng) -> Result<ModelHandle, NnError> {
    spec.validate()?;
    let (graph, probes) = match spec.family {
        ModelFamily::LeNet => lenet::build(spec, rng)?,
        ModelFamily::AlexNet => alexnet::build(spec, rng)?,
        ModelFamily::ResNet => resnet::build(spec, rng)?,
        ModelFamily::DenseNet => densenet::build(spec, rng)?,
    };
    Ok(ModelHandle {
        graph,
        probes,
        spec: *spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::check_forward;
    use deepmorph_tensor::init::stream_rng;

    fn dataset_shape(f: ModelFamily) -> [usize; 3] {
        match f {
            ModelFamily::LeNet | ModelFamily::AlexNet => [1, 16, 16],
            _ => [3, 16, 16],
        }
    }

    #[test]
    fn all_families_build_and_forward() -> Result<(), String> {
        // Failures propagate as Results (with family context) rather than
        // panicking mid-loop.
        for family in ModelFamily::all() {
            let spec = ModelSpec::new(family, ModelScale::Tiny, dataset_shape(family), 10);
            let mut rng = stream_rng(1, "spec");
            let mut handle = build_model(&spec, &mut rng).map_err(|e| format!("{family}: {e}"))?;
            check_forward(&mut handle.graph, spec.input_shape, 2, 10)
                .map_err(|e| format!("{family}: {e}"))?;
            assert!(
                handle.probes.len() >= 3,
                "{family} should expose >=3 probes"
            );
            assert!(handle.param_count() > 100, "{family} suspiciously small");
        }
        Ok(())
    }

    #[test]
    fn corrupt_specs_are_typed_errors() {
        let mut rng = stream_rng(7, "spec");
        for bad in [
            ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [0, 16, 16], 10),
            ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 0),
            ModelSpec::new(ModelFamily::ResNet, ModelScale::Tiny, [3, 16, 16], 10)
                .with_removed_convs(1000),
        ] {
            assert!(bad.validate().is_err());
            assert!(matches!(
                build_model(&bad, &mut rng).unwrap_err(),
                NnError::InvalidSpec { .. }
            ));
        }
    }

    #[test]
    fn replicas_predict_bitwise_identically() {
        use deepmorph_tensor::Tensor;
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
        let mut rng = stream_rng(11, "spec");
        let mut original = build_model(&spec, &mut rng).unwrap();
        let mut replica = original.replicate().unwrap();
        assert_eq!(replica.spec, original.spec);
        assert_eq!(replica.probes, original.probes);
        let x = Tensor::from_vec(
            (0..2 * 256)
                .map(|i| ((i * 37) % 97) as f32 / 97.0)
                .collect(),
            &[2, 1, 16, 16],
        )
        .unwrap();
        let a = original.graph.forward(&x, Mode::Eval).unwrap();
        let b = replica.graph.forward(&x, Mode::Eval).unwrap();
        for (va, vb) in a.data().iter().zip(b.data()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn scales_are_ordered_by_capacity() {
        for family in ModelFamily::all() {
            let mut rng = stream_rng(2, "spec");
            let tiny = build_model(
                &ModelSpec::new(family, ModelScale::Tiny, dataset_shape(family), 10),
                &mut rng,
            )
            .unwrap()
            .param_count();
            let mut rng = stream_rng(2, "spec");
            let small = build_model(
                &ModelSpec::new(family, ModelScale::Small, dataset_shape(family), 10),
                &mut rng,
            )
            .unwrap()
            .param_count();
            assert!(small > tiny, "{family}: small {small} <= tiny {tiny}");
        }
    }

    #[test]
    fn sd_injection_reduces_capacity() {
        for family in ModelFamily::all() {
            let mut rng = stream_rng(3, "spec");
            let healthy = build_model(
                &ModelSpec::new(family, ModelScale::Tiny, dataset_shape(family), 10),
                &mut rng,
            )
            .unwrap()
            .param_count();
            let mut rng = stream_rng(3, "spec");
            let damaged_spec = ModelSpec::new(family, ModelScale::Tiny, dataset_shape(family), 10)
                .with_removed_convs(2);
            let mut damaged = build_model(&damaged_spec, &mut rng).unwrap();
            let damaged_params = damaged.param_count();
            assert!(
                damaged_params < healthy,
                "{family}: SD injection should shrink the model ({damaged_params} vs {healthy})"
            );
            check_forward(&mut damaged.graph, damaged_spec.input_shape, 2, 10).unwrap();
        }
    }

    #[test]
    fn family_names_match_paper() {
        assert_eq!(ModelFamily::LeNet.to_string(), "LeNet");
        assert_eq!(ModelFamily::DenseNet.to_string(), "DenseNet");
    }
}
