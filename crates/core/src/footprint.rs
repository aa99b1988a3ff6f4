//! Data-flow footprints.
//!
//! A *footprint* (paper Section III) is the trace an input leaves as it
//! flows through the network: at every probed hidden layer, the auxiliary
//! softmax turns the activation into a distribution over target classes.
//! The footprint is the sequence of these distributions from the first
//! probe to the last — "how the distinct features of an input case are
//! extracted layer by layer gradually".

use deepmorph_tensor::stats;

/// One input's per-layer probe-distribution trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// `probs[l][c]` = probability of class `c` at probe layer `l`.
    probs: Vec<Vec<f32>>,
}

impl Footprint {
    /// Wraps a trajectory; every layer must have the same class count.
    ///
    /// # Panics
    ///
    /// Debug-asserts layer widths agree.
    pub fn new(probs: Vec<Vec<f32>>) -> Self {
        debug_assert!(
            probs.windows(2).all(|w| w[0].len() == w[1].len()),
            "footprint layers disagree on class count"
        );
        Footprint { probs }
    }

    /// Number of probed layers.
    pub fn depth(&self) -> usize {
        self.probs.len()
    }

    /// Probe distribution at layer `l`.
    pub fn layer(&self, l: usize) -> &[f32] {
        &self.probs[l]
    }

    /// All layers, first to last.
    pub fn layers(&self) -> &[Vec<f32>] {
        &self.probs
    }

    /// The final (deepest) probe distribution.
    ///
    /// # Panics
    ///
    /// Panics on an empty footprint.
    pub fn last(&self) -> &[f32] {
        self.probs.last().expect("footprint has at least one layer")
    }

    /// First probed layer whose argmax differs from `label`, as a fraction
    /// of depth (`1.0` = never flips).
    pub fn flip_fraction(&self, label: usize) -> f32 {
        for (l, p) in self.probs.iter().enumerate() {
            if stats::argmax(p) != label {
                return l as f32 / self.depth().max(1) as f32;
            }
        }
        1.0
    }

    /// Normalized entropy of the final probe distribution.
    pub fn final_entropy(&self) -> f32 {
        stats::normalized_entropy(self.last())
    }
}

/// Footprints of a batch of inputs, with probe metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintSet {
    footprints: Vec<Footprint>,
    probe_labels: Vec<String>,
    num_classes: usize,
}

impl FootprintSet {
    /// Bundles footprints with their probe labels.
    pub fn new(footprints: Vec<Footprint>, probe_labels: Vec<String>, num_classes: usize) -> Self {
        FootprintSet {
            footprints,
            probe_labels,
            num_classes,
        }
    }

    /// Number of cases.
    pub fn len(&self) -> usize {
        self.footprints.len()
    }

    /// `true` if the set holds no footprints.
    pub fn is_empty(&self) -> bool {
        self.footprints.is_empty()
    }

    /// Number of probed layers.
    pub fn depth(&self) -> usize {
        self.probe_labels.len()
    }

    /// Number of target classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The footprint of case `i`.
    pub fn footprint(&self, i: usize) -> &Footprint {
        &self.footprints[i]
    }

    /// All footprints.
    pub fn footprints(&self) -> &[Footprint] {
        &self.footprints
    }

    /// Probe stage labels, input → output order.
    pub fn probe_labels(&self) -> &[String] {
        &self.probe_labels
    }

    /// Iterates over the footprints.
    pub fn iter(&self) -> std::slice::Iter<'_, Footprint> {
        self.footprints.iter()
    }
}

impl<'a> IntoIterator for &'a FootprintSet {
    type Item = &'a Footprint;
    type IntoIter = std::slice::Iter<'a, Footprint>;

    fn into_iter(self) -> Self::IntoIter {
        self.footprints.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(rows: &[&[f32]]) -> Footprint {
        Footprint::new(rows.iter().map(|r| r.to_vec()).collect())
    }

    #[test]
    fn accessors() {
        let f = fp(&[&[0.9, 0.1], &[0.2, 0.8]]);
        assert_eq!(f.depth(), 2);
        assert_eq!(f.layer(0), &[0.9, 0.1]);
        assert_eq!(f.last(), &[0.2, 0.8]);
    }

    #[test]
    fn flip_fraction_finds_first_divergence() {
        let f = fp(&[&[0.9, 0.1], &[0.6, 0.4], &[0.2, 0.8], &[0.1, 0.9]]);
        assert_eq!(f.flip_fraction(0), 0.5); // flips at layer 2 of 4
        assert_eq!(f.flip_fraction(1), 0.0); // wrong from the start
        let never = fp(&[&[0.9, 0.1], &[0.8, 0.2]]);
        assert_eq!(never.flip_fraction(0), 1.0);
    }

    #[test]
    fn final_entropy_distinguishes_confident_from_uncertain() {
        let confident = fp(&[&[0.5, 0.5], &[0.99, 0.01]]);
        let uncertain = fp(&[&[0.5, 0.5], &[0.5, 0.5]]);
        assert!(confident.final_entropy() < 0.1);
        assert!(uncertain.final_entropy() > 0.99);
    }

    #[test]
    fn set_iteration() {
        let set = FootprintSet::new(
            vec![fp(&[&[1.0, 0.0]]), fp(&[&[0.0, 1.0]])],
            vec!["l1".into()],
            2,
        );
        assert_eq!(set.len(), 2);
        assert_eq!(set.depth(), 1);
        assert_eq!(set.iter().count(), 2);
        assert_eq!((&set).into_iter().count(), 2);
    }
}
