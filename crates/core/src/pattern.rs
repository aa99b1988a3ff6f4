//! Per-class execution patterns.
//!
//! After instrumentation, DeepMorph learns "the execution pattern of the
//! training cases for each target class" (paper Fig. 1): at every probed
//! layer, the mean probe distribution of the class's training cases, plus
//! the dispersion statistics the defect classifier normalizes against.

use deepmorph_tensor::stats;

use crate::footprint::FootprintSet;
use crate::{DeepMorphError, Result};

/// Class execution patterns plus model-level baseline statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPatterns {
    /// `mean[l][c]` = mean probe distribution of class `c` at layer `l`.
    mean: Vec<Vec<Vec<f32>>>,
    /// Per-layer mean alignment (JS similarity) of training footprints to
    /// their own class pattern — the within-class dispersion baseline.
    own_alignment: Vec<f32>,
    /// Per-layer mean alignment margin (best minus second-best class) of
    /// training footprints — the separability baseline.
    own_margin: Vec<f32>,
    /// Per-layer probe accuracy on the training set.
    probe_accuracy: Vec<f32>,
    /// Per-layer mean pairwise JS divergence between class patterns.
    separation: Vec<f32>,
    /// Training-set class histogram (post-injection labels).
    class_counts: Vec<usize>,
    /// Histogram of the final probe's predicted classes over the training
    /// set. Unlike `class_counts`, this reflects what data *actually
    /// executes* as each class: mislabeled samples still flow like their
    /// true class, so UTD leaves these counts balanced while ITD leaves a
    /// hole.
    probe_pred_counts: Vec<usize>,
    /// `disagreement[label][probe_class]`: fraction of training samples
    /// carrying `label` that the final probe assigns to `probe_class`.
    /// Off-diagonal mass concentrated in one cell is the fingerprint of
    /// label noise (UTD): mislabeled samples keep following their true
    /// class's execution pattern.
    disagreement: Vec<Vec<f32>>,
    num_classes: usize,
}

impl ClassPatterns {
    /// Learns patterns from training-set footprints.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Instrumentation`] for empty inputs or
    /// label/footprint count mismatches.
    pub fn learn(
        train_footprints: &FootprintSet,
        train_labels: &[usize],
        probe_accuracy: Vec<f32>,
    ) -> Result<Self> {
        let n = train_footprints.len();
        let depth = train_footprints.depth();
        let k = train_footprints.num_classes();
        if n == 0 || depth == 0 {
            return Err(DeepMorphError::Instrumentation {
                reason: "cannot learn patterns from empty footprints".into(),
            });
        }
        if train_labels.len() != n {
            return Err(DeepMorphError::Instrumentation {
                reason: format!("{} labels for {n} footprints", train_labels.len()),
            });
        }
        if probe_accuracy.len() != depth {
            return Err(DeepMorphError::Instrumentation {
                reason: format!(
                    "{} probe accuracies for {depth} probe layers",
                    probe_accuracy.len()
                ),
            });
        }

        // Mean distribution per (layer, class).
        let mut mean = vec![vec![vec![0.0f32; k]; k.max(1)]; depth];
        let mut counts = vec![0usize; k];
        for (fp, &label) in train_footprints.iter().zip(train_labels) {
            counts[label] += 1;
            for (l, mean_l) in mean.iter_mut().enumerate() {
                for (m, &p) in mean_l[label].iter_mut().zip(fp.layer(l)) {
                    *m += p;
                }
            }
        }
        for mean_l in &mut mean {
            for (c, mean_lc) in mean_l.iter_mut().enumerate() {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f32;
                    for m in mean_lc {
                        *m *= inv;
                    }
                } else {
                    // A class absent from training (extreme ITD): uniform
                    // pattern, which no footprint aligns with strongly.
                    for m in mean_lc {
                        *m = 1.0 / k as f32;
                    }
                }
            }
        }

        // Baselines: own-class alignment and margins per layer.
        let mut own_alignment = vec![0.0f32; depth];
        let mut own_margin = vec![0.0f32; depth];
        for (fp, &label) in train_footprints.iter().zip(train_labels) {
            for l in 0..depth {
                let aligns: Vec<f32> = (0..k)
                    .map(|c| stats::js_similarity(fp.layer(l), &mean[l][c]))
                    .collect();
                own_alignment[l] += aligns[label];
                let (best, second) = stats::top2(&aligns);
                own_margin[l] += (best - second).max(0.0);
            }
        }
        for l in 0..depth {
            own_alignment[l] /= n as f32;
            own_margin[l] /= n as f32;
        }

        // Label/footprint disagreement on the training set (final probe).
        let (class_counts, probe_pred_counts, disagreement) =
            label_flow(train_footprints, train_labels, k);

        // Inter-class pattern separation per layer.
        let mut separation = vec![0.0f32; depth];
        for l in 0..depth {
            let mut total = 0.0;
            let mut pairs = 0;
            for a in 0..k {
                for b in (a + 1)..k {
                    total += stats::js_divergence(&mean[l][a], &mean[l][b]);
                    pairs += 1;
                }
            }
            separation[l] = if pairs > 0 { total / pairs as f32 } else { 0.0 };
        }

        Ok(ClassPatterns {
            mean,
            own_alignment,
            own_margin,
            probe_accuracy,
            separation,
            class_counts,
            probe_pred_counts,
            disagreement,
            num_classes: k,
        })
    }

    /// Learns patterns from fit-split footprints, but derives the
    /// label-noise statistics (class counts, flow histogram, disagreement
    /// matrix) from a *held-out* split the probes were never fitted on.
    ///
    /// With enough training a backbone memorizes mislabeled samples, so
    /// probes fitted on the same data reproduce the wrong labels and the
    /// disagreement signal vanishes. Held-out mislabeled samples still
    /// execute like their true class, keeping the UTD fingerprint visible
    /// regardless of how long the backbone trained.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClassPatterns::learn`], plus holdout/fit
    /// shape mismatches.
    pub fn learn_with_holdout(
        fit_footprints: &FootprintSet,
        fit_labels: &[usize],
        holdout_footprints: &FootprintSet,
        holdout_labels: &[usize],
        probe_accuracy: Vec<f32>,
    ) -> Result<Self> {
        let mut patterns = Self::learn(fit_footprints, fit_labels, probe_accuracy)?;
        if holdout_footprints.is_empty() {
            return Ok(patterns); // degenerate split: keep fit statistics
        }
        if holdout_footprints.depth() != patterns.depth()
            || holdout_footprints.num_classes() != patterns.num_classes
            || holdout_labels.len() != holdout_footprints.len()
        {
            return Err(DeepMorphError::Instrumentation {
                reason: "holdout footprints disagree with fit footprints".into(),
            });
        }
        (
            patterns.class_counts,
            patterns.probe_pred_counts,
            patterns.disagreement,
        ) = label_flow(holdout_footprints, holdout_labels, patterns.num_classes);
        Ok(patterns)
    }

    /// Number of probed layers.
    pub fn depth(&self) -> usize {
        self.mean.len()
    }

    /// Number of target classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The execution pattern of class `c` at layer `l`.
    pub fn pattern(&self, l: usize, c: usize) -> &[f32] {
        &self.mean[l][c]
    }

    /// Mean training alignment to the own-class pattern at layer `l`.
    pub fn own_alignment(&self, l: usize) -> f32 {
        self.own_alignment[l]
    }

    /// Mean own-alignment across all layers.
    pub fn own_alignment_mean(&self) -> f32 {
        stats::mean(&self.own_alignment)
    }

    /// Mean training alignment margin at layer `l`.
    pub fn own_margin(&self, l: usize) -> f32 {
        self.own_margin[l]
    }

    /// Mean margin over the early half of the network (layers `0..⌈d/2⌉`).
    pub fn early_margin_baseline(&self) -> f32 {
        let half = self.depth().div_ceil(2);
        stats::mean(&self.own_margin[..half])
    }

    /// Probe training accuracy at layer `l`.
    pub fn probe_accuracy(&self, l: usize) -> f32 {
        self.probe_accuracy[l]
    }

    /// Inter-class pattern separation (mean pairwise JS divergence) at
    /// layer `l`.
    pub fn separation(&self, l: usize) -> f32 {
        self.separation[l]
    }

    /// Training-set sample count of class `c` (post-injection labels).
    pub fn class_count(&self, c: usize) -> usize {
        self.class_counts[c]
    }

    /// How starved class `c` is, measured on the *data flow* rather than
    /// the labels: `1 - probe_pred_count(c) / (n / k)`, clamped to
    /// `[0, 1]`.
    ///
    /// Counting probe-predicted classes instead of labels matters:
    /// mislabeled training samples (UTD) still *execute* like their true
    /// class, so the flow histogram stays balanced under UTD, while a
    /// class whose data ITD removed leaves a genuine hole nothing else
    /// fills.
    pub fn starvation(&self, c: usize) -> f32 {
        let n: usize = self.probe_pred_counts.iter().sum();
        let expected = n as f32 / self.num_classes.max(1) as f32;
        if expected <= 0.0 {
            return 0.0;
        }
        (1.0 - self.probe_pred_counts[c] as f32 / expected).clamp(0.0, 1.0)
    }

    /// Fraction of training samples labeled `label` whose final-probe
    /// argmax is `probe_class` — the contamination estimate used by the
    /// UTD signature. Off-diagonal values near the training error rate are
    /// noise; a concentrated off-diagonal cell indicates mislabeled data
    /// (samples labeled `label` that *execute* like `probe_class`).
    pub fn contamination(&self, label: usize, probe_class: usize) -> f32 {
        self.disagreement[label][probe_class]
    }

    /// Total off-diagonal disagreement mass (weighted by class frequency):
    /// the estimated label-noise rate of the training set.
    pub fn disagreement_rate(&self) -> f32 {
        let n: usize = self.class_counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (label, row) in self.disagreement.iter().enumerate() {
            for (probe_class, &v) in row.iter().enumerate() {
                if probe_class != label {
                    total += v * self.class_counts[label] as f32;
                }
            }
        }
        total / n as f32
    }

    /// How concentrated the training set's label/footprint disagreement is
    /// in a single `(label, probe_class)` pair, in `[0, 1]`.
    ///
    /// Label noise injected as "class a tagged as class b" (UTD) puts most
    /// off-diagonal disagreement mass in one cell; a weak model's probe
    /// errors (SD) spread over many cells; ITD's starved-class rows carry
    /// almost no mass because the rows are tiny. The value is the largest
    /// cell's share of all off-diagonal mass, gated by the overall noise
    /// rate (below ~2% disagreement there is nothing to concentrate).
    pub fn concentrated_label_noise(&self) -> f32 {
        let n: usize = self.class_counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let mut total_mass = 0.0f32;
        let mut max_mass = 0.0f32;
        for (label, row) in self.disagreement.iter().enumerate() {
            let weight = self.class_counts[label] as f32;
            for (probe_class, &frac) in row.iter().enumerate() {
                if probe_class != label {
                    let mass = frac * weight;
                    total_mass += mass;
                    if mass > max_mass {
                        max_mass = mass;
                    }
                }
            }
        }
        if total_mass <= 0.0 {
            return 0.0;
        }
        let share = max_mass / total_mass;
        let rate = total_mass / n as f32;
        let gate = (rate / 0.02).clamp(0.0, 1.0);
        share * gate
    }

    /// Model health in `[0, 1]`: the final probe's training accuracy,
    /// rescaled so chance level maps to 0.
    ///
    /// A healthy trained backbone separates its *own training data* well at
    /// the last stages, whatever the test-time failure mode; a structurally
    /// defective one cannot. This is the classifier's main SD signal.
    pub fn health(&self) -> f32 {
        let last = *self
            .probe_accuracy
            .last()
            .expect("patterns have at least one layer");
        let chance = 1.0 / self.num_classes as f32;
        ((last - chance) / (1.0 - chance)).clamp(0.0, 1.0)
    }
}

/// The label-flow statistics of `footprints` under `labels`, read at the
/// final probe: the class histogram, the histogram of probe-predicted
/// classes, and the row-normalized `disagreement[label][probe_class]`
/// matrix.
fn label_flow(
    footprints: &FootprintSet,
    labels: &[usize],
    k: usize,
) -> (Vec<usize>, Vec<usize>, Vec<Vec<f32>>) {
    let mut class_counts = vec![0usize; k];
    let mut probe_pred_counts = vec![0usize; k];
    let mut disagreement = vec![vec![0.0f32; k]; k];
    for (fp, &label) in footprints.iter().zip(labels) {
        class_counts[label] += 1;
        let probe_class = stats::argmax(fp.last());
        probe_pred_counts[probe_class] += 1;
        disagreement[label][probe_class] += 1.0;
    }
    for (label, row) in disagreement.iter_mut().enumerate() {
        let total = class_counts[label].max(1) as f32;
        for v in row.iter_mut() {
            *v /= total;
        }
    }
    (class_counts, probe_pred_counts, disagreement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::Footprint;

    /// Builds a footprint set where class c's distribution ramps from
    /// uniform to a peak at c.
    fn crisp_footprints(n_per_class: usize, k: usize, depth: usize) -> (FootprintSet, Vec<usize>) {
        let mut fps = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for s in 0..n_per_class {
                let mut layers = Vec::new();
                for l in 0..depth {
                    let sharp = (l + 1) as f32 / depth as f32;
                    let mut dist = vec![(1.0 - sharp) / k as f32; k];
                    dist[c] += sharp;
                    // Small per-sample perturbation.
                    let eps = 0.01 * (s % 3) as f32;
                    dist[(c + 1) % k] += eps;
                    let total: f32 = dist.iter().sum();
                    for d in &mut dist {
                        *d /= total;
                    }
                    layers.push(dist);
                }
                fps.push(Footprint::new(layers));
                labels.push(c);
            }
        }
        (
            FootprintSet::new(fps, (0..depth).map(|l| format!("l{l}")).collect(), k),
            labels,
        )
    }

    #[test]
    fn learn_recovers_class_means() {
        let (fps, labels) = crisp_footprints(5, 3, 4);
        let patterns = ClassPatterns::learn(&fps, &labels, vec![0.4, 0.6, 0.8, 0.95]).unwrap();
        assert_eq!(patterns.depth(), 4);
        // Final layer pattern of class 0 peaks at class 0.
        let p = patterns.pattern(3, 0);
        assert_eq!(stats::argmax(p), 0);
        assert!(p[0] > 0.8);
    }

    #[test]
    fn separation_grows_with_depth() {
        let (fps, labels) = crisp_footprints(5, 3, 4);
        let patterns = ClassPatterns::learn(&fps, &labels, vec![0.4, 0.6, 0.8, 0.95]).unwrap();
        assert!(patterns.separation(3) > patterns.separation(0));
    }

    #[test]
    fn health_rescales_chance_to_zero() {
        let (fps, labels) = crisp_footprints(3, 10, 2);
        let chance = ClassPatterns::learn(&fps, &labels, vec![0.1, 0.1]).unwrap();
        assert!(chance.health() < 1e-6);
        let perfect = ClassPatterns::learn(&fps, &labels, vec![0.1, 1.0]).unwrap();
        assert!((perfect.health() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn missing_class_gets_uniform_pattern() {
        let (fps, mut labels) = crisp_footprints(4, 3, 2);
        // Relabel class 2 as class 0: class 2 has no training cases.
        for l in &mut labels {
            if *l == 2 {
                *l = 0;
            }
        }
        let patterns = ClassPatterns::learn(&fps, &labels, vec![0.5, 0.9]).unwrap();
        let p = patterns.pattern(1, 2);
        assert!(p.iter().all(|&v| (v - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn learn_validates_inputs() {
        let (fps, labels) = crisp_footprints(2, 2, 2);
        assert!(ClassPatterns::learn(&fps, &labels[..1], vec![0.5, 0.5]).is_err());
        assert!(ClassPatterns::learn(&fps, &labels, vec![0.5]).is_err());
        let empty = FootprintSet::new(vec![], vec![], 2);
        assert!(ClassPatterns::learn(&empty, &[], vec![]).is_err());
    }

    #[test]
    fn starvation_uses_flow_not_labels() {
        // 3 classes; class 2's samples all *execute* like class 0 (their
        // footprints peak at 0), as if they were mislabeled class-0 data.
        let k = 3;
        let mut fps = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for _ in 0..10 {
                let exec_as = if c == 2 { 0 } else { c };
                let mut dist = vec![0.05; k];
                dist[exec_as] = 0.9;
                fps.push(Footprint::new(vec![dist.clone(), dist]));
                labels.push(c);
            }
        }
        let set = FootprintSet::new(fps, vec!["a".into(), "b".into()], k);
        let p = ClassPatterns::learn(&set, &labels, vec![0.6, 0.9]).unwrap();
        // Labels are balanced, but nothing *flows* as class 2.
        assert_eq!(p.class_count(2), 10);
        assert!(p.starvation(2) > 0.9, "starvation {}", p.starvation(2));
        // Class 0 receives double flow: no starvation.
        assert_eq!(p.starvation(0), 0.0);
    }

    #[test]
    fn contamination_detects_mislabeled_pair() {
        // Class 1's labeled samples: 40% execute like class 0.
        let k = 3;
        let mut fps = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for s in 0..10 {
                let exec_as = if c == 1 && s < 4 { 0 } else { c };
                let mut dist = vec![0.05; k];
                dist[exec_as] = 0.9;
                fps.push(Footprint::new(vec![dist]));
                labels.push(c);
            }
        }
        let set = FootprintSet::new(fps, vec!["a".into()], k);
        let p = ClassPatterns::learn(&set, &labels, vec![0.8]).unwrap();
        assert!((p.contamination(1, 0) - 0.4).abs() < 1e-6);
        assert_eq!(p.contamination(0, 1), 0.0);
        assert!((p.disagreement_rate() - 4.0 / 30.0).abs() < 1e-6);
        // Concentrated: all off-diagonal mass sits in one cell.
        assert!(p.concentrated_label_noise() > 0.9);
    }

    #[test]
    fn diffuse_noise_is_not_concentrated() {
        // Every class leaks equally to every other class.
        let k = 4;
        let mut fps = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for s in 0..12 {
                let exec_as = if s < 3 { (c + 1 + s % 3) % k } else { c };
                let mut dist = vec![0.02; k];
                dist[exec_as] = 0.94;
                fps.push(Footprint::new(vec![dist]));
                labels.push(c);
            }
        }
        let set = FootprintSet::new(fps, vec!["a".into()], k);
        let p = ClassPatterns::learn(&set, &labels, vec![0.7]).unwrap();
        // Mass spreads over 12 cells: share per cell ≈ 1/12.
        assert!(
            p.concentrated_label_noise() < 0.2,
            "noise {}",
            p.concentrated_label_noise()
        );
    }

    #[test]
    fn holdout_statistics_override_fit_statistics() {
        let (fit_fps, fit_labels) = crisp_footprints(6, 3, 2);
        // Holdout where class 0 executes like class 1.
        let mut hold_fps = Vec::new();
        let mut hold_labels = Vec::new();
        for c in 0..3usize {
            for _ in 0..5 {
                let exec_as = if c == 0 { 1 } else { c };
                let mut dist = vec![0.05; 3];
                dist[exec_as] = 0.9;
                hold_fps.push(Footprint::new(vec![dist.clone(), dist]));
                hold_labels.push(c);
            }
        }
        let holdout = FootprintSet::new(hold_fps, vec!["a".into(), "b".into()], 3);
        let p = ClassPatterns::learn_with_holdout(
            &fit_fps,
            &fit_labels,
            &holdout,
            &hold_labels,
            vec![0.5, 0.9],
        )
        .unwrap();
        assert!((p.contamination(0, 1) - 1.0).abs() < 1e-6);
        // Patterns still come from the fit split (class 0 peaks at 0).
        assert_eq!(stats::argmax(p.pattern(1, 0)), 0);
    }

    #[test]
    fn empty_holdout_falls_back_to_fit() {
        let (fit_fps, fit_labels) = crisp_footprints(4, 3, 2);
        let empty = FootprintSet::new(vec![], vec!["a".into(), "b".into()], 3);
        let p =
            ClassPatterns::learn_with_holdout(&fit_fps, &fit_labels, &empty, &[], vec![0.5, 0.9])
                .unwrap();
        assert_eq!(p.class_count(0), 4);
    }

    #[test]
    fn mismatched_holdout_is_rejected() {
        let (fit_fps, fit_labels) = crisp_footprints(4, 3, 2);
        let (bad_depth, bad_labels) = crisp_footprints(2, 3, 3);
        assert!(ClassPatterns::learn_with_holdout(
            &fit_fps,
            &fit_labels,
            &bad_depth,
            &bad_labels,
            vec![0.5, 0.9],
        )
        .is_err());
    }

    #[test]
    fn own_alignment_is_high_for_crisp_data() {
        let (fps, labels) = crisp_footprints(5, 3, 4);
        let patterns = ClassPatterns::learn(&fps, &labels, vec![0.5; 4]).unwrap();
        assert!(patterns.own_alignment(3) > 0.9);
        assert!(patterns.own_alignment_mean() > 0.8);
        assert!(patterns.early_margin_baseline() >= 0.0);
    }
}
