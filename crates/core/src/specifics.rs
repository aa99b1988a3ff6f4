//! Footprint specifics.
//!
//! The paper's "footprint specifics" summarize how a faulty case's data
//! flow compares, layer by layer, against the class execution patterns.
//! [`FootprintSpecifics`] is that summary: the scalar features the defect
//! classifier scores. A footprint layer aligns with a class pattern by
//! Jensen–Shannon similarity (`1 - JSD/ln 2`, Lin 1991), the one measure
//! pattern learning and the explanations also use.

use deepmorph_tensor::stats;

use crate::footprint::Footprint;
use crate::pattern::ClassPatterns;

/// Per-case comparison of a footprint against the class execution
/// patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintSpecifics {
    /// Ground-truth label of the case.
    pub true_label: usize,
    /// The model's (wrong) prediction.
    pub predicted: usize,
    /// Mean alignment to the true class's pattern over the early half of
    /// the probed layers.
    pub early_align_true: f32,
    /// Mean alignment to the true class's pattern over the late half.
    pub late_align_true: f32,
    /// Mean alignment to the predicted class's pattern over the late half.
    pub late_align_pred: f32,
    /// Mean over layers of the best alignment to *any* class pattern.
    pub best_align_mean: f32,
    /// Mean alignment margin (best minus second best) over the early half.
    pub early_margin: f32,
    /// First layer (fraction of depth) where the probe argmax departs from
    /// the true label; `1.0` = never.
    pub flip_fraction: f32,
    /// Normalized entropy of the final probe distribution.
    pub final_entropy: f32,
    /// Final probe probability of the predicted class.
    pub final_conf_pred: f32,
    /// Novelty: how much worse this case aligns to its best-matching
    /// pattern than training cases align to their own (relative, clamped
    /// to `[0, 1]`).
    pub novelty: f32,
}

impl FootprintSpecifics {
    /// Computes the specifics of one faulty case.
    pub fn compute(
        footprint: &Footprint,
        true_label: usize,
        predicted: usize,
        patterns: &ClassPatterns,
    ) -> Self {
        let depth = footprint.depth();
        let k = patterns.num_classes();
        let half = depth.div_ceil(2);

        // Alignment matrix align[l][c].
        let mut align = vec![vec![0.0f32; k]; depth];
        for (l, row) in align.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = stats::js_similarity(footprint.layer(l), patterns.pattern(l, c));
            }
        }

        let mean_over = |layers: std::ops::Range<usize>, c: usize| -> f32 {
            let vals: Vec<f32> = layers.clone().map(|l| align[l][c]).collect();
            stats::mean(&vals)
        };
        let early_align_true = mean_over(0..half, true_label);
        let late_align_true = mean_over(half.min(depth - 1)..depth, true_label);
        let late_align_pred = mean_over(half.min(depth - 1)..depth, predicted);

        let best_per_layer: Vec<f32> = align
            .iter()
            .map(|row| row.iter().copied().fold(f32::NEG_INFINITY, f32::max))
            .collect();
        let best_align_mean = stats::mean(&best_per_layer);

        let early_margins: Vec<f32> = (0..half)
            .map(|l| {
                let (best, second) = stats::top2(&align[l]);
                (best - second).max(0.0)
            })
            .collect();
        let early_margin = stats::mean(&early_margins);

        let baseline = patterns.own_alignment_mean().max(1e-4);
        let novelty = ((baseline - best_align_mean) / baseline).clamp(0.0, 1.0);

        FootprintSpecifics {
            true_label,
            predicted,
            early_align_true,
            late_align_true,
            late_align_pred,
            best_align_mean,
            early_margin,
            flip_fraction: footprint.flip_fraction(true_label),
            final_entropy: footprint.final_entropy(),
            final_conf_pred: footprint.last().get(predicted).copied().unwrap_or(0.0),
            novelty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintSet;

    fn patterns_3class() -> ClassPatterns {
        // Crisp synthetic training footprints for 3 classes, depth 4.
        let mut fps = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for _ in 0..6 {
                let mut layers = Vec::new();
                for l in 0..4usize {
                    let sharp = (l + 1) as f32 / 4.0;
                    let mut dist = vec![(1.0 - sharp) / 3.0; 3];
                    dist[c] += sharp;
                    layers.push(dist);
                }
                fps.push(Footprint::new(layers));
                labels.push(c);
            }
        }
        let set = FootprintSet::new(fps, vec!["a".into(), "b".into(), "c".into(), "d".into()], 3);
        ClassPatterns::learn(&set, &labels, vec![0.5, 0.7, 0.9, 1.0]).unwrap()
    }

    #[test]
    fn on_pattern_case_has_low_novelty() {
        let patterns = patterns_3class();
        // A case that follows class 0's pattern but was (mis)predicted 1.
        let fp = Footprint::new(vec![
            vec![0.42, 0.29, 0.29],
            vec![0.58, 0.21, 0.21],
            vec![0.75, 0.125, 0.125],
            vec![0.92, 0.04, 0.04],
        ]);
        let s = FootprintSpecifics::compute(&fp, 0, 1, &patterns);
        assert!(s.novelty < 0.1, "novelty {}", s.novelty);
        assert!(s.early_align_true > 0.8);
        assert_eq!(s.flip_fraction, 1.0);
    }

    #[test]
    fn uniform_case_is_novel_and_uncertain() {
        let patterns = patterns_3class();
        let fp = Footprint::new(vec![vec![1.0 / 3.0; 3]; 4]);
        let s = FootprintSpecifics::compute(&fp, 0, 1, &patterns);
        assert!(s.final_entropy > 0.99);
        assert!(s.early_margin < 0.05);
        // Uniform matches early patterns (which are near uniform) but not
        // late ones, so novelty is moderate rather than zero.
        assert!(s.novelty > 0.05, "novelty {}", s.novelty);
    }

    #[test]
    fn confident_flip_case_tracks_predicted_class_late() {
        let patterns = patterns_3class();
        // Starts on class 0's pattern, ends confidently on class 2's.
        let fp = Footprint::new(vec![
            vec![0.42, 0.29, 0.29],
            vec![0.45, 0.2, 0.35],
            vec![0.15, 0.1, 0.75],
            vec![0.04, 0.04, 0.92],
        ]);
        let s = FootprintSpecifics::compute(&fp, 0, 2, &patterns);
        assert!(s.late_align_pred > s.late_align_true);
        assert!(s.final_conf_pred > 0.9);
        assert!(s.flip_fraction <= 0.5);
        assert!(s.final_entropy < 0.4);
    }
}
