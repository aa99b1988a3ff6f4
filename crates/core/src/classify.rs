//! The defect classifier.
//!
//! DeepMorph's last stage (paper Fig. 1): "by examining the process, layer
//! by layer, of how inputs are misclassified, DeepMorph can then reason the
//! defect that causes the faulty cases". Each faulty case is scored against
//! three defect signatures:
//!
//! * **SD** — the model itself is weak: its *training* data is poorly
//!   separated even at the deepest probes (low health), and early-layer
//!   alignments carry no margin.
//! * **ITD** — the case is out-of-distribution: it aligns with *no* class
//!   pattern anywhere (high novelty) and the final layers are uncertain
//!   rather than confidently wrong.
//! * **UTD** — the model learned a confusion: the footprint flips to a
//!   specific wrong class *with confidence*, and the same (true → predicted)
//!   pair recurs across the faulty cases.
//!
//! Each case is assigned to its best-scoring defect; the report's ratios
//! are the assignment fractions (matching how Table I rows sum to ≈ 1).
//!
//! There is one classifier: footprints align with patterns by
//! Jensen–Shannon similarity ([`crate::specifics`]), every case is scored
//! with the calibrated [`WEIGHTS`], and population evidence
//! ([`PopulationEvidence`]) always contributes. On held-out seeds a
//! cosine alignment won no more cells and scored the injected defect
//! lower wherever its ratios differed, and dropping population evidence
//! lost four cells.

use deepmorph_tensor::stats;

use deepmorph_defects::DefectKind;

use crate::pattern::ClassPatterns;
use crate::specifics::FootprintSpecifics;

/// Signature weights: how much each piece of evidence counts towards its
/// defect's score. The one set in use is [`WEIGHTS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignatureWeights {
    /// ITD: weight of the true class being starved in the training set.
    pub itd_starvation: f32,
    /// ITD: weight of final-layer uncertainty.
    pub itd_entropy: f32,
    /// ITD: weight of prediction scatter (errors not forming one pair).
    pub itd_scatter: f32,
    /// ITD: weight of footprint novelty.
    pub itd_novelty: f32,
    /// UTD: weight of training-set contamination along this case's
    /// (predicted → true) direction.
    pub utd_contamination: f32,
    /// UTD: weight of the training set's overall label-noise concentration
    /// (population evidence independent of the individual case).
    pub utd_noise_concentration: f32,
    /// UTD: weight of confident wrong prediction (scaled by model health).
    pub utd_confidence: f32,
    /// UTD: weight of (true → predicted) pair recurrence.
    pub utd_pair_concentration: f32,
    /// SD: weight of probe/model disagreement (footprint stays on the true
    /// class while the model head predicts something else).
    pub sd_probe_disagreement: f32,
    /// SD: weight of low model health (training data inseparable).
    pub sd_unhealth: f32,
    /// SD: weight of missing early-layer margin on an unhealthy model.
    pub sd_early_flatness: f32,
}

/// The signature weights every diagnosis scores with. They were
/// calibrated once against the mean per-defect feature values printed by
/// the `calibrate` binary
/// (`cargo run --release -p deepmorph-bench --bin calibrate`) and are
/// deliberately *not* per-model: Table I uses a single configuration
/// across all four architectures, as the paper does.
pub const WEIGHTS: SignatureWeights = SignatureWeights {
    itd_starvation: 0.50,
    itd_entropy: 0.20,
    itd_scatter: 0.20,
    itd_novelty: 0.10,
    utd_contamination: 0.45,
    utd_noise_concentration: 0.25,
    utd_confidence: 0.15,
    utd_pair_concentration: 0.15,
    sd_probe_disagreement: 0.65,
    sd_unhealth: 0.35,
    sd_early_flatness: 0.10,
};

/// Population-level evidence shared by all cases of one diagnosis run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationEvidence {
    /// Largest fraction of faulty cases sharing one (true, predicted) pair.
    pub pair_concentration: f32,
    /// 1 − normalized entropy of the true-label histogram (1 = all faulty
    /// cases come from one class).
    pub true_concentration: f32,
    /// 1 − normalized entropy of the predicted-label histogram.
    pub pred_concentration: f32,
}

impl PopulationEvidence {
    /// Computes the evidence from the faulty cases' labels.
    pub fn compute(cases: &[FootprintSpecifics], num_classes: usize) -> Self {
        if cases.is_empty() {
            return PopulationEvidence {
                pair_concentration: 0.0,
                true_concentration: 0.0,
                pred_concentration: 0.0,
            };
        }
        let n = cases.len() as f32;
        let mut pair_counts = std::collections::HashMap::new();
        let mut true_hist = vec![0.0f32; num_classes];
        let mut pred_hist = vec![0.0f32; num_classes];
        for c in cases {
            *pair_counts
                .entry((c.true_label, c.predicted))
                .or_insert(0usize) += 1;
            true_hist[c.true_label] += 1.0;
            pred_hist[c.predicted] += 1.0;
        }
        let pair_concentration = pair_counts.values().copied().max().unwrap_or(0) as f32 / n;
        stats::normalize_in_place(&mut true_hist);
        stats::normalize_in_place(&mut pred_hist);
        PopulationEvidence {
            pair_concentration,
            true_concentration: 1.0 - stats::normalized_entropy(&true_hist),
            pred_concentration: 1.0 - stats::normalized_entropy(&pred_hist),
        }
    }
}

/// Raw per-case signature scores (before assignment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseScores {
    /// Score for ITD / UTD / SD in [`DefectKind::all`] order.
    pub scores: [f32; 3],
}

impl CaseScores {
    /// The winning defect kind.
    pub fn assigned(&self) -> DefectKind {
        DefectKind::all()[stats::argmax(&self.scores)]
    }

    /// Scores normalized to a distribution.
    pub fn distribution(&self) -> [f32; 3] {
        let mut d = self.scores;
        let total: f32 = d.iter().sum();
        if total > 0.0 {
            for v in &mut d {
                *v /= total;
            }
        } else {
            d = [1.0 / 3.0; 3];
        }
        d
    }
}

/// Scores every case and returns `(per-case scores, ratios)`, where
/// `ratios[i]` is the fraction of cases assigned to `DefectKind::all()[i]`.
pub fn classify(
    cases: &[FootprintSpecifics],
    patterns: &ClassPatterns,
) -> (Vec<CaseScores>, [f32; 3]) {
    let population = PopulationEvidence::compute(cases, patterns.num_classes());
    let scores: Vec<CaseScores> = cases
        .iter()
        .map(|c| score_case(c, patterns, &population))
        .collect();
    let mut ratios = [0.0f32; 3];
    for s in &scores {
        ratios[s.assigned().index()] += 1.0;
    }
    let n = scores.len().max(1) as f32;
    for r in &mut ratios {
        *r /= n;
    }
    (scores, ratios)
}

/// Scores one case against the three signatures, given the population
/// evidence of the run it belongs to.
pub fn score_case(
    case: &FootprintSpecifics,
    patterns: &ClassPatterns,
    population: &PopulationEvidence,
) -> CaseScores {
    let w = &WEIGHTS;
    let health = patterns.health();
    // Early-layer margin relative to the training baseline: a weak
    // model never develops margins, so both the case and the baseline
    // are flat; a healthy model has a baseline the case can fail to
    // reach.
    let margin_baseline = patterns.early_margin_baseline().max(1e-3);
    let early_margin_rel = (case.early_margin / margin_baseline).clamp(0.0, 1.0);

    // ITD: the case's true class is starved in the *data flow* of the
    // training set (nothing executes like it, whatever the labels
    // say), the network is consequently uncertain, and errors scatter
    // instead of forming one (true, predicted) pair. Starvation is
    // squared so residual imbalance never masquerades as ITD, and
    // gated by health: when the probes are near chance (a crippled
    // structure), the flow histogram is unreadable and a skewed one
    // must not fake a data hole.
    let starvation = patterns.starvation(case.true_label) * health;
    let itd = w.itd_starvation * starvation * starvation
        + w.itd_entropy * case.final_entropy
        + w.itd_scatter
            * population.true_concentration
            * (1.0 - population.pair_concentration).max(0.0)
        + w.itd_novelty * case.novelty;

    // UTD: the training set itself is contaminated along this case's
    // confusion pair. The fingerprint appears in either direction
    // depending on how far the backbone adopted the corruption:
    // lightly-trained models leave samples *labeled* `predicted` that
    // execute like `true_label`; heavily-trained ones drag the
    // remaining genuine `true_label` samples toward `predicted`
    // (labeled `true_label`, executing like `predicted`). Either way
    // the (true, predicted) pair lights up, so take the max (a 40%
    // relabel yields contamination ≈ 0.3; probe error is ≈ 0.03, so a
    // 3x gain saturates the real signal while noise stays small). The
    // per-case term is damped by how concentrated the overall label
    // noise is, so a weak model's diffuse probe errors do not imitate
    // mislabeling; the same concentration is population-level UTD
    // evidence on its own.
    let noise = patterns.concentrated_label_noise();
    let pair_contamination = patterns
        .contamination(case.predicted, case.true_label)
        .max(patterns.contamination(case.true_label, case.predicted));
    let contamination = (3.0 * pair_contamination).clamp(0.0, 1.0);
    let utd = w.utd_contamination * contamination * noise.max(0.25)
        + w.utd_noise_concentration * noise
        + w.utd_confidence * case.final_conf_pred * health
        + w.utd_pair_concentration * population.pair_concentration * (1.0 - starvation);

    // SD: the probes say the features support the true class all the
    // way down (late flip or none, low probe probability for the
    // model's prediction), yet the head misclassifies — the structure
    // cannot exploit its own features. Low health (training data never
    // separates) and flat early margins corroborate. Concentrated
    // label noise explains away the probe/model disagreement.
    let sd = w.sd_probe_disagreement
        * case.flip_fraction
        * (1.0 - case.final_conf_pred)
        * (1.0 - noise)
        * (1.0 - starvation)
        + w.sd_unhealth * (1.0 - health)
        + w.sd_early_flatness * (1.0 - early_margin_rel) * (1.0 - health);

    CaseScores {
        scores: [itd.max(0.0), utd.max(0.0), sd.max(0.0)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{Footprint, FootprintSet};

    fn patterns_with_health(last_acc: f32) -> ClassPatterns {
        let mut fps = Vec::new();
        let mut labels = Vec::new();
        for c in 0..4usize {
            for _ in 0..5 {
                let mut layers = Vec::new();
                for l in 0..4usize {
                    let sharp = (l + 1) as f32 / 4.0;
                    let mut dist = vec![(1.0 - sharp) / 4.0; 4];
                    dist[c] += sharp;
                    layers.push(dist);
                }
                fps.push(Footprint::new(layers));
                labels.push(c);
            }
        }
        let set = FootprintSet::new(fps, (0..4).map(|l| format!("l{l}")).collect(), 4);
        ClassPatterns::learn(&set, &labels, vec![0.3, 0.5, 0.8, last_acc]).unwrap()
    }

    fn case(
        novelty: f32,
        entropy: f32,
        conf: f32,
        late_pred: f32,
        early_margin: f32,
    ) -> FootprintSpecifics {
        FootprintSpecifics {
            true_label: 0,
            predicted: 1,
            early_align_true: 0.5,
            late_align_true: 0.3,
            late_align_pred: late_pred,
            best_align_mean: 0.5,
            early_margin,
            flip_fraction: 0.5,
            final_entropy: entropy,
            final_conf_pred: conf,
            novelty,
        }
    }

    #[test]
    fn novel_uncertain_cases_score_itd() {
        let patterns = patterns_with_health(0.95);
        let pop = PopulationEvidence {
            pair_concentration: 0.2,
            true_concentration: 0.8,
            pred_concentration: 0.3,
        };
        let c = case(0.8, 0.9, 0.3, 0.3, 0.1);
        let s = score_case(&c, &patterns, &pop);
        assert_eq!(s.assigned(), DefectKind::InsufficientTrainingData);
    }

    #[test]
    fn confident_pair_confusions_score_utd() {
        let patterns = patterns_with_health(0.95);
        let pop = PopulationEvidence {
            pair_concentration: 0.85,
            true_concentration: 0.9,
            pred_concentration: 0.9,
        };
        let c = case(0.1, 0.1, 0.95, 0.9, 0.4);
        let s = score_case(&c, &patterns, &pop);
        assert_eq!(s.assigned(), DefectKind::UnreliableTrainingData);
    }

    #[test]
    fn unhealthy_model_scores_sd() {
        let patterns = patterns_with_health(0.15); // barely above chance
        let pop = PopulationEvidence {
            pair_concentration: 0.1,
            true_concentration: 0.2,
            pred_concentration: 0.2,
        };
        let c = case(0.3, 0.6, 0.4, 0.4, 0.02);
        let s = score_case(&c, &patterns, &pop);
        assert_eq!(s.assigned(), DefectKind::StructureDefect);
    }

    #[test]
    fn ratios_sum_to_one() {
        let patterns = patterns_with_health(0.9);
        let cases: Vec<FootprintSpecifics> = (0..10)
            .map(|i| case(0.1 * i as f32 / 10.0, 0.5, 0.5, 0.5, 0.2))
            .collect();
        let (scores, ratios) = classify(&cases, &patterns);
        assert_eq!(scores.len(), 10);
        assert!((ratios.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn distribution_normalizes() {
        let s = CaseScores {
            scores: [1.0, 3.0, 0.0],
        };
        let d = s.distribution();
        assert!((d.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((d[1] - 0.75).abs() < 1e-6);
        let zero = CaseScores { scores: [0.0; 3] };
        assert_eq!(zero.distribution(), [1.0 / 3.0; 3]);
    }

    #[test]
    fn population_evidence_detects_pair_concentration() {
        let mut cases = Vec::new();
        for _ in 0..8 {
            cases.push(case(0.1, 0.1, 0.9, 0.9, 0.3)); // all (0 -> 1)
        }
        let mut other = case(0.1, 0.1, 0.9, 0.9, 0.3);
        other.true_label = 2;
        other.predicted = 3;
        cases.push(other);
        let pop = PopulationEvidence::compute(&cases, 4);
        assert!(pop.pair_concentration > 0.8);
        assert!(pop.true_concentration > 0.4);
        let empty = PopulationEvidence::compute(&[], 4);
        assert_eq!(empty.pair_concentration, 0.0);
    }
}
