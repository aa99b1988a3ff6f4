//! Human-readable diagnosis explanations.
//!
//! The paper positions DeepMorph as a tool that "can instantly direct a
//! developer to improving the DL model". This module renders the evidence
//! behind a diagnosis: a per-case, layer-by-layer trace of how the input's
//! data flow departed from its class's execution pattern, plus the
//! aggregate narrative for the whole report.

use std::fmt::Write as _;

use deepmorph_tensor::stats;

use crate::footprint::Footprint;
use crate::pattern::ClassPatterns;
use crate::report::DefectReport;

/// Renders a layer-by-layer trace of one faulty case.
///
/// Each probed layer shows the probe's top class, its probability, the
/// alignment with the true class's execution pattern, and the alignment
/// with the predicted class's pattern — the columns a developer reads to
/// see *where* the flow went wrong.
pub fn explain_case(
    footprint: &Footprint,
    true_label: usize,
    predicted: usize,
    patterns: &ClassPatterns,
    probe_labels: &[String],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "case: true class {true_label}, predicted {predicted}");
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>7} | {:>10} {:>10}",
        "layer", "top", "p(top)", "align(true)", "align(pred)"
    );
    for l in 0..footprint.depth() {
        let dist = footprint.layer(l);
        let top = stats::argmax(dist);
        let a_true = stats::js_similarity(dist, patterns.pattern(l, true_label));
        let a_pred = stats::js_similarity(dist, patterns.pattern(l, predicted));
        let marker = if top == true_label {
            " "
        } else if top == predicted {
            "<- flips to prediction"
        } else {
            "<- departs"
        };
        let label = probe_labels.get(l).map(String::as_str).unwrap_or("(probe)");
        let _ = writeln!(
            out,
            "{label:<12} {top:>6} {:>7.3} | {a_true:>10.3} {a_pred:>10.3}  {marker}",
            dist[top],
        );
    }
    out
}

/// Renders the aggregate narrative for a report: what was found, the
/// strength of the evidence, and the recommended next step.
pub fn explain_report(report: &DefectReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Diagnosis of {}", report.subject);
    let _ = writeln!(
        out,
        "Analyzed {} faulty cases across {} probed layers.",
        report.num_cases,
        report.probe_labels.len()
    );
    let _ = writeln!(out, "Defect attribution: {}.", report.ratios);

    match report.dominant() {
        None => {
            let _ = writeln!(out, "No dominant defect could be established.");
        }
        Some(kind) => {
            let ratio = report.ratio(kind);
            let strength = if ratio >= 0.75 {
                "strong"
            } else if ratio >= 0.5 {
                "clear"
            } else {
                "weak (inspect per-case evidence)"
            };
            let _ = writeln!(
                out,
                "Dominant defect: {} ({}) — {} evidence at ratio {:.2}.",
                kind.abbrev(),
                kind.name(),
                strength,
                ratio
            );
            let advice = match kind.abbrev() {
                "ITD" => {
                    "Next step: inspect the true-class histogram of the faulty cases and \
                     collect more training data for the over-represented classes."
                }
                "UTD" => {
                    "Next step: audit training labels along the dominant (true -> predicted) \
                     pair; samples carrying the predicted label but executing as the true \
                     class are likely mislabeled."
                }
                _ => {
                    "Next step: the model separates even its own training data poorly, or \
                     its probes outvote its head; add convolutional capacity or depth."
                }
            };
            let _ = writeln!(out, "{advice}");
        }
    }
    if let Some((worst_idx, _)) = report
        .probe_accuracies
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("accuracies are finite"))
    {
        let _ = writeln!(
            out,
            "Weakest stage: {} (probe accuracy {:.2}); model health {:.2}.",
            report.probe_labels[worst_idx], report.probe_accuracies[worst_idx], report.model_health
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintSet;
    use crate::report::{CaseDiagnosis, DefectRatios};

    fn patterns() -> ClassPatterns {
        let mut fps = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for _ in 0..4 {
                let mut layers = Vec::new();
                for l in 0..3usize {
                    let sharp = (l + 1) as f32 / 3.0;
                    let mut dist = vec![(1.0 - sharp) / 3.0; 3];
                    dist[c] += sharp;
                    layers.push(dist);
                }
                fps.push(Footprint::new(layers));
                labels.push(c);
            }
        }
        let set = FootprintSet::new(fps, vec!["stage1".into(), "stage2".into(), "fc".into()], 3);
        ClassPatterns::learn(&set, &labels, vec![0.5, 0.7, 0.9]).unwrap()
    }

    #[test]
    fn case_trace_shows_flip() {
        let p = patterns();
        let fp = Footprint::new(vec![
            vec![0.5, 0.25, 0.25],
            vec![0.2, 0.7, 0.1],
            vec![0.05, 0.9, 0.05],
        ]);
        let text = explain_case(
            &fp,
            0,
            1,
            &p,
            &["stage1".into(), "stage2".into(), "fc".into()],
        );
        assert!(text.contains("true class 0"));
        assert!(text.contains("flips to prediction"));
        assert!(text.contains("stage2"));
    }

    #[test]
    fn report_narrative_names_defect_and_next_step() {
        let report = DefectReport {
            ratios: DefectRatios::new([0.1, 0.8, 0.1]),
            num_cases: 20,
            probe_labels: vec!["stage1".into(), "fc".into()],
            probe_accuracies: vec![0.4, 0.9],
            model_health: 0.88,
            cases: vec![CaseDiagnosis {
                case_index: 0,
                true_label: 3,
                predicted: 5,
                assigned: "UTD".into(),
                score_distribution: [0.1, 0.8, 0.1],
            }],
            subject: "ResNet on synth-objects".into(),
        };
        let text = explain_report(&report);
        assert!(text.contains("Unreliable Training Data"));
        assert!(text.contains("audit training labels"));
        assert!(text.contains("strong"));
        assert!(text.contains("stage1")); // weakest probe
    }

    #[test]
    fn weak_evidence_is_flagged() {
        let report = DefectReport {
            ratios: DefectRatios::new([0.4, 0.35, 0.25]),
            num_cases: 5,
            probe_labels: vec!["fc".into()],
            probe_accuracies: vec![0.9],
            model_health: 0.9,
            cases: vec![],
            subject: "x".into(),
        };
        let text = explain_report(&report);
        assert!(text.contains("weak"));
    }
}
