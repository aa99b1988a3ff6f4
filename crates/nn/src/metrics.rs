//! Classification metrics.

/// Fraction of predictions matching the labels (0 for empty input).
///
/// # Panics
///
/// Debug-asserts that the slices have equal length.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    debug_assert_eq!(predictions.len(), labels.len());
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / predictions.len() as f32
}

/// Row-major confusion matrix: `matrix[true][predicted]` counts.
///
/// Entries outside `[0, num_classes)` are ignored.
pub fn confusion_matrix(
    predictions: &[usize],
    labels: &[usize],
    num_classes: usize,
) -> Vec<Vec<usize>> {
    let mut matrix = vec![vec![0usize; num_classes]; num_classes];
    for (&p, &l) in predictions.iter().zip(labels) {
        if p < num_classes && l < num_classes {
            matrix[l][p] += 1;
        }
    }
    matrix
}

/// Aggregated per-class classification metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Overall accuracy.
    pub accuracy: f32,
    /// Per-class precision (0 when the class is never predicted).
    pub precision: Vec<f32>,
    /// Per-class recall (0 when the class never occurs).
    pub recall: Vec<f32>,
    /// The confusion matrix the metrics were derived from.
    pub confusion: Vec<Vec<usize>>,
}

impl Metrics {
    /// Computes metrics from predictions and ground-truth labels.
    pub fn compute(predictions: &[usize], labels: &[usize], num_classes: usize) -> Self {
        let confusion = confusion_matrix(predictions, labels, num_classes);
        let mut precision = vec![0.0; num_classes];
        let mut recall = vec![0.0; num_classes];
        for c in 0..num_classes {
            let tp = confusion[c][c];
            let predicted: usize = (0..num_classes).map(|t| confusion[t][c]).sum();
            let actual: usize = confusion[c].iter().sum();
            if predicted > 0 {
                precision[c] = tp as f32 / predicted as f32;
            }
            if actual > 0 {
                recall[c] = tp as f32 / actual as f32;
            }
        }
        Metrics {
            accuracy: accuracy(predictions, labels),
            precision,
            recall,
            confusion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn confusion_counts_rows_as_truth() {
        let m = confusion_matrix(&[0, 0, 1], &[0, 1, 1], 2);
        assert_eq!(m[0][0], 1); // true 0 predicted 0
        assert_eq!(m[1][0], 1); // true 1 predicted 0
        assert_eq!(m[1][1], 1);
        assert_eq!(m[0][1], 0);
    }

    #[test]
    fn metrics_perfect_classifier() {
        let m = Metrics::compute(&[0, 1, 2], &[0, 1, 2], 3);
        assert_eq!(m.accuracy, 1.0);
        assert!(m.precision.iter().all(|&p| p == 1.0));
        assert!(m.recall.iter().all(|&r| r == 1.0));
    }

    #[test]
    fn metrics_degenerate_class_handled() {
        // Class 2 never occurs nor is predicted: precision/recall = 0.
        let m = Metrics::compute(&[0, 1], &[0, 1], 3);
        assert_eq!(m.precision[2], 0.0);
        assert_eq!(m.recall[2], 0.0);
    }
}
