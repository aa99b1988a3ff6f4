//! Accumulation of misclassified live traffic for the diagnose endpoint.

use deepmorph::prelude::FaultyCases;
use deepmorph_tensor::Tensor;

use crate::error::{ServeError, ServeResult};

/// A capped, per-model buffer of misclassified requests.
///
/// Labeled predict requests whose prediction disagrees with the supplied
/// ground truth are recorded here (first `cap` cases kept, later ones
/// counted); a diagnose request turns the buffer into the
/// [`FaultyCases`] the DeepMorph pipeline analyzes — the serving
/// equivalent of the offline protocol's "collect the faulty cases from
/// the test set" step.
///
/// The buffer is *version-scoped*: every record carries the registry
/// epoch of the replica that produced the misclassification, and records
/// from any other epoch than the buffer's own are dropped (counted in
/// [`LiveCases::stale`]). When a repair hot-swaps a new model version in,
/// the swap advances the buffer's epoch and clears it, so the worker still
/// finishing an in-flight batch on the old version can never seed the new
/// version's diagnosis with pre-repair mistakes.
#[derive(Debug)]
pub struct LiveCases {
    shape: [usize; 3],
    cap: usize,
    epoch: u64,
    rows: Vec<f32>,
    true_labels: Vec<usize>,
    predicted: Vec<usize>,
    /// Total misclassifications observed at the current epoch, including
    /// those beyond the cap.
    pub seen: u64,
    /// Records dropped because they were produced by a superseded model
    /// version (their epoch predates the buffer's).
    pub stale: u64,
}

impl LiveCases {
    /// An empty buffer for inputs of shape `[c, h, w]`, keeping at most
    /// `cap` cases (`cap` is clamped to at least 1). Starts at epoch 0 —
    /// the registry epoch of a never-swapped model.
    pub fn new(shape: [usize; 3], cap: usize) -> Self {
        LiveCases {
            shape,
            cap: cap.max(1),
            epoch: 0,
            rows: Vec::new(),
            true_labels: Vec::new(),
            predicted: Vec::new(),
            seen: 0,
            stale: 0,
        }
    }

    /// Records one misclassified row (`row` is the flattened `c*h*w`
    /// image) observed on the model version installed at registry epoch
    /// `epoch`. Rows beyond the cap only bump [`LiveCases::seen`]; rows
    /// from a superseded epoch only bump [`LiveCases::stale`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] when `row` does not hold exactly
    /// `c*h*w` values — a wrong-length row is rejected before it can
    /// corrupt the flat buffer (and with it every later
    /// [`LiveCases::to_faulty_cases`]).
    pub fn record(
        &mut self,
        epoch: u64,
        row: &[f32],
        true_label: usize,
        predicted: usize,
    ) -> ServeResult<()> {
        let expect: usize = self.shape.iter().product();
        if row.len() != expect {
            return Err(ServeError::BadInput {
                reason: format!(
                    "live case row has {} values; inputs of shape {:?} need {expect}",
                    row.len(),
                    self.shape
                ),
            });
        }
        if epoch != self.epoch {
            self.stale += 1;
            return Ok(());
        }
        self.seen += 1;
        if self.len() >= self.cap {
            return Ok(());
        }
        self.rows.extend_from_slice(row);
        self.true_labels.push(true_label);
        self.predicted.push(predicted);
        Ok(())
    }

    /// Number of retained cases.
    pub fn len(&self) -> usize {
        self.true_labels.len()
    }

    /// `true` when no case has been retained.
    pub fn is_empty(&self) -> bool {
        self.true_labels.is_empty()
    }

    /// The epoch this buffer currently accumulates for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drops every retained case and resets the counters (same epoch).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.true_labels.clear();
        self.predicted.clear();
        self.seen = 0;
        self.stale = 0;
    }

    /// Starts accumulating for a newly swapped-in model version: clears
    /// the buffer and moves its epoch forward, so records still arriving
    /// from the superseded version are dropped as stale.
    pub fn advance_epoch(&mut self, epoch: u64) {
        self.clear();
        self.epoch = epoch;
    }

    /// Materializes the buffer as [`FaultyCases`] for diagnosis.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Diagnosis`] when the buffer is empty.
    pub fn to_faulty_cases(&self) -> ServeResult<FaultyCases> {
        if self.is_empty() {
            return Err(ServeError::Diagnosis {
                reason: "no misclassified labeled traffic accumulated yet".into(),
            });
        }
        let [c, h, w] = self.shape;
        let images = Tensor::from_vec(self.rows.clone(), &[self.len(), c, h, w])?;
        Ok(FaultyCases {
            images,
            true_labels: self.true_labels.clone(),
            predicted: self.predicted.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_but_keeps_counting() {
        let mut cases = LiveCases::new([1, 2, 2], 2);
        for i in 0..5 {
            cases.record(0, &[i as f32; 4], i, (i + 1) % 3).unwrap();
        }
        assert_eq!(cases.len(), 2);
        assert_eq!(cases.seen, 5);
        let faulty = cases.to_faulty_cases().unwrap();
        assert_eq!(faulty.images.shape(), &[2, 1, 2, 2]);
        assert_eq!(faulty.true_labels, vec![0, 1]);
        cases.clear();
        assert!(cases.to_faulty_cases().is_err());
        assert_eq!(cases.seen, 0);
    }

    // Runs in release test builds too: the length check is a hard
    // validation, not a debug assertion — a wrong-length row must be a
    // typed error, never silent buffer corruption.
    #[test]
    fn wrong_length_rows_are_rejected_not_recorded() {
        let mut cases = LiveCases::new([1, 2, 2], 8);
        cases.record(0, &[0.5; 4], 0, 1).unwrap();

        for bad_len in [0usize, 3, 5, 16] {
            let row = vec![1.0; bad_len];
            match cases.record(0, &row, 1, 2) {
                Err(ServeError::BadInput { reason }) => {
                    assert!(reason.contains(&bad_len.to_string()), "reason: {reason}");
                    assert!(reason.contains('4'), "reason: {reason}");
                }
                other => panic!("len {bad_len}: expected BadInput, got {other:?}"),
            }
        }
        // The rejected rows corrupted nothing: the buffer still converts.
        assert_eq!(cases.len(), 1);
        assert_eq!(cases.seen, 1);
        let faulty = cases.to_faulty_cases().unwrap();
        assert_eq!(faulty.images.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn epoch_advance_clears_and_rejects_stale() {
        let mut cases = LiveCases::new([1, 2, 2], 8);
        cases.record(0, &[0.1; 4], 0, 1).unwrap();
        assert_eq!(cases.len(), 1);

        cases.advance_epoch(1);
        assert!(cases.is_empty(), "swap must clear pre-repair cases");
        assert_eq!(cases.epoch(), 1);

        // A worker still on the old version records after the swap: the
        // stale case must not reach the next diagnosis.
        cases.record(0, &[0.2; 4], 1, 2).unwrap();
        assert!(cases.is_empty());
        assert_eq!(cases.stale, 1);

        // Traffic from the new version accumulates normally.
        cases.record(1, &[0.3; 4], 2, 3).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases.seen, 1);
    }
}
