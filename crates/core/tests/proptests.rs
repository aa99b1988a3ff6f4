//! Property-based tests for DeepMorph's analysis invariants.

use deepmorph::classify::{classify, score_case, CaseScores, PopulationEvidence};
use deepmorph::footprint::{Footprint, FootprintSet};
use deepmorph::pattern::ClassPatterns;
use deepmorph::report::DefectRatios;
use deepmorph::specifics::FootprintSpecifics;
use proptest::prelude::*;

/// Strategy: a probability distribution over `k` classes.
fn distribution(k: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(0.01f32..1.0, k).prop_map(|mut v| {
        let s: f32 = v.iter().sum();
        for x in &mut v {
            *x /= s;
        }
        v
    })
}

/// Strategy: a footprint of `depth` layers over `k` classes.
fn footprint(depth: usize, k: usize) -> impl Strategy<Value = Footprint> {
    proptest::collection::vec(distribution(k), depth).prop_map(Footprint::new)
}

/// A small but non-degenerate pattern fixture.
fn patterns_fixture(k: usize, depth: usize) -> ClassPatterns {
    let mut fps = Vec::new();
    let mut labels = Vec::new();
    for c in 0..k {
        for _ in 0..5 {
            let mut layers = Vec::new();
            for l in 0..depth {
                let sharp = (l + 1) as f32 / depth as f32;
                let mut dist = vec![(1.0 - sharp) / k as f32; k];
                dist[c] += sharp;
                layers.push(dist);
            }
            fps.push(Footprint::new(layers));
            labels.push(c);
        }
    }
    let set = FootprintSet::new(fps, (0..depth).map(|l| format!("l{l}")).collect(), k);
    ClassPatterns::learn(&set, &labels, vec![0.8; depth]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn specifics_are_bounded(fp in footprint(4, 5), t in 0usize..5, p in 0usize..5) {
        prop_assume!(t != p);
        let patterns = patterns_fixture(5, 4);
        let s = FootprintSpecifics::compute(&fp, t, p, &patterns);
        for v in [
            s.early_align_true,
            s.late_align_true,
            s.late_align_pred,
            s.best_align_mean,
            s.early_margin,
            s.flip_fraction,
            s.final_entropy,
            s.final_conf_pred,
            s.novelty,
        ] {
            prop_assert!((0.0..=1.0 + 1e-4).contains(&v), "{v} out of range ({s:?})");
        }
    }

    #[test]
    fn case_scores_are_nonnegative_and_distribution_normalizes(
        fp in footprint(4, 5), t in 0usize..5, p in 0usize..5,
    ) {
        prop_assume!(t != p);
        let patterns = patterns_fixture(5, 4);
        let s = FootprintSpecifics::compute(&fp, t, p, &patterns);
        let pop = PopulationEvidence::compute(std::slice::from_ref(&s), 5);
        let scores = score_case(&s, &patterns, &pop);
        prop_assert!(scores.scores.iter().all(|&v| v >= 0.0));
        let dist = scores.distribution();
        prop_assert!((dist.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn classify_ratios_are_a_distribution(
        fps in proptest::collection::vec(footprint(4, 5), 1..20),
        seed in 0u64..100,
    ) {
        let patterns = patterns_fixture(5, 4);
        let specifics: Vec<FootprintSpecifics> = fps
            .iter()
            .enumerate()
            .map(|(i, fp)| {
                let t = (i + seed as usize) % 5;
                let p = (t + 1 + i % 4) % 5;
                FootprintSpecifics::compute(fp, t, p, &patterns)
            })
            .collect();
        let (scores, ratios) = classify(&specifics, &patterns);
        prop_assert_eq!(scores.len(), specifics.len());
        prop_assert!((ratios.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        // Ratios agree with per-case assignments.
        let mut counted = [0.0f32; 3];
        for s in &scores {
            counted[s.assigned().index()] += 1.0 / scores.len() as f32;
        }
        for (a, b) in counted.iter().zip(&ratios) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn population_evidence_is_bounded(
        labels in proptest::collection::vec((0usize..5, 0usize..5), 1..30),
    ) {
        let patterns = patterns_fixture(5, 4);
        let specifics: Vec<FootprintSpecifics> = labels
            .iter()
            .filter(|(t, p)| t != p)
            .map(|&(t, p)| {
                let fp = Footprint::new(vec![vec![0.2; 5]; 4]);
                FootprintSpecifics::compute(&fp, t, p, &patterns)
            })
            .collect();
        let pop = PopulationEvidence::compute(&specifics, 5);
        for v in [pop.pair_concentration, pop.true_concentration, pop.pred_concentration] {
            prop_assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn ratios_dominant_matches_argmax(r in proptest::collection::vec(0.0f32..1.0, 3)) {
        let ratios = DefectRatios::new([r[0], r[1], r[2]]);
        match ratios.dominant() {
            Some(kind) => {
                let arr = ratios.as_array();
                let max = arr.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!((ratios.get(kind) - max).abs() < 1e-6);
            }
            None => prop_assert!(r.iter().all(|&v| v == 0.0)),
        }
    }

    #[test]
    fn flip_fraction_monotone_in_prefix(k in 2usize..6, depth in 1usize..6) {
        // A footprint that always argmaxes class 0 never flips for label 0
        // and flips immediately for any other label.
        let mut dist = vec![0.1 / (k - 1) as f32; k];
        dist[0] = 0.9;
        let fp = Footprint::new(vec![dist; depth]);
        prop_assert_eq!(fp.flip_fraction(0), 1.0);
        prop_assert_eq!(fp.flip_fraction(1), 0.0);
    }
}

#[test]
fn case_scores_tie_breaks_deterministically() {
    let s = CaseScores { scores: [0.5; 3] };
    // argmax of equal scores returns the first (ITD) — stable behavior.
    assert_eq!(s.assigned().index(), 0);
}
