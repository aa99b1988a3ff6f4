//! Distribution and geometry helpers.
//!
//! DeepMorph's footprint analysis compares per-layer probe *distributions*
//! against per-class execution patterns. This module collects the scalar
//! comparisons it needs: Shannon entropy, KL/Jensen–Shannon divergence,
//! and simple summary statistics.
//!
//! All functions operate on plain `&[f32]` slices so they can be applied to
//! tensor rows without copying.

/// Shannon entropy (nats) of a probability vector.
///
/// Zero-probability entries contribute zero. Inputs are not renormalized;
/// pass distributions that already sum to 1.
pub fn entropy(p: &[f32]) -> f32 {
    p.iter().filter(|&&v| v > 0.0).map(|&v| -v * v.ln()).sum()
}

/// Entropy normalized to `[0, 1]` by `ln(k)`; 1 means uniform.
///
/// Returns 0 for vectors of length < 2.
pub fn normalized_entropy(p: &[f32]) -> f32 {
    if p.len() < 2 {
        return 0.0;
    }
    entropy(p) / (p.len() as f32).ln()
}

/// Kullback–Leibler divergence `KL(p ‖ q)` in nats, with ε-smoothing of `q`
/// to keep the result finite.
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    const EPS: f32 = 1e-7;
    p.iter()
        .zip(q)
        .filter(|(&pv, _)| pv > 0.0)
        .map(|(&pv, &qv)| pv * (pv / (qv + EPS)).ln())
        .sum()
}

/// Jensen–Shannon divergence, symmetric and bounded by `ln 2`.
pub fn js_divergence(p: &[f32], q: &[f32]) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    let m: Vec<f32> = p.iter().zip(q).map(|(a, b)| 0.5 * (a + b)).collect();
    0.5 * kl_divergence(p, &m) + 0.5 * kl_divergence(q, &m)
}

/// Jensen–Shannon similarity in `[0, 1]`: `1 - JSD/ln 2`.
///
/// This is DeepMorph's default footprint-to-pattern alignment metric.
pub fn js_similarity(p: &[f32], q: &[f32]) -> f32 {
    (1.0 - js_divergence(p, q) / std::f32::consts::LN_2).clamp(0.0, 1.0)
}

/// Squared Euclidean distance.
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Largest and second-largest values of a slice.
///
/// Returns `(max, second)`; for a single-element slice `second` is `-inf`.
/// Useful for "margin" computations over alignment scores.
pub fn top2(xs: &[f32]) -> (f32, f32) {
    let mut best = f32::NEG_INFINITY;
    let mut second = f32::NEG_INFINITY;
    for &v in xs {
        if v > best {
            second = best;
            best = v;
        } else if v > second {
            second = v;
        }
    }
    (best, second)
}

/// Index of the maximum element (0 for empty input).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Normalizes a non-negative vector to sum to 1 in place; leaves an
/// all-zero vector untouched.
pub fn normalize_in_place(xs: &mut [f32]) {
    let s: f32 = xs.iter().sum();
    if s > 0.0 {
        for v in xs {
            *v /= s;
        }
    }
}

/// Softmax of arbitrary scores (stable), returning a fresh vector.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = xs.iter().map(|v| (v - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    if s <= 0.0 || !s.is_finite() {
        vec![1.0 / xs.len().max(1) as f32; xs.len()]
    } else {
        exps.into_iter().map(|v| v / s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LN2: f32 = std::f32::consts::LN_2;

    #[test]
    fn entropy_uniform_is_ln_k() {
        let p = [0.25f32; 4];
        assert!((entropy(&p) - (4f32).ln()).abs() < 1e-6);
        assert!((normalized_entropy(&p) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn entropy_point_mass_is_zero() {
        let p = [1.0, 0.0, 0.0];
        assert_eq!(entropy(&p), 0.0);
        assert_eq!(normalized_entropy(&p), 0.0);
    }

    #[test]
    fn kl_zero_iff_equal() {
        let p = [0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-5);
        let q = [0.5, 0.3, 0.2];
        assert!(kl_divergence(&p, &q) > 0.0);
    }

    #[test]
    fn js_is_symmetric_and_bounded() {
        let p = [0.9, 0.1, 0.0];
        let q = [0.0, 0.1, 0.9];
        let d1 = js_divergence(&p, &q);
        let d2 = js_divergence(&q, &p);
        assert!((d1 - d2).abs() < 1e-6);
        assert!(d1 <= LN2 + 1e-5);
        assert!(d1 > 0.5 * LN2); // nearly disjoint supports
    }

    #[test]
    fn js_similarity_bounds() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert!(js_similarity(&p, &p) > 0.999);
        assert!(js_similarity(&p, &q) < 0.001);
    }

    #[test]
    fn top2_and_argmax() {
        let xs = [3.0, 9.0, 7.0, 9.0];
        assert_eq!(top2(&xs), (9.0, 9.0));
        assert_eq!(argmax(&xs), 1);
        assert_eq!(top2(&[5.0]), (5.0, f32::NEG_INFINITY));
    }

    #[test]
    fn softmax_sums_to_one_even_for_extreme_inputs() {
        let s = softmax(&[1000.0, -1000.0, 0.0]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(s[0] > 0.999);
    }

    #[test]
    fn normalize_handles_zero_vector() {
        let mut v = [0.0f32; 3];
        normalize_in_place(&mut v);
        assert_eq!(v, [0.0; 3]);
        let mut w = [2.0, 2.0];
        normalize_in_place(&mut w);
        assert_eq!(w, [0.5, 0.5]);
    }

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-6);
    }
}
