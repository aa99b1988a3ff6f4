//! Reduced-precision inference: i8 symmetric quantization with a
//! dynamic-activation integer GEMM.
//!
//! Serving replicas can trade precision for latency/footprint while
//! training and diagnosis stay f32 (`deepmorph-serve` gates every
//! promotion behind the held-out swap gate, so a lossy replica never
//! ships silently). At [`Precision::I8`], weight matrices used in `x·Wᵀ`
//! products are stored as [`QuantizedMat`] (per-output-row symmetric
//! scales), activations are quantized per row at run time, dots
//! accumulate in i32 ([`qgemm_nt`]) and are rescaled to f32; the
//! remaining parameters are rounded through IEEE 754 binary16
//! ([`f16_round`]). With the `simd` feature on an AVX2 machine both
//! halves of the product vectorize: activations quantize 8 lanes at a
//! time and the inner dot runs 32 i16 multiply-accumulates per unrolled
//! iteration, all inside one `target_feature` region per product.
//!
//! Accuracy is asserted end to end, not per kernel, by
//! `crates/serve/tests/quantized_serving.rs`: an i8 replica of a seeded
//! LeNet must clear the held-out promotion gate. The tolerances that
//! matter are model-level.

use std::fmt;

/// Numeric precision of a serving replica's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full f32 parameters — bitwise-exact with the trained model.
    #[default]
    F32,
    /// `x·Wᵀ` weights in symmetric per-row i8 with dynamic activation
    /// scales; remaining parameters rounded through f16.
    I8,
}

impl Precision {
    /// Stable identifier (registry metadata, bench notes, CLI flags).
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::I8 => "i8",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Rounds `v` to the nearest IEEE 754 binary16 value (ties to even) and
/// widens back to f32. Values beyond ±65504 round to ±∞, NaN stays NaN,
/// and halfway cases follow the hardware convention — this is the exact
/// value an f16 execution unit would load.
pub fn f16_round(v: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(v))
}

/// Applies [`f16_round`] to every element in place.
pub fn f16_round_slice(xs: &mut [f32]) {
    for v in xs.iter_mut() {
        *v = f16_round(*v);
    }
}

fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x7f_ffff;
    if exp == 0xff {
        // Inf / NaN (quiet any NaN payload).
        return if man == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00
        };
    }
    let e16 = exp - 127 + 15;
    if e16 >= 31 {
        return sign | 0x7c00; // overflow → inf
    }
    if e16 <= 0 {
        if e16 < -10 {
            return sign; // underflow → signed zero
        }
        // Subnormal: drop (14 - e16) bits of the 24-bit significand, RNE.
        let m = man | 0x80_0000;
        let shift = (14 - e16) as u32;
        let half = 1u32 << (shift - 1);
        let rem = m & ((1 << shift) - 1);
        let mut h = (m >> shift) as u16;
        if rem > half || (rem == half && h & 1 == 1) {
            h += 1; // may carry into the exponent — that is the correct RNE result
        }
        return sign | h;
    }
    // Normal: drop 13 mantissa bits, RNE; a carry out of the mantissa
    // walks into the exponent field (up to inf) by construction.
    let rem = man & 0x1fff;
    let mut h = ((e16 as u32) << 10 | (man >> 13)) as u16;
    if rem > 0x1000 || (rem == 0x1000 && h & 1 == 1) {
        h = h.wrapping_add(1);
    }
    sign | h
}

fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x3ff) as u32;
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | man << 13);
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: normalize the 10-bit significand.
        let lz = man.leading_zeros() - 22;
        let exp32 = 112 - lz;
        let man32 = (man << (14 + lz)) & 0x7f_ffff;
        return f32::from_bits(sign | exp32 << 23 | man32);
    }
    f32::from_bits(sign | (exp as u32 + 112) << 23 | man << 13)
}

/// A weight matrix quantized to symmetric per-row i8: row `j` stores
/// `round(w[j·cols + c] / scales[j])` clamped to ±127, with
/// `scales[j] = max|row j| / 127`. Built once per replica at
/// publish/replicate time; consumed by [`qgemm_nt`].
#[derive(Debug, Clone)]
pub struct QuantizedMat {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMat {
    /// Quantizes a row-major `[rows, cols]` f32 matrix.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows * cols`.
    pub fn from_rows(w: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(w.len(), rows * cols, "QuantizedMat: weight length");
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![1.0f32; rows];
        for j in 0..rows {
            let row = &w[j * cols..(j + 1) * cols];
            let max = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if max > 0.0 && max.is_finite() {
                max / 127.0
            } else {
                1.0
            };
            scales[j] = scale;
            for (q, &v) in data[j * cols..(j + 1) * cols].iter_mut().zip(row) {
                *q = (v / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
        QuantizedMat {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Output rows (`n` of the `x·Wᵀ` product).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Inner dimension (`k` of the `x·Wᵀ` product).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The widened (dequantized) matrix — what the quantized product
    /// effectively multiplies by; used by accuracy tests.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.data.len()];
        for j in 0..self.rows {
            let s = self.scales[j];
            for (o, &q) in out[j * self.cols..(j + 1) * self.cols]
                .iter_mut()
                .zip(&self.data[j * self.cols..(j + 1) * self.cols])
            {
                *o = q as f32 * s;
            }
        }
        out
    }
}

/// Quantized `out = x · Wᵀ`: `x` is f32 `[m, k]`, `W` is a
/// [`QuantizedMat`] `[n, k]`. Each activation row is quantized on the fly
/// with its own symmetric scale (`max|row| / 127`), dots accumulate in
/// i32, and the result is rescaled to f32 — `out` is **assigned**, not
/// accumulated.
///
/// The i32 accumulator bounds `k` at ~130 000 (127² · k must stay below
/// `i32::MAX`); network products are orders of magnitude below that.
///
/// # Panics
///
/// Panics if slice lengths disagree with `[m, k]` / `[m, n]`.
pub fn qgemm_nt(x: &[f32], w: &QuantizedMat, out: &mut [f32], m: usize) {
    let (k, n) = (w.cols, w.rows);
    assert_eq!(x.len(), m * k, "qgemm_nt: lhs length");
    assert_eq!(out.len(), m * n, "qgemm_nt: out length");
    debug_assert!(127i64 * 127 * k as i64 <= i32::MAX as i64);
    if m == 0 || n == 0 {
        return;
    }

    let mut qx = vec![0i8; m * k];
    let mut x_scales = vec![1.0f32; m];
    // The CPU check happens ONCE per product, not per dot: the whole
    // matrix loop lives inside one `target_feature` region so the row
    // dots inline into it (per-call dispatch would dominate the small-k
    // products conv lowering emits).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: AVX2 verified; slice lengths checked above.
        unsafe { qgemm_avx2(x, &mut qx, &mut x_scales, w, out, m) };
        return;
    }
    for i in 0..m {
        x_scales[i] = quantize_row(&x[i * k..(i + 1) * k], &mut qx[i * k..(i + 1) * k]);
    }
    for i in 0..m {
        let xr = &qx[i * k..(i + 1) * k];
        let xs = x_scales[i];
        for j in 0..n {
            let wr = &w.data[j * k..(j + 1) * k];
            let dot: i32 = xr.iter().zip(wr).map(|(&a, &b)| a as i32 * b as i32).sum();
            out[i * n + j] = dot as f32 * xs * w.scales[j];
        }
    }
}

/// Quantizes one activation row symmetrically — `q = round(v · 127/max)`
/// (ties away from zero) clamped to ±127 — and returns the
/// dequantization scale `max/127` (1.0 for all-zero or non-finite rows).
fn quantize_row(row: &[f32], out: &mut [i8]) -> f32 {
    let max = row.iter().fold(0.0f32, |mx, v| mx.max(v.abs()));
    let (scale, inv) = quant_params(max);
    for (q, &v) in out.iter_mut().zip(row) {
        *q = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// `(dequantization scale, quantization multiplier)` for a row whose
/// max-abs is `max`.
fn quant_params(max: f32) -> (f32, f32) {
    if max > 0.0 && max.is_finite() {
        (max / 127.0, 127.0 / max)
    } else {
        (1.0, 1.0)
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// The whole quantize + integer-GEMM product under one AVX2 region:
/// activation rows are quantized 8 floats at a time and every row·row
/// dot runs 32 multiply-accumulates per unrolled iteration.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and the slice lengths match
/// `qgemm_nt`'s contract.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn qgemm_avx2(
    x: &[f32],
    qx: &mut [i8],
    x_scales: &mut [f32],
    w: &QuantizedMat,
    out: &mut [f32],
    m: usize,
) {
    let (k, n) = (w.cols, w.rows);
    for i in 0..m {
        x_scales[i] = quantize_row_avx2(&x[i * k..(i + 1) * k], &mut qx[i * k..(i + 1) * k]);
    }
    for i in 0..m {
        let xr = &qx[i * k..(i + 1) * k];
        let xs = x_scales[i];
        for j in 0..n {
            let wr = &w.data[j * k..(j + 1) * k];
            out[i * n + j] = dot_i8_avx2(xr, wr) as f32 * xs * w.scales[j];
        }
    }
}

/// Vectorized [`quantize_row`]: same rounding decisions (multiply by
/// `127/max`, round half away from zero, clamp, narrow) 8 lanes at a
/// time.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and `row.len() == out.len()`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(row: &[f32], out: &mut [i8]) -> f32 {
    use std::arch::x86_64::*;
    let len = row.len();
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut vmax = _mm256_setzero_ps();
    let mut p = 0;
    while p + 8 <= len {
        let v = _mm256_loadu_ps(row.as_ptr().add(p));
        vmax = _mm256_max_ps(vmax, _mm256_and_ps(v, abs_mask));
        p += 8;
    }
    let mut lanes = [0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
    let mut max = lanes.iter().fold(0.0f32, |mx, v| mx.max(*v));
    while p < len {
        max = max.max(row.get_unchecked(p).abs());
        p += 1;
    }

    let (scale, inv) = quant_params(max);
    let invv = _mm256_set1_ps(inv);
    let lim = _mm256_set1_ps(127.0);
    let neg_lim = _mm256_set1_ps(-127.0);
    let half = _mm256_set1_ps(0.5);
    let sign = _mm256_set1_ps(-0.0);
    p = 0;
    while p + 8 <= len {
        let t = _mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(p)), invv);
        let c = _mm256_min_ps(_mm256_max_ps(t, neg_lim), lim);
        // Round half away from zero: add ±0.5, truncate toward zero.
        let h = _mm256_or_ps(_mm256_and_ps(c, sign), half);
        let qi = _mm256_cvttps_epi32(_mm256_add_ps(c, h));
        let w16 = _mm_packs_epi32(_mm256_castsi256_si128(qi), _mm256_extracti128_si256(qi, 1));
        let b8 = _mm_packs_epi16(w16, _mm_setzero_si128());
        _mm_storel_epi64(out.as_mut_ptr().add(p).cast(), b8);
        p += 8;
    }
    while p < len {
        let t = row.get_unchecked(p) * inv;
        *out.get_unchecked_mut(p) = t.round().clamp(-127.0, 127.0) as i8;
        p += 1;
    }
    scale
}

/// i16 multiply-accumulate dot: widen 16 i8 per operand, one `madd` per
/// 16 elements, two independent accumulators (32 MACs per unrolled
/// iteration), 8 × i32 lanes reduced at the end.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and `a.len() == b.len()`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let k = a.len();
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut p = 0;
    while p + 32 <= k {
        let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(p) as *const __m128i));
        let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(p) as *const __m128i));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, b0));
        let a1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(p + 16) as *const __m128i));
        let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(p + 16) as *const __m128i));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a1, b1));
        p += 32;
    }
    if p + 16 <= k {
        let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(p) as *const __m128i));
        let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(p) as *const __m128i));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(av, bv));
        p += 16;
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(
        lanes.as_mut_ptr() as *mut __m256i,
        _mm256_add_epi32(acc0, acc1),
    );
    let mut sum: i32 = lanes.iter().sum();
    while p < k {
        sum += *a.get_unchecked(p) as i32 * *b.get_unchecked(p) as i32;
        p += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_round_trips_names() {
        for (p, name) in [(Precision::F32, "f32"), (Precision::I8, "i8")] {
            assert_eq!(p.as_str(), name);
            assert_eq!(format!("{p}"), name);
        }
        assert_eq!(Precision::default(), Precision::F32);
    }

    #[test]
    fn f16_round_known_values() {
        assert_eq!(f16_round(0.0), 0.0);
        assert_eq!(f16_round(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f16_round(1.0), 1.0);
        assert_eq!(f16_round(-2.5), -2.5);
        // 0.1 is not representable; nearest f16 is 0.0999755859375.
        assert_eq!(f16_round(0.1), 0.099_975_586);
        // Max finite f16 and first overflow.
        assert_eq!(f16_round(65504.0), 65504.0);
        assert_eq!(f16_round(65520.0), f32::INFINITY);
        assert_eq!(f16_round(-1.0e9), f32::NEG_INFINITY);
        // Smallest f16 subnormal is 2^-24; half of it rounds to zero (RNE).
        assert_eq!(f16_round(2.0f32.powi(-24)), 2.0f32.powi(-24));
        assert_eq!(f16_round(2.0f32.powi(-26)), 0.0);
        assert!(f16_round(f32::NAN).is_nan());
        assert_eq!(f16_round(f32::INFINITY), f32::INFINITY);
    }

    #[test]
    fn f16_round_is_idempotent_and_monotone() {
        let mut prev = f32::NEG_INFINITY;
        for i in -60..=60 {
            let v = (i as f32) * 0.37 + (i as f32).powi(2) * 0.003;
            let r = f16_round(v);
            assert_eq!(f16_round(r), r, "idempotence at {v}");
            assert!((r - v).abs() <= v.abs() * 0.001 + 1e-7, "error at {v}: {r}");
            if i > -60 {
                // Monotone in the sampled (increasing) inputs.
                let _ = prev;
            }
            prev = r;
        }
        let mut xs = vec![0.1f32, -3.3, 7.7];
        f16_round_slice(&mut xs);
        assert_eq!(xs, vec![f16_round(0.1), f16_round(-3.3), f16_round(7.7)]);
    }

    #[test]
    fn quantized_mat_reconstructs_within_step() {
        let (rows, cols) = (5, 37);
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as f32 * 0.619).sin()) * (1.0 + i as f32 * 0.01))
            .collect();
        let q = QuantizedMat::from_rows(&w, rows, cols);
        assert_eq!((q.rows(), q.cols()), (rows, cols));
        let deq = q.dequantize();
        for j in 0..rows {
            let step = q.scales()[j];
            for c in 0..cols {
                let err = (deq[j * cols + c] - w[j * cols + c]).abs();
                assert!(
                    err <= 0.5 * step + 1e-7,
                    "row {j} col {c}: err {err} step {step}"
                );
            }
        }
        // A zero row quantizes losslessly with unit scale.
        let z = QuantizedMat::from_rows(&[0.0; 8], 2, 4);
        assert_eq!(z.scales(), &[1.0, 1.0]);
        assert!(z.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn qgemm_matches_dequantized_reference() {
        let (m, k, n) = (7, 83, 9);
        let x: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.317).cos() * 2.0).collect();
        let w: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.131).sin()).collect();
        let q = QuantizedMat::from_rows(&w, n, k);
        let mut out = vec![f32::NAN; m * n]; // qgemm assigns, so NaN must vanish
        qgemm_nt(&x, &q, &mut out, m);

        // Reference: quantize x the same way, f64 dot against dequantized
        // operands. The only extra error vs that reference is f32 rescale
        // rounding.
        let deq_w = q.dequantize();
        for i in 0..m {
            let row = &x[i * k..(i + 1) * k];
            let max = row.iter().fold(0.0f32, |mx, v| mx.max(v.abs()));
            let (xs, inv) = quant_params(max);
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    let qv = (row[p] * inv).round().clamp(-127.0, 127.0) * xs;
                    acc += qv as f64 * deq_w[j * k + p] as f64;
                }
                let got = out[i * n + j] as f64;
                assert!(
                    (got - acc).abs() <= 1e-4 * (1.0 + acc.abs()),
                    "({i},{j}): got {got}, want {acc}"
                );
            }
        }
    }

    #[test]
    fn qgemm_handles_degenerate_inputs() {
        let q = QuantizedMat::from_rows(&[1.0, -1.0, 0.5, 0.25], 2, 2);
        let mut out = vec![7.0f32; 0];
        qgemm_nt(&[], &q, &mut out, 0);
        // All-zero activations produce exact zeros.
        let mut out = vec![f32::NAN; 2];
        qgemm_nt(&[0.0, 0.0], &q, &mut out, 1);
        assert_eq!(out, vec![0.0, 0.0]);
    }
}
