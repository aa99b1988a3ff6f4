//! Unified cache-blocked, B-panel-packed GEMM.
//!
//! One kernel computes every product a [`GemmSpec`] describes — `A·B`,
//! `A·Bᵀ`, `Aᵀ·B`, and the double-transposed `Aᵀ·Bᵀ`. Operands that
//! would be walked with a stride are first packed into contiguous
//! workspace buffers ([`crate::workspace`]): a transposed lhs into
//! row-major `A`, a transposed rhs into `Bᵀ` column panels, and wide
//! row-major `B` matrices into cache-sized column panels. After packing,
//! every layout runs the same row loop ([`panel_rows_into`]). A rhs that
//! never changes — a serving replica's weights — can be packed once
//! ([`crate::backend::PackedNt`]) so each product runs only that loop.
//!
//! # Determinism contract
//!
//! `tests/determinism.rs` pins serial and parallel builds to *bitwise*
//! identical results, so the accumulation order here is load-bearing:
//!
//! * every output element accumulates its `k` terms with `p` ascending, as
//!   a single dependent add chain;
//! * products with a row-major rhs skip terms whose `A` coefficient is
//!   exactly `0.0` ([`GemmSpec::skips_zero_lhs`]; skipping is *not* a pure
//!   optimization, it changes `-0.0` and `NaN`/`inf` propagation);
//!   products with a transposed rhs never skip;
//! * the 4-step unrolled chain `(((o + a₀x₀) + a₁x₁) + a₂x₂) + a₃x₃`
//!   performs the same adds in the same order as four single steps;
//! * parallelism only changes which thread computes an output row, never
//!   the order of operations within one.

use crate::backend::{GemmSpec, MatLayout};
use crate::workspace;

/// Panel width (output columns) processed per cache block. One output
/// segment plus four packed `B` rows of this width stay inside L1.
const PANEL: usize = 512;

/// Accumulates the product `spec` describes into `out` (`m · n`,
/// caller-zeroed for a plain product).
///
/// `spec.parallel` requests fan-out over output rows (honored only when
/// the `parallel` feature is active and enough threads exist — otherwise
/// the rows run inline).
///
/// # Panics
///
/// Panics if slice lengths disagree with the spec ([`GemmSpec::check`]).
pub(crate) fn gemm_into(spec: &GemmSpec, a: &[f32], b: &[f32], out: &mut [f32]) {
    spec.check(a, b, out);
    let (m, k, n) = (spec.m, spec.k, spec.n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    // Pack strided operands into contiguous workspace buffers.
    let a_packed = (spec.lhs == MatLayout::Transposed).then(|| pack_a_transposed(a, m, k));
    let a_eff: &[f32] = a_packed.as_deref().unwrap_or(a);

    let b_packed = match spec.rhs {
        MatLayout::Transposed => {
            let mut dst = workspace::take_raw(k * n);
            pack_nt_into(b, k, n, &mut dst);
            Some(dst)
        }
        // Row-major B is already a single contiguous panel when it fits.
        MatLayout::RowMajor if n > PANEL => Some(pack_b_panels(b, k, n)),
        MatLayout::RowMajor => None,
    };
    let b_eff: &[f32] = b_packed.as_deref().unwrap_or(b);

    panel_rows_into(spec, a_eff, b_eff, out);

    if let Some(buf) = a_packed {
        workspace::recycle(buf);
    }
    if let Some(buf) = b_packed {
        workspace::recycle(buf);
    }
}

/// The row loop of [`gemm_into`], after packing: accumulates row-major
/// `a` (`[m, k]`) times the column `panels` (the layout
/// [`pack_b_panels`] and [`pack_nt_into`] write) into `out`, fanning out
/// over output rows when `spec.parallel`. Only `spec`'s dimensions,
/// zero-skip rule and fan-out hint are read; the operand layouts have
/// already been packed away.
pub(crate) fn panel_rows_into(spec: &GemmSpec, a: &[f32], panels: &[f32], out: &mut [f32]) {
    let (m, k, n) = (spec.m, spec.k, spec.n);
    debug_assert_eq!((a.len(), panels.len(), out.len()), (m * k, k * n, m * n));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let skip_zero = spec.skips_zero_lhs();
    let row = |i: usize, out_row: &mut [f32]| {
        let a_row = &a[i * k..(i + 1) * k];
        let mut j0 = 0;
        while j0 < n {
            let w = PANEL.min(n - j0);
            let panel = &panels[(j0 / PANEL) * k * PANEL..][..k * w];
            accumulate_panel(a_row, panel, &mut out_row[j0..j0 + w], w, skip_zero);
            j0 += w;
        }
    };

    if spec.parallel {
        // Grain 0: the caller already decided this product is worth
        // fanning out; `for_chunks_mut` still falls back to the serial
        // loop when the feature is off or no extra threads exist.
        crate::chunks::for_chunks_mut(out, n, 0, |i, out_row| row(i, out_row));
    } else {
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            row(i, out_row);
        }
    }
}

/// Accumulates `out_seg[j] += Σ_p a_row[p] · panel[p·w + j]` with `p`
/// ascending per element. Four `k` steps run as one dependent chain per
/// element (same adds, same order, fewer L1 round-trips); when
/// `skip_zero`, any zero coefficient in a quad falls back to skip-aware
/// single steps, preserving the reference kernels' exact semantics.
fn accumulate_panel(a_row: &[f32], panel: &[f32], out_seg: &mut [f32], w: usize, skip_zero: bool) {
    let k = a_row.len();
    let mut p = 0;
    while p + 3 < k {
        let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
        if !skip_zero || (a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0) {
            let b0 = &panel[p * w..(p + 1) * w];
            let b1 = &panel[(p + 1) * w..(p + 2) * w];
            let b2 = &panel[(p + 2) * w..(p + 3) * w];
            let b3 = &panel[(p + 3) * w..(p + 4) * w];
            for ((((o, &x0), &x1), &x2), &x3) in out_seg.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                *o = (((*o + a0 * x0) + a1 * x1) + a2 * x2) + a3 * x3;
            }
        } else {
            for (q, &a) in a_row[p..p + 4].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &panel[(p + q) * w..(p + q + 1) * w];
                for (o, &x) in out_seg.iter_mut().zip(b_row) {
                    *o += a * x;
                }
            }
        }
        p += 4;
    }
    for (q, &a) in a_row[p..].iter().enumerate() {
        if skip_zero && a == 0.0 {
            continue;
        }
        let b_row = &panel[(p + q) * w..(p + q + 1) * w];
        for (o, &x) in out_seg.iter_mut().zip(b_row) {
            *o += a * x;
        }
    }
}

/// Packs `a` (`[k, m]` row-major) as `Aᵀ` (`[m, k]` row-major) into a
/// workspace buffer. Source rows stream; the `m` destination rows being
/// interleaved stay within a few open cache lines.
fn pack_a_transposed(a: &[f32], m: usize, k: usize) -> Vec<f32> {
    let mut dst = workspace::take_raw(m * k);
    for p in 0..k {
        let src_row = &a[p * m..(p + 1) * m];
        for (i, &v) in src_row.iter().enumerate() {
            dst[i * k + p] = v;
        }
    }
    dst
}

/// Packs row-major `b` (`[k, n]`) into contiguous column panels of width
/// [`PANEL`]: panel `q` starts at `q·k·PANEL` and stores its `k` rows
/// (width `min(PANEL, n − q·PANEL)`) back to back.
fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut dst = workspace::take_raw(k * n);
    let mut j0 = 0;
    while j0 < n {
        let w = PANEL.min(n - j0);
        let panel = &mut dst[(j0 / PANEL) * k * PANEL..];
        for p in 0..k {
            panel[p * w..(p + 1) * w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
        }
        j0 += w;
    }
    dst
}

/// Packs `b` (`[n, k]` row-major) as `Bᵀ` into `dst` (`k · n`), in the
/// panel layout of [`pack_b_panels`]. Source rows stream; writes fan
/// across one panel column. Per call for an NT product, or once per
/// serving replica through [`crate::backend::PackedNt`].
pub(crate) fn pack_nt_into(b: &[f32], k: usize, n: usize, dst: &mut [f32]) {
    debug_assert_eq!((b.len(), dst.len()), (k * n, k * n));
    let mut j0 = 0;
    while j0 < n {
        let w = PANEL.min(n - j0);
        let panel = &mut dst[(j0 / PANEL) * k * PANEL..];
        for jj in 0..w {
            let src_row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (p, &v) in src_row.iter().enumerate() {
                panel[p * w + jj] = v;
            }
        }
        j0 += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(len: usize, salt: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt.wrapping_mul(0x2545_F491_4F6C_DD1D));
                ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn with_zeros(mut v: Vec<f32>) -> Vec<f32> {
        for (i, x) in v.iter_mut().enumerate() {
            if i % 5 == 0 {
                *x = 0.0;
            }
        }
        v
    }

    /// Independent per-element reference with the documented order and
    /// skip semantics.
    fn naive(spec: &GemmSpec, a: &[f32], b: &[f32]) -> Vec<f32> {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = match spec.lhs {
                        MatLayout::Transposed => a[p * m + i],
                        MatLayout::RowMajor => a[i * k + p],
                    };
                    if spec.skips_zero_lhs() && av == 0.0 {
                        continue;
                    }
                    let bv = match spec.rhs {
                        MatLayout::Transposed => b[j * k + p],
                        MatLayout::RowMajor => b[p * n + j],
                    };
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matches_naive_reference_bitwise() {
        use MatLayout::{RowMajor, Transposed};
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (16, 72, 16),
            (33, 9, 130),
            (4, 6, PANEL + 3), // exercises the panel split
            (2, 70, 2 * PANEL + 1),
        ] {
            for (lhs, rhs) in [
                (RowMajor, RowMajor),
                (RowMajor, Transposed),
                (Transposed, RowMajor),
                (Transposed, Transposed),
            ] {
                let spec = GemmSpec::with_layouts(m, k, n, lhs, rhs);
                for zeros in [false, true] {
                    let mut a = synth(m * k, 1);
                    let mut b = synth(k * n, 2);
                    if zeros {
                        a = with_zeros(a);
                        b = with_zeros(b);
                    }
                    let expect = naive(&spec, &a, &b);
                    // The packed NT door: `b` packed once, then only the
                    // row loop runs per product.
                    let packed = (lhs, rhs) == (RowMajor, Transposed);
                    let mut panels = vec![0.0f32; k * n];
                    if packed {
                        pack_nt_into(&b, k, n, &mut panels);
                    }
                    for parallel in [false, true] {
                        let mut out = vec![0.0f32; m * n];
                        gemm_into(&spec.parallel(parallel), &a, &b, &mut out);
                        assert_eq!(
                            out, expect,
                            "{lhs:?}/{rhs:?} {m}x{k}x{n} zeros={zeros} parallel={parallel}"
                        );
                        if packed {
                            let mut out = vec![0.0f32; m * n];
                            panel_rows_into(&spec.parallel(parallel), &a, &panels, &mut out);
                            assert_eq!(
                                out, expect,
                                "packed NT {m}x{k}x{n} zeros={zeros} parallel={parallel}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_dims_are_no_ops() {
        let mut out = vec![1.0f32; 0];
        gemm_into(&GemmSpec::nn(0, 0, 0), &[], &[], &mut out);
        let mut out = vec![0.0f32; 4];
        gemm_into(&GemmSpec::nn(2, 0, 2), &[], &[], &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn accumulates_into_existing_output() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let mut out = vec![10.0f32];
        gemm_into(&GemmSpec::nn(1, 2, 1), &a, &b, &mut out);
        assert_eq!(out, vec![10.0 + 3.0 + 8.0]);
    }
}
