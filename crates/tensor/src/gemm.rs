//! Unified cache-blocked, B-panel-packed GEMM.
//!
//! One kernel computes every product a [`GemmSpec`] describes — `A·B`,
//! `A·Bᵀ`, `Aᵀ·B`, and the double-transposed `Aᵀ·Bᵀ`. Operands that
//! would be walked with a stride are first packed into contiguous
//! workspace buffers ([`crate::workspace`]): a transposed lhs into
//! row-major `A`, a transposed rhs into `Bᵀ` column panels, and wide
//! row-major `B` matrices into cache-sized column panels. After packing,
//! every layout runs the same loop over 4-row output blocks
//! ([`panel_rows_into`]): a product with a transposed rhs — every `x·Wᵀ`
//! — runs each full block through a register tile that shares every
//! loaded panel value across the four rows; the zero-skipping products
//! and the last `m mod 4` rows run the one-row loop. A rhs that never
//! changes — a serving replica's weights — can be packed once
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
//! * the register tile runs the same chain: each accumulator starts from
//!   its `out` element and adds one term per `k` step, `p` ascending; it
//!   round-trips through `out` between depth slabs, an exact store and
//!   load;
//! * parallelism only changes which thread computes a whole 4-row output
//!   block, never the order of operations within one.

use crate::backend::{GemmSpec, MatLayout};
use crate::workspace;

/// Panel width (output columns) processed per cache block. One output
/// segment plus four packed `B` rows of this width stay inside L1.
const PANEL: usize = 512;

/// Accumulates the product `spec` describes into `out` (`m · n`,
/// caller-zeroed for a plain product).
///
/// `spec.parallel` requests fan-out over 4-row output blocks (honored
/// only when the `parallel` feature is active and enough threads exist —
/// otherwise the blocks run inline).
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

/// The block loop of [`gemm_into`], after packing: accumulates row-major
/// `a` (`[m, k]`) times the column `panels` (the layout
/// [`pack_b_panels`] and [`pack_nt_into`] write) into `out`, fanning out
/// over blocks of [`TILE_ROWS`] output rows when `spec.parallel`. Only
/// `spec`'s dimensions, zero-skip rule and fan-out hint are read; the
/// operand layouts have already been packed away.
///
/// A full block of a product that never skips zeros (a transposed rhs:
/// every `x·Wᵀ`) runs the register tile ([`tile_panel`]); the last
/// `m mod 4` rows and every zero-skipping product run one row at a time
/// ([`accumulate_panel`]). Both give each element the same add chain.
pub(crate) fn panel_rows_into(spec: &GemmSpec, a: &[f32], panels: &[f32], out: &mut [f32]) {
    let (m, k, n) = (spec.m, spec.k, spec.n);
    debug_assert_eq!((a.len(), panels.len(), out.len()), (m * k, k * n, m * n));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let skip_zero = spec.skips_zero_lhs();
    let block = |bi: usize, out_rows: &mut [f32]| {
        let rows = out_rows.len() / n;
        let a_rows = &a[bi * TILE_ROWS * k..][..rows * k];
        let mut j0 = 0;
        while j0 < n {
            let w = PANEL.min(n - j0);
            let panel = &panels[(j0 / PANEL) * k * PANEL..][..k * w];
            if rows == TILE_ROWS && !skip_zero {
                tile_panel(a_rows, panel, w, &mut out_rows[j0..], n);
            } else {
                for (a_row, out_row) in a_rows.chunks_exact(k).zip(out_rows.chunks_mut(n)) {
                    accumulate_panel(a_row, panel, &mut out_row[j0..j0 + w], w, skip_zero);
                }
            }
            j0 += w;
        }
    };

    if spec.parallel {
        // Grain 0: the caller already decided this product is worth
        // fanning out; `for_chunks_mut` still falls back to the serial
        // loop when the feature is off or no extra threads exist.
        crate::chunks::for_chunks_mut(out, TILE_ROWS * n, 0, block);
    } else {
        for (bi, out_rows) in out.chunks_mut(TILE_ROWS * n).enumerate() {
            block(bi, out_rows);
        }
    }
}

/// Output rows one register tile covers, and the fan-out unit of
/// [`panel_rows_into`].
const TILE_ROWS: usize = 4;

/// `k` steps per pass of the register tile: the strips of one pass
/// re-read a `TILE_DEPTH × w` slab of the panel, which stays cache-hot
/// however deep the product is.
const TILE_DEPTH: usize = 64;

/// The register tile: accumulates the four rows of `a4` (`[4, k]`
/// row-major) against one `panel` of width `w` into `out4`, whose row
/// `r` starts at `r · n`. Each pass covers [`TILE_DEPTH`] `k` steps in
/// column strips of 8, then 4, then 1, so each loaded panel value serves
/// all four rows.
fn tile_panel(a4: &[f32], panel: &[f32], w: usize, out4: &mut [f32], n: usize) {
    let k = a4.len() / TILE_ROWS;
    let mut p0 = 0;
    while p0 < k {
        let p1 = k.min(p0 + TILE_DEPTH);
        let a = std::array::from_fn(|r| &a4[r * k + p0..r * k + p1]);
        let slab = &panel[p0 * w..p1 * w];
        let mut c = 0;
        while c + 8 <= w {
            tile_strip::<8>(a, slab, w, c, out4, n);
            c += 8;
        }
        if c + 4 <= w {
            tile_strip::<4>(a, slab, w, c, out4, n);
            c += 4;
        }
        while c < w {
            tile_strip::<1>(a, slab, w, c, out4, n);
            c += 1;
        }
        p0 = p1;
    }
}

/// One `4 × W` strip of [`tile_panel`]: columns `c..c + W` of `slab`,
/// accumulated into the same columns of `out4`'s four rows. The
/// accumulators load from `out4`, live in a stack array, and store back
/// after the slab: each adds its terms with `p` ascending in one
/// dependent chain and never skips a zero coefficient, as
/// [`accumulate_panel`] does for a transposed rhs.
fn tile_strip<const W: usize>(
    a: [&[f32]; TILE_ROWS],
    slab: &[f32],
    w: usize,
    c: usize,
    out4: &mut [f32],
    n: usize,
) {
    let mut acc = [[0.0f32; W]; TILE_ROWS];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&out4[r * n + c..][..W]);
    }
    let [r0, r1, r2, r3] = a;
    for ((((b_row, &a0), &a1), &a2), &a3) in slab.chunks_exact(w).zip(r0).zip(r1).zip(r2).zip(r3) {
        let b = &b_row[c..c + W];
        for (acc_r, a) in acc.iter_mut().zip([a0, a1, a2, a3]) {
            for (o, &x) in acc_r.iter_mut().zip(b) {
                *o += a * x;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out4[r * n + c..][..W].copy_from_slice(acc_r);
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
            (4, 3, 4),   // one exact tile
            (5, 1, 8),   // k < 4: no full quad
            (7, 9, 13),  // a tile plus 3 remainder rows
            (8, 36, 4),  // two tiles
            (9, 27, 12), // 8-, 4- and 1-wide strips
            (4, 150, 9), // three tile depths
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
                    // block loop runs per product.
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

    /// `0 · inf` is NaN, so a zero lhs coefficient against an infinite
    /// rhs value shows whether a layout skips it: products with a
    /// transposed rhs never skip, products with a row-major rhs do.
    #[test]
    fn zero_skip_contract_with_non_finite_operands() {
        use MatLayout::{RowMajor, Transposed};
        // Row 1 sits in the register tile, row 4 in the remainder row.
        let (m, k, n) = (5, 6, 5);
        let transpose = |v: &[f32], rows: usize, cols: usize| -> Vec<f32> {
            (0..rows * cols)
                .map(|t| v[(t % rows) * cols + t / rows])
                .collect()
        };
        // Logical A is 0 at p = 2 in rows 1 and 4; logical B is +inf at
        // (p = 2, column 3).
        let mut a = synth(m * k, 3);
        for i in [1, 4] {
            a[i * k + 2] = 0.0;
        }
        let mut b = synth(k * n, 4);
        b[2 * n + 3] = f32::INFINITY;
        let (a_t, b_t) = (transpose(&a, m, k), transpose(&b, k, n));
        for (lhs, rhs) in [
            (RowMajor, RowMajor),
            (RowMajor, Transposed),
            (Transposed, RowMajor),
            (Transposed, Transposed),
        ] {
            let spec = GemmSpec::with_layouts(m, k, n, lhs, rhs);
            assert_eq!(spec.skips_zero_lhs(), rhs == RowMajor);
            let a_s = if lhs == Transposed { &a_t } else { &a };
            let b_s = if rhs == Transposed { &b_t } else { &b };
            for parallel in [false, true] {
                let spec = spec.parallel(parallel);
                let mut outs = vec![vec![0.0f32; m * n]];
                gemm_into(&spec, a_s, b_s, &mut outs[0]);
                if (lhs, rhs) == (RowMajor, Transposed) {
                    let mut panels = vec![0.0f32; k * n];
                    pack_nt_into(b_s, k, n, &mut panels);
                    let mut out = vec![0.0f32; m * n];
                    panel_rows_into(&spec, a_s, &panels, &mut out);
                    outs.push(out);
                }
                for out in &outs {
                    for i in [1, 4] {
                        let v = out[i * n + 3];
                        let ok = if spec.skips_zero_lhs() {
                            v.is_finite()
                        } else {
                            v.is_nan()
                        };
                        assert!(ok, "{lhs:?}/{rhs:?} row {i} parallel={parallel}: {v}");
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
