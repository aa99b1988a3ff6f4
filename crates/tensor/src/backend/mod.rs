//! The f32 GEMM behind one typed kernel API.
//!
//! Every f32 dense product in the workspace — the dense and convolution
//! layers' forward and backward GEMMs, and the DeepMorph probes' softmax
//! regressions — enters through [`ComputeCtx::matmul`],
//! [`ComputeCtx::matmul_nt`] or [`ComputeCtx::matmul_tn`], which validate
//! the tensor shapes, build a [`GemmSpec`] and call the context's
//! [`Backend::gemm`]. The spec carries the dimensions, a per-operand
//! [`MatLayout`] and a fan-out hint. Elementwise work (ReLU, bias rows)
//! stays in the layers, and quantized serving replicas run their own
//! integer kernel ([`quant`]).
//!
//! One kernel implements `Backend::gemm`: [`ScalarBackend`], the
//! cache-blocked, B-panel-packed kernel with the pinned per-element
//! accumulation order. Every determinism digest in `tests/determinism.rs`
//! and every golden in `crates/tensor/tests/backend_conformance.rs` is
//! defined against it, and every [`ComputeCtx`] runs on it.
//!
//! A serving replica's weights never change, so its `x·Wᵀ` products can
//! skip the per-call rhs packing: [`ComputeCtx::pack_nt`] packs a weight
//! once into a [`PackedNt`], and [`ComputeCtx::matmul_nt_packed`] runs
//! the scalar kernel's block loop against it — the register tile four
//! output rows at a time, the last `m mod 4` rows one at a time —
//! bitwise equal to [`ComputeCtx::matmul_nt`].

use std::sync::Arc;
use std::sync::OnceLock;

use crate::workspace;
use crate::{Tensor, TensorError};

pub mod quant;
pub mod tune;

/// Storage layout of one GEMM operand, relative to the logical matrix the
/// product is defined over.
///
/// `RowMajor` means the operand slice stores the logical matrix directly;
/// `Transposed` means the slice stores its transpose (so the kernel packs
/// or strides it). For `out = A·B` with `A: [m, k]` and `B: [k, n]`:
///
/// | operand | `RowMajor` slice shape | `Transposed` slice shape |
/// |---------|------------------------|--------------------------|
/// | lhs `A` | `[m, k]`               | `[k, m]`                 |
/// | rhs `B` | `[k, n]`               | `[n, k]`                 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatLayout {
    /// The slice stores the logical matrix row-major.
    RowMajor,
    /// The slice stores the logical matrix's transpose row-major.
    Transposed,
}

/// Typed descriptor of one GEMM: `out[m, n] += A[m, k] · B[k, n]`, with
/// the storage layout of each operand and a parallelism hint.
///
/// This is the single call surface every [`Backend`] consumes — it
/// replaces the historical boolean-flag (`a_transposed`, `b_transposed`)
/// kernel entry points. Constructors cover the three products the
/// networks use (`nn`, `nt`, `tn`); [`GemmSpec::with_layouts`] spells any
/// combination, including the (never hot) double-transposed product.
///
/// # Accumulation semantics
///
/// The output **accumulates**: callers zero `out` for a plain product.
/// Zero-skip semantics are part of the reference contract and follow the
/// rhs layout: products with a `RowMajor` rhs skip `A` coefficients that
/// are exactly `0.0` (matching the historical `NN`/`TN` kernels, which
/// affects `-0.0`/`NaN`/`inf` propagation); products with a `Transposed`
/// rhs never skip (the historical `NT` dot-product kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSpec {
    /// Output rows.
    pub m: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Layout of the lhs operand.
    pub lhs: MatLayout,
    /// Layout of the rhs operand.
    pub rhs: MatLayout,
    /// Request fan-out over output rows. A hint: backends may run inline
    /// when the product is too small to pay for dispatch or when no
    /// worker threads exist.
    pub parallel: bool,
}

impl GemmSpec {
    /// `out += A[m,k] · B[k,n]`, both operands row-major.
    pub fn nn(m: usize, k: usize, n: usize) -> Self {
        GemmSpec::with_layouts(m, k, n, MatLayout::RowMajor, MatLayout::RowMajor)
    }

    /// `out += A[m,k] · B[n,k]ᵀ` (rhs stored transposed — the dense/conv
    /// forward product).
    pub fn nt(m: usize, k: usize, n: usize) -> Self {
        GemmSpec::with_layouts(m, k, n, MatLayout::RowMajor, MatLayout::Transposed)
    }

    /// `out += A[k,m]ᵀ · B[k,n]` (lhs stored transposed — the weight
    /// gradient product).
    pub fn tn(m: usize, k: usize, n: usize) -> Self {
        GemmSpec::with_layouts(m, k, n, MatLayout::Transposed, MatLayout::RowMajor)
    }

    /// A spec with explicit operand layouts.
    pub fn with_layouts(m: usize, k: usize, n: usize, lhs: MatLayout, rhs: MatLayout) -> Self {
        GemmSpec {
            m,
            k,
            n,
            lhs,
            rhs,
            parallel: false,
        }
    }

    /// Returns the spec with the fan-out hint set.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Returns the spec with the fan-out hint sized by the product: on
    /// when the `parallel` feature is active and the multiply-accumulate
    /// count clears the dispatch-cost grain.
    pub fn parallel_worthwhile(self) -> Self {
        let worthwhile = cfg!(feature = "parallel")
            && self.m * self.k * self.n >= crate::chunks::PAR_GRAIN_FLOPS;
        self.parallel(worthwhile)
    }

    /// Required lhs slice length.
    pub fn lhs_len(&self) -> usize {
        self.m * self.k
    }

    /// Required rhs slice length.
    pub fn rhs_len(&self) -> usize {
        self.k * self.n
    }

    /// Required output slice length.
    pub fn out_len(&self) -> usize {
        self.m * self.n
    }

    /// `true` when the reference contract skips exactly-zero lhs
    /// coefficients (see the type-level docs).
    pub fn skips_zero_lhs(&self) -> bool {
        self.rhs == MatLayout::RowMajor
    }

    /// Panics unless the slices match the spec (backends call this before
    /// touching any data, so a shape bug is a loud assert at the seam, not
    /// UB or silent corruption inside a kernel).
    pub fn check(&self, a: &[f32], b: &[f32], out: &[f32]) {
        assert_eq!(a.len(), self.lhs_len(), "gemm: lhs length");
        assert_eq!(b.len(), self.rhs_len(), "gemm: rhs length");
        assert_eq!(out.len(), self.out_len(), "gemm: out length");
    }
}

/// A compute backend: the GEMM kernel behind every dense product.
///
/// Implementations must be `Send + Sync` — one handle is shared across
/// serving workers and training threads. See the module docs for the
/// determinism contract of [`ScalarBackend`], the one implementation.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Stable identifier (used in logs and benches).
    fn name(&self) -> &'static str;

    /// Accumulates the product described by `spec` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the spec.
    fn gemm(&self, spec: &GemmSpec, a: &[f32], b: &[f32], out: &mut [f32]);
}

/// The rhs of `x·Wᵀ` products, packed once into the scalar kernel's
/// column panels — the buffer [`ComputeCtx::matmul_nt`] rebuilds from
/// `W` on every call. Built by [`ComputeCtx::pack_nt`], consumed by
/// [`ComputeCtx::matmul_nt_packed`]; it holds one extra copy of `W`.
#[derive(Debug)]
pub struct PackedNt {
    /// Output columns (rows of `W`).
    n: usize,
    /// Inner dimension (columns of `W`).
    k: usize,
    /// `Wᵀ` in the panel layout, `k · n` elements.
    panels: Vec<f32>,
}

/// Shared, cheaply clonable handle to a backend.
pub type BackendHandle = Arc<dyn Backend>;

/// The one backend: the cache-blocked scalar kernel with the pinned
/// per-element accumulation order. This is the bitwise reference
/// every digest and cross-build test is defined against.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm(&self, spec: &GemmSpec, a: &[f32], b: &[f32], out: &mut [f32]) {
        // Per-shape kernel timing; `None` (one relaxed load) unless
        // telemetry is armed and `DEEPMORPH_KERNEL_TIMING=1`.
        let _timer = deepmorph_telemetry::kernel_timer(spec.m, spec.k, spec.n);
        crate::gemm::gemm_into(spec, a, b, out);
    }
}

static SCALAR: OnceLock<BackendHandle> = OnceLock::new();

/// The shared [`ScalarBackend`] handle.
pub fn scalar() -> BackendHandle {
    Arc::clone(SCALAR.get_or_init(|| Arc::new(ScalarBackend)))
}

/// Always `false`: no vector f32 backend exists. Kept only because the
/// benchmark still reads it (`perfbench/src/layers.rs`'s `peak_gflops`
/// and `perfbench/src/provenance.rs`).
pub fn simd_available() -> bool {
    false
}

/// The handle an f32 product runs through: a dense or conv layer, a
/// probe or a bench holds one and calls its `matmul*` methods.
///
/// Contexts are cheap to clone (one `Arc` bump). Every context runs on
/// the scalar (bitwise-reference) backend.
#[derive(Debug, Clone)]
pub struct ComputeCtx {
    backend: BackendHandle,
}

impl Default for ComputeCtx {
    fn default() -> Self {
        ComputeCtx::scalar()
    }
}

impl ComputeCtx {
    /// A context on the bitwise-reference scalar backend.
    pub fn scalar() -> Self {
        ComputeCtx { backend: scalar() }
    }

    /// The scalar context, as [`ComputeCtx::scalar`]. Kept only because
    /// the benchmark still names it (`perfbench/src/layers.rs`'s
    /// `peak_gflops`).
    pub fn auto() -> Self {
        ComputeCtx::scalar()
    }

    /// The backend handle.
    pub fn backend(&self) -> &BackendHandle {
        &self.backend
    }

    /// The backend's stable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// `A @ B` for rank-2 `a: [m, k]` and `b: [k, n]`; the `[m, n]`
    /// result comes from the thread's [`workspace`] arena. Products large
    /// enough to pay for dispatch fan out over output rows
    /// ([`GemmSpec::parallel_worthwhile`]); the result is bitwise the same
    /// either way.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`].
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        self.product(a, b, MatLayout::RowMajor, MatLayout::RowMajor, "matmul")
    }

    /// `A @ Bᵀ` for `a: [m, k]` and `b: [n, k]`, without materializing
    /// the transpose; otherwise as [`ComputeCtx::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`].
    pub fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        self.product(
            a,
            b,
            MatLayout::RowMajor,
            MatLayout::Transposed,
            "matmul_nt",
        )
    }

    /// Packs `b: [n, k]` once as the rhs of `A @ bᵀ` products, for
    /// [`ComputeCtx::matmul_nt_packed`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `b` is not a matrix.
    pub fn pack_nt(&self, b: &Tensor) -> Result<PackedNt, TensorError> {
        b.expect_rank(2, "pack_nt")?;
        let (n, k) = (b.shape()[0], b.shape()[1]);
        // Owned, not a workspace checkout: the pack lives as long as the
        // replica that holds it.
        let mut panels = vec![0.0f32; n * k];
        crate::gemm::pack_nt_into(b.data(), k, n, &mut panels);
        Ok(PackedNt { n, k, panels })
    }

    /// `A @ Bᵀ` for `a: [m, k]` against a `B` packed by
    /// [`ComputeCtx::pack_nt`]. Same panels, same register tile and
    /// remainder rows, same fan-out decision and kernel timing as
    /// [`ComputeCtx::matmul_nt`] on the unpacked `B`, so the result is
    /// bitwise equal; only the per-call packing is gone.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`], or
    /// [`TensorError::MatmulDimMismatch`] when `a`'s `k` is not the
    /// pack's.
    pub fn matmul_nt_packed(&self, a: &Tensor, b: &PackedNt) -> Result<Tensor, TensorError> {
        a.expect_rank(2, "matmul_nt_packed")?;
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.n);
        if k != b.k {
            return Err(TensorError::MatmulDimMismatch {
                lhs: [m, k],
                rhs: [b.k, n],
            });
        }
        let spec = GemmSpec::nt(m, k, n).parallel_worthwhile();
        let mut out = workspace::tensor_zeroed(&[m, n]);
        let _timer = deepmorph_telemetry::kernel_timer(m, k, n);
        crate::gemm::panel_rows_into(&spec, a.data(), &b.panels, out.data_mut());
        Ok(out)
    }

    /// `Aᵀ @ B` for `a: [k, m]` and `b: [k, n]`, without materializing
    /// the transpose; otherwise as [`ComputeCtx::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`].
    pub fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        self.product(
            a,
            b,
            MatLayout::Transposed,
            MatLayout::RowMajor,
            "matmul_tn",
        )
    }

    /// Validates ranks and inner dimensions for the given operand
    /// layouts, then runs the product on this context's backend.
    fn product(
        &self,
        a: &Tensor,
        b: &Tensor,
        lhs: MatLayout,
        rhs: MatLayout,
        op: &'static str,
    ) -> Result<Tensor, TensorError> {
        a.expect_rank(2, op)?;
        b.expect_rank(2, op)?;
        let (m, k) = match lhs {
            MatLayout::RowMajor => (a.shape()[0], a.shape()[1]),
            MatLayout::Transposed => (a.shape()[1], a.shape()[0]),
        };
        let (k2, n) = match rhs {
            MatLayout::RowMajor => (b.shape()[0], b.shape()[1]),
            MatLayout::Transposed => (b.shape()[1], b.shape()[0]),
        };
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs: [m, k],
                rhs: [k2, n],
            });
        }
        let spec = GemmSpec::with_layouts(m, k, n, lhs, rhs).parallel_worthwhile();
        let mut out = workspace::tensor_zeroed(&[spec.m, spec.n]);
        self.backend.gemm(&spec, a.data(), b.data(), out.data_mut());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors_set_layouts_and_lengths() {
        let s = GemmSpec::nn(2, 3, 4);
        assert_eq!((s.lhs, s.rhs), (MatLayout::RowMajor, MatLayout::RowMajor));
        assert_eq!((s.lhs_len(), s.rhs_len(), s.out_len()), (6, 12, 8));
        assert!(s.skips_zero_lhs());

        let s = GemmSpec::nt(2, 3, 4).parallel(true);
        assert_eq!((s.lhs, s.rhs), (MatLayout::RowMajor, MatLayout::Transposed));
        assert!(s.parallel);
        assert!(!s.skips_zero_lhs());

        let s = GemmSpec::tn(2, 3, 4);
        assert_eq!((s.lhs, s.rhs), (MatLayout::Transposed, MatLayout::RowMajor));
        assert!(s.skips_zero_lhs());
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn scalar_backend_checks_lengths() {
        ScalarBackend.gemm(&GemmSpec::nn(2, 2, 2), &[0.0; 3], &[0.0; 4], &mut [0.0; 4]);
    }

    #[test]
    fn scalar_backend_matches_tensor_matmul_bitwise() {
        let a =
            Tensor::from_vec((0..12).map(|v| v as f32 * 0.37 - 1.0).collect(), &[3, 4]).unwrap();
        let b =
            Tensor::from_vec((0..20).map(|v| (v as f32 * 0.11).sin()).collect(), &[4, 5]).unwrap();
        let via_tensor = ComputeCtx::default().matmul(&a, &b).unwrap();
        let mut out = vec![0.0f32; 15];
        scalar().gemm(&GemmSpec::nn(3, 4, 5), a.data(), b.data(), &mut out);
        assert_eq!(via_tensor.data(), &out[..]);
    }

    #[test]
    fn double_transposed_product_matches_materialized() {
        // A stored as [k, m], B stored as [n, k]: out = Aᵀ·Bᵀ... spelled
        // against the NT reference after materializing the lhs.
        let (m, k, n) = (3usize, 5usize, 4usize);
        let a_t: Vec<f32> = (0..k * m).map(|v| (v as f32 * 0.23).cos()).collect();
        let b_t: Vec<f32> = (0..n * k).map(|v| v as f32 * 0.17 - 2.0).collect();
        // Materialize A row-major and use the NT kernel as the oracle.
        let mut a = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = a_t[p * m + i];
            }
        }
        let mut expect = vec![0.0f32; m * n];
        scalar().gemm(&GemmSpec::nt(m, k, n), &a, &b_t, &mut expect);
        let mut got = vec![0.0f32; m * n];
        scalar().gemm(
            &GemmSpec::with_layouts(m, k, n, MatLayout::Transposed, MatLayout::Transposed),
            &a_t,
            &b_t,
            &mut got,
        );
        assert_eq!(expect, got);
    }

    #[test]
    fn packed_nt_matches_matmul_nt_bitwise_and_rejects_mismatches() {
        let ctx = ComputeCtx::scalar();
        // Wide enough to span two panels; tall enough to fan out.
        let (m, k, n) = (40usize, 37usize, 600usize);
        let a = Tensor::from_vec(
            (0..m * k).map(|v| (v as f32 * 0.31).sin()).collect(),
            &[m, k],
        )
        .unwrap();
        let w = Tensor::from_vec(
            (0..n * k).map(|v| (v as f32 * 0.17).cos()).collect(),
            &[n, k],
        )
        .unwrap();
        let packed = ctx.pack_nt(&w).unwrap();
        let want = ctx.matmul_nt(&a, &w).unwrap();
        for _ in 0..2 {
            let got = ctx.matmul_nt_packed(&a, &packed).unwrap();
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.data(), want.data());
        }

        let short = Tensor::ones(&[2, k - 1]);
        assert!(matches!(
            ctx.matmul_nt_packed(&short, &packed),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        assert!(ctx.matmul_nt_packed(&Tensor::ones(&[k]), &packed).is_err());
        assert!(ctx.pack_nt(&Tensor::ones(&[k])).is_err());
    }

    #[test]
    fn ctx_matmul_dispatches_and_validates() {
        let ctx = ComputeCtx::default();
        assert_eq!(ctx.backend_name(), "scalar");
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::eye(2);
        let c = ctx.matmul(&a, &b).unwrap();
        assert_eq!(c.data(), a.data());
        let nt = ctx.matmul_nt(&a, &b).unwrap();
        assert_eq!(nt.data(), a.data());
        let tn = ctx.matmul_tn(&a, &b).unwrap();
        assert_eq!(tn.data(), &[1.0, 3.0, 2.0, 4.0]);
        assert!(ctx.matmul(&a, &Tensor::ones(&[3, 2])).is_err());
        assert!(ctx.matmul_nt(&a, &Tensor::ones(&[2, 3])).is_err());
        assert!(ctx.matmul_tn(&a, &Tensor::ones(&[3, 2])).is_err());
    }
}
