use std::fmt;
use std::ops::{Add, Mul, Sub};

use crate::shape::{Shape, MAX_RANK};
use crate::{workspace, Result, TensorError};

/// A dense, contiguous, row-major `f32` n-dimensional array.
///
/// `Tensor` is the single numeric container used throughout the DeepMorph
/// reproduction: network activations are `[n, c, h, w]` or `[n, features]`,
/// weights are `[out, in]` / `[out_c, in_c, kh, kw]`, and probe
/// distributions are `[n, classes]`.
///
/// All operations either return a new tensor or mutate `self` in place
/// (`*_inplace` / `*_mut` suffixes); shapes are validated and mismatches
/// reported as [`TensorError`]. Operations on the training/inference hot
/// path draw their result buffers from the thread's [`workspace`] arena, so
/// a caller that recycles retired tensors
/// ([`workspace::recycle_tensor`]) runs allocation-free in steady state.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    ///
    /// ```
    /// # use deepmorph_tensor::Tensor;
    /// let t = Tensor::zeros(&[2, 3]);
    /// assert_eq!(t.len(), 6);
    /// assert!(t.data().iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::from_slice(shape);
        Tensor {
            data: vec![0.0; shape.num_elements()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::from_slice(shape);
        Tensor {
            data: vec![value; shape.num_elements()],
            shape,
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the product of `shape`, or [`TensorError::InvalidShape`] for a
    /// rank above [`MAX_RANK`].
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if shape.len() > MAX_RANK {
            return Err(TensorError::InvalidShape {
                shape: shape.to_vec(),
                reason: "rank exceeds MAX_RANK",
            });
        }
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Tensor {
            shape: Shape::from_slice(shape),
            data,
        })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::from_slice(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// Assembles a tensor from pre-validated parts (workspace checkout).
    pub(crate) fn from_parts(shape: Shape, data: Vec<f32>) -> Self {
        debug_assert_eq!(shape.num_elements(), data.len());
        Tensor { shape, data }
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Copy of `self` whose buffer comes from the thread's [`workspace`]
    /// arena (allocation-free once warm). Use instead of `clone()` on hot
    /// paths that recycle their tensors.
    pub fn pooled_clone(&self) -> Tensor {
        let mut data = workspace::take_raw(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Overwrites `self` with `src`'s contents and shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ
    /// (the buffer is reused, never reallocated).
    pub fn copy_from(&mut self, src: &Tensor) -> Result<()> {
        if self.data.len() != src.data.len() {
            return Err(TensorError::LengthMismatch {
                shape: src.shape().to_vec(),
                len: self.data.len(),
            });
        }
        self.shape = src.shape;
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// Value at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index has the wrong
    /// rank or any coordinate is out of range.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.offset(index)?])
    }

    /// Sets the value at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.ndim() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape().to_vec(),
            });
        }
        let mut off = 0;
        for (&ix, &dim) in index.iter().zip(self.shape()) {
            if ix >= dim {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.shape().to_vec(),
                });
            }
            off = off * dim + ix;
        }
        Ok(off)
    }

    /// Borrow row `r` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] for a bad row.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        self.expect_rank(2, "row")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![r],
                shape: self.shape().to_vec(),
            });
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Mutable borrow of row `r` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::row`].
    pub fn row_mut(&mut self, r: usize) -> Result<&mut [f32]> {
        self.expect_rank(2, "row_mut")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![r],
                shape: self.shape().to_vec(),
            });
        }
        Ok(&mut self.data[r * cols..(r + 1) * cols])
    }

    /// Checks that the tensor has exactly `rank` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] otherwise.
    pub fn expect_rank(&self, rank: usize, op: &'static str) -> Result<()> {
        if self.ndim() != rank {
            return Err(TensorError::RankMismatch {
                expected: rank,
                actual: self.ndim(),
                op,
            });
        }
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape (buffer drawn
    /// from the [`workspace`] arena).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        if shape.len() > MAX_RANK {
            return Err(TensorError::InvalidShape {
                shape: shape.to_vec(),
                reason: "rank exceeds MAX_RANK",
            });
        }
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch {
                shape: shape.to_vec(),
                len: self.data.len(),
            });
        }
        let mut out = self.pooled_clone();
        out.shape = Shape::from_slice(shape);
        Ok(out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor> {
        self.expect_rank(2, "transpose")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = workspace::tensor_raw(&[cols, rows]);
        for r in 0..rows {
            for c in 0..cols {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
        Ok(out)
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor into a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices or
    /// [`TensorError::IndexOutOfBounds`] for a bad range.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        self.expect_rank(2, "slice_rows")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        if start > end || end > rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![start, end],
                shape: self.shape().to_vec(),
            });
        }
        let mut out = workspace::tensor_raw(&[end - start, cols]);
        out.data
            .copy_from_slice(&self.data[start * cols..end * cols]);
        Ok(out)
    }

    /// Stacks rank-≥1 tensors along a new leading batch axis.
    ///
    /// Each input must have identical shape `s`; the result has shape
    /// `[inputs.len(), s...]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes disagree, or
    /// [`TensorError::InvalidShape`] for an empty input list or a result
    /// rank above [`MAX_RANK`].
    pub fn stack(inputs: &[&Tensor]) -> Result<Tensor> {
        let first = inputs.first().ok_or(TensorError::InvalidShape {
            shape: vec![],
            reason: "cannot stack zero tensors",
        })?;
        if first.ndim() + 1 > MAX_RANK {
            return Err(TensorError::InvalidShape {
                shape: first.shape().to_vec(),
                reason: "stack result rank exceeds MAX_RANK",
            });
        }
        let mut data = Vec::with_capacity(first.len() * inputs.len());
        for t in inputs {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape().to_vec(),
                    rhs: t.shape().to_vec(),
                    op: "stack",
                });
            }
            data.extend_from_slice(&t.data);
        }
        let mut dims = [0usize; MAX_RANK];
        dims[0] = inputs.len();
        dims[1..=first.ndim()].copy_from_slice(first.shape());
        Ok(Tensor {
            shape: Shape::from_slice(&dims[..first.ndim() + 1]),
            data,
        })
    }

    /// Concatenates rank-2 tensors along axis 0 (rows).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if column counts disagree or
    /// [`TensorError::InvalidShape`] for an empty input list.
    pub fn concat_rows(inputs: &[&Tensor]) -> Result<Tensor> {
        let first = inputs.first().ok_or(TensorError::InvalidShape {
            shape: vec![],
            reason: "cannot concat zero tensors",
        })?;
        first.expect_rank(2, "concat_rows")?;
        let cols = first.shape()[1];
        let mut rows = 0;
        let mut data = Vec::new();
        for t in inputs {
            t.expect_rank(2, "concat_rows")?;
            if t.shape()[1] != cols {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape().to_vec(),
                    rhs: t.shape().to_vec(),
                    op: "concat_rows",
                });
            }
            rows += t.shape()[0];
            data.extend_from_slice(&t.data);
        }
        Ok(Tensor {
            shape: Shape::from_slice(&[rows, cols]),
            data,
        })
    }

    // ---------------------------------------------------------------------
    // Elementwise arithmetic
    // ---------------------------------------------------------------------

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
                op,
            });
        }
        Ok(())
    }

    /// Applies `f` pairwise into a workspace-backed result tensor.
    fn zip_map(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        self.check_same_shape(other, op)?;
        let mut out = workspace::tensor_raw(self.shape());
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
        Ok(out)
    }

    /// Elementwise sum, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_tensor(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, "add", |a, b| a + b)
    }

    /// Elementwise `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign_tensor(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Elementwise `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Elementwise difference, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub_tensor(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, "sub", |a, b| a - b)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f32) -> Tensor {
        let mut out = self.pooled_clone();
        out.scale(s);
        out
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = workspace::tensor_raw(self.shape());
        for (o, &v) in out.data.iter_mut().zip(&self.data) {
            *o = f(v);
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    // ---------------------------------------------------------------------
    // Reductions & row-wise ops
    // ---------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Index of the maximum element of each row of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        self.expect_rank(2, "argmax_rows")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Column sums of a rank-2 tensor, returned as shape `[cols]` (buffer
    /// drawn from the [`workspace`] arena).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_axis0(&self) -> Result<Tensor> {
        self.expect_rank(2, "sum_axis0")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = workspace::tensor_zeroed(&[cols]);
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        Ok(out)
    }

    /// Row sums of a rank-2 tensor, returned as shape `[rows]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_axis1(&self) -> Result<Tensor> {
        self.expect_rank(2, "sum_axis1")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = workspace::tensor_raw(&[rows]);
        for r in 0..rows {
            out.data[r] = self.data[r * cols..(r + 1) * cols].iter().sum();
        }
        Ok(out)
    }

    /// Adds a `[cols]` bias vector to every row of a `[rows, cols]` matrix.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `self` is not rank 2 or `bias` is not
    /// `[cols]`.
    pub fn add_row_broadcast(&mut self, bias: &Tensor) -> Result<()> {
        self.expect_rank(2, "add_row_broadcast")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        if bias.shape != [cols] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: bias.shape().to_vec(),
                op: "add_row_broadcast",
            });
        }
        for r in 0..rows {
            for c in 0..cols {
                self.data[r * cols + c] += bias.data[c];
            }
        }
        Ok(())
    }

    /// Row-wise softmax of a `[rows, cols]` matrix.
    ///
    /// Numerically stabilized by subtracting the row max before
    /// exponentiation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        self.expect_rank(2, "softmax_rows")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = self.pooled_clone();
        for r in 0..rows {
            let row = &mut out.data[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            // A row of -inf logits would give sum == 0; fall back to uniform.
            if sum <= 0.0 || !sum.is_finite() {
                for v in row.iter_mut() {
                    *v = 1.0 / cols as f32;
                }
            } else {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        Ok(out)
    }

    /// Row-wise log-softmax of a `[rows, cols]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn log_softmax_rows(&self) -> Result<Tensor> {
        self.expect_rank(2, "log_softmax_rows")?;
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = self.pooled_clone();
        for r in 0..rows {
            let row = &mut out.data[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum = row.iter().map(|v| (v - m).exp()).sum::<f32>().ln() + m;
            for v in row.iter_mut() {
                *v -= log_sum;
            }
        }
        Ok(out)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} [", self.shape)?;
        const LIMIT: usize = 8;
        for (i, v) in self.data.iter().take(LIMIT).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > LIMIT {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Tensor::add_tensor`] for a fallible
    /// version.
    fn add(self, rhs: &Tensor) -> Tensor {
        self.add_tensor(rhs).expect("tensor add: shape mismatch")
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Tensor::sub_tensor`] for a fallible
    /// version.
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.sub_tensor(rhs).expect("tensor sub: shape mismatch")
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ComputeCtx;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn from_vec_rejects_oversized_rank() {
        let err = Tensor::from_vec(vec![1.0], &[1; MAX_RANK + 1]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidShape { .. }));
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 42.0).unwrap();
        assert_eq!(t.at(&[1, 2, 3]).unwrap(), 42.0);
        assert_eq!(t.at(&[0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn indexing_rejects_out_of_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.at(&[2, 0]).is_err());
        assert!(t.at(&[0]).is_err());
        assert!(t.at(&[0, 0, 0]).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = ComputeCtx::default().matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            ComputeCtx::default().matmul(&a, &b).unwrap_err(),
            TensorError::MatmulDimMismatch { .. }
        ));
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|v| v as f32 * 0.5).collect(), &[4, 3]).unwrap();
        let ctx = ComputeCtx::default();
        let via_nt = ctx.matmul_nt(&a, &b).unwrap();
        let via_t = ctx.matmul(&a, &b.transpose().unwrap()).unwrap();
        assert_eq!(via_nt, via_t);
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]).unwrap();
        let b = Tensor::from_vec((0..12).map(|v| v as f32 * 0.25).collect(), &[3, 4]).unwrap();
        let ctx = ComputeCtx::default();
        let via_tn = ctx.matmul_tn(&a, &b).unwrap();
        let via_t = ctx.matmul(&a.transpose().unwrap(), &b).unwrap();
        assert_eq!(via_tn, via_t);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = t.softmax_rows().unwrap();
        for r in 0..2 {
            let row = s.row(r).unwrap();
            assert!(close(row.iter().sum::<f32>(), 1.0));
            assert!(row[2] > row[1] && row[1] > row[0]);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let shifted = t.map(|v| v + 100.0);
        let a = t.softmax_rows().unwrap();
        let b = shifted.softmax_rows().unwrap();
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(close(*x, *y));
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let t = Tensor::from_vec(vec![0.5, -0.25, 2.0, 1.0], &[1, 4]).unwrap();
        let s = t.softmax_rows().unwrap();
        let ls = t.log_softmax_rows().unwrap();
        for (p, lp) in s.data().iter().zip(ls.data()) {
            assert!(close(p.ln(), *lp));
        }
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec(vec![0.0, 5.0, 5.0, 1.0, 0.0, -1.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        assert_eq!(t.transpose().unwrap().transpose().unwrap(), t);
    }

    #[test]
    fn stack_builds_batch_axis() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let s = Tensor::stack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.at(&[0, 1, 1]).unwrap(), 1.0);
        assert_eq!(s.at(&[1, 1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn stack_rejects_mismatched_shapes() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(Tensor::stack(&[&a, &b]).is_err());
    }

    #[test]
    fn concat_rows_appends() {
        let a = Tensor::ones(&[1, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let c = Tensor::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[3, 3]);
        assert_eq!(c.row(0).unwrap(), &[1.0, 1.0, 1.0]);
        assert_eq!(c.row(2).unwrap(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_per_row() {
        let mut t = Tensor::zeros(&[2, 3]);
        let bias = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        t.add_row_broadcast(&bias).unwrap();
        assert_eq!(t.row(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1).unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[2, 2]).unwrap();
        assert!(close(t.sum(), 2.0));
        assert!(close(t.mean(), 0.5));
        assert!(close(t.max(), 3.0));
        assert!(close(t.min(), -2.0));
        assert!(close(t.norm_sq(), 14.0));
        assert_eq!(t.sum_axis0().unwrap().data(), &[4.0, -2.0]);
        assert_eq!(t.sum_axis1().unwrap().data(), &[-1.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t}");
        assert!(s.contains('…'));
        assert!(s.len() < 200);
    }

    #[test]
    fn eye_is_matmul_identity() {
        let t = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[3, 3]).unwrap();
        let ctx = ComputeCtx::default();
        assert_eq!(ctx.matmul(&t, &Tensor::eye(3)).unwrap(), t);
        assert_eq!(ctx.matmul(&Tensor::eye(3), &t).unwrap(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn pooled_clone_and_copy_from_round_trip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = t.pooled_clone();
        assert_eq!(c, t);
        let mut dst = Tensor::zeros(&[4]);
        dst.copy_from(&t).unwrap();
        assert_eq!(dst.shape(), &[2, 2]);
        assert_eq!(dst.data(), t.data());
        assert!(Tensor::zeros(&[3]).copy_from(&t).is_err());
    }
}
