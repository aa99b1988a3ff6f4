use std::error::Error;
use std::fmt;

/// Errors produced by tensor operations.
///
/// Every fallible operation in this crate returns one of these variants
/// rather than panicking, so callers (the layer implementations in
/// `deepmorph-nn`) can surface shape bugs with context.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two tensors were expected to have identical shapes but did not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Operation that was attempted.
        op: &'static str,
    },
    /// The number of elements implied by a shape does not match the data
    /// length provided.
    LengthMismatch {
        /// The shape requested.
        shape: Vec<usize>,
        /// Number of elements actually provided.
        len: usize,
    },
    /// An operation required a tensor of a particular rank.
    RankMismatch {
        /// Rank expected by the operation.
        expected: usize,
        /// Rank of the tensor provided.
        actual: usize,
        /// Operation that was attempted.
        op: &'static str,
    },
    /// Inner dimensions disagree for a matrix product.
    MatmulDimMismatch {
        /// `[m, k]` of the left operand.
        lhs: [usize; 2],
        /// `[k', n]` of the right operand.
        rhs: [usize; 2],
    },
    /// A packed rhs reached a context whose backend did not pack it.
    PackedByOtherBackend {
        /// The backend that packed the operand.
        packed_by: &'static str,
        /// The backend of the context it was handed to.
        backend: &'static str,
    },
    /// An index was out of bounds for the tensor shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
    /// A shape contained a zero dimension where one is not allowed, or was
    /// otherwise invalid for the operation.
    InvalidShape {
        /// The offending shape.
        shape: Vec<usize>,
        /// Why the shape is invalid.
        reason: &'static str,
    },
    /// Convolution/pooling geometry is inconsistent (e.g. kernel larger
    /// than padded input).
    InvalidGeometry {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in `{op}`: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::LengthMismatch { shape, len } => write!(
                f,
                "data length {len} does not match shape {shape:?} ({} elements)",
                shape.iter().product::<usize>()
            ),
            TensorError::RankMismatch {
                expected,
                actual,
                op,
            } => write!(f, "`{op}` expects rank {expected}, got rank {actual}"),
            TensorError::MatmulDimMismatch { lhs, rhs } => write!(
                f,
                "matmul inner dimensions disagree: [{}, {}] x [{}, {}]",
                lhs[0], lhs[1], rhs[0], rhs[1]
            ),
            TensorError::PackedByOtherBackend { packed_by, backend } => write!(
                f,
                "operand packed by the `{packed_by}` backend cannot run on `{backend}`"
            ),
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidShape { shape, reason } => {
                write!(f, "invalid shape {shape:?}: {reason}")
            }
            TensorError::InvalidGeometry { reason } => {
                write!(f, "invalid convolution geometry: {reason}")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::ShapeMismatch {
            lhs: vec![2, 3],
            rhs: vec![3, 2],
            op: "add",
        };
        let msg = err.to_string();
        assert!(msg.contains("add"));
        assert!(msg.contains("[2, 3]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn matmul_mismatch_message_names_dims() {
        let err = TensorError::MatmulDimMismatch {
            lhs: [4, 5],
            rhs: [6, 7],
        };
        let msg = err.to_string();
        assert!(msg.contains("[4, 5]"));
        assert!(msg.contains("[6, 7]"));
    }
}
