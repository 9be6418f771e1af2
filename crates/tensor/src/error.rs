//! Error type shared by the tensor crate.

use std::fmt;

/// Errors produced by tensor construction and tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data.
    ShapeDataMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two tensors that must agree in shape do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// An operation required a tensor of a particular rank.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// Inner dimensions of a contraction do not agree.
    ContractionMismatch {
        /// Inner dimension of the left-hand operand.
        lhs_inner: usize,
        /// Inner dimension of the right-hand operand.
        rhs_inner: usize,
    },
    /// An index was out of bounds for the given dimension.
    IndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Dimension extent.
        extent: usize,
        /// Which axis the index addressed.
        axis: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape implies {expected} elements but {actual} were provided"
            ),
            TensorError::ShapeMismatch { lhs, rhs } => {
                write!(f, "shape mismatch: {lhs:?} vs {rhs:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "rank mismatch: expected {expected}, got {actual}")
            }
            TensorError::ContractionMismatch {
                lhs_inner,
                rhs_inner,
            } => write!(
                f,
                "contraction mismatch: lhs inner dim {lhs_inner} vs rhs inner dim {rhs_inner}"
            ),
            TensorError::IndexOutOfBounds {
                index,
                extent,
                axis,
            } => write!(
                f,
                "index {index} out of bounds for axis {axis} of extent {extent}"
            ),
        }
    }
}

impl std::error::Error for TensorError {}
