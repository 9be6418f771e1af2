//! Dense tensors and their reference operations for the PIT reproduction.
//!
//! This crate provides the data substrate that everything else builds on:
//!
//! - [`Tensor`]: a contiguous, row-major dense `f32` tensor. All arithmetic
//!   is carried out in `f32`, which is how the numerics of the paper's fp16
//!   kernels are validated as well; the [`DType`] a kernel is called with
//!   affects only the *performance model* upstream.
//! - [`Shape`] and stride helpers.
//! - [`ops`]: the reference operations (dense matmul, row gather and
//!   scatter, ...) that the sparse kernels are tested against.

pub mod dtype;
pub mod error;
pub mod ops;
pub mod shape;
pub mod tensor;

pub use dtype::DType;
pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
