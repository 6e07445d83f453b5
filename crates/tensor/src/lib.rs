//! Dense tensor math substrate for HongTu.
//!
//! This crate stands in for the cuBLAS/PyTorch dense kernels used by the
//! original system. It provides a row-major `f32` matrix type ([`Matrix`]),
//! the activation functions used by the GNN models in the paper (ReLU,
//! LeakyReLU, row-wise softmax), weight initialization, and the optimizers
//! (SGD, Adam) used to update model parameters after each full-graph epoch.
//!
//! Design notes:
//! - Everything is `f32`, matching the paper's training precision.
//! - Matrix multiplication is blocked and parallelized across rows with
//!   std scoped threads; GNN workloads multiply `(#vertices × dim)` by
//!   `(dim × dim)` matrices, so row-parallelism is the right axis.
//! - Shape mismatches are programming errors and panic with a descriptive
//!   message, mirroring the behaviour of mainstream numeric libraries.

#![forbid(unsafe_code)]

pub mod init;
pub mod matrix;
pub mod ops;
pub mod optim;
pub mod rng;
pub mod sparse;

pub use init::{xavier_uniform, zeros_like};
pub use matrix::{Columns, Matrix};
pub use ops::{
    leaky_relu, leaky_relu_backward, log_softmax_rows, relu, relu_backward, sigmoid,
    sigmoid_backward_from_output, softmax_rows, tanh, tanh_backward_from_output,
};
pub use optim::{Adam, Optimizer, Sgd};
pub use rng::SeededRng;
pub use sparse::CsrMatrix;
