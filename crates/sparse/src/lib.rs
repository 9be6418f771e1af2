//! Sparsity substrate for the PIT reproduction.
//!
//! The paper's four sources of dynamic sparsity (Figure 2) are all
//! represented here:
//!
//! - **dynamic attention**: [`generate::longformer_mask`];
//! - **mixture-of-experts**: [`generate::RoutingPlan`];
//! - **dynamic sequence length**: [`generate::token_row_mask`];
//! - **sparse training / activation sparsity**:
//!   [`generate::magnitude_prune`], [`generate::granular_random`],
//!   [`generate::relu_activation_mask`].
//!
//! A [`Mask`] is a bitset over a 2-D tensor; sparse *values* always stay in
//! their original dense buffer (this is what lets PIT's `SRead`/`SWrite`
//! operate zero-copy, §3.3 of the paper). [`formats`] prices the
//! conversions into the formats the baselines read (CSR, a BCSR-style
//! block layout), and [`cover`] implements the paper's `CoverAlgo`
//! (Algorithm 1, line 8).

pub mod cover;
pub mod formats;
pub mod generate;
pub mod mask;

pub use cover::{cover_count, CoverStats};
pub use mask::Mask;
