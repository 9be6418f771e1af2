//! Baseline dense and sparse libraries the paper compares against.
//!
//! Each sparse submodule models the *algorithmic structure* of one
//! baseline (how much work it executes, what memory it touches, what
//! conversions it needs) on the shared cost model and returns that cost
//! alone: the paper compares the baselines with PIT by GPU latency and
//! conversion cost (§2.2; Figures 3b, 16, 18 and 19). [`cublas`] also
//! computes its product, because `pit_core` runs it as PIT's dense
//! fallback.

pub mod blocksparse;
pub mod cublas;
pub mod cusparse;
pub mod sparta;
pub mod sputnik;
