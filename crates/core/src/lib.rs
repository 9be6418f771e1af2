//! The PIT compiler core — the paper's primary contribution.
//!
//! PIT ("Permutation Invariant Transformation", SOSP '23) executes
//! dynamically-sparse deep-learning operators by covering non-zero data
//! with transaction-sized **micro-tiles** and merging those micro-tiles
//! along a **PIT-axis** into GPU-efficient dense computation tiles, at
//! runtime, with mathematically-guaranteed equivalence (Theorem 1).
//!
//! Pipeline (paper Figure 5):
//!
//! 1. [`microtile`]: the *(PIT-axis, micro-tile, dense tile)* rules of a
//!    matmul. Theorem 1 makes its `m`, `k` and `n` axes PIT-axes; each
//!    rule's micro-tile is 1 on its axis and spans the dense tile on the
//!    other.
//! 2. [`selection`]: Algorithm 1 — pick the rule with the lowest predicted
//!    cost `num_covering_tiles × profiled_tile_cost`, with a seamless dense
//!    fallback.
//! 3. [`detector`]: online, *unordered* sparsity detection — a word-wide
//!    scan of the mask, split into runs of strips across workers (no more
//!    than the host has cores), each run appended to the index once.
//!    Permutation invariance is exactly what makes the unordered (and
//!    therefore cheap) construction legal.
//! 4. `SRead`/`SWrite`: no separate pass and no copy (zero-copy, §3.3).
//!    The kernels read the index's micro-tiles straight out of the
//!    operands' original dense-layout buffers by index arithmetic, and
//!    write result rows straight into the output.
//! 5. [`kernels`]: the generated sparse kernels (Figure 7's template:
//!    `SRead → DenseTileImpl → SWrite`, one pass per kernel) for the
//!    m-axis, k-axis, row-segment, output-sparse and MoE cases, each
//!    computing the real result — equal to the dense reference product
//!    bit for bit — and reporting modelled latency. Their dense tile is
//!    `pit_kernels::dense::mac_rows`: rows that share a term list (a
//!    k-strip's rows, the listed rows, one expert's tokens) go four at a
//!    time, each loaded element of `B` reused across them, and x86 CPUs
//!    with AVX2 run the same code compiled for AVX2.
//! 6. [`ops`]: high-level operator API (sparse linear layers, SDD/DSD
//!    attention products, MoE expert GEMM) used by the model layer, with a
//!    [`jit`] cache standing in for the paper's kernel database.

pub mod detector;
pub mod jit;
pub mod kernels;
pub mod microtile;
pub mod ops;
#[cfg(test)]
mod primitives;
pub mod selection;

pub use detector::{detect_mask, MicroTileIndex};
pub use microtile::{MatmulAxis, MicroTile, PitRule};
pub use selection::{select_kernel, SelectedKernel};
