//! # PIT — Permutation Invariant Transformation for dynamic sparsity
//!
//! A Rust reproduction of *"PIT: Optimization of Dynamic Sparse Deep
//! Learning Models via Permutation Invariant Transformation"* (SOSP '23).
//!
//! This facade crate re-exports the workspace crates under one roof so that
//! examples and downstream users can depend on a single `pit` crate:
//!
//! - [`tensor`] — dense tensors and their reference operations.
//! - [`gpusim`] — the analytical GPU performance model (A100/V100).
//! - [`sparse`] — masks, micro-tile covers, sparsity generators and the
//!   baselines' format-conversion costs.
//! - [`kernels`] — dense tiled kernels, the tile database and cost models
//!   of the baseline sparse libraries (cuSPARSE-, Sputnik-, Triton-,
//!   SparTA-style).
//! - [`core`] — the paper's contribution: PIT rules, micro-tiles,
//!   SRead/SWrite, the online sparsity detector and kernel selection.
//! - [`models`] — transformer/MoE model simulations used in the evaluation.
//! - [`workloads`] — synthetic dataset/workload generators.
//! - [`kv`] — paged KV-cache manager: fixed-size refcounted token pages,
//!   alloc/extend/free plus shared admission and copy-on-write, a host
//!   staging tier with swap_out/swap_in, occupancy/fragmentation stats,
//!   admission signal.
//! - [`prefix`] — radix-tree prompt-prefix cache mapping token-ID
//!   prefixes to shared KV pages, with LRU leaf eviction.
//! - [`swap`] — tiered-KV swap machinery: PCIe link cost model, victim
//!   page ordering, restore-on-readmission queues.
//! - [`serve`] — concurrent serving runtime: bounded admission,
//!   padding-free continuous batching (prefill and decode phase), worker
//!   pool, serving metrics.
//! - [`trace`] — observability: request-lifecycle trace sink and the
//!   lifecycle fold with causal blame, streaming percentile sketches,
//!   the device-time ledger, arrival-window series and Chrome
//!   `trace_event` export.
//!
//! See `README.md` for a quickstart, the workspace layout and the crate
//! dependency graph.

pub use pit_core as core;
pub use pit_gpusim as gpusim;
pub use pit_kernels as kernels;
pub use pit_kv as kv;
pub use pit_models as models;
pub use pit_prefix as prefix;
pub use pit_serve as serve;
pub use pit_sparse as sparse;
pub use pit_swap as swap;
pub use pit_tensor as tensor;
pub use pit_trace as trace;
pub use pit_workloads as workloads;

/// Crate version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
