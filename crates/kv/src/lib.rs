//! `pit-kv` — a paged KV-cache manager for decode-phase serving.
//!
//! Autoregressive decode turns the KV cache into the scarce serving
//! resource: every live request holds keys/values for its whole context
//! and grows by one token per iteration, so a contiguous worst-case
//! reservation per request (what static padded batching does) wastes the
//! same way padded batches waste compute. This crate manages the cache as
//! fixed-size *token pages* instead — the vLLM-style design that PIT's
//! token-granularity kernels make natural, since a gather over a page
//! table is exactly the permutation-invariant load PIT's SRead performs.
//!
//! Two layers:
//!
//! - [`KvConfig`] — page geometry: tokens per page, pool capacity, and the
//!   bytes one page occupies for a given model (all layers, K and V).
//! - [`PagedKvCache`] — the block allocator: `alloc`/`extend`/`free` per
//!   sequence, reservation-aware accounting (a sequence may reserve more
//!   slots than it has used — how static baselines are modelled),
//!   occupancy/fragmentation stats, an out-of-pages admission signal, and
//!   conservation counters (`allocated_total == freed_total + live`) that
//!   the workspace proptest suite pins down.
//!
//! Each live sequence holds one row of the pool's sequence table; rows
//! freed by finished sequences are reused, so they number the peak of
//! live sequences. The id API finds a row through an id → row map, and
//! [`PagedKvCache::slot`] hands the row out as a [`SeqSlot`]: a decode
//! step reads each running sequence's length (`slot_tokens`) and appends
//! its token (`extend_slot`) by slot, indexing the row directly. A slot
//! carries its sequence's id and is refused once that sequence is freed
//! or preempted, even after another sequence takes the row.
//!
//! Page ids are minted on first use: the pool keeps one record (refs,
//! pins, written extent, tier) per id handed out so far and reuses freed
//! ids last-freed-first, so its bookkeeping, and the cost of
//! `check_invariants`, follow the pages a run touches rather than the
//! pool's capacity (the decode proptests' default pool has 163,840 ids,
//! of which a run uses a few hundred).
//!
//! Pages are *refcounted* so prompt-prefix caching can share them across
//! requests: `alloc_shared` admits a sequence onto pages another request
//! already wrote, `retain_pages`/`release_pages` let `pit_prefix`'s radix
//! index pin published prompt pages past sequence lifetime, and a
//! sequence growing into a partially written shared page gets a private
//! copy first (copy-on-write). A page returns to the free list only when
//! its last reference drops.
//!
//! Pools may also carry a *host tier* (`KvConfig::host_pages`):
//! swap-to-host preemption moves a victim's exclusively-held pages across
//! the PCIe link (`swap_out`) instead of discarding them, and `swap_in`
//! restores them on re-admission. A swapped page keeps its id, refcount
//! and written slots — only its `PageLocation` flips — and
//! `check_invariants` extends to tier residency (every live page in
//! exactly one tier, neither tier over capacity) and written-slot
//! conservation across transfers.
//!
//! The crate is dependency-free; `pit_serve` wires it into the decode
//! scheduler's admission and preemption decisions, and `pit_swap` prices
//! the transfers.

pub mod config;
pub mod pager;

pub use config::KvConfig;
pub use pager::{KvError, KvStats, PageId, PageLocation, PagedKvCache, SeqId, SeqSlot};
