//! The one step pricer both serving runtimes share.
//!
//! A decode-replay iteration, a virtual-clock prefill batch and a threaded
//! worker's batch are all priced by [`price_step`], on an engine the
//! replay or the worker owns and reuses for every step: it charges the
//! shape's Algorithm-1 selection through the shared per-shape JIT cache
//! (§5.6: shapes repeat, patterns don't), then the layer stack of
//! `pit_models::decode`, and takes the engine's ledger into one
//! [`StepSample`], which leaves the ledger empty for the next step.

use crate::scheduler::FormedBatch;
use pit_core::jit::{JitCache, KernelKey};
use pit_core::select_kernel;
use pit_models::decode::{run_encoder_pass, run_step, StepShape};
use pit_models::{Engine, ModelConfig, OpKind};
use pit_sparse::Mask;
use pit_trace::StepSample;

/// Entries of the per-shape JIT cache every replay and threaded run
/// shares across its steps: the bound that keeps a long-running server's
/// selection cache from growing without limit.
pub(crate) const CACHE_CAPACITY: usize = 256;

/// Quantises a token count to micro-tile granularity for the JIT-cache
/// key: PIT's (32,1) micro-tiles make every shape within the same 32-token
/// class equivalent, which is what keeps the per-shape cache small and hot.
pub(crate) fn shape_class(tokens: usize) -> usize {
    tokens.div_ceil(32).max(1) * 32
}

/// Builds the token-occupancy sample for Algorithm-1: a row-granular mask
/// with one row per (scaled) processed token, dense for real tokens and
/// empty for padding. Permutation invariance means row *positions* are
/// irrelevant, so real rows lead. Scaled to at most ~1k rows to keep the
/// online search in the paper's µs–ms band.
pub(crate) fn occupancy_mask(real_tokens: usize, padded_tokens: usize) -> Mask {
    let scale = padded_tokens.div_ceil(1024).max(1);
    let rows = (padded_tokens / scale).max(1);
    let real_rows = (real_tokens / scale).min(rows);
    let mut m = Mask::zeros(rows, 64);
    m.fill_rows(0..real_rows);
    m
}

/// Charges the shared per-shape Algorithm-1 selection (§5.6) for a step
/// of `padded_rows` processed token rows, `real_rows` of them real, to
/// `eng`: only a cache miss runs the search, and only a miss pays the
/// *modelled* search cost (`SelectedKernel::modelled_search_s`, a
/// deterministic function of the candidate count) — the measured wall
/// time is returned as an annotation so replays stay bit-identical. On
/// the PIT path it also charges the token-row micro-tile index build
/// (the Figure-19 "Convert" sliver); `extra_index_items` covers
/// additional gathers such as the decode runtime's KV page-table walk.
///
/// Returns `(searches, measured_search_s)`: 1 and the measured wall time
/// on a cache miss, zeros on a hit.
fn charge_shape_selection(
    eng: &mut Engine,
    cache: &JitCache,
    op: &'static str,
    model: &ModelConfig,
    real_rows: usize,
    padded_rows: usize,
    extra_index_items: usize,
) -> (u64, f64) {
    let key = KernelKey {
        op,
        dims: [shape_class(padded_rows), model.hidden, model.ffn],
        dtype: eng.dtype,
    };
    let mut searched = false;
    let selection = cache.get_or_select(key, || {
        searched = true;
        let sample = occupancy_mask(real_rows.min(padded_rows), padded_rows);
        select_kernel(
            eng.cost(),
            &eng.db,
            std::slice::from_ref(&sample),
            model.hidden,
            eng.dtype,
        )
    });
    let mut annotation = (0u64, 0.0f64);
    if searched {
        eng.charge_host(OpKind::JitSearch, selection.modelled_search_s);
        annotation = (1, selection.search_time.as_secs_f64());
    }
    if eng.framework.is_pit() {
        let index_s = eng.cost().index_append(padded_rows)
            + eng.cost().scan_pass((real_rows * 4) as f64)
            + eng.cost().index_append(extra_index_items);
        eng.charge_host(OpKind::PitIndex, index_s);
    }
    annotation
}

/// The work of one serving step.
#[derive(Clone, Copy)]
pub(crate) enum StepWork<'a> {
    /// A decode-replay iteration ([`run_step`], KV appends included) and
    /// how many of its rows are not padding.
    Decode(&'a StepShape, usize),
    /// A prefill batch's encoder pass over its effective lengths
    /// ([`run_encoder_pass`], no KV cache), all of it prefill attention.
    Prefill(&'a FormedBatch),
}

/// Prices one serving step on `eng`, whose ledger is empty on entry and
/// on return: the shape's JIT selection through the shared `cache`, then
/// the layer stack, read off the ledger by [`Engine::take_ledger`] into
/// one [`StepSample`]. Taking the ledger reads and resets it in one call,
/// so each step prices exactly as on a fresh engine without paying for
/// building one. An empty step charges nothing and reads as the default
/// sample.
///
/// The engine charges one fused attention kernel per layer, so a decode
/// step's attention total is split prefill-vs-decode by the shape's score
/// weighting, the prefill share [`run_step`] returns.
pub(crate) fn price_step(
    eng: &mut Engine,
    cache: &JitCache,
    model: &ModelConfig,
    work: StepWork<'_>,
) -> StepSample {
    // The selection key's op, the processed and real rows, and the extra
    // index items: the page-table gather PIT's SRead performs over a
    // decode step's paged KV cache.
    let (op, rows, real_rows, gathers) = match work {
        StepWork::Decode(shape, real_rows) => (
            "serve.decode_step",
            shape.rows(),
            real_rows,
            shape.decode_slots(),
        ),
        StepWork::Prefill(batch) => ("serve.fwd", batch.padded_tokens, batch.real_tokens, 0),
    };
    if rows == 0 {
        return StepSample::default();
    }
    let (jit_searches, jit_search_measured_s) =
        charge_shape_selection(eng, cache, op, model, real_rows, rows, gathers);
    let prefill_frac = match work {
        StepWork::Decode(shape, _) => run_step(eng, model, shape),
        StepWork::Prefill(batch) => {
            run_encoder_pass(eng, model, &batch.effective_lens);
            1.0
        }
    };
    let ledger = eng.take_ledger();
    let tally = ledger.tally;
    StepSample {
        gpu_s: ledger.latency_ms() / 1e3,
        prefill_attention_s: tally.attention_s * prefill_frac,
        decode_attention_s: tally.attention_s * (1.0 - prefill_frac),
        sparse_conversion_s: tally.sparse_conversion_s,
        jit_search_s: tally.jit_search_s,
        flops_useful: tally.flops_useful,
        flops_executed: tally.flops_executed,
        jit_searches,
        jit_search_measured_s,
    }
}
