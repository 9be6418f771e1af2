//! The decode-step engine path: one autoregressive serving iteration.
//!
//! Prefill and decode stress opposite ends of the device. Prefill is the
//! encoder-style pass the rest of this crate models — GEMMs at
//! `m = Σ prompt tokens`, attention quadratic in each sequence's length.
//! A decode step instead contributes *one* query token per live request:
//! its GEMMs run at `m = 1` per request (so a batch of `b` requests is an
//! `m = b` GEMM only if the runtime packs them — exactly the
//! padding-free-vs-rectangle argument again), and its attention reads the
//! cached context it *attends*, linear in that length and memory-bound on
//! the K/V stream.
//!
//! Under a dynamic KV-sparsity policy (StreamingLLM/H2O-style retention in
//! `pit_serve`) the attended set is a ragged per-sequence subset of the
//! cache, so each decode slot carries an `(attended, cached)` pair
//! ([`DecodeSlot`]). A PIT runtime packs the sparse K/V row set
//! permutation-invariantly into dense `(32, 1)` micro-tiles (Algorithm 1),
//! so the streamed volume is the attended rows rounded up per slot to
//! [`KV_MICROTILE_ROWS`] — never the full cached context a padded layout
//! would read.
//!
//! [`StepShape`] describes one mixed iteration — which prompt lengths are
//! being prefilled and which cached context lengths are being decoded —
//! and [`run_step`] charges the full layer stack for it on an [`Engine`].
//! [`run_encoder_pass`] charges the same layers for the prefill serving
//! runtime's forward pass, which keeps no KV cache. The serving runtimes
//! (`pit_serve`) decide *what* goes into each step; this module only
//! prices it.

use crate::configs::ModelConfig;
use crate::engine::{Engine, Framework, OpKind};
use pit_gpusim::KernelStats;
use pit_tensor::DType;

/// Rows of the K/V micro-tile PIT packs sparse attention reads into: the
/// `(32, 1)` micro-tile of the paper's Table 3 (see
/// `pit_core::microtile::PitRule`). A slot attending `a` cached tokens
/// streams `ceil(a / 32) · 32` K/V rows — at most 31 rows of slack,
/// independent of how large the *cached* context is.
pub const KV_MICROTILE_ROWS: usize = 32;

/// One decode slot's attention extent: `attended` is the cached tokens the
/// slot's query actually reads this step (its policy-retained set),
/// `cached` the tokens resident in its KV allocation. Dense decoding has
/// `attended == cached`; a sparsity policy keeps `attended <= cached`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeSlot {
    /// Cached tokens this slot's query token attends.
    pub attended: usize,
    /// Tokens resident in this slot's KV-cache allocation.
    pub cached: usize,
}

impl DecodeSlot {
    /// A dense slot attending its whole cached context.
    pub fn dense(ctx: usize) -> Self {
        DecodeSlot {
            attended: ctx,
            cached: ctx,
        }
    }

    /// A sparse slot attending `attended` of `cached` resident tokens.
    ///
    /// # Panics
    /// When `attended > cached` — a slot cannot attend rows it no longer
    /// caches.
    pub fn sparse(attended: usize, cached: usize) -> Self {
        assert!(
            attended <= cached,
            "attended ({attended}) exceeds cached ({cached})"
        );
        DecodeSlot { attended, cached }
    }

    /// Attended rows rounded up to whole `(tile, 1)` micro-tiles — the
    /// K/V rows a PIT gather actually streams for this slot.
    pub fn packed_rows(&self, tile: usize) -> usize {
        if self.attended == 0 {
            0
        } else {
            self.attended.div_ceil(tile) * tile
        }
    }
}

/// Work of one serving iteration: prefill sequences entering the batch
/// plus decode slots continuing it. Lengths are *effective* (what the GPU
/// processes): a padding-free runtime passes real lengths, a padded one
/// passes the rectangle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepShape {
    /// Per-sequence processed prompt lengths prefilled whole this step.
    pub prefill_lens: Vec<usize>,
    /// Chunked-prefill pieces as `(chunk_rows, context_after_chunk)`:
    /// `chunk_rows` new prompt tokens attending the `context_after_chunk`
    /// tokens cached once the chunk lands (Sarathi-style chunked prefill —
    /// how a long prompt shares iterations with decode without stalling
    /// inter-token latency). A fresh whole prompt of length `l` is the
    /// chunk `(l, l)`.
    pub chunks: Vec<(usize, usize)>,
    /// Per-slot attention extents for this step's decode tokens (one query
    /// token per slot; a padded runtime keeps finished requests' slots in
    /// here at the rectangle's context length).
    pub decode: Vec<DecodeSlot>,
}

impl StepShape {
    /// A pure-prefill step.
    pub fn prefill(lens: Vec<usize>) -> Self {
        StepShape {
            prefill_lens: lens,
            chunks: Vec::new(),
            decode: Vec::new(),
        }
    }

    /// A pure-decode step of dense slots (each attends its whole context).
    pub fn decode(ctx: Vec<usize>) -> Self {
        Self::decode_sparse(ctx.into_iter().map(DecodeSlot::dense).collect())
    }

    /// A pure-decode step over explicit `(attended, cached)` slots.
    pub fn decode_sparse(slots: Vec<DecodeSlot>) -> Self {
        StepShape {
            prefill_lens: Vec::new(),
            chunks: Vec::new(),
            decode: slots,
        }
    }

    /// Rows of the step's token-granular GEMMs: every prefill and chunk
    /// token plus one query token per decode slot.
    pub fn rows(&self) -> usize {
        self.prefill_tokens() + self.chunk_tokens() + self.decode.len()
    }

    /// Tokens prefilled whole this step.
    pub fn prefill_tokens(&self) -> usize {
        self.prefill_lens.iter().sum()
    }

    /// Prompt tokens landed through chunks this step.
    pub fn chunk_tokens(&self) -> usize {
        self.chunks.iter().map(|&(c, _)| c).sum()
    }

    /// Decode slots (= decode query tokens) this step.
    pub fn decode_slots(&self) -> usize {
        self.decode.len()
    }

    /// Cached tokens this step's decode slots attend (`Σ attended`).
    pub fn attended_tokens(&self) -> usize {
        self.decode.iter().map(|s| s.attended).sum()
    }

    /// Tokens resident in this step's decode-slot KV allocations
    /// (`Σ cached`) — what a padded layout would stream.
    pub fn cached_tokens(&self) -> usize {
        self.decode.iter().map(|s| s.cached).sum()
    }

    /// Micro-tile-packed decode K/V rows: each slot's attended set rounded
    /// up to whole `(tile, 1)` micro-tiles (PIT Algorithm-1 packing of the
    /// ragged retained row sets).
    pub fn packed_decode_tokens(&self, tile: usize) -> usize {
        self.decode.iter().map(|s| s.packed_rows(tile)).sum()
    }

    /// True when the step carries no work.
    pub fn is_empty(&self) -> bool {
        self.prefill_lens.is_empty() && self.chunks.is_empty() && self.decode.is_empty()
    }

    /// New tokens whose K/V rows this step appends to the cache.
    pub fn kv_write_tokens(&self) -> usize {
        self.prefill_tokens() + self.chunk_tokens() + self.decode_slots()
    }

    /// Fraction of this step's attention work attributable to prefill
    /// (whole prompts plus chunk landings), mirroring [`run_step`]'s score
    /// weighting exactly: decode slots contribute their *streamed* K/V
    /// rows — micro-tile-packed attended rows under PIT, whole cached
    /// contexts under padded layouts. A pure-decode step returns 0, a
    /// pure-prefill step 1, an empty step 0.
    pub fn prefill_attention_fraction(&self, pit: bool) -> f64 {
        let decode_kv = if pit {
            self.packed_decode_tokens(KV_MICROTILE_ROWS)
        } else {
            self.cached_tokens()
        };
        let prefill_sq: f64 = self.prefill_lens.iter().map(|&l| (l * l) as f64).sum();
        let chunk_sc: f64 = self.chunks.iter().map(|&(c, ctx)| (c * ctx) as f64).sum();
        let total = prefill_sq + chunk_sc + decode_kv as f64;
        if total <= 0.0 {
            0.0
        } else {
            (prefill_sq + chunk_sc) / total
        }
    }
}

/// Charges one serving iteration of `cfg` — embeddings, every layer's
/// attention + FFN over the step's mixed prefill/decode shape, each
/// layer's KV append, and the LM head — to `eng`.
///
/// Every layer of a step sees the same shape, so the layer's kernels are
/// priced once and [`Engine::charge_layers`] folds them `cfg.layers` times
/// into the engine's ledger, in the order a layer-by-layer pass would
/// charge them: the step's modelled seconds, category tally and GEMM time
/// are bit-identical to pricing each layer afresh. Only the attention
/// products and the softmax depend on more than the step's row count;
/// the other ops' prices (the projection, FFN and head GEMMs, the
/// LayerNorms, the elementwise ops and the KV append) are kept in a
/// table on the engine by row count, so a reused engine prices them once
/// per row count. The charges are typed [`OpKind`]s.
///
/// Decode attention is priced per slot as two `1 × a` GEMV-like products
/// (scores and context, `a` = the slot's attended extent) whose arithmetic
/// is `2 · a · hidden` FLOPs each but whose latency is dominated by
/// streaming the attended K and V rows from HBM; the raw-FLOP GEMM
/// pricer's memory bound models exactly that, which is why inter-token
/// latency grows with (attended) context length even though per-token
/// FLOPs are tiny.
///
/// The streamed decode volume depends on the engine's framework: a PIT
/// variant gathers the attended rows micro-tile-packed
/// ([`StepShape::packed_decode_tokens`] — cost scales with *attended*
/// tokens, slack ≤ 31 rows per slot), while a padded layout has no gather
/// and must stream each slot's whole *cached* context.
///
/// The charges add to whatever `eng`'s ledger already holds. The serving
/// runtimes price every step of a replay on one engine and take the
/// ledger after each ([`Engine::take_ledger`]), so each step reads as it
/// would on a fresh engine.
pub fn run_step(eng: &mut Engine, cfg: &ModelConfig, shape: &StepShape) {
    let rows = shape.rows();
    if rows == 0 {
        return;
    }
    // Decode K/V rows actually streamed: packed-attended under PIT,
    // whole-cached under padded layouts.
    let decode_kv = if eng.framework.is_pit() {
        shape.packed_decode_tokens(KV_MICROTILE_ROWS)
    } else {
        shape.cached_tokens()
    };
    let chunk_reads: usize = shape.chunks.iter().map(|&(c, ctx)| ctx - c).sum();
    let prefill_sq: f64 = shape.prefill_lens.iter().map(|&l| (l * l) as f64).sum();
    let chunk_sc: f64 = shape.chunks.iter().map(|&(c, ctx)| (c * ctx) as f64).sum();
    charge_stack(
        eng,
        cfg,
        rows,
        prefill_sq + chunk_sc + decode_kv as f64,
        decode_kv + chunk_reads,
        shape.kv_write_tokens(),
    );
}

/// Charges one encoder pass of `cfg` over sequences of the given
/// processed lengths — the prefill serving runtime's forward pass, which
/// keeps no KV cache — to `eng`: the layer stack of [`run_step`] over a
/// pure-prefill step, without its KV appends. A padded batch passes its
/// padded lengths and pays for every padded token.
pub fn run_encoder_pass(eng: &mut Engine, cfg: &ModelConfig, lens: &[usize]) {
    let rows: usize = lens.iter().sum();
    if rows == 0 {
        return;
    }
    let score_elems: f64 = lens.iter().map(|&l| (l * l) as f64).sum();
    charge_stack(eng, cfg, rows, score_elems, 0, 0);
}

/// Row counts whose [`RowPrices`] an engine keeps: a step of more rows
/// (a long prefill batch) prices them afresh. This bounds the table
/// whatever the trace length.
const ROW_TABLE_ROWS: usize = 512;

/// Everything a layer's row-only prices read besides the row count: the
/// model's widths, the K/V rows each layer appends, and the engine's
/// public settings. The engine's cost model and tile database are fixed
/// at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowKey {
    hidden: usize,
    ffn: usize,
    vocab: usize,
    kv_append_rows: usize,
    dtype: DType,
    framework: Framework,
    devices: usize,
}

/// The prices of the ops of [`charge_stack`] that read nothing of a step
/// but its row count and [`RowKey`]: every op except the attention
/// products and the softmax. Both LayerNorms are one price.
#[derive(Debug, Clone, Copy)]
struct RowPrices {
    key: RowKey,
    embed: Option<KernelStats>,
    qkv: Option<KernelStats>,
    out: Option<KernelStats>,
    layernorm: Option<KernelStats>,
    fc1: Option<KernelStats>,
    act: Option<KernelStats>,
    fc2: Option<KernelStats>,
    residual: Option<KernelStats>,
    kv_append: Option<KernelStats>,
    head: Option<KernelStats>,
}

impl RowPrices {
    fn price(eng: &Engine, key: RowKey, rows: usize) -> Self {
        let RowKey {
            hidden,
            ffn,
            vocab,
            kv_append_rows,
            ..
        } = key;
        RowPrices {
            key,
            embed: eng.price_elementwise(rows * hidden, 1),
            qkv: eng.price_gemm(rows, hidden, 3 * hidden),
            out: eng.price_gemm(rows, hidden, hidden),
            layernorm: eng.price_layernorm(rows, hidden),
            fc1: eng.price_gemm(rows, hidden, ffn),
            act: eng.price_elementwise(rows * ffn, 1),
            fc2: eng.price_gemm(rows, ffn, hidden),
            residual: eng.price_elementwise(rows * hidden, 2),
            // Each decode slot appends this layer's new K/V row; prefills
            // and chunks write every landed token's rows.
            kv_append: eng.price_elementwise(kv_append_rows * 2 * hidden, 1),
            head: eng.price_gemm(rows, hidden, vocab.min(4096)),
        }
    }
}

/// An engine's [`RowPrices`] by row count, below [`ROW_TABLE_ROWS`].
/// Filled as steps are priced, one entry per row count: an entry priced
/// under another [`RowKey`] is priced again and replaced. Empty, and
/// unallocated, on a fresh engine.
#[derive(Debug, Default)]
pub(crate) struct RowTable {
    /// `slot[rows]` is the position in `entries` of the entry for `rows`;
    /// empty until the first entry.
    slot: Vec<Option<u16>>,
    entries: Vec<RowPrices>,
}

impl RowTable {
    fn get(&self, rows: usize, key: &RowKey) -> Option<RowPrices> {
        let hit = self.entries[usize::from((*self.slot.get(rows)?)?)];
        (hit.key == *key).then_some(hit)
    }

    fn keep(&mut self, rows: usize, prices: RowPrices) {
        if rows >= ROW_TABLE_ROWS {
            return;
        }
        if self.slot.is_empty() {
            self.slot = vec![None; ROW_TABLE_ROWS];
        }
        match self.slot[rows] {
            Some(at) => self.entries[usize::from(at)] = prices,
            None => {
                let at = u16::try_from(self.entries.len()).expect("one entry per row count");
                self.slot[rows] = Some(at);
                self.entries.push(prices);
            }
        }
    }
}

/// The layer stack both entry points charge: embeddings, `cfg.layers`
/// layers over `rows` token rows, and the LM head. Attention computes
/// `score_elems` score elements and streams `kv_tokens` cached K/V rows;
/// each layer appends `kv_append_rows` tokens' K/V rows to the cache (none
/// charged when 0).
///
/// Only the attention products and the softmax read the step's shape, so
/// only they are priced afresh. The other ops' prices depend on the row
/// count and the [`RowKey`] alone; they come from the engine's
/// [`RowTable`], priced there the first time a row count is seen. Either
/// way each op's price is what pricing it now gives, bit for bit.
fn charge_stack(
    eng: &mut Engine,
    cfg: &ModelConfig,
    rows: usize,
    score_elems: f64,
    kv_tokens: usize,
    kv_append_rows: usize,
) {
    let elem = eng.elem() as f64;
    let hidden = cfg.hidden;
    // Scores + context: quadratic for prefill sequences, linear in the
    // attended (PIT) or cached (padded) context for decode slots.
    let score_flops = 2.0 * score_elems * hidden as f64;
    // Prefill reads its score tile per head; decode additionally streams
    // the K (scores) or V (context) cache rows it attends.
    let score_bytes = score_elems * cfg.heads as f64 * elem + (kv_tokens * hidden) as f64 * elem;
    let attention = eng.price_gemm_flops(score_flops, score_bytes);
    let softmax_rows = (score_elems * cfg.heads as f64 / 64.0).ceil() as usize;
    let softmax = eng.price_softmax(softmax_rows, 64);
    let key = RowKey {
        hidden,
        ffn: cfg.ffn,
        vocab: cfg.vocab,
        kv_append_rows,
        dtype: eng.dtype,
        framework: eng.framework,
        devices: eng.devices,
    };
    let row = match eng.row_table.get(rows, &key) {
        Some(row) => row,
        None => {
            let row = RowPrices::price(eng, key, rows);
            eng.row_table.keep(rows, row);
            row
        }
    };
    let layer = [
        (OpKind::Qkv, row.qkv),
        (OpKind::Scores, attention),
        (OpKind::Softmax, softmax),
        (OpKind::Context, attention),
        (OpKind::Out, row.out),
        (OpKind::AttnLn, row.layernorm),
        (OpKind::Fc1, row.fc1),
        (OpKind::Act, row.act),
        (OpKind::Fc2, row.fc2),
        (OpKind::FfnLn, row.layernorm),
        (OpKind::Residual, row.residual),
        (OpKind::KvAppend, row.kv_append),
    ];
    eng.charge(OpKind::Embed, row.embed);
    eng.charge_layers(&layer, cfg.layers);
    eng.charge(OpKind::Head, row.head);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Framework;
    use pit_gpusim::DeviceSpec;
    use pit_tensor::DType;

    fn cfg() -> ModelConfig {
        let mut m = ModelConfig::bert_base();
        m.layers = 2;
        m
    }

    fn eng() -> Engine {
        Engine::new(DeviceSpec::a100_80gb(), DType::F32, Framework::Pit)
    }

    fn step_ms(shape: &StepShape) -> f64 {
        let mut e = eng();
        run_step(&mut e, &cfg(), shape);
        e.latency_ms()
    }

    #[test]
    fn shape_accounting() {
        let s = StepShape {
            prefill_lens: vec![30, 10],
            chunks: vec![(16, 80)],
            decode: vec![100, 7, 64]
                .into_iter()
                .map(DecodeSlot::dense)
                .collect(),
        };
        assert_eq!(s.rows(), 40 + 16 + 3);
        assert_eq!(s.prefill_tokens(), 40);
        assert_eq!(s.chunk_tokens(), 16);
        assert_eq!(s.decode_slots(), 3);
        assert_eq!(s.attended_tokens(), 171);
        assert_eq!(s.cached_tokens(), 171);
        // Dense slots still stream whole (32, 1) micro-tiles under PIT.
        assert_eq!(s.packed_decode_tokens(32), 128 + 32 + 64);
        assert_eq!(s.kv_write_tokens(), 40 + 16 + 3);
        // The priced attention work: whole prefills Σ l², the chunk
        // 16 · 80, and the decode rows PIT (packed) or a padded layout
        // (cached) streams.
        let prefill_work = (900 + 100) as f64 + (16 * 80) as f64;
        assert_eq!(
            s.prefill_attention_fraction(true),
            prefill_work / (prefill_work + 224.0)
        );
        assert_eq!(
            s.prefill_attention_fraction(false),
            prefill_work / (prefill_work + 171.0)
        );
        assert!(StepShape::default().is_empty());
    }

    #[test]
    fn sparse_slot_accounting() {
        let s = StepShape::decode_sparse(vec![
            DecodeSlot::sparse(96, 1024),
            DecodeSlot::sparse(33, 512),
            DecodeSlot::dense(64),
        ]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.attended_tokens(), 96 + 33 + 64);
        assert_eq!(s.cached_tokens(), 1024 + 512 + 64);
        // Packing rounds each slot up to whole (32, 1) micro-tiles: 3 + 2
        // + 2 of them.
        assert_eq!(s.packed_decode_tokens(32), 96 + 64 + 64);
        assert_eq!(s.packed_decode_tokens(32), (3 + 2 + 2) * 32);
        // One append per slot regardless of sparsity.
        assert_eq!(s.kv_write_tokens(), 3);
        // Next to an 8-token prefill, a slot attending 33 of 512 cached
        // tokens weighs its 64 packed rows under PIT and all 512 cached
        // rows under a padded layout, not the 33 it attends.
        let mixed = StepShape {
            prefill_lens: vec![8],
            chunks: vec![],
            decode: vec![DecodeSlot::sparse(33, 512)],
        };
        assert_eq!(mixed.prefill_attention_fraction(true), 64.0 / (64.0 + 64.0));
        assert_eq!(
            mixed.prefill_attention_fraction(false),
            64.0 / (64.0 + 512.0)
        );
    }

    #[test]
    #[should_panic(expected = "attended")]
    fn sparse_slot_rejects_attended_beyond_cached() {
        DecodeSlot::sparse(65, 64);
    }

    #[test]
    fn prefill_attention_fraction_matches_score_weighting() {
        assert_eq!(StepShape::default().prefill_attention_fraction(true), 0.0);
        assert_eq!(
            StepShape::decode(vec![512; 4]).prefill_attention_fraction(true),
            0.0
        );
        assert_eq!(
            StepShape::prefill(vec![128]).prefill_attention_fraction(false),
            1.0
        );
        let mixed = StepShape {
            prefill_lens: vec![64],
            chunks: vec![(16, 80)],
            decode: vec![DecodeSlot::sparse(100, 1000)],
        };
        // PIT streams packed attended rows (ceil(100/32)*32 = 128); a
        // padded layout streams all 1000 cached rows — so the prefill
        // share is higher under PIT.
        let prefill_work = (64.0f64 * 64.0) + (16.0 * 80.0);
        let pit = mixed.prefill_attention_fraction(true);
        let padded = mixed.prefill_attention_fraction(false);
        assert!((pit - prefill_work / (prefill_work + 128.0)).abs() < 1e-12);
        assert!((padded - prefill_work / (prefill_work + 1000.0)).abs() < 1e-12);
        assert!(pit > padded);
    }

    #[test]
    fn chunked_prefill_sums_to_roughly_whole_prefill_attention() {
        // Four 1024-token chunks of a 4096-token prompt are priced for
        // more attention than the causal triangle but stay within 2x of
        // the whole-prompt square (the model uses full squares for whole
        // prefills too). Prompts this long keep the kernel launches,
        // which every chunk pays again, out of the comparison.
        let attention_s = |shape: &StepShape| {
            let mut e = eng();
            run_step(&mut e, &cfg(), shape);
            e.cost_tally().attention_s
        };
        let whole = attention_s(&StepShape::prefill(vec![4096]));
        let chunked: f64 = (1..=4)
            .map(|i| {
                attention_s(&StepShape {
                    prefill_lens: vec![],
                    chunks: vec![(1024, 1024 * i)],
                    decode: vec![],
                })
            })
            .sum();
        assert!(chunked <= whole, "chunked {chunked} vs whole {whole}");
        assert!(chunked >= whole * 0.5, "chunked {chunked} vs whole {whole}");
    }

    #[test]
    fn empty_step_costs_nothing() {
        assert_eq!(step_ms(&StepShape::default()), 0.0);
    }

    #[test]
    fn decode_cost_grows_with_context_length() {
        // Same rows, longer cached context -> more K/V streaming.
        let short = step_ms(&StepShape::decode(vec![64; 8]));
        let long = step_ms(&StepShape::decode(vec![2048; 8]));
        assert!(long > short, "long {long} vs short {short}");
    }

    #[test]
    fn sparse_decode_cost_scales_with_attended_not_cached() {
        // 8 slots each caching 16k tokens but attending only 256: the
        // micro-tile-packed gather streams the attended rows, so the step
        // prices exactly like a dense 256-context step and far below the
        // dense 16k-context one.
        let sparse = step_ms(&StepShape::decode_sparse(vec![
            DecodeSlot::sparse(
                256, 16384
            );
            8
        ]));
        let dense_short = step_ms(&StepShape::decode(vec![256; 8]));
        let dense_long = step_ms(&StepShape::decode(vec![16384; 8]));
        assert_eq!(sparse, dense_short, "packed gather prices attended rows");
        assert!(sparse < dense_long * 0.5, "sparse {sparse} vs {dense_long}");
    }

    #[test]
    fn padded_framework_pays_cached_context() {
        // Without PIT's gather the same sparse shape streams the whole
        // cached context — sparsity saves nothing under a padded layout.
        let shape = StepShape::decode_sparse(vec![DecodeSlot::sparse(256, 2048); 8]);
        let dense = StepShape::decode(vec![2048; 8]);
        let mut p1 = Engine::new(DeviceSpec::a100_80gb(), DType::F32, Framework::PyTorch);
        run_step(&mut p1, &cfg(), &shape);
        let mut p2 = Engine::new(DeviceSpec::a100_80gb(), DType::F32, Framework::PyTorch);
        run_step(&mut p2, &cfg(), &dense);
        assert_eq!(p1.latency_ms(), p2.latency_ms());
    }

    #[test]
    fn decode_step_is_cheaper_than_prefilling_the_context() {
        // One decode token over a 512-token cache is far cheaper than
        // re-prefilling all 512 tokens (the point of caching KV at all).
        let decode = step_ms(&StepShape::decode(vec![512]));
        let prefill = step_ms(&StepShape::prefill(vec![512]));
        assert!(decode * 3.0 < prefill, "decode {decode} prefill {prefill}");
    }

    #[test]
    fn batched_decode_amortises_fixed_costs() {
        // 16 requests in one packed step beat 16 singleton steps: the win
        // continuous batching exists to harvest.
        let packed = step_ms(&StepShape::decode(vec![256; 16]));
        let singleton = step_ms(&StepShape::decode(vec![256]));
        assert!(
            packed < 16.0 * singleton * 0.5,
            "packed {packed} vs 16x singleton {}",
            16.0 * singleton
        );
    }

    #[test]
    fn mixed_step_costs_more_than_either_phase_alone() {
        let prefill = StepShape::prefill(vec![128, 96]);
        let decode = StepShape::decode(vec![300; 4]);
        let mixed = StepShape {
            prefill_lens: prefill.prefill_lens.clone(),
            chunks: Vec::new(),
            decode: decode.decode.clone(),
        };
        let m = step_ms(&mixed);
        assert!(m > step_ms(&prefill));
        assert!(m > step_ms(&decode));
        // But less than running the phases as separate launches.
        assert!(m < step_ms(&prefill) + step_ms(&decode));
    }
}
