//! Property tests: pricing a step's layer once and folding it over the
//! model's depth is bit-identical to pricing every layer op by op, and a
//! replay's one reused engine prices every step like a fresh one, also
//! when the model or the engine's settings change between steps under
//! the engine's table of row-only prices. Both entry points are covered:
//! a decode step (`run_step`) and the prefill runtime's encoder pass
//! (`run_encoder_pass`).
//!
//! The first oracle replays the per-layer, per-op loop `run_step` used to
//! run, pricing every op through the engine's `price_*` methods into a
//! local labelled record list, then sums the list in order, classifying
//! labels by suffix the way the ledger used to; an encoder pass is a
//! pure-prefill step with zero KV-append rows. The second is a fresh
//! `Engine::new` per step. Every modelled number is
//! compared by `to_bits()`: the fold must repeat each f64 addition in the
//! same order, not merely agree within a tolerance.

use pit::gpusim::{DeviceSpec, KernelStats};
use pit::models::decode::{run_encoder_pass, run_step, DecodeSlot, StepShape, KV_MICROTILE_ROWS};
use pit::models::{CostTally, Engine, Framework, ModelConfig, OpKind};
use pit::tensor::DType;
use proptest::prelude::*;

/// SplitMix64: the shape generator's source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random step: `parts` bit 0 adds whole prefills, bit 1 chunks with
/// `ctx >= chunk`, bit 2 decode slots with `attended <= cached` (dense
/// or sparse); `parts == 0` is the empty shape.
fn random_shape(rng: &mut Rng, parts: u8) -> StepShape {
    let mut shape = StepShape::default();
    if parts & 1 != 0 {
        for _ in 0..1 + rng.below(3) {
            shape.prefill_lens.push(1 + rng.below(512));
        }
    }
    if parts & 2 != 0 {
        for _ in 0..1 + rng.below(3) {
            let chunk = 1 + rng.below(256);
            shape.chunks.push((chunk, chunk + rng.below(1024)));
        }
    }
    if parts & 4 != 0 {
        for _ in 0..1 + rng.below(64) {
            let cached = rng.below(4096);
            shape.decode.push(if rng.below(2) == 0 {
                DecodeSlot::dense(cached)
            } else {
                DecodeSlot::sparse(rng.below(cached + 1), cached)
            });
        }
    }
    shape
}

/// One priced pass: a decode-replay step, or the prefill runtime's
/// encoder pass over processed lengths.
enum Pass {
    Step(StepShape),
    Encoder(Vec<usize>),
}

impl Pass {
    /// A random step (see [`random_shape`]), or with `encoder` an encoder
    /// pass over up to 8 lengths (none: the empty pass).
    fn random(rng: &mut Rng, parts: u8, encoder: bool) -> Pass {
        if encoder {
            Pass::Encoder((0..rng.below(9)).map(|_| 1 + rng.below(1024)).collect())
        } else {
            Pass::Step(random_shape(rng, parts))
        }
    }

    /// Charges the pass through its entry point.
    fn charge(&self, eng: &mut Engine, cfg: &ModelConfig) {
        match self {
            Pass::Step(shape) => {
                run_step(eng, cfg, shape);
            }
            Pass::Encoder(lens) => run_encoder_pass(eng, cfg, lens),
        }
    }

    /// Prices the pass op by op: an encoder pass is a pure-prefill step
    /// whose layers append no K/V rows.
    fn oracle(&self, eng: &Engine, records: &mut Records, cfg: &ModelConfig) {
        match self {
            Pass::Step(shape) => oracle_step(eng, records, cfg, shape, shape.kv_write_tokens()),
            Pass::Encoder(lens) => {
                oracle_step(eng, records, cfg, &StepShape::prefill(lens.clone()), 0)
            }
        }
    }
}

fn model(name: &str) -> ModelConfig {
    match name {
        "bert_base/2" => {
            let mut m = ModelConfig::bert_base();
            m.layers = 2;
            m
        }
        _ => ModelConfig::opt("1.3B"),
    }
}

/// The oracle's record list: every op's label and priced stats, in the
/// order they were charged.
type Records = Vec<(String, KernelStats)>;

/// Appends a priced op under `label`; an empty op (`None`) records
/// nothing, as the labelled recorders did.
fn record(records: &mut Records, label: impl Into<String>, stats: Option<KernelStats>) {
    if let Some(stats) = stats {
        records.push((label.into(), stats));
    }
}

/// A host-side charge: latency only.
fn host(seconds: f64) -> Option<KernelStats> {
    Some(KernelStats {
        latency_s: seconds,
        ..Default::default()
    })
}

/// The per-op loop the layer fold replaced: every layer priced op by op,
/// each appending `kv_append_rows` tokens' K/V rows, and recorded under a
/// formatted label.
fn oracle_step(
    eng: &Engine,
    records: &mut Records,
    cfg: &ModelConfig,
    shape: &StepShape,
    kv_append_rows: usize,
) {
    let rows = shape.rows();
    if rows == 0 {
        return;
    }
    let elem = eng.elem() as f64;
    let decode_kv = if eng.framework.is_pit() {
        shape.packed_decode_tokens(KV_MICROTILE_ROWS)
    } else {
        shape.cached_tokens()
    };
    let chunk_reads: usize = shape.chunks.iter().map(|&(c, ctx)| ctx - c).sum();
    let kv_tokens = decode_kv + chunk_reads;
    let prefill_sq: f64 = shape.prefill_lens.iter().map(|&l| (l * l) as f64).sum();
    let chunk_sc: f64 = shape.chunks.iter().map(|&(c, ctx)| (c * ctx) as f64).sum();
    let score_elems = prefill_sq + chunk_sc + decode_kv as f64;
    let (h, f) = (cfg.hidden, cfg.ffn);
    let score_flops = 2.0 * score_elems * h as f64;
    let score_bytes = score_elems * cfg.heads as f64 * elem + (kv_tokens * h) as f64 * elem;
    let softmax_rows = (score_elems * cfg.heads as f64 / 64.0).ceil() as usize;
    let kv_append = kv_append_rows * 2 * h;
    record(records, "embed", eng.price_elementwise(rows * h, 1));
    for layer in 0..cfg.layers {
        for (op, stats) in [
            ("qkv", eng.price_gemm(rows, h, 3 * h)),
            ("scores", eng.price_gemm_flops(score_flops, score_bytes)),
            ("softmax", eng.price_softmax(softmax_rows, 64)),
            ("context", eng.price_gemm_flops(score_flops, score_bytes)),
            ("out", eng.price_gemm(rows, h, h)),
            ("attn_ln", eng.price_layernorm(rows, h)),
            ("fc1", eng.price_gemm(rows, h, f)),
            ("act", eng.price_elementwise(rows * f, 1)),
            ("fc2", eng.price_gemm(rows, f, h)),
            ("ffn_ln", eng.price_layernorm(rows, h)),
            ("residual", eng.price_elementwise(rows * h, 2)),
            ("kv_append", eng.price_elementwise(kv_append, 1)),
        ] {
            record(records, format!("l{layer}.{op}"), stats);
        }
    }
    record(
        records,
        "head",
        eng.price_gemm(rows, h, cfg.vocab.min(4096)),
    );
}

/// Labels of the per-layer GEMM-class recorders (the LM head is `head`).
const GEMM_SUFFIXES: [&str; 6] = [".qkv", ".scores", ".context", ".out", ".fc1", ".fc2"];

/// Sums the labelled records in order: total latency (ms) as `f64: Sum`
/// gives it, GEMM-class seconds, and the category tally by label suffix.
fn oracle_ledger(records: &Records) -> (f64, f64, CostTally) {
    let latency_ms = records.iter().map(|(_, s)| s.latency_s).sum::<f64>() * 1e3;
    let ends = |name: &str, suffixes: &[&str]| suffixes.iter().any(|s| name.ends_with(s));
    let (mut gemm_s, mut t) = (0.0, CostTally::default());
    for (name, stats) in records {
        let (name, s) = (name.as_str(), stats.latency_s);
        if ends(name, &[".scores", ".softmax", ".context"]) {
            t.attention_s += s;
        } else if name.ends_with(".index") {
            t.sparse_conversion_s += s;
        } else if name == "jit.search" {
            t.jit_search_s += s;
        } else {
            t.dense_s += s;
        }
        t.flops_useful += stats.flops_useful;
        t.flops_executed += stats.flops_executed;
        if name == "head" || ends(name, &GEMM_SUFFIXES) {
            gemm_s += s;
        }
    }
    (latency_ms, gemm_s, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// For any step shape, framework, precision, device count and model,
    /// the fold's latency, GEMM time and every tally field equal the
    /// per-op oracle bit for bit — across consecutive steps on one engine
    /// (with `encoders`, a random mix of decode steps and encoder passes)
    /// and with the serving path's selection charges in front, as the
    /// serving step pricer charges them.
    #[test]
    fn layer_fold_matches_per_op_pricing_bit_for_bit(
        seed in 0u64..u64::MAX,
        parts in 0u8..8,
        steps in 1usize..3,
        selection in 0u8..4,
        encoders in vec![false, true],
        framework in vec![Framework::Pit, Framework::PyTorch, Framework::DeepSpeed],
        dtype in vec![DType::F16, DType::F32],
        devices in vec![1usize, 4],
        model_name in vec!["bert_base/2", "opt-1.3B"],
    ) {
        let cfg = model(model_name);
        let engine = || Engine::new(DeviceSpec::a100_80gb(), dtype, framework).with_devices(devices);
        let (mut fold, pricer) = (engine(), engine());
        let mut records = Records::new();
        let mut rng = Rng(seed);
        for _ in 0..steps {
            if selection & 1 != 0 {
                let s = 1e-6 * (1 + rng.below(500)) as f64;
                fold.charge_host(OpKind::JitSearch, s);
                record(&mut records, "jit.search", host(s));
            }
            if selection & 2 != 0 {
                let s = 1e-7 * (1 + rng.below(500)) as f64;
                fold.charge_host(OpKind::PitIndex, s);
                record(&mut records, "pit.index", host(s));
            }
            let encoder = encoders && rng.below(2) == 0;
            let pass = Pass::random(&mut rng, parts, encoder);
            pass.charge(&mut fold, &cfg);
            pass.oracle(&pricer, &mut records, &cfg);
        }
        let (latency_ms, gemm_s, want) = oracle_ledger(&records);
        let got = fold.cost_tally();
        prop_assert_eq!(fold.latency_ms().to_bits(), latency_ms.to_bits());
        prop_assert_eq!(fold.gemm_time_s.to_bits(), gemm_s.to_bits());
        for (field, g, w) in [
            ("attention_s", got.attention_s, want.attention_s),
            ("sparse_conversion_s", got.sparse_conversion_s, want.sparse_conversion_s),
            ("jit_search_s", got.jit_search_s, want.jit_search_s),
            ("dense_s", got.dense_s, want.dense_s),
            ("flops_useful", got.flops_useful, want.flops_useful),
            ("flops_executed", got.flops_executed, want.flops_executed),
        ] {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "{}: {} vs {}", field, g, w);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A replay prices all of its steps on one engine, taking the ledger
    /// after each; every step must read exactly as it does on a fresh
    /// `Engine::new`. Shapes repeat from a small pool, and some steps are
    /// empty. With `encoders`, encoder passes alternate with decode steps
    /// on the one engine.
    #[test]
    fn reused_engine_prices_each_step_like_a_fresh_one(
        seed in 0u64..u64::MAX,
        steps in 1usize..12,
        selection in 0u8..4,
        encoders in vec![false, true],
        framework in vec![Framework::Pit, Framework::PyTorch, Framework::DeepSpeed],
        dtype in vec![DType::F16, DType::F32],
        devices in vec![1usize, 4],
        model_name in vec!["bert_base/2", "opt-1.3B"],
    ) {
        let cfg = model(model_name);
        let engine = || Engine::new(DeviceSpec::a100_80gb(), dtype, framework).with_devices(devices);
        let mut rng = Rng(seed);
        // Three decode steps, then three encoder passes.
        let pool: Vec<Pass> = (0..6)
            .map(|i| {
                let parts = rng.below(8) as u8;
                Pass::random(&mut rng, parts, i >= 3)
            })
            .collect();
        let mut reused = engine();
        for step in 0..steps {
            let encoder = encoders && step % 2 == 1;
            let pass = &pool[rng.below(3) + if encoder { 3 } else { 0 }];
            let search_s = 1e-6 * (1 + rng.below(500)) as f64;
            let index_s = 1e-7 * (1 + rng.below(500)) as f64;
            let price = |eng: &mut Engine| {
                if selection & 1 != 0 {
                    eng.charge_host(OpKind::JitSearch, search_s);
                }
                if selection & 2 != 0 {
                    eng.charge_host(OpKind::PitIndex, index_s);
                }
                pass.charge(eng, &cfg);
            };
            price(&mut reused);
            let got = reused.take_ledger();
            let mut fresh = engine();
            price(&mut fresh);
            let want = fresh.cost_tally();
            // `gpu_s` as the serving step pricer derives it from each ledger.
            for (field, g, w) in [
                ("gpu_s", got.latency_ms() / 1e3, fresh.latency_ms() / 1e3),
                ("gemm_time_s", got.gemm_time_s, fresh.gemm_time_s),
                ("attention_s", got.tally.attention_s, want.attention_s),
                ("sparse_conversion_s", got.tally.sparse_conversion_s, want.sparse_conversion_s),
                ("jit_search_s", got.tally.jit_search_s, want.jit_search_s),
                ("dense_s", got.tally.dense_s, want.dense_s),
                ("flops_useful", got.tally.flops_useful, want.flops_useful),
                ("flops_executed", got.tally.flops_executed, want.flops_executed),
            ] {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "step {}: {}: {} vs {}", step, field, g, w);
            }
            // The reset leaves the reused engine reading as a fresh one.
            prop_assert_eq!(reused.latency_ms().to_bits(), (-0.0f64).to_bits());
            prop_assert_eq!(reused.cost_tally(), CostTally::default());
            prop_assert_eq!(reused.gemm_time_s.to_bits(), 0.0f64.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An engine keeps a step's row-only layer prices by row count, so
    /// its table's key must cover everything those prices read. One
    /// engine prices decode steps and encoder passes of both models, and
    /// of variants that each change one width, at a few row counts, which
    /// repeat, while its `framework`, `devices` and `dtype` flip between
    /// passes; every pass must read exactly as it does on a fresh engine
    /// with the same settings. (`dtype` is set on the fresh engine too:
    /// the reference throughput stays the one of the engine's first
    /// precision.)
    #[test]
    fn row_table_keys_cover_model_pass_and_settings(
        seed in 0u64..u64::MAX,
        dtype in vec![DType::F16, DType::F32],
    ) {
        let variant = |name: &str, set: fn(&mut ModelConfig)| {
            let mut m = model(name);
            set(&mut m);
            m
        };
        let models = [
            model("bert_base/2"),
            model("opt-1.3B"),
            variant("bert_base/2", |m| m.hidden = 1024),
            variant("opt-1.3B", |m| m.ffn = 4096),
            // Below the LM head's 4096-column cap, so the head narrows.
            variant("opt-1.3B", |m| m.vocab = 2048),
        ];
        let frameworks = [Framework::Pit, Framework::PyTorch, Framework::DeepSpeed];
        let mut rng = Rng(seed);
        let mut shared = Engine::new(DeviceSpec::a100_80gb(), dtype, Framework::Pit);
        for pass_no in 0..24 {
            shared.framework = frameworks[rng.below(3)];
            shared.devices = [1, 4][rng.below(2)];
            shared.dtype = [DType::F16, DType::F32][rng.below(2)];
            let cfg = &models[rng.below(models.len())];
            let rows = [1, 2, 5, 33][rng.below(4)];
            // A decode step of `rows` slots, or an encoder pass over
            // lengths summing to `rows`: the same row count with and
            // without KV appends.
            let pass = if rng.below(2) == 0 {
                Pass::Step(StepShape::decode((0..rows).map(|_| rng.below(2048)).collect()))
            } else {
                let first = 1 + rng.below(rows);
                Pass::Encoder([first, rows - first].into_iter().filter(|&l| l > 0).collect())
            };
            pass.charge(&mut shared, cfg);
            let got = shared.take_ledger();
            let mut fresh = Engine::new(DeviceSpec::a100_80gb(), dtype, shared.framework)
                .with_devices(shared.devices);
            fresh.dtype = shared.dtype;
            pass.charge(&mut fresh, cfg);
            let want = fresh.take_ledger();
            for (field, g, w) in [
                ("total_s", got.total_s, want.total_s),
                ("gemm_time_s", got.gemm_time_s, want.gemm_time_s),
                ("attention_s", got.tally.attention_s, want.tally.attention_s),
                ("dense_s", got.tally.dense_s, want.tally.dense_s),
                ("flops_useful", got.tally.flops_useful, want.tally.flops_useful),
                ("flops_executed", got.tally.flops_executed, want.tally.flops_executed),
            ] {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "pass {}: {}: {} vs {}", pass_no, field, g, w);
            }
        }
    }
}

/// A step with no work leaves an engine's latency at −0.0, what summing
/// an empty record list gives.
#[test]
fn empty_step_keeps_negative_zero_latency() {
    let mut eng = Engine::new(DeviceSpec::a100_80gb(), DType::F16, Framework::Pit);
    run_step(&mut eng, &ModelConfig::opt("1.3B"), &StepShape::default());
    assert_eq!(eng.latency_ms().to_bits(), (-0.0f64).to_bits());
    assert_eq!(eng.cost_tally(), CostTally::default());
}

/// The same holds on a reused engine: after a priced step's ledger is
/// taken, an empty step reads −0.0 and an empty tally again.
#[test]
fn empty_step_on_a_reused_engine_keeps_negative_zero_latency() {
    let cfg = ModelConfig::opt("1.3B");
    let mut eng = Engine::new(DeviceSpec::a100_80gb(), DType::F16, Framework::Pit);
    run_step(&mut eng, &cfg, &StepShape::decode(vec![300; 8]));
    assert!(eng.take_ledger().total_s > 0.0);
    run_step(&mut eng, &cfg, &StepShape::default());
    assert_eq!(eng.latency_ms().to_bits(), (-0.0f64).to_bits());
    assert_eq!(eng.cost_tally(), CostTally::default());
    let empty = eng.take_ledger();
    assert_eq!(empty.latency_ms().to_bits(), (-0.0f64).to_bits());
    assert_eq!(empty.gemm_time_s.to_bits(), 0.0f64.to_bits());
    assert_eq!(empty.tally, CostTally::default());
}
