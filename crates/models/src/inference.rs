//! End-to-end inference simulation (Figures 8–13, 19).

use crate::configs::{AttnKind, ModelConfig};
use crate::engine::{Engine, Framework, OpKind};
use crate::moe::moe_ffn;
use pit_gpusim::DeviceSpec;
use pit_kernels::baselines::blocksparse;
use pit_tensor::DType;
use pit_workloads::Batch;

/// Outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Framework name.
    pub framework: String,
    /// Model name.
    pub model: String,
    /// End-to-end latency per batch (ms).
    pub latency_ms: f64,
    /// Portion spent building sparse indices/formats (ms): the ledger's
    /// sparse-conversion total, the "Convert" bars of Figures 8–13 and 19.
    pub convert_ms: f64,
    /// Peak GPU memory, aggregated over all devices (GiB).
    pub peak_gib: f64,
    /// Whether the run exceeded device memory.
    pub oom: bool,
}

impl RunResult {
    /// The figures' metrics of the run charged to `eng`.
    pub(crate) fn from_engine(eng: &Engine, model: String) -> Self {
        let peak = eng.memory().peak_bytes() as f64 * eng.devices as f64;
        RunResult {
            framework: eng.framework.name().to_string(),
            model,
            latency_ms: eng.latency_ms(),
            convert_ms: eng.cost_tally().sparse_conversion_s * 1e3,
            peak_gib: peak / (1u64 << 30) as f64,
            oom: eng.memory().oom(),
        }
    }
}

/// Effective per-sequence lengths a framework processes.
fn effective_lens(framework: Framework, batch: &Batch) -> Vec<usize> {
    match framework {
        // Padding-free: real tokens only.
        f if f.is_pit() => batch.lens.clone(),
        // Length-bucketed re-batching: each bucket padded to its own max.
        Framework::TurboTransformer => batch
            .rebucket(4)
            .into_iter()
            .flat_map(|b| vec![b.max_len; b.batch_size()])
            .collect(),
        // PyTorch-S (Triton backend): sequences padded up to 32-token
        // blocks (§5.1 BERT discussion).
        Framework::PyTorchS => batch.lens.iter().map(|&l| l.div_ceil(32) * 32).collect(),
        // Everything else pads to the batch maximum.
        _ => vec![batch.max_len; batch.batch_size()],
    }
}

/// Fraction of the `l × l` score matrix a framework computes under the
/// model's attention structure.
fn attention_coverage(kind: AttnKind, l: usize, framework: Framework) -> f64 {
    if l == 0 {
        return 0.0;
    }
    let lf = l as f64;
    match kind {
        AttnKind::Dense => 1.0,
        AttnKind::Longformer {
            window,
            global_frac,
        } => {
            let exact = (window as f64 / lf + 2.0 * global_frac).min(1.0);
            match framework {
                // Dense fallback: PyTorch cannot exploit the pattern.
                Framework::PyTorch | Framework::Tvm => 1.0,
                // Triton 32x32 blocks: window rounded up to blocks, global
                // rows/cols padded to whole block rows.
                Framework::PyTorchS | Framework::DeepSpeed => ((window as f64 + 64.0) / lf
                    + 2.0 * (global_frac * lf / 32.0).ceil() * 32.0 / lf)
                    .min(1.0),
                // Longformer-S and PIT cover the pattern (micro-tile waste
                // for PIT is a few percent of the window band).
                Framework::LongformerS => exact,
                f if f.is_pit() => (exact * 1.03).min(1.0),
                _ => 1.0,
            }
        }
        AttnKind::Museformer { bar_len } => {
            let bar = bar_len as f64;
            // Own bar (causal half) + one summary token per earlier bar.
            let exact = (bar / (2.0 * lf) + 1.0 / (2.0 * bar)).min(1.0);
            match framework {
                Framework::PyTorch | Framework::Tvm => 1.0,
                // 32x32 blocks inflate the one-summary-column stripes to
                // whole blocks (32x waste on the coarse part).
                Framework::PyTorchS | Framework::DeepSpeed => {
                    ((bar + 32.0) / (2.0 * lf) + 32.0 / (2.0 * bar)).min(1.0)
                }
                f if f.is_pit() => (exact * 1.05).min(1.0),
                _ => 1.0,
            }
        }
    }
}

/// Whether this framework builds a block-sparse layout for sparse
/// attention (charged per layer, per batch).
fn needs_attn_conversion(kind: AttnKind, framework: Framework) -> bool {
    !matches!(kind, AttnKind::Dense)
        && matches!(framework, Framework::PyTorchS | Framework::DeepSpeed)
}

/// One attention block over the batch's effective lengths.
fn attention(eng: &mut Engine, lens: &[usize], hidden: usize, heads: usize, kind: AttnKind) {
    let tokens: usize = lens.iter().sum();
    let elem = eng.elem();
    eng.charge(OpKind::Qkv, eng.price_gemm(tokens, hidden, 3 * hidden));
    // Scores + context per sequence: 2 * frac * l^2 * hidden FLOPs each.
    let covered: f64 = lens
        .iter()
        .map(|&l| attention_coverage(kind, l, eng.framework) * (l * l) as f64)
        .sum();
    let score_flops = 2.0 * covered * hidden as f64;
    let score_bytes = covered * heads as f64 * elem as f64;
    let scores = eng.price_gemm_flops(score_flops, score_bytes);
    let softmax_rows = (covered * heads as f64 / 64.0).ceil() as usize;
    eng.charge(OpKind::Scores, scores);
    eng.charge(OpKind::Softmax, eng.price_softmax(softmax_rows, 64));
    eng.charge(OpKind::Context, scores);
    eng.charge(OpKind::Out, eng.price_gemm(tokens, hidden, hidden));
    eng.charge(OpKind::AttnLn, eng.price_layernorm(tokens, hidden));
    eng.charge(OpKind::Residual, eng.price_elementwise(tokens * hidden, 2));
    // Score/probability buffers are the dominant transient (2 copies).
    eng.transient_peak((2.0 * covered * heads as f64) as usize * elem);
    // Longformer-S materialises rearranged band tensors and restores them.
    if eng.framework == Framework::LongformerS {
        let pass = eng.price_elementwise(tokens * hidden, 2);
        eng.charge(OpKind::Rearrange, pass);
        eng.charge(OpKind::Rearrange, pass);
        eng.alloc_retained(tokens * hidden * elem);
    }
}

/// One dense FFN block, with the OPT ReLU-sparsity optimisation on the
/// full PIT path.
fn ffn(eng: &mut Engine, tokens: usize, hidden: usize, ffn_dim: usize, relu: bool) {
    eng.charge(OpKind::Fc1, eng.price_gemm(tokens, hidden, ffn_dim));
    eng.charge(OpKind::Act, eng.price_elementwise(tokens * ffn_dim, 1));
    let fc2 = if relu && eng.framework == Framework::Pit {
        // ReLU output is ~99% zero at 1x1 granularity (§5.1); PIT's k-axis
        // merging with a (32,1) micro-tile covers 1-(1-d)^32 of the
        // reduction columns.
        let density = 0.01;
        let k_frac = 1.0 - (1.0f64 - density).powi(32);
        // Online detection over the activation values.
        let scan = eng.cost().scan_pass((tokens * ffn_dim * eng.elem()) as f64)
            + eng.cost().index_append(tokens * ffn_dim / 100 / 32);
        eng.charge_host(OpKind::PitDetect, scan);
        eng.price_gemm_k_covered(tokens, ffn_dim, hidden, k_frac)
    } else {
        eng.price_gemm(tokens, ffn_dim, hidden)
    };
    eng.charge(OpKind::Fc2, fc2);
    eng.charge(OpKind::FfnLn, eng.price_layernorm(tokens, hidden));
    eng.charge(OpKind::Residual, eng.price_elementwise(tokens * hidden, 2));
}

/// Runs one inference batch of `cfg` under `framework` and returns the
/// figures' metrics.
#[allow(clippy::too_many_arguments)]
pub fn run_inference(
    cfg: &ModelConfig,
    lens: &[usize],
    device: DeviceSpec,
    dtype: DType,
    framework: Framework,
    devices: usize,
    seed: u64,
) -> RunResult {
    let mut eng = Engine::new(device, dtype, framework).with_devices(devices);
    let elem = eng.elem();
    let batch = Batch::padded_to_longest(lens.to_vec());
    let eff_lens = effective_lens(framework, &batch);
    let tokens: usize = eff_lens.iter().sum();

    // Weights are persistent for the whole run.
    eng.alloc_persistent(cfg.num_params() * elem);
    // Embedding lookup + input activations.
    eng.charge(OpKind::Embed, eng.price_elementwise(tokens * cfg.hidden, 1));
    eng.transient_peak(4 * tokens * cfg.hidden * elem);

    // Per-batch attention layout conversion for block-sparse backends.
    if needs_attn_conversion(cfg.attention, framework) {
        let l = batch.max_len;
        let frac = attention_coverage(cfg.attention, l, framework);
        let blocks = ((l / 32).max(1) * (l / 32).max(1)) as f64 * frac;
        let cost = blocksparse::layout_cost(eng.cost(), l, l, 32, blocks as usize, dtype);
        eng.charge_host(OpKind::Convert, cost);
    }

    // PIT builds the token-row micro-tile index once per batch per layer
    // group (the "PIT Convert" sliver of Figure 19: 0.7-1.1% end to end).
    let pit_layer_index_s = if framework.is_pit() {
        eng.cost().index_append(tokens) + eng.cost().scan_pass((batch.padded_tokens() * 4) as f64)
    } else {
        0.0
    };
    for layer in 0..cfg.layers {
        if pit_layer_index_s > 0.0 {
            eng.charge_host(OpKind::PitIndex, pit_layer_index_s);
        }
        attention(&mut eng, &eff_lens, cfg.hidden, cfg.heads, cfg.attention);
        match cfg.moe {
            // Expert weights are counted in `num_params`; `moe_ffn` tracks
            // its transient activations.
            Some(moe) if layer % moe.every == moe.every - 1 => moe_ffn(
                &mut eng,
                tokens,
                cfg.hidden,
                cfg.ffn,
                &moe,
                seed.wrapping_add(layer as u64),
            ),
            _ => ffn(&mut eng, tokens, cfg.hidden, cfg.ffn, cfg.relu_ffn),
        }
        // Per-layer activation working set.
        let alpha = if framework.fused_elementwise() { 2 } else { 4 };
        eng.transient_peak(alpha * tokens * cfg.hidden * elem);
        // PyTorch-S per-layer sparse-format conversion of token matrices
        // (dynamic sequence length as row-block sparsity).
        if framework == Framework::PyTorchS && cfg.moe.is_none() {
            let rows = batch.padded_tokens();
            let blocks = rows.div_ceil(32);
            let cost = blocksparse::layout_cost(eng.cost(), rows, cfg.hidden, 32, blocks, dtype);
            eng.charge_host(OpKind::Convert, cost);
        }
    }
    // LM head / classifier.
    eng.charge(
        OpKind::Head,
        eng.price_gemm(tokens, cfg.hidden, cfg.vocab.min(4096)),
    );
    RunResult::from_engine(&eng, cfg.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_workloads::DatasetSpec;

    fn mnli_lens() -> Vec<usize> {
        DatasetSpec::mnli().sample_lengths(32, 1)
    }

    #[test]
    fn switch_ordering_matches_figure8() {
        let cfg = ModelConfig::switch_transformer(128);
        let lens = mnli_lens();
        let run = |fw| run_inference(&cfg, &lens, DeviceSpec::a100_80gb(), DType::F32, fw, 1, 7);
        let pit = run(Framework::Pit);
        let ds = run(Framework::DeepSpeed);
        let pt = run(Framework::PyTorch);
        let tutel = run(Framework::Tutel);
        assert!(pit.latency_ms < ds.latency_ms);
        assert!(ds.latency_ms < pt.latency_ms);
        assert!(pt.latency_ms < tutel.latency_ms);
        // Paper: 3.6–18.1x over PyTorch, 2.3–5.9x over DeepSpeed.
        let speedup_pt = pt.latency_ms / pit.latency_ms;
        assert!(speedup_pt > 2.0, "PyTorch speedup {speedup_pt}");
    }

    #[test]
    fn tutel_ooms_at_256_experts_fp32_batch32() {
        let cfg = ModelConfig::switch_transformer(256);
        let lens = mnli_lens();
        let tutel = run_inference(
            &cfg,
            &lens,
            DeviceSpec::a100_80gb(),
            DType::F32,
            Framework::Tutel,
            1,
            7,
        );
        let pit = run_inference(
            &cfg,
            &lens,
            DeviceSpec::a100_80gb(),
            DType::F32,
            Framework::Pit,
            1,
            7,
        );
        assert!(tutel.oom, "Tutel should OOM (Figure 8b)");
        assert!(!pit.oom, "PIT must fit (Figure 8b)");
    }

    #[test]
    fn opt_activation_ablation_matches_figure10() {
        let cfg = ModelConfig::opt("13B");
        let lens = DatasetSpec::alpaca().sample_lengths(32, 3);
        let run = |fw| run_inference(&cfg, &lens, DeviceSpec::v100_32gb(), DType::F32, fw, 8, 3);
        let pit = run(Framework::Pit);
        let pit_no_act = run(Framework::PitNoActivation);
        let pt = run(Framework::PyTorch);
        assert!(pit.latency_ms < pit_no_act.latency_ms);
        assert!(pit_no_act.latency_ms < pt.latency_ms);
        // Activation sparsity contributes a further 1.2x+ (paper: 1.3-1.4x).
        assert!(pit_no_act.latency_ms / pit.latency_ms > 1.1);
    }

    #[test]
    fn longformer_pit_beats_dense_and_blocksparse() {
        let cfg = ModelConfig::longformer("base");
        let lens = DatasetSpec::arxiv(4096).sample_lengths(1, 5);
        let run = |fw| run_inference(&cfg, &lens, DeviceSpec::v100_32gb(), DType::F32, fw, 1, 5);
        let pit = run(Framework::Pit);
        let pts = run(Framework::PyTorchS);
        let pt = run(Framework::PyTorch);
        let lfs = run(Framework::LongformerS);
        assert!(pit.latency_ms < pts.latency_ms);
        assert!(pit.latency_ms < lfs.latency_ms);
        assert!(pts.latency_ms < pt.latency_ms);
        assert!(pit.peak_gib < pt.peak_gib);
    }

    #[test]
    fn museformer_pytorch_ooms_at_long_sequences() {
        let cfg = ModelConfig::museformer();
        let lens = vec![24 * 1024];
        let pt = run_inference(
            &cfg,
            &lens,
            DeviceSpec::v100_32gb(),
            DType::F32,
            Framework::PyTorch,
            1,
            9,
        );
        let pit = run_inference(
            &cfg,
            &lens,
            DeviceSpec::v100_32gb(),
            DType::F32,
            Framework::Pit,
            1,
            9,
        );
        assert!(pt.oom, "dense 24k-token attention must exceed 32 GB");
        assert!(!pit.oom);
        assert!(pit.latency_ms < pt.latency_ms);
    }

    #[test]
    fn bert_turbo_between_pytorch_and_pit() {
        let cfg = ModelConfig::bert_base();
        let lens = DatasetSpec::mnli().sample_lengths(32, 11);
        let run = |fw| run_inference(&cfg, &lens, DeviceSpec::v100_32gb(), DType::F32, fw, 1, 11);
        let pit = run(Framework::Pit);
        let turbo = run(Framework::TurboTransformer);
        let pt = run(Framework::PyTorch);
        assert!(pit.latency_ms < turbo.latency_ms);
        assert!(turbo.latency_ms < pt.latency_ms);
    }

    #[test]
    fn pit_convert_overhead_is_tiny_fraction() {
        // Figure 19: PIT's index construction is 0.7–1.1% of end-to-end.
        let cfg = ModelConfig::bert_base();
        let lens = DatasetSpec::mnli().sample_lengths(32, 13);
        let pit = run_inference(
            &cfg,
            &lens,
            DeviceSpec::v100_32gb(),
            DType::F32,
            Framework::Pit,
            1,
            13,
        );
        assert!(pit.convert_ms / pit.latency_ms < 0.05);
    }

    #[test]
    fn fp16_is_faster_than_fp32() {
        let cfg = ModelConfig::switch_transformer(64);
        let lens = mnli_lens();
        let f32 = run_inference(
            &cfg,
            &lens,
            DeviceSpec::a100_80gb(),
            DType::F32,
            Framework::Pit,
            1,
            7,
        );
        let f16 = run_inference(
            &cfg,
            &lens,
            DeviceSpec::a100_80gb(),
            DType::F16,
            Framework::Pit,
            1,
            7,
        );
        assert!(f16.latency_ms < f32.latency_ms);
        assert!(f16.peak_gib < f32.peak_gib);
    }
}
