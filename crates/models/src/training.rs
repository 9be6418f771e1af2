//! Training simulation: OPT fine-tuning (Figure 14) and iterative-pruning
//! sparse training (Figure 15).

use crate::configs::ModelConfig;
use crate::engine::{Engine, Framework, OpKind};
use crate::inference::RunResult;
use pit_gpusim::DeviceSpec;
use pit_kernels::baselines::blocksparse;
use pit_tensor::DType;
use pit_workloads::Batch;

/// Expected fraction of `block` tiles that contain at least one non-zero
/// granule, for random `gran`-granular sparsity at the given density.
///
/// When the granule is at least as large as the block the block inherits
/// the granule's state (`p = density`); otherwise `n` independent granules
/// intersect the block and `p = 1 - (1-d)^n`.
pub fn block_coverage(density: f64, gran: (usize, usize), block: (usize, usize)) -> f64 {
    let n = block.0.div_ceil(gran.0) * block.1.div_ceil(gran.1);
    1.0 - (1.0 - density).powi(n.max(1) as i32)
}

/// One forward+backward training step of `cfg` on the given batch.
///
/// The backward pass is modelled as 2× the forward GEMM time (dgrad +
/// wgrad) plus one extra elementwise sweep, the standard 1:2 fwd:bwd FLOP
/// ratio of transformer training. Optimizer state and stored activations
/// are charged to memory.
pub fn run_training_step(
    cfg: &ModelConfig,
    lens: &[usize],
    device: DeviceSpec,
    dtype: DType,
    framework: Framework,
) -> RunResult {
    let mut eng = Engine::new(device, dtype, framework);
    let elem = eng.elem();
    let batch = Batch::padded_to_longest(lens.to_vec());
    let tokens = if framework.is_pit() {
        batch.real_tokens()
    } else if framework == Framework::PyTorchS {
        batch.lens.iter().map(|&l| l.div_ceil(32) * 32).sum()
    } else {
        batch.padded_tokens()
    };

    // Persistent training state: weights + grads (dtype) + fp32 Adam m/v.
    let params = cfg.num_params();
    eng.alloc_persistent(params * elem * 2 + params * 8);

    // Forward (reuse the inference layer structure without the ReLU
    // exploitation — training keeps dense activations for backward).
    forward_layers(&mut eng, cfg, tokens, &batch);

    // Stored activations for backward: per layer, the attention and FFN
    // inputs plus intermediates. DeepSpeed cannot fuse these away during
    // training (§5.2).
    let act_per_layer = 6 * tokens * cfg.hidden * elem;
    eng.alloc_retained(act_per_layer * cfg.layers);

    backward_and_step(&mut eng, cfg.layers * tokens * cfg.hidden, params);
    RunResult::from_engine(&eng, cfg.name.clone())
}

/// The forward layers shared by the training step (dense FFN path).
fn forward_layers(eng: &mut Engine, cfg: &ModelConfig, tokens: usize, batch: &Batch) {
    let elem = eng.elem();
    let sum_sq: f64 = if eng.framework.is_pit() {
        batch.sum_sq_real() as f64
    } else {
        batch.sum_sq_padded() as f64
    };
    let (hidden, ffn) = (cfg.hidden, cfg.ffn);
    eng.charge(OpKind::Embed, eng.price_elementwise(tokens * hidden, 1));
    for _ in 0..cfg.layers {
        eng.charge(OpKind::Qkv, eng.price_gemm(tokens, hidden, 3 * hidden));
        let score_flops = 2.0 * sum_sq * hidden as f64;
        let scores = eng.price_gemm_flops(score_flops, sum_sq * cfg.heads as f64 * elem as f64);
        let softmax_rows = (sum_sq * cfg.heads as f64 / 64.0) as usize;
        eng.charge(OpKind::Scores, scores);
        eng.charge(OpKind::Softmax, eng.price_softmax(softmax_rows, 64));
        eng.charge(OpKind::Context, scores);
        eng.charge(OpKind::Out, eng.price_gemm(tokens, hidden, hidden));
        eng.charge(OpKind::AttnLn, eng.price_layernorm(tokens, hidden));
        eng.charge(OpKind::Fc1, eng.price_gemm(tokens, hidden, ffn));
        eng.charge(OpKind::Act, eng.price_elementwise(tokens * ffn, 1));
        eng.charge(OpKind::Fc2, eng.price_gemm(tokens, ffn, hidden));
        eng.charge(OpKind::FfnLn, eng.price_layernorm(tokens, hidden));
        // PyTorch-S pays per-layer sparse-format construction.
        if eng.framework == Framework::PyTorchS {
            let rows = batch.padded_tokens();
            let cost = blocksparse::layout_cost(
                eng.cost(),
                rows,
                hidden,
                32,
                rows.div_ceil(32),
                eng.dtype,
            );
            eng.charge_host(OpKind::Convert, cost);
        }
        eng.transient_peak((2.0 * sum_sq) as usize * elem);
    }
}

/// Charges the end of a training step: the backward GEMMs at 2× the
/// forward GEMM time, an elementwise sweep over `sweep` activation
/// elements (none when 0), PyTorch-S's rebuild of every sparse index
/// again in backward, and the Adam step over `params` (reads grads + m +
/// v, writes weights + m + v).
fn backward_and_step(eng: &mut Engine, sweep: usize, params: usize) {
    eng.charge_host(OpKind::Backward, 2.0 * eng.gemm_time_s);
    eng.charge(OpKind::Backward, eng.price_elementwise(sweep, 2));
    if eng.framework == Framework::PyTorchS {
        // The forward pass's conversions are all the ledger holds so far.
        eng.charge_host(OpKind::Convert, eng.cost_tally().sparse_conversion_s);
    }
    eng.charge(OpKind::Optimizer, eng.price_elementwise(params, 3));
}

/// One iterative-pruning training step (Figure 15): BERT whose six weight
/// matrices per layer are masked at `sparsity` with `gran` granularity; the
/// mask changes every step, so per-pattern preprocessing cannot amortise.
pub fn run_pruning_step(
    gran: (usize, usize),
    sparsity: f64,
    lens: &[usize],
    device: DeviceSpec,
    framework: Framework,
) -> RunResult {
    let cfg = ModelConfig::bert_base();
    let dtype = DType::F32;
    let mut eng = Engine::new(device, dtype, framework);
    let elem = eng.elem();
    let batch = Batch::padded_to_longest(lens.to_vec());
    let tokens = if framework.is_pit() {
        batch.real_tokens()
    } else {
        batch.padded_tokens()
    };
    let density = 1.0 - sparsity;

    // Fraction of weight-GEMM work each framework actually executes:
    // PyTorch computes densely; PyTorch-S covers the mask with Triton's
    // 32x32 blocks; PIT covers it with (32,1) micro-tiles.
    let work_frac = match framework {
        Framework::PyTorch => 1.0,
        Framework::PyTorchS => block_coverage(density, gran, (32, 32)),
        f if f.is_pit() => block_coverage(density, gran, (32, 1)),
        other => unreachable!("{:?} not part of Figure 15", other),
    };

    // Persistent state: dense weights + grads + Adam (pruning keeps dense
    // copies; only the compute is masked, §5.2).
    let params = cfg.num_params();
    eng.alloc_persistent(params * elem * 2 + params * 8);

    let sum_sq = if framework.is_pit() {
        batch.sum_sq_real() as f64
    } else {
        batch.sum_sq_padded() as f64
    };
    let (hidden, ffn) = (cfg.hidden, cfg.ffn);
    eng.charge(OpKind::Embed, eng.price_elementwise(tokens * hidden, 1));
    for _ in 0..cfg.layers {
        // Mask regeneration (magnitude threshold) once per step per layer.
        eng.charge(OpKind::MaskCalc, eng.price_elementwise(hidden * ffn, 1));
        // Six masked weight GEMMs: qkv (3), out, fc1, fc2.
        for (kind, k, n) in [
            (OpKind::Qkv, hidden, 3 * hidden),
            (OpKind::Out, hidden, hidden),
            (OpKind::Fc1, hidden, ffn),
            (OpKind::Fc2, ffn, hidden),
        ] {
            eng.charge(kind, eng.price_gemm_k_covered(tokens, k, n, work_frac));
        }
        let score_bytes = sum_sq * cfg.heads as f64 * elem as f64;
        let softmax_rows = (sum_sq * cfg.heads as f64 / 64.0) as usize;
        let scores = eng.price_gemm_flops(4.0 * sum_sq * hidden as f64, score_bytes);
        eng.charge(OpKind::Scores, scores);
        eng.charge(OpKind::Softmax, eng.price_softmax(softmax_rows, 64));
        eng.charge(OpKind::AttnLn, eng.price_layernorm(tokens, hidden));
        // Index/format construction per layer, every step (the mask moved):
        match framework {
            Framework::PyTorchS => {
                let blocks = ((hidden / 32) * (ffn / 32)) / 2;
                let cost = blocksparse::layout_cost(eng.cost(), hidden, ffn, 32, blocks, dtype);
                // One layout rebuild per masked weight matrix.
                eng.charge_host(OpKind::Convert, 4.0 * cost);
            }
            f if f.is_pit() => {
                let scan = eng.cost().scan_pass((hidden * ffn / 8) as f64)
                    + eng.cost().index_append(hidden * ffn / 32);
                eng.charge_host(OpKind::PitIndex, 4.0 * scan);
            }
            _ => {}
        }
    }
    // Stored activations + backward at 2x forward GEMM time (no
    // elementwise sweep in this model).
    eng.alloc_retained(4 * tokens * hidden * elem * cfg.layers);
    backward_and_step(&mut eng, 0, params);
    RunResult::from_engine(&eng, format!("BERT-prune-{}x{}", gran.0, gran.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::CostModel;
    use pit_workloads::DatasetSpec;

    #[test]
    fn block_coverage_limits() {
        // Granule == block: coverage equals density.
        assert!((block_coverage(0.1, (32, 32), (32, 32)) - 0.1).abs() < 1e-12);
        // Granule larger than block: still density.
        assert!((block_coverage(0.1, (32, 64), (32, 32)) - 0.1).abs() < 1e-12);
        // Fine granules: coverage approaches 1.
        assert!(block_coverage(0.1, (1, 1), (32, 32)) > 0.99);
        // (32,1) granules in a (32,1) block: exact.
        assert!((block_coverage(0.05, (32, 1), (32, 1)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn opt_training_ordering_matches_figure14() {
        let cfg = ModelConfig::opt("350M");
        let lens = DatasetSpec::alpaca().sample_lengths(8, 1);
        let run = |fw| run_training_step(&cfg, &lens, DeviceSpec::a100_80gb(), DType::F32, fw);
        let pit = run(Framework::Pit);
        let pts = run(Framework::PyTorchS);
        let pt = run(Framework::PyTorch);
        let ds = run(Framework::DeepSpeed);
        assert!(pit.latency_ms < pts.latency_ms);
        assert!(pts.latency_ms < pt.latency_ms);
        // Paper: 1.9-2.4x over PyTorch, 1.6-1.8x over PyTorch-S, 1.8-2.2x
        // over DeepSpeed — PIT leads all three.
        assert!(pit.latency_ms < ds.latency_ms);
        let speedup = pt.latency_ms / pit.latency_ms;
        assert!(speedup > 1.3, "speedup over PyTorch {speedup}");
    }

    #[test]
    fn training_memory_pit_smallest() {
        let cfg = ModelConfig::opt("125M");
        let lens = DatasetSpec::alpaca().sample_lengths(8, 2);
        let pit = run_training_step(
            &cfg,
            &lens,
            DeviceSpec::a100_80gb(),
            DType::F32,
            Framework::Pit,
        );
        let pt = run_training_step(
            &cfg,
            &lens,
            DeviceSpec::a100_80gb(),
            DType::F32,
            Framework::PyTorch,
        );
        assert!(pit.peak_gib < pt.peak_gib);
    }

    #[test]
    fn pytorch_s_backward_repeats_the_forward_conversion() {
        // The one mid-run ledger read: PyTorch-S's backward rebuilds every
        // forward conversion, so its conversion total is exactly twice the
        // forward layers' (x + x == 2x in floating point).
        let cfg = ModelConfig::opt("125M");
        let lens = DatasetSpec::alpaca().sample_lengths(8, 2);
        let run = |fw| run_training_step(&cfg, &lens, DeviceSpec::a100_80gb(), DType::F32, fw);
        let cost = CostModel::new(DeviceSpec::a100_80gb());
        let rows = Batch::padded_to_longest(lens.clone()).padded_tokens();
        let layer =
            blocksparse::layout_cost(&cost, rows, cfg.hidden, 32, rows.div_ceil(32), DType::F32);
        // Summed in layer order, as the ledger sums the forward charges.
        let forward = (0..cfg.layers).fold(0.0, |sum, _| sum + layer);
        let pytorch_s = run(Framework::PyTorchS).convert_ms;
        assert!(forward > 0.0);
        assert_eq!(pytorch_s.to_bits(), (2.0 * forward * 1e3).to_bits());
        assert_eq!(
            run(Framework::PyTorch).convert_ms.to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn pruning_pit_insensitive_to_granularity() {
        // §5.2: PIT at 32x1 runs almost as fast as at 32x64 because the
        // (32,1) micro-tile covers both exactly.
        let lens = DatasetSpec::mnli().sample_lengths(32, 3);
        let coarse = run_pruning_step(
            (32, 64),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::Pit,
        );
        let fine = run_pruning_step((32, 1), 0.9, &lens, DeviceSpec::v100_32gb(), Framework::Pit);
        let ratio = fine.latency_ms / coarse.latency_ms;
        assert!(ratio < 1.15, "PIT 32x1 vs 32x64 ratio {ratio}");
    }

    #[test]
    fn pruning_pytorch_s_degrades_at_fine_granularity() {
        let lens = DatasetSpec::mnli().sample_lengths(32, 3);
        let coarse = run_pruning_step(
            (32, 64),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorchS,
        );
        let fine = run_pruning_step(
            (32, 1),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorchS,
        );
        assert!(fine.latency_ms > 1.3 * coarse.latency_ms);
    }

    #[test]
    fn pruning_latency_drops_with_sparsity_for_pit_not_pytorch() {
        let lens = DatasetSpec::mnli().sample_lengths(32, 4);
        let pit_50 = run_pruning_step(
            (32, 64),
            0.5,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::Pit,
        );
        let pit_98 = run_pruning_step(
            (32, 64),
            0.98,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::Pit,
        );
        assert!(pit_98.latency_ms < pit_50.latency_ms);
        let pt_50 = run_pruning_step(
            (32, 64),
            0.5,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorch,
        );
        let pt_98 = run_pruning_step(
            (32, 64),
            0.98,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorch,
        );
        let drift = (pt_50.latency_ms - pt_98.latency_ms).abs() / pt_50.latency_ms;
        assert!(drift < 0.05, "dense baseline should be flat, drift {drift}");
    }

    #[test]
    fn pruning_pit_beats_baselines() {
        let lens = DatasetSpec::mnli().sample_lengths(32, 5);
        let pit = run_pruning_step((32, 1), 0.9, &lens, DeviceSpec::v100_32gb(), Framework::Pit);
        let pts = run_pruning_step(
            (32, 1),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorchS,
        );
        let pt = run_pruning_step(
            (32, 1),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorch,
        );
        assert!(pit.latency_ms < pts.latency_ms);
        assert!(pit.latency_ms < pt.latency_ms);
    }
}
