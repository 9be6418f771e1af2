//! Cross-crate integration tests: the full PIT pipeline (detection →
//! selection → SRead/dense-tile/SWrite execution) against the dense oracle,
//! across sparsity regimes, dtypes and models.

use pit::core::ops::Pit;
use pit::gpusim::DeviceSpec;
use pit::models::{run_inference, Framework, ModelConfig};
use pit::sparse::{generate, Mask};
use pit::tensor::{ops, DType, Tensor};
use pit::workloads::DatasetSpec;

fn engine() -> Pit {
    Pit::new(DeviceSpec::a100_80gb())
}

#[test]
fn pipeline_correct_across_sparsity_regimes() {
    let pit = engine();
    let b = Tensor::random([192, 96], 99);
    for (gh, gw, sp) in [
        (1usize, 1usize, 0.5),
        (1, 1, 0.99),
        (8, 1, 0.9),
        (32, 1, 0.95),
        (1, 32, 0.9),
        (16, 16, 0.8),
    ] {
        let mask = generate::granular_random(256, 192, gh, gw, sp, 7);
        let a = mask.apply(&Tensor::random([256, 192], 8));
        let exec = pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
        let reference = ops::matmul(&a, &b).unwrap();
        assert!(
            exec.output.tensor.allclose(&reference, 1e-3),
            "granularity ({gh},{gw}) sparsity {sp} diverged"
        );
    }
}

/// `Pit`'s entry points on masks big enough for the detector to split
/// its scan over several workers: 1024 rows of 16 words each are exactly
/// the 2^14 words at which `detect_mask` fans out (on a host with more
/// than one core). Each pattern gets a fresh engine, because the JIT
/// cache keys a selection by shape alone. Every pattern must select a
/// sparse rule, so the detector runs (row segments, k-axis strips, row
/// lists), and both entry points must equal the dense product exactly.
#[test]
fn pit_entry_points_exact_on_multi_worker_scans() {
    let side = 1024usize;
    assert_eq!(side * side.div_ceil(64), 1 << 14);
    let lens: Vec<usize> = (0..8).map(|i| 20 + i * 13).collect();
    let masks = [
        generate::granular_random(side, side, 1, 8, 0.9, 21),
        generate::granular_random(side, side, 32, 1, 0.9, 22),
        generate::granular_random(side, side, 8, 8, 0.95, 23),
        generate::token_row_mask(&lens, side / lens.len(), side),
    ];
    let b = Tensor::random([side, 64], 20);
    for (i, mask) in masks.iter().enumerate() {
        let pit = engine();
        let a = mask.apply(&Tensor::random([side, side], 30 + i as u64));
        let reference = ops::matmul(&a, &b).unwrap();
        for exec in [
            pit.matmul_masked(&a, mask, &b, DType::F32).unwrap(),
            pit.matmul_dyn_sparse(&a, &b, DType::F32).unwrap(),
        ] {
            assert!(
                exec.selection.rule.is_some(),
                "pattern {i} fell back to the dense kernel"
            );
            assert!(
                exec.output.tensor == reference,
                "pattern {i} differs from the dense product"
            );
        }
    }
}

#[test]
fn pipeline_correct_on_sequence_padding() {
    let pit = engine();
    let lens = DatasetSpec::mnli().sample_lengths(8, 1);
    let max_len = 128;
    let mask = generate::token_row_mask(&lens, max_len, 64);
    let a = mask.apply(&Tensor::random([8 * max_len, 64], 2));
    let b = Tensor::random([64, 48], 3);
    let exec = pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
    let reference = ops::matmul(&a, &b).unwrap();
    assert!(exec.output.tensor.allclose(&reference, 1e-3));
}

#[test]
fn attention_sdd_dsd_roundtrip() {
    // A full sparse attention head: SDD scores -> softmax -> DSD context,
    // identical to the dense computation on covered positions.
    let pit = engine();
    let (seq, dh) = (128usize, 32usize);
    let q = Tensor::random([seq, dh], 4);
    let k_t = Tensor::random([dh, seq], 5);
    let v = Tensor::random([seq, dh], 6);
    let mask = generate::longformer_mask(seq, 16, &[0, 77]);

    let scores = pit.sdd(&q, &k_t, &mask, DType::F32).unwrap();
    let probs = mask.apply(&ops::softmax_rows(&scores.output.tensor).unwrap());
    let ctx = pit.matmul_masked(&probs, &mask, &v, DType::F32).unwrap();

    let ref_scores = mask.apply(&ops::matmul(&q, &k_t).unwrap());
    let ref_probs = mask.apply(&ops::softmax_rows(&ref_scores).unwrap());
    let ref_ctx = ops::matmul(&ref_probs, &v).unwrap();
    assert!(ctx.output.tensor.allclose(&ref_ctx, 1e-3));
}

#[test]
fn fp16_path_matches_fp32_numerics() {
    // Storage is f32 either way; the fp16 path must select tensor-core
    // tiles without changing results.
    let pit = engine();
    let mask = generate::granular_random(128, 128, 8, 1, 0.9, 9);
    let a = mask.apply(&Tensor::random([128, 128], 10));
    let b = Tensor::random([128, 64], 11);
    let f32 = pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
    let f16 = pit.matmul_masked(&a, &mask, &b, DType::F16).unwrap();
    assert!(f32.output.tensor.allclose(&f16.output.tensor, 1e-3));
}

#[test]
fn headline_speedups_hold_end_to_end() {
    // The abstract's claim: PIT accelerates dynamic sparsity by up to 5.9x
    // (avg 2.43x) over SOTA compilers. Check PIT beats every baseline on
    // its flagship workload.
    let cfg = ModelConfig::switch_transformer(128);
    let lens = DatasetSpec::mnli().sample_lengths(32, 3);
    let run = |fw| run_inference(&cfg, &lens, DeviceSpec::a100_80gb(), DType::F16, fw, 1, 3);
    let pit = run(Framework::Pit);
    for fw in [
        Framework::PyTorch,
        Framework::PyTorchS,
        Framework::Tutel,
        Framework::DeepSpeed,
        Framework::MegaBlocks,
    ] {
        let other = run(fw);
        assert!(
            other.latency_ms > pit.latency_ms,
            "{} ({} ms) should be slower than PIT ({} ms)",
            other.framework,
            other.latency_ms,
            pit.latency_ms
        );
    }
}

#[test]
fn dense_inputs_cost_no_more_than_dense_plus_detection() {
    // §3.2's "seamless fallback": on dense data PIT must not be slower
    // than the dense library path it wraps.
    let pit = engine();
    let a = Tensor::random([512, 512], 12);
    let mask = Mask::ones(512, 512);
    let b = Tensor::random([512, 512], 13);
    let exec = pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
    let dense = pit.matmul_dense(&a, &b, DType::F32).unwrap();
    assert!(exec.selection.rule.is_none());
    assert!(exec.output.stats.latency_s <= dense.stats.latency_s * 1.001);
}

#[test]
fn empty_input_is_handled() {
    let pit = engine();
    let a = Tensor::zeros([64, 64]);
    let mask = Mask::zeros(64, 64);
    let b = Tensor::random([64, 32], 14);
    let exec = pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
    assert!(exec.output.tensor.allclose(&Tensor::zeros([64, 32]), 0.0));
}
