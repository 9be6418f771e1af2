//! MoE serving scenario (paper Figure 2b / Figure 8): one Switch-style MoE
//! FFN layer served under every execution strategy, on real tensors for
//! PIT (correctness checked) and on the analytic simulator for the
//! end-to-end model comparison.
//!
//! ```bash
//! cargo run --release --example moe_serving
//! ```

use pit::core::ops::Pit;
use pit::gpusim::DeviceSpec;
use pit::models::{run_inference, Framework, ModelConfig};
use pit::sparse::generate::RoutingPlan;
use pit::tensor::{ops, DType, Tensor};
use pit::workloads::DatasetSpec;

fn main() {
    // --- Part 1: a real sparse MoE GEMM through PIT's fused kernel. ---
    let engine = Pit::new(DeviceSpec::a100_80gb());
    let tokens = Tensor::random([256, 64], 1);
    let num_experts = 8;
    let weights: Vec<Tensor> = (0..num_experts)
        .map(|e| Tensor::random([64, 128], 100 + e as u64))
        .collect();
    let plan = RoutingPlan::sample(256, num_experts, 0.8, 7);
    let lists = plan.expert_token_lists();
    let out = engine
        .moe_gemm(&tokens, &weights, &lists, DType::F32)
        .expect("moe gemm");
    // Every token must equal its expert's reference product exactly.
    for (e, list) in lists.iter().enumerate() {
        for &t in list {
            let tok = Tensor::from_vec(tokens.row(t).unwrap(), [1, 64]).unwrap();
            let want = ops::matmul(&tok, &weights[e]).unwrap();
            let got = Tensor::from_vec(out.tensor.row(t).unwrap(), [1, 128]).unwrap();
            assert_eq!(got.data(), want.data(), "token {t}");
        }
    }
    println!(
        "fused MoE GEMM over {} experts: one launch, {:.1} us modelled, verified ✓",
        num_experts,
        out.stats.latency_s * 1e6
    );
    println!("expert loads (tokens): {:?}\n", plan.expert_counts());

    // --- Part 2: end-to-end Switch Transformer under each framework. ---
    println!("Switch Transformer, 128 experts, batch 32, fp16, A100:");
    println!("{:<22} {:>12} {:>10}", "framework", "latency ms", "mem GiB");
    let cfg = ModelConfig::switch_transformer(128);
    let lens = DatasetSpec::mnli().sample_lengths(32, 3);
    for fw in [
        Framework::PyTorch,
        Framework::PyTorchS,
        Framework::Tutel,
        Framework::DeepSpeed,
        Framework::MegaBlocks,
        Framework::PitNoSparseMoe,
        Framework::Pit,
    ] {
        let r = run_inference(&cfg, &lens, DeviceSpec::a100_80gb(), DType::F16, fw, 1, 3);
        let mem = if r.oom {
            "OOM".to_string()
        } else {
            format!("{:.1}", r.peak_gib)
        };
        println!("{:<22} {:>12.1} {:>10}", r.framework, r.latency_ms, mem);
    }
}
