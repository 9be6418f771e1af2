//! Mixture-of-Experts layer under each framework's execution strategy
//! (Figure 8/9's subject).

use crate::configs::MoeConfig;
use crate::engine::{Engine, Framework, PYTORCH_PER_EXPERT_HOST_S};
use pit_core::kernels::moe_gemm_cost;
use pit_gpusim::cost::TileDims;
use pit_gpusim::KernelStats;
use pit_sparse::generate::RoutingPlan;

/// Host-side cost of one per-expert sparse-library call in PyTorch-S
/// (index construction: two host synchronisations, a compaction kernel and
/// a small sort — sync-bound at MoE expert sizes).
const PYTORCH_S_PER_EXPERT_CONVERT_S: f64 = 80.0e-6;

/// MegaBlocks' block-sparse block size: each expert's token rows pad to
/// whole 128-row blocks (the block shape its grouped kernels use).
const MEGABLOCKS_BLOCK: usize = 128;

/// Runs one MoE FFN layer over `tokens` routed tokens.
///
/// `tokens` must already reflect the framework's padding behaviour (padded
/// token count for padding frameworks, real token count for PIT variants).
pub fn moe_ffn(
    eng: &mut Engine,
    prefix: &str,
    tokens: usize,
    hidden: usize,
    ffn: usize,
    moe: &MoeConfig,
    seed: u64,
) {
    let plan = RoutingPlan::sample(tokens, moe.num_experts, moe.skew, seed);
    let counts = plan.expert_counts();
    let elem = eng.elem();

    // Router: logits GEMM + softmax + top-1 (all frameworks).
    eng.gemm(&format!("{prefix}.router"), tokens, hidden, moe.num_experts);
    eng.softmax(&format!("{prefix}.router.softmax"), tokens, moe.num_experts);

    match eng.framework {
        Framework::PyTorch | Framework::PitNoSparseMoe => {
            // Sequential expert loop: Python + index_select + two GEMMs
            // per expert; launch-bound at MoE expert sizes.
            eng.host_overhead(
                &format!("{prefix}.loop_host"),
                moe.num_experts as f64 * PYTORCH_PER_EXPERT_HOST_S,
            );
            for (e, &cnt) in counts.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                eng.gemm(&format!("{prefix}.e{e}.fc1"), cnt, hidden, ffn);
                eng.elementwise(&format!("{prefix}.e{e}.act"), cnt * ffn, 1);
                eng.gemm(&format!("{prefix}.e{e}.fc2"), cnt, ffn, hidden);
            }
        }
        Framework::PyTorchS => {
            // Same loop, but each expert's masked matmul goes through a
            // sparse library that must build its index per call ("PyTorch-S
            // Convert"); computation is mildly faster than the tiny dense
            // GEMMs, conversions neutralise the gain (§5.1).
            eng.host_overhead(
                &format!("{prefix}.loop_host"),
                moe.num_experts as f64 * PYTORCH_PER_EXPERT_HOST_S,
            );
            eng.host_overhead(
                &format!("{prefix}.convert"),
                moe.num_experts as f64 * PYTORCH_S_PER_EXPERT_CONVERT_S,
            );
            for (e, &cnt) in counts.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                eng.gemm(&format!("{prefix}.e{e}.fc1"), cnt, hidden, ffn);
                eng.elementwise(&format!("{prefix}.e{e}.act"), cnt * ffn, 1);
                eng.gemm(&format!("{prefix}.e{e}.fc2"), cnt, ffn, hidden);
            }
        }
        Framework::Tutel => {
            // GShard-lineage einsum execution without token dropping: every
            // expert is padded to the capacity of the *hottest* expert, and
            // dispatch/combine are one-hot einsum GEMMs over [T, E*C]. The
            // excessive padding is what Figure 8 blames for Tutel's latency
            // and OOM behaviour.
            let cap = plan.capacity(1.0, false);
            let padded = moe.num_experts * cap;
            eng.gemm(&format!("{prefix}.dispatch_einsum"), padded, tokens, hidden);
            eng.gemm(&format!("{prefix}.experts.fc1"), padded, hidden, ffn);
            eng.elementwise(&format!("{prefix}.experts.act"), padded * ffn, 1);
            eng.gemm(&format!("{prefix}.experts.fc2"), padded, ffn, hidden);
            eng.gemm(&format!("{prefix}.combine_einsum"), tokens, padded, hidden);
            // Caching-allocator-retained workspaces: one-hot dispatch mask
            // plus dispatched/intermediate buffers; layer shapes differ, so
            // the allocator cannot reuse blocks across layers.
            eng.alloc_retained(tokens * padded * elem); // dispatch one-hot
            eng.alloc_retained(tokens * padded * elem); // combine weights
            eng.alloc_retained(tokens * padded); // dispatch mask (bool)
            eng.alloc_retained(padded * hidden * elem);
            eng.alloc_retained(padded * ffn * elem);
        }
        Framework::DeepSpeed => {
            // DeepSpeed-MoE inference: fused scatter dispatch (no einsum),
            // but still GShard-style capacity padding without token
            // dropping — every expert pads to the hottest expert's load,
            // the "excessive padding" Figure 8 attributes to it.
            let cap = plan.capacity(1.0, false);
            let padded = moe.num_experts * cap;
            eng.elementwise(&format!("{prefix}.dispatch_scatter"), padded * hidden, 1);
            eng.gemm(&format!("{prefix}.experts.fc1"), padded, hidden, ffn);
            eng.elementwise(&format!("{prefix}.experts.act"), padded * ffn, 1);
            eng.gemm(&format!("{prefix}.experts.fc2"), padded, ffn, hidden);
            eng.elementwise(&format!("{prefix}.combine_gather"), tokens * hidden, 2);
            eng.alloc_retained(padded * hidden * elem);
            eng.alloc_retained(padded * ffn * elem);
        }
        Framework::MegaBlocks => {
            // Block-sparse grouped GEMM: pad each expert to whole blocks,
            // regroup tokens in memory first (the data-reorganisation cost
            // PIT's SRead avoids, §5.1).
            let padded: usize = counts
                .iter()
                .map(|&c| c.div_ceil(MEGABLOCKS_BLOCK) * MEGABLOCKS_BLOCK)
                .sum();
            eng.elementwise(&format!("{prefix}.regroup"), tokens * hidden, 2);
            eng.host_overhead(&format!("{prefix}.block_index"), 50.0e-6);
            eng.gemm(&format!("{prefix}.experts.fc1"), padded, hidden, ffn);
            eng.elementwise(&format!("{prefix}.experts.act"), padded * ffn, 1);
            eng.gemm(&format!("{prefix}.experts.fc2"), padded, ffn, hidden);
            eng.elementwise(&format!("{prefix}.ungroup"), tokens * hidden, 2);
            eng.alloc_retained(padded * hidden * elem);
        }
        Framework::Pit | Framework::PitNoActivation => {
            // Fused sparse MoE: one launch, SRead gathers each expert's
            // tokens, SWrite scatters results — no dispatch passes, no
            // regrouping, padding only to the tile height.
            // Pick the merge tile by predicted cost over the actual expert
            // loads (Algorithm 1 applied to the fused MoE kernel): larger
            // tiles amortise weight streaming, smaller tiles waste less
            // padding per expert.
            let tile = [
                TileDims::new(8, 32, 128),
                TileDims::new(16, 32, 128),
                TileDims::new(32, 32, 64),
                TileDims::new(64, 32, 64),
                TileDims::new(128, 32, 128),
            ]
            .into_iter()
            .min_by(|&a, &b| {
                let la = moe_gemm_cost(eng.cost(), &counts, hidden, ffn, a, eng.dtype).latency_s;
                let lb = moe_gemm_cost(eng.cost(), &counts, hidden, ffn, b, eng.dtype).latency_s;
                la.partial_cmp(&lb).expect("finite")
            })
            .expect("non-empty candidate list");
            let index_cost =
                eng.cost().index_append(tokens) + eng.cost().scan_pass((tokens * 4) as f64);
            eng.record(
                format!("{prefix}.pit_index"),
                KernelStats {
                    latency_s: index_cost,
                    bytes_read: (tokens * 4) as f64,
                    ..Default::default()
                },
            );
            let fc1 = moe_gemm_cost(eng.cost(), &counts, hidden, ffn, tile, eng.dtype);
            eng.record(format!("{prefix}.experts.fc1"), fc1);
            eng.elementwise(&format!("{prefix}.experts.act"), tokens * ffn, 1);
            let fc2 = moe_gemm_cost(eng.cost(), &counts, ffn, hidden, tile, eng.dtype);
            eng.record(format!("{prefix}.experts.fc2"), fc2);
        }
        other => unreachable!("framework {:?} does not run MoE models", other),
    }

    // Transient activation peak common to all strategies: expert
    // intermediate activations.
    let widest = match eng.framework {
        Framework::Tutel => moe.num_experts * plan.capacity(1.0, false) * ffn,
        Framework::DeepSpeed => moe.num_experts * plan.capacity(1.0, false) * ffn,
        _ => tokens * ffn,
    };
    eng.transient_peak(widest * elem);
}

/// Per-layer MoE expert weights in bytes (all frameworks store the same
/// dense expert weights).
pub fn moe_weight_bytes(hidden: usize, ffn: usize, moe: &MoeConfig, elem: usize) -> usize {
    moe.num_experts * 2 * hidden * ffn * elem
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;
    use pit_tensor::DType;

    fn run(fw: Framework, experts: usize, tokens: usize) -> (f64, usize) {
        let mut eng = Engine::new(DeviceSpec::a100_80gb(), DType::F32, fw);
        let moe = MoeConfig {
            num_experts: experts,
            every: 2,
            skew: 0.8,
        };
        moe_ffn(&mut eng, "moe", tokens, 768, 3072, &moe, 42);
        (eng.latency_ms(), eng.ctx().memory().peak_bytes())
    }

    #[test]
    fn pit_is_fastest_nondropping_strategy() {
        // DeepSpeed's fused dispatch is compared separately (its standing
        // relative to PyTorch and PIT is covered by
        // `deepspeed_beats_pytorch_at_scale` and the inference tests).
        let tokens = 4096;
        let (pit, _) = run(Framework::Pit, 64, tokens);
        for fw in [
            Framework::PyTorch,
            Framework::PyTorchS,
            Framework::Tutel,
            Framework::MegaBlocks,
        ] {
            let (lat, _) = run(fw, 64, tokens);
            assert!(lat > pit, "{} ({lat}) should exceed PIT ({pit})", fw.name());
        }
    }

    #[test]
    fn tutel_is_slowest_at_many_experts() {
        // Figure 8: Tutel degrades worst as expert count grows (einsum
        // dispatch over E*C).
        let (tutel, _) = run(Framework::Tutel, 256, 4096);
        let (pytorch, _) = run(Framework::PyTorch, 256, 4096);
        let (deepspeed, _) = run(Framework::DeepSpeed, 256, 4096);
        assert!(tutel > deepspeed);
        assert!(tutel > pytorch);
    }

    #[test]
    fn pytorch_latency_grows_linearly_with_experts() {
        let (e64, _) = run(Framework::PyTorch, 64, 4096);
        let (e256, _) = run(Framework::PyTorch, 256, 4096);
        assert!(e256 > 2.0 * e64, "sequential loop must scale with E");
    }

    #[test]
    fn megablocks_close_to_pit() {
        // Figure 8 fp16: MegaBlocks is the closest baseline to PIT (within
        // 1.4–1.7x there; we accept a wider band on the synthetic device).
        let tokens = 4096;
        let (pit, _) = run(Framework::Pit, 128, tokens);
        let (mb, _) = run(Framework::MegaBlocks, 128, tokens);
        let (pt, _) = run(Framework::PyTorch, 128, tokens);
        assert!(mb < pt);
        assert!(mb / pit < 4.0, "MegaBlocks {mb} vs PIT {pit}");
    }

    #[test]
    fn padded_strategies_retain_more_memory() {
        let (_, pit_mem) = run(Framework::Pit, 128, 4096);
        let (_, tutel_mem) = run(Framework::Tutel, 128, 4096);
        let (_, ds_mem) = run(Framework::DeepSpeed, 128, 4096);
        assert!(tutel_mem > ds_mem);
        assert!(ds_mem > pit_mem);
    }

    #[test]
    fn deepspeed_beats_pytorch_at_scale() {
        let (ds, _) = run(Framework::DeepSpeed, 128, 4096);
        let (pt, _) = run(Framework::PyTorch, 128, 4096);
        assert!(ds < pt);
    }
}
