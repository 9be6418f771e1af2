//! Dynamic sparse training (paper Figure 2d / Figure 15): magnitude
//! iterative pruning where the weight mask moves every step, executed with
//! PIT's micro-tile kernels on real tensors and compared against the
//! training-step simulator.
//!
//! ```bash
//! cargo run --release --example sparse_training
//! ```

use pit::core::ops::Pit;
use pit::gpusim::DeviceSpec;
use pit::models::training::run_pruning_step;
use pit::models::Framework;
use pit::sparse::generate;
use pit::tensor::{ops, DType, Tensor};
use pit::workloads::DatasetSpec;

fn main() {
    // --- Part 1: one real masked weight GEMM per pruning step. ---
    let engine = Pit::new(DeviceSpec::v100_32gb());
    let x = Tensor::random([256, 512], 1);
    let mut w = Tensor::random([512, 256], 2);
    println!("step  sparsity%  kernel      modelled ms");
    for step in 0..5 {
        // The schedule prunes more each step; the mask *moves* every step
        // (different magnitudes after simulated updates).
        let sparsity = 0.5 + 0.1 * step as f64;
        let mask = generate::magnitude_prune(&w, 32, 1, sparsity);
        let masked_t = mask.apply(&w).transpose2d().unwrap();
        let mask_t = pit::sparse::Mask::from_tensor(&masked_t);
        let exec = engine
            .matmul_masked(&masked_t, &mask_t, &x.transpose2d().unwrap(), DType::F32)
            .expect("masked gemm");
        let reference = ops::matmul(&masked_t, &x.transpose2d().unwrap()).unwrap();
        assert_eq!(exec.output.tensor.data(), reference.data(), "step {step}");
        let kernel = match exec.selection.rule {
            Some(r) => format!("{}-axis", r.axis.name()),
            None => "dense".to_string(),
        };
        println!(
            "{step:>4}  {:>9.0}  {kernel:<10}  {:>11.3}",
            sparsity * 100.0,
            exec.output.stats.latency_s * 1e3,
        );
        // Simulated weight update perturbs magnitudes -> next mask differs.
        for v in w.data_mut().iter_mut() {
            *v *= 0.99;
        }
    }
    println!("every step equals the dense reference product exactly ✓");

    // --- Part 2: full training-step comparison (Figure 15's subject). ---
    println!("\nBERT iterative pruning, 32x1 granularity, batch 32 (V100):");
    println!(
        "{:<12} {:>9}  {:>12} {:>12}",
        "sparsity%", "framework", "latency ms", "convert ms"
    );
    let lens = DatasetSpec::mnli().sample_lengths(32, 5);
    for sp in [0.5, 0.9, 0.98] {
        for fw in [Framework::PyTorch, Framework::PyTorchS, Framework::Pit] {
            let r = run_pruning_step((32, 1), sp, &lens, DeviceSpec::v100_32gb(), fw);
            println!(
                "{:<12} {:>9}  {:>12.1} {:>12.2}",
                sp * 100.0,
                r.framework,
                r.latency_ms,
                r.convert_ms
            );
        }
    }
}
