//! Dynamic sparse attention (paper Figure 2a / Figure 12): a
//! Longformer-style attention block computed with PIT's output-sparse SDD
//! kernel, with dynamically-chosen global tokens.
//!
//! ```bash
//! cargo run --release --example sparse_attention
//! ```

use pit::core::ops::Pit;
use pit::gpusim::DeviceSpec;
use pit::sparse::generate;
use pit::tensor::{ops, DType, Tensor};

fn main() {
    let engine = Pit::new(DeviceSpec::v100_32gb());
    let seq = 512;
    let dh = 64;

    // Queries/keys for one head; the *dynamic* part: global token
    // positions depend on the input (here: three "interesting" tokens).
    let q = Tensor::random([seq, dh], 1);
    let k_t = Tensor::random([dh, seq], 2);
    let globals = [0usize, 117, 401];
    let mask = generate::longformer_mask(seq, 64, &globals);
    println!(
        "attention pattern: {}x{}, window 64, {} global tokens, {:.1}% dense",
        seq,
        seq,
        globals.len(),
        mask.density() * 100.0
    );

    // Scores: only covered micro-tiles are computed (SDD), and they equal
    // the masked reference product exactly.
    let scores = engine.sdd(&q, &k_t, &mask, DType::F32).expect("sdd");
    let reference = mask.apply(&ops::matmul(&q, &k_t).expect("ref"));
    assert_eq!(scores.output.tensor.data(), reference.data());

    println!(
        "PIT SDD: {:.3} ms modelled vs {:.3} ms dense ({}x saved), verified ✓",
        scores.output.stats.latency_s * 1e3,
        scores.selection.dense_cost_s * 1e3,
        (scores.selection.dense_cost_s / scores.output.stats.latency_s).round()
    );

    // Probabilities via row softmax over covered entries, then the
    // context product S x V runs through the masked-input path (DSD).
    let probs = ops::softmax_rows(&scores.output.tensor).expect("softmax");
    let probs = mask.apply(&probs);
    let v = Tensor::random([seq, dh], 3);
    let ctx = engine
        .matmul_masked(&probs, &mask, &v, DType::F32)
        .expect("dsd");
    let ctx_ref = ops::matmul(&probs, &v).expect("ref");
    assert_eq!(ctx.output.tensor.data(), ctx_ref.data());
    println!(
        "PIT DSD: {:.3} ms modelled, context verified ✓",
        ctx.output.stats.latency_s * 1e3
    );

    // ASCII sketch of the attention pattern (16x16 down-sample).
    println!("\npattern (■ = any nonzero in 32x32 block):");
    for br in 0..seq / 32 {
        let row: String = (0..seq / 32)
            .map(|bc| {
                if mask.block_any(br * 32, bc * 32, 32, 32) {
                    '■'
                } else {
                    '·'
                }
            })
            .collect();
        println!("  {row}");
    }
}
