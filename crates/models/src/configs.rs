//! Model configurations for the six evaluated models (Table 2).

/// Attention structure of a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttnKind {
    /// Full dense attention over the (padded) sequence.
    Dense,
    /// Longformer: sliding window plus dynamically-chosen global tokens.
    Longformer {
        /// One-sided window width in tokens.
        window: usize,
        /// Fraction of tokens that are global (dynamic per input).
        global_frac: f64,
    },
    /// Museformer: fine attention within bars + coarse attention to bar
    /// summary tokens.
    Museformer {
        /// Tokens per bar.
        bar_len: usize,
    },
}

/// Mixture-of-Experts configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoeConfig {
    /// Number of experts per MoE layer.
    pub num_experts: usize,
    /// An MoE FFN replaces the dense FFN every `every` layers.
    pub every: usize,
    /// Router imbalance (Zipf skew of the token distribution; measured
    /// Switch routers are noticeably imbalanced).
    pub skew: f64,
}

/// One transformer model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Display name.
    pub name: String,
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN inner width.
    pub ffn: usize,
    /// Total transformer layers (encoder+decoder counted together).
    pub layers: usize,
    /// Vocabulary size (embedding + LM head weights).
    pub vocab: usize,
    /// Attention structure.
    pub attention: AttnKind,
    /// MoE structure, if any.
    pub moe: Option<MoeConfig>,
    /// ReLU activations in the FFN (OPT) — enables the activation-sparsity
    /// optimisation; GELU models get no such sparsity.
    pub relu_ffn: bool,
}

impl ModelConfig {
    /// Parameter count (embeddings + per-layer attention/FFN/MoE weights).
    pub fn num_params(&self) -> usize {
        let embed = self.vocab * self.hidden;
        let attn = 4 * self.hidden * self.hidden;
        let dense_ffn = 2 * self.hidden * self.ffn;
        let mut total = embed;
        for layer in 0..self.layers {
            total += attn;
            match self.moe {
                Some(moe) if layer % moe.every == moe.every - 1 => {
                    total += moe.num_experts * dense_ffn + self.hidden * moe.num_experts;
                }
                _ => total += dense_ffn,
            }
        }
        total
    }

    /// Switch Transformer (Switch-Base encoder–decoder, §5.1 Figure 8)
    /// with the given expert count.
    pub fn switch_transformer(num_experts: usize) -> Self {
        ModelConfig {
            name: format!("Switch-{num_experts}"),
            hidden: 768,
            heads: 12,
            ffn: 3072,
            layers: 24, // 12 encoder + 12 decoder.
            vocab: 32_128,
            attention: AttnKind::Dense,
            moe: Some(MoeConfig {
                num_experts,
                every: 2,
                skew: 0.8,
            }),
            relu_ffn: true,
        }
    }

    /// Swin-MoE (vision MoE, Figure 9) with the given expert count.
    /// The hierarchical stages are flattened to a uniform-width encoder
    /// with the same aggregate FLOPs (documented simplification).
    pub fn swin_moe(num_experts: usize) -> Self {
        ModelConfig {
            name: format!("SwinMoE-{num_experts}"),
            hidden: 768,
            heads: 24,
            ffn: 3072,
            layers: 24,
            vocab: 1_000,
            attention: AttnKind::Dense,
            moe: Some(MoeConfig {
                num_experts,
                every: 2,
                skew: 0.5, // Vision routing is milder than language.
            }),
            relu_ffn: false,
        }
    }

    /// OPT decoder models (Figures 10 and 14).
    pub fn opt(params: &str) -> Self {
        let (hidden, layers, heads) = match params {
            "125M" => (768, 12, 12),
            "350M" => (1024, 24, 16),
            "1.3B" => (2048, 24, 32),
            "13B" => (5120, 40, 40),
            "30B" => (7168, 48, 56),
            other => panic!("unknown OPT size {other}"),
        };
        ModelConfig {
            name: format!("OPT-{params}"),
            hidden,
            heads,
            ffn: 4 * hidden,
            layers,
            vocab: 50_272,
            attention: AttnKind::Dense,
            moe: None,
            relu_ffn: true,
        }
    }

    /// BERT-base (Figures 11, 15, 19).
    pub fn bert_base() -> Self {
        ModelConfig {
            name: "BERT-base".to_string(),
            hidden: 768,
            heads: 12,
            ffn: 3072,
            layers: 12,
            vocab: 30_522,
            attention: AttnKind::Dense,
            moe: None,
            relu_ffn: false,
        }
    }

    /// Longformer (Figure 12): `"base"` or `"large"`.
    pub fn longformer(size: &str) -> Self {
        let (hidden, layers, heads) = match size {
            "base" => (768, 12, 12),
            "large" => (1024, 24, 16),
            other => panic!("unknown Longformer size {other}"),
        };
        ModelConfig {
            name: format!("Longformer-{size}"),
            hidden,
            heads,
            ffn: 4 * hidden,
            layers,
            vocab: 50_265,
            attention: AttnKind::Longformer {
                window: 512,
                global_frac: 0.01,
            },
            moe: None,
            relu_ffn: false,
        }
    }

    /// Museformer (Figure 13): music transformer with bar-structured
    /// fine/coarse attention.
    pub fn museformer() -> Self {
        ModelConfig {
            name: "Museformer".to_string(),
            hidden: 512,
            heads: 8,
            ffn: 2048,
            layers: 12,
            vocab: 1_253,
            attention: AttnKind::Museformer { bar_len: 128 },
            moe: None,
            relu_ffn: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_param_counts_are_in_the_right_ballpark() {
        // Published sizes: 125M / 350M / 1.3B / 13B / 30B. The simplified
        // architecture should land within ~25% of each.
        for (tag, want) in [
            ("125M", 125.0e6),
            ("350M", 350.0e6),
            ("1.3B", 1.3e9),
            ("13B", 13.0e9),
            ("30B", 30.0e9),
        ] {
            let got = ModelConfig::opt(tag).num_params() as f64;
            let ratio = got / want;
            assert!(
                (0.7..=1.3).contains(&ratio),
                "OPT-{tag}: {got:.2e} vs {want:.2e} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn switch_has_twelve_moe_layers() {
        let cfg = ModelConfig::switch_transformer(64);
        let moe = cfg.moe.expect("Switch has MoE layers");
        let dense = ModelConfig {
            moe: None,
            ..cfg.clone()
        };
        let per_moe_layer =
            (moe.num_experts - 1) * 2 * cfg.hidden * cfg.ffn + cfg.hidden * moe.num_experts;
        assert_eq!(cfg.num_params() - dense.num_params(), 12 * per_moe_layer);
        // 64 experts × 12 layers × 4.7M params each ≈ 3.6B + backbone.
        assert!(cfg.num_params() > 3_000_000_000);
    }

    #[test]
    fn expert_count_scales_parameters_linearly() {
        let p64 = ModelConfig::switch_transformer(64).num_params();
        let p256 = ModelConfig::switch_transformer(256).num_params();
        assert!(p256 > 3 * p64);
    }

    #[test]
    #[should_panic(expected = "unknown OPT size")]
    fn unknown_opt_size_panics() {
        ModelConfig::opt("7B");
    }

    #[test]
    fn bert_base_is_about_110m() {
        let p = ModelConfig::bert_base().num_params() as f64;
        assert!((0.7..1.3).contains(&(p / 110.0e6)), "{p:.2e}");
    }
}
