//! The analytic execution engine: frameworks, operator recording, memory.

use pit_gpusim::{CostModel, DeviceSpec, KernelStats, SimContext};
use pit_kernels::baselines::cublas;
use pit_kernels::dense;
use pit_kernels::tiles::TileDb;
use pit_tensor::DType;

/// Execution strategy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// Stock PyTorch: padded batches, sequential expert loop.
    PyTorch,
    /// PyTorch with the best sparse backend, converting formats per batch.
    PyTorchS,
    /// Tutel MoE: einsum one-hot dispatch, capacity = max expert load.
    Tutel,
    /// DeepSpeed inference: fused kernels, scatter dispatch, padded experts.
    DeepSpeed,
    /// MegaBlocks: block-sparse grouped expert GEMM (fp16 only).
    MegaBlocks,
    /// TurboTransformers: length-bucketed re-batching (BERT only).
    TurboTransformer,
    /// Longformer-S: pattern-specialised sparse attention (Longformer only).
    LongformerS,
    /// TVM/Ansor: ahead-of-time tuned dense kernels.
    Tvm,
    /// PIT, all optimisations on.
    Pit,
    /// PIT without the sparse-MoE optimisation (Figure 8 ablation).
    PitNoSparseMoe,
    /// PIT without the ReLU activation-sparsity optimisation (Figure 10
    /// ablation).
    PitNoActivation,
}

impl Framework {
    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            Framework::PyTorch => "PyTorch",
            Framework::PyTorchS => "PyTorch-S",
            Framework::Tutel => "Tutel",
            Framework::DeepSpeed => "DeepSpeed",
            Framework::MegaBlocks => "MegaBlocks",
            Framework::TurboTransformer => "TurboTransformer",
            Framework::LongformerS => "Longformer-S",
            Framework::Tvm => "TVM",
            Framework::Pit => "PIT",
            Framework::PitNoSparseMoe => "PIT w/o Sparse MoE",
            Framework::PitNoActivation => "PIT w/o activation",
        }
    }

    /// Whether the framework is a PIT variant (padding-free token GEMMs).
    pub fn is_pit(self) -> bool {
        matches!(
            self,
            Framework::Pit | Framework::PitNoSparseMoe | Framework::PitNoActivation
        )
    }

    /// Whether elementwise chains are fused into single kernels (reduces
    /// both memory passes and activation footprint).
    pub fn fused_elementwise(self) -> bool {
        matches!(
            self,
            Framework::DeepSpeed | Framework::TurboTransformer | Framework::Tvm
        )
    }
}

/// Device-time ledger category of one charge.
///
/// The taxonomy matches `pit_trace::DeviceLedger`: attention streaming
/// (scores / softmax / context), sparse-format conversion (PIT index
/// construction), JIT kernel search, and the dense-GEMM residual that
/// absorbs everything else (embeddings, projections, FFN, layernorms,
/// KV appends, launch overheads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostCategory {
    /// Attention score/softmax/context work.
    Attention,
    /// Sparse-format conversion: PIT index building.
    SparseConversion,
    /// Algorithm-1 kernel search.
    JitSearch,
    /// Everything else — dense GEMMs and elementwise/normalisation work.
    DenseGemm,
}

/// What a serving-path charge is: one of a transformer layer's kernels,
/// a step's embedding or LM head, or a per-step selection charge. Its
/// ledger category is a `match`, so nothing is labelled or parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Token-embedding lookup.
    Embed,
    /// Fused Q/K/V projection.
    Qkv,
    /// Attention scores.
    Scores,
    /// Attention softmax.
    Softmax,
    /// Attention context (probabilities × V).
    Context,
    /// Attention output projection.
    Out,
    /// Post-attention LayerNorm.
    AttnLn,
    /// FFN up-projection.
    Fc1,
    /// FFN activation.
    Act,
    /// FFN down-projection.
    Fc2,
    /// Post-FFN LayerNorm.
    FfnLn,
    /// Residual add.
    Residual,
    /// The step's new K/V rows appended to the cache.
    KvAppend,
    /// LM head.
    Head,
    /// Algorithm-1 kernel search on a JIT-cache miss.
    JitSearch,
    /// PIT micro-tile index build.
    PitIndex,
}

impl OpKind {
    /// The ledger category this op's time lands in.
    pub fn category(self) -> CostCategory {
        match self {
            OpKind::Scores | OpKind::Softmax | OpKind::Context => CostCategory::Attention,
            OpKind::PitIndex => CostCategory::SparseConversion,
            OpKind::JitSearch => CostCategory::JitSearch,
            OpKind::Embed
            | OpKind::Qkv
            | OpKind::Out
            | OpKind::AttnLn
            | OpKind::Fc1
            | OpKind::Act
            | OpKind::Fc2
            | OpKind::FfnLn
            | OpKind::Residual
            | OpKind::KvAppend
            | OpKind::Head => CostCategory::DenseGemm,
        }
    }

    /// Whether the op is GEMM-class work, which also accrues to
    /// [`Engine::gemm_time_s`].
    pub fn is_gemm(self) -> bool {
        matches!(
            self,
            OpKind::Qkv
                | OpKind::Scores
                | OpKind::Context
                | OpKind::Out
                | OpKind::Fc1
                | OpKind::Fc2
                | OpKind::Head
        )
    }
}

/// Category totals over an engine's charges, the raw material of the
/// device-time ledger. Attention is one bucket here; the serving
/// layer splits it into prefill vs decode using the step shape (the
/// engine charges one fused attention kernel per layer and cannot know
/// which rows were prefill).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostTally {
    /// Seconds in attention charges.
    pub attention_s: f64,
    /// Seconds in sparse-format conversion charges.
    pub sparse_conversion_s: f64,
    /// Seconds in JIT-search charges.
    pub jit_search_s: f64,
    /// Seconds in everything else.
    pub dense_s: f64,
    /// FLOPs that served real work, summed over all charges.
    pub flops_useful: f64,
    /// FLOPs the modelled kernels executed.
    pub flops_executed: f64,
}

/// An engine's ledger as [`Engine::take_ledger`] hands it over: every
/// charge since the engine was built or the ledger was last taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeTotals {
    /// Seconds of every charge, summed in charge order (−0.0 when there
    /// were none, like `f64: Sum` over nothing).
    pub total_s: f64,
    /// Category totals of the charges.
    pub tally: CostTally,
    /// Seconds of the GEMM-class charges.
    pub gemm_time_s: f64,
}

impl ChargeTotals {
    /// Total modelled latency (ms), as [`Engine::latency_ms`] reports it.
    pub fn latency_ms(&self) -> f64 {
        self.total_s * 1e3
    }
}

/// Host-side time PyTorch spends per expert in the sequential MoE loop
/// (Python iteration, `index_select`, activation and two GEMM launches —
/// roughly seven launches plus eager-mode Python dispatch per expert; order
/// of magnitude from profiling reports of naive MoE loops).
pub const PYTORCH_PER_EXPERT_HOST_S: f64 = 0.25e-3;

/// The analytic execution engine for one run.
///
/// Every charge folds, in order, into a running ledger: total seconds,
/// the [`CostTally`] and, for GEMM-class work, `gemm_time_s`. Serving
/// pricers charge typed [`OpKind`]s ([`Engine::charge`]); figure paths
/// charge through the labelled recorders ([`Engine::gemm`] and friends),
/// which also append to the context's record list so the figures can
/// split out e.g. conversion time by label substring.
///
/// A serving replay prices all of its steps on one engine, because
/// building one profiles the tile database and searches a 2048³
/// reference tile. [`Engine::take_ledger`] closes a step, leaving the
/// ledger as a fresh engine's, so every step's charges equal a fresh
/// engine's bit for bit.
#[derive(Debug)]
pub struct Engine {
    /// Simulation context: the labelled record list and the memory
    /// tracker. Private so that every charge passes through the ledger.
    ctx: SimContext,
    /// Profiled tile database for the device.
    pub db: TileDb,
    /// Precision under evaluation. Fixed at construction, like `db`: the
    /// reference throughput [`Engine::price_gemm_flops`] uses derives
    /// from both.
    pub dtype: DType,
    /// Execution strategy under evaluation.
    pub framework: Framework,
    /// Number of identical devices (tensor-parallel degree); latencies of
    /// GEMM-class work divide across devices, memory divides too, and each
    /// layer pays one all-reduce.
    pub devices: usize,
    /// Accumulated latency of GEMM-class charges (used by the training
    /// simulation: backward ≈ 2× the forward GEMM time).
    pub gemm_time_s: f64,
    /// Seconds of every charge so far, summed in charge order.
    total_s: f64,
    /// Category totals of every charge so far, summed in charge order.
    tally: CostTally,
    /// Sustained throughput (FLOP/s) of the best tile on a 2048³ dense
    /// GEMM: the rate raw-FLOP GEMM work is priced at.
    reference_flops_per_s: f64,
}

/// NVLink all-reduce bus bandwidth per device pair (bytes/s), for the
/// multi-GPU OPT runs.
const NVLINK_BW: f64 = 150.0e9;

/// A host-side charge: latency only, no device work.
fn host_stats(seconds: f64) -> KernelStats {
    KernelStats {
        latency_s: seconds,
        ..Default::default()
    }
}

impl Engine {
    /// Creates an engine on one device.
    pub fn new(device: DeviceSpec, dtype: DType, framework: Framework) -> Self {
        let ctx = SimContext::new(device);
        let db = TileDb::profile(ctx.cost());
        let reference = cublas::gemm_cost_only(ctx.cost(), &db, 2048, 2048, 2048, dtype);
        Engine {
            ctx,
            db,
            dtype,
            framework,
            devices: 1,
            gemm_time_s: 0.0,
            // `f64: Sum` starts from −0.0, so an engine with no charges
            // reports the −0.0 a summed record list always did.
            total_s: -0.0,
            tally: CostTally::default(),
            reference_flops_per_s: reference.flops_executed / reference.latency_s,
        }
    }

    /// Sets the tensor-parallel degree.
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        self.ctx.cost()
    }

    /// The simulation context: labelled records and memory tracker.
    pub fn ctx(&self) -> &SimContext {
        &self.ctx
    }

    /// Element size in bytes for the current dtype.
    pub fn elem(&self) -> usize {
        self.dtype.size_bytes()
    }

    /// Prices a dense GEMM `[m,k]×[k,n]` through the library's best tile,
    /// split across the tensor-parallel devices. `None` for an empty GEMM.
    pub fn price_gemm(&self, m: usize, k: usize, n: usize) -> Option<KernelStats> {
        if m == 0 || k == 0 || n == 0 {
            return None;
        }
        let mut stats = cublas::gemm_cost_only(
            self.cost(),
            &self.db,
            m,
            k.div_ceil(self.devices),
            n,
            self.dtype,
        );
        stats.latency_s = stats.latency_s.max(self.cost().device().kernel_launch_s);
        Some(stats)
    }

    /// Prices GEMM-class work given raw FLOPs and touched bytes (attention
    /// score/context products whose shapes are per-sequence). Latency is
    /// `flops / sustained-GEMM-throughput`, bounded below by the memory
    /// time of the touched bytes. `None` when there are no FLOPs.
    pub fn price_gemm_flops(&self, flops: f64, bytes: f64) -> Option<KernelStats> {
        if flops <= 0.0 {
            return None;
        }
        let d = self.devices as f64;
        let compute = flops / self.reference_flops_per_s / d;
        let memory = bytes / self.cost().device().bw_total() / d;
        Some(KernelStats {
            flops_useful: flops,
            flops_executed: flops,
            bytes_read: bytes,
            bytes_written: 0.0,
            tiles_executed: 0,
            latency_s: compute.max(memory) + self.cost().device().kernel_launch_s,
        })
    }

    /// Prices an elementwise kernel over `numel` elements with `n_inputs`
    /// read streams, honouring the framework's fusion behaviour. `None`
    /// for no elements.
    pub fn price_elementwise(&self, numel: usize, n_inputs: usize) -> Option<KernelStats> {
        if numel == 0 {
            return None;
        }
        let mut stats = dense::elementwise_cost(
            self.cost(),
            numel.div_ceil(self.devices),
            self.dtype,
            n_inputs,
        );
        if self.framework.fused_elementwise() {
            // Fusion halves the number of memory round-trips of an
            // elementwise chain.
            stats.latency_s = stats.latency_s * 0.5 + self.cost().device().kernel_launch_s * 0.5;
        }
        Some(stats)
    }

    /// Prices a softmax over `rows × cols`; `None` when empty.
    pub fn price_softmax(&self, rows: usize, cols: usize) -> Option<KernelStats> {
        if rows == 0 || cols == 0 {
            return None;
        }
        Some(dense::softmax_cost(
            self.cost(),
            rows.div_ceil(self.devices),
            cols,
            self.dtype,
        ))
    }

    /// Prices a LayerNorm over `rows × cols`; `None` when empty.
    pub fn price_layernorm(&self, rows: usize, cols: usize) -> Option<KernelStats> {
        if rows == 0 || cols == 0 {
            return None;
        }
        Some(dense::layernorm_cost(
            self.cost(),
            rows.div_ceil(self.devices),
            cols,
            self.dtype,
        ))
    }

    /// Charges a typed op priced by one of the `price_*` methods; an empty
    /// op (`None`) charges nothing.
    pub fn charge(&mut self, kind: OpKind, stats: Option<KernelStats>) {
        if let Some(stats) = stats {
            self.fold(kind.category(), kind.is_gemm(), &stats);
        }
    }

    /// Charges `seconds` of host-side work as `kind`.
    pub fn charge_host(&mut self, kind: OpKind, seconds: f64) {
        self.charge(kind, Some(host_stats(seconds)));
    }

    /// Charges one priced layer `layers` times over, op by op in order.
    /// Every ledger sum sees the same additions in the same order as
    /// pricing and charging each layer afresh, so the result is
    /// bit-identical at the cost of pricing the layer once.
    pub fn charge_layers(&mut self, layer: &[(OpKind, Option<KernelStats>)], layers: usize) {
        for _ in 0..layers {
            for &(kind, stats) in layer {
                self.charge(kind, stats);
            }
        }
    }

    /// Records a labelled charge. Figure paths query the record list by
    /// label substring ([`SimContext::latency_of_s`]); the ledger files
    /// labelled time under the dense residual, since only typed charges
    /// are split by category.
    pub fn record(&mut self, label: impl Into<String>, stats: KernelStats) {
        self.record_priced(label, Some(stats), false);
    }

    fn record_priced(&mut self, label: impl Into<String>, stats: Option<KernelStats>, gemm: bool) {
        if let Some(stats) = stats {
            self.fold(CostCategory::DenseGemm, gemm, &stats);
            self.ctx.record(label, stats);
        }
    }

    fn fold(&mut self, category: CostCategory, gemm: bool, stats: &KernelStats) {
        let s = stats.latency_s;
        self.total_s += s;
        match category {
            CostCategory::Attention => self.tally.attention_s += s,
            CostCategory::SparseConversion => self.tally.sparse_conversion_s += s,
            CostCategory::JitSearch => self.tally.jit_search_s += s,
            CostCategory::DenseGemm => self.tally.dense_s += s,
        }
        self.tally.flops_useful += stats.flops_useful;
        self.tally.flops_executed += stats.flops_executed;
        if gemm {
            self.gemm_time_s += s;
        }
    }

    /// Records a labelled dense GEMM ([`Engine::price_gemm`]).
    pub fn gemm(&mut self, label: &str, m: usize, k: usize, n: usize) {
        let stats = self.price_gemm(m, k, n);
        self.record_priced(label, stats, true);
    }

    /// Records labelled raw-FLOP GEMM work ([`Engine::price_gemm_flops`]).
    pub fn gemm_flops(&mut self, label: &str, flops: f64, bytes: f64) {
        let stats = self.price_gemm_flops(flops, bytes);
        self.record_priced(label, stats, true);
    }

    /// Records a GEMM whose reduction axis is cut to `k_frac` of `k` by
    /// sparsity coverage (PIT's k-axis merging), including the gather
    /// factor.
    pub fn gemm_k_covered(&mut self, label: &str, m: usize, k: usize, n: usize, k_frac: f64) {
        let k_eff = ((k as f64 * k_frac).ceil() as usize).max(1);
        let mut stats = cublas::gemm_cost_only(
            self.cost(),
            &self.db,
            m,
            k_eff.div_ceil(self.devices),
            n,
            self.dtype,
        );
        stats.latency_s *= self.cost().gather_factor();
        stats.flops_useful = 2.0 * (m * n) as f64 * (k as f64 * k_frac);
        self.record_priced(label, Some(stats), true);
    }

    /// Records a labelled elementwise kernel ([`Engine::price_elementwise`]).
    pub fn elementwise(&mut self, label: &str, numel: usize, n_inputs: usize) {
        let stats = self.price_elementwise(numel, n_inputs);
        self.record_priced(label, stats, false);
    }

    /// Records a labelled softmax over `rows × cols`.
    pub fn softmax(&mut self, label: &str, rows: usize, cols: usize) {
        let stats = self.price_softmax(rows, cols);
        self.record_priced(label, stats, false);
    }

    /// Records a labelled LayerNorm over `rows × cols`.
    pub fn layernorm(&mut self, label: &str, rows: usize, cols: usize) {
        let stats = self.price_layernorm(rows, cols);
        self.record_priced(label, stats, false);
    }

    /// Records a fixed host-side overhead (Python loops, driver work).
    pub fn host_overhead(&mut self, label: &str, seconds: f64) {
        self.record(label, host_stats(seconds));
    }

    /// Records the per-layer tensor-parallel all-reduce of `bytes`.
    pub fn allreduce(&mut self, label: &str, bytes: f64) {
        if self.devices <= 1 {
            return;
        }
        // Ring all-reduce: 2 * (d-1)/d * bytes over the link.
        let d = self.devices as f64;
        let latency = 2.0 * (d - 1.0) / d * bytes / NVLINK_BW + 10.0e-6;
        self.record(
            label,
            KernelStats {
                latency_s: latency,
                bytes_read: bytes,
                bytes_written: bytes,
                ..Default::default()
            },
        );
    }

    /// Allocates persistent (whole-run) memory such as weights; divided
    /// across tensor-parallel devices. Returns nothing — persistent
    /// allocations live until the run ends.
    pub fn alloc_persistent(&mut self, bytes: usize) {
        let per_device = bytes.div_ceil(self.devices);
        self.ctx.memory_mut().alloc(per_device);
    }

    /// Allocates a retained buffer (framework workspaces the caching
    /// allocator never returns, e.g. per-layer dispatch buffers).
    pub fn alloc_retained(&mut self, bytes: usize) {
        let per_device = bytes.div_ceil(self.devices);
        self.ctx.memory_mut().alloc(per_device);
    }

    /// Tracks a transient peak: allocates, immediately frees, so only the
    /// high-water mark is affected.
    pub fn transient_peak(&mut self, bytes: usize) {
        let per_device = bytes.div_ceil(self.devices);
        let id = self.ctx.memory_mut().alloc(per_device);
        self.ctx.memory_mut().free(id);
    }

    /// Total modelled latency so far (ms): every charge's seconds, summed
    /// in charge order.
    pub fn latency_ms(&self) -> f64 {
        self.total_s * 1e3
    }

    /// Ledger-category totals of every charge so far.
    pub fn cost_tally(&self) -> CostTally {
        self.tally
    }

    /// Hands over the ledger and resets it to a fresh engine's: the −0.0
    /// total seed, an empty tally and no GEMM time. Reading and resetting
    /// are one call, so no charge can fall between them and leak into the
    /// next step. The labelled record list and the memory tracker are not
    /// part of the ledger and are left as they are.
    pub fn take_ledger(&mut self) -> ChargeTotals {
        ChargeTotals {
            total_s: std::mem::replace(&mut self.total_s, -0.0),
            tally: std::mem::take(&mut self.tally),
            gemm_time_s: std::mem::replace(&mut self.gemm_time_s, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(fw: Framework) -> Engine {
        Engine::new(DeviceSpec::a100_80gb(), DType::F32, fw)
    }

    #[test]
    fn gemm_records_latency() {
        let mut e = engine(Framework::PyTorch);
        e.gemm("test", 1024, 1024, 1024);
        assert!(e.latency_ms() > 0.0);
        assert_eq!(e.ctx().records().len(), 1);
    }

    #[test]
    fn k_coverage_reduces_latency() {
        let mut a = engine(Framework::Pit);
        let mut b = engine(Framework::Pit);
        a.gemm_k_covered("cov", 4096, 4096, 4096, 0.1);
        b.gemm("full", 4096, 4096, 4096);
        assert!(a.latency_ms() < b.latency_ms());
    }

    #[test]
    fn fusion_halves_elementwise() {
        let mut fused = engine(Framework::DeepSpeed);
        let mut plain = engine(Framework::PyTorch);
        fused.elementwise("e", 1 << 24, 1);
        plain.elementwise("e", 1 << 24, 1);
        assert!(fused.latency_ms() < plain.latency_ms());
    }

    #[test]
    fn tensor_parallel_divides_gemm_and_adds_allreduce() {
        let mut single = engine(Framework::PyTorch);
        let mut multi =
            Engine::new(DeviceSpec::v100_32gb(), DType::F32, Framework::PyTorch).with_devices(8);
        single.gemm("g", 4096, 8192, 4096);
        multi.gemm("g", 4096, 8192, 4096);
        assert!(multi.latency_ms() < single.latency_ms());
        multi.allreduce("ar", 64.0 * 1024.0 * 1024.0);
        assert!(multi.ctx().latency_of_s("ar") > 0.0);
    }

    #[test]
    fn cost_tally_tiles_total_latency() {
        let mut e = engine(Framework::Pit);
        e.charge(OpKind::Qkv, e.price_gemm(512, 1024, 3072));
        e.charge(OpKind::Scores, e.price_gemm_flops(1.0e9, 4.0e6));
        e.charge(OpKind::Softmax, e.price_softmax(512, 512));
        e.charge(OpKind::Context, e.price_gemm_flops(1.0e9, 4.0e6));
        e.charge_host(OpKind::JitSearch, 50e-6);
        e.charge_host(OpKind::PitIndex, 8e-6);
        let t = e.cost_tally();
        assert!(t.attention_s > 0.0);
        assert!((t.jit_search_s - 50e-6).abs() < 1e-15);
        assert!((t.sparse_conversion_s - 8e-6).abs() < 1e-15);
        assert!(t.dense_s > 0.0);
        let sum = t.attention_s + t.sparse_conversion_s + t.jit_search_s + t.dense_s;
        let total = e.latency_ms() / 1e3;
        assert!((sum - total).abs() <= 1e-12 * total.max(1.0));
        assert!(t.flops_useful > 0.0);
        assert!(t.flops_executed >= t.flops_useful);
    }

    #[test]
    fn op_kinds_map_to_ledger_categories() {
        use OpKind::*;
        // Each kind's label before charges were typed, and whether its
        // recorder was GEMM-class. No wildcard: a new kind does not
        // compile until it is listed here.
        let legacy = |kind: OpKind| match kind {
            Embed => ("embed", false),
            Qkv => ("l7.qkv", true),
            Scores => ("l7.scores", true),
            Softmax => ("l7.softmax", false),
            Context => ("l7.context", true),
            Out => ("l7.out", true),
            AttnLn => ("l7.attn_ln", false),
            Fc1 => ("l7.fc1", true),
            Act => ("l7.act", false),
            Fc2 => ("l7.fc2", true),
            FfnLn => ("l7.ffn_ln", false),
            Residual => ("l7.residual", false),
            KvAppend => ("l7.kv_append", false),
            Head => ("head", true),
            JitSearch => ("jit.search", false),
            PitIndex => ("pit.index", false),
        };
        // How the ledger used to classify a label.
        let by_label = |label: &str| {
            if [".scores", ".softmax", ".context"]
                .iter()
                .any(|s| label.ends_with(s))
            {
                CostCategory::Attention
            } else if label.ends_with(".index") {
                CostCategory::SparseConversion
            } else if label == "jit.search" {
                CostCategory::JitSearch
            } else {
                CostCategory::DenseGemm
            }
        };
        let all = [
            Embed, Qkv, Scores, Softmax, Context, Out, AttnLn, Fc1, Act, Fc2, FfnLn, Residual,
            KvAppend, Head, JitSearch, PitIndex,
        ];
        for kind in all {
            let (label, gemm) = legacy(kind);
            assert_eq!(kind.category(), by_label(label), "{kind:?}");
            assert_eq!(kind.is_gemm(), gemm, "{kind:?}");
        }
    }

    #[test]
    fn labelled_and_typed_charges_share_one_ledger() {
        let mut e = engine(Framework::Pit);
        e.charge(OpKind::Scores, e.price_gemm_flops(1.0e9, 4.0e6));
        e.gemm_flops("l0.scores", 1.0e9, 4.0e6);
        let t = e.cost_tally();
        // The typed charge is attention; the labelled one lands in the
        // dense residual and in the record list.
        assert_eq!(t.attention_s, t.dense_s);
        assert_eq!(e.latency_ms(), (t.attention_s + t.dense_s) * 1e3);
        assert_eq!(e.gemm_time_s, t.attention_s + t.dense_s);
        assert_eq!(e.ctx().records().len(), 1);
        assert_eq!(e.ctx().latency_of_s("scores"), t.dense_s);
    }

    #[test]
    fn take_ledger_resets_to_a_fresh_engine() {
        let mut e = engine(Framework::Pit);
        e.charge(OpKind::Qkv, e.price_gemm(64, 1024, 3072));
        e.charge(OpKind::Softmax, e.price_softmax(64, 64));
        let (total_ms, tally, gemm_s) = (e.latency_ms(), e.cost_tally(), e.gemm_time_s);
        let taken = e.take_ledger();
        assert_eq!(taken.latency_ms().to_bits(), total_ms.to_bits());
        assert_eq!(taken.tally, tally);
        assert_eq!(taken.gemm_time_s.to_bits(), gemm_s.to_bits());
        // Reset to the −0.0 seed: an empty step reads as a fresh engine.
        assert_eq!(e.latency_ms().to_bits(), (-0.0f64).to_bits());
        assert_eq!(e.cost_tally(), CostTally::default());
        assert_eq!(e.gemm_time_s.to_bits(), 0.0f64.to_bits());
        let empty = e.take_ledger();
        assert_eq!(empty.total_s.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn transient_peak_only_moves_high_water_mark() {
        let mut e = engine(Framework::Pit);
        e.transient_peak(1 << 30);
        assert_eq!(e.ctx().memory().current_bytes(), 0);
        assert_eq!(e.ctx().memory().peak_bytes(), 1 << 30);
    }
}
