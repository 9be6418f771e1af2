//! The analytic execution engine: frameworks, typed operator charges,
//! memory.

use crate::decode::RowTable;
use pit_gpusim::{CostModel, DeviceSpec, KernelStats, MemoryTracker};
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
/// construction and detection, and the baselines' format conversions),
/// JIT kernel search, and the dense-GEMM residual that absorbs everything
/// else (embeddings, projections, FFN, MoE routing and dispatch,
/// layernorms, KV appends, backward and optimizer, launch overheads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostCategory {
    /// Attention score/softmax/context work.
    Attention,
    /// Sparse-format conversion: the "Convert" bars of the paper's figures.
    SparseConversion,
    /// Algorithm-1 kernel search.
    JitSearch,
    /// Everything else — dense GEMMs and elementwise/normalisation work.
    DenseGemm,
}

/// What a charge is: one of a transformer layer's kernels, a step's
/// embedding or LM head, a selection or sparse-format charge, or one of
/// the MoE, training and baseline-framework ops the figure models add.
/// Its ledger category is a `match`, so nothing is labelled or parsed.
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
    /// FFN up-projection, dense or one expert's.
    Fc1,
    /// FFN activation.
    Act,
    /// FFN down-projection, dense or one expert's.
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
    /// PIT's online detection of a sparse activation (the ReLU output scan).
    PitDetect,
    /// A sparse library's format conversion (PyTorch-S, block-sparse
    /// attention layouts), forward or backward.
    Convert,
    /// MoE router logits GEMM.
    Router,
    /// MoE router softmax.
    RouterSoftmax,
    /// Host side of an eager per-expert MoE loop.
    ExpertLoop,
    /// One-hot einsum dispatch GEMM (Tutel).
    Dispatch,
    /// One-hot einsum combine GEMM (Tutel).
    Combine,
    /// Elementwise scatter of tokens into expert order (DeepSpeed's
    /// dispatch, MegaBlocks' regroup).
    Scatter,
    /// Elementwise gather of expert outputs back into token order
    /// (DeepSpeed's combine, MegaBlocks' ungroup).
    Gather,
    /// MegaBlocks' block index build, which the figures do not count as
    /// conversion.
    BlockIndex,
    /// Longformer-S's band rearrangement, or its restore.
    Rearrange,
    /// Iterative pruning's per-step mask recalculation.
    MaskCalc,
    /// A training step's backward pass: its GEMMs or its elementwise sweep.
    /// Not GEMM-class, so `gemm_time_s` stays the forward GEMM time the
    /// backward is priced from.
    Backward,
    /// The optimizer step.
    Optimizer,
}

impl OpKind {
    /// The ledger category this op's time lands in.
    pub fn category(self) -> CostCategory {
        match self {
            OpKind::Scores | OpKind::Softmax | OpKind::Context => CostCategory::Attention,
            OpKind::PitIndex | OpKind::PitDetect | OpKind::Convert => {
                CostCategory::SparseConversion
            }
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
            | OpKind::Head
            | OpKind::Router
            | OpKind::RouterSoftmax
            | OpKind::ExpertLoop
            | OpKind::Dispatch
            | OpKind::Combine
            | OpKind::Scatter
            | OpKind::Gather
            | OpKind::BlockIndex
            | OpKind::Rearrange
            | OpKind::MaskCalc
            | OpKind::Backward
            | OpKind::Optimizer => CostCategory::DenseGemm,
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
                | OpKind::Router
                | OpKind::Dispatch
                | OpKind::Combine
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

/// Up to `N` values one ledger sum receives from a layer's ops, in
/// charge order.
#[derive(Clone, Copy)]
struct Run<T, const N: usize> {
    values: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> Run<T, N> {
    fn new() -> Self {
        Run {
            values: [T::default(); N],
            len: 0,
        }
    }

    fn push(&mut self, value: T) {
        self.values[self.len] = value;
        self.len += 1;
    }

    fn values(&self) -> &[T] {
        &self.values[..self.len]
    }
}

impl<const N: usize> Run<f64, N> {
    /// `sum` plus the run's values, added one at a time in order.
    fn fold(&self, sum: f64) -> f64 {
        self.values().iter().fold(sum, |sum, &v| sum + v)
    }
}

/// The analytic execution engine for one run.
///
/// Every charge is a typed [`OpKind`] over a `price_*` result
/// ([`Engine::charge`], [`Engine::charge_host`],
/// [`Engine::charge_layers`]) and folds, in order, into a running ledger:
/// total seconds, the [`CostTally`] and, for GEMM-class work,
/// `gemm_time_s`. The serving pricer and the figure models share this one
/// path; a figure's "Convert" time is the tally's `sparse_conversion_s`.
///
/// A serving replay prices all of its steps on one engine, because
/// building one profiles the tile database and searches a 2048³
/// reference tile. [`Engine::take_ledger`] closes a step, leaving the
/// ledger as a fresh engine's, so every step's charges equal a fresh
/// engine's bit for bit. A reused engine also keeps the prices of a
/// step's row-only layer ops by row count (see
/// [`run_step`](crate::decode::run_step)), so a replay prices each row
/// count's GEMMs once.
#[derive(Debug)]
pub struct Engine {
    /// The device's cost model.
    cost: CostModel,
    /// Per-device memory accounting: peak footprint and out-of-memory.
    memory: MemoryTracker,
    /// Profiled tile database for the device.
    pub db: TileDb,
    /// Precision under evaluation. Fixed at construction, like `db`: the
    /// reference throughput [`Engine::price_gemm_flops`] uses derives
    /// from both.
    pub dtype: DType,
    /// Execution strategy under evaluation.
    pub framework: Framework,
    /// Number of identical devices (tensor-parallel degree): the `price_*`
    /// methods split each op's work across them, and memory divides too.
    /// No all-reduce or other inter-device traffic is charged.
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
    /// A step's row-only layer prices by row count, kept by the layer
    /// stack `crate::decode` charges.
    pub(crate) row_table: RowTable,
}

impl Engine {
    /// Creates an engine on one device.
    pub fn new(device: DeviceSpec, dtype: DType, framework: Framework) -> Self {
        let memory = MemoryTracker::new(&device);
        let cost = CostModel::new(device);
        let db = TileDb::profile(&cost);
        let reference = cublas::gemm_cost_only(&cost, &db, 2048, 2048, 2048, dtype);
        Engine {
            cost,
            memory,
            db,
            dtype,
            framework,
            devices: 1,
            gemm_time_s: 0.0,
            // An engine with no charges reports −0.0, as `f64: Sum` over
            // no latencies does.
            total_s: -0.0,
            tally: CostTally::default(),
            reference_flops_per_s: reference.flops_executed / reference.latency_s,
            row_table: RowTable::default(),
        }
    }

    /// Sets the tensor-parallel degree.
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The memory tracker (one device's share of every allocation).
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
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

    /// Prices a GEMM whose reduction axis is cut to `k_frac` of `k` by
    /// sparsity coverage (PIT's k-axis merging), including the gather
    /// factor. `None` for an empty GEMM.
    pub(crate) fn price_gemm_k_covered(
        &self,
        m: usize,
        k: usize,
        n: usize,
        k_frac: f64,
    ) -> Option<KernelStats> {
        if m == 0 || k == 0 || n == 0 {
            return None;
        }
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
        let Some(stats) = stats else {
            return;
        };
        let s = stats.latency_s;
        self.total_s += s;
        match kind.category() {
            CostCategory::Attention => self.tally.attention_s += s,
            CostCategory::SparseConversion => self.tally.sparse_conversion_s += s,
            CostCategory::JitSearch => self.tally.jit_search_s += s,
            CostCategory::DenseGemm => self.tally.dense_s += s,
        }
        self.tally.flops_useful += stats.flops_useful;
        self.tally.flops_executed += stats.flops_executed;
        if kind.is_gemm() {
            self.gemm_time_s += s;
        }
    }

    /// Charges `seconds` of host-side work (latency only, no device work)
    /// as `kind`.
    pub fn charge_host(&mut self, kind: OpKind, seconds: f64) {
        let stats = KernelStats {
            latency_s: seconds,
            ..Default::default()
        };
        self.charge(kind, Some(stats));
    }

    /// Charges one priced layer `layers` times over, as `layers` passes of
    /// [`Engine::charge`] over its ops in order would.
    ///
    /// The layer is first split into one run per ledger sum: the seconds
    /// and FLOPs of every charged op, the seconds of each category's ops
    /// and of the GEMM-class ones, each in the layer's op order (an empty
    /// op is in no run). The sums are then held in locals and each adds
    /// its run once per layer. Every sum sees the same additions in the
    /// same order as charging op by op, so the ledger is bit-identical,
    /// but a sum's chain of adds stays in a register instead of going
    /// through the engine's fields once per op.
    pub fn charge_layers<const N: usize>(
        &mut self,
        layer: &[(OpKind, Option<KernelStats>); N],
        layers: usize,
    ) {
        let mut charged = Run::<(f64, f64, f64), N>::new();
        let [mut attention, mut conversion, mut search, mut dense, mut gemm] =
            [Run::<f64, N>::new(); 5];
        for &(kind, stats) in layer {
            let Some(stats) = stats else {
                continue;
            };
            let s = stats.latency_s;
            charged.push((s, stats.flops_useful, stats.flops_executed));
            match kind.category() {
                CostCategory::Attention => attention.push(s),
                CostCategory::SparseConversion => conversion.push(s),
                CostCategory::JitSearch => search.push(s),
                CostCategory::DenseGemm => dense.push(s),
            }
            if kind.is_gemm() {
                gemm.push(s);
            }
        }
        let mut total_s = self.total_s;
        let mut useful = self.tally.flops_useful;
        let mut executed = self.tally.flops_executed;
        let mut attention_s = self.tally.attention_s;
        let mut conversion_s = self.tally.sparse_conversion_s;
        let mut search_s = self.tally.jit_search_s;
        let mut dense_s = self.tally.dense_s;
        let mut gemm_s = self.gemm_time_s;
        for _ in 0..layers {
            for &(s, u, e) in charged.values() {
                total_s += s;
                useful += u;
                executed += e;
            }
            attention_s = attention.fold(attention_s);
            conversion_s = conversion.fold(conversion_s);
            search_s = search.fold(search_s);
            dense_s = dense.fold(dense_s);
            gemm_s = gemm.fold(gemm_s);
        }
        self.total_s = total_s;
        self.tally = CostTally {
            attention_s,
            sparse_conversion_s: conversion_s,
            jit_search_s: search_s,
            dense_s,
            flops_useful: useful,
            flops_executed: executed,
        };
        self.gemm_time_s = gemm_s;
    }

    /// Allocates persistent (whole-run) memory such as weights; divided
    /// across tensor-parallel devices. Returns nothing — persistent
    /// allocations live until the run ends.
    pub fn alloc_persistent(&mut self, bytes: usize) {
        self.memory.alloc(bytes.div_ceil(self.devices));
    }

    /// Allocates a retained buffer (framework workspaces the caching
    /// allocator never returns, e.g. per-layer dispatch buffers).
    pub fn alloc_retained(&mut self, bytes: usize) {
        self.memory.alloc(bytes.div_ceil(self.devices));
    }

    /// Tracks a transient peak: allocates, immediately frees, so only the
    /// high-water mark is affected.
    pub fn transient_peak(&mut self, bytes: usize) {
        let id = self.memory.alloc(bytes.div_ceil(self.devices));
        self.memory.free(id);
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
    /// next step. The memory tracker is not part of the ledger and is left
    /// as it is.
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

    fn latency(stats: Option<KernelStats>) -> f64 {
        stats.expect("non-empty op").latency_s
    }

    #[test]
    fn k_coverage_reduces_latency() {
        let e = engine(Framework::Pit);
        let covered = e.price_gemm_k_covered(4096, 4096, 4096, 0.1);
        assert!(latency(covered) < latency(e.price_gemm(4096, 4096, 4096)));
    }

    #[test]
    fn fusion_halves_elementwise() {
        let fused = engine(Framework::DeepSpeed).price_elementwise(1 << 24, 1);
        let plain = engine(Framework::PyTorch).price_elementwise(1 << 24, 1);
        assert!(latency(fused) < latency(plain));
    }

    #[test]
    fn tensor_parallel_divides_gemm() {
        let single = engine(Framework::PyTorch);
        let multi =
            Engine::new(DeviceSpec::v100_32gb(), DType::F32, Framework::PyTorch).with_devices(8);
        let (m, k, n) = (4096, 8192, 4096);
        assert!(latency(multi.price_gemm(m, k, n)) < latency(single.price_gemm(m, k, n)));
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
        // Each kind's labels before charges were typed: the serving
        // pricer's, the figure models', the GEMM flag of the recorder that
        // charged it, and whether the figures' substring reads counted it
        // as conversion. No wildcard: a new kind does not compile until it
        // is listed here. One flag moved: PIT's fused expert GEMMs
        // (`l7.moe.experts.fc1`/`fc2`) were recorded as non-GEMM, the
        // other expert GEMMs as GEMMs; all are `Fc1`/`Fc2` now.
        let legacy = |kind: OpKind| match kind {
            Embed => (Some("embed"), Some("embed"), false, false),
            Qkv => (Some("l7.qkv"), Some("l7.attn.qkv"), true, false),
            Scores => (Some("l7.scores"), Some("l7.attn.scores"), true, false),
            Softmax => (Some("l7.softmax"), Some("l7.attn.softmax"), false, false),
            Context => (Some("l7.context"), Some("l7.attn.context"), true, false),
            Out => (Some("l7.out"), Some("l7.attn.out"), true, false),
            AttnLn => (Some("l7.attn_ln"), Some("l7.attn.ln"), false, false),
            Fc1 => (Some("l7.fc1"), Some("l7.moe.e3.fc1"), true, false),
            Act => (Some("l7.act"), Some("l7.ffn.act"), false, false),
            Fc2 => (Some("l7.fc2"), Some("l7.ffn.fc2"), true, false),
            FfnLn => (Some("l7.ffn_ln"), Some("l7.ffn.ln"), false, false),
            Residual => (Some("l7.residual"), Some("l7.attn.residual"), false, false),
            KvAppend => (Some("l7.kv_append"), None, false, false),
            Head => (Some("head"), Some("lm_head"), true, false),
            JitSearch => (Some("jit.search"), None, false, false),
            PitIndex => (Some("pit.index"), Some("l7.pit_index"), false, true),
            PitDetect => (None, Some("l7.ffn.pit_detect"), false, true),
            Convert => (None, Some("l7.moe.convert"), false, true),
            Router => (None, Some("l7.moe.router"), true, false),
            RouterSoftmax => (None, Some("l7.moe.router.softmax"), false, false),
            ExpertLoop => (None, Some("l7.moe.loop_host"), false, false),
            Dispatch => (None, Some("l7.moe.dispatch_einsum"), true, false),
            Combine => (None, Some("l7.moe.combine_einsum"), true, false),
            Scatter => (None, Some("l7.moe.dispatch_scatter"), false, false),
            Gather => (None, Some("l7.moe.combine_gather"), false, false),
            BlockIndex => (None, Some("l7.moe.block_index"), false, false),
            Rearrange => (None, Some("l7.attn.rearrange"), false, false),
            MaskCalc => (None, Some("l7.mask_calc"), false, false),
            Backward => (None, Some("backward.gemms"), false, false),
            Optimizer => (None, Some("adam"), false, false),
        };
        // How the serving ledger used to classify a label.
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
        // What the figures used to sum as conversion time.
        let converts = |label: &str| {
            ["convert", "pit_index", "pit_detect"]
                .iter()
                .any(|s| label.contains(s))
        };
        let all = [
            Embed,
            Qkv,
            Scores,
            Softmax,
            Context,
            Out,
            AttnLn,
            Fc1,
            Act,
            Fc2,
            FfnLn,
            Residual,
            KvAppend,
            Head,
            JitSearch,
            PitIndex,
            PitDetect,
            Convert,
            Router,
            RouterSoftmax,
            ExpertLoop,
            Dispatch,
            Combine,
            Scatter,
            Gather,
            BlockIndex,
            Rearrange,
            MaskCalc,
            Backward,
            Optimizer,
        ];
        for kind in all {
            let (serving, figure, gemm, conversion) = legacy(kind);
            assert_eq!(kind.is_gemm(), gemm, "{kind:?}");
            let is_conversion = kind.category() == CostCategory::SparseConversion;
            assert_eq!(is_conversion, conversion, "{kind:?}");
            if let Some(label) = serving {
                assert_eq!(kind.category(), by_label(label), "{kind:?}");
            }
            if let Some(label) = figure {
                assert_eq!(converts(label), conversion, "{kind:?}");
            }
        }
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
        assert_eq!(e.memory().current_bytes(), 0);
        assert_eq!(e.memory().peak_bytes(), 1 << 30);
    }
}
