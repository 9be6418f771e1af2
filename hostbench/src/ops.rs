//! The `pit_ops` workload: a stream of `pit_core::ops::Pit` calls, fp32 on
//! the modelled A100 — the paper's online path (detection, Algorithm-1
//! selection, SRead/SWrite kernels), which neither decode workload
//! touches.
//!
//! Operand shapes come from a small repeating set of operator sites, plus
//! a stated share of first-sight shapes; every call gets fresh sparsity
//! (a fresh mask at one of five granularities and 90–99% sparsity, fresh
//! Longformer globals, a fresh MoE routing plan). So JIT hits dominate
//! and Algorithm-1 misses are the exception, as in §5.6: shapes repeat,
//! patterns do not.
//!
//! Every output must be `allclose` to `pit_tensor::ops::matmul` on the
//! same operands (masked for `sdd`, per expert for `moe_gemm`); for the
//! default seed, the selections and modelled statistics of the first
//! calls must also equal the ones recorded under `golden/`.

use crate::refclock::RefClock;
use crate::spans::Spans;
use crate::stats::{median, ratio};
use crate::{
    detect_threads, end_to_end, layer_metrics, loop_done, note_failure, secs, span_dir, Args,
    CallTime, LayerNumbers, Outcome, DEFAULT_SEED, PROBE_EVERY_S, SETUP_REPEATS,
};
use pit::core::kernels::{moe_gemm, sdd_m_axis, spmm_k_axis, spmm_m_axis, spmm_segment_cost};
use pit::core::ops::Pit;
use pit::core::{detect_mask, select_kernel, MatmulAxis, SelectedKernel};
use pit::gpusim::{DeviceSpec, KernelStats};
use pit::kernels::KernelOutput;
use pit::sparse::{generate, Mask};
use pit::tensor::{ops, DType, Tensor, TensorError};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Which `Pit` entry point a call uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// `matmul_masked`: `A·B` with `A`'s mask given.
    Masked,
    /// `matmul_dyn_sparse`: `A·B` with the mask derived from `A`.
    Dyn,
    /// `sdd`: `(A·B) ⊙ mask` over a Longformer-style mask.
    Sdd,
    /// `moe_gemm`: every token through its routed expert.
    Moe,
}

/// One operator site of the repeating set. For `Sdd`, `m = n` is the
/// sequence length and `k` the head width; for `Moe`, `m` is the token
/// count, `k` the hidden width and `n` the expert FFN width. A matmul
/// site's operand keeps one sparsity granularity and ratio, as one layer
/// of a model would: each call draws a fresh mask of that kind, so the
/// selection the engine caches at the site's first call stays the right
/// one, whatever the seed.
struct Site {
    kind: OpKind,
    m: usize,
    k: usize,
    n: usize,
    gran: (usize, usize),
    sparsity: f64,
}

const fn site(
    kind: OpKind,
    (m, k, n): (usize, usize, usize),
    gran: (usize, usize),
    sparsity: f64,
) -> Site {
    Site {
        kind,
        m,
        k,
        n,
        gran,
        sparsity,
    }
}

const SITES: [Site; 7] = [
    site(OpKind::Masked, (256, 512, 128), (1, 1), 0.99),
    site(OpKind::Masked, (512, 256, 256), (8, 1), 0.95),
    site(OpKind::Masked, (384, 384, 192), (32, 1), 0.90),
    site(OpKind::Dyn, (256, 768, 96), (1, 8), 0.97),
    site(OpKind::Dyn, (320, 320, 160), (16, 16), 0.93),
    site(OpKind::Sdd, (256, 64, 256), (1, 1), 0.0),
    site(OpKind::Moe, (256, 128, 256), (1, 1), 0.0),
];

/// Experts of the MoE site.
const EXPERTS: usize = 8;

/// Sparsity granularities of the matmul sites, which first-sight shapes
/// draw from too.
const GRANULARITIES: [(usize, usize); 5] = [(1, 1), (8, 1), (32, 1), (1, 8), (16, 16)];

/// Share of calls on a matmul shape the engine has never seen: each is a
/// JIT miss that runs Algorithm 1.
const FIRST_SIGHT_SHARE: f64 = 0.05;

/// Calls of the default seed whose selection and modelled statistics are
/// recorded under `golden/`.
const GOLDEN_CALLS: usize = 64;

/// Largest element difference an output may show against the reference
/// product (the sparse kernels sum the same terms in another order).
const TOLERANCE: f32 = 1e-3;

const DTYPE: DType = DType::F32;

/// SplitMix64: the harness's own seeded stream, so inputs depend on the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One generated call: what the program receives, plus the reference.
struct Call {
    kind: OpKind,
    dims: (usize, usize, usize),
    a: Tensor,
    b: Arc<Tensor>,
    /// `Masked`: `A`'s mask; `Sdd`: the output mask.
    mask: Option<Mask>,
    experts: Arc<Vec<Tensor>>,
    routing: Vec<Vec<usize>>,
}

/// What one call returned.
struct Output {
    tensor: Tensor,
    stats: KernelStats,
    detection: Option<KernelStats>,
    selection: Option<SelectedKernel>,
}

/// The seeded input stream.
struct Stream {
    rng: Rng,
    weights: Vec<Arc<Tensor>>,
    experts: Arc<Vec<Tensor>>,
    seen: BTreeSet<(usize, usize, usize)>,
}

impl Stream {
    /// Builds the sites' weights for `seed`.
    fn new(seed: u64) -> Self {
        let mut rng = Rng(seed ^ 0x5049_545f_4f50_5321);
        let weights = SITES
            .iter()
            .map(|s| Arc::new(Tensor::random([s.k, s.n], rng.next())))
            .collect();
        let moe = &SITES[6];
        let experts = Arc::new(
            (0..EXPERTS)
                .map(|_| Tensor::random([moe.k, moe.n], rng.next()))
                .collect(),
        );
        let seen = SITES.iter().map(|s| (s.m, s.k, s.n)).collect();
        Stream {
            rng,
            weights,
            experts,
            seen,
        }
    }

    /// A sparse `[m, k]` operand with a fresh mask at granularity `gran`.
    fn sparse_operand(
        &mut self,
        m: usize,
        k: usize,
        gran: (usize, usize),
        sparsity: f64,
    ) -> (Tensor, Mask) {
        let mask = generate::granular_random(m, k, gran.0, gran.1, sparsity, self.rng.next());
        let a = mask.apply(&Tensor::random([m, k], self.rng.next()));
        (a, mask)
    }

    /// The next call of the stream.
    fn next_call(&mut self) -> Call {
        let first_sight = self.rng.unit() < FIRST_SIGHT_SHARE;
        let site = self.rng.below(SITES.len());
        if first_sight {
            // A masked or dynamic matmul on a shape no earlier call had,
            // no larger than the sites' operands (so the peak memory of a
            // run does not depend on which shapes its seed draws).
            let kind = if self.rng.below(2) == 0 {
                OpKind::Masked
            } else {
                OpKind::Dyn
            };
            let dims = loop {
                let d = (
                    128 + 8 * self.rng.below(32),
                    128 + 8 * self.rng.below(48),
                    64 + 8 * self.rng.below(16),
                );
                if self.seen.insert(d) {
                    break d;
                }
            };
            let gran = GRANULARITIES[self.rng.below(GRANULARITIES.len())];
            let sparsity = 0.90 + 0.09 * self.rng.unit();
            let (a, mask) = self.sparse_operand(dims.0, dims.1, gran, sparsity);
            let b = Arc::new(Tensor::random([dims.1, dims.2], self.rng.next()));
            return Call {
                kind,
                dims,
                a,
                b,
                mask: (kind == OpKind::Masked).then_some(mask),
                experts: self.experts.clone(),
                routing: Vec::new(),
            };
        }
        self.site_call(site)
    }

    /// A call at one site of the repeating set.
    fn site_call(&mut self, site: usize) -> Call {
        let s = &SITES[site];
        let dims = (s.m, s.k, s.n);
        let mut call = Call {
            kind: s.kind,
            dims,
            a: Tensor::zeros([1, 1]),
            b: self.weights[site].clone(),
            mask: None,
            experts: self.experts.clone(),
            routing: Vec::new(),
        };
        match s.kind {
            OpKind::Masked | OpKind::Dyn => {
                let (a, mask) = self.sparse_operand(s.m, s.k, s.gran, s.sparsity);
                call.a = a;
                call.mask = (s.kind == OpKind::Masked).then_some(mask);
            }
            OpKind::Sdd => {
                // Queries and keys are activations: fresh every call, as
                // are the dynamically chosen global tokens.
                call.a = Tensor::random([s.m, s.k], self.rng.next());
                call.b = Arc::new(Tensor::random([s.k, s.n], self.rng.next()));
                let globals: Vec<usize> = (0..3).map(|_| self.rng.below(s.m)).collect();
                call.mask = Some(generate::longformer_mask(s.m, 32, &globals));
            }
            OpKind::Moe => {
                call.a = Tensor::random([s.m, s.k], self.rng.next());
                call.routing = generate::RoutingPlan::sample(s.m, EXPERTS, 1.0, self.rng.next())
                    .expert_token_lists();
            }
        }
        call
    }
}

/// Runs the call through the composed `Pit` entry point.
fn composed(pit: &Pit, c: &Call) -> Result<Output, TensorError> {
    let from_exec = |e: pit::core::ops::PitExecution| Output {
        tensor: e.output.tensor,
        stats: e.output.stats,
        detection: Some(e.detection),
        selection: Some(e.selection),
    };
    Ok(match c.kind {
        OpKind::Masked => from_exec(pit.matmul_masked(
            &c.a,
            c.mask.as_ref().expect("masked call has a mask"),
            &c.b,
            DTYPE,
        )?),
        OpKind::Dyn => from_exec(pit.matmul_dyn_sparse(&c.a, &c.b, DTYPE)?),
        OpKind::Sdd => from_exec(pit.sdd(
            &c.a,
            &c.b,
            c.mask.as_ref().expect("sdd call has a mask"),
            DTYPE,
        )?),
        OpKind::Moe => {
            let out: KernelOutput = pit.moe_gemm(&c.a, &c.experts, &c.routing, DTYPE)?;
            Output {
                tensor: out.tensor,
                stats: out.stats,
                detection: None,
                selection: None,
            }
        }
    })
}

/// The dense reference product on the same operands.
fn reference(c: &Call) -> Result<Tensor, TensorError> {
    match c.kind {
        OpKind::Masked | OpKind::Dyn => ops::matmul(&c.a, &c.b),
        OpKind::Sdd => Ok(c
            .mask
            .as_ref()
            .expect("sdd call has a mask")
            .apply(&ops::matmul(&c.a, &c.b)?)),
        OpKind::Moe => {
            let mut out = Tensor::zeros([c.dims.0, c.dims.2]);
            for (w, toks) in c.experts.iter().zip(&c.routing) {
                if toks.is_empty() {
                    continue;
                }
                let part = ops::matmul(&ops::gather_rows(&c.a, toks)?, w)?;
                out = ops::add(&out, &ops::scatter_rows(&part, toks, c.dims.0)?)?;
            }
            Ok(out)
        }
    }
}

/// The call's selection and modelled statistics, one line, every float
/// at full precision (the measured search time is left out).
fn golden_line(i: usize, c: &Call, out: &Output) -> String {
    let sel = out.selection.as_ref().map_or("-".to_string(), |s| {
        format!(
            "rule={:?} predicted={:?} dense={:?} after_cover={:?} candidates={} search={:?}",
            s.rule,
            s.predicted_cost_s,
            s.dense_cost_s,
            s.after_cover_sparsity,
            s.candidates,
            s.modelled_search_s
        )
    });
    format!(
        "{i} {:?} {}x{}x{} {sel} stats={:?} detection={:?}",
        c.kind, c.dims.0, c.dims.1, c.dims.2, out.stats, out.detection
    )
}

const GOLDEN: &str = include_str!("../golden/pit_ops.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/pit_ops.txt");

/// Checks one call's output; `golden` is the recorded line for this call,
/// if the run compares against one.
fn check(
    c: &Call,
    out: &Output,
    want: &Tensor,
    golden: Option<&str>,
    line: &str,
) -> Result<(), String> {
    if out.tensor.shape().dims() != want.shape().dims() || !out.tensor.allclose(want, TOLERANCE) {
        return Err(format!(
            "{:?} {:?} output differs from the dense reference",
            c.kind, c.dims
        ));
    }
    match golden {
        Some(g) if g != line => Err(format!("modelled outputs differ from golden/: {line}")),
        _ => Ok(()),
    }
}

fn engine() -> Pit {
    Pit::new(DeviceSpec::a100_80gb()).with_detect_threads(detect_threads())
}

/// Runs the workload: timed calls with `--trace 0`, the per-layer split
/// with `--trace 1`.
pub fn run(args: &Args) -> Outcome {
    if args.record {
        let pit = engine();
        let mut stream = Stream::new(DEFAULT_SEED);
        let _warm = composed(&pit, &stream.site_call(0));
        let mut lines = String::new();
        for i in 0..GOLDEN_CALLS {
            let c = stream.next_call();
            let out = composed(&pit, &c).expect("default-seed call runs");
            lines.push_str(&golden_line(i, &c, &out));
            lines.push('\n');
        }
        std::fs::write(GOLDEN_PATH, lines).expect("write golden calls");
        println!("# recorded {GOLDEN_PATH}");
        return Outcome {
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
    }
    if args.trace {
        return run_traced(args);
    }
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let pit = engine();
        let mut stream = Stream::new(args.seed);
        let warm = stream.site_call(0);
        let _ = catch_unwind(AssertUnwindSafe(|| composed(&pit, &warm)));
        setup_s.push(secs(start.elapsed()));
        state = Some((pit, stream));
    }
    let (pit, mut stream) = state.expect("at least one set-up");
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let compare = args.seed == DEFAULT_SEED;
    let mut clock = RefClock::new(PROBE_EVERY_S);
    let mut calls = Vec::new();
    let mut failed = 0u64;
    let begin = Instant::now();
    while !loop_done(begin, calls.len(), args.seconds) {
        let i = calls.len();
        let c = stream.next_call();
        let slice = clock.slice();
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| composed(&pit, &c)));
        let wall_s = secs(start.elapsed());
        let verdict = match (out, reference(&c)) {
            (Ok(Ok(out)), Ok(want)) => {
                let g = (compare && i < GOLDEN_CALLS).then(|| golden.get(i).copied().unwrap_or(""));
                check(&c, &out, &want, g, &golden_line(i, &c, &out))
            }
            (Ok(Err(e)), _) => Err(format!("call failed: {e}")),
            (Err(_), _) => Err("call panicked".into()),
            (_, Err(e)) => Err(format!("reference failed: {e}")),
        };
        let work = match verdict {
            Ok(()) => 1.0,
            Err(e) => {
                note_failure(&e);
                failed += 1;
                0.0
            }
        };
        calls.push(CallTime {
            wall_s,
            slice,
            work,
        });
    }
    clock.finish();
    Outcome {
        attempted: calls.len() as u64,
        failed,
        metrics: end_to_end(&setup_s, &calls, &clock),
    }
}

/// The call split into its public parts — `select_kernel` (on a miss of
/// the harness's own selection cache, which sees the same shapes as the
/// engine's), `detect_mask`, and the kernel — each in its own span.
fn decomposed(
    pit: &Pit,
    selections: &mut BTreeMap<(usize, usize, usize), SelectedKernel>,
    c: &Call,
    spans: &mut Spans,
    op: u64,
) -> Result<(Tensor, Option<SelectedKernel>), TensorError> {
    let cost = pit.cost();
    let tc = DTYPE.tensor_core_eligible();
    match c.kind {
        OpKind::Masked | OpKind::Dyn => {
            let mask = match &c.mask {
                Some(m) => m.clone(),
                None => spans.record("core.detect", op, || Mask::from_tensor(&c.a)),
            };
            let n = c.dims.2;
            let selection = match selections.get(&c.dims) {
                Some(s) => s.clone(),
                None => {
                    let s = spans.record("core.select", op, || {
                        select_kernel(cost, pit.tile_db(), std::slice::from_ref(&mask), n, DTYPE)
                    });
                    selections.insert(c.dims, s.clone());
                    s
                }
            };
            let tensor = match selection.rule {
                None => {
                    spans
                        .record("core.kernel", op, || pit.matmul_dense(&c.a, &c.b, DTYPE))?
                        .tensor
                }
                Some(rule) => {
                    let index = spans.record("core.detect", op, || {
                        detect_mask(cost, &mask, rule.micro, detect_threads())
                    });
                    spans.record("core.kernel", op, || match rule.axis {
                        MatmulAxis::M => {
                            let rows = index.nonzero_grid_rows();
                            spmm_m_axis(cost, &c.a, &c.b, &rows, rule.tile, DTYPE).map(|o| o.tensor)
                        }
                        MatmulAxis::K if rule.micro.h == 1 => {
                            let t = ops::matmul(&c.a, &c.b)?;
                            std::hint::black_box(spmm_segment_cost(
                                cost,
                                c.dims.0,
                                n,
                                mask.nnz(),
                                rule.micro.w as f64,
                                DTYPE,
                            ));
                            Ok(t)
                        }
                        MatmulAxis::K => spmm_k_axis(cost, &c.a, &c.b, &index, rule.tile, DTYPE)
                            .map(|o| o.tensor),
                        MatmulAxis::N => unreachable!("A-sparse selection never picks N"),
                    })?
                }
            };
            Ok((tensor, Some(selection)))
        }
        OpKind::Sdd => {
            let (m, k, n) = c.dims;
            let tile = spans.record("kernels.best_dense_tile", op, || {
                pit.tile_db()
                    .best_dense_tile(cost, m, k, n.min(64), tc)
                    .dims
            });
            let mask = c.mask.as_ref().expect("sdd call has a mask");
            let out = spans.record("core.kernel", op, || {
                sdd_m_axis(cost, &c.a, &c.b, mask, tile, DTYPE)
            })?;
            Ok((out.tensor, None))
        }
        OpKind::Moe => {
            let (_, h, f) = c.dims;
            let max_cnt = c.routing.iter().map(Vec::len).max().unwrap_or(0);
            let tile = spans.record("kernels.best_dense_tile", op, || {
                pit.tile_db()
                    .best_dense_tile(cost, max_cnt.max(1), h, f, tc)
                    .dims
            });
            let out = spans.record("core.kernel", op, || {
                moe_gemm(cost, &c.a, &c.experts, &c.routing, tile, DTYPE)
            })?;
            Ok((out.tensor, None))
        }
    }
}

/// Same selection, ignoring the measured search time.
fn same_selection(a: &SelectedKernel, b: &SelectedKernel) -> bool {
    a.rule == b.rule
        && a.predicted_cost_s == b.predicted_cost_s
        && a.dense_cost_s == b.dense_cost_s
        && a.after_cover_sparsity == b.after_cover_sparsity
        && a.candidates == b.candidates
        && a.modelled_search_s == b.modelled_search_s
}

/// Host-time split of the operator stream, from spans the harness records
/// around its own calls.
fn run_traced(args: &Args) -> Outcome {
    let mut spans = Spans::new();
    let pit = engine();
    let mut stream = Stream::new(args.seed);
    let warm = stream.site_call(0);
    let _ = catch_unwind(AssertUnwindSafe(|| composed(&pit, &warm)));
    // The warm-up shape is in the engine's selection cache: put it in the
    // harness's mirror too.
    let mut selections = BTreeMap::new();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        decomposed(&pit, &mut selections, &warm, &mut Spans::new(), 0)
    }));
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut plain_ms, mut ratios) = (Vec::new(), Vec::new());
    let (mut useful, mut executed) = (0.0f64, 0.0f64);
    let begin = Instant::now();
    while !loop_done(begin, attempted as usize, args.seconds) {
        let op = attempted;
        attempted += 1;
        let c = stream.next_call();
        // Odd calls run untraced, even calls inside a span: the difference
        // of their medians is the tracing overhead.
        let start = Instant::now();
        let traced = op % 2 == 0;
        let id = traced.then(|| spans.enter("core.op", op));
        let out = catch_unwind(AssertUnwindSafe(|| composed(&pit, &c)));
        if let Some(id) = id {
            spans.exit(id);
        }
        let op_s = secs(start.elapsed());
        if !traced {
            plain_ms.push(op_s * 1e3);
        }
        let parts = {
            let id = spans.enter("core.decomposed", op);
            let r = catch_unwind(AssertUnwindSafe(|| {
                decomposed(&pit, &mut selections, &c, &mut spans, op)
            }));
            // A panic leaves inner spans open; close down to this one.
            spans.exit_to(id);
            r
        };
        let start = Instant::now();
        let want = spans.record("tensor.dense_ref", op, || reference(&c));
        ratios.push(op_s / secs(start.elapsed()).max(1e-9));
        let verdict = match (out, parts, want) {
            (Ok(Ok(out)), Ok(Ok((tensor, sel))), Ok(want)) => {
                useful += out.stats.flops_useful;
                executed += out.stats.flops_executed;
                // Only the matmuls select a kernel through Algorithm 1.
                let same_sel = match (&out.selection, &sel) {
                    (Some(a), Some(b)) => same_selection(a, b),
                    _ => true,
                };
                if tensor.data() != out.tensor.data() || !same_sel {
                    Err(format!(
                        "{:?} {:?}: decomposed call differs from the composed one",
                        c.kind, c.dims
                    ))
                } else {
                    check(&c, &out, &want, None, "")
                }
            }
            _ => Err(format!(
                "{:?} {:?}: a call failed or panicked",
                c.kind, c.dims
            )),
        };
        if let Err(e) = verdict {
            note_failure(&e);
            failed += 1;
        }
    }
    let path = span_dir().join(format!("pit_ops-seed{}.jsonl", args.seed));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!(
            "hostbench: could not write spans to {}: {e}",
            path.display()
        );
    }
    let us = |name: &str| -> Vec<f64> { spans.self_ns(name).iter().map(|ns| ns / 1e3).collect() };
    let traced_ms: Vec<f64> = spans
        .durations_ns("core.op")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let cache = pit.cache();
    let metrics = layer_metrics(LayerNumbers {
        best_dense_tile_ns_p50: median(&spans.self_ns("kernels.best_dense_tile")),
        core_detect_us_p50: median(&us("core.detect")),
        core_select_us_p50: median(&us("core.select")),
        core_kernel_us_p50: median(&us("core.kernel")),
        core_jit_hit_rate: ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        core_coverage_waste: 1.0 - ratio(useful, executed),
        tensor_dense_ref_us_p50: median(&us("tensor.dense_ref")),
        core_host_vs_dense: median(&ratios),
        bench_trace_overhead_pct: 100.0
            * ratio(median(&traced_ms) - median(&plain_ms), median(&plain_ms)),
        ..LayerNumbers::default()
    });
    Outcome {
        attempted,
        failed,
        metrics,
    }
}
