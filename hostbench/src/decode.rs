//! The decode workloads: a seed's traces replayed back to back, in turn,
//! through the decode-serving simulator.
//!
//! - `decode_steady`: OPT-1.3B fp16 on the modelled A100, MNLI prompts,
//!   geometric outputs (mean 128, 1..=512), Poisson arrivals at 300 rps,
//!   continuous batching under a 128-row budget with the default (ample)
//!   KV pool; no prefix cache, dense KV, lifecycle sink off. Step pricing
//!   dominates host time here.
//! - `decode_pressure`: the same model serving shared-prefix assistant
//!   prompts with summarization outputs on bursty arrivals, a 256-row
//!   budget and a KV pool tight enough that every seed both swaps and
//!   falls back to recompute; prefix caching, swap-to-host, heavy-hitter
//!   KV sparsity and the lifecycle sink on. The only workload where the
//!   KV, prefix, swap and trace layers do real work.
//!
//! Each replay's report is checked, not scored: every request finishes,
//! the KV pool and the device ledger conserve, served tokens conserve, and
//! the report is byte-equal to the first replay of the same trace (for the
//! default seed, to the bytes recorded under `golden/`).

use crate::refclock::RefClock;
use crate::spans::Spans;
use crate::stats::{median, percentile, ratio};
use crate::{
    end_to_end, layer_metrics, loop_done, note_failure, secs, span_dir, Args, CallTime,
    LayerNumbers, Outcome, DEFAULT_SEED, PROBE_EVERY_S, SETUP_REPEATS,
};
use pit::gpusim::DeviceSpec;
use pit::kv::{KvConfig, PagedKvCache};
use pit::models::decode::{run_step, DecodeSlot, StepShape};
use pit::models::{Engine, ModelConfig};
use pit::prefix::RadixPrefixIndex;
use pit::serve::{
    simulate_decode_trace, simulate_decode_trace_traced, DecodePolicy, DecodeReport,
    DecodeServeConfig, KvSparsityPolicy, PreemptPolicy,
};
use pit::trace::{TraceEvent, TraceRecord, TraceSink};
use pit::workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, DecodeTrace, SharedPrefixSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which decode workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Pressure,
}

/// Requests generated before a trace is cut to its token budget.
const CANDIDATE_REQUESTS: usize = 4000;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Steady => "decode_steady",
            Kind::Pressure => "decode_pressure",
        }
    }

    /// Prompt + output tokens one replay serves. A trace is cut at the
    /// first request that reaches this budget, so replays of different
    /// seeds do about the same work.
    fn token_budget(self) -> usize {
        60_000
    }

    /// Traces a run cycles through, so that its replay times sample the
    /// workload's population of traces rather than one draw from it: how
    /// many steps a pressured replay of a given size takes varies with
    /// its prompts and preemptions by about ±10% between traces.
    fn traces(self) -> usize {
        match self {
            Kind::Steady => 4,
            Kind::Pressure => 8,
        }
    }

    /// Whether the lifecycle sink is on in the workload's own replays.
    fn sink_on(self) -> bool {
        self == Kind::Pressure
    }

    /// The default seed's reports, one line per trace, as recorded.
    fn golden(self) -> &'static str {
        match self {
            Kind::Steady => include_str!("../golden/decode_steady.json"),
            Kind::Pressure => include_str!("../golden/decode_pressure.json"),
        }
    }

    fn golden_path(self) -> &'static str {
        match self {
            Kind::Steady => concat!(env!("CARGO_MANIFEST_DIR"), "/golden/decode_steady.json"),
            Kind::Pressure => concat!(env!("CARGO_MANIFEST_DIR"), "/golden/decode_pressure.json"),
        }
    }
}

/// Trace `j` of the workload for `seed`.
fn make_trace(kind: Kind, seed: u64, j: usize) -> DecodeTrace {
    let seed = seed.wrapping_mul(64).wrapping_add(j as u64);
    let trace = match kind {
        Kind::Steady => DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(128.0, 1, 512),
            CANDIDATE_REQUESTS,
            300.0,
            seed,
        ),
        Kind::Pressure => {
            // Bursts of 300 rps, on and off for 0.1 s each on average.
            let arrivals = ArrivalTrace::bursty(
                &DatasetSpec::mnli(),
                CANDIDATE_REQUESTS,
                300.0,
                0.1,
                0.1,
                seed,
            );
            SharedPrefixSpec::assistants().decode_trace(
                &DecodeSpec::summarization(),
                arrivals.arrival_s,
                seed,
            )
        }
    };
    cut_to_tokens(trace, kind.token_budget())
}

/// Keeps the shortest prefix of `trace` that serves at least `budget`
/// prompt + output tokens.
fn cut_to_tokens(mut trace: DecodeTrace, budget: usize) -> DecodeTrace {
    let mut served = 0;
    let mut keep = trace.len();
    for i in 0..trace.len() {
        served += trace.prompt_lens[i] + trace.output_lens[i];
        if served >= budget {
            keep = i + 1;
            break;
        }
    }
    trace.prompt_lens.truncate(keep);
    trace.output_lens.truncate(keep);
    trace.arrival_s.truncate(keep);
    trace.prompt_ids.truncate(keep);
    trace
}

/// The workload's serving configuration.
fn config(kind: Kind) -> DecodeServeConfig {
    let builder = DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb());
    match kind {
        Kind::Steady => builder.policy(DecodePolicy::ContinuousPaddingFree { token_budget: 128 }),
        Kind::Pressure => builder
            .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .kv_pages(640)
            .prefix_caching(true)
            .preempt(PreemptPolicy::SwapToHost)
            .kv_sparsity(KvSparsityPolicy::HeavyHitter {
                recent: 128,
                heavy: 128,
            }),
    }
    .build()
    .expect("benchmark configurations are valid")
}

/// One replay: the report, the lifecycle records when the sink was on,
/// and the host time of the simulate call alone.
struct Replay {
    report: Option<DecodeReport>,
    records: Vec<TraceRecord>,
    host_s: f64,
}

/// Replays `trace` once, with the lifecycle sink on or off. Only the
/// simulate call is timed; a panic yields no report.
fn replay(cfg: &DecodeServeConfig, trace: &DecodeTrace, sink_on: bool) -> Replay {
    let sink = if sink_on {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        if sink_on {
            simulate_decode_trace_traced(cfg, trace, &sink)
        } else {
            simulate_decode_trace(cfg, trace)
        }
    }));
    let host_s = secs(start.elapsed());
    Replay {
        report: report.ok(),
        records: sink.drain(),
        host_s,
    }
}

/// Prompt tokens the prefix cache served as new progress, from the
/// lifecycle records: each admission's match minus the recompute debt it
/// paid off. Those rows are never prefilled, so they are the only served
/// tokens missing from `real_tokens`. The debt follows the report's
/// rules: a recompute-type preemption owes the whole context but its last
/// row for a decoding request, its prefill progress otherwise, and
/// prefill rows pay the debt first.
fn cache_credit(trace: &DecodeTrace, records: &[TraceRecord]) -> usize {
    #[derive(Default)]
    struct Req {
        generated: usize,
        prefilled: usize,
        debt: usize,
        decoding: bool,
    }
    let mut by_ord: Vec<&TraceRecord> = records.iter().collect();
    by_ord.sort_by_key(|r| r.ord);
    let mut reqs: BTreeMap<u64, Req> = BTreeMap::new();
    let mut credit = 0;
    for r in by_ord.into_iter().filter(|r| r.lane < trace.len() as u64) {
        let prompt = trace.prompt_lens[r.lane as usize];
        let q = reqs.entry(r.lane).or_default();
        match r.event {
            TraceEvent::PrefixHit { tokens, .. } => {
                let paid = tokens.min(q.debt);
                q.debt -= paid;
                credit += tokens - paid;
                q.prefilled = tokens;
            }
            TraceEvent::PrefillChunk { tokens } => {
                q.debt -= tokens.min(q.debt);
                q.prefilled += tokens;
                if q.prefilled >= prompt + q.generated {
                    q.decoding = true;
                    q.generated += 1;
                }
            }
            TraceEvent::DecodeStep { .. } => q.generated += 1,
            TraceEvent::Preempted { policy } if policy != "swap-to-host" => {
                q.debt += if q.decoding {
                    prompt + q.generated - 1
                } else {
                    q.prefilled
                };
                q.prefilled = 0;
                q.decoding = false;
            }
            _ => {}
        }
    }
    credit
}

/// Every check a replay must pass; returns the first failure. The first
/// replay of a trace without a `reference` defines its bytes.
fn check(
    trace: &DecodeTrace,
    replay: &Replay,
    sink_on: bool,
    reference: &mut Option<String>,
) -> Result<(), String> {
    let report = replay.report.as_ref().ok_or("replay panicked")?;
    if report.requests != trace.len() {
        return Err(format!(
            "{} of {} requests finished",
            report.requests,
            trace.len()
        ));
    }
    if !report.kv.conserved() {
        return Err("KV pages not conserved".into());
    }
    if !report.ledger.conserved() {
        return Err("device ledger not conserved".into());
    }
    if sink_on || trace.prompt_ids.is_empty() {
        let cached = cache_credit(trace, &replay.records);
        let expect = trace.total_tokens() - trace.len();
        if report.real_tokens + cached != expect {
            return Err(format!(
                "served tokens {} + cached {cached} != trace tokens {expect}",
                report.real_tokens
            ));
        }
    }
    let json = report.to_json();
    match reference {
        Some(want) if *want == json => Ok(()),
        Some(_) => Err("report bytes differ from the reference".into()),
        None => {
            *reference = Some(json);
            Ok(())
        }
    }
}

/// Everything a set-up builds.
struct Setup {
    traces: Vec<DecodeTrace>,
    cfg: DecodeServeConfig,
    /// Per trace, the report bytes every replay must reproduce: recorded
    /// under `golden/` for the default seed, otherwise those of the trace's
    /// first replay (the warm-up, for trace 0).
    references: Vec<Option<String>>,
}

/// Generates the inputs, builds the config and runs one untimed warm-up
/// replay.
fn setup(kind: Kind, seed: u64) -> Setup {
    let traces: Vec<DecodeTrace> = (0..kind.traces())
        .map(|j| make_trace(kind, seed, j))
        .collect();
    let cfg = config(kind);
    let golden: Vec<&str> = kind.golden().lines().collect();
    let mut references: Vec<Option<String>> = (0..traces.len())
        .map(|j| (seed == DEFAULT_SEED).then(|| golden.get(j).unwrap_or(&"").to_string()))
        .collect();
    let warm = replay(&cfg, &traces[0], kind.sink_on());
    if let Err(e) = check(&traces[0], &warm, kind.sink_on(), &mut references[0]) {
        note_failure(&format!("warm-up replay: {e}"));
    }
    Setup {
        traces,
        cfg,
        references,
    }
}

/// Runs the workload: timed replays with `--trace 0`, the per-layer split
/// with `--trace 1`.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    if args.record {
        let cfg = config(kind);
        let mut lines = String::new();
        for j in 0..kind.traces() {
            let trace = make_trace(kind, DEFAULT_SEED, j);
            let report = replay(&cfg, &trace, kind.sink_on());
            lines.push_str(&report.report.expect("default-seed replay runs").to_json());
            lines.push('\n');
        }
        std::fs::write(kind.golden_path(), lines).expect("write golden reports");
        println!("# recorded {}", kind.golden_path());
        return Outcome {
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
    }
    if args.trace {
        return run_traced(kind, args);
    }
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let s = setup(kind, args.seed);
        setup_s.push(secs(start.elapsed()));
        state = Some(s);
    }
    let mut s = state.expect("at least one set-up");
    let mut clock = RefClock::new(PROBE_EVERY_S);
    let mut calls = Vec::new();
    let mut failed = 0u64;
    let begin = Instant::now();
    while !loop_done(begin, calls.len(), args.seconds) {
        let j = calls.len() % s.traces.len();
        let slice = clock.slice();
        let r = replay(&s.cfg, &s.traces[j], kind.sink_on());
        let work = match check(&s.traces[j], &r, kind.sink_on(), &mut s.references[j]) {
            Ok(()) => r.report.as_ref().map_or(0, |rep| rep.iterations) as f64,
            Err(e) => {
                note_failure(&e);
                failed += 1;
                0.0
            }
        };
        calls.push(CallTime {
            wall_s: r.host_s,
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

/// One step of a replay, rebuilt from its lifecycle and device-lane
/// events.
struct StepRec {
    shape: StepShape,
    /// Modelled seconds the replay charged for the step.
    gpu_s: f64,
    prefill_rows: usize,
    decode_slots: usize,
}

/// Rebuilds every step's shape from the records, in emission order: a
/// device-lane `Step` opens a step, and the `DecodeStep` and
/// `PrefillChunk` events that follow belong to it. A chunk's context is
/// the request's prefill progress after it, which starts at its prefix
/// hit and restarts at zero when a preemption discards its KV.
fn rebuild_steps(records: &[TraceRecord]) -> Vec<StepRec> {
    let mut by_ord: Vec<&TraceRecord> = records.iter().collect();
    by_ord.sort_by_key(|r| r.ord);
    let mut prefilled: BTreeMap<u64, usize> = BTreeMap::new();
    let mut steps: Vec<StepRec> = Vec::new();
    for r in by_ord {
        match r.event {
            TraceEvent::Step {
                prefill_rows,
                decode_slots,
                gpu_s,
            } => steps.push(StepRec {
                shape: StepShape::default(),
                gpu_s,
                prefill_rows,
                decode_slots,
            }),
            TraceEvent::DecodeStep { attended, cached } => {
                if let Some(s) = steps.last_mut() {
                    s.shape.decode.push(DecodeSlot { attended, cached });
                }
            }
            TraceEvent::PrefillChunk { tokens } => {
                let done = prefilled.entry(r.lane).or_insert(0);
                *done += tokens;
                if let Some(s) = steps.last_mut() {
                    s.shape.chunks.push((tokens, *done));
                }
            }
            TraceEvent::PrefixHit { tokens, .. } => {
                prefilled.insert(r.lane, tokens);
            }
            TraceEvent::Preempted { policy } if policy != "swap-to-host" => {
                prefilled.insert(r.lane, 0);
            }
            _ => {}
        }
    }
    steps
}

/// Modelled seconds one step's shape costs through `run_step` alone,
/// on a fresh engine, as the replay prices it.
fn price(cfg: &DecodeServeConfig, shape: &StepShape) -> f64 {
    let mut eng = Engine::new(cfg.device().clone(), cfg.dtype(), cfg.policy().framework());
    run_step(&mut eng, cfg.model(), shape);
    std::hint::black_box(eng.cost_tally());
    eng.latency_ms() / 1e3
}

/// Same-work check of the rebuilt steps: each re-priced step must equal
/// its `Step` event's `gpu_s` net of the PIT index charge and, on the
/// first step of each JIT shape class (the only cache misses), the
/// Algorithm-1 search charge; both charges must sum to the ledger's.
/// Returns the number of steps that fail.
fn check_steps(cfg: &DecodeServeConfig, report: &DecodeReport, steps: &[StepRec]) -> u64 {
    let eng = Engine::new(cfg.device().clone(), cfg.dtype(), cfg.policy().framework());
    let cost = eng.cost();
    let pit = eng.framework.is_pit();
    let ps = |s: f64| (s.max(0.0) * 1e12).round() as u64;
    let mut classes = BTreeSet::new();
    let (mut index_ps, mut search_ps, mut failed) = (0u64, 0u64, 0u64);
    for st in steps {
        let shape = &st.shape;
        let rows = shape.rows();
        let index_s = if pit {
            cost.index_append(rows)
                + cost.scan_pass((rows * 4) as f64)
                + cost.index_append(shape.decode_slots())
        } else {
            0.0
        };
        let residual = st.gpu_s - price(cfg, shape) - index_s;
        let first_of_class = classes.insert(rows.div_ceil(32).max(1));
        let ok_shape = shape.chunk_tokens() == st.prefill_rows
            && shape.decode_slots() == st.decode_slots
            && shape.prefill_lens.is_empty();
        let ok_cost = if first_of_class {
            residual > 0.0 && residual < 1e-3
        } else {
            residual.abs() <= 1e-9 * st.gpu_s
        };
        if ok_shape && ok_cost {
            index_ps += ps(index_s);
            if first_of_class {
                search_ps += ps(residual);
            }
        } else {
            failed += 1;
        }
    }
    let n = steps.len() as u64;
    let near = |a: u64, b: u64, slack: u64| a.abs_diff(b) <= slack;
    if steps.len() != report.iterations
        || !near(index_ps, report.ledger.sparse_conversion_ps, n)
        || !near(
            search_ps,
            report.ledger.jit_search_ps,
            classes.len() as u64 + 1,
        )
    {
        note_failure("re-priced steps do not add up to the replay's ledger");
        failed = failed.max(1);
    }
    if failed > 0 {
        note_failure(&format!(
            "{failed} re-priced steps differ from their Step events"
        ));
    }
    failed
}

/// Per-request state of the KV/prefix call replay.
#[derive(Default)]
struct Lane {
    generated: usize,
    prefilled: usize,
    held: bool,
}

/// Replays the replay's KV-pool and prefix-index calls from its lifecycle
/// records on a pool of the same geometry, each call in its own span.
/// The pool is widened so the replay never runs out of frames (the
/// program's own pressure decisions are already in the record stream).
/// Returns the number of calls the pool or index refused.
fn replay_kv_calls(
    cfg: &DecodeServeConfig,
    trace: &DecodeTrace,
    records: &[TraceRecord],
    spans: &mut Spans,
) -> usize {
    let geo = cfg.kv_config();
    let page = geo.page_size;
    let prompt_pages: usize = trace.prompt_lens.iter().map(|l| l.div_ceil(page)).sum();
    let widened = 4 * geo.num_pages + prompt_pages;
    let mut kv = PagedKvCache::new(
        KvConfig::new(page, widened)
            .with_page_bytes(geo.page_bytes)
            .with_host_pages(if geo.host_pages > 0 { widened } else { 0 }),
    );
    let mut index = cfg.prefix_caching().then(|| RadixPrefixIndex::new(page));
    let mut lanes: BTreeMap<u64, Lane> = BTreeMap::new();
    let mut by_ord: Vec<&TraceRecord> = records.iter().collect();
    by_ord.sort_by_key(|r| r.ord);
    let mut refused = 0usize;
    let mut ok = |r: Result<usize, pit::kv::KvError>| {
        if r.is_err() {
            refused += 1;
        }
    };
    let mut pending_match: BTreeMap<u64, pit::prefix::PrefixMatch> = BTreeMap::new();
    for (op, r) in by_ord.into_iter().enumerate() {
        let op = op as u64;
        let id = r.lane;
        if id >= trace.len() as u64 {
            continue; // device and link lanes
        }
        let prompt = trace.prompt_lens[id as usize];
        let target = trace.output_lens[id as usize].max(1);
        let lane = lanes.entry(id).or_default();
        match r.event {
            TraceEvent::Admitted { .. } => {
                if let Some(ix) = index.as_mut() {
                    let ids = &trace.prompt_ids[id as usize];
                    let m = spans.record("prefix.match", op, || ix.match_prefix(ids));
                    pending_match.insert(id, m);
                }
            }
            TraceEvent::PrefixHit { pages, tokens } => {
                // The program's pool and index decided the hit; share the
                // same pages here when this index holds them.
                let m = pending_match.remove(&id);
                let shared = m.filter(|m| m.pages.len() >= pages);
                let res = match shared {
                    Some(m) => spans.record("kv.op", op, || {
                        kv.alloc_shared(id, &m.pages[..pages], tokens).map(|_| 0)
                    }),
                    None => spans.record("kv.op", op, || kv.alloc(id, tokens)),
                };
                ok(res);
                lane.prefilled = tokens;
                lane.held = true;
            }
            TraceEvent::PrefillChunk { tokens } => {
                let res = if lane.held {
                    spans.record("kv.op", op, || kv.extend(id, tokens))
                } else {
                    spans.record("kv.op", op, || kv.alloc(id, tokens))
                };
                ok(res);
                lane.held = true;
                lane.prefilled += tokens;
                if lane.prefilled >= prompt + lane.generated {
                    if let Some(ix) = index.as_mut() {
                        let full = prompt / page;
                        let table = kv.seq_pages(id).map(|p| p.to_vec()).unwrap_or_default();
                        if full > 0 && table.len() >= full {
                            let ids = &trace.prompt_ids[id as usize][..full * page];
                            let adopted = spans
                                .record("prefix.insert", op, || ix.insert(ids, &table[..full]));
                            if !adopted.is_empty() {
                                let res = spans
                                    .record("kv.op", op, || kv.retain_pages(&adopted).map(|_| 0));
                                ok(res);
                            }
                        }
                    }
                    lane.generated += 1;
                    if lane.generated < target {
                        ok(spans.record("kv.op", op, || kv.extend(id, 1)));
                    }
                }
            }
            TraceEvent::DecodeStep { .. } => {
                lane.generated += 1;
                if lane.generated < target {
                    ok(spans.record("kv.op", op, || kv.extend(id, 1)));
                }
            }
            TraceEvent::Finished => {
                ok(spans.record("kv.op", op, || kv.free(id)));
                lane.held = false;
            }
            TraceEvent::Preempted { policy } if policy != "swap-to-host" => {
                ok(spans.record("kv.op", op, || kv.preempt(id)));
                lane.held = false;
                lane.prefilled = 0;
            }
            TraceEvent::SwapOut { pages, .. } => {
                let plan: Vec<_> = kv
                    .seq_pages(id)
                    .unwrap_or(&[])
                    .iter()
                    .rev()
                    .filter(|&&p| kv.page_refs(p) == 1)
                    .take(pages)
                    .copied()
                    .collect();
                ok(spans.record("kv.op", op, || kv.swap_out(id, &plan).map(|_| 0)));
            }
            TraceEvent::SwapIn { .. } => {
                ok(spans.record("kv.op", op, || kv.swap_in(id)));
            }
            TraceEvent::SparsityEvict { .. } => {
                let len = kv.seq_tokens(id).unwrap_or(0);
                let pos = cfg.kv_sparsity().evict_positions(len, page);
                let table = kv.seq_pages(id).unwrap_or(&[]);
                let evict: Vec<_> = pos.iter().filter_map(|&p| table.get(p).copied()).collect();
                ok(spans.record("kv.op", op, || kv.release_seq_pages(id, &evict)));
            }
            _ => {}
        }
    }
    refused
}

/// Host-time split of one decode workload, from spans the harness records
/// around its own calls. It works on the seed's first trace.
fn run_traced(kind: Kind, args: &Args) -> Outcome {
    let mut spans = Spans::new();
    let mut s = setup(kind, args.seed);
    let trace = &s.traces[0];
    let reference = &mut s.references[0];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |r: &Replay| {
        attempted += 1;
        if let Err(e) = check(trace, r, kind.sink_on(), reference) {
            note_failure(&e);
            failed += 1;
        }
    };

    // 1. The workload's own replays, alternately untraced and inside a
    // span: the difference is the harness's tracing overhead.
    let phase = args.seconds / 4.0;
    let mut plain_ms = Vec::new();
    let begin = Instant::now();
    let mut op = 0u64;
    while plain_ms.len() < 5 || secs(begin.elapsed()) < phase {
        let r = replay(&s.cfg, trace, kind.sink_on());
        plain_ms.push(r.host_s * 1e3);
        tally(&r);
        let id = spans.enter("serve.replay", op);
        let r = replay(&s.cfg, trace, kind.sink_on());
        spans.exit(id);
        tally(&r);
        op += 1;
    }
    let traced_ms: Vec<f64> = spans
        .durations_ns("serve.replay")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();

    // 2. Lifecycle sink on versus off, alternately, on the same trace:
    // the sink's host cost per step.
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    let mut lifecycle = None;
    let begin = Instant::now();
    while on_ms.len() < 5 || secs(begin.elapsed()) < phase {
        let on = replay(&s.cfg, trace, true);
        on_ms.push(on.host_s * 1e3);
        let off = replay(&s.cfg, trace, false);
        off_ms.push(off.host_s * 1e3);
        lifecycle = Some(on);
    }
    let lifecycle = lifecycle.expect("at least one sink-on replay");
    let report = match lifecycle.report.as_ref() {
        Some(r) => r.clone(),
        None => {
            note_failure("sink-on replay panicked");
            return Outcome {
                attempted: attempted + 1,
                failed: failed + 1,
                metrics: layer_metrics(LayerNumbers::default()),
            };
        }
    };
    let events = lifecycle.records.len();
    let steps_n = report.iterations.max(1) as f64;

    // 3. Step pricing over the replay's own step shapes, re-priced pass
    // after pass; each step is a same-work check against its Step event.
    // Passes alternate with replays, so the two medians whose difference
    // is the serving residual see the same host.
    let steps = rebuild_steps(&lifecycle.records);
    let step_failures = check_steps(&s.cfg, &report, &steps);
    attempted += steps.len() as u64;
    failed += step_failures;
    let (mut pass_ms, mut replay_ms) = (Vec::new(), Vec::new());
    let begin = Instant::now();
    while pass_ms.len() < 3 || secs(begin.elapsed()) < phase {
        let start = Instant::now();
        for (i, st) in steps.iter().enumerate() {
            spans.record("models.step_price", i as u64, || {
                std::hint::black_box(price(&s.cfg, &st.shape))
            });
        }
        pass_ms.push(secs(start.elapsed()) * 1e3);
        replay_ms.push(replay(&s.cfg, trace, kind.sink_on()).host_s * 1e3);
    }

    // 4. Dense-GEMM tile choice over the GEMM shapes those steps issue.
    let eng = Engine::new(
        s.cfg.device().clone(),
        s.cfg.dtype(),
        s.cfg.policy().framework(),
    );
    let m = s.cfg.model();
    let tc = s.cfg.dtype().tensor_core_eligible();
    for (i, st) in steps.iter().enumerate() {
        let rows = st.shape.rows();
        for (mm, k, n) in [
            (rows, m.hidden, 3 * m.hidden),
            (2048, 2048, 2048),
            (rows, m.hidden, m.hidden),
            (rows, m.hidden, m.ffn),
            (rows, m.ffn, m.hidden),
            (rows, m.hidden, m.vocab.min(4096)),
        ] {
            spans.record("kernels.best_dense_tile", i as u64, || {
                std::hint::black_box(eng.db.best_dense_tile(eng.cost(), mm, k, n, tc));
            });
        }
    }

    // 5. The replay's KV-pool and prefix-index calls.
    let refused = replay_kv_calls(&s.cfg, trace, &lifecycle.records, &mut spans);
    if refused > 0 {
        eprintln!("hostbench: the KV/prefix call replay saw {refused} refused calls");
    }

    let path = span_dir().join(format!("{}-seed{}.jsonl", kind.name(), args.seed));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!(
            "hostbench: could not write spans to {}: {e}",
            path.display()
        );
    }

    let step_us: Vec<f64> = spans
        .self_ns("models.step_price")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let kv_ns = spans.self_ns("kv.op");
    let mut prefix_us: Vec<f64> = spans.self_ns("prefix.match");
    prefix_us.extend(spans.self_ns("prefix.insert"));
    prefix_us.iter_mut().for_each(|ns| *ns /= 1e3);
    let swap = report.swap.as_ref();
    let pages_moved = swap.map_or(0, |w| w.out_pages + w.in_pages);
    let preempted = report.swap_preemptions + report.swap_fallbacks;
    let metrics = layer_metrics(LayerNumbers {
        step_price_us_p50: median(&step_us),
        step_price_us_p99: percentile(&step_us, 0.99),
        best_dense_tile_ns_p50: median(&spans.self_ns("kernels.best_dense_tile")),
        serve_steps: report.iterations as f64,
        serve_residual_us_per_step: (median(&replay_ms) - median(&pass_ms)) * 1e3 / steps_n,
        kv_op_ns_p50: median(&kv_ns),
        kv_op_ns_p99: percentile(&kv_ns, 0.99),
        kv_preemptions: (report.kv.preemptions + report.swap_preemptions) as f64,
        kv_recompute_waste: ratio(
            report.recomputed_tokens as f64,
            report.processed_tokens as f64,
        ),
        prefix_match_us_p50: median(&prefix_us),
        prefix_hit_rate: report.prefix_hit_rate(),
        swap_pages_moved: pages_moved as f64,
        swap_fallback_frac: ratio(report.swap_fallbacks as f64, preempted as f64),
        trace_events: events as f64,
        trace_overhead_us_per_step: (median(&on_ms) - median(&off_ms)) * 1e3 / steps_n,
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
