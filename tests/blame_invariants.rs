//! Property tests for the causal-blame observability layer.
//!
//! The contract under test is *exact tiling*: the blame analyzer splits
//! every finished request's latency into causal categories, and those
//! tiles must sum back to the measured latency to floating-point
//! accuracy — `Σ ttft_by_cause == first_token - arrival` and
//! `Σ e2e_by_cause == end - arrival` — for every scheduling regime the
//! simulator supports (dense and sparse attention, recompute and swap
//! preemption, prefix caching, static padding). A residual would mean a
//! gap in the trace was attributed to nobody (or to two owners), and the
//! percentile tables `trace_explain` prints would silently lie.
//!
//! The same lifecycle fold must also reproduce the report: the TTFT, ITL
//! and e2e percentiles folded from the stream equal the ones the decode
//! loop measured directly, and every finished request carries one token
//! event per output token.
//!
//! The exemplar reservoir rides the same stream, so it is held to the
//! same replay discipline here: two runs produce identical exemplar
//! sets, the top-k bound holds, and collection survives a disabled or
//! head-sampled sink without perturbing the simulation.

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace, simulate_decode_trace_observed, simulate_decode_trace_traced,
    DecodePolicy, DecodeServeConfig, DecodeServeConfigBuilder, KvSparsityPolicy, PreemptPolicy,
};
use pit::serve::{DecodeReport, Percentiles};
use pit::trace::{
    blame_spans, BlameAggregate, BlameBreakdown, BlameCategory, BlameSummary, BreakdownSummary,
    LatencySketches, LifecycleFold, MetricsHub, TraceEvent, TraceSink, RESERVED_LANES,
};
use pit::workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, DecodeTrace, SharedPrefixSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Tiles must close to well under a virtual-clock tick; 1e-9 s leaves
/// room only for benign f64 summation error.
const TILING_EPS: f64 = 1e-9;

/// A 2-layer OPT keeps the analytic per-step pass fast under proptest.
fn small_builder(policy: DecodePolicy) -> DecodeServeConfigBuilder {
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 2;
    DecodeServeConfig::builder(model, DeviceSpec::a100_80gb()).policy(policy)
}

/// The scheduling regimes whose stall paths emit distinct wait causes.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Continuous padding-free, dense attention, no pressure.
    Dense,
    /// Sliding-window KV sparsity trims the decode read set.
    SlidingWindow,
    /// Heavy-hitter KV sparsity.
    HeavyHitter,
    /// Pool a few contexts deep; victims re-prefill on re-admission.
    RecomputePressure,
    /// Same pressure; victims swap over the modelled PCIe link.
    SwapPressure,
    /// Radix-indexed prompt reuse on a shared-prefix trace.
    PrefixCached,
    /// The padded rectangle (static batching).
    StaticPadded,
}

const SCENARIOS: [Scenario; 7] = [
    Scenario::Dense,
    Scenario::SlidingWindow,
    Scenario::HeavyHitter,
    Scenario::RecomputePressure,
    Scenario::SwapPressure,
    Scenario::PrefixCached,
    Scenario::StaticPadded,
];

fn config(s: Scenario) -> DecodeServeConfig {
    let continuous = DecodePolicy::ContinuousPaddingFree { token_budget: 128 };
    match s {
        Scenario::Dense => small_builder(continuous),
        Scenario::SlidingWindow => {
            small_builder(continuous).kv_sparsity(KvSparsityPolicy::SlidingWindow { recent: 32 })
        }
        Scenario::HeavyHitter => {
            small_builder(continuous).kv_sparsity(KvSparsityPolicy::HeavyHitter {
                recent: 16,
                heavy: 16,
            })
        }
        // One worst-case summarization context plus headroom: decode
        // growth must evict, so the preemption wait causes fire.
        Scenario::RecomputePressure => {
            small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
                .kv_pages(64)
                .preempt(PreemptPolicy::Recompute)
        }
        Scenario::SwapPressure => {
            small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
                .kv_pages(64)
                .preempt(PreemptPolicy::SwapToHost)
        }
        Scenario::PrefixCached => {
            small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
                .prefix_caching(true)
                .kv_pages(64)
        }
        Scenario::StaticPadded => small_builder(DecodePolicy::StaticPadded { max_batch: 16 }),
    }
    .build()
    .expect("valid scenario config")
}

fn workload(s: Scenario, n: usize, seed: u64) -> DecodeTrace {
    match s {
        // Short prompts with heavy-tailed outputs: KV growth outruns the
        // free list, so preemption actually engages.
        Scenario::RecomputePressure | Scenario::SwapPressure => DecodeTrace::poisson(
            &DatasetSpec::cola(),
            &DecodeSpec::summarization(),
            n,
            500.0,
            seed,
        ),
        // Bursty shared-prefix arrivals: admissions hit the radix index.
        Scenario::PrefixCached => {
            let spec = SharedPrefixSpec::assistants();
            let arrivals = ArrivalTrace::bursty(&DatasetSpec::mnli(), n, 400.0, 0.2, 0.4, seed);
            spec.decode_trace(
                &DecodeSpec::geometric(24.0, 1, 96),
                arrivals.arrival_s,
                seed,
            )
        }
        _ => DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(24.0, 1, 96),
            n,
            400.0,
            seed,
        ),
    }
}

/// Asserts the exact-tiling contract on one request's breakdown.
fn assert_tiles(lane: u64, b: &BlameBreakdown) {
    for (i, &t) in b.ttft_by_cause.iter().enumerate() {
        assert!(
            t >= 0.0 && b.e2e_by_cause[i] >= 0.0,
            "lane {lane}: negative tile in category {i}"
        );
    }
    if let Some(ft) = b.first_token_s {
        let residual = (b.ttft_total_s() - (ft - b.arrival_s)).abs();
        assert!(
            residual < TILING_EPS,
            "lane {lane}: TTFT tiles leave a {residual:e} s residual \
             (sum {} vs measured {})",
            b.ttft_total_s(),
            ft - b.arrival_s,
        );
    }
    let residual = (b.e2e_total_s() - (b.end_s - b.arrival_s)).abs();
    assert!(
        residual < TILING_EPS,
        "lane {lane}: e2e tiles leave a {residual:e} s residual \
         (sum {} vs measured {})",
        b.e2e_total_s(),
        b.end_s - b.arrival_s,
    );
}

/// One cause, its request count and the bits of its seven f64s.
type CauseBits = (BlameCategory, u64, [u64; 7]);

/// Every f64 of a blame summary as bits, with its counts and causes.
fn summary_bits(s: &BlameSummary) -> (u64, [u64; 2], Vec<CauseBits>) {
    let causes = s
        .causes
        .iter()
        .map(|c| {
            let f = [
                c.ttft_s,
                c.ttft_share,
                c.e2e_s,
                c.e2e_share,
                c.p50_s,
                c.p95_s,
                c.p99_s,
            ];
            (c.cause, c.requests, f.map(f64::to_bits))
        })
        .collect();
    (
        s.requests,
        [s.ttft_total_s, s.e2e_total_s].map(f64::to_bits),
        causes,
    )
}

/// Every f64 of a phase breakdown as bits, with its request count.
fn breakdown_bits(b: &BreakdownSummary) -> (usize, [u64; 4]) {
    let means = [
        b.mean_queue_s,
        b.mean_prefill_s,
        b.mean_decode_s,
        b.mean_stall_s,
    ];
    (b.requests, means.map(f64::to_bits))
}

/// The replay folds blame online, in emission order, over the lanes the
/// sink keeps. That equals folding the sink's time-sorted records after
/// the run when no sequence lane's time ever decreases in emission
/// (`ord`) order — asserted here — and the report must carry exactly the
/// after-the-run fold's blame and breakdown, bit for bit.
fn assert_online_fold_is_the_replay_fold(what: &str, report: &DecodeReport, sink: &TraceSink) {
    let records = sink.snapshot();
    let mut by_ord: Vec<_> = records.iter().collect();
    by_ord.sort_by_key(|r| r.ord);
    let mut last_s: BTreeMap<u64, f64> = BTreeMap::new();
    for r in by_ord.into_iter().filter(|r| r.lane < RESERVED_LANES) {
        if let Some(prev) = last_s.insert(r.lane, r.t_s) {
            assert!(
                r.t_s >= prev,
                "{what}: lane {} steps back from {prev} to {} at ord {}",
                r.lane,
                r.t_s,
                r.ord
            );
        }
    }
    let spans = blame_spans(&records);
    let mut aggregate = BlameAggregate::new();
    aggregate.fold_spans(&spans);
    let blame = report.blame.as_ref().expect("traced run carries blame");
    assert_eq!(
        summary_bits(blame),
        summary_bits(&aggregate.summary()),
        "{what}: report blame differs from the after-the-run fold"
    );
    let breakdown = report
        .breakdown
        .as_ref()
        .expect("traced run carries a breakdown");
    assert_eq!(
        breakdown_bits(breakdown),
        breakdown_bits(&BreakdownSummary::of(&spans)),
        "{what}: report breakdown differs from the after-the-run fold"
    );
}

proptest! {
    // Each case runs a full (small) simulation; keep the budget modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact tiling holds for every request, in every scheduling regime,
    /// at every seed — and tracing never perturbs the simulation.
    #[test]
    fn blame_tiles_latency_exactly(
        scenario_ix in 0usize..SCENARIOS.len(),
        n in 8usize..=24,
        seed in 1u64..=512,
    ) {
        let scenario = SCENARIOS[scenario_ix];
        let cfg = config(scenario);
        let trace = workload(scenario, n, seed);

        let sink = TraceSink::enabled();
        let traced = simulate_decode_trace_traced(&cfg, &trace, &sink);
        // The blame spans, and one pass of the lifecycle fold: the latency
        // sketches and each lane's token-event count.
        let records = sink.snapshot();
        let spans = blame_spans(&records);
        let mut latency = LatencySketches::default();
        let mut tokens: BTreeMap<u64, usize> = BTreeMap::new();
        let mut fold = LifecycleFold::new();
        for r in &records {
            if let Some(l) = fold.observe(r.t_s, r.lane, &r.event).and_then(|s| s.latency) {
                latency.record(l);
            }
            if matches!(r.event, TraceEvent::FirstToken | TraceEvent::DecodeStep { .. }) {
                *tokens.entry(r.lane).or_default() += 1;
            }
        }

        // Every request got a lifecycle and finished it.
        prop_assert_eq!(spans.len(), trace.len(), "{:?}: one span per request", scenario);
        let mut finished = 0u64;
        for (&lane, b) in &spans {
            prop_assert!(b.finished, "{:?}: lane {} never finished", scenario, lane);
            prop_assert!(
                b.first_token_s.is_some(),
                "{:?}: lane {} finished without a first token", scenario, lane
            );
            assert_tiles(lane, b);
            prop_assert_eq!(
                tokens.get(&lane).copied().unwrap_or(0),
                trace.output_lens[lane as usize].max(1),
                "{:?}: lane {} token events vs output length", scenario, lane
            );
            finished += 1;
        }

        // The stream reproduces the report's directly measured latencies.
        for (name, folded, reported) in [
            ("ttft", &latency.ttft, traced.ttft),
            ("itl", &latency.itl, traced.itl),
            ("e2e", &latency.e2e, traced.e2e),
        ] {
            prop_assert_eq!(
                Percentiles::from_sketch(folded),
                reported,
                "{:?}: stream {} percentiles differ from the report", scenario, name
            );
        }

        // The report's aggregate saw the same population and mass.
        let blame = traced.blame.as_ref().expect("traced run carries blame");
        prop_assert_eq!(blame.requests, finished);
        let span_e2e: f64 = spans.values().map(BlameBreakdown::e2e_total_s).sum();
        prop_assert!(
            (blame.e2e_total_s - span_e2e).abs() < 1e-6,
            "{:?}: aggregate e2e {} != span sum {}", scenario, blame.e2e_total_s, span_e2e
        );

        // The online fold is the after-the-run fold.
        assert_online_fold_is_the_replay_fold(&format!("{scenario:?}"), &traced, &sink);

        // Observation is free: the traced report minus the trace-derived
        // blocks is the untraced report, bit for bit.
        let free = simulate_decode_trace(&cfg, &trace);
        let mut stripped = traced.clone();
        stripped.breakdown = None;
        stripped.blame = None;
        prop_assert_eq!(stripped, free, "{:?}: tracing perturbed the run", scenario);
    }
}

#[test]
fn exemplar_reservoir_is_deterministic_and_bounded() {
    let trace = workload(Scenario::SwapPressure, 32, 23);
    let cfg = config(Scenario::SwapPressure);
    let k = 3usize;

    let sink_a = TraceSink::enabled();
    let (report_a, ex_a) = simulate_decode_trace_observed(&cfg, &trace, &sink_a, k, None);
    let sink_b = TraceSink::enabled();
    let (report_b, ex_b) = simulate_decode_trace_observed(&cfg, &trace, &sink_b, k, None);

    // Bit-deterministic replay: same reports, same exemplars, same
    // captured timelines (record for record).
    assert_eq!(report_a, report_b);
    assert_eq!(ex_a, ex_b);

    for (name, list) in [("ttft", &ex_a.ttft), ("itl", &ex_a.itl), ("e2e", &ex_a.e2e)] {
        assert!(!list.is_empty(), "{name}: pressured run must have tails");
        assert!(list.len() <= k, "{name}: reservoir exceeded k={k}");
        for pair in list.windows(2) {
            assert!(
                pair[0].value_s >= pair[1].value_s,
                "{name}: exemplars not ranked worst-first"
            );
        }
        for ex in list {
            assert!(
                !ex.records.is_empty(),
                "{name}: exemplar lane {} kept no timeline",
                ex.lane
            );
            assert!(
                ex.records.iter().all(|r| r.lane == ex.lane),
                "{name}: foreign records leaked into lane {}",
                ex.lane
            );
        }
    }
}

#[test]
fn exemplars_survive_disabled_and_sampled_sinks() {
    let trace = workload(Scenario::Dense, 32, 31);
    let cfg = config(Scenario::Dense);
    let k = 2usize;

    let full_sink = TraceSink::enabled();
    let (full_report, full_ex) = simulate_decode_trace_observed(&cfg, &trace, &full_sink, k, None);

    // The reservoir buffers timelines independently of the sink, so the
    // same exemplars come back when the sink drops records — whether
    // head-sampled (1-in-5 lanes) or fully disabled.
    let sampled_sink = TraceSink::enabled().with_sampling(5);
    let (sampled_report, sampled_ex) =
        simulate_decode_trace_observed(&cfg, &trace, &sampled_sink, k, None);
    assert_eq!(
        full_ex, sampled_ex,
        "head sampling must not starve exemplars"
    );

    let disabled_sink = TraceSink::disabled();
    let (disabled_report, disabled_ex) =
        simulate_decode_trace_observed(&cfg, &trace, &disabled_sink, k, None);
    assert_eq!(
        full_ex, disabled_ex,
        "a disabled sink must not starve exemplars"
    );

    // The sink kept strictly fewer sequence records under sampling, and
    // none at all when disabled — observability stayed opt-in.
    let seq_records = |sink: &TraceSink| {
        sink.snapshot()
            .iter()
            .filter(|r| r.lane < pit::trace::RESERVED_LANES)
            .count()
    };
    assert!(seq_records(&sampled_sink) < seq_records(&full_sink));
    assert!(!disabled_sink.is_enabled());

    // And none of it perturbed the simulation: modulo the trace-derived
    // report blocks, all three runs are the same run.
    let strip = |mut r: pit::serve::DecodeReport| {
        r.breakdown = None;
        r.blame = None;
        r
    };
    let full = strip(full_report);
    assert_eq!(full, strip(sampled_report));
    assert_eq!(full, strip(disabled_report));
}

#[test]
fn zero_k_disables_the_reservoir() {
    let trace = workload(Scenario::Dense, 16, 7);
    let cfg = config(Scenario::Dense);
    let sink = TraceSink::enabled();
    let (_, ex) = simulate_decode_trace_observed(&cfg, &trace, &sink, 0, None);
    assert!(ex.ttft.is_empty() && ex.itl.is_empty() && ex.e2e.is_empty());
}

#[test]
fn online_fold_matches_under_head_sampling_and_with_a_hub() {
    for (i, scenario) in SCENARIOS.into_iter().enumerate() {
        let cfg = config(scenario);
        let trace = workload(scenario, 24, 40 + i as u64);
        let full_sink = TraceSink::enabled();
        let full = simulate_decode_trace_traced(&cfg, &trace, &full_sink);

        // Head-sampled: the fold sees only the kept lanes, as the sink does.
        let sampled_sink = TraceSink::enabled().with_sampling(3);
        let sampled = simulate_decode_trace_traced(&cfg, &trace, &sampled_sink);
        assert_online_fold_is_the_replay_fold(
            &format!("{scenario:?}, 1-in-3 lanes"),
            &sampled,
            &sampled_sink,
        );
        let blame = sampled.blame.as_ref().expect("sampled run carries blame");
        assert!(
            blame.requests < full.blame.as_ref().unwrap().requests,
            "{scenario:?}: sampling folded every lane"
        );

        // With a hub attached the report does not move by one bit.
        let hub = MetricsHub::with_defaults();
        let hub_sink = TraceSink::enabled();
        let (hubbed, _) = simulate_decode_trace_observed(&cfg, &trace, &hub_sink, 2, Some(&hub));
        assert_online_fold_is_the_replay_fold(&format!("{scenario:?}, hub"), &hubbed, &hub_sink);
        assert_eq!(
            hubbed.to_json(),
            full.to_json(),
            "{scenario:?}: the hub moved the report"
        );
        assert_eq!(hub_sink.snapshot(), full_sink.snapshot());
    }
}
