//! End-to-end invariants of the request-lifecycle tracing path, driven
//! through the facade against a real decode-serving run under KV
//! pressure (preemptions, swap transfers, restores — the stall phases
//! the breakdown exists to meter).
//!
//! The acceptance criteria pinned here:
//! - per-request phase breakdowns (queue + prefill + decode + stall,
//!   accumulated by the blame pass) sum to the request's end-to-end
//!   latency within 1e-6 s;
//! - the Chrome export parses as a valid `trace_event` JSON array;
//! - a disabled sink is observationally free: the traced entry point
//!   with tracing off produces a report identical to the untraced one;
//! - the device lane's `Step` events reproduce the report's iteration
//!   count, GPU time and row totals.

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace, simulate_decode_trace_traced, DecodePolicy, DecodeServeConfig,
    PreemptPolicy,
};
use pit::trace::{
    blame_spans, chrome_trace_json, JsonValue, Phase, TraceEvent, TraceSink, DEVICE_LANE,
    RESERVED_LANES,
};
use pit::workloads::{DatasetSpec, DecodeSpec, DecodeTrace};

/// A KV-pressured swap run: short prompts, heavy-tailed outputs, a pool
/// a few contexts deep — every lifecycle event type fires.
fn pressured_config() -> DecodeServeConfig {
    DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb())
        .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
        .kv_pages(192)
        .preempt(PreemptPolicy::SwapToHost)
        .build()
        .expect("valid pressured config")
}

fn pressured_trace() -> DecodeTrace {
    DecodeTrace::poisson(
        &DatasetSpec::cola(),
        &DecodeSpec::summarization(),
        48,
        400.0,
        43,
    )
}

#[test]
fn breakdown_phases_sum_to_end_to_end_latency() {
    let sink = TraceSink::enabled();
    let report = simulate_decode_trace_traced(&pressured_config(), &pressured_trace(), &sink);

    let records = sink.snapshot();
    assert!(!records.is_empty(), "an enabled sink records the run");
    let spans = blame_spans(&records);
    assert_eq!(
        spans.values().filter(|s| s.finished).count(),
        report.requests,
        "every served request closed its lifecycle"
    );
    for (seq, span) in &spans {
        let e2e = span.end_s - span.arrival_s;
        let total: f64 = span.phase_s.iter().sum();
        assert!(
            (total - e2e).abs() < 1e-6,
            "seq {seq}: phases sum to {total} but e2e is {e2e}"
        );
        for p in [Phase::Queue, Phase::Prefill, Phase::Decode, Phase::Stall] {
            let v = span.phase_s[p as usize];
            assert!(v >= 0.0, "seq {seq}: negative {p:?} phase {v}");
        }
    }

    // The run was actually pressured: someone stalled, and the summary
    // in the report averages exactly the finished spans.
    let b = report.breakdown.expect("enabled sink yields a breakdown");
    assert_eq!(b.requests, report.requests);
    assert!(
        b.mean_stall_s > 0.0,
        "swap preemption must show up as stall"
    );
    let mean_e2e: f64 = spans
        .values()
        .filter(|s| s.finished)
        .map(|s| s.end_s - s.arrival_s)
        .sum::<f64>()
        / b.requests as f64;
    assert!(
        (b.mean_total_s() - mean_e2e).abs() < 1e-6,
        "summary total {} vs mean e2e {mean_e2e}",
        b.mean_total_s()
    );
}

#[test]
fn chrome_export_is_a_valid_trace_event_array() {
    let sink = TraceSink::enabled();
    simulate_decode_trace_traced(&pressured_config(), &pressured_trace(), &sink);
    let records = sink.snapshot();
    let json = chrome_trace_json(&records);
    let v = JsonValue::parse(&json).expect("export parses as JSON");
    let arr = v.as_array().expect("top level is an array");
    assert!(arr.len() > records.len() / 2, "events were rendered");

    let mut phases = std::collections::BTreeSet::new();
    for ev in arr {
        let obj = ev.as_object().expect("every event is an object");
        let get = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let ph = get("ph").and_then(JsonValue::as_str).expect("has ph");
        assert!(["X", "i", "M"].contains(&ph), "unexpected phase {ph:?}");
        phases.insert(ph.to_string());
        assert!(get("ts").and_then(JsonValue::as_f64).is_some(), "has ts");
        assert_eq!(get("pid").and_then(JsonValue::as_f64), Some(1.0));
        assert!(get("tid").and_then(JsonValue::as_f64).is_some(), "has tid");
        if ph == "X" {
            let dur = get("dur").and_then(JsonValue::as_f64).expect("X has dur");
            assert!(dur >= 0.0, "negative duration {dur}");
        }
    }
    // All three shapes appear: lanes are named (M), steps/phases span
    // time (X), lifecycle markers are instants (i).
    assert_eq!(phases.len(), 3, "expected M, X and i events: {phases:?}");
    // Device and link lanes are labelled, and the swap pressure painted
    // actual transfers onto the link lanes.
    for needle in [
        r#""name":"device""#,
        r#""name":"pcie d2h""#,
        r#""name":"pcie h2d""#,
        r#""name":"swap_out""#,
        r#""name":"swap_in""#,
    ] {
        assert!(json.contains(needle), "missing {needle} in export");
    }
}

#[test]
fn disabled_sink_is_observationally_free() {
    // JIT-search cost is modelled (Algorithm 1's candidate count), not
    // measured, so the virtual clock replays bit-identically even under
    // KV pressure — where a timing wobble would flip preemption victims.
    // The traced and untraced entry points must therefore produce
    // *exactly* equal reports, breakdown aside.
    let cfg = pressured_config();
    let trace = pressured_trace();
    let untraced = simulate_decode_trace(&cfg, &trace);
    assert!(
        untraced.kv.preemptions > 0 || untraced.swap_preemptions > 0,
        "equivalence must be exercised under pressure"
    );
    let disabled = TraceSink::disabled();
    let traced_off = simulate_decode_trace_traced(&cfg, &trace, &disabled);
    assert!(!disabled.is_enabled());
    assert!(
        disabled.snapshot().is_empty(),
        "disabled sink records nothing"
    );
    assert!(untraced.breakdown.is_none() && untraced.blame.is_none());
    assert!(
        traced_off.breakdown.is_none() && traced_off.blame.is_none(),
        "no breakdown or blame without a sink"
    );
    assert_eq!(untraced, traced_off, "disabled sink is exactly free");
    assert!(untraced.ledger.conserved());

    // Tracing on perturbs nothing but the trace-derived report blocks:
    // the trace rides the virtual clock as pure observation, so every
    // scheduling decision and counter is identical to the untraced run.
    let sink = TraceSink::enabled();
    let mut traced_on = simulate_decode_trace_traced(&cfg, &trace, &sink);
    assert!(traced_on.breakdown.is_some());
    assert!(traced_on.blame.is_some());
    traced_on.breakdown = None;
    traced_on.blame = None;
    assert_eq!(
        untraced, traced_on,
        "tracing only adds the breakdown and blame blocks"
    );
    // Sequence lanes stay clear of the reserved device/link lanes.
    assert!(sink
        .snapshot()
        .iter()
        .all(|r| r.lane < RESERVED_LANES || r.lane == pit::trace::DEVICE_LANE));
}

/// Totals over the device lane's `Step` events, in step order: the step
/// count, Σ `gpu_s`, Σ `prefill_rows` and Σ `decode_slots`.
fn device_lane_totals(sink: &TraceSink) -> (usize, f64, usize, usize) {
    let mut totals = (0, 0.0, 0, 0);
    for r in sink.snapshot() {
        if let TraceEvent::Step {
            prefill_rows,
            decode_slots,
            gpu_s,
        } = r.event
        {
            assert_eq!(r.lane, DEVICE_LANE, "steps run on the device lane");
            totals.0 += 1;
            totals.1 += gpu_s;
            totals.2 += prefill_rows;
            totals.3 += decode_slots;
        }
    }
    totals
}

#[test]
fn device_lane_reproduces_the_report() {
    let trace = pressured_trace();
    let static_padded =
        DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb())
            .policy(DecodePolicy::StaticPadded { max_batch: 8 })
            .build()
            .expect("valid static config");
    for (cfg, padded) in [(pressured_config(), false), (static_padded, true)] {
        let sink = TraceSink::enabled();
        let report = simulate_decode_trace_traced(&cfg, &trace, &sink);
        let (steps, gpu_s, prefill_rows, decode_slots) = device_lane_totals(&sink);
        let policy = &report.policy;
        assert_eq!(steps, report.iterations, "{policy}: one Step per iteration");
        // Summed in step order from 0.0, as the report sums them.
        assert_eq!(
            gpu_s.to_bits(),
            report.gpu_time_s.to_bits(),
            "{policy}: steps sum to {gpu_s} s, the report to {} s",
            report.gpu_time_s
        );
        assert_eq!(decode_slots, report.decode_tokens, "{policy}: decode slots");
        if padded {
            // The lane shows the rectangle's padded prefill rows; the
            // report counts the real prompt rows only.
            assert!(
                prefill_rows > report.prefill_tokens,
                "{policy}: {prefill_rows} lane rows vs {} real",
                report.prefill_tokens
            );
        } else {
            assert_eq!(
                prefill_rows, report.prefill_tokens,
                "{policy}: prefill rows"
            );
        }
    }
}

/// A replay that panics still hands the sink every record it emitted
/// before the panic: the replay buffers its records and flushes them
/// while it unwinds. Six small requests fit a 4-page pool; a seventh,
/// arriving after they finish, cannot fit one prefill chunk and aborts
/// the run. Its sink must hold the six-request run's records, ordinals
/// included, followed only by what the seventh request emitted.
#[test]
fn a_panicking_replay_leaves_its_records_in_the_sink() {
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 2;
    let cfg = DecodeServeConfig::builder(model, DeviceSpec::a100_80gb())
        .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
        .kv_pages(4)
        .build()
        .expect("valid tiny-pool config");
    let small = DecodeTrace {
        prompt_lens: vec![8; 6],
        output_lens: vec![4; 6],
        arrival_s: (0..6).map(|i| i as f64 * 1e-3).collect(),
        prompt_ids: Vec::new(),
    };
    let mut doomed = small.clone();
    doomed.prompt_lens.push(200);
    doomed.output_lens.push(4);
    doomed.arrival_s.push(50.0);

    let whole = TraceSink::enabled();
    let report = simulate_decode_trace_traced(&cfg, &small, &whole);
    assert_eq!(report.requests, small.len());

    let sink = TraceSink::enabled();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simulate_decode_trace_traced(&cfg, &doomed, &sink)
    }));
    assert!(
        run.is_err(),
        "a request larger than the pool aborts the run"
    );

    let by_ord = |sink: &TraceSink| {
        let mut records = sink.snapshot();
        records.sort_by_key(|r| r.ord);
        records
    };
    let (want, got) = (by_ord(&whole), by_ord(&sink));
    assert!(!want.is_empty());
    assert!(got.len() >= want.len(), "records were lost in the panic");
    assert_eq!(got[..want.len()], want[..]);
    assert!(
        got[want.len()..].iter().all(|r| r.lane == 6),
        "only the doomed request emitted after the others finished"
    );
}
