//! Live-observability invariants across the whole stack: a scrape
//! endpoint attached to an in-flight replay must (1) never perturb the
//! replay — the final report is byte-identical with and without the hub,
//! even while scrapers hammer the endpoint; (2) serve only well-formed
//! payloads — every `/metrics` body round-trips through
//! `parse_exposition`, `/slo` and `/series` parse as JSON; and (3) show
//! monotone counters — a later scrape never reports a smaller value for
//! any counter sample.

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace_observed, simulate_decode_trace_traced, DecodePolicy, DecodeServeConfig,
};
use pit::serve::{serve_trace_arrivals_observed, AdmissionMode, BatchPolicy, ServeConfig};
use pit::trace::{
    parse_exposition, DriftAlarm, DriftBaseline, DriftDetector, DriftKind, HubConfig, JsonValue,
    MetricsHub, ScrapeServer, SloMonitor, SloReport, SloTarget, TraceSink,
};
use pit::workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, DecodeTrace};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A 2-layer OPT keeps the analytic per-step pass fast in CI.
fn small_decode_cfg(token_budget: usize) -> DecodeServeConfig {
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 2;
    DecodeServeConfig::builder(model, DeviceSpec::a100_80gb())
        .policy(DecodePolicy::ContinuousPaddingFree { token_budget })
        .build()
        .expect("valid test config")
}

fn decode_trace(n: usize) -> DecodeTrace {
    seeded_decode_trace(n, 31)
}

fn seeded_decode_trace(n: usize, seed: u64) -> DecodeTrace {
    DecodeTrace::poisson(
        &DatasetSpec::mnli(),
        &DecodeSpec::geometric(24.0, 1, 96),
        n,
        400.0,
        seed,
    )
}

/// The SLO the hubbed decode replays are held to.
const TARGET: SloTarget = SloTarget {
    ttft_s: 0.5,
    itl_s: 0.05,
    objective: 0.99,
};

fn get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect scrape endpoint");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("write");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{path}: {head}");
    body.to_string()
}

/// Every counter sample in a parsed `/metrics` body, keyed by family +
/// suffix + labels so labelled families compare sample-by-sample.
fn counter_values(body: &str) -> BTreeMap<String, f64> {
    let expo = parse_exposition(body).expect("scrape parses");
    let mut out = BTreeMap::new();
    for fam in expo.families() {
        if fam.kind != pit::trace::MetricKind::Counter {
            continue;
        }
        for s in &fam.samples {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.insert(
                format!("{}{}{{{}}}", fam.name, s.suffix, labels.join(",")),
                s.value,
            );
        }
    }
    out
}

#[test]
fn hub_and_concurrent_scrapers_leave_the_report_byte_identical() {
    let cfg = small_decode_cfg(128);
    let trace = decode_trace(48);

    // Reference: hub-free traced run.
    let sink = TraceSink::enabled();
    let free = simulate_decode_trace_traced(&cfg, &trace, &sink);

    // Hubbed run with a live endpoint being hammered from two threads
    // for the whole duration of the replay.
    let hub = Arc::new(MetricsHub::new(HubConfig {
        window_s: 0.25,
        slo: Some(TARGET),
        drift: None,
    }));
    let server = ScrapeServer::bind(hub.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let hubbed = std::thread::scope(|s| {
        for path in ["/metrics", "/slo", "/series"] {
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let body = get(addr, path);
                    match path {
                        "/metrics" => {
                            parse_exposition(&body).expect("mid-run scrape parses");
                        }
                        _ => {
                            JsonValue::parse(&body).expect("mid-run JSON parses");
                        }
                    }
                }
            });
        }
        let hub_sink = TraceSink::enabled();
        let (hubbed, _) = simulate_decode_trace_observed(&cfg, &trace, &hub_sink, 0, Some(&hub));
        stop.store(true, Ordering::Relaxed);
        hubbed
    });
    let served = server.shutdown();
    assert!(served > 0, "scrapers reached the endpoint");
    assert_eq!(
        hubbed.to_json(),
        free.to_json(),
        "hub + concurrent scrapers must not change the report by one byte"
    );
}

#[test]
fn scrapes_round_trip_and_counters_never_decrease() {
    let cfg = small_decode_cfg(96);
    let trace = decode_trace(64);
    let hub = Arc::new(MetricsHub::with_defaults());
    let server = ScrapeServer::bind(hub.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let scrapes = std::thread::scope(|s| {
        let scraper = s.spawn(move || {
            let mut bodies = Vec::new();
            // Keep scraping until the run completes (a fast replay may
            // finish before the first scrape), then take two more —
            // counters must hold steady across post-run scrapes too.
            let mut after_done = 0;
            while after_done < 3 {
                let body = get(addr, "/metrics");
                // Match the sample line, not the HELP line (whose text
                // also starts with "1").
                if body.contains("\npit_hub_run_complete 1\n") {
                    after_done += 1;
                }
                bodies.push(body);
                assert!(
                    JsonValue::parse(&get(addr, "/slo")).is_ok(),
                    "/slo parses mid-run"
                );
                assert!(
                    JsonValue::parse(&get(addr, "/series")).is_ok(),
                    "/series parses mid-run"
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            bodies
        });
        let sink = TraceSink::disabled();
        simulate_decode_trace_observed(&cfg, &trace, &sink, 0, Some(&hub));
        scraper.join().expect("scraper panicked")
    });
    server.shutdown();

    assert!(
        scrapes.len() >= 2,
        "at least an in-flight and a final scrape"
    );
    let mut prev: Option<BTreeMap<String, f64>> = None;
    for body in &scrapes {
        // render ∘ parse is the identity on every served body.
        let expo = parse_exposition(body).expect("scrape parses");
        assert_eq!(&expo.render(), body, "scrape round-trips");
        let cur = counter_values(body);
        if let Some(prev) = prev.as_ref() {
            for (k, v) in prev {
                let now = cur
                    .get(k)
                    .unwrap_or_else(|| panic!("counter {k} disappeared between scrapes"));
                assert!(now >= v, "counter {k} went backwards: {v} -> {now}");
            }
        }
        prev = Some(cur);
    }
    let last = prev.expect("at least one scrape");
    assert_eq!(
        last.get("pit_hub_finished_total{}").copied(),
        Some(trace.len() as f64),
        "every request finished in the final scrape"
    );
}

#[test]
fn threaded_runtime_publishes_consistent_hub_totals() {
    // Blocking admission with padded batches (prefill rows exceed prompt
    // tokens), and load shedding over a 2-deep queue.
    for (admission, policy, queue_capacity) in [
        (
            AdmissionMode::Block,
            BatchPolicy::PaddedToLongest { max_batch: 8 },
            64,
        ),
        (
            AdmissionMode::RejectWhenFull,
            BatchPolicy::PaddingFree { token_budget: 1024 },
            2,
        ),
    ] {
        let mut cfg = ServeConfig::new(policy);
        cfg.model.layers = 2;
        cfg.admission = admission;
        cfg.queue_capacity = queue_capacity;
        // High rate so the replay finishes quickly in CI.
        let trace = ArrivalTrace::poisson(&DatasetSpec::mnli(), 48, 5000.0, 29);
        let hub = Arc::new(MetricsHub::with_defaults());
        let report = serve_trace_arrivals_observed(&cfg, &trace, Some(&hub));
        assert_eq!(report.requests + report.rejected, trace.len());

        let body = hub.render();
        let expo = parse_exposition(&body).expect("hub renders a valid exposition");
        assert_eq!(expo.render(), body);
        let counters = counter_values(&body);
        let counter = |k: &str| counters[&format!("{k}{{}}")];
        assert_eq!(
            counter("pit_hub_admitted_total") + counter("pit_hub_rejected_total"),
            trace.len() as f64,
            "{admission:?}: the submitter published every arrival"
        );
        assert_eq!(counter("pit_hub_rejected_total"), report.rejected as f64);
        assert_eq!(
            counter("pit_hub_finished_total"),
            report.requests as f64,
            "{admission:?}: workers published every completion"
        );
        let e2e_count = expo
            .families()
            .iter()
            .find(|f| f.name == "pit_hub_e2e_seconds")
            .and_then(|f| f.samples.iter().find(|s| s.suffix == "_count"))
            .expect("e2e summary rendered")
            .value;
        assert_eq!(e2e_count, report.requests as f64, "every lane closed");
        assert_eq!(
            counter("pit_hub_prefill_chunk_tokens_total"),
            report.real_tokens as f64,
            "{admission:?}: prompt tokens agree with the report"
        );
        assert_eq!(
            counter("pit_hub_prefill_tokens_total"),
            report.padded_tokens as f64,
            "{admission:?}: prefill rows agree with the report"
        );
        assert_eq!(counter("pit_hub_steps_total"), report.batches as f64);
        // The whole-run gauge block marks the run complete (sample line,
        // not the HELP line).
        assert!(
            body.contains("\npit_hub_run_complete 1\n"),
            "finish() sealed the run"
        );
    }
}

/// Every number of an SLO report, as bits.
fn slo_bits(r: &SloReport) -> Vec<u64> {
    let mut bits: Vec<u64> = [
        r.target.ttft_s,
        r.target.itl_s,
        r.target.objective,
        r.window_s,
        r.ttft_attainment,
        r.itl_attainment,
        r.ttft_burn_rate,
        r.itl_burn_rate,
        r.worst_window_burn_rate,
        r.busy_fraction.expect("ledger joined"),
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect();
    for w in &r.windows {
        bits.extend([w.ttft_total, w.ttft_ok, w.itl_total, w.itl_ok]);
        bits.extend(
            [w.start_s, w.ttft_attainment, w.itl_attainment, w.burn_rate].map(f64::to_bits),
        );
    }
    bits.extend(alarm_bits(&r.drift));
    bits
}

fn alarm_bits(alarms: &[DriftAlarm]) -> Vec<u64> {
    let mut bits = Vec::new();
    for a in alarms {
        assert_eq!(a.kind, DriftKind::QuantileShift);
        bits.push(a.metric.len() as u64);
        bits.extend(a.metric.bytes().map(u64::from));
        bits.extend([a.quantile, a.baseline, a.observed, a.rel_change].map(f64::to_bits));
    }
    bits
}

#[test]
fn live_slo_and_drift_equal_the_post_hoc_readers_bit_for_bit() {
    // Tight enough that some first tokens and some gaps miss.
    const TIGHT: SloTarget = SloTarget {
        ttft_s: 0.001,
        itl_s: 0.0005,
        objective: 0.9,
    };
    let cfg = small_decode_cfg(128);
    // A baseline from another seed's traffic.
    let base_sink = TraceSink::enabled();
    simulate_decode_trace_traced(&cfg, &seeded_decode_trace(48, 7), &base_sink);
    let baseline = DriftBaseline::from_records(&base_sink.drain());

    let hub = MetricsHub::new(HubConfig {
        window_s: 0.02,
        slo: Some(TIGHT),
        drift: Some(baseline.clone()),
    });
    let sink = TraceSink::enabled();
    let (report, _) = simulate_decode_trace_observed(&cfg, &decode_trace(48), &sink, 0, Some(&hub));
    let records = sink.drain();

    let mut monitor = SloMonitor::new(TIGHT, 0.02);
    monitor.observe(&records);
    let mut expected = monitor.report(Some(&report.ledger));
    let mut detector = DriftDetector::new(baseline);
    detector.observe(&records);
    expected.drift = detector
        .alarms()
        .into_iter()
        .filter(|a| a.kind == DriftKind::QuantileShift)
        .collect();
    assert!(!expected.drift.is_empty(), "the seeds' latencies differ");

    let live = hub.slo_report().expect("slo configured");
    assert!(live.windows.len() > 1, "the replay spans several windows");
    assert!(
        live.ttft_attainment < 1.0 && live.itl_attainment < 1.0,
        "the target is tight enough to miss"
    );
    assert_eq!(slo_bits(&live), slo_bits(&expected));
    assert_eq!(alarm_bits(&hub.alarms()), alarm_bits(&expected.drift));
}
