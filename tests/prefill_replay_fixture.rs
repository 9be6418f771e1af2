//! Byte gate on the prefill runtime's modelled output.
//!
//! The virtual-clock replay (`simulate_trace_arrivals`) of one seeded
//! bursty trace on a 2-layer BERT-base, run once for every batch policy
//! under each admission mode, must render exactly as
//! `tests/fixtures/prefill_replay.txt`: each report's `Display` text and
//! its Prometheus exposition. The exposition's
//! `pit_jit_search_measured_seconds` lines are measured wall time and are
//! left out; every other number is modelled and deterministic.
//!
//! On a mismatch the test prints the fresh text between two marker lines
//! and fails. A change that means to move these numbers re-records the
//! fixture from that output and says why.

use pit::serve::{simulate_trace_arrivals, AdmissionMode, BatchPolicy, ServeConfig};
use pit::workloads::{ArrivalTrace, DatasetSpec};

const FIXTURE: &str = include_str!("fixtures/prefill_replay.txt");

/// Every policy under each admission mode, over one bursty trace.
fn render() -> String {
    let trace = ArrivalTrace::bursty(&DatasetSpec::mnli(), 300, 20_000.0, 0.004, 0.03, 11);
    let policies = [
        BatchPolicy::PaddingFree { token_budget: 1024 },
        BatchPolicy::PaddedToLongest { max_batch: 8 },
        BatchPolicy::Bucketed {
            max_batch: 8,
            buckets: 4,
        },
    ];
    let mut out = String::new();
    for admission in [AdmissionMode::Block, AdmissionMode::RejectWhenFull] {
        for policy in policies {
            let mut cfg = ServeConfig::new(policy);
            cfg.model.layers = 2;
            cfg.admission = admission;
            cfg.queue_capacity = 6;
            cfg.arrival_window_s = Some(0.01);
            let report = simulate_trace_arrivals(&cfg, &trace);
            out.push_str(&format!("=== {policy:?} / {admission:?}\n{report}\n"));
            for line in report.exposition().render().lines() {
                if !line.contains("pit_jit_search_measured_seconds") {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[test]
fn prefill_replay_matches_the_fixture_byte_for_byte() {
    let fresh = render();
    if fresh != FIXTURE {
        let line = fresh
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .map_or(fresh.lines().count().min(FIXTURE.lines().count()), |i| i);
        println!("----- BEGIN fresh prefill replay -----");
        print!("{fresh}");
        println!("----- END fresh prefill replay -----");
        panic!(
            "prefill replay differs from tests/fixtures/prefill_replay.txt \
             from line {} on",
            line + 1
        );
    }
}
