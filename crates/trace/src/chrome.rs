//! Chrome `trace_event` export.
//!
//! Renders a drained record stream as the JSON array flavour of the
//! Trace Event Format — loadable in `chrome://tracing` and Perfetto.
//! Tracks: tid 0 is the modelled device (one complete event per
//! iteration), tids 1 and 2 are the PCIe link directions (one complete
//! event per transfer, spanning initiation to landing), and each
//! sequence gets its own tid carrying its phase spans
//! (queue/prefill/decode/stall segments over the gaps the
//! [`crate::LifecycleFold`] attributes) plus instant markers for
//! admissions, prefix hits, preemptions and sparsity evictions.
//!
//! Timestamps and durations are microseconds (the format's unit); all
//! events share pid 1. Event shapes are emitted by hand rather than
//! through `#[derive(Serialize)]` — the entries mix numeric and string
//! args, and the vendored derive skips generic types.

use crate::exemplar::ExemplarSet;
use crate::lifecycle::LifecycleFold;
use crate::sink::{TraceEvent, TraceRecord, DEVICE_LANE, RESERVED_LANES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tids for the fixed lanes; sequence lanes start above these.
const TID_DEVICE: u64 = 0;
const TID_D2H: u64 = 1;
const TID_H2D: u64 = 2;
const TID_SEQ_BASE: u64 = 3;

fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

/// Appends one JSON number the way vendored serde does (`null` for
/// non-finite values, which the viewers tolerate in args).
fn num(out: &mut String, v: f64) {
    use serde::Serialize as _;
    v.json(out);
}

/// Appends one complete ("X") event.
#[allow(clippy::too_many_arguments)]
fn complete(
    out: &mut String,
    name: &str,
    start_s: f64,
    end_s: f64,
    pid: u64,
    tid: u64,
    args: &[(&str, f64)],
) {
    out.push_str("{\"name\":");
    serde::write_json_str(out, name);
    out.push_str(",\"ph\":\"X\",\"ts\":");
    num(out, us(start_s));
    out.push_str(",\"dur\":");
    num(out, us((end_s - start_s).max(0.0)));
    let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"args\":");
    write_args(out, args);
    out.push('}');
}

/// Appends one instant ("i") event (thread scope).
fn instant(out: &mut String, name: &str, t_s: f64, pid: u64, tid: u64, args: &[(&str, f64)]) {
    out.push_str("{\"name\":");
    serde::write_json_str(out, name);
    out.push_str(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
    num(out, us(t_s));
    let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"args\":");
    write_args(out, args);
    out.push('}');
}

/// Appends one thread_name ("M") metadata event.
fn thread_name(events: &mut Vec<String>, name: &str, pid: u64, tid: u64) {
    let mut m = String::new();
    serde::write_json_str(&mut m, name);
    events.push(format!(
        r#"{{"name":"thread_name","ph":"M","ts":0,"pid":{pid},"tid":{tid},"args":{{"name":{m}}}}}"#
    ));
}

fn write_args(out: &mut String, args: &[(&str, f64)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde::write_json_str(out, k);
        out.push(':');
        num(out, *v);
    }
    out.push('}');
}

/// Phase name of a sequence-lane gap. Typed waits name their segment by
/// cause, so causal stalls read directly off the timeline.
fn gap_name(event: &TraceEvent) -> Option<&'static str> {
    Some(match event {
        TraceEvent::Admitted { .. } => "queue",
        TraceEvent::PrefillChunk { .. } | TraceEvent::FirstToken => "prefill",
        TraceEvent::DecodeStep { .. } | TraceEvent::Finished => "decode",
        TraceEvent::Preempted { .. } | TraceEvent::SwapOut { .. } | TraceEvent::SwapIn { .. } => {
            "stall"
        }
        TraceEvent::Waiting { cause, .. } => cause.name(),
        _ => return None,
    })
}

/// Paints one sequence-lane record on `(pid, tid)`: the gap segment
/// ending at it (starting at `since_s`, where the lifecycle fold says the
/// gap began) plus its instant marker — the shared body of the main
/// export's sequence lanes and the exemplar lanes. When `link_tids` is
/// set, swap transfers also paint the pid-1 link lanes.
fn render_seq_event(
    events: &mut Vec<String>,
    r: &TraceRecord,
    since_s: f64,
    pid: u64,
    tid: u64,
    link_tids: bool,
) {
    let (t_s, lane) = (r.t_s, r.lane);
    if let Some(name) = gap_name(&r.event) {
        if t_s > since_s {
            let mut seg = String::new();
            complete(&mut seg, name, since_s, t_s, pid, tid, &[]);
            events.push(seg);
        }
    }
    let mut buf = String::new();
    match r.event {
        // Link transfers also paint the link lanes.
        TraceEvent::SwapOut {
            pages, initiated_s, ..
        } if link_tids => complete(
            &mut buf,
            "swap_out",
            initiated_s,
            t_s,
            1,
            TID_D2H,
            &[("pages", pages as f64), ("seq", lane as f64)],
        ),
        TraceEvent::SwapIn {
            pages, initiated_s, ..
        } if link_tids => complete(
            &mut buf,
            "swap_in",
            initiated_s,
            t_s,
            1,
            TID_H2D,
            &[("pages", pages as f64), ("seq", lane as f64)],
        ),
        TraceEvent::Admitted { .. }
        | TraceEvent::FirstToken
        | TraceEvent::Finished
        | TraceEvent::Rejected
        | TraceEvent::Preempted { .. } => instant(&mut buf, r.event.name(), t_s, pid, tid, &[]),
        TraceEvent::PrefixHit { pages, tokens } => instant(
            &mut buf,
            "prefix_hit",
            t_s,
            pid,
            tid,
            &[("pages", pages as f64), ("tokens", tokens as f64)],
        ),
        TraceEvent::SparsityEvict { pages } => instant(
            &mut buf,
            "sparsity_evict",
            t_s,
            pid,
            tid,
            &[("pages", pages as f64)],
        ),
        _ => {}
    }
    if !buf.is_empty() {
        events.push(buf);
    }
}

/// Renders `records` into event strings (the shared body of both
/// exports).
fn render_events(records: &[TraceRecord]) -> Vec<String> {
    let mut events: Vec<String> = Vec::with_capacity(records.len() + 8);

    // Stable seq → tid assignment in order of first appearance.
    let mut seq_tids: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if r.lane < RESERVED_LANES {
            let next = TID_SEQ_BASE + seq_tids.len() as u64;
            seq_tids.entry(r.lane).or_insert(next);
        }
    }

    // Thread-name metadata so the viewers label the lanes.
    thread_name(&mut events, "device", 1, TID_DEVICE);
    thread_name(&mut events, "pcie d2h", 1, TID_D2H);
    thread_name(&mut events, "pcie h2d", 1, TID_H2D);
    for (&seq, &tid) in &seq_tids {
        thread_name(&mut events, &format!("seq {seq}"), 1, tid);
    }

    let mut fold = LifecycleFold::new();
    for r in records {
        match (&r.event, r.lane) {
            (
                TraceEvent::Step {
                    prefill_rows,
                    decode_slots,
                    gpu_s,
                },
                DEVICE_LANE,
            ) => {
                let mut buf = String::new();
                complete(
                    &mut buf,
                    "step",
                    r.t_s - gpu_s,
                    r.t_s,
                    1,
                    TID_DEVICE,
                    &[
                        ("prefill_rows", *prefill_rows as f64),
                        ("decode_slots", *decode_slots as f64),
                    ],
                );
                events.push(buf);
            }
            _ => {
                if let Some(step) = fold.observe(r.t_s, r.lane, &r.event) {
                    let tid = seq_tids[&r.lane];
                    render_seq_event(&mut events, r, step.since_s, 1, tid, true);
                }
            }
        }
    }
    events
}

fn join_events(events: Vec<String>) -> String {
    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 1).sum::<usize>() + 2);
    out.push('[');
    out.push_str(&events.join(","));
    out.push(']');
    out
}

/// Renders `records` (sorted, as `TraceSink::drain`/`snapshot` return
/// them) as a Chrome `trace_event` JSON array.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    join_events(render_events(records))
}

/// Like [`chrome_trace_json`], plus the exemplar set's timelines as
/// highlighted lanes under a second process ("tail exemplars", pid 2) —
/// one thread per captured timeline, named by metric, rank, sequence and
/// value, so the worst requests stand out even when the main trace is
/// sampled or disabled.
pub fn chrome_trace_json_with_exemplars(
    records: &[TraceRecord],
    exemplars: &ExemplarSet,
) -> String {
    let mut events = render_events(records);
    let mut tid = 0u64;
    for (metric, timelines) in [
        ("ttft", &exemplars.ttft),
        ("itl", &exemplars.itl),
        ("e2e", &exemplars.e2e),
    ] {
        for (rank, tl) in timelines.iter().enumerate() {
            thread_name(
                &mut events,
                &format!(
                    "exemplar {metric}#{} seq {} ({:.1}ms)",
                    rank + 1,
                    tl.lane,
                    tl.value_s * 1e3
                ),
                2,
                tid,
            );
            let mut fold = LifecycleFold::new();
            for r in &tl.records {
                if let Some(step) = fold.observe(r.t_s, r.lane, &r.event) {
                    render_seq_event(&mut events, r, step.since_s, 2, tid, false);
                }
            }
            tid += 1;
        }
    }
    join_events(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::sink::TraceSink;

    #[test]
    fn export_is_a_valid_trace_event_array() {
        let sink = TraceSink::enabled();
        sink.record(0.5, 0, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(1.0, 0, TraceEvent::PrefillChunk { tokens: 64 });
        sink.record(1.0, 0, TraceEvent::FirstToken);
        sink.record(
            1.5,
            0,
            TraceEvent::SwapOut {
                pages: 4,
                initiated_s: 1.0,
                link_busy_until_s: 1.5,
            },
        );
        sink.record(
            2.0,
            0,
            TraceEvent::SwapIn {
                pages: 4,
                initiated_s: 1.6,
                link_busy_until_s: 2.0,
            },
        );
        sink.record(
            2.5,
            0,
            TraceEvent::DecodeStep {
                attended: 32,
                cached: 64,
            },
        );
        sink.record(2.5, 0, TraceEvent::Finished);
        sink.record(
            2.5,
            DEVICE_LANE,
            TraceEvent::Step {
                prefill_rows: 0,
                decode_slots: 1,
                gpu_s: 0.5,
            },
        );
        let json = chrome_trace_json(&sink.drain());
        let v = JsonValue::parse(&json).expect("valid JSON");
        let arr = v.as_array().expect("top level is an array");
        assert!(arr.len() >= 8);
        for ev in arr {
            let obj = ev.as_object().expect("every event is an object");
            let ph = obj
                .iter()
                .find(|(k, _)| k == "ph")
                .and_then(|(_, v)| v.as_str())
                .expect("event has a ph");
            assert!(
                ["X", "i", "M"].contains(&ph),
                "unexpected phase {ph:?} in {json}"
            );
            assert!(obj.iter().any(|(k, _)| k == "ts"));
            assert!(obj.iter().any(|(k, _)| k == "pid"));
            assert!(obj.iter().any(|(k, _)| k == "tid"));
        }
        // Complete events carry non-negative microsecond durations.
        let durs: Vec<f64> = arr
            .iter()
            .filter_map(|e| e.as_object())
            .filter(|o| o.iter().any(|(k, v)| k == "ph" && v.as_str() == Some("X")))
            .filter_map(|o| {
                o.iter()
                    .find(|(k, _)| k == "dur")
                    .and_then(|(_, v)| v.as_f64())
            })
            .collect();
        assert!(!durs.is_empty());
        assert!(durs.iter().all(|&d| d >= 0.0));
        // The swap transfers landed on the link lanes.
        assert!(json.contains(r#""name":"swap_out""#));
        assert!(json.contains(r#""name":"swap_in""#));
        assert!(json.contains(r#""name":"device""#));
    }
}
