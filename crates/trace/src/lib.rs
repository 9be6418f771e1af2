//! `pit_trace`: observability for the serving stack.
//!
//! PIT's dynamic sparsity makes per-step cost data-dependent, so
//! understanding a run takes a per-step, per-sequence timeline — not just
//! a final percentile triple. This crate supplies the pieces the serving
//! crates thread through their hot loops:
//!
//! - [`LatencySketch`] — a deterministic, mergeable log-bucketed quantile
//!   sketch with a bounded relative error, replacing unbounded latency
//!   sample vectors so million-request replays run in O(1) metric memory;
//! - [`TraceSink`] / [`TraceEvent`] — an off-by-default (one branch when
//!   disabled) collector of typed request-lifecycle events stamped on the
//!   virtual clock: one locked buffer, fed a record at a time or a whole
//!   replay's batch at once;
//! - [`LifecycleFold`] — the one per-lane lifecycle fold every stream
//!   consumer below runs on: the arrival anchor, each inter-event gap's
//!   [`BlameCategory`] tile and [`Phase`], and the TTFT / ITL / e2e
//!   [`Latency`] observations; [`LaneSpans`] keeps each lane's breakdown
//!   as it closes, which the decode replay folds online;
//! - [`chrome_trace_json`] — Chrome `trace_event` JSON export (device,
//!   PCIe-link and per-sequence lanes), loadable in `chrome://tracing`
//!   and Perfetto;
//! - [`JsonValue`] — a minimal JSON reader for the tooling side (the
//!   vendored serde only writes), used by `tools/bench_compare` and the
//!   export validity tests;
//! - [`WindowSeries`] — per-window admitted/rejected/queue-depth series
//!   for open-loop bursty replays, on the same fixed-width windowing
//!   primitive as the SLO monitor and the hub's ring;
//! - [`DeviceLedger`] — the device-time ledger: every modelled
//!   GPU-second attributed into a fixed category taxonomy with *exact*
//!   (integer-picosecond) conservation — categories tile busy time,
//!   busy + stalls + idle tile the virtual clock — plus a
//!   [`Utilization`] digest (busy fraction, MFU, link bytes);
//! - [`Exposition`] / [`parse_exposition`] — Prometheus-style text
//!   exposition writer (counters, gauges, sketch-backed summaries) and
//!   the line-format parser that round-trips it;
//! - [`SloMonitor`] — windowed TTFT/ITL SLO attainment and burn-rate
//!   gauges folded from latency observations and rejections, joined with
//!   the ledger;
//! - [`blame_spans`] / [`BlameSummary`] / [`BreakdownSummary`] — causal
//!   critical-path attribution: typed [`WaitCause`]s recorded at every
//!   scheduler stall decision, reduced per request into categories (and
//!   queue / prefill / decode / stall phases) that tile TTFT and e2e
//!   exactly, aggregated into per-cause sketches;
//! - [`ExemplarReservoir`] — bounded top-k capture of the worst
//!   requests' full event timelines (by TTFT / max-ITL / e2e), exported
//!   as highlighted Chrome-trace lanes even when global tracing is off;
//! - [`DriftDetector`] — observed latency sketches and blame cause mix
//!   compared against a committed [`DriftBaseline`], raising typed
//!   [`DriftAlarm`]s on quantile or cause-mix shifts;
//! - [`MetricsHub`] — the *live* observability plane: a thread-safe
//!   fold of the serving loops' lifecycle events, ledger charges and
//!   gauges into typed counters, whole-run and windowed latency sketches
//!   and SLO attainment counts behind one lock, in memory bounded by a
//!   ring of windows; `/slo` shares the SLO monitor's report and its
//!   drift alarms the drift detector's comparison, refreshed per window,
//!   so they fire mid-run;
//! - [`ScrapeServer`] — a std-only `TcpListener` endpoint serving
//!   `GET /metrics` (Prometheus text), `/slo` and `/series` (JSON) from
//!   a hub, with a graceful [`ShutdownHandle`].

mod blame;
mod chrome;
mod drift;
mod exemplar;
mod expo;
pub mod http;
pub mod hub;
pub mod json;
mod ledger;
mod lifecycle;
mod sink;
mod sketch;
mod slo;
mod windows;

pub use blame::{
    blame_spans, BlameAggregate, BlameBreakdown, BlameCategory, BlameCauseStat, BlameSummary,
    BreakdownSummary, Phase, WaitCause,
};
pub use chrome::{chrome_trace_json, chrome_trace_json_with_exemplars};
pub use drift::{DriftAlarm, DriftBaseline, DriftDetector, DriftKind};
pub use exemplar::{ExemplarReservoir, ExemplarSet, ExemplarTimeline};
pub use expo::{parse_exposition, Exposition, MetricFamily, MetricKind, Sample};
pub use http::{ScrapeServer, ShutdownHandle};
pub use hub::{HubConfig, HubSeries, HubSeriesWindow, MetricsHub};
pub use json::{JsonError, JsonErrorKind, JsonValue};
pub use ledger::{DeviceLedger, StepSample, Utilization};
pub use lifecycle::{LaneSpans, LaneStep, Latency, LatencySketches, LifecycleFold};
pub use sink::{
    TraceEvent, TraceRecord, TraceSink, DEVICE_LANE, LINK_D2H_LANE, LINK_H2D_LANE, RESERVED_LANES,
};
pub use sketch::{LatencySketch, DEFAULT_SKETCH_ERROR};
pub use slo::{SloMonitor, SloReport, SloTarget, SloWindowReport};
pub use windows::{WindowSeries, WindowStat};
