//! The live metrics hub: an in-flight, thread-safe registry the serving
//! loops publish into while they run.
//!
//! The [`MetricsHub`] keeps the post-hoc reports' signals (sketches,
//! ledger, SLO burn, drift alarms) current mid-run. Publishers (the
//! decode replay, the threaded runtime's submitter and workers) stream
//! lifecycle events into [`MetricsHub::on_record`], device-time charges
//! into [`MetricsHub::charge`] and gauges into typed setters; readers
//! (the [`crate::http`] scrape server, tests, `pit_top`) take consistent
//! snapshots at any moment — an [`Exposition`] for `GET /metrics`, an
//! [`SloReport`] with live drift alarms for `GET /slo`, and a bounded
//! ring of per-window digests for `GET /series`.
//!
//! Two design rules keep observation cheap and from perturbing the run:
//!
//! 1. **The hub is write-only for publishers.** Nothing the simulation
//!    computes ever depends on hub state, so a hub-attached replay's
//!    report is byte-identical to a hub-free one (asserted in the
//!    integration tests, same discipline as the trace sink's
//!    "tracing perturbs nothing" checks).
//! 2. **Each signal is kept once, in typed fields behind one lock, in
//!    memory the window ring bounds.** An event takes the lock once and
//!    advances its lane's 32-byte clock in the same [`LifecycleFold`] the
//!    post-hoc latency readers use, released when `Finished` or
//!    `Rejected` ends the lane. The hub reads no blame tiles, so it keeps
//!    none; only the blame reduction's two holders do.
//!    Counters, latency sketches and SLO attainment counts are kept for
//!    the whole run and per window, in a ring of the newest 240 windows
//!    on the publisher's clock; `/slo` shares [`crate::SloMonitor`]'s
//!    report and the alarms [`crate::DriftDetector`]'s comparison,
//!    refreshed as each window opens.

use crate::blame::WaitCause;
use crate::drift::{DriftAlarm, DriftBaseline};
use crate::expo::{Exposition, MetricKind, Sample};
use crate::ledger::DeviceLedger;
use crate::lifecycle::{Latency, LatencySketches, LifecycleFold};
use crate::sink::{TraceEvent, RESERVED_LANES};
use crate::slo::{self, Counts, SloReport, SloTarget};
use crate::windows::Windowed;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Windows the series ring retains; older windows are dropped (and
/// counted) when the run outlives the ring.
const RING_WINDOWS: usize = 240;

/// How the hub windows and judges its live state.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Window width (publisher-clock seconds) for the series ring (the
    /// newest 240 windows), the SLO windows and the drift-alarm refresh
    /// cadence.
    pub window_s: f64,
    /// SLO targets; `None` disables the `/slo` attainment report (drift
    /// alarms still work).
    pub slo: Option<SloTarget>,
    /// Baseline for live drift alarms; `None` disables them.
    pub drift: Option<DriftBaseline>,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            window_s: 1.0,
            slo: None,
            drift: None,
        }
    }
}

/// One sealed-or-open window's digest, as served by `GET /series`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HubSeriesWindow {
    /// Window index (`floor(t / window_s)`).
    pub index: u64,
    /// Window start on the publisher clock (seconds).
    pub start_s: f64,
    /// Device steps charged in the window.
    pub steps: u64,
    /// Modelled GPU-busy seconds charged in the window.
    pub gpu_s: f64,
    /// Prefill tokens processed in the window.
    pub prefill_tokens: u64,
    /// Decode tokens emitted in the window.
    pub decode_tokens: u64,
    /// Requests admitted in the window.
    pub admitted: u64,
    /// Requests rejected in the window.
    pub rejected: u64,
    /// Requests finished in the window.
    pub finished: u64,
    /// Preemptions observed in the window.
    pub preemptions: u64,
    /// Peak KV occupancy gauge seen in the window.
    pub kv_occupancy_peak: f64,
    /// TTFT observations in the window.
    pub ttft_count: u64,
    /// Window TTFT p50 (0 with no observations).
    pub ttft_p50_s: f64,
    /// Window TTFT p95.
    pub ttft_p95_s: f64,
    /// ITL observations in the window.
    pub itl_count: u64,
    /// Window ITL p50.
    pub itl_p50_s: f64,
    /// Window ITL p95.
    pub itl_p95_s: f64,
    /// End-to-end completions' p50 in the window.
    pub e2e_p50_s: f64,
    /// Window burn rate against the configured SLO (0 without one).
    pub burn_rate: f64,
    /// Wait seconds attributed per typed cause in the window (causes
    /// that waited).
    pub waits_s: BTreeMap<String, f64>,
}

/// The `GET /series` document: ring parameters plus the retained
/// windows, oldest first.
#[derive(Debug, Clone, serde::Serialize)]
pub struct HubSeries {
    /// Window width (seconds).
    pub window_s: f64,
    /// Windows evicted from the ring so far.
    pub dropped: u64,
    /// Retained windows, oldest first.
    pub windows: Vec<HubSeriesWindow>,
}

/// Wait seconds per cause, indexed by the cause's blame-category index.
type WaitSeconds = [f64; WaitCause::ALL.len()];

/// The causes that waited, in taxonomy order, with their seconds.
fn waits_by_cause(waits: &WaitSeconds) -> impl Iterator<Item = (WaitCause, f64)> + '_ {
    WaitCause::ALL
        .into_iter()
        .map(|c| (c, waits[c.category().index()]))
        .filter(|&(_, s)| s != 0.0)
}

/// The hub's monotone counters: one field per `pit_hub_*_total` family.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    admitted: u64,
    decode_tokens: u64,
    finished: u64,
    gpu_s: f64,
    preemptions: u64,
    prefill_chunk_tokens: u64,
    prefill_tokens: u64,
    prefix_hit_tokens: u64,
    rejected: u64,
    sparsity_evicted_pages: u64,
    steps: u64,
    swap_in_pages: u64,
    swap_out_pages: u64,
    wait_s: WaitSeconds,
}

impl Counters {
    /// Counts one event published at `t_s`.
    fn count(&mut self, t_s: f64, event: &TraceEvent) {
        match *event {
            TraceEvent::Step {
                prefill_rows,
                decode_slots,
                gpu_s,
            } => {
                self.steps += 1;
                self.gpu_s += gpu_s;
                self.prefill_tokens += prefill_rows as u64;
                self.decode_tokens += decode_slots as u64;
            }
            TraceEvent::SwapOut { pages, .. } => self.swap_out_pages += pages as u64,
            TraceEvent::SwapIn { pages, .. } => self.swap_in_pages += pages as u64,
            TraceEvent::PrefillChunk { tokens } => self.prefill_chunk_tokens += tokens as u64,
            TraceEvent::PrefixHit { tokens, .. } => self.prefix_hit_tokens += tokens as u64,
            TraceEvent::SparsityEvict { pages } => self.sparsity_evicted_pages += pages as u64,
            TraceEvent::Admitted { .. } => self.admitted += 1,
            TraceEvent::Rejected => self.rejected += 1,
            TraceEvent::Finished => self.finished += 1,
            TraceEvent::Preempted { .. } => self.preemptions += 1,
            TraceEvent::Waiting { cause, since_s } => {
                self.wait_s[cause.category().index()] += (t_s - since_s).max(0.0)
            }
            TraceEvent::FirstToken | TraceEvent::DecodeStep { .. } => {}
        }
    }

    /// Renders every counter family, in name order, into `out`.
    fn exposition_into(&self, out: &mut Exposition) {
        for (name, value) in [
            ("pit_hub_admitted_total", self.admitted as f64),
            ("pit_hub_decode_tokens_total", self.decode_tokens as f64),
            ("pit_hub_finished_total", self.finished as f64),
            ("pit_hub_gpu_seconds_total", self.gpu_s),
            ("pit_hub_preemptions_total", self.preemptions as f64),
            (
                "pit_hub_prefill_chunk_tokens_total",
                self.prefill_chunk_tokens as f64,
            ),
            ("pit_hub_prefill_tokens_total", self.prefill_tokens as f64),
            (
                "pit_hub_prefix_hit_tokens_total",
                self.prefix_hit_tokens as f64,
            ),
            ("pit_hub_rejected_total", self.rejected as f64),
            (
                "pit_hub_sparsity_evicted_pages_total",
                self.sparsity_evicted_pages as f64,
            ),
            ("pit_hub_steps_total", self.steps as f64),
            ("pit_hub_swap_in_pages_total", self.swap_in_pages as f64),
            ("pit_hub_swap_out_pages_total", self.swap_out_pages as f64),
        ] {
            out.counter(name, "Live hub counter", value);
        }
        let waits: Vec<Sample> = waits_by_cause(&self.wait_s)
            .map(|(cause, value)| Sample {
                suffix: String::new(),
                labels: vec![("cause".to_string(), cause.name().to_string())],
                value,
            })
            .collect();
        if !waits.is_empty() {
            out.family(
                "pit_hub_wait_seconds_total",
                "Live hub counter by cause",
                MetricKind::Counter,
                waits,
            );
        }
    }
}

/// What the hub accumulates, kept once for the whole run and once per
/// window of the ring.
#[derive(Debug, Clone, Default)]
struct Signals {
    counters: Counters,
    latency: LatencySketches,
    /// Attainment counts against the hub's SLO target (rejections count
    /// without one).
    slo: Counts,
    kv_occupancy_peak: f64,
}

impl Signals {
    /// Counts one windowed event and judges the latency it closed.
    fn record(
        &mut self,
        t_s: f64,
        event: &TraceEvent,
        latency: Option<Latency>,
        target: Option<&SloTarget>,
    ) {
        self.counters.count(t_s, event);
        if let Some(latency) = latency {
            self.latency.record(latency);
            if let Some(t) = target {
                self.slo.record(t, latency);
            }
        }
        if matches!(event, TraceEvent::Rejected) {
            self.slo.record_rejection();
        }
    }

    fn digest(&self, index: u64, window_s: f64, slo: Option<&SloTarget>) -> HubSeriesWindow {
        let (ttft, itl) = (&self.latency.ttft, &self.latency.itl);
        let c = &self.counters;
        HubSeriesWindow {
            index,
            start_s: index as f64 * window_s,
            steps: c.steps,
            gpu_s: c.gpu_s,
            prefill_tokens: c.prefill_tokens,
            decode_tokens: c.decode_tokens,
            admitted: c.admitted,
            rejected: c.rejected,
            finished: c.finished,
            preemptions: c.preemptions,
            kv_occupancy_peak: self.kv_occupancy_peak,
            ttft_count: ttft.count(),
            ttft_p50_s: ttft.quantile(0.50),
            ttft_p95_s: ttft.quantile(0.95),
            itl_count: itl.count(),
            itl_p50_s: itl.quantile(0.50),
            itl_p95_s: itl.quantile(0.95),
            e2e_p50_s: self.latency.e2e.quantile(0.50),
            burn_rate: slo.map_or(0.0, |t| self.slo.burn_rate(t.objective)),
            waits_s: waits_by_cause(&c.wait_s)
                .map(|(cause, s)| (cause.name().to_string(), s))
                .collect(),
        }
    }
}

/// Everything behind the hub's one lock.
#[derive(Debug)]
struct HubState {
    /// The lifecycle fold: one lane clock per request in flight.
    fold: LifecycleFold,
    /// Whole-run signals: every counter, the `/metrics` latency
    /// summaries and the drift comparison's sketches.
    run: Signals,
    /// Window ring, oldest first; stragglers land in the oldest window.
    ring: Windowed<Signals>,
    /// Alarms refreshed at each window roll (and at `finish`).
    alarms: Vec<DriftAlarm>,
    /// Highest window index that has been rolled past (alarm cadence).
    alarmed_through: u64,
    /// Live device-time ledger fed by [`MetricsHub::charge`].
    ledger: DeviceLedger,
    /// Latest publisher timestamp seen.
    now_s: f64,
    queue_depth: usize,
    kv_occupancy: f64,
    finished_run: bool,
}

/// The live in-flight metrics registry. Construct one per run (or share
/// across runs to aggregate), hand `&MetricsHub` to the serving loop and
/// `Arc<MetricsHub>` to the scrape server.
#[derive(Debug)]
pub struct MetricsHub {
    cfg: HubConfig,
    state: Mutex<HubState>,
}

impl MetricsHub {
    /// A hub with the given windowing and judges.
    pub fn new(cfg: HubConfig) -> Self {
        assert!(
            cfg.window_s.is_finite() && cfg.window_s > 0.0,
            "hub window must be positive"
        );
        if let Some(t) = &cfg.slo {
            t.validate();
        }
        MetricsHub {
            state: Mutex::new(HubState {
                fold: LifecycleFold::new(),
                run: Signals::default(),
                ring: Windowed::ring(cfg.window_s, RING_WINDOWS),
                alarms: Vec::new(),
                alarmed_through: 0,
                ledger: DeviceLedger::new(),
                now_s: 0.0,
                queue_depth: 0,
                kv_occupancy: 0.0,
                finished_run: false,
            }),
            cfg,
        }
    }

    /// A hub with the default config (1 s windows, no SLO targets, no
    /// drift baseline).
    pub fn with_defaults() -> Self {
        Self::new(HubConfig::default())
    }

    // ------------------------------------------------------------------
    // Publisher side
    // ------------------------------------------------------------------

    /// Publishes one event at publisher-clock `t_s` on `lane`.
    /// Sequence-lane events run through the same [`LifecycleFold`] the
    /// post-hoc consumers use, so a live hub and a post-hoc
    /// `SloMonitor::observe` agree on every observation.
    pub fn on_record(&self, t_s: f64, lane: u64, event: &TraceEvent) {
        let mut guard = self.state.lock().expect("hub state");
        let st = &mut *guard;
        let latency = match event {
            TraceEvent::Step { .. } => None,
            _ => st
                .fold
                .observe(t_s, lane, event)
                .and_then(|step| step.latency),
        };
        // Device steps and sequence-lane lifecycle events land in a
        // window. Link-lane events, transfers and prefill bookkeeping only
        // count: a restore is stamped at its future landing, so it must
        // not move the clock.
        let windowed = match event {
            TraceEvent::Step { .. } => true,
            TraceEvent::SwapOut { .. }
            | TraceEvent::SwapIn { .. }
            | TraceEvent::PrefillChunk { .. }
            | TraceEvent::PrefixHit { .. }
            | TraceEvent::SparsityEvict { .. } => false,
            _ => lane < RESERVED_LANES,
        };
        if !windowed {
            st.run.counters.count(t_s, event);
            return;
        }
        st.now_s = st.now_s.max(t_s);
        let target = self.cfg.slo.as_ref();
        st.run.record(t_s, event, latency, target);
        st.ring
            .at(t_s, |_| Signals::default())
            .record(t_s, event, latency, target);
        if !matches!(
            event,
            TraceEvent::Preempted { .. } | TraceEvent::Waiting { .. }
        ) {
            self.roll_alarms(st);
        }
    }

    /// Books one virtual-clock charge into the hub's live ledger, e.g.
    /// `hub.charge(|l| l.charge_step(&sample))`.
    pub fn charge(&self, book: impl FnOnce(&mut DeviceLedger)) {
        book(&mut self.state.lock().expect("hub state").ledger);
    }

    /// Publishes the live KV occupancy gauge (also tracked per window).
    pub fn set_kv_occupancy(&self, occupancy: f64) {
        let mut guard = self.state.lock().expect("hub state");
        let st = &mut *guard;
        st.kv_occupancy = occupancy;
        st.run.kv_occupancy_peak = st.run.kv_occupancy_peak.max(occupancy);
        let w = st.ring.at(st.now_s, |_| Signals::default());
        w.kv_occupancy_peak = w.kv_occupancy_peak.max(occupancy);
    }

    /// Publishes the admission queue's depth.
    pub fn set_queue_depth(&self, depth: usize) {
        self.state.lock().expect("hub state").queue_depth = depth;
    }

    /// Marks the run complete: seals the open window into the alarm
    /// evaluation and flips the `pit_hub_run_complete` gauge. Scrapes
    /// keep working after this — the endpoint outlives the replay.
    pub fn finish(&self) {
        let mut st = self.state.lock().expect("hub state");
        st.finished_run = true;
        st.alarms = self.alarms_of(&st.run.latency);
    }

    /// Drift alarms of the whole-run sketches `latency` (none without a
    /// baseline).
    fn alarms_of(&self, latency: &LatencySketches) -> Vec<DriftAlarm> {
        self.cfg
            .drift
            .as_ref()
            .map_or_else(Vec::new, |baseline| baseline.latency_alarms(latency))
    }

    /// Refreshes drift alarms once per newly entered window, so alarms
    /// fire mid-run at window cadence rather than on every sample.
    fn roll_alarms(&self, st: &mut HubState) {
        let Some(hi) = st.ring.last_index() else {
            return;
        };
        if hi > st.alarmed_through {
            st.alarmed_through = hi;
            st.alarms = self.alarms_of(&st.run.latency);
        }
    }

    // ------------------------------------------------------------------
    // Reader side
    // ------------------------------------------------------------------

    /// A consistent snapshot of the hub as a Prometheus exposition:
    /// counters, gauges, the whole-run latency summaries, the live ledger
    /// families and the SLO/drift digest. `parse_exposition` round-trips
    /// the rendered document.
    pub fn exposition(&self) -> Exposition {
        let mut out = Exposition::new();
        let st = self.state.lock().expect("hub state");
        st.run.counters.exposition_into(&mut out);
        out.gauge(
            "pit_hub_admission_queue_depth",
            "Live hub gauge",
            st.queue_depth as f64,
        );
        out.gauge(
            "pit_hub_clock_seconds",
            "Latest publisher-clock timestamp seen",
            st.now_s,
        );
        out.gauge(
            "pit_hub_kv_occupancy",
            "Live KV pool occupancy (fraction)",
            st.kv_occupancy,
        );
        out.gauge(
            "pit_hub_kv_occupancy_peak",
            "Peak KV pool occupancy seen",
            st.run.kv_occupancy_peak,
        );
        out.gauge(
            "pit_hub_window_count",
            "Windows observed so far (ring + evicted)",
            st.ring.created() as f64,
        );
        out.gauge(
            "pit_hub_drift_alarms_active",
            "Drift alarms currently firing",
            st.alarms.len() as f64,
        );
        out.gauge(
            "pit_hub_run_complete",
            "1 once the publisher marked the run finished",
            f64::from(u8::from(st.finished_run)),
        );
        if let Some(r) = self.slo_report_locked(&st) {
            out.gauge(
                "pit_hub_ttft_attainment",
                "Whole-run TTFT attainment against the hub SLO",
                r.ttft_attainment,
            );
            out.gauge(
                "pit_hub_itl_attainment",
                "Whole-run ITL attainment against the hub SLO",
                r.itl_attainment,
            );
            out.gauge(
                "pit_hub_worst_window_burn_rate",
                "Hottest retained window's SLO burn rate",
                r.worst_window_burn_rate,
            );
        }
        for (name, help, sketch) in [
            (
                "pit_hub_ttft_seconds",
                "Live time-to-first-token (sketch-backed quantiles)",
                &st.run.latency.ttft,
            ),
            (
                "pit_hub_itl_seconds",
                "Live inter-token latency",
                &st.run.latency.itl,
            ),
            (
                "pit_hub_e2e_seconds",
                "Live end-to-end request latency",
                &st.run.latency.e2e,
            ),
        ] {
            out.summary(name, help, sketch, &[0.50, 0.90, 0.95, 0.99]);
        }
        st.ledger.exposition_into(&mut out);
        out
    }

    /// [`Self::exposition`] rendered to the text format.
    pub fn render(&self) -> String {
        self.exposition().render()
    }

    /// The live SLO report (whole-run attainment and burn rates, the
    /// retained windows' digests) with the current drift alarms
    /// attached, or `None` when the hub was built without SLO targets.
    pub fn slo_report(&self) -> Option<SloReport> {
        self.slo_report_locked(&self.state.lock().expect("hub state"))
    }

    fn slo_report_locked(&self, st: &HubState) -> Option<SloReport> {
        let target = self.cfg.slo?;
        let mut r = slo::report(
            target,
            st.ring.width_s(),
            &st.run.slo,
            st.ring.iter().map(|(i, w)| (i, &w.slo)),
            Some(&st.ledger),
        );
        r.drift = st.alarms.clone();
        Some(r)
    }

    /// The `GET /slo` document: the [`SloReport`] as JSON, or a stub
    /// carrying just the alarms when no SLO target is configured.
    pub fn slo_json(&self) -> String {
        use serde::Serialize;
        let st = self.state.lock().expect("hub state");
        match self.slo_report_locked(&st) {
            Some(r) => r.to_json(),
            None => format!("{{\"target\":null,\"drift\":{}}}", st.alarms.to_json()),
        }
    }

    /// Drift alarms currently firing (empty without a baseline).
    pub fn alarms(&self) -> Vec<DriftAlarm> {
        self.state.lock().expect("hub state").alarms.clone()
    }

    /// The window ring digested oldest-first (the `GET /series` body).
    pub fn series(&self) -> HubSeries {
        let st = self.state.lock().expect("hub state");
        let window_s = st.ring.width_s();
        HubSeries {
            window_s,
            dropped: st.ring.dropped(),
            windows: st
                .ring
                .iter()
                .map(|(i, w)| w.digest(i, window_s, self.cfg.slo.as_ref()))
                .collect(),
        }
    }

    /// [`Self::series`] as JSON.
    pub fn series_json(&self) -> String {
        use serde::Serialize;
        self.series().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::DEVICE_LANE;

    fn step(hub: &MetricsHub, t_s: f64, gpu_s: f64) {
        hub.on_record(
            t_s,
            DEVICE_LANE,
            &TraceEvent::Step {
                prefill_rows: 64,
                decode_slots: 8,
                gpu_s,
            },
        );
    }

    fn slo_hub() -> MetricsHub {
        MetricsHub::new(HubConfig {
            window_s: 1.0,
            slo: Some(SloTarget {
                ttft_s: 0.5,
                itl_s: 0.1,
                objective: 0.9,
            }),
            drift: None,
        })
    }

    /// One counter sample of the hub's exposition.
    fn counter(hub: &MetricsHub, name: &str) -> f64 {
        let expo = hub.exposition();
        let fam = expo
            .families()
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} rendered"));
        fam.samples[0].value
    }

    #[test]
    fn lifecycle_fold_matches_slo_monitor_convention() {
        let hub = slo_hub();
        hub.on_record(0.1, 3, &TraceEvent::Admitted { arrival_s: 0.0 });
        hub.on_record(0.4, 3, &TraceEvent::FirstToken);
        hub.on_record(
            0.45,
            3,
            &TraceEvent::DecodeStep {
                attended: 8,
                cached: 8,
            },
        );
        hub.on_record(0.65, 3, &TraceEvent::Finished);
        let r = hub.slo_report().expect("slo configured");
        assert_eq!(r.windows[0].ttft_total, 1);
        assert_eq!(r.windows[0].ttft_ok, 1, "0.4s ttft within 0.5s target");
        assert_eq!(r.windows[0].itl_total, 1);
        let series = hub.series();
        assert_eq!(series.windows.len(), 1);
        assert_eq!(series.windows[0].finished, 1);
        assert_eq!(series.windows[0].ttft_count, 1);
        let expo = hub.exposition();
        let rendered = expo.render();
        let parsed = crate::expo::parse_exposition(&rendered).expect("round-trips");
        assert_eq!(parsed.render(), rendered);
        assert!(rendered.contains("pit_hub_finished_total 1"));
        assert!(rendered.contains("pit_hub_e2e_seconds_count 1"));
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let hub = MetricsHub::with_defaults();
        let windows = RING_WINDOWS as u64 + 10;
        for i in 0..windows {
            step(&hub, i as f64 + 0.5, 0.01);
        }
        let s = hub.series();
        assert_eq!(s.windows.len(), RING_WINDOWS);
        assert_eq!(s.dropped, 10);
        assert_eq!(s.windows.first().expect("windows").index, 10);
        assert_eq!(s.windows.last().expect("windows").index, windows - 1);
        assert_eq!(counter(&hub, "pit_hub_steps_total"), windows as f64);
    }

    #[test]
    fn waits_render_as_labelled_counters() {
        let hub = MetricsHub::with_defaults();
        hub.on_record(
            0.75,
            2,
            &TraceEvent::Waiting {
                cause: WaitCause::KvPoolExhausted,
                since_s: 0.25,
            },
        );
        let rendered = hub.render();
        assert!(
            rendered.contains("pit_hub_wait_seconds_total{cause=\"kv_pool_exhausted\"} 0.5"),
            "labelled wait counter rendered: {rendered}"
        );
        crate::expo::parse_exposition(&rendered).expect("labelled family parses");
        let series = hub.series();
        assert_eq!(
            series.windows[0].waits_s,
            BTreeMap::from([("kv_pool_exhausted".to_string(), 0.5)])
        );
    }

    #[test]
    fn drift_alarms_fire_mid_run_at_window_cadence() {
        // Baseline: 30 requests at 0.2s ttft. Live: 0.6s ttft — must
        // alarm while the run is still publishing (no finish() call).
        let sink = crate::sink::TraceSink::enabled();
        for lane in 0..30u64 {
            let a = lane as f64;
            sink.record(a + 0.01, lane, TraceEvent::Admitted { arrival_s: a });
            sink.record(a + 0.2, lane, TraceEvent::FirstToken);
            sink.record(a + 0.25, lane, TraceEvent::Finished);
        }
        let baseline = DriftBaseline::from_records(&sink.drain());
        let hub = MetricsHub::new(HubConfig {
            window_s: 1.0,
            slo: None,
            drift: Some(baseline),
        });
        for lane in 0..40u64 {
            let a = lane as f64;
            hub.on_record(a + 0.01, lane, &TraceEvent::Admitted { arrival_s: a });
            hub.on_record(a + 0.6, lane, &TraceEvent::FirstToken);
            hub.on_record(a + 0.65, lane, &TraceEvent::Finished);
        }
        let alarms = hub.alarms();
        assert!(
            alarms
                .iter()
                .any(|a| a.metric == "ttft" && a.kind == crate::drift::DriftKind::QuantileShift),
            "tripled ttft must alarm mid-run: {alarms:?}"
        );
    }

    #[test]
    fn counters_are_monotone_across_concurrent_publishers() {
        let hub = MetricsHub::with_defaults();
        std::thread::scope(|s| {
            for p in 0..4 {
                let hub = &hub;
                s.spawn(move || {
                    for i in 0..1000 {
                        step(hub, p as f64 + i as f64 * 1e-3, 0.5);
                    }
                });
            }
        });
        assert_eq!(counter(&hub, "pit_hub_steps_total"), 4000.0);
        assert_eq!(counter(&hub, "pit_hub_gpu_seconds_total"), 2000.0);
        assert_eq!(counter(&hub, "pit_hub_prefill_tokens_total"), 4000.0 * 64.0);
        let windowed: u64 = hub.series().windows.iter().map(|w| w.steps).sum();
        assert_eq!(windowed, 4000, "every step landed in a window");
    }

    #[test]
    fn series_and_slo_burn_agree_on_a_window_with_rejections() {
        // Four first tokens within target and two rejections: TTFT
        // attainment 4/6, so both readers must report burn (1/3) / 0.1.
        let hub = slo_hub();
        for lane in 0..4u64 {
            hub.on_record(0.1, lane, &TraceEvent::Admitted { arrival_s: 0.1 });
            hub.on_record(0.3, lane, &TraceEvent::FirstToken);
        }
        for lane in 4..6u64 {
            hub.on_record(0.2, lane, &TraceEvent::Rejected);
        }
        let series = hub.series();
        let slo = hub.slo_report().expect("slo configured");
        assert_eq!((series.windows.len(), slo.windows.len()), (1, 1));
        let burn = series.windows[0].burn_rate;
        assert_eq!(burn.to_bits(), slo.windows[0].burn_rate.to_bits());
        assert!((burn - 10.0 / 3.0).abs() < 1e-9, "burn {burn}");
        assert_eq!(slo.windows[0].ttft_total, 6);
        assert_eq!(series.windows[0].rejected, 2);
        assert_eq!(
            (
                counter(&hub, "pit_hub_rejected_total"),
                counter(&hub, "pit_hub_admitted_total"),
            ),
            (2.0, 4.0)
        );
    }

    #[test]
    fn every_lane_closes_and_the_ring_bounds_memory() {
        // The threaded runtime's per-request sequence, 20k requests over
        // 250 one-second windows: the fold must end every lane and the
        // windowed readers must stop at the ring.
        let hub = slo_hub();
        let n = 20_000u64;
        for lane in 0..n {
            let s = lane as f64 * 0.0125;
            let done = s + 0.02;
            hub.on_record(s, lane, &TraceEvent::Admitted { arrival_s: s });
            hub.on_record(
                done,
                DEVICE_LANE,
                &TraceEvent::Step {
                    prefill_rows: 48,
                    decode_slots: 0,
                    gpu_s: 0.01,
                },
            );
            hub.on_record(done, lane, &TraceEvent::PrefillChunk { tokens: 40 });
            hub.on_record(done, lane, &TraceEvent::FirstToken);
            hub.on_record(done, lane, &TraceEvent::Finished);
        }
        hub.finish();
        assert_eq!(hub.state.lock().expect("hub state").fold.open_lanes(), 0);
        let series = hub.series();
        assert_eq!(series.windows.len(), RING_WINDOWS);
        assert!(series.dropped > 0, "the run outlived the ring");
        let slo = hub.slo_report().expect("slo configured");
        assert_eq!(slo.windows.len(), RING_WINDOWS);
        assert_eq!(slo.ttft_attainment, 1.0);
        for name in ["pit_hub_admitted_total", "pit_hub_finished_total"] {
            assert_eq!(counter(&hub, name), n as f64, "{name}");
        }
        assert_eq!(
            counter(&hub, "pit_hub_prefill_chunk_tokens_total"),
            40.0 * n as f64
        );
        assert_eq!(
            counter(&hub, "pit_hub_prefill_tokens_total"),
            48.0 * n as f64
        );
    }
}
