//! The live metrics hub: an in-flight, thread-safe registry the serving
//! loops publish into while they run.
//!
//! PRs 7–9 made every signal (sketches, ledger, blame, SLO burn, drift
//! alarms) available *post hoc*, in end-of-run reports. The
//! [`MetricsHub`] moves the same machinery online: publishers (the
//! decode loop, the threaded runtime's workers and submitter) stream
//! lifecycle events, step samples and gauges into the hub at step
//! granularity, and readers (the [`crate::http`] scrape server, tests,
//! `pit_top`) take consistent snapshots at any moment — an
//! [`Exposition`] for `GET /metrics`, an [`SloReport`] with live drift
//! alarms for `GET /slo`, and a bounded ring of per-window digests for
//! `GET /series`.
//!
//! Three design rules keep observation from perturbing the run:
//!
//! 1. **The hub is write-only for publishers.** Nothing the simulation
//!    computes ever depends on hub state, so a hub-attached replay's
//!    report is byte-identical to a hub-free one (asserted in the
//!    integration tests, same discipline as the trace sink's
//!    "tracing perturbs nothing" checks).
//! 2. **Hot counters are sharded.** Counter/gauge increments hash the
//!    publishing thread onto one of [`COUNTER_SHARDS`] independently
//!    locked maps, so the threaded runtime's workers never contend with
//!    each other — readers merge the shards on scrape.
//! 3. **Windowed state evaluates inside the hub.** Lifecycle events run
//!    through the same [`LifecycleFold`] every post-hoc consumer uses;
//!    each latency it yields lands in a fixed-width window on the
//!    publisher's clock, and the embedded [`SloMonitor`] and
//!    [`DriftDetector`] fold the same observations, so attainment, burn
//!    rate and typed drift alarms are current *mid-run* instead of
//!    materialising at the end.

use crate::drift::{DriftAlarm, DriftBaseline, DriftDetector, DriftPolicy};
use crate::expo::{Exposition, MetricKind, Sample};
use crate::ledger::DeviceLedger;
use crate::lifecycle::{Latency, LatencySketches, LifecycleFold};
use crate::sink::TraceEvent;
use crate::slo::{Counts, SloMonitor, SloReport, SloTarget};
use crate::windows::Windowed;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of independently locked counter/gauge shards; publishers hash
/// their thread id to pick one, so same-thread publishes never contend
/// across threads.
pub const COUNTER_SHARDS: usize = 8;

/// How the hub windows, bounds and judges its live state.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Window width (publisher-clock seconds) for the series ring, the
    /// embedded SLO monitor and the drift-alarm refresh cadence.
    pub window_s: f64,
    /// Maximum windows retained in the series ring; older windows are
    /// dropped (and counted) when the run outlives the ring.
    pub ring_capacity: usize,
    /// Targets for the embedded [`SloMonitor`]; `None` disables the
    /// `/slo` attainment report (drift alarms still work).
    pub slo: Option<SloTarget>,
    /// Baseline + policy for the embedded [`DriftDetector`]; `None`
    /// disables live drift alarms.
    pub drift: Option<(DriftBaseline, DriftPolicy)>,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            window_s: 1.0,
            ring_capacity: 240,
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
    /// Wait seconds attributed per typed cause in the window.
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

/// One window under construction (sketches kept so quantiles are exact
/// snapshots, not frozen at seal time).
#[derive(Debug, Clone, Default)]
struct HubWindow {
    latency: LatencySketches,
    steps: u64,
    gpu_s: f64,
    prefill_tokens: u64,
    decode_tokens: u64,
    admitted: u64,
    rejected: u64,
    finished: u64,
    preemptions: u64,
    kv_occupancy_peak: f64,
    /// Attainment counts against the hub's SLO target, when it has one.
    slo: Counts,
    waits_s: BTreeMap<String, f64>,
}

impl HubWindow {
    fn digest(&self, index: u64, window_s: f64, slo: Option<&SloTarget>) -> HubSeriesWindow {
        let (ttft, itl) = (&self.latency.ttft, &self.latency.itl);
        HubSeriesWindow {
            index,
            start_s: index as f64 * window_s,
            steps: self.steps,
            gpu_s: self.gpu_s,
            prefill_tokens: self.prefill_tokens,
            decode_tokens: self.decode_tokens,
            admitted: self.admitted,
            rejected: self.rejected,
            finished: self.finished,
            preemptions: self.preemptions,
            kv_occupancy_peak: self.kv_occupancy_peak,
            ttft_count: ttft.count(),
            ttft_p50_s: ttft.quantile(0.50),
            ttft_p95_s: ttft.quantile(0.95),
            itl_count: itl.count(),
            itl_p50_s: itl.quantile(0.50),
            itl_p95_s: itl.quantile(0.95),
            e2e_p50_s: self.latency.e2e.quantile(0.50),
            burn_rate: slo.map_or(0.0, |t| self.slo.burn_rate(t.objective)),
            waits_s: self.waits_s.clone(),
        }
    }
}

/// Windowed state behind one mutex: the publisher clock orders these
/// updates, so they share a critical section (publishers are the hot
/// serving loop and readers are occasional scrapes — the counters, which
/// fire far more often, live in the shards instead).
#[derive(Debug)]
struct HubState {
    /// The lifecycle fold; a lane's state lives while its request does.
    fold: LifecycleFold,
    /// Whole-run latency sketches (the `/metrics` summaries).
    latency: LatencySketches,
    /// Window ring, oldest first; stragglers land in the oldest window.
    ring: Windowed<HubWindow>,
    slo: Option<SloMonitor>,
    drift: Option<DriftDetector>,
    /// Alarms refreshed at each window roll (and at `finish`).
    alarms: Vec<DriftAlarm>,
    /// Highest window index that has been rolled past (alarm cadence).
    alarmed_through: u64,
    /// Live device-time ledger fed by [`MetricsHub::charge`].
    ledger: DeviceLedger,
    /// Latest publisher timestamp seen.
    now_s: f64,
    kv_occupancy: f64,
    kv_occupancy_peak: f64,
    finished_run: bool,
}

impl HubState {
    /// The window holding `t_s`, growing the ring as the clock advances.
    fn window(&mut self, t_s: f64) -> &mut HubWindow {
        self.ring.at(t_s, |_| HubWindow::default())
    }
}

/// The live in-flight metrics registry. Construct one per run (or share
/// across runs to aggregate), hand `&MetricsHub` to the serving loop and
/// `Arc<MetricsHub>` to the scrape server.
#[derive(Debug)]
pub struct MetricsHub {
    slo_target: Option<SloTarget>,
    counters: [Mutex<BTreeMap<String, f64>>; COUNTER_SHARDS],
    gauges: Mutex<BTreeMap<String, f64>>,
    state: Mutex<HubState>,
}

fn shard_index() -> usize {
    // Thread ids are unique and cheap to hash; the exact distribution
    // does not matter, only that one thread always hits one shard.
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    (h.finish() as usize) % COUNTER_SHARDS
}

impl MetricsHub {
    /// A hub with the given windowing, ring bound and judges.
    pub fn new(cfg: HubConfig) -> Self {
        assert!(
            cfg.window_s.is_finite() && cfg.window_s > 0.0,
            "hub window must be positive"
        );
        assert!(cfg.ring_capacity > 0, "ring capacity must be positive");
        let slo = cfg.slo.map(|t| SloMonitor::new(t, cfg.window_s));
        let drift = cfg.drift.map(|(b, p)| DriftDetector::new(b, p));
        MetricsHub {
            slo_target: cfg.slo,
            counters: Default::default(),
            gauges: Mutex::new(BTreeMap::new()),
            state: Mutex::new(HubState {
                fold: LifecycleFold::new(),
                latency: LatencySketches::default(),
                ring: Windowed::ring(cfg.window_s, cfg.ring_capacity),
                slo,
                drift,
                alarms: Vec::new(),
                alarmed_through: 0,
                ledger: DeviceLedger::new(),
                now_s: 0.0,
                kv_occupancy: 0.0,
                kv_occupancy_peak: 0.0,
                finished_run: false,
            }),
        }
    }

    /// A hub with the default config (1 s windows, 240-window ring, no
    /// SLO targets, no drift baseline).
    pub fn with_defaults() -> Self {
        Self::new(HubConfig::default())
    }

    // ------------------------------------------------------------------
    // Publisher side
    // ------------------------------------------------------------------

    /// Adds `v` to the named monotone counter (sharded; lock-cheap).
    pub fn add(&self, name: &str, v: f64) {
        let mut shard = self.counters[shard_index()].lock().expect("hub shard");
        match shard.get_mut(name) {
            Some(e) => *e += v,
            None => {
                shard.insert(name.to_string(), v);
            }
        }
    }

    /// Sets the named gauge to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut g = self.gauges.lock().expect("hub gauges");
        match g.get_mut(name) {
            Some(e) => *e = v,
            None => {
                g.insert(name.to_string(), v);
            }
        }
    }

    /// Publishes one lifecycle event at publisher-clock `t_s` on `lane`.
    /// Sequence-lane events run through the same [`LifecycleFold`] the
    /// post-hoc consumers use, so a live hub and a post-hoc
    /// `SloMonitor::observe` agree on every observation.
    pub fn on_record(&self, t_s: f64, lane: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::Step {
                prefill_rows,
                decode_slots,
                gpu_s,
            } => {
                self.add("pit_hub_steps_total", 1.0);
                self.add("pit_hub_gpu_seconds_total", gpu_s);
                self.add("pit_hub_prefill_tokens_total", prefill_rows as f64);
                self.add("pit_hub_decode_tokens_total", decode_slots as f64);
                let mut st = self.state.lock().expect("hub state");
                st.now_s = st.now_s.max(t_s);
                let w = st.window(t_s);
                w.steps += 1;
                w.gpu_s += gpu_s;
                w.prefill_tokens += prefill_rows as u64;
                w.decode_tokens += decode_slots as u64;
                self.roll_alarms(&mut st);
                return;
            }
            TraceEvent::SwapOut { pages, .. } => {
                self.add("pit_hub_swap_out_pages_total", pages as f64)
            }
            TraceEvent::SwapIn { pages, .. } => {
                self.add("pit_hub_swap_in_pages_total", pages as f64)
            }
            TraceEvent::PrefillChunk { tokens } => {
                self.add("pit_hub_prefill_chunk_tokens_total", tokens as f64)
            }
            TraceEvent::PrefixHit { tokens, .. } => {
                self.add("pit_hub_prefix_hit_tokens_total", tokens as f64)
            }
            TraceEvent::SparsityEvict { pages } => {
                self.add("pit_hub_sparsity_evicted_pages_total", pages as f64)
            }
            TraceEvent::Admitted { .. } => self.add("pit_hub_admitted_total", 1.0),
            TraceEvent::Rejected => self.add("pit_hub_rejected_total", 1.0),
            TraceEvent::Finished => self.add("pit_hub_finished_total", 1.0),
            TraceEvent::Preempted { .. } => self.add("pit_hub_preemptions_total", 1.0),
            TraceEvent::Waiting { cause, since_s } => self.add_labelled(
                "pit_hub_wait_seconds_total",
                cause.name(),
                (t_s - since_s).max(0.0),
            ),
            TraceEvent::FirstToken | TraceEvent::DecodeStep { .. } => {}
        }
        let mut st = self.state.lock().expect("hub state");
        let Some(step) = st.fold.observe(t_s, lane, event) else {
            return; // device and link lanes carry no lifecycle
        };
        // Transfers and prefill bookkeeping only feed the fold: a restore
        // is stamped at its future landing, so it must not move the clock.
        if matches!(
            event,
            TraceEvent::SwapOut { .. }
                | TraceEvent::SwapIn { .. }
                | TraceEvent::PrefillChunk { .. }
                | TraceEvent::PrefixHit { .. }
                | TraceEvent::SparsityEvict { .. }
        ) {
            return;
        }
        st.now_s = st.now_s.max(t_s);
        if let Some(latency) = step.latency {
            self.observe_locked(&mut st, t_s, latency);
        }
        if let (TraceEvent::Rejected, Some(m)) = (event, st.slo.as_mut()) {
            m.record_rejection(t_s);
        }
        let w = st.window(t_s);
        match *event {
            TraceEvent::Admitted { .. } => w.admitted += 1,
            TraceEvent::Rejected => w.rejected += 1,
            TraceEvent::Finished => w.finished += 1,
            TraceEvent::Preempted { .. } => w.preemptions += 1,
            TraceEvent::Waiting { cause, since_s } => {
                *w.waits_s.entry(cause.name().to_string()).or_default() += (t_s - since_s).max(0.0)
            }
            _ => {}
        }
        if !matches!(
            event,
            TraceEvent::Preempted { .. } | TraceEvent::Waiting { .. }
        ) {
            self.roll_alarms(&mut st);
        }
    }

    /// Records one latency observation directly, for loops that do not
    /// emit lifecycle events (e.g. the batch runtime); an end-to-end
    /// latency also counts one completion.
    pub fn observe(&self, t_s: f64, latency: Latency) {
        let mut st = self.state.lock().expect("hub state");
        st.now_s = st.now_s.max(t_s);
        self.observe_locked(&mut st, t_s, latency);
        if let Latency::E2e(_) = latency {
            st.window(t_s).finished += 1;
        }
        self.roll_alarms(&mut st);
    }

    /// Books one virtual-clock charge into the hub's live ledger, e.g.
    /// `hub.charge(|l| l.charge_step(&sample))`.
    pub fn charge(&self, book: impl FnOnce(&mut DeviceLedger)) {
        book(&mut self.state.lock().expect("hub state").ledger);
    }

    /// Publishes the live KV occupancy gauge (also tracked per window).
    pub fn set_kv_occupancy(&self, occupancy: f64) {
        let mut st = self.state.lock().expect("hub state");
        st.kv_occupancy = occupancy;
        st.kv_occupancy_peak = st.kv_occupancy_peak.max(occupancy);
        let t_s = st.now_s;
        let w = st.window(t_s);
        w.kv_occupancy_peak = w.kv_occupancy_peak.max(occupancy);
    }

    /// Marks the run complete: seals the open window into the alarm
    /// evaluation and flips the `pit_hub_run_complete` gauge. Scrapes
    /// keep working after this — the endpoint outlives the replay.
    pub fn finish(&self) {
        let mut st = self.state.lock().expect("hub state");
        st.finished_run = true;
        if let Some(d) = st.drift.as_ref() {
            st.alarms = d.alarms();
        }
    }

    fn observe_locked(&self, st: &mut HubState, t_s: f64, latency: Latency) {
        st.latency.record(latency);
        if let Some(m) = st.slo.as_mut() {
            m.record(t_s, latency);
        }
        if let Some(d) = st.drift.as_mut() {
            d.record(latency);
        }
        let w = st.window(t_s);
        w.latency.record(latency);
        if let Some(t) = &self.slo_target {
            w.slo.record(t, latency);
        }
    }

    /// Refreshes drift alarms once per newly entered window, so alarms
    /// fire mid-run at window cadence rather than on every sample.
    fn roll_alarms(&self, st: &mut HubState) {
        let Some(hi) = st.ring.last_index() else {
            return;
        };
        if hi > st.alarmed_through {
            st.alarmed_through = hi;
            if let Some(d) = st.drift.as_ref() {
                st.alarms = d.alarms();
            }
        }
    }

    fn add_labelled(&self, family: &str, label: &str, v: f64) {
        // Encoded as "family\u{1}label" in the shard map; the exposition
        // renderer splits it back into a labelled sample.
        self.add(&format!("{family}\u{1}{label}"), v);
    }

    // ------------------------------------------------------------------
    // Reader side
    // ------------------------------------------------------------------

    /// Merges the counter shards into one sorted map. Each shard only
    /// ever grows, so consecutive merges are monotone per key.
    fn merged_counters(&self) -> BTreeMap<String, f64> {
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        for shard in &self.counters {
            for (k, v) in shard.lock().expect("hub shard").iter() {
                *merged.entry(k.clone()).or_default() += *v;
            }
        }
        merged
    }

    /// A consistent snapshot of the hub as a Prometheus exposition:
    /// merged counters, gauges, the whole-run latency summaries, the
    /// live ledger families and the SLO/drift digest. `parse_exposition`
    /// round-trips the rendered document.
    pub fn exposition(&self) -> Exposition {
        let mut out = Exposition::new();
        // Plain counters first, then labelled families, sorted by name —
        // deterministic output for a given state.
        let merged = self.merged_counters();
        let mut labelled: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        for (k, v) in &merged {
            match k.split_once('\u{1}') {
                Some((family, label)) => labelled
                    .entry(family.to_string())
                    .or_default()
                    .push((label.to_string(), *v)),
                None => out.counter(k, "Live hub counter", *v),
            }
        }
        for (family, samples) in labelled {
            out.family(
                &family,
                "Live hub counter by cause",
                MetricKind::Counter,
                samples
                    .into_iter()
                    .map(|(label, value)| Sample {
                        suffix: String::new(),
                        labels: vec![("cause".to_string(), label)],
                        value,
                    })
                    .collect(),
            );
        }
        for (k, v) in self.gauges.lock().expect("hub gauges").iter() {
            out.gauge(k, "Live hub gauge", *v);
        }
        let st = self.state.lock().expect("hub state");
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
            st.kv_occupancy_peak,
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
        if let Some(m) = st.slo.as_ref() {
            let r = m.report(Some(&st.ledger));
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
                "Hottest window's SLO burn rate so far",
                r.worst_window_burn_rate,
            );
        }
        for (name, help, sketch) in [
            (
                "pit_hub_ttft_seconds",
                "Live time-to-first-token (sketch-backed quantiles)",
                &st.latency.ttft,
            ),
            (
                "pit_hub_itl_seconds",
                "Live inter-token latency",
                &st.latency.itl,
            ),
            (
                "pit_hub_e2e_seconds",
                "Live end-to-end request latency",
                &st.latency.e2e,
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

    /// The live SLO report (attainment, burn rates, per-window digests)
    /// with the current drift alarms attached, or `None` when the hub
    /// was built without SLO targets.
    pub fn slo_report(&self) -> Option<SloReport> {
        let st = self.state.lock().expect("hub state");
        st.slo.as_ref().map(|m| {
            let mut r = m.report(Some(&st.ledger));
            r.drift = st.alarms.clone();
            r
        })
    }

    /// The `GET /slo` document: the [`SloReport`] as JSON, or a stub
    /// carrying just the alarms when no SLO target is configured.
    pub fn slo_json(&self) -> String {
        use serde::Serialize;
        match self.slo_report() {
            Some(r) => r.to_json(),
            None => {
                let st = self.state.lock().expect("hub state");
                format!("{{\"target\":null,\"drift\":{}}}", st.alarms.to_json())
            }
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
                .map(|(i, w)| w.digest(i, window_s, self.slo_target.as_ref()))
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
    use crate::blame::WaitCause;

    fn step(hub: &MetricsHub, t_s: f64, gpu_s: f64) {
        hub.on_record(
            t_s,
            crate::sink::DEVICE_LANE,
            &TraceEvent::Step {
                prefill_rows: 64,
                decode_slots: 8,
                gpu_s,
            },
        );
    }

    #[test]
    fn lifecycle_fold_matches_slo_monitor_convention() {
        let hub = MetricsHub::new(HubConfig {
            window_s: 1.0,
            ring_capacity: 16,
            slo: Some(SloTarget {
                ttft_s: 0.5,
                itl_s: 0.1,
                objective: 0.9,
            }),
            drift: None,
        });
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
        let hub = MetricsHub::new(HubConfig {
            window_s: 1.0,
            ring_capacity: 4,
            slo: None,
            drift: None,
        });
        for i in 0..10 {
            step(&hub, i as f64 + 0.5, 0.01);
        }
        let s = hub.series();
        assert_eq!(s.windows.len(), 4);
        assert_eq!(s.dropped, 6);
        assert_eq!(s.windows.first().expect("windows").index, 6);
        assert_eq!(s.windows.last().expect("windows").index, 9);
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
            ring_capacity: 64,
            slo: None,
            drift: Some((baseline, DriftPolicy::default())),
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
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        hub.add("pit_hub_steps_total", 1.0);
                    }
                });
            }
        });
        let merged = hub.merged_counters();
        assert_eq!(merged["pit_hub_steps_total"], 4000.0);
    }
}
