//! Windowed SLO monitor: rolling TTFT/ITL attainment and burn rate.
//!
//! Folds per-request latency observations — recorded directly or read
//! off a drained [`TraceRecord`] stream by the lane clocks of the
//! [`crate::LifecycleFold`] — into fixed-width windows, and reports per-window
//! and whole-run **SLO attainment** (fraction of observations within
//! target) plus the **burn rate** familiar from SRE error budgets:
//!
//! ```text
//! burn = (1 − attainment) / (1 − objective)
//! ```
//!
//! Burn 1.0 means the run consumes its error budget exactly as fast as
//! the objective allows; above 1.0 the budget is burning down. Rejected
//! admissions count as TTFT misses — a request that never got a first
//! token failed its latency objective by any reading. The device-time
//! ledger joins at report time: its busy fraction is the gauge that says
//! whether an SLO burn came with a saturated device (capacity) or an
//! idle one (scheduling).

use crate::drift::DriftAlarm;
use crate::ledger::DeviceLedger;
use crate::lifecycle::{Latency, LifecycleFold};
use crate::sink::{TraceEvent, TraceRecord};
use crate::windows::Windowed;

/// The service-level targets a run is held to.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SloTarget {
    /// Time-to-first-token target (seconds).
    pub ttft_s: f64,
    /// Inter-token latency target (seconds).
    pub itl_s: f64,
    /// Attainment objective in (0, 1), e.g. 0.99 for "99% of requests
    /// within target".
    pub objective: f64,
}

/// Attainment counts for one window or a whole run, shared with the live
/// hub.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Counts {
    ttft_total: u64,
    ttft_ok: u64,
    itl_total: u64,
    itl_ok: u64,
}

impl Counts {
    /// Counts one observation against `target` (end-to-end latencies
    /// carry no target).
    pub(crate) fn record(&mut self, target: &SloTarget, latency: Latency) {
        let (total, ok, hit) = match latency {
            Latency::Ttft(v) => (&mut self.ttft_total, &mut self.ttft_ok, v <= target.ttft_s),
            Latency::Itl(v) => (&mut self.itl_total, &mut self.itl_ok, v <= target.itl_s),
            Latency::E2e(_) => return,
        };
        *total += 1;
        *ok += u64::from(hit);
    }

    /// Counts a rejected admission: a TTFT miss (the request never got a
    /// first token).
    pub(crate) fn record_rejection(&mut self) {
        self.ttft_total += 1;
    }

    /// Burn rate of the worse of the two attainments against `objective`.
    pub(crate) fn burn_rate(&self, objective: f64) -> f64 {
        let ttft = attainment(self.ttft_ok, self.ttft_total);
        (1.0 - ttft.min(attainment(self.itl_ok, self.itl_total))) / (1.0 - objective)
    }
}

/// Accumulates TTFT/ITL observations into fixed-width windows.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    target: SloTarget,
    windows: Windowed<Counts>,
    totals: Counts,
}

/// One window's attainment digest.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SloWindowReport {
    /// Window start time (seconds).
    pub start_s: f64,
    /// TTFT observations in the window (rejections included).
    pub ttft_total: u64,
    /// TTFT observations within target.
    pub ttft_ok: u64,
    /// ITL observations in the window.
    pub itl_total: u64,
    /// ITL observations within target.
    pub itl_ok: u64,
    /// TTFT attainment (1.0 when the window saw no observations).
    pub ttft_attainment: f64,
    /// ITL attainment.
    pub itl_attainment: f64,
    /// Window burn rate from the worse of the two attainments.
    pub burn_rate: f64,
}

/// The monitor's rolled-up report.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SloReport {
    /// The targets the run was held to.
    pub target: SloTarget,
    /// Window width (seconds).
    pub window_s: f64,
    /// Whole-run TTFT attainment.
    pub ttft_attainment: f64,
    /// Whole-run ITL attainment.
    pub itl_attainment: f64,
    /// Whole-run TTFT burn rate.
    pub ttft_burn_rate: f64,
    /// Whole-run ITL burn rate.
    pub itl_burn_rate: f64,
    /// The hottest window's burn rate (of the windows the live hub's
    /// ring still holds, for a hub's report).
    pub worst_window_burn_rate: f64,
    /// Device busy fraction from the joined ledger (`None` without one).
    pub busy_fraction: Option<f64>,
    /// Drift alarms raised against a committed baseline (empty when no
    /// [`crate::DriftDetector`] was attached; callers running one set
    /// this from its `alarms()`).
    pub drift: Vec<DriftAlarm>,
    /// Per-window digests, oldest first.
    pub windows: Vec<SloWindowReport>,
}

fn attainment(ok: u64, total: u64) -> f64 {
    if total == 0 {
        1.0
    } else {
        ok as f64 / total as f64
    }
}

impl SloTarget {
    /// Panics unless the objective lies in (0, 1) and both latency
    /// targets are positive.
    pub(crate) fn validate(&self) {
        assert!(
            self.objective > 0.0 && self.objective < 1.0,
            "objective must be in (0, 1), got {}",
            self.objective
        );
        assert!(
            self.ttft_s > 0.0 && self.itl_s > 0.0,
            "latency targets must be positive"
        );
    }
}

impl SloMonitor {
    /// A monitor holding runs to `target` over `window_s`-wide windows.
    pub fn new(target: SloTarget, window_s: f64) -> Self {
        assert!(window_s > 0.0, "window width must be positive");
        target.validate();
        SloMonitor {
            target,
            windows: Windowed::new(window_s),
            totals: Counts::default(),
        }
    }

    /// Records one TTFT or ITL observation at time `t_s` (end-to-end
    /// latencies carry no target and are ignored).
    pub fn record(&mut self, t_s: f64, latency: Latency) {
        if !matches!(latency, Latency::E2e(_)) {
            let target = self.target;
            self.windows
                .at(t_s, |_| Counts::default())
                .record(&target, latency);
            self.totals.record(&target, latency);
        }
    }

    /// Records a rejected admission: a TTFT miss (the request never got a
    /// first token).
    pub fn record_rejection(&mut self, t_s: f64) {
        self.windows
            .at(t_s, |_| Counts::default())
            .record_rejection();
        self.totals.record_rejection();
    }

    /// Replays a drained trace-sink stream through the lifecycle fold:
    /// each lane's first token is a TTFT observation, later tokens
    /// (re-admission first tokens included) are ITL observations, and
    /// `Rejected` lanes count as TTFT misses — the same attribution the
    /// serving metrics use.
    pub fn observe(&mut self, records: &[TraceRecord]) {
        let mut fold = LifecycleFold::new();
        for r in records {
            if matches!(r.event, TraceEvent::Rejected) {
                self.record_rejection(r.t_s);
            }
            if let Some(latency) = fold
                .observe(r.t_s, r.lane, &r.event)
                .and_then(|s| s.latency)
            {
                self.record(r.t_s, latency);
            }
        }
    }

    /// Rolls the windows up, joining `ledger`'s busy fraction when given.
    pub fn report(&self, ledger: Option<&DeviceLedger>) -> SloReport {
        let window_s = self.windows.width_s();
        report(
            self.target,
            window_s,
            &self.totals,
            self.windows.iter(),
            ledger,
        )
    }
}

/// The report over `windows` (indexed, oldest first) of `window_s`
/// seconds each: whole-run attainment and burn from `totals`, the hottest
/// of `windows` as the worst window, and `ledger`'s busy fraction when
/// given. [`SloMonitor::report`] and the live hub's `/slo` both build
/// their reports here.
pub(crate) fn report<'a>(
    target: SloTarget,
    window_s: f64,
    totals: &Counts,
    windows: impl Iterator<Item = (u64, &'a Counts)>,
    ledger: Option<&DeviceLedger>,
) -> SloReport {
    let objective = target.objective;
    let windows: Vec<SloWindowReport> = windows
        .map(|(i, c)| SloWindowReport {
            start_s: i as f64 * window_s,
            ttft_total: c.ttft_total,
            ttft_ok: c.ttft_ok,
            itl_total: c.itl_total,
            itl_ok: c.itl_ok,
            ttft_attainment: attainment(c.ttft_ok, c.ttft_total),
            itl_attainment: attainment(c.itl_ok, c.itl_total),
            burn_rate: c.burn_rate(objective),
        })
        .collect();
    let ttft_attainment = attainment(totals.ttft_ok, totals.ttft_total);
    let itl_attainment = attainment(totals.itl_ok, totals.itl_total);
    let burn = |att: f64| (1.0 - att) / (1.0 - objective);
    SloReport {
        target,
        window_s,
        ttft_attainment,
        itl_attainment,
        ttft_burn_rate: burn(ttft_attainment),
        itl_burn_rate: burn(itl_attainment),
        worst_window_burn_rate: windows.iter().map(|w| w.burn_rate).fold(0.0, f64::max),
        busy_fraction: ledger.map(|l| l.utilization().busy_fraction),
        drift: Vec::new(),
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    fn target() -> SloTarget {
        SloTarget {
            ttft_s: 0.5,
            itl_s: 0.1,
            objective: 0.9,
        }
    }

    #[test]
    fn attainment_and_burn_rate_follow_the_error_budget() {
        let mut m = SloMonitor::new(target(), 10.0);
        // Window 0: 4 TTFT hits, 1 miss → 80% attainment, burn 2.0.
        for i in 0..4 {
            m.record(i as f64, Latency::Ttft(0.2));
        }
        m.record(4.0, Latency::Ttft(1.5));
        // Window 1: all ITL within target.
        for i in 0..10 {
            m.record(10.5 + i as f64 * 0.1, Latency::Itl(0.05));
        }
        let r = m.report(None);
        assert_eq!(r.windows.len(), 2);
        assert!((r.windows[0].ttft_attainment - 0.8).abs() < 1e-12);
        assert!((r.windows[0].burn_rate - 2.0).abs() < 1e-9);
        assert_eq!(r.windows[1].itl_attainment, 1.0);
        assert_eq!(r.windows[1].burn_rate, 0.0);
        assert!((r.ttft_attainment - 0.8).abs() < 1e-12);
        assert_eq!(r.itl_attainment, 1.0);
        assert!((r.worst_window_burn_rate - 2.0).abs() < 1e-9);
        assert!(r.busy_fraction.is_none());
    }

    #[test]
    fn observe_replays_lifecycles_like_the_serving_metrics() {
        let sink = TraceSink::enabled();
        // Arrival 0.0, first token 0.4 (hit), decode gaps 0.05 and 0.2
        // (one hit, one miss).
        sink.record(0.1, 7, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(0.4, 7, TraceEvent::FirstToken);
        sink.record(
            0.45,
            7,
            TraceEvent::DecodeStep {
                attended: 8,
                cached: 8,
            },
        );
        sink.record(
            0.65,
            7,
            TraceEvent::DecodeStep {
                attended: 9,
                cached: 9,
            },
        );
        sink.record(0.65, 7, TraceEvent::Finished);
        // A rejected lane is a TTFT miss.
        sink.record(0.2, 8, TraceEvent::Rejected);
        let mut m = SloMonitor::new(target(), 60.0);
        m.observe(&sink.drain());
        let r = m.report(None);
        assert_eq!(r.windows.len(), 1);
        assert_eq!(r.windows[0].ttft_total, 2);
        assert_eq!(r.windows[0].ttft_ok, 1);
        assert_eq!(r.windows[0].itl_total, 2);
        assert_eq!(r.windows[0].itl_ok, 1);
    }

    #[test]
    fn readmission_first_token_counts_as_itl_not_ttft() {
        let sink = TraceSink::enabled();
        sink.record(0.1, 3, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(0.3, 3, TraceEvent::FirstToken);
        sink.record(
            0.4,
            3,
            TraceEvent::Preempted {
                policy: "recompute",
            },
        );
        sink.record(0.5, 3, TraceEvent::Admitted { arrival_s: 0.0 });
        // Re-admitted prefill completion emits its next token.
        sink.record(0.9, 3, TraceEvent::FirstToken);
        let mut m = SloMonitor::new(target(), 60.0);
        m.observe(&sink.drain());
        let r = m.report(None);
        assert_eq!(r.windows[0].ttft_total, 1, "one TTFT per request");
        assert_eq!(r.windows[0].itl_total, 1, "the re-admission gap is ITL");
        assert_eq!(r.windows[0].itl_ok, 0, "0.6 s gap misses the 0.1 s target");
    }

    #[test]
    fn window_series_and_ledger_join() {
        let mut m = SloMonitor::new(target(), 10.0);
        m.record(1.0, Latency::Ttft(0.1));
        let mut ledger = DeviceLedger::new();
        ledger.charge_step(&crate::ledger::StepSample {
            gpu_s: 3.0,
            ..Default::default()
        });
        ledger.charge_idle(1.0);
        let r = m.report(Some(&ledger));
        assert_eq!(r.windows[0].ttft_total, 1);
        assert_eq!(r.windows[0].ttft_ok, 1);
        assert!((r.busy_fraction.expect("ledger joined") - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "objective")]
    fn degenerate_objectives_are_rejected() {
        SloMonitor::new(
            SloTarget {
                ttft_s: 1.0,
                itl_s: 1.0,
                objective: 1.0,
            },
            10.0,
        );
    }
}
