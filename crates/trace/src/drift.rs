//! Online drift detection: latency sketches against a committed
//! baseline.
//!
//! A [`DriftDetector`] folds drained record streams into TTFT / ITL /
//! e2e sketches and compares their quantiles (and the blame cause mix)
//! against a [`DriftBaseline`] captured from a known-good run. A shift
//! beyond tolerance raises a typed [`DriftAlarm`], surfaced through
//! `SloReport` and the `trace_explain` CLI. The live
//! [`crate::MetricsHub`] applies the same latency comparison to its own
//! whole-run sketches, so the existing sketches become an online
//! regression alarm without any new per-request state. Sketch merge is
//! exact, so observations split across calls (or runs) alarm exactly as
//! if they had been folded at once.

use crate::blame::{blame_spans, BlameAggregate, BlameCategory, BlameSummary};
use crate::lifecycle::{LatencySketches, LifecycleFold};
use crate::sink::TraceRecord;
use std::fmt;

/// What kind of shift an alarm reports. (Fieldless on purpose: the
/// vendored serde derives enums via their `Debug` form, which is clean
/// JSON for a plain tag.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum DriftKind {
    /// A latency quantile moved beyond tolerance.
    QuantileShift,
    /// A blame category's share of end-to-end time moved beyond
    /// tolerance.
    CauseMixShift,
}

/// One detected shift against the baseline.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DriftAlarm {
    /// What shifted.
    pub kind: DriftKind,
    /// The metric ("ttft" / "itl" / "e2e") or blame-cause name.
    pub metric: String,
    /// The quantile compared (0 for cause-mix alarms).
    pub quantile: f64,
    /// The baseline value (seconds, or share for cause-mix).
    pub baseline: f64,
    /// The observed value.
    pub observed: f64,
    /// Relative change `(observed - baseline) / baseline` (absolute
    /// share delta for cause-mix alarms).
    pub rel_change: f64,
}

impl fmt::Display for DriftAlarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DriftKind::QuantileShift => write!(
                f,
                "drift: {} p{:.0} {:.4}s -> {:.4}s ({:+.0}%)",
                self.metric,
                self.quantile * 100.0,
                self.baseline,
                self.observed,
                self.rel_change * 100.0,
            ),
            DriftKind::CauseMixShift => write!(
                f,
                "drift: cause {} share {:.0}% -> {:.0}% ({:+.0} pts)",
                self.metric,
                self.baseline * 100.0,
                self.observed * 100.0,
                self.rel_change * 100.0,
            ),
        }
    }
}

/// Quantiles compared per latency metric.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];
/// Minimum relative quantile change to alarm on.
const REL_TOLERANCE: f64 = 0.25;
/// Minimum absolute quantile change (seconds): suppresses alarms on
/// microscopic latencies where relative change is meaningless.
const ABS_TOLERANCE_S: f64 = 1e-3;
/// Minimum absolute change in a cause's e2e share (fraction).
const MIX_TOLERANCE: f64 = 0.15;
/// Minimum observed sample count before quantiles are trusted.
const MIN_COUNT: u64 = 20;

/// E2e share per blame category, indexed by [`BlameCategory::index`].
type CauseShares = [f64; BlameCategory::COUNT];

/// The e2e share of each category of a blame summary, or `None` when the
/// summary attributed no time (nothing to compare).
fn cause_mix(summary: &BlameSummary) -> Option<CauseShares> {
    if summary.causes.is_empty() {
        return None;
    }
    let mut shares = [0.0; BlameCategory::COUNT];
    for c in &summary.causes {
        shares[c.cause.index()] = c.e2e_share;
    }
    Some(shares)
}

/// A sorted record stream's latency sketches, from a pass of the
/// lifecycle fold, and blame cause mix, from [`blame_spans`].
fn digest(records: &[TraceRecord]) -> (LatencySketches, Option<CauseShares>) {
    let mut latency = LatencySketches::default();
    let mut fold = LifecycleFold::new();
    for r in records {
        let step = fold.observe(r.t_s, r.lane, &r.event);
        if let Some(l) = step.and_then(|s| s.latency) {
            latency.record(l);
        }
    }
    let mut agg = BlameAggregate::new();
    agg.fold_spans(&blame_spans(records));
    (latency, cause_mix(&agg.summary()))
}

/// A committed reference distribution: latency sketches plus the blame
/// cause mix of a known-good run.
#[derive(Debug, Clone)]
pub struct DriftBaseline {
    /// TTFT / ITL / e2e distributions of the baseline run.
    pub latency: LatencySketches,
    /// E2e share of each blame category in the baseline's blame summary
    /// (indexed by [`BlameCategory::index`]; all 0 when it attributed no
    /// time).
    pub cause_share: [f64; BlameCategory::COUNT],
}

impl DriftBaseline {
    /// Captures a baseline from a known-good run's sorted records.
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let (latency, cause_share) = digest(records);
        DriftBaseline {
            latency,
            cause_share: cause_share.unwrap_or([0.0; BlameCategory::COUNT]),
        }
    }

    /// Quantile-shift alarms of `observed` against the baseline's
    /// latencies, in metric × quantile order.
    pub(crate) fn latency_alarms(&self, observed: &LatencySketches) -> Vec<DriftAlarm> {
        let mut alarms = Vec::new();
        for ((name, base), (_, obs)) in self.latency.named().into_iter().zip(observed.named()) {
            if obs.count() < MIN_COUNT || base.count() == 0 {
                continue;
            }
            for q in QUANTILES {
                let b = base.quantile(q);
                let o = obs.quantile(q);
                let abs = (o - b).abs();
                let rel = if b > 0.0 { (o - b) / b } else { f64::INFINITY };
                if abs > ABS_TOLERANCE_S && rel.abs() > REL_TOLERANCE {
                    alarms.push(DriftAlarm {
                        kind: DriftKind::QuantileShift,
                        metric: name.to_string(),
                        quantile: q,
                        baseline: b,
                        observed: o,
                        rel_change: rel,
                    });
                }
            }
        }
        alarms
    }
}

/// Folds observations into one sketch per metric and compares them (and
/// the cause mix) against the baseline.
///
/// A quantile alarms when it moves by more than 25% and more than 1 ms,
/// compared at p50, p95 and p99 once the metric holds 20 observations; a
/// cause alarms when its e2e share moves by more than 15 points.
#[derive(Debug)]
pub struct DriftDetector {
    baseline: DriftBaseline,
    observed: LatencySketches,
    /// `None` until a blame reduction with attributed time is observed.
    observed_mix: Option<CauseShares>,
}

impl DriftDetector {
    /// A detector comparing against `baseline`.
    pub fn new(baseline: DriftBaseline) -> Self {
        DriftDetector {
            baseline,
            observed: LatencySketches::default(),
            observed_mix: None,
        }
    }

    /// Folds a sorted record stream's latencies into the observed
    /// sketches and replaces the observed cause mix with the stream's
    /// blame reduction.
    pub fn observe(&mut self, records: &[TraceRecord]) {
        let (latency, mix) = digest(records);
        self.observed.merge(&latency);
        self.observed_mix = mix;
    }

    /// Sets the observed cause mix from an already-computed blame
    /// summary (for callers that aggregated blame themselves).
    pub fn observe_blame(&mut self, summary: &BlameSummary) {
        self.observed_mix = cause_mix(summary);
    }

    /// Compares the observations against the baseline; returned alarms
    /// are in a deterministic order: metrics × quantiles, then causes in
    /// taxonomy order ([`BlameCategory::ALL`]).
    pub fn alarms(&self) -> Vec<DriftAlarm> {
        let mut alarms = self.baseline.latency_alarms(&self.observed);
        // Cause-mix shifts over every category, so dropped and
        // newly-appearing causes both alarm. No observed mix means no
        // blame reduction has been fed yet — that is "not measured", not
        // "measured zero", so it raises nothing.
        let Some(observed) = &self.observed_mix else {
            return alarms;
        };
        for c in BlameCategory::ALL {
            let (b, o) = (self.baseline.cause_share[c.index()], observed[c.index()]);
            if (o - b).abs() > MIX_TOLERANCE {
                alarms.push(DriftAlarm {
                    kind: DriftKind::CauseMixShift,
                    metric: c.name().to_string(),
                    quantile: 0.0,
                    baseline: b,
                    observed: o,
                    rel_change: o - b,
                });
            }
        }
        alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{TraceEvent, TraceSink};

    /// `n` requests, one per second, each with the given ttft and one
    /// decode gap.
    fn run(n: u64, ttft: f64, itl: f64) -> Vec<TraceRecord> {
        let sink = TraceSink::enabled();
        for lane in 0..n {
            let a = lane as f64;
            sink.record(a + 0.01, lane, TraceEvent::Admitted { arrival_s: a });
            sink.record(a + ttft, lane, TraceEvent::FirstToken);
            sink.record(
                a + ttft + itl,
                lane,
                TraceEvent::DecodeStep {
                    attended: 8,
                    cached: 8,
                },
            );
            sink.record(a + ttft + itl, lane, TraceEvent::Finished);
        }
        sink.drain()
    }

    #[test]
    fn no_alarms_when_observation_matches_baseline() {
        let base = DriftBaseline::from_records(&run(30, 0.2, 0.05));
        let mut det = DriftDetector::new(base);
        det.observe(&run(30, 0.2, 0.05));
        assert_eq!(det.alarms(), Vec::new());
    }

    #[test]
    fn quantile_shift_beyond_tolerance_alarms() {
        let base = DriftBaseline::from_records(&run(30, 0.2, 0.05));
        let mut det = DriftDetector::new(base);
        det.observe(&run(30, 0.4, 0.05));
        let alarms = det.alarms();
        assert!(!alarms.is_empty());
        let ttft_p50 = alarms
            .iter()
            .find(|a| a.metric == "ttft" && a.quantile == 0.5)
            .expect("ttft p50 shifted");
        assert_eq!(ttft_p50.kind, DriftKind::QuantileShift);
        assert!(ttft_p50.rel_change > 0.5, "doubled ttft");
        assert!(alarms.iter().all(|a| a.metric != "itl"), "itl unchanged");
        assert!(ttft_p50.to_string().contains("ttft p50"));
    }

    #[test]
    fn split_observations_alarm_like_one_pass() {
        // Sketch merge is exact: a stream observed in two halves (split
        // at a lane boundary — each lane's four records are contiguous)
        // raises exactly the alarms of one pass over the whole.
        let base = DriftBaseline::from_records(&run(30, 0.2, 0.05));
        let shifted = run(40, 0.4, 0.05);
        let mut whole = DriftDetector::new(base.clone());
        whole.observe(&shifted);
        let mut split = DriftDetector::new(base);
        split.observe(&shifted[..80]);
        split.observe(&shifted[80..]);
        // The cause mix is replaced, not merged, per observation.
        split.observe_blame(&{
            let mut agg = BlameAggregate::new();
            agg.fold_spans(&blame_spans(&shifted));
            agg.summary()
        });
        assert!(!whole.alarms().is_empty());
        assert_eq!(whole.alarms(), split.alarms());
    }

    #[test]
    fn cause_mix_shift_alarms() {
        let base = DriftBaseline::from_records(&run(30, 0.2, 0.05));
        let mut det = DriftDetector::new(base);
        // Same latencies, but now most of each request's time is a
        // typed kv-pool wait instead of prefill.
        let sink = TraceSink::enabled();
        for lane in 0..30u64 {
            let a = lane as f64;
            sink.record(
                a + 0.18,
                lane,
                TraceEvent::Waiting {
                    cause: crate::blame::WaitCause::KvPoolExhausted,
                    since_s: a,
                },
            );
            sink.record(a + 0.2, lane, TraceEvent::FirstToken);
            sink.record(a + 0.25, lane, TraceEvent::Finished);
        }
        det.observe(&sink.drain());
        let alarms = det.alarms();
        let mix: Vec<&DriftAlarm> = alarms
            .iter()
            .filter(|a| a.kind == DriftKind::CauseMixShift)
            .collect();
        assert!(
            mix.iter().any(|a| a.metric == "kv_pool_exhausted"),
            "new dominant cause alarms: {alarms:?}"
        );
        assert!(
            mix.iter().any(|a| a.rel_change < 0.0),
            "displaced cause alarms too"
        );
        // Causes alarm in taxonomy order.
        let names: Vec<&str> = mix.iter().map(|a| a.metric.as_str()).collect();
        let taxonomy: Vec<&str> = BlameCategory::ALL
            .iter()
            .map(|c| c.name())
            .filter(|n| names.contains(n))
            .collect();
        assert_eq!(names, taxonomy);
    }
}
