//! The per-lane lifecycle fold: the one place a request's event stream
//! becomes latencies and causal tiles.
//!
//! Every stream consumer — the blame reduction and its phase breakdown,
//! the SLO monitor, the drift detector, the live hub, the exemplar
//! reservoir and the Chrome exporter — feeds its records through a
//! [`LifecycleFold`], so they all agree on one convention:
//!
//! - the lane's first event anchors it: `Admitted` and `Waiting` carry
//!   the true wait start, anything else starts the clock at itself;
//! - every inter-event gap belongs to the *later* event's
//!   [`BlameCategory`] (and through it to a coarse [`crate::Phase`]),
//!   so the gaps tile `[arrival, last event]` exactly;
//! - the first token event (`FirstToken` or `DecodeStep`) closes TTFT,
//!   every later one — a re-admission `FirstToken` included — is an
//!   inter-token gap, and `Finished` closes the end-to-end latency;
//! - `Finished` and `Rejected` end the lane and release its state, so a
//!   live fold holds only requests in flight.
//!
//! [`LaneSpans`] keeps each lane's breakdown as it closes. The decode
//! replay folds online through it, event by event as it records them, so
//! a traced run's blame and phase breakdown need no pass over the sink at
//! the end; [`LifecycleFold::replay`] folds a recorded stream through the
//! same collector after the fact.

use crate::blame::{BlameBreakdown, BlameCategory};
use crate::sink::{TraceEvent, TraceRecord, RESERVED_LANES};
use crate::sketch::LatencySketch;
use std::collections::BTreeMap;

/// One latency observation a lifecycle event closed (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Latency {
    /// Arrival to first token.
    Ttft(f64),
    /// Gap between consecutive tokens of one request.
    Itl(f64),
    /// Arrival to `Finished`.
    E2e(f64),
}

/// TTFT, ITL and end-to-end sketches fed by [`Latency`] observations.
#[derive(Debug, Clone, Default)]
pub struct LatencySketches {
    /// Time-to-first-token distribution.
    pub ttft: LatencySketch,
    /// Inter-token-latency distribution.
    pub itl: LatencySketch,
    /// End-to-end distribution.
    pub e2e: LatencySketch,
}

impl LatencySketches {
    /// Records one observation into its sketch.
    pub fn record(&mut self, latency: Latency) {
        match latency {
            Latency::Ttft(v) => self.ttft.record(v),
            Latency::Itl(v) => self.itl.record(v),
            Latency::E2e(v) => self.e2e.record(v),
        }
    }

    /// Merges `other` sketch by sketch (exact: counts add bucket-wise).
    pub(crate) fn merge(&mut self, other: &LatencySketches) {
        self.ttft.merge(&other.ttft);
        self.itl.merge(&other.itl);
        self.e2e.merge(&other.e2e);
    }

    /// The sketches by metric name, in `ttft`, `itl`, `e2e` order.
    pub(crate) fn named(&self) -> [(&'static str, &LatencySketch); 3] {
        [("ttft", &self.ttft), ("itl", &self.itl), ("e2e", &self.e2e)]
    }
}

/// What one sequence-lane event did to its lane. The gap it closes is
/// already charged to the lane's breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStep {
    /// Where that gap began: the lane's previous event, or its arrival
    /// anchor.
    pub since_s: f64,
    /// The latency observation the event closed, if any.
    pub latency: Option<Latency>,
    /// The lane's final breakdown when the event ended it (`Finished`, or
    /// `Rejected` with `finished == false`).
    pub closed: Option<BlameBreakdown>,
}

/// One open lane: its tiles so far plus the two clocks the next event
/// measures against.
#[derive(Debug, Clone, Copy)]
struct LaneState {
    span: BlameBreakdown,
    /// The latest event's time — where the next gap starts.
    prev_s: f64,
    /// The latest token event's time.
    last_token_s: Option<f64>,
}

/// The per-lane lifecycle state machine over every sequence lane of a
/// stream (device and link lanes are ignored).
#[derive(Debug, Clone, Default)]
pub struct LifecycleFold {
    lanes: BTreeMap<u64, LaneState>,
}

impl LifecycleFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event at `t_s` on `lane`; `None` for reserved lanes.
    pub fn observe(&mut self, t_s: f64, lane: u64, event: &TraceEvent) -> Option<LaneStep> {
        if lane >= RESERVED_LANES {
            return None;
        }
        let st = self.lanes.entry(lane).or_insert_with(|| {
            let arrival_s = match *event {
                TraceEvent::Admitted { arrival_s } => arrival_s,
                TraceEvent::Waiting { since_s, .. } => since_s,
                _ => t_s,
            };
            LaneState {
                span: BlameBreakdown::new(arrival_s),
                prev_s: arrival_s,
                last_token_s: None,
            }
        });
        let since_s = st.prev_s;
        let in_ttft = st.span.first_token_s.is_none();
        st.span.charge(
            BlameCategory::of_event(event),
            (t_s - since_s).max(0.0),
            in_ttft,
        );
        st.prev_s = since_s.max(t_s);
        st.span.end_s = st.span.end_s.max(t_s);
        let latency = match event {
            TraceEvent::FirstToken | TraceEvent::DecodeStep { .. } => {
                let prev = st.last_token_s.replace(t_s);
                Some(match prev {
                    Some(prev) => Latency::Itl((t_s - prev).max(0.0)),
                    None => {
                        st.span.first_token_s = Some(t_s);
                        Latency::Ttft(t_s - st.span.arrival_s)
                    }
                })
            }
            TraceEvent::Finished => {
                st.span.finished = true;
                Some(Latency::E2e(t_s - st.span.arrival_s))
            }
            _ => None,
        };
        let closed = matches!(event, TraceEvent::Finished | TraceEvent::Rejected)
            .then(|| self.lanes.remove(&lane).expect("lane observed above").span);
        Some(LaneStep {
            since_s,
            latency,
            closed,
        })
    }

    /// Lanes opened and not yet ended by `Finished` or `Rejected`.
    #[cfg(test)]
    pub(crate) fn open_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Folds a sorted record stream (as `TraceSink::drain`/`snapshot`
    /// return it) in one pass, handing every sequence-lane step to `each`,
    /// and returns each lane's breakdown — the ones the stream ended and
    /// the ones still open when it stopped.
    pub fn replay(
        records: &[TraceRecord],
        mut each: impl FnMut(&TraceRecord, &LaneStep),
    ) -> BTreeMap<u64, BlameBreakdown> {
        let mut spans = LaneSpans::new();
        for r in records {
            if let Some(step) = spans.observe(r.t_s, r.lane, &r.event) {
                each(r, &step);
            }
        }
        spans.finish()
    }
}

/// A [`LifecycleFold`] that keeps every lane's [`BlameBreakdown`]: a
/// lane's final breakdown is stored when `Finished` or `Rejected` closes
/// it, and [`LaneSpans::finish`] adds the lanes still open. The one
/// closed-lane collector: [`LifecycleFold::replay`] runs on it after a
/// run, and the decode replay feeds it each event as it records it.
///
/// The fold keeps separate state per lane, so feeding events in emission
/// order yields the same spans as feeding the time-sorted stream whenever
/// each lane's times never decrease in emission order — true of the
/// decode replay's lanes, and pinned by `tests/blame_invariants.rs`.
#[derive(Debug, Clone, Default)]
pub struct LaneSpans {
    fold: LifecycleFold,
    closed: BTreeMap<u64, BlameBreakdown>,
}

impl LaneSpans {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event ([`LifecycleFold::observe`]), storing the lane's
    /// breakdown if the event closed it.
    pub fn observe(&mut self, t_s: f64, lane: u64, event: &TraceEvent) -> Option<LaneStep> {
        let step = self.fold.observe(t_s, lane, event)?;
        if let Some(b) = step.closed {
            self.closed.insert(lane, b);
        }
        Some(step)
    }

    /// Every lane's breakdown, by lane: the closed ones and those still
    /// open.
    pub fn finish(self) -> BTreeMap<u64, BlameBreakdown> {
        let mut spans = self.closed;
        spans.extend(
            self.fold
                .lanes
                .into_iter()
                .map(|(lane, st)| (lane, st.span)),
        );
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{TraceSink, DEVICE_LANE};

    #[test]
    fn first_token_closes_ttft_and_later_tokens_are_gaps() {
        let mut fold = LifecycleFold::new();
        let mut seen = Vec::new();
        for (t, event) in [
            (0.5, TraceEvent::Admitted { arrival_s: 0.25 }),
            (1.0, TraceEvent::FirstToken),
            (
                1.5,
                TraceEvent::Preempted {
                    policy: "recompute",
                },
            ),
            (2.0, TraceEvent::Admitted { arrival_s: 0.25 }),
            // The re-prefill's token resumes the request: an ITL.
            (2.5, TraceEvent::FirstToken),
            (
                2.75,
                TraceEvent::DecodeStep {
                    attended: 8,
                    cached: 8,
                },
            ),
            (2.75, TraceEvent::Finished),
        ] {
            let step = fold.observe(t, 4, &event).expect("sequence lane");
            seen.extend(step.latency);
            if matches!(event, TraceEvent::Finished) {
                let b = step.closed.expect("Finished ends the lane");
                assert!(b.finished);
                assert_eq!(b.first_token_s, Some(1.0));
            } else {
                assert!(step.closed.is_none());
            }
        }
        assert_eq!(
            seen,
            vec![
                Latency::Ttft(0.75),
                Latency::Itl(1.5),
                Latency::Itl(0.25),
                Latency::E2e(2.5),
            ]
        );
        assert_eq!(fold.open_lanes(), 0, "a finished lane holds no state");
    }

    #[test]
    fn waiting_anchors_the_lane_and_rejection_ends_it() {
        let mut fold = LifecycleFold::new();
        let cause = crate::blame::WaitCause::MaxLiveCap;
        let first = fold
            .observe(
                1.0,
                2,
                &TraceEvent::Waiting {
                    cause,
                    since_s: 0.5,
                },
            )
            .expect("sequence lane");
        assert_eq!(first.since_s, 0.5);
        let rejected = fold
            .observe(1.25, 2, &TraceEvent::Rejected)
            .expect("sequence lane");
        let b = rejected.closed.expect("Rejected ends the lane");
        assert!(!b.finished);
        assert_eq!(b.arrival_s, 0.5);
        assert_eq!(b.ttft_by_cause[BlameCategory::MaxLiveCap.index()], 0.5);
        assert_eq!(b.e2e_total_s(), 0.75);
        assert!(fold
            .observe(
                1.0,
                DEVICE_LANE,
                &TraceEvent::Step {
                    prefill_rows: 1,
                    decode_slots: 0,
                    gpu_s: 0.1,
                },
            )
            .is_none());
    }

    #[test]
    fn replay_returns_closed_and_open_lanes() {
        let sink = TraceSink::enabled();
        sink.record(0.5, 0, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(1.0, 0, TraceEvent::FirstToken);
        sink.record(1.5, 0, TraceEvent::Finished);
        sink.record(0.75, 1, TraceEvent::Admitted { arrival_s: 0.5 });
        let mut latency = LatencySketches::default();
        let spans = LifecycleFold::replay(&sink.drain(), |_, step| {
            if let Some(l) = step.latency {
                latency.record(l);
            }
        });
        assert_eq!(spans.len(), 2);
        assert!(spans[&0].finished && !spans[&1].finished);
        assert_eq!(spans[&1].end_s, 0.75);
        assert_eq!(
            (
                latency.ttft.count(),
                latency.itl.count(),
                latency.e2e.count()
            ),
            (1, 0, 1)
        );
        assert_eq!(latency.e2e.max(), 1.5);
    }
}
