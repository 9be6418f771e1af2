//! The per-lane lifecycle fold: the one clock a request's event stream
//! runs through to become latencies and the gaps blame tiles.
//!
//! Every stream consumer — the live hub, the SLO monitor, the Chrome
//! exporter, the drift detector, the exemplar reservoir and both blame
//! holders — advances one [`LaneClock`] per lane, so they all agree on
//! one convention:
//!
//! - the lane's first event anchors it: `Admitted` and `Waiting` carry the
//!   true wait start, anything else starts the clock at itself;
//! - every event closes the gap since the lane's previous event, so the
//!   gaps tile `[arrival, last event]` exactly;
//! - the first token event (`FirstToken` or `DecodeStep`) closes TTFT,
//!   every later one — a re-admission `FirstToken` included — is an
//!   inter-token gap, and `Finished` closes the end-to-end latency;
//! - `Finished` and `Rejected` end the lane; an event on an ended lane
//!   opens a new lifecycle there.
//!
//! [`LifecycleFold`] keeps the open lanes' clocks in a map keyed by lane
//! id and releases each as it ends; the consumers that read latencies and
//! gaps fold on it. Only the blame reduction reads tiles, so only its two
//! holders pair each clock with a [`BlameBreakdown`] and charge every gap
//! by [`BlameBreakdown::tile`]'s rule (the gap belongs to the *later*
//! event's [`crate::BlameCategory`]):
//!
//! - [`LaneTable`] keeps one slot per lane, indexed by lane (by
//!   `lane / stride` under head sampling). The decode replay's lanes are
//!   trace indices, so it sizes a table once and folds every event of a
//!   kept lane into it as it records it: an event costs a slot update.
//! - [`crate::blame_spans`] keeps a map of open lanes over a sorted record
//!   stream: the after-the-run reduction the table is tested against.

use crate::blame::BlameBreakdown;
use crate::sink::{TraceEvent, RESERVED_LANES};
use crate::sketch::LatencySketch;
use std::collections::BTreeMap;
use std::num::NonZeroU64;

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

/// What one sequence-lane event did to its lane's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStep {
    /// Where the gap the event closes began: the lane's previous event,
    /// or its arrival anchor.
    pub since_s: f64,
    /// The latency observation the event closed, if any.
    pub latency: Option<Latency>,
}

/// One lane's clock: its arrival anchor plus the two times the next event
/// measures against. [`LaneClock::open`] and [`LaneClock::advance`] are
/// the lane transition every holder runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneClock {
    arrival_s: f64,
    /// The latest event's time — where the next gap starts.
    prev_s: f64,
    /// The latest token event's time.
    last_token_s: Option<f64>,
}

impl LaneClock {
    /// Anchors a lane on its first event: `Admitted` and `Waiting` carry
    /// the true wait start, anything else starts the clock at itself.
    #[inline]
    fn open(t_s: f64, event: &TraceEvent) -> Self {
        let arrival_s = match *event {
            TraceEvent::Admitted { arrival_s } => arrival_s,
            TraceEvent::Waiting { since_s, .. } => since_s,
            _ => t_s,
        };
        LaneClock {
            arrival_s,
            prev_s: arrival_s,
            last_token_s: None,
        }
    }

    /// A blame holder's lane state: the clock opened on `event` at `t_s`,
    /// with empty tiles from its anchor.
    #[inline]
    pub(crate) fn open_tiled(t_s: f64, event: &TraceEvent) -> (Self, BlameBreakdown) {
        let clock = Self::open(t_s, event);
        (clock, BlameBreakdown::new(clock.arrival_s))
    }

    /// Moves the lane to `event` at `t_s`: returns where the gap it closes
    /// began and the TTFT, ITL or e2e it closed. Whether the event ends
    /// the lane is [`ends_lane`]'s call.
    #[inline]
    pub(crate) fn advance(&mut self, t_s: f64, event: &TraceEvent) -> LaneStep {
        let since_s = self.prev_s;
        self.prev_s = since_s.max(t_s);
        let latency = match event {
            TraceEvent::FirstToken | TraceEvent::DecodeStep { .. } => {
                Some(match self.last_token_s.replace(t_s) {
                    Some(prev) => Latency::Itl((t_s - prev).max(0.0)),
                    None => Latency::Ttft(t_s - self.arrival_s),
                })
            }
            TraceEvent::Finished => Some(Latency::E2e(t_s - self.arrival_s)),
            _ => None,
        };
        LaneStep { since_s, latency }
    }
}

/// Whether `event` ends its lane.
#[inline]
pub(crate) fn ends_lane(event: &TraceEvent) -> bool {
    matches!(event, TraceEvent::Finished | TraceEvent::Rejected)
}

/// The per-lane lifecycle state machine over every sequence lane of a
/// stream (device and link lanes are ignored), holding each open lane's
/// clock in a map.
#[derive(Debug, Clone, Default)]
pub struct LifecycleFold {
    lanes: BTreeMap<u64, LaneClock>,
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
        let step = self
            .lanes
            .entry(lane)
            .or_insert_with(|| LaneClock::open(t_s, event))
            .advance(t_s, event);
        if ends_lane(event) {
            self.lanes.remove(&lane);
        }
        Some(step)
    }

    /// Lanes opened and not yet ended by `Finished` or `Rejected`.
    #[cfg(test)]
    pub(crate) fn open_lanes(&self) -> usize {
        self.lanes.len()
    }
}

/// The blame fold over a dense lane range: one slot per sequence lane
/// a 1-in-`stride` head sample keeps (lane `i * stride` in slot `i`),
/// each holding the lane's latest lifecycle, open or ended. Lanes the
/// stride skips and device and link lanes are ignored; a lane past the
/// last slot grows the table.
///
/// Slots keep separate state per lane, so feeding events in emission
/// order yields [`crate::blame_spans`] over the time-sorted stream
/// whenever each lane's times never decrease in emission order — true of
/// the decode replay's lanes, and pinned by `tests/blame_invariants.rs`.
#[derive(Debug, Clone)]
pub struct LaneTable {
    stride: NonZeroU64,
    slots: Vec<Slot>,
}

/// One [`LaneTable`] slot.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The lane's latest lifecycle, its clock and its tiles; `None`
    /// before its first event.
    state: Option<(LaneClock, BlameBreakdown)>,
    /// Whether `Finished` or `Rejected` ended that lifecycle, so the
    /// lane's next event opens a new one.
    ended: bool,
}

impl LaneTable {
    /// A table for lanes `0..lanes` head-sampled 1-in-`stride` (`0` is
    /// taken as 1): `lanes.div_ceil(stride)` slots, none for `lanes == 0`.
    pub fn new(lanes: usize, stride: u64) -> Self {
        let stride = NonZeroU64::new(stride).unwrap_or(NonZeroU64::MIN);
        LaneTable {
            stride,
            slots: vec![Slot::default(); (lanes as u64).div_ceil(stride.get()) as usize],
        }
    }

    /// Slots the table holds.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Folds one event at `t_s` on `lane` into the lane's slot.
    #[inline]
    pub fn observe(&mut self, t_s: f64, lane: u64, event: &TraceEvent) {
        if lane >= RESERVED_LANES || lane % self.stride != 0 {
            return;
        }
        let i = (lane / self.stride) as usize;
        if i >= self.slots.len() {
            self.grow(i);
        }
        let slot = &mut self.slots[i];
        let (clock, span) = match &mut slot.state {
            Some(st) if !slot.ended => st,
            state => state.insert(LaneClock::open_tiled(t_s, event)),
        };
        span.tile(t_s, event, clock.advance(t_s, event));
        slot.ended = ends_lane(event);
    }

    /// Extends the table through slot `i`.
    #[cold]
    fn grow(&mut self, i: usize) {
        self.slots.resize(i + 1, Slot::default());
    }

    /// Every lane's breakdown, by lane: the ended ones and those still
    /// open.
    pub fn finish(self) -> BTreeMap<u64, BlameBreakdown> {
        let stride = self.stride.get();
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((i as u64 * stride, slot.state?.1)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::blame_spans;
    use crate::sink::{TraceSink, DEVICE_LANE, LINK_D2H_LANE, LINK_H2D_LANE};

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
        assert_eq!((rejected.since_s, rejected.latency), (1.0, None));
        assert_eq!(fold.open_lanes(), 0, "Rejected ends the lane");
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
    fn the_fold_keeps_one_clock_of_at_most_32_bytes_per_open_lane() {
        fn value_bytes<V>(_: &BTreeMap<u64, V>) -> usize {
            std::mem::size_of::<V>()
        }
        assert!(value_bytes(&LifecycleFold::new().lanes) <= 32);
    }

    /// Every field of every span as bits, by lane.
    fn span_bits(spans: &BTreeMap<u64, BlameBreakdown>) -> Vec<(u64, bool, Option<u64>, Vec<u64>)> {
        spans
            .iter()
            .map(|(&lane, b)| {
                let times = [b.arrival_s, b.end_s]
                    .iter()
                    .chain(&b.ttft_by_cause)
                    .chain(&b.e2e_by_cause)
                    .chain(&b.phase_s)
                    .map(|x| x.to_bits())
                    .collect();
                (lane, b.finished, b.first_token_s.map(f64::to_bits), times)
            })
            .collect()
    }

    /// A stream, in emission order, holding each lane shape the table must
    /// fold as the map does: lane 0 finishes and reopens, lane 1 opens on
    /// `Waiting`, lane 2 is rejected, lane 3 preempts and swaps while lane
    /// 5 (which a 1-in-3 sample skips) comes and goes, lanes 5 and 9 are
    /// past a 4-lane table's end, and device and link events interleave.
    fn shaped_stream() -> Vec<(f64, u64, TraceEvent)> {
        let cause = crate::blame::WaitCause::KvPoolExhausted;
        let step = TraceEvent::Step {
            prefill_rows: 3,
            decode_slots: 2,
            gpu_s: 0.1,
        };
        let decode = TraceEvent::DecodeStep {
            attended: 8,
            cached: 9,
        };
        vec![
            (0.3, 0, TraceEvent::Admitted { arrival_s: 0.1 }),
            (
                0.3,
                1,
                TraceEvent::Waiting {
                    cause,
                    since_s: 0.2,
                },
            ),
            (0.4, 0, TraceEvent::PrefillChunk { tokens: 3 }),
            (0.4, DEVICE_LANE, step.clone()),
            (0.5, 0, TraceEvent::FirstToken),
            (0.5, 2, TraceEvent::Rejected),
            (0.6, 1, TraceEvent::Admitted { arrival_s: 0.2 }),
            (0.6, 3, TraceEvent::Admitted { arrival_s: 0.45 }),
            (0.7, 0, decode.clone()),
            (0.7, 3, TraceEvent::FirstToken),
            (
                0.8,
                3,
                TraceEvent::Preempted {
                    policy: "swap-to-host",
                },
            ),
            (
                0.9,
                LINK_D2H_LANE,
                TraceEvent::SwapOut {
                    pages: 2,
                    initiated_s: 0.8,
                    link_busy_until_s: 0.9,
                },
            ),
            (
                0.9,
                3,
                TraceEvent::SwapOut {
                    pages: 2,
                    initiated_s: 0.8,
                    link_busy_until_s: 0.9,
                },
            ),
            (0.9, 0, TraceEvent::Finished),
            (0.95, 5, TraceEvent::Admitted { arrival_s: 0.9 }),
            (1.0, 1, TraceEvent::PrefillChunk { tokens: 5 }),
            (1.05, 5, TraceEvent::Rejected),
            (1.1, 9, TraceEvent::Admitted { arrival_s: 1.05 }),
            (1.1, 1, TraceEvent::FirstToken),
            (
                1.2,
                LINK_H2D_LANE,
                TraceEvent::SwapIn {
                    pages: 2,
                    initiated_s: 1.1,
                    link_busy_until_s: 1.2,
                },
            ),
            (
                1.2,
                3,
                TraceEvent::SwapIn {
                    pages: 2,
                    initiated_s: 1.1,
                    link_busy_until_s: 1.2,
                },
            ),
            (1.3, 1, decode.clone()),
            (1.3, 1, TraceEvent::Finished),
            (1.3, 3, decode.clone()),
            (
                1.4,
                0,
                TraceEvent::Waiting {
                    cause,
                    since_s: 1.0,
                },
            ),
            (1.5, 0, TraceEvent::Admitted { arrival_s: 1.0 }),
            (1.6, 9, TraceEvent::FirstToken),
            (1.7, 0, TraceEvent::FirstToken),
            (1.7, DEVICE_LANE, step),
            (1.8, 3, TraceEvent::Finished),
        ]
    }

    #[test]
    fn lane_table_folds_each_lane_shape_as_the_replay_does() {
        let sink = TraceSink::enabled();
        let mut table = LaneTable::new(4, 1);
        for (t, lane, event) in shaped_stream() {
            table.observe(t, lane, &event);
            sink.record(t, lane, event);
        }
        assert_eq!(table.slots(), 10, "lane 9 grew the table");
        let online = table.finish();
        let replayed = blame_spans(&sink.drain());
        assert_eq!(
            online.keys().copied().collect::<Vec<_>>(),
            [0, 1, 2, 3, 5, 9]
        );
        assert_eq!(span_bits(&online), span_bits(&replayed));
        // Lane 0 reports its reopened lifecycle, still open.
        assert!(!online[&0].finished && online[&0].arrival_s == 1.0);
        assert!(!online[&2].finished && online[&2].arrival_s == 0.5);
        assert!(online[&1].finished && online[&1].arrival_s == 0.2);
    }

    #[test]
    fn lane_table_keeps_the_head_sampled_lanes_in_one_slot_each() {
        let sink = TraceSink::enabled().with_sampling(3);
        let mut table = LaneTable::new(10, 3);
        assert_eq!(table.slots(), 4, "lanes 0, 3, 6 and 9");
        for (t, lane, event) in shaped_stream() {
            table.observe(t, lane, &event);
            sink.record(t, lane, event);
        }
        assert_eq!(table.slots(), 4);
        let online = table.finish();
        let replayed = blame_spans(&sink.drain());
        assert_eq!(online.keys().copied().collect::<Vec<_>>(), [0, 3, 9]);
        assert_eq!(span_bits(&online), span_bits(&replayed));
        assert_eq!(LaneTable::new(0, 3).slots(), 0);
    }
}
