//! The request-lifecycle trace sink.
//!
//! [`TraceSink`] collects typed [`TraceEvent`]s stamped with virtual-clock
//! times. It is off by default — a disabled sink's [`TraceSink::record`]
//! is a single branch, so the decode hot loop pays nothing when nobody is
//! looking. When enabled it keeps one locked buffer in emission order and
//! numbers each kept record with an ordinal that breaks ties between
//! equal times at drain time. Single events go through
//! [`TraceSink::record`]; the decode replay buffers its own records and
//! hands them over once, through [`TraceSink::append`], so its hot loop
//! takes no lock. [`TraceSink::keeps`] is the one head-sampling predicate
//! both paths apply.
//!
//! Times are seconds on the emitting runtime's virtual clock. Each
//! record's `t_s` is the instant the event *took effect* (a transfer's
//! landing, a step's completion); events that model an interval carry
//! their start alongside (`initiated_s`), so exporters can draw spans
//! without guessing.

use crate::blame::WaitCause;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lane id of the modelled device's execution track.
pub const DEVICE_LANE: u64 = u64::MAX;
/// Lane id of the device→host (eviction) direction of the PCIe link.
pub const LINK_D2H_LANE: u64 = u64::MAX - 1;
/// Lane id of the host→device (restore) direction of the PCIe link.
pub const LINK_H2D_LANE: u64 = u64::MAX - 2;
/// Smallest reserved lane id; anything below is a sequence id.
pub const RESERVED_LANES: u64 = u64::MAX - 7;

/// One typed event in a request's (or device's / link's) lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The request left the waiting queue and entered the prefill queue.
    /// `arrival_s` is its trace arrival time — queue delay is the gap.
    Admitted {
        /// The request's arrival timestamp (seconds).
        arrival_s: f64,
    },
    /// Admission matched the prompt-prefix cache.
    PrefixHit {
        /// Whole pages served from the cache.
        pages: usize,
        /// Prompt tokens those pages cover (prefill skipped).
        tokens: usize,
    },
    /// One chunk of this request's prompt finished prefilling.
    PrefillChunk {
        /// Context rows the chunk ran through the model.
        tokens: usize,
    },
    /// The request's prefill completed and emitted a token: its first,
    /// or — after a recompute preemption — the token of its re-prefill,
    /// which consumers read as a resume (an inter-token gap), not a new
    /// time to first token.
    FirstToken,
    /// The scheduler observed this request stalled or deferred for a
    /// typed cause. `t_s` is when the wait was observed (the end of the
    /// step the request sat out); the event explains the gap ending at
    /// it, so blame attribution keeps the exact-tiling discipline.
    Waiting {
        /// Why the request could not make progress.
        cause: WaitCause,
        /// When this wait began (the request's arrival for a
        /// never-admitted sequence) — anchors a Waiting-first lane.
        since_s: f64,
    },
    /// The request's decode slot emitted one token.
    DecodeStep {
        /// KV tokens the slot attended (post-sparsity read set).
        attended: usize,
        /// KV tokens the slot held cached.
        cached: usize,
    },
    /// The request was preempted under KV-page pressure.
    Preempted {
        /// Which preemption protocol resolved it ("recompute",
        /// "swap-to-host", "swap-fallback", "swap-demotion").
        policy: &'static str,
    },
    /// The victim's pages crossed to the host tier. `t_s` is the DMA
    /// completion — the instant the freed frames may be rewritten.
    SwapOut {
        /// Pages moved.
        pages: usize,
        /// When the transfer was scheduled.
        initiated_s: f64,
        /// The d2h link's busy horizon after scheduling (= completion).
        link_busy_until_s: f64,
    },
    /// The victim's pages streamed back. `t_s` is the transfer landing —
    /// the instant the sequence may rejoin the batch.
    SwapIn {
        /// Pages restored.
        pages: usize,
        /// When the restore was scheduled.
        initiated_s: f64,
        /// The h2d link's busy horizon after scheduling (= completion).
        link_busy_until_s: f64,
    },
    /// KV-sparsity eviction trimmed this sequence's page table.
    SparsityEvict {
        /// Pages dropped from the page table this pass.
        pages: usize,
    },
    /// The request emitted its last token and released its pages.
    Finished,
    /// The request was turned away at admission (open-loop shedding).
    Rejected,
    /// One mixed iteration executed on the device lane.
    Step {
        /// Prefill rows in the step.
        prefill_rows: usize,
        /// Decode slots in the step.
        decode_slots: usize,
        /// Modelled GPU seconds the step took (span = `[t_s-gpu_s, t_s]`).
        gpu_s: f64,
    },
}

impl TraceEvent {
    /// Short stable name for exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Admitted { .. } => "admitted",
            TraceEvent::PrefixHit { .. } => "prefix_hit",
            TraceEvent::PrefillChunk { .. } => "prefill_chunk",
            TraceEvent::FirstToken => "first_token",
            TraceEvent::Waiting { .. } => "waiting",
            TraceEvent::DecodeStep { .. } => "decode_step",
            TraceEvent::Preempted { .. } => "preempted",
            TraceEvent::SwapOut { .. } => "swap_out",
            TraceEvent::SwapIn { .. } => "swap_in",
            TraceEvent::SparsityEvict { .. } => "sparsity_evict",
            TraceEvent::Finished => "finished",
            TraceEvent::Rejected => "rejected",
            TraceEvent::Step { .. } => "step",
        }
    }
}

/// One recorded event: which lane, when, what, and the sink's emission
/// ordinal, which orders records that share a `t_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Emission ordinal: the record's position among everything the sink
    /// has kept.
    pub ord: u64,
    /// Virtual-clock time the event took effect (seconds).
    pub t_s: f64,
    /// Sequence id, or one of the reserved device/link lanes.
    pub lane: u64,
    /// The event.
    pub event: TraceEvent,
}

/// The enabled sink's state: the kept records in emission order and the
/// next ordinal to hand out (it keeps counting across drains).
#[derive(Debug, Default)]
struct Buffer {
    records: Vec<TraceRecord>,
    next_ord: u64,
}

/// Off-by-default collector of [`TraceRecord`]s in one locked buffer.
#[derive(Debug)]
pub struct TraceSink {
    /// `None` when disabled — `record` then returns after one branch.
    buffer: Option<Mutex<Buffer>>,
    /// Head-sampling stride: keep sequence lanes with
    /// `lane % sample_every == 0` (1 = keep everything). Deterministic
    /// by request id, so two replays sample the same heads; reserved
    /// device/link lanes are always kept.
    sample_every: u64,
}

impl TraceSink {
    /// A disabled sink: recording is a no-op costing one branch.
    pub fn disabled() -> Self {
        TraceSink {
            buffer: None,
            sample_every: 1,
        }
    }

    /// An enabled sink that keeps every lane.
    pub fn enabled() -> Self {
        TraceSink {
            buffer: Some(Mutex::default()),
            sample_every: 1,
        }
    }

    /// Head-samples 1-in-`every` sequence lanes (by `lane % every == 0`,
    /// so the choice is deterministic across replays). Device and link
    /// lanes are always recorded. `every == 0` is normalized to 1.
    pub fn with_sampling(mut self, every: u64) -> Self {
        self.sample_every = every.max(1);
        self
    }

    /// The head-sampling stride (1 = record every lane).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.buffer.is_some()
    }

    /// Whether this sink keeps events on `lane`: it is enabled, and the
    /// lane is a reserved device/link lane or a sampled sequence lane.
    /// The one head-sampling predicate — [`TraceSink::record`] and
    /// [`TraceSink::append`] drop exactly the lanes it refuses. An
    /// unsampled sink (stride 1) keeps every lane without dividing.
    #[inline]
    pub fn keeps(&self, lane: u64) -> bool {
        self.buffer.is_some()
            && (self.sample_every == 1
                || lane >= RESERVED_LANES
                || lane.is_multiple_of(self.sample_every))
    }

    /// The buffer, for an enabled sink. A panic never leaves a record
    /// half-written under the lock, so a poisoned lock is taken as is:
    /// no method panics on it (the decode replay appends from `Drop`).
    fn buffer(&self) -> Option<MutexGuard<'_, Buffer>> {
        self.buffer
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Records one event at `t_s` on `lane`. No-op on a disabled sink or
    /// a sampled-out lane.
    pub fn record(&self, t_s: f64, lane: u64, event: TraceEvent) {
        if !self.keeps(lane) {
            return;
        }
        if let Some(mut buf) = self.buffer() {
            let ord = buf.next_ord;
            buf.next_ord += 1;
            buf.records.push(TraceRecord {
                ord,
                t_s,
                lane,
                event,
            });
        }
    }

    /// Records a batch in slice order, as if each were
    /// [`TraceSink::record`]ed in turn: sampled-out lanes are dropped and
    /// the kept records get the sink's next ordinals, so a batch numbered
    /// from 0 by position keeps its numbering, shifted by what the sink
    /// already holds. One pass filters and numbers the batch; into an
    /// empty sink its buffer then moves as is.
    pub fn append(&self, mut records: Vec<TraceRecord>) {
        let Some(mut buf) = self.buffer() else {
            return;
        };
        let mut next_ord = buf.next_ord;
        records.retain_mut(|r| {
            let keep = self.keeps(r.lane);
            if keep {
                r.ord = next_ord;
                next_ord += 1;
            }
            keep
        });
        buf.next_ord = next_ord;
        if buf.records.is_empty() {
            buf.records = records;
        } else {
            buf.records.append(&mut records);
        }
    }

    /// Records recorded so far.
    pub fn len(&self) -> usize {
        self.buffer().map_or(0, |buf| buf.records.len())
    }

    /// True when nothing has been recorded (or the sink is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies every record out, sorted by `(t_s, ord)`, leaving the sink
    /// intact (a run can be exported to Chrome *and* reduced to
    /// breakdowns from the same sink).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut all = self
            .buffer()
            .map_or_else(Vec::new, |buf| buf.records.clone());
        sort_by_time(&mut all);
        all
    }

    /// Moves every record out, sorted as in [`TraceSink::snapshot`],
    /// emptying the sink. The buffer itself moves and is sorted in place,
    /// so draining copies no record.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut all = self
            .buffer()
            .map_or_else(Vec::new, |mut buf| std::mem::take(&mut buf.records));
        sort_by_time(&mut all);
        all
    }
}

/// Sorts records time-major, ordinal-minor. Ordinals are unique within a
/// sink, so the unstable sort gives the one order, and it allocates
/// nothing: a stable sort's scratch buffer is as large as the records.
fn sort_by_time(records: &mut [TraceRecord]) {
    records.sort_unstable_by(|a, b| a.t_s.total_cmp(&b.t_s).then(a.ord.cmp(&b.ord)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        sink.record(0.0, 1, TraceEvent::FirstToken);
        assert!(!sink.is_enabled());
        assert!(sink.is_empty());
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn records_drain_in_time_then_emission_order() {
        let sink = TraceSink::enabled();
        sink.record(2.0, 1, TraceEvent::Finished);
        sink.record(1.0, 2, TraceEvent::FirstToken);
        sink.record(1.0, 3, TraceEvent::Admitted { arrival_s: 0.5 });
        assert_eq!(sink.len(), 3);
        let drained = sink.drain();
        assert_eq!(drained.len(), 3);
        // Time-major, emission-ordinal minor: the two t=1.0 records keep
        // their emission order.
        assert_eq!(drained[0].lane, 2);
        assert_eq!(drained[1].lane, 3);
        assert_eq!(drained[2].lane, 1);
        assert!(sink.is_empty(), "drain empties the sink");
    }

    #[test]
    fn snapshot_leaves_records_in_place() {
        let sink = TraceSink::enabled();
        sink.record(0.5, 7, TraceEvent::FirstToken);
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.drain(), snap);
    }

    #[test]
    fn head_sampling_keeps_one_in_n_lanes_and_all_reserved_lanes() {
        let sink = TraceSink::enabled().with_sampling(4);
        assert_eq!(sink.sample_every(), 4);
        for lane in 0..16u64 {
            sink.record(lane as f64, lane, TraceEvent::FirstToken);
        }
        sink.record(
            20.0,
            DEVICE_LANE,
            TraceEvent::Step {
                prefill_rows: 1,
                decode_slots: 0,
                gpu_s: 0.1,
            },
        );
        let drained = sink.drain();
        let seq_lanes: Vec<u64> = drained
            .iter()
            .filter(|r| r.lane < RESERVED_LANES)
            .map(|r| r.lane)
            .collect();
        assert_eq!(seq_lanes, vec![0, 4, 8, 12]);
        assert!(drained.iter().any(|r| r.lane == DEVICE_LANE));
    }

    #[test]
    fn drain_orders_interleaved_lanes_by_time() {
        let sink = TraceSink::enabled();
        for i in 0..100u64 {
            // Emitted out of time order, five lanes interleaved.
            sink.record(((i * 37) % 100) as f64, i % 5, TraceEvent::FirstToken);
        }
        let drained = sink.drain();
        assert_eq!(drained.len(), 100);
        for w in drained.windows(2) {
            assert!(w[0].t_s <= w[1].t_s);
        }
    }

    fn batch(events: &[(f64, u64)]) -> Vec<TraceRecord> {
        events
            .iter()
            .enumerate()
            .map(|(i, &(t_s, lane))| TraceRecord {
                ord: i as u64,
                t_s,
                lane,
                event: TraceEvent::FirstToken,
            })
            .collect()
    }

    #[test]
    fn append_continues_the_ordinals() {
        let sink = TraceSink::enabled();
        sink.append(batch(&[(0.5, 1), (0.25, 2)]));
        sink.record(0.75, 3, TraceEvent::Finished);
        sink.append(batch(&[(0.25, 4), (1.0, 5)]));
        let ords: Vec<(u64, u64)> = sink.snapshot().iter().map(|r| (r.lane, r.ord)).collect();
        // Time-major; the ordinals follow emission across both batches
        // and the single record between them.
        assert_eq!(ords, vec![(2, 1), (4, 3), (1, 0), (3, 2), (5, 4)]);
        // A drain does not reset the count.
        sink.drain();
        sink.append(batch(&[(0.0, 6)]));
        assert_eq!(sink.drain()[0].ord, 5);
    }

    #[test]
    fn append_samples_exactly_as_record_does() {
        let events: Vec<(f64, u64)> = (0..12u64)
            .map(|lane| (lane as f64, lane))
            .chain([(3.5, DEVICE_LANE), (4.5, LINK_H2D_LANE)])
            .collect();
        let recorded = TraceSink::enabled().with_sampling(3);
        for &(t_s, lane) in &events {
            recorded.record(t_s, lane, TraceEvent::FirstToken);
        }
        let appended = TraceSink::enabled().with_sampling(3);
        appended.append(batch(&events));
        let kept = appended.drain();
        assert_eq!(kept, recorded.drain());
        let lanes: Vec<u64> = kept.iter().map(|r| r.lane).collect();
        assert_eq!(lanes, vec![0, 3, DEVICE_LANE, LINK_H2D_LANE, 6, 9]);
        assert!(events.iter().all(|&(_, lane)| {
            appended.keeps(lane) == (lane >= RESERVED_LANES || lane % 3 == 0)
        }));

        let disabled = TraceSink::disabled();
        disabled.append(batch(&events));
        assert!(disabled.is_empty() && !disabled.keeps(DEVICE_LANE));
    }

    #[test]
    fn drain_sorts_an_appended_batch_and_empties_the_sink() {
        let sink = TraceSink::enabled();
        sink.append(batch(&[(3.0, 1), (1.0, 2), (2.0, 1), (1.0, 3), (0.5, 2)]));
        let drained = sink.drain();
        let order: Vec<(f64, u64)> = drained.iter().map(|r| (r.t_s, r.ord)).collect();
        assert_eq!(
            order,
            vec![(0.5, 4), (1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]
        );
        assert!(sink.is_empty() && sink.drain().is_empty());
    }
}
