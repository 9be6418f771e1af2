//! The request-lifecycle trace sink.
//!
//! [`TraceSink`] collects typed [`TraceEvent`]s stamped with virtual-clock
//! times. It is off by default — a disabled sink's [`TraceSink::record`]
//! is a single branch, so the decode hot loop pays nothing when nobody is
//! looking — and sharded when enabled: records land in
//! `lane % shards` under independent mutexes, with one global atomic
//! ordinal tying the shards back into a total order at drain time.
//!
//! Times are seconds on the emitting runtime's virtual clock. Each
//! record's `t_s` is the instant the event *took effect* (a transfer's
//! landing, a step's completion); events that model an interval carry
//! their start alongside (`initiated_s`), so exporters can draw spans
//! without guessing.

use crate::blame::WaitCause;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// One recorded event: which lane, when, what, and a global ordinal that
/// restores a total order across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Global emission ordinal (atomic across shards).
    pub ord: u64,
    /// Virtual-clock time the event took effect (seconds).
    pub t_s: f64,
    /// Sequence id, or one of the reserved device/link lanes.
    pub lane: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Sharded, off-by-default collector of [`TraceRecord`]s.
#[derive(Debug)]
pub struct TraceSink {
    /// Empty when disabled — `record` then returns after one branch.
    shards: Vec<Mutex<Vec<TraceRecord>>>,
    next_ord: AtomicU64,
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
            shards: Vec::new(),
            next_ord: AtomicU64::new(0),
            sample_every: 1,
        }
    }

    /// An enabled sink with a default shard count.
    pub fn enabled() -> Self {
        Self::with_shards(8)
    }

    /// An enabled sink with `shards` independently-locked shards.
    pub fn with_shards(shards: usize) -> Self {
        TraceSink {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            next_ord: AtomicU64::new(0),
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
        !self.shards.is_empty()
    }

    /// Records one event at `t_s` on `lane`. No-op on a disabled sink.
    pub fn record(&self, t_s: f64, lane: u64, event: TraceEvent) {
        if self.shards.is_empty() {
            return;
        }
        if self.sample_every > 1 && lane < RESERVED_LANES && !lane.is_multiple_of(self.sample_every)
        {
            return;
        }
        let ord = self.next_ord.fetch_add(1, Ordering::Relaxed);
        let shard = (lane % self.shards.len() as u64) as usize;
        self.shards[shard]
            .lock()
            .expect("trace shard poisoned")
            .push(TraceRecord {
                ord,
                t_s,
                lane,
                event,
            });
    }

    /// Records recorded so far.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("trace shard poisoned").len())
            .sum()
    }

    /// True when nothing has been recorded (or the sink is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies every record out, merged across shards and sorted by
    /// `(t_s, ord)`, leaving the sink intact (a run can be exported to
    /// Chrome *and* reduced to breakdowns from the same sink).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(shard.lock().expect("trace shard poisoned").iter().cloned());
        }
        all.sort_by(|a, b| a.t_s.total_cmp(&b.t_s).then(a.ord.cmp(&b.ord)));
        all
    }

    /// Moves every record out (merged and sorted as in
    /// [`TraceSink::snapshot`]), emptying the sink.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("trace shard poisoned"));
        }
        all.sort_by(|a, b| a.t_s.total_cmp(&b.t_s).then(a.ord.cmp(&b.ord)));
        all
    }
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
    fn records_merge_across_shards_in_time_order() {
        let sink = TraceSink::with_shards(4);
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
    fn shard_choice_is_stable_per_lane() {
        let sink = TraceSink::with_shards(2);
        for i in 0..100u64 {
            sink.record(i as f64, i % 5, TraceEvent::FirstToken);
        }
        let drained = sink.drain();
        assert_eq!(drained.len(), 100);
        // Total order restored regardless of shard layout.
        for w in drained.windows(2) {
            assert!(w[0].t_s <= w[1].t_s);
        }
    }
}
