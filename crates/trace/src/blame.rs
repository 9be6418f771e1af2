//! Causal blame: per-request critical-path attribution.
//!
//! The serving loops annotate every stall and deferral decision they
//! already take with a typed [`WaitCause`] ([`crate::TraceEvent::Waiting`]),
//! and [`blame_spans`] reduces the event stream — through the
//! [`crate::LifecycleFold`] — into one [`BlameBreakdown`] per request
//! whose causal categories **tile TTFT and end-to-end latency exactly**,
//! the same discipline as the device-time ledger's conservation law.
//!
//! The attribution rule: every inter-event gap on a request's lane
//! belongs to the *later* event's blame category. A gap ending in
//! `Waiting { cause }` belongs to that cause; a gap ending in a prefill
//! chunk was prefill execution; one ending in a swap-out landed on the
//! d2h link; and so on. Because the gaps tile the `[arrival, last event]`
//! interval by construction, the per-category times sum to the
//! end-to-end latency to floating-point accuracy, and the prefix of gaps
//! up to the first token sums to TTFT the same way — the invariant
//! `tests/blame_invariants.rs` pins at 1e-9 s across the sparsity ×
//! preemption × prefix-caching matrix. Each category also belongs to one
//! coarse [`Phase`] (queue / prefill / decode / stall), accumulated in
//! the same pass, so the phases tile the latency too.
//!
//! Fleet-level aggregation folds per-request breakdowns into a
//! [`BlameAggregate`] (per-cause totals plus per-cause
//! [`LatencySketch`]es over each request's contribution), which merges
//! associatively — window aggregates compose — and freezes into the
//! [`BlameSummary`] that `DecodeReport`/`ServingReport` and the
//! Prometheus exposition carry, so "p99 TTFT is 71% KvPoolExhausted" is
//! a one-line read; [`BreakdownSummary`] is the per-phase digest.

use crate::lifecycle::LifecycleFold;
use crate::sink::{TraceEvent, TraceRecord};
use crate::sketch::LatencySketch;
use std::collections::BTreeMap;
use std::fmt;

/// Why a request was stalled or deferred at a scheduling decision the
/// serving loop took. Recorded in [`crate::TraceEvent::Waiting`] at the
/// moment the wait was *observed* (usually the end of the step the
/// request sat out); the event explains the gap that ends at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitCause {
    /// Waiting in the arrival queue behind other admissions (no more
    /// specific signal was recorded for the gap).
    QueueBehindAdmission,
    /// The KV pool had no free pages for the request's next allocation
    /// (admission chunk, restore, or prefill growth).
    KvPoolExhausted,
    /// The per-iteration token budget was already committed to decode
    /// slots and earlier chunks.
    TokenBudgetFull,
    /// The live-set cap (`max_live`) was reached.
    MaxLiveCap,
    /// Blocked behind a device-to-host swap transfer on the PCIe link.
    SwapLinkD2h,
    /// Blocked behind a host-to-device restore transfer on the link.
    SwapLinkH2d,
    /// Waiting for an in-flight restore to land (frames in transit).
    RestoreInFlight,
    /// Stalled behind the head-of-line prefill (FIFO fairness: the head
    /// takes budget and pages first).
    HeadOfLinePrefill,
    /// The scheduler idled while the request could have run. Reserved:
    /// the deterministic replays are work-conserving, so this stays
    /// zero there; non-work-conserving schedules (batching windows)
    /// would emit it.
    SchedulerIdle,
}

impl WaitCause {
    /// Every cause, in the fixed taxonomy order.
    pub const ALL: [WaitCause; 9] = [
        WaitCause::QueueBehindAdmission,
        WaitCause::KvPoolExhausted,
        WaitCause::TokenBudgetFull,
        WaitCause::MaxLiveCap,
        WaitCause::SwapLinkD2h,
        WaitCause::SwapLinkH2d,
        WaitCause::RestoreInFlight,
        WaitCause::HeadOfLinePrefill,
        WaitCause::SchedulerIdle,
    ];

    /// Stable snake_case name (exposition family names, trace exports).
    pub fn name(self) -> &'static str {
        match self {
            WaitCause::QueueBehindAdmission => "queue_behind_admission",
            WaitCause::KvPoolExhausted => "kv_pool_exhausted",
            WaitCause::TokenBudgetFull => "token_budget_full",
            WaitCause::MaxLiveCap => "max_live_cap",
            WaitCause::SwapLinkD2h => "swap_link_d2h",
            WaitCause::SwapLinkH2d => "swap_link_h2d",
            WaitCause::RestoreInFlight => "restore_in_flight",
            WaitCause::HeadOfLinePrefill => "head_of_line_prefill",
            WaitCause::SchedulerIdle => "scheduler_idle",
        }
    }

    /// The blame category this cause maps to (1:1 — causes are the wait
    /// half of the category taxonomy).
    pub fn category(self) -> BlameCategory {
        match self {
            WaitCause::QueueBehindAdmission => BlameCategory::QueueBehindAdmission,
            WaitCause::KvPoolExhausted => BlameCategory::KvPoolExhausted,
            WaitCause::TokenBudgetFull => BlameCategory::TokenBudgetFull,
            WaitCause::MaxLiveCap => BlameCategory::MaxLiveCap,
            WaitCause::SwapLinkD2h => BlameCategory::SwapLinkD2h,
            WaitCause::SwapLinkH2d => BlameCategory::SwapLinkH2d,
            WaitCause::RestoreInFlight => BlameCategory::RestoreInFlight,
            WaitCause::HeadOfLinePrefill => BlameCategory::HeadOfLinePrefill,
            WaitCause::SchedulerIdle => BlameCategory::SchedulerIdle,
        }
    }
}

/// A request-time category: the nine wait causes plus the two execution
/// phases. Together they tile a request's latency exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum BlameCategory {
    /// See [`WaitCause::QueueBehindAdmission`].
    QueueBehindAdmission = 0,
    /// See [`WaitCause::KvPoolExhausted`]; also covers recompute and
    /// fallback preemptions and sparsity evictions (page pressure).
    KvPoolExhausted,
    /// See [`WaitCause::TokenBudgetFull`].
    TokenBudgetFull,
    /// See [`WaitCause::MaxLiveCap`].
    MaxLiveCap,
    /// See [`WaitCause::SwapLinkD2h`]; also covers swap-out transfers.
    SwapLinkD2h,
    /// See [`WaitCause::SwapLinkH2d`]; also covers restore transfers.
    SwapLinkH2d,
    /// See [`WaitCause::RestoreInFlight`].
    RestoreInFlight,
    /// See [`WaitCause::HeadOfLinePrefill`].
    HeadOfLinePrefill,
    /// See [`WaitCause::SchedulerIdle`].
    SchedulerIdle,
    /// Useful prefill execution (chunks running through the model).
    PrefillExecute,
    /// Useful decode execution (token steps).
    DecodeExecute,
}

impl BlameCategory {
    /// Number of categories (array sizes in [`BlameBreakdown`]).
    pub const COUNT: usize = 11;

    /// Every category, in index order.
    pub const ALL: [BlameCategory; BlameCategory::COUNT] = [
        BlameCategory::QueueBehindAdmission,
        BlameCategory::KvPoolExhausted,
        BlameCategory::TokenBudgetFull,
        BlameCategory::MaxLiveCap,
        BlameCategory::SwapLinkD2h,
        BlameCategory::SwapLinkH2d,
        BlameCategory::RestoreInFlight,
        BlameCategory::HeadOfLinePrefill,
        BlameCategory::SchedulerIdle,
        BlameCategory::PrefillExecute,
        BlameCategory::DecodeExecute,
    ];

    /// The category's slot in the per-request arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            BlameCategory::QueueBehindAdmission => "queue_behind_admission",
            BlameCategory::KvPoolExhausted => "kv_pool_exhausted",
            BlameCategory::TokenBudgetFull => "token_budget_full",
            BlameCategory::MaxLiveCap => "max_live_cap",
            BlameCategory::SwapLinkD2h => "swap_link_d2h",
            BlameCategory::SwapLinkH2d => "swap_link_h2d",
            BlameCategory::RestoreInFlight => "restore_in_flight",
            BlameCategory::HeadOfLinePrefill => "head_of_line_prefill",
            BlameCategory::SchedulerIdle => "scheduler_idle",
            BlameCategory::PrefillExecute => "prefill_execute",
            BlameCategory::DecodeExecute => "decode_execute",
        }
    }

    /// The coarse phase the category folds into: admission-side waits
    /// are queue time, in-prefill waits are prefill time, memory and
    /// link pressure is stall time.
    pub fn phase(self) -> Phase {
        use BlameCategory::*;
        match self {
            QueueBehindAdmission | MaxLiveCap | SchedulerIdle => Phase::Queue,
            PrefillExecute | TokenBudgetFull | HeadOfLinePrefill => Phase::Prefill,
            DecodeExecute => Phase::Decode,
            KvPoolExhausted | SwapLinkD2h | SwapLinkH2d | RestoreInFlight => Phase::Stall,
        }
    }

    /// Which category a gap *ending* at `event` belongs to.
    pub fn of_event(event: &TraceEvent) -> BlameCategory {
        match event {
            TraceEvent::Admitted { .. } | TraceEvent::PrefixHit { .. } | TraceEvent::Rejected => {
                BlameCategory::QueueBehindAdmission
            }
            TraceEvent::Waiting { cause, .. } => cause.category(),
            TraceEvent::PrefillChunk { .. } | TraceEvent::FirstToken => {
                BlameCategory::PrefillExecute
            }
            TraceEvent::DecodeStep { .. } | TraceEvent::Finished => BlameCategory::DecodeExecute,
            // A swap-out preemption's wait is the d2h transfer; every
            // other preemption flavour is page pressure.
            TraceEvent::Preempted { policy } if *policy == "swap-to-host" => {
                BlameCategory::SwapLinkD2h
            }
            TraceEvent::Preempted { .. } | TraceEvent::SparsityEvict { .. } => {
                BlameCategory::KvPoolExhausted
            }
            TraceEvent::SwapOut { .. } => BlameCategory::SwapLinkD2h,
            TraceEvent::SwapIn { .. } => BlameCategory::SwapLinkH2d,
            TraceEvent::Step { .. } => BlameCategory::DecodeExecute, // device lane; not reduced
        }
    }
}

/// Serialized as its [`BlameCategory::name`], the string reports and
/// expositions key causes by.
impl serde::Serialize for BlameCategory {
    fn json(&self, out: &mut String) {
        serde::write_json_str(out, self.name());
    }
}

/// The four coarse phases a request's time falls into — a pure
/// function of its blame category ([`BlameCategory::phase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Waiting for admission (re-admission after recompute included).
    Queue,
    /// Chunked prefill, head-of-line and token-budget waits included.
    Prefill,
    /// Decoding, one token per step.
    Decode,
    /// Preemption, swap transfers, restore waits and KV-pool pressure.
    Stall,
}

impl Phase {
    /// Number of phases (array sizes in [`BlameBreakdown`]).
    pub const COUNT: usize = 4;
}

/// One request's latency, tiled into causal categories.
///
/// `e2e_by_cause` partitions `[arrival, last event]`; `ttft_by_cause`
/// partitions the prefix up to the first token; `phase_s` is the same
/// partition at phase granularity. All tile exactly: the per-category
/// (and per-phase) times sum to `end_s - arrival_s` (respectively
/// `first_token_s - arrival_s`) to floating-point accuracy, because
/// every inter-event gap lands in exactly one category.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BlameBreakdown {
    /// Trace arrival time (seconds).
    pub arrival_s: f64,
    /// Time of the request's first token (`None` before it emits one).
    pub first_token_s: Option<f64>,
    /// Time of the request's last event.
    pub end_s: f64,
    /// Whether a `Finished` event closed the lifecycle.
    pub finished: bool,
    /// Seconds of TTFT attributed to each category
    /// (indexed by [`BlameCategory::index`]).
    pub ttft_by_cause: [f64; BlameCategory::COUNT],
    /// Seconds of end-to-end latency attributed to each category.
    pub e2e_by_cause: [f64; BlameCategory::COUNT],
    /// Seconds of end-to-end latency per phase (indexed by `Phase as
    /// usize`), accumulated gap by gap alongside `e2e_by_cause`.
    pub phase_s: [f64; Phase::COUNT],
}

impl BlameBreakdown {
    /// An empty lifecycle anchored at `arrival_s`.
    pub fn new(arrival_s: f64) -> Self {
        BlameBreakdown {
            arrival_s,
            first_token_s: None,
            end_s: arrival_s,
            finished: false,
            ttft_by_cause: [0.0; BlameCategory::COUNT],
            e2e_by_cause: [0.0; BlameCategory::COUNT],
            phase_s: [0.0; Phase::COUNT],
        }
    }

    /// Attributes `seconds` to `category` (and its phase), counting them
    /// toward TTFT too when `in_ttft`.
    pub fn charge(&mut self, category: BlameCategory, seconds: f64, in_ttft: bool) {
        self.e2e_by_cause[category.index()] += seconds;
        if in_ttft {
            self.ttft_by_cause[category.index()] += seconds;
        }
        self.phase_s[category.phase() as usize] += seconds;
    }

    /// Sum of the TTFT categories — equals `first_token_s - arrival_s`
    /// exactly by construction (0 before the first token).
    pub fn ttft_total_s(&self) -> f64 {
        self.ttft_by_cause.iter().sum()
    }

    /// Sum of the e2e categories — equals `end_s - arrival_s` exactly
    /// by construction.
    pub fn e2e_total_s(&self) -> f64 {
        self.e2e_by_cause.iter().sum()
    }

    /// The category with the largest end-to-end contribution.
    pub fn top_e2e_cause(&self) -> BlameCategory {
        let mut best = BlameCategory::ALL[0];
        for c in BlameCategory::ALL {
            if self.e2e_by_cause[c.index()] > self.e2e_by_cause[best.index()] {
                best = c;
            }
        }
        best
    }
}

/// Reduces a sorted record stream (as `TraceSink::drain`/`snapshot`
/// return it) to one [`BlameBreakdown`] per sequence lane, in one pass of
/// the [`LifecycleFold`]. Device and link lanes are skipped.
pub fn blame_spans(records: &[TraceRecord]) -> BTreeMap<u64, BlameBreakdown> {
    LifecycleFold::replay(records, |_, _| {})
}

/// Mean phase times across finished requests — the digest that lands in
/// `DecodeReport`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BreakdownSummary {
    /// Requests whose lifecycle closed with `Finished`.
    pub requests: usize,
    /// Mean seconds queued per finished request.
    pub mean_queue_s: f64,
    /// Mean seconds in chunked prefill.
    pub mean_prefill_s: f64,
    /// Mean seconds decoding.
    pub mean_decode_s: f64,
    /// Mean seconds stalled (preemption, swap, restore).
    pub mean_stall_s: f64,
}

impl BreakdownSummary {
    /// Averages the phases of a [`blame_spans`] reduction's finished
    /// requests.
    pub fn of(spans: &BTreeMap<u64, BlameBreakdown>) -> Self {
        let finished: Vec<&BlameBreakdown> = spans.values().filter(|s| s.finished).collect();
        let n = finished.len().max(1) as f64;
        let mean = |p: Phase| finished.iter().map(|s| s.phase_s[p as usize]).sum::<f64>() / n;
        BreakdownSummary {
            requests: finished.len(),
            mean_queue_s: mean(Phase::Queue),
            mean_prefill_s: mean(Phase::Prefill),
            mean_decode_s: mean(Phase::Decode),
            mean_stall_s: mean(Phase::Stall),
        }
    }

    /// Sum of the mean phase times — the mean end-to-end latency.
    pub fn mean_total_s(&self) -> f64 {
        self.mean_queue_s + self.mean_prefill_s + self.mean_decode_s + self.mean_stall_s
    }
}

/// Fleet-level blame accumulator: per-category totals plus per-category
/// sketches of each finished request's contribution. Merging adds
/// totals and folds sketches bucket-wise, so window aggregates compose
/// associatively — the property the drift detector builds on.
#[derive(Debug, Clone)]
pub struct BlameAggregate {
    requests: u64,
    ttft_total_s: [f64; BlameCategory::COUNT],
    e2e_total_s: [f64; BlameCategory::COUNT],
    /// Per-category sketch over each contributing request's e2e share
    /// (only requests with a nonzero contribution are recorded, so the
    /// quantiles describe "when this cause bites, how hard").
    e2e_sketch: Vec<LatencySketch>,
}

impl Default for BlameAggregate {
    fn default() -> Self {
        Self::new()
    }
}

impl BlameAggregate {
    /// An empty accumulator.
    pub fn new() -> Self {
        BlameAggregate {
            requests: 0,
            ttft_total_s: [0.0; BlameCategory::COUNT],
            e2e_total_s: [0.0; BlameCategory::COUNT],
            e2e_sketch: (0..BlameCategory::COUNT)
                .map(|_| LatencySketch::new())
                .collect(),
        }
    }

    /// Folds one finished request's breakdown (unfinished lifecycles
    /// are skipped — their end is an artifact of where the trace
    /// stopped, not a latency).
    pub fn fold(&mut self, b: &BlameBreakdown) {
        if !b.finished {
            return;
        }
        self.requests += 1;
        for c in BlameCategory::ALL {
            let i = c.index();
            self.ttft_total_s[i] += b.ttft_by_cause[i];
            self.e2e_total_s[i] += b.e2e_by_cause[i];
            if b.e2e_by_cause[i] > 0.0 {
                self.e2e_sketch[i].record(b.e2e_by_cause[i]);
            }
        }
    }

    /// Folds every finished span of a [`blame_spans`] reduction.
    pub fn fold_spans(&mut self, spans: &BTreeMap<u64, BlameBreakdown>) {
        for b in spans.values() {
            self.fold(b);
        }
    }

    /// Merges another aggregate into this one (associative and
    /// commutative on every quantile, like the sketches it holds).
    pub fn merge(&mut self, other: &BlameAggregate) {
        self.requests += other.requests;
        for i in 0..BlameCategory::COUNT {
            self.ttft_total_s[i] += other.ttft_total_s[i];
            self.e2e_total_s[i] += other.e2e_total_s[i];
            self.e2e_sketch[i].merge(&other.e2e_sketch[i]);
        }
    }

    /// Finished requests folded so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The per-category contribution sketch (for drift baselines).
    pub fn sketch(&self, cat: BlameCategory) -> &LatencySketch {
        &self.e2e_sketch[cat.index()]
    }

    /// Freezes the aggregate into the report-ready digest. Only
    /// categories that contributed time appear, in taxonomy order.
    pub fn summary(&self) -> BlameSummary {
        let ttft_total: f64 = self.ttft_total_s.iter().sum();
        let e2e_total: f64 = self.e2e_total_s.iter().sum();
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let causes = BlameCategory::ALL
            .iter()
            .filter(|c| self.ttft_total_s[c.index()] > 0.0 || self.e2e_total_s[c.index()] > 0.0)
            .map(|&c| {
                let i = c.index();
                let sk = &self.e2e_sketch[i];
                BlameCauseStat {
                    cause: c,
                    requests: sk.count(),
                    ttft_s: self.ttft_total_s[i],
                    ttft_share: share(self.ttft_total_s[i], ttft_total),
                    e2e_s: self.e2e_total_s[i],
                    e2e_share: share(self.e2e_total_s[i], e2e_total),
                    p50_s: sk.quantile(0.50),
                    p95_s: sk.quantile(0.95),
                    p99_s: sk.quantile(0.99),
                }
            })
            .collect();
        BlameSummary {
            requests: self.requests,
            ttft_total_s: ttft_total,
            e2e_total_s: e2e_total,
            causes,
        }
    }
}

/// One category's share of the fleet's time, with per-request
/// contribution quantiles read off the aggregate's sketch.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BlameCauseStat {
    /// The category (serialized as its [`BlameCategory::name`]).
    pub cause: BlameCategory,
    /// Finished requests this category contributed time to.
    pub requests: u64,
    /// Total TTFT seconds attributed to the category.
    pub ttft_s: f64,
    /// Fraction of all TTFT seconds.
    pub ttft_share: f64,
    /// Total end-to-end seconds attributed to the category.
    pub e2e_s: f64,
    /// Fraction of all end-to-end seconds.
    pub e2e_share: f64,
    /// Median per-request contribution (contributing requests only).
    pub p50_s: f64,
    /// 95th-percentile per-request contribution.
    pub p95_s: f64,
    /// 99th-percentile per-request contribution.
    pub p99_s: f64,
}

/// The report-ready blame digest: fleet totals and per-cause shares.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BlameSummary {
    /// Finished requests folded.
    pub requests: u64,
    /// Sum of all requests' TTFTs (seconds).
    pub ttft_total_s: f64,
    /// Sum of all requests' end-to-end latencies (seconds).
    pub e2e_total_s: f64,
    /// Per-category stats, taxonomy order, contributing categories only.
    pub causes: Vec<BlameCauseStat>,
}

impl BlameSummary {
    /// The category holding the largest share of TTFT time.
    pub fn top_ttft_cause(&self) -> Option<&BlameCauseStat> {
        self.causes
            .iter()
            .max_by(|a, b| a.ttft_s.total_cmp(&b.ttft_s))
    }

    /// The category holding the largest share of end-to-end time.
    pub fn top_e2e_cause(&self) -> Option<&BlameCauseStat> {
        self.causes
            .iter()
            .max_by(|a, b| a.e2e_s.total_cmp(&b.e2e_s))
    }

    /// The stats of `category`, if it contributed time.
    pub fn cause(&self, category: BlameCategory) -> Option<&BlameCauseStat> {
        self.causes.iter().find(|c| c.cause == category)
    }
}

impl fmt::Display for BlameSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blame ({} finished):", self.requests)?;
        match (self.top_ttft_cause(), self.top_e2e_cause()) {
            (Some(t), Some(e)) => write!(
                f,
                " ttft {:.0}% {} / e2e {:.0}% {} (p95 contribution {:.2} ms)",
                t.ttft_share * 100.0,
                t.cause.name(),
                e.e2e_share * 100.0,
                e.cause.name(),
                e.p95_s * 1e3,
            ),
            _ => write!(f, " no attributed time"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    #[test]
    fn category_indices_are_dense_and_names_unique() {
        for (i, c) in BlameCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut names: Vec<&str> = BlameCategory::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BlameCategory::COUNT);
        for w in WaitCause::ALL {
            assert_eq!(w.name(), w.category().name());
        }
    }

    #[test]
    fn blame_tiles_ttft_and_e2e_exactly() {
        let sink = TraceSink::enabled();
        // arrival 1.0; waits on kv pool until 1.4; admitted 1.5; chunk
        // 2.0; budget-blocked to 2.2; first token 2.5; decode 3.0;
        // finished 3.0.
        sink.record(
            1.4,
            9,
            TraceEvent::Waiting {
                cause: WaitCause::KvPoolExhausted,
                since_s: 1.0,
            },
        );
        sink.record(1.5, 9, TraceEvent::Admitted { arrival_s: 1.0 });
        sink.record(2.0, 9, TraceEvent::PrefillChunk { tokens: 64 });
        sink.record(
            2.2,
            9,
            TraceEvent::Waiting {
                cause: WaitCause::TokenBudgetFull,
                since_s: 1.0,
            },
        );
        sink.record(2.5, 9, TraceEvent::FirstToken);
        sink.record(
            3.0,
            9,
            TraceEvent::DecodeStep {
                attended: 64,
                cached: 64,
            },
        );
        sink.record(3.0, 9, TraceEvent::Finished);
        let spans = blame_spans(&sink.drain());
        let b = spans[&9];
        assert!(b.finished);
        assert_eq!(b.arrival_s, 1.0);
        assert_eq!(b.first_token_s, Some(2.5));
        let kv = b.e2e_by_cause[BlameCategory::KvPoolExhausted.index()];
        let q = b.e2e_by_cause[BlameCategory::QueueBehindAdmission.index()];
        let budget = b.e2e_by_cause[BlameCategory::TokenBudgetFull.index()];
        let pf = b.e2e_by_cause[BlameCategory::PrefillExecute.index()];
        let dec = b.e2e_by_cause[BlameCategory::DecodeExecute.index()];
        assert!((kv - 0.4).abs() < 1e-12);
        assert!((q - 0.1).abs() < 1e-12);
        assert!((budget - 0.2).abs() < 1e-12);
        assert!((pf - 0.8).abs() < 1e-12, "chunk 0.5 + first token 0.3");
        assert!((dec - 0.5).abs() < 1e-12);
        // Exact tiling: e2e categories sum to end - arrival, ttft
        // categories to first_token - arrival.
        assert!((b.e2e_total_s() - (b.end_s - b.arrival_s)).abs() < 1e-12);
        assert!((b.ttft_total_s() - 1.5).abs() < 1e-12);
        // The decode gap is e2e-only.
        assert_eq!(b.ttft_by_cause[BlameCategory::DecodeExecute.index()], 0.0);
    }

    #[test]
    fn readmission_first_token_does_not_reopen_ttft() {
        let sink = TraceSink::enabled();
        sink.record(0.5, 3, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(1.0, 3, TraceEvent::FirstToken);
        sink.record(
            1.5,
            3,
            TraceEvent::Preempted {
                policy: "recompute",
            },
        );
        sink.record(2.0, 3, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(3.0, 3, TraceEvent::FirstToken);
        sink.record(3.0, 3, TraceEvent::Finished);
        let spans = blame_spans(&sink.drain());
        let b = spans[&3];
        assert_eq!(b.first_token_s, Some(1.0), "first FirstToken closes TTFT");
        assert!((b.ttft_total_s() - 1.0).abs() < 1e-12);
        assert!((b.e2e_total_s() - 3.0).abs() < 1e-12);
        // The preemption gap is page pressure; the requeue gap is queue.
        assert!((b.e2e_by_cause[BlameCategory::KvPoolExhausted.index()] - 0.5).abs() < 1e-12);
        assert!((b.e2e_by_cause[BlameCategory::QueueBehindAdmission.index()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phases_tile_the_lifecycle_exactly() {
        let sink = TraceSink::enabled();
        // arrival 1.0, admitted 1.5 (queue 0.5), chunk 2.0 (prefill 0.5),
        // first token 2.25 (prefill 0.25), preempted 2.5 (stall 0.25),
        // re-admitted 3.0 (queue 0.5), chunk 3.5 (prefill 0.5),
        // decode 4.0 (decode 0.5), finished 4.0.
        sink.record(1.5, 9, TraceEvent::Admitted { arrival_s: 1.0 });
        sink.record(2.0, 9, TraceEvent::PrefillChunk { tokens: 64 });
        sink.record(2.25, 9, TraceEvent::FirstToken);
        sink.record(
            2.5,
            9,
            TraceEvent::Preempted {
                policy: "recompute",
            },
        );
        sink.record(3.0, 9, TraceEvent::Admitted { arrival_s: 1.0 });
        sink.record(3.5, 9, TraceEvent::PrefillChunk { tokens: 64 });
        sink.record(
            4.0,
            9,
            TraceEvent::DecodeStep {
                attended: 64,
                cached: 64,
            },
        );
        sink.record(4.0, 9, TraceEvent::Finished);
        let b = blame_spans(&sink.drain())[&9];
        assert!(b.finished);
        let phase = |p: Phase| b.phase_s[p as usize];
        assert!((phase(Phase::Queue) - 1.0).abs() < 1e-12);
        assert!((phase(Phase::Prefill) - 1.25).abs() < 1e-12);
        assert!((phase(Phase::Stall) - 0.25).abs() < 1e-12);
        assert!((phase(Phase::Decode) - 0.5).abs() < 1e-12);
        let total: f64 = b.phase_s.iter().sum();
        assert!((total - (b.end_s - b.arrival_s)).abs() < 1e-12);
    }

    #[test]
    fn device_lane_is_skipped_and_summary_averages_finished_only() {
        let sink = TraceSink::enabled();
        sink.record(
            1.0,
            crate::sink::DEVICE_LANE,
            TraceEvent::Step {
                prefill_rows: 8,
                decode_slots: 2,
                gpu_s: 0.5,
            },
        );
        sink.record(0.5, 0, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(1.0, 0, TraceEvent::FirstToken);
        sink.record(1.5, 0, TraceEvent::Finished);
        sink.record(0.5, 1, TraceEvent::Admitted { arrival_s: 0.0 });
        let spans = blame_spans(&sink.drain());
        assert_eq!(spans.len(), 2, "device lane excluded");
        let sum = BreakdownSummary::of(&spans);
        assert_eq!(sum.requests, 1, "unfinished request not averaged");
        assert!((sum.mean_queue_s - 0.5).abs() < 1e-12);
        assert!((sum.mean_total_s() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merge_is_associative_on_summaries() {
        let mk = |lane: u64, t0: f64| {
            let sink = TraceSink::enabled();
            // Queue dominates (1.0 s vs 0.5 + 0.25).
            sink.record(t0 + 1.0, lane, TraceEvent::Admitted { arrival_s: t0 });
            sink.record(t0 + 1.5, lane, TraceEvent::FirstToken);
            sink.record(t0 + 1.75, lane, TraceEvent::Finished);
            blame_spans(&sink.drain())
        };
        let spans: Vec<_> = (0..6).map(|i| mk(i, i as f64 * 0.3)).collect();
        let mut whole = BlameAggregate::new();
        for s in &spans {
            whole.fold_spans(s);
        }
        let mut left = BlameAggregate::new();
        let mut right = BlameAggregate::new();
        for (i, s) in spans.iter().enumerate() {
            if i < 2 {
                left.fold_spans(s);
            } else {
                right.fold_spans(s);
            }
        }
        left.merge(&right);
        assert_eq!(left.requests(), whole.requests());
        assert_eq!(left.summary(), whole.summary());
        let sum = whole.summary();
        assert_eq!(sum.requests, 6);
        assert_eq!(
            sum.top_e2e_cause().expect("has causes").cause,
            BlameCategory::QueueBehindAdmission,
        );
        assert!(sum.to_string().contains("queue_behind_admission"));
    }

    #[test]
    fn summary_shares_sum_to_one() {
        let sink = TraceSink::enabled();
        sink.record(0.5, 0, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(1.0, 0, TraceEvent::FirstToken);
        sink.record(
            2.0,
            0,
            TraceEvent::SwapIn {
                pages: 2,
                initiated_s: 1.2,
                link_busy_until_s: 2.0,
            },
        );
        sink.record(2.5, 0, TraceEvent::Finished);
        let mut agg = BlameAggregate::new();
        agg.fold_spans(&blame_spans(&sink.drain()));
        let sum = agg.summary();
        let total_share: f64 = sum.causes.iter().map(|c| c.e2e_share).sum();
        assert!((total_share - 1.0).abs() < 1e-12);
        assert!(sum.cause(BlameCategory::SwapLinkH2d).is_some());
        assert!(
            sum.cause(BlameCategory::SchedulerIdle).is_none(),
            "zero causes omitted"
        );
    }
}
