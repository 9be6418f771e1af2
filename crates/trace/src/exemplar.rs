//! Tail exemplars: bounded top-k capture of the worst requests' full
//! event timelines.
//!
//! Percentiles say *that* the tail is slow; an exemplar shows *one
//! specific slow request* with every lifecycle event intact, ready to
//! inspect in the Chrome trace
//! ([`crate::chrome_trace_json_with_exemplars`] renders them as
//! highlighted lanes). The [`ExemplarReservoir`] keeps at most `k`
//! timelines per metric (TTFT, max inter-token latency, end-to-end), so
//! memory stays bounded no matter how many requests replay — and
//! because the serving loop buffers each live lane's records itself and
//! offers them at `Finished`, exemplars survive even when the global
//! [`crate::TraceSink`] is disabled or head-sampled.
//!
//! Selection is deterministic: a timeline ranks by `(value desc, lane
//! asc)`, so two replays of the same trace capture byte-identical
//! exemplar sets — the property `tests/blame_invariants.rs` pins.

use crate::lifecycle::{Latency, LifecycleFold};
use crate::sink::TraceRecord;

/// One captured request lifecycle: the lane, the metric value that
/// ranked it, and every event the request emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct ExemplarTimeline {
    /// The request's sequence id.
    pub lane: u64,
    /// The ranking metric's value for this request (seconds).
    pub value_s: f64,
    /// The request's full event timeline, in emission order.
    pub records: Vec<TraceRecord>,
}

/// The frozen top-k exemplars, worst-first per metric. A timeline that
/// is extreme on several metrics appears in each list (k is small).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExemplarSet {
    /// Capacity per metric.
    pub k: usize,
    /// Worst requests by time to first token.
    pub ttft: Vec<ExemplarTimeline>,
    /// Worst requests by maximum inter-token latency.
    pub itl: Vec<ExemplarTimeline>,
    /// Worst requests by end-to-end latency.
    pub e2e: Vec<ExemplarTimeline>,
}

impl ExemplarSet {
    /// Total captured timelines across the three metrics.
    pub fn len(&self) -> usize {
        self.ttft.len() + self.itl.len() + self.e2e.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates every captured timeline, metric by metric.
    pub fn timelines(&self) -> impl Iterator<Item = &ExemplarTimeline> {
        self.ttft.iter().chain(&self.itl).chain(&self.e2e)
    }
}

/// Accumulates candidate timelines, keeping the top `k` per metric.
#[derive(Debug)]
pub struct ExemplarReservoir {
    set: ExemplarSet,
}

/// Inserts `(lane, value, records)` into a worst-first list bounded at
/// `k`, ranked by `(value desc, lane asc)` — deterministic under
/// replay. Returns without cloning when the candidate cannot rank (or
/// `k == 0`).
fn insert_topk(
    list: &mut Vec<ExemplarTimeline>,
    k: usize,
    lane: u64,
    value_s: f64,
    records: &[TraceRecord],
) {
    let pos =
        list.partition_point(|t| t.value_s > value_s || (t.value_s == value_s && t.lane < lane));
    if pos >= k {
        return;
    }
    list.insert(
        pos,
        ExemplarTimeline {
            lane,
            value_s,
            records: records.to_vec(),
        },
    );
    list.truncate(k);
}

impl ExemplarReservoir {
    /// A reservoir keeping the `k` worst timelines per metric (`k == 0`
    /// disables capture).
    pub fn new(k: usize) -> Self {
        ExemplarReservoir {
            set: ExemplarSet {
                k,
                ..ExemplarSet::default()
            },
        }
    }

    /// Whether offers can rank at all.
    pub fn is_enabled(&self) -> bool {
        self.set.k > 0
    }

    /// Offers one request's complete timeline. Only lifecycles closed by
    /// `Finished` rank (an unfinished lane's end is an artifact of where
    /// the replay stopped); the metrics come from replaying the records
    /// through the lifecycle fold, so the reservoir needs no side channel.
    pub fn offer(&mut self, lane: u64, records: &[TraceRecord]) {
        let set = &mut self.set;
        if set.k == 0 {
            return;
        }
        let (mut ttft, mut max_itl, mut e2e) = (None, 0.0_f64, None);
        LifecycleFold::replay(records, |_, step| match step.latency {
            Some(Latency::Ttft(v)) => ttft = Some(v),
            Some(Latency::Itl(v)) => max_itl = max_itl.max(v),
            Some(Latency::E2e(v)) => e2e = Some(v),
            None => {}
        });
        let Some(e2e) = e2e else {
            return;
        };
        if let Some(ttft) = ttft {
            insert_topk(&mut set.ttft, set.k, lane, ttft, records);
        }
        if max_itl > 0.0 {
            insert_topk(&mut set.itl, set.k, lane, max_itl, records);
        }
        insert_topk(&mut set.e2e, set.k, lane, e2e, records);
    }

    /// Freezes the reservoir into its final set.
    pub fn finish(self) -> ExemplarSet {
        self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceEvent;

    fn timeline(lane: u64, arrival: f64, ttft: f64, steps: &[f64]) -> Vec<TraceRecord> {
        let mut ord = 0;
        let mut rec = |t_s: f64, event: TraceEvent| {
            ord += 1;
            TraceRecord {
                ord,
                t_s,
                lane,
                event,
            }
        };
        let mut out = vec![
            rec(arrival + 0.1, TraceEvent::Admitted { arrival_s: arrival }),
            rec(arrival + ttft, TraceEvent::FirstToken),
        ];
        let mut t = arrival + ttft;
        for &gap in steps {
            t += gap;
            out.push(rec(
                t,
                TraceEvent::DecodeStep {
                    attended: 8,
                    cached: 8,
                },
            ));
        }
        out.push(rec(t, TraceEvent::Finished));
        out
    }

    #[test]
    fn keeps_k_worst_per_metric_sorted_worst_first() {
        let mut res = ExemplarReservoir::new(2);
        for lane in 0..5u64 {
            // lane n: ttft grows with n, max itl shrinks with n.
            let tl = timeline(
                lane,
                lane as f64,
                (lane + 1) as f64,
                &[(5 - lane) as f64, 0.25],
            );
            res.offer(lane, &tl);
        }
        let set = res.finish();
        assert_eq!(set.ttft.len(), 2, "bounded at k");
        assert_eq!(set.ttft[0].lane, 4, "worst first");
        assert_eq!(set.ttft[1].lane, 3);
        assert!(set.ttft[0].value_s > set.ttft[1].value_s);
        assert_eq!(set.itl.len(), 2);
        assert_eq!((set.itl[0].lane, set.itl[1].lane), (0, 1));
        assert_eq!(set.e2e.len(), 2);
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn exact_ties_rank_by_lane_ascending() {
        let mut res = ExemplarReservoir::new(1);
        // Identical shapes at integral times: byte-equal metric values.
        res.offer(9, &timeline(9, 20.0, 1.0, &[2.0]));
        res.offer(5, &timeline(5, 10.0, 1.0, &[2.0]));
        let set = res.finish();
        assert_eq!(set.ttft[0].lane, 5, "tie goes to the lower lane");
        assert_eq!(set.itl[0].lane, 5);
        assert_eq!(set.e2e[0].lane, 5);
    }

    #[test]
    fn unfinished_and_disabled_offers_do_not_rank() {
        let mut res = ExemplarReservoir::new(2);
        let mut tl = timeline(7, 0.0, 0.5, &[0.05]);
        tl.pop(); // drop Finished
        res.offer(7, &tl);
        assert!(res.finish().is_empty());

        let mut off = ExemplarReservoir::new(0);
        assert!(!off.is_enabled());
        off.offer(7, &timeline(7, 0.0, 0.5, &[0.05]));
        assert!(off.finish().is_empty());
    }

    #[test]
    fn capture_is_deterministic_across_replays() {
        let run = || {
            let mut res = ExemplarReservoir::new(3);
            for lane in 0..10u64 {
                let tl = timeline(
                    lane,
                    lane as f64 * 0.3,
                    0.05 * ((lane * 7) % 5 + 1) as f64,
                    &[0.01, 0.03, 0.02],
                );
                res.offer(lane, &tl);
            }
            res.finish()
        };
        assert_eq!(run(), run());
    }
}
