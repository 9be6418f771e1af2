//! Fixed-width time windows.
//!
//! [`Windowed`] is the one windowing primitive behind every time series
//! in this crate: the SLO monitor's attainment windows, the live hub's
//! bounded ring, and [`WindowSeries`] — per-window admitted/rejected
//! counts and queue depth for open-loop replays. A bursty trace's
//! behaviour is invisible in end-of-run totals (a burst that sheds half
//! its arrivals for two seconds and then idles looks identical to steady
//! mild overload), so the time axis survives into the report. Memory is
//! O(run duration / window), independent of the request count.

use std::collections::VecDeque;

/// Windows of `width_s` seconds: a timestamp `t` lands in window
/// `⌊max(t, 0) / width_s⌋`, and windows are created on demand, idle gaps
/// included. An unbounded series ([`Windowed::new`]) starts at window 0;
/// a ring ([`Windowed::ring`]) starts at the first timestamp it sees,
/// keeps only the newest `capacity` windows (counting the evicted ones)
/// and folds stragglers older than that into its oldest window.
#[derive(Debug, Clone)]
pub(crate) struct Windowed<T> {
    width_s: f64,
    capacity: Option<usize>,
    /// Index of the oldest retained window.
    first: u64,
    windows: VecDeque<T>,
    dropped: u64,
}

impl<T> Windowed<T> {
    /// An unbounded series starting at window 0.
    pub(crate) fn new(width_s: f64) -> Self {
        Windowed {
            width_s,
            capacity: None,
            first: 0,
            windows: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A ring retaining at most `capacity` windows.
    pub(crate) fn ring(width_s: f64, capacity: usize) -> Self {
        Windowed {
            capacity: Some(capacity),
            ..Self::new(width_s)
        }
    }

    /// The window width (seconds).
    pub(crate) fn width_s(&self) -> f64 {
        self.width_s
    }

    /// The window holding `t_s`, creating it (and any windows between it
    /// and the newest one) with `make(index)`.
    pub(crate) fn at(&mut self, t_s: f64, make: impl Fn(u64) -> T) -> &mut T {
        let idx = (t_s.max(0.0) / self.width_s) as u64;
        if self.windows.is_empty() && self.capacity.is_some() {
            self.first = idx;
        }
        while self.first + self.windows.len() as u64 <= idx {
            self.windows
                .push_back(make(self.first + self.windows.len() as u64));
            if self.capacity.is_some_and(|c| self.windows.len() > c) {
                self.windows.pop_front();
                self.first += 1;
                self.dropped += 1;
            }
        }
        &mut self.windows[idx.saturating_sub(self.first) as usize]
    }

    /// Retained windows with their indices, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.first..).zip(&self.windows)
    }

    /// Index of the newest window (`None` before the first timestamp).
    pub(crate) fn last_index(&self) -> Option<u64> {
        (!self.windows.is_empty()).then(|| self.first + self.windows.len() as u64 - 1)
    }

    /// Windows created so far: retained plus evicted.
    pub(crate) fn created(&self) -> u64 {
        self.windows.len() as u64 + self.dropped
    }

    /// Windows evicted from a ring so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// One window's counters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct WindowStat {
    /// Window start (seconds).
    pub start_s: f64,
    /// Requests admitted in the window.
    pub admitted: u64,
    /// Requests shed at admission in the window.
    pub rejected: u64,
    /// Deepest the queue got during the window.
    pub peak_queue_depth: usize,
}

/// Accumulates [`WindowStat`]s over fixed-width windows.
#[derive(Debug, Clone)]
pub struct WindowSeries {
    windows: Windowed<WindowStat>,
}

impl WindowSeries {
    /// A series with `window_s`-second windows (clamped to ≥ 1 ms).
    pub fn new(window_s: f64) -> Self {
        WindowSeries {
            windows: Windowed::new(window_s.max(1e-3)),
        }
    }

    /// The configured window width.
    pub fn window_s(&self) -> f64 {
        self.windows.width_s()
    }

    fn slot(&mut self, t_s: f64) -> &mut WindowStat {
        let width_s = self.windows.width_s();
        self.windows.at(t_s, |i| WindowStat {
            start_s: i as f64 * width_s,
            admitted: 0,
            rejected: 0,
            peak_queue_depth: 0,
        })
    }

    /// Counts one admission at `t_s`.
    pub fn admitted(&mut self, t_s: f64) {
        self.slot(t_s).admitted += 1;
    }

    /// Counts one shed arrival at `t_s`.
    pub fn rejected(&mut self, t_s: f64) {
        self.slot(t_s).rejected += 1;
    }

    /// Samples the queue depth at `t_s`.
    pub fn queue_depth(&mut self, t_s: f64, depth: usize) {
        let w = self.slot(t_s);
        w.peak_queue_depth = w.peak_queue_depth.max(depth);
    }

    /// Consumes the series (possibly with empty interior windows — those
    /// are the point: idle gaps stay visible).
    pub fn into_stats(self) -> Vec<WindowStat> {
        self.windows.windows.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_bucket_by_time_and_keep_gaps() {
        let mut w = WindowSeries::new(1.0);
        w.admitted(0.2);
        w.admitted(0.9);
        w.rejected(0.5);
        // Nothing in [1, 3); a late burst in [3, 4).
        w.admitted(3.1);
        w.queue_depth(3.2, 7);
        w.queue_depth(3.3, 4);
        let s = w.into_stats();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].admitted, 2);
        assert_eq!(s[0].rejected, 1);
        assert_eq!(s[1].admitted, 0, "idle window preserved");
        assert_eq!(s[2].admitted, 0);
        assert_eq!(s[3].admitted, 1);
        assert_eq!(s[3].peak_queue_depth, 7);
        assert_eq!(s[3].start_s, 3.0);
    }

    #[test]
    fn ring_evicts_the_oldest_and_folds_stragglers_into_it() {
        let mut ring: Windowed<u32> = Windowed::ring(1.0, 3);
        *ring.at(5.5, |_| 0) += 1; // the ring starts at its first timestamp
        assert_eq!(ring.last_index(), Some(5));
        for t in [6.5, 7.5, 8.5] {
            *ring.at(t, |_| 0) += 1;
        }
        *ring.at(0.5, |_| 0) += 10; // straggler → oldest retained window
        let kept: Vec<(u64, u32)> = ring.iter().map(|(i, &n)| (i, n)).collect();
        assert_eq!(kept, vec![(6, 11), (7, 1), (8, 1)]);
        assert_eq!((ring.dropped(), ring.created()), (1, 4));
    }

    #[test]
    fn negative_and_degenerate_inputs_are_clamped() {
        let mut w = WindowSeries::new(0.0); // clamps to 1 ms
        assert!(w.window_s() > 0.0);
        w.admitted(-5.0); // clamps to window 0
        assert_eq!(w.into_stats()[0].admitted, 1);
    }
}
