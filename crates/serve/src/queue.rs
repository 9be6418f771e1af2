//! A bounded MPMC admission queue with blocking backpressure.
//!
//! Built on `Mutex` + two `Condvar`s (std-only, matching the workspace's
//! no-external-deps policy). Producers block in [`BoundedQueue::push`] when
//! the queue is full — that *is* the admission control: a closed-loop
//! client that cannot enqueue cannot generate more load, so the server
//! degrades to bounded queueing delay instead of unbounded memory growth.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Error returned when pushing into a closed queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// Outcome of a [`BoundedQueue::pop_timeout`].
#[derive(Debug)]
pub enum PopResult<T> {
    /// An item arrived.
    Item(T),
    /// No item arrived within the window (queue still open).
    TimedOut,
    /// The queue is closed and drained; no item will ever arrive.
    ClosedEmpty,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// Bounded multi-producer/multi-consumer FIFO queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items at once.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().expect("queue poisoned")
    }

    /// Enqueues `item`, blocking while the queue is full (backpressure).
    /// Returns `Err(Closed)` if the queue was closed before the item could
    /// be admitted.
    pub fn push(&self, item: T) -> Result<(), Closed> {
        let mut s = self.lock();
        while s.items.len() >= self.capacity && !s.closed {
            s = self.not_full.wait(s).expect("queue poisoned");
        }
        if s.closed {
            return Err(Closed);
        }
        s.items.push_back(item);
        s.high_water = s.high_water.max(s.items.len());
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).expect("queue poisoned");
        }
    }

    /// Dequeues the oldest item, waiting at most `window`. The scheduler
    /// uses this as its batching window: wait briefly for more arrivals,
    /// then form a batch from what is pending.
    pub fn pop_timeout(&self, window: Duration) -> PopResult<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                self.not_full.notify_one();
                return PopResult::Item(item);
            }
            if s.closed {
                return PopResult::ClosedEmpty;
            }
            let (guard, timeout) = self
                .not_empty
                .wait_timeout(s, window)
                .expect("queue poisoned");
            s = guard;
            if timeout.timed_out() && s.items.is_empty() {
                return if s.closed {
                    PopResult::ClosedEmpty
                } else {
                    PopResult::TimedOut
                };
            }
        }
    }

    /// Moves every immediately-available item into `out` without blocking.
    /// Returns how many items were drained.
    pub fn drain_into(&self, out: &mut VecDeque<T>) -> usize {
        let mut s = self.lock();
        let n = s.items.len();
        out.extend(s.items.drain(..));
        if n > 0 {
            self.not_full.notify_all();
        }
        n
    }

    /// Closes the queue: pending items stay poppable, new pushes fail, and
    /// every blocked producer/consumer wakes.
    pub fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Deepest the queue has ever been (queue-depth metric).
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_high_water() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.high_water(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.high_water(), 5);
        assert!(q.is_empty());
    }

    #[test]
    fn close_unblocks_consumers_and_rejects_producers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(h.join().unwrap(), None);
        assert_eq!(q.push(7), Err(Closed));
    }

    #[test]
    fn push_blocks_until_capacity_frees() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push(1).unwrap());
        thread::sleep(Duration::from_millis(10));
        assert_eq!(q.len(), 1); // producer is parked on backpressure
        assert_eq!(q.pop(), Some(0));
        h.join().unwrap();
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn pop_timeout_times_out_on_empty_open_queue() {
        let q = BoundedQueue::<u32>::new(4);
        match q.pop_timeout(Duration::from_millis(5)) {
            PopResult::TimedOut => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        q.push(9).unwrap();
        match q.pop_timeout(Duration::from_millis(5)) {
            PopResult::Item(9) => {}
            other => panic!("expected item, got {other:?}"),
        }
        q.close();
        match q.pop_timeout(Duration::from_millis(5)) {
            PopResult::ClosedEmpty => {}
            other => panic!("expected closed, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything() {
        let q = Arc::new(BoundedQueue::new(8));
        let total = 4 * 250;
        let mut producers = Vec::new();
        for p in 0..4u32 {
            let q = q.clone();
            producers.push(thread::spawn(move || {
                for i in 0..250u32 {
                    q.push(p * 1000 + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), total);
        all.dedup();
        assert_eq!(all.len(), total, "every item delivered exactly once");
        assert!(q.high_water() <= q.capacity());
    }
}
