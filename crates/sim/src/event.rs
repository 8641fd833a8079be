//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is one binary min-heap keyed by `(time, insertion seq)`:
//! the earliest event pops first, and events scheduled for the same
//! timestamp pop in insertion order (a FIFO tie-break via a monotone
//! sequence number), which keeps simulations bit-reproducible across
//! runs.

use crate::clock::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event priority queue over an arbitrary payload type.
///
/// # Example
///
/// ```
/// use tee_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_ns(5), "late");
/// q.schedule(Time::from_ns(1), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (Time::from_ns(1), "early"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The timestamp of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current queue time — scheduling
    /// into the past indicates a simulator bug.
    pub fn schedule(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at} is before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, advancing the queue clock.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| {
            self.now = e.at;
            (e.at, e.payload)
        })
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Drains every event scheduled at exactly the next timestamp (a full
    /// "delta cycle") into `out` (cleared first), in FIFO order. The
    /// caller owns the buffer, so a scheduler loop reuses one allocation
    /// across delta cycles.
    pub fn pop_batch_into(&mut self, out: &mut Vec<(Time, E)>) {
        out.clear();
        let Some(t) = self.peek_time() else {
            return;
        };
        while self.peek_time() == Some(t) {
            out.push(self.pop().expect("peeked event must pop"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(30), 3);
        q.schedule(Time::from_ns(10), 1);
        q.schedule(Time::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ns(7));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), ());
        q.pop();
        q.schedule(Time::from_ns(5), ());
    }

    #[test]
    fn pop_batch_drains_delta_cycle() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(1), 'a');
        q.schedule(Time::from_ns(1), 'b');
        q.schedule(Time::from_ns(2), 'c');
        let mut batch = Vec::new();
        q.pop_batch_into(&mut batch);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].1, 'a');
        assert_eq!(batch[1].1, 'b');
        assert_eq!(q.pop(), Some((Time::from_ns(2), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        let mut batch = vec![(Time::ZERO, ())];
        q.pop_batch_into(&mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_into_reuses_buffer() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(3), 1u32);
        q.schedule(Time::from_ns(3), 2u32);
        let mut buf = vec![(Time::ZERO, 99u32); 8];
        q.pop_batch_into(&mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0].1, 1);
        q.pop_batch_into(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn far_future_event_pops_after_near_ones() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs_f64(3600.0), u64::MAX);
        for i in 0..500u64 {
            q.schedule(Time::from_ns(i), i);
        }
        for i in 0..500u64 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
        assert_eq!(q.pop().map(|(_, e)| e), Some(u64::MAX));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn time_max_sentinel_is_schedulable() {
        let mut q = EventQueue::new();
        q.schedule(Time::MAX, "never");
        q.schedule(Time::from_ns(1), "soon");
        assert_eq!(q.pop().map(|(_, e)| e), Some("soon"));
        assert_eq!(q.pop(), Some((Time::MAX, "never")));
    }
}
