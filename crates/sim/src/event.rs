//! A deterministic discrete-event queue.
//!
//! Events scheduled for the same timestamp are delivered in insertion order
//! (FIFO tie-break via a monotone sequence number), which keeps simulations
//! bit-reproducible across runs regardless of queue internals.
//!
//! Two implementations share the same contract:
//!
//! * [`EventQueue`] — the production queue, a self-resizing
//!   **calendar/bucket queue** (Brown 1988). Inserts and pops are O(1)
//!   amortised, which is what lets fleet runs push 10^6–10^7 events
//!   through the scheduler hot path without the `log n` comparison and
//!   cache-miss cost of a binary heap.
//! * [`HeapQueue`] — the original `BinaryHeap` queue, kept as the
//!   executable reference. Differential tests drive both with the same
//!   schedule and assert bit-identical pop sequences.
//!
//! Both order strictly by `(time, seq)`, so swapping one for the other can
//! never change a simulation result — only how fast it runs.

use crate::clock::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// Strict `(time, seq)` key — the one total order both queues obey.
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
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

/// Smallest calendar size; below this a flat scan is cheap anyway.
const MIN_BUCKETS: usize = 16;
/// Upper bound on calendar size so a pathological trace cannot balloon
/// the bucket array.
const MAX_BUCKETS: usize = 1 << 20;
/// Cap on `log2(bucket width in ps)`; 2^44 ps ≈ 17.6 s per bucket is far
/// coarser than any simulated workload needs.
const MAX_BUCKET_BITS: u32 = 44;

/// A discrete-event priority queue over an arbitrary payload type,
/// backed by a self-resizing calendar (bucket) queue.
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
    /// Power-of-two array of unsorted day buckets.
    buckets: Vec<Vec<Entry<E>>>,
    /// `log2` of the bucket (day) width in picoseconds.
    bucket_bits: u32,
    /// The current minimum, held outside the calendar so `peek_time` is
    /// O(1) and each pop costs exactly one bucket scan.
    front: Option<Entry<E>>,
    /// Virtual bucket (`at.ps >> bucket_bits`, no modulo) the search
    /// cursor sits at. Invariant: no calendar entry lives in an earlier
    /// virtual bucket.
    cursor_vb: u64,
    /// Entries in `buckets` (excludes `front`).
    in_calendar: usize,
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
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            bucket_bits: 10,
            front: None,
            cursor_vb: 0,
            in_calendar: 0,
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The timestamp of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    fn virtual_bucket(&self, at: Time) -> u64 {
        at.as_ps() >> self.bucket_bits
    }

    fn bucket_index(&self, vb: u64) -> usize {
        (vb as usize) & (self.buckets.len() - 1)
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
        let mut entry = Entry { at, seq, payload };
        // Keep `front` the strict (time, seq) minimum. A later seq never
        // displaces an equal-time front, preserving FIFO.
        if let Some(front) = &self.front {
            if entry.key() < front.key() {
                std::mem::swap(
                    &mut entry,
                    self.front.as_mut().expect("front checked above"),
                );
            }
        } else {
            self.front = Some(entry);
            return;
        }
        self.push_calendar(entry);
        if self.in_calendar > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    fn push_calendar(&mut self, entry: Entry<E>) {
        let vb = self.virtual_bucket(entry.at);
        // Never let the cursor sit past a live entry, or a year scan
        // could miss it and break the total order.
        if vb < self.cursor_vb {
            self.cursor_vb = vb;
        }
        let idx = self.bucket_index(vb);
        self.buckets[idx].push(entry);
        self.in_calendar += 1;
    }

    /// Extracts the strict `(time, seq)` minimum from the calendar.
    fn take_calendar_min(&mut self) -> Option<Entry<E>> {
        if self.in_calendar == 0 {
            return None;
        }
        let n = self.buckets.len();
        // Walk day windows from the cursor; an entry belongs to the
        // current window iff its virtual bucket matches exactly, so a
        // same-index entry a whole year ahead is correctly skipped.
        for _ in 0..n {
            let idx = self.bucket_index(self.cursor_vb);
            if let Some(pos) = self.min_in_window(idx, self.cursor_vb) {
                return Some(self.remove_at(idx, pos));
            }
            self.cursor_vb += 1;
        }
        // Nothing within a full year of the cursor: direct search for the
        // global minimum, then reposition the cursor there.
        let mut best: Option<(usize, usize)> = None;
        let mut best_key = (Time::MAX, u64::MAX);
        for (idx, bucket) in self.buckets.iter().enumerate() {
            for (pos, e) in bucket.iter().enumerate() {
                if e.key() <= best_key {
                    best_key = e.key();
                    best = Some((idx, pos));
                }
            }
        }
        let (idx, pos) = best.expect("in_calendar > 0 means a minimum exists");
        self.cursor_vb = self.virtual_bucket(best_key.0);
        Some(self.remove_at(idx, pos))
    }

    /// Position of the minimal `(time, seq)` entry of `bucket[idx]` whose
    /// virtual bucket equals `vb`, if any.
    fn min_in_window(&self, idx: usize, vb: u64) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_key = (Time::MAX, u64::MAX);
        for (pos, e) in self.buckets[idx].iter().enumerate() {
            if self.virtual_bucket(e.at) == vb && e.key() <= best_key {
                best_key = e.key();
                best = Some(pos);
            }
        }
        best
    }

    fn remove_at(&mut self, idx: usize, pos: usize) -> Entry<E> {
        self.in_calendar -= 1;
        // Buckets are unsorted; swap_remove keeps removal O(1).
        self.buckets[idx].swap_remove(pos)
    }

    /// Rebuilds the calendar: resizes the bucket array to track the
    /// population and re-derives the day width from the observed event
    /// span, so both sparse and dense schedules keep ~O(1) buckets.
    fn rebuild(&mut self) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.in_calendar);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        let len = entries.len();
        let target = len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != target {
            self.buckets = (0..target).map(|_| Vec::new()).collect();
        }
        if len > 1 {
            let mut min_at = u64::MAX;
            let mut max_at = 0u64;
            for e in &entries {
                min_at = min_at.min(e.at.as_ps());
                max_at = max_at.max(e.at.as_ps());
            }
            let gap = ((max_at - min_at) / len as u64).max(1);
            // Bucket width = smallest power of two >= the mean gap, so a
            // day holds about one event.
            self.bucket_bits = (64 - gap.leading_zeros()).min(MAX_BUCKET_BITS);
        }
        self.in_calendar = 0;
        self.cursor_vb = u64::MAX;
        let mut min_vb = u64::MAX;
        for entry in entries {
            min_vb = min_vb.min(self.virtual_bucket(entry.at));
            let idx = self.bucket_index(self.virtual_bucket(entry.at));
            self.buckets[idx].push(entry);
            self.in_calendar += 1;
        }
        self.cursor_vb = if self.in_calendar == 0 { 0 } else { min_vb };
    }

    /// Removes and returns the earliest event, advancing the queue clock.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let popped = self.front.take()?;
        self.front = self.take_calendar_min();
        if self.in_calendar < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild();
        }
        self.now = popped.at;
        Some((popped.at, popped.payload))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.front.as_ref().map(|e| e.at)
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

/// The original binary-heap event queue, kept as the executable
/// reference implementation for [`EventQueue`].
///
/// Test oracle: nothing outside tests runs it; the differential tests here
/// (`calendar_matches_heap_*`) and the `calendar_queue_matches_heap_reference`
/// proptest drive both queues side by side under one `(time, seq)` order.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        HeapQueue {
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
    /// Panics if `at` is earlier than the current queue time.
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

    /// Drains and returns every event scheduled at exactly the next
    /// timestamp, in FIFO order: the reference for
    /// [`EventQueue::pop_batch_into`].
    pub fn pop_batch(&mut self) -> Vec<(Time, E)> {
        let Some(t) = self.peek_time() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while self.peek_time() == Some(t) {
            out.push(self.pop().expect("peeked event must pop"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

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

    /// One interleaved schedule/pop trace driven through both queues;
    /// the pop sequences must match element for element.
    fn differential_run(seed: u64, n_ops: usize, span_ns: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut tag = 0u64;
        let mut batch = Vec::new();
        for op in 0..n_ops {
            // Mixed workload: bursts of schedules, bursts of pops, and
            // occasional same-timestamp pileups to stress FIFO ties.
            if rng.next_below(3) > 0 || cal.peek_time().is_none() {
                let base = cal.now().as_ps();
                let at = if rng.next_below(8) == 0 {
                    Time::from_ps(base) // exactly "now": a delta event
                } else {
                    Time::from_ps(base + rng.next_below(span_ns * 1000).max(1))
                };
                cal.schedule(at, tag);
                heap.schedule(at, tag);
                tag += 1;
            } else if rng.next_bool(0.3) {
                cal.pop_batch_into(&mut batch);
                assert_eq!(batch, heap.pop_batch(), "op {op} batch");
            } else {
                assert_eq!(cal.pop(), heap.pop(), "op {op}");
                assert_eq!(cal.now(), heap.now(), "op {op} now");
            }
            assert_eq!(cal.peek_time(), heap.peek_time(), "op {op} peek");
        }
        while let Some(got) = cal.pop() {
            assert_eq!(Some(got), heap.pop(), "drain");
        }
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn calendar_matches_heap_dense() {
        differential_run(1, 20_000, 50);
    }

    #[test]
    fn calendar_matches_heap_sparse() {
        differential_run(2, 20_000, 5_000_000);
    }

    #[test]
    fn calendar_matches_heap_many_seeds() {
        for seed in 10..26 {
            differential_run(seed, 2_000, 1 << (seed % 22));
        }
    }

    #[test]
    fn far_future_event_survives_resizes() {
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
