//! Model-based property tests for the DES scheduler ([`tee_sim::des`]):
//! random event workloads are replayed against a sorted-`Vec` reference
//! model — no event is lost or duplicated, ties break stably on
//! `(time, component_id)` (FIFO within one component), and the dispatch
//! order of distinct `(time, id)` keys is invariant under insertion order.
//! The [`EventQueue`] under the scheduler is checked the same way,
//! against a linear-scan model of `(time, insertion)` order.

use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use tee_sim::des::{Component, Ctx, Scheduler};
use tee_sim::{EventQueue, SplitMix64, Time};

/// One injected event: (time in ns, target component, payload).
type Ev = (u64, usize, u32);

/// Components per scheduler in these workloads.
const N_COMPONENTS: usize = 6;

/// Logs every delivery into a shared, scheduler-global trace.
struct Recorder {
    trace: Rc<RefCell<Vec<Ev>>>,
}

impl Component for Recorder {
    type Msg = u32;
    fn receive(&mut self, now: Time, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.trace
            .borrow_mut()
            .push((now.as_ps() / 1000, ctx.self_id(), msg));
    }
}

/// Feeds `events` (in order) into a fresh scheduler of `N_COMPONENTS`
/// recorders and returns the global delivery trace.
fn deliver_all(events: &[Ev]) -> Vec<Ev> {
    let trace = Rc::new(RefCell::new(Vec::new()));
    let mut sched = Scheduler::new();
    for _ in 0..N_COMPONENTS {
        sched.add(Recorder {
            trace: Rc::clone(&trace),
        });
    }
    for &(t, target, payload) in events {
        sched.send_at(Time::from_ns(t), target, payload);
    }
    sched.run();
    assert_eq!(sched.events_processed(), events.len() as u64);
    let out = trace.borrow().clone();
    out
}

/// The reference model: a stable sort by `(time, component_id)` — within
/// one key, insertion (FIFO) order is preserved.
fn reference(events: &[Ev]) -> Vec<Ev> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|&(t, id, _)| (t, id));
    sorted
}

proptest! {
    #![proptest_config(ProptestConfig::ci())]

    /// The scheduler's delivery trace equals the sorted-`Vec` reference
    /// exactly: nothing lost, nothing duplicated, ties broken stably on
    /// `(time, component_id)` with FIFO within a component.
    #[test]
    fn trace_matches_sorted_vec_reference(
        events in vec((0u64..40, 0usize..N_COMPONENTS, any::<u32>()), 0..120)
    ) {
        prop_assert_eq!(deliver_all(&events), reference(&events));
    }

    /// Re-inserting the same workload in a shuffled order dispatches
    /// distinct `(time, id)` keys identically: the key sequence is a
    /// function of the event set, not of insertion order. (Within one
    /// `(time, id)` key FIFO follows insertion by design, so payload
    /// multisets per key must still agree.)
    #[test]
    fn pop_order_invariant_under_insertion_order(
        events in vec((0u64..40, 0usize..N_COMPONENTS, any::<u32>()), 1..120),
        seed in any::<u64>()
    ) {
        let mut shuffled = events.clone();
        SplitMix64::new(seed).shuffle(&mut shuffled);

        let original = deliver_all(&events);
        let permuted = deliver_all(&shuffled);

        // Same (time, id) dispatch sequence...
        let keys = |trace: &[Ev]| trace.iter().map(|&(t, id, _)| (t, id)).collect::<Vec<_>>();
        prop_assert_eq!(keys(&original), keys(&permuted));
        // ...and the same payloads once FIFO-within-a-key is factored out.
        let mut a = original;
        let mut b = permuted;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Traces are non-decreasing in `(time, id)` — the scheduler never
    /// goes back in time or backwards across component ids at one time.
    #[test]
    fn dispatch_keys_are_monotone(
        events in vec((0u64..40, 0usize..N_COMPONENTS, any::<u32>()), 0..120)
    ) {
        let trace = deliver_all(&events);
        for pair in trace.windows(2) {
            let (t0, id0, _) = pair[0];
            let (t1, id1, _) = pair[1];
            prop_assert!((t0, id0) <= (t1, id1));
        }
    }

    /// Self-rearming periodic components fire exactly their arithmetic
    /// schedule regardless of how many run concurrently.
    #[test]
    fn periodic_components_fire_their_schedule(
        specs in vec((1u64..20, 1u64..10, 0u32..8), 1..8)
    ) {
        struct Metronome {
            next: Time,
            period: Time,
            remaining: u32,
            fired: Vec<Time>,
        }
        impl Component for Metronome {
            type Msg = ();
            fn next_tick(&self) -> Time {
                if self.remaining == 0 { Time::MAX } else { self.next }
            }
            fn tick(&mut self, now: Time, _ctx: &mut Ctx<'_, ()>) {
                self.fired.push(now);
                self.remaining -= 1;
                self.next = now + self.period;
            }
            fn receive(&mut self, _now: Time, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
        }

        let mut sched = Scheduler::new();
        for &(start, period, count) in &specs {
            sched.add(Metronome {
                next: Time::from_ns(start),
                period: Time::from_ns(period),
                remaining: count,
                fired: Vec::new(),
            });
        }
        sched.run();
        let total: u32 = specs.iter().map(|&(_, _, c)| c).sum();
        prop_assert_eq!(sched.events_processed(), total as u64);
        for (component, &(start, period, count)) in sched.components().iter().zip(&specs) {
            let expected: Vec<Time> = (0..count as u64)
                .map(|k| Time::from_ns(start + k * period))
                .collect();
            prop_assert_eq!(&component.fired, &expected);
        }
    }
}

/// Earliest pending time of the queue model (pending `(time, payload)`
/// pairs, unsorted; the payload is the insertion index).
fn model_peek(model: &[(Time, u64)]) -> Option<Time> {
    model.iter().map(|&(t, _)| t).min()
}

/// Removes the model's `(time, insertion)` minimum by linear scan.
fn model_pop(model: &mut Vec<(Time, u64)>) -> Option<(Time, u64)> {
    let i = (0..model.len()).min_by_key(|&i| model[i])?;
    Some(model.swap_remove(i))
}

proptest! {
    #![proptest_config(ProptestConfig::ci())]

    /// `Histogram::merge` is exactly "record the union": merging the
    /// histogram of `b` into the histogram of `a` equals the histogram of
    /// `a ++ b` — same counts, same moments, and therefore the same value
    /// at every percentile.
    #[test]
    fn histogram_merge_is_record_union(
        a in vec(0u64..2_000_000, 0..60),
        b in vec(0u64..2_000_000, 0..60)
    ) {
        use tee_sim::Histogram;
        let record_all = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let mut merged = record_all(&a);
        merged.merge(&record_all(&b));
        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = record_all(&union);
        prop_assert_eq!(&merged, &direct);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.percentile(q), direct.percentile(q), "q = {}", q);
        }
    }

    /// [`EventQueue`] against a linear-scan model of `(time, insertion)`
    /// order, over random interleavings of `schedule` (zero delays
    /// included, so same-time ties are common), `pop` and
    /// `pop_batch_into`: every popped event and batch, and `now` and
    /// `peek_time` after every step, agree with the model.
    #[test]
    fn event_queue_matches_linear_scan_model(
        ops in vec((0u8..4, 0u64..6), 1..400)
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: Vec<(Time, u64)> = Vec::new();
        let mut model_now = Time::ZERO;
        let mut next = 0u64;
        let mut batch = Vec::new();
        for &(op, delay) in &ops {
            match op {
                // Schedule as often as both pops together, relative to
                // "now" so the workload never reaches into the past.
                0 | 1 => {
                    let at = model_now + Time::from_ns(delay);
                    q.schedule(at, next);
                    model.push((at, next));
                    next += 1;
                }
                2 => {
                    let want = model_pop(&mut model);
                    if let Some((t, _)) = want {
                        model_now = t;
                    }
                    prop_assert_eq!(q.pop(), want);
                }
                _ => {
                    let mut want = Vec::new();
                    if let Some(t) = model_peek(&model) {
                        while model_peek(&model) == Some(t) {
                            want.extend(model_pop(&mut model));
                        }
                        model_now = t;
                    }
                    q.pop_batch_into(&mut batch);
                    prop_assert_eq!(&batch, &want);
                }
            }
            prop_assert_eq!(q.now(), model_now);
            prop_assert_eq!(q.peek_time(), model_peek(&model));
        }
        while let Some(want) = model_pop(&mut model) {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }
}
