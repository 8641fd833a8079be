//! A deterministic component/scheduler discrete-event simulation core.
//!
//! [`EventQueue`] is a raw timestamped queue; this module layers the
//! component architecture the cluster simulators are built on (the
//! `next_tick`/`tick` pattern of SNIPPETS.md #2): a [`Component`] exposes
//! the next simulated time it wants to run ([`Component::next_tick`]) and
//! reacts to wake-ups ([`Component::tick`]) and messages from other
//! components ([`Component::receive`]); a [`Scheduler`] drives all
//! components from one min-heap, the [`EventQueue`], in
//! `(time, component_id)` order.
//!
//! Determinism rules (what makes same-seed runs byte-identical):
//!
//! * events at the same timestamp are dispatched in ascending
//!   [`ComponentId`] order, and FIFO within one component,
//! * a component's reaction may schedule more work at the *same*
//!   timestamp (a delta cycle); the scheduler drains those sub-rounds
//!   before advancing time,
//! * a `tick` must move the component's `next_tick` strictly past `now`
//!   (or to [`Time::MAX`] = idle) — enforced by assertion, so livelocks
//!   are simulator bugs, not hangs.
//!
//! # Example
//!
//! ```
//! use tee_sim::des::{Component, Ctx, Scheduler};
//! use tee_sim::Time;
//!
//! /// Forwards each received number to a neighbour 10 ns later.
//! struct Relay {
//!     next: Option<usize>,
//!     seen: Vec<u64>,
//! }
//!
//! impl Component for Relay {
//!     type Msg = u64;
//!     fn receive(&mut self, _now: Time, msg: u64, ctx: &mut Ctx<'_, u64>) {
//!         self.seen.push(msg);
//!         if let Some(next) = self.next {
//!             ctx.send_after(Time::from_ns(10), next, msg + 1);
//!         }
//!     }
//! }
//!
//! let mut sched = Scheduler::new();
//! let b = 1; // id the first relay will forward to
//! sched.add(Relay { next: Some(b), seen: vec![] });
//! sched.add(Relay { next: None, seen: vec![] });
//! sched.send_at(Time::ZERO, 0, 7);
//! let end = sched.run();
//! assert_eq!(end, Time::from_ns(10));
//! assert_eq!(sched.components()[b].seen, vec![8]);
//! ```

use crate::clock::Time;
use crate::event::EventQueue;
use crate::probe::SharedProbe;

/// Index of a component inside its [`Scheduler`] (assigned by
/// [`Scheduler::add`], dense from zero). The id doubles as the
/// deterministic tie-break for same-time events.
pub type ComponentId = usize;

/// Sub-rounds allowed at one timestamp before the scheduler declares a
/// same-time livelock (components endlessly messaging without advancing
/// simulated time).
const MAX_DELTA_ROUNDS: usize = 1 << 16;

/// A simulated hardware unit driven by a [`Scheduler`].
///
/// Components are passive between events: they publish the next time they
/// want to run via [`next_tick`](Self::next_tick) and otherwise only react
/// to [`tick`](Self::tick) wake-ups and [`receive`](Self::receive)d
/// messages, scheduling follow-up work through the [`Ctx`].
pub trait Component {
    /// Message type exchanged between components of one scheduler.
    type Msg;

    /// The next absolute time this component wants [`tick`](Self::tick)
    /// to run, or [`Time::MAX`] if it is idle until a message arrives.
    ///
    /// The scheduler re-reads this after every `tick`/`receive`, so a
    /// component re-arms itself simply by returning a new time.
    fn next_tick(&self) -> Time {
        Time::MAX
    }

    /// Runs the component at `now` (== the `next_tick` it advertised).
    /// Afterwards `next_tick` must be strictly greater than `now`.
    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = (now, ctx);
    }

    /// Delivers a message sent to this component at time `now`.
    fn receive(&mut self, now: Time, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Human-readable track name for trace output (e.g. `"NPU0"`).
    /// Components that return the default empty string are traced under
    /// the generic `c<id>` track. Only called when a probe is recording.
    fn label(&self) -> String {
        String::new()
    }
}

/// The scheduler-side context handed to a running component: the current
/// time, the component's own id, and an outbox for messages to other
/// components (drained into the event heap when the call returns).
#[derive(Debug)]
pub struct Ctx<'a, M> {
    now: Time,
    self_id: ComponentId,
    outbox: &'a mut Vec<(Time, ComponentId, M)>,
}

impl<M> Ctx<'_, M> {
    /// Id of the component being run.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Sends `msg` to component `to` at the current timestamp (delivered
    /// in a later sub-round of the same delta cycle).
    pub fn send(&mut self, to: ComponentId, msg: M) {
        self.send_at(self.now, to, msg);
    }

    /// Sends `msg` to component `to` after `delay`.
    pub fn send_after(&mut self, delay: Time, to: ComponentId, msg: M) {
        self.send_at(self.now + delay, to, msg);
    }

    /// Sends `msg` to component `to` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn send_at(&mut self, at: Time, to: ComponentId, msg: M) {
        assert!(
            at >= self.now,
            "component {} sent a message into the past ({at} < {})",
            self.self_id,
            self.now
        );
        self.outbox.push((at, to, msg));
    }
}

/// Heap payload: either a timer wake-up for a component or a message
/// delivery. Wake-ups can go stale (the component moved its `next_tick`
/// after the wake was enqueued); stale wakes are skipped on pop.
#[derive(Debug)]
enum Event<M> {
    Wake(ComponentId),
    Deliver(ComponentId, M),
}

impl<M> Event<M> {
    fn target(&self) -> ComponentId {
        match self {
            Event::Wake(id) | Event::Deliver(id, _) => *id,
        }
    }
}

/// Drives a set of [`Component`]s from one deterministic min-heap keyed
/// `(time, component_id)`, layered over [`EventQueue`].
///
/// `C` is typically an enum over the concrete component kinds of one
/// simulation, which keeps the scheduler object-safe-free and lets the
/// caller read final component state back out with [`components`]
/// (no downcasting).
///
/// [`components`]: Self::components
#[derive(Debug)]
pub struct Scheduler<C: Component> {
    components: Vec<C>,
    queue: EventQueue<Event<C::Msg>>,
    /// Earliest pending `Wake` per component (`Time::MAX` = none). Lets
    /// the scheduler avoid flooding the heap when `next_tick` is stable,
    /// while still tolerating stale entries.
    armed: Vec<Time>,
    /// Ticks + deliveries dispatched so far (skipped stale wakes do not
    /// count).
    events_processed: u64,
    /// Reused outbox buffer for [`Ctx`].
    outbox: Vec<(Time, ComponentId, C::Msg)>,
    /// Reused delta-cycle batch buffer, so draining a timestamp does not
    /// allocate per sub-round on the scheduler hot path.
    batch: Vec<(Time, Event<C::Msg>)>,
    /// Observability sink: tick spans, delivery/send instants, event
    /// counters. [`SharedProbe::Null`] by default, so the hot path pays
    /// one branch per dispatch. Probes only observe timestamps — they
    /// cannot change the schedule.
    probe: SharedProbe,
}

impl<C: Component> Default for Scheduler<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Component> Scheduler<C> {
    /// Creates an empty scheduler positioned at time zero.
    pub fn new() -> Self {
        Scheduler {
            components: Vec::new(),
            queue: EventQueue::new(),
            armed: Vec::new(),
            events_processed: 0,
            outbox: Vec::new(),
            batch: Vec::new(),
            probe: SharedProbe::Null,
        }
    }

    /// Installs an observability probe. Dispatches emit a zero-width
    /// `tick` span per component tick, a `recv` instant per delivery,
    /// and a `send` instant per outgoing message, all on the sending or
    /// receiving component's [`Component::label`] track.
    pub fn set_probe(&mut self, probe: SharedProbe) {
        self.probe = probe;
    }

    /// Track name for `id`: the component's label, or `c<id>`.
    fn track(&self, id: ComponentId) -> String {
        let label = self.components[id].label();
        if label.is_empty() {
            format!("c{id}")
        } else {
            label
        }
    }

    /// Registers a component and returns its id (dense, in registration
    /// order). If the component already advertises a `next_tick`, a wake
    /// is armed for it.
    pub fn add(&mut self, component: C) -> ComponentId {
        let id = self.components.len();
        let first = component.next_tick();
        self.components.push(component);
        self.armed.push(Time::MAX);
        if first != Time::MAX {
            self.queue.schedule(first, Event::Wake(id));
            self.armed[id] = first;
        }
        id
    }

    /// All components, in id order.
    pub fn components(&self) -> &[C] {
        &self.components
    }

    /// Injects a message from outside the simulation: the initial
    /// stimulus, or, between [`run_until`](Self::run_until) calls, input
    /// fed in as the run reaches it. The probe records no `send` for it.
    /// Panics if `to` is not a registered component or `at` is in the
    /// past.
    pub fn send_at(&mut self, at: Time, to: ComponentId, msg: C::Msg) {
        assert!(to < self.components.len(), "unknown component {to}");
        self.queue.schedule(at, Event::Deliver(to, msg));
    }

    /// Ticks and deliveries dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs until no events are pending; returns the final time.
    pub fn run(&mut self) -> Time {
        self.run_until(Time::MAX)
    }

    /// Runs while the next event is at or before `limit`; returns the
    /// time of the last dispatched event.
    pub fn run_until(&mut self, limit: Time) -> Time {
        while let Some(t) = self.queue.peek_time() {
            if t > limit {
                break;
            }
            self.delta_cycle(t);
        }
        self.queue.now()
    }

    /// Drains every event at timestamp `t`, including follow-up work
    /// components schedule at `t` while reacting (sub-rounds), in
    /// `(time, component_id)` order.
    fn delta_cycle(&mut self, t: Time) {
        let mut rounds = 0usize;
        while self.queue.peek_time() == Some(t) {
            rounds += 1;
            assert!(
                rounds <= MAX_DELTA_ROUNDS,
                "same-time livelock: {MAX_DELTA_ROUNDS} sub-rounds at {t}"
            );
            let mut batch = std::mem::take(&mut self.batch);
            self.queue.pop_batch_into(&mut batch);
            // The queue pops FIFO within a timestamp; a stable sort by
            // target id turns that into the deterministic
            // `(time, component_id)` dispatch order, FIFO per component.
            batch.sort_by_key(|(_, event)| event.target());
            for (_, event) in batch.drain(..) {
                self.dispatch(t, event);
            }
            self.batch = batch;
        }
    }

    fn dispatch(&mut self, t: Time, event: Event<C::Msg>) {
        let id = event.target();
        match event {
            Event::Deliver(_, msg) => {
                self.events_processed += 1;
                if self.probe.enabled() {
                    self.probe.instant(&self.track(id), "recv", t);
                    self.probe.count("des.deliveries", 1);
                }
                let mut outbox = std::mem::take(&mut self.outbox);
                let mut ctx = Ctx {
                    now: t,
                    self_id: id,
                    outbox: &mut outbox,
                };
                self.components[id].receive(t, msg, &mut ctx);
                self.flush(id, t, outbox);
            }
            Event::Wake(_) => {
                if self.armed[id] == t {
                    self.armed[id] = Time::MAX;
                }
                // A wake is stale if the component no longer wants to run
                // at `t` (its `next_tick` moved after this entry was
                // enqueued); skip the tick but still fall through to
                // `rearm` so the moved tick gets a fresh wake.
                if self.components[id].next_tick() == t {
                    self.events_processed += 1;
                    if self.probe.enabled() {
                        self.probe.span(&self.track(id), "tick", t, t);
                        self.probe.count("des.ticks", 1);
                    }
                    let mut outbox = std::mem::take(&mut self.outbox);
                    let mut ctx = Ctx {
                        now: t,
                        self_id: id,
                        outbox: &mut outbox,
                    };
                    self.components[id].tick(t, &mut ctx);
                    let after = self.components[id].next_tick();
                    assert!(
                        after > t,
                        "component {id} ticked at {t} without advancing next_tick (still {after})"
                    );
                    self.flush(id, t, outbox);
                }
            }
        }
        self.rearm(id, t);
    }

    /// Moves a drained outbox into the heap and stores the buffer back.
    /// `from`/`t` identify the sender and send time for the probe.
    fn flush(&mut self, from: ComponentId, t: Time, mut outbox: Vec<(Time, ComponentId, C::Msg)>) {
        let traced = self.probe.enabled();
        for (at, to, msg) in outbox.drain(..) {
            assert!(
                to < self.components.len(),
                "message to unknown component {to}"
            );
            if traced {
                self.probe
                    .instant(&self.track(from), &format!("send->{}", self.track(to)), t);
                self.probe.count("des.sends", 1);
            }
            self.queue.schedule(at, Event::Deliver(to, msg));
        }
        self.outbox = outbox;
    }

    /// Arms a wake for `id`'s current `next_tick` if none at least as
    /// early is already pending. (A later pending wake simply goes stale.)
    fn rearm(&mut self, id: ComponentId, t: Time) {
        let next = self.components[id].next_tick();
        if next != Time::MAX && next < self.armed[id] {
            assert!(
                next >= t,
                "component {id} armed next_tick {next} in the past of {t}"
            );
            self.queue.schedule(next, Event::Wake(id));
            self.armed[id] = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every (time, payload) it sees; optionally relays.
    struct Probe {
        relay_to: Option<ComponentId>,
        relay_delay: Time,
        log: Vec<(Time, u32)>,
    }

    impl Probe {
        fn sink() -> Self {
            Probe {
                relay_to: None,
                relay_delay: Time::ZERO,
                log: Vec::new(),
            }
        }
    }

    impl Component for Probe {
        type Msg = u32;
        fn receive(&mut self, now: Time, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.log.push((now, msg));
            if let Some(to) = self.relay_to {
                ctx.send_after(self.relay_delay, to, msg + 1);
            }
        }
    }

    #[test]
    fn same_time_dispatch_is_component_id_order() {
        let mut sched = Scheduler::new();
        for _ in 0..4 {
            sched.add(Probe::sink());
        }
        // Insert in descending-id order; delivery must be ascending.
        for id in (0..4).rev() {
            sched.send_at(Time::from_ns(5), id, id as u32);
        }
        let mut order = Vec::new();
        sched.run();
        for id in 0..4 {
            for &(t, msg) in &sched.components()[id].log {
                assert_eq!(t, Time::from_ns(5));
                order.push(msg);
            }
        }
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(sched.events_processed(), 4);
    }

    #[test]
    fn fifo_within_one_component() {
        let mut sched = Scheduler::new();
        let id = sched.add(Probe::sink());
        for i in 0..10 {
            sched.send_at(Time::from_ns(1), id, i);
        }
        sched.run();
        let msgs: Vec<u32> = sched.components()[id].log.iter().map(|&(_, m)| m).collect();
        assert_eq!(msgs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_time_cascade_runs_in_sub_rounds() {
        let mut sched = Scheduler::new();
        // 0 relays to 1 with zero delay: both fire at the same timestamp.
        let b = 1;
        sched.add(Probe {
            relay_to: Some(b),
            relay_delay: Time::ZERO,
            log: Vec::new(),
        });
        sched.add(Probe::sink());
        sched.send_at(Time::from_ns(3), 0, 9);
        let end = sched.run();
        assert_eq!(end, Time::from_ns(3));
        assert_eq!(sched.components()[b].log, vec![(Time::from_ns(3), 10)]);
    }

    /// Ticks `period`-ically `remaining` times, recording tick times.
    struct Metronome {
        next: Time,
        period: Time,
        remaining: u32,
        fired: Vec<Time>,
    }

    impl Component for Metronome {
        type Msg = u32;
        fn next_tick(&self) -> Time {
            if self.remaining == 0 {
                Time::MAX
            } else {
                self.next
            }
        }
        fn tick(&mut self, now: Time, _ctx: &mut Ctx<'_, u32>) {
            self.fired.push(now);
            self.remaining -= 1;
            self.next = now + self.period;
        }
        fn receive(&mut self, _now: Time, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}
    }

    #[test]
    fn periodic_ticks_self_rearm() {
        let mut sched = Scheduler::new();
        let id = sched.add(Metronome {
            next: Time::from_ns(2),
            period: Time::from_ns(5),
            remaining: 3,
            fired: Vec::new(),
        });
        let end = sched.run();
        assert_eq!(
            sched.components()[id].fired,
            vec![Time::from_ns(2), Time::from_ns(7), Time::from_ns(12)]
        );
        assert_eq!(end, Time::from_ns(12));
        assert_eq!(sched.events_processed(), 3);
    }

    /// Arms a tick, then moves it later when poked — leaving the original
    /// wake entry stale in the heap.
    struct Procrastinator {
        next: Time,
        ticked: Vec<Time>,
    }

    impl Component for Procrastinator {
        type Msg = u32;
        fn next_tick(&self) -> Time {
            self.next
        }
        fn tick(&mut self, now: Time, _ctx: &mut Ctx<'_, u32>) {
            self.ticked.push(now);
            self.next = Time::MAX;
        }
        fn receive(&mut self, now: Time, delay_ns: u32, _ctx: &mut Ctx<'_, u32>) {
            self.next = now + Time::from_ns(delay_ns as u64);
        }
    }

    #[test]
    fn stale_wakes_are_skipped() {
        let mut sched = Scheduler::new();
        let id = sched.add(Procrastinator {
            next: Time::from_ns(10),
            ticked: Vec::new(),
        });
        // At t=1 the component postpones to t=21; the t=10 wake goes stale.
        sched.send_at(Time::from_ns(1), id, 20);
        sched.run();
        assert_eq!(sched.components()[id].ticked, vec![Time::from_ns(21)]);
        // 1 delivery + 1 real tick; the stale wake is not an event.
        assert_eq!(sched.events_processed(), 2);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut sched = Scheduler::new();
        let id = sched.add(Metronome {
            next: Time::from_ns(10),
            period: Time::from_ns(10),
            remaining: 5,
            fired: Vec::new(),
        });
        sched.run_until(Time::from_ns(25));
        assert_eq!(sched.components()[id].fired.len(), 2);
        sched.run();
        assert_eq!(sched.components()[id].fired.len(), 5);
    }

    #[test]
    #[should_panic(expected = "without advancing")]
    fn tick_must_advance() {
        struct Stuck;
        impl Component for Stuck {
            type Msg = ();
            fn next_tick(&self) -> Time {
                Time::from_ns(1)
            }
            fn tick(&mut self, _now: Time, _ctx: &mut Ctx<'_, ()>) {}
            fn receive(&mut self, _now: Time, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
        }
        Scheduler::new().add(Stuck);
        let mut sched = Scheduler::new();
        sched.add(Stuck);
        sched.run();
    }

    #[test]
    #[should_panic(expected = "unknown component")]
    fn message_to_unknown_component_panics() {
        let mut sched: Scheduler<Probe> = Scheduler::new();
        sched.add(Probe::sink());
        sched.send_at(Time::ZERO, 7, 0);
    }

    #[test]
    fn probe_records_ticks_and_sends_without_perturbing() {
        let build = |probe: Option<SharedProbe>| {
            let mut sched = Scheduler::new();
            for i in 0..3 {
                sched.add(Probe {
                    relay_to: Some((i + 1) % 3),
                    relay_delay: Time::from_ns(7),
                    log: Vec::new(),
                });
            }
            if let Some(p) = probe {
                sched.set_probe(p);
            }
            sched.send_at(Time::from_ns(2), 1, 100);
            sched.run_until(Time::from_ns(100));
            (
                sched.events_processed(),
                sched
                    .components()
                    .iter()
                    .map(|p| p.log.clone())
                    .collect::<Vec<_>>(),
            )
        };
        let recorder = SharedProbe::recording();
        let traced = build(Some(recorder.clone()));
        let untraced = build(None);
        assert_eq!(traced, untraced, "tracing must not perturb the schedule");
        let snap = recorder.snapshot().expect("recording probe");
        assert!(!snap.events().is_empty());
        assert_eq!(snap.metrics().get("des.deliveries"), traced.0);
        assert!(snap.metrics().get("des.sends") > 0);
        // Default labels fall back to c<id> tracks.
        assert!(snap.events().iter().any(|e| e.track() == "c1"));
    }

    #[test]
    fn two_identical_builds_produce_identical_traces() {
        let build = || {
            let mut sched = Scheduler::new();
            for i in 0..3 {
                sched.add(Probe {
                    relay_to: Some((i + 1) % 3),
                    relay_delay: Time::from_ns(7),
                    log: Vec::new(),
                });
            }
            sched.send_at(Time::from_ns(2), 1, 100);
            sched.run_until(Time::from_ns(100));
            sched
                .components()
                .iter()
                .map(|p| p.log.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
