//! Observability probes: zero-overhead-when-off span/counter hooks.
//!
//! The probe layer lets every simulator narrate what it is doing —
//! component ticks, message sends, phase spans, KV spills — without
//! perturbing the simulation. Probes **observe** [`Time`], they never
//! advance it: a run must produce byte-identical results with tracing
//! on and off (the differential test over the artifact registry pins
//! this).
//!
//! Two pieces:
//!
//! * [`TraceProbe`] — the recorder: a flat [`ProbeEvent`] log of the
//!   events simulators emit (spans — named intervals on a track —,
//!   zero-width instants and sampled gauges) plus a [`StatSet`] of
//!   monotonic counters.
//! * [`SharedProbe`] — the cloneable handle threaded through
//!   schedulers and run contexts. Its `Null` variant is a bare enum
//!   discriminant, so the off path costs one branch; the `Trace`
//!   variant wraps the recorder in `Arc<Mutex<..>>` so contexts that
//!   cross `std::thread::scope` boundaries (the explore executor)
//!   stay `Send + Sync`.
//!
//! Track names are free-form strings; the convention across the repo
//! is hardware-flavoured names (`NPU0`, `CPU`, `link`, `ring`,
//! `router`) so the Chrome/Perfetto export groups events the way the
//! paper's figures do.

use crate::clock::Time;
use crate::stats::StatSet;
use std::sync::{Arc, Mutex};

/// One recorded event in a [`TraceProbe`] log, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeEvent {
    /// Complete interval on a track.
    Span {
        /// Timeline name.
        track: String,
        /// Event label.
        name: String,
        /// Interval start.
        start: Time,
        /// Interval end (`>= start`).
        end: Time,
    },
    /// Zero-width marker.
    Instant {
        /// Timeline name.
        track: String,
        /// Event label.
        name: String,
        /// Marker timestamp.
        at: Time,
    },
    /// Sampled value series point.
    Gauge {
        /// Timeline name.
        track: String,
        /// Series label.
        name: String,
        /// Sample timestamp.
        at: Time,
        /// Sampled value.
        value: u64,
    },
}

impl ProbeEvent {
    /// The track the event lives on.
    pub fn track(&self) -> &str {
        match self {
            ProbeEvent::Span { track, .. }
            | ProbeEvent::Instant { track, .. }
            | ProbeEvent::Gauge { track, .. } => track,
        }
    }

    /// The event's (start) timestamp.
    pub fn at(&self) -> Time {
        match self {
            ProbeEvent::Span { start, .. } => *start,
            ProbeEvent::Instant { at, .. } | ProbeEvent::Gauge { at, .. } => *at,
        }
    }

    /// The event's label.
    pub fn name(&self) -> &str {
        match self {
            ProbeEvent::Span { name, .. }
            | ProbeEvent::Instant { name, .. }
            | ProbeEvent::Gauge { name, .. } => name,
        }
    }
}

/// The recording probe: a flat event log plus a counter registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceProbe {
    events: Vec<ProbeEvent>,
    metrics: StatSet,
}

impl TraceProbe {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceProbe::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// The accumulated counters.
    pub fn metrics(&self) -> &StatSet {
        &self.metrics
    }

    /// Records a complete interval `[start, end]` on `track`.
    pub fn span(&mut self, track: &str, name: &str, start: Time, end: Time) {
        debug_assert!(end >= start, "span ends before it starts");
        self.events.push(ProbeEvent::Span {
            track: track.to_owned(),
            name: name.to_owned(),
            start,
            end,
        });
    }

    /// Records a zero-width marker on `track`.
    pub fn instant(&mut self, track: &str, name: &str, at: Time) {
        self.events.push(ProbeEvent::Instant {
            track: track.to_owned(),
            name: name.to_owned(),
            at,
        });
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn count(&mut self, name: &str, delta: u64) {
        self.metrics.add(name, delta);
    }

    /// Records `value` for series `name` on `track` at `at`.
    pub fn gauge(&mut self, track: &str, name: &str, at: Time, value: u64) {
        self.events.push(ProbeEvent::Gauge {
            track: track.to_owned(),
            name: name.to_owned(),
            at,
            value,
        });
    }
}

/// Cloneable probe handle threaded through schedulers and contexts.
///
/// `Null` (the default) is a bare discriminant: every emission site
/// checks [`SharedProbe::enabled`] first, so an untraced run pays one
/// predictable branch per site and allocates nothing. `Trace` shares
/// one [`TraceProbe`] behind `Arc<Mutex<..>>` — the handle must be
/// `Send + Sync` because run contexts cross `std::thread::scope`
/// boundaries in the explore executor (traced simulations themselves
/// are single-threaded, so the lock is uncontended).
#[derive(Debug, Clone, Default)]
pub enum SharedProbe {
    /// Record nothing (the default).
    #[default]
    Null,
    /// Record into a shared [`TraceProbe`].
    Trace(Arc<Mutex<TraceProbe>>),
}

impl SharedProbe {
    /// A fresh recording handle.
    pub fn recording() -> Self {
        SharedProbe::Trace(Arc::new(Mutex::new(TraceProbe::new())))
    }

    /// Whether emissions will be recorded. Check this before doing any
    /// event-construction work (formatting track names, etc.).
    pub fn enabled(&self) -> bool {
        matches!(self, SharedProbe::Trace(_))
    }

    fn with<R>(&self, f: impl FnOnce(&mut TraceProbe) -> R) -> Option<R> {
        match self {
            SharedProbe::Null => None,
            SharedProbe::Trace(p) => Some(f(&mut p.lock().expect("probe lock poisoned"))),
        }
    }

    /// See [`TraceProbe::span`].
    pub fn span(&self, track: &str, name: &str, start: Time, end: Time) {
        self.with(|p| p.span(track, name, start, end));
    }

    /// See [`TraceProbe::instant`].
    pub fn instant(&self, track: &str, name: &str, at: Time) {
        self.with(|p| p.instant(track, name, at));
    }

    /// See [`TraceProbe::count`].
    pub fn count(&self, name: &str, delta: u64) {
        self.with(|p| p.count(name, delta));
    }

    /// See [`TraceProbe::gauge`].
    pub fn gauge(&self, track: &str, name: &str, at: Time, value: u64) {
        self.with(|p| p.gauge(track, name, at, value));
    }

    /// A clone of the recorded trace (`None` for [`SharedProbe::Null`]).
    pub fn snapshot(&self) -> Option<TraceProbe> {
        self.with(|p| p.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled_and_silent() {
        let shared = SharedProbe::default();
        assert!(!shared.enabled());
        shared.span("t", "a", Time::ZERO, Time::from_ns(1));
        shared.count("c", 3);
        assert!(shared.snapshot().is_none());
    }

    #[test]
    fn trace_probe_records_in_emission_order() {
        let mut p = TraceProbe::new();
        p.span("NPU0", "tick", Time::from_ns(1), Time::from_ns(2));
        p.instant("link", "send", Time::from_ns(1));
        p.count("events", 2);
        p.count("events", 3);
        p.gauge("CPU", "queue", Time::from_ns(4), 7);
        assert_eq!(p.events().len(), 3);
        assert_eq!(p.events()[0].track(), "NPU0");
        assert_eq!(p.events()[1].at(), Time::from_ns(1));
        assert_eq!(p.metrics().get("events"), 5);
        assert_eq!(p.metrics().get("missing"), 0);
    }

    #[test]
    fn shared_probe_clones_share_one_recorder() {
        let a = SharedProbe::recording();
        let b = a.clone();
        a.instant("router", "dispatch", Time::ZERO);
        b.count("fleet.migrations", 1);
        let snap = a.snapshot().expect("recording");
        assert_eq!(snap.events().len(), 1);
        assert_eq!(snap.metrics().get("fleet.migrations"), 1);
    }

    #[test]
    fn event_accessors_expose_track_name_and_time() {
        let mut p = TraceProbe::new();
        p.span("link", "kv_transfer", Time::from_ns(1), Time::from_ns(2));
        p.instant("CPU", "kv_fetch", Time::from_ns(5));
        p.gauge("link", "wire", Time::from_ns(6), 9);
        let names: Vec<&str> = p.events().iter().map(ProbeEvent::name).collect();
        assert_eq!(names, vec!["kv_transfer", "kv_fetch", "wire"]);
    }
}
