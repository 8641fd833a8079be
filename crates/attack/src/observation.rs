//! The adversary's view of a probe recording.
//!
//! A link-level adversary sits on the CPU–NPU interconnect and sees
//! exactly two things about the protected traffic: **how big** each
//! ciphertext transfer is (wire occupancy) and **when** it happens.
//! It never sees plaintext, event labels, or anything recorded on the
//! compute-side tracks. [`Observation::from_trace`] derives that view
//! from a [`TraceProbe`] recording by keeping only the complete
//! intervals on the [`LINK_TRACK`] timeline — the probe vocabulary
//! every simulator in this workspace uses for wire transfers
//! (`kv_transfer` in tee-serve, `kv_handoff` in tee-fleet) — and
//! deliberately discarding their names.

use tee_sim::probe::{ProbeEvent, TraceProbe};
use tee_sim::Time;

/// The probe track that models the CPU–NPU interconnect.
pub const LINK_TRACK: &str = "link";

/// One wire transfer as the adversary sees it: a start instant and an
/// occupancy duration (the ciphertext-size proxy — bytes are not
/// directly visible, but occupancy at a known wire rate is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// When the transfer started.
    pub at: Time,
    /// How long the wire stayed busy.
    pub duration: Time,
}

/// An adversary's view of one run: the ordered wire transfers on the
/// CPU–NPU link, with sizes (as durations) and timings — nothing else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observation {
    events: Vec<LinkEvent>,
}

impl Observation {
    /// Derives the adversary's view from a recording: every complete
    /// [`ProbeEvent::Span`] on [`LINK_TRACK`], in emission order,
    /// stripped of its label. Instants and gauges on the link track
    /// are simulator bookkeeping, not wire occupancy, and are not
    /// visible to the adversary.
    pub fn from_trace(trace: &TraceProbe) -> Self {
        let events = trace
            .events()
            .iter()
            .filter(|e| e.track() == LINK_TRACK)
            .filter_map(|e| match e {
                ProbeEvent::Span { start, end, .. } => Some(LinkEvent {
                    at: *start,
                    duration: end.saturating_sub(*start),
                }),
                _ => None,
            })
            .collect();
        Observation { events }
    }

    /// Builds a view directly from `(start, duration)` pairs — for
    /// tests and synthetic traces.
    pub fn from_events(events: Vec<LinkEvent>) -> Self {
        Observation { events }
    }

    /// The observed transfers, in emission order.
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// The size feature per transfer: wire occupancy quantized to the
    /// adversary's measurement resolution (`ceil(duration / quantum)`).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn features(&self, quantum: Time) -> Vec<u64> {
        assert!(quantum > Time::ZERO, "measurement quantum must be positive");
        self.events
            .iter()
            .map(|e| e.duration.as_ps().div_ceil(quantum.as_ps()))
            .collect()
    }
}

/// Timestamps of every zero-width marker named `name` on `track`, via
/// the public accessors only. Artifact runners use this to correlate
/// an observation with ground truth (e.g. matching `kv_handoff` starts
/// to request arrivals); it is *not* part of the adversary's view.
pub fn instants_named(trace: &TraceProbe, track: &str, name: &str) -> Vec<Time> {
    trace
        .events()
        .iter()
        .filter(|e| e.track() == track && matches!(e, ProbeEvent::Instant { .. }))
        .filter(|e| e.name() == name)
        .map(|e| e.at())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded() -> TraceProbe {
        let mut p = TraceProbe::new();
        p.span("NPU", "decode", Time::from_us(0), Time::from_us(50));
        p.span("link", "kv_transfer", Time::from_us(10), Time::from_us(14));
        p.instant("CPU", "kv_fetch", Time::from_us(10));
        p.span("link", "kv_transfer", Time::from_us(60), Time::from_us(69));
        p.gauge("link", "wire", Time::from_us(70), 123);
        p.instant("CPU", "kv_fetch", Time::from_us(60));
        p
    }

    #[test]
    fn view_keeps_only_link_spans() {
        let obs = Observation::from_trace(&recorded());
        assert_eq!(obs.events().len(), 2);
        assert_eq!(obs.events()[0].at, Time::from_us(10));
        assert_eq!(obs.events()[0].duration, Time::from_us(4));
        assert_eq!(obs.events()[1].duration, Time::from_us(9));
    }

    #[test]
    fn features_quantize_durations_upward() {
        let obs = Observation::from_trace(&recorded());
        assert_eq!(obs.features(Time::from_us(2)), vec![2, 5]);
        assert_eq!(obs.features(Time::from_us(10)), vec![1, 1]);
    }

    #[test]
    fn instants_named_filters_track_and_label() {
        let trace = recorded();
        let fetches = instants_named(&trace, "CPU", "kv_fetch");
        assert_eq!(fetches, vec![Time::from_us(10), Time::from_us(60)]);
        assert!(instants_named(&trace, "CPU", "kv_evict").is_empty());
        assert!(instants_named(&trace, "link", "kv_fetch").is_empty());
    }
}
