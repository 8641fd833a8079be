//! Shared-fabric contention for the discrete-event cluster engine.
//!
//! The analytic collective ([`crate::ring`]) assumes its hops have the
//! interconnect to themselves; under pipeline parallelism (or any
//! overlapping collectives) that stops being true — boundary activations,
//! ring chunks and weight broadcasts compete for the same links. A
//! [`FabricLink`] is the DES-side resource that makes that competition
//! explicit: occupancy requests serialize in arrival order, and the link
//! keeps ledgers of busy time and queueing (contention) time so reports
//! can show *where* fabric time went.
//!
//! Unlike [`tee_sim::BandwidthResource`] (which prices bytes), a
//! `FabricLink` arbitrates pre-priced durations: the caller prices a hop
//! with the exact protocol numbers (e.g. [`crate::ring::RingAllReduce::hops`])
//! and the link only decides *when* that duration gets the wire. Keeping
//! pricing and arbitration separate is what lets a contention-free DES
//! run reproduce the analytic fold bit-for-bit.

use serde::Serialize;
use tee_sim::probe::SharedProbe;
use tee_sim::Time;

/// Outcome of one [`FabricLink::occupy`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FabricGrant {
    /// When the transfer actually started (`>= at` requested).
    pub start: Time,
    /// When the transfer finishes and the fabric frees.
    pub end: Time,
    /// Time spent queued behind earlier occupants (`start − at`).
    pub queued: Time,
}

/// One direction of a shared interconnect, arbitrated in arrival order.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FabricLink {
    busy_until: Time,
    last_request: Time,
    contention: Time,
    occupied: Time,
    probe: SharedProbe,
}

impl FabricLink {
    /// A free fabric at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs an observability probe: each grant emits a `fabric_xfer`
    /// span on the `link` track covering `[start, end]`, plus grant and
    /// queued-time counters. Grants are facts the arbitration already
    /// decided, so recording them cannot change any outcome.
    pub fn set_probe(&mut self, probe: SharedProbe) {
        self.probe = probe;
    }

    /// Requests the fabric for `duration` starting no earlier than `at`;
    /// the transfer queues behind any current occupant.
    ///
    /// # Panics
    ///
    /// Panics if requests arrive out of time order (`at` decreasing) —
    /// the DES dispatches events in time order, so that is a caller bug.
    pub fn occupy(&mut self, at: Time, duration: Time) -> FabricGrant {
        assert!(
            at >= self.last_request,
            "fabric request at {at} is before an earlier request at {}",
            self.last_request
        );
        self.last_request = at;
        let start = at.max(self.busy_until);
        let queued = start.saturating_sub(at);
        let end = start + duration;
        self.busy_until = end;
        self.contention += queued;
        self.occupied += duration;
        if self.probe.enabled() {
            self.probe.span("link", "fabric_xfer", start, end);
            self.probe.count("link.grants", 1);
            if queued > Time::ZERO {
                self.probe.count("link.grant_queued_ps", queued.as_ps());
            }
        }
        FabricGrant { start, end, queued }
    }

    /// Total time requests spent queued behind earlier occupants.
    pub fn contention(&self) -> Time {
        self.contention
    }

    /// Total time the fabric spent transferring.
    pub fn occupied(&self) -> Time {
        self.occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaced_requests_never_queue() {
        let mut fabric = FabricLink::new();
        let a = fabric.occupy(Time::from_ns(0), Time::from_ns(10));
        let b = fabric.occupy(Time::from_ns(10), Time::from_ns(5));
        let c = fabric.occupy(Time::from_ns(100), Time::from_ns(5));
        assert_eq!((a.start, a.end), (Time::from_ns(0), Time::from_ns(10)));
        assert_eq!((b.start, b.end), (Time::from_ns(10), Time::from_ns(15)));
        assert_eq!((c.start, c.end), (Time::from_ns(100), Time::from_ns(105)));
        assert_eq!(fabric.contention(), Time::ZERO);
        assert_eq!(fabric.occupied(), Time::from_ns(20));
    }

    #[test]
    fn overlapping_requests_serialize_and_count_contention() {
        let mut fabric = FabricLink::new();
        fabric.occupy(Time::from_ns(0), Time::from_ns(100));
        let late = fabric.occupy(Time::from_ns(30), Time::from_ns(50));
        assert_eq!(late.start, Time::from_ns(100));
        assert_eq!(late.end, Time::from_ns(150));
        assert_eq!(late.queued, Time::from_ns(70));
        assert_eq!(fabric.contention(), Time::from_ns(70));
    }

    #[test]
    fn queue_builds_up_across_many_requests() {
        let mut fabric = FabricLink::new();
        let grants: Vec<FabricGrant> = (0..4)
            .map(|_| fabric.occupy(Time::ZERO, Time::from_ns(10)))
            .collect();
        // 0 + 10 + 20 + 30 queued respectively.
        assert_eq!(fabric.contention(), Time::from_ns(60));
        assert_eq!(grants[3].end, Time::from_ns(40));
    }

    #[test]
    fn probed_grants_emit_spans_without_changing_grants() {
        let run = |probe: Option<SharedProbe>| {
            let mut fabric = FabricLink::new();
            if let Some(p) = probe {
                fabric.set_probe(p);
            }
            let a = fabric.occupy(Time::ZERO, Time::from_ns(100));
            let b = fabric.occupy(Time::from_ns(30), Time::from_ns(50));
            (a, b, fabric.contention(), fabric.occupied())
        };
        let recorder = SharedProbe::recording();
        assert_eq!(run(None), run(Some(recorder.clone())));
        let snap = recorder.snapshot().expect("recording");
        assert_eq!(snap.metrics().get("link.grants"), 2);
        assert_eq!(
            snap.metrics().get("link.grant_queued_ps"),
            Time::from_ns(70).as_ps()
        );
        assert_eq!(snap.events().len(), 2);
        assert!(snap.events().iter().all(|e| e.track() == "link"));
    }

    #[test]
    #[should_panic(expected = "before an earlier request")]
    fn out_of_order_requests_rejected() {
        let mut fabric = FabricLink::new();
        fabric.occupy(Time::from_ns(10), Time::from_ns(1));
        fabric.occupy(Time::from_ns(5), Time::from_ns(1));
    }
}
