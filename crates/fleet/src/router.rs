//! The cluster router: placement policies, bounded-queue admission
//! control, and session-KV tracking with priced secure handoffs.

use crate::config::{FleetConfig, Policy};
use crate::report::FleetReport;
use crate::sim::Msg;
use std::collections::BTreeMap;
use tee_serve::{kv_transfer_time, Protocol, SessionRequest};
use tee_sim::des::Ctx;
use tee_sim::probe::SharedProbe;
use tee_sim::Time;

/// Per-instance bound on outstanding (queued + running) turns: when every
/// instance is at the bound, an arrival is rejected (admission control).
const QUEUE_BOUND: u32 = 64;

/// Per-migration secure-session-establishment cost (key exchange +
/// attestation round trips) the secure modes pay before any KV byte
/// moves. The non-secure mode pays nothing.
const SESSION_SETUP: Time = Time::from_us(50);

/// The router component (always component id 0).
#[derive(Debug)]
pub struct Router {
    policy: Policy,
    protocol: Protocol,
    kv_bytes_per_token: u64,
    /// Outstanding (dispatched, not yet completed) turns per instance
    /// (index = fleet index).
    outstanding: Vec<u32>,
    /// Round-robin cursor.
    rr_cursor: usize,
    /// Session → fleet index of the instance holding its KV, updated at
    /// dispatch.
    sessions: BTreeMap<u64, usize>,
    /// The router's share of the fleet report: completed and rejected
    /// turns, handoff accounting and `router_stats`.
    report: FleetReport,
    probe: SharedProbe,
}

impl Router {
    /// Creates the router for `cfg`. Instance component ids are fleet
    /// index + 1.
    pub fn new(cfg: &FleetConfig, kv_bytes_per_token: u64, protocol: Protocol) -> Self {
        Router {
            policy: cfg.policy,
            protocol,
            kv_bytes_per_token,
            outstanding: vec![0; cfg.n_instances],
            rr_cursor: 0,
            sessions: BTreeMap::new(),
            report: FleetReport::empty(),
            probe: SharedProbe::Null,
        }
    }

    /// Installs an observability probe: routing and migration decisions
    /// emit instants/spans; probes never change a decision.
    pub fn with_probe(mut self, probe: SharedProbe) -> Self {
        self.probe = probe;
        self
    }

    fn routable(&self, i: usize) -> bool {
        self.outstanding[i] < QUEUE_BOUND
    }

    /// Least-loaded routable instance (ties break to the lowest index).
    fn least_loaded(&self) -> Option<usize> {
        (0..self.outstanding.len())
            .filter(|&i| self.routable(i))
            .min_by_key(|&i| self.outstanding[i])
    }

    /// Applies the placement policy for `req`.
    fn place(&mut self, req: &SessionRequest) -> Option<usize> {
        match self.policy {
            Policy::RoundRobin => {
                let n = self.outstanding.len();
                for k in 0..n {
                    let i = (self.rr_cursor + k) % n;
                    if self.routable(i) {
                        self.rr_cursor = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            Policy::LeastLoaded => self.least_loaded(),
            Policy::KvAware => {
                if req.turn > 0 {
                    if let Some(&home) = self.sessions.get(&req.session) {
                        if self.routable(home) {
                            return Some(home);
                        }
                    }
                }
                self.least_loaded()
            }
        }
    }

    /// Routes one arrival: placement, migration pricing, dispatch.
    fn route(&mut self, now: Time, req: SessionRequest, ctx: &mut Ctx<'_, Msg>) {
        if self.probe.enabled() {
            // The frontend (host CPU) hands the turn to the router — the
            // same `CPU`-track arrival convention tee-serve uses.
            self.probe.instant("CPU", "arrival", now);
        }
        if req.turn > 0 {
            self.report.router_stats.bump("follow_up_turns");
        }
        let Some(dest) = self.place(&req) else {
            self.report.rejected_requests += 1;
            self.report.router_stats.bump("rejected");
            if self.probe.enabled() {
                self.probe.instant("router", "reject", now);
                self.probe.count("fleet.rejected", 1);
            }
            return;
        };
        let dest_id = dest + 1;
        let home = self.sessions.get(&req.session).copied();
        let needs_handoff = req.turn > 0 && req.context_tokens > 0 && home != Some(dest);
        if needs_handoff {
            // Per-migration price: secure session establishment (secure
            // modes only) + the KV bytes over the mode's protocol. The
            // turn cannot start until its KV lands, so the dispatch is
            // delayed by the full handoff; only the non-overlappable part
            // stalls the destination's compute.
            let bytes = req.context_tokens * self.kv_bytes_per_token;
            let setup = if self.protocol == Protocol::Plain {
                Time::ZERO
            } else {
                SESSION_SETUP
            };
            let transfer = kv_transfer_time(self.protocol, bytes);
            // An overlapping handoff hides entirely behind the delayed
            // dispatch: an unbounded window.
            let exposed = setup + self.protocol.exposed(Time::MAX, transfer);
            let r = &mut self.report;
            r.migrations += 1;
            r.migrated_bytes += bytes;
            r.handoff_transfer_time += transfer;
            r.handoff_setup_time += setup;
            r.handoff_exposed_time += exposed;
            if self.probe.enabled() {
                self.probe
                    .span("link", "kv_handoff", now, now + setup + transfer);
                self.probe.count("fleet.migrations", 1);
                self.probe.count("fleet.migrated_bytes", bytes);
            }
            if exposed > Time::ZERO {
                ctx.send(dest_id, Msg::Stall(exposed));
            }
            ctx.send_after(setup + transfer, dest_id, Msg::Dispatch(req));
        } else {
            if req.turn > 0 {
                self.report.router_stats.bump("local_turns");
            }
            ctx.send(dest_id, Msg::Dispatch(req));
        }
        if self.probe.enabled() {
            self.probe
                .instant("router", &format!("dispatch->NPU{dest}"), now);
            self.probe.count("fleet.dispatched", 1);
        }
        self.outstanding[dest] += 1;
        self.sessions.insert(req.session, dest);
    }

    /// The router's share of the fleet report so far.
    pub fn report(&self) -> &FleetReport {
        &self.report
    }

    /// Handles a message delivered at `now`: routes an arrival, or
    /// retires a turn an instance finished. The router never ticks; it
    /// acts only on messages.
    pub(crate) fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Arrive(req) => self.route(now, req, ctx),
            Msg::Done(instance) => {
                self.outstanding[instance] -= 1;
                self.report.completed_requests += 1;
            }
            other => unreachable!("router got an instance message: {other:?}"),
        }
    }
}
