//! The cluster router: placement policies, bounded-queue admission
//! control, KV-location tracking with priced secure handoffs, and the
//! threshold autoscaling control loop.

use crate::config::{AutoscaleConfig, FleetConfig, Policy};
use crate::sim::Msg;
use std::collections::BTreeMap;
use tee_serve::{kv_transfer_time, Protocol, SessionRequest};
use tee_sim::des::{Component, Ctx};
use tee_sim::probe::SharedProbe;
use tee_sim::{StatSet, Time};

/// Lifecycle of one instance as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    /// Routable.
    Active,
    /// Scaling up: cold start in progress, not yet routable.
    Warming,
    /// Scaling down: finishes outstanding work, receives nothing new.
    Draining,
    /// Off; session KV it held has been evicted to CPU DRAM.
    Parked,
}

/// Where a session's KV cache currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KvLoc {
    /// Resident in instance `i`'s HBM.
    On(usize),
    /// Evicted to CPU DRAM when its instance parked; the next turn pays
    /// the same protocol to fetch it back.
    Evicted,
}

/// The router component (always component id 0).
#[derive(Debug)]
pub struct Router {
    policy: Policy,
    queue_bound: usize,
    min_active: usize,
    autoscale: Option<AutoscaleConfig>,
    session_setup: Time,
    protocol: Protocol,
    kv_bytes_per_token: u64,
    /// Per-instance lifecycle state (index = fleet index).
    state: Vec<InstState>,
    /// Outstanding (dispatched, not yet completed) turns per instance.
    outstanding: Vec<u32>,
    /// Round-robin cursor.
    rr_cursor: usize,
    /// Session → KV location, updated at dispatch and on park.
    sessions: BTreeMap<u64, KvLoc>,
    /// Arrivals the run will see (for terminating the control loop).
    expected: u32,
    completed: u32,
    rejected: u32,
    /// Next autoscale sample, `Time::MAX` when disabled/finished.
    scale_wake: Time,
    // Handoff accounting.
    migrations: u64,
    migrated_bytes: u64,
    handoff_transfer: Time,
    handoff_setup: Time,
    handoff_exposed: Time,
    stats: StatSet,
    probe: SharedProbe,
}

impl Router {
    /// Creates the router for `cfg` with `expected` arrivals incoming.
    /// Instance component ids are fleet index + 1.
    pub fn new(
        cfg: &FleetConfig,
        kv_bytes_per_token: u64,
        protocol: Protocol,
        expected: u32,
    ) -> Self {
        let n = cfg.n_instances;
        let start_active = cfg.min_active.min(n).max(1);
        let mut state = vec![InstState::Parked; n];
        for s in state.iter_mut().take(start_active) {
            *s = InstState::Active;
        }
        let scale_wake = match (&cfg.autoscale, expected) {
            (Some(a), e) if e > 0 => a.interval,
            _ => Time::MAX,
        };
        Router {
            policy: cfg.policy,
            queue_bound: cfg.queue_bound,
            min_active: cfg.min_active.min(n).max(1),
            autoscale: cfg.autoscale,
            session_setup: cfg.session_setup,
            protocol,
            kv_bytes_per_token,
            state,
            outstanding: vec![0; n],
            rr_cursor: 0,
            sessions: BTreeMap::new(),
            expected,
            completed: 0,
            rejected: 0,
            scale_wake,
            migrations: 0,
            migrated_bytes: 0,
            handoff_transfer: Time::ZERO,
            handoff_setup: Time::ZERO,
            handoff_exposed: Time::ZERO,
            stats: StatSet::new("router"),
            probe: SharedProbe::Null,
        }
    }

    /// Installs an observability probe: routing, migration, eviction and
    /// autoscale decisions emit instants/spans; probes never change a
    /// decision.
    pub fn with_probe(mut self, probe: SharedProbe) -> Self {
        self.probe = probe;
        self
    }

    fn routable(&self, i: usize) -> bool {
        self.state[i] == InstState::Active && (self.outstanding[i] as usize) < self.queue_bound
    }

    /// Least-loaded routable instance (ties break to the lowest index).
    fn least_loaded(&self) -> Option<usize> {
        (0..self.state.len())
            .filter(|&i| self.routable(i))
            .min_by_key(|&i| self.outstanding[i])
    }

    /// Applies the placement policy for `req`.
    fn place(&mut self, req: &SessionRequest) -> Option<usize> {
        match self.policy {
            Policy::RoundRobin => {
                let n = self.state.len();
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
                    if let Some(KvLoc::On(home)) = self.sessions.get(&req.session) {
                        if self.routable(*home) {
                            return Some(*home);
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
            self.stats.bump("follow_up_turns");
        }
        let Some(dest) = self.place(&req) else {
            self.rejected += 1;
            self.stats.bump("rejected");
            if self.probe.enabled() {
                self.probe.instant("router", "reject", now);
                self.probe.count("fleet.rejected", 1);
            }
            return;
        };
        let dest_id = dest + 1;
        let home = self.sessions.get(&req.session).copied();
        let needs_handoff = req.turn > 0 && req.context_tokens > 0 && home != Some(KvLoc::On(dest));
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
                self.session_setup
            };
            let transfer = kv_transfer_time(self.protocol, bytes);
            let exposed = if self.protocol.overlaps_compute() {
                setup
            } else {
                setup + transfer
            };
            self.migrations += 1;
            self.migrated_bytes += bytes;
            self.handoff_transfer += transfer;
            self.handoff_setup += setup;
            self.handoff_exposed += exposed;
            if self.probe.enabled() {
                self.probe
                    .span("link", "kv_handoff", now, now + setup + transfer);
                if home == Some(KvLoc::Evicted) {
                    self.probe.instant("CPU", "kv_fetch", now);
                }
                self.probe.count("fleet.migrations", 1);
                self.probe.count("fleet.migrated_bytes", bytes);
            }
            if exposed > Time::ZERO {
                ctx.send(dest_id, Msg::Stall(exposed));
            }
            ctx.send_after(setup + transfer, dest_id, Msg::Dispatch(req));
        } else {
            if req.turn > 0 {
                self.stats.bump("local_turns");
            }
            ctx.send(dest_id, Msg::Dispatch(req));
        }
        if self.probe.enabled() {
            self.probe
                .instant("router", &format!("dispatch->NPU{dest}"), now);
            self.probe.count("fleet.dispatched", 1);
        }
        self.outstanding[dest] += 1;
        self.sessions.insert(req.session, KvLoc::On(dest));
    }

    /// Parks a drained instance, evicting its resident session KV.
    fn park(&mut self, now: Time, i: usize) {
        self.state[i] = InstState::Parked;
        self.stats.bump("parks");
        let mut evicted = 0u64;
        for loc in self.sessions.values_mut() {
            if *loc == KvLoc::On(i) {
                *loc = KvLoc::Evicted;
                evicted += 1;
            }
        }
        if self.probe.enabled() {
            self.probe.instant("router", &format!("park NPU{i}"), now);
            if evicted > 0 {
                self.probe.instant("CPU", "kv_evict", now);
                self.probe.count("fleet.kv_evictions", evicted);
            }
        }
    }

    fn finished(&self) -> bool {
        self.completed + self.rejected >= self.expected
    }

    /// One autoscale sample: compare mean outstanding per active
    /// instance against the thresholds.
    fn autoscale_sample(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        let Some(scale) = self.autoscale else { return };
        let active: Vec<usize> = (0..self.state.len())
            .filter(|&i| self.state[i] == InstState::Active)
            .collect();
        if active.is_empty() {
            return;
        }
        let total: u32 = active.iter().map(|&i| self.outstanding[i]).sum();
        let mean = f64::from(total) / active.len() as f64;
        if mean > scale.high_outstanding {
            if let Some(parked) =
                (0..self.state.len()).find(|&i| self.state[i] == InstState::Parked)
            {
                self.state[parked] = InstState::Warming;
                self.stats.bump("scale_up");
                if self.probe.enabled() {
                    self.probe
                        .instant("router", &format!("scale_up NPU{parked}"), now);
                    self.probe.count("fleet.scale_ups", 1);
                }
                ctx.send_after(scale.cold_start, ctx.self_id(), Msg::Warmed(parked));
            }
        } else if mean < scale.low_outstanding && active.len() > self.min_active {
            // Drain the least-loaded active instance.
            let drain = active
                .iter()
                .copied()
                .min_by_key(|&i| self.outstanding[i])
                .expect("active checked non-empty");
            self.state[drain] = InstState::Draining;
            self.stats.bump("scale_down");
            if self.probe.enabled() {
                self.probe
                    .instant("router", &format!("scale_down NPU{drain}"), now);
                self.probe.count("fleet.scale_downs", 1);
            }
            if self.outstanding[drain] == 0 {
                self.park(now, drain);
            }
        }
    }

    /// Drains accounting into the fleet report fields.
    pub fn accounting(&self) -> RouterAccounting {
        RouterAccounting {
            completed: self.completed,
            rejected: self.rejected,
            migrations: self.migrations,
            migrated_bytes: self.migrated_bytes,
            handoff_transfer: self.handoff_transfer,
            handoff_setup: self.handoff_setup,
            handoff_exposed: self.handoff_exposed,
            stats: self.stats.clone(),
        }
    }
}

/// Router-side numbers extracted after a run.
#[derive(Debug, Clone)]
pub struct RouterAccounting {
    pub completed: u32,
    pub rejected: u32,
    pub migrations: u64,
    pub migrated_bytes: u64,
    pub handoff_transfer: Time,
    pub handoff_setup: Time,
    pub handoff_exposed: Time,
    pub stats: StatSet,
}

impl Component for Router {
    type Msg = Msg;

    fn next_tick(&self) -> Time {
        self.scale_wake
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        self.autoscale_sample(now, ctx);
        self.scale_wake = if self.finished() {
            Time::MAX
        } else {
            let interval = self
                .autoscale
                .map(|a| a.interval)
                .expect("ticking implies autoscale");
            now + interval
        };
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Arrive(req) => self.route(now, req, ctx),
            Msg::Done(instance) => {
                self.outstanding[instance] -= 1;
                self.completed += 1;
                if self.state[instance] == InstState::Draining && self.outstanding[instance] == 0 {
                    self.park(now, instance);
                }
                if self.finished() {
                    self.scale_wake = Time::MAX;
                }
            }
            Msg::Warmed(i) => {
                if self.state[i] == InstState::Warming {
                    self.state[i] = InstState::Active;
                    self.stats.bump("warmups");
                }
            }
            other => unreachable!("router got an instance message: {other:?}"),
        }
    }
}
