//! Fleet simulation assembly: the message type, the component enum
//! adapting [`tee_serve::Instance`] to the DES core, and the top-level
//! [`simulate`] entry point.

use crate::config::FleetConfig;
use crate::report::FleetReport;
use crate::router::Router;
use tee_npu::NpuEngine;
use tee_serve::config::{KvSpec, SecurityProfile};
use tee_serve::{Instance, IterCost, Pricer, SessionRequest};
use tee_sim::des::{Component, ComponentId, Ctx, Scheduler};
use tee_sim::probe::SharedProbe;
use tee_sim::Time;
use tee_workloads::zoo::ModelConfig;

/// Component id of the router; instance `i` is component `i + 1`.
const ROUTER: ComponentId = 0;

/// Messages exchanged inside a fleet simulation.
#[derive(Debug, Clone, Copy)]
pub enum Msg {
    /// External stimulus: a trace turn reaches the router.
    Arrive(SessionRequest),
    /// Router → instance: an admitted turn (delayed by its KV handoff
    /// when the session migrated).
    Dispatch(SessionRequest),
    /// Router → instance: non-overlappable handoff time serializing
    /// against the destination's compute.
    Stall(Time),
    /// Instance → router: one turn finished generating on the instance
    /// with this fleet index.
    Done(usize),
}

/// The component universe of one fleet scheduler: the router, and the
/// serving instances with their fleet index. An instance admits
/// [`Msg::Dispatch`]es, stalls on [`Msg::Stall`]s, ticks at its wake
/// time and reports each finished turn to the router as [`Msg::Done`].
#[derive(Debug)]
enum Node {
    Router(Box<Router>),
    Instance(usize, Box<Instance>),
}

impl Component for Node {
    type Msg = Msg;

    fn next_tick(&self) -> Time {
        match self {
            Node::Router(_) => Time::MAX,
            Node::Instance(_, inst) => inst.next_wake(),
        }
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        match self {
            Node::Router(_) => unreachable!("the router is never armed"),
            Node::Instance(index, inst) => {
                let instance = *index;
                inst.tick(now, |_| ctx.send(ROUTER, Msg::Done(instance)));
            }
        }
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match (self, msg) {
            (Node::Router(r), msg) => r.receive(now, msg, ctx),
            (Node::Instance(_, inst), Msg::Dispatch(req)) => inst.admit(now, req),
            (Node::Instance(_, inst), Msg::Stall(d)) => inst.stall(now, d),
            (Node::Instance(index, _), other) => {
                unreachable!("instance {index} got a router message: {other:?}")
            }
        }
    }

    fn label(&self) -> String {
        match self {
            Node::Router(_) => "router".to_string(),
            Node::Instance(index, _) => format!("NPU{index}"),
        }
    }
}

/// Simulates serving `trace` on the fleet under one security profile.
///
/// Deterministic: same config + model + profile + trace → the same
/// [`FleetReport`], independent of anything outside the arguments.
pub fn simulate(
    cfg: &FleetConfig,
    model: &ModelConfig,
    profile: &SecurityProfile,
    trace: &[SessionRequest],
) -> FleetReport {
    simulate_probed(cfg, model, profile, trace, &SharedProbe::Null)
}

/// [`simulate`] with an observability probe: arrivals emit instants on
/// the `CPU` track, routing decisions on the `router` track, KV handoffs
/// emit `link` spans, and each instance's iterations emit spans on its
/// `NPU<i>` track. The report is byte-identical to the unprobed run —
/// probes only observe.
///
/// Turns enter the scheduler in arrival order, each just before the
/// simulation reaches its timestamp, so the event queue holds only
/// in-flight work (the next arrival, each instance's wake, dispatches
/// still crossing a handoff) rather than the whole trace.
pub fn simulate_probed(
    cfg: &FleetConfig,
    model: &ModelConfig,
    profile: &SecurityProfile,
    trace: &[SessionRequest],
    probe: &SharedProbe,
) -> FleetReport {
    let kv = KvSpec::of(model);
    // Every instance is priced by one surrogate, calibrated on the
    // configured NPU.
    let engine = NpuEngine::new(cfg.serve.npu.clone(), profile.mac);
    let pricer = Pricer::Calibrated(IterCost::calibrate_on(&engine, model));
    let mut sched: Scheduler<Node> = Scheduler::new();
    sched.set_probe(probe.clone());
    sched.add(Node::Router(Box::new(
        Router::new(cfg, kv.bytes_per_token, profile.kv_protocol).with_probe(probe.clone()),
    )));
    for i in 0..cfg.n_instances {
        let inst = Instance::new(model, pricer.clone()).with_probe(
            probe.clone(),
            format!("NPU{i}"),
            "fleet",
        );
        sched.add(Node::Instance(i, Box::new(inst)));
    }
    // Each arrival enters just before the scheduler reaches its time, in
    // arrival order (same-time turns in trace order), so the router takes
    // it in the first sub-round at that time, ahead of any `Done`.
    let mut arrivals: Vec<&SessionRequest> = trace.iter().collect();
    arrivals.sort_by_key(|r| r.request.arrival);
    for r in arrivals {
        let at = r.request.arrival;
        if at > Time::ZERO {
            sched.run_until(at - Time::from_ps(1));
        }
        sched.send_at(at, ROUTER, Msg::Arrive(*r));
    }
    let makespan = sched.run();
    let Node::Router(router) = &sched.components()[ROUTER] else {
        unreachable!("component 0 is the router")
    };
    if probe.enabled() {
        // End-of-run sample of the aggregate KV-handoff wire time; keeps
        // the `link` track present (at zero) even for migration-free runs.
        let wire = router.report().handoff_transfer_time;
        probe.gauge("link", "handoff_wire_ps", makespan, wire.as_ps());
    }

    let mut report = FleetReport {
        total_requests: trace.len() as u32,
        makespan,
        events_processed: sched.events_processed(),
        ..router.report().clone()
    };
    for node in sched.components() {
        if let Node::Instance(_, inst) = node {
            let m = inst.report();
            report.output_tokens += m.output_tokens;
            report.iterations += m.iterations;
            report.ttft_ns.merge(&m.ttft_ns);
            report.latency_ns.merge(&m.latency_ns);
            report.tpot_ns.merge(&m.tpot_ns);
        }
    }
    report
}
