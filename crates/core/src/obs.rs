//! Observability exports: Chrome/Perfetto trace rendering, utilization
//! rollups, and the `obs_utilization` artifact runner.
//!
//! The probe layer ([`tee_sim::probe`]) records *what happened*; this
//! module turns a recorded [`TraceProbe`] into things people consume:
//!
//! * [`chrome_trace`] — the Chrome trace-event JSON (`chrome://tracing`,
//!   <https://ui.perfetto.dev>) the `tensortee trace` subcommand writes.
//!   Tracks become named threads of one process; spans become complete
//!   (`"X"`) events, instants become thread-scoped markers, gauges become
//!   counter (`"C"`) series. Timestamps convert from picoseconds to the
//!   format's microseconds.
//! * [`utilization`] / [`utilization_table`] — per-track busy time folded
//!   from spans, as a fraction of the recording's makespan.
//! * [`emit_step_phases`] — lays the analytic [`StepBreakdown`] phases as
//!   spans so the *analytic* artifacts trace through the same vocabulary
//!   as the discrete-event ones.
//! * [`obs_utilization`] — the registry artifact: instrumented cluster +
//!   fleet runs rolled up into utilization/counter tables. Probes only
//!   observe, so the report is byte-identical whether or not the caller's
//!   context carries a recording probe (the differential test over the
//!   registry pins this).

use crate::artifact::{find, RunContext};
use crate::des_cluster::{DesClusterConfig, DesClusterSystem};
use crate::experiments::traced_round_robin_fleet;
use crate::json::Json;
use crate::report::{pct, Report, Table};
use crate::system::StepBreakdown;
use tee_sim::probe::{ProbeEvent, SharedProbe, TraceProbe};
use tee_sim::{StatSet, Time};
use tee_workloads::StepSchedule;

/// Picoseconds → trace-event microseconds.
fn us(t: Time) -> Json {
    Json::Float(t.as_ps() as f64 / 1e6)
}

/// Renders a recorded trace as a Chrome trace-event JSON object.
///
/// The layout follows the trace-event format: one process (`pid` 1), one
/// thread per track in first-seen order, a `thread_name` metadata event
/// naming each, then the events themselves. The recording's counter
/// totals ([`TraceProbe::metrics`]) ride along under a top-level
/// `"counters"` key (ignored by viewers, used by the rollup smoke tests).
pub fn chrome_trace(trace: &TraceProbe) -> Json {
    // Two passes keep the borrow simple: collect tracks first.
    let mut order: Vec<String> = Vec::new();
    for e in trace.events() {
        if !order.iter().any(|t| t == e.track()) {
            order.push(e.track().to_owned());
        }
    }
    let tid = |track: &str| -> Json {
        Json::Int(
            order
                .iter()
                .position(|t| t == track)
                .expect("track collected in first pass") as i64
                + 1,
        )
    };

    let mut events: Vec<Json> = Vec::new();
    for (i, track) in order.iter().enumerate() {
        events.push(Json::object([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(i as i64 + 1)),
            ("args", Json::object([("name", Json::str(track.clone()))])),
        ]));
    }
    for e in trace.events() {
        let ev = match e {
            ProbeEvent::Span {
                track,
                name,
                start,
                end,
            } => Json::object([
                ("name", Json::str(name.clone())),
                ("ph", Json::str("X")),
                ("pid", Json::Int(1)),
                ("tid", tid(track)),
                ("ts", us(*start)),
                ("dur", us(end.saturating_sub(*start))),
            ]),
            ProbeEvent::Instant { track, name, at } => Json::object([
                ("name", Json::str(name.clone())),
                ("ph", Json::str("i")),
                ("pid", Json::Int(1)),
                ("tid", tid(track)),
                ("ts", us(*at)),
                ("s", Json::str("t")),
            ]),
            ProbeEvent::Gauge {
                track,
                name,
                at,
                value,
            } => Json::object([
                ("name", Json::str(name.clone())),
                ("ph", Json::str("C")),
                ("pid", Json::Int(1)),
                ("tid", tid(track)),
                ("ts", us(*at)),
                ("args", Json::object([("value", Json::Int(*value as i64))])),
            ]),
        };
        events.push(ev);
    }

    let counters = Json::Object(
        trace
            .metrics()
            .iter()
            .map(|(name, value)| (name.to_owned(), Json::Int(value as i64)))
            .collect(),
    );
    Json::object([
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::str("ms")),
        ("counters", counters),
    ])
}

/// One track's rollup: busy time from spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackUtilization {
    /// Track (timeline) name.
    pub track: String,
    /// Summed span time on the track.
    pub busy: Time,
    /// Events recorded on the track (all kinds).
    pub events: usize,
}

/// Folds a recording into per-track busy time plus the makespan (the
/// latest timestamp any event touches). Tracks appear in first-seen
/// order.
pub fn utilization(trace: &TraceProbe) -> (Vec<TrackUtilization>, Time) {
    let mut rows: Vec<TrackUtilization> = Vec::new();
    let mut makespan = Time::ZERO;
    let row_of = |rows: &mut Vec<TrackUtilization>, track: &str| -> usize {
        match rows.iter().position(|r| r.track == track) {
            Some(i) => i,
            None => {
                rows.push(TrackUtilization {
                    track: track.to_owned(),
                    busy: Time::ZERO,
                    events: 0,
                });
                rows.len() - 1
            }
        }
    };
    for e in trace.events() {
        let i = row_of(&mut rows, e.track());
        rows[i].events += 1;
        makespan = makespan.max(e.at());
        if let ProbeEvent::Span { start, end, .. } = e {
            rows[i].busy += end.saturating_sub(*start);
            makespan = makespan.max(*end);
        }
    }
    (rows, makespan)
}

/// Renders [`utilization`] as a `track | busy | busy fraction | events`
/// table captioned `caption`.
pub fn utilization_table(caption: impl Into<String>, trace: &TraceProbe) -> Table {
    let (rows, makespan) = utilization(trace);
    let total = makespan.as_ps().max(1) as f64;
    let mut t = Table::new(["track", "busy", "busy fraction", "events"]).captioned(caption);
    for r in &rows {
        t.row([
            r.track.clone(),
            r.busy.to_string(),
            pct(r.busy.as_ps() as f64 / total),
            r.events.to_string(),
        ]);
    }
    t
}

/// Lays an analytic [`StepBreakdown`] over the probe as sequential phase
/// spans (the ledger order: NPU compute, CPU optimizer, weight transfer,
/// gradient transfer), so analytic artifacts narrate through the same
/// track vocabulary as the discrete-event engine. Emission happens after
/// the step is priced — tracing cannot perturb it.
pub fn emit_step_phases(probe: &SharedProbe, mode: crate::SecureMode, step: &StepBreakdown) {
    if !probe.enabled() {
        return;
    }
    let label = mode.label();
    let phases = [
        ("fwd+bwd", "NPU0", step.npu),
        ("optimizer", "CPU", step.cpu),
        ("weight_xfer", "link", step.comm_w),
        ("grad_xfer", "link", step.comm_g),
    ];
    let mut t = Time::ZERO;
    for (phase, track, d) in phases {
        if d > Time::ZERO {
            probe.span(track, &format!("{phase} [{label}]"), t, t + d);
        }
        t += d;
    }
    probe.count("train.steps", 1);
    probe.count("train.step_ps", step.total().as_ps());
}

/// Replays a recorded trace into another probe (used to surface the
/// rollup runs' events in the caller's recording, e.g. `tensortee trace
/// obs_utilization`).
pub(crate) fn replay(snapshot: &TraceProbe, into: &SharedProbe) {
    if !into.enabled() {
        return;
    }
    for e in snapshot.events() {
        match e {
            ProbeEvent::Span {
                track,
                name,
                start,
                end,
            } => into.span(track, name, *start, *end),
            ProbeEvent::Instant { track, name, at } => into.instant(track, name, *at),
            ProbeEvent::Gauge {
                track,
                name,
                at,
                value,
            } => into.gauge(track, name, *at, *value),
        }
    }
    for (name, value) in snapshot.metrics().iter() {
        into.count(name, value);
    }
}

/// Runs the `obs_utilization` artifact: one instrumented discrete-event
/// cluster step (straggled, with a synthetic CPU optimizer phase so the
/// `CPU` track shows real busy time) plus one instrumented fleet run,
/// rolled up into per-track utilization and counter tables.
///
/// The rollup always records into fresh probes — the caller's context
/// probe only *additionally* receives a replay of the same events — so
/// the report bytes cannot depend on whether (or how much) the context
/// probe has already recorded.
///
/// # Panics
///
/// Panics if the `obs_utilization` artifact is missing from the registry
/// (a registration bug).
pub fn obs_utilization(ctx: &RunContext) -> Report {
    let mut report = find("obs_utilization")
        .expect("obs_utilization is registered")
        .new_report();

    // --- Instrumented cluster step -----------------------------------
    let cluster_probe = SharedProbe::recording();
    let model = ctx.primary_model();
    let schedule = StepSchedule::of(&model);
    let n = ctx.cluster_sizes.iter().copied().max().unwrap_or(4).max(2);
    let straggler = ctx.straggler_factors.iter().copied().fold(1.0f64, f64::max);
    let cpu = Time::from_ms(25);
    let des = DesClusterSystem::new(
        ctx.cfg.clone(),
        DesClusterConfig::lockstep(ctx.cluster_of(n)).with_straggler(straggler),
        crate::SecureMode::TensorTee,
    )
    .with_memo(&ctx.memo)
    .with_probe(cluster_probe.clone())
    .simulate_with_cpu_time(&schedule, cpu);
    let cluster_snap = cluster_probe.snapshot().expect("recording probe");

    // --- Instrumented fleet run --------------------------------------
    let (_, _, fleet, fleet_snap) = traced_round_robin_fleet(ctx);

    // --- Rollup ------------------------------------------------------
    report.table(utilization_table(
        format!(
            "cluster step utilization — {n} NPUs, straggler {straggler:.2}x, TensorTEE \
             (makespan {})",
            des.breakdown.total()
        ),
        &cluster_snap,
    ));
    report.table(utilization_table(
        format!(
            "fleet serving utilization — {} instances, round-robin, TensorTEE (makespan {})",
            ctx.fleet_instances, fleet.makespan
        ),
        &fleet_snap,
    ));

    let mut counters = StatSet::default();
    counters.merge(cluster_snap.metrics());
    counters.merge(fleet_snap.metrics());
    let mut ctable = Table::new(["counter", "value"]).captioned("counter rollup (both runs)");
    for (name, value) in counters.iter() {
        ctable.row([name.to_owned(), value.to_string()]);
    }
    report.table(ctable);

    let (cluster_rows, cluster_makespan) = utilization(&cluster_snap);
    let (fleet_rows, _) = utilization(&fleet_snap);
    report.metric("cluster_tracks", cluster_rows.len() as f64);
    report.metric("fleet_tracks", fleet_rows.len() as f64);
    report.metric(
        "events_recorded",
        (cluster_snap.events().len() + fleet_snap.events().len()) as f64,
    );
    report.metric("counters_recorded", counters.iter().count() as f64);
    report.metric(
        "link_queued_ms",
        Time::from_ps(counters.get("link.grant_queued_ps")).as_ms_f64(),
    );
    report.metric("fleet_migrations", counters.get("fleet.migrations") as f64);
    if let Some(cpu_row) = cluster_rows.iter().find(|r| r.track == "CPU") {
        report.metric(
            "cluster_cpu_busy_fraction",
            cpu_row.busy.as_ps() as f64 / cluster_makespan.as_ps().max(1) as f64,
        );
    }
    report.note(format!(
        "{} events on {} tracks across both runs; probes observe simulated time and never \
         advance it, so these numbers ride along for free (byte-identical reports with \
         tracing on or off).",
        cluster_snap.events().len() + fleet_snap.events().len(),
        cluster_rows.len().max(fleet_rows.len()),
    ));

    // Surface the instrumented runs in the caller's recording (if any)
    // so `tensortee trace obs_utilization` exports a non-empty timeline.
    replay(&cluster_snap, &ctx.probe);
    replay(&fleet_snap, &ctx.probe);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_well_formed;

    fn sample_trace() -> TraceProbe {
        let p = SharedProbe::recording();
        p.span("NPU0", "compute", Time::ZERO, Time::from_ns(80));
        p.span("CPU", "optimizer", Time::from_ns(80), Time::from_ns(100));
        p.instant("router", "dispatch", Time::from_ns(5));
        p.gauge("link", "queue", Time::from_ns(10), 3);
        p.count("des.ticks", 7);
        p.snapshot().expect("recording")
    }

    #[test]
    fn chrome_trace_is_well_formed_and_names_tracks() {
        let json = chrome_trace(&sample_trace()).to_string();
        assert!(is_well_formed(&json), "{json}");
        for track in ["NPU0", "CPU", "router", "link"] {
            assert!(json.contains(&format!("\"name\":\"{track}\"")), "{track}");
        }
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"des.ticks\":7"));
    }

    #[test]
    fn chrome_trace_converts_ps_to_us() {
        let p = SharedProbe::recording();
        p.span("NPU0", "x", Time::from_ms(1), Time::from_ms(3));
        let json = chrome_trace(&p.snapshot().unwrap()).to_string();
        // 1 ms = 1000 µs.
        assert!(json.contains("\"ts\":1000.0"), "{json}");
        assert!(json.contains("\"dur\":2000.0"), "{json}");
    }

    #[test]
    fn utilization_folds_spans_and_pairs() {
        let (rows, makespan) = utilization(&sample_trace());
        assert_eq!(makespan, Time::from_ns(100));
        let busy = |track: &str| rows.iter().find(|r| r.track == track).unwrap().busy;
        assert_eq!(busy("NPU0"), Time::from_ns(80));
        assert_eq!(busy("CPU"), Time::from_ns(20));
        assert_eq!(busy("router"), Time::ZERO);
        let t = utilization_table("demo", &sample_trace());
        assert_eq!(t.len(), 4);
        assert!(t.to_markdown().contains("80.0%"));
    }

    #[test]
    fn step_phases_emit_in_ledger_order() {
        let probe = SharedProbe::recording();
        let step = StepBreakdown {
            npu: Time::from_ns(100),
            cpu: Time::from_ns(50),
            comm_w: Time::ZERO,
            comm_g: Time::from_ns(25),
        };
        emit_step_phases(&probe, crate::SecureMode::TensorTee, &step);
        let snap = probe.snapshot().unwrap();
        // comm_w is zero → skipped; three spans, contiguous.
        assert_eq!(snap.events().len(), 3);
        assert_eq!(snap.events()[0].track(), "NPU0");
        assert_eq!(snap.events()[2].track(), "link");
        assert_eq!(snap.events()[2].at(), Time::from_ns(150));
        assert_eq!(snap.metrics().get("train.steps"), 1);
        // Null probe: free.
        emit_step_phases(&SharedProbe::Null, crate::SecureMode::TensorTee, &step);
    }
}
