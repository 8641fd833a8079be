//! End-to-end fleet claims: determinism, KV-aware placement cutting
//! migrations, the staged-vs-direct exposed-handoff gap and its exact
//! accounting, admission control, pricing on the configured NPU, and the
//! differential against `tee_serve::Instance::run`.

use tee_fleet::{simulate, simulate_probed, FleetConfig, FleetReport, Policy};
use tee_npu::NpuEngine;
use tee_serve::config::SecurityProfile;
use tee_serve::{
    Diurnal, Instance, IterCost, Pricer, Request, ServeConfig, ServeReport, SessionRequest,
    SessionTraceConfig, TraceConfig,
};
use tee_sim::probe::SharedProbe;
use tee_sim::Time;
use tee_workloads::zoo::{by_name, ModelConfig};

fn model() -> ModelConfig {
    by_name("GPT").unwrap()
}

fn fleet(n: usize) -> FleetConfig {
    let m = model();
    FleetConfig::new(ServeConfig::for_model(&m, 4, 640), n)
}

fn trace(n: u32, seed: u64) -> Vec<SessionRequest> {
    SessionTraceConfig::poisson(n, 24.0, 4, seed).generate()
}

fn run(cfg: &FleetConfig, profile: &SecurityProfile, trace: &[SessionRequest]) -> FleetReport {
    simulate(cfg, &model(), profile, trace)
}

#[test]
fn fleet_run_is_deterministic() {
    let cfg = fleet(3);
    let t = trace(96, 42);
    let profile = SecurityProfile::tensor_tee();
    let a = run(&cfg, &profile, &t);
    let b = run(&cfg, &profile, &t);
    assert_eq!(a, b);
    assert_eq!(a.completed_requests + a.rejected_requests, 96);
    assert!(a.events_processed > 0);
    assert!(a.goodput_tps() > 0.0);
}

#[test]
fn all_turns_complete_under_ample_capacity() {
    let cfg = fleet(4);
    let t = trace(64, 7);
    let r = run(&cfg, &SecurityProfile::non_secure(), &t);
    assert_eq!(r.rejected_requests, 0);
    assert_eq!(r.completed_requests, 64);
    assert_eq!(r.ttft_ns.count(), 64);
    assert_eq!(r.latency_ns.count(), 64);
    assert!(r.iterations > 0);
    assert!(r.output_tokens > 0);
}

#[test]
fn kv_aware_placement_cuts_migrations() {
    let t = trace(192, 11);
    let profile = SecurityProfile::tensor_tee();
    let rr = run(&fleet(4).with_policy(Policy::RoundRobin), &profile, &t);
    let ll = run(&fleet(4).with_policy(Policy::LeastLoaded), &profile, &t);
    let kv = run(&fleet(4).with_policy(Policy::KvAware), &profile, &t);
    assert!(
        kv.migrations < rr.migrations,
        "kv-aware {} vs round-robin {} migrations",
        kv.migrations,
        rr.migrations
    );
    assert!(kv.migration_rate() < rr.migration_rate());
    assert!(
        kv.migrations <= ll.migrations,
        "kv-aware never migrates more than least-loaded"
    );
    assert!(
        kv.router_stats.get("local_turns") > 0,
        "follow-up turns go home: {}",
        kv.router_stats
    );
}

#[test]
fn direct_handoff_strictly_beats_staged_on_exposure() {
    // Round-robin forces migrations; compare the secure modes' per-
    // migration exposed handoff time.
    let t = trace(128, 3);
    let cfg = fleet(4).with_policy(Policy::RoundRobin);
    let staged = run(&cfg, &SecurityProfile::sgx_mgx(), &t);
    let direct = run(&cfg, &SecurityProfile::tensor_tee(), &t);
    let plain = run(&cfg, &SecurityProfile::non_secure(), &t);
    assert!(staged.migrations > 0 && direct.migrations > 0);
    assert!(
        direct.exposed_per_migration_ns() < staged.exposed_per_migration_ns(),
        "direct {} vs staged {} exposed ns/migration",
        direct.exposed_per_migration_ns(),
        staged.exposed_per_migration_ns()
    );
    // Plain pays no session establishment and exposes nothing.
    assert_eq!(plain.handoff_setup_time, Time::ZERO);
    assert_eq!(plain.handoff_exposed_time, Time::ZERO);
    assert!(
        plain.handoff_transfer_time > Time::ZERO,
        "plain still moves bytes"
    );
    // And the staged wire time itself is the most expensive.
    assert!(staged.handoff_transfer_time > direct.handoff_transfer_time);
    // Exact accounting: every secure migration pays the 50 µs session
    // setup; direct hides its whole transfer behind compute, staged
    // exposes all of it.
    for secure in [&staged, &direct] {
        assert_eq!(
            secure.handoff_setup_time,
            Time::from_us(50 * secure.migrations)
        );
    }
    assert_eq!(direct.handoff_exposed_time, direct.handoff_setup_time);
    assert_eq!(
        staged.handoff_exposed_time,
        staged.handoff_setup_time + staged.handoff_transfer_time
    );
}

#[test]
fn bounded_queues_reject_overload() {
    // One instance, a flood of session starts far past what it serves:
    // admission control must shed load at the per-instance queue bound
    // rather than queue unboundedly.
    let t = SessionTraceConfig::poisson(1024, 4000.0, 2, 9).generate();
    let r = run(&fleet(1), &SecurityProfile::non_secure(), &t);
    assert!(r.rejected_requests > 0, "overload must reject");
    assert_eq!(r.completed_requests + r.rejected_requests, 1024);
    assert_eq!(u64::from(r.completed_requests), r.latency_ns.count());
}

#[test]
fn tracing_does_not_perturb_the_fleet_report() {
    // A diurnal, migration-heavy run under the chattiest probe must
    // reproduce the unprobed report exactly: probes observe time, they
    // never advance it.
    let t = SessionTraceConfig::poisson(160, 40.0, 4, 21)
        .with_diurnal(Diurnal::new(4.0, 0.8))
        .generate();
    let cfg = fleet(4).with_policy(Policy::RoundRobin);
    let profile = SecurityProfile::tensor_tee();
    let plain = run(&cfg, &profile, &t);
    let recorder = SharedProbe::recording();
    let probed = simulate_probed(&cfg, &model(), &profile, &t, &recorder);
    assert_eq!(plain, probed, "probe must not change a single field");

    let snap = recorder.snapshot().expect("recording probe");
    let m = snap.metrics();
    assert_eq!(m.get("fleet.migrations"), plain.migrations);
    assert_eq!(m.get("fleet.migrated_bytes"), plain.migrated_bytes);
    assert_eq!(m.get("fleet.iterations"), plain.iterations);
    assert_eq!(
        m.get("fleet.dispatched"),
        u64::from(plain.completed_requests)
    );
    let tracks: std::collections::BTreeSet<&str> =
        snap.events().iter().map(|e| e.track()).collect();
    for want in ["router", "link", "NPU0", "CPU"] {
        assert!(tracks.contains(want), "missing track {want}: {tracks:?}");
    }
}

#[test]
fn single_instance_never_migrates() {
    let t = trace(48, 5);
    let r = run(&fleet(1), &SecurityProfile::sgx_mgx(), &t);
    assert_eq!(r.migrations, 0, "one instance, KV always home");
    assert_eq!(r.handoff_exposed_time, Time::ZERO);
}

#[test]
fn instances_are_priced_on_the_configured_npu() {
    // A quarter-width PE array slows compute-bound prefills, so the same
    // trace must finish its first tokens later than on the Table-1 NPU.
    let t = trace(64, 7);
    let profile = SecurityProfile::tensor_tee();
    let table1 = run(&fleet(2), &profile, &t);
    let mut narrow = fleet(2);
    narrow.serve.npu.pe_dim /= 4;
    let narrow = run(&narrow, &profile, &t);
    assert!(
        narrow.ttft_ns.mean() > table1.ttft_ns.mean(),
        "narrow {} vs table-1 {} ns mean TTFT",
        narrow.ttft_ns.mean(),
        table1.ttft_ns.mean()
    );
}

/// The one-instance fleet that serves a single-turn trace like
/// `Instance::run`: round-robin, fed traces that stay below its queue
/// bound of 64 outstanding turns, so it never rejects.
fn one_instance() -> FleetConfig {
    fleet(1).with_policy(Policy::RoundRobin)
}

/// `trace` served by `Instance::run` on a calibrated instance with no KV
/// bound.
fn calibrated_serve(
    cfg: &FleetConfig,
    profile: &SecurityProfile,
    trace: &[Request],
) -> ServeReport {
    let m = model();
    let engine = NpuEngine::new(cfg.serve.npu.clone(), profile.mac);
    let pricer = Pricer::Calibrated(IterCost::calibrate_on(&engine, &m));
    Instance::new(&m, pricer).run(trace)
}

fn sessions(trace: &[Request]) -> Vec<SessionRequest> {
    trace.iter().copied().map(SessionRequest::from).collect()
}

#[test]
fn one_instance_fleet_matches_calibrated_serve() {
    // Differential: both sides run the same `tee_serve::Instance`, one
    // driven by `Instance::run` and one by the fleet's router hop and DES
    // scheduler, so every distribution and count must agree exactly.
    //
    // The one allowed divergence is an arrival on the exact picosecond an
    // iteration ends: `Instance::run` admits it into the next iteration,
    // while the fleet's router forwards it one delta sub-round after the
    // instance has already launched that iteration (pinned below). These
    // traces have no such tie.
    for (profile, trace) in [
        (
            SecurityProfile::tensor_tee(),
            TraceConfig::poisson(48, 24.0, 13),
        ),
        (
            SecurityProfile::sgx_mgx(),
            TraceConfig::bursty(48, 24.0, 6, 17),
        ),
        (
            SecurityProfile::non_secure(),
            TraceConfig::poisson(48, 96.0, 5),
        ),
    ] {
        let requests = trace.generate();
        let cfg = one_instance();
        let f = run(&cfg, &profile, &sessions(&requests));
        let s = calibrated_serve(&cfg, &profile, &requests);
        assert_eq!(f.rejected_requests, 0);
        assert_eq!(f.completed_requests, s.completed_requests);
        assert_eq!(f.ttft_ns, s.ttft_ns, "{:?}", profile.mac);
        assert_eq!(f.latency_ns, s.latency_ns, "{:?}", profile.mac);
        assert_eq!(f.tpot_ns, s.tpot_ns, "{:?}", profile.mac);
        assert_eq!(f.iterations, s.iterations, "{:?}", profile.mac);
        assert_eq!(f.output_tokens, s.output_tokens, "{:?}", profile.mac);
        assert_eq!(f.makespan, s.makespan, "{:?}", profile.mac);
    }
}

#[test]
fn arrival_on_an_iteration_end_joins_one_iteration_later_in_the_fleet() {
    // The documented divergence: request 1 arrives on the picosecond the
    // prefill iteration of request 0 ends. `Instance::run` admits it into
    // the very next iteration; the fleet's router hop delivers it one
    // delta sub-round late, after that iteration launched.
    let m = model();
    let profile = SecurityProfile::tensor_tee();
    let cfg = one_instance();
    let engine = NpuEngine::new(cfg.serve.npu.clone(), profile.mac);
    let prefill = IterCost::calibrate_on(&engine, &m).iteration(&[64], 0, 0);
    let request = |id: u32, arrival: Time| Request {
        id,
        arrival,
        prompt_tokens: 64,
        output_tokens: 4,
    };
    let requests = [request(0, Time::ZERO), request(1, prefill)];
    let f = run(&cfg, &profile, &sessions(&requests));
    let s = calibrated_serve(&cfg, &profile, &requests);
    assert_eq!(s.ttft_ns.min(), f.ttft_ns.min(), "request 0 is unaffected");
    assert!(
        f.ttft_ns.max() > s.ttft_ns.max(),
        "fleet {:?} vs serve {:?} TTFT of request 1",
        f.ttft_ns.max(),
        s.ttft_ns.max()
    );
}
