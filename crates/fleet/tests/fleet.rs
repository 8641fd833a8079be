//! End-to-end fleet claims: determinism, KV-aware placement cutting
//! migrations, the staged-vs-direct exposed-handoff gap and its exact
//! accounting, admission control, pricing on the configured NPU, the
//! differential against `tee_serve::Instance::run`, and whole reports
//! pinned to recorded values.

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

/// The pinned runs' trace: 48 turns of a 4-tenant session mix.
fn pinned_trace() -> Vec<SessionRequest> {
    trace(48, 42)
}

/// Every scalar field of `r` in declaration order, then an FNV-1a digest
/// of its `Debug` rendering, which also covers each histogram (count,
/// sum, min, max, buckets) and the router counters.
fn pinned_fields(r: &FleetReport) -> [u64; 13] {
    let digest = format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    [
        r.total_requests.into(),
        r.completed_requests.into(),
        r.rejected_requests.into(),
        r.output_tokens,
        r.makespan.as_ps(),
        r.iterations,
        r.migrations,
        r.migrated_bytes,
        r.handoff_transfer_time.as_ps(),
        r.handoff_setup_time.as_ps(),
        r.handoff_exposed_time.as_ps(),
        r.events_processed,
        digest,
    ]
}

/// Runs `trace` forwards and reversed: the fleet serves turns in arrival
/// order whatever order they are passed in, so both give one report. The
/// arrival times are distinct, so that order is unambiguous.
fn pinned_run(
    cfg: &FleetConfig,
    profile: &SecurityProfile,
    trace: &[SessionRequest],
) -> FleetReport {
    let mut arrivals: Vec<Time> = trace.iter().map(|r| r.request.arrival).collect();
    arrivals.sort();
    arrivals.dedup();
    assert_eq!(arrivals.len(), trace.len(), "arrival times are distinct");
    let forward = run(cfg, profile, trace);
    let reversed: Vec<SessionRequest> = trace.iter().rev().copied().collect();
    assert_eq!(run(cfg, profile, &reversed), forward, "reversed trace");
    forward
}

/// [`pinned_fields`] of `pinned_trace` on 2 and 4 instances under each
/// policy ([`Policy::all`] order), SGX+MGX then TensorTEE.
#[rustfmt::skip]
const PINNED_REPORTS: [(&str, [u64; 13]); 12] = [
    ("2 round_robin sgx_mgx", [48, 48, 0, 6930, 17309224137458, 5067, 20, 1105735680, 587437280000, 1000000000, 588437280000, 5258, 15856752976452166599]),
    ("2 round_robin tensortee", [48, 48, 0, 6930, 17241716824254, 5101, 20, 1105735680, 34566240000, 1000000000, 1000000000, 5292, 16521675063976556016]),
    ("2 least_loaded sgx_mgx", [48, 48, 0, 6930, 17377348881458, 5223, 16, 1336836096, 710206336000, 800000000, 711006336000, 5411, 14183199935281531646]),
    ("2 least_loaded tensortee", [48, 48, 0, 6930, 17241766824254, 5242, 14, 1053130752, 32918736000, 700000000, 700000000, 5428, 8257393211290132755]),
    ("2 kv_aware sgx_mgx", [48, 48, 0, 6930, 17367337040303, 4630, 0, 0, 0, 0, 0, 4797, 6603025831778200973]),
    ("2 kv_aware tensortee", [48, 48, 0, 6930, 17357217974899, 4844, 0, 0, 0, 0, 0, 5011, 404483855312694899]),
    ("4 round_robin sgx_mgx", [48, 48, 0, 6930, 17192047130974, 6241, 24, 1393827840, 740489280000, 1200000000, 741689280000, 6448, 11691225304774195876]),
    ("4 round_robin tensortee", [48, 48, 0, 6930, 17126356696254, 6246, 24, 1393827840, 43571520000, 1200000000, 1200000000, 6453, 5905840992645108949]),
    ("4 least_loaded sgx_mgx", [48, 48, 0, 6930, 17192047130974, 6411, 21, 1490669568, 791934168000, 1050000000, 792984168000, 6617, 10970982048098936078]),
    ("4 least_loaded tensortee", [48, 48, 0, 6930, 17126356696254, 6416, 20, 1369239552, 42800736000, 1000000000, 1000000000, 6621, 767572283277570613]),
    ("4 kv_aware sgx_mgx", [48, 48, 0, 6930, 17367337040303, 5831, 0, 0, 0, 0, 0, 6007, 3652445373582856985]),
    ("4 kv_aware tensortee", [48, 48, 0, 6930, 17357217974899, 5850, 0, 0, 0, 0, 0, 6026, 10494672535860978581]),
];

#[test]
fn pinned_fleet_reports_are_unchanged() {
    let t = pinned_trace();
    let mut pinned = PINNED_REPORTS.iter();
    for n in [2, 4] {
        for policy in Policy::all() {
            for (name, profile) in [
                ("sgx_mgx", SecurityProfile::sgx_mgx()),
                ("tensortee", SecurityProfile::tensor_tee()),
            ] {
                let case = format!("{n} {} {name}", policy.label());
                let (label, expected) = pinned.next().expect("a pinned row per case");
                assert_eq!(*label, case);
                let r = pinned_run(&fleet(n).with_policy(policy), &profile, &t);
                assert_eq!(pinned_fields(&r), *expected, "{case}");
            }
        }
    }
}

/// [`pinned_fields`] of `bounded_queues_reject_overload`'s flood on one
/// instance.
#[rustfmt::skip]
const PINNED_OVERLOAD: [u64; 13] =
    [1024, 348, 676, 43814, 40735176351565, 2999, 92, 4114649088, 128637984000, 0, 0, 4720, 5735292686852903723];

#[test]
fn pinned_overloaded_fleet_report_is_unchanged() {
    let t = SessionTraceConfig::poisson(1024, 4000.0, 2, 9).generate();
    let r = pinned_run(&fleet(1), &SecurityProfile::non_secure(), &t);
    assert!(r.rejected_requests > 0, "overload must reject");
    assert_eq!(pinned_fields(&r), PINNED_OVERLOAD);
}
