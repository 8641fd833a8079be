//! Inference-serving invariants (tee-serve extension, §3.3/§4.3 under a
//! serving workload): on the same seeded trace, TensorTEE's goodput is
//! at least SGX+MGX's, its exposed KV-transfer time is strictly lower,
//! every request completes under every mode, and the simulation is
//! deterministic.

use tee_serve::{simulate, SecurityProfile, ServeConfig, TraceConfig};
use tensortee::artifact::RunContext;
use tensortee::experiments::{serve_latency, serve_profile};
use tensortee::{SecureMode, SystemConfig};

/// The fast-context serving comparison backing most assertions.
fn fast_rows() -> Vec<tensortee::experiments::ServeRow> {
    serve_latency(&RunContext::fast()).0
}

fn row(
    rows: &[tensortee::experiments::ServeRow],
    mode: SecureMode,
) -> &tensortee::experiments::ServeRow {
    rows.iter()
        .find(|r| r.mode == mode)
        .expect("mode simulated")
}

#[test]
fn tensortee_goodput_at_least_sgx_mgx_on_the_same_trace() {
    let rows = fast_rows();
    let base = row(&rows, SecureMode::SgxMgx);
    let ours = row(&rows, SecureMode::TensorTee);
    assert!(
        ours.report.goodput_tps() >= base.report.goodput_tps(),
        "TensorTEE {} tok/s vs SGX+MGX {} tok/s",
        ours.report.goodput_tps(),
        base.report.goodput_tps()
    );
    // And the non-secure reference bounds everyone from above.
    let ns = row(&rows, SecureMode::NonSecure);
    assert!(ns.report.goodput_tps() >= ours.report.goodput_tps());
}

#[test]
fn tensortee_exposes_strictly_less_kv_transfer_time() {
    let rows = fast_rows();
    let base = row(&rows, SecureMode::SgxMgx);
    let ours = row(&rows, SecureMode::TensorTee);
    assert!(
        base.report.kv_stats.get("offloads") > 0,
        "the KV budget must force HBM->DRAM migration: {}",
        base.report.kv_stats
    );
    assert!(
        ours.report.kv_exposed_time < base.report.kv_exposed_time,
        "direct must hide KV migration the staging protocol exposes: {} vs {}",
        ours.report.kv_exposed_time,
        base.report.kv_exposed_time
    );
    // Raw (pre-overlap) transfer time is also cheaper: no re-encryption.
    assert!(ours.report.kv_transfer_time < base.report.kv_transfer_time);
}

#[test]
fn every_mode_drains_the_trace_with_finite_tails() {
    for r in fast_rows() {
        let rep = &r.report;
        assert_eq!(
            rep.completed_requests,
            rep.total_requests,
            "{} dropped requests",
            r.mode.label()
        );
        let p50 = rep.ttft_percentile(0.50).expect("completions recorded");
        let p99 = rep.ttft_percentile(0.99).expect("completions recorded");
        assert!(p50 <= p99, "{}: {p50} > {p99}", r.mode.label());
        assert!(rep.latency_percentile(0.99).unwrap() >= p99);
        assert!(rep.tpot_mean() > tee_sim::Time::ZERO);
    }
}

#[test]
fn serving_simulation_is_deterministic_and_seed_sensitive() {
    let ctx = RunContext::fast();
    let a = serve_latency(&ctx).1;
    let b = serve_latency(&ctx).1;
    assert_eq!(a.to_markdown(), b.to_markdown());
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    let c = serve_latency(&ctx.with_seed(7)).1;
    assert_ne!(
        a.to_markdown(),
        c.to_markdown(),
        "a different seed must produce a different trace"
    );
}

#[test]
fn serve_profile_mirrors_the_training_modes() {
    // tee-serve cannot see `SecureMode`, so its three profile constructors
    // carry their own MAC scheme and KV protocol; this keeps them in step
    // with the per-mode tables at the Table-1 configuration.
    let cfg = SystemConfig::default();
    for (mode, constructor) in SecureMode::all().into_iter().zip([
        SecurityProfile::non_secure(),
        SecurityProfile::sgx_mgx(),
        SecurityProfile::tensor_tee(),
    ]) {
        let profile = serve_profile(mode, &cfg);
        assert_eq!(profile, constructor, "{}", mode.label());
        assert_eq!(profile.kv_protocol, mode.protocol(), "{}", mode.label());
    }
}

#[test]
fn library_level_serving_runs_outside_the_registry() {
    // The tee-serve crate is usable without a RunContext — the example
    // and downstream users drive it directly.
    let model = tee_workloads::zoo::by_name("GPT").unwrap();
    let cfg = ServeConfig::for_model(&model, 4, 640);
    let trace = TraceConfig::bursty(8, 16.0, 4, 1).generate();
    let r = simulate(&cfg, &model, &SecurityProfile::tensor_tee(), &trace);
    assert_eq!(r.completed_requests, 8);
    assert!(r.goodput_tps() > 0.0);
}
