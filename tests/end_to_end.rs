//! End-to-end system integration: the headline claims of §6 must hold as
//! *shapes* on the composed simulator (exact factors depend on our
//! substrate; see EXPERIMENTS.md for the full artifact index).
//!
//! This suite covers the paper's single-NPU system; the multi-NPU
//! data-parallel extension (secure ring all-reduce, strong-scaling
//! shapes, and the N=1 ≡ single-system equivalence) lives in
//! `tests/multi_npu.rs`.

use tee_workloads::zoo::{by_name, TABLE2};
use tensortee::{SecureMode, SystemConfig, TrainingSystem};

fn cfg() -> SystemConfig {
    SystemConfig::fast_sim()
}

#[test]
fn headline_speedup_and_overhead() {
    // §6.1 on GPT2-M: TensorTEE ≫ SGX+MGX, and close to non-secure.
    let m = by_name("GPT2-M").unwrap();
    let ns = TrainingSystem::new(cfg(), SecureMode::NonSecure)
        .simulate_step(&m)
        .total();
    let base = TrainingSystem::new(cfg(), SecureMode::SgxMgx)
        .simulate_step(&m)
        .total();
    let ours = TrainingSystem::new(cfg(), SecureMode::TensorTee)
        .simulate_step(&m)
        .total();
    let speedup = base.as_secs_f64() / ours.as_secs_f64();
    let overhead = ours.as_secs_f64() / ns.as_secs_f64() - 1.0;
    assert!(speedup > 1.5, "speedup {speedup:.2}x");
    assert!(overhead < 0.20, "overhead {:.1}%", overhead * 100.0);
}

#[test]
fn speedup_trend_across_zoo() {
    // Figure 16's trend: larger models gain more (communication and CPU
    // phases grow relative to NPU compute).
    let small = by_name("GPT").unwrap();
    let large = by_name("XGLM-4.5B").unwrap();
    let speedup = |m| {
        let base = TrainingSystem::new(cfg(), SecureMode::SgxMgx)
            .simulate_step(&m)
            .total();
        let ours = TrainingSystem::new(cfg(), SecureMode::TensorTee)
            .simulate_step(&m)
            .total();
        base.as_secs_f64() / ours.as_secs_f64()
    };
    assert!(speedup(large) > speedup(small));
}

#[test]
fn comm_share_explodes_under_sgx_mgx() {
    // Figure 5: the communication share grows dramatically in the
    // baseline secure system and collapses again under TensorTEE.
    let m = by_name("GPT2-M").unwrap();
    let share = |mode| {
        let b = TrainingSystem::new(cfg(), mode).simulate_step(&m);
        // Ledger order: NPU, CPU, Comm W, Comm G.
        let f = b.ledger().fractions();
        f[2].1 + f[3].1
    };
    let ns = share(SecureMode::NonSecure);
    let base = share(SecureMode::SgxMgx);
    let ours = share(SecureMode::TensorTee);
    assert!(
        base > ns + 0.15,
        "baseline comm share: {base:.2} vs ns {ns:.2}"
    );
    assert!(
        ours <= ns + 0.05,
        "ours back to non-secure level: {ours:.2}"
    );
}

#[test]
fn every_table2_model_simulates() {
    // Smoke over the full zoo (cheap modes only — the NPU and comm phases
    // are analytic).
    for m in TABLE2 {
        let sys = TrainingSystem::new(cfg(), SecureMode::TensorTee);
        let schedule = tee_workloads::StepSchedule::of(&m);
        let npu = sys.npu_time(&schedule);
        assert!(npu > tee_sim::Time::ZERO, "{}", m.name);
        let comm = sys.comm_costs(&schedule);
        assert!(comm.grad.total() > tee_sim::Time::ZERO, "{}", m.name);
    }
}

#[test]
fn hardware_budget_matches_paper() {
    let kb = tensortee::hw::total_bytes() as f64 / 1024.0;
    assert!((22.0..26.0).contains(&kb), "{kb:.1} KB");
}
