//! Multi-NPU data-parallel integration: the strong-scaling shapes of the
//! ring all-reduce extension (see EXPERIMENTS.md, `scaling_1_2_4_8`).
//!
//! Key invariants: a one-replica cluster reproduces the single-NPU
//! [`tensortee::TrainingSystem`] bit-for-bit, per-rank all-reduce traffic
//! follows the `2·(N−1)/N·grad_bytes` ring formula, and the staging
//! protocol's exposed-communication fraction grows with N while the
//! direct protocol's stays near its single-NPU level.

use tee_comm::ring::{Interconnect, RingAllReduce};
use tee_comm::Protocol;
use tee_sim::Time;
use tee_workloads::zoo::by_name;
use tensortee::{
    ClusterConfig, ClusterStepBreakdown, ClusterSystem, SecureMode, SystemConfig, TrainingSystem,
};

fn cfg() -> SystemConfig {
    SystemConfig::fast_sim()
}

fn step(mode: SecureMode, n: u32) -> ClusterStepBreakdown {
    let model = by_name("GPT2-M").unwrap();
    ClusterSystem::new(cfg(), ClusterConfig::of(n), mode).simulate_step(&model)
}

#[test]
fn one_replica_cluster_reduces_to_single_system() {
    // The N=1 cluster must equal today's TrainingSystem *bit-for-bit* in
    // every phase, under every mode, with a zero all-reduce phase.
    let model = by_name("GPT2-M").unwrap();
    for mode in SecureMode::all() {
        let single = TrainingSystem::new(cfg(), mode).simulate_step(&model);
        let cluster = step(mode, 1);
        assert_eq!(cluster.comm_ar, Time::ZERO, "{}", mode.label());
        assert_eq!(cluster.npu, single.npu, "{}", mode.label());
        assert_eq!(cluster.cpu, single.cpu, "{}", mode.label());
        assert_eq!(cluster.comm_w, single.comm_w, "{}", mode.label());
        assert_eq!(cluster.comm_g, single.comm_g, "{}", mode.label());
        assert_eq!(cluster.single(), single, "{}", mode.label());
        assert_eq!(cluster.total(), single.total(), "{}", mode.label());
    }
}

#[test]
fn all_reduce_bytes_follow_ring_formula() {
    // Each rank wires 2·(N−1)/N·grad_bytes, up to per-chunk ceil rounding.
    let grad = by_name("GPT2-M").unwrap().grad_bytes();
    for n in 1u32..=8 {
        let b = RingAllReduce::new(n, Interconnect::PcieP2p).all_reduce(Protocol::Direct, grad);
        let ideal = 2 * (u64::from(n) - 1) * grad / u64::from(n);
        assert!(b.wire_bytes() >= ideal, "N={n}");
        assert!(b.wire_bytes() < ideal + 2 * u64::from(n), "N={n}");
        assert_eq!(b.steps, 2 * (n - 1), "N={n}");
    }
    // N=1 is a strict no-op.
    let noop = RingAllReduce::new(1, Interconnect::PcieP2p).all_reduce(Protocol::Staged, grad);
    assert_eq!(noop.wire_bytes(), 0);
    assert_eq!(noop.total(), Time::ZERO);
}

#[test]
fn staging_exposed_comm_fraction_grows_with_cluster_size() {
    // Every ring hop pays the §3.3 staging conversion while per-replica
    // compute shrinks, so the exposed-communication share keeps climbing.
    let f: Vec<f64> = [1u32, 2, 4, 8]
        .iter()
        .map(|&n| step(SecureMode::SgxMgx, n).exposed_comm_fraction())
        .collect();
    for w in f.windows(2) {
        assert!(w[1] > w[0], "staging share must grow: {f:?}");
    }
    assert!(f[3] > f[0] + 0.2, "grows substantially by N=8: {f:?}");
}

#[test]
fn direct_exposed_comm_fraction_stays_roughly_flat() {
    // The direct protocol hides the collective inside the backward
    // window, so the share stays near its single-NPU level even at N=8,
    // and far below the staging share.
    let at = |n| step(SecureMode::TensorTee, n).exposed_comm_fraction();
    let (f1, f8) = (at(1), at(8));
    assert!(f8 - f1 < 0.15, "roughly flat: {f1:.3} -> {f8:.3}");
    let staging8 = step(SecureMode::SgxMgx, 8).exposed_comm_fraction();
    assert!(
        f8 < staging8 - 0.3,
        "direct {f8:.3} far below staging {staging8:.3} at N=8"
    );
}

#[test]
fn only_the_direct_protocol_strong_scales() {
    // TensorTEE's step time keeps dropping as replicas are added; the
    // staging baseline's serialized all-reduce eats the compute savings
    // and the step gets *slower* than single-NPU.
    let ours: Vec<Time> = [1u32, 2, 4, 8]
        .iter()
        .map(|&n| step(SecureMode::TensorTee, n).total())
        .collect();
    for w in ours.windows(2) {
        assert!(w[1] < w[0], "TensorTEE strong-scales: {ours:?}");
    }
    let base1 = step(SecureMode::SgxMgx, 1).total();
    let base8 = step(SecureMode::SgxMgx, 8).total();
    assert!(
        base8 > base1,
        "staging anti-scales: {base1} -> {base8} at N=8"
    );
    assert!(ours[3] < base8, "TensorTEE wins at N=8");
}

#[test]
fn slow_custom_fabric_surfaces_in_the_weight_phase() {
    // The fp16 re-broadcast pipelines with the CPU→NPU weight stream, so
    // on the default fabric it is free — but a ring slower than the CPU
    // link must become the weight-path bottleneck, not vanish.
    let model = by_name("GPT2-M").unwrap();
    let slow = ClusterConfig {
        n_npus: 4,
        interconnect: Interconnect::Custom {
            bytes_per_sec: 1_000_000_000, // 1 GB/s, far under PCIe's 32
            latency_ns: 600,
        },
    };
    let on_slow = ClusterSystem::new(cfg(), slow, SecureMode::TensorTee).simulate_step(&model);
    let on_pcie = step(SecureMode::TensorTee, 4);
    assert!(
        on_slow.comm_w > on_pcie.comm_w,
        "1 GB/s ring must dominate the weight path: {} vs {}",
        on_slow.comm_w,
        on_pcie.comm_w
    );
    assert!(on_slow.total() > on_pcie.total());
}

#[test]
fn faster_fabric_shrinks_the_all_reduce_phase() {
    let grad = by_name("GPT2-M").unwrap().grad_bytes();
    let pcie = RingAllReduce::new(8, Interconnect::PcieP2p).all_reduce(Protocol::Direct, grad);
    let nvlink = RingAllReduce::new(8, Interconnect::NvlinkLike).all_reduce(Protocol::Direct, grad);
    assert!(nvlink.total() < pcie.total());
    assert_eq!(nvlink.wire_bytes(), pcie.wire_bytes(), "same schedule");
}
