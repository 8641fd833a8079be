//! The end-to-end training-step simulator.
//!
//! Composes the three phase simulators exactly as the paper's evaluation
//! couples gem5 + the NPU simulator + the communication model (§5.1):
//!
//! * NPU forward/backward — `tee-npu` layer engine under the mode's MAC
//!   scheme,
//! * gradient transfer — `tee-comm` protocol (staged vs. direct), with
//!   overlap against the backward phase when the protocol permits,
//! * CPU Adam — `tee-cpu` cacheline-level engine (scaled, then linearly
//!   extrapolated — the phase is bandwidth-bound),
//! * weight transfer — protocol again, overlapping the CPU phase for the
//!   direct protocol (per-tensor pipelining, §4.4).
//!
//! [`ClusterSystem`] extends the composition to N-way data parallelism:
//! it fans one [`StepSchedule`] out over N lockstep NPU replicas, swaps
//! the single backward's gradient production for a secure ring all-reduce
//! ([`tee_comm::ring`]) and accounts the collective as its own `comm_ar`
//! phase in [`ClusterStepBreakdown`]. A one-replica cluster reproduces
//! [`TrainingSystem`] bit-for-bit.

use crate::config::{ClusterConfig, SecureMode, SystemConfig};
use crate::memo::{AdamRun, Memo};
use crate::report::PhaseLedger;
use tee_comm::protocol::TransferBreakdown;
use tee_comm::ring::{AllReduceBreakdown, RingAllReduce};
use tee_cpu::analyzer::TenAnalyzerConfig;
use tee_cpu::{AdamWorkload, TeeMode};
use tee_npu::engine::{Layer as NpuLayer, NpuRunReport};
use tee_npu::{MacScheme, NpuEngine};
use tee_sim::Time;
use tee_workloads::layers::LayerSpec;
use tee_workloads::zoo::ModelConfig;
use tee_workloads::StepSchedule;

/// Per-phase breakdown of one training step (Figures 5 and 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBreakdown {
    /// NPU forward + backward.
    pub npu: Time,
    /// CPU optimizer (Adam).
    pub cpu: Time,
    /// Exposed (non-overlapped) weight-transfer time.
    pub comm_w: Time,
    /// Exposed (non-overlapped) gradient-transfer time.
    pub comm_g: Time,
}

impl StepBreakdown {
    /// The phase labels, in ledger/report order.
    pub const PHASES: [&'static str; 4] = ["NPU", "CPU", "Comm W", "Comm G"];

    /// The ordered phase ledger behind this breakdown; `total()` and
    /// `fractions()` delegate here, and [`crate::report::Report`] ingests
    /// it directly.
    pub fn ledger(&self) -> PhaseLedger {
        PhaseLedger::from_entries([
            (Self::PHASES[0], self.npu),
            (Self::PHASES[1], self.cpu),
            (Self::PHASES[2], self.comm_w),
            (Self::PHASES[3], self.comm_g),
        ])
    }

    /// Total step latency.
    pub fn total(&self) -> Time {
        self.ledger().total()
    }
}

/// Raw (un-overlapped) transfer costs for one step, used by Figure 21.
#[derive(Debug, Clone, Copy)]
pub struct CommCosts {
    /// Gradient-transfer breakdown.
    pub grad: TransferBreakdown,
    /// Weight-transfer breakdown.
    pub weight: TransferBreakdown,
}

/// The backward share of a forward+backward NPU phase of length `npu`:
/// its last ~2/3, the window in which backward produces gradients that an
/// overlapping protocol streams out (§4.4, Figure 15).
pub(crate) fn backward_window(npu: Time) -> Time {
    Time::from_ps(npu.as_ps() * 2 / 3)
}

/// The end-to-end system under one security mode.
#[derive(Debug)]
pub struct TrainingSystem {
    cfg: SystemConfig,
    mode: SecureMode,
    memo: Memo,
}

impl TrainingSystem {
    /// Creates a system. It prices its CPU Adam phase through a private,
    /// empty memo; the artifact runners attach their context's instead,
    /// so systems of one run share work.
    pub fn new(cfg: SystemConfig, mode: SecureMode) -> Self {
        TrainingSystem {
            cfg,
            mode,
            memo: Memo::default(),
        }
    }

    /// Prices through `memo` (builder form).
    pub(crate) fn with_memo(mut self, memo: &Memo) -> Self {
        self.memo = memo.clone();
        self
    }

    /// The active mode.
    pub fn mode(&self) -> SecureMode {
        self.mode
    }

    /// The NPU MAC scheme this mode runs under at the configured MGX
    /// granularity (the design-space explorer reads its traffic overhead
    /// for the crypto objective).
    pub fn mac_scheme(&self) -> MacScheme {
        self.mode.mac_scheme(self.cfg.mgx_mac_granularity)
    }

    fn cpu_mode(&self) -> TeeMode {
        match self.mode {
            SecureMode::NonSecure => TeeMode::NonSecure,
            SecureMode::SgxMgx => TeeMode::Sgx,
            SecureMode::TensorTee => TeeMode::TensorTee(TenAnalyzerConfig::default()),
        }
    }

    /// Converts workload layer specs into NPU engine layers.
    pub(crate) fn npu_layers(specs: &[LayerSpec]) -> Vec<NpuLayer> {
        specs
            .iter()
            .map(|l| NpuLayer {
                macs: l.macs,
                in_bytes: l.in_bytes,
                w_bytes: l.w_bytes,
                out_bytes: l.out_bytes,
            })
            .collect()
    }

    /// Simulates the NPU forward+backward phase (unscaled — analytic).
    pub fn npu_time(&self, schedule: &StepSchedule) -> Time {
        self.npu_report(schedule).total
    }

    /// The full NPU-engine report for the forward+backward phase — the
    /// design-space explorer reads `verify_stall` off it for the
    /// crypto-overhead objective. Priced on a fresh engine every call.
    pub fn npu_report(&self, schedule: &StepSchedule) -> NpuRunReport {
        NpuEngine::new(self.cfg.npu.clone(), self.mac_scheme())
            .run(&Self::npu_layers(&schedule.npu_layers))
    }

    /// Simulates the CPU Adam phase: runs the scaled cacheline-level
    /// engine to steady state and extrapolates linearly. The engine run
    /// is priced once per distinct input in the system's memo.
    pub fn cpu_time(&self, schedule: &StepSchedule) -> Time {
        let scaled = schedule.scaled(self.cfg.sim_scale);
        let report = self.memo.adam(AdamRun {
            cpu: self.cfg.cpu.clone(),
            mode: self.cpu_mode(),
            // Transfer instructions preload the Meta Table (§4.2), so the
            // collaborative steady state has no detection warm-up.
            preload: matches!(self.mode, SecureMode::TensorTee),
            workload: AdamWorkload::from_tensor_sizes(&scaled.adam_tensor_sizes),
            threads: self.cfg.cpu_threads,
            iterations: self.cfg.cpu_iterations,
        });
        let steady = report
            .iterations
            .last()
            .map(|i| i.latency)
            .unwrap_or(Time::ZERO);
        // Extrapolate by the *actual* byte ratio: small tensors are
        // clamped during scaling, so the realized scale can be far below
        // `sim_scale` (the phase is bandwidth-bound, hence linear).
        let ratio = schedule.adam_bytes() as f64 / scaled.adam_bytes().max(1) as f64;
        Time::from_secs_f64(steady.as_secs_f64() * ratio)
    }

    /// Raw transfer costs under this mode's protocol (no overlap
    /// applied). The protocols run on the configuration's CPU↔NPU link
    /// ([`SystemConfig::pcie_link`]) so the bus bandwidth is a
    /// design-space knob; the Table-1 default reproduces the Gen4-×16
    /// numbers bit-for-bit.
    pub fn comm_costs(&self, schedule: &StepSchedule) -> CommCosts {
        let protocol = self.mode.protocol();
        CommCosts {
            grad: protocol.transfer(self.cfg.pcie_link(), schedule.grad_bytes),
            weight: protocol.transfer(self.cfg.pcie_link(), schedule.weight_bytes),
        }
    }

    /// Simulates one full training step of `model`.
    pub fn simulate_step(&mut self, model: &ModelConfig) -> StepBreakdown {
        let schedule = StepSchedule::of(model);
        self.simulate_schedule(&schedule)
    }

    /// Simulates one step from an explicit schedule (tests use scaled
    /// schedules).
    pub fn simulate_schedule(&mut self, schedule: &StepSchedule) -> StepBreakdown {
        let cpu = self.cpu_time(schedule);
        let npu = self.npu_time(schedule);
        let comm = self.comm_costs(schedule);
        self.compose_step(npu, cpu, &comm)
    }

    /// Composes a step breakdown from already-priced phases — the single
    /// place the mode's overlap policy is applied. Callers that need the
    /// phase components anyway (the design-space explorer reads
    /// `verify_stall` and the transfer crypto terms) price them once and
    /// compose here.
    pub fn compose_step(&self, npu: Time, cpu: Time, comm: &CommCosts) -> StepBreakdown {
        let protocol = self.mode.protocol();
        // Gradients hide behind the backward window of the NPU phase;
        // weights pipeline behind the CPU optimizer (§4.4, Figure 15).
        StepBreakdown {
            npu,
            cpu,
            comm_w: protocol.exposed(cpu, comm.weight.total()),
            comm_g: protocol.exposed(backward_window(npu), comm.grad.total()),
        }
    }
}

/// Per-phase breakdown of one data-parallel training step: the
/// [`StepBreakdown`] phases plus the exposed ring all-reduce time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStepBreakdown {
    /// Per-replica NPU forward + backward (replicas run in lockstep).
    pub npu: Time,
    /// CPU optimizer (Adam) on the reduced gradients.
    pub cpu: Time,
    /// Exposed (non-overlapped) weight-transfer time.
    pub comm_w: Time,
    /// Exposed (non-overlapped) gradient NPU→CPU transfer time.
    pub comm_g: Time,
    /// Exposed (non-overlapped) ring all-reduce time.
    pub comm_ar: Time,
}

impl ClusterStepBreakdown {
    /// The phase labels, in ledger/report order: the single-system phases
    /// plus the ring all-reduce.
    pub const PHASES: [&'static str; 5] = ["NPU", "CPU", "Comm W", "Comm G", "Comm AR"];

    /// The ordered phase ledger behind this breakdown; `total()` and
    /// `fractions()` delegate here, and [`crate::report::Report`] ingests
    /// it directly.
    pub fn ledger(&self) -> PhaseLedger {
        PhaseLedger::from_entries([
            (Self::PHASES[0], self.npu),
            (Self::PHASES[1], self.cpu),
            (Self::PHASES[2], self.comm_w),
            (Self::PHASES[3], self.comm_g),
            (Self::PHASES[4], self.comm_ar),
        ])
    }

    /// Total step latency.
    pub fn total(&self) -> Time {
        self.ledger().total()
    }

    /// Phase fractions `(npu, cpu, comm_w, comm_g, comm_ar)` summing to 1.
    pub fn fractions(&self) -> (f64, f64, f64, f64, f64) {
        let f = self.ledger().fractions();
        (f[0].1, f[1].1, f[2].1, f[3].1, f[4].1)
    }

    /// Fraction of the step spent on exposed communication
    /// (`comm_w + comm_g + comm_ar`) — the strong-scaling bottleneck
    /// metric of the `scaling_strong` artifact.
    pub fn exposed_comm_fraction(&self) -> f64 {
        let (_, _, w, g, ar) = self.fractions();
        w + g + ar
    }

    /// The single-system view of this step (drops `comm_ar`); for a
    /// one-replica cluster this *is* the [`TrainingSystem`] breakdown.
    /// Test oracle: the cluster-vs-single-system differential
    /// (`tests/multi_npu.rs`, the system tests) compares through it.
    pub fn single(&self) -> StepBreakdown {
        StepBreakdown {
            npu: self.npu,
            cpu: self.cpu,
            comm_w: self.comm_w,
            comm_g: self.comm_g,
        }
    }
}

/// N-way data-parallel training: one CPU TEE, N lockstep NPU TEEs, and a
/// secure ring all-reduce for gradient aggregation.
///
/// The composition per step:
///
/// 1. every replica runs forward + backward on its `1/N` batch shard
///    (same wall-clock on a homogeneous cluster),
/// 2. gradients ring-all-reduce across the NPUs under the mode's
///    [`SecureMode::protocol`] ([`RingAllReduce::all_reduce`]); the direct
///    protocol overlaps the backward window, the staging protocol
///    serializes (§3.3),
/// 3. the reduced fp32 gradient shards stream NPU → CPU (each rank sends
///    its shard, so the CPU link still carries exactly `grad_bytes`),
/// 4. the CPU runs Adam on the reduced gradients — optimizer state is not
///    replicated, so this phase is independent of N,
/// 5. fp16 weights stream CPU → NPU, then re-broadcast over the ring
///    pipelined with the CPU→NPU stream: the weight path costs the
///    *slower* of the two traversals ([`RingAllReduce::broadcast`]),
///    which collapses to today's CPU-link cost whenever the ring is at
///    least as fast — and surfaces the fabric as the bottleneck when it
///    is not (e.g. a slow `Interconnect::Custom`).
#[derive(Debug)]
pub struct ClusterSystem {
    sys: TrainingSystem,
    cluster: ClusterConfig,
}

impl ClusterSystem {
    /// Creates a cluster system.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has zero NPUs.
    pub fn new(cfg: SystemConfig, cluster: ClusterConfig, mode: SecureMode) -> Self {
        assert!(cluster.n_npus > 0, "a cluster needs at least one NPU");
        ClusterSystem {
            sys: TrainingSystem::new(cfg, mode),
            cluster,
        }
    }

    /// Prices through `memo` (builder form; see
    /// [`TrainingSystem::new`]).
    pub(crate) fn with_memo(mut self, memo: &Memo) -> Self {
        self.sys = self.sys.with_memo(memo);
        self
    }

    /// The active mode.
    pub fn mode(&self) -> SecureMode {
        self.sys.mode()
    }

    /// Cost of ring-all-reducing `grad_bytes` under this mode's protocol.
    pub fn all_reduce_cost(&self, grad_bytes: u64) -> AllReduceBreakdown {
        RingAllReduce::new(self.cluster.n_npus, self.cluster.interconnect)
            .all_reduce(self.mode().protocol(), grad_bytes)
    }

    /// Cost of re-broadcasting the `weight_bytes` fp16 update from the
    /// CPU-attached rank to the other replicas (pipelined ring traversal;
    /// zero for a single replica).
    pub fn weight_broadcast_cost(&self, weight_bytes: u64) -> Time {
        RingAllReduce::new(self.cluster.n_npus, self.cluster.interconnect)
            .broadcast(self.mode().protocol(), weight_bytes)
            .total()
    }

    /// Simulates one full data-parallel training step of `model`.
    pub fn simulate_step(&mut self, model: &ModelConfig) -> ClusterStepBreakdown {
        let schedule = StepSchedule::of(model);
        self.simulate_schedule(&schedule)
    }

    /// Simulates one step from an explicit (global-batch) schedule.
    pub fn simulate_schedule(&mut self, schedule: &StepSchedule) -> ClusterStepBreakdown {
        let replica = schedule.data_parallel_replica(self.cluster.n_npus);
        let cpu = self.sys.cpu_time(&replica);
        self.simulate_with_cpu_time(schedule, cpu)
    }

    /// [`Self::simulate_schedule`] with the CPU Adam phase supplied by
    /// the caller (the optimizer runs on the reduced gradients, so its
    /// cost is independent of the replica count); the DES differentials
    /// (`tests/des_cluster.rs`) feed both engines one fixed CPU phase
    /// through it.
    pub fn simulate_with_cpu_time(
        &mut self,
        schedule: &StepSchedule,
        cpu: Time,
    ) -> ClusterStepBreakdown {
        let replica = schedule.data_parallel_replica(self.cluster.n_npus);
        let npu = self.sys.npu_time(&replica);
        let comm = self.sys.comm_costs(&replica);
        let ar = self.all_reduce_cost(replica.grad_bytes);
        let bcast = self.weight_broadcast_cost(replica.weight_bytes);
        self.compose_step(npu, cpu, &comm, &ar, bcast)
    }

    /// Composes a cluster step from already-priced phases (the replica
    /// transfers, the ring collective, and the weight re-broadcast) —
    /// the cluster analogue of [`TrainingSystem::compose_step`].
    pub fn compose_step(
        &self,
        npu: Time,
        cpu: Time,
        comm: &CommCosts,
        ar: &AllReduceBreakdown,
        weight_broadcast: Time,
    ) -> ClusterStepBreakdown {
        // The ring re-broadcast pipelines with the CPU→NPU weight stream,
        // so the weight path is bounded by the slower traversal.
        let weight_path = comm.weight.total().max(weight_broadcast);
        let protocol = self.mode().protocol();
        // The all-reduce starts as backward produces gradient buckets,
        // hiding in the same backward window the point-to-point transfer
        // used; the reduced-shard NPU→CPU stream then hides in whatever
        // window remains (§4.4, Figure 15).
        let bwd_window = backward_window(npu);
        let window_left = bwd_window.saturating_sub(ar.total());
        ClusterStepBreakdown {
            npu,
            cpu,
            comm_w: protocol.exposed(cpu, weight_path),
            comm_g: protocol.exposed(window_left, comm.grad.total()),
            comm_ar: protocol.exposed(bwd_window, ar.total()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tee_workloads::zoo::by_name;

    fn fast() -> SystemConfig {
        SystemConfig::fast_sim()
    }

    #[test]
    fn tensortee_beats_sgx_mgx() {
        let model = by_name("GPT2-M").unwrap();
        let base = TrainingSystem::new(fast(), SecureMode::SgxMgx).simulate_step(&model);
        let ours = TrainingSystem::new(fast(), SecureMode::TensorTee).simulate_step(&model);
        let speedup = base.total().as_secs_f64() / ours.total().as_secs_f64();
        assert!(speedup > 1.5, "expected a clear win, got {speedup:.2}x");
    }

    #[test]
    fn tensortee_close_to_non_secure() {
        let model = by_name("GPT2-M").unwrap();
        let ns = TrainingSystem::new(fast(), SecureMode::NonSecure).simulate_step(&model);
        let ours = TrainingSystem::new(fast(), SecureMode::TensorTee).simulate_step(&model);
        let overhead = ours.total().as_secs_f64() / ns.total().as_secs_f64() - 1.0;
        assert!(
            overhead < 0.20,
            "TensorTEE should be near non-secure (paper: 2.1%), got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn sgx_mgx_comm_dominates() {
        // Figure 5: communication grows from ~12% to ~50%+ under SGX+MGX.
        let model = by_name("GPT2-M").unwrap();
        // Ledger order: NPU, CPU, Comm W, Comm G.
        let comm_share = |mode| {
            let f = TrainingSystem::new(fast(), mode)
                .simulate_step(&model)
                .ledger()
                .fractions();
            f[2].1 + f[3].1
        };
        let base = comm_share(SecureMode::SgxMgx);
        assert!(
            base > 0.3,
            "staged communication should dominate: {base:.2}"
        );
        let ns = comm_share(SecureMode::NonSecure);
        assert!(ns < base, "non-secure comm share is smaller");
    }

    #[test]
    fn fractions_sum_to_one() {
        let model = by_name("GPT").unwrap();
        let b = TrainingSystem::new(fast(), SecureMode::NonSecure).simulate_step(&model);
        let sum: f64 = b.ledger().fractions().iter().map(|&(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_replica_cluster_matches_single_system() {
        // The N=1 cluster must reproduce TrainingSystem bit-for-bit in
        // every mode, with a zero all-reduce phase.
        let model = by_name("GPT").unwrap();
        for mode in SecureMode::all() {
            let single = TrainingSystem::new(fast(), mode).simulate_step(&model);
            let cluster =
                ClusterSystem::new(fast(), ClusterConfig::single(), mode).simulate_step(&model);
            assert_eq!(cluster.comm_ar, Time::ZERO, "{}", mode.label());
            assert_eq!(cluster.single(), single, "{}", mode.label());
        }
    }

    #[test]
    fn cluster_fractions_sum_to_one() {
        let model = by_name("GPT").unwrap();
        let b = ClusterSystem::new(fast(), ClusterConfig::of(4), SecureMode::TensorTee)
            .simulate_step(&model);
        let (n, c, w, g, ar) = b.fractions();
        assert!((n + c + w + g + ar - 1.0).abs() < 1e-9);
        assert!((b.exposed_comm_fraction() - (w + g + ar)).abs() < 1e-12);
    }

    #[test]
    fn ledger_matches_fields_bit_for_bit() {
        // The shared PhaseLedger must reproduce the hand-summed totals
        // exactly (same Time addition, same order).
        let model = by_name("GPT2-M").unwrap();
        let b = TrainingSystem::new(fast(), SecureMode::SgxMgx).simulate_step(&model);
        let l = b.ledger();
        assert_eq!(l.total(), b.npu + b.cpu + b.comm_w + b.comm_g);
        let labels: Vec<&str> = l.fractions().iter().map(|&(label, _)| label).collect();
        assert_eq!(labels, StepBreakdown::PHASES);
        let c = ClusterSystem::new(fast(), ClusterConfig::of(4), SecureMode::SgxMgx)
            .simulate_step(&model);
        let cl = c.ledger();
        assert_eq!(cl.total(), c.npu + c.cpu + c.comm_w + c.comm_g + c.comm_ar);
        // A one-replica cluster's ledger is the single-system ledger plus
        // a zero all-reduce entry.
        let one = ClusterSystem::new(fast(), ClusterConfig::single(), SecureMode::SgxMgx)
            .simulate_step(&model);
        assert_eq!(
            one.single().ledger().total() + one.comm_ar,
            one.ledger().total()
        );
    }

    #[test]
    fn supplied_cpu_time_reproduces_the_step_bit_for_bit() {
        // A CPU phase priced once and composed with separately priced
        // components (the explorer's path) must give exactly the
        // all-in-one breakdown.
        let model = by_name("GPT").unwrap();
        let schedule = StepSchedule::of(&model);
        for mode in SecureMode::all() {
            let mut sys = TrainingSystem::new(fast(), mode);
            let cpu = sys.cpu_time(&schedule);
            let direct = sys.simulate_schedule(&schedule);
            let composed_parts = {
                let sys = TrainingSystem::new(fast(), mode);
                sys.compose_step(
                    sys.npu_report(&schedule).total,
                    cpu,
                    &sys.comm_costs(&schedule),
                )
            };
            assert_eq!(direct, composed_parts, "{}", mode.label());
            let mut cluster = ClusterSystem::new(fast(), ClusterConfig::of(4), mode);
            let replica = schedule.data_parallel_replica(4);
            let cpu = TrainingSystem::new(fast(), mode).cpu_time(&replica);
            let via_sim = cluster.simulate_schedule(&schedule);
            assert_eq!(
                via_sim,
                cluster.simulate_with_cpu_time(&schedule, cpu),
                "{}",
                mode.label()
            );
            let inner = TrainingSystem::new(fast(), mode);
            let ar = cluster.all_reduce_cost(replica.grad_bytes);
            let bcast = cluster.weight_broadcast_cost(replica.weight_bytes);
            assert_eq!(
                via_sim,
                cluster.compose_step(
                    inner.npu_report(&replica).total,
                    cpu,
                    &inner.comm_costs(&replica),
                    &ar,
                    bcast
                ),
                "{}",
                mode.label()
            );
        }
    }

    #[test]
    fn pcie_and_mac_granularity_knobs_move_the_step() {
        let model = by_name("GPT2-M").unwrap();
        // Halving the bus bandwidth slows the staged (serialized) step.
        let mut slow_bus = fast();
        slow_bus.pcie_bytes_per_sec /= 2.0;
        let base = TrainingSystem::new(fast(), SecureMode::SgxMgx).simulate_step(&model);
        let slowed = TrainingSystem::new(slow_bus, SecureMode::SgxMgx).simulate_step(&model);
        assert!(slowed.total() > base.total());
        // A coarser MGX MAC block stalls the NPU verify pipeline harder.
        let mut coarse = fast();
        coarse.mgx_mac_granularity = 4096;
        let stalled = TrainingSystem::new(coarse, SecureMode::SgxMgx).simulate_step(&model);
        assert!(stalled.npu > base.npu, "{} vs {}", stalled.npu, base.npu);
        // Neither knob touches the other modes' NPU phase.
        let ours = TrainingSystem::new(fast(), SecureMode::TensorTee).simulate_step(&model);
        let mut both = fast();
        both.mgx_mac_granularity = 4096;
        let ours_knobbed = TrainingSystem::new(both, SecureMode::TensorTee).simulate_step(&model);
        assert_eq!(ours.npu, ours_knobbed.npu);
    }

    #[test]
    fn speedup_grows_with_model_size() {
        // Figure 16's trend: larger models benefit more.
        let small = by_name("GPT").unwrap();
        let large = by_name("OPT-2.7B").unwrap();
        let speedup = |m| {
            let base = TrainingSystem::new(fast(), SecureMode::SgxMgx).simulate_step(&m);
            let ours = TrainingSystem::new(fast(), SecureMode::TensorTee).simulate_step(&m);
            base.total().as_secs_f64() / ours.total().as_secs_f64()
        };
        let s_small = speedup(small);
        let s_large = speedup(large);
        assert!(
            s_large > s_small,
            "speedup should grow with model size: {s_small:.2} -> {s_large:.2}"
        );
    }
}
