//! Design-space exploration over the TensorTEE system models — the
//! `explore_pareto` / `explore_sensitivity` artifacts and the engine
//! behind `tensortee explore <train|cluster|serve|des|fleet>`.
//!
//! The paper evaluates its headline claims at a handful of hand-picked
//! hardware points; this module asks *where in the hardware/security
//! space* the TensorTEE advantage holds or collapses. A [`Scenario`]
//! names knobs over the existing configurations (bus and HBM bandwidth,
//! PE-array size, MGX MAC granularity, batch, cluster shape, serving
//! load, model from the Table-2 zoo), `tee-explore` samples the space
//! (full grid when it fits the point budget, seeded Latin hypercube
//! otherwise) and fans the points across worker threads, and every point
//! is priced through the *existing* simulators —
//! [`TrainingSystem`] / [`ClusterSystem`] / [`tee_serve::simulate`] —
//! under every security mode. Four objectives come back per evaluation
//! (one per [`Objective`] variant):
//!
//! 1. **throughput** (tokens/s — maximize),
//! 2. **exposed transfer time** (non-overlapped communication or KV
//!    migration — minimize),
//! 3. **crypto-traffic overhead** (staging re-encryption, verify stalls,
//!    MAC traffic — as a fraction of the step/makespan — minimize),
//! 4. **leakage** (bits per observed transfer a link-level adversary can
//!    extract, [`tee_attack`]'s estimators — minimize; priced by the
//!    attack scenario, zero elsewhere).
//!
//! The analysis layer distills the evaluations into a multi-objective
//! Pareto frontier, per-knob one-at-a-time tornado sensitivities, and
//! the **crossover** report: sampled configurations (if any) where the
//! SGX+MGX-style baseline overtakes TensorTEE.
//!
//! Everything is deterministic: the sampling plan is a pure function of
//! `(space, points, seed)`, each evaluation is a function of its point
//! alone (any seeded trace it draws is a fixed sub-stream of the context
//! seed shared by every point), and the executor returns results in
//! point order, so reports are byte-identical for any `--threads`
//! value.

use crate::artifact::{RunContext, FLEET_TENANTS, SERVE_RATE_RPS};
use crate::config::{ClusterConfig, SecureMode};
use crate::des_cluster::{DesClusterConfig, DesClusterSystem, Parallelism};
use crate::experiments::{mode_key, serve_profile};
use crate::report::{pct, Report, Table};
use crate::system::{ClusterSystem, TrainingSystem};
use std::collections::BTreeMap;
use tee_attack::{
    extractable_bits, size_bucket, KvShield, Observation, Shaping, MEASUREMENT_QUANTUM,
};
use tee_comm::Interconnect;
use tee_explore::{dominator_of, pareto_frontier, tornado, Executor, Knob, Point, Sense, Space};
use tee_fleet::{simulate as fleet_simulate, FleetConfig, Policy};
use tee_mem::DramConfig;
use tee_serve::{
    kv_transfer_time, simulate, simulate_probed, Diurnal, Protocol, ServeConfig,
    SessionTraceConfig, TraceConfig,
};
use tee_sim::probe::SharedProbe;
use tee_sim::{SplitMix64, Time};
use tee_workloads::zoo::ModelConfig;
use tee_workloads::StepSchedule;

/// The workload class a design-space sweep prices its points through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Single-NPU ZeRO-Offload training steps ([`TrainingSystem`]).
    Train,
    /// N-way data-parallel training with the secure ring all-reduce
    /// ([`ClusterSystem`]).
    Cluster,
    /// Continuous-batching inference serving ([`tee_serve`]).
    Serve,
    /// Discrete-event cluster training — heterogeneous NPUs and pipeline
    /// schedules the analytic model cannot price
    /// ([`crate::DesClusterSystem`]).
    Des,
    /// Fleet serving — M instances behind the KV-aware router with
    /// priced secure KV handoffs ([`tee_fleet`]).
    Fleet,
    /// Link-level adversary vs. priced defenses: traced serving runs
    /// scored by [`tee_attack`]'s leakage estimators, with traffic
    /// shaping and shielded-at-rest KV as knobs.
    Attack,
}

impl Scenario {
    /// Display label (also the CLI subcommand argument).
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Train => "train",
            Scenario::Cluster => "cluster",
            Scenario::Serve => "serve",
            Scenario::Des => "des",
            Scenario::Fleet => "fleet",
            Scenario::Attack => "attack",
        }
    }

    /// Parses a CLI scenario argument.
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s2| s2.label() == s)
    }

    /// All scenarios, in presentation order.
    pub fn all() -> [Scenario; 6] {
        [
            Scenario::Train,
            Scenario::Cluster,
            Scenario::Serve,
            Scenario::Des,
            Scenario::Fleet,
            Scenario::Attack,
        ]
    }
}

/// One optimization objective of an [`ModeEval`]. The single source of
/// truth for objective names, order, and senses: CLI usage, frontier
/// table headers, [`SENSES`], and [`ModeEval::objectives`] all derive
/// from it, so they cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// End-to-end token throughput (maximize).
    Throughput,
    /// Exposed (non-overlapped) transfer / KV-migration time (minimize).
    Exposed,
    /// Crypto-traffic overhead as a fraction of the step or makespan
    /// (minimize).
    Crypto,
    /// Bits per observed transfer a link-level adversary can extract
    /// (minimize).
    Leakage,
}

impl Objective {
    /// Display label (report headers, CLI usage).
    pub fn label(&self) -> &'static str {
        match self {
            Objective::Throughput => "throughput",
            Objective::Exposed => "exposed",
            Objective::Crypto => "crypto",
            Objective::Leakage => "leakage",
        }
    }

    /// All objectives, in [`ModeEval::objectives`] order.
    pub fn all() -> [Objective; 4] {
        [
            Objective::Throughput,
            Objective::Exposed,
            Objective::Crypto,
            Objective::Leakage,
        ]
    }
}

/// The optimization senses in [`Objective::all`] order:
/// `[throughput ↑, exposed transfer ↓, crypto-traffic overhead ↓,
/// leakage ↓]` (a unit test pins the correspondence).
pub const SENSES: [Sense; 4] = [
    Sense::Maximize,
    Sense::Minimize,
    Sense::Minimize,
    Sense::Minimize,
];

/// One priced evaluation: a sampled hardware point under one mode.
#[derive(Debug, Clone)]
pub struct ModeEval {
    /// The security mode.
    pub mode: SecureMode,
    /// Objective 1: end-to-end token throughput (training: batch tokens
    /// per step; serving: goodput).
    pub throughput_tps: f64,
    /// Objective 2: exposed (non-overlapped) transfer / KV-migration
    /// time.
    pub exposed: Time,
    /// Objective 3: crypto-traffic overhead as a fraction of the step or
    /// makespan (staging re-encryption + verify stalls + MAC traffic).
    pub crypto_frac: f64,
    /// Objective 4: bits per observed transfer a link-level adversary
    /// extracts from the run ([`tee_attack`]). Only the attack scenario
    /// traces its runs and prices this; the other evaluators report
    /// zero, which leaves their dominance relations untouched.
    pub leakage_bits: f64,
}

impl ModeEval {
    /// The objective vector in [`Objective::all`] / [`SENSES`] order
    /// (exposed time in milliseconds).
    pub fn objectives(&self) -> Vec<f64> {
        vec![
            self.throughput_tps,
            self.exposed.as_ms_f64(),
            self.crypto_frac,
            self.leakage_bits,
        ]
    }
}

/// A completed sweep: the space, the sampled points, and the per-point,
/// per-mode evaluations.
#[derive(Debug, Clone)]
pub struct ExploreRun {
    /// The knob space.
    pub space: Space,
    /// The sampled points, in sampling-plan order.
    pub points: Vec<Point>,
    /// `evals[i][j]`: point `i` under `ctx.modes[j]`.
    pub evals: Vec<Vec<ModeEval>>,
}

impl ExploreRun {
    /// The evaluations flattened point-major: `(point index, eval)`.
    pub fn flat(&self) -> Vec<(usize, &ModeEval)> {
        self.points
            .iter()
            .enumerate()
            .flat_map(|(i, _)| self.evals[i].iter().map(move |e| (i, e)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Spaces.
// ---------------------------------------------------------------------

/// The model knob shared by every scenario: levels are indices into
/// `ctx.models`, labelled with the model names.
fn model_knob(ctx: &RunContext) -> Knob {
    Knob::labeled(
        "model",
        ctx.models
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, i as f64)),
    )
}

/// The knob space of `scenario` over `ctx` (see the module docs for the
/// knob list).
pub fn space_for(scenario: Scenario, ctx: &RunContext) -> Space {
    match scenario {
        Scenario::Train => Space::new(vec![
            model_knob(ctx),
            Knob::numeric("batch x", [0.5, 1.0, 2.0]),
            Knob::numeric("PCIe GB/s", [16.0, 32.0, 64.0]),
            Knob::numeric("HBM GB/s", [64.0, 128.0, 256.0]),
            Knob::numeric("PE dim", [256.0, 512.0, 1024.0]),
            Knob::numeric("MGX MAC B", [64.0, 512.0, 4096.0]),
        ]),
        Scenario::Cluster => Space::new(vec![
            model_knob(ctx),
            Knob::numeric("NPUs", ctx.cluster_sizes.iter().map(|&n| f64::from(n))),
            Knob::labeled("fabric", [("pcie-p2p", 0.0), ("nvlink", 1.0)]),
            Knob::numeric("PCIe GB/s", [16.0, 32.0, 64.0]),
            Knob::numeric("HBM GB/s", [64.0, 128.0, 256.0]),
            Knob::numeric("PE dim", [256.0, 512.0, 1024.0]),
        ]),
        Scenario::Serve => Space::new(vec![
            model_knob(ctx),
            Knob::numeric("load x", [0.5, 1.0, 2.0, 4.0]),
            Knob::numeric("HBM GB/s", [64.0, 128.0, 256.0]),
            Knob::numeric("PE dim", [256.0, 512.0, 1024.0]),
            Knob::numeric("KV resident reqs", [2.0, 4.0, 8.0]),
        ]),
        Scenario::Des => Space::new(vec![
            model_knob(ctx),
            Knob::numeric("NPUs", ctx.cluster_sizes.iter().map(|&n| f64::from(n))),
            Knob::labeled("fabric", [("pcie-p2p", 0.0), ("nvlink", 1.0)]),
            Knob::numeric("straggler", ctx.straggler_factors.iter().copied()),
            Knob::labeled("layout", [("data", 0.0), ("pipeline", 1.0)]),
            Knob::numeric(
                "microbatches",
                ctx.pipeline_microbatches.iter().map(|&m| f64::from(m)),
            ),
        ]),
        Scenario::Fleet => Space::new(vec![
            model_knob(ctx),
            Knob::numeric("instances", [2.0, 4.0, 8.0]),
            Knob::labeled(
                "placement",
                Policy::all()
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.label(), i as f64)),
            ),
            Knob::numeric("load x", [0.5, 1.0, 2.0]),
            Knob::labeled("traffic", [("steady", 0.0), ("diurnal", 1.0)]),
        ]),
        Scenario::Attack => Space::new(vec![
            model_knob(ctx),
            // The adversary watches a loaded server: below the base
            // rate the KV budget rarely spills and there is nothing on
            // the wire to read.
            Knob::numeric("load x", [1.0, 2.0, 4.0]),
            Knob::labeled(
                "shaping",
                Shaping::all()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.label(), i as f64)),
            ),
            Knob::labeled(
                "kv at rest",
                KvShield::all()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.label(), i as f64)),
            ),
        ]),
    }
}

// ---------------------------------------------------------------------
// Point pricing.
// ---------------------------------------------------------------------

/// A GDDR/HBM configuration scaled to `gbps` aggregate GB/s (Table-1
/// channel geometry).
fn hbm_dram(gbps: f64) -> DramConfig {
    let base = DramConfig::gddr5_128gbs();
    DramConfig {
        channel_bytes_per_sec: gbps * 1e9 / f64::from(base.channels),
        ..base
    }
}

/// The model named by knob 0 of `point`.
fn model_at(ctx: &RunContext, space: &Space, point: &Point) -> ModelConfig {
    ctx.models[space.value(point, 0) as usize]
}

/// Prices one training point under every context mode.
fn eval_train(ctx: &RunContext, space: &Space, point: &Point) -> Vec<ModeEval> {
    let mut model = model_at(ctx, space, point);
    model.batch_size = ((model.batch_size as f64 * space.value(point, 1)).round() as u64).max(1);
    let mut cfg = ctx.cfg.clone();
    cfg.pcie_bytes_per_sec = space.value(point, 2) * 1e9;
    cfg.npu.dram = hbm_dram(space.value(point, 3));
    cfg.npu.pe_dim = space.value(point, 4) as u64;
    cfg.mgx_mac_granularity = space.value(point, 5) as u64;
    let schedule = StepSchedule::of(&model);
    ctx.modes
        .iter()
        .map(|&mode| {
            // Price the CPU and NPU phases and the transfers once, then
            // compose the step from them — the same components feed the
            // crypto objective. The CPU phase depends on no point knob,
            // so the context memo serves it across points.
            let sys = TrainingSystem::new(cfg.clone(), mode).with_memo(&ctx.memo);
            let cpu = sys.cpu_time(&schedule);
            let npu = sys.npu_report(&schedule);
            let comm = sys.comm_costs(&schedule);
            let step = sys.compose_step(npu.total, cpu, &comm);
            let crypto = comm.grad.re_encryption
                + comm.grad.decryption
                + comm.weight.re_encryption
                + comm.weight.decryption
                + npu.verify_stall;
            let total = step.total();
            ModeEval {
                mode,
                throughput_tps: model.tokens_per_step() as f64 / total.as_secs_f64(),
                exposed: step.comm_w + step.comm_g,
                crypto_frac: crypto.as_secs_f64() / total.as_secs_f64()
                    + sys.mac_scheme().traffic_overhead(),
                leakage_bits: 0.0,
            }
        })
        .collect()
}

/// Prices one cluster point under every context mode.
fn eval_cluster(ctx: &RunContext, space: &Space, point: &Point) -> Vec<ModeEval> {
    let model = model_at(ctx, space, point);
    let n_npus = space.value(point, 1) as u32;
    let interconnect = if space.value(point, 2) == 0.0 {
        Interconnect::PcieP2p
    } else {
        Interconnect::NvlinkLike
    };
    let mut cfg = ctx.cfg.clone();
    cfg.pcie_bytes_per_sec = space.value(point, 3) * 1e9;
    cfg.npu.dram = hbm_dram(space.value(point, 4));
    cfg.npu.pe_dim = space.value(point, 5) as u64;
    let cluster = ClusterConfig {
        n_npus,
        interconnect,
    };
    let schedule = StepSchedule::of(&model);
    let replica = schedule.data_parallel_replica(n_npus);
    ctx.modes
        .iter()
        .map(|&mode| {
            let sys = ClusterSystem::new(cfg.clone(), cluster, mode);
            // Price each phase once (replica transfers, collective,
            // broadcast), compose the step, and feed the same components
            // into the crypto objective. Adam runs on the reduced
            // (model-sized) gradients, so the memoized CPU phase is the
            // same at any N.
            let point_sys = TrainingSystem::new(cfg.clone(), mode).with_memo(&ctx.memo);
            let cpu = point_sys.cpu_time(&replica);
            let npu = point_sys.npu_report(&replica);
            let comm = point_sys.comm_costs(&replica);
            let ar = sys.all_reduce_cost(replica.grad_bytes);
            let bcast = sys.weight_broadcast_cost(replica.weight_bytes);
            let step = sys.compose_step(npu.total, cpu, &comm, &ar, bcast);
            let crypto = comm.grad.re_encryption
                + comm.grad.decryption
                + comm.weight.re_encryption
                + comm.weight.decryption
                + ar.re_encryption
                + ar.decryption
                + npu.verify_stall;
            let total = step.total();
            ModeEval {
                mode,
                throughput_tps: model.tokens_per_step() as f64 / total.as_secs_f64(),
                exposed: step.comm_w + step.comm_g + step.comm_ar,
                crypto_frac: crypto.as_secs_f64() / total.as_secs_f64()
                    + point_sys.mac_scheme().traffic_overhead(),
                leakage_bits: 0.0,
            }
        })
        .collect()
}

/// Prices one discrete-event cluster point under every context mode. The
/// layout knob selects data-parallel (straggler skew on the collective)
/// or pipeline-parallel (boundary activations contending on the fabric);
/// the microbatch knob only binds in the pipeline layout. The step runs
/// through [`crate::DesClusterSystem`] — event replay rather than the
/// analytic fold — so the exposed and crypto objectives reflect queueing
/// a closed form cannot see.
fn eval_des(ctx: &RunContext, space: &Space, point: &Point) -> Vec<ModeEval> {
    let model = model_at(ctx, space, point);
    let n_npus = space.value(point, 1) as u32;
    let interconnect = if space.value(point, 2) == 0.0 {
        Interconnect::PcieP2p
    } else {
        Interconnect::NvlinkLike
    };
    let straggler = space.value(point, 3);
    let parallelism = if space.value(point, 4) == 0.0 {
        Parallelism::Data
    } else {
        Parallelism::Pipeline {
            microbatches: space.value(point, 5) as u32,
        }
    };
    let des_cfg = DesClusterConfig {
        cluster: ClusterConfig {
            n_npus,
            interconnect,
        },
        straggler_factor: straggler,
        parallelism,
    };
    let schedule = StepSchedule::of(&model);
    ctx.modes
        .iter()
        .map(|&mode| {
            // Adam runs on the reduced (model-sized) gradients in both
            // layouts, so every point shares the memoized (model, mode)
            // CPU phase.
            let report = DesClusterSystem::new(ctx.cfg.clone(), des_cfg, mode)
                .with_memo(&ctx.memo)
                .simulate_schedule(&schedule);
            let b = report.breakdown;
            let total = report.makespan;
            let mac = mode.mac_scheme(ctx.cfg.mgx_mac_granularity);
            ModeEval {
                mode,
                throughput_tps: model.tokens_per_step() as f64 / total.as_secs_f64(),
                exposed: b.comm_w + b.comm_g + b.comm_ar,
                crypto_frac: report.crypto.as_secs_f64() / total.as_secs_f64()
                    + mac.traffic_overhead(),
                leakage_bits: 0.0,
            }
        })
        .collect()
}

/// The crypto share of one KV transfer under `protocol`: the fraction of
/// a reference migration's wall-clock that is staging conversion rather
/// than bus/DRAM time (0 for the plain and direct paths).
fn kv_crypto_share(protocol: Protocol) -> f64 {
    const REF_BYTES: u64 = 64 << 20;
    let plain = kv_transfer_time(Protocol::Plain, REF_BYTES).as_secs_f64();
    let own = kv_transfer_time(protocol, REF_BYTES).as_secs_f64();
    if own <= 0.0 {
        0.0
    } else {
        (1.0 - plain / own).max(0.0)
    }
}

/// Prices one serving point under every context mode. The request trace
/// is shared across the modes (a fair comparison needs identical
/// arrivals) and its seed is a fixed sub-stream of the context seed,
/// identical for *every point*: common random numbers, so comparing two
/// points (and the tornado's one-at-a-time swings) measures the knobs,
/// not trace resampling noise. The load knob still reshapes arrivals —
/// the same uniform draws stretch to the new rate.
fn eval_serve(ctx: &RunContext, space: &Space, point: &Point) -> Vec<ModeEval> {
    let model = model_at(ctx, space, point);
    let rate = SERVE_RATE_RPS * space.value(point, 1);
    let mut npu = ctx.cfg.npu.clone();
    npu.dram = hbm_dram(space.value(point, 2));
    npu.pe_dim = space.value(point, 3) as u64;
    let resident = space.value(point, 4) as u64;
    let trace_seed = SplitMix64::new(ctx.seed).split(0).next_u64();
    let mut trace_cfg = TraceConfig::poisson(ctx.serve_requests, rate, trace_seed);
    ctx.trim_serve_trace(&mut trace_cfg);
    let cfg = ServeConfig::for_model(&model, resident, trace_cfg.steady_tokens()).with_npu(npu);
    let trace = trace_cfg.generate();
    ctx.modes
        .iter()
        .map(|&mode| {
            let profile = serve_profile(mode, &ctx.cfg);
            let rep = simulate(&cfg, &model, &profile, &trace);
            let makespan = rep.makespan.as_secs_f64().max(1e-12);
            let kv_crypto =
                rep.kv_transfer_time.as_secs_f64() * kv_crypto_share(profile.kv_protocol);
            ModeEval {
                mode,
                throughput_tps: rep.goodput_tps(),
                exposed: rep.kv_exposed_time,
                crypto_frac: profile.mac.traffic_overhead() + kv_crypto / makespan,
                leakage_bits: 0.0,
            }
        })
        .collect()
}

/// Prices one fleet point under every context mode. Like the serving
/// evaluator, the session trace is a common-random-numbers design: its
/// seed is a fixed sub-stream of the context seed shared by every point,
/// so knob comparisons measure the knobs, not trace resampling. The load
/// knob stretches the same arrival draws; the traffic knob overlays a
/// diurnal modulation on them.
fn eval_fleet(ctx: &RunContext, space: &Space, point: &Point) -> Vec<ModeEval> {
    let model = model_at(ctx, space, point);
    let instances = space.value(point, 1) as usize;
    let policy = Policy::all()[space.value(point, 2) as usize];
    let rate = ctx.fleet_rate_rps * space.value(point, 3);
    let trace_seed = SplitMix64::new(ctx.seed).split(1).next_u64();
    let mut trace_cfg =
        SessionTraceConfig::poisson(ctx.fleet_requests, rate, FLEET_TENANTS, trace_seed);
    if space.value(point, 4) == 1.0 {
        trace_cfg = trace_cfg.with_diurnal(Diurnal::new(4.0, 0.6));
    }
    ctx.trim_fleet_trace(&mut trace_cfg);
    let serve =
        ServeConfig::for_model(&model, 4, trace_cfg.steady_tokens()).with_npu(ctx.cfg.npu.clone());
    let cfg = FleetConfig::new(serve, instances).with_policy(policy);
    let trace = trace_cfg.generate();
    ctx.modes
        .iter()
        .map(|&mode| {
            let profile = serve_profile(mode, &ctx.cfg);
            let rep = fleet_simulate(&cfg, &model, &profile, &trace);
            let makespan = rep.makespan.as_secs_f64().max(1e-12);
            let kv_crypto =
                rep.handoff_transfer_time.as_secs_f64() * kv_crypto_share(profile.kv_protocol);
            ModeEval {
                mode,
                throughput_tps: rep.goodput_tps(),
                exposed: rep.handoff_exposed_time,
                crypto_frac: profile.mac.traffic_overhead() + kv_crypto / makespan,
                leakage_bits: 0.0,
            }
        })
        .collect()
}

/// Prices one adversary point under every context mode. Each mode's
/// serving run is traced into a *fresh, private* recording probe (the
/// context probe is never consulted, so reports stay byte-identical
/// with tracing on or off); the link-level view is derived from the
/// snapshot, the shaping and at-rest knobs are applied, and the point
/// comes back with both the residual leakage and the defense bill:
/// padding time stretches the makespan and the exposure, the
/// re-encrypt/verify pass lands in the crypto objective. The trace
/// seed is a common-random-numbers sub-stream like the serving and
/// fleet evaluators (stream 2).
fn eval_attack(ctx: &RunContext, space: &Space, point: &Point) -> Vec<ModeEval> {
    let model = model_at(ctx, space, point);
    let rate = SERVE_RATE_RPS * space.value(point, 1);
    let shaping = Shaping::all()[space.value(point, 2) as usize];
    let shield = KvShield::all()[space.value(point, 3) as usize];
    let trace_seed = SplitMix64::new(ctx.seed).split(2).next_u64();
    let mut trace_cfg = TraceConfig::poisson(ctx.serve_requests, rate, trace_seed);
    ctx.trim_serve_trace(&mut trace_cfg);
    let cfg = crate::attack::attack_serve_config(ctx, &model, &trace_cfg);
    let trace = trace_cfg.generate();
    ctx.modes
        .iter()
        .map(|&mode| {
            let profile = serve_profile(mode, &ctx.cfg);
            let probe = SharedProbe::recording();
            let rep = simulate_probed(&cfg, &model, &profile, &trace, &probe);
            let snap = probe.snapshot().expect("freshly created recording probe");
            let view = Observation::from_trace(&snap);
            let shaped = shaping.apply(&view);
            let traffic_bits = extractable_bits(&shaped.observation.features(MEASUREMENT_QUANTUM));
            // The at-rest signal: spilled-blob sizes (wire occupancy as
            // the size proxy), as the shield lets the adversary see them.
            let at_rest: Vec<u64> = shield
                .observed_sizes(
                    &view
                        .events()
                        .iter()
                        .map(|e| e.duration.as_ps())
                        .collect::<Vec<_>>(),
                )
                .iter()
                .map(|&s| size_bucket(s))
                .collect();
            let residency_bits = extractable_bits(&at_rest);
            let shield_overhead = shield.overhead(
                snap.metrics().get("serve.kv_offload_bytes"),
                snap.metrics().get("serve.kv_fetch_bytes"),
            );
            let priced = rep.makespan + shaped.padding + shield_overhead;
            let secs = priced.as_secs_f64().max(1e-12);
            let slowdown = rep.makespan.as_secs_f64() / secs;
            let kv_crypto = rep.kv_transfer_time.as_secs_f64()
                * kv_crypto_share(profile.kv_protocol)
                + shield_overhead.as_secs_f64();
            ModeEval {
                mode,
                throughput_tps: rep.goodput_tps() * slowdown,
                exposed: rep.kv_exposed_time + shaped.padding,
                crypto_frac: profile.mac.traffic_overhead() + kv_crypto / secs,
                leakage_bits: traffic_bits + residency_bits,
            }
        })
        .collect()
}

/// Samples `ctx.explore_points` points of the scenario's space and
/// prices them across `ctx.worker_threads` workers.
pub fn run_scenario(scenario: Scenario, ctx: &RunContext) -> ExploreRun {
    let space = space_for(scenario, ctx);
    let points = space.sample(ctx.explore_points as usize, ctx.seed);
    run_points(scenario, ctx, space, points)
}

/// Prices an explicit point list (the sensitivity sweep reuses this with
/// a one-at-a-time plan).
fn run_points(
    scenario: Scenario,
    ctx: &RunContext,
    space: Space,
    points: Vec<Point>,
) -> ExploreRun {
    // Warm the context memo's per-(model, mode) CPU phases up front: the
    // memo computes outside its lock, so on a cold memo parallel workers
    // hitting the same pair would each pay the full cacheline-level
    // simulation. The warm-up fans the distinct pairs across the worker
    // threads (each pair is an independent pure computation, so the fill
    // order perturbs neither results nor the memo counts); in a
    // `run --all` the earlier artifacts have already priced them.
    let executor = Executor::new(ctx.worker_threads);
    if matches!(
        scenario,
        Scenario::Train | Scenario::Cluster | Scenario::Des
    ) {
        let mut model_indices: Vec<usize> =
            points.iter().map(|p| space.value(p, 0) as usize).collect();
        model_indices.sort_unstable();
        model_indices.dedup();
        let pairs: Vec<(usize, SecureMode)> = model_indices
            .into_iter()
            .flat_map(|mi| ctx.modes.iter().map(move |&mode| (mi, mode)))
            .collect();
        executor.run(&pairs, &|_i, &(mi, mode)| {
            TrainingSystem::new(ctx.cfg.clone(), mode)
                .with_memo(&ctx.memo)
                .cpu_time(&StepSchedule::of(&ctx.models[mi]));
        });
    }
    // Every evaluator is a function of its point alone (a
    // common-random-number design), so the thread count is invisible.
    let evals = executor.run(&points, &|_i, point| match scenario {
        Scenario::Train => eval_train(ctx, &space, point),
        Scenario::Cluster => eval_cluster(ctx, &space, point),
        Scenario::Serve => eval_serve(ctx, &space, point),
        Scenario::Des => eval_des(ctx, &space, point),
        Scenario::Fleet => eval_fleet(ctx, &space, point),
        Scenario::Attack => eval_attack(ctx, &space, point),
    });
    ExploreRun {
        space,
        points,
        evals,
    }
}

// ---------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------

fn report_for(id: &str, scenario: Scenario) -> Report {
    let mut report = crate::artifact::find(id)
        .unwrap_or_else(|| panic!("artifact {id:?} not registered"))
        .new_report();
    report.note(format!("Scenario: {}.", scenario.label()));
    report
}

/// Formats a throughput in tokens/second.
fn tps(v: f64) -> String {
    format!("{v:.0} tok/s")
}

/// Formats a leakage objective in bits.
fn bits(v: f64) -> String {
    format!("{v:.2} b")
}

/// Frontier table header, derived from [`Objective::all`] so report
/// columns cannot drift from the objective vector.
fn frontier_header() -> Vec<String> {
    std::iter::once("mode".to_owned())
        .chain(Objective::all().iter().map(|o| o.label().to_owned()))
        .chain(std::iter::once("configuration".to_owned()))
        .collect()
}

/// Runs the `explore_pareto` artifact for `scenario`: the sampled sweep,
/// its four-objective Pareto frontier, per-mode frontier presence (with
/// an explanatory note for any mode that is never non-dominated), and
/// the SGX+MGX-vs-TensorTEE crossover analysis.
pub fn explore_pareto_for(scenario: Scenario, ctx: &RunContext) -> (ExploreRun, Report) {
    let run = run_scenario(scenario, ctx);
    let flat = run.flat();
    let objs: Vec<Vec<f64>> = flat.iter().map(|(_, e)| e.objectives()).collect();
    let frontier = pareto_frontier(&objs, &SENSES);

    let mut report = report_for("explore_pareto", scenario);
    let mut table = Table::new(frontier_header()).captioned(format!(
        "Pareto frontier — {} of {} evaluations non-dominated ({} points x {} modes, seed {})",
        frontier.len(),
        flat.len(),
        run.points.len(),
        ctx.modes.len(),
        ctx.seed,
    ));
    for &f in &frontier {
        let (pi, e) = &flat[f];
        table.row([
            e.mode.label().to_string(),
            tps(e.throughput_tps),
            e.exposed.to_string(),
            pct(e.crypto_frac),
            bits(e.leakage_bits),
            run.space.describe(&run.points[*pi]),
        ]);
    }
    report.table(table);
    report.metric("points", run.points.len() as f64);
    report.metric("evaluations", flat.len() as f64);
    report.metric("frontier_size", frontier.len() as f64);

    // Per-mode frontier presence; a mode that never makes the frontier
    // gets an explanatory note naming its most frequent dominator.
    for &mode in &ctx.modes {
        let on_frontier = frontier.iter().filter(|&&f| flat[f].1.mode == mode).count();
        report.metric(format!("frontier_{}", mode_key(mode)), on_frontier as f64);
        if on_frontier > 0 {
            report.note(format!(
                "{}: {} non-dominated evaluation(s) on the frontier.",
                mode.label(),
                on_frontier
            ));
        } else {
            let mut dominator_modes: BTreeMap<&str, usize> = BTreeMap::new();
            let mut dominated = 0usize;
            for (f, (_, e)) in flat.iter().enumerate() {
                if e.mode != mode {
                    continue;
                }
                dominated += 1;
                if let Some(d) = dominator_of(f, &objs, &SENSES) {
                    *dominator_modes.entry(flat[d].1.mode.label()).or_default() += 1;
                }
            }
            let top = dominator_modes
                .iter()
                .max_by_key(|(_, &n)| n)
                .map(|(label, &n)| format!("{label} ({n}/{dominated})"))
                .unwrap_or_else(|| "itself".into());
            report.note(format!(
                "{} is never non-dominated: each of its {} evaluations is Pareto-dominated \
                 (most often by {}), i.e. for every one of its sampled configurations, some \
                 other evaluation in the sweep matches or beats its throughput while exposing \
                 no more transfer time, no more crypto traffic, and no more leakage.",
                mode.label(),
                dominated,
                top
            ));
        }
    }

    // The frontier *among the secure modes*: with the non-secure
    // reference excluded (it weakly upper-bounds the performance
    // objectives at matched hardware — encryption hides contents, not
    // shape, so leakage does not separate it either — and it tends to
    // absorb the global frontier), the
    // table shows which protected configurations are worth building.
    let secure: Vec<usize> = (0..flat.len())
        .filter(|&f| flat[f].1.mode != SecureMode::NonSecure)
        .collect();
    if !secure.is_empty() {
        let secure_objs: Vec<Vec<f64>> = secure.iter().map(|&f| objs[f].clone()).collect();
        let secure_frontier = pareto_frontier(&secure_objs, &SENSES);
        let mut table = Table::new(frontier_header()).captioned(format!(
            "Secure-modes frontier — {} of {} protected evaluations non-dominated",
            secure_frontier.len(),
            secure.len(),
        ));
        for &sf in &secure_frontier {
            let (pi, e) = &flat[secure[sf]];
            table.row([
                e.mode.label().to_string(),
                tps(e.throughput_tps),
                e.exposed.to_string(),
                pct(e.crypto_frac),
                bits(e.leakage_bits),
                run.space.describe(&run.points[*pi]),
            ]);
        }
        report.table(table);
        report.metric("frontier_secure_size", secure_frontier.len() as f64);
        for &mode in &ctx.modes {
            if mode == SecureMode::NonSecure {
                continue;
            }
            let n = secure_frontier
                .iter()
                .filter(|&&sf| flat[secure[sf]].1.mode == mode)
                .count();
            report.metric(format!("frontier_secure_{}", mode_key(mode)), n as f64);
        }
    }

    // Crossover: where does the staging baseline overtake TensorTEE?
    let find_mode = |evals: &[ModeEval], mode| -> Option<ModeEval> {
        evals.iter().find(|e| e.mode == mode).cloned()
    };
    let mut crossovers: Vec<(usize, f64)> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    for (i, evals) in run.evals.iter().enumerate() {
        let (Some(base), Some(ours)) = (
            find_mode(evals, SecureMode::SgxMgx),
            find_mode(evals, SecureMode::TensorTee),
        ) else {
            continue;
        };
        let speedup = ours.throughput_tps / base.throughput_tps.max(1e-12);
        speedups.push(speedup);
        if speedup < 1.0 {
            crossovers.push((i, speedup));
        }
    }
    if !speedups.is_empty() {
        let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        let max = speedups.iter().copied().fold(0.0f64, f64::max);
        report.metric("crossover_points", crossovers.len() as f64);
        report.metric("min_speedup_vs_sgx_mgx", min);
        report.metric("max_speedup_vs_sgx_mgx", max);
        if crossovers.is_empty() {
            report.note(format!(
                "No crossover: TensorTEE's throughput leads SGX+MGX at every sampled point \
                 ({:.2}x-{:.2}x).",
                min, max
            ));
        } else {
            let mut t = Table::new(["TensorTEE/SGX+MGX", "configuration"]).captioned(format!(
                "Crossover — {} sampled point(s) where SGX+MGX overtakes TensorTEE",
                crossovers.len()
            ));
            for (i, s) in crossovers.iter().take(8) {
                t.row([format!("{s:.2}x"), run.space.describe(&run.points[*i])]);
            }
            report.table(t);
        }
    }
    (run, report)
}

/// Runs the `explore_sensitivity` artifact for `scenario`: a
/// one-at-a-time sweep around the space's center point, reported as one
/// tornado table per mode on the throughput objective.
pub fn explore_sensitivity_for(scenario: Scenario, ctx: &RunContext) -> (ExploreRun, Report) {
    let space = space_for(scenario, ctx);
    let baseline = space.center();
    let points = space.one_at_a_time(&baseline);
    let run = run_points(scenario, ctx, space, points);

    let mut report = report_for("explore_sensitivity", scenario);
    for (j, &mode) in ctx.modes.iter().enumerate() {
        let values: Vec<f64> = run.evals.iter().map(|e| e[j].throughput_tps).collect();
        let base_value = values[0];
        let rows = tornado(&run.space, &run.points, &values);
        let mut table =
            Table::new(["knob", "low", "at", "high", "at", "swing"]).captioned(format!(
                "Tornado — {} throughput around {} ({})",
                mode.label(),
                run.space.describe(&run.points[0]),
                tps(base_value),
            ));
        for r in &rows {
            table.row([
                r.knob.to_string(),
                tps(r.low),
                r.low_label.clone(),
                tps(r.high),
                r.high_label.clone(),
                format!("{} ({})", tps(r.swing()), pct(r.swing_vs(base_value))),
            ]);
        }
        report.table(table);
        if let Some(top) = rows.first() {
            report.metric(format!("top_swing_tps_{}", mode_key(mode)), top.swing());
            report.note(format!(
                "{}: most sensitive knob is {} ({} swing, {} of the baseline).",
                mode.label(),
                top.knob,
                tps(top.swing()),
                pct(top.swing_vs(base_value)),
            ));
        }
    }
    report.metric("oat_points", run.points.len() as f64);
    (run, report)
}

/// Runs both sweeps of `tensortee explore <scenario>`: the
/// [`explore_pareto_for`] and [`explore_sensitivity_for`] reports, in that
/// order. A recording context probe gets the sweeps'
/// `memo.adam_{hits,misses}` counts (non-zero ones only), as
/// [`crate::Artifact::run`] gives it an artifact's; no evaluator traces
/// into the context probe, so those counters are all an explore trace
/// holds.
pub fn explore(scenario: Scenario, ctx: &RunContext) -> [Report; 2] {
    let before = ctx.memo.counts();
    let reports = [
        explore_pareto_for(scenario, ctx).1,
        explore_sensitivity_for(scenario, ctx).1,
    ];
    ctx.memo.counts().emit_since(&before, &ctx.probe);
    reports
}

/// The registered `explore_pareto` artifact (train scenario).
pub fn explore_pareto(ctx: &RunContext) -> Report {
    explore_pareto_for(Scenario::Train, ctx).1
}

/// The registered `explore_sensitivity` artifact (train scenario).
pub fn explore_sensitivity(ctx: &RunContext) -> Report {
    explore_sensitivity_for(Scenario::Train, ctx).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> RunContext {
        // A thin sweep keeps the unit tests quick; the integration suite
        // (tests/explore.rs) runs the registered budgets.
        let mut c = RunContext::fast();
        c.models.truncate(1);
        c.explore_points = 8;
        c
    }

    #[test]
    fn spaces_have_the_documented_knobs() {
        let c = ctx();
        let train = space_for(Scenario::Train, &c);
        assert_eq!(train.knobs().len(), 6);
        assert_eq!(train.knobs()[0].name, "model");
        assert_eq!(train.knobs()[0].levels.len(), c.models.len());
        let cluster = space_for(Scenario::Cluster, &c);
        assert_eq!(cluster.knobs()[1].name, "NPUs");
        assert_eq!(cluster.knobs()[1].levels.len(), c.cluster_sizes.len());
        let serve = space_for(Scenario::Serve, &c);
        assert_eq!(serve.knobs().len(), 5);
        let des = space_for(Scenario::Des, &c);
        assert_eq!(des.knobs().len(), 6);
        assert_eq!(des.knobs()[3].name, "straggler");
        assert_eq!(des.knobs()[3].levels.len(), c.straggler_factors.len());
        assert_eq!(des.knobs()[5].name, "microbatches");
        let fleet = space_for(Scenario::Fleet, &c);
        assert_eq!(fleet.knobs().len(), 5);
        assert_eq!(fleet.knobs()[2].name, "placement");
        assert_eq!(fleet.knobs()[2].levels.len(), 3);
        let attack = space_for(Scenario::Attack, &c);
        assert_eq!(attack.knobs().len(), 4);
        assert_eq!(attack.knobs()[2].name, "shaping");
        assert_eq!(attack.knobs()[2].levels.len(), Shaping::all().len());
        assert_eq!(attack.knobs()[3].name, "kv at rest");
        assert_eq!(attack.knobs()[3].levels.len(), KvShield::all().len());
        assert_eq!(Scenario::parse("attack"), Some(Scenario::Attack));
        assert_eq!(Scenario::parse("fleet"), Some(Scenario::Fleet));
        assert_eq!(Scenario::parse("des"), Some(Scenario::Des));
        assert_eq!(Scenario::parse("cluster"), Some(Scenario::Cluster));
        assert_eq!(Scenario::parse("nope"), None);
        for s in Scenario::all() {
            assert_eq!(Scenario::parse(s.label()), Some(s));
        }
    }

    #[test]
    fn train_run_prices_every_mode_at_every_point() {
        let c = ctx();
        let run = run_scenario(Scenario::Train, &c);
        assert_eq!(run.points.len(), c.explore_points as usize);
        assert_eq!(run.evals.len(), run.points.len());
        for evals in &run.evals {
            assert_eq!(evals.len(), c.modes.len());
            for e in evals {
                assert!(e.throughput_tps > 0.0);
                assert!(e.crypto_frac >= 0.0 && e.crypto_frac < 1.0, "{e:?}");
            }
            // Non-secure carries no crypto traffic; the staging baseline
            // always does.
            assert_eq!(evals[0].crypto_frac, 0.0);
            assert!(evals[1].crypto_frac > 0.0);
        }
        let objs: Vec<Vec<f64>> = run.flat().iter().map(|(_, e)| e.objectives()).collect();
        let frontier = pareto_frontier(&objs, &SENSES);
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= objs.len());
    }

    #[test]
    fn objectives_and_senses_cannot_drift() {
        assert_eq!(SENSES.len(), Objective::all().len());
        let eval = ModeEval {
            mode: SecureMode::NonSecure,
            throughput_tps: 1.0,
            exposed: Time::ZERO,
            crypto_frac: 0.0,
            leakage_bits: 0.0,
        };
        assert_eq!(eval.objectives().len(), SENSES.len());
        let labels: Vec<&str> = Objective::all().iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["throughput", "exposed", "crypto", "leakage"]);
        // The frontier header embeds the objective labels verbatim.
        let header = frontier_header();
        assert_eq!(header.len(), labels.len() + 2);
        assert_eq!(&header[1..header.len() - 1], labels.as_slice());
    }

    #[test]
    fn attack_run_prices_leakage_and_defenses() {
        let mut c = ctx();
        // One model x 3 loads x 3 shapings x 2 shields = the full grid.
        c.explore_points = 18;
        let run = run_scenario(Scenario::Attack, &c);
        assert_eq!(run.points.len(), 18);
        let mut leaked = 0usize;
        for evals in &run.evals {
            assert_eq!(evals.len(), c.modes.len());
            for e in evals {
                assert!(e.throughput_tps > 0.0);
                assert!(e.leakage_bits >= 0.0);
                if e.leakage_bits > 0.0 {
                    leaked += 1;
                }
            }
        }
        assert!(leaked > 0, "some sampled point must leak");
    }

    #[test]
    fn kv_crypto_share_orders_protocols() {
        assert_eq!(kv_crypto_share(Protocol::Plain), 0.0);
        let staged = kv_crypto_share(Protocol::Staged);
        let direct = kv_crypto_share(Protocol::Direct);
        assert!(staged > 0.5, "{staged}");
        assert!(direct < 0.05, "{direct}");
    }

    #[test]
    fn hbm_knob_scales_aggregate_bandwidth() {
        assert!((hbm_dram(256.0).total_bytes_per_sec() - 256e9).abs() < 1.0);
        assert!((hbm_dram(64.0).total_bytes_per_sec() - 64e9).abs() < 1.0);
    }
}
