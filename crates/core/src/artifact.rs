//! The artifact registry: every paper table/figure as a named, runnable
//! [`Artifact`] returning a structured [`Report`].
//!
//! This is the programmatic front door to the evaluation (§6): the
//! `tensortee` CLI, the examples and the `perfbench` benchmark all
//! resolve artifacts here instead of hand-wiring experiment calls. The
//! runner implementations live in [`crate::experiments`]; a shared
//! [`RunContext`] bundles the configuration knobs they used to duplicate.

use crate::config::{ClusterConfig, SecureMode, SystemConfig};
use crate::experiments;
use crate::memo::Memo;
use crate::report::Report;
use crate::system::StepBreakdown;
use crate::TrainingSystem;
use tee_serve::{SessionTraceConfig, TraceConfig};
use tee_sim::probe::SharedProbe;
use tee_workloads::zoo::{ModelConfig, TABLE2};

/// Nominal serving arrival rate in requests per second: the
/// `serve_*` and `attack_*` artifacts and the explore serve and attack
/// evaluators scale their load from it.
pub(crate) const SERVE_RATE_RPS: f64 = 8.0;

/// Tenants mixed into every fleet session trace (the `fleet_*`
/// artifacts and the explore fleet evaluator).
pub(crate) const FLEET_TENANTS: u32 = 4;

/// Everything an artifact runner needs: the system configuration plus
/// the sweep knobs (mode list, model subset, thread counts, …).
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Table-1 system configuration.
    pub cfg: SystemConfig,
    /// Security modes to sweep, in presentation order.
    pub modes: Vec<SecureMode>,
    /// Model subset (of the Table-2 zoo) the per-model artifacts cover.
    pub models: Vec<ModelConfig>,
    /// Thread counts for the CPU sweeps (Figures 3 and 19).
    pub threads: Vec<u32>,
    /// Iteration checkpoints for Figure 19.
    pub checkpoints: Vec<u32>,
    /// Cluster sizes for the strong-scaling sweep.
    pub cluster_sizes: Vec<u32>,
    /// Iterations sampled by the Figure-18 hit-rate run.
    pub hit_iterations: u32,
    /// Seed for every stochastic artifact (the serving traces); the CLI
    /// plumbs `--seed` here so runs stay reproducible from the command
    /// line.
    pub seed: u64,
    /// Requests per serving trace (`serve_latency` / `serve_sweep`).
    pub serve_requests: u32,
    /// Load multipliers of the nominal 8 req/s serving rate swept by
    /// `serve_sweep`.
    pub serve_load_factors: Vec<f64>,
    /// Serving instances in the fleet artifacts (`fleet_latency` /
    /// `fleet_handoff`).
    pub fleet_instances: usize,
    /// Session turns per fleet trace.
    pub fleet_requests: u32,
    /// Nominal fleet arrival rate in turns per second.
    pub fleet_rate_rps: f64,
    /// Worker threads the design-space explorer fans points across (the
    /// CLI plumbs `--threads` here). Results are bit-identical for any
    /// value — the executor's partition is static and every evaluation
    /// depends only on its point.
    pub worker_threads: u32,
    /// Point budget per exploration scenario (the CLI plumbs `--points`
    /// here): the full knob grid when it fits, otherwise a seeded
    /// Latin-hypercube sample of this size.
    pub explore_points: u32,
    /// Straggler slowdown factors the discrete-event cluster artifacts
    /// sweep (1.0 = homogeneous lockstep).
    pub straggler_factors: Vec<f64>,
    /// Microbatch counts the pipeline-parallel DES artifact sweeps.
    pub pipeline_microbatches: Vec<u32>,
    /// Whether this is the reduced (`--fast`) context; runners gate their
    /// most expensive sweeps on it.
    pub fast: bool,
    /// Observability sink the runners hand to their simulators
    /// ([`SharedProbe::Null`] by default). Probes only observe simulated
    /// time, so reports are byte-identical whether or not a recording
    /// probe is installed (pinned by a differential test over the
    /// registry).
    pub probe: SharedProbe,
    /// The simulation memo the runners price CPU Adam runs through
    /// ([`crate::memo`]). Clones share it, so the artifacts of one
    /// `run --all` share work; every [`RunContext::full`] /
    /// [`RunContext::fast`] starts an empty one.
    pub(crate) memo: Memo,
}

impl RunContext {
    /// The full paper-fidelity context (`tensortee run` without `--fast`).
    pub fn full() -> Self {
        RunContext {
            cfg: SystemConfig::default(),
            modes: SecureMode::all().to_vec(),
            models: TABLE2.to_vec(),
            threads: vec![1, 2, 4, 8],
            checkpoints: vec![1, 2, 5, 10, 20, 30, 40],
            cluster_sizes: vec![1, 2, 4, 8],
            hit_iterations: 20,
            seed: 42,
            serve_requests: 48,
            serve_load_factors: vec![0.5, 1.0, 2.0],
            fleet_instances: 4,
            fleet_requests: 192,
            fleet_rate_rps: 24.0,
            worker_threads: 4,
            explore_points: 96,
            straggler_factors: vec![1.0, 1.1, 1.25, 1.5],
            pipeline_microbatches: vec![1, 2, 4, 8],
            fast: false,
            probe: SharedProbe::Null,
            memo: Memo::default(),
        }
    }

    /// The reduced context (`tensortee run --fast`, registry tests): a
    /// coarser simulation scale and a small/large model pair so every
    /// artifact finishes in seconds while keeping its shape.
    pub fn fast() -> Self {
        RunContext {
            cfg: SystemConfig::fast_sim(),
            models: vec![TABLE2[0], TABLE2[1]], // GPT, GPT2-M
            threads: vec![1, 4],
            checkpoints: vec![1, 2, 5],
            cluster_sizes: vec![1, 4],
            hit_iterations: 6,
            serve_requests: 16,
            serve_load_factors: vec![1.0, 2.0],
            fleet_instances: 2,
            fleet_requests: 64,
            fleet_rate_rps: 16.0,
            explore_points: 32,
            straggler_factors: vec![1.0, 1.5],
            pipeline_microbatches: vec![2, 8],
            fast: true,
            ..Self::full()
        }
    }

    /// Replaces the model subset (builder form).
    pub fn with_models(mut self, models: Vec<ModelConfig>) -> Self {
        self.models = models;
        self
    }

    /// Replaces the mode sweep (builder form).
    pub fn with_modes(mut self, modes: Vec<SecureMode>) -> Self {
        self.modes = modes;
        self
    }

    /// Replaces the stochastic-artifact seed (builder form; the CLI's
    /// `--seed` lands here).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the explorer's worker-thread count (builder form; the
    /// CLI's `--threads` lands here). Never changes results — only
    /// wall-clock.
    pub fn with_worker_threads(mut self, threads: u32) -> Self {
        self.worker_threads = threads.max(1);
        self
    }

    /// Replaces the explorer's point budget (builder form; the CLI's
    /// `--points` lands here).
    pub fn with_explore_points(mut self, points: u32) -> Self {
        self.explore_points = points.max(1);
        self
    }

    /// Installs an observability probe (builder form; the CLI's `trace`
    /// subcommand and `--trace` flag land here). Never changes results —
    /// only what gets recorded alongside them.
    pub fn with_probe(mut self, probe: SharedProbe) -> Self {
        self.probe = probe;
        self
    }

    /// The paper's motivating model: GPT2-M when it is in the model
    /// subset, otherwise the first model.
    ///
    /// # Panics
    ///
    /// Panics if the context has no models.
    pub fn primary_model(&self) -> ModelConfig {
        assert!(!self.models.is_empty(), "RunContext has no models");
        self.models
            .iter()
            .copied()
            .find(|m| m.name == "GPT2-M")
            .unwrap_or(self.models[0])
    }

    /// The cluster shape for `n_npus` replicas on the default PCIe
    /// peer-to-peer fabric ([`ClusterConfig::of`]).
    pub fn cluster_of(&self, n_npus: u32) -> ClusterConfig {
        ClusterConfig::of(n_npus)
    }

    /// The `--fast` trim of a serving trace: shorter conversations keep
    /// the fast registry run in seconds while preserving the
    /// prefill/decode and residency shapes. Every serving trace (the
    /// `serve_*` and `attack_*` artifacts, the explore serve and attack
    /// evaluators) goes through here.
    pub(crate) fn trim_serve_trace(&self, trace: &mut TraceConfig) {
        if self.fast {
            trace.prompt_mean = 256;
            trace.output_mean = 48;
        }
    }

    /// The `--fast` trim of a fleet session trace: shorter turns keep the
    /// fast registry run in seconds while preserving the session and
    /// migration shape. The `fleet_*` artifacts and the explore fleet
    /// evaluator go through here.
    pub(crate) fn trim_fleet_trace(&self, trace: &mut SessionTraceConfig) {
        if self.fast {
            trace.prompt_mean = 192;
            trace.output_mean = 32;
        }
    }

    /// Simulates one step of `model` under each mode of the sweep — the
    /// mode-loop boilerplate the examples share. When a recording probe
    /// is installed, each step's phases are laid over it as spans *after*
    /// pricing (see [`crate::obs::emit_step_phases`]); the breakdowns are
    /// identical either way.
    pub fn step_sweep(&self, model: &ModelConfig) -> Vec<(SecureMode, StepBreakdown)> {
        self.modes
            .iter()
            .map(|&mode| {
                let step = TrainingSystem::new(self.cfg.clone(), mode)
                    .with_memo(&self.memo)
                    .simulate_step(model);
                crate::obs::emit_step_phases(&self.probe, mode, &step);
                (mode, step)
            })
            .collect()
    }
}

impl Default for RunContext {
    fn default() -> Self {
        Self::full()
    }
}

/// A registered paper artifact: a stable id, display metadata, and the
/// runner that regenerates it.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// Stable id (`fig16`, `tab2`, `sec62`, `scaling_strong`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Paper anchor (`Figure 16`, `Table 2`, `§6.2`, …).
    pub paper_anchor: &'static str,
    /// The paper's quantitative claim this artifact reproduces (as a
    /// shape; see EXPERIMENTS.md).
    pub claim: &'static str,
    runner: fn(&RunContext) -> Report,
}

impl Artifact {
    /// Runs the artifact under `ctx`. A recording probe also gets the
    /// run's `memo.adam_{hits,misses}` counts (non-zero ones only).
    pub fn run(&self, ctx: &RunContext) -> Report {
        let before = ctx.memo.counts();
        let report = (self.runner)(ctx);
        ctx.memo.counts().emit_since(&before, &ctx.probe);
        report
    }

    /// An empty [`Report`] pre-filled with this artifact's metadata — the
    /// runners build on this so ids/titles have a single source of truth.
    pub fn new_report(&self) -> Report {
        Report::new(self.id, self.title, self.paper_anchor)
    }
}

/// The registry, in paper presentation order.
static REGISTRY: [Artifact; 28] = [
    Artifact {
        id: "fig03",
        title: "CPU TEE slowdown vs. thread count",
        paper_anchor: "Figure 3",
        claim: "up to 3.7x SGX slowdown; workload turns memory-bound as threads grow",
        runner: |ctx| experiments::fig03_cpu_slowdown(ctx).1,
    },
    Artifact {
        id: "fig04",
        title: "Tensor census",
        paper_anchor: "Figure 4",
        claim: "tensor sizes grow to MBytes; tensor counts stay at a few hundred",
        runner: experiments::fig04_tensor_census,
    },
    Artifact {
        id: "fig05",
        title: "GPT2-M phase breakdown",
        paper_anchor: "Figure 5",
        claim: "communication 12% non-secure -> 53% under SGX+MGX",
        runner: experiments::fig05_breakdown,
    },
    Artifact {
        id: "fig15",
        title: "Compute/communication overlap",
        paper_anchor: "Figures 7 & 15",
        claim: "baseline serializes behind AES; unified granularity overlaps transfer with compute",
        runner: experiments::fig15_overlap,
    },
    Artifact {
        id: "fig16",
        title: "Overall performance",
        paper_anchor: "Figure 16",
        claim: "TensorTEE 2.1-5.5x over SGX+MGX (avg 4.0x); 2.1% over non-secure",
        runner: |ctx| experiments::fig16_overall(ctx).1,
    },
    Artifact {
        id: "fig17",
        title: "Bottleneck analysis (per-model breakdown)",
        paper_anchor: "Figure 17",
        claim: "TensorTEE eliminates CPU metadata overhead and exposed transfer time",
        runner: experiments::fig17_breakdown,
    },
    Artifact {
        id: "fig18",
        title: "Meta Table hit rate vs. iteration",
        paper_anchor: "Figure 18",
        claim: "hit_all high after 1 iteration; hit_in 80% by iter 5, 95% by iter 20",
        runner: |ctx| experiments::fig18_hit_rate(ctx).1,
    },
    Artifact {
        id: "fig19",
        title: "CPU performance comparison",
        paper_anchor: "Figure 19",
        claim: "SGX 3.65x @8T; TensorTEE converges to SoftVN-comparable within ~10 iterations",
        runner: experiments::fig19_cpu_perf,
    },
    Artifact {
        id: "fig20",
        title: "MAC granularity: performance + storage",
        paper_anchor: "Figure 20",
        claim:
            "fine pays traffic (~12%); coarse pays stalls (13% @4KB); ours ~2.5% and ~zero storage",
        runner: |ctx| experiments::fig20_mac_granularity(ctx).1,
    },
    Artifact {
        id: "fig21",
        title: "Gradient-transfer breakdown",
        paper_anchor: "Figure 21",
        claim: "re-encryption/decryption eliminated; 18.7x communication improvement",
        runner: |ctx| experiments::fig21_comm_breakdown(ctx).1,
    },
    Artifact {
        id: "tab2",
        title: "Workloads and parameters",
        paper_anchor: "Table 2",
        claim: "12 models, 117M-6.7B params",
        runner: experiments::tab2_workloads,
    },
    Artifact {
        id: "sec62",
        title: "GEMM tensor detection via entry merging",
        paper_anchor: "\u{a7}6.2",
        claim: "98.8% hit_in after a single GEMM builds the structures",
        runner: |ctx| experiments::sec62_gemm_detection(ctx).1,
    },
    Artifact {
        id: "sec65",
        title: "TenAnalyzer hardware overhead",
        paper_anchor: "\u{a7}6.5",
        claim:
            "512-entry Meta Table + filter + bitmap cache + poison bits = 24 KB, 0.0072 mm2 @ 7 nm",
        runner: experiments::sec65_hw_overhead,
    },
    Artifact {
        id: "scaling_strong",
        title: "Multi-NPU strong scaling with secure ring all-reduce",
        paper_anchor: "extension (\u{a7}3.3/\u{a7}4.4 at N NPUs)",
        claim: "staging's exposed comm grows with N; direct hides the collective and keeps scaling",
        runner: |ctx| experiments::scaling_strong(ctx).1,
    },
    Artifact {
        id: "des_parity",
        title: "Discrete-event engine vs. analytic model (differential)",
        paper_anchor: "extension (\u{a7}5.1 as a discrete-event simulation)",
        claim: "lockstep data-parallel DES reproduces the analytic breakdown bit-for-bit \
                (max divergence 0 ps across every cluster size and mode)",
        runner: experiments::des_parity,
    },
    Artifact {
        id: "des_straggler",
        title: "Heterogeneous NPUs: straggler skew under each protocol",
        paper_anchor: "extension (\u{a7}3.3/\u{a7}4.4, heterogeneous cluster)",
        claim: "a straggler stretches the backward window, so direct overlap hides more of \
                the collective while staging's serialized hops stay fully exposed",
        runner: experiments::des_straggler,
    },
    Artifact {
        id: "des_pipeline",
        title: "Pipeline parallelism: fabric contention per protocol",
        paper_anchor: "extension (\u{a7}3.3/\u{a7}4.4, pipeline schedules)",
        claim:
            "more microbatches shrink the fill/drain bubble toward (S\u{2212}1)/(M+S\u{2212}1); \
                staging pays a conversion on every boundary hop that direct eliminates",
        runner: experiments::des_pipeline,
    },
    Artifact {
        id: "ablations",
        title: "Design-choice ablations",
        paper_anchor: "\u{a7}6.2",
        claim: "Meta Table capacity, filter threshold, metadata cache and AES bandwidth sweeps",
        runner: experiments::ablations,
    },
    Artifact {
        id: "serve_latency",
        title: "Inference serving: latency and goodput per mode",
        paper_anchor: "extension (\u{a7}3.3/\u{a7}4.3 under serving)",
        claim:
            "staging exposes KV migration and inflates TTFT/TPOT; TensorTEE stays near non-secure",
        runner: |ctx| experiments::serve_latency(ctx).1,
    },
    Artifact {
        id: "serve_sweep",
        title: "Inference serving: load/burstiness sweep",
        paper_anchor: "extension (\u{a7}3.3/\u{a7}4.3 under serving)",
        claim: "TensorTEE goodput tracks offered load; staging saturates early, worse under bursts",
        runner: |ctx| experiments::serve_sweep(ctx).1,
    },
    Artifact {
        id: "fleet_latency",
        title: "Fleet serving: latency and goodput per mode",
        paper_anchor: "extension (\u{a7}3.3/\u{a7}4.3 at fleet scale)",
        claim: "staged KV handoff serializes migrations against destination compute; \
                TensorTEE's direct handoff keeps fleet TTFT/goodput near non-secure",
        runner: |ctx| experiments::fleet_latency(ctx).1,
    },
    Artifact {
        id: "fleet_handoff",
        title: "Fleet serving: placement policy \u{d7} handoff protocol",
        paper_anchor: "extension (\u{a7}3.3/\u{a7}4.3 at fleet scale)",
        claim: "KV-aware placement cuts migrations vs round-robin; among forced migrations \
                the direct protocol strictly beats staged on exposed handoff time",
        runner: |ctx| experiments::fleet_handoff(ctx).1,
    },
    Artifact {
        id: "obs_utilization",
        title: "Observability: component utilization and counter rollup",
        paper_anchor: "extension (instrumented \u{a7}5.1/\u{a7}4.3 runs)",
        claim: "per-component busy fractions, link queued-time, and KV/crypto counters \
                rolled up from a recorded trace, without perturbing a single report byte",
        runner: |ctx| crate::obs::obs_utilization(ctx),
    },
    Artifact {
        id: "explore_pareto",
        title: "Design-space exploration: Pareto frontier",
        paper_anchor: "extension (\u{a7}6 across the hardware space)",
        claim: "TensorTEE holds the throughput/exposure/crypto frontier across swept bus, HBM, \
                PE and MAC-granularity knobs; the report explains any mode that never does",
        runner: crate::explore::explore_pareto,
    },
    Artifact {
        id: "explore_sensitivity",
        title: "Design-space exploration: knob sensitivity (tornado)",
        paper_anchor: "extension (\u{a7}6 across the hardware space)",
        claim: "one-at-a-time swings rank which hardware knob moves each mode's throughput most",
        runner: crate::explore::explore_sensitivity,
    },
    Artifact {
        id: "attack_traffic",
        title: "Adversary: traffic analysis on the CPU\u{2013}NPU link",
        paper_anchor: "extension (\u{a7}2.2 threat model, made quantitative)",
        claim: "ciphertext sizes alone name the model behind a held-out trace above chance; \
                the plug-in MI bounds the bits of model identity each transfer gives away",
        runner: |ctx| crate::attack::attack_traffic(ctx),
    },
    Artifact {
        id: "attack_kv_residency",
        title: "Adversary: KV-residency linkage of spilled sessions",
        paper_anchor: "extension (\u{a7}2.2 threat model at serving scale)",
        claim: "plain-spilled KV object sizes link transfers back to the sessions that share \
                prefixes; shielding at rest collapses the channel to ~0 bits for a priced \
                re-encrypt/verify bill",
        runner: |ctx| crate::attack::attack_kv_residency(ctx),
    },
    Artifact {
        id: "attack_defended",
        title: "Priced defenses: leakage vs. overhead",
        paper_anchor: "extension (\u{a7}2.2 threat model, defenses priced)",
        claim: "leakage orders strictly unshaped > padded > constant-rate (exactly 0) and \
                plain spill > shielded at rest, with each defense's padding/re-encryption \
                cost priced in the same report",
        runner: |ctx| crate::attack::attack_defended(ctx),
    },
];

/// All registered artifacts, in paper presentation order.
pub fn registry() -> &'static [Artifact] {
    &REGISTRY
}

/// Looks up an artifact by id.
pub fn find(id: &str) -> Option<Artifact> {
    REGISTRY.iter().copied().find(|a| a.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_evaluation() {
        assert!(registry().len() >= 28);
        for id in [
            "fig03",
            "fig04",
            "fig05",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "tab2",
            "sec62",
            "sec65",
            "scaling_strong",
            "des_parity",
            "des_straggler",
            "des_pipeline",
            "ablations",
            "serve_latency",
            "serve_sweep",
            "fleet_latency",
            "fleet_handoff",
            "obs_utilization",
            "explore_pareto",
            "explore_sensitivity",
            "attack_traffic",
            "attack_kv_residency",
            "attack_defended",
        ] {
            assert!(find(id).is_some(), "{id} missing from registry");
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn contexts_are_runnable_shapes() {
        let full = RunContext::full();
        assert!(!full.fast);
        assert_eq!(full.models.len(), TABLE2.len());
        let fast = RunContext::fast();
        assert!(fast.fast);
        assert!(fast.models.len() < full.models.len());
        assert_eq!(fast.primary_model().name, "GPT2-M");
        assert_eq!(fast.cluster_of(4).n_npus, 4);
        // Without GPT2-M the primary falls back to the first model.
        let custom = RunContext::fast().with_models(vec![TABLE2[0]]);
        assert_eq!(custom.primary_model().name, "GPT");
        // The fast context thins the serving trace but keeps the seed.
        assert!(fast.serve_requests < full.serve_requests);
        assert!(fast.fleet_requests < full.fleet_requests);
        assert!(fast.fleet_instances <= full.fleet_instances);
        assert_eq!(fast.seed, full.seed);
        assert_eq!(RunContext::fast().with_seed(7).seed, 7);
        // The explorer knobs: fast thins the point budget, keeps the
        // worker count, and the builders clamp to at least one.
        assert!(fast.explore_points < full.explore_points);
        assert_eq!(fast.worker_threads, full.worker_threads);
        assert_eq!(RunContext::fast().with_worker_threads(0).worker_threads, 1);
        assert_eq!(RunContext::fast().with_worker_threads(8).worker_threads, 8);
        assert_eq!(
            RunContext::fast().with_explore_points(12).explore_points,
            12
        );
    }

    #[test]
    fn step_sweep_covers_all_modes() {
        let ctx = RunContext::fast();
        let sweep = ctx.step_sweep(&TABLE2[0]);
        assert_eq!(sweep.len(), ctx.modes.len());
        assert_eq!(sweep[0].0, SecureMode::NonSecure);
        assert!(sweep.iter().all(|(_, b)| b.total() > tee_sim::Time::ZERO));
    }
}
