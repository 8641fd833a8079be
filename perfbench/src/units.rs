//! The three workloads: their inputs, built from the seed, and the unit
//! calls a pass makes into the crates' public functions.

use tee_fleet::{FleetConfig, Policy};
use tee_serve::{
    Request, SecurityProfile, ServeConfig, SessionRequest, SessionTraceConfig, TraceConfig,
};
use tee_sim::SplitMix64;
use tee_workloads::zoo::{by_name, ModelConfig};
use tensortee::artifact::{registry, Artifact, RunContext};

/// Independent GPT2-M traces per `serve_trace` pass; three profiles each
/// give 144 `simulate` calls, enough for a p90 with ten calls beyond it.
pub const SERVE_TRACES: u64 = 48;
/// Requests per `serve_trace` trace.
pub const SERVE_REQUESTS: u32 = 64;
/// Session traces per `fleet_trace` pass (half unsaturated, half
/// overloaded); three policies each give 288 calls.
pub const FLEET_TRACES: u64 = 96;
/// Instances in the `fleet_trace` fleet.
pub const FLEET_INSTANCES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RegistryFast,
    ServeTrace,
    FleetTrace,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RegistryFast,
        Workload::ServeTrace,
        Workload::FleetTrace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RegistryFast => "registry_fast",
            Workload::ServeTrace => "serve_trace",
            Workload::FleetTrace => "fleet_trace",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one unit call produced: the bytes its digest covers and the exact
/// simulated counts it reports.
#[derive(Debug, Clone, Default)]
pub struct Output {
    pub text: String,
    pub iterations: u64,
    pub migrations: u64,
    pub rejected: u64,
}

/// A workload's inputs, built before the first timed unit.
pub enum Inputs {
    Registry {
        ctx: Box<RunContext>,
        artifacts: &'static [Artifact],
    },
    Serve {
        model: ModelConfig,
        cfg: ServeConfig,
        traces: Vec<Vec<Request>>,
    },
    Fleet {
        model: ModelConfig,
        cfg: FleetConfig,
        traces: Vec<Vec<SessionRequest>>,
    },
}

/// The per-trace seed: stream `i` of the run's seed.
fn trace_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed).split(i).next_u64()
}

fn gpt2m() -> ModelConfig {
    by_name("GPT2-M").expect("GPT2-M is a Table-2 model")
}

impl Inputs {
    pub fn build(workload: Workload, seed: u64, threads: u32) -> Inputs {
        match workload {
            Workload::RegistryFast => Inputs::Registry {
                ctx: Box::new(
                    RunContext::fast()
                        .with_seed(seed)
                        .with_worker_threads(threads.min(RunContext::fast().worker_threads)),
                ),
                artifacts: registry(),
            },
            Workload::ServeTrace => {
                // The `serve_sweep` shapes: Poisson and bursty (burst 8)
                // arrivals at 8 and 16 req/s, 256/48-token means.
                let trace_cfg = |i: u64| {
                    let rate = if i % 4 < 2 { 8.0 } else { 16.0 };
                    let s = trace_seed(seed, i);
                    let mut c = if i.is_multiple_of(2) {
                        TraceConfig::poisson(SERVE_REQUESTS, rate, s)
                    } else {
                        TraceConfig::bursty(SERVE_REQUESTS, rate, 8, s)
                    };
                    c.prompt_mean = 256;
                    c.output_mean = 48;
                    c
                };
                let model = gpt2m();
                // The KV budget holds ~4 steady requests, so load spills.
                let cfg = ServeConfig::for_model(&model, 4, trace_cfg(0).steady_tokens());
                let traces = (0..SERVE_TRACES).map(|i| trace_cfg(i).generate()).collect();
                Inputs::Serve { model, cfg, traces }
            }
            Workload::FleetTrace => {
                // Even traces: 1024 turns at 64 rps (no rejects); odd: 4096
                // turns at the same rate, which overloads the fleet.
                let trace_cfg = |i: u64| {
                    let turns = if i.is_multiple_of(2) { 1024 } else { 4096 };
                    let mut c = SessionTraceConfig::poisson(turns, 64.0, 4, trace_seed(seed, i));
                    c.prompt_mean = 192;
                    c.output_mean = 32;
                    c
                };
                let model = gpt2m();
                let serve = ServeConfig::for_model(&model, 4, trace_cfg(0).steady_tokens());
                let cfg = FleetConfig::new(serve, FLEET_INSTANCES);
                let traces = (0..FLEET_TRACES).map(|i| trace_cfg(i).generate()).collect();
                Inputs::Fleet { model, cfg, traces }
            }
        }
    }

    /// Unit ids and classes (the profile or policy a call runs under), in
    /// call order.
    pub fn units(&self) -> Vec<(String, &'static str)> {
        match self {
            Inputs::Registry { artifacts, .. } => artifacts
                .iter()
                .map(|a| (a.id.to_string(), "artifact"))
                .collect(),
            Inputs::Serve { traces, .. } => (0..traces.len())
                .flat_map(|i| {
                    profiles()
                        .into_iter()
                        .map(move |(key, _)| (format!("t{i:02}.{key}"), key))
                })
                .collect(),
            Inputs::Fleet { traces, .. } => (0..traces.len())
                .flat_map(|i| {
                    Policy::all()
                        .into_iter()
                        .map(move |p| (format!("t{i:02}.{}", p.label()), p.label()))
                })
                .collect(),
        }
    }

    /// Runs unit `k` (an index into [`Inputs::units`]).
    pub fn run(&self, k: usize) -> Output {
        match self {
            Inputs::Registry { ctx, artifacts } => Output {
                text: artifacts[k].run(ctx).to_json().to_string(),
                ..Output::default()
            },
            Inputs::Serve { model, cfg, traces } => {
                let profile = profiles()[k % 3].1;
                let r = tee_serve::simulate(cfg, model, &profile, &traces[k / 3]);
                Output {
                    iterations: r.iterations,
                    text: format!("{r:?}"),
                    ..Output::default()
                }
            }
            Inputs::Fleet { model, cfg, traces } => {
                let policy = Policy::all()[k % 3];
                let run_cfg = cfg.clone().with_policy(policy);
                let r = tee_fleet::simulate(
                    &run_cfg,
                    model,
                    &SecurityProfile::tensor_tee(),
                    &traces[k / 3],
                );
                Output {
                    iterations: r.iterations,
                    migrations: r.migrations,
                    rejected: u64::from(r.rejected_requests),
                    text: format!("{r:?}"),
                }
            }
        }
    }
}

/// The three serving profiles with their metric keys.
pub fn profiles() -> [(&'static str, SecurityProfile); 3] {
    [
        ("non_secure", SecurityProfile::non_secure()),
        ("sgx_mgx", SecurityProfile::sgx_mgx()),
        ("tensortee", SecurityProfile::tensor_tee()),
    ]
}
