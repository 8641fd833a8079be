//! Fleet-level configuration: how many instances, how the router places
//! sessions, how deep the admission queues are, when the fleet scales,
//! and what a KV-cache handoff costs.

use serde::Serialize;
use tee_serve::ServeConfig;
use tee_sim::Time;

/// Placement policy the router runs for every arriving turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Policy {
    /// Rotate over routable instances regardless of load or KV locality.
    RoundRobin,
    /// Pick the routable instance with the fewest outstanding requests.
    LeastLoaded,
    /// Route a follow-up turn to the instance already holding its
    /// session KV when that instance can take it; otherwise fall back to
    /// least-loaded and pay a priced KV migration.
    KvAware,
}

impl Policy {
    /// Short label for report tables and explore knobs.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::RoundRobin => "round_robin",
            Policy::LeastLoaded => "least_loaded",
            Policy::KvAware => "kv_aware",
        }
    }

    /// All policies, in presentation order.
    pub fn all() -> [Policy; 3] {
        [Policy::RoundRobin, Policy::LeastLoaded, Policy::KvAware]
    }
}

/// Threshold autoscaling: the router samples mean outstanding work per
/// active instance every `interval` and scales between `min_active` and
/// the provisioned fleet size. A scaled-down instance drains (finishes
/// its outstanding work, stops receiving new) and parks, evicting its
/// session KV to CPU DRAM; a scaled-up instance pays `cold_start` before
/// it becomes routable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AutoscaleConfig {
    /// Sampling period of the control loop.
    pub interval: Time,
    /// Scale up when mean outstanding per active instance exceeds this.
    pub high_outstanding: f64,
    /// Scale (drain) down when mean outstanding falls below this.
    pub low_outstanding: f64,
    /// Delay before a parked instance becomes routable again (weights
    /// load + attestation + runtime warmup).
    pub cold_start: Time,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            interval: Time::from_ms(200),
            high_outstanding: 12.0,
            low_outstanding: 2.0,
            cold_start: Time::from_secs_f64(2.0),
        }
    }
}

/// Static configuration of one fleet run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetConfig {
    /// Per-instance serving configuration (NPU shape, batching knobs).
    pub serve: ServeConfig,
    /// Provisioned instances (the autoscaling ceiling).
    pub n_instances: usize,
    /// Instances active at t = 0 (also the autoscaling floor).
    pub min_active: usize,
    /// Per-instance bound on outstanding (queued + running) requests;
    /// when every routable instance is at the bound, the arrival is
    /// rejected (admission control).
    pub queue_bound: usize,
    /// Placement policy.
    pub policy: Policy,
    /// Autoscaling control loop; `None` pins the fleet at `min_active`.
    pub autoscale: Option<AutoscaleConfig>,
    /// Per-migration secure-session-establishment cost (key exchange +
    /// attestation round trips) paid by the secure modes before any KV
    /// byte moves. The non-secure mode pays nothing.
    pub session_setup: Time,
}

impl FleetConfig {
    /// A fleet of `n_instances` identical instances, all active, KV-aware
    /// placement, no autoscaling.
    pub fn new(serve: ServeConfig, n_instances: usize) -> Self {
        assert!(n_instances >= 1, "a fleet needs at least one instance");
        FleetConfig {
            serve,
            n_instances,
            min_active: n_instances,
            queue_bound: 64,
            policy: Policy::KvAware,
            autoscale: None,
            session_setup: Time::from_us(50),
        }
    }

    /// Replaces the placement policy (builder form).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tee_serve::ServeConfig;
    use tee_workloads::zoo::by_name;

    fn serve() -> ServeConfig {
        let model = by_name("GPT").unwrap();
        ServeConfig::for_model(&model, 4, 640)
    }

    #[test]
    fn builders_validate() {
        let cfg = FleetConfig::new(serve(), 4).with_policy(Policy::RoundRobin);
        assert_eq!(cfg.min_active, 4, "every instance starts active");
        assert_eq!(cfg.autoscale, None);
        assert_eq!(cfg.policy, Policy::RoundRobin);
    }

    #[test]
    #[should_panic]
    fn empty_fleet_rejected() {
        FleetConfig::new(serve(), 0);
    }
}
