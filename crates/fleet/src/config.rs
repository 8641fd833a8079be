//! Fleet-level configuration: how many instances serve, and how the
//! router places sessions on them.

use serde::Serialize;
use tee_serve::ServeConfig;

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

/// Static configuration of one fleet run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetConfig {
    /// Per-instance serving configuration. Fleet instances hold no KV
    /// budget, so only its NPU shape (`serve.npu`) is read.
    pub serve: ServeConfig,
    /// Serving instances, every one active for the whole run.
    pub n_instances: usize,
    /// Placement policy.
    pub policy: Policy,
}

impl FleetConfig {
    /// A fleet of `n_instances` identical instances under KV-aware
    /// placement.
    pub fn new(serve: ServeConfig, n_instances: usize) -> Self {
        assert!(n_instances >= 1, "a fleet needs at least one instance");
        FleetConfig {
            serve,
            n_instances,
            policy: Policy::KvAware,
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
        assert_eq!(cfg.n_instances, 4);
        assert_eq!(cfg.policy, Policy::RoundRobin);
    }

    #[test]
    #[should_panic]
    fn empty_fleet_rejected() {
        FleetConfig::new(serve(), 0);
    }
}
