//! # tee-fleet
//!
//! KV-cache-aware fleet serving simulator on the `tee-sim` discrete-event
//! core: M continuous-batching serving instances behind a cluster
//! [`router::Router`]. Each instance is a [`tee_serve::Instance`] — the
//! same batching core `tee_serve::simulate` runs — wrapped as a [`des`]
//! component, without a KV budget and priced by the [`IterCost`] surrogate
//! of the fused NPU iteration, calibrated once per run on the configured
//! NPU. The router adds
//!
//! * pluggable placement ([`Policy`]): round-robin, least-loaded, and
//!   KV-aware (follow-up turns of a session go home to the instance
//!   holding their KV; anything else pays a priced migration),
//! * **secure KV handoff**: a migration pays per-migration secure
//!   session establishment plus the mode's Plain/Staged/Direct transfer
//!   protocol for the session's KV bytes — the staged protocol
//!   serializes against the destination's compute, the direct protocol
//!   overlaps it (the paper's §3.3-vs-§4.4 gap, re-appearing at fleet
//!   scale), and
//! * admission control with bounded per-instance queues.
//!
//! Traces come from `tee_serve::SessionTraceConfig` — deterministic
//! multi-tenant session mixes with optional diurnal modulation — so a
//! fleet run is a pure function of `(config, model, profile, trace)`.
//!
//! [`des`]: tee_sim::des
//!
//! ## Example
//!
//! ```
//! use tee_fleet::{simulate, FleetConfig, Policy};
//! use tee_serve::config::SecurityProfile;
//! use tee_serve::{ServeConfig, SessionTraceConfig};
//! use tee_workloads::zoo::by_name;
//!
//! let model = by_name("GPT").unwrap();
//! let serve = ServeConfig::for_model(&model, 4, 640);
//! let cfg = FleetConfig::new(serve, 2).with_policy(Policy::KvAware);
//! let trace = SessionTraceConfig::poisson(24, 12.0, 2, 42).generate();
//! let report = simulate(&cfg, &model, &SecurityProfile::tensor_tee(), &trace);
//! assert_eq!(report.completed_requests + report.rejected_requests, 24);
//! ```

pub mod config;
pub mod report;
pub mod router;
pub mod sim;

pub use config::{FleetConfig, Policy};
pub use report::FleetReport;
pub use sim::{simulate, simulate_probed};
pub use tee_serve::IterCost;
