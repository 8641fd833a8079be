//! # tensortee
//!
//! The top-level TensorTEE system model: composes the CPU engine
//! (`tee-cpu`), the NPU engine (`tee-npu`) and the interconnect protocols
//! (`tee-comm`) into end-to-end ZeRO-Offload training steps, and provides
//! the experiment runners that regenerate every table and figure of the
//! paper (see EXPERIMENTS.md for the experiment index).
//!
//! ## Quick start
//!
//! ```
//! use tensortee::{SecureMode, SystemConfig, TrainingSystem};
//! use tee_workloads::zoo::by_name;
//!
//! let cfg = SystemConfig::fast_sim();
//! let model = by_name("GPT").expect("Table-2 model");
//! let mut sys = TrainingSystem::new(cfg, SecureMode::TensorTee);
//! let step = sys.simulate_step(&model);
//! assert!(step.total() > tee_sim::Time::ZERO);
//! ```
//!
//! ## The artifact registry
//!
//! Every paper table/figure is a named [`artifact::Artifact`] returning a
//! structured [`report::Report`] (markdown + JSON):
//!
//! ```
//! use tensortee::artifact::{find, RunContext};
//!
//! let report = find("sec65").unwrap().run(&RunContext::fast());
//! assert!(report.to_markdown().contains("Meta Table"));
//! assert!(tensortee::json::is_well_formed(&report.to_json().to_string()));
//! ```
//!
//! The `tensortee` CLI (`cargo run --release --bin tensortee -- list`)
//! drives the same registry from the command line.

pub mod artifact;
pub mod attack;
pub mod config;
pub mod des_cluster;
pub mod experiments;
pub mod explore;
pub mod hw;
pub mod json;
mod memo;
pub mod obs;
pub mod report;
pub mod session;
pub mod system;

pub use artifact::{Artifact, RunContext};
pub use config::{ClusterConfig, SecureMode, SystemConfig};
pub use des_cluster::{DesClusterConfig, DesClusterSystem, DesStepReport, Parallelism};
pub use hw::HardwareBudget;
pub use report::{PhaseLedger, Report};
pub use session::SecureSession;
pub use system::{ClusterStepBreakdown, ClusterSystem, StepBreakdown, TrainingSystem};
