//! # tee-serve
//!
//! Secure LLM **inference serving** simulator — the serving-side workload
//! class the training-only reproduction was missing. It stresses the
//! paper's two axes (MAC granularity §4.3, CPU↔NPU transfer protocol
//! §3.3/§4.4) in a new regime: small-batch GEMV decode iterations, and
//! per-request KV caches migrating between NPU HBM and CPU DRAM.
//!
//! * [`trace`] — deterministic Poisson/bursty request arrival traces with
//!   zoo-shaped prompt/output lengths ([`tee_sim::SplitMix64`] seeded),
//! * [`config`] — the NPU and KV budget ([`ServeConfig`]), the per-token
//!   [`KvSpec`], the [`SecurityProfile`] mapping each paper mode to a MAC
//!   scheme + KV transfer [`Protocol`] (coarse-MAC + staging vs
//!   tensor-MAC + direct), and [`kv_transfer_time`], the KV path's price,
//! * [`cost`] — the fused prefill/decode iteration kernel and its
//!   [`Pricer`]: exact through [`tee_npu::NpuEngine`], or the calibrated
//!   [`IterCost`] surrogate,
//! * [`scheduler`] — the continuous-batching [`Instance`] (admission,
//!   optional KV budget with LRU spill to CPU DRAM, stall window,
//!   completion accounting) that both [`simulate`] and `tee-fleet` run,
//!   and the trace loop feeding [`simulate`]'s one exact-priced instance.
//!   Each running request carries its own KV state (bytes, HBM or DRAM
//!   residency, last reserving round); the instance keeps only the
//!   budget and the HBM in use,
//! * [`report`] — [`ServeReport`]: TTFT/TPOT/latency percentiles,
//!   goodput, and exposed KV-migration time.
//!
//! ## Example
//!
//! ```
//! use tee_serve::{simulate, SecurityProfile, ServeConfig, TraceConfig};
//! use tee_workloads::zoo::by_name;
//!
//! let model = by_name("GPT").expect("Table-2 model");
//! let cfg = ServeConfig::for_model(&model, 4, 640);
//! let trace = TraceConfig::poisson(8, 16.0, 42).generate();
//! let report = simulate(&cfg, &model, &SecurityProfile::tensor_tee(), &trace);
//! assert_eq!(report.completed_requests, 8);
//! assert!(report.goodput_tps() > 0.0);
//! ```

pub mod config;
pub mod cost;
pub mod report;
pub mod scheduler;
pub mod trace;

pub use config::{kv_transfer_time, KvSpec, SecurityProfile, ServeConfig};
pub use cost::{IterCost, Pricer};
pub use report::ServeReport;
pub use scheduler::{simulate, simulate_probed, Instance};
/// The transfer protocol type, re-exported so serving callers (the fleet
/// router, the attack shield) name it without a `tee-comm` dependency.
pub use tee_comm::Protocol;
pub use trace::{
    ArrivalProcess, Diurnal, Request, SessionRequest, SessionTraceConfig, TraceConfig,
};
