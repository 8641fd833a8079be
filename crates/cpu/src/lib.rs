//! # tee-cpu
//!
//! The CPU side of the TensorTEE reproduction:
//!
//! * [`config`] — Table-1 system configuration,
//! * [`tensor`] — tensor descriptors,
//! * [`mee`] — the SGX-like cacheline-granularity MEE baseline
//!   (VN + MAC + 8-ary Bonsai Merkle tree + 32 KB metadata cache),
//! * [`analyzer`] — **TenAnalyzer**, the paper's hardware tensor-detection
//!   unit (Meta Table + Tensor Filter + Figure-12 write protocol),
//! * [`softvn`] — the SoftVN software-declared baseline,
//! * [`kernels`] — Adam-update and tiled-GEMM workload generators,
//! * [`engine`] — the execution engine that drives request streams through
//!   caches → TEE → DRAM and produces Figures 3, 18, 19 and §6.2.
//!
//! ## Quick start
//!
//! ```
//! use tee_cpu::analyzer::TenAnalyzerConfig;
//! use tee_cpu::engine::{CpuEngine, TeeMode};
//! use tee_cpu::kernels::AdamWorkload;
//! use tee_cpu::config::CpuConfig;
//!
//! let workload = AdamWorkload::from_tensor_sizes(&[8 << 10; 2]);
//! let mut engine = CpuEngine::new(
//!     CpuConfig::default(),
//!     TeeMode::TensorTee(TenAnalyzerConfig::default()),
//! );
//! let report = engine.run_adam(&workload, 2, 3);
//! assert_eq!(report.iterations.len(), 3);
//! ```

pub mod analyzer;
pub mod config;
pub mod engine;
pub mod kernels;
pub mod mee;
pub mod softvn;
pub mod tensor;

pub use analyzer::{TenAnalyzer, TenAnalyzerConfig};
pub use config::CpuConfig;
pub use engine::{AdamReport, CpuEngine, TeeMode};
pub use kernels::{AdamWorkload, GemmWorkload};
pub use mee::{IntegrityError, SgxMee, VnPath};
pub use softvn::{SoftVnConfig, SoftVnTable};
pub use tensor::TensorDesc;
