//! # tee-npu
//!
//! The NPU side of the TensorTEE reproduction — a TPUv3-like accelerator
//! model with memory protection:
//!
//! * [`config`] — Table-1 NPU configuration (1 GHz, 512×512 PEs, 32 MB
//!   scratchpad, 128 GB/s GDDR5),
//! * [`mac`] — MAC granularity schemes (per-cacheline, MGX-style coarse
//!   blocks, TensorTEE per-tensor delayed),
//! * [`pipeline`] — the Figure-13 DRAM→decrypt→verify→compute pipeline
//!   with its bounded verification buffer (stall source),
//! * [`memory`] — functional encrypted GDDR with on-chip per-tensor
//!   VN/MAC tables (MGX-style VN generation) and direct-transfer
//!   import/export,
//! * [`verify`] — poison-bit tracing and the verification barrier
//!   guarding communication (Figure 14),
//! * [`engine`] — the layer-sequence runner behind Figure 20.
//!
//! ## Quick start
//!
//! ```
//! use tee_npu::config::NpuConfig;
//! use tee_npu::engine::{Layer, NpuEngine};
//! use tee_npu::mac::MacScheme;
//!
//! let engine = NpuEngine::new(NpuConfig::default(), MacScheme::TensorDelayed);
//! let copy = Layer { macs: 1 << 19, in_bytes: 1 << 20, w_bytes: 0, out_bytes: 1 << 20 };
//! let slowdown = engine.slowdown(&[copy]);
//! assert!(slowdown < 1.10);
//! ```

pub mod config;
pub mod engine;
pub mod mac;
pub mod memory;
pub mod pipeline;
pub mod verify;

pub use config::NpuConfig;
pub use engine::{Layer, NpuEngine, NpuRunReport};
pub use mac::MacScheme;
pub use memory::{NpuMemory, TensorMeta};
pub use verify::{BarrierError, PoisonTracker};
