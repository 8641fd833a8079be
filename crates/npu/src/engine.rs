//! The NPU layer-execution engine.
//!
//! Runs a sequence of [`Layer`]s (forward/backward phases of a transformer
//! step) under a [`MacScheme`], composing per-layer stream timings from
//! the Figure-13 pipeline model and accounting output write-back and
//! (non-delayed) code-fetch verification.

use crate::config::NpuConfig;
use crate::mac::MacScheme;
use crate::pipeline::{simulate_stream, StreamTiming};
use serde::{Deserialize, Serialize};
use tee_sim::Time;

/// One NPU-executed layer (or fused group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layer {
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// Input activation bytes streamed from GDDR.
    pub in_bytes: u64,
    /// Weight bytes streamed from GDDR.
    pub w_bytes: u64,
    /// Output bytes written back to GDDR.
    pub out_bytes: u64,
}

impl Layer {
    /// Ideal compute time on the PE array.
    pub fn compute_time(&self, cfg: &NpuConfig) -> Time {
        let cycles = self.macs.div_ceil(cfg.macs_per_cycle());
        cfg.clock().cycles_to_time(cycles.max(1))
    }

    /// Total streamed input bytes.
    pub fn stream_bytes(&self) -> u64 {
        self.in_bytes + self.w_bytes
    }
}

/// Timing report for one layer sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NpuRunReport {
    /// End-to-end time.
    pub total: Time,
    /// Aggregate compute-stall time attributable to verification.
    pub verify_stall: Time,
    /// Bytes moved (inputs + outputs, data only).
    pub data_bytes: u64,
}

/// The NPU engine.
///
/// # Example
///
/// ```
/// use tee_npu::config::NpuConfig;
/// use tee_npu::engine::{Layer, NpuEngine};
/// use tee_npu::mac::MacScheme;
///
/// let engine = NpuEngine::new(NpuConfig::default(), MacScheme::TensorDelayed);
/// let tile = 512 * 512 * 2; // one fp16 512x512 matrix
/// let gemm = Layer { macs: 512 * 512 * 512, in_bytes: tile, w_bytes: tile, out_bytes: tile };
/// let report = engine.run(&[gemm]);
/// assert!(report.total > tee_sim::Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct NpuEngine {
    cfg: NpuConfig,
    scheme: MacScheme,
    /// Per-layer code image fetched and verified non-delayed (§4.3).
    code_bytes_per_layer: u64,
}

impl NpuEngine {
    /// Creates an engine under the given protection scheme.
    pub fn new(cfg: NpuConfig, scheme: MacScheme) -> Self {
        NpuEngine {
            cfg,
            scheme,
            code_bytes_per_layer: 16 << 10,
        }
    }

    /// Simulates one layer; returns its stream timing and total layer time.
    fn run_layer(&self, layer: &Layer) -> (StreamTiming, Time) {
        let stream = simulate_stream(
            &self.cfg,
            self.scheme,
            layer.stream_bytes(),
            layer.compute_time(&self.cfg),
        );
        // Instruction fetches always take the *non-delayed* path: even in
        // TensorTEE mode code is verified per-cacheline before issue.
        let code_scheme = match self.scheme {
            MacScheme::None => MacScheme::None,
            _ => MacScheme::PerBlock { granularity: 64 },
        };
        let code = simulate_stream(
            &self.cfg,
            code_scheme,
            self.code_bytes_per_layer,
            Time::ZERO,
        );
        // Output drain at (MAC-inflated) bandwidth; MAC generation for
        // writes is pipelined and adds no stall.
        let out_bw = self.cfg.dram_bandwidth() / (1.0 + self.scheme.traffic_overhead());
        let out_time = Time::from_secs_f64(layer.out_bytes as f64 / out_bw);
        (stream, stream.total + code.total + out_time)
    }

    /// Runs a layer sequence to completion.
    ///
    /// Transformer steps repeat the same dozen-layer block once per model
    /// layer, so identical [`Layer`] shapes are priced once and reused:
    /// [`Time`] is integer picoseconds and the accumulation loop is
    /// unchanged, so the deduplicated run is bit-identical to pricing
    /// every layer from scratch — just ~`L`× cheaper on an `L`-block
    /// model.
    pub fn run(&self, layers: &[Layer]) -> NpuRunReport {
        let mut priced: Vec<(Layer, (StreamTiming, Time))> = Vec::new();
        let mut total = Time::ZERO;
        let mut stall = Time::ZERO;
        let mut bytes = 0u64;
        for layer in layers {
            let (stream, layer_time) = match priced.iter().find(|(l, _)| l == layer) {
                Some((_, cached)) => *cached,
                None => {
                    let fresh = self.run_layer(layer);
                    priced.push((*layer, fresh));
                    fresh
                }
            };
            total += layer_time;
            stall += stream.verify_stall;
            bytes += layer.stream_bytes() + layer.out_bytes;
        }
        NpuRunReport {
            total,
            verify_stall: stall,
            data_bytes: bytes,
        }
    }

    /// Normalized slowdown of this scheme against a non-secure run of the
    /// same layers.
    pub fn slowdown(&self, layers: &[Layer]) -> f64 {
        let secure = self.run(layers).total;
        let plain = NpuEngine::new(self.cfg.clone(), MacScheme::None)
            .run(layers)
            .total;
        secure.as_secs_f64() / plain.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A GEMM layer `M×K × K×N` with the given element size.
    fn gemm(m: u64, k: u64, n: u64, elem: u64) -> Layer {
        Layer {
            macs: m * k * n,
            in_bytes: m * k * elem,
            w_bytes: k * n * elem,
            out_bytes: m * n * elem,
        }
    }

    /// An element-wise layer over `bytes` of data (memory-bound).
    fn elementwise(bytes: u64) -> Layer {
        Layer {
            macs: bytes / 2,
            in_bytes: bytes,
            w_bytes: 0,
            out_bytes: bytes,
        }
    }
    use crate::mac::figure20_sweep;

    /// A transformer-ish mix: large GEMMs (compute-bound) plus
    /// element-wise layers (memory-bound).
    fn layer_mix() -> Vec<Layer> {
        let mut layers = Vec::new();
        for _ in 0..4 {
            layers.push(gemm(1024, 1024, 1024, 2));
            layers.push(elementwise(4 << 20));
        }
        layers
    }

    #[test]
    fn gemm_is_compute_bound() {
        // The 512×512 array at 1 GHz delivers ~524 TFLOP/s against only
        // 128 GB/s of GDDR, so GEMMs need very high arithmetic intensity
        // to go compute-bound (dim ≳ 8K at fp16 with ideal reuse).
        let cfg = NpuConfig::default();
        let l = gemm(16384, 16384, 16384, 2);
        let compute = l.compute_time(&cfg).as_secs_f64();
        let fetch = l.stream_bytes() as f64 / cfg.dram_bandwidth();
        assert!(compute > fetch, "large GEMM should be compute-bound");
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let cfg = NpuConfig::default();
        let l = elementwise(8 << 20);
        let compute = l.compute_time(&cfg).as_secs_f64();
        let fetch = l.stream_bytes() as f64 / cfg.dram_bandwidth();
        assert!(compute < fetch);
    }

    #[test]
    fn figure20_shape() {
        let cfg = NpuConfig::default();
        let layers = layer_mix();
        let mut slowdowns = Vec::new();
        for scheme in figure20_sweep() {
            let s = NpuEngine::new(cfg.clone(), scheme).slowdown(&layers);
            slowdowns.push((scheme.label(), s));
        }
        let get = |label: &str| {
            slowdowns
                .iter()
                .find(|(l, _)| l == label)
                .map(|&(_, s)| s)
                .unwrap()
        };
        // Fine granularity pays traffic; mid is the sweet spot; coarse
        // stalls; ours is near-free.
        assert!(get("64B") > get("512B"), "64B worse than 512B");
        assert!(get("4kB") > get("512B"), "4kB stalls exceed 512B");
        assert!(get("tensor-delayed") < get("64B"));
        assert!(
            get("tensor-delayed") < 1.05,
            "delayed verification ≈ free: {}",
            get("tensor-delayed")
        );
    }

    #[test]
    fn slowdown_of_none_is_one() {
        let cfg = NpuConfig::default();
        let s = NpuEngine::new(cfg, MacScheme::None).slowdown(&layer_mix());
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dedup_is_bit_identical_to_per_layer_pricing() {
        // `run` prices each distinct shape once; a sequence's report must
        // still equal the layer-by-layer composition (per-layer runs hit
        // no cache), including across repeated shapes — the property the
        // explore sweeps rely on for byte-identical output.
        for scheme in figure20_sweep() {
            let engine = NpuEngine::new(NpuConfig::default(), scheme);
            let mut layers = layer_mix();
            layers.extend(layer_mix()); // repeats of every shape
            let whole = engine.run(&layers);
            let mut total = Time::ZERO;
            let mut stall = Time::ZERO;
            let mut bytes = 0u64;
            for l in &layers {
                let one = engine.run(std::slice::from_ref(l));
                total += one.total;
                stall += one.verify_stall;
                bytes += one.data_bytes;
            }
            assert_eq!(whole.total, total, "{}", scheme.label());
            assert_eq!(whole.verify_stall, stall, "{}", scheme.label());
            assert_eq!(whole.data_bytes, bytes, "{}", scheme.label());
        }
    }

    #[test]
    fn run_accumulates_bytes() {
        let cfg = NpuConfig::default();
        let layers = vec![elementwise(1 << 20); 3];
        let r = NpuEngine::new(cfg, MacScheme::TensorDelayed).run(&layers);
        assert_eq!(r.data_bytes, 3 * (2 << 20));
        assert_eq!(r.verify_stall, Time::ZERO);
    }

    #[test]
    fn code_fetch_verified_non_delayed() {
        // Even the tensor-delayed engine pays the per-cacheline path for
        // instruction fetches — visible as a tiny constant per layer.
        let cfg = NpuConfig::default();
        let layers = vec![elementwise(1 << 20)];
        let ours = NpuEngine::new(cfg.clone(), MacScheme::TensorDelayed).run(&layers);
        let plain = NpuEngine::new(cfg, MacScheme::None).run(&layers);
        assert!(ours.total > plain.total);
    }
}
