//! The NPU layer-execution engine.
//!
//! Runs a sequence of [`Layer`]s (forward/backward phases of a transformer
//! step) under a [`MacScheme`], composing per-layer stream timings from
//! the Figure-13 pipeline model and accounting output write-back and
//! (non-delayed) code-fetch verification. What depends only on the config
//! and the scheme is computed once, in [`NpuEngine::new`]: the per-layer
//! code stream's price, the scheme's per-block pipeline constants and the
//! MAC-inflated output bandwidth. A run then costs only each layer's
//! stream pricing, exact over all of the stream's blocks (a closed form,
//! or one `PerBlock` walk that jumps whole periods), and a one-layer run
//! (a serving iteration) skips the table that prices repeated shapes once.
//!
//! The unit tests check every run against the free
//! [`simulate_stream`] composed per layer, as the engine priced before it
//! cached anything.

use crate::config::NpuConfig;
use crate::mac::MacScheme;
use crate::pipeline::{simulate_stream, Blocks, StreamTiming};
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
    /// The scheme's full-block pipeline constants.
    blocks: Blocks,
    /// Output drain bandwidth in bytes/s, inflated by the scheme's MACs.
    out_bw: f64,
    /// Time to fetch and verify each layer's code image.
    code_time: Time,
}

/// Per-layer code image fetched and verified non-delayed (§4.3).
const CODE_BYTES_PER_LAYER: u64 = 16 << 10;

impl NpuEngine {
    /// Creates an engine under the given protection scheme.
    pub fn new(cfg: NpuConfig, scheme: MacScheme) -> Self {
        // Instruction fetches always take the *non-delayed* path: even in
        // TensorTEE mode code is verified per-cacheline before issue.
        let code_scheme = match scheme {
            MacScheme::None => MacScheme::None,
            _ => MacScheme::PerBlock { granularity: 64 },
        };
        let code_time = simulate_stream(&cfg, code_scheme, CODE_BYTES_PER_LAYER, Time::ZERO).total;
        NpuEngine {
            blocks: Blocks::new(&cfg, scheme),
            out_bw: cfg.dram_bandwidth() / (1.0 + scheme.traffic_overhead()),
            cfg,
            code_time,
        }
    }

    /// Simulates one layer; returns its stream timing and total layer time.
    fn run_layer(&self, layer: &Layer) -> (StreamTiming, Time) {
        let stream = self.blocks.stream(
            &self.cfg,
            layer.stream_bytes(),
            layer.compute_time(&self.cfg),
        );
        // Output drain at (MAC-inflated) bandwidth; MAC generation for
        // writes is pipelined and adds no stall.
        let out_time = Time::from_secs_f64(layer.out_bytes as f64 / self.out_bw);
        (stream, stream.total + self.code_time + out_time)
    }

    /// Runs a layer sequence to completion.
    ///
    /// Transformer steps repeat the same dozen-layer block once per model
    /// layer, so identical [`Layer`] shapes are priced once and reused:
    /// [`Time`] is integer picoseconds and the accumulation loop is
    /// unchanged, so the deduplicated run is bit-identical to pricing
    /// every layer from scratch — just ~`L`× cheaper on an `L`-block
    /// model. A single layer (a fused serving iteration) is priced
    /// directly, without the table.
    pub fn run(&self, layers: &[Layer]) -> NpuRunReport {
        if let [layer] = layers {
            let (stream, total) = self.run_layer(layer);
            return NpuRunReport {
                total,
                verify_stall: stream.verify_stall,
                data_bytes: layer.stream_bytes() + layer.out_bytes,
            };
        }
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
    use proptest::collection::vec;
    use proptest::prelude::*;

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

    /// A run priced as before [`NpuEngine::new`] cached anything: per
    /// layer, the free [`simulate_stream`], the code stream and the output
    /// drain at the MAC-inflated bandwidth, summed.
    fn fresh_price(cfg: &NpuConfig, scheme: MacScheme, layers: &[Layer]) -> NpuRunReport {
        let code_scheme = match scheme {
            MacScheme::None => MacScheme::None,
            _ => MacScheme::PerBlock { granularity: 64 },
        };
        let code_time = simulate_stream(cfg, code_scheme, CODE_BYTES_PER_LAYER, Time::ZERO).total;
        let out_bw = cfg.dram_bandwidth() / (1.0 + scheme.traffic_overhead());
        let mut report = NpuRunReport {
            total: Time::ZERO,
            verify_stall: Time::ZERO,
            data_bytes: 0,
        };
        for layer in layers {
            let stream =
                simulate_stream(cfg, scheme, layer.stream_bytes(), layer.compute_time(cfg));
            let out_time = Time::from_secs_f64(layer.out_bytes as f64 / out_bw);
            report.total += stream.total + code_time + out_time;
            report.verify_stall += stream.verify_stall;
            report.data_bytes += layer.stream_bytes() + layer.out_bytes;
        }
        report
    }

    proptest! {
        #![proptest_config(ProptestConfig::ci())]
        /// `run` on one layer, and on a slice that repeats several, equals
        /// the fresh per-layer price, over configs, `None`,
        /// `TensorDelayed` and every Figure-20 granularity, and streams
        /// that are empty, shorter than one block, and from one block to
        /// 1 GiB, with compute from none to 4x the fetch time.
        #[test]
        fn engine_runs_match_fresh_stream_pricing(
            scheme_pick in 0usize..8,
            buffer_bytes in (2u64 << 10)..=(32 << 10),
            clock_and_mac in (500u64..=2000, 250u64..=4000, 0u64..=200, 0u64..=200),
            dram in (1u32..=16, 1u64..=32),
            shapes in vec((0u8..4, any::<u64>(), any::<u64>(), 0u64..=4000, 0u64..=(1 << 30)), 1..=3),
        ) {
            let cfg = NpuConfig::varied(clock_and_mac, buffer_bytes, dram);
            let scheme = std::iter::once(MacScheme::None)
                .chain(figure20_sweep())
                .nth(scheme_pick)
                .expect("eight schemes");
            let block = scheme.pipeline_block();
            let layers: Vec<Layer> = shapes
                .iter()
                .map(|&(class, size_bits, split_bits, load_milli, out_bytes)| {
                    let bytes = match class {
                        0 => 0,
                        1 => 1 + size_bits % (block - 1),
                        2 => block + size_bits % (4096 * block),
                        _ => 4096 * block + 1 + size_bits % ((1 << 30) - 4096 * block),
                    };
                    let in_bytes = split_bits % (bytes + 1);
                    let fetch_secs = bytes as f64 / cfg.dram_bandwidth();
                    let macs = fetch_secs * load_milli as f64 / 1e3
                        * cfg.freq_ghz
                        * 1e9
                        * cfg.macs_per_cycle() as f64;
                    Layer {
                        macs: macs as u64,
                        in_bytes,
                        w_bytes: bytes - in_bytes,
                        out_bytes,
                    }
                })
                .collect();
            let engine = NpuEngine::new(cfg.clone(), scheme);
            for layer in &layers {
                let one = std::slice::from_ref(layer);
                prop_assert_eq!(engine.run(one), fresh_price(&cfg, scheme, one), "{:?} {:?}", scheme, layer);
            }
            let repeated: Vec<Layer> = layers.iter().chain(layers.iter().rev()).copied().collect();
            prop_assert_eq!(
                engine.run(&repeated),
                fresh_price(&cfg, scheme, &repeated),
                "{:?} {:?} on {:?}",
                scheme,
                repeated,
                cfg
            );
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

    /// One fused GPT2-M decode iteration (24 layers, hidden 1024): 16
    /// requests at a 304-token context, weights streamed once and KV per
    /// request, as the serve scheduler shapes it.
    fn gpt2m_decode_iteration() -> Layer {
        let (h, layers, fp16) = (1024u64, 24u64, 2u64);
        let (r, ctx) = (16u64, 304u64);
        let kv_per_layer = 2 * h * fp16;
        Layer {
            macs: layers * (r * 12 * h * h + r * ctx * 2 * h),
            in_bytes: r * ctx * kv_per_layer * layers + r * h * fp16 * layers,
            w_bytes: 12 * h * h * fp16 * layers,
            out_bytes: r * h * fp16 * layers + r * kv_per_layer * layers,
        }
    }

    /// Every number of whole `NpuRunReport`s, under `None` and each
    /// Figure-20 scheme, on the default config and on one whose small
    /// buffer and slow MAC make `PerBlock` fetches wait on verification.
    /// Recorded with the block-by-block pipeline, before it was priced in
    /// closed form and by period jumps. Pricing the code stream under the
    /// data scheme moves every secure row but the 64 B ones.
    #[test]
    fn npu_run_reports_are_pinned() {
        // (config, layers, data_bytes, (total ps, verify_stall ps) under
        // `None` and then each Figure-20 scheme in sweep order)
        type Pinned = (&'static str, &'static str, u64, [(u64, u64); 8]);
        const PINNED: [Pinned; 4] = [
            (
                "default",
                "mix",
                58_720_256,
                [
                    (459_776_248, 0),
                    (518_799_416, 279_560_960),
                    (475_607_560, 254_658_032),
                    (468_423_792, 250_530_264),
                    (464_857_412, 248_451_500),
                    (495_052_476, 279_342_380),
                    (625_623_604, 410_165_404),
                    (460_873_024, 0),
                ],
            ),
            (
                "default",
                "decode",
                1_085_276_160,
                [
                    (8_478_848_001, 0),
                    (9_547_325_417, 9_509_443_650),
                    (8_746_101_704, 8_709_946_437),
                    (8_612_566_173, 8_574_581_834),
                    (8_545_801_414, 8_507_957_075),
                    (9_544_836_754, 9_507_056_416),
                    (13_775_060_860, 13_737_036_137),
                    (8_478_985_128, 0),
                ],
            ),
            (
                "gated",
                "mix",
                58_720_256,
                [
                    (459_776_248, 0),
                    (1_275_145_256, 1_032_963_320),
                    (1_256_726_008, 1_032_833_000),
                    (1_253_671_008, 1_032_834_000),
                    (1_515_216_700, 1_295_867_308),
                    (2_169_540_324, 1_950_886_748),
                    (1_840_984_628, 1_622_582_948),
                    (1_250_248_504, 0),
                ],
            ),
            (
                "gated",
                "decode",
                1_085_276_160,
                [
                    (8_478_848_001, 0),
                    (33_862_561_127, 33_824_311_425),
                    (33_860_834_630, 33_824_311_428),
                    (33_860_548_635, 33_822_196_361),
                    (42_353_992_965, 42_315_780_691),
                    (63_504_080_215, 63_465_931_942),
                    (52_912_556_828, 52_874_164_170),
                    (33_860_217_063, 0),
                ],
            ),
        ];
        let gated = NpuConfig {
            verify_buffer_bytes: 2 << 10,
            mac_lines_per_cycle: 0.5,
            ..NpuConfig::default()
        };
        let configs = [("default", NpuConfig::default()), ("gated", gated)];
        let workloads = [
            ("mix", layer_mix()),
            ("decode", vec![gpt2m_decode_iteration()]),
        ];
        let schemes: Vec<MacScheme> = std::iter::once(MacScheme::None)
            .chain(figure20_sweep())
            .collect();
        assert_eq!(schemes.len(), 8);
        let cases = configs
            .iter()
            .flat_map(|c| workloads.iter().map(move |w| (c, w)));
        assert_eq!(cases.clone().count(), PINNED.len());
        for (((config, cfg), (workload, layers)), pinned) in cases.zip(PINNED) {
            let (pin_config, pin_workload, bytes, reports) = pinned;
            assert_eq!((*config, *workload), (pin_config, pin_workload));
            for (&scheme, (total, stall)) in schemes.iter().zip(reports) {
                let r = NpuEngine::new(cfg.clone(), scheme).run(layers);
                assert_eq!(
                    (r.total.as_ps(), r.verify_stall.as_ps(), r.data_bytes),
                    (total, stall, bytes),
                    "{config} {workload} {}",
                    scheme.label()
                );
            }
        }
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
