//! Pricing one fused continuous-batching iteration.
//!
//! Every iteration launches the whole transformer stack once over the
//! mixed batch: `iteration_layer` is that kernel's shape (the
//! AMLA-style decode kernel — memory-bound KV streaming plus a small
//! rescaling term; see PAPERS.md). A [`Pricer`] turns it into time:
//!
//! * [`Pricer::Exact`] runs the full [`NpuEngine`] stream simulation per
//!   iteration (what `tee_serve::simulate` does);
//! * [`Pricer::Calibrated`] uses the [`IterCost`] surrogate. A fleet run
//!   pushes 10^5–10^7 iterations through M instances, so each
//!   `(NPU, model, profile)` is calibrated **once** against the engine
//!   with a handful of probe iterations, fitting
//!
//! ```text
//! iter_time = base                         // weights + code stream
//!           + α·p + β·Σpᵢ²                 // prefill: linear + per-request
//!                                          //   quadratic attention
//!           + γ·r + δ·c                    // decode: per-request GEMV +
//!                                          //   per-context-token KV stream
//! ```
//!
//! The fit is a pure function of the probe timings, so the surrogate is
//! exactly as deterministic as the engine, and per-iteration pricing is
//! O(batch) integer/float arithmetic instead of a pipeline simulation.

use crate::config::SecurityProfile;
use tee_npu::engine::{Layer, NpuEngine};
use tee_npu::NpuConfig;
use tee_sim::Time;
use tee_workloads::zoo::ModelConfig;

const FP16: u64 = 2;

/// Probe prompt length for the prefill fit (the quadratic term is solved
/// from probes at `P` and `2P`).
const PROBE_P: u64 = 512;
/// Probe decode count for the per-request marginal.
const PROBE_R: u64 = 64;
/// Probe context length for the per-token KV-stream marginal.
const PROBE_C: u64 = 65_536;

/// The fused NPU kernel of one iteration across all `model.layers`
/// transformer layers: one GEMM-shaped prompt pass per length in
/// `prefills`, plus `decodes` GEMV-shaped decode steps, plus attention
/// over `ctx_sum` cached context tokens.
///
/// Weights stream once; decode attention streams each request's cached
/// KV (memory-bound — the AMLA analysis shows decode attention is
/// dominated by rescaling/streaming, not multiplies) and appends one
/// token of KV per decode.
pub(crate) fn iteration_layer(
    model: &ModelConfig,
    prefills: &[u64],
    decodes: u64,
    ctx_sum: u64,
) -> Layer {
    let h = model.hidden;
    let layers = model.layers;
    let weight_bytes = 12 * h * h * FP16 * layers;
    let r = decodes;
    let p: u64 = prefills.iter().sum();
    let kv_per_layer = 2 * h * FP16;

    // GEMV projections per decode + quadratic prompt GEMMs per prefill;
    // attention adds 2·H MACs per cached/prompt token (QKᵀ and AV) plus
    // the per-score rescaling additions, absorbed into the same term.
    // Each request's prompt attends only within itself, so the quadratic
    // term is per-request — batching prefills must not cross-multiply
    // independent prompts.
    let prefill_attn: u64 = prefills.iter().map(|&pi| pi * pi * 2 * h).sum();
    let macs =
        layers * (r * 12 * h * h + ctx_sum * 2 * h) + layers * (p * 12 * h * h + prefill_attn);
    // Streams in: cached KV reads + per-layer hidden states; prefill
    // token activations.
    let in_bytes = ctx_sum * kv_per_layer * layers + r * h * FP16 * layers + p * h * FP16 * layers;
    // Streams out: hidden states plus the KV append (one token per
    // decode, the whole prompt per prefill).
    let out_bytes = (r + p) * h * FP16 * layers + (r + p) * kv_per_layer * layers;
    Layer {
        macs: macs.max(1),
        in_bytes,
        w_bytes: weight_bytes,
        out_bytes,
    }
}

/// How a serving instance prices its fused iteration.
#[derive(Debug, Clone)]
pub enum Pricer {
    /// A full [`NpuEngine`] run per iteration.
    Exact(NpuEngine),
    /// The calibrated [`IterCost`] surrogate.
    Calibrated(IterCost),
}

impl Pricer {
    /// Prices one iteration of `model`: `prefills` are the new prompt
    /// lengths being prefilled, `decodes` is the decode count and
    /// `ctx_sum` the total cached context streamed for attention.
    pub(crate) fn price(
        &self,
        model: &ModelConfig,
        prefills: &[u64],
        decodes: u64,
        ctx_sum: u64,
    ) -> Time {
        match self {
            Pricer::Exact(engine) => {
                engine
                    .run(&[iteration_layer(model, prefills, decodes, ctx_sum)])
                    .total
            }
            Pricer::Calibrated(cost) => cost.iteration(prefills, decodes, ctx_sum),
        }
    }
}

/// The calibrated linear surrogate of one instance's fused iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterCost {
    /// Fixed per-iteration picoseconds (weight + code streams).
    base_ps: f64,
    /// Picoseconds per prefill prompt token (linear projections/streams).
    per_prefill_token_ps: f64,
    /// Picoseconds per prompt token squared (per-request attention).
    per_prefill_sq_ps: f64,
    /// Picoseconds per decode request (GEMV projections + KV append).
    per_decode_ps: f64,
    /// Picoseconds per cached context token streamed (decode attention).
    per_ctx_token_ps: f64,
}

impl IterCost {
    /// Calibrates the surrogate for `(model, profile)` on the default
    /// (Table 1) NPU.
    pub fn calibrate(model: &ModelConfig, profile: &SecurityProfile) -> Self {
        Self::calibrate_on(&NpuEngine::new(NpuConfig::default(), profile.mac), model)
    }

    /// Calibrates the surrogate for `model` by timing probe iterations
    /// on `engine` (its NPU and MAC scheme).
    pub fn calibrate_on(engine: &NpuEngine, model: &ModelConfig) -> Self {
        let probe = |prefills: &[u64], decodes: u64, ctx_sum: u64| -> f64 {
            engine
                .run(&[iteration_layer(model, prefills, decodes, ctx_sum)])
                .total
                .as_ps() as f64
        };
        let t0 = probe(&[], 0, 0);
        // Decode marginals: per-request at zero context, per-token on top.
        let per_decode = (probe(&[], PROBE_R, 0) - t0).max(0.0) / PROBE_R as f64;
        let t_ctx0 = probe(&[], 1, 0);
        let per_ctx = (probe(&[], 1, PROBE_C) - t_ctx0).max(0.0) / PROBE_C as f64;
        // Prefill: cost(p) = α·p + β·p², solved from probes at P and 2P.
        let t1 = probe(&[PROBE_P], 0, 0) - t0;
        let t2 = probe(&[2 * PROBE_P], 0, 0) - t0;
        let p = PROBE_P as f64;
        let beta = ((t2 - 2.0 * t1) / (2.0 * p * p)).max(0.0);
        let alpha = ((t1 - beta * p * p) / p).max(0.0);
        IterCost {
            base_ps: t0.max(1.0),
            per_prefill_token_ps: alpha,
            per_prefill_sq_ps: beta,
            per_decode_ps: per_decode,
            per_ctx_token_ps: per_ctx,
        }
    }

    /// Prices one iteration: `prefills` are the new prompt lengths being
    /// prefilled, `r` is the decode count and `ctx_sum` the total cached
    /// context streamed for attention (decode contexts plus any carried
    /// history the prefills attend to).
    pub fn iteration(&self, prefills: &[u64], r: u64, ctx_sum: u64) -> Time {
        let p_sum: u64 = prefills.iter().sum();
        let p_sq: f64 = prefills.iter().map(|&p| (p as f64) * (p as f64)).sum();
        let ps = self.base_ps
            + self.per_prefill_token_ps * p_sum as f64
            + self.per_prefill_sq_ps * p_sq
            + self.per_decode_ps * r as f64
            + self.per_ctx_token_ps * ctx_sum as f64;
        Time::from_ps((ps.round() as u64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tee_workloads::zoo::{by_name, TABLE2};

    #[test]
    fn calibration_is_deterministic_and_positive() {
        let model = by_name("GPT").unwrap();
        let a = IterCost::calibrate(&model, &SecurityProfile::tensor_tee());
        let b = IterCost::calibrate(&model, &SecurityProfile::tensor_tee());
        assert_eq!(a, b);
        assert!(a.base_ps > 0.0);
        assert!(a.per_decode_ps >= 0.0 && a.per_ctx_token_ps >= 0.0);
    }

    #[test]
    fn cost_is_monotone_in_work() {
        let model = by_name("GPT").unwrap();
        let c = IterCost::calibrate(&model, &SecurityProfile::non_secure());
        let idle = c.iteration(&[], 0, 0);
        let one = c.iteration(&[], 1, 256);
        let eight = c.iteration(&[], 8, 8 * 256);
        let prefill = c.iteration(&[512], 0, 0);
        assert!(idle >= Time::from_ps(1));
        assert!(one > idle);
        assert!(eight > one);
        assert!(prefill > one, "{prefill} vs {one}");
        // Quadratic attention: one long prompt beats two half-prompts.
        let long = c.iteration(&[1024], 0, 0);
        let split = c.iteration(&[512, 512], 0, 0);
        assert!(long >= split);
    }

    #[test]
    fn secure_modes_cost_at_least_non_secure() {
        let model = by_name("GPT").unwrap();
        let ns = IterCost::calibrate(&model, &SecurityProfile::non_secure());
        let sgx = IterCost::calibrate(&model, &SecurityProfile::sgx_mgx());
        let work = |c: &IterCost| c.iteration(&[256], 8, 4096);
        assert!(work(&sgx) >= work(&ns), "{} vs {}", work(&sgx), work(&ns));
    }

    #[test]
    fn surrogate_tracks_engine_within_tolerance() {
        // The surrogate is a model, not an oracle, but on batches it was
        // not calibrated on — every Table-2 model under every profile,
        // decode-only, prefill-only and mixed — a 25% band keeps it
        // honest. The worst case is the long single prefill: its
        // quadratic term is extrapolated from the 512/1024-token probes.
        let mixes: [(&[u64], &[u64]); 8] = [
            (&[], &[256]),
            (&[], &[100, 400, 900, 1600]),
            (&[], &[2048; 16]),
            (&[128], &[]),
            (&[300, 700], &[]),
            (&[4096], &[]),
            (&[300, 700], &[100, 400, 900, 1600]),
            (&[512], &[1024; 15]),
        ];
        let mut worst = (0.0f64, String::new());
        for model in TABLE2 {
            for profile in [
                SecurityProfile::non_secure(),
                SecurityProfile::sgx_mgx(),
                SecurityProfile::tensor_tee(),
            ] {
                let exact = Pricer::Exact(NpuEngine::new(NpuConfig::default(), profile.mac));
                let approx = Pricer::Calibrated(IterCost::calibrate(&model, &profile));
                for (prefills, decodes) in mixes {
                    let (r, ctx) = (decodes.len() as u64, decodes.iter().sum());
                    let e = exact.price(&model, prefills, r, ctx).as_ps() as f64;
                    let a = approx.price(&model, prefills, r, ctx).as_ps() as f64;
                    let err = (a - e).abs() / e;
                    if err > worst.0 {
                        let case = format!(
                            "{} / {} / prefills {prefills:?}, decode contexts {decodes:?}",
                            model.name,
                            profile.mac.label()
                        );
                        worst = (err, case);
                    }
                }
            }
        }
        println!("worst surrogate error {:.2}%: {}", worst.0 * 100.0, worst.1);
        assert!(
            worst.0 < 0.25,
            "surrogate off by {:.1}%: {}",
            worst.0 * 100.0,
            worst.1
        );
    }
}
