//! Per-step NPU layer specifications (forward + backward).
//!
//! Kept independent of `tee-npu` so workloads stay a leaf crate; the core
//! crate converts [`LayerSpec`] into the NPU engine's layer type.

use crate::zoo::ModelConfig;
use serde::{Deserialize, Serialize};

/// One NPU-executed layer (fp16 elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Diagnostic kind.
    pub kind: LayerKind,
    /// Multiply-accumulate count.
    pub macs: u64,
    /// Activation bytes streamed in.
    pub in_bytes: u64,
    /// Weight bytes streamed in.
    pub w_bytes: u64,
    /// Output bytes streamed back.
    pub out_bytes: u64,
}

/// Layer categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerKind {
    /// Dense GEMM (projections, MLP).
    Gemm,
    /// Attention score / context GEMMs (batch of small GEMMs).
    Attention,
    /// LayerNorm / softmax / residual / activation (memory-bound).
    Elementwise,
}

const FP16: u64 = 2;

fn gemm(m: u64, k: u64, n: u64) -> LayerSpec {
    LayerSpec {
        kind: LayerKind::Gemm,
        macs: m * k * n,
        in_bytes: m * k * FP16,
        w_bytes: k * n * FP16,
        out_bytes: m * n * FP16,
    }
}

/// Builds the forward-pass layers of one transformer block.
fn forward_block(model: &ModelConfig) -> Vec<LayerSpec> {
    let h = model.hidden;
    let tokens = model.tokens_per_step();
    let heads = (h / 64).max(1);
    let seq = model.seq_len;
    let batch = model.batch_size;
    let mut out = Vec::new();
    // QKV projection.
    out.push(gemm(tokens, h, 3 * h));
    // Attention scores + context: batch·heads small GEMMs (S×d × d×S).
    let attn_macs = 2 * batch * heads * seq * seq * (h / heads);
    out.push(LayerSpec {
        kind: LayerKind::Attention,
        macs: attn_macs,
        in_bytes: 2 * tokens * h * FP16,
        w_bytes: 0,
        out_bytes: tokens * h * FP16 + batch * heads * seq * seq * FP16 / 4,
    });
    // Attention output projection.
    out.push(gemm(tokens, h, h));
    // MLP.
    out.push(gemm(tokens, h, 4 * h));
    out.push(gemm(tokens, 4 * h, h));
    // Element-wise: 2 layernorms, softmax, 2 residuals, GeLU.
    out.push(LayerSpec {
        kind: LayerKind::Elementwise,
        macs: 6 * tokens * h / 2,
        in_bytes: 6 * tokens * h * FP16,
        w_bytes: 0,
        out_bytes: 6 * tokens * h * FP16,
    });
    out
}

/// Full training-step layer list: forward plus backward (≈2× forward work:
/// grad-input and grad-weight GEMMs per forward GEMM).
pub fn training_step(model: &ModelConfig) -> Vec<LayerSpec> {
    let mut layers = Vec::new();
    for _ in 0..model.layers {
        let fwd = forward_block(model);
        // Backward: two GEMMs per forward GEMM, same traffic class.
        let bwd: Vec<LayerSpec> = fwd
            .iter()
            .map(|l| LayerSpec {
                kind: l.kind,
                macs: l.macs * 2,
                in_bytes: l.in_bytes * 2,
                w_bytes: l.w_bytes,
                out_bytes: l.out_bytes * 2,
            })
            .collect();
        layers.extend(fwd);
        layers.extend(bwd);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::by_name;

    #[test]
    fn step_has_layers_for_every_block() {
        let m = by_name("GPT").unwrap();
        let step = training_step(&m);
        assert_eq!(step.len() as u64, m.layers * 12);
    }

    #[test]
    fn backward_doubles_compute() {
        let step = training_step(&by_name("GPT2-M").unwrap());
        // Each block is 6 forward specs followed by their 6 backward specs.
        for block in step.chunks(12) {
            let (fwd, bwd) = block.split_at(6);
            for (f, b) in fwd.iter().zip(bwd) {
                assert_eq!(b.macs, 2 * f.macs);
            }
        }
    }

    #[test]
    fn flops_scale_with_model() {
        let macs = |name| -> u64 {
            training_step(&by_name(name).unwrap())
                .iter()
                .map(|l| l.macs)
                .sum()
        };
        let (small, large) = (macs("GPT"), macs("OPT-6.7B"));
        // 6.7B at batch 2 still far outworks 117M at batch 60 per token?
        // Not necessarily per step — just require the same order or more.
        assert!(large > small / 4);
    }

    #[test]
    fn gemm_spec_consistent() {
        let g = gemm(128, 256, 512);
        assert_eq!(g.macs, 128 * 256 * 512);
        assert_eq!(g.in_bytes, 128 * 256 * 2);
        assert_eq!(g.w_bytes, 256 * 512 * 2);
        assert_eq!(g.out_bytes, 128 * 512 * 2);
    }
}
