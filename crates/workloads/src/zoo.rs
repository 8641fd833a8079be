//! The Table-2 model zoo.

use serde::Serialize;

/// Vocabulary size used for embedding accounting (GPT-2 BPE).
pub const VOCAB: u64 = 50_257;

/// One evaluated model (a row of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ModelConfig {
    /// Display name.
    pub name: &'static str,
    /// Nominal parameter count as printed in Table 2.
    pub nominal_params: u64,
    /// Batch size used in the paper's evaluation (Table 2).
    pub batch_size: u64,
    /// Transformer layer count.
    pub layers: u64,
    /// Hidden dimension.
    pub hidden: u64,
    /// Sequence length.
    pub seq_len: u64,
}

impl ModelConfig {
    /// Transformer-block parameters: ~12·L·H² (QKV, attention out, two MLP
    /// matrices) plus embeddings.
    pub fn params(&self) -> u64 {
        12 * self.layers * self.hidden * self.hidden + VOCAB * self.hidden
    }

    /// fp32 gradient bytes communicated NPU→CPU per step (Figure 1).
    pub fn grad_bytes(&self) -> u64 {
        self.params() * 4
    }

    /// fp16 weight bytes communicated CPU→NPU per step (Figure 1).
    pub fn weight_bytes(&self) -> u64 {
        self.params() * 2
    }

    /// Tokens processed per step.
    pub fn tokens_per_step(&self) -> u64 {
        self.batch_size * self.seq_len
    }
}

/// The twelve models of Table 2, in paper order.
pub const TABLE2: [ModelConfig; 12] = [
    ModelConfig {
        name: "GPT",
        nominal_params: 117_000_000,
        batch_size: 60,
        layers: 12,
        hidden: 768,
        seq_len: 1024,
    },
    ModelConfig {
        name: "GPT2-M",
        nominal_params: 345_000_000,
        batch_size: 22,
        layers: 24,
        hidden: 1024,
        seq_len: 1024,
    },
    ModelConfig {
        name: "Roberta-L",
        nominal_params: 355_000_000,
        batch_size: 22,
        layers: 24,
        hidden: 1024,
        seq_len: 512,
    },
    ModelConfig {
        name: "BLOOM",
        nominal_params: 560_000_000,
        batch_size: 21,
        layers: 24,
        hidden: 1024,
        seq_len: 2048,
    },
    ModelConfig {
        name: "GPT2-L",
        nominal_params: 774_000_000,
        batch_size: 11,
        layers: 36,
        hidden: 1280,
        seq_len: 1024,
    },
    ModelConfig {
        name: "BLOOM-800M",
        nominal_params: 800_000_000,
        batch_size: 17,
        layers: 24,
        hidden: 1536,
        seq_len: 2048,
    },
    ModelConfig {
        name: "OPT-1.3B",
        nominal_params: 1_300_000_000,
        batch_size: 10,
        layers: 24,
        hidden: 2048,
        seq_len: 2048,
    },
    ModelConfig {
        name: "GPT2-XL",
        nominal_params: 1_600_000_000,
        batch_size: 6,
        layers: 48,
        hidden: 1600,
        seq_len: 1024,
    },
    ModelConfig {
        name: "OPT-2.7B",
        nominal_params: 2_800_000_000,
        batch_size: 6,
        layers: 32,
        hidden: 2560,
        seq_len: 2048,
    },
    ModelConfig {
        name: "XGLM-4.5B",
        nominal_params: 4_500_000_000,
        batch_size: 3,
        layers: 48,
        hidden: 2816,
        seq_len: 2048,
    },
    ModelConfig {
        name: "LLAMA2-7B",
        nominal_params: 6_700_000_000,
        batch_size: 2,
        layers: 32,
        hidden: 4096,
        seq_len: 4096,
    },
    ModelConfig {
        name: "OPT-6.7B",
        nominal_params: 6_700_000_000,
        batch_size: 2,
        layers: 32,
        hidden: 4096,
        seq_len: 2048,
    },
];

/// Looks a model up by name.
pub fn by_name(name: &str) -> Option<ModelConfig> {
    TABLE2.iter().copied().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_models_in_order() {
        assert_eq!(TABLE2.len(), 12);
        assert_eq!(TABLE2[0].name, "GPT");
        assert_eq!(TABLE2[11].name, "OPT-6.7B");
        // Nominal sizes ascend (paper ordering).
        for w in TABLE2.windows(2) {
            assert!(w[0].nominal_params <= w[1].nominal_params);
        }
    }

    #[test]
    fn param_formula_near_nominal() {
        for m in TABLE2 {
            let p = m.params() as f64;
            let nominal = m.nominal_params as f64;
            let ratio = p / nominal;
            assert!(
                (0.6..1.6).contains(&ratio),
                "{}: computed {p:.2e} vs nominal {nominal:.2e}",
                m.name
            );
        }
    }

    #[test]
    fn batch_sizes_match_table2() {
        assert_eq!(by_name("GPT").unwrap().batch_size, 60);
        assert_eq!(by_name("GPT2-M").unwrap().batch_size, 22);
        assert_eq!(by_name("XGLM-4.5B").unwrap().batch_size, 3);
        assert_eq!(by_name("OPT-6.7B").unwrap().batch_size, 2);
    }

    #[test]
    fn comm_volumes() {
        let m = by_name("GPT2-M").unwrap();
        assert_eq!(m.grad_bytes(), m.params() * 4);
        assert_eq!(m.weight_bytes(), m.params() * 2);
    }

    #[test]
    fn unknown_model_is_none() {
        assert!(by_name("GPT-5").is_none());
    }

    #[test]
    fn by_name_resolves_every_table2_entry() {
        for m in TABLE2 {
            assert_eq!(by_name(m.name), Some(m), "{} must round-trip", m.name);
        }
    }

    #[test]
    fn by_name_is_exact_match_only() {
        // Case, whitespace and prefix variants must all be rejected: the
        // lookup feeds experiment selection, where a silent fuzzy match
        // would run the wrong Table-2 row.
        for bad in ["gpt", "GPT ", " GPT", "GPT2", "OPT", "LLAMA2-7b", ""] {
            assert!(by_name(bad).is_none(), "{bad:?} must not resolve");
        }
    }

    #[test]
    fn table2_names_are_unique() {
        for (i, a) in TABLE2.iter().enumerate() {
            for b in TABLE2.iter().skip(i + 1) {
                assert_ne!(a.name, b.name, "duplicate Table-2 name");
            }
        }
    }

    #[test]
    fn every_workload_layer_shapes_consistent() {
        use crate::layers::{training_step, LayerKind};

        for m in TABLE2 {
            let step = training_step(&m);
            // Forward (6 specs) + backward (6 specs) per transformer block.
            assert_eq!(step.len() as u64, m.layers * 12, "{}", m.name);

            for (i, l) in step.iter().enumerate() {
                assert!(l.macs > 0, "{} layer {i}: zero MACs", m.name);
                assert!(
                    l.in_bytes > 0 && l.out_bytes > 0,
                    "{} layer {i}: zero activation traffic",
                    m.name
                );
                match l.kind {
                    // gemm(m, k, n): in = 2mk, w = 2kn, out = 2mn, macs = mkn
                    // ⇒ in·w·out = 8·macs², an invariant of any well-formed
                    // GEMM spec regardless of the (m, k, n) split.
                    LayerKind::Gemm => {
                        assert!(l.w_bytes > 0, "{} layer {i}: GEMM without weights", m.name);
                        let lhs = l.in_bytes as u128 * l.w_bytes as u128 * l.out_bytes as u128;
                        let rhs = 8 * (l.macs as u128) * (l.macs as u128);
                        assert_eq!(lhs, rhs, "{} layer {i}: inconsistent GEMM shape", m.name);
                    }
                    // Attention and element-wise specs stream activations
                    // only; weights would double-count the QKV projections.
                    LayerKind::Attention | LayerKind::Elementwise => {
                        assert_eq!(l.w_bytes, 0, "{} layer {i}: unexpected weights", m.name);
                    }
                }
            }
        }
    }
}
