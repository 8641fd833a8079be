//! The Figure-4 tensor census: how many tensors the CPU-side optimizer
//! touches per model, and how large they are.
//!
//! "The tensor sizes grow to MBytes, but the growth rate of tensor numbers
//! is slow, reaching only a few hundred" — the property that makes
//! tensor-granularity metadata viable on-chip (512 Meta Table entries).

use crate::zoo::ModelConfig;
use serde::Serialize;

/// The census result for one model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TensorCensus {
    /// fp32 bytes of every parameter tensor (the CPU master copies).
    pub sizes: Vec<u64>,
}

impl TensorCensus {
    /// Enumerates the parameter tensors of a transformer stack: per layer
    /// QKV, attention-out, two MLP matrices, two layer-norms and biases.
    /// Embeddings stay on the NPU (ZeRO-Offload keeps them with the
    /// compute) and are excluded, as in Figure 4.
    pub fn of(model: &ModelConfig) -> Self {
        let h = model.hidden;
        let f = 4; // fp32
        let layer = [
            h * 3 * h * f,   // attention QKV
            h * h * f,       // attention out
            h * 4 * h * f,   // MLP fc1
            4 * h * h * f,   // MLP fc2
            2 * h * f,       // layer-norm 1
            2 * h * f,       // layer-norm 2
            (3 * h + h) * f, // attention biases
            (4 * h + h) * f, // MLP biases
        ];
        let mut sizes: Vec<u64> = (0..model.layers).flat_map(|_| layer).collect();
        sizes.push(2 * h * f); // final layer-norm
        TensorCensus { sizes }
    }

    /// Tensor count (Figure 4 left axis).
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Largest tensor in bytes (Figure 4 right axis).
    pub fn max_bytes(&self) -> u64 {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Total fp32 parameter bytes (one of the four Adam streams).
    pub fn total_bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// A proportionally scaled census (for fast benches): sizes divided by
    /// `factor`, count preserved. Tensors are clamped to at least 4 KiB
    /// (64 cachelines) so that scaled tensors keep a *tensor-like* shape —
    /// the stream detection and update-round mechanics of TenAnalyzer are
    /// meaningless on single-line tensors.
    pub fn scaled(&self, factor: u64) -> TensorCensus {
        TensorCensus {
            sizes: scaled_sizes(&self.sizes, factor),
        }
    }
}

/// Tensor sizes scaled as [`TensorCensus::scaled`] scales them: the one
/// place the 4 KiB floor lives.
pub(crate) fn scaled_sizes(sizes: &[u64], factor: u64) -> Vec<u64> {
    sizes.iter().map(|&b| (b / factor).max(4096)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{by_name, TABLE2};

    #[test]
    fn counts_are_few_hundred() {
        for m in TABLE2 {
            let c = TensorCensus::of(&m);
            assert!(
                (90..=400).contains(&c.count()),
                "{}: {} tensors",
                m.name,
                c.count()
            );
        }
    }

    #[test]
    fn sizes_reach_megabytes() {
        let big = TensorCensus::of(&by_name("LLAMA2-7B").unwrap());
        assert!(
            big.max_bytes() > 100 << 20,
            "large models have 100MB+ tensors"
        );
        let small = TensorCensus::of(&by_name("GPT").unwrap());
        assert!(small.max_bytes() > 1 << 20);
        assert!(small.max_bytes() < big.max_bytes());
    }

    #[test]
    fn totals_track_params() {
        let m = by_name("GPT2-M").unwrap();
        let c = TensorCensus::of(&m);
        // Census covers the 12·L·H² transformer weights (no embeddings).
        let expected = 12 * m.layers * m.hidden * m.hidden * 4;
        let total = c.total_bytes();
        assert!(
            total as f64 / expected as f64 > 0.99 && total < expected * 2,
            "census {total} vs 12LH² {expected}"
        );
    }

    #[test]
    fn scaled_preserves_count() {
        let c = TensorCensus::of(&by_name("GPT").unwrap());
        let s = c.scaled(1024);
        assert_eq!(s.count(), c.count());
        assert!(s.max_bytes() <= c.max_bytes() / 1024 + 4096);
        assert!(s.sizes.iter().all(|&b| b >= 4096));
    }
}
