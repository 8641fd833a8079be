//! MAC granularity schemes for NPU memory integrity (§3.2, §4.3, Fig. 20).
//!
//! The granularity of the MAC trades storage (8 B of tag per protected
//! block) against verification behaviour:
//!
//! * fine blocks (64 B) cost ~12.5 % extra storage and DRAM traffic,
//! * coarse blocks (512 B–4 KB, MGX/GuardNN style) shrink storage but make
//!   verification *late*, stalling computation on already-decrypted lines,
//! * TensorTEE's per-tensor MAC with delayed verification stores one tag
//!   per tensor on-chip (§6.5) and removes the stall by verifying in
//!   parallel with computation.

use serde::{Deserialize, Serialize};
use tee_mem::LINE_BYTES;

/// Bytes of MAC tag per protected block (56-bit tag padded to 8 B).
pub const MAC_TAG_BYTES: u64 = 8;

/// A MAC management scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MacScheme {
    /// No integrity protection (non-secure reference).
    None,
    /// One MAC per `granularity`-byte block, verified before compute may
    /// consume any line of the block (MGX/GuardNN-style for ≥512 B;
    /// classic per-cacheline for 64 B).
    PerBlock {
        /// Protected block size in bytes (64 B … 4 KB).
        granularity: u64,
    },
    /// TensorTEE: one XOR-combined MAC per tensor, stored on-chip,
    /// verified *after* compute starts (delayed verification, §4.3).
    TensorDelayed,
}

impl MacScheme {
    /// Storage overhead as a fraction of protected data
    /// (Figure 20's right axis).
    pub fn storage_overhead(&self, tensor_bytes: u64) -> f64 {
        match *self {
            MacScheme::None => 0.0,
            MacScheme::PerBlock { granularity } => MAC_TAG_BYTES as f64 / granularity as f64,
            MacScheme::TensorDelayed => {
                if tensor_bytes == 0 {
                    0.0
                } else {
                    // One on-chip tag per tensor; off-chip storage is zero.
                    // Report the on-chip share for completeness.
                    MAC_TAG_BYTES as f64 / tensor_bytes as f64
                }
            }
        }
    }

    /// Extra DRAM bytes fetched per data byte (MAC tags are packed eight
    /// to a metadata line; per-tensor tags live on-chip).
    pub fn traffic_overhead(&self) -> f64 {
        match *self {
            MacScheme::None | MacScheme::TensorDelayed => 0.0,
            MacScheme::PerBlock { granularity } => MAC_TAG_BYTES as f64 / granularity as f64,
        }
    }

    /// Whether compute must wait for block verification.
    pub fn gates_compute(&self) -> bool {
        matches!(self, MacScheme::PerBlock { .. })
    }

    /// The block size the verification pipeline operates on (tensor mode
    /// streams at line granularity).
    pub fn pipeline_block(&self) -> u64 {
        match *self {
            MacScheme::PerBlock { granularity } => granularity,
            _ => LINE_BYTES,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            MacScheme::None => "non-secure".into(),
            MacScheme::PerBlock { granularity } if granularity >= 1024 => {
                format!("{}kB", granularity / 1024)
            }
            MacScheme::PerBlock { granularity } => format!("{granularity}B"),
            MacScheme::TensorDelayed => "tensor-delayed".into(),
        }
    }
}

/// The granularity sweep of Figure 20.
pub fn figure20_sweep() -> Vec<MacScheme> {
    [64u64, 256, 512, 1024, 2048, 4096]
        .into_iter()
        .map(|granularity| MacScheme::PerBlock { granularity })
        .chain([MacScheme::TensorDelayed])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_overhead_shrinks_with_granularity() {
        let fine = MacScheme::PerBlock { granularity: 64 };
        let coarse = MacScheme::PerBlock { granularity: 4096 };
        assert!((fine.storage_overhead(1 << 20) - 0.125).abs() < 1e-12);
        assert!(coarse.storage_overhead(1 << 20) < 0.01);
    }

    #[test]
    fn tensor_scheme_negligible_storage() {
        let t = MacScheme::TensorDelayed;
        assert!(t.storage_overhead(1 << 20) < 1e-4);
        assert_eq!(t.traffic_overhead(), 0.0);
        assert!(!t.gates_compute());
    }

    #[test]
    fn per_block_gates_compute() {
        assert!(MacScheme::PerBlock { granularity: 512 }.gates_compute());
        assert!(!MacScheme::None.gates_compute());
    }

    #[test]
    fn sweep_matches_figure() {
        let s = figure20_sweep();
        assert_eq!(s.len(), 7);
        assert_eq!(s[0], MacScheme::PerBlock { granularity: 64 });
        assert_eq!(*s.last().unwrap(), MacScheme::TensorDelayed);
    }

    #[test]
    fn labels_are_readable() {
        assert_eq!(MacScheme::PerBlock { granularity: 64 }.label(), "64B");
        assert_eq!(MacScheme::PerBlock { granularity: 4096 }.label(), "4kB");
        assert_eq!(MacScheme::TensorDelayed.label(), "tensor-delayed");
    }
}
