//! CPU-side configuration (Table 1) and derived latencies.

use serde::{Deserialize, Serialize};
use tee_mem::{DramConfig, HierarchyConfig};
use tee_sim::ClockDomain;

/// Core frequency in GHz (Table 1: 3.5 GHz).
pub const FREQ_GHZ: f64 = 3.5;
/// L1 hit latency in cycles.
pub(crate) const L1_LATENCY: u64 = 4;
/// L2 hit latency in cycles.
pub(crate) const L2_LATENCY: u64 = 14;
/// L3 hit latency in cycles.
pub(crate) const L3_LATENCY: u64 = 38;
/// AES pipeline latency in cycles (Table 1: 40).
pub const AES_LATENCY: u64 = 40;
/// MAC computation latency in cycles (Table 1: 40).
pub const MAC_LATENCY: u64 = 40;
/// Maximum outstanding misses per core (MSHR / memory-level parallelism).
pub(crate) const MLP: usize = 10;
/// Compute cycles per element for the Adam update (vectorized fp32).
pub(crate) const ADAM_CYCLES_PER_ELEMENT: f64 = 1.0;

/// Converts core cycles to simulated time.
pub(crate) fn cycles(n: u64) -> tee_sim::Time {
    ClockDomain::from_ghz(FREQ_GHZ).cycles_to_time(n)
}

/// Configuration of the simulated CPU socket. The clock and the cache,
/// crypto and compute latencies, which no caller varies, are the Table-1
/// constants above.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// DRAM configuration (Table 1: DDR4-2400, 2 channels).
    pub dram: DramConfig,
    /// Metadata-cache capacity in bytes (Table 1: 32 KB).
    pub metadata_cache_bytes: u64,
    /// Protected-region capacity in 64 B lines (sizes the Merkle tree).
    pub protected_lines: usize,
    /// Whether engines perform real AES/MAC/Merkle computation (security
    /// tests) or count-only modeling (fast timing sweeps).
    pub functional_crypto: bool,
}

impl Default for CpuConfig {
    /// The Table-1 configuration.
    fn default() -> Self {
        CpuConfig {
            hierarchy: HierarchyConfig::default(),
            dram: DramConfig::ddr4_2400_2ch(),
            metadata_cache_bytes: 32 << 10,
            protected_lines: 1 << 21, // 128 MiB protected region
            functional_crypto: false,
        }
    }
}

impl CpuConfig {
    /// A proportionally scaled-down configuration for fast benchmarking:
    /// caches and protected region shrink 8×, so MB-scale working sets
    /// reproduce the memory-bound behaviour of the full-size system.
    pub fn scaled_down() -> Self {
        let mut cfg = Self::default();
        cfg.hierarchy.l3.size_bytes = 1 << 20; // 1 MiB
        cfg.hierarchy.l2.size_bytes = 32 << 10;
        cfg.hierarchy.l1.size_bytes = 8 << 10;
        cfg.protected_lines = 1 << 18; // 16 MiB protected region
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CpuConfig::default();
        assert_eq!(c.hierarchy.cores, 8);
        assert_eq!(c.hierarchy.l1.size_bytes, 32 << 10);
        assert_eq!(c.hierarchy.l2.size_bytes, 256 << 10);
        assert_eq!(c.dram.channels, 2);
        assert_eq!(c.metadata_cache_bytes, 32 << 10);
    }

    #[test]
    fn scaled_down_preserves_shape() {
        let c = CpuConfig::scaled_down();
        assert!(c.hierarchy.l3.size_bytes < CpuConfig::default().hierarchy.l3.size_bytes);
    }

    #[test]
    fn cycle_conversion() {
        // 35 cycles at 3.5 GHz = 10 ns.
        assert_eq!(cycles(35), tee_sim::Time::from_ns(10));
    }
}
