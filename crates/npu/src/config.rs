//! NPU configuration (Table 1).

use serde::{Deserialize, Serialize};
use tee_mem::DramConfig;
use tee_sim::ClockDomain;

/// Scratchpad capacity in bytes (Table 1: 32 MB).
pub const SCRATCHPAD_BYTES: u64 = 32 << 20;
/// GDDR memory size in bytes (Table 1: 40 GB).
pub const DRAM_BYTES: u64 = 40 << 30;

/// Static configuration of the simulated discrete NPU (TPUv3-like,
/// output-stationary dataflow, §5.1). Table 1's scratchpad and memory
/// sizes, which nothing prices, are [`SCRATCHPAD_BYTES`] and
/// [`DRAM_BYTES`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NpuConfig {
    /// Core frequency in GHz (Table 1: 1 GHz).
    pub freq_ghz: f64,
    /// PE array dimension (Table 1: 512×512).
    pub pe_dim: u64,
    /// GDDR configuration (128 GB/s).
    pub dram: DramConfig,
    /// AES latency in NPU cycles (Table 1: 40).
    pub aes_latency: u64,
    /// MAC (hash) latency in NPU cycles.
    pub mac_latency: u64,
    /// MAC recompute throughput in 64 B lines per cycle.
    pub mac_lines_per_cycle: f64,
    /// MEE-side buffer holding decrypted-but-unverified data. Bounded —
    /// unverified lines may not enter the scratchpad in non-delayed
    /// schemes, which is what creates the Figure-13(b) stalls.
    pub verify_buffer_bytes: u64,
}

impl Default for NpuConfig {
    fn default() -> Self {
        NpuConfig {
            freq_ghz: 1.0,
            pe_dim: 512,
            dram: DramConfig::gddr5_128gbs(),
            aes_latency: 40,
            mac_latency: 40,
            mac_lines_per_cycle: 2.0,
            verify_buffer_bytes: 8 << 10,
        }
    }
}

impl NpuConfig {
    /// The NPU clock domain.
    pub fn clock(&self) -> ClockDomain {
        ClockDomain::from_ghz(self.freq_ghz)
    }

    /// Peak MAC (multiply-accumulate) operations per cycle.
    pub fn macs_per_cycle(&self) -> u64 {
        self.pe_dim * self.pe_dim
    }

    /// Aggregate DRAM bandwidth in bytes/second.
    pub fn dram_bandwidth(&self) -> f64 {
        self.dram.total_bytes_per_sec()
    }
}

#[cfg(test)]
impl NpuConfig {
    /// A config the pricing properties vary: clock (MHz), MAC throughput
    /// (thousandths of a line per cycle), AES and MAC latency (cycles),
    /// the MEE buffer, and the DRAM channel count and per-channel GB/s.
    pub(crate) fn varied(
        clock_and_mac: (u64, u64, u64, u64),
        verify_buffer_bytes: u64,
        dram: (u32, u64),
    ) -> Self {
        let (mhz, mac_milli_lines, aes_latency, mac_latency) = clock_and_mac;
        let (channels, channel_gbs) = dram;
        let mut cfg = NpuConfig {
            freq_ghz: mhz as f64 / 1e3,
            aes_latency,
            mac_latency,
            mac_lines_per_cycle: mac_milli_lines as f64 / 1e3,
            verify_buffer_bytes,
            ..NpuConfig::default()
        };
        cfg.dram.channels = channels;
        cfg.dram.channel_bytes_per_sec = channel_gbs as f64 * 1e9;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = NpuConfig::default();
        assert_eq!(c.freq_ghz, 1.0);
        assert_eq!(c.pe_dim, 512);
        assert!((c.dram_bandwidth() - 128.0e9).abs() < 1e6);
        assert_eq!(c.macs_per_cycle(), 512 * 512);
    }
}
