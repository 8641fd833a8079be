//! DRAM channel/bank timing model.
//!
//! A deliberately compact Ramulator stand-in: per-channel data buses with
//! finite bandwidth, per-bank open-row state with row-hit vs. row-conflict
//! latencies, and line-interleaved address mapping. This captures the two
//! effects the paper's results hinge on:
//!
//! 1. extra metadata accesses (VN/MAC/Merkle) consume *data-bus bandwidth*,
//!    which is what throttles multi-threaded Adam under SGX (Figure 3), and
//! 2. streaming tensor traffic is row-buffer friendly, so the demand stream
//!    itself runs near peak bandwidth.

use crate::LINE_BYTES;
use serde::{Deserialize, Serialize};
use tee_sim::{BandwidthResource, Time};

/// Static DRAM geometry and timing.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Per-channel data-bus bandwidth in bytes/second.
    pub channel_bytes_per_sec: f64,
    /// Column access latency (row already open).
    pub t_cas: Time,
    /// Row activation latency.
    pub t_rcd: Time,
    /// Precharge latency (closing a conflicting row).
    pub t_rp: Time,
}

impl DramConfig {
    /// Table 1 CPU memory: DDR4-2400, 2 channels (19.2 GB/s each).
    pub fn ddr4_2400_2ch() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 16,
            row_bytes: 8 << 10,
            channel_bytes_per_sec: 19.2e9,
            t_cas: Time::from_ps(14_160),
            t_rcd: Time::from_ps(14_160),
            t_rp: Time::from_ps(14_160),
        }
    }

    /// Table 1 NPU memory: GDDR5, 128 GB/s aggregate over 8 channels.
    pub fn gddr5_128gbs() -> Self {
        DramConfig {
            channels: 8,
            banks_per_channel: 16,
            row_bytes: 2 << 10,
            channel_bytes_per_sec: 16.0e9,
            t_cas: Time::from_ps(12_000),
            t_rcd: Time::from_ps(12_000),
            t_rp: Time::from_ps(12_000),
        }
    }

    /// Aggregate peak bandwidth across channels.
    pub fn total_bytes_per_sec(&self) -> f64 {
        self.channel_bytes_per_sec * self.channels as f64
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
}

/// The decomposed location of a physical line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramLoc {
    /// Channel index.
    pub channel: u32,
    /// Bank index within the channel.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
}

/// A timed DRAM model.
///
/// # Example
///
/// ```
/// use tee_mem::{DramConfig, DramModel};
/// use tee_sim::Time;
///
/// let mut d = DramModel::new(DramConfig::ddr4_2400_2ch());
/// let t1 = d.access(0x0, Time::ZERO);
/// let t2 = d.access(0x40, t1); // same row: faster (row hit)
/// assert!(t2 - t1 <= t1 - Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    buses: Vec<BandwidthResource>,
    banks: Vec<BankState>,
}

impl DramModel {
    /// Creates a model with all rows closed.
    pub fn new(cfg: DramConfig) -> Self {
        DramModel {
            cfg,
            buses: (0..cfg.channels)
                .map(|_| BandwidthResource::new(cfg.channel_bytes_per_sec, Time::ZERO))
                .collect(),
            banks: vec![BankState::default(); (cfg.channels * cfg.banks_per_channel) as usize],
        }
    }

    /// Maps a physical line address onto (channel, bank, row).
    ///
    /// Lines are interleaved across channels, then rows across banks, so
    /// streaming traffic spreads over every channel.
    pub fn locate(&self, pa: u64) -> DramLoc {
        let line = pa / LINE_BYTES;
        let channel = (line % self.cfg.channels as u64) as u32;
        let chan_line = line / self.cfg.channels as u64;
        let lines_per_row = self.cfg.row_bytes / LINE_BYTES;
        let row_global = chan_line / lines_per_row;
        let bank = (row_global % self.cfg.banks_per_channel as u64) as u32;
        let row = row_global / self.cfg.banks_per_channel as u64;
        DramLoc { channel, bank, row }
    }

    /// Serves one 64 B line access issued at `at`; returns its completion
    /// time. Reads and writes occupy the bus identically at this fidelity.
    pub fn access(&mut self, pa: u64, at: Time) -> Time {
        let loc = self.locate(pa);
        let bank_idx = (loc.channel * self.cfg.banks_per_channel + loc.bank) as usize;
        let bank = &mut self.banks[bank_idx];
        let array_latency = match bank.open_row {
            Some(r) if r == loc.row => self.cfg.t_cas,
            Some(_) => {
                bank.open_row = Some(loc.row);
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
            }
            None => {
                bank.open_row = Some(loc.row);
                self.cfg.t_rcd + self.cfg.t_cas
            }
        };
        let grant = self.buses[loc.channel as usize].acquire(at, LINE_BYTES);
        grant.free + array_latency
    }

    /// The time at which every channel becomes idle (end of a drain).
    pub fn all_idle_at(&self) -> Time {
        self.buses
            .iter()
            .map(|b| b.busy_until())
            .fold(Time::ZERO, Time::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_interleaves_channels() {
        let d = DramModel::new(DramConfig::ddr4_2400_2ch());
        assert_eq!(d.locate(0).channel, 0);
        assert_eq!(d.locate(64).channel, 1);
        assert_eq!(d.locate(128).channel, 0);
    }

    #[test]
    fn row_hits_after_first_touch() {
        let cfg = DramConfig::ddr4_2400_2ch();
        let mut d = DramModel::new(cfg);
        // Lines 0 and 128 both map to channel 0 and share a row: the
        // second access finds the row open and skips the activate.
        let first = d.access(0, Time::ZERO);
        let second = d.access(128, first) - first;
        assert_eq!(first - second, cfg.t_rcd);
    }

    #[test]
    fn row_conflict_costs_more() {
        let cfg = DramConfig::ddr4_2400_2ch();
        let mut d = DramModel::new(cfg);
        // Two rows in the same bank of the same channel.
        let lines_per_row = cfg.row_bytes / LINE_BYTES;
        let same_bank_stride =
            lines_per_row * cfg.channels as u64 * cfg.banks_per_channel as u64 * LINE_BYTES;
        let t1 = d.access(0, Time::ZERO);
        let t2 = d.access(same_bank_stride, t1) - t1;
        let t3 = d.access(0, t1 + t2) - (t1 + t2);
        // Both follow-on accesses conflict; both are slower than a CAS-only hit.
        assert!(t2 > cfg.t_cas);
        assert!(t3 > cfg.t_cas);
    }

    #[test]
    fn bandwidth_bounds_throughput() {
        let mut d = DramModel::new(DramConfig::ddr4_2400_2ch());
        let n = 10_000u64;
        let mut done = Time::ZERO;
        for i in 0..n {
            done = d.access(i * 64, Time::ZERO).max(done);
        }
        let bytes = n * 64;
        let secs = d.all_idle_at().as_secs_f64();
        let achieved = bytes as f64 / secs;
        let peak = DramConfig::ddr4_2400_2ch().total_bytes_per_sec();
        assert!(achieved <= peak * 1.001, "{achieved} > {peak}");
        assert!(achieved > peak * 0.9, "streaming should approach peak");
    }
}
