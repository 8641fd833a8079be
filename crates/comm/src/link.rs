//! Interconnect hardware models: the PCIe bus and AES engines.

use tee_sim::{BandwidthResource, Time};

/// A PCIe link direction (Table 1: PCIe 4.0 ×16, ~32 GB/s per direction
/// with protocol overhead, ~600 ns base latency).
#[derive(Debug, Clone)]
pub struct PcieLink {
    resource: BandwidthResource,
}

impl PcieLink {
    /// PCIe 4.0 ×16 effective bandwidth.
    pub const GEN4_X16_BYTES_PER_SEC: f64 = 32.0e9;

    /// Creates a Gen4 ×16 link direction.
    pub fn gen4_x16() -> Self {
        PcieLink {
            resource: BandwidthResource::new(Self::GEN4_X16_BYTES_PER_SEC, Time::from_ns(600)),
        }
    }

    /// Creates a link with custom bandwidth (bytes/s) and latency.
    pub fn new(bytes_per_sec: f64, latency: Time) -> Self {
        PcieLink {
            resource: BandwidthResource::new(bytes_per_sec, latency),
        }
    }

    /// Schedules a transfer starting no earlier than `at`; returns delivery
    /// completion.
    pub fn transfer(&mut self, at: Time, bytes: u64) -> Time {
        self.resource.acquire(at, bytes).done
    }
}

/// A memory-encryption AES engine used for staging re-encryption.
///
/// §3.3: one fully-pipelined engine provides ~8 GB/s, well under both the
/// PCIe link and the NPU's compute-side demand (~20 GB/s), so staged
/// transfers serialize behind it.
#[derive(Debug, Clone)]
pub struct AesEngine {
    resource: BandwidthResource,
}

impl AesEngine {
    /// Default single-engine bandwidth from §3.3.
    pub const DEFAULT_BYTES_PER_SEC: f64 = 8.0e9;

    /// Creates the default 8 GB/s engine with the Table-1 40-cycle latency
    /// (at 1 GHz).
    pub fn single() -> Self {
        Self::new(Self::DEFAULT_BYTES_PER_SEC)
    }

    /// Creates an engine with custom bandwidth.
    pub fn new(bytes_per_sec: f64) -> Self {
        AesEngine {
            resource: BandwidthResource::new(bytes_per_sec, Time::from_ns(40)),
        }
    }

    /// Schedules `bytes` of (de/en)cryption starting no earlier than `at`.
    pub fn process(&mut self, at: Time, bytes: u64) -> Time {
        self.resource.acquire(at, bytes).done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_throughput() {
        let mut link = PcieLink::gen4_x16();
        let t = link.transfer(Time::ZERO, 32_000_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01, "32 GB in ~1 s: {t}");
    }

    #[test]
    fn pcie_queues_transfers() {
        let mut link = PcieLink::gen4_x16();
        let a = link.transfer(Time::ZERO, 1 << 20);
        let b = link.transfer(Time::ZERO, 1 << 20);
        assert!(b > a);
    }

    #[test]
    fn aes_engine_slower_than_pcie() {
        let aes = AesEngine::single().process(Time::ZERO, 1 << 20);
        let pcie = PcieLink::gen4_x16().transfer(Time::ZERO, 1 << 20);
        assert!(aes > pcie);
    }

    #[test]
    fn aes_latency_added_once() {
        let mut aes = AesEngine::single();
        let t = aes.process(Time::ZERO, 8_000); // 1 µs of occupancy
        assert_eq!(t, Time::from_us(1) + Time::from_ns(40));
    }
}
