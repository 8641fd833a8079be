//! Memory-controller front end.
//!
//! Sits between the last-level cache (or NPU DMA engines) and [`DramModel`],
//! adding a fixed queueing/scheduling latency and counting demand traffic
//! apart from metadata traffic — the split that Figures 3 and 19 are
//! built from.

use crate::dram::{DramConfig, DramModel};
use tee_sim::Time;

/// The class of a memory request, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Application data (cache fill or write-back).
    Demand,
    /// TEE metadata: VNs, MACs, Merkle-tree nodes.
    Metadata,
}

/// A memory controller wrapping one DRAM device.
///
/// # Example
///
/// ```
/// use tee_mem::{DramConfig, MemoryController};
/// use tee_mem::mc::RequestClass;
/// use tee_sim::Time;
///
/// let mut mc = MemoryController::new(DramConfig::ddr4_2400_2ch());
/// let done = mc.request(0x40, RequestClass::Demand, Time::ZERO);
/// assert!(done > Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    dram: DramModel,
    queue_latency: Time,
    demand: u64,
    metadata: u64,
}

impl MemoryController {
    /// Creates a controller with a default 10 ns queue/scheduling latency.
    pub fn new(cfg: DramConfig) -> Self {
        MemoryController {
            dram: DramModel::new(cfg),
            queue_latency: Time::from_ns(10),
            demand: 0,
            metadata: 0,
        }
    }

    /// Issues one 64 B request; returns completion time.
    pub fn request(&mut self, pa: u64, class: RequestClass, at: Time) -> Time {
        match class {
            RequestClass::Demand => self.demand += 1,
            RequestClass::Metadata => self.metadata += 1,
        }
        self.dram.access(pa, at + self.queue_latency)
    }

    /// Demand requests issued so far.
    pub fn demand(&self) -> u64 {
        self.demand
    }

    /// Metadata requests issued so far.
    pub fn metadata(&self) -> u64 {
        self.metadata
    }

    /// Time when all channels drain.
    pub fn idle_at(&self) -> Time {
        self.dram.all_idle_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_counted_separately() {
        let mut mc = MemoryController::new(DramConfig::ddr4_2400_2ch());
        mc.request(0, RequestClass::Demand, Time::ZERO);
        mc.request(64, RequestClass::Metadata, Time::ZERO);
        mc.request(128, RequestClass::Metadata, Time::ZERO);
        assert_eq!((mc.demand(), mc.metadata()), (1, 2));
    }

    #[test]
    fn queue_latency_delays_completion() {
        let cfg = DramConfig::ddr4_2400_2ch();
        let bare = DramModel::new(cfg).access(0, Time::from_ns(10));
        let mut mc = MemoryController::new(cfg);
        // The controller adds its fixed 10 ns before the DRAM sees the request.
        assert_eq!(mc.request(0, RequestClass::Demand, Time::ZERO), bare);
    }
}
