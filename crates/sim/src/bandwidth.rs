//! Contention model for shared, bandwidth-limited resources.
//!
//! [`BandwidthResource`] is a serially-occupied resource (an AES engine, a
//! DMA engine, a PCIe direction): each transfer occupies the resource for
//! `bytes / bandwidth`, and requests queue behind one another.

use crate::clock::Time;
use serde::{Deserialize, Serialize};

/// A serially-occupied resource with a fixed byte bandwidth and an optional
/// fixed per-request latency (e.g. AES pipeline fill, PCIe packet setup).
///
/// # Example
///
/// ```
/// use tee_sim::{BandwidthResource, Time};
///
/// // 8 GB/s AES engine.
/// let mut aes = BandwidthResource::new(8.0e9, Time::from_ns(40));
/// let grant = aes.acquire(Time::ZERO, 64);
/// assert_eq!(grant.start, Time::ZERO);
/// // 64 B at 8 GB/s = 8 ns occupancy + 40 ns latency on delivery.
/// assert_eq!(grant.done.as_ns_f64().round(), 48.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthResource {
    bytes_per_sec: f64,
    fixed_latency: Time,
    busy_until: Time,
}

/// The interval granted to one request on a [`BandwidthResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the resource began serving this request.
    pub start: Time,
    /// When the resource becomes free again (occupancy end).
    pub free: Time,
    /// When the request's data is fully delivered (occupancy + latency).
    pub done: Time,
}

impl BandwidthResource {
    /// Creates a resource with the given bandwidth (bytes/second) and fixed
    /// per-request latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64, fixed_latency: Time) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "invalid bandwidth: {bytes_per_sec}"
        );
        BandwidthResource {
            bytes_per_sec,
            fixed_latency,
            busy_until: Time::ZERO,
        }
    }

    /// Time at which the resource next becomes idle.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Pure function: how long `bytes` occupy this resource.
    pub fn occupancy(&self, bytes: u64) -> Time {
        Time::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Requests service for `bytes` starting no earlier than `at`.
    ///
    /// The request waits until the resource is free, occupies it for
    /// `bytes / bandwidth`, and completes `fixed_latency` later.
    pub fn acquire(&mut self, at: Time, bytes: u64) -> Grant {
        let start = at.max(self.busy_until);
        let occ = self.occupancy(bytes);
        let free = start + occ;
        self.busy_until = free;
        Grant {
            start,
            free,
            done: free + self.fixed_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_queue_fifo() {
        let mut r = BandwidthResource::new(1.0e9, Time::ZERO); // 1 GB/s => 1 ns/byte
        let a = r.acquire(Time::ZERO, 100);
        let b = r.acquire(Time::ZERO, 100);
        assert_eq!(a.start, Time::ZERO);
        assert_eq!(a.free, Time::from_ns(100));
        assert_eq!(b.start, Time::from_ns(100));
        assert_eq!(b.free, Time::from_ns(200));
    }

    #[test]
    fn idle_gap_is_respected() {
        let mut r = BandwidthResource::new(1.0e9, Time::ZERO);
        r.acquire(Time::ZERO, 10);
        let late = r.acquire(Time::from_us(1), 10);
        assert_eq!(late.start, Time::from_us(1));
    }

    #[test]
    fn fixed_latency_added_to_done_not_free() {
        let mut r = BandwidthResource::new(1.0e9, Time::from_ns(40));
        let g = r.acquire(Time::ZERO, 10);
        assert_eq!(g.free, Time::from_ns(10));
        assert_eq!(g.done, Time::from_ns(50));
    }

    #[test]
    fn utilization_accumulates() {
        let mut r = BandwidthResource::new(1.0e9, Time::ZERO);
        r.acquire(Time::ZERO, 300);
        r.acquire(Time::from_ns(400), 200);
        assert_eq!(r.busy_until(), Time::from_ns(600));
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let _ = BandwidthResource::new(0.0, Time::ZERO);
    }
}
