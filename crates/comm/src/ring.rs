//! Secure ring all-reduce across NPU TEEs.
//!
//! The paper evaluates one CPU TEE coupled to one NPU TEE; this module
//! extends the §3.3/§4.4 transfer-protocol split to *N*-way data-parallel
//! training, where per-step gradient aggregation crosses the NPU-side
//! interconnect. A bandwidth-optimal ring all-reduce over `n` ranks moves
//! each rank's full gradient buffer in `2·(n−1)` synchronized steps of
//! `⌈bytes/n⌉`-byte chunks (reduce-scatter then all-gather), so every rank
//! puts `2·(n−1)/n · bytes` on the wire.
//!
//! Security modes map onto the same protocol split as the CPU↔NPU link:
//!
//! * [`RingAllReduce::staged`] — each hop pays the Graviton-like staging
//!   conversion ([`StagingProtocol`]): decrypt + re-encrypt into the
//!   transit key on the sender, the bus, then decrypt + re-encrypt on the
//!   receiver, per chunk, per step (§3.3).
//! * [`RingAllReduce::direct`] — TensorTEE's unified tensor granularity
//!   makes the ciphertext valid on every rank, so a hop is one chunk DMA
//!   plus a trusted-channel metadata packet carrying the chunk MAC
//!   ([`DirectProtocol`], §4.4.2); hops overlap backward via
//!   [`crate::schedule::exposed_time`].
//! * [`RingAllReduce::plain`] — no protection (performance reference).

use crate::link::PcieLink;
use crate::protocol::{DirectProtocol, StagingProtocol, TransferBreakdown};
use serde::Serialize;
use tee_sim::Time;

/// The NPU↔NPU interconnect the ring runs on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Interconnect {
    /// PCIe 4.0 ×16 peer-to-peer (same link class as the CPU↔NPU bus,
    /// Table 1): ~32 GB/s per direction, ~600 ns base latency.
    PcieP2p,
    /// An NVLink-class dedicated accelerator fabric: ~300 GB/s per
    /// direction, ~500 ns base latency.
    NvlinkLike,
    /// Custom bandwidth (bytes/s) and base latency (ns).
    Custom {
        /// Per-direction bandwidth in bytes per second.
        bytes_per_sec: u64,
        /// Base (per-acquire) latency in nanoseconds.
        latency_ns: u64,
    },
}

impl Interconnect {
    /// Per-direction bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        match self {
            Interconnect::PcieP2p => PcieLink::GEN4_X16_BYTES_PER_SEC,
            Interconnect::NvlinkLike => 300.0e9,
            Interconnect::Custom { bytes_per_sec, .. } => *bytes_per_sec as f64,
        }
    }

    /// Base latency per link acquisition.
    pub fn latency(&self) -> Time {
        match self {
            Interconnect::PcieP2p => Time::from_ns(600),
            Interconnect::NvlinkLike => Time::from_ns(500),
            Interconnect::Custom { latency_ns, .. } => Time::from_ns(*latency_ns),
        }
    }

    /// Display label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Interconnect::PcieP2p => "PCIe 4.0 x16 P2P",
            Interconnect::NvlinkLike => "NVLink-class",
            Interconnect::Custom { .. } => "custom",
        }
    }

    /// Builds one link direction of this interconnect.
    pub fn link(&self) -> PcieLink {
        PcieLink::new(self.bytes_per_sec(), self.latency())
    }
}

impl Default for Interconnect {
    /// PCIe peer-to-peer: the conservative fabric the paper's Table-1
    /// system already has.
    fn default() -> Self {
        Interconnect::PcieP2p
    }
}

/// Cost of one synchronized ring step (one chunk hop) under a protocol.
///
/// The hop sequence is the contract between the analytic collective
/// ([`RingAllReduce::staged`] etc., which fold the hops serially) and the
/// discrete-event cluster engine (which replays the same hops as explicit
/// re-encrypt / bus / decrypt events on a shared fabric) — both consume
/// identical per-hop numbers, which is what makes DES-lockstep reproduce
/// the analytic breakdown bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HopCost {
    /// Staging conversion on the send side (zero for direct/plain).
    pub re_encryption: Time,
    /// Interconnect bus time of the chunk DMA.
    pub comm: Time,
    /// Staging conversion on the receive side (zero for direct/plain).
    pub decryption: Time,
}

/// Per-phase cost of one ring all-reduce, per rank (all ranks operate in
/// lockstep, so this is also the wall-clock cost of the collective).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AllReduceBreakdown {
    /// Synchronized ring steps executed (`2·(n−1)`).
    pub steps: u32,
    /// Bytes of one ring chunk (`⌈bytes/n⌉`).
    pub chunk_bytes: u64,
    /// Staging-conversion time on the send side (zero for direct/plain).
    pub re_encryption: Time,
    /// Interconnect bus time across all steps.
    pub comm: Time,
    /// Staging-conversion time on the receive side (zero for direct/plain).
    pub decryption: Time,
}

impl AllReduceBreakdown {
    /// The no-op collective (single rank: gradients are already reduced).
    pub const NOOP: AllReduceBreakdown = AllReduceBreakdown {
        steps: 0,
        chunk_bytes: 0,
        re_encryption: Time::ZERO,
        comm: Time::ZERO,
        decryption: Time::ZERO,
    };

    /// Total serialized duration of the collective.
    pub fn total(&self) -> Time {
        self.re_encryption + self.comm + self.decryption
    }

    /// Bytes each rank puts on the wire: `steps · chunk_bytes`, i.e.
    /// `2·(n−1)/n · bytes` up to chunk rounding.
    pub fn wire_bytes(&self) -> u64 {
        self.steps as u64 * self.chunk_bytes
    }

    /// Accumulates a hop sequence into the per-phase breakdown (the
    /// serial fold both the analytic path and the DES use — per-field
    /// sums in hop order, so the result is bit-identical between them).
    pub fn from_hops(steps: u32, chunk_bytes: u64, hops: &[HopCost]) -> AllReduceBreakdown {
        let mut acc = AllReduceBreakdown {
            steps,
            chunk_bytes,
            ..AllReduceBreakdown::NOOP
        };
        for hop in hops {
            acc.re_encryption += hop.re_encryption;
            acc.comm += hop.comm;
            acc.decryption += hop.decryption;
        }
        acc
    }
}

/// A bandwidth-optimal ring all-reduce schedule over `n_ranks` NPU TEEs.
#[derive(Debug, Clone, Copy)]
pub struct RingAllReduce {
    n_ranks: u32,
    interconnect: Interconnect,
}

impl RingAllReduce {
    /// Creates the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `n_ranks` is zero.
    pub fn new(n_ranks: u32, interconnect: Interconnect) -> Self {
        assert!(n_ranks > 0, "a ring needs at least one rank");
        RingAllReduce {
            n_ranks,
            interconnect,
        }
    }

    /// Synchronized steps: `n−1` reduce-scatter + `n−1` all-gather.
    pub fn steps(&self) -> u32 {
        2 * (self.n_ranks - 1)
    }

    /// Chunk size for a `bytes`-byte buffer (`⌈bytes/n⌉`).
    pub fn chunk_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.n_ranks as u64)
    }

    /// Plain (non-secure) all-reduce: each step is one chunk DMA; steps
    /// barrier on the slowest hop, which on a homogeneous ring is any hop.
    pub fn plain(&self, bytes: u64) -> AllReduceBreakdown {
        let mut link = self.interconnect.link();
        self.run(bytes, move |at, chunk| {
            let done = link.transfer(at, chunk);
            (Time::ZERO, done - at, Time::ZERO)
        })
    }

    /// Staged (SGX+MGX-style) all-reduce: every hop re-encrypts into the
    /// transit key, crosses the bus, and converts back — per chunk, per
    /// step. Each rank's single AES engine (§3.3) serializes the
    /// conversions, so nothing overlaps inside a step.
    pub fn staged(&self, bytes: u64) -> AllReduceBreakdown {
        let mut proto = StagingProtocol::on_link(self.interconnect.link());
        self.run(bytes, move |at, chunk| {
            let b = proto.transfer(at, chunk);
            (b.re_encryption, b.comm, b.decryption)
        })
    }

    /// Direct (TensorTEE) all-reduce: ciphertext chunks are valid on every
    /// rank, so a hop is one chunk DMA plus the trusted-channel metadata
    /// packet carrying the chunk's `(addr, VN, MAC)` (§4.4.2), which hides
    /// behind the DMA.
    pub fn direct(&self, bytes: u64) -> AllReduceBreakdown {
        let mut proto = DirectProtocol::on_link(self.interconnect.link());
        self.run(bytes, move |at, chunk| {
            let b = proto.transfer(at, chunk);
            (b.re_encryption, b.comm, b.decryption)
        })
    }

    /// Pipelined ring broadcast of `bytes` from one rank to the other
    /// `n−1` (the fp16 weight redistribution after the CPU update):
    /// chunks stream hop-to-hop, so the wall-clock cost is one traversal
    /// of the payload through a single link under `hop`'s protocol — the
    /// per-hop fill latency of the remaining hops is negligible against
    /// the payload. Zero for a single rank (nothing to redistribute).
    fn pipelined_broadcast(
        &self,
        bytes: u64,
        hop: impl FnOnce(u64) -> TransferBreakdown,
    ) -> TransferBreakdown {
        if self.n_ranks == 1 {
            return TransferBreakdown {
                re_encryption: Time::ZERO,
                comm: Time::ZERO,
                decryption: Time::ZERO,
            };
        }
        hop(bytes)
    }

    /// Plain broadcast: one pipelined traversal of the payload, no
    /// conversion anywhere.
    pub fn broadcast_plain(&self, bytes: u64) -> TransferBreakdown {
        let mut link = self.interconnect.link();
        self.pipelined_broadcast(bytes, |b| TransferBreakdown {
            re_encryption: Time::ZERO,
            comm: link.transfer(Time::ZERO, b),
            decryption: Time::ZERO,
        })
    }

    /// Staged broadcast: every hop pays the §3.3 conversion, and the
    /// conversions pipeline with the bus just like the payload chunks, so
    /// one [`StagingProtocol`] hop bounds the traversal.
    pub fn broadcast_staged(&self, bytes: u64) -> TransferBreakdown {
        let mut proto = StagingProtocol::on_link(self.interconnect.link());
        self.pipelined_broadcast(bytes, |b| proto.transfer(Time::ZERO, b))
    }

    /// Direct broadcast: one ciphertext DMA plus the trusted metadata
    /// packet (§4.4.2).
    pub fn broadcast_direct(&self, bytes: u64) -> TransferBreakdown {
        let mut proto = DirectProtocol::on_link(self.interconnect.link());
        self.pipelined_broadcast(bytes, |b| proto.transfer(Time::ZERO, b))
    }

    /// Per-hop costs of a plain `bytes`-byte all-reduce (empty for a
    /// single rank — the collective is a no-op).
    pub fn hops_plain(&self, bytes: u64) -> Vec<HopCost> {
        let mut link = self.interconnect.link();
        self.hop_costs(bytes, move |at, chunk| {
            let done = link.transfer(at, chunk);
            (Time::ZERO, done - at, Time::ZERO)
        })
    }

    /// Per-hop costs of a staged all-reduce: every hop carries its §3.3
    /// conversion explicitly (what the DES turns into re-encrypt events).
    pub fn hops_staged(&self, bytes: u64) -> Vec<HopCost> {
        let mut proto = StagingProtocol::on_link(self.interconnect.link());
        self.hop_costs(bytes, move |at, chunk| {
            let b = proto.transfer(at, chunk);
            (b.re_encryption, b.comm, b.decryption)
        })
    }

    /// Per-hop costs of a direct (TensorTEE) all-reduce.
    pub fn hops_direct(&self, bytes: u64) -> Vec<HopCost> {
        let mut proto = DirectProtocol::on_link(self.interconnect.link());
        self.hop_costs(bytes, move |at, chunk| {
            let b = proto.transfer(at, chunk);
            (b.re_encryption, b.comm, b.decryption)
        })
    }

    /// Drives the per-step hop model: ring steps are barriers (the chunk a
    /// rank forwards in step `s+1` is the one it received and reduced in
    /// step `s`), so step costs accumulate serially along the fold.
    fn hop_costs(
        &self,
        bytes: u64,
        mut hop: impl FnMut(Time, u64) -> (Time, Time, Time),
    ) -> Vec<HopCost> {
        if self.n_ranks == 1 {
            return Vec::new();
        }
        let chunk = self.chunk_bytes(bytes);
        let mut hops = Vec::with_capacity(self.steps() as usize);
        let mut at = Time::ZERO;
        for _ in 0..self.steps() {
            let (re, comm, de) = hop(at, chunk);
            hops.push(HopCost {
                re_encryption: re,
                comm,
                decryption: de,
            });
            at = at + re + comm + de;
        }
        hops
    }

    /// Folds the hop sequence into the collective's breakdown.
    fn run(
        &self,
        bytes: u64,
        hop: impl FnMut(Time, u64) -> (Time, Time, Time),
    ) -> AllReduceBreakdown {
        if self.n_ranks == 1 {
            return AllReduceBreakdown::NOOP;
        }
        let hops = self.hop_costs(bytes, hop);
        AllReduceBreakdown::from_hops(self.steps(), self.chunk_bytes(bytes), &hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn single_rank_is_noop() {
        let ring = RingAllReduce::new(1, Interconnect::PcieP2p);
        for b in [
            ring.plain(64 * MB),
            ring.staged(64 * MB),
            ring.direct(64 * MB),
        ] {
            assert_eq!(b, AllReduceBreakdown::NOOP);
            assert_eq!(b.total(), Time::ZERO);
        }
    }

    #[test]
    fn wire_bytes_follow_ring_formula() {
        for n in [2u32, 3, 4, 8] {
            let ring = RingAllReduce::new(n, Interconnect::PcieP2p);
            let bytes = 96 * MB;
            let b = ring.direct(bytes);
            assert_eq!(b.steps, 2 * (n - 1));
            assert_eq!(b.chunk_bytes, bytes.div_ceil(n as u64));
            // 2·(n−1)/n·bytes up to per-chunk ceil rounding.
            let ideal = 2 * (n as u64 - 1) * bytes / n as u64;
            assert!(b.wire_bytes() >= ideal);
            assert!(b.wire_bytes() < ideal + 2 * n as u64);
        }
    }

    #[test]
    fn staged_pays_conversion_direct_does_not() {
        let ring = RingAllReduce::new(4, Interconnect::PcieP2p);
        let staged = ring.staged(64 * MB);
        let direct = ring.direct(64 * MB);
        assert!(staged.re_encryption > Time::ZERO);
        assert!(staged.decryption > Time::ZERO);
        assert_eq!(direct.re_encryption, Time::ZERO);
        assert_eq!(direct.decryption, Time::ZERO);
        assert!(staged.total() > direct.total());
    }

    #[test]
    fn direct_close_to_plain() {
        let ring = RingAllReduce::new(8, Interconnect::PcieP2p);
        let plain = ring.plain(256 * MB).total().as_secs_f64();
        let direct = ring.direct(256 * MB).total().as_secs_f64();
        assert!(direct >= plain);
        assert!(direct / plain < 1.05, "metadata hides behind chunk DMA");
    }

    #[test]
    fn total_time_roughly_flat_in_ranks() {
        // Wire bytes converge to 2·bytes as n grows, so the collective's
        // duration grows sublinearly and saturates.
        let bytes = 256 * MB;
        let t = |n| {
            RingAllReduce::new(n, Interconnect::PcieP2p)
                .direct(bytes)
                .total()
                .as_secs_f64()
        };
        assert!(t(8) < 2.0 * t(2));
        assert!(t(8) > t(2), "more steps cost more in total");
    }

    #[test]
    fn broadcast_is_one_traversal_and_noop_for_single_rank() {
        let ring = RingAllReduce::new(4, Interconnect::PcieP2p);
        let plain = ring.broadcast_plain(64 * MB);
        let staged = ring.broadcast_staged(64 * MB);
        let direct = ring.broadcast_direct(64 * MB);
        // Pipelining: cost does not scale with rank count.
        let wider = RingAllReduce::new(8, Interconnect::PcieP2p).broadcast_plain(64 * MB);
        assert_eq!(plain, wider);
        assert!(staged.total() > direct.total(), "hops pay the conversion");
        assert!(direct.total() >= plain.total());
        let single = RingAllReduce::new(1, Interconnect::PcieP2p);
        assert_eq!(single.broadcast_staged(64 * MB).total(), Time::ZERO);
    }

    #[test]
    fn hop_sequences_fold_back_to_the_breakdown() {
        for n in [2u32, 4, 8] {
            let ring = RingAllReduce::new(n, Interconnect::PcieP2p);
            let bytes = 96 * MB;
            for (hops, breakdown) in [
                (ring.hops_plain(bytes), ring.plain(bytes)),
                (ring.hops_staged(bytes), ring.staged(bytes)),
                (ring.hops_direct(bytes), ring.direct(bytes)),
            ] {
                assert_eq!(hops.len() as u32, ring.steps());
                assert_eq!(
                    AllReduceBreakdown::from_hops(ring.steps(), ring.chunk_bytes(bytes), &hops),
                    breakdown
                );
            }
        }
        let single = RingAllReduce::new(1, Interconnect::PcieP2p);
        assert!(single.hops_staged(64 * MB).is_empty());
    }

    #[test]
    fn faster_fabric_helps() {
        let bytes = 256 * MB;
        let pcie = RingAllReduce::new(8, Interconnect::PcieP2p).direct(bytes);
        let nvlink = RingAllReduce::new(8, Interconnect::NvlinkLike).direct(bytes);
        assert!(nvlink.total() < pcie.total());
    }

    #[test]
    fn custom_interconnect_parameters_respected() {
        let ic = Interconnect::Custom {
            bytes_per_sec: 16_000_000_000,
            latency_ns: 100,
        };
        assert_eq!(ic.bytes_per_sec(), 16.0e9);
        assert_eq!(ic.latency(), Time::from_ns(100));
        assert_eq!(ic.label(), "custom");
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _ = RingAllReduce::new(0, Interconnect::PcieP2p);
    }
}
