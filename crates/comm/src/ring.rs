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
//! Every hop is one chunk under the caller's [`Protocol`]:
//!
//! * [`Protocol::Staged`] — each hop pays the Graviton-like staging
//!   conversion: decrypt + re-encrypt into the transit key on the sender,
//!   the bus, then decrypt + re-encrypt on the receiver, per chunk, per
//!   step (§3.3).
//! * [`Protocol::Direct`] — TensorTEE's unified tensor granularity makes
//!   the ciphertext valid on every rank, so a hop is one chunk DMA plus a
//!   trusted-channel metadata packet carrying the chunk MAC (§4.4.2);
//!   hops overlap backward via [`crate::schedule::exposed_time`].
//! * [`Protocol::Plain`] — no protection (performance reference).
//!
//! Ring steps are barriers, so each hop starts on an idle link and, in
//! integer-picosecond [`Time`], every hop costs exactly the same:
//! [`RingAllReduce::hops`] prices one chunk and repeats it.

use crate::link::PcieLink;
use crate::protocol::{Protocol, TransferBreakdown};
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

    /// The price of one hop: one chunk of a `bytes`-byte buffer under
    /// `protocol`, on an idle link.
    fn hop(&self, protocol: Protocol, bytes: u64) -> TransferBreakdown {
        protocol.transfer(self.interconnect.link(), self.chunk_bytes(bytes))
    }

    /// Per-hop prices of a `bytes`-byte all-reduce under `protocol`, in
    /// step order (empty for a single rank — the collective is a no-op).
    /// The discrete-event cluster engine replays them as explicit
    /// re-encrypt / bus / decrypt events.
    pub fn hops(&self, protocol: Protocol, bytes: u64) -> Vec<TransferBreakdown> {
        vec![self.hop(protocol, bytes); self.steps() as usize]
    }

    /// Per-phase cost of a `bytes`-byte all-reduce under `protocol`: the
    /// [`Self::hops`] summed phase by phase. Under the staged protocol each
    /// rank's single AES engine (§3.3) serializes the conversions, so
    /// nothing overlaps inside a step.
    pub fn all_reduce(&self, protocol: Protocol, bytes: u64) -> AllReduceBreakdown {
        if self.n_ranks == 1 {
            return AllReduceBreakdown::NOOP;
        }
        let hop = self.hop(protocol, bytes);
        let steps = self.steps();
        let repeat = |t: Time| Time::from_ps(t.as_ps() * u64::from(steps));
        AllReduceBreakdown {
            steps,
            chunk_bytes: self.chunk_bytes(bytes),
            re_encryption: repeat(hop.re_encryption),
            comm: repeat(hop.comm),
            decryption: repeat(hop.decryption),
        }
    }

    /// Pipelined ring broadcast of `bytes` from one rank to the other
    /// `n−1` under `protocol` (the fp16 weight redistribution after the
    /// CPU update). Chunks and their conversions stream hop-to-hop, so the
    /// wall-clock cost is one traversal of the payload through a single
    /// link — the per-hop fill latency of the remaining hops is negligible
    /// against the payload. Zero for a single rank (nothing to
    /// redistribute).
    pub fn broadcast(&self, protocol: Protocol, bytes: u64) -> TransferBreakdown {
        if self.n_ranks == 1 {
            return TransferBreakdown::default();
        }
        protocol.transfer(self.interconnect.link(), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DirectProtocol, StagingProtocol};
    use proptest::prelude::*;

    const MB: u64 = 1 << 20;
    const PROTOCOLS: [Protocol; 3] = [Protocol::Plain, Protocol::Staged, Protocol::Direct];

    #[test]
    fn single_rank_is_noop() {
        let ring = RingAllReduce::new(1, Interconnect::PcieP2p);
        for p in PROTOCOLS {
            let b = ring.all_reduce(p, 64 * MB);
            assert_eq!(b, AllReduceBreakdown::NOOP);
            assert_eq!(b.total(), Time::ZERO);
            assert!(ring.hops(p, 64 * MB).is_empty());
        }
    }

    #[test]
    fn wire_bytes_follow_ring_formula() {
        for n in [2u32, 3, 4, 8] {
            let ring = RingAllReduce::new(n, Interconnect::PcieP2p);
            let bytes = 96 * MB;
            let b = ring.all_reduce(Protocol::Direct, bytes);
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
        let staged = ring.all_reduce(Protocol::Staged, 64 * MB);
        let direct = ring.all_reduce(Protocol::Direct, 64 * MB);
        assert!(staged.re_encryption > Time::ZERO);
        assert!(staged.decryption > Time::ZERO);
        assert_eq!(direct.re_encryption, Time::ZERO);
        assert_eq!(direct.decryption, Time::ZERO);
        assert!(staged.total() > direct.total());
    }

    #[test]
    fn direct_close_to_plain() {
        let ring = RingAllReduce::new(8, Interconnect::PcieP2p);
        let plain = ring.all_reduce(Protocol::Plain, 256 * MB).total();
        let direct = ring.all_reduce(Protocol::Direct, 256 * MB).total();
        assert!(direct >= plain);
        assert!(
            direct.as_secs_f64() / plain.as_secs_f64() < 1.05,
            "metadata hides behind chunk DMA"
        );
    }

    #[test]
    fn total_time_roughly_flat_in_ranks() {
        // Wire bytes converge to 2·bytes as n grows, so the collective's
        // duration grows sublinearly and saturates.
        let bytes = 256 * MB;
        let t = |n| {
            RingAllReduce::new(n, Interconnect::PcieP2p)
                .all_reduce(Protocol::Direct, bytes)
                .total()
                .as_secs_f64()
        };
        assert!(t(8) < 2.0 * t(2));
        assert!(t(8) > t(2), "more steps cost more in total");
    }

    #[test]
    fn broadcast_is_one_traversal_and_noop_for_single_rank() {
        let ring = RingAllReduce::new(4, Interconnect::PcieP2p);
        let plain = ring.broadcast(Protocol::Plain, 64 * MB);
        let staged = ring.broadcast(Protocol::Staged, 64 * MB);
        let direct = ring.broadcast(Protocol::Direct, 64 * MB);
        // Pipelining: cost does not scale with rank count.
        let wider =
            RingAllReduce::new(8, Interconnect::PcieP2p).broadcast(Protocol::Plain, 64 * MB);
        assert_eq!(plain, wider);
        assert!(staged.total() > direct.total(), "hops pay the conversion");
        assert!(direct.total() >= plain.total());
        let single = RingAllReduce::new(1, Interconnect::PcieP2p);
        assert_eq!(
            single.broadcast(Protocol::Staged, 64 * MB).total(),
            Time::ZERO
        );
    }

    /// The stateful hop fold the one-hop price replaced: one protocol
    /// engine (`hop`) for the whole collective, each hop starting where
    /// the previous one ended (ring steps are barriers).
    fn replay(
        ring: &RingAllReduce,
        bytes: u64,
        mut hop: impl FnMut(Time, u64) -> TransferBreakdown,
    ) -> Vec<TransferBreakdown> {
        let mut at = Time::ZERO;
        (0..ring.steps())
            .map(|_| {
                let h = hop(at, ring.chunk_bytes(bytes));
                at += h.total();
                h
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::ci())]
        /// Every hop starts on an idle link, so pricing one chunk and
        /// repeating it equals the stateful replay bit for bit, and the
        /// hops fold phase by phase into the all-reduce breakdown.
        #[test]
        fn one_hop_price_matches_the_stateful_replay(
            n in 1u32..=8,
            fabric in 0u8..3,
            bytes in 64u64..=(1 << 30),
            gbs in 1u64..=400,
            latency_ns in 0u64..=2_000,
        ) {
            let interconnect = match fabric {
                0 => Interconnect::PcieP2p,
                1 => Interconnect::NvlinkLike,
                _ => Interconnect::Custom { bytes_per_sec: gbs * 1_000_000_000, latency_ns },
            };
            let ring = RingAllReduce::new(n, interconnect);
            let mut link = interconnect.link();
            let mut staged = StagingProtocol::on_link(interconnect.link());
            let mut direct = DirectProtocol::on_link(interconnect.link());
            for (p, replayed) in [
                (Protocol::Plain, replay(&ring, bytes, |at, b| TransferBreakdown {
                    comm: link.transfer(at, b) - at,
                    ..TransferBreakdown::default()
                })),
                (Protocol::Staged, replay(&ring, bytes, |at, b| staged.transfer(at, b))),
                (Protocol::Direct, replay(&ring, bytes, |at, b| direct.transfer(at, b))),
            ] {
                prop_assert_eq!(&ring.hops(p, bytes), &replayed);
                let ar = ring.all_reduce(p, bytes);
                let fold = |phase: fn(&TransferBreakdown) -> Time| replayed.iter().map(phase).sum();
                prop_assert_eq!(ar.steps as usize, replayed.len());
                prop_assert_eq!(
                    (ar.re_encryption, ar.comm, ar.decryption),
                    (fold(|h| h.re_encryption), fold(|h| h.comm), fold(|h| h.decryption))
                );
            }
        }
    }

    #[test]
    fn faster_fabric_helps() {
        let bytes = 256 * MB;
        let pcie = RingAllReduce::new(8, Interconnect::PcieP2p).all_reduce(Protocol::Direct, bytes);
        let nvlink =
            RingAllReduce::new(8, Interconnect::NvlinkLike).all_reduce(Protocol::Direct, bytes);
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
