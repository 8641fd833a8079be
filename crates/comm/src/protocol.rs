//! Timing models of the transfer protocols (§3.3, §4.4, Figures 6 & 21).

use crate::link::{AesEngine, PcieLink};
use crate::schedule::exposed_time;
use serde::{Deserialize, Serialize};
use tee_sim::Time;

/// Per-phase breakdown of one transfer (Figure 21's stacked bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferBreakdown {
    /// Sender-side re-encryption into the non-secure staging region
    /// (decrypt with the enclave key + encrypt with the transit key).
    pub re_encryption: Time,
    /// Bus time.
    pub comm: Time,
    /// Receiver-side decryption + re-encryption into its enclave.
    pub decryption: Time,
}

impl TransferBreakdown {
    /// Total serialized duration.
    pub fn total(&self) -> Time {
        self.re_encryption + self.comm + self.decryption
    }
}

/// How a payload crosses a link between two TEEs: the one plain /
/// staged / direct decision every training, cluster and serving path
/// hands down instead of matching on a security mode.
///
/// A protocol decides two things: what a transfer costs
/// ([`Protocol::transfer`]) and whether it hides behind compute
/// ([`Protocol::overlaps_compute`], applied by [`Protocol::exposed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Protocol {
    /// Plain DMA (non-secure reference).
    Plain,
    /// The Graviton-like staging protocol (Figure 6a, §3.3): secure →
    /// non-secure → bus → non-secure → secure, re-encrypting at both
    /// edges.
    Staged,
    /// TensorTEE's direct protocol (Figure 6b, §4.4): the ciphertext is
    /// valid on both sides, so a transfer is one DMA plus a trusted
    /// metadata packet.
    Direct,
}

impl Protocol {
    /// Prices one `bytes`-byte transfer on an idle `link`, with the
    /// single AES engine per side of §3.3 for the staged protocol.
    pub fn transfer(self, mut link: PcieLink, bytes: u64) -> TransferBreakdown {
        match self {
            Protocol::Plain => TransferBreakdown {
                comm: link.transfer(Time::ZERO, bytes),
                ..TransferBreakdown::default()
            },
            Protocol::Staged => StagingProtocol::on_link(link).transfer(Time::ZERO, bytes),
            Protocol::Direct => DirectProtocol::on_link(link).transfer(Time::ZERO, bytes),
        }
    }

    /// Whether transfers can hide behind compute. The staging protocol
    /// contends with compute for the AES engines and DRAM bandwidth
    /// (§3.3), so it serializes; plain DMA and the direct protocol
    /// overlap.
    pub fn overlaps_compute(self) -> bool {
        !matches!(self, Protocol::Staged)
    }

    /// The part of a `transfer` a compute `window` does not hide: the
    /// tail past the window ([`exposed_time`]) when the protocol overlaps
    /// compute, all of it when it serializes.
    pub fn exposed(self, window: Time, transfer: Time) -> Time {
        if self.overlaps_compute() {
            exposed_time(window, transfer)
        } else {
            transfer
        }
    }
}

/// The Graviton-like staging protocol (Figure 6a): secure → non-secure →
/// bus → non-secure → secure, with cryptographic conversion at each edge.
///
/// A stateful engine: successive transfers queue on its AES engines and
/// link. [`Protocol::Staged`] prices one transfer on a fresh engine.
#[derive(Debug)]
pub struct StagingProtocol {
    sender_aes: AesEngine,
    receiver_aes: AesEngine,
    link: PcieLink,
}

impl StagingProtocol {
    /// Builds with custom AES bandwidth on a Gen4 ×16 link (ablation:
    /// more engines).
    pub fn with_aes_bandwidth(bytes_per_sec: f64) -> Self {
        StagingProtocol {
            sender_aes: AesEngine::new(bytes_per_sec),
            receiver_aes: AesEngine::new(bytes_per_sec),
            link: PcieLink::gen4_x16(),
        }
    }

    /// Builds the protocol with single AES engines per side (§3.3) over
    /// `link`.
    pub(crate) fn on_link(link: PcieLink) -> Self {
        StagingProtocol {
            sender_aes: AesEngine::single(),
            receiver_aes: AesEngine::single(),
            link,
        }
    }

    /// Transfers `bytes` starting at `at`; phases are serialized
    /// (decrypt+re-encrypt must finish before DMA of the staged copy, and
    /// the receiver converts after arrival).
    pub fn transfer(&mut self, at: Time, bytes: u64) -> TransferBreakdown {
        // Sender: decrypt (enclave key) + encrypt (transit key) — two AES
        // passes through one engine.
        let dec = self.sender_aes.process(at, bytes);
        let reenc_done = self.sender_aes.process(dec, bytes);
        let re_encryption = reenc_done - at;
        // Bus.
        let comm_done = self.link.transfer(reenc_done, bytes);
        let comm = comm_done - reenc_done;
        // Receiver: decrypt transit + re-encrypt into enclave.
        let rdec = self.receiver_aes.process(comm_done, bytes);
        let renc = self.receiver_aes.process(rdec, bytes);
        TransferBreakdown {
            re_encryption,
            comm,
            decryption: renc - comm_done,
        }
    }
}

/// TensorTEE's direct protocol (Figure 6b): unified tensor granularity
/// and a shared session key make the ciphertext valid on both sides, so
/// the transfer is a DMA plus one small trusted-channel packet.
///
/// A stateful engine like [`StagingProtocol`]; crate-visible only so the
/// ring's hop-replay oracle can drive it.
#[derive(Debug)]
pub(crate) struct DirectProtocol {
    link: PcieLink,
    trusted_link: PcieLink,
}

/// Bytes of one trusted-channel metadata packet (sealed `(addr, VN, MAC)`
/// plus tag and header).
pub const META_PACKET_BYTES: u64 = 64;

impl DirectProtocol {
    /// Builds the protocol over `link`; metadata shares the link class but
    /// is negligible.
    pub(crate) fn on_link(link: PcieLink) -> Self {
        DirectProtocol {
            trusted_link: link.clone(),
            link,
        }
    }

    /// Transfers `bytes` starting at `at`. The metadata packet and the
    /// ciphertext DMA proceed in parallel (§4.4.2), synchronizing at the
    /// end.
    pub(crate) fn transfer(&mut self, at: Time, bytes: u64) -> TransferBreakdown {
        let meta_done = self.trusted_link.transfer(at, META_PACKET_BYTES);
        let data_done = self.link.transfer(at, bytes);
        TransferBreakdown {
            re_encryption: Time::ZERO,
            comm: data_done.max(meta_done) - at,
            decryption: Time::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen4(protocol: Protocol, bytes: u64) -> TransferBreakdown {
        protocol.transfer(PcieLink::gen4_x16(), bytes)
    }

    #[test]
    fn staging_dominated_by_crypto() {
        let b = gen4(Protocol::Staged, 256 << 20);
        assert!(b.re_encryption > b.comm, "8 GB/s AES slower than PCIe");
        assert!(b.decryption > b.comm);
    }

    #[test]
    fn direct_is_comm_only() {
        let b = gen4(Protocol::Direct, 256 << 20);
        assert_eq!(b.re_encryption, Time::ZERO);
        assert_eq!(b.decryption, Time::ZERO);
        assert!(b.comm > Time::ZERO);
    }

    #[test]
    fn direct_much_faster_serialized() {
        let bytes = 512 << 20;
        let staging = gen4(Protocol::Staged, bytes);
        let direct = gen4(Protocol::Direct, bytes);
        let speedup = staging.total().as_secs_f64() / direct.total().as_secs_f64();
        assert!(
            speedup > 5.0,
            "even before overlap, direct should win big: {speedup:.1}x"
        );
    }

    #[test]
    fn metadata_packet_negligible() {
        let big = gen4(Protocol::Direct, 64 << 20);
        // Metadata is hidden behind the data DMA.
        let solo_data = PcieLink::gen4_x16().transfer(Time::ZERO, 64 << 20);
        assert_eq!(big.comm, solo_data);
        assert_eq!(gen4(Protocol::Plain, 64 << 20).total(), solo_data);
    }

    #[test]
    fn more_aes_engines_help_staging() {
        let bytes = 128 << 20;
        let one = gen4(Protocol::Staged, bytes);
        let many = StagingProtocol::with_aes_bandwidth(64.0e9).transfer(Time::ZERO, bytes);
        assert!(many.total() < one.total());
    }

    #[test]
    fn overlap_capabilities_mirror_training_protocols() {
        assert!(Protocol::Plain.overlaps_compute());
        assert!(Protocol::Direct.overlaps_compute());
        assert!(!Protocol::Staged.overlaps_compute());
        let (window, transfer) = (Time::from_us(10), Time::from_us(16));
        for p in [Protocol::Plain, Protocol::Direct] {
            assert_eq!(p.exposed(window, transfer), Time::from_us(6));
            assert_eq!(p.exposed(transfer, window), Time::ZERO);
            assert_eq!(p.exposed(Time::MAX, transfer), Time::ZERO);
        }
        assert_eq!(Protocol::Staged.exposed(window, transfer), transfer);
        assert_eq!(Protocol::Staged.exposed(Time::MAX, transfer), transfer);
    }
}
