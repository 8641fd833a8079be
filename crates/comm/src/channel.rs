//! Functional secure channels for the direct-transfer protocol (§4.4.2).
//!
//! Two channels exist after attestation + key exchange:
//!
//! * the **trusted channel** carries small metadata packets
//!   `(addr, VN, MAC)` — encrypted and authenticated under the shared
//!   session key, since VNs must not be forgeable;
//! * the **direct channel** carries raw ciphertext lines DRAM-to-DRAM
//!   without touching either SoC — snoopable, but useless without the key.
//!
//! Both are modeled functionally here; timing lives in
//! [`crate::protocol`].

use tee_crypto::mac::{message_mac, MacKey, MacTag};
use tee_crypto::{Aes128, Key};

/// Metadata describing one in-flight tensor (what the trusted channel
/// protects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferMeta {
    /// Tensor base address in the destination layout.
    pub base: u64,
    /// Tensor bytes (line-aligned).
    pub bytes: u64,
    /// Tensor version number.
    pub vn: u64,
    /// Tensor MAC.
    pub mac: MacTag,
}

/// Errors surfaced by channel verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The metadata packet failed authentication (tampered in flight).
    MetadataForged,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::MetadataForged => write!(f, "trusted-channel packet failed to verify"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// An encrypted, authenticated metadata packet as it crosses the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedMeta {
    payload: [u8; 32],
    tag: MacTag,
}

impl SealedMeta {
    /// Adversarial hook: flip a payload byte in flight.
    pub fn tamper(&mut self, offset: usize, xor: u8) {
        self.payload[offset % 32] ^= xor;
    }

    /// Bus snoop: the raw (encrypted) payload bytes. Adversary hook for
    /// the `snooped_metadata_is_ciphertext` test.
    pub fn snoop(&self) -> &[u8; 32] {
        &self.payload
    }
}

/// The trusted metadata channel, bound to the shared session key.
///
/// # Example
///
/// ```
/// use tee_comm::channel::{TransferMeta, TrustedChannel};
/// use tee_crypto::{mac::MacTag, Key};
///
/// let key = Key::from_seed(42);
/// let tx = TrustedChannel::new(key);
/// let rx = TrustedChannel::new(key);
/// let meta = TransferMeta { base: 0x1000, bytes: 4096, vn: 3, mac: MacTag::from_raw(7) };
/// let sealed = tx.seal(&meta, 1);
/// assert_eq!(rx.open(&sealed, 1).unwrap(), meta);
/// ```
#[derive(Debug)]
pub struct TrustedChannel {
    aes: Aes128,
    mac_key: MacKey,
}

impl TrustedChannel {
    /// Binds a channel endpoint to the session key.
    pub fn new(session_key: Key) -> Self {
        TrustedChannel {
            aes: Aes128::new(&session_key.derive("meta-enc")),
            mac_key: MacKey(session_key.derive("meta-mac").0),
        }
    }

    fn keystream(&self, seq: u64) -> [u8; 32] {
        let mut out = [0u8; 32];
        for blk in 0..2u64 {
            let mut ctr = [0u8; 16];
            ctr[..8].copy_from_slice(&seq.to_le_bytes());
            ctr[8] = blk as u8;
            let ks = self.aes.encrypt_block(ctr);
            out[(blk as usize) * 16..(blk as usize + 1) * 16].copy_from_slice(&ks);
        }
        out
    }

    /// Encrypts and authenticates a metadata packet under sequence number
    /// `seq` (replay protection for the channel itself).
    pub fn seal(&self, meta: &TransferMeta, seq: u64) -> SealedMeta {
        let mut plain = [0u8; 32];
        plain[0..8].copy_from_slice(&meta.base.to_le_bytes());
        plain[8..16].copy_from_slice(&meta.bytes.to_le_bytes());
        plain[16..24].copy_from_slice(&meta.vn.to_le_bytes());
        plain[24..32].copy_from_slice(&meta.mac.as_u64().to_le_bytes());
        let ks = self.keystream(seq);
        let mut payload = [0u8; 32];
        for i in 0..32 {
            payload[i] = plain[i] ^ ks[i];
        }
        let mut mac_input = [0u8; 40];
        mac_input[..32].copy_from_slice(&payload);
        mac_input[32..].copy_from_slice(&seq.to_le_bytes());
        SealedMeta {
            payload,
            tag: message_mac(&self.mac_key, &mac_input),
        }
    }

    /// Verifies and decrypts a packet.
    ///
    /// # Errors
    ///
    /// [`ChannelError::MetadataForged`] if authentication fails.
    pub fn open(&self, sealed: &SealedMeta, seq: u64) -> Result<TransferMeta, ChannelError> {
        let mut mac_input = [0u8; 40];
        mac_input[..32].copy_from_slice(&sealed.payload);
        mac_input[32..].copy_from_slice(&seq.to_le_bytes());
        if message_mac(&self.mac_key, &mac_input) != sealed.tag {
            return Err(ChannelError::MetadataForged);
        }
        let ks = self.keystream(seq);
        let mut plain = [0u8; 32];
        for i in 0..32 {
            plain[i] = sealed.payload[i] ^ ks[i];
        }
        let read_u64 =
            |r: std::ops::Range<usize>| u64::from_le_bytes(plain[r].try_into().expect("8 bytes"));
        Ok(TransferMeta {
            base: read_u64(0..8),
            bytes: read_u64(8..16),
            vn: read_u64(16..24),
            mac: MacTag::from_raw(read_u64(24..32)),
        })
    }
}

/// The direct ciphertext channel: DRAM-to-DRAM DMA of encrypted lines.
/// Functionally it is a plain copy — the security property is that the
/// payload is ciphertext under a key the bus never sees. Adversary hook:
/// only tests run it (`tests/secure_transfer.rs` reads the snoop log).
#[derive(Debug, Default)]
pub struct DirectChannel {
    snoop_log: Vec<[u8; 64]>,
}

impl DirectChannel {
    /// Creates a channel with an (adversarial) snoop log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves ciphertext lines, recording what a bus snooper would capture.
    pub fn dma(&mut self, lines: &[[u8; 64]]) -> Vec<[u8; 64]> {
        self.snoop_log.extend_from_slice(lines);
        lines.to_vec()
    }

    /// Everything a bus adversary captured.
    pub fn snooped(&self) -> &[[u8; 64]] {
        &self.snoop_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TrustedChannel, TrustedChannel) {
        let k = Key::from_seed(0xBEEF);
        (TrustedChannel::new(k), TrustedChannel::new(k))
    }

    fn meta() -> TransferMeta {
        TransferMeta {
            base: 0x8000,
            bytes: 1 << 20,
            vn: 17,
            mac: MacTag::from_raw(0x1234_5678),
        }
    }

    #[test]
    fn seal_open_round_trip() {
        let (tx, rx) = pair();
        let sealed = tx.seal(&meta(), 5);
        assert_eq!(rx.open(&sealed, 5).unwrap(), meta());
    }

    #[test]
    fn tampered_packet_rejected() {
        let (tx, rx) = pair();
        let mut sealed = tx.seal(&meta(), 5);
        sealed.tamper(16, 0x01); // flip a VN bit in flight
        assert_eq!(rx.open(&sealed, 5), Err(ChannelError::MetadataForged));
    }

    #[test]
    fn replayed_packet_rejected() {
        let (tx, rx) = pair();
        let sealed = tx.seal(&meta(), 5);
        // Receiver expects sequence 6 now.
        assert_eq!(rx.open(&sealed, 6), Err(ChannelError::MetadataForged));
    }

    #[test]
    fn wrong_key_rejected() {
        let tx = TrustedChannel::new(Key::from_seed(1));
        let rx = TrustedChannel::new(Key::from_seed(2));
        let sealed = tx.seal(&meta(), 0);
        assert!(rx.open(&sealed, 0).is_err());
    }

    #[test]
    fn snooped_metadata_is_ciphertext() {
        let (tx, _) = pair();
        let sealed = tx.seal(&meta(), 9);
        let vn_bytes = meta().vn.to_le_bytes();
        assert_ne!(&sealed.snoop()[16..24], &vn_bytes, "VN not in the clear");
    }

    #[test]
    fn direct_channel_copies_and_logs() {
        let mut ch = DirectChannel::new();
        let lines = vec![[0xAB; 64], [0xCD; 64]];
        let out = ch.dma(&lines);
        assert_eq!(out, lines);
        assert_eq!(ch.snooped().len(), 2);
    }
}
