//! # tee-crypto
//!
//! Cryptographic building blocks for the TensorTEE memory-encryption
//! engines and secure channels (§2.2 counter-mode memory protection,
//! §4.3 tensor MACs, §4.4 the direct-transfer key agreement), implemented
//! from scratch (no external crypto crates are available offline):
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197), used in counter mode,
//! * [`ctr`] — counter-mode cacheline encryption with `(PA, VN)` counters
//!   exactly as formulated in §2.2: `C = AES(K, (PA, VN)) ⊕ P`,
//! * [`mac`] — keyed MACs per cacheline
//!   (`MAC = Hash(K_MAC, (C, PA, VN))`, §2.2) and the XOR-combined
//!   *tensor MAC* of §4.3 (`MAC_tensor = MAC_0 ⊕ … ⊕ MAC_{n-1}`),
//! * [`merkle`] — the 8-ary Bonsai Merkle tree protecting off-chip VNs in
//!   the SGX-like baseline,
//! * [`kex`] — a Diffie–Hellman key agreement used by the direct-transfer
//!   protocol so both enclaves hold the same AES/MAC keys (§4.4.2),
//! * [`attest`] — enclave measurement and mutual attestation reports.
//!
//! Functional fidelity matters here: integration tests tamper with and
//! replay simulated DRAM ciphertext and must observe real MAC/VN failures.
//!
//! ## Security note
//!
//! The AES and SipHash implementations follow their specifications and pass
//! the published test vectors, but they are *simulation components*: they are
//! not constant-time and the Diffie–Hellman group is deliberately small.
//! Do not reuse them as production cryptography.

pub mod aes;
pub mod attest;
pub mod ctr;
pub mod kex;
pub mod mac;
pub mod merkle;

pub use aes::Aes128;
pub use attest::{AttestationError, EnclaveIdentity, Report};
pub use ctr::{CtrEngine, LineCounter};
pub use kex::DhKeyPair;
pub use mac::{MacKey, MacTag, TensorMac};
pub use merkle::VnMerkleTree;

/// MAC tag width in bits (§4.3: 56-bit MAC output space).
pub const MAC_BITS: u32 = 56;

/// A 128-bit symmetric key shared by the encryption and MAC engines of one
/// enclave (or, after key exchange, by a pair of enclaves).
///
/// # Example
///
/// ```
/// use tee_crypto::Key;
/// let k = Key::from_seed(42);
/// assert_ne!(k.derive("enc"), k.derive("mac"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub [u8; 16]);

impl Key {
    /// Derives a key from a 64-bit seed (simulation convenience).
    pub fn from_seed(seed: u64) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..].copy_from_slice(&seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
        Key(bytes)
    }

    /// Derives a distinct sub-key for a named purpose (domain separation).
    pub fn derive(&self, label: &str) -> Key {
        let mut k = self.0;
        for (i, b) in label.bytes().enumerate() {
            k[i % 16] ^= b.rotate_left((i % 7) as u32);
        }
        // One AES pass to mix.
        let aes = Aes128::new(&Key(k));
        let block = aes.encrypt_block([0u8; 16]);
        Key(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_differ_by_label() {
        let k = Key::from_seed(7);
        assert_ne!(k.derive("enc"), k.derive("mac"));
        assert_eq!(k.derive("enc"), k.derive("enc"));
    }

    #[test]
    fn seeded_keys_are_deterministic() {
        assert_eq!(Key::from_seed(1), Key::from_seed(1));
        assert_ne!(Key::from_seed(1), Key::from_seed(2));
    }
}
