//! Message authentication codes for integrity verification (§2.2, §4.3).
//!
//! * Per-cacheline MAC: `MAC = Hash(K_MAC, (C, PA, VN))`, truncated to the
//!   56-bit tag width used by the SGX MEE. The hash is SipHash-2-4 — a
//!   keyed PRF with published test vectors, standing in for the MEE's
//!   Carter–Wegman construction.
//! * Tensor MAC (§4.3): `MAC_tensor = MAC_0 ⊕ MAC_1 ⊕ … ⊕ MAC_{n-1}`.
//!   XOR combination is order-insensitive, which is exactly what lets the
//!   NPU verify tiled/reordered tensor reads, and does not shrink the
//!   56-bit output space (§4.3 "Security analysis").

use crate::ctr::LINE_BYTES;
use crate::{Key, MAC_BITS};

/// A MAC key (128-bit, independent from the encryption key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacKey(pub [u8; 16]);

impl From<Key> for MacKey {
    fn from(k: Key) -> Self {
        MacKey(k.derive("mac").0)
    }
}

/// A truncated 56-bit MAC tag.
///
/// # Example
///
/// ```
/// use tee_crypto::MacTag;
/// let t = MacTag::from_raw(u64::MAX);
/// assert_eq!(t.as_u64() >> 56, 0); // truncated to 56 bits
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacTag(u64);

impl MacTag {
    /// Masks a raw 64-bit value down to the 56-bit tag space.
    pub fn from_raw(v: u64) -> Self {
        MacTag(v & ((1u64 << MAC_BITS) - 1))
    }

    /// The tag value (top 8 bits always zero).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// XOR-combines two tags (tensor-MAC accumulation).
    pub fn xor(self, other: MacTag) -> MacTag {
        MacTag(self.0 ^ other.0)
    }
}

/// SipHash-2-4 keyed hash (Aumasson & Bernstein), reference implementation.
fn siphash24(key: &[u8; 16], data: &[u8]) -> u64 {
    let k0 = u64::from_le_bytes(key[..8].try_into().expect("8 bytes"));
    let k1 = u64::from_le_bytes(key[8..].try_into().expect("8 bytes"));
    let mut v0 = 0x736f6d6570736575u64 ^ k0;
    let mut v1 = 0x646f72616e646f6du64 ^ k1;
    let mut v2 = 0x6c7967656e657261u64 ^ k0;
    let mut v3 = 0x7465646279746573u64 ^ k1;

    macro_rules! sipround {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        v3 ^= m;
        sipround!();
        sipround!();
        v0 ^= m;
    }
    let rem = chunks.remainder();
    let mut last = (data.len() as u64) << 56;
    for (i, &b) in rem.iter().enumerate() {
        last |= (b as u64) << (8 * i);
    }
    v3 ^= last;
    sipround!();
    sipround!();
    v0 ^= last;
    v2 ^= 0xff;
    sipround!();
    sipround!();
    sipround!();
    sipround!();
    v0 ^ v1 ^ v2 ^ v3
}

/// Computes the per-cacheline MAC over `(ciphertext, PA, VN)`.
///
/// # Example
///
/// ```
/// use tee_crypto::mac::{line_mac, MacKey};
/// let key = MacKey([0u8; 16]);
/// let ct = [0u8; 64];
/// let a = line_mac(&key, &ct, 0x40, 1);
/// let b = line_mac(&key, &ct, 0x40, 2); // different VN
/// assert_ne!(a, b);
/// ```
pub fn line_mac(key: &MacKey, ciphertext: &[u8; LINE_BYTES], pa: u64, vn: u64) -> MacTag {
    let mut buf = [0u8; LINE_BYTES + 16];
    buf[..LINE_BYTES].copy_from_slice(ciphertext);
    buf[LINE_BYTES..LINE_BYTES + 8].copy_from_slice(&pa.to_le_bytes());
    buf[LINE_BYTES + 8..].copy_from_slice(&vn.to_le_bytes());
    MacTag::from_raw(siphash24(&key.0, &buf))
}

/// Computes a MAC over an arbitrary byte message (metadata channel,
/// attestation reports, Merkle nodes).
pub fn message_mac(key: &MacKey, message: &[u8]) -> MacTag {
    MacTag::from_raw(siphash24(&key.0, message))
}

/// An order-insensitive XOR accumulator of per-line MACs: the tensor-wise
/// MAC of §4.3.
///
/// Because XOR is commutative and associative, the accumulated tag is
/// independent of the order lines are visited — tiled NPU access patterns
/// produce the same tensor MAC as streaming ones. A tag XORed in twice
/// cancels out, so callers must add each line exactly once (the update
/// bitmap in `tee-cpu` enforces the analogous property for VNs).
///
/// # Example
///
/// ```
/// use tee_crypto::{MacTag, TensorMac};
/// let t1 = MacTag::from_raw(0x12);
/// let t2 = MacTag::from_raw(0x34);
/// let mut fwd = TensorMac::new();
/// fwd.absorb(t1);
/// fwd.absorb(t2);
/// let mut rev = TensorMac::new();
/// rev.absorb(t2);
/// rev.absorb(t1);
/// assert_eq!(fwd.tag(), rev.tag());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TensorMac {
    acc: MacTag,
    lines: u64,
}

impl TensorMac {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one per-line MAC.
    pub fn absorb(&mut self, tag: MacTag) {
        self.acc = self.acc.xor(tag);
        self.lines += 1;
    }

    /// The accumulated tensor tag.
    pub fn tag(&self) -> MacTag {
        self.acc
    }

    /// Number of line MACs absorbed. Read only by tests
    /// (`crates/crypto/tests/round_trip.rs` uses it to expose the
    /// XOR-collapse caveat a bare tensor tag cannot catch).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Verifies the accumulator against a stored tensor tag.
    pub fn verify(&self, expected: MacTag) -> bool {
        self.acc == expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference test vectors from the SipHash paper (key = 00..0f).
    #[test]
    fn siphash_reference_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        // vectors_sip64 from the reference implementation, first 4 entries,
        // each the little-endian encoding of the output for input 00,01,..,len-1.
        let expected: [[u8; 8]; 4] = [
            [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72],
            [0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74],
            [0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d],
            [0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85],
        ];
        for (len, exp) in expected.iter().enumerate() {
            let data: Vec<u8> = (0..len as u8).collect();
            let got = siphash24(&key, &data);
            assert_eq!(got.to_le_bytes(), *exp, "length {len}");
        }
    }

    #[test]
    fn tag_truncated_to_56_bits() {
        assert_eq!(MacTag::from_raw(u64::MAX).as_u64(), (1u64 << 56) - 1);
    }

    #[test]
    fn mac_binds_all_inputs() {
        let key = MacKey([7u8; 16]);
        let ct1 = [1u8; LINE_BYTES];
        let mut ct2 = ct1;
        ct2[5] ^= 1;
        let base = line_mac(&key, &ct1, 0x40, 3);
        assert_ne!(base, line_mac(&key, &ct2, 0x40, 3), "ciphertext bound");
        assert_ne!(base, line_mac(&key, &ct1, 0x80, 3), "PA bound");
        assert_ne!(base, line_mac(&key, &ct1, 0x40, 4), "VN bound");
        let other_key = MacKey([8u8; 16]);
        assert_ne!(base, line_mac(&other_key, &ct1, 0x40, 3), "key bound");
    }

    #[test]
    fn tensor_mac_order_insensitive() {
        let tags: Vec<MacTag> = (0..16u64).map(|i| MacTag::from_raw(i * 0x123457)).collect();
        let mut fwd = TensorMac::new();
        for &t in &tags {
            fwd.absorb(t);
        }
        let mut rev = TensorMac::new();
        for &t in tags.iter().rev() {
            rev.absorb(t);
        }
        assert_eq!(fwd.tag(), rev.tag());
        assert_eq!(fwd.lines(), 16);
        assert!(fwd.verify(rev.tag()));
    }

    #[test]
    fn tensor_mac_detects_single_line_tamper() {
        let key = MacKey([3u8; 16]);
        let mut good = TensorMac::new();
        let mut bad = TensorMac::new();
        for i in 0..8u64 {
            let ct = [i as u8; LINE_BYTES];
            good.absorb(line_mac(&key, &ct, i * 64, 1));
            let mut tampered = ct;
            if i == 5 {
                tampered[0] ^= 0x80;
            }
            bad.absorb(line_mac(&key, &tampered, i * 64, 1));
        }
        assert!(!bad.verify(good.tag()));
    }

    #[test]
    fn double_absorb_cancels() {
        // Documents the XOR caveat: absorbing the same tag twice cancels.
        let t = MacTag::from_raw(0xBEEF);
        let mut m = TensorMac::new();
        m.absorb(t);
        m.absorb(t);
        assert_eq!(m.tag(), MacTag::default());
    }

    #[test]
    fn message_mac_differs_by_message() {
        let key = MacKey([9u8; 16]);
        assert_ne!(message_mac(&key, b"hello"), message_mac(&key, b"hellp"));
    }
}
