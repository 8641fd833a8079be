//! Functional NPU memory: encrypted GDDR with MGX-style on-chip metadata.
//!
//! The NPU keeps *per-tensor* VNs (generated from execution state, as in
//! MGX/Securator — no off-chip VN storage at all) and, with TensorTEE,
//! per-tensor XOR MACs in an on-chip table (§4.3). Ciphertext lives in a
//! [`PhysMem`] image of the GDDR, which the security tests attack.

use std::collections::HashMap;
use tee_crypto::ctr::LINE_BYTES;
use tee_crypto::mac::{line_mac, MacKey, MacTag, TensorMac};
use tee_crypto::{CtrEngine, Key, LineCounter};
use tee_mem::PhysMem;

/// Integrity failure on a tensor read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorMacMismatch {
    /// Base GDDR address of the offending tensor.
    pub base: u64,
}

impl std::fmt::Display for TensorMacMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tensor MAC mismatch at {:#x}", self.base)
    }
}

impl std::error::Error for TensorMacMismatch {}

/// Metadata exported over the trusted channel during direct transfer.
/// Like [`NpuMemory::import_ciphertext`], only tests build it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorMeta {
    /// Tensor base address (sender address space).
    pub base: u64,
    /// Tensor length in bytes (line-aligned).
    pub bytes: u64,
    /// Tensor VN.
    pub vn: u64,
    /// Tensor MAC.
    pub mac: MacTag,
}

/// The NPU's encrypted memory + on-chip metadata tables.
///
/// # Example
///
/// ```
/// use tee_crypto::Key;
/// use tee_npu::memory::NpuMemory;
///
/// let mut m = NpuMemory::new(Key::from_seed(7));
/// let data = vec![0xAB; 128];
/// m.write_tensor(0x1000, &data);
/// assert_eq!(m.read_tensor(0x1000).unwrap(), data);
/// ```
#[derive(Debug)]
pub struct NpuMemory {
    gddr: PhysMem,
    ctr: CtrEngine,
    mac_key: MacKey,
    /// On-chip per-tensor VN table (MGX-style).
    vns: HashMap<u64, u64>,
    /// On-chip per-tensor MAC table (TensorTEE §4.3).
    macs: HashMap<u64, MacTag>,
    /// Tensor lengths (line-aligned bytes).
    lens: HashMap<u64, u64>,
}

impl NpuMemory {
    /// Creates an empty memory bound to the enclave key. After the
    /// direct-transfer key exchange, the CPU enclave holds the same key.
    pub fn new(key: Key) -> Self {
        NpuMemory {
            gddr: PhysMem::new(),
            ctr: CtrEngine::new(key.derive("enc")),
            mac_key: MacKey::from(key),
            vns: HashMap::new(),
            macs: HashMap::new(),
            lens: HashMap::new(),
        }
    }

    /// Encrypts and stores a tensor, bumping its VN and recording its
    /// XOR-combined tensor MAC on-chip.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not line-aligned or `data` is empty.
    pub fn write_tensor(&mut self, base: u64, data: &[u8]) {
        assert_eq!(base % LINE_BYTES as u64, 0, "unaligned tensor base");
        assert!(!data.is_empty(), "empty tensor");
        let vn = self.vns.entry(base).or_insert(0);
        *vn += 1;
        let vn = *vn;
        let mut acc = TensorMac::new();
        let lines = data.len().div_ceil(LINE_BYTES);
        for l in 0..lines {
            let mut pt = [0u8; LINE_BYTES];
            let start = l * LINE_BYTES;
            let end = (start + LINE_BYTES).min(data.len());
            pt[..end - start].copy_from_slice(&data[start..end]);
            let pa = base + (l as u64) * LINE_BYTES as u64;
            let ct = self.ctr.encrypt_line(&pt, LineCounter { pa, vn });
            acc.absorb(line_mac(&self.mac_key, &ct, pa, vn));
            self.gddr.write_line(pa, ct);
        }
        self.macs.insert(base, acc.tag());
        self.lens.insert(base, (lines * LINE_BYTES) as u64);
    }

    /// Reads and verifies a tensor (non-delayed: verification before the
    /// data is returned).
    ///
    /// # Errors
    ///
    /// Returns [`TensorMacMismatch`] if the recomputed tensor MAC does not
    /// match the on-chip tag.
    ///
    /// # Panics
    ///
    /// Panics if the tensor was never written or imported.
    pub fn read_tensor(&mut self, base: u64) -> Result<Vec<u8>, TensorMacMismatch> {
        let (data, verify) = self.read_tensor_deferred(base);
        verify.map(|_| data)
    }

    /// Delayed-verification read: returns the decrypted data *and* the
    /// verification verdict separately, modeling §4.3 (compute may start
    /// on the data; the verdict must be checked before communication).
    ///
    /// # Panics
    ///
    /// Panics if the tensor was never written or imported.
    pub fn read_tensor_deferred(&mut self, base: u64) -> (Vec<u8>, Result<(), TensorMacMismatch>) {
        let bytes = *self.lens.get(&base).expect("unknown tensor");
        let vn = *self.vns.get(&base).expect("unknown tensor VN");
        let expect = *self.macs.get(&base).expect("unknown tensor MAC");
        let mut out = Vec::with_capacity(bytes as usize);
        let mut acc = TensorMac::new();
        let lines = bytes / LINE_BYTES as u64;
        for l in 0..lines {
            let pa = base + l * LINE_BYTES as u64;
            let ct = self.gddr.read_line(pa);
            acc.absorb(line_mac(&self.mac_key, &ct, pa, vn));
            out.extend_from_slice(&self.ctr.decrypt_line(&ct, LineCounter { pa, vn }));
        }
        let verdict = if acc.verify(expect) {
            Ok(())
        } else {
            Err(TensorMacMismatch { base })
        };
        (out, verdict)
    }

    /// Direct-transfer import: raw ciphertext lines land in GDDR via the
    /// direct channel; `(vn, mac)` arrive via the trusted channel. Because
    /// both enclaves share the key and the tensor granularity, the
    /// ciphertext is decryptable as-is — no re-encryption (§4.4).
    ///
    /// The ciphertext must have been produced under counters using *this*
    /// address space's line addresses (the protocol rebases counters by
    /// transferring `addr` metadata; we model matching layouts).
    ///
    /// Only tests run this functional half of the direct protocol
    /// (`tests/secure_transfer.rs`, the `tee-npu` proptests); the
    /// simulators price transfers through `tee-comm` instead.
    pub fn import_ciphertext(&mut self, meta: TensorMeta, lines: &[[u8; LINE_BYTES]]) {
        for (l, ct) in lines.iter().enumerate() {
            self.gddr
                .write_line(meta.base + (l as u64) * LINE_BYTES as u64, *ct);
        }
        self.vns.insert(meta.base, meta.vn);
        self.macs.insert(meta.base, meta.mac);
        self.lens
            .insert(meta.base, (lines.len() * LINE_BYTES) as u64);
    }

    /// Direct-transfer export: ciphertext lines + trusted metadata. Like
    /// [`Self::import_ciphertext`], only tests run it.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is unknown.
    pub fn export_ciphertext(&mut self, base: u64) -> (TensorMeta, Vec<[u8; LINE_BYTES]>) {
        let bytes = *self.lens.get(&base).expect("unknown tensor");
        let meta = TensorMeta {
            base,
            bytes,
            vn: self.vns[&base],
            mac: self.macs[&base],
        };
        let lines = (0..bytes / LINE_BYTES as u64)
            .map(|l| self.gddr.read_line(base + l * LINE_BYTES as u64))
            .collect();
        (meta, lines)
    }

    /// Adversarial access to the raw GDDR image (bus/DIMM control).
    pub fn gddr_mut(&mut self) -> &mut PhysMem {
        &mut self.gddr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> NpuMemory {
        NpuMemory::new(Key::from_seed(0xA11CE))
    }

    #[test]
    fn round_trip_multi_line() {
        let mut m = mem();
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        m.write_tensor(0x4000, &data);
        let back = m.read_tensor(0x4000).unwrap();
        assert_eq!(&back[..300], &data[..]);
        assert_eq!(back.len(), 320, "padded to whole lines");
    }

    #[test]
    fn ciphertext_at_rest() {
        let mut m = mem();
        m.write_tensor(0, &[0x77; 64]);
        assert_ne!(m.gddr_mut().snoop(0), [0x77; 64]);
    }

    #[test]
    fn rewrite_bumps_vn() {
        let mut m = mem();
        m.write_tensor(0, &[1; 64]);
        let v1 = m.export_ciphertext(0).0.vn;
        m.write_tensor(0, &[2; 64]);
        let v2 = m.export_ciphertext(0).0.vn;
        assert_eq!(v2, v1 + 1);
        assert_eq!(m.read_tensor(0).unwrap(), vec![2; 64]);
    }

    #[test]
    fn tamper_detected_even_with_xor_mac() {
        let mut m = mem();
        m.write_tensor(0, &vec![5u8; 4 * 64]);
        m.gddr_mut().tamper_byte(128, 7, 0x01);
        assert_eq!(m.read_tensor(0), Err(TensorMacMismatch { base: 0 }));
    }

    #[test]
    fn swap_two_lines_detected() {
        // XOR MACs are order-insensitive but PA-bound: swapping two
        // ciphertext lines changes each line's MAC, so the XOR differs.
        let mut m = mem();
        m.write_tensor(0, &(0..128u8).collect::<Vec<_>>());
        let a = m.gddr_mut().capture(0);
        let b = m.gddr_mut().capture(64);
        m.gddr_mut().replay(0, b);
        m.gddr_mut().replay(64, a);
        assert!(m.read_tensor(0).is_err());
    }

    #[test]
    fn replay_stale_tensor_detected() {
        let mut m = mem();
        m.write_tensor(0, &[1; 128]);
        let stale0 = m.gddr_mut().capture(0);
        let stale1 = m.gddr_mut().capture(64);
        m.write_tensor(0, &[2; 128]);
        m.gddr_mut().replay(0, stale0);
        m.gddr_mut().replay(64, stale1);
        // VN advanced on-chip; stale ciphertext fails the tensor MAC.
        assert!(m.read_tensor(0).is_err());
    }

    #[test]
    fn deferred_read_returns_data_and_verdict() {
        let mut m = mem();
        m.write_tensor(0, &[9; 64]);
        m.gddr_mut().tamper_byte(0, 0, 0xFF);
        let (data, verdict) = m.read_tensor_deferred(0);
        assert_eq!(data.len(), 64, "data available before verification");
        assert!(verdict.is_err(), "verdict reports tampering");
    }

    #[test]
    fn export_import_between_enclaves() {
        let key = Key::from_seed(0x5EC);
        let mut a = NpuMemory::new(key);
        let mut b = NpuMemory::new(key); // shared key after attestation
        let data = vec![0x3C; 256];
        a.write_tensor(0x1000, &data);
        let (meta, lines) = a.export_ciphertext(0x1000);
        b.import_ciphertext(meta, &lines);
        assert_eq!(b.read_tensor(0x1000).unwrap(), data);
    }

    #[test]
    fn import_with_wrong_key_fails_verification() {
        let mut a = NpuMemory::new(Key::from_seed(1));
        let mut b = NpuMemory::new(Key::from_seed(2));
        a.write_tensor(0, &[7; 128]);
        let (meta, lines) = a.export_ciphertext(0);
        b.import_ciphertext(meta, &lines);
        assert!(b.read_tensor(0).is_err(), "key mismatch must not verify");
    }
}
