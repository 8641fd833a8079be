//! Secure session establishment: attestation + key exchange (§4.4.2).
//!
//! Before any direct transfer, the CPU and NPU enclaves attest each other
//! and run Diffie–Hellman so both hold the same on-chip session key. This
//! module wires `tee-crypto`'s primitives into one call and hands back
//! ready-to-use channel endpoints.

use tee_comm::channel::TrustedChannel;
use tee_crypto::attest::{mutual_attest, AttestationError, EnclaveIdentity};
use tee_crypto::Key;

/// An established CPU↔NPU secure session.
#[derive(Debug)]
pub struct SecureSession {
    key: Key,
    cpu_channel: TrustedChannel,
    npu_channel: TrustedChannel,
}

impl SecureSession {
    /// Runs the full authentication phase: enclave creation/measurement,
    /// mutual report verification, then key exchange.
    ///
    /// # Errors
    ///
    /// Propagates the first attestation failure.
    pub fn establish(
        device_key: Key,
        cpu_image: &[u8],
        npu_image: &[u8],
        nonce_seed: u64,
    ) -> Result<Self, AttestationError> {
        let cpu = EnclaveIdentity::measure(cpu_image, device_key);
        let npu = EnclaveIdentity::measure(npu_image, device_key);
        // Each enclave's ephemeral DH secret comes from its on-chip
        // entropy, modeled as a derivation of the device key and nonce.
        let entropy = u64::from_le_bytes(
            device_key.derive("dh-entropy").0[..8]
                .try_into()
                .expect("8 bytes"),
        );
        let key = mutual_attest(
            &cpu,
            &npu,
            device_key,
            nonce_seed,
            nonce_seed.wrapping_add(1),
            (entropy ^ nonce_seed.wrapping_mul(0x9E37_79B9)) | 1,
            (entropy.rotate_left(17) ^ nonce_seed.wrapping_mul(0xDEAD_BEEF)) | 1,
        )?;
        Ok(SecureSession {
            key,
            cpu_channel: TrustedChannel::new(key),
            npu_channel: TrustedChannel::new(key),
        })
    }

    /// The shared session key (kept on-chip by both enclaves).
    pub fn key(&self) -> Key {
        self.key
    }

    /// The CPU's trusted-channel endpoint.
    pub fn cpu_channel(&self) -> &TrustedChannel {
        &self.cpu_channel
    }

    /// The NPU's trusted-channel endpoint.
    pub fn npu_channel(&self) -> &TrustedChannel {
        &self.npu_channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tee_comm::channel::TransferMeta;
    use tee_crypto::mac::MacTag;

    #[test]
    fn establish_and_exchange_metadata() {
        let session =
            SecureSession::establish(Key::from_seed(9), b"cpu code", b"npu code", 42).unwrap();
        let meta = TransferMeta {
            base: 0x1000,
            bytes: 4096,
            vn: 7,
            mac: MacTag::from_raw(0xFEED),
        };
        let sealed = session.cpu_channel().seal(&meta, 0);
        let opened = session.npu_channel().open(&sealed, 0).unwrap();
        assert_eq!(opened, meta);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = SecureSession::establish(Key::from_seed(1), b"c", b"n", 5).unwrap();
        let b = SecureSession::establish(Key::from_seed(1), b"c", b"n", 5).unwrap();
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn different_device_keys_differ() {
        let a = SecureSession::establish(Key::from_seed(1), b"c", b"n", 5).unwrap();
        let b = SecureSession::establish(Key::from_seed(2), b"c", b"n", 5).unwrap();
        assert_ne!(a.key(), b.key());
    }
}
