//! Enclave measurement and mutual attestation (§4.4.2, authentication phase).
//!
//! Enclave creation copies code/data into secure memory and computes a
//! *measurement* (a MAC over the image under a device key). Each side then
//! produces a [`Report`] binding its measurement to a peer-supplied nonce;
//! the peer verifies the report before the Diffie–Hellman exchange
//! establishes the shared session key.

use crate::kex::DhKeyPair;
use crate::mac::{message_mac, MacKey, MacTag};
use crate::Key;

/// Reasons attestation can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestationError {
    /// The report MAC did not verify under the device key.
    BadSignature,
    /// The measurement does not match the expected enclave image.
    MeasurementMismatch,
    /// The nonce in the report is not the one we challenged with.
    NonceMismatch,
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttestationError::BadSignature => "attestation report signature invalid",
            AttestationError::MeasurementMismatch => "enclave measurement mismatch",
            AttestationError::NonceMismatch => "attestation nonce mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AttestationError {}

/// The identity of one enclave: its measured code+data image.
///
/// # Example
///
/// ```
/// use tee_crypto::{EnclaveIdentity, Key};
/// let device = Key::from_seed(1);
/// let enclave = EnclaveIdentity::measure(b"...code image...", device);
/// let report = enclave.report(7);
/// assert!(report.verify(&enclave.measurement(), 7, device).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct EnclaveIdentity {
    measurement: MacTag,
    device_key: Key,
}

impl EnclaveIdentity {
    /// Measures an enclave image under the platform's device key.
    pub fn measure(image: &[u8], device_key: Key) -> Self {
        let mk = MacKey(device_key.derive("measure").0);
        EnclaveIdentity {
            measurement: message_mac(&mk, image),
            device_key,
        }
    }

    /// The measurement tag.
    pub fn measurement(&self) -> MacTag {
        self.measurement
    }

    /// Produces an attestation report for a challenger-chosen nonce.
    pub fn report(&self, nonce: u64) -> Report {
        let sig_key = MacKey(self.device_key.derive("report").0);
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&self.measurement.as_u64().to_le_bytes());
        buf.extend_from_slice(&nonce.to_le_bytes());
        Report {
            measurement: self.measurement,
            nonce,
            signature: message_mac(&sig_key, &buf),
        }
    }
}

/// A signed attestation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Claimed enclave measurement.
    pub measurement: MacTag,
    /// Challenger nonce this report answers.
    pub nonce: u64,
    /// MAC over `(measurement, nonce)` under the device report key.
    pub signature: MacTag,
}

impl Report {
    /// Verifies this report against an expected measurement and nonce.
    ///
    /// # Errors
    ///
    /// Returns an [`AttestationError`] naming the first check that failed
    /// (signature, then nonce, then measurement).
    pub fn verify(
        &self,
        expected_measurement: &MacTag,
        expected_nonce: u64,
        device_key: Key,
    ) -> Result<(), AttestationError> {
        let sig_key = MacKey(device_key.derive("report").0);
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&self.measurement.as_u64().to_le_bytes());
        buf.extend_from_slice(&self.nonce.to_le_bytes());
        if message_mac(&sig_key, &buf) != self.signature {
            return Err(AttestationError::BadSignature);
        }
        if self.nonce != expected_nonce {
            return Err(AttestationError::NonceMismatch);
        }
        if self.measurement != *expected_measurement {
            return Err(AttestationError::MeasurementMismatch);
        }
        Ok(())
    }
}

/// Runs the full authentication phase between two enclaves: mutual report
/// verification followed by Diffie–Hellman agreement.
///
/// Returns the shared session [`Key`] both enclaves now hold on-chip.
///
/// # Errors
///
/// Propagates the first failed report verification.
pub fn mutual_attest(
    cpu: &EnclaveIdentity,
    npu: &EnclaveIdentity,
    device_key: Key,
    cpu_nonce: u64,
    npu_nonce: u64,
    cpu_dh_secret: u64,
    npu_dh_secret: u64,
) -> Result<Key, AttestationError> {
    // CPU challenges NPU, NPU challenges CPU.
    let npu_report = npu.report(cpu_nonce);
    npu_report.verify(&npu.measurement(), cpu_nonce, device_key)?;
    let cpu_report = cpu.report(npu_nonce);
    cpu_report.verify(&cpu.measurement(), npu_nonce, device_key)?;

    // Key exchange: only public values cross the (snoopable) bus.
    let cpu_kp = DhKeyPair::from_secret(cpu_dh_secret);
    let npu_kp = DhKeyPair::from_secret(npu_dh_secret);
    let k_cpu = cpu_kp.shared_key(npu_kp.public());
    let k_npu = npu_kp.shared_key(cpu_kp.public());
    debug_assert_eq!(k_cpu, k_npu);
    Ok(k_cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (EnclaveIdentity, EnclaveIdentity, Key) {
        let device = Key::from_seed(0xD00D);
        let cpu = EnclaveIdentity::measure(b"cpu enclave image", device);
        let npu = EnclaveIdentity::measure(b"npu enclave image", device);
        (cpu, npu, device)
    }

    #[test]
    fn report_round_trip() {
        let (cpu, _, device) = setup();
        let r = cpu.report(99);
        assert!(r.verify(&cpu.measurement(), 99, device).is_ok());
    }

    #[test]
    fn forged_signature_rejected() {
        let (cpu, _, device) = setup();
        let mut r = cpu.report(99);
        r.signature = r.signature.xor(MacTag::from_raw(1));
        assert_eq!(
            r.verify(&cpu.measurement(), 99, device),
            Err(AttestationError::BadSignature)
        );
    }

    #[test]
    fn replayed_nonce_rejected() {
        let (cpu, _, device) = setup();
        let r = cpu.report(1);
        assert_eq!(
            r.verify(&cpu.measurement(), 2, device),
            Err(AttestationError::NonceMismatch)
        );
    }

    #[test]
    fn wrong_image_rejected() {
        let (cpu, npu, device) = setup();
        let r = cpu.report(5);
        assert_eq!(
            r.verify(&npu.measurement(), 5, device),
            Err(AttestationError::MeasurementMismatch)
        );
    }

    #[test]
    fn tampered_image_changes_measurement() {
        let device = Key::from_seed(0xD00D);
        let clean = EnclaveIdentity::measure(b"image", device);
        let evil = EnclaveIdentity::measure(b"imagE", device);
        assert_ne!(clean.measurement(), evil.measurement());
    }

    #[test]
    fn mutual_attest_yields_shared_key() {
        let (cpu, npu, device) = setup();
        let k = mutual_attest(&cpu, &npu, device, 11, 22, 1234, 5678).expect("attestation");
        let k2 = mutual_attest(&cpu, &npu, device, 11, 22, 1234, 5678).expect("attestation");
        assert_eq!(k, k2, "deterministic for fixed nonces/secrets");
    }
}
