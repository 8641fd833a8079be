//! Tensor poison tracing and the verification barrier (§4.3, Figure 14).
//!
//! Delayed verification lets computation consume unverified tensors; the
//! *poison bit* tracks which tensors (and everything computed from them)
//! might be tainted. The `verification_barrier` pragma compiles to a
//! synchronization that blocks communication until the poison bits of the
//! involved tensors clear.

use std::collections::HashSet;

/// Identifies a tensor in flight (its GDDR base address).
pub type TensorId = u64;

/// Why a communication attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierError {
    /// A tensor involved in the communication is still poisoned — the
    /// barrier must wait for (or trigger) its verification.
    Poisoned {
        /// The offending tensor.
        tensor: TensorId,
    },
    /// Verification failed earlier: the enclave is compromised and must
    /// abort rather than emit data.
    VerificationFailed {
        /// The tensor whose MAC check failed.
        tensor: TensorId,
    },
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierError::Poisoned { tensor } => {
                write!(f, "tensor {tensor:#x} unverified at barrier")
            }
            BarrierError::VerificationFailed { tensor } => {
                write!(f, "tensor {tensor:#x} failed integrity verification")
            }
        }
    }
}

impl std::error::Error for BarrierError {}

/// The poison-bit tracker.
///
/// # Example
///
/// ```
/// use tee_npu::verify::PoisonTracker;
///
/// let mut p = PoisonTracker::new();
/// p.load_unverified(0x1000);
/// p.compute(&[0x1000], 0x2000); // output inherits the poison
/// assert!(p.is_poisoned(0x2000));
/// p.verification_passed(0x1000);
/// p.verification_passed(0x2000);
/// assert!(p.barrier(&[0x2000]).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct PoisonTracker {
    poisoned: HashSet<TensorId>,
    failed: HashSet<TensorId>,
}

impl PoisonTracker {
    /// Creates a tracker with no tensor in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tensor entered compute with verification still pending.
    pub fn load_unverified(&mut self, t: TensorId) {
        self.poisoned.insert(t);
    }

    /// Whether a tensor is currently poisoned. Read only by tests (the
    /// poison-propagation tests and the `poison_transitive` proptest).
    pub fn is_poisoned(&self, t: TensorId) -> bool {
        self.poisoned.contains(&t)
    }

    /// An operation consumed `inputs` and produced `output`: poison
    /// propagates if any input is poisoned.
    pub fn compute(&mut self, inputs: &[TensorId], output: TensorId) {
        if inputs.iter().any(|i| self.poisoned.contains(i)) {
            self.poisoned.insert(output);
        } else {
            self.poisoned.remove(&output);
        }
        // Failure taint also propagates.
        if inputs.iter().any(|i| self.failed.contains(i)) {
            self.failed.insert(output);
        }
    }

    /// Delayed verification of `t` completed successfully: clear its bit.
    /// Derived tensors stay poisoned until their own inputs' verification
    /// results resolve (cleared transitively by re-running `compute`
    /// bookkeeping or by explicit per-tensor clears, as the hardware does
    /// when the barrier re-checks).
    pub fn verification_passed(&mut self, t: TensorId) {
        self.poisoned.remove(&t);
    }

    /// Delayed verification of `t` failed: mark the enclave compromised.
    pub fn verification_failed(&mut self, t: TensorId) {
        self.failed.insert(t);
        self.poisoned.remove(&t);
    }

    /// The `#pragma verification_barrier` before communication: all the
    /// involved tensors must be verified and clean.
    ///
    /// # Errors
    ///
    /// [`BarrierError::VerificationFailed`] if any tensor's verification
    /// failed (abort), [`BarrierError::Poisoned`] if any is still pending
    /// (the caller stalls until verification completes).
    pub fn barrier(&self, tensors: &[TensorId]) -> Result<(), BarrierError> {
        for &t in tensors {
            if self.failed.contains(&t) {
                return Err(BarrierError::VerificationFailed { tensor: t });
            }
            if self.poisoned.contains(&t) {
                return Err(BarrierError::Poisoned { tensor: t });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_propagates_through_compute() {
        let mut p = PoisonTracker::new();
        p.load_unverified(1);
        p.compute(&[1, 2], 3);
        p.compute(&[3], 4);
        assert!(p.is_poisoned(3));
        assert!(p.is_poisoned(4));
        assert!(!p.is_poisoned(2));
    }

    #[test]
    fn clean_inputs_give_clean_output() {
        let mut p = PoisonTracker::new();
        p.compute(&[10, 11], 12);
        assert!(!p.is_poisoned(12));
    }

    #[test]
    fn barrier_blocks_until_verified() {
        let mut p = PoisonTracker::new();
        p.load_unverified(1);
        p.compute(&[1], 2);
        assert_eq!(p.barrier(&[2]), Err(BarrierError::Poisoned { tensor: 2 }));
        p.verification_passed(1);
        p.verification_passed(2);
        assert!(p.barrier(&[2]).is_ok());
    }

    #[test]
    fn failed_verification_aborts_communication() {
        let mut p = PoisonTracker::new();
        p.load_unverified(1);
        p.verification_failed(1);
        assert_eq!(
            p.barrier(&[1]),
            Err(BarrierError::VerificationFailed { tensor: 1 })
        );
        // Failure taints derived tensors too.
        p.compute(&[1], 2);
        assert_eq!(
            p.barrier(&[2]),
            Err(BarrierError::VerificationFailed { tensor: 2 })
        );
    }

    #[test]
    fn overwrite_with_clean_inputs_clears_poison() {
        let mut p = PoisonTracker::new();
        p.load_unverified(1);
        p.compute(&[1], 5);
        assert!(p.is_poisoned(5));
        // Tensor 5 recomputed from clean inputs.
        p.compute(&[2], 5);
        assert!(!p.is_poisoned(5));
    }
}
