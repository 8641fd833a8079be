//! Priced defenses: traffic shaping on the link, shielding at rest.
//!
//! Both defenses are config knobs whose cost flows through the
//! existing cost model rather than hand-waved percentages:
//!
//! * [`Shaping`] pads wire transfers (to power-of-two slots, or to one
//!   constant-rate slot), so its price is the padding time the link
//!   stays busy beyond the real ciphertext — directly comparable to
//!   the exposure and makespan the serving reports already account.
//! * [`KvShield`] re-encrypts spilled KV into fixed-size shielded
//!   slots on spill and verifies on fetch; its price is the crypto
//!   delta of one staged pass over the spilled/fetched bytes, taken
//!   from [`kv_transfer_time`] — the same component the serving
//!   protocols are priced with.

use crate::observation::{LinkEvent, Observation};
use serde::{Deserialize, Serialize};
use tee_serve::{kv_transfer_time, Protocol};
use tee_sim::Time;

/// The adversary's measurement resolution: wire occupancy is observed
/// in 100 ns ticks (a conservative, easily buildable bus analyzer).
pub const MEASUREMENT_QUANTUM: Time = Time::from_ns(100);

/// The shaping slot granularity: padded transfers occupy a
/// power-of-two number of 64 us slots, so the adversary sees at most a
/// handful of distinct sizes instead of a near-continuum.
pub const SHAPING_QUANTUM: Time = Time::from_us(64);

/// Fixed shielded-arena slot: spilled KV is stored in 256 MiB
/// superblocks, so at-rest blob sizes no longer track session context.
pub const SHIELD_SLOT_BYTES: u64 = 1 << 28;

/// Link traffic-shaping policy (what the wire schedule gives away).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Shaping {
    /// No shaping: transfers occupy exactly their ciphertext time.
    Unshaped,
    /// Pad each transfer to the next power-of-two multiple of
    /// [`SHAPING_QUANTUM`]: a deterministic coarsening, so observed
    /// entropy can only fall.
    Padded,
    /// Every transfer occupies one fixed slot (the largest padded
    /// transfer of the run): the size channel carries exactly zero
    /// bits, at the highest padding price.
    ConstantRate,
}

impl Shaping {
    /// Stable lowercase label (knob values, report rows, CLI).
    pub fn label(&self) -> &'static str {
        match self {
            Shaping::Unshaped => "unshaped",
            Shaping::Padded => "padded",
            Shaping::ConstantRate => "constant-rate",
        }
    }

    /// Every policy, in increasing-protection order.
    pub fn all() -> [Shaping; 3] {
        [Shaping::Unshaped, Shaping::Padded, Shaping::ConstantRate]
    }

    fn padded_duration(d: Time) -> Time {
        let q = SHAPING_QUANTUM.as_ps();
        let slots = d.as_ps().div_ceil(q).max(1).next_power_of_two();
        Time::from_ps(slots * q)
    }

    /// Applies the policy to an observation: what the adversary sees
    /// afterwards, plus the total padding time the link pays for it.
    pub fn apply(&self, obs: &Observation) -> ShapedObservation {
        match self {
            Shaping::Unshaped => ShapedObservation {
                observation: obs.clone(),
                padding: Time::ZERO,
            },
            Shaping::Padded => {
                let mut padding = Time::ZERO;
                let events = obs
                    .events()
                    .iter()
                    .map(|e| {
                        let d = Self::padded_duration(e.duration);
                        padding += d.saturating_sub(e.duration);
                        LinkEvent {
                            at: e.at,
                            duration: d,
                        }
                    })
                    .collect();
                ShapedObservation {
                    observation: Observation::from_events(events),
                    padding,
                }
            }
            Shaping::ConstantRate => {
                let slot = obs
                    .events()
                    .iter()
                    .map(|e| Self::padded_duration(e.duration))
                    .fold(Time::ZERO, Time::max);
                let mut padding = Time::ZERO;
                let events = obs
                    .events()
                    .iter()
                    .map(|e| {
                        padding += slot.saturating_sub(e.duration);
                        LinkEvent {
                            at: e.at,
                            duration: slot,
                        }
                    })
                    .collect();
                ShapedObservation {
                    observation: Observation::from_events(events),
                    padding,
                }
            }
        }
    }
}

/// A shaped view plus its price.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapedObservation {
    /// What the adversary observes after shaping.
    pub observation: Observation,
    /// Total link time spent on padding (zero when unshaped).
    pub padding: Time,
}

/// At-rest protection for spilled KV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvShield {
    /// Spilled blobs keep their true size (the transfer encryption
    /// still protects content, but size tracks session context).
    Plain,
    /// Re-encrypt into fixed [`SHIELD_SLOT_BYTES`] slots on spill,
    /// verify on fetch: sizes are quantized to superblocks and
    /// ciphertexts re-randomized, so spill patterns stop linking
    /// sessions.
    Shielded,
}

impl KvShield {
    /// Stable lowercase label (knob values, report rows, CLI).
    pub fn label(&self) -> &'static str {
        match self {
            KvShield::Plain => "plain-spill",
            KvShield::Shielded => "shielded",
        }
    }

    /// Both policies, plain first.
    pub fn all() -> [KvShield; 2] {
        [KvShield::Plain, KvShield::Shielded]
    }

    /// What the adversary observes of each at-rest blob size.
    pub fn observed_sizes(&self, sizes: &[u64]) -> Vec<u64> {
        match self {
            KvShield::Plain => sizes.to_vec(),
            KvShield::Shielded => sizes
                .iter()
                .map(|&s| s.max(1).div_ceil(SHIELD_SLOT_BYTES) * SHIELD_SLOT_BYTES)
                .collect(),
        }
    }

    /// The crypto price of shielding: one staged pass over the spilled
    /// bytes (re-encrypt) and one over the fetched bytes (verify),
    /// costed as the staging protocol's delta over a plain wire
    /// transfer of the same bytes — the crypto-only component of the
    /// existing cost model.
    pub fn overhead(&self, spilled_bytes: u64, fetched_bytes: u64) -> Time {
        match self {
            KvShield::Plain => Time::ZERO,
            KvShield::Shielded => {
                let crypto_delta = |bytes: u64| {
                    kv_transfer_time(Protocol::Staged, bytes)
                        .saturating_sub(kv_transfer_time(Protocol::Plain, bytes))
                };
                crypto_delta(spilled_bytes) + crypto_delta(fetched_bytes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::extractable_bits;

    fn obs(durations_us: &[u64]) -> Observation {
        let events = durations_us
            .iter()
            .enumerate()
            .map(|(i, &d)| LinkEvent {
                at: Time::from_us(1000 * i as u64),
                duration: Time::from_us(d),
            })
            .collect();
        Observation::from_events(events)
    }

    #[test]
    fn labels_and_orders_are_stable() {
        let labels: Vec<&str> = Shaping::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["unshaped", "padded", "constant-rate"]);
        let labels: Vec<&str> = KvShield::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["plain-spill", "shielded"]);
    }

    #[test]
    fn shaping_strictly_orders_leakage_and_prices_padding() {
        let raw = obs(&[70, 130, 260, 510, 1030, 70, 265]);
        let q = MEASUREMENT_QUANTUM;
        let unshaped = Shaping::Unshaped.apply(&raw);
        let padded = Shaping::Padded.apply(&raw);
        let constant = Shaping::ConstantRate.apply(&raw);

        let bits = |s: &ShapedObservation| extractable_bits(&s.observation.features(q));
        assert!(bits(&unshaped) > bits(&padded), "padding must coarsen");
        assert!(bits(&padded) > bits(&constant), "constant rate flattens");
        assert_eq!(bits(&constant), 0.0);

        assert_eq!(unshaped.padding, Time::ZERO);
        assert!(padded.padding > Time::ZERO);
        assert!(constant.padding > padded.padding, "flat slots cost most");
        // Shaping never shrinks a transfer.
        for (before, after) in raw.events().iter().zip(padded.observation.events().iter()) {
            assert!(after.duration >= before.duration);
            assert_eq!(after.at, before.at);
        }
    }

    #[test]
    fn constant_rate_on_empty_observation_is_free() {
        let shaped = Shaping::ConstantRate.apply(&obs(&[]));
        assert!(shaped.observation.events().is_empty());
        assert_eq!(shaped.padding, Time::ZERO);
    }

    #[test]
    fn shield_quantizes_sizes_and_prices_crypto() {
        let sizes = [10 << 20, 200 << 20, 300 << 20];
        assert_eq!(KvShield::Plain.observed_sizes(&sizes), sizes.to_vec());
        let shielded = KvShield::Shielded.observed_sizes(&sizes);
        assert_eq!(
            shielded,
            vec![SHIELD_SLOT_BYTES, SHIELD_SLOT_BYTES, 2 * SHIELD_SLOT_BYTES]
        );

        assert_eq!(KvShield::Plain.overhead(1 << 30, 1 << 30), Time::ZERO);
        let paid = KvShield::Shielded.overhead(1 << 30, 1 << 30);
        assert!(paid > Time::ZERO, "re-encrypt + verify must cost time");
        let spill_only = KvShield::Shielded.overhead(1 << 30, 0);
        assert!(paid > spill_only, "verify-on-fetch adds to the bill");
    }
}
