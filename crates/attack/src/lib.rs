//! # tee-attack
//!
//! Adversary & side-channel suite for the TensorTEE reproduction: the
//! repo prices the *defenses* (MAC schemes, staging vs. direct KV
//! protocols); this crate prices the *attacks* they defend against,
//! so "how much does TensorTEE actually hide?" becomes a measurable,
//! explorable quantity.
//!
//! Four pieces:
//!
//! * [`Observation`] — derives a link-level adversary's view from a
//!   [`TraceProbe`](tee_sim::probe::TraceProbe) recording: ciphertext
//!   sizes (wire occupancy) and inter-arrival timings on the CPU–NPU
//!   link, and nothing else.
//! * [`traffic`] — the traffic-analysis adversary: per-class feature
//!   histograms with nearest-centroid matching
//!   ([`TrafficClassifier`]), plus deterministic leakage estimators —
//!   [`extractable_bits`] (entropy per observed transfer) and the
//!   plug-in [`mutual_information_bits`].
//! * [`residency`] — the KV-residency adversary: clusters spill/fetch
//!   transfers by size to recover which sessions share prefixes,
//!   scored in bits against ground truth.
//! * [`defense`] — priced countermeasures: [`Shaping`]
//!   (padded/constant-rate link shaping, priced as padding time) and
//!   [`KvShield`] (shielded-at-rest spilled KV: re-encrypt on spill,
//!   verify on fetch, priced through
//!   [`kv_transfer_time`](tee_serve::kv_transfer_time)).
//!
//! Everything is a pure function of the recording and the knobs —
//! byte-identical across thread counts, with probes on or off.
//!
//! ## Example
//!
//! ```
//! use tee_attack::{extractable_bits, Observation, Shaping, MEASUREMENT_QUANTUM};
//! use tee_serve::config::SecurityProfile;
//! use tee_serve::{simulate_probed, ServeConfig, TraceConfig};
//! use tee_sim::probe::SharedProbe;
//! use tee_workloads::zoo::by_name;
//!
//! let model = by_name("GPT").unwrap();
//! let cfg = ServeConfig::for_model(&model, 4, 640);
//! let trace = TraceConfig::poisson(12, 16.0, 42).generate();
//! let probe = SharedProbe::recording();
//! simulate_probed(&cfg, &model, &SecurityProfile::tensor_tee(), &trace, &probe);
//!
//! let view = Observation::from_trace(&probe.snapshot().unwrap());
//! let raw = extractable_bits(&view.features(MEASUREMENT_QUANTUM));
//! let shaped = Shaping::ConstantRate.apply(&view);
//! let flat = extractable_bits(&shaped.observation.features(MEASUREMENT_QUANTUM));
//! assert!(raw >= flat && flat == 0.0);
//! ```

pub mod defense;
pub mod observation;
pub mod residency;
pub mod traffic;

pub use defense::{
    KvShield, ShapedObservation, Shaping, MEASUREMENT_QUANTUM, SHAPING_QUANTUM, SHIELD_SLOT_BYTES,
};
pub use observation::{instants_named, LinkEvent, Observation, LINK_TRACK};
pub use residency::{link_sessions, size_bucket, ResidencyFinding};
pub use traffic::{extractable_bits, mutual_information_bits, TrafficClassifier};
