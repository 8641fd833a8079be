//! # tee-sim
//!
//! Event-driven cycle-simulation kernel shared by every simulator in the
//! TensorTEE reproduction (CPU cache/MEE model, NPU pipeline model, PCIe
//! link model).
//!
//! The crate deliberately contains no domain knowledge: it provides
//!
//! * [`Time`] — a picosecond-resolution simulated timestamp, so that clock
//!   domains with different frequencies (3.5 GHz CPU, 1 GHz NPU, PCIe link)
//!   can be composed on one timeline,
//! * [`ClockDomain`] — cycle → time conversion for one frequency,
//! * [`EventQueue`] — a deterministic discrete-event queue: one binary
//!   min-heap keyed `(time, insertion seq)`, FIFO among same-time events,
//! * [`des`] — a component/scheduler discrete-event core layered on the
//!   queue (`Component` with `next_tick`/`tick`, dispatched in
//!   `(time, component_id)` order), the substrate of `DesClusterSystem`
//!   and the `tee-fleet` simulator,
//! * [`BandwidthResource`] — a contention model for shared resources such
//!   as AES engines, DRAM channels and PCIe lanes,
//! * [`stats`] — counters/histograms used for every reported figure,
//! * [`rng`] — a small deterministic PRNG so simulations are reproducible
//!   without threading `rand` state through every component,
//! * [`probe`] — zero-overhead-when-off observability hooks (spans,
//!   instants, counters, gauges) recorded by [`TraceProbe`] and exported
//!   by the `tensortee` CLI as Chrome/Perfetto trace JSON. Probes observe
//!   [`Time`] and never advance it: results are byte-identical with
//!   tracing on and off.
//!
//! ## Example
//!
//! ```
//! use tee_sim::{ClockDomain, Time};
//!
//! let cpu = ClockDomain::from_ghz(3.5);
//! let t = cpu.cycles_to_time(35);
//! assert_eq!(t, Time::from_ns(10));
//! ```

pub mod bandwidth;
pub mod clock;
pub mod des;
pub mod event;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod util;

pub use bandwidth::BandwidthResource;
pub use clock::{ClockDomain, Time};
pub use des::{Component, ComponentId, Scheduler};
pub use event::EventQueue;
pub use probe::{ProbeEvent, SharedProbe, TraceProbe};
pub use rng::SplitMix64;
pub use stats::{Counter, Histogram, StatSet};
