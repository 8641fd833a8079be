//! # tee-comm
//!
//! CPU↔NPU interconnect models and the two heterogeneous-TEE data-transfer
//! protocols the paper compares (§3.3, §4.4):
//!
//! * [`link`] — PCIe 4.0 ×16 link and the per-channel AES engine whose
//!   8 GB/s bound serializes communication against computation in the
//!   baseline (Figure 7),
//! * [`protocol`] — [`Protocol`], the one plain / staged / direct choice
//!   every caller is handed: it prices a transfer on a link and says
//!   whether the transfer overlaps compute. Staged is the Graviton-like
//!   protocol (decrypt → non-secure relay → re-encrypt), direct is
//!   TensorTEE's (trusted metadata channel + direct ciphertext channel),
//! * [`channel`] — functional secure channels: metadata packets are
//!   MAC'd under the shared session key; ciphertext crosses the bus
//!   unmodified and snoopable-but-useless,
//! * [`schedule`] — the compute/transfer overlap scheduler behind
//!   Figures 7 and 15,
//! * [`ring`] — the secure ring all-reduce that extends the protocol
//!   split to N-way data-parallel gradient aggregation and weight
//!   broadcast across NPU TEEs, priced one [`Protocol`] hop at a time,
//! * [`des`] — the shared-fabric contention resource
//!   ([`des::FabricLink`]) the discrete-event cluster engine uses to
//!   arbitrate overlapping ring hops, broadcasts and boundary
//!   activations.

pub mod channel;
pub mod des;
pub mod link;
pub mod protocol;
pub mod ring;
pub mod schedule;

pub use channel::{ChannelError, DirectChannel, TransferMeta, TrustedChannel};
pub use des::{FabricGrant, FabricLink};
pub use link::{AesEngine, PcieLink};
pub use protocol::{Protocol, StagingProtocol, TransferBreakdown};
pub use ring::{AllReduceBreakdown, Interconnect, RingAllReduce};
pub use schedule::{exposed_time, overlapped_time, serialized_time, Timeline};
