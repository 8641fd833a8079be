//! End-to-end system configuration (Table 1), security modes, and the
//! multi-NPU cluster shape.

use serde::Serialize;
use tee_comm::{Interconnect, PcieLink, Protocol};
use tee_cpu::CpuConfig;
use tee_npu::{MacScheme, NpuConfig};
use tee_sim::Time;

/// The three configurations compared throughout §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SecureMode {
    /// No protection anywhere (performance reference).
    NonSecure,
    /// CPU with SGX-like cacheline TEE + NPU with MGX-like tensor-VN /
    /// coarse-MAC TEE; staged (re-encrypting) communication.
    SgxMgx,
    /// TensorTEE: unified tensor granularity on both sides + direct
    /// transfer.
    TensorTee,
}

impl SecureMode {
    /// Display label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SecureMode::NonSecure => "Non-Secure",
            SecureMode::SgxMgx => "SGX+MGX",
            SecureMode::TensorTee => "TensorTEE",
        }
    }

    /// The transfer protocol this mode moves tensors with — the one place
    /// a mode picks plain, staged (§3.3) or direct (§4.4) transfers.
    pub fn protocol(&self) -> Protocol {
        match self {
            SecureMode::NonSecure => Protocol::Plain,
            SecureMode::SgxMgx => Protocol::Staged,
            SecureMode::TensorTee => Protocol::Direct,
        }
    }

    /// The NPU MAC scheme this mode runs under — the one place a mode
    /// picks its MAC granularity. `SgxMgx` uses MGX-style coarse blocks
    /// of `mgx_granularity` bytes (§3.2; Table 1 uses 512 B, see
    /// [`SystemConfig::mgx_mac_granularity`]).
    pub fn mac_scheme(&self, mgx_granularity: u64) -> MacScheme {
        match self {
            SecureMode::NonSecure => MacScheme::None,
            SecureMode::SgxMgx => MacScheme::PerBlock {
                granularity: mgx_granularity,
            },
            SecureMode::TensorTee => MacScheme::TensorDelayed,
        }
    }

    /// All three, in the paper's presentation order.
    pub fn all() -> [SecureMode; 3] {
        [
            SecureMode::NonSecure,
            SecureMode::SgxMgx,
            SecureMode::TensorTee,
        ]
    }
}

/// The full-system configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SystemConfig {
    /// CPU socket (Table 1 upper half).
    pub cpu: CpuConfig,
    /// NPU (Table 1 lower half).
    pub npu: NpuConfig,
    /// CPU worker threads used for the optimizer.
    pub cpu_threads: u32,
    /// Linear down-scale applied to workloads before the cacheline-level
    /// CPU simulation (bandwidth-bound phases scale linearly; see the
    /// fidelity preamble of EXPERIMENTS.md).
    pub sim_scale: u64,
    /// Adam iterations simulated per measurement (steady state taken from
    /// the last iteration).
    pub cpu_iterations: u32,
    /// CPU↔NPU bus bandwidth in bytes per second (Table 1: PCIe 4.0 ×16,
    /// 32 GB/s). A design-space knob: the transfer protocols build their
    /// links from it.
    pub pcie_bytes_per_sec: f64,
    /// MAC-block granularity of the MGX-style baseline NPU TEE in bytes
    /// (§3.2: 512 B). A design-space knob for the `SgxMgx` mode; the
    /// other modes ignore it.
    pub mgx_mac_granularity: u64,
}

impl Default for SystemConfig {
    /// Table-1 configuration at a simulation scale suitable for the
    /// full-fidelity artifacts.
    fn default() -> Self {
        SystemConfig {
            cpu: CpuConfig::scaled_down(),
            npu: NpuConfig::default(),
            cpu_threads: 8,
            sim_scale: 16_384,
            cpu_iterations: 3,
            pcie_bytes_per_sec: PcieLink::GEN4_X16_BYTES_PER_SEC,
            mgx_mac_granularity: 512,
        }
    }
}

/// Shape of a multi-NPU data-parallel cluster: one CPU TEE driving
/// `n_npus` NPU TEEs whose gradients aggregate over a secure ring
/// all-reduce on `interconnect` (see [`tee_comm::ring`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClusterConfig {
    /// Data-parallel NPU replicas (the paper's evaluated system is
    /// `n_npus == 1`).
    pub n_npus: u32,
    /// The NPU↔NPU fabric the ring runs on.
    pub interconnect: Interconnect,
}

impl ClusterConfig {
    /// The paper's single-NPU system: a one-replica cluster reproduces
    /// [`crate::TrainingSystem`] bit-for-bit.
    pub fn single() -> Self {
        Self::of(1)
    }

    /// An `n_npus`-replica cluster on the default PCIe peer-to-peer
    /// fabric.
    pub fn of(n_npus: u32) -> Self {
        ClusterConfig {
            n_npus,
            interconnect: Interconnect::default(),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::single()
    }
}

impl SystemConfig {
    /// One direction of the CPU↔NPU bus at this configuration's
    /// bandwidth (Gen4-×16 base latency — the knob scales lanes, not
    /// silicon distance).
    pub fn pcie_link(&self) -> PcieLink {
        PcieLink::new(self.pcie_bytes_per_sec, Time::from_ns(600))
    }

    /// A configuration for quick unit tests (coarser scale, fewer
    /// iterations).
    pub fn fast_sim() -> Self {
        SystemConfig {
            sim_scale: 131_072,
            cpu_iterations: 2,
            ..Self::default()
        }
    }

    /// Renders Table 1 as markdown (printed by the `quickstart` example).
    pub fn table1_markdown(&self) -> String {
        let cpu = &self.cpu;
        let npu = &self.npu;
        format!(
            "| Component | Configuration |\n|---|---|\n\
             | CPU frequency | {:.1} GHz |\n\
             | CPU cores | {} out-of-order |\n\
             | L1 I/D | {} |\n\
             | L2 | {} |\n\
             | L3 | {} |\n\
             | CPU DRAM | DDR4-2400, {} channels |\n\
             | Metadata cache | {} |\n\
             | AES / MAC latency | {} / {} cycles |\n\
             | NPU frequency | {:.1} GHz |\n\
             | PE array | {pe}x{pe} |\n\
             | Scratchpad | {} |\n\
             | NPU DRAM | GDDR5, {}, {} |\n\
             | Comm bus | PCIe 4.0 x16 |",
            cpu.freq_ghz,
            cpu.hierarchy.cores,
            tee_sim::util::fmt_bytes(cpu.hierarchy.l1.size_bytes),
            tee_sim::util::fmt_bytes(cpu.hierarchy.l2.size_bytes),
            tee_sim::util::fmt_bytes(cpu.hierarchy.l3.size_bytes),
            cpu.dram.channels,
            tee_sim::util::fmt_bytes(cpu.metadata_cache_bytes),
            cpu.aes_latency,
            cpu.mac_latency,
            npu.freq_ghz,
            tee_sim::util::fmt_bytes(npu.scratchpad_bytes),
            tee_sim::util::fmt_bytes(npu.dram_bytes),
            tee_sim::util::fmt_bandwidth(npu.dram_bandwidth()),
            pe = npu.pe_dim,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_have_labels() {
        assert_eq!(SecureMode::all().len(), 3);
        assert_eq!(SecureMode::TensorTee.label(), "TensorTEE");
    }

    #[test]
    fn default_config_sane() {
        let c = SystemConfig::default();
        assert_eq!(c.cpu_threads, 8);
        assert!(c.sim_scale > 0);
        // The design-space knobs default to the paper's Table-1 bus and
        // §3.2 MAC block, so existing artifacts are bit-identical.
        assert_eq!(c.pcie_bytes_per_sec, PcieLink::GEN4_X16_BYTES_PER_SEC);
        assert_eq!(c.mgx_mac_granularity, 512);
        assert_eq!(
            c.pcie_link().transfer(Time::ZERO, 64 << 20),
            PcieLink::gen4_x16().transfer(Time::ZERO, 64 << 20)
        );
    }

    #[test]
    fn cluster_default_is_single_npu() {
        let c = ClusterConfig::default();
        assert_eq!(c, ClusterConfig::single());
        assert_eq!(c.n_npus, 1);
        assert_eq!(ClusterConfig::of(8).n_npus, 8);
    }

    #[test]
    fn table1_mentions_key_parts() {
        let md = SystemConfig::default().table1_markdown();
        assert!(md.contains("PCIe 4.0"));
        assert!(md.contains("GDDR5"));
        assert!(md.contains("3.5 GHz"));
    }
}
