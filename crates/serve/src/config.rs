//! Serving-system configuration: the NPU shape, the KV-cache HBM budget,
//! and the per-mode security profile (MAC scheme + KV transfer
//! [`Protocol`]).

use serde::Serialize;
use tee_comm::link::PcieLink;
use tee_comm::Protocol;
use tee_mem::DramConfig;
use tee_npu::{MacScheme, NpuConfig};
use tee_sim::Time;
use tee_workloads::zoo::ModelConfig;

/// Static configuration of the serving system.
#[derive(Debug, Clone, Serialize)]
pub struct ServeConfig {
    /// The NPU executing prefill and decode iterations (Table 1 shape).
    pub npu: NpuConfig,
    /// HBM bytes reserved for KV caches (what is left after weights and
    /// activations). KV exceeding this budget is offloaded to CPU DRAM
    /// and pays the mode's transfer protocol to come back.
    pub kv_hbm_bytes: u64,
}

impl ServeConfig {
    /// A serving configuration for `model` whose KV budget holds roughly
    /// `resident_requests` requests at `steady_tokens` of context — the
    /// knob that decides when KV offloading starts.
    pub fn for_model(model: &ModelConfig, resident_requests: u64, steady_tokens: u64) -> Self {
        let kv = KvSpec::of(model);
        ServeConfig {
            npu: NpuConfig::default(),
            kv_hbm_bytes: kv.bytes_per_token * steady_tokens * resident_requests,
        }
    }

    /// Replaces the NPU configuration (builder form).
    pub fn with_npu(mut self, npu: NpuConfig) -> Self {
        self.npu = npu;
        self
    }

    /// Replaces the KV HBM budget (builder form).
    pub fn with_kv_hbm_bytes(mut self, bytes: u64) -> Self {
        self.kv_hbm_bytes = bytes;
        self
    }
}

/// Per-token KV-cache footprint of a model (K and V, all layers, fp16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct KvSpec {
    /// KV bytes appended per generated/prefilled token.
    pub bytes_per_token: u64,
}

impl KvSpec {
    /// The KV footprint of `model`: `2 · layers · hidden` fp16 elements
    /// per token.
    pub fn of(model: &ModelConfig) -> Self {
        const FP16: u64 = 2;
        KvSpec {
            bytes_per_token: model.layers * 2 * model.hidden * FP16,
        }
    }
}

/// Serialized wall-clock cost of moving `bytes` of KV one way between
/// NPU HBM and CPU DRAM under `protocol`: the transfer on a Gen4 ×16
/// link, but never faster than DDR4 can absorb or source the stream.
pub fn kv_transfer_time(protocol: Protocol, bytes: u64) -> Time {
    if bytes == 0 {
        return Time::ZERO;
    }
    let link = protocol.transfer(PcieLink::gen4_x16(), bytes).total();
    let dram =
        Time::from_secs_f64(bytes as f64 / DramConfig::ddr4_2400_2ch().total_bytes_per_sec());
    link.max(dram)
}

/// One serving security mode: the NPU MAC-granularity scheme pricing
/// every prefill/decode stream plus the KV offload transfer protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SecurityProfile {
    /// MAC scheme the NPU engine runs under.
    pub mac: MacScheme,
    /// KV HBM↔DRAM transfer protocol: the one the matching training mode
    /// moves gradients and weights with (`tests/serving.rs` keeps the two
    /// tables in step).
    pub kv_protocol: Protocol,
}

impl SecurityProfile {
    /// No protection anywhere (performance reference).
    pub fn non_secure() -> Self {
        SecurityProfile {
            mac: MacScheme::None,
            kv_protocol: Protocol::Plain,
        }
    }

    /// SGX+MGX: coarse 512 B MAC blocks on the NPU (§3.2) and the staging
    /// KV path.
    pub fn sgx_mgx() -> Self {
        SecurityProfile {
            mac: MacScheme::PerBlock { granularity: 512 },
            kv_protocol: Protocol::Staged,
        }
    }

    /// TensorTEE: tensor-granularity delayed MAC (§4.3) and the direct KV
    /// path (§4.4).
    pub fn tensor_tee() -> Self {
        SecurityProfile {
            mac: MacScheme::TensorDelayed,
            kv_protocol: Protocol::Direct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tee_workloads::zoo::by_name;

    #[test]
    fn kv_spec_counts_k_and_v() {
        let m = by_name("GPT2-M").unwrap();
        let kv = KvSpec::of(&m);
        assert_eq!(kv.bytes_per_token, m.layers * 2 * m.hidden * 2);
    }

    #[test]
    fn staged_kv_transfer_costs_more_than_direct() {
        let bytes = 64 << 20;
        let staged = kv_transfer_time(Protocol::Staged, bytes);
        let direct = kv_transfer_time(Protocol::Direct, bytes);
        let plain = kv_transfer_time(Protocol::Plain, bytes);
        assert!(staged > direct, "{staged} vs {direct}");
        assert!(direct >= plain);
        assert_eq!(kv_transfer_time(Protocol::Plain, 0), Time::ZERO);
    }

    #[test]
    fn profiles_cover_the_three_modes() {
        let all = [
            SecurityProfile::non_secure(),
            SecurityProfile::sgx_mgx(),
            SecurityProfile::tensor_tee(),
        ];
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].mac, MacScheme::PerBlock { granularity: 512 });
        assert_eq!(all[2].kv_protocol, Protocol::Direct);
        assert!(matches!(all[2].mac, MacScheme::TensorDelayed));
    }

    #[test]
    fn config_budget_scales_with_residency() {
        let m = by_name("GPT2-M").unwrap();
        let small = ServeConfig::for_model(&m, 2, 512);
        let large = ServeConfig::for_model(&m, 8, 512);
        assert_eq!(large.kv_hbm_bytes, 4 * small.kv_hbm_bytes);
    }
}
