//! Property-based tests for the NPU simulator.

use proptest::collection::vec;
use proptest::prelude::*;
use tee_crypto::Key;
use tee_npu::config::NpuConfig;
use tee_npu::engine::{Layer, NpuEngine};
use tee_npu::mac::MacScheme;
use tee_npu::memory::NpuMemory;
use tee_npu::pipeline::simulate_stream;
use tee_npu::verify::PoisonTracker;
use tee_sim::Time;

proptest! {
    // Shared CI configuration: deterministic per-test seeds, bounded case
    // count, both overridable via PROPTEST_CASES / PROPTEST_RNG_SEED when
    // replaying a regression (see proptest-regressions/README.md).
    #![proptest_config(ProptestConfig::ci())]
    /// Tensor round trips for arbitrary contents and sizes.
    #[test]
    fn npu_memory_round_trip(seed in any::<u64>(), data in vec(any::<u8>(), 1..2048)) {
        let mut m = NpuMemory::new(Key::from_seed(seed));
        m.write_tensor(0x1000, &data);
        let back = m.read_tensor(0x1000).unwrap();
        prop_assert_eq!(&back[..data.len()], &data[..]);
    }

    /// Any single-byte tamper anywhere in a tensor is detected.
    #[test]
    fn npu_memory_tamper_detected(data in vec(any::<u8>(), 64..1024),
                                  byte in any::<proptest::sample::Index>(),
                                  flip in 1u8..=255) {
        let mut m = NpuMemory::new(Key::from_seed(7));
        m.write_tensor(0, &data);
        let lines = data.len().div_ceil(64);
        let victim = byte.index(lines * 64);
        m.gddr_mut().tamper_byte((victim as u64 / 64) * 64, victim % 64, flip);
        prop_assert!(m.read_tensor(0).is_err());
    }

    /// Export/import between same-key enclaves preserves content; any
    /// in-flight line corruption is caught by the receiver.
    #[test]
    fn transfer_integrity(seed in any::<u64>(), data in vec(any::<u8>(), 64..512),
                          corrupt in proptest::option::of(any::<proptest::sample::Index>())) {
        let key = Key::from_seed(seed);
        let mut a = NpuMemory::new(key);
        let mut b = NpuMemory::new(key);
        a.write_tensor(0x2000, &data);
        let (meta, mut lines) = a.export_ciphertext(0x2000);
        if let Some(idx) = corrupt {
            let l = idx.index(lines.len());
            lines[l][0] ^= 1;
        }
        b.import_ciphertext(meta, &lines);
        match corrupt {
            None => prop_assert!(b.read_tensor(0x2000).is_ok()),
            Some(_) => prop_assert!(b.read_tensor(0x2000).is_err()),
        }
    }

    /// The stream pipeline is monotone in bytes: more data never finishes
    /// earlier, for every scheme.
    #[test]
    fn pipeline_monotone_in_bytes(kb in 1u64..64) {
        let cfg = NpuConfig::default();
        for scheme in [
            MacScheme::None,
            MacScheme::PerBlock { granularity: 512 },
            MacScheme::TensorDelayed,
        ] {
            let small = simulate_stream(&cfg, scheme, kb << 10, Time::ZERO);
            let large = simulate_stream(&cfg, scheme, (kb + 1) << 10, Time::ZERO);
            prop_assert!(large.total >= small.total, "{scheme:?}");
        }
    }

    /// Protection never makes a layer run *faster* than non-secure.
    #[test]
    fn protection_never_negative_cost(macs in 1u64..(1 << 30), kb in 1u64..512) {
        let cfg = NpuConfig::default();
        let layer = Layer { macs, in_bytes: kb << 10, w_bytes: 0, out_bytes: 1 << 10 };
        let plain = NpuEngine::new(cfg.clone(), MacScheme::None).run(&[layer]).total;
        for scheme in [
            MacScheme::PerBlock { granularity: 64 },
            MacScheme::PerBlock { granularity: 4096 },
            MacScheme::TensorDelayed,
        ] {
            let secure = NpuEngine::new(cfg.clone(), scheme).run(&[layer]).total;
            prop_assert!(secure >= plain, "{scheme:?}");
        }
    }

    /// Poison propagation is transitive through arbitrary DAGs.
    #[test]
    fn poison_transitive(edges in vec((0u64..16, 0u64..16), 1..64), src in 0u64..16) {
        let mut p = PoisonTracker::new();
        p.load_unverified(src);
        let mut tainted: std::collections::HashSet<u64> = [src].into();
        for &(from, to) in &edges {
            if from == to {
                continue;
            }
            p.compute(&[from], to);
            if tainted.contains(&from) {
                tainted.insert(to);
            } else {
                tainted.remove(&to);
            }
        }
        for t in 0..16 {
            prop_assert_eq!(p.is_poisoned(t), tainted.contains(&t), "tensor {}", t);
        }
    }
}
