//! CPU-side TEE security integration tests: physical attacks on the
//! simulated DRAM while the functional engine runs real workloads.

use tee_cpu::analyzer::TenAnalyzerConfig;
use tee_cpu::{AdamWorkload, CpuConfig, CpuEngine, IntegrityError, TeeMode};

fn functional_cfg() -> CpuConfig {
    let mut cfg = CpuConfig::default();
    cfg.hierarchy.l1.size_bytes = 2 << 10;
    cfg.hierarchy.l2.size_bytes = 4 << 10;
    cfg.hierarchy.l3.size_bytes = 16 << 10;
    cfg.protected_lines = 1 << 14;
    cfg.functional_crypto = true;
    cfg
}

#[test]
fn sgx_mode_detects_midrun_tamper() {
    let w = AdamWorkload::from_tensor_sizes(&[8 << 10; 1]);
    let mut engine = CpuEngine::new(functional_cfg(), TeeMode::Sgx);
    // One clean iteration materializes ciphertext.
    let rep = engine.run_adam(&w, 2, 1);
    assert_eq!(rep.integrity_errors, 0);
    // Flip a byte in the middle of the weight region's ciphertext.
    let victim_pa = {
        let addrs = engine.mem_mut().resident_addrs();
        addrs[addrs.len() / 2]
    };
    engine.mem_mut().tamper_byte(victim_pa, 9, 0xFF);
    let rep = engine.run_adam(&w, 2, 1);
    assert!(
        rep.integrity_errors > 0,
        "tampered line must fail MAC on re-read"
    );
    assert!(matches!(
        engine.last_integrity_error(),
        Some(IntegrityError::MacMismatch { .. })
    ));
}

#[test]
fn tensortee_mode_detects_midrun_tamper() {
    let w = AdamWorkload::from_tensor_sizes(&[8 << 10; 1]);
    let mut engine = CpuEngine::new(
        functional_cfg(),
        TeeMode::TensorTee(TenAnalyzerConfig::default()),
    );
    let rep = engine.run_adam(&w, 2, 2);
    assert_eq!(
        rep.integrity_errors,
        0,
        "{:?}",
        engine.last_integrity_error()
    );
    let victim_pa = {
        let addrs = engine.mem_mut().resident_addrs();
        addrs[addrs.len() / 2]
    };
    engine.mem_mut().tamper_byte(victim_pa, 0, 0x80);
    let rep = engine.run_adam(&w, 2, 1);
    assert!(
        rep.integrity_errors > 0,
        "tensor-granularity TEE still verifies"
    );
}

#[test]
fn long_functional_run_stays_consistent() {
    // Six iterations with detection, merging, round closure and flushes:
    // every decrypted line must verify against its live VN.
    let w = AdamWorkload::from_tensor_sizes(&[4 << 10; 3]);
    let mut engine = CpuEngine::new(
        functional_cfg(),
        TeeMode::TensorTee(TenAnalyzerConfig::default()),
    );
    let rep = engine.run_adam(&w, 4, 6);
    assert_eq!(
        rep.integrity_errors,
        0,
        "VN bookkeeping diverged: {:?}",
        engine.last_integrity_error()
    );
    // Detection really happened: steady-state reads hit in.
    let last = rep.iterations.last().unwrap();
    assert!(
        last.reads.hit_in_rate() > 0.5,
        "steady-state hits: {}",
        last.reads.hit_in_rate()
    );
}

#[test]
fn non_secure_mode_has_no_crypto_protection() {
    // Sanity contrast: without TEE the tamper goes unnoticed (and data is
    // plaintext at rest) — the reason the paper needs a TEE at all.
    let w = AdamWorkload::from_tensor_sizes(&[4 << 10; 1]);
    let mut cfg = functional_cfg();
    cfg.functional_crypto = false;
    let mut engine = CpuEngine::new(cfg, TeeMode::NonSecure);
    let rep = engine.run_adam(&w, 1, 1);
    assert_eq!(rep.integrity_errors, 0);
    engine.mem_mut().tamper_byte(0, 0, 0xFF);
    let rep = engine.run_adam(&w, 1, 1);
    assert_eq!(rep.integrity_errors, 0, "no protection, no detection");
}
