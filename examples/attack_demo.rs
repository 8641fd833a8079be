//! Attack demo: mounts the threat-model attacks (§2.4) against the
//! functional simulators and shows each one being detected.
//!
//! 1. Bus snooping — the adversary sees only ciphertext.
//! 2. Ciphertext tampering — caught by the (tensor) MAC.
//! 3. Replay of stale data — caught by the VN / Merkle tree.
//! 4. Tampered NPU tensor — poison bit blocks the communication barrier.
//! 5. Forged trusted-channel metadata — rejected by the channel MAC.
//! 6. Evil enclave image — fails attestation.
//! 7. Traffic analysis — encryption hides contents, not shape: the
//!    wire still leaks bits (tee-attack), until shaping erases them.
//!
//! ```sh
//! cargo run --release --example attack_demo
//! ```

use tee_comm::channel::TransferMeta;
use tee_crypto::Key;
use tee_npu::verify::PoisonTracker;
use tee_npu::NpuMemory;
use tensortee::SecureSession;

fn main() {
    println!("TensorTEE attack demo — every attack below must be detected.\n");

    // Establish the CPU/NPU session (attestation + Diffie–Hellman).
    let session = SecureSession::establish(Key::from_seed(0xD00D), b"cpu image", b"npu image", 7)
        .expect("attestation succeeds for genuine enclaves");
    println!("[setup] mutual attestation + key exchange complete");

    let mut npu = NpuMemory::new(session.key());
    let secret: Vec<u8> = (0..4096u32).map(|i| (i * 2654435761) as u8).collect();
    npu.write_tensor(0x10000, &secret);

    // 1. Bus snooping.
    let snooped = npu.gddr_mut().snoop(0x10000);
    assert_ne!(&snooped[..], &secret[..64], "plaintext must not leak");
    println!("[1] bus snoop sees ciphertext only            ... OK");

    // 2. Tampering.
    npu.gddr_mut().tamper_byte(0x10000 + 512, 3, 0x40);
    let err = npu.read_tensor(0x10000).expect_err("tamper must be caught");
    println!("[2] single-bit tamper detected ({err})    ... OK");
    // Restore.
    npu.gddr_mut().tamper_byte(0x10000 + 512, 3, 0x40);
    npu.read_tensor(0x10000).expect("restored tensor verifies");

    // 3. Replay.
    let stale: Vec<[u8; 64]> = (0..64)
        .map(|l| npu.gddr_mut().capture(0x10000 + l * 64))
        .collect();
    let fresh: Vec<u8> = secret.iter().map(|b| b.wrapping_add(1)).collect();
    npu.write_tensor(0x10000, &fresh);
    for (l, line) in stale.iter().enumerate() {
        npu.gddr_mut().replay(0x10000 + (l as u64) * 64, *line);
    }
    let err = npu.read_tensor(0x10000).expect_err("replay must be caught");
    println!("[3] stale-data replay detected ({err})    ... OK");

    // 4. Delayed verification + poison barrier.
    let mut clean = NpuMemory::new(session.key());
    clean.write_tensor(0x20000, &secret);
    clean.gddr_mut().tamper_byte(0x20000, 0, 0xFF);
    let mut poison = PoisonTracker::new();
    // An untampered tensor clears its poison bit once verified.
    poison.load_unverified(0x10000);
    poison.verification_passed(0x10000);
    assert!(poison.barrier(&[0x10000]).is_ok(), "verified tensor passes");
    let (data, verdict) = clean.read_tensor_deferred(0x20000);
    poison.load_unverified(0x20000);
    // Compute proceeds on unverified data (that is the point of delayed
    // verification) and the taint propagates to the output tensor.
    let _ = data;
    poison.compute(&[0x20000], 0x30000);
    assert!(poison.barrier(&[0x30000]).is_err(), "barrier must block");
    match verdict {
        Ok(()) => unreachable!("tampered tensor cannot verify"),
        Err(e) => poison.verification_failed(e.base),
    }
    poison.compute(&[0x20000], 0x30000); // taint propagates from failure
    let blocked = poison.barrier(&[0x30000]).expect_err("abort before comm");
    println!("[4] poisoned tensor blocked at barrier ({blocked}) ... OK");

    // 5. Forged metadata on the trusted channel.
    let meta = TransferMeta {
        base: 0x10000,
        bytes: 4096,
        vn: 2,
        mac: tee_crypto::MacTag::from_raw(0xABCD),
    };
    let mut sealed = session.cpu_channel().seal(&meta, 0);
    sealed.tamper(20, 0x01); // try to lower the VN in flight
    let err = session
        .npu_channel()
        .open(&sealed, 0)
        .expect_err("forged metadata must be rejected");
    println!("[5] forged trusted-channel packet rejected ({err}) ... OK");

    // 6. Evil enclave fails attestation.
    let cpu_ok = tee_crypto::EnclaveIdentity::measure(b"cpu image", Key::from_seed(0xD00D));
    let evil = tee_crypto::EnclaveIdentity::measure(b"EVIL image", Key::from_seed(0xD00D));
    let report = evil.report(99);
    let err = report
        .verify(&cpu_ok.measurement(), 99, Key::from_seed(0xD00D))
        .expect_err("wrong measurement must fail");
    println!("[6] evil enclave image fails attestation ({err}) ... OK");

    // 7. Traffic analysis: the one attack the crypto above does NOT
    // stop. A serving run under full TensorTEE protection still shows
    // its shape on the wire; constant-rate shaping (priced as padding
    // time) is what actually erases it.
    let model = tee_workloads::zoo::by_name("GPT2-M").expect("Table-2 model");
    let cfg = tee_serve::ServeConfig::for_model(&model, 4, 640);
    let trace = tee_serve::TraceConfig::poisson(12, 16.0, 42).generate();
    let probe = tee_sim::probe::SharedProbe::recording();
    tee_serve::simulate_probed(
        &cfg,
        &model,
        &tee_serve::SecurityProfile::tensor_tee(),
        &trace,
        &probe,
    );
    let view = tee_attack::Observation::from_trace(&probe.snapshot().expect("recording"));
    let raw = tee_attack::extractable_bits(&view.features(tee_attack::MEASUREMENT_QUANTUM));
    let shaped = tee_attack::Shaping::ConstantRate.apply(&view);
    let flat =
        tee_attack::extractable_bits(&shaped.observation.features(tee_attack::MEASUREMENT_QUANTUM));
    assert!(raw > 0.0 && flat == 0.0, "shaping must erase the channel");
    println!(
        "[7] wire shape leaks {raw:.2} bits/transfer despite encryption; \
         constant-rate shaping -> {flat:.2} bits for {} padding ... OK",
        shaped.padding
    );

    println!("\nAll attacks detected or priced. The enclave boundary held.");
}
