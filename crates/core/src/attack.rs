//! Adversary & side-channel artifacts (`attack_traffic`,
//! `attack_kv_residency`, `attack_defended`; tee-attack extension).
//!
//! The rest of the registry prices the *defenses* — MAC schemes,
//! staged vs. direct KV protocols. These three artifacts price the
//! *attacks* those defenses exist for, using only what a bus-level
//! adversary can see: ciphertext sizes (wire occupancy) and timings on
//! the CPU–NPU link, plus the sizes of spilled KV objects at rest.
//!
//! Every runner records into **fresh, private probes** and derives its
//! report from the snapshots; the caller's context probe only
//! *additionally* receives a replay of the same events (the
//! `obs_utilization` pattern). Report bytes therefore cannot depend on
//! whether the context probe is recording, and nothing here touches a
//! thread pool — the artifacts are byte-identical across `--threads`.

use crate::artifact::{find, RunContext, SERVE_RATE_RPS};
use crate::experiments::{serve_profile, traced_round_robin_fleet};
use crate::obs::replay;
use crate::report::{f2, pct, Report, Table};
use tee_attack::{
    extractable_bits, instants_named, link_sessions, mutual_information_bits, size_bucket,
    KvShield, Observation, ResidencyFinding, Shaping, TrafficClassifier, MEASUREMENT_QUANTUM,
};
use tee_serve::{simulate_probed, KvSpec, ServeConfig, ServeReport, TraceConfig};
use tee_sim::probe::{SharedProbe, TraceProbe};
use tee_sim::{SplitMix64, Time};
use tee_workloads::zoo::ModelConfig;

/// The adversary's serving system for one model and trace shape: a
/// tight KV budget (~500 tokens, the scheduler tests' spill-forcing
/// idiom) keeps KV offload/fetch traffic on the link, so the adversary
/// has a channel to read. The attack artifacts and the explore attack
/// evaluator both price through it.
pub(crate) fn attack_serve_config(
    ctx: &RunContext,
    model: &ModelConfig,
    trace: &TraceConfig,
) -> ServeConfig {
    let kv = KvSpec::of(model);
    ServeConfig::for_model(model, 2, trace.steady_tokens())
        .with_kv_hbm_bytes(kv.bytes_per_token * 500)
        .with_npu(ctx.cfg.npu.clone())
}

/// The adversary's serving setup for one model: the context's Poisson
/// shape at 4x the base rate against [`attack_serve_config`].
fn attack_serve_setup(
    ctx: &RunContext,
    model: &ModelConfig,
    seed: u64,
) -> (ServeConfig, TraceConfig) {
    let mut trace = TraceConfig::poisson(ctx.serve_requests, SERVE_RATE_RPS * 4.0, seed);
    ctx.trim_serve_trace(&mut trace);
    (attack_serve_config(ctx, model, &trace), trace)
}

/// One TensorTEE serving run traced into a fresh private probe.
pub(crate) fn traced_serve(
    ctx: &RunContext,
    model: &ModelConfig,
    seed: u64,
) -> (ServeReport, TraceProbe) {
    let (cfg, trace_cfg) = attack_serve_setup(ctx, model, seed);
    let trace = trace_cfg.generate();
    let probe = SharedProbe::recording();
    let rep = simulate_probed(
        &cfg,
        model,
        &serve_profile(crate::SecureMode::TensorTee, &ctx.cfg),
        &trace,
        &probe,
    );
    let snap = probe.snapshot().expect("freshly created recording probe");
    (rep, snap)
}

/// The two seeded sub-streams the traffic adversary uses: one trace the
/// classifier trains on, a second (different arrivals, same shape) it
/// is tested on. Stream 2 is the attack sub-stream, shared with
/// `explore::eval_attack`.
pub(crate) fn attack_seeds(ctx: &RunContext) -> (u64, u64) {
    let mut rng = SplitMix64::new(ctx.seed).split(2);
    (rng.next_u64(), rng.next_u64())
}

/// Runs the `attack_traffic` artifact: for every context model, two
/// traced TensorTEE serving runs (train/test arrivals from separate
/// sub-seeds). The adversary sees only link-track wire occupancy; the
/// nearest-centroid classifier trained on the first trace must name
/// the model behind the second, and the plug-in mutual information
/// between model identity and the observed feature quantifies the
/// channel in bits.
///
/// # Panics
///
/// Panics if the `attack_traffic` artifact is missing from the
/// registry (a registration bug).
pub fn attack_traffic(ctx: &RunContext) -> Report {
    let mut report = find("attack_traffic")
        .expect("attack_traffic is registered")
        .new_report();
    let (train_seed, test_seed) = attack_seeds(ctx);

    // The classifier bins each transfer into a half-octave size class:
    // coarse enough that two traces of the same model land in the same
    // bins, fine enough that models with different per-token KV sizes
    // do not. The per-transfer entropy column keeps the adversary's
    // full measurement resolution.
    let classes = |view: &Observation| -> Vec<u64> {
        view.events()
            .iter()
            .map(|e| size_bucket(e.duration.as_ps()))
            .collect()
    };
    let mut snaps: Vec<TraceProbe> = Vec::new();
    let mut labeled: Vec<(&str, Vec<u64>)> = Vec::new();
    let mut held_out: Vec<(&str, Vec<u64>)> = Vec::new();
    let mut fine_bits: Vec<f64> = Vec::new();
    for model in &ctx.models {
        let (_, train_snap) = traced_serve(ctx, model, train_seed);
        let (_, test_snap) = traced_serve(ctx, model, test_seed);
        let test_view = Observation::from_trace(&test_snap);
        labeled.push((model.name, classes(&Observation::from_trace(&train_snap))));
        fine_bits.push(extractable_bits(&test_view.features(MEASUREMENT_QUANTUM)));
        held_out.push((model.name, classes(&test_view)));
        snaps.push(train_snap);
        snaps.push(test_snap);
    }

    let clf = TrafficClassifier::train(&labeled);
    let mut correct = 0u32;
    let mut mi_samples: Vec<(u64, u64)> = Vec::new();
    let mut table = Table::new([
        "model",
        "train transfers",
        "test transfers",
        "bits/transfer",
        "classified as",
    ])
    .captioned(
        "traffic analysis — wire occupancy only, TensorTEE profile, nearest-centroid \
         classifier trained on a disjoint trace",
    );
    for (i, (name, features)) in held_out.iter().enumerate() {
        let guess = clf.classify(features).unwrap_or("-");
        if guess == *name {
            correct += 1;
        }
        mi_samples.extend(features.iter().map(|&f| (i as u64, f)));
        table.row([
            (*name).to_owned(),
            labeled[i].1.len().to_string(),
            features.len().to_string(),
            f2(fine_bits[i]),
            guess.to_owned(),
        ]);
    }
    report.table(table);

    let accuracy = f64::from(correct) / (held_out.len().max(1)) as f64;
    let mi = mutual_information_bits(&mi_samples);
    report.metric("models", held_out.len() as f64);
    report.metric("classifier_accuracy", accuracy);
    report.metric("mutual_information_bits", mi);
    report.metric("link_transfers_observed", mi_samples.len() as f64);
    report.note(format!(
        "the classifier names the model behind {correct}/{} held-out traces from ciphertext \
         sizes alone ({} of at most {} bits of model identity per observed transfer); \
         encryption hides contents, not shape.",
        held_out.len(),
        f2(mi),
        f2((held_out.len().max(1) as f64).log2()),
    ));
    for snap in &snaps {
        replay(snap, &ctx.probe);
    }
    report
}

/// The per-turn spilled-KV objects of a session trace: what lands at
/// rest in CPU DRAM when each turn's KV is offloaded — ground-truth
/// session id paired with the object size a storage-level adversary
/// observes (`bytes_per_token x turn tokens`).
pub(crate) fn spilled_objects(
    model: &ModelConfig,
    trace: &[tee_serve::SessionRequest],
) -> (Vec<u64>, Vec<u64>) {
    let kv = KvSpec::of(model);
    let sessions = trace.iter().map(|r| r.session).collect();
    let sizes = trace
        .iter()
        .map(|r| kv.bytes_per_token * (r.request.prompt_tokens + r.request.output_tokens))
        .collect();
    (sessions, sizes)
}

/// Scores the KV-residency adversary against one shield setting.
fn residency_under(shield: KvShield, sessions: &[u64], sizes: &[u64]) -> ResidencyFinding {
    let observed = shield.observed_sizes(sizes);
    let samples: Vec<(u64, u64)> = sessions.iter().copied().zip(observed).collect();
    link_sessions(&samples)
}

/// Runs the `attack_kv_residency` artifact: one traced round-robin
/// fleet run (round-robin forces KV handoffs), whose spill/fetch
/// instants and `kv_handoff` wire spans are the adversary's
/// observation surface. The residency adversary clusters the spilled
/// objects by size and is scored in bits of mutual information against
/// the true session ids — with plain spill and with shielded-at-rest
/// KV (re-encrypt on spill, verify on fetch), whose re-encryption bill
/// is priced against the same run.
///
/// # Panics
///
/// Panics if the `attack_kv_residency` artifact is missing from the
/// registry (a registration bug).
pub fn attack_kv_residency(ctx: &RunContext) -> Report {
    let mut report = find("attack_kv_residency")
        .expect("attack_kv_residency is registered")
        .new_report();

    let (model, trace, rep, snap) = traced_round_robin_fleet(ctx);

    let handoffs = Observation::from_trace(&snap);
    let fetches = instants_named(&snap, "CPU", "kv_fetch");
    let (sessions, sizes) = spilled_objects(&model, &trace);
    let mut distinct = sessions.clone();
    distinct.sort_unstable();
    distinct.dedup();

    let mut table = Table::new([
        "KV at rest",
        "objects",
        "size clusters",
        "sessions",
        "linkage bits",
        "re-encrypt overhead",
    ])
    .captioned(format!(
        "KV-residency adversary — {} spilled objects, {} sessions, round-robin fleet \
         ({} handoffs on the wire, {} fetches)",
        sizes.len(),
        distinct.len(),
        handoffs.events().len(),
        fetches.len(),
    ));
    let mut findings: Vec<(KvShield, ResidencyFinding, Time)> = Vec::new();
    for &shield in &KvShield::all() {
        let finding = residency_under(shield, &sessions, &sizes);
        let overhead = shield.overhead(rep.migrated_bytes, rep.migrated_bytes);
        table.row([
            shield.label().to_owned(),
            finding.observed.to_string(),
            finding.clusters.to_string(),
            finding.sessions.to_string(),
            f2(finding.bits),
            format!(
                "{overhead} ({})",
                pct(overhead.as_secs_f64() / rep.makespan.as_secs_f64().max(1e-12))
            ),
        ]);
        findings.push((shield, finding, overhead));
    }
    report.table(table);

    let plain = &findings[0].1;
    let shielded = &findings[1].1;
    let overhead = findings[1].2;
    report.metric("handoff_wire_spans", handoffs.events().len() as f64);
    report.metric("kv_fetch_instants", fetches.len() as f64);
    report.metric("fleet_migrations", rep.migrations as f64);
    report.metric("residency_bits_plain", plain.bits);
    report.metric("residency_bits_shielded", shielded.bits);
    report.metric("shield_overhead_ms", overhead.as_ms_f64());
    report.metric(
        "shield_overhead_frac",
        overhead.as_secs_f64() / rep.makespan.as_secs_f64().max(1e-12),
    );
    report.note(format!(
        "plain spill leaks {} bits linking spilled KV back to sessions; padding every object \
         to the shield slot collapses the size channel to {} bits for a {} re-encrypt/verify \
         bill ({} of the makespan).",
        f2(plain.bits),
        f2(shielded.bits),
        overhead,
        pct(overhead.as_secs_f64() / rep.makespan.as_secs_f64().max(1e-12)),
    ));
    replay(&snap, &ctx.probe);
    report
}

/// Runs the `attack_defended` artifact: one traced serving run under
/// every traffic-shaping level (unshaped / padded / constant-rate) and
/// one traced fleet run under both at-rest shields, each row pairing
/// the residual leakage with the defense's price — padding time and
/// the goodput it costs, re-encryption time and its share of the
/// makespan. The leakage must order strictly: unshaped > padded >
/// constant-rate (exactly zero), and plain spill > shielded at rest.
///
/// # Panics
///
/// Panics if the `attack_defended` artifact is missing from the
/// registry (a registration bug).
pub fn attack_defended(ctx: &RunContext) -> Report {
    let mut report = find("attack_defended")
        .expect("attack_defended is registered")
        .new_report();
    let model = ctx.primary_model();
    let (_, test_seed) = attack_seeds(ctx);

    // --- Traffic shaping: one serving run, three adversary views ----
    let (rep, snap) = traced_serve(ctx, &model, test_seed);
    let view = Observation::from_trace(&snap);
    let mut shaping_table = Table::new([
        "shaping",
        "transfers",
        "bits/transfer",
        "padding",
        "goodput",
    ])
    .captioned(format!(
        "traffic shaping — {} model, TensorTEE profile, {} link transfers observed",
        model.name,
        view.events().len(),
    ));
    let mut traffic_bits: Vec<(Shaping, f64, Time)> = Vec::new();
    for &shaping in &Shaping::all() {
        let shaped = shaping.apply(&view);
        let bits = extractable_bits(&shaped.observation.features(MEASUREMENT_QUANTUM));
        let priced = rep.makespan + shaped.padding;
        let goodput =
            rep.goodput_tps() * rep.makespan.as_secs_f64() / priced.as_secs_f64().max(1e-12);
        shaping_table.row([
            shaping.label().to_owned(),
            shaped.observation.events().len().to_string(),
            f2(bits),
            shaped.padding.to_string(),
            format!("{goodput:.0} tok/s"),
        ]);
        traffic_bits.push((shaping, bits, shaped.padding));
    }
    report.table(shaping_table);

    // --- At-rest shielding: one fleet run, two adversary views ------
    let (fleet_model, trace, fleet_rep, fleet_snap) = traced_round_robin_fleet(ctx);
    let (sessions, sizes) = spilled_objects(&fleet_model, &trace);
    let mut shield_table = Table::new([
        "KV at rest",
        "linkage bits",
        "re-encrypt overhead",
        "share of makespan",
    ])
    .captioned("shielded-at-rest spilled KV — same fleet run as attack_kv_residency");
    let mut residency: Vec<(KvShield, f64, Time)> = Vec::new();
    for &shield in &KvShield::all() {
        let finding = residency_under(shield, &sessions, &sizes);
        let overhead = shield.overhead(fleet_rep.migrated_bytes, fleet_rep.migrated_bytes);
        shield_table.row([
            shield.label().to_owned(),
            f2(finding.bits),
            overhead.to_string(),
            pct(overhead.as_secs_f64() / fleet_rep.makespan.as_secs_f64().max(1e-12)),
        ]);
        residency.push((shield, finding.bits, overhead));
    }
    report.table(shield_table);

    for (shaping, bits, padding) in &traffic_bits {
        let key = shaping.label().replace('-', "_");
        report.metric(format!("traffic_bits_{key}"), *bits);
        report.metric(format!("padding_ms_{key}"), padding.as_ms_f64());
    }
    for (shield, bits, overhead) in &residency {
        let key = shield.label().replace('-', "_");
        report.metric(format!("residency_bits_{key}"), *bits);
        report.metric(format!("shield_overhead_ms_{key}"), overhead.as_ms_f64());
    }
    report.note(format!(
        "each defense buys leakage down for a priced cost: padding takes the wire from {} to \
         {} bits per transfer, constant-rate to exactly {}; shielding spilled KV collapses \
         session linkage from {} to {} bits for {} of re-encryption.",
        f2(traffic_bits[0].1),
        f2(traffic_bits[1].1),
        f2(traffic_bits[2].1),
        f2(residency[0].1),
        f2(residency[1].1),
        residency[1].2,
    ));
    replay(&snap, &ctx.probe);
    replay(&fleet_snap, &ctx.probe);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_adversary_beats_chance_on_the_fast_zoo() {
        let ctx = RunContext::fast();
        let report = attack_traffic(&ctx);
        let accuracy = report.metric_value("classifier_accuracy").unwrap();
        let chance = 1.0 / report.metric_value("models").unwrap();
        assert!(
            accuracy > chance,
            "classifier accuracy {accuracy} should beat chance {chance}"
        );
        assert!(report.metric_value("mutual_information_bits").unwrap() >= 0.0);
    }

    #[test]
    fn residency_adversary_is_blinded_by_the_shield() {
        let ctx = RunContext::fast();
        let report = attack_kv_residency(&ctx);
        let plain = report.metric_value("residency_bits_plain").unwrap();
        let shielded = report.metric_value("residency_bits_shielded").unwrap();
        assert!(plain > shielded, "plain {plain} vs shielded {shielded}");
        assert!(shielded.abs() < 1e-9, "shielded leaks {shielded} bits");
        assert!(report.metric_value("fleet_migrations").unwrap() > 0.0);
        assert!(report.metric_value("shield_overhead_ms").unwrap() > 0.0);
    }

    #[test]
    fn defended_report_orders_leakage_strictly() {
        let ctx = RunContext::fast();
        let report = attack_defended(&ctx);
        let unshaped = report.metric_value("traffic_bits_unshaped").unwrap();
        let padded = report.metric_value("traffic_bits_padded").unwrap();
        let flat = report.metric_value("traffic_bits_constant_rate").unwrap();
        assert!(
            unshaped > padded && padded > flat,
            "shaping must strictly reduce leakage: {unshaped} > {padded} > {flat}"
        );
        assert_eq!(flat, 0.0, "constant-rate must leak exactly nothing");
        assert!(report.metric_value("padding_ms_constant_rate").unwrap() > 0.0);
        let plain = report.metric_value("residency_bits_plain_spill").unwrap();
        let shielded = report.metric_value("residency_bits_shielded").unwrap();
        assert!(plain > shielded && shielded.abs() < 1e-9);
    }
}
