//! Observability invariants: tracing must never perturb results, and the
//! exported traces must be structurally sound.
//!
//! The load-bearing test here is [`every_artifact_is_byte_identical_under_tracing`]:
//! it runs the complete registry twice — once with the no-op probe and once
//! recording — and demands byte-identical report JSON and markdown. Probes
//! observe [`tee_sim::Time`]; they never advance it.

use proptest::collection::vec;
use proptest::prelude::*;
use tee_sim::probe::{ProbeEvent, SharedProbe};
use tee_sim::StatSet;
use tensortee::artifact::{find, registry, RunContext};
use tensortee::obs::chrome_trace;

/// Runs `id` under a fresh fast context with a recording probe and returns
/// the snapshot of everything it emitted.
fn record(id: &str) -> tee_sim::probe::TraceProbe {
    let probe = SharedProbe::recording();
    let ctx = RunContext::fast().with_probe(probe.clone());
    find(id).expect("known artifact").run(&ctx);
    probe.snapshot().expect("recording probe has a snapshot")
}

#[test]
fn every_artifact_is_byte_identical_under_tracing() {
    for artifact in registry() {
        let plain = artifact.run(&RunContext::fast());
        let probe = SharedProbe::recording();
        let traced = artifact.run(&RunContext::fast().with_probe(probe.clone()));
        assert_eq!(
            plain.to_json().to_string(),
            traced.to_json().to_string(),
            "{}: tracing changed the report JSON",
            artifact.id
        );
        assert_eq!(
            plain.to_markdown(),
            traced.to_markdown(),
            "{}: tracing changed the report markdown",
            artifact.id
        );
    }
}

#[test]
fn traced_fleet_latency_names_the_required_tracks() {
    // Acceptance bar: a fleet trace distinguishes at least four tracks —
    // compute (NPU*), host (CPU), interconnect (link), and routing.
    let snap = record("fleet_latency");
    let tracks: std::collections::BTreeSet<&str> =
        snap.events().iter().map(ProbeEvent::track).collect();
    for required in ["router", "CPU", "link"] {
        assert!(tracks.contains(required), "missing {required}: {tracks:?}");
    }
    assert!(
        tracks.iter().any(|t| t.starts_with("NPU")),
        "no NPU track: {tracks:?}"
    );
    assert!(tracks.len() >= 4, "fewer than 4 tracks: {tracks:?}");
}

#[test]
fn chrome_export_is_well_formed_with_sane_timestamps() {
    let snap = record("des_parity");
    assert!(!snap.events().is_empty(), "des_parity recorded nothing");
    let json = chrome_trace(&snap).to_string();
    assert!(
        tensortee::json::is_well_formed(&json),
        "chrome trace not well-formed: {json}"
    );
    assert!(json.contains("\"traceEvents\""), "{json}");
    // Every span is non-negative and properly ordered; Time is unsigned so
    // negativity is impossible by construction, but end >= start is not.
    for ev in snap.events() {
        if let ProbeEvent::Span { start, end, .. } = ev {
            assert!(end >= start, "span ends before it starts: {ev:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::ci())]
    /// Merging per-shard counter sets is order-independent: any
    /// partition of a bump sequence, merged in any order, yields the same
    /// totals as applying the sequence to one set.
    #[test]
    fn metrics_merge_is_order_independent(
        ops in vec((0usize..6, 1u64..1000), 1..200),
        shards in 1usize..8,
        shuffle_seed in any::<u64>(),
    ) {
        let names = ["des.ticks", "des.sends", "link.grants",
                     "serve.iterations", "fleet.dispatched", "train.steps"];
        let mut reference = StatSet::default();
        let mut parts: Vec<StatSet> = (0..shards).map(|_| StatSet::default()).collect();
        for (i, &(name, delta)) in ops.iter().enumerate() {
            reference.add(names[name], delta);
            parts[i % shards].add(names[name], delta);
        }
        let mut order: Vec<usize> = (0..shards).collect();
        tee_sim::SplitMix64::new(shuffle_seed).shuffle(&mut order);
        let mut merged = StatSet::default();
        for &s in &order {
            merged.merge(&parts[s]);
        }
        let lhs: Vec<(String, u64)> =
            merged.iter().map(|(k, v)| (k.to_string(), v)).collect();
        let rhs: Vec<(String, u64)> =
            reference.iter().map(|(k, v)| (k.to_string(), v)).collect();
        prop_assert_eq!(lhs, rhs);
    }
}
