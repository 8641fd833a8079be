//! Artifact-registry invariants: ids are unique and complete, every
//! artifact runs under the reduced (`--fast`) context, markdown is
//! non-empty, JSON is well-formed, and two runs of the same artifact are
//! byte-identical (the whole simulator is deterministic — the `tensortee`
//! CLI relies on it).

use tensortee::artifact::{find, registry, RunContext};
use tensortee::json::{is_well_formed, Json};

#[test]
fn ids_unique_and_registry_complete() {
    let ids: Vec<&str> = registry().iter().map(|a| a.id).collect();
    assert!(ids.len() >= 28, "registry shrank: {ids:?}");
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate artifact ids: {ids:?}");
    for a in registry() {
        let found = find(a.id).expect("find() round-trips every id");
        assert_eq!(found.id, a.id);
        assert!(!a.title.is_empty() && !a.paper_anchor.is_empty() && !a.claim.is_empty());
    }
}

#[test]
fn run_all_json_array_is_well_formed() {
    // The `tensortee run --all --fast --json` shape: an array with one
    // object per registered artifact (uses the two cheap, pure-arithmetic
    // artifacts to keep this test about the *array* shape).
    let ctx = RunContext::fast();
    let reports: Vec<Json> = ["tab2", "sec65"]
        .iter()
        .map(|id| find(id).unwrap().run(&ctx).to_json())
        .collect();
    let array = Json::Array(reports).to_string();
    assert!(is_well_formed(&array), "{array}");
    assert!(array.starts_with('[') && array.ends_with(']'));
}

/// Runs `id` twice under the fast context and checks the shared
/// invariants: non-empty markdown carrying the artifact title, well-formed
/// JSON carrying the id, and byte-identical repeat runs. Each run gets its
/// own fresh context: on a shared one the second run would read the
/// first one's simulations back from the context memo instead of
/// recomputing them.
fn assert_artifact_invariants(id: &str) {
    let artifact = find(id).unwrap_or_else(|| panic!("{id} not registered"));
    let first = artifact.run(&RunContext::fast());
    let second = artifact.run(&RunContext::fast());

    let md = first.to_markdown();
    assert!(!md.trim().is_empty(), "{id}: empty markdown");
    assert!(
        md.contains(artifact.title),
        "{id}: title missing from\n{md}"
    );
    assert_eq!(
        md,
        second.to_markdown(),
        "{id}: markdown differs between runs"
    );

    let json = first.to_json().to_string();
    assert!(is_well_formed(&json), "{id}: malformed JSON\n{json}");
    assert!(json.contains(&format!("\"id\":\"{id}\"")), "{id}: {json}");
    assert_eq!(
        json,
        second.to_json().to_string(),
        "{id}: JSON differs between runs"
    );
}

// One test per artifact so `cargo test` parallelizes the expensive
// CPU-engine runs across cores.
macro_rules! artifact_invariants {
    ($($test:ident => $id:literal,)*) => {
        /// The ids that have an invariants test below.
        const COVERED: &[&str] = &[$($id),*];

        $(
            #[test]
            fn $test() {
                assert_artifact_invariants($id);
            }
        )*
    };
}

#[test]
fn every_registered_artifact_has_an_invariants_test() {
    for a in registry() {
        assert!(
            COVERED.contains(&a.id),
            "{} has no artifact_invariants! entry",
            a.id
        );
    }
}

artifact_invariants! {
    fig03_fast_and_deterministic => "fig03",
    fig04_fast_and_deterministic => "fig04",
    fig05_fast_and_deterministic => "fig05",
    fig15_fast_and_deterministic => "fig15",
    fig16_fast_and_deterministic => "fig16",
    fig17_fast_and_deterministic => "fig17",
    fig18_fast_and_deterministic => "fig18",
    fig19_fast_and_deterministic => "fig19",
    fig20_fast_and_deterministic => "fig20",
    fig21_fast_and_deterministic => "fig21",
    tab2_fast_and_deterministic => "tab2",
    sec62_fast_and_deterministic => "sec62",
    sec65_fast_and_deterministic => "sec65",
    scaling_strong_fast_and_deterministic => "scaling_strong",
    des_parity_fast_and_deterministic => "des_parity",
    des_straggler_fast_and_deterministic => "des_straggler",
    des_pipeline_fast_and_deterministic => "des_pipeline",
    ablations_fast_and_deterministic => "ablations",
    serve_latency_fast_and_deterministic => "serve_latency",
    serve_sweep_fast_and_deterministic => "serve_sweep",
    fleet_latency_fast_and_deterministic => "fleet_latency",
    fleet_handoff_fast_and_deterministic => "fleet_handoff",
    obs_utilization_fast_and_deterministic => "obs_utilization",
    explore_pareto_fast_and_deterministic => "explore_pareto",
    explore_sensitivity_fast_and_deterministic => "explore_sensitivity",
    attack_traffic_fast_and_deterministic => "attack_traffic",
    attack_kv_residency_fast_and_deterministic => "attack_kv_residency",
    attack_defended_fast_and_deterministic => "attack_defended",
}
