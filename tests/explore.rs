//! Design-space exploration integration suite (tee-explore + the
//! `explore_pareto` / `explore_sensitivity` artifacts).
//!
//! The load-bearing invariants:
//!
//! * **thread-count invariance** — the same context produces
//!   byte-identical reports for 1 vs. 4 worker threads (the CLI's
//!   `--threads` promise),
//! * **frontier soundness on real evaluations** — no frontier point is
//!   dominated by any sampled point, and every mode either appears on
//!   the frontier or the report says why it never does (the acceptance
//!   shape of the artifact),
//! * **every scenario prices** — train, cluster, serve, des, fleet and
//!   attack sweeps all run under the reduced context and stay
//!   deterministic.

use tee_explore::dominates;
use tee_sim::probe::SharedProbe;
use tee_workloads::zoo::{by_name, ModelConfig};
use tensortee::artifact::{find, RunContext};
use tensortee::explore::{
    explore_pareto_for, explore_sensitivity_for, run_scenario, ExploreRun, Scenario, SENSES,
};
use tensortee::SecureMode;

/// A thin context so the whole suite stays in test-suite time: one small
/// model, a handful of points.
fn thin() -> RunContext {
    thin_with(10)
}

/// [`thin`] with a `points` budget. Every call is a fresh context with an
/// empty memo, so a repeat run built from it recomputes everything.
fn thin_with(points: u32) -> RunContext {
    let mut ctx = RunContext::fast();
    ctx.models.truncate(1); // GPT
    ctx.explore_points = points;
    ctx
}

/// Every evaluation's mode and objective vector, point-major.
fn objectives(run: &ExploreRun) -> Vec<(SecureMode, Vec<f64>)> {
    run.flat()
        .iter()
        .map(|(_, e)| (e.mode, e.objectives()))
        .collect()
}

#[test]
fn reports_are_byte_identical_across_worker_thread_counts() {
    for scenario in [
        Scenario::Train,
        Scenario::Serve,
        Scenario::Des,
        Scenario::Attack,
    ] {
        let one = thin().with_worker_threads(1);
        let four = thin().with_worker_threads(4);
        let (_, report_one) = explore_pareto_for(scenario, &one);
        let (_, report_four) = explore_pareto_for(scenario, &four);
        assert_eq!(
            report_one.to_markdown(),
            report_four.to_markdown(),
            "{}: markdown differs across thread counts",
            scenario.label()
        );
        assert_eq!(
            report_one.to_json().to_string(),
            report_four.to_json().to_string(),
            "{}: JSON differs across thread counts",
            scenario.label()
        );
    }
}

#[test]
fn frontier_is_sound_against_every_sampled_evaluation() {
    let ctx = thin();
    let run = run_scenario(Scenario::Train, &ctx);
    let flat = run.flat();
    let objs: Vec<Vec<f64>> = flat.iter().map(|(_, e)| e.objectives()).collect();
    let frontier = tee_explore::pareto_frontier(&objs, &SENSES);
    assert!(!frontier.is_empty());
    for &f in &frontier {
        for other in &objs {
            assert!(
                !dominates(other, &objs[f], &SENSES),
                "frontier evaluation {f} is dominated"
            );
        }
    }
}

#[test]
fn every_mode_is_on_the_frontier_or_explained() {
    // The artifact's acceptance shape: each of the three security modes
    // has at least one non-dominated point, or the report carries a note
    // saying why that mode never is.
    let ctx = RunContext::fast().with_explore_points(24);
    let artifact = find("explore_pareto").unwrap();
    let report = artifact.run(&ctx);
    for (mode, key) in [
        (SecureMode::NonSecure, "frontier_non_secure"),
        (SecureMode::SgxMgx, "frontier_sgx_mgx"),
        (SecureMode::TensorTee, "frontier_tensortee"),
    ] {
        let count = report
            .metric_value(key)
            .unwrap_or_else(|| panic!("metric {key} missing"));
        if count == 0.0 {
            let explained = report
                .to_markdown()
                .lines()
                .any(|n| n.contains(mode.label()) && n.contains("never non-dominated"));
            assert!(
                explained,
                "{} absent from the frontier without an explanatory note",
                mode.label()
            );
        }
    }
    // The secure-modes frontier always exists and TensorTEE leads it.
    assert!(report.metric_value("frontier_secure_size").unwrap() >= 1.0);
    assert!(report.metric_value("frontier_secure_tensortee").unwrap() >= 1.0);
}

#[test]
fn crossover_analysis_compares_the_secure_modes() {
    let ctx = thin();
    let (_, report) = explore_pareto_for(Scenario::Train, &ctx);
    // Both metrics exist, and the direct protocol never loses to staging
    // on the training step (it strictly removes crypto serialization).
    let min = report.metric_value("min_speedup_vs_sgx_mgx").unwrap();
    let max = report.metric_value("max_speedup_vs_sgx_mgx").unwrap();
    assert!(min > 1.0, "staging overtook TensorTEE: {min}");
    assert!(max >= min);
    assert_eq!(report.metric_value("crossover_points"), Some(0.0));
    assert!(report.to_markdown().contains("No crossover"));
}

#[test]
fn sensitivity_covers_every_knob_per_mode() {
    let ctx = thin();
    let (run, report) = explore_sensitivity_for(Scenario::Train, &ctx);
    // One-at-a-time plan: baseline + sum over knobs of (levels - 1).
    let expected: usize = 1 + run
        .space
        .knobs()
        .iter()
        .map(|k| k.levels.len() - 1)
        .sum::<usize>();
    assert_eq!(run.points.len(), expected);
    let md = report.to_markdown();
    for knob in run.space.knobs() {
        assert!(md.contains(knob.name), "{} missing from tornado", knob.name);
    }
    for key in [
        "top_swing_tps_non_secure",
        "top_swing_tps_sgx_mgx",
        "top_swing_tps_tensortee",
    ] {
        assert!(report.metric_value(key).unwrap() >= 0.0, "{key}");
    }
}

#[test]
fn cluster_scenario_prices_the_fabric_and_stays_deterministic() {
    let ctx = thin_with(8);
    let (run, report) = explore_pareto_for(Scenario::Cluster, &ctx);
    assert_eq!(run.points.len(), 8);
    assert!(run.space.knobs().iter().any(|k| k.name == "fabric"));
    for evals in &run.evals {
        for e in evals {
            assert!(e.throughput_tps > 0.0);
        }
    }
    let (_, again) = explore_pareto_for(Scenario::Cluster, &thin_with(8));
    assert_eq!(report.to_markdown(), again.to_markdown());
}

#[test]
fn serve_scenario_shares_one_trace_per_point_and_seed_matters() {
    let ctx = thin_with(6);
    let run = run_scenario(Scenario::Serve, &ctx);
    for evals in &run.evals {
        // Same trace across modes: the non-secure goodput bounds the
        // secure ones from above (same arrivals, strictly less work).
        let ns = &evals[0];
        assert_eq!(ns.mode, SecureMode::NonSecure);
        for e in &evals[1..] {
            assert!(
                e.throughput_tps <= ns.throughput_tps * 1.0001,
                "{} beats non-secure on its own trace",
                e.mode.label()
            );
        }
    }
    let reseeded = run_scenario(Scenario::Serve, &ctx.with_seed(7));
    let tps = |r: &tensortee::explore::ExploreRun| {
        r.evals
            .iter()
            .map(|e| e[0].throughput_tps)
            .collect::<Vec<_>>()
    };
    assert_ne!(tps(&run), tps(&reseeded), "seed must reach the traces");
}

#[test]
fn des_scenario_prices_stragglers_and_pipelines() {
    let ctx = thin_with(8);
    let (run, report) = explore_pareto_for(Scenario::Des, &ctx);
    assert_eq!(run.points.len(), 8);
    for name in ["straggler", "layout", "microbatches"] {
        assert!(
            run.space.knobs().iter().any(|k| k.name == name),
            "{name} knob missing from the des space"
        );
    }
    for evals in &run.evals {
        for e in evals {
            assert!(e.throughput_tps > 0.0);
        }
    }
    let (_, again) = explore_pareto_for(Scenario::Des, &thin_with(8));
    assert_eq!(report.to_markdown(), again.to_markdown());
}

#[test]
fn registered_explore_artifacts_run_under_the_registry() {
    // The registry path (what `tensortee run explore_pareto` does) —
    // markdown and JSON shapes hold under the thin context.
    let ctx = thin();
    for id in ["explore_pareto", "explore_sensitivity"] {
        let report = find(id).unwrap().run(&ctx);
        let md = report.to_markdown();
        assert!(md.contains("Scenario: train."), "{id}");
        assert!(
            tensortee::json::is_well_formed(&report.to_json().to_string()),
            "{id}"
        );
    }
}

#[test]
fn a_model_is_priced_by_its_contents_not_its_name() {
    // Priced in one process on one memo: the real GPT, then a 24-layer
    // model still named "GPT", then the same 24-layer model under another
    // name. The last two must agree; a memo keyed by model name would
    // hand the second model the real GPT's phases.
    let gpt = by_name("GPT").expect("Table-2 model");
    let deep = ModelConfig { layers: 24, ..gpt };
    let ctx = thin();
    let price = |model: ModelConfig| {
        let mut c = ctx.clone();
        c.models = vec![model];
        objectives(&run_scenario(Scenario::Train, &c))
    };
    let real = price(gpt);
    let deep_named_gpt = price(deep);
    let deep_renamed = price(ModelConfig {
        name: "GPT-24L",
        ..deep
    });
    assert_eq!(deep_named_gpt, deep_renamed);
    assert_ne!(
        real, deep_renamed,
        "twice the layers must price differently"
    );
}

#[test]
fn memo_counts_do_not_depend_on_worker_threads() {
    // A miss is the first insert of a key, so the memo.* counters of a
    // traced explore_pareto run are the same for any --threads.
    let counts = |threads: u32| {
        let probe = SharedProbe::recording();
        let ctx = thin()
            .with_worker_threads(threads)
            .with_probe(probe.clone());
        find("explore_pareto").unwrap().run(&ctx);
        let snap = probe.snapshot().expect("recording probe");
        snap.metrics()
            .iter()
            .filter(|(name, _)| name.starts_with("memo."))
            .map(|(name, v)| (name.to_owned(), v))
            .collect::<Vec<_>>()
    };
    let one = counts(1);
    assert_eq!(one, counts(4));
    // One table: the Adam memo's two counters are the only memo.* names.
    let names: Vec<&str> = one.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["memo.adam_hits", "memo.adam_misses"], "{one:?}");
    // One model under three modes: three distinct CPU phases.
    assert!(one.contains(&("memo.adam_misses".to_owned(), 3)), "{one:?}");
}
