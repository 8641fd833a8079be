//! Differential suite: the discrete-event cluster engine against the
//! analytic [`ClusterSystem`] oracle.
//!
//! The load-bearing invariants:
//!
//! * **bit-for-bit parity** — a lockstep data-parallel DES run produces
//!   the *identical* [`ClusterStepBreakdown`] (every field, exact
//!   picoseconds) for every cluster size in {1, 2, 4, 8}, every security
//!   mode, and both the fast and the full (Table-1) configuration. The
//!   analytic path stays the correctness oracle; any divergence is a DES
//!   bug, not model noise.
//! * **straggler 1.0 is homogeneous** — the skew knob at its identity
//!   value changes nothing, bit-for-bit.
//! * **determinism** — repeat DES runs, repeat artifact reports and the
//!   explore `des` scenario across worker-thread counts are all
//!   byte-identical.
//! * **pinned reports** — whole [`DesStepReport`]s of lockstep, straggled,
//!   pipelined and over-partitioned runs, and the scheduler and fabric
//!   counters of two recorded runs, equal values recorded before the
//!   engine was restructured.

use tee_sim::probe::SharedProbe;
use tee_sim::Time;
use tee_workloads::zoo::by_name;
use tee_workloads::StepSchedule;
use tensortee::artifact::{find, RunContext};
use tensortee::{
    ClusterConfig, ClusterSystem, DesClusterConfig, DesClusterSystem, DesStepReport, Parallelism,
    SecureMode, SystemConfig, TrainingSystem,
};

/// Synthetic CPU Adam phases (the cacheline CPU simulation is the slow
/// part of a step; parity must hold for *any* supplied value, so the
/// sweep uses several spread over three orders of magnitude).
const CPU_TIMES: [Time; 3] = [Time::from_us(80), Time::from_ms(25), Time::from_ms(400)];

fn configs() -> [(&'static str, SystemConfig); 2] {
    [
        ("fast", SystemConfig::fast_sim()),
        ("full", SystemConfig::default()),
    ]
}

#[test]
fn lockstep_des_matches_analytic_bit_for_bit_everywhere() {
    let model = by_name("GPT").unwrap();
    let schedule = StepSchedule::of(&model);
    for (cfg_label, cfg) in configs() {
        for n in [1u32, 2, 4, 8] {
            for mode in SecureMode::all() {
                for cpu in CPU_TIMES {
                    let analytic = ClusterSystem::new(cfg.clone(), ClusterConfig::of(n), mode)
                        .simulate_with_cpu_time(&schedule, cpu);
                    let des = DesClusterSystem::new(
                        cfg.clone(),
                        DesClusterConfig::lockstep(ClusterConfig::of(n)),
                        mode,
                    )
                    .simulate_with_cpu_time(&schedule, cpu);
                    let label = format!("{cfg_label} N={n} {} cpu={cpu}", mode.label());
                    assert_eq!(des.breakdown, analytic, "{label}");
                    assert_eq!(des.makespan, analytic.total(), "{label}");
                    // An uncontended replay: the fabric never queues.
                    assert_eq!(des.fabric_contention, Time::ZERO, "{label}");
                }
            }
        }
    }
}

#[test]
fn larger_model_parity_holds_on_the_full_config() {
    // A second model with a different layer mix, gradient footprint and
    // overlap geometry — parity is a property of the engine, not of one
    // schedule's numbers.
    let model = by_name("GPT2-M").unwrap();
    let schedule = StepSchedule::of(&model);
    let cpu = Time::from_ms(120);
    for n in [2u32, 8] {
        for mode in SecureMode::all() {
            let analytic = ClusterSystem::new(SystemConfig::default(), ClusterConfig::of(n), mode)
                .simulate_with_cpu_time(&schedule, cpu);
            let des = DesClusterSystem::new(
                SystemConfig::default(),
                DesClusterConfig::lockstep(ClusterConfig::of(n)),
                mode,
            )
            .simulate_with_cpu_time(&schedule, cpu);
            assert_eq!(des.breakdown, analytic, "N={n} {}", mode.label());
        }
    }
}

#[test]
fn real_cpu_path_stays_in_parity_under_the_fast_config() {
    // One end-to-end case where both paths price the CPU phase
    // themselves (`simulate_schedule`), pinning the plumbing around the
    // supplied-cpu shortcut.
    let model = by_name("GPT").unwrap();
    let schedule = StepSchedule::of(&model);
    let mode = SecureMode::TensorTee;
    let analytic = ClusterSystem::new(SystemConfig::fast_sim(), ClusterConfig::of(4), mode)
        .simulate_schedule(&schedule);
    let des = DesClusterSystem::new(
        SystemConfig::fast_sim(),
        DesClusterConfig::lockstep(ClusterConfig::of(4)),
        mode,
    )
    .simulate_schedule(&schedule);
    assert_eq!(des.breakdown, analytic);
}

#[test]
fn straggler_identity_factor_is_bit_for_bit_homogeneous() {
    let model = by_name("GPT").unwrap();
    let schedule = StepSchedule::of(&model);
    let cpu = Time::from_ms(25);
    for mode in SecureMode::all() {
        for parallelism in [Parallelism::Data, Parallelism::Pipeline { microbatches: 4 }] {
            let run = |factor: f64| {
                DesClusterSystem::new(
                    SystemConfig::fast_sim(),
                    DesClusterConfig {
                        cluster: ClusterConfig::of(4),
                        straggler_factor: factor,
                        parallelism,
                    },
                    mode,
                )
                .simulate_with_cpu_time(&schedule, cpu)
            };
            assert_eq!(run(1.0), run(1.0), "{} repeat", mode.label());
            // factor 1.0 goes through the exact (unscaled) path: the
            // entire report matches the lockstep default bit-for-bit.
            let lockstep = DesClusterSystem::new(
                SystemConfig::fast_sim(),
                match parallelism {
                    Parallelism::Data => DesClusterConfig::lockstep(ClusterConfig::of(4)),
                    Parallelism::Pipeline { microbatches } => {
                        DesClusterConfig::lockstep(ClusterConfig::of(4)).with_pipeline(microbatches)
                    }
                },
                mode,
            )
            .simulate_with_cpu_time(&schedule, cpu);
            assert_eq!(run(1.0), lockstep, "{}", mode.label());
        }
    }
}

#[test]
fn straggler_skew_only_ever_slows_the_step() {
    let model = by_name("GPT").unwrap();
    let schedule = StepSchedule::of(&model);
    let cpu = Time::from_ms(25);
    for mode in SecureMode::all() {
        let mut prev = Time::ZERO;
        for factor in [1.0, 1.1, 1.25, 1.5] {
            let report = DesClusterSystem::new(
                SystemConfig::fast_sim(),
                DesClusterConfig::lockstep(ClusterConfig::of(4)).with_straggler(factor),
                mode,
            )
            .simulate_with_cpu_time(&schedule, cpu);
            assert!(
                report.makespan >= prev,
                "{} {factor}: {} < {prev}",
                mode.label(),
                report.makespan
            );
            assert_eq!(report.makespan, report.breakdown.total(), "partition");
            prev = report.makespan;
        }
    }
}

#[test]
fn pipeline_microbatches_shrink_the_compute_front() {
    // GPipe shape: more microbatches -> smaller fill/drain bubble ->
    // earlier last-stage drain; and the boundary traffic contends on the
    // shared fabric under the staging protocol.
    let model = by_name("GPT").unwrap();
    let schedule = StepSchedule::of(&model);
    let cpu = Time::from_ms(25);
    let run = |m: u32, mode: SecureMode| {
        DesClusterSystem::new(
            SystemConfig::fast_sim(),
            DesClusterConfig::lockstep(ClusterConfig::of(4)).with_pipeline(m),
            mode,
        )
        .simulate_with_cpu_time(&schedule, cpu)
    };
    for mode in SecureMode::all() {
        let few = run(2, mode);
        let many = run(16, mode);
        assert!(
            many.breakdown.npu <= few.breakdown.npu,
            "{}: {} > {}",
            mode.label(),
            many.breakdown.npu,
            few.breakdown.npu
        );
        assert_eq!(few.breakdown.comm_ar, Time::ZERO, "no collective");
        assert_eq!(few.makespan, few.breakdown.total());
    }
    // Staging pays a conversion on every boundary hop; direct does not.
    assert!(run(8, SecureMode::SgxMgx).crypto > run(8, SecureMode::TensorTee).crypto);
}

#[test]
fn des_artifacts_are_byte_identical_across_invocations() {
    let ctx = RunContext::fast();
    for id in ["des_parity", "des_straggler", "des_pipeline"] {
        let artifact = find(id).unwrap_or_else(|| panic!("{id} not registered"));
        let first = artifact.run(&ctx);
        let second = artifact.run(&ctx);
        assert_eq!(
            first.to_json().to_string(),
            second.to_json().to_string(),
            "{id}: JSON differs between runs"
        );
        assert_eq!(first.to_markdown(), second.to_markdown(), "{id}");
    }
}

#[test]
fn des_parity_artifact_reports_zero_divergence() {
    let report = find("des_parity").unwrap().run(&RunContext::fast());
    assert_eq!(report.metric_value("max_divergence_ps"), Some(0.0));
    assert!(!report.to_markdown().contains("| NO |"), "a row diverged");
}

#[test]
fn event_counts_scale_with_cluster_size_and_are_stable() {
    // The event count is part of the deterministic surface: same config,
    // same count; more ranks, more events.
    let model = by_name("GPT").unwrap();
    let schedule = StepSchedule::of(&model);
    let cpu = Time::from_ms(25);
    let events = |n: u32| {
        DesClusterSystem::new(
            SystemConfig::fast_sim(),
            DesClusterConfig::lockstep(ClusterConfig::of(n)),
            SecureMode::TensorTee,
        )
        .simulate_with_cpu_time(&schedule, cpu)
        .events
    };
    assert_eq!(events(4), events(4));
    assert!(events(8) > events(2), "{} <= {}", events(8), events(2));
}

#[test]
fn des_system_exposes_its_configuration() {
    let cfg = DesClusterConfig::lockstep(ClusterConfig::of(2))
        .with_straggler(1.25)
        .with_pipeline(3);
    assert_eq!(cfg.straggler_factor, 1.25);
    assert_eq!(cfg.parallelism, Parallelism::Pipeline { microbatches: 3 });
    let des = DesClusterSystem::new(SystemConfig::fast_sim(), cfg, SecureMode::SgxMgx);
    assert_eq!(des.mode(), SecureMode::SgxMgx);
}

#[test]
fn supplied_and_self_priced_cpu_paths_agree() {
    // `simulate_schedule` must equal `simulate_with_cpu_time` fed the
    // same CPU phase — the seam the explorer and the tests lean on.
    let model = by_name("GPT").unwrap();
    let schedule = StepSchedule::of(&model);
    let mode = SecureMode::NonSecure;
    let replica = schedule.data_parallel_replica(2);
    let cpu = TrainingSystem::new(SystemConfig::fast_sim(), mode).cpu_time(&replica);
    let mut des = DesClusterSystem::new(
        SystemConfig::fast_sim(),
        DesClusterConfig::lockstep(ClusterConfig::of(2)),
        mode,
    );
    assert_eq!(
        des.simulate_schedule(&schedule),
        des.simulate_with_cpu_time(&schedule, cpu)
    );
}

/// Every number of a [`DesStepReport`]: the breakdown (npu, cpu, comm_w,
/// comm_g, comm_ar), makespan, fabric contention and occupancy and crypto
/// time in picoseconds, then the dispatched-event count.
fn report_fields(r: &DesStepReport) -> [u64; 10] {
    let b = r.breakdown;
    [
        b.npu.as_ps(),
        b.cpu.as_ps(),
        b.comm_w.as_ps(),
        b.comm_g.as_ps(),
        b.comm_ar.as_ps(),
        r.makespan.as_ps(),
        r.fabric_contention.as_ps(),
        r.fabric_occupied.as_ps(),
        r.crypto.as_ps(),
        r.events,
    ]
}

/// One pinned engine run: GPT on the fast config with a fixed 25 ms CPU
/// phase, in the layout `case` names.
fn pinned_run(case: &str, mode: SecureMode, probe: SharedProbe) -> DesStepReport {
    let lockstep = |n| DesClusterConfig::lockstep(ClusterConfig::of(n));
    let mut schedule = StepSchedule::of(&by_name("GPT").unwrap());
    let des = match case {
        "lockstep N=1" => lockstep(1),
        "lockstep N=4" => lockstep(4),
        "straggler 1.5 N=4" => lockstep(4).with_straggler(1.5),
        "pipeline N=4 m=1" => lockstep(4).with_pipeline(1),
        "pipeline N=4 m=8" => lockstep(4).with_pipeline(8),
        // Three layers on more stages than layers: the last stages are
        // empty and finish zero-duration microbatches.
        "3 layers on 4 stages m=4" | "3 layers on 8 stages m=4" => {
            schedule.npu_layers.truncate(3);
            let n = if case.contains("4 stages") { 4 } else { 8 };
            lockstep(n).with_pipeline(4)
        }
        other => panic!("unknown pinned case {other:?}"),
    };
    DesClusterSystem::new(SystemConfig::fast_sim(), des, mode)
        .with_probe(probe)
        .simulate_with_cpu_time(&schedule, Time::from_ms(25))
}

/// [`report_fields`] of each pinned case under Non-secure, SGX+MGX and
/// TensorTEE ([`SecureMode::all`] order).
#[rustfmt::skip]
const PINNED_REPORTS: [(&str, [[u64; 10]; 3]); 7] = [
    ("lockstep N=1", [
        [931645462668, 25000000000, 0, 0, 0, 956645462668, 0, 0, 0, 16],
        [946278402156, 25000000000, 131253544000, 262506328000, 0, 1365038274156, 0, 0, 370596416000, 15],
        [931665186432, 25000000000, 0, 0, 0, 956665186432, 0, 0, 0, 16],
    ]),
    ("lockstep N=4", [
        [234915861204, 25000000000, 0, 0, 0, 259915861204, 0, 30887208000, 0, 40],
        [238625065800, 25000000000, 131253544000, 262506328000, 393762912000, 1051147849800, 0, 154419400000, 864725664000, 37],
        [234935586432, 25000000000, 0, 0, 0, 259935586432, 0, 30887208000, 0, 40],
    ]),
    ("straggler 1.5 N=4", [
        [352373791806, 25000000000, 0, 0, 0, 377373791806, 0, 30887208000, 0, 40],
        [357937598700, 25000000000, 131253544000, 262506328000, 393762912000, 1170460382700, 0, 154419400000, 864725664000, 37],
        [352403379648, 25000000000, 0, 0, 0, 377403379648, 0, 30887208000, 0, 40],
    ]),
    ("pipeline N=4 m=1", [
        [1037815582668, 25000000000, 0, 15442104000, 0, 1078257686668, 0, 106170120000, 0, 33],
        [2751142122156, 25000000000, 131253544000, 262506328000, 0, 3169901994156, 0, 106170120000, 2069290016000, 33],
        [1037835306432, 25000000000, 0, 15442104000, 0, 1078277410432, 0, 106170120000, 0, 33],
    ]),
    ("pipeline N=4 m=8", [
        [333525967794, 25000000000, 0, 15442104000, 0, 373968071794, 0, 106182720000, 0, 124],
        [552766801078, 25000000000, 131253544000, 262506328000, 0, 971526673078, 1873640335, 106182720000, 2069293376000, 124],
        [333532747836, 25000000000, 0, 15442104000, 0, 373974851836, 0, 106182720000, 0, 124],
    ]),
    ("3 layers on 4 stages m=4", [
        [27293504068, 25000000000, 0, 15442104000, 0, 67735608068, 64110223376, 26549280000, 0, 72],
        [126310405760, 25000000000, 131253544000, 262506328000, 0, 545070277760, 17586470382, 26549280000, 795271616000, 72],
        [27293538282, 25000000000, 0, 15442104000, 0, 67735642282, 64109744052, 26549280000, 0, 72],
    ]),
    ("3 layers on 8 stages m=4", [
        [27303112068, 25000000000, 0, 15442104000, 0, 67745216068, 68562724376, 26558888000, 0, 144],
        [126313479760, 25000000000, 131253544000, 262506328000, 0, 545073351760, 17586470382, 26558888000, 795274304000, 144],
        [27303170282, 25000000000, 0, 15442104000, 0, 67745274282, 68562308052, 26558912000, 0, 144],
    ]),
];

#[test]
fn pinned_des_reports_are_unchanged() {
    // The lockstep parity tests check the breakdown against the analytic
    // oracle; these pin everything else (straggler and pipeline numbers,
    // fabric ledgers, crypto, event counts) to recorded values.
    for (case, rows) in PINNED_REPORTS {
        for (mode, expected) in SecureMode::all().into_iter().zip(rows) {
            let report = pinned_run(case, mode, SharedProbe::Null);
            assert_eq!(report_fields(&report), expected, "{case} {}", mode.label());
        }
    }
}

#[test]
fn pinned_des_runs_record_their_scheduler_and_fabric_counters() {
    for (case, mode, expected) in [
        ("straggler 1.5 N=4", SecureMode::TensorTee, [9, 31, 31, 7]),
        ("pipeline N=4 m=8", SecureMode::SgxMgx, [33, 91, 91, 25]),
    ] {
        let probe = SharedProbe::recording();
        pinned_run(case, mode, probe.clone());
        let snap = probe.snapshot().expect("recording probe");
        let counters = ["des.ticks", "des.deliveries", "des.sends", "link.grants"]
            .map(|name| snap.metrics().get(name));
        assert_eq!(counters, expected, "{case} {}", mode.label());
    }
}
