//! Experiment runners — one per registered artifact.
//!
//! Every runner takes a [`RunContext`] (configuration + sweep knobs) and
//! returns a structured [`Report`] — named metrics, typed tables, notes —
//! alongside its typed rows where tests want the raw numbers.
//! The runners are addressed through [`crate::artifact::registry`]; the
//! artifact index lives in EXPERIMENTS.md.

use crate::artifact::{RunContext, FLEET_TENANTS, SERVE_RATE_RPS};
use crate::des_cluster::{DesClusterConfig, DesClusterSystem, DesStepReport};
use crate::hw;
use crate::memo::AdamRun;
use crate::report::{f2, pct, Report, Table};
use crate::system::{
    backward_window, ClusterStepBreakdown, ClusterSystem, StepBreakdown, TrainingSystem,
};
use tee_comm::protocol::{Protocol, StagingProtocol};
use tee_comm::schedule::{overlapped_time, serialized_time, Timeline};
use tee_cpu::analyzer::TenAnalyzerConfig;
use tee_cpu::{
    AdamReport, AdamWorkload, CpuConfig, CpuEngine, GemmWorkload, SoftVnConfig, TeeMode,
};
use tee_fleet::{simulate_probed as fleet_simulate, FleetConfig, FleetReport, Policy};
use tee_npu::mac::figure20_sweep;
use tee_npu::NpuEngine;
use tee_serve::{
    simulate_probed, SecurityProfile, ServeConfig, ServeReport, SessionRequest, SessionTraceConfig,
    TraceConfig,
};
use tee_sim::probe::{SharedProbe, TraceProbe};
use tee_sim::Time;
use tee_workloads::census::TensorCensus;
use tee_workloads::zoo::{ModelConfig, TABLE2};
use tee_workloads::StepSchedule;

/// The registry-backed empty report for artifact `id` — metadata has a
/// single source of truth in [`crate::artifact`].
fn report_for(id: &str) -> Report {
    crate::artifact::find(id)
        .unwrap_or_else(|| panic!("artifact {id:?} not registered"))
        .new_report()
}

/// A simulation-scale Adam workload derived from a model's census,
/// shrunk so the cacheline-level simulation stays fast while remaining
/// memory-bound against the scaled cache hierarchy.
fn bench_adam_workload(model: &ModelConfig, scale: u64) -> AdamWorkload {
    AdamWorkload::from_tensor_sizes(&TensorCensus::of(model).scaled(scale).sizes)
}

/// `iterations` Adam steps of `workload` on a fresh `cpu` engine under
/// `mode` (no Meta Table preload), priced through the context memo.
fn run_adam(
    ctx: &RunContext,
    cpu: &CpuConfig,
    mode: TeeMode,
    workload: &AdamWorkload,
    threads: u32,
    iterations: u32,
) -> AdamReport {
    ctx.memo.adam(AdamRun {
        cpu: cpu.clone(),
        mode,
        preload: false,
        workload: workload.clone(),
        threads,
        iterations,
    })
}

// ---------------------------------------------------------------------
// Figure 3 — CPU TEE slowdown vs. thread count.
// ---------------------------------------------------------------------

/// One Figure-3 sample.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// Worker threads.
    pub threads: u32,
    /// Non-secure steady iteration latency.
    pub non_secure: Time,
    /// SGX steady iteration latency.
    pub sgx: Time,
}

impl Fig3Row {
    /// SGX / non-secure.
    pub fn slowdown(&self) -> f64 {
        self.sgx.as_secs_f64() / self.non_secure.as_secs_f64()
    }
}

/// Runs the Figure-3 sweep (Adam on the primary model, non-secure vs SGX,
/// over `ctx.threads`).
pub fn fig03_cpu_slowdown(ctx: &RunContext) -> (Vec<Fig3Row>, Report) {
    let model = ctx.primary_model();
    let workload = bench_adam_workload(&model, ctx.cfg.sim_scale);
    let iters = ctx.cfg.cpu_iterations.max(2);
    let rows: Vec<Fig3Row> = ctx
        .threads
        .iter()
        .map(|&t| {
            let steady =
                |mode| run_adam(ctx, &ctx.cfg.cpu, mode, &workload, t, iters).steady_latency(1);
            Fig3Row {
                threads: t,
                non_secure: steady(TeeMode::NonSecure),
                sgx: steady(TeeMode::Sgx),
            }
        })
        .collect();
    let mut table = Table::new(["threads", "non-secure", "SGX", "slowdown"]);
    for r in &rows {
        table.row([
            r.threads.to_string(),
            r.non_secure.to_string(),
            r.sgx.to_string(),
            format!("{:.2}x", r.slowdown()),
        ]);
    }
    let mut report = report_for("fig03");
    report.table(table);
    report.metric(
        "max_slowdown",
        rows.iter().map(Fig3Row::slowdown).fold(0.0, f64::max),
    );
    (rows, report)
}

// ---------------------------------------------------------------------
// Figure 4 — tensor census.
// ---------------------------------------------------------------------

/// Renders the Figure-4 census across `ctx.models`.
pub fn fig04_tensor_census(ctx: &RunContext) -> Report {
    let mut table = Table::new(["model", "tensor count", "max tensor", "total fp32"]);
    let mut max_bytes = 0u64;
    for m in &ctx.models {
        let c = TensorCensus::of(m);
        max_bytes = max_bytes.max(c.max_bytes());
        table.row([
            m.name.to_string(),
            c.count().to_string(),
            tee_sim::util::fmt_bytes(c.max_bytes()),
            tee_sim::util::fmt_bytes(c.total_bytes()),
        ]);
    }
    let mut report = report_for("fig04");
    report.table(table);
    report.metric("models", ctx.models.len() as f64);
    report.metric("max_tensor_bytes", max_bytes as f64);
    report
}

// ---------------------------------------------------------------------
// Figures 5 & 17 — phase breakdowns.
// ---------------------------------------------------------------------

/// Phase-fraction rows for the given models under every context mode,
/// with columns taken from the shared [`StepBreakdown`] phase ledger.
pub fn breakdown_table(ctx: &RunContext, models: &[ModelConfig]) -> Table {
    let mut header = vec!["model".to_string(), "mode".to_string()];
    header.extend(StepBreakdown::PHASES.iter().map(|p| p.to_string()));
    let mut table = Table::new(header);
    for m in models {
        for &mode in &ctx.modes {
            let b = TrainingSystem::new(ctx.cfg.clone(), mode)
                .with_memo(&ctx.memo)
                .simulate_step(m);
            let mut row = vec![m.name.to_string(), mode.label().to_string()];
            row.extend(b.ledger().fractions().into_iter().map(|(_, f)| pct(f)));
            table.row(row);
        }
    }
    table
}

/// Figure 5: the primary-model breakdown.
pub fn fig05_breakdown(ctx: &RunContext) -> Report {
    let model = ctx.primary_model();
    let mut report = report_for("fig05");
    report.table(breakdown_table(ctx, &[model]));
    report
}

/// Figure 17: breakdown across the context's model subset.
pub fn fig17_breakdown(ctx: &RunContext) -> Report {
    let mut report = report_for("fig17");
    report.table(breakdown_table(ctx, &ctx.models));
    report
}

// ---------------------------------------------------------------------
// Figure 15 (and 7) — overlap timelines.
// ---------------------------------------------------------------------

/// Renders the serialized-vs-overlapped timelines for the primary model's
/// gradient transfer against a backward phase.
pub fn fig15_overlap(ctx: &RunContext) -> Report {
    let model = ctx.primary_model();
    let grad_bytes = model.grad_bytes();
    // Backward window for the primary model at our NPU's pace (same
    // derivation as Figure 21).
    let schedule = StepSchedule::of(&model);
    let npu = TrainingSystem::new(ctx.cfg.clone(), crate::SecureMode::TensorTee)
        .with_memo(&ctx.memo)
        .npu_time(&schedule);
    let bwd = backward_window(npu);
    let staged = Protocol::Staged.transfer(ctx.cfg.pcie_link(), grad_bytes);
    let direct = Protocol::Direct.transfer(ctx.cfg.pcie_link(), grad_bytes);

    let mut base = Timeline::new();
    base.push(0, "backward", Time::ZERO, bwd);
    base.push(1, "re-enc", bwd, bwd + staged.re_encryption);
    base.push(
        1,
        "comm",
        bwd + staged.re_encryption,
        bwd + staged.re_encryption + staged.comm,
    );
    base.push(
        1,
        "dec",
        bwd + staged.re_encryption + staged.comm,
        bwd + staged.total(),
    );

    let mut ours = Timeline::new();
    ours.push(0, "backward", Time::ZERO, bwd);
    ours.push(1, "comm", Time::ZERO, direct.comm.min(bwd));

    let serialized = serialized_time(bwd, staged.total());
    let overlapped = overlapped_time(bwd, direct.comm);
    let mut report = report_for("fig15");
    report.note(format!(
        "Baseline (Figure 7): serialized, total {serialized}\n{}",
        base.render(64)
    ));
    report.note(format!(
        "\nTensorTEE (Figure 15): overlapped, total {overlapped}\n{}",
        ours.render(64)
    ));
    report.metric("serialized_total_secs", serialized.as_secs_f64());
    report.metric("overlapped_total_secs", overlapped.as_secs_f64());
    report
}

// ---------------------------------------------------------------------
// Figure 16 — overall performance.
// ---------------------------------------------------------------------

/// One Figure-16 sample.
#[derive(Debug, Clone, Copy)]
pub struct Fig16Row {
    /// Model.
    pub model: ModelConfig,
    /// Latency per batch, non-secure.
    pub non_secure: Time,
    /// Latency per batch, SGX+MGX.
    pub sgx_mgx: Time,
    /// Latency per batch, TensorTEE.
    pub ours: Time,
}

impl Fig16Row {
    /// Speedup of TensorTEE over SGX+MGX.
    pub fn speedup(&self) -> f64 {
        self.sgx_mgx.as_secs_f64() / self.ours.as_secs_f64()
    }

    /// Overhead of TensorTEE vs non-secure.
    pub fn overhead(&self) -> f64 {
        self.ours.as_secs_f64() / self.non_secure.as_secs_f64() - 1.0
    }
}

/// Runs Figure 16 across `ctx.models`.
pub fn fig16_overall(ctx: &RunContext) -> (Vec<Fig16Row>, Report) {
    let total = |mode, m: &ModelConfig| {
        TrainingSystem::new(ctx.cfg.clone(), mode)
            .with_memo(&ctx.memo)
            .simulate_step(m)
            .total()
    };
    let rows: Vec<Fig16Row> = ctx
        .models
        .iter()
        .map(|m| Fig16Row {
            model: *m,
            non_secure: total(crate::SecureMode::NonSecure, m),
            sgx_mgx: total(crate::SecureMode::SgxMgx, m),
            ours: total(crate::SecureMode::TensorTee, m),
        })
        .collect();
    let mut table = Table::new([
        "model",
        "non-secure",
        "SGX+MGX",
        "TensorTEE",
        "speedup",
        "overhead vs NS",
    ]);
    for r in &rows {
        table.row([
            r.model.name.to_string(),
            r.non_secure.to_string(),
            r.sgx_mgx.to_string(),
            r.ours.to_string(),
            format!("{:.2}x", r.speedup()),
            pct(r.overhead()),
        ]);
    }
    let speedups: Vec<f64> = rows.iter().map(Fig16Row::speedup).collect();
    let overheads: Vec<f64> = rows.iter().map(Fig16Row::overhead).collect();
    let avg_speedup = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let avg_overhead = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    let mut report = report_for("fig16");
    report.table(table);
    report.metric("avg_speedup", avg_speedup);
    report.metric("avg_overhead", avg_overhead);
    report.note(format!(
        "Average speedup vs SGX+MGX: {avg_speedup:.2}x (paper: 4.0x)"
    ));
    report.note(format!(
        "Average overhead vs non-secure: {} (paper: 2.1%)",
        pct(avg_overhead),
    ));
    (rows, report)
}

// ---------------------------------------------------------------------
// Figure 18 — Meta Table hit rate vs iteration.
// ---------------------------------------------------------------------

/// One Figure-18 sample.
#[derive(Debug, Clone, Copy)]
pub struct Fig18Row {
    /// Iteration index.
    pub iteration: u32,
    /// hit_in rate.
    pub hit_in: f64,
    /// hit_all (= hit_in + hit_boundary) rate.
    pub hit_all: f64,
    /// hit_boundary rate.
    pub hit_boundary: f64,
}

/// Runs Adam under TensorTEE (no preload — cold detection) and samples
/// per-iteration Meta Table hit rates over `ctx.hit_iterations`.
pub fn fig18_hit_rate(ctx: &RunContext) -> (Vec<Fig18Row>, Report) {
    let workload = bench_adam_workload(&ctx.primary_model(), ctx.cfg.sim_scale);
    let run = run_adam(
        ctx,
        &ctx.cfg.cpu,
        TeeMode::TensorTee(TenAnalyzerConfig::default()),
        &workload,
        ctx.cfg.cpu_threads,
        ctx.hit_iterations,
    );
    let rows: Vec<Fig18Row> = run
        .iterations
        .iter()
        .enumerate()
        .map(|(i, it)| Fig18Row {
            iteration: i as u32,
            hit_in: it.reads.hit_in_rate(),
            hit_all: it.reads.hit_all_rate(),
            hit_boundary: it.reads.hit_all_rate() - it.reads.hit_in_rate(),
        })
        .collect();
    let mut table = Table::new(["iteration", "hit_all", "hit_in", "hit_boundary"]);
    for r in &rows {
        table.row([
            r.iteration.to_string(),
            f2(r.hit_all),
            f2(r.hit_in),
            f2(r.hit_boundary),
        ]);
    }
    let mut report = report_for("fig18");
    report.table(table);
    report.metric(
        "final_hit_in",
        rows.last().map(|r| r.hit_in).unwrap_or(f64::NAN),
    );
    (rows, report)
}

// ---------------------------------------------------------------------
// Figure 19 — CPU performance vs iteration and baseline comparison.
// ---------------------------------------------------------------------

/// Figure-19 data for one thread count.
struct Fig19Series {
    /// Threads.
    pub threads: u32,
    /// Non-secure steady latency (the 1.0 reference).
    pub non_secure: Time,
    /// SGX steady latency.
    pub sgx: Time,
    /// SoftVN steady latency.
    pub softvn: Time,
    /// TensorTEE per-iteration latency at the sampled iterations.
    pub tensortee: Vec<(u32, Time)>,
}

/// Runs Figure 19 over `ctx.threads` and `ctx.checkpoints`.
pub fn fig19_cpu_perf(ctx: &RunContext) -> Report {
    let workload = bench_adam_workload(&ctx.primary_model(), ctx.cfg.sim_scale);
    let max_iter = ctx.checkpoints.iter().copied().max().unwrap_or(1);
    // Steady-state baselines need at least two iterations; the context's
    // iteration budget (3 at full fidelity) controls the warm-up cost.
    let base_iters = ctx.cfg.cpu_iterations.max(2);
    let mut out = Vec::new();
    for &t in &ctx.threads {
        let run = |mode, iters| run_adam(ctx, &ctx.cfg.cpu, mode, &workload, t, iters);
        let steady = |mode| run(mode, base_iters).steady_latency(1);
        let non_secure = steady(TeeMode::NonSecure);
        let sgx_lat = steady(TeeMode::Sgx);
        let softvn = steady(TeeMode::SoftVn(SoftVnConfig::default()));
        let rep = run(TeeMode::TensorTee(TenAnalyzerConfig::default()), max_iter);
        let tensortee = ctx
            .checkpoints
            .iter()
            .map(|&c| {
                let idx = (c as usize).min(rep.iterations.len()) - 1;
                (c, rep.iterations[idx].latency)
            })
            .collect();
        out.push(Fig19Series {
            threads: t,
            non_secure,
            sgx: sgx_lat,
            softvn,
            tensortee,
        });
    }
    let mut table = Table::new(["threads", "config", "normalized latency"]);
    for s in &out {
        let norm = |t: Time| f2(t.as_secs_f64() / s.non_secure.as_secs_f64());
        table.row([s.threads.to_string(), "non-secure".into(), "1.00".into()]);
        table.row([s.threads.to_string(), "SGX".into(), norm(s.sgx)]);
        table.row([s.threads.to_string(), "SoftVN".into(), norm(s.softvn)]);
        for (c, lat) in &s.tensortee {
            table.row([
                s.threads.to_string(),
                format!("TensorTEE @ iter {c}"),
                norm(*lat),
            ]);
        }
    }
    let mut report = report_for("fig19");
    report.table(table);
    if let Some(s) = out.last() {
        report.metric(
            "sgx_slowdown_max_threads",
            s.sgx.as_secs_f64() / s.non_secure.as_secs_f64(),
        );
    }
    report
}

// ---------------------------------------------------------------------
// Figure 20 — MAC granularity sweep.
// ---------------------------------------------------------------------

/// One Figure-20 sample.
#[derive(Debug, Clone)]
pub struct Fig20Row {
    /// Scheme label.
    pub label: String,
    /// Normalized performance (non-secure = 1.0; lower is worse… shown as
    /// slowdown here).
    pub slowdown: f64,
    /// Off-chip storage overhead fraction.
    pub storage: f64,
}

/// Runs the Figure-20 granularity sweep over the primary model's
/// transformer layer mix.
pub fn fig20_mac_granularity(ctx: &RunContext) -> (Vec<Fig20Row>, Report) {
    let schedule = StepSchedule::of(&ctx.primary_model()).scaled(64);
    let layers = TrainingSystem::npu_layers(&schedule.npu_layers);
    let rows: Vec<Fig20Row> = figure20_sweep()
        .into_iter()
        .map(|scheme| {
            let slowdown = NpuEngine::new(ctx.cfg.npu.clone(), scheme).slowdown(&layers);
            Fig20Row {
                label: scheme.label(),
                slowdown,
                storage: scheme.storage_overhead(64 << 20),
            }
        })
        .collect();
    let mut table = Table::new(["MAC granularity", "slowdown", "storage overhead"]);
    for r in &rows {
        table.row([
            r.label.clone(),
            format!("{:.3}x", r.slowdown),
            pct(r.storage),
        ]);
    }
    let mut report = report_for("fig20");
    report.table(table);
    if let Some(ours) = rows.iter().find(|r| r.label == "tensor-delayed") {
        report.metric("tensor_delayed_slowdown", ours.slowdown);
    }
    (rows, report)
}

// ---------------------------------------------------------------------
// Figure 21 — gradient-transfer breakdown.
// ---------------------------------------------------------------------

/// One Figure-21 sample.
#[derive(Debug, Clone, Copy)]
pub struct Fig21Row {
    /// Model.
    pub model: ModelConfig,
    /// Baseline re-encryption time.
    pub base_reenc: Time,
    /// Baseline bus time.
    pub base_comm: Time,
    /// Baseline decryption time.
    pub base_dec: Time,
    /// TensorTEE raw transfer duration (direct DMA, no crypto).
    pub ours_comm: Time,
    /// TensorTEE exposed communication time (after overlap with backward).
    pub ours_exposed: Time,
}

impl Fig21Row {
    /// Baseline total.
    pub fn base_total(&self) -> Time {
        self.base_reenc + self.base_comm + self.base_dec
    }

    /// Communication improvement factor: serialized baseline transfer
    /// time over the direct transfer's raw duration (the paper's 18.7x
    /// metric); overlap additionally hides the remainder (Figure 15).
    pub fn improvement(&self) -> f64 {
        self.base_total().as_secs_f64() / self.ours_comm.as_secs_f64().max(1e-12)
    }
}

/// Runs Figure 21 across `ctx.models`.
pub fn fig21_comm_breakdown(ctx: &RunContext) -> (Vec<Fig21Row>, Report) {
    let rows: Vec<Fig21Row> = ctx
        .models
        .iter()
        .map(|m| {
            let schedule = StepSchedule::of(m);
            let staged = Protocol::Staged.transfer(ctx.cfg.pcie_link(), schedule.grad_bytes);
            let direct = Protocol::Direct.transfer(ctx.cfg.pcie_link(), schedule.grad_bytes);
            // Overlap window: the backward phase under TensorTEE.
            let sys = TrainingSystem::new(ctx.cfg.clone(), crate::SecureMode::TensorTee)
                .with_memo(&ctx.memo);
            let bwd_window = backward_window(sys.npu_time(&schedule));
            Fig21Row {
                model: *m,
                base_reenc: staged.re_encryption,
                base_comm: staged.comm,
                base_dec: staged.decryption,
                ours_comm: direct.comm,
                ours_exposed: direct.comm.saturating_sub(bwd_window) + Time::from_ns(600), // residual sync latency
            }
        })
        .collect();
    let mut table = Table::new([
        "model",
        "base re-enc",
        "base comm",
        "base dec",
        "ours comm",
        "ours exposed",
        "improvement",
    ]);
    for r in &rows {
        table.row([
            r.model.name.to_string(),
            r.base_reenc.to_string(),
            r.base_comm.to_string(),
            r.base_dec.to_string(),
            r.ours_comm.to_string(),
            r.ours_exposed.to_string(),
            format!("{:.1}x", r.improvement()),
        ]);
    }
    let avg: f64 = rows.iter().map(Fig21Row::improvement).sum::<f64>() / rows.len().max(1) as f64;
    let mut report = report_for("fig21");
    report.table(table);
    report.metric("avg_improvement", avg);
    report.note(format!(
        "Average communication improvement: {avg:.1}x (paper: 18.7x)"
    ));
    (rows, report)
}

// ---------------------------------------------------------------------
// §6.2 — GEMM detection.
// ---------------------------------------------------------------------

/// Runs the §6.2 GEMM experiment: 256×256 matrix, 64×64 tiles; one GEMM
/// builds the structures, the next measures hit_in (paper: 98.8%).
pub fn sec62_gemm_detection(ctx: &RunContext) -> (f64, Report) {
    let mut engine = CpuEngine::new(
        ctx.cfg.cpu.clone(),
        TeeMode::TensorTee(TenAnalyzerConfig::default()),
    );
    let gemm = GemmWorkload::new(256, 64);
    let _build = engine.run_gemm(&gemm);
    let measured = engine.run_gemm(&gemm);
    let rate = measured.hit_in_rate();
    let mut report = report_for("sec62");
    report.metric("hit_in", rate);
    report.note(format!(
        "GEMM 256x256, 64x64 tiles: hit_in after structure construction = {} (paper: 98.8%)",
        pct(rate)
    ));
    (rate, report)
}

// ---------------------------------------------------------------------
// §6.5 — hardware overhead.
// ---------------------------------------------------------------------

/// Regenerates the §6.5 TenAnalyzer hardware budget.
pub fn sec65_hw_overhead(_ctx: &RunContext) -> Report {
    let mut report = report_for("sec65");
    report.table(hw::table());
    report.metric("total_kb", hw::total_bytes() as f64 / 1024.0);
    report.metric("area_mm2", hw::area_mm2());
    report
}

// ---------------------------------------------------------------------
// Table 2 — workloads and parameters.
// ---------------------------------------------------------------------

/// Renders Table 2: the full model zoo and its per-model parameters
/// (always the complete zoo — it is static data, independent of the
/// context's model subset).
pub fn tab2_workloads(_ctx: &RunContext) -> Report {
    let mut table = Table::new([
        "model",
        "# params (nominal)",
        "# params (modeled)",
        "batch",
        "layers",
        "hidden",
        "seq",
    ]);
    for m in TABLE2 {
        table.row([
            m.name.to_string(),
            m.nominal_params.to_string(),
            m.params().to_string(),
            m.batch_size.to_string(),
            m.layers.to_string(),
            m.hidden.to_string(),
            m.seq_len.to_string(),
        ]);
    }
    let mut report = report_for("tab2");
    report.table(table);
    report.metric("models", TABLE2.len() as f64);
    report
}

// ---------------------------------------------------------------------
// Ablations — design-choice sweeps (Meta Table capacity, filter
// threshold, SGX metadata cache, staging AES bandwidth).
// ---------------------------------------------------------------------

/// Runs the four design-choice ablation sweeps. Under a fast context the
/// sweep points are thinned but every sweep still runs.
pub fn ablations(ctx: &RunContext) -> Report {
    let workload = bench_adam_workload(&ctx.primary_model(), ctx.cfg.sim_scale);
    let threads = ctx.cfg.cpu_threads;
    // Detection sweeps sample iteration `detect_iters - 1`; the fast
    // context settles for the second iteration instead of the fourth.
    let detect_iters: u32 = if ctx.fast { 2 } else { 4 };
    let mut report = report_for("ablations");

    // Meta Table capacity: beyond 512 simultaneously live tensors the
    // benefit diminishes (§6.2).
    let entries_sweep: &[usize] = if ctx.fast {
        &[64, 512]
    } else {
        &[32, 64, 128, 256, 512, 1024]
    };
    let mut t = Table::new(["entries", "steady hit_in", "steady latency"])
        .captioned("Ablation — Meta Table capacity (§6.2)");
    for &entries in entries_sweep {
        let mode = TeeMode::TensorTee(TenAnalyzerConfig {
            meta_entries: entries,
            ..TenAnalyzerConfig::default()
        });
        let rep = run_adam(ctx, &ctx.cfg.cpu, mode, &workload, threads, detect_iters);
        let last = rep.iterations.last().unwrap();
        t.row([
            entries.to_string(),
            f2(last.reads.hit_in_rate()),
            last.latency.to_string(),
        ]);
    }
    report.table(t);

    // Tensor Filter collection threshold: §4.2 uses 4 addresses; fewer
    // detects faster but with weaker evidence.
    let threshold_sweep: &[usize] = if ctx.fast { &[2, 4] } else { &[2, 3, 4, 8] };
    let mut t = Table::new([
        "threshold".to_string(),
        "iter-0 hit_all".to_string(),
        format!("iter-{} hit_in", detect_iters - 1),
    ])
    .captioned("Ablation — Tensor Filter collection threshold (§4.2)");
    for &threshold in threshold_sweep {
        let mode = TeeMode::TensorTee(TenAnalyzerConfig {
            filter_threshold: threshold,
            ..TenAnalyzerConfig::default()
        });
        let rep = run_adam(ctx, &ctx.cfg.cpu, mode, &workload, threads, detect_iters);
        let reads = |i: u32| rep.iterations[i as usize].reads;
        t.row([
            threshold.to_string(),
            f2(reads(0).hit_all_rate()),
            f2(reads(detect_iters - 1).hit_in_rate()),
        ]);
    }
    report.table(t);

    // SGX metadata-cache size: Table 1 uses 32 KB — the baseline's only
    // defense against Merkle traffic.
    let cache_sweep: &[u64] = if ctx.fast {
        &[16, 32]
    } else {
        &[8, 16, 32, 64, 128]
    };
    let mut t = Table::new(["metadata cache", "steady SGX latency"])
        .captioned("Ablation — SGX metadata-cache size (Table 1)");
    for &kb in cache_sweep {
        let mut cpu = ctx.cfg.cpu.clone();
        cpu.metadata_cache_bytes = kb << 10;
        let iters = ctx.cfg.cpu_iterations.max(2);
        let rep = run_adam(ctx, &cpu, TeeMode::Sgx, &workload, threads, iters);
        t.row([format!("{kb} KB"), rep.steady_latency(1).to_string()]);
    }
    report.table(t);

    // Staging-protocol AES bandwidth: one engine (8 GB/s) starves
    // transfers; more engines trade area (§3.3).
    let aes_sweep: &[f64] = if ctx.fast {
        &[8.0, 32.0]
    } else {
        &[4.0, 8.0, 16.0, 32.0, 64.0]
    };
    let grad_bytes = ctx.primary_model().grad_bytes();
    let mut t = Table::new(["AES bandwidth", "staged transfer total"])
        .captioned("Ablation — staging-protocol AES bandwidth (§3.3)");
    for &gbs in aes_sweep {
        let mut p = StagingProtocol::with_aes_bandwidth(gbs * 1e9);
        t.row([
            format!("{gbs} GB/s"),
            p.transfer(Time::ZERO, grad_bytes).total().to_string(),
        ]);
    }
    report.table(t);
    report
}

// ---------------------------------------------------------------------
// Strong scaling — multi-NPU data parallelism (scaling_strong artifact).
// ---------------------------------------------------------------------

/// One strong-scaling sample: one cluster size under one mode, in
/// mode-major, cluster-size-minor order.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Full per-phase breakdown.
    pub breakdown: ClusterStepBreakdown,
    /// Bytes each rank puts on the ring (`2·(N−1)/N·grad_bytes`).
    pub ar_wire_bytes: u64,
}

impl ScalingRow {
    /// Step-time speedup relative to `base` (the table uses the same
    /// mode's smallest-cluster sample).
    pub fn speedup_over(&self, base: &ScalingRow) -> f64 {
        base.breakdown.total().as_secs_f64() / self.breakdown.total().as_secs_f64()
    }
}

/// Runs the strong-scaling sweep: a fixed global batch of the primary
/// model split across each size in `ctx.cluster_sizes`, under each mode
/// in `ctx.modes`.
///
/// The table reports step time, speedup over the same mode's smallest
/// cluster, the exposed-communication fraction, and the per-rank
/// all-reduce wire bytes. The shapes to look for: the staging protocol's
/// exposed-comm fraction grows with N (every ring hop pays the §3.3
/// conversion, while per-replica compute shrinks), whereas the direct
/// protocol's stays roughly flat because the collective hides in the
/// backward window.
pub fn scaling_strong(ctx: &RunContext) -> (Vec<ScalingRow>, Report) {
    let model = ctx.primary_model();
    let mut rows = Vec::new();
    // The speedup baseline is each mode's first cluster size — label the
    // column accordingly so a sweep not starting at 1 stays honest.
    let base_n = ctx.cluster_sizes.first().copied().unwrap_or(1);
    let mut table = Table::new([
        "NPUs".to_string(),
        "mode".to_string(),
        "step".to_string(),
        format!("speedup vs N={base_n}"),
        "exposed comm".to_string(),
        "AR wire bytes/rank".to_string(),
    ]);
    for &mode in &ctx.modes {
        let mut base: Option<ScalingRow> = None;
        for &n in &ctx.cluster_sizes {
            let mut sys =
                ClusterSystem::new(ctx.cfg.clone(), ctx.cluster_of(n), mode).with_memo(&ctx.memo);
            let breakdown = sys.simulate_step(&model);
            let ar = sys.all_reduce_cost(model.grad_bytes());
            let row = ScalingRow {
                breakdown,
                ar_wire_bytes: ar.wire_bytes(),
            };
            let base = *base.get_or_insert(row);
            table.row([
                n.to_string(),
                mode.label().to_string(),
                breakdown.total().to_string(),
                format!("{}x", f2(row.speedup_over(&base))),
                pct(breakdown.exposed_comm_fraction()),
                tee_sim::util::fmt_bytes(row.ar_wire_bytes),
            ]);
            rows.push(row);
        }
    }
    let mut report = report_for("scaling_strong");
    report.table(table);
    (rows, report)
}

// ---------------------------------------------------------------------
// Discrete-event cluster engine — analytic parity, stragglers and
// pipeline parallelism (des_parity / des_straggler / des_pipeline).
// ---------------------------------------------------------------------

/// One parity sample: the analytic and discrete-event step of the same
/// configuration.
struct DesParityRow {
    /// The analytic [`ClusterSystem`] breakdown (the oracle).
    analytic: ClusterStepBreakdown,
    /// The DES run replaying the same step as events.
    des: DesStepReport,
}

impl DesParityRow {
    /// Absolute step-total divergence in picoseconds (zero when the DES
    /// reproduces the oracle bit-for-bit).
    fn divergence_ps(&self) -> u64 {
        let a = self.analytic.total().as_ps();
        let d = self.des.breakdown.total().as_ps();
        a.abs_diff(d)
    }
}

/// Runs the differential sweep: every `(cluster size, mode)` pair priced
/// once through the analytic composition and once through the
/// discrete-event engine in lockstep data-parallel mode, both pricing the
/// CPU phase through the context memo so they consume the identical
/// phase.
///
/// The engine's contract is that every row matches **bit-for-bit** — the
/// `max_divergence_ps` metric is 0 and the `match` column all-yes; any
/// other output is a bug in the DES, not model noise (the differential
/// suite in `tests/des_cluster.rs` enforces the same equality over a
/// wider grid).
pub fn des_parity(ctx: &RunContext) -> Report {
    let model = ctx.primary_model();
    let schedule = StepSchedule::of(&model);
    let mut rows = Vec::new();
    let mut table = Table::new([
        "NPUs",
        "mode",
        "analytic",
        "DES",
        "match",
        "events",
        "contention",
    ]);
    for &mode in &ctx.modes {
        for &n in &ctx.cluster_sizes {
            let analytic = ClusterSystem::new(ctx.cfg.clone(), ctx.cluster_of(n), mode)
                .with_memo(&ctx.memo)
                .simulate_schedule(&schedule);
            let des = DesClusterSystem::new(
                ctx.cfg.clone(),
                DesClusterConfig::lockstep(ctx.cluster_of(n)),
                mode,
            )
            .with_memo(&ctx.memo)
            .with_probe(ctx.probe.clone())
            .simulate_schedule(&schedule);
            table.row([
                n.to_string(),
                mode.label().to_string(),
                analytic.total().to_string(),
                des.breakdown.total().to_string(),
                if des.breakdown == analytic {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
                des.events.to_string(),
                des.fabric_contention.to_string(),
            ]);
            rows.push(DesParityRow { analytic, des });
        }
    }
    let max_div = rows
        .iter()
        .map(DesParityRow::divergence_ps)
        .max()
        .unwrap_or(0);
    let mut report = report_for("des_parity");
    report.metric("max_divergence_ps", max_div as f64);
    report.metric(
        "exact_rows",
        rows.iter()
            .filter(|r| r.des.breakdown == r.analytic)
            .count() as f64,
    );
    report.table(table);
    report.note(
        "lockstep data-parallel DES replays the analytic composition event-by-event; \
         every breakdown field must match bit-for-bit",
    );
    report
}

/// Runs the heterogeneous-cluster sweep: the largest configured cluster
/// with its last rank slowed by each factor in `ctx.straggler_factors`,
/// under each mode.
///
/// The shape to look for: a straggler stretches the backward window of
/// the slow rank, so the *direct* protocol hides more of the collective
/// behind it (exposed `comm_ar` shrinks as the factor grows) while the
/// staging protocol's serialized hops stay fully exposed — heterogeneity
/// widens TensorTEE's lead rather than eroding it.
pub fn des_straggler(ctx: &RunContext) -> Report {
    let model = ctx.primary_model();
    let schedule = StepSchedule::of(&model);
    let n = ctx.cluster_sizes.iter().copied().max().unwrap_or(4).max(2);
    let mut table = Table::new([
        "mode",
        "straggler",
        "step",
        "NPU",
        "exposed AR",
        "exposed comm",
    ]);
    for &mode in &ctx.modes {
        for &factor in &ctx.straggler_factors {
            let des = DesClusterSystem::new(
                ctx.cfg.clone(),
                DesClusterConfig::lockstep(ctx.cluster_of(n)).with_straggler(factor),
                mode,
            )
            .with_memo(&ctx.memo)
            .with_probe(ctx.probe.clone())
            .simulate_schedule(&schedule);
            table.row([
                mode.label().to_string(),
                format!("{factor:.2}x"),
                des.breakdown.total().to_string(),
                des.breakdown.npu.to_string(),
                des.breakdown.comm_ar.to_string(),
                pct(des.breakdown.exposed_comm_fraction()),
            ]);
        }
    }
    let mut report = report_for("des_straggler");
    report.metric("n_npus", n as f64);
    report.table(table);
    report.note(format!(
        "last rank of {n} slowed by each factor; only the DES engine can price this skew"
    ));
    report
}

/// The ideal GPipe bubble fraction `(S−1)/(M+S−1)` of `stages` stages
/// fed `microbatches` microbatches.
fn ideal_bubble_fraction(stages: u32, microbatches: u32) -> f64 {
    let s = stages as f64;
    let m = microbatches as f64;
    (s - 1.0) / (m + s - 1.0)
}

/// Runs the pipeline-parallel sweep: the model split into N contiguous
/// stages with each microbatch's boundary activations crossing the
/// shared NPU fabric, under each mode and microbatch count.
///
/// The shapes to look for: more microbatches shrink the fill/drain
/// bubble toward the `(S−1)/(M+S−1)` ideal, and overlapping boundary
/// hops *contend* on the fabric — the staging protocol additionally pays
/// a per-hop conversion on every boundary (the `crypto` column), which
/// the direct protocol eliminates.
pub fn des_pipeline(ctx: &RunContext) -> Report {
    let model = ctx.primary_model();
    let schedule = StepSchedule::of(&model);
    let n = ctx.cluster_sizes.iter().copied().max().unwrap_or(4).max(2);
    let mut table = Table::new([
        "mode",
        "microbatches",
        "step",
        "compute front",
        "ideal bubble",
        "contention",
        "crypto",
    ]);
    for &mode in &ctx.modes {
        for &m in &ctx.pipeline_microbatches {
            let des = DesClusterSystem::new(
                ctx.cfg.clone(),
                DesClusterConfig::lockstep(ctx.cluster_of(n)).with_pipeline(m),
                mode,
            )
            .with_memo(&ctx.memo)
            .with_probe(ctx.probe.clone())
            .simulate_schedule(&schedule);
            table.row([
                mode.label().to_string(),
                m.to_string(),
                des.breakdown.total().to_string(),
                des.breakdown.npu.to_string(),
                pct(ideal_bubble_fraction(n, m)),
                des.fabric_contention.to_string(),
                des.crypto.to_string(),
            ]);
        }
    }
    let mut report = report_for("des_pipeline");
    report.metric("stages", n as f64);
    report.table(table);
    report.note(
        "boundary activations of in-flight microbatches share one fabric; \
         contention and per-boundary crypto are DES-only observables",
    );
    report
}

// ---------------------------------------------------------------------
// Inference serving — latency/goodput per mode and the load sweep
// (serve_latency / serve_sweep; tee-serve extension).
// ---------------------------------------------------------------------

/// The serving [`SecurityProfile`] of a training-side [`crate::SecureMode`]
/// under `cfg`: the same MAC scheme (at the configured MGX granularity)
/// and transfer protocol the step simulator uses, applied to decode
/// streams and KV migration.
pub fn serve_profile(mode: crate::SecureMode, cfg: &crate::SystemConfig) -> SecurityProfile {
    SecurityProfile {
        mac: mode.mac_scheme(cfg.mgx_mac_granularity),
        kv_protocol: mode.protocol(),
    }
}

/// Metric-name suffix for a mode (`goodput_tensortee`, …); the explore
/// runners share it for their per-mode metrics.
pub(crate) fn mode_key(mode: crate::SecureMode) -> &'static str {
    match mode {
        crate::SecureMode::NonSecure => "non_secure",
        crate::SecureMode::SgxMgx => "sgx_mgx",
        crate::SecureMode::TensorTee => "tensortee",
    }
}

/// The shared serving setup: the primary model, a serving system whose
/// KV HBM budget holds ~4 steady-state requests (so sustained load
/// spills KV to CPU DRAM), and the seeded Poisson trace shape.
fn serve_setup(ctx: &RunContext) -> (ModelConfig, ServeConfig, TraceConfig) {
    let model = ctx.primary_model();
    let mut trace = TraceConfig::poisson(ctx.serve_requests, SERVE_RATE_RPS, ctx.seed);
    ctx.trim_serve_trace(&mut trace);
    let cfg =
        ServeConfig::for_model(&model, 4, trace.steady_tokens()).with_npu(ctx.cfg.npu.clone());
    (model, cfg, trace)
}

/// One serving sample: one mode on the shared trace.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Security mode.
    pub mode: crate::SecureMode,
    /// The full serving report.
    pub report: ServeReport,
}

/// Appends one `mode | completed | TTFT | TPOT | p99 | goodput | exposed
/// KV` row per sample to `table`.
fn serve_table_rows(table: &mut Table, rows: &[ServeRow]) {
    for r in rows {
        let rep = &r.report;
        table.row([
            r.mode.label().to_string(),
            format!("{}/{}", rep.completed_requests, rep.total_requests),
            rep.ttft_percentile(0.50).unwrap_or(Time::ZERO).to_string(),
            rep.ttft_percentile(0.99).unwrap_or(Time::ZERO).to_string(),
            rep.tpot_mean().to_string(),
            rep.latency_percentile(0.99)
                .unwrap_or(Time::ZERO)
                .to_string(),
            format!("{:.0} tok/s", rep.goodput_tps()),
            rep.kv_exposed_time.to_string(),
        ]);
    }
}

/// Runs the `serve_latency` artifact: the seeded Poisson trace served
/// under every context mode, reporting TTFT/TPOT/p99 latency, goodput
/// and the exposed KV-migration time per mode.
pub fn serve_latency(ctx: &RunContext) -> (Vec<ServeRow>, Report) {
    let (model, cfg, trace_cfg) = serve_setup(ctx);
    let trace = trace_cfg.generate();
    let rows: Vec<ServeRow> = ctx
        .modes
        .iter()
        .map(|&mode| ServeRow {
            mode,
            report: simulate_probed(
                &cfg,
                &model,
                &serve_profile(mode, &ctx.cfg),
                &trace,
                &ctx.probe,
            ),
        })
        .collect();
    let mut table = Table::new([
        "mode",
        "completed",
        "TTFT p50",
        "TTFT p99",
        "TPOT",
        "latency p99",
        "goodput",
        "exposed KV",
    ]);
    serve_table_rows(&mut table, &rows);
    let mut report = report_for("serve_latency");
    report.table(table);
    for r in &rows {
        let key = mode_key(r.mode);
        report.metric(format!("goodput_{key}"), r.report.goodput_tps());
        report.metric(
            format!("exposed_kv_ms_{key}"),
            r.report.kv_exposed_time.as_ms_f64(),
        );
        report.metric(
            format!("ttft_p99_ms_{key}"),
            r.report
                .ttft_percentile(0.99)
                .unwrap_or(Time::ZERO)
                .as_ms_f64(),
        );
    }
    let find = |m: crate::SecureMode| rows.iter().find(|r| r.mode == m);
    if let (Some(base), Some(ours)) = (
        find(crate::SecureMode::SgxMgx),
        find(crate::SecureMode::TensorTee),
    ) {
        report.note(format!(
            "{} requests ({} prompt / {} output tokens mean) at {} req/s, seed {}: \
             TensorTEE goodput {:.0} tok/s vs SGX+MGX {:.0} tok/s ({:.2}x); \
             exposed KV-transfer time {} vs {}.",
            trace.len(),
            trace_cfg.prompt_mean,
            trace_cfg.output_mean,
            trace_cfg.arrivals.rate_rps(),
            trace_cfg.seed,
            ours.report.goodput_tps(),
            base.report.goodput_tps(),
            ours.report.goodput_tps() / base.report.goodput_tps().max(1e-12),
            ours.report.kv_exposed_time,
            base.report.kv_exposed_time,
        ));
    }
    (rows, report)
}

/// One `serve_sweep` sample: one load point, one arrival pattern, one
/// mode.
#[derive(Debug, Clone)]
pub struct ServeSweepRow {
    /// Offered load multiplier of the context's nominal rate.
    pub load_factor: f64,
    /// Arrival pattern label (`poisson` / `bursty`).
    pub pattern: &'static str,
    /// Security mode.
    pub mode: crate::SecureMode,
    /// The full serving report.
    pub report: ServeReport,
}

/// Runs the `serve_sweep` artifact: goodput and tail latency across
/// offered-load multipliers and arrival burstiness, per mode.
pub fn serve_sweep(ctx: &RunContext) -> (Vec<ServeSweepRow>, Report) {
    let (model, cfg, base_trace) = serve_setup(ctx);
    let mut rows = Vec::new();
    let mut table = Table::new([
        "load",
        "pattern",
        "mode",
        "completed",
        "goodput",
        "TTFT p99",
        "exposed KV",
    ]);
    for &factor in &ctx.serve_load_factors {
        let rate = SERVE_RATE_RPS * factor;
        let poisson = TraceConfig::poisson(ctx.serve_requests, rate, ctx.seed);
        let bursty = TraceConfig::bursty(ctx.serve_requests, rate, 8, ctx.seed);
        for mut trace_cfg in [poisson, bursty] {
            trace_cfg.prompt_mean = base_trace.prompt_mean;
            trace_cfg.output_mean = base_trace.output_mean;
            let trace = trace_cfg.generate();
            for &mode in &ctx.modes {
                let profile = serve_profile(mode, &ctx.cfg);
                let report = simulate_probed(&cfg, &model, &profile, &trace, &ctx.probe);
                table.row([
                    format!("{:.1}x", factor),
                    trace_cfg.arrivals.label().to_string(),
                    mode.label().to_string(),
                    format!("{}/{}", report.completed_requests, report.total_requests),
                    format!("{:.0} tok/s", report.goodput_tps()),
                    report
                        .ttft_percentile(0.99)
                        .unwrap_or(Time::ZERO)
                        .to_string(),
                    report.kv_exposed_time.to_string(),
                ]);
                rows.push(ServeSweepRow {
                    load_factor: factor,
                    pattern: trace_cfg.arrivals.label(),
                    mode,
                    report,
                });
            }
        }
    }
    let mut report = report_for("serve_sweep");
    report.table(table);
    // Headline: each mode's goodput at the highest Poisson load.
    if let Some(&top) = ctx
        .serve_load_factors
        .iter()
        .max_by(|a, b| a.partial_cmp(b).expect("finite factors"))
    {
        for &mode in &ctx.modes {
            if let Some(r) = rows
                .iter()
                .find(|r| r.load_factor == top && r.pattern == "poisson" && r.mode == mode)
            {
                report.metric(
                    format!("peak_goodput_{}", mode_key(mode)),
                    r.report.goodput_tps(),
                );
            }
        }
    }
    (rows, report)
}

// ---------------------------------------------------------------------

/// The shared fleet setup: the primary model served by
/// [`RunContext::fleet_instances`] continuous-batching instances, and the
/// seeded multi-tenant session trace both fleet artifacts replay.
pub(crate) fn fleet_setup(ctx: &RunContext) -> (ModelConfig, FleetConfig, SessionTraceConfig) {
    let model = ctx.primary_model();
    let mut trace = SessionTraceConfig::poisson(
        ctx.fleet_requests,
        ctx.fleet_rate_rps,
        FLEET_TENANTS,
        ctx.seed,
    );
    ctx.trim_fleet_trace(&mut trace);
    let serve =
        ServeConfig::for_model(&model, 4, trace.steady_tokens()).with_npu(ctx.cfg.npu.clone());
    let cfg = FleetConfig::new(serve, ctx.fleet_instances);
    (model, cfg, trace)
}

/// The [`fleet_setup`] trace served round-robin under the TensorTEE
/// profile, recorded into a fresh probe: the model, the trace, the report
/// and the recording (`obs_utilization`'s fleet run, which the attack
/// artifacts observe).
pub(crate) fn traced_round_robin_fleet(
    ctx: &RunContext,
) -> (ModelConfig, Vec<SessionRequest>, FleetReport, TraceProbe) {
    let (model, cfg, trace_cfg) = fleet_setup(ctx);
    let trace = trace_cfg.generate();
    let probe = SharedProbe::recording();
    let report = fleet_simulate(
        &cfg.with_policy(Policy::RoundRobin),
        &model,
        &serve_profile(crate::SecureMode::TensorTee, &ctx.cfg),
        &trace,
        &probe,
    );
    let snap = probe.snapshot().expect("freshly created recording probe");
    (model, trace, report, snap)
}

/// One fleet sample: one placement policy, one mode, the shared trace.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Placement policy.
    pub policy: Policy,
    /// Security mode.
    pub mode: crate::SecureMode,
    /// The full fleet report.
    pub report: FleetReport,
}

/// Formats an optional nanosecond percentile as a [`Time`].
fn ns_opt(ns: Option<u64>) -> String {
    Time::from_ns(ns.unwrap_or(0)).to_string()
}

/// Runs the `fleet_latency` artifact: the seeded multi-tenant session
/// trace served by the fleet under KV-aware placement, per mode —
/// TTFT/TPOT, goodput, and the exposed KV-handoff time migrations cost.
pub fn fleet_latency(ctx: &RunContext) -> (Vec<FleetRow>, Report) {
    let (model, cfg, trace_cfg) = fleet_setup(ctx);
    let trace = trace_cfg.generate();
    let rows: Vec<FleetRow> = ctx
        .modes
        .iter()
        .map(|&mode| FleetRow {
            policy: Policy::KvAware,
            mode,
            report: fleet_simulate(
                &cfg,
                &model,
                &serve_profile(mode, &ctx.cfg),
                &trace,
                &ctx.probe,
            ),
        })
        .collect();
    let mut table = Table::new([
        "mode",
        "completed",
        "TTFT p50",
        "TTFT p99",
        "TPOT",
        "goodput",
        "migrations",
        "exposed handoff",
    ]);
    for r in &rows {
        let rep = &r.report;
        table.row([
            r.mode.label().to_string(),
            format!("{}/{}", rep.completed_requests, rep.total_requests),
            ns_opt(rep.ttft_percentile(0.50)),
            ns_opt(rep.ttft_percentile(0.99)),
            Time::from_ns(rep.tpot_mean().round() as u64).to_string(),
            format!("{:.0} tok/s", rep.goodput_tps()),
            rep.migrations.to_string(),
            rep.handoff_exposed_time.to_string(),
        ]);
    }
    let mut report = report_for("fleet_latency");
    report.table(table);
    for r in &rows {
        let key = mode_key(r.mode);
        report.metric(format!("fleet_goodput_{key}"), r.report.goodput_tps());
        report.metric(
            format!("fleet_exposed_handoff_ms_{key}"),
            r.report.handoff_exposed_time.as_ms_f64(),
        );
        report.metric(
            format!("fleet_ttft_p99_ms_{key}"),
            Time::from_ns(r.report.ttft_percentile(0.99).unwrap_or(0)).as_ms_f64(),
        );
    }
    let find = |m: crate::SecureMode| rows.iter().find(|r| r.mode == m);
    if let (Some(base), Some(ours)) = (
        find(crate::SecureMode::SgxMgx),
        find(crate::SecureMode::TensorTee),
    ) {
        report.note(format!(
            "{} turns across {} tenants at {} turns/s on {} instances (KV-aware, seed {}): \
             TensorTEE goodput {:.0} tok/s vs SGX+MGX {:.0} tok/s; \
             exposed KV-handoff time {} vs {}.",
            trace.len(),
            trace_cfg.tenants,
            trace_cfg.rate_rps,
            ctx.fleet_instances,
            trace_cfg.seed,
            ours.report.goodput_tps(),
            base.report.goodput_tps(),
            ours.report.handoff_exposed_time,
            base.report.handoff_exposed_time,
        ));
    }
    (rows, report)
}

/// Runs the `fleet_handoff` artifact: the placement-policy × handoff-
/// protocol grid — migrations, migrated bytes, and per-migration exposed
/// handoff time for every combination on the shared trace.
pub fn fleet_handoff(ctx: &RunContext) -> (Vec<FleetRow>, Report) {
    let (model, cfg, trace_cfg) = fleet_setup(ctx);
    let trace = trace_cfg.generate();
    let mut rows = Vec::new();
    let mut table = Table::new([
        "policy",
        "mode",
        "completed",
        "migrations",
        "migration rate",
        "migrated",
        "exposed / migration",
    ]);
    for policy in Policy::all() {
        let run_cfg = cfg.clone().with_policy(policy);
        for &mode in &ctx.modes {
            let profile = serve_profile(mode, &ctx.cfg);
            let report = fleet_simulate(&run_cfg, &model, &profile, &trace, &ctx.probe);
            table.row([
                policy.label().to_string(),
                mode.label().to_string(),
                format!("{}/{}", report.completed_requests, report.total_requests),
                report.migrations.to_string(),
                pct(report.migration_rate()),
                format!("{:.1} MB", report.migrated_bytes as f64 / 1e6),
                Time::from_ns(report.exposed_per_migration_ns().round() as u64).to_string(),
            ]);
            rows.push(FleetRow {
                policy,
                mode,
                report,
            });
        }
    }
    let mut report = report_for("fleet_handoff");
    report.table(table);
    let find = |p: Policy, m: crate::SecureMode| {
        rows.iter()
            .find(|r| r.policy == p && r.mode == m)
            .map(|r| &r.report)
    };
    for policy in Policy::all() {
        if let Some(rep) = find(policy, crate::SecureMode::TensorTee) {
            report.metric(
                format!("migrations_{}", policy.label()),
                rep.migrations as f64,
            );
        }
    }
    if let (Some(kv), Some(rr)) = (
        find(Policy::KvAware, crate::SecureMode::TensorTee),
        find(Policy::RoundRobin, crate::SecureMode::TensorTee),
    ) {
        report.metric("migration_cut_vs_round_robin", {
            let rr_m = rr.migrations as f64;
            if rr_m > 0.0 {
                1.0 - kv.migrations as f64 / rr_m
            } else {
                0.0
            }
        });
        report.note(format!(
            "KV-aware placement: {} migrations vs {} under round-robin \
             ({} follow-up turns stayed local).",
            kv.migrations,
            rr.migrations,
            kv.router_stats.get("local_turns"),
        ));
    }
    if let (Some(staged), Some(direct)) = (
        find(Policy::RoundRobin, crate::SecureMode::SgxMgx),
        find(Policy::RoundRobin, crate::SecureMode::TensorTee),
    ) {
        report.metric(
            "exposed_per_migration_staged_ns",
            staged.exposed_per_migration_ns(),
        );
        report.metric(
            "exposed_per_migration_direct_ns",
            direct.exposed_per_migration_ns(),
        );
        report.note(format!(
            "Forced migrations (round-robin): staged exposes {} per migration, \
             direct {} — the overlap gap re-appears at fleet scale.",
            Time::from_ns(staged.exposed_per_migration_ns().round() as u64),
            Time::from_ns(direct.exposed_per_migration_ns().round() as u64),
        ));
    }
    (rows, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SecureMode;

    fn ctx() -> RunContext {
        RunContext::fast()
    }

    #[test]
    fn fig03_slowdown_grows_with_threads() {
        let (rows, report) = fig03_cpu_slowdown(&ctx());
        assert!(report.to_markdown().contains("slowdown"));
        assert!(report.metric_value("max_slowdown").unwrap() > 1.0);
        assert!(rows.iter().all(|r| r.slowdown() > 1.0));
        assert!(
            rows.last().unwrap().slowdown() > rows[0].slowdown(),
            "more threads → more memory pressure → bigger SGX slowdown: {:?}",
            rows.iter().map(Fig3Row::slowdown).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fig04_census_renders_all_models() {
        let md = fig04_tensor_census(&RunContext::full()).to_markdown();
        assert!(md.contains("GPT2-M"));
        assert!(md.contains("OPT-6.7B"));
    }

    #[test]
    fn fig15_timelines_render() {
        let md = fig15_overlap(&ctx()).to_markdown();
        assert!(md.contains("Baseline"));
        assert!(md.contains("TensorTEE"));
        assert!(md.contains("backward"));
    }

    #[test]
    fn fig16_shapes_hold_on_subset() {
        let (rows, report) = fig16_overall(&ctx());
        assert!(report.to_markdown().contains("speedup"));
        for r in &rows {
            assert!(r.speedup() > 1.5, "{}: {:.2}", r.model.name, r.speedup());
            assert!(r.overhead() < 0.25, "{}: {:.3}", r.model.name, r.overhead());
        }
        let last = rows.last().unwrap();
        assert!(last.speedup() > rows[0].speedup(), "grows with size");
        let avg = report.metric_value("avg_speedup").unwrap();
        assert!(avg > 1.5, "{avg}");
    }

    #[test]
    fn fig18_converges() {
        let (rows, _) = fig18_hit_rate(&ctx());
        let last = rows.last().unwrap();
        assert!(last.hit_in > 0.8, "late hit_in {}", last.hit_in);
        assert!(rows[1].hit_all > 0.5, "hit_all high after one iteration");
    }

    #[test]
    fn fig20_sweep_shape() {
        let (rows, report) = fig20_mac_granularity(&ctx());
        assert!(report.to_markdown().contains("tensor-delayed"));
        let find = |l: &str| rows.iter().find(|r| r.label == l).unwrap().slowdown;
        assert!(find("64B") > find("512B"));
        assert!(find("4kB") > find("512B"));
        assert!(find("tensor-delayed") < 1.05);
        assert_eq!(
            report.metric_value("tensor_delayed_slowdown"),
            Some(find("tensor-delayed"))
        );
    }

    #[test]
    fn fig21_improvement_large() {
        let context = ctx().with_models(vec![TABLE2[1]]);
        let (rows, report) = fig21_comm_breakdown(&context);
        assert!(report.to_markdown().contains("improvement"));
        assert!(rows[0].improvement() > 5.0, "{:.1}", rows[0].improvement());
    }

    #[test]
    fn fig21_prices_transfers_on_the_configured_bus() {
        // Off the Gen4 default, Figure 21's columns must still be the
        // training system's gradient transfer (fig16/fig17's comm phase).
        let mut context = ctx();
        context.cfg.pcie_bytes_per_sec = 16.0e9;
        let (rows, _) = fig21_comm_breakdown(&context);
        assert_eq!(rows.len(), context.models.len());
        for row in &rows {
            let schedule = StepSchedule::of(&row.model);
            let grad = |mode| {
                TrainingSystem::new(context.cfg.clone(), mode)
                    .comm_costs(&schedule)
                    .grad
            };
            let base = grad(SecureMode::SgxMgx);
            assert_eq!(
                (row.base_reenc, row.base_comm, row.base_dec),
                (base.re_encryption, base.comm, base.decryption),
                "{}",
                row.model.name
            );
            assert_eq!(row.ours_comm, grad(SecureMode::TensorTee).comm);
        }
    }

    #[test]
    fn sec62_hit_rate_high() {
        let (rate, report) = sec62_gemm_detection(&ctx());
        assert!(rate > 0.95, "{rate}");
        assert!(report.to_markdown().contains("98.8%"));
        assert_eq!(report.metric_value("hit_in"), Some(rate));
    }

    #[test]
    fn sec65_and_tab2_render() {
        let md = sec65_hw_overhead(&ctx()).to_markdown();
        assert!(md.contains("Meta Table"));
        assert!(md.contains("KB"));
        let md = tab2_workloads(&ctx()).to_markdown();
        assert!(md.contains("OPT-6.7B"));
        assert!(md.contains("hidden"));
    }

    #[test]
    fn ablations_sweeps_render() {
        let md = ablations(&ctx()).to_markdown();
        assert!(md.contains("Meta Table capacity"));
        assert!(md.contains("Tensor Filter collection threshold"));
        assert!(md.contains("metadata-cache size"));
        assert!(md.contains("AES bandwidth"));
    }

    #[test]
    fn serve_latency_orders_the_modes() {
        let (rows, report) = serve_latency(&ctx());
        assert_eq!(rows.len(), 3);
        let get = |m: SecureMode| {
            rows.iter()
                .find(|r| r.mode == m)
                .map(|r| r.report.clone())
                .unwrap()
        };
        let ns = get(SecureMode::NonSecure);
        let base = get(SecureMode::SgxMgx);
        let ours = get(SecureMode::TensorTee);
        // Everyone drains the trace; goodput and exposed-KV orderings are
        // the serving analogue of Figure 16.
        for r in [&ns, &base, &ours] {
            assert_eq!(r.completed_requests, r.total_requests);
        }
        assert!(ours.goodput_tps() >= base.goodput_tps());
        assert!(ns.goodput_tps() >= ours.goodput_tps());
        assert!(
            ours.kv_exposed_time < base.kv_exposed_time,
            "direct must expose strictly less KV-transfer time: {} vs {}",
            ours.kv_exposed_time,
            base.kv_exposed_time
        );
        assert!(
            base.kv_stats.get("offloads") > 0,
            "budget must force spills"
        );
        let md = report.to_markdown();
        assert!(md.contains("goodput"));
        assert!(report.metric_value("goodput_tensortee").unwrap() > 0.0);
    }

    #[test]
    fn serving_prices_the_configured_mgx_granularity() {
        // A context at 4 KiB MGX blocks prices fig16/fig17 at 4 KiB, so
        // its SGX+MGX serving row must be priced at 4 KiB too; the other
        // modes have no MGX blocks and match the Table-1 context.
        let table1 = serve_latency(&ctx()).0;
        let mut coarse = ctx();
        coarse.cfg.mgx_mac_granularity = 4096;
        let rows = serve_latency(&coarse).0;
        let (model, cfg, trace_cfg) = serve_setup(&coarse);
        let sgx_4k = SecurityProfile {
            mac: tee_npu::MacScheme::PerBlock { granularity: 4096 },
            ..SecurityProfile::sgx_mgx()
        };
        let want = tee_serve::simulate(&cfg, &model, &sgx_4k, &trace_cfg.generate());
        assert_eq!(rows.len(), table1.len());
        for (row, base) in rows.iter().zip(&table1) {
            assert_eq!(row.mode, base.mode);
            if row.mode == SecureMode::SgxMgx {
                assert_eq!(row.report, want, "SGX+MGX priced at 4 KiB blocks");
                assert_ne!(row.report, base.report);
            } else {
                assert_eq!(row.report, base.report, "{}", row.mode.label());
            }
        }
    }

    #[test]
    fn serve_sweep_covers_the_grid() {
        let context = ctx();
        let (rows, report) = serve_sweep(&context);
        assert_eq!(
            rows.len(),
            context.serve_load_factors.len() * 2 * context.modes.len()
        );
        assert!(report.to_markdown().contains("bursty"));
        assert!(report.metric_value("peak_goodput_tensortee").unwrap() > 0.0);
        // Every sample drains its trace regardless of load or burstiness.
        for r in &rows {
            assert_eq!(r.report.completed_requests, r.report.total_requests);
        }
    }

    #[test]
    fn fleet_latency_compares_the_modes() {
        let (rows, report) = fleet_latency(&ctx());
        assert_eq!(rows.len(), ctx().modes.len());
        let md = report.to_markdown();
        assert!(md.contains("exposed handoff"));
        assert!(report.metric_value("fleet_goodput_tensortee").unwrap() > 0.0);
        let find = |m: SecureMode| &rows.iter().find(|r| r.mode == m).unwrap().report;
        let staged = find(SecureMode::SgxMgx);
        let direct = find(SecureMode::TensorTee);
        // Same trace, same placement → the same migration count; the
        // staged protocol exposes more of each handoff.
        assert_eq!(staged.migrations, direct.migrations);
        if staged.migrations > 0 {
            assert!(staged.handoff_exposed_time > direct.handoff_exposed_time);
        }
    }

    #[test]
    fn fleet_handoff_covers_the_grid() {
        let context = ctx();
        let (rows, report) = fleet_handoff(&context);
        assert_eq!(rows.len(), 3 * context.modes.len());
        assert!(report.to_markdown().contains("kv_aware"));
        let migr = |l: &str| report.metric_value(&format!("migrations_{l}")).unwrap();
        assert!(
            migr("kv_aware") < migr("round_robin"),
            "kv-aware {} vs round-robin {}",
            migr("kv_aware"),
            migr("round_robin")
        );
        let staged = report
            .metric_value("exposed_per_migration_staged_ns")
            .unwrap();
        let direct = report
            .metric_value("exposed_per_migration_direct_ns")
            .unwrap();
        assert!(direct < staged, "direct {direct} vs staged {staged}");
    }

    #[test]
    fn scaling_table_shape() {
        // GPT 117M keeps the sweep fast.
        let context = ctx()
            .with_models(vec![TABLE2[0]])
            .with_modes(vec![SecureMode::SgxMgx, SecureMode::TensorTee]);
        let (rows, report) = scaling_strong(&context);
        assert_eq!(
            rows.len(),
            context.modes.len() * context.cluster_sizes.len()
        );
        assert!(report.to_markdown().contains("exposed comm"));
        // N=1 rows have no ring traffic; N>1 rows do.
        let sizes = context.cluster_sizes.iter().cycle();
        for (r, &n) in rows.iter().zip(sizes) {
            if n == 1 {
                assert_eq!(r.ar_wire_bytes, 0);
                assert_eq!(r.breakdown.comm_ar, Time::ZERO);
            } else {
                assert!(r.ar_wire_bytes > 0);
            }
        }
    }
}
