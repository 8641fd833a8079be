//! Frozen-input layer rows: each times one layer's public function on an
//! input the benchmark builds, independent of the workload seed.

use crate::spans::Recorder;
use std::hint::black_box;
use std::time::Instant;
use tee_cpu::{AdamWorkload, CpuEngine, TeeMode, TenAnalyzerConfig, TensorDesc};
use tee_fleet::IterCost;
use tee_mem::metadata::MetaKind;
use tee_mem::{CacheHierarchy, DramModel, MetadataCache};
use tee_npu::{Layer, MacScheme, NpuEngine};
use tee_serve::SecurityProfile;
use tee_sim::{EventQueue, SplitMix64, Time};
use tee_workloads::zoo::by_name;
use tee_workloads::StepSchedule;
use tensortee::artifact::RunContext;
use tensortee::{DesClusterConfig, DesClusterSystem, SecureMode, SystemConfig};

/// Timed batches per row; a row reports the median batch.
const BATCHES: usize = 5;
/// Lines per tensor in the streaming stream: four 4 MiB tensors, twice the
/// 8 MiB L3, so the hierarchy keeps missing as in the Adam sweep.
const STREAM_LINES: u64 = 1 << 16;
/// Events of the `EventQueue` hold model, and the live events it keeps.
const QUEUE_EVENTS: u64 = 1 << 20;
const QUEUE_LIVE: u64 = 4096;

/// The measured rows plus the exact counts the goldens pin.
pub struct LayerRows {
    pub rows: Vec<(String, f64)>,
    pub counts: Vec<(&'static str, u64)>,
}

/// Runs `f` in [`BATCHES`] timed batches inside a span named `name` and
/// returns the median batch in ns, divided by `per_batch` operations.
fn median_ns(rec: &mut Recorder, name: &str, per_batch: u64, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            rec.enter(name);
            let t = Instant::now();
            f();
            let ns = t.elapsed().as_nanos() as f64;
            rec.exit();
            ns / per_batch as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

/// The streaming line addresses: w, g, m, v interleaved line by line,
/// with g read-only.
fn stream() -> Vec<(u64, bool)> {
    let bases = [
        0x0100_0000_0000u64,
        0x0200_0000_0000,
        0x0300_0000_0000,
        0x0400_0000_0000,
    ];
    (0..STREAM_LINES)
        .flat_map(|i| bases.map(|b| (b + i * 64, b != bases[1])))
        .collect()
}

/// One fused decode iteration of GPT2-M: 16 requests at the serving
/// workload's steady context, shaped like the serve scheduler's iteration
/// layer (weights stream once, KV streams per request).
fn decode_iteration_layer() -> Layer {
    let m = by_name("GPT2-M").expect("GPT2-M is a Table-2 model");
    let (h, layers, fp16) = (m.hidden, m.layers, 2);
    let (r, ctx) = (16u64, 304u64);
    let kv_per_layer = 2 * h * fp16;
    Layer {
        macs: layers * (r * 12 * h * h + r * ctx * 2 * h),
        in_bytes: r * ctx * kv_per_layer * layers + r * h * fp16 * layers,
        w_bytes: 12 * h * h * fp16 * layers,
        out_bytes: r * h * fp16 * layers + r * kv_per_layer * layers,
    }
}

/// Hold-model churn: seed the live events, then pop one and schedule a
/// successor until `QUEUE_EVENTS` pops. Returns a checksum of the pops.
fn queue_hold_model() -> u64 {
    let mut rng = SplitMix64::new(0x5EED_CA1E_0DA0);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..QUEUE_LIVE {
        q.schedule(Time::from_ns(rng.next_below(1_000_000)), i);
    }
    let mut next = QUEUE_LIVE;
    let mut checksum = 0u64;
    for _ in 0..QUEUE_EVENTS {
        let (now, e) = q.pop().expect("the hold model keeps the queue non-empty");
        checksum = checksum.wrapping_add(e ^ now.as_ps());
        if next < QUEUE_EVENTS {
            q.schedule(now + Time::from_ns(1 + rng.next_below(1_000_000)), next);
            next += 1;
        }
    }
    checksum
}

pub fn measure(rec: &mut Recorder) -> LayerRows {
    let cfg = SystemConfig::fast_sim();
    let ctx = RunContext::fast();
    let model = ctx.primary_model();
    let schedule = StepSchedule::of(&model);
    let mut rows: Vec<(String, f64)> = Vec::new();

    // tee-cpu: one run_adam on the workload TrainingSystem::cpu_time builds.
    let scaled = schedule.scaled(cfg.sim_scale);
    let adam = AdamWorkload::from_tensor_sizes(&scaled.adam_tensor_sizes);
    let (mut adam_ns, mut dram_reqs) = (0.0, 0u64);
    for (key, mode) in [
        ("non_secure", TeeMode::NonSecure),
        ("sgx_mgx", TeeMode::Sgx),
        (
            "tensortee",
            TeeMode::TensorTee(TenAnalyzerConfig::default()),
        ),
    ] {
        let tensortee = matches!(mode, TeeMode::TensorTee(_));
        let mut reqs = 0;
        let ns = median_ns(rec, &format!("cpu.run_adam.{key}"), 1, || {
            let mut engine = CpuEngine::new(cfg.cpu.clone(), mode.clone());
            if tensortee {
                let descs: Vec<TensorDesc> = adam
                    .tensors
                    .iter()
                    .flat_map(|s| [s.w, s.g, s.m, s.v])
                    .collect();
                engine.preload_tensors(&descs);
            }
            let report = engine.run_adam(&adam, cfg.cpu_threads, cfg.cpu_iterations);
            reqs = report
                .iterations
                .iter()
                .map(|i| i.demand + i.metadata)
                .sum();
        });
        rows.push((format!("cpu.adam_ms.{key}"), ns / 1e6));
        adam_ns += ns;
        dram_reqs += reqs;
    }
    rows.push(("cpu.ns_per_dram_req".into(), adam_ns / dram_reqs as f64));

    // tee-mem: the three structures on one frozen streaming stream.
    let lines = stream();
    let n = lines.len() as u64;
    let mut hierarchy = CacheHierarchy::new(cfg.cpu.hierarchy);
    let ns = median_ns(rec, "mem.hierarchy", n, || {
        for &(addr, write) in &lines {
            black_box(hierarchy.access(0, addr, write));
        }
    });
    rows.push(("mem.hierarchy_ns_per_access".into(), ns));
    let mut dram = DramModel::new(cfg.cpu.dram);
    let mut at = Time::ZERO;
    let ns = median_ns(rec, "mem.dram", n, || {
        for &(addr, _) in &lines {
            at = dram.access(addr, at);
        }
    });
    black_box(at);
    rows.push(("mem.dram_ns_per_access".into(), ns));
    let mut meta = MetadataCache::table1_default();
    let ns = median_ns(rec, "mem.meta_cache", n, || {
        for &(addr, _) in &lines {
            black_box(meta.access(MetaKind::Vn, addr / 64));
        }
    });
    rows.push(("mem.meta_cache_ns_per_access".into(), ns));

    // tee-npu: the training step's layers, and one decode iteration.
    let train: Vec<Layer> = schedule
        .npu_layers
        .iter()
        .map(|l| Layer {
            macs: l.macs,
            in_bytes: l.in_bytes,
            w_bytes: l.w_bytes,
            out_bytes: l.out_bytes,
        })
        .collect();
    let iteration = [decode_iteration_layer()];
    for (key, scheme) in [
        ("none", MacScheme::None),
        (
            "per_block",
            MacScheme::PerBlock {
                granularity: cfg.mgx_mac_granularity,
            },
        ),
        ("tensor_delayed", MacScheme::TensorDelayed),
    ] {
        let engine = NpuEngine::new(cfg.npu.clone(), scheme);
        let ns = median_ns(rec, &format!("npu.run.train.{key}"), 100, || {
            for _ in 0..100 {
                black_box(engine.run(black_box(&train)));
            }
        });
        rows.push((format!("npu.train_run_us.{key}"), ns / 1e3));
        let ns = median_ns(rec, &format!("npu.run.iter.{key}"), 1000, || {
            for _ in 0..1000 {
                black_box(engine.run(black_box(&iteration)));
            }
        });
        rows.push((format!("npu.iter_run_us.{key}"), ns / 1e3));
    }

    // tee-fleet: the surrogate calibration every fleet call pays.
    let ns = median_ns(rec, "fleet.calibrate", 10, || {
        for _ in 0..10 {
            black_box(IterCost::calibrate(&model, &SecurityProfile::tensor_tee()));
        }
    });
    rows.push(("fleet.calibrate_us".into(), ns / 1e3));

    // tee-sim: the calendar queue under the hold model.
    let ns = median_ns(rec, "sim.event_queue", QUEUE_EVENTS, || {
        black_box(queue_hold_model());
    });
    rows.push(("sim.queue_ns_per_event".into(), ns));

    // tensortee: one lockstep DES step on the largest fast cluster.
    let n_npus = ctx.cluster_sizes.iter().copied().max().unwrap_or(4);
    let ns = median_ns(rec, "core.des_step", 10, || {
        for _ in 0..10 {
            let mut des = DesClusterSystem::new(
                cfg.clone(),
                DesClusterConfig::lockstep(ctx.cluster_of(n_npus)),
                SecureMode::TensorTee,
            );
            black_box(des.simulate_with_cpu_time(&schedule, Time::from_ms(25)));
        }
    });
    rows.push(("core.des_step_us".into(), ns / 1e3));

    LayerRows {
        rows,
        counts: vec![("cpu.dram_reqs", dram_reqs)],
    }
}
