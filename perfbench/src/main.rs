//! Worker of the TensorTEE benchmark (see README.md). `run.py` starts one
//! fresh process per pass, because the simulator's process-wide memos
//! would otherwise be warm. Each invocation prints one JSON line.
//!
//! ```sh
//! perfbench pass <workload> --seed N [--setup-only] [--spans FILE] [--goldens DIR]
//! perfbench layers [--spans FILE] [--goldens DIR]
//! ```

mod calibrate;
mod golden;
mod layers;
mod spans;
mod units;

use calibrate::Calibrator;
use golden::{digest, Goldens, Verdict};
use spans::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use units::{Inputs, Workload};

struct Args {
    mode: String,
    workload: Option<Workload>,
    seed: u64,
    setup_only: bool,
    spans: Option<String>,
    goldens: String,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter();
    let mode = it.next().ok_or("missing mode: pass | layers")?.clone();
    let mut args = Args {
        mode,
        workload: None,
        seed: 42,
        setup_only: false,
        spans: None,
        goldens: format!("{}/goldens", env!("CARGO_MANIFEST_DIR")),
    };
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--setup-only" => args.setup_only = true,
            "--spans" => args.spans = Some(value()?.clone()),
            "--goldens" => args.goldens = value()?.clone(),
            w => args.workload = Some(Workload::parse(w).ok_or(format!("unknown argument {w:?}"))?),
        }
    }
    Ok(args)
}

fn epoch_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("the clock is past 1970")
        .as_secs_f64()
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn worker_threads() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

fn write_spans(rec: &Recorder, path: &Option<String>) -> Result<(), String> {
    match path {
        Some(p) if rec.is_on() => {
            std::fs::write(p, rec.to_tsv()).map_err(|e| format!("cannot write {p}: {e}"))
        }
        _ => Ok(()),
    }
}

/// One cold pass over every unit of the workload.
///
/// Setup is everything before the first unit: process start (up to
/// `main_epoch`, which `run.py` measures against its own clock), inputs,
/// traces and goldens. It is reported in host seconds and as a factor that
/// converts them to reference time (see `calibrate`).
fn pass(args: &Args, workload: Workload, main_epoch: f64) -> Result<String, String> {
    let mut cal = Calibrator::new();
    let mut rec = Recorder::new(args.spans.is_some());
    rec.enter(format!("bench.pass.{}", workload.name()));
    let setup_start = Instant::now();
    let threads = worker_threads();
    let inputs = Inputs::build(workload, args.seed, threads);
    let goldens = Goldens::load(&args.goldens, workload.name())?;
    let units = inputs.units();
    let setup_in_s = setup_start.elapsed().as_secs_f64();
    let setup_factor = cal.factor_since_last();
    let setup = format!(
        "\"main_epoch\":{main_epoch:.6},\"setup_in_s\":{setup_in_s:.6},\"setup_factor\":{setup_factor:.6}"
    );
    if args.setup_only {
        return Ok(format!("{{{setup}}}"));
    }

    let mut unit_json = Vec::with_capacity(units.len());
    let (mut failed, mut iterations, mut migrations, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for (k, (id, class)) in units.iter().enumerate() {
        rec.enter(span_name(workload, id, class));
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| inputs.run(k)));
        let unit_ns = t.elapsed().as_nanos() as f64;
        rec.exit();
        cal.add(unit_ns);
        let (status, out_digest, iters) = match result {
            Ok(out) => {
                iterations += out.iterations;
                migrations += out.migrations;
                rejected += out.rejected;
                let d = digest(out.text.as_bytes());
                (
                    goldens.check("unit", id, args.seed, &d).label(),
                    d,
                    out.iterations,
                )
            }
            Err(_) => ("panic", String::new(), 0),
        };
        if status == "mismatch" || status == "panic" {
            failed += 1;
        }
        unit_json.push(format!(
            "{{\"id\":\"{id}\",\"class\":\"{class}\",\"status\":\"{status}\",\
             \"digest\":\"{out_digest}\",\"iterations\":{iters},\"ms\":{:.6}}}",
            unit_ns / 1e6
        ));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (cal_s, probe_ns) = cal.finish();
    rec.exit();
    let rss_mb = peak_rss_mb()?;

    let counts = [
        ("iterations", iterations),
        ("migrations", migrations),
        ("rejected", rejected),
    ];
    let drift = count_drift(&goldens, args.seed, &counts);
    write_spans(&rec, &args.spans)?;
    Ok(format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"threads\":{threads},{setup},\
         \"wall_s\":{wall_s:.6},\"cal_s\":{cal_s:.6},\"probe_ms\":{:.6},\"rss_mb\":{rss_mb:.3},\"attempted\":{},\"failed\":{failed},\
         \"counts\":{},\"count_drift\":{drift},\"units\":[{}]}}",
        workload.name(),
        args.seed,
        probe_ns / 1e6,
        units.len(),
        counts_json(&counts),
        unit_json.join(",")
    ))
}

/// The span of a unit call, named after the layer function it calls.
fn span_name(workload: Workload, id: &str, class: &str) -> String {
    match workload {
        Workload::RegistryFast => format!("core.artifact.{id}"),
        Workload::ServeTrace => format!("serve.simulate.{class}"),
        Workload::FleetTrace => format!("fleet.simulate.{class}"),
    }
}

fn counts_json(counts: &[(&str, u64)]) -> String {
    let fields: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// Whether any exact count differs from its golden for this seed.
fn count_drift(goldens: &Goldens, seed: u64, counts: &[(&str, u64)]) -> bool {
    counts
        .iter()
        .any(|(k, v)| goldens.check("count", k, seed, &v.to_string()) == Verdict::Mismatch)
}

/// The frozen-input layer rows.
fn layers_mode(args: &Args) -> Result<String, String> {
    let goldens = Goldens::load(&args.goldens, "layers")?;
    let mut rec = Recorder::new(args.spans.is_some());
    rec.enter("bench.layers");
    let measured = layers::measure(&mut rec);
    rec.exit();
    write_spans(&rec, &args.spans)?;
    let rows: Vec<String> = measured
        .rows
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:.6}"))
        .collect();
    Ok(format!(
        "{{\"rows\":{{{}}},\"counts\":{},\"count_drift\":{}}}",
        rows.join(","),
        counts_json(&measured.counts),
        count_drift(&goldens, args.seed, &measured.counts)
    ))
}

fn main() -> ExitCode {
    let main_epoch = epoch_s();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&raw).and_then(|args| match (args.mode.as_str(), args.workload) {
        ("pass", Some(w)) => pass(&args, w, main_epoch),
        ("layers", None) => layers_mode(&args),
        _ => Err("usage: perfbench pass <workload> [flags] | perfbench layers [flags]".into()),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
