//! Inference serving walkthrough: continuous batching with KV-cache
//! TEE residency on one NPU.
//!
//! ```sh
//! cargo run --release --example serving [rate_rps] [seed]
//! ```
//!
//! Prints (1) the trace shape and the KV budget forcing HBM↔DRAM
//! migration, (2) the per-mode serving comparison on the same trace
//! (TTFT/TPOT/p99/goodput and exposed KV-migration time), and (3) the
//! registered `serve_sweep` load/burstiness table.

use tee_serve::{simulate, KvSpec, ServeConfig, TraceConfig};
use tensortee::experiments::{serve_latency, serve_profile, serve_sweep};
use tensortee::{RunContext, SecureMode};

fn main() {
    let rate: f64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("rate_rps must be a positive number"))
        .unwrap_or(8.0);
    let seed: u64 = std::env::args()
        .nth(2)
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or(42);

    let ctx = RunContext::full().with_seed(seed);
    let model = ctx.primary_model();
    let kv = KvSpec::of(&model);
    let trace_cfg = TraceConfig::poisson(32, rate, seed);
    let trace = trace_cfg.generate();
    let cfg = ServeConfig::for_model(&model, 4, trace_cfg.steady_tokens());

    println!(
        "== Serving {} requests of {} at {rate} req/s (seed {seed}) ==\n",
        trace.len(),
        model.name
    );
    println!(
        "KV cache: {} per token ({} per steady request); HBM budget {} holds ~4 requests,\n\
         so sustained load spills KV to CPU DRAM and pays the mode's transfer protocol.\n",
        tee_sim::util::fmt_bytes(kv.bytes_per_token),
        tee_sim::util::fmt_bytes(kv.bytes_per_token * trace_cfg.steady_tokens()),
        tee_sim::util::fmt_bytes(cfg.kv_hbm_bytes),
    );

    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "mode", "completed", "TTFT p50", "TTFT p99", "goodput", "exposed KV", "KV offloads"
    );
    for mode in SecureMode::all() {
        let r = simulate(&cfg, &model, &serve_profile(mode, &ctx.cfg), &trace);
        println!(
            "{:<12} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            mode.label(),
            format!("{}/{}", r.completed_requests, r.total_requests),
            r.ttft_percentile(0.50)
                .unwrap_or(tee_sim::Time::ZERO)
                .to_string(),
            r.ttft_percentile(0.99)
                .unwrap_or(tee_sim::Time::ZERO)
                .to_string(),
            format!("{:.0} tok/s", r.goodput_tps()),
            r.kv_exposed_time.to_string(),
            r.kv_stats.get("offloads").to_string(),
        );
    }
    println!(
        "\nThe staging protocol (SGX+MGX) re-encrypts every KV migration at the \u{a7}3.3\n\
         conversion edges and serializes it against decode; the direct protocol\n\
         (TensorTEE) hides the same bytes behind the iteration's compute.\n"
    );

    println!("== Registered artifacts on the same seed ==\n");
    let (_, report) = serve_latency(&ctx);
    println!("{}", report.to_markdown());
    let (_, report) = serve_sweep(&ctx);
    println!("{}", report.to_markdown());
    println!("Reproduce from the CLI: `tensortee run serve_latency serve_sweep --seed {seed}`.");
}
