//! Serving metrics: TTFT/TPOT/latency distributions, goodput, and the
//! KV-migration accounting behind the `serve_latency`/`serve_sweep`
//! artifacts.

use tee_sim::{Histogram, StatSet, Time};

/// The result of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests in the trace.
    pub total_requests: u32,
    /// Requests that ran to completion (all of them — the simulator
    /// drains the trace; kept separate so SLO-style early termination can
    /// be added without changing the report shape).
    pub completed_requests: u32,
    /// Output tokens generated across completed requests.
    pub output_tokens: u64,
    /// Timestamp of the last completion (the makespan).
    pub makespan: Time,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Time-to-first-token distribution, recorded in nanoseconds.
    pub ttft_ns: Histogram,
    /// End-to-end request latency distribution, in nanoseconds.
    pub latency_ns: Histogram,
    /// Time-per-output-token distribution (per request, decode phase
    /// only), in nanoseconds.
    pub tpot_ns: Histogram,
    /// Aggregate NPU busy time.
    pub npu_time: Time,
    /// Raw (serialized) KV HBM↔DRAM transfer time.
    pub kv_transfer_time: Time,
    /// Exposed (non-overlapped) KV transfer time actually added to the
    /// makespan — the serving analogue of the exposed-communication
    /// fraction.
    pub kv_exposed_time: Time,
    /// KV migration counters (`fetches`, `offloads`,
    /// `fetched_bytes`, `offloaded_bytes`).
    pub kv_stats: StatSet,
}

impl ServeReport {
    /// An empty report: nothing offered, nothing served.
    pub(crate) fn new() -> Self {
        ServeReport {
            total_requests: 0,
            completed_requests: 0,
            output_tokens: 0,
            makespan: Time::ZERO,
            iterations: 0,
            ttft_ns: Histogram::new(),
            latency_ns: Histogram::new(),
            tpot_ns: Histogram::new(),
            npu_time: Time::ZERO,
            kv_transfer_time: Time::ZERO,
            kv_exposed_time: Time::ZERO,
            kv_stats: StatSet::new("kv_pool"),
        }
    }

    /// Goodput: completed output tokens per second of makespan.
    pub fn goodput_tps(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.output_tokens as f64 / secs
        }
    }

    /// The `q`-quantile of TTFT (`None` when nothing completed).
    pub fn ttft_percentile(&self, q: f64) -> Option<Time> {
        self.ttft_ns.percentile(q).map(Time::from_ns)
    }

    /// The `q`-quantile of end-to-end latency.
    pub fn latency_percentile(&self, q: f64) -> Option<Time> {
        self.latency_ns.percentile(q).map(Time::from_ns)
    }

    /// Mean time per output token across completed requests.
    pub fn tpot_mean(&self) -> Time {
        Time::from_secs_f64(self.tpot_ns.mean() * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_sane() {
        let r = ServeReport::new();
        assert_eq!(r.goodput_tps(), 0.0);
        assert_eq!(r.ttft_percentile(0.99), None);
        assert_eq!(r.tpot_mean(), Time::ZERO);
    }

    #[test]
    fn goodput_and_percentiles_follow_the_samples() {
        let mut r = ServeReport::new();
        r.output_tokens = 1_000;
        r.makespan = Time::from_ms(500);
        r.ttft_ns.record(1_000_000);
        r.ttft_ns.record(2_000_000);
        assert_eq!(r.goodput_tps(), 2_000.0);
        let p99 = r.ttft_percentile(0.99).unwrap();
        assert!(p99 >= Time::from_ns(1_000_000) && p99 <= Time::from_ns(2_000_000));
    }
}
