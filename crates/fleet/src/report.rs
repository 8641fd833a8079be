//! Fleet-level run report: latency distributions merged across
//! instances, KV-handoff accounting and the router's counters.

use tee_sim::{Histogram, StatSet, Time};

/// Everything one fleet simulation produces. Field-for-field comparable,
/// so byte-identity tests can `assert_eq!` whole reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Requests (turns) in the offered trace.
    pub total_requests: u32,
    /// Turns that completed generation.
    pub completed_requests: u32,
    /// Turns rejected by admission control (every routable instance at
    /// its queue bound).
    pub rejected_requests: u32,
    /// Output tokens generated fleet-wide.
    pub output_tokens: u64,
    /// Completion time of the last turn.
    pub makespan: Time,
    /// Iterations launched fleet-wide.
    pub iterations: u64,
    /// Time-to-first-token per turn, ns (merged across instances).
    pub ttft_ns: Histogram,
    /// End-to-end turn latency, ns (merged across instances).
    pub latency_ns: Histogram,
    /// Time-per-output-token per turn, ns (merged across instances).
    pub tpot_ns: Histogram,
    /// Session-KV migrations the router priced (relocations that had to
    /// move a non-empty KV cache).
    pub migrations: u64,
    /// KV bytes moved by those migrations.
    pub migrated_bytes: u64,
    /// Serialized wire time of all migrations under the mode's protocol.
    pub handoff_transfer_time: Time,
    /// Secure-session-establishment time summed over migrations.
    pub handoff_setup_time: Time,
    /// Exposed (non-overlapped) handoff time summed over migrations —
    /// what actually blocked destination instances.
    pub handoff_exposed_time: Time,
    /// Router counters: `follow_up_turns`, `local_turns` (follow-ups
    /// placed on the instance holding their KV) and `rejected`.
    pub router_stats: StatSet,
    /// DES events dispatched by the scheduler.
    pub events_processed: u64,
}

impl FleetReport {
    /// A report with nothing counted yet.
    pub(crate) fn empty() -> Self {
        FleetReport {
            total_requests: 0,
            completed_requests: 0,
            rejected_requests: 0,
            output_tokens: 0,
            makespan: Time::ZERO,
            iterations: 0,
            ttft_ns: Histogram::new(),
            latency_ns: Histogram::new(),
            tpot_ns: Histogram::new(),
            migrations: 0,
            migrated_bytes: 0,
            handoff_transfer_time: Time::ZERO,
            handoff_setup_time: Time::ZERO,
            handoff_exposed_time: Time::ZERO,
            router_stats: StatSet::new("router"),
            events_processed: 0,
        }
    }

    /// Goodput: completed output tokens per second of makespan.
    pub fn goodput_tps(&self) -> f64 {
        if self.makespan == Time::ZERO {
            return 0.0;
        }
        self.output_tokens as f64 / self.makespan.as_secs_f64()
    }

    /// A TTFT percentile in nanoseconds.
    pub fn ttft_percentile(&self, q: f64) -> Option<u64> {
        self.ttft_ns.percentile(q)
    }

    /// Mean time-per-output-token in nanoseconds.
    pub fn tpot_mean(&self) -> f64 {
        self.tpot_ns.mean()
    }

    /// Migrations as a fraction of follow-up turns (the KV-aware policy
    /// drives this toward zero; round-robin toward `1 - 1/M`).
    pub fn migration_rate(&self) -> f64 {
        let follow_ups = self.router_stats.get("follow_up_turns");
        if follow_ups == 0 {
            return 0.0;
        }
        self.migrations as f64 / follow_ups as f64
    }

    /// Mean exposed handoff time per migration, in nanoseconds.
    pub fn exposed_per_migration_ns(&self) -> f64 {
        if self.migrations == 0 {
            return 0.0;
        }
        self.handoff_exposed_time.as_ns_f64() / self.migrations as f64
    }
}
