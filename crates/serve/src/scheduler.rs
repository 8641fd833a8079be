//! The continuous-batching serving instance, shared by `tee-serve` and
//! `tee-fleet`, and the trace loop behind [`simulate`].
//!
//! An [`Instance`] runs Orca/vLLM-style iteration-level scheduling:
//!
//! 1. requests join a FIFO admission queue ([`Instance::admit`]),
//! 2. each iteration admits waiting requests up to `MAX_BATCH` (16) slots
//!    and `PREFILL_TOKEN_BUDGET` (4,096) new prompt tokens, then — with a
//!    KV budget — schedules the subset of active requests whose KV caches
//!    fit it (in admission order; surplus KV offloads to CPU DRAM),
//! 3. the iteration is priced as **one fused NPU kernel** by the
//!    instance's [`Pricer`]: exactly through [`tee_npu::NpuEngine`] under
//!    the profile's MAC scheme, or by the calibrated
//!    [`IterCost`](crate::cost::IterCost) surrogate,
//! 4. KV fetch/offload traffic pays the profile's transfer protocol;
//!    the direct protocol overlaps the iteration's compute, the staging
//!    protocol serializes (§3.3 vs §4.4, as in training),
//! 5. a stall ([`Instance::stall`]) extends the in-flight iteration or
//!    holds back the next one — how a fleet's staged KV handoff
//!    serializes against the destination's compute.
//!
//! Each running request carries its own KV state: the bytes it holds,
//! whether they sit in NPU HBM or were offloaded to CPU DRAM, and the
//! round that last reserved them. The instance keeps only the budget, the
//! HBM in use and the migration counters.
//!
//! [`simulate`] feeds a request trace to one exact-priced instance with a
//! bounded KV budget; `tee-fleet` runs M calibrated instances without one
//! as discrete-event components behind its router. Both are
//! bit-reproducible: same inputs → the same report.

use crate::config::{kv_transfer_time, KvSpec, SecurityProfile, ServeConfig};
use crate::cost::Pricer;
use crate::report::ServeReport;
use crate::trace::{Request, SessionRequest};
use std::collections::VecDeque;
use tee_comm::Protocol;
use tee_npu::engine::NpuEngine;
use tee_sim::probe::SharedProbe;
use tee_sim::{StatSet, Time};
use tee_workloads::zoo::ModelConfig;

/// Maximum simultaneously active (prefilling + decoding) requests per
/// instance.
const MAX_BATCH: usize = 16;

/// Maximum new prompt tokens admitted into one iteration (Orca-style
/// iteration-level admission; a longer prompt is admitted alone).
const PREFILL_TOKEN_BUDGET: u64 = 4096;

/// One admitted (active) request.
#[derive(Debug, Clone, Copy)]
struct Active {
    req: SessionRequest,
    /// Tokens produced so far (0 = still waiting for prefill).
    generated: u64,
    /// When the first token came out (set at the end of the prefill
    /// iteration).
    first_token_at: Option<Time>,
    /// Scheduled in the in-flight iteration: always without a KV budget,
    /// otherwise when its KV reservation succeeded.
    scheduled: bool,
    /// KV bytes it holds (0 until its first reservation).
    kv_bytes: u64,
    /// Whether those bytes sit in NPU HBM; once offloaded to CPU DRAM they
    /// must be fetched back before it runs again.
    kv_in_hbm: bool,
    /// The round that last reserved its KV: the LRU eviction key.
    kv_round: u64,
}

impl Active {
    /// Cached context this request's attention streams: carried session
    /// history, its own prompt and everything generated so far.
    fn context(&self) -> u64 {
        self.req.context_tokens + self.req.request.prompt_tokens + self.generated
    }
}

/// A bounded HBM budget for the running requests' KV, which each
/// [`Active`] carries, and the protocol its spills and fetches pay. All
/// byte accounting is integer.
#[derive(Debug)]
struct Kv {
    budget: u64,
    hbm_used: u64,
    /// Reservation rounds so far, one per iteration.
    round: u64,
    protocol: Protocol,
    bytes_per_token: u64,
    /// `fetches`, `offloads`, `fetched_bytes` and `offloaded_bytes`.
    stats: StatSet,
}

impl Kv {
    fn new(budget: u64, protocol: Protocol, bytes_per_token: u64) -> Self {
        Kv {
            budget,
            hbm_used: 0,
            round: 0,
            protocol,
            bytes_per_token,
            stats: StatSet::new("kv_pool"),
        }
    }

    /// Starts a round: reserves HBM for each running request's KV in
    /// admission order, at the size it reaches by the end of the
    /// iteration, and marks the requests that got it scheduled. Returns
    /// the bytes fetched from and offloaded to CPU DRAM.
    ///
    /// Room is made by offloading resident KV this round has not reserved
    /// yet, least recently reserved first (then the lower request id). A
    /// request that still does not fit sits the iteration out and changes
    /// nothing, except the head, which is forced so progress is guaranteed
    /// even when its KV alone exceeds the budget.
    ///
    /// The round keeps the bytes it could still offload (`evictable`), so a
    /// request that cannot fit is refused without listing any victim:
    /// every request's reservation removes its resident bytes from that
    /// pool, and every offload its victim's.
    fn reserve_round(&mut self, running: &mut [Active]) -> (u64, u64) {
        self.round += 1;
        let (mut fetched, mut offloaded) = (0u64, 0u64);
        let mut evictable = self.hbm_used;
        for i in 0..running.len() {
            let a = &running[i];
            // KV tokens this request holds by the end of the iteration:
            // its context for a prefill, one more token for a decode.
            let bytes = (a.context() + u64::from(a.generated > 0)) * self.bytes_per_token;
            let held = if a.kv_in_hbm { a.kv_bytes } else { 0 };
            let over = (self.hbm_used - held + bytes).saturating_sub(self.budget);
            let mut victims: Vec<(u64, u32, usize)> = Vec::new();
            if over > 0 {
                // Every other request's offloadable KV is not enough.
                if i > 0 && over > evictable - held {
                    running[i].scheduled = false;
                    continue;
                }
                victims = running
                    .iter()
                    .enumerate()
                    .filter(|&(j, v)| j != i && v.kv_in_hbm && v.kv_round != self.round)
                    .map(|(j, v)| (v.kv_round, v.req.request.id, j))
                    .collect();
                victims.sort_unstable();
                let (mut n, mut freed) = (0, 0);
                while n < victims.len() && freed < over {
                    freed += running[victims[n].2].kv_bytes;
                    n += 1;
                }
                victims.truncate(n);
            }
            for &(_, _, j) in &victims {
                let v = &mut running[j];
                v.kv_in_hbm = false;
                self.hbm_used -= v.kv_bytes;
                evictable -= v.kv_bytes;
                offloaded += v.kv_bytes;
                self.stats.bump("offloads");
                self.stats.add("offloaded_bytes", v.kv_bytes);
            }
            let a = &mut running[i];
            if !a.kv_in_hbm && a.kv_bytes > 0 {
                fetched += a.kv_bytes;
                self.stats.bump("fetches");
                self.stats.add("fetched_bytes", a.kv_bytes);
            }
            evictable -= held;
            self.hbm_used = self.hbm_used - held + bytes;
            a.scheduled = true;
            a.kv_bytes = bytes;
            a.kv_in_hbm = true;
            a.kv_round = self.round;
        }
        (fetched, offloaded)
    }

    /// Frees a completed request's KV: HBM only if it is resident there.
    fn free(&mut self, a: &Active) {
        if a.kv_in_hbm {
            self.hbm_used -= a.kv_bytes;
        }
    }
}

/// One continuous-batching serving instance.
///
/// A caller drives it through three entry points: [`admit`](Self::admit)
/// and [`stall`](Self::stall) at any time, [`tick`](Self::tick) at
/// [`next_wake`](Self::next_wake). [`run`](Self::run) does so over a
/// whole request trace; `tee-fleet` does so from DES messages.
#[derive(Debug)]
pub struct Instance {
    model: ModelConfig,
    pricer: Pricer,
    /// `None` = unbounded KV: no residency bookkeeping at all.
    kv: Option<Kv>,
    waiting: VecDeque<SessionRequest>,
    running: Vec<Active>,
    /// Prompt lengths prefilled by the in-flight iteration (a reused
    /// buffer).
    prefills: Vec<u64>,
    /// `true` while an iteration is in flight; its end is `wake`.
    busy: bool,
    /// Next tick: iteration end when busy, pending start otherwise.
    wake: Time,
    /// Earliest next iteration start (a stall received while idle).
    stall_until: Time,
    report: ServeReport,
    probe: SharedProbe,
    /// Probe track of the iteration spans.
    track: String,
    /// Probe counter prefix (`<prefix>.iterations`, …).
    prefix: &'static str,
}

impl Instance {
    /// Creates an idle instance pricing `model`'s iterations with
    /// `pricer`, with unbounded KV.
    pub fn new(model: &ModelConfig, pricer: Pricer) -> Self {
        Instance {
            model: *model,
            pricer,
            kv: None,
            waiting: VecDeque::new(),
            running: Vec::new(),
            prefills: Vec::new(),
            busy: false,
            wake: Time::MAX,
            stall_until: Time::ZERO,
            report: ServeReport::new(),
            probe: SharedProbe::Null,
            track: String::new(),
            prefix: "",
        }
    }

    /// Bounds the KV caches to `budget` HBM bytes: KV
    /// beyond it spills to CPU DRAM and pays `protocol` to come back.
    pub fn with_kv_pool(mut self, budget: u64, protocol: Protocol) -> Self {
        let bytes_per_token = KvSpec::of(&self.model).bytes_per_token;
        self.kv = Some(Kv::new(budget, protocol, bytes_per_token));
        self
    }

    /// Installs an observability probe: iterations emit
    /// prefill/decode/mixed spans on `track` and bump
    /// `<prefix>.iterations`; KV migrations emit `link` transfer spans,
    /// `CPU` spill/fetch instants and `<prefix>.kv_*` byte counters.
    pub fn with_probe(mut self, probe: SharedProbe, track: String, prefix: &'static str) -> Self {
        self.probe = probe;
        self.track = track;
        self.prefix = prefix;
        self
    }

    /// When [`tick`](Self::tick) must run next ([`Time::MAX`] = idle
    /// until a request arrives).
    pub fn next_wake(&self) -> Time {
        self.wake
    }

    /// Metrics so far. `kv_stats` is filled in by
    /// [`into_report`](Self::into_report).
    pub fn report(&self) -> &ServeReport {
        &self.report
    }

    /// The finished report, with the KV migration counters.
    pub fn into_report(mut self) -> ServeReport {
        if let Some(kv) = self.kv {
            self.report.kv_stats = kv.stats;
        }
        self.report
    }

    /// Queues `req` at `now`; an idle instance wakes (now, or when its
    /// stall ends) to admit it.
    pub fn admit(&mut self, now: Time, req: SessionRequest) {
        self.report.total_requests += 1;
        self.waiting.push_back(req);
        if !self.busy {
            self.wake = now.max(self.stall_until);
        }
    }

    /// Serializes `d` of non-overlappable work against compute: extends
    /// the in-flight iteration, or pushes back the next start.
    pub fn stall(&mut self, now: Time, d: Time) {
        if self.busy {
            self.wake += d;
        } else {
            self.stall_until = self.stall_until.max(now) + d;
            if self.wake != Time::MAX {
                self.wake = self.wake.max(self.stall_until);
            }
        }
    }

    /// Runs the instance at `now` (its [`next_wake`](Self::next_wake)):
    /// finishes the in-flight iteration, calling `on_done` for every
    /// request that completed, then launches the next iteration if there
    /// is work and no stall holds it back.
    pub fn tick(&mut self, now: Time, on_done: impl FnMut(&SessionRequest)) {
        if self.busy {
            self.finish_iteration(now, on_done);
            self.busy = false;
        }
        if now < self.stall_until {
            self.wake = self.stall_until;
            return;
        }
        self.start_iteration(now);
    }

    /// Serves `trace` to completion and returns the report. Arrivals are
    /// taken in time order (trace order within a timestamp); everything
    /// arriving at one timestamp is admitted before the instance ticks,
    /// so co-arrivals, and arrivals on the picosecond an iteration ends,
    /// join the next iteration together. Arrivals emit `CPU` instants.
    pub fn run(mut self, trace: &[Request]) -> ServeReport {
        let mut order: Vec<&Request> = trace.iter().collect();
        order.sort_by_key(|r| r.arrival);
        let mut arrivals = order.into_iter().peekable();
        loop {
            let next_arrival = arrivals.peek().map_or(Time::MAX, |r| r.arrival);
            let now = next_arrival.min(self.wake);
            if now == Time::MAX {
                break;
            }
            while let Some(r) = arrivals.next_if(|r| r.arrival == now) {
                if self.probe.enabled() {
                    self.probe.instant("CPU", "arrival", now);
                }
                self.admit(now, SessionRequest::from(*r));
            }
            if self.wake == now {
                self.tick(now, |_| {});
            }
        }
        self.into_report()
    }

    /// Admits waiting requests, plans and prices one iteration, and arms
    /// its end; goes idle when there is nothing to run.
    fn start_iteration(&mut self, now: Time) {
        // Admit up to the batch/prefill budgets (a prompt longer than the
        // whole budget is admitted alone rather than starved). Admitted
        // requests still awaiting prefill (e.g. ones the KV reservation
        // skipped last iteration) count against the budget too — the
        // bound is on prompt tokens an iteration may prefill, not on
        // admission events.
        let mut new_prompt_tokens: u64 = self
            .running
            .iter()
            .filter(|a| a.generated == 0)
            .map(|a| a.req.request.prompt_tokens)
            .sum();
        while self.running.len() < MAX_BATCH {
            let Some(req) = self.waiting.front() else {
                break;
            };
            let p = req.request.prompt_tokens;
            if new_prompt_tokens > 0 && new_prompt_tokens + p > PREFILL_TOKEN_BUDGET {
                break;
            }
            let req = self.waiting.pop_front().expect("front checked above");
            new_prompt_tokens += p;
            self.running.push(Active {
                req,
                generated: 0,
                first_token_at: None,
                scheduled: self.kv.is_none(),
                kv_bytes: 0,
                kv_in_hbm: false,
                kv_round: 0,
            });
        }
        if self.running.is_empty() {
            self.wake = Time::MAX;
            return;
        }
        // With a KV budget, reserve residency in admission order; what
        // does not fit sits this iteration out (its KV stays, or goes,
        // cold). Without one every running request is always scheduled.
        let (fetched, offloaded) = match &mut self.kv {
            Some(kv) => kv.reserve_round(&mut self.running),
            None => (0, 0),
        };
        let (mut decodes, mut ctx_sum) = (0u64, 0u64);
        self.prefills.clear();
        for a in self.running.iter().filter(|a| a.scheduled) {
            if a.generated == 0 {
                // A prefill pays its new prompt; carried session history
                // joins the streamed context.
                self.prefills.push(a.req.request.prompt_tokens);
                ctx_sum += a.req.context_tokens;
            } else {
                decodes += 1;
                ctx_sum += a.context();
            }
        }

        let npu = self
            .pricer
            .price(&self.model, &self.prefills, decodes, ctx_sum);
        // KV migration: fetches and offloads each cross the CPU↔NPU link
        // once under the profile's protocol.
        let (kv_time, kv_exposed) = match &self.kv {
            Some(kv) => {
                let t = kv_transfer_time(kv.protocol, fetched)
                    + kv_transfer_time(kv.protocol, offloaded);
                (t, kv.protocol.exposed(npu, t))
            }
            None => (Time::ZERO, Time::ZERO),
        };

        self.report.iterations += 1;
        self.report.npu_time += npu;
        self.report.kv_transfer_time += kv_time;
        self.report.kv_exposed_time += kv_exposed;
        self.busy = true;
        self.wake = now + npu + kv_exposed;
        if self.probe.enabled() {
            let name = match (self.prefills.is_empty(), decodes) {
                (false, 0) => "prefill",
                (true, _) => "decode",
                _ => "mixed",
            };
            let prefix = self.prefix;
            self.probe.span(&self.track, name, now, now + npu);
            self.probe.count(&format!("{prefix}.iterations"), 1);
            if kv_time > Time::ZERO {
                self.probe.span("link", "kv_transfer", now, now + kv_time);
                self.probe
                    .count(&format!("{prefix}.kv_exposed_ps"), kv_exposed.as_ps());
            }
            if fetched > 0 {
                self.probe.instant("CPU", "kv_fetch", now);
                self.probe
                    .count(&format!("{prefix}.kv_fetch_bytes"), fetched);
            }
            if offloaded > 0 {
                self.probe.instant("CPU", "kv_offload", now);
                self.probe
                    .count(&format!("{prefix}.kv_offload_bytes"), offloaded);
            }
        }
    }

    /// Applies a finished iteration at `now`: every scheduled request
    /// produced one token; completions are recorded, release their KV and
    /// are passed to `on_done`.
    fn finish_iteration(&mut self, now: Time, mut on_done: impl FnMut(&SessionRequest)) {
        let report = &mut self.report;
        let kv = &mut self.kv;
        let ns_since = |t: Time| (now - t).as_ns_f64().round() as u64;
        self.running.retain_mut(|a| {
            if !a.scheduled {
                return true;
            }
            let r = a.req.request;
            if a.generated == 0 {
                a.first_token_at = Some(now);
                report.ttft_ns.record(ns_since(r.arrival));
            }
            a.generated += 1;
            if a.generated < r.output_tokens {
                return true;
            }
            report.completed_requests += 1;
            report.output_tokens += r.output_tokens;
            report.makespan = report.makespan.max(now);
            report.latency_ns.record(ns_since(r.arrival));
            if r.output_tokens > 1 {
                let first = a.first_token_at.expect("completed request prefilled");
                let per_token = (now - first).as_ns_f64() / (r.output_tokens - 1) as f64;
                report.tpot_ns.record(per_token.round() as u64);
            }
            if let Some(kv) = kv {
                kv.free(a);
            }
            on_done(&a.req);
            false
        });
    }
}

/// Simulates serving `trace` on one system under one security profile:
/// one instance priced exactly by the NPU engine, with `cfg`'s KV budget.
pub fn simulate(
    cfg: &ServeConfig,
    model: &ModelConfig,
    profile: &SecurityProfile,
    trace: &[Request],
) -> ServeReport {
    simulate_probed(cfg, model, profile, trace, &SharedProbe::Null)
}

/// [`simulate`] with an observability probe: iterations emit
/// prefill/decode/mixed spans on the `NPU` track, KV migrations emit
/// `link` transfer spans and `CPU` spill/fetch instants, and the `serve.*`
/// counters accumulate in the probe's metrics registry. The report is
/// byte-identical to the unprobed run — probes only observe.
pub fn simulate_probed(
    cfg: &ServeConfig,
    model: &ModelConfig,
    profile: &SecurityProfile,
    trace: &[Request],
    probe: &SharedProbe,
) -> ServeReport {
    let engine = NpuEngine::new(cfg.npu.clone(), profile.mac);
    Instance::new(model, Pricer::Exact(engine))
        .with_kv_pool(cfg.kv_hbm_bytes, profile.kv_protocol)
        .with_probe(probe.clone(), "NPU".to_string(), "serve")
        .run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::iteration_layer;
    use crate::trace::TraceConfig;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use tee_workloads::zoo::by_name;

    /// The id-keyed KV pool the running list replaced, its reservation
    /// rule kept verbatim as the oracle of `kv_rounds_match_the_old_pool`:
    /// an entry per request id, an explicit set of ids protected this
    /// round, and `force` while nothing is reserved yet this round.
    #[derive(Debug)]
    struct OldPool {
        budget: u64,
        hbm_used: u64,
        /// Request id → (bytes, resident in HBM, clock of the last
        /// reservation).
        entries: BTreeMap<u32, (u64, bool, u64)>,
        clock: u64,
        stats: StatSet,
    }

    impl OldPool {
        fn new(budget: u64) -> Self {
            OldPool {
                budget,
                hbm_used: 0,
                entries: BTreeMap::new(),
                clock: 0,
                stats: StatSet::new("kv_pool"),
            }
        }

        /// Returns the bytes fetched and offloaded, or `None` (changing
        /// nothing) when `bytes` cannot fit and `force` is unset.
        fn reserve(
            &mut self,
            id: u32,
            bytes: u64,
            protected: &BTreeSet<u32>,
            force: bool,
        ) -> Option<(u64, u64)> {
            let is_new = !self.entries.contains_key(&id);
            let entry = *self.entries.entry(id).or_insert((0, false, self.clock));
            let old_hbm = if entry.1 { entry.0 } else { 0 };
            let mut victims: Vec<(u32, u64)> = Vec::new();
            let mut freed = 0u64;
            if self.hbm_used - old_hbm + bytes > self.budget {
                let mut candidates: Vec<(u64, u32, u64)> = self
                    .entries
                    .iter()
                    .filter(|(&k, e)| k != id && e.1 && !protected.contains(&k))
                    .map(|(&k, e)| (e.2, k, e.0))
                    .collect();
                candidates.sort_unstable();
                for (_, k, b) in candidates {
                    if self.hbm_used - old_hbm - freed + bytes <= self.budget {
                        break;
                    }
                    victims.push((k, b));
                    freed += b;
                }
                if self.hbm_used - old_hbm - freed + bytes > self.budget && !force {
                    if is_new {
                        self.entries.remove(&id);
                    }
                    return None;
                }
            }
            for (k, b) in &victims {
                self.entries.get_mut(k).expect("victim exists").1 = false;
                self.hbm_used -= b;
                self.stats.bump("offloads");
                self.stats.add("offloaded_bytes", *b);
            }
            let fetched = if !entry.1 && entry.0 > 0 {
                self.stats.bump("fetches");
                self.stats.add("fetched_bytes", entry.0);
                entry.0
            } else {
                0
            };
            self.entries.insert(id, (bytes, true, self.clock));
            self.hbm_used = self.hbm_used - old_hbm + bytes;
            Some((fetched, victims.iter().map(|(_, b)| *b).sum()))
        }

        /// One scheduler round as the pool ran it: each `(id, bytes)`
        /// reserved in order. Returns the scheduled flags and the bytes
        /// fetched and offloaded.
        fn round(&mut self, sizes: &[(u32, u64)]) -> (Vec<bool>, u64, u64) {
            self.clock += 1;
            let mut protected = BTreeSet::new();
            let (mut flags, mut fetched, mut offloaded) = (Vec::new(), 0, 0);
            for &(id, bytes) in sizes {
                let force = protected.is_empty();
                let out = self.reserve(id, bytes, &protected, force);
                flags.push(out.is_some());
                if let Some((f, o)) = out {
                    protected.insert(id);
                    fetched += f;
                    offloaded += o;
                }
            }
            (flags, fetched, offloaded)
        }

        fn release(&mut self, id: u32) {
            if let Some((bytes, true, _)) = self.entries.remove(&id) {
                self.hbm_used -= bytes;
            }
        }
    }

    /// A running request that holds no KV yet: `prompt` tokens of
    /// prefill on top of `context` carried tokens.
    fn active(id: u32, context: u64, prompt: u64, output: u64) -> Active {
        let request = Request {
            id,
            arrival: Time::ZERO,
            prompt_tokens: prompt,
            output_tokens: output,
        };
        Active {
            req: SessionRequest {
                context_tokens: context,
                ..SessionRequest::from(request)
            },
            generated: 0,
            first_token_at: None,
            scheduled: false,
            kv_bytes: 0,
            kv_in_hbm: false,
            kv_round: 0,
        }
    }

    /// Prefills needing `tokens[i]` bytes of KV each (one byte per token),
    /// request ids in order.
    fn prefills(tokens: &[u64]) -> Vec<Active> {
        (0u32..)
            .zip(tokens)
            .map(|(id, &t)| active(id, 0, t, 2))
            .collect()
    }

    fn kv(budget: u64) -> Kv {
        Kv::new(budget, Protocol::Plain, 1)
    }

    /// The requests' `(bytes, in HBM)` KV state.
    fn held(running: &[Active]) -> Vec<(u64, bool)> {
        running.iter().map(|a| (a.kv_bytes, a.kv_in_hbm)).collect()
    }

    #[test]
    fn reservation_grows_kv_in_place() {
        let mut kv = kv(1000);
        let mut running = prefills(&[100]);
        assert_eq!(kv.reserve_round(&mut running), (0, 0));
        running[0].req.request.prompt_tokens = 150;
        assert_eq!(kv.reserve_round(&mut running), (0, 0));
        assert_eq!(kv.hbm_used, 150);
        assert_eq!(held(&running), [(150, true)]);
        assert!(running[0].scheduled);
    }

    #[test]
    fn eviction_takes_the_least_recently_reserved_kv() {
        let mut kv = kv(300);
        let mut running = prefills(&[100, 100, 100]);
        kv.reserve_round(&mut running);
        // Request 2 cannot grow: its KV stays resident, last reserved in
        // round 1, while 0 and 1 are reserved again in round 2.
        running[2].req.request.prompt_tokens = 101;
        kv.reserve_round(&mut running);
        assert!(!running[2].scheduled);
        assert_eq!(held(&running), [(100, true); 3]);
        // Request 0 grows: the older round goes first, ahead of the lower
        // id.
        running[0].req.request.prompt_tokens = 150;
        assert_eq!(kv.reserve_round(&mut running), (0, 100));
        assert_eq!(held(&running), [(150, true), (100, true), (100, false)]);
        assert_eq!(kv.stats.get("offloads"), 1);
        assert_eq!(kv.stats.get("offloaded_bytes"), 100);
    }

    #[test]
    fn offloaded_kv_is_fetched_back_at_its_old_size() {
        let mut kv = kv(200);
        let mut running = prefills(&[100, 100]);
        kv.reserve_round(&mut running);
        running[0].req.request.prompt_tokens = 150;
        assert_eq!(kv.reserve_round(&mut running), (0, 100));
        assert_eq!(held(&running), [(150, true), (100, false)]);
        kv.free(&running.remove(0));
        running[0].req.request.prompt_tokens = 110;
        assert_eq!(
            kv.reserve_round(&mut running),
            (100, 0),
            "old bytes travel back"
        );
        assert_eq!(held(&running), [(110, true)]);
        assert_eq!(kv.hbm_used, 110);
        assert_eq!(kv.stats.get("fetches"), 1);
        assert_eq!(kv.stats.get("fetched_bytes"), 100);
    }

    #[test]
    fn failed_reservation_changes_nothing() {
        let mut kv = kv(200);
        let mut running = prefills(&[150, 100]);
        assert_eq!(kv.reserve_round(&mut running), (0, 0));
        assert!(running[0].scheduled && !running[1].scheduled);
        assert_eq!(kv.hbm_used, 150);
        assert_eq!(held(&running), [(150, true), (0, false)]);
        assert_eq!(
            running[1].kv_round, 0,
            "no KV state for a request never reserved"
        );
        assert_eq!(kv.stats, StatSet::new("kv_pool"));
    }

    #[test]
    fn refusal_keeps_the_evictable_pool() {
        let mut kv = kv(400);
        let mut running = prefills(&[100, 100, 100, 100]);
        kv.reserve_round(&mut running);
        // The head grows by offloading request 1, which leaves requests 2
        // and 3 (200 bytes) to offload. Request 1 then needs 250 and is
        // refused untouched; request 2 grows by offloading request 3,
        // and request 3 no longer fits.
        for (a, tokens) in running.iter_mut().zip([200, 250, 150, 100]) {
            a.req.request.prompt_tokens = tokens;
        }
        assert_eq!(kv.reserve_round(&mut running), (0, 200));
        let scheduled: Vec<bool> = running.iter().map(|a| a.scheduled).collect();
        assert_eq!(scheduled, [true, false, true, false]);
        assert_eq!(
            held(&running),
            [(200, true), (100, false), (150, true), (100, false)]
        );
        assert_eq!(
            running[1].kv_round, 1,
            "the refused request keeps its KV state"
        );
        assert_eq!(kv.hbm_used, 350);
        assert_eq!(kv.stats.get("offloads"), 2);
        assert_eq!(kv.stats.get("fetches"), 0);
    }

    #[test]
    fn the_head_is_forced_over_budget() {
        let mut kv = kv(50);
        let mut running = prefills(&[100, 10]);
        assert_eq!(kv.reserve_round(&mut running), (0, 0));
        assert!(running[0].scheduled, "the head always runs");
        assert!(!running[1].scheduled, "nothing else is forced");
        assert_eq!(kv.hbm_used, 100);
        assert_eq!(held(&running), [(100, true), (0, false)]);
    }

    #[test]
    fn completion_frees_only_resident_kv() {
        let mut kv = kv(200);
        let mut running = prefills(&[100, 100]);
        kv.reserve_round(&mut running);
        running[0].req.request.prompt_tokens = 150;
        kv.reserve_round(&mut running);
        assert_eq!(held(&running), [(150, true), (100, false)]);
        kv.free(&running[1]);
        assert_eq!(kv.hbm_used, 150, "offloaded KV frees no HBM");
        kv.free(&running[0]);
        assert_eq!(kv.hbm_used, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::ci())]
        /// Round by round, the KV state on the running list schedules,
        /// fetches, offloads and counts exactly as the id-keyed pool did:
        /// 1–16 running requests (refilled from a queue of up to 16 more)
        /// whose contexts grow a token per scheduled round until they
        /// complete, under budgets from below one request's KV to ample.
        #[test]
        fn kv_rounds_match_the_old_pool(
            requests in vec((0u64..=64, 1u64..=64, 1u64..=8), 1..=32),
            initial in 1usize..=16,
            bytes_per_token in 1u64..=3,
            budget in (0u8..4, any::<u64>()),
        ) {
            let (scale, raw) = budget;
            let budget = match scale {
                0 => raw % 64,
                1 => raw % 1024,
                2 => raw % 8192,
                _ => u64::MAX / 2,
            };
            let mut queue = (0u32..)
                .zip(&requests)
                .map(|(id, &(context, prompt, output))| active(id, context, prompt, output));
            let mut running: Vec<Active> = queue.by_ref().take(initial).collect();
            let mut kv = Kv::new(budget, Protocol::Plain, bytes_per_token);
            let mut old = OldPool::new(budget);
            while !running.is_empty() {
                let sizes: Vec<(u32, u64)> = running
                    .iter()
                    .map(|a| {
                        let tokens = a.context() + u64::from(a.generated > 0);
                        (a.req.request.id, tokens * bytes_per_token)
                    })
                    .collect();
                let (flags, fetched, offloaded) = old.round(&sizes);
                prop_assert_eq!(kv.reserve_round(&mut running), (fetched, offloaded));
                let scheduled: Vec<bool> = running.iter().map(|a| a.scheduled).collect();
                prop_assert_eq!(scheduled, flags);
                prop_assert_eq!(kv.hbm_used, old.hbm_used);
                prop_assert_eq!(&kv.stats, &old.stats);
                for a in &running {
                    let id = a.req.request.id;
                    let want = old.entries.get(&id).copied().unwrap_or((0, false, 0));
                    prop_assert_eq!((a.kv_bytes, a.kv_in_hbm, a.kv_round), want, "request {}", id);
                }
                // Every scheduled request makes a token; the finished ones
                // leave and free their KV, and the queue refills the batch.
                running.retain_mut(|a| {
                    if !a.scheduled {
                        return true;
                    }
                    a.generated += 1;
                    if a.generated < a.req.request.output_tokens {
                        return true;
                    }
                    kv.free(a);
                    old.release(a.req.request.id);
                    false
                });
                prop_assert_eq!(kv.hbm_used, old.hbm_used);
                running.extend(queue.by_ref().take(MAX_BATCH - running.len()));
            }
        }
    }

    fn small_cfg(model: &ModelConfig) -> ServeConfig {
        ServeConfig::for_model(model, 4, 640)
    }

    fn small_trace() -> Vec<Request> {
        TraceConfig::poisson(12, 16.0, 42).generate()
    }

    #[test]
    fn every_request_completes_and_metrics_fill() {
        let model = by_name("GPT").unwrap();
        let cfg = small_cfg(&model);
        let r = simulate(&cfg, &model, &SecurityProfile::tensor_tee(), &small_trace());
        assert_eq!(r.completed_requests, r.total_requests);
        assert_eq!(r.ttft_ns.count(), u64::from(r.total_requests));
        assert_eq!(r.latency_ns.count(), u64::from(r.total_requests));
        assert!(r.output_tokens > 0);
        assert!(r.goodput_tps() > 0.0);
        assert!(r.iterations > 0);
        assert!(r.npu_time > Time::ZERO);
        assert!(r.makespan > Time::ZERO);
    }

    #[test]
    fn simulation_is_deterministic() {
        let model = by_name("GPT").unwrap();
        let cfg = small_cfg(&model);
        let trace = small_trace();
        let a = simulate(&cfg, &model, &SecurityProfile::sgx_mgx(), &trace);
        let b = simulate(&cfg, &model, &SecurityProfile::sgx_mgx(), &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn kv_pressure_triggers_offload_and_staging_exposes_it() {
        let model = by_name("GPT").unwrap();
        // A budget holding barely one request forces migration.
        let kv = KvSpec::of(&model);
        let cfg = small_cfg(&model).with_kv_hbm_bytes(kv.bytes_per_token * 800);
        let trace = small_trace();
        let staged = simulate(&cfg, &model, &SecurityProfile::sgx_mgx(), &trace);
        let direct = simulate(&cfg, &model, &SecurityProfile::tensor_tee(), &trace);
        assert!(staged.kv_stats.get("offloads") > 0, "{}", staged.kv_stats);
        assert!(staged.kv_transfer_time > Time::ZERO);
        assert!(
            staged.kv_exposed_time > direct.kv_exposed_time,
            "staging serializes KV migration: {} vs {}",
            staged.kv_exposed_time,
            direct.kv_exposed_time
        );
        assert!(direct.goodput_tps() > staged.goodput_tps());
    }

    #[test]
    fn ample_hbm_means_no_migration() {
        let model = by_name("GPT").unwrap();
        let cfg = small_cfg(&model).with_kv_hbm_bytes(u64::MAX / 2);
        let r = simulate(&cfg, &model, &SecurityProfile::non_secure(), &small_trace());
        assert_eq!(r.kv_stats.get("offloads"), 0);
        assert_eq!(r.kv_transfer_time, Time::ZERO);
        assert_eq!(r.kv_exposed_time, Time::ZERO);
    }

    #[test]
    fn batching_beats_serial_decode() {
        // The fused iteration streams weights once for the whole batch, so
        // decoding 8 contexts costs far less than 8× one context.
        let model = by_name("GPT2-M").unwrap();
        let one = iteration_layer(&model, &[], 1, 256);
        let eight = iteration_layer(&model, &[], 8, 8 * 256);
        assert_eq!(one.w_bytes, eight.w_bytes);
        assert!(eight.in_bytes < 8 * (one.in_bytes + one.w_bytes));
    }

    #[test]
    fn prefill_attention_is_per_request_quadratic() {
        // Two 512-token prompts must cost two 512² attention terms, not
        // one 1024² term — independent requests never attend to each
        // other.
        let model = by_name("GPT2-M").unwrap();
        let split = iteration_layer(&model, &[512, 512], 0, 0);
        let fused = iteration_layer(&model, &[1024], 0, 0);
        assert!(split.macs < fused.macs);
        let h = model.hidden;
        assert_eq!(
            (fused.macs - split.macs),
            model.layers * (1024 * 1024 - 2 * 512 * 512) * 2 * h
        );
        // Linear terms (projections, streams) are token-count-shaped and
        // identical either way.
        assert_eq!(split.in_bytes, fused.in_bytes);
        assert_eq!(split.out_bytes, fused.out_bytes);
    }

    #[test]
    fn bursty_co_arrivals_join_one_prefill_iteration() {
        // All members of a same-timestamp burst are admitted before the
        // first iteration launches, so their TTFTs tie instead of
        // serializing one prefill iteration apart.
        let model = by_name("GPT").unwrap();
        let cfg = small_cfg(&model);
        let trace = TraceConfig::bursty(4, 8.0, 4, 3).generate();
        assert!(trace.iter().all(|r| r.arrival == trace[0].arrival));
        let r = simulate(&cfg, &model, &SecurityProfile::non_secure(), &trace);
        assert_eq!(r.ttft_ns.count(), 4);
        assert_eq!(
            r.ttft_ns.min(),
            r.ttft_ns.max(),
            "co-arriving prompts prefill together"
        );
    }

    #[test]
    fn probed_run_matches_unprobed_and_records_kv_traffic() {
        let model = by_name("GPT").unwrap();
        let kv = KvSpec::of(&model);
        // Tight HBM forces KV spill/fetch so the probe sees migrations.
        let cfg = small_cfg(&model).with_kv_hbm_bytes(kv.bytes_per_token * 800);
        let trace = small_trace();
        let profile = SecurityProfile::sgx_mgx();
        let plain = simulate(&cfg, &model, &profile, &trace);
        let recorder = SharedProbe::recording();
        let probed = simulate_probed(&cfg, &model, &profile, &trace, &recorder);
        assert_eq!(plain, probed, "probing must not change the report");
        let snap = recorder.snapshot().expect("recording");
        assert_eq!(snap.metrics().get("serve.iterations"), plain.iterations);
        assert!(snap.metrics().get("serve.kv_offload_bytes") > 0);
        for track in ["NPU", "link", "CPU"] {
            assert!(
                snap.events().iter().any(|e| e.track() == track),
                "missing track {track}"
            );
        }
    }
}
