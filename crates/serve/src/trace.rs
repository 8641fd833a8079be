//! Request arrival traces: Poisson and bursty arrival processes with
//! per-request prompt/output lengths drawn deterministically from the
//! model-zoo-shaped length distribution.
//!
//! Everything derives from one `tee_sim::SplitMix64` seed, so a trace is
//! byte-reproducible: the same [`TraceConfig`] always generates the same
//! request sequence (the registry's repeat-run invariant depends on it).

use serde::Serialize;
use tee_sim::{SplitMix64, Time};

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Request {
    /// Stable id (index into the trace).
    pub id: u32,
    /// Arrival timestamp.
    pub arrival: Time,
    /// Prompt length in tokens (prefill work).
    pub prompt_tokens: u64,
    /// Tokens to generate, including the first token produced by prefill
    /// (decode work). Always at least 2 so TPOT is defined.
    pub output_tokens: u64,
}

impl Request {
    /// Context length once fully generated (prompt + generated tokens).
    pub fn final_context(&self) -> u64 {
        self.prompt_tokens + self.output_tokens
    }
}

/// The arrival process shaping inter-arrival gaps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival gaps at `rate_rps`
    /// requests per second.
    Poisson {
        /// Long-run arrival rate in requests per second.
        rate_rps: f64,
    },
    /// Bursty arrivals: groups of `burst` requests land together,
    /// separated by exponential gaps sized so the *long-run* rate still
    /// equals `rate_rps` — same offered load, much worse tail.
    Bursty {
        /// Long-run arrival rate in requests per second.
        rate_rps: f64,
        /// Requests per burst.
        burst: u32,
    },
}

impl ArrivalProcess {
    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }

    /// The long-run request rate.
    pub fn rate_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } | ArrivalProcess::Bursty { rate_rps, .. } => {
                rate_rps
            }
        }
    }
}

/// A deterministic trace specification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceConfig {
    /// Number of requests in the trace.
    pub n_requests: u32,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Mean prompt length in tokens (exponential, clamped to
    /// `[mean/4, 4·mean]`).
    pub prompt_mean: u64,
    /// Mean output length in tokens (exponential, clamped to
    /// `[max(2, mean/4), 4·mean]`).
    pub output_mean: u64,
    /// PRNG seed; every stochastic choice in the trace derives from it.
    pub seed: u64,
}

impl TraceConfig {
    /// A Poisson trace with the default zoo length shape (512-token
    /// prompts, 128-token outputs on average).
    pub fn poisson(n_requests: u32, rate_rps: f64, seed: u64) -> Self {
        TraceConfig {
            n_requests,
            arrivals: ArrivalProcess::Poisson { rate_rps },
            prompt_mean: 512,
            output_mean: 128,
            seed,
        }
    }

    /// A bursty trace at the same long-run rate.
    pub fn bursty(n_requests: u32, rate_rps: f64, burst: u32, seed: u64) -> Self {
        TraceConfig {
            n_requests,
            arrivals: ArrivalProcess::Bursty {
                rate_rps,
                burst: burst.max(1),
            },
            prompt_mean: 512,
            output_mean: 128,
            seed,
        }
    }

    /// The steady per-request context length (prompt + output means) —
    /// what the KV HBM budget is sized against.
    pub fn steady_tokens(&self) -> u64 {
        self.prompt_mean + self.output_mean
    }

    /// Generates the request trace, sorted by arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the arrival rate is not finite and positive, or if a
    /// bursty process has a zero burst size.
    pub fn generate(&self) -> Vec<Request> {
        let rate = self.arrivals.rate_rps();
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive: {rate}"
        );
        if let ArrivalProcess::Bursty { burst, .. } = self.arrivals {
            assert!(burst >= 1, "a burst needs at least one request");
        }
        // Named sub-streams off the one trace seed (`SplitMix64::split`):
        // arrival gaps and length draws stay independent, and adding a
        // stream later cannot shift the existing ones.
        let rng = SplitMix64::new(self.seed);
        let mut arrivals = rng.split(0);
        let mut lengths = rng.split(1);
        let mut at = 0.0f64;
        (0..self.n_requests)
            .map(|id| {
                match self.arrivals {
                    ArrivalProcess::Poisson { .. } => {
                        at += arrivals.next_exp(1.0 / rate);
                    }
                    ArrivalProcess::Bursty { burst, .. } => {
                        // Only the first member of each burst advances the
                        // clock; the gap mean is burst/rate so the long-run
                        // rate matches the Poisson preset.
                        if id % burst == 0 {
                            at += arrivals.next_exp(f64::from(burst) / rate);
                        }
                    }
                }
                Request {
                    id,
                    arrival: Time::from_secs_f64(at),
                    prompt_tokens: sample_len(&mut lengths, self.prompt_mean, 1),
                    output_tokens: sample_len(&mut lengths, self.output_mean, 2),
                }
            })
            .collect()
    }
}

/// Exponential length draw clamped to `[max(floor, mean/4), 4·mean]`.
fn sample_len(rng: &mut SplitMix64, mean: u64, floor: u64) -> u64 {
    let lo = (mean / 4).max(floor);
    let hi = (mean * 4).max(lo);
    (rng.next_exp(mean as f64).round() as u64).clamp(lo, hi)
}

/// Deterministic diurnal rate modulation: a triangle wave around the base
/// rate, so the *long-run* rate is unchanged while the instantaneous rate
/// swings between `(1 - amplitude)` and `(1 + amplitude)` of it.
///
/// A triangle (rather than a sine) keeps the multiplier pure integer-free
/// arithmetic on the phase — no transcendental library calls whose last
/// bit could differ across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Diurnal {
    /// Length of one day in simulated seconds (compressed days are fine —
    /// only the ratio to the trace span matters).
    pub period_secs: f64,
    /// Peak-to-base swing in `[0, 1)`; `0.6` means the peak rate is 1.6×
    /// the base and the trough 0.4×.
    pub amplitude: f64,
}

impl Diurnal {
    /// A compressed day: `period_secs` long with the given swing.
    pub fn new(period_secs: f64, amplitude: f64) -> Self {
        assert!(
            period_secs.is_finite() && period_secs > 0.0,
            "diurnal period must be positive: {period_secs}"
        );
        assert!(
            (0.0..1.0).contains(&amplitude),
            "diurnal amplitude must be in [0, 1): {amplitude}"
        );
        Diurnal {
            period_secs,
            amplitude,
        }
    }

    /// Instantaneous rate multiplier at simulated second `t` — a triangle
    /// wave with mean exactly 1 over a period (trough at phase 0, peak at
    /// phase ½).
    pub fn multiplier(&self, t_secs: f64) -> f64 {
        let phase = (t_secs / self.period_secs).fract();
        let tri = if phase < 0.5 {
            4.0 * phase - 1.0
        } else {
            3.0 - 4.0 * phase
        };
        1.0 + self.amplitude * tri
    }

    /// The peak multiplier — the envelope rate used for thinning.
    fn peak(&self) -> f64 {
        1.0 + self.amplitude
    }
}

/// One turn of a multi-tenant chat session: a [`Request`] plus the
/// session bookkeeping a KV-aware router needs (who owns it, which turn
/// it is, and how much KV context earlier turns already accumulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SessionRequest {
    /// The underlying request (id is the index in arrival order).
    pub request: Request,
    /// Owning tenant (dense, `0..tenants`).
    pub tenant: u32,
    /// Globally unique session id (dense, in session-start order).
    pub session: u64,
    /// Zero-based turn index within the session.
    pub turn: u32,
    /// KV context carried in from previous turns of this session, in
    /// tokens — what a migration must move over the wire.
    pub context_tokens: u64,
}

impl From<Request> for SessionRequest {
    /// A single-turn session (id = the request id) with no carried
    /// context.
    fn from(request: Request) -> Self {
        SessionRequest {
            request,
            tenant: 0,
            session: u64::from(request.id),
            turn: 0,
            context_tokens: 0,
        }
    }
}

/// Mean turns per session (geometric-ish, clamped to `[1, 4·mean]`).
const TURNS_MEAN: u32 = 4;

/// Mean think time between consecutive turns of one session, in seconds.
const THINK_MEAN_SECS: f64 = 2.0;

/// A deterministic multi-tenant session trace: session *starts* are
/// Poisson arrivals (optionally diurnally modulated); each session then
/// runs a geometric number of follow-up turns separated by exponential
/// think times, with all per-session draws taken from its tenant's
/// private [`SplitMix64::split`] sub-stream — so adding a tenant or
/// resizing one tenant's mix never shifts another tenant's trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SessionTraceConfig {
    /// Total requests (turns) in the trace; sessions whose later turns
    /// fall past the cut are truncated, never reordered.
    pub n_requests: u32,
    /// Number of tenants sharing the fleet.
    pub tenants: u32,
    /// Long-run session-start rate per second (aggregate across tenants).
    pub rate_rps: f64,
    /// Optional diurnal modulation of the session-start rate.
    pub diurnal: Option<Diurnal>,
    /// Mean prompt length per turn in tokens.
    pub prompt_mean: u64,
    /// Mean output length per turn in tokens.
    pub output_mean: u64,
    /// PRNG seed; every stochastic choice derives from it.
    pub seed: u64,
}

impl SessionTraceConfig {
    /// A Poisson session mix with the default zoo length shape.
    pub fn poisson(n_requests: u32, rate_rps: f64, tenants: u32, seed: u64) -> Self {
        SessionTraceConfig {
            n_requests,
            tenants: tenants.max(1),
            rate_rps,
            diurnal: None,
            prompt_mean: 512,
            output_mean: 128,
            seed,
        }
    }

    /// Adds diurnal modulation to the session-start rate.
    pub fn with_diurnal(mut self, diurnal: Diurnal) -> Self {
        self.diurnal = Some(diurnal);
        self
    }

    /// The steady per-turn context growth (prompt + output means).
    pub fn steady_tokens(&self) -> u64 {
        self.prompt_mean + self.output_mean
    }

    /// Generates the session trace, sorted by arrival time, ids dense in
    /// arrival order.
    ///
    /// # Panics
    ///
    /// Panics if the arrival rate is not finite and positive.
    pub fn generate(&self) -> Vec<SessionRequest> {
        let rate = self.rate_rps;
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive: {rate}"
        );
        let root = SplitMix64::new(self.seed);
        // Named sub-streams: 0 = session-start gaps, 1 = diurnal thinning
        // + tenant assignment; tenants own streams from TENANT_STREAM_BASE
        // up, so the layout can grow without shifting anything.
        let mut starts = root.split(0);
        let mut mixer = root.split(1);
        let mut tenant_rngs: Vec<SplitMix64> = (0..self.tenants.max(1))
            .map(|t| root.split(TENANT_STREAM_BASE + u64::from(t)))
            .collect();
        let peak_rate = rate * self.diurnal.map_or(1.0, |d| d.peak());
        let mut out: Vec<SessionRequest> = Vec::with_capacity(self.n_requests as usize);
        let mut at = 0.0f64;
        let mut session: u64 = 0;
        while out.len() < self.n_requests as usize {
            // Candidate session starts arrive at the peak-envelope rate;
            // diurnal thinning accepts `rate(t)/peak` of them, which is
            // exactly an inhomogeneous Poisson process at `rate(t)`.
            at += starts.next_exp(1.0 / peak_rate);
            if let Some(d) = self.diurnal {
                if !mixer.next_bool(d.multiplier(at) / d.peak()) {
                    continue;
                }
            }
            let tenant = mixer.next_below(u64::from(self.tenants.max(1))) as u32;
            let rng = &mut tenant_rngs[tenant as usize];
            let turns =
                (rng.next_exp(f64::from(TURNS_MEAN)).round() as u32).clamp(1, TURNS_MEAN * 4);
            let mut turn_at = at;
            let mut context = 0u64;
            for turn in 0..turns {
                if turn > 0 {
                    turn_at += rng.next_exp(THINK_MEAN_SECS);
                }
                let request = Request {
                    id: 0, // reassigned after the arrival sort
                    arrival: Time::from_secs_f64(turn_at),
                    prompt_tokens: sample_len(rng, self.prompt_mean, 1),
                    output_tokens: sample_len(rng, self.output_mean, 2),
                };
                out.push(SessionRequest {
                    request,
                    tenant,
                    session,
                    turn,
                    context_tokens: context,
                });
                context += request.final_context();
            }
            session += 1;
        }
        // Arrival order with a total deterministic tie-break; truncation
        // then only ever drops the latest turns, never reorders a session
        // (turn times are monotone within one).
        out.sort_by_key(|r| (r.request.arrival, r.session, r.turn));
        out.truncate(self.n_requests as usize);
        for (id, r) in out.iter_mut().enumerate() {
            r.request.id = id as u32;
        }
        out
    }
}

/// First tenant sub-stream id (streams 0/1 belong to the trace itself).
const TENANT_STREAM_BASE: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let cfg = TraceConfig::poisson(50, 8.0, 42);
        assert_eq!(cfg.generate(), cfg.generate());
        let other = TraceConfig::poisson(50, 8.0, 43);
        assert_ne!(cfg.generate(), other.generate(), "seed matters");
    }

    #[test]
    fn arrivals_are_sorted_and_rate_roughly_matches() {
        let cfg = TraceConfig::poisson(2_000, 10.0, 7);
        let trace = cfg.generate();
        assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let span = trace.last().unwrap().arrival.as_secs_f64();
        let rate = trace.len() as f64 / span;
        assert!((rate - 10.0).abs() < 1.0, "empirical rate {rate}");
    }

    #[test]
    fn lengths_are_clamped_and_output_supports_tpot() {
        let cfg = TraceConfig::poisson(500, 5.0, 1);
        for r in cfg.generate() {
            assert!((128..=2048).contains(&r.prompt_tokens), "{r:?}");
            assert!((32..=512).contains(&r.output_tokens), "{r:?}");
            assert!(r.output_tokens >= 2);
            assert_eq!(r.final_context(), r.prompt_tokens + r.output_tokens);
        }
    }

    #[test]
    fn bursty_groups_share_a_timestamp_but_keep_the_rate() {
        let cfg = TraceConfig::bursty(400, 10.0, 4, 11);
        let trace = cfg.generate();
        for group in trace.chunks(4) {
            assert!(group.iter().all(|r| r.arrival == group[0].arrival));
        }
        let span = trace.last().unwrap().arrival.as_secs_f64();
        let rate = trace.len() as f64 / span;
        assert!((rate - 10.0).abs() < 2.0, "empirical rate {rate}");
        assert_eq!(cfg.arrivals.label(), "bursty");
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        TraceConfig::poisson(1, 0.0, 1).generate();
    }

    #[test]
    fn session_traces_are_deterministic() {
        let cfg =
            SessionTraceConfig::poisson(300, 6.0, 4, 42).with_diurnal(Diurnal::new(30.0, 0.6));
        assert_eq!(cfg.generate(), cfg.generate());
        let reseeded =
            SessionTraceConfig::poisson(300, 6.0, 4, 43).with_diurnal(Diurnal::new(30.0, 0.6));
        assert_ne!(cfg.generate(), reseeded.generate(), "seed matters");
    }

    #[test]
    fn diurnal_multiplier_has_unit_mean_and_bounded_swing() {
        let d = Diurnal::new(60.0, 0.8);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| d.multiplier(60.0 * i as f64 / n as f64))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 1e-3, "triangle mean {mean}");
        for i in 0..n {
            let m = d.multiplier(60.0 * i as f64 / n as f64);
            assert!(
                (0.2 - 1e-9..=1.8 + 1e-9).contains(&m),
                "multiplier {m} out of envelope"
            );
        }
    }

    #[test]
    fn diurnal_session_starts_keep_the_long_run_rate() {
        // Many compressed days, so the thinning averages out: the
        // session-*start* rate, from the first start to the last, must
        // come back to the configured base.
        let cfg =
            SessionTraceConfig::poisson(4_000, 20.0, 3, 9).with_diurnal(Diurnal::new(10.0, 0.7));
        let trace = cfg.generate();
        let starts: Vec<Time> = trace
            .iter()
            .filter(|r| r.turn == 0)
            .map(|r| r.request.arrival)
            .collect();
        let span = (starts[starts.len() - 1] - starts[0]).as_secs_f64();
        let rate = (starts.len() - 1) as f64 / span;
        assert!(
            (rate - 20.0).abs() < 2.0,
            "empirical session-start rate {rate} vs 20"
        );
    }

    #[test]
    fn sessions_accumulate_context_and_stay_ordered() {
        let cfg = SessionTraceConfig::poisson(500, 8.0, 4, 5);
        let trace = cfg.generate();
        assert_eq!(trace.len(), 500);
        assert!(trace
            .windows(2)
            .all(|w| w[0].request.arrival <= w[1].request.arrival));
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.request.id, i as u32, "ids dense in arrival order");
            assert!(r.tenant < 4);
        }
        // Per session: turns dense from 0, context = sum of earlier turns.
        use std::collections::BTreeMap;
        let mut per_session: BTreeMap<u64, Vec<&SessionRequest>> = BTreeMap::new();
        for r in &trace {
            per_session.entry(r.session).or_default().push(r);
        }
        let mut multi_turn = 0;
        for turns in per_session.values() {
            let mut context = 0u64;
            for (k, r) in turns.iter().enumerate() {
                assert_eq!(r.turn, k as u32, "turns dense per session");
                assert_eq!(r.context_tokens, context, "context accumulates");
                context += r.request.final_context();
            }
            if turns.len() > 1 {
                multi_turn += 1;
            }
        }
        assert!(multi_turn > 10, "session mix has follow-up turns");
    }

    #[test]
    fn tenant_sub_streams_are_isolated() {
        // Same seed, 2 vs 4 tenants: the mixer stream hands tenant 0 other
        // sessions, but tenant 0's parameter stream is a function of (seed,
        // tenant id) alone, so its n-th session draws the same turns.
        // Yields tenant 0's session ids and, per session, each turn's
        // (prompt, output) tokens, in session order.
        let tenant0 = |tenants: u32| {
            let trace = SessionTraceConfig::poisson(400, 5.0, tenants, 77).generate();
            let mut turns: Vec<&SessionRequest> = trace.iter().filter(|r| r.tenant == 0).collect();
            turns.sort_by_key(|r| (r.session, r.turn));
            let mut ids: Vec<u64> = Vec::new();
            let mut shapes: Vec<Vec<(u64, u64)>> = Vec::new();
            for r in turns {
                if ids.last() != Some(&r.session) {
                    ids.push(r.session);
                    shapes.push(Vec::new());
                }
                let tokens = (r.request.prompt_tokens, r.request.output_tokens);
                shapes.last_mut().expect("pushed above").push(tokens);
            }
            (ids, shapes)
        };
        let (two_ids, two) = tenant0(2);
        let (four_ids, four) = tenant0(4);
        assert_ne!(two_ids, four_ids, "tenant 0 owns other sessions");
        let mut compared = 0;
        for (a, b) in two.iter().zip(&four) {
            // Truncation drops the latest turns, so compare the common prefix.
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x, y);
                compared += 1;
            }
        }
        assert!(compared >= 50, "only {compared} turns compared");
    }

    #[test]
    #[should_panic]
    fn zero_burst_rejected() {
        // The bursty() constructor clamps, but the fields are public.
        let mut c = TraceConfig::bursty(4, 8.0, 4, 1);
        c.arrivals = ArrivalProcess::Bursty {
            rate_rps: 8.0,
            burst: 0,
        };
        c.generate();
    }
}
