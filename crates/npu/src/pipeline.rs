//! The Figure-13 verification pipeline: a per-block model, priced without
//! stepping every block.
//!
//! A protected input stream flows DRAM → decrypt → MAC recompute →
//! verification → compute. The three schemes differ in when compute may
//! consume a line:
//!
//! * `PerBlock` (baseline): only after the line's whole block is verified.
//!   Unverified decrypted lines wait in a bounded MEE buffer
//!   ([`crate::config::NpuConfig::verify_buffer_bytes`]) — once the block
//!   size approaches the buffer size, fetching stalls behind verification
//!   and bubbles open in the compute stream (Figure 13b).
//! * `TensorDelayed` (TensorTEE): compute consumes lines as they decrypt;
//!   verification runs in parallel and a single barrier at the end of the
//!   tensor covers communication safety (Figure 13c).
//! * `None`: straight streaming.
//!
//! The model is a per-block recurrence in which every finish time is the
//! later of two earlier ones plus a per-block constant (a max-plus
//! system). [`simulate_stream`] returns what stepping it block by block
//! returns, bit for bit, but takes few of the steps:
//!
//! * **Closed form.** Under `None` and `TensorDelayed` no fetch is gated,
//!   so block `k` lands at `k·F` and verify and compute are serial chains
//!   fed by it. Each chain ends at the later of its two extreme critical
//!   paths: the first block's input followed by `n` steps, or the last
//!   block's input followed by one.
//! * **Period jump.** Under `PerBlock` the fetch/verify/release part evolves
//!   on its own around the ring of buffer slots; compute only reads it. The
//!   walk steps until that part's state at a ring boundary, taken relative
//!   to `fetch_done`, repeats one saved snapshot (re-saved at power-of-two
//!   ring-turn distances, as in Brent's cycle finder), and then jumps whole
//!   periods in one of two cases:
//!   - *Full repeat*: compute's lead over `fetch_done` repeated too. The
//!     whole state repeats, so every time moves by the period's Δfetch and
//!     the stall by its Δstall.
//!   - *Busy repeat*: compute was busy on every block of the period since
//!     the snapshot (each block's data was ready no later than the previous
//!     block's compute ended), so compute moved by `P·C` over `P` blocks of
//!     `C`, and its lead grew, so `P·C > Δfetch`. In the next period each
//!     block's data is ready Δfetch later, while compute, if busy so far,
//!     ends the block before it `P·C` later: so each block is busy again,
//!     and by induction every later period is busy too. The
//!     fetch/verify/release state moves by Δfetch per period, compute by
//!     `P·C`, and the stall not at all (a busy block adds none).
//!
//!   A jump is taken only on a repeat the walk has seen, so it is exact
//!   whatever the transient, and every stream is priced over all of its
//!   blocks.
//!
//! The per-block constants depend only on the config, the scheme and the
//! block size, so an [`NpuEngine`](crate::engine::NpuEngine) builds its
//! scheme's once (`Blocks::new`) and prices every layer with them; only a
//! stream shorter than one block builds its own. [`simulate_stream`]
//! builds them at the stream's own block size, so it checks that reuse.
//!
//! The unit tests keep the block-by-block loop as the oracle
//! (`step_every_block`) and assert equal [`StreamTiming`]s over random
//! schemes, configs, stream sizes and compute loads.

use crate::config::NpuConfig;
use crate::mac::MacScheme;
use tee_sim::Time;

/// Timing breakdown of one protected stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTiming {
    /// End-to-end completion (including any final verification barrier).
    pub total: Time,
    /// Time computation spent stalled waiting on verification.
    pub verify_stall: Time,
}

/// Simulates streaming `bytes` of protected input overlapped with
/// `compute_total` of computation, under `scheme`.
///
/// Returns the timing breakdown. Computation is modeled as rate-matched
/// consumption: each block carries `compute_total / n_blocks` of work.
///
/// # Example
///
/// ```
/// use tee_npu::config::NpuConfig;
/// use tee_npu::mac::MacScheme;
/// use tee_npu::pipeline::simulate_stream;
/// use tee_sim::Time;
///
/// let cfg = NpuConfig::default();
/// let plain = simulate_stream(&cfg, MacScheme::None, 1 << 20, Time::from_us(8));
/// let ours = simulate_stream(&cfg, MacScheme::TensorDelayed, 1 << 20, Time::from_us(8));
/// assert!(ours.total >= plain.total);
/// ```
pub fn simulate_stream(
    cfg: &NpuConfig,
    scheme: MacScheme,
    bytes: u64,
    compute_total: Time,
) -> StreamTiming {
    let block = scheme.pipeline_block().min(bytes.next_power_of_two());
    Blocks::sized(cfg, scheme, block).stream(cfg, bytes, compute_total)
}

/// The per-block constants of one scheme's pipeline at one block size.
#[derive(Debug, Clone)]
pub(crate) struct Blocks {
    scheme: MacScheme,
    /// Bytes per block.
    block: u64,
    /// `F`: one block's fetch at the (MAC-inflated) DRAM bandwidth.
    fetch: Time,
    /// `R`: one block's MAC recompute.
    recompute: Time,
    /// `M`: MAC latency.
    mac_lat: Time,
    /// `A`: AES latency.
    aes_lat: Time,
    /// Buffer slots in the release ring.
    slots: usize,
}

impl Blocks {
    /// The constants of `scheme`'s full pipeline block on `cfg`.
    pub(crate) fn new(cfg: &NpuConfig, scheme: MacScheme) -> Self {
        Self::sized(cfg, scheme, scheme.pipeline_block())
    }

    fn sized(cfg: &NpuConfig, scheme: MacScheme, block: u64) -> Self {
        let clock = cfg.clock();
        let bw = cfg.dram_bandwidth() / (1.0 + scheme.traffic_overhead());
        Blocks {
            scheme,
            block,
            fetch: Time::from_secs_f64(block as f64 / bw),
            // Fractional cycles: the hash datapath is pipelined, so
            // per-block recompute time is throughput-, not latency-,
            // quantized.
            recompute: Time::from_secs_f64(
                (block as f64 / 64.0) / cfg.mac_lines_per_cycle / (cfg.freq_ghz * 1e9),
            ),
            mac_lat: clock.cycles_to_time(cfg.mac_latency),
            aes_lat: clock.cycles_to_time(cfg.aes_latency),
            slots: (cfg.verify_buffer_bytes / block).max(1) as usize,
        }
    }

    /// [`simulate_stream`] on these constants, which must be `cfg`'s; `cfg`
    /// is read only to build the constants of a stream shorter than one
    /// block.
    pub(crate) fn stream(&self, cfg: &NpuConfig, bytes: u64, compute_total: Time) -> StreamTiming {
        if bytes == 0 {
            return StreamTiming {
                total: compute_total,
                verify_stall: Time::ZERO,
            };
        }
        let block = self.block.min(bytes.next_power_of_two());
        if block < self.block {
            // One block of its own, smaller size.
            return Blocks::sized(cfg, self.scheme, block).walk(1, compute_total);
        }
        let n_blocks = bytes.div_ceil(block);
        self.walk(n_blocks, Time::from_ps(compute_total.as_ps() / n_blocks))
    }

    /// `n` blocks carrying `compute` each, from rest.
    fn walk(&self, n: u64, compute: Time) -> StreamTiming {
        if self.scheme.gates_compute() {
            Gated::at_rest(self.slots).run(self, compute, n)
        } else {
            self.ungated(n, compute)
        }
    }

    /// `None` and `TensorDelayed` over `n` blocks, in closed form.
    fn ungated(&self, n: u64, compute: Time) -> StreamTiming {
        let times = |t: Time| Time::from_ps(n * t.as_ps());
        let (f, r, c) = (self.fetch, self.recompute, compute);
        // Data is ready when fetched, plus the decrypt under TensorTEE.
        let aes = match self.scheme {
            MacScheme::TensorDelayed => self.aes_lat,
            _ => Time::ZERO,
        };
        let fetch_done = times(f);
        let compute_done = (f + aes + times(c)).max(fetch_done + aes + c);
        let total = match self.scheme {
            // Delayed verification: the barrier waits for the tensor MAC
            // comparison, which trails the last block's recompute.
            MacScheme::TensorDelayed => {
                let verify_done = (f + times(r)).max(fetch_done + r);
                compute_done.max(verify_done + self.mac_lat)
            }
            _ => compute_done,
        };
        StreamTiming {
            total,
            verify_stall: Time::ZERO,
        }
    }
}

/// A `PerBlock` stream between two blocks.
struct Pipe {
    /// Ring of verify-completion times for buffer-slot release.
    releases: Vec<Time>,
    fetch_done: Time,
    verify_done: Time,
    compute_done: Time,
    stall: Time,
}

impl Pipe {
    /// Steps one block carrying `compute` through buffer slot `slot`, and
    /// returns whether compute was busy on it: its data was ready no later
    /// than the previous block's compute ended.
    fn step(&mut self, b: &Blocks, compute: Time, slot: usize) -> bool {
        let fetch_start = self.fetch_done.max(self.releases[slot]);
        self.fetch_done = fetch_start + b.fetch;
        // Verification engine is pipelined but serial across blocks.
        self.verify_done = self.fetch_done.max(self.verify_done) + b.recompute;
        let block_verified = self.verify_done + b.mac_lat;
        self.releases[slot] = block_verified;
        let data_ready = block_verified + b.aes_lat;
        let busy = data_ready <= self.compute_done;
        let compute_start = data_ready.max(self.compute_done);
        // Bubble: time compute sat idle beyond pure data arrival.
        let unsecured_ready = self.fetch_done.max(self.compute_done);
        self.stall += compute_start.saturating_sub(unsecured_ready);
        self.compute_done = compute_start + compute;
        busy
    }
}

/// A walk of a `PerBlock` stream from rest.
struct Gated {
    pipe: Pipe,
    /// Blocks stepped or jumped so far.
    blocks: u64,
    /// The state the repeat check compares against, the ring turns since
    /// it was saved, and the distance at which it is re-saved (doubling,
    /// as in Brent's cycle finder).
    snap: Snapshot,
    turns: u64,
    power: u64,
    /// Whether compute was busy on every block since the snapshot.
    busy: bool,
}

impl Gated {
    /// A stream before its first block, with `slots` empty buffer slots.
    fn at_rest(slots: usize) -> Self {
        let pipe = Pipe {
            releases: vec![Time::ZERO; slots],
            fetch_done: Time::ZERO,
            verify_done: Time::ZERO,
            compute_done: Time::ZERO,
            stall: Time::ZERO,
        };
        let mut snap = Snapshot {
            releases: vec![Time::ZERO; slots],
            ..Snapshot::default()
        };
        snap.save(&pipe, 0);
        Gated {
            pipe,
            blocks: 0,
            snap,
            turns: 0,
            power: 1,
            busy: true,
        }
    }

    /// Walks `n` blocks, each carrying `compute`: steps until the state at a
    /// ring boundary repeats the snapshot, then jumps whole periods and
    /// steps the rest.
    fn run(mut self, b: &Blocks, compute: Time, n: u64) -> StreamTiming {
        let mut searching = true;
        while self.blocks < n {
            let slot = (self.blocks % b.slots as u64) as usize;
            self.busy &= self.pipe.step(b, compute, slot);
            self.blocks += 1;
            if searching && self.blocks.is_multiple_of(b.slots as u64) {
                searching = !self.watch(n);
            }
        }
        StreamTiming {
            total: self.pipe.compute_done,
            verify_stall: self.pipe.stall,
        }
    }

    /// At a ring boundary: on a full or a busy repeat of the snapshot (see
    /// the module doc), jumps the whole periods that fit in `n` blocks and
    /// returns true; otherwise re-saves the snapshot when due.
    fn watch(&mut self, n: u64) -> bool {
        let (pipe, snap) = (&mut self.pipe, &self.snap);
        if snap.repeats(pipe) {
            let fetch = pipe.fetch_done - snap.fetch_done;
            let compute = pipe.compute_done - snap.compute_done;
            // A full repeat (compute's lead repeated) or a busy one
            // (compute busy throughout and gaining, so `compute` is `P·C`
            // and the stall did not grow).
            if compute == fetch || (self.busy && compute > fetch) {
                let period = self.blocks - snap.blocks;
                let q = (n - self.blocks) / period;
                let times = |t: Time| Time::from_ps(q * t.as_ps());
                let (shift, stall) = (times(fetch), times(pipe.stall - snap.stall));
                for r in &mut pipe.releases {
                    *r += shift;
                }
                pipe.fetch_done += shift;
                pipe.verify_done += shift;
                pipe.compute_done += times(compute);
                pipe.stall += stall;
                self.blocks += q * period;
                return true;
            }
        }
        self.turns += 1;
        if self.turns == self.power {
            self.snap.save(&self.pipe, self.blocks);
            self.busy = true;
            (self.turns, self.power) = (0, self.power * 2);
        }
        false
    }
}

/// A [`Pipe`] at a ring boundary; the fetch/verify/release part is kept
/// relative to its `fetch_done`.
#[derive(Default)]
struct Snapshot {
    /// Blocks stepped when it was taken.
    blocks: u64,
    fetch_done: Time,
    compute_done: Time,
    stall: Time,
    /// `verify_done - fetch_done`.
    verify_lead: Time,
    /// Each slot's release minus `fetch_done`, clamped at zero: a release
    /// at or before `fetch_done` can never gate a fetch again.
    releases: Vec<Time>,
}

impl Snapshot {
    fn save(&mut self, pipe: &Pipe, blocks: u64) {
        let f = pipe.fetch_done;
        self.blocks = blocks;
        self.fetch_done = f;
        self.compute_done = pipe.compute_done;
        self.stall = pipe.stall;
        self.verify_lead = pipe.verify_done - f;
        for (s, &r) in self.releases.iter_mut().zip(&pipe.releases) {
            *s = r.saturating_sub(f);
        }
    }

    /// Whether `pipe`'s fetch/verify/release part is this snapshot's, moved
    /// later in time.
    fn repeats(&self, pipe: &Pipe) -> bool {
        let f = pipe.fetch_done;
        pipe.verify_done - f == self.verify_lead
            && self
                .releases
                .iter()
                .zip(&pipe.releases)
                .all(|(&s, &r)| r.saturating_sub(f) == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> NpuConfig {
        NpuConfig::default()
    }

    /// The block-by-block loop `simulate_stream` replaced, kept as its
    /// oracle: it steps every block of the stream. It no longer tracks when
    /// the last fetch ends, which [`StreamTiming`] does not report.
    fn step_every_block(
        cfg: &NpuConfig,
        scheme: MacScheme,
        bytes: u64,
        compute_total: Time,
    ) -> StreamTiming {
        if bytes == 0 {
            return StreamTiming {
                total: compute_total,
                verify_stall: Time::ZERO,
            };
        }
        let clock = cfg.clock();
        let block = scheme.pipeline_block().min(bytes.next_power_of_two());
        let n_blocks = bytes.div_ceil(block);
        let bw = cfg.dram_bandwidth() / (1.0 + scheme.traffic_overhead());
        let fetch_per_block = Time::from_secs_f64(block as f64 / bw);
        let compute_per_block = Time::from_ps(compute_total.as_ps() / n_blocks);
        let recompute = Time::from_secs_f64(
            (block as f64 / 64.0) / cfg.mac_lines_per_cycle / (cfg.freq_ghz * 1e9),
        );
        let mac_lat = clock.cycles_to_time(cfg.mac_latency);
        let aes_lat = clock.cycles_to_time(cfg.aes_latency);
        let buffer_slots = (cfg.verify_buffer_bytes / block).max(1) as usize;

        let mut releases: Vec<Time> = vec![Time::ZERO; buffer_slots];
        let mut fetch_done = Time::ZERO;
        let mut verify_done = Time::ZERO;
        let mut compute_done = Time::ZERO;
        let mut stall = Time::ZERO;

        for k in 0..n_blocks as usize {
            let gate = if scheme.gates_compute() {
                releases[k % buffer_slots]
            } else {
                Time::ZERO
            };
            let fetch_start = fetch_done.max(gate);
            fetch_done = fetch_start + fetch_per_block;

            verify_done = fetch_done.max(verify_done) + recompute;
            let block_verified = verify_done + mac_lat;
            if scheme.gates_compute() {
                releases[k % buffer_slots] = block_verified;
            }

            let data_ready = match scheme {
                MacScheme::PerBlock { .. } => block_verified + aes_lat,
                MacScheme::TensorDelayed => fetch_done + aes_lat,
                MacScheme::None => fetch_done,
            };
            let compute_start = data_ready.max(compute_done);
            if scheme.gates_compute() {
                let unsecured_ready = fetch_done.max(compute_done);
                stall += compute_start.saturating_sub(unsecured_ready);
            }
            compute_done = compute_start + compute_per_block;
        }

        let total = match scheme {
            MacScheme::TensorDelayed => compute_done.max(verify_done + mac_lat),
            _ => compute_done,
        };
        StreamTiming {
            total,
            verify_stall: stall,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::ci())]
        /// The closed form and the period jump return exactly what the
        /// block loop returns, over schemes, configs (including a MAC
        /// recompute slower than the fetch), 1 B–1 GiB streams (up to 16.8M
        /// blocks, every one stepped by the oracle) and compute from none
        /// to compute-bound, where only the busy jump repeats.
        #[test]
        fn simulate_stream_matches_the_block_loop(
            scheme_pick in 0u8..4,
            granularity in (6u32..=12, 0u64..64, any::<bool>()),
            buffer_bytes in (2u64 << 10)..=(32 << 10),
            clock_and_mac in (500u64..=2000, 250u64..=4000, 0u64..=200, 0u64..=200),
            dram in (1u32..=16, 1u64..=32),
            stream in (0u32..=30, any::<u64>(), 0u64..=4000),
        ) {
            let (exp, odd, non_power) = granularity;
            let scheme = match scheme_pick {
                0 => MacScheme::None,
                1 => MacScheme::TensorDelayed,
                // A few non-power-of-two blocks: the API accepts any size.
                _ if non_power && odd % 4 == 0 => MacScheme::PerBlock {
                    granularity: 64 + (odd << (exp - 6)) % 4033,
                },
                _ => MacScheme::PerBlock { granularity: 1 << exp },
            };
            let cfg = NpuConfig::varied(clock_and_mac, buffer_bytes, dram);
            // Log-uniform sizes from 1 B to 1 GiB.
            let (size_exp, size_bits, load_milli) = stream;
            let bytes = ((1u64 << size_exp) + size_bits % (1u64 << size_exp)).min(1 << 30);
            // Compute from none (one case in ten) to 4x the plain fetch time.
            let compute = if load_milli < 400 {
                Time::ZERO
            } else {
                let fetch_secs = bytes as f64 / cfg.dram_bandwidth();
                Time::from_secs_f64(fetch_secs * load_milli as f64 / 1e3)
            };
            prop_assert_eq!(
                simulate_stream(&cfg, scheme, bytes, compute),
                step_every_block(&cfg, scheme, bytes, compute),
                "{:?} {} B compute {} on {:?}",
                scheme,
                bytes,
                compute,
                cfg
            );
        }
    }

    /// Streams far past the 4,096 blocks once priced exactly (the rest was
    /// extrapolated from a 4,096-block head and a 2,048-block half), pinned
    /// and checked against the block loop.
    #[test]
    fn streams_past_the_old_cap_match_the_block_loop() {
        let ps = Time::from_ps;
        let cases = [
            // 20,000 blocks: `max(compute_done, verify_done + M)` takes the
            // verify branch at 2,048 and 4,096 blocks but the compute
            // branch from block 10,000 on. The extrapolation read
            // 10,200,500 ps.
            (
                "TensorDelayed, branch change after the head",
                NpuConfig {
                    aes_latency: 0,
                    mac_latency: 200,
                    ..cfg()
                },
                MacScheme::TensorDelayed,
                1_280_000,
                ps(10_400_000),
                (ps(10_400_500), Time::ZERO),
            ),
            // 200,000 blocks, compute-bound: the full state never repeats,
            // so only the busy jump avoids stepping every block.
            (
                "compute-bound PerBlock",
                cfg(),
                MacScheme::PerBlock { granularity: 512 },
                102_400_000,
                Time::from_us(1800),
                (ps(1_800_088_063), ps(84_000)),
            ),
        ];
        for (name, cfg, scheme, bytes, compute, (total, verify_stall)) in cases {
            let want = StreamTiming {
                total,
                verify_stall,
            };
            let every_block = step_every_block(&cfg, scheme, bytes, compute);
            assert_eq!(every_block, want, "{name}: block loop");
            assert_eq!(
                simulate_stream(&cfg, scheme, bytes, compute),
                want,
                "{name}"
            );
        }
    }

    /// A walk from rest never refuses a busy jump: a stream whose compute
    /// gains on its data waits only on its first block, before any repeat.
    /// So the walk starts here from a compute-bound state whose compute is
    /// set back to the data at a ring boundary: the next period waits once
    /// and still gains, and only the busy flag keeps it from being jumped.
    #[test]
    fn the_busy_jump_needs_compute_busy_since_the_snapshot() {
        let b = Blocks::new(&cfg(), MacScheme::PerBlock { granularity: 512 });
        let compute = Time::from_ps(9_000);
        let (start, n) = (4 * b.slots as u64, 10_000);
        let slot = |k: u64| (k % b.slots as u64) as usize;
        let set_back = || {
            let mut walk = Gated::at_rest(b.slots);
            for k in 0..start {
                walk.pipe.step(&b, compute, slot(k));
            }
            walk.blocks = start;
            walk.pipe.compute_done = walk.pipe.fetch_done;
            walk.snap.save(&walk.pipe, start);
            walk
        };
        let mut stepped = set_back();
        for k in start..n {
            stepped.pipe.step(&b, compute, slot(k));
        }
        let every_block = StreamTiming {
            total: stepped.pipe.compute_done,
            verify_stall: stepped.pipe.stall,
        };
        assert_eq!(set_back().run(&b, compute, n), every_block);
    }

    /// Memory-bound stream: compute much cheaper than fetch.
    fn mem_bound_compute(bytes: u64) -> Time {
        Time::from_secs_f64(bytes as f64 / 512.0e9)
    }

    #[test]
    fn non_secure_is_bandwidth_bound() {
        let c = cfg();
        let bytes = 4 << 20;
        let t = simulate_stream(&c, MacScheme::None, bytes, mem_bound_compute(bytes));
        let ideal = bytes as f64 / c.dram_bandwidth();
        assert!(t.total.as_secs_f64() <= ideal * 1.05);
        assert_eq!(t.verify_stall, Time::ZERO);
    }

    #[test]
    fn fine_granularity_costs_traffic_not_stalls() {
        let c = cfg();
        let bytes = 4 << 20;
        let plain = simulate_stream(&c, MacScheme::None, bytes, mem_bound_compute(bytes));
        let fine = simulate_stream(
            &c,
            MacScheme::PerBlock { granularity: 64 },
            bytes,
            mem_bound_compute(bytes),
        );
        let ratio = fine.total.as_secs_f64() / plain.total.as_secs_f64();
        assert!(
            ratio > 1.08 && ratio < 1.20,
            "64B overhead ≈ traffic 12.5%: {ratio}"
        );
    }

    #[test]
    fn coarse_granularity_stalls() {
        let c = cfg();
        let bytes = 4 << 20;
        let coarse = simulate_stream(
            &c,
            MacScheme::PerBlock { granularity: 4096 },
            bytes,
            mem_bound_compute(bytes),
        );
        assert!(
            coarse.verify_stall > Time::ZERO,
            "4 KB blocks must stall against the 8 KB verify buffer"
        );
        let mid = simulate_stream(
            &c,
            MacScheme::PerBlock { granularity: 512 },
            bytes,
            mem_bound_compute(bytes),
        );
        assert!(coarse.total > mid.total, "stalls dominate traffic savings");
    }

    #[test]
    fn delayed_verification_removes_stalls() {
        let c = cfg();
        let bytes = 4 << 20;
        let plain = simulate_stream(&c, MacScheme::None, bytes, mem_bound_compute(bytes));
        let ours = simulate_stream(
            &c,
            MacScheme::TensorDelayed,
            bytes,
            mem_bound_compute(bytes),
        );
        let overhead = ours.total.as_secs_f64() / plain.total.as_secs_f64() - 1.0;
        assert!(overhead < 0.05, "delayed verification ≈ free: {overhead}");
        assert_eq!(ours.verify_stall, Time::ZERO);
    }

    #[test]
    fn compute_bound_hides_everything() {
        let c = cfg();
        let bytes = 1 << 20;
        let heavy = Time::from_ms(10);
        let plain = simulate_stream(&c, MacScheme::None, bytes, heavy);
        let coarse = simulate_stream(&c, MacScheme::PerBlock { granularity: 4096 }, bytes, heavy);
        let ratio = coarse.total.as_secs_f64() / plain.total.as_secs_f64();
        assert!(
            ratio < 1.02,
            "compute-bound layers hide protection: {ratio}"
        );
    }

    #[test]
    fn zero_bytes_is_pure_compute() {
        let c = cfg();
        let t = simulate_stream(&c, MacScheme::TensorDelayed, 0, Time::from_us(3));
        assert_eq!(t.total, Time::from_us(3));
    }

    #[test]
    fn barrier_appears_at_stream_end() {
        let c = cfg();
        // Tiny stream, trivial compute: the delayed barrier (recompute +
        // mac check) is visible.
        let ours = simulate_stream(&c, MacScheme::TensorDelayed, 64, Time::ZERO);
        let plain = simulate_stream(&c, MacScheme::None, 64, Time::ZERO);
        assert!(ours.total > plain.total);
        let barrier = ours.total - plain.total;
        assert!(
            barrier < Time::from_ns(200),
            "barrier is a few cycles: {barrier}"
        );
    }
}
