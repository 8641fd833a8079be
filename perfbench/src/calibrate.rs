//! Host-speed calibration. Shared small machines change speed by tens of
//! percent over seconds (contention from other tenants), so raw pass times
//! of one commit spread more than any useful regression bound. The worker
//! therefore times a fixed probe of its own at unit boundaries and rescales
//! each stretch of unit calls by how fast the probe ran around it.
//!
//! The probe grows and shrinks a vector by random swap-removes and bumps
//! counters in a string-keyed ordered map: allocating, branchy and
//! cache-resident like the simulators' queues and stat sets. Pure
//! arithmetic, a DRAM pointer chase and an integer-keyed map tracked the
//! slowdowns less well (of a 1.5x raw swing they left 1.5x, 1.4x and 1.25x;
//! this probe leaves ~1.1x). It uses no repository code, so no change to the
//! program can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Steps per probe run (~1 ms on a quiet 2-vCPU cloud VM).
const OPS: u32 = 1 << 13;
/// Live entries of the probe's vector, and distinct keys of its map.
const RING: u64 = 512;
const NAMES: u64 = 64;
/// Probe duration, in ns, that defines reference speed: calibrated times
/// are host seconds on a box where one probe run takes 1 ms.
pub const REFERENCE_NS: f64 = 1.0e6;
/// Minimum stretch of unit work between two probe runs.
const INTERVAL: Duration = Duration::from_millis(50);

pub struct Calibrator {
    state: u64,
    last_sample: Instant,
    prev_ns: f64,
    open_ns: f64,
    calibrated_ns: f64,
    samples: Vec<f64>,
}

impl Calibrator {
    /// Runs the probe once untimed (a fresh process's first run pays for
    /// page faults and allocator set-up), then takes the first sample,
    /// which opens the first stretch.
    pub fn new() -> Self {
        let mut c = Calibrator {
            state: 0x9E37_79B9_7F4A_7C15,
            last_sample: Instant::now(),
            prev_ns: 0.0,
            open_ns: 0.0,
            calibrated_ns: 0.0,
            samples: Vec::new(),
        };
        c.probe();
        c.samples.clear();
        c.prev_ns = c.probe();
        c
    }

    /// One probe run; returns its duration in ns.
    fn probe(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = black_box(self.state);
        let mut ring: Vec<u64> = Vec::with_capacity(RING as usize + 1);
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for _ in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.push(x);
            if ring.len() as u64 > RING {
                ring.swap_remove((x % RING) as usize);
            }
            *counters.entry(format!("k{}", x % NAMES)).or_insert(0) += 1;
            x = x.wrapping_add(ring[(x % ring.len() as u64) as usize]);
        }
        self.state = black_box(x);
        let ns = start.elapsed().as_nanos() as f64;
        self.samples.push(ns);
        ns
    }

    /// Adds `ns` of measured unit work; closes the stretch with a fresh
    /// sample once [`INTERVAL`] has passed since the last one.
    pub fn add(&mut self, ns: f64) {
        self.open_ns += ns;
        if self.last_sample.elapsed() >= INTERVAL {
            self.close();
        }
    }

    /// Takes a probe and returns the factor that converts host time spent
    /// since the previous probe into reference time (the probes around the
    /// stretch, averaged); a new stretch starts.
    pub fn factor_since_last(&mut self) -> f64 {
        let now = self.probe();
        let factor = REFERENCE_NS * 2.0 / (self.prev_ns + now);
        self.prev_ns = now;
        self.last_sample = Instant::now();
        factor
    }

    fn close(&mut self) {
        let open_ns = std::mem::take(&mut self.open_ns);
        self.calibrated_ns += open_ns * self.factor_since_last();
    }

    /// The calibrated seconds of all work added, and the median probe in ns.
    pub fn finish(mut self) -> (f64, f64) {
        if self.open_ns > 0.0 {
            self.close();
        }
        self.samples.sort_by(f64::total_cmp);
        (
            self.calibrated_ns / 1e9,
            self.samples[self.samples.len() / 2],
        )
    }
}
