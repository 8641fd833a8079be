//! One content-addressed memo for the CPU Adam phase.
//!
//! The cacheline-level CPU Adam run is a pure function of its inputs,
//! and the registry prices the same inputs many times over: fig05's runs
//! recur in fig16, fig17, `scaling_strong`, the `des_*` artifacts and
//! explore. A [`Memo`] prices each distinct input once. Its key is the
//! *full* input — every CPU configuration field (`f64`s by bit pattern),
//! the mode with its TenAnalyzer/SoftVN configuration and the workload's
//! tensor list — so two runs share an entry only when the engines would
//! return equal results. The NPU phase is not memoized: one
//! forward+backward run costs about 20 µs in `tensortee run --all
//! --fast` (~4 ms a pass) and about 60 µs in a full `tensortee explore
//! des`.
//!
//! A [`crate::RunContext`] owns one memo and its clones share it, so
//! `tensortee run --all` pays each distinct run once. A system built
//! outside a context gets a private empty memo, so standalone callers
//! keep recomputing. Runs are simulated outside the lock (workers on
//! different keys never wait for each other's simulations) and the first
//! insert of a key wins, so a miss is exactly a first insert: the hit
//! and miss counts do not depend on worker count or interleaving.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};
use tee_cpu::kernels::AdamTensorSet;
use tee_cpu::{AdamReport, AdamWorkload, CpuConfig, CpuEngine, TeeMode, TensorDesc};
use tee_mem::{CacheConfig, DramConfig, HierarchyConfig};
use tee_sim::probe::SharedProbe;

/// One Adam run on a fresh [`CpuEngine`]: everything the run reads.
#[derive(Debug, Clone)]
pub(crate) struct AdamRun {
    pub(crate) cpu: CpuConfig,
    pub(crate) mode: TeeMode,
    /// Whether transfer instructions preload the Meta Table with the
    /// workload's tensors (§4.2) before the run.
    pub(crate) preload: bool,
    pub(crate) workload: AdamWorkload,
    pub(crate) threads: u32,
    pub(crate) iterations: u32,
}

impl AdamRun {
    fn run(&self) -> AdamReport {
        let mut engine = CpuEngine::new(self.cpu.clone(), self.mode.clone());
        if self.preload {
            let descs: Vec<TensorDesc> = self
                .workload
                .tensors
                .iter()
                .flat_map(|s| [s.w, s.g, s.m, s.v])
                .collect();
            engine.preload_tensors(&descs);
        }
        engine.run_adam(&self.workload, self.threads, self.iterations)
    }

    /// Every input of the run: runs are equal when these are.
    fn identity(&self) -> (Vec<u64>, &TeeMode, bool, &AdamWorkload, u32, u32) {
        (
            cpu_bits(&self.cpu),
            &self.mode,
            self.preload,
            &self.workload,
            self.threads,
            self.iterations,
        )
    }

    /// The hashed part of the identity: the last tensor set instead of
    /// the whole list, so a lookup costs little next to the run it saves.
    /// Equal identities have equal hash parts.
    fn hash_part(&self) -> (Vec<u64>, &TeeMode, bool, u32, u32, Option<&AdamTensorSet>) {
        (
            cpu_bits(&self.cpu),
            &self.mode,
            self.preload,
            self.threads,
            self.iterations,
            self.workload.tensors.last(),
        )
    }
}

impl PartialEq for AdamRun {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for AdamRun {}

impl Hash for AdamRun {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash_part().hash(state);
    }
}

/// Every field of a CPU configuration, `f64`s by bit pattern. The
/// destructuring is exhaustive, so a field added to any of these structs
/// stops this compiling until it joins the key.
fn cpu_bits(cfg: &CpuConfig) -> Vec<u64> {
    let CpuConfig {
        freq_ghz,
        hierarchy: HierarchyConfig { cores, l1, l2, l3 },
        dram:
            DramConfig {
                channels,
                banks_per_channel,
                row_bytes,
                channel_bytes_per_sec,
                t_cas,
                t_rcd,
                t_rp,
            },
        l1_latency,
        l2_latency,
        l3_latency,
        aes_latency,
        mac_latency,
        mlp,
        adam_cycles_per_element,
        metadata_cache_bytes,
        protected_lines,
        functional_crypto,
    } = cfg;
    let mut bits = vec![freq_ghz.to_bits(), u64::from(*cores)];
    for &CacheConfig {
        size_bytes,
        ways,
        line_bytes,
    } in [l1, l2, l3]
    {
        bits.extend([size_bytes, u64::from(ways), line_bytes]);
    }
    bits.extend([
        u64::from(*channels),
        u64::from(*banks_per_channel),
        *row_bytes,
        channel_bytes_per_sec.to_bits(),
        t_cas.as_ps(),
        t_rcd.as_ps(),
        t_rp.as_ps(),
        *l1_latency,
        *l2_latency,
        *l3_latency,
        *aes_latency,
        *mac_latency,
        *mlp as u64,
        adam_cycles_per_element.to_bits(),
        *metadata_cache_bytes,
        *protected_lines as u64,
        u64::from(*functional_crypto),
    ]);
    bits
}

/// Adam reports by full input, with hit and miss counts.
#[derive(Default)]
struct AdamTable {
    reports: HashMap<AdamRun, AdamReport>,
    hits: u64,
    misses: u64,
}

/// A shared memo handle: clones share one memo, [`Memo::default`] starts
/// an empty one.
#[derive(Clone, Default)]
pub(crate) struct Memo(Arc<Mutex<AdamTable>>);

impl Memo {
    fn table(&self) -> MutexGuard<'_, AdamTable> {
        self.0.lock().expect("memo lock poisoned")
    }

    /// The report of `run`, simulated once per distinct run.
    pub(crate) fn adam(&self, run: AdamRun) -> AdamReport {
        {
            let mut t = self.table();
            if let Some(report) = t.reports.get(&run).cloned() {
                t.hits += 1;
                return report;
            }
        }
        let report = run.run();
        let mut guard = self.table();
        let t = &mut *guard;
        match t.reports.entry(run) {
            // Another worker inserted the run while this one simulated:
            // that insert was the miss, and its report stands.
            Entry::Occupied(e) => {
                t.hits += 1;
                e.get().clone()
            }
            Entry::Vacant(e) => {
                t.misses += 1;
                e.insert(report).clone()
            }
        }
    }

    /// The hit and miss counts so far.
    pub(crate) fn counts(&self) -> MemoCounts {
        let t = self.table();
        MemoCounts {
            hits: t.hits,
            misses: t.misses,
        }
    }
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Memo").field(&self.counts()).finish()
    }
}

/// A [`Memo`]'s hit and miss counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemoCounts {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl MemoCounts {
    /// Bumps the `memo.adam_{hits,misses}` counters on `probe` by the
    /// growth since `before`. Zero deltas are skipped, so the traces of
    /// artifacts that never touch the memo do not change.
    pub(crate) fn emit_since(&self, before: &MemoCounts, probe: &SharedProbe) {
        for (name, now, then) in [
            ("memo.adam_hits", self.hits, before.hits),
            ("memo.adam_misses", self.misses, before.misses),
        ] {
            if now > then {
                probe.count(name, now - then);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::RunContext;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::sample::Index;
    use tee_cpu::{SoftVnConfig, TenAnalyzerConfig};

    /// A CPU mode from a seed: the four schemes, with varied
    /// TenAnalyzer/SoftVN configurations.
    fn mode_of(seed: u64) -> TeeMode {
        match seed % 4 {
            0 => TeeMode::NonSecure,
            1 => TeeMode::Sgx,
            2 => TeeMode::SoftVn(SoftVnConfig {
                entries: 4 << (seed / 4 % 7),
                lookup_cycles_per_64: 1 + seed / 28 % 3,
            }),
            _ => TeeMode::TensorTee(TenAnalyzerConfig {
                meta_entries: 4 << (seed / 4 % 8),
                filter_entries: 2 + (seed / 32 % 9) as usize,
                filter_threshold: 2 + (seed / 288 % 3) as usize,
            }),
        }
    }

    fn adam_run(mode: u64, preload: bool, threads: u32, iterations: u32, lines: &[u64]) -> AdamRun {
        let sizes: Vec<u64> = lines.iter().map(|l| l * 64).collect();
        AdamRun {
            cpu: CpuConfig::scaled_down(),
            mode: mode_of(mode),
            preload,
            workload: AdamWorkload::from_tensor_sizes(&sizes),
            threads,
            iterations,
        }
    }

    /// `base` with the one knob `knob` moved to a value drawn from `v`.
    fn mutate_adam(base: &AdamRun, knob: u8, v: u64) -> AdamRun {
        let mut run = base.clone();
        match knob {
            0 => run.mode = mode_of(v),
            1 => run.preload = !run.preload,
            2 => run.threads = 1 + (v % 4) as u32,
            3 => run.iterations = 1 + (v % 3) as u32,
            4 => run.cpu.metadata_cache_bytes = 4 << (10 + v % 4),
            5 => run.cpu.mlp = 1 + (v % 16) as usize,
            6 => run.cpu.freq_ghz = [2.0, 2.5, 3.0, 3.5, 4.0][(v % 5) as usize],
            _ => {
                let mut sizes: Vec<u64> = run.workload.tensors.iter().map(|s| s.w.bytes).collect();
                sizes.push(64 * (1 + v % 32));
                run.workload = AdamWorkload::from_tensor_sizes(&sizes);
            }
        }
        run
    }

    /// The reference: `run` on a fresh engine, outside any memo.
    fn fresh_adam(run: &AdamRun) -> AdamReport {
        let mut engine = CpuEngine::new(run.cpu.clone(), run.mode.clone());
        if run.preload {
            let descs: Vec<TensorDesc> = run
                .workload
                .tensors
                .iter()
                .flat_map(|s| [s.w, s.g, s.m, s.v])
                .collect();
            engine.preload_tensors(&descs);
        }
        engine.run_adam(&run.workload, run.threads, run.iterations)
    }

    proptest! {
        #![proptest_config(ProptestConfig::ci())]

        /// Memo vs recompute: a sequence drawn from a base input and
        /// single-knob mutations of it (so a key that dropped a field
        /// would hand a mutation its base's report), priced through one
        /// memo, equals fresh-engine runs; each distinct input misses
        /// exactly once.
        #[test]
        fn memoized_adam_runs_match_fresh_engines(
            base in (any::<u64>(), any::<bool>(), 1u32..=4, 1u32..=3, vec(1u64..=48, 1..=3)),
            mutations in vec((0u8..8, any::<u64>()), 1..=4),
            picks in vec(any::<Index>(), 1..=8),
        ) {
            let (mode, preload, threads, iterations, lines) = base;
            let base = adam_run(mode, preload, threads, iterations, &lines);
            let pool: Vec<AdamRun> = std::iter::once(base.clone())
                .chain(mutations.iter().map(|&(knob, v)| mutate_adam(&base, knob, v)))
                .collect();
            let memo = Memo::default();
            let mut distinct: Vec<&AdamRun> = Vec::new();
            for pick in &picks {
                let run = &pool[pick.index(pool.len())];
                prop_assert_eq!(memo.adam(run.clone()), fresh_adam(run));
                if !distinct.contains(&run) {
                    distinct.push(run);
                }
            }
            let counts = memo.counts();
            prop_assert_eq!(counts.misses, distinct.len() as u64);
            prop_assert_eq!(counts.hits + counts.misses, picks.len() as u64);
        }
    }

    #[test]
    fn fresh_contexts_start_empty_and_clones_share_the_memo() {
        let empty = MemoCounts::default();
        let ctx = RunContext::fast();
        assert_eq!(ctx.memo.counts(), empty);
        assert_eq!(RunContext::full().memo.counts(), empty);
        let run = adam_run(1, false, 2, 2, &[8, 4]);
        let clone = ctx.clone().with_seed(7);
        let report = clone.memo.adam(run.clone());
        assert_eq!(ctx.memo.adam(run.clone()), report);
        let shared = MemoCounts { hits: 1, misses: 1 };
        assert_eq!(ctx.memo.counts(), shared);
        assert_eq!(clone.memo.counts(), shared);
        // A new context does not see the first one's entries.
        let other = RunContext::fast();
        assert_eq!(other.memo.counts(), empty);
        other.memo.adam(run);
        assert_eq!(other.memo.counts().misses, 1);
        assert_eq!(ctx.memo.counts(), shared);
    }

    #[test]
    fn counters_reach_the_probe_only_when_they_moved() {
        let probe = SharedProbe::recording();
        let before = MemoCounts { hits: 2, misses: 1 };
        let after = MemoCounts { hits: 4, ..before };
        after.emit_since(&before, &probe);
        let snap = probe.snapshot().unwrap();
        let counters: Vec<(&str, u64)> = snap.metrics().iter().collect();
        assert_eq!(counters, vec![("memo.adam_hits", 2)]);
        // A run that never touched the memo leaves a fresh probe empty.
        let idle = SharedProbe::recording();
        after.emit_since(&after, &idle);
        assert_eq!(idle.snapshot().unwrap().metrics().iter().count(), 0);
    }
}
