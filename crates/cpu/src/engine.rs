//! The CPU execution engine: drives kernel request streams through the
//! cache hierarchy, the TEE engine and DRAM, producing the timing and
//! hit-rate data behind Figures 3, 18, 19 and §6.2.
//!
//! Fidelity notes (see the fidelity preamble of EXPERIMENTS.md):
//! * every 64 B line request flows through the real cache model; only LLC
//!   misses and dirty write-backs reach the MEE/DRAM — so metadata
//!   amplification, bandwidth saturation and MLP limits all emerge rather
//!   than being assumed;
//! * threads execute in small round-robin quanta so their local clocks
//!   stay approximately synchronized while sharing the memory system;
//! * each mode differs only in where a line's VN comes from: every fill
//!   and write-back picks a [`VnPath`] from the mode's VN source and makes
//!   one [`SgxMee`] call (non-secure requests go straight to DRAM);
//! * in functional mode the engine additionally performs real encryption
//!   and verification against the `PhysMem` ciphertext image.

use crate::analyzer::meta_table::ReadCounts;
use crate::analyzer::meta_table::ReadLookup;
use crate::analyzer::{TenAnalyzer, TenAnalyzerConfig};
use crate::config::CpuConfig;
use crate::kernels::{AdamWorkload, GemmWorkload};
use crate::mee::{IntegrityError, SgxMee, VnPath};
use crate::softvn::{SoftVnConfig, SoftVnTable};
use std::collections::VecDeque;
use tee_crypto::Key;
use tee_mem::cache::{CacheHierarchy, HitLevel};
use tee_mem::mc::RequestClass;
use tee_mem::store::LineData;
use tee_mem::{MemoryController, PageMapper, PhysMem, LINE_BYTES};
use tee_sim::util::IntMap;
use tee_sim::Time;

/// Which TEE scheme the engine runs under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TeeMode {
    /// No protection (performance reference).
    NonSecure,
    /// SGX-like cacheline-granularity baseline.
    Sgx,
    /// SoftVN software-declared VN table.
    SoftVn(SoftVnConfig),
    /// TensorTEE with TenAnalyzer.
    TensorTee(TenAnalyzerConfig),
}

/// Per-iteration measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationStats {
    /// Wall-clock latency of the iteration (barrier to barrier).
    pub latency: Time,
    /// Meta Table reads (all zero outside TensorTEE).
    pub reads: ReadCounts,
    /// Demand DRAM requests issued this iteration.
    pub demand: u64,
    /// Metadata DRAM requests issued this iteration.
    pub metadata: u64,
}

/// Result of an Adam run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdamReport {
    /// Per-iteration measurements.
    pub iterations: Vec<IterationStats>,
    /// Sum of iteration latencies.
    pub total: Time,
    /// Integrity violations observed (functional mode).
    pub integrity_errors: u64,
}

impl AdamReport {
    /// Mean latency of iterations `skip..` (warm-up excluded).
    pub fn steady_latency(&self, skip: usize) -> Time {
        let tail: Vec<_> = self.iterations.iter().skip(skip).collect();
        if tail.is_empty() {
            return Time::ZERO;
        }
        let sum: u64 = tail.iter().map(|i| i.latency.as_ps()).sum();
        Time::from_ps(sum / tail.len() as u64)
    }
}

#[derive(Debug)]
struct ThreadCtx {
    t: Time,
    outstanding: VecDeque<Time>,
}

/// Where a mode's VNs come from: the per-mode state of a [`TeeMode`].
#[derive(Debug)]
enum VnSource {
    /// No protection: requests go straight to the memory controller.
    NonSecure,
    /// Every VN off-chip, verified through the Merkle tree.
    Sgx,
    /// The software-declared VN table.
    SoftVn(SoftVnTable),
    /// TenAnalyzer's Meta Table, falling back to the off-chip VN.
    TensorTee(TenAnalyzer),
}

/// The CPU engine.
#[derive(Debug)]
pub struct CpuEngine {
    cfg: CpuConfig,
    source: VnSource,
    hierarchy: CacheHierarchy,
    mc: MemoryController,
    mee: SgxMee,
    mem: PhysMem,
    mapper: PageMapper,
    va_of_pa: IntMap<u64, u64>,
    integrity_errors: u64,
    last_integrity_error: Option<IntegrityError>,
}

/// Lines processed per scheduling quantum per thread.
const QUANTUM_LINES: u64 = 4;

impl CpuEngine {
    /// Builds an engine for one TEE mode.
    pub fn new(cfg: CpuConfig, mode: TeeMode) -> Self {
        let source = match mode {
            TeeMode::NonSecure => VnSource::NonSecure,
            TeeMode::Sgx => VnSource::Sgx,
            TeeMode::SoftVn(c) => VnSource::SoftVn(SoftVnTable::new(c)),
            TeeMode::TensorTee(c) => VnSource::TensorTee(TenAnalyzer::new(c)),
        };
        CpuEngine {
            hierarchy: CacheHierarchy::new(cfg.hierarchy),
            mc: MemoryController::new(cfg.dram),
            mee: SgxMee::new(&cfg, Key::from_seed(0xC0FFEE)),
            source,
            mem: PhysMem::new(),
            mapper: PageMapper::new(0x7EE),
            va_of_pa: IntMap::default(),
            integrity_errors: 0,
            last_integrity_error: None,
            cfg,
        }
    }

    /// The physical memory image. Fault hook: only the attack tests of
    /// `tests/cpu_tee_security.rs` reach it, to tamper with DRAM.
    pub fn mem_mut(&mut self) -> &mut PhysMem {
        &mut self.mem
    }

    /// The first integrity error observed, if any. Read only by tests
    /// (`tests/cpu_tee_security.rs` and the engine tests check which
    /// integrity check fired).
    pub fn last_integrity_error(&self) -> Option<IntegrityError> {
        self.last_integrity_error
    }

    /// Preloads Meta Table entries from tensor descriptors, as the NPU's
    /// data-transfer instructions do (§4.2: transfer instructions carry
    /// address/size/stride and fast-path entry creation). No-op outside
    /// TensorTEE mode.
    pub fn preload_tensors(&mut self, tensors: &[crate::tensor::TensorDesc]) {
        if let VnSource::TensorTee(analyzer) = &mut self.source {
            for t in tensors {
                analyzer.preload_from_transfer(t, 0, tee_crypto::MacTag::default());
            }
        }
    }

    fn translate(&mut self, va_line: u64) -> u64 {
        let pa = self.mapper.translate(va_line);
        debug_assert_eq!(pa % LINE_BYTES, 0);
        self.va_of_pa.entry(pa).or_insert(va_line);
        pa
    }

    fn synth_line(va: u64) -> LineData {
        let mut d = [0u8; 64];
        for (i, chunk) in d.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&(va + i as u64).to_le_bytes());
        }
        d
    }

    fn record_integrity(&mut self, res: Result<(), IntegrityError>) {
        if let Err(e) = res {
            self.integrity_errors += 1;
            if self.last_integrity_error.is_none() {
                self.last_integrity_error = Some(e);
            }
        }
    }

    /// One demand access from `core` at VA `va_line`. Advances the thread
    /// clock; issues any resulting write-backs.
    fn access(&mut self, core: u32, th: &mut ThreadCtx, va_line: u64, is_write: bool) {
        let pa = self.translate(va_line);

        // TenAnalyzer observes every core request in parallel with the
        // cache lookup — including stores, whose write-allocate fills also
        // need a VN to decrypt (the Figure-12 write dataflow separately
        // observes the LLC *write-backs*).
        let decision = match &mut self.source {
            VnSource::TensorTee(analyzer) => Some(analyzer.on_read(va_line)),
            _ => None,
        };

        let outcome = self.hierarchy.access(core, pa, is_write);
        for &wb_pa in &outcome.mem_writebacks {
            self.writeback(wb_pa, self.va_of(wb_pa), th.t);
        }

        // The fill and the on-chip background VN fetch are both issued at
        // the thread time before the latency below is added; issuing them
        // after it would move DRAM timing.
        let fill = if outcome.served_by == HitLevel::Memory {
            Some(self.fill_from_memory(pa, va_line, decision, th.t))
        } else {
            // TenAnalyzer observes the core stream *before* the caches
            // (Figure 9), so detection and boundary confirmation proceed
            // even when the data itself is served on-chip.
            if matches!(
                decision,
                Some(ReadLookup::HitBoundary { .. } | ReadLookup::Miss)
            ) {
                self.mee.background_vn_fetch(pa, th.t, &mut self.mc);
            }
            None
        };
        self.analyzer_feedback(pa, va_line, decision);

        let level_latency = match outcome.served_by {
            HitLevel::L1 => self.cfg.l1_latency,
            HitLevel::L2 => self.cfg.l2_latency,
            // A fill pays the issue cost of traversing the hierarchy.
            HitLevel::L3 | HitLevel::Memory => self.cfg.l3_latency,
        };
        th.t += self.cfg.cycles(level_latency.div_ceil(4));
        if let Some(done) = fill {
            th.outstanding.push_back(done);
            if th.outstanding.len() > self.cfg.mlp {
                let oldest = th.outstanding.pop_front().expect("non-empty");
                th.t = th.t.max(oldest);
            }
        }
    }

    /// TenAnalyzer feedback once a read's off-chip VN is known: confirm a
    /// boundary hit against it, or teach the filter a miss. No-op outside
    /// TensorTEE mode.
    fn analyzer_feedback(&mut self, pa: u64, va_line: u64, decision: Option<ReadLookup>) {
        let VnSource::TensorTee(analyzer) = &mut self.source else {
            return;
        };
        match decision {
            Some(ReadLookup::HitBoundary { slot, vn }) => {
                analyzer.confirm_boundary(slot, va_line, self.mee.line_vn(pa) == vn);
            }
            Some(ReadLookup::Miss) => analyzer.observe_miss_vn(va_line, self.mee.line_vn(pa)),
            Some(ReadLookup::HitIn { .. }) | None => {}
        }
    }

    /// Handles an off-chip fill for a (possibly analyzer-observed) read;
    /// returns when the data is usable.
    fn fill_from_memory(
        &mut self,
        pa: u64,
        va_line: u64,
        decision: Option<ReadLookup>,
        mut at: Time,
    ) -> Time {
        let path = match &self.source {
            VnSource::NonSecure => return self.mc.request(pa, RequestClass::Demand, at),
            VnSource::Sgx => VnPath::OffChip,
            VnSource::SoftVn(table) => {
                at += self.cfg.cycles(table.lookup_cycles());
                table
                    .lookup(va_line)
                    .map_or(VnPath::OffChip, VnPath::OnChip)
            }
            VnSource::TensorTee(_) => match decision {
                Some(ReadLookup::HitIn { vn, .. }) => VnPath::OnChipTensorMac(vn),
                Some(ReadLookup::HitBoundary { vn, .. }) => VnPath::Background(vn),
                Some(ReadLookup::Miss) | None => VnPath::OffChip,
            },
        };
        let op = self
            .mee
            .read_line(pa, path, at, &mut self.mc, &mut self.mem);
        self.record_integrity(op.integrity);
        op.done
    }

    /// The VA that first translated to `pa`.
    fn va_of(&self, pa: u64) -> u64 {
        *self
            .va_of_pa
            .get(&pa)
            .expect("write-back of a never-translated line")
    }

    /// Retires one LLC write-back of line `wb_pa` (first touched at `va`)
    /// through the active TEE path.
    fn writeback(&mut self, wb_pa: u64, va: u64, at: Time) {
        let path = match &mut self.source {
            VnSource::NonSecure => {
                self.mc.request(wb_pa, RequestClass::Demand, at);
                return;
            }
            VnSource::Sgx => VnPath::OffChip,
            VnSource::SoftVn(table) => table.write_vn(va).map_or(VnPath::OffChip, VnPath::OnChip),
            VnSource::TensorTee(analyzer) => analyzer
                .on_writeback(va)
                .map_or(VnPath::OffChip, VnPath::OnChipTensorMac),
        };
        let data = Self::synth_line(va);
        let data = self.cfg.functional_crypto.then_some(&data);
        self.mee
            .write_line(wb_pa, data, path, at, &mut self.mc, &mut self.mem);
    }

    /// The Meta Table reads since the previous call (zero outside
    /// TensorTEE mode).
    fn take_reads(&mut self) -> ReadCounts {
        match &mut self.source {
            VnSource::TensorTee(analyzer) => analyzer.take_read_stats(),
            _ => ReadCounts::default(),
        }
    }

    /// Runs `iterations` Adam optimizer steps over `workload` with
    /// `threads` worker threads. Returns per-iteration measurements.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the configured core count.
    pub fn run_adam(
        &mut self,
        workload: &AdamWorkload,
        threads: u32,
        iterations: u32,
    ) -> AdamReport {
        assert!(threads > 0, "need at least one thread");
        assert!(
            threads <= self.cfg.hierarchy.cores,
            "more threads than cores"
        );
        // SoftVN: software declares the four flattened fp32 regions
        // (DeepSpeed keeps weights/grads/momentum/variance in flat
        // buffers), split per worker — one VN-table entry per chunk per
        // core, the "entry wastage" the paper describes (§2.2).
        if let VnSource::SoftVn(table) = &mut self.source {
            table.clear();
            for region in workload.flat_regions() {
                for chunk in region.split(threads as u64) {
                    table.declare(chunk);
                }
            }
        }

        let parts = workload.partition(threads);
        let mut report = AdamReport {
            iterations: Vec::with_capacity(iterations as usize),
            total: Time::ZERO,
            integrity_errors: 0,
        };
        let mut barrier = Time::ZERO;

        for _iter in 0..iterations {
            let start = barrier;
            let (demand0, metadata0) = (self.mc.demand(), self.mc.metadata());

            let mut ctxs: Vec<ThreadCtx> = (0..threads)
                .map(|_| ThreadCtx {
                    t: start,
                    outstanding: VecDeque::new(),
                })
                .collect();
            // Per-thread cursors: (tensor index, line index within chunk).
            let mut cursors: Vec<(usize, u64)> = vec![(0, 0); threads as usize];
            let mut live = threads as usize;

            while live > 0 {
                live = 0;
                for th in 0..threads as usize {
                    let (mut ti, mut li) = cursors[th];
                    if ti >= parts[th].len() {
                        continue;
                    }
                    live += 1;
                    let ctx = &mut ctxs[th];
                    let mut budget = QUANTUM_LINES;
                    while budget > 0 && ti < parts[th].len() {
                        let set = &parts[th][ti];
                        let lines = set.w.lines();
                        if li >= lines {
                            ti += 1;
                            li = 0;
                            continue;
                        }
                        let off = li * LINE_BYTES;
                        let (w, g, m, v) = (
                            set.w.base + off,
                            set.g.base + off,
                            set.m.base + off,
                            set.v.base + off,
                        );
                        // Adam: read w,g,m,v; compute; write w,m,v.
                        self.access(th as u32, ctx, w, false);
                        self.access(th as u32, ctx, g, false);
                        self.access(th as u32, ctx, m, false);
                        self.access(th as u32, ctx, v, false);
                        let elems = (LINE_BYTES / 4) as f64;
                        let compute = (elems * self.cfg.adam_cycles_per_element).round() as u64;
                        ctx.t += self.cfg.cycles(compute);
                        self.access(th as u32, ctx, w, true);
                        self.access(th as u32, ctx, m, true);
                        self.access(th as u32, ctx, v, true);
                        li += 1;
                        budget -= 1;
                    }
                    cursors[th] = (ti, li);
                }
            }

            // Barrier: wait for every thread and its outstanding misses.
            let mut end = start;
            for ctx in &ctxs {
                end = end.max(ctx.t);
                for &o in &ctx.outstanding {
                    end = end.max(o);
                }
            }

            // Optimizer-step boundary: the updated weights are DMA'd to
            // the NPU next, which forces the dirty lines out of the cache
            // hierarchy. Draining here also closes every tensor's VN
            // update round before the next iteration re-writes it
            // (Figure 12 semantics), identically for all TEE modes.
            // The weight DMA drains regions in *virtual* address order;
            // physical frames are scattered by paging. A VA translates to
            // one PA, so no two dirty lines share a first-touch VA and the
            // sorted (va, pa) pairs are in VA order.
            let mut dirty: Vec<(u64, u64)> = self
                .hierarchy
                .flush_all()
                .into_iter()
                .map(|pa| (self.va_of(pa), pa))
                .collect();
            dirty.sort_unstable();
            for (va, pa) in dirty {
                self.writeback(pa, va, end);
            }
            end = end.max(self.mc.idle_at());
            match &mut self.source {
                // Kernel boundary: background merge scan consolidates
                // fragments now that every update round is closed.
                VnSource::TensorTee(analyzer) => analyzer.compact(),
                // SoftVN: software bumps the written regions' VNs at the
                // optimizer-step boundary (gradients are read-only).
                VnSource::SoftVn(table) => {
                    let [w, _g, m, v] = workload.flat_regions();
                    for region in [w, m, v] {
                        for chunk in region.split(threads as u64) {
                            table.bump(chunk.base);
                        }
                    }
                }
                VnSource::NonSecure | VnSource::Sgx => {}
            }

            barrier = end;
            report.iterations.push(IterationStats {
                latency: end - start,
                reads: self.take_reads(),
                demand: self.mc.demand() - demand0,
                metadata: self.mc.metadata() - metadata0,
            });
        }
        report.total = barrier;
        report.integrity_errors = self.integrity_errors;
        report
    }

    /// Runs one full tiled GEMM (single thread) and returns its Meta
    /// Table reads (§6.2).
    pub fn run_gemm(&mut self, gemm: &GemmWorkload) -> ReadCounts {
        let mut ctx = ThreadCtx {
            t: Time::ZERO,
            outstanding: VecDeque::new(),
        };
        for va in gemm.read_stream() {
            self.access(0, &mut ctx, va, false);
        }
        self.take_reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(functional: bool) -> CpuConfig {
        let mut cfg = CpuConfig::default();
        // Tiny caches so small workloads are memory-bound.
        cfg.hierarchy.l1.size_bytes = 2 << 10;
        cfg.hierarchy.l2.size_bytes = 4 << 10;
        cfg.hierarchy.l3.size_bytes = 16 << 10;
        cfg.protected_lines = 1 << 14;
        cfg.functional_crypto = functional;
        cfg
    }

    fn small_workload() -> AdamWorkload {
        AdamWorkload::from_tensor_sizes(&[16 << 10; 2]) // 2 tensors × 16 KB × 4 streams
    }

    #[test]
    fn sgx_slower_than_non_secure() {
        let w = small_workload();
        let mut ns = CpuEngine::new(small_cfg(false), TeeMode::NonSecure);
        let mut sgx = CpuEngine::new(small_cfg(false), TeeMode::Sgx);
        let t_ns = ns.run_adam(&w, 4, 2).steady_latency(0);
        let t_sgx = sgx.run_adam(&w, 4, 2).steady_latency(0);
        assert!(t_sgx > t_ns, "sgx {t_sgx} should exceed non-secure {t_ns}");
    }

    #[test]
    fn tensortee_converges_to_hits() {
        let w = small_workload();
        let mut tt = CpuEngine::new(
            small_cfg(false),
            TeeMode::TensorTee(TenAnalyzerConfig::default()),
        );
        let rep = tt.run_adam(&w, 2, 6);
        let first = rep.iterations.first().unwrap();
        let last = rep.iterations.last().unwrap();
        assert!(
            last.reads.hit_in_rate() > 0.8,
            "late hit_in {}",
            last.reads.hit_in_rate()
        );
        assert!(
            last.reads.hit_in_rate() > first.reads.hit_in_rate(),
            "hit rate should improve: {} -> {}",
            first.reads.hit_in_rate(),
            last.reads.hit_in_rate()
        );
    }

    #[test]
    fn tensortee_steady_state_beats_sgx() {
        let w = small_workload();
        let mut sgx = CpuEngine::new(small_cfg(false), TeeMode::Sgx);
        let mut tt = CpuEngine::new(
            small_cfg(false),
            TeeMode::TensorTee(TenAnalyzerConfig::default()),
        );
        let t_sgx = sgx.run_adam(&w, 4, 6).steady_latency(3);
        let t_tt = tt.run_adam(&w, 4, 6).steady_latency(3);
        assert!(t_tt < t_sgx, "tensortee {t_tt} should beat sgx {t_sgx}");
    }

    #[test]
    fn tensortee_metadata_traffic_drops() {
        let w = small_workload();
        let mut sgx = CpuEngine::new(small_cfg(false), TeeMode::Sgx);
        let mut tt = CpuEngine::new(
            small_cfg(false),
            TeeMode::TensorTee(TenAnalyzerConfig::default()),
        );
        let rep_sgx = sgx.run_adam(&w, 2, 5);
        let rep_tt = tt.run_adam(&w, 2, 5);
        let meta_sgx: u64 = rep_sgx.iterations.iter().skip(2).map(|i| i.metadata).sum();
        let meta_tt: u64 = rep_tt.iterations.iter().skip(2).map(|i| i.metadata).sum();
        assert!(
            meta_tt < meta_sgx / 2,
            "steady-state metadata: tt={meta_tt} sgx={meta_sgx}"
        );
    }

    #[test]
    fn functional_run_verifies_clean() {
        let w = AdamWorkload::from_tensor_sizes(&[4 << 10; 1]);
        let mut tt = CpuEngine::new(
            small_cfg(true),
            TeeMode::TensorTee(TenAnalyzerConfig::default()),
        );
        let rep = tt.run_adam(&w, 2, 4);
        assert_eq!(
            rep.integrity_errors,
            0,
            "clean run must verify: {:?}",
            tt.last_integrity_error()
        );
    }

    #[test]
    fn functional_sgx_run_verifies_clean() {
        let w = AdamWorkload::from_tensor_sizes(&[4 << 10; 1]);
        let mut sgx = CpuEngine::new(small_cfg(true), TeeMode::Sgx);
        let rep = sgx.run_adam(&w, 2, 3);
        assert_eq!(rep.integrity_errors, 0, "{:?}", sgx.last_integrity_error());
    }

    #[test]
    fn functional_softvn_run_verifies_clean() {
        let w = AdamWorkload::from_tensor_sizes(&[4 << 10; 1]);
        let mut sv = CpuEngine::new(small_cfg(true), TeeMode::SoftVn(SoftVnConfig::default()));
        let rep = sv.run_adam(&w, 2, 3);
        assert_eq!(rep.integrity_errors, 0, "{:?}", sv.last_integrity_error());
    }

    #[test]
    fn softvn_fast_from_first_iteration() {
        let w = small_workload();
        let mut sv = CpuEngine::new(small_cfg(false), TeeMode::SoftVn(SoftVnConfig::default()));
        let mut sgx = CpuEngine::new(small_cfg(false), TeeMode::Sgx);
        let rep_sv = sv.run_adam(&w, 2, 2);
        let rep_sgx = sgx.run_adam(&w, 2, 2);
        assert!(rep_sv.iterations[0].latency < rep_sgx.iterations[0].latency);
    }

    #[test]
    fn gemm_detection_converges() {
        let mut tt = CpuEngine::new(
            small_cfg(false),
            TeeMode::TensorTee(TenAnalyzerConfig::default()),
        );
        // Tile rows must span at least the filter threshold (4 lines), as
        // in the paper's 64-element tiles (§6.2).
        let g = GemmWorkload::new(256, 64);
        // First GEMM builds the structures…
        let first = tt.run_gemm(&g);
        assert!(first.hit_in > 0, "reuse within one GEMM already hits");
        // …after which accesses hit in (paper: 98.8%).
        let second = tt.run_gemm(&g);
        assert!(
            second.hit_in_rate() > 0.95,
            "GEMM after structure construction: {}",
            second.hit_in_rate()
        );
        // The exact (hit_in, hit_boundary, miss) reads of both GEMMs.
        assert_eq!(
            (numbers(&first), numbers(&second)),
            (vec![33612, 204, 3048], vec![36864, 0, 0])
        );
    }

    /// Every integer in `v`'s `Debug` form, in order: a report's exact
    /// numbers, independent of how its fields are grouped.
    fn numbers(v: &impl std::fmt::Debug) -> Vec<u64> {
        format!("{v:?}")
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("digit run"))
            .collect()
    }

    /// Runs `mode` and returns its report's numbers: per iteration the
    /// latency (ps), the `hit_in`/`hit_boundary`/`miss` reads and the
    /// demand/metadata DRAM requests, then the total and the integrity
    /// error count.
    fn adam_numbers(cfg: CpuConfig, mode: TeeMode, w: &AdamWorkload, iterations: u32) -> Vec<u64> {
        numbers(&CpuEngine::new(cfg, mode).run_adam(w, 2, iterations))
    }

    #[test]
    fn non_secure_report_is_pinned() {
        let got = adam_numbers(small_cfg(false), TeeMode::NonSecure, &small_workload(), 2);
        assert_eq!(
            got,
            [7388619, 0, 0, 0, 3584, 0, 7411919, 0, 0, 0, 3584, 0, 14800538, 0]
        );
    }

    #[test]
    fn sgx_report_is_pinned() {
        let got = adam_numbers(small_cfg(false), TeeMode::Sgx, &small_workload(), 2);
        assert_eq!(
            got,
            [14477521, 0, 0, 0, 3584, 551, 11538329, 0, 0, 0, 3584, 286, 26015850, 0]
        );
    }

    #[test]
    fn softvn_report_is_pinned() {
        let mode = TeeMode::SoftVn(SoftVnConfig::default());
        let got = adam_numbers(small_cfg(false), mode, &small_workload(), 2);
        assert_eq!(
            got,
            [9359278, 0, 0, 0, 3584, 259, 8309415, 0, 0, 0, 3584, 3, 17668693, 0]
        );
    }

    #[test]
    fn tensortee_report_is_pinned() {
        let mode = TeeMode::TensorTee(TenAnalyzerConfig::default());
        let got = adam_numbers(small_cfg(false), mode, &small_workload(), 3);
        assert_eq!(
            got,
            [
                10052608, 1690, 1410, 484, 3584, 373, 8338294, 3516, 54, 14, 3584, 3, 8309974,
                3516, 54, 14, 3584, 3, 26700876, 0
            ]
        );
    }

    /// Under Table-1 caches some boundary/miss reads are served on-chip
    /// and their background VN fetch misses the metadata cache, which
    /// never happens under `small_cfg`: this pins that fetch's traffic.
    #[test]
    fn large_cache_tensortee_report_is_pinned() {
        let mode = TeeMode::TensorTee(TenAnalyzerConfig::default());
        let got = adam_numbers(CpuConfig::default(), mode, &small_workload(), 3);
        assert_eq!(
            got,
            [
                13451194, 2005, 1504, 75, 3584, 283, 9498134, 3584, 0, 0, 3584, 3, 9498134, 3584,
                0, 0, 3584, 3, 32447462, 0
            ]
        );
    }

    #[test]
    fn preloaded_tensortee_report_is_pinned() {
        let w = small_workload();
        let descs: Vec<_> = w
            .tensors
            .iter()
            .flat_map(|s| [s.w, s.g, s.m, s.v])
            .collect();
        let mut tt = CpuEngine::new(
            small_cfg(false),
            TeeMode::TensorTee(TenAnalyzerConfig::default()),
        );
        tt.preload_tensors(&descs);
        assert_eq!(
            numbers(&tt.run_adam(&w, 2, 2)),
            [8279594, 3584, 0, 0, 3584, 3, 8302551, 3584, 0, 0, 3584, 3, 16582145, 0]
        );
    }

    #[test]
    fn functional_tensortee_report_is_pinned() {
        let w = AdamWorkload::from_tensor_sizes(&[4 << 10; 1]);
        let mode = TeeMode::TensorTee(TenAnalyzerConfig::default());
        let got = adam_numbers(small_cfg(true), mode, &w, 3);
        assert_eq!(
            got,
            [
                1421466, 286, 112, 50, 448, 27, 1065189, 448, 0, 0, 448, 0, 1068522, 448, 0, 0,
                448, 1, 3555177, 0
            ]
        );
    }

    /// A cold 16-entry Meta Table under 8 threads and Table-1 caches. The
    /// per-thread chunks of the 96 KiB tensor are too far apart to pair
    /// into tiles, so its 32 fragments (8 threads × 4 streams) crowd the
    /// table: inserts past 7/8 occupancy compact it (~4,700 times) and
    /// most then evict the LRU entry (~4,600 times), which the 512-entry
    /// pins never reach.
    #[test]
    fn crowded_tensortee_report_is_pinned() {
        let mode = TeeMode::TensorTee(TenAnalyzerConfig {
            meta_entries: 16,
            ..TenAnalyzerConfig::default()
        });
        let w = AdamWorkload::from_tensor_sizes(&[32 << 10, 96 << 10, 32 << 10]);
        let report = CpuEngine::new(CpuConfig::default(), mode).run_adam(&w, 8, 3);
        assert_eq!(
            numbers(&report),
            [
                119225760, 7218, 752, 9950, 17920, 8679, 114637773, 7218, 752, 9950, 17920, 8578,
                114634440, 7218, 752, 9950, 17920, 8578, 348497973, 0
            ]
        );
    }

    #[test]
    fn more_threads_is_faster_non_secure() {
        let w = AdamWorkload::from_tensor_sizes(&[16 << 10; 4]);
        let mut e1 = CpuEngine::new(small_cfg(false), TeeMode::NonSecure);
        let mut e4 = CpuEngine::new(small_cfg(false), TeeMode::NonSecure);
        let t1 = e1.run_adam(&w, 1, 2).steady_latency(0);
        let t4 = e4.run_adam(&w, 4, 2).steady_latency(0);
        assert!(t4 < t1, "4 threads {t4} should beat 1 thread {t1}");
    }
}
