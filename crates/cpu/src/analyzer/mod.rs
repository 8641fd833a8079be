//! TenAnalyzer: hardware tensor detection and management in the memory
//! controller (§4.2).
//!
//! The analyzer sits beside the cache hierarchy and receives every core
//! request (virtual addresses, in parallel with cache lookup, hiding its
//! latency). It owns the [`meta_table::MetaTable`] and the
//! [`filter::TensorFilter`] and implements the reading (detection) and
//! writing (update) dataflows of Figures 10 and 12. The paper's *Enable
//! Tensor-wise Management Flag* (`EnTMF`) is the engine's choice of
//! [`TeeMode::TensorTee`](crate::engine::TeeMode::TensorTee): no other mode
//! builds an analyzer.

pub mod filter;
pub mod meta_table;

use filter::TensorFilter;
use meta_table::{MetaEntry, MetaTable, ReadCounts, ReadLookup, WriteLookup};

use crate::tensor::TensorDesc;
use tee_crypto::MacTag;

/// Configuration of the analyzer (§6.5 hardware budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenAnalyzerConfig {
    /// Meta Table entry count (512 in the paper).
    pub meta_entries: usize,
    /// Tensor Filter entry count (10 in the paper).
    pub filter_entries: usize,
    /// Addresses collected before the tensor condition is checked (4).
    pub filter_threshold: usize,
}

impl Default for TenAnalyzerConfig {
    fn default() -> Self {
        TenAnalyzerConfig {
            meta_entries: 512,
            filter_entries: 10,
            filter_threshold: 4,
        }
    }
}

/// The TenAnalyzer unit.
///
/// # Example
///
/// ```
/// use tee_cpu::analyzer::meta_table::ReadLookup;
/// use tee_cpu::analyzer::{TenAnalyzer, TenAnalyzerConfig};
///
/// let mut a = TenAnalyzer::new(TenAnalyzerConfig::default());
/// // Four sequential misses teach the filter a streaming tensor.
/// for i in 0..4u64 {
///     assert_eq!(a.on_read(i * 64), ReadLookup::Miss);
///     a.observe_miss_vn(i * 64, 0);
/// }
/// // The next line is the entry's boundary...
/// assert!(matches!(a.on_read(4 * 64), ReadLookup::HitBoundary { .. }));
/// ```
#[derive(Debug)]
pub struct TenAnalyzer {
    table: MetaTable,
    filter: TensorFilter,
}

impl TenAnalyzer {
    /// Builds an analyzer.
    pub fn new(cfg: TenAnalyzerConfig) -> Self {
        TenAnalyzer {
            table: MetaTable::new(cfg.meta_entries),
            filter: TensorFilter::new(cfg.filter_entries, cfg.filter_threshold),
        }
    }

    /// Core read request (VA, line-aligned). Figure 10 dataflow. A
    /// boundary hit's VN is assumed: its background confirmation fetch
    /// must be issued and [`TenAnalyzer::confirm_boundary`] called with
    /// the result. A miss falls back to the cacheline-granularity (SGX)
    /// path, and its off-chip VN should be reported back through
    /// [`TenAnalyzer::observe_miss_vn`] so the filter can learn the
    /// pattern.
    pub fn on_read(&mut self, va: u64) -> ReadLookup {
        self.table.lookup_read(va)
    }

    /// Reports the off-chip VN observed for a missed read so the filter
    /// can collect the pattern; a completed pattern populates the Meta
    /// Table (possibly merging with existing entries).
    pub fn observe_miss_vn(&mut self, va: u64, off_chip_vn: u64) {
        if let Some(entry) = self.filter.observe_miss(va, off_chip_vn) {
            self.table.insert(entry);
        }
    }

    /// Resolves a pending boundary confirmation: `vn_matched` is whether
    /// the off-chip VN equalled the assumed VN.
    pub fn confirm_boundary(&mut self, slot: usize, va: u64, vn_matched: bool) {
        self.table.confirm_boundary(slot, va, vn_matched);
    }

    /// LLC write-back (VA, line-aligned). Figure 12 dataflow. A line an
    /// entry covers returns the VN it must be encrypted under (on-chip
    /// bookkeeping done; the off-chip VN equivalence update proceeds in
    /// the background); `None` takes the full off-chip (SGX) write path.
    pub fn on_writeback(&mut self, va: u64) -> Option<u64> {
        match self.table.lookup_write(va) {
            WriteLookup::HitEdgeStart { vn, .. }
            | WriteLookup::HitIn { vn, .. }
            | WriteLookup::HitEdgeFinish { vn, .. } => Some(vn),
            WriteLookup::Miss | WriteLookup::Violation => None,
        }
    }

    /// Fast-path entry creation from an NPU transfer instruction, which
    /// carries the tensor structure (address, size, stride) — §4.2.
    pub fn preload_from_transfer(&mut self, desc: &TensorDesc, vn: u64, mac: MacTag) {
        let mut e = MetaEntry::from_desc(desc, vn);
        e.mac = mac;
        self.table.insert(e);
    }

    /// Per-iteration hit-rate snapshot (Figure 18): the read counts
    /// accumulated since the previous call, which resets them.
    pub fn take_read_stats(&mut self) -> ReadCounts {
        self.table.take_reads()
    }

    /// Background merge scan: consolidates adjacent settled entries.
    /// The engine triggers this at kernel boundaries (all update rounds
    /// closed, VNs in agreement) — fragments left by per-thread detection
    /// collapse into region-wide entries.
    pub fn compact(&mut self) {
        self.table.compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzer() -> TenAnalyzer {
        TenAnalyzer::new(TenAnalyzerConfig {
            meta_entries: 16,
            filter_entries: 10,
            filter_threshold: 4,
        })
    }

    /// Streams one pass over `lines` lines starting at `base`, reporting
    /// VN `vn` for misses and confirming boundaries, like the engine does.
    fn stream_pass(a: &mut TenAnalyzer, base: u64, lines: u64, vn: u64) -> (u64, u64, u64) {
        let (mut hit_in, mut boundary, mut miss) = (0, 0, 0);
        for i in 0..lines {
            let va = base + i * 64;
            match a.on_read(va) {
                ReadLookup::HitIn { .. } => hit_in += 1,
                ReadLookup::HitBoundary { slot, .. } => {
                    boundary += 1;
                    a.confirm_boundary(slot, va, true);
                }
                ReadLookup::Miss => {
                    miss += 1;
                    a.observe_miss_vn(va, vn);
                }
            }
        }
        (hit_in, boundary, miss)
    }

    #[test]
    fn detection_then_boundary_then_hit_in() {
        let mut a = analyzer();
        // Pass 1: detection misses + boundary extension for the rest.
        let (h1, b1, m1) = stream_pass(&mut a, 0, 64, 0);
        assert_eq!(m1, 4, "filter threshold misses");
        assert_eq!(b1, 60, "rest of the pass extends the entry");
        assert_eq!(h1, 0);
        // Pass 2: everything hits in.
        let (h2, b2, m2) = stream_pass(&mut a, 0, 64, 0);
        assert_eq!((h2, b2, m2), (64, 0, 0));
    }

    #[test]
    fn writeback_round_trips_vn() {
        let mut a = analyzer();
        stream_pass(&mut a, 0, 16, 0);
        // Full write round in order: every line carries vn+1.
        for i in 0..16u64 {
            assert_eq!(a.on_writeback(i * 64), Some(1), "line {i}");
        }
        // Every line reads back the incremented VN.
        for i in 0..16u64 {
            assert!(
                matches!(a.on_read(i * 64), ReadLookup::HitIn { vn: 1, .. }),
                "line {i}"
            );
        }
        // The round completed: writing line 0 again starts the next round
        // (inside an open round it would violate Assert1 and miss).
        assert_eq!(a.on_writeback(0), Some(2));
    }

    #[test]
    fn preload_covers_immediately() {
        let mut a = analyzer();
        let d = TensorDesc::new_1d(0x8000, 64 * 64);
        a.preload_from_transfer(&d, 9, MacTag::from_raw(0xAB));
        match a.on_read(0x8000 + 40 * 64) {
            ReadLookup::HitIn { vn, .. } => assert_eq!(vn, 9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn violation_falls_back_to_miss() {
        let mut a = analyzer();
        stream_pass(&mut a, 0, 8, 0);
        a.on_writeback(0);
        a.on_writeback(64);
        // Double write violates Assert1; entry invalidated.
        assert_eq!(a.on_writeback(64), None);
        assert_eq!(a.on_read(0), ReadLookup::Miss, "coverage lost");
    }

    #[test]
    fn take_read_stats_resets() {
        let mut a = analyzer();
        let (hit_in, hit_boundary, miss) = stream_pass(&mut a, 0, 8, 0);
        let counts = ReadCounts {
            hit_in,
            hit_boundary,
            miss,
        };
        assert_eq!(a.take_read_stats(), counts);
        assert_eq!(a.take_read_stats(), ReadCounts::default());
    }
}
