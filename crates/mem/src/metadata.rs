//! The on-chip metadata cache of the SGX-like MEE (Table 1: 32 KB).
//!
//! VNs, MACs and Merkle nodes live in dedicated DRAM regions; the MEE keeps
//! a small cache of recently used metadata lines so that hot Merkle paths
//! do not re-traverse DRAM. Its hit rate is what keeps the SGX baseline
//! merely *slow* instead of unusable — and it is the component TenAnalyzer
//! replaces with the Meta Table.

use crate::cache::{Cache, CacheConfig};
use crate::LINE_BYTES;

/// Kinds of metadata lines, mapped into disjoint address regions so they
/// contend realistically inside the shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaKind {
    /// Version-number lines (8 VNs of 8 B per 64 B line).
    Vn,
    /// MAC lines (8 MACs per line).
    Mac,
    /// Merkle-tree node lines, parameterized by tree level.
    Merkle(u8),
}

impl MetaKind {
    fn region_base(self) -> u64 {
        match self {
            MetaKind::Vn => 0x4000_0000_0000,
            MetaKind::Mac => 0x5000_0000_0000,
            MetaKind::Merkle(level) => 0x6000_0000_0000 + (level as u64) * 0x0100_0000_0000,
        }
    }
}

/// A small set-associative cache over metadata lines.
///
/// # Example
///
/// ```
/// use tee_mem::metadata::{MetaKind, MetadataCache};
///
/// let mut mc = MetadataCache::table1_default();
/// assert!(!mc.access(MetaKind::Vn, 0));   // cold miss
/// assert!(mc.access(MetaKind::Vn, 0));    // now cached
/// assert!(mc.access(MetaKind::Vn, 1));    // same 64 B VN line (8 VNs/line)
/// ```
#[derive(Debug, Clone)]
pub struct MetadataCache {
    cache: Cache,
    entries_per_line: u64,
}

impl MetadataCache {
    /// Creates the Table-1 default: 32 KB, 8-way, 64 B lines, 8 B entries.
    pub fn table1_default() -> Self {
        Self::new(32 << 10, 8)
    }

    /// Creates a metadata cache of `size_bytes` with `ways` associativity.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        MetadataCache {
            cache: Cache::new(CacheConfig { size_bytes, ways }),
            entries_per_line: LINE_BYTES / 8,
        }
    }

    /// Looks up the metadata line holding entry `index` of `kind`.
    /// Returns `true` on hit; on miss the line is filled.
    pub fn access(&mut self, kind: MetaKind, index: u64) -> bool {
        let line = kind.region_base() + (index / self.entries_per_line) * LINE_BYTES;
        self.cache.access(line, false).is_hit()
    }

    /// Marks the metadata line holding entry `index` dirty (a VN update).
    /// Returns `true` on hit.
    pub fn update(&mut self, kind: MetaKind, index: u64) -> bool {
        let line = kind.region_base() + (index / self.entries_per_line) * LINE_BYTES;
        self.cache.access(line, true).is_hit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_share_lines() {
        let mut mc = MetadataCache::table1_default();
        assert!(!mc.access(MetaKind::Vn, 0));
        for i in 1..8 {
            assert!(mc.access(MetaKind::Vn, i), "entry {i} shares the line");
        }
        assert!(!mc.access(MetaKind::Vn, 8), "next line is cold");
    }

    #[test]
    fn kinds_do_not_alias() {
        let mut mc = MetadataCache::table1_default();
        mc.access(MetaKind::Vn, 0);
        assert!(!mc.access(MetaKind::Mac, 0));
        assert!(!mc.access(MetaKind::Merkle(0), 0));
        assert!(!mc.access(MetaKind::Merkle(1), 0));
    }

    #[test]
    fn capacity_pressure_evicts() {
        // 1 KB cache: 16 lines. Stream 64 distinct VN lines, re-touch the first.
        let mut mc = MetadataCache::new(1024, 2);
        mc.access(MetaKind::Vn, 0);
        for i in 1..64 {
            mc.access(MetaKind::Vn, i * 8);
        }
        assert!(!mc.access(MetaKind::Vn, 0), "first line must be evicted");
    }
}
