//! Set-associative write-back caches and the Table-1 hierarchy.
//!
//! The cache model is *traffic-accurate*: what reaches the memory
//! controller (demand misses and dirty write-backs) is exactly what the
//! MEE must decrypt/verify, which is where all of the SGX overhead in
//! Figures 3 and 19 comes from. Request data payloads are not stored here —
//! the functional ciphertext lives in [`crate::store::PhysMem`].

use crate::LINE_BYTES;
use serde::{Deserialize, Serialize};

/// Geometry of one cache level of [`LINE_BYTES`] lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// set count, capacity not divisible by `ways * LINE_BYTES`).
    pub fn sets(&self) -> u64 {
        assert!(self.size_bytes > 0 && self.ways > 0);
        let sets = self.size_bytes / (self.ways as u64 * LINE_BYTES);
        assert!(sets > 0, "cache too small for its associativity");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct WayState {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// Outcome of a single-level cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was filled; `victim` carries a dirty line that had to be
    /// written back (its line address), if any.
    Miss {
        /// Dirty line evicted to make room, if any.
        victim: Option<u64>,
    },
}

impl AccessOutcome {
    /// Whether this access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// One set-associative, write-allocate, write-back cache level with LRU
/// replacement.
///
/// # Example
///
/// ```
/// use tee_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 4 });
/// assert!(!c.access(0x40, false).is_hit());
/// assert!(c.access(0x40, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<WayState>>,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        Cache {
            sets: vec![vec![WayState::default(); cfg.ways as usize]; sets],
            tick: 0,
        }
    }

    #[inline]
    fn index_tag(&self, line_addr: u64) -> (usize, u64) {
        let sets = self.sets.len() as u64;
        let idx = (line_addr / LINE_BYTES) & (sets - 1);
        let tag = (line_addr / LINE_BYTES) / sets;
        (idx as usize, tag)
    }

    /// Looks up (and on miss, fills) the line containing `line_addr`.
    /// `is_write` marks the line dirty on hit/fill.
    pub fn access(&mut self, line_addr: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        let sets_count = self.sets.len() as u64;
        let (idx, tag) = self.index_tag(line_addr);
        let set = &mut self.sets[idx];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.tick;
            way.dirty |= is_write;
            return AccessOutcome::Hit;
        }
        // Choose victim: first invalid way, else LRU.
        let victim_idx = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("non-empty set")
        });
        let victim = &set[victim_idx];
        let evicted = if victim.valid && victim.dirty {
            Some((victim.tag * sets_count + idx as u64) * LINE_BYTES)
        } else {
            None
        };
        let victim = &mut self.sets[idx][victim_idx];
        victim.valid = true;
        victim.dirty = is_write;
        victim.tag = tag;
        victim.lru = self.tick;
        AccessOutcome::Miss { victim: evicted }
    }

    /// If the line is resident and dirty, clears its dirty bit and
    /// returns `true` (dirty-ownership migration during fills).
    pub fn take_dirty(&mut self, line_addr: u64) -> bool {
        let (idx, tag) = self.index_tag(line_addr);
        if let Some(w) = self.sets[idx]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag && w.dirty)
        {
            w.dirty = false;
            return true;
        }
        false
    }

    /// Marks a resident line dirty (receiving migrated ownership).
    pub fn mark_dirty(&mut self, line_addr: u64) {
        let (idx, tag) = self.index_tag(line_addr);
        if let Some(w) = self.sets[idx].iter_mut().find(|w| w.valid && w.tag == tag) {
            w.dirty = true;
        }
    }

    /// Whether the line is currently resident, without touching LRU
    /// state. Read only by tests (the cache unit tests, the `tee-mem`
    /// proptests and `tests/property_based.rs`).
    pub fn contains(&self, line_addr: u64) -> bool {
        let (idx, tag) = self.index_tag(line_addr);
        self.sets[idx].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates everything, returning the line addresses of dirty lines
    /// (which must be written back).
    pub fn flush(&mut self) -> Vec<u64> {
        let sets = self.sets.len() as u64;
        let mut dirty = Vec::new();
        for (idx, set) in self.sets.iter_mut().enumerate() {
            for w in set.iter_mut() {
                if w.valid && w.dirty {
                    dirty.push((w.tag * sets + idx as u64) * LINE_BYTES);
                }
                w.valid = false;
                w.dirty = false;
            }
        }
        dirty
    }
}

/// Geometry of the Table-1 three-level hierarchy.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of cores (private L1/L2 pairs).
    pub cores: u32,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Per-core L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
}

impl Default for HierarchyConfig {
    /// Table 1: 32 KB 8-way L1, 256 KB 8-way L2, 9 MB 8-way shared L3,
    /// 8 cores.
    fn default() -> Self {
        HierarchyConfig {
            cores: 8,
            l1: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
            },
            l2: CacheConfig {
                size_bytes: 256 << 10,
                ways: 8,
            },
            l3: CacheConfig {
                // 9 MB is not a power-of-two set count at 8 ways; use the
                // nearest power-of-two capacity (8 MiB) as gem5 configs do.
                size_bytes: 8 << 20,
                ways: 8,
            },
        }
    }
}

/// Where a hierarchy access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1.
    L1,
    /// Private L2.
    L2,
    /// Shared L3.
    L3,
    /// Off-chip memory.
    Memory,
}

/// Result of one access through the full hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyOutcome {
    /// Deepest level that supplied the data.
    pub served_by: HitLevel,
    /// Dirty lines pushed out of the L3 to memory by this access.
    pub mem_writebacks: Vec<u64>,
}

/// A multi-core cache hierarchy: private L1/L2 per core, shared L3.
///
/// Non-inclusive: each level is looked up independently; dirty victims
/// cascade one level down, and dirty L3 victims surface as memory
/// write-backs (what the MEE must encrypt + MAC).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
}

impl CacheHierarchy {
    /// Builds the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        CacheHierarchy {
            cfg,
            l1: (0..cfg.cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| Cache::new(cfg.l2)).collect(),
            l3: Cache::new(cfg.l3),
        }
    }

    /// Issues one line access from `core`.
    ///
    /// Misses allocate at every level on the way down; dirty victims
    /// cascade one level (L1→L2, L2→L3, L3→memory).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: u32, line_addr: u64, is_write: bool) -> HierarchyOutcome {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let c = core as usize;
        let mut mem_writebacks = Vec::new();

        let l1_out = self.l1[c].access(line_addr, is_write);
        if l1_out.is_hit() {
            return HierarchyOutcome {
                served_by: HitLevel::L1,
                mem_writebacks,
            };
        }
        if let AccessOutcome::Miss { victim: Some(v) } = l1_out {
            self.insert_l2(c, v, &mut mem_writebacks);
        }

        let l2_out = self.l2[c].access(line_addr, false);
        if let AccessOutcome::Miss { victim: Some(v) } = l2_out {
            self.insert_l3(v, &mut mem_writebacks);
        }
        if l2_out.is_hit() {
            // Dirty ownership migrates with the data: a stale dirty copy
            // left below would otherwise write back twice.
            if self.l2[c].take_dirty(line_addr) {
                self.l1[c].mark_dirty(line_addr);
            }
            return HierarchyOutcome {
                served_by: HitLevel::L2,
                mem_writebacks,
            };
        }

        let l3_out = self.l3.access(line_addr, false);
        if let AccessOutcome::Miss { victim: Some(v) } = l3_out {
            mem_writebacks.push(v);
        }
        if l3_out.is_hit() && self.l3.take_dirty(line_addr) {
            self.l1[c].mark_dirty(line_addr);
        }
        let served_by = if l3_out.is_hit() {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };
        HierarchyOutcome {
            served_by,
            mem_writebacks,
        }
    }

    /// Installs a dirty L1 victim into L2, cascading further victims.
    fn insert_l2(&mut self, core: usize, line_addr: u64, mem_writebacks: &mut Vec<u64>) {
        if let AccessOutcome::Miss { victim: Some(v) } = self.l2[core].access(line_addr, true) {
            self.insert_l3(v, mem_writebacks);
        }
    }

    /// Installs a dirty L2 victim into the shared L3.
    fn insert_l3(&mut self, line_addr: u64, mem_writebacks: &mut Vec<u64>) {
        if let AccessOutcome::Miss { victim: Some(v) } = self.l3.access(line_addr, true) {
            mem_writebacks.push(v);
        }
    }

    /// Drains every dirty line to memory (end-of-kernel flush). Returns the
    /// line addresses written back.
    pub fn flush_all(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for c in 0..self.cfg.cores as usize {
            for line in self.l1[c].flush() {
                out.push(line);
            }
            for line in self.l2[c].flush() {
                out.push(line);
            }
        }
        out.extend(self.l3.flush());
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
        }) // 8 sets
    }

    #[test]
    fn geometry() {
        assert_eq!(small().sets.len(), 8);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0, false).is_hit());
        assert!(c.access(0, false).is_hit());
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to set 0 in a 2-way cache: stride = 8 sets * 64.
        let s = 8 * 64;
        c.access(0, false);
        c.access(s, false);
        c.access(0, false); // refresh line 0
        c.access(2 * s, false); // evicts line `s`
        assert!(c.contains(0));
        assert!(!c.contains(s));
        assert!(c.contains(2 * s));
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = small();
        let s = 8 * 64;
        c.access(0, true); // dirty
        c.access(s, false);
        let out = c.access(2 * s, false); // evicts line 0 (LRU, dirty)
        match out {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v, 0),
            other => panic!("expected dirty victim, got {other:?}"),
        }
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = small();
        let s = 8 * 64;
        c.access(0, false);
        c.access(s, false);
        let out = c.access(2 * s, false);
        assert_eq!(out, AccessOutcome::Miss { victim: None });
    }

    #[test]
    fn flush_returns_only_dirty() {
        let mut c = small();
        c.access(0, true);
        c.access(64, false);
        let mut d = c.flush();
        d.sort_unstable();
        assert_eq!(d, vec![0]);
        assert!(!c.contains(0));
    }

    fn tiny_hierarchy() -> CacheHierarchy {
        let line = CacheConfig {
            size_bytes: 512,
            ways: 2,
        }; // 4 sets
        CacheHierarchy::new(HierarchyConfig {
            cores: 2,
            l1: line,
            l2: CacheConfig {
                size_bytes: 1024,
                ways: 2,
            },
            l3: CacheConfig {
                size_bytes: 2048,
                ways: 2,
            },
        })
    }

    #[test]
    fn hierarchy_first_touch_goes_to_memory() {
        let mut h = tiny_hierarchy();
        let out = h.access(0, 0x40, false);
        assert_eq!(out.served_by, HitLevel::Memory);
        let out = h.access(0, 0x40, false);
        assert_eq!(out.served_by, HitLevel::L1);
    }

    #[test]
    fn hierarchy_l3_shared_across_cores() {
        let mut h = tiny_hierarchy();
        h.access(0, 0x40, false);
        // Other core finds it in shared L3, not its private caches.
        let out = h.access(1, 0x40, false);
        assert_eq!(out.served_by, HitLevel::L3);
    }

    #[test]
    fn hierarchy_flush_reports_dirty_lines_once() {
        let mut h = tiny_hierarchy();
        h.access(0, 0x40, true);
        h.access(0, 0x80, false);
        let dirty = h.flush_all();
        assert_eq!(dirty, vec![0x40]);
    }

    #[test]
    fn hierarchy_streaming_writes_eventually_write_back() {
        let mut h = tiny_hierarchy();
        // Stream far more dirty lines than total capacity.
        let mut wb = 0usize;
        for i in 0..512u64 {
            wb += h.access(0, i * 64, true).mem_writebacks.len();
        }
        let wb_total = wb + h.flush_all().len();
        assert_eq!(
            wb_total, 512,
            "every dirty line must reach memory exactly once"
        );
    }

    #[test]
    #[should_panic]
    fn hierarchy_bad_core_panics() {
        tiny_hierarchy().access(9, 0, false);
    }

    #[test]
    fn victim_address_reconstruction() {
        let mut c = small();
        let addr = 0x1234 & !63u64;
        c.access(addr, true);
        // Force eviction by filling the same set.
        let s = 8 * 64;
        let mut victims = Vec::new();
        for i in 1..=2 {
            if let AccessOutcome::Miss { victim: Some(v) } = c.access(addr + i * s, false) {
                victims.push(v);
            }
        }
        assert_eq!(victims, vec![addr]);
    }
}
