//! SoftVN baseline (§2.2 "Limitations of existing work", Figure 19).
//!
//! SoftVN keeps tensor VNs in an on-chip table whose entries are declared
//! *explicitly by software*. It has no detection phase, so it performs well
//! immediately — but (1) VN acquisition sits on the cache-access critical
//! path, so lookup latency grows with the entry count, and (2) a tensor
//! used in parallel across cores occupies one entry per subtensor,
//! exhausting the table ("wastage of entries").

use crate::tensor::TensorDesc;
use serde::{Deserialize, Serialize};

/// SoftVN configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SoftVnConfig {
    /// VN-table capacity in entries.
    pub entries: usize,
    /// Critical-path lookup cost: cycles per 64 entries searched.
    pub lookup_cycles_per_64: u64,
}

impl Default for SoftVnConfig {
    fn default() -> Self {
        SoftVnConfig {
            entries: 256,
            lookup_cycles_per_64: 1,
        }
    }
}

/// The software-managed VN table.
///
/// # Example
///
/// ```
/// use tee_cpu::softvn::{SoftVnConfig, SoftVnTable};
/// use tee_cpu::tensor::TensorDesc;
///
/// let mut t = SoftVnTable::new(SoftVnConfig::default());
/// assert!(t.declare(TensorDesc::new_1d(0, 4096)));
/// assert_eq!(t.lookup(64), Some(0));
/// t.bump(0);
/// assert_eq!(t.lookup(64), Some(1));
/// ```
#[derive(Debug)]
pub struct SoftVnTable {
    cfg: SoftVnConfig,
    declared: Vec<(TensorDesc, u64)>,
}

impl SoftVnTable {
    /// Creates an empty table.
    pub fn new(cfg: SoftVnConfig) -> Self {
        SoftVnTable {
            cfg,
            declared: Vec::new(),
        }
    }

    /// Declares a tensor (software annotation). Returns `false` when the
    /// table is full — that tensor falls back to the off-chip path.
    pub fn declare(&mut self, desc: TensorDesc) -> bool {
        if self.declared.len() >= self.cfg.entries {
            return false;
        }
        self.declared.push((desc, 0));
        true
    }

    /// Looks up the VN covering `va`, if declared.
    pub fn lookup(&self, va: u64) -> Option<u64> {
        self.declared
            .iter()
            .find(|(d, _)| d.contains(va))
            .map(|&(_, vn)| vn)
    }

    /// Software bumps a tensor's VN after its update completes (the
    /// explicit `specify VN at writeback` step SoftVN requires).
    pub fn bump(&mut self, base_va: u64) {
        if let Some((_, vn)) = self.declared.iter_mut().find(|(d, _)| d.base == base_va) {
            *vn += 1;
        }
    }

    /// The VN a write-back to `va` must carry (current VN + 1 during the
    /// update round), if covered.
    pub fn write_vn(&mut self, va: u64) -> Option<u64> {
        self.declared
            .iter()
            .find(|(d, _)| d.contains(va))
            .map(|&(_, vn)| vn + 1)
    }

    /// Critical-path lookup latency in core cycles for the current table
    /// size (CAM-search cost model).
    pub fn lookup_cycles(&self) -> u64 {
        (self.declared.len() as u64)
            .div_ceil(64)
            .saturating_mul(self.cfg.lookup_cycles_per_64)
    }

    /// Drops all declarations (kernel exit).
    pub fn clear(&mut self) {
        self.declared.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut t = SoftVnTable::new(SoftVnConfig::default());
        assert!(t.declare(TensorDesc::new_1d(0x1000, 640)));
        assert_eq!(t.lookup(0x1000), Some(0));
        assert_eq!(t.lookup(0x1000 + 639), Some(0));
        assert_eq!(t.lookup(0x2000), None);
    }

    #[test]
    fn capacity_overflow() {
        let mut t = SoftVnTable::new(SoftVnConfig {
            entries: 2,
            lookup_cycles_per_64: 1,
        });
        assert!(t.declare(TensorDesc::new_1d(0, 64)));
        assert!(t.declare(TensorDesc::new_1d(0x1000, 64)));
        assert!(!t.declare(TensorDesc::new_1d(0x2000, 64)));
        assert_eq!(t.lookup(0x2000), None, "overflowed tensor stays off-chip");
    }

    #[test]
    fn lookup_latency_grows_with_entries() {
        let mut t = SoftVnTable::new(SoftVnConfig {
            entries: 512,
            lookup_cycles_per_64: 1,
        });
        for i in 0..65u64 {
            t.declare(TensorDesc::new_1d(i << 16, 64));
        }
        assert_eq!(t.lookup_cycles(), 2);
    }

    #[test]
    fn write_vn_is_vn_plus_one() {
        let mut t = SoftVnTable::new(SoftVnConfig::default());
        t.declare(TensorDesc::new_1d(0, 640));
        assert_eq!(t.write_vn(64), Some(1));
        t.bump(0);
        assert_eq!(t.write_vn(64), Some(2));
        assert_eq!(t.lookup(64), Some(1));
    }

    #[test]
    fn clear_empties_table() {
        let mut t = SoftVnTable::new(SoftVnConfig::default());
        t.declare(TensorDesc::new_1d(0, 64));
        t.clear();
        assert!(t.declared.is_empty());
        assert_eq!(t.lookup(0), None);
    }
}
