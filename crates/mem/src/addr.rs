//! Virtual→physical page mapping.
//!
//! Figure 9 of the paper shows why TenAnalyzer observes *virtual*
//! addresses: the core's VA stream over a tensor is regular and continuous,
//! while the physical pages backing it are scattered by the OS allocator.
//! [`PageMapper`] reproduces that scattering deterministically so the
//! memory controller sees realistic discontinuous physical traffic.

use serde::{Deserialize, Serialize};
use tee_sim::util::IntMap;
use tee_sim::SplitMix64;

/// Page size (4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// A demand-paged VA→PA mapper with deterministic pseudo-random frame
/// assignment.
///
/// # Example
///
/// ```
/// use tee_mem::{PageMapper, PAGE_BYTES};
///
/// let mut m = PageMapper::new(42);
/// let pa1 = m.translate(0x1000);
/// let pa2 = m.translate(0x1008);
/// assert_eq!(pa2 - pa1, 8, "offsets within a page are preserved");
/// // Consecutive pages are (almost surely) not physically adjacent.
/// let next_page = m.translate(0x1000 + PAGE_BYTES);
/// assert_ne!(next_page, pa1 + PAGE_BYTES);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageMapper {
    table: IntMap<u64, u64>,
    rng: SplitMix64,
}

impl PageMapper {
    /// Creates a mapper that scatters frames pseudo-randomly (the realistic
    /// default, per Figure 9).
    pub fn new(seed: u64) -> Self {
        PageMapper {
            table: IntMap::default(),
            rng: SplitMix64::new(seed),
        }
    }

    /// Translates a virtual byte address, allocating a frame on first touch.
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        let vpn = vaddr / PAGE_BYTES;
        let offset = vaddr % PAGE_BYTES;
        let frame = match self.table.get(&vpn) {
            Some(&f) => f,
            None => {
                // 2^20 frames = 4 GiB of physical space; collisions are
                // harmless for simulation (two VPNs sharing a frame would
                // only make traffic *more* regular, never less).
                let f = self.rng.next_below(1 << 20);
                self.table.insert(vpn, f);
                f
            }
        };
        frame * PAGE_BYTES + offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_stable() {
        let mut m = PageMapper::new(1);
        let a = m.translate(0x5000);
        let b = m.translate(0x5000);
        assert_eq!(a, b);
    }

    #[test]
    fn offsets_preserved_within_page() {
        let mut m = PageMapper::new(1);
        let base = m.translate(0x7000);
        for off in [0u64, 64, 128, 4095] {
            assert_eq!(m.translate(0x7000 + off), base + off);
        }
    }

    #[test]
    fn scattered_pages_break_contiguity() {
        let mut m = PageMapper::new(7);
        let mut contiguous = 0;
        let n = 64;
        let mut prev = m.translate(0);
        for p in 1..n {
            let pa = m.translate(p * PAGE_BYTES);
            if pa == prev + PAGE_BYTES {
                contiguous += 1;
            }
            prev = pa;
        }
        assert!(
            contiguous < n / 8,
            "scattered mapping should rarely be contiguous ({contiguous}/{n})"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = PageMapper::new(9);
        let mut b = PageMapper::new(9);
        for p in 0..32 {
            assert_eq!(a.translate(p * PAGE_BYTES), b.translate(p * PAGE_BYTES));
        }
    }
}
