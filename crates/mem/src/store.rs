//! Functional backing store: the off-chip DRAM image.
//!
//! Everything outside the chip is attacker territory (threat model, §2.4).
//! [`PhysMem`] therefore stores what is *physically* in DRAM — ciphertext
//! for protected regions — and exposes the same interface an adversary
//! with bus access has: arbitrary reads (snooping), arbitrary writes
//! (corruption) and replay of previously captured lines.

use crate::LINE_BYTES;
use tee_sim::util::IntMap;

/// One 64 B line as stored in DRAM.
pub type LineData = [u8; LINE_BYTES as usize];

/// A sparse physical-memory image addressed by line-aligned physical
/// addresses.
///
/// # Example
///
/// ```
/// use tee_mem::PhysMem;
///
/// let mut dram = PhysMem::new();
/// dram.write_line(0x40, [7u8; 64]);
/// assert_eq!(dram.read_line(0x40), [7u8; 64]);
/// assert_eq!(dram.read_line(0x80), [0u8; 64], "untouched memory reads zero");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysMem {
    lines: IntMap<u64, LineData>,
}

impl PhysMem {
    /// Creates an empty (all-zero) memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a line; unwritten memory reads as zeros.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not line-aligned.
    pub fn read_line(&mut self, pa: u64) -> LineData {
        assert_eq!(pa % LINE_BYTES, 0, "unaligned line read at {pa:#x}");
        self.lines.get(&pa).copied().unwrap_or([0u8; 64])
    }

    /// Writes a line.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not line-aligned.
    pub fn write_line(&mut self, pa: u64, data: LineData) {
        assert_eq!(pa % LINE_BYTES, 0, "unaligned line write at {pa:#x}");
        self.lines.insert(pa, data);
    }

    /// Addresses of all resident lines, sorted. Adversary hook: the
    /// attack-surface enumeration of `tests/cpu_tee_security.rs`.
    pub fn resident_addrs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.lines.keys().copied().collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------------------
    // Adversarial interface (threat model §2.4): the attacker controls the
    // bus and the DIMMs, so these are just aliases with intent-revealing
    // names used by the attack tests.
    // ------------------------------------------------------------------

    /// Bus snoop: observe the raw stored bytes.
    pub fn snoop(&self, pa: u64) -> LineData {
        self.lines.get(&pa).copied().unwrap_or([0u8; 64])
    }

    /// Physical corruption: flip one byte of a stored line.
    pub fn tamper_byte(&mut self, pa: u64, offset: usize, xor: u8) {
        let line = self.lines.entry(pa).or_insert([0u8; 64]);
        line[offset % LINE_BYTES as usize] ^= xor;
    }

    /// Replay attack: capture a line now, restore it later.
    pub fn capture(&self, pa: u64) -> LineData {
        self.snoop(pa)
    }

    /// Replay attack, step 2: overwrite the current line with a stale copy.
    pub fn replay(&mut self, pa: u64, stale: LineData) {
        self.lines.insert(pa, stale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let mut m = PhysMem::new();
        assert_eq!(m.read_line(0), [0u8; 64]);
        assert!(m.resident_addrs().is_empty(), "reads allocate nothing");
    }

    #[test]
    fn write_then_read() {
        let mut m = PhysMem::new();
        let mut data = [0u8; 64];
        data[13] = 0xEE;
        m.write_line(0x1000, data);
        assert_eq!(m.read_line(0x1000), data);
        assert_eq!(m.resident_addrs(), vec![0x1000]);
    }

    #[test]
    fn snoop_does_not_count() {
        // A snoop is passive: it reads stored bytes without allocating.
        let mut m = PhysMem::new();
        m.write_line(0, [1; 64]);
        assert_eq!(m.snoop(0), [1; 64]);
        assert_eq!(m.snoop(64), [0; 64]);
        assert_eq!(m.resident_addrs(), vec![0]);
    }

    #[test]
    fn tamper_flips_byte() {
        let mut m = PhysMem::new();
        m.write_line(0, [0xAA; 64]);
        m.tamper_byte(0, 5, 0xFF);
        assert_eq!(m.read_line(0)[5], 0x55);
        assert_eq!(m.read_line(0)[4], 0xAA);
    }

    #[test]
    fn capture_replay_round_trip() {
        let mut m = PhysMem::new();
        m.write_line(0, [1; 64]);
        let stale = m.capture(0);
        m.write_line(0, [2; 64]);
        m.replay(0, stale);
        assert_eq!(m.read_line(0), [1; 64]);
    }

    #[test]
    #[should_panic]
    fn unaligned_read_panics() {
        PhysMem::new().read_line(1);
    }
}
