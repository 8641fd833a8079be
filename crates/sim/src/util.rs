//! Formatting, alignment and integer-key hashing helpers shared across the
//! workspace.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Rounds `x` up to the next multiple of `align`.
///
/// # Panics
///
/// Panics if `align` is zero.
///
/// # Example
///
/// ```
/// assert_eq!(tee_sim::util::align_up(100, 64), 128);
/// assert_eq!(tee_sim::util::align_up(128, 64), 128);
/// ```
pub fn align_up(x: u64, align: u64) -> u64 {
    assert!(align > 0, "alignment must be positive");
    x.div_ceil(align) * align
}

/// Formats a byte count with binary units ("1.5 MiB").
///
/// # Example
///
/// ```
/// assert_eq!(tee_sim::util::fmt_bytes(1536 * 1024), "1.50 MiB");
/// assert_eq!(tee_sim::util::fmt_bytes(42), "42 B");
/// ```
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.2} {}", UNITS[unit])
}

/// Formats a throughput in bytes/second with decimal units ("12.8 GB/s").
pub fn fmt_bandwidth(bytes_per_sec: f64) -> String {
    const UNITS: [&str; 5] = ["B/s", "KB/s", "MB/s", "GB/s", "TB/s"];
    let mut v = bytes_per_sec;
    let mut unit = 0;
    while v >= 1000.0 && unit < UNITS.len() - 1 {
        v /= 1000.0;
        unit += 1;
    }
    format!("{v:.2} {}", UNITS[unit])
}

/// A deterministic hasher for integer keys: physical and virtual line
/// addresses, page numbers and line ordinals.
///
/// SipHash, `std`'s default, resists hash flooding, which no simulator
/// input needs, and costs several times more per lookup; every cacheline
/// access of the CPU engine does a few such lookups. This hasher folds
/// each written word into its state and multiplies once at `finish`. The
/// 128-bit product's high half is folded into its low half, so keys that
/// differ only in high bits (line-aligned addresses have six zero low bits,
/// page-aligned ones twelve) still spread over the low bits that pick a
/// bucket. The same key always hashes the same, in every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

/// Odd multiplier of the fold: 2^64 divided by the golden ratio.
const FOLD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(23) ^ n;
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * u128::from(FOLD_MUL);
        (product as u64) ^ ((product >> 64) as u64)
    }
}

/// A `HashMap` keyed by integers under [`IntHasher`].
///
/// # Example
///
/// ```
/// let mut va_of_pa: tee_sim::util::IntMap<u64, u64> = Default::default();
/// va_of_pa.insert(0x40, 0x7000);
/// assert_eq!(va_of_pa.get(&0x40), Some(&0x7000));
/// ```
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of integers under [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn finish_of(key: u64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn int_hasher_is_deterministic_and_spreads_line_addresses() {
        // Two independently built hashers agree on every key.
        let (a, b) = (
            BuildHasherDefault::<IntHasher>::default(),
            BuildHasherDefault::<IntHasher>::default(),
        );
        for key in [0u64, 1, 64, 0x7EE_000, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        // 4,096 line addresses (64 B apart) must spread over the low 12
        // bits that pick a bucket. A bare multiply keeps their six zero low
        // bits and reaches only 64 of the 4,096 values.
        let low_bits: HashSet<u64> = (0..4096u64).map(|i| finish_of(i * 64) & 0xFFF).collect();
        assert!(low_bits.len() >= 2048, "{} distinct", low_bits.len());
        let bare: HashSet<u64> = (0..4096u64)
            .map(|i| (i * 64).wrapping_mul(FOLD_MUL) & 0xFFF)
            .collect();
        assert!(bare.len() < 2048, "the check must fail a bare multiply");
    }

    #[test]
    fn align_up_cases() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 64), 128);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(1023), "1023 B");
        assert_eq!(fmt_bytes(1024), "1.00 KiB");
        assert_eq!(fmt_bytes(1 << 30), "1.00 GiB");
    }

    #[test]
    fn bandwidth_formatting() {
        assert_eq!(fmt_bandwidth(128.0e9), "128.00 GB/s");
        assert_eq!(fmt_bandwidth(500.0), "500.00 B/s");
    }
}
