//! The Tensor Filter: miss-stream pattern detection (§4.2, Figure 10).
//!
//! Meta Table misses are fed here. Each of the (10, per §6.5) filter
//! entries collects up to 4 addresses; when an entry reaches its collection
//! limit it checks the tensor condition — identical VN and a consistent
//! stride between the addresses — and, if satisfied, emits an initial
//! [`MetaEntry`] for the Meta Table.

use crate::analyzer::meta_table::MetaEntry;
use tee_mem::LINE_BYTES;

/// Largest first-delta accepted as a plausible tensor stride (prevents two
/// unrelated streams from pairing up in one filter entry).
const MAX_STRIDE: u64 = 64 * LINE_BYTES;

#[derive(Debug, Clone)]
struct FilterEntry {
    addrs: Vec<u64>,
    vn: u64,
    lru: u64,
}

impl FilterEntry {
    fn stride(&self) -> Option<u64> {
        if self.addrs.len() < 2 {
            return None;
        }
        Some(self.addrs[1] - self.addrs[0])
    }

    /// Whether `va` continues this entry's pattern.
    fn matches(&self, va: u64, vn: u64) -> bool {
        if vn != self.vn {
            return false;
        }
        let last = *self.addrs.last().expect("entries are never empty");
        match self.stride() {
            None => va > last && va - last <= MAX_STRIDE,
            Some(s) => va == last + s,
        }
    }

    /// Validates the tensor condition and produces the initial Meta Table
    /// entry.
    fn into_meta(self) -> Option<MetaEntry> {
        let stride = self.stride()?;
        if stride < LINE_BYTES {
            return None;
        }
        // Consistent pattern across all collected addresses.
        for w in self.addrs.windows(2) {
            if w[1] - w[0] != stride {
                return None;
            }
        }
        Some(MetaEntry::new_1d(
            self.addrs[0],
            self.addrs.len() as u64,
            stride,
            self.vn,
        ))
    }
}

/// The Tensor Filter.
///
/// # Example
///
/// ```
/// use tee_cpu::analyzer::filter::TensorFilter;
///
/// let mut f = TensorFilter::new(10, 4);
/// assert!(f.observe_miss(0, 0).is_none());
/// assert!(f.observe_miss(64, 0).is_none());
/// assert!(f.observe_miss(128, 0).is_none());
/// let entry = f.observe_miss(192, 0).expect("4th address completes detection");
/// assert_eq!(entry.line_count(), 4);
/// ```
#[derive(Debug)]
pub struct TensorFilter {
    entries: Vec<FilterEntry>,
    capacity: usize,
    threshold: usize,
    tick: u64,
}

impl TensorFilter {
    /// Creates a filter with `capacity` entries collecting `threshold`
    /// addresses each (paper: 10 entries × 4 addresses).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `threshold < 2`.
    pub fn new(capacity: usize, threshold: usize) -> Self {
        assert!(capacity > 0, "filter needs at least one entry");
        assert!(threshold >= 2, "stride needs at least two addresses");
        TensorFilter {
            entries: Vec::with_capacity(capacity),
            capacity,
            threshold,
            tick: 0,
        }
    }

    /// Feeds one Meta Table miss (line address + its off-chip VN).
    /// Returns a detected [`MetaEntry`] when a pattern completes.
    pub fn observe_miss(&mut self, va: u64, vn: u64) -> Option<MetaEntry> {
        self.tick += 1;
        if let Some(idx) = self.entries.iter().position(|e| e.matches(va, vn)) {
            self.entries[idx].addrs.push(va);
            self.entries[idx].lru = self.tick;
            if self.entries[idx].addrs.len() >= self.threshold {
                let entry = self.entries.swap_remove(idx);
                return entry.into_meta();
            }
            return None;
        }
        // Allocate a new tracking entry, evicting LRU if needed.
        if self.entries.len() == self.capacity {
            let lru_idx = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("filter is full, hence non-empty");
            self.entries.swap_remove(lru_idx);
        }
        self.entries.push(FilterEntry {
            addrs: vec![va],
            vn,
            lru: self.tick,
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_dense_stream() {
        let mut f = TensorFilter::new(10, 4);
        for i in 0..3 {
            assert!(f.observe_miss(i * 64, 5).is_none());
        }
        let e = f.observe_miss(192, 5).expect("detected");
        assert_eq!(e.base, 0);
        assert_eq!(e.vn, 5);
        assert_eq!(e.line_count(), 4);
    }

    #[test]
    fn detects_strided_stream() {
        let mut f = TensorFilter::new(10, 4);
        let stride = 256;
        for i in 0..3 {
            assert!(f.observe_miss(i * stride, 0).is_none());
        }
        let e = f.observe_miss(3 * stride, 0).expect("detected");
        assert!(e.contains(2 * stride));
        assert!(!e.contains(64), "only strided lines covered");
    }

    #[test]
    fn vn_mismatch_starts_new_entry() {
        let mut f = TensorFilter::new(10, 4);
        f.observe_miss(0, 0);
        f.observe_miss(64, 1); // different VN cannot join
        assert_eq!(f.entries.len(), 2);
    }

    #[test]
    fn interleaved_streams_tracked_separately() {
        let mut f = TensorFilter::new(10, 4);
        let a_base = 0u64;
        let b_base = 1 << 20;
        let mut detected = Vec::new();
        for i in 0..4 {
            if let Some(e) = f.observe_miss(a_base + i * 64, 0) {
                detected.push(e);
            }
            if let Some(e) = f.observe_miss(b_base + i * 64, 0) {
                detected.push(e);
            }
        }
        assert_eq!(detected.len(), 2);
        assert_ne!(detected[0].base, detected[1].base);
    }

    #[test]
    fn capacity_thrash_prevents_detection() {
        // More concurrent streams than entries, strict round-robin: every
        // stream is evicted before completing (the contention pathology
        // that staggers detection across iterations).
        let mut f = TensorFilter::new(2, 4);
        let mut detected = 0;
        for i in 0..4u64 {
            for s in 0..4u64 {
                if f.observe_miss((s << 24) + i * 64, 0).is_some() {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, 0);
        assert_eq!(f.entries.len(), 2, "evictions keep the filter at capacity");
    }

    #[test]
    fn far_jump_does_not_pair() {
        let mut f = TensorFilter::new(10, 4);
        f.observe_miss(0, 0);
        f.observe_miss(1 << 30, 0);
        assert_eq!(
            f.entries.len(),
            2,
            "delta above MAX_STRIDE starts a new entry"
        );
    }

    #[test]
    #[should_panic]
    fn degenerate_threshold_rejected() {
        let _ = TensorFilter::new(4, 1);
    }
}
