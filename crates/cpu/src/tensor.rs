//! Tensor descriptors shared by kernels and TEE engines.

use serde::{Deserialize, Serialize};
use tee_mem::LINE_BYTES;

/// A dense tensor in virtual memory.
///
/// # Example
///
/// ```
/// use tee_cpu::tensor::TensorDesc;
/// let t = TensorDesc::new_1d(0x10000, 1024 * 4); // 1024 fp32 elements
/// assert_eq!(t.lines(), 64);
/// assert!(t.contains(0x10000 + 100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorDesc {
    /// Base virtual address (line-aligned).
    pub base: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Logical rows (1 for flat tensors).
    pub rows: u64,
    /// Bytes per row.
    pub row_bytes: u64,
    /// Byte distance between row starts (≥ `row_bytes`).
    pub pitch: u64,
}

impl TensorDesc {
    /// A flat 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 64 B aligned or `bytes` is zero.
    pub fn new_1d(base: u64, bytes: u64) -> Self {
        assert_eq!(base % LINE_BYTES, 0, "tensor base must be line-aligned");
        assert!(bytes > 0, "empty tensor");
        TensorDesc {
            base,
            bytes,
            rows: 1,
            row_bytes: bytes,
            pitch: bytes,
        }
    }

    /// Number of 64 B lines covered (data bytes only).
    pub fn lines(&self) -> u64 {
        self.bytes.div_ceil(LINE_BYTES)
    }

    /// End of the tensor's address footprint (exclusive).
    pub fn end(&self) -> u64 {
        self.base + (self.rows - 1) * self.pitch + self.row_bytes
    }

    /// Whether `va` falls inside tensor data (row gaps excluded).
    pub fn contains(&self, va: u64) -> bool {
        if va < self.base || va >= self.end() {
            return false;
        }
        let off = va - self.base;
        (off % self.pitch) < self.row_bytes
    }

    /// Iterates the line-aligned addresses of the tensor in row-major
    /// order. Test oracle: `line_addrs_row_major` and the
    /// `tensor_split_partition` proptest enumerate coverage with it.
    pub fn line_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.rows).flat_map(move |r| {
            let row_start = self.base + r * self.pitch;
            let lines = self.row_bytes.div_ceil(LINE_BYTES);
            (0..lines).map(move |l| row_start + l * LINE_BYTES)
        })
    }

    /// Splits a flat tensor into `n` contiguous line-aligned chunks —
    /// how the Adam kernel partitions work across threads.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is 2-D or `n` is zero.
    pub fn split(&self, n: u64) -> Vec<TensorDesc> {
        assert!(n > 0, "cannot split into zero chunks");
        assert_eq!(self.rows, 1, "only flat tensors are split across threads");
        let total_lines = self.lines();
        let per = total_lines.div_ceil(n);
        let mut out = Vec::new();
        let mut line = 0;
        while line < total_lines {
            let chunk_lines = per.min(total_lines - line);
            let base = self.base + line * LINE_BYTES;
            let bytes = (chunk_lines * LINE_BYTES).min(self.bytes - line * LINE_BYTES);
            out.push(TensorDesc::new_1d(base, bytes));
            line += chunk_lines;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_d_geometry() {
        let t = TensorDesc::new_1d(0, 130);
        assert_eq!(t.lines(), 3);
        assert_eq!(t.end(), 130);
        assert!(t.contains(129));
        assert!(!t.contains(130));
    }

    #[test]
    fn two_d_contains_excludes_gaps() {
        let t = TensorDesc {
            base: 0,
            bytes: 2 * 64,
            rows: 2,
            row_bytes: 64,
            pitch: 256,
        };
        assert!(t.contains(0));
        assert!(t.contains(63));
        assert!(!t.contains(64), "gap between rows");
        assert!(t.contains(256));
        assert_eq!(t.end(), 320);
    }

    #[test]
    fn line_addrs_row_major() {
        let t = TensorDesc {
            base: 0,
            bytes: 2 * 128,
            rows: 2,
            row_bytes: 128,
            pitch: 512,
        };
        let addrs: Vec<u64> = t.line_addrs().collect();
        assert_eq!(addrs, vec![0, 64, 512, 576]);
    }

    #[test]
    fn split_covers_everything_once() {
        let t = TensorDesc::new_1d(0x1000, 10 * 64);
        let parts = t.split(3);
        assert_eq!(parts.len(), 3);
        let total: u64 = parts.iter().map(|p| p.lines()).sum();
        assert_eq!(total, 10);
        // Chunks are contiguous and ordered.
        assert_eq!(parts[0].base, 0x1000);
        assert_eq!(parts[1].base, parts[0].end());
    }

    #[test]
    fn split_one_is_identity() {
        let t = TensorDesc::new_1d(0, 64 * 7);
        assert_eq!(t.split(1), vec![t]);
    }

    #[test]
    #[should_panic]
    fn unaligned_base_rejected() {
        let _ = TensorDesc::new_1d(13, 64);
    }
}
