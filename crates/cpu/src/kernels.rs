//! CPU workload generators: the Adam optimizer update and tiled GEMM.
//!
//! These produce the tensor layouts and per-thread access schedules the
//! engine executes; the actual request streams are synthesized on the fly
//! by [`crate::engine::CpuEngine`].

use crate::tensor::TensorDesc;
use tee_mem::LINE_BYTES;
use tee_sim::util::align_up;

/// The four state streams Adam touches per parameter tensor
/// (ZeRO-Offload keeps fp32 master weights + optimizer state on the CPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdamTensorSet {
    /// fp32 master weights (read + write).
    pub w: TensorDesc,
    /// Gradients received from the NPU (read).
    pub g: TensorDesc,
    /// First moment (read + write).
    pub m: TensorDesc,
    /// Second moment (read + write).
    pub v: TensorDesc,
}

/// A full Adam workload: one tensor set per parameter tensor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdamWorkload {
    /// Per-parameter-tensor stream sets.
    pub tensors: Vec<AdamTensorSet>,
}

impl AdamWorkload {
    /// Lays out `sizes` (bytes of fp32 parameters per tensor) in a fresh
    /// virtual address space. Streams are *kind-major*: all weight tensors
    /// form one contiguous region, then gradients, momenta and variances —
    /// matching DeepSpeed's flattened fp32 buffers. Contiguity lets
    /// TenAnalyzer merge per-tensor entries into per-region entries
    /// (Figure 11), which is what keeps the 512-entry Meta Table
    /// sufficient for models with hundreds of tensors.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or contains zeros.
    pub fn from_tensor_sizes(sizes: &[u64]) -> Self {
        assert!(!sizes.is_empty(), "workload needs at least one tensor");
        let region_gap: u64 = 1 << 36; // regions far apart
        let bases = [
            0x0100_0000_0000u64,               // w
            0x0100_0000_0000 + region_gap,     // g
            0x0100_0000_0000 + 2 * region_gap, // m
            0x0100_0000_0000 + 3 * region_gap, // v
        ];
        let mut offsets = [0u64; 4];
        let mut alloc = |kind: usize, bytes: u64| {
            let base = bases[kind] + offsets[kind];
            offsets[kind] += align_up(bytes, LINE_BYTES);
            TensorDesc::new_1d(base, bytes)
        };
        let tensors = sizes
            .iter()
            .map(|&s| {
                assert!(s > 0, "zero-sized tensor");
                let bytes = align_up(s, LINE_BYTES);
                AdamTensorSet {
                    w: alloc(0, bytes),
                    g: alloc(1, bytes),
                    m: alloc(2, bytes),
                    v: alloc(3, bytes),
                }
            })
            .collect();
        AdamWorkload { tensors }
    }

    /// The four flattened regions (w, g, m, v) as single spanning
    /// descriptors — what DeepSpeed's flat fp32 buffers look like, and
    /// what SoftVN software annotations declare.
    pub fn flat_regions(&self) -> [TensorDesc; 4] {
        let span = |pick: fn(&AdamTensorSet) -> TensorDesc| {
            let first = pick(self.tensors.first().expect("non-empty workload"));
            let last = pick(self.tensors.last().expect("non-empty workload"));
            TensorDesc::new_1d(first.base, last.end() - first.base)
        };
        [span(|s| s.w), span(|s| s.g), span(|s| s.m), span(|s| s.v)]
    }

    /// Partitions the workload across `threads` workers: every tensor is
    /// split into contiguous chunks, chunk *t* of every tensor going to
    /// thread *t* (the data-parallel split that causes SoftVN's entry
    /// wastage).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn partition(&self, threads: u32) -> Vec<Vec<AdamTensorSet>> {
        assert!(threads > 0, "need at least one thread");
        let mut per_thread: Vec<Vec<AdamTensorSet>> = vec![Vec::new(); threads as usize];
        for set in &self.tensors {
            let w = set.w.split(threads as u64);
            let g = set.g.split(threads as u64);
            let m = set.m.split(threads as u64);
            let v = set.v.split(threads as u64);
            for t in 0..w.len().min(g.len()).min(m.len()).min(v.len()) {
                per_thread[t].push(AdamTensorSet {
                    w: w[t],
                    g: g[t],
                    m: m[t],
                    v: v[t],
                });
            }
        }
        per_thread
    }
}

/// A tiled square GEMM workload (§6.2: 256×256 matrices, 64×64 tiles).
#[derive(Debug, Clone, Copy)]
pub struct GemmWorkload {
    /// Matrix dimension (elements per side).
    pub n: u64,
    /// Tile dimension.
    pub tile: u64,
    /// Base VA of A (row-major), B and C follow.
    pub a_base: u64,
    /// Base VA of B.
    pub b_base: u64,
    /// Base VA of C.
    pub c_base: u64,
}

impl GemmWorkload {
    /// Element size (fp32).
    pub const ELEM: u64 = 4;

    /// Creates the §6.2 workload.
    ///
    /// # Panics
    ///
    /// Panics unless `tile` divides `n` and a row of a tile fills whole
    /// cachelines.
    pub fn new(n: u64, tile: u64) -> Self {
        assert!(n.is_multiple_of(tile), "tile must divide n");
        assert!(
            (tile * Self::ELEM).is_multiple_of(LINE_BYTES),
            "tile rows must be line-multiple"
        );
        let bytes = n * n * Self::ELEM;
        let a_base = 0x0002_0000_0000;
        let b_base = align_up(a_base + bytes, 4096) + 4096;
        let c_base = align_up(b_base + bytes, 4096) + 4096;
        GemmWorkload {
            n,
            tile,
            a_base,
            b_base,
            c_base,
        }
    }

    /// Bytes per matrix row.
    pub fn row_bytes(&self) -> u64 {
        self.n * Self::ELEM
    }

    /// Generates the read access stream (line addresses) of one full tiled
    /// GEMM: for every (i,j,k) tile triple, stream tile rows of A and B.
    /// C-tile writes are appended as a separate stream per (i,j).
    pub fn read_stream(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let tiles = self.n / self.tile;
        let row_bytes = self.row_bytes();
        let tile_row_bytes = self.tile * Self::ELEM;
        let lines_per_tile_row = tile_row_bytes / LINE_BYTES;
        let push_tile = |out: &mut Vec<u64>, base: u64, ti: u64, tj: u64| {
            let tile_base = base + ti * self.tile * row_bytes + tj * tile_row_bytes;
            for r in 0..self.tile {
                let row_start = tile_base + r * row_bytes;
                for l in 0..lines_per_tile_row {
                    out.push(row_start + l * LINE_BYTES);
                }
            }
        };
        for i in 0..tiles {
            for j in 0..tiles {
                for k in 0..tiles {
                    push_tile(&mut out, self.a_base, i, k);
                    push_tile(&mut out, self.b_base, k, j);
                }
                push_tile(&mut out, self.c_base, i, j);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_disjoint() {
        let w = AdamWorkload::from_tensor_sizes(&[1 << 16; 3]);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for s in &w.tensors {
            for d in [s.w, s.g, s.m, s.v] {
                spans.push((d.base, d.end()));
            }
        }
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "streams overlap: {pair:?}");
        }
    }

    #[test]
    fn partition_covers_all_lines() {
        let w = AdamWorkload::from_tensor_sizes(&[64 * 10; 2]);
        let parts = w.partition(3);
        let lines: u64 = parts
            .iter()
            .flatten()
            .map(|s| s.w.lines() + s.g.lines() + s.m.lines() + s.v.lines())
            .sum();
        assert_eq!(lines, 2 * 4 * 10, "2 tensors x 4 streams x 10 lines");
    }

    #[test]
    fn partition_single_thread_is_whole() {
        let w = AdamWorkload::from_tensor_sizes(&[640; 1]);
        let parts = w.partition(1);
        assert_eq!(parts[0][0].w, w.tensors[0].w);
    }

    #[test]
    fn gemm_stream_touches_all_matrices() {
        let g = GemmWorkload::new(64, 16);
        let stream = g.read_stream();
        assert!(stream.iter().any(|&a| a >= g.a_base && a < g.b_base));
        assert!(stream.iter().any(|&a| a >= g.b_base && a < g.c_base));
        assert!(stream.iter().any(|&a| a >= g.c_base));
        // 4x4 tiles: 16 (i,j) x 4 k x 2 matrices x 16 rows x 1 line + C tiles.
        assert_eq!(stream.len(), 16 * (4 * 2 + 1) * 16);
    }

    #[test]
    fn gemm_tile_rows_are_line_aligned() {
        let g = GemmWorkload::new(256, 64);
        for addr in g.read_stream().into_iter().take(1000) {
            assert_eq!(addr % LINE_BYTES, 0);
        }
    }

    #[test]
    #[should_panic]
    fn misaligned_tile_rejected() {
        let _ = GemmWorkload::new(64, 8); // 8*4 = 32 B < one line
    }
}
