//! The Meta Table: on-chip tensor-granularity VN/MAC storage (§4.2).
//!
//! Each entry holds shared metadata for every cacheline of one detected
//! tensor: address range + stride, the tensor VN, the tensor MAC, and the
//! write-protocol state (Updating Flag, Bit State, update bitmap). Reads
//! that *hit in* an entry get their VN with zero off-chip traffic; reads
//! that hit the *boundary* (`addr == last + stride`) extend the entry after
//! a background VN confirmation — the "gradual coverage" mechanism of
//! Figure 10. Writes follow the Figure-12 protocol: every line must flip
//! its bitmap bit exactly once between the start and finish edges, at which
//! point the tensor VN increments atomically.
//!
//! # The lookup index
//!
//! The hardware searches the table associatively. A simulated walk over
//! all 512 slots on every read, write-back and insert would dominate the
//! host time of cold detection runs, so the table indexes each live slot
//! under every 4 KiB VA page its covered-line bounds
//! `first_line..=last_line` touch, and under its frontier. Every slot list is kept in ascending slot order, and every
//! slot write (insert, merge removal, compaction, invalidation, LRU
//! overwrite, boundary growth) re-registers the slot, adding and removing
//! only the pages whose membership changed. An entry covering no line
//! registers under no page.
//!
//! The index returns the slot the scan returned. An entry containing `va`
//! has `first_line <= va <= last_line`, so it is listed under `va`'s page,
//! and the first listed slot that contains `va` is the lowest such slot:
//! the one a walk from slot 0 stops at. Overlapping coverage (a >256-line
//! insert passes the containment check while overlapping a live entry)
//! therefore resolves to the lowest slot, as the walk does. The slot scans
//! stay as `#[cfg(test)]` methods, the oracle of a differential property
//! test.

use crate::tensor::TensorDesc;
use std::ops::Range;
use tee_crypto::MacTag;
use tee_mem::{LINE_BYTES, PAGE_BYTES};
use tee_sim::util::{IntMap, IntSet};

/// Geometry of one detected tensor region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A strided 1-D run of lines: `base + k*stride` for `k < lines`.
    OneD {
        /// Covered line count.
        lines: u64,
        /// Byte stride between consecutive lines (64 for dense tensors).
        stride: u64,
    },
    /// A tiled 2-D region assembled by entry merging: `rows` rows of
    /// `row_lines` dense lines, spaced `pitch` bytes apart.
    TwoD {
        /// Dense lines per row.
        row_lines: u64,
        /// Byte distance between row starts.
        pitch: u64,
        /// Number of rows.
        rows: u64,
    },
}

/// One Meta Table entry.
#[derive(Debug, Clone)]
pub struct MetaEntry {
    /// Base (line-aligned) virtual address.
    pub base: u64,
    /// Region geometry.
    pub shape: Shape,
    /// The tensor version number.
    pub vn: u64,
    /// Tensor MAC accumulator (used by the transfer protocol).
    pub mac: MacTag,
    /// Updating Flag: a tensor update round is in progress.
    updating: bool,
    /// Lines flipped this round (bitmap bits that differ from BS).
    flipped: IntSet<u64>,
    lru: u64,
}

impl MetaEntry {
    /// Creates a fresh 1-D entry.
    pub fn new_1d(base: u64, lines: u64, stride: u64, vn: u64) -> Self {
        assert!(lines > 0 && stride >= LINE_BYTES);
        MetaEntry {
            base,
            shape: Shape::OneD { lines, stride },
            vn,
            mac: MacTag::default(),
            updating: false,
            flipped: IntSet::default(),
            lru: 0,
        }
    }

    /// Creates an entry covering a full tensor descriptor (used when the
    /// NPU's transfer instruction supplies the structure, §4.2).
    pub fn from_desc(desc: &TensorDesc, vn: u64) -> Self {
        if desc.rows <= 1 {
            Self::new_1d(desc.base, desc.lines(), LINE_BYTES, vn)
        } else {
            MetaEntry {
                base: desc.base,
                shape: Shape::TwoD {
                    row_lines: desc.row_bytes.div_ceil(LINE_BYTES),
                    pitch: desc.pitch,
                    rows: desc.rows,
                },
                vn,
                mac: MacTag::default(),
                updating: false,
                flipped: IntSet::default(),
                lru: 0,
            }
        }
    }

    /// Total covered lines.
    pub fn line_count(&self) -> u64 {
        match self.shape {
            Shape::OneD { lines, .. } => lines,
            Shape::TwoD {
                row_lines, rows, ..
            } => row_lines * rows,
        }
    }

    /// Whether a line-aligned VA falls inside the covered region.
    pub fn contains(&self, va: u64) -> bool {
        if va < self.base {
            return false;
        }
        let off = va - self.base;
        match self.shape {
            Shape::OneD { lines, stride } => off.is_multiple_of(stride) && off / stride < lines,
            Shape::TwoD {
                row_lines,
                pitch,
                rows,
            } => {
                let row = off / pitch;
                let col = off % pitch;
                row < rows && col.is_multiple_of(LINE_BYTES) && col / LINE_BYTES < row_lines
            }
        }
    }

    /// The next address that would extend this entry, if it can grow.
    ///
    /// 1-D entries grow at their end. 2-D entries grow *horizontally*: the
    /// line following row 0's coverage extends every row (tile columns are
    /// met left-to-right); when the rows touch (`row span == pitch`) the
    /// region is really contiguous and collapses back to 1-D.
    pub fn frontier(&self) -> Option<u64> {
        match self.shape {
            Shape::OneD { lines, stride } => Some(self.base + lines * stride),
            Shape::TwoD {
                row_lines, pitch, ..
            } if row_lines * LINE_BYTES < pitch => Some(self.base + row_lines * LINE_BYTES),
            Shape::TwoD { .. } => None,
        }
    }

    /// First covered line address.
    pub fn first_line(&self) -> u64 {
        self.base
    }

    /// Last covered line address.
    pub fn last_line(&self) -> u64 {
        match self.shape {
            Shape::OneD { lines, stride } => self.base + (lines - 1) * stride,
            Shape::TwoD {
                row_lines,
                pitch,
                rows,
            } => self.base + (rows - 1) * pitch + (row_lines - 1) * LINE_BYTES,
        }
    }

    /// Ordinal of a covered line (bitmap index).
    fn line_ordinal(&self, va: u64) -> u64 {
        debug_assert!(self.contains(va));
        let off = va - self.base;
        match self.shape {
            Shape::OneD { stride, .. } => off / stride,
            Shape::TwoD {
                row_lines, pitch, ..
            } => (off / pitch) * row_lines + (off % pitch) / LINE_BYTES,
        }
    }

    /// The VN to use when *reading* `va`: lines already flipped in the
    /// current update round have been written back at `vn + 1`.
    pub fn read_vn(&self, va: u64) -> u64 {
        if self.updating && self.flipped.contains(&self.line_ordinal(va)) {
            self.vn + 1
        } else {
            self.vn
        }
    }

    /// Whether an update round is in progress.
    pub fn is_updating(&self) -> bool {
        self.updating
    }

    /// Iterates every covered line address.
    pub fn covered_lines(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self.shape {
            Shape::OneD { lines, stride } => {
                Box::new((0..lines).map(move |l| self.base + l * stride))
            }
            Shape::TwoD {
                row_lines,
                pitch,
                rows,
            } => Box::new((0..rows).flat_map(move |r| {
                (0..row_lines).map(move |c| self.base + r * pitch + c * LINE_BYTES)
            })),
        }
    }
}

/// Outcome of a read lookup (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadLookup {
    /// Inside an entry: VN served on-chip.
    HitIn {
        /// Entry slot.
        slot: usize,
        /// The VN for this line.
        vn: u64,
    },
    /// Exactly at an entry's frontier: VN assumed, confirmation pending.
    HitBoundary {
        /// Entry slot (pass back to [`MetaTable::confirm_boundary`]).
        slot: usize,
        /// The assumed VN.
        vn: u64,
    },
    /// No entry covers the address.
    Miss,
}

/// Outcome of a write lookup (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteLookup {
    /// Hit the first address: update round started.
    HitEdgeStart {
        /// Entry slot.
        slot: usize,
        /// VN the written-back line carries (old VN + 1).
        vn: u64,
    },
    /// Hit the last address and the whole bitmap flipped: round complete,
    /// tensor VN incremented.
    HitEdgeFinish {
        /// Entry slot.
        slot: usize,
        /// The new tensor VN.
        vn: u64,
    },
    /// Hit strictly inside the range.
    HitIn {
        /// Entry slot.
        slot: usize,
        /// VN the written-back line carries.
        vn: u64,
    },
    /// Outside every entry: off-chip VN update only.
    Miss,
    /// An assertion failed; the entry was invalidated.
    Violation,
}

/// Read-lookup counts: the Figure-18 hit rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounts {
    /// Reads inside an entry (VN served on-chip).
    pub hit_in: u64,
    /// Reads at an entry's frontier (VN assumed, confirmation pending).
    pub hit_boundary: u64,
    /// Reads no entry covers.
    pub miss: u64,
}

impl ReadCounts {
    fn rate(&self, hits: u64) -> f64 {
        let total = self.hit_in + self.hit_boundary + self.miss;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// `hit_in / (hit_in + hit_boundary + miss)`; 0 when nothing was read.
    pub fn hit_in_rate(&self) -> f64 {
        self.rate(self.hit_in)
    }

    /// `(hit_in + hit_boundary) / total` — the paper's `hit_all`.
    pub fn hit_all_rate(&self) -> f64 {
        self.rate(self.hit_in + self.hit_boundary)
    }
}

/// What one slot is registered under in the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IndexKeys {
    /// The entry's `(first_line, last_line)`; `None` for a free slot or an
    /// entry covering no line (whose `last_line` would underflow).
    bounds: Option<(u64, u64)>,
    frontier: Option<u64>,
}

impl IndexKeys {
    fn of(entry: Option<&MetaEntry>) -> Self {
        entry.map_or_else(IndexKeys::default, |e| IndexKeys {
            bounds: (e.line_count() > 0).then(|| (e.first_line(), e.last_line())),
            frontier: e.frontier(),
        })
    }

    /// The 4 KiB pages the bounds touch.
    fn pages(&self) -> Range<u64> {
        self.bounds.map_or(0..0, |(first, last)| {
            first / PAGE_BYTES..last / PAGE_BYTES + 1
        })
    }

    fn bounds_hold(&self, va: u64) -> bool {
        self.bounds
            .is_some_and(|(first, last)| first <= va && va <= last)
    }
}

/// The pages of `a` that are not in `b`: the parts of `a` below and above
/// `b` (either may be empty).
fn pages_minus(a: Range<u64>, b: Range<u64>) -> [Range<u64>; 2] {
    [a.start..a.end.min(b.start), a.start.max(b.end)..a.end]
}

/// Adds `slot` to the ascending slot list under `key`.
fn index_add(index: &mut IntMap<u64, Vec<usize>>, key: u64, slot: usize) {
    let slots = index.entry(key).or_default();
    if let Err(at) = slots.binary_search(&slot) {
        slots.insert(at, slot);
    }
}

/// Removes `slot` from the slot list under `key`, dropping an emptied list.
fn index_remove(index: &mut IntMap<u64, Vec<usize>>, key: u64, slot: usize) {
    if let Some(slots) = index.get_mut(&key) {
        if let Ok(at) = slots.binary_search(&slot) {
            slots.remove(at);
        }
        if slots.is_empty() {
            index.remove(&key);
        }
    }
}

/// The Meta Table (512 entries in the paper's configuration, §6.5).
///
/// # Example
///
/// ```
/// use tee_cpu::analyzer::meta_table::{MetaEntry, MetaTable, ReadLookup};
///
/// let mut t = MetaTable::new(512);
/// t.insert(MetaEntry::new_1d(0x1000, 4, 64, 0));
/// assert!(matches!(t.lookup_read(0x1040), ReadLookup::HitIn { vn: 0, .. }));
/// assert!(matches!(t.lookup_read(0x1100), ReadLookup::HitBoundary { .. }));
/// ```
#[derive(Debug)]
pub struct MetaTable {
    slots: Vec<Option<MetaEntry>>,
    /// Per slot, the keys it is registered under in `by_page` and
    /// `by_frontier`.
    keys: Vec<IndexKeys>,
    /// 4 KiB VA page → the slots, ascending, whose covered-line bounds
    /// touch that page.
    by_page: IntMap<u64, Vec<usize>>,
    /// Frontier VA → the slots, ascending, with that frontier.
    by_frontier: IntMap<u64, Vec<usize>>,
    /// Number of live entries, read by the 7/8 occupancy test.
    live: usize,
    tick: u64,
    reads: ReadCounts,
}

impl MetaTable {
    /// Creates a table with `capacity` entry slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "meta table needs at least one slot");
        MetaTable {
            slots: (0..capacity).map(|_| None).collect(),
            keys: vec![IndexKeys::default(); capacity],
            by_page: IntMap::default(),
            by_frontier: IntMap::default(),
            live: 0,
            tick: 0,
            reads: ReadCounts::default(),
        }
    }

    /// The read counts since the previous call; resets them.
    pub fn take_reads(&mut self) -> ReadCounts {
        std::mem::take(&mut self.reads)
    }

    /// Read access to a live entry. Read only by tests (the Meta Table
    /// unit tests and `tests/property_based.rs` check VN bookkeeping).
    pub fn entry(&self, slot: usize) -> Option<&MetaEntry> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    /// Writes one slot. Every slot write goes through here, so the index
    /// and the live count follow it.
    fn set(&mut self, slot: usize, entry: Option<MetaEntry>) {
        self.live =
            self.live + usize::from(entry.is_some()) - usize::from(self.slots[slot].is_some());
        self.slots[slot] = entry;
        self.reindex(slot);
    }

    /// Re-registers `slot` after its entry changed, touching only the
    /// pages (and the frontier) whose membership changed.
    fn reindex(&mut self, slot: usize) {
        let new = IndexKeys::of(self.slots[slot].as_ref());
        let old = std::mem::replace(&mut self.keys[slot], new);
        for pages in pages_minus(old.pages(), new.pages()) {
            for page in pages {
                index_remove(&mut self.by_page, page, slot);
            }
        }
        for pages in pages_minus(new.pages(), old.pages()) {
            for page in pages {
                index_add(&mut self.by_page, page, slot);
            }
        }
        if old.frontier != new.frontier {
            if let Some(va) = old.frontier {
                index_remove(&mut self.by_frontier, va, slot);
            }
            if let Some(va) = new.frontier {
                index_add(&mut self.by_frontier, va, slot);
            }
        }
    }

    /// The candidate slots for `va`, ascending: every slot whose entry
    /// contains `va` is among them.
    fn candidates(&self, va: u64) -> &[usize] {
        self.by_page
            .get(&(va / PAGE_BYTES))
            .map_or(&[], Vec::as_slice)
    }

    /// The lowest slot whose entry contains `va`, other than `skip`.
    fn covering(&self, va: u64, skip: Option<usize>) -> Option<usize> {
        self.candidates(va).iter().copied().find(|&slot| {
            Some(slot) != skip
                && self.keys[slot].bounds_hold(va)
                && self.slots[slot].as_ref().is_some_and(|e| e.contains(va))
        })
    }

    /// The lowest slot whose frontier is `va`.
    fn at_frontier(&self, va: u64) -> Option<usize> {
        self.by_frontier.get(&va).map(|slots| slots[0])
    }

    /// The slot an incoming entry overlaps, if any. Exact per-line check
    /// for small (filter-sized) newcomers; preloads into a populated table
    /// use the cheaper containment test.
    fn overlap(&self, entry: &MetaEntry) -> Option<usize> {
        if entry.line_count() <= 256 {
            entry
                .covered_lines()
                .find_map(|line| self.covering(line, None))
        } else {
            let (first, last) = (entry.first_line(), entry.last_line());
            self.candidates(first).iter().copied().find(|&slot| {
                self.slots[slot]
                    .as_ref()
                    .is_some_and(|e| e.contains(first) && e.contains(last))
            })
        }
    }

    /// Whether growing the 2-D entry in `slot` would cover a line that
    /// already belongs to another entry.
    fn speculative_conflict(&self, slot: usize) -> bool {
        match self.slots.get(slot).and_then(|s| s.as_ref()) {
            Some(e) => match e.shape {
                Shape::TwoD {
                    row_lines,
                    pitch,
                    rows,
                } => (1..rows).any(|r| {
                    let line = e.base + r * pitch + row_lines * LINE_BYTES;
                    self.covering(line, Some(slot)).is_some()
                }),
                Shape::OneD { .. } => false,
            },
            None => false,
        }
    }

    /// Figure 10 read dataflow.
    pub fn lookup_read(&mut self, va: u64) -> ReadLookup {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.covering(va, None) {
            let e = self.slots[slot].as_mut().expect("indexed slot is live");
            e.lru = tick;
            self.reads.hit_in += 1;
            return ReadLookup::HitIn {
                slot,
                vn: e.read_vn(va),
            };
        }
        if let Some(slot) = self.at_frontier(va) {
            let e = self.slots[slot].as_mut().expect("indexed slot is live");
            e.lru = tick;
            self.reads.hit_boundary += 1;
            return ReadLookup::HitBoundary { slot, vn: e.vn };
        }
        self.reads.miss += 1;
        ReadLookup::Miss
    }

    /// Completes a boundary hit: if the off-chip VN matched the assumed VN,
    /// the entry's range is extended by one stride; otherwise the entry is
    /// left unchanged (the access is treated as a miss upstream).
    pub fn confirm_boundary(&mut self, slot: usize, va: u64, vn_matched: bool) {
        // 2-D growth covers one *speculative* new line per additional row;
        // refuse the extension if any of those lines already belongs to
        // another entry (overlap would desync write rounds).
        let speculative_conflict = self.speculative_conflict(slot);
        let Some(e) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
            return;
        };
        if !vn_matched || e.frontier() != Some(va) || e.updating || speculative_conflict {
            return;
        }
        match e.shape {
            Shape::OneD { ref mut lines, .. } => *lines += 1,
            Shape::TwoD {
                row_lines,
                pitch,
                rows,
            } => {
                let grown = row_lines + 1;
                e.shape = if grown * LINE_BYTES == pitch {
                    // Rows now touch: the region is contiguous.
                    Shape::OneD {
                        lines: rows * grown,
                        stride: LINE_BYTES,
                    }
                } else {
                    Shape::TwoD {
                        row_lines: grown,
                        pitch,
                        rows,
                    }
                };
            }
        }
        // The one in-place geometry change: re-register the grown bounds
        // and the new frontier.
        self.reindex(slot);
    }

    /// Figure 12 write dataflow. `va` is a line-aligned write-back address
    /// as filtered by the LLC.
    pub fn lookup_write(&mut self, va: u64) -> WriteLookup {
        self.tick += 1;
        let tick = self.tick;
        let Some(slot) = self.covering(va, None) else {
            return WriteLookup::Miss;
        };
        let e = self.slots[slot].as_mut().expect("indexed slot is live");
        e.lru = tick;
        let ordinal = e.line_ordinal(va);

        // Assert1: each cacheline updates at most once per round.
        if e.flipped.contains(&ordinal) {
            self.set(slot, None);
            return WriteLookup::Violation;
        }

        let first = va == e.first_line();
        // Any in-range write opens the round (Figure 12(b): UF==1? N → 1).
        e.updating = true;
        e.flipped.insert(ordinal);
        // Close-on-completion: the round finishes when every bitmap bit
        // has flipped (Assert2 checked affirmatively). The paper checks at
        // the *last address* and invalidates on mismatch; with per-core
        // eviction streams the last address routinely drains before other
        // cores' chunks, so we keep the round open until the bitmap is
        // complete — the same exactly-once guarantee, skew-tolerant
        // (see the fidelity preamble of EXPERIMENTS.md).
        if e.flipped.len() as u64 == e.line_count() {
            e.vn += 1;
            e.flipped.clear();
            e.updating = false;
            let vn = e.vn;
            return WriteLookup::HitEdgeFinish { slot, vn };
        }
        if first {
            return WriteLookup::HitEdgeStart { slot, vn: e.vn + 1 };
        }
        WriteLookup::HitIn { slot, vn: e.vn + 1 }
    }

    /// Inserts a freshly detected entry, first attempting the Figure-11
    /// merges against live entries; evicts the LRU entry if the table is
    /// full. Returns the slot the region now lives in.
    pub fn insert(&mut self, mut entry: MetaEntry) -> usize {
        self.tick += 1;
        entry.lru = self.tick;
        // Reject overlapping coverage: overlapping entries desync the
        // Figure-12 write rounds (flips landing in one entry while the
        // other's bitmap goes stale).
        if let Some(slot) = self.overlap(&entry) {
            return slot;
        }
        // Attempt merges until no entry absorbs the newcomer. Exact
        // (concatenation / row-attach) merges are preferred; the 2-row tile
        // *inference* only fires when no exact merge exists anywhere, so
        // unrelated equal-length entries are not paired speculatively.
        loop {
            let mut absorbed = false;
            for allow_inference in [false, true] {
                for slot in 0..self.slots.len() {
                    let Some(existing) = self.slots[slot].as_ref() else {
                        continue;
                    };
                    if let Some(merged) = try_merge(existing, &entry, allow_inference) {
                        // Remove the absorber and continue merging the
                        // result — chains of row entries collapse into one
                        // 2-D region.
                        self.set(slot, None);
                        entry = merged;
                        entry.lru = self.tick;
                        absorbed = true;
                        break;
                    }
                }
                if absorbed {
                    break;
                }
            }
            if !absorbed {
                break;
            }
        }
        // Occupancy pressure: compact the table by merging adjacent
        // existing entries before resorting to eviction ("merge a few
        // recently updated entries", §4.2 — different cores' fragments of
        // one tensor are merged with each other, not only with newcomers).
        if self.live >= self.slots.len() * 7 / 8 {
            self.compact();
        }
        let slot = self
            .slots
            .iter()
            .position(|s| s.is_none())
            .unwrap_or_else(|| {
                self.slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.as_ref().map_or(0, |e| e.lru))
                    .map(|(i, _)| i)
                    .expect("non-empty table")
            });
        self.set(slot, Some(entry));
        slot
    }

    /// Pairwise-merges existing entries (exact merges only — no
    /// speculative tile inference between settled entries). Runs until a
    /// fixed point.
    pub fn compact(&mut self) {
        loop {
            let mut merged_any = false;
            'outer: for i in 0..self.slots.len() {
                if self.slots[i].is_none() {
                    continue;
                }
                for j in (i + 1)..self.slots.len() {
                    let (Some(a), Some(b)) = (&self.slots[i], &self.slots[j]) else {
                        continue;
                    };
                    if let Some(m) = try_merge(a, b, false) {
                        let mut m = m;
                        m.lru = self.tick;
                        self.set(i, Some(m));
                        self.set(j, None);
                        merged_any = true;
                        continue 'outer;
                    }
                }
            }
            if !merged_any {
                break;
            }
        }
    }
}

/// The slot scans the index replaced, kept as its test oracle.
#[cfg(test)]
impl MetaTable {
    /// The lowest live slot whose entry contains `va`, other than `skip`.
    fn scan_covering(&self, va: u64, skip: Option<usize>) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .position(|(i, s)| Some(i) != skip && s.as_ref().is_some_and(|e| e.contains(va)))
    }

    /// The lowest live slot whose frontier is `va`.
    fn scan_frontier(&self, va: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|e| e.frontier() == Some(va)))
    }

    /// `insert`'s overlap check as a scan over every slot per line.
    fn scan_overlap(&self, entry: &MetaEntry) -> Option<usize> {
        if entry.line_count() <= 256 {
            entry
                .covered_lines()
                .find_map(|line| self.scan_covering(line, None))
        } else {
            self.slots.iter().position(|s| {
                s.as_ref().is_some_and(|e| {
                    e.contains(entry.first_line()) && e.contains(entry.last_line())
                })
            })
        }
    }

    /// `confirm_boundary`'s conflict check as a scan over every slot.
    fn scan_speculative_conflict(&self, slot: usize) -> bool {
        match self.slots.get(slot).and_then(|s| s.as_ref()) {
            Some(e) => match e.shape {
                Shape::TwoD {
                    row_lines,
                    pitch,
                    rows,
                } => (1..rows).any(|r| {
                    let line = e.base + r * pitch + row_lines * LINE_BYTES;
                    self.scan_covering(line, Some(slot)).is_some()
                }),
                Shape::OneD { .. } => false,
            },
            None => false,
        }
    }
}

/// Ceiling on how sparse an inferred 2-D tile may be: the pitch may exceed
/// the covered row span by at most this factor (a 256×256 matrix tiled
/// 64×64 has ratio 4). Prevents pairing unrelated distant streams.
const MAX_PITCH_RATIO: u64 = 32;

/// Largest row (in lines) eligible for 2-row tile inference — freshly
/// detected tile rows are filter-threshold sized; long streaming runs are
/// whole tensors and must not pair speculatively.
const MAX_INFERENCE_ROW_LINES: u64 = 64;

/// Figure 11: merging two detected regions into a larger one. Returns the
/// merged entry if `a` and `b` are compatible (same stride and VN, and
/// geometrically adjacent in one of the allowed directions).
/// `allow_inference` additionally permits the speculative 2-row tile
/// inference of Figure 11(b).
fn try_merge(a: &MetaEntry, b: &MetaEntry, allow_inference: bool) -> Option<MetaEntry> {
    if a.vn != b.vn || a.is_updating() || b.is_updating() {
        return None;
    }
    match (a.shape, b.shape) {
        // 1D ∥ 1D, same stride, end-to-end: concatenate.
        (
            Shape::OneD {
                lines: la,
                stride: sa,
            },
            Shape::OneD {
                lines: lb,
                stride: sb,
            },
        ) if sa == sb => {
            if a.base + la * sa == b.base {
                return Some(MetaEntry::new_1d(a.base, la + lb, sa, a.vn));
            }
            if b.base + lb * sb == a.base {
                return Some(MetaEntry::new_1d(b.base, la + lb, sa, a.vn));
            }
            // 1D + 1D as two rows of a tile (equal length, non-adjacent):
            // infer the pitch (Figure 11b).
            if allow_inference && la == lb && la <= MAX_INFERENCE_ROW_LINES && sa == LINE_BYTES {
                let (lo, hi) = if a.base < b.base { (a, b) } else { (b, a) };
                let pitch = hi.base - lo.base;
                let span = la * sa;
                if pitch > span && pitch <= span * MAX_PITCH_RATIO {
                    let mut m = MetaEntry::new_1d(lo.base, la, sa, a.vn);
                    m.shape = Shape::TwoD {
                        row_lines: la,
                        pitch,
                        rows: 2,
                    };
                    return Some(m);
                }
            }
            None
        }
        // 2D + next/previous row.
        (
            Shape::TwoD {
                row_lines,
                pitch,
                rows,
            },
            Shape::OneD { lines, stride },
        ) if stride == LINE_BYTES && lines == row_lines => merge_row(a, b, row_lines, pitch, rows),
        (
            Shape::OneD { lines, stride },
            Shape::TwoD {
                row_lines,
                pitch,
                rows,
            },
        ) if stride == LINE_BYTES && lines == row_lines => merge_row(b, a, row_lines, pitch, rows),
        // 2D + 2D: stacked vertically or side-by-side horizontally
        // (the "4 directions for 2D tensors" of Figure 11).
        (
            Shape::TwoD {
                row_lines: rla,
                pitch: pa,
                rows: ra,
            },
            Shape::TwoD {
                row_lines: rlb,
                pitch: pb,
                rows: rb,
            },
        ) if pa == pb => {
            let mk = |base: u64, row_lines: u64, rows: u64, src: &MetaEntry| {
                let mut m = src.clone();
                m.base = base;
                m.shape = Shape::TwoD {
                    row_lines,
                    pitch: pa,
                    rows,
                };
                m.flipped.clear();
                m.updating = false;
                m
            };
            if rla == rlb {
                // Vertical stacking.
                if a.base + ra * pa == b.base {
                    return Some(mk(a.base, rla, ra + rb, a));
                }
                if b.base + rb * pb == a.base {
                    return Some(mk(b.base, rla, ra + rb, b));
                }
            }
            if ra == rb {
                // Horizontal adjacency: rows concatenate within the pitch.
                if b.base == a.base + rla * LINE_BYTES && (rla + rlb) * LINE_BYTES <= pa {
                    return Some(mk(a.base, rla + rlb, ra, a));
                }
                if a.base == b.base + rlb * LINE_BYTES && (rla + rlb) * LINE_BYTES <= pa {
                    return Some(mk(b.base, rla + rlb, ra, b));
                }
            }
            None
        }
        _ => None,
    }
}

/// Attaches a row entry `row` to a 2-D region `tile` (above or below).
fn merge_row(
    tile: &MetaEntry,
    row: &MetaEntry,
    row_lines: u64,
    pitch: u64,
    rows: u64,
) -> Option<MetaEntry> {
    if row.base == tile.base + rows * pitch {
        let mut m = tile.clone();
        m.shape = Shape::TwoD {
            row_lines,
            pitch,
            rows: rows + 1,
        };
        m.flipped.clear();
        m.updating = false;
        Some(m)
    } else if row.base + pitch == tile.base {
        let mut m = tile.clone();
        m.base = row.base;
        m.shape = Shape::TwoD {
            row_lines,
            pitch,
            rows: rows + 1,
        };
        m.flipped.clear();
        m.updating = false;
        Some(m)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn live(t: &MetaTable) -> impl Iterator<Item = &MetaEntry> {
        t.slots.iter().flatten()
    }

    /// Base of the 64-page window the property's entries land in, so that
    /// they meet, merge and overlap often.
    const WINDOW_BASE: u64 = 0x10_0000;
    const WINDOW_LINES: u64 = 64 * PAGE_BYTES / LINE_BYTES;

    /// Every live entry's first line, last line and frontier, each also
    /// ±1 line and ±1 page.
    fn probes(t: &MetaTable) -> Vec<u64> {
        let mut edges = Vec::new();
        for e in live(t) {
            edges.push(e.first_line());
            if e.line_count() > 0 {
                edges.push(e.last_line());
            }
            edges.extend(e.frontier());
        }
        edges
            .into_iter()
            .flat_map(|va| {
                [
                    va,
                    va + LINE_BYTES,
                    va - LINE_BYTES,
                    va + PAGE_BYTES,
                    va - PAGE_BYTES,
                ]
            })
            .collect()
    }

    /// The index answers what the slot scans answer, at `va` and at every
    /// probe address, and the live count matches.
    fn check_index(t: &MetaTable, va: u64) -> Result<(), TestCaseError> {
        for probe in probes(t).into_iter().chain([va]) {
            prop_assert_eq!(
                t.covering(probe, None),
                t.scan_covering(probe, None),
                "covering slot at {:#x}",
                probe
            );
            prop_assert_eq!(
                t.at_frontier(probe),
                t.scan_frontier(probe),
                "frontier slot at {:#x}",
                probe
            );
        }
        prop_assert_eq!(t.live, live(t).count());
        Ok(())
    }

    /// An address for a lookup: a probe of a live entry, or any line of
    /// the window.
    fn pick_address(t: &MetaTable, a: u64) -> u64 {
        let probes = probes(t);
        if a.is_multiple_of(4) || probes.is_empty() {
            WINDOW_BASE + (a >> 2) % WINDOW_LINES * LINE_BYTES
        } else {
            probes[(a >> 2) as usize % probes.len()]
        }
    }

    /// The entry an insert operation adds. `kind` picks a dense or strided
    /// filter-sized 1-D run, a 2-D tile (pitch within a page, or crossing
    /// pages), a >256-line run partially overlapping a live entry, or a
    /// tile covering no line.
    fn arbitrary_entry(t: &MetaTable, kind: u8, a: u64, b: u64) -> MetaEntry {
        let base = WINDOW_BASE + a % WINDOW_LINES * LINE_BYTES;
        // Mostly one VN, so that entries merge.
        let vn = u64::from(b.is_multiple_of(8));
        let small = 4 + (b >> 3) % 5;
        match kind {
            0 => MetaEntry::new_1d(base, small, LINE_BYTES, vn),
            1 => MetaEntry::new_1d(base, small, LINE_BYTES * (2 + (b >> 6) % 7), vn),
            2 => {
                let row_lines = 1 + (b >> 6) % 8;
                let pitch = if b & (1 << 9) == 0 {
                    // Growable up to the pitch, where it collapses to 1-D.
                    (row_lines + 1 + (b >> 10) % 4) * LINE_BYTES
                } else {
                    PAGE_BYTES / 2 + (b >> 10) % 160 * LINE_BYTES
                };
                let mut e = MetaEntry::new_1d(base, 1, LINE_BYTES, vn);
                e.shape = Shape::TwoD {
                    row_lines,
                    pitch,
                    rows: 2 + (b >> 20) % 5,
                };
                e
            }
            3 => {
                // Starts inside, or at most 8 lines before, a live entry:
                // unless one entry contains both of its ends, it is
                // inserted over that entry's coverage.
                let lines = 257 + (b >> 6) % 400;
                let anchor = live(t)
                    .nth((a >> 32) as usize % t.live.max(1))
                    .map_or(base, MetaEntry::first_line);
                let start = anchor + (b >> 20) % 64 * LINE_BYTES;
                MetaEntry::new_1d(start.saturating_sub(8 * LINE_BYTES), lines, LINE_BYTES, vn)
            }
            _ => {
                // A tile of empty rows covers no line (`new_1d` refuses
                // zero lines); its frontier is its base, so it can still
                // be hit there and grow.
                let desc = TensorDesc {
                    base,
                    bytes: 0,
                    rows: 2 + (b >> 6) % 3,
                    row_bytes: 0,
                    pitch: (1 + (b >> 8) % 3) * LINE_BYTES,
                };
                MetaEntry::from_desc(&desc, vn)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::ci())]
        /// The page and frontier index returns the slot the slot scans
        /// return, through random inserts (1-D, strided, 2-D, >256-line
        /// overlapping and zero-line entries), reads with boundary
        /// confirmations (VN matched or not), writes (including Assert1
        /// violations) and compactions, on tables small enough that LRU
        /// eviction and pressure compaction run.
        #[test]
        fn index_matches_the_slot_scans(
            capacity in 4usize..=32,
            ops in proptest::collection::vec((0u8..12, any::<u64>(), any::<u64>()), 1..160),
        ) {
            let mut t = MetaTable::new(capacity);
            for (op, a, b) in ops {
                match op {
                    0..=4 => {
                        let e = arbitrary_entry(&t, op, a, b);
                        check_index(&t, e.first_line())?;
                        prop_assert_eq!(t.overlap(&e), t.scan_overlap(&e));
                        t.insert(e);
                    }
                    5..=8 => {
                        let va = pick_address(&t, a);
                        check_index(&t, va)?;
                        if let ReadLookup::HitBoundary { slot, .. } = t.lookup_read(va) {
                            prop_assert_eq!(
                                t.speculative_conflict(slot),
                                t.scan_speculative_conflict(slot)
                            );
                            t.confirm_boundary(slot, va, b % 4 != 0);
                        }
                    }
                    9 | 10 => {
                        let va = pick_address(&t, a);
                        check_index(&t, va)?;
                        t.lookup_write(va);
                    }
                    _ => t.compact(),
                }
            }
            check_index(&t, WINDOW_BASE)?;
        }
    }

    #[test]
    fn hit_in_and_boundary() {
        let mut t = MetaTable::new(8);
        t.insert(MetaEntry::new_1d(0, 4, 64, 7));
        match t.lookup_read(64) {
            ReadLookup::HitIn { vn, .. } => assert_eq!(vn, 7),
            other => panic!("expected hit_in, got {other:?}"),
        }
        assert!(matches!(t.lookup_read(256), ReadLookup::HitBoundary { .. }));
        assert!(matches!(t.lookup_read(512), ReadLookup::Miss));
        assert!(
            matches!(t.lookup_read(32), ReadLookup::Miss),
            "unaligned offset"
        );
    }

    #[test]
    fn boundary_extension_grows_coverage() {
        let mut t = MetaTable::new(8);
        let slot = t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        if let ReadLookup::HitBoundary { slot: s, .. } = t.lookup_read(256) {
            assert_eq!(s, slot);
            t.confirm_boundary(s, 256, true);
        } else {
            panic!("expected boundary");
        }
        assert!(matches!(t.lookup_read(256), ReadLookup::HitIn { .. }));
    }

    #[test]
    fn rejected_boundary_does_not_extend() {
        let mut t = MetaTable::new(8);
        let slot = t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        t.confirm_boundary(slot, 256, false);
        assert!(matches!(t.lookup_read(256), ReadLookup::HitBoundary { .. }));
    }

    #[test]
    fn write_round_increments_vn_once() {
        let mut t = MetaTable::new(8);
        let slot = t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        assert!(matches!(
            t.lookup_write(0),
            WriteLookup::HitEdgeStart { vn: 1, .. }
        ));
        assert!(matches!(
            t.lookup_write(64),
            WriteLookup::HitIn { vn: 1, .. }
        ));
        assert!(matches!(t.lookup_write(128), WriteLookup::HitIn { .. }));
        match t.lookup_write(192) {
            WriteLookup::HitEdgeFinish { vn, .. } => assert_eq!(vn, 1),
            other => panic!("expected finish, got {other:?}"),
        }
        assert_eq!(t.entry(slot).unwrap().vn, 1);
        assert!(!t.entry(slot).unwrap().is_updating());
    }

    #[test]
    fn double_write_violates_assert1() {
        let mut t = MetaTable::new(8);
        t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        t.lookup_write(0);
        t.lookup_write(64);
        assert_eq!(t.lookup_write(64), WriteLookup::Violation);
        assert_eq!(live(&t).count(), 0, "entry invalidated");
    }

    #[test]
    fn early_last_address_keeps_round_open() {
        // Close-on-completion: reaching the last address before the other
        // lines does not finish (or invalidate) the round — the VN bumps
        // only when the bitmap completes.
        let mut t = MetaTable::new(8);
        let slot = t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        t.lookup_write(0);
        assert!(matches!(t.lookup_write(192), WriteLookup::HitIn { .. }));
        assert_eq!(t.entry(slot).unwrap().vn, 0, "round still open");
        t.lookup_write(64);
        assert!(matches!(
            t.lookup_write(128),
            WriteLookup::HitEdgeFinish { vn: 1, .. }
        ));
    }

    #[test]
    fn read_vn_tracks_partial_update() {
        let mut t = MetaTable::new(8);
        let slot = t.insert(MetaEntry::new_1d(0, 4, 64, 5));
        t.lookup_write(0); // flips line 0, vn now logically 6 for line 0
        match t.lookup_read(0) {
            ReadLookup::HitIn { vn, .. } => assert_eq!(vn, 6),
            other => panic!("{other:?}"),
        }
        match t.lookup_read(64) {
            ReadLookup::HitIn { vn, .. } => assert_eq!(vn, 5),
            other => panic!("{other:?}"),
        }
        let _ = slot;
    }

    #[test]
    fn adjacent_1d_entries_merge() {
        let mut t = MetaTable::new(8);
        t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        t.insert(MetaEntry::new_1d(256, 4, 64, 0));
        assert_eq!(live(&t).count(), 1);
        let e = live(&t).next().unwrap();
        assert_eq!(e.line_count(), 8);
        assert!(e.contains(448));
    }

    #[test]
    fn prepend_merge_works() {
        let mut t = MetaTable::new(8);
        t.insert(MetaEntry::new_1d(256, 4, 64, 0));
        t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        assert_eq!(live(&t).count(), 1);
        assert_eq!(live(&t).next().unwrap().base, 0);
    }

    #[test]
    fn different_vn_does_not_merge() {
        let mut t = MetaTable::new(8);
        t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        t.insert(MetaEntry::new_1d(256, 4, 64, 1));
        assert_eq!(live(&t).count(), 2);
    }

    #[test]
    fn rows_merge_into_2d_then_extend() {
        let mut t = MetaTable::new(8);
        // Two 4-line rows with pitch 1024: infer a 2-row tile.
        t.insert(MetaEntry::new_1d(0, 4, 64, 0));
        t.insert(MetaEntry::new_1d(1024, 4, 64, 0));
        assert_eq!(live(&t).count(), 1);
        let e = live(&t).next().unwrap();
        assert_eq!(
            e.shape,
            Shape::TwoD {
                row_lines: 4,
                pitch: 1024,
                rows: 2
            }
        );
        // Third row extends the tile.
        t.insert(MetaEntry::new_1d(2048, 4, 64, 0));
        let e = live(&t).next().unwrap();
        assert!(matches!(e.shape, Shape::TwoD { rows: 3, .. }));
        assert!(e.contains(2048 + 128));
        assert!(!e.contains(512), "gap between rows not covered");
    }

    #[test]
    fn chain_merge_collapses_multiple_entries() {
        let mut t = MetaTable::new(8);
        // Unequal lengths so the speculative 2-row inference stays out of
        // the way; the bridging insert cascades across both neighbours.
        t.insert(MetaEntry::new_1d(0, 2, 64, 0));
        t.insert(MetaEntry::new_1d(192, 1, 64, 0));
        t.insert(MetaEntry::new_1d(128, 1, 64, 0));
        assert_eq!(live(&t).count(), 1);
        assert_eq!(live(&t).next().unwrap().line_count(), 4);
    }

    #[test]
    fn horizontal_2d_merge() {
        let mut t = MetaTable::new(8);
        // Two 4-line × 4-row tiles side by side under a 1024 B pitch.
        let mut a = MetaEntry::new_1d(0, 4, 64, 0);
        a.shape = Shape::TwoD {
            row_lines: 4,
            pitch: 1024,
            rows: 4,
        };
        let mut b = MetaEntry::new_1d(256, 4, 64, 0);
        b.shape = Shape::TwoD {
            row_lines: 4,
            pitch: 1024,
            rows: 4,
        };
        t.insert(a);
        t.insert(b);
        assert_eq!(live(&t).count(), 1);
        let e = live(&t).next().unwrap();
        assert_eq!(
            e.shape,
            Shape::TwoD {
                row_lines: 8,
                pitch: 1024,
                rows: 4
            }
        );
        assert!(e.contains(256 + 1024));
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = MetaTable::new(2);
        t.insert(MetaEntry::new_1d(0, 2, 64, 0));
        t.insert(MetaEntry::new_1d(0x10000, 2, 64, 1));
        // Touch the first entry so the second is LRU.
        let _ = t.lookup_read(0);
        t.insert(MetaEntry::new_1d(0x20000, 2, 64, 2));
        assert_eq!(live(&t).count(), 2);
        assert!(
            live(&t).find(|e| e.contains(0)).is_some(),
            "recently used survives"
        );
        assert!(
            live(&t).find(|e| e.contains(0x10000)).is_none(),
            "LRU evicted"
        );
    }

    #[test]
    fn from_desc_covers_2d() {
        let d = TensorDesc {
            base: 0,
            bytes: 3 * 128,
            rows: 3,
            row_bytes: 128,
            pitch: 512,
        };
        let e = MetaEntry::from_desc(&d, 4);
        assert!(e.contains(512));
        assert!(e.contains(64));
        assert!(!e.contains(128));
        assert_eq!(e.line_count(), 6);
    }

    #[test]
    fn update_round_on_2d_entry() {
        let mut t = MetaTable::new(4);
        let d = TensorDesc {
            base: 0,
            bytes: 2 * 128,
            rows: 2,
            row_bytes: 128,
            pitch: 512,
        };
        t.insert(MetaEntry::from_desc(&d, 0));
        assert!(matches!(
            t.lookup_write(0),
            WriteLookup::HitEdgeStart { .. }
        ));
        assert!(matches!(t.lookup_write(64), WriteLookup::HitIn { .. }));
        assert!(matches!(t.lookup_write(512), WriteLookup::HitIn { .. }));
        assert!(matches!(
            t.lookup_write(576),
            WriteLookup::HitEdgeFinish { vn: 1, .. }
        ));
    }
}
