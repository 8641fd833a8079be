//! Per-request KV caches as first-class tensors with explicit residency:
//! NPU HBM (decode reads them at GDDR bandwidth) or CPU DRAM (offloaded —
//! they must travel back over the CPU↔NPU link, paying the mode's
//! transfer protocol, before the request can decode again).
//!
//! This is the serving-side analogue of the training system's gradient /
//! weight streams: the tensors are per-request instead of per-model, and
//! they migrate under memory pressure instead of once per step.

use std::collections::{BTreeMap, BTreeSet};
use tee_sim::StatSet;

/// Where a request's KV cache currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Resident in NPU HBM — decodable.
    Hbm,
    /// Offloaded to CPU DRAM — must be fetched before decoding.
    Dram,
}

/// One request's KV cache.
#[derive(Debug, Clone, Copy)]
struct KvEntry {
    bytes: u64,
    residency: Residency,
    /// Iteration clock of the last schedule — the LRU eviction key.
    last_used: u64,
}

/// The result of reserving HBM residency for one request's KV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReserveOutcome {
    /// Bytes fetched DRAM → HBM (the entry was offloaded).
    pub fetched_bytes: u64,
    /// Bytes other entries offloaded HBM → DRAM to make room.
    pub offloaded_bytes: u64,
}

/// A bounded HBM pool of per-request KV caches with DRAM spill.
///
/// Deterministic by construction: entries live in a `BTreeMap`, eviction
/// order is (last_used, id), and all byte accounting is integer.
#[derive(Debug)]
pub struct KvPool {
    budget: u64,
    hbm_used: u64,
    entries: BTreeMap<u32, KvEntry>,
    clock: u64,
    stats: StatSet,
}

impl KvPool {
    /// Creates a pool with the given HBM byte budget.
    pub fn new(budget: u64) -> Self {
        KvPool {
            budget,
            hbm_used: 0,
            entries: BTreeMap::new(),
            clock: 0,
            stats: StatSet::new("kv_pool"),
        }
    }

    /// Advances the iteration clock (call once per scheduler iteration).
    pub fn tick(&mut self) {
        self.clock += 1;
    }

    /// Occupancy/migration counters (`fetches`, `offloads`,
    /// `fetched_bytes`, `offloaded_bytes`).
    pub fn stats(&self) -> &StatSet {
        &self.stats
    }

    /// Ensures `id`'s KV is HBM-resident at `bytes` (growing it if
    /// needed), evicting least-recently-used unprotected entries to DRAM
    /// to make room. Returns `None` — leaving all residencies untouched —
    /// when the footprint cannot fit, unless `force` is set (the scheduler
    /// forces its highest-priority request so progress is guaranteed even
    /// if one request's KV alone exceeds the budget).
    pub fn reserve(
        &mut self,
        id: u32,
        bytes: u64,
        protected: &BTreeSet<u32>,
        force: bool,
    ) -> Option<ReserveOutcome> {
        let is_new = !self.entries.contains_key(&id);
        let entry = *self.entries.entry(id).or_insert(KvEntry {
            bytes: 0,
            residency: Residency::Dram,
            last_used: self.clock,
        });
        let old_hbm = match entry.residency {
            Residency::Hbm => entry.bytes,
            Residency::Dram => 0,
        };
        // Plan evictions until the grown entry fits (LRU, oldest first;
        // ties break on the lower id via the BTreeMap order).
        let mut victims: Vec<(u32, u64)> = Vec::new();
        let mut freed = 0u64;
        if self.hbm_used - old_hbm + bytes > self.budget {
            let mut candidates: Vec<(u64, u32, u64)> = self
                .entries
                .iter()
                .filter(|(&k, e)| {
                    k != id && e.residency == Residency::Hbm && !protected.contains(&k)
                })
                .map(|(&k, e)| (e.last_used, k, e.bytes))
                .collect();
            candidates.sort_unstable();
            for (_, k, b) in candidates {
                if self.hbm_used - old_hbm - freed + bytes <= self.budget {
                    break;
                }
                victims.push((k, b));
                freed += b;
            }
            if self.hbm_used - old_hbm - freed + bytes > self.budget && !force {
                if is_new {
                    // A failed reserve must leave the pool untouched — drop
                    // the empty entry the lookup just materialized.
                    self.entries.remove(&id);
                }
                return None;
            }
        }
        for (k, b) in &victims {
            let e = self.entries.get_mut(k).expect("victim exists");
            e.residency = Residency::Dram;
            self.hbm_used -= b;
            self.stats.bump("offloads");
            self.stats.add("offloaded_bytes", *b);
        }
        let fetched = match entry.residency {
            Residency::Dram if entry.bytes > 0 => {
                self.stats.bump("fetches");
                self.stats.add("fetched_bytes", entry.bytes);
                entry.bytes
            }
            _ => 0,
        };
        let e = self.entries.get_mut(&id).expect("entry exists");
        e.bytes = bytes;
        e.residency = Residency::Hbm;
        e.last_used = self.clock;
        self.hbm_used = self.hbm_used - old_hbm + bytes;
        Some(ReserveOutcome {
            fetched_bytes: fetched,
            offloaded_bytes: victims.iter().map(|(_, b)| *b).sum(),
        })
    }

    /// Releases `id`'s KV entirely (request completed). Returns the bytes
    /// freed from HBM.
    pub fn release(&mut self, id: u32) -> u64 {
        match self.entries.remove(&id) {
            Some(e) if e.residency == Residency::Hbm => {
                self.hbm_used -= e.bytes;
                e.bytes
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residency(p: &KvPool, id: u32) -> Option<Residency> {
        p.entries.get(&id).map(|e| e.residency)
    }

    fn protect(ids: &[u32]) -> BTreeSet<u32> {
        ids.iter().copied().collect()
    }

    #[test]
    fn reserve_grows_in_place() {
        let mut p = KvPool::new(1000);
        assert_eq!(
            p.reserve(1, 100, &protect(&[]), false),
            Some(ReserveOutcome::default())
        );
        assert_eq!(
            p.reserve(1, 150, &protect(&[1]), false).unwrap(),
            ReserveOutcome::default()
        );
        assert_eq!(p.hbm_used, 150);
        assert_eq!(residency(&p, 1), Some(Residency::Hbm));
        assert_eq!(p.entries[&1].bytes, 150);
    }

    #[test]
    fn eviction_is_lru_and_pays_offload() {
        let mut p = KvPool::new(300);
        p.reserve(1, 100, &protect(&[]), false).unwrap();
        p.tick();
        p.reserve(2, 100, &protect(&[]), false).unwrap();
        p.tick();
        p.reserve(3, 100, &protect(&[]), false).unwrap();
        p.tick();
        // Touch 1 so 2 becomes the LRU victim.
        p.reserve(1, 100, &protect(&[]), false).unwrap();
        let out = p.reserve(4, 100, &protect(&[]), false).unwrap();
        assert_eq!(out.offloaded_bytes, 100);
        assert_eq!(residency(&p, 2), Some(Residency::Dram));
        assert_eq!(residency(&p, 1), Some(Residency::Hbm));
        assert_eq!(p.stats().get("offloads"), 1);
    }

    #[test]
    fn fetch_restores_offloaded_entry() {
        let mut p = KvPool::new(200);
        p.reserve(1, 150, &protect(&[]), false).unwrap();
        p.tick();
        p.reserve(2, 150, &protect(&[]), false).unwrap(); // evicts 1
        assert_eq!(residency(&p, 1), Some(Residency::Dram));
        p.tick();
        let out = p.reserve(1, 160, &protect(&[]), false).unwrap();
        assert_eq!(out.fetched_bytes, 150, "old bytes travel back");
        assert_eq!(out.offloaded_bytes, 150, "2 got evicted in turn");
        assert_eq!(p.entries[&1].bytes, 160);
        assert_eq!(p.stats().get("fetched_bytes"), 150);
    }

    #[test]
    fn protected_entries_never_evict_and_reserve_can_fail() {
        let mut p = KvPool::new(200);
        p.reserve(1, 150, &protect(&[]), false).unwrap();
        let before = p.hbm_used;
        assert_eq!(p.reserve(2, 100, &protect(&[1]), false), None);
        assert_eq!(p.hbm_used, before, "failed reserve changes nothing");
        assert_eq!(
            residency(&p, 2),
            None,
            "a failed reserve must not materialize a phantom entry"
        );
        assert_eq!(residency(&p, 1), Some(Residency::Hbm));
        // Forcing over-budget succeeds for the scheduler's head request.
        let out = p.reserve(2, 100, &protect(&[1]), true).unwrap();
        assert_eq!(out, ReserveOutcome::default());
        assert!(p.hbm_used > p.budget);
    }

    #[test]
    fn release_frees_hbm_only_when_resident() {
        let mut p = KvPool::new(200);
        p.reserve(1, 150, &protect(&[]), false).unwrap();
        p.tick();
        p.reserve(2, 150, &protect(&[]), false).unwrap(); // 1 → DRAM
        assert_eq!(p.release(1), 0, "offloaded KV frees no HBM");
        assert_eq!(p.release(2), 150);
        assert_eq!(p.hbm_used, 0);
        assert_eq!(p.release(99), 0, "unknown id is a no-op");
    }
}
