//! The SGX-like Memory Encryption Engine baseline (§2.2, §5.1).
//!
//! Per 64 B cacheline the MEE keeps a 56-bit VN and a MAC in DRAM, with an
//! 8-ary Merkle tree protecting the VNs and a 32 KB on-chip metadata cache
//! in front of all of it. Every LLC miss therefore costs up to
//! `1 (data) + 1 (VN) + walk (Merkle) + 1 (MAC)` DRAM accesses — the
//! metadata traffic that turns Adam memory-bound in Figure 3.
//!
//! The same engine also serves TensorTEE and SoftVN runs through
//! [`VnPath::OnChip`]/[`VnPath::Background`], which skip the VN fetch and
//! Merkle walk exactly as the Meta Table does.

use crate::config::CpuConfig;
use tee_crypto::ctr::LINE_BYTES as CRYPTO_LINE;
use tee_crypto::mac::{line_mac, MacKey, MacTag};
use tee_crypto::{CtrEngine, Key, LineCounter, VnMerkleTree};
use tee_mem::mc::RequestClass;
use tee_mem::metadata::MetaKind;
use tee_mem::store::LineData;
use tee_mem::{MemoryController, MetadataCache, PhysMem};
use tee_sim::util::IntMap;
use tee_sim::Time;

/// How the VN for a request is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VnPath {
    /// SGX baseline: fetch the VN from DRAM and verify it through the
    /// Merkle tree (both on the critical path, metadata-cache filtered).
    OffChip,
    /// The VN is already on-chip (SoftVN hit): no VN fetch, no Merkle
    /// walk — but the per-line MAC is still fetched from DRAM.
    OnChip(u64),
    /// TensorTEE `hit_in`: VN *and* MAC are both on-chip at tensor
    /// granularity (the Meta Table entry holds the XOR tensor MAC), so no
    /// metadata DRAM traffic at all.
    OnChipTensorMac(u64),
    /// Meta Table `hit_boundary`: the VN is *assumed* on-chip and used
    /// immediately, while a confirming VN fetch is issued off the critical
    /// path (bandwidth cost only). MAC handling is tensor-granularity.
    Background(u64),
}

impl VnPath {
    /// Whether the per-line MAC must be fetched from/stored to DRAM.
    fn needs_line_mac(&self) -> bool {
        matches!(self, VnPath::OffChip | VnPath::OnChip(_))
    }
}

/// Integrity failures surfaced by functional verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// Recomputed MAC did not match the stored MAC.
    MacMismatch {
        /// Offending physical line address.
        pa: u64,
    },
    /// Merkle-tree walk found an inconsistent node.
    MerkleViolation {
        /// Tree level of the mismatch.
        level: usize,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::MacMismatch { pa } => write!(f, "MAC mismatch at {pa:#x}"),
            IntegrityError::MerkleViolation { level } => {
                write!(f, "merkle violation at level {level}")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Result of one MEE line operation.
#[derive(Debug, Clone)]
pub struct LineOp {
    /// Completion time (data usable / write retired).
    pub done: Time,
    /// Decrypted plaintext (functional mode only). Read only by tests
    /// (`functional_round_trip` checks decryption against the plaintext).
    pub data: Option<LineData>,
    /// Verification outcome (always `Ok` in count-only mode).
    pub integrity: Result<(), IntegrityError>,
}

/// The memory-encryption engine.
///
/// In *functional* mode it really encrypts/decrypts the [`PhysMem`] image
/// and maintains a live Merkle tree; in count-only mode it models the same
/// timing and traffic without touching data.
#[derive(Debug)]
pub struct SgxMee {
    functional: bool,
    protected_lines: usize,
    merkle_depth: usize,
    aes_latency: Time,
    mac_latency: Time,
    ctr: CtrEngine,
    mac_key: MacKey,
    tree: Option<VnMerkleTree>,
    leaf_map: IntMap<u64, usize>,
    next_leaf: usize,
    macs: IntMap<u64, MacTag>,
    /// Count-only mode: lightweight per-line VN mirror (the functional
    /// tree serves this in functional mode). TenAnalyzer's detection
    /// depends on observing real off-chip VNs.
    plain_vns: IntMap<u64, u64>,
    meta_cache: MetadataCache,
    bitmap_pending: u64,
}

/// Synthetic DRAM regions for metadata traffic (distinct from data PAs).
const VN_REGION: u64 = 0x4000_0000_0000;
const MAC_REGION: u64 = 0x5000_0000_0000;
const MERKLE_REGION: u64 = 0x6000_0000_0000;

impl SgxMee {
    /// Builds an MEE from the CPU configuration and an enclave key.
    pub fn new(cfg: &CpuConfig, key: Key) -> Self {
        let clock = cfg.clock();
        let mac_key = MacKey::from(key);
        let tree = if cfg.functional_crypto {
            Some(VnMerkleTree::new(cfg.protected_lines, mac_key))
        } else {
            None
        };
        let merkle_depth = Self::depth_for(cfg.protected_lines);
        SgxMee {
            functional: cfg.functional_crypto,
            protected_lines: cfg.protected_lines,
            merkle_depth,
            aes_latency: clock.cycles_to_time(cfg.aes_latency),
            mac_latency: clock.cycles_to_time(cfg.mac_latency),
            ctr: CtrEngine::new(key.derive("enc")),
            mac_key,
            tree,
            leaf_map: IntMap::default(),
            next_leaf: 0,
            macs: IntMap::default(),
            plain_vns: IntMap::default(),
            meta_cache: MetadataCache::new(cfg.metadata_cache_bytes, 8),
            bitmap_pending: 0,
        }
    }

    fn depth_for(leaves: usize) -> usize {
        let mut depth = 1;
        let mut groups = leaves.div_ceil(8);
        while groups > 1 {
            groups = groups.div_ceil(8);
            depth += 1;
        }
        depth
    }

    /// The current VN of a line (functional mode; 0 if untouched).
    pub fn line_vn(&self, pa: u64) -> u64 {
        match (&self.tree, self.leaf_map.get(&pa)) {
            (Some(t), Some(&leaf)) => t.vn(leaf),
            (None, _) => self.plain_vns.get(&pa).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Adversarial hook: corrupt the stored off-chip VN of `pa` (functional
    /// mode), emulating replaying a stale VN without fixing the tree. Only
    /// the `replay_detected` test calls it.
    pub fn corrupt_off_chip_vn(&mut self, pa: u64, vn: u64) {
        let leaf = self.leaf(pa);
        if let Some(t) = self.tree.as_mut() {
            t.corrupt_leaf(leaf, vn);
        }
    }

    /// Adversarial hook: overwrite the stored MAC for `pa`. Only the
    /// `replay_detected` test calls it.
    pub fn forge_mac(&mut self, pa: u64, tag: MacTag) {
        self.macs.insert(pa, tag);
    }

    /// The stored MAC for a line, if any. Adversarial hook: the
    /// `replay_detected` test captures a stale MAC with it.
    pub fn stored_mac(&self, pa: u64) -> Option<MacTag> {
        self.macs.get(&pa).copied()
    }

    /// Background VN fetch for a request that was served by the on-chip
    /// caches: TenAnalyzer still needs the off-chip VN (detection on a
    /// Meta Table miss, confirmation on a boundary hit). Consumes
    /// metadata bandwidth off the critical path.
    pub fn background_vn_fetch(&mut self, pa: u64, at: Time, mc: &mut MemoryController) {
        let leaf = self.leaf(pa);
        let _ = self.vn_access(leaf, at, mc, false);
    }

    fn leaf(&mut self, pa: u64) -> usize {
        debug_assert_eq!(pa % CRYPTO_LINE as u64, 0);
        if let Some(&l) = self.leaf_map.get(&pa) {
            return l;
        }
        let l = if self.next_leaf < self.protected_lines {
            let l = self.next_leaf;
            self.next_leaf += 1;
            l
        } else {
            assert!(
                !self.functional,
                "protected region exhausted ({} lines)",
                self.protected_lines
            );
            // Count-only mode: wrap (timing aliasing is harmless).
            self.next_leaf += 1;
            (self.next_leaf - 1) % self.protected_lines
        };
        self.leaf_map.insert(pa, l);
        l
    }

    /// Fetches the VN metadata line (cache-filtered); returns completion.
    fn vn_access(&mut self, leaf: usize, at: Time, mc: &mut MemoryController, write: bool) -> Time {
        let hit = if write {
            self.meta_cache.update(MetaKind::Vn, leaf as u64)
        } else {
            self.meta_cache.access(MetaKind::Vn, leaf as u64)
        };
        if hit {
            at
        } else {
            let addr = VN_REGION + (leaf as u64 / 8) * 64;
            mc.request(addr, RequestClass::Metadata, at)
        }
    }

    /// Walks the Merkle tree until a cached (trusted) node is found;
    /// returns the completion time of the last DRAM access on the walk.
    fn merkle_walk(
        &mut self,
        leaf: usize,
        at: Time,
        mc: &mut MemoryController,
        write: bool,
    ) -> Time {
        let mut t = at;
        let mut idx = leaf as u64;
        for level in 0..self.merkle_depth {
            idx /= 8;
            let hit = if write {
                self.meta_cache.update(MetaKind::Merkle(level as u8), idx)
            } else {
                self.meta_cache.access(MetaKind::Merkle(level as u8), idx)
            };
            if hit {
                if !write {
                    // A cached ancestor is already verified; stop early.
                    break;
                }
            } else {
                let addr = MERKLE_REGION + ((level as u64) << 40) + idx * 64;
                t = mc.request(addr, RequestClass::Metadata, t);
            }
        }
        t
    }

    /// Fetches/updates the MAC metadata line; returns completion.
    fn mac_access(
        &mut self,
        leaf: usize,
        at: Time,
        mc: &mut MemoryController,
        write: bool,
    ) -> Time {
        let hit = if write {
            self.meta_cache.update(MetaKind::Mac, leaf as u64)
        } else {
            self.meta_cache.access(MetaKind::Mac, leaf as u64)
        };
        if hit {
            at
        } else {
            let addr = MAC_REGION + (leaf as u64 / 8) * 64;
            mc.request(addr, RequestClass::Metadata, at)
        }
    }

    /// Serves an LLC-miss read of line `pa` issued at `at`.
    pub fn read_line(
        &mut self,
        pa: u64,
        path: VnPath,
        at: Time,
        mc: &mut MemoryController,
        mem: &mut PhysMem,
    ) -> LineOp {
        let leaf = self.leaf(pa);
        let t_data = mc.request(pa, RequestClass::Demand, at);
        let (t_meta, vn, merkle_result) = match path {
            VnPath::OffChip => {
                let t_vn = self.vn_access(leaf, at, mc, false);
                let t_walk = self.merkle_walk(leaf, t_vn, mc, false);
                let (vn, res) = match &self.tree {
                    Some(tree) => (
                        tree.vn(leaf),
                        tree.verify(leaf)
                            .map(|_| ())
                            .map_err(|v| IntegrityError::MerkleViolation { level: v.level }),
                    ),
                    None => (0, Ok(())),
                };
                (t_walk, vn, res)
            }
            VnPath::OnChip(vn) | VnPath::OnChipTensorMac(vn) => (at, vn, Ok(())),
            VnPath::Background(vn) => {
                // Confirming fetch consumes bandwidth but is off the
                // critical path.
                let _ = self.vn_access(leaf, at, mc, false);
                (at, vn, Ok(()))
            }
        };
        let t_mac = if path.needs_line_mac() {
            self.mac_access(leaf, at, mc, false)
        } else {
            // Tensor-granularity MAC lives in the Meta Table entry
            // on-chip; no DRAM access (§4.2/§4.3 unified granularity).
            at
        };

        let (data, mac_result) = if self.functional {
            // Enclave memory is zero-initialized at creation: materialize
            // first-touch lines as encrypted zeros under the current VN.
            if !self.macs.contains_key(&pa) {
                let init_vn = self.tree.as_ref().map_or(0, |t| t.vn(leaf));
                let zeros = [0u8; 64];
                let ct = self
                    .ctr
                    .encrypt_line(&zeros, LineCounter { pa, vn: init_vn });
                mem.write_line(pa, ct);
                self.macs
                    .insert(pa, line_mac(&self.mac_key, &ct, pa, init_vn));
            }
            let ct = mem.read_line(pa);
            let pt = self.ctr.decrypt_line(&ct, LineCounter { pa, vn });
            let expect = self.macs.get(&pa).copied().unwrap_or_default();
            let computed = line_mac(&self.mac_key, &ct, pa, vn);
            let ok = computed == expect;
            (
                Some(pt),
                if ok {
                    Ok(())
                } else {
                    Err(IntegrityError::MacMismatch { pa })
                },
            )
        } else {
            (None, Ok(()))
        };

        let done = t_data.max(t_meta).max(t_mac)
            + match path {
                VnPath::OffChip => self.aes_latency + self.mac_latency,
                // On-chip VN lets the keystream precompute; only the MAC
                // check remains exposed.
                VnPath::OnChip(_) | VnPath::OnChipTensorMac(_) | VnPath::Background(_) => {
                    self.mac_latency
                }
            };
        LineOp {
            done,
            data,
            integrity: merkle_result.and(mac_result),
        }
    }

    /// Retires a write-back of line `pa` issued at `at`.
    ///
    /// For [`VnPath::OffChip`] the off-chip VN is incremented and the
    /// Merkle path updated. For on-chip paths the caller manages the VN
    /// (tensor-granularity); the off-chip VN copy is still kept equivalent
    /// via a background metadata update (bandwidth only).
    pub fn write_line(
        &mut self,
        pa: u64,
        plaintext: Option<&LineData>,
        path: VnPath,
        at: Time,
        mc: &mut MemoryController,
        mem: &mut PhysMem,
    ) -> Time {
        let leaf = self.leaf(pa);
        // Advance the off-chip VN (functional bookkeeping for all paths —
        // the on-chip tensor VN must stay equivalent to per-line VNs).
        let vn = if let Some(tree) = self.tree.as_mut() {
            tree.increment(leaf);
            tree.vn(leaf)
        } else {
            let v = self.plain_vns.entry(pa).or_insert(0);
            *v += 1;
            *v
        };

        let t_data = mc.request(pa, RequestClass::Demand, at);
        let t_meta = match path {
            VnPath::OffChip => {
                let t_vn = self.vn_access(leaf, at, mc, true);
                self.merkle_walk(leaf, t_vn, mc, true)
            }
            VnPath::OnChip(_) | VnPath::OnChipTensorMac(_) | VnPath::Background(_) => {
                // Tensor-granularity writes track per-line updates in the
                // DRAM bitmap (1 bit/line, §4.2): one 64 B metadata line
                // covers 512 data lines, so the equivalence traffic is
                // 1/512 of the SGX per-line VN updates.
                self.bitmap_pending += 1;
                if self.bitmap_pending >= 512 {
                    self.bitmap_pending = 0;
                    let addr = VN_REGION + 0x0800_0000_0000 + (leaf as u64 / 512) * 64;
                    mc.request(addr, RequestClass::Metadata, at);
                }
                at
            }
        };
        let t_mac = if path.needs_line_mac() {
            self.mac_access(leaf, at, mc, true)
        } else {
            at
        };

        if self.functional {
            let pt = plaintext.expect("functional write needs data");
            let ct = self.ctr.encrypt_line(pt, LineCounter { pa, vn });
            mem.write_line(pa, ct);
            self.macs.insert(pa, line_mac(&self.mac_key, &ct, pa, vn));
        }

        t_data.max(t_meta).max(t_mac) + self.aes_latency + self.mac_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tee_mem::DramConfig;

    fn functional_setup() -> (SgxMee, MemoryController, PhysMem) {
        let cfg = CpuConfig {
            functional_crypto: true,
            protected_lines: 1 << 10,
            ..CpuConfig::default()
        };
        let mee = SgxMee::new(&cfg, Key::from_seed(1));
        let mc = MemoryController::new(DramConfig::ddr4_2400_2ch());
        (mee, mc, PhysMem::new())
    }

    #[test]
    fn depth_formula() {
        assert_eq!(SgxMee::depth_for(8), 1);
        assert_eq!(SgxMee::depth_for(64), 2);
        assert_eq!(SgxMee::depth_for(1 << 21), 7);
    }

    #[test]
    fn functional_round_trip() {
        let (mut mee, mut mc, mut mem) = functional_setup();
        let pt = [0x5A; 64];
        mee.write_line(
            0x100,
            Some(&pt),
            VnPath::OffChip,
            Time::ZERO,
            &mut mc,
            &mut mem,
        );
        let op = mee.read_line(0x100, VnPath::OffChip, Time::from_us(1), &mut mc, &mut mem);
        assert_eq!(op.data, Some(pt));
        assert!(op.integrity.is_ok());
        // Ciphertext at rest differs from plaintext.
        assert_ne!(mem.snoop(0x100), pt);
    }

    #[test]
    fn tamper_detected() {
        let (mut mee, mut mc, mut mem) = functional_setup();
        let pt = [7u8; 64];
        mee.write_line(
            0x40,
            Some(&pt),
            VnPath::OffChip,
            Time::ZERO,
            &mut mc,
            &mut mem,
        );
        mem.tamper_byte(0x40, 3, 0xFF);
        let op = mee.read_line(0x40, VnPath::OffChip, Time::from_us(1), &mut mc, &mut mem);
        assert_eq!(op.integrity, Err(IntegrityError::MacMismatch { pa: 0x40 }));
    }

    #[test]
    fn replay_detected() {
        let (mut mee, mut mc, mut mem) = functional_setup();
        let v1 = [1u8; 64];
        let v2 = [2u8; 64];
        mee.write_line(
            0x40,
            Some(&v1),
            VnPath::OffChip,
            Time::ZERO,
            &mut mc,
            &mut mem,
        );
        let stale_ct = mem.capture(0x40);
        let stale_mac = mee.stored_mac(0x40).unwrap();
        mee.write_line(
            0x40,
            Some(&v2),
            VnPath::OffChip,
            Time::from_us(1),
            &mut mc,
            &mut mem,
        );
        // Adversary replays ciphertext + matching stale MAC + stale VN.
        mem.replay(0x40, stale_ct);
        mee.forge_mac(0x40, stale_mac);
        mee.corrupt_off_chip_vn(0x40, 1);
        let op = mee.read_line(0x40, VnPath::OffChip, Time::from_us(2), &mut mc, &mut mem);
        // The Merkle tree catches the stale VN.
        assert!(matches!(
            op.integrity,
            Err(IntegrityError::MerkleViolation { .. })
        ));
    }

    #[test]
    fn onchip_path_skips_vn_traffic() {
        let cfg = CpuConfig {
            functional_crypto: false,
            ..CpuConfig::default()
        };
        let mut mee = SgxMee::new(&cfg, Key::from_seed(2));
        let mut mc = MemoryController::new(DramConfig::ddr4_2400_2ch());
        let mut mem = PhysMem::new();
        for i in 0..64u64 {
            mee.read_line(i * 64, VnPath::OnChip(0), Time::ZERO, &mut mc, &mut mem);
        }
        // No VN or Merkle lines: only the MAC lines are fetched (8 MACs
        // per line, so 8 lines for 64 leaves).
        assert_eq!(mc.metadata(), 8);
    }

    #[test]
    fn offchip_path_generates_metadata_traffic() {
        let cfg = CpuConfig {
            functional_crypto: false,
            ..CpuConfig::default()
        };
        let mut mee = SgxMee::new(&cfg, Key::from_seed(2));
        let mut mc = MemoryController::new(DramConfig::ddr4_2400_2ch());
        let mut mem = PhysMem::new();
        for i in 0..512u64 {
            mee.read_line(i * 64, VnPath::OffChip, Time::ZERO, &mut mc, &mut mem);
        }
        // VN and Merkle lines on top of the 64 MAC lines.
        assert!(mc.metadata() > 512 / 8);
    }

    #[test]
    fn onchip_read_completes_faster() {
        let cfg = CpuConfig {
            functional_crypto: false,
            ..CpuConfig::default()
        };
        let mut mee_off = SgxMee::new(&cfg, Key::from_seed(3));
        let mut mee_on = SgxMee::new(&cfg, Key::from_seed(3));
        let mut mem = PhysMem::new();
        let mut mc1 = MemoryController::new(DramConfig::ddr4_2400_2ch());
        let mut mc2 = MemoryController::new(DramConfig::ddr4_2400_2ch());
        let off = mee_off.read_line(0, VnPath::OffChip, Time::ZERO, &mut mc1, &mut mem);
        let on = mee_on.read_line(0, VnPath::OnChip(0), Time::ZERO, &mut mc2, &mut mem);
        assert!(on.done < off.done);
    }
}
