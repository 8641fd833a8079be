//! 8-ary Bonsai Merkle tree over off-chip version numbers (§2.2).
//!
//! The SGX-like baseline stores per-cacheline VNs in DRAM; their integrity
//! is guaranteed by a Merkle tree whose root lives on-chip (BMT \[72\]: the
//! tree protects only the VNs, MACs protect data directly). Every VN read
//! triggers a leaf-to-root verification walk — the dominant metadata
//! overhead TensorTEE eliminates on the CPU side.
//!
//! This implementation is *functional*: it stores real node tags, so tests
//! can corrupt off-chip state and watch verification fail, and the CPU MEE
//! model counts the per-level accesses for its timing.

use crate::mac::{message_mac, MacKey, MacTag};

/// Tree arity (8-ary, as in the paper's SGX baseline).
pub const ARITY: usize = 8;

/// Error returned when a verification walk meets an inconsistent node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// Level at which the mismatch was found (0 = leaf hash level).
    pub level: usize,
    /// Node index within that level.
    pub index: usize,
}

impl std::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "merkle integrity violation at level {} index {}",
            self.level, self.index
        )
    }
}

impl std::error::Error for IntegrityViolation {}

/// An 8-ary Merkle tree over a flat array of version numbers.
///
/// Level 0 holds the VN leaves; level `k+1` holds MAC tags over groups of
/// eight level-`k` entries; the single top tag is the on-chip root.
///
/// # Example
///
/// ```
/// use tee_crypto::{mac::MacKey, VnMerkleTree};
///
/// let mut tree = VnMerkleTree::new(64, MacKey([1; 16]));
/// tree.increment(5);
/// assert_eq!(tree.vn(5), 1);
/// assert!(tree.verify(5).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct VnMerkleTree {
    key: MacKey,
    /// Leaf VNs.
    vns: Vec<u64>,
    /// hash_levels[0] = tags over leaf groups, …, last = [root].
    hash_levels: Vec<Vec<MacTag>>,
}

impl VnMerkleTree {
    /// Builds a tree over `num_leaves` zero VNs.
    ///
    /// # Panics
    ///
    /// Panics if `num_leaves` is zero.
    pub fn new(num_leaves: usize, key: MacKey) -> Self {
        assert!(num_leaves > 0, "tree needs at least one leaf");
        let vns = vec![0u64; num_leaves];
        let mut tree = VnMerkleTree {
            key,
            vns,
            hash_levels: Vec::new(),
        };
        tree.rebuild();
        tree
    }

    /// Reads a leaf VN (no verification).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn vn(&self, idx: usize) -> u64 {
        self.vns[idx]
    }

    /// The on-chip root tag. Read only by tests (`corrupt_leaf_detected`,
    /// `root_changes_with_updates`, the `merkle_root_sensitivity` proptest).
    pub fn root(&self) -> MacTag {
        *self
            .hash_levels
            .last()
            .and_then(|l| l.first())
            .expect("non-empty tree has a root")
    }

    /// Increments the VN at `idx` (a write-back) and updates the path to
    /// the root. Returns the number of hash levels touched.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn increment(&mut self, idx: usize) -> usize {
        self.vns[idx] += 1;
        self.update_path(idx)
    }

    /// Verifies the leaf-to-root path for `idx`.
    ///
    /// Returns the number of levels walked on success.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityViolation`] when a recomputed group tag does not
    /// match the stored parent tag — i.e. off-chip state was tampered with.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn verify(&self, idx: usize) -> Result<usize, IntegrityViolation> {
        assert!(idx < self.vns.len(), "leaf index out of bounds");
        let mut group = idx / ARITY;
        // Level 0: recompute the tag over the leaf group.
        let computed = self.leaf_group_tag(group);
        if computed != self.hash_levels[0][group] {
            return Err(IntegrityViolation {
                level: 0,
                index: group,
            });
        }
        // Upper levels: recompute each parent from stored children.
        for level in 1..self.hash_levels.len() {
            let parent = group / ARITY;
            let computed = self.inner_group_tag(level - 1, parent);
            if computed != self.hash_levels[level][parent] {
                return Err(IntegrityViolation {
                    level,
                    index: parent,
                });
            }
            group = parent;
        }
        Ok(self.hash_levels.len())
    }

    /// Adversarial hook: overwrite a leaf VN *without* updating hashes,
    /// emulating a physical attack on off-chip VN storage.
    pub fn corrupt_leaf(&mut self, idx: usize, vn: u64) {
        self.vns[idx] = vn;
    }

    /// Adversarial hook: flip bits in a stored interior tag (levels below
    /// the root; the root is on-chip and untouchable). Only tests call it
    /// (`corrupt_inner_node_detected`, the `merkle_interior_corruption`
    /// proptest).
    ///
    /// # Panics
    ///
    /// Panics if targeting the root level or out-of-range indices.
    pub fn corrupt_node(&mut self, level: usize, idx: usize) {
        assert!(
            level + 1 < self.hash_levels.len(),
            "the root is on-chip and cannot be corrupted"
        );
        let t = self.hash_levels[level][idx];
        self.hash_levels[level][idx] = t.xor(MacTag::from_raw(0x1));
    }

    fn rebuild(&mut self) {
        self.hash_levels.clear();
        let groups = self.vns.len().div_ceil(ARITY);
        let mut level: Vec<MacTag> = (0..groups)
            .map(|g| self.leaf_group_tag_of(&self.vns, g))
            .collect();
        self.hash_levels.push(level.clone());
        while level.len() > 1 {
            let next: Vec<MacTag> = (0..level.len().div_ceil(ARITY))
                .map(|g| Self::tag_over(&self.key, &level, g))
                .collect();
            self.hash_levels.push(next.clone());
            level = next;
        }
    }

    fn update_path(&mut self, idx: usize) -> usize {
        let mut group = idx / ARITY;
        self.hash_levels[0][group] = self.leaf_group_tag(group);
        let mut touched = 1;
        for level in 1..self.hash_levels.len() {
            let parent = group / ARITY;
            self.hash_levels[level][parent] = self.inner_group_tag(level - 1, parent);
            group = parent;
            touched += 1;
        }
        touched
    }

    fn leaf_group_tag(&self, group: usize) -> MacTag {
        self.leaf_group_tag_of(&self.vns, group)
    }

    fn leaf_group_tag_of(&self, vns: &[u64], group: usize) -> MacTag {
        let start = group * ARITY;
        let end = (start + ARITY).min(vns.len());
        let mut buf = Vec::with_capacity((end - start) * 8 + 8);
        buf.extend_from_slice(&(group as u64).to_le_bytes());
        for &vn in &vns[start..end] {
            buf.extend_from_slice(&vn.to_le_bytes());
        }
        message_mac(&self.key, &buf)
    }

    fn inner_group_tag(&self, child_level: usize, group: usize) -> MacTag {
        Self::tag_over(&self.key, &self.hash_levels[child_level], group)
    }

    fn tag_over(key: &MacKey, children: &[MacTag], group: usize) -> MacTag {
        let start = group * ARITY;
        let end = (start + ARITY).min(children.len());
        let mut buf = Vec::with_capacity((end - start) * 8 + 8);
        buf.extend_from_slice(&(group as u64).to_le_bytes());
        for tag in &children[start..end] {
            buf.extend_from_slice(&tag.as_u64().to_le_bytes());
        }
        message_mac(key, &buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(leaves: usize) -> VnMerkleTree {
        VnMerkleTree::new(leaves, MacKey([0x42; 16]))
    }

    #[test]
    fn depth_grows_logarithmically() {
        // A write-back touches every hash level once.
        let depth = |leaves| tree(leaves).increment(0);
        assert_eq!(depth(1), 1);
        assert_eq!(depth(8), 1);
        assert_eq!(depth(9), 2);
        assert_eq!(depth(64), 2);
        assert_eq!(depth(65), 3);
        assert_eq!(depth(4096), 4);
    }

    #[test]
    fn fresh_tree_verifies_everywhere() {
        let t = tree(100);
        for i in 0..100 {
            assert!(t.verify(i).is_ok());
        }
    }

    #[test]
    fn increment_keeps_consistency() {
        let mut t = tree(200);
        for i in (0..200).step_by(7) {
            t.increment(i);
        }
        for i in 0..200 {
            assert!(t.verify(i).is_ok(), "leaf {i}");
        }
        assert_eq!(t.vn(7), 1);
        assert_eq!(t.vn(8), 0);
    }

    #[test]
    fn corrupt_leaf_detected() {
        let mut t = tree(64);
        t.increment(10);
        let root_before = t.root();
        t.corrupt_leaf(10, 0); // replay the stale VN
        assert_eq!(t.root(), root_before, "corruption bypasses hash update");
        let err = t.verify(10).unwrap_err();
        assert_eq!(err.level, 0);
        // Unrelated leaves in other groups still verify.
        assert!(t.verify(63).is_ok());
    }

    #[test]
    fn corrupt_inner_node_detected() {
        let mut t = tree(512); // depth 3
        t.corrupt_node(0, 3);
        // Any leaf under that node fails at level 1 (parent mismatch) or 0.
        let err = t.verify(3 * ARITY).unwrap_err();
        assert!(err.level <= 1);
    }

    #[test]
    fn root_changes_with_updates() {
        let mut t = tree(64);
        let r0 = t.root();
        t.increment(0);
        assert_ne!(t.root(), r0);
    }

    #[test]
    fn update_touches_depth_levels() {
        let mut t = tree(4096);
        assert_eq!(t.increment(0), 4);
    }

    #[test]
    #[should_panic]
    fn empty_tree_rejected() {
        let _ = tree(0);
    }

    #[test]
    #[should_panic]
    fn root_cannot_be_corrupted() {
        let mut t = tree(64); // depth 2: level 1 is the root
        t.corrupt_node(1, 0);
    }
}
