//! Property-based tests (proptest) over the core data structures and
//! cryptographic invariants of the reproduction.

use proptest::collection::vec;
use proptest::prelude::*;
use tee_cpu::analyzer::meta_table::{MetaEntry, MetaTable, ReadLookup};
use tee_cpu::tensor::TensorDesc;
use tee_crypto::ctr::LINE_BYTES;
use tee_crypto::mac::{line_mac, MacKey, TensorMac};
use tee_crypto::{CtrEngine, DhKeyPair, Key, LineCounter, VnMerkleTree};
use tee_mem::{Cache, CacheConfig, PageMapper};
use tee_sim::{BandwidthResource, SplitMix64, Time};

proptest! {
    // Shared CI configuration: deterministic per-test seeds, bounded case
    // count, both overridable via PROPTEST_CASES / PROPTEST_RNG_SEED when
    // replaying a regression (see proptest-regressions/README.md).
    #![proptest_config(ProptestConfig::ci())]
    /// CTR encryption round-trips for any plaintext/counter pair.
    #[test]
    fn ctr_round_trip(seed in any::<u64>(), pa in any::<u64>(), vn in any::<u64>(),
                      data in vec(any::<u8>(), LINE_BYTES)) {
        let eng = CtrEngine::new(Key::from_seed(seed));
        let mut line = [0u8; LINE_BYTES];
        line.copy_from_slice(&data);
        let pa = pa & !63;
        let ct = eng.encrypt_line(&line, LineCounter { pa, vn });
        prop_assert_eq!(eng.decrypt_line(&ct, LineCounter { pa, vn }), line);
    }

    /// Changing any single byte of ciphertext changes the line MAC.
    #[test]
    fn mac_detects_any_single_byte_flip(seed in any::<u64>(),
                                        data in vec(any::<u8>(), LINE_BYTES),
                                        idx in 0usize..LINE_BYTES,
                                        flip in 1u8..=255) {
        let key = MacKey(Key::from_seed(seed).0);
        let mut line = [0u8; LINE_BYTES];
        line.copy_from_slice(&data);
        let before = line_mac(&key, &line, 0x40, 1);
        line[idx] ^= flip;
        let after = line_mac(&key, &line, 0x40, 1);
        prop_assert_ne!(before, after);
    }

    /// The tensor MAC is invariant under any permutation of absorb order.
    #[test]
    fn tensor_mac_permutation_invariant(tags in vec(any::<u64>(), 1..64), shuffle_seed in any::<u64>()) {
        let mut fwd = TensorMac::new();
        for &t in &tags {
            fwd.absorb(tee_crypto::MacTag::from_raw(t));
        }
        let mut shuffled = tags.clone();
        let mut rng = SplitMix64::new(shuffle_seed);
        rng.shuffle(&mut shuffled);
        let mut other = TensorMac::new();
        for &t in &shuffled {
            other.absorb(tee_crypto::MacTag::from_raw(t));
        }
        prop_assert_eq!(fwd.tag(), other.tag());
    }

    /// Merkle tree: any sequence of increments keeps every leaf verifiable;
    /// corrupting any leaf afterwards is detected at that leaf.
    #[test]
    fn merkle_consistency(updates in vec(0usize..256, 1..100), corrupt in 0usize..256) {
        let mut tree = VnMerkleTree::new(256, MacKey([7; 16]));
        for &u in &updates {
            tree.increment(u);
        }
        for i in 0..256 {
            prop_assert!(tree.verify(i).is_ok());
        }
        let old = tree.vn(corrupt);
        tree.corrupt_leaf(corrupt, old + 1);
        prop_assert!(tree.verify(corrupt).is_err());
    }

    /// Diffie–Hellman always agrees for any pair of nonzero secrets.
    #[test]
    fn dh_agrees(a in 1u64.., b in 1u64..) {
        let ka = DhKeyPair::from_secret(a);
        let kb = DhKeyPair::from_secret(b);
        prop_assert_eq!(ka.shared_key(kb.public()), kb.shared_key(ka.public()));
    }

    /// Page mapping preserves page offsets and is stable.
    #[test]
    fn page_mapper_offsets(seed in any::<u64>(), vas in vec(0u64..(1 << 40), 1..50)) {
        let mut m = PageMapper::new(seed);
        for &va in &vas {
            let pa = m.translate(va);
            prop_assert_eq!(pa % 4096, va % 4096);
            prop_assert_eq!(m.translate(va), pa);
        }
    }

    /// A cache never reports a dirty victim it did not previously admit as
    /// a write, and re-accessing any line immediately after access hits.
    #[test]
    fn cache_victims_are_real(addrs in vec(0u64..(1 << 16), 1..200), writes in vec(any::<bool>(), 200)) {
        let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2 });
        let mut written: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (i, &a) in addrs.iter().enumerate() {
            let line = a & !63;
            let is_write = writes[i % writes.len()];
            if is_write {
                written.insert(line);
            }
            if let tee_mem::cache::AccessOutcome::Miss { victim: Some(v) } = c.access(line, is_write) {
                prop_assert!(written.contains(&v), "victim {v:#x} never written");
            }
            prop_assert!(c.contains(line), "just-accessed line resident");
        }
    }

    /// Meta Table: after inserting an entry covering a 1-D tensor, every
    /// line of it reads as hit_in and nothing outside does.
    #[test]
    fn meta_table_coverage_exact(base_page in 0u64..1000, lines in 1u64..128, vn in any::<u64>()) {
        let base = base_page * 4096;
        let mut t = MetaTable::new(8);
        t.insert(MetaEntry::new_1d(base, lines, 64, vn));
        for l in 0..lines {
            match t.lookup_read(base + l * 64) {
                ReadLookup::HitIn { vn: v, .. } => prop_assert_eq!(v, vn),
                other => prop_assert!(false, "line {l} not covered: {other:?}"),
            }
        }
        // One past the end is the boundary, not a hit.
        let past_end = t.lookup_read(base + lines * 64);
        let is_boundary = matches!(past_end, ReadLookup::HitBoundary { .. });
        prop_assert!(is_boundary, "expected boundary past the end");
    }

    /// Meta Table write rounds: writing every line exactly once, in any
    /// order that starts at the first line and ends at the last, bumps the
    /// VN exactly once.
    #[test]
    fn meta_table_round_any_middle_order(lines in 3u64..64, shuffle_seed in any::<u64>()) {
        let mut t = MetaTable::new(4);
        let slot = t.insert(MetaEntry::new_1d(0, lines, 64, 0));
        // First line, then the middle lines in random order, then last.
        let mut middle: Vec<u64> = (1..lines - 1).collect();
        SplitMix64::new(shuffle_seed).shuffle(&mut middle);
        t.lookup_write(0);
        for &l in &middle {
            let r = t.lookup_write(l * 64);
            prop_assert!(!matches!(r, tee_cpu::analyzer::meta_table::WriteLookup::Violation));
        }
        match t.lookup_write((lines - 1) * 64) {
            tee_cpu::analyzer::meta_table::WriteLookup::HitEdgeFinish { vn, .. } => {
                prop_assert_eq!(vn, 1);
            }
            other => prop_assert!(false, "round must finish: {other:?}"),
        }
        prop_assert_eq!(t.entry(slot).unwrap().vn, 1);
    }

    /// Tensor split covers every line exactly once for any thread count.
    #[test]
    fn tensor_split_partition(lines in 1u64..500, threads in 1u64..16) {
        let t = TensorDesc::new_1d(0x4000, lines * 64);
        let parts = t.split(threads);
        let mut covered: Vec<u64> = parts.iter().flat_map(|p| p.line_addrs()).collect();
        covered.sort_unstable();
        let expected: Vec<u64> = (0..lines).map(|l| 0x4000 + l * 64).collect();
        prop_assert_eq!(covered, expected);
    }

    /// Bandwidth resources never double-book: grants are disjoint and
    /// ordered for any request pattern.
    #[test]
    fn bandwidth_grants_disjoint(requests in vec((0u64..1_000_000, 1u64..100_000), 1..50)) {
        let mut r = BandwidthResource::new(1.0e9, Time::ZERO);
        let mut last_free = Time::ZERO;
        for &(at, bytes) in &requests {
            let g = r.acquire(Time::from_ns(at), bytes);
            prop_assert!(g.start >= last_free);
            prop_assert!(g.free >= g.start);
            last_free = g.free;
        }
    }
}
