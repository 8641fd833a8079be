//! Property-based tests for the interconnect models and secure channels.

use proptest::prelude::*;
use tee_comm::channel::{TransferMeta, TrustedChannel};
use tee_comm::link::PcieLink;
use tee_comm::protocol::Protocol;
use tee_comm::schedule::{overlapped_time, serialized_time};
use tee_crypto::mac::MacTag;
use tee_crypto::Key;
use tee_sim::Time;

proptest! {
    // Shared CI configuration: deterministic per-test seeds, bounded case
    // count, both overridable via PROPTEST_CASES / PROPTEST_RNG_SEED when
    // replaying a regression (see proptest-regressions/README.md).
    #![proptest_config(ProptestConfig::ci())]
    /// Sealed metadata round-trips for any content and sequence number.
    #[test]
    fn seal_open_round_trip(seed in any::<u64>(), base in any::<u64>(),
                            bytes in any::<u64>(), vn in any::<u64>(),
                            mac in any::<u64>(), seq in any::<u64>()) {
        let key = Key::from_seed(seed);
        let tx = TrustedChannel::new(key);
        let rx = TrustedChannel::new(key);
        let meta = TransferMeta { base, bytes, vn, mac: MacTag::from_raw(mac) };
        prop_assert_eq!(rx.open(&tx.seal(&meta, seq), seq).unwrap(), meta);
    }

    /// Any single-byte tamper of a sealed packet is rejected.
    #[test]
    fn sealed_packet_tamper_rejected(seed in any::<u64>(),
                                     offset in 0usize..32, flip in 1u8..=255) {
        let key = Key::from_seed(seed);
        let ch = TrustedChannel::new(key);
        let meta = TransferMeta { base: 1, bytes: 2, vn: 3, mac: MacTag::from_raw(4) };
        let mut sealed = ch.seal(&meta, 0);
        sealed.tamper(offset, flip);
        prop_assert!(ch.open(&sealed, 0).is_err());
    }

    /// The staging protocol is never faster than the direct protocol for
    /// the same payload, and both scale monotonically with bytes.
    #[test]
    fn staging_never_beats_direct(bytes in 64u64..(1 << 30)) {
        let total = |p: Protocol, b| p.transfer(PcieLink::gen4_x16(), b).total();
        let staged = total(Protocol::Staged, bytes);
        let direct = total(Protocol::Direct, bytes);
        prop_assert!(staged >= direct);
        let bigger = total(Protocol::Direct, bytes * 2);
        prop_assert!(bigger >= direct);
    }

    /// Overlap never loses to serialization and is bounded below by each
    /// component.
    #[test]
    fn overlap_bounds(c_ns in 0u64..1_000_000, x_ns in 0u64..1_000_000) {
        let c = Time::from_ns(c_ns);
        let x = Time::from_ns(x_ns);
        let ser = serialized_time(c, x);
        let ovl = overlapped_time(c, x);
        prop_assert!(ovl <= ser);
        prop_assert!(ovl >= c);
        prop_assert!(ovl >= x);
    }

    /// The staged breakdown components are all non-negative and dominated
    /// by crypto for single-engine bandwidth.
    #[test]
    fn staged_breakdown_consistent(mb in 1u64..512) {
        let b = Protocol::Staged.transfer(PcieLink::gen4_x16(), mb << 20);
        prop_assert!(b.re_encryption > Time::ZERO);
        prop_assert!(b.decryption > Time::ZERO);
        prop_assert!(b.comm > Time::ZERO);
        prop_assert_eq!(b.total(), b.re_encryption + b.comm + b.decryption);
        // Two AES passes at 8 GB/s vs one PCIe pass at 32 GB/s.
        prop_assert!(b.re_encryption > b.comm);
    }
}
