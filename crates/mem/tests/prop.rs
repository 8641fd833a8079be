//! Property-based tests for the memory substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use tee_mem::cache::{AccessOutcome, Cache, CacheConfig, CacheHierarchy, HierarchyConfig};
use tee_mem::{DramConfig, DramModel, PhysMem};
use tee_sim::Time;

fn tiny_hierarchy() -> CacheHierarchy {
    CacheHierarchy::new(HierarchyConfig {
        cores: 2,
        l1: CacheConfig {
            size_bytes: 512,
            ways: 2,
        },
        l2: CacheConfig {
            size_bytes: 1024,
            ways: 2,
        },
        l3: CacheConfig {
            size_bytes: 2048,
            ways: 2,
        },
    })
}

proptest! {
    // Shared CI configuration: deterministic per-test seeds, bounded case
    // count, both overridable via PROPTEST_CASES / PROPTEST_RNG_SEED when
    // replaying a regression (see proptest-regressions/README.md).
    #![proptest_config(ProptestConfig::ci())]
    /// Backing store: last write wins for any interleaving of lines.
    #[test]
    fn store_last_write_wins(ops in vec((0u64..64, any::<u8>()), 1..100)) {
        let mut mem = PhysMem::new();
        let mut model = std::collections::HashMap::new();
        for &(line, fill) in &ops {
            let pa = line * 64;
            mem.write_line(pa, [fill; 64]);
            model.insert(pa, fill);
        }
        for (&pa, &fill) in &model {
            prop_assert_eq!(mem.read_line(pa), [fill; 64]);
        }
    }

    /// A single-level cache never exceeds its capacity in resident lines
    /// and hits anything accessed twice in a row.
    #[test]
    fn cache_capacity_respected(addrs in vec(0u64..(1 << 14), 1..300)) {
        let cfg = CacheConfig { size_bytes: 2048, ways: 4 };
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            let line = a & !63;
            c.access(line, false);
            prop_assert!(c.contains(line));
            prop_assert!(c.access(line, false).is_hit());
        }
        // Flush yields no dirty lines for a read-only stream.
        prop_assert!(c.flush().is_empty());
    }

    /// Write-back conservation through the full hierarchy: dirty lines
    /// reaching memory plus dirty lines still cached equals lines written.
    #[test]
    fn hierarchy_writeback_conservation(lines in vec(0u64..512, 1..200)) {
        let mut h = tiny_hierarchy();
        let mut written = std::collections::HashSet::new();
        let mut wb = std::collections::HashSet::new();
        for &l in &lines {
            let pa = l * 64;
            written.insert(pa);
            for v in h.access(0, pa, true).mem_writebacks {
                prop_assert!(written.contains(&v), "phantom write-back {v:#x}");
                prop_assert!(wb.insert(v), "double write-back of {v:#x} while clean");
            }
            // A re-written line may legitimately write back again later.
            wb.remove(&pa);
        }
        for v in h.flush_all() {
            prop_assert!(written.contains(&v));
        }
    }

    /// DRAM data-bus occupancy is strictly ordered (completion times may
    /// legitimately reorder: a row hit after a row miss finishes sooner),
    /// and channel bandwidth is never exceeded.
    #[test]
    fn dram_bus_ordered_and_bounded(n in 1u64..500) {
        let cfg = DramConfig::ddr4_2400_2ch();
        let mut d = DramModel::new(cfg);
        let worst = cfg.t_rp + cfg.t_rcd + cfg.t_cas;
        let mut last = Time::ZERO;
        for i in 0..n {
            let done = d.access(i * 128, Time::ZERO); // one channel
            // Bus grants are FIFO, so completions can only reorder within
            // one worst-case array latency.
            prop_assert!(done + worst >= last);
            last = last.max(done);
        }
        let secs = d.all_idle_at().as_secs_f64();
        let bytes = (n * 64) as f64;
        prop_assert!(bytes / secs <= cfg.channel_bytes_per_sec * 1.001);
    }

    /// Victim addresses reported by a cache always reconstruct to a line
    /// previously inserted (no address corruption in tag math).
    #[test]
    fn victim_reconstruction(addrs in vec(0u64..(1 << 20), 1..200)) {
        let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2 });
        let mut seen = std::collections::HashSet::new();
        for &a in &addrs {
            let line = a & !63;
            seen.insert(line);
            if let AccessOutcome::Miss { victim: Some(v) } = c.access(line, true) {
                prop_assert!(seen.contains(&v), "victim {v:#x} never inserted");
            }
        }
    }
}
