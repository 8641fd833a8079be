//! KV-residency side channel: spill patterns leak session structure.
//!
//! When a serving stack spills session KV to host DRAM and fetches it
//! back (tee-serve's HBM budget, tee-fleet's migrations),
//! the *sizes* of those at-rest blobs track each session's accumulated
//! context. An adversary watching spill/fetch traffic can therefore
//! cluster transfers by size and recover which transfers belong to the
//! same session — i.e. which requests share a prefix — without reading
//! a single plaintext byte.
//!
//! The adversary here is deliberately simple and fully deterministic:
//! it buckets each observed size on a half-octave log scale (a
//! session's KV grows by less than 2x per turn, so its transfers stay
//! in neighbouring buckets, while distinct sessions spread out) and
//! scores the recovered clustering against ground truth with the
//! plug-in mutual-information estimator.

use crate::traffic::mutual_information_bits;

/// Half-octave log bucket of an observed size signal: sizes within
/// ~19% of each other share a bucket. Deterministic, monotone, and
/// defined for zero (bucket 0).
pub fn size_bucket(size: u64) -> u64 {
    if size == 0 {
        return 0;
    }
    // floor(4 * log2(size)) + 1, in integer-friendly f64 (exact for
    // the magnitudes a simulator produces; deterministic either way).
    (4.0 * (size as f64).log2()).floor() as u64 + 1
}

/// What the residency adversary recovered from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidencyFinding {
    /// Spill/fetch transfers observed.
    pub observed: usize,
    /// Ground-truth sessions among them.
    pub sessions: usize,
    /// Distinct size clusters the adversary formed.
    pub clusters: usize,
    /// Mutual information between true session and recovered cluster:
    /// bits of session identity the spill sizes give away per
    /// transfer. Bounded by `log2(sessions)`.
    pub bits: f64,
}

/// Runs the residency adversary over `(true_session, observed_size)`
/// samples: cluster by [`size_bucket`], score with
/// [`mutual_information_bits`]. The ground-truth session ids are used
/// only for scoring, never by the adversary itself.
pub fn link_sessions(samples: &[(u64, u64)]) -> ResidencyFinding {
    let clustered: Vec<(u64, u64)> = samples
        .iter()
        .map(|&(session, size)| (session, size_bucket(size)))
        .collect();
    let mut sessions: Vec<u64> = clustered.iter().map(|&(s, _)| s).collect();
    sessions.sort_unstable();
    sessions.dedup();
    let mut clusters: Vec<u64> = clustered.iter().map(|&(_, b)| b).collect();
    clusters.sort_unstable();
    clusters.dedup();
    ResidencyFinding {
        observed: samples.len(),
        sessions: sessions.len(),
        clusters: clusters.len(),
        bits: mutual_information_bits(&clustered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_merge_nearby_sizes() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 1);
        assert!(size_bucket(1000) <= size_bucket(1100));
        // Within ~19%: same bucket.
        assert_eq!(size_bucket(1 << 20), size_bucket((1 << 20) + 1000));
        // A full octave apart: different buckets.
        assert!(size_bucket(2 << 20) > size_bucket(1 << 20));
    }

    #[test]
    fn distinct_session_sizes_leak_and_constant_sizes_do_not() {
        // Three sessions with well-separated KV footprints, two
        // transfers each: the adversary recovers the grouping.
        let leaky = [
            (0, 1 << 20),
            (0, (1 << 20) + 4096),
            (1, 1 << 24),
            (1, (1 << 24) + 4096),
            (2, 1 << 28),
            (2, (1 << 28) + 4096),
        ];
        let found = link_sessions(&leaky);
        assert_eq!(found.observed, 6);
        assert_eq!(found.sessions, 3);
        assert_eq!(found.clusters, 3);
        assert!((found.bits - (3f64).log2()).abs() < 1e-9, "{}", found.bits);

        // Shielded-at-rest: every blob the same padded slot size.
        let shielded: Vec<(u64, u64)> = leaky.iter().map(|&(s, _)| (s, 1 << 28)).collect();
        let found = link_sessions(&shielded);
        assert_eq!(found.clusters, 1);
        assert_eq!(found.bits, 0.0);
    }

    #[test]
    fn empty_run_scores_zero() {
        let found = link_sessions(&[]);
        assert_eq!(found.observed, 0);
        assert_eq!(found.bits, 0.0);
    }
}
