//! Property tests over the exploration engine: Pareto-frontier
//! invariants (no frontier point is dominated by *any* sampled point,
//! membership is invariant under point-order shuffles) and executor
//! determinism across worker-thread counts.

use proptest::collection::vec;
use proptest::prelude::*;
use tee_explore::{dominates, pareto_frontier, Executor, Knob, Sense, Space};
use tee_sim::SplitMix64;

const SENSES: [Sense; 3] = [Sense::Maximize, Sense::Minimize, Sense::Minimize];

/// Deterministic pseudo-random objective vectors: a seeded stand-in for
/// "whatever a sweep might have priced". Coarse quantization produces
/// plenty of exact ties, exercising the tie-keeping rule.
fn objectives(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            (0..SENSES.len())
                .map(|_| (rng.next_below(50) as f64) / 5.0)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::ci())]

    /// No frontier point is dominated by any sampled point, and every
    /// non-frontier point is dominated by someone.
    #[test]
    fn frontier_points_are_exactly_the_non_dominated(seed in any::<u64>(), n in 1usize..60) {
        let objs = objectives(seed, n);
        let frontier = pareto_frontier(&objs, &SENSES);
        prop_assert!(!frontier.is_empty(), "a non-empty set has a frontier");
        for (i, obj) in objs.iter().enumerate() {
            let on_frontier = frontier.contains(&i);
            let dominated = objs.iter().any(|other| dominates(other, obj, &SENSES));
            prop_assert_eq!(on_frontier, !dominated, "point {}", i);
        }
    }

    /// Shuffling the sampled points permutes frontier indices but never
    /// changes which objective vectors are on the frontier.
    #[test]
    fn frontier_is_invariant_under_point_order(seed in any::<u64>(), n in 1usize..60,
                                               shuffle_seed in any::<u64>()) {
        let objs = objectives(seed, n);
        let mut order: Vec<usize> = (0..n).collect();
        SplitMix64::new(shuffle_seed).shuffle(&mut order);
        let shuffled: Vec<Vec<f64>> = order.iter().map(|&i| objs[i].clone()).collect();

        let baseline = pareto_frontier(&objs, &SENSES);
        let after = pareto_frontier(&shuffled, &SENSES);
        // Map the shuffled frontier back to original indices and compare
        // as sets.
        let mut mapped: Vec<usize> = after.iter().map(|&i| order[i]).collect();
        mapped.sort_unstable();
        prop_assert_eq!(mapped, baseline);
    }

    /// The executor returns bit-identical results for 1 vs. 4 worker
    /// threads, for any seed and point budget — the invariant behind
    /// `tensortee explore --threads`.
    #[test]
    fn executor_is_thread_count_invariant(seed in any::<u64>(), n in 1usize..40,
                                          levels in vec(2usize..5, 1..4)) {
        let space = Space::new(
            levels
                .iter()
                .map(|&l| Knob::numeric("k", (0..l).map(|v| v as f64)))
                .collect(),
        );
        let points = space.sample(n, seed);
        let eval = |i: usize, p: &tee_explore::Point| {
            // Mix the point's decoded values with its index, as a real
            // evaluator's output depends on both.
            let mut acc = i as f64;
            for k in 0..space.knobs().len() {
                acc = acc * 7.0 + space.value(p, k);
            }
            acc.to_bits()
        };
        let serial = Executor::new(1).run(&points, &eval);
        let parallel = Executor::new(4).run(&points, &eval);
        prop_assert_eq!(serial, parallel);
    }

    /// Sampling plans themselves are pure functions of `(n, seed)` —
    /// and every sampled point indexes valid levels.
    #[test]
    fn sampling_is_reproducible_and_in_bounds(seed in any::<u64>(), n in 1usize..50) {
        let space = Space::new(vec![
            Knob::numeric("a", [1.0, 2.0, 3.0, 4.0, 5.0]),
            Knob::numeric("b", [0.5, 1.0, 2.0]),
            Knob::numeric("c", [0.0, 1.0]),
        ]);
        let pts = space.latin_hypercube(n, seed);
        prop_assert_eq!(&pts, &space.latin_hypercube(n, seed));
        for p in &pts {
            for (k, knob) in space.knobs().iter().enumerate() {
                prop_assert!(p.level(k) < knob.levels.len());
            }
        }
    }
}
