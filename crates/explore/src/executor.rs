//! The parallel point executor.
//!
//! Partitions a sampled point list across `std::thread` workers. Each
//! point gets its own [`SplitMix64`] sub-stream, derived statelessly from
//! the executor seed and the point's index
//! ([`SplitMix64::split`]), so an evaluation never observes which worker
//! ran it or what ran before it — results are **bit-identical for any
//! worker-thread count**, which is what lets `tensortee explore
//! --threads 4` reproduce `--threads 1` byte-for-byte.

use crate::space::Point;
use tee_sim::SplitMix64;

/// A deterministic multi-threaded executor.
///
/// # Example
///
/// ```
/// use tee_explore::{Executor, Knob, Space};
/// let space = Space::new(vec![Knob::numeric("x", [1.0, 2.0, 3.0])]);
/// let points = space.grid();
/// let eval = |_i: usize, p: &tee_explore::Point, mut rng: tee_sim::SplitMix64| {
///     space.value(p, 0) + (rng.next_below(10) as f64)
/// };
/// let serial = Executor::new(1, 42).run(&points, &eval);
/// let parallel = Executor::new(4, 42).run(&points, &eval);
/// assert_eq!(serial, parallel, "thread count never changes results");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: u32,
    seed: u64,
}

impl Executor {
    /// Creates an executor with `threads` workers (clamped to at least
    /// one) and the RNG root seed for per-point sub-streams.
    pub fn new(threads: u32, seed: u64) -> Self {
        Executor {
            threads: threads.max(1),
            seed,
        }
    }

    /// Evaluates every point, returning results in point order. The
    /// evaluator receives `(index, point, rng)` where `rng` is the
    /// point's private sub-stream; it must not rely on any other shared
    /// mutable state if bit-reproducibility across thread counts is
    /// wanted (shared *caches* of deterministic values are fine).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the evaluator's panic is
    /// propagated).
    pub fn run<R, F>(&self, points: &[Point], eval: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &Point, SplitMix64) -> R + Sync,
    {
        self.run_items(points, eval)
    }

    /// [`Self::run`] over arbitrary items instead of [`Point`]s — the
    /// same strided static partition and stateless per-index sub-streams,
    /// so results are in item order and bit-identical for any thread
    /// count. The core crate uses this to warm its `(model, mode)`
    /// simulation memos in parallel before a sweep starts.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the evaluator's panic is
    /// propagated).
    pub fn run_items<T, R, F>(&self, items: &[T], eval: &F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, SplitMix64) -> R + Sync,
    {
        let root = SplitMix64::new(self.seed);
        let workers = (self.threads as usize).min(items.len()).max(1);
        if workers == 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, p)| eval(i, p, root.split(i as u64)))
                .collect();
        }
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        std::thread::scope(|scope| {
            let root = &root;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        // Strided partition: worker w takes items w,
                        // w+T, w+2T, … — static, so no scheduling state
                        // can leak into results.
                        (w..items.len())
                            .step_by(workers)
                            .map(|i| (i, eval(i, &items[i], root.split(i as u64))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, r) in handle.join().expect("explore worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every item evaluated exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Knob, Space};

    fn space() -> Space {
        Space::new(vec![
            Knob::numeric("a", [1.0, 2.0, 3.0, 4.0]),
            Knob::numeric("b", [10.0, 20.0, 30.0]),
        ])
    }

    #[test]
    fn results_are_in_point_order() {
        let s = space();
        let points = s.grid();
        let out = Executor::new(3, 7).run(&points, &|i, p, _| (i, p.levels().to_vec()));
        for (i, (idx, levels)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(levels, points[i].levels());
        }
    }

    #[test]
    fn thread_count_is_invisible_to_results() {
        let s = space();
        let points = s.grid();
        let eval = |i: usize, p: &Point, mut rng: SplitMix64| {
            // Consume a point-dependent number of draws so any stream
            // sharing between points would show up immediately.
            let draws = 1 + (i % 5);
            let mut acc = s.value(p, 0) * 1e6 + s.value(p, 1);
            for _ in 0..draws {
                acc += rng.next_f64();
            }
            acc.to_bits()
        };
        let one = Executor::new(1, 42).run(&points, &eval);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(
                one,
                Executor::new(threads, 42).run(&points, &eval),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn seed_reaches_every_point_stream() {
        let s = space();
        let points = s.grid();
        let eval = |_: usize, _: &Point, mut rng: SplitMix64| rng.next_u64();
        let a = Executor::new(2, 1).run(&points, &eval);
        let b = Executor::new(2, 2).run(&points, &eval);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y), "seed must matter");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "per-point streams are distinct");
    }

    #[test]
    fn run_items_generalizes_run_and_keeps_thread_invariance() {
        // Arbitrary items (here: strings) get the same stateless
        // per-index sub-streams and in-order results as points do.
        let items: Vec<String> = (0..23).map(|i| format!("item-{i}")).collect();
        let eval = |i: usize, it: &String, mut rng: SplitMix64| {
            format!("{i}:{it}:{}", rng.next_below(1000))
        };
        let one = Executor::new(1, 42).run_items(&items, &eval);
        for threads in [2, 4, 16] {
            assert_eq!(
                one,
                Executor::new(threads, 42).run_items(&items, &eval),
                "{threads} threads"
            );
        }
        for (i, out) in one.iter().enumerate() {
            assert!(out.starts_with(&format!("{i}:item-{i}:")), "{out}");
        }
    }

    #[test]
    fn zero_threads_clamps_and_empty_points_are_fine() {
        let e = Executor::new(0, 9);
        let out: Vec<u64> = e.run(&[], &|_, _, _| 0u64);
        assert!(out.is_empty());
        // Zero workers clamp to one: every item is still evaluated.
        let out: Vec<usize> = e.run_items(&[(), ()], &|i, _, _| i);
        assert_eq!(out, vec![0, 1]);
    }
}
