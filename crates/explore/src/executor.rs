//! The parallel point executor.
//!
//! Partitions a sampled point list (or any item list) across
//! `std::thread` workers with a static strided partition and returns the
//! results in item order. An evaluation is a function of its index and
//! item alone, so it never observes which worker ran it or what ran
//! before it — results are **bit-identical for any worker-thread
//! count**, which is what lets `tensortee explore --threads 4` reproduce
//! `--threads 1` byte-for-byte.

/// A deterministic multi-threaded executor.
///
/// # Example
///
/// ```
/// use tee_explore::{Executor, Knob, Space};
/// let space = Space::new(vec![Knob::numeric("x", [1.0, 2.0, 3.0])]);
/// let points = space.grid();
/// let eval = |i: usize, p: &tee_explore::Point| space.value(p, 0) + i as f64;
/// let serial = Executor::new(1).run(&points, &eval);
/// let parallel = Executor::new(4).run(&points, &eval);
/// assert_eq!(serial, parallel, "thread count never changes results");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: u32,
}

impl Executor {
    /// Creates an executor with `threads` workers (clamped to at least
    /// one).
    pub fn new(threads: u32) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Evaluates every item, returning results in item order. The
    /// evaluator receives `(index, item)`; it must not rely on any other
    /// shared mutable state if bit-reproducibility across thread counts
    /// is wanted (shared *caches* of deterministic values are fine).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the evaluator's panic is
    /// propagated).
    pub fn run<T, R, F>(&self, items: &[T], eval: &F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = (self.threads as usize).min(items.len()).max(1);
        if workers == 1 {
            return items.iter().enumerate().map(|(i, p)| eval(i, p)).collect();
        }
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        // Strided partition: worker w takes items w,
                        // w+T, w+2T, … — static, so no scheduling state
                        // can leak into results.
                        (w..items.len())
                            .step_by(workers)
                            .map(|i| (i, eval(i, &items[i])))
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
    use crate::space::{Knob, Point, Space};

    #[test]
    fn results_are_in_point_order() {
        let s = Space::new(vec![
            Knob::numeric("a", [1.0, 2.0, 3.0, 4.0]),
            Knob::numeric("b", [10.0, 20.0, 30.0]),
        ]);
        let points = s.grid();
        let out = Executor::new(3).run(&points, &|i, p| (i, p.levels().to_vec()));
        for (i, (idx, levels)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(levels, points[i].levels());
        }
    }

    #[test]
    fn thread_count_is_invisible_to_results() {
        let s = Space::new(vec![
            Knob::numeric("a", [1.0, 2.0, 3.0, 4.0]),
            Knob::numeric("b", [10.0, 20.0, 30.0]),
        ]);
        let points = s.grid();
        let eval = |i: usize, p: &Point| (s.value(p, 0) * 1e6 + s.value(p, 1) + i as f64).to_bits();
        let one = Executor::new(1).run(&points, &eval);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(
                one,
                Executor::new(threads).run(&points, &eval),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn run_items_generalizes_run_and_keeps_thread_invariance() {
        // Arbitrary items (here: strings, more of them than some thread
        // counts divide) get the same in-order results as points do.
        let items: Vec<String> = (0..23).map(|i| format!("item-{i}")).collect();
        let eval = |i: usize, it: &String| format!("{i}:{it}");
        let one = Executor::new(1).run(&items, &eval);
        for threads in [2, 4, 16] {
            assert_eq!(
                one,
                Executor::new(threads).run(&items, &eval),
                "{threads} threads"
            );
        }
        for (i, out) in one.iter().enumerate() {
            assert_eq!(*out, format!("{i}:item-{i}"));
        }
    }

    #[test]
    fn zero_threads_clamps_and_empty_points_are_fine() {
        let e = Executor::new(0);
        let out: Vec<u64> = e.run(&[] as &[u8], &|_, _| 0u64);
        assert!(out.is_empty());
        // Zero workers clamp to one: every item is still evaluated.
        let out: Vec<usize> = e.run(&[(), ()], &|i, _| i);
        assert_eq!(out, vec![0, 1]);
    }
}
