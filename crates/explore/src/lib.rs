//! # tee-explore
//!
//! A deterministic, parallel **design-space exploration engine** — the
//! substrate behind the `explore_pareto` / `explore_sensitivity`
//! artifacts and the `tensortee explore` CLI (which sweep the TensorTEE
//! hardware/security space; see the `tensortee` core crate).
//!
//! The engine is deliberately domain-free, in the spirit of systematic
//! parameter-sweep benchmarking (MILC cluster tuning) and
//! design-space scheduling studies (see PAPERS.md):
//!
//! * [`Space`] — named [`Knob`]s with discrete labelled levels, the full
//!   cartesian [`Space::grid`], and the seeded
//!   [`Space::latin_hypercube`] sampling plan,
//! * [`Executor`] — partitions points across `std::thread` workers with a
//!   static strided partition and returns results in point order; an
//!   evaluation depends only on its point, so results are bit-identical
//!   for any worker-thread count,
//! * [`pareto_frontier`] / [`tornado`] — multi-objective non-dominated
//!   sets and one-at-a-time sensitivity swings over the evaluated
//!   objectives.
//!
//! ## Example
//!
//! ```
//! use tee_explore::{pareto_frontier, Executor, Knob, Sense, Space};
//!
//! let space = Space::new(vec![
//!     Knob::numeric("bandwidth", [16.0, 32.0, 64.0]),
//!     Knob::labeled("scheme", [("baseline", 0.0), ("ours", 1.0)]),
//! ]);
//! let points = space.sample(6, 42);
//! // Toy pricing: throughput rises with bandwidth, overhead is the
//! // baseline scheme's only.
//! let evals = Executor::new(4).run(&points, &|_i, p| {
//!     vec![space.value(p, 0), 1.0 - space.value(p, 1)]
//! });
//! let frontier = pareto_frontier(&evals, &[Sense::Maximize, Sense::Minimize]);
//! assert!(!frontier.is_empty());
//! ```

pub mod analysis;
pub mod executor;
pub mod space;

pub use analysis::{dominates, dominator_of, pareto_frontier, tornado, Sense, TornadoRow};
pub use executor::Executor;
pub use space::{Knob, Level, Point, Space};
