//! Design spaces: named knobs with discrete levels, concrete points, and
//! deterministic sampling plans (full grid, seeded Latin hypercube).
//!
//! The engine is domain-agnostic: a [`Knob`] level carries a display
//! label and an `f64` value, and the *meaning* of each knob position is
//! decided by whoever builds the space and evaluates its points (the
//! `tensortee` core maps them onto system configurations). Every sampler
//! is a pure function of `(space, n, seed)`, so a sampling plan is
//! reproducible across runs, machines and worker-thread counts.

use serde::Serialize;
use tee_sim::SplitMix64;

/// One selectable setting of a knob: a display label plus the numeric
/// value the evaluator decodes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Level {
    /// Display label (`"GPT2-M"`, `"32 GB/s"`, …).
    pub label: String,
    /// The value the evaluator decodes (an index, a bandwidth, a factor).
    pub value: f64,
}

/// A named design-space dimension with its discrete levels.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Knob {
    /// Display name (`"model"`, `"PCIe GB/s"`, …).
    pub name: &'static str,
    /// The selectable levels, in presentation order.
    pub levels: Vec<Level>,
}

impl Knob {
    /// A knob whose labels are the values themselves.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn numeric(name: &'static str, values: impl IntoIterator<Item = f64>) -> Self {
        let levels: Vec<Level> = values
            .into_iter()
            .map(|v| Level {
                label: fmt_value(v),
                value: v,
            })
            .collect();
        assert!(!levels.is_empty(), "knob {name:?} needs at least one level");
        Knob { name, levels }
    }

    /// A knob with explicit `(label, value)` levels.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    pub fn labeled(
        name: &'static str,
        pairs: impl IntoIterator<Item = (impl Into<String>, f64)>,
    ) -> Self {
        let levels: Vec<Level> = pairs
            .into_iter()
            .map(|(label, value)| Level {
                label: label.into(),
                value,
            })
            .collect();
        assert!(!levels.is_empty(), "knob {name:?} needs at least one level");
        Knob { name, levels }
    }
}

/// Formats a level value without trailing noise (`32`, `0.5`).
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One concrete configuration: a level index per knob, in knob order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Point(Vec<usize>);

impl Point {
    /// The level indices, in knob order.
    pub fn levels(&self) -> &[usize] {
        &self.0
    }

    /// The level index of knob `knob`.
    pub fn level(&self, knob: usize) -> usize {
        self.0[knob]
    }
}

/// A design space: the cartesian product of its knobs' levels.
///
/// # Example
///
/// ```
/// use tee_explore::{Knob, Space};
/// let space = Space::new(vec![
///     Knob::numeric("pcie GB/s", [16.0, 32.0, 64.0]),
///     Knob::labeled("fabric", [("pcie", 0.0), ("nvlink", 1.0)]),
/// ]);
/// assert_eq!(space.size(), 6);
/// let points = space.sample(4, 42);
/// assert_eq!(points.len(), 4);
/// assert_eq!(points, space.sample(4, 42), "sampling is deterministic");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Space {
    knobs: Vec<Knob>,
}

impl Space {
    /// Creates a space.
    ///
    /// # Panics
    ///
    /// Panics if `knobs` is empty.
    pub fn new(knobs: Vec<Knob>) -> Self {
        assert!(!knobs.is_empty(), "a space needs at least one knob");
        Space { knobs }
    }

    /// The knobs, in order.
    pub fn knobs(&self) -> &[Knob] {
        &self.knobs
    }

    /// Total number of points in the full grid (saturating).
    pub fn size(&self) -> u64 {
        self.knobs
            .iter()
            .fold(1u64, |acc, k| acc.saturating_mul(k.levels.len() as u64))
    }

    /// The decoded value of knob `knob` at `point`.
    pub fn value(&self, point: &Point, knob: usize) -> f64 {
        self.knobs[knob].levels[point.level(knob)].value
    }

    /// The display label of knob `knob` at `point`.
    pub fn label(&self, point: &Point, knob: usize) -> &str {
        &self.knobs[knob].levels[point.level(knob)].label
    }

    /// Renders a point as `name=label` pairs (report tables).
    pub fn describe(&self, point: &Point) -> String {
        self.knobs
            .iter()
            .enumerate()
            .map(|(k, knob)| format!("{}={}", knob.name, self.label(point, k)))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The mid-level point (each knob at `len/2`) — the one-at-a-time
    /// sensitivity baseline.
    pub fn center(&self) -> Point {
        Point(self.knobs.iter().map(|k| k.levels.len() / 2).collect())
    }

    /// Every point of the space, in mixed-radix order (last knob fastest).
    ///
    /// # Panics
    ///
    /// Panics if the space exceeds 2^22 points (use a sampler instead).
    pub fn grid(&self) -> Vec<Point> {
        let size = self.size();
        assert!(size <= 1 << 22, "grid over {size} points; sample instead");
        let mut points = Vec::with_capacity(size as usize);
        let mut current = vec![0usize; self.knobs.len()];
        loop {
            points.push(Point(current.clone()));
            // Increment the mixed-radix counter, last knob fastest.
            let mut k = self.knobs.len();
            loop {
                if k == 0 {
                    return points;
                }
                k -= 1;
                current[k] += 1;
                if current[k] < self.knobs[k].levels.len() {
                    break;
                }
                current[k] = 0;
            }
        }
    }

    /// `n` seeded Latin-hypercube points: each knob's levels are covered
    /// by an independently shuffled stratification, so every level of
    /// every knob appears `n/len` (±1) times — far better marginal
    /// coverage than uniform sampling at the same budget. Falls back to
    /// the full grid when the space has at most `n` points.
    pub fn latin_hypercube(&self, n: usize, seed: u64) -> Vec<Point> {
        if self.size() <= n as u64 {
            return self.grid();
        }
        let root = SplitMix64::new(seed);
        // Per-knob stratum permutation from a named sub-stream, so knob
        // order and count never perturb one another's draws.
        let columns: Vec<Vec<usize>> = self
            .knobs
            .iter()
            .enumerate()
            .map(|(k, knob)| {
                let mut strata: Vec<usize> = (0..n).collect();
                root.split(k as u64).shuffle(&mut strata);
                strata
                    .into_iter()
                    .map(|s| s * knob.levels.len() / n)
                    .collect()
            })
            .collect();
        (0..n)
            .map(|i| Point(columns.iter().map(|c| c[i]).collect()))
            .collect()
    }

    /// The default sampling plan: the full grid when it fits in `n`
    /// points, otherwise an `n`-point Latin hypercube.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<Point> {
        if self.size() <= n as u64 {
            self.grid()
        } else {
            self.latin_hypercube(n, seed)
        }
    }

    /// The one-at-a-time sweep around `baseline`: the baseline first,
    /// then, knob by knob, every alternative level with all other knobs
    /// held at the baseline — the point set behind a tornado chart.
    pub fn one_at_a_time(&self, baseline: &Point) -> Vec<Point> {
        let mut points = vec![baseline.clone()];
        for (k, knob) in self.knobs.iter().enumerate() {
            for level in 0..knob.levels.len() {
                if level == baseline.level(k) {
                    continue;
                }
                let mut levels = baseline.levels().to_vec();
                levels[k] = level;
                points.push(Point(levels));
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Space {
        Space::new(vec![
            Knob::numeric("a", [1.0, 2.0]),
            Knob::numeric("b", [0.5, 1.0, 2.0]),
            Knob::labeled("c", [("x", 0.0), ("y", 1.0)]),
        ])
    }

    #[test]
    fn grid_enumerates_the_product_once() {
        let s = demo();
        let g = s.grid();
        assert_eq!(g.len() as u64, s.size());
        assert_eq!(s.size(), 12);
        let mut sorted = g.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), g.len(), "grid points are distinct");
        // Mixed-radix order: last knob fastest.
        assert_eq!(g[0].levels(), &[0, 0, 0]);
        assert_eq!(g[1].levels(), &[0, 0, 1]);
        assert_eq!(g[2].levels(), &[0, 1, 0]);
    }

    #[test]
    fn values_labels_and_describe() {
        let s = demo();
        let p = Point(vec![1, 2, 0]);
        assert_eq!(s.value(&p, 0), 2.0);
        assert_eq!(s.value(&p, 1), 2.0);
        assert_eq!(s.label(&p, 1), "2");
        assert_eq!(s.label(&p, 2), "x");
        assert_eq!(s.describe(&p), "a=2 b=2 c=x");
        assert_eq!(s.label(&Point(vec![0, 0, 0]), 1), "0.5");
    }

    #[test]
    fn samplers_are_deterministic_and_distinct_per_seed() {
        let s = demo();
        let a = s.latin_hypercube(8, 42);
        assert_eq!(a, s.latin_hypercube(8, 42));
        assert_eq!(a.len(), 8);
        assert_ne!(a, s.latin_hypercube(8, 43), "seed matters");
    }

    #[test]
    fn small_spaces_collapse_to_the_grid() {
        let s = demo();
        assert_eq!(s.sample(12, 1), s.grid());
        assert_eq!(s.latin_hypercube(100, 1), s.grid());
        assert_eq!(s.sample(6, 1).len(), 6, "over-full space is sampled");
    }

    #[test]
    fn latin_hypercube_stratifies_every_knob() {
        let s = demo();
        let n = 9;
        let pts = s.latin_hypercube(n, 5);
        assert_eq!(pts.len(), n);
        for (k, knob) in s.knobs().iter().enumerate() {
            let mut counts = vec![0usize; knob.levels.len()];
            for p in &pts {
                counts[p.level(k)] += 1;
            }
            for (level, &c) in counts.iter().enumerate() {
                let lo = n / knob.levels.len();
                let hi = n.div_ceil(knob.levels.len());
                assert!(
                    (lo..=hi).contains(&c),
                    "knob {k} level {level} hit {c} times (want {lo}..={hi})"
                );
            }
        }
    }

    #[test]
    fn one_at_a_time_varies_one_knob_per_point() {
        let s = demo();
        let base = s.center();
        assert_eq!(base.levels(), &[1, 1, 1]);
        let pts = s.one_at_a_time(&base);
        // 1 baseline + (2-1) + (3-1) + (2-1) variants.
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], base);
        for p in &pts[1..] {
            let diffs = p
                .levels()
                .iter()
                .zip(base.levels())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diffs, 1, "{p:?}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_space_rejected() {
        Space::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn empty_knob_rejected() {
        Knob::numeric("empty", []);
    }
}
