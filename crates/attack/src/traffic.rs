//! Traffic analysis: how many bits the wire shape gives away.
//!
//! Two deterministic estimators quantify the channel, and a
//! nearest-centroid classifier demonstrates it:
//!
//! * [`extractable_bits`] — the empirical Shannon entropy of the
//!   observed feature stream: an upper bound on what any decoder can
//!   extract *per observed transfer* from that feature alone. A fully
//!   shaped (constant) stream scores exactly zero.
//! * [`mutual_information_bits`] — the plug-in mutual information
//!   between a ground-truth class (model architecture, batch
//!   schedule, session id) and the observed feature: what the feature
//!   actually reveals about the secret. Bounded by `log2(#classes)`.
//! * [`TrafficClassifier`] — per-class feature histograms with
//!   nearest-centroid (L1) matching, the concrete adversary that
//!   recovers model architecture or batch schedule from sizes alone.
//!
//! Everything here is a pure function of its inputs — counts live in
//! `BTreeMap`s and sums run in key order — so results are
//! byte-identical across thread counts and probe states.

use std::collections::BTreeMap;

fn counts(values: impl Iterator<Item = u64>) -> (BTreeMap<u64, u64>, u64) {
    let mut map = BTreeMap::new();
    let mut total = 0u64;
    for v in values {
        *map.entry(v).or_insert(0) += 1;
        total += 1;
    }
    (map, total)
}

/// Empirical Shannon entropy (bits) of the feature stream: an upper
/// bound on the bits any adversary can extract per observed transfer
/// from this feature. Zero for an empty or constant stream; at most
/// `log2(features.len())`.
pub fn extractable_bits(features: &[u64]) -> f64 {
    let (map, total) = counts(features.iter().copied());
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let h: f64 = map
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum();
    // A constant stream sums to -0.0; normalize the sign so "no bits"
    // prints (and compares) as exactly 0.
    if h > 0.0 {
        h
    } else {
        0.0
    }
}

/// Plug-in mutual information (bits) between a ground-truth class and
/// an observed feature, over `(class, feature)` samples.
///
/// The plug-in estimator is non-negative, bounded by the entropy of
/// either marginal (so by `log2(#distinct classes)`), and exactly zero
/// when the feature is constant — the properties the defense claims
/// rest on, pinned by property tests.
pub fn mutual_information_bits(samples: &[(u64, u64)]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len() as f64;
    let (classes, _) = counts(samples.iter().map(|&(c, _)| c));
    let (features, _) = counts(samples.iter().map(|&(_, f)| f));
    let mut joint = BTreeMap::new();
    for &(c, f) in samples {
        *joint.entry((c, f)).or_insert(0u64) += 1;
    }
    let mi: f64 = joint
        .iter()
        .map(|(&(c, f), &cnt)| {
            let p_cf = cnt as f64 / n;
            let p_c = classes[&c] as f64 / n;
            let p_f = features[&f] as f64 / n;
            p_cf * (p_cf / (p_c * p_f)).log2()
        })
        .sum();
    // Same -0.0 normalization as the entropy estimator, and a floor for
    // the tiny negative rounding residue a sum of cancelling terms can
    // leave behind.
    if mi > 0.0 {
        mi
    } else {
        0.0
    }
}

/// Nearest-centroid traffic classifier: one normalized feature
/// histogram per class, L1 matching, lexicographic tie-break — fully
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct TrafficClassifier {
    centroids: BTreeMap<String, BTreeMap<u64, f64>>,
}

fn histogram(features: &[u64]) -> BTreeMap<u64, f64> {
    let (map, total) = counts(features.iter().copied());
    let n = (total as f64).max(1.0);
    map.into_iter().map(|(k, c)| (k, c as f64 / n)).collect()
}

fn l1(a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> f64 {
    let mut keys: Vec<u64> = a.keys().chain(b.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    keys.iter()
        .map(|k| {
            let pa = a.get(k).copied().unwrap_or(0.0);
            let pb = b.get(k).copied().unwrap_or(0.0);
            (pa - pb).abs()
        })
        .sum()
}

impl TrafficClassifier {
    /// Trains one centroid per label; repeated labels pool their
    /// features into one histogram.
    pub fn train(labeled: &[(&str, Vec<u64>)]) -> Self {
        let mut pooled: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (label, features) in labeled {
            pooled
                .entry((*label).to_owned())
                .or_default()
                .extend_from_slice(features);
        }
        let centroids = pooled
            .into_iter()
            .map(|(label, features)| (label, histogram(&features)))
            .collect();
        TrafficClassifier { centroids }
    }

    /// The nearest centroid (L1 distance over the union of histogram
    /// bins) to the observed features; ties resolve to the
    /// lexicographically first label. `None` when untrained.
    pub fn classify(&self, features: &[u64]) -> Option<&str> {
        let h = histogram(features);
        let mut best: Option<(&str, f64)> = None;
        for (label, centroid) in &self.centroids {
            let d = l1(&h, centroid);
            let better = match best {
                None => true,
                Some((_, bd)) => d < bd,
            };
            if better {
                best = Some((label, d));
            }
        }
        best.map(|(label, _)| label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_constant_stream_is_zero() {
        assert_eq!(extractable_bits(&[7, 7, 7, 7]), 0.0);
        assert_eq!(extractable_bits(&[]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_stream_is_log2_n() {
        let bits = extractable_bits(&[1, 2, 3, 4]);
        assert!((bits - 2.0).abs() < 1e-12, "{bits}");
    }

    #[test]
    fn mi_is_zero_for_constant_feature_and_full_for_identity() {
        assert_eq!(mutual_information_bits(&[(0, 5), (1, 5), (2, 5)]), 0.0);
        let identity = [(0, 10), (1, 20), (0, 10), (1, 20)];
        let bits = mutual_information_bits(&identity);
        assert!((bits - 1.0).abs() < 1e-12, "{bits}");
    }

    #[test]
    fn mi_is_bounded_by_class_entropy() {
        let samples: Vec<(u64, u64)> = (0..64).map(|i| (i % 3, i * 17)).collect();
        let bits = mutual_information_bits(&samples);
        assert!(bits <= (3f64).log2() + 1e-12, "{bits}");
        assert!(bits >= 0.0);
    }

    #[test]
    fn classifier_recovers_distinct_classes_deterministically() {
        let clf = TrafficClassifier::train(&[
            ("gpt", vec![4, 4, 5, 4]),
            ("bert", vec![9, 9, 8, 9]),
            ("gpt", vec![4, 5]),
        ]);
        assert_eq!(clf.classify(&[4, 4, 5]), Some("gpt"));
        assert_eq!(clf.classify(&[9, 8]), Some("bert"));
        assert_eq!(clf.classify(&[4, 4, 5]), Some("gpt"), "stable on repeat");
        assert_eq!(TrafficClassifier::default().classify(&[1]), None);
    }

    #[test]
    fn classifier_ties_break_lexicographically() {
        let clf = TrafficClassifier::train(&[("b", vec![1]), ("a", vec![2])]);
        // Feature 3 is equidistant from both centroids.
        assert_eq!(clf.classify(&[3]), Some("a"));
    }
}
