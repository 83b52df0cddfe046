//! Exact data distributions: the ground truth histograms approximate.
//!
//! [`DataDistribution`] tracks the exact multiset of live values under
//! insertions and deletions. Experiments replay the same update stream into
//! a distribution and into the histograms under test, then compare the two
//! with the KS statistic (see [`crate::evaluate`]).

use dh_stats::StepCdf;
use std::collections::BTreeMap;

/// An exact, updateable multiset of integer values with frequency lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataDistribution {
    freq: BTreeMap<i64, u64>,
    total: u64,
}

impl DataDistribution {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the distribution of a slice of values.
    pub fn from_values(values: &[i64]) -> Self {
        let mut d = Self::new();
        for &v in values {
            d.insert(v);
        }
        d
    }

    /// Builds from a `(value, frequency)` table.
    pub fn from_frequencies(pairs: impl IntoIterator<Item = (i64, u64)>) -> Self {
        let mut freq = BTreeMap::new();
        let mut total = 0u64;
        for (v, c) in pairs {
            if c > 0 {
                *freq.entry(v).or_insert(0) += c;
                total += c;
            }
        }
        Self { freq, total }
    }

    /// Records one occurrence of `v`.
    pub fn insert(&mut self, v: i64) {
        *self.freq.entry(v).or_insert(0) += 1;
        self.total += 1;
    }

    /// Removes one occurrence of `v`. Returns `true` if the value was live.
    pub fn delete(&mut self, v: i64) -> bool {
        match self.freq.get_mut(&v) {
            Some(c) => {
                *c -= 1;
                if *c == 0 {
                    self.freq.remove(&v);
                }
                self.total -= 1;
                true
            }
            None => false,
        }
    }

    /// Exact frequency of `v`.
    pub fn frequency(&self, v: i64) -> u64 {
        self.freq.get(&v).copied().unwrap_or(0)
    }

    /// Number of live data points.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct live values.
    pub fn distinct(&self) -> usize {
        self.freq.len()
    }

    /// Whether no values are live.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest live value, if any.
    pub fn min(&self) -> Option<i64> {
        self.freq.keys().next().copied()
    }

    /// Largest live value, if any.
    pub fn max(&self) -> Option<i64> {
        self.freq.keys().next_back().copied()
    }

    /// Exact count of live values `<= v`.
    pub fn count_le(&self, v: i64) -> u64 {
        self.freq.range(..=v).map(|(_, &c)| c).sum()
    }

    /// Exact count of live values in `[a, b]`.
    pub fn count_range(&self, a: i64, b: i64) -> u64 {
        if a > b {
            return 0;
        }
        self.freq.range(a..=b).map(|(_, &c)| c).sum()
    }

    /// Iterates `(value, frequency)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.freq.iter().map(|(&v, &c)| (v, c))
    }

    /// The `(value, frequency)` table as a vector.
    pub fn frequency_table(&self) -> Vec<(i64, u64)> {
        self.iter().collect()
    }

    /// The exact step CDF of this distribution **in the continuous
    /// embedding**: value `v` occupies `[v, v+1)`, so its mass registers at
    /// breakpoint `v + 1`.
    pub fn step_cdf(&self) -> StepCdf {
        StepCdf::from_counts(self.iter().map(|(v, c)| (v as f64 + 1.0, c as f64)))
    }

    /// The exact *continuous* CDF of this distribution: one unit-width
    /// uniform span per distinct value. This is the ground-truth side of
    /// every KS comparison in this workspace — both truth and histogram
    /// live in the same continuous embedding, so a histogram that stores
    /// the distribution exactly (e.g. all-singular buckets) scores KS = 0,
    /// and at every integer coordinate `x` the CDF equals the true
    /// fraction of values `< x`.
    pub fn exact_cdf(&self) -> crate::bucket::HistogramCdf {
        crate::bucket::HistogramCdf::from_spans(
            self.iter()
                .map(|(v, c)| crate::bucket::BucketSpan::new(v as f64, v as f64 + 1.0, c as f64))
                .collect(),
        )
    }

    /// Materializes the multiset as a sorted vector of values.
    pub fn to_values(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.total as usize);
        for (v, c) in self.iter() {
            out.extend(std::iter::repeat_n(v, c as usize));
        }
        out
    }
}

impl FromIterator<i64> for DataDistribution {
    fn from_iter<T: IntoIterator<Item = i64>>(iter: T) -> Self {
        let mut d = Self::new();
        for v in iter {
            d.insert(v);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_delete_roundtrip() {
        let mut d = DataDistribution::new();
        d.insert(5);
        d.insert(5);
        d.insert(2);
        assert_eq!(d.total(), 3);
        assert_eq!(d.frequency(5), 2);
        assert!(d.delete(5));
        assert_eq!(d.frequency(5), 1);
        assert!(d.delete(5));
        assert_eq!(d.frequency(5), 0);
        assert!(!d.delete(5), "deleting a dead value must fail");
        assert_eq!(d.total(), 1);
    }

    #[test]
    fn counts_and_ranges() {
        let d = DataDistribution::from_values(&[1, 3, 3, 7, 9]);
        assert_eq!(d.count_le(0), 0);
        assert_eq!(d.count_le(3), 3);
        assert_eq!(d.count_range(3, 7), 3);
        assert_eq!(d.count_range(8, 2), 0);
        assert_eq!(d.min(), Some(1));
        assert_eq!(d.max(), Some(9));
        assert_eq!(d.distinct(), 4);
    }

    #[test]
    fn from_frequencies_skips_zeros() {
        let d = DataDistribution::from_frequencies([(1, 2), (4, 0), (9, 1)]);
        assert_eq!(d.distinct(), 2);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn step_cdf_uses_continuous_embedding() {
        use dh_stats::Cdf;
        let d = DataDistribution::from_values(&[0, 0, 10]);
        let c = d.step_cdf();
        // Mass of value 0 registers at breakpoint 1, not 0.
        assert_eq!(c.fraction_le(0.0), 0.0);
        assert!((c.fraction_le(1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.fraction_le(11.0), 1.0);
    }

    #[test]
    fn to_values_is_sorted_multiset() {
        let d = DataDistribution::from_values(&[9, 1, 3, 3]);
        assert_eq!(d.to_values(), vec![1, 3, 3, 9]);
    }

    #[test]
    fn from_iterator() {
        let d: DataDistribution = [4i64, 4, 4].into_iter().collect();
        assert_eq!(d.frequency(4), 3);
    }
}
