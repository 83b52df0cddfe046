//! Generalized split/merge histogram with `K` sub-buckets per bucket.
//!
//! Section 4 of the paper reports trying "dividing each bucket into more
//! than two parts" and found that *"all alternatives with a small number
//! of sub-buckets (two or three) have comparable performance, with finer
//! subdivisions being worse"* — intuitively, many equi-width sub-buckets
//! make the histogram more Equi-Width than V-Optimal in nature, and under
//! the byte budget every extra counter costs buckets.
//!
//! [`MultiSubHistogram`] implements that ablation: a DADO/DVO-style
//! histogram whose buckets carry `K >= 2` equal-width sub-bucket counters.
//! For `K = 2` it behaves like [`super::SplitMergeHistogram`] (kept
//! separate because the two-counter version is the paper's algorithm and
//! has a leaner hot path). The `subbucket_ablation` bench reproduces the
//! paper's observation.

use crate::bucket::BucketSpan;
use crate::dynamic::deviation::DeviationPolicy;
use crate::histogram::{DynHistogram, ReadHistogram};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Minimum width a bucket must exceed to be splittable.
const MIN_SPLIT_WIDTH: f64 = 1.0 + 1e-9;

/// A bucket with `K` equal-width sub-bucket counters.
#[derive(Debug, Clone, PartialEq)]
struct MBucket {
    lo: f64,
    hi: f64,
    counts: Vec<f64>,
}

impl MBucket {
    fn new(lo: f64, hi: f64, k: usize) -> Self {
        Self {
            lo,
            hi,
            counts: vec![0.0; k],
        }
    }

    fn width(&self) -> f64 {
        self.hi - self.lo
    }

    fn count(&self) -> f64 {
        self.counts.iter().sum()
    }

    fn k(&self) -> usize {
        self.counts.len()
    }

    /// Border positions of the sub-buckets (k + 1 values).
    fn sub_border(&self, i: usize) -> f64 {
        self.lo + self.width() * i as f64 / self.k() as f64
    }

    /// Index of the sub-bucket containing coordinate `x`.
    fn sub_of(&self, x: f64) -> usize {
        let w = self.width();
        if w <= 0.0 {
            return 0;
        }
        (((x - self.lo) / w * self.k() as f64) as usize).min(self.k() - 1)
    }

    /// The uniform density segments of this bucket.
    fn segments(&self) -> Vec<BucketSpan> {
        (0..self.k())
            .map(|i| BucketSpan::new(self.sub_border(i), self.sub_border(i + 1), self.counts[i]))
            .collect()
    }

    /// Deviation measure φ over the sub-bucket frequencies.
    fn phi<P: DeviationPolicy>(&self) -> f64 {
        let w = self.width();
        if w <= 0.0 {
            return 0.0;
        }
        let sub_w = w / self.k() as f64;
        let favg = self.count() / w;
        self.counts
            .iter()
            .map(|&c| sub_w * P::dev(c / sub_w - favg))
            .sum()
    }

    /// Rebuilds a bucket over `[lo, hi)` by integrating `segments` into
    /// `k` fresh equal-width sub-buckets.
    fn from_segments(lo: f64, hi: f64, k: usize, segments: &[BucketSpan]) -> Self {
        let mut b = MBucket::new(lo, hi, k);
        for i in 0..k {
            let a = b.sub_border(i);
            let z = b.sub_border(i + 1);
            b.counts[i] = segments.iter().map(|s| s.mass_in(a, z)).sum();
        }
        b
    }

    /// φ of the bucket that would result from merging `a` and `b`
    /// (Eq. 4 against the pair's current approximation).
    fn merged_phi<P: DeviationPolicy>(a: &MBucket, b: &MBucket) -> f64 {
        let w = b.hi - a.lo;
        if w <= 0.0 {
            return 0.0;
        }
        let favg = (a.count() + b.count()) / w;
        a.segments()
            .iter()
            .chain(b.segments().iter())
            .filter(|s| s.width() > 0.0)
            .map(|s| s.width() * P::dev(s.density() - favg))
            .sum()
    }

    /// Merges two buckets, deducing sub-counters from the old segments.
    fn merge(a: &MBucket, b: &MBucket) -> MBucket {
        let mut segs = a.segments();
        segs.extend(b.segments());
        MBucket::from_segments(a.lo, b.hi, a.k(), &segs)
    }

    /// Splits at the middle sub-border; each child re-buckets its half.
    fn split(&self) -> (MBucket, MBucket) {
        let k = self.k();
        let cut = self.sub_border(k / 2);
        // Guard degenerate cuts (k = 2 gives the exact midpoint; odd k
        // cuts off-center, as close to the middle as borders allow).
        let segs = self.segments();
        let left = MBucket::from_segments(self.lo, cut, k, &segs);
        let right = MBucket::from_segments(cut, self.hi, k, &segs);
        (left, right)
    }
}

/// A split/merge dynamic histogram with `K` sub-buckets per bucket.
///
/// # Examples
/// ```
/// use dh_core::dynamic::{AbsoluteDeviation, MultiSubHistogram};
/// use dh_core::{DynHistogram, ReadHistogram};
///
/// // A DADO-flavored histogram with 4 sub-buckets per bucket.
/// let mut h = MultiSubHistogram::<AbsoluteDeviation>::new(16, 4);
/// for v in 0..2000i64 {
///     h.insert(v % 300);
/// }
/// assert_eq!(h.total_count(), 2000.0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiSubHistogram<P: DeviationPolicy> {
    capacity: usize,
    subs: usize,
    state: MState,
    _policy: PhantomData<P>,
}

#[derive(Debug, Clone)]
enum MState {
    Loading {
        counts: BTreeMap<i64, u64>,
        total: u64,
    },
    Active {
        buckets: Vec<MBucket>,
        total: f64,
    },
}

impl<P: DeviationPolicy> MultiSubHistogram<P> {
    /// Creates a histogram with `capacity` buckets of `subs` sub-buckets
    /// each.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `subs < 2`.
    pub fn new(capacity: usize, subs: usize) -> Self {
        assert!(capacity > 0, "need at least one bucket");
        assert!(subs >= 2, "need at least two sub-buckets, got {subs}");
        Self {
            capacity,
            subs,
            state: MState::Loading {
                counts: BTreeMap::new(),
                total: 0,
            },
            _policy: PhantomData,
        }
    }

    /// Sub-buckets per bucket.
    pub fn sub_buckets(&self) -> usize {
        self.subs
    }

    /// Bucket capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn activate(&mut self) {
        let MState::Loading { counts, total } = &self.state else {
            return;
        };
        let values: Vec<(i64, u64)> = counts.iter().map(|(&v, &c)| (v, c)).collect();
        let total = *total as f64;
        let mut buckets = Vec::with_capacity(values.len());
        for (i, &(v, c)) in values.iter().enumerate() {
            let lo = if i == 0 {
                v as f64
            } else {
                (values[i - 1].0 as f64 + 1.0 + v as f64) / 2.0
            };
            let hi = if i + 1 < values.len() {
                (v as f64 + 1.0 + values[i + 1].0 as f64) / 2.0
            } else {
                v as f64 + 1.0
            };
            let unit = BucketSpan::new(v as f64, v as f64 + 1.0, c as f64);
            buckets.push(MBucket::from_segments(lo, hi, self.subs, &[unit]));
        }
        self.state = MState::Active { buckets, total };
    }

    fn maybe_split_merge(&mut self) {
        let MState::Active { buckets, .. } = &mut self.state else {
            return;
        };
        if buckets.len() < 3 {
            return;
        }
        let mut best_split: Option<(usize, f64)> = None;
        for (i, b) in buckets.iter().enumerate() {
            if b.width() <= MIN_SPLIT_WIDTH {
                continue;
            }
            let phi = b.phi::<P>();
            if best_split.is_none_or(|(_, bp)| phi > bp) {
                best_split = Some((i, phi));
            }
        }
        let Some((s, phi_s)) = best_split else {
            return;
        };
        let mut best_merge: Option<(usize, f64)> = None;
        for i in 0..buckets.len() - 1 {
            if i == s || i + 1 == s {
                continue;
            }
            let phi = MBucket::merged_phi::<P>(&buckets[i], &buckets[i + 1]);
            if best_merge.is_none_or(|(_, bp)| phi < bp) {
                best_merge = Some((i, phi));
            }
        }
        let Some((m, phi_m)) = best_merge else {
            return;
        };
        if phi_s > phi_m {
            let (first, second) = buckets[s].split();
            if s > m {
                buckets[s] = second;
                buckets.insert(s, first);
                let merged = MBucket::merge(&buckets[m], &buckets[m + 1]);
                buckets[m] = merged;
                buckets.remove(m + 1);
            } else {
                let merged = MBucket::merge(&buckets[m], &buckets[m + 1]);
                buckets[m] = merged;
                buckets.remove(m + 1);
                buckets[s] = second;
                buckets.insert(s, first);
            }
        }
    }
}

impl<P: DeviationPolicy> ReadHistogram for MultiSubHistogram<P> {
    fn spans(&self) -> Vec<BucketSpan> {
        match &self.state {
            MState::Loading { counts, .. } => counts
                .iter()
                .map(|(&v, &c)| BucketSpan::new(v as f64, v as f64 + 1.0, c as f64))
                .collect(),
            MState::Active { buckets, .. } => buckets.iter().flat_map(|b| b.segments()).collect(),
        }
    }

    fn total_count(&self) -> f64 {
        match &self.state {
            MState::Loading { total, .. } => *total as f64,
            MState::Active { total, .. } => *total,
        }
    }

    fn num_buckets(&self) -> usize {
        match &self.state {
            MState::Loading { counts, .. } => counts.len(),
            MState::Active { buckets, .. } => buckets.len(),
        }
    }
}

impl<P: DeviationPolicy> DynHistogram for MultiSubHistogram<P> {
    fn as_read(&self) -> &dyn ReadHistogram {
        self
    }

    fn insert(&mut self, v: i64) {
        match &mut self.state {
            MState::Loading { counts, total } => {
                *counts.entry(v).or_insert(0) += 1;
                *total += 1;
                if counts.len() >= self.capacity {
                    self.activate();
                }
            }
            MState::Active { buckets, total } => {
                let x = v as f64 + 0.5;
                *total += 1.0;
                let first_lo = buckets[0].lo;
                let last_hi = buckets.last().expect("nonempty").hi;
                if x < first_lo || x >= last_hi {
                    let fresh = if x < first_lo {
                        let lo = (v as f64).min(first_lo - 1.0);
                        let mut b = MBucket::new(lo, first_lo, self.subs);
                        let s = b.sub_of(x);
                        b.counts[s] = 1.0;
                        buckets.insert(0, b);
                        0usize
                    } else {
                        let hi = (v as f64 + 1.0).max(last_hi + 1.0);
                        let mut b = MBucket::new(last_hi, hi, self.subs);
                        let s = b.sub_of(x);
                        b.counts[s] = 1.0;
                        buckets.push(b);
                        buckets.len() - 1
                    };
                    let _ = fresh;
                    if buckets.len() > self.capacity {
                        let mut best: Option<(usize, f64)> = None;
                        for i in 0..buckets.len() - 1 {
                            let phi = MBucket::merged_phi::<P>(&buckets[i], &buckets[i + 1]);
                            if best.is_none_or(|(_, bp)| phi < bp) {
                                best = Some((i, phi));
                            }
                        }
                        if let Some((m, _)) = best {
                            let merged = MBucket::merge(&buckets[m], &buckets[m + 1]);
                            buckets[m] = merged;
                            buckets.remove(m + 1);
                        }
                    }
                } else {
                    let i = buckets.partition_point(|b| b.lo <= x).saturating_sub(1);
                    let s = buckets[i].sub_of(x);
                    buckets[i].counts[s] += 1.0;
                    self.maybe_split_merge();
                }
            }
        }
    }

    fn delete(&mut self, v: i64) {
        match &mut self.state {
            MState::Loading { counts, total } => {
                if let Some(c) = counts.get_mut(&v) {
                    *c -= 1;
                    if *c == 0 {
                        counts.remove(&v);
                    }
                    *total -= 1;
                }
            }
            MState::Active { buckets, total } => {
                if *total <= 0.0 {
                    return;
                }
                let last_hi = buckets.last().expect("nonempty").hi;
                let x = (v as f64 + 0.5).clamp(buckets[0].lo, last_hi - 1e-12);
                let i = buckets.partition_point(|b| b.lo <= x).saturating_sub(1);
                let mut need = 1.0f64;
                need -= take_mass(&mut buckets[i], x, need);
                let mut d = 1usize;
                while need > 1e-12 && d < buckets.len() {
                    if let Some(c) = i.checked_sub(d) {
                        let at = buckets[c].hi - 1e-12;
                        need -= take_mass(&mut buckets[c], at, need);
                    }
                    if need > 1e-12 {
                        if let Some(b) = buckets.get_mut(i + d) {
                            let at = b.lo;
                            need -= take_mass(b, at, need);
                        }
                    }
                    d += 1;
                }
                *total -= 1.0 - need.max(0.0);
                self.maybe_split_merge();
            }
        }
    }
}

/// Removes up to `need` mass from the bucket, starting at the sub-bucket
/// containing `x` and walking outward. Returns the amount removed.
fn take_mass(b: &mut MBucket, x: f64, need: f64) -> f64 {
    let start = b.sub_of(x);
    let k = b.k();
    let mut taken = 0.0;
    for d in 0..k {
        for idx in [start.checked_sub(d), start.checked_add(d)] {
            let Some(idx) = idx else { continue };
            if idx >= k || taken >= need {
                continue;
            }
            let t = b.counts[idx].min(need - taken);
            if t > 0.0 {
                b.counts[idx] -= t;
                taken += t;
            }
        }
        if taken >= need {
            break;
        }
    }
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::deviation::{AbsoluteDeviation, SquaredDeviation};
    use crate::evaluate::ks_error;
    use crate::DataDistribution;

    type Dado4 = MultiSubHistogram<AbsoluteDeviation>;

    #[test]
    fn construction_guards() {
        let h = Dado4::new(8, 4);
        assert_eq!(h.capacity(), 8);
        assert_eq!(h.sub_buckets(), 4);
    }

    #[test]
    #[should_panic(expected = "at least two sub-buckets")]
    fn rejects_single_sub_bucket() {
        let _ = Dado4::new(8, 1);
    }

    #[test]
    fn bucket_geometry() {
        let b = MBucket::new(0.0, 12.0, 3);
        assert_eq!(b.sub_border(0), 0.0);
        assert_eq!(b.sub_border(1), 4.0);
        assert_eq!(b.sub_border(3), 12.0);
        assert_eq!(b.sub_of(0.0), 0);
        assert_eq!(b.sub_of(5.0), 1);
        assert_eq!(b.sub_of(11.9), 2);
    }

    #[test]
    fn phi_reduces_to_two_sub_case() {
        // K=2 MBucket phi must equal the closed forms of the main engine.
        let mut b = MBucket::new(0.0, 10.0, 2);
        b.counts = vec![8.0, 2.0];
        assert!((b.phi::<AbsoluteDeviation>() - 6.0).abs() < 1e-12);
        assert!((b.phi::<SquaredDeviation>() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn merge_and_split_preserve_mass() {
        let mut a = MBucket::new(0.0, 4.0, 4);
        a.counts = vec![1.0, 2.0, 3.0, 4.0];
        let mut b = MBucket::new(4.0, 8.0, 4);
        b.counts = vec![4.0, 3.0, 2.0, 1.0];
        let m = MBucket::merge(&a, &b);
        assert!((m.count() - 20.0).abs() < 1e-9);
        assert_eq!(m.k(), 4);
        let (l, r) = m.split();
        assert!((l.count() + r.count() - 20.0).abs() < 1e-9);
        assert_eq!(l.hi, r.lo);
    }

    #[test]
    fn tracks_distribution_with_various_k() {
        for k in [2usize, 3, 4, 8] {
            let mut h = MultiSubHistogram::<AbsoluteDeviation>::new(24, k);
            let mut truth = DataDistribution::new();
            for i in 0..10_000i64 {
                let v = (i * 13) % 600;
                h.insert(v);
                truth.insert(v);
            }
            let ks = ks_error(&h, &truth);
            assert!(ks < 0.08, "k={k}: ks={ks}");
            assert!((h.total_count() - 10_000.0).abs() < 1e-6);
            assert_eq!(h.num_buckets(), 24);
        }
    }

    #[test]
    fn deletions_spill_and_stay_nonnegative() {
        let mut h = MultiSubHistogram::<AbsoluteDeviation>::new(8, 3);
        for v in 0..500i64 {
            h.insert(v % 50);
        }
        for v in 0..400i64 {
            h.delete(v % 50);
        }
        assert!((h.total_count() - 100.0).abs() < 1e-6);
        assert!(h.spans().iter().all(|s| s.count >= -1e-9));
    }

    #[test]
    fn out_of_range_growth() {
        let mut h = MultiSubHistogram::<SquaredDeviation>::new(5, 3);
        for v in [100, 110, 120, 130, 140] {
            h.insert(v);
        }
        h.insert(0);
        h.insert(500);
        assert_eq!(h.num_buckets(), 5);
        let spans = h.spans();
        assert!(spans[0].lo <= 0.0);
        assert!(spans.last().unwrap().hi >= 501.0);
    }
}
