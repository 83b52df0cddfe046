//! The split/merge dynamic histograms of Section 4: DVO and DADO.
//!
//! Each bucket stores its borders and **two sub-bucket counters** over
//! equal halves of its value range — the minimal internal structure that
//! lets the algorithm *measure* the V-Optimal (or AD-Optimal) partition
//! constraint, which plain border+count buckets cannot (Section 4's
//! discussion of Eq. 3).
//!
//! Repartitioning is a split-merge pair:
//!
//! * **split** the bucket with the largest deviation measure φ along its
//!   sub-bucket border (splitting never increases φ; the new buckets start
//!   with equal sub-counters and φ = 0);
//! * **merge** the adjacent pair whose merged bucket has the smallest
//!   combined φ (merging never decreases φ).
//!
//! Theorem 4.1 shows the optimal triple is found by these two linear scans.
//! The pair is executed when `φ(split) > φ(merge)`, i.e. when the change
//! `Δφ = φ_M - φ_S` of Eq. (4) is negative — the paper's most aggressive
//! (zero) threshold.

use crate::bucket::BucketSpan;
use crate::dynamic::deviation::{AbsoluteDeviation, DeviationPolicy, SquaredDeviation};
use crate::histogram::{DynHistogram, ReadHistogram};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Minimum width a bucket must exceed to be splittable: splitting a bucket
/// of unit width (one value) cannot improve a histogram over integer data.
const MIN_SPLIT_WIDTH: f64 = 1.0 + 1e-9;

/// One DVO/DADO bucket: borders plus two sub-bucket counters over the
/// equal halves of `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SmBucket {
    lo: f64,
    hi: f64,
    /// Count in `[lo, mid)`.
    left: f64,
    /// Count in `[mid, hi)`.
    right: f64,
}

impl SmBucket {
    fn mid(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    fn width(&self) -> f64 {
        self.hi - self.lo
    }

    fn count(&self) -> f64 {
        self.left + self.right
    }

    /// The deviation measure φ of this bucket: with equal-width
    /// sub-buckets, frequencies are `2c/w` and the average is `(cl+cr)/w`,
    /// so `φ = Σ_j d(f_j - f̄) = w·d((cl-cr)/w)` summed over both halves.
    fn phi<P: DeviationPolicy>(&self) -> f64 {
        let w = self.width();
        if w <= 0.0 {
            return 0.0;
        }
        let half = w / 2.0;
        let favg = self.count() / w;
        half * P::dev(self.left / half - favg) + half * P::dev(self.right / half - favg)
    }

    /// The four uniform density segments of two adjacent buckets.
    fn segments_of_pair(a: &SmBucket, b: &SmBucket) -> [BucketSpan; 4] {
        [
            BucketSpan::new(a.lo, a.mid(), a.left),
            BucketSpan::new(a.mid(), a.hi, a.right),
            BucketSpan::new(b.lo, b.mid(), b.left),
            BucketSpan::new(b.mid(), b.hi, b.right),
        ]
    }

    /// φ of the bucket that would result from merging `a` and `b`,
    /// evaluated per Eq. (4) against the pair's current piecewise-uniform
    /// approximation (the only "truth" available to the algorithm).
    fn merged_phi<P: DeviationPolicy>(a: &SmBucket, b: &SmBucket) -> f64 {
        let w = b.hi - a.lo;
        if w <= 0.0 {
            return 0.0;
        }
        let favg = (a.count() + b.count()) / w;
        Self::segments_of_pair(a, b)
            .iter()
            .filter(|s| s.width() > 0.0)
            .map(|s| s.width() * P::dev(s.density() - favg))
            .sum()
    }

    /// Merges `a` and `b` into one bucket, deducing the new sub-bucket
    /// counters from the old configuration (Fig. 4's "counters in the
    /// merged bucket are deduced from the old configuration").
    fn merge(a: &SmBucket, b: &SmBucket) -> SmBucket {
        let lo = a.lo;
        let hi = b.hi;
        let mid = (lo + hi) / 2.0;
        let left: f64 = Self::segments_of_pair(a, b)
            .iter()
            .map(|s| s.mass_in(lo, mid))
            .sum();
        let right = (a.count() + b.count()) - left;
        SmBucket {
            lo,
            hi,
            left,
            right: right.max(0.0),
        }
    }

    /// Splits this bucket along its sub-bucket border; each new bucket's
    /// sub-counters are equal, so both start with φ = 0.
    fn split(&self) -> (SmBucket, SmBucket) {
        let m = self.mid();
        (
            SmBucket {
                lo: self.lo,
                hi: m,
                left: self.left / 2.0,
                right: self.left / 2.0,
            },
            SmBucket {
                lo: m,
                hi: self.hi,
                left: self.right / 2.0,
                right: self.right / 2.0,
            },
        )
    }
}

/// The split/merge dynamic histogram, generic over the deviation measure.
///
/// Use the [`DvoHistogram`] and [`DadoHistogram`] aliases.
///
/// # Examples
/// ```
/// use dh_core::dynamic::DadoHistogram;
/// use dh_core::{DynHistogram, ReadHistogram};
///
/// let mut h = DadoHistogram::new(24);
/// for i in 0..5000i64 {
///     h.insert((i * 31) % 400);
/// }
/// assert_eq!(h.total_count(), 5000.0);
/// assert_eq!(h.num_buckets(), 24);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMergeHistogram<P: DeviationPolicy> {
    capacity: usize,
    state: State,
    /// Number of split-merge reorganizations performed.
    reorganizations: u64,
    _policy: PhantomData<P>,
}

/// Dynamic V-Optimal: squared deviations (Section 4).
pub type DvoHistogram = SplitMergeHistogram<SquaredDeviation>;

/// Dynamic Average-Deviation Optimal: absolute deviations (Section 4.1) —
/// the paper's best dynamic histogram.
pub type DadoHistogram = SplitMergeHistogram<AbsoluteDeviation>;

#[derive(Debug, Clone)]
enum State {
    Loading {
        counts: BTreeMap<i64, u64>,
        total: u64,
    },
    Active {
        buckets: Vec<SmBucket>,
        total: f64,
    },
}

impl<P: DeviationPolicy> SplitMergeHistogram<P> {
    /// Creates a histogram with `capacity` buckets (each holding two
    /// sub-bucket counters).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "{} needs at least one bucket", P::NAME);
        Self {
            capacity,
            state: State::Loading {
                counts: BTreeMap::new(),
                total: 0,
            },
            reorganizations: 0,
            _policy: PhantomData,
        }
    }

    /// The histogram's bucket capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The algorithm name from the deviation policy ("DVO" or "DADO").
    pub fn name(&self) -> &'static str {
        P::NAME
    }

    /// Number of split-merge reorganizations performed so far.
    pub fn reorganization_count(&self) -> u64 {
        self.reorganizations
    }

    /// Whether the histogram is still exact (loading phase).
    pub fn is_loading(&self) -> bool {
        matches!(self.state, State::Loading { .. })
    }

    /// Builds buckets from the loading-phase exact counts: borders placed
    /// between consecutive distinct values, each value's unit-interval mass
    /// integrated into the sub-buckets it overlaps.
    fn activate(&mut self) {
        let State::Loading { counts, total } = &self.state else {
            return;
        };
        let values: Vec<(i64, u64)> = counts.iter().map(|(&v, &c)| (v, c)).collect();
        let total = *total as f64;
        let mut buckets = Vec::with_capacity(values.len());
        for (i, &(v, _)) in values.iter().enumerate() {
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
            buckets.push(SmBucket {
                lo,
                hi,
                left: 0.0,
                right: 0.0,
            });
        }
        // Deposit each value's mass into the sub-halves it overlaps. The
        // right half takes the rest of the mass, not its own integral:
        // the unit span of `i64::MAX` rounds to a point at the bucket's
        // upper edge, which no half-open half would count.
        for (i, &(v, c)) in values.iter().enumerate() {
            let b = &mut buckets[i];
            let unit = BucketSpan::new(v as f64, v as f64 + 1.0, c as f64);
            let left = unit.mass_in(b.lo, b.mid());
            b.left += left;
            b.right += c as f64 - left;
        }
        self.state = State::Active { buckets, total };
    }

    /// Index of the bucket containing continuous coordinate `x` (clamped
    /// to the bucket range).
    fn bucket_of(buckets: &[SmBucket], x: f64) -> usize {
        buckets.partition_point(|b| b.lo <= x).saturating_sub(1)
    }

    /// Linear scan for the best split candidate: the splittable bucket
    /// with the largest φ (Theorem 4.1).
    fn find_best_to_split(buckets: &[SmBucket]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, b) in buckets.iter().enumerate() {
            if b.width() <= MIN_SPLIT_WIDTH {
                continue;
            }
            let phi = b.phi::<P>();
            if best.is_none_or(|(_, bp)| phi > bp) {
                best = Some((i, phi));
            }
        }
        best
    }

    /// Linear scan for the best merge candidate: the adjacent pair `(i,
    /// i+1)` minimizing the merged φ of Eq. (4). `exclude` removes pairs
    /// touching a bucket that is about to be split.
    fn find_best_to_merge(buckets: &[SmBucket], exclude: Option<usize>) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..buckets.len().saturating_sub(1) {
            if exclude.is_some_and(|s| i == s || i + 1 == s) {
                continue;
            }
            let phi = SmBucket::merged_phi::<P>(&buckets[i], &buckets[i + 1]);
            if best.is_none_or(|(_, bp)| phi < bp) {
                best = Some((i, phi));
            }
        }
        best
    }

    /// One repartitioning attempt after an in-range update: split the
    /// worst bucket and merge the most similar pair when that lowers φ.
    fn maybe_split_merge(&mut self) {
        let State::Active { buckets, .. } = &mut self.state else {
            return;
        };
        if buckets.len() < 3 {
            return;
        }
        let Some((s, phi_s)) = Self::find_best_to_split(buckets) else {
            return;
        };
        let Some((m, phi_m)) = Self::find_best_to_merge(buckets, Some(s)) else {
            return;
        };
        if phi_s > phi_m {
            // Order matters for indices: do the higher index first.
            let (first, second) = buckets[s].split();
            if s > m {
                buckets[s] = second;
                buckets.insert(s, first);
                let merged = SmBucket::merge(&buckets[m], &buckets[m + 1]);
                buckets[m] = merged;
                buckets.remove(m + 1);
            } else {
                let merged = SmBucket::merge(&buckets[m], &buckets[m + 1]);
                buckets[m] = merged;
                buckets.remove(m + 1);
                buckets[s] = second;
                buckets.insert(s, first);
            }
            self.reorganizations += 1;
        }
    }
}

impl<P: DeviationPolicy> ReadHistogram for SplitMergeHistogram<P> {
    /// Two spans per bucket — the sub-bucket counters are stored state, so
    /// estimation uses them at full resolution.
    fn spans(&self) -> Vec<BucketSpan> {
        match &self.state {
            State::Loading { counts, .. } => counts
                .iter()
                .map(|(&v, &c)| BucketSpan::new(v as f64, v as f64 + 1.0, c as f64))
                .collect(),
            State::Active { buckets, .. } => buckets
                .iter()
                .flat_map(|b| {
                    [
                        BucketSpan::new(b.lo, b.mid(), b.left),
                        BucketSpan::new(b.mid(), b.hi, b.right),
                    ]
                })
                .collect(),
        }
    }

    fn total_count(&self) -> f64 {
        match &self.state {
            State::Loading { total, .. } => *total as f64,
            State::Active { total, .. } => *total,
        }
    }

    /// Logical bucket count (each logical bucket renders as two spans).
    fn num_buckets(&self) -> usize {
        match &self.state {
            State::Loading { counts, .. } => counts.len(),
            State::Active { buckets, .. } => buckets.len(),
        }
    }
}

impl<P: DeviationPolicy> DynHistogram for SplitMergeHistogram<P> {
    fn as_read(&self) -> &dyn ReadHistogram {
        self
    }

    fn insert(&mut self, v: i64) {
        match &mut self.state {
            State::Loading { counts, total } => {
                *counts.entry(v).or_insert(0) += 1;
                *total += 1;
                if counts.len() >= self.capacity {
                    self.activate();
                }
            }
            State::Active { buckets, total } => {
                let x = v as f64 + 0.5;
                *total += 1.0;
                if x < buckets[0].lo || x >= buckets.last().expect("nonempty").hi {
                    // Beyond the end buckets: borrow a bucket for the new
                    // point (Fig. 3), spanning the gap up to the old edge
                    // so the tiling stays contiguous, then merge the most
                    // similar pair to pay the bucket back.
                    let fresh = if x < buckets[0].lo {
                        let hi = buckets[0].lo;
                        let lo = (v as f64).min(hi - 1.0);
                        let mid = (lo + hi) / 2.0;
                        let (l, r) = if x < mid { (1.0, 0.0) } else { (0.0, 1.0) };
                        buckets.insert(
                            0,
                            SmBucket {
                                lo,
                                hi,
                                left: l,
                                right: r,
                            },
                        );
                        0
                    } else {
                        let lo = buckets.last().expect("nonempty").hi;
                        let hi = (v as f64 + 1.0).max(lo + 1.0);
                        let mid = (lo + hi) / 2.0;
                        let (l, r) = if x < mid { (1.0, 0.0) } else { (0.0, 1.0) };
                        buckets.push(SmBucket {
                            lo,
                            hi,
                            left: l,
                            right: r,
                        });
                        buckets.len() - 1
                    };
                    if buckets.len() > self.capacity {
                        // The paper's findBestToMerge scans all pairs; the
                        // freshly borrowed bucket may itself take part.
                        let _ = fresh;
                        if let Some((m, _)) = Self::find_best_to_merge(buckets, None) {
                            let merged = SmBucket::merge(&buckets[m], &buckets[m + 1]);
                            buckets[m] = merged;
                            buckets.remove(m + 1);
                            self.reorganizations += 1;
                        }
                    }
                } else {
                    let i = Self::bucket_of(buckets, x);
                    let b = &mut buckets[i];
                    if x < b.mid() {
                        b.left += 1.0;
                    } else {
                        b.right += 1.0;
                    }
                    self.maybe_split_merge();
                }
            }
        }
    }

    fn delete(&mut self, v: i64) {
        match &mut self.state {
            State::Loading { counts, total } => {
                if let Some(c) = counts.get_mut(&v) {
                    *c -= 1;
                    if *c == 0 {
                        counts.remove(&v);
                    }
                    *total -= 1;
                }
            }
            State::Active { buckets, total } => {
                if *total <= 0.0 {
                    return;
                }
                let last_hi = buckets.last().expect("nonempty").hi;
                let x = (v as f64 + 0.5).clamp(buckets[0].lo, last_hi - 1e-12);
                let i = Self::bucket_of(buckets, x);
                // Remove one unit of mass. Counts are fractional after
                // splits and merges, so take what the target bucket holds,
                // spilling the remainder to the closest buckets outward
                // (Section 7.3's spill policy).
                let mut need = 1.0f64;
                let prefer_left = x < buckets[i].mid();
                need -= take_from(&mut buckets[i], prefer_left, need);
                let mut d = 1usize;
                while need > 1e-12 && d < buckets.len() {
                    if let Some(c) = i.checked_sub(d) {
                        // Left neighbor: its right sub-bucket is nearer.
                        need -= take_from(&mut buckets[c], false, need);
                    }
                    if need > 1e-12 {
                        if let Some(b) = buckets.get_mut(i + d) {
                            need -= take_from(b, true, need);
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

/// Removes up to `need` mass from a bucket, draining the preferred
/// sub-bucket first. Returns the amount actually removed.
fn take_from(b: &mut SmBucket, prefer_left: bool, need: f64) -> f64 {
    let mut taken = 0.0;
    let order: [bool; 2] = if prefer_left {
        [true, false]
    } else {
        [false, true]
    };
    for left in order {
        if taken >= need {
            break;
        }
        let counter = if left { &mut b.left } else { &mut b.right };
        let t = counter.min(need - taken);
        if t > 0.0 {
            *counter -= t;
            taken += t;
        }
    }
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::ks_error;
    use crate::DataDistribution;

    #[test]
    fn phi_zero_for_balanced_sub_buckets() {
        let b = SmBucket {
            lo: 0.0,
            hi: 10.0,
            left: 5.0,
            right: 5.0,
        };
        assert_eq!(b.phi::<SquaredDeviation>(), 0.0);
        assert_eq!(b.phi::<AbsoluteDeviation>(), 0.0);
    }

    #[test]
    fn phi_closed_forms() {
        // w=10, cl=8, cr=2: DADO phi = |cl-cr| = 6; DVO phi = (cl-cr)^2/w = 3.6.
        let b = SmBucket {
            lo: 0.0,
            hi: 10.0,
            left: 8.0,
            right: 2.0,
        };
        assert!((b.phi::<AbsoluteDeviation>() - 6.0).abs() < 1e-12);
        assert!((b.phi::<SquaredDeviation>() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn split_produces_zero_phi_children() {
        let b = SmBucket {
            lo: 0.0,
            hi: 8.0,
            left: 6.0,
            right: 2.0,
        };
        let (l, r) = b.split();
        assert_eq!(l.count() + r.count(), b.count());
        assert_eq!(l.phi::<SquaredDeviation>(), 0.0);
        assert_eq!(r.phi::<SquaredDeviation>(), 0.0);
        assert_eq!(l.hi, r.lo);
        assert_eq!(l.lo, b.lo);
        assert_eq!(r.hi, b.hi);
    }

    #[test]
    fn merge_preserves_mass_and_borders() {
        let a = SmBucket {
            lo: 0.0,
            hi: 4.0,
            left: 3.0,
            right: 1.0,
        };
        let b = SmBucket {
            lo: 4.0,
            hi: 12.0,
            left: 0.0,
            right: 8.0,
        };
        let m = SmBucket::merge(&a, &b);
        assert_eq!(m.lo, 0.0);
        assert_eq!(m.hi, 12.0);
        assert!((m.count() - 12.0).abs() < 1e-12);
        // Left half [0,6): segments give 3 + 1 + 0 = 4.
        assert!((m.left - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merged_phi_at_least_sum_of_parts_for_squared() {
        // "Merging never decreases phi" — check Eq. 4's phi_M dominates
        // the children's own phi for the squared measure.
        let a = SmBucket {
            lo: 0.0,
            hi: 4.0,
            left: 9.0,
            right: 1.0,
        };
        let b = SmBucket {
            lo: 4.0,
            hi: 8.0,
            left: 2.0,
            right: 8.0,
        };
        let pm = SmBucket::merged_phi::<SquaredDeviation>(&a, &b);
        let parts = a.phi::<SquaredDeviation>() + b.phi::<SquaredDeviation>();
        assert!(pm >= parts - 1e-9, "phi_M={pm} < parts={parts}");
    }

    #[test]
    fn merged_phi_zero_for_identical_flat_pair() {
        let a = SmBucket {
            lo: 0.0,
            hi: 4.0,
            left: 2.0,
            right: 2.0,
        };
        let b = SmBucket {
            lo: 4.0,
            hi: 8.0,
            left: 2.0,
            right: 2.0,
        };
        assert!(SmBucket::merged_phi::<SquaredDeviation>(&a, &b) < 1e-12);
    }

    #[test]
    fn loading_then_activation() {
        let mut h = DadoHistogram::new(4);
        for v in [10, 20, 30] {
            h.insert(v);
        }
        assert!(h.is_loading());
        h.insert(40);
        assert!(!h.is_loading());
        assert_eq!(h.num_buckets(), 4);
        assert_eq!(h.total_count(), 4.0);
        // Spans: two per bucket.
        assert_eq!(h.spans().len(), 8);
    }

    #[test]
    fn buckets_stay_contiguous_and_capacity_bounded() {
        let mut h = DadoHistogram::new(12);
        for i in 0..20_000i64 {
            h.insert((i * 13) % 700);
        }
        assert_eq!(h.num_buckets(), 12);
        let spans = h.spans();
        for w in spans.windows(2) {
            assert!(
                (w[0].hi - w[1].lo).abs() < 1e-9,
                "gap or overlap between spans: {w:?}"
            );
        }
        assert!((h.total_count() - 20_000.0).abs() < 1e-6);
        let mass: f64 = spans.iter().map(|s| s.count).sum();
        assert!((mass - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_values_grow_domain() {
        let mut h = DvoHistogram::new(6);
        for v in [100, 110, 120, 130, 140, 150] {
            h.insert(v);
        }
        h.insert(10);
        h.insert(300);
        assert_eq!(h.num_buckets(), 6);
        let spans = h.spans();
        assert!(spans[0].lo <= 10.0);
        assert!(spans.last().unwrap().hi >= 301.0);
        assert_eq!(h.total_count(), 8.0);
    }

    #[test]
    fn dado_tracks_skewed_distribution() {
        let mut h = DadoHistogram::new(32);
        let mut truth = DataDistribution::new();
        // Zipf-ish: value v with frequency ~ 1/(v+1).
        for v in 0..200i64 {
            let reps = 2000 / (v + 1);
            for _ in 0..reps {
                h.insert(v);
                truth.insert(v);
            }
        }
        let ks = ks_error(&h, &truth);
        assert!(ks < 0.1, "DADO should capture static skew, ks={ks}");
    }

    #[test]
    fn dado_adapts_to_spike() {
        let mut h = DadoHistogram::new(16);
        let mut truth = DataDistribution::new();
        // 80% of the stream is a spike at 500, interleaved with a uniform
        // background (random-order arrival, as in the paper's workloads).
        for i in 0..10_000i64 {
            let v = if i % 5 != 0 { 500 } else { (i * 7) % 1000 };
            h.insert(v);
            truth.insert(v);
        }
        let ks = ks_error(&h, &truth);
        assert!(ks < 0.15, "DADO should adapt to the spike, ks={ks}");
        // The spike estimate should be much better than uniform smearing.
        let est = h.estimate_eq(500);
        assert!(est > 2000.0, "spike estimate too low: {est}");
    }

    #[test]
    fn deletion_decrements_and_spills() {
        let mut h = DadoHistogram::new(4);
        for v in [10, 20, 30, 40] {
            h.insert(v);
        }
        h.delete(10);
        assert_eq!(h.total_count(), 3.0);
        // Bucket for 10 is now empty; deleting 10 again spills to the
        // closest non-empty bucket.
        h.delete(10);
        assert_eq!(h.total_count(), 2.0);
        // Exhaust everything.
        h.delete(20);
        h.delete(30);
        assert_eq!(h.total_count(), 0.0);
        h.delete(40); // nothing left; must not underflow
        assert_eq!(h.total_count(), 0.0);
    }

    #[test]
    fn insert_delete_storm_keeps_counts_nonnegative() {
        let mut h = DadoHistogram::new(8);
        for i in 0..3000i64 {
            h.insert(i % 100);
            if i % 3 == 0 {
                h.delete((i / 2) % 100);
            }
        }
        for s in h.spans() {
            assert!(s.count >= 0.0, "negative span count: {s:?}");
        }
        let expected = 3000.0 - 1000.0;
        assert!((h.total_count() - expected).abs() < 1e-6);
    }

    #[test]
    fn dvo_and_dado_reorganize() {
        let mut dvo = DvoHistogram::new(8);
        let mut dado = DadoHistogram::new(8);
        for i in 0..5000i64 {
            let v = if i % 10 == 0 { 77 } else { (i * 17) % 500 };
            dvo.insert(v);
            dado.insert(v);
        }
        assert!(dvo.reorganization_count() > 0);
        assert!(dado.reorganization_count() > 0);
        assert_eq!(dvo.name(), "DVO");
        assert_eq!(dado.name(), "DADO");
    }

    #[test]
    fn capacity_one_survives() {
        let mut h = DadoHistogram::new(1);
        for v in 0..50i64 {
            h.insert(v);
        }
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.total_count(), 50.0);
    }
}
