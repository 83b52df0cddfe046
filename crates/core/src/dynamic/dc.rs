//! The Dynamic Compressed (DC) histogram of Section 3.
//!
//! A Compressed histogram stores high-frequency values in *singular*
//! (singleton) buckets and partitions the rest equi-depth into *regular*
//! buckets. DC maintains this structure incrementally:
//!
//! 1. **Loading phase** — the first `n` distinct values each get their own
//!    bucket, with borders placed between them.
//! 2. **Maintenance** — each new value is routed to its bucket by binary
//!    search and counted; values beyond the end buckets extend them.
//! 3. **Repartitioning** — when a chi-square test rejects the hypothesis
//!    that regular-bucket counts are uniform (p-value `<= alpha_min`,
//!    default `1e-6`), bucket borders are recomputed to equalize regular
//!    counts. Singular buckets whose frequency fell below `N/n` are
//!    demoted; unit-width regular buckets with frequency at least `N/n`
//!    are promoted.
//!
//! Processing a point costs `O(log n)` plus an `O(1)` incremental
//! chi-square update; repartitioning costs `O(n)` and is rare, giving the
//! paper's `O(N log n)` total.

use crate::bucket::BucketSpan;
use crate::histogram::{DynHistogram, ReadHistogram};
use dh_stats::chi2::chi2_pvalue;
use std::collections::BTreeMap;

/// Tolerance for unit-width detection on fractional borders.
const WIDTH_EPS: f64 = 1e-9;

/// One DC bucket: left border, point count and singular flag. The right
/// border is the next bucket's left border (Section 3.1's space layout).
#[derive(Debug, Clone, Copy, PartialEq)]
struct DcBucket {
    lo: f64,
    count: f64,
    singular: bool,
}

/// The Dynamic Compressed histogram (Section 3).
///
/// # Examples
/// ```
/// use dh_core::dynamic::DcHistogram;
/// use dh_core::{DynHistogram, ReadHistogram};
///
/// let mut h = DcHistogram::new(16);
/// for v in 0..1000 {
///     h.insert(v % 50);
/// }
/// assert_eq!(h.total_count(), 1000.0);
/// let est = h.estimate_range(0, 24);
/// assert!((est - 500.0).abs() < 60.0, "estimate {est}");
/// ```
#[derive(Debug, Clone)]
pub struct DcHistogram {
    /// Target number of buckets `n`.
    capacity: usize,
    /// Significance floor for the chi-square repartition trigger.
    alpha_min: f64,
    state: State,
    /// Number of repartitions performed (exposed for experiments; the
    /// paper attributes DC's errors to border relocations).
    repartitions: u64,
}

#[derive(Debug, Clone)]
enum State {
    /// Exact per-value counts until `capacity` distinct values are seen.
    Loading {
        counts: BTreeMap<i64, u64>,
        total: u64,
    },
    /// The bucketized histogram.
    Active(Active),
}

#[derive(Debug, Clone)]
struct Active {
    /// Buckets sorted by `lo`, tiling `[buckets[0].lo, hi)` contiguously.
    buckets: Vec<DcBucket>,
    /// Right border of the last bucket.
    hi: f64,
    /// Total mass.
    total: f64,
    /// Sum of regular-bucket counts (incremental chi-square state).
    reg_sum: f64,
    /// Sum of squared regular-bucket counts.
    reg_sumsq: f64,
    /// Number of regular buckets.
    reg_n: usize,
}

impl DcHistogram {
    /// Creates a DC histogram with `capacity` buckets and the paper's
    /// default `alpha_min = 1e-6`.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_alpha(capacity, 1e-6)
    }

    /// Creates a DC histogram with an explicit chi-square significance
    /// floor (`0` freezes the initial partition; `1` repartitions after
    /// every insertion).
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `alpha_min` is outside `[0, 1]`.
    pub fn with_alpha(capacity: usize, alpha_min: f64) -> Self {
        assert!(capacity > 0, "DC needs at least one bucket");
        assert!(
            (0.0..=1.0).contains(&alpha_min),
            "alpha_min must be in [0,1], got {alpha_min}"
        );
        Self {
            capacity,
            alpha_min,
            state: State::Loading {
                counts: BTreeMap::new(),
                total: 0,
            },
            repartitions: 0,
        }
    }

    /// Target bucket count `n`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many times the histogram has repartitioned so far.
    pub fn repartition_count(&self) -> u64 {
        self.repartitions
    }

    /// Whether the histogram is still in its exact loading phase.
    pub fn is_loading(&self) -> bool {
        matches!(self.state, State::Loading { .. })
    }

    /// Transitions from loading to the bucketized representation.
    fn activate(&mut self) {
        let State::Loading { counts, total } = &self.state else {
            return;
        };
        debug_assert!(!counts.is_empty());
        let values: Vec<(i64, u64)> = counts.iter().map(|(&v, &c)| (v, c)).collect();
        let total = *total as f64;

        // Borders between consecutive distinct values: the border after
        // value v_i is the midpoint between v_i's unit interval end and
        // v_{i+1}'s start.
        let mut buckets = Vec::with_capacity(values.len());
        for (i, &(v, c)) in values.iter().enumerate() {
            let lo = if i == 0 {
                v as f64
            } else {
                let prev = values[i - 1].0;
                (prev as f64 + 1.0 + v as f64) / 2.0
            };
            buckets.push(DcBucket {
                lo,
                count: c as f64,
                singular: false,
            });
        }
        let hi = values.last().expect("nonempty").0 as f64 + 1.0;
        let mut active = Active {
            buckets,
            hi,
            total,
            reg_sum: 0.0,
            reg_sumsq: 0.0,
            reg_n: 0,
        };
        active.rebuild_chi2();
        self.state = State::Active(active);
    }
}

impl Active {
    /// Right border of bucket `i`.
    fn hi_of(&self, i: usize) -> f64 {
        if i + 1 < self.buckets.len() {
            self.buckets[i + 1].lo
        } else {
            self.hi
        }
    }

    /// Index of the bucket containing continuous coordinate `x`;
    /// `x` must lie within `[first.lo, hi)`.
    fn bucket_of(&self, x: f64) -> usize {
        self.buckets
            .partition_point(|b| b.lo <= x)
            .saturating_sub(1)
    }

    /// Recomputes the incremental chi-square sums from scratch.
    fn rebuild_chi2(&mut self) {
        self.reg_sum = 0.0;
        self.reg_sumsq = 0.0;
        self.reg_n = 0;
        for b in &self.buckets {
            if !b.singular {
                self.reg_sum += b.count;
                self.reg_sumsq += b.count * b.count;
                self.reg_n += 1;
            }
        }
    }

    /// Chi-square p-value of the regular-bucket uniformity hypothesis,
    /// from the maintained sums: `chi2 = k*sumsq/sum - sum`.
    fn uniformity_pvalue(&self) -> f64 {
        if self.reg_n < 2 || self.reg_sum <= 0.0 {
            return 1.0;
        }
        let k = self.reg_n as f64;
        let chi2 = (k * self.reg_sumsq / self.reg_sum - self.reg_sum).max(0.0);
        if chi2 == 0.0 {
            return 1.0;
        }
        chi2_pvalue(chi2, k - 1.0)
    }

    /// Applies `delta` (+1/-1) to bucket `i`'s count, maintaining the
    /// chi-square sums.
    fn bump(&mut self, i: usize, delta: f64) {
        let b = &mut self.buckets[i];
        let old = b.count;
        b.count += delta;
        debug_assert!(b.count >= -1e-9, "bucket count went negative");
        b.count = b.count.max(0.0);
        if !b.singular {
            self.reg_sum += b.count - old;
            self.reg_sumsq += b.count * b.count - old * old;
        }
        self.total += delta;
    }

    /// The piecewise-uniform density segments of the current buckets.
    fn segments(&self) -> Vec<BucketSpan> {
        (0..self.buckets.len())
            .map(|i| BucketSpan::new(self.buckets[i].lo, self.hi_of(i), self.buckets[i].count))
            .collect()
    }

    /// Full repartition: demote cold singulars, equalize regular counts,
    /// promote hot unit-width buckets (Section 3's repartitioning step).
    fn repartition(&mut self, capacity: usize) {
        let n = capacity;
        let threshold = self.total / n as f64;
        let segments = self.segments();

        // 1. Pin hot unit-width intervals as singular buckets. A candidate
        //    is any current bucket of (near-)unit width whose count reaches
        //    the Compressed criterion f >= N/n; previously singular buckets
        //    below the threshold are thereby demoted into the regular pool.
        #[derive(Debug)]
        struct Pinned {
            value: i64,
            count: f64,
        }
        let mut pinned: Vec<Pinned> = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let width = self.hi_of(i) - b.lo;
            if width <= 1.0 + WIDTH_EPS && b.count >= threshold && b.count > 0.0 {
                let center = b.lo + width / 2.0;
                let value = center.floor() as i64;
                if pinned.last().is_some_and(|p| p.value == value) {
                    continue;
                }
                pinned.push(Pinned { value, count: 0.0 });
            }
        }
        // Keep at most n-1 pinned (leave at least one regular bucket),
        // preferring the heaviest.
        if pinned.len() > n.saturating_sub(1) {
            let mut with_mass: Vec<(f64, usize)> = pinned
                .iter()
                .enumerate()
                .map(|(idx, p)| {
                    let lo = p.value as f64;
                    let mass: f64 = segments.iter().map(|s| s.mass_in(lo, lo + 1.0)).sum();
                    (mass, idx)
                })
                .collect();
            with_mass.sort_by(|a, b| b.0.total_cmp(&a.0));
            let keep: std::collections::BTreeSet<usize> = with_mass
                .into_iter()
                .take(n.saturating_sub(1))
                .map(|(_, idx)| idx)
                .collect();
            pinned = pinned
                .into_iter()
                .enumerate()
                .filter(|(idx, _)| keep.contains(idx))
                .map(|(_, p)| p)
                .collect();
        }
        // Integrate the density over each pinned unit interval.
        for p in &mut pinned {
            let lo = p.value as f64;
            p.count = segments.iter().map(|s| s.mass_in(lo, lo + 1.0)).sum();
        }

        // 2. The remaining domain splits into runs (gaps between pinned
        //    intervals), each to be tiled with equal-count regular buckets.
        let domain_lo = self.buckets[0].lo;
        let domain_hi = self.hi;
        let mut runs: Vec<(f64, f64)> = Vec::with_capacity(pinned.len() + 1);
        let mut cursor = domain_lo;
        for p in &pinned {
            let plo = p.value as f64;
            let phi = plo + 1.0;
            if plo > cursor + WIDTH_EPS {
                runs.push((cursor, plo));
            }
            cursor = cursor.max(phi);
        }
        if domain_hi > cursor + WIDTH_EPS {
            runs.push((cursor, domain_hi));
        }

        // 3. Apportion the regular slots across runs proportionally to
        //    their mass, at least one per run. If there are more runs than
        //    slots, demote the lightest pinned buckets until it fits.
        let mut slots = n - pinned.len();
        while slots < runs.len() && !pinned.is_empty() {
            // Demote the lightest pinned value; its mass rejoins a run.
            let lightest = pinned
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.count.total_cmp(&b.1.count))
                .map(|(i, _)| i)
                .expect("nonempty");
            pinned.remove(lightest);
            slots += 1;
            // Rebuild runs from scratch with the reduced pin set.
            runs.clear();
            let mut cursor = domain_lo;
            for p in &pinned {
                let plo = p.value as f64;
                if plo > cursor + WIDTH_EPS {
                    runs.push((cursor, plo));
                }
                cursor = cursor.max(plo + 1.0);
            }
            if domain_hi > cursor + WIDTH_EPS {
                runs.push((cursor, domain_hi));
            }
        }
        if runs.is_empty() {
            // Degenerate: everything pinned. Materialize pins only.
            self.buckets = pinned
                .iter()
                .map(|p| DcBucket {
                    lo: p.value as f64,
                    count: p.count,
                    singular: true,
                })
                .collect();
            self.hi = pinned
                .last()
                .map(|p| p.value as f64 + 1.0)
                .unwrap_or(domain_hi);
            self.rebuild_chi2();
            return;
        }

        let run_mass: Vec<f64> = runs
            .iter()
            .map(|&(a, b)| segments.iter().map(|s| s.mass_in(a, b)).sum())
            .collect();
        let total_run_mass: f64 = run_mass.iter().sum();
        let extra = slots - runs.len();
        let mut run_slots: Vec<usize> = vec![1; runs.len()];
        if extra > 0 {
            // Largest-remainder apportionment of the extra slots by mass.
            let mut exact: Vec<(f64, usize)> = run_mass
                .iter()
                .enumerate()
                .map(|(i, &m)| {
                    let share = if total_run_mass > 0.0 {
                        m / total_run_mass * extra as f64
                    } else {
                        // Massless pool: spread by width instead.
                        let w = runs[i].1 - runs[i].0;
                        let total_w: f64 = runs.iter().map(|&(a, b)| b - a).sum();
                        w / total_w * extra as f64
                    };
                    (share, i)
                })
                .collect();
            let mut given = 0usize;
            for &(share, i) in &exact {
                let floor = share.floor() as usize;
                run_slots[i] += floor;
                given += floor;
            }
            exact.sort_by(|a, b| {
                let fa = a.0 - a.0.floor();
                let fb = b.0 - b.0.floor();
                fb.total_cmp(&fa).then(a.1.cmp(&b.1))
            });
            for &(_, i) in exact.iter().take(extra - given) {
                run_slots[i] += 1;
            }
        }

        // 4. Equal-area cut each run against the old density.
        let mut new_buckets: Vec<DcBucket> = Vec::with_capacity(n);
        let mut pin_iter = pinned.iter().peekable();
        for (r, &(a, b)) in runs.iter().enumerate() {
            // Emit pinned singulars that precede this run.
            while let Some(p) = pin_iter.peek() {
                if (p.value as f64) < a {
                    new_buckets.push(DcBucket {
                        lo: p.value as f64,
                        count: p.count,
                        singular: true,
                    });
                    pin_iter.next();
                } else {
                    break;
                }
            }
            let k = run_slots[r];
            let mass = run_mass[r];
            let target = mass / k as f64;
            let mut cut = a;
            for j in 0..k {
                let lo = cut;
                cut = if j + 1 == k {
                    b
                } else if mass > 0.0 {
                    cut_position(&segments, a, lo, target).clamp(lo, b)
                } else {
                    a + (b - a) * (j + 1) as f64 / k as f64
                };
                new_buckets.push(DcBucket {
                    lo,
                    count: target,
                    singular: false,
                });
            }
        }
        for p in pin_iter {
            new_buckets.push(DcBucket {
                lo: p.value as f64,
                count: p.count,
                singular: true,
            });
        }
        debug_assert!(
            new_buckets.windows(2).all(|w| w[0].lo <= w[1].lo),
            "repartition produced unsorted borders"
        );

        self.buckets = new_buckets;
        self.hi = domain_hi;
        self.rebuild_chi2();
    }
}

/// Finds `x` such that the density mass in `[prev_cut, x)` reaches
/// `target`, walking the piecewise-uniform `segments` (which are sorted).
fn cut_position(segments: &[BucketSpan], run_lo: f64, prev_cut: f64, target: f64) -> f64 {
    let mut need = target;
    let mut x = prev_cut;
    for s in segments {
        if s.hi <= x || s.count == 0.0 {
            continue;
        }
        if s.lo < run_lo && s.hi <= run_lo {
            continue;
        }
        let lo = s.lo.max(x);
        let avail = s.mass_in(lo, s.hi);
        if avail >= need {
            return lo + need / s.density();
        }
        need -= avail;
        x = s.hi;
    }
    x
}

impl ReadHistogram for DcHistogram {
    fn spans(&self) -> Vec<BucketSpan> {
        match &self.state {
            State::Loading { counts, .. } => counts
                .iter()
                .map(|(&v, &c)| BucketSpan::new(v as f64, v as f64 + 1.0, c as f64))
                .collect(),
            State::Active(a) => a.segments(),
        }
    }

    fn total_count(&self) -> f64 {
        match &self.state {
            State::Loading { total, .. } => *total as f64,
            State::Active(a) => a.total,
        }
    }

    fn num_buckets(&self) -> usize {
        match &self.state {
            State::Loading { counts, .. } => counts.len(),
            State::Active(a) => a.buckets.len(),
        }
    }
}

impl DynHistogram for DcHistogram {
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
            State::Active(a) => {
                let x = v as f64 + 0.5;
                if x < a.buckets[0].lo {
                    // Extend the leftmost bucket down to the new point; an
                    // extended singular bucket is no longer unit width, so
                    // it rejoins the regular pool.
                    let b = &mut a.buckets[0];
                    b.lo = v as f64;
                    if b.singular {
                        b.singular = false;
                        a.reg_sum += b.count;
                        a.reg_sumsq += b.count * b.count;
                        a.reg_n += 1;
                    }
                    a.bump(0, 1.0);
                } else if x >= a.hi {
                    let last = a.buckets.len() - 1;
                    a.hi = v as f64 + 1.0;
                    let b = &mut a.buckets[last];
                    if b.singular {
                        b.singular = false;
                        a.reg_sum += b.count;
                        a.reg_sumsq += b.count * b.count;
                        a.reg_n += 1;
                    }
                    a.bump(last, 1.0);
                } else {
                    let i = a.bucket_of(x);
                    a.bump(i, 1.0);
                }
                if self.alpha_min > 0.0
                    && (self.alpha_min >= 1.0 || a.uniformity_pvalue() <= self.alpha_min)
                {
                    a.repartition(self.capacity);
                    self.repartitions += 1;
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
            State::Active(a) => {
                if a.total <= 0.0 {
                    return;
                }
                let x = (v as f64 + 0.5).clamp(a.buckets[0].lo, a.hi - 1e-12);
                let i = a.bucket_of(x);
                // Remove one unit of mass. Counts can be fractional after
                // repartitioning, so take what the target bucket holds and
                // spill the remainder to the closest buckets outward
                // (Section 7.3).
                let mut need = 1.0f64;
                let take = a.buckets[i].count.min(need);
                if take > 0.0 {
                    a.bump(i, -take);
                    need -= take;
                }
                let mut d = 1usize;
                while need > 1e-12 && d < a.buckets.len() {
                    for c in [i.checked_sub(d), i.checked_add(d)].into_iter().flatten() {
                        if need <= 1e-12 {
                            break;
                        }
                        if let Some(b) = a.buckets.get(c) {
                            let take = b.count.min(need);
                            if take > 0.0 {
                                a.bump(c, -take);
                                need -= take;
                            }
                        }
                    }
                    d += 1;
                }
                if self.alpha_min > 0.0
                    && (self.alpha_min >= 1.0 || a.uniformity_pvalue() <= self.alpha_min)
                {
                    a.repartition(self.capacity);
                    self.repartitions += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::ks_error;
    use crate::DataDistribution;

    #[test]
    fn loading_phase_is_exact() {
        let mut h = DcHistogram::new(10);
        for v in [3, 1, 4, 1, 5] {
            h.insert(v);
        }
        assert!(h.is_loading());
        assert_eq!(h.total_count(), 5.0);
        assert_eq!(h.num_buckets(), 4); // distinct values so far
        assert!((h.estimate_eq(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn activates_after_capacity_distinct_values() {
        let mut h = DcHistogram::new(4);
        for v in [10, 20, 30] {
            h.insert(v);
        }
        assert!(h.is_loading());
        h.insert(40);
        assert!(!h.is_loading());
        assert_eq!(h.num_buckets(), 4);
        assert_eq!(h.total_count(), 4.0);
    }

    #[test]
    fn total_count_tracks_stream() {
        let mut h = DcHistogram::new(8);
        for v in 0..1000i64 {
            h.insert(v % 100);
        }
        assert_eq!(h.total_count(), 1000.0);
        for v in 0..100i64 {
            h.delete(v);
        }
        assert_eq!(h.total_count(), 900.0);
    }

    #[test]
    fn spans_tile_without_overlap() {
        let mut h = DcHistogram::new(16);
        for i in 0..5000i64 {
            h.insert((i * 37) % 500);
        }
        let spans = h.spans();
        assert_eq!(spans.len(), 16);
        for w in spans.windows(2) {
            assert!(w[0].hi <= w[1].lo + 1e-9, "overlap: {w:?}");
        }
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn repartition_preserves_total_mass() {
        let mut h = DcHistogram::with_alpha(8, 1.0); // repartition every insert
        for i in 0..500i64 {
            h.insert((i * 13) % 97);
        }
        assert!(h.repartition_count() > 0);
        assert!((h.total_count() - 500.0).abs() < 1e-6);
        let spans = h.spans();
        let sum: f64 = spans.iter().map(|s| s.count).sum();
        assert!((sum - 500.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_zero_never_repartitions() {
        let mut h = DcHistogram::with_alpha(8, 0.0);
        for i in 0..2000i64 {
            h.insert(i % 100);
        }
        assert_eq!(h.repartition_count(), 0);
    }

    #[test]
    fn skewed_stream_triggers_repartition() {
        let mut h = DcHistogram::new(8);
        // Load with spread values, then hammer one value.
        for v in 0..8i64 {
            h.insert(v * 100);
        }
        for _ in 0..5000 {
            h.insert(350);
        }
        assert!(h.repartition_count() > 0, "chi-square should have fired");
    }

    #[test]
    fn hot_value_earns_singular_bucket() {
        let mut h = DcHistogram::new(8);
        for v in 0..8i64 {
            h.insert(v * 10);
        }
        for _ in 0..10_000 {
            h.insert(35);
        }
        // A 10k-point spike among ~10k total: the estimate at 35 should be
        // nearly exact thanks to a singular bucket.
        let est = h.estimate_eq(35);
        assert!(
            est > 8_000.0,
            "singular bucket should capture the spike, estimate {est}"
        );
    }

    #[test]
    fn extends_range_left_and_right() {
        let mut h = DcHistogram::new(4);
        for v in [100, 200, 300, 400] {
            h.insert(v);
        }
        h.insert(50); // below
        h.insert(500); // above
        assert_eq!(h.total_count(), 6.0);
        let spans = h.spans();
        assert!(spans[0].lo <= 50.0);
        assert!(spans.last().unwrap().hi >= 501.0);
    }

    #[test]
    fn deletes_from_nearest_when_bucket_empty() {
        let mut h = DcHistogram::new(4);
        for v in [10, 20, 30, 40] {
            h.insert(v);
        }
        // Delete more of value 10's bucket than it holds.
        h.delete(10);
        h.delete(10);
        assert_eq!(h.total_count(), 2.0);
    }

    #[test]
    fn tracks_uniform_distribution_well() {
        let mut h = DcHistogram::new(32);
        let mut truth = DataDistribution::new();
        for i in 0..20_000i64 {
            let v = (i * 7919) % 1000;
            h.insert(v);
            truth.insert(v);
        }
        let ks = ks_error(&h, &truth);
        assert!(ks < 0.05, "uniform data should be easy for DC, ks={ks}");
    }

    #[test]
    fn tracks_shifting_distribution() {
        // First half over [0,500), second half over [500,1000): DC must
        // follow the shift, the core "evolving data" scenario.
        let mut h = DcHistogram::new(32);
        let mut truth = DataDistribution::new();
        for i in 0..10_000i64 {
            let v = (i * 7919) % 500;
            h.insert(v);
            truth.insert(v);
        }
        for i in 0..10_000i64 {
            let v = 500 + (i * 104_729) % 500;
            h.insert(v);
            truth.insert(v);
        }
        let ks = ks_error(&h, &truth);
        assert!(ks < 0.08, "DC failed to track the shift, ks={ks}");
    }

    #[test]
    fn capacity_one_is_robust() {
        let mut h = DcHistogram::new(1);
        for v in 0..100i64 {
            h.insert(v);
        }
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.total_count(), 100.0);
    }
}
