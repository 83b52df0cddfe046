//! Exact optimal-partition histograms: V-Optimal (SVO) and the paper's new
//! Static Average-Deviation Optimal (SADO).
//!
//! Both minimize a per-bucket deviation cost summed over buckets — squared
//! deviations of frequencies from the bucket mean for V-Optimal (Eq. 3),
//! absolute deviations for SADO (Eq. 5) — over all partitions of the value
//! axis into `n` contiguous buckets. Frequencies range over *every* domain
//! value inside a bucket (absent values count as frequency zero), per the
//! continuous-value assumption the paper adopts.
//!
//! The paper describes V-Optimal construction as exponential; this module
//! computes the *same optimum* with the classic `O(n·D²)` dynamic program
//! (Jagadish et al.-style), using:
//!
//! * prefix-sum window costs for the squared measure, with an exact
//!   monotonicity cut in the DP's inner scan, and
//! * an epoch-stamped Fenwick tree over frequency values for the absolute
//!   measure (sum of `|f - mean|` in `O(log F)` per window extension),
//!   whose inner scan is cut by a median-based lower bound — the L1
//!   deviation about the median is monotone under window extension, which
//!   the mean-based cost itself is not.

use dh_core::{BucketSpan, DataDistribution, ReadHistogram};

/// Memoized error matrix for the squared measure: prefix sums of `f` and
/// `f²` give any window's cost `Σf² - (Σf)²/len` in O(1), instead of the
/// O(D) oracle re-scan per right endpoint the generic DP pays.
struct SsePrefix {
    sum: Vec<f64>,
    sumsq: Vec<f64>,
}

impl SsePrefix {
    fn new(freqs: &[f64]) -> Self {
        let mut sum = Vec::with_capacity(freqs.len() + 1);
        let mut sumsq = Vec::with_capacity(freqs.len() + 1);
        sum.push(0.0);
        sumsq.push(0.0);
        for &f in freqs {
            sum.push(sum.last().expect("nonempty") + f);
            sumsq.push(sumsq.last().expect("nonempty") + f * f);
        }
        Self { sum, sumsq }
    }

    /// Squared-deviation cost of the window `i..=j`.
    #[inline]
    fn cost(&self, i: usize, j: usize) -> f64 {
        let len = (j - i + 1) as f64;
        let s = self.sum[j + 1] - self.sum[i];
        let q = self.sumsq[j + 1] - self.sumsq[i];
        (q - s * s / len).max(0.0)
    }
}

/// The V-Optimal DP specialized to the squared measure: O(1) window costs
/// from [`SsePrefix`] and a monotonicity cut in the inner scan.
///
/// The cut is exact, not heuristic: scanning candidate left borders `i`
/// downward, the window cost `cost(i, j)` can only grow (the squared
/// deviation of a window dominates that of any sub-window, since the mean
/// minimizes it), and the prefix term `e[i-1][b-1]` is non-negative — so
/// once `cost(i, j)` alone reaches the best split found, no smaller `i`
/// can win and the scan stops. On the paper's skewed distributions the
/// scan collapses from O(D) to a short constant, which is what makes the
/// exact DP usable inside test suites and the store's rebuild-on-read path.
fn optimal_partition_sse(freqs: &[f64], n: usize) -> Vec<usize> {
    let d = freqs.len();
    debug_assert!(d > 0);
    let n = n.min(d).max(1);
    let stride = n + 1;
    let inf = f64::INFINITY;
    let prefix = SsePrefix::new(freqs);
    let mut choice = vec![0u32; d * stride];
    // Rolling layers: e_cur[j] = minimal cost of covering 0..=j with b
    // buckets.
    let mut e_prev = vec![inf; d];
    let mut e_cur: Vec<f64> = (0..d).map(|j| prefix.cost(0, j)).collect();
    for b in 2..=n {
        std::mem::swap(&mut e_prev, &mut e_cur);
        e_cur.fill(inf);
        for j in (b - 1)..d {
            let mut best = inf;
            let mut best_i = b - 1;
            for i in ((b - 1)..=j).rev() {
                let c = prefix.cost(i, j);
                if c >= best {
                    break; // monotone window cost: no smaller i can win
                }
                let prev = e_prev[i - 1];
                if prev == inf {
                    continue;
                }
                let cand = prev + c;
                if cand < best {
                    best = cand;
                    best_i = i;
                }
            }
            e_cur[j] = best;
            choice[j * stride + b] = best_i as u32;
        }
    }
    reconstruct_starts(&choice, d, n)
}

/// Walks a `choice` table (bucket start per `(j, b)`) back into the start
/// index of each bucket, increasing.
fn reconstruct_starts(choice: &[u32], d: usize, n: usize) -> Vec<usize> {
    let stride = n + 1;
    let mut starts = vec![0usize; n];
    let mut j = d - 1;
    for b in (1..=n).rev() {
        let i = choice[j * stride + b] as usize;
        starts[b - 1] = i;
        if i == 0 {
            break;
        }
        j = i - 1;
    }
    starts
}

/// Epoch-stamped Fenwick tree over integer frequency values, answering
/// prefix `(count, sum)` queries. `clear` is O(1); stale nodes are reset
/// lazily on touch.
#[derive(Debug)]
struct FreqBit {
    cnt: Vec<u64>,
    sum: Vec<f64>,
    epoch: Vec<u32>,
    current: u32,
}

impl FreqBit {
    fn new(max_freq: usize) -> Self {
        let n = max_freq + 2;
        Self {
            cnt: vec![0; n],
            sum: vec![0.0; n],
            epoch: vec![0; n],
            current: 0,
        }
    }

    fn clear(&mut self) {
        self.current = self.current.wrapping_add(1);
    }

    fn touch(&mut self, i: usize) {
        if self.epoch[i] != self.current {
            self.epoch[i] = self.current;
            self.cnt[i] = 0;
            self.sum[i] = 0.0;
        }
    }

    /// Records one element with frequency value `f`.
    fn add(&mut self, f: usize) {
        let mut i = f + 1; // 1-based
        while i < self.cnt.len() {
            self.touch(i);
            self.cnt[i] += 1;
            self.sum[i] += f as f64;
            i += i & i.wrapping_neg();
        }
    }

    /// The `k`-th smallest recorded frequency value (1-based `k`), by
    /// binary descent over the tree. Requires `1 <= k <= #recorded`.
    fn kth(&self, k: u64) -> usize {
        let n = self.cnt.len();
        let mut step = 1usize;
        while step * 2 < n {
            step *= 2;
        }
        let mut pos = 0usize; // largest 1-based index with prefix count < k
        let mut rem = k;
        while step > 0 {
            let next = pos + step;
            if next < n {
                let c = if self.epoch[next] == self.current {
                    self.cnt[next]
                } else {
                    0
                };
                if c < rem {
                    rem -= c;
                    pos = next;
                }
            }
            step /= 2;
        }
        pos // answer index is pos + 1, i.e. frequency value pos
    }

    /// `(count, sum)` of recorded elements with frequency `<= f`.
    fn prefix(&self, f: usize) -> (u64, f64) {
        let mut i = (f + 1).min(self.cnt.len() - 1);
        let (mut c, mut s) = (0u64, 0.0f64);
        while i > 0 {
            if self.epoch[i] == self.current {
                c += self.cnt[i];
                s += self.sum[i];
            }
            i -= i & i.wrapping_neg();
        }
        (c, s)
    }
}

/// Absolute-deviation window cost: `Σ|f - mean|` via the Fenwick tree.
#[derive(Debug)]
struct AbsDevCost {
    bit: FreqBit,
    sum: f64,
    len: usize,
    /// Latest median-based lower bound (see [`AbsDevCost::extend`]).
    last_lb: f64,
}

/// Recompute the median lower bound every this many extensions. Any
/// stale bound is still a valid (just weaker) bound, so sampling trades
/// a few extra scan iterations for skipping most of the select descents.
const LB_REFRESH: usize = 8;

impl AbsDevCost {
    fn new(max_freq: usize) -> Self {
        Self {
            bit: FreqBit::new(max_freq),
            sum: 0.0,
            len: 0,
            last_lb: 0.0,
        }
    }
}

impl AbsDevCost {
    /// Starts a new (empty) window ending at `j`.
    fn begin(&mut self) {
        self.bit.clear();
        self.sum = 0.0;
        self.len = 0;
        self.last_lb = 0.0;
    }

    /// Extends the window to include element frequency `f`, returning
    /// `(cost, lower_bound)`:
    ///
    /// * `cost` — the paper's bucket cost, `Σ|f - mean|` (Eq. 5);
    /// * `lower_bound` — `Σ|f - median|`, computed from the same Fenwick
    ///   tree via a select descent. The median minimizes the L1 deviation,
    ///   so `lower_bound <= cost`; and because the minimal L1 deviation of
    ///   a superset dominates that of any subset, `lower_bound` can only
    ///   grow as the window extends leftward — the monotone quantity the
    ///   DP's early cut needs (the mean-based `cost` itself is *not*
    ///   monotone, which is why the squared path's cut doesn't transfer
    ///   directly). Monotonicity also means a stale bound stays valid, so
    ///   it is only recomputed every [`LB_REFRESH`] extensions.
    fn extend(&mut self, f: f64) -> (f64, f64) {
        let fi = f as usize;
        self.bit.add(fi);
        self.sum += f;
        self.len += 1;
        let mean = self.sum / self.len as f64;
        // Integer frequencies: f <= mean  <=>  f <= floor(mean).
        let (c_le, s_le) = self.bit.prefix(mean.floor() as usize);
        let below = c_le as f64 * mean - s_le;
        let above = (self.sum - s_le) - (self.len as f64 - c_le as f64) * mean;
        let cost = (below + above).max(0.0);
        if self.len < LB_REFRESH || self.len % LB_REFRESH == 0 {
            let m = self.bit.kth(self.len.div_ceil(2) as u64) as f64;
            let (c_m, s_m) = self.bit.prefix(m as usize);
            let lb_below = c_m as f64 * m - s_m;
            let lb_above = (self.sum - s_m) - (self.len as f64 - c_m as f64) * m;
            self.last_lb = self.last_lb.max((lb_below + lb_above).max(0.0));
        }
        (cost, self.last_lb)
    }
}

/// Runs the optimal-partition DP over `freqs` (the frequency of every
/// domain value on the grid) into at most `n` buckets, under the
/// absolute-deviation measure (the squared measure takes the faster
/// [`optimal_partition_sse`] path). Returns the start index of each
/// bucket, increasing.
///
/// The inner scan over candidate left borders runs right-to-left and
/// stops at the median-based lower bound: once `Σ|f - median|` of the
/// window `i..=j` alone reaches the best split found, no wider window can
/// win, because the true cost dominates the bound, the bound is monotone
/// in window extension, and the DP prefix term is non-negative — the
/// absolute-measure analogue of the exact monotonicity cut in
/// [`optimal_partition_sse`].
///
/// The cut pays twice: the leftward window oracle is extended *lazily*,
/// only as far as some scan actually reaches, so the cut truncates not
/// just the `O(n·D²)` DP scans but also the `O(D² log F)` Fenwick
/// extension work that otherwise dominates. The one-bucket row (full
/// prefix windows `[0..=j]`, which would force every extension to run to
/// the left edge) comes from a separate rightward-extending oracle in
/// `O(D log F)` total instead.
fn optimal_partition(freqs: &[f64], n: usize) -> Vec<usize> {
    let d = freqs.len();
    debug_assert!(d > 0);
    let n = n.min(d).max(1);
    let stride = n + 1;
    let inf = f64::INFINITY;
    let max_freq = freqs.iter().fold(0.0f64, |a, &b| a.max(b)) as usize;
    // e[j*stride + b]: minimal cost of covering 0..=j with b buckets.
    let mut e = vec![inf; d * stride];
    let mut choice = vec![0u32; d * stride];
    let mut cost = vec![0.0f64; d];
    let mut lb = vec![0.0f64; d];

    // Rightward oracle for the one-bucket row: window [0..=j] grows by
    // one element per j.
    let mut prefix_oracle = AbsDevCost::new(max_freq);
    prefix_oracle.begin();
    // Leftward oracle for the scans: window [i..=j], re-begun per j,
    // extended only as deep as the scans reach.
    let mut oracle = AbsDevCost::new(max_freq);

    for j in 0..d {
        e[j * stride + 1] = prefix_oracle.extend(freqs[j]).0;
        choice[j * stride + 1] = 0;
        let bmax = n.min(j + 1);
        if bmax < 2 {
            continue;
        }
        oracle.begin();
        let mut lowest = j + 1; // cost/lb filled for indices lowest..=j
        for b in 2..=bmax {
            let mut best = inf;
            let mut best_i = b - 1;
            for i in ((b - 1)..=j).rev() {
                while lowest > i {
                    lowest -= 1;
                    (cost[lowest], lb[lowest]) = oracle.extend(freqs[lowest]);
                }
                if lb[i] >= best {
                    break; // median cut: no wider window can win
                }
                let prev = e[(i - 1) * stride + (b - 1)];
                if prev == inf {
                    continue;
                }
                let c = prev + cost[i];
                if c < best {
                    best = c;
                    best_i = i;
                }
            }
            e[j * stride + b] = best;
            choice[j * stride + b] = best_i as u32;
        }
    }

    // The optimum may use fewer than n buckets only if d < n (handled by
    // the clamp); reconstruct the n-bucket solution.
    reconstruct_starts(&choice, d, n)
}

/// Shared builder: grid extraction, DP, span construction.
fn build_optimal(dist: &DataDistribution, buckets: usize, absolute: bool) -> Vec<BucketSpan> {
    assert!(buckets > 0, "need at least one bucket");
    let (Some(min), Some(max)) = (dist.min(), dist.max()) else {
        return Vec::new();
    };
    let d = (max - min + 1) as usize;
    let mut freqs = vec![0.0f64; d];
    for (v, c) in dist.iter() {
        freqs[(v - min) as usize] = c as f64;
    }
    let starts = if absolute {
        optimal_partition(&freqs, buckets)
    } else {
        optimal_partition_sse(&freqs, buckets)
    };

    let mut spans = Vec::with_capacity(starts.len());
    for (b, &start) in starts.iter().enumerate() {
        let end = if b + 1 < starts.len() {
            starts[b + 1]
        } else {
            d
        };
        if end <= start {
            continue; // degenerate (fewer distinct grid cells than buckets)
        }
        let count: f64 = freqs[start..end].iter().sum();
        spans.push(BucketSpan::new(
            (min + start as i64) as f64,
            (min + end as i64) as f64,
            count,
        ));
    }
    spans
}

/// The exact V-Optimal(V, F) histogram (SVO): minimizes
/// `Σ_buckets n_i · V_i` — the total squared deviation of frequencies from
/// their bucket means (Eqs. 2–3).
#[derive(Debug, Clone, PartialEq)]
pub struct VOptimalHistogram {
    spans: Vec<BucketSpan>,
}

impl VOptimalHistogram {
    /// Builds the optimal `buckets`-bucket histogram by dynamic
    /// programming (`O(buckets · D²)` with `D` the domain width).
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    pub fn build(dist: &DataDistribution, buckets: usize) -> Self {
        Self {
            spans: build_optimal(dist, buckets, false),
        }
    }

    /// Builds directly from raw values.
    pub fn from_values(values: &[i64], buckets: usize) -> Self {
        Self::build(&DataDistribution::from_values(values), buckets)
    }

    /// The bucket spans.
    pub fn buckets(&self) -> &[BucketSpan] {
        &self.spans
    }
}

impl ReadHistogram for VOptimalHistogram {
    dh_core::span_backed_reads!();
}

/// The Static Average-Deviation Optimal histogram (SADO), proposed by the
/// paper: minimizes `Σ_buckets Σ_j |f_ij - mean_i|` (Eq. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct SadoHistogram {
    spans: Vec<BucketSpan>,
}

impl SadoHistogram {
    /// Builds the optimal `buckets`-bucket histogram under the
    /// absolute-deviation cost.
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    pub fn build(dist: &DataDistribution, buckets: usize) -> Self {
        Self {
            spans: build_optimal(dist, buckets, true),
        }
    }

    /// Builds directly from raw values.
    pub fn from_values(values: &[i64], buckets: usize) -> Self {
        Self::build(&DataDistribution::from_values(values), buckets)
    }

    /// The bucket spans.
    pub fn buckets(&self) -> &[BucketSpan] {
        &self.spans
    }
}

impl ReadHistogram for SadoHistogram {
    dh_core::span_backed_reads!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_core::ks_error;

    /// Brute-force optimal partition cost for cross-checking the DP.
    fn brute_force_cost(freqs: &[f64], n: usize, absolute: bool) -> f64 {
        fn window_cost(w: &[f64], absolute: bool) -> f64 {
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            w.iter()
                .map(|&f| {
                    let d = f - mean;
                    if absolute {
                        d.abs()
                    } else {
                        d * d
                    }
                })
                .sum()
        }
        fn rec(freqs: &[f64], n: usize, absolute: bool) -> f64 {
            if n == 1 {
                return window_cost(freqs, absolute);
            }
            let mut best = f64::INFINITY;
            // First bucket takes freqs[..k], k >= 1, leaving enough for
            // the remaining n-1 buckets.
            for k in 1..=(freqs.len() - (n - 1)) {
                let c = window_cost(&freqs[..k], absolute) + rec(&freqs[k..], n - 1, absolute);
                best = best.min(c);
            }
            best
        }
        rec(freqs, n, absolute)
    }

    fn dp_cost(freqs: &[f64], n: usize, absolute: bool) -> f64 {
        let starts = if absolute {
            optimal_partition(freqs, n)
        } else {
            optimal_partition_sse(freqs, n)
        };
        let mut total = 0.0;
        for (b, &s) in starts.iter().enumerate() {
            let e = if b + 1 < starts.len() {
                starts[b + 1]
            } else {
                freqs.len()
            };
            if e <= s {
                continue;
            }
            let w = &freqs[s..e];
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            total += w
                .iter()
                .map(|&f| {
                    let d = f - mean;
                    if absolute {
                        d.abs()
                    } else {
                        d * d
                    }
                })
                .sum::<f64>();
        }
        total
    }

    #[test]
    fn dp_matches_brute_force_squared() {
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![1.0, 1.0, 9.0, 9.0], 2),
            (vec![5.0, 1.0, 8.0, 2.0, 2.0, 9.0], 3),
            (vec![0.0, 0.0, 7.0, 0.0, 0.0, 7.0, 7.0, 1.0], 3),
            (vec![3.0, 3.0, 3.0], 2),
            (vec![10.0, 0.0, 10.0, 0.0, 10.0], 4),
        ];
        for (freqs, n) in cases {
            let bf = brute_force_cost(&freqs, n, false);
            let dp = dp_cost(&freqs, n, false);
            assert!(
                (bf - dp).abs() < 1e-9,
                "squared: freqs={freqs:?} n={n}: brute={bf} dp={dp}"
            );
        }
    }

    #[test]
    fn dp_matches_brute_force_absolute() {
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![1.0, 1.0, 9.0, 9.0], 2),
            (vec![5.0, 1.0, 8.0, 2.0, 2.0, 9.0], 3),
            (vec![0.0, 4.0, 0.0, 4.0, 8.0, 8.0, 0.0], 3),
            (vec![2.0, 2.0, 2.0, 50.0], 2),
        ];
        for (freqs, n) in cases {
            let bf = brute_force_cost(&freqs, n, true);
            let dp = dp_cost(&freqs, n, true);
            assert!(
                (bf - dp).abs() < 1e-9,
                "absolute: freqs={freqs:?} n={n}: brute={bf} dp={dp}"
            );
        }
    }

    #[test]
    fn voptimal_finds_the_step() {
        // Two flat plateaus: the optimal 2-bucket split is at the step.
        let mut values = Vec::new();
        for v in 0..10i64 {
            values.extend(std::iter::repeat_n(v, 2));
        }
        for v in 10..20i64 {
            values.extend(std::iter::repeat_n(v, 12));
        }
        let h = VOptimalHistogram::from_values(&values, 2);
        assert_eq!(h.num_buckets(), 2);
        let b = h.buckets();
        assert_eq!(b[0].hi, 10.0, "split should land exactly at the step");
        assert_eq!(b[0].count, 20.0);
        assert_eq!(b[1].count, 120.0);
    }

    #[test]
    fn sado_finds_the_step() {
        let mut values = Vec::new();
        for v in 0..8i64 {
            values.push(v);
        }
        for v in 8..16i64 {
            values.extend(std::iter::repeat_n(v, 9));
        }
        let h = SadoHistogram::from_values(&values, 2);
        let b = h.buckets();
        assert_eq!(b[0].hi, 8.0);
    }

    #[test]
    fn exact_when_buckets_cover_all_values() {
        let values = [1i64, 1, 5, 5, 5, 9];
        let dist = DataDistribution::from_values(&values);
        // Domain width 9, 9 buckets: every grid cell its own bucket.
        let h = VOptimalHistogram::build(&dist, 9);
        assert!(ks_error(&h, &dist) < 1e-9);
        let h = SadoHistogram::build(&dist, 9);
        assert!(ks_error(&h, &dist) < 1e-9);
    }

    #[test]
    fn zero_variance_plateaus_score_zero_cost() {
        // Frequencies constant: 1 bucket is already optimal; more buckets
        // must not be worse.
        let freqs = vec![4.0; 12];
        assert!(dp_cost(&freqs, 1, false) < 1e-9);
        assert!(dp_cost(&freqs, 3, false) < 1e-9);
    }

    #[test]
    fn mass_is_preserved() {
        let values: Vec<i64> = (0..500).map(|i| (i * i) % 251).collect();
        let dist = DataDistribution::from_values(&values);
        for h in [
            VOptimalHistogram::build(&dist, 7).spans,
            SadoHistogram::build(&dist, 7).spans,
        ] {
            let mass: f64 = h.iter().map(|s| s.count).sum();
            assert!((mass - 500.0).abs() < 1e-6);
        }
    }

    #[test]
    fn spans_tile_without_overlap() {
        let values: Vec<i64> = (0..300).map(|i| (i * 17) % 100).collect();
        let h = VOptimalHistogram::from_values(&values, 6);
        let spans = h.buckets();
        for w in spans.windows(2) {
            assert!((w[0].hi - w[1].lo).abs() < 1e-9);
        }
    }

    #[test]
    fn fenwick_prefix_sums() {
        let mut bit = FreqBit::new(100);
        bit.add(5);
        bit.add(5);
        bit.add(80);
        assert_eq!(bit.prefix(4), (0, 0.0));
        assert_eq!(bit.prefix(5), (2, 10.0));
        assert_eq!(bit.prefix(100), (3, 90.0));
        bit.clear();
        assert_eq!(bit.prefix(100), (0, 0.0));
        bit.add(7);
        assert_eq!(bit.prefix(100), (1, 7.0));
    }

    #[test]
    fn fenwick_select_finds_order_statistics() {
        let mut bit = FreqBit::new(100);
        for f in [5, 5, 80, 0, 13] {
            bit.add(f);
        }
        assert_eq!(bit.kth(1), 0);
        assert_eq!(bit.kth(2), 5);
        assert_eq!(bit.kth(3), 5);
        assert_eq!(bit.kth(4), 13);
        assert_eq!(bit.kth(5), 80);
        bit.clear();
        bit.add(42);
        assert_eq!(bit.kth(1), 42);
    }

    #[test]
    fn median_bound_stays_below_cost_and_grows() {
        // The two properties the DP cut relies on, checked over a
        // deterministic pseudo-random window extension.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 50) as f64
        };
        let mut oracle = AbsDevCost::new(64);
        oracle.begin();
        let mut prev_lb = 0.0f64;
        for _ in 0..200 {
            let (cost, lb) = oracle.extend(next());
            assert!(lb <= cost + 1e-9, "median bound above cost: {lb} > {cost}");
            assert!(
                lb >= prev_lb - 1e-9,
                "median bound shrank: {prev_lb} -> {lb}"
            );
            prev_lb = lb;
        }
    }

    #[test]
    fn cut_dp_matches_brute_force_on_random_inputs() {
        // The median cut must never change the optimum, only skip work.
        let mut state = 0xD1CEu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for case in 0..40 {
            let d = (next(9) + 3) as usize;
            let n = (next(4) + 2) as usize;
            let freqs: Vec<f64> = (0..d).map(|_| next(30) as f64).collect();
            let bf = brute_force_cost(&freqs, n.min(d), true);
            let dp = dp_cost(&freqs, n.min(d), true);
            assert!(
                (bf - dp).abs() < 1e-9,
                "case {case}: freqs={freqs:?} n={n}: brute={bf} dp={dp}"
            );
        }
    }

    #[test]
    fn empty_distribution() {
        let h = VOptimalHistogram::build(&DataDistribution::new(), 4);
        assert_eq!(h.num_buckets(), 0);
    }
}
