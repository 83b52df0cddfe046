//! The read and maintenance traits every histogram implements.
//!
//! [`ReadHistogram`] is the estimation interface a query optimizer would
//! consume: selectivity of range and equality predicates under the uniform
//! and continuous-value assumptions. [`DynHistogram`] adds the incremental
//! maintenance operations that distinguish the paper's *dynamic* histograms
//! (static histograms implement only `ReadHistogram` and are rebuilt from
//! scratch, or are adapted through a rebuild wrapper such as
//! `dh_catalog`'s `StaticRebuild`).
//!
//! # Migration notes (trait split)
//!
//! Earlier revisions had a single `Histogram` trait carrying `insert`,
//! `delete` and the generic `apply<I>`. Because `apply` is generic, that
//! trait was not object-safe, so histograms could not be handled as
//! `Box<dyn Histogram>` — which is exactly the deployment the paper
//! describes (an optimizer reading a histogram *while* it is maintained in
//! place, algorithm chosen at run time). The trait is now split:
//!
//! * [`DynHistogram`] — object-safe maintenance: `insert`, `delete` and the
//!   batched [`DynHistogram::apply_slice`]. Implement **this** trait on new
//!   histogram types (where you previously implemented `Histogram`).
//! * [`Histogram`] — a blanket extension trait over every `DynHistogram`
//!   carrying the generic [`Histogram::apply`]. Existing call sites —
//!   `fn f<H: Histogram>(..)` bounds and `h.apply(stream)` calls — keep
//!   compiling unchanged; the trait is never implemented by hand anymore.
//! * [`ReadHistogram`] additionally offers the allocation-free read path
//!   [`ReadHistogram::for_each_span`] / [`ReadHistogram::spans_into`],
//!   which hot paths (snapshots, joins) prefer over the allocating
//!   [`ReadHistogram::spans`].
//!
//! `ReadHistogram` and `DynHistogram` are both object-safe and implemented
//! for references and boxes, so `&dyn ReadHistogram`,
//! `Box<dyn DynHistogram>` and the [`BoxedHistogram`] alias compose with
//! every generic function in the workspace. On a `&dyn DynHistogram`, use
//! [`DynHistogram::as_read`] to obtain a `&dyn ReadHistogram` view (the
//! workspace MSRV predates implicit trait upcasting).

use crate::bucket::{BucketSpan, HistogramCdf};
use crate::dynamic::UpdateOp;

/// A maintainable histogram behind a thread-safe trait object — the
/// currency of `AlgoSpec::build` registries and multi-column catalogs.
pub type BoxedHistogram = Box<dyn DynHistogram + Send + Sync>;

/// Read-side histogram interface: rendering as bucket spans and
/// selectivity estimation.
///
/// Estimates use the continuous embedding (integer value `v` occupies
/// `[v, v+1)`); see the crate-level documentation.
///
/// The only required method is [`ReadHistogram::spans`]; implementations
/// holding materialized spans should also override
/// [`ReadHistogram::for_each_span`] so the allocation-free read path (and
/// the default `total_count` / `num_buckets` / `spans_into`, which are
/// built on it) skips the intermediate `Vec`.
pub trait ReadHistogram {
    /// The buckets as sorted, non-overlapping spans on the continuous axis.
    fn spans(&self) -> Vec<BucketSpan>;

    /// Visits every span in order without allocating.
    ///
    /// The default renders [`ReadHistogram::spans`]; histograms that store
    /// their buckets directly should override this to iterate them in
    /// place.
    fn for_each_span(&self, f: &mut dyn FnMut(&BucketSpan)) {
        for s in self.spans() {
            f(&s);
        }
    }

    /// Writes the spans into a caller-provided buffer (cleared first),
    /// reusing its capacity — the allocation-free counterpart of
    /// [`ReadHistogram::spans`] for snapshot/refresh loops.
    fn spans_into(&self, out: &mut Vec<BucketSpan>) {
        out.clear();
        self.for_each_span(&mut |s| out.push(*s));
    }

    /// Total mass (number of live data points represented).
    fn total_count(&self) -> f64 {
        let mut total = 0.0;
        self.for_each_span(&mut |s| total += s.count);
        total
    }

    /// Number of buckets currently held.
    fn num_buckets(&self) -> usize {
        let mut n = 0;
        self.for_each_span(&mut |_| n += 1);
        n
    }

    /// The piecewise-linear CDF of this histogram.
    fn cdf(&self) -> HistogramCdf {
        HistogramCdf::from_spans(self.spans())
    }

    /// Estimated number of data points with value `<= v`.
    fn estimate_le(&self, v: i64) -> f64 {
        self.cdf().mass_below(v as f64 + 1.0)
    }

    /// Estimated number of data points with value strictly below the
    /// continuous coordinate `x` (for integer `x` this is `|{val < x}|`).
    fn estimate_less_than(&self, x: f64) -> f64 {
        self.cdf().mass_below(x)
    }

    /// Estimated number of data points with value in the inclusive integer
    /// range `[a, b]`.
    fn estimate_range(&self, a: i64, b: i64) -> f64 {
        if a > b {
            return 0.0;
        }
        self.cdf().mass_in(a as f64, b as f64 + 1.0)
    }

    /// Estimated number of data points equal to `v`.
    fn estimate_eq(&self, v: i64) -> f64 {
        self.estimate_range(v, v)
    }
}

/// Forwards every `ReadHistogram` method (so implementor overrides are
/// preserved through references and boxes).
macro_rules! forward_read_histogram {
    () => {
        fn spans(&self) -> Vec<BucketSpan> {
            (**self).spans()
        }
        fn for_each_span(&self, f: &mut dyn FnMut(&BucketSpan)) {
            (**self).for_each_span(f)
        }
        fn spans_into(&self, out: &mut Vec<BucketSpan>) {
            (**self).spans_into(out)
        }
        fn total_count(&self) -> f64 {
            (**self).total_count()
        }
        fn num_buckets(&self) -> usize {
            (**self).num_buckets()
        }
        fn cdf(&self) -> HistogramCdf {
            (**self).cdf()
        }
        fn estimate_le(&self, v: i64) -> f64 {
            (**self).estimate_le(v)
        }
        fn estimate_less_than(&self, x: f64) -> f64 {
            (**self).estimate_less_than(x)
        }
        fn estimate_range(&self, a: i64, b: i64) -> f64 {
            (**self).estimate_range(a, b)
        }
        fn estimate_eq(&self, v: i64) -> f64 {
            (**self).estimate_eq(v)
        }
    };
}

impl<H: ReadHistogram + ?Sized> ReadHistogram for &H {
    forward_read_histogram!();
}

impl<H: ReadHistogram + ?Sized> ReadHistogram for &mut H {
    forward_read_histogram!();
}

impl<H: ReadHistogram + ?Sized> ReadHistogram for Box<H> {
    forward_read_histogram!();
}

/// Implements the span-rendering half of [`ReadHistogram`] (`spans` plus
/// the allocation-free `for_each_span`) for a type that stores its
/// buckets in a `self.spans: Vec<BucketSpan>` field. Invoke inside the
/// `impl ReadHistogram for ...` block; other methods may still be
/// overridden alongside it.
#[macro_export]
macro_rules! span_backed_reads {
    () => {
        fn spans(&self) -> Vec<$crate::BucketSpan> {
            self.spans.clone()
        }

        fn for_each_span(&self, f: &mut dyn FnMut(&$crate::BucketSpan)) {
            for s in &self.spans {
                f(s);
            }
        }
    };
}

/// Object-safe incremental maintenance — the defining capability of the
/// paper's dynamic histograms, usable as `Box<dyn DynHistogram>` (or the
/// `Send + Sync` [`BoxedHistogram`] alias) so the algorithm can be chosen
/// at run time and maintained in place while readers estimate off it.
pub trait DynHistogram: ReadHistogram {
    /// Observes the insertion of one occurrence of `v` into the data set.
    fn insert(&mut self, v: i64);

    /// Observes the deletion of one occurrence of `v` from the data set.
    ///
    /// Deletion is "simply the inverse of insertion" (Section 7.3):
    /// implementations decrement the appropriate counter, falling back to
    /// the closest non-empty bucket when the target bucket has spilled.
    fn delete(&mut self, v: i64);

    /// Replays a batch of updates — the ingestion unit of streaming
    /// consumers (catalogs apply whole batches under one lock).
    fn apply_slice(&mut self, updates: &[UpdateOp]) {
        for &u in updates {
            match u {
                UpdateOp::Insert(v) => self.insert(v),
                UpdateOp::Delete(v) => self.delete(v),
            }
        }
    }

    /// This histogram as a plain read-side trait object.
    ///
    /// Implementations are invariably `{ self }`. (Kept explicit because
    /// the workspace MSRV predates `dyn DynHistogram -> dyn ReadHistogram`
    /// upcasting coercions.)
    fn as_read(&self) -> &dyn ReadHistogram;
}

impl<H: DynHistogram + ?Sized> DynHistogram for &mut H {
    fn insert(&mut self, v: i64) {
        (**self).insert(v)
    }
    fn delete(&mut self, v: i64) {
        (**self).delete(v)
    }
    fn apply_slice(&mut self, updates: &[UpdateOp]) {
        (**self).apply_slice(updates)
    }
    fn as_read(&self) -> &dyn ReadHistogram {
        (**self).as_read()
    }
}

impl<H: DynHistogram + ?Sized> DynHistogram for Box<H> {
    fn insert(&mut self, v: i64) {
        (**self).insert(v)
    }
    fn delete(&mut self, v: i64) {
        (**self).delete(v)
    }
    fn apply_slice(&mut self, updates: &[UpdateOp]) {
        (**self).apply_slice(updates)
    }
    fn as_read(&self) -> &dyn ReadHistogram {
        (**self).as_read()
    }
}

/// Generic conveniences over any [`DynHistogram`] — blanket-implemented,
/// never implemented by hand (implement [`DynHistogram`] instead).
pub trait Histogram: DynHistogram {
    /// Replays a stream of updates.
    fn apply<I: IntoIterator<Item = UpdateOp>>(&mut self, updates: I)
    where
        Self: Sized,
    {
        for u in updates {
            match u {
                UpdateOp::Insert(v) => self.insert(v),
                UpdateOp::Delete(v) => self.delete(v),
            }
        }
    }
}

impl<H: DynHistogram + ?Sized> Histogram for H {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed two-bucket histogram for exercising the default estimators.
    struct Fixed;
    impl ReadHistogram for Fixed {
        fn spans(&self) -> Vec<BucketSpan> {
            vec![
                BucketSpan::new(0.0, 10.0, 100.0),
                BucketSpan::new(10.0, 20.0, 300.0),
            ]
        }
    }

    /// A trivially maintainable histogram: one unit bucket per value.
    #[derive(Default)]
    struct Unit {
        counts: std::collections::BTreeMap<i64, f64>,
    }
    impl ReadHistogram for Unit {
        fn spans(&self) -> Vec<BucketSpan> {
            self.counts
                .iter()
                .map(|(&v, &c)| BucketSpan::new(v as f64, v as f64 + 1.0, c))
                .collect()
        }
    }
    impl DynHistogram for Unit {
        fn insert(&mut self, v: i64) {
            *self.counts.entry(v).or_insert(0.0) += 1.0;
        }
        fn delete(&mut self, v: i64) {
            *self.counts.entry(v).or_insert(0.0) -= 1.0;
        }
        fn as_read(&self) -> &dyn ReadHistogram {
            self
        }
    }

    #[test]
    fn totals_and_counts() {
        assert_eq!(Fixed.total_count(), 400.0);
        assert_eq!(Fixed.num_buckets(), 2);
    }

    #[test]
    fn estimate_le_uses_continuous_embedding() {
        // Values 0..=9 live in [0,10): estimate_le(9) covers all of it.
        assert!((Fixed.estimate_le(9) - 100.0).abs() < 1e-9);
        // estimate_le(4) covers [0,5) = half the first bucket.
        assert!((Fixed.estimate_le(4) - 50.0).abs() < 1e-9);
        assert!((Fixed.estimate_le(19) - 400.0).abs() < 1e-9);
        assert_eq!(Fixed.estimate_le(-1), 0.0);
    }

    #[test]
    fn estimate_range_and_eq() {
        // [10, 19] is the whole second bucket.
        assert!((Fixed.estimate_range(10, 19) - 300.0).abs() < 1e-9);
        // A single value in the second bucket gets 1/10 of its mass.
        assert!((Fixed.estimate_eq(15) - 30.0).abs() < 1e-9);
        assert_eq!(Fixed.estimate_range(5, 3), 0.0);
    }

    #[test]
    fn estimate_less_than_fractional() {
        assert!((Fixed.estimate_less_than(5.0) - 50.0).abs() < 1e-9);
        assert!((Fixed.estimate_less_than(0.0)).abs() < 1e-9);
    }

    #[test]
    fn allocation_free_read_path_matches_spans() {
        let mut seen = Vec::new();
        Fixed.for_each_span(&mut |s| seen.push(*s));
        assert_eq!(seen, Fixed.spans());
        let mut buf = vec![BucketSpan::new(0.0, 1.0, 1.0); 7];
        Fixed.spans_into(&mut buf);
        assert_eq!(buf, Fixed.spans());
    }

    #[test]
    fn boxed_dyn_histogram_end_to_end() {
        let mut h: Box<dyn DynHistogram> = Box::<Unit>::default();
        h.apply_slice(&[
            UpdateOp::Insert(3),
            UpdateOp::Insert(3),
            UpdateOp::Insert(7),
            UpdateOp::Delete(7),
        ]);
        assert_eq!(h.total_count(), 2.0);
        assert_eq!(h.estimate_eq(3), 2.0);
        // The generic extension applies through the box, too.
        h.apply([UpdateOp::Insert(5)]);
        assert_eq!(h.as_read().total_count(), 3.0);
        // And the box itself reads as a histogram.
        let read: &dyn ReadHistogram = &h;
        assert_eq!(read.num_buckets(), 3);
    }

    #[test]
    fn references_forward_overrides() {
        fn total(h: impl ReadHistogram) -> f64 {
            h.total_count()
        }
        assert_eq!(total(&Fixed), 400.0);
        let mut u = Unit::default();
        {
            let r: &mut dyn DynHistogram = &mut u;
            r.insert(1);
        }
        assert_eq!(total(&u), 1.0);
    }
}
