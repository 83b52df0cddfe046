//! [`StaticRebuild`]: gives scan-and-rebuild static histograms the same
//! maintained-in-place [`DynHistogram`] face as the dynamic algorithms.
//!
//! The paper's static histograms are built from a complete scan and go
//! stale as the data set evolves; their "maintenance" protocol *is* the
//! rebuild. This adapter makes that protocol explicit behind the
//! object-safe API: updates maintain an exact [`DataDistribution`]
//! (cheap — a counter per distinct value), and the configured static
//! histogram is rebuilt lazily on the first read after a change, then
//! cached until the next update.
//!
//! This is what lets `AlgoSpec::build` return one `BoxedHistogram`
//! currency for all ten algorithms, and what a [`crate::ShardedCatalog`] shard
//! uses when it is configured with a static algorithm.

use dh_core::{BucketSpan, DataDistribution, DynHistogram, ReadHistogram};
use dh_static::{
    CompressedHistogram, EquiDepthHistogram, EquiWidthHistogram, SadoHistogram, SsbmHistogram,
    VOptimalHistogram,
};
use std::sync::Mutex;

/// Which static builder a [`StaticRebuild`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StaticKind {
    EquiWidth,
    EquiDepth,
    Compressed,
    VOptimal,
    Sado,
    Ssbm,
}

impl StaticKind {
    fn build(self, truth: &DataDistribution, buckets: usize) -> Vec<BucketSpan> {
        match self {
            StaticKind::EquiWidth => EquiWidthHistogram::build(truth, buckets).spans(),
            StaticKind::EquiDepth => EquiDepthHistogram::build(truth, buckets).spans(),
            StaticKind::Compressed => CompressedHistogram::build(truth, buckets).spans(),
            StaticKind::VOptimal => VOptimalHistogram::build(truth, buckets).spans(),
            StaticKind::Sado => SadoHistogram::build(truth, buckets).spans(),
            StaticKind::Ssbm => SsbmHistogram::build(truth, buckets).spans(),
        }
    }
}

/// A static histogram kept fresh by rebuild-on-read.
///
/// Reads between updates hit a cached span vector; every update
/// invalidates the cache, so read cost is one rebuild per *batch* of
/// updates rather than per update. Constructed through
/// [`crate::AlgoSpec::build`] (or `build_seeded`) with one of the static
/// variants.
#[derive(Debug)]
pub struct StaticRebuild {
    kind: StaticKind,
    buckets: usize,
    truth: DataDistribution,
    /// Spans of the last build, `None` after an update. A `Mutex` (not
    /// `RefCell`) so concurrent readers — e.g. catalog snapshots from
    /// several threads — stay safe; writers invalidate lock-free through
    /// `get_mut`.
    cache: Mutex<Option<Vec<BucketSpan>>>,
}

impl StaticRebuild {
    pub(crate) fn new(kind: StaticKind, buckets: usize) -> Self {
        Self {
            kind,
            buckets,
            truth: DataDistribution::new(),
            cache: Mutex::new(None),
        }
    }

    /// Starts from an existing distribution and builds eagerly, so
    /// construction-time measurements see the real build cost.
    pub(crate) fn with_distribution(
        kind: StaticKind,
        buckets: usize,
        truth: DataDistribution,
    ) -> Self {
        let spans = kind.build(&truth, buckets);
        Self {
            kind,
            buckets,
            truth,
            cache: Mutex::new(Some(spans)),
        }
    }

    /// The exact distribution the next rebuild will consume.
    pub fn distribution(&self) -> &DataDistribution {
        &self.truth
    }

    /// The configured bucket budget.
    pub fn bucket_budget(&self) -> usize {
        self.buckets
    }

    /// Runs `f` over the (rebuilt-if-stale) cached spans.
    fn with_spans<R>(&self, f: impl FnOnce(&[BucketSpan]) -> R) -> R {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let spans = cache.get_or_insert_with(|| self.kind.build(&self.truth, self.buckets));
        f(spans)
    }
}

impl ReadHistogram for StaticRebuild {
    fn spans(&self) -> Vec<BucketSpan> {
        self.with_spans(|s| s.to_vec())
    }

    fn for_each_span(&self, f: &mut dyn FnMut(&BucketSpan)) {
        self.with_spans(|spans| {
            for s in spans {
                f(s);
            }
        })
    }

    fn total_count(&self) -> f64 {
        self.truth.total() as f64
    }
}

impl DynHistogram for StaticRebuild {
    fn insert(&mut self, v: i64) {
        self.truth.insert(v);
        *self.cache.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
    }

    fn delete(&mut self, v: i64) {
        if self.truth.delete(v) {
            *self.cache.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    fn as_read(&self) -> &dyn ReadHistogram {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_tracks_updates() {
        let mut h = StaticRebuild::new(StaticKind::EquiDepth, 8);
        for v in 0..100i64 {
            h.insert(v % 25);
        }
        assert_eq!(h.total_count(), 100.0);
        assert!((h.estimate_range(0, 24) - 100.0).abs() < 1e-9);
        // Deletes invalidate the cache too.
        let before = h.estimate_eq(3);
        for _ in 0..4 {
            h.delete(3);
        }
        assert!(h.estimate_eq(3) < before);
        // Deleting an absent value is a no-op.
        h.delete(999);
        assert_eq!(h.total_count(), 96.0);
    }

    #[test]
    fn cache_survives_reads_and_matches_direct_build() {
        let mut h = StaticRebuild::new(StaticKind::VOptimal, 6);
        for v in [1, 1, 1, 5, 5, 9, 9, 9, 9, 20] {
            h.insert(v);
        }
        let direct = VOptimalHistogram::build(h.distribution(), 6);
        assert_eq!(h.spans(), direct.spans());
        assert_eq!(h.spans(), h.spans());
        assert_eq!(h.bucket_budget(), 6);
    }

    #[test]
    fn allocation_free_path_agrees() {
        let mut h = StaticRebuild::new(StaticKind::Ssbm, 4);
        for v in 0..200i64 {
            h.insert((v * 7) % 60);
        }
        let mut collected = Vec::new();
        h.for_each_span(&mut |s| collected.push(*s));
        assert_eq!(collected, h.spans());
        assert_eq!(h.num_buckets(), collected.len());
    }
}
