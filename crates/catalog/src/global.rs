//! Assembly seams for multi-site composition.
//!
//! [`Snapshot`] and [`SnapshotSet`] are deliberately sealed: inside one
//! process only the commit pipeline may mint them, so a snapshot always
//! testifies to a state the store actually published. A *global* catalog
//! breaks that assumption — `dh_site`'s `GlobalCatalog` composes spans
//! pulled from other processes (over the wire or from peer stores in
//! this one) into snapshots no local commit ever rendered.
//!
//! This module is the single, documented gate for that: constructors
//! that assemble the read-side currency from raw parts. The contract is
//! the composition's to uphold — `epoch` must be a monotone clock of the
//! composer (`dh_site` uses the version-vector sum, `docs/GLOBAL.md`),
//! `spans` must be sorted and disjoint (superposition output qualifies),
//! and `checkpoint`/`updates` are whatever bookkeeping the composer
//! sums. Everything downstream (CDF precompute, estimator reads,
//! `SnapshotSet` subsetting) works unchanged on the result.

use crate::store::{Snapshot, SnapshotSet};
use dh_core::BucketSpan;
use std::collections::BTreeMap;

/// Assembles a [`Snapshot`] from composed spans.
///
/// `label` is the algorithm legend reported by
/// [`Snapshot::label`] — compositions conventionally tag the
/// strategy that produced them (e.g. `"global(histogram + union)"`).
pub fn snapshot_from_spans(
    column: impl Into<String>,
    label: impl Into<String>,
    epoch: u64,
    checkpoint: u64,
    updates: u64,
    spans: Vec<BucketSpan>,
) -> Snapshot {
    Snapshot::from_parts(
        column.into(),
        label.into(),
        epoch,
        checkpoint,
        updates,
        spans,
    )
}

/// Assembles a whole-store [`SnapshotSet`] pinned at `epoch` from
/// already-composed per-column snapshots.
pub fn set_from_snapshots(epoch: u64, snaps: BTreeMap<String, Snapshot>) -> SnapshotSet {
    SnapshotSet::new(epoch, snaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_core::ReadHistogram;

    #[test]
    fn assembled_snapshot_serves_estimates() {
        let spans = vec![
            BucketSpan::new(0.0, 10.0, 100.0),
            BucketSpan::new(10.0, 20.0, 50.0),
        ];
        let snap = snapshot_from_spans("col", "global(test)", 7, 3, 150, spans);
        assert_eq!(snap.column(), "col");
        assert_eq!(snap.label(), "global(test)");
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.checkpoint(), 3);
        assert_eq!(snap.updates(), 150);
        assert!((snap.total_count() - 150.0).abs() < 1e-9);
        assert!((snap.estimate_range(0, 9) - 100.0).abs() < 1e-6);

        let mut snaps = BTreeMap::new();
        snaps.insert("col".to_string(), snap);
        let set = set_from_snapshots(7, snaps);
        assert_eq!(set.epoch(), 7);
        assert!((set.total_count("col").unwrap() - 150.0).abs() < 1e-9);
    }
}
