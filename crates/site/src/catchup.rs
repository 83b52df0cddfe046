//! Site-to-site epoch catch-up: replaying a peer's changelog tail onto
//! a rebuilt member until it is bit-identical with the epochs it
//! missed.
//!
//! This is `dh_replica`'s follower replay, one hop out: instead of
//! tailing a changelog *directory*, [`catch_up`] pulls the records over
//! the [`Site::tail`] surface (a [`TailReader`](dh_wal::tail::TailReader)
//! running inside the source site) and applies them by the changelog's
//! one replay rule ([`Replayer`]). An epoch gap stops the replay instead
//! of corrupting the target, and each rebuild replays exactly once,
//! across calls too: a fresh replayer starts each column's dedup floor
//! at the target's own rebuild ordinal ([`ColumnStore::rebuild_seq`]).
//! The reaction to a gap is the *catch-up rule* in `docs/GLOBAL.md`.

use crate::site::{Site, SiteError};
use dh_catalog::{CatalogError, ColumnStore, DurableError, Replayed, Replayer};

/// What one [`catch_up`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUp {
    /// Commits applied to the target (epochs it actually advanced).
    pub applied: u64,
    /// The target's epoch after the replay.
    pub epoch: u64,
    /// `true` if the source reported its changelog fully drained *and*
    /// every pulled record replayed (no gap). `false` means call again:
    /// either more records exist, or pruning outran the pull and the
    /// target needs a fresher base first.
    pub caught_up: bool,
}

/// Replays `source`'s changelog past `from` onto `target`.
///
/// `from` should be the target's current epoch (`target.epoch()`);
/// records at or before it are skipped idempotently, so a conservative
/// (lower) value is safe, merely wasteful. A rebuild record is skipped
/// when its barrier lies behind the target's epoch or its ordinal is at
/// or below the target's [`ColumnStore::rebuild_seq`] — so a repeat
/// call, which re-reads the rebuilds at the target's barrier, applies
/// none of them twice.
///
/// # Errors
///
/// Transport and protocol failures from [`Site::tail`] pass through.
/// [`SiteError::Store`] reports a target that rejects a replayed
/// record — including a register record that *contradicts* the
/// target's live config for that column, which is a real divergence
/// and never skipped silently.
pub fn catch_up(
    target: &dyn ColumnStore,
    source: &dyn Site,
    from: u64,
) -> Result<CatchUp, SiteError> {
    let tail = source.tail(from)?;
    let mut replayer = Replayer::default();
    let mut applied = 0u64;
    let mut clean = true;
    for record in tail.records {
        let replayed = replayer.replay(target, record).map_err(|e| match e {
            DurableError::Store(e) => SiteError::Store(e),
            other => SiteError::Store(CatalogError::Durability(other.to_string())),
        })?;
        match replayed {
            Replayed::Committed => applied += 1,
            Replayed::Gap(_) => {
                clean = false; // stop before corrupting the target
                break;
            }
            Replayed::Registered | Replayed::Rebuilt | Replayed::Covered(_) => {}
        }
    }
    Ok(CatchUp {
        applied,
        epoch: target.epoch(),
        caught_up: tail.caught_up && clean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SiteServer;
    use crate::site::LocalSite;
    use crate::RemoteSite;
    use dh_catalog::durable::{DurableOptions, DurableStore, StoreKind};
    use dh_catalog::{AlgoSpec, ColumnConfig, RebuildPlan, ShardPlan, ShardedCatalog, WriteBatch};
    use dh_core::{MemoryBudget, ReadHistogram};
    use dh_wal::tmp::TempDir;
    use dh_wal::SyncPolicy;
    use std::sync::Arc;

    #[test]
    fn a_fresh_store_catches_up_bit_identically_over_the_wire() {
        let dir = TempDir::new("catchup_wire");
        let options = DurableOptions {
            sync: SyncPolicy::Off,
            ..DurableOptions::default()
        };
        let store = Arc::new(DurableStore::open(dir.path(), StoreKind::Sharded, options).unwrap());
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)),
            )
            .unwrap();
        for round in 0..5 {
            let mut batch = WriteBatch::new();
            for v in 0..50 {
                batch.insert("c", (round * 7 + v) % 40);
            }
            store.commit(batch).unwrap();
        }
        let server = SiteServer::spawn(Arc::clone(&store)).unwrap();
        let source = RemoteSite::new("src", server.addr());

        let target = ShardedCatalog::new();
        let report = catch_up(&target, &source, 0).unwrap();
        assert!(report.caught_up);
        assert_eq!(report.applied, 5);
        assert_eq!(report.epoch, 5);
        assert_eq!(
            bits(&store.snapshot("c").unwrap()),
            bits(&target.snapshot("c").unwrap())
        );

        // Idempotent: replaying from 0 again applies nothing new.
        let again = catch_up(&target, &source, 0).unwrap();
        assert!(again.caught_up);
        assert_eq!(again.applied, 0);
        assert_eq!(again.epoch, 5);
    }

    #[test]
    fn same_barrier_rebuild_stack_catches_up_over_the_wire() {
        let dir = TempDir::new("catchup_same_barrier");
        let options = DurableOptions {
            sync: SyncPolicy::Off,
            checkpoint_every: None,
            ..DurableOptions::default()
        };
        let store = Arc::new(DurableStore::open(dir.path(), StoreKind::Sharded, options).unwrap());
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
                    .with_seed(3)
                    .with_plan(ShardPlan::new(0, 119, 4).unwrap()),
            )
            .unwrap();
        // Skewed commits, then two shape changes with no commit between
        // them: both rebuild records carry the same barrier and only
        // their ordinals keep them apart during replay.
        for round in 0..5i64 {
            let mut batch = WriteBatch::new();
            for v in 0..32 {
                batch.insert("c", (round * 7 + v) % 40);
            }
            store.commit(batch).unwrap();
        }
        assert!(store.reshard("c").unwrap());
        assert!(store
            .rebuild("c", RebuildPlan::new().with_shards(8))
            .unwrap());
        let mut batch = WriteBatch::new();
        batch.insert("c", 60);
        store.commit(batch).unwrap();

        let server = SiteServer::spawn(Arc::clone(&store)).unwrap();
        let source = RemoteSite::new("src", server.addr());
        let target = ShardedCatalog::new();
        let report = catch_up(&target, &source, 0).unwrap();
        assert!(report.caught_up);
        assert_eq!(report.epoch, store.epoch());
        assert_eq!(
            target.column_shape("c").unwrap().unwrap().shards,
            8,
            "the second same-barrier rebuild was skipped"
        );
        assert_eq!(
            target.shard_load("c").unwrap(),
            store.shard_load("c").unwrap()
        );
        let want = store.snapshot("c").unwrap();
        let got = target.snapshot("c").unwrap();
        assert_eq!(bits(&want), bits(&got));

        // Rebuilds at the target's own epoch catch up once; a repeat
        // call re-reads their records at that barrier and must skip them.
        let mut swaps = target.rebuild_seq("c").unwrap();
        for plan in [
            RebuildPlan::new().with_shards(2),
            RebuildPlan::new(),
            RebuildPlan::new().with_shards(8),
        ] {
            if !store.rebuild("c", plan).unwrap() {
                continue;
            }
            swaps += 1;
            let want = store.snapshot("c").unwrap();
            for call in 0..2 {
                let again = catch_up(&target, &source, target.epoch()).unwrap();
                assert!(again.caught_up);
                assert_eq!(again.applied, 0);
                assert_eq!(
                    target.rebuild_seq("c").unwrap(),
                    swaps,
                    "call {call} after {plan:?} re-applied a rebuild"
                );
                assert_eq!(bits(&want), bits(&target.snapshot("c").unwrap()));
            }
        }
    }

    fn bits(snap: &dh_catalog::Snapshot) -> Vec<(u64, u64, u64)> {
        snap.spans()
            .iter()
            .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
            .collect()
    }

    #[test]
    fn tailing_a_local_bare_catalog_is_unsupported() {
        let source = LocalSite::new("a", Box::new(ShardedCatalog::new()));
        let target = ShardedCatalog::new();
        assert!(matches!(
            catch_up(&target, &source, 0),
            Err(SiteError::Unsupported(_))
        ));
    }
}
