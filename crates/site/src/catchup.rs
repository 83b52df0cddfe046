//! Site-to-site epoch catch-up: replaying a peer's changelog tail onto
//! a rebuilt member until it is bit-identical with the epochs it
//! missed.
//!
//! This is `dh_replica`'s follower replay, one hop out: instead of
//! tailing a changelog *directory*, [`catch_up`] pulls the records over
//! the [`Site::tail`] surface (a [`TailReader`](dh_wal::tail::TailReader)
//! running inside the source site) and applies them with the same
//! idempotent rules — re-read registers and already-applied commits are
//! skipped, an epoch gap stops the replay instead of corrupting the
//! target, and each rebuild replays exactly once, across calls too:
//! the dedup floor is the target's own rebuild ordinal
//! ([`ColumnStore::rebuild_seq`]). The rules are written down as the
//! *catch-up rule* in `docs/GLOBAL.md`.

use crate::site::{Site, SiteError};
use dh_catalog::durable::{config_from_record, plan_from_deltas, strip_policy};
use dh_catalog::{CatalogError, ColumnConfig, ColumnStore, WriteBatch};
use dh_wal::WalRecord;

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
    let mut applied = 0u64;
    let mut clean = true;
    'replay: for record in tail.records {
        match record {
            WalRecord::Register { column, config } => {
                let config =
                    config_from_record(&config).map_err(|e| SiteError::Remote(e.to_string()))?;
                if target.contains(&column) {
                    check_config_matches(target, &column, &config)?;
                } else {
                    target.register(&column, strip_policy(&config))?;
                }
            }
            WalRecord::Commit { epoch, columns } => {
                let at = target.epoch();
                if epoch <= at {
                    continue; // overlap below the requested epoch
                }
                if epoch != at + 1 {
                    clean = false; // a gap: stop before corrupting
                    break 'replay;
                }
                let mut batch = WriteBatch::new();
                for (column, ops) in columns {
                    batch.extend(&column, ops);
                }
                target.commit(batch)?;
                applied += 1;
            }
            WalRecord::Rebuild {
                column,
                barrier,
                seq,
                shards,
                spec,
                memory_bytes,
            } => {
                let at = target.epoch();
                if barrier > at {
                    clean = false;
                    break 'replay;
                }
                if barrier < at || seq <= target.rebuild_seq(&column)? {
                    // Covered by the target's state — or, at the barrier
                    // itself, a re-read of an ordinal the target already
                    // applied (on this call or an earlier one). Rebuilds
                    // publish no epoch, so a *distinct* second rebuild at
                    // the same barrier carries a higher ordinal and must
                    // apply.
                    continue;
                }
                let plan = plan_from_deltas(shards, spec.as_deref(), memory_bytes)
                    .map_err(|e| SiteError::Remote(e.to_string()))?;
                target.rebuild(&column, plan)?;
            }
        }
    }
    Ok(CatchUp {
        applied,
        epoch: target.epoch(),
        caught_up: tail.caught_up && clean,
    })
}

/// A register record for a column the target already hosts must agree
/// with the live config — the same contradiction check the follower
/// replay makes, expressed against the store surface.
fn check_config_matches(
    target: &dyn ColumnStore,
    column: &str,
    config: &ColumnConfig,
) -> Result<(), SiteError> {
    let live = target.spec(column)?;
    if live == config.spec {
        Ok(())
    } else {
        Err(SiteError::Store(CatalogError::Durability(format!(
            "register record for '{column}' contradicts the target's algorithm \
             ({:?} vs live {live:?})",
            config.spec
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SiteServer;
    use crate::site::LocalSite;
    use crate::RemoteSite;
    use dh_catalog::durable::{DurableOptions, DurableStore, StoreKind};
    use dh_catalog::{AlgoSpec, RebuildPlan, ShardPlan, ShardedCatalog};
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
        let mut swaps = target.reshard_count("c").unwrap();
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
                    target.reshard_count("c").unwrap(),
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
