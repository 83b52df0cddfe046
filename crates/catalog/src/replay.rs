//! [`Replayer`]: the one rule for replaying the epoch changelog onto a
//! store — crash recovery ([`DurableStore::open`]), read replicas
//! (`dh_replica`'s follower) and site catch-up (`dh_site`'s `catch_up`)
//! all feed their records through it, and each keeps only its own
//! reaction to a gap. The rule is stated once, under "The replay rule"
//! in `docs/DURABILITY.md`.
//!
//! [`DurableStore::open`]: crate::DurableStore::open

use crate::durable::{config_from_record, restore_checkpoint, strip_policy, DurableError};
use crate::sharded::{RebuildPlan, ShardedCatalog};
use crate::store::{ColumnConfig, ColumnStore};
use crate::txn::WriteBatch;
use dh_core::MemoryBudget;
use dh_wal::{Checkpoint, WalRecord};
use std::collections::BTreeMap;

/// What [`Replayer::replay`] did with one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replayed {
    /// A register record added its column (without its policies: the
    /// log carries every automatic decision as a rebuild record).
    Registered,
    /// A commit record published the target's next epoch.
    Committed,
    /// A rebuild record ran at the target's epoch.
    Rebuilt,
    /// The target already holds what the record describes — a re-read.
    /// Carries the record's epoch (a commit's epoch, a rebuild's
    /// barrier), or `None` for a register record.
    Covered(Option<u64>),
    /// The record's epoch lies past the target's next step: the records
    /// between are missing. Nothing was applied.
    Gap(u64),
}

/// The changelog replay rule and the state it needs: the configs the
/// log registered and, per column, the rebuild-ordinal floor — the
/// ordinal of the last rebuild applied (or, on a leader, logged).
///
/// A checkpoint seeds both ([`Replayer::restore`]); a leader draws its
/// next ordinal from the same floor, so the ordinals it logs and the
/// ones its replicas dedup on can never drift apart.
#[derive(Debug, Clone, Default)]
pub struct Replayer {
    pub(crate) configs: BTreeMap<String, ColumnConfig>,
    pub(crate) floors: BTreeMap<String, u64>,
}

impl Replayer {
    /// A fresh store rebuilt from `checkpoint` (empty without one) and
    /// the replayer seeded from the same checkpoint — the base recovery
    /// and a replica's checkpoint fallback replay the log tail onto.
    ///
    /// # Errors
    /// [`DurableError::Recovery`] if the checkpoint is internally
    /// inconsistent; [`DurableError::Store`] if the store rejects a
    /// restored column.
    pub fn restore(
        checkpoint: Option<&Checkpoint>,
    ) -> Result<(ShardedCatalog, Replayer), DurableError> {
        let store = ShardedCatalog::new();
        let replayer = match checkpoint {
            Some(ckpt) => restore_checkpoint(&store, ckpt)?,
            None => Replayer::default(),
        };
        Ok((store, replayer))
    }

    /// Replays one record onto `target`:
    ///
    /// * `Register` — equal to the known config: covered; contradicting
    ///   it: an error; a new column: registered without its policies. A
    ///   column the target hosts but this replayer has not seen (a
    ///   catch-up into a populated store) must match the target's
    ///   algorithm.
    /// * `Commit` — at or below the target's epoch: covered; the next
    ///   epoch: applied; anything later: a gap.
    /// * `Rebuild` — past the target's epoch: a gap; behind it, or with
    ///   an ordinal at or below the column's floor: covered; otherwise
    ///   applied at the target's epoch, and the floor moves to the
    ///   record's ordinal. A column without a floor yet starts from
    ///   [`ColumnStore::rebuild_seq`].
    ///
    /// # Errors
    /// [`DurableError::Recovery`] for a contradicting register record or
    /// one naming an unknown algorithm; [`DurableError::Store`] if the
    /// target rejects a replayed record.
    pub fn replay(
        &mut self,
        target: &dyn ColumnStore,
        record: WalRecord,
    ) -> Result<Replayed, DurableError> {
        match record {
            WalRecord::Register { column, config } => {
                let config = config_from_record(&config)?;
                let agrees = match self.configs.get(&column) {
                    Some(known) => *known == config,
                    // Hosted but never seen here (a catch-up into a
                    // populated store): only the algorithm is visible.
                    None if target.contains(&column) => target.spec(&column)? == config.spec,
                    None => {
                        target.register(&column, strip_policy(&config))?;
                        self.configs.insert(column, config);
                        return Ok(Replayed::Registered);
                    }
                };
                if !agrees {
                    return Err(DurableError::Recovery(format!(
                        "register record for '{column}' contradicts the column the \
                         target holds ({config:?})"
                    )));
                }
                self.configs.entry(column).or_insert(config);
                Ok(Replayed::Covered(None))
            }
            WalRecord::Commit { epoch, columns } => {
                let at = target.epoch();
                if epoch <= at {
                    return Ok(Replayed::Covered(Some(epoch)));
                }
                if epoch != at + 1 {
                    return Ok(Replayed::Gap(epoch));
                }
                let mut batch = WriteBatch::new();
                for (column, ops) in columns {
                    batch.extend(&column, ops);
                }
                target.commit(batch)?;
                Ok(Replayed::Committed)
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
                    return Ok(Replayed::Gap(barrier));
                }
                let floor = match self.floors.get(&column) {
                    Some(&floor) => floor,
                    None => target.rebuild_seq(&column)?,
                };
                // The leader appends under one lock, so a commit past
                // the barrier proves the rebuild already replayed. At
                // the barrier only the ordinal decides: rebuilds publish
                // no epoch, so a distinct second rebuild there carries a
                // higher ordinal, while a re-read does not.
                if barrier < at || seq <= floor {
                    return Ok(Replayed::Covered(Some(barrier)));
                }
                // The record carries the plan's deltas; resolving them
                // against the same state at the same barrier reproduces
                // the live rebuild bit-identically. The floor moves even
                // if the replayed rebuild swaps nothing, so a later
                // re-read of this record cannot apply it twice.
                target.rebuild(&column, plan_from_deltas(shards, spec, memory_bytes)?)?;
                self.floors.insert(column, seq);
                Ok(Replayed::Rebuilt)
            }
        }
    }

    /// The ordinal of the last rebuild applied to `column` (on a leader:
    /// logged for it); `0` if none.
    pub fn floor(&self, column: &str) -> u64 {
        self.floors.get(column).copied().unwrap_or(0)
    }

    /// Draws a leader's next rebuild ordinal for `column` and moves the
    /// floor to it.
    pub(crate) fn next_ordinal(&mut self, column: &str) -> u64 {
        let seq = self.floor(column) + 1;
        self.floors.insert(column.to_string(), seq);
        seq
    }
}

/// Decodes the shape deltas of a logged rebuild record into the
/// [`RebuildPlan`] to replay.
fn plan_from_deltas(
    shards: Option<u64>,
    spec: Option<String>,
    memory_bytes: Option<u64>,
) -> Result<RebuildPlan, DurableError> {
    let mut plan = RebuildPlan::new();
    plan.shards = shards.map(|k| k as usize);
    if let Some(label) = spec {
        plan.spec = Some(label.parse().map_err(|e| {
            DurableError::Recovery(format!("unknown algorithm in rebuild record: {e}"))
        })?);
    }
    plan.memory = memory_bytes.map(|bytes| MemoryBudget::from_bytes(bytes as usize));
    Ok(plan)
}
