//! The follower: continuous changelog replay behind a swappable
//! serving state.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use dh_catalog::{
    AlgoSpec, CatalogError, ColumnConfig, ColumnShape, ColumnStore, DurableError, ReadStats,
    RebuildPlan, Replayed, Replayer, ShardedCatalog, Snapshot, SnapshotSet, StoreKind, WriteBatch,
};
use dh_core::UpdateOp;
use dh_wal::segment::latest_checkpoint;
use dh_wal::tail::{TailReader, TailStatus};
use dh_wal::WalRecord;

/// What one [`Follower::poll`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollStatus {
    /// Everything visible on disk is applied; the follower serves the
    /// newest state the changelog exposes.
    CaughtUp,
    /// Progress is blocked on something transient — an epoch gap from a
    /// segment that has not appeared (or finished copying) yet, or a
    /// pruned log whose checkpoint is not readable right now. The
    /// follower keeps serving its current whole-epoch state; poll again.
    Stalled,
    /// The leader's checkpoint pruning ran past the reader, and the
    /// follower rebuilt itself from the newest readable checkpoint plus
    /// the surviving log tail, swapping the serving state forward.
    Restored,
}

/// One poll's outcome: how many epochs were applied and how it ended.
#[derive(Debug, Clone, Copy)]
pub struct PollReport {
    /// Commits applied (epochs advanced) during this poll, including
    /// any applied onto a checkpoint restore.
    pub applied: u64,
    /// How the poll left the follower.
    pub status: PollStatus,
}

/// What replaying a batch of records onto the serving store found.
enum Applied {
    /// Every record landed (or was idempotently skipped).
    Clean,
    /// A record's epoch runs ahead of the store: a segment is missing
    /// or incomplete between here and there. Nothing past the gap was
    /// applied.
    Gap,
}

/// The state readers see, swapped atomically on checkpoint fallback.
struct ServingState {
    store: ShardedCatalog,
}

/// The tailing side, serialized under one lock so concurrent `poll`
/// calls cannot interleave replay.
struct TailState {
    reader: TailReader,
    /// The replay rule's state for the serving store: its configs and
    /// per-column rebuild-ordinal floors.
    replayer: Replayer,
}

/// A read replica: tails a leader's changelog directory and serves the
/// full [`ColumnStore`] read path from the replayed state; every
/// mutation returns [`CatalogError::ReadOnlyReplica`].
///
/// Reads are wait-free exactly as on the leader — they go through the
/// inner store's front generation; the follower adds one atomic
/// pointer chase to reach the current serving state. Replay runs only
/// inside [`Follower::poll`], which the serving process calls on its
/// own cadence (there is no background thread; the caller owns the
/// schedule and therefore the staleness).
///
/// ```no_run
/// use dh_catalog::{ColumnStore, StoreKind};
/// use dh_replica::Follower;
///
/// let follower = Follower::open("leader-wal-dir", StoreKind::Sharded).unwrap();
/// loop {
///     follower.poll().unwrap();
///     if follower.contains("amount") {
///         let estimate = follower.estimate_range("amount", 0, 100).unwrap();
///         let staleness = follower.lag_epochs();
///         println!("~{estimate} rows ({staleness} epochs behind)");
///     }
/// #   break;
/// }
/// ```
pub struct Follower {
    dir: PathBuf,
    kind: StoreKind,
    serving: RwLock<Arc<ServingState>>,
    tail: Mutex<TailState>,
    /// Monotone lower bound on the leader's published epoch, refreshed
    /// by every poll; readable without any lock.
    hint: AtomicU64,
}

impl Follower {
    /// Opens a follower over the leader's changelog directory. The
    /// directory may not exist yet (the copy stream has not delivered
    /// anything): the follower starts empty and picks the log up on
    /// later polls. If a checkpoint is already visible, the follower
    /// seeds itself from it instead of replaying the whole history.
    ///
    /// # Errors
    /// [`DurableError::Wal`] if a visible checkpoint is unreadable for
    /// a non-transient reason (store-kind mismatch);
    /// [`DurableError::Recovery`] if it is internally inconsistent.
    pub fn open(dir: impl Into<PathBuf>, kind: StoreKind) -> Result<Follower, DurableError> {
        let dir = dir.into();
        let checkpoint = load_checkpoint(&dir, kind)?;
        let base = checkpoint.as_ref().map_or(0, |ckpt| ckpt.epoch);
        let (store, replayer) = Replayer::restore(checkpoint.as_ref())?;
        let mut reader = TailReader::new(&dir, kind.tag());
        if base > 0 {
            reader.seek(base);
        }
        Ok(Follower {
            dir,
            kind,
            serving: RwLock::new(Arc::new(ServingState { store })),
            tail: Mutex::new(TailState { reader, replayer }),
            hint: AtomicU64::new(base),
        })
    }

    /// The changelog directory this follower tails.
    pub fn wal_dir(&self) -> &Path {
        &self.dir
    }

    /// The store design this follower replays into.
    pub fn kind(&self) -> StoreKind {
        self.kind
    }

    /// A monotone lower bound on the leader's published epoch, learned
    /// from the last [`poll`](Follower::poll): commit epochs and
    /// rebuild barriers seen in the log, plus segment and checkpoint
    /// file names (a segment starting at `S` proves the leader
    /// published `S - 1`). Never overshoots the leader.
    pub fn leader_epoch_hint(&self) -> u64 {
        self.hint.load(Ordering::Acquire).max(self.epoch())
    }

    /// The reported staleness bound:
    /// [`leader_epoch_hint`](Follower::leader_epoch_hint) minus the
    /// epoch this follower serves. `0` means the follower has applied
    /// everything the last poll could see; the true lag additionally
    /// includes whatever the leader published after that poll (bounded,
    /// for a file-copied stream, by the leader's unsynced window plus
    /// its in-flight segment — see `docs/REPLICATION.md`).
    pub fn lag_epochs(&self) -> u64 {
        self.leader_epoch_hint().saturating_sub(self.epoch())
    }

    /// Reads everything newly visible in the changelog and applies the
    /// sealed epochs, in order, to the serving state. Readers are never
    /// blocked and only ever observe whole-epoch states.
    ///
    /// # Errors
    /// [`DurableError::Wal`] on real corruption or a foreign directory;
    /// [`DurableError::Recovery`] if the log contradicts the replayed
    /// state. Transient copy races (torn tails, half-rotated segments,
    /// delayed files) are never errors — they surface as
    /// [`PollStatus::Stalled`] or an empty
    /// [`PollStatus::CaughtUp`] and resolve on later polls.
    pub fn poll(&self) -> Result<PollReport, DurableError> {
        let mut tail = self.tail();
        let serving = self.current();
        let mut applied = 0u64;
        let polled = tail.reader.poll()?;
        let status = match polled.status {
            TailStatus::Lost => self.fall_back(&mut tail, &mut applied)?,
            TailStatus::CaughtUp => {
                match apply_records(
                    &serving.store,
                    &mut tail.replayer,
                    polled.records,
                    &mut applied,
                )? {
                    Applied::Clean => PollStatus::CaughtUp,
                    Applied::Gap => {
                        // A later segment became visible before an
                        // earlier one finished copying — or the epochs
                        // between here and there are pruned for good
                        // and only a checkpoint can bridge them (a
                        // follower joining a long-running leader parks
                        // on a surviving segment and would otherwise
                        // stall forever: the missing history is never
                        // going to arrive). If a readable checkpoint
                        // lands past our epoch, restore through it;
                        // otherwise rewind to our own epoch and retry
                        // (the overlap re-reads idempotently once the
                        // missing piece lands).
                        let bridges = load_checkpoint(&self.dir, self.kind)?
                            .is_some_and(|ckpt| ckpt.epoch > serving.store.epoch());
                        if bridges {
                            self.fall_back(&mut tail, &mut applied)?
                        } else {
                            tail.reader.seek(serving.store.epoch());
                            PollStatus::Stalled
                        }
                    }
                }
            }
        };
        let hint = tail.reader.epoch_hint();
        self.hint.fetch_max(hint, Ordering::AcqRel);
        Ok(PollReport { applied, status })
    }

    /// The pruned-log fallback: rebuild from the newest readable
    /// checkpoint, replay the surviving tail onto it, and swap the
    /// serving state — but never backwards. If no checkpoint is
    /// readable right now (deleted mid-copy, not delivered yet), keep
    /// serving the current state and retry on a later poll.
    fn fall_back(
        &self,
        tail: &mut TailState,
        applied: &mut u64,
    ) -> Result<PollStatus, DurableError> {
        let old_epoch = self.epoch();
        let Some(ckpt) = load_checkpoint(&self.dir, self.kind)? else {
            tail.reader.seek(old_epoch);
            return Ok(PollStatus::Stalled);
        };
        // The replayer's rebuild-ordinal floor comes from the checkpoint:
        // a rebuild record at exactly the checkpoint epoch is still in
        // the log tail, and only its ordinal tells whether the restored
        // shape already includes it.
        let (store, mut replayer) = Replayer::restore(Some(&ckpt))?;
        let mut reader = TailReader::new(&self.dir, self.kind.tag());
        reader.seek(ckpt.epoch);
        let polled = reader.poll()?;
        let mut restored_applied = 0u64;
        let clean = match polled.status {
            // Pruned again while restoring: keep the old state, retry.
            TailStatus::Lost => {
                tail.reader.seek(old_epoch);
                return Ok(PollStatus::Stalled);
            }
            TailStatus::CaughtUp => matches!(
                apply_records(&store, &mut replayer, polled.records, &mut restored_applied)?,
                Applied::Clean
            ),
        };
        if store.epoch() < old_epoch {
            // The readable checkpoint plus tail lands *behind* what we
            // already serve (a stale copy of the directory). Never step
            // a replica backwards; retry from our own epoch.
            tail.reader.seek(old_epoch);
            return Ok(PollStatus::Stalled);
        }
        if !clean {
            // The restored state is a valid whole-epoch state, but the
            // tail past it has a gap; park the new reader at the new
            // epoch for the retry.
            reader.seek(store.epoch());
        }
        self.hint.fetch_max(ckpt.epoch, Ordering::AcqRel);
        *applied += restored_applied;
        *self
            .serving
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Arc::new(ServingState { store });
        tail.reader = reader;
        tail.replayer = replayer;
        Ok(PollStatus::Restored)
    }

    fn tail(&self) -> MutexGuard<'_, TailState> {
        self.tail
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn current(&self) -> Arc<ServingState> {
        self.serving
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower")
            .field("kind", &self.kind)
            .field("dir", &self.dir)
            .field("epoch", &self.epoch())
            .field("lag_epochs", &self.lag_epochs())
            .finish()
    }
}

/// Loads the newest readable checkpoint, tolerating a directory that
/// does not exist yet (nothing delivered): that is `None`, not an
/// error.
fn load_checkpoint(
    dir: &Path,
    kind: StoreKind,
) -> Result<Option<dh_wal::Checkpoint>, DurableError> {
    if !dir.exists() {
        return Ok(None);
    }
    Ok(latest_checkpoint(dir, kind.tag())?)
}

/// Replays records onto a serving store by the changelog's one replay
/// rule ([`Replayer`]). Where recovery treats an epoch gap as
/// unreplayable corruption (the leader owns its log; a gap there is
/// data loss), a follower treats it as a segment that has not arrived
/// yet and reports [`Applied::Gap`] for a retry.
fn apply_records(
    store: &ShardedCatalog,
    replayer: &mut Replayer,
    records: Vec<WalRecord>,
    applied: &mut u64,
) -> Result<Applied, DurableError> {
    for record in records {
        match replayer.replay(store, record)? {
            Replayed::Committed => *applied += 1,
            Replayed::Gap(_) => return Ok(Applied::Gap),
            Replayed::Registered | Replayed::Rebuilt | Replayed::Covered(_) => {}
        }
    }
    Ok(Applied::Clean)
}

/// A read-only error for every mutation arriving through the trait.
fn read_only<T>() -> Result<T, CatalogError> {
    Err(CatalogError::ReadOnlyReplica)
}

impl ColumnStore for Follower {
    /// Mutation: rejected with [`CatalogError::ReadOnlyReplica`] —
    /// columns appear on a follower by replaying the leader's register
    /// records.
    fn register(&self, _column: &str, _config: ColumnConfig) -> Result<(), CatalogError> {
        read_only()
    }

    fn columns(&self) -> Vec<String> {
        self.current().store.columns()
    }

    fn contains(&self, column: &str) -> bool {
        self.current().store.contains(column)
    }

    fn spec(&self, column: &str) -> Result<AlgoSpec, CatalogError> {
        self.current().store.spec(column)
    }

    /// Mutation: rejected with [`CatalogError::ReadOnlyReplica`] —
    /// commits reach a follower only through the changelog.
    fn commit(&self, _batch: WriteBatch) -> Result<u64, CatalogError> {
        read_only()
    }

    /// Mutation: rejected with [`CatalogError::ReadOnlyReplica`].
    fn apply(&self, _column: &str, _batch: &[UpdateOp]) -> Result<u64, CatalogError> {
        read_only()
    }

    fn flush(&self, column: &str) -> Result<(), CatalogError> {
        self.current().store.flush(column)
    }

    fn snapshot(&self, column: &str) -> Result<Snapshot, CatalogError> {
        self.current().store.snapshot(column)
    }

    fn snapshot_set(&self, columns: &[&str]) -> Result<SnapshotSet, CatalogError> {
        self.current().store.snapshot_set(columns)
    }

    fn snapshot_set_at(&self, columns: &[&str], epoch: u64) -> Result<SnapshotSet, CatalogError> {
        self.current().store.snapshot_set_at(columns, epoch)
    }

    fn checkpoint(&self, column: &str) -> Result<u64, CatalogError> {
        self.current().store.checkpoint(column)
    }

    fn epoch(&self) -> u64 {
        self.current().store.epoch()
    }

    /// Mutation: rejected with [`CatalogError::ReadOnlyReplica`] — the
    /// leader logs every border move; followers replay it at its exact
    /// barrier epoch.
    fn reshard(&self, _column: &str) -> Result<bool, CatalogError> {
        read_only()
    }

    /// Mutation: rejected with [`CatalogError::ReadOnlyReplica`] — the
    /// leader logs every shape change; followers replay it at its exact
    /// barrier epoch.
    fn rebuild(&self, _column: &str, _plan: RebuildPlan) -> Result<bool, CatalogError> {
        read_only()
    }

    fn column_shape(&self, column: &str) -> Result<Option<ColumnShape>, CatalogError> {
        self.current().store.column_shape(column)
    }

    /// The replay floor: the ordinal of the last rebuild this follower
    /// applied for `column` (or its restored checkpoint covered).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn rebuild_seq(&self, column: &str) -> Result<u64, CatalogError> {
        self.current().store.spec(column)?;
        Ok(self.tail().replayer.floor(column))
    }

    fn shard_load(&self, column: &str) -> Result<Vec<u64>, CatalogError> {
        self.current().store.shard_load(column)
    }

    fn clamped_ops(&self, column: &str) -> Result<u64, CatalogError> {
        self.current().store.clamped_ops(column)
    }

    fn estimate_range(&self, column: &str, a: i64, b: i64) -> Result<f64, CatalogError> {
        self.current().store.estimate_range(column, a, b)
    }

    fn estimate_eq(&self, column: &str, v: i64) -> Result<f64, CatalogError> {
        self.current().store.estimate_eq(column, v)
    }

    fn total_count(&self, column: &str) -> Result<f64, CatalogError> {
        self.current().store.total_count(column)
    }

    fn read_stats(&self) -> ReadStats {
        self.current().store.read_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_catalog::{DurableOptions, DurableStore};
    use dh_core::MemoryBudget;
    use dh_wal::tmp::TempDir;
    use dh_wal::SyncPolicy;

    fn opts() -> DurableOptions {
        DurableOptions {
            sync: SyncPolicy::Off,
            checkpoint_every: None,
            retain_generations: 2,
        }
    }

    fn config() -> ColumnConfig {
        ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5)).with_seed(3)
    }

    #[test]
    fn follower_tails_a_shared_directory() {
        let dir = TempDir::new("fol-shared");
        let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap();
        leader.register("c", config()).unwrap();
        leader.apply("c", &[UpdateOp::Insert(5)]).unwrap();

        let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();
        let report = follower.poll().unwrap();
        assert_eq!(report.status, PollStatus::CaughtUp);
        assert_eq!(report.applied, 1);
        assert_eq!(follower.epoch(), 1);
        assert_eq!(follower.lag_epochs(), 0);
        assert_eq!(
            follower.total_count("c").unwrap().to_bits(),
            leader.total_count("c").unwrap().to_bits()
        );

        // More commits appear; the follower picks them up in order.
        for v in [7, 9, 11] {
            leader.apply("c", &[UpdateOp::Insert(v)]).unwrap();
        }
        assert_eq!(follower.poll().unwrap().applied, 3);
        assert_eq!(follower.epoch(), leader.epoch());
        assert_eq!(
            follower.estimate_range("c", 0, 100).unwrap().to_bits(),
            leader.estimate_range("c", 0, 100).unwrap().to_bits()
        );
    }

    #[test]
    fn mutations_are_typed_read_only_rejections() {
        let dir = TempDir::new("fol-ro");
        drop(DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap());
        let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();

        assert!(matches!(
            follower.register("c", config()),
            Err(CatalogError::ReadOnlyReplica)
        ));
        let mut batch = WriteBatch::new();
        batch.extend("c", [UpdateOp::Insert(1)]);
        assert!(matches!(
            follower.commit(batch),
            Err(CatalogError::ReadOnlyReplica)
        ));
        assert!(matches!(
            follower.apply("c", &[UpdateOp::Insert(1)]),
            Err(CatalogError::ReadOnlyReplica)
        ));
        assert!(matches!(
            follower.reshard("c"),
            Err(CatalogError::ReadOnlyReplica)
        ));
        assert!(matches!(
            follower.rebuild("c", RebuildPlan::new().with_shards(4)),
            Err(CatalogError::ReadOnlyReplica)
        ));
        assert!(CatalogError::ReadOnlyReplica
            .to_string()
            .contains("read-only replica"));
    }

    #[test]
    fn missing_directory_starts_empty_and_catches_up_later() {
        let root = TempDir::new("fol-late");
        let dir = root.path().join("wal");
        let follower = Follower::open(&dir, StoreKind::Sharded).unwrap();
        assert_eq!(follower.poll().unwrap().status, PollStatus::CaughtUp);
        assert_eq!(follower.epoch(), 0);

        let leader = DurableStore::open(&dir, StoreKind::Sharded, opts()).unwrap();
        leader.register("c", config()).unwrap();
        leader.apply("c", &[UpdateOp::Insert(5)]).unwrap();
        assert_eq!(follower.poll().unwrap().applied, 1);
        assert_eq!(follower.epoch(), 1);
    }

    #[test]
    fn pruned_log_falls_back_to_checkpoint_restore() {
        let dir = TempDir::new("fol-prune");
        let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap();
        leader.register("c", config()).unwrap();

        let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();
        follower.poll().unwrap();

        // The leader runs ahead and checkpoints twice: the segment the
        // follower's cursor was parked in is pruned away.
        for e in 0..6 {
            leader.apply("c", &[UpdateOp::Insert(e)]).unwrap();
            if e % 2 == 1 {
                leader.checkpoint_now().unwrap();
            }
        }
        let report = follower.poll().unwrap();
        assert_eq!(report.status, PollStatus::Restored);
        assert_eq!(follower.epoch(), leader.epoch());
        // Mass is exact through a checkpoint restore.
        assert_eq!(
            follower.total_count("c").unwrap().to_bits(),
            leader.total_count("c").unwrap().to_bits()
        );
        // And the follower keeps tailing normally afterwards.
        leader.apply("c", &[UpdateOp::Insert(50)]).unwrap();
        let report = follower.poll().unwrap();
        assert_eq!(report.status, PollStatus::CaughtUp);
        assert_eq!(follower.epoch(), leader.epoch());
    }
}
