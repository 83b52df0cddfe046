//! [`DurableStore`]: crash durability and time travel as a decorator
//! over the [`ShardedCatalog`].
//!
//! The epoch-stamped commit pipeline already produces a totally-ordered
//! sequence of atomic state transitions; this module writes that
//! sequence to an append-only **epoch changelog** (`dh_wal`), snapshots
//! the whole store into **checkpoint** files on a configurable epoch
//! cadence, rebuilds a store from disk on [`DurableStore::open`], and
//! keeps an in-memory ring of the last K published generations so
//! [`ColumnStore::snapshot_set_at`] can pin *past* epochs. The full
//! contract (record format, fsync trade-offs, the recovery state
//! machine, time-travel GC) is `docs/DURABILITY.md`.
//!
//! # What the decorator changes
//!
//! Reads are untouched — they go straight to the inner store's
//! wait-free front. Mutations serialize through one log lock held
//! across `inner publish + changelog append`, which is what makes the
//! on-disk record order *be* the epoch order (no sequence numbers to
//! reconcile at recovery). Two deliberate consequences:
//!
//! * concurrent writers behind one `DurableStore` no longer overlap
//!   their publishes (part of the commit cost perfbench measures);
//! * the inner store still judges its own [`ReshardPolicy`] and
//!   [`AutoscalePolicy`] after each commit, and the decorator logs every
//!   rebuild that judgment ran with its exact barrier epoch, so replay
//!   re-runs the decisions instead of re-judging them. Replay therefore
//!   registers columns without their policies; [`DurableStore::open`]
//!   arms them once the log is replayed.
//!
//! # Fidelity of recovery
//!
//! Replaying the changelog re-runs the exact live code paths
//! (deterministic, seeded), so a log-only recovery reproduces every
//! estimate **bit-identically**. Restoring *through a checkpoint* is
//! exact in epoch and in the per-column accepted/update counters (the
//! checkpoint carries the historical values and recovery seeds them
//! directly — O(checkpoint size), not one replayed publication per
//! historical epoch), and exact in total mass; only the bucket *layout*
//! is rebuilt from the composed spans (the same approximation a live
//! re-shard applies to moved shards).
//!
//! # Fail-stop on append failure
//!
//! A commit is acknowledged only after its changelog record is written.
//! If the append itself fails (ENOSPC, a dying disk), the inner store
//! has already published the epoch — letting any *later* commit append
//! would write a record whose epoch skips the lost one, an epoch gap
//! that replay correctly refuses as corruption. So a failed append
//! **poisons** the store: every subsequent mutation (and explicit
//! checkpoint) is rejected with [`CatalogError::Durability`], reads
//! keep serving, and reopening the directory recovers to the last
//! durable state.

use crate::read::ReadStats;
use crate::replay::{Replayed, Replayer};
use crate::sharded::{
    spread_inserts, AutoscalePolicy, ColumnShape, RebuildEvent, RebuildPlan, ReshardPolicy,
    ShardPlan, ShardedCatalog,
};
use crate::spec::AlgoSpec;
use crate::store::{CatalogError, ColumnConfig, ColumnStore, Snapshot, SnapshotSet};
use crate::txn::{RestoreColumn, WriteBatch};
use dh_core::{BucketSpan, MemoryBudget, ReadHistogram, UpdateOp};
use dh_wal::segment::{
    checkpoint_epochs, latest_checkpoint, write_checkpoint, Checkpoint, CheckpointColumn, Wal,
};
use dh_wal::{
    AutoscaleRecord, ConfigRecord, PlanRecord, ReshardPolicyRecord, ShapeRecord, SyncPolicy,
    WalError, WalRecord,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Which store design a durable directory belongs to. Stamped into
/// every segment and checkpoint header so a directory can never be
/// silently replayed into the wrong design. One design remains; tag 1
/// (a retired single-lock store) is refused on open with
/// [`WalError::StoreKindMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// [`ShardedCatalog`] — value-partitioned shards.
    Sharded,
}

impl StoreKind {
    /// The header tag byte this kind stamps into segments and
    /// checkpoints — what a follower must hand to `dh_wal`'s tail
    /// reader so it refuses a directory of the wrong design.
    pub fn tag(self) -> u8 {
        match self {
            StoreKind::Sharded => 2,
        }
    }
}

/// Tuning for a [`DurableStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// When appended records are fsync'd (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Write a checkpoint (and rotate + truncate the changelog) every
    /// this many published epochs; `None` never checkpoints
    /// automatically ([`DurableStore::checkpoint_now`] still works).
    pub checkpoint_every: Option<u64>,
    /// How many published generations the time-travel ring retains
    /// (the current one included). `0` disables time travel entirely —
    /// [`ColumnStore::snapshot_set_at`] then only serves the current
    /// epoch.
    pub retain_generations: usize,
}

impl Default for DurableOptions {
    /// Batched fsync, a checkpoint every 256 epochs, 8 retained
    /// generations.
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::default(),
            checkpoint_every: Some(256),
            retain_generations: 8,
        }
    }
}

/// A typed failure from [`DurableStore::open`] and the other explicitly
/// durable entry points. (Mutations arriving through the [`ColumnStore`]
/// trait must fit its [`CatalogError`]; they render a [`WalError`] into
/// [`CatalogError::Durability`] instead.)
#[derive(Debug)]
pub enum DurableError {
    /// The changelog or a checkpoint file failed (I/O, corruption, a
    /// store-kind mismatch).
    Wal(WalError),
    /// The inner store rejected an operation.
    Store(CatalogError),
    /// The log and checkpoint are individually valid but do not form a
    /// replayable history (an epoch gap, a register record contradicting
    /// the live config, ...). Data after the inconsistency cannot be
    /// trusted, so recovery stops instead of guessing.
    Recovery(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "{e}"),
            DurableError::Store(e) => write!(f, "{e}"),
            DurableError::Recovery(why) => write!(f, "unreplayable history: {why}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Wal(e) => Some(e),
            DurableError::Store(e) => Some(e),
            DurableError::Recovery(_) => None,
        }
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

impl From<CatalogError> for DurableError {
    fn from(e: CatalogError) -> Self {
        DurableError::Store(e)
    }
}

fn durability(e: WalError) -> CatalogError {
    CatalogError::Durability(e.to_string())
}

/// Everything guarded by the log lock: the changelog handle, the
/// replayer that holds the configs and rebuild ordinals, and the
/// time-travel ring.
struct DurableState {
    wal: Wal,
    /// The registered configs (policies included) and, per column, the
    /// ordinal of the last logged rebuild ([`WalRecord::Rebuild::seq`]).
    /// Checkpoints persist the ordinal (inside
    /// [`ConfigRecord::rebuild_seq`]) so a restarted leader never
    /// reissues an ordinal a follower has already applied.
    replayer: Replayer,
    /// The last `retain_generations` published generations, epochs
    /// strictly ascending; each entry is a full-store [`SnapshotSet`].
    ring: VecDeque<SnapshotSet>,
    /// Epoch of the last on-disk checkpoint (0 = none yet).
    last_checkpoint: u64,
    /// `Some(why)` once a changelog append has failed. The inner store
    /// then holds an epoch the log does not — appending anything further
    /// would write an epoch gap that replay must refuse — so the store
    /// fail-stops: every mutation is rejected until the directory is
    /// reopened (see the [module docs](self)).
    poisoned: Option<String>,
}

/// Crash durability, checkpoints and time travel over a
/// [`ShardedCatalog`] — see the [module docs](self).
///
/// ```no_run
/// use dh_catalog::durable::{DurableOptions, DurableStore, StoreKind};
/// use dh_catalog::{AlgoSpec, ColumnConfig, ColumnStore};
/// use dh_core::{MemoryBudget, UpdateOp};
///
/// let store =
///     DurableStore::open("wal-dir", StoreKind::Sharded, DurableOptions::default()).unwrap();
/// if !store.contains("amount") {
///     let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0));
///     store.register("amount", config).unwrap();
/// }
/// store.apply("amount", &[UpdateOp::Insert(42)]).unwrap();
/// drop(store); // ... crash here, reopen, and the epoch is back:
/// let store =
///     DurableStore::open("wal-dir", StoreKind::Sharded, DurableOptions::default()).unwrap();
/// assert_eq!(store.total_count("amount").unwrap(), 1.0);
/// ```
pub struct DurableStore {
    inner: ShardedCatalog,
    kind: StoreKind,
    opts: DurableOptions,
    dir: PathBuf,
    state: Mutex<DurableState>,
}

impl DurableStore {
    /// Opens (or creates) the durable store rooted at `dir`: loads the
    /// newest valid checkpoint, replays the surviving changelog tail in
    /// epoch order (truncating a torn final record — the expected shape
    /// of a crash mid-append), and serves from a freshly built
    /// [`ShardedCatalog`].
    ///
    /// # Errors
    /// [`DurableError::Wal`] on I/O problems, corruption outside the
    /// torn-tail window, or a `kind` mismatch with the directory;
    /// [`DurableError::Recovery`] if checkpoint and log do not form a
    /// replayable history.
    pub fn open(
        dir: impl Into<PathBuf>,
        kind: StoreKind,
        opts: DurableOptions,
    ) -> Result<Self, DurableError> {
        let dir = dir.into();
        let (wal, records) = Wal::open(&dir, kind.tag(), opts.sync)?;
        let checkpoint = latest_checkpoint(&dir, kind.tag())?;
        let (inner, replayer) = Replayer::restore(checkpoint.as_ref())?;
        let base = checkpoint.as_ref().map_or(0, |ckpt| ckpt.epoch);
        let store = DurableStore {
            inner,
            kind,
            opts,
            dir,
            state: Mutex::new(DurableState {
                wal,
                replayer,
                ring: VecDeque::new(),
                last_checkpoint: base,
                poisoned: None,
            }),
        };
        store.replay(base, records)?;
        // Arm the policies only now: the log already carries every
        // decision they made, and the autoscale window opens *at* the
        // recovered load — counting replayed load into the first live
        // window would manufacture a burst that never happened.
        {
            let st = store.lock();
            for (column, config) in &st.replayer.configs {
                store.inner.arm(column, config)?;
            }
        }
        Ok(store)
    }

    /// Replays the surviving changelog records onto the restored base
    /// state, repopulating the time-travel ring along the way. The log
    /// is this store's own, so past the checkpoint every record must be
    /// new and gap-free.
    fn replay(&self, base: u64, records: Vec<WalRecord>) -> Result<(), DurableError> {
        let mut st = self.lock();
        for record in records {
            match st.replayer.replay(&self.inner, record)? {
                Replayed::Committed => self.push_generation(&mut st)?,
                Replayed::Rebuilt => self.refresh_ring_tail(&mut st)?,
                Replayed::Covered(Some(epoch)) if epoch > base => {
                    return Err(DurableError::Recovery(format!(
                        "record for epoch {epoch} arrived out of order (store already at {})",
                        self.inner.epoch()
                    )));
                }
                Replayed::Gap(epoch) => {
                    return Err(DurableError::Recovery(format!(
                        "epoch gap in changelog: store at {}, next record is for epoch {epoch}",
                        self.inner.epoch()
                    )));
                }
                Replayed::Registered | Replayed::Covered(_) => {}
            }
        }
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DurableState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Rejects the operation once a changelog append has failed: the
    /// inner store and the log have diverged by one epoch, and any
    /// further append would turn that into a permanent epoch gap.
    fn check_usable(st: &DurableState) -> Result<(), CatalogError> {
        match &st.poisoned {
            None => Ok(()),
            Some(why) => Err(CatalogError::Durability(format!(
                "store is fail-stopped after a changelog append failure ({why}); \
                 reopen the directory to recover to the last durable state"
            ))),
        }
    }

    /// Appends under the fail-stop discipline: an append failure poisons
    /// the store before the error is surfaced, so no later mutation can
    /// log past the lost epoch.
    fn append(st: &mut DurableState, record: &WalRecord) -> Result<(), CatalogError> {
        st.wal.append(record).map_err(|e| {
            st.poisoned = Some(e.to_string());
            durability(e)
        })
    }

    /// Renders the just-published generation into the time-travel ring.
    fn push_generation(&self, st: &mut DurableState) -> Result<(), CatalogError> {
        if self.opts.retain_generations == 0 {
            return Ok(());
        }
        let names: Vec<&str> = st.replayer.configs.keys().map(String::as_str).collect();
        let set = self.inner.snapshot_set(&names)?;
        st.ring.push_back(set);
        while st.ring.len() > self.opts.retain_generations {
            st.ring.pop_front();
        }
        Ok(())
    }

    /// Re-renders the newest ring entry after a re-shard, which rebuilt
    /// spans *without* publishing an epoch — the retained generation
    /// must match what live readers now see at that same epoch.
    fn refresh_ring_tail(&self, st: &mut DurableState) -> Result<(), CatalogError> {
        let epoch = self.inner.epoch();
        if st.ring.back().is_some_and(|set| set.epoch() == epoch) {
            let names: Vec<&str> = st.replayer.configs.keys().map(String::as_str).collect();
            *st.ring.back_mut().expect("checked above") = self.inner.snapshot_set(&names)?;
        }
        Ok(())
    }

    /// Logs a rebuild that swapped `column`'s generation at `barrier`,
    /// under the column's next ordinal — lifetime-monotone, so two shape
    /// changes at the same barrier (rebuilds publish no epoch) still log
    /// as distinguishable records and a follower's gap-rewind re-read
    /// cannot be confused with a distinct rebuild.
    fn log_rebuild(
        st: &mut DurableState,
        column: &str,
        barrier: u64,
        plan: &RebuildPlan,
    ) -> Result<(), CatalogError> {
        let record = WalRecord::Rebuild {
            column: column.to_string(),
            barrier,
            seq: st.replayer.next_ordinal(column),
            shards: plan.shards.map(|k| k as u64),
            spec: plan.spec.map(|s| s.label()),
            memory_bytes: plan.memory.map(|m| m.bytes() as u64),
        };
        Self::append(st, &record)
    }

    /// Everything that follows a logged publication: the rebuilds the
    /// inner store's policies ran (logged after the commit record — the
    /// log carries the *decision*, so replay re-applies the plan at the
    /// same barrier instead of re-judging a window it cannot
    /// reconstruct), the ring push, and the checkpoint cadence.
    fn after_commit(
        &self,
        st: &mut DurableState,
        epoch: u64,
        rebuilds: Vec<RebuildEvent>,
    ) -> Result<(), CatalogError> {
        for event in rebuilds {
            Self::log_rebuild(st, &event.column, event.barrier, &event.plan)?;
        }
        self.push_generation(st)?;
        if let Some(every) = self.opts.checkpoint_every {
            if epoch - st.last_checkpoint >= every.max(1) {
                self.checkpoint_to_disk(st).map_err(|e| match e {
                    DurableError::Wal(w) => durability(w),
                    DurableError::Store(s) => s,
                    DurableError::Recovery(why) => CatalogError::Durability(why),
                })?;
            }
        }
        Ok(())
    }

    /// Composes the whole store at its current epoch into a checkpoint
    /// file, then rotates the changelog and removes covered segments.
    fn checkpoint_to_disk(&self, st: &mut DurableState) -> Result<u64, DurableError> {
        let names: Vec<&str> = st.replayer.configs.keys().map(String::as_str).collect();
        let set = self.inner.snapshot_set(&names)?;
        let epoch = set.epoch();
        let mut columns = Vec::with_capacity(names.len());
        for (name, snap) in set.iter() {
            // Checkpoints (and only checkpoints) annotate the config
            // with the live shape when a rebuild changed it: restore
            // must reproduce it even after the rebuild records that
            // produced it are pruned with the covered segments.
            let config = &st.replayer.configs[name];
            let mut record = config_to_record(config);
            let shape = self.inner.shape(name)?;
            let registered = (
                config.spec,
                config.memory,
                config.plan.map_or(1, |plan| plan.shards()),
            );
            if (shape.spec, shape.memory, shape.shards) != registered {
                record.rebuilt = Some(shape_to_record(&shape));
            }
            record.rebuild_seq = st.replayer.floor(name);
            columns.push(CheckpointColumn {
                column: name.to_string(),
                config: record,
                accepted: snap.checkpoint(),
                updates: snap.updates(),
                spans: snap.spans(),
            });
        }
        write_checkpoint(&self.dir, self.kind.tag(), &Checkpoint { epoch, columns })?;
        st.wal.rotate(epoch + 1)?;
        // Prune segments back to the *oldest retained* checkpoint, not
        // this one: if this checkpoint is later found damaged (bit rot),
        // recovery falls back to the older retained checkpoint and still
        // needs the log tail from there forward. Only when a single
        // checkpoint exists (the first ever) is pruning to `epoch` right
        // — there is no older fallback to preserve segments for.
        let cover = checkpoint_epochs(&self.dir)?
            .first()
            .copied()
            .unwrap_or(epoch);
        st.wal.remove_covered(cover)?;
        st.last_checkpoint = epoch;
        Ok(epoch)
    }

    /// Writes a checkpoint now, regardless of the cadence, returning
    /// the epoch it captured.
    pub fn checkpoint_now(&self) -> Result<u64, DurableError> {
        let mut st = self.lock();
        Self::check_usable(&st).map_err(DurableError::Store)?;
        self.checkpoint_to_disk(&mut st)
    }

    /// Forces an fsync of the changelog (meaningful under
    /// [`SyncPolicy::Batched`] / [`SyncPolicy::Off`]).
    pub fn sync(&self) -> Result<(), DurableError> {
        self.lock().wal.sync().map_err(DurableError::Wal)
    }

    /// The epochs the time-travel ring currently retains, ascending.
    pub fn retained_epochs(&self) -> Vec<u64> {
        self.lock().ring.iter().map(SnapshotSet::epoch).collect()
    }

    /// Explicit time-travel GC: drops every retained generation with an
    /// epoch `< before`, returning how many were evicted. Snapshot sets
    /// already handed out stay valid (they are immutable `Arc` views);
    /// the epochs just stop being pinnable.
    pub fn gc_retained(&self, before: u64) -> usize {
        let mut st = self.lock();
        let len = st.ring.len();
        st.ring.retain(|set| set.epoch() >= before);
        len - st.ring.len()
    }

    /// The directory holding the changelog and checkpoints.
    pub fn wal_dir(&self) -> &Path {
        &self.dir
    }

    /// The inner store design this directory is bound to.
    pub fn kind(&self) -> StoreKind {
        self.kind
    }

    /// How many segment files the changelog currently spans.
    pub fn segment_count(&self) -> usize {
        self.lock().wal.segment_count()
    }
}

impl Drop for DurableStore {
    /// Best-effort final fsync, so `drop` + reopen under
    /// [`SyncPolicy::Batched`] loses nothing (a *crash* may still shed
    /// the unsynced suffix — that is the policy's contract).
    fn drop(&mut self) {
        let _ = self.lock().wal.sync();
    }
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStore")
            .field("kind", &self.kind)
            .field("dir", &self.dir)
            .field("epoch", &self.inner.epoch())
            .field("columns", &self.inner.columns())
            .finish()
    }
}

impl ColumnStore for DurableStore {
    /// Registers through the changelog: the record and the inner store
    /// both get the full config, policies included — the inner store
    /// judges them after each commit and the decorator logs what they
    /// decide (see the [module docs](self)).
    fn register(&self, column: &str, config: ColumnConfig) -> Result<(), CatalogError> {
        let mut st = self.lock();
        Self::check_usable(&st)?;
        if st.replayer.configs.contains_key(column) {
            return Err(CatalogError::DuplicateColumn(column.into()));
        }
        // Inner first: the inner store is the validator, and a record
        // logged for a registration that then fails would brick every
        // reopen. If the append after it fails, `append` poisons the
        // store, so the inner-only column can never be committed to or
        // survive a reopen — the log and the durable column set cannot
        // diverge.
        self.inner.register(column, config)?;
        Self::append(
            &mut st,
            &WalRecord::Register {
                column: column.to_string(),
                config: config_to_record(&config),
            },
        )?;
        st.replayer.configs.insert(column.to_string(), config);
        Ok(())
    }

    fn columns(&self) -> Vec<String> {
        self.inner.columns()
    }

    fn contains(&self, column: &str) -> bool {
        self.inner.contains(column)
    }

    fn spec(&self, column: &str) -> Result<AlgoSpec, CatalogError> {
        self.inner.spec(column)
    }

    fn commit(&self, batch: WriteBatch) -> Result<u64, CatalogError> {
        let mut st = self.lock();
        Self::check_usable(&st)?;
        let columns: Vec<(String, Vec<UpdateOp>)> = batch
            .columns()
            .map(|c| (c.to_string(), batch.ops(c).unwrap_or(&[]).to_vec()))
            .collect();
        let (epoch, rebuilds) = self.inner.commit_judged(batch)?;
        // If this append fails the inner store has already published
        // `epoch`; a later successful append would leave a permanent
        // epoch gap that replay treats as corruption. `append` poisons
        // the store on failure so no later record can land past the gap.
        Self::append(&mut st, &WalRecord::Commit { epoch, columns })?;
        self.after_commit(&mut st, epoch, rebuilds)?;
        Ok(epoch)
    }

    fn apply(&self, column: &str, batch: &[UpdateOp]) -> Result<u64, CatalogError> {
        let mut st = self.lock();
        Self::check_usable(&st)?;
        let (checkpoint, rebuild) = self.inner.apply_judged(column, batch)?;
        // The lock serializes every publication, so the store's epoch
        // is the one this apply just published.
        let epoch = self.inner.epoch();
        Self::append(
            &mut st,
            &WalRecord::Commit {
                epoch,
                columns: vec![(column.to_string(), batch.to_vec())],
            },
        )?;
        self.after_commit(&mut st, epoch, rebuild.into_iter().collect())?;
        Ok(checkpoint)
    }

    fn flush(&self, column: &str) -> Result<(), CatalogError> {
        self.inner.flush(column)
    }

    fn snapshot(&self, column: &str) -> Result<Snapshot, CatalogError> {
        self.inner.snapshot(column)
    }

    fn snapshot_set(&self, columns: &[&str]) -> Result<SnapshotSet, CatalogError> {
        self.inner.snapshot_set(columns)
    }

    /// Serves `epoch` from the time-travel ring (bit-identical to what
    /// live readers saw at that epoch), falling back to the live path
    /// when `epoch` is current.
    fn snapshot_set_at(&self, columns: &[&str], epoch: u64) -> Result<SnapshotSet, CatalogError> {
        {
            let st = self.lock();
            if let Some(full) = st.ring.iter().find(|set| set.epoch() == epoch) {
                let mut snaps = BTreeMap::new();
                for &column in columns {
                    let snap = full
                        .get(column)
                        .ok_or_else(|| CatalogError::UnknownColumn(column.into()))?;
                    snaps.insert(column.to_string(), snap.clone());
                }
                return Ok(SnapshotSet::new(epoch, snaps));
            }
        }
        let set = self.inner.snapshot_set(columns)?;
        if set.epoch() == epoch {
            Ok(set)
        } else {
            Err(CatalogError::EpochEvicted(epoch))
        }
    }

    fn checkpoint(&self, column: &str) -> Result<u64, CatalogError> {
        self.inner.checkpoint(column)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// Explicit re-shard, logged like a policy-driven one so recovery
    /// replays it at the same barrier — as a delta-less [`Rebuild`]
    /// record carrying its ordinal.
    ///
    /// [`Rebuild`]: WalRecord::Rebuild
    fn reshard(&self, column: &str) -> Result<bool, CatalogError> {
        self.rebuild(column, RebuildPlan::new())
    }

    /// Explicit shape-changing rebuild, logged with the plan's deltas:
    /// replay resolves them against the same prior state at the same
    /// barrier, so recovery reproduces the rebuilt shape bit-identically.
    fn rebuild(&self, column: &str, plan: RebuildPlan) -> Result<bool, CatalogError> {
        let mut st = self.lock();
        Self::check_usable(&st)?;
        let moved = self.inner.rebuild(column, plan)?;
        if moved {
            Self::log_rebuild(&mut st, column, self.inner.epoch(), &plan)?;
            self.refresh_ring_tail(&mut st)?;
        }
        Ok(moved)
    }

    fn column_shape(&self, column: &str) -> Result<Option<ColumnShape>, CatalogError> {
        self.inner.column_shape(column)
    }

    /// The ordinal of the last rebuild this store logged for `column` —
    /// restored from the log and checkpoints on reopen.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn rebuild_seq(&self, column: &str) -> Result<u64, CatalogError> {
        self.inner.spec(column)?;
        Ok(self.lock().replayer.floor(column))
    }

    fn shard_load(&self, column: &str) -> Result<Vec<u64>, CatalogError> {
        self.inner.shard_load(column)
    }

    fn clamped_ops(&self, column: &str) -> Result<u64, CatalogError> {
        self.inner.clamped_ops(column)
    }

    fn estimate_range(&self, column: &str, a: i64, b: i64) -> Result<f64, CatalogError> {
        self.inner.estimate_range(column, a, b)
    }

    fn estimate_eq(&self, column: &str, v: i64) -> Result<f64, CatalogError> {
        self.inner.estimate_eq(column, v)
    }

    fn total_count(&self, column: &str) -> Result<f64, CatalogError> {
        self.inner.total_count(column)
    }

    fn read_stats(&self) -> ReadStats {
        self.inner.read_stats()
    }
}

/// `config` as replay registers it: identical, minus any re-shard or
/// autoscale policy — the log carries every decision the policies made,
/// so a replayed column must never judge on its own.
pub(crate) fn strip_policy(config: &ColumnConfig) -> ColumnConfig {
    ColumnConfig {
        reshard: None,
        autoscale: None,
        ..*config
    }
}

/// Flattens a live [`ColumnConfig`] to its logged [`ConfigRecord`] —
/// the inverse of [`config_from_record`], shared with the `dh_site`
/// wire protocol so a register request travels as the exact record its
/// replay would log.
pub fn config_to_record(config: &ColumnConfig) -> ConfigRecord {
    ConfigRecord {
        spec: config.spec.label(),
        memory_bytes: config.memory.bytes() as u64,
        seed: config.seed,
        plan: config.plan.map(|plan| PlanRecord {
            lo: plan.domain().0,
            hi: plan.domain().1,
            shards: plan.shards() as u64,
        }),
        reshard: config.reshard.map(|policy| ReshardPolicyRecord {
            skew_bits: policy.skew_threshold.to_bits(),
            min_interval_epochs: policy.min_interval_epochs,
            min_load: policy.min_load,
        }),
        autoscale: config.autoscale.map(|policy| AutoscaleRecord {
            min_shards: policy.min_shards as u64,
            max_shards: policy.max_shards as u64,
            scale_up_rate: policy.scale_up_rate,
            scale_down_rate: policy.scale_down_rate,
            skew_bits: policy.skew_threshold.to_bits(),
            min_interval_epochs: policy.min_interval_epochs,
            min_load: policy.min_load,
        }),
        // Only checkpoints annotate a rebuilt shape and a rebuild
        // ordinal; a register record always describes the registration
        // shape alone.
        rebuilt: None,
        rebuild_seq: 0,
    }
}

/// Decodes a logged [`ConfigRecord`] back into a live [`ColumnConfig`]
/// — the shared leg of replaying a register record, on recovery and on
/// a replica alike.
///
/// # Errors
/// [`DurableError::Recovery`] if the record names an unknown algorithm
/// or an invalid shard plan.
pub fn config_from_record(record: &ConfigRecord) -> Result<ColumnConfig, DurableError> {
    let spec: AlgoSpec = record.spec.parse().map_err(|e| {
        DurableError::Recovery(format!("unknown algorithm in register record: {e}"))
    })?;
    let mut config =
        ColumnConfig::new(spec, MemoryBudget::from_bytes(record.memory_bytes as usize))
            .with_seed(record.seed);
    if let Some(plan) = &record.plan {
        config = config.with_plan(ShardPlan::new(plan.lo, plan.hi, plan.shards as usize)?);
    }
    if let Some(policy) = &record.reshard {
        config = config.with_reshard(ReshardPolicy {
            skew_threshold: f64::from_bits(policy.skew_bits),
            min_interval_epochs: policy.min_interval_epochs,
            min_load: policy.min_load,
        });
    }
    if let Some(policy) = &record.autoscale {
        config = config.with_autoscale(AutoscalePolicy {
            min_shards: policy.min_shards as usize,
            max_shards: policy.max_shards as usize,
            scale_up_rate: policy.scale_up_rate,
            scale_down_rate: policy.scale_down_rate,
            skew_threshold: f64::from_bits(policy.skew_bits),
            min_interval_epochs: policy.min_interval_epochs,
            min_load: policy.min_load,
        });
    }
    // `record.rebuilt` is deliberately ignored here: it annotates the
    // *live* shape inside a checkpoint, not the registration config —
    // [`restore_checkpoint`] re-applies it through `rebuild` instead.
    Ok(config)
}

/// Flattens a live [`ColumnShape`] into the [`ShapeRecord`] a checkpoint
/// carries.
fn shape_to_record(shape: &ColumnShape) -> ShapeRecord {
    ShapeRecord {
        shards: shape.shards as u64,
        spec: shape.spec.label(),
        memory_bytes: shape.memory.bytes() as u64,
    }
}

/// The fully-specified [`RebuildPlan`] that reproduces a checkpointed
/// shape on a freshly registered column.
fn shape_to_plan(shape: &ShapeRecord) -> Result<RebuildPlan, DurableError> {
    let spec: AlgoSpec = shape.spec.parse().map_err(|e| {
        DurableError::Recovery(format!("unknown algorithm in checkpoint shape: {e}"))
    })?;
    Ok(RebuildPlan::new()
        .with_shards(shape.shards as usize)
        .with_spec(spec)
        .with_memory(MemoryBudget::from_bytes(shape.memory_bytes as usize)))
}

/// Rebuilds the store's state from a checkpoint: registers every
/// column, then seeds the store epoch and every per-column counter
/// directly through the store's restore hook, applying ops synthesized
/// from the checkpointed spans to rebuild the histogram mass. Cost is
/// proportional to the checkpoint size, not the store's lifetime epoch
/// count. Returns the replayer seeded with the checkpoint's configs and
/// rebuild ordinals.
pub(crate) fn restore_checkpoint(
    inner: &ShardedCatalog,
    ckpt: &Checkpoint,
) -> Result<Replayer, DurableError> {
    let mut replayer = Replayer::default();
    for col in &ckpt.columns {
        if col.accepted > ckpt.epoch {
            return Err(DurableError::Recovery(format!(
                "checkpoint claims column '{}' accepted {} commits by epoch {}",
                col.column, col.accepted, ckpt.epoch
            )));
        }
        let config = config_from_record(&col.config)?;
        inner.register(&col.column, strip_policy(&config))?;
        replayer.configs.insert(col.column.clone(), config);
        if col.config.rebuild_seq > 0 {
            replayer
                .floors
                .insert(col.column.clone(), col.config.rebuild_seq);
        }
    }
    // Re-apply any rebuilt shape *before* seeding the mass, so the
    // synthesized ops route through the shape live readers last saw —
    // the rebuild records that produced it may already be pruned.
    for col in &ckpt.columns {
        if let Some(shape) = &col.config.rebuilt {
            inner.rebuild(&col.column, shape_to_plan(shape)?)?;
        }
    }
    if ckpt.epoch == 0 {
        return Ok(replayer);
    }
    let images: Vec<RestoreColumn> = ckpt
        .columns
        .iter()
        .map(|col| RestoreColumn {
            name: col.column.clone(),
            accepted: col.accepted,
            updates: col.updates,
            ops: if col.accepted > 0 {
                synthesize_ops(&col.spans)
            } else {
                Vec::new()
            },
        })
        .collect();
    inner.restore_at(ckpt.epoch, images)?;
    Ok(replayer)
}

/// Turns checkpointed spans back into insert ops: integer per-span
/// counts by largest-remainder rounding (so the synthesized total is
/// `round(total mass)`), each span's count spread evenly over the
/// integer values its `[lo, hi)` window covers — the same rebuild idiom
/// a live re-shard applies to moved shards.
fn synthesize_ops(spans: &[BucketSpan]) -> Vec<UpdateOp> {
    let total: f64 = spans.iter().map(|s| s.count).sum();
    let target = total.round() as u64;
    let mut counts: Vec<u64> = spans.iter().map(|s| s.count.floor() as u64).collect();
    let assigned: u64 = counts.iter().sum();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = spans[a].count.fract();
        let fb = spans[b].count.fract();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in order.iter().take(target.saturating_sub(assigned) as usize) {
        counts[i] += 1;
    }

    let mut ops = Vec::with_capacity(target.min(1 << 20) as usize);
    for (span, &count) in spans.iter().zip(&counts) {
        if count == 0 {
            continue;
        }
        // Integer values inside the half-open [lo, hi) window; a sliver
        // narrower than one integer collapses to its midpoint.
        let mut vlo = span.lo.ceil() as i64;
        let mut vhi = (span.hi.ceil() as i64).saturating_sub(1);
        if vhi < vlo {
            let mid = ((span.lo + span.hi) / 2.0).floor() as i64;
            vlo = mid;
            vhi = mid;
        }
        spread_inserts(vlo, vhi, count, &mut |v, n| {
            for _ in 0..n {
                ops.push(UpdateOp::Insert(v));
            }
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_ops_hit_the_rounded_total() {
        let spans = vec![
            BucketSpan::new(0.0, 10.0, 7.3),
            BucketSpan::new(10.0, 20.0, 2.4),
            BucketSpan::new(20.0, 20.5, 0.3),
        ];
        let ops = synthesize_ops(&spans);
        assert_eq!(ops.len(), 10); // round(10.0)
        assert!(ops
            .iter()
            .all(|op| matches!(op, UpdateOp::Insert(v) if (0..=20).contains(v))));
    }

    #[test]
    fn poisoned_store_rejects_mutations_but_keeps_serving_reads() {
        let dir = dh_wal::tmp::TempDir::new("dur-poison");
        let store = DurableStore::open(
            dir.path(),
            StoreKind::Sharded,
            DurableOptions {
                sync: SyncPolicy::PerCommit,
                checkpoint_every: None,
                retain_generations: 2,
            },
        )
        .unwrap();
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)),
            )
            .unwrap();
        store.apply("c", &[UpdateOp::Insert(5)]).unwrap();

        // Simulate a failed changelog append (the real trigger is an
        // I/O error inside `append`, which sets this same flag).
        store.lock().poisoned = Some("injected".into());

        let rejected = |r: Result<u64, CatalogError>| {
            assert!(
                matches!(r, Err(CatalogError::Durability(ref why)) if why.contains("fail-stopped")),
                "expected fail-stop rejection, got {r:?}"
            );
        };
        let mut batch = WriteBatch::new();
        batch.extend("c", [UpdateOp::Insert(6)]);
        rejected(store.commit(batch));
        rejected(store.apply("c", &[UpdateOp::Insert(6)]));
        assert!(matches!(
            store.register(
                "d",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
            ),
            Err(CatalogError::Durability(_))
        ));
        assert!(matches!(
            store.reshard("c"),
            Err(CatalogError::Durability(_))
        ));
        assert!(matches!(
            store.checkpoint_now(),
            Err(DurableError::Store(CatalogError::Durability(_)))
        ));

        // Reads keep serving the last acknowledged state.
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.total_count("c").unwrap(), 1.0);

        // Nothing past the poison point was logged: a reopen recovers
        // exactly the pre-failure state.
        drop(store);
        let store = DurableStore::open(
            dir.path(),
            StoreKind::Sharded,
            DurableOptions {
                sync: SyncPolicy::PerCommit,
                checkpoint_every: None,
                retain_generations: 2,
            },
        )
        .unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.total_count("c").unwrap(), 1.0);
    }

    /// Drives a bare [`ShardedCatalog`] and a [`DurableStore`] through
    /// the same registrations, rebuilds and applies, and checks after
    /// every apply that the one judge made the same decisions on both.
    /// Returns the bare store.
    fn judged_alike(
        columns: &[(&str, ColumnConfig)],
        rebuilds: &[(&str, RebuildPlan)],
        applies: &[(&str, Vec<UpdateOp>)],
    ) -> ShardedCatalog {
        let dir = dh_wal::tmp::TempDir::new("dur-judge");
        let opts = DurableOptions {
            sync: SyncPolicy::Off,
            checkpoint_every: None,
            retain_generations: 2,
        };
        let durable = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        let bare = ShardedCatalog::new();
        let stores: [&dyn ColumnStore; 2] = [&bare, &durable];
        for store in stores {
            for &(name, config) in columns {
                store.register(name, config).unwrap();
            }
            for &(name, plan) in rebuilds {
                assert!(store.rebuild(name, plan).unwrap());
            }
        }
        let bits = |snap: Snapshot| -> Vec<(u64, u64, u64)> {
            snap.spans()
                .iter()
                .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
                .collect()
        };
        for (i, (column, ops)) in applies.iter().enumerate() {
            for store in stores {
                store.apply(column, ops).unwrap();
            }
            for &(name, _) in columns {
                assert_eq!(
                    bare.rebuild_seq(name).unwrap(),
                    durable.rebuild_seq(name).unwrap(),
                    "'{name}' after apply {i}"
                );
                assert_eq!(
                    bare.shard_map(name).unwrap(),
                    durable.inner.shard_map(name).unwrap(),
                    "'{name}' after apply {i}"
                );
                assert_eq!(
                    bits(bare.snapshot(name).unwrap()),
                    bits(durable.snapshot(name).unwrap()),
                    "'{name}' after apply {i}"
                );
            }
        }
        bare
    }

    fn skewed() -> Vec<UpdateOp> {
        (0..64).map(|i| UpdateOp::Insert(i * 3 % 200)).collect()
    }

    /// A policy judges the live shard count, not the registration plan:
    /// a column registered with one shard and grown to four rebalances
    /// on both stores alike.
    #[test]
    fn a_column_grown_from_one_shard_is_judged_alike() {
        let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
            .with_seed(3)
            .with_plan(ShardPlan::new(0, 999, 1).unwrap())
            .with_reshard(ReshardPolicy {
                skew_threshold: 1.5,
                min_interval_epochs: 1,
                min_load: 1,
            });
        let applies = vec![("c", skewed()); 10];
        let bare = judged_alike(
            &[("c", config)],
            &[("c", RebuildPlan::new().with_shards(4))],
            &applies,
        );
        assert!(
            bare.rebuild_seq("c").unwrap() > 1,
            "the grown column never rebalanced"
        );
    }

    /// A policy runs after a commit that touches its column, and only
    /// then: commits to another column never re-shard it.
    #[test]
    fn a_commit_judges_only_the_columns_it_touched() {
        let plain = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0));
        let armed = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
            .with_seed(5)
            .with_plan(ShardPlan::new(0, 999, 4).unwrap())
            .with_reshard(ReshardPolicy {
                skew_threshold: 1.5,
                min_interval_epochs: 5,
                min_load: 1,
            });
        let mut applies = vec![("b", skewed())];
        applies.extend((0..9).map(|v| ("a", vec![UpdateOp::Insert(v)])));
        let bare = judged_alike(&[("a", plain), ("b", armed)], &[], &applies);
        assert_eq!(bare.rebuild_seq("b").unwrap(), 0);
    }

    #[test]
    fn config_record_round_trips_including_nan_threshold() {
        let plan = ShardPlan::new(-100, 100, 4).unwrap();
        let config = ColumnConfig::new(AlgoSpec::Dado, MemoryBudget::from_kb(2.0))
            .with_seed(9)
            .with_plan(plan)
            .with_reshard(ReshardPolicy {
                skew_threshold: f64::NAN,
                min_interval_epochs: 3,
                min_load: 17,
            })
            .with_autoscale(AutoscalePolicy {
                min_shards: 2,
                max_shards: 16,
                scale_up_rate: 1000,
                scale_down_rate: 10,
                skew_threshold: f64::NAN,
                min_interval_epochs: 5,
                min_load: 100,
            });
        let back = config_from_record(&config_to_record(&config)).unwrap();
        // Bit-wise equality: NaN thresholds compare equal to themselves.
        assert_eq!(back, config);
    }
}
