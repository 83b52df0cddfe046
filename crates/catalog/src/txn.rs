//! Transactional, epoch-stamped writes: the machinery that lets every
//! store commit a [`WriteBatch`] atomically across columns and shards.
//!
//! The paper's deployment keeps histograms maintained *while* the
//! optimizer reads them; once a column is split across shards (or an
//! optimizer estimate spans several columns), "maintained in place" needs
//! a consistency story. This module provides it with a two-phase,
//! epoch-stamped commit:
//!
//! 1. **Stage** — the writer appends its per-cell sub-batches to each
//!    touched cell's pending queue under that cell's (tiny) staging
//!    lock. Nothing is visible to readers yet: the entries carry an
//!    *unpublished* ticket.
//! 2. **Publish** — the store's epoch clock assigns the next epoch to
//!    the ticket and advances the published counter, both under one brief
//!    mutex. This is the single atomic step: the instant the epoch is
//!    published, *all* of the batch's staged entries (every shard, every
//!    column) become visible together.
//!
//! Application into the actual histograms happens *after* publication, in
//! strict epoch order, by whoever needs the data first — the committing
//! writer, or a pinned render. Because any drain applies *all* pending
//! entries up to its target epoch and none beyond, a reader pinning epoch
//! `E` observes exactly the batches published at or before `E` — whole
//! batches only, never a torn one.

use crate::read::{CacheKind, LeftRightCell, ReadCounters, ReadGeneration, ReadStats};
use crate::sharded::ShardedColumn;
use crate::store::{CatalogError, Snapshot, SnapshotSet};
use dh_core::{BoxedHistogram, BucketSpan, UpdateOp};
use dh_distributed::superimpose;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A group of [`UpdateOp`]s destined for one or more columns, committed
/// atomically: readers observe either none or all of it, across every
/// column and shard it touches.
///
/// Built incrementally and handed to
/// [`ColumnStore::commit`](crate::ColumnStore::commit):
///
/// ```
/// use dh_catalog::{AlgoSpec, ColumnConfig, ColumnStore, ShardedCatalog, WriteBatch};
/// use dh_core::MemoryBudget;
///
/// let store = ShardedCatalog::new();
/// let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5));
/// store.register("orders.amount", config).unwrap();
/// store.register("orders.qty", config).unwrap();
///
/// let mut batch = WriteBatch::new();
/// batch.insert("orders.amount", 120).insert("orders.qty", 3);
/// batch.delete("orders.amount", 7);
/// let epoch = store.commit(batch).unwrap();
/// assert_eq!(epoch, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    ops: BTreeMap<String, Vec<UpdateOp>>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch holding `ops` for a single `column` (the shape
    /// [`ColumnStore::apply`](crate::ColumnStore::apply) commits).
    pub fn for_column(column: impl Into<String>, ops: impl Into<Vec<UpdateOp>>) -> Self {
        let mut batch = Self::new();
        batch.ops.insert(column.into(), ops.into());
        batch
    }

    /// Adds one insertion of `v` on `column`.
    pub fn insert(&mut self, column: &str, v: i64) -> &mut Self {
        self.push(column, UpdateOp::Insert(v))
    }

    /// Adds one deletion of `v` on `column`.
    pub fn delete(&mut self, column: &str, v: i64) -> &mut Self {
        self.push(column, UpdateOp::Delete(v))
    }

    /// Adds one update on `column`.
    pub fn push(&mut self, column: &str, op: UpdateOp) -> &mut Self {
        self.column_ops(column).push(op);
        self
    }

    /// Adds a run of updates on `column`.
    pub fn extend(&mut self, column: &str, ops: impl IntoIterator<Item = UpdateOp>) -> &mut Self {
        self.column_ops(column).extend(ops);
        self
    }

    /// The columns this batch touches, sorted.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.ops.keys().map(String::as_str)
    }

    /// The ops queued for `column`, if any.
    pub fn ops(&self, column: &str) -> Option<&[UpdateOp]> {
        self.ops.get(column).map(Vec::as_slice)
    }

    /// Total number of updates across all columns.
    pub fn len(&self) -> usize {
        self.ops.values().map(Vec::len).sum()
    }

    /// Whether the batch touches no column at all. (A batch with columns
    /// but zero ops is *not* empty: committing it still advances those
    /// columns' checkpoints, marking an explicit sync point.)
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consumes the batch into its per-column op lists.
    pub(crate) fn into_parts(self) -> BTreeMap<String, Vec<UpdateOp>> {
        self.ops
    }

    fn column_ops(&mut self, column: &str) -> &mut Vec<UpdateOp> {
        if !self.ops.contains_key(column) {
            self.ops.insert(column.to_string(), Vec::new());
        }
        self.ops.get_mut(column).expect("inserted above")
    }
}

/// Epoch value of a staged-but-unpublished batch.
const UNPUBLISHED: u64 = u64::MAX;

/// A commit's identity: staged entries point at the ticket; publication
/// stamps the epoch into it, flipping every entry visible at once.
pub(crate) struct BatchTicket {
    epoch: AtomicU64,
}

impl BatchTicket {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: AtomicU64::new(UNPUBLISHED),
        })
    }

    /// The stamped epoch, or [`UNPUBLISHED`].
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// A store's epoch authority: one monotone published counter plus the
/// mutex that makes "stamp the ticket, advance the counter" one atomic
/// publication step.
#[derive(Default)]
pub(crate) struct EpochClock {
    published: AtomicU64,
    gate: Mutex<()>,
}

impl EpochClock {
    /// The highest published epoch (0 before any commit).
    pub(crate) fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Publishes `ticket` as the next epoch and returns it. `on_publish`
    /// runs under the publication mutex (used to bump per-column
    /// accepted-batch counters in the same atomic step).
    ///
    /// Publication *must* happen strictly after every staged entry of the
    /// batch is in its cell's pending queue: readers derive drain targets
    /// from the published counter, so an entry staged late would be
    /// skipped and lost.
    pub(crate) fn publish(&self, ticket: &BatchTicket, on_publish: impl FnOnce(u64)) -> u64 {
        let _gate = lock(&self.gate);
        let epoch = self.published.load(Ordering::Relaxed) + 1;
        ticket.epoch.store(epoch, Ordering::Release);
        on_publish(epoch);
        self.published.store(epoch, Ordering::Release);
        epoch
    }

    /// Runs `f` under the publication gate: whatever it reads is
    /// consistent with *completed* publications only — it can never
    /// observe a multi-column commit halfway through stamping its
    /// columns (the reader side of [`EpochClock::publish`]'s atomicity).
    pub(crate) fn consistent<R>(&self, f: impl FnOnce() -> R) -> R {
        let _gate = lock(&self.gate);
        f()
    }

    /// Seeds the published counter directly — crash recovery restoring a
    /// checkpoint's absolute epoch without replaying one publication per
    /// historical epoch. Only meaningful on a store with no concurrent
    /// writers (recovery owns the store exclusively).
    pub(crate) fn restore(&self, epoch: u64) {
        let _gate = lock(&self.gate);
        self.published.store(epoch, Ordering::Release);
    }
}

/// Publish-consistent per-column counters: the epoch of the column's
/// last publication plus its accepted batch/update totals, updated as
/// one unit under the store's publication gate — so a render pinned at
/// epoch `E` whose column stamp satisfies `epoch <= E` knows the
/// counters are exactly the as-of-`E` values (anything newer would have
/// moved `epoch` past the pin).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ColumnStamp {
    /// Epoch of this column's most recent publication (0 = never).
    pub epoch: u64,
    /// Batches accepted so far; strictly monotone.
    pub accepted: u64,
    /// Individual updates accepted so far.
    pub updates: u64,
}

/// One column's image inside a checkpoint being restored: its exact
/// historical counters plus the ops synthesized from its checkpointed
/// spans.
pub(crate) struct RestoreColumn {
    pub name: String,
    /// Accepted-batch count as of the checkpoint epoch.
    pub accepted: u64,
    /// Accepted-update count as of the checkpoint epoch (the historical
    /// value — restore preserves it exactly).
    pub updates: u64,
    /// Synthesized insertions reproducing the checkpointed mass.
    pub ops: Vec<UpdateOp>,
}

/// The store chassis: the named-column map plus the epoch clock,
/// carrying the protocol-critical choreography — registration
/// bookkeeping, the two-phase commit (stage → publish → settle), and
/// the gated pinned-read protocol (stamp read under the gate → pinned
/// render). The columns supply staging, settling and rendering.
pub(crate) struct Registry {
    columns: RwLock<BTreeMap<String, Arc<ShardedColumn>>>,
    clock: EpochClock,
    /// The wait-free read front: the latest rendered whole-store
    /// generation, swapped (never mutated) by writers. See
    /// `docs/READ_PATH.md` and [`crate::read`].
    front: LeftRightCell<ReadGeneration>,
    counters: Arc<ReadCounters>,
}

impl Default for Registry {
    fn default() -> Self {
        let counters = Arc::new(ReadCounters::default());
        Self {
            columns: RwLock::new(BTreeMap::new()),
            clock: EpochClock::default(),
            front: LeftRightCell::new(Arc::new(ReadGeneration::empty(counters.clone()))),
            counters,
        }
    }
}

impl Registry {
    /// Registers a column under `name`, building it with `build` only
    /// if the name is free.
    pub(crate) fn insert(
        &self,
        name: &str,
        build: impl FnOnce() -> ShardedColumn,
    ) -> Result<(), CatalogError> {
        {
            let mut columns = write_lock(&self.columns);
            if columns.contains_key(name) {
                return Err(CatalogError::DuplicateColumn(name.into()));
            }
            columns.insert(name.to_string(), Arc::new(build()));
        }
        // Fold the new (empty) column into the front so its reads are
        // wait-free from the first snapshot on.
        self.refresh_front(false);
        Ok(())
    }

    /// The column registered under `name`.
    pub(crate) fn get(&self, name: &str) -> Result<Arc<ShardedColumn>, CatalogError> {
        read_lock(&self.columns)
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownColumn(name.into()))
    }

    /// The registered column names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        read_lock(&self.columns).keys().cloned().collect()
    }

    /// Whether `name` is registered.
    pub(crate) fn contains(&self, name: &str) -> bool {
        read_lock(&self.columns).contains_key(name)
    }

    /// The store's highest published epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.clock.published()
    }

    /// The accepted-batch count of `name`.
    pub(crate) fn checkpoint(&self, name: &str) -> Result<u64, CatalogError> {
        Ok(lock(&self.get(name)?.stamp).accepted)
    }

    /// Commits one multi-column batch: resolve every column first (an
    /// unknown name must not leave the others half-committed), stage
    /// everything, publish once (stamping every touched column under
    /// the gate), settle everything. Returns the published epoch.
    ///
    /// Publication happens strictly after all staging — the invariant
    /// the whole read side relies on (a published entry is always
    /// already in its pending queue).
    pub(crate) fn commit(&self, batch: WriteBatch) -> Result<u64, CatalogError> {
        let mut resolved = Vec::new();
        for (name, ops) in batch.into_parts() {
            resolved.push((self.get(&name)?, ops));
        }
        let ticket = BatchTicket::new();
        let mut staged = Vec::with_capacity(resolved.len());
        for (column, ops) in resolved {
            let n = ops.len() as u64;
            let token = column.stage_ops(&ticket, ops);
            staged.push((column, token, n));
        }
        let epoch = self.clock.publish(&ticket, |e| {
            for (column, _, n) in &staged {
                let mut stamp = lock(&column.stamp);
                stamp.epoch = e;
                stamp.accepted += 1;
                stamp.updates += *n;
            }
        });
        for (column, token, _) in &staged {
            column.settle(token, epoch);
        }
        // Release staging tokens (e.g. shard in-flight counts) before the
        // front render, so a concurrent re-shard barrier never waits on a
        // commit that is merely re-rendering.
        drop(staged);
        // Publish the read front *before* returning: the committing
        // thread's own batch is visible to its subsequent hot-path reads
        // (read-your-writes), and readers never render for themselves.
        self.refresh_front(false);
        Ok(epoch)
    }

    /// Commits one single-column batch and returns the column's new
    /// checkpoint (accepted-batch count) — the
    /// [`crate::ColumnStore::apply`] shape of [`Registry::commit`].
    pub(crate) fn apply(&self, name: &str, ops: &[UpdateOp]) -> Result<u64, CatalogError> {
        let column = self.get(name)?;
        let ticket = BatchTicket::new();
        let token = column.stage_ops(&ticket, ops.to_vec());
        let mut checkpoint = 0;
        let epoch = self.clock.publish(&ticket, |e| {
            let mut stamp = lock(&column.stamp);
            stamp.epoch = e;
            stamp.accepted += 1;
            stamp.updates += ops.len() as u64;
            checkpoint = stamp.accepted;
        });
        column.settle(&token, epoch);
        drop(token);
        self.refresh_front(false);
        Ok(checkpoint)
    }

    /// One pinned render attempt: read the column's stamp under the
    /// publication gate — so a multi-column commit can never be
    /// observed halfway through stamping its columns — then render at
    /// exactly `epoch` with those as-of-`epoch` counters. With
    /// `gate_held` the caller already owns the gate (the starvation
    /// fallback of [`Registry::render_pinned`]; `Mutex` is not
    /// reentrant).
    fn attempt(
        &self,
        column: &ShardedColumn,
        epoch: u64,
        gate_held: bool,
    ) -> Result<Snapshot, u64> {
        let stamp = if gate_held {
            *lock(&column.stamp)
        } else {
            self.clock.consistent(|| *lock(&column.stamp))
        };
        if stamp.epoch > epoch {
            return Err(stamp.epoch);
        }
        column.render_at(epoch, stamp)
    }

    /// Retries `attempt` at increasing pinned epochs until it sticks.
    ///
    /// `attempt(e, gate_held)` renders at *exactly* epoch `e`; it fails
    /// with the observed ahead epoch when some cell has already been
    /// drained past `e` by a concurrent reader or writer, or a column's
    /// stamp shows a publication newer than `e`. Every optimistic retry
    /// raises the pin to at least that epoch; each failed attempt is
    /// cheap (the ahead checks come first). After a bounded number of
    /// failures — sustained commit traffic outrunning the render — the
    /// fallback holds the publication gate, which freezes the published
    /// epoch: no new commit can overtake the render (drains of
    /// already-published batches only catch cells up to the frozen
    /// epoch, never past it), so readers always make progress.
    fn render_pinned<R>(&self, mut attempt: impl FnMut(u64, bool) -> Result<R, u64>) -> R {
        const OPTIMISTIC_RETRIES: usize = 8;
        let mut epoch = self.clock.published();
        for _ in 0..OPTIMISTIC_RETRIES {
            match attempt(epoch, false) {
                Ok(value) => return value,
                Err(ahead) => epoch = ahead.max(self.clock.published()),
            }
        }
        self.clock.consistent(|| {
            let epoch = self.clock.published();
            attempt(epoch, true).unwrap_or_else(|ahead| {
                unreachable!("publication {ahead} overtook a render under the gate")
            })
        })
    }

    /// An epoch-pinned snapshot of `name`.
    ///
    /// Hot path: served off the front generation — one wait-free load
    /// plus an `Arc` clone. Falls back to the slow pinned render only
    /// when the front does not cover the column (a registration racing
    /// ahead of its first front fold; counted in
    /// [`ReadStats::slow_renders`]).
    pub(crate) fn snapshot(&self, name: &str) -> Result<Snapshot, CatalogError> {
        let front = self.front.load();
        if let Some(snap) = front.snap(name) {
            self.counters.count_fast();
            return Ok(snap.clone());
        }
        let column = self.get(name)?;
        self.counters.count_slow();
        Ok(self.render_pinned(|epoch, gate_held| self.attempt(&column, epoch, gate_held)))
    }

    /// A [`SnapshotSet`]: every requested column rendered at one epoch.
    ///
    /// Hot path: a cache-wired subset of the front generation (wait-free,
    /// all columns trivially share the generation's epoch). Slow path as
    /// in [`Registry::snapshot`].
    pub(crate) fn snapshot_set(&self, names: &[&str]) -> Result<SnapshotSet, CatalogError> {
        let front = self.front.load();
        if let Some(set) = front.subset(names) {
            self.counters.count_fast();
            return Ok(set);
        }
        let columns: Vec<Arc<ShardedColumn>> = names
            .iter()
            .map(|name| self.get(name))
            .collect::<Result<_, _>>()?;
        self.counters.count_slow();
        Ok(self.render_pinned(|epoch, gate_held| {
            let mut snaps = BTreeMap::new();
            for column in &columns {
                snaps.insert(column.name.clone(), self.attempt(column, epoch, gate_held)?);
            }
            Ok(SnapshotSet::new(epoch, snaps))
        }))
    }

    /// Estimated `[a, b]` mass on `name`, answered from the front
    /// generation's predicate cache (wait-free; computes and memoizes on
    /// a cache miss). Slow pinned fallback only when the front does not
    /// cover the column.
    pub(crate) fn estimate_range(&self, name: &str, a: i64, b: i64) -> Result<f64, CatalogError> {
        self.estimate(name, CacheKind::Range(a, b))
    }

    /// Estimated frequency of `v` on `name` (see
    /// [`Registry::estimate_range`]).
    pub(crate) fn estimate_eq(&self, name: &str, v: i64) -> Result<f64, CatalogError> {
        self.estimate(name, CacheKind::Eq(v))
    }

    /// Total live mass on `name` (see [`Registry::estimate_range`]).
    pub(crate) fn total_count(&self, name: &str) -> Result<f64, CatalogError> {
        self.estimate(name, CacheKind::Total)
    }

    fn estimate(&self, name: &str, kind: CacheKind) -> Result<f64, CatalogError> {
        let front = self.front.load();
        if let Ok(value) = front.set().estimate(name, kind) {
            self.counters.count_fast();
            return Ok(value);
        }
        let column = self.get(name)?;
        self.counters.count_slow();
        let snap = self.render_pinned(|epoch, gate_held| self.attempt(&column, epoch, gate_held));
        Ok(kind.compute_on(&snap))
    }

    /// The store's read-path telemetry.
    pub(crate) fn read_stats(&self) -> ReadStats {
        self.counters.stats()
    }

    /// Seeds the store to a checkpoint in O(checkpoint size), not
    /// O(historical epochs): every image's counters are written into its
    /// column stamp verbatim, its synthesized ops applied straight into
    /// the cells, the epoch clock jumped to `epoch`, and the read front
    /// re-rendered once. Caller contract: the store is freshly built and
    /// exclusively owned (recovery), all named columns are registered,
    /// and no commit has been published yet.
    ///
    /// Observable state matches what replaying the history would leave:
    /// a column with accepted batches stamps `epoch` (its last
    /// publication is at or before the checkpoint, and the restored
    /// content is exactly as-of `epoch`); a never-touched column keeps
    /// stamp 0.
    pub(crate) fn restore_at(
        &self,
        epoch: u64,
        images: Vec<RestoreColumn>,
    ) -> Result<(), CatalogError> {
        for image in images {
            let column = self.get(&image.name)?;
            {
                let mut stamp = lock(&column.stamp);
                *stamp = ColumnStamp {
                    epoch: if image.accepted > 0 { epoch } else { 0 },
                    accepted: image.accepted,
                    updates: image.updates,
                };
            }
            column.restore_content(epoch, image.ops);
        }
        self.clock.restore(epoch);
        self.refresh_front(false);
        Ok(())
    }

    /// Renders the whole store at the current published epoch and
    /// installs it as the new front generation if it is newer than (or,
    /// with `force`, at least as new as) the incumbent — `force` is for
    /// re-shards, which rebuild a column's cells *without* publishing an
    /// epoch. Called by every commit, registration and re-shard; never
    /// by readers. Rejected candidates (a concurrent writer installed a
    /// newer generation first) are simply dropped — the incumbent then
    /// already covers this writer's epoch.
    pub(crate) fn refresh_front(&self, force: bool) {
        let columns: Vec<Arc<ShardedColumn>> = read_lock(&self.columns).values().cloned().collect();
        let generation = self.render_pinned(|epoch, gate_held| {
            let mut snaps = BTreeMap::new();
            for column in &columns {
                snaps.insert(column.name.clone(), self.attempt(column, epoch, gate_held)?);
            }
            Ok(ReadGeneration::new(epoch, snaps, self.counters.clone()))
        });
        let installed = self
            .front
            .store_if(Arc::new(generation), |current, candidate| {
                candidate.epoch() > current.epoch()
                    || (candidate.epoch() == current.epoch()
                        && (force || candidate.len() > current.len()))
            });
        if installed {
            // Each install discards the previous generation's whole
            // predicate memo — the only invalidation rule there is.
            self.counters.count_invalidation();
        }
    }
}

/// One staged sub-batch: the ops plus the ticket that publishes them.
struct PendingEntry {
    ticket: Arc<BatchTicket>,
    ops: Vec<UpdateOp>,
}

/// A cell's histogram state, behind the cell's `RwLock`.
struct CellState {
    histogram: BoxedHistogram,
    /// Highest epoch whose entries have been applied to the histogram.
    applied: u64,
    /// Bumps on every drain that applied entries; keys span caches.
    version: u64,
    /// Cached span rendering, invalidated by every application.
    spans: Option<Vec<BucketSpan>>,
    /// Scratch buffer for span rendering (allocation reuse).
    scratch: Vec<BucketSpan>,
}

/// One unit of histogram state: one shard of a column. Writers stage
/// into `pending` (brief mutex, never
/// blocked by in-progress histogram maintenance); drains move published
/// entries into the histogram in epoch order under the state lock.
pub(crate) struct Cell {
    pending: Mutex<Vec<PendingEntry>>,
    state: RwLock<CellState>,
}

impl Cell {
    pub(crate) fn new(histogram: BoxedHistogram) -> Self {
        Self::with_applied(histogram, 0)
    }

    /// A cell whose histogram already contains every batch up to
    /// `applied` — what a re-shard installs: the rebuilt per-shard
    /// histograms carry the composed data as of the barrier epoch, so a
    /// reader pinned earlier than the barrier is told to retry
    /// (`spans_at` fails with `applied`) instead of seeing the rebuilt
    /// state under an old pin.
    pub(crate) fn with_applied(histogram: BoxedHistogram, applied: u64) -> Self {
        Self {
            pending: Mutex::new(Vec::new()),
            state: RwLock::new(CellState {
                histogram,
                applied,
                version: 0,
                spans: None,
                scratch: Vec::new(),
            }),
        }
    }

    /// Phase 1 of a commit: queue `ops` under `ticket`, invisible to
    /// readers until the ticket is published. Lock order: `pending` only
    /// (never nested inside another cell's locks), so staging is
    /// deadlock-free and never waits on histogram application.
    pub(crate) fn stage(&self, ticket: Arc<BatchTicket>, ops: Vec<UpdateOp>) {
        if ops.is_empty() {
            return;
        }
        lock(&self.pending).push(PendingEntry { ticket, ops });
    }

    /// Whether any pending entry is published at or below `epoch`.
    fn has_ready(&self, epoch: u64) -> bool {
        lock(&self.pending)
            .iter()
            .any(|p| p.ticket.epoch() <= epoch)
    }

    /// Applies every published pending entry up to `epoch` (no-op when a
    /// concurrent drain already went further).
    pub(crate) fn drain_to(&self, epoch: u64) {
        if !self.has_ready(epoch) {
            return;
        }
        let mut state = write_lock(&self.state);
        let _ = self.drain_locked(&mut state, epoch);
    }

    /// Drains under an already-held state lock. Fails with the applied
    /// epoch when the histogram content is already *past* `epoch` (a
    /// pinned render must then retry at a later epoch).
    fn drain_locked(&self, state: &mut CellState, epoch: u64) -> Result<(), u64> {
        if state.applied > epoch {
            return Err(state.applied);
        }
        // Take every ready entry. Entries published ≤ epoch are all
        // staged already (staging strictly precedes publication), so this
        // cannot miss part of a batch.
        let mut ready: Vec<(u64, Vec<UpdateOp>)> = Vec::new();
        {
            let mut pending = lock(&self.pending);
            let mut i = 0;
            while i < pending.len() {
                let e = pending[i].ticket.epoch();
                if e <= epoch {
                    let entry = pending.swap_remove(i);
                    ready.push((e, entry.ops));
                } else {
                    i += 1;
                }
            }
        }
        if ready.is_empty() {
            return Ok(());
        }
        // Epoch order makes replay deterministic: the same commit
        // sequence produces bit-identical histograms, whichever thread
        // ends up draining.
        ready.sort_by_key(|&(e, _)| e);
        for (e, ops) in ready {
            state.histogram.apply_slice(&ops);
            state.applied = state.applied.max(e);
        }
        state.version += 1;
        state.spans = None;
        Ok(())
    }

    /// Applies `ops` directly, marking the content as-of `epoch` — the
    /// checkpoint-restore fast path ([`Registry::restore_at`]), which
    /// must not pay one publication per historical epoch. The cell must
    /// have no pending entries (fresh store, recovery owns it). An empty
    /// `ops` is a no-op: the histogram stays empty and `applied` stays
    /// put, exactly as if the column's history held only empty batches.
    pub(crate) fn restore(&self, epoch: u64, ops: &[UpdateOp]) {
        if ops.is_empty() {
            return;
        }
        let mut state = write_lock(&self.state);
        state.histogram.apply_slice(ops);
        state.applied = state.applied.max(epoch);
        state.version += 1;
        state.spans = None;
    }

    /// The cell's `(version, spans)` at *exactly* epoch `epoch`: drains
    /// published entries up to it, then renders (cached). Fails with the
    /// applied epoch when the content is already past `epoch`.
    pub(crate) fn spans_at(&self, epoch: u64) -> Result<(u64, Vec<BucketSpan>), u64> {
        {
            let state = read_lock(&self.state);
            if state.applied > epoch {
                return Err(state.applied);
            }
            if let Some(spans) = &state.spans {
                // Valid for `epoch` iff nothing published ≤ epoch is
                // still pending (content can only change via entries).
                if !self.has_ready(epoch) {
                    return Ok((state.version, spans.clone()));
                }
            }
        }
        let mut state = write_lock(&self.state);
        self.drain_locked(&mut state, epoch)?;
        if state.spans.is_none() {
            let CellState {
                histogram, scratch, ..
            } = &mut *state;
            histogram.spans_into(scratch);
            let spans = scratch.clone();
            state.spans = Some(spans);
        }
        Ok((
            state.version,
            state.spans.clone().expect("rendered just above"),
        ))
    }
}

/// A column's composed-snapshot cache: the last rendered snapshot, the
/// epoch it was pinned to, and the cell versions it was rendered from.
#[derive(Default)]
pub(crate) struct ComposeCache {
    epoch: u64,
    versions: Vec<u64>,
    snap: Option<Snapshot>,
}

/// Renders one column (its cells superimposed) at *exactly* `epoch`,
/// against the column's compose cache. Fails with the applied epoch when
/// a cell is already past `epoch` (retry via [`pinned`]).
///
/// Cache discipline: an exact epoch match is one `Arc` clone; matching
/// cell versions under a different epoch mean the spans are identical and
/// only the stamps moved (e.g. an empty batch, or commits to other
/// columns), so the cached rendering is re-stamped instead of rebuilt.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compose_at(
    cells: &[&Cell],
    epoch: u64,
    cache: &Mutex<ComposeCache>,
    column: &str,
    label: String,
    checkpoint: u64,
    updates: u64,
) -> Result<Snapshot, u64> {
    {
        let cached = lock(cache);
        if cached.epoch == epoch {
            if let Some(snap) = &cached.snap {
                return Ok(snap.clone());
            }
        }
    }
    let mut versions = Vec::with_capacity(cells.len());
    let mut parts = Vec::with_capacity(cells.len());
    for cell in cells {
        let (version, spans) = cell.spans_at(epoch)?;
        versions.push(version);
        parts.push(spans);
    }
    let mut cached = lock(cache);
    if let Some(snap) = &cached.snap {
        if cached.epoch == epoch {
            return Ok(snap.clone());
        }
        if cached.versions == versions {
            let snap = snap.restamped(epoch, checkpoint, updates);
            // Never move the cache backwards for an old pinned read.
            if epoch > cached.epoch {
                cached.epoch = epoch;
                cached.snap = Some(snap.clone());
            }
            return Ok(snap);
        }
    }
    // A single cell's spans pass through unchanged (bit-identical to a
    // bare histogram's render); several cells superimpose losslessly.
    let spans = if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        superimpose(&parts)
    };
    let snap = Snapshot::from_parts(column.to_string(), label, epoch, checkpoint, updates, spans);
    if epoch > cached.epoch || cached.snap.is_none() {
        *cached = ComposeCache {
            epoch,
            versions,
            snap: Some(snap.clone()),
        };
    }
    Ok(snap)
}

/// Poison-tolerant mutex lock (shared across the serving layer).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poison-tolerant read lock (shared across the serving layer).
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Poison-tolerant write lock (shared across the serving layer).
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlgoSpec;
    use dh_core::MemoryBudget;

    #[test]
    fn write_batch_builder_groups_by_column() {
        let mut batch = WriteBatch::new();
        batch.insert("a", 1).insert("b", 2).delete("a", 3);
        batch.extend("c", (0..3).map(UpdateOp::Insert));
        assert_eq!(batch.columns().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(
            batch.ops("a"),
            Some(&[UpdateOp::Insert(1), UpdateOp::Delete(3)][..])
        );
        assert_eq!(batch.len(), 6);
        assert!(!batch.is_empty());
        assert!(WriteBatch::new().is_empty());
        let single = WriteBatch::for_column("x", vec![UpdateOp::Insert(9)]);
        assert_eq!(single.ops("x").unwrap().len(), 1);
        assert_eq!(single.ops("y"), None);
    }

    #[test]
    fn staged_entries_stay_invisible_until_published() {
        let clock = EpochClock::default();
        let cell = Cell::new(AlgoSpec::Dc.build(MemoryBudget::from_kb(0.5), 0));
        let ticket = BatchTicket::new();
        cell.stage(ticket.clone(), (0..100).map(UpdateOp::Insert).collect());

        // Unpublished: a render at the current epoch sees nothing.
        let (_, spans) = cell.spans_at(clock.published()).unwrap();
        assert!(spans.is_empty());

        let epoch = clock.publish(&ticket, |_| {});
        assert_eq!(epoch, 1);
        let (_, spans) = cell.spans_at(epoch).unwrap();
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pinned_render_refuses_future_and_past_epochs() {
        let clock = EpochClock::default();
        let cell = Cell::new(AlgoSpec::Dc.build(MemoryBudget::from_kb(0.5), 0));
        for round in 1..=3u64 {
            let ticket = BatchTicket::new();
            cell.stage(ticket.clone(), vec![UpdateOp::Insert(round as i64)]);
            clock.publish(&ticket, |_| {});
        }
        cell.drain_to(3);
        // Content is at epoch 3 now; a pin at 1 must fail with the
        // applied epoch so the caller can retry.
        assert_eq!(cell.spans_at(1), Err(3));
        let (_, spans) = cell.spans_at(3).unwrap();
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn drain_applies_in_epoch_order_deterministically() {
        // Stage two published batches out of order and one unpublished
        // one; a single drain must apply exactly the published pair, in
        // epoch order, and leave the rest pending.
        let clock = EpochClock::default();
        let cell = Cell::new(AlgoSpec::Dc.build(MemoryBudget::from_kb(0.5), 0));
        let t1 = BatchTicket::new();
        let t2 = BatchTicket::new();
        let t3 = BatchTicket::new();
        cell.stage(t2.clone(), vec![UpdateOp::Insert(2)]);
        cell.stage(t1.clone(), vec![UpdateOp::Insert(1)]);
        cell.stage(t3.clone(), vec![UpdateOp::Insert(3)]);
        clock.publish(&t1, |_| {});
        clock.publish(&t2, |_| {});
        let (_, spans) = cell.spans_at(clock.published()).unwrap();
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 2.0).abs() < 1e-9, "unpublished t3 leaked: {total}");
        clock.publish(&t3, |_| {});
        let (_, spans) = cell.spans_at(3).unwrap();
        let total: f64 = spans.iter().map(|s| s.count).sum();
        assert!((total - 3.0).abs() < 1e-9);
    }
}
