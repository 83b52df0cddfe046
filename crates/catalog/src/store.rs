//! [`ColumnStore`]: the one object-safe serving API, plus the
//! epoch-pinned [`Snapshot`] and [`SnapshotSet`] views it serves.
//!
//! The paper's deployment — an optimizer estimating multi-predicate
//! queries while the histograms underneath are maintained in place —
//! does not care *how* a column is stored. The in-memory store is the
//! [`ShardedCatalog`](crate::ShardedCatalog) (a column registered
//! without a shard plan is one shard over the whole `i64` domain); the
//! `DurableStore` decorator, a `dh_replica` follower and a `dh_site`
//! global catalog serve the same trait, so estimation code is written
//! once against `&dyn ColumnStore`.
//!
//! Reads come in two consistency grades:
//!
//! * [`ColumnStore::snapshot`] — one column, pinned to a published epoch
//!   (never a torn [`WriteBatch`], even across that column's shards);
//! * [`ColumnStore::snapshot_set`] — several columns pinned to *one*
//!   epoch, the view a join or chain estimate should read from.
//!
//! ```
//! use dh_catalog::{AlgoSpec, ColumnConfig, ColumnStore, ShardedCatalog, WriteBatch};
//! use dh_core::{MemoryBudget, ReadHistogram, UpdateOp};
//!
//! let store: Box<dyn ColumnStore> = Box::new(ShardedCatalog::new());
//! let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0));
//! store.register("r.key", config).unwrap();
//! store.register("s.key", config).unwrap();
//!
//! let mut batch = WriteBatch::new();
//! batch.extend("r.key", (0..500).map(|i| UpdateOp::Insert(i % 100)));
//! batch.extend("s.key", (0..500).map(|i| UpdateOp::Insert(i % 50)));
//! store.commit(batch).unwrap();
//!
//! let set = store.snapshot_set(&["r.key", "s.key"]).unwrap();
//! assert_eq!(set.epoch(), 1);
//! assert_eq!(set.get("r.key").unwrap().total_count(), 500.0);
//! ```

use crate::read::{CacheKind, FrontCache, ReadStats};
use crate::sharded::{AutoscalePolicy, ColumnShape, RebuildPlan, ReshardPolicy, ShardPlan};
use crate::spec::AlgoSpec;
use crate::txn::WriteBatch;
use dh_core::{BucketSpan, HistogramCdf, MemoryBudget, ReadHistogram, UpdateOp};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by [`ColumnStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The named column has not been registered.
    UnknownColumn(String),
    /// The column name is already taken.
    DuplicateColumn(String),
    /// A shard plan failed validation (zero shards, inverted domain), or
    /// a sharded store was asked to register a column without one.
    InvalidShardPlan(String),
    /// A past epoch was requested (see
    /// [`ColumnStore::snapshot_set_at`]) that the store no longer
    /// retains — it fell out of the time-travel ring, was dropped by an
    /// explicit GC, or predates a recovery. Carries the requested epoch.
    EpochEvicted(u64),
    /// A durability failure surfaced through a [`ColumnStore`] method —
    /// the `DurableStore` decorator could not append to or sync its
    /// epoch changelog. Carries the underlying `dh_wal` error rendered
    /// to a string (the trait's error type predates the durability
    /// layer; `DurableStore::open` returns the fully-typed error).
    Durability(String),
    /// The store is a read replica (a `dh_replica` `Follower`): it
    /// replays mutations from the leader's changelog and accepts none
    /// of its own. Route the write to the leader.
    ReadOnlyReplica,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            CatalogError::DuplicateColumn(c) => write!(f, "column '{c}' already registered"),
            CatalogError::InvalidShardPlan(why) => write!(f, "invalid shard plan: {why}"),
            CatalogError::EpochEvicted(epoch) => {
                write!(f, "epoch {epoch} is no longer retained for time travel")
            }
            CatalogError::Durability(why) => write!(f, "durability failure: {why}"),
            CatalogError::ReadOnlyReplica => {
                write!(
                    f,
                    "store is a read-only replica; route mutations to the leader"
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// Everything a store needs to know to register one column: the
/// algorithm, its memory budget, a seed for sampling algorithms, an
/// optional [`ShardPlan`], and optional [`ReshardPolicy`] /
/// [`AutoscalePolicy`] arming automatic rebuilds.
///
/// Without a plan the column is one shard over the whole `i64` domain:
/// a single histogram that never clamps a value.
#[derive(Debug, Clone, Copy)]
pub struct ColumnConfig {
    /// Histogram algorithm backing the column.
    pub spec: AlgoSpec,
    /// Memory budget for the column (divided across its shards,
    /// remainder bytes going to the first shards, so the column spends
    /// the same total bytes at any shard count).
    pub memory: MemoryBudget,
    /// Seed feeding sampling algorithms (see [`AlgoSpec::build`]);
    /// deterministic algorithms ignore it. Defaults to 0.
    pub seed: u64,
    /// How to partition the column's value domain (`None`: one shard
    /// over the whole `i64` domain).
    pub plan: Option<ShardPlan>,
    /// When to move the shard borders automatically (`None` keeps the
    /// borders static unless [`ColumnStore::reshard`] is called
    /// explicitly).
    pub reshard: Option<ReshardPolicy>,
    /// When to *rebuild the column's shape* automatically — scale the
    /// shard count with the routed throughput, rebalance skewed borders
    /// (the elastic generalization of `reshard`; both may be armed, the
    /// re-shard policy is judged first).
    pub autoscale: Option<AutoscalePolicy>,
}

impl ColumnConfig {
    /// A config with the default seed, no shard plan, and no automatic
    /// policies.
    pub fn new(spec: AlgoSpec, memory: MemoryBudget) -> Self {
        Self {
            spec,
            memory,
            seed: 0,
            plan: None,
            reshard: None,
            autoscale: None,
        }
    }

    /// The same config with `seed`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The same config with a shard plan.
    pub fn with_plan(mut self, plan: ShardPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The same config with automatic re-sharding armed by `policy`.
    pub fn with_reshard(mut self, policy: ReshardPolicy) -> Self {
        self.reshard = Some(policy);
        self
    }

    /// The same config with elastic autoscaling armed by `policy`.
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }
}

/// Bit-wise equality, so configs are comparable (and [`Eq`]) despite
/// the `f64` inside [`ReshardPolicy`]: two configs are equal iff they
/// serialize identically. Crash recovery leans on this — replaying a
/// register record asserts the on-disk config matches the live one, and
/// that check must be deterministic for every float value (NaN
/// thresholds compare equal to themselves, `-0.0 != 0.0`).
impl PartialEq for ColumnConfig {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.memory == other.memory
            && self.seed == other.seed
            && self.plan == other.plan
            && self.reshard == other.reshard
            && self.autoscale == other.autoscale
    }
}

impl Eq for ColumnConfig {}

/// The serving API: register columns, commit epoch-stamped writes, read
/// consistent snapshots, estimate.
///
/// Object-safe by design — `Box<dyn ColumnStore>` / `&dyn ColumnStore`
/// is how the durable decorator, replicas, sites and the generic test
/// suites drive the in-memory store and each other through one code
/// path.
///
/// # Consistency contract
///
/// Every implementation commits through a two-phase, epoch-stamped
/// protocol (stage per cell, then one atomic epoch publication per
/// store; see [`crate::txn`]): no reader ever observes a partially
/// applied [`WriteBatch`], whether the batch spans shards of one column
/// or several columns. [`ColumnStore::snapshot_set`] additionally pins
/// *all* requested columns to one epoch.
pub trait ColumnStore: Send + Sync {
    /// Registers `column` with a fresh histogram built per `config`.
    ///
    /// # Errors
    /// [`CatalogError::DuplicateColumn`] if the name is taken;
    /// [`CatalogError::InvalidShardPlan`] on a degenerate policy.
    fn register(&self, column: &str, config: ColumnConfig) -> Result<(), CatalogError>;

    /// The registered column names, sorted.
    fn columns(&self) -> Vec<String>;

    /// Whether `column` is registered.
    fn contains(&self, column: &str) -> bool;

    /// The algorithm a column was registered with.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn spec(&self, column: &str) -> Result<AlgoSpec, CatalogError>;

    /// Commits `batch` atomically across every column (and shard) it
    /// touches, returning the published epoch. Readers observe all of it
    /// or none of it.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if any named column is absent (in
    /// which case nothing is staged).
    fn commit(&self, batch: WriteBatch) -> Result<u64, CatalogError>;

    /// Commits one batch of updates to a single `column` and returns the
    /// column's new checkpoint count (strictly monotone per column; an
    /// empty batch still advances it, marking an explicit sync point).
    /// Equivalent to [`ColumnStore::commit`] of a single-column
    /// [`WriteBatch`].
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn apply(&self, column: &str, batch: &[UpdateOp]) -> Result<u64, CatalogError>;

    /// Blocks until every batch accepted for `column` before this call is
    /// applied to its histograms. Commits apply before they return, so
    /// on the built-in stores this only checks the name.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn flush(&self, column: &str) -> Result<(), CatalogError>;

    /// An immutable snapshot of `column`, pinned to a published epoch:
    /// it contains exactly the committed batches up to that epoch —
    /// whole batches only, across every shard of the column.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn snapshot(&self, column: &str) -> Result<Snapshot, CatalogError>;

    /// A consistent multi-column view: every requested column pinned to
    /// *one* published epoch, so cross-column estimates (joins, chains)
    /// never mix states. Duplicate names collapse to one entry.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if any named column is absent.
    fn snapshot_set(&self, columns: &[&str]) -> Result<SnapshotSet, CatalogError>;

    /// A consistent multi-column view pinned to a specific *past*
    /// published epoch — time travel.
    ///
    /// Only stores that retain past generations can honour arbitrary
    /// epochs: the `DurableStore` decorator keeps an in-memory ring of
    /// the last K published generations and serves any epoch still in
    /// it. The default implementation (all in-memory stores) retains
    /// nothing beyond the current generation: it succeeds iff `epoch`
    /// is the store's current epoch.
    ///
    /// # Errors
    /// [`CatalogError::EpochEvicted`] if `epoch` is not retained (too
    /// old, GC'd, or never published);
    /// [`CatalogError::UnknownColumn`] if any named column is absent.
    fn snapshot_set_at(&self, columns: &[&str], epoch: u64) -> Result<SnapshotSet, CatalogError> {
        let set = self.snapshot_set(columns)?;
        if set.epoch() == epoch {
            Ok(set)
        } else {
            Err(CatalogError::EpochEvicted(epoch))
        }
    }

    /// The number of batches accepted for `column` so far.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn checkpoint(&self, column: &str) -> Result<u64, CatalogError>;

    /// The store's highest published epoch (0 before any commit; one
    /// counter per store, shared by all columns).
    fn epoch(&self) -> u64;

    /// Rebuilds `column`'s shard borders from its current data
    /// distribution, behind the store's epoch barrier (see
    /// [`ShardedCatalog`](crate::ShardedCatalog)). Returns whether the
    /// borders actually moved. Stores that cannot rebuild (a global
    /// catalog) return `Ok(false)`.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn reshard(&self, column: &str) -> Result<bool, CatalogError> {
        self.spec(column)?;
        Ok(false)
    }

    /// Rebuilds `column`'s live shape per `plan` — shard count,
    /// algorithm, memory budget — behind the store's epoch barrier with
    /// exact mass conservation (see
    /// [`ShardedCatalog`](crate::ShardedCatalog)). Returns whether the
    /// column's generation was actually swapped. Stores that cannot
    /// rebuild return `Ok(false)`; [`ColumnStore::reshard`] is the
    /// all-`None` special case.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent;
    /// [`CatalogError::InvalidShardPlan`] on a degenerate plan
    /// (`shards == Some(0)`).
    fn rebuild(&self, column: &str, plan: RebuildPlan) -> Result<bool, CatalogError> {
        if plan.shards == Some(0) {
            return Err(CatalogError::InvalidShardPlan(
                "need at least one shard (shards == 0)".into(),
            ));
        }
        self.spec(column)?;
        Ok(false)
    }

    /// The column's *live* shape (shard count, algorithm, memory) after
    /// any rebuilds — `None` for stores that do not track one (a global
    /// catalog; [`ColumnStore::spec`] always reports the frozen
    /// *registration* algorithm, by contrast).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn column_shape(&self, column: &str) -> Result<Option<ColumnShape>, CatalogError> {
        self.spec(column)?;
        Ok(None)
    }

    /// The column's rebuild ordinal: how many generation swaps it has
    /// applied — for a `DurableStore`, the ordinal of the last rebuild
    /// it logged, which survives a reopen; for a read replica, the
    /// ordinal of the last one it replayed. Replaying another store's
    /// changelog onto this one skips every rebuild record whose ordinal
    /// is at or below it. `0` for stores that never rebuild.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn rebuild_seq(&self, column: &str) -> Result<u64, CatalogError> {
        self.spec(column)?;
        Ok(0)
    }

    /// Ops routed into each shard of `column` under its current shard
    /// map (one counter per shard; reset whenever the borders move) —
    /// the skew signal a [`ReshardPolicy`] judges. Stores without shards
    /// of their own (a global catalog) return an empty vector.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn shard_load(&self, column: &str) -> Result<Vec<u64>, CatalogError> {
        self.spec(column)?;
        Ok(Vec::new())
    }

    /// How many ops on `column` carried a value outside its registered
    /// shard domain and were clamped into an edge shard. Routing is
    /// total (clamped ops are ingested, never dropped), but the clamp
    /// widens the edge shards' effective ranges — this counter makes
    /// that visible instead of silent. A plan-less column spans the
    /// whole `i64` domain and never clamps.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn clamped_ops(&self, column: &str) -> Result<u64, CatalogError> {
        self.spec(column)?;
        Ok(0)
    }

    /// Number of registered columns.
    fn len(&self) -> usize {
        self.columns().len()
    }

    /// Whether no columns are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated number of values in `[a, b]` on `column`.
    ///
    /// On the in-memory store this is the wait-free hot path: it reads
    /// the current front generation (one atomic pointer chase, no lock,
    /// no retry) and memoizes the answer in that generation's predicate
    /// cache — see `docs/READ_PATH.md`.
    ///
    /// **Single-call consistency only**: every call pins its own fresh
    /// snapshot, so two convenience estimates in one expression may
    /// straddle an epoch published between them. Combining estimates
    /// (ratios, joins, multi-column predicates) should read from one
    /// [`ColumnStore::snapshot_set`] via [`SnapshotSet::estimate_range`]
    /// and friends, which pin every read to a single epoch.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn estimate_range(&self, column: &str, a: i64, b: i64) -> Result<f64, CatalogError> {
        Ok(self.snapshot(column)?.estimate_range(a, b))
    }

    /// Estimated number of values equal to `v` on `column`.
    ///
    /// **Single-call consistency only** — see
    /// [`ColumnStore::estimate_range`]; use [`SnapshotSet::estimate_eq`]
    /// for multi-read consistency.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn estimate_eq(&self, column: &str, v: i64) -> Result<f64, CatalogError> {
        Ok(self.snapshot(column)?.estimate_eq(v))
    }

    /// Total live mass on `column`.
    ///
    /// **Single-call consistency only** — see
    /// [`ColumnStore::estimate_range`]; use [`SnapshotSet::total_count`]
    /// for multi-read consistency.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn total_count(&self, column: &str) -> Result<f64, CatalogError> {
        Ok(self.snapshot(column)?.total_count())
    }

    /// Read-path telemetry: how many reads were served wait-free off the
    /// front generation vs. through the slow pinned-render path, and the
    /// predicate front cache's hit / miss / invalidation counters. The
    /// contract behind these numbers is `docs/READ_PATH.md`; under
    /// steady serving of the current epoch, `slow_renders` stays at 0.
    /// Stores without a wait-free front report all-zero stats.
    fn read_stats(&self) -> ReadStats {
        ReadStats::default()
    }
}

/// A consistent multi-column view: one [`Snapshot`] per requested
/// column, all pinned to the same store epoch.
///
/// This is what cross-column estimation should read from — a join or
/// chain estimate over a `SnapshotSet` can never mix a column state from
/// before a [`WriteBatch`] with another from after it.
///
/// The pinned epoch is usually the one current when
/// [`ColumnStore::snapshot_set`] ran, but not necessarily: retaining
/// stores also serve sets pinned to *past* epochs through
/// [`ColumnStore::snapshot_set_at`] (failing with
/// [`CatalogError::EpochEvicted`] once retention has let the epoch go).
/// A set, however obtained, is immutable — it keeps serving its epoch
/// no matter what commits after it.
#[derive(Clone)]
pub struct SnapshotSet {
    epoch: u64,
    snaps: BTreeMap<String, Snapshot>,
    /// The owning generation's predicate front cache, when this set was
    /// served off the wait-free front (see `docs/READ_PATH.md`). Slow
    /// pinned renders carry no cache and compute every estimate.
    cache: Option<Arc<FrontCache>>,
}

impl SnapshotSet {
    pub(crate) fn new(epoch: u64, snaps: BTreeMap<String, Snapshot>) -> Self {
        Self {
            epoch,
            snaps,
            cache: None,
        }
    }

    /// A set wired to its generation's front cache: estimate probes
    /// memoize through it (and are answered from it).
    pub(crate) fn with_cache(
        epoch: u64,
        snaps: BTreeMap<String, Snapshot>,
        cache: Arc<FrontCache>,
    ) -> Self {
        Self {
            epoch,
            snaps,
            cache: Some(cache),
        }
    }

    /// The published epoch every snapshot in the set is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot of `column`, if it was part of the request.
    pub fn get(&self, column: &str) -> Option<&Snapshot> {
        self.snaps.get(column)
    }

    /// The columns in the set, sorted.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.snaps.keys().map(String::as_str)
    }

    /// Iterates `(column, snapshot)` pairs, sorted by column.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Snapshot)> {
        self.snaps.iter().map(|(c, s)| (c.as_str(), s))
    }

    /// Number of columns in the set.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether the set holds no columns.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Estimated number of values in `[a, b]` on `column`, read at the
    /// set's pinned epoch. Unlike the [`ColumnStore`] convenience
    /// methods, any number of reads off one set are mutually consistent
    /// — they can never straddle an epoch. Sets served off the wait-free
    /// front memoize the answer in their generation's predicate cache
    /// (bit-identical to the uncached computation; the cache stores
    /// exactly the `f64` the first computation produced).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if `column` was not part of the
    /// request that built this set.
    pub fn estimate_range(&self, column: &str, a: i64, b: i64) -> Result<f64, CatalogError> {
        self.estimate(column, CacheKind::Range(a, b))
    }

    /// Estimated number of values equal to `v` on `column`, read at the
    /// set's pinned epoch (see [`SnapshotSet::estimate_range`]).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if `column` was not part of the
    /// request that built this set.
    pub fn estimate_eq(&self, column: &str, v: i64) -> Result<f64, CatalogError> {
        self.estimate(column, CacheKind::Eq(v))
    }

    /// Total live mass on `column` as of the set's pinned epoch (see
    /// [`SnapshotSet::estimate_range`]).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if `column` was not part of the
    /// request that built this set.
    pub fn total_count(&self, column: &str) -> Result<f64, CatalogError> {
        self.estimate(column, CacheKind::Total)
    }

    pub(crate) fn estimate(&self, column: &str, kind: CacheKind) -> Result<f64, CatalogError> {
        let snap = self.pinned(column)?;
        if let Some(cache) = &self.cache {
            if let Some(value) = cache.probe(column, kind, snap) {
                return Ok(value);
            }
        }
        Ok(kind.compute_on(snap))
    }

    fn pinned(&self, column: &str) -> Result<&Snapshot, CatalogError> {
        self.snaps
            .get(column)
            .ok_or_else(|| CatalogError::UnknownColumn(column.into()))
    }
}

impl fmt::Debug for SnapshotSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotSet")
            .field("epoch", &self.epoch)
            .field("columns", &self.snaps.keys().collect::<Vec<_>>())
            .finish()
    }
}

struct SnapshotInner {
    column: String,
    label: String,
    epoch: u64,
    checkpoint: u64,
    updates: u64,
    total: f64,
    spans: Vec<BucketSpan>,
    cdf: HistogramCdf,
}

/// A cheap, immutable view of one column's histogram, pinned to a
/// published epoch.
///
/// [`ColumnStore::snapshot`] always pins the epoch current at the call
/// — but that is a property of how the snapshot was *obtained*, not of
/// the type: a snapshot held across later commits keeps serving its
/// epoch, and stores with a retention ring (the `DurableStore`
/// decorator) hand out snapshots of *past* epochs through
/// [`ColumnStore::snapshot_set_at`] until retention evicts them
/// ([`CatalogError::EpochEvicted`]).
///
/// Cloning is one `Arc` bump; the snapshot implements [`ReadHistogram`]
/// (with a precomputed CDF, so estimates don't re-render spans) and can
/// be fed anywhere a histogram is expected — including `dh_optimizer`'s
/// join estimators, which is how mixed-algorithm joins run straight off
/// a store.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

impl Snapshot {
    /// Assembles a snapshot from rendered spans (shared by every
    /// [`ColumnStore`] implementation).
    pub(crate) fn from_parts(
        column: String,
        label: String,
        epoch: u64,
        checkpoint: u64,
        updates: u64,
        spans: Vec<BucketSpan>,
    ) -> Self {
        Snapshot {
            inner: Arc::new(SnapshotInner {
                column,
                label,
                epoch,
                checkpoint,
                updates,
                total: spans.iter().map(|s| s.count).sum(),
                cdf: HistogramCdf::from_spans(spans.clone()),
                spans,
            }),
        }
    }

    /// The same rendered spans under a newer epoch/counter stamp — used
    /// when a version-matched cache hit raced with a commit that left the
    /// spans identical (an empty batch, or commits to other columns).
    pub(crate) fn restamped(&self, epoch: u64, checkpoint: u64, updates: u64) -> Snapshot {
        Snapshot {
            inner: Arc::new(SnapshotInner {
                column: self.inner.column.clone(),
                label: self.inner.label.clone(),
                epoch,
                checkpoint,
                updates,
                total: self.inner.total,
                cdf: self.inner.cdf.clone(),
                spans: self.inner.spans.clone(),
            }),
        }
    }

    /// The column this snapshot was taken from.
    pub fn column(&self) -> &str {
        &self.inner.column
    }

    /// The algorithm label of the owning column (paper legend string).
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// The store epoch this snapshot is pinned to: it contains exactly
    /// the batches published at or before this epoch — whole batches
    /// only. Snapshots of a [`SnapshotSet`] all
    /// share one epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The column's accepted-batch count as of the pinned epoch (stamped
    /// under the publication gate, so it counts exactly the batches this
    /// snapshot contains).
    pub fn checkpoint(&self) -> u64 {
        self.inner.checkpoint
    }

    /// The column's accepted-update count as of the pinned epoch.
    pub fn updates(&self) -> u64 {
        self.inner.updates
    }

    /// Whether two snapshots share the same underlying rendering (used
    /// by cache tests; clones of one snapshot always do).
    #[cfg(test)]
    pub(crate) fn same_rendering(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("column", &self.inner.column)
            .field("label", &self.inner.label)
            .field("epoch", &self.inner.epoch)
            .field("checkpoint", &self.inner.checkpoint)
            .field("buckets", &self.inner.spans.len())
            .finish()
    }
}

impl ReadHistogram for Snapshot {
    fn spans(&self) -> Vec<BucketSpan> {
        self.inner.spans.clone()
    }

    fn for_each_span(&self, f: &mut dyn FnMut(&BucketSpan)) {
        for s in &self.inner.spans {
            f(s);
        }
    }

    fn total_count(&self) -> f64 {
        self.inner.total
    }

    fn num_buckets(&self) -> usize {
        self.inner.spans.len()
    }

    fn cdf(&self) -> HistogramCdf {
        self.inner.cdf.clone()
    }

    fn estimate_less_than(&self, x: f64) -> f64 {
        self.inner.cdf.mass_below(x)
    }

    fn estimate_le(&self, v: i64) -> f64 {
        self.inner.cdf.mass_below(v as f64 + 1.0)
    }

    fn estimate_range(&self, a: i64, b: i64) -> f64 {
        if a > b {
            return 0.0;
        }
        self.inner.cdf.mass_in(a as f64, b as f64 + 1.0)
    }
}
