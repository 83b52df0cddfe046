//! The store: one column's domain partitioned across independently
//! locked shards, composed back into a single histogram through
//! `dh_distributed`'s lossless superposition — with **dynamic
//! re-sharding** that moves the shard borders when the routed load skews.
//!
//! A [`ShardedCatalog`] column splits its value domain into `k`
//! contiguous subranges, each owning a private histogram (built from the
//! same [`AlgoSpec`], with the memory budget divided evenly, remainder
//! bytes going to the first shards), so concurrent writers whose batches
//! land on different shards never touch the same state lock. Readers
//! still see *one* histogram: snapshot composition superimposes the
//! per-shard spans ([`dh_distributed::superimpose`], the Section 8 union
//! estimator — shards are "member sites" of a degenerate shared-nothing
//! union whose members happen to be disjoint), so a [`Snapshot`] of a
//! sharded column feeds `dh_optimizer` exactly like a single histogram.
//! A column registered without a [`ShardPlan`] is one shard over the
//! whole `i64` domain: superposing one member changes nothing, so its
//! snapshots are bit-identical to the bare histogram's.
//!
//! Writes follow the store-wide two-phase, epoch-stamped commit of
//! [`crate::txn`]: a batch is *staged* into every touched shard's pending
//! queue, then *published* in one atomic epoch bump — so no reader ever
//! observes a batch torn between shards (or, for a multi-column
//! [`WriteBatch`], between columns). The committing writer then drains
//! each touched shard itself, under that shard's own lock: writers on
//! different shards proceed in parallel, writers on the same shard
//! contend only there. Drains apply entries in epoch order, so the same
//! commit sequence always produces the same histograms.
//!
//! # Dynamic re-sharding
//!
//! The paper's core argument is that histogram partitions must *adapt*
//! as the data evolves; a shard plan frozen at registration loses the
//! multi-writer win the moment the update stream skews, because most
//! batches route into one or two hot shards. The sharded store
//! therefore keeps the registered [`ShardPlan`] only as the *initial*
//! routing and serves through a live [`ShardMap`] whose borders can
//! move:
//!
//! * every `route_batch` cheaply counts routed ops per shard
//!   ([`ColumnStore::shard_load`]);
//! * a [`ReshardPolicy`] on [`ColumnConfig`] fires on
//!   `commit`/`apply` when the max/mean routed load exceeds its
//!   threshold (rate-limited by a minimum epoch interval);
//! * [`ColumnStore::reshard`] pins the column behind the epoch clock
//!   (new commits block on the routing lock, in-flight commits are
//!   waited out), drains every shard to the barrier epoch, computes
//!   equal-*load* borders from the composed snapshot's CDF, rebuilds the
//!   per-shard histograms by re-routing the composed spans, and swaps
//!   the new map and cells in atomically — readers never observe a mixed
//!   routing, and total mass is preserved exactly.
//!
//! A re-shard publishes no epoch: snapshots pinned at or after the
//! barrier render from the rebuilt shards, snapshots pinned strictly
//! before it retry at the barrier epoch (the same retry path a
//! concurrent drain uses), and whole-epoch accounting holds throughout
//! (`tests/txn_torn_reads.rs` races writers against a re-sharder).
//!
//! # Elastic rebuilds
//!
//! The border move is the all-defaults case of a general rebuild plane.
//! [`ColumnStore::rebuild`] takes a [`RebuildPlan`] — three optional
//! deltas: shard count, [`AlgoSpec`], [`MemoryBudget`] — and executes
//! any combination behind the same pin → drain-to-barrier → compose →
//! clip/re-ingest → atomic-swap sequence: grow or shrink `k`, migrate
//! the algorithm online (the composed spans are re-ingested into freshly
//! built target-spec histograms by largest remainder, so exactly
//! `round(total)` insertions come through), or re-split a new budget.
//! [`ColumnStore::reshard`] is the empty plan. An [`AutoscalePolicy`] on
//! [`ColumnConfig`] drives the shard-count knob automatically — at or above its up-rate the count
//! doubles toward the cap, at or below its down-rate it halves toward
//! the floor, in between it falls back to the skew rebalance. The live
//! shape (vs the frozen registration) is [`ColumnStore::column_shape`];
//! the whole plane is specified in `docs/ELASTIC.md` and pinned by
//! `tests/rebuild.rs`.
//!
//! # Example
//!
//! ```
//! use dh_catalog::{AlgoSpec, ColumnConfig, ColumnStore, ShardPlan, ShardedCatalog};
//! use dh_core::{MemoryBudget, ReadHistogram, UpdateOp};
//!
//! let catalog = ShardedCatalog::new();
//! let plan = ShardPlan::new(0, 999, 4).unwrap(); // domain [0, 999], 4 shards
//! let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
//!     .with_seed(1)
//!     .with_plan(plan);
//! catalog.register("orders.amount", config).unwrap();
//!
//! // A heavily skewed stream: everything lands in the first shard.
//! let batch: Vec<UpdateOp> = (0..4000).map(|i| UpdateOp::Insert(i % 250)).collect();
//! catalog.apply("orders.amount", &batch).unwrap();
//!
//! // Move the borders to equalize the load; mass is preserved exactly.
//! assert!(catalog.reshard("orders.amount").unwrap());
//! let snap = catalog.snapshot("orders.amount").unwrap();
//! assert_eq!(snap.epoch(), 1);
//! assert!((snap.total_count() - 4000.0).abs() < 1e-9);
//! ```

use crate::spec::AlgoSpec;
use crate::store::{CatalogError, ColumnConfig, ColumnStore, Snapshot, SnapshotSet};
use crate::txn::{
    compose_at, lock, read_lock, write_lock, BatchTicket, Cell, ColumnStamp, ComposeCache,
    Registry, RestoreColumn, WriteBatch,
};
use dh_core::{BucketSpan, MemoryBudget, UpdateOp};
use dh_distributed::superimpose;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// How a column is sharded at registration: its value domain and the
/// shard count. Constructible only through [`ShardPlan::new`] (which
/// rejects degenerate input), so every live plan is valid — the single
/// validation point.
///
/// The plan fixes the *initial, equal-width* borders; at runtime the
/// store routes through a [`ShardMap`] whose borders may move on
/// re-shard ([`ColumnStore::reshard`]), and the shard count may change
/// through an elastic rebuild ([`ColumnStore::rebuild`]). Only the
/// domain is permanent.
///
/// # Routing invariants
///
/// Every plan guarantees (and every [`ShardMap`] preserves):
///
/// * [`route`](ShardPlan::route) is total on `i64` (values outside the
///   domain clamp to the edge shards) and maps into `0..shards`;
/// * [`shard_range`](ShardPlan::shard_range) is the exact inverse: the
///   ranges tile the domain — disjoint, in order, covering every value —
///   and `route(v) == i` iff `v` clamps into `shard_range(i)`;
/// * both are overflow-safe over the full `i64` domain (widened to
///   `i128`/`u128` internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardPlan {
    /// Inclusive value domain `[lo, hi]` partitioned across shards.
    domain: (i64, i64),
    /// Number of shards (>= 1).
    shards: usize,
}

impl ShardPlan {
    /// A plan over the inclusive domain `[lo, hi]` with `shards`
    /// equal-width shards.
    ///
    /// # Errors
    /// [`CatalogError::InvalidShardPlan`] if `shards == 0` or `lo > hi`
    /// (degenerate input is rejected, never clamped).
    pub fn new(lo: i64, hi: i64, shards: usize) -> Result<Self, CatalogError> {
        if shards == 0 {
            return Err(CatalogError::InvalidShardPlan(
                "need at least one shard (shards == 0)".into(),
            ));
        }
        if lo > hi {
            return Err(CatalogError::InvalidShardPlan(format!(
                "empty domain [{lo}, {hi}] (lo > hi)"
            )));
        }
        Ok(Self {
            domain: (lo, hi),
            shards,
        })
    }

    /// The inclusive value domain `[lo, hi]` partitioned across shards.
    /// Values outside it route to the nearest edge shard.
    pub fn domain(&self) -> (i64, i64) {
        self.domain
    }

    /// Number of shards (>= 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard index a value routes to under the *initial* equal-width
    /// partition of the domain, clamped at the edges. Total on `i64`;
    /// always in `0..self.shards()`. (After a re-shard the live borders
    /// are those of [`ShardedCatalog::shard_map`].)
    pub fn route(&self, v: i64) -> usize {
        let (lo, hi) = self.domain;
        let v = v.clamp(lo, hi);
        // Equal-width cells; widen before subtracting so domains spanning
        // the full i64 range can't overflow.
        let width = (hi as i128 - lo as i128) as u128 + 1;
        let off = (v as i128 - lo as i128) as u128;
        ((off * self.shards as u128 / width) as usize).min(self.shards - 1)
    }

    /// The inclusive value subrange owned by shard `i` under the initial
    /// equal-width partition — the exact inverse of
    /// [`route`](ShardPlan::route): the ranges tile the domain in order,
    /// and in-domain `v` satisfies `route(v) == i` iff `v` lies in
    /// `shard_range(i)`. With more shards than domain values some shards
    /// own nothing; their range comes back inverted (`b == a - 1`),
    /// consistent with an empty inclusive range.
    ///
    /// # Panics
    /// Panics if `i >= self.shards()`.
    pub fn shard_range(&self, i: usize) -> (i64, i64) {
        assert!(i < self.shards, "shard index out of range");
        let (lo, hi) = self.domain;
        let width = (hi as i128 - lo as i128) as u128 + 1;
        let k = self.shards as u128;
        // Inverse of `route`: value offset `off` lands in shard i iff
        // off * k / width == i, i.e. off in [ceil(i*width/k), ceil((i+1)*width/k) - 1].
        // Offsets fit in i128 (width <= 2^64), so the lo + offset sums
        // stay exact even on full-i64 domains.
        let start = |i: u128| (i * width).div_ceil(k) as i128;
        let a = (lo as i128 + start(i as u128)) as i64;
        let b = (lo as i128 + start(i as u128 + 1) - 1) as i64;
        (a, b)
    }
}

/// When a sharded column should move its shard borders automatically.
///
/// Attached to a [`ColumnConfig`] via
/// [`with_reshard`](ColumnConfig::with_reshard); evaluated after every
/// [`ColumnStore::commit`]/[`ColumnStore::apply`] that touches the
/// column. All three gates must pass before a re-shard is attempted
/// (an explicit [`ColumnStore::reshard`] call bypasses them).
#[derive(Debug, Clone, Copy)]
pub struct ReshardPolicy {
    /// Fire when `max(shard load) / mean(shard load)` reaches this ratio
    /// (must be finite and >= 1; `1.0` re-balances eagerly, larger values
    /// tolerate more skew). Loads are the routed-op counters of the
    /// current shard map ([`ColumnStore::shard_load`]).
    pub skew_threshold: f64,
    /// Minimum published epochs between two automatic re-shard attempts
    /// (rate limit; an attempt that leaves the borders unchanged still
    /// counts, so a persistently-balanced column is not re-examined
    /// every commit).
    pub min_interval_epochs: u64,
    /// Minimum routed ops accumulated by the current shard map before
    /// the skew ratio is judged (keeps a handful of early batches from
    /// triggering a rebuild on noise).
    pub min_load: u64,
}

/// Bit-wise equality on the float threshold (`f64::to_bits`), making
/// the policy — and through it [`ColumnConfig`] —
/// [`Eq`]: deterministic for every value (a NaN threshold equals
/// itself, `-0.0 != 0.0`), which is what crash recovery needs when it
/// asserts a replayed register record matches the live config.
impl PartialEq for ReshardPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.skew_threshold.to_bits() == other.skew_threshold.to_bits()
            && self.min_interval_epochs == other.min_interval_epochs
            && self.min_load == other.min_load
    }
}

impl Eq for ReshardPolicy {}

impl Default for ReshardPolicy {
    /// Fire at 2x mean shard load, at most every 16 epochs, after at
    /// least 4096 routed ops.
    fn default() -> Self {
        Self {
            skew_threshold: 2.0,
            min_interval_epochs: 16,
            min_load: 4096,
        }
    }
}

/// What an elastic rebuild should change about a column's live shape.
///
/// Every field is a *delta*: `None` keeps the column's current value at
/// the barrier, `Some` replaces it. The all-`None` default is a pure
/// border rebalance — exactly what [`ColumnStore::reshard`] runs. All
/// three deltas execute behind the same epoch barrier (pin → drain →
/// compose → clip/re-ingest → atomic swap), so any combination — grow
/// `k` while migrating DC → DADO under a new budget — is one atomic
/// routing swap with exact mass conservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildPlan {
    /// Target shard count (`None` keeps the live count; `Some(0)` is
    /// rejected by [`ColumnStore::rebuild`]).
    pub shards: Option<usize>,
    /// Target algorithm (`None` keeps the live one). The composed spans
    /// are re-ingested into freshly built histograms of this spec —
    /// online algorithm migration, e.g. static → dynamic.
    pub spec: Option<AlgoSpec>,
    /// Target total memory budget, re-split across the (possibly new)
    /// shard count (`None` keeps the live budget).
    pub memory: Option<MemoryBudget>,
}

impl RebuildPlan {
    /// The no-op delta: a pure border rebalance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the target shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Sets the target algorithm.
    pub fn with_spec(mut self, spec: AlgoSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Sets the target total memory budget.
    pub fn with_memory(mut self, memory: MemoryBudget) -> Self {
        self.memory = Some(memory);
        self
    }

    /// Whether every field is `None` (a pure border rebalance).
    pub fn is_rebalance(&self) -> bool {
        *self == Self::default()
    }
}

/// A column's *live* shape: the structural choices a [`RebuildPlan`] can
/// change, as currently served. Contrast with the frozen registration
/// [`ShardPlan`] returned by [`ShardedCatalog::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnShape {
    /// The algorithm the live histograms were built from.
    pub spec: AlgoSpec,
    /// The total memory budget split across the live shards.
    pub memory: MemoryBudget,
    /// The live shard count.
    pub shards: usize,
    /// The registered value domain (permanent; rebuilds never change it).
    pub domain: (i64, i64),
}

/// When — and *how* — a sharded column should rebuild itself
/// automatically: the elastic generalization of [`ReshardPolicy`].
///
/// Attached to a [`ColumnConfig`] via
/// [`with_autoscale`](ColumnConfig::with_autoscale) and judged after
/// every commit that touches the column (rate-limited by
/// `min_interval_epochs`). Where a `ReshardPolicy` can only move
/// borders, an autoscale decision returns a full [`RebuildPlan`]:
///
/// * routed throughput ≥ `scale_up_rate` ops/epoch → *grow* `k`
///   (doubling, capped at `max_shards`);
/// * routed throughput ≤ `scale_down_rate` ops/epoch → *shrink* `k`
///   (halving, floored at `min_shards`), so an idle column stops paying
///   per-shard overhead;
/// * otherwise, skewed shard load (max/mean ≥ `skew_threshold`) →
///   rebalance the borders at the current `k`.
#[derive(Debug, Clone, Copy)]
pub struct AutoscalePolicy {
    /// Lower bound on the shard count (>= 1); scale-down stops here.
    pub min_shards: usize,
    /// Upper bound on the shard count (>= `min_shards`); scale-up stops
    /// here.
    pub max_shards: usize,
    /// Routed ops per epoch at or above which the shard count doubles.
    pub scale_up_rate: u64,
    /// Routed ops per epoch at or below which the shard count halves.
    pub scale_down_rate: u64,
    /// Border-rebalance gate: rebalance when `max(load) / mean(load)`
    /// reaches this ratio (must be finite and >= 1).
    pub skew_threshold: f64,
    /// Minimum published epochs between two automatic decisions — the
    /// throughput window: rates are judged over the ops routed since the
    /// last judgment.
    pub min_interval_epochs: u64,
    /// Minimum routed ops accumulated by the current generation before
    /// the *skew* gate is judged (the rate gates have their own
    /// thresholds).
    pub min_load: u64,
}

/// Bit-wise equality on the float threshold, for the same reason as
/// [`ReshardPolicy`]: recovery compares replayed configs for equality.
impl PartialEq for AutoscalePolicy {
    fn eq(&self, other: &Self) -> bool {
        self.min_shards == other.min_shards
            && self.max_shards == other.max_shards
            && self.scale_up_rate == other.scale_up_rate
            && self.scale_down_rate == other.scale_down_rate
            && self.skew_threshold.to_bits() == other.skew_threshold.to_bits()
            && self.min_interval_epochs == other.min_interval_epochs
            && self.min_load == other.min_load
    }
}

impl Eq for AutoscalePolicy {}

impl Default for AutoscalePolicy {
    /// Scale between 1 and 32 shards: up above 4096 ops/epoch, down at
    /// or below 64, rebalance at 2x mean skew, judged at most every 16
    /// epochs after 4096 routed ops.
    fn default() -> Self {
        Self {
            min_shards: 1,
            max_shards: 32,
            scale_up_rate: 4096,
            scale_down_rate: 64,
            skew_threshold: 2.0,
            min_interval_epochs: 16,
            min_load: 4096,
        }
    }
}

impl AutoscalePolicy {
    /// Judges one throughput window: the column served `window_ops`
    /// routed ops over `window_epochs` published epochs at `shards`
    /// shards, with per-shard generation loads `loads`. Returns the
    /// [`RebuildPlan`] to run, or `None` to leave the column alone.
    ///
    /// Pure and deterministic — `DurableStore` logs the *decision* (the
    /// resolved plan), so replay never re-judges a window.
    pub fn decide(
        &self,
        shards: usize,
        window_ops: u64,
        window_epochs: u64,
        loads: &[u64],
    ) -> Option<RebuildPlan> {
        let rate = window_ops / window_epochs.max(1);
        if rate >= self.scale_up_rate.max(1) && shards < self.max_shards {
            let target = shards.saturating_mul(2).min(self.max_shards);
            return Some(RebuildPlan::new().with_shards(target));
        }
        if rate <= self.scale_down_rate && shards > self.min_shards.max(1) {
            let target = (shards / 2).max(self.min_shards).max(1);
            return Some(RebuildPlan::new().with_shards(target));
        }
        let total: u64 = loads.iter().sum();
        if loads.len() > 1 && total >= self.min_load.max(1) {
            let max = loads.iter().copied().max().unwrap_or(0);
            let mean = total as f64 / loads.len() as f64;
            if max as f64 >= self.skew_threshold * mean {
                return Some(RebuildPlan::new());
            }
        }
        None
    }
}

/// Validates the automatic-rebuild policies a registration carries.
fn validate_policies(config: &ColumnConfig) -> Result<(), CatalogError> {
    if let Some(policy) = config.reshard {
        if !policy.skew_threshold.is_finite() || policy.skew_threshold < 1.0 {
            return Err(CatalogError::InvalidShardPlan(format!(
                "reshard skew_threshold must be finite and >= 1, got {}",
                policy.skew_threshold
            )));
        }
    }
    if let Some(auto) = config.autoscale {
        if !auto.skew_threshold.is_finite() || auto.skew_threshold < 1.0 {
            return Err(CatalogError::InvalidShardPlan(format!(
                "autoscale skew_threshold must be finite and >= 1, got {}",
                auto.skew_threshold
            )));
        }
        if auto.min_shards == 0 {
            return Err(CatalogError::InvalidShardPlan(
                "autoscale min_shards must be >= 1".into(),
            ));
        }
        if auto.max_shards < auto.min_shards {
            return Err(CatalogError::InvalidShardPlan(format!(
                "autoscale max_shards {} below min_shards {}",
                auto.max_shards, auto.min_shards
            )));
        }
        // The rate gates need hysteresis: scale-up is judged first, so
        // a policy satisfying both gates in one window would ratchet
        // the column to `max_shards` and never shrink it.
        if auto.scale_down_rate >= auto.scale_up_rate {
            return Err(CatalogError::InvalidShardPlan(format!(
                "autoscale scale_down_rate {} must be below scale_up_rate {}",
                auto.scale_down_rate, auto.scale_up_rate
            )));
        }
    }
    Ok(())
}

/// The live routing table of a sharded column: `k` contiguous value
/// subranges given by their start cuts, over the registered domain.
///
/// A freshly registered column routes through
/// [`ShardMap::equal_width`] (identical to [`ShardPlan::route`]); a
/// re-shard replaces it with [`ShardMap::balanced`] borders computed
/// from the composed snapshot's CDF. Both constructions preserve the
/// routing invariants documented on [`ShardPlan`]: `route` is total on
/// `i64` (out-of-domain values clamp to the edge shards) and
/// [`shard_range`](ShardMap::shard_range) is its exact inverse, tiling
/// the domain in order (empty shards come back inverted, `b == a - 1`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShardMap {
    /// Inclusive value domain `[lo, hi]`.
    domain: (i64, i64),
    /// `starts[i]` is the first value owned by shard `i`;
    /// `starts[0] == lo`. Non-decreasing; equal consecutive starts mean
    /// the earlier shard is empty.
    starts: Vec<i64>,
}

impl ShardMap {
    /// The equal-width map over `[lo, hi]` — the initial routing of
    /// every [`ShardPlan`], bit-identical to [`ShardPlan::route`] /
    /// [`ShardPlan::shard_range`].
    ///
    /// # Errors
    /// [`CatalogError::InvalidShardPlan`] if `shards == 0` or `lo > hi`.
    pub fn equal_width(domain: (i64, i64), shards: usize) -> Result<Self, CatalogError> {
        let plan = ShardPlan::new(domain.0, domain.1, shards)?;
        let starts = (0..shards).map(|i| plan.shard_range(i).0).collect();
        Ok(Self { domain, starts })
    }

    /// A map whose borders equalize the *mass* of `spans` (the composed
    /// snapshot of the column) across shards: cut `i` sits at the
    /// `i/k` quantile of the span CDF, rounded to an integer and nudged
    /// so every shard keeps at least one domain value. Mass observed per
    /// shard approximates future routed load when updates follow the
    /// data distribution — the equal-*load* borders a re-shard installs.
    ///
    /// Falls back to [`ShardMap::equal_width`] when the spans carry no
    /// mass or the domain holds fewer values than shards (where empty
    /// shards are unavoidable anyway).
    ///
    /// # Errors
    /// [`CatalogError::InvalidShardPlan`] if `shards == 0` or `lo > hi`.
    pub fn balanced(
        spans: &[BucketSpan],
        domain: (i64, i64),
        shards: usize,
    ) -> Result<Self, CatalogError> {
        // Validates the domain/shard count exactly like `ShardPlan::new`.
        let fallback = Self::equal_width(domain, shards)?;
        let (lo, hi) = domain;
        let width = (hi as i128 - lo as i128) as u128 + 1;
        let total: f64 = spans.iter().map(|s| s.count).sum();
        if width < shards as u128 || !total.is_finite() || total <= 0.0 {
            return Ok(fallback);
        }
        let mut sorted: Vec<BucketSpan> = spans.iter().filter(|s| s.count > 0.0).copied().collect();
        sorted.sort_by(|a, b| a.lo.total_cmp(&b.lo));

        let mut starts = Vec::with_capacity(shards);
        starts.push(lo);
        let mut acc = 0.0;
        let mut idx = 0;
        for i in 1..shards {
            let target = total * i as f64 / shards as f64;
            while idx < sorted.len() && acc + sorted[idx].count < target {
                acc += sorted[idx].count;
                idx += 1;
            }
            let x = match sorted.get(idx) {
                // Walk exhausted (floating-point shortfall): everything
                // left of the cut, park it at the domain end.
                None => hi as f64,
                Some(s) => {
                    let need = target - acc;
                    if s.count > 0.0 && s.width() > 0.0 {
                        s.lo + (need / s.count) * s.width()
                    } else {
                        s.lo
                    }
                }
            };
            // Integer cut, clamped so cuts stay strictly increasing and
            // every remaining shard keeps at least one value (`as`
            // saturates, the clamp restores validity; width >= shards
            // makes the window non-empty by induction).
            let min_cut = *starts.last().expect("seeded with lo") as i128 + 1;
            let max_cut = hi as i128 - (shards - 1 - i) as i128;
            let cut = (x.ceil() as i128).clamp(min_cut, max_cut);
            starts.push(cut as i64);
        }
        Self::from_cuts(domain, starts)
    }

    /// A map from explicit start cuts: `starts[i]` is the first value of
    /// shard `i`. `starts[0]` must equal the domain's lower bound; cuts
    /// must be non-decreasing and lie within the domain (at most one
    /// past its upper bound, marking trailing empty shards).
    ///
    /// # Errors
    /// [`CatalogError::InvalidShardPlan`] on an empty cut list, an
    /// inverted domain, or cuts violating the rules above.
    pub fn from_cuts(domain: (i64, i64), starts: Vec<i64>) -> Result<Self, CatalogError> {
        let (lo, hi) = domain;
        if lo > hi {
            return Err(CatalogError::InvalidShardPlan(format!(
                "empty domain [{lo}, {hi}] (lo > hi)"
            )));
        }
        if starts.is_empty() {
            return Err(CatalogError::InvalidShardPlan(
                "need at least one shard (no cuts)".into(),
            ));
        }
        if starts[0] != lo {
            return Err(CatalogError::InvalidShardPlan(format!(
                "first cut {} must open the domain at {lo}",
                starts[0]
            )));
        }
        for (i, w) in starts.windows(2).enumerate() {
            if w[0] > w[1] {
                return Err(CatalogError::InvalidShardPlan(format!(
                    "cuts out of order at shard {i}: {} > {}",
                    w[0], w[1]
                )));
            }
        }
        for &s in &starts[1..] {
            // `s == i64::MIN` past index 0 would make the empty-range
            // rendering `(s, s - 1)` underflow.
            if s == i64::MIN || s as i128 > hi as i128 + 1 {
                return Err(CatalogError::InvalidShardPlan(format!(
                    "cut {s} outside the domain [{lo}, {hi}]"
                )));
            }
        }
        Ok(Self { domain, starts })
    }

    /// The inclusive value domain `[lo, hi]`.
    pub fn domain(&self) -> (i64, i64) {
        self.domain
    }

    /// Number of shards (>= 1).
    pub fn shards(&self) -> usize {
        self.starts.len()
    }

    /// The start cuts: `starts()[i]` is the first value owned by shard
    /// `i` (`starts()[0]` is the domain's lower bound).
    pub fn starts(&self) -> &[i64] {
        &self.starts
    }

    /// The shard index a value routes to: the shard whose subrange
    /// contains `v` after clamping into the domain. Total on `i64`;
    /// always in `0..self.shards()`.
    pub fn route(&self, v: i64) -> usize {
        let (lo, hi) = self.domain;
        let v = v.clamp(lo, hi);
        // Last shard whose start is <= v; empty shards (duplicate
        // starts) are skipped by taking the last.
        self.starts.partition_point(|&s| s <= v) - 1
    }

    /// The inclusive value subrange owned by shard `i` — the exact
    /// inverse of [`route`](ShardMap::route). Empty shards come back
    /// inverted (`b == a - 1`).
    ///
    /// # Panics
    /// Panics if `i >= self.shards()`.
    pub fn shard_range(&self, i: usize) -> (i64, i64) {
        assert!(i < self.starts.len(), "shard index out of range");
        let a = self.starts[i];
        let b = if i + 1 < self.starts.len() {
            // Validation guarantees starts[i + 1] > i64::MIN.
            (self.starts[i + 1] as i128 - 1) as i64
        } else {
            self.domain.1
        };
        (a, b)
    }
}

/// Splits a column's memory budget across `shards`: every shard gets
/// `bytes / shards`, and the `bytes % shards` remainder bytes go to the
/// first shards one each — so a `k`-sharded column spends exactly the
/// same total bytes as the unsharded column (previously the truncated
/// division silently dropped up to `k - 1` bytes). Each shard is floored
/// at one byte, so degenerate budgets smaller than the shard count
/// round up.
pub(crate) fn split_budget(memory: MemoryBudget, shards: usize) -> Vec<MemoryBudget> {
    let bytes = memory.bytes();
    let base = bytes / shards;
    let remainder = bytes % shards;
    (0..shards)
        .map(|i| MemoryBudget::from_bytes((base + usize::from(i < remainder)).max(1)))
        .collect()
}

/// One routing generation of a sharded column: the live [`ShardMap`],
/// the per-shard cells it routes into, and everything scoped to that
/// routing (load counters, the compose cache). A
/// re-shard swaps the whole generation atomically under the column's
/// routing lock, so writers and readers always see map and cells in
/// agreement.
struct Generation {
    map: ShardMap,
    /// The algorithm the generation's histograms were built from. Part
    /// of the generation (not the column) since PR 10: an online
    /// migration swaps it atomically with the map and cells.
    spec: AlgoSpec,
    /// The total memory budget split across this generation's cells.
    memory: MemoryBudget,
    cells: Vec<Arc<Cell>>,
    /// Ops routed into each shard since this generation was installed
    /// (the load the [`ReshardPolicy`] judges).
    load: Vec<AtomicU64>,
    /// Commits that have staged into this generation's cells and not
    /// yet finished settling. A re-shard holds the routing write lock
    /// (no new stagings) and waits for this to reach zero, so every
    /// batch staged here is published and drainable before the barrier
    /// epoch is read.
    in_flight: AtomicU64,
    cache: Mutex<ComposeCache>,
}

impl Generation {
    /// Builds a generation over `cells`.
    fn install(
        map: ShardMap,
        spec: AlgoSpec,
        memory: MemoryBudget,
        cells: Vec<Arc<Cell>>,
    ) -> Arc<Self> {
        let load = cells.iter().map(|_| AtomicU64::new(0)).collect();
        Arc::new(Self {
            map,
            spec,
            memory,
            cells,
            load,
            in_flight: AtomicU64::new(0),
            cache: Mutex::new(ComposeCache::default()),
        })
    }
}

/// The staging token of one commit on a sharded column: which shards it
/// touched, in which generation. Settling uses the generation recorded
/// here (not the current one), and dropping the token — after the
/// commit has settled, even if settling panicked — releases the
/// generation's in-flight count that gates re-sharding.
pub(crate) struct StagedShards {
    generation: Arc<Generation>,
    touched: Vec<usize>,
}

impl Drop for StagedShards {
    fn drop(&mut self) {
        self.generation.in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// Rebuild bookkeeping, under the per-column rebuild mutex (one rebuild
/// at a time; policy-triggered attempts skip instead of queueing).
#[derive(Default)]
struct ReshardMeta {
    /// The column's automatic-rebuild policies (see
    /// [`ShardedCatalog::arm`] for columns armed after registration).
    policy: Option<ReshardPolicy>,
    autoscale: Option<AutoscalePolicy>,
    /// Completed generation rebuilds (border moves and shape changes).
    count: u64,
    /// Store epoch of the last rebuild *attempt* (swap or not), for
    /// the policies' rate limits.
    last_epoch: u64,
    /// Store epoch of the last [`AutoscalePolicy`] judgment — the start
    /// of the current throughput window.
    judged_epoch: u64,
    /// Total generation load already judged — subtracted so each window
    /// counts only the ops routed since the previous judgment. Reset
    /// (with `judged_epoch`) when a rebuild swaps the generation, whose
    /// load counters restart at zero.
    judged_load: u64,
}

/// One registered column: its routing generation, policies and the
/// publish-consistent stamp the [`Registry`] commit protocol updates.
pub(crate) struct ShardedColumn {
    pub(crate) name: String,
    /// The *registration* algorithm — what [`ColumnStore::spec`]
    /// reports and replayed register records are compared against. The
    /// live (possibly migrated) algorithm lives on the generation; see
    /// [`ShardedCatalog::shape`].
    spec: AlgoSpec,
    /// The registration plan (a plan-less column records the one-shard
    /// full-`i64` plan it was given).
    plan: ShardPlan,
    seed: u64,
    /// Whether the column carries a policy — read without the rebuild
    /// mutex on every commit that touches it.
    armed: AtomicBool,
    /// The live routing generation; replaced whole on re-shard.
    generation: RwLock<Arc<Generation>>,
    /// Ops whose value lay outside the registered domain and were
    /// clamped into an edge shard (total across generations).
    clamped: AtomicU64,
    reshard: Mutex<ReshardMeta>,
    /// The column's publish-consistent counters.
    pub(crate) stamp: Mutex<ColumnStamp>,
}

impl ShardedColumn {
    fn generation(&self) -> Arc<Generation> {
        read_lock(&self.generation).clone()
    }

    /// Acquires the routing write lock with the column *quiescent*: no
    /// commit staged into the current generation is still in flight.
    /// Every commit increments `in_flight` under the routing read lock,
    /// so once this returns, nothing is staged-but-unsettled and no new
    /// staging can start. The lock is *released between retries*: a
    /// straggling commit needs the publication gate to publish, the
    /// gate may be held by a fallback render, and that render needs the
    /// routing read lock — waiting while holding the write lock would
    /// close that cycle into a deadlock. The in-flight window of a
    /// commit is tiny (stage → publish → settle), so this converges
    /// quickly.
    fn quiesce(&self) -> std::sync::RwLockWriteGuard<'_, Arc<Generation>> {
        loop {
            let slot = write_lock(&self.generation);
            if slot.in_flight.load(Ordering::Acquire) == 0 {
                return slot;
            }
            drop(slot);
            std::thread::yield_now();
        }
    }

    /// Phase 1 of a commit: routes `ops` through the live shard map and
    /// queues each shard's share under `ticket`, invisible until
    /// published. The token names the generation and the shards touched.
    pub(crate) fn stage_ops(&self, ticket: &Arc<BatchTicket>, ops: Vec<UpdateOp>) -> StagedShards {
        let generation = read_lock(&self.generation);
        let (lo, hi) = generation.map.domain();
        let mut routed: Vec<Vec<UpdateOp>> = vec![Vec::new(); generation.map.shards()];
        let mut clamped = 0u64;
        for &op in &ops {
            let v = match op {
                UpdateOp::Insert(v) | UpdateOp::Delete(v) => v,
            };
            if v < lo || v > hi {
                clamped += 1;
            }
            routed[generation.map.route(v)].push(op);
        }
        if clamped > 0 {
            self.clamped.fetch_add(clamped, Ordering::Relaxed);
        }
        let mut touched = Vec::new();
        for (i, sub) in routed.into_iter().enumerate() {
            if !sub.is_empty() {
                generation.load[i].fetch_add(sub.len() as u64, Ordering::Relaxed);
                generation.cells[i].stage(ticket.clone(), sub);
                touched.push(i);
            }
        }
        // Counted before the routing read lock is released: a re-shard
        // observes in-flight commits under the write lock, so every
        // batch staged into this generation is covered by its barrier.
        generation.in_flight.fetch_add(1, Ordering::Relaxed);
        StagedShards {
            generation: Arc::clone(&generation),
            touched,
        }
    }

    /// Phase 3 of a commit: drains the touched shards inline, in the
    /// generation the batch was staged into — which a concurrent
    /// re-shard cannot retire until this settle (and the token drop
    /// after it) completes.
    pub(crate) fn settle(&self, staged: &StagedShards, epoch: u64) {
        for &i in &staged.touched {
            staged.generation.cells[i].drain_to(epoch);
        }
    }

    /// Renders the column at exactly `epoch`, stamping the snapshot from
    /// the already-validated `stamp` (retry token on `Err`).
    pub(crate) fn render_at(&self, epoch: u64, stamp: ColumnStamp) -> Result<Snapshot, u64> {
        let generation = self.generation();
        let cells: Vec<&Cell> = generation.cells.iter().map(Arc::as_ref).collect();
        compose_at(
            &cells,
            epoch,
            &generation.cache,
            &self.name,
            // The *live* algorithm: after a migration, snapshots label
            // themselves with what actually built them.
            generation.spec.label(),
            stamp.accepted,
            stamp.updates,
        )
    }

    /// Restore path: routes `ops` through the live shard map exactly
    /// like a staged commit — same clamp accounting, same per-shard load
    /// counters (so a restored column's re-shard policy judges the same
    /// load a replayed history would have accumulated) — but applies
    /// straight into the cells, marked as-of `epoch`. Only for
    /// checkpoint recovery on an exclusively-owned store (see
    /// [`Registry::restore_at`]).
    pub(crate) fn restore_content(&self, epoch: u64, ops: Vec<UpdateOp>) {
        let generation = self.generation();
        let (lo, hi) = generation.map.domain();
        let mut routed: Vec<Vec<UpdateOp>> = vec![Vec::new(); generation.map.shards()];
        let mut clamped = 0u64;
        for &op in &ops {
            let v = match op {
                UpdateOp::Insert(v) | UpdateOp::Delete(v) => v,
            };
            if v < lo || v > hi {
                clamped += 1;
            }
            routed[generation.map.route(v)].push(op);
        }
        if clamped > 0 {
            self.clamped.fetch_add(clamped, Ordering::Relaxed);
        }
        for (i, sub) in routed.into_iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            generation.load[i].fetch_add(sub.len() as u64, Ordering::Relaxed);
            generation.cells[i].restore(epoch, &sub);
        }
    }
}

/// One clipped slice of the composed histogram destined for a new
/// shard: `count` insertions spread evenly over the integer values
/// `[vlo, vhi]`. A re-shard plan is a list of clips — O(shards ×
/// composed buckets) descriptors, never O(rows) — that
/// [`replay_clips`] streams into the rebuilt histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RerouteClip {
    shard: usize,
    vlo: i64,
    vhi: i64,
    count: u64,
}

/// Plans the insertion stream that reproduces `composed` (a column's
/// composed spans) in the shards of `map`: each span is clipped against
/// every shard's value window (edge shards absorb the mass of values
/// that were clamped in from outside the domain), and the grand total
/// is apportioned over the clips by largest remainder — so the rebuilt
/// column carries **exactly** `round(total)` insertions, conserving
/// mass through the re-shard.
fn reroute_clips(composed: &[BucketSpan], map: &ShardMap) -> Vec<RerouteClip> {
    struct Clip {
        shard: usize,
        vlo: i64,
        vhi: i64,
        mass: f64,
    }

    let shards = map.shards();
    let total: f64 = composed.iter().map(|s| s.count).sum();
    let n_total = total.round().max(0.0) as u64;
    if n_total == 0 {
        return Vec::new();
    }
    let live = |i: usize| {
        let (a, b) = map.shard_range(i);
        b >= a
    };
    let first_live = (0..shards).find(|&i| live(i)).unwrap_or(0);
    let last_live = (0..shards).rev().find(|&i| live(i)).unwrap_or(0);

    let mut clips: Vec<Clip> = Vec::new();
    for i in 0..shards {
        let (a, b) = map.shard_range(i);
        if b < a {
            continue;
        }
        // The first and last *live* shards extend to ±infinity so mass
        // outside the registered domain (clamped-in values) is kept,
        // even when edge shards of the map are empty.
        let win_lo = if i == first_live {
            f64::NEG_INFINITY
        } else {
            a as f64
        };
        let win_hi = if i == last_live {
            f64::INFINITY
        } else {
            (b as i128 + 1) as f64
        };
        for s in composed {
            let mass = s.mass_in(win_lo, win_hi);
            if mass <= 0.0 {
                continue;
            }
            let olo = s.lo.max(win_lo);
            let ohi = s.hi.min(win_hi);
            // Integer values in [olo, ohi): ceil(olo) ..= ceil(ohi) - 1.
            let mut vlo = olo.ceil();
            let mut vhi = ohi.ceil() - 1.0;
            if vhi < vlo {
                // Sub-integer sliver (fractional borders): park the mass
                // on the nearest integer.
                vlo = ((olo + ohi) * 0.5).floor();
                vhi = vlo;
            }
            clips.push(Clip {
                shard: i,
                // f64 -> i64 `as` saturates; domains are i64 anyway.
                vlo: vlo as i64,
                vhi: (vhi as i64).max(vlo as i64),
                mass,
            });
        }
    }
    if clips.is_empty() {
        return Vec::new();
    }

    // Largest-remainder apportionment of the exact total over the clips.
    let mut counts: Vec<u64> = clips.iter().map(|c| c.mass.floor() as u64).collect();
    let mut assigned: u64 = counts.iter().sum();
    let mut order: Vec<usize> = (0..clips.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = clips[a].mass.fract();
        let fb = clips[b].mass.fract();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let mut i = 0;
    while assigned < n_total {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    let mut i = 0;
    while assigned > n_total {
        // Floating-point drift in the other direction (rare): shave the
        // smallest remainders first.
        let j = order[order.len() - 1 - (i % order.len())];
        if counts[j] > 0 {
            counts[j] -= 1;
            assigned -= 1;
        }
        i += 1;
    }

    clips
        .iter()
        .zip(&counts)
        .filter(|&(_, &count)| count > 0)
        .map(|(clip, &count)| RerouteClip {
            shard: clip.shard,
            vlo: clip.vlo,
            vhi: clip.vhi,
            count,
        })
        .collect()
}

/// How many synthesized insertions a re-shard applies per
/// `apply_slice` call: peak transient memory of a rebuild is one chunk
/// plus the clip descriptors, never O(rows).
const RESHARD_CHUNK: usize = 4096;

/// Streams shard `shard`'s clips into `histogram` in
/// [`RESHARD_CHUNK`]-sized batches.
fn replay_clips(histogram: &mut dh_core::BoxedHistogram, clips: &[RerouteClip], shard: usize) {
    let mut buf: Vec<UpdateOp> = Vec::with_capacity(RESHARD_CHUNK);
    for clip in clips.iter().filter(|c| c.shard == shard) {
        spread_inserts(clip.vlo, clip.vhi, clip.count, &mut |v, n| {
            for _ in 0..n {
                buf.push(UpdateOp::Insert(v));
                if buf.len() == RESHARD_CHUNK {
                    histogram.apply_slice(&buf);
                    buf.clear();
                }
            }
        });
    }
    if !buf.is_empty() {
        histogram.apply_slice(&buf);
    }
}

/// Emits `n` insertions spread as evenly as possible over the integer
/// values `[vlo, vhi]`, in value order, as `(value, repeat)` pairs, in
/// O(min(n, values)) time.
pub(crate) fn spread_inserts(vlo: i64, vhi: i64, n: u64, emit: &mut dyn FnMut(i64, u64)) {
    if n == 0 {
        return;
    }
    let values = (vhi as i128 - vlo as i128 + 1) as u128;
    if n as u128 >= values {
        // Every value gets base, the remainder is striped evenly.
        let base = (n as u128 / values) as u64;
        let rem = n as u128 % values;
        for j in 0..values as u64 {
            let v = (vlo as i128 + j as i128) as i64;
            let extra = ((j as u128 + 1) * rem / values - j as u128 * rem / values) as u64;
            if base + extra > 0 {
                emit(v, base + extra);
            }
        }
    } else {
        // Fewer insertions than values: place them at evenly spaced
        // positions (window midpoints).
        for j in 0..n {
            let off = ((2 * j as u128 + 1) * values / (2 * n as u128)) as i128;
            emit((vlo as i128 + off) as i64, 1);
        }
    }
}

/// A thread-safe, multi-column histogram store whose columns are
/// partitioned across shards, serving through the [`ColumnStore`]
/// trait.
///
/// Writers commit from any number of threads; batches are routed by
/// value range so writers touching different shards never contend on
/// histogram state, while the store-wide epoch clock keeps every commit
/// atomic across shards and columns. Readers get epoch-pinned
/// [`Snapshot`]s, so estimation and `dh_optimizer` joins are oblivious
/// to the sharding. Shard borders
/// adapt to the routed load — automatically under a [`ReshardPolicy`],
/// or on demand through [`ColumnStore::reshard`] (see the
/// [module docs](self) for the barrier protocol).
#[derive(Default)]
pub struct ShardedCatalog {
    registry: Registry,
    /// Whether any registered column carries a policy — lets the commit
    /// path skip the policy bookkeeping (touched-column name collection,
    /// post-commit lookups) entirely on stores that never armed one,
    /// keeping their write path as lean as before.
    armed: AtomicBool,
}

/// A rebuild a column's policies ran after a commit touched it: the
/// plan they decided and the barrier it ran at. The `DurableStore`
/// decorator logs one [`Rebuild`](dh_wal::WalRecord::Rebuild) record
/// per event, so replay re-runs the decision instead of re-judging it.
pub(crate) struct RebuildEvent {
    pub(crate) column: String,
    pub(crate) barrier: u64,
    pub(crate) plan: RebuildPlan,
}

impl ShardedCatalog {
    /// An empty sharded catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard plan a column was *registered* with — a frozen record
    /// of the registration call, not the live state: its borders and
    /// shard count are stale after the first re-shard or rebuild. The
    /// live borders are [`ShardedCatalog::shard_map`]; the live shard
    /// count, algorithm and memory budget are [`ShardedCatalog::shape`].
    /// Only the domain is permanent. A column registered without a plan
    /// reports the one-shard plan over the whole `i64` domain.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    pub fn plan(&self, column: &str) -> Result<ShardPlan, CatalogError> {
        Ok(self.registry.get(column)?.plan)
    }

    /// The column's *live* shape: the algorithm, memory budget and shard
    /// count currently serving — everything a [`RebuildPlan`] can
    /// change, after every rebuild that changed it.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    pub fn shape(&self, column: &str) -> Result<ColumnShape, CatalogError> {
        let col = self.registry.get(column)?;
        let generation = col.generation();
        Ok(ColumnShape {
            spec: generation.spec,
            memory: generation.memory,
            shards: generation.map.shards(),
            domain: generation.map.domain(),
        })
    }

    /// The column's *current* routing table. Starts as the plan's
    /// equal-width partition; every completed re-shard replaces it.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    pub fn shard_map(&self, column: &str) -> Result<ShardMap, CatalogError> {
        Ok(self.registry.get(column)?.generation().map.clone())
    }

    /// Seeds a freshly built store to a checkpoint without replaying one
    /// publication per historical epoch (see [`Registry::restore_at`]) —
    /// the `DurableStore` decorator's restore path.
    pub(crate) fn restore_at(
        &self,
        epoch: u64,
        images: Vec<RestoreColumn>,
    ) -> Result<(), CatalogError> {
        self.registry.restore_at(epoch, images)
    }

    /// Arms `config`'s policies on a column registered without them,
    /// opening the autoscale window at the column's current load. A
    /// recovered `DurableStore` replays its log into unarmed columns
    /// (the log carries every decision) and arms them afterwards, so
    /// replayed load never counts into the first live window.
    pub(crate) fn arm(&self, column: &str, config: &ColumnConfig) -> Result<(), CatalogError> {
        if config.reshard.is_none() && config.autoscale.is_none() {
            return Ok(());
        }
        let col = self.registry.get(column)?;
        let mut meta = lock(&col.reshard);
        meta.policy = config.reshard;
        meta.autoscale = config.autoscale;
        meta.judged_epoch = self.registry.epoch();
        meta.judged_load = col
            .generation()
            .load
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .sum();
        col.armed.store(true, Ordering::Relaxed);
        self.armed.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// [`ColumnStore::commit`], plus the rebuilds the policies of the
    /// columns it touched ran afterwards.
    pub(crate) fn commit_judged(
        &self,
        batch: WriteBatch,
    ) -> Result<(u64, Vec<RebuildEvent>), CatalogError> {
        if !self.armed.load(Ordering::Relaxed) {
            return Ok((self.registry.commit(batch)?, Vec::new()));
        }
        // Only armed columns are judged; the others' names are not
        // worth cloning.
        let columns: Vec<String> = batch
            .columns()
            .filter(|column| {
                self.registry
                    .get(column)
                    .is_ok_and(|col| col.armed.load(Ordering::Relaxed))
            })
            .map(str::to_string)
            .collect();
        let epoch = self.registry.commit(batch)?;
        let events = columns.iter().filter_map(|c| self.judge(c)).collect();
        Ok((epoch, events))
    }

    /// [`ColumnStore::apply`], plus the rebuild the column's policies
    /// ran afterwards.
    pub(crate) fn apply_judged(
        &self,
        column: &str,
        batch: &[UpdateOp],
    ) -> Result<(u64, Option<RebuildEvent>), CatalogError> {
        let checkpoint = self.registry.apply(column, batch)?;
        let event = if self.armed.load(Ordering::Relaxed) {
            self.judge(column)
        } else {
            None
        };
        Ok((checkpoint, event))
    }

    /// Lets the policies of a column a commit just touched judge it —
    /// the one judge of every automatic rebuild.
    fn judge(&self, column: &str) -> Option<RebuildEvent> {
        let col = self.registry.get(column).ok()?;
        if !col.armed.load(Ordering::Relaxed) {
            return None;
        }
        let (plan, barrier) = self.do_rebuild(&col, None, false)?;
        Some(RebuildEvent {
            column: column.to_string(),
            barrier,
            plan,
        })
    }

    /// Whether the column's re-shard policy gates all pass right now.
    fn policy_fires(&self, col: &ShardedColumn, meta: &ReshardMeta) -> bool {
        let Some(policy) = meta.policy else {
            return false;
        };
        if self.registry.epoch().saturating_sub(meta.last_epoch) < policy.min_interval_epochs {
            return false;
        }
        // Folded straight off the atomics — this runs after every
        // commit on an armed column, so it must not allocate.
        let generation = col.generation();
        if generation.load.len() < 2 {
            // One shard has no borders to move; only an autoscale
            // decision can grow it.
            return false;
        }
        let (mut total, mut max) = (0u64, 0u64);
        for counter in &generation.load {
            let load = counter.load(Ordering::Relaxed);
            total += load;
            max = max.max(load);
        }
        if total < policy.min_load.max(1) {
            return false;
        }
        let mean = total as f64 / generation.load.len() as f64;
        max as f64 >= policy.skew_threshold * mean
    }

    /// Resolves what the column's automatic policies want to do right
    /// now, under the rebuild mutex. The [`ReshardPolicy`] (border
    /// rebalance only) is judged first for compatibility; otherwise the
    /// [`AutoscalePolicy`] judges the throughput window since its last
    /// decision. Updates the window bookkeeping in `meta`.
    fn policy_decides(&self, col: &ShardedColumn, meta: &mut ReshardMeta) -> Option<RebuildPlan> {
        if self.policy_fires(col, meta) {
            return Some(RebuildPlan::new());
        }
        let auto = meta.autoscale?;
        let epoch = self.registry.epoch();
        let window_epochs = epoch.saturating_sub(meta.judged_epoch);
        if window_epochs < auto.min_interval_epochs.max(1) {
            return None;
        }
        let generation = col.generation();
        let loads: Vec<u64> = generation
            .load
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect();
        let total: u64 = loads.iter().sum();
        let window_ops = total.saturating_sub(meta.judged_load);
        meta.judged_epoch = epoch;
        meta.judged_load = total;
        auto.decide(generation.map.shards(), window_ops, window_epochs, &loads)
    }

    /// The rebuild protocol — one code path for border rebalance,
    /// grow/shrink `k`, online algorithm migration, and memory
    /// re-budgeting. Returns the executed plan and its barrier epoch if
    /// the generation was actually swapped (the borders moved or the
    /// shape changed).
    ///
    /// 1. **Pin** — take the column's rebuild mutex (forced calls
    ///    queue, policy-triggered ones skip if one is already running)
    ///    and the routing write lock: no new batch can stage into the
    ///    old generation.
    /// 2. **Drain to the barrier** — wait out commits that already
    ///    staged (they publish and settle), read the barrier epoch, and
    ///    drain every shard up to it. The column now has no pending
    ///    entries at all.
    /// 3. **Rebuild** — compose the per-shard spans (the column's full
    ///    histogram as of the barrier), resolve the plan's deltas
    ///    against the live shape, compute equal-load borders at the
    ///    *target* shard count from the composed CDF, and re-route the
    ///    composed mass into per-shard histograms freshly built from the
    ///    *target* algorithm and budget (exact total via the
    ///    largest-remainder re-ingestion).
    /// 4. **Swap** — install the new generation (map + shape + cells +
    ///    load counters) in one assignment under the routing
    ///    write lock. Readers pinned at or after the barrier render the
    ///    new cells; readers pinned before it retry at the barrier
    ///    epoch, exactly like any overtaken pinned read.
    ///
    /// `plan: None` means "ask the column's automatic policies"
    /// ([`ReshardPolicy`] first, then [`AutoscalePolicy`]) — the
    /// post-commit path. `Some(plan)` executes that plan, gates
    /// bypassed.
    fn do_rebuild(
        &self,
        col: &ShardedColumn,
        plan: Option<RebuildPlan>,
        forced: bool,
    ) -> Option<(RebuildPlan, u64)> {
        let moved = self.do_rebuild_inner(col, plan, forced);
        if moved.is_some() {
            // A rebuild replaces the column's cells *without* publishing
            // an epoch, so the front generation (and its predicate cache)
            // must be force-re-rendered at the same epoch — a reader must
            // never keep being served off the pre-rebuild rendering
            // once the routing has swapped. Runs after every routing and
            // rebuild lock is released.
            self.registry.refresh_front(true);
        }
        moved
    }

    fn do_rebuild_inner(
        &self,
        col: &ShardedColumn,
        plan: Option<RebuildPlan>,
        forced: bool,
    ) -> Option<(RebuildPlan, u64)> {
        let mut meta = if forced {
            lock(&col.reshard)
        } else {
            match col.reshard.try_lock() {
                Ok(guard) => guard,
                Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => return None,
            }
        };
        let plan = match plan {
            Some(plan) => plan,
            None if forced => RebuildPlan::new(),
            None => self.policy_decides(col, &mut meta)?,
        };

        // How many times a *forced* rebuild re-ingests outside the
        // routing lock before falling back to an under-lock rebuild to
        // guarantee completion against sustained racing commits.
        const UNLOCKED_REBUILD_ATTEMPTS: usize = 2;

        for attempt in 0.. {
            // Quiescing makes the barrier epoch cover every batch that
            // ever staged into this generation (see
            // [`ShardedColumn::quiesce`] for the deadlock-avoidance
            // discipline of the wait).
            let mut slot = col.quiesce();
            let epoch = self.registry.epoch();
            meta.last_epoch = epoch;
            let mut parts = Vec::with_capacity(slot.cells.len());
            for cell in &slot.cells {
                cell.drain_to(epoch);
                let (_, spans) = cell
                    .spans_at(epoch)
                    .expect("no commit on this column can pass a held rebuild barrier");
                parts.push(spans);
            }
            let composed = if parts.len() == 1 {
                parts.pop().expect("one part")
            } else {
                superimpose(&parts)
            };
            // Resolve the plan's deltas against the *live* shape at the
            // barrier — the same resolution a replayed rebuild record
            // performs, against the same state, so recovery reproduces
            // the shape bit-identically.
            let spec = plan.spec.unwrap_or(slot.spec);
            let memory = plan.memory.unwrap_or(slot.memory);
            let shards = plan.shards.unwrap_or_else(|| slot.map.shards());
            let reshapes =
                spec != slot.spec || memory != slot.memory || shards != slot.map.shards();
            let map = ShardMap::balanced(&composed, slot.map.domain(), shards).ok()?;
            if !reshapes && map == slot.map {
                // Nothing to change: same shape, borders already optimal
                // (a single-shard rebalance always lands here — one
                // shard has no borders to move).
                return None;
            }
            // The column's publication stamp as of the barrier: any
            // commit touching the column during an unlocked rebuild
            // moves it, flagging the rebuilt cells stale.
            let column_epoch = lock(&col.stamp).epoch;
            let budgets = split_budget(memory, map.shards());
            let clips = reroute_clips(&composed, &map);
            let n_shards = map.shards();
            let rebuild = |epoch: u64| -> Vec<Arc<Cell>> {
                (0..n_shards)
                    .map(|i| {
                        let mut histogram = spec.build(budgets[i], col.seed.wrapping_add(i as u64));
                        replay_clips(&mut histogram, &clips, i);
                        Arc::new(Cell::with_applied(histogram, epoch))
                    })
                    .collect()
            };

            // The expensive part — O(rows) re-ingestion — runs *outside*
            // the routing lock whenever possible, so readers (and, via
            // the gate-held fallback render, the store-wide publication
            // gate) are never blocked behind it. Only a forced rebuild
            // that keeps losing the race re-ingests under the lock.
            if forced && attempt >= UNLOCKED_REBUILD_ATTEMPTS {
                *slot = Generation::install(map, spec, memory, rebuild(epoch));
                meta.count += 1;
                meta.judged_epoch = epoch;
                meta.judged_load = 0;
                return Some((plan, epoch));
            }
            drop(slot);
            let cells = rebuild(epoch);
            let mut slot = col.quiesce();
            if lock(&col.stamp).epoch != column_epoch {
                // A commit touched the column mid-rebuild: the cells are
                // stale. Forced calls recompute from the fresh state;
                // policy-triggered ones give up (the policy re-fires on
                // a later commit).
                drop(slot);
                if forced {
                    continue;
                }
                return None;
            }
            *slot = Generation::install(map, spec, memory, cells);
            meta.count += 1;
            // The new generation's load counters restart at zero; the
            // autoscale throughput window restarts with them.
            meta.judged_epoch = epoch;
            meta.judged_load = 0;
            return Some((plan, epoch));
        }
        unreachable!("the rebuild loop always returns")
    }
}

impl ColumnStore for ShardedCatalog {
    /// Registers `column`, sharded per `config.plan`, each shard holding
    /// a fresh `config.spec` histogram. Without a plan the column is one
    /// shard over the whole `i64` domain, which never clamps. The memory
    /// budget is divided across the shards with the remainder bytes
    /// spread over the first shards (a `k`-sharded column spends exactly
    /// the same total bytes as a one-shard one); the seed is salted per
    /// shard. A `config.reshard` or `config.autoscale` policy arms
    /// automatic rebuilds, judged on the live shard count (a column
    /// registered with one shard and grown later rebalances too).
    fn register(&self, column: &str, config: ColumnConfig) -> Result<(), CatalogError> {
        // `ShardPlan::new` is the single validation point: plans cannot
        // be constructed degenerate, so `plan` is valid here.
        let plan = match config.plan {
            Some(plan) => plan,
            None => ShardPlan::new(i64::MIN, i64::MAX, 1)?,
        };
        validate_policies(&config)?;
        let armed = config.reshard.is_some() || config.autoscale.is_some();
        let budgets = split_budget(config.memory, plan.shards());
        let inserted = self.registry.insert(column, || {
            let cells: Vec<Arc<Cell>> = budgets
                .iter()
                .enumerate()
                .map(|(i, &budget)| {
                    Arc::new(Cell::new(
                        config
                            .spec
                            .build(budget, config.seed.wrapping_add(i as u64)),
                    ))
                })
                .collect();
            let map = ShardMap::equal_width(plan.domain(), plan.shards())
                .expect("plan validated by ShardPlan::new");
            ShardedColumn {
                name: column.to_string(),
                spec: config.spec,
                plan,
                seed: config.seed,
                armed: AtomicBool::new(armed),
                generation: RwLock::new(Generation::install(
                    map,
                    config.spec,
                    config.memory,
                    cells,
                )),
                clamped: AtomicU64::new(0),
                reshard: Mutex::new(ReshardMeta {
                    policy: config.reshard,
                    autoscale: config.autoscale,
                    ..ReshardMeta::default()
                }),
                stamp: Mutex::new(ColumnStamp::default()),
            }
        });
        if inserted.is_ok() && armed {
            self.armed.store(true, Ordering::Relaxed);
        }
        inserted
    }

    fn columns(&self) -> Vec<String> {
        self.registry.names()
    }

    fn contains(&self, column: &str) -> bool {
        self.registry.contains(column)
    }

    fn spec(&self, column: &str) -> Result<AlgoSpec, CatalogError> {
        Ok(self.registry.get(column)?.spec)
    }

    fn commit(&self, batch: WriteBatch) -> Result<u64, CatalogError> {
        Ok(self.commit_judged(batch)?.0)
    }

    fn apply(&self, column: &str, batch: &[UpdateOp]) -> Result<u64, CatalogError> {
        Ok(self.apply_judged(column, batch)?.0)
    }

    /// Drains every shard of `column` up to the current published epoch.
    /// Commits drain on the write path, so this finds nothing to apply
    /// unless a commit is still settling.
    fn flush(&self, column: &str) -> Result<(), CatalogError> {
        let col = self.registry.get(column)?;
        let epoch = self.registry.epoch();
        for cell in &col.generation().cells {
            cell.drain_to(epoch);
        }
        Ok(())
    }

    fn snapshot(&self, column: &str) -> Result<Snapshot, CatalogError> {
        self.registry.snapshot(column)
    }

    fn snapshot_set(&self, columns: &[&str]) -> Result<SnapshotSet, CatalogError> {
        self.registry.snapshot_set(columns)
    }

    fn checkpoint(&self, column: &str) -> Result<u64, CatalogError> {
        self.registry.checkpoint(column)
    }

    fn epoch(&self) -> u64 {
        self.registry.epoch()
    }

    /// Forces a re-shard of `column`: drains it to a barrier epoch,
    /// recomputes equal-load borders from the composed CDF, and swaps
    /// the routing atomically. Returns `true` if the borders moved
    /// (`false` when they were already optimal or the column has a
    /// single shard). Bypasses the [`ReshardPolicy`] gates. A thin
    /// wrapper over [`ColumnStore::rebuild`] with the all-`None` plan.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn reshard(&self, column: &str) -> Result<bool, CatalogError> {
        self.rebuild(column, RebuildPlan::new())
    }

    /// Executes `plan` against `column` behind the epoch barrier: drains
    /// to the barrier, composes the column's full histogram, resolves the
    /// plan's deltas against the live shape, and swaps in a generation
    /// with the target shard count, algorithm and memory budget — total
    /// mass conserved exactly (the re-ingestion's
    /// largest-remainder contract). Returns `true`
    /// if the generation was swapped (`false` when the plan resolves to
    /// the current shape with optimal borders).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent;
    /// [`CatalogError::InvalidShardPlan`] if `plan.shards == Some(0)`.
    fn rebuild(&self, column: &str, plan: RebuildPlan) -> Result<bool, CatalogError> {
        if plan.shards == Some(0) {
            return Err(CatalogError::InvalidShardPlan(
                "need at least one shard (shards == 0)".into(),
            ));
        }
        let col = self.registry.get(column)?;
        Ok(self.do_rebuild(&col, Some(plan), true).is_some())
    }

    /// The live shape ([`ShardedCatalog::shape`]) behind the object-safe
    /// trait surface.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn column_shape(&self, column: &str) -> Result<Option<ColumnShape>, CatalogError> {
        self.shape(column).map(Some)
    }

    /// How many times the column's generation has been swapped by a
    /// rebuild (border moves and shape changes).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn rebuild_seq(&self, column: &str) -> Result<u64, CatalogError> {
        Ok(lock(&self.registry.get(column)?.reshard).count)
    }

    /// Ops routed into each shard since the current shard map was
    /// installed (reset by every re-shard) — the load the
    /// [`ReshardPolicy`] judges.
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn shard_load(&self, column: &str) -> Result<Vec<u64>, CatalogError> {
        let generation = self.registry.get(column)?.generation();
        Ok(generation
            .load
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect())
    }

    /// How many ops carried a value outside the registered domain and
    /// were clamped into an edge shard (cumulative across re-shards).
    ///
    /// # Errors
    /// [`CatalogError::UnknownColumn`] if absent.
    fn clamped_ops(&self, column: &str) -> Result<u64, CatalogError> {
        Ok(self.registry.get(column)?.clamped.load(Ordering::Relaxed))
    }

    fn estimate_range(&self, column: &str, a: i64, b: i64) -> Result<f64, CatalogError> {
        self.registry.estimate_range(column, a, b)
    }

    fn estimate_eq(&self, column: &str, v: i64) -> Result<f64, CatalogError> {
        self.registry.estimate_eq(column, v)
    }

    fn total_count(&self, column: &str) -> Result<f64, CatalogError> {
        self.registry.total_count(column)
    }

    fn read_stats(&self) -> crate::read::ReadStats {
        self.registry.read_stats()
    }
}

impl fmt::Debug for ShardedCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCatalog")
            .field("columns", &self.columns())
            .field("epoch", &self.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_core::ReadHistogram;

    fn inserts(range: std::ops::Range<i64>) -> Vec<UpdateOp> {
        range.map(UpdateOp::Insert).collect()
    }

    fn config(spec: AlgoSpec, kb: f64, seed: u64, plan: ShardPlan) -> ColumnConfig {
        ColumnConfig::new(spec, MemoryBudget::from_kb(kb))
            .with_seed(seed)
            .with_plan(plan)
    }

    #[test]
    fn degenerate_plans_are_rejected() {
        assert!(matches!(
            ShardPlan::new(0, 9, 0),
            Err(CatalogError::InvalidShardPlan(_))
        ));
        assert!(matches!(
            ShardPlan::new(10, 9, 4),
            Err(CatalogError::InvalidShardPlan(_))
        ));
        let msg = ShardPlan::new(10, 9, 4).unwrap_err().to_string();
        assert!(msg.contains("lo > hi"), "{msg}");
        // The store refuses a config with a degenerate re-shard policy.
        let cat = ShardedCatalog::new();
        let bad_policy = ReshardPolicy {
            skew_threshold: 0.5,
            ..ReshardPolicy::default()
        };
        assert!(matches!(
            cat.register(
                "a",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
                    .with_plan(ShardPlan::new(0, 9, 2).unwrap())
                    .with_reshard(bad_policy)
            ),
            Err(CatalogError::InvalidShardPlan(_))
        ));
        // Private fields: `ShardPlan::new` is the only constructor, so a
        // degenerate plan cannot reach a store at all. Accessors echo
        // the validated values.
        let plan = ShardPlan::new(-5, 5, 3).unwrap();
        assert_eq!(plan.domain(), (-5, 5));
        assert_eq!(plan.shards(), 3);
    }

    #[test]
    fn routing_partitions_the_domain() {
        let plan = ShardPlan::new(0, 999, 4).unwrap();
        assert_eq!(plan.route(0), 0);
        assert_eq!(plan.route(249), 0);
        assert_eq!(plan.route(250), 1);
        assert_eq!(plan.route(999), 3);
        // Outside the domain: clamped to the edge shards.
        assert_eq!(plan.route(-5), 0);
        assert_eq!(plan.route(10_000), 3);
        // Ranges tile the domain exactly.
        let mut next = 0i64;
        for i in 0..4 {
            let (a, b) = plan.shard_range(i);
            assert_eq!(
                a,
                next,
                "shard {i} starts where {} ended",
                i.wrapping_sub(1)
            );
            assert!(b >= a);
            next = b + 1;
        }
        assert_eq!(next, 1000);
        // Every value routes into its own shard's range.
        for v in 0..1000 {
            let s = plan.route(v);
            let (a, b) = plan.shard_range(s);
            assert!((a..=b).contains(&v), "{v} outside shard {s} [{a},{b}]");
        }
    }

    #[test]
    fn full_i64_domain_does_not_overflow() {
        let plan = ShardPlan::new(i64::MIN, i64::MAX, 4).unwrap();
        assert_eq!(plan.route(i64::MIN), 0);
        assert_eq!(plan.route(-1), 1);
        assert_eq!(plan.route(0), 2);
        assert_eq!(plan.route(i64::MAX), 3);
        let mut next = i64::MIN;
        for i in 0..4 {
            let (a, b) = plan.shard_range(i);
            assert_eq!(a, next);
            assert_eq!(plan.route(a), i);
            assert_eq!(plan.route(b), i);
            next = b.wrapping_add(1);
        }
        assert_eq!(plan.shard_range(3).1, i64::MAX);
    }

    #[test]
    fn uneven_domains_still_tile() {
        let plan = ShardPlan::new(-7, 9, 3).unwrap(); // width 17, not divisible
        let mut covered = 0i64;
        for i in 0..3 {
            let (a, b) = plan.shard_range(i);
            covered += b - a + 1;
            for v in a..=b {
                assert_eq!(plan.route(v), i);
            }
        }
        assert_eq!(covered, 17);
    }

    #[test]
    fn shard_map_equal_width_matches_plan_routing() {
        for (lo, hi, k) in [
            (0i64, 999, 4),
            (-7, 9, 3),
            (0, 3, 16),
            (i64::MIN, i64::MAX, 8),
        ] {
            let plan = ShardPlan::new(lo, hi, k).unwrap();
            let map = ShardMap::equal_width((lo, hi), k).unwrap();
            assert_eq!(map.domain(), (lo, hi));
            assert_eq!(map.shards(), k);
            for i in 0..k {
                assert_eq!(map.shard_range(i), plan.shard_range(i), "shard {i}");
            }
            let mid = ((lo as i128 + hi as i128) / 2) as i64;
            let probes = [lo, hi, mid, lo.saturating_add(1), hi.saturating_sub(1)];
            for v in probes {
                assert_eq!(map.route(v), plan.route(v), "route({v})");
            }
        }
    }

    #[test]
    fn shard_map_from_cuts_validates() {
        // First cut must open the domain.
        assert!(ShardMap::from_cuts((0, 9), vec![1, 5]).is_err());
        // Cuts must be ordered.
        assert!(ShardMap::from_cuts((0, 9), vec![0, 7, 4]).is_err());
        // Cuts may sit at most one past the domain end (trailing empties).
        assert!(ShardMap::from_cuts((0, 9), vec![0, 11]).is_err());
        assert!(ShardMap::from_cuts((0, 9), vec![0, 10]).is_ok());
        // Inverted domains and empty cut lists are rejected.
        assert!(ShardMap::from_cuts((9, 0), vec![9]).is_err());
        assert!(ShardMap::from_cuts((0, 9), vec![]).is_err());
        // i64::MIN may only appear as the opening cut.
        assert!(ShardMap::from_cuts((i64::MIN, 5), vec![i64::MIN, i64::MIN]).is_err());
        // Duplicate interior cuts are empty shards; routing skips them.
        let map = ShardMap::from_cuts((0, 9), vec![0, 5, 5, 8]).unwrap();
        assert_eq!(map.shard_range(1), (5, 4)); // empty, inverted
        assert_eq!(map.route(5), 2);
        assert_eq!(map.route(4), 0);
        assert_eq!(map.route(8), 3);
        assert_eq!(map.starts(), &[0, 5, 5, 8]);
    }

    #[test]
    fn balanced_cuts_follow_the_mass() {
        // All mass on [0, 99] of a [0, 999] domain: every cut lands in
        // the hot range, leaving at most the last shard to cover the
        // cold tail.
        let spans = vec![BucketSpan::new(0.0, 100.0, 1000.0)];
        let map = ShardMap::balanced(&spans, (0, 999), 4).unwrap();
        assert_eq!(map.starts()[0], 0);
        assert_eq!(map.starts()[1], 25);
        assert_eq!(map.starts()[2], 50);
        assert_eq!(map.starts()[3], 75);
        // No mass: equal-width fallback.
        let flat = ShardMap::balanced(&[], (0, 999), 4).unwrap();
        assert_eq!(flat, ShardMap::equal_width((0, 999), 4).unwrap());
        // Fewer values than shards: equal-width fallback too.
        let tiny = ShardMap::balanced(&spans, (0, 2), 8).unwrap();
        assert_eq!(tiny, ShardMap::equal_width((0, 2), 8).unwrap());
    }

    #[test]
    fn split_budget_spends_every_byte() {
        // The old truncated split ran 16 shards on 992 of 1000 bytes.
        let split = split_budget(MemoryBudget::from_bytes(1000), 16);
        assert_eq!(split.iter().map(|m| m.bytes()).sum::<usize>(), 1000);
        assert_eq!(split.iter().filter(|m| m.bytes() == 63).count(), 8);
        assert_eq!(split.iter().filter(|m| m.bytes() == 62).count(), 8);
        // Exact division is untouched.
        let even = split_budget(MemoryBudget::from_bytes(1024), 8);
        assert!(even.iter().all(|m| m.bytes() == 128));
        // Degenerate budgets floor each shard at one byte.
        let tiny = split_budget(MemoryBudget::from_bytes(3), 8);
        assert!(tiny.iter().all(|m| m.bytes() == 1));
    }

    /// Expands shard `shard`'s clips into the synthesized values (with
    /// multiplicity) a rebuild would ingest.
    fn expand(clips: &[RerouteClip], shard: usize) -> Vec<i64> {
        let mut values = Vec::new();
        for clip in clips.iter().filter(|c| c.shard == shard) {
            spread_inserts(clip.vlo, clip.vhi, clip.count, &mut |v, n| {
                values.extend(std::iter::repeat_n(v, n as usize));
            });
        }
        values
    }

    #[test]
    fn reroute_conserves_mass_exactly() {
        let composed = vec![
            BucketSpan::new(0.0, 40.0, 123.0),
            BucketSpan::new(40.0, 100.0, 7.0),
            BucketSpan::new(100.0, 200.0, 870.0),
        ];
        let map = ShardMap::balanced(&composed, (0, 199), 4).unwrap();
        let clips = reroute_clips(&composed, &map);
        let total: u64 = clips.iter().map(|c| c.count).sum();
        assert_eq!(total, 1000);
        // Every synthesized insertion lands in its shard's range.
        let mut expanded = 0;
        for i in 0..4 {
            let (a, b) = map.shard_range(i);
            let values = expand(&clips, i);
            expanded += values.len();
            for v in values {
                assert!((a..=b).contains(&v), "{v} outside shard {i} [{a},{b}]");
            }
        }
        assert_eq!(expanded, 1000, "spread must emit exactly the clip counts");
    }

    #[test]
    fn reroute_keeps_out_of_domain_mass_in_edge_shards() {
        // Mass below and above the domain (clamped-in values) survives
        // the re-route, attached to the first/last live shards.
        let composed = vec![
            BucketSpan::new(-50.0, -40.0, 10.0),
            BucketSpan::new(0.0, 100.0, 80.0),
            BucketSpan::new(150.0, 160.0, 10.0),
        ];
        let map = ShardMap::equal_width((0, 99), 2).unwrap();
        let clips = reroute_clips(&composed, &map);
        let total: u64 = clips.iter().map(|c| c.count).sum();
        assert_eq!(total, 100);
        assert!(
            expand(&clips, 0).iter().any(|&v| v < 0),
            "out-of-domain low mass kept"
        );
        assert!(
            expand(&clips, 1).iter().any(|&v| v > 99),
            "out-of-domain high mass kept"
        );
    }

    #[test]
    fn reroute_keeps_below_domain_mass_when_first_shard_is_empty() {
        // An empty *first* shard must not swallow the -infinity window:
        // below-domain mass attaches to the first live shard, exactly
        // like the above-domain mass attaches to the last live one.
        let map = ShardMap::from_cuts((0, 9), vec![0, 0, 5]).unwrap(); // shard 0 empty
        let composed = vec![
            BucketSpan::new(-50.0, -40.0, 10.0),
            BucketSpan::new(0.0, 10.0, 20.0),
        ];
        let clips = reroute_clips(&composed, &map);
        let total: u64 = clips.iter().map(|c| c.count).sum();
        assert_eq!(total, 30, "below-domain mass must survive the re-route");
        assert!(expand(&clips, 0).is_empty(), "empty shard gets nothing");
        assert!(
            expand(&clips, 1).iter().any(|&v| v < 0),
            "below-domain values land in the first live shard"
        );
    }

    #[test]
    fn replay_clips_streams_in_bounded_chunks() {
        // A rebuild far larger than one chunk must ingest every
        // insertion (the streamed path replaces materializing O(rows)
        // ops at once).
        let composed = vec![BucketSpan::new(0.0, 50.0, (3 * RESHARD_CHUNK + 17) as f64)];
        let map = ShardMap::equal_width((0, 99), 2).unwrap();
        let clips = reroute_clips(&composed, &map);
        let mut histogram = AlgoSpec::Dc.build(MemoryBudget::from_kb(0.5), 0);
        replay_clips(&mut histogram, &clips, 0);
        let total: f64 = histogram.as_read().total_count();
        assert!((total - (3 * RESHARD_CHUNK + 17) as f64).abs() < 1e-6);
    }

    #[test]
    fn sharded_round_trip_and_caching() {
        let cat = ShardedCatalog::new();
        let plan = ShardPlan::new(0, 4999, 8).unwrap();
        cat.register("a", config(AlgoSpec::Dado, 2.0, 1, plan))
            .unwrap();
        assert_eq!(
            cat.register("a", config(AlgoSpec::Dc, 1.0, 1, plan)),
            Err(CatalogError::DuplicateColumn("a".into()))
        );
        let cp = cat.apply("a", &inserts(0..5000)).unwrap();
        assert_eq!(cp, 1);
        let s1 = cat.snapshot("a").unwrap();
        assert_eq!(s1.epoch(), 1);
        assert_eq!(s1.checkpoint(), 1);
        assert_eq!(s1.updates(), 5000);
        assert_eq!(s1.label(), "DADO");
        assert!((s1.total_count() - 5000.0).abs() < 1e-9);
        assert!((s1.estimate_range(0, 4999) - 5000.0).abs() / 5000.0 < 0.02);
        // Cached between writes, invalidated by a write.
        let s2 = cat.snapshot("a").unwrap();
        assert!(s1.same_rendering(&s2), "cached between writes");
        cat.apply("a", &inserts(0..10)).unwrap();
        let s3 = cat.snapshot("a").unwrap();
        assert_eq!(s3.checkpoint(), 2);
        assert_eq!(s3.epoch(), 2);
        assert!((s3.total_count() - 5010.0).abs() < 1e-9);
        // The old snapshot still reads consistently.
        assert!((s1.total_count() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn shard_aligned_ranges_are_exact() {
        // Mass conservation per shard makes estimates over whole shard
        // subranges *exact* — sharding strictly sharpens those reads.
        let cat = ShardedCatalog::new();
        let plan = ShardPlan::new(0, 99, 5).unwrap();
        cat.register("a", config(AlgoSpec::Dc, 0.25, 3, plan))
            .unwrap();
        let batch: Vec<UpdateOp> = (0..3000).map(|i| UpdateOp::Insert((i * 7) % 100)).collect();
        cat.apply("a", &batch).unwrap();
        let mut counts = [0f64; 100];
        for &op in &batch {
            if let UpdateOp::Insert(v) = op {
                counts[v as usize] += 1.0;
            }
        }
        for i in 0..5 {
            let (a, b) = plan.shard_range(i);
            let exact: f64 = (a..=b).map(|v| counts[v as usize]).sum();
            let est = cat.estimate_range("a", a, b).unwrap();
            assert!(
                (est - exact).abs() < 1e-6,
                "shard {i} [{a},{b}]: est {est} != exact {exact}"
            );
        }
    }

    /// A plan-less column spans all of `i64`, so its histograms meet
    /// the extreme values: their unit upper edge must not overflow.
    #[test]
    fn extreme_values_keep_plan_less_columns_finite() {
        for spec in [AlgoSpec::Dc, AlgoSpec::Dvo, AlgoSpec::Dado] {
            for extremes_first in [false, true] {
                let cat = ShardedCatalog::new();
                cat.register(
                    "c",
                    ColumnConfig::new(spec, MemoryBudget::from_kb(1.0)).with_seed(2),
                )
                .unwrap();
                let extremes = [UpdateOp::Insert(i64::MAX), UpdateOp::Insert(i64::MIN)];
                let ordinary: Vec<UpdateOp> =
                    (0..400).map(|i| UpdateOp::Insert(i * 37 % 1000)).collect();
                if extremes_first {
                    cat.apply("c", &extremes).unwrap();
                }
                cat.apply("c", &ordinary).unwrap();
                if !extremes_first {
                    cat.apply("c", &extremes).unwrap();
                }
                let snap = cat.snapshot("c").unwrap();
                let total = snap.total_count();
                assert!((total - 402.0).abs() < 1e-9, "{spec}: total {total}");
                for span in snap.spans() {
                    assert!(span.lo <= span.hi, "{spec}: inverted {span:?}");
                    assert!(span.count.is_finite(), "{spec}: {span:?}");
                }
            }
        }
    }

    #[test]
    fn plan_less_columns_are_one_full_domain_shard() {
        let cat = ShardedCatalog::new();
        let plain = ColumnConfig::new(AlgoSpec::Dado, MemoryBudget::from_kb(1.0)).with_seed(1);
        cat.register("a", plain).unwrap();
        assert_eq!(
            cat.register("a", plain),
            Err(CatalogError::DuplicateColumn("a".into()))
        );
        assert_eq!(
            cat.shape("a").unwrap(),
            ColumnShape {
                spec: AlgoSpec::Dado,
                memory: MemoryBudget::from_kb(1.0),
                shards: 1,
                domain: (i64::MIN, i64::MAX),
            }
        );
        assert_eq!(
            cat.plan("a").unwrap(),
            ShardPlan::new(i64::MIN, i64::MAX, 1).unwrap()
        );
        assert_eq!(cat.apply("a", &inserts(0..5000)).unwrap(), 1);
        let s1 = cat.snapshot("a").unwrap();
        assert_eq!(s1.epoch(), 1);
        assert_eq!(s1.checkpoint(), 1);
        assert_eq!(s1.updates(), 5000);
        assert_eq!(s1.column(), "a");
        assert_eq!(s1.label(), "DADO");
        assert!((s1.total_count() - 5000.0).abs() < 1e-9);
        assert!((s1.estimate_range(0, 4999) - 5000.0).abs() / 5000.0 < 0.02);
        // The one shard is the bare histogram: its spans pass through
        // composition untouched.
        let mut bare = AlgoSpec::Dado.build(MemoryBudget::from_kb(1.0), 1);
        bare.apply_slice(&inserts(0..5000));
        assert_eq!(s1.spans(), bare.as_read().spans());
        // Cached between writes, invalidated by a write; the old
        // snapshot keeps reading its epoch.
        assert!(s1.same_rendering(&cat.snapshot("a").unwrap()));
        cat.apply("a", &inserts(0..10)).unwrap();
        let s2 = cat.snapshot("a").unwrap();
        assert!(!s1.same_rendering(&s2), "invalidated by write");
        assert_eq!((s2.epoch(), s2.checkpoint()), (2, 2));
        assert!((s1.total_count() - 5000.0).abs() < 1e-9);
        assert!((s2.total_count() - 5010.0).abs() < 1e-9);
        // The full domain never clamps, however far out a value lies.
        cat.apply(
            "a",
            &[UpdateOp::Insert(-(1 << 40)), UpdateOp::Insert(1 << 40)],
        )
        .unwrap();
        assert_eq!(cat.clamped_ops("a").unwrap(), 0);
        assert_eq!(cat.shard_load("a").unwrap(), vec![5012]);
        // One shard has no borders to move.
        assert!(!cat.reshard("a").unwrap());
    }

    #[test]
    fn cross_column_commits_are_atomic_and_epoch_stamped() {
        let cat = ShardedCatalog::new();
        let plain = ColumnConfig::new(AlgoSpec::Dado, MemoryBudget::from_kb(1.0)).with_seed(1);
        cat.register("a", plain).unwrap();
        cat.register(
            "b",
            config(AlgoSpec::Dc, 1.0, 1, ShardPlan::new(0, 199, 4).unwrap()),
        )
        .unwrap();
        let mut batch = WriteBatch::new();
        batch.extend("a", inserts(0..100));
        batch.extend("b", inserts(0..200));
        assert_eq!(cat.commit(batch).unwrap(), 1);
        assert_eq!(cat.epoch(), 1);
        let set = cat.snapshot_set(&["a", "b"]).unwrap();
        assert_eq!(set.epoch(), 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("a").unwrap().epoch(), 1);
        assert_eq!(set.get("b").unwrap().epoch(), 1);
        assert!((set.get("a").unwrap().total_count() - 100.0).abs() < 1e-9);
        assert!((set.get("b").unwrap().total_count() - 200.0).abs() < 1e-9);
        assert_eq!(set.columns().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn commit_rejects_unknown_columns_without_side_effects() {
        let cat = ShardedCatalog::new();
        cat.register(
            "a",
            config(AlgoSpec::Dado, 1.0, 1, ShardPlan::new(0, 99, 2).unwrap()),
        )
        .unwrap();
        let mut batch = WriteBatch::new();
        batch.extend("a", inserts(0..50));
        batch.insert("ghost", 1);
        assert_eq!(
            cat.commit(batch).unwrap_err(),
            CatalogError::UnknownColumn("ghost".into())
        );
        // Nothing was staged or published.
        assert_eq!(cat.epoch(), 0);
        assert_eq!(cat.checkpoint("a").unwrap(), 0);
        assert_eq!(cat.snapshot("a").unwrap().total_count(), 0.0);
        assert!(cat.shard_load("a").unwrap().iter().all(|&l| l == 0));
    }

    #[test]
    fn mixed_specs_per_column() {
        let cat = ShardedCatalog::new();
        let memory = MemoryBudget::from_kb(0.5);
        for (name, spec) in [
            ("dc", AlgoSpec::Dc),
            ("svo", AlgoSpec::VOptimal),
            ("ac", AlgoSpec::Ac { disk_factor: 20 }),
        ] {
            cat.register(name, ColumnConfig::new(spec, memory).with_seed(7))
                .unwrap();
            cat.apply(name, &inserts(0..2000)).unwrap();
        }
        assert_eq!(cat.columns(), ["ac", "dc", "svo"]);
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.spec("svo").unwrap(), AlgoSpec::VOptimal);
        for name in ["dc", "svo", "ac"] {
            let est = cat.estimate_range(name, 0, 1999).unwrap();
            assert!((est - 2000.0).abs() / 2000.0 < 0.05, "{name}: {est}");
            assert_eq!(cat.checkpoint(name).unwrap(), 1);
        }
        // Three applies on three columns: three store epochs.
        assert_eq!(cat.epoch(), 3);
    }

    #[test]
    fn cross_shard_commits_are_never_torn() {
        // A batch spread over every shard becomes visible in one epoch:
        // any snapshot holds a whole multiple of the per-batch mass.
        let cat = ShardedCatalog::new();
        let plan = ShardPlan::new(0, 799, 8).unwrap();
        cat.register("a", config(AlgoSpec::Dc, 1.0, 1, plan))
            .unwrap();
        for round in 0..5i64 {
            // One value per shard (100-wide shards).
            let batch: Vec<UpdateOp> = (0..8).map(|s| UpdateOp::Insert(s * 100 + round)).collect();
            cat.apply("a", &batch).unwrap();
            let snap = cat.snapshot("a").unwrap();
            let total = snap.total_count();
            assert!(
                (total / 8.0 - (total / 8.0).round()).abs() < 1e-9,
                "torn batch visible: total {total}"
            );
        }
    }

    #[test]
    fn reshard_moves_borders_preserves_mass_and_counters() {
        let cat = ShardedCatalog::new();
        let plan = ShardPlan::new(0, 999, 4).unwrap();
        cat.register("a", config(AlgoSpec::Dc, 1.0, 1, plan))
            .unwrap();
        // Heavy skew: every value in the first (equal-width) shard.
        let batch: Vec<UpdateOp> = (0..4000).map(|i| UpdateOp::Insert(i % 250)).collect();
        cat.apply("a", &batch).unwrap();
        let loads = cat.shard_load("a").unwrap();
        assert_eq!(loads, vec![4000, 0, 0, 0]);
        assert_eq!(
            cat.shard_map("a").unwrap(),
            ShardMap::equal_width((0, 999), 4).unwrap()
        );

        assert!(cat.reshard("a").unwrap(), "skewed borders must move");
        assert_eq!(cat.rebuild_seq("a").unwrap(), 1);
        let map = cat.shard_map("a").unwrap();
        assert_ne!(map, ShardMap::equal_width((0, 999), 4).unwrap());
        // Load counters reset with the new generation.
        assert!(cat.shard_load("a").unwrap().iter().all(|&l| l == 0));
        // Mass is conserved exactly; the epoch clock did not move.
        let snap = cat.snapshot("a").unwrap();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.checkpoint(), 1);
        assert!((snap.total_count() - 4000.0).abs() < 1e-9);
        // The same skewed stream now spreads across shards.
        cat.apply("a", &batch).unwrap();
        let loads = cat.shard_load("a").unwrap();
        let max = *loads.iter().max().unwrap();
        assert!(
            max < 4000,
            "re-balanced borders must split the hot range: {loads:?}"
        );
        let snap = cat.snapshot("a").unwrap();
        assert!((snap.total_count() - 8000.0).abs() < 1e-9);
        // Re-sharding an already balanced column is a no-op.
        let before = cat.shard_map("a").unwrap();
        if !cat.reshard("a").unwrap() {
            assert_eq!(cat.shard_map("a").unwrap(), before);
        }
    }

    #[test]
    fn unknown_columns_error() {
        let cat = ShardedCatalog::new();
        assert_eq!(
            cat.apply("ghost", &[]).unwrap_err(),
            CatalogError::UnknownColumn("ghost".into())
        );
        assert!(cat.snapshot("ghost").is_err());
        assert!(cat.snapshot_set(&["ghost"]).is_err());
        assert!(cat.flush("ghost").is_err());
        assert!(cat.estimate_eq("ghost", 1).is_err());
        assert!(cat.plan("ghost").is_err());
        assert!(cat.shard_map("ghost").is_err());
        assert!(cat.shard_load("ghost").is_err());
        assert!(cat.clamped_ops("ghost").is_err());
        assert!(cat.reshard("ghost").is_err());
        assert!(cat.rebuild_seq("ghost").is_err());
        assert!(!cat.contains("ghost"));
        assert!(cat.is_empty());
        let msg = CatalogError::UnknownColumn("ghost".into()).to_string();
        assert!(msg.contains("ghost"));
    }

    #[test]
    fn empty_batches_advance_checkpoints() {
        let cat = ShardedCatalog::new();
        let plan = ShardPlan::new(0, 9, 2).unwrap();
        cat.register("a", config(AlgoSpec::EquiDepth, 0.25, 0, plan))
            .unwrap();
        assert_eq!(cat.apply("a", &[]).unwrap(), 1);
        assert_eq!(cat.apply("a", &[]).unwrap(), 2);
        assert_eq!(cat.checkpoint("a").unwrap(), 2);
        assert_eq!(cat.snapshot("a").unwrap().num_buckets(), 0);
        assert_eq!(cat.snapshot("a").unwrap().epoch(), 2);
    }
}
