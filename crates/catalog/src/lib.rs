//! The estimation *serving layer*: one registry for every histogram
//! algorithm in the workspace, one object-safe [`ColumnStore`] trait
//! over one store design, and transactional epoch-stamped writes — the
//! deployment the paper argues for (Section 1: the optimizer keeps
//! reading size estimates while the data set, and hence the histogram,
//! evolves underneath it), hardened for multi-column, multi-shard
//! consistency.
//!
//! * [`spec`] — [`AlgoSpec`], the unified configuration enum covering the
//!   dynamic histograms (DC, DVO, DADO, AC), the static baselines
//!   (Equi-Width, Equi-Depth, Compressed) and the paper's static
//!   contributions (V-Optimal, SADO, SSBM). `AlgoSpec::build` turns a
//!   spec plus a [`dh_core::MemoryBudget`] into a ready-to-stream
//!   [`dh_core::BoxedHistogram`]; `FromStr`/`Display` round-trip the
//!   paper's legend labels so CLIs can select algorithms by name.
//! * [`adapter`] — [`StaticRebuild`], the wrapper that gives
//!   scan-and-rebuild static histograms the same maintained-in-place
//!   [`dh_core::DynHistogram`] face as the dynamic ones.
//! * [`store`] — the [`ColumnStore`] trait (register / commit / apply /
//!   snapshot / estimate, object-safe), [`ColumnConfig`], the
//!   epoch-pinned [`Snapshot`] every store serves, and [`SnapshotSet`] —
//!   a consistent multi-column view pinned to one epoch. Estimation code
//!   is written once against `&dyn ColumnStore`.
//! * [`txn`] — [`WriteBatch`] and the two-phase, epoch-stamped commit
//!   protocol (stage per cell, one atomic epoch publication per store)
//!   that guarantees readers never observe a torn batch — across shards
//!   *and* across columns.
//! * [`sharded`] — [`ShardedCatalog`], the store: a column's value
//!   domain partitioned across independently locked shards, with
//!   snapshots composed back into one histogram through
//!   `dh_distributed`'s lossless superposition — multi-writer ingestion
//!   without a global lock. A column registered without a [`ShardPlan`]
//!   is one shard over the whole `i64` domain, which superposition
//!   passes through unchanged. Shard
//!   borders adapt to the routed load: a [`ReshardPolicy`] (or an
//!   explicit [`ColumnStore::reshard`]) rebuilds the live [`ShardMap`]
//!   from the composed CDF behind the epoch barrier, so a skewed update
//!   stream cannot pile the ingestion onto one hot shard. The border
//!   move is one instance of the elastic rebuild plane:
//!   [`ColumnStore::rebuild`] executes a [`RebuildPlan`] of deltas —
//!   grow/shrink the shard count, migrate the algorithm online,
//!   re-budget the memory — behind the same barrier with exact mass
//!   conservation, and an
//!   [`AutoscalePolicy`] drives the shard count from the load on its
//!   own (see `docs/ELASTIC.md`; the live shape is
//!   [`ColumnStore::column_shape`]).
//! * [`durable`] — [`DurableStore`], crash durability as a decorator
//!   over the store: every publication appended to `dh_wal`'s
//!   epoch changelog, checkpoints on an epoch cadence,
//!   [`DurableStore::open`] replaying the store back (torn final record
//!   tolerated, corruption typed), and a ring of retained generations
//!   serving past-epoch [`ColumnStore::snapshot_set_at`] reads — see
//!   `docs/DURABILITY.md`.
//! * [`replay`] — [`Replayer`], the one rule for replaying that
//!   changelog onto a store, shared by recovery, read replicas and site
//!   catch-up.
//!
//! This crate (not `dh_core`) hosts `AlgoSpec` because building AC and
//! the static baselines requires `dh_sample` and `dh_static`, which both
//! sit *above* `dh_core` in the crate DAG.
//!
//! # Example: mixed algorithms behind one API
//!
//! ```
//! use dh_catalog::{AlgoSpec, ColumnConfig, ColumnStore, ShardedCatalog};
//! use dh_core::{MemoryBudget, ReadHistogram, UpdateOp};
//!
//! let catalog = ShardedCatalog::new();
//! let memory = MemoryBudget::from_kb(1.0);
//! catalog
//!     .register("orders.amount", ColumnConfig::new(AlgoSpec::Dc, memory).with_seed(1))
//!     .unwrap();
//! catalog
//!     .register("orders.qty", ColumnConfig::new("SVO".parse().unwrap(), memory))
//!     .unwrap();
//!
//! let batch: Vec<UpdateOp> = (0..4000).map(|i| UpdateOp::Insert(i % 120)).collect();
//! catalog.apply("orders.amount", &batch).unwrap();
//! catalog.apply("orders.qty", &batch).unwrap();
//!
//! let snap = catalog.snapshot("orders.amount").unwrap();
//! assert_eq!(snap.checkpoint(), 1);
//! assert!(snap.estimate_range(0, 119) > 3900.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapter;
pub mod durable;
pub mod global;
pub mod read;
pub mod replay;
pub mod sharded;
pub mod spec;
pub mod store;
pub mod txn;

pub use adapter::StaticRebuild;
pub use durable::{DurableError, DurableOptions, DurableStore, StoreKind};
pub use read::ReadStats;
pub use replay::{Replayed, Replayer};
pub use sharded::{
    AutoscalePolicy, ColumnShape, RebuildPlan, ReshardPolicy, ShardMap, ShardPlan, ShardedCatalog,
};
pub use spec::{AlgoSpec, ParseAlgoSpecError};
pub use store::{CatalogError, ColumnConfig, ColumnStore, Snapshot, SnapshotSet};
pub use txn::WriteBatch;
