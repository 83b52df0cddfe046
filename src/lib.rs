//! # dynamic-histograms
//!
//! A faithful, from-scratch Rust reproduction of *Dynamic Histograms:
//! Capturing Evolving Data Sets* (Donjerkovic, Ioannidis & Ramakrishnan,
//! ICDE 2000).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`core`] — the histogram framework and the paper's dynamic histograms
//!   (DC, DVO, DADO).
//! * [`statics`] — static histograms: Equi-Width, Equi-Depth, Compressed,
//!   V-Optimal, SADO and SSBM.
//! * [`sample`] — reservoir sampling and the Approximate Compressed (AC)
//!   baseline of Gibbons–Matias–Poosala.
//! * [`distributed`] — global histograms in a shared-nothing environment
//!   (Section 8).
//! * [`gen`] — the parameterized synthetic data generator and update
//!   workloads of the paper's evaluation.
//! * [`stats`] — chi-square machinery, KS statistic and error metrics.
//! * [`optimizer`] — histogram-backed cardinality estimation for
//!   selections and equi-join chains (the paper's motivating use case),
//!   over plain `&dyn ReadHistogram` so chains may mix algorithms.
//! * [`catalog`] — the `AlgoSpec` algorithm registry and the serving
//!   layer: one object-safe `ColumnStore` trait over one store, the
//!   `ShardedCatalog` (a column without a shard plan is one shard over
//!   the whole `i64` domain), with transactional epoch-stamped
//!   `WriteBatch` commits and consistent multi-column `SnapshotSet`
//!   reads — plus `DurableStore`, which makes it crash-durable and
//!   time-travelable.
//! * [`wal`] — the epoch-changelog write-ahead log, checkpoint files and
//!   crash-recovery primitives `DurableStore` persists through (see
//!   `docs/DURABILITY.md`).
//! * [`replica`] — read replicas: a `Follower` tails a leader's
//!   changelog directory and serves the same wait-free read path at a
//!   bounded, reported staleness (see `docs/REPLICATION.md`).
//! * [`site`] — the multi-site global catalog: a `Site` abstraction over
//!   in-process and socket-remote estimator backends, composed by a
//!   read-only `GlobalCatalog` that degrades instead of failing when
//!   members go down, with site-to-site epoch catch-up (see
//!   `docs/GLOBAL.md`).
//!
//! ## Quickstart
//!
//! ```
//! use dynamic_histograms::prelude::*;
//!
//! // Maintain a 32-bucket DADO histogram over a stream of integers.
//! let mut h = DadoHistogram::new(32);
//! for v in 0..10_000i64 {
//!     h.insert((v * v) % 997);
//! }
//!
//! // Estimate the selectivity of `X < 250`.
//! let est = h.estimate_less_than(250.0);
//! let truth = (0..10_000i64).filter(|v| (v * v) % 997 < 250).count() as f64;
//! assert!((est - truth).abs() / truth < 0.15);
//! ```

pub use dh_catalog as catalog;
pub use dh_core as core;
pub use dh_distributed as distributed;
pub use dh_gen as gen;
pub use dh_optimizer as optimizer;
pub use dh_replica as replica;
pub use dh_sample as sample;
pub use dh_site as site;
pub use dh_static as statics;
pub use dh_stats as stats;
pub use dh_wal as wal;

/// One-stop imports for applications.
pub mod prelude {
    pub use dh_catalog::{
        AlgoSpec, AutoscalePolicy, CatalogError, ColumnConfig, ColumnShape, ColumnStore,
        DurableError, DurableOptions, DurableStore, ReadStats, RebuildPlan, ReshardPolicy,
        ShardMap, ShardPlan, ShardedCatalog, Snapshot, SnapshotSet, StoreKind, WriteBatch,
    };
    pub use dh_core::dynamic::{
        AbsoluteDeviation, DadoHistogram, DcHistogram, DvoHistogram, Grid2dHistogram,
        MultiSubHistogram, SquaredDeviation,
    };
    pub use dh_core::{
        BoxedHistogram, DataDistribution, DynHistogram, Histogram, HistogramCdf, HistogramClass,
        MemoryBudget, ReadHistogram, UpdateOp,
    };
    pub use dh_gen::{
        cluster::ClusterShape,
        synthetic::{SyntheticConfig, SyntheticDataset},
        workload::{Update, UpdateStream, WorkloadKind},
    };
    pub use dh_replica::{Follower, PollReport, PollStatus};
    pub use dh_sample::{AcHistogram, ReservoirSample};
    pub use dh_site::{
        catch_up, GlobalCatalog, LocalSite, RemoteSite, Site, SiteServer, SiteStatus,
    };
    pub use dh_static::{
        CompressedHistogram, EquiDepthHistogram, EquiWidthHistogram, SadoHistogram, SsbmHistogram,
        VOptimalHistogram,
    };
    pub use dh_stats::{ks_between, Cdf, StepCdf};
    pub use dh_wal::{SyncPolicy, TempDir, WalError};
}
