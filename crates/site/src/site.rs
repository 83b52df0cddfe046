//! The [`Site`] trait — the minimal estimator surface a member site
//! exposes to a global composition — plus the in-process backend.

use dh_catalog::{CatalogError, ColumnConfig, ColumnStore, WriteBatch};
use dh_core::{BucketSpan, ReadHistogram};
use dh_wal::WalRecord;
use std::fmt;
use std::sync::Arc;

/// Why a site interaction failed.
#[derive(Debug)]
pub enum SiteError {
    /// The site could not be reached at all (connect, send, or receive
    /// failed at the transport). The shape a killed site presents.
    Unreachable(String),
    /// The site answered, but with bytes that do not decode as the
    /// protocol (framing, checksum, or codec failure).
    Protocol(String),
    /// The site executed the request and reported a failure of its own
    /// that has no typed mapping (its message, verbatim).
    Remote(String),
    /// The site's store rejected the request with a typed catalog
    /// error — preserved across the wire for the cases composition
    /// logic branches on ([`CatalogError::UnknownColumn`],
    /// [`CatalogError::EpochEvicted`]).
    Store(CatalogError),
    /// The backend does not implement this part of the surface (e.g.
    /// tailing an in-process store with no changelog).
    Unsupported(&'static str),
}

impl fmt::Display for SiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteError::Unreachable(why) => write!(f, "site unreachable: {why}"),
            SiteError::Protocol(why) => write!(f, "site protocol error: {why}"),
            SiteError::Remote(why) => write!(f, "site-reported error: {why}"),
            SiteError::Store(e) => write!(f, "site store error: {e}"),
            SiteError::Unsupported(what) => write!(f, "site does not support {what}"),
        }
    }
}

impl std::error::Error for SiteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SiteError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CatalogError> for SiteError {
    fn from(e: CatalogError) -> Self {
        SiteError::Store(e)
    }
}

/// One health probe's verdict on a member site, as a global read
/// reports it (see `docs/GLOBAL.md` for the degradation contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteStatus {
    /// The site answered and its epoch clock is at or past everything
    /// the composition has ever observed from it.
    Healthy {
        /// The site's published epoch at the probe.
        epoch: u64,
    },
    /// The site answered, but its epoch clock is *behind* the version
    /// vector — the shape of a site rebuilt from scratch that has not
    /// caught up yet. Dropped from composition until it converges.
    Stale {
        /// The site's published epoch at the probe.
        epoch: u64,
        /// How many epochs behind the version-vector entry it is — the
        /// staleness bound reported instead of failing the read.
        behind: u64,
    },
    /// The site could not be reached.
    Unreachable,
}

/// One column's rendered state pulled from a site: the site-local
/// bookkeeping plus the spans themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpans {
    /// The site epoch the spans are pinned to.
    pub epoch: u64,
    /// The column's batch checkpoint count at that epoch.
    pub checkpoint: u64,
    /// Updates folded into the column at that epoch.
    pub updates: u64,
    /// The site's algorithm legend label for the column.
    pub label: String,
    /// The rendered spans, sorted and disjoint.
    pub spans: Vec<BucketSpan>,
}

/// One changelog tail pull from a site (see [`Site::tail`]).
#[derive(Debug)]
pub struct SiteTail {
    /// Records visible past the requested epoch, in append (= epoch)
    /// order. May re-read records at or before the requested epoch
    /// (segment granularity); replay must skip them idempotently.
    pub records: Vec<WalRecord>,
    /// `true` if the site's changelog was fully drained; `false` if
    /// pruning ran past the requested epoch (the `TailStatus::Lost`
    /// shape) — the caller must restart from a fresher base.
    pub caught_up: bool,
}

/// The minimal estimator surface of one member site.
///
/// Object-safe by design: a [`GlobalCatalog`](crate::GlobalCatalog)
/// holds `Arc<dyn Site>` and treats in-process and socket-remote
/// members identically. Every method that crosses a transport can fail
/// with [`SiteError::Unreachable`]; composition logic treats that as a
/// degraded member, never a failed read.
pub trait Site: Send + Sync {
    /// The site's name — the version-vector key, stable across restarts.
    fn name(&self) -> &str;

    /// Health probe: the site's epoch if it answers, without judging
    /// staleness (that is the composition's call — it owns the version
    /// vector).
    fn probe(&self) -> SiteStatus;

    /// The site's published epoch clock.
    ///
    /// # Errors
    /// [`SiteError::Unreachable`] / [`SiteError::Protocol`] on
    /// transport failure.
    fn epoch(&self) -> Result<u64, SiteError>;

    /// The site's registered column names, sorted.
    ///
    /// # Errors
    /// [`SiteError::Unreachable`] / [`SiteError::Protocol`] on
    /// transport failure.
    fn columns(&self) -> Result<Vec<String>, SiteError>;

    /// Registers `column` on the site.
    ///
    /// # Errors
    /// [`SiteError::Store`] with the site's typed rejection (duplicate
    /// column, invalid plan), or a transport error.
    fn register(&self, column: &str, config: ColumnConfig) -> Result<(), SiteError>;

    /// Commits `batch` on the site, returning the epoch it published as.
    ///
    /// # Errors
    /// [`SiteError::Store`] with the site's typed rejection, or a
    /// transport error.
    fn commit(&self, batch: WriteBatch) -> Result<u64, SiteError>;

    /// Pulls `column`'s rendered spans, pinned to site epoch `at` —
    /// or to the site's current epoch when `at` is `None`.
    ///
    /// # Errors
    /// [`SiteError::Store`] with [`CatalogError::UnknownColumn`] if the
    /// site does not host the column, or
    /// [`CatalogError::EpochEvicted`] if the requested epoch is no
    /// longer (or not yet) servable; transport errors as usual.
    fn snapshot_spans(&self, column: &str, at: Option<u64>) -> Result<SiteSpans, SiteError>;

    /// Pulls the site's changelog records past epoch `from` — the
    /// [`TailReader`](dh_wal::tail::TailReader) semantics, one hop out.
    /// What a rebuilt peer replays to catch up ([`crate::catch_up`]).
    ///
    /// # Errors
    /// [`SiteError::Unsupported`] for backends with no changelog (the
    /// default); transport errors as usual.
    fn tail(&self, from: u64) -> Result<SiteTail, SiteError> {
        let _ = from;
        Err(SiteError::Unsupported("changelog tailing"))
    }
}

/// An in-process member site: any [`ColumnStore`] adapted to the
/// [`Site`] surface. Always reachable; its probe is the store's own
/// epoch clock.
pub struct LocalSite {
    name: String,
    store: Arc<dyn ColumnStore>,
}

impl LocalSite {
    /// Wraps an owned store.
    pub fn new(name: impl Into<String>, store: Box<dyn ColumnStore>) -> Self {
        Self::shared(name, Arc::from(store))
    }

    /// Wraps a store shared with other users in this process (e.g. the
    /// writer that keeps committing to it while the composition reads).
    pub fn shared(name: impl Into<String>, store: Arc<dyn ColumnStore>) -> Self {
        Self {
            name: name.into(),
            store,
        }
    }

    /// The wrapped store.
    pub fn store(&self) -> &Arc<dyn ColumnStore> {
        &self.store
    }
}

/// Renders one snapshot into the wire-shaped [`SiteSpans`].
pub(crate) fn spans_of(snap: &dh_catalog::Snapshot) -> SiteSpans {
    SiteSpans {
        epoch: snap.epoch(),
        checkpoint: snap.checkpoint(),
        updates: snap.updates(),
        label: snap.label().to_string(),
        spans: snap.spans(),
    }
}

impl Site for LocalSite {
    fn name(&self) -> &str {
        &self.name
    }

    fn probe(&self) -> SiteStatus {
        SiteStatus::Healthy {
            epoch: self.store.epoch(),
        }
    }

    fn epoch(&self) -> Result<u64, SiteError> {
        Ok(self.store.epoch())
    }

    fn columns(&self) -> Result<Vec<String>, SiteError> {
        Ok(self.store.columns())
    }

    fn register(&self, column: &str, config: ColumnConfig) -> Result<(), SiteError> {
        Ok(self.store.register(column, config)?)
    }

    fn commit(&self, batch: WriteBatch) -> Result<u64, SiteError> {
        Ok(self.store.commit(batch)?)
    }

    fn snapshot_spans(&self, column: &str, at: Option<u64>) -> Result<SiteSpans, SiteError> {
        let snap = match at {
            None => self.store.snapshot(column)?,
            Some(epoch) => {
                let set = self.store.snapshot_set_at(&[column], epoch)?;
                set.get(column)
                    .ok_or_else(|| CatalogError::UnknownColumn(column.to_string()))?
                    .clone()
            }
        };
        Ok(spans_of(&snap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_catalog::{AlgoSpec, ShardedCatalog};
    use dh_core::MemoryBudget;

    fn local() -> LocalSite {
        let store = ShardedCatalog::new();
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)),
            )
            .unwrap();
        LocalSite::new("a", Box::new(store))
    }

    #[test]
    fn local_site_round_trips_the_store_surface() {
        let site = local();
        assert_eq!(site.name(), "a");
        assert_eq!(site.epoch().unwrap(), 0);
        assert_eq!(site.columns().unwrap(), vec!["c".to_string()]);
        let mut batch = WriteBatch::new();
        for v in 0..100 {
            batch.insert("c", v % 10);
        }
        assert_eq!(site.commit(batch).unwrap(), 1);
        assert_eq!(site.probe(), SiteStatus::Healthy { epoch: 1 });

        let current = site.snapshot_spans("c", None).unwrap();
        assert_eq!(current.epoch, 1);
        assert_eq!(current.updates, 100);
        let pinned = site.snapshot_spans("c", Some(1)).unwrap();
        assert_eq!(pinned.spans, current.spans);

        // An in-memory store retains only its current epoch.
        assert!(matches!(
            site.snapshot_spans("c", Some(9)),
            Err(SiteError::Store(CatalogError::EpochEvicted(9)))
        ));
        assert!(matches!(
            site.snapshot_spans("ghost", None),
            Err(SiteError::Store(CatalogError::UnknownColumn(_)))
        ));
        // No changelog behind a bare catalog: tailing is unsupported.
        assert!(matches!(site.tail(0), Err(SiteError::Unsupported(_))));
    }
}
