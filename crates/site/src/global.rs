//! [`GlobalCatalog`] — the paper's global histogram as a serving-layer
//! [`ColumnStore`], composed over N member [`Site`]s.
//!
//! A read pulls each site's spans pinned to that site's epoch clock,
//! reconciles the clocks into a **version vector** (one monotone entry
//! per site name), and superimposes the per-site histograms with
//! [`dh_distributed::superimpose`] — the paper's `histogram + union`
//! strategy, optionally SSBM-reduced to a bucket budget. Unreachable
//! sites, and sites whose clock has *regressed* below the version
//! vector (a rebuilt site that has not caught up), are **dropped from
//! the composition instead of failing the read**; the read is counted
//! as degraded, and the per-site verdicts are published via
//! [`site_statuses`](GlobalCatalog::site_statuses) and the `site_*`
//! fields of [`ReadStats`]. `docs/GLOBAL.md` specifies the contract.
//!
//! The catalog is **read-only**: mutations belong to the member sites,
//! and every write-path method answers
//! [`CatalogError::ReadOnlyReplica`].

use crate::site::{Site, SiteError, SiteSpans, SiteStatus};
use dh_catalog::global::{set_from_snapshots, snapshot_from_spans};
use dh_catalog::{
    AlgoSpec, CatalogError, ColumnConfig, ColumnStore, ReadStats, Snapshot, SnapshotSet, WriteBatch,
};
use dh_core::dynamic::SquaredDeviation;
use dh_core::{BucketSpan, UpdateOp};
use dh_distributed::{superimpose, GlobalStrategy};
use dh_static::ssbm::ssbm_reduce;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Attempts to pin a site's span pull to one epoch before giving up on
/// the site for this read (each retry re-reads the site's clock, so
/// only a site evicting generations faster than we can ask exhausts
/// this).
const PIN_ATTEMPTS: usize = 3;

/// The version vector and last-read verdicts, updated together.
#[derive(Default)]
struct Reconciler {
    /// Highest epoch ever observed per site name. Never decreases; a
    /// site reporting below its entry is stale and sits out the read.
    vv: BTreeMap<String, u64>,
    /// Each site's verdict from the most recent read.
    statuses: BTreeMap<String, SiteStatus>,
}

/// A read-only global composition over member sites.
///
/// Cheap to share (`Arc`) and safe to read concurrently; the version
/// vector is the only shared mutable state and sits behind a mutex.
pub struct GlobalCatalog {
    sites: Vec<Arc<dyn Site>>,
    strategy: GlobalStrategy,
    budget: Option<usize>,
    reconciler: Mutex<Reconciler>,
    site_probes: AtomicU64,
    site_failures: AtomicU64,
    degraded_reads: AtomicU64,
}

/// One usable site's contribution to a read: requested column → spans,
/// `None` where the site does not host the column (a zero
/// contribution, not a failure). All entries are pinned to one site
/// epoch.
type Pulled = BTreeMap<String, Option<SiteSpans>>;

impl GlobalCatalog {
    /// A composition over `sites` with the paper's default strategy
    /// (`histogram + union`) and no bucket budget (lossless union).
    pub fn new(sites: Vec<Arc<dyn Site>>) -> Self {
        GlobalCatalog {
            sites,
            strategy: GlobalStrategy::HistogramThenUnion,
            budget: None,
            reconciler: Mutex::new(Reconciler::default()),
            site_probes: AtomicU64::new(0),
            site_failures: AtomicU64::new(0),
            degraded_reads: AtomicU64::new(0),
        }
    }

    /// Selects the composition strategy (see `docs/GLOBAL.md` for how
    /// the paper's two strategies map onto a span-shipping deployment).
    #[must_use]
    pub fn with_strategy(mut self, strategy: GlobalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps composed histograms at `buckets` via SSBM reduction (the
    /// paper's `histogram + union` under a memory budget). Only applies
    /// under [`GlobalStrategy::HistogramThenUnion`]; the union-first
    /// strategy stays lossless.
    #[must_use]
    pub fn with_budget(mut self, buckets: usize) -> Self {
        self.budget = Some(buckets.max(1));
        self
    }

    /// The member sites, in composition order.
    pub fn sites(&self) -> &[Arc<dyn Site>] {
        &self.sites
    }

    /// Each site's verdict from the most recent read (or probe), in
    /// site-name order. Empty before the first read.
    pub fn site_statuses(&self) -> Vec<(String, SiteStatus)> {
        let inner = self.reconciler.lock().unwrap();
        inner
            .statuses
            .iter()
            .map(|(name, status)| (name.clone(), *status))
            .collect()
    }

    /// The version vector: the highest epoch ever observed per site.
    pub fn version_vector(&self) -> Vec<(String, u64)> {
        let inner = self.reconciler.lock().unwrap();
        inner.vv.iter().map(|(n, e)| (n.clone(), *e)).collect()
    }

    /// Pulls `columns` from every usable site and composes them into a
    /// snapshot set. The workhorse behind every read-path method.
    fn compose(&self, columns: &[&str]) -> Result<SnapshotSet, CatalogError> {
        let mut pulled: Vec<Pulled> = Vec::with_capacity(self.sites.len());
        let mut dropped = false;
        for site in &self.sites {
            self.site_probes.fetch_add(1, Ordering::Relaxed);
            match self.pull_site(site.as_ref(), columns) {
                Ok(contribution) => pulled.push(contribution),
                Err(()) => {
                    dropped = true;
                    self.site_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if dropped {
            self.degraded_reads.fetch_add(1, Ordering::Relaxed);
        }
        if pulled.is_empty() {
            return Err(CatalogError::Durability(
                "global read found no reachable, caught-up site".to_string(),
            ));
        }

        // The global epoch is the version-vector sum — monotone because
        // entries never decrease, even across degraded reads where a
        // site's *old* entry keeps representing it.
        let global_epoch = {
            let inner = self.reconciler.lock().unwrap();
            inner.vv.values().sum()
        };

        let label = format!("global({})", self.strategy.label());
        let mut snaps = BTreeMap::new();
        for &column in columns {
            let mut members: Vec<Vec<BucketSpan>> = Vec::new();
            let mut checkpoint = 0u64;
            let mut updates = 0u64;
            for p in &pulled {
                if let Some(Some(spans)) = p.get(column) {
                    checkpoint += spans.checkpoint;
                    updates += spans.updates;
                    members.push(spans.spans.clone());
                }
            }
            if members.is_empty() {
                // No usable site hosts it: unknown globally.
                return Err(CatalogError::UnknownColumn(column.to_string()));
            }
            let spans = self.compose_spans(&members);
            snaps.insert(
                column.to_string(),
                snapshot_from_spans(column, &label, global_epoch, checkpoint, updates, spans),
            );
        }
        Ok(set_from_snapshots(global_epoch, snaps))
    }

    /// Superimposes member histograms per the configured strategy.
    fn compose_spans(&self, members: &[Vec<BucketSpan>]) -> Vec<BucketSpan> {
        let union = superimpose(members);
        match (self.strategy, self.budget) {
            (GlobalStrategy::HistogramThenUnion, Some(buckets)) if !union.is_empty() => {
                ssbm_reduce::<SquaredDeviation>(&union, buckets)
            }
            _ => union,
        }
    }

    /// Pulls every requested column from one site, pinned to a single
    /// site epoch. `Err(())` means the site sits this read out (already
    /// recorded in the reconciler); column-unknown is a `None` entry,
    /// not an error.
    fn pull_site(&self, site: &dyn Site, columns: &[&str]) -> Result<Pulled, ()> {
        let name = site.name().to_string();
        let mut epoch = match site.epoch() {
            Ok(epoch) => epoch,
            Err(_) => {
                self.record(&name, SiteStatus::Unreachable, None);
                return Err(());
            }
        };
        // Version-vector reconciliation: a clock below what we have
        // proven for this site is a rebuilt/reset member that must
        // catch up before it may contribute again.
        {
            let inner = self.reconciler.lock().unwrap();
            if let Some(&seen) = inner.vv.get(&name) {
                if epoch < seen {
                    let status = SiteStatus::Stale {
                        epoch,
                        behind: seen - epoch,
                    };
                    drop(inner);
                    self.record(&name, status, None);
                    return Err(());
                }
            }
        }

        'pin: for _ in 0..PIN_ATTEMPTS {
            let mut out = BTreeMap::new();
            for &column in columns {
                match site.snapshot_spans(column, Some(epoch)) {
                    Ok(spans) => {
                        out.insert(column.to_string(), Some(spans));
                    }
                    Err(SiteError::Store(CatalogError::UnknownColumn(_))) => {
                        out.insert(column.to_string(), None);
                    }
                    // The site moved past (or evicted) the pinned
                    // epoch mid-pull: re-read its clock and restart so
                    // every column stays pinned to one epoch.
                    Err(SiteError::Store(CatalogError::EpochEvicted(_))) => match site.epoch() {
                        Ok(fresh) if fresh != epoch => {
                            epoch = fresh;
                            continue 'pin;
                        }
                        _ => {
                            self.record(&name, SiteStatus::Unreachable, None);
                            return Err(());
                        }
                    },
                    Err(_) => {
                        self.record(&name, SiteStatus::Unreachable, None);
                        return Err(());
                    }
                }
            }
            self.record(&name, SiteStatus::Healthy { epoch }, Some(epoch));
            return Ok(out);
        }
        self.record(&name, SiteStatus::Unreachable, None);
        Err(())
    }

    /// Publishes a site's verdict, and (for healthy pulls) raises its
    /// version-vector entry.
    fn record(&self, name: &str, status: SiteStatus, advance_to: Option<u64>) {
        let mut inner = self.reconciler.lock().unwrap();
        inner.statuses.insert(name.to_string(), status);
        if let Some(epoch) = advance_to {
            let entry = inner.vv.entry(name.to_string()).or_insert(0);
            *entry = (*entry).max(epoch);
        }
    }
}

impl ColumnStore for GlobalCatalog {
    fn register(&self, _column: &str, _config: ColumnConfig) -> Result<(), CatalogError> {
        Err(CatalogError::ReadOnlyReplica)
    }

    fn columns(&self) -> Vec<String> {
        let mut union: Vec<String> = Vec::new();
        for site in &self.sites {
            self.site_probes.fetch_add(1, Ordering::Relaxed);
            match site.columns() {
                Ok(names) => union.extend(names),
                Err(_) => {
                    self.site_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        union.sort();
        union.dedup();
        union
    }

    fn contains(&self, column: &str) -> bool {
        self.columns().iter().any(|c| c == column)
    }

    fn spec(&self, column: &str) -> Result<AlgoSpec, CatalogError> {
        // The composed histogram is a plain span union; report the
        // algorithm of the first site that hosts the column, which is
        // what a cost model keying on the legend label expects.
        for site in &self.sites {
            if let Ok(spans) = site.snapshot_spans(column, None) {
                if let Ok(spec) = spans.label.parse::<AlgoSpec>() {
                    return Ok(spec);
                }
            }
        }
        Err(CatalogError::UnknownColumn(column.to_string()))
    }

    fn commit(&self, _batch: WriteBatch) -> Result<u64, CatalogError> {
        Err(CatalogError::ReadOnlyReplica)
    }

    fn apply(&self, _column: &str, _batch: &[UpdateOp]) -> Result<u64, CatalogError> {
        Err(CatalogError::ReadOnlyReplica)
    }

    fn flush(&self, column: &str) -> Result<(), CatalogError> {
        if self.contains(column) {
            Ok(())
        } else {
            Err(CatalogError::UnknownColumn(column.to_string()))
        }
    }

    fn snapshot(&self, column: &str) -> Result<Snapshot, CatalogError> {
        let set = self.compose(&[column])?;
        set.get(column)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownColumn(column.to_string()))
    }

    fn snapshot_set(&self, columns: &[&str]) -> Result<SnapshotSet, CatalogError> {
        self.compose(columns)
    }

    fn checkpoint(&self, column: &str) -> Result<u64, CatalogError> {
        Ok(self.snapshot(column)?.checkpoint())
    }

    fn epoch(&self) -> u64 {
        // Probe every site's clock so the version vector is fresh, then
        // report the vector sum (monotone across unreachable members).
        for site in &self.sites {
            self.site_probes.fetch_add(1, Ordering::Relaxed);
            match site.epoch() {
                Ok(epoch) => {
                    let seen = {
                        let inner = self.reconciler.lock().unwrap();
                        inner.vv.get(site.name()).copied()
                    };
                    match seen {
                        Some(seen) if epoch < seen => self.record(
                            site.name(),
                            SiteStatus::Stale {
                                epoch,
                                behind: seen - epoch,
                            },
                            None,
                        ),
                        _ => self.record(site.name(), SiteStatus::Healthy { epoch }, Some(epoch)),
                    }
                }
                Err(_) => {
                    self.site_failures.fetch_add(1, Ordering::Relaxed);
                    self.record(site.name(), SiteStatus::Unreachable, None);
                }
            }
        }
        let inner = self.reconciler.lock().unwrap();
        inner.vv.values().sum()
    }

    fn read_stats(&self) -> ReadStats {
        ReadStats {
            site_probes: self.site_probes.load(Ordering::Relaxed),
            site_failures: self.site_failures.load(Ordering::Relaxed),
            degraded_reads: self.degraded_reads.load(Ordering::Relaxed),
            ..ReadStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::LocalSite;
    use dh_catalog::ShardedCatalog;
    use dh_core::{MemoryBudget, ReadHistogram};

    fn site(name: &str, values: impl Iterator<Item = i64>) -> Arc<dyn Site> {
        let store = ShardedCatalog::new();
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)),
            )
            .unwrap();
        let mut batch = WriteBatch::new();
        for v in values {
            batch.insert("c", v);
        }
        store.commit(batch).unwrap();
        Arc::new(LocalSite::new(name, Box::new(store)))
    }

    #[test]
    fn global_total_count_is_the_sum_of_member_counts() {
        let global = GlobalCatalog::new(vec![
            site("a", (0..500).map(|v| v % 50)),
            site("b", (0..300).map(|v| 40 + v % 50)),
        ]);
        let total = global.total_count("c").unwrap();
        assert!((total - 800.0).abs() < 1e-6, "total {total}");
        assert_eq!(global.epoch(), 2);
        assert!(global.contains("c"));
        assert!(!global.contains("ghost"));
        assert_eq!(global.spec("c").unwrap(), AlgoSpec::Dc);
        let statuses = global.site_statuses();
        assert_eq!(statuses.len(), 2);
        assert!(statuses
            .iter()
            .all(|(_, s)| matches!(s, SiteStatus::Healthy { epoch: 1 })));
        let stats = global.read_stats();
        assert!(stats.site_probes > 0);
        assert_eq!(stats.site_failures, 0);
        assert_eq!(stats.degraded_reads, 0);
    }

    #[test]
    fn mutations_are_rejected_as_read_only() {
        let global = GlobalCatalog::new(vec![site("a", 0..10)]);
        assert!(matches!(
            global.register(
                "d",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
            ),
            Err(CatalogError::ReadOnlyReplica)
        ));
        let mut batch = WriteBatch::new();
        batch.insert("c", 1);
        assert!(matches!(
            global.commit(batch),
            Err(CatalogError::ReadOnlyReplica)
        ));
        assert!(matches!(
            global.apply("c", &[UpdateOp::Insert(1)]),
            Err(CatalogError::ReadOnlyReplica)
        ));
    }

    #[test]
    fn budget_caps_the_composed_bucket_count() {
        let sites = vec![
            site("a", (0..400).map(|v| v % 97)),
            site("b", (0..400).map(|v| 50 + v % 97)),
        ];
        let lossless = GlobalCatalog::new(sites.clone());
        let reduced = GlobalCatalog::new(sites).with_budget(4);
        let full = lossless.snapshot("c").unwrap().spans().len();
        let capped = reduced.snapshot("c").unwrap().spans().len();
        assert!(capped <= 4, "capped {capped}");
        assert!(full >= capped);
        // Mass is preserved by the reduction.
        let t_full = lossless.total_count("c").unwrap();
        let t_capped = reduced.total_count("c").unwrap();
        assert!((t_full - t_capped).abs() < 1e-6);
    }
}
