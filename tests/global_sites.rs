//! The multi-site global catalog, end-to-end (Section 8 as a
//! deployment): a 3-site composition — one in-process member, two
//! socket-remote members behind `SiteServer`s — serving
//! epoch-consistent estimates through the read-only `ColumnStore`
//! surface, with a plan-less and a sharded column backing the local
//! member.
//!
//! The fault scenario is the subsystem's reason to exist: kill one
//! remote mid-workload and the next read *degrades* (remaining-site
//! superposition, correct per-site `SiteStatus`, no error); restart
//! the site from its own changelog and the composition heals with
//! bit-identical spans; rebuild the site from scratch and the version
//! vector holds it out as `Stale` until site-to-site `catch_up`
//! replays its epochs — bit-identically — from a peer's changelog.
//!
//! The KS-parity property pins the paper's Figs. 20–23 claim one layer
//! up: a `GlobalCatalog` over k healthy sites lands in the same
//! quality band as one pooled catalog over the union of the data.

use dynamic_histograms::core::{ks_error, DataDistribution};
use dynamic_histograms::prelude::*;
use dynamic_histograms::site::{catch_up, SiteError};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::Arc;

const COLUMN: &str = "c";
const DOMAIN: (i64, i64) = (0, 200);

/// A local member store whose column is plan-less (one shard over all
/// of `i64`) or split into 4 shards.
fn local_store(design: &str, seed: u64) -> Box<dyn ColumnStore> {
    let store: Box<dyn ColumnStore> = Box::new(ShardedCatalog::new());
    let mut config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)).with_seed(seed);
    if design == "sharded" {
        config = config.with_plan(ShardPlan::new(DOMAIN.0, DOMAIN.1, 4).unwrap());
    }
    store.register(COLUMN, config).unwrap();
    store
}

fn durable_options() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Off,
        ..DurableOptions::default()
    }
}

/// One member's slice of the workload: a deterministic per-site stream.
fn site_values(site: u64, n: u64) -> impl Iterator<Item = i64> {
    (0..n).map(move |i| ((site * 37 + i * 13) % (DOMAIN.1 as u64 - 1)) as i64)
}

fn commit_values(site: &dyn dynamic_histograms::site::Site, values: impl Iterator<Item = i64>) {
    let mut batch = WriteBatch::new();
    for v in values {
        batch.insert(COLUMN, v);
    }
    site.commit(batch).unwrap();
}

/// Bit-exact span fingerprint (`f64::to_bits`, not float equality).
fn bits(spans: &[dynamic_histograms::core::BucketSpan]) -> Vec<(u64, u64, u64)> {
    spans
        .iter()
        .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
        .collect()
}

/// Spawns a remote member: a `DurableStore` in `dir` behind a
/// `SiteServer`, registered and fed *over the wire* (the register
/// request travels as the exact WAL record its replay logs).
fn spawn_remote(
    dir: &TempDir,
    name: &str,
    values: impl Iterator<Item = i64>,
) -> (SiteServer, RemoteSite) {
    let store =
        Arc::new(DurableStore::open(dir.path(), StoreKind::Sharded, durable_options()).unwrap());
    let server = SiteServer::spawn(store).unwrap();
    let site = RemoteSite::new(name, server.addr());
    site.register(
        COLUMN,
        ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)).with_seed(7),
    )
    .unwrap();
    commit_values(&site, values);
    (server, site)
}

#[test]
fn three_sites_serve_degrade_and_catch_up_across_all_designs() {
    for design in ["plan-less", "sharded"] {
        // --- Build: one local member plus two socket-remote members.
        let local = local_store(design, 42);
        let site0 = Arc::new(LocalSite::new("local", local));
        commit_values(site0.as_ref(), site_values(0, 400));

        let dir1 = TempDir::new("global_sites_r1");
        let dir2 = TempDir::new("global_sites_r2");
        // `_server1` stays in scope: dropping it would kill site r1.
        let (_server1, site1) = spawn_remote(&dir1, "r1", site_values(1, 300));
        let (mut server2, site2) = spawn_remote(&dir2, "r2", site_values(2, 200));
        let addr2: SocketAddr = server2.addr();

        let global = GlobalCatalog::new(vec![
            site0.clone(),
            Arc::new(site1.clone()),
            Arc::new(site2.clone()),
        ]);

        // --- Healthy: epoch-consistent estimates over all three.
        let healthy = global.snapshot(COLUMN).unwrap();
        assert_eq!(healthy.epoch(), 3, "{design}: one commit per site");
        let total = global.total_count(COLUMN).unwrap();
        assert!((total - 900.0).abs() < 1e-6, "{design}: total {total}");
        assert!(
            global
                .site_statuses()
                .iter()
                .all(|(_, s)| matches!(s, SiteStatus::Healthy { .. })),
            "{design}: {:?}",
            global.site_statuses()
        );
        let spans2_before = site2.snapshot_spans(COLUMN, None).unwrap();

        // --- Kill r2: the next read degrades instead of failing.
        server2.stop();
        drop(server2);
        let degraded = global.snapshot(COLUMN).unwrap();
        let degraded_total = global.total_count(COLUMN).unwrap();
        assert!(
            (degraded_total - 700.0).abs() < 1e-6,
            "{design}: remaining-site superposition, got {degraded_total}"
        );
        assert!(degraded.epoch() >= healthy.epoch(), "epoch stays monotone");
        let statuses = global.site_statuses();
        assert!(
            statuses
                .iter()
                .any(|(n, s)| n == "r2" && *s == SiteStatus::Unreachable),
            "{design}: {statuses:?}"
        );
        let stats = global.read_stats();
        assert!(stats.degraded_reads >= 1, "{design}: {stats:?}");
        assert!(stats.site_failures >= 1, "{design}: {stats:?}");

        // --- Restart r2 from its own changelog, on the same address:
        // the very next read heals, bit-identically.
        let store2b = Arc::new(
            DurableStore::open(dir2.path(), StoreKind::Sharded, durable_options()).unwrap(),
        );
        let mut server2b = SiteServer::spawn_on(Arc::clone(&store2b), addr2).unwrap();
        let spans2_after = site2.snapshot_spans(COLUMN, None).unwrap();
        assert_eq!(spans2_after.epoch, spans2_before.epoch);
        assert_eq!(
            bits(&spans2_after.spans),
            bits(&spans2_before.spans),
            "{design}: restart must replay to bit-identical spans"
        );
        let healed = global.snapshot(COLUMN).unwrap();
        assert_eq!(
            bits(healed.spans().as_slice()),
            bits(healthy.spans().as_slice())
        );
        assert!(
            global
                .site_statuses()
                .iter()
                .all(|(_, s)| matches!(s, SiteStatus::Healthy { .. })),
            "{design}: {:?}",
            global.site_statuses()
        );

        // --- Rebuild r2 from scratch (empty store, same address): the
        // version vector holds it out as Stale until it catches up.
        server2b.stop();
        drop(server2b);
        let dir2c = TempDir::new("global_sites_r2_rebuilt");
        let store2c = Arc::new(
            DurableStore::open(dir2c.path(), StoreKind::Sharded, durable_options()).unwrap(),
        );
        let _server2c = SiteServer::spawn_on(Arc::clone(&store2c), addr2).unwrap();
        let stale_read = global.snapshot(COLUMN).unwrap();
        let stale_total = global.total_count(COLUMN).unwrap();
        assert!(
            (stale_total - 700.0).abs() < 1e-6,
            "{design}: {stale_total}"
        );
        assert!(stale_read.epoch() >= healed.epoch());
        assert!(
            global.site_statuses().iter().any(|(n, s)| n == "r2"
                && matches!(
                    s,
                    SiteStatus::Stale {
                        epoch: 0,
                        behind: 1
                    }
                )),
            "{design}: {:?}",
            global.site_statuses()
        );

        // --- Site-to-site catch-up: replay the lost epochs from a peer
        // that still has the changelog (the pre-rebuild store, served
        // on a fresh port). Bit-identical, and the composition heals.
        let server_peer = SiteServer::spawn(Arc::clone(&store2b)).unwrap();
        let peer = RemoteSite::new("r2-peer", server_peer.addr());
        let report = catch_up(store2c.as_ref(), &peer, store2c.epoch()).unwrap();
        assert!(report.caught_up, "{design}: {report:?}");
        assert_eq!(report.epoch, spans2_before.epoch);
        let spans2_rebuilt = site2.snapshot_spans(COLUMN, None).unwrap();
        assert_eq!(
            bits(&spans2_rebuilt.spans),
            bits(&spans2_before.spans),
            "{design}: catch-up must replay to bit-identical spans"
        );
        let final_read = global.snapshot(COLUMN).unwrap();
        assert_eq!(
            bits(final_read.spans().as_slice()),
            bits(healthy.spans().as_slice())
        );
        let final_total = global.total_count(COLUMN).unwrap();
        assert!(
            (final_total - 900.0).abs() < 1e-6,
            "{design}: {final_total}"
        );
        assert!(
            global
                .site_statuses()
                .iter()
                .all(|(_, s)| matches!(s, SiteStatus::Healthy { .. })),
            "{design}: {:?}",
            global.site_statuses()
        );
    }
}

#[test]
fn global_catalog_is_read_only_and_reports_union_metadata() {
    let a = local_store("plan-less", 1);
    let b = local_store("plan-less", 2);
    let site_a = Arc::new(LocalSite::new("a", a));
    let site_b = Arc::new(LocalSite::new("b", b));
    commit_values(site_a.as_ref(), site_values(0, 100));
    commit_values(site_b.as_ref(), site_values(1, 100));
    // A column only one site hosts still resolves globally.
    site_b
        .store()
        .register(
            "only-b",
            ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)),
        )
        .unwrap();
    let global = GlobalCatalog::new(vec![site_a, site_b]);
    assert_eq!(
        global.columns(),
        vec![COLUMN.to_string(), "only-b".to_string()]
    );
    assert!(global.contains("only-b"));
    assert_eq!(global.spec(COLUMN).unwrap(), AlgoSpec::Dc);
    assert!(global.snapshot("only-b").unwrap().spans().is_empty());
    assert!(matches!(
        global.snapshot("ghost"),
        Err(CatalogError::UnknownColumn(_))
    ));
    assert!(matches!(
        global.register(
            "new",
            ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
        ),
        Err(CatalogError::ReadOnlyReplica)
    ));
    let mut batch = WriteBatch::new();
    batch.insert(COLUMN, 1);
    assert!(matches!(
        global.commit(batch),
        Err(CatalogError::ReadOnlyReplica)
    ));
}

#[test]
fn all_sites_down_is_an_error_not_a_panic() {
    // Bind-and-drop: an address nothing listens on.
    let addr = {
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap()
    };
    let global = GlobalCatalog::new(vec![Arc::new(RemoteSite::new("gone", addr))]);
    assert!(matches!(
        global.snapshot(COLUMN),
        Err(CatalogError::Durability(_))
    ));
    let stats = global.read_stats();
    assert!(stats.site_failures >= 1 && stats.degraded_reads >= 1);
    // The remote's own surface reports Unreachable, not a panic.
    let site = RemoteSite::new("gone", addr);
    assert!(matches!(
        site.snapshot_spans(COLUMN, None),
        Err(SiteError::Unreachable(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Figs. 20–23, end-to-end: a `GlobalCatalog` over k healthy local
    /// sites lands in the same KS band as one pooled `ShardedCatalog`
    /// over the union of the data.
    #[test]
    fn global_over_k_sites_matches_pooled_quality(
        k in 2usize..5,
        values in prop::collection::vec(0i64..199, 400..1200),
        seed in 0u64..1000,
    ) {
        // Partition the stream round-robin across k member sites.
        let mut sites: Vec<Arc<dyn dynamic_histograms::site::Site>> = Vec::new();
        for s in 0..k {
            let store = local_store("plan-less", seed);
            let site = Arc::new(LocalSite::new(format!("s{s}"), store));
            commit_values(site.as_ref(), values.iter().skip(s).step_by(k).copied());
            sites.push(site);
        }
        let global = GlobalCatalog::new(sites);
        let g_snap = global.snapshot(COLUMN).unwrap();

        // The pooled reference: one sharded catalog over the union.
        let pooled = local_store("sharded", seed);
        let mut batch = WriteBatch::new();
        for &v in &values {
            batch.insert(COLUMN, v);
        }
        pooled.commit(batch).unwrap();
        let p_snap = pooled.snapshot(COLUMN).unwrap();

        let truth = DataDistribution::from_values(&values);
        let g_ks = ks_error(&g_snap, &truth);
        let p_ks = ks_error(&p_snap, &truth);
        // Same quality band: superposition may not beat the pooled
        // histogram, but it must not fall out of its band (the paper's
        // global-vs-local gap is a few percent of KS error).
        prop_assert!(g_ks <= p_ks + 0.1, "global {g_ks} vs pooled {p_ks}");
        prop_assert!(g_ks < 0.25, "global quality collapsed: {g_ks}");
        // Mass is conserved exactly by superposition.
        let g_total = global.total_count(COLUMN).unwrap();
        prop_assert!((g_total - values.len() as f64).abs() < 1e-6);
    }
}
