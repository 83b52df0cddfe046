//! Staleness contract of the replica read path.
//!
//! A follower's staleness is *reported*, not guessed: `lag_epochs()` is
//! the gap between `leader_epoch_hint()` — the newest epoch the
//! changelog has proven to exist — and the epoch the follower currently
//! serves. The tests here pin the contract against a `Batched(n)`
//! leader, the configuration where the leader's appends outrun its
//! fsyncs and a naive replica could either under-report (serve stale
//! data claiming freshness) or overshoot (claim epochs the leader never
//! published):
//!
//! * polling after every commit keeps the reported lag at zero — in a
//!   shared changelog directory the unsynced window is page-cache
//!   visible, so `Batched(n)` adds no staleness over `PerCommit`;
//! * a withheld follower is stale by exactly the commits it skipped,
//!   and one poll collapses the whole window (`applied == k`, lag 0);
//! * the hint never overshoots the leader's true epoch, under commits,
//!   forced checkpoints and segment rotation alike;
//! * rotation and checkpoint pruning add no staleness to a live tailer.

use dynamic_histograms::prelude::*;

const DOMAIN: (i64, i64) = (0, 999);

/// A 4-shard column, or a plan-less one.
fn config(sharded: bool) -> ColumnConfig {
    let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5)).with_seed(3);
    if sharded {
        config.with_plan(ShardPlan::new(DOMAIN.0, DOMAIN.1, 4).unwrap())
    } else {
        config
    }
}

fn batched(n: u64) -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Batched(n),
        checkpoint_every: None,
        retain_generations: 2,
    }
}

fn batch(e: i64) -> Vec<UpdateOp> {
    (0..8)
        .map(|j| UpdateOp::Insert((e * 13 + j * 7) % 1000))
        .collect()
}

/// Opens a `(leader, follower)` pair over one shared changelog dir.
fn pair(dir: &TempDir, sharded: bool, opts: DurableOptions) -> (DurableStore, Follower) {
    let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    leader.register("c", config(sharded)).unwrap();
    let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();
    (leader, follower)
}

#[test]
fn polling_after_every_commit_reports_zero_lag_despite_batched_sync() {
    for sharded in [false, true] {
        let dir = TempDir::new("staleness-zero");
        // Batched(64) never fsyncs during this test; the follower must
        // still see every commit through the shared directory.
        let (leader, follower) = pair(&dir, sharded, batched(64));
        for e in 1..=16i64 {
            leader.apply("c", &batch(e)).unwrap();
            let report = follower.poll().unwrap();
            assert_eq!(report.applied, 1);
            assert_eq!(follower.epoch(), leader.epoch());
            assert_eq!(
                follower.lag_epochs(),
                0,
                "sharded {sharded}: lag after a poll"
            );
        }
    }
}

#[test]
fn a_withheld_follower_is_stale_by_exactly_the_skipped_commits() {
    let dir = TempDir::new("staleness-window");
    let (leader, follower) = pair(&dir, false, batched(4));

    // Warm up to a known point.
    leader.apply("c", &batch(1)).unwrap();
    follower.poll().unwrap();
    assert_eq!(follower.epoch(), 1);

    // The leader runs ahead by k commits while the follower sits idle.
    // The follower's *served* epoch is frozen; its reported lag can't
    // exceed what its last observation proved, and its true staleness
    // is exactly k.
    const K: u64 = 9;
    for e in 2..=(1 + K as i64) {
        leader.apply("c", &batch(e)).unwrap();
    }
    assert_eq!(follower.epoch(), 1);
    assert_eq!(leader.epoch() - follower.epoch(), K);
    assert!(follower.leader_epoch_hint() <= leader.epoch());

    // One poll drains the whole window: every skipped commit applies,
    // and the reported lag collapses to zero.
    let report = follower.poll().unwrap();
    assert_eq!(report.applied, K);
    assert_eq!(report.status, PollStatus::CaughtUp);
    assert_eq!(follower.epoch(), leader.epoch());
    assert_eq!(follower.lag_epochs(), 0);
}

#[test]
fn the_hint_never_overshoots_the_leader() {
    let dir = TempDir::new("staleness-hint");
    let (leader, follower) = pair(&dir, false, batched(4));
    for e in 1..=24i64 {
        leader.apply("c", &batch(e)).unwrap();
        if e % 7 == 0 {
            // Checkpoint + rotation renames the landscape the hint is
            // derived from (segment names, checkpoint names); none of
            // it may claim an epoch the leader never published.
            leader.checkpoint_now().unwrap();
        }
        if e % 3 == 0 {
            follower.poll().unwrap();
        }
        assert!(
            follower.leader_epoch_hint() <= leader.epoch(),
            "hint overshot at epoch {e}"
        );
        assert!(follower.lag_epochs() <= leader.epoch() - follower.epoch());
    }
}

#[test]
fn rotation_and_pruning_add_no_staleness_to_a_live_tailer() {
    let dir = TempDir::new("staleness-rotate");
    let (leader, follower) = pair(&dir, false, batched(4));
    for e in 1..=20i64 {
        leader.apply("c", &batch(e)).unwrap();
        if e % 5 == 0 {
            // Forces a checkpoint, a segment rotation and pruning of
            // sealed segments behind it — under the tailer's feet.
            leader.checkpoint_now().unwrap();
        }
        follower.poll().unwrap();
        assert_eq!(follower.epoch(), leader.epoch(), "fell behind at {e}");
        assert_eq!(follower.lag_epochs(), 0);
    }
    // The follower never needed a checkpoint restore: it was caught up
    // before every prune, so replay stayed pure log.
    let report = follower.poll().unwrap();
    assert_eq!(report.status, PollStatus::CaughtUp);
}
