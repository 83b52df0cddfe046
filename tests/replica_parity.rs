//! Replica parity suite: whatever the workload does and however the
//! follower's polling is scheduled, the converged follower is
//! **bit**-identical to the leader.
//!
//! The proptest drives an arbitrary `dh_gen` update stream through a
//! durable leader while a follower is polled, paused, or dropped and
//! reopened (a replica restart) between epochs, chosen by a generated
//! schedule. With no checkpoints in play the follower's whole history
//! is pure log replay, so the final `SnapshotSet` must match the
//! leader's span for span in raw bits — for plan-less and sharded
//! columns alike.
//!
//! Deterministic companions pin down the edges the random schedule
//! can't guarantee it hits: a mid-stream re-shard that *must* move
//! (skewed workload), whose replay at the exact barrier is proven by
//! the shard-load counters matching the leader's integer for integer;
//! a mid-stream shape change (shard-count growth plus an online
//! algorithm migration) replayed the same way; and a leader
//! crash-and-reopen mid-stream that the follower tails straight
//! through.

use dynamic_histograms::prelude::*;
use dynamic_histograms::replica::Follower;
use proptest::prelude::*;

const DOMAIN: (i64, i64) = (0, 999);

#[derive(Debug, Clone, Copy)]
enum Design {
    /// A column registered without a plan: one shard, one lock.
    PlanLess,
    /// A 4-shard column.
    Sharded,
}

impl Design {
    fn all() -> [Design; 2] {
        [Design::PlanLess, Design::Sharded]
    }

    fn config(self) -> ColumnConfig {
        let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5)).with_seed(3);
        match self {
            Design::PlanLess => config,
            Design::Sharded => config.with_plan(ShardPlan::new(DOMAIN.0, DOMAIN.1, 4).unwrap()),
        }
    }
}

fn opts() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Off,
        checkpoint_every: None,
        retain_generations: 2,
    }
}

fn span_bits(snap: &Snapshot) -> Vec<(u64, u64, u64)> {
    snap.spans()
        .iter()
        .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
        .collect()
}

/// What the schedule does to the follower between two leader epochs.
#[derive(Debug, Clone, Copy)]
enum Step {
    Poll,
    Pause,
    Restart,
}

impl Step {
    /// Decodes one generated schedule byte.
    fn decode(byte: u8) -> Step {
        match byte % 3 {
            0 => Step::Poll,
            1 => Step::Pause,
            _ => Step::Restart,
        }
    }
}

/// Replays `batches` through a leader of `design` while driving the
/// follower by `schedule`, then converges and demands bit-identity.
fn run_parity(design: Design, batches: &[Vec<UpdateOp>], schedule: &[Step]) {
    let dir = TempDir::new("replica-parity");
    let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap();
    leader.register("c", design.config()).unwrap();
    let mut follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();

    for (i, batch) in batches.iter().enumerate() {
        leader.apply("c", batch).unwrap();
        if i == batches.len() / 2 && !matches!(design, Design::PlanLess) {
            // Mid-stream border move; arbitrary workloads may or may
            // not be skewed enough for it to fire — parity must hold
            // either way (the deterministic test below forces it).
            let _ = leader.reshard("c").unwrap();
        }
        match schedule[i % schedule.len()] {
            Step::Poll => {
                follower.poll().unwrap();
            }
            Step::Pause => {}
            Step::Restart => {
                // A replica restart: all tailing state is gone; the
                // fresh follower replays the whole log from scratch.
                follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();
            }
        }
    }

    for _ in 0..16 {
        follower.poll().unwrap();
        if follower.epoch() == leader.epoch() {
            break;
        }
    }
    assert_eq!(follower.epoch(), leader.epoch());
    let ours = follower.snapshot_set(&["c"]).unwrap();
    let theirs = leader.snapshot_set(&["c"]).unwrap();
    assert_eq!(ours.epoch(), theirs.epoch());
    assert_eq!(
        span_bits(ours.get("c").unwrap()),
        span_bits(theirs.get("c").unwrap()),
        "{design:?}: follower state not bit-identical to the leader"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_workload_any_polling_schedule_converges_bit_identically(
        values in prop::collection::vec(DOMAIN.0..DOMAIN.1 + 1, 50..400),
        seed in any::<u64>(),
        batch in 1usize..40,
        schedule_bytes in prop::collection::vec(0u8..3, 4..24),
    ) {
        let stream = UpdateStream::build(&values, WorkloadKind::RandomInsertions, seed);
        let batches: Vec<Vec<UpdateOp>> = stream
            .ops()
            .chunks(batch)
            .map(<[UpdateOp]>::to_vec)
            .collect();
        let schedule: Vec<Step> = schedule_bytes.iter().copied().map(Step::decode).collect();
        for design in Design::all() {
            run_parity(design, &batches, &schedule);
        }
    }
}

/// The forced mid-stream re-shard: a skewed stream guarantees the
/// border move fires, and the follower must replay it at its **exact**
/// barrier — proven two ways: the final spans are bit-identical, and
/// the shard-load counters (which the leader resets at the barrier and
/// then accumulates under the new borders) match integer for integer.
/// A replay one epoch early or late would route some batch under the
/// wrong borders and break the counters even if the histogram healed.
#[test]
fn mid_stream_reshard_replays_at_its_exact_barrier() {
    let design = Design::Sharded;
    let dir = TempDir::new("replica-reshard");
    let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap();
    leader.register("c", design.config()).unwrap();
    let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();

    // Heavily skewed: everything lands in the first equal-width
    // shard, so the re-shard must move borders.
    for e in 0..12i64 {
        let batch: Vec<UpdateOp> = (0..32)
            .map(|j| UpdateOp::Insert((e * 7 + j) % 120))
            .collect();
        leader.apply("c", &batch).unwrap();
        if e == 6 {
            assert!(
                leader.reshard("c").unwrap(),
                "{design:?}: borders must move"
            );
        }
        follower.poll().unwrap();
    }
    follower.poll().unwrap();
    assert_eq!(follower.epoch(), leader.epoch());
    assert_eq!(
        follower.shard_load("c").unwrap(),
        leader.shard_load("c").unwrap(),
        "{design:?}: shard counters prove the barrier was missed"
    );
    assert_eq!(
        span_bits(&follower.snapshot("c").unwrap()),
        span_bits(&leader.snapshot("c").unwrap()),
        "{design:?}: post-re-shard state not bit-identical"
    );
}

/// Mid-stream **shape** changes: the leader grows the shard count and
/// then migrates the algorithm online; the follower replays each
/// `Rebuild` record at its exact barrier. Proven the same two ways as
/// the re-shard test — bit-identical spans, and shard-load counters
/// matching integer for integer (a replay one epoch off would route a
/// batch under the wrong borders) — plus the follower's live shape
/// matching the leader's, and a restarted follower replaying the whole
/// shape history from scratch to the same state.
#[test]
fn mid_stream_rebuild_replays_at_its_exact_barrier() {
    let design = Design::Sharded;
    let dir = TempDir::new("replica-rebuild");
    let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap();
    leader.register("c", design.config()).unwrap();
    let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();

    for e in 0..12i64 {
        let batch: Vec<UpdateOp> = (0..32)
            .map(|j| UpdateOp::Insert((e * 7 + j) % 120))
            .collect();
        leader.apply("c", &batch).unwrap();
        if e == 4 {
            assert!(leader
                .rebuild("c", RebuildPlan::new().with_shards(8))
                .unwrap());
        }
        if e == 8 {
            assert!(leader
                .rebuild("c", RebuildPlan::new().with_spec(AlgoSpec::Dado))
                .unwrap());
        }
        follower.poll().unwrap();
    }
    follower.poll().unwrap();
    assert_eq!(follower.epoch(), leader.epoch());
    assert_eq!(
        follower.shard_load("c").unwrap(),
        leader.shard_load("c").unwrap(),
        "{design:?}: shard counters prove a rebuild barrier was missed"
    );
    assert_eq!(
        span_bits(&follower.snapshot("c").unwrap()),
        span_bits(&leader.snapshot("c").unwrap()),
        "{design:?}: post-rebuild state not bit-identical"
    );
    let shape = follower.column_shape("c").unwrap().unwrap();
    assert_eq!(shape.shards, 8);
    assert_eq!(shape.spec, AlgoSpec::Dado);
    assert_eq!(shape, leader.column_shape("c").unwrap().unwrap());

    // A fresh follower replays the whole shape history from scratch.
    let restarted = Follower::open(dir.path(), StoreKind::Sharded).unwrap();
    restarted.poll().unwrap();
    assert_eq!(restarted.epoch(), leader.epoch());
    assert_eq!(
        span_bits(&restarted.snapshot("c").unwrap()),
        span_bits(&leader.snapshot("c").unwrap()),
        "{design:?}: restarted follower diverged across rebuilds"
    );
}

/// Back-to-back shape changes at the **same barrier**: rebuilds publish
/// no epoch, so a re-shard followed by two rebuilds with no commit in
/// between all log the same barrier — only their ordinals
/// (`WalRecord::Rebuild::seq`) tell them apart. A follower that deduped
/// on the barrier would skip everything after the first record and
/// silently diverge (while the leader's own recovery replays all
/// three); the ordinal-based dedup must apply each exactly once.
#[test]
fn same_barrier_rebuild_stack_replays_every_record() {
    let design = Design::Sharded;
    let dir = TempDir::new("replica-same-barrier");
    let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap();
    leader.register("c", design.config()).unwrap();
    let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();

    // Skewed mass so the border move is guaranteed to be a move.
    for e in 0..6i64 {
        let batch: Vec<UpdateOp> = (0..32)
            .map(|j| UpdateOp::Insert((e * 7 + j) % 120))
            .collect();
        leader.apply("c", &batch).unwrap();
        follower.poll().unwrap();
    }
    // Three shape changes, no commit between them: one barrier.
    assert!(
        leader.reshard("c").unwrap(),
        "{design:?}: borders must move"
    );
    assert!(leader
        .rebuild("c", RebuildPlan::new().with_shards(8))
        .unwrap());
    assert!(leader
        .rebuild("c", RebuildPlan::new().with_spec(AlgoSpec::Dado))
        .unwrap());
    for e in 6..10i64 {
        let batch: Vec<UpdateOp> = (0..32)
            .map(|j| UpdateOp::Insert((e * 7 + j) % 120))
            .collect();
        leader.apply("c", &batch).unwrap();
        follower.poll().unwrap();
    }
    follower.poll().unwrap();

    assert_eq!(follower.epoch(), leader.epoch());
    let shape = follower.column_shape("c").unwrap().unwrap();
    assert_eq!(shape.shards, 8, "{design:?}: second rebuild was skipped");
    assert_eq!(
        shape.spec,
        AlgoSpec::Dado,
        "{design:?}: third rebuild was skipped"
    );
    assert_eq!(
        follower.shard_load("c").unwrap(),
        leader.shard_load("c").unwrap(),
        "{design:?}: shard counters prove a same-barrier record was missed"
    );
    assert_eq!(
        span_bits(&follower.snapshot("c").unwrap()),
        span_bits(&leader.snapshot("c").unwrap()),
        "{design:?}: same-barrier rebuild stack not bit-identical"
    );

    // A fresh follower replays the stack from scratch to the same
    // state — and so does the leader's own recovery.
    let restarted = Follower::open(dir.path(), StoreKind::Sharded).unwrap();
    restarted.poll().unwrap();
    assert_eq!(
        span_bits(&restarted.snapshot("c").unwrap()),
        span_bits(&leader.snapshot("c").unwrap()),
        "{design:?}: restarted follower diverged across the stack"
    );
}

/// Rebuild ordinals survive checkpoint pruning: after the cadence
/// discards the segments holding a column's rebuild records, a
/// restarted leader must keep numbering where it left off (the
/// checkpoint carries the ordinal floor) — if it reissued ordinals a
/// follower restored from that same checkpoint had already applied,
/// the follower would skip every later shape change as a re-read.
#[test]
fn rebuild_ordinals_survive_checkpoint_pruning_and_leader_restart() {
    let dir = TempDir::new("replica-seq-ckpt");
    let opts = DurableOptions {
        sync: SyncPolicy::Off,
        checkpoint_every: Some(8),
        retain_generations: 2,
    };
    let design = Design::Sharded;
    {
        let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        leader.register("c", design.config()).unwrap();
        for e in 0..6i64 {
            let batch: Vec<UpdateOp> = (0..32)
                .map(|j| UpdateOp::Insert((e * 7 + j) % 120))
                .collect();
            leader.apply("c", &batch).unwrap();
        }
        // Three ordinals issued, then checkpointed away: the records
        // are pruned, the checkpoint floor is all that remains.
        assert!(leader.reshard("c").unwrap());
        assert!(leader
            .rebuild("c", RebuildPlan::new().with_shards(8))
            .unwrap());
        assert!(leader
            .rebuild("c", RebuildPlan::new().with_spec(AlgoSpec::Dado))
            .unwrap());
        leader.checkpoint_now().unwrap();
    }

    let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();
    follower.poll().unwrap();
    assert_eq!(follower.epoch(), leader.epoch());

    // A shape change issued *after* the restart must reach the
    // follower: its ordinal has to land above the checkpoint floor.
    leader.apply("c", &[UpdateOp::Insert(3)]).unwrap();
    assert!(leader
        .rebuild("c", RebuildPlan::new().with_shards(4))
        .unwrap());
    leader.apply("c", &[UpdateOp::Insert(9)]).unwrap();
    follower.poll().unwrap();
    follower.poll().unwrap();

    assert_eq!(follower.epoch(), leader.epoch());
    assert_eq!(
        follower.column_shape("c").unwrap().unwrap().shards,
        4,
        "post-restart rebuild was skipped as a reissued ordinal"
    );
    assert_eq!(
        span_bits(&follower.snapshot("c").unwrap()),
        span_bits(&leader.snapshot("c").unwrap()),
        "follower diverged across the pruned rebuild history"
    );
}

/// A leader crash-and-reopen mid-stream: recovery replays the leader's
/// own log (deterministically, to the identical state) and resumes
/// appending to the same changelog; a follower that was tailing it
/// keeps polling straight through and still converges bit-identically.
#[test]
fn leader_restart_mid_stream_keeps_the_follower_tailing() {
    for design in Design::all() {
        let dir = TempDir::new("replica-leader-restart");
        let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap();
        leader.register("c", design.config()).unwrap();
        let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();

        for e in 0..6i64 {
            leader
                .apply("c", &[UpdateOp::Insert(e * 41 % 1000), UpdateOp::Insert(e)])
                .unwrap();
            follower.poll().unwrap();
        }
        assert_eq!(follower.epoch(), 6);

        // Crash: drop the leader (sync on drop), recover it from its
        // own changelog, keep publishing.
        drop(leader);
        let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts()).unwrap();
        assert_eq!(leader.epoch(), 6);
        for e in 6..12i64 {
            leader
                .apply("c", &[UpdateOp::Insert(e * 41 % 1000), UpdateOp::Insert(e)])
                .unwrap();
            follower.poll().unwrap();
        }

        follower.poll().unwrap();
        assert_eq!(follower.epoch(), leader.epoch());
        assert_eq!(
            span_bits(&follower.snapshot("c").unwrap()),
            span_bits(&leader.snapshot("c").unwrap()),
            "{design:?}: follower diverged across a leader restart"
        );
    }
}
