//! Chaos replication suite: a `Follower` raced against `ChaosDir`, the
//! fault-injecting segment copier.
//!
//! A leader publishes a fixed-shape workload (every epoch inserts
//! exactly `OPS` values) while a chaos copier replicates its changelog
//! directory with injected faults — tails truncated at arbitrary byte
//! boundaries, files delayed and reordered, checkpoints deleted
//! mid-copy, leader prunes mirrored under the reader's feet. The
//! contract under test, after every fault:
//!
//! * the follower only ever exposes **whole-epoch** states — its served
//!   mass is exactly `OPS * epoch` at every observation point, and its
//!   epoch never moves backwards;
//! * faults are never errors — `poll` reports `Stalled`/`Restored` and
//!   keeps serving;
//! * once the faults stop (`ChaosDir::settle`), the follower converges
//!   to the leader's exact epoch; with a pure-log history (no
//!   checkpoint restore in the follower's past) the converged state is
//!   **bit**-identical, span for span.
//!
//! Every run ships the mid-stream re-shard too: the sharded leader moves
//! its borders halfway through, and the follower must replay the move
//! at its exact barrier for the bit-identity assertions to hold.

use dynamic_histograms::prelude::*;
use dynamic_histograms::replica::chaos::ChaosDir;

const OPS: u64 = 8;
const EPOCHS: u64 = 24;
const DOMAIN: (i64, i64) = (0, 999);

/// The column shapes a durable leader is driven with.
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

/// Epoch `e`'s batch: exactly `OPS` inserts, skewed low so a mid-stream
/// re-shard has borders worth moving.
fn epoch_ops(e: u64) -> Vec<UpdateOp> {
    (0..OPS)
        .map(|j| {
            let v = if (e + j) % 4 == 0 {
                (e * 37 + j * 113) % 1000
            } else {
                (e * 13 + j * 7) % 120
            };
            UpdateOp::Insert(v as i64)
        })
        .collect()
}

/// A snapshot's rendered spans as raw bits, the currency of the
/// bit-identity assertions.
fn span_bits(snap: &Snapshot) -> Vec<(u64, u64, u64)> {
    snap.spans()
        .iter()
        .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
        .collect()
}

/// One full chaos replay. `checkpoint_every: None` keeps the follower's
/// history pure log replay (strict bit-identity at the end); a cadence
/// arms leader-side pruning, so the follower may have to restore from a
/// checkpoint mid-storm (mass-exact, epoch-exact convergence, and still
/// bit-identical whenever no restore actually fired).
fn run_chaos(design: Design, chaos_seed: u64, checkpoint_every: Option<u64>) {
    let leader_dir = TempDir::new("chaos-leader");
    let follower_dir = TempDir::new("chaos-follower");
    let leader = DurableStore::open(
        leader_dir.path(),
        StoreKind::Sharded,
        DurableOptions {
            sync: SyncPolicy::Off,
            checkpoint_every,
            retain_generations: 2,
        },
    )
    .unwrap();
    leader.register("c", design.config()).unwrap();

    let mut chaos = ChaosDir::new(leader_dir.path(), follower_dir.path(), chaos_seed).unwrap();
    let follower =
        dynamic_histograms::replica::Follower::open(chaos.follower_dir(), StoreKind::Sharded)
            .unwrap();

    let mut saw_restore = false;
    let mut last_epoch = 0u64;
    for e in 1..=EPOCHS {
        leader.apply("c", &epoch_ops(e)).unwrap();
        if e == EPOCHS / 2 && !matches!(design, Design::PlanLess) {
            // Mid-stream border move; the skewed batches guarantee the
            // equal-width plan is imbalanced enough to actually move.
            assert!(leader.reshard("c").unwrap(), "re-shard should move");
        }
        chaos.step().unwrap();
        let report = follower.poll().unwrap();
        saw_restore |= report.status == PollStatus::Restored;

        // Whole-epoch invariant at every observation point: the served
        // mass is exactly OPS per applied epoch, and epochs only grow.
        let at = follower.epoch();
        assert!(at >= last_epoch, "follower epoch moved backwards");
        last_epoch = at;
        if follower.contains("c") {
            // A torn epoch would be off by at least one whole insert
            // (1.0); the bucket arithmetic's float drift is ~1e-13.
            let total = follower.total_count("c").unwrap();
            assert!(
                (total - (OPS * at) as f64).abs() < 1e-6,
                "{design:?}/seed {chaos_seed}: partial epoch exposed at {at} (mass {total})"
            );
        }
        assert!(
            follower.leader_epoch_hint() <= leader.epoch(),
            "hint overshot the leader"
        );
    }

    // The storm ends: a faithful final copy, then the follower must
    // converge to the leader's exact epoch within a bounded number of
    // polls (gap rewinds cost extra polls, never divergence).
    chaos.settle().unwrap();
    let mut caught_up = false;
    for _ in 0..64 {
        follower.poll().unwrap();
        if follower.epoch() == leader.epoch() {
            caught_up = true;
            break;
        }
    }
    assert!(
        caught_up,
        "{design:?}/seed {chaos_seed}: follower never converged \
         (follower {} vs leader {})",
        follower.epoch(),
        leader.epoch()
    );
    assert_eq!(follower.lag_epochs(), 0);
    let leader_total = leader.total_count("c").unwrap();
    let follower_total = follower.total_count("c").unwrap();
    if saw_restore {
        // A checkpoint restore rebuilds integer masses by largest
        // remainder, shedding the leader's accumulated float drift —
        // equal mass, not necessarily equal bits.
        assert!(
            (leader_total - follower_total).abs() < 1e-6,
            "{design:?}/seed {chaos_seed}: mass diverged after convergence"
        );
    } else {
        assert_eq!(
            follower_total.to_bits(),
            leader_total.to_bits(),
            "{design:?}/seed {chaos_seed}: mass diverged after convergence"
        );
    }
    if checkpoint_every.is_none() {
        assert!(!saw_restore, "nothing to restore from without checkpoints");
    }
    if !saw_restore {
        // Pure log replay end to end: the converged state must be
        // bit-identical, span for span.
        assert_eq!(
            span_bits(&follower.snapshot("c").unwrap()),
            span_bits(&leader.snapshot("c").unwrap()),
            "{design:?}/seed {chaos_seed}: converged state not bit-identical"
        );
    }
}

#[test]
fn faulted_stream_exposes_whole_epochs_and_converges_bit_identically() {
    for design in Design::all() {
        for chaos_seed in [1, 7, 42, 1234] {
            run_chaos(design, chaos_seed, None);
        }
    }
}

#[test]
fn checkpoint_pruning_under_chaos_still_converges() {
    for design in Design::all() {
        for chaos_seed in [3, 19, 77] {
            run_chaos(design, chaos_seed, Some(4));
        }
    }
}
