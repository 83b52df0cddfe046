//! Shard-routing invariants, checked through `&dyn ColumnStore`: a
//! sharded column must serve the same estimates as the single histogram
//! it decomposes — a plan-less column, or a bare `AlgoSpec::build`
//! histogram fed the same ops.
//!
//! Three levels of parity, checked over property-generated mixed
//! insert/delete streams:
//!
//! 1. **Exact** — total mass equals the unsharded column's (and the
//!    truth's) to float precision; a *single*-shard column, with or
//!    without a plan, is bit-identical to the bare histogram
//!    (superposing one member is lossless); a plan decoded from a log
//!    whose retired channel byte is set replays identically to a plain
//!    one.
//! 2. **Sharper** — ranges aligned on shard boundaries are *exact*
//!    against the ground truth (per-shard mass conservation), which the
//!    unsharded histogram cannot promise.
//! 3. **Approximate** — arbitrary ranges stay within a KS-style band of
//!    both the truth and the unsharded estimate.

use dynamic_histograms::catalog::durable::config_from_record;
use dynamic_histograms::core::{BucketSpan, DataDistribution, ReadHistogram, UpdateOp};
use dynamic_histograms::prelude::*;
use dynamic_histograms::wal::record::read_frame;
use dynamic_histograms::wal::{write_framed, Frame, WalRecord, Writer};
use proptest::prelude::*;

const DOMAIN: (i64, i64) = (0, 149);

/// A batched mixed insert/delete stream over a narrow domain, plus its
/// exact live distribution.
fn stream_strategy() -> impl Strategy<Value = (Vec<Vec<UpdateOp>>, DataDistribution)> {
    (
        prop::collection::vec(DOMAIN.0..DOMAIN.1 + 1, 50..600),
        any::<u64>(),
        1usize..80,
    )
        .prop_map(|(values, seed, batch)| {
            let stream = UpdateStream::build(
                &values,
                WorkloadKind::InsertionsWithRandomDeletions {
                    delete_probability: 0.25,
                },
                seed,
            );
            let truth = DataDistribution::from_values(&stream.final_multiset());
            let ops = stream.ops();
            let batches = ops.chunks(batch).map(<[UpdateOp]>::to_vec).collect();
            (batches, truth)
        })
}

fn exact_count(truth: &DataDistribution, a: i64, b: i64) -> f64 {
    truth
        .iter()
        .filter(|&(v, _)| (a..=b).contains(&v))
        .map(|(_, c)| c as f64)
        .sum()
}

/// Spans as raw bit patterns, for bit-identity assertions.
fn bits(spans: &[BucketSpan]) -> Vec<(u64, u64, u64)> {
    spans
        .iter()
        .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
        .collect()
}

/// Builds a store with one column `"c"` registered from `config` (with
/// or without a plan); everything downstream drives `&dyn ColumnStore`.
fn build_store(config: ColumnConfig) -> Box<dyn ColumnStore> {
    let store: Box<dyn ColumnStore> = Box::new(ShardedCatalog::new());
    store.register("c", config).unwrap();
    store
}

/// The same config without its shard plan: one shard over all of `i64`.
fn unsharded(config: ColumnConfig) -> ColumnConfig {
    ColumnConfig {
        plan: None,
        ..config
    }
}

/// Decodes the config of a hand-written register record whose plan
/// carries `channel` in its retired ingestion-mode byte.
fn config_from_logged_plan(config: ColumnConfig, channel: u8) -> ColumnConfig {
    let plan = config.plan.expect("a planned config");
    let mut w = Writer::new();
    w.u8(1); // register record
    w.str_("c");
    w.str_(&config.spec.label());
    w.u64(config.memory.bytes() as u64);
    w.u64(config.seed);
    w.u8(1); // flags: plan only
    w.i64(plan.domain().0);
    w.i64(plan.domain().1);
    w.u64(plan.shards() as u64);
    w.u8(channel);
    let mut frame = Vec::new();
    write_framed(&mut frame, &w.into_bytes()).unwrap();
    match read_frame(&frame, 0) {
        Frame::Record {
            record: WalRecord::Register { config, .. },
            ..
        } => config_from_record(&config).unwrap(),
        other => panic!("register frame did not decode: {other:?}"),
    }
}

/// Replays the batches through the store via the trait and returns the
/// flushed snapshot.
fn replay(store: &dyn ColumnStore, batches: &[Vec<UpdateOp>]) -> Snapshot {
    for b in batches {
        store.apply("c", b).unwrap();
    }
    store.flush("c").unwrap();
    store.snapshot("c").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_estimates_match_unsharded(
        case in stream_strategy(),
        seed in 0u64..1000,
        shards in 2usize..6,
    ) {
        let (batches, truth) = case;
        let memory = MemoryBudget::from_kb(0.5);
        let plan = ShardPlan::new(DOMAIN.0, DOMAIN.1, shards).unwrap();
        for spec in [AlgoSpec::Dc, AlgoSpec::Dado] {
            let config = ColumnConfig::new(spec, memory).with_seed(seed).with_plan(plan);
            let unsharded = build_store(unsharded(config));
            let sharded = build_store(config);
            let u = replay(unsharded.as_ref(), &batches);
            let s = replay(sharded.as_ref(), &batches);

            // 1. Exact total-mass parity (both conserve mass exactly).
            let total = truth.total() as f64;
            prop_assert!((u.total_count() - total).abs() < 1e-6);
            prop_assert!(
                (s.total_count() - total).abs() < 1e-6,
                "{}: sharded total {} != {}", spec.label(), s.total_count(), total
            );

            // 2. Shard-aligned ranges are exact against ground truth.
            for i in 0..shards {
                let (a, b) = plan.shard_range(i);
                let est = s.estimate_range(a, b);
                let exact = exact_count(&truth, a, b);
                prop_assert!(
                    (est - exact).abs() < 1e-6,
                    "{}: shard {i} [{a},{b}] est {est} != exact {exact}",
                    spec.label()
                );
            }

            // 3. Arbitrary ranges: sharded stays in a KS-style band of
            // both the truth and the unsharded estimate.
            let slack = 0.25 * total + 2.0;
            let width = DOMAIN.1 - DOMAIN.0 + 1;
            for k in 0..8 {
                let a = DOMAIN.0 + k * width / 8;
                let b = a + width / 5;
                let es = s.estimate_range(a, b);
                let eu = u.estimate_range(a, b);
                let exact = exact_count(&truth, a, b);
                prop_assert!(
                    (es - exact).abs() <= slack,
                    "{}: [{a},{b}] sharded {es} vs exact {exact} (slack {slack})",
                    spec.label()
                );
                prop_assert!(
                    (es - eu).abs() <= slack,
                    "{}: [{a},{b}] sharded {es} vs unsharded {eu} (slack {slack})",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn one_shard_is_estimate_identical_to_unsharded(
        case in stream_strategy(),
        seed in 0u64..1000,
    ) {
        let (batches, _) = case;
        let memory = MemoryBudget::from_kb(0.5);
        let plan = ShardPlan::new(DOMAIN.0, DOMAIN.1, 1).unwrap();
        for spec in [AlgoSpec::Dc, AlgoSpec::Dado, AlgoSpec::EquiDepth] {
            let config = ColumnConfig::new(spec, memory).with_seed(seed).with_plan(plan);
            let mut bare = spec.build(memory, seed);
            for b in &batches {
                bare.apply_slice(b);
            }
            let u = replay(build_store(unsharded(config)).as_ref(), &batches);
            let s = replay(build_store(config).as_ref(), &batches);
            // A single member's spans pass through composition
            // untouched, so both columns render the bare histogram's
            // spans bit for bit ...
            let want = bits(&bare.as_read().spans());
            prop_assert_eq!(&want, &bits(&u.spans()), "{}", spec.label());
            prop_assert_eq!(&want, &bits(&s.spans()), "{}", spec.label());
            // ... and every estimate read off those spans agrees too.
            prop_assert_eq!(u.total_count().to_bits(), s.total_count().to_bits());
            for v in (DOMAIN.0..=DOMAIN.1).step_by(7) {
                prop_assert_eq!(
                    u.estimate_le(v).to_bits(),
                    s.estimate_le(v).to_bits(),
                    "{}: CDF diverges at {}", spec.label(), v
                );
            }
        }
    }

    #[test]
    fn out_of_domain_ops_clamp_loudly_with_total_parity(
        case in stream_strategy(),
        seed in 0u64..1000,
        shards in 2usize..6,
    ) {
        // The stream draws values over [0, 149], but the shard domain is
        // registered as [25, 124]: a third of the value range routes
        // from outside the domain and clamps into the edge shards. The
        // clamp must be *loud* (counted per column) and must not lose
        // mass versus the plan-less column, which never clamps.
        let (batches, truth) = case;
        let memory = MemoryBudget::from_kb(0.5);
        let plan = ShardPlan::new(25, 124, shards).unwrap();
        let config = ColumnConfig::new(AlgoSpec::Dc, memory).with_seed(seed).with_plan(plan);
        let unsharded = build_store(unsharded(config));
        let sharded = build_store(config);
        let u = replay(unsharded.as_ref(), &batches);
        let s = replay(sharded.as_ref(), &batches);

        // Exact total-mass parity: clamped routing reroutes ops, never
        // drops them.
        let total = truth.total() as f64;
        prop_assert!((u.total_count() - total).abs() < 1e-6);
        prop_assert!(
            (s.total_count() - total).abs() < 1e-6,
            "sharded total {} != {} with clamped ops", s.total_count(), total
        );

        // The counter reports exactly the inserts *and* deletes whose
        // value lay outside [25, 124]; the plan-less column clamps
        // nothing.
        let expected: u64 = batches
            .iter()
            .flatten()
            .filter(|op| {
                let v = match op {
                    UpdateOp::Insert(v) | UpdateOp::Delete(v) => *v,
                };
                !(25..=124).contains(&v)
            })
            .count() as u64;
        prop_assert_eq!(sharded.clamped_ops("c").unwrap(), expected);
        prop_assert_eq!(unsharded.clamped_ops("c").unwrap(), 0);

        // In-domain estimates stay in the same KS-style band as the
        // plan-less column (the edge shards absorb the outside mass at
        // its true values, so interior reads are not skewed).
        let slack = 0.25 * total + 2.0;
        for k in 0..5 {
            let a = 30 + k * 18;
            let b = a + 15;
            let eu = u.estimate_range(a, b);
            let es = s.estimate_range(a, b);
            prop_assert!(
                (es - eu).abs() <= slack,
                "[{a},{b}]: sharded {es} vs unsharded {eu} (slack {slack})"
            );
        }
    }

    #[test]
    fn channel_mode_is_identical_to_locked_mode_single_writer(
        case in stream_strategy(),
        seed in 0u64..1000,
        shards in 1usize..5,
    ) {
        // Channel ingestion is retired: a logged plan whose ingestion
        // byte says "channel" decodes to the plain plan, and the column
        // it registers replays exactly like the locked one.
        let (batches, _) = case;
        let memory = MemoryBudget::from_kb(0.5);
        let plan = ShardPlan::new(DOMAIN.0, DOMAIN.1, shards).unwrap();
        let config = ColumnConfig::new(AlgoSpec::Dc, memory).with_seed(seed).with_plan(plan);
        let logged = config_from_logged_plan(config, 1);
        prop_assert_eq!(logged, config);
        prop_assert_eq!(config_from_logged_plan(config, 0), config);
        let l = replay(build_store(config).as_ref(), &batches);
        let c = replay(build_store(logged).as_ref(), &batches);
        prop_assert_eq!(bits(&l.spans()), bits(&c.spans()));
        prop_assert_eq!(l.checkpoint(), c.checkpoint());
        prop_assert_eq!(l.epoch(), c.epoch());
    }
}
