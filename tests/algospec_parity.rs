//! Parity suite for the `AlgoSpec` registry: driving the same update
//! stream through the object-safe `Box<dyn DynHistogram>` path and
//! through the concrete generic path must land on identical spans and
//! identical KS error, for every algorithm in the registry.
//!
//! This is the contract that makes the trait split safe: the registry is
//! a packaging layer, never a different algorithm.

use dynamic_histograms::core::dynamic::{DadoHistogram, DcHistogram, DvoHistogram};
use dynamic_histograms::core::{ks_error, BucketSpan, DataDistribution, HistogramClass, UpdateOp};
use dynamic_histograms::optimizer::SpanHistogram;
use dynamic_histograms::prelude::*;
use dynamic_histograms::sample::AcHistogram;
use proptest::prelude::*;

/// The concrete, statically dispatched path the workspace used before the
/// registry existed: named types, generic `Histogram::apply`.
fn concrete_spans(
    spec: AlgoSpec,
    memory: MemoryBudget,
    seed: u64,
    ops: &[UpdateOp],
    truth: &DataDistribution,
) -> Vec<BucketSpan> {
    let n_bc = memory.buckets(HistogramClass::BorderAndCount);
    let n_b2 = memory.buckets(HistogramClass::BorderAndTwoCounters);
    let replay = ops.iter().copied();
    match spec {
        AlgoSpec::Dc => {
            let mut h = DcHistogram::new(n_bc);
            h.apply(replay);
            h.spans()
        }
        AlgoSpec::Dvo => {
            let mut h = DvoHistogram::new(n_b2);
            h.apply(replay);
            h.spans()
        }
        AlgoSpec::Dado => {
            let mut h = DadoHistogram::new(n_b2);
            h.apply(replay);
            h.spans()
        }
        AlgoSpec::Ac { disk_factor } => {
            let mut h = AcHistogram::new(n_bc, memory.sample_elements(disk_factor).max(1), seed);
            h.apply(replay);
            h.spans()
        }
        AlgoSpec::EquiWidth => EquiWidthHistogram::build(truth, n_bc).spans(),
        AlgoSpec::EquiDepth => EquiDepthHistogram::build(truth, n_bc).spans(),
        AlgoSpec::Compressed => CompressedHistogram::build(truth, n_bc).spans(),
        AlgoSpec::VOptimal => VOptimalHistogram::build(truth, n_bc).spans(),
        AlgoSpec::Sado => SadoHistogram::build(truth, n_bc).spans(),
        AlgoSpec::Ssbm => SsbmHistogram::build(truth, n_bc).spans(),
    }
}

/// A mixed insert/delete stream over a narrow domain (provokes spikes,
/// repartitions and bucket borrowing), plus its exact live distribution.
fn stream_strategy() -> impl Strategy<Value = (Vec<UpdateOp>, DataDistribution)> {
    (prop::collection::vec(0i64..150, 1..600), any::<u64>()).prop_map(|(values, seed)| {
        let stream = UpdateStream::build(
            &values,
            WorkloadKind::InsertionsWithRandomDeletions {
                delete_probability: 0.25,
            },
            seed,
        );
        let truth = DataDistribution::from_values(&stream.final_multiset());
        (stream.ops(), truth)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dyn_path_matches_concrete_path_for_every_spec(
        case in stream_strategy(),
        seed in 0u64..1000,
    ) {
        let (ops, truth) = case;
        let memory = MemoryBudget::from_kb(0.25);
        for spec in AlgoSpec::all() {
            // Object-safe path: registry build, batched replay through the
            // trait object.
            let mut boxed = spec.build(memory, seed);
            boxed.apply_slice(&ops);
            let dyn_spans = boxed.spans();

            // Concrete generic path.
            let spans = concrete_spans(spec, memory, seed, &ops, &truth);

            prop_assert_eq!(
                &dyn_spans, &spans,
                "{}: dyn and concrete spans diverge", spec.label()
            );
            let dyn_ks = ks_error(&boxed, &truth);
            let concrete_ks = ks_error(&SpanHistogram::new(spans), &truth);
            prop_assert!(
                (dyn_ks - concrete_ks).abs() == 0.0,
                "{}: KS diverges: dyn {} vs concrete {}", spec.label(), dyn_ks, concrete_ks
            );
        }
    }

    #[test]
    fn dyn_path_is_deterministic_per_seed(
        case in stream_strategy(),
        seed in 0u64..1000,
    ) {
        let (ops, _truth) = case;
        let memory = MemoryBudget::from_kb(0.25);
        for spec in AlgoSpec::all() {
            let mut a = spec.build(memory, seed);
            let mut b = spec.build(memory, seed);
            a.apply_slice(&ops);
            b.apply_slice(&ops);
            prop_assert_eq!(a.spans(), b.spans(), "{}: nondeterministic", spec.label());
        }
    }
}

/// Batch boundaries must be invisible: one big `apply_slice` and many
/// small ones are the same stream.
#[test]
fn algospec_label_parse_roundtrip_never_drifts() {
    // Deterministic sweep companion to the property test below: every
    // registry default round-trips bit-exactly.
    for spec in AlgoSpec::all() {
        assert_eq!(spec.label().parse::<AlgoSpec>().unwrap(), spec);
        assert_eq!(spec.to_string(), spec.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The registry has two legend sources — `Display`/`label` renders,
    /// `FromStr` parses — and CLIs (`repro --algos`) depend on them
    /// agreeing. Property-check the round trip for every variant,
    /// including arbitrary `AC{k}` disk factors, plus the documented
    /// parser liberties (case-insensitivity, optional `X` suffix).
    #[test]
    fn algospec_display_fromstr_roundtrip(variant in 0usize..10, k in 1usize..10_000) {
        let spec = match variant {
            0 => AlgoSpec::Dc,
            1 => AlgoSpec::Dvo,
            2 => AlgoSpec::Dado,
            3 => AlgoSpec::Ac { disk_factor: k },
            4 => AlgoSpec::EquiWidth,
            5 => AlgoSpec::EquiDepth,
            6 => AlgoSpec::Compressed,
            7 => AlgoSpec::VOptimal,
            8 => AlgoSpec::Sado,
            _ => AlgoSpec::Ssbm,
        };
        let label = spec.to_string();
        prop_assert_eq!(label.parse::<AlgoSpec>().unwrap(), spec, "label {}", label);
        // Parsing is case-insensitive both ways.
        prop_assert_eq!(label.to_ascii_lowercase().parse::<AlgoSpec>().unwrap(), spec);
        prop_assert_eq!(label.to_ascii_uppercase().parse::<AlgoSpec>().unwrap(), spec);
        if let AlgoSpec::Ac { disk_factor } = spec {
            // The rendered label carries the factor ("AC20X"), and the
            // suffixless spelling parses to the same spec.
            prop_assert_eq!(label.clone(), format!("AC{disk_factor}X"));
            prop_assert_eq!(format!("AC{disk_factor}").parse::<AlgoSpec>().unwrap(), spec);
        }
    }
}

#[test]
fn batching_is_invisible_to_the_histogram() {
    let values: Vec<i64> = (0..2000).map(|i| (i * 29) % 140).collect();
    let stream = UpdateStream::build(&values, WorkloadKind::RandomInsertions, 5);
    let ops = stream.ops();
    let memory = MemoryBudget::from_kb(0.25);
    for spec in AlgoSpec::all() {
        let mut whole = spec.build(memory, 3);
        whole.apply_slice(&ops);
        let mut chunked = spec.build(memory, 3);
        for chunk in ops.chunks(37) {
            chunked.apply_slice(chunk);
        }
        assert_eq!(
            whole.spans(),
            chunked.spans(),
            "{}: batch boundaries changed the result",
            spec.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `GlobalStrategy` mirrors the `AlgoSpec` legend contract: parsing
    /// accepts what `Display` renders, case-insensitively and with
    /// arbitrary interior whitespace, for
    /// both of the paper's Section 8 strategies plus the short codes.
    #[test]
    fn global_strategy_display_fromstr_roundtrip(
        variant in 0usize..2,
        spaces in prop::collection::vec(0usize..4, 3..4),
    ) {
        use dynamic_histograms::distributed::GlobalStrategy;
        let strategy = GlobalStrategy::all()[variant];
        let label = strategy.to_string();
        prop_assert_eq!(label.parse::<GlobalStrategy>().unwrap(), strategy);
        prop_assert_eq!(
            label.to_ascii_uppercase().parse::<GlobalStrategy>().unwrap(),
            strategy
        );
        // Whitespace-injected spellings parse to the same strategy.
        let words: Vec<&str> = label.split(' ').collect();
        let mut padded = String::new();
        for (word, pad) in words.iter().zip(spaces.iter().chain(std::iter::repeat(&1))) {
            padded.push_str(&" ".repeat(*pad));
            padded.push_str(word);
        }
        prop_assert_eq!(padded.parse::<GlobalStrategy>().unwrap(), strategy);
        // The short code round-trips too.
        let code = match strategy {
            GlobalStrategy::HistogramThenUnion => "hu",
            GlobalStrategy::UnionThenHistogram => "uh",
        };
        prop_assert_eq!(code.parse::<GlobalStrategy>().unwrap(), strategy);
    }
}
