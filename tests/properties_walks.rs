//! Property tests (proptest) for the walk-storage layer the parallel
//! generators shard through: `Lambda` count/total consistency, and
//! `WalkArenaBuilder` push/append/build round-trips under arbitrary
//! shard interleavings — the exact merge pattern the rayon pool drives.
//! Also: a truncation reset to pristine is a fresh truncation, the
//! shared occurrence index (compacted over grouped arenas) truncates
//! exactly like the full first-occurrence lists, and the rank greedy's
//! pair lists only lose weight as seeds are committed.
//!
//! This suite is what surfaced the derived-`Default` bug in
//! `WalkArenaBuilder` (an empty default builder lacked the leading 0
//! offset, so appending into one shifted every walk boundary).

use proptest::prelude::*;
use std::sync::Arc;
use vom::core::estimate::OpinionEstimate;
use vom::graph::builder::graph_from_edges;
use vom::graph::Node;
use vom::sketch::SketchSet;
use vom::walks::{
    Lambda, OccurrenceIndex, OpinionEstimator, Truncation, UserPairs, WalkArena, WalkArenaBuilder,
};

/// Arbitrary non-empty walks (each at least its start node).
fn arb_walks() -> impl Strategy<Value = Vec<Vec<Node>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..60, 1..6), 0..30)
}

/// Pushes `walks` through one builder.
fn build_shard(walks: &[Vec<Node>]) -> WalkArenaBuilder {
    let mut builder = WalkArenaBuilder::with_capacity(walks.len(), 2);
    for walk in walks {
        for &v in walk {
            builder.push_node(v);
        }
        builder.finish_walk();
    }
    builder
}

/// Splits `walks` into `chunk`-sized shards and merges them in order —
/// the parallel generators' shard/append pattern.
fn build_chunked(walks: &[Vec<Node>], chunk: usize, groups: Option<Vec<usize>>) -> WalkArena {
    let mut merged = WalkArenaBuilder::default();
    for shard in walks.chunks(chunk.max(1)) {
        merged.append(build_shard(shard));
    }
    merged.build(groups)
}

/// Walks grouped by start node: entry `v` holds the walks starting at
/// `v` (every walk begins with its group's node id).
fn arb_grouped_walks() -> impl Strategy<Value = Vec<Vec<Vec<Node>>>> {
    (1usize..6).prop_flat_map(|n| {
        proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u32..(n as Node), 0..4), 0..4),
            n,
        )
        .prop_map(|per_node| {
            per_node
                .into_iter()
                .enumerate()
                .map(|(v, tails)| {
                    tails
                        .into_iter()
                        .map(|tail| {
                            let mut walk = vec![v as Node];
                            walk.extend(tail);
                            walk
                        })
                        .collect()
                })
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lambda_per_node_total_matches_count_sum(
        counts in proptest::collection::vec(0u32..200, 1..50),
    ) {
        let n = counts.len();
        let lambda = Lambda::PerNode(counts.clone());
        let by_count: usize = (0..n as Node).map(|v| lambda.count(v)).sum();
        prop_assert_eq!(lambda.total(n), by_count);
        for (v, &c) in counts.iter().enumerate() {
            prop_assert_eq!(lambda.count(v as Node), c as usize);
        }
    }

    #[test]
    fn lambda_uniform_total_is_count_times_n(l in 0usize..500, n in 0usize..80) {
        let lambda = Lambda::Uniform(l);
        prop_assert_eq!(lambda.total(n), l * n);
        if n > 0 {
            prop_assert_eq!(lambda.count((n - 1) as Node), l);
        }
    }

    #[test]
    fn chunked_builds_round_trip_walks(
        walks in arb_walks(),
        chunk in 1usize..8,
    ) {
        let arena = build_chunked(&walks, chunk, None);
        prop_assert_eq!(arena.num_walks(), walks.len());
        for (i, walk) in walks.iter().enumerate() {
            prop_assert_eq!(arena.walk(i), &walk[..]);
            prop_assert_eq!(arena.start(i), walk[0]);
        }
        prop_assert_eq!(
            arena.total_nodes(),
            walks.iter().map(Vec::len).sum::<usize>()
        );
        // Shard size must never leak into the result.
        prop_assert_eq!(arena, build_chunked(&walks, walks.len().max(1), None));
    }

    #[test]
    fn append_of_an_empty_builder_is_identity_on_either_side(
        walks in arb_walks(),
    ) {
        let reference = build_shard(&walks).build(None);

        // Empty right-hand side: nothing changes.
        let mut left = build_shard(&walks);
        left.append(WalkArenaBuilder::default());
        prop_assert_eq!(&left.build(None), &reference);

        // Empty left-hand side: offsets and starts carry over intact.
        let mut right_into_empty = WalkArenaBuilder::default();
        prop_assert_eq!(right_into_empty.num_walks(), 0);
        right_into_empty.append(build_shard(&walks));
        prop_assert_eq!(right_into_empty.num_walks(), walks.len());
        prop_assert_eq!(&right_into_empty.build(None), &reference);
    }

    #[test]
    fn group_ranges_partition_grouped_builds(
        (grouped, chunk) in (arb_grouped_walks(), 1usize..5),
    ) {
        let flat: Vec<Vec<Node>> = grouped.iter().flatten().cloned().collect();
        let mut groups = Vec::with_capacity(grouped.len() + 1);
        groups.push(0usize);
        let mut acc = 0;
        for walks in &grouped {
            acc += walks.len();
            groups.push(acc);
        }
        let arena = build_chunked(&flat, chunk, Some(groups));

        prop_assert!(arena.has_groups());
        prop_assert_eq!(arena.num_groups(), Some(grouped.len()));
        let mut covered = 0;
        for (v, walks) in grouped.iter().enumerate() {
            let range = arena.group_range(v as Node).expect("grouped arena");
            prop_assert_eq!(range.start, covered, "ranges must be contiguous");
            prop_assert_eq!(range.len(), walks.len());
            covered = range.end;
            for (i, walk) in range.clone().zip(walks) {
                prop_assert_eq!(arena.walk(i), &walk[..]);
                prop_assert_eq!(arena.start(i), v as Node);
            }
        }
        prop_assert_eq!(covered, arena.num_walks(), "ranges must cover the arena");
    }
}

/// Builds a grouped arena from per-node walk lists.
fn grouped_arena(grouped: &[Vec<Vec<Node>>]) -> WalkArena {
    let flat: Vec<Vec<Node>> = grouped.iter().flatten().cloned().collect();
    let mut groups = vec![0usize];
    for walks in grouped {
        groups.push(groups.last().unwrap() + walks.len());
    }
    build_chunked(&flat, flat.len().max(1), Some(groups))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A truncation reset to pristine after some seeds equals a fresh
    /// one in end positions and seeds, and an estimator over it gives
    /// the fresh estimator's bits under a second seed sequence.
    #[test]
    fn reset_truncation_equals_a_fresh_one(
        grouped in arb_grouped_walks(),
        cells in proptest::collection::vec(0u32..21, 6),
        first in proptest::collection::vec(0u32..6, 0..4),
        second in proptest::collection::vec(0u32..6, 0..4),
    ) {
        let n = grouped.len();
        let arena = grouped_arena(&grouped);
        let b0: Vec<f64> = (0..n).map(|v| f64::from(cells[v]) / 20.0).collect();
        let index = Arc::new(OccurrenceIndex::new(&arena, n));
        let fresh = Truncation::new(&arena, Arc::clone(&index));

        let mut used =
            OpinionEstimator::with_truncation(&arena, &b0, Truncation::new(&arena, index));
        for &s in &first {
            used.add_seed(s % n as Node);
        }
        let mut trunc = used.into_truncation();
        trunc.reset(&arena);
        prop_assert_eq!(trunc.num_walks(), fresh.num_walks());
        for i in 0..arena.num_walks() {
            prop_assert_eq!(trunc.end_pos(i), fresh.end_pos(i));
        }
        prop_assert!(Arc::ptr_eq(trunc.index(), fresh.index()));
        prop_assert!(trunc.seeds().is_empty());
        for v in 0..n as Node {
            prop_assert!(!trunc.is_seed(v), "node {} still a seed", v);
        }

        let mut reused = OpinionEstimator::with_truncation(&arena, &b0, trunc);
        let mut reference = OpinionEstimator::new(&arena, &b0);
        for &s in &second {
            let s = s % n as Node;
            prop_assert_eq!(reused.add_seed(s), reference.add_seed(s));
        }
        for v in 0..n as Node {
            prop_assert_eq!(reused.estimate(v).to_bits(), reference.estimate(v).to_bits());
            prop_assert_eq!(
                reused.cumulative_gain_of(v).to_bits(),
                reference.cumulative_gain_of(v).to_bits()
            );
        }
        prop_assert_eq!(reused.seeds(), reference.seeds());
    }
}

/// The flat reference: every walk of `arena` containing `u`, ascending,
/// with the position of `u`'s first occurrence in it.
fn flat_occurrences(arena: &WalkArena, u: Node) -> Vec<(usize, usize)> {
    (0..arena.num_walks())
        .filter_map(|i| arena.walk(i).iter().position(|&v| v == u).map(|p| (i, p)))
        .collect()
}

/// The reference truncation over the flat lists: cut each walk whose
/// live prefix holds `u` at `u`'s first occurrence, reporting
/// `(walk, old end node)` for every walk whose value changes.
fn reference_add_seed(
    arena: &WalkArena,
    end: &mut [usize],
    is_seed: &mut [bool],
    u: Node,
) -> Vec<(usize, Node)> {
    let mut calls = Vec::new();
    if is_seed[u as usize] {
        return calls;
    }
    for (walk, pos) in flat_occurrences(arena, u) {
        if pos > end[walk] {
            continue;
        }
        let old = arena.walk(walk)[end[walk]];
        end[walk] = pos;
        if !is_seed[old as usize] {
            calls.push((walk, old));
        }
    }
    is_seed[u as usize] = true;
    calls
}

/// Checks `arena`'s shared occurrence index against the flat reference:
/// the visitor yields each node's walks in order, and every seed of
/// `seeds` fires the reference's callbacks and leaves its end positions.
fn check_against_flat_reference(arena: &WalkArena, n: usize, seeds: &[Node]) {
    let index = Arc::new(OccurrenceIndex::new(arena, n));
    for u in 0..n as Node {
        let mut walks = Vec::new();
        index.for_each_walk(arena, u, |i| walks.push(i));
        let want: Vec<usize> = flat_occurrences(arena, u).iter().map(|&(i, _)| i).collect();
        assert_eq!(walks, want, "node {}", u);
    }
    let mut trunc = Truncation::new(arena, index);
    let mut end: Vec<usize> = (0..arena.num_walks())
        .map(|i| arena.walk(i).len() - 1)
        .collect();
    let mut is_seed = vec![false; n];
    for &s in seeds {
        let s = s % n as Node;
        let mut calls = Vec::new();
        trunc.add_seed(arena, s, |walk, old| calls.push((walk, old)));
        assert_eq!(calls, reference_add_seed(arena, &mut end, &mut is_seed, s));
        for (i, &e) in end.iter().enumerate() {
            assert_eq!(trunc.end_pos(i), e, "walk {} after seed {}", i, s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compacted index of a grouped arena (empty groups and repeated
    /// nodes included) and the full index of the same walks ungrouped
    /// both truncate exactly like the flat reference.
    #[test]
    fn shared_index_truncates_like_the_flat_lists(
        grouped in arb_grouped_walks(),
        seeds in proptest::collection::vec(0u32..6, 0..8),
    ) {
        let n = grouped.len();
        let flat: Vec<Vec<Node>> = grouped.iter().flatten().cloned().collect();
        check_against_flat_reference(&grouped_arena(&grouped), n, &seeds);
        check_against_flat_reference(&build_chunked(&flat, flat.len().max(1), None), n, &seeds);
    }

    /// The same on ungrouped arenas whose walks start anywhere, as RS
    /// sketches do.
    #[test]
    fn shared_index_truncates_ungrouped_arenas_like_the_flat_lists(
        walks in arb_walks(),
        seeds in proptest::collection::vec(0u32..60, 0..12),
    ) {
        check_against_flat_reference(&build_chunked(&walks, 3, None), 60, &seeds);
    }
}

/// Checks pair lists built before more seeds were committed (`stale`)
/// against a build after them (`fresh`): the own pair opens every
/// non-empty list, and every fresh pair is listed stale with a delta at
/// least as large. The rank greedy's lazy rebuild rests on the second:
/// walks only die, and a left fold of positive terms over a subsequence
/// never exceeds the fold over the whole sequence.
fn check_stale_bounds_fresh(stale: &UserPairs, fresh: &UserPairs, n: usize) {
    for v in 0..n as Node {
        let (stale_cands, stale_deltas) = stale.user(v);
        let (cands, deltas) = fresh.user(v);
        for list in [stale_cands, cands] {
            assert!(
                list.first().is_none_or(|&w| w == v),
                "user {v}: own pair not first"
            );
        }
        for (&w, &d) in cands.iter().zip(deltas) {
            let at = stale_cands
                .iter()
                .position(|&c| c == w)
                .unwrap_or_else(|| panic!("user {v}: fresh candidate {w} not listed stale"));
            assert!(
                stale_deltas[at] >= d,
                "user {v}, candidate {w}: stale < fresh"
            );
        }
    }
}

/// Commits `commits` one at a time into an estimator, checking each
/// fresh build of its pair lists against every earlier one.
fn check_commit_sequence<E: OpinionEstimate>(est: &mut E, commits: &[Node]) {
    let n = est.num_nodes();
    let mut builds = vec![est.user_pairs()];
    for &s in commits {
        est.add_seed_into(s % n as Node, &mut Vec::new());
        let fresh = est.user_pairs();
        for stale in &builds {
            check_stale_bounds_fresh(stale, &fresh, n);
        }
        builds.push(fresh);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Stale pair lists bound fresh ones over grouped arenas (empty
    /// groups and repeated nodes included) and random commit sequences.
    #[test]
    fn stale_pair_deltas_bound_fresh_ones_over_grouped_arenas(
        grouped in arb_grouped_walks(),
        cells in proptest::collection::vec(0u32..21, 6),
        commits in proptest::collection::vec(0u32..6, 0..6),
    ) {
        let arena = grouped_arena(&grouped);
        let b0: Vec<f64> = (0..grouped.len()).map(|v| f64::from(cells[v]) / 20.0).collect();
        check_commit_sequence(&mut OpinionEstimator::new(&arena, &b0), &commits);
    }

    /// The same over sketch sets on random 12-node graphs, whose starts
    /// repeat and scatter. Opinions sit on a 1/20 grid, so some walks
    /// start dead at value 1.
    #[test]
    fn stale_pair_deltas_bound_fresh_ones_over_sketch_sets(
        edges in proptest::collection::vec((0u32..12, 0u32..12, 0.1f64..5.0), 0..36),
        stubbornness in proptest::collection::vec(0.0f64..=1.0, 12),
        cells in proptest::collection::vec(0u32..21, 12),
        walks in (0usize..5, 1usize..60, 0u64..1_000),
        commits in proptest::collection::vec(0u32..12, 0..6),
    ) {
        let (t, theta, seed) = walks;
        let graph = graph_from_edges(12, &edges).unwrap();
        let b0: Vec<f64> = cells.iter().map(|&c| f64::from(c) / 20.0).collect();
        let mut sketch = SketchSet::generate(&graph, &stubbornness, &b0, t, theta, seed);
        check_commit_sequence(&mut sketch, &commits);
    }
}

/// The derived-`Default` regression, pinned as a plain test: a default
/// builder must behave exactly like `with_capacity(0, 0)`.
#[test]
fn default_builder_is_a_valid_empty_builder() {
    let mut builder = WalkArenaBuilder::default();
    assert_eq!(builder.num_walks(), 0);
    builder.push_node(4);
    builder.push_node(2);
    builder.finish_walk();
    assert_eq!(builder.num_walks(), 1);
    let arena = builder.build(None);
    assert_eq!(arena.walk(0), &[4, 2]);
}
