//! Property-based tests (proptest) for the incremental scoring engine:
//! the [`RankIndex`] binary-search ranks must equal the linear
//! `beta_with_target` scan, and the delta-driven accumulators must
//! reproduce from-scratch `score_with_target_row` evaluations after
//! arbitrary update sequences, for all four competitive scoring
//! functions (plurality, p-approval, positional-p-approval, Copeland),
//! and a positional accumulator's threshold `τ` must bound exactly the
//! moves that leave a user's contribution unchanged.

use proptest::prelude::*;
use vom::core::greedy::score_with_target_row;
use vom::diffusion::OpinionMatrix;
use vom::graph::Node;
use vom::voting::rank::beta_with_target;
use vom::voting::{
    CopelandAccumulator, CopelandScratch, PositionalAccumulator, RankIndex, ScoringFunction,
};

/// Strategy: a random opinion matrix (r candidates × n users) plus a
/// target candidate. Opinions are drawn from a coarse grid so exact
/// ties — the interesting rank case — actually occur.
fn arb_matrix() -> impl Strategy<Value = (OpinionMatrix, usize)> {
    (2usize..6, 2usize..9).prop_flat_map(|(r, n)| {
        let cells = proptest::collection::vec(0u32..21, r * n);
        let target = 0usize..r;
        (cells, target).prop_map(move |(cells, q)| {
            let rows: Vec<Vec<f64>> = (0..r)
                .map(|c| (0..n).map(|v| f64::from(cells[c * n + v]) / 20.0).collect())
                .collect();
            (
                OpinionMatrix::from_rows(rows).expect("grid opinions valid"),
                q,
            )
        })
    })
}

/// A random sequence of (user, new target opinion) updates.
fn arb_updates(n: usize) -> impl Strategy<Value = Vec<(Node, f64)>> {
    proptest::collection::vec((0u32..n as Node, 0u32..21), 0..12).prop_map(|ups| {
        ups.into_iter()
            .map(|(v, x)| (v, f64::from(x) / 20.0))
            .collect()
    })
}

/// The competitive scoring functions under test, for `r` candidates.
fn scores(r: usize) -> Vec<ScoringFunction> {
    let p = (r / 2).max(1);
    let weights: Vec<f64> = (0..r).map(|i| 1.0 - i as f64 / r as f64).collect();
    vec![
        ScoringFunction::Plurality,
        ScoringFunction::PApproval { p },
        ScoringFunction::PositionalPApproval { p: r, weights },
        ScoringFunction::Copeland,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rank_index_equals_linear_beta_scan((b, q) in arb_matrix(), probe in 0u32..21) {
        let index = RankIndex::build(&b, q);
        let value = f64::from(probe) / 20.0;
        for v in 0..b.num_users() as Node {
            prop_assert_eq!(
                index.rank(v, value),
                beta_with_target(&b, q, v, value),
                "q={} v={} value={}", q, v, value
            );
            // The stored value itself must rank like `beta` does.
            let own = b.get(q, v);
            prop_assert_eq!(index.rank(v, own), beta_with_target(&b, q, v, own));
        }
    }

    #[test]
    fn accumulators_match_from_scratch_scoring_after_updates(
        (b, q) in arb_matrix(),
        raw_updates in arb_updates(16),
    ) {
        let n = b.num_users();
        let r = b.num_candidates();
        let index = RankIndex::build(&b, q);
        let updates: Vec<(Node, f64)> =
            raw_updates.into_iter().map(|(v, x)| (v % n as Node, x)).collect();

        for score in scores(r) {
            // The evolving target row, updated alongside the accumulator.
            let mut row: Vec<f64> = b.row(q).to_vec();
            match score {
                ScoringFunction::Copeland => {
                    let mut acc = CopelandAccumulator::new(&index, &row);
                    let mut scratch = CopelandScratch::default();
                    for &(v, value) in &updates {
                        // Preview first: must equal the committed state.
                        let previewed =
                            acc.preview_wins(&index, [(v, value)].into_iter(), &mut scratch);
                        acc.set_value(&index, v, value);
                        row[v as usize] = value;
                        let reference = score_with_target_row(&score, &b, q, &row);
                        prop_assert_eq!(acc.wins() as f64, reference, "{} after ({}, {})",
                            score, v, value);
                        prop_assert_eq!(previewed, acc.wins());
                    }
                }
                _ => {
                    let mut acc = PositionalAccumulator::new(&score, n);
                    for v in 0..n as Node {
                        acc.set_user(&index, v, row[v as usize], 1.0);
                    }
                    for &(v, value) in &updates {
                        let previewed = acc.preview(&index, v, value);
                        acc.set_user(&index, v, value, 1.0);
                        row[v as usize] = value;
                        prop_assert_eq!(previewed, acc.contribution(v));
                        let reference = score_with_target_row(&score, &b, q, &row);
                        // Totals are sums of identical contribution terms;
                        // user order matches, so equality is exact.
                        prop_assert_eq!(acc.total(), reference, "{} after ({}, {})",
                            score, v, value);
                    }
                }
            }
        }
    }

    #[test]
    fn copeland_batch_preview_matches_row_rescore(
        (b, q) in arb_matrix(),
        raw_moves in arb_updates(16),
    ) {
        let n = b.num_users();
        let index = RankIndex::build(&b, q);
        let acc = CopelandAccumulator::new(&index, b.row(q));
        let mut scratch = CopelandScratch::default();
        // Deduplicate per user (a batch holds one move per user, as in
        // DM's changed-rows preview).
        let mut row: Vec<f64> = b.row(q).to_vec();
        let mut seen = vec![false; n];
        let mut moves: Vec<(Node, f64)> = Vec::new();
        for (v, value) in raw_moves {
            let v = v % n as Node;
            if !seen[v as usize] {
                seen[v as usize] = true;
                row[v as usize] = value;
                moves.push((v, value));
            }
        }
        let previewed = acc.preview_wins(&index, moves.into_iter(), &mut scratch);
        let reference = score_with_target_row(&ScoringFunction::Copeland, &b, q, &row);
        prop_assert_eq!(previewed as f64, reference);
    }

    #[test]
    fn previews_up_to_the_threshold_keep_the_contribution_bits(
        (b, q) in arb_matrix(),
        fractions in proptest::collection::vec(0.0f64..=1.0, 4),
    ) {
        let n = b.num_users();
        let r = b.num_candidates();
        let index = RankIndex::build(&b, q);
        for score in scores(r).into_iter().filter(|s| s.approval_depth().is_some()) {
            let mut acc = PositionalAccumulator::new(&score, n);
            for v in 0..n as Node {
                acc.set_user(&index, v, b.get(q, v), 1.0);
            }
            for v in 0..n as Node {
                let (value, tau) = (acc.value(v), acc.threshold(v));
                prop_assert!(tau >= value, "{} v={} τ={} below value {}", score, v, tau, value);
                // Moves up to τ: the threshold itself, the current value,
                // and random points between (or above, when τ = +∞).
                let span = if tau.is_finite() { tau - value } else { 2.0 };
                let mut probes = vec![value];
                if tau.is_finite() {
                    probes.push(tau);
                }
                probes.extend(fractions.iter().map(|f| (value + f * span).min(tau)));
                for x in probes {
                    prop_assert_eq!(
                        acc.preview(&index, v, x).to_bits(),
                        acc.contribution(v).to_bits(),
                        "{} v={} value={} τ={} x={}", score, v, value, tau, x
                    );
                }
                // τ is tight: one ulp above it the rank improves.
                if tau.is_finite() {
                    let above = f64::from_bits(tau.to_bits() + 1);
                    prop_assert!(index.rank(v, above) < index.rank(v, value),
                        "{} v={} τ={} is not where the rank first moves", score, v, tau);
                }
            }
        }
    }
}
