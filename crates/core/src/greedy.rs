//! The estimate-driven greedy loop (Algorithms 4 and 5, lines 4–8),
//! shared by the RW and RS selectors, plus exact scoring helpers shared
//! with DM.
//!
//! # The incremental scoring engine
//!
//! Scoring is the inner loop of the paper's complexity analysis
//! (§III-C), and this module is where the full-rescan version of it was
//! replaced by index lookups and delta maintenance:
//!
//! * competitor ranks go through a [`RankIndex`] (per-user sorted
//!   competitor opinions) — `O(log r)` per lookup instead of the
//!   `O(r)` scan of [`vom_voting::rank::beta_with_target`];
//! * the per-user estimate/contribution state of the rank-based scores
//!   lives in a [`PositionalAccumulator`] that persists across greedy
//!   iterations; after a seed commits, only the users named in the
//!   estimator's changed-users delta report are refreshed (`O(Δ·log r)`
//!   instead of `O(n·r)`). Each user's threshold `τ` bounds the moves
//!   that cannot change its contribution, so the rank greedy skips those
//!   previews;
//! * the rank greedy runs **user-major** over RW and RS alike: once per
//!   run it merges each user's live walks or sketches into
//!   `(candidate, Δ)` pairs ([`vom_walks::UserPairs`]; sampled sketch
//!   starts are grouped by one counting sort), and each iteration is one
//!   pass over those pairs adding `preview − contribution` into the
//!   candidates' gains in ascending user order. A commit only marks the
//!   changed users' lists touched; the next pass merges a touched list
//!   again only if a stale pair can still cross the user's threshold,
//!   and otherwise refolds the user's own pair and lets it score that
//!   pair alone (a stale delta bounds the fresh one, as in Minoux's lazy
//!   greedy). The cumulative tie-break is computed only for the
//!   candidates tied at the maximum gain;
//! * Copeland stays **candidate-major**: each candidate's per-user
//!   deltas are merged from its occurrence list
//!   ([`OpinionEstimate::for_candidate_deltas`]) into `r − 1` duel nets,
//!   where a user-major pass would hold `n·(r − 1)`;
//! * the submodular cumulative objectives run a lazy (CELF-style)
//!   greedy over per-candidate gains
//!   ([`OpinionEstimate::cumulative_gains_of`]): a candidate is only
//!   re-evaluated when it reaches the top of the heap.
//!
//! Everything is arranged to stay **bit-identical** to the historical
//! full-rescan loops: per-candidate gains sum the same terms in the same
//! order as the old whole-arena scans (a skipped preview's term is
//! exactly `+0.0`, and adding `+0.0` to a sum that started at `+0.0`
//! changes no bits), accumulator contributions are the same `w·ω[β]`
//! products, and the lazy greedy's correctness rests on the truncation
//! estimates' gains being non-increasing (terms are non-negative and
//! seeds only remove them; an IEEE left-to-right sum of non-negative
//! terms is monotone under subset removal). DESIGN.md §2b gives the
//! argument for each step.

use crate::estimate::OpinionEstimate;
use crate::phases::{self, CostMeter, Phase};
use std::time::{Duration, Instant};
use vom_diffusion::OpinionMatrix;
use vom_graph::{Candidate, Node};
use vom_voting::rank::beta_with_target;
use vom_voting::{PositionalAccumulator, RankIndex, ScoringFunction};
use vom_walks::{DeltaScratch, UserPairs};

/// The competitor-opinion artifacts a competitive-score greedy consumes:
/// the exact non-target opinion matrix and its rank index. Built once
/// per prepared engine (the index is cached alongside the matrix) and
/// shared read-only by every query.
#[derive(Debug, Clone, Copy)]
pub struct Competitors<'a> {
    /// Exact non-target opinions at the horizon (target row unused).
    pub matrix: &'a OpinionMatrix,
    /// Per-user sorted competitor opinions over `matrix`.
    pub ranks: &'a RankIndex,
}

/// Evaluates `F(B, c_q)` where the target's opinion row is `target_row`
/// and the other candidates' rows come from `others` (whose own target
/// row is ignored). The exact reference evaluation — DM's delta scoring
/// and the sandwich evaluation reduce to it.
pub fn score_with_target_row(
    score: &ScoringFunction,
    others: &OpinionMatrix,
    q: Candidate,
    target_row: &[f64],
) -> f64 {
    match score {
        ScoringFunction::Cumulative => target_row.iter().sum(),
        ScoringFunction::Plurality
        | ScoringFunction::PApproval { .. }
        | ScoringFunction::PositionalPApproval { .. } => {
            let p = score.approval_depth().expect("plurality variant");
            let mut total = 0.0;
            for (v, &b) in target_row.iter().enumerate() {
                let rank = beta_with_target(others, q, v as Node, b);
                if rank <= p {
                    total += score.position_weight(rank);
                }
            }
            total
        }
        ScoringFunction::Copeland => {
            let r = others.num_candidates();
            let mut wins = 0usize;
            for x in 0..r {
                if x == q {
                    continue;
                }
                let mut net = 0i64;
                for (v, &b) in target_row.iter().enumerate() {
                    let bx = others.get(x, v as Node);
                    if b > bx {
                        net += 1;
                    } else if b < bx {
                        net -= 1;
                    }
                }
                if net > 0 {
                    wins += 1;
                }
            }
            wins as f64
        }
    }
}

/// Greedy seed selection on an incremental opinion estimate, for any of
/// the five scores. `comp` (exact non-target opinions plus their rank
/// index) is required for the competitive scores and ignored for
/// cumulative.
///
/// Selects until `k` seeds are committed (estimated marginal gains can be
/// zero — the paper's Problem 1 asks for exactly `k` seeds, and real
/// gains may still be positive when estimates saturate; ties and zero
/// gains resolve toward the smallest node id for determinism).
///
/// A `meter` is charged one tick per scored candidate and checked for
/// exhaustion at the sequential iteration boundary before each seed
/// commit. A metered run stopped early returns a bit-identical
/// **prefix** of the unmetered selection — every rule class here
/// commits seeds one iteration at a time against state that evolves
/// through the same deterministic sequence, so stopping between
/// iterations cannot change the seeds already chosen.
pub fn greedy_on_estimate<E: OpinionEstimate>(
    est: &mut E,
    k: usize,
    score: &ScoringFunction,
    comp: Option<Competitors<'_>>,
    q: Candidate,
    meter: Option<&CostMeter>,
) -> Vec<Node> {
    match score {
        ScoringFunction::Cumulative => lazy_greedy_fill(est, k, None, meter),
        ScoringFunction::Plurality
        | ScoringFunction::PApproval { .. }
        | ScoringFunction::PositionalPApproval { .. } => {
            let comp = comp.expect("competitive score needs competitor opinions");
            let picks = rank_greedy(est, k, score, comp.ranks, meter);
            picks.into_iter().map(|(w, _, _)| w).collect()
        }
        ScoringFunction::Copeland => {
            let comp = comp.expect("competitive score needs competitor opinions");
            copeland_greedy(est, k, comp.matrix, q, meter)
        }
    }
}

/// Greedy maximization of the **restricted cumulative** estimate
/// `Σ_{v ∈ mask} b̂_qv[S]` — the sandwich lower bound `LB(S)` of
/// Definition 3 (the constant `ω[p]` factor does not change the argmax).
pub fn greedy_masked_cumulative<E: OpinionEstimate>(
    est: &mut E,
    k: usize,
    mask: &[bool],
) -> Vec<Node> {
    lazy_greedy_fill(est, k, Some(mask), None)
}

// ---------------------------------------------------------------------
// Lazy greedy for the submodular cumulative estimates
// ---------------------------------------------------------------------

/// CELF-style lazy greedy over per-candidate estimated-cumulative gains,
/// with the paper's *fill* semantics: exactly `min(k, non-seeds)` seeds
/// are committed even when gains hit zero (ties and zeros resolve to the
/// smallest id — the same selection the historical full-rescan argmax
/// produced, since truncation gains never increase and a stale heap
/// entry therefore always upper-bounds the fresh gain). The heap loop
/// itself is [`crate::celf::lazy_greedy`], shared with DM's exact CELF.
/// Gains are over the users in `mask` when one is given; the heap fill
/// asks for every candidate in one [`OpinionEstimate::cumulative_gains_of`]
/// call.
fn lazy_greedy_fill<E: OpinionEstimate>(
    est: &mut E,
    k: usize,
    mask: Option<&[bool]>,
    meter: Option<&CostMeter>,
) -> Vec<Node> {
    // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
    let started = Instant::now();
    let mut truncating = Duration::ZERO;
    let n = est.num_nodes();
    let mut touched: Vec<Node> = Vec::new();
    // The est borrow is split across the two closures via a RefCell:
    // marginal reads, commit mutates, never concurrently.
    let cell = std::cell::RefCell::new(est);
    let candidates: Vec<Node> = (0..n as Node)
        .filter(|&v| !cell.borrow().is_seed(v))
        .collect();
    // Refresh width 1: the estimates are floats, only nearly submodular.
    let selected = crate::celf::lazy_greedy(
        &candidates,
        k,
        1,
        false,
        meter,
        |nodes, gains| cell.borrow().cumulative_gains_of(nodes, mask, gains),
        |v| {
            // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
            let t = Instant::now();
            cell.borrow_mut().add_seed_into(v, &mut touched);
            truncating += t.elapsed();
        },
    );
    phases::record(Phase::Truncation, truncating);
    phases::record(Phase::Scoring, started.elapsed().saturating_sub(truncating));
    selected
}

// ---------------------------------------------------------------------
// Rank-based scores: delta-driven accumulator greedy
// ---------------------------------------------------------------------

/// Sets the listed users' current estimates in `acc` (`O(log r)` each):
/// every user once per greedy run, then the changed-users report after
/// each commit.
fn refresh_users<E: OpinionEstimate>(
    est: &E,
    acc: &mut PositionalAccumulator,
    index: &RankIndex,
    users: impl Iterator<Item = Node>,
) {
    for v in users {
        if let Some(e) = est.estimate(v) {
            let w = est.user_weight(v);
            if w > 0.0 {
                acc.set_user(index, v, e, w);
            }
        }
    }
}

/// One committed seed of a rank greedy with its winning rank gain and
/// cumulative tie-break gain.
type Pick = (Node, f64, f64);

/// Greedy for the plurality variants, returning each pick with its
/// winning gains. The discrete score is flat almost everywhere, so ties
/// break by the estimated-cumulative gain (still moving opinions toward
/// the target helps later iterations and the true objective).
///
/// It runs user-major over the estimator's
/// [`OpinionEstimate::user_pairs`]: each iteration is one
/// [`gain_pass`], then an argmax that takes the largest gain and
/// computes the cumulative tie-break only for the candidates tied at
/// it, lowest id first: the node a sequential scan keeping the first
/// largest `(gain, cum)` picks. A [`commit`] refreshes the changed
/// users' accumulator entries and marks their pair lists touched; the
/// next pass brings a touched list up to date only as far as its
/// threshold needs.
fn rank_greedy<E: OpinionEstimate>(
    est: &mut E,
    k: usize,
    score: &ScoringFunction,
    index: &RankIndex,
    meter: Option<&CostMeter>,
) -> Vec<Pick> {
    // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
    let started = Instant::now();
    let mut truncating = Duration::ZERO;
    let n = est.num_nodes();
    let mut acc = PositionalAccumulator::new(score, n);
    refresh_users(est, &mut acc, index, 0..n as Node);
    let mut pairs = est.user_pairs();
    let mut picks = Vec::with_capacity(k);
    let mut touched: Vec<Node> = Vec::new();
    let mut gains = vec![0.0f64; n];
    let mut tied: Vec<Node> = Vec::new();
    for _ in 0..k {
        // Sequential checkpoint: per-iteration commits mean stopping here
        // leaves the picks a prefix of the full-budget selection.
        if meter.is_some_and(|m| m.exhausted()) {
            break;
        }
        gain_pass(est, &mut pairs, &acc, index, &mut gains);
        let mut top = 0.0;
        let mut scanned = 0u64;
        tied.clear();
        for w in 0..n as Node {
            if est.is_seed(w) {
                continue;
            }
            scanned += 1;
            let g = gains[w as usize];
            if tied.is_empty() || g > top {
                top = g;
                tied.clear();
                tied.push(w);
            } else if g == top {
                tied.push(w);
            }
        }
        if let Some(m) = meter {
            m.charge(scanned); // one tick per scored candidate
        }
        let Some((&first, rest)) = tied.split_first() else {
            break;
        };
        let mut pick = (first, gains[first as usize], est.cumulative_gain_of(first));
        for &w in rest {
            let cum = est.cumulative_gain_of(w);
            if cum > pick.2 {
                pick = (w, gains[w as usize], cum);
            }
        }
        truncating += commit(est, &mut acc, &mut pairs, index, pick.0, &mut touched);
        picks.push(pick);
    }
    phases::record(Phase::Truncation, truncating);
    phases::record(Phase::Scoring, started.elapsed().saturating_sub(truncating));
    picks
}

/// One scoring pass of the rank greedy: settles the touched pair lists
/// ([`UserPairs::settle`]), then overwrites `gains` with each
/// candidate's rank gain. The users go in ascending order, and each adds
/// `preview − contribution` for every scored pair whose move passes the
/// user's threshold. Per candidate, these are the terms and order of a
/// merge over its occurrences, minus exact `+0.0` terms: moves within
/// the threshold, and the stale pairs of cold users.
fn gain_pass<E: OpinionEstimate>(
    est: &E,
    pairs: &mut UserPairs,
    acc: &PositionalAccumulator,
    index: &RankIndex,
    gains: &mut [f64],
) {
    pairs.settle(
        |v| (acc.value(v), acc.threshold(v)),
        |v, i| est.live_walk(v, i),
    );
    gains.iter_mut().for_each(|g| *g = 0.0);
    for v in 0..est.num_nodes() as Node {
        if acc.weight(v) <= 0.0 {
            continue;
        }
        let (value, tau, contrib) = (acc.value(v), acc.threshold(v), acc.contribution(v));
        let (cands, deltas) = pairs.scored(v);
        for (&w, &delta) in cands.iter().zip(deltas) {
            let x = value + delta;
            if x > tau {
                gains[w as usize] += acc.preview(index, v, x) - contrib;
            }
        }
    }
}

/// Commits `pick` as a seed, refreshes the accumulator entries of the
/// users whose estimates changed (the changed-users report and the pick)
/// and marks their pair lists touched. Returns the time spent
/// truncating.
fn commit<E: OpinionEstimate>(
    est: &mut E,
    acc: &mut PositionalAccumulator,
    pairs: &mut UserPairs,
    index: &RankIndex,
    pick: Node,
    touched: &mut Vec<Node>,
) -> Duration {
    // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
    let t = Instant::now();
    est.add_seed_into(pick, touched);
    let truncating = t.elapsed();
    let changed = || touched.iter().copied().chain([pick]);
    refresh_users(est, acc, index, changed());
    pairs.touch(changed());
    truncating
}

// ---------------------------------------------------------------------
// Copeland: incremental estimates, per-candidate duel deltas
// ---------------------------------------------------------------------

/// Greedy for the Copeland score. The per-user estimates persist across
/// iterations (refreshed from the changed-users report); the weighted
/// per-opponent nets are rebuilt per iteration in fixed user order so
/// the float majorities match the historical evaluation bit for bit,
/// and each candidate's effect is evaluated from its own merged deltas.
/// Secondary criterion: total net-margin gained across the one-on-one
/// duels — near a majority tie the discrete win count is a coin flip on
/// estimates, but the margin still points at the seed that moves the
/// most users past their duel thresholds.
fn copeland_greedy<E: OpinionEstimate>(
    est: &mut E,
    k: usize,
    others: &OpinionMatrix,
    q: Candidate,
    meter: Option<&CostMeter>,
) -> Vec<Node> {
    // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
    let started = Instant::now();
    let mut truncating = Duration::ZERO;
    let n = est.num_nodes();
    let r = others.num_candidates();
    let opponents: Vec<Candidate> = (0..r).filter(|&x| x != q).collect();

    // Persistent per-user estimate state.
    let mut cur_est = vec![0.0f64; n];
    let mut weight = vec![0.0f64; n];
    let mut sampled = vec![false; n];
    for v in 0..n as Node {
        if let Some(e) = est.estimate(v) {
            let w = est.user_weight(v);
            if w > 0.0 {
                cur_est[v as usize] = e;
                weight[v as usize] = w;
                sampled[v as usize] = true;
            }
        }
    }

    let mut selected = Vec::with_capacity(k);
    let mut touched: Vec<Node> = Vec::new();
    let mut scratch = DeltaScratch::default();
    let mut net = vec![0.0f64; opponents.len()];
    let mut net_change = vec![0.0f64; opponents.len()];
    let mut gains = vec![0.0f64; n];
    let mut margins = vec![0.0f64; n];
    for _ in 0..k {
        // Sequential checkpoint: per-iteration commits mean stopping here
        // leaves `selected` a prefix of the full-budget selection.
        if meter.is_some_and(|m| m.exhausted()) {
            break;
        }
        // Current weighted majorities, re-summed in fixed user order
        // (incremental float nets would drift from the reference bits).
        net.iter_mut().for_each(|s| *s = 0.0);
        for v in 0..n {
            if sampled[v] {
                let e = cur_est[v];
                let w = weight[v];
                for (xi, &x) in opponents.iter().enumerate() {
                    let bx = others.get(x, v as Node);
                    if e > bx {
                        net[xi] += w;
                    } else if e < bx {
                        net[xi] -= w;
                    }
                }
            }
        }
        let current_wins = net.iter().filter(|&&s| s > 0.0).count() as f64;

        gains.iter_mut().for_each(|g| *g = 0.0);
        margins.iter_mut().for_each(|m| *m = 0.0);
        let mut scanned = 0u64;
        for w in 0..n as Node {
            if est.is_seed(w) {
                continue;
            }
            scanned += 1;
            net_change.iter_mut().for_each(|c| *c = 0.0);
            est.for_candidate_deltas(w, &mut scratch, |user, delta| {
                let v = user as usize;
                if sampled[v] {
                    let uw = weight[v];
                    let old = cur_est[v];
                    let new = old + delta;
                    for (xi, &x) in opponents.iter().enumerate() {
                        let bx = others.get(x, user);
                        net_change[xi] +=
                            uw * (sign_contribution(new, bx) - sign_contribution(old, bx));
                    }
                }
            });
            let new_wins = net
                .iter()
                .zip(&net_change)
                .filter(|(&s, &c)| s + c > 0.0)
                .count() as f64;
            gains[w as usize] = new_wins - current_wins;
            margins[w as usize] = net_change.iter().sum();
        }
        if let Some(m) = meter {
            m.charge(scanned); // one tick per scored candidate
        }
        let Some(bw) = argmax_non_seed(est, &gains, Some(&margins)) else {
            break;
        };
        // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
        let t = Instant::now();
        est.add_seed_into(bw, &mut touched);
        truncating += t.elapsed();
        selected.push(bw);
        for v in touched.iter().copied().chain([bw]) {
            if let Some(e) = est.estimate(v) {
                let w = est.user_weight(v);
                if w > 0.0 {
                    cur_est[v as usize] = e;
                    weight[v as usize] = w;
                    sampled[v as usize] = true;
                }
            }
        }
    }
    phases::record(Phase::Truncation, truncating);
    phases::record(Phase::Scoring, started.elapsed().saturating_sub(truncating));
    selected
}

/// Argmax over non-seed nodes, with an optional secondary criterion for
/// ties; remaining ties go to the smaller id. Returns `None` only when
/// every node is already a seed.
fn argmax_non_seed<E: OpinionEstimate>(
    est: &E,
    gains: &[f64],
    secondary: Option<&[f64]>,
) -> Option<Node> {
    let mut best: Option<(Node, f64, f64)> = None;
    for (v, &g) in gains.iter().enumerate() {
        let v = v as Node;
        if est.is_seed(v) {
            continue;
        }
        let s = secondary.map_or(0.0, |sec| sec[v as usize]);
        let better = match best {
            None => true,
            Some((_, bg, bs)) => g > bg || (g == bg && s > bs),
        };
        if better {
            best = Some((v, g, s));
        }
    }
    best.map(|(v, _, _)| v)
}

#[inline]
fn sign_contribution(b: f64, bx: f64) -> f64 {
    if b > bx {
        1.0
    } else if b < bx {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vom_graph::builder::graph_from_edges;
    use vom_sketch::SketchSet;
    use vom_walks::{Lambda, OpinionEstimator, WalkGenerator};

    fn running_example() -> (vom_graph::SocialGraph, Vec<f64>, Vec<f64>, OpinionMatrix) {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let d = vec![0.0, 0.0, 0.5, 0.5];
        let others =
            OpinionMatrix::from_rows(vec![vec![0.0; 4], vec![0.35, 0.75, 0.78, 0.90]]).unwrap();
        (g, b0, d, others)
    }

    fn competitors(others: &OpinionMatrix) -> (RankIndex, ()) {
        (RankIndex::build(others, 0), ())
    }

    /// A fresh accumulator over the estimator's current estimates.
    fn accumulator<E: OpinionEstimate>(
        est: &E,
        score: &ScoringFunction,
        index: &RankIndex,
    ) -> PositionalAccumulator {
        let mut acc = PositionalAccumulator::new(score, est.num_nodes());
        refresh_users(est, &mut acc, index, 0..est.num_nodes() as Node);
        acc
    }

    /// Candidate `w`'s rank gain, merged from its occurrences and
    /// previewing every move, within the user's threshold or not.
    fn candidate_gain<E: OpinionEstimate>(
        est: &E,
        acc: &PositionalAccumulator,
        index: &RankIndex,
        w: Node,
        scratch: &mut DeltaScratch,
    ) -> f64 {
        let mut gain = 0.0;
        est.for_candidate_deltas(w, scratch, |user, delta| {
            if acc.weight(user) > 0.0 {
                gain += acc.preview(index, user, acc.value(user) + delta) - acc.contribution(user);
            }
        });
        gain
    }

    /// The candidate-major reference for [`rank_greedy`]: per iteration,
    /// every non-seed candidate's [`candidate_gain`] and
    /// `cumulative_gain_of`, and a sequential argmax keeping the first
    /// largest `(gain, cum)`.
    fn candidate_major_picks<E: OpinionEstimate>(
        est: &mut E,
        k: usize,
        score: &ScoringFunction,
        index: &RankIndex,
    ) -> Vec<Pick> {
        let mut acc = accumulator(est, score, index);
        let mut scratch = DeltaScratch::default();
        let mut touched = Vec::new();
        let mut picks = Vec::new();
        for _ in 0..k {
            let mut best: Option<Pick> = None;
            for w in 0..est.num_nodes() as Node {
                if est.is_seed(w) {
                    continue;
                }
                let gain = candidate_gain(est, &acc, index, w, &mut scratch);
                let cum = est.cumulative_gain_of(w);
                if best.is_none_or(|(_, bg, bc)| gain > bg || (gain == bg && cum > bc)) {
                    best = Some((w, gain, cum));
                }
            }
            let Some(pick) = best else { break };
            est.add_seed_into(pick.0, &mut touched);
            refresh_users(
                est,
                &mut acc,
                index,
                touched.iter().copied().chain([pick.0]),
            );
            picks.push(pick);
        }
        picks
    }

    #[test]
    fn score_with_target_row_matches_full_matrix_scoring() {
        let (_, _, _, others) = running_example();
        let target_row = [0.40, 0.80, 0.60, 0.75];
        let mut full = others.clone();
        full.set_row(0, &target_row);
        for score in [
            ScoringFunction::Cumulative,
            ScoringFunction::Plurality,
            ScoringFunction::PApproval { p: 2 },
            ScoringFunction::Copeland,
        ] {
            assert_eq!(
                score_with_target_row(&score, &others, 0, &target_row),
                score.score(&full, 0),
                "{score}"
            );
        }
    }

    #[test]
    fn greedy_cumulative_picks_paper_best_single_seed() {
        // Table I: seed {1} (our node 0) maximizes the cumulative score.
        let (g, b0, d, _) = running_example();
        let gen = WalkGenerator::new(&g, &d, 1);
        let arena = gen.generate_per_node(&Lambda::Uniform(20_000), 7);
        let mut est = OpinionEstimator::new(&arena, &b0);
        let seeds = greedy_on_estimate(&mut est, 1, &ScoringFunction::Cumulative, None, 0, None);
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn greedy_plurality_picks_paper_best_single_seed() {
        // Table I: seed {3} (our node 2) maximizes the plurality score (4).
        let (g, b0, d, others) = running_example();
        let gen = WalkGenerator::new(&g, &d, 1);
        let arena = gen.generate_per_node(&Lambda::Uniform(20_000), 11);
        let mut est = OpinionEstimator::new(&arena, &b0);
        let (ranks, _) = competitors(&others);
        let comp = Competitors {
            matrix: &others,
            ranks: &ranks,
        };
        let seeds = greedy_on_estimate(
            &mut est,
            1,
            &ScoringFunction::Plurality,
            Some(comp),
            0,
            None,
        );
        assert_eq!(seeds, vec![2]);
    }

    #[test]
    fn greedy_copeland_picks_a_winning_seed() {
        // Table I: Copeland becomes 1 with seed node 2 or 3.
        let (g, b0, d, others) = running_example();
        let gen = WalkGenerator::new(&g, &d, 1);
        let arena = gen.generate_per_node(&Lambda::Uniform(20_000), 13);
        let mut est = OpinionEstimator::new(&arena, &b0);
        let (ranks, _) = competitors(&others);
        let comp = Competitors {
            matrix: &others,
            ranks: &ranks,
        };
        let seeds =
            greedy_on_estimate(&mut est, 1, &ScoringFunction::Copeland, Some(comp), 0, None);
        assert_eq!(seeds.len(), 1);
        assert!(seeds[0] == 2 || seeds[0] == 3, "got {seeds:?}");
    }

    #[test]
    fn greedy_fills_the_budget_even_with_zero_gains() {
        let (g, _, d, _) = running_example();
        let b0 = vec![1.0; 4]; // nothing can improve
        let gen = WalkGenerator::new(&g, &d, 1);
        let arena = gen.generate_per_node(&Lambda::Uniform(100), 17);
        let mut est = OpinionEstimator::new(&arena, &b0);
        let seeds = greedy_on_estimate(&mut est, 2, &ScoringFunction::Cumulative, None, 0, None);
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds, vec![0, 1], "deterministic smallest-id fill");
    }

    #[test]
    fn masked_greedy_fills_like_the_plain_one() {
        let (g, b0, d, _) = running_example();
        let gen = WalkGenerator::new(&g, &d, 2);
        let arena = gen.generate_per_node(&Lambda::Uniform(500), 29);
        // All-users mask: the masked greedy must equal the plain one.
        let mask = vec![true; 4];
        let mut est_a = OpinionEstimator::new(&arena, &b0);
        let mut est_b = OpinionEstimator::new(&arena, &b0);
        let a = greedy_masked_cumulative(&mut est_a, 3, &mask);
        let b = greedy_on_estimate(&mut est_b, 3, &ScoringFunction::Cumulative, None, 0, None);
        assert_eq!(a, b);
    }

    #[test]
    fn non_submodularity_example_3_reproduced_on_estimates() {
        // §IV-D: F({2}) - F({}) = 0 but F({1,2}) - F({1}) = 1 for
        // plurality (paper's 1-indexed users; ours are 1 and 0).
        let (g, b0, d, others) = running_example();
        let gen = WalkGenerator::new(&g, &d, 1);
        let arena = gen.generate_per_node(&Lambda::Uniform(30_000), 19);
        let score = ScoringFunction::Plurality;
        let index = RankIndex::build(&others, 0);

        // Gain of node 1 on the empty set: 0.
        let mut scratch = DeltaScratch::default();
        let est0 = OpinionEstimator::new(&arena, &b0);
        let acc0 = accumulator(&est0, &score, &index);
        assert_eq!(candidate_gain(&est0, &acc0, &index, 1, &mut scratch), 0.0);

        // Gain of node 1 once node 0 is seeded: 1 (user 2 flips).
        let mut est1 = OpinionEstimator::new(&arena, &b0);
        est1.add_seed(0);
        let acc1 = accumulator(&est1, &score, &index);
        let g1 = candidate_gain(&est1, &acc1, &index, 1, &mut scratch);
        assert!((g1 - 1.0).abs() < 0.1, "gain {g1}");
    }

    /// The delta-driven rank greedy must agree with a from-scratch
    /// reference that re-scores every user per candidate.
    #[test]
    fn rank_greedy_matches_full_rescan_reference() {
        let (g, b0, d, others) = running_example();
        let gen = WalkGenerator::new(&g, &d, 2);
        let arena = gen.generate_per_node(&Lambda::Uniform(700), 23);
        let score = ScoringFunction::PApproval { p: 2 };
        let index = RankIndex::build(&others, 0);

        // Reference: full rescan of the estimated score per candidate.
        let mut ref_est = OpinionEstimator::new(&arena, &b0);
        let mut ref_seeds = Vec::new();
        for _ in 0..3 {
            let estimated = |est: &OpinionEstimator<'_>| -> f64 {
                (0..4u32)
                    .map(|v| {
                        let rank = beta_with_target(&others, 0, v, est.estimate(v));
                        if rank <= 2 {
                            score.position_weight(rank)
                        } else {
                            0.0
                        }
                    })
                    .sum()
            };
            let base = estimated(&ref_est);
            let mut best: Option<(u32, f64, f64)> = None;
            for w in 0..4u32 {
                if ref_est.is_seed(w) {
                    continue;
                }
                let mut trial = ref_est.clone();
                trial.add_seed(w);
                let gain = estimated(&trial) - base;
                let cum = trial.estimated_cumulative() - ref_est.estimated_cumulative();
                let better = match best {
                    None => true,
                    Some((_, bg, bc)) => {
                        gain > bg + 1e-12 || ((gain - bg).abs() <= 1e-12 && cum > bc)
                    }
                };
                if better {
                    best = Some((w, gain, cum));
                }
            }
            let (w, _, _) = best.unwrap();
            ref_est.add_seed(w);
            ref_seeds.push(w);
        }

        let mut est = OpinionEstimator::new(&arena, &b0);
        let comp = Competitors {
            matrix: &others,
            ranks: &index,
        };
        let seeds = greedy_on_estimate(&mut est, 3, &score, Some(comp), 0, None);
        assert_eq!(seeds, ref_seeds);
    }

    /// One random rank-greedy case: a grouped walk arena and a sketch
    /// set over the same instance.
    #[derive(Debug, Clone)]
    struct RankCase {
        graph: vom_graph::SocialGraph,
        stubbornness: Vec<f64>,
        b0: Vec<f64>,
        /// Three competitor rows; row 0 of the matrix is the target's
        /// (ignored by the rank index).
        others: OpinionMatrix,
        t: usize,
        lambda: Lambda,
        theta: usize,
        fixed: Vec<Node>,
        walk_seed: u64,
    }

    /// Strategy: n ≤ 60 nodes, uniform or per-node λ (zeros allowed),
    /// θ in 1..400, t in 0..6, up to three fixed target seeds. Opinions
    /// sit on a 1/20 grid so estimates tie with competitor values now
    /// and then.
    fn arb_rank_case() -> impl Strategy<Value = RankCase> {
        (2usize..=60).prop_flat_map(|n| {
            let edges =
                proptest::collection::vec((0..n as Node, 0..n as Node, 0.1f64..5.0), 0..3 * n);
            let opinions = proptest::collection::vec(0u32..21, 4 * n);
            let stubbornness = proptest::collection::vec(0.0f64..=1.0, n);
            let lambda = (0u32..2, 1usize..10, proptest::collection::vec(0u32..10, n));
            let fixed = proptest::collection::vec(0..n as Node, 0..4);
            let walks = (lambda, 1usize..400, 0usize..6, fixed, 0u64..1_000);
            (edges, opinions, stubbornness, walks).prop_map(
                move |(edges, opinions, stubbornness, walks)| {
                    let ((kind, uniform, per_node), theta, t, fixed, walk_seed) = walks;
                    let grid = |i: usize| f64::from(opinions[i]) / 20.0;
                    let others = OpinionMatrix::from_rows(
                        (0..4)
                            .map(|c| {
                                (0..n)
                                    .map(|v| if c == 0 { 0.0 } else { grid(c * n + v) })
                                    .collect()
                            })
                            .collect(),
                    )
                    .unwrap();
                    RankCase {
                        graph: graph_from_edges(n, &edges).unwrap(),
                        stubbornness,
                        b0: (0..n).map(grid).collect(),
                        others,
                        t,
                        lambda: if kind == 0 {
                            Lambda::Uniform(uniform)
                        } else {
                            Lambda::PerNode(per_node)
                        },
                        theta,
                        fixed,
                        walk_seed,
                    }
                },
            )
        })
    }

    /// Each user's `(candidate, Δ bits)` pairs as the per-candidate
    /// merge ([`OpinionEstimate::for_candidate_deltas`]) finds them over
    /// the live walks, in ascending candidate order.
    fn merged_pairs<E: OpinionEstimate>(est: &E) -> Vec<Vec<(Node, u64)>> {
        let n = est.num_nodes() as Node;
        let mut merged = vec![Vec::new(); n as usize];
        let mut scratch = DeltaScratch::default();
        for w in (0..n).filter(|&w| !est.is_seed(w)) {
            est.for_candidate_deltas(w, &mut scratch, |v, d| {
                merged[v as usize].push((w, d.to_bits()))
            });
        }
        merged
    }

    /// How often the replays in [`check_rank_loops`] met each state.
    #[derive(Debug, Default)]
    struct LazyTally {
        /// Users found cold after a pass: their stored list differs from
        /// the merge.
        cold: usize,
        /// Touched lists the lazy rule had to merge again.
        rebuilds: usize,
    }

    /// The reference for the lazy rule: the changed users whose stale
    /// lists hold a non-own pair past the threshold, so the next pass
    /// must merge them again.
    fn crossing_users(
        pairs: &UserPairs,
        acc: &PositionalAccumulator,
        changed: impl Iterator<Item = Node>,
    ) -> Vec<Node> {
        let mut users: Vec<Node> = changed
            .filter(|&v| {
                let (value, tau) = (acc.value(v), acc.threshold(v));
                let (_, stale) = pairs.user(v);
                acc.weight(v) > 0.0 && stale.iter().skip(1).any(|&d| value + d > tau)
            })
            .collect();
        users.sort_unstable();
        users.dedup();
        users
    }

    /// After a gain pass, every user's list is fresh (bit-equal to the
    /// per-candidate merge) or cold: the own pair opens the list with its
    /// fresh delta, every fresh pair is listed with a stale delta at
    /// least as large, and every fresh non-own move stays within the
    /// user's threshold, so skipping it adds only `+0.0`. The users in
    /// `crossing` must be fresh. Either way, the pairs the pass scores
    /// that cross the threshold are exactly the fresh ones that do.
    fn check_fresh_or_cold<E: OpinionEstimate>(
        est: &E,
        pairs: &UserPairs,
        acc: &PositionalAccumulator,
        crossing: &[Node],
        tally: &mut LazyTally,
    ) {
        tally.rebuilds += crossing.len();
        for (v, fresh) in merged_pairs(est).into_iter().enumerate() {
            let v = v as Node;
            let (value, tau) = (acc.value(v), acc.threshold(v));
            let crosses = |&(_, bits): &(Node, u64)| value + f64::from_bits(bits) > tau;
            let (cands, deltas) = pairs.scored(v);
            let mut scored: Vec<(Node, u64)> = cands
                .iter()
                .zip(deltas)
                .map(|(&w, d)| (w, d.to_bits()))
                .filter(crosses)
                .collect();
            scored.sort_unstable();
            let want: Vec<(Node, u64)> = fresh.iter().copied().filter(crosses).collect();
            if acc.weight(v) > 0.0 {
                assert_eq!(scored, want, "user {v}: scored pairs past τ");
            }
            let (cands, deltas) = pairs.user(v);
            let mut stored: Vec<(Node, u64)> = cands
                .iter()
                .zip(deltas)
                .map(|(&w, d)| (w, d.to_bits()))
                .collect();
            stored.sort_unstable();
            if stored == fresh {
                continue;
            }
            tally.cold += 1;
            assert!(!crossing.contains(&v), "user {v}: crossing τ, not merged");
            let own = fresh
                .iter()
                .find(|&&(w, _)| w == v)
                .expect("a cold user has walks");
            assert_eq!((cands[0], deltas[0].to_bits()), *own, "user {v}: own pair");
            for &(w, bits) in fresh.iter().filter(|&&(w, _)| w != v) {
                let d = f64::from_bits(bits);
                let at = cands
                    .iter()
                    .position(|&c| c == w)
                    .expect("fresh pair listed");
                assert!(deltas[at] >= d, "user {v}, candidate {w}: stale < fresh");
                assert!(value + d <= tau, "user {v}, candidate {w} crosses τ");
            }
        }
    }

    /// The user-major loop against the candidate-major reference on
    /// estimators from `make` (fixed seeds applied): the same seeds and
    /// per-iteration winning `(gain, cum)` bits. A replay of the loop's
    /// passes and commits then checks every user fresh or cold after
    /// each pass ([`check_fresh_or_cold`]).
    fn check_rank_loops<E: OpinionEstimate>(
        make: impl Fn() -> E,
        index: &RankIndex,
        tally: &mut LazyTally,
    ) {
        let k = make().num_nodes().min(8);
        for score in [
            ScoringFunction::Plurality,
            ScoringFunction::PApproval { p: 2 },
            ScoringFunction::PositionalPApproval {
                p: 3,
                weights: vec![1.0, 0.6, 0.15, 0.0],
            },
        ] {
            let want = candidate_major_picks(&mut make(), k, &score, index);
            let got = rank_greedy(&mut make(), k, &score, index, None);
            assert_eq!(got.len(), want.len(), "{score}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.0, w.0, "{score} iteration {i}");
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "{score} gain at {i}");
                assert_eq!(g.2.to_bits(), w.2.to_bits(), "{score} cum at {i}");
            }
            let mut est = make();
            let mut acc = accumulator(&est, &score, index);
            let mut pairs = est.user_pairs();
            let mut gains = vec![0.0; est.num_nodes()];
            let mut touched = Vec::new();
            let mut crossing = Vec::new();
            for &(w, _, _) in &got {
                gain_pass(&est, &mut pairs, &acc, index, &mut gains);
                check_fresh_or_cold(&est, &pairs, &acc, &crossing, tally);
                commit(&mut est, &mut acc, &mut pairs, index, w, &mut touched);
                crossing = crossing_users(&pairs, &acc, touched.iter().copied().chain([w]));
            }
            gain_pass(&est, &mut pairs, &acc, index, &mut gains);
            check_fresh_or_cold(&est, &pairs, &acc, &crossing, tally);
        }
    }

    /// The user-major rank greedy picks the candidate-major loop's
    /// seeds, with the same winning `(gain, cum)` bits per iteration,
    /// over RW walks and RS sketches, and leaves every user fresh or
    /// cold after each pass. 64 deterministic cases of
    /// [`arb_rank_case`]; both estimators must reach the cold state and
    /// the lazy rebuild somewhere among them.
    #[test]
    fn user_major_rank_greedy_matches_candidate_major() {
        const NAME: &str = "user_major_rank_greedy_matches_candidate_major";
        let (mut walks, mut sketches) = (LazyTally::default(), LazyTally::default());
        for i in 0..64 {
            let case = arb_rank_case().generate(&mut proptest::TestRng::for_case(NAME, i));
            let guard = proptest::CaseGuard::new(NAME, i);
            let index = RankIndex::build(&case.others, 0);
            let gen = WalkGenerator::new(&case.graph, &case.stubbornness, case.t);
            let arena = gen.generate_per_node(&case.lambda, case.walk_seed);
            check_rank_loops(
                || {
                    let mut est = OpinionEstimator::new(&arena, &case.b0);
                    for &s in &case.fixed {
                        est.add_seed(s);
                    }
                    est
                },
                &index,
                &mut walks,
            );
            let sketch = SketchSet::generate(
                &case.graph,
                &case.stubbornness,
                &case.b0,
                case.t,
                case.theta,
                case.walk_seed,
            );
            check_rank_loops(
                || {
                    let mut est = sketch.clone();
                    for &s in &case.fixed {
                        est.add_seed(s);
                    }
                    est
                },
                &index,
                &mut sketches,
            );
            guard.disarm();
        }
        eprintln!("lazy pair lists: walks {walks:?}, sketches {sketches:?}");
        for (name, tally) in [("walks", &walks), ("sketches", &sketches)] {
            assert!(tally.cold > 0, "{name}: no case reached the cold state");
            assert!(tally.rebuilds > 0, "{name}: no case rebuilt a list");
        }
    }
}
