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
//!   instead of `O(n·r)`);
//! * candidate gains are evaluated per candidate from the truncation's
//!   occurrence index ([`OpinionEstimate::for_candidate_deltas`],
//!   [`OpinionEstimate::cumulative_gain_of`]) — no more whole-arena
//!   prefix rescans, sorts, or delta-list materialization per
//!   iteration;
//! * the submodular cumulative objectives run a lazy (CELF-style)
//!   greedy over those per-candidate gains: a candidate is only
//!   re-evaluated when it reaches the top of the heap.
//!
//! Everything is arranged to stay **bit-identical** to the historical
//! full-rescan loops: per-candidate gains visit the same walks in the
//! same order as the old whole-arena scans, accumulator contributions
//! are the same `w·ω[β]` products, and the lazy greedy's correctness
//! rests on the truncation estimates' gains being non-increasing (terms
//! are non-negative and seeds only remove them; an IEEE left-to-right
//! sum of non-negative terms is monotone under subset removal).

use crate::estimate::OpinionEstimate;
use crate::phases::{self, CostMeter, Phase};
use std::time::{Duration, Instant};
use vom_diffusion::OpinionMatrix;
use vom_graph::{Candidate, Node};
use vom_voting::rank::beta_with_target;
use vom_voting::{PositionalAccumulator, RankIndex, ScoringFunction};
use vom_walks::DeltaScratch;

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
        ScoringFunction::Cumulative => {
            lazy_greedy_fill(est, k, meter, |est, w| est.cumulative_gain_of(w))
        }
        ScoringFunction::Plurality
        | ScoringFunction::PApproval { .. }
        | ScoringFunction::PositionalPApproval { .. } => {
            let comp = comp.expect("competitive score needs competitor opinions");
            rank_greedy(est, k, score, comp.ranks, meter)
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
    lazy_greedy_fill(est, k, None, |est, w| {
        est.cumulative_gain_of_masked(w, mask)
    })
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
fn lazy_greedy_fill<E: OpinionEstimate>(
    est: &mut E,
    k: usize,
    meter: Option<&CostMeter>,
    gain_of: impl Fn(&E, Node) -> f64,
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
    let selected = crate::celf::lazy_greedy(
        &candidates,
        k,
        false,
        meter,
        crate::celf::per_node(|v| gain_of(&cell.borrow(), v)),
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

/// The persistent per-user scoring state of a rank-based greedy run: the
/// current estimates and positional contributions, refreshed only for
/// users the truncation reports as changed.
pub(crate) struct RankState {
    acc: PositionalAccumulator,
    scratch: DeltaScratch,
}

impl RankState {
    /// Builds the state from the estimator's current per-user estimates
    /// (`O(n·log r)`, once per greedy run).
    pub(crate) fn init<E: OpinionEstimate>(
        est: &E,
        score: &ScoringFunction,
        index: &RankIndex,
    ) -> RankState {
        let n = est.num_nodes();
        let mut acc = PositionalAccumulator::new(score, n);
        for v in 0..n as Node {
            if let Some(e) = est.estimate(v) {
                let w = est.user_weight(v);
                if w > 0.0 {
                    acc.set_user(index, v, e, w);
                }
            }
        }
        RankState {
            acc,
            scratch: DeltaScratch::default(),
        }
    }

    /// Re-reads the listed users' estimates from the estimator
    /// (`O(Δ·log r)`), after a seed commit.
    pub(crate) fn refresh<E: OpinionEstimate>(
        &mut self,
        est: &E,
        index: &RankIndex,
        users: impl Iterator<Item = Node>,
    ) {
        for v in users {
            if let Some(e) = est.estimate(v) {
                let w = est.user_weight(v);
                if w > 0.0 {
                    self.acc.set_user(index, v, e, w);
                }
            }
        }
    }

    /// The marginal estimated-score gain of candidate seed `w` plus its
    /// estimated-cumulative gain (the tie-break criterion), from one
    /// pass over `w`'s occurrences: the merged per-user deltas are
    /// applied against the accumulator, re-ranking only the affected
    /// users (`O(Δ_w·log r)`).
    pub(crate) fn gain_and_cum<E: OpinionEstimate>(
        &mut self,
        est: &E,
        index: &RankIndex,
        w: Node,
    ) -> (f64, f64) {
        let acc = &self.acc;
        let mut gain = 0.0;
        let cum = est.for_candidate_deltas_cum(w, &mut self.scratch, |user, delta| {
            if acc.weight(user) <= 0.0 {
                return;
            }
            let new_contrib = acc.preview(index, user, acc.value(user) + delta);
            gain += new_contrib - acc.contribution(user);
        });
        (gain, cum)
    }
}

/// Greedy for the plurality variants. The discrete score is flat almost
/// everywhere, so ties break by the estimated-cumulative gain (still
/// moving opinions toward the target helps later iterations and the true
/// objective) — computed in the same single occurrence pass as the rank
/// gain, which is what makes carrying it for every candidate cheap.
fn rank_greedy<E: OpinionEstimate>(
    est: &mut E,
    k: usize,
    score: &ScoringFunction,
    index: &RankIndex,
    meter: Option<&CostMeter>,
) -> Vec<Node> {
    // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
    let started = Instant::now();
    let mut truncating = Duration::ZERO;
    let n = est.num_nodes();
    let mut state = RankState::init(est, score, index);
    let mut selected = Vec::with_capacity(k);
    let mut touched: Vec<Node> = Vec::new();
    for _ in 0..k {
        // Sequential checkpoint: per-iteration commits mean stopping here
        // leaves `selected` a prefix of the full-budget selection.
        if meter.is_some_and(|m| m.exhausted()) {
            break;
        }
        // (node, rank gain, cumulative tie-break gain) — both gains come
        // out of one pass over the candidate's occurrence list.
        let mut best: Option<(Node, f64, f64)> = None;
        let mut scanned = 0u64;
        for w in 0..n as Node {
            if est.is_seed(w) {
                continue;
            }
            scanned += 1;
            let (gain, cum) = state.gain_and_cum(est, index, w);
            let better = match best {
                None => true,
                Some((_, bg, bs)) => gain > bg || (gain == bg && cum > bs),
            };
            if better {
                best = Some((w, gain, cum));
            }
        }
        if let Some(m) = meter {
            m.charge(scanned); // one tick per scored candidate
        }
        let Some((bw, _, _)) = best else { break };
        // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
        let t = Instant::now();
        est.add_seed_into(bw, &mut touched);
        truncating += t.elapsed();
        selected.push(bw);
        state.refresh(est, index, touched.iter().copied().chain([bw]));
    }
    phases::record(Phase::Truncation, truncating);
    phases::record(Phase::Scoring, started.elapsed().saturating_sub(truncating));
    selected
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
    use vom_graph::builder::graph_from_edges;
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
        let est0 = OpinionEstimator::new(&arena, &b0);
        let mut state0 = RankState::init(&est0, &score, &index);
        assert_eq!(state0.gain_and_cum(&est0, &index, 1).0, 0.0);

        // Gain of node 1 once node 0 is seeded: 1 (user 2 flips).
        let mut est1 = OpinionEstimator::new(&arena, &b0);
        est1.add_seed(0);
        let mut state1 = RankState::init(&est1, &score, &index);
        let g1 = state1.gain_and_cum(&est1, &index, 1).0;
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
}
