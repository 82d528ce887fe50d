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
//! * the per-user estimate state of the competitive scores lives in an
//!   accumulator that persists across greedy iterations — a
//!   [`PositionalAccumulator`] for the plurality variants, a
//!   [`WeightedCopeland`] for Copeland; after a seed commits, only the
//!   users named in the estimator's changed-users delta report are
//!   refreshed (`O(Δ·log r)` instead of `O(n·r)`). Each user's threshold
//!   `τ` bounds the moves that cannot change its score terms, so the
//!   greedy skips those moves;
//! * one greedy serves every competitive score, **user-major** over RW
//!   and RS alike: once per run it merges each user's live walks or
//!   sketches into `(candidate, Δ)` pairs ([`vom_walks::UserPairs`];
//!   sampled sketch starts are grouped by one counting sort), and each
//!   iteration is one pass over those pairs adding each move past `τ`
//!   into its candidate's terms in ascending user order
//!   (`preview − contribution` for the positional rules, the changed
//!   duels' nets for Copeland). A commit only marks the changed users'
//!   lists touched; the next pass merges a touched list again only if a
//!   stale pair can still cross the user's threshold, and otherwise
//!   refolds the user's own pair and lets it score that pair alone (a
//!   stale delta bounds the fresh one, as in Minoux's lazy greedy). The
//!   tie-break is computed only for the candidates tied at the maximum
//!   gain;
//! * the submodular cumulative objectives run a lazy (CELF-style)
//!   greedy over per-candidate gains
//!   ([`OpinionEstimate::cumulative_gains_of`]): a candidate is only
//!   re-evaluated when it reaches the top of the heap.
//!
//! Everything is arranged to stay **bit-identical** to the historical
//! full-rescan loops: per-candidate gains sum the same terms in the same
//! order as the old whole-arena scans (a skipped move's term is exactly
//! `+0.0`, and adding `+0.0` to a sum that started at `+0.0` changes no
//! bits), accumulator contributions are the same `w·ω[β]` products, and
//! the lazy greedy's correctness rests on the truncation estimates'
//! gains being non-increasing (terms are non-negative and seeds only
//! remove them; an IEEE left-to-right sum of non-negative terms is
//! monotone under subset removal). DESIGN.md §2b gives the argument for
//! each step.

use crate::estimate::OpinionEstimate;
use crate::phases::{self, CostMeter, Phase};
use std::time::{Duration, Instant};
use vom_diffusion::OpinionMatrix;
use vom_graph::{Candidate, Node};
use vom_voting::rank::beta_with_target;
use vom_voting::{PositionalAccumulator, RankIndex, ScoringFunction, WeightedCopeland};
use vom_walks::UserPairs;

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
/// index, which names the target) is required for the competitive scores
/// and ignored for cumulative.
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
    meter: Option<&CostMeter>,
) -> Vec<Node> {
    let picks = match score {
        ScoringFunction::Cumulative => return lazy_greedy_fill(est, k, None, meter),
        ScoringFunction::Plurality
        | ScoringFunction::PApproval { .. }
        | ScoringFunction::PositionalPApproval { .. } => {
            let index = comp
                .expect("competitive score needs competitor opinions")
                .ranks;
            let acc = PositionalGains::new(score, est.num_nodes());
            rank_greedy(est, k, acc, index, meter)
        }
        ScoringFunction::Copeland => {
            let index = comp
                .expect("competitive score needs competitor opinions")
                .ranks;
            rank_greedy(est, k, WeightedCopeland::new(index), index, meter)
        }
    };
    picks.into_iter().map(|(w, _, _)| w).collect()
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
// Competitive scores: the user-major accumulator greedy
// ---------------------------------------------------------------------

/// A rule's side of [`rank_greedy`]: each user's value, weight and
/// threshold `τ` (a move to `x ≤ τ` would add exactly `+0.0`), the terms
/// of the moves past `τ`, and each candidate's gain and tie-break after a
/// pass. Implemented by [`PositionalGains`] for the plurality variants
/// and by [`WeightedCopeland`] for Copeland; the greedy is monomorphized
/// for each.
trait RuleAccumulator {
    /// Sets user `v`'s estimate and weight (`O(log r)`).
    fn set_user(&mut self, index: &RankIndex, v: Node, value: f64, weight: f64);
    /// User `v`'s current estimate.
    fn value(&self, v: Node) -> f64;
    /// User `v`'s weight; users of weight 0 never score.
    fn weight(&self, v: Node) -> f64;
    /// User `v`'s threshold `τ`.
    fn threshold(&self, v: Node) -> f64;
    /// Clears the candidates' terms before a pass.
    fn begin_pass(&mut self, index: &RankIndex);
    /// Adds the terms of candidate `w` moving user `v` to `x > τ(v)`.
    fn add_move(&mut self, index: &RankIndex, v: Node, w: Node, x: f64);
    /// Candidate `w`'s gain after a pass.
    fn gain(&self, w: Node) -> f64;
    /// Candidate `w`'s tie-break after a pass.
    fn tie_break<E: OpinionEstimate>(&self, est: &E, w: Node) -> f64;
}

/// The plurality variants' accumulator and each candidate's rank gain,
/// summed `preview − contribution` over its moves. Ties break by the
/// estimated-cumulative gain: the discrete score is flat almost
/// everywhere, and moving opinions toward the target still helps later
/// iterations and the true objective.
struct PositionalGains {
    acc: PositionalAccumulator,
    gains: Vec<f64>,
}

impl PositionalGains {
    fn new(score: &ScoringFunction, n: usize) -> PositionalGains {
        PositionalGains {
            acc: PositionalAccumulator::new(score, n),
            gains: vec![0.0; n],
        }
    }
}

impl RuleAccumulator for PositionalGains {
    fn set_user(&mut self, index: &RankIndex, v: Node, value: f64, weight: f64) {
        self.acc.set_user(index, v, value, weight);
    }
    fn value(&self, v: Node) -> f64 {
        self.acc.value(v)
    }
    fn weight(&self, v: Node) -> f64 {
        self.acc.weight(v)
    }
    fn threshold(&self, v: Node) -> f64 {
        self.acc.threshold(v)
    }
    fn begin_pass(&mut self, _index: &RankIndex) {
        self.gains.iter_mut().for_each(|g| *g = 0.0);
    }
    #[inline]
    fn add_move(&mut self, index: &RankIndex, v: Node, w: Node, x: f64) {
        self.gains[w as usize] += self.acc.preview(index, v, x) - self.acc.contribution(v);
    }
    fn gain(&self, w: Node) -> f64 {
        self.gains[w as usize]
    }
    fn tie_break<E: OpinionEstimate>(&self, est: &E, w: Node) -> f64 {
        est.cumulative_gain_of(w)
    }
}

/// Copeland: the gain is the change in duels won, and ties break by the
/// total net margin gained across the duels. Near a majority tie the
/// win count is a coin flip on estimates, but the margin still points at
/// the seed that moves the most users past their duel thresholds.
impl RuleAccumulator for WeightedCopeland {
    fn set_user(&mut self, index: &RankIndex, v: Node, value: f64, weight: f64) {
        WeightedCopeland::set_user(self, index, v, value, weight);
    }
    fn value(&self, v: Node) -> f64 {
        WeightedCopeland::value(self, v)
    }
    fn weight(&self, v: Node) -> f64 {
        WeightedCopeland::weight(self, v)
    }
    fn threshold(&self, v: Node) -> f64 {
        WeightedCopeland::threshold(self, v)
    }
    fn begin_pass(&mut self, index: &RankIndex) {
        WeightedCopeland::begin_pass(self, index);
    }
    #[inline]
    fn add_move(&mut self, index: &RankIndex, v: Node, w: Node, x: f64) {
        WeightedCopeland::add_move(self, index, v, w, x);
    }
    fn gain(&self, w: Node) -> f64 {
        WeightedCopeland::gain(self, w)
    }
    fn tie_break<E: OpinionEstimate>(&self, _est: &E, w: Node) -> f64 {
        self.margin(w)
    }
}

/// Sets the listed users' current estimates in `acc` (`O(log r)` each):
/// every user once per greedy run, then the changed-users report after
/// each commit.
fn refresh_users<E: OpinionEstimate, A: RuleAccumulator>(
    est: &E,
    acc: &mut A,
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

/// One committed seed of a competitive greedy with its winning gain and
/// tie-break.
type Pick = (Node, f64, f64);

/// The greedy for the competitive scores, returning each pick with its
/// winning gain and tie-break.
///
/// It runs user-major over the estimator's
/// [`OpinionEstimate::user_pairs`]: each iteration is one
/// [`gain_pass`], then an argmax that takes the largest gain and
/// computes the tie-break only for the candidates tied at it, lowest id
/// first: the node a sequential scan keeping the first largest
/// `(gain, tie-break)` picks. A [`commit`] refreshes the changed users'
/// accumulator entries and marks their pair lists touched; the next pass
/// brings a touched list up to date only as far as its threshold needs.
fn rank_greedy<E: OpinionEstimate, A: RuleAccumulator>(
    est: &mut E,
    k: usize,
    mut acc: A,
    index: &RankIndex,
    meter: Option<&CostMeter>,
) -> Vec<Pick> {
    // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
    let started = Instant::now();
    let mut truncating = Duration::ZERO;
    let n = est.num_nodes();
    refresh_users(est, &mut acc, index, 0..n as Node);
    let mut pairs = est.user_pairs();
    let mut picks = Vec::with_capacity(k);
    let mut touched: Vec<Node> = Vec::new();
    let mut tied: Vec<Node> = Vec::new();
    for _ in 0..k {
        // Sequential checkpoint: per-iteration commits mean stopping here
        // leaves the picks a prefix of the full-budget selection.
        if meter.is_some_and(|m| m.exhausted()) {
            break;
        }
        gain_pass(est, &mut pairs, &mut acc, index);
        let mut top = 0.0;
        let mut scanned = 0u64;
        tied.clear();
        for w in 0..n as Node {
            if est.is_seed(w) {
                continue;
            }
            scanned += 1;
            let g = acc.gain(w);
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
        let mut pick = (first, acc.gain(first), acc.tie_break(est, first));
        for &w in rest {
            let tie_break = acc.tie_break(est, w);
            if tie_break > pick.2 {
                pick = (w, acc.gain(w), tie_break);
            }
        }
        truncating += commit(est, &mut acc, &mut pairs, index, pick.0, &mut touched);
        picks.push(pick);
    }
    phases::record(Phase::Truncation, truncating);
    phases::record(Phase::Scoring, started.elapsed().saturating_sub(truncating));
    picks
}

/// One scoring pass: settles the touched pair lists
/// ([`UserPairs::settle`]), then adds every scored pair whose move passes
/// its user's threshold into the candidates' terms, users in ascending
/// order. Per candidate, these are the terms and order of a merge over
/// its occurrences, minus exact `+0.0` terms: moves within the
/// threshold, and the stale pairs of cold users.
fn gain_pass<E: OpinionEstimate, A: RuleAccumulator>(
    est: &E,
    pairs: &mut UserPairs,
    acc: &mut A,
    index: &RankIndex,
) {
    pairs.settle(
        |v| (acc.value(v), acc.threshold(v)),
        |v, i| est.live_walk(v, i),
    );
    acc.begin_pass(index);
    for v in 0..est.num_nodes() as Node {
        if acc.weight(v) <= 0.0 {
            continue;
        }
        let (value, tau) = (acc.value(v), acc.threshold(v));
        let (cands, deltas) = pairs.scored(v);
        for (&w, &delta) in cands.iter().zip(deltas) {
            let x = value + delta;
            if x > tau {
                acc.add_move(index, v, w, x);
            }
        }
    }
}

/// Commits `pick` as a seed, refreshes the accumulator entries of the
/// users whose estimates changed (the changed-users report and the pick)
/// and marks their pair lists touched. Returns the time spent
/// truncating.
fn commit<E: OpinionEstimate, A: RuleAccumulator>(
    est: &mut E,
    acc: &mut A,
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

    /// `acc` set to the estimator's current estimates.
    fn fresh<E: OpinionEstimate, A: RuleAccumulator>(est: &E, mut acc: A, index: &RankIndex) -> A {
        refresh_users(est, &mut acc, index, 0..est.num_nodes() as Node);
        acc
    }

    /// Each candidate's `(user, Δ)` pairs in ascending user order, from a
    /// fresh [`OpinionEstimate::user_pairs`] (checked against a scan over
    /// every live prefix by the estimators' `user_pairs_match_pair_deltas`).
    fn candidate_deltas<E: OpinionEstimate>(est: &E) -> Vec<Vec<(Node, f64)>> {
        let pairs = est.user_pairs();
        let mut deltas = vec![Vec::new(); est.num_nodes()];
        for v in 0..est.num_nodes() as Node {
            let (cands, ds) = pairs.user(v);
            for (&w, &d) in cands.iter().zip(ds) {
                deltas[w as usize].push((v, d));
            }
        }
        deltas
    }

    /// A candidate's rank gain from its `(user, Δ)` pairs, previewing
    /// every move, within the user's threshold or not.
    fn candidate_gain(
        acc: &PositionalAccumulator,
        index: &RankIndex,
        deltas: &[(Node, f64)],
    ) -> f64 {
        let mut gain = 0.0;
        for &(user, delta) in deltas {
            if acc.weight(user) > 0.0 {
                gain += acc.preview(index, user, acc.value(user) + delta) - acc.contribution(user);
            }
        }
        gain
    }

    /// The candidate-major reference for the positional rules: per
    /// iteration, every non-seed candidate's [`candidate_gain`] and
    /// `cumulative_gain_of`, and a sequential argmax keeping the first
    /// largest `(gain, cum)`.
    fn candidate_major_picks<E: OpinionEstimate>(
        est: &mut E,
        k: usize,
        score: &ScoringFunction,
        index: &RankIndex,
    ) -> Vec<Pick> {
        let mut touched = Vec::new();
        let mut picks = Vec::new();
        for _ in 0..k {
            let acc = fresh(est, PositionalGains::new(score, est.num_nodes()), index).acc;
            let deltas = candidate_deltas(est);
            let mut best: Option<Pick> = None;
            for w in (0..est.num_nodes() as Node).filter(|&w| !est.is_seed(w)) {
                let gain = candidate_gain(&acc, index, &deltas[w as usize]);
                let cum = est.cumulative_gain_of(w);
                if best.is_none_or(|(_, bg, bc)| gain > bg || (gain == bg && cum > bc)) {
                    best = Some((w, gain, cum));
                }
            }
            let Some(pick) = best else { break };
            est.add_seed_into(pick.0, &mut touched);
            picks.push(pick);
        }
        picks
    }

    /// The candidate-major reference for Copeland: per iteration, the
    /// weighted nets over every user's current estimate in user order,
    /// then per non-seed candidate the net changes of every duel of every
    /// one of its deltas, with no threshold and no lazy lists, and a
    /// sequential argmax keeping the first largest `(gain, margin)`.
    fn copeland_candidate_major_picks<E: OpinionEstimate>(
        est: &mut E,
        k: usize,
        others: &OpinionMatrix,
        q: Candidate,
    ) -> Vec<Pick> {
        let n = est.num_nodes();
        let opponents: Vec<Candidate> = (0..others.num_candidates()).filter(|&x| x != q).collect();
        let sign = |b: f64, bx: f64| {
            if b > bx {
                1.0
            } else if b < bx {
                -1.0
            } else {
                0.0
            }
        };
        let mut touched = Vec::new();
        let mut picks = Vec::new();
        for _ in 0..k {
            // (estimate, weight) per user; weight 0 for users not scored.
            let users: Vec<(f64, f64)> = (0..n as Node)
                .map(|v| match est.estimate(v) {
                    Some(e) if est.user_weight(v) > 0.0 => (e, est.user_weight(v)),
                    _ => (0.0, 0.0),
                })
                .collect();
            let mut net = vec![0.0f64; opponents.len()];
            for (v, &(e, uw)) in users.iter().enumerate().filter(|(_, u)| u.1 > 0.0) {
                for (s, &x) in net.iter_mut().zip(&opponents) {
                    let bx = others.get(x, v as Node);
                    if e > bx {
                        *s += uw;
                    } else if e < bx {
                        *s -= uw;
                    }
                }
            }
            let wins = net.iter().filter(|&&s| s > 0.0).count() as f64;
            let deltas = candidate_deltas(est);
            let mut best: Option<Pick> = None;
            for w in (0..n as Node).filter(|&w| !est.is_seed(w)) {
                let mut change = vec![0.0f64; opponents.len()];
                for &(v, delta) in &deltas[w as usize] {
                    let (old, uw) = users[v as usize];
                    if uw > 0.0 {
                        for (c, &x) in change.iter_mut().zip(&opponents) {
                            let bx = others.get(x, v);
                            *c += uw * (sign(old + delta, bx) - sign(old, bx));
                        }
                    }
                }
                let won = net
                    .iter()
                    .zip(&change)
                    .filter(|&(&s, &c)| s + c > 0.0)
                    .count();
                let (gain, margin) = (won as f64 - wins, change.iter().sum::<f64>());
                if best.is_none_or(|(_, bg, bm)| gain > bg || (gain == bg && margin > bm)) {
                    best = Some((w, gain, margin));
                }
            }
            let Some(pick) = best else { break };
            est.add_seed_into(pick.0, &mut touched);
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
        let seeds = greedy_on_estimate(&mut est, 1, &ScoringFunction::Cumulative, None, None);
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
        let seeds = greedy_on_estimate(&mut est, 1, &ScoringFunction::Plurality, Some(comp), None);
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
        let seeds = greedy_on_estimate(&mut est, 1, &ScoringFunction::Copeland, Some(comp), None);
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
        let seeds = greedy_on_estimate(&mut est, 2, &ScoringFunction::Cumulative, None, None);
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
        let b = greedy_on_estimate(&mut est_b, 3, &ScoringFunction::Cumulative, None, None);
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
        let acc0 = fresh(&est0, PositionalGains::new(&score, 4), &index).acc;
        assert_eq!(
            candidate_gain(&acc0, &index, &candidate_deltas(&est0)[1]),
            0.0
        );

        // Gain of node 1 once node 0 is seeded: 1 (user 2 flips).
        let mut est1 = OpinionEstimator::new(&arena, &b0);
        est1.add_seed(0);
        let acc1 = fresh(&est1, PositionalGains::new(&score, 4), &index).acc;
        let g1 = candidate_gain(&acc1, &index, &candidate_deltas(&est1)[1]);
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
        let seeds = greedy_on_estimate(&mut est, 3, &score, Some(comp), None);
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

    /// Each user's `(candidate, Δ bits)` pairs over the live walks, from
    /// a fresh merge, in ascending candidate order.
    fn merged_pairs<E: OpinionEstimate>(est: &E) -> Vec<Vec<(Node, u64)>> {
        let pairs = est.user_pairs();
        (0..est.num_nodes() as Node)
            .map(|v| {
                let (cands, deltas) = pairs.user(v);
                let mut list: Vec<(Node, u64)> = cands
                    .iter()
                    .zip(deltas)
                    .map(|(&w, d)| (w, d.to_bits()))
                    .collect();
                list.sort_unstable();
                list
            })
            .collect()
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
    fn crossing_users<A: RuleAccumulator>(
        pairs: &UserPairs,
        acc: &A,
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

    /// After a gain pass, every user's list is fresh (bit-equal to a
    /// fresh merge) or cold: the own pair opens the list with its fresh
    /// delta, every fresh pair is listed with a stale delta at least as
    /// large, and every fresh non-own move stays within the user's
    /// threshold, so skipping it adds only `+0.0`. The users in
    /// `crossing` must be fresh. Either way, the pairs the pass scores
    /// that cross the threshold are exactly the fresh ones that do.
    fn check_fresh_or_cold<E: OpinionEstimate, A: RuleAccumulator>(
        est: &E,
        pairs: &UserPairs,
        acc: &A,
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

    /// `got` picks the seeds of `want` with the same `(gain, tie-break)`
    /// bits per iteration.
    fn assert_same_picks(rule: &str, got: &[Pick], want: &[Pick]) {
        assert_eq!(got.len(), want.len(), "{rule}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.0, w.0, "{rule} iteration {i}");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "{rule} gain at {i}");
            assert_eq!(g.2.to_bits(), w.2.to_bits(), "{rule} tie-break at {i}");
        }
    }

    /// Replays the passes and commits of a greedy that picked `picks`
    /// from `est` with `acc`, checking every user fresh or cold after
    /// each pass ([`check_fresh_or_cold`]).
    fn replay_lazy_lists<E: OpinionEstimate, A: RuleAccumulator>(
        mut est: E,
        acc: A,
        index: &RankIndex,
        picks: &[Pick],
        tally: &mut LazyTally,
    ) {
        let mut acc = fresh(&est, acc, index);
        let mut pairs = est.user_pairs();
        let mut touched = Vec::new();
        let mut crossing = Vec::new();
        for &(w, _, _) in picks {
            gain_pass(&est, &mut pairs, &mut acc, index);
            check_fresh_or_cold(&est, &pairs, &acc, &crossing, tally);
            commit(&mut est, &mut acc, &mut pairs, index, w, &mut touched);
            crossing = crossing_users(&pairs, &acc, touched.iter().copied().chain([w]));
        }
        gain_pass(&est, &mut pairs, &mut acc, index);
        check_fresh_or_cold(&est, &pairs, &acc, &crossing, tally);
    }

    /// The user-major loop against the candidate-major references on
    /// estimators from `make` (fixed seeds applied), for the positional
    /// rules (tallied in `tallies[0]`) and Copeland (`tallies[1]`): the
    /// same seeds and per-iteration winning `(gain, tie-break)` bits,
    /// then [`replay_lazy_lists`].
    fn check_rank_loops<E: OpinionEstimate>(
        make: impl Fn() -> E,
        others: &OpinionMatrix,
        index: &RankIndex,
        tallies: &mut [LazyTally; 2],
    ) {
        let n = make().num_nodes();
        let k = n.min(8);
        for score in [
            ScoringFunction::Plurality,
            ScoringFunction::PApproval { p: 2 },
            ScoringFunction::PositionalPApproval {
                p: 3,
                weights: vec![1.0, 0.6, 0.15, 0.0],
            },
        ] {
            let want = candidate_major_picks(&mut make(), k, &score, index);
            let got = rank_greedy(&mut make(), k, PositionalGains::new(&score, n), index, None);
            assert_same_picks(&score.to_string(), &got, &want);
            let acc = PositionalGains::new(&score, n);
            replay_lazy_lists(make(), acc, index, &got, &mut tallies[0]);
        }
        let want = copeland_candidate_major_picks(&mut make(), k, others, index.target());
        let got = rank_greedy(&mut make(), k, WeightedCopeland::new(index), index, None);
        assert_same_picks("Copeland", &got, &want);
        replay_lazy_lists(
            make(),
            WeightedCopeland::new(index),
            index,
            &got,
            &mut tallies[1],
        );
    }

    /// The user-major greedy picks the candidate-major loops' seeds, with
    /// the same winning `(gain, tie-break)` bits per iteration, for the
    /// positional rules and Copeland over RW walks and RS sketches, and
    /// leaves every user fresh or cold after each pass. 64 deterministic
    /// cases of [`arb_rank_case`]; under each rule family, both
    /// estimators must reach the cold state and the lazy rebuild
    /// somewhere among them.
    #[test]
    fn user_major_rank_greedy_matches_candidate_major() {
        const NAME: &str = "user_major_rank_greedy_matches_candidate_major";
        let mut walks: [LazyTally; 2] = Default::default();
        let mut sketches: [LazyTally; 2] = Default::default();
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
                &case.others,
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
                &case.others,
                &index,
                &mut sketches,
            );
            guard.disarm();
        }
        eprintln!("lazy pair lists (positional, Copeland): walks {walks:?}, sketches {sketches:?}");
        for (name, tallies) in [("walks", &walks), ("sketches", &sketches)] {
            for (rule, tally) in ["positional", "Copeland"].iter().zip(tallies) {
                assert!(
                    tally.cold > 0,
                    "{name}, {rule}: no case reached the cold state"
                );
                assert!(tally.rebuilds > 0, "{name}, {rule}: no case rebuilt a list");
            }
        }
    }
}
