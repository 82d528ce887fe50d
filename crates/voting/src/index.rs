//! Rank-indexed competitor opinions and delta-driven score accumulators.
//!
//! The rank `β(b_qv) = 1 + |{x ≠ q : b_xv ≥ b_qv}|` is the inner loop of
//! every competitive score evaluation: the naive [`crate::rank::beta_with_target`]
//! scans all `r − 1` competitor opinions per call, which turns one greedy
//! candidate evaluation into an `O(n·r)` pass. Since the competitor
//! opinions at the horizon are *fixed* while a selection runs (only the
//! target's opinions move with the seed set), they can be sorted once per
//! user — after which a rank is one `O(log r)` binary search, and a
//! score update for one user is a constant-size recomputation instead of
//! a matrix scan.
//!
//! * [`RankIndex`] — the per-user sorted competitor opinions (built once
//!   from the exact non-target opinion matrix, shared read-only by any
//!   number of concurrent queries);
//! * [`PositionalAccumulator`] — the current per-user values and
//!   positional contributions of a plurality / p-approval /
//!   positional-p-approval score, updated per changed user in
//!   `O(log r)`;
//! * [`CopelandAccumulator`] — the per-opponent pairwise nets of the
//!   Copeland score as exact integers, updated per changed user in
//!   `O(log r + crossed)` where `crossed` counts the competitor opinions
//!   the user's new value moved past.
//!
//! Both accumulators reproduce the from-scratch evaluations bit for bit:
//! ranks are exact integer counts (a binary search counts the same set a
//! linear scan does), positional contributions are the same
//! `ω[β]·1[β ≤ p]` lookups, and the Copeland nets are integer sums the
//! way [`crate::score::copeland_score`] computes them. The property
//! suite in `tests/properties_voting_index.rs` asserts this equivalence
//! on random opinion matrices and arbitrary update sequences.

use crate::rank::beta_with_target;
use crate::score::ScoringFunction;
use vom_diffusion::OpinionMatrix;
use vom_graph::{Candidate, Node};

/// Per-user competitor opinions, sorted ascending — the index behind
/// `O(log r)` rank queries.
///
/// Built from the exact non-target opinion matrix for one target
/// candidate `q` (the target's own row is ignored, as in
/// [`beta_with_target`]). Immutable after construction; the prepared
/// engines cache one per index and share it across query sessions.
#[derive(Debug, Clone)]
pub struct RankIndex {
    q: Candidate,
    r: usize,
    n: usize,
    /// `r − 1` competitor opinions per user, ascending; user `v`'s slice
    /// is `values[v·(r−1) .. (v+1)·(r−1)]`.
    values: Vec<f64>,
    /// The competitor candidate owning each sorted value (parallel to
    /// `values`) — what the Copeland accumulator needs to know *which*
    /// duel a crossed value belongs to.
    owners: Vec<Candidate>,
}

impl RankIndex {
    /// Builds the index for target `q` from the exact opinions of all
    /// candidates (the row of `q` itself is skipped, so the usual
    /// zeroed-target-row convention of `non_target_opinions` is fine).
    pub fn build(others: &OpinionMatrix, q: Candidate) -> RankIndex {
        let r = others.num_candidates();
        let n = others.num_users();
        let width = r.saturating_sub(1);
        let mut values = Vec::with_capacity(n * width);
        let mut owners = Vec::with_capacity(n * width);
        let mut scratch: Vec<(f64, Candidate)> = Vec::with_capacity(width);
        for v in 0..n as Node {
            scratch.clear();
            for x in 0..r {
                if x != q {
                    scratch.push((others.get(x, v), x));
                }
            }
            // Ties break by candidate id so the layout is deterministic;
            // rank counts are insensitive to the tie order.
            scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            for &(val, x) in &scratch {
                values.push(val);
                owners.push(x);
            }
        }
        RankIndex {
            q,
            r,
            n,
            values,
            owners,
        }
    }

    /// Exact owned heap footprint in bytes: the two `n·(r−1)` arrays at
    /// full `Vec` capacity.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.owners.capacity() * std::mem::size_of::<Candidate>()
    }

    /// The target candidate the index was built for.
    pub fn target(&self) -> Candidate {
        self.q
    }

    /// Number of candidates `r` (including the target).
    pub fn num_candidates(&self) -> usize {
        self.r
    }

    /// Number of users `n`.
    pub fn num_users(&self) -> usize {
        self.n
    }

    /// User `v`'s competitor opinions, ascending.
    #[inline]
    pub fn user_values(&self, v: Node) -> &[f64] {
        let w = self.r - 1;
        &self.values[v as usize * w..(v as usize + 1) * w]
    }

    /// The competitor candidates owning [`RankIndex::user_values`], in
    /// the same (sorted) order.
    #[inline]
    pub fn user_owners(&self, v: Node) -> &[Candidate] {
        let w = self.r - 1;
        &self.owners[v as usize * w..(v as usize + 1) * w]
    }

    /// The rank `β` of the target for user `v` if the target's opinion
    /// were `value`: `1 + |{x ≠ q : b_xv ≥ value}|`, exactly as
    /// [`beta_with_target`] counts it, in `O(log r)`.
    #[inline]
    pub fn rank(&self, v: Node, value: f64) -> usize {
        let vals = self.user_values(v);
        // Competitors `< value` sit left of the partition point; the
        // rest (`≥ value`, ties counting against the target) outrank.
        1 + (vals.len() - vals.partition_point(|&x| x < value))
    }

    /// One user's positional contribution `ω[β]·1[β ≤ p]` at a
    /// hypothetical target opinion `value` (`p` is the score's approval
    /// depth). `O(log r)`.
    #[inline]
    pub fn positional_contribution(
        &self,
        score: &ScoringFunction,
        p: usize,
        v: Node,
        value: f64,
    ) -> f64 {
        let rank = self.rank(v, value);
        if rank <= p {
            score.position_weight(rank)
        } else {
            0.0
        }
    }

    /// Sanity helper for tests: the linear-scan rank of the same query.
    pub fn rank_linear(&self, others: &OpinionMatrix, v: Node, value: f64) -> usize {
        beta_with_target(others, self.q, v, value)
    }
}

/// Incremental state of a plurality-variant score: per user the current
/// target opinion, the user's weight in the estimated score, and the
/// resulting weighted positional contribution `w·ω[β]·1[β ≤ p]`.
///
/// The greedy loops keep one of these alive across iterations and only
/// touch the users whose estimates actually changed (the truncation
/// delta report), instead of re-ranking all `n` users per candidate
/// evaluation.
///
/// Each user also carries a threshold `τ` ([`PositionalAccumulator::threshold`]):
/// for every `x` with `value ≤ x ≤ τ` the user's rank, and so its
/// contribution, is the one it has now. A greedy scoring a move to
/// `value + δ ≤ τ` (`δ ≥ 0`) can skip the preview: the term it would add,
/// `preview − contribution`, is exactly `+0.0`.
#[derive(Debug, Clone)]
pub struct PositionalAccumulator {
    score: ScoringFunction,
    p: usize,
    value: Vec<f64>,
    weight: Vec<f64>,
    contrib: Vec<f64>,
    tau: Vec<f64>,
}

impl PositionalAccumulator {
    /// An empty accumulator (all users weight 0) for a plurality-variant
    /// score.
    ///
    /// # Panics
    /// If `score` has no approval depth (i.e. is not a plurality
    /// variant).
    pub fn new(score: &ScoringFunction, n: usize) -> PositionalAccumulator {
        let p = score
            .approval_depth()
            .expect("PositionalAccumulator requires a plurality-variant score");
        PositionalAccumulator {
            score: score.clone(),
            p,
            value: vec![0.0; n],
            weight: vec![0.0; n],
            contrib: vec![0.0; n],
            // A user never set has weight 0: no move changes its
            // (zero) contribution.
            tau: vec![f64::INFINITY; n],
        }
    }

    /// Sets user `v`'s target opinion and weight, recomputing the
    /// contribution and the threshold from one `O(log r)` rank search.
    #[inline]
    pub fn set_user(&mut self, index: &RankIndex, v: Node, value: f64, weight: f64) {
        let i = v as usize;
        let vals = index.user_values(v);
        // Competitors `≥ value` outrank the target, as in `RankIndex::rank`.
        let above = vals.len() - vals.partition_point(|&x| x < value);
        let rank = 1 + above;
        let omega = if rank <= self.p {
            self.score.position_weight(rank)
        } else {
            0.0
        };
        self.value[i] = value;
        self.weight[i] = weight;
        self.contrib[i] = weight * omega;
        self.tau[i] = if rank > self.p {
            // Below the approval depth until the target passes the p-th
            // largest competitor value (`rank > p` means at least p
            // competitors sit at or above `value`).
            vals[vals.len() - self.p]
        } else if above > 0 {
            // Within the depth: the rank holds up to the smallest
            // competitor value at or above `value`.
            vals[vals.len() - above]
        } else {
            // First already: no move can raise the rank.
            f64::INFINITY
        };
    }

    /// The weighted contribution user `v` would make at a hypothetical
    /// target opinion `value` (no mutation, `O(log r)`).
    #[inline]
    pub fn preview(&self, index: &RankIndex, v: Node, value: f64) -> f64 {
        self.weight[v as usize] * index.positional_contribution(&self.score, self.p, v, value)
    }

    /// User `v`'s current target opinion.
    #[inline]
    pub fn value(&self, v: Node) -> f64 {
        self.value[v as usize]
    }

    /// User `v`'s weight.
    #[inline]
    pub fn weight(&self, v: Node) -> f64 {
        self.weight[v as usize]
    }

    /// User `v`'s current weighted contribution.
    #[inline]
    pub fn contribution(&self, v: Node) -> f64 {
        self.contrib[v as usize]
    }

    /// User `v`'s threshold `τ`: `preview(v, x)` equals `contribution(v)`
    /// bit for bit for every `x` in `value(v) ..= τ`. It is the p-th
    /// largest competitor value while the user ranks below `p`, else the
    /// smallest competitor value at or above the user's value, else
    /// `+∞`. `+∞` for a user never set.
    #[inline]
    pub fn threshold(&self, v: Node) -> f64 {
        self.tau[v as usize]
    }

    /// The current total score — a fresh user-order sum over the stored
    /// contributions (so callers rebuilding a baseline get the same
    /// bits a from-scratch evaluation would).
    pub fn total(&self) -> f64 {
        self.contrib.iter().sum()
    }
}

/// Incremental state of the Copeland score with **exact integer nets**:
/// for every opponent `x`, `net_x = Σ_v sign(b_qv − b_xv)` (each user
/// counts ±1, as in [`crate::score::copeland_score`] and the exact DM
/// evaluation), and the score is `|{x : net_x > 0}|`.
///
/// Updating one user costs `O(log r + crossed)`: a binary search finds
/// the competitor opinions between the old and new value, and only the
/// duels those values belong to change their net.
#[derive(Debug, Clone)]
pub struct CopelandAccumulator {
    /// Dense opponent slot per candidate id (`usize::MAX` for the target).
    slot: Vec<usize>,
    /// Opponent candidate per slot.
    opponents: Vec<Candidate>,
    nets: Vec<i64>,
    wins: usize,
    value: Vec<f64>,
}

#[inline]
fn sign(b: f64, bx: f64) -> i64 {
    if b > bx {
        1
    } else if b < bx {
        -1
    } else {
        0
    }
}

impl CopelandAccumulator {
    /// Builds the accumulator from the index and every user's current
    /// target opinion (`values.len() == n`), in `O(n·r)`.
    pub fn new(index: &RankIndex, values: &[f64]) -> CopelandAccumulator {
        assert_eq!(values.len(), index.num_users(), "one value per user");
        let r = index.num_candidates();
        let opponents: Vec<Candidate> = (0..r).filter(|&x| x != index.target()).collect();
        let mut slot = vec![usize::MAX; r];
        for (i, &x) in opponents.iter().enumerate() {
            slot[x] = i;
        }
        let mut nets = vec![0i64; opponents.len()];
        for v in 0..index.num_users() as Node {
            let b = values[v as usize];
            let owners = index.user_owners(v);
            for (&bx, &x) in index.user_values(v).iter().zip(owners) {
                nets[slot[x]] += sign(b, bx);
            }
        }
        let wins = nets.iter().filter(|&&s| s > 0).count();
        CopelandAccumulator {
            slot,
            opponents,
            nets,
            wins,
            value: values.to_vec(),
        }
    }

    /// The opponents, in duel-slot order.
    pub fn opponents(&self) -> &[Candidate] {
        &self.opponents
    }

    /// The exact integer net of duel slot `i`.
    pub fn net(&self, i: usize) -> i64 {
        self.nets[i]
    }

    /// The current Copeland score `|{x : net_x > 0}|`.
    pub fn wins(&self) -> usize {
        self.wins
    }

    /// User `v`'s current target opinion.
    #[inline]
    pub fn value(&self, v: Node) -> f64 {
        self.value[v as usize]
    }

    /// Moves user `v`'s target opinion to `new_value`, updating only the
    /// duels whose competitor opinion lies between the old and new value.
    pub fn set_value(&mut self, index: &RankIndex, v: Node, new_value: f64) {
        let old = self.value[v as usize];
        if old == new_value {
            return;
        }
        self.value[v as usize] = new_value;
        let (vals, owners) = (index.user_values(v), index.user_owners(v));
        let (lo, hi) = crossing_range(vals, old, new_value);
        for i in lo..hi {
            let change = sign(new_value, vals[i]) - sign(old, vals[i]);
            if change != 0 {
                let s = self.slot[owners[i]];
                let before = self.nets[s] > 0;
                self.nets[s] += change;
                let after = self.nets[s] > 0;
                match (before, after) {
                    (false, true) => self.wins += 1,
                    (true, false) => self.wins -= 1,
                    _ => {}
                }
            }
        }
    }

    /// The Copeland score if the users in `moves` (pairs of user and
    /// hypothetical new value) all moved, without mutating the
    /// accumulator. `scratch` carries the sparse per-duel changes and is
    /// reusable across calls.
    pub fn preview_wins(
        &self,
        index: &RankIndex,
        moves: impl Iterator<Item = (Node, f64)>,
        scratch: &mut CopelandScratch,
    ) -> usize {
        scratch.reset(self.nets.len());
        for (v, new_value) in moves {
            let old = self.value[v as usize];
            if old == new_value {
                continue;
            }
            let (vals, owners) = (index.user_values(v), index.user_owners(v));
            let (lo, hi) = crossing_range(vals, old, new_value);
            for i in lo..hi {
                let change = sign(new_value, vals[i]) - sign(old, vals[i]);
                if change != 0 {
                    let s = self.slot[owners[i]];
                    // Membership must not key off `delta[s] == 0`: a
                    // slot whose changes cancel mid-batch would be
                    // re-pushed and double-counted in the tally.
                    if !scratch.touched[s] {
                        scratch.touched[s] = true;
                        scratch.dirty.push(s);
                    }
                    scratch.delta[s] += change;
                }
            }
        }
        let mut wins = self.wins as i64;
        for &s in &scratch.dirty {
            let d = scratch.delta[s];
            if d != 0 {
                wins += i64::from(self.nets[s] + d > 0) - i64::from(self.nets[s] > 0);
            }
        }
        wins as usize
    }
}

/// Reusable sparse-change buffers for [`CopelandAccumulator::preview_wins`].
#[derive(Debug, Default)]
pub struct CopelandScratch {
    delta: Vec<i64>,
    /// Whether a slot is already in `dirty` (delta values can cancel to
    /// zero mid-batch, so membership needs its own flag).
    touched: Vec<bool>,
    dirty: Vec<usize>,
}

impl CopelandScratch {
    fn reset(&mut self, slots: usize) {
        for &s in &self.dirty {
            self.delta[s] = 0;
            self.touched[s] = false;
        }
        self.dirty.clear();
        if self.delta.len() != slots {
            self.delta.clear();
            self.delta.resize(slots, 0);
            self.touched.clear();
            self.touched.resize(slots, false);
        }
    }
}

/// The index range of sorted competitor values a move from `old` to
/// `new` can cross (inclusive of exact ties at both endpoints).
#[inline]
fn crossing_range(vals: &[f64], old: f64, new: f64) -> (usize, usize) {
    let (min, max) = if old <= new { (old, new) } else { (new, old) };
    let lo = vals.partition_point(|&x| x < min);
    let hi = vals.partition_point(|&x| x <= max);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::beta_with_target;
    use crate::score::copeland_score;

    fn matrix() -> OpinionMatrix {
        OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.75],
            vec![0.35, 0.75, 0.78, 0.90],
            vec![0.50, 0.20, 0.78, 0.10],
        ])
        .unwrap()
    }

    #[test]
    fn index_rank_matches_linear_beta() {
        let b = matrix();
        for q in 0..3 {
            let idx = RankIndex::build(&b, q);
            for v in 0..4 {
                for &value in &[0.0, 0.1, 0.35, 0.5, 0.78, 0.781, 0.9, 1.0] {
                    assert_eq!(
                        idx.rank(v, value),
                        beta_with_target(&b, q, v, value),
                        "q={q} v={v} value={value}"
                    );
                }
            }
        }
    }

    #[test]
    fn index_exposes_sorted_values_with_owners() {
        let b = matrix();
        let idx = RankIndex::build(&b, 0);
        assert_eq!(idx.num_candidates(), 3);
        assert_eq!(idx.num_users(), 4);
        for v in 0..4 {
            let vals = idx.user_values(v);
            assert_eq!(vals.len(), 2);
            assert!(vals.windows(2).all(|w| w[0] <= w[1]));
            for (&val, &x) in vals.iter().zip(idx.user_owners(v)) {
                assert_eq!(val, b.get(x, v));
                assert_ne!(x, 0);
            }
        }
    }

    #[test]
    fn positional_accumulator_tracks_from_scratch_total() {
        let b = matrix();
        let idx = RankIndex::build(&b, 0);
        let score = ScoringFunction::PApproval { p: 2 };
        let mut acc = PositionalAccumulator::new(&score, 4);
        let row = [0.40, 0.80, 0.60, 0.75];
        for v in 0..4u32 {
            acc.set_user(&idx, v, row[v as usize], 1.0);
        }
        let mut full = b.clone();
        full.set_row(0, &row);
        assert_eq!(acc.total(), score.score(&full, 0));
        // Move one user and re-check; preview must agree with commit.
        let preview = acc.preview(&idx, 2, 0.9);
        acc.set_user(&idx, 2, 0.9, 1.0);
        assert_eq!(acc.contribution(2), preview);
        full.set(0, 2, 0.9);
        assert_eq!(acc.total(), score.score(&full, 0));
        assert_eq!(acc.value(2), 0.9);
        assert_eq!(acc.weight(2), 1.0);
    }

    #[test]
    fn copeland_accumulator_matches_exact_score() {
        let b = matrix();
        let idx = RankIndex::build(&b, 0);
        let mut acc = CopelandAccumulator::new(&idx, b.row(0));
        assert_eq!(acc.wins(), copeland_score(&b, 0));
        let mut full = b.clone();
        for (v, val) in [(0u32, 0.9), (3u32, 0.05), (1u32, 0.75)] {
            acc.set_value(&idx, v, val);
            full.set(0, v, val);
            assert_eq!(acc.wins(), copeland_score(&full, 0), "after ({v}, {val})");
        }
        assert_eq!(acc.opponents(), &[1, 2]);
    }

    #[test]
    fn copeland_preview_is_non_mutating_and_exact() {
        let b = matrix();
        let idx = RankIndex::build(&b, 0);
        let acc = CopelandAccumulator::new(&idx, b.row(0));
        let mut scratch = CopelandScratch::default();
        let moves = [(0u32, 1.0), (1u32, 1.0), (2u32, 1.0), (3u32, 1.0)];
        let previewed = acc.preview_wins(&idx, moves.iter().copied(), &mut scratch);
        let mut full = b.clone();
        full.set_row(0, &[1.0; 4]);
        assert_eq!(previewed, copeland_score(&full, 0));
        // The accumulator itself is untouched.
        assert_eq!(acc.wins(), copeland_score(&b, 0));
        // Scratch reuse across previews stays correct.
        let again = acc.preview_wins(&idx, moves[..1].iter().copied(), &mut scratch);
        let mut one = b.clone();
        one.set(0, 0, 1.0);
        assert_eq!(again, copeland_score(&one, 0));
    }

    #[test]
    fn crossing_range_is_tie_inclusive() {
        let vals = [0.1, 0.2, 0.2, 0.5, 0.9];
        assert_eq!(crossing_range(&vals, 0.2, 0.5), (1, 4));
        assert_eq!(crossing_range(&vals, 0.5, 0.2), (1, 4));
        assert_eq!(crossing_range(&vals, 0.0, 0.05), (0, 0));
        assert_eq!(crossing_range(&vals, 0.95, 1.0), (5, 5));
    }
}
