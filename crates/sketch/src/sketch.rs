//! The sketch set: θ walks from uniformly sampled start nodes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::Arc;
use vom_diffusion::OpinionMatrix;
use vom_graph::{Candidate, Node, SocialGraph};
use vom_voting::rank::beta_with_target;
use vom_voting::ScoringFunction;
use vom_walks::{OccurrenceIndex, Truncation, UserPairs, WalkArena, WalkGenerator};

/// θ reverse random walks from uniformly sampled starts, with incremental
/// seed truncation (Algorithm 5 state).
///
/// Because start nodes are sampled with replacement, a node can head
/// several sketches; per the paper's §VI-B (footnote 6) all walks sharing
/// a start are **pooled** into one estimate `b̂_qv[S]`, and each of the θ
/// samples contributes through its start's pooled estimate. Pooling is
/// what makes the rank-based estimates (Eqs. 42/47) consistent — a
/// single-walk estimate of a rank indicator is biased.
/// Cloning shares the immutable walk arena (`Arc`) and copies only the
/// `O(θ + n)` truncation/pooling state, so prepared engines can hand out
/// a fresh sketch per query cheaply.
#[derive(Debug)]
pub struct SketchSet {
    arena: Arc<WalkArena>,
    trunc: Truncation,
    b0: Vec<f64>,
    n: usize,
    /// Per start node: sum of current end values over its sketches.
    start_sum: Vec<f64>,
    /// Per start node: number of sketches started there.
    start_count: Vec<u32>,
}

/// Manual impl so `clone_from` reuses the target's allocations: a query
/// session that resets its working sketch from the prepared pristine
/// copy re-fills the existing `O(θ + n)` buffers instead of allocating
/// fresh ones per query.
impl Clone for SketchSet {
    fn clone(&self) -> Self {
        SketchSet {
            arena: Arc::clone(&self.arena),
            trunc: self.trunc.clone(),
            b0: self.b0.clone(),
            n: self.n,
            start_sum: self.start_sum.clone(),
            start_count: self.start_count.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.arena = Arc::clone(&source.arena);
        self.trunc.clone_from(&source.trunc);
        self.b0.clone_from(&source.b0);
        self.n = source.n;
        self.start_sum.clone_from(&source.start_sum);
        self.start_count.clone_from(&source.start_count);
    }
}

impl SketchSet {
    /// Samples `theta` start nodes uniformly at random (with replacement,
    /// as in Algorithm 5) and generates one seedless `t`-step reverse walk
    /// from each.
    pub fn generate(
        graph: &SocialGraph,
        stubbornness: &[f64],
        b0_target: &[f64],
        t: usize,
        theta: usize,
        seed: u64,
    ) -> Self {
        let n = graph.num_nodes();
        let mut rng = SmallRng::seed_from_u64(seed);
        let starts: Vec<Node> = (0..theta).map(|_| rng.gen_range(0..n) as Node).collect();
        let gen = WalkGenerator::new(graph, stubbornness, t);
        Self::from_arena(
            gen.generate_for_starts(&starts, seed.wrapping_add(1)),
            b0_target,
        )
    }

    /// A pristine (seedless) sketch set over `arena`, whose walks are the
    /// sketches, for the target opinions `b0_target` (one per node): the
    /// occurrence index, the start counts and the pooled start sums are
    /// derived from the walks. Every node of `arena` must be below
    /// `b0_target.len()`, and the arena must be ungrouped.
    pub fn from_arena(arena: WalkArena, b0_target: &[f64]) -> Self {
        let n = b0_target.len();
        let trunc = Truncation::new(&arena, Arc::new(OccurrenceIndex::new(&arena, n)));
        // End values are independent per sketch, so they run on the
        // pool; the pooled accumulation folds sequentially in sketch
        // order, keeping the float sums schedule-independent (the
        // determinism contract — see `vendor/rayon`'s crate docs).
        let end_values: Vec<f64> = (0..arena.num_walks())
            .into_par_iter()
            .map(|j| trunc.end_value(&arena, b0_target, j))
            .collect();
        let mut start_sum = vec![0.0f64; n];
        let mut start_count = vec![0u32; n];
        for (j, &end) in end_values.iter().enumerate() {
            let v = arena.start(j) as usize;
            start_sum[v] += end;
            start_count[v] += 1;
        }
        SketchSet {
            arena: Arc::new(arena),
            trunc,
            b0: b0_target.to_vec(),
            n,
            start_sum,
            start_count,
        }
    }

    /// The shared walk arena holding the sketches.
    pub fn arena(&self) -> &WalkArena {
        &self.arena
    }

    /// Number of sketches `θ`.
    pub fn theta(&self) -> usize {
        self.arena.num_walks()
    }

    /// Number of users `n`.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Seeds applied so far.
    pub fn seeds(&self) -> &[Node] {
        self.trunc.seeds()
    }

    /// Whether `v` is a seed.
    pub fn is_seed(&self, v: Node) -> bool {
        self.trunc.is_seed(v)
    }

    /// Start node of sketch `j`.
    pub fn walk_start(&self, j: usize) -> Node {
        self.arena.start(j)
    }

    /// Current end value of sketch `j` alone (before pooling).
    pub fn walk_value(&self, j: usize) -> f64 {
        self.trunc.end_value(&self.arena, &self.b0, j)
    }

    /// How many sketches start at `v`.
    pub fn start_count(&self, v: Node) -> u32 {
        self.start_count[v as usize]
    }

    /// Pooled opinion estimate `b̂_qv^{(t)}[S]` across all sketches
    /// starting at `v` (1 for seeds; `None` if `v` was never sampled).
    pub fn pooled_estimate(&self, v: Node) -> Option<f64> {
        if self.trunc.is_seed(v) {
            return Some(1.0);
        }
        let c = self.start_count[v as usize];
        if c == 0 {
            None
        } else {
            Some(self.start_sum[v as usize] / c as f64)
        }
    }

    /// The weight a sampled user carries in score estimates: `v` was drawn
    /// `count_v` times out of θ, each draw standing for `n/θ` users.
    pub fn user_weight(&self, v: Node) -> f64 {
        self.start_count[v as usize] as f64 * self.n as f64 / self.theta() as f64
    }

    /// Adds `u` to the seed set, truncating affected sketches and
    /// updating the pooled sums. Returns the start nodes whose pooled
    /// estimates changed (deduplicated).
    pub fn add_seed(&mut self, u: Node) -> Vec<Node> {
        let mut touched = Vec::new();
        self.add_seed_into(u, &mut touched);
        touched
    }

    /// [`SketchSet::add_seed`] writing the changed-users delta report
    /// into a caller-owned buffer (cleared first; sorted ascending,
    /// deduplicated) so greedy loops reuse one allocation per seed.
    pub fn add_seed_into(&mut self, u: Node, touched: &mut Vec<Node>) {
        touched.clear();
        let arena = &self.arena;
        let b0 = &self.b0;
        let start_sum = &mut self.start_sum;
        self.trunc.add_seed(arena, u, |walk, old_end| {
            let start = arena.start(walk);
            start_sum[start as usize] += 1.0 - b0[old_end as usize];
            touched.push(start);
        });
        touched.sort_unstable();
        touched.dedup();
    }

    /// Estimated cumulative score `(n/θ) Σ_j b̂_{qv_j}[S]` (Eq. 35).
    pub fn estimated_cumulative(&self) -> f64 {
        // Σ_j over samples of the pooled estimate equals Σ_v sum_v, so the
        // per-walk sum is identical and cheaper.
        let sum: f64 = self.start_sum.iter().sum();
        sum * self.n as f64 / self.theta() as f64
    }

    /// Estimated positional-p-approval score (Eq. 42): each sample
    /// contributes `ω[β(b̂_{qv_j})]·1[β ≤ p]`, where `β` ranks the pooled
    /// target estimate against the *exact* opinions of the other
    /// candidates for the start user. `score` must be a plurality
    /// variant; `non_target` holds exact horizon-`t` opinions of all
    /// candidates (the target row is ignored).
    pub fn estimated_positional(
        &self,
        score: &ScoringFunction,
        non_target: &OpinionMatrix,
        q: Candidate,
    ) -> f64 {
        let p = score
            .approval_depth()
            .expect("estimated_positional requires a plurality-variant score");
        let mut total = 0.0;
        for v in 0..self.n as Node {
            let Some(est) = self.pooled_estimate(v) else {
                continue;
            };
            let c = self.start_count[v as usize];
            if c == 0 {
                continue;
            }
            total += c as f64 * positional_contribution(score, non_target, q, v, est, p);
        }
        total * self.n as f64 / self.theta() as f64
    }

    /// Estimated Copeland score (Eq. 47): `c_q ≻_M̂ c_x` iff among the θ
    /// samples more hold `b̂_qv > b_xv` than the opposite (samples vote
    /// with their multiplicity).
    pub fn estimated_copeland(&self, non_target: &OpinionMatrix, q: Candidate) -> f64 {
        let r = non_target.num_candidates();
        let mut wins = 0usize;
        for x in 0..r {
            if x == q {
                continue;
            }
            let mut above = 0i64;
            for v in 0..self.n as Node {
                let c = self.start_count[v as usize] as i64;
                if c == 0 {
                    continue;
                }
                let est = self.pooled_estimate(v).expect("count > 0");
                let bx = non_target.get(x, v);
                if est > bx {
                    above += c;
                } else if est < bx {
                    above -= c;
                }
            }
            if above > 0 {
                wins += 1;
            }
        }
        wins as f64
    }

    /// For the greedy selectors: the marginal gain in the estimated
    /// cumulative score for every candidate seed, from one scan over the
    /// live prefixes.
    pub fn cumulative_gains(&self) -> Vec<f64> {
        let scale = self.n as f64 / self.theta() as f64;
        let mut gains = vec![0.0f64; self.n];
        self.scan_prefixes(|w, _, gain| gains[w as usize] += gain * scale);
        gains
    }

    /// [`SketchSet::cumulative_gains`] restricted to sketches whose start
    /// node is in `mask`.
    pub fn cumulative_gains_masked(&self, mask: &[bool]) -> Vec<f64> {
        let scale = self.n as f64 / self.theta() as f64;
        let mut gains = vec![0.0f64; self.n];
        self.scan_prefixes(|w, start, gain| {
            if mask[start as usize] {
                gains[w as usize] += gain * scale;
            }
        });
        gains
    }

    /// Visits `(sketch, start, 1 − end_value)` for every live sketch
    /// whose live prefix contains candidate `w`, in ascending sketch
    /// order — `w`'s occurrence list instead of a pass over all θ
    /// prefixes. Visit set and order match [`Self::scan_prefixes`]
    /// exactly, so sums taken here are bit-identical to the scan-based
    /// gains. A sketch with positive gain was never truncated, so its
    /// live prefix holds every occurrence.
    #[inline]
    fn visit_candidate_walks<F: FnMut(usize, Node, f64)>(&self, w: Node, mut visit: F) {
        debug_assert!(!self.trunc.is_seed(w));
        self.trunc.index().for_each_walk(&self.arena, w, |walk| {
            // Derived, not cached: a sketch's gain is `1 − end_value` at
            // all times (end_value pins to 1 once the end is a seed), so
            // no θ-sized gain array is kept. Same value, same check
            // order as the historical cached-gain path — bit-identical.
            let gain = 1.0 - self.trunc.end_value(&self.arena, &self.b0, walk);
            if gain <= 0.0 {
                return;
            }
            debug_assert!(self.trunc.prefix(&self.arena, walk).contains(&w));
            visit(walk, self.arena.start(walk), gain);
        });
    }

    /// The marginal gain of candidate seed `w` in the estimated
    /// cumulative score — bit-identical to `cumulative_gains()[w]`,
    /// computed from `w`'s occurrence list alone. `0.0` for seeds.
    pub fn cumulative_gain_of(&self, w: Node) -> f64 {
        if self.trunc.is_seed(w) {
            return 0.0;
        }
        let scale = self.n as f64 / self.theta() as f64;
        let mut gain = 0.0;
        self.visit_candidate_walks(w, |_, _, g| gain += g * scale);
        gain
    }

    /// [`SketchSet::cumulative_gain_of`] restricted to sketches whose
    /// start node is in `mask`.
    pub fn cumulative_gain_of_masked(&self, w: Node, mask: &[bool]) -> f64 {
        if self.trunc.is_seed(w) {
            return 0.0;
        }
        let scale = self.n as f64 / self.theta() as f64;
        let mut gain = 0.0;
        self.visit_candidate_walks(w, |_, start, g| {
            if mask[start as usize] {
                gain += g * scale;
            }
        });
        gain
    }

    /// The merged pairs of every user over the current live sketches,
    /// for the user-major competitive greedy. One counting sort groups
    /// the sketches by start, in sketch order within each start, so a
    /// pair folds `gain/count_v` in sketch order, as a scan over every
    /// live prefix meets its terms.
    pub fn user_pairs(&self) -> UserPairs {
        let mut walk_off = vec![0usize; self.n + 1];
        for v in 0..self.n {
            walk_off[v + 1] = walk_off[v] + self.start_count[v] as usize;
        }
        let mut next = walk_off.clone();
        let mut walk_ids = vec![0u32; self.theta()];
        for j in 0..self.theta() {
            let slot = &mut next[self.arena.start(j) as usize];
            walk_ids[*slot] = j as u32;
            *slot += 1;
        }
        UserPairs::build(walk_off, walk_ids, |v, j| self.live_sketch(v, j))
    }

    /// Sketch `j` of user `v` and its pooled delta `gain/count_v`, while
    /// it is live (a live sketch was never truncated): the `live` of
    /// [`UserPairs`].
    pub fn live_sketch(&self, v: Node, j: usize) -> Option<(&[Node], f64)> {
        let gain = 1.0 - self.walk_value(j);
        if gain <= 0.0 {
            return None;
        }
        let walk = self.arena.walk(j);
        debug_assert_eq!(self.trunc.end_pos(j) + 1, walk.len());
        Some((walk, gain / self.start_count[v as usize] as f64))
    }

    /// Visits `(candidate seed w, walk start, 1 − end_value)` for the
    /// first occurrence of every non-seed node in every live prefix.
    fn scan_prefixes<F: FnMut(Node, Node, f64)>(&self, mut visit: F) {
        for j in 0..self.theta() {
            let gain = 1.0 - self.walk_value(j);
            if gain <= 0.0 {
                continue;
            }
            let prefix = self.trunc.prefix(&self.arena, j);
            let start = self.arena.start(j);
            for (pos, &w) in prefix.iter().enumerate() {
                if prefix[..pos].contains(&w) || self.trunc.is_seed(w) {
                    continue;
                }
                visit(w, start, gain);
            }
        }
    }

    /// Exact owned heap footprint (Figure 17's memory comparison and the
    /// scale-stress workload): `Vec` **capacities**, the shared arena's
    /// buffers, and the truncation state — post-build slack included.
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
            + self.trunc.heap_bytes()
            + self.b0.capacity() * std::mem::size_of::<f64>()
            + self.start_sum.capacity() * std::mem::size_of::<f64>()
            + self.start_count.capacity() * std::mem::size_of::<u32>()
    }
}

/// One user's contribution to the positional estimate (Eq. 42 summand).
pub(crate) fn positional_contribution(
    score: &ScoringFunction,
    non_target: &OpinionMatrix,
    q: Candidate,
    user: Node,
    target_value: f64,
    p: usize,
) -> f64 {
    let rank = beta_with_target(non_target, q, user, target_value);
    if rank <= p {
        score.position_weight(rank)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;

    fn running_example() -> (SocialGraph, Vec<f64>, Vec<f64>, OpinionMatrix) {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let d = vec![0.0, 0.0, 0.5, 0.5];
        // Exact opinions at t = 1; competitor row from Table I.
        let exact = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.75],
            vec![0.35, 0.75, 0.78, 0.90],
        ])
        .unwrap();
        (g, b0, d, exact)
    }

    /// The reference for [`SketchSet::user_pairs`]: per-(seed, user)
    /// pooled-estimate deltas `(w, v, Δb̂_qv)` from one scan over every
    /// live prefix, sorted by seed and user, with a start's sketches
    /// folded in sketch order (the sort is stable).
    fn pair_deltas(s: &SketchSet) -> Vec<(Node, Node, f64)> {
        let mut deltas = Vec::new();
        s.scan_prefixes(|w, start, gain| {
            deltas.push((w, start, gain / s.start_count[start as usize] as f64));
        });
        deltas.sort_by_key(|&(w, v, _)| (w, v));
        deltas.dedup_by(|b, a| {
            if (a.0, a.1) == (b.0, b.1) {
                a.2 += b.2;
                true
            } else {
                false
            }
        });
        deltas
    }

    #[test]
    fn generation_is_deterministic() {
        let (g, b0, d, _) = running_example();
        let a = SketchSet::generate(&g, &d, &b0, 2, 500, 7);
        let b = SketchSet::generate(&g, &d, &b0, 2, 500, 7);
        assert_eq!(a.theta(), 500);
        for j in 0..500 {
            assert_eq!(a.walk_start(j), b.walk_start(j));
            assert_eq!(a.walk_value(j), b.walk_value(j));
        }
    }

    #[test]
    fn start_counts_sum_to_theta() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 1000, 41);
        let total: u32 = (0..4).map(|v| s.start_count(v)).sum();
        assert_eq!(total as usize, s.theta());
        let weight_total: f64 = (0..4).map(|v| s.user_weight(v)).sum();
        assert!((weight_total - 4.0).abs() < 1e-9, "weights sum to n");
    }

    #[test]
    fn cumulative_estimate_converges() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 1, 200_000, 11);
        // Exact cumulative at t=1, no seeds: 2.55.
        let est = s.estimated_cumulative();
        assert!((est - 2.55).abs() < 0.05, "estimate {est}");
    }

    #[test]
    fn seeded_cumulative_estimate_converges() {
        let (g, b0, d, _) = running_example();
        let mut s = SketchSet::generate(&g, &d, &b0, 1, 200_000, 13);
        s.add_seed(2);
        // Table I row {3}: cumulative 3.15.
        let est = s.estimated_cumulative();
        assert!((est - 3.15).abs() < 0.05, "estimate {est}");
        assert_eq!(s.seeds(), &[2]);
        assert!(s.is_seed(2));
    }

    #[test]
    fn pooled_estimates_converge_to_exact_opinions() {
        let (g, b0, d, exact) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 1, 100_000, 43);
        for v in 0..4 {
            let est = s.pooled_estimate(v).unwrap();
            let want = exact.get(0, v);
            assert!((est - want).abs() < 0.02, "node {v}: {est} vs {want}");
        }
    }

    #[test]
    fn cumulative_gains_match_realized_gains() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 5_000, 17);
        let gains = s.cumulative_gains();
        let base = s.estimated_cumulative();
        for w in 0..4u32 {
            let mut clone = s.clone();
            clone.add_seed(w);
            let realized = clone.estimated_cumulative() - base;
            assert!(
                (gains[w as usize] - realized).abs() < 1e-9,
                "seed {w}: {} vs {realized}",
                gains[w as usize]
            );
        }
    }

    #[test]
    fn plurality_estimate_converges() {
        let (g, b0, d, exact) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 1, 200_000, 19);
        // Exact plurality at t=1, no seeds: 2 (users 0 and 1).
        let est = s.estimated_positional(&ScoringFunction::Plurality, &exact, 0);
        assert!((est - 2.0).abs() < 0.1, "estimate {est}");
    }

    #[test]
    fn seeded_plurality_estimate_converges() {
        let (g, b0, d, exact) = running_example();
        let mut s = SketchSet::generate(&g, &d, &b0, 1, 200_000, 23);
        s.add_seed(2);
        // Table I row {3}: plurality 4.
        let est = s.estimated_positional(&ScoringFunction::Plurality, &exact, 0);
        assert!((est - 4.0).abs() < 0.1, "estimate {est}");
    }

    #[test]
    fn copeland_estimate_matches_exact_on_clear_majorities() {
        // Note: the *seedless* running example is a 2-vs-2 knife-edge tie
        // (µ[S] = 0), which the paper's Theorem 12 explicitly assumes
        // away — sampling cannot resolve it. We test the clear cases.
        let (g, b0, d, exact) = running_example();
        let mut s = SketchSet::generate(&g, &d, &b0, 1, 50_000, 29);
        s.add_seed(2);
        // Seed {3}: all 4 users above -> 1.
        assert_eq!(s.estimated_copeland(&exact, 0), 1.0);

        // A clearly losing target: everyone far below the competitor.
        let low_b0 = vec![0.05; 4];
        let s2 = SketchSet::generate(&g, &d, &low_b0, 1, 20_000, 59);
        assert_eq!(s2.estimated_copeland(&exact, 0), 0.0);
    }

    #[test]
    fn pair_deltas_predict_pooled_estimate_changes() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 2_000, 31);
        let deltas = pair_deltas(&s);
        for pair in deltas.windows(2) {
            assert!((pair[0].0, pair[0].1) < (pair[1].0, pair[1].1));
        }
        // Realized check for seed 2.
        let before: Vec<_> = (0..4).map(|v| s.pooled_estimate(v)).collect();
        let mut clone = s.clone();
        clone.add_seed(2);
        let mut predicted: Vec<f64> = before.iter().map(|e| e.unwrap_or(0.0)).collect();
        for &(_, user, delta) in deltas.iter().filter(|d| d.0 == 2) {
            predicted[user as usize] += delta;
        }
        for v in 0..4u32 {
            if v == 2 || before[v as usize].is_none() {
                continue; // the seed itself pins to 1
            }
            let realized = clone.pooled_estimate(v).unwrap();
            assert!(
                (predicted[v as usize] - realized).abs() < 1e-9,
                "node {v}: predicted {} vs {realized}",
                predicted[v as usize]
            );
        }
    }

    #[test]
    fn per_candidate_gain_matches_full_scan() {
        let (g, b0, d, _) = running_example();
        let mut s = SketchSet::generate(&g, &d, &b0, 2, 3_000, 61);
        let mask = [true, true, false, true];
        for step in 0..2 {
            let gains = s.cumulative_gains();
            let masked = s.cumulative_gains_masked(&mask);
            for w in 0..4u32 {
                if s.is_seed(w) {
                    continue;
                }
                assert_eq!(
                    s.cumulative_gain_of(w).to_bits(),
                    gains[w as usize].to_bits(),
                    "step {step} node {w}"
                );
                assert_eq!(
                    s.cumulative_gain_of_masked(w, &mask).to_bits(),
                    masked[w as usize].to_bits(),
                    "step {step} node {w} (masked)"
                );
            }
            s.add_seed(3);
        }
    }

    #[test]
    fn user_pairs_match_pair_deltas() {
        let (g, b0, d, _) = running_example();
        let mut s = SketchSet::generate(&g, &d, &b0, 3, 2_000, 67);
        for seed in [0, 2] {
            let pairs = s.user_pairs();
            let mut listed: Vec<(Node, Node, u64)> = (0..4)
                .flat_map(|v| {
                    let (cands, deltas) = pairs.user(v);
                    let bits = deltas.iter().map(|d| d.to_bits());
                    cands.iter().zip(bits).map(move |(&w, d)| (w, v, d))
                })
                .collect();
            listed.sort_unstable();
            let want: Vec<(Node, Node, u64)> = pair_deltas(&s)
                .into_iter()
                .map(|(w, v, d)| (w, v, d.to_bits()))
                .collect();
            assert_eq!(listed, want, "before seeding {seed}");
            s.add_seed(seed);
        }
    }

    #[test]
    fn heap_bytes_is_capacity_exact() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 100, 37);
        // The accounting is the sum of its parts — arena, truncation, and
        // the three pooled per-node arrays (all built exact-size).
        assert_eq!(
            s.heap_bytes(),
            s.arena.heap_bytes()
                + s.trunc.heap_bytes()
                + (s.b0.len() + s.start_sum.len()) * std::mem::size_of::<f64>()
                + std::mem::size_of_val(&s.start_count[..])
        );
        // No θ-sized gain cache rides along: the footprint beyond arena +
        // truncation is exactly the 3 per-node arrays (20 bytes/node).
        assert_eq!(
            s.heap_bytes() - s.arena.heap_bytes() - s.trunc.heap_bytes(),
            s.num_nodes() * 20
        );
    }
}
