//! Per-node opinion estimates and greedy marginal-gain scans.

use crate::arena::WalkArena;
use crate::truncation::{OccurrenceIndex, Truncation};
use std::sync::Arc;
use vom_graph::Node;

/// Reusable buffers for per-candidate delta merging on estimators whose
/// walks are *not* grouped by start node (the sketch set samples starts
/// with replacement): walk-order contributions are accumulated per user
/// and then emitted in ascending user order. Per-node (grouped) arenas
/// never touch it. Keep one per greedy loop and pass it to every
/// `for_candidate_deltas` call — the buffers are epoch-reset, not
/// reallocated.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    /// Per-user accumulated delta for the current candidate.
    acc: Vec<f64>,
    /// Epoch marks: `mark[v] == epoch` means `acc[v]` is live.
    mark: Vec<u32>,
    epoch: u32,
    /// Users touched by the current candidate, in first-visit order.
    dirty: Vec<Node>,
}

impl DeltaScratch {
    /// Starts a new candidate evaluation over `n` users.
    pub fn begin(&mut self, n: usize) {
        if self.mark.len() != n {
            self.acc.clear();
            self.acc.resize(n, 0.0);
            self.mark.clear();
            self.mark.resize(n, 0);
            self.epoch = 0;
        }
        self.dirty.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One lap of the u32 epoch: clear the marks and restart.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
    }

    /// Accumulates one walk's delta for `user` (walk order preserved
    /// within a user).
    #[inline]
    pub fn add(&mut self, user: Node, delta: f64) {
        let i = user as usize;
        if self.mark[i] == self.epoch {
            self.acc[i] += delta;
        } else {
            self.mark[i] = self.epoch;
            self.acc[i] = delta;
            self.dirty.push(user);
        }
    }

    /// Emits the merged `(user, delta)` pairs in ascending user order.
    pub fn drain_sorted(&mut self, mut visit: impl FnMut(Node, f64)) {
        self.dirty.sort_unstable();
        for &user in &self.dirty {
            visit(user, self.acc[user as usize]);
        }
    }
}

/// Per-user merged `(candidate, Δb̂_qv)` pairs over an estimator's live
/// walks: the user-major layout of the rank greedy
/// ([`OpinionEstimator::user_pairs`] and `SketchSet::user_pairs`).
///
/// User `v`'s list holds one pair per candidate `w` that occurs in one
/// of `v`'s live walks. Its delta folds the walks' deltas in walk order,
/// starting from the first walk's term: the fold
/// [`OpinionEstimator::for_candidate_deltas`] applies per user to `w`'s
/// occurrences, so both layouts hold the same bits. Every walk of `v`
/// starts at `v`, so the own pair (candidate `v`) is slot 0 of every
/// non-empty list. Lists sit in per-user slots sized to the list at
/// build time; a commit only kills walks, so a rebuilt list never
/// outgrows its slot.
///
/// Lists are brought up to date lazily. A commit marks the users it
/// changed *touched* ([`UserPairs::touch`]). A touched list is stale,
/// but each stale delta bounds the fresh one from above: the fresh fold
/// adds a subsequence of the same positive terms. [`UserPairs::settle`]
/// merges a touched user again only if a stale non-own pair can still
/// cross the user's threshold; otherwise it refolds the own pair alone
/// and the user turns *cold*, scoring only that pair
/// ([`UserPairs::scored`]) until it is touched again.
///
/// The estimator names each user's walks and supplies, per walk, its
/// nodes and delta when it is live. A grouped arena's walks are its
/// start groups; sampled starts are grouped once per build by a
/// counting sort that keeps walk order within each start.
#[derive(Debug)]
pub struct UserPairs {
    /// Slot start per user, `n + 1` entries.
    off: Vec<usize>,
    /// Length of each user's stored list.
    len: Vec<u32>,
    /// How many leading pairs of each list score: the whole list, or
    /// the own pair alone for a cold user.
    scored: Vec<u32>,
    cand: Vec<Node>,
    delta: Vec<f64>,
    /// Users touched since the last [`UserPairs::settle`].
    touched: Vec<Node>,
    /// User `v`'s walks are `walk_ids[walk_off[v]..walk_off[v + 1]]`,
    /// or that range itself when `walk_ids` is empty (a grouped arena).
    walk_off: Vec<usize>,
    walk_ids: Vec<u32>,
    merge: PairMerge,
}

impl UserPairs {
    /// Merges every user's live walks into its list. `walk_off` and
    /// `walk_ids` name each user's walks, in walk order (see the field
    /// docs); `live(v, i)` returns walk `i`'s nodes and its delta for
    /// user `v`, or `None` once the walk is dead. A live walk holds no
    /// seed.
    pub fn build<'a, F>(walk_off: Vec<usize>, walk_ids: Vec<u32>, mut live: F) -> UserPairs
    where
        F: FnMut(Node, usize) -> Option<(&'a [Node], f64)>,
    {
        let n = walk_off.len() - 1;
        let mut pairs = UserPairs {
            off: Vec::with_capacity(n + 1),
            len: Vec::with_capacity(n),
            scored: Vec::new(),
            cand: Vec::new(),
            delta: Vec::new(),
            touched: Vec::new(),
            walk_off,
            walk_ids,
            merge: PairMerge::default(),
        };
        // The live walk nodes bound the pairs. Reserving the bound
        // touches only the pages the pairs fill, and the final shrink
        // releases the rest without the copies of a growing vector.
        let mut bound = 0;
        for v in 0..n as Node {
            for i in user_walks(&pairs.walk_off, &pairs.walk_ids, v) {
                bound += live(v, i).map_or(0, |(walk, _)| walk.len());
            }
        }
        pairs.cand.reserve_exact(bound);
        pairs.delta.reserve_exact(bound);
        pairs.off.push(0);
        for v in 0..n as Node {
            pairs.merge_user(v, &mut live);
            let merge = &pairs.merge;
            pairs.cand.extend_from_slice(&merge.order);
            pairs
                .delta
                .extend(merge.order.iter().map(|&w| merge.acc[w as usize]));
            pairs.len.push(merge.order.len() as u32);
            pairs.off.push(pairs.cand.len());
        }
        pairs.cand.shrink_to_fit();
        pairs.delta.shrink_to_fit();
        pairs.scored.clone_from(&pairs.len);
        pairs
    }

    /// Marks the listed users' lists stale after a seed commit (pass the
    /// commit's changed-users report). Users not listed keep their
    /// lists: a commit changes only the walks it truncates, and their
    /// start users are exactly the report.
    pub fn touch(&mut self, users: impl IntoIterator<Item = Node>) {
        self.touched.extend(users);
    }

    /// Brings every touched list up to date before a gain pass, where
    /// `bounds(v)` gives user `v`'s value and threshold `τ` (pass the
    /// `live` of [`UserPairs::build`]).
    ///
    /// If a stale non-own pair has `value + Δ > τ`, the user's walks are
    /// merged again and the whole list scores. Otherwise no fresh
    /// non-own pair can cross either (`Δ_fresh ≤ Δ_stale`, and float
    /// addition is monotone), so their terms are the exact `+0.0` a pass
    /// skips: only the own pair is refolded, and the user turns cold. A
    /// cold user's value, threshold and walks change only when a commit
    /// touches it again.
    pub fn settle<'a, F>(&mut self, bounds: impl Fn(Node) -> (f64, f64), mut live: F)
    where
        F: FnMut(Node, usize) -> Option<(&'a [Node], f64)>,
    {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &v in &touched {
            let (value, tau) = bounds(v);
            let (_, stale) = self.user(v);
            if stale.iter().skip(1).any(|&d| value + d > tau) {
                self.rebuild(v, &mut live);
            } else {
                self.refold_own(v, &mut live);
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// User `v`'s pairs that score in a gain pass once touched lists are
    /// settled: the whole list, or the own pair of a cold user.
    #[inline]
    pub fn scored(&self, v: Node) -> (&[Node], &[f64]) {
        let s = self.off[v as usize];
        let e = s + self.scored[v as usize] as usize;
        (&self.cand[s..e], &self.delta[s..e])
    }

    /// User `v`'s list as stored, in the order the user's walks first
    /// reach the candidates. A touched user's list is stale, and a cold
    /// user's is stale past the own pair.
    #[inline]
    pub fn user(&self, v: Node) -> (&[Node], &[f64]) {
        let s = self.off[v as usize];
        let e = s + self.len[v as usize] as usize;
        (&self.cand[s..e], &self.delta[s..e])
    }

    /// Merges user `v`'s live walks again into its slot.
    fn rebuild<'a, F>(&mut self, v: Node, live: &mut F)
    where
        F: FnMut(Node, usize) -> Option<(&'a [Node], f64)>,
    {
        self.merge_user(v, live);
        let s = self.off[v as usize];
        let m = self.merge.order.len();
        assert!(
            s + m <= self.off[v as usize + 1],
            "a user's pair list only shrinks"
        );
        for (j, &w) in self.merge.order.iter().enumerate() {
            self.cand[s + j] = w;
            self.delta[s + j] = self.merge.acc[w as usize];
        }
        self.len[v as usize] = m as u32;
        self.scored[v as usize] = m as u32;
    }

    /// Refolds user `v`'s own pair over its live walks, in walk order
    /// from the first walk's term, as the merge folds it (`v` opens
    /// every walk of `v`). With no live walk left, the list empties.
    fn refold_own<'a, F>(&mut self, v: Node, live: &mut F)
    where
        F: FnMut(Node, usize) -> Option<(&'a [Node], f64)>,
    {
        let i = v as usize;
        let mut own: Option<f64> = None;
        for walk in user_walks(&self.walk_off, &self.walk_ids, v) {
            if let Some((_, d)) = live(v, walk) {
                own = Some(own.map_or(d, |sum| sum + d));
            }
        }
        match own {
            Some(d) => {
                debug_assert_eq!(self.cand[self.off[i]], v, "the own pair opens the list");
                self.delta[self.off[i]] = d;
                self.scored[i] = 1;
            }
            None => {
                self.len[i] = 0;
                self.scored[i] = 0;
            }
        }
    }

    /// Merges user `v`'s live walks into `merge.order` / `merge.acc`, in
    /// walk order.
    fn merge_user<'a, F>(&mut self, v: Node, live: &mut F)
    where
        F: FnMut(Node, usize) -> Option<(&'a [Node], f64)>,
    {
        let UserPairs {
            walk_off,
            walk_ids,
            merge,
            ..
        } = self;
        merge.begin_user(walk_off.len() - 1);
        for i in user_walks(walk_off, walk_ids, v) {
            if let Some((walk, delta)) = live(v, i) {
                merge.begin_walk();
                for &w in walk {
                    merge.add(w, delta);
                }
            }
        }
    }
}

/// User `v`'s walks in walk order, from [`UserPairs`]' `walk_off` and
/// `walk_ids`.
fn user_walks<'s>(
    walk_off: &'s [usize],
    walk_ids: &'s [u32],
    v: Node,
) -> impl Iterator<Item = usize> + 's {
    let slots = walk_off[v as usize]..walk_off[v as usize + 1];
    slots.map(|slot| walk_ids.get(slot).map_or(slot, |&i| i as usize))
}

/// Per-user merge buffers for [`UserPairs`]: a delta per candidate and an
/// epoch mark telling whether the candidate was reached by the current
/// walk (a repeat, skipped: truncation cuts at the first occurrence), by
/// an earlier walk of the current user (fold into the delta), or not
/// yet (a new pair).
#[derive(Debug, Default)]
struct PairMerge {
    acc: Vec<f64>,
    mark: Vec<u32>,
    /// Epoch of the walk being merged.
    epoch: u32,
    /// First walk epoch of the user being merged.
    user_epoch: u32,
    /// Candidates of the current user, in first-reach order.
    order: Vec<Node>,
}

impl PairMerge {
    fn begin_user(&mut self, n: usize) {
        if self.mark.len() != n || self.epoch > u32::MAX / 2 {
            self.acc.clear();
            self.acc.resize(n, 0.0);
            self.mark.clear();
            self.mark.resize(n, 0);
            self.epoch = 0;
        }
        self.order.clear();
        self.user_epoch = self.epoch + 1;
    }

    fn begin_walk(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn add(&mut self, w: Node, delta: f64) {
        let i = w as usize;
        let m = self.mark[i];
        if m == self.epoch {
            return; // a repeat within the walk
        }
        self.mark[i] = self.epoch;
        if m >= self.user_epoch {
            self.acc[i] += delta;
        } else {
            self.acc[i] = delta;
            self.order.push(w);
        }
    }
}

/// Walk-based estimator of `b̂_qv^{(t)}[S]` for a per-node walk arena
/// (Algorithm 4). The estimate for `v` is the mean end-node value of the
/// `λ_v` truncated walks starting at `v` (Theorems 9–10), maintained
/// incrementally as seeds are added.
#[derive(Debug, Clone)]
pub struct OpinionEstimator<'a> {
    arena: &'a WalkArena,
    trunc: Truncation,
    b0: Vec<f64>,
    /// Per start node: sum of current end values over its walks.
    sums: Vec<f64>,
    /// Per start node: λ_v.
    lambda: Vec<u32>,
    /// Walk index -> start node (walks are grouped, but O(1) lookup keeps
    /// the truncation callback cheap).
    walk_start: Vec<Node>,
    /// Walk index -> current contribution gain `1 − end_value`: cached
    /// so the per-candidate occurrence scans do one load instead of
    /// chasing the arena. `0.0` once the walk ends at a seed (it then
    /// never contributes again); maintained by `add_seed_into`.
    walk_gain: Vec<f64>,
}

impl<'a> OpinionEstimator<'a> {
    /// Builds an estimator over a **grouped** arena (one produced by
    /// [`crate::WalkGenerator::generate_per_node`]) and the target
    /// candidate's seedless initial opinions `b0`.
    ///
    /// # Panics
    /// If the arena has no start groups or `b0` length mismatches.
    pub fn new(arena: &'a WalkArena, b0: &[f64]) -> Self {
        let n = arena
            .num_groups()
            .expect("OpinionEstimator requires a per-node (grouped) arena");
        let index = Arc::new(OccurrenceIndex::new(arena, n));
        OpinionEstimator::with_truncation(arena, b0, Truncation::new(arena, index))
    }

    /// [`OpinionEstimator::new`] over a pristine truncation of `arena`
    /// (a [`Truncation::new`] over the arena's shared occurrence index,
    /// or one returned by [`OpinionEstimator::into_truncation`] and
    /// [`Truncation::reset`]), so estimators over one arena share one
    /// index.
    ///
    /// # Panics
    /// If the arena has no start groups, `b0` length mismatches, or the
    /// truncation has seeds or another walk count.
    pub fn with_truncation(arena: &'a WalkArena, b0: &[f64], trunc: Truncation) -> Self {
        let n = arena
            .num_groups()
            .expect("OpinionEstimator requires a per-node (grouped) arena");
        assert_eq!(b0.len(), n, "b0 length must equal node count");
        assert!(trunc.seeds().is_empty(), "the truncation must be pristine");
        assert_eq!(
            trunc.num_walks(),
            arena.num_walks(),
            "the truncation must be built over this arena"
        );
        let mut sums = vec![0.0f64; n];
        let mut lambda = vec![0u32; n];
        let mut walk_start = vec![0 as Node; arena.num_walks()];
        let mut walk_gain = vec![0.0f64; arena.num_walks()];
        for v in 0..n as Node {
            let range = arena.group_range(v).expect("grouped arena");
            lambda[v as usize] = range.len() as u32;
            for i in range {
                walk_start[i] = v;
                let end = trunc.end_value(arena, b0, i);
                sums[v as usize] += end;
                walk_gain[i] = 1.0 - end;
            }
        }
        OpinionEstimator {
            arena,
            trunc,
            b0: b0.to_vec(),
            sums,
            lambda,
            walk_start,
            walk_gain,
        }
    }

    /// Gives up the estimator, returning its truncation (seeds applied)
    /// for [`Truncation::reset`] and reuse over the same arena.
    pub fn into_truncation(self) -> Truncation {
        self.trunc
    }

    /// Number of users.
    pub fn num_nodes(&self) -> usize {
        self.sums.len()
    }

    /// Seeds added so far.
    pub fn seeds(&self) -> &[Node] {
        self.trunc.seeds()
    }

    /// Whether `v` is a seed.
    pub fn is_seed(&self, v: Node) -> bool {
        self.trunc.is_seed(v)
    }

    /// Estimated opinion `b̂_qv^{(t)}[S]` for the current seed set.
    ///
    /// Seeds estimate exactly 1 (their walks truncate at position 0).
    /// Nodes with `λ_v = 0` fall back to the initial opinion — only
    /// relevant for per-node λ schedules that skip nodes.
    #[inline]
    pub fn estimate(&self, v: Node) -> f64 {
        if self.trunc.is_seed(v) {
            return 1.0;
        }
        let l = self.lambda[v as usize];
        if l == 0 {
            self.b0[v as usize]
        } else {
            self.sums[v as usize] / l as f64
        }
    }

    /// Estimated cumulative score `Σ_v b̂_qv^{(t)}[S]`.
    pub fn estimated_cumulative(&self) -> f64 {
        (0..self.num_nodes() as Node)
            .map(|v| self.estimate(v))
            .sum()
    }

    /// Adds `u` to the seed set, truncating walks and updating sums.
    /// Returns the start nodes whose estimates changed (deduplicated),
    /// which the γ* heuristic and rank-based gain scans consume.
    pub fn add_seed(&mut self, u: Node) -> Vec<Node> {
        let mut touched = Vec::new();
        self.add_seed_into(u, &mut touched);
        touched
    }

    /// [`OpinionEstimator::add_seed`] writing the changed-users delta
    /// report into a caller-owned buffer (cleared first), so a greedy
    /// loop adding one seed per iteration reuses one allocation. The
    /// report is sorted ascending and deduplicated.
    pub fn add_seed_into(&mut self, u: Node, touched: &mut Vec<Node>) {
        touched.clear();
        let arena = self.arena;
        let b0 = &self.b0;
        let sums = &mut self.sums;
        let walk_start = &self.walk_start;
        let walk_gain = &mut self.walk_gain;
        self.trunc.add_seed(arena, u, |walk, old_end| {
            let start = walk_start[walk];
            sums[start as usize] += 1.0 - b0[old_end as usize];
            // The walk now ends at a seed: value 1, gain gone for good.
            walk_gain[walk] = 0.0;
            touched.push(start);
        });
        touched.sort_unstable();
        touched.dedup();
    }

    /// For every candidate seed `w`, the increase in the **estimated
    /// cumulative score** if `w` were added: one scan over all live walk
    /// prefixes (§V-B's "one scan over all walks"). Already-seeded nodes
    /// report 0.
    pub fn cumulative_gains(&self) -> Vec<f64> {
        let mut gains = vec![0.0f64; self.num_nodes()];
        self.scan_prefixes(|w, start, per_walk_gain| {
            gains[w as usize] += per_walk_gain / self.lambda[start as usize] as f64;
        });
        gains
    }

    /// Visits `(walk, start, walk-level gain)` for every **live** walk
    /// whose live prefix contains candidate `w`, in ascending walk
    /// order — the occurrence-index dual of [`Self::scan_prefixes`]:
    /// one candidate in `O(occurrences of w)` instead of one pass over
    /// every prefix. The visit set and order match the scan exactly
    /// (first occurrences only, dead walks skipped), so sums taken here
    /// are bit-identical to the scan-based gains.
    ///
    /// A walk with positive gain was never truncated (truncation ends it
    /// at a seed, which zeroes its gain), so its live prefix is the whole
    /// walk and holds every occurrence.
    #[inline]
    fn visit_candidate_walks<F: FnMut(usize, Node, f64)>(&self, w: Node, mut visit: F) {
        debug_assert!(!self.trunc.is_seed(w));
        self.trunc.index().for_each_walk(self.arena, w, |walk| {
            let gain = self.walk_gain[walk];
            if gain <= 0.0 {
                return; // walk already ends at a seed (or at value 1)
            }
            debug_assert!(self.trunc.prefix(self.arena, walk).contains(&w));
            visit(walk, self.walk_start[walk], gain);
        });
    }

    /// The merged pairs of every user over the current live walks, for
    /// the user-major rank greedy. A user's walks are its start group.
    pub fn user_pairs(&self) -> UserPairs {
        let (_, _, groups) = self.arena.parts();
        let groups = groups.expect("grouped arena").to_vec();
        UserPairs::build(groups, Vec::new(), |v, i| self.live_walk(v, i))
    }

    /// Walk `i` of user `v` and its delta `gain/λ_v`, while it is live:
    /// the `live` of [`UserPairs`].
    pub fn live_walk(&self, v: Node, i: usize) -> Option<(&'a [Node], f64)> {
        let gain = self.walk_gain[i];
        if gain <= 0.0 {
            return None;
        }
        // Live, hence never truncated: the live prefix is the walk.
        let walk = self.arena.walk(i);
        debug_assert_eq!(self.trunc.end_pos(i) + 1, walk.len());
        debug_assert!(walk.iter().all(|&w| !self.trunc.is_seed(w)));
        Some((walk, gain / self.lambda[v as usize] as f64))
    }

    /// The marginal estimated-cumulative gain of a single candidate seed
    /// `w` — bit-identical to `cumulative_gains()[w]`, computed from
    /// `w`'s occurrence list alone. `0.0` for seeds.
    pub fn cumulative_gain_of(&self, w: Node) -> f64 {
        if self.trunc.is_seed(w) {
            return 0.0;
        }
        let mut gain = 0.0;
        self.visit_candidate_walks(w, |_, start, g| {
            gain += g / self.lambda[start as usize] as f64;
        });
        gain
    }

    /// [`OpinionEstimator::cumulative_gain_of`] restricted to walks whose
    /// start node is in `mask`.
    pub fn cumulative_gain_of_masked(&self, w: Node, mask: &[bool]) -> f64 {
        if self.trunc.is_seed(w) {
            return 0.0;
        }
        let mut gain = 0.0;
        self.visit_candidate_walks(w, |_, start, g| {
            if mask[start as usize] {
                gain += g / self.lambda[start as usize] as f64;
            }
        });
        gain
    }

    /// Visits the merged per-user estimate deltas of one candidate seed
    /// `w` — `(user, Δb̂_qv)` pairs in ascending user order — without
    /// scanning any other candidate's walks. Grouped arenas emit
    /// straight off the occurrence list (walk order is start order);
    /// `scratch` is only for API parity with the sketch estimator.
    pub fn for_candidate_deltas<F: FnMut(Node, f64)>(
        &self,
        w: Node,
        _scratch: &mut DeltaScratch,
        mut visit: F,
    ) {
        if self.trunc.is_seed(w) {
            return;
        }
        // Walks are grouped by start node in ascending node order, so
        // occurrences arrive user-major: merge adjacent runs in place.
        let mut current: Option<(Node, f64)> = None;
        self.visit_candidate_walks(w, |_, start, g| {
            let delta = g / self.lambda[start as usize] as f64;
            match &mut current {
                Some((user, acc)) if *user == start => *acc += delta,
                _ => {
                    if let Some((user, acc)) = current.take() {
                        visit(user, acc);
                    }
                    current = Some((start, delta));
                }
            }
        });
        if let Some((user, acc)) = current {
            visit(user, acc);
        }
    }

    /// Visits `(candidate seed w, walk start, walk-level gain)` for the
    /// first occurrence of every non-seed node `w` in every live prefix,
    /// where the walk-level gain is `1 − end_value` (what truncating that
    /// walk at `w` would change its contribution by).
    fn scan_prefixes<F: FnMut(Node, Node, f64)>(&self, mut visit: F) {
        for i in 0..self.arena.num_walks() {
            let end_value = self.trunc.end_value(self.arena, &self.b0, i);
            let gain = 1.0 - end_value;
            if gain <= 0.0 {
                continue;
            }
            let prefix = self.trunc.prefix(self.arena, i);
            let start = self.walk_start[i];
            for (pos, &w) in prefix.iter().enumerate() {
                // First occurrence only: truncation cuts at the earliest.
                if prefix[..pos].contains(&w) || self.trunc.is_seed(w) {
                    continue;
                }
                visit(w, start, gain);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Lambda, WalkGenerator};
    use vom_graph::builder::graph_from_edges;
    use vom_graph::SocialGraph;

    fn running_example() -> (SocialGraph, Vec<f64>, Vec<f64>) {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let d = vec![0.0, 0.0, 0.5, 0.5];
        (g, b0, d)
    }

    /// The reference for the per-candidate merges: per-(seed, user)
    /// opinion deltas `(w, v, Δb̂_qv)` from one scan over every live
    /// prefix, sorted by seed and user, with a user's walks merged.
    fn pair_deltas(est: &OpinionEstimator<'_>) -> Vec<(Node, Node, f64)> {
        let mut deltas = Vec::new();
        est.scan_prefixes(|w, start, gain| {
            deltas.push((w, start, gain / est.lambda[start as usize] as f64));
        });
        deltas.sort_unstable_by_key(|&(w, v, _)| (w, v));
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

    /// The reference for `cumulative_gain_of_masked`: the
    /// [`OpinionEstimator::cumulative_gains`] scan restricted to walks
    /// whose start is in `mask`.
    fn cumulative_gains_masked(est: &OpinionEstimator<'_>, mask: &[bool]) -> Vec<f64> {
        let mut gains = vec![0.0f64; est.num_nodes()];
        est.scan_prefixes(|w, start, gain| {
            if mask[start as usize] {
                gains[w as usize] += gain / est.lambda[start as usize] as f64;
            }
        });
        gains
    }

    #[test]
    fn estimates_converge_to_exact_opinions() {
        let (g, b0, d) = running_example();
        let t = 1;
        let gen = WalkGenerator::new(&g, &d, t);
        let arena = gen.generate_per_node(&Lambda::Uniform(60_000), 17);
        let est = OpinionEstimator::new(&arena, &b0);
        // Exact t=1 opinions: 0.40, 0.80, 0.60, 0.75.
        let exact = [0.40, 0.80, 0.60, 0.75];
        for v in 0..4 {
            let e = est.estimate(v);
            assert!(
                (e - exact[v as usize]).abs() < 0.01,
                "node {v}: {e} vs {}",
                exact[v as usize]
            );
        }
    }

    #[test]
    fn seeded_estimates_converge_to_exact_seeded_opinions() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 1);
        let arena = gen.generate_per_node(&Lambda::Uniform(60_000), 23);
        let mut est = OpinionEstimator::new(&arena, &b0);
        let touched = est.add_seed(2);
        // Seeding node 2 influences node 3's estimate (walks 3 -> 2).
        assert!(touched.contains(&3));
        // Exact seeded opinions (Table I row {3}): 0.40, 0.80, 1.00, 0.95.
        let exact = [0.40, 0.80, 1.00, 0.95];
        for v in 0..4 {
            let e = est.estimate(v);
            assert!(
                (e - exact[v as usize]).abs() < 0.01,
                "node {v}: {e} vs {}",
                exact[v as usize]
            );
        }
        assert_eq!(est.estimate(2), 1.0, "seed estimates exactly 1");
    }

    #[test]
    fn cumulative_gains_match_manual_recompute() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 2);
        let arena = gen.generate_per_node(&Lambda::Uniform(500), 31);
        let est = OpinionEstimator::new(&arena, &b0);
        let gains = est.cumulative_gains();
        let base = est.estimated_cumulative();
        for w in 0..4 {
            let mut clone = est.clone();
            clone.add_seed(w);
            let realized = clone.estimated_cumulative() - base;
            assert!(
                (gains[w as usize] - realized).abs() < 1e-9,
                "node {w}: predicted {} vs realized {}",
                gains[w as usize],
                realized
            );
        }
    }

    #[test]
    fn gains_of_existing_seeds_are_zero() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 2);
        let arena = gen.generate_per_node(&Lambda::Uniform(200), 37);
        let mut est = OpinionEstimator::new(&arena, &b0);
        est.add_seed(2);
        let gains = est.cumulative_gains();
        assert_eq!(gains[2], 0.0);
    }

    #[test]
    fn pair_deltas_aggregate_to_cumulative_gains() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 2);
        let arena = gen.generate_per_node(&Lambda::Uniform(300), 41);
        let est = OpinionEstimator::new(&arena, &b0);
        let gains = est.cumulative_gains();
        let mut agg = [0.0f64; 4];
        for (w, _, delta) in pair_deltas(&est) {
            agg[w as usize] += delta;
        }
        for v in 0..4 {
            assert!((agg[v] - gains[v]).abs() < 1e-9, "node {v}");
        }
    }

    #[test]
    fn pair_deltas_are_sorted_and_deduplicated() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 3);
        let arena = gen.generate_per_node(&Lambda::Uniform(100), 43);
        let est = OpinionEstimator::new(&arena, &b0);
        let deltas = pair_deltas(&est);
        for pair in deltas.windows(2) {
            assert!(
                (pair[0].0, pair[0].1) < (pair[1].0, pair[1].1),
                "must be strictly sorted (deduplicated)"
            );
        }
        assert!(deltas.iter().all(|d| d.2 > 0.0));
    }

    #[test]
    fn per_candidate_gain_matches_full_scan() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 2);
        let arena = gen.generate_per_node(&Lambda::Uniform(400), 47);
        let mut est = OpinionEstimator::new(&arena, &b0);
        let mask = [true, false, true, true];
        for step in 0..2 {
            let gains = est.cumulative_gains();
            let masked = cumulative_gains_masked(&est, &mask);
            for w in 0..4u32 {
                if est.is_seed(w) {
                    continue;
                }
                assert_eq!(
                    est.cumulative_gain_of(w).to_bits(),
                    gains[w as usize].to_bits(),
                    "step {step} node {w}"
                );
                assert_eq!(
                    est.cumulative_gain_of_masked(w, &mask).to_bits(),
                    masked[w as usize].to_bits(),
                    "step {step} node {w} (masked)"
                );
            }
            est.add_seed(2);
        }
        assert_eq!(est.cumulative_gain_of(2), 0.0, "seeds gain nothing");
    }

    #[test]
    fn per_candidate_deltas_match_pair_deltas() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 3);
        let arena = gen.generate_per_node(&Lambda::Uniform(300), 53);
        let mut est = OpinionEstimator::new(&arena, &b0);
        est.add_seed(1);
        let all = pair_deltas(&est);
        let mut scratch = DeltaScratch::default();
        for w in 0..4u32 {
            if est.is_seed(w) {
                continue;
            }
            let mut got: Vec<(Node, f64)> = Vec::new();
            est.for_candidate_deltas(w, &mut scratch, |user, delta| got.push((user, delta)));
            let want: Vec<(Node, f64)> = all
                .iter()
                .filter(|d| d.0 == w)
                .map(|d| (d.1, d.2))
                .collect();
            assert_eq!(got.len(), want.len(), "node {w}");
            for (g, w_) in got.iter().zip(&want) {
                assert_eq!(g.0, w_.0);
                assert!((g.1 - w_.1).abs() < 1e-12, "{} vs {}", g.1, w_.1);
            }
            assert!(got.windows(2).all(|p| p[0].0 < p[1].0), "ascending users");
        }
    }

    #[test]
    fn add_seed_into_reuses_the_buffer() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 1);
        let arena = gen.generate_per_node(&Lambda::Uniform(500), 59);
        let mut est = OpinionEstimator::new(&arena, &b0);
        let mut buf = vec![99; 8]; // stale content must be cleared
        est.add_seed_into(2, &mut buf);
        let mut est2 = OpinionEstimator::new(&arena, &b0);
        assert_eq!(buf, est2.add_seed(2));
    }

    #[test]
    fn truncation_equals_direct_generation_in_expectation() {
        // Theorem 9: post-generation truncation and Direct Generation
        // estimate the same quantity. Statistical check on node 3.
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 3);
        let seeds = [2 as Node];
        let lambda = Lambda::Uniform(40_000);

        let arena_trunc = gen.generate_per_node(&lambda, 51);
        let mut est = OpinionEstimator::new(&arena_trunc, &b0);
        est.add_seed(2);
        let trunc_estimate = est.estimate(3);

        let arena_direct = gen.generate_direct(&lambda, &seeds, 53);
        // Direct walks already stop at seeds; value of end node e is 1 if
        // e is a seed else b0[e].
        let range = arena_direct.group_range(3).unwrap();
        let mut sum = 0.0;
        let count = range.len();
        for i in range {
            let w = arena_direct.walk(i);
            let e = w[w.len() - 1];
            sum += if seeds.contains(&e) {
                1.0
            } else {
                b0[e as usize]
            };
        }
        let direct_estimate = sum / count as f64;
        assert!(
            (trunc_estimate - direct_estimate).abs() < 0.01,
            "{trunc_estimate} vs {direct_estimate}"
        );
    }
}
