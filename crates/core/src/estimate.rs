//! A common interface over the RW and RS opinion estimators.
//!
//! The greedy loops are identical for walk-based (per-node) and
//! sketch-based (sampled) estimates; this trait is the seam that lets
//! [`crate::greedy`] implement them once. It declares what those loops
//! call and nothing more.

use vom_graph::Node;
use vom_sketch::SketchSet;
use vom_walks::{OpinionEstimator, UserPairs};

/// An incremental estimate of the target candidate's opinions under a
/// growing seed set.
pub trait OpinionEstimate {
    /// Number of users `n`.
    fn num_nodes(&self) -> usize;

    /// Estimated opinion of user `v`, or `None` when the estimator has no
    /// sample for `v` (possible for sketches).
    fn estimate(&self, v: Node) -> Option<f64>;

    /// The weight user `v` carries in estimated scores: 1 for per-node
    /// estimates (every user counts once); `count_v · n/θ` for sketches.
    fn user_weight(&self, v: Node) -> f64;

    /// Marginal estimated-cumulative gain of one candidate seed, from
    /// its occurrences alone (`O(occurrences of w)`); `0.0` for seeds.
    fn cumulative_gain_of(&self, w: Node) -> f64;

    /// [`OpinionEstimate::cumulative_gain_of`] restricted to
    /// contributions from users in `mask`.
    fn cumulative_gain_of_masked(&self, w: Node, mask: &[bool]) -> f64;

    /// Writes the estimated-cumulative gain of each `nodes[i]` (over the
    /// users in `mask`, if given) into `gains[i]`, bit-identical to
    /// [`OpinionEstimate::cumulative_gain_of`] /
    /// [`OpinionEstimate::cumulative_gain_of_masked`] per node. The
    /// default scans each node's occurrences; an estimator may answer a
    /// large batch (a CELF heap fill) from one full scan instead.
    fn cumulative_gains_of(&self, nodes: &[Node], mask: Option<&[bool]>, gains: &mut [f64]) {
        per_candidate_gains(self, nodes, mask, gains);
    }

    /// Every user's merged `(candidate, Δ)` pairs over the live walks or
    /// sketches, for the user-major competitive greedy.
    fn user_pairs(&self) -> UserPairs;

    /// Walk or sketch `i` of user `v` and its delta, while it is live:
    /// the `live` that brings [`UserPairs`] up to date.
    fn live_walk(&self, v: Node, i: usize) -> Option<(&[Node], f64)>;

    /// Commits `u` as a seed, writing the users whose estimates changed
    /// into `touched` (cleared first; sorted, deduplicated).
    fn add_seed_into(&mut self, u: Node, touched: &mut Vec<Node>);

    /// Whether `v` is already a seed.
    fn is_seed(&self, v: Node) -> bool;
}

/// The per-node evaluation behind [`OpinionEstimate::cumulative_gains_of`].
fn per_candidate_gains<E: OpinionEstimate + ?Sized>(
    est: &E,
    nodes: &[Node],
    mask: Option<&[bool]>,
    gains: &mut [f64],
) {
    for (g, &v) in gains.iter_mut().zip(nodes) {
        *g = match mask {
            Some(m) => est.cumulative_gain_of_masked(v, m),
            None => est.cumulative_gain_of(v),
        };
    }
}

impl OpinionEstimate for OpinionEstimator<'_> {
    fn num_nodes(&self) -> usize {
        OpinionEstimator::num_nodes(self)
    }
    fn estimate(&self, v: Node) -> Option<f64> {
        Some(OpinionEstimator::estimate(self, v))
    }
    fn user_weight(&self, _v: Node) -> f64 {
        1.0
    }
    fn cumulative_gain_of(&self, w: Node) -> f64 {
        OpinionEstimator::cumulative_gain_of(self, w)
    }
    fn cumulative_gain_of_masked(&self, w: Node, mask: &[bool]) -> f64 {
        OpinionEstimator::cumulative_gain_of_masked(self, w, mask)
    }
    fn user_pairs(&self) -> UserPairs {
        OpinionEstimator::user_pairs(self)
    }
    fn live_walk(&self, v: Node, i: usize) -> Option<(&[Node], f64)> {
        OpinionEstimator::live_walk(self, v, i)
    }
    fn add_seed_into(&mut self, u: Node, touched: &mut Vec<Node>) {
        OpinionEstimator::add_seed_into(self, u, touched)
    }
    fn is_seed(&self, v: Node) -> bool {
        OpinionEstimator::is_seed(self, v)
    }
}

impl OpinionEstimate for SketchSet {
    fn num_nodes(&self) -> usize {
        SketchSet::num_nodes(self)
    }
    fn estimate(&self, v: Node) -> Option<f64> {
        SketchSet::pooled_estimate(self, v)
    }
    fn user_weight(&self, v: Node) -> f64 {
        SketchSet::user_weight(self, v)
    }
    fn cumulative_gain_of(&self, w: Node) -> f64 {
        SketchSet::cumulative_gain_of(self, w)
    }
    fn cumulative_gain_of_masked(&self, w: Node, mask: &[bool]) -> f64 {
        SketchSet::cumulative_gain_of_masked(self, w, mask)
    }
    /// A batch (the heap fill) takes one pass over every live prefix and
    /// a gather; a single node (a refresh) scans its occurrences. Both
    /// sum the same terms in sketch order.
    fn cumulative_gains_of(&self, nodes: &[Node], mask: Option<&[bool]>, gains: &mut [f64]) {
        if nodes.len() <= 1 {
            return per_candidate_gains(self, nodes, mask, gains);
        }
        let all = match mask {
            Some(m) => SketchSet::cumulative_gains_masked(self, m),
            None => SketchSet::cumulative_gains(self),
        };
        for (g, &v) in gains.iter_mut().zip(nodes) {
            *g = all[v as usize];
        }
    }
    fn user_pairs(&self) -> UserPairs {
        SketchSet::user_pairs(self)
    }
    fn live_walk(&self, v: Node, i: usize) -> Option<(&[Node], f64)> {
        SketchSet::live_sketch(self, v, i)
    }
    fn add_seed_into(&mut self, u: Node, touched: &mut Vec<Node>) {
        SketchSet::add_seed_into(self, u, touched)
    }
    fn is_seed(&self, v: Node) -> bool {
        SketchSet::is_seed(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;
    use vom_sketch::SketchSet;
    use vom_walks::{Lambda, WalkGenerator};

    #[test]
    fn both_impls_agree_through_the_trait() {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let d = vec![0.0, 0.0, 0.5, 0.5];

        let gen = WalkGenerator::new(&g, &d, 1);
        let arena = gen.generate_per_node(&Lambda::Uniform(30_000), 3);
        let mut walks = OpinionEstimator::new(&arena, &b0);
        let mut sketch = SketchSet::generate(&g, &d, &b0, 1, 120_000, 5);

        fn seed_two<E: OpinionEstimate>(e: &mut E) {
            e.add_seed_into(2, &mut Vec::new());
        }
        let (w0, s0) = (walks.estimated_cumulative(), sketch.estimated_cumulative());
        seed_two(&mut walks);
        seed_two(&mut sketch);
        let (w1, s1) = (walks.estimated_cumulative(), sketch.estimated_cumulative());
        // Both estimate the same exact quantities (2.55 and 3.15).
        assert!((w0 - s0).abs() < 0.06, "{w0} vs {s0}");
        assert!((w1 - s1).abs() < 0.06, "{w1} vs {s1}");
        assert!(walks.is_seed(2) && sketch.is_seed(2));
        assert_eq!(walks.seeds(), sketch.seeds());
    }
}
