//! GED-T — the greedy opinion-maximization algorithm of Gionis, Terzi &
//! Tsaparas, adapted to a finite time horizon.

use vom_core::dm::dm_greedy;
use vom_core::Problem;
use vom_diffusion::SolverPool;
use vom_graph::Node;
use vom_voting::ScoringFunction;

/// GED-T seed selection.
///
/// The original algorithm greedily maximizes the *sum of expressed
/// opinions at the Nash equilibrium* for a single campaign. Adapted to a
/// finite horizon `t` (as the paper does for its experiments), it
/// coincides with DM's exact greedy on the **cumulative** score —
/// regardless of the voting score the evaluation later applies, which is
/// precisely why GED-T trails on plurality/Copeland in Figures 6–7 while
/// matching DM on Figure 8.
pub fn gedt_seeds(problem: &Problem<'_>) -> Vec<Node> {
    let cumulative = Problem::new(
        problem.instance,
        problem.target,
        problem.k,
        problem.horizon,
        ScoringFunction::Cumulative,
    )
    .expect("a valid problem stays valid with the cumulative score");
    dm_greedy(&cumulative, None, &SolverPool::new(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vom_diffusion::{Instance, OpinionMatrix};
    use vom_graph::builder::graph_from_edges;

    fn instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    #[test]
    fn gedt_equals_dm_on_cumulative() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative).unwrap();
        assert_eq!(
            gedt_seeds(&p),
            dm_greedy(&p, None, &SolverPool::new(), None)
        );
    }

    #[test]
    fn gedt_ignores_the_requested_score() {
        let inst = instance();
        let plurality = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let seeds = gedt_seeds(&plurality);
        // GED-T optimizes cumulative: it picks node 0 (score 3.30), not
        // the plurality-optimal node 2.
        assert_eq!(seeds, vec![0]);
        assert_eq!(plurality.exact_score(&seeds), 2.0);
    }
}
