//! Convergence analysis and per-step opinion-change tracking.
//!
//! The paper motivates the *finite time horizon* (Appendix B) by showing
//! that a significant fraction of users still change opinions before
//! `t = 30` (Figure 18) and that optimal seed sets differ across horizons.
//! These routines reproduce that analysis and check FJ's convergence
//! precondition; convergence itself is a tolerance-mode
//! [`crate::Solver::solve`].

use crate::fj::FjEngine;
use vom_graph::Node;

/// For each `t ∈ 1..=t_max`, the fraction of nodes whose opinion changed
/// by more than `tolerance_percent`% of its previous value — exactly the
/// quantity plotted in Figure 18:
/// `|b^(t) − b^(t−1)| > (∆/100) · b^(t−1)`.
pub fn change_fraction_series(
    engine: &FjEngine<'_>,
    seeds: &[Node],
    t_max: usize,
    tolerance_percent: f64,
) -> Vec<f64> {
    let traj = engine.trajectory(t_max, seeds);
    let n = engine.graph().num_nodes() as f64;
    let thr = tolerance_percent / 100.0;
    traj.windows(2)
        .map(|w| {
            let changed = w[0]
                .iter()
                .zip(&w[1])
                .filter(|(prev, cur)| (*cur - *prev).abs() > thr * **prev)
                .count();
            changed as f64 / n
        })
        .collect()
}

/// Oblivious nodes per the paper's §II-A: non-stubborn nodes not reachable
/// from any (partially or fully) stubborn node. FJ convergence is
/// guaranteed iff the subgraph induced by oblivious nodes is regular or
/// empty; detecting them lets callers check the precondition.
pub fn oblivious_nodes(engine: &FjEngine<'_>) -> Vec<Node> {
    let g = engine.graph();
    let d = engine.stubbornness();
    let n = g.num_nodes();
    // Nodes without in-edges hold their initial opinion forever; they act
    // as stubborn sources for this analysis.
    let stubborn: Vec<Node> = (0..n as Node)
        .filter(|&v| d[v as usize] > 0.0 || !g.has_in_edges(v))
        .collect();
    let mut reachable = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in &stubborn {
        reachable[s as usize] = true;
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        for &w in g.out_neighbors(v) {
            if !reachable[w as usize] {
                reachable[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    (0..n as Node)
        .filter(|&v| d[v as usize] == 0.0 && g.has_in_edges(v) && !reachable[v as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;

    #[test]
    fn change_fraction_decays_to_zero() {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let d = vec![0.0, 0.0, 0.5, 0.5];
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        let series = change_fraction_series(&eng, &[], 40, 1.0);
        assert_eq!(series.len(), 40);
        assert!(series[0] > 0.0, "something changes at t=1");
        assert_eq!(*series.last().unwrap(), 0.0, "settled by t=40");
        // Larger tolerance can only reduce the changing fraction.
        let loose = change_fraction_series(&eng, &[], 40, 20.0);
        for (tight, loose) in series.iter().zip(&loose) {
            assert!(loose <= tight);
        }
    }

    #[test]
    fn oblivious_cycle_is_detected() {
        // 2-cycle of non-stubborn nodes, unreachable from anything
        // stubborn; node 2 is fed only by the cycle, so all three are
        // oblivious (nothing stubborn exists in this graph).
        let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0)]).unwrap();
        let eng = FjEngine::new(&g, &[0.1, 0.2, 0.3], &[0.0, 0.0, 0.0]).unwrap();
        let obl = oblivious_nodes(&eng);
        assert_eq!(obl, vec![0, 1, 2]);
    }

    #[test]
    fn stubbornness_removes_obliviousness() {
        let g = graph_from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let eng = FjEngine::new(&g, &[0.1, 0.2], &[0.5, 0.0]).unwrap();
        assert!(oblivious_nodes(&eng).is_empty());
    }

    #[test]
    fn source_fed_nodes_are_not_oblivious() {
        // 0 (no in-edges) -> 1: node 1 is anchored by the source.
        let g = graph_from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let eng = FjEngine::new(&g, &[0.1, 0.2], &[0.0, 0.0]).unwrap();
        assert!(oblivious_nodes(&eng).is_empty());
    }
}
