//! Exact Friedkin–Johnsen iteration (the paper's **DM** building block).

use crate::error::{validate_unit_range, DiffusionError};
use crate::Result;
use vom_graph::{Node, SocialGraph};

/// Naive exact FJ iteration for one candidate: given `W_q` (inside the
/// graph), `B_q^(0)` and `D_q`, computes the whole trajectory
/// `B_q^(0..=t)[S]` for a seed set `S` by `t` dense sparse
/// matrix–vector products (`O(t · m)`, matching the paper's §III-C
/// analysis). Selection runs on [`crate::Solver::solve`]; this type
/// serves per-step analyses (Figure 18) and is the independent
/// reference the solver's equivalence tests check against.
///
/// Seeds are *pinned* during iteration (opinion 1, fully stubborn) instead
/// of copying modified `B⁰`/`D` vectors.
#[derive(Debug, Clone, Copy)]
pub struct FjEngine<'a> {
    graph: &'a SocialGraph,
    b0: &'a [f64],
    d: &'a [f64],
}

impl<'a> FjEngine<'a> {
    /// Validates lengths and ranges and builds an engine.
    pub fn new(graph: &'a SocialGraph, b0: &'a [f64], d: &'a [f64]) -> Result<Self> {
        let n = graph.num_nodes();
        if b0.len() != n {
            return Err(DiffusionError::LengthMismatch {
                what: "initial opinions",
                got: b0.len(),
                expected: n,
            });
        }
        if d.len() != n {
            return Err(DiffusionError::LengthMismatch {
                what: "stubbornness",
                got: d.len(),
                expected: n,
            });
        }
        validate_unit_range("initial opinion", b0)?;
        validate_unit_range("stubbornness", d)?;
        Ok(FjEngine { graph, b0, d })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &SocialGraph {
        self.graph
    }

    /// Initial opinions `B_q^(0)` (without seeds applied).
    pub fn initial(&self) -> &[f64] {
        self.b0
    }

    /// Stubbornness diagonal `D_q` (without seeds applied).
    pub fn stubbornness(&self) -> &[f64] {
        self.d
    }

    /// Full trajectory `[B^(0)[S], B^(1)[S], …, B^(t)[S]]` (t + 1 rows).
    pub fn trajectory(&self, t: usize, seeds: &[Node]) -> Vec<Vec<f64>> {
        let mut is_seed = vec![false; self.graph.num_nodes()];
        let mut cur = self.b0.to_vec();
        for &s in seeds {
            is_seed[s as usize] = true;
            cur[s as usize] = 1.0;
        }
        let mut next = vec![0.0; cur.len()];
        let mut out = Vec::with_capacity(t + 1);
        out.push(cur.clone());
        for _ in 0..t {
            self.step(&is_seed, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
            out.push(cur.clone());
        }
        out
    }

    /// One FJ step: `next = cur · W · (I − D[S]) + B⁰[S] · D[S]`.
    ///
    /// Nodes without in-edges retain their current (= initial) opinion,
    /// matching the paper's convention; seeds are pinned at 1.
    fn step(&self, is_seed: &[bool], cur: &[f64], next: &mut [f64]) {
        let g = self.graph;
        for v in 0..g.num_nodes() {
            let vu = v as Node;
            next[v] = if is_seed[v] {
                1.0
            } else if !g.has_in_edges(vu) {
                cur[v]
            } else {
                let mut acc = 0.0;
                for (j, w) in g.in_entries(vu) {
                    acc += w * cur[j as usize];
                }
                let dv = self.d[v];
                (1.0 - dv) * acc + dv * self.b0[v]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;

    /// `B^(t)[S]`: the last row of the trajectory.
    fn at(eng: &FjEngine<'_>, t: usize, seeds: &[Node]) -> Vec<f64> {
        eng.trajectory(t, seeds).pop().expect("t + 1 rows")
    }

    /// The paper's Figure 1 running example (0-indexed).
    fn running_example() -> (SocialGraph, Vec<f64>, Vec<f64>) {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let d = vec![0.0, 0.0, 0.5, 0.5];
        (g, b0, d)
    }

    #[test]
    fn table1_no_seeds() {
        let (g, b0, d) = running_example();
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        let b1 = at(&eng, 1, &[]);
        // Table I, row {}: 0.40, 0.80, 0.60, 0.75.
        let expected = [0.40, 0.80, 0.60, 0.75];
        for (got, want) in b1.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn table1_seed_rows() {
        let (g, b0, d) = running_example();
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        let cases: [(&[Node], [f64; 4]); 5] = [
            (&[0], [1.00, 0.80, 0.75, 0.75]),
            (&[1], [0.40, 1.00, 0.65, 0.75]),
            (&[2], [0.40, 0.80, 1.00, 0.95]),
            (&[3], [0.40, 0.80, 0.60, 1.00]),
            (&[0, 1], [1.00, 1.00, 0.80, 0.75]),
        ];
        for (seeds, expected) in cases {
            let b1 = at(&eng, 1, seeds);
            for (v, (got, want)) in b1.iter().zip(expected).enumerate() {
                assert!(
                    (got - want).abs() < 1e-12,
                    "seeds {seeds:?} node {v}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn horizon_zero_returns_seeded_initial() {
        let (g, b0, d) = running_example();
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        let b = at(&eng, 0, &[2]);
        assert_eq!(b, vec![0.40, 0.80, 1.00, 0.90]);
    }

    #[test]
    fn seeds_stay_pinned_across_steps() {
        let (g, b0, d) = running_example();
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        for t in 0..10 {
            let b = at(&eng, t, &[2]);
            assert_eq!(b[2], 1.0, "seed must stay at 1 at t={t}");
        }
    }

    #[test]
    fn trajectory_is_consistent_with_point_queries() {
        let (g, b0, d) = running_example();
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        let traj = eng.trajectory(5, &[1]);
        assert_eq!(traj.len(), 6);
        for (t, row) in traj.iter().enumerate() {
            assert_eq!(row, &at(&eng, t, &[1]), "mismatch at t={t}");
        }
    }

    #[test]
    fn opinions_remain_in_unit_interval() {
        let (g, b0, d) = running_example();
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        for t in 0..50 {
            for b in at(&eng, t, &[3]) {
                assert!((0.0..=1.0).contains(&b));
            }
        }
    }

    #[test]
    fn fully_stubborn_node_never_moves() {
        let g = graph_from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let b0 = vec![1.0, 0.2];
        let d = vec![0.0, 1.0];
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        let b = at(&eng, 20, &[]);
        assert_eq!(b[1], 0.2);
    }

    #[test]
    fn degroot_limit_on_path_converges_to_source() {
        // 0 -> 1 with d = 0: node 1 adopts node 0's opinion after 1 step.
        let g = graph_from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let b0 = vec![0.9, 0.1];
        let d = vec![0.0, 0.0];
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        assert_eq!(at(&eng, 1, &[]), vec![0.9, 0.9]);
    }

    // DeGroot (Eq. 1) is FJ with an all-zero stubbornness diagonal.

    #[test]
    fn degroot_averages_in_neighbors() {
        // 0 -> 2, 1 -> 2 with equal weights: node 2 adopts the mean.
        let g = graph_from_edges(3, &[(0, 2, 1.0), (1, 2, 1.0)]).unwrap();
        let b0 = vec![0.2, 0.8, 0.0];
        let eng = FjEngine::new(&g, &b0, &[0.0; 3]).unwrap();
        let b1 = at(&eng, 1, &[]);
        assert!((b1[2] - 0.5).abs() < 1e-12);
        // Sources never move.
        assert_eq!(b1[0], 0.2);
        assert_eq!(b1[1], 0.8);
    }

    #[test]
    fn consensus_on_strongly_connected_cycle() {
        // A 2-cycle swaps opinions each step under pure DeGroot.
        let g = graph_from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let eng = FjEngine::new(&g, &[1.0, 0.0], &[0.0; 2]).unwrap();
        assert_eq!(at(&eng, 1, &[]), vec![0.0, 1.0]);
        assert_eq!(at(&eng, 2, &[]), vec![1.0, 0.0]);
    }

    #[test]
    fn seeded_degroot_pins_the_seed() {
        let g = graph_from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let eng = FjEngine::new(&g, &[0.0, 0.0], &[0.0; 2]).unwrap();
        assert_eq!(at(&eng, 5, &[0]), vec![1.0, 1.0]);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (g, b0, _) = running_example();
        assert!(FjEngine::new(&g, &b0, &[0.0; 3]).is_err());
        assert!(FjEngine::new(&g, &[0.0; 3], &[0.0; 4]).is_err());
        assert!(FjEngine::new(&g, &[2.0, 0.0, 0.0, 0.0], &[0.0; 4]).is_err());
        assert!(FjEngine::new(&g, &b0, &[0.0, 0.0, 0.0, -0.5]).is_err());
    }
}
