//! The column-stochastic social graph.

use crate::csr::Csr;
use crate::error::GraphError;
use crate::{Node, Result};

/// A directed social network with a column-stochastic influence matrix.
///
/// For every node `v` **with at least one incoming edge**, the weights on
/// its incoming edges sum to 1 — this is the column-stochasticity the
/// DeGroot/FJ models require (Eq. 1–2 of the paper). Nodes without
/// incoming edges keep their initial opinion forever, which matches the
/// paper's convention ("users without in-neighbors retain their initial
/// opinions") and is equivalent to an implicit self-loop of weight 1.
///
/// The same weights are exposed in two layouts:
///
/// * [`SocialGraph::in_entries`]`(v)` — `(source j, w_jv)`: drives the FJ
///   update `b_v ← (1 − d_v)·Σ_j w_jv·b_j + d_v·b⁰_v` and the *reverse*
///   random walks of §V (a walk at `v` moves to in-neighbor `j` with
///   probability `w_jv`);
/// * [`SocialGraph::out_entries`]`(u)` — `(dest v, w_uv)`: drives the
///   bounded-hop BFS for the reachable set `N_S^{(t)}` and the IC/LT
///   baseline cascades.
#[derive(Debug, Clone)]
pub struct SocialGraph {
    in_csr: Csr,
    out_csr: Csr,
    has_in: Vec<bool>,
    num_edges: usize,
}

impl SocialGraph {
    /// Assembles a graph from already-normalized parts. Used by
    /// [`crate::GraphBuilder`]; library users should go through the builder.
    pub(crate) fn from_parts(in_csr: Csr, out_csr: Csr, has_in: Vec<bool>) -> Self {
        let num_edges = in_csr.num_edges();
        SocialGraph {
            in_csr,
            out_csr,
            has_in,
            num_edges,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.in_csr.num_nodes()
    }

    /// Number of directed edges `m` (with positive normalized weight).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether `v` has at least one incoming edge.
    #[inline]
    pub fn has_in_edges(&self, v: Node) -> bool {
        self.has_in[v as usize]
    }

    /// In-neighbors of `v` (sources of edges into `v`).
    #[inline]
    pub fn in_neighbors(&self, v: Node) -> &[Node] {
        self.in_csr.neighbors(v)
    }

    /// Normalized incoming weights of `v`, aligned with
    /// [`SocialGraph::in_neighbors`]. Sums to 1 when `v` has in-edges.
    #[inline]
    pub fn in_weights(&self, v: Node) -> &[f64] {
        self.in_csr.weights(v)
    }

    /// Iterates `(in-neighbor j, w_jv)` for `v`.
    #[inline]
    pub fn in_entries(&self, v: Node) -> impl Iterator<Item = (Node, f64)> + '_ {
        self.in_csr.entries(v)
    }

    /// Out-neighbors of `u` (destinations of edges out of `u`).
    #[inline]
    pub fn out_neighbors(&self, u: Node) -> &[Node] {
        self.out_csr.neighbors(u)
    }

    /// Iterates `(out-neighbor v, w_uv)` for `u`. The weight is the same
    /// normalized `w_uv` stored on `v`'s in-list.
    #[inline]
    pub fn out_entries(&self, u: Node) -> impl Iterator<Item = (Node, f64)> + '_ {
        self.out_csr.entries(u)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: Node) -> usize {
        self.in_csr.degree(v)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: Node) -> usize {
        self.out_csr.degree(u)
    }

    /// Iterates all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = Node> {
        0..self.num_nodes() as Node
    }

    /// Verifies column-stochasticity within `tol`; returns the first
    /// violating node otherwise. Cheap enough to run in tests and after
    /// deserialization.
    pub fn validate_column_stochastic(&self, tol: f64) -> Result<()> {
        for v in self.nodes() {
            if !self.has_in_edges(v) {
                continue;
            }
            let sum: f64 = self.in_weights(v).iter().sum();
            if (sum - 1.0).abs() > tol {
                return Err(GraphError::NotColumnStochastic { node: v, sum });
            }
        }
        Ok(())
    }

    /// Exact owned heap footprint in bytes (both CSR layouts + bitmap),
    /// counting `Vec` capacities so allocation slack is visible.
    pub fn heap_bytes(&self) -> usize {
        self.in_csr.heap_bytes() + self.out_csr.heap_bytes() + self.has_in.capacity()
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    #[test]
    fn running_example_structure() {
        // Figure 1: edges 1->3, 2->3, 3->4 (0-indexed: 0->2, 1->2, 2->3).
        let g = GraphBuilder::new(4)
            .edge(0, 2, 1.0)
            .edge(1, 2, 1.0)
            .edge(2, 3, 1.0)
            .build()
            .unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.has_in_edges(0));
        assert!(!g.has_in_edges(1));
        assert!(g.has_in_edges(2));
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_weights(2), &[0.5, 0.5]);
        assert_eq!(g.in_weights(3), &[1.0]);
        assert_eq!(g.out_neighbors(2), &[3]);
        assert_eq!(g.out_degree(2), 1);
        assert_eq!(g.in_degree(2), 2);
        g.validate_column_stochastic(1e-12).unwrap();
    }

    #[test]
    fn out_weights_match_in_weights() {
        let g = GraphBuilder::new(3)
            .edge(0, 2, 3.0)
            .edge(1, 2, 1.0)
            .build()
            .unwrap();
        // Column of node 2 normalized: 0.75 / 0.25.
        let out0: Vec<_> = g.out_entries(0).collect();
        assert_eq!(out0, vec![(2, 0.75)]);
        let out1: Vec<_> = g.out_entries(1).collect();
        assert_eq!(out1, vec![(2, 0.25)]);
    }
}
