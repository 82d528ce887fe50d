//! Compressed-sparse-row adjacency with per-edge weights.

use crate::Node;

/// A weighted CSR adjacency structure.
///
/// For every node `v` in `0..n`, `neighbors(v)` and `weights(v)` return the
/// adjacent node ids and the matching edge weights. Whether the adjacency
/// stores *incoming* or *outgoing* edges is decided by the caller
/// ([`crate::SocialGraph`] keeps one of each).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<Node>,
    weights: Vec<f64>,
}

impl Csr {
    /// Builds a CSR from an edge list, grouping by `key` (the node each
    /// entry is filed under) with `(other, weight)` payloads.
    ///
    /// `edges` yields `(key, other, weight)` triples; all ids must be `< n`
    /// (validated by [`crate::GraphBuilder`], debug-asserted here).
    pub fn from_grouped_edges(n: usize, edges: &[(Node, Node, f64)]) -> Self {
        let mut counts = vec![0usize; n + 1];
        for &(key, _, _) in edges {
            debug_assert!((key as usize) < n);
            counts[key as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as Node; edges.len()];
        let mut weights = vec![0.0f64; edges.len()];
        for &(key, other, w) in edges {
            let slot = cursor[key as usize];
            targets[slot] = other;
            weights[slot] = w;
            cursor[key as usize] += 1;
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Adjacent node ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: Node) -> &[Node] {
        let (s, e) = self.range(v);
        &self.targets[s..e]
    }

    /// Edge weights of `v`, aligned with [`Csr::neighbors`].
    #[inline]
    pub fn weights(&self, v: Node) -> &[f64] {
        let (s, e) = self.range(v);
        &self.weights[s..e]
    }

    /// Number of adjacent edges of `v`.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        let (s, e) = self.range(v);
        e - s
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn entries(&self, v: Node) -> impl Iterator<Item = (Node, f64)> + '_ {
        let (s, e) = self.range(v);
        self.targets[s..e]
            .iter()
            .copied()
            .zip(self.weights[s..e].iter().copied())
    }

    #[inline]
    fn range(&self, v: Node) -> (usize, usize) {
        let v = v as usize;
        debug_assert!(v < self.num_nodes());
        (self.offsets[v], self.offsets[v + 1])
    }

    /// Exact owned heap footprint in bytes — `Vec` **capacities**, so any
    /// post-build slack is visible to the memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.targets.capacity() * std::mem::size_of::<Node>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // key = destination: in-edges of a 4-node graph 0->2, 1->2, 2->3.
        Csr::from_grouped_edges(4, &[(2, 0, 0.5), (2, 1, 0.5), (3, 2, 1.0)])
    }

    #[test]
    fn builds_and_queries() {
        let csr = sample();
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.neighbors(2), &[0, 1]);
        assert_eq!(csr.weights(2), &[0.5, 0.5]);
        assert_eq!(csr.neighbors(3), &[2]);
        assert!(csr.neighbors(0).is_empty());
        assert_eq!(csr.degree(2), 2);
        assert_eq!(csr.degree(0), 0);
    }

    #[test]
    fn entries_iterates_pairs() {
        let csr = sample();
        let pairs: Vec<_> = csr.entries(2).collect();
        assert_eq!(pairs, vec![(0, 0.5), (1, 0.5)]);
    }

    #[test]
    fn preserves_insertion_order_within_group() {
        let csr = Csr::from_grouped_edges(2, &[(0, 1, 1.0), (0, 0, 2.0)]);
        assert_eq!(csr.neighbors(0), &[1, 0]);
        assert_eq!(csr.weights(0), &[1.0, 2.0]);
    }

    #[test]
    fn empty_graph_of_isolated_nodes() {
        let csr = Csr::from_grouped_edges(3, &[]);
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.num_edges(), 0);
        for v in 0..3 {
            assert!(csr.neighbors(v).is_empty());
        }
    }

    #[test]
    fn heap_bytes_is_capacity_exact() {
        // `from_grouped_edges` allocates every buffer exact-size, so the
        // capacity-based accounting equals the closed-form footprint.
        let csr = sample();
        assert_eq!(
            csr.heap_bytes(),
            (csr.num_nodes() + 1) * std::mem::size_of::<usize>()
                + csr.num_edges() * std::mem::size_of::<Node>()
                + csr.num_edges() * std::mem::size_of::<f64>()
        );
    }
}
