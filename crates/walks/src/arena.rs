//! Flat storage for reverse random walks.

use vom_graph::Node;

/// An arena of walks, each a short sequence of node ids.
///
/// Walks are stored back-to-back in one `Vec<Node>` with an offsets array —
/// the paper's sketches "are walks, which are simpler and less memory
/// consuming" than RR-set trees (§VI), and this layout keeps them that way
/// (8 + 4·len bytes per walk amortized, no per-walk allocation).
///
/// When built by per-node generation ([`crate::WalkGenerator`]), the arena
/// also records *start groups*: walk indices `group_range(v)` all start at
/// node `v`.
///
/// Equality is structural (same walks in the same order with the same
/// groups) — the cross-thread determinism suite compares arenas built
/// under different `VOM_THREADS` settings with `==`.
/// The arena is immutable once constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkArena {
    nodes: Vec<Node>,
    offsets: Vec<usize>,
    groups: Option<Vec<usize>>,
}

impl WalkArena {
    /// Reassembles an arena from flat buffers (a fresh build or a
    /// snapshot load); validates the offsets invariant the accessors
    /// index by and that every walk of group `v` starts at `v`, so a
    /// corrupt-but-digest-valid snapshot cannot panic or misattribute
    /// walks later.
    pub fn from_parts(
        nodes: Vec<Node>,
        offsets: Vec<usize>,
        groups: Option<Vec<usize>>,
    ) -> Result<Self, &'static str> {
        if offsets.is_empty() {
            return Err("offsets must carry a leading 0");
        }
        if offsets[0] != 0 || *offsets.last().unwrap() != nodes.len() {
            return Err("offsets must span exactly the node array");
        }
        if offsets.windows(2).any(|w| w[1] <= w[0]) {
            return Err("walks must be non-empty and offsets increasing");
        }
        if let Some(g) = &groups {
            let walks = offsets.len() - 1;
            if g.is_empty() || g[0] != 0 || *g.last().unwrap() != walks {
                return Err("groups must span exactly the walk list");
            }
            if g.windows(2).any(|w| w[1] < w[0]) {
                return Err("group offsets must be non-decreasing");
            }
            // The occurrence index leaves each node's own group implicit.
            let starts_at = |v: usize| (g[v]..g[v + 1]).all(|i| nodes[offsets[i]] as usize == v);
            if !(0..g.len() - 1).all(starts_at) {
                return Err("every walk of group v must start at v");
            }
        }
        Ok(WalkArena {
            nodes,
            offsets,
            groups,
        })
    }

    /// The flat arrays `(nodes, offsets, groups)` — the exact buffers a
    /// snapshot writer serializes verbatim.
    pub fn parts(&self) -> (&[Node], &[usize], Option<&[usize]>) {
        (&self.nodes, &self.offsets, self.groups.as_deref())
    }

    /// Number of walks stored.
    #[inline]
    pub fn num_walks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The node sequence of walk `i` (never empty; position 0 is the
    /// start node).
    #[inline]
    pub fn walk(&self, i: usize) -> &[Node] {
        &self.nodes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Start node of walk `i`.
    #[inline]
    pub fn start(&self, i: usize) -> Node {
        self.nodes[self.offsets[i]]
    }

    /// Iterates all walks.
    pub fn walks(&self) -> impl Iterator<Item = &[Node]> {
        (0..self.num_walks()).map(move |i| self.walk(i))
    }

    /// Total stored node occurrences (the `Σ_v λ_v · len` factor in the
    /// paper's complexity analysis).
    #[inline]
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// For per-node arenas: the contiguous range of walk indices starting
    /// at node `v`. `None` when the arena was built from an explicit start
    /// list (sketches).
    pub fn group_range(&self, v: Node) -> Option<std::ops::Range<usize>> {
        self.groups
            .as_ref()
            .map(|g| g[v as usize]..g[v as usize + 1])
    }

    /// Whether the arena records per-node start groups.
    pub fn has_groups(&self) -> bool {
        self.groups.is_some()
    }

    /// Number of start-group slots (`n` for per-node arenas).
    pub fn num_groups(&self) -> Option<usize> {
        self.groups.as_ref().map(|g| g.len() - 1)
    }

    /// Exact owned heap footprint in bytes (reported by the Figure 17
    /// memory experiment and the scale-stress workload): full `Vec`
    /// **capacity** — slack is resident memory and must be visible.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + (self.offsets.capacity() + self.groups.as_ref().map_or(0, Vec::capacity))
                * std::mem::size_of::<usize>()
    }
}

/// Incremental builder used by the generators.
#[derive(Debug)]
pub struct WalkArenaBuilder {
    nodes: Vec<Node>,
    offsets: Vec<usize>,
}

impl Default for WalkArenaBuilder {
    /// An empty builder, equivalent to `with_capacity(0, 0)`. The
    /// offsets array must carry its leading 0 even when empty —
    /// `num_walks()` and `append` both rely on it — so this cannot be
    /// a derived field-wise default.
    fn default() -> Self {
        WalkArenaBuilder::with_capacity(0, 0)
    }
}

impl WalkArenaBuilder {
    /// Creates a builder, reserving for `walks_hint` walks of
    /// `len_hint` average length.
    pub fn with_capacity(walks_hint: usize, len_hint: usize) -> Self {
        let mut offsets = Vec::with_capacity(walks_hint + 1);
        offsets.push(0);
        WalkArenaBuilder {
            nodes: Vec::with_capacity(walks_hint * len_hint),
            offsets,
        }
    }

    /// Appends one node to the walk under construction.
    #[inline]
    pub fn push_node(&mut self, v: Node) {
        self.nodes.push(v);
    }

    /// Finishes the walk under construction.
    #[inline]
    pub fn finish_walk(&mut self) {
        debug_assert!(
            self.nodes.len() > *self.offsets.last().unwrap(),
            "a walk must contain at least its start node"
        );
        self.offsets.push(self.nodes.len());
    }

    /// Number of finished walks.
    pub fn num_walks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends all walks from another builder (used to merge per-thread
    /// shards in deterministic order).
    pub fn append(&mut self, other: WalkArenaBuilder) {
        let base = self.nodes.len();
        self.nodes.extend_from_slice(&other.nodes);
        self.offsets
            .extend(other.offsets.iter().skip(1).map(|o| o + base));
    }

    /// Finalizes into an arena with optional start groups. The capacity
    /// hints over-reserve (walk lengths are random), so the buffers are
    /// shrunk to fit here — the arena is immutable from now on and its
    /// `heap_bytes` accounting charges capacity, not length.
    pub fn build(mut self, groups: Option<Vec<usize>>) -> WalkArena {
        self.nodes.shrink_to_fit();
        self.offsets.shrink_to_fit();
        WalkArena::from_parts(self.nodes, self.offsets, groups).expect("builder invariants hold")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WalkArena {
        let mut b = WalkArenaBuilder::with_capacity(3, 2);
        b.push_node(0);
        b.push_node(2);
        b.finish_walk();
        b.push_node(1);
        b.finish_walk();
        b.push_node(2);
        b.push_node(0);
        b.push_node(1);
        b.finish_walk();
        b.build(None)
    }

    #[test]
    fn builder_roundtrip() {
        let a = sample();
        assert_eq!(a.num_walks(), 3);
        assert_eq!(a.walk(0), &[0, 2]);
        assert_eq!(a.walk(1), &[1]);
        assert_eq!(a.walk(2), &[2, 0, 1]);
        assert_eq!(a.start(2), 2);
        assert_eq!(a.total_nodes(), 6);
        assert!(!a.has_groups());
        assert!(a.group_range(0).is_none());
    }

    #[test]
    fn walks_iterator_matches_indexing() {
        let a = sample();
        let collected: Vec<_> = a.walks().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], a.walk(2));
    }

    #[test]
    fn append_preserves_order_and_offsets() {
        let mut left = WalkArenaBuilder::with_capacity(1, 1);
        left.push_node(5);
        left.finish_walk();
        let mut right = WalkArenaBuilder::with_capacity(1, 2);
        right.push_node(6);
        right.push_node(7);
        right.finish_walk();
        left.append(right);
        let a = left.build(None);
        assert_eq!(a.num_walks(), 2);
        assert_eq!(a.walk(0), &[5]);
        assert_eq!(a.walk(1), &[6, 7]);
    }

    #[test]
    fn groups_expose_ranges() {
        let mut b = WalkArenaBuilder::with_capacity(3, 1);
        for v in [0, 0, 1] {
            b.push_node(v);
            b.finish_walk();
        }
        // Node 0 owns walks 0..2, node 1 owns 2..3.
        let a = b.build(Some(vec![0, 2, 3]));
        assert!(a.has_groups());
        assert_eq!(a.num_groups(), Some(2));
        assert_eq!(a.group_range(0), Some(0..2));
        assert_eq!(a.group_range(1), Some(2..3));
    }

    #[test]
    fn from_parts_rejects_walks_outside_their_start_group() {
        let (nodes, offsets) = (vec![0 as Node, 0, 1], vec![0usize, 1, 2, 3]);
        let load = |groups: Vec<usize>| {
            WalkArena::from_parts(nodes.clone(), offsets.clone(), Some(groups))
        };
        assert!(load(vec![0, 2, 3]).is_ok());
        // A boundary moved by one walk, either way.
        assert!(load(vec![0, 1, 3]).is_err());
        assert!(load(vec![0, 3, 3]).is_err());
        // One group short: walk 2 (start 1) falls into node 0's group.
        assert!(load(vec![0, 3]).is_err());
    }

    #[test]
    fn heap_bytes_is_capacity_exact() {
        // A built arena owns shrunk-to-fit buffers: the accounting must
        // equal the exact capacity-based formula, not a length estimate.
        let a = sample();
        let (nodes, offsets, _) = a.parts();
        assert_eq!(
            a.heap_bytes(),
            std::mem::size_of_val(nodes) + std::mem::size_of_val(offsets)
        );

        // Owned buffers with deliberate slack: capacity counts, len does
        // not.
        let mut nodes = Vec::with_capacity(64);
        nodes.extend_from_slice(&[0 as Node, 1]);
        let node_cap = nodes.capacity();
        let slack = WalkArena::from_parts(nodes, vec![0usize, 2], None).unwrap();
        assert_eq!(
            slack.heap_bytes(),
            node_cap * std::mem::size_of::<Node>() + 2 * std::mem::size_of::<usize>()
        );
    }
}
