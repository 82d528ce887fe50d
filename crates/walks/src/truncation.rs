//! Post-generation truncation (Theorem 9) over a shared first-occurrence
//! index.

use crate::arena::WalkArena;
use std::sync::Arc;
use vom_graph::Node;

/// Incremental truncation state over a [`WalkArena`].
///
/// Walks are generated once without seeds; for a seed set `S`, each walk
/// is (virtually) cut at the **first occurrence** of a node in `S`, and
/// the cut node's opinion is 1. Theorem 9 shows the resulting end-node
/// initial opinion is still an unbiased estimate of `b_qu^{(t)}[S]`.
///
/// Seeds arrive one at a time (greedy adds one seed per iteration —
/// Algorithm 4 line 8 "truncate all walks containing u at u"), so the
/// state keeps, per walk, the current end position. Ends only move
/// leftwards; each `add_seed` costs `O(walks containing the seed · t)`.
///
/// A truncation owns only that `O(θ + n)` mutable state: the end
/// positions, the seed flags and the seed list. The walks containing
/// each node come from an [`OccurrenceIndex`] it shares behind an `Arc`.
/// The index depends on the arena alone, so a prepared index builds it
/// once next to its arena, and every query session's truncation, and
/// every clone, reads the same one.
#[derive(Debug)]
pub struct Truncation {
    end_pos: Vec<u32>,
    index: Arc<OccurrenceIndex>,
    is_seed: Vec<bool>,
    seeds: Vec<Node>,
}

/// Manual impl so `clone_from` reuses the target's allocations — a query
/// session resetting its working truncation from the pristine one then
/// allocates nothing.
impl Clone for Truncation {
    fn clone(&self) -> Self {
        Truncation {
            end_pos: self.end_pos.clone(),
            index: Arc::clone(&self.index),
            is_seed: self.is_seed.clone(),
            seeds: self.seeds.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.end_pos.clone_from(&source.end_pos);
        self.index = Arc::clone(&source.index);
        self.is_seed.clone_from(&source.is_seed);
        self.seeds.clone_from(&source.seeds);
    }
}

/// The walks in which each node occurs, for truncating at a seed: an
/// immutable, seed-independent CSR by node, built once per arena.
///
/// Node `u`'s list holds each walk containing `u` once, in ascending walk
/// order. It stores no positions: [`Truncation::add_seed`] finds `u`'s
/// first occurrence by scanning the walk's live prefix (at most `t + 1`
/// nodes), and everything else needs only the walk.
///
/// Over a grouped arena (one walk group per start node), every walk of
/// node `v`'s group starts at `v`, so the group is one contiguous run of
/// `v`'s list. Such an index stores only the other entries, and
/// [`OccurrenceIndex::for_each_walk`] splices the group range back in at
/// its place in walk order. Every list then yields the same walks in the
/// same order as the full one, so sums taken over it keep their bits.
#[derive(Debug)]
pub struct OccurrenceIndex {
    occ_off: Vec<usize>,
    occ_walk: Vec<u32>,
    /// Whether each node's own start group is left out of its list.
    implicit_groups: bool,
}

impl OccurrenceIndex {
    /// Builds the index of `arena` over `n` nodes. A grouped arena must
    /// have exactly `n` groups; its own-group entries are left implicit.
    pub fn new(arena: &WalkArena, n: usize) -> Self {
        let implicit_groups = arena.has_groups();
        if implicit_groups {
            assert_eq!(arena.num_groups(), Some(n), "one start group per node");
        }
        // Position 0 of a grouped arena's walk is its group's node.
        let first = usize::from(implicit_groups);
        let mut counts = vec![0usize; n + 1];
        each_first_occurrence(arena, first, |_, v| counts[v as usize + 1] += 1);
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let occ_off = counts;
        let mut cursor = occ_off.clone();
        let mut occ_walk = vec![0u32; occ_off[n]];
        each_first_occurrence(arena, first, |i, v| {
            occ_walk[cursor[v as usize]] = i as u32;
            cursor[v as usize] += 1;
        });
        OccurrenceIndex {
            occ_off,
            occ_walk,
            implicit_groups,
        }
    }

    /// Number of nodes indexed.
    fn num_nodes(&self) -> usize {
        self.occ_off.len() - 1
    }

    /// Calls `visit(walk)` for every walk of `arena` (the arena the index
    /// was built over) that contains `u`, in ascending walk order.
    #[inline]
    pub fn for_each_walk(&self, arena: &WalkArena, u: Node, mut visit: impl FnMut(usize)) {
        let stored = &self.occ_walk[self.occ_off[u as usize]..self.occ_off[u as usize + 1]];
        if !self.implicit_groups {
            stored.iter().for_each(|&i| visit(i as usize));
            return;
        }
        let group = arena
            .group_range(u)
            .expect("an implicit group needs a grouped arena");
        let split = stored.partition_point(|&i| (i as usize) < group.start);
        stored[..split].iter().for_each(|&i| visit(i as usize));
        group.for_each(&mut visit);
        stored[split..].iter().for_each(|&i| visit(i as usize));
    }

    /// Exact owned heap footprint in bytes: the full `Vec` capacities.
    pub fn heap_bytes(&self) -> usize {
        self.occ_off.capacity() * std::mem::size_of::<usize>()
            + self.occ_walk.capacity() * std::mem::size_of::<u32>()
    }
}

impl Truncation {
    /// A pristine truncation of `arena`, over `index` built from that
    /// arena: every walk ends at its last node and no node is a seed.
    pub fn new(arena: &WalkArena, index: Arc<OccurrenceIndex>) -> Self {
        let end_pos = (0..arena.num_walks())
            .map(|i| (arena.walk(i).len() - 1) as u32)
            .collect();
        let n = index.num_nodes();
        Truncation {
            end_pos,
            index,
            is_seed: vec![false; n],
            seeds: Vec::new(),
        }
    }

    /// Number of walks truncated (the arena's walk count).
    pub fn num_walks(&self) -> usize {
        self.end_pos.len()
    }

    /// The shared occurrence index this truncation reads.
    pub fn index(&self) -> &Arc<OccurrenceIndex> {
        &self.index
    }

    /// Returns the truncation to pristine: every walk ends at its last
    /// node again and no node is a seed, in `O(walks + seeds)`. The
    /// occurrence index is kept, so `arena` must be the arena it was
    /// built over.
    pub fn reset(&mut self, arena: &WalkArena) {
        debug_assert_eq!(self.end_pos.len(), arena.num_walks());
        for (i, end) in self.end_pos.iter_mut().enumerate() {
            *end = (arena.walk(i).len() - 1) as u32;
        }
        for &s in &self.seeds {
            self.is_seed[s as usize] = false;
        }
        self.seeds.clear();
    }

    /// Seeds applied so far, in insertion order.
    pub fn seeds(&self) -> &[Node] {
        &self.seeds
    }

    /// Whether `v` is a seed.
    #[inline]
    pub fn is_seed(&self, v: Node) -> bool {
        self.is_seed[v as usize]
    }

    /// Current end position (index within the walk) of walk `i`.
    #[inline]
    pub fn end_pos(&self, i: usize) -> usize {
        self.end_pos[i] as usize
    }

    /// Current end node of walk `i`.
    #[inline]
    pub fn end_node(&self, arena: &WalkArena, i: usize) -> Node {
        arena.walk(i)[self.end_pos(i)]
    }

    /// Estimated opinion contribution of walk `i`: the seeded initial
    /// opinion of its current end node (`1` if the end node is a seed —
    /// `b^{(0)}[S]` pins seeds at 1).
    #[inline]
    pub fn end_value(&self, arena: &WalkArena, b0: &[f64], i: usize) -> f64 {
        let e = self.end_node(arena, i);
        if self.is_seed(e) {
            1.0
        } else {
            b0[e as usize]
        }
    }

    /// The live prefix of walk `i` (everything up to and including the
    /// current end node).
    #[inline]
    pub fn prefix<'a>(&self, arena: &'a WalkArena, i: usize) -> &'a [Node] {
        &arena.walk(i)[..=self.end_pos(i)]
    }

    /// Exact owned heap footprint in bytes: full `Vec` capacities for the
    /// per-query mutable state plus the shared occurrence index (see
    /// [`OccurrenceIndex::heap_bytes`]). The index is `Arc`-shared across
    /// clones; each clone reports the whole index, which matches how one
    /// prepared sketch set holds exactly one pristine truncation.
    pub fn heap_bytes(&self) -> usize {
        self.end_pos.capacity() * std::mem::size_of::<u32>()
            + self.is_seed.capacity()
            + self.seeds.capacity() * std::mem::size_of::<Node>()
            + self.index.heap_bytes()
    }

    /// Adds `u` to the seed set, truncating every walk whose live prefix
    /// contains `u`.
    ///
    /// A walk's contribution changes in two cases: `u` occurs strictly
    /// before the current end (the end *moves* to `u`'s position), or `u`
    /// *is* the current end node (the end stays but its value jumps from
    /// `b⁰_u` to 1). In both, the new value is 1 and
    /// `on_change(walk, old_end_node)` fires with the pre-update end node,
    /// which is guaranteed not to have been a seed — walks already ending
    /// at a seed keep value 1, so no callback is needed for them even when
    /// their end moves left. Callbacks fire in ascending walk order.
    pub fn add_seed<F>(&mut self, arena: &WalkArena, u: Node, mut on_change: F)
    where
        F: FnMut(usize, Node),
    {
        if self.is_seed[u as usize] {
            return;
        }
        let Truncation {
            end_pos,
            index,
            is_seed,
            seeds,
        } = self;
        index.for_each_walk(arena, u, |walk| {
            let end = end_pos[walk] as usize;
            let live = &arena.walk(walk)[..=end];
            // `u`'s first occurrence; none means it lies beyond the live
            // prefix.
            let Some(pos) = live.iter().position(|&v| v == u) else {
                return;
            };
            let old_node = live[end];
            // `u` is marked a seed only after this loop, so `is_seed`
            // reflects the state before this call (the old end can be a
            // later occurrence of `u` itself).
            if pos < end {
                end_pos[walk] = pos as u32;
            }
            if !is_seed[old_node as usize] {
                on_change(walk, old_node);
            }
        });
        is_seed[u as usize] = true;
        seeds.push(u);
    }
}

/// Calls `visit(walk, node)` for the first occurrence of every node in
/// every walk at position `first` or later, in walk order and then
/// position order.
fn each_first_occurrence(arena: &WalkArena, first: usize, mut visit: impl FnMut(usize, Node)) {
    for i in 0..arena.num_walks() {
        let w = arena.walk(i);
        for (pos, &v) in w.iter().enumerate().skip(first) {
            if !w[..pos].contains(&v) {
                visit(i, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::WalkArenaBuilder;

    /// Hand-built arena: three walks over 4 nodes.
    fn arena() -> WalkArena {
        let mut b = WalkArenaBuilder::with_capacity(3, 3);
        // walk 0: 3 -> 2 -> 0
        for v in [3, 2, 0] {
            b.push_node(v);
        }
        b.finish_walk();
        // walk 1: 2 -> 1
        for v in [2, 1] {
            b.push_node(v);
        }
        b.finish_walk();
        // walk 2: 3 -> 2 -> 1 -> 2 (repeated node)
        for v in [3, 2, 1, 2] {
            b.push_node(v);
        }
        b.finish_walk();
        b.build(None)
    }

    /// A pristine truncation of `a` over its own freshly built index.
    fn fresh(a: &WalkArena) -> Truncation {
        Truncation::new(a, Arc::new(OccurrenceIndex::new(a, 4)))
    }

    #[test]
    fn initial_state_ends_at_walk_tails() {
        let a = arena();
        let t = fresh(&a);
        assert_eq!(t.end_node(&a, 0), 0);
        assert_eq!(t.end_node(&a, 1), 1);
        assert_eq!(t.end_node(&a, 2), 2);
        assert_eq!(t.prefix(&a, 1), &[2, 1]);
        assert!(t.seeds().is_empty());
    }

    #[test]
    fn add_seed_truncates_at_first_occurrence() {
        let a = arena();
        let mut t = fresh(&a);
        let mut truncated = Vec::new();
        t.add_seed(&a, 2, |w, _| truncated.push(w));
        truncated.sort_unstable();
        assert_eq!(truncated, vec![0, 1, 2]);
        assert_eq!(t.end_pos(0), 1);
        assert_eq!(t.end_pos(1), 0);
        assert_eq!(t.end_pos(2), 1, "first occurrence of 2, not the later one");
        assert_eq!(t.end_node(&a, 2), 2);
        assert!(t.is_seed(2));
    }

    #[test]
    fn end_values_use_seed_pinning() {
        let a = arena();
        let b0 = vec![0.1, 0.2, 0.3, 0.4];
        let mut t = fresh(&a);
        assert_eq!(t.end_value(&a, &b0, 0), 0.1);
        t.add_seed(&a, 2, |_, _| {});
        assert_eq!(t.end_value(&a, &b0, 0), 1.0);
        assert_eq!(t.end_value(&a, &b0, 1), 1.0);
    }

    #[test]
    fn later_seed_can_shorten_further() {
        let a = arena();
        let mut t = fresh(&a);
        t.add_seed(&a, 1, |_, _| {});
        assert_eq!(t.end_pos(2), 2);
        t.add_seed(&a, 3, |_, _| {});
        assert_eq!(t.end_pos(2), 0, "start node seed truncates to position 0");
        assert_eq!(t.end_pos(0), 0);
    }

    #[test]
    fn seed_beyond_current_end_is_a_noop() {
        let a = arena();
        let mut t = fresh(&a);
        t.add_seed(&a, 2, |_, _| {});
        let mut calls = 0;
        // Node 1 only appears after the new ends in walks 1 and 2 — but in
        // walk 1 node 1 is AT position 1 > end 0, walk 2 position 2 > end 1.
        t.add_seed(&a, 1, |_, _| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(t.end_pos(1), 0);
    }

    #[test]
    fn grouped_index_leaves_own_groups_implicit() {
        // Node 0 starts walks 0..2, node 1 none, node 2 walk 2.
        let mut b = WalkArenaBuilder::with_capacity(3, 3);
        for walk in [&[0, 2][..], &[0, 0, 1], &[2, 0, 2]] {
            for &v in walk {
                b.push_node(v);
            }
            b.finish_walk();
        }
        let a = b.build(Some(vec![0, 2, 2, 3]));
        let index = OccurrenceIndex::new(&a, 3);
        // Stored: node 0 in walk 2, node 1 in walk 1, node 2 in walk 0.
        assert_eq!(
            (&index.occ_off[..], &index.occ_walk[..]),
            (&[0, 1, 2, 3][..], &[2, 1, 0][..])
        );
        let visit = |u: Node| {
            let mut seen = Vec::new();
            index.for_each_walk(&a, u, |i| seen.push(i));
            seen
        };
        assert_eq!(visit(0), vec![0, 1, 2]);
        assert_eq!(visit(1), vec![1]);
        assert_eq!(visit(2), vec![0, 2]);
    }

    #[test]
    fn duplicate_seed_is_idempotent() {
        let a = arena();
        let mut t = fresh(&a);
        t.add_seed(&a, 2, |_, _| {});
        let ends: Vec<_> = (0..3).map(|i| t.end_pos(i)).collect();
        let mut calls = 0;
        t.add_seed(&a, 2, |_, _| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(ends, (0..3).map(|i| t.end_pos(i)).collect::<Vec<_>>());
        assert_eq!(t.seeds(), &[2]);
    }
}
