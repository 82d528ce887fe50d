//! Post-generation truncation (Theorem 9).

use crate::arena::WalkArena;
use std::sync::Arc;
use vom_graph::Node;
use vom_persist::FlatBuf;

/// Incremental truncation state over a [`WalkArena`].
///
/// Walks are generated once without seeds; for a seed set `S`, each walk
/// is (virtually) cut at the **first occurrence** of a node in `S`, and
/// the cut node's opinion is 1. Theorem 9 shows the resulting end-node
/// initial opinion is still an unbiased estimate of `b_qu^{(t)}[S]`.
///
/// Seeds arrive one at a time (greedy adds one seed per iteration —
/// Algorithm 4 line 8 "truncate all walks containing u at u"), so the
/// state keeps, per walk, the current end position, plus an index from
/// node to its first occurrence in every walk. Ends only move leftwards;
/// each `add_seed` costs `O(#occurrences of the seed)`.
///
/// The occurrence index is immutable after construction and shared
/// behind an `Arc`, so cloning a `Truncation` copies only the
/// `O(θ + n)` mutable state, not the `O(total walk length)` index: the
/// RS engine resets its working sketch from the pristine one per query
/// this way. The RW engine keeps one truncation per query session and
/// returns it to pristine with [`Truncation::reset`] between
/// estimators, so a query builds the index at most once.
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

/// First-occurrence positions of every node in every walk (CSR by node).
/// The arrays sit in [`FlatBuf`]s so a snapshot load can borrow them from
/// the mapped file region instead of copying.
#[derive(Debug)]
struct OccurrenceIndex {
    occ_off: FlatBuf<usize>,
    occ_walk: FlatBuf<u32>,
    occ_pos: FlatBuf<u32>,
}

impl Truncation {
    /// Builds the truncation index for `arena` over `n` nodes.
    pub fn new(arena: &WalkArena, n: usize) -> Self {
        let end_pos = (0..arena.num_walks())
            .map(|i| (arena.walk(i).len() - 1) as u32)
            .collect();
        // Count first occurrences per node.
        let mut counts = vec![0usize; n + 1];
        each_first_occurrence(arena, |_, _, v| counts[v as usize + 1] += 1);
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let occ_off = counts;
        let total = *occ_off.last().unwrap();
        let mut cursor = occ_off.clone();
        let mut occ_walk = vec![0u32; total];
        let mut occ_pos = vec![0u32; total];
        each_first_occurrence(arena, |i, pos, v| {
            let slot = cursor[v as usize];
            occ_walk[slot] = i as u32;
            occ_pos[slot] = pos as u32;
            cursor[v as usize] += 1;
        });
        Truncation {
            end_pos,
            index: Arc::new(OccurrenceIndex {
                occ_off: occ_off.into(),
                occ_walk: occ_walk.into(),
                occ_pos: occ_pos.into(),
            }),
            is_seed: vec![false; n],
            seeds: Vec::new(),
        }
    }

    /// Reassembles a *pristine* (seedless) truncation from its persisted
    /// arrays: per-walk end positions plus the first-occurrence CSR.
    /// The arrays must equal the ones [`Truncation::new`] builds from
    /// `arena` (checked entry by entry, without building them), so a
    /// corrupt-but-digest-valid snapshot fails closed here instead of
    /// panicking or truncating at the wrong node inside a later query.
    pub fn from_parts(
        arena: &WalkArena,
        n: usize,
        end_pos: Vec<u32>,
        occ_off: FlatBuf<usize>,
        occ_walk: FlatBuf<u32>,
        occ_pos: FlatBuf<u32>,
    ) -> Result<Self, &'static str> {
        let walks = arena.num_walks();
        if end_pos.len() != walks {
            return Err("end positions must cover every walk");
        }
        if (0..walks).any(|i| end_pos[i] as usize + 1 != arena.walk(i).len()) {
            return Err("a pristine end position is its walk's last node");
        }
        if occ_off.len() != n + 1 || occ_off[0] != 0 {
            return Err("occurrence offsets must span every node");
        }
        if occ_off.windows(2).any(|w| w[1] < w[0]) {
            return Err("occurrence offsets must be non-decreasing");
        }
        let total = *occ_off.last().unwrap();
        if occ_walk.len() != total || occ_pos.len() != total {
            return Err("occurrence arrays must match their offsets");
        }
        // Replay `new`'s fill: each first occurrence, in walk order, must
        // be the next entry of its node's list, and every list must end
        // where its offsets say.
        let mut cursor = occ_off.to_vec();
        let mut matches = true;
        each_first_occurrence(arena, |i, pos, v| {
            let v = v as usize;
            matches = matches
                && v < n
                && cursor[v] < occ_off[v + 1]
                && occ_walk[cursor[v]] as usize == i
                && occ_pos[cursor[v]] as usize == pos;
            if matches {
                cursor[v] += 1;
            }
        });
        if !matches || (0..n).any(|v| cursor[v] != occ_off[v + 1]) {
            return Err("occurrence index differs from the arena's first occurrences");
        }
        Ok(Truncation {
            end_pos,
            index: Arc::new(OccurrenceIndex {
                occ_off,
                occ_walk,
                occ_pos,
            }),
            is_seed: vec![false; n],
            seeds: Vec::new(),
        })
    }

    /// The persisted arrays `(end_pos, occ_off, occ_walk, occ_pos)` — the
    /// exact buffers a snapshot writer serializes verbatim.
    pub fn parts(&self) -> (&[u32], &[usize], &[u32], &[u32]) {
        (
            &self.end_pos,
            &self.index.occ_off,
            &self.index.occ_walk,
            &self.index.occ_pos,
        )
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

    /// The first occurrence of node `u` in every walk that contains it:
    /// parallel slices of walk indices (ascending) and the position of
    /// the occurrence within the walk. This is the precomputed index
    /// `add_seed` truncates through; the delta-driven greedy scans it to
    /// evaluate one candidate in `O(occurrences)` instead of rescanning
    /// every walk prefix. An occurrence is inside the *live* prefix iff
    /// its position is `<= self.end_pos(walk)`.
    #[inline]
    pub fn first_occurrences(&self, u: Node) -> (&[u32], &[u32]) {
        let (s, e) = (
            self.index.occ_off[u as usize],
            self.index.occ_off[u as usize + 1],
        );
        (&self.index.occ_walk[s..e], &self.index.occ_pos[s..e])
    }

    /// Exact owned heap footprint in bytes: full `Vec` capacities for the
    /// per-query mutable state plus the shared occurrence index's
    /// [`FlatBuf`]s (capacity when owned, zero when borrowed from a
    /// snapshot). The index is `Arc`-shared across clones; each clone
    /// reports the whole index, which matches how one prepared engine
    /// holds exactly one pristine truncation.
    pub fn heap_bytes(&self) -> usize {
        self.end_pos.capacity() * std::mem::size_of::<u32>()
            + self.is_seed.capacity()
            + self.seeds.capacity() * std::mem::size_of::<Node>()
            + self.index.occ_off.heap_bytes()
            + self.index.occ_walk.heap_bytes()
            + self.index.occ_pos.heap_bytes()
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
    /// their end moves left.
    pub fn add_seed<F>(&mut self, arena: &WalkArena, u: Node, mut on_change: F)
    where
        F: FnMut(usize, Node),
    {
        if self.is_seed[u as usize] {
            return;
        }
        let (s, e) = (
            self.index.occ_off[u as usize],
            self.index.occ_off[u as usize + 1],
        );
        for idx in s..e {
            let walk = self.index.occ_walk[idx] as usize;
            let pos = self.index.occ_pos[idx];
            let end = self.end_pos[walk];
            if pos > end {
                continue; // u lies beyond the live prefix
            }
            let old_node = arena.walk(walk)[end as usize];
            // `u` is marked a seed only after this loop, so `is_seed`
            // reflects the state before this call (the old end can be a
            // later occurrence of `u` itself).
            let old_was_seed = self.is_seed[old_node as usize];
            if pos < end {
                self.end_pos[walk] = pos;
            }
            if !old_was_seed {
                on_change(walk, old_node);
            }
        }
        self.is_seed[u as usize] = true;
        self.seeds.push(u);
    }
}

/// Calls `visit(walk, pos, node)` for the first occurrence of every node
/// in every walk, in walk order and then position order.
fn each_first_occurrence(arena: &WalkArena, mut visit: impl FnMut(usize, usize, Node)) {
    for i in 0..arena.num_walks() {
        let w = arena.walk(i);
        for (pos, &v) in w.iter().enumerate() {
            if !w[..pos].contains(&v) {
                visit(i, pos, v);
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

    #[test]
    fn initial_state_ends_at_walk_tails() {
        let a = arena();
        let t = Truncation::new(&a, 4);
        assert_eq!(t.end_node(&a, 0), 0);
        assert_eq!(t.end_node(&a, 1), 1);
        assert_eq!(t.end_node(&a, 2), 2);
        assert_eq!(t.prefix(&a, 1), &[2, 1]);
        assert!(t.seeds().is_empty());
    }

    #[test]
    fn add_seed_truncates_at_first_occurrence() {
        let a = arena();
        let mut t = Truncation::new(&a, 4);
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
        let mut t = Truncation::new(&a, 4);
        assert_eq!(t.end_value(&a, &b0, 0), 0.1);
        t.add_seed(&a, 2, |_, _| {});
        assert_eq!(t.end_value(&a, &b0, 0), 1.0);
        assert_eq!(t.end_value(&a, &b0, 1), 1.0);
    }

    #[test]
    fn later_seed_can_shorten_further() {
        let a = arena();
        let mut t = Truncation::new(&a, 4);
        t.add_seed(&a, 1, |_, _| {});
        assert_eq!(t.end_pos(2), 2);
        t.add_seed(&a, 3, |_, _| {});
        assert_eq!(t.end_pos(2), 0, "start node seed truncates to position 0");
        assert_eq!(t.end_pos(0), 0);
    }

    #[test]
    fn seed_beyond_current_end_is_a_noop() {
        let a = arena();
        let mut t = Truncation::new(&a, 4);
        t.add_seed(&a, 2, |_, _| {});
        let mut calls = 0;
        // Node 1 only appears after the new ends in walks 1 and 2 — but in
        // walk 1 node 1 is AT position 1 > end 0, walk 2 position 2 > end 1.
        t.add_seed(&a, 1, |_, _| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(t.end_pos(1), 0);
    }

    #[test]
    fn from_parts_accepts_only_the_built_index() {
        let a = arena();
        let built = Truncation::new(&a, 4);
        let (end_pos, occ_off, occ_walk, occ_pos) = built.parts();
        let load = |walk: Vec<u32>, pos: Vec<u32>| {
            Truncation::from_parts(
                &a,
                4,
                end_pos.to_vec(),
                occ_off.to_vec().into(),
                walk.into(),
                pos.into(),
            )
        };
        assert!(load(occ_walk.to_vec(), occ_pos.to_vec()).is_ok());
        // Node 2 occurs in walks 0, 1, 2 at positions 1, 0, 1.
        let s = occ_off[2];
        assert_eq!(
            (&occ_walk[s..s + 3], &occ_pos[s..s + 3]),
            (&[0, 1, 2][..], &[1, 0, 1][..])
        );
        // In bounds, but another node's position (walk 0 holds 0 there).
        let mut pos = occ_pos.to_vec();
        pos[s] = 2;
        assert!(load(occ_walk.to_vec(), pos).is_err());
        // Node 2's later occurrence in walk 2.
        let mut pos = occ_pos.to_vec();
        pos[s + 2] = 3;
        assert!(load(occ_walk.to_vec(), pos).is_err());
        // Node 2's walks out of order.
        let (mut walk, mut pos) = (occ_walk.to_vec(), occ_pos.to_vec());
        walk.swap(s, s + 1);
        pos.swap(s, s + 1);
        assert!(load(walk, pos).is_err());
    }

    #[test]
    fn duplicate_seed_is_idempotent() {
        let a = arena();
        let mut t = Truncation::new(&a, 4);
        t.add_seed(&a, 2, |_, _| {});
        let ends: Vec<_> = (0..3).map(|i| t.end_pos(i)).collect();
        let mut calls = 0;
        t.add_seed(&a, 2, |_, _| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(ends, (0..3).map(|i| t.end_pos(i)).collect::<Vec<_>>());
        assert_eq!(t.seeds(), &[2]);
    }
}
