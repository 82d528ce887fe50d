//! Bounded-hop breadth-first search.
//!
//! Under the FJ model, influence from a seed travels one hop per timestamp,
//! so a seed set `S` can only affect nodes within `t` outgoing hops: the
//! *reachable users set* `N_S^{(t)}` (Definition 2). [`bounded_out_bfs`]
//! computes it for one seed set.
//!
//! [`HopCoverage`] carries the greedy maximization of the sandwich upper
//! bounds (Definitions 4 and 6), where every marginal gain is one
//! source's reach minus the covered set. That greedy needs about two
//! marginals per node (the heap fill, then one refresh per stale entry),
//! so [`HopCoverage::marginals`] scores [`LANES`] sources per bounded BFS:
//! each node carries one bit per source in a `u64`, and one sweep over
//! the out-edges advances all of them a hop. This is the multi-source
//! BFS of Then et al., "The More the Merrier: Efficient Multi-Source
//! Graph Traversal" (PVLDB 8(4), 2014), cut off at `t` hops.

use crate::graph::SocialGraph;
use crate::Node;
use std::collections::VecDeque;

/// Reusable scratch space for repeated bounded BFS runs.
///
/// Uses an epoch-stamped visited array so clearing between runs is O(1).
#[derive(Debug, Clone)]
pub struct BfsBuffer {
    stamp: Vec<u32>,
    epoch: u32,
    queue: VecDeque<(Node, u32)>,
}

impl BfsBuffer {
    /// Creates scratch space for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        BfsBuffer {
            stamp: vec![0; n],
            epoch: 0,
            queue: VecDeque::new(),
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset stamps so stale marks cannot alias.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn mark(&mut self, v: Node) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }
}

/// Collects every node at most `t` outgoing hops from any node in
/// `sources` (sources themselves included — `h = 0`).
pub fn bounded_out_bfs(g: &SocialGraph, sources: &[Node], t: usize) -> Vec<Node> {
    let mut buf = BfsBuffer::new(g.num_nodes());
    bounded_out_bfs_with(g, sources, t, &mut buf)
}

/// [`bounded_out_bfs`] with caller-provided scratch space.
pub fn bounded_out_bfs_with(
    g: &SocialGraph,
    sources: &[Node],
    t: usize,
    buf: &mut BfsBuffer,
) -> Vec<Node> {
    buf.begin();
    let mut out = Vec::new();
    for &s in sources {
        if buf.mark(s) {
            out.push(s);
            buf.queue.push_back((s, 0));
        }
    }
    while let Some((v, h)) = buf.queue.pop_front() {
        if h as usize >= t {
            continue;
        }
        for &w in g.out_neighbors(v) {
            if buf.mark(w) {
                out.push(w);
                buf.queue.push_back((w, h + 1));
            }
        }
    }
    out
}

/// Sources one bounded sweep of [`HopCoverage::marginals`] carries: one
/// bit of a `u64` per source.
pub const LANES: usize = 64;

/// Incremental coverage state for greedily maximizing
/// `|N_S^{(t)} ∪ base|`-style submodular coverage functions.
///
/// [`marginals`](Self::marginals) counts, for each source, the nodes
/// within `t` hops that are not yet covered; [`commit`](Self::commit)
/// covers one source's reach. Both are exact integer counts, so a greedy
/// over them sees the bound's true marginals.
///
/// This greedy is far from free: at the paper's horizon `t = 20` one
/// source reaches most of a replica, so after the first commit nearly
/// every cached gain is stale, and the greedy costs about two bounded
/// BFS runs per node. `marginals` therefore scores up to [`LANES`]
/// sources per traversal. The lane scratch (three `u64` words per node
/// plus the lists of nodes holding nonzero words) is allocated once here
/// and reused by every call.
#[derive(Debug, Clone)]
pub struct HopCoverage {
    covered: Vec<bool>,
    covered_count: usize,
    t: usize,
    buf: BfsBuffer,
    lanes: LaneScratch,
}

impl HopCoverage {
    /// Starts coverage over `n` nodes with hop budget `t`, pre-covering
    /// `base` (e.g. the favorable users set `V_q^{(t)}`).
    pub fn new(n: usize, t: usize, base: &[Node]) -> Self {
        let mut covered = vec![false; n];
        let mut covered_count = 0;
        for &v in base {
            if !covered[v as usize] {
                covered[v as usize] = true;
                covered_count += 1;
            }
        }
        HopCoverage {
            covered,
            covered_count,
            t,
            buf: BfsBuffer::new(n),
            lanes: LaneScratch::new(n),
        }
    }

    /// Number of covered nodes so far (`|N_S^{(t)} ∪ base|`).
    pub fn covered_count(&self) -> usize {
        self.covered_count
    }

    /// Writes into `gains[i]` the marginal coverage gain of adding
    /// `sources[i]` to the seed set: `|bounded_out_bfs(g, &[sources[i]],
    /// t) \ covered|`, exactly.
    ///
    /// Sources are processed [`LANES`] at a time, one bounded sweep per
    /// chunk. Duplicates and already covered sources are allowed, and
    /// each slot is counted as if its source were alone.
    ///
    /// # Panics
    ///
    /// If `sources` and `gains` differ in length.
    pub fn marginals(&mut self, g: &SocialGraph, sources: &[Node], gains: &mut [usize]) {
        assert_eq!(sources.len(), gains.len(), "one gain slot per source");
        for (chunk, out) in sources.chunks(LANES).zip(gains.chunks_mut(LANES)) {
            self.lanes.sweep(g, chunk, self.t);
            self.lanes.count_uncovered(&self.covered, out);
        }
    }

    /// Commits `s`: marks everything within `t` hops covered and returns
    /// the realized gain.
    pub fn commit(&mut self, g: &SocialGraph, s: Node) -> usize {
        let reach = bounded_out_bfs_with(g, &[s], self.t, &mut self.buf);
        let mut gain = 0;
        for v in reach {
            let c = &mut self.covered[v as usize];
            if !*c {
                *c = true;
                gain += 1;
            }
        }
        self.covered_count += gain;
        gain
    }
}

/// Per-node lane words of one bit-parallel bounded BFS: bit `l` of a
/// node's word belongs to the chunk's `l`-th source. Every word is zero
/// between sweeps; the node lists record which words a sweep set, so
/// clearing costs what the sweep touched, not `n`.
#[derive(Debug, Clone)]
struct LaneScratch {
    /// Lanes that reached the node at the current hop.
    frontier: Vec<u64>,
    /// Lanes that reach the node at the next hop.
    next: Vec<u64>,
    /// Lanes that have reached the node at any hop so far.
    seen: Vec<u64>,
    /// Nodes with a nonzero `frontier` word.
    active: Vec<Node>,
    /// Nodes with a nonzero `next` word.
    next_active: Vec<Node>,
    /// Nodes with a nonzero `seen` word.
    reached: Vec<Node>,
}

impl LaneScratch {
    fn new(n: usize) -> Self {
        LaneScratch {
            frontier: vec![0; n],
            next: vec![0; n],
            seen: vec![0; n],
            active: Vec::new(),
            next_active: Vec::new(),
            reached: Vec::new(),
        }
    }

    /// Runs the bounded BFS of every source in `sources` (at most
    /// [`LANES`]) at once, leaving each lane's reach in `seen`.
    fn sweep(&mut self, g: &SocialGraph, sources: &[Node], t: usize) {
        debug_assert!(sources.len() <= LANES);
        for (lane, &s) in sources.iter().enumerate() {
            let bit = 1u64 << lane;
            let v = s as usize;
            if self.seen[v] == 0 {
                self.reached.push(s);
                self.active.push(s);
            }
            self.seen[v] |= bit;
            self.frontier[v] |= bit;
        }
        for _ in 0..t {
            if self.active.is_empty() {
                break;
            }
            for &v in &self.active {
                let bits = std::mem::take(&mut self.frontier[v as usize]);
                for &w in g.out_neighbors(v) {
                    let w_idx = w as usize;
                    let new = bits & !self.seen[w_idx];
                    if new == 0 {
                        continue;
                    }
                    if self.seen[w_idx] == 0 {
                        self.reached.push(w);
                    }
                    self.seen[w_idx] |= new;
                    if self.next[w_idx] == 0 {
                        self.next_active.push(w);
                    }
                    self.next[w_idx] |= new;
                }
            }
            // Every frontier word was taken above, so the old frontier
            // array is all zero and becomes the next hop's `next`.
            std::mem::swap(&mut self.frontier, &mut self.next);
            std::mem::swap(&mut self.active, &mut self.next_active);
            self.next_active.clear();
        }
        for &v in &self.active {
            self.frontier[v as usize] = 0;
        }
        self.active.clear();
    }

    /// Writes each lane's count of reached, uncovered nodes into
    /// `gains[lane]` and clears `seen` for the next sweep.
    ///
    /// The per-lane counts are bit-sliced: `slices[j]` holds bit `j` of
    /// every lane's count, so adding a node's word is one ripple-carry
    /// add of 64 one-bit lanes instead of a loop over its set bits.
    fn count_uncovered(&mut self, covered: &[bool], gains: &mut [usize]) {
        let mut slices = [0u64; usize::BITS as usize];
        for &v in &self.reached {
            let bits = std::mem::take(&mut self.seen[v as usize]);
            if covered[v as usize] {
                continue;
            }
            let mut carry = bits;
            for slice in &mut slices {
                if carry == 0 {
                    break;
                }
                let overflow = *slice & carry;
                *slice ^= carry;
                carry = overflow;
            }
        }
        self.reached.clear();
        for (lane, gain) in gains.iter_mut().enumerate() {
            *gain = slices
                .iter()
                .enumerate()
                .map(|(j, s)| (((s >> lane) & 1) as usize) << j)
                .sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn path4() -> SocialGraph {
        // 0 -> 1 -> 2 -> 3
        graph_from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap()
    }

    #[test]
    fn zero_hops_is_sources_only() {
        let g = path4();
        let mut r = bounded_out_bfs(&g, &[1], 0);
        r.sort_unstable();
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn hop_limit_respected() {
        let g = path4();
        let mut r = bounded_out_bfs(&g, &[0], 2);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2]);
        let mut r = bounded_out_bfs(&g, &[0], 10);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multiple_sources_union() {
        let g = path4();
        let mut r = bounded_out_bfs(&g, &[0, 3], 1);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 3]);
    }

    #[test]
    fn duplicate_sources_deduplicated() {
        let g = path4();
        let r = bounded_out_bfs(&g, &[2, 2], 0);
        assert_eq!(r, vec![2]);
    }

    #[test]
    fn buffer_reuse_across_runs() {
        let g = path4();
        let mut buf = BfsBuffer::new(4);
        for _ in 0..100 {
            let r = bounded_out_bfs_with(&g, &[0], 1, &mut buf);
            assert_eq!(r.len(), 2);
        }
    }

    /// One source's marginal through the lane kernel.
    fn marginal(cov: &mut HopCoverage, g: &SocialGraph, s: Node) -> usize {
        let mut gain = [0];
        cov.marginals(g, &[s], &mut gain);
        gain[0]
    }

    #[test]
    fn coverage_marginal_then_commit() {
        let g = path4();
        let mut cov = HopCoverage::new(4, 1, &[]);
        assert_eq!(marginal(&mut cov, &g, 0), 2); // {0, 1}
        assert_eq!(cov.commit(&g, 0), 2);
        assert_eq!(cov.covered_count(), 2);
        assert_eq!(marginal(&mut cov, &g, 1), 1); // {1, 2} minus covered {1}
        assert_eq!(cov.commit(&g, 1), 1);
        assert_eq!(cov.covered_count(), 3);
    }

    #[test]
    fn coverage_respects_base_set() {
        let g = path4();
        let mut cov = HopCoverage::new(4, 1, &[1, 1, 2]);
        assert_eq!(cov.covered_count(), 2);
        assert_eq!(marginal(&mut cov, &g, 0), 1); // only node 0 is new
    }

    #[test]
    fn coverage_is_submodular_on_paths() {
        // marginal(s | X) >= marginal(s | Y) for X ⊆ Y.
        let g = path4();
        let mut small = HopCoverage::new(4, 2, &[]);
        small.commit(&g, 0);
        let mut large = HopCoverage::new(4, 2, &[]);
        large.commit(&g, 0);
        large.commit(&g, 1);
        assert!(marginal(&mut small, &g, 2) >= marginal(&mut large, &g, 2));
    }
}
