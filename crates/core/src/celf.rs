//! CELF lazy greedy (Leskovec et al.), used for every submodular
//! objective: the cumulative score under DM and the sandwich bound
//! functions.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vom_diffusion::CostMeter;
use vom_graph::Node;

/// Heap entry: `(cached gain, node, iteration the gain was computed in)`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    gain: f64,
    node: Node,
    round: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.node == other.node
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by gain; ties broken toward the smaller node id so the
        // selection is deterministic. `total_cmp` keeps the order total
        // even if a degenerate objective hands back a NaN gain — such an
        // entry sorts above +∞ (or below −∞ for negative NaN) instead of
        // panicking deep inside the heap.
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Greedy maximization of a **submodular, non-decreasing** set function
/// with lazy (CELF) re-evaluation.
///
/// `marginal(nodes, gains)` must write into `gains[i]` the marginal gain
/// of adding `nodes[i]` to the currently committed set. The heap fill
/// hands it every candidate in one call, so a caller can batch the full
/// scan; each re-evaluation hands it one node. `commit(v)` is called
/// when `v` is selected. Correctness relies on submodularity: a gain
/// computed against an older (smaller) set upper-bounds the current
/// gain, so if a stale top entry, once refreshed, still dominates the
/// runner-up, it is optimal to take without touching the rest of the
/// heap.
///
/// Returns the selected nodes in order. Stops early if every remaining
/// gain is zero (adding more seeds cannot help a non-decreasing score).
///
/// A `meter` is charged one tick per evaluated node and checked for
/// exhaustion at the (sequential) pop boundary. A run stopped by the
/// meter returns a bit-identical **prefix** of the unmetered selection —
/// the heap evolves through the same deterministic state sequence and
/// the meter only decides how far along it we stop.
pub fn celf_greedy<FM, FC>(
    n: usize,
    k: usize,
    meter: Option<&CostMeter>,
    marginal: FM,
    commit: FC,
) -> Vec<Node>
where
    FM: FnMut(&[Node], &mut [f64]),
    FC: FnMut(Node),
{
    let candidates: Vec<Node> = (0..n as Node).collect();
    lazy_greedy(&candidates, k, true, meter, marginal, commit)
}

/// The shared lazy-greedy loop behind [`celf_greedy`] and the
/// estimate-driven cumulative fills in `crate::greedy`: one heap, one
/// staleness protocol, one tie-breaking rule — any change to the lazy
/// evaluation semantics lands in every submodular selection path at
/// once. `stop_on_zero` selects between CELF's early stop and the
/// paper's fill-to-`k` semantics (zero-gain seeds committed by smallest
/// id); `candidates` seeds the heap (callers exclude existing seeds
/// either here or by returning `NEG_INFINITY` from `marginal`).
///
/// The initial fill is one `marginal` call over all of `candidates`;
/// re-evaluations stay one node at a time, so the refresh order — and
/// with it the selection on objectives that are only nearly submodular
/// in floating point — is the per-node order.
pub(crate) fn lazy_greedy<FM, FC>(
    candidates: &[Node],
    k: usize,
    stop_on_zero: bool,
    meter: Option<&CostMeter>,
    mut marginal: FM,
    mut commit: FC,
) -> Vec<Node>
where
    FM: FnMut(&[Node], &mut [f64]),
    FC: FnMut(Node),
{
    // One tick per evaluated node — the unit the paper's complexity
    // analysis counts. The charge schedule depends only on the heap's
    // deterministic state sequence, never on thread interleaving.
    let charge = |nodes: usize| {
        if let Some(m) = meter {
            m.charge(nodes as u64);
        }
    };
    let mut gains = vec![0.0; candidates.len()];
    charge(candidates.len());
    marginal(candidates, &mut gains);
    let mut heap: BinaryHeap<Entry> = candidates
        .iter()
        .zip(&gains)
        .map(|(&node, &gain)| Entry {
            gain,
            node,
            round: 0,
        })
        .collect();
    let mut selected = Vec::with_capacity(k);
    let mut round = 0u32;
    while selected.len() < k {
        // Sequential checkpoint: stopping here leaves `selected` a valid
        // prefix of the full-budget selection (CELF prefix-consistency).
        if meter.is_some_and(|m| m.exhausted()) {
            break;
        }
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            if stop_on_zero && top.gain <= 0.0 {
                break;
            }
            commit(top.node);
            selected.push(top.node);
            round += 1;
        } else {
            let mut fresh = [0.0];
            charge(1);
            marginal(&[top.node], &mut fresh);
            heap.push(Entry {
                gain: fresh[0],
                node: top.node,
                round,
            });
        }
    }
    selected
}

/// Adapts a per-node gain function to the slice callback of
/// [`celf_greedy`] / [`lazy_greedy`], for objectives whose scans gain
/// nothing from batching.
pub(crate) fn per_node(mut gain: impl FnMut(Node) -> f64) -> impl FnMut(&[Node], &mut [f64]) {
    move |nodes, gains| {
        for (g, &v) in gains.iter_mut().zip(nodes) {
            *g = gain(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashSet;

    /// Weighted coverage: each node covers a set of items with weights.
    fn coverage_instance() -> Vec<Vec<usize>> {
        vec![
            vec![0, 1, 2, 3],
            vec![3, 4, 5],
            vec![0, 1],
            vec![6],
            vec![4, 5, 6],
        ]
    }

    /// CELF over a per-node gain with nothing to commit.
    fn celf(n: usize, k: usize, gain: impl FnMut(Node) -> f64) -> Vec<Node> {
        celf_greedy(n, k, None, per_node(gain), |_| {})
    }

    fn brute_force_best(sets: &[Vec<usize>], k: usize) -> usize {
        let n = sets.len();
        let mut best = 0;
        for mask in 0..(1usize << n) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let mut covered = HashSet::new();
            for (i, s) in sets.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    covered.extend(s.iter().copied());
                }
            }
            best = best.max(covered.len());
        }
        best
    }

    #[test]
    fn celf_matches_plain_greedy_on_coverage() {
        let sets = coverage_instance();
        let covered = RefCell::new(HashSet::<usize>::new());
        let selected = celf_greedy(
            sets.len(),
            2,
            None,
            per_node(|v| {
                let c = covered.borrow();
                sets[v as usize].iter().filter(|i| !c.contains(i)).count() as f64
            }),
            |v| {
                covered
                    .borrow_mut()
                    .extend(sets[v as usize].iter().copied());
            },
        );
        assert_eq!(selected.len(), 2);
        // Greedy on this instance is optimal: {0, 4} covering 7 items.
        assert_eq!(covered.borrow().len(), brute_force_best(&sets, 2));
    }

    /// Coverage CELF over `sets`, with the heap fill either batched (one
    /// pass marks the covered items, then counts every candidate) or per
    /// node. Returns the selection and the ticks charged.
    fn coverage_celf(sets: &[Vec<usize>], k: usize, batched: bool) -> (Vec<Node>, u64) {
        use vom_diffusion::CostBudget;
        let covered = RefCell::new(HashSet::<usize>::new());
        let gain = |v: Node| {
            let c = covered.borrow();
            sets[v as usize].iter().filter(|i| !c.contains(i)).count() as f64
        };
        let mut single = per_node(gain);
        let meter = CostMeter::new(CostBudget::ticks(u64::MAX));
        let selected = celf_greedy(
            sets.len(),
            k,
            Some(&meter),
            |nodes, gains| {
                if !batched || nodes.len() == 1 {
                    return single(nodes, gains);
                }
                let c = covered.borrow();
                let items = sets.iter().flatten().max().map_or(0, |&i| i + 1);
                let seen: Vec<bool> = (0..items).map(|i| c.contains(&i)).collect();
                for (g, &v) in gains.iter_mut().zip(nodes) {
                    *g = sets[v as usize].iter().filter(|&&i| !seen[i]).count() as f64;
                }
            },
            |v| {
                covered
                    .borrow_mut()
                    .extend(sets[v as usize].iter().copied());
            },
        );
        (selected, meter.spent())
    }

    #[test]
    fn batched_fill_matches_the_per_node_fill() {
        let sets = coverage_instance();
        for k in 1..=sets.len() {
            let batched = coverage_celf(&sets, k, true);
            assert_eq!(batched, coverage_celf(&sets, k, false), "k = {k}");
        }
    }

    #[test]
    fn lazy_evaluation_skips_most_recomputation() {
        // A modular (linear) function: gains never change, so after the
        // initial pass no re-evaluation should be needed beyond one
        // refresh per round.
        let weights = [5.0, 4.0, 3.0, 2.0, 1.0];
        let evals = RefCell::new(0usize);
        let selected = celf_greedy(
            5,
            3,
            None,
            per_node(|v| {
                *evals.borrow_mut() += 1;
                weights[v as usize]
            }),
            |_| {},
        );
        assert_eq!(selected, vec![0, 1, 2]);
        // 5 initial + at most one refresh per selection.
        assert!(*evals.borrow() <= 5 + 3, "evals = {}", evals.borrow());
    }

    #[test]
    fn stops_when_gains_vanish() {
        let selected = celf(4, 4, |v| if v == 0 { 1.0 } else { 0.0 });
        assert_eq!(selected, vec![0], "zero-gain nodes are not selected");
    }

    #[test]
    fn ties_break_toward_smaller_ids() {
        let selected = celf(4, 2, |_| 1.0);
        assert_eq!(selected, vec![0, 1]);
    }

    #[test]
    fn metered_runs_return_prefixes_of_the_full_selection() {
        use vom_diffusion::CostBudget;
        let weights = [5.0, 4.0, 3.0, 2.0, 1.0];
        let full = celf(5, 4, |v| weights[v as usize]);
        assert_eq!(full, vec![0, 1, 2, 3]);
        for budget in 0..20u64 {
            let m = CostMeter::new(CostBudget::ticks(budget));
            let got = celf_greedy(5, 4, Some(&m), per_node(|v| weights[v as usize]), |_| {});
            assert!(
                full.starts_with(&got),
                "budget {budget}: {got:?} is not a prefix of {full:?}"
            );
        }
        // An unlimited meter reproduces the unmetered selection exactly.
        let m = CostMeter::new(CostBudget::ticks(u64::MAX));
        let got = celf_greedy(5, 4, Some(&m), per_node(|v| weights[v as usize]), |_| {});
        assert_eq!(got, full);
        assert!(m.spent() > 0);
    }

    #[test]
    fn nan_gains_order_deterministically_instead_of_panicking() {
        // A degenerate objective: node 2's "gain" is NaN. total_cmp
        // sorts positive NaN above everything, so it is selected first —
        // deterministically — and the run completes.
        let selected = celf(4, 2, |v| if v == 2 { f64::NAN } else { 1.0 });
        assert_eq!(selected, vec![2, 0]);
        let again = celf(4, 2, |v| if v == 2 { f64::NAN } else { 1.0 });
        assert_eq!(selected, again, "NaN ordering is stable");
    }
}
