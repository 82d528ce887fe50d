//! **DM** — exact greedy seed selection by direct matrix–vector
//! iteration (Algorithm 1 with exact opinions, §III-C).
//!
//! Every greedy step scores many trial sets `S ∪ {v}` against one
//! committed set `S`, and those full candidate scans run in lanes:
//! fixed 8-node chunks of the candidate list, each chunk one
//! [`Solver::solve_lanes`] from the committed set, the chunks spread
//! over the rayon shim's pool with pooled solvers. Every lane is
//! bit-identical to the single solve of its set (see
//! `vom_diffusion::solver`), and the candidate order alone fixes how
//! chunks are formed, so selections and tick charges are the same at
//! every pool width. Work that evaluates one set — the committed set's
//! row, CELF re-evaluations and commits — uses plain [`Solver::solve`].

use crate::celf::celf_greedy;
use crate::greedy::Competitors;
use crate::phases::{self, CostMeter, Phase, PhaseLocal};
use crate::problem::Problem;
use rayon::prelude::*;
use std::sync::Arc;
use vom_diffusion::{SolveOptions, SolverPool, LANES};
use vom_graph::Node;
use vom_voting::{
    CopelandAccumulator, CopelandScratch, PositionalAccumulator, RankIndex, ScoringFunction,
};

#[cfg(doc)]
use vom_diffusion::Solver;

/// Exact greedy selection.
///
/// * Cumulative score: CELF lazy greedy (valid by Theorem 3's
///   submodularity), each evaluation one exact FJ solve.
/// * Plurality variants / Copeland: plain greedy over all candidates —
///   but scored **incrementally**: each iteration fixes a baseline (the
///   current seed set's opinions and their per-user contributions, held
///   in a rank-indexed accumulator), and a candidate evaluation
///   re-scores only the users its diffusion run actually moved
///   (`O(t·m + n + Δ·log r)` instead of the naive `O(t·m + n·r)`).
///   Plurality/p-approval totals are integer-valued, so the delta
///   evaluation is bit-identical to a full rescore; Copeland nets are
///   exact `i64` counts, likewise identical.
///
/// Each iteration's trials run in lanes (see the module docs): one
/// [`Solver::solve_lanes`] per 8-candidate chunk, each lane copied into
/// the worker's row buffer and scored like a single solve's row.
///
/// `comp` carries the exact competitor opinions and their rank index;
/// it must be `Some` for the competitive scores (the prepared index
/// caches both) and is ignored for the cumulative score. `pool` is the
/// caller's solver scratch: the prepared index threads its session's
/// [`SolverPool`] here so solver buffers survive across the
/// `(k, trial)` loop and across queries.
///
/// A `meter` is charged one tick per solver step of a single solve, one
/// tick per lane per sweep of a batched solve (possibly from parallel
/// workers — commutative, so schedule-independent), plus one tick per
/// scored candidate. Exhaustion is checked only at sequential seed
/// boundaries (the CELF pop loop / the per-iteration head), so a metered
/// run stopped early returns a bit-identical prefix of the unmetered
/// selection; individual solves always run to completion.
///
/// Returns exactly `min(k, n - |fixed|)` seeds, in selection order.
pub fn dm_greedy(
    problem: &Problem<'_>,
    comp: Option<Competitors<'_>>,
    pool: &SolverPool,
    meter: Option<&CostMeter>,
) -> Vec<Node> {
    if matches!(problem.score, ScoringFunction::Cumulative) {
        return dm_greedy_masked_cumulative(problem, None, pool, meter);
    }
    let score = &problem.score;
    let comp = comp.expect("competitive DM greedy needs competitor opinions");
    let cand = problem.instance.candidate(problem.target);
    let system = Arc::clone(cand.system());
    let n = problem.num_nodes();
    let horizon = problem.horizon;

    // The target's pre-committed seeds participate in every evaluation.
    let mut seeds = cand.fixed_seeds.clone();
    let mut is_seed = vec![false; n];
    for &s in &seeds {
        is_seed[s as usize] = true;
    }
    let index = comp.ranks;
    let mut picked = Vec::with_capacity(problem.k);
    let mut base_row: Vec<f64> = Vec::with_capacity(n);
    let mut trials: Vec<Node> = Vec::with_capacity(n);
    let mut evals: Vec<(Node, f64, f64)> = Vec::with_capacity(n);
    for _ in 0..problem.k {
        // Sequential checkpoint: every parallel trial charge from
        // the previous iteration has been joined, so stopping here is
        // schedule-independent and leaves `picked` a prefix of the
        // full-budget selection.
        if meter.is_some_and(|m| m.exhausted()) {
            break;
        }
        // Fix this iteration's baseline: the committed seeds' exact
        // opinions and their per-user score state.
        {
            let mut solver = pool.checkout(&system);
            phases::timed(Phase::Diffusion, || {
                solver.solve(&seeds, &SolveOptions::exact(horizon), meter);
            });
            base_row.clear();
            base_row.extend_from_slice(solver.opinions());
        }
        let baseline = phases::timed(Phase::Scoring, || {
            DmBaseline::build(score, index, &base_row)
        });
        trials.clear();
        trials.extend((0..n as Node).filter(|&v| !is_seed[v as usize]));
        evals.clear();
        trials
            .par_chunks(LANES)
            .map_init(
                || {
                    (
                        pool.checkout(&system),
                        Vec::with_capacity(n),
                        CopelandScratch::default(),
                        // Phase times batch locally and flush to the
                        // shared counters once per worker.
                        PhaseLocal::default(),
                    )
                },
                // Per-worker scratch (determinism contract: each lane is
                // fully determined by the trial set, the row buffer is
                // overwritten per lane, and the Copeland scratch is
                // epoch-reset, so results are independent of which
                // worker evaluates which chunk).
                |(solver, row, cscratch, local), chunk| {
                    if let Some(m) = meter {
                        m.charge(chunk.len() as u64); // one tick per scored candidate
                    }
                    local.timed(Phase::Diffusion, || {
                        solver.solve_lanes(&seeds, chunk, horizon, meter)
                    });
                    let mut scored = [(0, 0.0, 0.0); LANES];
                    for (lane, (&v, out)) in chunk.iter().zip(&mut scored).enumerate() {
                        local.timed(Phase::Scoring, || {
                            solver.copy_lane(lane, row);
                            let s = baseline.score_row(index, &base_row, row, cscratch);
                            // Secondary tie-break criterion: the discrete
                            // rank scores are flat almost everywhere.
                            let cum: f64 = row.iter().sum();
                            *out = (v, s, cum);
                        });
                    }
                    (scored, chunk.len())
                },
            )
            .for_each(|(scored, len)| evals.extend_from_slice(&scored[..len]));
        let Some(&(best, _, _)) = evals.iter().max_by(|a, b| {
            // `total_cmp` keeps the argmax total (a NaN score
            // orders deterministically instead of panicking);
            // identical to the tuple `partial_cmp` on every
            // finite trajectory — digest pins unchanged.
            a.1.total_cmp(&b.1)
                .then_with(|| a.2.total_cmp(&b.2))
                .then_with(|| b.0.cmp(&a.0))
        }) else {
            break;
        };
        is_seed[best as usize] = true;
        seeds.push(best);
        picked.push(best);
    }
    picked
}

/// One DM greedy iteration's frozen scoring baseline: the committed
/// seeds' per-user contributions, so a candidate evaluation pays only
/// for the users its diffusion run moved.
enum DmBaseline {
    Positional {
        acc: PositionalAccumulator,
        total: f64,
        /// Whether baseline+delta scoring equals a full rescore bit for
        /// bit: true for plurality / p-approval, whose contributions are
        /// unit-valued (sums of small integers are exact in f64).
        /// Fractional positional weights re-sum from scratch instead —
        /// still through the rank index (`O(n·log r)`), and in the same
        /// user order as `score_with_target_row`, so the result is
        /// bit-identical to the historical evaluation either way.
        exact_delta: bool,
    },
    Copeland(CopelandAccumulator),
}

impl DmBaseline {
    fn build(score: &ScoringFunction, index: &RankIndex, base_row: &[f64]) -> DmBaseline {
        match score {
            ScoringFunction::Copeland => {
                DmBaseline::Copeland(CopelandAccumulator::new(index, base_row))
            }
            _ => {
                let mut acc = PositionalAccumulator::new(score, base_row.len());
                for (v, &b) in base_row.iter().enumerate() {
                    acc.set_user(index, v as Node, b, 1.0);
                }
                let total = acc.total();
                let exact_delta = matches!(
                    score,
                    ScoringFunction::Plurality | ScoringFunction::PApproval { .. }
                );
                DmBaseline::Positional {
                    acc,
                    total,
                    exact_delta,
                }
            }
        }
    }

    /// `F(B, c_q)` for a candidate's opinion row — bit-identical to
    /// [`crate::greedy::score_with_target_row`] for every score family:
    /// baseline + changed-user deltas where that is exact (unit-weight
    /// plurality variants, Copeland's `i64` nets), a rank-indexed fresh
    /// sum otherwise.
    fn score_row(
        &self,
        index: &RankIndex,
        base_row: &[f64],
        row: &[f64],
        cscratch: &mut CopelandScratch,
    ) -> f64 {
        match self {
            DmBaseline::Positional {
                acc,
                total,
                exact_delta,
            } => {
                if !exact_delta {
                    // Fresh user-order sum: same terms, same IEEE order
                    // as the full rescore (weights are 1.0, so the
                    // accumulator's products are the raw ω values).
                    return (0..row.len() as Node)
                        .map(|v| acc.preview(index, v, row[v as usize]))
                        .sum();
                }
                let mut s = *total;
                for (v, (&new, &old)) in row.iter().zip(base_row).enumerate() {
                    if new != old {
                        let v = v as Node;
                        s += acc.preview(index, v, new) - acc.contribution(v);
                    }
                }
                s
            }
            DmBaseline::Copeland(acc) => {
                let moves = row
                    .iter()
                    .zip(base_row)
                    .enumerate()
                    .filter(|(_, (new, old))| new != old)
                    .map(|(v, (&new, _))| (v as Node, new));
                acc.preview_wins(index, moves, cscratch) as f64
            }
        }
    }
}

/// Exact CELF greedy maximization of the cumulative sum
/// `Σ_v b_qv^{(t)}[S]`, restricted to the users in `mask` when one is
/// given — DM's engine for the cumulative score (no mask, Theorem 3)
/// and for the sandwich lower bound `LB(S)` (Definition 3). Either sum
/// is submodular by Theorem 3 (a sum of submodular per-user opinions),
/// so CELF applies. Each evaluation is one exact FJ solve: the heap fill
/// scans every candidate in lanes (fixed 8-node chunks of the candidate
/// list, one [`Solver::solve_lanes`] each), re-evaluations and commits
/// are plain solves. `pool` and `meter` are as in [`dm_greedy`].
pub fn dm_greedy_masked_cumulative(
    problem: &Problem<'_>,
    mask: Option<&[bool]>,
    pool: &SolverPool,
    meter: Option<&CostMeter>,
) -> Vec<Node> {
    let cand = problem.instance.candidate(problem.target);
    let system = Arc::clone(cand.system());
    let n = problem.num_nodes();
    let horizon = problem.horizon;
    let opts = SolveOptions::exact(horizon);
    let objective = |row: &[f64]| masked_sum(row.iter().copied(), mask);
    let mut is_seed = vec![false; n];
    for &s in &cand.fixed_seeds {
        is_seed[s as usize] = true;
    }
    // CELF closures share the growing seed list, the pooled solver and
    // the cached current objective.
    let seeds = cand.fixed_seeds.clone();
    let mut solver = pool.checkout(&system);
    let cur = phases::timed(Phase::Diffusion, || {
        solver.solve(&seeds, &opts, meter);
        objective(solver.opinions())
    });
    let state = std::cell::RefCell::new((seeds, solver, cur));
    celf_greedy(
        n,
        problem.k,
        meter,
        |nodes, gains| {
            let (ref mut s, ref mut solver, cur) = *state.borrow_mut();
            if let [v] = *nodes {
                // A CELF re-evaluation: one plain solve.
                gains[0] = if is_seed[v as usize] {
                    f64::NEG_INFINITY
                } else {
                    s.push(v);
                    let total = phases::timed(Phase::Diffusion, || {
                        solver.solve(s, &opts, meter);
                        objective(solver.opinions())
                    });
                    s.pop();
                    total - cur
                };
                return;
            }
            // The heap fill: every candidate, in lanes.
            let base: &[Node] = s;
            let mut out = gains.chunks_mut(LANES);
            nodes
                .par_chunks(LANES)
                .map_init(
                    || {
                        (
                            pool.checkout(&system),
                            Vec::with_capacity(LANES),
                            PhaseLocal::default(),
                        )
                    },
                    |(solver, extras, local), chunk| {
                        let mut chunk_gains = [f64::NEG_INFINITY; LANES];
                        extras.clear();
                        extras.extend(chunk.iter().filter(|&&v| !is_seed[v as usize]));
                        if extras.is_empty() {
                            return chunk_gains;
                        }
                        local.timed(Phase::Diffusion, || {
                            solver.solve_lanes(base, extras, horizon, meter);
                            let mut lanes = 0..extras.len();
                            for (g, &v) in chunk_gains.iter_mut().zip(chunk) {
                                if !is_seed[v as usize] {
                                    let lane = lanes.next().expect("one lane per trial");
                                    *g = masked_sum(solver.lane(lane), mask) - cur;
                                }
                            }
                        });
                        chunk_gains
                    },
                )
                .for_each(|chunk_gains| {
                    let dst = out.next().expect("one gain slot per chunk");
                    dst.copy_from_slice(&chunk_gains[..dst.len()]);
                });
        },
        |v| {
            let (ref mut s, ref mut solver, ref mut cur) = *state.borrow_mut();
            s.push(v);
            *cur = phases::timed(Phase::Diffusion, || {
                solver.solve(s, &opts, meter);
                objective(solver.opinions())
            });
        },
    )
}

/// `Σ_v b_v` over the users in `mask` (all users without one), folded
/// in node order — so a lane and the equivalent single solve's row sum
/// to the same bits.
fn masked_sum(row: impl Iterator<Item = f64>, mask: Option<&[bool]>) -> f64 {
    match mask {
        None => row.sum(),
        Some(mask) => row.zip(mask).filter(|(_, &m)| m).map(|(b, _)| b).sum(),
    }
}

/// [`dm_greedy`] with locally built competitor artifacts and fresh
/// solver scratch: the unit tests' stand-in for a prepared index.
#[cfg(test)]
pub(crate) fn dm_greedy_unprepared(problem: &Problem<'_>) -> Vec<Node> {
    let others = problem.non_target_opinions();
    let ranks = RankIndex::build(&others, problem.target);
    let comp = Competitors {
        matrix: &others,
        ranks: &ranks,
    };
    dm_greedy(problem, Some(comp), &SolverPool::new(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vom_diffusion::{Instance, OpinionMatrix};
    use vom_graph::builder::graph_from_edges;

    fn instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        // The paper's stated competitor opinions at t=1
        // (0.35/0.75/0.78/0.90) are not exactly reachable from any valid
        // B₂⁰; the row below yields 0.35/0.75/0.775/0.90, preserving
        // every Table I comparison.
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    #[test]
    fn dm_cumulative_matches_table1_best() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let seeds = dm_greedy_unprepared(&p);
        assert_eq!(seeds, vec![0], "node 0 gives cumulative 3.30");
        // Second seed: node 2 (paper user 3) has marginal gain 0.45
        // (score 3.75), beating node 1's 0.25 ({1,2} in Table I: 3.55 —
        // the table does not enumerate all pairs).
        let p2 = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative).unwrap();
        let seeds2 = dm_greedy_unprepared(&p2);
        assert_eq!(seeds2, vec![0, 2]);
        assert!((p2.exact_score(&seeds2) - 3.75).abs() < 1e-12);
    }

    #[test]
    fn dm_plurality_matches_table1_best() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let seeds = dm_greedy_unprepared(&p);
        assert_eq!(seeds, vec![2], "node 2 lifts plurality to 4");
        assert_eq!(p.exact_score(&seeds), 4.0);
    }

    #[test]
    fn dm_copeland_finds_condorcet_seed() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Copeland).unwrap();
        let seeds = dm_greedy_unprepared(&p);
        assert_eq!(p.exact_score(&seeds), 1.0);
    }

    #[test]
    fn dm_respects_fixed_seeds() {
        let mut inst = instance();
        inst.candidate_mut(0).fixed_seeds = vec![0];
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let seeds = dm_greedy_unprepared(&p);
        assert_eq!(seeds.len(), 1);
        assert_ne!(seeds[0], 0, "fixed seeds are not re-selected");
    }

    #[test]
    fn dm_greedy_is_optimal_for_single_seed_by_exhaustion() {
        let inst = instance();
        for score in [
            ScoringFunction::Cumulative,
            ScoringFunction::Plurality,
            ScoringFunction::PApproval { p: 2 },
            ScoringFunction::Copeland,
        ] {
            let p = Problem::new(&inst, 0, 1, 1, score.clone()).unwrap();
            let greedy_score = p.exact_score(&dm_greedy_unprepared(&p));
            let best = (0..4)
                .map(|v| p.exact_score(&[v]))
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(greedy_score, best, "{score}");
        }
    }

    /// The delta evaluation must reproduce the full rescore exactly for
    /// every score family, across multi-seed selections.
    #[test]
    fn dm_delta_scoring_matches_full_rescore() {
        use crate::greedy::score_with_target_row;
        let inst = instance();
        for score in [
            ScoringFunction::Plurality,
            ScoringFunction::PApproval { p: 2 },
            ScoringFunction::PositionalPApproval {
                p: 2,
                weights: vec![1.0, 0.3],
            },
            ScoringFunction::Copeland,
        ] {
            let p = Problem::new(&inst, 0, 2, 1, score.clone()).unwrap();
            let others = p.non_target_opinions();
            let index = RankIndex::build(&others, 0);
            let base_row: Vec<f64> = p.opinions(&[]).row(0).to_vec();
            let baseline = DmBaseline::build(&score, &index, &base_row);
            let mut scratch = CopelandScratch::default();
            for v in 0..4 {
                let row: Vec<f64> = p.opinions(&[v]).row(0).to_vec();
                let fast = baseline.score_row(&index, &base_row, &row, &mut scratch);
                let slow = score_with_target_row(&score, &others, 0, &row);
                assert_eq!(fast.to_bits(), slow.to_bits(), "{score} seed {v}");
            }
        }
    }
}
