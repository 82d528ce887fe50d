//! **RW** — random-walk-based greedy seed selection (Algorithm 4).

use crate::problem::Problem;
use vom_diffusion::OpinionMatrix;
use vom_walks::lambda::{estimate_gamma_star, lambda_cumulative, lambda_from_gammas, GammaConfig};
use vom_walks::{Lambda, WalkArena, WalkGenerator};

/// Parameters of the RW method (paper defaults: `ρ = 0.9`, `δ = 0.1`).
#[derive(Debug, Clone)]
pub struct RwConfig {
    /// Per-estimate success probability ρ (Theorems 10–12).
    pub rho: f64,
    /// Accuracy δ of each opinion estimate (Theorem 10).
    pub delta: f64,
    /// Lower clamp for the γ* heuristic (§V-C).
    pub gamma_floor: f64,
    /// Cap on per-node walk counts for the γ-based bounds (memory guard).
    pub max_lambda: usize,
    /// RNG seed.
    pub seed: u64,
    /// Pilot budget for the γ* estimation (§V-C). `None` derives it from
    /// the selection budget as `min(k, 32)` — γ* stabilizes quickly, so
    /// the pilot is capped. Pin an explicit value to make the walk arena
    /// independent of the prepared budget (the artifact-reuse equivalence
    /// suite relies on this).
    pub gamma_pilot: Option<usize>,
}

impl Default for RwConfig {
    fn default() -> Self {
        RwConfig {
            rho: 0.9,
            delta: 0.1,
            gamma_floor: 0.05,
            max_lambda: 2_000,
            seed: 0x5EED_5EED,
            gamma_pilot: None,
        }
    }
}

/// Generates the Theorem 10 uniform-λ arena (the cumulative-score
/// artifact).
pub(crate) fn uniform_arena(problem: &Problem<'_>, cfg: &RwConfig) -> WalkArena {
    let cand = problem.instance.candidate(problem.target);
    let gen = WalkGenerator::new(&cand.graph, &cand.stubbornness, problem.horizon);
    let lambda = Lambda::Uniform(lambda_cumulative(cfg.delta, cfg.rho));
    crate::engine::count_rw_arena_build();
    gen.generate_per_node(&lambda, cfg.seed)
}

/// Runs the γ* pilot (§V-C) for the competitive scores. `budget` is the
/// selection budget the pilot depth derives from (overridden by
/// [`RwConfig::gamma_pilot`]); `others` are the exact competitor opinions
/// at the horizon.
pub(crate) fn competitive_gammas(
    problem: &Problem<'_>,
    cfg: &RwConfig,
    budget: usize,
    others: &OpinionMatrix,
) -> Vec<f64> {
    let cand = problem.instance.candidate(problem.target);
    let rows: Vec<&[f64]> = (0..others.num_candidates())
        .filter(|&x| x != problem.target)
        .map(|x| others.row(x))
        .collect();
    let gcfg = GammaConfig {
        alpha: lambda_cumulative(cfg.delta, cfg.rho),
        // γ* stabilizes quickly; cap the pilot.
        k: cfg.gamma_pilot.unwrap_or_else(|| budget.min(32)),
        floor: cfg.gamma_floor,
        seed: cfg.seed ^ 0xA5A5,
    };
    estimate_gamma_star(
        &cand.graph,
        &cand.stubbornness,
        &cand.initial,
        &rows,
        problem.horizon,
        &gcfg,
    )
}

/// Generates the γ*-based per-node-λ arena (Theorems 11–12 + Eq. 33) for
/// a competitive rule class.
pub(crate) fn competitive_arena(
    problem: &Problem<'_>,
    cfg: &RwConfig,
    gammas: &[f64],
    copeland: bool,
) -> WalkArena {
    let cand = problem.instance.candidate(problem.target);
    let gen = WalkGenerator::new(&cand.graph, &cand.stubbornness, problem.horizon);
    let lambda = lambda_from_gammas(gammas, cfg.rho, copeland, cfg.max_lambda);
    crate::engine::count_rw_arena_build();
    gen.generate_per_node(&lambda, cfg.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SeedSelector, SelectionMode};
    use std::sync::Arc;
    use vom_diffusion::Instance;
    use vom_graph::builder::graph_from_edges;
    use vom_graph::Node;
    use vom_voting::ScoringFunction;

    fn instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    /// Plain RW greedy (Algorithm 4) for `p`: seeds and arena bytes.
    fn plain_rw(p: &Problem<'_>, cfg: RwConfig) -> (Vec<Node>, usize) {
        let res = Engine::Rw(cfg)
            .select_once(p, SelectionMode::Plain)
            .unwrap();
        (res.seeds, res.estimator_heap_bytes)
    }

    #[test]
    fn rw_cumulative_matches_dm_choice() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        // Paper defaults give λ = 150 which is plenty on 4 nodes (the
        // gaps between candidate gains are >= 0.25).
        let cfg = RwConfig {
            seed: 99,
            ..RwConfig::default()
        };
        let (seeds, bytes) = plain_rw(&p, cfg);
        assert_eq!(seeds, vec![0]);
        assert!(bytes > 0);
    }

    #[test]
    fn rw_plurality_matches_dm_choice() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let (seeds, _) = plain_rw(&p, RwConfig::default());
        assert_eq!(seeds, vec![2]);
    }

    #[test]
    fn rw_copeland_reaches_condorcet() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Copeland).unwrap();
        let (seeds, _) = plain_rw(&p, RwConfig::default());
        assert_eq!(p.exact_score(&seeds), 1.0, "seeds {seeds:?}");
    }

    #[test]
    fn rw_build_uses_per_node_lambda_for_rank_scores() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let cfg = RwConfig::default();
        let gammas = competitive_gammas(&p, &cfg, p.k, &p.non_target_opinions());
        let arena = competitive_arena(&p, &cfg, &gammas, false);
        assert!(arena.has_groups());
        // γ-based counts differ across nodes (gaps differ).
        let lens: Vec<usize> = (0..4)
            .map(|v| arena.group_range(v).unwrap().len())
            .collect();
        assert!(lens.iter().any(|&l| l != lens[0]), "{lens:?}");
    }
}
