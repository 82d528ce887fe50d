//! **RS** — sketch-based greedy seed selection (Algorithm 5), the
//! paper's ultimately recommended method.

use crate::problem::Problem;
use vom_sketch::opt_bound::{opt_lower_bound, OptBoundConfig};
use vom_sketch::{theta_cumulative, SketchSet};
use vom_voting::ScoringFunction;

/// Parameters of the RS method (paper defaults: `ε = 0.1`, `l = 1`).
#[derive(Debug, Clone)]
pub struct RsConfig {
    /// Accuracy parameter ε of the cumulative-score guarantee
    /// (Theorem 13).
    pub epsilon: f64,
    /// Confidence exponent `l` (failure probability `n^{-l}`).
    pub l: f64,
    /// Explicit θ override. `None` derives θ: the Theorem 13 bound (with
    /// the statistical OPT lower bound) for cumulative, the §VI-E
    /// heuristic default for the competitive scores.
    pub theta_override: Option<usize>,
    /// Cap on θ, bounding sketch memory.
    pub max_theta: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RsConfig {
    fn default() -> Self {
        RsConfig {
            epsilon: 0.1,
            l: 1.0,
            theta_override: None,
            max_theta: 4_000_000,
            seed: 0x5CE7_C4ED,
        }
    }
}

/// The θ the RS selector will use for `problem` under `cfg`.
///
/// For the cumulative score this is Theorem 13's bound seeded with the
/// statistical OPT lower bound (§VI-B). For the plurality variants and
/// Copeland, closed-form θ is impractical (§VI-E), so the default is a
/// convergence-calibrated heuristic: `max(4096, n)` — one expected sample
/// per user, which the Figures 13–14 calibration shows is where the rank
/// scores stabilize on the replicas (the paper likewise finds a converged
/// θ insensitive to `k` and `t`). Benches can calibrate θ explicitly via
/// [`vom_sketch::converge_theta`] and pass it through `theta_override`.
pub fn choose_theta(problem: &Problem<'_>, cfg: &RsConfig) -> usize {
    if let Some(theta) = cfg.theta_override {
        return theta.clamp(1, cfg.max_theta);
    }
    let n = problem.num_nodes();
    match problem.score {
        ScoringFunction::Cumulative => {
            let cand = problem.instance.candidate(problem.target);
            let opt_cfg = OptBoundConfig {
                epsilon: cfg.epsilon,
                l: cfg.l,
                seed: cfg.seed ^ 0x0B7B,
                max_theta: cfg.max_theta,
            };
            let lb = opt_lower_bound(
                &cand.graph,
                &cand.stubbornness,
                &cand.initial,
                problem.horizon,
                problem.k,
                &opt_cfg,
            );
            theta_cumulative(n, problem.k, cfg.epsilon, cfg.l, lb).clamp(1, cfg.max_theta)
        }
        _ => n.max(4096).min(cfg.max_theta),
    }
}

/// Generates a sketch set with an explicit θ (the prepared backend
/// caches sketches per θ).
pub(crate) fn sketch_theta(problem: &Problem<'_>, cfg: &RsConfig, theta: usize) -> SketchSet {
    let cand = problem.instance.candidate(problem.target);
    crate::engine::count_rs_sketch_build();
    SketchSet::generate(
        &cand.graph,
        &cand.stubbornness,
        &cand.initial,
        problem.horizon,
        theta,
        cfg.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SeedSelector, SelectionMode};
    use std::sync::Arc;
    use vom_diffusion::{Instance, OpinionMatrix};
    use vom_graph::builder::graph_from_edges;
    use vom_graph::Node;

    fn instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    /// Plain RS greedy (Algorithm 5) for `p`: seeds and sketch bytes.
    fn plain_rs(p: &Problem<'_>, cfg: &RsConfig) -> (Vec<Node>, usize) {
        let res = Engine::Rs(cfg.clone())
            .select_once(p, SelectionMode::Plain)
            .unwrap();
        (res.seeds, res.estimator_heap_bytes)
    }

    #[test]
    fn theta_override_wins() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let cfg = RsConfig {
            theta_override: Some(777),
            ..RsConfig::default()
        };
        assert_eq!(choose_theta(&p, &cfg), 777);
    }

    #[test]
    fn cumulative_theta_uses_theorem13() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let theta = choose_theta(&p, &RsConfig::default());
        // Tiny graph: OPT lower bound >= k = 1; bound is modest but > 0.
        assert!(theta > 0);
    }

    #[test]
    fn rs_cumulative_matches_dm_choice() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let cfg = RsConfig {
            theta_override: Some(50_000),
            ..RsConfig::default()
        };
        let (seeds, bytes) = plain_rs(&p, &cfg);
        assert_eq!(seeds, vec![0]);
        assert!(bytes > 0);
    }

    #[test]
    fn rs_plurality_matches_dm_choice() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let cfg = RsConfig {
            theta_override: Some(50_000),
            ..RsConfig::default()
        };
        let (seeds, _) = plain_rs(&p, &cfg);
        assert_eq!(seeds, vec![2]);
    }

    #[test]
    fn rs_copeland_reaches_condorcet() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Copeland).unwrap();
        let cfg = RsConfig {
            theta_override: Some(50_000),
            ..RsConfig::default()
        };
        let (seeds, _) = plain_rs(&p, &cfg);
        assert_eq!(p.exact_score(&seeds), 1.0, "seeds {seeds:?}");
    }
}
