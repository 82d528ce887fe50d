//! Baseline behaviour on the replicas: our methods dominate the
//! centrality/IM baselines on voting scores (the Figures 6–8 claim), and
//! GED-T coincides with DM on the cumulative score only.

use vom::baselines::{
    degree_centrality_seeds, expected_spread, gedt_seeds, imm_seeds, pagerank_seeds, rwr_seeds,
    CascadeModel, ImmConfig,
};
use vom::core::dm::dm_greedy;
use vom::core::{Engine, Problem, SeedSelector, SelectionMode};
use vom::datasets::{dblp_like, twitter_mask_like, ReplicaParams};
use vom::diffusion::SolverPool;
use vom::voting::ScoringFunction;

fn params() -> ReplicaParams {
    ReplicaParams::at_scale(0.003, 55)
}

#[test]
fn gedt_equals_dm_on_cumulative_but_not_plurality() {
    let ds = dblp_like(&params());
    let cum = Problem::new(&ds.instance, 0, 10, 10, ScoringFunction::Cumulative).unwrap();
    let dm = dm_greedy(&cum, None, &SolverPool::new(), None);
    assert_eq!(gedt_seeds(&cum), dm, "identical on cumulative");

    let plu = Problem::new(&ds.instance, 0, 10, 10, ScoringFunction::Plurality).unwrap();
    let gedt_score = plu.exact_score(&gedt_seeds(&plu));
    let ours = Engine::rs_default()
        .select_once(&plu, SelectionMode::Auto)
        .unwrap()
        .exact_score;
    // GED-T runs exact CELF; our RS runs on sketch estimates, so allow a
    // small estimation margin (the paper's gap is in our favor at scale).
    assert!(
        ours >= 0.95 * gedt_score,
        "our plurality selection ({ours}) fell far below GED-T ({gedt_score})"
    );
}

#[test]
fn our_methods_beat_centrality_baselines_on_plurality() {
    let ds = twitter_mask_like(&params());
    let g = ds.instance.graph_of(0);
    let k = 20;
    let p = Problem::new(&ds.instance, 0, k, 10, ScoringFunction::Plurality).unwrap();
    let ours = Engine::rs_default()
        .select_once(&p, SelectionMode::Auto)
        .unwrap()
        .exact_score;
    for (name, seeds) in [
        ("PR", pagerank_seeds(g, k)),
        ("RWR", rwr_seeds(g, k)),
        ("DC", degree_centrality_seeds(g, k)),
    ] {
        let baseline = p.exact_score(&seeds);
        // Allow a 2% sampling-noise margin at this small replica scale.
        assert!(
            ours >= 0.98 * baseline,
            "{name}: baseline {baseline} beat ours {ours} by more than noise"
        );
    }
}

#[test]
fn imm_seeds_have_competitive_spread_but_lower_voting_score() {
    let ds = twitter_mask_like(&params());
    let g = ds.instance.graph_of(0);
    let k = 10;
    let cfg = ImmConfig {
        max_rr_sets: 50_000,
        ..ImmConfig::default()
    };
    let ic = imm_seeds(g, CascadeModel::IndependentCascade, k, &cfg);
    assert_eq!(ic.len(), k);

    // IMM's own objective: its spread should beat a random-ish baseline
    // (PageRank seeds) under IC.
    let pr = pagerank_seeds(g, k);
    let spread_imm = expected_spread(g, CascadeModel::IndependentCascade, &ic, 400, 9);
    let spread_pr = expected_spread(g, CascadeModel::IndependentCascade, &pr, 400, 9);
    assert!(
        spread_imm >= spread_pr,
        "IMM spread {spread_imm} below PR spread {spread_pr}"
    );

    // Figure 11's flip side: our voting-score seeds retain most of the
    // spread. RW seeds on the cumulative score vs IMM's.
    let p = Problem::new(&ds.instance, 0, k, 10, ScoringFunction::Cumulative).unwrap();
    let ours = Engine::rw_default()
        .select_once(&p, SelectionMode::Auto)
        .unwrap()
        .seeds;
    let spread_ours = expected_spread(g, CascadeModel::IndependentCascade, &ours, 400, 9);
    assert!(
        spread_ours >= 0.5 * spread_imm,
        "our spread {spread_ours} collapsed vs IMM {spread_imm}"
    );
}

#[test]
fn lt_and_ic_imm_both_return_plausible_hubs() {
    let ds = dblp_like(&params());
    let g = ds.instance.graph_of(0);
    let cfg = ImmConfig {
        max_rr_sets: 50_000,
        ..ImmConfig::default()
    };
    for model in [
        CascadeModel::IndependentCascade,
        CascadeModel::LinearThreshold,
    ] {
        let seeds = imm_seeds(g, model, 5, &cfg);
        assert_eq!(seeds.len(), 5, "{model:?}");
        // Seeds should have above-average out-degree: they are spreaders.
        let mean_deg = g.num_edges() as f64 / g.num_nodes() as f64;
        let seed_deg: f64 = seeds.iter().map(|&s| g.out_degree(s) as f64).sum::<f64>() / 5.0;
        assert!(
            seed_deg >= mean_deg,
            "{model:?}: seed mean degree {seed_deg} below graph mean {mean_deg}"
        );
    }
}
