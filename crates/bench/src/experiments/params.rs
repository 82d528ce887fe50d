//! Figures 15–16: sensitivity to the estimation parameters ε (RS) and
//! ρ (RW).

use crate::{secs, ExpConfig, Result, Table};
use vom_core::rs::RsConfig;
use vom_core::rw::RwConfig;
use vom_core::{Engine, Problem, SeedSelector, SelectionMode};
use vom_datasets::{twitter_distancing_like, twitter_election_like, ReplicaParams};
use vom_voting::ScoringFunction;

/// Figure 15: cumulative score and time vs ε for RS on
/// Twitter-US-Election. Larger ε → fewer sketches → faster but less
/// accurate; the paper picks ε = 0.1.
pub fn run_epsilon(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    let ds = twitter_election_like(&params);
    let k = cfg.default_k().min(ds.instance.num_nodes() / 10).max(1);
    let problem = Problem::new(
        &ds.instance,
        ds.default_target,
        k,
        cfg.default_t(),
        ScoringFunction::Cumulative,
    )?;
    let mut table = Table::new(
        "fig15",
        "cumulative score and time vs epsilon for RS (paper Figure 15)",
        &["epsilon", "theta", "score", "time_s"],
    );
    for epsilon in [0.05, 0.1, 0.2, 0.3] {
        let rs_cfg = RsConfig {
            epsilon,
            seed: cfg.seed,
            ..RsConfig::default()
        };
        let theta = vom_core::rs::choose_theta(&problem, &rs_cfg);
        let res = Engine::Rs(rs_cfg).select_once(&problem, SelectionMode::Plain)?;
        table.row(vec![
            format!("{epsilon}"),
            theta.to_string(),
            format!("{:.2}", res.exact_score),
            secs(res.elapsed),
        ]);
    }
    table.emit(&cfg.out_dir);
    Ok(())
}

/// Figure 16: plurality score and time vs ρ for RW on
/// Twitter-Social-Distancing. Larger ρ → more walks per node → slower but
/// more accurate; the paper picks ρ = 0.9.
pub fn run_rho(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: (cfg.scale * 0.6).max(0.0005),
        seed: cfg.seed,
        mu: 10.0,
    };
    let ds = twitter_distancing_like(&params);
    let k = cfg.default_k().min(ds.instance.num_nodes() / 10).max(1);
    let problem = Problem::new(
        &ds.instance,
        ds.default_target,
        k,
        cfg.default_t(),
        ScoringFunction::Plurality,
    )?;
    let mut table = Table::new(
        "fig16",
        "plurality score and time vs rho for RW (paper Figure 16)",
        &["rho", "score", "time_s"],
    );
    for rho in [0.75, 0.80, 0.85, 0.90, 0.95] {
        let rw_cfg = RwConfig {
            rho,
            seed: cfg.seed,
            ..RwConfig::default()
        };
        let res = Engine::Rw(rw_cfg).select_once(&problem, SelectionMode::Plain)?;
        table.row(vec![
            format!("{rho}"),
            format!("{:.2}", res.exact_score),
            secs(res.elapsed),
        ]);
    }
    table.emit(&cfg.out_dir);
    Ok(())
}
