//! Figure 11: expected influence spread (IC/LT) of RW's voting-score
//! seeds vs IMM's seeds.

use crate::{ExpConfig, Result, Table};
use std::sync::Arc;
use vom_baselines::{expected_spread, imm_seeds, CascadeModel, ImmConfig};
use vom_core::engine::{QuerySession, SeedSelector};
use vom_core::rw::RwConfig;
use vom_core::{Engine, Problem, Query};
use vom_datasets::{twitter_mask_like, ReplicaParams};
use vom_voting::ScoringFunction;

/// Compares the EIS of RW-selected seeds (under each of the three main
/// voting scores) against IMM's own seeds — the paper's point: our seeds
/// reach over 80% of IMM's spread despite optimizing a different
/// objective. The RW engine prepares once; the three voting scores are
/// three queries.
pub fn run(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    let ds = twitter_mask_like(&params);
    let g = ds.instance.graph_of(ds.default_target);
    let k = cfg.default_k().min(ds.instance.num_nodes() / 10).max(1);
    let sims = if cfg.quick { 200 } else { 2_000 };
    let mut table = Table::new(
        "fig11",
        "expected influence spread of seed sets under IC and LT (paper Figure 11)",
        &["seeds from", "EIS under IC", "EIS under LT"],
    );
    let emit = |label: &str, seeds: &[vom_graph::Node], table: &mut Table| {
        let ic = expected_spread(g, CascadeModel::IndependentCascade, seeds, sims, cfg.seed);
        let lt = expected_spread(g, CascadeModel::LinearThreshold, seeds, sims, cfg.seed);
        table.row(vec![
            label.to_string(),
            format!("{ic:.1}"),
            format!("{lt:.1}"),
        ]);
    };
    let spec = Problem::new(
        &ds.instance,
        ds.default_target,
        k,
        cfg.default_t(),
        ScoringFunction::Cumulative,
    )?;
    let engine = Engine::Rw(RwConfig {
        seed: cfg.seed,
        ..RwConfig::default()
    });
    let mut session = QuerySession::new(Arc::new(engine.prepare_index(&spec)?));
    for (label, score) in [
        ("RW (cumulative)", ScoringFunction::Cumulative),
        ("RW (plurality)", ScoringFunction::Plurality),
        ("RW (copeland)", ScoringFunction::Copeland),
    ] {
        let query = Query::plain(k, score, ds.default_target);
        let seeds = session.select(&query)?.seeds;
        emit(label, &seeds, &mut table);
    }
    let imm_cfg = ImmConfig {
        seed: cfg.seed,
        max_rr_sets: 400_000,
        ..ImmConfig::default()
    };
    let ic_seeds = imm_seeds(g, CascadeModel::IndependentCascade, k, &imm_cfg);
    emit("IMM (IC)", &ic_seeds, &mut table);
    let lt_seeds = imm_seeds(g, CascadeModel::LinearThreshold, k, &imm_cfg);
    emit("IMM (LT)", &lt_seeds, &mut table);
    table.emit(&cfg.out_dir);
    Ok(())
}
