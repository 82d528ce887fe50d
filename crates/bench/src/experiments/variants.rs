//! Figures 9–10: comparison among the plurality score variants.
//!
//! Build-once lifecycle: all compared rules are competitive, so they share
//! one sketch set — the RS engine prepares **once per dataset** and every
//! rule variant is just a different [`Query`].

use crate::{ExpConfig, Result, Table};
use std::sync::Arc;
use vom_core::engine::{QuerySession, SeedSelector};
use vom_core::rs::RsConfig;
use vom_core::{Engine, Problem, Query};
use vom_datasets::{yelp_like, Dataset, ReplicaParams};
use vom_graph::Node;
use vom_voting::rank::position_histogram;
use vom_voting::ScoringFunction;

fn overlap(a: &[Node], b: &[Node]) -> f64 {
    // audit:allow(d-hash-iter, "membership probe over one side of the overlap; never iterated")
    let set: std::collections::HashSet<_> = a.iter().collect();
    let common = b.iter().filter(|v| set.contains(v)).count();
    common as f64 / a.len().max(1) as f64
}

/// One RS index prepared for the dataset at budget `k`; rule variants
/// are queries on a session over it.
fn prepare_rs(ds: &Dataset, k: usize, t: usize, seed: u64) -> Result<QuerySession> {
    let spec = Problem::new(
        &ds.instance,
        ds.default_target,
        k,
        t,
        ScoringFunction::Plurality,
    )?;
    let engine = Engine::Rs(RsConfig {
        seed,
        ..RsConfig::default()
    });
    Ok(QuerySession::new(Arc::new(engine.prepare_index(&spec)?)))
}

fn select_rule(session: &mut QuerySession, k: usize, rule: ScoringFunction) -> Result<Vec<Node>> {
    let query = Query::new(k, rule, session.index().target());
    Ok(session.select(&query)?.seeds)
}

/// Figure 9: seed-set overlap of positional-p-approval (varying `ω[p]`)
/// against plurality and p-approval, on Yelp.
pub fn run_overlap(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    let ds = yelp_like(&params);
    let r = ds.instance.num_candidates();
    let k = cfg.default_k().min(ds.instance.num_nodes() / 10).max(1);
    let t = cfg.default_t();
    let mut prepared = prepare_rs(&ds, k, t, cfg.seed)?;
    let mut table = Table::new(
        "fig9",
        "seed overlap of positional-p-approval vs plurality and p-approval (paper Figure 9)",
        &[
            "p",
            "omega_p",
            "overlap w/ plurality",
            "overlap w/ p-approval",
        ],
    );
    let plurality = select_rule(&mut prepared, k, ScoringFunction::Plurality)?;
    for p in [2usize, 3] {
        let papproval = select_rule(&mut prepared, k, ScoringFunction::PApproval { p })?;
        for omega_p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut weights = vec![1.0; r];
            weights[p - 1] = omega_p;
            for w in weights.iter_mut().skip(p) {
                *w = 0.0;
            }
            let seeds = select_rule(
                &mut prepared,
                k,
                ScoringFunction::PositionalPApproval { p, weights },
            )?;
            table.row(vec![
                p.to_string(),
                format!("{omega_p:.2}"),
                format!("{:.2}", overlap(&seeds, &plurality)),
                format!("{:.2}", overlap(&seeds, &papproval)),
            ]);
        }
    }
    table.emit(&cfg.out_dir);
    Ok(())
}

/// Figure 10: number of users ranking the target at each position at the
/// horizon, before and after seeding, on Yelp.
pub fn run_positions(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    let ds = yelp_like(&params);
    let k = cfg.default_k().min(ds.instance.num_nodes() / 10).max(1);
    let t = cfg.default_t();
    let mut prepared = prepare_rs(&ds, k, t, cfg.seed)?;
    let mut table = Table::new(
        "fig10",
        "users ranking the target at each position at the horizon (paper Figure 10)",
        &["variant", "pos1", "pos2", "pos3", "pos4+"],
    );
    let mut emit = |label: &str, seeds: &[Node]| {
        let b = ds.instance.opinions_at(t, ds.default_target, seeds);
        let hist = position_histogram(&b, ds.default_target);
        let tail: usize = hist[3..].iter().sum();
        table.row(vec![
            label.to_string(),
            hist[0].to_string(),
            hist[1].to_string(),
            hist[2].to_string(),
            tail.to_string(),
        ]);
    };
    emit("no seeds", &[]);
    for (label, score) in [
        ("plurality", ScoringFunction::Plurality),
        ("2-approval", ScoringFunction::PApproval { p: 2 }),
        ("3-approval", ScoringFunction::PApproval { p: 3 }),
    ] {
        let seeds = select_rule(&mut prepared, k, score)?;
        emit(label, &seeds);
    }
    table.emit(&cfg.out_dir);
    Ok(())
}
