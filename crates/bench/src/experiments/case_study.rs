//! Table IV / Figure 4: the ACM-general-election case study.

use crate::{ExpConfig, Result, Table};
use vom_core::rs::RsConfig;
use vom_core::{Engine, Problem, SeedSelector, SelectionMode};
use vom_datasets::case_study::DOMAINS;
use vom_datasets::{acm_case_study, ReplicaParams};
use vom_voting::ScoringFunction;

/// Selects the top seeds for the trailing candidate and reports, per
/// research domain, the voters before/after seeding plus where the top-10
/// seeds act — the paper's headline: 100 seeds flip the election.
pub fn run(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale.max(0.02),
        seed: cfg.seed,
        mu: 10.0,
    };
    let cs = acm_case_study(&params);
    let inst = &cs.dataset.instance;
    let n = inst.num_nodes();
    let k = cfg.default_k().min(n / 10).max(1);
    let t = cfg.default_t();
    let problem = Problem::new(inst, 0, k, t, ScoringFunction::Plurality)?;
    let method = Engine::Rs(RsConfig {
        seed: cfg.seed,
        ..RsConfig::default()
    });
    let res = method.select_once(&problem, SelectionMode::Auto)?;

    let before = inst.opinions_at(t, 0, &[]);
    let after = inst.opinions_at(t, 0, &res.seeds);
    let favors = |b: &vom_diffusion::OpinionMatrix, v: u32| b.get(0, v) > b.get(1, v);

    let total_before = (0..n as u32).filter(|&v| favors(&before, v)).count();
    let total_after = (0..n as u32).filter(|&v| favors(&after, v)).count();

    let mut table = Table::new(
        "table4",
        "ACM election case study: voters for the target per domain (paper Table IV / Fig. 4)",
        &[
            "domain",
            "#users",
            "voting before",
            "before %",
            "voting after",
            "after %",
            "top-10 seeds in domain",
        ],
    );
    for (d, name) in DOMAINS.iter().enumerate() {
        let members = cs.domain_members(d);
        let before_cnt = members.iter().filter(|&&v| favors(&before, v)).count();
        let after_cnt = members.iter().filter(|&&v| favors(&after, v)).count();
        let seeds_in = res
            .seeds
            .iter()
            .take(10)
            .filter(|&&s| cs.user_domains[s as usize].contains(&(d as u8)))
            .count();
        let pct = |c: usize| {
            if members.is_empty() {
                "0.0".to_string()
            } else {
                format!("{:.1}", 100.0 * c as f64 / members.len() as f64)
            }
        };
        table.row(vec![
            name.to_string(),
            members.len().to_string(),
            before_cnt.to_string(),
            pct(before_cnt),
            after_cnt.to_string(),
            pct(after_cnt),
            seeds_in.to_string(),
        ]);
    }
    table.row(vec![
        "TOTAL".into(),
        n.to_string(),
        total_before.to_string(),
        format!("{:.1}", 100.0 * total_before as f64 / n as f64),
        total_after.to_string(),
        format!("{:.1}", 100.0 * total_after as f64 / n as f64),
        format!("k={k}"),
    ]);
    table.emit(&cfg.out_dir);
    Ok(())
}
