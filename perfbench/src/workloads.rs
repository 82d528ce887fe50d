//! The three workloads: their instances, engines and request streams.
//!
//! Each workload is a fixed set of distinct requests against one
//! registered instance. The timed phase replays that set in whole passes
//! (shuffled per pass), so every run serves the same request mix.
//! Why each workload exists is in `perfbench/README.md`.

use vom_baselines::AnyEngine;
use vom_core::engine::{Engine, Query, SelectionMode};
use vom_core::rs::RsConfig;
use vom_core::MethodId;
use vom_datasets::{scale_stress, yelp_like, Dataset, ReplicaParams, ScaleParams};
use vom_service::ServiceRequest;
use vom_voting::ScoringFunction;

/// The diffusion horizon `t` of every request (the paper's default).
pub const HORIZON: usize = 20;

/// The name every workload registers its instance under.
pub const GRAPH: &str = "bench";

/// Seed of every instance and of the engines' sampling (the `repro`
/// default). Both stay fixed across `--seed` values, which only draw the
/// request order: on `yelp-plurality`, a different replica seed changed
/// the throughput by up to 2×, and a different engine seed by up to 1.5×,
/// either of which would drown every regression bound.
pub const SEED: u64 = 2023;

/// The benchmark's workloads (`--workload <name>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// RW and RS plurality queries, auto (sandwich) and plain, on the
    /// Yelp replica.
    YelpPlurality,
    /// Exact DM cumulative queries for several targets on the Yelp
    /// replica.
    YelpDmCumulative,
    /// RS cumulative queries (θ = n) on a 10⁶-node R-MAT instance.
    RmatCumulative,
}

/// Input size: the full workload, or a tiny instance that runs the same
/// code path in about a second (the benchmark's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmarked inputs.
    Full,
    /// Tiny inputs for tests.
    Tiny,
}

impl WorkloadId {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::YelpPlurality,
        WorkloadId::YelpDmCumulative,
        WorkloadId::RmatCumulative,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::YelpPlurality => "yelp-plurality",
            WorkloadId::YelpDmCumulative => "yelp-dm-cumulative",
            WorkloadId::RmatCumulative => "rmat-1m-cumulative",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Selection digest of the warm-up pass (the same at every `--seed`).
    pub fn pinned_digest(self, size: Size) -> u64 {
        match (self, size) {
            (WorkloadId::YelpPlurality, Size::Full) => 0x5069_b94d_a9b3_7bd4,
            (WorkloadId::YelpDmCumulative, Size::Full) => 0x90ee_5918_ecc8_0116,
            (WorkloadId::RmatCumulative, Size::Full) => 0x4c89_2153_8bf1_283b,
            (WorkloadId::YelpPlurality, Size::Tiny) => 0x3b64_8d97_bd5a_0453,
            (WorkloadId::YelpDmCumulative, Size::Tiny) => 0xfdf3_a1fc_9056_4f6c,
            (WorkloadId::RmatCumulative, Size::Tiny) => 0xfa9c_90c7_01dc_2902,
        }
    }

    /// The workload's instance.
    pub fn generate(self, size: Size) -> Dataset {
        match self {
            WorkloadId::YelpPlurality | WorkloadId::YelpDmCumulative => {
                let scale = match size {
                    Size::Full => 0.003,
                    Size::Tiny => 0.0004,
                };
                yelp_like(&ReplicaParams::at_scale(scale, SEED))
            }
            WorkloadId::RmatCumulative => {
                let nodes = match size {
                    Size::Full => 1_000_000,
                    Size::Tiny => 2_000,
                };
                scale_stress(&ScaleParams { nodes, seed: SEED })
            }
        }
    }

    /// The engine the service builds for `method`: the harness's §VIII-B
    /// settings, with RS pinned to θ = n on the R-MAT workload (the
    /// scale-stress configuration).
    pub fn engine(self, method: MethodId, nodes: usize) -> AnyEngine {
        match (self, method) {
            (WorkloadId::RmatCumulative, MethodId::Rs) => AnyEngine::Core(Engine::Rs(RsConfig {
                seed: SEED,
                theta_override: Some(nodes),
                ..RsConfig::default()
            })),
            _ => vom_bench::harness_engine(method, SEED),
        }
    }

    /// The distinct requests of one pass, in canonical (digest) order.
    pub fn requests(self, target: usize) -> Vec<ServiceRequest> {
        let request = |method, k, rule, target, mode| {
            let mut query = Query::new(k, rule, target);
            query.mode = mode;
            ServiceRequest::new(GRAPH, method, HORIZON, query)
        };
        let mut requests = Vec::new();
        match self {
            // k = 5, 10, 20 fall in three budget buckets (8, 16, 32), so
            // the two methods prepare six indexes.
            WorkloadId::YelpPlurality => {
                for method in [MethodId::Rw, MethodId::Rs] {
                    for k in [5, 10, 20] {
                        for mode in [SelectionMode::Auto, SelectionMode::Plain] {
                            let rule = ScoringFunction::Plurality;
                            requests.push(request(method, k, rule, target, mode));
                        }
                    }
                }
            }
            // One budget bucket (8) per target: one index per target.
            WorkloadId::YelpDmCumulative => {
                for target in [0, 4, 8] {
                    for k in 5..=8 {
                        let rule = ScoringFunction::Cumulative;
                        requests.push(request(MethodId::Dm, k, rule, target, SelectionMode::Auto));
                    }
                }
            }
            // One budget bucket (32): one index.
            WorkloadId::RmatCumulative => {
                for k in [20, 24, 32] {
                    let rule = ScoringFunction::Cumulative;
                    requests.push(request(MethodId::Rs, k, rule, target, SelectionMode::Auto));
                }
            }
        }
        requests
    }
}

/// A request's label in the selection digest.
pub fn label(req: &ServiceRequest) -> String {
    format!(
        "{}/{:?}/t{}/k{}/{:?}",
        req.method.name(),
        req.query.rule,
        req.query.target,
        req.query.k,
        req.query.mode
    )
}
