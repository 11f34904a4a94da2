//! `serve-mixed`: fixed-size batches of a mixed tenant stream with verbatim
//! repeats go through `MultiTenantSupervisor::run`. Two tenant lanes share
//! one model through `ModelRegistry` and one `PlanCache`: one lane runs
//! risk-aware MCTS (λ = 0.5, S = 8), the other risk-aware bushy beam
//! search. Each lane has one worker and the `EvalBroker` is on, so the
//! lanes run concurrently on exactly two threads and fuse their scoring.

use crate::fixture::Fixture;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::{Args, Outcome, Served};
use qpseeker_core::prelude::*;
use qpseeker_storage::Database;
use qpseeker_workloads::{tenants, TenantStreamConfig};
use std::sync::Arc;
use std::time::Instant;

/// Evaluation cap per search (both strategies).
pub const EVAL_CAP: usize = 96;
/// Requests per `MultiTenantSupervisor::run` call.
const BATCH: usize = 16;
/// Requests per `--seconds` second, sized for a 2-core x86-64 machine.
const REQUESTS_PER_SECOND: f64 = 240.0;
const WORKERS_PER_LANE: usize = 1;
pub const LANES: [&str; 2] = ["mcts-risk", "beam-risk"];

/// The per-lane search strategies.
pub fn lane_strategy(lane: &str) -> StrategyConfig {
    let kind = if lane == "beam-risk" { StrategyKind::Beam } else { StrategyKind::Mcts };
    StrategyConfig {
        kind,
        risk_lambda: 0.5,
        risk_samples: 8,
        batch_eval: Some(16),
        ..StrategyConfig::default()
    }
}

/// Search knobs shared by both lanes: an evaluation cap, never a budget.
pub fn search_config() -> MctsConfig {
    MctsConfig { budget_ms: 1e12, max_simulations: EVAL_CAP, ..MctsConfig::default() }
}

fn supervisor_config(broker: bool) -> SupervisorConfig {
    SupervisorConfig {
        serve: ServeConfig { mcts: search_config(), deadline_ms: 1e12, ..ServeConfig::default() },
        // The breaker never trips and nothing is shed: throughput, not
        // degradation, is under test.
        failure_threshold: 2.0,
        queue_capacity: 1 << 20,
        service_ms: 1.0,
        workers: WORKERS_PER_LANE,
        broker: broker.then(BrokerConfig::default),
        ..SupervisorConfig::default()
    }
}

pub fn stream(db: &Database, seed: u64, n: usize) -> Vec<TenantRequest> {
    let lanes: Vec<(&str, &Database)> = LANES.iter().map(|&l| (l, db)).collect();
    let cfg = TenantStreamConfig {
        n_requests: n,
        seed,
        mean_interarrival_ms: 5.0,
        repeat_p: 0.35,
        deadline_slack_ms: 1e12,
        pool_size: n,
    };
    tenants::generate_stream(&lanes, &cfg)
        .into_iter()
        .map(|i| TenantRequest {
            tenant: i.tenant,
            req: QueryRequest {
                query: i.query,
                arrival_ms: i.arrival_ms,
                deadline_ms: i.deadline_ms,
            },
        })
        .collect()
}

/// A cache with room for every distinct plan of the run: nothing is ever
/// evicted, so which entries survive cannot depend on how the two lanes
/// interleave.
fn plan_cache(n: usize) -> Arc<PlanCache> {
    Arc::new(PlanCache::new(8, n.max(64)))
}

pub struct Batches {
    pub outcomes: Vec<TenantOutcome>,
    pub batch_ms: Vec<f64>,
    pub counters: ServeCounters,
    pub cache: CacheStats,
}

/// Serve `reqs` in fixed-size batches through a fresh supervisor and cache.
pub fn serve(fx: &Fixture, reqs: &[TenantRequest], broker: bool) -> Result<Batches, String> {
    let registry = ModelRegistry::new(usize::MAX);
    for lane in LANES {
        registry.register(lane, Arc::clone(&fx.db), Arc::clone(&fx.model));
    }
    let specs = LANES
        .iter()
        .map(|&l| TenantSpec::new(l, Arc::clone(&fx.db)).with_strategy(lane_strategy(l)))
        .collect();
    let cache = plan_cache(reqs.len());
    let mut sup = MultiTenantSupervisor::new(
        MultiTenantConfig { base: supervisor_config(broker), cache: Some(Arc::clone(&cache)) },
        specs,
    );
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut batch_ms = Vec::new();
    for chunk in reqs.chunks(BATCH) {
        let t = Instant::now();
        let out = sup.run(&registry, chunk);
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if out.len() != chunk.len()
            || out.iter().zip(chunk).any(|(o, r)| o.outcome.query_id != r.req.query.id)
        {
            return Err("serve-mixed: a request did not get exactly one disposition".into());
        }
        outcomes.extend(out);
    }
    let counters = sup.merged_counters();
    if !counters.conservation_holds() {
        return Err(format!("serve-mixed: counter conservation broken: {counters}"));
    }
    let cache = cache.stats();
    if cache.evictions != 0 {
        return Err("serve-mixed: the plan cache evicted entries".into());
    }
    Ok(Batches { outcomes, batch_ms, counters, cache })
}

pub fn served_plans(outcomes: &[TenantOutcome]) -> Vec<Option<Served>> {
    outcomes
        .iter()
        .map(|o| match &o.outcome.disposition {
            Disposition::Served(r) => {
                Some(Served { plan: r.plan.clone(), neural: r.served_by == ServedBy::Neural })
            }
            Disposition::Shed(_) | Disposition::Failed(_) => None,
        })
        .collect()
}

pub fn run(args: &Args, fx: &Fixture, nproc: usize) -> Result<Outcome, String> {
    let threads = LANES.len() * WORKERS_PER_LANE;
    if threads > nproc {
        return Err(format!(
            "serve-mixed needs {threads} threads (lanes × workers, broker on) but nproc is {nproc}"
        ));
    }
    let n = ((args.seconds as f64 * REQUESTS_PER_SECOND / BATCH as f64).round() as usize).max(1)
        * BATCH;
    let reqs = stream(&fx.db, args.seed, n);

    // Warm-up through a separate supervisor and cache, on other queries.
    serve(fx, &stream(&fx.db, !args.seed, 4 * BATCH), true)?;

    let start = Instant::now();
    let run = serve(fx, &reqs, true)?;
    let timed_s = start.elapsed().as_secs_f64();

    let batches = reqs.chunks(BATCH).map(|c| c.len()).zip(run.batch_ms.iter().copied()).collect();
    let c = run.counters;
    let mut layers = Metrics::new();
    if args.trace {
        // Broker-off replay of the same stream: plans must be bitwise equal,
        // and the wall difference is the broker's net cost per request.
        let t = Instant::now();
        let off = serve(fx, &reqs, false)?;
        let off_s = t.elapsed().as_secs_f64();
        if served_plans(&run.outcomes) != served_plans(&off.outcomes)
            || off.counters.eval_candidates != c.eval_candidates
        {
            return Err("serve-mixed: broker-off replay served different plans".into());
        }
        layers.insert("core.evalbroker.net_ms_per_req", (timed_s - off_s) * 1e3 / n as f64);
    }
    layers.insert("core.plancache.hit_rate", run.cache.hit_rate());
    layers.insert("core.evalbroker.fused_batches", c.fused_batches as f64);
    layers.insert("core.evalbroker.occupancy_mean", c.fused_occupancy_mean());
    layers.insert("core.evalbroker.flush_size", c.broker_flush_size as f64);
    layers.insert("core.evalbroker.flush_deadline", c.broker_flush_deadline as f64);
    layers.insert("core.serve.batch_ms", median(&run.batch_ms));
    layers.insert("core.serve.admitted", c.admitted as f64);
    layers.insert("core.serve.served_neural", c.served_neural as f64);
    layers.insert("core.serve.served_classical", c.served_classical as f64);
    layers.insert("core.serve.shed", c.total_shed() as f64);
    layers.insert("core.serve.failed", c.failed as f64);
    layers.insert("core.serve.eval_candidates", c.eval_candidates as f64);

    let counts = vec![
        ("evals", c.eval_candidates as u64),
        ("cache_hits", c.cache_hits as u64),
        ("fused_batches", c.fused_batches as u64),
        ("fused_rows", c.fused_rows as u64),
        ("flush_size", c.broker_flush_size as u64),
        ("flush_deadline", c.broker_flush_deadline as u64),
        ("admitted", c.admitted as u64),
    ];
    Ok(Outcome {
        queries: reqs.into_iter().map(|r| r.req.query).collect(),
        served: served_plans(&run.outcomes),
        batches,
        timed_s,
        counts,
        layers,
        serve_db: Arc::clone(&fx.db),
    })
}
