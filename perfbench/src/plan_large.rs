//! `plan-large`: one `PlannerSession` plans 7–13-relation JOB-extended
//! queries one at a time through `plan_with_fallback_in`, with left-deep
//! MCTS at λ = 0, `batch_eval` 16, a fixed simulation cap and no plan
//! cache or broker. Featurization, the query encoder, the batched forward
//! and the UCT bookkeeping do almost all of the work.

use crate::fixture::Fixture;
use crate::metrics::Metrics;
use crate::{Args, Outcome, Served};
use qpseeker_core::prelude::*;
use qpseeker_core::serve::plan_with_fallback_in;
use qpseeker_engine::query::Query;
use qpseeker_storage::Database;
use qpseeker_workloads::job;
use std::time::Instant;

/// Simulation cap per query (search never stops on the wall clock).
pub const SIMULATIONS: usize = 256;
/// Queries per `--seconds` second, sized for a 2-core x86-64 machine.
const QUERIES_PER_SECOND: f64 = 31.5;
/// Relation counts drawn in equal numbers, so every seed's query set has
/// the same size mix.
const SIZES: std::ops::RangeInclusive<usize> = 7..=13;

/// The search every `plan-large` request runs.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        mcts: MctsConfig {
            budget_ms: 1e12,
            max_simulations: SIMULATIONS,
            batch_eval: 16,
            parallel_sims: 0,
            ..MctsConfig::default()
        },
        strategy: StrategyConfig { batch_eval: Some(16), ..StrategyConfig::default() },
        // A deadline that never binds: a slow phase of the machine must not
        // turn a neural attempt into a fallback.
        deadline_ms: 1e12,
        ..ServeConfig::default()
    }
}

/// `n` JOB-extended queries, the same number of each size in `SIZES`,
/// drawn from consecutive generator seeds derived from `seed`.
pub fn draw_queries(db: &Database, seed: u64, n: usize) -> Vec<Query> {
    let sizes = SIZES.count();
    let quota = n.div_ceil(sizes);
    let mut taken = vec![0usize; sizes];
    let mut out = Vec::with_capacity(n);
    for k in 0u64..10_000 {
        let draw = seed.wrapping_mul(0x9e37_79b9).wrapping_add(k);
        for (mut q, _) in job::job_extended_queries(db, draw) {
            let Some(slot) = q.num_relations().checked_sub(*SIZES.start()) else { continue };
            if slot < sizes && taken[slot] < quota && out.len() < n {
                taken[slot] += 1;
                q.id = format!("plan-large-{}", out.len());
                out.push(q);
            }
        }
        if out.len() == n {
            return out;
        }
    }
    panic!("JOB-extended generator cannot fill {n} queries over sizes {SIZES:?}");
}

pub fn request_count(seconds: u64) -> usize {
    let sizes = SIZES.count();
    ((seconds as f64 * QUERIES_PER_SECOND / sizes as f64).round() as usize).max(1) * sizes
}

pub fn run(args: &Args, fx: &Fixture) -> Result<Outcome, String> {
    let db = &fx.db;
    let model = &*fx.model;
    let cfg = serve_config();
    let queries = draw_queries(db, args.seed, request_count(args.seconds));
    let mut sess = PlannerSession::new();

    // Warm-up on queries outside the measured set: allocator, session
    // scratch and packed weights settle before timing.
    for q in draw_queries(db, !args.seed, 4 * SIZES.count()) {
        plan_with_fallback_in(db, &q, Some(model), &cfg, &mut sess);
    }

    let mut served = Vec::with_capacity(queries.len());
    let mut batches = Vec::with_capacity(queries.len());
    let mut evals = 0u64;
    let start = Instant::now();
    for q in &queries {
        let t = Instant::now();
        let r = plan_with_fallback_in(db, q, Some(model), &cfg, &mut sess);
        batches.push((1, t.elapsed().as_secs_f64() * 1e3));
        evals += r.evals as u64;
        served.push(Some(Served { plan: r.plan, neural: r.served_by == ServedBy::Neural }));
    }
    let timed_s = start.elapsed().as_secs_f64();

    let neural = served.iter().flatten().filter(|s| s.neural).count() as f64;
    let mut layers = Metrics::new();
    let call_ms: Vec<f64> = batches.iter().map(|&(_, ms)| ms).collect();
    layers.insert("core.serve.batch_ms", crate::stats::median(&call_ms));
    layers.insert("core.serve.admitted", queries.len() as f64);
    layers.insert("core.serve.served_neural", neural);
    layers.insert("core.serve.served_classical", queries.len() as f64 - neural);
    layers.insert("core.serve.shed", 0.0);
    layers.insert("core.serve.failed", 0.0);
    layers.insert("core.serve.eval_candidates", evals as f64);
    Ok(Outcome {
        queries,
        served,
        batches,
        timed_s,
        counts: vec![("evals", evals)],
        layers,
        serve_db: std::sync::Arc::clone(db),
    })
}
