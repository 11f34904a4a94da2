//! `online-drift`: fixed-size batches of the drift stream go through
//! `OnlinePlanner::run_batch`, which serves the post-drift database with a
//! model trained on the pre-drift one. Every served plan is executed,
//! appended to the experience WAL (fsync per append) and fine-tuned on
//! every `RETRAIN_EVERY` records; promoted candidates are checkpointed and
//! hot-swapped in. Each run starts from a fresh state directory.

use crate::fixture::Fixture;
use crate::metrics::Metrics;
use crate::stats::{mean, median};
use crate::{Args, Outcome, Served};
use qpseeker_core::prelude::*;
use qpseeker_workloads::drift;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests per `OnlinePlanner::run_batch` call.
const BATCH: usize = 8;
/// Experience records that trigger a fine-tune round.
const RETRAIN_EVERY: usize = 96;
/// Requests per `--seconds` second, sized for a 2-core x86-64 machine.
const REQUESTS_PER_SECOND: f64 = 57.6;
/// Simulation cap per query.
const SIMULATIONS: usize = 128;
const WORKERS: usize = 1;

fn config(state_dir: &Path) -> OnlineConfig {
    OnlineConfig {
        supervisor: SupervisorConfig {
            serve: ServeConfig {
                mcts: MctsConfig {
                    budget_ms: 1e12,
                    max_simulations: SIMULATIONS,
                    ..MctsConfig::default()
                },
                deadline_ms: 1e12,
                ..ServeConfig::default()
            },
            failure_threshold: 2.0,
            queue_capacity: 1 << 20,
            service_ms: 1.0,
            workers: WORKERS,
            ..SupervisorConfig::default()
        },
        retrain_every: RETRAIN_EVERY,
        fine_tune_epochs: 1,
        ..OnlineConfig::new(state_dir)
    }
}

pub fn run(args: &Args, fx: &Fixture, nproc: usize, state: &Path) -> Result<Outcome, String> {
    if WORKERS > nproc {
        return Err(format!("online-drift needs {WORKERS} serving thread but nproc is {nproc}"));
    }
    let post = Arc::clone(fx.post_db.as_ref().expect("online-drift builds the post-drift db"));
    let n = ((args.seconds as f64 * REQUESTS_PER_SECOND / BATCH as f64).round() as usize).max(1)
        * BATCH;
    let reqs = requests(fx, args.seed, n);

    // Warm-up on other queries in a throwaway state directory, too short
    // to trigger a fine-tune round.
    let warm = state.join(format!("online-warm-{}", std::process::id()));
    let warmed = serve(fx, &post, &requests(fx, !args.seed, 2 * BATCH), &warm);
    let _ = std::fs::remove_dir_all(&warm);
    warmed?;

    let dir = state.join(format!("online-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = serve(fx, &post, &reqs, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (served, batch_ms, round_batches, counters, online) = result?;

    let batches = reqs.chunks(BATCH).map(|c| c.len()).zip(batch_ms.iter().copied()).collect();
    let timed_s = batch_ms.iter().sum::<f64>() / 1e3;
    let serve_only: Vec<f64> = batch_ms
        .iter()
        .zip(&round_batches)
        .filter(|(_, &round)| !round)
        .map(|(&ms, _)| ms)
        .collect();
    let with_round: Vec<f64> =
        batch_ms.iter().zip(&round_batches).filter(|(_, &r)| r).map(|(&ms, _)| ms).collect();

    let mut layers = Metrics::new();
    let round_ms = if with_round.is_empty() || serve_only.is_empty() {
        0.0
    } else {
        mean(&with_round) - median(&serve_only)
    };
    layers.insert("core.online.round_ms", round_ms);
    layers.insert("core.online.rounds", online.retrain_rounds as f64);
    layers.insert("core.online.promotions", online.promotions as f64);
    layers.insert(
        "core.online.rejections",
        (online.rejected_gate + online.rejected_nonfinite) as f64,
    );
    layers.insert("core.online.rollbacks", online.rollbacks as f64);
    layers.insert("core.serve.batch_ms", median(&serve_only));
    layers.insert("core.serve.admitted", counters.admitted as f64);
    layers.insert("core.serve.served_neural", counters.served_neural as f64);
    layers.insert("core.serve.served_classical", counters.served_classical as f64);
    layers.insert("core.serve.shed", counters.total_shed() as f64);
    layers.insert("core.serve.failed", counters.failed as f64);
    layers.insert("core.serve.eval_candidates", counters.eval_candidates as f64);

    let counts = vec![
        ("evals", counters.eval_candidates as u64),
        ("records_logged", online.records_logged as u64),
        ("rounds", online.retrain_rounds as u64),
        ("promotions", online.promotions as u64),
        ("rejections", (online.rejected_gate + online.rejected_nonfinite) as u64),
        ("rollbacks", online.rollbacks as u64),
    ];
    Ok(Outcome {
        queries: reqs.into_iter().map(|r| r.query).collect(),
        served,
        batches,
        timed_s,
        counts,
        layers,
        serve_db: post,
    })
}

/// The drift stream, drawn against the pre-drift database so that only the
/// data underneath it moves.
fn requests(fx: &Fixture, seed: u64, n: usize) -> Vec<QueryRequest> {
    drift::stream_queries(&fx.db, n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, (query, _))| QueryRequest {
            query,
            arrival_ms: 5.0 * i as f64,
            deadline_ms: 1e12,
        })
        .collect()
}

type RunBatches = (Vec<Option<Served>>, Vec<f64>, Vec<bool>, ServeCounters, OnlineCounters);

fn serve(
    fx: &Fixture,
    post: &Arc<qpseeker_storage::Database>,
    reqs: &[QueryRequest],
    dir: &Path,
) -> Result<RunBatches, String> {
    let mut planner = OnlinePlanner::new(config(dir), Arc::clone(&fx.model), post)
        .map_err(|e| format!("online-drift: cannot open the online planner: {e}"))?;
    let mut served = Vec::with_capacity(reqs.len());
    let mut batch_ms = Vec::new();
    let mut round_batches = Vec::new();
    for chunk in reqs.chunks(BATCH) {
        let t = Instant::now();
        let report = planner.run_batch(post, chunk);
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let report = report.map_err(|e| format!("online-drift: run_batch failed: {e}"))?;
        if report.outcomes.len() != chunk.len()
            || report.outcomes.iter().zip(chunk).any(|(o, r)| o.query_id != r.query.id)
        {
            return Err("online-drift: a request did not get exactly one disposition".into());
        }
        round_batches.push(report.promotion.is_some());
        served.extend(report.outcomes.into_iter().map(|o| match o.disposition {
            Disposition::Served(r) => {
                Some(Served { plan: r.plan, neural: r.served_by == ServedBy::Neural })
            }
            Disposition::Shed(_) | Disposition::Failed(_) => None,
        }));
    }
    let counters = planner.serve_counters();
    if !counters.conservation_holds() {
        return Err(format!("online-drift: counter conservation broken: {counters}"));
    }
    Ok((served, batch_ms, round_batches, counters, planner.counters()))
}
