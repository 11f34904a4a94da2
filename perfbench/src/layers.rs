//! Plan quality, the plan digest, and the traced per-layer replays.
//!
//! Every per-layer number is taken from outside the program: by timing
//! calls into a layer's public functions on the run's own inputs, or by
//! reading counters the program already exports.

use crate::fixture::Fixture;
use crate::metrics::Metrics;
use crate::stats::{debug_digest, mean, median, Fnv};
use crate::{plan_large, serve_mixed, Args, Outcome};
use qpseeker_core::prelude::*;
use qpseeker_engine::executor::{ExecutionResult, Executor};
use qpseeker_engine::optimizer::PgOptimizer;
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_workloads::{sample_plans, Qep, SamplingConfig};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Distinct queries the search and featurization replays use.
const REPLAY_QUERIES: usize = 24;
/// Distinct queries, and candidate plans per query, the forward replays use.
const PREDICT_QUERIES: usize = 8;
const PREDICT_PLANS: usize = 64;
/// Records replayed into the side experience WAL.
const WAL_RECORDS: usize = 64;

/// Executed plan quality of a run, computed after its timed phase.
pub struct Quality {
    /// Geometric mean over served requests of the served plan's executed
    /// virtual runtime over the classical optimizer's.
    pub ratio: f64,
    /// Ground truth of each served request's plan (`None` when unserved).
    pub truths: Vec<Option<ExecutionResult>>,
    /// Wall ms of each distinct `Executor::execute` and `PgOptimizer::plan`.
    pub execute_ms: Vec<f64>,
    pub pg_plan_ms: Vec<f64>,
}

pub fn plan_quality(out: &Outcome, nproc: usize) -> Quality {
    // The pass is the benchmark's own work, so it runs on every core.
    let threads = nproc.clamp(1, 2);
    let shards: Vec<Shard> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..threads).map(|t| scope.spawn(move || quality_shard(out, t, threads))).collect();
        handles.into_iter().map(|h| h.join().expect("plan-quality thread panicked")).collect()
    });
    let mut truths = vec![None; out.queries.len()];
    let (mut execute_ms, mut pg_plan_ms) = (Vec::new(), Vec::new());
    for shard in shards {
        for (i, truth) in shard.truths {
            truths[i] = Some(truth);
        }
        execute_ms.extend(shard.execute_ms);
        pg_plan_ms.extend(shard.pg_plan_ms);
    }
    // Summed in request order, so the ratio is bitwise reproducible.
    let logs: Vec<f64> =
        truths.iter().flatten().map(|(truth, base)| (truth.time_ms / base).ln()).collect();
    let ratio = if logs.is_empty() { f64::NAN } else { mean(&logs).exp() };
    Quality {
        ratio,
        truths: truths.into_iter().map(|t| t.map(|(truth, _)| truth)).collect(),
        execute_ms,
        pg_plan_ms,
    }
}

/// One thread's share of the plan-quality pass: requests `t`, `t + step`, …
struct Shard {
    /// Request index → (served plan's execution, classical plan's runtime).
    truths: Vec<(usize, (ExecutionResult, f64))>,
    execute_ms: Vec<f64>,
    pg_plan_ms: Vec<f64>,
}

fn quality_shard(out: &Outcome, t: usize, step: usize) -> Shard {
    let db = &*out.serve_db;
    let exec = Executor::new(db);
    let pg = PgOptimizer::new(db);
    let mut pg_time: HashMap<u64, f64> = HashMap::new();
    let mut served_truth: HashMap<(u64, u64), ExecutionResult> = HashMap::new();
    let mut shard = Shard { truths: Vec::new(), execute_ms: Vec::new(), pg_plan_ms: Vec::new() };
    for i in (t..out.queries.len()).step_by(step) {
        let (q, Some(s)) = (&out.queries[i], &out.served[i]) else { continue };
        let qk = debug_digest(q);
        let base = *pg_time.entry(qk).or_insert_with(|| {
            let t = Instant::now();
            let plan = pg.plan(q);
            shard.pg_plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let ms = exec.execute(&plan).time_ms;
            shard.execute_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ms
        });
        let truth = served_truth
            .entry((qk, debug_digest(&s.plan)))
            .or_insert_with(|| {
                let t = Instant::now();
                let r = exec.execute(&s.plan);
                shard.execute_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r
            })
            .clone();
        shard.truths.push((i, (truth, base)));
    }
    shard
}

/// Digest of every request's served plan, in request order.
pub fn plan_digest(out: &Outcome) -> u64 {
    let mut h = Fnv::new();
    for s in &out.served {
        match s {
            Some(s) => {
                h.bytes(&debug_digest(&s.plan).to_le_bytes());
                h.bytes(&[u8::from(s.neural)]);
            }
            None => h.bytes(b"-"),
        }
    }
    h.finish()
}

/// The workload's distinct queries, in first-appearance order.
fn distinct(queries: &[Query], cap: usize) -> Vec<&Query> {
    let mut seen = std::collections::HashSet::new();
    queries.iter().filter(|q| seen.insert(debug_digest(*q))).take(cap).collect()
}

pub struct Traced {
    pub metrics: Metrics,
    pub counts: Vec<(&'static str, u64)>,
}

/// Run every per-layer replay and assemble the full per-layer report.
pub fn trace(
    args: &Args,
    fx: &Fixture,
    out: &Outcome,
    quality: &Quality,
    e2e: &Metrics,
    state: &Path,
) -> Result<Traced, String> {
    let started = Instant::now();
    let model = &*fx.model;
    let db = &out.serve_db;
    let mut m = out.layers.clone();
    m.insert("storage.datagen_s", fx.datagen_s);
    m.insert("workloads.qep_gen_s", fx.qep_gen_s);
    m.insert("core.model.fit_s", fx.fit_s);
    m.insert("engine.execute_ms", median(&quality.execute_ms));
    m.insert("engine.pg_plan_ms", median(&quality.pg_plan_ms));

    let replay = distinct(&out.queries, REPLAY_QUERIES);

    // Featurization + query encoder, once per query.
    let mut ctx_ms = Vec::with_capacity(replay.len());
    for q in &replay {
        let t = Instant::now();
        std::hint::black_box(model.query_context(q));
        ctx_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let query_context_ms = mean(&ctx_ms);
    m.insert("core.featurize.query_context_ms", query_context_ms);

    // Batched forward at batch 1, 16 and 64 over sampled candidate plans.
    let cands: Vec<(&Query, Vec<PlanNode>)> = replay
        .iter()
        .take(PREDICT_QUERIES)
        .map(|q| {
            let cfg = SamplingConfig {
                max_orderings: PREDICT_PLANS,
                operators_per_ordering: 1,
                keep_fraction: 1.0,
                seed: args.seed,
            };
            let plans: Vec<PlanNode> =
                sample_plans(db, q, &cfg).into_iter().map(|s| s.plan).take(PREDICT_PLANS).collect();
            (*q, plans)
        })
        .filter(|(_, p)| !p.is_empty())
        .collect();
    let rows: usize = cands.iter().map(|(_, p)| p.len()).sum();
    let row_us = |batch: usize, risk: bool| -> f64 {
        let eps = model.risk_eps(8, 0x5eed);
        let mut passes = Vec::new();
        for _ in 0..5 {
            let mut secs = 0.0;
            for (q, plans) in &cands {
                let mut ctx = model.query_context(q);
                let mut sess = FeatSession::new();
                let (mut preds, mut risks) = (Vec::new(), Vec::new());
                // The first pass warms the per-query featurization caches,
                // as a search does for the prefixes its rollouts share; the
                // second pass is timed.
                for timed in [false, true] {
                    let t = Instant::now();
                    for chunk in plans.chunks(batch) {
                        let refs: Vec<&PlanNode> = chunk.iter().collect();
                        if risk {
                            model.predict_risk_batch_with_context_in(
                                &mut sess, q, &refs, &mut ctx, &eps, &mut risks,
                            );
                        } else {
                            model.predict_batch_with_context_in(
                                &mut sess, q, &refs, &mut ctx, &mut preds,
                            );
                        }
                    }
                    if timed {
                        secs += t.elapsed().as_secs_f64();
                    }
                    std::hint::black_box((&preds, &risks));
                }
            }
            passes.push(secs * 1e6 / rows as f64);
        }
        median(&passes)
    };
    let b1 = row_us(1, false);
    let b16 = row_us(16, false);
    let b64 = row_us(64, false);
    m.insert("core.model.predict_row_us.b1", b1);
    m.insert("core.model.predict_row_us.b16", b16);
    m.insert("core.model.predict_row_us.b64", b64);
    m.insert("core.model.risk_row_us.b16", row_us(16, true));
    let mean_nodes =
        mean(&cands.iter().flat_map(|(_, p)| p.iter().map(|p| p.len() as f64)).collect::<Vec<_>>());
    m.insert("nn.flops_per_row", flops_per_row(model, mean_nodes));
    m.insert("nn.weight_bytes", (model.num_parameters() * 4) as f64);

    // Search: λ = 0 MCTS under plan-large's configuration, then each
    // serve-mixed lane's strategy, on the same distinct queries.
    let base = plan_large::serve_config();
    let searches = [
        StrategyPlanner::from_config(&base.strategy, base.mcts.clone()),
        StrategyPlanner::from_config(
            &serve_mixed::lane_strategy("mcts-risk"),
            serve_mixed::search_config(),
        ),
        StrategyPlanner::from_config(
            &serve_mixed::lane_strategy("beam-risk"),
            serve_mixed::search_config(),
        ),
    ];
    let mut plan_ms = [0.0f64; 3];
    let (mut evals, mut sims) = (0u64, 0u64);
    for (i, planner) in searches.iter().enumerate() {
        let mut sess = PlannerSession::new();
        let mut times = Vec::with_capacity(replay.len());
        for q in &replay {
            let t = Instant::now();
            let r = planner.plan_with_session(model, q, &mut sess);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            if i == 0 {
                evals += r.plans_evaluated as u64;
                sims += r.simulations as u64;
            }
        }
        plan_ms[i] = mean(&times);
    }
    let nq = replay.len() as f64;
    let forward_ms = evals as f64 / nq * b16 / 1e3;
    m.insert("core.search.evals_per_query", evals as f64 / nq);
    m.insert("core.search.sims_per_query", sims as f64 / nq);
    m.insert("core.search.plan_ms", plan_ms[0]);
    m.insert("core.search.forward_ms", forward_ms);
    m.insert("core.search.self_ms", plan_ms[0] - query_context_ms - forward_ms);
    m.insert("core.search.mcts_risk_plan_ms", plan_ms[1]);
    m.insert("core.search.beam_plan_ms", plan_ms[2]);

    // Plan cache: fingerprint and lookup every request against a fresh
    // cache, inserting served plans on a miss.
    let cache = PlanCache::new(8, out.queries.len().max(64));
    let (mut fp_us, mut lookup_us) = (Vec::new(), Vec::new());
    for (q, s) in out.queries.iter().zip(&out.served) {
        let t = Instant::now();
        let fp = query_fingerprint(q);
        fp_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let hit = cache.lookup("bench", q, fp, 0, 0, 0);
        lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let (None, Some(s)) = (hit, s) {
            let cached = CachedPlan {
                plan: s.plan.clone(),
                predicted_ms: 0.0,
                epoch: 0,
                stats_version: 0,
                strategy: 0,
            };
            cache.insert("bench", q, fp, cached);
        }
    }
    m.insert("core.plancache.fingerprint_us", mean(&fp_us));
    m.insert("core.plancache.lookup_us", mean(&lookup_us));

    // Checkpoint capture → JSON → parse → restore (packs weight panels).
    let mut rt_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let json = Checkpoint::capture(model, db).to_json().map_err(|e| e.to_string())?;
        let restored = Checkpoint::from_json(&json)
            .and_then(|c| c.restore(db))
            .map_err(|e| format!("checkpoint round trip failed: {e}"))?;
        rt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if crate::fixture::param_digest(&restored) != crate::fixture::param_digest(model) {
            return Err("checkpoint round trip changed the parameters".into());
        }
    }
    m.insert("core.checkpoint.roundtrip_ms", median(&rt_ms));

    // Experience WAL: replay served records into a side WAL on the same
    // filesystem as the online loop's state.
    let (append_us, bytes_per_record) = wal_replay(out, quality, state)?;
    m.insert("core.experience.append_us", append_us);
    m.insert("core.experience.bytes_per_record", bytes_per_record);

    for name in [
        "core.plancache.hit_rate",
        "core.evalbroker.fused_batches",
        "core.evalbroker.occupancy_mean",
        "core.evalbroker.flush_size",
        "core.evalbroker.flush_deadline",
        "core.evalbroker.net_ms_per_req",
        "core.online.rounds",
        "core.online.promotions",
        "core.online.rejections",
        "core.online.rollbacks",
        "core.online.round_ms",
    ] {
        // Layers this workload does not use did no work.
        m.entry(name).or_insert(0.0);
    }
    m.insert("trace.throughput_qps", e2e["throughput_qps"]);
    m.insert("trace.latency_p50_ms", e2e["latency_p50_ms"]);
    m.insert("trace.replay_s", started.elapsed().as_secs_f64());
    Ok(Traced { metrics: m, counts: vec![("search_evals", evals), ("search_sims", sims)] })
}

/// Multiply-adds ×2 of one candidate row's plan side: the plan-encoder
/// LSTM cell and the attention key/value projections run once per plan
/// node; the attention query/output projections and the VAE once per row.
/// The query encoder runs once per query and is excluded.
fn flops_per_row(model: &QPSeeker, nodes: f64) -> f64 {
    let mut flops = 0.0;
    for (_, p) in model.store.iter() {
        let (r, c) = p.value.shape();
        if r <= 1 {
            continue; // biases
        }
        let per_node = p.name.starts_with("plan_enc")
            || (p.name.starts_with("qp_attn")
                && (p.name.ends_with(".wk") || p.name.ends_with(".wv")));
        let per_row = p.name.starts_with("qp_attn") || p.name.starts_with("vae");
        let times = if per_node {
            nodes
        } else if per_row {
            1.0
        } else {
            0.0
        };
        flops += 2.0 * (r * c) as f64 * times;
    }
    flops
}

fn wal_replay(out: &Outcome, quality: &Quality, state: &Path) -> Result<(f64, f64), String> {
    let dir = state.join(format!("side-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        let mut wal = ExperienceWal::open(&dir, 1 << 20).map_err(|e| e.to_string())?;
        let mut us = Vec::new();
        let records = out.queries.iter().zip(&out.served).zip(&quality.truths);
        for ((q, s), truth) in records.take(WAL_RECORDS) {
            let (Some(s), Some(truth)) = (s, truth) else { continue };
            let qep = Qep {
                query: q.clone(),
                plan: s.plan.clone(),
                template: "bench".into(),
                truth: truth.clone(),
            };
            let t = Instant::now();
            wal.log(ExperienceDisposition::Neural, None, qep).map_err(|e| e.to_string())?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut bytes = 0u64;
        for e in std::fs::read_dir(&dir).map_err(|e| e.to_string())?.flatten() {
            bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
        }
        if us.is_empty() {
            return Err("no served request to replay into the experience WAL".to_string());
        }
        Ok((median(&us), bytes as f64 / us.len() as f64))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result.map_err(|e| format!("experience WAL replay: {e}"))
}
