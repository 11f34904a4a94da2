//! The strategy layer: which search runs, and how candidates are scored.
//!
//! [`StrategyConfig`] is the serializable request-level knob (carried per
//! request by `serve` and per tenant by `tenant`): search kind (left-deep
//! MCTS or bushy beam), the risk weight λ, the latent sample count, and the
//! beam width. [`StrategyPlanner::from_config`] turns it plus the session's
//! [`MctsConfig`] (budget, seed, batch size — shared by both strategies)
//! into a runnable planner.
//!
//! # Risk-aware scoring
//!
//! The paper's cost modeler is a VAE: the encoder yields a latent mean μ(x)
//! *and* log-variance; mean-only inference (`eps = 0`) collapses that
//! distribution to a point. Risk-aware scoring draws `S` standard-normal
//! latent samples `eps_1..eps_S` from a **seeded** generator (a pure
//! function of the planner seed and the query id — never of thread or
//! worker count), decodes all of them, and summarizes a candidate plan by
//!
//! ```text
//! score = mean_s(runtime_s) + λ · σ_s(runtime_s)
//! ```
//!
//! so a plan whose cost the model is *unsure* about is penalized in
//! proportion to λ (per the robust-cost-model argument in Reqo). λ = 0
//! disables sampling entirely and takes the original mean-only code path —
//! byte for byte, so default-path plans stay bitwise identical.

use super::beam::{BeamConfig, BeamPlanner};
use super::mcts::{MctsConfig, MctsPlanner, MctsResult};
use crate::featurize::FeatSession;
use crate::model::{Prediction, QPSeeker, QueryContext};
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_nn::prelude::Tensor;

/// Which search algorithm a planning request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Left-deep Monte Carlo Tree Search (§5.2) — the original planner.
    Mcts,
    /// Deterministic beam search over the bushy plan space.
    Beam,
}

impl StrategyKind {
    /// Parse a CLI token (`"mcts"` / `"beam"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mcts" => Some(Self::Mcts),
            "beam" => Some(Self::Beam),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Self::Mcts => "mcts",
            Self::Beam => "beam",
        }
    }
}

/// Per-request (or per-tenant) search-strategy selection. Defaults
/// reproduce the pre-strategy-layer planner exactly: left-deep MCTS,
/// mean-only scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyConfig {
    pub kind: StrategyKind,
    /// Risk weight λ ≥ 0: candidates are ranked by `mean + λ·σ` over the
    /// latent samples. `0` disables sampling (mean-only scoring).
    pub risk_lambda: f64,
    /// Latent samples `S` drawn per evaluation when `risk_lambda > 0`.
    pub risk_samples: usize,
    /// States kept per level by the beam strategy.
    pub beam_width: usize,
    /// Unified candidate-batch size shared by both strategies: how many
    /// rollouts/completions a session defers before scoring them in one
    /// batched forward. `None` inherits the deprecated per-strategy fields
    /// ([`MctsConfig::batch_eval`] / [`super::beam::BeamConfig::batch_eval`],
    /// kept as aliases for checkpoint/config compatibility); `Some`
    /// overrides both. Batched scoring is bitwise equal to scalar scoring,
    /// so this knob never changes a plan and is excluded from
    /// [`Self::cache_stamp`].
    pub batch_eval: Option<usize>,
}

impl Default for StrategyConfig {
    fn default() -> Self {
        Self {
            kind: StrategyKind::Mcts,
            risk_lambda: 0.0,
            risk_samples: 8,
            beam_width: 8,
            batch_eval: None,
        }
    }
}

impl StrategyConfig {
    pub(crate) fn risk(&self) -> RiskParams {
        RiskParams { lambda: self.risk_lambda, samples: self.risk_samples }
    }

    /// Compact stamp of every knob that can change the emitted plan, for
    /// the plan cache: a cached plan may only be served to a request whose
    /// strategy stamp matches the one it was planned under. Irrelevant
    /// knobs are normalized out (beam width under MCTS, sample count at
    /// λ = 0) so equivalent configurations share entries.
    pub fn cache_stamp(&self) -> u64 {
        let bw = match self.kind {
            StrategyKind::Mcts => 0,
            StrategyKind::Beam => self.beam_width as u64,
        };
        let (lambda_bits, samples) = if self.risk_lambda > 0.0 {
            (self.risk_lambda.to_bits(), self.risk_samples as u64)
        } else {
            (0, 0)
        };
        super::fnv_words(&[self.kind as u64, lambda_bits, samples, bw])
    }
}

/// Risk-scoring parameters handed to a planner: `mean + λ·σ` over
/// `samples` seeded latent draws. Disabled (mean-only) when λ = 0 or
/// `samples` = 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskParams {
    pub lambda: f64,
    pub samples: usize,
}

impl RiskParams {
    pub fn enabled(&self) -> bool {
        self.lambda > 0.0 && self.samples > 0
    }
}

/// A search algorithm planning one query with all mutable state in the
/// caller's session. Both strategies report through [`MctsResult`] (plan,
/// predicted score, work counters); `predicted_ms` is the selection score —
/// the model's mean predicted runtime, or `mean + λ·σ` under risk scoring.
pub trait SearchStrategy {
    fn plan_with_session(
        &self,
        model: &QPSeeker,
        query: &Query,
        sess: &mut crate::session::PlannerSession,
    ) -> MctsResult;

    /// Convenience wrapper through the model's internal fallback session.
    fn plan(&self, model: &QPSeeker, query: &Query) -> MctsResult {
        let mut sess = model.lock_fallback_session();
        self.plan_with_session(model, query, &mut sess)
    }
}

/// Strategy dispatch without boxing: the concrete planner chosen by a
/// [`StrategyConfig`].
pub enum StrategyPlanner {
    Mcts(MctsPlanner),
    Beam(BeamPlanner),
}

impl StrategyPlanner {
    /// Build the planner a request asked for. `mcts` carries the knobs
    /// shared by both strategies — wall-clock budget, evaluation cap
    /// (`max_simulations`), seed, and batch size — exactly as serving
    /// already derives them per attempt.
    pub fn from_config(strat: &StrategyConfig, mut mcts: MctsConfig) -> Self {
        if let Some(be) = strat.batch_eval {
            mcts.batch_eval = be;
        }
        let risk = strat.risk();
        match strat.kind {
            StrategyKind::Mcts => Self::Mcts(MctsPlanner::with_risk(mcts, risk)),
            StrategyKind::Beam => {
                let cfg = BeamConfig {
                    budget_ms: mcts.budget_ms,
                    beam_width: strat.beam_width,
                    max_evals: mcts.max_simulations,
                    seed: mcts.seed,
                    batch_eval: mcts.batch_eval,
                };
                Self::Beam(BeamPlanner::with_risk(cfg, risk))
            }
        }
    }

    pub fn plan_with_session(
        &self,
        model: &QPSeeker,
        query: &Query,
        sess: &mut crate::session::PlannerSession,
    ) -> MctsResult {
        match self {
            Self::Mcts(p) => p.plan_with_session(model, query, sess),
            Self::Beam(p) => p.plan_with_session(model, query, sess),
        }
    }

    pub fn plan(&self, model: &QPSeeker, query: &Query) -> MctsResult {
        let mut sess = model.lock_fallback_session();
        self.plan_with_session(model, query, &mut sess)
    }
}

impl SearchStrategy for StrategyPlanner {
    fn plan_with_session(
        &self,
        model: &QPSeeker,
        query: &Query,
        sess: &mut crate::session::PlannerSession,
    ) -> MctsResult {
        StrategyPlanner::plan_with_session(self, model, query, sess)
    }
}

/// The scoring function both strategies evaluate candidates through.
/// Mean-only (`risk: None`) forwards to the exact pre-refactor model calls
/// in the exact order, so default-path scores are bitwise identical;
/// risk-aware scoring ranks by `mean + λ·σ` over the seeded latent batch.
///
/// The `eps` tensor is derived from `(seed, query.id)` alone, so every
/// worker, shard, and batch layout scores a given plan identically.
pub(crate) struct Evaluator<'a> {
    model: &'a QPSeeker,
    risk: Option<RiskCtx>,
    /// Seat on a shared [`crate::evalbroker::EvalBroker`]: when present
    /// (and the query takes the fast path), candidate batches are
    /// submitted to the broker to fuse with other sessions' rows instead
    /// of running a private forward. Fused scoring is bitwise equal to
    /// local scoring, so attachment never changes a plan. Never attached
    /// on root-parallel shard evaluators — shard threads are not broker
    /// members.
    broker: Option<&'a crate::evalbroker::BrokerMember>,
}

struct RiskCtx {
    lambda: f64,
    /// `[samples, latent]` seeded standard-normal draws.
    eps: Tensor,
}

/// Salt separating the risk-eps stream from the MCTS rollout RNG, which is
/// seeded from the same `(seed, query.id)` pair.
const RISK_EPS_SALT: u64 = 0x7a3d_91b4_c65f_20e7;

impl<'a> Evaluator<'a> {
    pub(crate) fn new(
        model: &'a QPSeeker,
        query: &Query,
        risk: Option<&RiskParams>,
        seed: u64,
    ) -> Self {
        let risk = risk.filter(|r| r.enabled()).map(|r| RiskCtx {
            lambda: r.lambda,
            eps: model.risk_eps(r.samples, seed ^ super::fnv(query.id.as_bytes()) ^ RISK_EPS_SALT),
        });
        Self { model, risk, broker: None }
    }

    /// Attach the session's broker seat (if any) for the serial search
    /// path. Returns `self` rebound so the borrow can come from a field
    /// destructure alongside the scratch borrows.
    pub(crate) fn with_broker(
        mut self,
        broker: Option<&'a crate::evalbroker::BrokerMember>,
    ) -> Self {
        self.broker = broker;
        self
    }

    pub(crate) fn score_one(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plan: &PlanNode,
        ctx: &mut QueryContext,
    ) -> f64 {
        if let Some(b) = self.broker {
            // Single-candidate submissions still fuse with other members'
            // rows; the row-wise contract keeps the value bitwise equal to
            // the local call below.
            let plans = [plan];
            match &self.risk {
                None => {
                    let mut tmp = Vec::with_capacity(1);
                    self.model.broker_predict_batch_in(b, sess, query, &plans, ctx, &mut tmp);
                    return tmp[0].runtime_ms;
                }
                Some(r) => {
                    let mut tmp = Vec::with_capacity(1);
                    self.model.broker_predict_risk_batch_in(
                        b, sess, query, &plans, ctx, &r.eps, &mut tmp,
                    );
                    let (mean, sigma) = tmp[0];
                    return mean + r.lambda * sigma;
                }
            }
        }
        match &self.risk {
            None => self.model.predict_with_context_in(sess, query, plan, ctx).runtime_ms,
            Some(r) => {
                let (mean, sigma) =
                    self.model.predict_risk_with_context_in(sess, query, plan, ctx, &r.eps);
                mean + r.lambda * sigma
            }
        }
    }

    pub(crate) fn score_batch(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        preds_buf: &mut Vec<Prediction>,
        scores: &mut Vec<f64>,
    ) {
        scores.clear();
        if let Some(b) = self.broker {
            match &self.risk {
                None => {
                    self.model.broker_predict_batch_in(b, sess, query, plans, ctx, preds_buf);
                    scores.extend(preds_buf.iter().map(|p| p.runtime_ms));
                }
                Some(r) => {
                    let mut stats = Vec::with_capacity(plans.len());
                    self.model.broker_predict_risk_batch_in(
                        b, sess, query, plans, ctx, &r.eps, &mut stats,
                    );
                    scores.extend(stats.iter().map(|&(mean, sigma)| mean + r.lambda * sigma));
                }
            }
            return;
        }
        match &self.risk {
            None => {
                self.model.predict_batch_with_context_in(sess, query, plans, ctx, preds_buf);
                scores.extend(preds_buf.iter().map(|p| p.runtime_ms));
            }
            Some(r) => {
                let mut stats = Vec::with_capacity(plans.len());
                self.model.predict_risk_batch_with_context_in(
                    sess, query, plans, ctx, &r.eps, &mut stats,
                );
                scores.extend(stats.iter().map(|&(mean, sigma)| mean + r.lambda * sigma));
            }
        }
    }
}
