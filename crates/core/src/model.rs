//! The assembled QPSeeker model: Query Encoder + Plan Encoder + QPAttention
//! + Cost Modeler, with the training loop (§5) and inference entry points.

use crate::config::ModelConfig;
use crate::durable::SnapshotStore;
use crate::encoder::{PlanEncoder, QueryEncoder, SubtreeMemo};
use crate::error::CoreError;
use crate::evalbroker::{BrokerMember, BucketKey, FusedOutcome, Submission};
use crate::featurize::{FeatSession, FeaturizedQep, Featurizer, PlanFeatCache};
use crate::normalize::TargetNormalizer;
use crate::session::PlannerSession;
use crate::vae::CostModeler;
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_nn::prelude::*;
use qpseeker_storage::Database;
use qpseeker_tabert::TabSim;
use qpseeker_workloads::Qep;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

/// Denormalized model prediction for one QEP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    pub cardinality: f64,
    pub cost: f64,
    pub runtime_ms: f64,
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Final-epoch mean prediction (MSE) loss.
    pub final_pred_loss: f64,
    /// Final-epoch mean KL.
    pub final_kl: f64,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
    /// Totals from the optimizer's numerical guards across all steps
    /// (non-finite gradients zeroed, oversized updates clamped, non-finite
    /// parameter values reverted). All-zero for a numerically healthy run.
    pub guards: StepReport,
}

/// The QPSeeker neural planner, bound to one database.
///
/// After training the model is immutable: every inference entry point takes
/// `&self`, the database is shared read-only via `Arc`, and all mutable
/// per-query state lives in a caller-owned
/// [`PlannerSession`](crate::session::PlannerSession). That makes a fitted
/// model `Send + Sync` (compile-time asserted below): wrap it in an `Arc`
/// and hand one clone to each serving worker.
///
/// Convenience entry points that take no session (`predict`,
/// `featurize_qep`, …) fall back to one internal session behind a `Mutex`;
/// the lock recovers from poisoning via `into_inner`, so a panicked caller
/// can never wedge other threads (the caches it guards are merely warm
/// state, valid at every step).
pub struct QPSeeker {
    pub config: ModelConfig,
    pub store: ParamStore,
    query_enc: QueryEncoder,
    plan_enc: PlanEncoder,
    attn: MultiHeadCrossAttention,
    vae: CostModeler,
    pub normalizer: Option<TargetNormalizer>,
    feat: Featurizer,
    noise: Initializer,
    /// Session backing the session-less convenience API.
    fallback: Mutex<PlannerSession>,
}

/// The serving-oriented name for a fitted [`QPSeeker`]: the immutable,
/// `Arc`-shareable half of the model/session split.
pub type PlannerModel = QPSeeker;

// A planner model must be shareable across serving workers. Compile-time
// assertion: losing `Send + Sync` (e.g. by reintroducing an `Rc` or a raw
// borrow) is a build error, not a runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QPSeeker>()
};

impl QPSeeker {
    pub fn new(db: &Arc<Database>, config: ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::new(config.seed);
        let n_tables = db.catalog.num_tables();
        let n_joins = db.catalog.num_joins();
        let query_enc = QueryEncoder::new(&mut store, &mut init, &config, n_tables, n_joins);
        let plan_enc = PlanEncoder::new(&mut store, &mut init, &config, n_tables);
        let attn = MultiHeadCrossAttention::new(
            &mut store,
            &mut init,
            "qp_attn",
            config.query_dim(),
            config.plan_node_out,
            config.attn_heads,
            config.attn_head_dim,
            config.joint_dim(),
        );
        let vae = CostModeler::new(&mut store, &mut init, &config);
        let tabert = TabSim::new(config.tabert.clone());
        Self {
            feat: Featurizer::new(Arc::clone(db), tabert),
            config,
            store,
            query_enc,
            plan_enc,
            attn,
            vae,
            normalizer: None,
            noise: init,
            fallback: Mutex::new(PlannerSession::new()),
        }
    }

    /// The shared read-only database this model plans against.
    pub fn db(&self) -> &Arc<Database> {
        &self.feat.db
    }

    /// The internal fallback session, recovering from lock poisoning: a
    /// worker that panicked mid-featurization leaves the caches in a valid
    /// (merely partially warm) state, so the session stays usable.
    pub(crate) fn lock_fallback_session(&self) -> MutexGuard<'_, PlannerSession> {
        self.fallback.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of scalar parameters (the paper quotes 10.8M for the full
    /// configuration).
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Simulated TaBERT time consumed so far (Fig. 8 right).
    pub fn tabert_ms(&self) -> f64 {
        self.feat.tabert_ms()
    }

    /// Featurize a training QEP (requires a fitted normalizer), through the
    /// internal fallback session.
    pub fn featurize_qep(&self, qep: &Qep) -> FeaturizedQep {
        let mut sess = self.lock_fallback_session();
        self.featurize_qep_in(&mut sess.feat, qep)
    }

    /// [`Self::featurize_qep`] with caller-owned featurization caches.
    pub fn featurize_qep_in(&self, sess: &mut FeatSession, qep: &Qep) -> FeaturizedQep {
        let norm = self.normalizer.as_ref().expect("fit or set a normalizer first");
        self.feat.featurize(sess, &qep.query, &qep.plan, Some(&qep.truth), norm, &qep.template)
    }

    /// Encode one featurized QEP to its joint embedding `[1, joint_dim]`
    /// (QPAttention output; for single-node plans, the paper's
    /// concatenation fallback).
    fn encode_joint(&self, g: &mut Graph, fq: &FeaturizedQep) -> (Var, Vec<(Var, [f32; 3])>) {
        let qv = self.query_enc.forward(g, &self.store, &fq.query);
        let ep = self.plan_enc.forward(g, &self.store, &fq.plan);
        let joint = if fq.plan.count() > 1 && self.config.use_attention {
            let (out, _scores) = self.attn.forward(g, &self.store, qv, ep.nodes);
            out
        } else {
            g.concat_cols(qv, ep.root)
        };
        // Auxiliary supervision pairs: (node output var, normalized truth).
        let mut aux = Vec::new();
        if self.config.node_loss_weight > 0.0 {
            collect_node_truths(
                &fq.plan,
                &mut NodeTruthWalker { vars: &ep.node_vars, pos: 0, out: &mut aux },
            );
        }
        (joint, aux)
    }

    /// Train on a set of QEPs. Fits the target normalizer, featurizes once,
    /// then runs mini-batch Adam for `config.epochs` epochs.
    ///
    /// # Errors
    /// [`CoreError::EmptyTrainingSet`] for an empty `qeps`,
    /// [`CoreError::MissingTarget`] when a QEP carries no ground truth,
    /// [`CoreError::TrainingWorkerPanicked`] when a data-parallel worker
    /// panics (contained at the shard boundary).
    pub fn fit(&mut self, qeps: &[&Qep]) -> Result<TrainReport, CoreError> {
        let start = std::time::Instant::now();
        let feats = self.fit_normalizer_and_featurize(qeps)?;
        let report = self.fit_featurized(&feats)?;
        Ok(TrainReport { train_seconds: start.elapsed().as_secs_f64(), ..report })
    }

    /// [`Self::fit`] with crash-safe journaling: after every epoch a
    /// [`TrainSnapshot`] (parameters, optimizer moments, RNG/noise cursor,
    /// normalizer) is written atomically to `journal`, and training resumes
    /// from the newest valid snapshot found there.
    ///
    /// Determinism guarantee: a run killed at any epoch boundary and resumed
    /// through this entry point produces **bitwise-identical** parameters to
    /// an uninterrupted run, because (a) the optimizer's moments and step
    /// counter round-trip exactly through JSON, and (b) the shuffle RNG and
    /// latent-noise stream are fast-forwarded by replaying the completed
    /// epochs' draws (their consumption depends only on dataset size and
    /// batch size, both validated against the snapshot).
    ///
    /// # Errors
    /// Everything [`Self::fit`] raises, plus [`CoreError::SnapshotMismatch`]
    /// when the journal belongs to a different config or dataset,
    /// [`CoreError::NoValidSnapshot`] when snapshots exist but all are
    /// corrupt, and durable-write failures ([`CoreError::Io`] /
    /// [`CoreError::InjectedCrash`]) from the snapshot path.
    pub fn fit_resumable(
        &mut self,
        qeps: &[&Qep],
        journal: &SnapshotStore,
    ) -> Result<TrainReport, CoreError> {
        let start = std::time::Instant::now();
        let resume = match journal.recover()? {
            None => None,
            Some(rec) => {
                let snap: TrainSnapshot = serde_json::from_str(&rec.payload)?;
                Some(self.restore_snapshot(snap, qeps.len())?)
            }
        };
        let feats = match resume.is_some() {
            // The snapshot restored the fitted normalizer; featurize with it.
            true => {
                if qeps.is_empty() {
                    return Err(CoreError::EmptyTrainingSet);
                }
                qeps.iter().map(|q| self.featurize_qep(q)).collect()
            }
            false => self.fit_normalizer_and_featurize(qeps)?,
        };
        let report = self.fit_featurized_run(&feats, Some(journal), resume)?;
        Ok(TrainReport { train_seconds: start.elapsed().as_secs_f64(), ..report })
    }

    /// Fit the target normalizer on `qeps` and featurize the whole set.
    fn fit_normalizer_and_featurize(
        &mut self,
        qeps: &[&Qep],
    ) -> Result<Vec<FeaturizedQep>, CoreError> {
        if qeps.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        let targets: Vec<[f64; 3]> =
            qeps.iter().map(|q| [q.cardinality(), q.cost(), q.runtime_ms()]).collect();
        self.normalizer = Some(TargetNormalizer::fit(&targets));
        Ok(qeps.iter().map(|q| self.featurize_qep(q)).collect())
    }

    /// Validate a recovered snapshot against this run and restore the model
    /// state it carries. Returns the optimizer/progress for the epoch loop.
    fn restore_snapshot(
        &mut self,
        snap: TrainSnapshot,
        n_samples: usize,
    ) -> Result<ResumePoint, CoreError> {
        let fp = self.config.fingerprint();
        if snap.config_fingerprint != fp {
            return Err(CoreError::SnapshotMismatch {
                field: "config",
                snapshot: format!("fingerprint {:016x}", snap.config_fingerprint),
                current: format!("fingerprint {fp:016x}"),
            });
        }
        if snap.n_samples != n_samples {
            return Err(CoreError::SnapshotMismatch {
                field: "dataset size",
                snapshot: format!("{} QEPs", snap.n_samples),
                current: format!("{n_samples} QEPs"),
            });
        }
        if self.store.len() != snap.store.len()
            || self.store.num_scalars() != snap.store.num_scalars()
        {
            return Err(CoreError::ParamLayout {
                built_params: self.store.len(),
                built_scalars: self.store.num_scalars(),
                saved_params: snap.store.len(),
                saved_scalars: snap.store.num_scalars(),
            });
        }
        self.store = snap.store;
        self.normalizer = snap.normalizer;
        Ok(ResumePoint {
            opt: snap.optimizer,
            start_epoch: snap.epochs_done,
            epoch_losses: snap.epoch_losses,
            final_pred: snap.final_pred,
            final_kl: snap.final_kl,
            guards: snap.guards,
        })
    }

    /// Train on pre-featurized QEPs (used by the sampling-fraction bench
    /// which re-uses featurizations across model instances).
    pub fn fit_featurized(&mut self, feats: &[FeaturizedQep]) -> Result<TrainReport, CoreError> {
        self.fit_featurized_run(feats, None, None)
    }

    /// The epoch loop, shared by the plain and journaled entry points.
    ///
    /// On resume the shuffle RNG and the latent-noise stream are
    /// fast-forwarded by replaying each completed epoch's draws: one shuffle
    /// of the `n`-element order, then one `[chunk, latent]` noise draw per
    /// batch. Both consume amounts that depend only on `n` and the batch
    /// size, so the replay leaves the generators exactly where the
    /// uninterrupted run would have them.
    fn fit_featurized_run(
        &mut self,
        feats: &[FeaturizedQep],
        journal: Option<&SnapshotStore>,
        resume: Option<ResumePoint>,
    ) -> Result<TrainReport, CoreError> {
        if feats.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        let n = feats.len();
        let (mut opt, start_epoch, mut epoch_losses, mut final_pred, mut final_kl, mut guards) =
            match resume {
                Some(r) => {
                    (r.opt, r.start_epoch, r.epoch_losses, r.final_pred, r.final_kl, r.guards)
                }
                None => (
                    Adam::new(self.config.learning_rate as f32),
                    0,
                    Vec::with_capacity(self.config.epochs),
                    0.0,
                    0.0,
                    StepReport::default(),
                ),
            };
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xf17);
        let mut order: Vec<usize> = (0..n).collect();
        let batch_size = self.config.batch_size.max(1);
        for _done in 0..start_epoch {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch_size) {
                let _ = self.noise.standard_normal(chunk.len(), self.config.vae_latent);
            }
        }
        for epoch in start_epoch..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_total = 0.0;
            let mut epoch_pred = 0.0;
            let mut epoch_kl = 0.0;
            let mut batches = 0.0;
            for chunk in order.chunks(batch_size) {
                let batch: Vec<&FeaturizedQep> = chunk.iter().map(|&i| &feats[i]).collect();
                let (total, pred, kl, step_guards) = self.train_batch(&batch, &mut opt)?;
                guards.absorb(step_guards);
                epoch_total += total;
                epoch_pred += pred;
                epoch_kl += kl;
                batches += 1.0;
            }
            epoch_losses.push(epoch_total / batches);
            final_pred = epoch_pred / batches;
            final_kl = epoch_kl / batches;
            if let Some(store) = journal {
                let snap = TrainSnapshot {
                    config_fingerprint: self.config.fingerprint(),
                    n_samples: n,
                    epochs_done: epoch + 1,
                    total_epochs: self.config.epochs,
                    optimizer: opt.clone(),
                    store: self.store.clone(),
                    normalizer: self.normalizer.clone(),
                    epoch_losses: epoch_losses.clone(),
                    final_pred,
                    final_kl,
                    guards,
                };
                store.write((epoch + 1) as u64, &serde_json::to_string(&snap)?)?;
            }
        }
        Ok(TrainReport {
            epoch_losses,
            final_pred_loss: final_pred,
            final_kl,
            train_seconds: 0.0,
            guards,
        })
    }

    /// One optimizer step over `batch`, data-parallel across
    /// `config.train_threads` crossbeam-scoped workers.
    ///
    /// Each sample's tape forward/backward runs independently into a
    /// thread-local [`GradBuffer`]; buffers are then merged into the shared
    /// store in *sample-index* order (never shard order) and the loss terms
    /// are summed in the same order. Latent noise is drawn for the whole
    /// batch upfront from the model's single RNG stream. Together these make
    /// a seeded run bit-identical for every `train_threads` value.
    fn train_batch(
        &mut self,
        batch: &[&FeaturizedQep],
        opt: &mut Adam,
    ) -> Result<(f64, f64, f64, StepReport), CoreError> {
        self.store.zero_grads();
        let b = batch.len();
        let eps_all = self.noise.standard_normal(b, self.config.vae_latent);
        // Auxiliary-loss rows across the whole batch: each sample's node
        // loss is scaled by its share so the sum equals the batch MSE.
        let total_aux: usize = if self.config.node_loss_weight > 0.0 {
            batch.iter().map(|fq| count_truth_nodes(&fq.plan)).sum()
        } else {
            0
        };
        let shards = self.config.train_threads.max(1).min(b.max(1));
        let results: Vec<SampleGrad> = if shards <= 1 {
            batch
                .iter()
                .enumerate()
                .map(|(i, fq)| self.train_sample(fq, eps_row(&eps_all, i), b, total_aux, i))
                .collect::<Result<_, _>>()?
        } else {
            let chunk = b.div_ceil(shards);
            let this = &*self;
            let eps_ref = &eps_all;
            let scoped = crossbeam::scope(|s| {
                let handles: Vec<_> = batch
                    .chunks(chunk)
                    .enumerate()
                    .map(|(ci, samples)| {
                        s.spawn(move |_| {
                            samples
                                .iter()
                                .enumerate()
                                .map(|(j, fq)| {
                                    let i = ci * chunk + j;
                                    this.train_sample(fq, eps_row(eps_ref, i), b, total_aux, i)
                                })
                                .collect::<Result<Vec<SampleGrad>, CoreError>>()
                        })
                    })
                    .collect();
                // Join every shard, containing panics at the shard boundary
                // as typed errors instead of poisoning the whole process.
                let mut all = Vec::with_capacity(b);
                for (shard, h) in handles.into_iter().enumerate() {
                    match h.join() {
                        Ok(Ok(grads)) => all.extend(grads),
                        Ok(Err(e)) => return Err(e),
                        Err(payload) => {
                            return Err(CoreError::TrainingWorkerPanicked {
                                shard,
                                cause: crate::error::panic_message(payload),
                            })
                        }
                    }
                }
                Ok(all)
            });
            match scoped {
                Ok(inner) => inner?,
                // A shard that panicked after its handle was consumed still
                // surfaces through the scope result; attribute it there.
                Err(payload) => {
                    return Err(CoreError::TrainingWorkerPanicked {
                        shard: 0,
                        cause: crate::error::panic_message(payload),
                    })
                }
            }
        };
        let (mut loss, mut pred, mut kl) = (0.0, 0.0, 0.0);
        for r in &results {
            r.buf.merge_into(&mut self.store);
            loss += r.loss;
            pred += r.pred;
            kl += r.kl;
        }
        self.store.clip_grad_norm(5.0);
        let guards = opt.step(&mut self.store);
        Ok((loss, pred / b as f64, kl / b as f64, guards))
    }

    /// Forward/backward for one sample on its own tape, gradients into a
    /// private buffer. The per-sample loss is scaled `1/batch` (and the aux
    /// node loss by its row share) so the merged batch matches a joint pass.
    fn train_sample(
        &self,
        fq: &FeaturizedQep,
        eps: Tensor,
        batch_size: usize,
        total_aux: usize,
        index: usize,
    ) -> Result<SampleGrad, CoreError> {
        let mut g = Graph::new();
        let (joint, aux) = self.encode_joint(&mut g, fq);
        let t = fq.target.ok_or(CoreError::MissingTarget { index })?;
        let targets = g.constant(Tensor::row(t.to_vec()));
        let out = self.vae.forward(&mut g, &self.store, joint, eps);
        let (sample_total, _recon, pred, kl) =
            self.vae.loss(&mut g, &out, joint, targets, self.config.beta);
        let mut total = g.scale(sample_total, 1.0 / batch_size as f32);
        if !aux.is_empty() && total_aux > 0 {
            let d = self.config.data_vec_dim();
            let node_vars: Vec<Var> = aux.iter().map(|(v, _)| g.slice_cols(*v, d, d + 3)).collect();
            let stacked_raw = g.stack_rows(&node_vars);
            // Node estimate slots carry z/5 (see featurize::ESTIMATE_SCALE);
            // rescale before comparing against raw z-scored truths.
            let stacked = g.scale(stacked_raw, 1.0 / crate::featurize::ESTIMATE_SCALE);
            let truth_rows: Vec<Tensor> =
                aux.iter().map(|(_, t)| Tensor::row(t.to_vec())).collect();
            let truth_refs: Vec<&Tensor> = truth_rows.iter().collect();
            let truths = g.constant(Tensor::stack_rows(&truth_refs));
            let node_loss = g.mse(stacked, truths);
            // This sample's mean over aux.len() rows, reweighted to its
            // share of the batch-wide mean over total_aux rows.
            let share = aux.len() as f32 / total_aux as f32;
            let weighted = g.scale(node_loss, self.config.node_loss_weight as f32 * share);
            total = g.add(total, weighted);
        }
        let pred_v = g.value(pred).get(0, 0) as f64;
        let kl_v = g.value(kl).get(0, 0) as f64;
        let mut buf = GradBuffer::new();
        let loss = g.backward(total, &mut buf) as f64;
        Ok(SampleGrad { buf, loss, pred: pred_v, kl: kl_v })
    }

    /// Predict (cardinality, cost, runtime) for an arbitrary plan of a
    /// query. Deterministic (zero latent noise). Uses the internal fallback
    /// session; serving workers use [`Self::predict_in`] with their own.
    pub fn predict(&self, query: &Query, plan: &PlanNode) -> Prediction {
        let mut sess = self.lock_fallback_session();
        self.predict_in(&mut sess.feat, query, plan)
    }

    /// [`Self::predict`] with caller-owned featurization caches.
    pub fn predict_in(&self, sess: &mut FeatSession, query: &Query, plan: &PlanNode) -> Prediction {
        let mut ctx = self.query_context(query);
        self.predict_with_context_in(sess, query, plan, &mut ctx)
    }

    /// Build the per-query state for [`Self::predict_with_context`]. The
    /// query encoder runs once here; each candidate plan then only pays for
    /// the subtrees no earlier candidate had, attention, and the VAE head —
    /// the MCTS hot loop builds one context per search and scores every
    /// rollout through it.
    pub fn query_context(&self, query: &Query) -> QueryContext {
        let fast = self.config.fast_inference && PlanFeatCache::supports(query);
        let qemb = if fast {
            let qf = self.feat.query_features(query);
            with_thread_scratch(|sc| {
                let e = self.query_enc.forward_inference(&self.store, &qf, sc);
                let owned = e.clone();
                sc.recycle(e);
                owned
            })
        } else {
            Tensor::zeros(1, 1)
        };
        QueryContext {
            qemb,
            plan_cache: PlanFeatCache::new(query),
            fast,
            memo: SubtreeMemo::default(),
            ids: Vec::new(),
            spans: Vec::new(),
            served: Vec::new(),
            lstm_rows: 0,
            node_positions: 0,
        }
    }

    /// [`Self::predict`] through a reusable [`QueryContext`]. With the fast
    /// path enabled this is tape-free: plan featurization hits the per-query
    /// cache and every layer writes into recycled scratch buffers.
    pub fn predict_with_context(
        &self,
        query: &Query,
        plan: &PlanNode,
        ctx: &mut QueryContext,
    ) -> Prediction {
        let mut sess = self.lock_fallback_session();
        self.predict_with_context_in(&mut sess.feat, query, plan, ctx)
    }

    /// [`Self::predict_with_context`] with caller-owned featurization
    /// caches — the lock-free serving hot path. A batch of one through
    /// [`Self::predict_batch_with_context_in`].
    pub fn predict_with_context_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plan: &PlanNode,
        ctx: &mut QueryContext,
    ) -> Prediction {
        let mut out = Vec::with_capacity(1);
        self.predict_batch_with_context_in(sess, query, &[plan], ctx, &mut out);
        out[0]
    }

    /// Score a batch of candidate plans of one query in **one batched
    /// forward pass**. Convenience wrapper over
    /// [`Self::predict_batch_with_context_in`] using the fallback session
    /// and a fresh [`QueryContext`].
    pub fn predict_batch(&self, query: &Query, plans: &[&PlanNode]) -> Vec<Prediction> {
        let mut sess = self.lock_fallback_session();
        let mut ctx = self.query_context(query);
        let mut out = Vec::with_capacity(plans.len());
        self.predict_batch_with_context_in(&mut sess.feat, query, plans, &mut ctx, &mut out);
        out
    }

    /// Batched [`Self::predict_with_context_in`]: fills `out` (cleared
    /// first) with one [`Prediction`] per plan, in order.
    ///
    /// On the fast path every subtree of the batch that no earlier call on
    /// `ctx` encoded runs through the LSTM — one step per subtree height —
    /// followed by one batched attention pass and one `[K, d]` VAE pass.
    /// `out[p]` is **bitwise identical** to scoring `plans[p]` alone on a
    /// fresh context: every layer preserves per-row reduction order (see
    /// `qpseeker_nn::tensor::matmul_kernel`'s FP-order contract), so neither
    /// the batch composition nor the memo's contents can change a value, and
    /// MCTS can defer rollouts into batches without changing any plan
    /// choice. Plans the fast path cannot featurize exactly — fast path off,
    /// or a plan that scans an alias the query does not bind, or one alias
    /// twice — are scored through the tape.
    pub fn predict_batch_with_context_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        let kn = self.intern_batch(sess, query, plans, norm, ctx);
        if kn > 0 {
            with_thread_scratch(|sc| {
                let joint = self.encode_joint_memo(ctx, sc);
                let p = self.vae.forward_inference_batch(&self.store, &joint, sc);
                sc.recycle(joint);
                for r in 0..kn {
                    out.push(decode(norm, [p.get(r, 0), p.get(r, 1), p.get(r, 2)]));
                }
                sc.recycle(p);
            });
        }
        if kn < plans.len() {
            merge_tape(out, plans, &ctx.served, |plan| {
                self.predict_tape_in(sess, query, plan, norm)
            });
        }
    }

    /// Seeded standard-normal latent draws for risk-aware scoring:
    /// `[samples, vae_latent]`, a pure function of `seed`. Every candidate
    /// of a query is scored against the *same* draw batch, so risk ranking
    /// is deterministic for any worker count or batch layout.
    pub fn risk_eps(&self, samples: usize, seed: u64) -> Tensor {
        Initializer::new(seed).standard_normal(samples, self.config.vae_latent)
    }

    /// Runtime mean and population standard deviation of one plan over the
    /// latent draws `eps` (`[S, latent]`): the §5 latent distribution,
    /// actually sampled at serving time instead of collapsed to `eps = 0`.
    /// A batch of one through [`Self::predict_risk_batch_with_context_in`].
    pub fn predict_risk_with_context_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plan: &PlanNode,
        ctx: &mut QueryContext,
        eps: &Tensor,
    ) -> (f64, f64) {
        let mut out = Vec::with_capacity(1);
        self.predict_risk_batch_with_context_in(sess, query, &[plan], ctx, eps, &mut out);
        out[0]
    }

    /// Batched [`Self::predict_risk_with_context_in`]: fills `out` (cleared
    /// first) with one `(mean, sigma)` per plan, in order, through the same
    /// memoized encoder as [`Self::predict_batch_with_context_in`]. Samples
    /// decode in ascending row order and accumulate in `f64`, and the
    /// sampled VAE pass shares the batched layers' per-row FP-order
    /// contract, so each pair is bitwise reproducible at any batch size.
    pub fn predict_risk_batch_with_context_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        eps: &Tensor,
        out: &mut Vec<(f64, f64)>,
    ) {
        out.clear();
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        let s = eps.rows();
        assert!(s > 0, "risk scoring needs at least one latent sample");
        let kn = self.intern_batch(sess, query, plans, norm, ctx);
        if kn > 0 {
            with_thread_scratch(|sc| {
                let joint = self.encode_joint_memo(ctx, sc);
                // Sample-major `[S*K, 3]`: candidate k's sample si is row
                // `si*K + k`.
                let p = self.vae.forward_inference_sampled(&self.store, &joint, eps, sc);
                sc.recycle(joint);
                let mut times = Vec::with_capacity(s);
                for k in 0..kn {
                    out.push(risk_stats(norm, &p, kn, k, &mut times));
                }
                sc.recycle(p);
            });
        }
        if kn < plans.len() {
            merge_tape(out, plans, &ctx.served, |plan| {
                self.risk_tape_in(sess, query, plan, norm, eps)
            });
        }
    }

    /// Intern the subtrees of every plan the fast path serves into `ctx`,
    /// recording their post-order ids (`ctx.ids`), node counts
    /// (`ctx.spans`) and which plans were served (`ctx.served`). Returns the
    /// number of served plans.
    fn intern_batch(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        norm: &TargetNormalizer,
        ctx: &mut QueryContext,
    ) -> usize {
        ctx.ids.clear();
        ctx.spans.clear();
        ctx.served.clear();
        for plan in plans {
            let before = ctx.ids.len();
            let served = ctx.fast
                && self.feat.intern_plan(
                    sess,
                    query,
                    plan,
                    norm,
                    &mut ctx.plan_cache,
                    &mut ctx.ids,
                );
            if served {
                ctx.spans.push(ctx.ids.len() - before);
            }
            ctx.served.push(served);
        }
        ctx.spans.len()
    }

    /// The fast-path plan encoder shared by scalar, batched and risk
    /// scoring: encode the subtrees [`Self::intern_batch`] interned that
    /// the memo lacks, gather each served plan's post-order node rows, and
    /// return the `[K, joint_dim]` joint embeddings (QPAttention output; the
    /// concatenation fallback for single-node plans). Plans run through
    /// attention in runs of equal node count; the per-row contract makes
    /// the grouping invisible.
    fn encode_joint_memo(&self, ctx: &mut QueryContext, sc: &mut ScratchArena) -> Tensor {
        ctx.lstm_rows +=
            self.plan_enc.encode_subtrees(&self.store, &ctx.plan_cache, &mut ctx.memo, sc);
        ctx.node_positions += ctx.ids.len();
        let (kn, qd, od) = (ctx.spans.len(), ctx.qemb.cols(), self.plan_enc.out_dim());
        let mut joint = sc.take(kn, self.config.joint_dim());
        let (mut p, mut at) = (0, 0);
        while p < kn {
            let n = ctx.spans[p];
            let run = ctx.spans[p..].iter().take_while(|&&m| m == n).count();
            let ids = &ctx.ids[at..at + run * n];
            if n > 1 && self.config.use_attention {
                let mut qb = sc.take(run, qd);
                for r in 0..run {
                    qb.row_slice_mut(r).copy_from_slice(ctx.qemb.data());
                }
                let mut kv = sc.take(run * n, od);
                for (r, &id) in ids.iter().enumerate() {
                    kv.row_slice_mut(r).copy_from_slice(ctx.memo.h_row(id));
                }
                let j = self.attn.forward_inference_batch(&self.store, &qb, &kv, n, sc);
                for r in 0..run {
                    joint.row_slice_mut(p + r).copy_from_slice(j.row_slice(r));
                }
                sc.recycle(qb);
                sc.recycle(kv);
                sc.recycle(j);
            } else {
                for r in 0..run {
                    let row = joint.row_slice_mut(p + r);
                    row[..qd].copy_from_slice(ctx.qemb.data());
                    row[qd..].copy_from_slice(ctx.memo.h_row(ids[(r + 1) * n - 1]));
                }
            }
            p += run;
            at += run * n;
        }
        joint
    }

    /// One plan through the autodiff tape with zero latent noise.
    fn predict_tape_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plan: &PlanNode,
        norm: &TargetNormalizer,
    ) -> Prediction {
        let fq = self.feat.featurize(sess, query, plan, None, norm, "");
        let (preds, _mu) = self.forward_tape(&fq);
        decode(norm, preds)
    }

    /// One plan's runtime mean and sigma over `eps` through the tape:
    /// featurize once, one forward per sample with the explicit noise row
    /// (the training-path reparameterization).
    fn risk_tape_in(
        &self,
        sess: &mut FeatSession,
        query: &Query,
        plan: &PlanNode,
        norm: &TargetNormalizer,
        eps: &Tensor,
    ) -> (f64, f64) {
        let fq = self.feat.featurize(sess, query, plan, None, norm, "");
        let mut times = Vec::with_capacity(eps.rows());
        for i in 0..eps.rows() {
            let mut g = Graph::new();
            let (joint, _aux) = self.encode_joint(&mut g, &fq);
            let out = self.vae.forward(&mut g, &self.store, joint, eps_row(eps, i));
            let p = g.value(out.predictions);
            times.push(norm.decode([p.get(0, 0), p.get(0, 1), p.get(0, 2)])[2]);
        }
        mean_sigma(&times)
    }

    /// [`Self::predict_batch_with_context_in`] through an
    /// [`EvalBroker`](crate::evalbroker::EvalBroker): featurization and the
    /// memoized plan encoder run here, on the submitter's own context, and
    /// only the joint rows go to the broker, whose VAE pass fuses them with
    /// other members' rows. `out[p]` is bitwise identical to the local call
    /// on the same plans — the VAE pass keeps the per-row FP-order
    /// contract, so fusing with other requests cannot change any value.
    pub(crate) fn broker_predict_batch_in(
        &self,
        member: &BrokerMember,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        let kn = self.intern_batch(sess, query, plans, norm, ctx);
        if kn > 0 {
            match self.submit_joint(member, ctx, None) {
                FusedOutcome::Mean(preds) => out.extend(preds),
                _ => unreachable!("mean submission answered with a risk result"),
            }
        }
        if kn < plans.len() {
            merge_tape(out, plans, &ctx.served, |plan| {
                self.predict_tape_in(sess, query, plan, norm)
            });
        }
    }

    /// Risk-scoring sibling of [`Self::broker_predict_batch_in`]: one
    /// `(mean, sigma)` per plan over the caller's seeded `eps` block, each
    /// pair bitwise identical to
    /// [`Self::predict_risk_batch_with_context_in`] on the same plans.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn broker_predict_risk_batch_in(
        &self,
        member: &BrokerMember,
        sess: &mut FeatSession,
        query: &Query,
        plans: &[&PlanNode],
        ctx: &mut QueryContext,
        eps: &Tensor,
        out: &mut Vec<(f64, f64)>,
    ) {
        out.clear();
        assert!(eps.rows() > 0, "risk scoring needs at least one latent sample");
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        let kn = self.intern_batch(sess, query, plans, norm, ctx);
        if kn > 0 {
            match self.submit_joint(member, ctx, Some(eps)) {
                FusedOutcome::Risk(stats) => out.extend(stats),
                _ => unreachable!("risk submission answered with a mean result"),
            }
        }
        if kn < plans.len() {
            merge_tape(out, plans, &ctx.served, |plan| {
                self.risk_tape_in(sess, query, plan, norm, eps)
            });
        }
    }

    /// Encode the batch [`Self::intern_batch`] left in `ctx`, submit its
    /// `[K, joint_dim]` joint rows (plus `eps` when risk scoring) and block
    /// until the broker answers. The encoder's scratch borrow ends before
    /// the submit: the member that completes a round runs the fused pass on
    /// its own thread's scratch arena.
    fn submit_joint(
        &self,
        member: &BrokerMember,
        ctx: &mut QueryContext,
        eps: Option<&Tensor>,
    ) -> FusedOutcome {
        let joint = with_thread_scratch(|sc| self.encode_joint_memo(ctx, sc));
        let key = BucketKey {
            model: self as *const QPSeeker as usize,
            samples: eps.map_or(0, Tensor::rows),
        };
        let (outcome, joint) = member.submit(Submission { key, joint, eps: eps.cloned() });
        with_thread_scratch(|sc| sc.recycle(joint));
        if let FusedOutcome::Poisoned(msg) = outcome {
            panic!("fused candidate evaluation failed: {msg}");
        }
        outcome
    }

    /// Execute one broker bucket: the joint rows of every submission,
    /// concatenated submission-major, through ONE VAE pass — mean scoring,
    /// or sampled with each row's own submission's eps block — decoded
    /// into one outcome per submission, in order. Called by the flush
    /// leader with the broker lock held; every submitter is parked, so its
    /// rows are stable for the duration.
    pub(crate) fn fused_eval(&self, subs: &[Submission]) -> Vec<FusedOutcome> {
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        let kn: usize = subs.iter().map(|s| s.joint.rows()).sum();
        with_thread_scratch(|sc| {
            let mut joint = sc.take(kn, self.config.joint_dim());
            let mut at = 0;
            for sub in subs {
                let len = sub.joint.data().len();
                joint.data_mut()[at..at + len].copy_from_slice(sub.joint.data());
                at += len;
            }
            let risk = subs.first().is_some_and(|s| s.eps.is_some());
            let p = if risk {
                let eps_of: Vec<&Tensor> = subs
                    .iter()
                    .flat_map(|s| {
                        let eps = s.eps.as_ref().expect("buckets are keyed by scoring kind");
                        std::iter::repeat_n(eps, s.joint.rows())
                    })
                    .collect();
                self.vae.forward_inference_sampled_multi(&self.store, &joint, &eps_of, sc)
            } else {
                self.vae.forward_inference_batch(&self.store, &joint, sc)
            };
            sc.recycle(joint);
            let mut times = Vec::new();
            let mut at = 0;
            let outcomes = subs
                .iter()
                .map(|sub| {
                    let rows = at..at + sub.joint.rows();
                    at = rows.end;
                    if risk {
                        FusedOutcome::Risk(
                            rows.map(|k| risk_stats(norm, &p, kn, k, &mut times)).collect(),
                        )
                    } else {
                        FusedOutcome::Mean(
                            rows.map(|r| decode(norm, [p.get(r, 0), p.get(r, 1), p.get(r, 2)]))
                                .collect(),
                        )
                    }
                })
                .collect();
            sc.recycle(p);
            outcomes
        })
    }

    /// Reference prediction through the autodiff tape (the training-path
    /// forward). The fast path is property-tested to match this within 1e-5;
    /// it also backs prediction when `config.fast_inference` is off.
    pub fn predict_tape(&self, query: &Query, plan: &PlanNode) -> Prediction {
        let norm = self.normalizer.as_ref().expect("model must be fitted before predict");
        let mut sess = self.lock_fallback_session();
        self.predict_tape_in(&mut sess.feat, query, plan, norm)
    }

    /// The 32-d latent mean of a QEP (Fig. 5's latent space).
    pub fn latent_mu(&self, query: &Query, plan: &PlanNode) -> Vec<f32> {
        let norm = self.normalizer.as_ref().expect("model must be fitted before latent_mu");
        let fq = {
            let mut sess = self.lock_fallback_session();
            self.feat.featurize(&mut sess.feat, query, plan, None, norm, "")
        };
        let (_preds, mu) = self.forward_tape(&fq);
        mu
    }

    fn forward_tape(&self, fq: &FeaturizedQep) -> ([f32; 3], Vec<f32>) {
        let mut g = Graph::new();
        let (joint, _aux) = self.encode_joint(&mut g, fq);
        let eps = Tensor::zeros(1, self.config.vae_latent);
        let out = self.vae.forward(&mut g, &self.store, joint, eps);
        let p = g.value(out.predictions);
        let preds = [p.get(0, 0), p.get(0, 1), p.get(0, 2)];
        let mu = g.value(out.mu).data().to_vec();
        (preds, mu)
    }

    /// Predicted runtime only (the MCTS scoring function).
    pub fn predict_runtime_ms(&self, query: &Query, plan: &PlanNode) -> f64 {
        self.predict(query, plan).runtime_ms
    }

    /// QPAttention scores: for each attention head, the softmax weight the
    /// query embedding puts on every plan node (postorder). This is the
    /// paper's §4.3 introspection — "which nodes in the plan have the
    /// higher impact on the final estimations". Single-node plans (no
    /// attention) return an empty vector.
    pub fn attention_scores(&self, query: &Query, plan: &PlanNode) -> Vec<Vec<f32>> {
        let norm = self.normalizer.as_ref().expect("model must be fitted first");
        let fq = {
            let mut sess = self.lock_fallback_session();
            self.feat.featurize(&mut sess.feat, query, plan, None, norm, "")
        };
        if fq.plan.count() <= 1 || !self.config.use_attention {
            return Vec::new();
        }
        let mut g = Graph::new();
        let qv = self.query_enc.forward(&mut g, &self.store, &fq.query);
        let ep = self.plan_enc.forward(&mut g, &self.store, &fq.plan);
        let (_out, scores) = self.attn.forward(&mut g, &self.store, qv, ep.nodes);
        scores.iter().map(|&s| g.value(s).data().to_vec()).collect()
    }
}

/// Cached per-query inference state, shared by every candidate plan of one
/// query: the tape-free query embedding, the plan featurization cache, and
/// the subtree memo of plan-encoder states. Built by
/// [`QPSeeker::query_context`].
pub struct QueryContext {
    qemb: Tensor,
    plan_cache: PlanFeatCache,
    /// False when the fast path cannot serve this query (toggle off, or
    /// more than 64 relations); predictions then take the tape path.
    /// Crate-visible so the MCTS loop can pick the matching plan
    /// materialization (see `PlanAssembler::build_for_eval`).
    pub(crate) fast: bool,
    /// LSTM `(h, c)` per subtree interned in `plan_cache`.
    memo: SubtreeMemo,
    /// The current batch's served plans: post-order subtree ids, back to
    /// back, and each plan's node count.
    ids: Vec<u32>,
    spans: Vec<usize>,
    /// Per plan of the current batch: served by the fast path (else tape).
    served: Vec<bool>,
    lstm_rows: usize,
    node_positions: usize,
}

impl QueryContext {
    /// LSTM rows the plan encoder has computed through this context: one
    /// per distinct subtree of the plans scored on the fast path.
    pub fn lstm_rows(&self) -> usize {
        self.lstm_rows
    }

    /// Plan-node positions scored through this context on the fast path:
    /// the LSTM rows an encoder without the subtree memo would compute.
    /// Plans scored through an [`crate::evalbroker::EvalBroker`] count in
    /// both counters exactly as scored locally (the submitter encodes them
    /// through this context); plans scored through the tape count in
    /// neither.
    pub fn node_positions(&self) -> usize {
        self.node_positions
    }

    /// Forget every memoized subtree and zero both counters, keeping the
    /// query embedding and the featurization caches: the start of an
    /// independent search on the same query.
    pub(crate) fn reset_memo(&mut self) {
        self.plan_cache.clear_subtrees();
        self.memo.clear();
        self.lstm_rows = 0;
        self.node_positions = 0;
    }
}

/// One epoch boundary of a journaled training run, as persisted by
/// [`QPSeeker::fit_resumable`]: everything needed to continue the run and
/// land on bitwise-identical parameters.
///
/// The RNG/noise cursor is implicit: it is a pure function of
/// (`epochs_done`, `n_samples`, batch size), so resume replays the
/// completed epochs' draws instead of serializing generator internals —
/// both of which are validated before any state is restored.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainSnapshot {
    /// [`ModelConfig::fingerprint`] of the run that wrote the snapshot.
    pub config_fingerprint: u64,
    /// Training-set size the epoch plan was built from.
    pub n_samples: usize,
    /// Completed epochs (also the snapshot's sequence number).
    pub epochs_done: usize,
    /// The run's total epoch budget.
    pub total_epochs: usize,
    /// Optimizer moments and step counter, exact.
    pub optimizer: Adam,
    /// Every parameter tensor at the epoch boundary.
    pub store: ParamStore,
    /// The fitted target normalizer.
    pub normalizer: Option<TargetNormalizer>,
    /// Per-epoch mean losses so far (the eventual [`TrainReport`] prefix).
    pub epoch_losses: Vec<f64>,
    /// Last completed epoch's mean prediction loss.
    pub final_pred: f64,
    /// Last completed epoch's mean KL.
    pub final_kl: f64,
    /// Accumulated numerical-guard counters.
    pub guards: StepReport,
}

/// Where the epoch loop picks up after a snapshot restore.
struct ResumePoint {
    opt: Adam,
    start_epoch: usize,
    epoch_losses: Vec<f64>,
    final_pred: f64,
    final_kl: f64,
    guards: StepReport,
}

/// One sample's contribution to a training step.
struct SampleGrad {
    buf: GradBuffer,
    /// Per-sample total loss, pre-scaled by `1/batch` (sums to batch loss).
    loss: f64,
    /// Per-sample prediction MSE (batch value = mean over samples).
    pred: f64,
    /// Per-sample KL (batch value = mean over samples).
    kl: f64,
}

/// Denormalize one `(card, cost, time)` prediction row.
fn decode(norm: &TargetNormalizer, row: [f32; 3]) -> Prediction {
    let raw = norm.decode(row);
    Prediction { cardinality: raw[0], cost: raw[1], runtime_ms: raw[2] }
}

/// Complete `out`, which holds one result per served plan in order, with a
/// `tape` result for every plan the fast path did not serve.
fn merge_tape<T>(
    out: &mut Vec<T>,
    plans: &[&PlanNode],
    served: &[bool],
    mut tape: impl FnMut(&PlanNode) -> T,
) {
    let mut fast = std::mem::take(out).into_iter();
    for (plan, &ok) in plans.iter().zip(served) {
        out.push(if ok { fast.next().expect("one result per served plan") } else { tape(plan) });
    }
}

/// Row `i` of the batch noise tensor as a standalone `[1, latent]` tensor.
fn eps_row(eps_all: &Tensor, i: usize) -> Tensor {
    Tensor::row(eps_all.row_slice(i).to_vec())
}

/// Runtime `(mean, sigma)` of candidate `k` of `kn` from sample-major
/// `[S·kn, 3]` predictions (candidate `k`'s sample `si` is row `si·kn + k`):
/// samples decode in ascending order and accumulate in `f64`.
fn risk_stats(
    norm: &TargetNormalizer,
    p: &Tensor,
    kn: usize,
    k: usize,
    times: &mut Vec<f64>,
) -> (f64, f64) {
    times.clear();
    for si in 0..p.rows() / kn {
        let r = si * kn + k;
        times.push(norm.decode([p.get(r, 0), p.get(r, 1), p.get(r, 2)])[2]);
    }
    mean_sigma(times)
}

/// Mean and population standard deviation, accumulated in `f64` in slice
/// order — a fixed reduction order, so the result is bitwise reproducible
/// for a fixed sample sequence.
fn mean_sigma(times: &[f64]) -> (f64, f64) {
    let n = times.len() as f64;
    let mut mean = 0.0;
    for &t in times {
        mean += t;
    }
    mean /= n;
    let mut var = 0.0;
    for &t in times {
        let d = t - mean;
        var += d * d;
    }
    var /= n;
    (mean, var.sqrt())
}

/// Number of nodes carrying ground truth (the auxiliary-loss rows).
fn count_truth_nodes(node: &crate::featurize::FeatNode) -> usize {
    usize::from(node.truth.is_some()) + node.children.iter().map(count_truth_nodes).sum::<usize>()
}

/// Walker pairing postorder node vars with featurized truths.
struct NodeTruthWalker<'v, 'o> {
    vars: &'v [Var],
    pos: usize,
    out: &'o mut Vec<(Var, [f32; 3])>,
}

fn collect_node_truths(node: &crate::featurize::FeatNode, w: &mut NodeTruthWalker) {
    for c in &node.children {
        collect_node_truths(c, w);
    }
    let var = w.vars[w.pos];
    w.pos += 1;
    if let Some(t) = node.truth {
        w.out.push((var, t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::optimizer::PgOptimizer;
    use qpseeker_engine::query::{ColRef, JoinPred, RelRef};
    use qpseeker_storage::datagen::imdb;
    use qpseeker_workloads::{synthetic, SyntheticConfig};

    fn tiny_qeps(db: &Database, n: usize) -> Vec<Qep> {
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: n, seed: 3 });
        w.qeps
    }

    #[test]
    fn model_constructs_with_paper_scale_parameter_count() {
        let db = Arc::new(imdb::generate(0.02, 1));
        let model = QPSeeker::new(&db, ModelConfig::paper());
        let params = model.num_parameters();
        // The paper quotes 10.8M; our schema dims land in the same regime.
        assert!((8_000_000..16_000_000).contains(&params), "paper-config parameter count {params}");
    }

    #[test]
    fn training_reduces_loss_and_predicts_finite() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 24);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        let report = model.fit(&refs).expect("training succeeds");
        assert_eq!(report.epoch_losses.len(), ModelConfig::small().epochs);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first, "loss should drop: {first} -> {last}");
        let p = model.predict(&qeps[0].query, &qeps[0].plan);
        assert!(p.cardinality.is_finite() && p.cardinality >= 0.0);
        assert!(p.runtime_ms.is_finite() && p.runtime_ms >= 0.0);
    }

    #[test]
    fn prediction_is_deterministic() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 10);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        let a = model.predict(&qeps[0].query, &qeps[0].plan);
        let b = model.predict(&qeps[0].query, &qeps[0].plan);
        assert_eq!(a, b);
    }

    #[test]
    fn latent_dimension_matches_config() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let qeps = tiny_qeps(&db, 8);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let cfg = ModelConfig::small();
        let latent = cfg.vae_latent;
        let mut model = QPSeeker::new(&db, cfg);
        model.fit(&refs).expect("training succeeds");
        let mu = model.latent_mu(&qeps[0].query, &qeps[0].plan);
        assert_eq!(mu.len(), latent);
        assert!(mu.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn different_plans_of_same_query_get_different_predictions() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("cast_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("cast_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        let qeps = tiny_qeps(&db, 12);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        use qpseeker_engine::plan::{JoinOp, ScanOp};
        let mk = |op| {
            PlanNode::join(
                &q,
                op,
                PlanNode::scan(&q, "title", ScanOp::SeqScan),
                PlanNode::scan(&q, "cast_info", ScanOp::SeqScan),
            )
        };
        let a = model.predict(&q, &mk(JoinOp::HashJoin));
        let b = model.predict(&q, &mk(JoinOp::NestedLoopJoin));
        assert_ne!(a.runtime_ms, b.runtime_ms);
    }

    #[test]
    fn batched_predictions_bitwise_equal_scalar_fast_path() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let mut q = Query::new("q");
        q.relations =
            vec![RelRef::new("title"), RelRef::new("cast_info"), RelRef::new("movie_info")];
        q.joins = vec![
            JoinPred {
                left: ColRef::new("cast_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
            JoinPred {
                left: ColRef::new("movie_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
        ];
        let qeps = tiny_qeps(&db, 12);
        let refs: Vec<&Qep> = qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        use qpseeker_engine::plan::{JoinOp, ScanOp};
        let mk = |a: &str, b: &str, c: &str, j1, j2| {
            PlanNode::join(
                &q,
                j2,
                PlanNode::join(
                    &q,
                    j1,
                    PlanNode::scan(&q, a, ScanOp::SeqScan),
                    PlanNode::scan(&q, b, ScanOp::IndexScan),
                ),
                PlanNode::scan(&q, c, ScanOp::SeqScan),
            )
        };
        let plans = [
            mk("title", "cast_info", "movie_info", JoinOp::HashJoin, JoinOp::HashJoin),
            mk("cast_info", "title", "movie_info", JoinOp::MergeJoin, JoinOp::NestedLoopJoin),
            mk("movie_info", "title", "cast_info", JoinOp::NestedLoopJoin, JoinOp::HashJoin),
            mk("title", "movie_info", "cast_info", JoinOp::HashJoin, JoinOp::MergeJoin),
            mk("title", "cast_info", "movie_info", JoinOp::MergeJoin, JoinOp::MergeJoin),
        ];
        let plan_refs: Vec<&PlanNode> = plans.iter().collect();
        let batched = model.predict_batch(&q, &plan_refs);
        assert_eq!(batched.len(), plans.len());
        for (p, plan) in plans.iter().enumerate() {
            let single = model.predict(&q, plan);
            assert_eq!(batched[p], single, "plan {p}: batched != scalar");
        }
    }

    #[test]
    #[should_panic(expected = "must be fitted")]
    fn predict_before_fit_panics() {
        let db = Arc::new(imdb::generate(0.02, 1));
        let model = QPSeeker::new(&db, ModelConfig::small());
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title")];
        let plan = PgOptimizer::new(&db).plan(&q);
        model.predict(&q, &plan);
    }

    #[test]
    fn fit_on_empty_is_a_typed_error() {
        let db = Arc::new(imdb::generate(0.02, 1));
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        let err = model.fit(&[]).unwrap_err();
        assert_eq!(err, CoreError::EmptyTrainingSet);
        assert!(err.to_string().contains("empty QEP set"));
    }
}

#[cfg(test)]
mod attention_tests {
    use super::*;
    use crate::config::ModelConfig;
    use qpseeker_storage::datagen::imdb;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};

    #[test]
    fn attention_scores_are_distributions_over_plan_nodes() {
        let db = Arc::new(imdb::generate(0.05, 1));
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 12, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        let qep = w.qeps.iter().find(|q| q.plan.len() > 1).expect("join plan exists");
        let scores = model.attention_scores(&qep.query, &qep.plan);
        assert_eq!(scores.len(), ModelConfig::small().attn_heads);
        for head in &scores {
            assert_eq!(head.len(), qep.plan.len());
            let sum: f32 = head.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "head weights must sum to 1, got {sum}");
            assert!(head.iter().all(|&w| w >= 0.0));
        }
        // Single-node plans have no attention.
        let single = w.qeps.iter().find(|q| q.plan.len() == 1).expect("scan-only query");
        assert!(model.attention_scores(&single.query, &single.plan).is_empty());
    }
}
