//! The Query Encoder (§4.1) and Plan Encoder (§4.2).

use crate::config::ModelConfig;
use crate::featurize::{FeatNode, PlanFeatCache, QueryFeatures};
use qpseeker_nn::prelude::*;

/// MSCN-style set encoder: relations and joins each go through an MLP
/// applied row-wise, masked mean pooling collapses each set, and the two
/// pooled vectors are concatenated into the query embedding.
#[derive(Debug, Clone)]
pub struct QueryEncoder {
    pub rel_mlp: Mlp,
    pub join_mlp: Mlp,
    out_dim: usize,
}

impl QueryEncoder {
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        cfg: &ModelConfig,
        n_tables: usize,
        n_joins: usize,
    ) -> Self {
        let mut rel_dims = vec![n_tables.max(1)];
        rel_dims.extend(std::iter::repeat_n(cfg.set_mlp_hidden, cfg.set_mlp_layers));
        rel_dims.push(cfg.set_mlp_out);
        let mut join_dims = vec![n_joins.max(1)];
        join_dims.extend(std::iter::repeat_n(cfg.set_mlp_hidden, cfg.set_mlp_layers));
        join_dims.push(cfg.set_mlp_out);
        Self {
            rel_mlp: Mlp::new(
                store,
                init,
                "query_enc.rel",
                &rel_dims,
                Activation::Relu,
                Activation::Relu,
            ),
            join_mlp: Mlp::new(
                store,
                init,
                "query_enc.join",
                &join_dims,
                Activation::Relu,
                Activation::Relu,
            ),
            out_dim: cfg.query_dim(),
        }
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Encode one query's set features → `[1, query_dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, feats: &QueryFeatures) -> Var {
        let rel = self.encode_set(g, store, &self.rel_mlp, &feats.rel_matrix, &feats.rel_mask);
        let join = self.encode_set(g, store, &self.join_mlp, &feats.join_matrix, &feats.join_mask);
        g.concat_cols(rel, join)
    }

    fn encode_set(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        mlp: &Mlp,
        matrix: &qpseeker_nn::tensor::Tensor,
        mask: &qpseeker_nn::tensor::Tensor,
    ) -> Var {
        let x = g.constant(matrix.clone());
        let m = g.constant(mask.clone());
        let h = mlp.forward(g, store, x); // [rows, out]
        let masked = g.mul_col_broadcast(h, m);
        let summed = g.sum_rows(masked); // [1, out]
        let count = mask.sum().max(1.0);
        g.scale(summed, 1.0 / count)
    }

    /// Tape-free [`Self::forward`]: identical math, scratch buffers instead
    /// of graph nodes. The result comes from `sc` — recycle it when done.
    pub fn forward_inference(
        &self,
        store: &ParamStore,
        feats: &QueryFeatures,
        sc: &mut ScratchArena,
    ) -> Tensor {
        let rel = self.set_inference(store, &self.rel_mlp, &feats.rel_matrix, &feats.rel_mask, sc);
        let join =
            self.set_inference(store, &self.join_mlp, &feats.join_matrix, &feats.join_mask, sc);
        let mut out = sc.take(1, rel.cols() + join.cols());
        out.data_mut()[..rel.cols()].copy_from_slice(rel.data());
        out.data_mut()[rel.cols()..].copy_from_slice(join.data());
        sc.recycle(rel);
        sc.recycle(join);
        out
    }

    fn set_inference(
        &self,
        store: &ParamStore,
        mlp: &Mlp,
        matrix: &Tensor,
        mask: &Tensor,
        sc: &mut ScratchArena,
    ) -> Tensor {
        let h = mlp.forward_inference(store, matrix, sc); // [rows, out]
        let mut pooled = sc.take(1, h.cols());
        for r in 0..h.rows() {
            let m = mask.get(r, 0);
            if m != 0.0 {
                for (p, v) in pooled.data_mut().iter_mut().zip(h.row_slice(r)) {
                    *p += v * m;
                }
            }
        }
        let inv = 1.0 / mask.sum().max(1.0);
        for p in pooled.data_mut() {
            *p *= inv;
        }
        sc.recycle(h);
        pooled
    }
}

/// Bottom-up LSTM-cell plan encoder. Each plan node is one LSTM step whose
/// input concatenates `[child data vectors | relation encoding | TaBERT |
/// op one-hot | estimates]`; children pass both their hidden/cell state
/// (averaged) and their output vectors (pooled into the parent's input).
#[derive(Debug, Clone)]
pub struct PlanEncoder {
    pub cell: LstmCell,
    data_dim: usize,
    out_dim: usize,
}

/// The encoder's result for one plan.
pub struct EncodedPlan {
    /// `[n_nodes, out_dim]` stacked node outputs, postorder.
    pub nodes: Var,
    /// The root node's output `[1, out_dim]`.
    pub root: Var,
    /// Per-node output vars in postorder (for the auxiliary node loss).
    pub node_vars: Vec<Var>,
}

/// Per-query memo of plan-encoder LSTM states: row `id` holds the `(h, c)`
/// of the subtree interned as `id` in the query's
/// [`PlanFeatCache`]. A node's bottom-up state depends only on its subtree,
/// and the candidates of one search share most subtrees, so each distinct
/// subtree is encoded once per search (see [`PlanEncoder::encode_subtrees`]).
/// Memory: `2 × plan_node_out` f32 per distinct subtree.
#[derive(Default)]
pub(crate) struct SubtreeMemo {
    h: Vec<f32>,
    c: Vec<f32>,
    /// Row width (`plan_node_out`).
    dim: usize,
    /// Rows computed so far (ids `0..rows`).
    rows: usize,
    /// Reused scheduling buffer for [`PlanEncoder::encode_subtrees`].
    pending: Vec<u32>,
}

impl SubtreeMemo {
    /// The output `h` of subtree `id`, `[out_dim]`.
    pub(crate) fn h_row(&self, id: u32) -> &[f32] {
        let at = id as usize * self.dim;
        &self.h[at..at + self.dim]
    }

    fn c_row(&self, id: u32) -> &[f32] {
        let at = id as usize * self.dim;
        &self.c[at..at + self.dim]
    }

    /// Drop every state (keeping the allocations); pair with
    /// [`PlanFeatCache::clear_subtrees`].
    pub(crate) fn clear(&mut self) {
        self.h.clear();
        self.c.clear();
        self.rows = 0;
    }
}

impl PlanEncoder {
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        cfg: &ModelConfig,
        n_tables: usize,
    ) -> Self {
        let input_dim = cfg.node_input_dim(n_tables);
        Self {
            cell: LstmCell::new(store, init, "plan_enc.cell", input_dim, cfg.plan_node_out),
            data_dim: cfg.data_vec_dim(),
            out_dim: cfg.plan_node_out,
        }
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Encode a featurized plan tree.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, plan: &FeatNode) -> EncodedPlan {
        let mut node_vars = Vec::with_capacity(plan.count());
        let (root_state, _root_h) = self.encode_node(g, store, plan, &mut node_vars);
        let root = root_state.h;
        let nodes = g.stack_rows(&node_vars);
        EncodedPlan { nodes, root, node_vars }
    }

    fn encode_node(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        node: &FeatNode,
        out: &mut Vec<Var>,
    ) -> (LstmState, Var) {
        let (input, state_in) = if node.children.is_empty() {
            // Leaf: zero padding for the child-data slot, EXPLAIN estimates
            // in the estimate slot, zero initial LSTM state.
            let zeros = g.constant(Tensor::zeros(1, self.data_dim));
            let mid = g.constant(node.mid.clone());
            let est =
                g.constant(node.leaf_est.clone().expect("leaf featurization includes estimates"));
            let input = g.concat_cols_all(&[zeros, mid, est]);
            (input, self.cell.zero_state(g, 1))
        } else {
            let mut child_states = Vec::with_capacity(node.children.len());
            let mut child_hs = Vec::with_capacity(node.children.len());
            for c in &node.children {
                let (s, h) = self.encode_node(g, store, c, out);
                child_states.push(s);
                child_hs.push(h);
            }
            // Mean-pool children outputs: data part and estimate part.
            let stacked = g.stack_rows(&child_hs);
            let pooled = g.mean_rows(stacked); // [1, out_dim]
            let child_data = g.slice_cols(pooled, 0, self.data_dim);
            let child_est = g.slice_cols(pooled, self.data_dim, self.out_dim);
            let mid = g.constant(node.mid.clone());
            let input = g.concat_cols_all(&[child_data, mid, child_est]);
            // Averaged child state feeds the parent cell.
            let state = average_states(g, &child_states);
            (input, state)
        };
        let state_out = self.cell.step(g, store, input, state_in);
        out.push(state_out.h);
        (state_out, state_out.h)
    }

    /// Tape-free [`Self::forward`] for every subtree interned in `cache`
    /// that `memo` does not hold yet, appending their LSTM states to `memo`
    /// (row = subtree id). Returns the number of rows computed.
    ///
    /// Pending subtrees are scheduled by height: all pending subtrees of one
    /// height run as ONE `rows = misses` LSTM step, after every child (which
    /// is strictly lower) is in the memo. No shape congruence is needed, and
    /// each row is bitwise identical to encoding that node inside its own
    /// plan alone: the packed GEMM guarantees per-row reduction order, and
    /// every other op here (state pooling, gate math, input assembly) is
    /// row-independent and mirrors the tape's op sequence.
    pub(crate) fn encode_subtrees(
        &self,
        store: &ParamStore,
        cache: &PlanFeatCache,
        memo: &mut SubtreeMemo,
        sc: &mut ScratchArena,
    ) -> usize {
        let (start, end) = (memo.rows, cache.subtree_count());
        if start >= end {
            return 0;
        }
        let d = self.out_dim;
        memo.dim = d;
        memo.h.resize(end * d, 0.0);
        memo.c.resize(end * d, 0.0);
        let mut pending = std::mem::take(&mut memo.pending);
        pending.clear();
        pending.extend(start as u32..end as u32);
        // Stable: ids of one height stay in first-seen order.
        pending.sort_by_key(|&id| cache.subtree(id).height);
        let input_dim = self.cell.input_dim;
        let mid_cols = input_dim - d;
        for level in pending.chunk_by(|&a, &b| cache.subtree(a).height == cache.subtree(b).height) {
            let rows = level.len();
            let mut input = sc.take(rows, input_dim);
            let LstmStateBuf { h: mut hsum, c: mut csum } = self.cell.zero_state_buf(rows, sc);
            for (r, &id) in level.iter().enumerate() {
                let x = input.row_slice_mut(r);
                cache.write_mid(id, &mut x[self.data_dim..self.data_dim + mid_cols]);
                match cache.subtree(id).children {
                    // Leaf: zero child-data slot and zero state, EXPLAIN
                    // estimates in the estimate slot.
                    None => x[self.data_dim + mid_cols..].copy_from_slice(cache.leaf_est(id)),
                    // Join: mean child state; the pooled h doubles as the
                    // child-data/estimate input.
                    Some((l, rt)) => {
                        mean_of_two(hsum.row_slice_mut(r), memo.h_row(l), memo.h_row(rt));
                        mean_of_two(csum.row_slice_mut(r), memo.c_row(l), memo.c_row(rt));
                        let pooled = hsum.row_slice(r);
                        x[..self.data_dim].copy_from_slice(&pooled[..self.data_dim]);
                        x[self.data_dim + mid_cols..].copy_from_slice(&pooled[self.data_dim..]);
                    }
                }
            }
            let state_in = LstmStateBuf { h: hsum, c: csum };
            let out = self.cell.step_inference(store, &input, &state_in, sc);
            sc.recycle(input);
            state_in.recycle(sc);
            for (r, &id) in level.iter().enumerate() {
                let at = id as usize * d;
                memo.h[at..at + d].copy_from_slice(out.h.row_slice(r));
                memo.c[at..at + d].copy_from_slice(out.c.row_slice(r));
            }
            out.recycle(sc);
        }
        memo.pending = pending;
        memo.rows = end;
        end - start
    }
}

/// `dst = (0 + a + b) / 2`: two child rows summed from zero in child order,
/// then scaled — the tape's `stack_rows` + `mean_rows` op sequence.
fn mean_of_two(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for ((o, x), y) in dst.iter_mut().zip(a).zip(b) {
        *o = (0.0 + x + y) * 0.5;
    }
}

fn average_states(g: &mut Graph, states: &[LstmState]) -> LstmState {
    assert!(!states.is_empty());
    if states.len() == 1 {
        return states[0];
    }
    let hs: Vec<Var> = states.iter().map(|s| s.h).collect();
    let cs: Vec<Var> = states.iter().map(|s| s.c).collect();
    let hstack = g.stack_rows(&hs);
    let cstack = g.stack_rows(&cs);
    LstmState { h: g.mean_rows(hstack), c: g.mean_rows(cstack) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::Featurizer;
    use crate::normalize::TargetNormalizer;
    use qpseeker_engine::executor::Executor;
    use qpseeker_engine::plan::{JoinOp, PlanNode, ScanOp};
    use qpseeker_engine::query::{ColRef, JoinPred, Query, RelRef};
    use qpseeker_storage::datagen::imdb;
    use qpseeker_tabert::{TabSim, TabertConfig};

    fn setup() -> (std::sync::Arc<qpseeker_storage::Database>, Query, PlanNode) {
        let db = std::sync::Arc::new(imdb::generate(0.05, 4));
        let mut q = Query::new("q");
        q.relations =
            vec![RelRef::new("title"), RelRef::new("movie_info"), RelRef::new("movie_keyword")];
        q.joins = vec![
            JoinPred {
                left: ColRef::new("movie_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
            JoinPred {
                left: ColRef::new("movie_keyword", "movie_id"),
                right: ColRef::new("title", "id"),
            },
        ];
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::join(
                &q,
                JoinOp::HashJoin,
                PlanNode::scan(&q, "title", ScanOp::SeqScan),
                PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
            ),
            PlanNode::scan(&q, "movie_keyword", ScanOp::SeqScan),
        );
        (db, q, plan)
    }

    #[test]
    fn query_encoder_output_shape() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let enc = QueryEncoder::new(
            &mut store,
            &mut init,
            &cfg,
            db.catalog.num_tables(),
            db.catalog.num_joins(),
        );
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let qf = f.query_features(&q);
        let mut g = Graph::new();
        let v = enc.forward(&mut g, &store, &qf);
        assert_eq!(g.value(v).shape(), (1, cfg.query_dim()));
        assert!(g.value(v).norm() > 0.0);
    }

    #[test]
    fn query_encoder_is_permutation_invariant() {
        // Set semantics: shuffling the relation order must not change the
        // embedding (mean pooling over one-hot rows).
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let enc = QueryEncoder::new(
            &mut store,
            &mut init,
            &cfg,
            db.catalog.num_tables(),
            db.catalog.num_joins(),
        );
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let qf1 = f.query_features(&q);
        let mut q2 = q.clone();
        q2.relations.reverse();
        let qf2 = f.query_features(&q2);
        let mut g = Graph::new();
        let v1 = enc.forward(&mut g, &store, &qf1);
        let v2 = enc.forward(&mut g, &store, &qf2);
        let (a, b) = (g.value(v1).clone(), g.value(v2).clone());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn plan_encoder_shapes_and_node_count() {
        let (db, q, plan) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let truth = Executor::new(&db).execute(&plan);
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, Some(&truth), &norm, "t");
        let mut g = Graph::new();
        let enc = penc.forward(&mut g, &store, &fq.plan);
        assert_eq!(g.value(enc.nodes).shape(), (5, cfg.plan_node_out));
        assert_eq!(g.value(enc.root).shape(), (1, cfg.plan_node_out));
        assert_eq!(enc.node_vars.len(), 5);
    }

    #[test]
    fn different_operators_give_different_encodings() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        let mk = |op| {
            PlanNode::join(
                &q,
                op,
                PlanNode::join(
                    &q,
                    JoinOp::HashJoin,
                    PlanNode::scan(&q, "title", ScanOp::SeqScan),
                    PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
                ),
                PlanNode::scan(&q, "movie_keyword", ScanOp::SeqScan),
            )
        };
        let fa = f.featurize(&mut sess, &q, &mk(JoinOp::HashJoin), None, &norm, "t");
        let fb = f.featurize(&mut sess, &q, &mk(JoinOp::NestedLoopJoin), None, &norm, "t");
        let mut g = Graph::new();
        let ea = penc.forward(&mut g, &store, &fa.plan);
        let eb = penc.forward(&mut g, &store, &fb.plan);
        assert_ne!(g.value(ea.root).data(), g.value(eb.root).data());
    }

    /// The subtree memo's reference pins: every memoized node row matches
    /// the tape encoder ([`PlanEncoder::forward`], the training-path
    /// forward) within 1e-5, and equals — bit for bit — the row a fresh
    /// context computes when that plan is encoded alone.
    #[test]
    fn memoized_encoding_matches_tape_and_fresh_context() {
        let (db, q, _) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        // Three left-deep candidates: different join orders and ops,
        // sharing the (title, movie_info) hash-join prefix twice.
        let mk = |a: &str, b: &str, c: &str, op| {
            PlanNode::join(
                &q,
                op,
                PlanNode::join(
                    &q,
                    JoinOp::HashJoin,
                    PlanNode::scan(&q, a, ScanOp::SeqScan),
                    PlanNode::scan(&q, b, ScanOp::SeqScan),
                ),
                PlanNode::scan(&q, c, ScanOp::SeqScan),
            )
        };
        let plans = [
            mk("title", "movie_info", "movie_keyword", JoinOp::HashJoin),
            mk("title", "movie_info", "movie_keyword", JoinOp::NestedLoopJoin),
            mk("movie_keyword", "title", "movie_info", JoinOp::MergeJoin),
        ];
        let mut cache = PlanFeatCache::new(&q);
        let mut ids = Vec::new();
        for p in &plans {
            assert!(f.intern_plan(&mut sess, &q, p, &norm, &mut cache, &mut ids));
        }
        // 3 leaves + 1 shared join + 2 roots, then 2 more joins for the
        // third order (its leaves are already interned).
        assert_eq!(cache.subtree_count(), 3 + 1 + 2 + 2);
        let mut sc = ScratchArena::new();
        let mut memo = SubtreeMemo::default();
        assert_eq!(penc.encode_subtrees(&store, &cache, &mut memo, &mut sc), 8);
        assert_eq!(penc.encode_subtrees(&store, &cache, &mut memo, &mut sc), 0, "all memoized");

        let mut at = 0;
        for p in &plans {
            let n = p.len();
            let shared = &ids[at..at + n];
            at += n;
            // Tape reference: the node outputs in post-order.
            let fq = f.featurize(&mut sess, &q, p, None, &norm, "t");
            let mut g = Graph::new();
            let enc = penc.forward(&mut g, &store, &fq.plan);
            assert_eq!(enc.node_vars.len(), n);
            for (&var, &id) in enc.node_vars.iter().zip(shared) {
                for (t, m) in g.value(var).data().iter().zip(memo.h_row(id)) {
                    assert!((t - m).abs() < 1e-5, "memo row {m} vs tape {t}");
                }
            }
            // Fresh context: this plan alone, nothing shared.
            let mut fresh_cache = PlanFeatCache::new(&q);
            let mut fresh_ids = Vec::new();
            assert!(f.intern_plan(&mut sess, &q, p, &norm, &mut fresh_cache, &mut fresh_ids));
            let mut fresh = SubtreeMemo::default();
            assert_eq!(penc.encode_subtrees(&store, &fresh_cache, &mut fresh, &mut sc), n);
            for (&s, &id) in shared.iter().zip(&fresh_ids) {
                assert_eq!(memo.h_row(s), fresh.h_row(id), "memo row is not bitwise fresh");
                assert_eq!(memo.c_row(s), fresh.c_row(id), "memo cell is not bitwise fresh");
            }
        }
        assert_eq!(at, ids.len());
    }

    #[test]
    fn gradients_flow_to_both_encoders() {
        let (db, q, plan) = setup();
        let cfg = ModelConfig::small();
        let mut store = ParamStore::new();
        let mut init = Initializer::new(0);
        let qenc = QueryEncoder::new(
            &mut store,
            &mut init,
            &cfg,
            db.catalog.num_tables(),
            db.catalog.num_joins(),
        );
        let penc = PlanEncoder::new(&mut store, &mut init, &cfg, db.catalog.num_tables());
        let norm = TargetNormalizer::fit(&[[1.0, 1.0, 1.0], [100.0, 50.0, 10.0]]);
        let f = Featurizer::new(db.clone(), TabSim::new(TabertConfig::paper_default()));
        let mut sess = crate::featurize::FeatSession::new();
        let fq = f.featurize(&mut sess, &q, &plan, None, &norm, "t");
        store.zero_grads();
        let mut g = Graph::new();
        let qv = qenc.forward(&mut g, &store, &fq.query);
        let pv = penc.forward(&mut g, &store, &fq.plan);
        let cat = g.concat_cols(qv, pv.root);
        let loss = g.sum_all(cat);
        g.backward(loss, &mut store);
        assert!(store.grad(qenc.rel_mlp.layers[0].w).norm() > 0.0);
        assert!(store.grad(qenc.join_mlp.layers[0].w).norm() > 0.0);
        assert!(store.grad(penc.cell.w_ih).norm() > 0.0);
        assert!(store.grad(penc.cell.w_hh).norm() > 0.0);
    }
}
