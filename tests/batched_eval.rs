//! Batched-evaluation equality suite.
//!
//! The MCTS batched scoring path (`QPSeeker::predict_batch`) promises that
//! scoring K candidate plans in one forward pass is **bitwise identical** to
//! scoring them one at a time — the invariant that lets the planner defer
//! rollouts into batches without changing any plan choice, and that keeps
//! PR4's cross-worker plan-equality guarantee intact with `batch_eval` on.
//! This file property-tests that promise over random left-deep plan pools,
//! and over sequences of mixed-shape batches scored through one
//! `QueryContext`, whose subtree memo must never change a value.

use proptest::prelude::*;
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::engine::inject::LeftDeepSpec;
use qpseeker_repro::engine::plan::{JoinOp, PlanNode, ScanOp};
use qpseeker_repro::engine::query::{ColRef, JoinPred, Query, RelRef};
use qpseeker_repro::storage::Database;
use qpseeker_repro::workloads::{synthetic, Qep, SyntheticConfig};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

fn shared_db() -> &'static Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(qpseeker_repro::storage::datagen::imdb::generate(0.04, 2)))
}

fn shared_model() -> &'static QPSeeker {
    static MODEL: OnceLock<QPSeeker> = OnceLock::new();
    MODEL.get_or_init(|| {
        let db = shared_db();
        let w = synthetic::generate(db, &SyntheticConfig { n_queries: 12, seed: 3 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        model
    })
}

/// A 3-relation star query over the IMDb FK schema: movie_info and
/// movie_keyword both join title.
fn star_query() -> Query {
    let mut q = Query::new("batched-eval-star");
    for t in ["title", "movie_info", "movie_keyword"] {
        q.relations.push(RelRef::new(t));
    }
    for t in ["movie_info", "movie_keyword"] {
        q.joins
            .push(JoinPred { left: ColRef::new(t, "movie_id"), right: ColRef::new("title", "id") });
    }
    q
}

/// Every connected left-deep relation order for the star (the hub `title`
/// must be joined by the second step at the latest).
const ORDERS: [[&str; 3]; 4] = [
    ["title", "movie_info", "movie_keyword"],
    ["title", "movie_keyword", "movie_info"],
    ["movie_info", "title", "movie_keyword"],
    ["movie_keyword", "title", "movie_info"],
];

/// Strategy: one random left-deep plan — a valid relation order plus
/// independently chosen scan and join operators.
fn plan_strategy() -> impl Strategy<Value = LeftDeepSpec> {
    (
        0usize..ORDERS.len(),
        proptest::collection::vec(0usize..ScanOp::ALL.len(), 3),
        proptest::collection::vec(0usize..JoinOp::ALL.len(), 2),
    )
        .prop_map(|(ord, scans, joins)| LeftDeepSpec {
            scans: ORDERS[ord]
                .iter()
                .zip(&scans)
                .map(|(rel, &s)| (rel.to_string(), ScanOp::ALL[s]))
                .collect(),
            joins: joins.iter().map(|&j| JoinOp::ALL[j]).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `predict_batch` over a random pool of 2..24 plans equals per-plan
    /// `predict` bit for bit, in all three predicted quantities. Duplicate
    /// plans in the pool are deliberately allowed — the batch path must not
    /// care.
    #[test]
    fn batched_predictions_bitwise_equal_scalar(
        specs in proptest::collection::vec(plan_strategy(), 2..24)
    ) {
        let model = shared_model();
        let query = star_query();
        let plans: Vec<PlanNode> = specs
            .iter()
            .map(|s| s.compile(&query).expect("valid left-deep spec"))
            .collect();
        let refs: Vec<&PlanNode> = plans.iter().collect();
        let batched = model.predict_batch(&query, &refs);
        prop_assert_eq!(batched.len(), plans.len());
        for (i, plan) in plans.iter().enumerate() {
            let scalar = model.predict(&query, plan);
            prop_assert_eq!(
                batched[i].runtime_ms.to_bits(), scalar.runtime_ms.to_bits(),
                "plan {}: batched runtime {} vs scalar {}",
                i, batched[i].runtime_ms, scalar.runtime_ms);
            prop_assert_eq!(batched[i].cost.to_bits(), scalar.cost.to_bits(), "plan {} cost", i);
            prop_assert_eq!(
                batched[i].cardinality.to_bits(), scalar.cardinality.to_bits(),
                "plan {} cardinality", i);
        }
    }
}

/// A 4-relation star over the IMDb FK schema, hub `title`.
const STAR4: [&str; 4] = ["title", "movie_info", "movie_keyword", "cast_info"];

fn star4_query() -> Query {
    let mut q = Query::new("batched-eval-star4");
    for t in STAR4 {
        q.relations.push(RelRef::new(t));
    }
    for &t in &STAR4[1..] {
        q.joins
            .push(JoinPred { left: ColRef::new(t, "movie_id"), right: ColRef::new("title", "id") });
    }
    q
}

/// One plan over the first `size` relations of `STAR4` sorted by `keys`:
/// left-deep, or bushy with split points from `splits`; `ops[0..4]` pick
/// each relation's scan, `ops[4..7]` the join operators in pre-order.
#[derive(Debug, Clone)]
struct TreeSpec {
    size: usize,
    keys: Vec<u32>,
    left_deep: bool,
    splits: Vec<usize>,
    ops: Vec<usize>,
}

fn tree_strategy() -> impl Strategy<Value = TreeSpec> {
    (
        1usize..5,
        proptest::collection::vec(0u32..1000, 4),
        proptest::bool::ANY,
        proptest::collection::vec(0usize..8, 3),
        proptest::collection::vec(0usize..3, 7),
    )
        .prop_map(|(size, keys, left_deep, splits, ops)| TreeSpec {
            size,
            keys,
            left_deep,
            splits,
            ops,
        })
}

impl TreeSpec {
    fn build(&self, q: &Query) -> PlanNode {
        let mut rels: Vec<usize> = (0..STAR4.len()).collect();
        rels.sort_by_key(|&r| (self.keys[r], r));
        rels.truncate(self.size);
        self.subtree(q, &rels, &mut 0)
    }

    fn subtree(&self, q: &Query, rels: &[usize], next: &mut usize) -> PlanNode {
        if let [r] = rels {
            return PlanNode::scan(q, STAR4[*r], ScanOp::ALL[self.ops[*r]]);
        }
        let k = *next;
        *next += 1;
        let cut =
            if self.left_deep { rels.len() - 1 } else { 1 + self.splits[k] % (rels.len() - 1) };
        let left = self.subtree(q, &rels[..cut], next);
        let right = self.subtree(q, &rels[cut..], next);
        PlanNode::join(q, JoinOp::ALL[self.ops[4 + k]], left, right)
    }
}

/// Structural identity of every subtree of `plan`, into `out`.
fn subtree_keys(plan: &PlanNode, out: &mut HashSet<String>) -> String {
    let key = match plan {
        PlanNode::Scan { alias, op, .. } => format!("{alias}:{op:?}"),
        PlanNode::Join { op, left, right, .. } => {
            format!("({} {op:?} {})", subtree_keys(left, out), subtree_keys(right, out))
        }
    };
    out.insert(key.clone());
    key
}

fn assert_pred_bits(got: Prediction, want: Prediction, what: &str) -> Result<(), String> {
    prop_assert_eq!(got.runtime_ms.to_bits(), want.runtime_ms.to_bits(), "{} runtime", what);
    prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{} cost", what);
    prop_assert_eq!(got.cardinality.to_bits(), want.cardinality.to_bits(), "{} card", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random sequences of batches — each scored scalar, batched or as a
    /// risk batch — through ONE `QueryContext`, over plans drawn as small
    /// op tweaks of a few base trees (so left-deep prefixes and bushy
    /// subtrees recur across batches) mixed with non-congruent shapes and
    /// sizes. Every value equals the same plan scored alone on a fresh
    /// context, bit for bit; the LSTM ran once per distinct subtree.
    #[test]
    fn memoized_sequences_bitwise_equal_fresh_single_plan_scoring(
        bases in proptest::collection::vec(tree_strategy(), 1..4),
        batches in proptest::collection::vec(
            (0usize..3, proptest::collection::vec((0usize..8, 0usize..7, 0usize..3), 1..8)),
            1..5,
        )
    ) {
        let model = shared_model();
        let query = star4_query();
        let eps = model.risk_eps(4, 0x5eed);
        let mut ctx = model.query_context(&query);
        let mut sess = FeatSession::new();
        let mut distinct = HashSet::new();
        let mut positions = 0usize;
        let (mut preds, mut risks) = (Vec::new(), Vec::new());
        for (kind, picks) in &batches {
            let plans: Vec<PlanNode> = picks
                .iter()
                .map(|&(base, at, op)| {
                    let mut spec = bases[base % bases.len()].clone();
                    spec.ops[at] = op;
                    spec.build(&query)
                })
                .collect();
            for p in &plans {
                subtree_keys(p, &mut distinct);
                positions += p.len();
            }
            let refs: Vec<&PlanNode> = plans.iter().collect();
            match kind {
                0 => {
                    for p in &plans {
                        let got = model.predict_with_context_in(&mut sess, &query, p, &mut ctx);
                        assert_pred_bits(got, model.predict(&query, p), "scalar")?;
                    }
                }
                1 => {
                    model.predict_batch_with_context_in(&mut sess, &query, &refs, &mut ctx, &mut preds);
                    prop_assert_eq!(preds.len(), plans.len());
                    for (got, p) in preds.iter().zip(&plans) {
                        assert_pred_bits(*got, model.predict(&query, p), "batched")?;
                    }
                }
                _ => {
                    model.predict_risk_batch_with_context_in(
                        &mut sess, &query, &refs, &mut ctx, &eps, &mut risks,
                    );
                    prop_assert_eq!(risks.len(), plans.len());
                    for (&(mean, sigma), p) in risks.iter().zip(&plans) {
                        let mut fresh = model.query_context(&query);
                        let (m, s) = model.predict_risk_with_context_in(
                            &mut FeatSession::new(), &query, p, &mut fresh, &eps,
                        );
                        prop_assert_eq!(mean.to_bits(), m.to_bits(), "risk mean");
                        prop_assert_eq!(sigma.to_bits(), s.to_bits(), "risk sigma");
                    }
                }
            }
        }
        prop_assert_eq!(ctx.node_positions(), positions);
        prop_assert_eq!(ctx.lstm_rows(), distinct.len());
    }
}

/// The memo's exact accounting on a hand-built batch: one LSTM row per
/// distinct subtree, one node position per plan node.
#[test]
fn lstm_rows_equal_distinct_subtrees_of_a_hand_built_batch() {
    let model = shared_model();
    let q = star_query();
    let scan = |a: &str| PlanNode::scan(&q, a, ScanOp::SeqScan);
    let prefix = || PlanNode::join(&q, JoinOp::HashJoin, scan("title"), scan("movie_info"));
    let plans = [
        // 5 nodes, all new.
        PlanNode::join(&q, JoinOp::HashJoin, prefix(), scan("movie_keyword")),
        // Shares the prefix and the leaf: 1 new root.
        PlanNode::join(&q, JoinOp::NestedLoopJoin, prefix(), scan("movie_keyword")),
        // Right-deep, not congruent with the others: 1 new root.
        PlanNode::join(&q, JoinOp::HashJoin, scan("movie_keyword"), prefix()),
        // A single scan already interned: nothing new.
        scan("title"),
    ];
    let refs: Vec<&PlanNode> = plans.iter().collect();
    let mut ctx = model.query_context(&q);
    let mut sess = FeatSession::new();
    let mut out = Vec::new();
    model.predict_batch_with_context_in(&mut sess, &q, &refs, &mut ctx, &mut out);
    assert_eq!(ctx.lstm_rows(), 3 + 1 + 3, "3 leaves, the prefix join, 3 roots");
    assert_eq!(ctx.node_positions(), 5 + 5 + 5 + 1);
    for (got, p) in out.iter().zip(&plans) {
        assert_eq!(*got, model.predict(&q, p));
    }
    // Scoring the batch again computes nothing.
    model.predict_batch_with_context_in(&mut sess, &q, &refs, &mut ctx, &mut out);
    assert_eq!(ctx.lstm_rows(), 7);
    assert_eq!(ctx.node_positions(), 32);
}

/// A scan of an alias the query does not bind, or a second scan of one
/// alias, has no exact bitmask featurization: the foreign alias would take
/// relation 0's bit (and share its memoized state), the repeated one would
/// turn a join into a leaf mask. Such plans take the tape path instead.
#[test]
fn unbound_alias_plans_are_scored_through_the_tape() {
    let model = shared_model();
    let q = star_query();
    let scan = |a: &str| PlanNode::scan(&q, a, ScanOp::SeqScan);
    // `title` is relation 0; neither plan may lean on the other rule.
    let foreign = PlanNode::Scan {
        alias: "cast_info".into(),
        table: "cast_info".into(),
        op: ScanOp::SeqScan,
        filters: Vec::new(),
    };
    let unbound = [
        PlanNode::join(&q, JoinOp::HashJoin, scan("movie_info"), foreign),
        PlanNode::join(&q, JoinOp::HashJoin, scan("movie_info"), scan("movie_info")),
    ];
    let bound = PlanNode::join(&q, JoinOp::HashJoin, scan("title"), scan("movie_info"));
    for plan in &unbound {
        let tape = model.predict_tape(&q, plan);
        let mut ctx = model.query_context(&q);
        let fast = model.predict_with_context(&q, plan, &mut ctx);
        for (f, t) in [
            (fast.runtime_ms, tape.runtime_ms),
            (fast.cost, tape.cost),
            (fast.cardinality, tape.cardinality),
        ] {
            assert!((f - t).abs() <= 1e-5 * t.abs().max(1.0), "fast {f} vs tape {t}");
        }
        assert_eq!((ctx.lstm_rows(), ctx.node_positions()), (0, 0), "the memo never saw it");
        // In a batch, the plan keeps its position among fast-path plans.
        let batch = model.predict_batch(&q, &[&bound, plan, &bound]);
        assert_eq!(batch, vec![model.predict(&q, &bound), fast, model.predict(&q, &bound)]);
    }
}
