//! PostgreSQL-style cardinality estimation.
//!
//! Histogram + MCV selectivity for scans, `1/max(ndv)` for equi-joins,
//! attribute-value independence throughout — the classic estimator whose
//! compounding errors on many-join, correlated queries are the baseline
//! QPSeeker is evaluated against (paper Tables 4/5: "PostgreSQL" column).

use crate::plan::PlanNode;
use crate::query::{CmpOp, Filter, JoinPred, Query};
use qpseeker_storage::{ColumnStats, Database};

/// Minimum selectivity floor (PG uses similar guards against zero estimates).
const MIN_SEL: f64 = 1e-7;

/// The estimator. Borrows the database for its ANALYZE statistics only —
/// it never looks at the data itself.
pub struct CardEstimator<'a> {
    db: &'a Database,
}

impl<'a> CardEstimator<'a> {
    pub fn new(db: &'a Database) -> Self {
        Self { db }
    }

    fn col_stats(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        self.db.table_stats(table).and_then(|s| s.col(column))
    }

    /// Selectivity of one scalar filter on its base table.
    pub fn filter_selectivity(&self, table: &str, f: &Filter) -> f64 {
        let Some(cs) = self.col_stats(table, &f.col.column) else {
            return 0.33; // PG's default for unknown columns
        };
        let sel = match f.op {
            CmpOp::Eq => cs.selectivity_eq(f.value),
            CmpOp::Lt => cs.histogram.selectivity_lt(f.value),
            CmpOp::Le => cs.histogram.selectivity_lt(f.value) + cs.selectivity_eq(f.value),
            CmpOp::Gt => 1.0 - cs.histogram.selectivity_lt(f.value) - cs.selectivity_eq(f.value),
            CmpOp::Ge => 1.0 - cs.histogram.selectivity_lt(f.value),
        };
        sel.clamp(MIN_SEL, 1.0)
    }

    /// Estimated output rows of scanning `alias` with its pushed-down filters
    /// (independence across filters). An alias `query` does not bind is read
    /// as a table name, as [`Self::join_selectivity`] does.
    pub fn scan_rows(&self, query: &Query, alias: &str) -> f64 {
        let table = query.table_of(alias).unwrap_or(alias);
        let n = self.db.table_stats(table).map(|s| s.n_rows).unwrap_or(1) as f64;
        let sel: f64 =
            query.filters_of(alias).iter().map(|f| self.filter_selectivity(table, f)).product();
        (n * sel).max(1.0)
    }

    /// Selectivity of one equi-join predicate: `1 / max(ndv(l), ndv(r))`.
    pub fn join_selectivity(&self, query: &Query, pred: &JoinPred) -> f64 {
        let ndv = |alias: &str, column: &str| -> f64 {
            let table = query.table_of(alias).unwrap_or(alias);
            self.col_stats(table, column).map(|c| c.n_distinct as f64).unwrap_or(100.0)
        };
        let l = ndv(&pred.left.alias, &pred.left.column);
        let r = ndv(&pred.right.alias, &pred.right.column);
        (1.0 / l.max(r).max(1.0)).clamp(MIN_SEL, 1.0)
    }

    /// Estimated per-node cardinalities of a plan, in postorder. The root
    /// entry is the query cardinality estimate.
    pub fn estimate_plan(&self, query: &Query, plan: &PlanNode) -> Vec<f64> {
        let mut out = Vec::with_capacity(plan.len());
        self.estimate_node(query, plan, &mut out);
        out
    }

    fn estimate_node(&self, query: &Query, node: &PlanNode, out: &mut Vec<f64>) -> f64 {
        let rows = match node {
            PlanNode::Scan { alias, .. } => self.scan_rows(query, alias),
            PlanNode::Join { left, right, preds, .. } => {
                let l = self.estimate_node(query, left, out);
                let r = self.estimate_node(query, right, out);
                let sel: f64 = preds.iter().map(|p| self.join_selectivity(query, p)).product();
                (l * r * sel).max(1.0)
            }
        };
        out.push(rows);
        rows
    }

    /// Estimated cardinality of the whole query (via an arbitrary valid join
    /// order; the estimate is order-independent under independence).
    pub fn estimate_query(&self, query: &Query) -> f64 {
        let scans: f64 = query.relations.iter().map(|r| self.scan_rows(query, &r.alias)).product();
        let joins: f64 = query.joins.iter().map(|j| self.join_selectivity(query, j)).product();
        (scans * joins).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::plan::{JoinOp, ScanOp};
    use crate::query::{ColRef, RelRef};
    use qpseeker_storage::datagen::imdb;

    fn db() -> Database {
        imdb::generate(0.3, 17)
    }

    #[test]
    fn unfiltered_scan_estimate_is_exact() {
        let db = db();
        let est = CardEstimator::new(&db);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title")];
        let rows = est.scan_rows(&q, "title");
        assert_eq!(rows as usize, db.table("title").unwrap().n_rows());
    }

    #[test]
    fn range_filter_estimate_close_to_truth() {
        let db = db();
        let est = CardEstimator::new(&db);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title")];
        q.filters.push(Filter {
            col: ColRef::new("title", "production_year"),
            op: CmpOp::Gt,
            value: 2000.0,
        });
        let estimate = est.scan_rows(&q, "title");
        let ex = Executor::new(&db);
        let truth = ex.execute(&PlanNode::scan(&q, "title", ScanOp::SeqScan)).rows as f64;
        let qerr = (estimate / truth).max(truth / estimate);
        assert!(qerr < 1.5, "single-column histogram estimate should be tight: q-err {qerr}");
    }

    #[test]
    fn correlated_filters_are_overestimated_wrongly() {
        // kind_id and episode_nr are correlated by construction; the
        // independence assumption must produce a visible error. This is a
        // *feature* of the substrate (it gives QPSeeker something to beat).
        let db = db();
        let est = CardEstimator::new(&db);
        let ex = Executor::new(&db);
        // episode_nr ≥ 45 only arises (mod-50 wraparound of the noise) for
        // kind_id = 0..3, so pairing it with kind_id = 1..  is *possible* but
        // far rarer than independence predicts; pairing with a kind far from
        // the wraparound region is (nearly) contradictory.
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title")];
        q.filters.push(Filter { col: ColRef::new("title", "kind_id"), op: CmpOp::Eq, value: 6.0 });
        q.filters.push(Filter {
            col: ColRef::new("title", "episode_nr"),
            op: CmpOp::Ge,
            value: 45.0,
        });
        let estimate = est.scan_rows(&q, "title");
        let truth = ex.execute(&PlanNode::scan(&q, "title", ScanOp::SeqScan)).rows.max(1) as f64;
        let qerr = (estimate / truth).max(truth / estimate);
        assert!(qerr > 1.5, "correlated predicates should defeat independence: q-err {qerr}");
    }

    #[test]
    fn join_estimate_within_order_of_magnitude_for_fk_join() {
        let db = db();
        let est = CardEstimator::new(&db);
        let ex = Executor::new(&db);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("cast_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("cast_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "title", ScanOp::SeqScan),
            PlanNode::scan(&q, "cast_info", ScanOp::SeqScan),
        );
        let est_rows = *est.estimate_plan(&q, &plan).last().unwrap();
        let truth = ex.execute(&plan).rows as f64;
        let qerr = (est_rows / truth).max(truth / est_rows);
        assert!(qerr < 3.0, "plain FK join estimate q-err {qerr}");
    }

    #[test]
    fn estimate_plan_is_postordered_and_order_invariant_at_root() {
        let db = db();
        let est = CardEstimator::new(&db);
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
        let p1 = PlanNode::join(
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
        let p2 = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::join(
                &q,
                JoinOp::HashJoin,
                PlanNode::scan(&q, "title", ScanOp::SeqScan),
                PlanNode::scan(&q, "movie_keyword", ScanOp::SeqScan),
            ),
            PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
        );
        let e1 = est.estimate_plan(&q, &p1);
        let e2 = est.estimate_plan(&q, &p2);
        assert_eq!(e1.len(), 5);
        let rel =
            (e1.last().unwrap() / e2.last().unwrap()).max(e2.last().unwrap() / e1.last().unwrap());
        assert!(rel < 1.01, "root estimate must be join-order invariant, ratio {rel}");
        // And matches the closed-form query estimate.
        let eq = est.estimate_query(&q);
        assert!((eq / e1.last().unwrap()).max(e1.last().unwrap() / eq) < 1.01);
    }

    #[test]
    fn selectivities_are_clamped() {
        let db = db();
        let est = CardEstimator::new(&db);
        let f =
            Filter { col: ColRef::new("title", "production_year"), op: CmpOp::Eq, value: -99999.0 };
        let s = est.filter_selectivity("title", &f);
        assert!((MIN_SEL..=1.0).contains(&s));
        let g = Filter { col: ColRef::new("title", "production_year"), op: CmpOp::Lt, value: 1e12 };
        assert!(est.filter_selectivity("title", &g) <= 1.0);
    }
}
