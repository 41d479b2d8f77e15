//! The user-facing DataFrame API (the Dataframe half of Fig. 2).
//!
//! A [`DataFrame`] is a lazily-built logical plan bound to a session
//! [`Context`]; `collect`/`count` trigger optimization, physical planning
//! (including any registered extension rules) and cluster execution.

use crate::context::Context;
use crate::expr::{col, Expr, PlanError};
use crate::optimizer::optimize;
use crate::physical::{gather, ExecPlan};
use crate::plan::{AggFunc, AggSpec, LogicalPlan};
use crate::planner::Planner;
use rowstore::{Row, Schema};
use std::collections::BTreeMap;
use std::sync::Arc;

impl Context {
    /// Start a DataFrame from a registered table.
    pub fn table(self: &Arc<Self>, name: &str) -> Result<DataFrame, PlanError> {
        let provider = self.provider(name)?;
        Ok(DataFrame {
            plan: LogicalPlan::Scan {
                table: name.to_string(),
                schema: provider.schema(),
            },
            ctx: Arc::clone(self),
        })
    }

    /// Parse and plan a SQL query.
    pub fn sql(self: &Arc<Self>, query: &str) -> Result<DataFrame, PlanError> {
        let plan = crate::sql::parse_query(query, self)?;
        Ok(DataFrame {
            plan,
            ctx: Arc::clone(self),
        })
    }
}

/// A lazily evaluated, distributed collection of rows.
#[derive(Clone)]
pub struct DataFrame {
    plan: LogicalPlan,
    ctx: Arc<Context>,
}

impl DataFrame {
    /// Wrap an explicit logical plan (extension crates use this).
    pub fn from_plan(plan: LogicalPlan, ctx: Arc<Context>) -> DataFrame {
        DataFrame { plan, ctx }
    }

    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    /// Output schema of this frame.
    pub fn schema(&self) -> Result<Arc<Schema>, PlanError> {
        self.plan.schema()
    }

    /// Keep rows satisfying `predicate`.
    pub fn filter(self, predicate: Expr) -> DataFrame {
        DataFrame {
            plan: LogicalPlan::Filter {
                input: Box::new(self.plan),
                predicate,
            },
            ctx: self.ctx,
        }
    }

    /// Project named columns.
    pub fn select(self, columns: &[&str]) -> DataFrame {
        let exprs = columns.iter().map(|c| (col(*c), c.to_string())).collect();
        DataFrame {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs,
            },
            ctx: self.ctx,
        }
    }

    /// Project computed expressions with output names.
    pub fn select_exprs(self, exprs: Vec<(Expr, String)>) -> DataFrame {
        DataFrame {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs,
            },
            ctx: self.ctx,
        }
    }

    /// Inner equi-join with another frame on `left_key = right_key`.
    pub fn join(self, right: DataFrame, left_key: &str, right_key: &str) -> DataFrame {
        DataFrame {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                left_key: left_key.to_string(),
                right_key: right_key.to_string(),
            },
            ctx: self.ctx,
        }
    }

    /// Group by columns; finish with [`GroupedFrame::agg`].
    pub fn group_by(self, columns: &[&str]) -> GroupedFrame {
        GroupedFrame {
            df: self,
            keys: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Sort by columns; each key is `(column, descending)`. Nulls last.
    pub fn sort(self, keys: &[(&str, bool)]) -> DataFrame {
        DataFrame {
            plan: LogicalPlan::Sort {
                input: Box::new(self.plan),
                keys: keys.iter().map(|(k, d)| (k.to_string(), *d)).collect(),
            },
            ctx: self.ctx,
        }
    }

    /// Take the first `n` rows.
    pub fn limit(self, n: usize) -> DataFrame {
        DataFrame {
            plan: LogicalPlan::Limit {
                input: Box::new(self.plan),
                n,
            },
            ctx: self.ctx,
        }
    }

    /// Optimize + plan physically (exposed for `explain` and tests).
    pub fn physical_plan(&self) -> Result<Arc<dyn ExecPlan>, PlanError> {
        let optimized = optimize(self.plan.clone());
        Planner::new().plan(&optimized, &self.ctx)
    }

    /// Execute and gather all rows to the driver. Execution failures (a
    /// stage exhausting its task retries) surface as [`PlanError::Exec`].
    pub fn collect(&self) -> Result<Vec<Row>, PlanError> {
        let phys = self.physical_plan()?;
        Ok(gather(phys.execute(&self.ctx)?))
    }

    /// Execute and return partitioned results (no driver gather).
    pub fn collect_partitions(&self) -> Result<Vec<Vec<Row>>, PlanError> {
        let phys = self.physical_plan()?;
        Ok(phys.execute(&self.ctx)?)
    }

    /// Execute and count rows.
    pub fn count(&self) -> Result<usize, PlanError> {
        Ok(self.collect_partitions()?.iter().map(Vec::len).sum())
    }

    /// Execute and return the rows together with the registry counters
    /// this query moved (EXPLAIN ANALYZE's little sibling), by name:
    /// `shuffle.rows` / `shuffle.bytes` / `shuffle.ns`,
    /// `phase.{build,probe,recompute}_ns`, `broadcast.bytes`, and the rest.
    /// Concurrent queries on the same cluster land in the same counters.
    pub fn analyze(&self) -> Result<(Vec<Row>, BTreeMap<String, u64>), PlanError> {
        let registry = self.ctx.cluster().registry();
        let before = registry.merged();
        let rows = self.collect()?;
        Ok((rows, registry.merged().since(&before)))
    }

    /// Render the logical and physical plans.
    pub fn explain(&self) -> Result<String, PlanError> {
        let optimized = optimize(self.plan.clone());
        let phys = Planner::new().plan(&optimized, &self.ctx)?;
        Ok(format!(
            "== Logical ==\n{}== Physical ==\n{}",
            optimized.display_indent(),
            phys.describe(0)
        ))
    }
}

/// A frame with pending grouping keys.
pub struct GroupedFrame {
    df: DataFrame,
    keys: Vec<String>,
}

impl GroupedFrame {
    /// Apply aggregate functions: `(func, input column or None, out name)`.
    pub fn agg(self, aggs: Vec<(AggFunc, Option<&str>, &str)>) -> DataFrame {
        let aggs = aggs
            .into_iter()
            .map(|(func, input, out)| AggSpec {
                func,
                input: input.map(str::to_string),
                out_name: out.to_string(),
            })
            .collect();
        DataFrame {
            plan: LogicalPlan::Aggregate {
                input: Box::new(self.df.plan),
                group_by: self.keys,
                aggs,
            },
            ctx: self.df.ctx,
        }
    }

    /// Shorthand for `COUNT(*) AS count`.
    pub fn count(self) -> DataFrame {
        self.agg(vec![(AggFunc::Count, None, "count")])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::expr::lit;
    use rowstore::{DataType, Field, Value};
    use sparklet::{Cluster, ClusterConfig};

    fn ctx() -> Arc<Context> {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..100)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Int64(i % 4),
                    Value::Utf8(format!("u{i}")),
                ]
            })
            .collect();
        ctx.register_table("users", Arc::new(ColumnarTable::from_rows(schema, rows, 4)));
        let ref_schema = Schema::new(vec![
            Field::new("grp", DataType::Int64),
            Field::new("label", DataType::Utf8),
        ]);
        let refs: Vec<Row> = (0..4)
            .map(|g| vec![Value::Int64(g), Value::Utf8(format!("g{g}"))])
            .collect();
        ctx.register_table(
            "groups",
            Arc::new(ColumnarTable::from_rows(ref_schema, refs, 2)),
        );
        ctx
    }

    #[test]
    fn filter_select_collect() {
        let ctx = ctx();
        let rows = ctx
            .table("users")
            .unwrap()
            .filter(col("id").lt(lit(10i64)))
            .select(&["name"])
            .collect()
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].len(), 1);
    }

    #[test]
    fn join_api() {
        let ctx = ctx();
        let users = ctx.table("users").unwrap();
        let groups = ctx.table("groups").unwrap();
        let joined = users.join(groups, "grp", "grp");
        assert_eq!(joined.count().unwrap(), 100);
        let schema = joined.schema().unwrap();
        assert_eq!(schema.arity(), 5);
        assert_eq!(schema.field(3).name, "right.grp");
    }

    #[test]
    fn group_by_count() {
        let ctx = ctx();
        let mut rows = ctx
            .table("users")
            .unwrap()
            .group_by(&["grp"])
            .count()
            .collect()
            .unwrap();
        rows.sort_by_key(|r| r[0].as_i64().unwrap());
        assert_eq!(rows.len(), 4);
        for r in rows {
            assert_eq!(r[1], Value::Int64(25));
        }
    }

    #[test]
    fn limit_api() {
        let ctx = ctx();
        assert_eq!(ctx.table("users").unwrap().limit(7).count().unwrap(), 7);
    }

    #[test]
    fn explain_shows_both_plans() {
        let ctx = ctx();
        let text = ctx
            .table("users")
            .unwrap()
            .filter(col("id").eq(lit(5i64)))
            .explain()
            .unwrap();
        assert!(text.contains("== Logical =="));
        assert!(text.contains("== Physical =="));
        assert!(text.contains("ColumnarPipeline"));
    }

    #[test]
    fn unknown_table_errors() {
        let ctx = ctx();
        assert!(matches!(ctx.table("nope"), Err(PlanError::UnknownTable(_))));
    }

    #[test]
    fn unknown_column_errors_at_collect() {
        let ctx = ctx();
        let res = ctx
            .table("users")
            .unwrap()
            .filter(col("missing").eq(lit(1i64)))
            .collect();
        assert!(matches!(res, Err(PlanError::UnknownColumn(_))));
    }
}
