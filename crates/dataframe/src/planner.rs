//! The physical planner: lowers logical plans to executable operators.
//!
//! Before default planning of any node, all registered [`PlannerRule`]s are
//! consulted — this is the seam where the Indexed DataFrame injects its
//! indexed operators (§III-B: "optimization rules transform the logical
//! plan into a physical plan"). Default planning fuses filters and
//! column-only projections into columnar scans and picks join strategies
//! the way Spark does: broadcast-hash below the size threshold, otherwise
//! a shuffled join that re-decides its strategy at runtime.

use crate::context::{Context, StatsTarget};
use crate::expr::{BoundExpr, Expr, PlanError};
use crate::physical::adaptive::AdaptiveJoinExec;
use crate::physical::agg::{BoundAgg, HashAggExec};
use crate::physical::filter::FilterExec;
use crate::physical::join::BroadcastHashJoinExec;
use crate::physical::limit::LimitExec;
use crate::physical::pipeline::{ColumnarPipelineExec, Projection};
use crate::physical::project::ProjectExec;
use crate::physical::scan::ProviderScanExec;
use crate::physical::ExecPlan;
use crate::plan::LogicalPlan;
use std::sync::Arc;

/// Stateless physical planner.
#[derive(Default)]
pub struct Planner;

impl Planner {
    pub fn new() -> Planner {
        Planner
    }

    /// Plan `plan`, consulting extension rules first.
    pub fn plan(
        &self,
        plan: &LogicalPlan,
        ctx: &Arc<Context>,
    ) -> Result<Arc<dyn ExecPlan>, PlanError> {
        for rule in ctx.rules() {
            if let Some(result) = rule.plan(plan, ctx, self) {
                return result;
            }
        }
        self.plan_default(plan, ctx)
    }

    /// Plan without extension rules (used by rules to plan children they do
    /// not handle, avoiding infinite recursion into themselves is the
    /// rule's own responsibility — they normally call `plan`, which is fine
    /// because their match will no longer fire on the child shape).
    pub fn plan_default(
        &self,
        plan: &LogicalPlan,
        ctx: &Arc<Context>,
    ) -> Result<Arc<dyn ExecPlan>, PlanError> {
        match plan {
            LogicalPlan::Scan { table, .. } => self.plan_scan(table, None, None, ctx),

            LogicalPlan::Filter { input, predicate } => {
                // Fuse Filter(Scan) into the scan.
                if let LogicalPlan::Scan { table, .. } = input.as_ref() {
                    return self.plan_scan(table, Some(predicate), None, ctx);
                }
                let child = self.plan(input, ctx)?;
                let predicate = BoundExpr::bind(predicate, &child.schema())?;
                Ok(Arc::new(FilterExec {
                    input: child,
                    predicate,
                }))
            }

            LogicalPlan::Project { input, exprs } => {
                // Fuse column-only projections over (filtered) scans.
                if let Some(cols) = plain_columns(exprs) {
                    // Give extension rules a chance at the child shape
                    // first (e.g. an indexed lookup under a projection).
                    for rule in ctx.rules() {
                        if let Some(result) = rule.plan(input, ctx, self) {
                            let child = result?;
                            let in_schema = child.schema();
                            let idx = resolve_cols(&cols, &in_schema)?;
                            let bound = idx.iter().map(|&i| BoundExpr::Col(i)).collect();
                            let out_schema = in_schema.project(&idx);
                            return Ok(Arc::new(ProjectExec {
                                input: child,
                                exprs: bound,
                                out_schema,
                            }));
                        }
                    }
                    match input.as_ref() {
                        LogicalPlan::Scan { table, schema } => {
                            let idx = resolve_cols(&cols, schema)?;
                            return self.plan_scan(table, None, Some(idx), ctx);
                        }
                        LogicalPlan::Filter {
                            input: inner,
                            predicate,
                        } => {
                            if let LogicalPlan::Scan { table, schema } = inner.as_ref() {
                                let idx = resolve_cols(&cols, schema)?;
                                return self.plan_scan(table, Some(predicate), Some(idx), ctx);
                            }
                        }
                        _ => {}
                    }
                }
                // Computed projection. Extension rules get the child shape
                // first; failing that, fuse the whole scan→filter→project
                // chain into a vectorized pipeline over columnar partitions.
                let mut rule_child: Option<Arc<dyn ExecPlan>> = None;
                for rule in ctx.rules() {
                    if let Some(result) = rule.plan(input, ctx, self) {
                        rule_child = Some(result?);
                        break;
                    }
                }
                let child = match rule_child {
                    Some(c) => c,
                    None => {
                        if let Some(fused) =
                            self.fuse_computed_projection(plan, input, exprs, ctx)?
                        {
                            return Ok(fused);
                        }
                        self.plan_default(input, ctx)?
                    }
                };
                let in_schema = child.schema();
                let bound = exprs
                    .iter()
                    .map(|(e, _)| BoundExpr::bind(e, &in_schema))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Arc::new(ProjectExec {
                    input: child,
                    exprs: bound,
                    out_schema: plan.schema()?,
                }))
            }

            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => self.plan_join(left, right, left_key, right_key, ctx),

            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let child = self.plan(input, ctx)?;
                let in_schema = child.schema();
                let group_idx = resolve_cols(group_by, &in_schema)?;
                let bound_aggs = aggs
                    .iter()
                    .map(|a| {
                        let input = match &a.input {
                            None => None,
                            Some(c) => Some(
                                in_schema
                                    .index_of(c)
                                    .ok_or_else(|| PlanError::UnknownColumn(c.clone()))?,
                            ),
                        };
                        Ok(BoundAgg {
                            func: a.func,
                            input,
                        })
                    })
                    .collect::<Result<Vec<_>, PlanError>>()?;
                Ok(Arc::new(HashAggExec {
                    input: child,
                    group_by: group_idx,
                    aggs: bound_aggs,
                    out_schema: plan.schema()?,
                }))
            }

            LogicalPlan::Sort { input, keys } => {
                let child = self.plan(input, ctx)?;
                let schema = child.schema();
                let keys = keys
                    .iter()
                    .map(|(k, desc)| {
                        schema
                            .index_of(k)
                            .map(|i| (i, *desc))
                            .ok_or_else(|| PlanError::UnknownColumn(k.clone()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Arc::new(crate::physical::sort::SortExec {
                    input: child,
                    keys,
                }))
            }

            LogicalPlan::Limit { input, n } => {
                let child = self.plan(input, ctx)?;
                // Push a per-partition cap into a fused pipeline so the
                // scan stops early; the outer LimitExec still enforces the
                // global cap across partitions.
                if let Some(p) = child.as_pipeline() {
                    return Ok(Arc::new(LimitExec {
                        input: Arc::new(p.with_limit(*n)),
                        n: *n,
                    }));
                }
                Ok(Arc::new(LimitExec {
                    input: child,
                    n: *n,
                }))
            }
        }
    }

    /// Plan a base-table scan with optional pushed-down predicate and
    /// projection.
    pub fn plan_scan(
        &self,
        table: &str,
        predicate: Option<&Expr>,
        projection: Option<Vec<usize>>,
        ctx: &Arc<Context>,
    ) -> Result<Arc<dyn ExecPlan>, PlanError> {
        let provider = ctx.provider(table)?;
        let schema = provider.schema();
        let predicate = predicate.map(|p| BoundExpr::bind(p, &schema)).transpose()?;
        // Vectorized pipeline whenever the provider exposes columnar
        // partitions.
        if let Some(source) = provider.columnar_source() {
            let (projection, out_schema) = match projection {
                Some(idx) => {
                    let out = schema.project(&idx);
                    (Projection::Columns(idx), out)
                }
                None => (Projection::All, Arc::clone(&schema)),
            };
            return Ok(Arc::new(ColumnarPipelineExec::new(
                source, table, predicate, projection, out_schema,
            )));
        }
        // Generic provider: row scan with pushdown delegated to the
        // provider (the Indexed Batch RDD filters on encoded rows).
        Ok(Arc::new(ProviderScanExec::with_pushdown(
            provider, table, predicate, projection,
        )))
    }

    /// Try to fuse a computed projection (with optional filter underneath)
    /// over a base scan into one vectorized pipeline. `None` when the plan
    /// shape doesn't match or the provider has no columnar partitions.
    fn fuse_computed_projection(
        &self,
        plan: &LogicalPlan,
        input: &LogicalPlan,
        exprs: &[(Expr, String)],
        ctx: &Arc<Context>,
    ) -> Result<Option<Arc<dyn ExecPlan>>, PlanError> {
        let (table, schema, predicate) = match input {
            LogicalPlan::Scan { table, schema } => (table, schema, None),
            LogicalPlan::Filter {
                input: inner,
                predicate,
            } => match inner.as_ref() {
                LogicalPlan::Scan { table, schema } => (table, schema, Some(predicate)),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        let provider = ctx.provider(table)?;
        let Some(source) = provider.columnar_source() else {
            return Ok(None);
        };
        let predicate = predicate.map(|p| BoundExpr::bind(p, schema)).transpose()?;
        let bound = exprs
            .iter()
            .map(|(e, _)| BoundExpr::bind(e, schema))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Some(Arc::new(ColumnarPipelineExec::new(
            source,
            table,
            predicate,
            Projection::Exprs(bound),
            plan.schema()?,
        ))))
    }

    fn plan_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        left_key: &str,
        right_key: &str,
        ctx: &Arc<Context>,
    ) -> Result<Arc<dyn ExecPlan>, PlanError> {
        let left_phys = self.plan(left, ctx)?;
        let right_phys = self.plan(right, ctx)?;
        let ls = left_phys.schema();
        let rs = right_phys.schema();
        let lk = ls
            .index_of(left_key)
            .ok_or_else(|| PlanError::UnknownColumn(left_key.into()))?;
        let rk = rs
            .index_of(right_key)
            .ok_or_else(|| PlanError::UnknownColumn(right_key.into()))?;
        let out_schema = ls.join(&rs);

        let lsize = estimate_bytes(left, ctx).unwrap_or(usize::MAX);
        let rsize = estimate_bytes(right, ctx).unwrap_or(usize::MAX);
        let threshold = ctx.config().broadcast_threshold_bytes;

        if lsize.min(rsize) <= threshold {
            // Broadcast the smaller side (the build relation, §IV-C).
            let build_is_left = lsize <= rsize;
            let (build, probe, build_key, probe_key, build_plan) = if build_is_left {
                (left_phys, right_phys, lk, rk, left)
            } else {
                (right_phys, left_phys, rk, lk, right)
            };
            return Ok(Arc::new(BroadcastHashJoinExec {
                build,
                probe,
                build_key,
                probe_key,
                build_is_left,
                build_stats: stats_target(build_plan),
                out_schema,
            }));
        }
        // No side is estimated broadcastable — defer the strategy decision
        // to runtime, when materialized sizes and key frequencies are known
        // (demotion / salting / plain shuffle, with the sort-merge reduce
        // body when the session prefers it).
        Ok(Arc::new(AdaptiveJoinExec {
            left: left_phys,
            right: right_phys,
            left_key: lk,
            right_key: rk,
            left_stats: stats_target(left),
            right_stats: stats_target(right),
            sort_merge: ctx.config().prefer_sort_merge,
            out_schema,
        }))
    }
}

/// If every projection expression is a bare column, return the names.
fn plain_columns(exprs: &[(Expr, String)]) -> Option<Vec<String>> {
    exprs
        .iter()
        .map(|(e, name)| match e {
            Expr::Col(c) if c == name => Some(c.clone()),
            _ => None,
        })
        .collect()
}

fn resolve_cols(names: &[String], schema: &rowstore::Schema) -> Result<Vec<usize>, PlanError> {
    names
        .iter()
        .map(|n| {
            schema
                .index_of(n)
                .ok_or_else(|| PlanError::UnknownColumn(n.clone()))
        })
        .collect()
}

/// Runtime-stats key for a join input: bare scans record against their
/// catalog name; join/aggregate subtrees record against their plan
/// fingerprint (tagged with the tables they read, so re-registering any of
/// them invalidates the observation). Filters/projects/sorts/limits stay
/// unkeyed — their output size depends on the predicate, and their input
/// size already serves as the planning upper bound.
fn stats_target(plan: &LogicalPlan) -> Option<StatsTarget> {
    match plan {
        LogicalPlan::Scan { table, .. } => Some(StatsTarget::Table(table.clone())),
        LogicalPlan::Join { .. } | LogicalPlan::Aggregate { .. } => Some(StatsTarget::Plan {
            fingerprint: plan.fingerprint(),
            tables: plan.referenced_tables(),
        }),
        _ => None,
    }
}

/// Size estimation for join-strategy selection. `None` = unknown.
/// Observed runtime statistics (recorded by an earlier query's join over
/// the same table or the same join/aggregate subtree) take precedence over
/// the provider's static estimate.
pub fn estimate_bytes(plan: &LogicalPlan, ctx: &Arc<Context>) -> Option<usize> {
    match plan {
        LogicalPlan::Scan { table, .. } => ctx
            .runtime_stats()
            .observed(table)
            .map(|s| s.bytes as usize)
            .or_else(|| ctx.provider(table).ok().map(|p| p.estimated_bytes())),
        // Filters and projections only shrink their input: the input size
        // is a safe upper bound.
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            estimate_bytes(input, ctx)
        }
        LogicalPlan::Sort { input, .. } => estimate_bytes(input, ctx),
        LogicalPlan::Limit { input, n } => {
            estimate_bytes(input, ctx).map(|b| b.min(n.saturating_mul(64)))
        }
        // Non-scan build sides: unknown until a query materializes the
        // subtree once, after which its measured size is keyed by the plan
        // fingerprint.
        LogicalPlan::Join { .. } | LogicalPlan::Aggregate { .. } => ctx
            .runtime_stats()
            .observed_plan(plan.fingerprint())
            .map(|s| s.bytes as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::context::ExecConfig;
    use crate::expr::{col, lit};
    use rowstore::{DataType, Field, Row, Schema, Value};
    use sparklet::{Cluster, ClusterConfig};

    fn ctx_with_tables(threshold: usize) -> Arc<Context> {
        ctx_with_tables_cfg(ExecConfig {
            broadcast_threshold_bytes: threshold,
            ..ExecConfig::default()
        })
    }

    fn ctx_with_tables_cfg(config: ExecConfig) -> Arc<Context> {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let ctx = Context::with_config(cluster, config);
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Utf8),
        ]);
        let big: Vec<Row> = (0..1000)
            .map(|i| vec![Value::Int64(i % 50), Value::Utf8(format!("b{i}"))])
            .collect();
        let small: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int64(i), Value::Utf8(format!("s{i}"))])
            .collect();
        ctx.register_table(
            "big",
            Arc::new(ColumnarTable::from_rows(Arc::clone(&schema), big, 4)),
        );
        ctx.register_table(
            "small",
            Arc::new(ColumnarTable::from_rows(schema, small, 2)),
        );
        ctx
    }

    fn scan(ctx: &Arc<Context>, t: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: t.into(),
            schema: ctx.provider(t).unwrap().schema(),
        }
    }

    #[test]
    fn join_below_threshold_uses_broadcast() {
        let ctx = ctx_with_tables(1 << 20);
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&ctx, "big")),
            right: Box::new(scan(&ctx, "small")),
            left_key: "k".into(),
            right_key: "k".into(),
        };
        let phys = Planner::new().plan(&plan, &ctx).unwrap();
        assert!(phys.describe(0).contains("BroadcastHashJoin"));
    }

    #[test]
    fn join_above_threshold_defaults_to_adaptive() {
        let ctx = ctx_with_tables(1); // nothing broadcasts statically
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&ctx, "big")),
            right: Box::new(scan(&ctx, "small")),
            left_key: "k".into(),
            right_key: "k".into(),
        };
        let phys = Planner::new().plan(&plan, &ctx).unwrap();
        assert!(
            phys.describe(0).contains("AdaptiveJoin"),
            "{}",
            phys.describe(0)
        );
    }

    #[test]
    fn runtime_stats_override_provider_estimate() {
        // Without feedback, both sides are estimated over-threshold.
        let ctx = ctx_with_tables(256);
        let join = LogicalPlan::Join {
            left: Box::new(scan(&ctx, "big")),
            right: Box::new(scan(&ctx, "small")),
            left_key: "k".into(),
            right_key: "k".into(),
        };
        let phys = Planner::new().plan(&join, &ctx).unwrap();
        assert!(phys.describe(0).contains("AdaptiveJoin"));

        // A prior query observed "small" is actually tiny: the next static
        // plan picks broadcast straight away.
        ctx.runtime_stats().record_table("small", 10, 100);
        let phys = Planner::new().plan(&join, &ctx).unwrap();
        assert!(
            phys.describe(0).contains("BroadcastHashJoin"),
            "{}",
            phys.describe(0)
        );

        // Re-registering the table invalidates the observation.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int64(i), Value::Utf8(format!("s{i}"))])
            .collect();
        ctx.register_table("small", Arc::new(ColumnarTable::from_rows(schema, rows, 2)));
        let phys = Planner::new().plan(&join, &ctx).unwrap();
        assert!(phys.describe(0).contains("AdaptiveJoin"));
    }

    #[test]
    fn sort_merge_preference_rides_the_adaptive_operator() {
        // prefer_sort_merge: the join still re-decides at runtime, but its
        // no-opportunity fallback is the sort-merge body.
        let ctx = ctx_with_tables_cfg(ExecConfig {
            broadcast_threshold_bytes: 1,
            prefer_sort_merge: true,
            ..ExecConfig::default()
        });
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&ctx, "big")),
            right: Box::new(scan(&ctx, "small")),
            left_key: "k".into(),
            right_key: "k".into(),
        };
        let phys = Planner::new().plan(&plan, &ctx).unwrap();
        let desc = phys.describe(0);
        assert!(
            desc.contains("AdaptiveJoin") && desc.contains("fallback=sortmerge"),
            "{desc}"
        );
    }

    #[test]
    fn observed_join_output_promotes_nested_build_to_broadcast() {
        // A join used as a build side has no static estimate; after one
        // execution records its materialized size under the plan
        // fingerprint, the next static plan broadcasts it.
        let ctx = ctx_with_tables(256);
        let inner = LogicalPlan::Join {
            left: Box::new(scan(&ctx, "small")),
            right: Box::new(scan(&ctx, "small")),
            left_key: "k".into(),
            right_key: "k".into(),
        };
        let outer = LogicalPlan::Join {
            left: Box::new(inner.clone()),
            right: Box::new(scan(&ctx, "big")),
            left_key: "k".into(),
            right_key: "k".into(),
        };
        let phys = Planner::new().plan(&outer, &ctx).unwrap();
        assert!(phys.describe(0).contains("AdaptiveJoin"));

        // Simulate the runtime feedback an execution would record.
        ctx.runtime_stats().record(
            &StatsTarget::Plan {
                fingerprint: inner.fingerprint(),
                tables: inner.referenced_tables(),
            },
            10,
            100,
        );
        let phys = Planner::new().plan(&outer, &ctx).unwrap();
        assert!(
            phys.describe(0).contains("BroadcastHashJoin"),
            "{}",
            phys.describe(0)
        );

        // Re-registering a referenced table invalidates the observation.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int64(i), Value::Utf8(format!("s{i}"))])
            .collect();
        ctx.register_table("small", Arc::new(ColumnarTable::from_rows(schema, rows, 2)));
        let phys = Planner::new().plan(&outer, &ctx).unwrap();
        assert!(phys.describe(0).contains("AdaptiveJoin"));
    }

    #[test]
    fn filter_over_scan_is_fused() {
        let ctx = ctx_with_tables(1 << 20);
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&ctx, "big")),
            predicate: col("k").eq(lit(3i64)),
        };
        let phys = Planner::new().plan(&plan, &ctx).unwrap();
        let desc = phys.describe(0);
        assert!(
            desc.contains("ColumnarPipeline") && desc.contains("+filter"),
            "{desc}"
        );
        assert!(!desc.contains("Filter\n"), "no separate FilterExec: {desc}");
    }

    #[test]
    fn column_projection_over_filtered_scan_is_fused() {
        let ctx = ctx_with_tables(1 << 20);
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(&ctx, "big")),
                predicate: col("k").lt(lit(5i64)),
            }),
            exprs: vec![(col("v"), "v".into())],
        };
        let phys = Planner::new().plan(&plan, &ctx).unwrap();
        let desc = phys.describe(0);
        assert!(
            desc.contains("ColumnarPipeline")
                && desc.contains("+filter")
                && desc.contains("+project"),
            "{desc}"
        );
        assert_eq!(phys.schema().arity(), 1);
    }

    #[test]
    fn computed_projection_is_fused() {
        let ctx = ctx_with_tables(1 << 20);
        let plan = LogicalPlan::Project {
            input: Box::new(scan(&ctx, "big")),
            exprs: vec![(col("k").add(lit(1i64)), "k1".into())],
        };
        let phys = Planner::new().plan(&plan, &ctx).unwrap();
        let desc = phys.describe(0);
        assert!(
            desc.contains("ColumnarPipeline") && desc.contains("+project(1 exprs)"),
            "{desc}"
        );
        assert_eq!(phys.schema().arity(), 1);
    }

    #[test]
    fn not_over_non_boolean_is_rejected_at_plan_time() {
        // NOT over a non-boolean column is a type error: planning fails
        // before any stage runs, for a filter and a computed projection.
        let ctx = ctx_with_tables(1 << 20);
        let filter = LogicalPlan::Filter {
            input: Box::new(scan(&ctx, "big")),
            predicate: col("k").not(),
        };
        let project = LogicalPlan::Project {
            input: Box::new(scan(&ctx, "big")),
            exprs: vec![(col("k").not(), "nk".into())],
        };
        for plan in [filter, project] {
            match Planner::new().plan(&plan, &ctx) {
                Err(PlanError::Unsupported(_)) => {}
                Err(e) => panic!("expected Unsupported, got {e:?}"),
                Ok(p) => panic!("expected Unsupported, got plan {}", p.describe(0)),
            }
        }
    }

    #[test]
    fn limit_is_pushed_into_pipeline() {
        let ctx = ctx_with_tables(1 << 20);
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(&ctx, "big")),
                predicate: col("k").lt(lit(5i64)),
            }),
            n: 7,
        };
        let phys = Planner::new().plan(&plan, &ctx).unwrap();
        let desc = phys.describe(0);
        assert!(
            desc.contains("Limit 7") && desc.contains("+limit(7)"),
            "global limit plus per-partition pushdown: {desc}"
        );
    }
}
