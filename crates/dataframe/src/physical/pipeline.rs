//! The fused vectorized pipeline: scan→filter→project(→limit) in one
//! operator over shared columnar storage.
//!
//! Instead of chaining Scan → Filter → Project operators (each
//! materializing a full `Vec<Vec<Row>>`), the pipeline evaluates the
//! predicate into a [`SelVec`] with batch kernels, then gathers only the
//! projected columns through it. Rows are materialized exactly once — at
//! the operator boundary where a shuffle or driver collect forces them —
//! or never, when the consumer accepts columnar output
//! ([`ExecPlan::execute_columnar`], used by the vectorized aggregation).
//!
//! The planner emits this node for any fusible chain over a provider that
//! advertises a [`ColumnarSource`]; row-layout providers keep the
//! row-at-a-time operators (counted under `operator.fallback`).

use crate::column::{ColumnVec, ColumnarPartition, ColumnarSource};
use crate::context::Context;
use crate::expr::BoundExpr;
use crate::physical::{
    count_path, describe_node, observe_operator, observe_operator_with, ExecError, ExecPlan,
    Partitions,
};
use crate::vector::{filter_into_sel, SelVec};
use rowstore::Schema;
use std::sync::Arc;

/// Rows scanned per predicate batch when a LIMIT is pushed into the
/// pipeline, so the scan can stop early instead of filtering the whole
/// partition first.
const LIMIT_CHUNK: usize = 4096;

/// What the pipeline emits per selected row.
#[derive(Clone)]
pub enum Projection {
    /// Every source column.
    All,
    /// A subset of source columns, by position.
    Columns(Vec<usize>),
    /// Computed expressions (each covered by the batch kernels).
    Exprs(Vec<BoundExpr>),
}

/// Fused scan→filter→project(→limit) over a [`ColumnarSource`].
pub struct ColumnarPipelineExec {
    pub source: Arc<dyn ColumnarSource>,
    pub label: String,
    pub predicate: Option<BoundExpr>,
    pub projection: Projection,
    /// Per-partition row cap (LIMIT pushdown). A `LimitExec` above still
    /// enforces the global limit across partitions.
    pub limit: Option<usize>,
    out_schema: Arc<Schema>,
}

impl ColumnarPipelineExec {
    pub fn new(
        source: Arc<dyn ColumnarSource>,
        label: impl Into<String>,
        predicate: Option<BoundExpr>,
        projection: Projection,
        out_schema: Arc<Schema>,
    ) -> ColumnarPipelineExec {
        ColumnarPipelineExec {
            source,
            label: label.into(),
            predicate,
            projection,
            limit: None,
            out_schema,
        }
    }

    /// A copy of this pipeline capped at `n` rows per partition.
    pub fn with_limit(&self, n: usize) -> ColumnarPipelineExec {
        ColumnarPipelineExec {
            source: Arc::clone(&self.source),
            label: self.label.clone(),
            predicate: self.predicate.clone(),
            projection: self.projection.clone(),
            limit: Some(self.limit.map_or(n, |m| m.min(n))),
            out_schema: Arc::clone(&self.out_schema),
        }
    }
}

/// Rows of `part` surviving the predicate, capped at `limit`. With a limit
/// the partition is scanned in chunks so filtering stops as soon as the
/// cap is reached.
fn select(part: &ColumnarPartition, predicate: Option<&BoundExpr>, limit: Option<usize>) -> SelVec {
    let n = part.num_rows();
    match (predicate, limit) {
        (None, None) => SelVec::identity(n),
        (None, Some(k)) => SelVec::range(0, n.min(k)),
        (Some(pred), None) => {
            let mut sel = SelVec::identity(n);
            filter_into_sel(pred, part, &mut sel);
            sel
        }
        (Some(pred), Some(k)) => {
            let mut picked = Vec::new();
            let mut start = 0;
            while start < n && picked.len() < k {
                let end = (start + LIMIT_CHUNK).min(n);
                let mut sel = SelVec::range(start, end);
                filter_into_sel(pred, part, &mut sel);
                let take = (k - picked.len()).min(sel.len());
                picked.extend_from_slice(&sel.indices()[..take]);
                start = end;
            }
            SelVec::from_indices(picked)
        }
    }
}

impl ExecPlan for ColumnarPipelineExec {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let source = Arc::clone(&self.source);
        let rows_in = source.num_rows() as u64;
        let predicate = self.predicate.clone();
        let projection = self.projection.clone();
        let limit = self.limit;
        count_path(ctx, true);
        observe_operator(ctx, "scan", rows_in, || {
            Ok(ctx
                .cluster()
                .run_stage_partitions(source.num_partitions(), move |tc| {
                    let part = source.partition(tc.partition);
                    let sel = select(&part, predicate.as_ref(), limit);
                    match &projection {
                        Projection::All => sel
                            .indices()
                            .iter()
                            .map(|&i| part.row(i as usize))
                            .collect::<Vec<_>>(),
                        Projection::Columns(cols) => sel
                            .indices()
                            .iter()
                            .map(|&i| part.row_projected(i as usize, cols))
                            .collect(),
                        Projection::Exprs(exprs) => {
                            let cols: Vec<ColumnVec> =
                                exprs.iter().map(|e| e.eval_batch(&part, &sel)).collect();
                            (0..sel.len())
                                .map(|j| cols.iter().map(|c| c.value(j)).collect())
                                .collect()
                        }
                    }
                })?)
        })
    }

    fn execute_columnar(
        &self,
        ctx: &Arc<Context>,
    ) -> Option<Result<Vec<Arc<ColumnarPartition>>, ExecError>> {
        let source = Arc::clone(&self.source);
        let rows_in = source.num_rows() as u64;
        let predicate = self.predicate.clone();
        let projection = self.projection.clone();
        let limit = self.limit;
        count_path(ctx, true);
        let count_out =
            |parts: &Vec<Arc<ColumnarPartition>>| parts.iter().map(|p| p.num_rows() as u64).sum();
        Some(observe_operator_with(
            ctx,
            "scan",
            rows_in,
            count_out,
            || {
                Ok(ctx
                    .cluster()
                    .run_stage_partitions(source.num_partitions(), move |tc| {
                        let part = source.partition(tc.partition);
                        // Identity pipeline: share the cached partition as-is.
                        if predicate.is_none()
                            && limit.is_none()
                            && matches!(projection, Projection::All)
                        {
                            return part;
                        }
                        let sel = select(&part, predicate.as_ref(), limit);
                        Arc::new(match &projection {
                            Projection::All => part.gather_project(sel.indices(), None),
                            Projection::Columns(cols) => {
                                part.gather_project(sel.indices(), Some(cols))
                            }
                            Projection::Exprs(exprs) => ColumnarPartition::from_columns(
                                exprs.iter().map(|e| e.eval_batch(&part, &sel)).collect(),
                            ),
                        })
                    })?)
            },
        ))
    }

    fn as_pipeline(&self) -> Option<&ColumnarPipelineExec> {
        Some(self)
    }

    fn describe(&self, indent: usize) -> String {
        let mut line = format!(
            "ColumnarPipeline: {} [{} partitions]",
            self.label,
            self.source.num_partitions()
        );
        if self.predicate.is_some() {
            line.push_str(" +filter");
        }
        match &self.projection {
            Projection::All => {}
            Projection::Columns(cols) => line.push_str(&format!(" +project({} cols)", cols.len())),
            Projection::Exprs(exprs) => line.push_str(&format!(" +project({} exprs)", exprs.len())),
        }
        if let Some(n) = self.limit {
            line.push_str(&format!(" +limit({n})"));
        }
        describe_node(indent, &line, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::expr::{col, lit};
    use crate::physical::gather;
    use rowstore::{DataType, Field, Row, Value};
    use sparklet::{Cluster, ClusterConfig};

    fn setup() -> (Arc<Context>, Arc<ColumnarTable>) {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..120)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Int64(i % 5),
                    Value::Utf8(format!("n{i}")),
                ]
            })
            .collect();
        let table = Arc::new(ColumnarTable::from_rows(schema, rows, 4));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        (ctx, table)
    }

    fn pipe(
        table: &Arc<ColumnarTable>,
        predicate: Option<BoundExpr>,
        projection: Projection,
    ) -> ColumnarPipelineExec {
        let out_schema = match &projection {
            Projection::Columns(cols) => table.schema.project(cols),
            _ => Arc::clone(&table.schema),
        };
        ColumnarPipelineExec::new(src(table), "t", predicate, projection, out_schema)
    }

    fn src(table: &Arc<ColumnarTable>) -> Arc<dyn ColumnarSource> {
        Arc::new(ColumnarTable::clone(table))
    }

    #[test]
    fn fused_filter_project_matches_row_semantics() {
        let (ctx, table) = setup();
        let pred = BoundExpr::bind(&col("id").lt(lit(30i64)), &table.schema).unwrap();
        let p = pipe(&table, Some(pred), Projection::Columns(vec![2, 0]));
        let rows = gather(p.execute(&ctx).unwrap());
        assert_eq!(rows.len(), 30);
        assert!(rows.iter().all(|r| r.len() == 2));
        assert!(rows
            .iter()
            .all(|r| r[0].as_str().is_some() && r[1].as_i64().unwrap() < 30));
    }

    #[test]
    fn computed_projection_runs_kernels() {
        let (ctx, table) = setup();
        let exprs = vec![
            BoundExpr::bind(&col("id").mul(lit(2i64)), &table.schema).unwrap(),
            BoundExpr::bind(&col("grp").eq(lit(0i64)), &table.schema).unwrap(),
        ];
        let out_schema = Schema::new(vec![
            Field::new("d", DataType::Int64),
            Field::new("z", DataType::Bool),
        ]);
        let p =
            ColumnarPipelineExec::new(src(&table), "t", None, Projection::Exprs(exprs), out_schema);
        let rows = gather(p.execute(&ctx).unwrap());
        assert_eq!(rows.len(), 120);
        for r in &rows {
            let d = r[0].as_i64().unwrap();
            assert_eq!(d % 2, 0);
            assert_eq!(r[1], Value::Bool(d % 10 == 0), "grp==0 ⇔ id%5==0");
        }
    }

    #[test]
    fn columnar_output_skips_row_materialization() {
        let (ctx, table) = setup();
        let pred = BoundExpr::bind(&col("grp").eq(lit(1i64)), &table.schema).unwrap();
        let p = pipe(&table, Some(pred), Projection::Columns(vec![0]));
        let parts = p.execute_columnar(&ctx).unwrap().unwrap();
        let total: usize = parts.iter().map(|p| p.num_rows()).sum();
        assert_eq!(total, 24);
        assert!(parts.iter().all(|p| p.num_columns() == 1));
        // Identity pipelines share the cached partition without copying.
        let id = pipe(&table, None, Projection::All);
        let parts = id.execute_columnar(&ctx).unwrap().unwrap();
        assert!(Arc::ptr_eq(&parts[0], &table.partitions[0]));
    }

    #[test]
    fn limit_pushdown_stops_scanning_early() {
        let (ctx, table) = setup();
        let pred = BoundExpr::bind(&col("id").gt_eq(lit(0i64)), &table.schema).unwrap();
        let p = pipe(&table, Some(pred), Projection::All).with_limit(3);
        let parts = p.execute(&ctx).unwrap();
        assert!(parts.iter().all(|p| p.len() <= 3), "per-partition cap");
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 12);
        // with_limit composes by taking the minimum.
        assert_eq!(p.with_limit(10).limit, Some(3));
        assert_eq!(p.with_limit(2).limit, Some(2));
    }

    #[test]
    fn pipeline_counts_vectorized_operator_metric() {
        let (ctx, table) = setup();
        let p = pipe(&table, None, Projection::All);
        p.execute(&ctx).unwrap();
        let reg = ctx.cluster().registry();
        assert!(reg.counter_value("operator.vectorized") > 0);
    }

    #[test]
    fn describe_shows_fusion() {
        let (ctx, table) = setup();
        let _ = ctx;
        let pred = BoundExpr::bind(&col("id").lt(lit(3i64)), &table.schema).unwrap();
        let p = pipe(&table, Some(pred), Projection::Columns(vec![0])).with_limit(5);
        let d = p.describe(0);
        assert!(d.contains("ColumnarPipeline"), "{d}");
        assert!(d.contains("+filter"), "{d}");
        assert!(d.contains("+project(1 cols)"), "{d}");
        assert!(d.contains("+limit(5)"), "{d}");
    }
}
