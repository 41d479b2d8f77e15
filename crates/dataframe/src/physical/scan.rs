//! The row scan: a generic provider scan used for any [`TableProvider`]
//! without columnar partitions (the row fallback path of Fig. 2). Columnar
//! providers are scanned by the vectorized
//! [`ColumnarPipelineExec`](crate::physical::pipeline::ColumnarPipelineExec).

use crate::context::{Context, TableProvider};
use crate::expr::BoundExpr;
use crate::physical::{
    count_path, describe_node, observe_operator, ExecError, ExecPlan, Partitions,
};
use rowstore::Schema;
use std::sync::Arc;

/// Generic scan over any table provider, with predicate/projection
/// pushdown delegated to the provider (which may still have to touch whole
/// rows — the row representation the paper notes is "less efficient than
/// the columnar format ... for projections", §IV-D).
pub struct ProviderScanExec {
    pub provider: Arc<dyn TableProvider>,
    pub label: String,
    pub predicate: Option<BoundExpr>,
    pub projection: Option<Vec<usize>>,
    out_schema: Arc<Schema>,
}

impl ProviderScanExec {
    pub fn new(provider: Arc<dyn TableProvider>, label: impl Into<String>) -> ProviderScanExec {
        Self::with_pushdown(provider, label, None, None)
    }

    pub fn with_pushdown(
        provider: Arc<dyn TableProvider>,
        label: impl Into<String>,
        predicate: Option<BoundExpr>,
        projection: Option<Vec<usize>>,
    ) -> ProviderScanExec {
        let out_schema = match &projection {
            Some(cols) => provider.schema().project(cols),
            None => provider.schema(),
        };
        ProviderScanExec {
            provider,
            label: label.into(),
            predicate,
            projection,
            out_schema,
        }
    }
}

impl ExecPlan for ProviderScanExec {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let provider = Arc::clone(&self.provider);
        let rows_in = provider.num_rows() as u64;
        let predicate = self.predicate.clone();
        let projection = self.projection.clone();
        count_path(ctx, false);
        observe_operator(ctx, "scan", rows_in, || {
            Ok(ctx
                .cluster()
                .run_stage_partitions(provider.num_partitions(), move |tc| {
                    provider.scan_partition_pushdown(
                        tc.partition,
                        predicate.as_ref(),
                        projection.as_deref(),
                    )
                })?)
        })
    }

    fn describe(&self, indent: usize) -> String {
        let mut line = format!(
            "ProviderScan: {} [{} partitions]",
            self.label,
            self.provider.num_partitions()
        );
        if self.predicate.is_some() {
            line.push_str(" +filter");
        }
        if let Some(p) = &self.projection {
            line.push_str(&format!(" +project({} cols)", p.len()));
        }
        describe_node(indent, &line, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::expr::{col, lit};
    use rowstore::{DataType, Field, Row, Value};
    use sparklet::{Cluster, ClusterConfig};

    fn setup() -> (Arc<Context>, Arc<dyn TableProvider>) {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..100)
            .map(|i| vec![Value::Int64(i), Value::Utf8(format!("n{i}"))])
            .collect();
        let table = Arc::new(ColumnarTable::from_rows(schema, rows, 4));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        (ctx, table)
    }

    #[test]
    fn plain_scan_returns_everything() {
        let (ctx, table) = setup();
        let scan = ProviderScanExec::new(table, "t");
        let parts = scan.execute(&ctx).unwrap();
        assert_eq!(parts.len(), 4);
        let rows = crate::physical::gather(parts);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[5].len(), 2);
    }

    #[test]
    fn pushed_down_filter() {
        let (ctx, table) = setup();
        let pred = BoundExpr::bind(&col("id").lt(lit(10i64)), &table.schema()).unwrap();
        let scan = ProviderScanExec::with_pushdown(table, "t", Some(pred), None);
        let rows = crate::physical::gather(scan.execute(&ctx).unwrap());
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn pushed_down_projection() {
        let (ctx, table) = setup();
        let scan = ProviderScanExec::with_pushdown(table, "t", None, Some(vec![1]));
        assert_eq!(scan.schema().arity(), 1);
        let rows = crate::physical::gather(scan.execute(&ctx).unwrap());
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0].len(), 1);
    }
}
