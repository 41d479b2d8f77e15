//! Row-level filter over an arbitrary child operator.

use crate::context::Context;
use crate::expr::BoundExpr;
use crate::physical::{
    count_path, count_rows, describe_node, observe_operator, ExecError, ExecPlan, Partitions,
};
use rowstore::Schema;
use std::sync::Arc;

pub struct FilterExec {
    pub input: Arc<dyn ExecPlan>,
    pub predicate: BoundExpr,
}

impl ExecPlan for FilterExec {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let parts = self.input.execute(ctx)?;
        let inputs: Arc<Vec<Vec<rowstore::Row>>> = Arc::new(parts);
        let predicate = self.predicate.clone();
        let inputs2 = Arc::clone(&inputs);
        // Standalone filters walk the expression tree per row and clone
        // every survivor — the path fused pipelines exist to avoid.
        count_path(ctx, false);
        observe_operator(ctx, "filter", count_rows(&inputs), || {
            Ok(ctx
                .cluster()
                .run_stage_partitions(inputs.len(), move |tc| {
                    inputs2[tc.partition]
                        .iter()
                        .filter(|r| BoundExpr::is_true(&predicate.eval_row(r)))
                        .cloned()
                        .collect()
                })?)
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(indent, "Filter", &[self.input.as_ref()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::expr::{col, lit};
    use crate::physical::gather;
    use crate::physical::scan::ProviderScanExec;
    use rowstore::{DataType, Field, Row, Value};
    use sparklet::{Cluster, ClusterConfig};

    #[test]
    fn filters_rows() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let rows: Vec<Row> = (0..50).map(|i| vec![Value::Int64(i)]).collect();
        let table = Arc::new(ColumnarTable::from_rows(Arc::clone(&schema), rows, 3));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let scan = Arc::new(ProviderScanExec::new(table, "t"));
        let pred = BoundExpr::bind(&col("x").gt_eq(lit(40i64)), &schema).unwrap();
        let f = FilterExec {
            input: scan,
            predicate: pred,
        };
        let out = gather(f.execute(&ctx).unwrap());
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|r| r[0].as_i64().unwrap() >= 40));
    }
}
